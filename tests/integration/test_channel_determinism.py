"""Determinism guarantees of the sharded-channel layer.

Two contracts, mirroring the fault-layer golden tests:

1. **``channels=1`` is bit-identical.** The sharded subsystem dispatches
   single-channel configs to the untouched legacy runtime, so the golden
   metric hashes captured before ``repro.channels`` existed still hold —
   for vanilla Fabric and Fabric++ alike.
2. **Sharded sweeps are worker-count independent.** A channel-count
   sweep produces identical fleet metrics (per-channel rows and saga
   stats included) whether it runs in-process or across ``--jobs N``
   worker processes.
3. **Fleet stats merge exactly.** A sharded run that fills the
   validation, consensus and overload stats of every channel hashes to
   the snapshot captured before those stats were merged from field
   metadata.
"""

import hashlib
import json
from dataclasses import replace

import pytest

from repro.bench.harness import run_experiment
from repro.bench.results import metrics_to_dict
from repro.bench.spec import ExperimentSpec
from repro.bench.sweep import run_sweep
from repro.fabric.config import BackpressureConfig

from tests.integration.test_fault_determinism import (
    GOLDEN_HASHES,
    golden_spec,
    metrics_hash,
)


@pytest.mark.parametrize("system", ["vanilla", "fabric++"])
def test_single_channel_config_is_bit_identical_to_golden(system):
    spec = golden_spec(system)
    config = replace(
        spec.config,
        channels=1,
        cross_channel_fraction=0.0,
        channel_cc_strategies=(),
    )
    assert not config.uses_sharding
    result = run_experiment(replace(spec, config=config))
    assert metrics_hash(result.metrics) == GOLDEN_HASHES[system]
    # The legacy runtime carries no fleet block at all.
    assert result.metrics.channels is None


def channel_sweep_specs():
    base = golden_spec("vanilla")
    specs = []
    for channels in (1, 2, 3):
        config = replace(
            base.config,
            channels=channels,
            cross_channel_fraction=0.25 if channels >= 2 else 0.0,
        )
        specs.append(
            ExperimentSpec(
                config=config,
                workload=base.workload,
                duration=1.5,
                drain=2.0,
                label=f"channels={channels}",
                params={"channels": channels},
            )
        )
    return specs


def test_channel_sweep_parallel_matches_serial():
    """--jobs N must not change sharded results (pickled round trip)."""
    serial = run_sweep(channel_sweep_specs(), jobs=1, cache=None)
    parallel = run_sweep(channel_sweep_specs(), jobs=2, cache=None)
    assert list(serial) == list(parallel)
    for left, right in zip(serial.values(), parallel.values()):
        assert metrics_to_dict(left.metrics) == metrics_to_dict(right.metrics)
        if left.params["channels"] >= 2:
            fleet = left.metrics.channels
            assert fleet is not None
            assert len(fleet.per_channel) == left.params["channels"]
            assert fleet.saga.started > 0


#: SHA-256 of the full ``metrics_to_dict`` snapshot of ``merge_spec()``,
#: captured while the fleet stats were still merged by hand.
FLEET_MERGE_HASH = (
    "91af3881885d6f99114add46cc52ff53dfe098d4cea9c53ec1b3645e1e4d7bcd"
)


def merge_spec() -> ExperimentSpec:
    spec = golden_spec("fabric++")
    config = replace(
        spec.config,
        channels=2,
        orderer_nodes=3,
        cc_strategy="dependency",
        validation_workers=2,
        client_rate=300.0,
        backpressure=BackpressureConfig(orderer_queue_limit=16),
    )
    return replace(spec, config=config)


def test_fleet_stats_merge_matches_golden():
    metrics = run_experiment(merge_spec()).metrics
    assert metrics.channels.channels == 2
    assert len(metrics.validation.lane_busy) == 4
    assert metrics.consensus.entries_committed > 0
    assert metrics.overload.orderer_rejections > 0
    snapshot = json.dumps(metrics_to_dict(metrics), sort_keys=True)
    assert hashlib.sha256(snapshot.encode()).hexdigest() == FLEET_MERGE_HASH
