"""Golden hashes for the ordering pipeline: solo and Raft, both systems.

``tests/integration/test_fault_determinism.py`` pins the healthy solo
orderer. These cases pin the ordering paths it does not reach, through
three hashes each:

- ``metrics_hash`` over the golden outcome/latency/commit-time fields;
- a SHA-256 of the whole ``metrics_to_dict`` snapshot, so the overload
  and consensus counters are pinned as well;
- a SHA-256 of the ``order``/``consensus`` Chrome trace events of a
  traced run, so the orderer's spans keep their content and order.

The cases:

- ``solo``: the single orderer under a stall, a bounded intake queue and
  a delivery-credit bound (admission rejections, delivery stalls, and
  under Fabric++ both kinds of early abort);
- ``raft``: a healthy three-node Raft cluster;
- ``failover``: the cluster under a stall, a bounded intake queue, a
  leader crash and a partition, so batches are re-proposed.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.bench.harness import run_experiment, run_experiment_with_network
from repro.bench.results import metrics_to_dict
from repro.fabric.config import BackpressureConfig
from repro.fabric.metrics import TxOutcome
from repro.faults import (
    FaultSchedule,
    OrdererCrashWindow,
    PartitionWindow,
    StallWindow,
)
from repro.trace import Tracer, chrome_trace_events
from tests.integration.test_fault_determinism import golden_spec, metrics_hash

STALL = StallWindow(at=0.8, duration=0.2)

CASES = {
    "solo": dict(
        client_rate=400.0,
        backpressure=BackpressureConfig(
            orderer_queue_limit=32, delivery_backlog_limit=1
        ),
        faults=FaultSchedule(stalls=(STALL,)),
    ),
    "raft": dict(orderer_nodes=3),
    "failover": dict(
        client_rate=400.0,
        backpressure=BackpressureConfig(orderer_queue_limit=32),
        orderer_nodes=3,
        endorsement_policy="outof:1",
        faults=FaultSchedule(
            stalls=(STALL,),
            orderer_crashes=(OrdererCrashWindow(node=1, at=0.4, duration=0.6),),
            partitions=(
                PartitionWindow(at=1.2, duration=0.3, groups=((0,), (1, 2))),
            ),
            endorsement_timeout=0.05,
        ),
    ),
}

#: (metrics_hash, full-snapshot hash, order/consensus trace hash) per
#: (case, system), captured before the solo and Raft orderers shared one
#: pipeline.
GOLDEN = {
    ("failover", "fabric++"): (
        "418ca50e865cab65b277f948111215e073a10e31fc7dc45cfb8e185cf143b117",
        "9c6127ed256ecea87cbf1ac68fc9719eaf12fe55596280e6e30d9a283befefdd",
        "6dd99fb99677cf71541594266f5468f626f0d1d531d5e8e719cb4855d3e7dd13",
    ),
    ("failover", "vanilla"): (
        "34b5d3e7fbf2aac8ec70babb21ceeb4a15b933511dc30a84cb1aba72b93651cf",
        "d5d367ceb3ee2c941e30d5175c98d0caeee12bd0a49418f451bced8487a01fe9",
        "12bd02c360e89a075ad12aba16c6303c95ebf51f86df024400950bc37d74e899",
    ),
    ("raft", "fabric++"): (
        "5cac4b583b05173aa1335eada4809b874336c18b9441de1fdfcd8733fec9a57f",
        "c2edf7f786f62a14754e4e4b648a2f8bdf89f4874f3d2e2f35638e7fb9525bbb",
        "580c26ab067e45f4976d57bcb65f2eb386b4d13387b1708835a3a17e04609086",
    ),
    ("raft", "vanilla"): (
        "2fdc048ba319aa4a89dce7d15f200fcaf84c33e0d6913c63127c7db2ebd14f4b",
        "a86ec266dbc80bb0d69dc5e47d6d22774236e38070d1ee2d1b9f8109aa376a6d",
        "0b3da24ec259662caefae092f98a06350cbb12a89b517acd24cbd72a6f138151",
    ),
    ("solo", "fabric++"): (
        "ea28d3a006fb96efe596b69c5b935ec4a9eb34de7f3b89677d517b520dcd82e7",
        "2bb9270d6bafcd84be6c11890c068a5f803aa772f5e05e550a225f8f2056a7fd",
        "101bdfc415c4c6a3775de2c2bf77fe50a2474a43d7d626360ddec4de0f5f647e",
    ),
    ("solo", "vanilla"): (
        "efaa1051f7233a52ba051dbf3f6f3e66cb2f77f4a3703606023822da85f4dd70",
        "97f51b2b8b17c1dce65ec9c7446493929b9c9d3138e36a0be99ac8afe53a7cd3",
        "04a3a6c38414fb057fd38fb8153c87e5fc86876d64a85e6bc4d4aabc1b4b2877",
    ),
}


def case_spec(case: str, system: str):
    spec = golden_spec(system)
    config = dataclasses.replace(spec.config, **CASES[case])
    drain = 3.0 if case in ("solo", "failover") else spec.drain
    return dataclasses.replace(spec, config=config, drain=drain)


def snapshot_hash(metrics) -> str:
    return hashlib.sha256(
        json.dumps(metrics_to_dict(metrics), sort_keys=True).encode()
    ).hexdigest()


def ordering_trace_hash(tracer: Tracer) -> str:
    """Hash of the ordering spans, named by track rather than thread id.

    ``reorder_wall_seconds`` is host wall-clock time and is left out.
    """
    events = chrome_trace_events(tracer)
    tracks = {
        event["tid"]: event["args"]["name"]
        for event in events
        if event["ph"] == "M" and event["name"] == "thread_name"
    }
    kept = []
    for event in events:
        if event.get("cat") not in ("order", "consensus"):
            continue
        event = dict(event, tid=tracks[event["tid"]])
        event["args"] = {
            key: value
            for key, value in event.get("args", {}).items()
            if key != "reorder_wall_seconds"
        }
        kept.append(event)
    return hashlib.sha256(json.dumps(kept, sort_keys=True).encode()).hexdigest()


def assert_path_runs(case: str, system: str, metrics) -> None:
    """Each case must exercise the ordering path it claims to pin."""
    if case in ("solo", "failover"):
        assert metrics.fault_counters["orderer_stalls"] == 1
        assert metrics.overload.orderer_rejections > 0
    if case == "solo":
        assert metrics.consensus is None
        assert metrics.overload.delivery_stall_seconds > 0
        if system == "fabric++":
            assert metrics.outcomes[TxOutcome.EARLY_ABORT_CYCLE] > 0
            assert metrics.outcomes[TxOutcome.EARLY_ABORT_VERSION] > 0
    else:
        assert metrics.consensus.entries_committed > 0
    if case == "failover":
        assert metrics.fault_counters["orderer_crashes"] == 1
        assert metrics.fault_counters["partitions"] == 1
        assert metrics.consensus.txs_reproposed > 0
        assert metrics.consensus.leader_changes >= 2


@pytest.mark.parametrize("case, system", sorted(GOLDEN))
def test_ordering_matches_golden(case, system):
    spec = case_spec(case, system)
    spec.config.validate()
    metrics = run_experiment(spec).metrics
    assert_path_runs(case, system, metrics)
    tracer = Tracer()
    run_experiment_with_network(spec, tracer=tracer)
    assert tracer.buffer.dropped == 0
    hashes = (
        metrics_hash(metrics),
        snapshot_hash(metrics),
        ordering_trace_hash(tracer),
    )
    assert hashes == GOLDEN[(case, system)]
