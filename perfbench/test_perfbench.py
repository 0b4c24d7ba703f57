"""Tests of the benchmark itself, on a tiny configuration.

Run with ``python -m pytest perfbench -q`` from the checkout root.
"""

from __future__ import annotations

import importlib
import json
import re
from dataclasses import replace

import pytest

import child
import run
import specs
from layers import LayerTrace

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def tiny_spec(seed: int = 1, fabricpp: bool = True):
    """A run of about a second: few users, two slow clients."""
    from repro.bench.spec import ExperimentSpec
    from repro.fabric.config import FabricConfig
    from repro.workloads.registry import WorkloadRef

    overrides = specs.FABRICPP if fabricpp else {}
    config = replace(
        FabricConfig(), clients_per_channel=2, client_rate=100.0, **overrides
    )
    return ExperimentSpec(
        config=config,
        workload=WorkloadRef("smallbank", {"num_users": 50}, seed=seed),
        duration=2.0,
        drain=2.0,
        seed=seed,
    )


def declared():
    with open(run.BENCHMARK) as handle:
        return json.load(handle)


def is_count(name: str, unit: str) -> bool:
    """Deterministic metrics: everything not derived from a host clock."""
    return unit != "s" and not name.startswith("bench.")


@pytest.fixture(scope="module")
def traced_pair():
    return child.run_spec(tiny_spec(), True), child.run_spec(tiny_spec(), True)


def test_per_layer_counts_repeat_exactly(traced_pair):
    first, second = traced_pair
    units = {entry["name"]: entry["unit"] for entry in declared()["per_layer"]}
    counts = [name for name in first["layers"] if is_count(name, units[name])]
    assert "fabric.blocks" in counts and "crypto.verify_calls" in counts
    assert {n: first["layers"][n] for n in counts} == {
        n: second["layers"][n] for n in counts
    }


def test_conflict_graph_built_twice_per_block_only_with_reordering(traced_pair):
    layers = traced_pair[0]["layers"]
    assert layers["fabric.blocks"] > 0
    assert layers["core.conflict_graph_calls"] == 2 * layers["fabric.blocks"]
    vanilla = child.run_spec(tiny_spec(fabricpp=False), True)["layers"]
    assert vanilla["fabric.blocks"] > 0
    assert vanilla["core.conflict_graph_calls"] == 0


def test_traced_run_reproduces_the_segmented_untraced_run(traced_pair):
    untraced = child.run_spec(tiny_spec(), False)
    assert len(untraced["segment_wall_s"]) == child.SEGMENTS
    assert untraced["check"] == traced_pair[0]["check"]
    run.gate("tiny", 1, [untraced, traced_pair[0]], reference=None)


def test_every_metric_is_declared_with_a_unit_and_a_direction(traced_pair):
    benchmark = declared()
    entries = benchmark["end_to_end"] + benchmark["per_layer"]
    names = [entry["name"] for entry in entries]
    assert len(names) == len(set(names))
    for entry in entries:
        assert NAME.match(entry["name"]), entry
        assert UNIT.match(entry["unit"]), entry
        assert entry["better"] in ("higher", "lower"), entry
    for entry in benchmark["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    untraced = child.run_spec(tiny_spec(), False)
    produced_e2e = run.end_to_end([untraced, untraced])
    assert set(produced_e2e) == {e["name"] for e in benchmark["end_to_end"]}
    produced_layers = run.per_layer(untraced, traced_pair[0])
    assert set(produced_layers) == {e["name"] for e in benchmark["per_layer"]}
    assert set(benchmark["workloads"][i]["name"] for i in range(3)) == set(
        specs.WORKLOADS
    )


def test_outcome_digest_follows_the_seed():
    one = run.outcome_digest(child.run_spec(tiny_spec(seed=1), False)["check"])
    again = run.outcome_digest(child.run_spec(tiny_spec(seed=1), False)["check"])
    other = run.outcome_digest(child.run_spec(tiny_spec(seed=2), False)["check"])
    assert one == again
    assert one != other


def test_wrappers_replace_by_name_imports_and_are_restored():
    # ``import repro.core.reorder as m`` would bind the function that
    # ``repro.core`` re-exports under the module's name.
    service, core_reorder, orderer, depaware, pipeline = map(
        importlib.import_module,
        (
            "repro.consensus.service",
            "repro.core.reorder",
            "repro.fabric.orderer",
            "repro.validation.depaware",
            "repro.validation.pipeline",
        ),
    )
    sites = [
        (orderer, "reorder"),
        (orderer, "filter_stale_within_block"),
        (service, "reorder"),
        (service, "filter_stale_within_block"),
        (pipeline, "build_validation_dependencies"),
        (pipeline, "dependency_waves"),
        (depaware, "build_validation_dependencies"),
        (depaware, "dependency_waves"),
        (core_reorder, "build_conflict_graph"),
    ]
    originals = [getattr(module, name) for module, name in sites]
    trace = LayerTrace().install()
    try:
        for (module, name), original in zip(sites, originals):
            assert getattr(module, name).__wrapped__ is original, (module, name)
    finally:
        trace.restore()
    for (module, name), original in zip(sites, originals):
        assert getattr(module, name) is original


def test_gate_names_the_workload_and_first_differing_field():
    result = child.run_spec(tiny_spec(), False)
    tampered = json.loads(json.dumps(result))
    tampered["check"]["tip"] = "00" * 32
    with pytest.raises(run.BenchError, match=r"tiny seed 1: run 1 .* field 'tip'"):
        run.gate("tiny", 1, [result, tampered], reference=None)
    broken = dict(result, chain_ok=False)
    with pytest.raises(run.BenchError, match="chain does not verify"):
        run.gate("tiny", 1, [broken], reference=None)
