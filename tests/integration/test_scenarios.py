"""The named scenario suite: invariants across seeds, sweepability, parity."""

import pytest

from repro.bench.results import metrics_to_dict
from repro.bench.sweep import run_sweep
from repro.codec import to_dict
from repro.errors import ConfigError
from repro.scenarios import (
    get_scenario,
    run_scenario,
    scenario_names,
    scenario_specs,
)

SEEDS = range(10)


@pytest.mark.parametrize("name", scenario_names())
def test_scenario_holds_invariants_across_seeds(name):
    """Every scenario, ten seeds, five safety invariants plus liveness."""
    for seed in SEEDS:
        report = run_scenario(name, seed)
        assert report.passed, (name, seed, report.details)
        assert report.fired > 0, (name, seed)
        # One saga is one intent with three terminal facts: two
        # per-channel legs plus the fleet-level saga outcome, so a
        # half-committed saga adds one resolution beyond its legs.
        assert (
            report.resolved == report.fired + report.saga_half_committed
        ), (name, seed)


@pytest.mark.parametrize("name", ("overload-shed", "flash-crowd"))
def test_overload_scenarios_hold_for_fabric_plus_plus(name):
    for seed in range(3):
        report = run_scenario(name, seed, system="fabric++")
        assert report.passed, (name, seed, report.details)


def test_overload_shed_scenario_actually_sheds():
    report = run_scenario("overload-shed", seed=0)
    assert report.shed > 0
    assert report.client_retries > 0
    # Degradation is graceful: most of the sustainable-load goodput
    # survives the 5x overload.
    calm = run_scenario("poisson-steady", seed=0)
    assert report.committed > 0.5 * calm.committed


def test_unknown_scenario_lists_the_catalogue():
    with pytest.raises(ConfigError, match="calm-baseline"):
        get_scenario("nope")


def test_reports_are_deterministic():
    first = run_scenario("flash-crowd", seed=4)
    second = run_scenario("flash-crowd", seed=4)
    assert to_dict(first) == to_dict(second)


def test_scenario_specs_are_sweepable():
    """Scenario specs are data-only: cacheable and process-portable."""
    specs = scenario_specs("resubmit-storm", range(3))
    assert len(specs) == 3
    assert all(spec.is_cacheable for spec in specs)
    assert len({spec.resolved_config().seed for spec in specs}) == 3


def test_scenario_runs_identical_serial_and_parallel():
    """The satellite parity property: ``--jobs N`` never changes results."""
    specs = scenario_specs("poisson-steady", range(2))
    serial = run_sweep(specs, jobs=1, cache=None)
    parallel = run_sweep(specs, jobs=2, cache=None)
    for left, right in zip(serial.values(), parallel.values()):
        assert metrics_to_dict(left.metrics) == metrics_to_dict(right.metrics)
