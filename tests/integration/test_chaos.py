"""Chaos harness: invariants under randomized fault schedules.

The chaos harness is the PR's safety argument: for any seeded fault
schedule — orderer crashes, peer crashes, partitions, lossy links — a
run must preserve the five chain invariants and still drain every
transaction. These tests pin that property over a seed sweep, check the
harness itself is deterministic, and prove the invariant checker can
actually fail (a tampered ledger is caught).
"""

import pytest

from repro.chaos import (
    INVARIANT_NAMES,
    chaos_config,
    check_invariants,
    generate_chaos_schedule,
    run_chaos,
    run_chaos_suite,
)
from repro.codec import to_dict
from repro.errors import ConfigError
from repro.fabric.network import FabricNetwork
from repro.sim.distributions import mix_seed
from repro.workloads.registry import make_workload

SUITE_SEEDS = range(20)


@pytest.fixture(scope="module")
def suite_reports():
    return run_chaos_suite(SUITE_SEEDS)


def test_twenty_seeds_pass_every_invariant(suite_reports):
    failures = [r for r in suite_reports if not r.passed]
    assert not failures, [
        (r.seed, r.details or r.invariants) for r in failures
    ]
    for report in suite_reports:
        assert set(report.invariants) == set(INVARIANT_NAMES)
        assert report.liveness and report.converged


def test_suite_actually_exercises_faults(suite_reports):
    # The sweep must include real chaos, not 20 quiet runs.
    assert any(r.leader_changes > 1 for r in suite_reports)
    assert any(r.messages_dropped > 0 for r in suite_reports)
    assert any(r.txs_reproposed > 0 for r in suite_reports)
    assert all(r.committed > 0 and r.blocks > 0 for r in suite_reports)


def test_chaos_run_is_deterministic_per_seed():
    first = to_dict(run_chaos(7))
    second = to_dict(run_chaos(7))
    assert first == second


def test_chaos_schedules_are_bounded_and_valid():
    for seed in range(10):
        duration = 1.5
        schedule = generate_chaos_schedule(seed, duration=duration)
        config = chaos_config(seed, duration, 3, schedule=schedule)
        config.validate()  # every generated schedule must be runnable
        horizon = 0.7 * duration
        for window in schedule.crashes + schedule.orderer_crashes:
            assert window.at >= 0.0
            assert window.at + window.duration <= horizon + 1e-9
        for window in schedule.partitions:
            assert window.at + window.duration <= horizon + 1e-9


def test_chaos_schedule_generation_is_deterministic():
    assert generate_chaos_schedule(5) == generate_chaos_schedule(5)
    assert generate_chaos_schedule(5) != generate_chaos_schedule(6)


def test_chaos_rejects_degenerate_parameters():
    with pytest.raises(ConfigError):
        generate_chaos_schedule(0, duration=0.5)
    with pytest.raises(ConfigError):
        generate_chaos_schedule(0, orderer_nodes=1)


def test_invariant_checker_catches_a_forked_peer():
    """Drop the tip block of a non-reference peer: single-chain and
    prefix-consistency must both report the divergence."""
    seed = 1
    config = chaos_config(seed, 1.5, 3)
    workload = make_workload(
        "smallbank", seed=mix_seed(seed, 0xC4A0, 3), num_users=200, s_value=1.0
    )
    network = FabricNetwork(config, workload)
    network.run(1.5, drain=4.0)

    healthy, details = check_invariants(network)
    assert all(healthy.values()), details

    victim = next(
        p for p in network.peers if p is not network.reference_peer
    )
    victim.channels["ch0"].ledger._blocks.pop()
    tampered, details = check_invariants(network)
    assert not tampered["single_chain"]
    assert any("ch0" in line for line in details)
