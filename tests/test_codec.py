"""The dataclass codec: round trips, defaults, and errors that name the key."""

import json

import pytest

from repro.analysis.records import RunRecord
from repro.chaos import ChaosReport
from repro.codec import from_dict, merge, to_dict
from repro.errors import ConfigError
from repro.fabric.metrics import (
    ChannelFleetStats,
    ConsensusStats,
    OverloadStats,
    SagaStats,
    StreamingMetrics,
    ValidationStats,
)
from repro.faults import CrashWindow, FaultSchedule
from repro.trace.cost import CostBreakdown


def _breakdown():
    breakdown = CostBreakdown()
    breakdown.charge("verify", 0.125, count=3)
    breakdown.charge("ledger", 0.5)
    return breakdown


ROUND_TRIPS = [
    ValidationStats(
        workers=4,
        pipeline_depth=2,
        strategy="dependency",
        blocks=8,
        txs=189,
        critical_path_total=14,
        verify_tasks=378,
        queue_delay_total=4.7656,
        lane_busy=[0.33, 0.32, 0.28, 0.28],
        horizon=3.5,
    ),
    ConsensusStats(nodes=3, elections_started=4, leader_changes=2, max_term=3),
    OverloadStats(orderer_queue_limit=64, submissions=900, txs_shed=12,
                  delivery_stall_seconds=0.25),
    SagaStats(started=10, committed=7, half_committed=2, aborted=1),
    ChannelFleetStats(
        channels=2,
        per_channel=[{"channel": "ch0", "fired": 5}, {"channel": "ch1", "fired": 6}],
        saga=SagaStats(started=3, committed=3),
    ),
    _breakdown(),
    RunRecord(label="Fabric++", workload="smallbank", duration=2.0, seed=7,
              params={"BS": 64}, summary={"successful_tps": 812.5},
              timeseries=[{"t": 1.0, "successful_tps": 800.0}]),
    ChaosReport(seed=3, faults=["crash peer1.OrgA@0.5+0.2"],
                invariants={"no_fork": True}, liveness=True, converged=True,
                details=["ok"], committed=40, sim_time=1.5),
]


@pytest.mark.parametrize(
    "value", ROUND_TRIPS, ids=[type(value).__name__ for value in ROUND_TRIPS]
)
def test_round_trip_through_json_text(value):
    data = json.loads(json.dumps(to_dict(value)))
    assert from_dict(type(value), data) == value


def test_absent_keys_take_the_field_defaults():
    assert from_dict(ConsensusStats, {"nodes": 3}) == ConsensusStats(nodes=3)


def test_instances_pass_through_unchanged():
    window = CrashWindow("peer1.OrgA", 0.5, 0.2)
    schedule = from_dict(FaultSchedule, {"crashes": [window]})
    assert schedule.crashes[0] is window


def test_unknown_keys_are_named_with_their_class():
    with pytest.raises(ConfigError, match=r"CrashWindow.*'att'"):
        from_dict(
            FaultSchedule,
            {"crashes": [{"peer": "peer1.OrgA", "att": 0.5, "duration": 0.2}]},
        )


def test_missing_required_keys_are_a_config_error():
    with pytest.raises(ConfigError, match="ValidationStats.*strategy"):
        from_dict(ValidationStats, {"workers": 1, "pipeline_depth": 1})


def test_streaming_metrics_keep_their_own_form():
    streaming = StreamingMetrics(seed=5)
    streaming.latency.add(0.25)
    rebuilt = from_dict(StreamingMetrics, json.loads(json.dumps(to_dict(streaming))))
    assert to_dict(rebuilt) == to_dict(streaming)


def test_merge_folds_each_field_by_its_rule():
    merged = merge(
        ValidationStats,
        [
            ValidationStats(2, 1, "dependency", blocks=3, lane_busy=[0.5], horizon=4.0),
            None,
            ValidationStats(4, 2, "serial", blocks=5, lane_busy=[0.25, 1], horizon=3.0),
        ],
    )
    assert merged == ValidationStats(
        2, 1, "dependency", blocks=8, lane_busy=[0.5, 0.25, 1], horizon=4.0
    )
    consensus = merge(
        ConsensusStats, [ConsensusStats(3, max_term=2), ConsensusStats(5, max_term=7)]
    )
    assert (consensus.nodes, consensus.max_term) == (3, 7)
    overload = merge(
        OverloadStats,
        [
            OverloadStats(orderer_queue_limit=16, queue_depth_peak=9, submissions=4),
            OverloadStats(orderer_queue_limit=32, queue_depth_peak=3, submissions=6),
        ],
    )
    assert (overload.orderer_queue_limit, overload.queue_depth_peak) == (16, 9)
    assert overload.submissions == 10


def test_merge_sums_floats_in_item_order():
    values = [0.1, 0.2, 0.3, 1e16, -1e16]
    merged = merge(
        OverloadStats, [OverloadStats(delivery_stall_seconds=v) for v in values]
    )
    total = 0.0
    for value in values:
        total += value
    assert merged.delivery_stall_seconds == total


def test_merge_of_nothing_is_none():
    assert merge(ConsensusStats, []) is None
    assert merge(ConsensusStats, [None, None]) is None
