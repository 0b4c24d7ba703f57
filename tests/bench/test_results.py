"""Tests for the unified ResultSet and its serialisation helpers."""

import json
from dataclasses import replace

import pytest

from repro.bench.results import (
    ExperimentResult,
    ResultSet,
    result_from_dict,
    result_to_dict,
)
from repro.codec import from_dict, to_dict
from repro.errors import ReproError
from repro.fabric.config import (
    BackpressureConfig,
    FabricConfig,
    PopulationConfig,
)
from repro.fabric.metrics import PipelineMetrics, TxOutcome
from repro.faults import (
    CrashWindow,
    FaultSchedule,
    MisbehaviorSpec,
    OrdererCrashWindow,
    PartitionWindow,
    StallWindow,
)
from repro.traffic import ArrivalProcess


def make_result(label, successes=10, failures=2, duration=2.0, params=None):
    metrics = PipelineMetrics()
    # Outcome times stay inside the measurement window so the windowed
    # throughput counts every recorded outcome.
    for index in range(successes):
        metrics.record_fired()
        metrics.record_outcome(
            TxOutcome.COMMITTED, 0.1, now=duration * index / (successes + 1)
        )
    for index in range(failures):
        metrics.record_fired()
        metrics.record_outcome(
            TxOutcome.ABORT_MVCC, now=duration * index / (failures + 1)
        )
    metrics.duration = duration
    return ExperimentResult(
        label=label,
        config=FabricConfig(),
        metrics=metrics,
        duration=duration,
        params=dict(params or {}),
    )


def test_mapping_style_access():
    rs = ResultSet([make_result("Fabric", 10), make_result("Fabric++", 20)])
    assert set(rs) == {"Fabric", "Fabric++"}
    assert "Fabric" in rs
    assert rs["Fabric++"].successful_tps > rs["Fabric"].successful_tps
    assert rs[0].label == "Fabric"
    assert rs.get("nope") is None
    with pytest.raises(KeyError):
        rs["nope"]
    assert dict(rs.items())["Fabric"].label == "Fabric"


def test_labels_and_select():
    rs = ResultSet(
        [make_result("Fabric", params={"BS": 16}),
         make_result("Fabric++", params={"BS": 16}),
         make_result("Fabric", params={"BS": 64})]
    )
    assert rs.labels() == ["Fabric", "Fabric++"]
    assert len(rs.select("Fabric")) == 2
    assert all(r.label == "Fabric" for r in rs.select("Fabric").values())


def test_rows_carry_labels_and_params():
    rs = ResultSet([make_result("Fabric", params={"BS": 16})])
    row = rs.rows()[0]
    assert row["label"] == "Fabric"
    assert row["BS"] == 16
    assert "successful_tps" in row


def test_json_round_trip_is_exact():
    rs = ResultSet([make_result("Fabric", 7, 3, params={"s": 0.5}),
                    make_result("Fabric++", 13, 1)])
    clone = ResultSet.from_json(rs.to_json())
    assert clone.rows() == rs.rows()
    assert [r.config for r in clone.values()] == [r.config for r in rs.values()]


def test_from_json_rejects_other_schemas():
    with pytest.raises(ReproError):
        ResultSet.from_json('{"schema_version": 999, "results": []}')
    with pytest.raises(ReproError):
        ResultSet.from_json("not json at all")


def test_improvement_factor():
    rs = ResultSet([make_result("Fabric", 10), make_result("Fabric++", 30)])
    assert rs.improvement_factor() == pytest.approx(3.0)


def test_aggregate_mean_and_stdev():
    rs = ResultSet([make_result("Fabric", 10), make_result("Fabric", 20)])
    stats = rs.aggregate("successful_tps", label="Fabric")
    assert stats["n"] == 2
    assert stats["mean"] == pytest.approx(sum(stats["values"]) / 2)
    assert stats["stdev"] > 0
    assert rs.aggregate(label="missing") == {
        "n": 0, "mean": 0.0, "stdev": 0.0, "values": []
    }


def test_config_round_trip_preserves_nested_dataclasses():
    config = replace(FabricConfig(), seed=42).with_fabric_plus_plus()
    clone = from_dict(FabricConfig, to_dict(config))
    assert clone == config
    assert clone.batch == config.batch
    assert clone.costs == config.costs

    # Every nested dataclass and tuple field populated, through JSON text
    # (which turns every tuple into a list).
    full = replace(
        FabricConfig(),
        channels=2,
        channel_cc_strategies=("dependency", "lockless"),
        population=PopulationConfig(accounts=1_000_000, zipf_s=0.5),
        orderer_nodes=3,
        traffic=ArrivalProcess(kind="flash", rate=200.0, flash_factor=4.0),
        backpressure=BackpressureConfig(orderer_queue_limit=64, client_retries=1),
        max_resubmits=None,
        faults=FaultSchedule(
            crashes=(CrashWindow("peer1.OrgA.ch1", 0.5, 0.3),),
            stalls=(StallWindow(0.2, 0.1),),
            orderer_crashes=(OrdererCrashWindow(node=2, at=0.4, duration=0.2),),
            partitions=(
                PartitionWindow(at=0.1, duration=0.2, groups=((0,), (1, 2))),
                PartitionWindow(at=0.8, duration=0.1, channels=(1,)),
            ),
            misbehaviors=(MisbehaviorSpec(kind="stale_replay", fraction=0.5),),
            endorsement_timeout=0.05,
        ),
    ).with_fabric_plus_plus()
    full.validate()
    clone = from_dict(FabricConfig, json.loads(json.dumps(to_dict(full))))
    assert clone == full
    assert clone.faults.partitions[0].groups == ((0,), (1, 2))
    assert hash(clone.faults) == hash(full.faults)


def test_result_round_trip_preserves_metrics():
    result = make_result("Fabric++", 5, 4, params={"k": "v"})
    clone = result_from_dict(result_to_dict(result))
    assert clone.row() == result.row()
    assert clone.metrics.commit_latencies == result.metrics.commit_latencies
    assert clone.metrics.outcome_times == result.metrics.outcome_times
