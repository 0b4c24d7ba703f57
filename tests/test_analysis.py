"""Tests for run records, persistence, and comparison reports."""

from dataclasses import replace

import pytest

from repro.analysis import (
    RunRecord,
    comparison_report,
    load_records,
    record_from_result,
    save_records,
)
from repro.bench.harness import run_experiment
from repro.bench.spec import ExperimentSpec
from repro.codec import from_dict
from repro.core.batch_cutter import BatchCutConfig
from repro.errors import ReproError
from repro.fabric.config import FabricConfig
from repro.workloads.blank import BlankWorkload


@pytest.fixture(scope="module")
def result():
    config = replace(
        FabricConfig(),
        clients_per_channel=1,
        client_rate=100.0,
        batch=BatchCutConfig(max_transactions=32),
    )
    return run_experiment(
        ExperimentSpec(
            config=config, workload=BlankWorkload(), duration=2.0,
            params={"bs": 32},
        )
    )


def test_record_from_result(result):
    record = record_from_result(result, workload="blank")
    assert record.label == "Fabric"
    assert record.workload == "blank"
    assert record.duration == 2.0
    assert record.params == {"bs": 32}
    assert record.successful_tps > 0
    assert record.timeseries, "timeseries should not be empty"
    assert record.timeseries[0]["t"] == 1.0


def test_timeseries_consistent_with_summary(result):
    record = record_from_result(result, workload="blank")
    total_successes = sum(
        bucket["successful_tps"] for bucket in record.timeseries
    )
    assert total_successes == pytest.approx(
        record.successful_tps * record.duration / 1.0, rel=0.01
    )


def test_json_round_trip(tmp_path, result):
    records = [record_from_result(result, workload="blank")]
    path = tmp_path / "runs.json"
    save_records(path, records)
    loaded = load_records(path)
    assert len(loaded) == 1
    assert loaded[0] == records[0]


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("not json at all {")
    with pytest.raises(ReproError):
        load_records(path)


def test_load_rejects_missing_file(tmp_path):
    with pytest.raises(ReproError):
        load_records(tmp_path / "missing.json")


def test_load_rejects_wrong_schema(tmp_path):
    path = tmp_path / "old.json"
    path.write_text('{"schema_version": 99, "records": []}')
    with pytest.raises(ReproError):
        load_records(path)


def test_from_dict_rejects_unknown_fields():
    with pytest.raises(ReproError):
        from_dict(RunRecord, {"label": "x", "workload": "y", "duration": 1,
                              "seed": 0, "bogus": True})


def make_record(label, tps, workload="w", params=None):
    return RunRecord(
        label=label, workload=workload, duration=1.0, seed=0,
        params=params or {}, summary={"successful_tps": tps},
    )


def test_comparison_report_factors():
    records = [
        make_record("Fabric", 100.0),
        make_record("Fabric++", 250.0),
    ]
    report = comparison_report(records)
    assert "2.50" in report
    assert "baseline: Fabric" in report


def test_comparison_report_matches_on_params():
    records = [
        make_record("Fabric", 100.0, params={"bs": 16}),
        make_record("Fabric", 200.0, params={"bs": 1024}),
        make_record("Fabric++", 400.0, params={"bs": 1024}),
    ]
    report = comparison_report(records)
    # Fabric++ at bs=1024 compares against Fabric at bs=1024 -> 2.0.
    assert "2.00" in report


def test_comparison_without_baseline_is_identity():
    records = [make_record("Fabric++", 300.0)]
    report = comparison_report(records)
    assert "1.00" in report
