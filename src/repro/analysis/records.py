"""Durable run records and comparison reports."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence, Union

from repro.bench.harness import ExperimentResult
from repro.bench.report import format_table, improvement_factor
from repro.codec import from_dict, to_dict
from repro.errors import ReproError

#: Schema version stamped into saved files; bump on breaking change.
SCHEMA_VERSION = 1


@dataclass
class RunRecord:
    """One experiment run, flattened for persistence."""

    label: str
    workload: str
    duration: float
    seed: int
    params: Dict[str, object] = field(default_factory=dict)
    summary: Dict[str, object] = field(default_factory=dict)
    timeseries: List[Dict[str, object]] = field(default_factory=list)

    @property
    def successful_tps(self) -> float:
        """Headline metric of the run."""
        return float(self.summary.get("successful_tps", 0.0))


def record_from_result(
    result: ExperimentResult,
    workload: str,
    bucket_seconds: float = 1.0,
) -> RunRecord:
    """Flatten an :class:`ExperimentResult` into a :class:`RunRecord`."""
    return RunRecord(
        label=result.label,
        workload=workload,
        duration=result.duration,
        seed=result.config.seed,
        params=dict(result.params),
        summary=result.metrics.summary(),
        timeseries=result.metrics.throughput_timeseries(bucket_seconds),
    )


def save_records(path: Union[str, Path], records: Sequence[RunRecord]) -> None:
    """Write ``records`` to ``path`` as JSON."""
    payload = {
        "schema_version": SCHEMA_VERSION,
        "records": [to_dict(record) for record in records],
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True))


def load_records(path: Union[str, Path]) -> List[RunRecord]:
    """Read records written by :func:`save_records`."""
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as error:
        raise ReproError(f"cannot load run records from {path}: {error}") from error
    if payload.get("schema_version") != SCHEMA_VERSION:
        raise ReproError(
            f"unsupported schema version {payload.get('schema_version')!r}"
        )
    return [from_dict(RunRecord, entry) for entry in payload["records"]]


def comparison_report(
    records: Sequence[RunRecord], baseline_label: str = "Fabric"
) -> str:
    """Render records as a table with factors against ``baseline_label``.

    The baseline for each record is the record with ``baseline_label``
    and the same workload+params; records without a matching baseline
    report a factor of 1 against themselves.
    """
    baselines: Dict[str, RunRecord] = {}
    for record in records:
        if record.label == baseline_label:
            baselines[_comparison_key(record)] = record
    rows = []
    for record in records:
        baseline = baselines.get(_comparison_key(record), record)
        rows.append(
            {
                "label": record.label,
                "workload": record.workload,
                **record.params,
                "successful_tps": record.successful_tps,
                "failed_tps": record.summary.get("failed_tps", 0.0),
                "latency_avg": record.summary.get("latency_avg"),
                f"vs_{baseline_label}": round(
                    improvement_factor(
                        baseline.successful_tps, record.successful_tps
                    ),
                    2,
                ),
            }
        )
    return format_table(rows, title=f"comparison (baseline: {baseline_label})")


def _comparison_key(record: RunRecord) -> str:
    return json.dumps(
        {"workload": record.workload, "params": record.params}, sort_keys=True
    )
