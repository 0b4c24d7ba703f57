"""End-to-end benchmark of the real Fabric/Fabric++ pipeline.

Usage::

    python3 perfbench/run.py --workload smallbank-fabricpp --seed 1 \\
        --seconds 10 --trace 0

Each repetition runs in a fresh single-threaded process
(``perfbench/child.py``): ``ExperimentSpec`` -> ``build_network`` ->
``network.run``. Repetitions follow one another until at least
``--seconds`` have passed and at least :data:`MIN_REPS` have run. Host
times are medians over repetitions; run-phase times are scaled to a
reference host speed (:func:`at_reference_speed`). ``--trace 1`` runs one untraced and one
traced repetition and reports the per-layer metrics.

Every repetition passes the correctness gate (:func:`gate`). The last
line of standard output is the JSON result: ``correct``, ``attempted``,
``failed`` and ``metrics``. ``--record`` stores the run's outcome fields
in ``perfbench/reference.json`` as the reference for that seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import specs

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
BENCHMARK = specs.ROOT / "BENCHMARK.json"
#: Results and span files, inside the checkout.
OUT = specs.ROOT / ".perfbench"

#: Set-ups (and runs) per untraced invocation, at the least.
MIN_REPS = 2
#: Wall-clock budget of one invocation, which must end within 180 s.
DEADLINE_S = 170.0
#: Per-repetition host times listed in the manifest.
RUN_FIELDS = (
    "kind",
    "setup_s",
    "setup_cpu_s",
    "run_wall_s",
    "run_cpu_s",
    "process_wall_s",
    "peak_rss_mb",
)
#: Raw per-repetition timings kept in the result file.
SAMPLES = ("segment_wall_s", "segment_cpu_s", "probe_s")


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def first_difference(expected, actual, prefix: str = "") -> Optional[Tuple]:
    """The first field (dotted path) where two outcome records differ."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        for key in list(expected) + [k for k in actual if k not in expected]:
            found = first_difference(
                expected.get(key), actual.get(key), f"{prefix}{key}."
            )
            if found:
                return found
        return None
    if expected != actual:
        return prefix.rstrip("."), expected, actual
    return None


def outcome_digest(check: Dict) -> str:
    """SHA-256 of a run's outcome fields in canonical JSON."""
    return hashlib.sha256(json.dumps(check, sort_keys=True).encode()).hexdigest()


def gate(workload: str, seed: int, runs: List[Dict], reference: Optional[Dict]) -> None:
    """Raise :class:`BenchError` naming the workload and the first
    differing field unless every run is correct and they all agree.

    Each run's peers must verify their chains and share one tip; every
    run (traced or not) must reproduce the first one's outcome fields
    exactly, and those must equal the recorded reference when there is
    one for this workload and seed.
    """
    where = f"workload {workload} seed {seed}"
    for index, run in enumerate(runs):
        if not run["chain_ok"]:
            raise BenchError(f"{where}: run {index}: a peer's chain does not verify")
        if not run["tips_agree"]:
            raise BenchError(f"{where}: run {index}: peers disagree on the tip")
        if sum(run["check"]["outcomes"].values()) != run["check"]["resolved"]:
            raise BenchError(f"{where}: run {index}: outcome counts do not sum")
    expected = reference if reference is not None else runs[0]["check"]
    source = "reference" if reference is not None else "run 0"
    for index, run in enumerate(runs):
        found = first_difference(expected, run["check"])
        if found:
            field, want, got = found
            raise BenchError(
                f"{where}: run {index} differs from {source} in field "
                f"{field!r}: expected {want!r}, got {got!r}"
            )


def at_reference_speed(times: List[float], probes: List[float]) -> float:
    """Sum of ``times`` scaled to the host speed of :data:`specs.PROBE_S`.

    ``probes[i]`` and ``probes[i + 1]`` are the probe times just before
    and after ``times[i]``; their mean is the host's speed over it.
    """
    return sum(
        elapsed * 2 * specs.PROBE_S / (before + after)
        for elapsed, before, after in zip(times, probes, probes[1:])
    )


def end_to_end(reps: List[Dict]) -> Dict[str, float]:
    """The end-to-end metrics of untraced repetitions.

    Host times are medians over the repetitions; run-phase times are in
    reference seconds (see "Timing" in ``perfbench/README.md``).
    """
    check = reps[0]["check"]
    run_cpu_s = statistics.median(
        at_reference_speed(r["segment_cpu_s"], r["probe_s"]) for r in reps
    )
    return {
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "run_wall_s": statistics.median(
            at_reference_speed(r["segment_wall_s"], r["probe_s"]) for r in reps
        ),
        "sim_tx_per_cpu_s": check["committed"] / run_cpu_s,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "sim_committed_tps": check["committed_tps"],
        "tx_failed_share": (check["fired"] - check["committed"]) / check["fired"],
        "sim_latency_p50_s": check["latency_p50_s"],
        "sim_latency_p99_s": check["latency_p99_s"],
    }


def per_layer(untraced: Dict, traced: Dict) -> Dict[str, float]:
    """The per-layer metrics of a traced repetition."""
    values = dict(traced["layers"])
    values["bench.tracing_overhead"] = traced["run_cpu_s"] / untraced["run_cpu_s"]
    return values


def run_child(workload: str, seed: int, traced: bool, deadline: float) -> Dict:
    """One repetition in a fresh process; its JSON report."""
    command = [sys.executable, str(HERE / "child.py"), workload, str(seed)]
    command.append("1" if traced else "0")
    if traced:
        command.append(str(OUT / "spans" / f"{workload}-seed{seed}.spans"))
    started = time.perf_counter()
    try:
        done = subprocess.run(
            command,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.perf_counter()),
            cwd=specs.ROOT,
        )
    except subprocess.TimeoutExpired as error:
        raise BenchError(f"workload {workload} seed {seed}: repetition timed out") from error
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise BenchError(
            f"workload {workload} seed {seed}: repetition exited with {done.returncode}"
        )
    report = json.loads(done.stdout.splitlines()[-1])
    report["process_wall_s"] = time.perf_counter() - started
    report["kind"] = "traced" if traced else "untraced"
    return report


def load_json(path: Path) -> Dict:
    with open(path) as handle:
        return json.load(handle)


def declared_metrics(trace: bool) -> Dict[str, Dict]:
    """Name -> declaration of the metrics BENCHMARK.json lists for the mode."""
    declared = load_json(BENCHMARK)["per_layer" if trace else "end_to_end"]
    return {entry["name"]: entry for entry in declared}


def manifest(workload: str, seed: int, trace: bool, runs: List[Dict], matched: bool) -> Dict:
    """What produced the result: interpreter, machine, sources, inputs, runs."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": specs.nproc(),
        "source_digest": specs.source_digest(),
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "duration_sim_s": specs.DURATION,
        "drain_sim_s": specs.DRAIN,
        "reference": "matched" if matched else "absent",
        "runs": [run_summary(run) for run in runs],
    }


def run_summary(run: Dict) -> Dict:
    """One repetition's raw host times, for the manifest."""
    summary = {key: run[key] for key in RUN_FIELDS}
    if run["probe_s"]:
        summary["probe_median_s"] = statistics.median(run["probe_s"])
    return summary


def record(workload: str, seed: int, check: Dict) -> None:
    references = load_json(REFERENCE) if REFERENCE.exists() else {}
    references.setdefault(workload, {})[str(seed)] = check
    ordered = {
        name: dict(sorted(by_seed.items(), key=lambda item: int(item[0])))
        for name, by_seed in sorted(references.items())
    }
    REFERENCE.write_text(json.dumps(ordered, indent=1) + "\n")


def benchmark(args) -> Tuple[int, int, Dict[str, float], Dict, List[Dict]]:
    """Run, gate and measure: attempted, failed, metrics, manifest, and
    the raw timing samples of every repetition."""
    started = time.perf_counter()
    deadline = started + DEADLINE_S
    reference = (
        load_json(REFERENCE).get(args.workload, {}).get(str(args.seed))
        if REFERENCE.exists()
        else None
    )
    reps = [run_child(args.workload, args.seed, False, deadline)]
    if args.trace:
        traced = run_child(args.workload, args.seed, True, deadline)
        runs = reps + [traced]
    else:
        while len(reps) < MIN_REPS or time.perf_counter() - started < args.seconds:
            reps.append(run_child(args.workload, args.seed, False, deadline))
        runs = reps
    gate(args.workload, args.seed, runs, reference)
    if args.record:
        record(args.workload, args.seed, reps[0]["check"])
    values = per_layer(reps[0], traced) if args.trace else end_to_end(reps)
    attempted = sum(run["check"]["fired"] for run in runs)
    failed = sum(run["check"]["fired"] - run["check"]["resolved"] for run in runs)
    info = manifest(args.workload, args.seed, args.trace, runs, reference is not None)
    info["check"] = reps[0]["check"]
    if args.trace:
        info["self_seconds"] = traced["self_seconds"]
        info["spans"] = traced["spans"]
    info["outcome_digest"] = outcome_digest(reps[0]["check"])
    info["benchmark_wall_s"] = time.perf_counter() - started
    return attempted, failed, values, info, [
        {key: run[key] for key in SAMPLES} for run in runs
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(specs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help=(
        "store this seed's outcome fields as its reference"))
    args = parser.parse_args(argv)

    if not (specs.SRC / "repro").is_dir():
        print(f"error: no program sources at {specs.SRC / 'repro'}", file=sys.stderr)
        return 2
    if not BENCHMARK.is_file():
        print(f"error: {BENCHMARK} is missing", file=sys.stderr)
        return 2
    declared = declared_metrics(bool(args.trace))
    try:
        attempted, failed, values, info, samples = benchmark(args)
    except BenchError as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 1
    mismatched = sorted(set(declared) ^ set(values))
    if mismatched:
        print(f"error: metrics differ from BENCHMARK.json: {mismatched}", file=sys.stderr)
        return 1

    check = info["check"]
    print(
        f"{args.workload} seed {args.seed}: {len(info['runs'])} run(s), "
        f"committed {check['committed']} of {check['fired']} fired, "
        f"{check['latency_samples']} latency samples, tip {check['tip'][:16]}, "
        f"reference {info['reference']}"
    )
    metrics = {}
    for name, entry in declared.items():
        metrics[name] = {"value": values[name], "unit": entry["unit"]}
        print(f"  {name:40s} {values[name]:>16.6f} {entry['unit']}")
    kind = "traced" if args.trace else "untraced"
    path = OUT / "results" / f"{args.workload}-seed{args.seed}-{kind}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps({"manifest": info, "metrics": metrics, "samples": samples}) + "\n"
    )
    print("manifest " + json.dumps(info))
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
