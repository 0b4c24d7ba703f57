"""One repetition of one workload, in a fresh single-threaded process.

Usage: ``python3 perfbench/child.py WORKLOAD SEED TRACE [SPANS_PATH]``

Builds the network from the workload's spec, runs it, and prints one
JSON object: host timings, the outcome fields the correctness gate
compares, and, with ``TRACE`` = 1, the per-layer metrics of
:class:`layers.LayerTrace` (spans go to ``SPANS_PATH``).
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path

import specs

sys.path.insert(0, str(specs.SRC))

#: Simulated segments an untraced run is timed in (0.25 sim-s each).
SEGMENTS = int((specs.DURATION + specs.DRAIN) / 0.25)


def probe() -> float:
    """Seconds a fixed piece of interpreter work takes right now.

    Dict, string and tuple traffic like the simulator's own; best of
    three, so that one interrupt does not count as a slow host.
    """
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        table = {}
        for number in range(3000):
            table[str(number)] = (number, number * 2)
        total = 0
        for key, pair in table.items():
            total += len(key) + pair[1]
        best = min(best, time.perf_counter() - start)
    return best


def chain_check(network) -> dict:
    """Every peer's chain verifies, and all peers share one tip."""
    tips, heights, intact = set(), set(), True
    for peer in network.peers:
        for state in peer.channels.values():
            intact = intact and state.ledger.verify_chain()
            tips.add(state.ledger.tip_hash.hex())
            heights.add(state.ledger.height)
    return {"chain_ok": intact, "tips_agree": len(tips) == 1 and len(heights) == 1}


def outcome_fields(network, metrics) -> dict:
    """Deterministic results of the run, compared exactly by the gate."""
    latency = metrics.latency()
    reference = network.reference_peer
    (ledger,) = [state.ledger for state in reference.channels.values()]
    return {
        "fired": metrics.fired,
        "committed": metrics.successful,
        "resolved": metrics.resolved,
        "outcomes": {
            outcome.value: count for outcome, count in metrics.outcomes.items() if count
        },
        "tip": ledger.tip_hash.hex(),
        "height": ledger.height,
        "committed_tps": metrics.successful_tps(),
        "latency_samples": latency.count,
        "latency_p50_s": latency.p50,
        "latency_p99_s": latency.p99,
    }


def layer_metrics(trace, network, metrics, run_cpu_s: float, run_self_s: float) -> dict:
    """Per-layer metrics of a traced run. ``*_s`` values are inclusive
    seconds inside the wrapped function; ``residual_s`` and
    ``attributed_share`` use self time, so nothing is counted twice."""
    from repro.fabric.metrics import TxOutcome

    counts, calls, seconds = trace.counts, trace.call_count, trace.inclusive_time
    fired, committed = metrics.fired, metrics.successful
    validation, consensus = metrics.validation, metrics.consensus

    def share(numerator, denominator) -> float:
        return numerator / denominator if denominator else 0.0

    values = {
        "ledger.populate_s": seconds("ledger.populate"),
        "ledger.populate_keys": counts["ledger.populate_keys"],
        "ledger.apply_writes_s": seconds("ledger.apply_writes"),
        "ledger.writes_per_tx": share(counts["ledger.writes"], committed),
        "ledger.read_checks": calls("ledger.read_check"),
        "ledger.append_s": seconds("ledger.append"),
        "workloads.initial_state_s": seconds("workloads.initial_state"),
        "workloads.next_invocation_s": seconds("workloads.next_invocation"),
        "core.conflict_graph_calls": calls("core.conflict_graph"),
        "core.conflict_graph_s": seconds("core.conflict_graph"),
        "core.conflict_graph_pair_tests": counts["core.conflict_graph_pair_tests"],
        "core.conflict_graph_edges": counts["core.conflict_graph_edges"],
        "core.reorder_s": seconds("core.reorder"),
        "core.reorder_cycles": counts["core.reorder_cycles"],
        "core.reorder_kept_share": share(
            counts["core.reorder_kept"], counts["core.reorder_in"]
        ),
        "core.validation_deps_calls": calls("core.validation_deps"),
        "core.validation_deps_s": seconds("core.validation_deps"),
        "core.validation_deps_pair_tests": counts["core.validation_deps_pair_tests"],
        "core.validation_deps_edges": counts["core.validation_deps_edges"],
        "core.early_abort_s": seconds("core.early_abort"),
        "graphalgo.scc_s": seconds("graphalgo.scc"),
        "graphalgo.cycles_s": seconds("graphalgo.cycles"),
        "crypto.sign_calls": calls("crypto.sign"),
        "crypto.verify_calls": calls("crypto.verify"),
        "crypto.verify_s": seconds("crypto.verify"),
        "crypto.verifies_per_tx": share(calls("crypto.verify"), fired),
        "crypto.mac_calls": calls("crypto.mac"),
        "fabric.canonical_bytes_calls": calls("fabric.canonical_bytes"),
        "fabric.canonical_bytes_s": seconds("fabric.canonical_bytes"),
        "fabric.tx_digest_calls": calls("fabric.tx_digest"),
        "fabric.chaincode_invoke_calls": calls("fabric.chaincode_invoke"),
        "fabric.chaincode_invoke_s": seconds("fabric.chaincode_invoke"),
        "fabric.orderer_submit_calls": calls("fabric.orderer_submit"),
        "fabric.blocks": sum(o.blocks_cut for o in network.orderers.values()),
        "fabric.avg_block_size": metrics.average_block_size(),
    }
    for outcome in TxOutcome:
        values[f"fabric.outcome.{outcome.value}"] = metrics.outcomes[outcome]
    values.update(
        {
            "validation.waves_per_block": share(
                counts["validation.waves"], calls("core.dependency_waves")
            ),
            "validation.critical_path_avg": (
                validation.avg_critical_path() if validation else 0.0
            ),
            "validation.worker_utilisation": (
                validation.worker_utilisation(metrics.duration) if validation else 0.0
            ),
            "consensus.dispatch_calls": calls("consensus.dispatch"),
            "consensus.dispatch_s": seconds("consensus.dispatch"),
            "consensus.messages_sent": consensus.messages_sent if consensus else 0,
            "sim.events": trace.events,
            "sim.events_per_tx": share(trace.events, committed),
            "sim.residual_s": run_cpu_s - run_self_s,
            "bench.attributed_share": share(run_self_s, run_cpu_s),
        }
    )
    return values


def run_spec(spec, traced: bool, spans_path=None) -> dict:
    """Build and run ``spec``; with ``traced``, wrap the layers first."""
    from repro.channels import build_network

    from layers import LayerTrace

    trace = LayerTrace() if traced else None
    try:
        if trace is not None:
            trace.install()
        wall_0, cpu_0 = time.perf_counter(), time.process_time()
        network = build_network(spec.resolved_config(), spec.build_workload())
        wall_1, cpu_1 = time.perf_counter(), time.process_time()
        segments, probes = [], []
        if trace is not None:
            setup_self_s = trace.total_self_seconds()
            trace.attach_engine(network.env)
            metrics = network.run(spec.duration, spec.drain)
        else:
            # The same run in fixed simulated segments, each timed. The
            # traced run above is not segmented, so the gate's comparison
            # of the two also checks that segmenting changes nothing.
            # A probe between segments tracks the host's speed.
            probes.append(probe())
            network.begin(spec.duration)
            horizon = spec.duration + spec.drain
            for step in range(1, SEGMENTS + 1):
                start = time.perf_counter(), time.process_time()
                network.env.run(until=horizon * step / SEGMENTS)
                end = time.perf_counter(), time.process_time()
                segments.append((end[0] - start[0], end[1] - start[1]))
                probes.append(probe())
            metrics = network.finish(spec.duration)
        wall_2, cpu_2 = time.perf_counter(), time.process_time()
    finally:
        if trace is not None:
            trace.restore()
    if segments:  # probes excluded
        run_wall_s, run_cpu_s = (sum(column) for column in zip(*segments))
    else:
        run_wall_s, run_cpu_s = wall_2 - wall_1, cpu_2 - cpu_1
    result = {
        "setup_s": wall_1 - wall_0,
        "setup_cpu_s": cpu_1 - cpu_0,
        "run_wall_s": run_wall_s,
        "run_cpu_s": run_cpu_s,
        "segment_wall_s": [wall for wall, _ in segments],
        "segment_cpu_s": [cpu for _, cpu in segments],
        "probe_s": probes,
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "check": outcome_fields(network, metrics),
        **chain_check(network),
    }
    if trace is not None:
        run_self_s = trace.total_self_seconds() - setup_self_s
        result["layers"] = layer_metrics(
            trace, network, metrics, result["run_cpu_s"], run_self_s
        )
        result["self_seconds"] = dict(zip(trace.names, trace.self_seconds))
        result["spans"] = len(trace.span_start)
        if spans_path:
            trace.write_spans(Path(spans_path))
    return result


if __name__ == "__main__":
    workload, seed, traced = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
    spans = sys.argv[4] if len(sys.argv) > 4 else None
    # Import the program before the clock starts: set-up begins at the spec.
    result = run_spec(specs.make_spec(workload, seed), traced, spans)
    print(json.dumps(result), flush=True)
    # Skip tearing down the network's object graph: it is not measured.
    os._exit(0)
