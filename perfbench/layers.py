"""Per-layer tracing from outside the program: wrap, time and count.

:class:`LayerTrace` replaces public functions and methods of the
``repro.*`` layers with wrappers that record one span per call (name,
start, end, parent span) and the counts the benchmark reports at the same
boundary. Nothing under ``src/`` knows about it.

A function imported by name (``from repro.core.reorder import reorder``)
is a second binding in the importing module, so a wrapper installed only
on the defining module would never run. :meth:`LayerTrace.install`
therefore rebinds *every* reference to the original held by a loaded
``repro`` module, and :meth:`LayerTrace.restore` puts each one back.

Spans live in flat arrays until :meth:`LayerTrace.write_spans` writes them
once. Self time is accumulated online: a span's duration minus the time
its child spans cover.
"""

from __future__ import annotations

import importlib
import json
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

#: Modules imported before patching, so that every lookup site exists.
#: The validation strategies are otherwise imported lazily by the registry.
MODULES = (
    "repro",
    "repro.channels",
    "repro.consensus.raft",
    "repro.consensus.service",
    "repro.core.early_abort",
    "repro.core.reorder",
    "repro.crypto.identity",
    "repro.crypto.signing",
    "repro.fabric.chaincode",
    "repro.fabric.orderer",
    "repro.fabric.peer",
    "repro.fabric.rwset",
    "repro.fabric.transaction",
    "repro.graphalgo.johnson",
    "repro.graphalgo.tarjan",
    "repro.ledger.ledger",
    "repro.ledger.state_db",
    "repro.validation.depaware",
    "repro.validation.lockless",
    "repro.validation.pipeline",
    "repro.validation.serial",
    "repro.workloads.base",
)


def _resolve(path: str):
    """``"pkg.mod:Name.attr"`` -> (owner object, attribute name)."""
    module_name, _, qualname = path.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = qualname.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attr


def _subclasses(cls) -> List[type]:
    found, todo = [], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            found.append(sub)
            todo.append(sub)
    return found


class LayerTrace:
    """Spans and boundary counts for one traced run."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.span_name = array("H")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        #: Open spans, innermost last: [span index, child seconds].
        self._stack: List[list] = []
        #: Inclusive seconds, self seconds and calls per span name id.
        self.inclusive_seconds: List[float] = []
        self.self_seconds: List[float] = []
        self.calls: List[int] = []
        #: Boundary counts by metric name.
        self.counts: Counter = Counter()
        #: (owner, attribute, original) for every binding replaced.
        self._patched: List[Tuple[object, str, object]] = []
        self.events = 0

    # -- spans ---------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.inclusive_seconds.append(0.0)
            self.self_seconds.append(0.0)
            self.calls.append(0)
        return self._ids[name]

    def timed(self, name: str, fn: Callable, count: Optional[Callable] = None):
        """``fn`` wrapped in a span called ``name``.

        ``count(result, *args, **kwargs)`` runs after the span closes and
        adds the boundary counts of the call.
        """
        index = self._name_id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        stack, calls = self._stack, self.calls
        inclusive_seconds, self_seconds = self.inclusive_seconds, self.self_seconds

        def wrapper(*args, **kwargs):
            span = len(starts)
            names.append(index)
            parents.append(stack[-1][0] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            frame = [span, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                starts[span] = start
                ends[span] = end
                duration = end - start
                inclusive_seconds[index] += duration
                self_seconds[index] += duration - frame[1]
                calls[index] += 1
                if stack:
                    stack[-1][1] += duration
            if count is not None:
                count(result, *args, **kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def timed_iteration(self, name: str, fn: Callable):
        """Wrap a generator function: each step of the iteration is a span,
        so the consumer's loop body between steps is not charged to it."""
        timed = self.timed

        def wrapper(*args, **kwargs):
            step = timed(name, fn(*args, **kwargs).__next__)
            while True:
                try:
                    item = step()
                except StopIteration:
                    return
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    def inclusive_time(self, name: str) -> float:
        index = self._ids.get(name)
        return 0.0 if index is None else self.inclusive_seconds[index]

    def call_count(self, name: str) -> int:
        index = self._ids.get(name)
        return 0 if index is None else self.calls[index]

    def total_self_seconds(self) -> float:
        return sum(self.self_seconds)

    # -- patching ------------------------------------------------------------

    def _rebind(self, original, wrapper) -> int:
        """Replace every module-level binding of ``original`` in ``repro``."""
        bound = 0
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == "repro" or module_name.startswith("repro.")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._replace(module, attr, wrapper)
                    bound += 1
        return bound

    def wrap_function(self, path: str, name: str, count=None, iteration=False) -> None:
        owner, attr = _resolve(path)
        original = getattr(owner, attr)
        if iteration:
            wrapper = self.timed_iteration(name, original)
        else:
            wrapper = self.timed(name, original, count)
        if not self._rebind(original, wrapper):
            raise LookupError(f"no binding of {path} found to wrap")

    def wrap_method(self, path: str, name: str, count=None, subclasses=False) -> None:
        """Wrap a method on its class, or on every subclass defining it."""
        owner, attr = _resolve(path)
        classes = (
            [cls for cls in _subclasses(owner) if attr in vars(cls)]
            if subclasses
            else [owner]
        )
        if not classes:
            raise LookupError(f"no class defines {path}")
        for cls in classes:
            self._replace(cls, attr, self.timed(name, vars(cls)[attr], count))

    def _replace(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        """Put every replaced binding back, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def install(self) -> "LayerTrace":
        """Wrap the public functions of each benchmarked ``repro`` layer."""
        for module in MODULES:
            importlib.import_module(module)
        counts = self.counts

        def add(metric: str, amount: int = 1) -> None:
            counts[metric] += amount

        # ledger
        self.wrap_method(
            "repro.ledger.state_db:StateDatabase.populate",
            "ledger.populate",
            lambda result, db, initial: add("ledger.populate_keys", len(initial)),
        )
        self.wrap_method(
            "repro.ledger.state_db:StateDatabase.apply_write",
            "ledger.apply_writes",
            lambda result, *args: add("ledger.writes"),
        )
        # ``writes`` may be a one-shot iterator: count the write sets as
        # the state database consumes them.
        state_db = importlib.import_module("repro.ledger.state_db").StateDatabase
        apply_block_writes = self.timed(
            "ledger.apply_writes", vars(state_db)["apply_block_writes"]
        )

        def counted_apply_block_writes(db, block_id, writes):
            def counted():
                for tx_id, write_set in writes:
                    counts["ledger.writes"] += len(write_set)
                    yield tx_id, write_set

            return apply_block_writes(db, block_id, counted())

        self._replace(state_db, "apply_block_writes", counted_apply_block_writes)
        self.wrap_method(
            "repro.ledger.state_db:StateDatabase.get_version",
            "ledger.read_check",
        )
        self.wrap_method("repro.ledger.ledger:Ledger.append", "ledger.append")

        # workloads
        self.wrap_method(
            "repro.workloads.base:Workload.initial_state",
            "workloads.initial_state",
            subclasses=True,
        )
        self.wrap_method(
            "repro.workloads.base:Workload.next_invocation",
            "workloads.next_invocation",
            subclasses=True,
        )

        # core
        def pairs(rwsets) -> int:
            return len(rwsets) * (len(rwsets) - 1)

        def conflict_graph_counts(graph, rwsets, *args, **kwargs):
            add("core.conflict_graph_pair_tests", pairs(rwsets))
            add("core.conflict_graph_edges", graph.num_edges())

        def reorder_counts(result, rwsets, *args, **kwargs):
            add("core.reorder_cycles", result.cycles_found)
            add("core.reorder_in", len(rwsets))
            add("core.reorder_kept", len(result.schedule))

        def deps_counts(graph, rwsets, *args, **kwargs):
            add("core.validation_deps_pair_tests", pairs(rwsets))
            add("core.validation_deps_edges", graph.num_edges())

        self.wrap_function(
            "repro.core.conflict_graph:build_conflict_graph",
            "core.conflict_graph",
            conflict_graph_counts,
        )
        self.wrap_function("repro.core.reorder:reorder", "core.reorder", reorder_counts)
        self.wrap_function(
            "repro.core.conflict_graph:build_validation_dependencies",
            "core.validation_deps",
            deps_counts,
        )
        self.wrap_function(
            "repro.core.conflict_graph:dependency_waves",
            "core.dependency_waves",
            lambda waves, *args, **kwargs: add("validation.waves", len(waves)),
        )
        self.wrap_function(
            "repro.core.early_abort:filter_stale_within_block", "core.early_abort"
        )

        # graphalgo
        self.wrap_function(
            "repro.graphalgo.tarjan:strongly_connected_components", "graphalgo.scc"
        )
        self.wrap_function(
            "repro.graphalgo.johnson:simple_cycles", "graphalgo.cycles", iteration=True
        )

        # crypto
        self.wrap_function("repro.crypto.signing:sign", "crypto.sign")
        self.wrap_function("repro.crypto.signing:verify", "crypto.verify")
        self.wrap_function("repro.crypto.identity:mac", "crypto.mac")

        # fabric
        self.wrap_method(
            "repro.fabric.rwset:ReadWriteSet.canonical_bytes", "fabric.canonical_bytes"
        )
        self.wrap_method("repro.fabric.transaction:Transaction.digest", "fabric.tx_digest")
        self.wrap_method(
            "repro.fabric.chaincode:Chaincode.invoke",
            "fabric.chaincode_invoke",
            subclasses=True,
        )
        self.wrap_method("repro.fabric.orderer:OrderingService.submit", "fabric.orderer_submit")
        self.wrap_method(
            "repro.consensus.service:ReplicatedOrderingService.submit",
            "fabric.orderer_submit",
        )

        # consensus
        self.wrap_method("repro.consensus.raft:RaftReplica.dispatch", "consensus.dispatch")
        return self

    def attach_engine(self, env) -> None:
        """Count processed events through the engine's public trace hook."""

        def hook(now, event) -> None:
            self.events += 1

        env.set_trace_hook(hook)

    # -- output --------------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        """Write every span once: a JSON header line, then the raw arrays
        (name id, parent span, start, end) in that order."""
        header = {
            "names": self.names,
            "spans": len(self.span_start),
            "arrays": ["name:H", "parent:q", "start:d", "end:d"],
            "byteorder": sys.byteorder,
            "clock": "time.perf_counter seconds",
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for column in (
                self.span_name,
                self.span_parent,
                self.span_start,
                self.span_end,
            ):
                column.tofile(handle)
