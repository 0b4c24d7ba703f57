"""Conflict-graph construction from read/write sets (Algorithm 1, step 1).

Ti conflicts into Tj (edge Ti -> Tj) iff Ti writes a key that Tj reads.
The paper finds these edges by building a read and a write bit vector per
transaction over the block's unique keys and ANDing every ordered pair.
That is an implementation choice: an index from each key to the
transactions that read (or write) it, built once per graph, yields the
same graph while visiting only the pairs that actually share a key, so
a sparse block costs work in proportion to its shared keys, not n².
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING, Dict, Iterable, List, Sequence

from repro.graphalgo.digraph import DiGraph

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.fabric.rwset import ReadWriteSet


def _key_index(key_sets: Iterable[Iterable[str]]) -> Dict[str, List[int]]:
    """Map each key to the ascending indices of the key sets holding it."""
    index: Dict[str, List[int]] = defaultdict(list)
    for tx, keys in enumerate(key_sets):
        for key in keys:
            index[key].append(tx)
    return index


def build_conflict_graph(rwsets: Sequence["ReadWriteSet"]) -> DiGraph:
    """Build the conflict graph of a block's transactions.

    Nodes are the transaction indices ``0..len(rwsets)-1``; an edge
    ``i -> j`` means transaction ``i`` writes a key that transaction ``j``
    reads (a point read or a key in a range-scan result), so any
    serializable schedule must place ``j`` before ``i``. A transaction's
    conflict with itself (reading a key it also writes) is not an edge —
    the paper only considers pairs with ``j != i``. Edges are added with
    ``i`` ascending, then ``j`` ascending, so the adjacency (and every
    algorithm walking it) does not depend on string hashing.
    """
    readers = _key_index(rwset.read_keys for rwset in rwsets)
    graph = DiGraph(range(len(rwsets)))
    for i, rwset in enumerate(rwsets):
        targets = set()
        for key in rwset.writes:
            targets.update(readers.get(key, ()))
        targets.discard(i)
        for j in sorted(targets):
            graph.add_edge(i, j)
    return graph


def _writes_into_ranges(writer: "ReadWriteSet", reader: "ReadWriteSet") -> bool:
    """True if any of ``writer``'s written keys falls inside one of
    ``reader``'s scanned ranges (phantom territory).

    The scan's *result keys* are already covered by key-intersection
    tests; this catches inserts of keys the scan did **not** observe but
    whose bounds it covers — exactly the phantoms the validation phase
    re-executes scans to detect.
    """
    if not reader.range_reads or not writer.writes:
        return False
    for range_read in reader.range_reads:
        for key in writer.writes:
            if key < range_read.start_key:
                continue
            if range_read.end_key is not None and key >= range_read.end_key:
                continue
            return True
    return False


def build_validation_dependencies(rwsets: Sequence["ReadWriteSet"]) -> DiGraph:
    """Build the intra-block dependency graph for parallel validation.

    Nodes are transaction indices in block order; an edge ``i -> j``
    (always ``i < j``) means transaction ``j``'s MVCC check/commit must
    wait for ``i``'s. Unlike :func:`build_conflict_graph` (which only
    needs write->read pairs to reorder), a *scheduler* must respect every
    hazard of the sequential validator's semantics:

    - true dependency: ``i`` writes a key ``j`` reads (point read or a
      key in a range-scan result) — ``j``'s version check must see ``i``'s
      pending write;
    - output dependency: ``i`` and ``j`` write the same key — last write
      (block order) must win in the store;
    - anti dependency: ``i`` reads a key ``j`` writes — ``j``'s write must
      not be visible to ``i``'s check;
    - phantom coverage, both directions: a write landing inside the
      other's scanned range changes that scan's re-execution.

    Edges only point from lower to higher index, so the graph is acyclic
    by construction and block order is always a valid topological order.
    """
    read_keys = [rwset.read_keys for rwset in rwsets]
    readers = _key_index(read_keys)
    writers = _key_index(rwset.writes for rwset in rwsets)
    scanners = [i for i, rwset in enumerate(rwsets) if rwset.range_reads]
    graph = DiGraph(range(len(rwsets)))
    for j, rwset in enumerate(rwsets):
        preds = set()
        for key in rwset.writes:
            preds.update(writers[key])
            preds.update(readers.get(key, ()))
        for key in read_keys[j]:
            preds.update(writers.get(key, ()))
        # Phantom coverage is not key-shared, so it stays pairwise, but
        # only for the pairs where one side scanned a range.
        if rwset.range_reads:
            preds.update(
                i for i in range(j) if _writes_into_ranges(rwsets[i], rwset)
            )
        preds.update(
            i for i in scanners if i < j and _writes_into_ranges(rwset, rwsets[i])
        )
        for i in sorted(i for i in preds if i < j):
            graph.add_edge(i, j)
    return graph


def dependency_waves(graph: DiGraph) -> List[List[int]]:
    """Group a validation dependency graph into topological waves.

    Wave ``w`` holds the transactions whose longest dependency chain has
    exactly ``w`` predecessors; every transaction in a wave is
    independent of the others in the same wave, so a scheduler may
    validate a whole wave concurrently and commit waves in order. The
    number of waves is the block's critical-path length — the lower bound
    on sequential MVCC steps no amount of parallelism can beat. Requires
    edges to point from lower to higher node (as
    :func:`build_validation_dependencies` guarantees); within a wave,
    transactions keep ascending block order.
    """
    levels: Dict[int, int] = {}
    waves: List[List[int]] = []
    for node in sorted(graph.nodes()):
        level = 0
        for pred in graph.predecessors(node):
            level = max(level, levels[pred] + 1)
        levels[node] = level
        if level == len(waves):
            waves.append([])
        waves[level].append(node)
    return waves


def schedule_is_serializable(
    rwsets: Sequence["ReadWriteSet"], schedule: Sequence[int]
) -> bool:
    """Check that ``schedule`` respects every conflict among its members.

    For every pair of scheduled transactions with an edge ``i -> j``
    (i writes what j reads), ``j`` must appear before ``i``. This is the
    correctness oracle used by the test-suite's property-based tests.
    """
    position = {tx: pos for pos, tx in enumerate(schedule)}
    graph = build_conflict_graph(rwsets)
    for i, j in graph.edges():
        if i in position and j in position and position[j] > position[i]:
            return False
    return True
