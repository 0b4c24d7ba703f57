"""Unit tests for conflict-graph construction."""

from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import conflict_graph
from repro.core.batch_cutter import BatchCutConfig, BatchCutter, CutReason
from repro.core.conflict_graph import (
    build_conflict_graph,
    build_validation_dependencies,
    schedule_is_serializable,
)
from repro.fabric.rwset import RangeRead
from repro.fabric.transaction import Proposal, Transaction
from repro.graphalgo.digraph import DiGraph
from tests.conftest import V1, rwset


def test_no_conflict_no_edges():
    graph = build_conflict_graph(
        [rwset(reads=["a"], writes=["b"]), rwset(reads=["c"], writes=["d"])]
    )
    assert graph.num_edges() == 0


def test_write_read_conflict_creates_edge():
    writer = rwset(writes=["k"])
    reader = rwset(reads=["k"])
    graph = build_conflict_graph([writer, reader])
    assert graph.has_edge(0, 1)  # writer -> reader
    assert not graph.has_edge(1, 0)


def test_self_conflict_excluded():
    """A transaction reading and writing the same key has no self-edge."""
    graph = build_conflict_graph([rwset(reads=["k"], writes=["k"])])
    assert graph.num_edges() == 0


def test_mutual_conflict_creates_two_cycle():
    a = rwset(reads=["x"], writes=["y"])
    b = rwset(reads=["y"], writes=["x"])
    graph = build_conflict_graph([a, b])
    assert graph.has_edge(0, 1)
    assert graph.has_edge(1, 0)


def test_write_write_is_not_a_conflict():
    """Only read-write conflicts matter under Fabric's validation rule."""
    graph = build_conflict_graph([rwset(writes=["k"]), rwset(writes=["k"])])
    assert graph.num_edges() == 0


def test_read_read_is_not_a_conflict():
    graph = build_conflict_graph([rwset(reads=["k"]), rwset(reads=["k"])])
    assert graph.num_edges() == 0


def test_paper_figure3_edges(table3):
    """Exact edge set of the conflict graph in Figure 3."""
    graph = build_conflict_graph(table3)
    expected = {
        (0, 3),  # T0 writes K2, T3 reads K2
        (1, 0),  # T1 writes K0, T0 reads K0
        (2, 1),  # T2 writes K3, T1 reads K3
        (2, 4),  # T2 writes K9, T4 reads K9
        (3, 0),  # T3 writes K1, T0 reads K1
        (3, 1),  # T3 writes K4, T1 reads K4
        (4, 1),  # T4 writes K5, T1 reads K5
        (4, 2),  # T4 writes K6, T2 reads K6
        (4, 3),  # T4 writes K8, T3 reads K8
        (5, 2),  # T5 writes K7, T2 reads K7
    }
    assert set(graph.edges()) == expected


def test_empty_input():
    graph = build_conflict_graph([])
    assert len(graph) == 0


def test_schedule_is_serializable_accepts_good_order():
    writer = rwset(writes=["k"])
    reader = rwset(reads=["k"])
    assert schedule_is_serializable([writer, reader], [1, 0])
    assert not schedule_is_serializable([writer, reader], [0, 1])


def test_schedule_is_serializable_partial_schedule():
    """Aborted transactions are simply absent from the schedule."""
    a = rwset(reads=["x"], writes=["y"])
    b = rwset(reads=["y"], writes=["x"])
    # A cycle: no full schedule works, but either one alone does.
    assert schedule_is_serializable([a, b], [0])
    assert schedule_is_serializable([a, b], [1])
    assert not schedule_is_serializable([a, b], [0, 1])
    assert not schedule_is_serializable([a, b], [1, 0])


def test_edge_orientation_writer_to_reader():
    """Pin the documented orientation end to end on the smallest case:
    T0 writes k, T1 reads k. The edge is 0 -> 1 (writer -> reader), and a
    serializable schedule commits the reader *before* the writer — the
    docstring of :func:`build_conflict_graph` and the check in
    :func:`schedule_is_serializable` agree on this."""
    block = [rwset(writes=["k"]), rwset(reads=["k"])]
    graph = build_conflict_graph(block)
    assert list(graph.edges()) == [(0, 1)]
    assert schedule_is_serializable(block, [1, 0])
    assert not schedule_is_serializable(block, [0, 1])


# -- the key index against the paper's pairwise scheme --------------------------

KEYS = ["a", "b", "c", "d", "e", "f"]


def _sets(rwsets):
    return (
        [set(rwset.read_keys) for rwset in rwsets],
        [set(rwset.writes) for rwset in rwsets],
    )


def _writes_into_ranges(writer, reader):
    return any(
        range_read.start_key <= key
        and (range_read.end_key is None or key < range_read.end_key)
        for range_read in reader.range_reads
        for key in writer.writes
    )


class RecordingDiGraph(DiGraph):
    """A graph that remembers the order of its ``add_edge`` calls, which
    fixes the iteration order of every adjacency set."""

    def __init__(self, nodes=()):
        self.added = []
        super().__init__(nodes)

    def add_edge(self, source, target):
        self.added.append((source, target))
        super().add_edge(source, target)


def pairwise_conflict_graph(rwsets):
    """Algorithm 1, step 1 as the paper states it: test every ordered pair."""
    reads, writes = _sets(rwsets)
    graph = RecordingDiGraph(range(len(rwsets)))
    for i in range(len(rwsets)):
        for j in range(len(rwsets)):
            if i != j and writes[i] & reads[j]:
                graph.add_edge(i, j)
    return graph


def pairwise_validation_dependencies(rwsets):
    """Every hazard of the sequential validator, tested for every i < j."""
    reads, writes = _sets(rwsets)
    graph = RecordingDiGraph(range(len(rwsets)))
    for j in range(len(rwsets)):
        for i in range(j):
            if (
                writes[i] & (reads[j] | writes[j])
                or reads[i] & writes[j]
                or _writes_into_ranges(rwsets[i], rwsets[j])
                or _writes_into_ranges(rwsets[j], rwsets[i])
            ):
                graph.add_edge(i, j)
    return graph


@st.composite
def range_reads(draw):
    start = draw(st.sampled_from(KEYS))
    end = draw(st.sampled_from([k for k in KEYS if k > start] + [None]))
    covered = [k for k in KEYS if k >= start and (end is None or k < end)]
    results = draw(st.lists(st.sampled_from(covered), unique=True).map(sorted))
    return RangeRead(start, end, tuple((key, V1) for key in results))


@st.composite
def rwsets(draw):
    result = rwset(
        reads=draw(st.lists(st.sampled_from(KEYS), unique=True, max_size=3)),
        writes=draw(st.lists(st.sampled_from(KEYS), unique=True, max_size=3)),
    )
    for range_read in draw(st.lists(range_reads(), max_size=2)):
        result.record_range_read(range_read)
    return result


blocks = st.lists(rwsets(), max_size=12)


def _layout(graph):
    return graph.nodes(), graph.edges(), graph.added


@given(blocks)
@example([])
@example([rwset(reads=["a"], writes=["a"]), rwset(reads=["a"], writes=["a"])])
@settings(deadline=None)
def test_key_index_matches_pairwise_builders(block):
    """Same nodes and edges in the same insertion order, so Tarjan,
    Johnson, the reorder schedule and the dependency waves cannot tell
    the index from the paper's pairwise test."""
    with mock.patch.object(conflict_graph, "DiGraph", RecordingDiGraph):
        assert _layout(build_conflict_graph(block)) == _layout(
            pairwise_conflict_graph(block)
        )
        assert _layout(build_validation_dependencies(block)) == _layout(
            pairwise_validation_dependencies(block)
        )


@given(blocks, st.integers(min_value=1, max_value=8))
@settings(deadline=None)
def test_batch_cutter_counts_union_of_unique_keys(block, limit):
    cutter = BatchCutter(
        BatchCutConfig(max_unique_keys=limit), track_unique_keys=True
    )
    seen = set()
    for index, tx_rwset in enumerate(block):
        proposal = Proposal(f"t{index}", "client", "ch0", "cc", "f", ())
        reason = cutter.add(Transaction(f"t{index}", proposal, tx_rwset, []), 0.0)
        seen |= tx_rwset.unique_keys
        assert cutter.unique_keys == len(seen)
        assert reason == (CutReason.UNIQUE_KEYS if len(seen) >= limit else None)
        if reason is not None:
            cutter.cut(reason)
            seen = set()
            assert cutter.unique_keys == 0
