"""Unit tests for read/write sets."""

from repro.fabric.rwset import ReadWriteSet
from repro.ledger.state_db import Version

V1 = Version(1, 0)
V2 = Version(2, 0)


def test_empty_rwset():
    rwset = ReadWriteSet()
    assert rwset.is_empty()
    assert rwset.read_keys == frozenset()
    assert rwset.write_keys == frozenset()
    assert rwset.unique_keys == frozenset()


def test_first_read_wins():
    rwset = ReadWriteSet()
    rwset.record_read("k", V1)
    rwset.record_read("k", V2)
    assert rwset.reads["k"] == V1


def test_last_write_wins():
    rwset = ReadWriteSet()
    rwset.record_write("k", 1)
    rwset.record_write("k", 2)
    assert rwset.writes["k"] == 2


def test_read_of_absent_key():
    rwset = ReadWriteSet()
    rwset.record_read("ghost", None)
    assert rwset.reads["ghost"] is None
    assert not rwset.is_empty()


def test_unique_keys_union():
    rwset = ReadWriteSet()
    rwset.record_read("a", V1)
    rwset.record_write("a", 1)
    rwset.record_write("b", 2)
    assert rwset.unique_keys == {"a", "b"}


def test_equality_semantics():
    a = ReadWriteSet()
    a.record_read("k", V1)
    a.record_write("w", 5)
    b = ReadWriteSet()
    b.record_read("k", V1)
    b.record_write("w", 5)
    assert a == b
    b.record_write("w", 6)
    assert a != b


def test_equality_ignores_insertion_order():
    a = ReadWriteSet()
    a.record_read("k1", V1)
    a.record_read("k2", V1)
    b = ReadWriteSet()
    b.record_read("k2", V1)
    b.record_read("k1", V1)
    assert a == b


def test_canonical_bytes_stable():
    a = ReadWriteSet()
    a.record_read("k1", V1)
    a.record_write("w", 5)
    assert a.canonical_bytes() == a.canonical_bytes()


def test_canonical_bytes_order_independent():
    a = ReadWriteSet()
    a.record_read("k1", V1)
    a.record_read("k2", V2)
    b = ReadWriteSet()
    b.record_read("k2", V2)
    b.record_read("k1", V1)
    assert a.canonical_bytes() == b.canonical_bytes()


def test_canonical_bytes_differ_on_version():
    a = ReadWriteSet()
    a.record_read("k", V1)
    b = ReadWriteSet()
    b.record_read("k", V2)
    assert a.canonical_bytes() != b.canonical_bytes()


def test_canonical_bytes_differ_on_value():
    a = ReadWriteSet()
    a.record_write("k", 1)
    b = ReadWriteSet()
    b.record_write("k", 2)
    assert a.canonical_bytes() != b.canonical_bytes()


def test_canonical_cache_invalidated_on_mutation():
    a = ReadWriteSet()
    a.record_read("k", V1)
    before = a.canonical_bytes()
    a.record_write("w", 1)
    assert a.canonical_bytes() != before


def test_copy_is_independent():
    a = ReadWriteSet()
    a.record_read("k", V1)
    b = a.copy()
    b.record_write("w", 1)
    assert "w" not in a.writes
    assert a.reads == b.reads
