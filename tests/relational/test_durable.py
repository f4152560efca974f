"""Unit tests for the durability primitives and the fault injector.

These are the auditable moves the crash-safety layer is built from:
atomic writes, checksums, bounded retries, torn-write handling, and the
error-path hygiene of :class:`HeapFile` and :class:`MemoryManager`.
"""

from __future__ import annotations

import os
import stat

import pytest

from repro.faults import (
    FaultInjector,
    FaultKind,
    FaultSpec,
    seeded_crash_indices,
)
from repro.relational import durable
from repro.relational.catalog import Catalog
from repro.relational.durable import (
    InjectedCrash,
    RetryPolicy,
    TornWrite,
    TransientIOError,
    append_bytes,
    atomic_write_bytes,
    atomic_write_chunks,
    atomic_write_text,
    file_checksum,
    publish_file,
    truncate_file,
    with_retries,
)
from repro.relational.engine import Engine
from repro.relational.memory import MemoryBudgetExceeded, MemoryManager
from repro.relational.schema import Column, ColumnType, TableSchema
from tests.support.rows import append_rows, rows_of, table_of

pytestmark = pytest.mark.crash

SCHEMA = TableSchema(
    (Column("a", ColumnType.INT32), Column("m", ColumnType.INT64))
)


# -- atomic writes and checksums ----------------------------------------------


def test_atomic_write_creates_and_replaces(tmp_path):
    target = tmp_path / "x.json"
    atomic_write_text(target, "one")
    assert target.read_text() == "one"
    atomic_write_text(target, "two")
    assert target.read_text() == "two"
    assert list(tmp_path.glob("*.wip")) == [], "no staging residue"


def test_atomic_write_bytes_roundtrip(tmp_path):
    target = tmp_path / "blob"
    payload = bytes(range(256))
    atomic_write_bytes(target, payload)
    assert target.read_bytes() == payload


def test_publish_file_promotes_staging(tmp_path):
    staged = tmp_path / "data.wip"
    atomic_write_bytes(staged, b"payload")
    final = tmp_path / "data"
    publish_file(staged, final)
    assert final.read_bytes() == b"payload"
    assert not staged.exists()


def test_checksums_detect_change(tmp_path):
    target = tmp_path / "f"
    atomic_write_bytes(target, b"abc")
    first = file_checksum(target)
    assert first == file_checksum(target)
    atomic_write_bytes(target, b"abd")
    assert file_checksum(target) != first
    assert file_checksum(tmp_path / "missing") == file_checksum(
        tmp_path / "also-missing"
    )


class _RecordingHandle:
    """A file handle that logs the data-moving calls made through it."""

    def __init__(self, handle, calls: list[str]) -> None:
        self._handle = handle
        self._calls = calls

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self._handle.close()

    def __getattr__(self, name: str):
        attr = getattr(self._handle, name)
        if name not in ("write", "truncate", "flush"):
            return attr

        def logged(*args):
            self._calls.append(name)
            return attr(*args)

        return logged


def _call_order(monkeypatch, operation) -> list[str]:
    """The write / truncate / flush / fsync / replace calls ``operation``
    makes, in order; an fsync of a directory descriptor is ``fsync-dir``."""
    calls: list[str] = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd: int) -> None:
        is_dir = stat.S_ISDIR(os.fstat(fd).st_mode)
        calls.append("fsync-dir" if is_dir else "fsync")
        real_fsync(fd)

    def replace(src, dst) -> None:
        calls.append("replace")
        real_replace(src, dst)

    monkeypatch.setattr(
        durable, "open", lambda *a: _RecordingHandle(open(*a), calls), raising=False
    )
    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    operation()
    return calls


_PUBLISH = ["flush", "fsync", "replace", "fsync-dir"]


@pytest.mark.parametrize(
    ("primitive", "expected"),
    [
        (lambda d: atomic_write_bytes(d / "f", b"x"), ["write", *_PUBLISH]),
        (lambda d: atomic_write_text(d / "f", "x"), ["write", *_PUBLISH]),
        (
            lambda d: atomic_write_chunks(d / "f", [b"x", b"y"]),
            ["write", "write", *_PUBLISH],
        ),
        (lambda d: append_bytes(d / "seg", b"x"), ["write", "flush", "fsync"]),
        (lambda d: truncate_file(d / "seg", 1), ["truncate", "flush", "fsync"]),
        (lambda d: publish_file(d / "seg", d / "f"), ["fsync", "replace", "fsync-dir"]),
    ],
    ids=[
        "atomic_write_bytes",
        "atomic_write_text",
        "atomic_write_chunks",
        "append_bytes",
        "truncate_file",
        "publish_file",
    ],
)
def test_durable_primitive_call_order(tmp_path, monkeypatch, primitive, expected):
    """Data reaches the handle, is flushed, fsync'd, and only then renamed
    into place, after which the directory entry is fsync'd; the append and
    truncate primitives rename nothing."""
    (tmp_path / "seg").write_bytes(b"staged")
    assert _call_order(monkeypatch, lambda: primitive(tmp_path)) == expected


# -- bounded retries -----------------------------------------------------------


def test_with_retries_absorbs_transient_errors():
    calls = {"n": 0}

    def flaky() -> str:
        calls["n"] += 1
        if calls["n"] < 3:
            raise TransientIOError("flaky")
        return "ok"

    delays: list[float] = []
    assert with_retries(flaky, sleep=delays.append) == "ok"
    assert calls["n"] == 3
    policy = RetryPolicy()
    assert delays == [policy.delay(0), policy.delay(1)]


def test_with_retries_gives_up_after_max_attempts():
    calls = {"n": 0}

    def always_fails() -> None:
        calls["n"] += 1
        raise TransientIOError("down")

    with pytest.raises(TransientIOError):
        with_retries(
            always_fails, policy=RetryPolicy(max_attempts=3), sleep=lambda _: None
        )
    assert calls["n"] == 3


def test_with_retries_never_retries_a_crash():
    calls = {"n": 0}

    def crashes() -> None:
        calls["n"] += 1
        raise InjectedCrash("dead")

    with pytest.raises(InjectedCrash):
        with_retries(crashes, sleep=lambda _: None)
    assert calls["n"] == 1


def test_retry_delay_is_capped():
    policy = RetryPolicy(
        max_attempts=10, base_delay_seconds=0.01, max_delay_seconds=0.04
    )
    assert policy.delay(0) == 0.01
    assert policy.delay(1) == 0.02
    assert policy.delay(5) == 0.04  # capped


def test_torn_write_keep_bytes_is_a_proper_prefix():
    torn = TornWrite(keep_fraction=0.5)
    assert torn.keep_bytes(100) == 50
    assert torn.keep_bytes(1) == 0
    assert torn.keep_bytes(0) == 0
    assert TornWrite(keep_fraction=1.0).keep_bytes(8) == 7  # never whole


# -- fault injector semantics --------------------------------------------------


def test_recording_injector_traces_without_raising():
    injector = FaultInjector.recording()
    injector.fire("heap.write:fact")
    injector.fire("heap.flush:fact")
    assert injector.trace == ["heap.write:fact", "heap.flush:fact"]
    assert injector.fired == []


def test_crash_at_fires_on_the_exact_event():
    injector = FaultInjector.crash_at(2)
    injector.fire("a")
    injector.fire("b")
    with pytest.raises(InjectedCrash):
        injector.fire("c")
    assert injector.fired == ["crash@c"]


def test_transient_spec_fires_for_times_consecutive_events():
    injector = FaultInjector(
        plan=(FaultSpec(site="s", kind=FaultKind.TRANSIENT, hit=2, times=2),)
    )
    injector.fire("s")  # hit 1: passes
    with pytest.raises(TransientIOError):
        injector.fire("s")  # hit 2
    with pytest.raises(TransientIOError):
        injector.fire("s")  # hit 3 (times=2 window)
    injector.fire("s")  # recovered


def test_memory_shock_raises_budget_exceeded():
    injector = FaultInjector(
        plan=(FaultSpec(site="memory.reserve:*", kind=FaultKind.MEMORY_SHOCK),)
    )
    with pytest.raises(MemoryBudgetExceeded):
        injector.fire("memory.reserve:partition")


def test_torn_write_degrades_to_crash_off_heap_write_sites():
    injector = FaultInjector(
        plan=(FaultSpec(site="*", kind=FaultKind.TORN_WRITE),)
    )
    with pytest.raises(InjectedCrash):
        injector.fire("catalog.create:fact")


def test_seeded_crash_indices_are_deterministic_and_bounded():
    assert seeded_crash_indices(0, 5, 10) == [0, 1, 2, 3, 4]
    sample = seeded_crash_indices(1, 1000, 12)
    assert sample == seeded_crash_indices(1, 1000, 12)
    assert len(sample) == 12
    assert sample == sorted(sample)
    assert all(0 <= p < 1000 for p in sample)
    assert seeded_crash_indices(2, 1000, 12) != sample


# -- heap error paths ----------------------------------------------------------


def _catalog_heap(tmp_path, faults=None):
    catalog = Catalog(tmp_path / "cat")
    if faults is not None:
        catalog.set_faults(faults)
    heap = catalog.create("t", SCHEMA)
    return catalog, heap


def test_heap_torn_write_leaves_prefix_and_closes(tmp_path):
    catalog, heap = _catalog_heap(tmp_path)
    append_rows(heap, [(i, i * 10) for i in range(8)])
    heap.flush()
    intact_rows = len(heap)

    heap.faults = FaultInjector(
        plan=(
            FaultSpec(
                site="heap.write:*", kind=FaultKind.TORN_WRITE, keep_fraction=0.5
            ),
        )
    )
    with pytest.raises(InjectedCrash):
        append_rows(heap, [(i, i) for i in range(8)])
    # close-on-exception: the handle is gone and the row count re-derives
    # from the on-disk size — whole rows only, never a half-record.
    assert heap._handle is None
    heap.faults = None
    assert intact_rows <= len(heap) < intact_rows + 8
    for row in rows_of(heap):
        assert len(row) == 2
    catalog.close()


def test_heap_append_failure_invalidates_cached_count(tmp_path):
    catalog, heap = _catalog_heap(tmp_path)
    append_rows(heap, [(1, 1), (2, 2)])
    heap.faults = FaultInjector(
        plan=(FaultSpec(site="heap.write:*", kind=FaultKind.CRASH),)
    )
    with pytest.raises(InjectedCrash):
        append_rows(heap, [(3, 3), (4, 4)])
    heap.faults = None
    assert heap._handle is None
    assert len(heap) >= 2
    catalog.close()


def test_transient_heap_faults_are_absorbed_by_retries(tmp_path):
    injector = FaultInjector(
        plan=(
            FaultSpec(site="heap.write:t.*", kind=FaultKind.TRANSIENT, hit=1),
            FaultSpec(site="heap.flush:t.*", kind=FaultKind.TRANSIENT, hit=1),
            FaultSpec(site="heap.read:t.*", kind=FaultKind.TRANSIENT, hit=1),
        )
    )
    catalog, heap = _catalog_heap(tmp_path, faults=injector)
    heap.faults = injector
    append_rows(heap, [(i, i) for i in range(4)])
    heap.flush()
    assert [row[0] for row in rows_of(heap)] == [0, 1, 2, 3]
    assert len(injector.fired) == 3
    catalog.close()


# -- memory manager error paths ------------------------------------------------


def test_reservation_released_on_exception():
    memory = MemoryManager(budget_bytes=100)
    with pytest.raises(RuntimeError, match="boom"):
        with memory.reservation(60, what="load"):
            assert memory.used_bytes == 60
            raise RuntimeError("boom")
    assert memory.used_bytes == 0
    assert memory.peak_bytes == 60


def test_failed_load_releases_its_reservation(tmp_path):
    """A map that fails at its ``heap.read`` site gives back the
    reservation :meth:`Engine.load` took for it."""
    engine = Engine(Catalog(tmp_path / "eng"), MemoryManager(budget_bytes=4096))
    engine.store_table("t", table_of(SCHEMA, [(i, i) for i in range(16)]))
    injector = FaultInjector(
        plan=(FaultSpec(site="heap.read:t.*", kind=FaultKind.CRASH),)
    )
    engine.install_faults(injector)
    with pytest.raises(InjectedCrash):
        engine.load("t")
    assert engine.memory.used_bytes == 0, "failed load must not leak budget"
    engine.close()
