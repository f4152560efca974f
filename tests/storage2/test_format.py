"""Container-level tests: writer/reader roundtrip, alignment, which
sections are zero-copy views and which widen once."""

from __future__ import annotations

import mmap

import numpy as np
import pytest

from repro.relational.durable import atomic_write_chunks
from repro.storage2.codecs import DELTA, NARROW, RAW, delta_encode
from repro.storage2.format import (
    ALIGNMENT,
    HEADER_BYTES,
    V2File,
    V2FormatError,
    V2Writer,
)


def write_sample(path, meta=None):
    writer = V2Writer(meta or {"kind": "sample", "rows": 6})
    writer.add_array("matrix", np.arange(12, dtype=np.int64).reshape(3, 4))
    writer.add_array("codes", np.asarray([3, 1, 2], dtype=np.int32))
    rowids = np.asarray([2, 5, 9, 40], dtype=np.int64)
    writer.add_section(
        "rowids",
        delta_encode(rowids),
        codec=DELTA,
        dtype="<i8",
        shape=(4,),
        count=4,
    )
    writer.add_array("empty", np.empty(0, dtype=np.int64))
    atomic_write_chunks(path, writer.chunks())
    return writer


def test_roundtrip_and_alignment(tmp_path):
    target = tmp_path / "cube.v2"
    write_sample(target)
    file = V2File.open(target)
    assert file.meta == {"kind": "sample", "rows": 6}
    assert file.names() == ["codes", "empty", "matrix", "rowids"]
    for name in file.names():
        entry = file.entry(name)
        assert entry.offset % ALIGNMENT == 0
        assert entry.offset >= HEADER_BYTES
    matrix = file.array("matrix")
    assert matrix.shape == (3, 4)
    assert matrix.dtype == np.int64
    assert matrix.tolist() == np.arange(12).reshape(3, 4).tolist()
    assert file.array("codes").tolist() == [3, 1, 2]
    assert file.array("rowids").tolist() == [2, 5, 9, 40]
    assert file.array("empty").size == 0
    assert file.verify_all() == []
    assert file.file_bytes == target.stat().st_size


def _is_map_view(array: np.ndarray) -> bool:
    base = array
    while isinstance(base, np.ndarray) and base.base is not None:
        base = base.base
    return isinstance(base, (np.memmap, mmap.mmap))


def test_raw_sections_are_zero_copy_views(tmp_path):
    # What ``narrow`` cannot shrink stays ``raw``: a full-range int64
    # column that falls (width 8 and no gaps — no smaller than the
    # array) and any other dtype.
    limits = np.iinfo(np.int64)
    wide = np.asarray([limits.min, limits.max, 0], dtype=np.int64)
    target = tmp_path / "cube.v2"
    writer = V2Writer({})
    writer.add_array("wide", wide)
    writer.add_array("codes", np.asarray([3, 1, 2], dtype=np.int32))
    writer.add_array("matrix", np.arange(12, dtype=np.int64).reshape(3, 4))
    atomic_write_chunks(target, writer.chunks())
    file = V2File.open(target)
    for name, values in (("wide", wide.tolist()), ("codes", [3, 1, 2])):
        assert file.entry(name).codec == RAW
        view = file.array(name)
        # A raw section is a view over the memmap, not a heap copy.
        assert _is_map_view(view)
        assert not view.flags.writeable
        assert view.tolist() == values
        assert file.array(name) is view
    # A narrow section is verified, widened once into an int64 heap
    # array, and that one array is what every later access returns.
    assert file.entry("matrix").codec == NARROW
    matrix = file.array("matrix")
    assert matrix.dtype == np.int64 and matrix.flags.c_contiguous
    assert not _is_map_view(matrix)
    assert not matrix.flags.writeable
    assert file.array("matrix") is matrix


def test_codec_is_a_function_of_the_values(tmp_path):
    target = tmp_path / "cube.v2"
    write_sample(target)
    file = V2File.open(target)
    matrix = file.entry("matrix")
    # arange(12).reshape(3, 4): every column spans 8 → one byte a value.
    assert matrix.codec == NARROW
    assert matrix.extra == {"lows": [0, 1, 2, 3], "widths": [1, 1, 1, 1]}
    assert matrix.nbytes == 12 and matrix.dtype == "<i8"
    assert file.entry("codes").codec == RAW  # int32: not narrow's domain
    assert file.entry("empty").codec == RAW  # nothing to save
    assert file.array("rowids") is file.array("rowids")


def test_duplicate_section_name_rejected():
    writer = V2Writer({})
    writer.add_array("a", np.zeros(1, dtype=np.int64))
    with pytest.raises(ValueError, match="duplicate"):
        writer.add_array("a", np.zeros(1, dtype=np.int64))


def test_missing_section_raises(tmp_path):
    target = tmp_path / "cube.v2"
    write_sample(target)
    file = V2File.open(target)
    assert not file.has("nope")
    with pytest.raises(V2FormatError, match="no section"):
        file.entry("nope")
    with pytest.raises(V2FormatError, match="no section"):
        file.array("nope")


def test_meta_roundtrips_canonically(tmp_path):
    meta = {
        "node_ids": [3, 1, 2],
        "dr_mode": False,
        "cube_prefix": "cube",
        "nested": {"z": 1, "a": [True, None]},
    }
    target = tmp_path / "cube.v2"
    write_sample(target, meta=meta)
    assert V2File.open(target).meta == meta


def test_section_bytes_matches_directory(tmp_path):
    target = tmp_path / "cube.v2"
    writer = write_sample(target)
    file = V2File.open(target)
    assert writer.section_bytes == sum(
        file.entry(name).nbytes for name in file.names()
    )
    entry = file.entry("rowids")
    assert entry.codec == DELTA
    assert bytes(file.section_bytes("rowids")) == delta_encode(
        np.asarray([2, 5, 9, 40], dtype=np.int64)
    )
