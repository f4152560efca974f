"""Fail-closed tests: a damaged ``cube.v2`` must raise, never answer wrong.

Structural damage (truncation, magic, directory) is caught at open.
Payload damage is caught lazily — on the first access to the damaged
section, before any bytes reach a query — as :class:`SectionCorruption`.
``verify_v2`` reports every problem without raising, so the CLI can
print a diagnosis instead of a traceback.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bundle import open_bundle
from repro.query.planner import QueryRequest
from repro.relational.durable import atomic_write_chunks
from repro.storage2 import V2File, V2FormatError, verify_v2
from repro.storage2.codecs import NARROW, narrow_encode
from repro.storage2.format import MAGIC, SectionCorruption, V2Writer

from tests.storage2.test_format import write_sample


def flip_byte(path, offset):
    data = bytearray(path.read_bytes())
    data[offset] ^= 0xFF
    path.write_bytes(bytes(data))


def damaged_copy(tmp_path, mutate):
    target = tmp_path / "cube.v2"
    write_sample(target)
    mutate(target)
    return target


def test_truncated_file_fails_at_open(tmp_path):
    target = damaged_copy(
        tmp_path, lambda p: p.write_bytes(p.read_bytes()[:-20])
    )
    with pytest.raises(V2FormatError):
        V2File.open(target)


def test_tiny_file_fails_at_open(tmp_path):
    target = tmp_path / "cube.v2"
    target.write_bytes(b"short")
    with pytest.raises(V2FormatError, match="shorter"):
        V2File.open(target)


def test_missing_file_fails_at_open(tmp_path):
    with pytest.raises(V2FormatError, match="no v2 cube"):
        V2File.open(tmp_path / "cube.v2")


def test_wrong_magic_fails_at_open(tmp_path):
    def mutate(path):
        data = bytearray(path.read_bytes())
        data[:len(MAGIC)] = b"NOTACUBE"
        path.write_bytes(bytes(data))

    with pytest.raises(V2FormatError, match="magic"):
        V2File.open(damaged_copy(tmp_path, mutate))


def test_wrong_version_fails_at_open(tmp_path):
    target = damaged_copy(tmp_path, lambda p: flip_byte(p, 8))
    with pytest.raises(V2FormatError, match="version"):
        V2File.open(target)


def test_directory_bit_flip_fails_at_open(tmp_path):
    target = tmp_path / "cube.v2"
    write_sample(target)
    # The directory ends right where the 64-byte trailer begins, so a
    # byte a little before the trailer is squarely inside the JSON.
    flip_byte(target, target.stat().st_size - 64 - 10)
    with pytest.raises(V2FormatError):
        V2File.open(target)


def test_payload_bit_flip_raises_on_first_access(tmp_path):
    target = tmp_path / "cube.v2"
    write_sample(target)
    entry = V2File.open(target).entry("matrix")
    flip_byte(target, entry.offset + 3)
    file = V2File.open(target)  # structure is intact — open succeeds
    with pytest.raises(SectionCorruption, match="matrix"):
        file.array("matrix")
    # Undamaged sections stay readable.
    assert file.array("codes").tolist() == [3, 1, 2]


def test_narrow_payload_bit_flip_names_the_section(tmp_path):
    # Every byte of a narrow payload is behind the section checksum:
    # whichever column the flip lands in, the widening never runs.
    target = tmp_path / "cube.v2"
    write_sample(target)
    entry = V2File.open(target).entry("matrix")
    assert entry.codec == NARROW and entry.nbytes == 12
    for position in (0, 5, entry.nbytes - 1):
        flip_byte(target, entry.offset + position)
        with pytest.raises(SectionCorruption, match="'matrix' checksum"):
            V2File.open(target).array("matrix")
        flip_byte(target, entry.offset + position)  # and back
    assert V2File.open(target).verify_all() == []


@pytest.mark.parametrize(
    "extra",
    [
        {"lows": [1, 300], "widths": [2, 2]},  # Σ widths · rows ≠ bytes
        {"lows": [1, 300], "widths": [1, 1]},
        {"lows": [1, 300], "widths": [0, 3]},  # the right sum, not a width
        {"lows": [1, 300], "widths": [1]},
        {"lows": [1], "widths": [1, 2]},
        {"lows": [1, 300]},
        {"widths": [1, 2]},
        {},
    ],
)
def test_narrow_directory_that_disagrees_with_its_payload(tmp_path, extra):
    """A directory that checksums but describes the payload wrongly is a
    corrupt section — never a reshaped, re-based or short array."""
    matrix = np.asarray([[1, 300], [2, 400], [3, 900]], dtype=np.int64)
    payload, good = narrow_encode(matrix)
    assert good == {"lows": [1, 300], "widths": [1, 2]} and len(payload) == 9

    def written(name, section_extra, dtype="<i8"):
        writer = V2Writer({})
        writer.add_section(
            "m", payload, codec=NARROW, dtype=dtype, shape=(3, 2), count=6,
            extra=section_extra,
        )
        target = tmp_path / name
        atomic_write_chunks(target, writer.chunks())
        return V2File.open(target)

    assert written("good.v2", good).array("m").tolist() == matrix.tolist()
    with pytest.raises(SectionCorruption, match="'m' fails to decode"):
        written("bad.v2", extra).array("m")
    with pytest.raises(SectionCorruption, match="'m' fails to decode"):
        written("dtype.v2", good, dtype="<i4").array("m")
    assert verify_v2(tmp_path / "bad.v2").sections[0].problem


def test_verify_v2_reports_without_raising(tmp_path):
    target = tmp_path / "cube.v2"
    write_sample(target)
    assert verify_v2(target).ok
    entry = V2File.open(target).entry("rowids")
    flip_byte(target, entry.offset)
    report = verify_v2(target)
    assert not report.ok
    assert any("rowids" in r.problem for r in report.sections if r.problem)
    # Structural damage also reports, not raises.
    flip_byte(target, 0)
    structural = verify_v2(target)
    assert not structural.ok
    assert structural.problems


def test_corrupt_published_cube_never_answers_wrong(dual_bundles, tmp_path):
    """Through the real query path: damage → exception, not a wrong answer."""
    import shutil

    _, v2 = dual_bundles["CURE+"]
    root = tmp_path / "copy"
    shutil.copytree(v2.root, root)
    target = root / "cube.v2"
    probe = V2File.open(target)
    nt_name = next(
        n for n in probe.names() if n.endswith("/nt") and probe.entry(n).nbytes
    )
    entry = probe.entry(nt_name)
    flip_byte(target, entry.offset + entry.nbytes // 2)

    bundle = open_bundle(root)  # structure intact — open succeeds
    node = bundle.schema.decode_node(int(nt_name.split("/")[1]))
    planner = bundle.planner()
    try:
        with pytest.raises(SectionCorruption):
            planner.answer(QueryRequest.of(node))
    finally:
        bundle.close()


def test_structurally_damaged_cube_fails_at_open_bundle(dual_bundles, tmp_path):
    import shutil

    _, v2 = dual_bundles["CURE"]
    root = tmp_path / "copy"
    shutil.copytree(v2.root, root)
    (root / "cube.v2").write_bytes(b"garbage that is long enough" * 4)
    with pytest.raises(V2FormatError):
        open_bundle(root)
