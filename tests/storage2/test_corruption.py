"""Fail-closed tests: a damaged ``cube.v2`` must raise, never answer wrong.

Structural damage (truncation, magic, directory) is caught at open.
Payload damage is caught lazily — on the first access to the damaged
section, before any bytes reach a query — as :class:`SectionCorruption`.
A restarting writer's ``committed_container`` checks every section up
front instead.  ``verify_v2`` reports every problem without raising, so
the CLI can print a diagnosis instead of a traceback.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import struct

import numpy as np
import pytest

from repro.bundle import open_bundle
from repro.query.planner import QueryRequest
from repro.relational.durable import atomic_write_chunks, file_checksum
from repro.storage2 import V2File, V2FormatError, verify_v2
from repro.storage2.codecs import NARROW, narrow_encode
from repro.storage2.format import (
    ALIGNMENT,
    MAGIC,
    TRAILER_BYTES,
    SectionCorruption,
    V2Writer,
    committed_container,
)
from repro.storage2.publish import BundleError

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
    matrix = np.asarray([[1, 300], [2, 900], [3, 400]], dtype=np.int64)
    payload, good = narrow_encode(matrix)  # the second column falls: no gaps
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


@pytest.mark.parametrize(
    "payload_cut, extra",
    [
        (0, {"lows": [1, 300], "widths": [1, 0], "gaps": [[1, 3]]}),  # bytes
        (0, {"lows": [1, 300], "widths": [1, 0], "gaps": [[0, 4]]}),  # column
        (0, {"lows": [1, 300], "widths": [1, 2], "gaps": [[1, 4]]}),  # a width
        (0, {"lows": [1, 300], "widths": [1, 0], "gaps": [1, 4]}),  # no pair
        (0, {"lows": [1, 300], "widths": [1, 0], "gaps": "1:4"}),
        (0, {"lows": [1, 300], "widths": [1, 0]}),  # gaps left out
        (1, {"lows": [1, 300], "widths": [1, 0], "gaps": [[1, 3]]}),  # truncated
        (-1, {"lows": [1, 300], "widths": [1, 0], "gaps": [[1, 5]]}),  # 4 varints
    ],
)
def test_gap_column_that_disagrees_with_its_directory(tmp_path, payload_cut, extra):
    """A gap column whose signed bytes or directory entry do not decode
    to its rows is a corrupt section through the reader."""
    matrix = np.asarray([[1, 300], [2, 400], [3, 900]], dtype=np.int64)
    payload, good = narrow_encode(matrix)
    assert good == {"lows": [1, 300], "widths": [1, 0], "gaps": [[1, 4]]}
    if payload_cut > 0:
        payload = payload[:-payload_cut]
    elif payload_cut < 0:
        payload += b"\x00"

    writer = V2Writer({})
    writer.add_section(
        "m", payload, codec=NARROW, dtype="<i8", shape=(3, 2), count=6, extra=extra
    )
    target = tmp_path / "gaps.v2"
    atomic_write_chunks(target, writer.chunks())
    with pytest.raises(SectionCorruption, match="'m' fails to decode"):
        V2File.open(target).array("m")
    assert verify_v2(target).sections[0].problem


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


def test_committed_container_fails_closed_on_any_section(tmp_path):
    """A restarting writer's opener: the manifest's checksum first, then
    every section behind it, before a file is returned at all."""
    target = tmp_path / "cube.v2"
    write_sample(target)
    pristine = target.read_bytes()
    assert committed_container(target, file_checksum(target)).names()
    with pytest.raises(V2FormatError, match="checksum mismatch"):
        committed_container(target, "0" * 64)
    probe = V2File.open(target)
    damaged = [name for name in probe.names() if probe.entry(name).nbytes]
    assert damaged == ["codes", "matrix", "rowids"]
    for name in damaged:
        target.write_bytes(pristine)
        flip_byte(target, probe.entry(name).offset)
        # The manifest vouches for the damaged bytes; the sections do not.
        with pytest.raises(SectionCorruption, match=f"'{name}'"):
            committed_container(target, file_checksum(target))
    target.write_bytes(pristine[: len(pristine) // 2])
    with pytest.raises(V2FormatError):
        committed_container(target, file_checksum(target))
    target.unlink()
    with pytest.raises(V2FormatError, match="missing container"):
        committed_container(target, file_checksum(target))


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


#: A string an edit puts where a raw JSON literal goes in the text.
RAW = "@raw@"


def resigned_bundle(dual_bundles, tmp_path, edit, literal=""):
    """A copy of a published bundle whose ``cube.v2`` directory went
    through ``edit`` and was signed again: the directory checksum
    passes, so only the reader's structural checks stand between the
    edited directory and a query.  ``literal`` replaces the ``RAW``
    string the edit placed, as JSON text."""
    _, v2 = dual_bundles["CURE"]
    root = tmp_path / "copy"
    shutil.copytree(v2.root, root)
    target = root / "cube.v2"
    data = target.read_bytes()
    dir_offset, dir_len = struct.unpack_from("<QQ", data, len(data) - TRAILER_BYTES)
    document = json.loads(data[dir_offset : dir_offset + dir_len])
    directory = json.dumps(edit(document, dir_offset)).replace(f'"{RAW}"', literal)
    directory = directory.encode("utf-8")
    trailer = struct.pack(
        "<QQ32s8s8s",
        dir_offset,
        len(directory),
        hashlib.sha256(directory).digest(),
        b"\x00" * 8,
        MAGIC,
    )
    target.write_bytes(data[:dir_offset] + directory + trailer)
    return root


def _duplicate_name(document, _dir_offset):
    document["sections"].append(dict(document["sections"][0]))
    return document


def _misaligned(document, _dir_offset):
    document["sections"][0]["offset"] += ALIGNMENT // 2
    return document


def _into_directory(document, dir_offset):
    last = max(document["sections"], key=lambda entry: entry["offset"])
    last["bytes"] = dir_offset - last["offset"] + 1
    return document


@pytest.mark.parametrize(
    "edit, message",
    [
        (_duplicate_name, "duplicate section"),
        (_misaligned, "misaligned"),
        (_into_directory, "outside the data region"),
    ],
)
def test_resigned_directory_with_bad_structure_fails_at_open_bundle(
    dual_bundles, tmp_path, edit, message
):
    root = resigned_bundle(dual_bundles, tmp_path, edit)
    with pytest.raises(V2FormatError, match=message):
        open_bundle(root)


def _without(field):
    def edit(document, _dir_offset):
        del document["sections"][0][field]
        return document

    return edit


def _replaced(field, value):
    def edit(document, _dir_offset):
        document["sections"][0][field] = value
        return document

    return edit


def _sections_as(value):
    def edit(document, _dir_offset):
        document["sections"] = value(document["sections"])
        return document

    return edit


#: Case → (edit, whether the error must name the first section).
MALFORMED_DIRECTORIES = {
    "missing codec": (_without("codec"), True),
    "missing sha256": (_without("sha256"), True),
    "shape not a list": (_replaced("shape", 3), True),
    "shape of strings": (_replaced("shape", ["3"]), True),
    "empty shape": (_replaced("shape", []), True),
    "offset as text": (_replaced("offset", "64"), True),
    "extra not an object": (_replaced("extra", []), True),
    # np.dtype raises TypeError, ValueError and SyntaxError respectively.
    "dtype numpy cannot parse": (_replaced("dtype", "xxx"), True),
    "dtype with a bad subarray shape": (_replaced("dtype", "(2,-1)i8"), True),
    "dtype with an empty subarray shape": (_replaced("dtype", "(,)i8"), True),
    "sections an object": (
        _sections_as(lambda sections: {entry["name"]: entry for entry in sections}),
        False,
    ),
    "sections a string": (_sections_as(lambda sections: "node/0/nt"), False),
    "entry not an object": (_sections_as(lambda sections: ["node/0/nt"]), False),
    "document a list": (lambda document, _dir_offset: [document], False),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_DIRECTORIES))
def test_malformed_directory_entry_is_a_format_error(dual_bundles, tmp_path, case):
    """A checksummed directory whose entries lack a field or carry one of
    the wrong type is a damaged container: ``open_bundle`` raises
    :class:`V2FormatError` naming the section and ``verify_v2`` reports
    it, never a ``KeyError`` / ``TypeError`` / ``AttributeError``."""
    edit, names_section = MALFORMED_DIRECTORIES[case]
    first = []

    def recording(document, dir_offset):
        first.append(document["sections"][0]["name"])
        return edit(document, dir_offset)

    root = resigned_bundle(dual_bundles, tmp_path, recording)
    with pytest.raises(V2FormatError) as raised:
        open_bundle(root)
    if names_section:
        assert repr(first[0]) in str(raised.value)
    report = verify_v2(root / "cube.v2")
    assert not report.ok
    assert report.problems and not report.sections


#: Numbers ``json`` parses and ``orjson`` does not: NaN, a float beyond
#: double range, and an integer beyond 64 bits (which orjson reads as a
#: float, so only a type check catches it).
UNREPRESENTABLE = ["NaN", "1e400", str(2**64)]


@pytest.mark.parametrize("literal", UNREPRESENTABLE)
@pytest.mark.parametrize("field", ["offset", "count", "bytes"])
def test_directory_integer_json_cannot_hold_fails_closed(
    dual_bundles, tmp_path, field, literal
):
    root = resigned_bundle(dual_bundles, tmp_path, _replaced(field, RAW), literal)
    with pytest.raises(V2FormatError):
        open_bundle(root)
    report = verify_v2(root / "cube.v2")
    assert not report.ok and report.problems


#: Integer fields of ``bundle.json`` → where the literal goes.
BUNDLE_FIELDS = {
    "cardinality": ("schema", "dimensions", 0, "levels", 1, "cardinality"),
    "base_maps": ("schema", "dimensions", 0, "base_maps", 1, 0),
    "parent": ("schema", "dimensions", 0, "parents", 0, 0),
    "aggregate": ("schema", "aggregates", 0, 1),
    "n_measures": ("schema", "n_measures"),
}


@pytest.mark.parametrize("literal", UNREPRESENTABLE)
@pytest.mark.parametrize("field", sorted(BUNDLE_FIELDS))
def test_bundle_json_integer_json_cannot_hold_fails_closed(
    dual_bundles, tmp_path, field, literal
):
    _, v2 = dual_bundles["CURE"]
    root = tmp_path / "copy"
    shutil.copytree(v2.root, root)
    meta = json.loads((root / "bundle.json").read_text())
    *path, last = BUNDLE_FIELDS[field]
    holder = meta
    for key in path:
        holder = holder[key]
    holder[last] = RAW
    text = json.dumps(meta).replace(f'"{RAW}"', literal)
    (root / "bundle.json").write_text(text)
    # NaN and 1e400 are not JSON to the one document reader; 2**64 parses
    # (as a float), and the schema decoder names the field it lands in.
    named = field if literal == str(2**64) else "bundle.json is not JSON"
    with pytest.raises(BundleError, match=named):
        open_bundle(root)
