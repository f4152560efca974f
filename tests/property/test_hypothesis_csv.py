"""Differential property: the byte-level CSV reader against its definition.

``load_csv(path)`` tokenizes the file's bytes with numpy and
dictionary-encodes each block.  What it must produce is defined by the
standard library: ``load_records(list(csv.DictReader(...)))`` over the
same text.  The two must agree on the schema (levels, ``base_maps``,
member names, aggregates), the decoders and the fact columns, or fail
with the same exception and message.  A ragged file must be rejected by
both, and the line ``load_csv`` names must be ``csv.reader``'s
``line_num`` at the first ragged row.

The generated files cover quoted fields holding commas, doubled quotes,
LF, CRLF and lone CRs; NUL bytes; LF and CRLF line ends; blank lines and a missing
final newline; a leading byte-order mark; non-ASCII members and members
longer than one eight-byte word; integer, negative, 19-digit, decimal and
scaled measures, quoted or not; header columns in any order, one unused.
``CHUNK_BYTES`` is patched down to a few bytes, so blocks are cut inside
quoted fields and rows.
"""

from __future__ import annotations

import csv
import io

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.datasets import loader
from repro.datasets.loader import DimensionSpec, MeasureSpec, load_csv, load_records
from tests.property.test_hypothesis_loader import assert_same_load

TOKENS = list("abcxyz019 -") + [",", '"', "\n", "\r\n", "\0", "é", "漢", "🙂"]


def member_text(lone_cr: bool) -> st.SearchStrategy[str]:
    """Member names of up to twelve tokens.  ``csv.writer`` quotes a
    field holding a lone CR only when CR is in its line terminator or it
    quotes every field, so only then may a name hold one."""
    tokens = TOKENS + ["\r"] if lone_cr else TOKENS
    return st.lists(st.sampled_from(tokens), max_size=12).map("".join)


SETTINGS = settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
BLOCK_SIZES = st.sampled_from([1, 2, 3, 5, 8, 13, 64, 1 << 20])


@st.composite
def dimension(draw, index: int, names_of: st.SearchStrategy[str]):
    """A spec and, per base code, the member of every level: distinct
    names per level, children grouped under parents by integer division."""
    n_levels = draw(st.integers(1, 3))
    cardinality = draw(st.integers(1, 5))
    divisors = [1]
    for _ in range(n_levels - 1):
        divisors.append(divisors[-1] * draw(st.integers(1, 3)))
    names = [
        draw(
            st.lists(
                names_of,
                min_size=cardinality // divisor + 1,
                max_size=cardinality // divisor + 1,
                unique=True,
            )
        )
        for divisor in divisors
    ]
    spec = DimensionSpec.of(
        f"D{index}", *(f"d{index}l{level}" for level in range(n_levels))
    )

    def members(code: int) -> list[str]:
        return [names[l][code // divisors[l]] for l in range(n_levels)]

    return spec, cardinality, members


@st.composite
def measure(draw, index: int, overflow: bool):
    """A spec and its raw values; with ``overflow`` some exceed int64."""
    scale = draw(st.sampled_from([1, 1, 100]))
    spec = MeasureSpec.of(f"v{index}", scale)
    bound = 10**19 if overflow else 10**15
    whole = st.integers(-bound, bound).map(str)
    if scale == 1:
        return spec, whole
    cents = st.tuples(st.integers(-9999, 9999), st.integers(0, 99)).map(
        lambda parts: f"{parts[0]}.{parts[1]:02d}"
    )
    small = st.integers(-(10**15), 10**15).map(str)
    return spec, st.one_of(small, cents, whole)


@st.composite
def csv_case(draw, ragged: bool = False):
    """A file's text, whether it starts with a BOM, the specs and a block
    size.  A ``ragged`` file has one row with a wrong field count and no
    other defect."""
    terminator = draw(st.sampled_from(["\n", "\r\n"]))
    quoting = draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]))
    names_of = member_text(terminator == "\r\n" or quoting == csv.QUOTE_ALL)
    dims = [
        draw(dimension(index, names_of))
        for index in range(draw(st.integers(1, 2)))
    ]
    measures = [
        draw(measure(index, overflow=not ragged))
        for index in range(draw(st.integers(1, 2)))
    ]
    header = [name for spec, _c, _m in dims for name in spec.levels]
    header += [spec.field_name for spec, _v in measures] + ["unused"]
    header = draw(st.permutations(header))
    rows = []
    for _ in range(draw(st.integers(0 if not ragged else 1, 30))):
        record = {"unused": draw(names_of)}
        for spec, cardinality, members in dims:
            code = draw(st.integers(0, cardinality - 1))
            record.update(zip(spec.levels, members(code)))
        for spec, values in measures:
            record[spec.field_name] = draw(values)
        rows.append([record[name] for name in header])
    if ragged:
        victim = draw(st.integers(0, len(rows) - 1))
        if draw(st.booleans()):
            rows[victim] = rows[victim][: draw(st.integers(1, len(header) - 1))]
        else:
            rows[victim] = rows[victim] + [draw(names_of)]
    out = io.StringIO(newline="")
    writer = csv.writer(out, lineterminator=terminator, quoting=quoting)
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
        if draw(st.integers(0, 5)) == 0:
            out.write(terminator * draw(st.integers(1, 2)))
    text = out.getvalue()
    if draw(st.booleans()):
        text = text[: -len(terminator)]
    bom = draw(st.booleans())
    return (
        text,
        bom,
        [spec for spec, _c, _m in dims],
        [spec for spec, _v in measures],
        draw(BLOCK_SIZES),
    )


def write(tmp_path, text: str, bom: bool):
    path = tmp_path / "facts.csv"
    path.write_bytes((b"\xef\xbb\xbf" if bom else b"") + text.encode("utf-8"))
    return path


def outcome(load):
    try:
        return load(), None
    except (KeyError, ValueError, OverflowError) as error:
        return None, (type(error), str(error))


@SETTINGS
@given(csv_case())
def test_load_csv_equals_load_records_over_dictreader(tmp_path, monkeypatch, case):
    text, bom, dimensions, measures, chunk_bytes = case
    path = write(tmp_path, text, bom)
    records = list(csv.DictReader(io.StringIO(text, newline="")))
    expected, expected_error = outcome(
        lambda: load_records(records, dimensions, measures)
    )
    monkeypatch.setattr(loader, "CHUNK_BYTES", chunk_bytes)
    got, error = outcome(lambda: load_csv(path, dimensions, measures))
    assert error == expected_error
    if expected is not None:
        assert_same_load(got, expected)


@SETTINGS
@given(csv_case(ragged=True))
def test_ragged_line_is_csv_readers_line_num(tmp_path, monkeypatch, case):
    text, bom, dimensions, measures, chunk_bytes = case
    path = write(tmp_path, text, bom)
    reader = csv.reader(io.StringIO(text, newline=""))
    width = len(next(reader))
    line = next(
        (reader.line_num, len(row))
        for row in reader
        if row and len(row) != width
    )
    monkeypatch.setattr(loader, "CHUNK_BYTES", chunk_bytes)
    with pytest.raises(
        ValueError,
        match=rf": line {line[0]} has {line[1]} fields, the header has {width}$",
    ):
        load_csv(path, dimensions, measures)
