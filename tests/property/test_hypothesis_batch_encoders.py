"""Property tests: the batch encoders the cube writer publishes through.

``narrow_encode_batch`` encodes a whole list of int64 arrays at once and
``encode_rowid_lists`` a whole list of row-id lists; ``V2Writer.add_arrays``
puts both into one container, whose digest ``publish`` returns.  Drawn
here: groups of 1-D and 2-D arrays whose column spans sit on every
``narrow`` width boundary (0, 255/256, 65,535/65,536, 2³²−1/2³² and
≥ 2⁶³), single rows and empty arrays among them; row-id lists that are
ascending, tied, negative, ≥ 2³², or dense enough for a Roaring bitmap.
Every payload must decode back to its array, every column must take the
narrowest width that holds its span, every list the smaller of ``delta``
and ``roaring`` under the rule ``encode_rowid_list`` documents, and the
published file must hash to the digest ``publish`` handed back.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from repro.relational.durable import file_checksum
from repro.storage2.codecs import (
    DELTA,
    NARROW_WIDTHS,
    ROARING,
    ROARING_ARRAY_LIMIT,
    delta_decode,
    delta_encode,
    encode_rowid_list,
    encode_rowid_lists,
    narrow_decode,
    narrow_encode_batch,
    roaring_decode,
    roaring_encode,
)
from repro.storage2.format import V2File, V2Writer
from repro.storage2.publish import publish

INT64 = np.iinfo(np.int64)
SPANS = [0, 1, 255, 256, 65535, 65536, 2**32 - 1, 2**32, 2**63, 2**64 - 1]


@st.composite
def columns(draw, rows: int):
    """``rows`` values with a span on a width boundary, based anywhere."""
    span = draw(st.sampled_from(SPANS))
    low = draw(st.integers(INT64.min, INT64.max - span))
    offsets = draw(
        st.lists(
            st.one_of(st.sampled_from([0, span]), st.integers(0, span)),
            min_size=rows,
            max_size=rows,
        )
    )
    return [low + offset for offset in offsets]


@st.composite
def int64_arrays(draw):
    """A 1-D or 2-D int64 array: single rows and no rows included."""
    rows = draw(st.sampled_from([0, 1, 1, 2, 3, 17]))
    if draw(st.booleans()):
        return np.asarray(draw(columns(rows)), dtype=np.int64)
    width = draw(st.integers(0, 4))
    matrix = np.empty((rows, width), dtype=np.int64)
    for j in range(width):
        matrix[:, j] = draw(columns(rows))
    return matrix


@st.composite
def rowid_lists(draw):
    """Ascending, tied, negative, ≥ 2^32, dense or empty lists."""
    kind = draw(
        st.sampled_from(["ascending", "tied", "negative", "high", "dense", "empty"])
    )
    if kind == "empty":
        return np.empty(0, dtype=np.int64)
    if kind == "dense":
        start = draw(st.integers(0, 1 << 20))
        count = draw(st.integers(ROARING_ARRAY_LIMIT - 2, ROARING_ARRAY_LIMIT + 40))
        return start + draw(st.sampled_from([1, 2])) * np.arange(count, dtype=np.int64)
    smallest = {"tied": 0, "ascending": 1, "negative": 1, "high": 1}[kind]
    gaps = draw(
        st.lists(
            st.one_of(st.integers(smallest, 8), st.integers(smallest, 1 << 18)),
            min_size=1,
            max_size=60,
        )
    )
    start = {
        "ascending": draw(st.integers(0, 1 << 20)),
        "tied": draw(st.integers(0, 1 << 20)),
        "negative": draw(st.integers(-(1 << 40), -1)),
        "high": draw(st.integers((1 << 32) - 300, 1 << 40)),
    }[kind]
    return start + np.cumsum(np.asarray([0] + gaps[1:], dtype=np.int64))


def narrowest(span: int) -> int:
    return min(w for w in NARROW_WIDTHS if w == 8 or span < (1 << (8 * w)))


@given(st.lists(int64_arrays(), min_size=1, max_size=8))
@settings(max_examples=150, deadline=None)
def test_narrow_batch_decodes_back_at_the_narrowest_widths(arrays):
    encoded = narrow_encode_batch(arrays)
    assert len(encoded) == len(arrays)
    for array, (payload, extra) in zip(arrays, encoded):
        gaps = dict(extra.get("gaps", []))
        decoded = narrow_decode(
            payload, extra["lows"], extra["widths"], array.shape, extra.get("gaps", [])
        )
        assert decoded.shape == array.shape
        assert np.array_equal(decoded, array)
        matrix = array.reshape(-1, 1) if array.ndim == 1 else array
        for j, (low, width) in enumerate(zip(extra["lows"], extra["widths"])):
            values = matrix[:, j].tolist()
            span = max(values) - min(values) if values else 0
            if j in gaps:  # a non-decreasing column, smaller as gaps
                assert values == sorted(values) and width == 0
                assert gaps[j] < len(values) * narrowest(span)
                assert low == values[0]
                continue
            assert width == narrowest(span)
            assert low == (0 if width == 8 else min(values, default=0))
        # Batching changes nothing: each array alone encodes the same.
        assert narrow_encode_batch([array]) == [(payload, extra)]


def chosen(values: np.ndarray) -> tuple[str, bytes]:
    """The documented rule, from the single-list encoders: roaring for a
    strictly ascending list in [0, 2^32) when it is strictly smaller."""
    delta = (DELTA, delta_encode(values))
    listed = values.tolist()
    eligible = (
        bool(listed)
        and all(a < b for a, b in zip(listed, listed[1:]))
        and 0 <= listed[0]
        and listed[-1] < (1 << 32)
    )
    if eligible:
        roaring = roaring_encode(values)
        if len(roaring) < len(delta[1]):
            return ROARING, roaring
    return delta


@given(st.lists(rowid_lists(), min_size=1, max_size=8))
@settings(max_examples=150, deadline=None)
def test_rowid_batch_takes_the_smaller_encoding_of_each_list(lists):
    encoded = encode_rowid_lists(lists)
    assert encoded == [chosen(values) for values in lists]
    assert encoded == [encode_rowid_list(values) for values in lists]
    for values, (codec, payload) in zip(lists, encoded):
        decoded = (
            roaring_decode(payload)
            if codec == ROARING
            else delta_decode(payload, len(values))
        )
        assert decoded.tolist() == values.tolist()


@given(
    st.lists(int64_arrays(), max_size=5),
    st.lists(rowid_lists().filter(len), max_size=4),
)
@settings(max_examples=60, deadline=None)
def test_published_digest_is_the_file_checksum(arrays, lists):
    sections = [(f"array/{i}", a) for i, a in enumerate(arrays)]
    sections += [(f"rowids/{i}", v) for i, v in enumerate(lists)]
    sections.append(("codes", np.asarray([3, 1, 2], dtype=np.int32)))
    writer = V2Writer({"note": "batch"})
    writer.add_arrays(sections, {name for name, _ in sections if "rowids" in name})
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "batch.cube.v2"
        digest = publish(path, writer)
        assert digest == file_checksum(path)
        file = V2File.open(path)
        assert file.verify_all() == []
        for name, array in sections:
            assert np.array_equal(file.array(name), array), name
            assert file.array(name).shape == array.shape, name
