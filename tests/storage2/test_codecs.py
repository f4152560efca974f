"""Property tests: every v2 codec is a bijection on its domain.

``encode ∘ decode ≡ id`` must hold on adversarial distributions — not
just uniform data but the shapes each codec is worst at: narrow columns
straddling every width boundary and the int64 extremes, single-bit
widths, 63-bit magnitudes, huge positive and negative deltas, dense and
sparse Roaring chunks straddling the 4096-member array/bitmap threshold,
and every empty/singleton degenerate.  Malformed payloads must raise
:class:`~repro.storage2.codecs.CodecError`, never decode to garbage.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
import hypothesis.strategies as st
from hypothesis import given, settings

from repro.storage2.codecs import (
    DELTA,
    NARROW_WIDTHS,
    ROARING,
    ROARING_ARRAY_LIMIT,
    CodecError,
    bitpack_decode,
    bitpack_encode,
    delta_decode,
    delta_encode,
    encode_rowid_list,
    min_bits,
    narrow_decode,
    narrow_encode,
    narrow_encode_batch,
    roaring_decode,
    roaring_encode,
)

# -- narrow ------------------------------------------------------------------

INT64 = np.iinfo(np.int64)


@st.composite
def narrow_columns(draw):
    """One column's values: a base anywhere in int64 plus offsets whose
    span sits on either side of a width boundary (or is the whole range)."""
    rows = draw(st.shared(st.integers(0, 40), key="rows"))
    span = draw(
        st.sampled_from(
            [0, 1, 255, 256, 65535, 65536, 2**32 - 1, 2**32, 2**63 - 1, 2**64 - 1]
        )
    )
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
def narrowable(draw):
    if draw(st.booleans()):
        return np.asarray(draw(narrow_columns()), dtype=np.int64)
    columns = draw(st.lists(narrow_columns(), min_size=0, max_size=5))
    rows = draw(st.shared(st.integers(0, 40), key="rows"))
    matrix = np.empty((rows, len(columns)), dtype=np.int64)
    for j, column in enumerate(columns):
        matrix[:, j] = column
    return matrix


def narrow_roundtrip(array):
    payload, extra = narrow_encode(array)
    decoded = narrow_decode(
        payload, extra["lows"], extra["widths"], array.shape, extra.get("gaps", [])
    )
    assert decoded.dtype == np.int64
    assert decoded.shape == array.shape
    assert decoded.flags.c_contiguous
    assert np.array_equal(decoded, array)
    return payload, extra


@given(narrowable())
@settings(max_examples=200, deadline=None)
def test_narrow_roundtrip(array):
    payload, extra = narrow_roundtrip(array)
    assert set(extra["widths"]) <= set(NARROW_WIDTHS)
    gap_bytes = sum(n for _j, n in extra.get("gaps", []))
    assert len(payload) == sum(extra["widths"]) * len(array) + gap_bytes
    assert len(payload) <= array.nbytes
    # A transposed (Fortran-ordered) view encodes to the same bytes.
    if array.ndim == 2:
        assert narrow_encode(np.asfortranarray(array)) == (payload, extra)


@pytest.mark.parametrize(
    "span, width",
    [(0, 0), (1, 1), (255, 1), (256, 2), (65535, 2), (65536, 4),
     (2**32 - 1, 4), (2**32, 8), (2**63, 8), (2**64 - 1, 8)],
)  # fmt: skip
def test_narrow_picks_the_narrowest_width(span, width):
    for low in (INT64.min, -7, 0, INT64.max - span):
        if not INT64.min <= low <= INT64.max - span:
            continue
        column = np.asarray([low, low + span, low], dtype=np.int64)
        payload, extra = narrow_roundtrip(column)
        assert extra["widths"] == [width]
        # Width 8 is the column verbatim: no base to subtract.
        assert extra["lows"] == [0 if width == 8 else low]
        assert len(payload) == 3 * width


def test_narrow_extremes_share_a_matrix_with_small_columns():
    matrix = np.asarray(
        [[INT64.min, 7, -3, 1000], [INT64.max, 7, 250, 1001], [0, 7, 0, 70000]],
        dtype=np.int64,
    )
    payload, extra = narrow_roundtrip(matrix)
    # The last column never falls: gaps 0, 1 and 68,999 take 1 + 1 + 3
    # bytes against 3 · 4 at its width.
    assert extra == {
        "lows": [0, 7, -3, 1000], "widths": [8, 0, 1, 0], "gaps": [[3, 5]]
    }
    assert len(payload) == 3 * (8 + 0 + 1) + 5


@st.composite
def rising_columns(draw):
    """A non-decreasing column: a base anywhere in int64 plus cumulative
    gaps of one to ten varint bytes, ties included; or a constant, empty
    or single-row column, or one spanning the whole int64 range."""
    kind = draw(st.sampled_from(["gaps", "constant", "empty", "single", "extremes"]))
    if kind == "empty":
        return []
    if kind == "single":
        return [draw(st.integers(INT64.min, INT64.max))]
    if kind == "constant":
        return [draw(st.integers(INT64.min, INT64.max))] * draw(st.integers(2, 40))
    if kind == "extremes":
        inner = draw(st.lists(st.integers(INT64.min, INT64.max), max_size=20))
        return sorted([INT64.min, INT64.max, *inner])
    gaps = draw(
        st.lists(
            st.one_of(
                st.integers(0, 127),
                st.integers(0, 1 << 20),
                st.sampled_from([(1 << (7 * k)) - 1 for k in range(1, 10)]),
            ),
            min_size=1,
            max_size=60,
        )
    )
    while sum(gaps) > INT64.max - INT64.min:  # the span must fit in 64 bits
        gaps.pop()
    low = draw(st.integers(INT64.min, INT64.max - sum(gaps)))
    return np.cumsum([low, *gaps], dtype=object).tolist()


def fixed_width(values) -> int:
    span = max(values) - min(values) if values else 0
    return min(w for w in NARROW_WIDTHS if w == 8 or span < (1 << (8 * w)))


def gap_length(values) -> int:
    gaps = [0, *(b - a for a, b in zip(values, values[1:]))]
    return sum(max(1, -(-gap.bit_length() // 7)) for gap in gaps)


@given(st.lists(rising_columns(), min_size=1, max_size=3), st.booleans())
@settings(max_examples=200, deadline=None)
def test_narrow_gap_columns_round_trip(columns, matrix):
    """A non-decreasing column is stored as LEB128 gaps exactly when
    those are strictly fewer bytes than its fixed width, and any column
    decodes back — in a matrix beside other columns, or alone."""
    rows = len(columns[0])
    # The other columns are cut or padded (with their last value) to the
    # first one's rows, so they stay non-decreasing.
    columns = [
        (column[:rows] + column[-1:] * rows)[:rows] if column else [0] * rows
        for column in columns
    ]
    array = np.asarray(columns, dtype=np.int64).reshape(len(columns), rows).T
    if not matrix:
        array = np.ascontiguousarray(array[:, 0])
    payload, extra = narrow_roundtrip(array)
    gaps = dict(extra.get("gaps", []))
    for j, column in enumerate(array.reshape(rows, -1).T.tolist() if rows else []):
        rising = all(a <= b for a, b in zip(column, column[1:]))
        width = fixed_width(column)
        if rising and rows and gap_length(column) < rows * width:
            assert gaps[j] == gap_length(column)
            assert extra["widths"][j] == 0 and extra["lows"][j] == column[0]
        else:
            assert j not in gaps and extra["widths"][j] == width
    assert narrow_encode_batch([array, array]) == [(payload, extra)] * 2


def test_narrow_malformed_gap_columns():
    """Truncated, overlong and over-counted gap bytes, and gap entries
    that do not name one width-0 column, raise ``CodecError``."""
    column = np.asarray([10, 10, 300, 70000, 70001], dtype=np.int64)
    payload, extra = narrow_encode(column)
    assert extra == {"lows": [10], "widths": [0], "gaps": [[0, 8]]}
    assert narrow_decode(payload, [10], [0], (5,), [[0, 8]]).tolist() == (
        column.tolist()
    )
    for data, shape, gaps in (
        (payload[:-1], (5,), [[0, 7]]),  # truncated: four varints
        (payload[:-1] + b"\x80", (5,), [[0, 8]]),  # ends mid-varint
        (payload + b"\x00", (5,), [[0, 9]]),  # over-counted: six varints
        (payload, (4,), [[0, 8]]),  # more varints than rows
        (b"\x80" * 9 + b"\x02" + payload[1:], (5,), [[0, 17]]),  # > 64 bits
        (b"\x80" * 11 + b"\x01" + payload[1:], (5,), [[0, 19]]),  # > 10 bytes
        (payload, (5,), [[0, 7]]),  # bytes disagree with the payload
        (payload, (5,), [[1, 8]]),  # no such column
        (payload, (5,), [[0, 8], [0, 8]]),  # one column twice
        (payload, (5,), [[0]]),  # not a pair
        (payload, (5,), [["0", 8]]),  # not integers
    ):
        with pytest.raises(CodecError):
            narrow_decode(data, [10], [0], shape, gaps)
    with pytest.raises(CodecError):  # a gap column with a width too
        narrow_decode(payload + bytes(5), [10], [1], (5,), [[0, 8]])


def test_narrow_degenerate_shapes():
    for shape in ((0,), (1,), (0, 3), (1, 3), (4, 0), (0, 0)):
        array = np.full(shape, 42, dtype=np.int64)
        payload, extra = narrow_roundtrip(array)
        assert payload == b""  # empty, or all constant columns
        assert len(extra["widths"]) == (1 if len(shape) == 1 else shape[1])
    with pytest.raises(CodecError):
        narrow_encode(np.zeros((2, 2, 2), dtype=np.int64))


def test_narrow_malformed_directories():
    payload, extra = narrow_encode(  # the second column falls: no gaps
        np.asarray([[1, 300], [2, 900], [3, 400]], dtype=np.int64)
    )
    lows, widths = extra["lows"], extra["widths"]
    assert widths == [1, 2] and len(payload) == 9
    for bad_lows, bad_widths, data, shape in (
        (lows, [2, 2], payload, (3, 2)),  # Σ widths · rows ≠ bytes
        (lows, [1, 3], payload, (3, 2)),  # 3 is not a width
        (lows, [1, 2], payload[:-1], (3, 2)),  # truncated payload
        (lows, [1, 2], payload, (4, 2)),  # more rows than bytes
        (lows, [1], payload, (3, 2)),  # a column without a width
        (lows[:1], [1, 2], payload, (3, 2)),  # a column without a low
        ([1, 2**63], [1, 2], payload, (3, 2)),  # a low outside int64
        (lows, [1, 2], payload, (3, 2, 1)),  # not a matrix
    ):
        with pytest.raises(CodecError):
            narrow_decode(data, bad_lows, bad_widths, shape)


# -- bitpack -----------------------------------------------------------------


@st.composite
def packable(draw):
    bits = draw(st.integers(1, 63))
    values = draw(
        st.lists(st.integers(0, (1 << bits) - 1), min_size=0, max_size=200)
    )
    return bits, np.asarray(values, dtype=np.int64)


@given(packable())
@settings(max_examples=120, deadline=None)
def test_bitpack_roundtrip(case):
    bits, values = case
    decoded = bitpack_decode(bitpack_encode(values, bits), bits, len(values))
    assert decoded.dtype == np.int64
    assert decoded.tolist() == values.tolist()


@pytest.mark.parametrize("bits", [1, 7, 8, 32, 63])
def test_bitpack_boundary_values(bits):
    values = np.asarray([0, (1 << bits) - 1, 0, 1], dtype=np.int64)
    decoded = bitpack_decode(bitpack_encode(values, bits), bits, len(values))
    assert decoded.tolist() == values.tolist()


#: The decoder's word and byte boundaries, and counts on either side of
#: a whole packed byte (the unpack tail).
BITPACK_WIDTHS = [1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63]
BITPACK_COUNTS = [1, 7, 8, 9, 24_001]


@pytest.mark.parametrize("count", BITPACK_COUNTS)
@pytest.mark.parametrize("bits", BITPACK_WIDTHS)
def test_bitpack_roundtrip_at_word_boundaries(bits, count):
    rng = np.random.default_rng(bits * 100_003 + count)
    values = rng.integers(0, 1 << bits, count, dtype=np.int64)
    values[:: max(1, count // 3)] = (1 << bits) - 1  # every bit set
    payload = bitpack_encode(values, bits)
    assert len(payload) == bits * ((count + 7) // 8)
    decoded = bitpack_decode(payload, bits, count)
    assert decoded.dtype == np.int64
    assert np.array_equal(decoded, values)


def test_bitpack_encode_peaks_below_34_bytes_a_value():
    """The planes are built one at a time in a uint8 buffer, not as a
    (bits × count) uint64 temporary (98 bytes a value at 10 bits)."""
    values = np.random.default_rng(5).integers(0, 1 << 10, 100_000, dtype=np.int64)
    tracemalloc.start()
    try:
        bitpack_encode(values, 10)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 34 * len(values)


def test_bitpack_rejects_misfit_and_bad_width():
    with pytest.raises(CodecError):
        bitpack_encode(np.asarray([4], dtype=np.int64), 2)
    with pytest.raises(CodecError):
        bitpack_encode(np.asarray([-1], dtype=np.int64), 8)
    with pytest.raises(CodecError):
        bitpack_encode(np.asarray([1], dtype=np.int64), 0)
    with pytest.raises(CodecError):
        bitpack_encode(np.asarray([1], dtype=np.int64), 64)
    with pytest.raises(CodecError):
        bitpack_decode(b"\x00\x00\x00", 8, 17)  # wrong payload size
    with pytest.raises(CodecError):
        bitpack_decode(b"\x01", 1, 0)  # payload for zero values


def test_min_bits():
    assert min_bits(np.asarray([], dtype=np.int64)) == 1
    assert min_bits(np.asarray([0], dtype=np.int64)) == 1
    assert min_bits(np.asarray([255], dtype=np.int64)) == 8
    assert min_bits(np.asarray([256], dtype=np.int64)) == 9
    with pytest.raises(CodecError):
        min_bits(np.asarray([-3], dtype=np.int64))


# -- delta varints -----------------------------------------------------------


int64s = st.integers(INT64.min, INT64.max)


@given(st.lists(int64s, min_size=0, max_size=200))
@settings(max_examples=120, deadline=None)
def test_delta_roundtrip_arbitrary_int64(values):
    array = np.asarray(values, dtype=np.int64)
    decoded = delta_decode(delta_encode(array), len(array))
    assert decoded.tolist() == values


@given(st.lists(st.integers(0, 1 << 40), min_size=1, max_size=200))
@settings(max_examples=60, deadline=None)
def test_delta_roundtrip_sorted_rowids(values):
    array = np.sort(np.asarray(values, dtype=np.int64))
    decoded = delta_decode(delta_encode(array), len(array))
    assert decoded.tolist() == array.tolist()


def test_delta_extremes():
    values = np.asarray(
        [0, 2**62, -(2**62), 1, -1, 2**62 - 1, INT64.max, INT64.min, INT64.max],
        dtype=np.int64,
    )
    assert delta_decode(delta_encode(values), len(values)).tolist() == (
        values.tolist()
    )


def test_delta_decodes_one_varint_of_every_length():
    """Zigzagged deltas of 7k bits for k = 1..10, so every limb pass of
    the decoder runs, the tenth on a varint that holds bit 63."""
    zigzagged = [(1 << (7 * k)) - 1 for k in range(1, 10)] + [(1 << 64) - 1]
    deltas = [z >> 1 if z % 2 == 0 else -(z >> 1) - 1 for z in zigzagged]
    values = np.cumsum(np.asarray(deltas, dtype=np.int64), dtype=np.int64)
    payload = delta_encode(values)
    assert len(payload) == sum(range(1, 11))
    assert delta_decode(payload, len(values)).tolist() == values.tolist()


def test_delta_malformed_payloads():
    payload = delta_encode(np.asarray([5, 9, 200], dtype=np.int64))
    with pytest.raises(CodecError):
        delta_decode(payload, 2)  # wrong count
    with pytest.raises(CodecError):
        delta_decode(payload + b"\x80", 3)  # trailing continuation byte
    with pytest.raises(CodecError):
        delta_decode(b"\x80" * 11 + b"\x01", 1)  # varint over 10 bytes
    with pytest.raises(CodecError):
        delta_decode(b"\x80" * 9 + b"\x02", 1)  # tenth byte past bit 63
    assert delta_decode(b"\x80" * 9 + b"\x01", 1).tolist() == [2**62]
    with pytest.raises(CodecError):
        delta_decode(b"", 3)
    with pytest.raises(CodecError):
        delta_decode(b"\x01", 0)


# -- Roaring containers ------------------------------------------------------


@st.composite
def ascending_rowids(draw):
    # Gaps skewed tiny so many values share one 2^16 chunk, with an
    # occasional huge gap to force several containers.
    gaps = draw(
        st.lists(
            st.one_of(
                st.integers(1, 8),
                st.integers(1, 1 << 18),
            ),
            min_size=0,
            max_size=300,
        )
    )
    return np.cumsum(np.asarray([0] + gaps, dtype=np.int64))[1:] if gaps else (
        np.empty(0, dtype=np.int64)
    )


@given(ascending_rowids())
@settings(max_examples=100, deadline=None)
def test_roaring_roundtrip(values):
    decoded = roaring_decode(roaring_encode(values))
    assert decoded.tolist() == values.tolist()


def test_roaring_dense_container_uses_bitmap():
    # > 4096 members inside one 2^16 chunk flips to the bitmap layout.
    values = np.arange(ROARING_ARRAY_LIMIT + 100, dtype=np.int64) * 2
    payload = roaring_encode(values)
    assert len(payload) < 8 * len(values)
    assert roaring_decode(payload).tolist() == values.tolist()


def test_roaring_sparse_vs_dense_boundary():
    for count in (ROARING_ARRAY_LIMIT, ROARING_ARRAY_LIMIT + 1):
        values = np.arange(count, dtype=np.int64)
        assert roaring_decode(roaring_encode(values)).tolist() == (
            values.tolist()
        )


def test_roaring_rejects_bad_inputs():
    with pytest.raises(CodecError):
        roaring_encode(np.asarray([-1], dtype=np.int64))
    with pytest.raises(CodecError):
        roaring_encode(np.asarray([1 << 32], dtype=np.int64))
    with pytest.raises(CodecError):
        roaring_encode(np.asarray([3, 3], dtype=np.int64))  # not strict
    with pytest.raises(CodecError):
        roaring_encode(np.asarray([5, 2], dtype=np.int64))  # descending


def test_roaring_rejects_malformed_payloads():
    good = roaring_encode(np.asarray([1, 2, 70000], dtype=np.int64))
    with pytest.raises(CodecError):
        roaring_decode(good[:-1])  # truncated container
    with pytest.raises(CodecError):
        roaring_decode(good + b"\x00")  # trailing bytes
    with pytest.raises(CodecError):
        roaring_decode(b"\x00")  # shorter than the count header


# -- the publish-time choice rule --------------------------------------------


@given(ascending_rowids())
@settings(max_examples=60, deadline=None)
def test_rowid_list_choice_roundtrips_and_is_minimal(values):
    codec, payload = encode_rowid_list(values)
    decoded = (
        roaring_decode(payload)
        if codec == ROARING
        else delta_decode(payload, len(values))
    )
    assert decoded.tolist() == values.tolist()
    # The rule picks the smaller encoding (ties go to delta).
    other = (
        delta_encode(values)
        if codec == ROARING
        else (roaring_encode(values) if len(values) else payload)
    )
    assert len(payload) <= len(other)


def test_rowid_list_choice_handles_unsorted_and_negative():
    for values in ([5, 2, 9], [-4, 10], [7, 7, 7]):
        array = np.asarray(values, dtype=np.int64)
        codec, payload = encode_rowid_list(array)
        assert codec == DELTA
        assert delta_decode(payload, len(array)).tolist() == values


@st.composite
def rowid_lists(draw):
    """Sorted, unsorted, empty, single-value and dense lists, some of them
    outside roaring's domain (negative, repeated, ≥ 2^32)."""
    kind = draw(st.sampled_from(["sorted", "unsorted", "empty", "single", "dense"]))
    if kind == "sorted":
        return draw(ascending_rowids())
    if kind == "unsorted":
        values = draw(st.lists(st.integers(-(1 << 33), 1 << 33), max_size=60))
        return np.asarray(values, dtype=np.int64)
    if kind == "empty":
        return np.empty(0, dtype=np.int64)
    if kind == "single":
        return np.asarray([draw(st.integers(-(1 << 40), 1 << 40))], dtype=np.int64)
    # Dense: one or two 2^16 chunks, each side of the array/bitmap limit.
    start = draw(st.integers(0, 1 << 20))
    count = draw(st.integers(ROARING_ARRAY_LIMIT - 2, ROARING_ARRAY_LIMIT + 300))
    step = draw(st.sampled_from([1, 2, 3, 16]))
    return start + step * np.arange(count, dtype=np.int64)


def _roaring_or_none(values: np.ndarray) -> bytes | None:
    try:
        return roaring_encode(values)
    except CodecError:
        return None


@given(rowid_lists())
@settings(max_examples=80, deadline=None)
def test_rowid_list_choice_is_the_smaller_encoder_output(values):
    """The sizes are computed, not encoded, before the choice: the output
    must still be exactly the smaller encoder's payload, ties to delta."""
    delta = (DELTA, delta_encode(values))
    roaring = _roaring_or_none(values) if len(values) else None
    expected = (
        (ROARING, roaring)
        if roaring is not None and len(roaring) < len(delta[1])
        else delta
    )
    assert encode_rowid_list(values) == expected
