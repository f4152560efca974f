"""The v2 format's section codecs: narrow, bit-pack, delta varint, Roaring.

Every codec here is a pure ``bytes ↔ numpy array`` transform with a
vectorized decode path — no Python-level loop ever touches an individual
value, because decoding happens on the serving cold-start path the v2
format exists to make instant.

* **raw** — the array's little-endian bytes verbatim.  The only codec a
  reader never decodes: a raw section is handed back as a zero-copy
  ``np.memmap`` view.  What is left for it is what ``narrow`` does not
  shrink (non-int64 dtypes, full-range int64 columns) and containers
  written before ``narrow`` existed.
* **narrow** — frame of reference, byte-aligned: an int64 matrix stored
  column-major, each column as unsigned offsets from its minimum in the
  narrowest of 0 / 1 / 2 / 4 / 8 bytes that holds ``max − min`` (the
  same point Brisaboa et al. make for codes, applied to the cube
  relations: a row-id below 2¹⁵ does not need a machine word).  Decoding
  is one widening add per column — hashing the narrow bytes and widening
  them costs less than hashing the raw bytes did — where a bit-exact
  pack would put ``bitpack_decode``'s per-plane loop on the request path.
  A non-decreasing column (a CURE+ relation's R-rowids) is stored
  instead as LEB128 gaps from its minimum whenever those bytes are
  strictly fewer than its fixed width's: a *gap column*, decoded by the
  varint limb loop and one cumulative sum.
* **bitpack** — non-negative integers stored as ``bits`` bit-planes,
  each plane packed with ``np.packbits`` and read back eight planes to
  a byte of the narrowest word that holds ``bits`` ("Efficient
  Representation of Multidimensional Data over Hierarchical Domains":
  dimension codes need ``⌈log2 cardinality⌉`` bits, not 32).
* **delta** — zigzag-encoded deltas as LEB128 varints.  Sorted row-id
  lists (CURE+ TTs) become streams of tiny positive gaps; the decode
  gathers one 7-bit limb position per pass, over only the varints that
  reach it, with the varint terminator bytes (high bit clear) marking
  where each ends.
* **roaring** — the Roaring partitioning: values split by their high 16
  bits into per-chunk containers, each stored as a sorted ``uint16``
  array (sparse) or a 8 KiB bitmap (dense, > 4096 members).

``encode_rowid_list`` applies the deterministic publish-time choice rule
between ``delta`` and ``roaring`` for sorted row-id lists;
``encode_rowid_lists`` applies it to many lists in one pass, as
``narrow_encode_batch`` narrows many arrays.
"""

from __future__ import annotations

import struct
from collections.abc import Sequence
from typing import Any

import numpy as np

#: Container cardinality above which a Roaring chunk switches from a
#: sorted uint16 array to a fixed 8 KiB bitmap (the classic threshold:
#: 4096 × 2 bytes = 8192 bytes, the bitmap's size).
ROARING_ARRAY_LIMIT = 4096
_ROARING_CONTAINER = struct.Struct("<IBI")
_ROARING_ARRAY, _ROARING_BITMAP = 0, 1
#: Longest legal varint for a 64-bit value: ⌈64 / 7⌉ bytes.
_VARINT_MAX_BYTES = 10
#: A value of at least ``_VARINT_LIMITS[k]`` needs more than ``k + 1``
#: varint bytes.
_VARINT_LIMITS = np.array(
    [1 << (7 * k) for k in range(1, _VARINT_MAX_BYTES)], dtype=np.uint64
)

RAW = "raw"
NARROW = "narrow"
BITPACK = "bitpack"
DELTA = "delta"
ROARING = "roaring"


class CodecError(ValueError):
    """A payload does not decode under the codec that claims it."""


# -- frame-of-reference narrowing ------------------------------------------------

#: Bytes a ``narrow`` column may occupy per value.  0 is a constant
#: column (nothing stored); 8 is the column verbatim, with no subtraction,
#: so a span of 2^63 or more cannot overflow.
NARROW_WIDTHS = (0, 1, 2, 4, 8)


#: ``_NARROW_WIDTHS[k]`` is the width of a span with ``k`` of these
#: limits at or below it.
_WIDTH_LIMITS = np.array([1, 1 << 8, 1 << 16, 1 << 32], dtype=np.uint64)
_NARROW_WIDTHS = np.array(NARROW_WIDTHS, dtype=np.int64)


#: A ``narrow`` section's ``extra``: ``lows`` and ``widths`` per column,
#: and ``gaps`` when some column is a gap column.
NarrowExtra = dict[str, list[Any]]


def narrow_encode(array: np.ndarray) -> tuple[bytes, NarrowExtra]:
    """Encode a 1-D or 2-D int64 array; returns ``(payload, extra)``.

    ``extra`` is ``{"lows": […], "widths": […]}``, one entry per column
    (a 1-D array is one column): column ``j`` is ``rows`` little-endian
    unsigned ``widths[j]``-byte offsets from ``lows[j]``, the columns
    concatenated in order.  Width-8 columns are stored as they are and
    record a low of 0.  A non-decreasing column whose LEB128 gaps from
    its low (the first gap is 0) take strictly fewer bytes than its
    width is stored as those gaps instead: its width is recorded as 0,
    its low is its minimum, and ``extra["gaps"]`` lists ``[j, bytes]``
    for each such column (the key is absent when there is none).  The
    one-array case of :func:`narrow_encode_batch`.
    """
    return narrow_encode_batch([array])[0]


def narrow_encode_batch(
    arrays: Sequence[np.ndarray],
) -> list[tuple[bytes, NarrowExtra]]:
    """:func:`narrow_encode` of every array, in a few array passes.

    Arrays with rows and columns are grouped by column count, and a
    group is encoded one column at a time (so the temporaries are one
    column of the group, not the group): the column concatenated across
    the group's arrays, each array's low and high by ``reduceat``, the
    widths looked up at once, the gap columns picked and written at
    once (:func:`_gap_payloads`), the lows subtracted through one
    ``repeat``, and one cast per width that occurs.  Each array's
    payload is then its columns' byte slices of those casts and gaps.
    """
    matrices = []
    for array in arrays:
        a = np.asarray(array, dtype=np.int64)
        if a.ndim not in (1, 2):
            raise CodecError(f"narrow takes 1-D or 2-D arrays, got {a.ndim}-D")
        matrices.append(a.reshape(-1, 1) if a.ndim == 1 else a)
    # An array with no values stores nothing; the rest are filled in by
    # group below.
    encoded: list[tuple[bytes, NarrowExtra]] = [
        (b"", {"lows": [0] * m.shape[1], "widths": [0] * m.shape[1]})
        for m in matrices
    ]
    groups: dict[int, list[int]] = {}
    for index, m in enumerate(matrices):
        if m.size:
            groups.setdefault(m.shape[1], []).append(index)
    for n_columns, members in groups.items():
        group = [matrices[index] for index in members]
        lengths = np.fromiter(map(len, group), dtype=np.int64, count=len(group))
        starts = np.cumsum(lengths) - lengths
        bounds = list(zip(starts.tolist(), (starts + lengths).tolist()))
        lows = np.empty((n_columns, len(group)), dtype=np.int64)
        widths = np.empty((n_columns, len(group)), dtype=np.int64)
        parts: list[list[bytes]] = [[] for _ in group]
        gapped: list[list[list[int]]] = [[] for _ in group]
        column = np.empty(int(starts[-1] + lengths[-1]), dtype=np.int64)
        for j in range(n_columns):
            np.concatenate([m[:, j] for m in group], out=column)
            low, width = lows[j], widths[j]
            np.minimum.reduceat(column, starts, out=low)
            span = np.maximum.reduceat(column, starts).view(np.uint64)
            span -= low.view(np.uint64)
            np.take(_NARROW_WIDTHS, np.searchsorted(_WIDTH_LIMITS, span, "right"), out=width)
            gaps = _gap_payloads(column, starts, lengths, width)
            width[list(gaps)] = 0  # a gap column keeps its low
            low[width == 8] = 0  # stored verbatim: nothing to subtract
            column -= np.repeat(low, lengths)
            stored: dict[int, bytes] = {}
            for k, w in enumerate(width.tolist()):
                if w:
                    data = stored.get(w)
                    if data is None:
                        data = stored[w] = column.astype(
                            f"<u{w}" if w < 8 else "<i8", copy=False
                        ).tobytes()
                    start, stop = bounds[k]
                    parts[k].append(data[start * w : stop * w])
                elif k in gaps:
                    parts[k].append(gaps[k])
                    gapped[k].append([j, len(gaps[k])])
        for index, part, gap, low, width in zip(
            members, parts, gapped, lows.T.tolist(), widths.T.tolist()
        ):
            extra: NarrowExtra = {"lows": low, "widths": width}
            if gap:
                extra["gaps"] = gap
            encoded[index] = (b"".join(part), extra)
            part.clear()
    return encoded


def _gap_payloads(
    column: np.ndarray, starts: np.ndarray, lengths: np.ndarray, widths: np.ndarray
) -> dict[int, bytes]:
    """The arrays of a column group stored as gap columns, and their bytes.

    ``column`` is the group's column, array after array (array ``k`` is
    ``lengths[k]`` values from ``starts[k]``), ``widths`` their fixed
    widths.  An array qualifies when its stretch never falls and its
    LEB128 gaps (0 first, then each value less the one before, taken
    modulo 2⁶⁴ so any int64 span fits) are strictly fewer bytes than
    ``lengths[k] · widths[k]`` — so only above width 1, a gap being a
    byte at least.  The gaps' sizes come per array without encoding, as
    :func:`encode_rowid_lists` sizes its lists, and one varint pass
    writes the chosen arrays' gaps.
    """
    candidates = widths >= 2
    if not candidates.any():
        return {}
    falls = np.empty(len(column), dtype=np.bool_)
    np.less(column[1:], column[:-1], out=falls[1:])
    falls[starts] = False
    candidates &= ~np.logical_or.reduceat(falls, starts)
    if not candidates.any():
        return {}
    picked = np.flatnonzero(candidates)
    values, starts, lengths = _stretches(column.view(np.uint64), starts, lengths, picked)
    gaps = np.empty(len(values), dtype=np.uint64)
    np.subtract(values[1:], values[:-1], out=gaps[1:])
    gaps[starts] = 0
    # An array's gap bytes: one a value, plus the rest of its few
    # longer varints.
    longer = np.flatnonzero(gaps > 0x7F)
    owners = np.searchsorted(starts, longer, side="right") - 1
    rest = np.searchsorted(_VARINT_LIMITS, gaps[longer], side="right")
    sizes = lengths + np.bincount(
        owners, weights=rest, minlength=len(starts)
    ).astype(np.int64)
    smaller = np.flatnonzero(sizes < lengths * widths[picked])
    if not len(smaller):
        return {}
    if len(smaller) == len(picked):
        data = _varint_bytes(gaps, longer)[0].tobytes()
    else:
        data = _varint_bytes(_stretches(gaps, starts, lengths, smaller)[0])[0].tobytes()
    ends = np.cumsum(sizes[smaller]).tolist()
    return {
        k: data[ends[i - 1] if i else 0 : ends[i]]
        for i, k in enumerate(picked[smaller].tolist())
    }


def _stretches(
    values: np.ndarray, starts: np.ndarray, lengths: np.ndarray, picked: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``picked`` arrays' stretches of ``values`` (array ``k`` is
    ``lengths[k]`` values from ``starts[k]``), back to back, with their
    starts and lengths there: ``values`` itself when every array is
    picked, else one concatenation of slices."""
    if len(picked) == len(starts):
        return values, starts, lengths
    lengths = lengths[picked]
    bounds = zip(starts[picked].tolist(), (starts[picked] + lengths).tolist())
    values = np.concatenate([values[start:stop] for start, stop in bounds])
    return values, np.cumsum(lengths) - lengths, lengths


def narrow_decode(
    data: bytes | np.ndarray,
    lows: list[int],
    widths: list[int],
    shape: tuple[int, ...],
    gaps: Sequence[Sequence[int]] = (),
) -> np.ndarray:
    """Inverse of :func:`narrow_encode`: a C-contiguous int64 array of
    ``shape``, widened in one pass per column; ``gaps`` is the encoder's
    ``extra.get("gaps", [])``.  A gap column's varints decode as the
    delta codec's do (:func:`_varints`) and sum back onto its low."""
    if len(shape) not in (1, 2):
        raise CodecError(f"narrow takes 1-D or 2-D shapes, got {shape}")
    rows = shape[0]
    n_columns = 1 if len(shape) == 1 else shape[1]
    if len(lows) != n_columns or len(widths) != n_columns:
        raise CodecError(
            f"narrow directory describes {len(widths)} widths and "
            f"{len(lows)} lows for {n_columns} columns"
        )
    if any(width not in NARROW_WIDTHS for width in widths):
        raise CodecError(f"narrow widths {widths} are not all in {NARROW_WIDTHS}")
    gap_bytes: dict[int, int] = {}
    if not isinstance(gaps, (list, tuple)):
        raise CodecError(f"narrow gaps {gaps!r} are not a list of pairs")
    for gap in gaps:
        if (
            not isinstance(gap, (list, tuple))
            or len(gap) != 2
            or any(type(value) is not int for value in gap)
            or not 0 <= gap[0] < n_columns
            or gap[0] in gap_bytes
            or widths[gap[0]]
            or gap[1] < 0
        ):
            raise CodecError(
                f"narrow gaps {list(gaps)} are not [column, bytes] pairs of "
                f"distinct width-0 columns among {n_columns}"
            )
        gap_bytes[gap[0]] = gap[1]
    expected = sum(widths) * rows + sum(gap_bytes.values())
    if expected != len(data):
        raise CodecError(
            f"narrow payload holds {len(data)} bytes, expected "
            f"{expected} for {rows} rows of widths {widths} and gaps {list(gaps)}"
        )
    try:
        bases = np.asarray(lows, dtype=np.int64).reshape(n_columns)
    except (OverflowError, TypeError, ValueError) as error:
        raise CodecError(f"narrow lows are not int64 values: {error}") from error
    out = np.empty((rows, n_columns), dtype=np.int64)
    if rows == 0:
        return out.reshape(shape)
    offset = 0
    for j, width in enumerate(widths):
        if j in gap_bytes:
            raw = np.frombuffer(data, dtype=np.uint8, count=gap_bytes[j], offset=offset)
            # Summed modulo 2⁶⁴ straight into the column, then based: the
            # wrapping int64 add is exact for any int64 span.
            column = out[:, j]
            np.cumsum(_varints(raw, rows, "narrow gap"), out=column.view(np.uint64))
            column += bases[j]
            offset += gap_bytes[j]
            continue
        if width == 0:
            out[:, j] = bases[j]
            continue
        stored = np.frombuffer(
            data,
            dtype="<i8" if width == 8 else f"<u{width}",
            count=rows,
            offset=offset,
        )
        np.add(stored, bases[j], out=out[:, j])
        offset += width * rows
    return out.reshape(shape)


# -- bit packing ---------------------------------------------------------------


def min_bits(values: np.ndarray) -> int:
    """Bits needed for the largest value (at least 1; values must be >= 0)."""
    if len(values) == 0:
        return 1
    low, high = int(values.min()), int(values.max())
    if low < 0:
        raise CodecError("bitpack requires non-negative values")
    return max(1, high.bit_length())


def _word_bytes(bits: int) -> int:
    """Bytes of the narrowest unsigned word (1, 2, 4 or 8) holding ``bits``."""
    return next(width for width in (1, 2, 4, 8) if bits <= 8 * width)


def bitpack_encode(values: np.ndarray, bits: int) -> bytes:
    """Pack non-negative integers into ``bits`` little-endian bit-planes:
    plane ``b`` is bit ``b % 8`` of byte ``b // 8`` of each value's
    narrowest word, written one plane at a time into a uint8 buffer."""
    if not 1 <= bits <= 63:
        raise CodecError(f"bitpack width must be in [1, 63], got {bits}")
    v = np.asarray(values, dtype=np.int64)
    if len(v) == 0:
        return b""
    if int(v.min()) < 0 or int(v.max()) >= (1 << bits):
        raise CodecError(f"values do not fit in {bits} bits")
    width = _word_bytes(bits)
    octets = v.astype(f"<u{width}").view(np.uint8).reshape(len(v), width)
    planes = np.empty((bits, len(v)), dtype=np.uint8)
    for low in range(0, bits, 8):
        byte = np.ascontiguousarray(octets[:, low // 8])
        for b in range(low, min(low + 8, bits)):
            np.right_shift(byte, b - low, out=planes[b])
            planes[b] &= 1
    return np.packbits(planes, axis=1, bitorder="little").tobytes()


def bitpack_decode(data: bytes, bits: int, count: int) -> np.ndarray:
    """Inverse of :func:`bitpack_encode`; returns an int64 array.

    Eight planes fold into each byte of the narrowest word that holds
    ``bits`` (by multiplying by ``2**k``: numpy vectorizes a uint8
    multiply, not a uint8 shift), which widens to int64 once.
    """
    if not 1 <= bits <= 63:
        raise CodecError(f"bitpack width must be in [1, 63], got {bits}")
    if count == 0:
        if data:
            raise CodecError("bitpack payload for zero values must be empty")
        return np.empty(0, dtype=np.int64)
    stride = (count + 7) // 8
    raw = np.frombuffer(data, dtype=np.uint8)
    if len(raw) != bits * stride:
        raise CodecError(
            f"bitpack payload holds {len(raw)} bytes, "
            f"expected {bits * stride} for {count} x {bits}-bit values"
        )
    planes = np.unpackbits(
        raw.reshape(bits, stride), axis=1, count=count, bitorder="little"
    )
    width = _word_bytes(bits)
    octets = np.zeros((count, width), dtype=np.uint8)
    for low in range(0, bits, 8):
        byte = planes[low]
        for b in range(low + 1, min(low + 8, bits)):
            np.multiply(planes[b], np.uint8(1 << (b - low)), out=planes[b])
            byte |= planes[b]
        octets[:, low // 8] = byte
    return octets.view(f"<u{width}").reshape(count).astype(np.int64)


# -- zigzag delta varints ------------------------------------------------------


def _zigzag(values: np.ndarray) -> np.ndarray:
    """Map signed int64 to uint64 so small magnitudes stay small
    (in place: ``values`` becomes the result's int64 view)."""
    negative = values < 0
    values <<= 1
    np.invert(values, out=values, where=negative)
    return values.view(np.uint64)


def _unzigzag(values: np.ndarray) -> np.ndarray:
    return (
        (values >> np.uint64(1)) ^ (np.uint64(0) - (values & np.uint64(1)))
    ).astype(np.int64)


def _deltas(v: np.ndarray, starts: np.ndarray | None = None) -> np.ndarray:
    """Successive differences of a non-empty int64 array, the first value
    kept; at each index of ``starts`` (a list's first value in a
    concatenation of lists) the value is kept too."""
    deltas = np.empty(len(v), dtype=np.int64)
    deltas[0] = v[0]
    np.subtract(v[1:], v[:-1], out=deltas[1:])
    if starts is not None:
        deltas[starts] = v[starts]
    return deltas


def _varint_bytes(
    z: np.ndarray, longer: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The LEB128 varints of ``z`` back to back, as a uint8 array, with
    the index and byte count of each varint longer than one byte
    (``longer``, the indices of ``z`` above 127, when the caller has
    them).

    Every first byte is written at once; the further bytes of the few
    longer varints (a sorted list's deltas are mostly below 128) are
    built as one small matrix and inserted after their first bytes.
    """
    out = z.astype(np.uint8)
    out &= 0x7F
    if longer is None:
        longer = np.flatnonzero(z > 0x7F)
    if not len(longer):
        return out, longer, longer
    wide = z[longer]
    lengths = 1 + np.searchsorted(_VARINT_LIMITS, wide, side="right")
    out[longer] |= 0x80
    k = np.arange(1, int(lengths.max()), dtype=np.uint64)
    limbs = ((wide[:, None] >> (7 * k)) & np.uint64(0x7F)).astype(np.uint8)
    limbs[lengths[:, None] > k + 1] |= 0x80
    further = limbs[lengths[:, None] > k]
    return np.insert(out, np.repeat(longer + 1, lengths - 1), further), longer, lengths


def delta_encode(values: np.ndarray) -> bytes:
    """First value plus successive deltas, zigzagged, as LEB128 varints."""
    v = np.asarray(values, dtype=np.int64)
    if len(v) == 0:
        return b""
    return _varint_bytes(_zigzag(_deltas(v)))[0].tobytes()


def delta_decode(data: bytes, count: int) -> np.ndarray:
    """Inverse of :func:`delta_encode`; returns an int64 array: the
    varints (:func:`_varints`) unzigzag and cumsum back."""
    return np.cumsum(
        _unzigzag(_varints(np.frombuffer(data, dtype=np.uint8), count, "delta")),
        dtype=np.int64,
    )


def _varints(raw: np.ndarray, count: int, codec: str) -> np.ndarray:
    """The ``count`` LEB128 varints filling ``raw``, as uint64.

    ``count`` bytes are ``count`` one-byte varints when no high bit is
    set: one widening cast.  Otherwise terminator bytes (high bit clear)
    end the varints; every varint's first 7-bit limb is gathered at
    once, then each pass ORs in the next limb of only the varints that
    continue: as many passes as the longest varint has bytes.  Anything
    but exactly ``count`` varints of at most 64 bits is a
    :class:`CodecError` naming ``codec``.
    """
    if count == 0:
        if len(raw):
            raise CodecError(f"{codec} payload for zero values must be empty")
        return np.empty(0, dtype=np.uint64)
    if len(raw) == 0:
        raise CodecError(f"empty {codec} payload for {count} values")
    if len(raw) == count and int(raw.max()) < 0x80:
        return raw.astype(np.uint64)
    ends = np.flatnonzero(raw < 0x80)
    if len(ends) != count:
        raise CodecError(
            f"{codec} payload holds {len(ends)} varints, expected {count}"
        )
    if int(ends[-1]) != len(raw) - 1:
        raise CodecError(f"trailing continuation bytes in {codec} payload")
    starts = np.empty(count, dtype=np.int64)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    z = (raw[starts] & 0x7F).astype(np.uint64)
    live = np.flatnonzero(ends > starts)
    at, shift = starts[live], 0
    while len(live):
        at += 1
        shift += 7
        limb = raw[at]
        if shift == 63 and int(limb.max()) > 1:  # the tenth byte; no eleventh
            raise CodecError(f"varint longer than 64 bits in {codec} payload")
        z[live] |= (limb & 0x7F).astype(np.uint64) << np.uint64(shift)
        more = limb >= 0x80
        live, at = live[more], at[more]
    return z


# -- Roaring-style containers --------------------------------------------------


def roaring_encode(values: np.ndarray) -> bytes:
    """Encode a strictly-ascending list of row-ids in ``[0, 2^32)``."""
    v = np.asarray(values, dtype=np.int64)
    if len(v):
        if int(v.min()) < 0 or int(v.max()) >= (1 << 32):
            raise CodecError("roaring values must lie in [0, 2^32)")
        if len(v) > 1 and int(np.diff(v).min()) <= 0:
            raise CodecError("roaring values must be strictly ascending")
    u = v.astype(np.uint64)
    highs = (u >> np.uint64(16)).astype(np.uint32)
    lows = (u & np.uint64(0xFFFF)).astype(np.uint16)
    boundaries = np.flatnonzero(np.diff(highs)) + 1
    starts = np.concatenate(
        (np.zeros(1 if len(v) else 0, dtype=np.int64), boundaries)
    )
    stops = np.concatenate((boundaries, np.asarray([len(v)])[: len(starts)]))
    parts: list[bytes] = [struct.pack("<I", len(starts))]
    for start, stop in zip(starts.tolist(), stops.tolist()):
        key = int(highs[start])
        chunk = lows[start:stop]
        if len(chunk) > ROARING_ARRAY_LIMIT:
            bits = np.zeros(1 << 16, dtype=np.uint8)
            bits[chunk] = 1
            payload = np.packbits(bits, bitorder="little").tobytes()
            kind = _ROARING_BITMAP
        else:
            payload = chunk.astype("<u2").tobytes()
            kind = _ROARING_ARRAY
        parts.append(_ROARING_CONTAINER.pack(key, kind, len(chunk)))
        parts.append(payload)
    return b"".join(parts)


def roaring_decode(data: bytes) -> np.ndarray:
    """Inverse of :func:`roaring_encode`; returns an ascending int64 array."""
    if len(data) < 4:
        raise CodecError("roaring payload shorter than its container count")
    (n_containers,) = struct.unpack_from("<I", data, 0)
    offset = 4
    pieces: list[np.ndarray] = []
    previous_key = -1
    for _ in range(n_containers):
        if offset + _ROARING_CONTAINER.size > len(data):
            raise CodecError("truncated roaring container header")
        key, kind, cardinality = _ROARING_CONTAINER.unpack_from(data, offset)
        offset += _ROARING_CONTAINER.size
        if key <= previous_key:
            raise CodecError("roaring container keys must ascend")
        previous_key = key
        if kind == _ROARING_BITMAP:
            size = 1 << 13
            if offset + size > len(data):
                raise CodecError("truncated roaring bitmap container")
            bits = np.frombuffer(data, dtype=np.uint8, count=size, offset=offset)
            lows = np.flatnonzero(np.unpackbits(bits, bitorder="little"))
            if len(lows) != cardinality:
                raise CodecError("roaring bitmap cardinality mismatch")
        elif kind == _ROARING_ARRAY:
            size = 2 * cardinality
            if offset + size > len(data):
                raise CodecError("truncated roaring array container")
            lows = np.frombuffer(
                data, dtype="<u2", count=cardinality, offset=offset
            ).astype(np.int64)
        else:
            raise CodecError(f"unknown roaring container kind {kind}")
        offset += size
        pieces.append((np.int64(key) << np.int64(16)) | lows.astype(np.int64))
    if offset != len(data):
        raise CodecError("trailing bytes after the last roaring container")
    if not pieces:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(pieces)


# -- the publish-time row-id list choice rule ----------------------------------


def encode_rowid_list(values: np.ndarray) -> tuple[str, bytes]:
    """Pick the smaller of ``delta`` / ``roaring`` for a row-id list.

    Roaring is only eligible for strictly-ascending lists within
    ``[0, 2^32)`` (CURE+ sorted TT lists); ties and everything else go to
    ``delta``, which handles arbitrary int64 sequences.  The rule is a
    pure function of the list, so republishing is deterministic.  The
    one-list case of :func:`encode_rowid_lists`.
    """
    return encode_rowid_lists([values])[0]


def encode_rowid_lists(lists: Sequence[np.ndarray]) -> list[tuple[str, bytes]]:
    """:func:`encode_rowid_list` of every list, in one pass over them all.

    The lists are concatenated and their deltas (restarting at each
    list) taken at once.  Each list's Roaring eligibility and Roaring
    size are reductions over its stretch (``reduceat``) — the size
    without encoding: the container count, then per container its header
    and either a bitmap or two bytes a member.  One varint pass writes
    every list, and a list's ``delta`` size is a byte a value plus the
    rest of its few longer varints.  A list is its slice of that pass,
    or its ``roaring_encode`` where that is strictly smaller.
    """
    arrays = [np.asarray(values, dtype=np.int64) for values in lists]
    encoded = [(DELTA, b"")] * len(arrays)
    live = [index for index, v in enumerate(arrays) if len(v)]
    if not live:
        return encoded
    lengths = np.fromiter(
        (len(arrays[index]) for index in live), dtype=np.int64, count=len(live)
    )
    starts = np.cumsum(lengths) - lengths
    v = np.concatenate([arrays[index] for index in live])
    deltas = _deltas(v, starts)
    # Roaring takes a list in [0, 2^32) whose deltas after its first
    # value are all positive; viewed unsigned, a negative is >= 2^32.
    refused = v.view(np.uint64) >= 1 << 32
    falls = deltas <= 0
    falls[starts] = False
    refused |= falls
    eligible = ~np.logical_or.reduceat(refused, starts)
    # A Roaring container starts wherever the high 16 bits change (for
    # values in [0, 2^32): wherever neighbours differ above bit 15).
    heads = np.empty(len(v), dtype=bool)
    np.greater(v[1:] ^ v[:-1], 0xFFFF, out=heads[1:])
    heads[starts] = True
    firsts = np.flatnonzero(heads)
    members = np.diff(firsts, append=len(v))
    container_bytes = _ROARING_CONTAINER.size + np.where(
        members > ROARING_ARRAY_LIMIT, 1 << 13, 2 * members
    )
    roaring_sizes = 4 + np.add.reduceat(
        container_bytes, np.searchsorted(firsts, starts)
    )
    payload, longer, nbytes = _varint_bytes(_zigzag(deltas))
    # A list's delta size: a byte a value, plus its longer varints' rest.
    owners = np.searchsorted(starts, longer, side="right") - 1
    delta_sizes = lengths + np.bincount(
        owners, weights=nbytes - 1, minlength=len(live)
    ).astype(np.int64)
    roaring = (eligible & (roaring_sizes < delta_sizes)).tolist()
    ends = np.cumsum(delta_sizes).tolist()
    data = payload.tobytes()
    for k, index in enumerate(live):
        if roaring[k]:
            encoded[index] = (ROARING, roaring_encode(arrays[index]))
        else:
            encoded[index] = (DELTA, data[ends[k - 1] if k else 0 : ends[k]])
    return encoded
