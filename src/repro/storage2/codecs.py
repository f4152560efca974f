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
between ``delta`` and ``roaring`` for sorted row-id lists.
"""

from __future__ import annotations

import struct

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


def _narrow_width(span: int) -> int:
    """Narrowest legal width whose unsigned range holds ``span``."""
    if span == 0:
        return 0
    for width in (1, 2, 4):
        if span < (1 << (8 * width)):
            return width
    return 8


def narrow_encode(array: np.ndarray) -> tuple[bytes, dict[str, list[int]]]:
    """Encode a 1-D or 2-D int64 array; returns ``(payload, extra)``.

    ``extra`` is ``{"lows": […], "widths": […]}``, one entry per column
    (a 1-D array is one column): column ``j`` is ``rows`` little-endian
    unsigned ``widths[j]``-byte offsets from ``lows[j]``, the columns
    concatenated in order.  Width-8 columns are stored as they are and
    record a low of 0.
    """
    a = np.asarray(array, dtype=np.int64)
    if a.ndim not in (1, 2):
        raise CodecError(f"narrow takes 1-D or 2-D arrays, got {a.ndim}-D")
    # One transposing copy up front: every pass below is then contiguous.
    columns = a.reshape(1, -1) if a.ndim == 1 else np.ascontiguousarray(a.T)
    n_columns, rows = columns.shape
    if rows == 0:
        return b"", {"lows": [0] * n_columns, "widths": [0] * n_columns}
    mins = columns.min(axis=1).tolist()
    maxs = columns.max(axis=1).tolist()
    lows: list[int] = []
    widths: list[int] = []
    parts: list[bytes] = []
    for column, low, high in zip(columns, mins, maxs):
        width = _narrow_width(high - low)
        if width == 8:
            low = 0
            parts.append(column.astype("<i8", copy=False).tobytes())
        elif width:
            offsets = column - np.int64(low)
            parts.append(offsets.astype(f"<u{width}").tobytes())
        lows.append(low)
        widths.append(width)
    return b"".join(parts), {"lows": lows, "widths": widths}


def narrow_decode(
    data: bytes | np.ndarray,
    lows: list[int],
    widths: list[int],
    shape: tuple[int, ...],
) -> np.ndarray:
    """Inverse of :func:`narrow_encode`: a C-contiguous int64 array of
    ``shape``, widened in one pass per column."""
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
    if sum(widths) * rows != len(data):
        raise CodecError(
            f"narrow payload holds {len(data)} bytes, expected "
            f"{sum(widths) * rows} for {rows} rows of widths {widths}"
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
    """Map signed int64 to uint64 so small magnitudes stay small."""
    return (values.astype(np.uint64) << np.uint64(1)) ^ (
        values >> np.int64(63)
    ).astype(np.uint64)


def _unzigzag(values: np.ndarray) -> np.ndarray:
    return (
        (values >> np.uint64(1)) ^ (np.uint64(0) - (values & np.uint64(1)))
    ).astype(np.int64)


def _delta_varints(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The zigzagged deltas of a non-empty int64 array and each one's
    varint byte count."""
    deltas = np.empty(len(v), dtype=np.int64)
    deltas[0] = v[0]
    np.subtract(v[1:], v[:-1], out=deltas[1:])
    z = _zigzag(deltas)
    return z, 1 + np.searchsorted(_VARINT_LIMITS, z, side="right")


def _varint_bytes(z: np.ndarray, nbytes: np.ndarray) -> bytes:
    """LEB128 varints of ``z``, ``nbytes`` bytes each."""
    ends = np.cumsum(nbytes)
    starts = ends - nbytes
    out = np.zeros(int(ends[-1]), dtype=np.uint8)
    for k in range(_VARINT_MAX_BYTES):
        mask = nbytes > k
        if not mask.any():
            break
        chunk = ((z[mask] >> np.uint64(7 * k)) & np.uint64(0x7F)).astype(
            np.uint8
        )
        chunk |= (nbytes[mask] > k + 1).astype(np.uint8) << 7
        out[starts[mask] + k] = chunk
    return out.tobytes()


def delta_encode(values: np.ndarray) -> bytes:
    """First value plus successive deltas, zigzagged, as LEB128 varints."""
    v = np.asarray(values, dtype=np.int64)
    if len(v) == 0:
        return b""
    return _varint_bytes(*_delta_varints(v))


def delta_decode(data: bytes, count: int) -> np.ndarray:
    """Inverse of :func:`delta_encode`; returns an int64 array.

    Terminator bytes (high bit clear) end the varints.  Every varint's
    first 7-bit limb is gathered at once, then each pass ORs in the next
    limb of only the varints that continue: as many passes as the
    longest varint has bytes.  The zigzagged deltas cumsum back.
    """
    if count == 0:
        if data:
            raise CodecError("delta payload for zero values must be empty")
        return np.empty(0, dtype=np.int64)
    raw = np.frombuffer(data, dtype=np.uint8)
    if len(raw) == 0:
        raise CodecError(f"empty delta payload for {count} values")
    ends = np.flatnonzero(raw < 0x80)
    if len(ends) != count:
        raise CodecError(
            f"delta payload holds {len(ends)} varints, expected {count}"
        )
    if int(ends[-1]) != len(raw) - 1:
        raise CodecError("trailing continuation bytes in delta payload")
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
            raise CodecError("varint longer than 64 bits in delta payload")
        z[live] |= (limb & 0x7F).astype(np.uint64) << np.uint64(shift)
        more = limb >= 0x80
        live, at = live[more], at[more]
    return np.cumsum(_unzigzag(z), dtype=np.int64)


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
    pure function of the list, so republishing is deterministic.
    """
    v = np.asarray(values, dtype=np.int64)
    if len(v) == 0:
        return DELTA, b""
    z, nbytes = _delta_varints(v)
    eligible = (
        (len(v) == 1 or int(np.diff(v).min()) > 0)
        and int(v[0]) >= 0
        and int(v[-1]) < (1 << 32)
    )
    if eligible and _roaring_size(v) < int(nbytes.sum()):
        return ROARING, roaring_encode(v)
    return DELTA, _varint_bytes(z, nbytes)


def _roaring_size(v: np.ndarray) -> int:
    """``len(roaring_encode(v))`` for an eligible list, without encoding:
    the container count, then per container its header and either a
    bitmap or two bytes a member."""
    if int(v[0]) >> 16 == int(v[-1]) >> 16:
        members = [len(v)]
    else:
        changes = np.flatnonzero(np.diff(v >> 16)) + 1
        members = np.diff(changes, prepend=0, append=len(v)).tolist()
    return 4 + sum(
        _ROARING_CONTAINER.size
        + (1 << 13 if count > ROARING_ARRAY_LIMIT else 2 * count)
        for count in members
    )
