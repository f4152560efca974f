"""The v2 cube container: sectioned, checksummed, alignment-padded.

One ``cube.v2`` file holds every relation of a published cube plus the
fact columns, laid out so that opening is an
``np.memmap`` and *reading* a section is one verify-and-decode, cached::

    ┌────────────────────────────┐ 0
    │ header: magic + version    │ 16 bytes
    ├────────────────────────────┤ 64-byte aligned
    │ section 0 payload          │
    ├────────────────────────────┤ 64-byte aligned
    │ section 1 payload          │
    │ …                          │
    ├────────────────────────────┤
    │ directory (canonical JSON) │ named section table + cube metadata
    ├────────────────────────────┤ file size − 64
    │ trailer: dir offset/len,   │
    │ dir SHA-256, magic         │ 64 bytes
    └────────────────────────────┘

Every section entry records its codec, dtype, logical shape, value count
and the SHA-256 of its payload bytes.  Int64 arrays are stored ``narrow``
(each column at the byte width its value range needs, or as LEB128 gaps
when it never falls and that is smaller) whenever that is smaller, and
widen once into an int64 array the file caches; what ``narrow`` cannot
shrink stays ``raw`` and decodes as a zero-copy memmap view (64-byte
alignment keeps the views aligned for any dtype).  The other compressed
sections (``bitpack``/``delta``/``roaring``) likewise decode lazily,
once, on first access.

Format version 2 added the ``narrow`` codec and version 3 its gap
columns (``extra["gaps"]``), and neither removed anything, so this
reader opens version 1 and 2 containers through the same code; an older
reader refuses a newer file by its version, not by a payload it would
misread.  Version 4 changed no byte layout: from it on, a partitioned
build stores each trivial tuple once, as every reader now assumes, so a
partitioned cube of an older version fails closed ("rebuild the
bundle") while an unpartitioned one still opens.

Integrity is *fail closed*: the header, trailer and directory are
verified on open (so truncation and metadata corruption never produce a
reader; ``orjson`` parses the directory), and each section's checksum is
verified on its first access — before any view or decoded array is
handed out — so a bit flip raises :class:`SectionCorruption` instead of
ever feeding a query wrong bytes; a signed value outside its column's
domain raises :class:`ValueOutOfDomain` on the same first decode.  The
checksum work is per-section and lazy precisely so cold starts only pay
for the sections a query actually touches.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from itertools import chain, repeat
from pathlib import Path
from typing import Any, Container, Iterator, Sequence

import numpy as np
from orjson import OPT_SORT_KEYS, dumps, loads

from repro.core.storage import CatFormat
from repro.relational.durable import file_checksum
from repro.storage2.codecs import (
    BITPACK,
    DELTA,
    NARROW,
    RAW,
    ROARING,
    CodecError,
    bitpack_decode,
    delta_decode,
    encode_rowid_lists,
    narrow_decode,
    narrow_encode_batch,
    roaring_decode,
)

MAGIC = b"CUREv2\x00\n"
FORMAT_VERSION = 4
#: Versions this reader opens: 2 is 1 plus the ``narrow`` codec, 3 is 2
#: plus ``narrow``'s gap columns, 4 is 3 with every trivial tuple of a
#: partitioned cube stored once.
READABLE_VERSIONS = (1, 2, 3, 4)
ALIGNMENT = 64
_HEADER = struct.Struct("<8sII")  # magic, version, reserved
_TRAILER = struct.Struct("<QQ32s8s8s")  # dir offset, dir len, dir sha, pad, magic
HEADER_BYTES = _HEADER.size
TRAILER_BYTES = _TRAILER.size


class V2FormatError(RuntimeError):
    """The file is not a readable v2 cube (structure or metadata)."""


class SectionCorruption(V2FormatError):
    """A section's bytes do not match their recorded checksum."""


class ValueOutOfDomain(V2FormatError):
    """A section decodes to a value its column cannot hold: signed bytes
    that are still not the cube's (a row-id past the fact table, say)."""


@dataclass(frozen=True)
class SectionEntry:
    """One named payload inside the container."""

    name: str
    offset: int
    nbytes: int
    codec: str
    dtype: str
    shape: tuple[int, ...]
    count: int
    sha256: str
    extra: dict[str, Any]

    @classmethod
    def from_json(cls, payload: dict[str, Any]) -> "SectionEntry":
        return cls(
            name=payload["name"],
            offset=payload["offset"],
            nbytes=payload["bytes"],
            codec=payload["codec"],
            dtype=payload["dtype"],
            shape=tuple(payload["shape"]),
            count=payload["count"],
            sha256=payload["sha256"],
            extra=dict(payload["extra"]),
        )


#: Every directory entry field and the JSON type it must have.
_ENTRY_FIELDS = {
    "name": str, "offset": int, "bytes": int, "codec": str, "dtype": str,
    "shape": list, "count": int, "sha256": str, "extra": dict,
}


def _aligned(offset: int) -> int:
    return (offset + ALIGNMENT - 1) // ALIGNMENT * ALIGNMENT


def _narrowable(array: np.ndarray) -> bool:
    """Whether ``narrow`` can hold the array: int64, one or two dimensions."""
    return array.dtype == np.int64 and array.ndim in (1, 2)


class V2Writer:
    """Accumulates sections, then streams the assembled container.

    Offsets are fixed at ``add_*`` time, so the writer can hand the
    durable layer an iterator of chunks instead of one giant buffer.
    Each section is kept as its directory entry, the JSON object
    :meth:`directory_json` writes.
    """

    def __init__(self, meta: dict[str, Any]) -> None:
        self.meta = dict(meta)
        self._sections: list[dict[str, Any]] = []
        self._names: set[str] = set()
        self._payloads: list[bytes] = []
        self._cursor = HEADER_BYTES

    def add_array(self, name: str, array: np.ndarray) -> None:
        """Add one array section; the one-array case of :meth:`add_arrays`."""
        self.add_arrays([(name, array)])

    def add_arrays(
        self,
        sections: Sequence[tuple[str, np.ndarray]],
        rowid_lists: Container[str] = (),
    ) -> None:
        """Add array sections in order, encoded in one batch.

        A section named in ``rowid_lists`` is a 1-D row-id list, stored
        ``delta`` or ``roaring`` (:func:`encode_rowid_lists`).  Any other
        int64 array of one or two dimensions is stored ``narrow`` where
        that is smaller (:func:`narrow_encode_batch`; a pure function of
        the values), and everything else ``raw`` — the array's bytes,
        zero-copy on read.
        """
        lists = [array for name, array in sections if name in rowid_lists]
        arrays = [
            array
            for name, array in sections
            if name not in rowid_lists and _narrowable(array)
        ]
        encoded_lists = iter(encode_rowid_lists(lists))
        narrowed = iter(narrow_encode_batch(arrays))
        for name, array in sections:
            if name in rowid_lists:
                codec, payload = next(encoded_lists)
                self.add_section(name, payload, codec, "<i8", (len(array),), len(array))
                continue
            codec, data, extra = RAW, None, None
            if _narrowable(array):
                narrow, widths = next(narrowed)
                if len(narrow) < array.nbytes:
                    codec, data, extra = NARROW, narrow, widths
            if data is None:
                data = np.ascontiguousarray(array).tobytes()
            self.add_section(
                name,
                data,
                codec,
                array.dtype.newbyteorder("<").str,
                tuple(array.shape),
                int(array.size),
                extra,
            )

    def add_section(
        self,
        name: str,
        payload: bytes,
        codec: str,
        dtype: str,
        shape: tuple[int, ...],
        count: int,
        extra: dict[str, Any] | None = None,
    ) -> None:
        if name in self._names:
            raise ValueError(f"duplicate section name {name!r}")
        self._names.add(name)
        offset = _aligned(self._cursor)
        self._sections.append(
            {
                "name": name,
                "offset": offset,
                "bytes": len(payload),
                "codec": codec,
                "dtype": dtype,
                "shape": list(shape),
                "count": count,
                "sha256": hashlib.sha256(payload).hexdigest(),
                "extra": dict(extra or {}),
            }
        )
        self._payloads.append(payload)
        self._cursor = offset + len(payload)

    @property
    def section_bytes(self) -> int:
        return sum(section["bytes"] for section in self._sections)

    def row_counts(self) -> dict[str, int]:
        """Rows (leading extent) of every section added so far."""
        return {section["name"]: section["shape"][0] for section in self._sections}

    def directory_json(self) -> bytes:
        """The directory: compact JSON with sorted keys, by ``orjson``.
        For ASCII text — every name this package writes — these are the
        bytes ``json.dumps(…, sort_keys=True, separators=(",", ":"))``
        gives; ``orjson`` writes other text as UTF-8, not ``\\u`` escapes."""
        document = {
            "version": FORMAT_VERSION,
            "meta": self.meta,
            "sections": self._sections,
        }
        return dumps(document, option=OPT_SORT_KEYS)

    def chunks(self) -> Iterator[bytes]:
        """The container, in order, as an iterator of byte chunks."""
        yield _HEADER.pack(MAGIC, FORMAT_VERSION, 0)
        cursor = HEADER_BYTES
        for section, payload in zip(self._sections, self._payloads):
            if section["offset"] > cursor:
                yield b"\x00" * (section["offset"] - cursor)
            yield payload
            cursor = section["offset"] + section["bytes"]
        directory_offset = _aligned(cursor)
        if directory_offset > cursor:
            yield b"\x00" * (directory_offset - cursor)
        directory = self.directory_json()
        yield directory
        yield _TRAILER.pack(
            directory_offset,
            len(directory),
            hashlib.sha256(directory).digest(),
            b"\x00" * 8,
            MAGIC,
        )


class V2File:
    """A mapped, lazily-verified v2 cube container (read-only)."""

    def __init__(
        self,
        path: Path,
        mapped: np.ndarray,
        meta: dict[str, Any],
        payloads: dict[str, dict[str, Any]],
        cardinalities: Sequence[int] = (),
    ) -> None:
        self.path = path
        self._mapped = mapped
        self.meta = meta
        self._payloads = payloads
        self._cardinalities = tuple(cardinalities)
        self._entries: dict[str, SectionEntry] = {}
        self._verified: set[str] = set()
        self._decoded: dict[str, np.ndarray] = {}

    # -- opening ------------------------------------------------------------

    @classmethod
    def open(cls, path: str | Path, cardinalities: Sequence[int] = ()) -> "V2File":
        """Map and check the container at ``path``; ``cardinalities``, the
        fact dimensions' base cardinalities, bound ``fact/dim/<d>``."""
        target = Path(path)
        if not target.exists():
            raise V2FormatError(f"no v2 cube file at {target}")
        size = target.stat().st_size
        if size < HEADER_BYTES + TRAILER_BYTES:
            raise V2FormatError(
                f"{target} is {size} bytes — shorter than a v2 header + trailer"
            )
        mapped = np.memmap(target, dtype=np.uint8, mode="r")
        magic, version, _reserved = _HEADER.unpack(
            bytes(mapped[:HEADER_BYTES])
        )
        if magic != MAGIC:
            raise V2FormatError(f"{target} does not start with the v2 magic")
        if version not in READABLE_VERSIONS:
            raise V2FormatError(
                f"{target} is format version {version}; "
                f"this reader supports {READABLE_VERSIONS}"
            )
        dir_offset, dir_len, dir_sha, _pad, trailer_magic = _TRAILER.unpack(
            bytes(mapped[size - TRAILER_BYTES :])
        )
        if trailer_magic != MAGIC:
            raise V2FormatError(
                f"{target} has no v2 trailer (truncated or overwritten)"
            )
        if not (
            HEADER_BYTES <= dir_offset
            and dir_offset + dir_len <= size - TRAILER_BYTES
        ):
            raise V2FormatError(f"{target}: directory bounds fall outside the file")
        directory = bytes(mapped[dir_offset : dir_offset + dir_len])
        if hashlib.sha256(directory).digest() != dir_sha:
            raise SectionCorruption(
                f"{target}: directory checksum mismatch (corrupt file)"
            )
        try:
            document = loads(directory)
        except ValueError as error:
            raise V2FormatError(f"{target}: directory is not JSON") from error
        if type(document) is not dict or document.get("version") != version:
            raise V2FormatError(
                f"{target}: directory is not an object of the header's version"
            )
        sections, meta = document.get("sections", []), document.get("meta", {})
        if type(sections) is not list or type(meta) is not dict:
            raise V2FormatError(f"{target}: directory sections or meta malformed")
        if version < 4 and meta.get("partition_level") is not None:
            raise V2FormatError(
                f"{target} is a partitioned cube of format version {version}, "
                "which may store a trivial tuple twice; rebuild the bundle"
            )
        # Entries stay parsed JSON until ``entry`` first asks for one.
        # Every field's presence and type is checked here all the same, one
        # field across all entries at a time.
        if set(map(type, sections)) - {dict}:
            index = [type(payload) is dict for payload in sections].index(False)
            raise V2FormatError(
                f"{target}: directory entry {index} is not an object"
            )
        fields = {
            key: list(map(dict.get, sections, repeat(key))) for key in _ENTRY_FIELDS
        }
        names = fields["name"]
        for key, kind in _ENTRY_FIELDS.items():
            if set(map(type, fields[key])) - {kind}:
                index = [type(value) is kind for value in fields[key]].index(False)
                raise V2FormatError(
                    f"{target}: directory entry {index} ({names[index]!r}) "
                    f"lacks {key!r} or holds it as the wrong type"
                )
        shapes = fields["shape"]
        if not all(shapes) or set(map(type, chain.from_iterable(shapes))) - {int}:
            good = [bool(shape) and set(map(type, shape)) <= {int} for shape in shapes]
            raise V2FormatError(
                f"{target}: section {names[good.index(False)]!r} has a "
                "malformed shape"
            )
        dtypes = fields["dtype"]
        for dtype in set(dtypes):
            try:
                np.dtype(dtype)
            except (TypeError, ValueError, SyntaxError):  # numpy raises all three
                raise V2FormatError(
                    f"{target}: section {names[dtypes.index(dtype)]!r} has "
                    f"dtype {dtype!r}, which numpy cannot parse"
                ) from None
        payloads = dict(zip(names, sections))
        if len(payloads) != len(sections):
            duplicate = next(n for i, n in enumerate(names) if n in names[:i])
            raise V2FormatError(f"{target}: duplicate section {duplicate!r}")
        for name, offset, nbytes in zip(names, fields["offset"], fields["bytes"]):
            if offset % ALIGNMENT or not (
                HEADER_BYTES <= offset <= offset + nbytes <= dir_offset
            ):
                raise V2FormatError(
                    f"{target}: section {name!r} is misaligned or "
                    "falls outside the data region"
                )
        return cls(target, mapped, meta, payloads, cardinalities)

    # -- access -------------------------------------------------------------

    def names(self) -> list[str]:
        return sorted(self._payloads)

    def has(self, name: str) -> bool:
        return name in self._payloads

    def entry(self, name: str) -> SectionEntry:
        entry = self._entries.get(name)
        if entry is None:
            if name not in self._payloads:
                raise V2FormatError(f"{self.path} has no section {name!r}")
            entry = SectionEntry.from_json(self._payloads[name])
            self._entries[name] = entry
        return entry

    def rows(self, name: str) -> int:
        """A listed section's leading extent, without building its entry."""
        extent: int = self._payloads[name]["shape"][0]
        return extent

    def section_bytes(self, name: str) -> np.ndarray:
        """The section's payload bytes, checksum-verified (once, lazily)."""
        entry = self.entry(name)
        view = self._mapped[entry.offset : entry.offset + entry.nbytes]
        if name not in self._verified:
            digest = hashlib.sha256(view).hexdigest()
            if digest != entry.sha256:
                raise SectionCorruption(
                    f"{self.path}: section {name!r} checksum mismatch "
                    f"(expected {entry.sha256[:12]}…, got {digest[:12]}…)"
                )
            self._verified.add(name)
        return view

    def array(self, name: str) -> np.ndarray:
        """The section decoded to its array: verified, decoded once and
        cached (``raw`` is a zero-copy view; ``narrow`` widens to int64)."""
        cached = self._decoded.get(name)
        if cached is not None:
            return cached
        entry = self.entry(name)
        payload = self.section_bytes(name)
        try:
            array = self._decode(entry, payload)
        except CodecError as error:
            raise SectionCorruption(
                f"{self.path}: section {name!r} fails to decode: {error}"
            ) from error
        for column, bound in self._domain(name).items():
            if array.ndim > 1 and column >= array.shape[1]:
                raise ValueOutOfDomain(
                    f"{self.path}: section {name!r} has no column {column}"
                )
            values = array if array.ndim == 1 else array[:, column]
            if len(values) and not 0 <= values.min() <= values.max() < bound:
                raise ValueOutOfDomain(
                    f"{self.path}: section {name!r} column {column} holds "
                    f"[{values.min()}, {values.max()}], outside [0, {bound})"
                )
        self._decoded[name] = array
        return array

    def _domain(self, name: str) -> dict[int, int]:
        """The domain table: column → bound for each column of section
        ``name`` that must lie in ``[0, bound)`` — row-ids within the
        fact table, A-rowids within AGGREGATES, fact dimension codes
        within their base cardinality."""
        codes = {f"fact/dim/{d}": {0: c} for d, c in enumerate(self._cardinalities)}
        facts = self.meta.get("fact_row_count")
        if name in codes or type(facts) is not int:
            return codes.get(name, {})
        aggregates = self.rows("aggregates") if self.has("aggregates") else 0
        common = self.meta.get("cat_format") == CatFormat.COMMON_SOURCE.value
        domains = {
            "nt": {} if self.meta.get("dr_mode") else {0: facts},
            "tt": {0: facts},
            "cat": {0: aggregates} if common else {0: facts, 1: aggregates},
            "aggregates": {0: facts} if common else {},
        }
        return domains.get(name.rpartition("/")[2], {})

    def _decode(self, entry: SectionEntry, payload: np.ndarray) -> np.ndarray:
        dtype = np.dtype(entry.dtype)
        if entry.codec == RAW:
            if entry.nbytes != dtype.itemsize * entry.count:
                raise CodecError(
                    f"raw payload is {entry.nbytes} bytes, expected "
                    f"{dtype.itemsize * entry.count}"
                )
            array = payload.view(dtype)
        elif entry.codec == NARROW:
            if dtype != np.int64:
                raise CodecError(f"narrow section has dtype {entry.dtype}")
            try:
                lows = entry.extra["lows"]
                widths = entry.extra["widths"]
            except KeyError as error:
                raise CodecError(f"narrow directory lacks {error}") from error
            array = narrow_decode(
                payload, lows, widths, entry.shape, entry.extra.get("gaps", [])
            )
            array.flags.writeable = False
        elif entry.codec == BITPACK:
            array = bitpack_decode(
                payload.tobytes(), int(entry.extra["bits"]), entry.count
            ).astype(dtype, copy=False)
        elif entry.codec == DELTA:
            array = delta_decode(payload.tobytes(), entry.count).astype(
                dtype, copy=False
            )
        elif entry.codec == ROARING:
            array = roaring_decode(payload.tobytes()).astype(dtype, copy=False)
            if len(array) != entry.count:
                raise CodecError(
                    f"roaring payload decodes {len(array)} values, "
                    f"expected {entry.count}"
                )
        else:
            raise CodecError(f"unknown codec {entry.codec!r}")
        if array.size != entry.count:
            raise CodecError(
                f"decoded {array.size} values, expected {entry.count}"
            )
        if len(entry.shape) > 1:
            array = array.reshape(entry.shape)
        return array

    def check_section(self, name: str) -> None:
        """Re-check one section — checksum, decode and domain — raising
        its :class:`V2FormatError` (:class:`SectionCorruption` or
        :class:`ValueOutOfDomain`) if it has one."""
        self._verified.discard(name)
        self.section_bytes(name)
        self._decoded.pop(name, None)
        self.array(name)

    def verify_section(self, name: str) -> str | None:
        """Re-check one section; returns a problem string or None."""
        try:
            self.check_section(name)
        except V2FormatError as error:
            return str(error)
        return None

    def verify_all(self) -> list[str]:
        """Checksum + decode every section; returns the problems found."""
        problems = []
        for name in self.names():
            problem = self.verify_section(name)
            if problem is not None:
                problems.append(problem)
        return problems

    @property
    def file_bytes(self) -> int:
        return int(self._mapped.size)


def committed_container(
    path: str | Path, checksum: str, cardinalities: Sequence[int] = ()
) -> V2File:
    """The container a manifest committed, opened once it is shown whole.

    The one opener of a restarting writer: the file must be byte for
    byte the one recorded with ``checksum``, then pass its directory
    checksum (:meth:`V2File.open`) and every section's checksum, decode
    and domain check (:meth:`V2File.check_section`; ``cardinalities`` as
    for :meth:`V2File.open`), whose decoded arrays the file keeps
    serving.  Raises :class:`V2FormatError` — the first bad section's
    own error naming it: :class:`SectionCorruption` for bytes that fail
    their checksum or decode, :class:`ValueOutOfDomain` for a value its
    column cannot hold — and never returns a file that is only partly
    sound.
    """
    target = Path(path)
    if not target.exists():
        raise V2FormatError(f"missing container {target.name!r}")
    if file_checksum(target) != checksum:
        raise V2FormatError(f"checksum mismatch for {target.name!r}")
    file = V2File.open(target, cardinalities)
    for name in file.names():
        file.check_section(name)
    return file
