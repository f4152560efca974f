"""A segmented, checksummed append log for streaming fact deltas.

The log is the durable front door of the ingest subsystem: producers
append batches of fact rows as *records*, each framed with a length and a
SHA-256 digest; the applier drains *sealed* segments only, so a record is
eligible for cube maintenance exactly once it is immutable on disk.

On-disk layout (one directory per log)::

    log.manifest.json      — sealed-segment index + active-segment cursor
    segment.000000.log     — sealed: immutable, whole-file checksummed
    segment.000001.open    — active: append-only, torn tail tolerated

Every byte reaches disk through the audited primitives of
:mod:`repro.relational.durable` (cubelint R9): records are appended with
:func:`~repro.relational.durable.append_bytes` (write → flush → fsync), a
seal promotes ``.open`` → ``.log`` with
:func:`~repro.relational.durable.publish_file`, and the manifest is the
atomic commit point of every structural change.  Crash windows:

* **mid-append** — the active segment may end in a torn record;
  :meth:`AppendLog.open` re-frames the tail and durably truncates it to
  the last intact record (the producer re-appends the lost batch).
* **mid-seal** — the sealed file exists but the manifest still calls the
  segment active; open detects the published file and idempotently
  completes the seal.
* **mid-truncate** — the manifest no longer references dropped segments
  before their files are unlinked; open sweeps orphaned segment files.

Fault sites ``ingest.append:<segment>`` (torn-write capable) and
``ingest.seal:<segment>`` / ``ingest.compact:truncate:<segment>`` are
fired through the standard hook so the crash harness can enumerate every
one of these windows; transient faults at a site are retried under a
bounded :class:`~repro.relational.durable.RetryPolicy` before any data
moves, exactly like the heap writer.
"""

from __future__ import annotations

import hashlib
import json
import struct
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path

from repro.relational.durable import (
    FaultHook,
    InjectedCrash,
    RetryPolicy,
    TornWrite,
    append_bytes,
    atomic_write_text,
    check_fields,
    file_checksum,
    publish_file,
    read_document,
    remove_file,
    truncate_file,
    with_retries,
)

LOG_MANIFEST = "log.manifest.json"
LOG_VERSION = 1

#: Record framing: payload length (little-endian uint32) + SHA-256 digest.
_HEADER = struct.Struct("<I32s")


class LogCorruption(RuntimeError):
    """A *sealed* segment failed its checksum replay.

    Sealed segments are immutable and fsync'd at publish time, so a bad
    record there is damage (or tampering), not a crash artifact — unlike a
    torn tail on the active segment, it is never silently repaired.
    """


@dataclass(frozen=True)
class LogRecord:
    """One appended batch: its log sequence number and the fact rows."""

    lsn: int
    rows: tuple[tuple[int, ...], ...]


def _encode_record(rows: list[tuple]) -> bytes:
    payload = json.dumps([list(row) for row in rows], separators=(",", ":")).encode(
        "utf-8"
    )
    return _HEADER.pack(len(payload), hashlib.sha256(payload).digest()) + payload


def _scan_segment(path: Path) -> tuple[list[bytes], int]:
    """Parse a segment file into intact payloads plus the intact byte count.

    Anything after the last record whose length and digest both check out
    is a torn tail; the caller decides whether that is repairable (active
    segment) or fatal (sealed segment).
    """
    if not path.exists():
        return [], 0
    data = path.read_bytes()
    payloads: list[bytes] = []
    offset = 0
    while True:
        if len(data) - offset < _HEADER.size:
            break
        length, digest = _HEADER.unpack_from(data, offset)
        start = offset + _HEADER.size
        if len(data) - start < length:
            break
        payload = data[start : start + length]
        if hashlib.sha256(payload).digest() != digest:
            break
        payloads.append(payload)
        offset = start + length
    return payloads, offset


def _decode_rows(
    payload: bytes, segment: str, lsn: int
) -> tuple[tuple[int, ...], ...]:
    """A record's rows.  :meth:`AppendLog.append` writes a non-empty JSON
    list of lists, so any other payload behind a valid digest is damage
    (a re-signed record) and fails closed as :class:`LogCorruption`."""
    try:
        rows = json.loads(payload.decode("utf-8"))
    except ValueError:  # bad UTF-8 or bad JSON
        rows = None
    if not (
        isinstance(rows, list)
        and rows
        and all(isinstance(row, list) for row in rows)
    ):
        raise LogCorruption(
            f"record {lsn} of sealed segment {segment} is not a non-empty "
            "JSON list of rows"
        )
    return tuple(tuple(row) for row in rows)


def _read_manifest(path: Path) -> tuple[list[dict], int, int]:
    """The sealed entries, active segment id and its first LSN that the
    log manifest at ``path`` records, in the shape
    :meth:`AppendLog._save_manifest` writes."""
    payload = read_document(
        path,
        LOG_VERSION,
        {"sealed": (list,), "active_id": (int,), "active_first_lsn": (int,)},
        LogCorruption,
    )
    sealed = {"id": (int,), "first_lsn": (int,), "records": (int,), "checksum": (str,)}
    for index, entry in enumerate(payload["sealed"]):
        check_fields(entry, sealed, f"{path} sealed[{index}]", LogCorruption)
    return payload["sealed"], payload["active_id"], payload["active_first_lsn"]


@dataclass
class AppendLog:
    """The durable record log; construct via :meth:`AppendLog.open`.

    ``seal_records`` bounds the active segment: once that many records
    accumulate, :meth:`append` seals automatically, which also bounds the
    work the torn-tail scan does on open.  ``faults`` is the standard
    injection hook (install the engine's so one injector covers the log
    and the catalog together).
    """

    root: Path
    faults: FaultHook | None = field(default=None, repr=False)
    seal_records: int = 64
    retry_policy: RetryPolicy | None = None
    _sealed: list[dict] = field(default_factory=list, repr=False)
    _active_id: int = 0
    _active_first_lsn: int = 0
    _active_records: int = 0

    # -- lifecycle ----------------------------------------------------------

    @classmethod
    def open(
        cls,
        root: str | Path,
        faults: FaultHook | None = None,
        seal_records: int = 64,
        retry_policy: RetryPolicy | None = None,
    ) -> "AppendLog":
        """Open (or create) a log directory, repairing crash artifacts."""
        log = cls(
            Path(root),
            faults=faults,
            seal_records=seal_records,
            retry_policy=retry_policy,
        )
        log.root.mkdir(parents=True, exist_ok=True)
        manifest_path = log.root / LOG_MANIFEST
        if manifest_path.exists():
            log._sealed, log._active_id, log._active_first_lsn = _read_manifest(
                manifest_path
            )
        log._recover()
        return log

    def _recover(self) -> None:
        # A seal that crashed between publish and manifest save left the
        # sealed file on disk while the manifest still calls it active:
        # complete it idempotently (the file is already durable).
        sealed_path = self._segment_path(self._active_id, sealed=True)
        if sealed_path.exists():
            payloads, intact = _scan_segment(sealed_path)
            if intact != sealed_path.stat().st_size:
                raise LogCorruption(
                    f"sealed segment {sealed_path.name} has a torn tail"
                )
            remove_file(self._segment_path(self._active_id, sealed=False))
            self._finish_seal(len(payloads))
        # Torn tail on the active segment: durably truncate to the last
        # intact record; the producer re-appends what was lost.
        active_path = self._segment_path(self._active_id, sealed=False)
        payloads, intact = _scan_segment(active_path)
        if active_path.exists() and intact != active_path.stat().st_size:
            truncate_file(active_path, intact)
        self._active_records = len(payloads)
        # Orphans: segment files dropped from the manifest by a truncation
        # whose unlink pass did not finish, or stale ids from old seals.
        referenced = {entry["id"] for entry in self._sealed}
        referenced.add(self._active_id)
        for path in sorted(self.root.glob("segment.*")):
            try:
                seg_id = int(path.name.split(".")[1])
            except (IndexError, ValueError):
                continue
            if seg_id not in referenced:
                remove_file(path)

    # -- geometry -----------------------------------------------------------

    def _segment_name(self, seg_id: int, sealed: bool) -> str:
        suffix = "log" if sealed else "open"
        return f"segment.{seg_id:06d}.{suffix}"

    def _segment_path(self, seg_id: int, sealed: bool) -> Path:
        return self.root / self._segment_name(seg_id, sealed)

    @property
    def next_lsn(self) -> int:
        """The LSN the next appended record will receive."""
        return self._active_first_lsn + self._active_records

    @property
    def active_records(self) -> int:
        return self._active_records

    @property
    def sealed_segments(self) -> int:
        return len(self._sealed)

    # -- fault protocol -----------------------------------------------------

    def _fire(self, site: str) -> None:
        """Announce an injection point, absorbing transient faults."""
        faults = self.faults
        if faults is not None:
            with_retries(lambda: faults.fire(site), policy=self.retry_policy)

    # -- writing ------------------------------------------------------------

    def append(self, rows: list[tuple]) -> int:
        """Durably append one record of fact rows; returns its LSN.

        A :class:`TornWrite` fault persists only a prefix of the framed
        record before escalating to :class:`InjectedCrash` — the torn tail
        that :meth:`open` detects and truncates.
        """
        if not rows:
            raise ValueError("an ingest record needs at least one row")
        record = _encode_record(rows)
        path = self._segment_path(self._active_id, sealed=False)
        site = f"ingest.append:{path.name}"
        faults = self.faults
        if faults is not None:
            try:
                with_retries(lambda: faults.fire(site), policy=self.retry_policy)
            except TornWrite as torn:
                append_bytes(path, record[: torn.keep_bytes(len(record))])
                raise InjectedCrash(f"torn append in {path.name}") from torn
        append_bytes(path, record)
        lsn = self.next_lsn
        self._active_records += 1
        if self._active_records >= self.seal_records:
            self.seal()
        return lsn

    def seal(self) -> None:
        """Promote the active segment to an immutable sealed segment.

        The publish makes the data durable under its sealed name; the
        manifest save is the commit point.  A crash between the two is
        repaired idempotently by :meth:`open`.
        """
        if self._active_records == 0:
            return
        open_path = self._segment_path(self._active_id, sealed=False)
        sealed_path = self._segment_path(self._active_id, sealed=True)
        self._fire(f"ingest.seal:{sealed_path.name}")
        publish_file(open_path, sealed_path)
        # The published-but-uncommitted window: a crash here is what the
        # idempotent seal completion in :meth:`open` repairs.
        self._fire(f"ingest.seal:commit:{sealed_path.name}")
        self._finish_seal(self._active_records)

    def _finish_seal(self, records: int) -> None:
        sealed_path = self._segment_path(self._active_id, sealed=True)
        self._sealed.append(
            {
                "id": self._active_id,
                "records": records,
                "first_lsn": self._active_first_lsn,
                "checksum": file_checksum(sealed_path),
            }
        )
        self._active_first_lsn += records
        self._active_id += 1
        self._active_records = 0
        self._save_manifest()

    def _save_manifest(self) -> None:
        payload = {
            "version": LOG_VERSION,
            "sealed": self._sealed,
            "active_id": self._active_id,
            "active_first_lsn": self._active_first_lsn,
        }
        atomic_write_text(
            self.root / LOG_MANIFEST, json.dumps(payload, sort_keys=True)
        )
        # Fires after the save (recovery.py convention): it models a crash
        # at the instant the new manifest is durable — for a truncation,
        # the window where dropped segments are orphans awaiting the sweep.
        self._fire(f"manifest.save:{LOG_MANIFEST}")

    # -- reading ------------------------------------------------------------

    def sealed_records(self, after_lsn: int = -1) -> Iterator[LogRecord]:
        """Records in sealed segments with ``lsn > after_lsn``, in order.

        Every yielded record re-verifies its digest, and each touched
        segment its whole-file checksum — a recovered applier *verifies*
        what a crashed predecessor left, it does not trust it.
        """
        for entry in self._sealed:
            first, records = entry["first_lsn"], entry["records"]
            if first + records - 1 <= after_lsn:
                continue
            path = self._segment_path(entry["id"], sealed=True)
            if file_checksum(path) != entry["checksum"]:
                raise LogCorruption(
                    f"sealed segment {path.name} fails its checksum"
                )
            payloads, intact = _scan_segment(path)
            if len(payloads) != records:
                raise LogCorruption(
                    f"sealed segment {path.name} holds {len(payloads)} intact "
                    f"records; the manifest recorded {records}"
                )
            for offset, payload in enumerate(payloads):
                lsn = first + offset
                if lsn > after_lsn:
                    yield LogRecord(lsn, _decode_rows(payload, path.name, lsn))

    # -- truncation ---------------------------------------------------------

    def truncate_behind(self, watermark_lsn: int) -> int:
        """Drop sealed segments entirely at or below the commit watermark.

        The manifest update (which stops referencing them) is the commit
        point; the unlinks run behind it and :meth:`open` sweeps any the
        crash left behind.  Returns the number of segments dropped.
        """
        kept: list[dict] = []
        dropped: list[dict] = []
        for entry in self._sealed:
            last_lsn = entry["first_lsn"] + entry["records"] - 1
            (dropped if last_lsn <= watermark_lsn else kept).append(entry)
        if not dropped:
            return 0
        self._fire(
            "ingest.compact:truncate:"
            + self._segment_name(dropped[-1]["id"], sealed=True)
        )
        self._sealed = kept
        self._save_manifest()
        for entry in dropped:
            remove_file(self._segment_path(entry["id"], sealed=True))
        return len(dropped)
