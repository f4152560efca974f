"""Audited durability primitives: atomic publishes, checksums, retries.

Crash safety in this substrate rests on three small, auditable moves, all
of which live in this module (cubelint rule R9 bans the raw primitives —
``open`` for writing, ``os.replace`` — everywhere outside ``relational/``
and ``faults/``):

* **atomic publish** — data is written to a temporary sibling, flushed,
  ``fsync``'d, and renamed over the final name, so any observer sees
  either the complete old file or the complete new file, never a torn
  one;
* **checksums** — every committed artifact is fingerprinted so a resumed
  build can *verify* rather than trust what a crashed predecessor left
  behind;
* **bounded retries** — transient I/O failures are retried with
  exponential backoff instead of aborting a multi-partition build.

The module also defines the fault-injection *protocol*: the relational
layer calls :func:`maybe_fire` at its injection points and the concrete
injector (:mod:`repro.faults`) decides whether to raise.  Keeping the
protocol here and the injector in its own package avoids an import cycle
and keeps ``relational/`` free of test-harness code.
"""

from __future__ import annotations

import hashlib
import os
import time
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol, TypeVar

from orjson import loads

_T = TypeVar("_T")

_CHUNK_BYTES = 1 << 20


class TransientIOError(OSError):
    """An I/O failure worth retrying (environmental or injected)."""


class InjectedCrash(RuntimeError):
    """Simulated process death at an injection point.

    Build code must never catch this: the fault harness uses it to model
    ``kill -9`` at an arbitrary instruction boundary, so anything that
    swallows it would be hiding exactly the window crash-safety tests are
    probing.
    """


class TornWrite(Exception):
    """Protocol exception: the active fault demands a partial write.

    Raised by a fault hook at a ``heap.write`` site; the writer responds
    by persisting only a prefix of its payload and then re-raising
    :class:`InjectedCrash`, modelling a power loss mid-``write(2)``.
    """

    def __init__(self, keep_fraction: float = 0.5) -> None:
        super().__init__(f"torn write (keep {keep_fraction:.0%})")
        self.keep_fraction = keep_fraction

    def keep_bytes(self, total: int) -> int:
        kept = int(total * self.keep_fraction)
        return max(0, min(total - 1, kept)) if total else 0


class FaultHook(Protocol):
    """What the relational layer needs from a fault injector."""

    def fire(self, site: str) -> None: ...


#: A document's keys and the types each may hold.
Fields = dict[str, tuple[type, ...]]


def maybe_fire(hook: FaultHook | None, site: str) -> None:
    """Fire one injection point if a hook is installed (else free)."""
    if hook is not None:
        hook.fire(site)


# -- checksums -----------------------------------------------------------------


def file_checksum(path: str | Path) -> str:
    """SHA-256 of a file's bytes; a missing file hashes as empty."""
    digest = hashlib.sha256()
    target = Path(path)
    if target.exists():
        with open(target, "rb") as handle:
            while True:
                block = handle.read(_CHUNK_BYTES)
                if not block:
                    break
                digest.update(block)
    return digest.hexdigest()


# -- atomic writes -------------------------------------------------------------


def read_document(
    path: Path, version: int, fields: Fields, error: type[Exception]
) -> dict:
    """The JSON object at ``path``, checked once: it must carry
    ``version`` and every key of ``fields`` with one of that key's types,
    or ``error`` is raised naming the file (and the key)."""
    try:
        payload = loads(path.read_bytes())
    except ValueError:  # bad UTF-8 or bad JSON (``orjson.JSONDecodeError``)
        raise error(f"{path} is not JSON") from None
    if not isinstance(payload, dict):
        raise error(f"{path} is not a JSON object")
    if payload.get("version") != version:
        raise error(f"{path} has an unsupported version")
    check_fields(payload, fields, str(path), error)
    return payload


def check_fields(
    mapping: object, fields: Fields, where: str, error: type[Exception]
) -> None:
    """Raise ``error`` unless ``mapping`` is a JSON object that holds
    every key of ``fields``, each with one of that key's types (``bool``
    is an ``int`` but only counts as a ``bool``; a key that may be
    ``null`` must still be there)."""
    if not isinstance(mapping, dict):
        raise error(f"{where} is not a JSON object")
    for key, kinds in fields.items():
        value = mapping.get(key)
        if (
            key not in mapping
            or not isinstance(value, kinds)
            or (isinstance(value, bool) and bool not in kinds)
        ):
            raise error(f"{where} has no valid {key!r}")


def fsync_directory(path: str | Path) -> None:
    """Flush a directory's entry table (best effort across platforms)."""
    try:
        fd = os.open(Path(path), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    """Write-tmp + flush + fsync + rename: never observable half-written."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    tmp = target.with_name(target.name + ".wip")
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, target)
    fsync_directory(target.parent)


def atomic_write_text(path: str | Path, text: str) -> None:
    """UTF-8 variant of :func:`atomic_write_bytes`."""
    atomic_write_bytes(path, text.encode("utf-8"))


def atomic_write_chunks(path: str | Path, chunks: Iterable[bytes]) -> str:
    """Streaming variant of :func:`atomic_write_bytes`; returns the
    file's SHA-256 hex digest (what :func:`file_checksum` would read
    back), hashed as the chunks go out.

    The chunks are written to the temporary sibling in order through a
    ``_CHUNK_BYTES`` buffer, so many small chunks cost few ``write``
    calls, flushed and ``fsync``'d as one unit, then renamed into place:
    the same old-file-or-new-file guarantee, without assembling a large
    payload (a compacted cube container) in one contiguous buffer first.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    tmp = target.with_name(target.name + ".wip")
    digest = hashlib.sha256()
    with open(tmp, "wb", _CHUNK_BYTES) as handle:
        for chunk in chunks:
            digest.update(chunk)
            handle.write(chunk)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, target)
    fsync_directory(target.parent)
    return digest.hexdigest()


def append_bytes(path: str | Path, data: bytes) -> None:
    """Durably append ``data`` to the end of ``path`` (created if absent).

    The write is flushed and ``fsync``'d before returning, so a record
    appended through this primitive is on stable storage when the call
    completes.  Appends are *not* atomic the way :func:`atomic_write_bytes`
    is — a crash mid-append can leave a torn tail — so callers must frame
    records with lengths and checksums and truncate the tail on open (the
    ingest log's protocol).
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with open(target, "ab") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())


def truncate_file(path: str | Path, length: int) -> None:
    """Durably truncate ``path`` to its first ``length`` bytes.

    Used to cut a torn tail off an append log segment; the shrink is
    flushed through the same handle before returning.
    """
    with open(Path(path), "r+b") as handle:
        handle.truncate(length)
        handle.flush()
        os.fsync(handle.fileno())


def publish_file(tmp_path: str | Path, final_path: str | Path) -> None:
    """Durably promote an already-written file to its final name.

    The source is fsync'd first so the rename never publishes bytes that
    only existed in the page cache, then renamed (atomic within a file
    system), then the directory entry is flushed.
    """
    source = Path(tmp_path)
    with open(source, "rb") as handle:
        os.fsync(handle.fileno())
    os.replace(source, final_path)
    fsync_directory(Path(final_path).parent)


def remove_file(path: str | Path) -> None:
    """Audited unlink (missing files are fine)."""
    Path(path).unlink(missing_ok=True)


# -- bounded retries -----------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff for :class:`TransientIOError`."""

    max_attempts: int = 4
    base_delay_seconds: float = 0.002
    max_delay_seconds: float = 0.05

    def delay(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (0-based), capped."""
        return min(
            self.base_delay_seconds * (2**attempt), self.max_delay_seconds
        )


def with_retries(
    operation: Callable[[], _T],
    policy: RetryPolicy | None = None,
    sleep: Callable[[float], None] = time.sleep,
    on_retry: Callable[[int, TransientIOError], None] | None = None,
) -> _T:
    """Run ``operation``, retrying transient I/O errors under ``policy``.

    Only :class:`TransientIOError` is retried; every other exception —
    including :class:`InjectedCrash` — propagates immediately.  ``sleep``
    is injectable so tests stay instantaneous.
    """
    active = policy if policy is not None else RetryPolicy()
    attempt = 0
    while True:
        try:
            return operation()
        except TransientIOError as error:
            attempt += 1
            if attempt >= active.max_attempts:
                raise
            if on_retry is not None:
                on_retry(attempt, error)
            sleep(active.delay(attempt - 1))
