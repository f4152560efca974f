"""Crash-safe streaming ingest: durable append log + exactly-once apply.

The subsystem closes the ingest → maintain → serve loop the paper leaves
as Section 8 future work: producers append fact batches to a durable
:class:`~repro.ingest.log.AppendLog`, a :class:`StreamingIngestor` drains
sealed segments through :func:`repro.core.incremental.apply_delta` under
a commit watermark, and generation-numbered checkpoints — one v2
container per generation — make crash-anywhere recovery byte-identical
to an uninterrupted run.
"""

from __future__ import annotations

from repro.ingest.ingestor import (
    IngestError,
    IngestStats,
    StreamingIngestor,
)
from repro.ingest.log import AppendLog, LogCorruption, LogRecord

__all__ = [
    "AppendLog",
    "IngestError",
    "IngestStats",
    "LogCorruption",
    "LogRecord",
    "StreamingIngestor",
]
