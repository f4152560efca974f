"""Exactly-once delta application under a durable commit watermark.

The :class:`StreamingIngestor` is the consumer side of the ingest loop:
it drains *sealed* records from the :class:`~repro.ingest.log.AppendLog`
through :func:`repro.core.incremental.apply_delta`, and periodically
checkpoints the maintained cube *and* its fact table as **one file per
generation** — the v2 container ``stream.g<k>.cube.v2``
(:func:`repro.storage2.publish.write_v2`), written straight from the
in-memory structures and atomically renamed into the catalog directory.

**The watermark protocol.**  The directory's ``bundle.json``
(:class:`~repro.storage2.publish.BundleManifest`) is the single commit
point, the same document a saved bundle commits with.  It records the
schema, the current generation, the name and SHA-256 of its container,
and ``applied_lsn`` — the LSN of the last log record folded into that
generation.  All maintenance between checkpoints happens in memory;
nothing the applier does before the manifest flips is observable after a
crash.  Recovery therefore has one shape regardless of where the crash
landed: read the manifest, verify and map the container it names (the
file checksum from the manifest, then the container's own directory and
per-section checksums — fail closed), re-open the log (which repairs its
own torn tail), and re-apply every sealed record past ``applied_lsn``.  A
record is applied exactly once per surviving generation — never zero
times (it is sealed and durable before it is eligible) and never twice
(the watermark moves with the generation that absorbed it) — and because
:func:`apply_delta` and the drift-driven compaction decision are
deterministic, the recovered cube is
byte-identical to an uninterrupted run.

A checkpoint costs four ``fsync``s (container + directory, manifest +
directory) whatever the lattice size.  Writing only the nodes a delta
touched was measured and rejected: every fact row projects into every
lattice node, so a 50-row delta changes ~90 % of the relations.

**Compaction.**  Incremental maintenance drifts the cube away from the
fully condensed form (demoted CATs, localized TTs).  When the cheap
drift estimate (``drift_report(exact=False)``) crosses
``compact_overhead``, the ingestor rebuilds the cube in memory from its
fact table — exactly what :meth:`StreamingIngestor.bootstrap` does — and
checkpoints the result, which retires the drifted generation and
truncates the log behind the watermark.  The estimate is computed from
persisted accounting, so replay after a crash makes the identical
per-record compaction decisions.

A crash *before the first manifest commit* leaves nothing to recover;
:meth:`StreamingIngestor.recover` raises :class:`IngestError` and the
caller bootstraps again from its source fact table — the standard
commit-point semantics.  A bundle :func:`~repro.bundle.save_bundle`
wrote is committed at generation −1: recovering it rebuilds the cube
from the container's fact table and commits generation 0.
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar

import numpy as np

from repro.core.cure import build_cube
from repro.core.incremental import apply_delta, drift_report, validate_delta
from repro.core.model import CubeSchema
from repro.core.postprocess import postprocess_plus
from repro.core.storage import CubeStorage
from repro.ingest.log import AppendLog
from repro.query.planner import CubePlanner
from repro.relational.durable import maybe_fire, remove_file
from repro.relational.engine import Engine
from repro.relational.table import Table
from repro.storage2.format import V2FormatError, committed_container
from repro.storage2.mapped import MappedFactTable, map_storage
from repro.storage2.publish import (
    BUNDLE_META,
    V2_FILE,
    BundleManifest,
    read_manifest,
    write_manifest,
    write_v2,
)

#: Name prefix of every generation file the ingestor writes.
PREFIX = "stream"


def generation_container(generation: int) -> str:
    """File name of one generation's v2 container in the catalog root."""
    return f"{PREFIX}.g{generation}.cube.v2"


class IngestError(RuntimeError):
    """The ingest state is unusable: no committed generation, a verification
    failure, or a configuration the maintainer cannot stream into."""


@dataclass
class IngestStats:
    """Counters over one ingestor's lifetime (not persisted)."""

    records_appended: int = 0
    rows_appended: int = 0
    records_applied: int = 0
    rows_applied: int = 0
    checkpoints: int = 0
    compactions: int = 0
    results_dropped: int = 0


@dataclass
class StreamingIngestor:
    """Maintains one cube from an append log, exactly-once.

    Construct via :meth:`bootstrap` (fresh) or :meth:`recover` (after a
    crash); both leave the watermark drained.  Attach a
    :class:`~repro.query.planner.CubePlanner` via ``planner`` and its
    result cache is emptied after every applied record and every
    compaction (which also re-points the planner at the rebuilt
    storage): each appended row lands in every group-by, so a delta
    leaves few cached answers right, and none that a measured workload
    reads before the cache refills.  ``stats.results_dropped`` counts
    the entries cleared.

    Requirements mirror :func:`apply_delta`: a non-DR cube with
    all-distributive aggregates, and a fact table that fits in
    memory (the ingestor owns the authoritative in-memory copy).
    """

    prefix: ClassVar[str] = PREFIX

    schema: CubeSchema
    engine: Engine
    log: AppendLog
    storage: CubeStorage
    fact_table: Table
    planner: CubePlanner | None = field(default=None, repr=False)
    compact_overhead: float | None = None
    generation: int = -1
    applied_lsn: int = -1
    #: The committed manifest's ``extra`` and container (which the next
    #: checkpoint removes; ``None`` before the first commit).
    extra: dict = field(default_factory=dict)
    container: str | None = None
    stats: IngestStats = field(default_factory=IngestStats)

    # -- lifecycle ----------------------------------------------------------

    @classmethod
    def bootstrap(
        cls,
        schema: CubeSchema,
        engine: Engine,
        fact_table: Table,
        log_root: str | Path,
        *,
        plus: bool = False,
        compact_overhead: float | None = None,
        seal_records: int = 64,
    ) -> "StreamingIngestor":
        """Build the initial cube and commit generation 0.

        The build itself is in-memory; the checkpoint at the end is the
        first durable commit.  Any sealed records already in the log
        (from a producer that outran a crashed bootstrap) are applied
        once the commit lands.
        """
        ingestor = cls(
            schema=schema,
            engine=engine,
            log=_open_log(engine, log_root, seal_records),
            storage=_build(schema, fact_table, plus),
            fact_table=fact_table,
            compact_overhead=compact_overhead,
        )
        ingestor.checkpoint()
        ingestor.apply_ready()
        return ingestor

    @classmethod
    def recover(
        cls, engine: Engine, log_root: str | Path, *, seal_records: int = 64
    ) -> "StreamingIngestor":
        """Map the last committed generation and replay past it.

        Everything comes from the catalog root's ``bundle.json``
        (:func:`~repro.storage2.publish.read_manifest`, whose
        ``BundleError`` a damaged one raises), schema included.
        The container it names is *verified* before it is trusted — its
        whole-file checksum against the manifest, then its own directory
        and every section (:func:`~repro.storage2.format.committed_container`),
        then the row counts — and then mapped; the fact table shares the
        decoded columns until its first append copies them.  The log
        repairs its own torn tail on open; stale generations from crashed
        checkpoints are swept.  A saved bundle (generation −1, any
        variant's cube) gets the cube :meth:`bootstrap` builds over its
        facts, committed as generation 0.  Raises :class:`IngestError`
        when no generation ever committed — the caller bootstraps from
        its source data instead — and when the committed one is damaged
        (fail closed: never a partial load).
        """
        root = engine.catalog.root
        try:
            manifest = read_manifest(root)
        except FileNotFoundError:
            raise IngestError(
                f"no {BUNDLE_META} in {root}; nothing committed — bootstrap "
                f"from the source fact table instead"
            ) from None
        schema = manifest.schema
        try:
            file = committed_container(
                root / manifest.container,
                manifest.container_checksum,
                [dimension.base_cardinality for dimension in schema.dimensions],
            )
            storage = map_storage(schema, file)
            fact_table = Table.from_batch(MappedFactTable(schema, file).as_batch())
        except V2FormatError as error:
            raise IngestError(
                f"committed container fails verification: {error}"
            ) from error
        if len(fact_table) != manifest.fact_rows:
            raise IngestError(
                f"container {file.path.name!r} holds {len(fact_table)} fact "
                f"rows; the manifest recorded {manifest.fact_rows}"
            )
        ingestor = cls(
            schema=schema,
            engine=engine,
            log=_open_log(engine, log_root, seal_records),
            storage=storage,
            fact_table=fact_table,
            compact_overhead=manifest.compact_overhead,
            generation=manifest.generation,
            applied_lsn=manifest.applied_lsn,
            extra=manifest.extra,
            container=manifest.container,
        )
        ingestor._sweep_stale_generations()
        if ingestor.generation < 0:
            ingestor.storage = _build(schema, fact_table, storage.plus_processed)
            ingestor.checkpoint()
        ingestor.apply_ready()
        return ingestor

    # -- producing ----------------------------------------------------------

    def append(self, rows: Sequence[Sequence[int]] | np.ndarray) -> int:
        """Validate a batch against the fact schema and log it durably.

        Validation happens *before* the append so the log never carries a
        record :func:`apply_delta` would reject; returns the record's LSN.
        """
        checked = validate_delta(self.schema, rows)
        lsn = self.log.append(checked.tolist())
        self.stats.records_appended += 1
        self.stats.rows_appended += len(checked)
        return lsn

    @property
    def lag_records(self) -> int:
        """Durably appended records the cube has not absorbed yet.

        Last appended LSN − ``applied_lsn``: it counts sealed records
        awaiting :meth:`apply_ready` and records still in the active
        segment alike, and it is what a crash-recovered ingestor
        reports too (both cursors are durable).
        """
        return self.log.next_lsn - 1 - self.applied_lsn

    # -- applying -----------------------------------------------------------

    def apply_ready(self) -> int:
        """Fold every sealed record past the watermark into the cube.

        Records apply in LSN order.  A CURE+ cube stays one with no pass
        of its own: the merger puts each added row at its row-id's place
        (:func:`~repro.core.incremental.apply_delta`).  After each record
        the planner's result cache is emptied (a record is never empty:
        the log refuses one at append and fails closed on one at read),
        and the drift trigger is evaluated — per record, so replay after
        a crash makes the identical compaction decisions at the
        identical points.
        Returns the number of records applied.
        """
        catalog = self.engine.catalog
        # Materialize first: compaction inside the loop truncates the log
        # behind the watermark, and the records already sealed are
        # immutable either way.
        records = list(self.log.sealed_records(self.applied_lsn))
        for record in records:
            maybe_fire(catalog.faults, f"ingest.apply:{record.lsn}")
            apply_delta(self.storage, self.schema, self.fact_table, record.rows)
            self.applied_lsn = record.lsn
            self.stats.records_applied += 1
            self.stats.rows_applied += len(record.rows)
            self._clear_results()
            self._maybe_compact()
        return len(records)

    def _clear_results(self) -> None:
        """Empty the attached planner's result cache, counting the
        entries dropped."""
        results = None if self.planner is None else self.planner.results
        if results is not None:
            self.stats.results_dropped += results.clear()

    def _maybe_compact(self) -> None:
        if self.compact_overhead is None:
            return
        report = drift_report(
            self.storage, self.schema, self.fact_table, exact=False
        )
        if report.overhead_ratio > self.compact_overhead:
            self.compact()

    # -- committing ---------------------------------------------------------

    def checkpoint(self) -> None:
        """Publish the maintained cube and fact table as a new generation.

        One v2 container, written from memory and atomically renamed (a
        crash mid-write leaves a sweepable ``.wip`` or an unreferenced
        container, which the write truncates or replaces when the same
        generation is written again); the ``bundle.json`` write after
        it is the commit, behind which the log is truncated to the
        watermark and the container the manifest named before is
        removed by name.  :meth:`recover` is the one directory walk.
        """
        catalog = self.engine.catalog
        generation = self.generation + 1
        container = generation_container(generation)
        checksum = write_v2(  # fires ``storage2.publish`` before writing
            catalog.root / container,
            self.schema,
            self.storage,
            self.fact_table.as_batch(),
            faults=catalog.faults,
        )
        # The written-but-uncommitted window: the container is durable
        # and nothing references it yet.
        maybe_fire(catalog.faults, f"checkpoint.write:{container}")
        self.stats.checkpoints += 1
        # THE commit point.
        write_manifest(
            catalog.root,
            BundleManifest(
                self.schema, self.extra, container, checksum,
                len(self.fact_table), generation, self.applied_lsn,
                self.compact_overhead,
            ),
        )
        maybe_fire(catalog.faults, "manifest.save:bundle")
        previous, self.container = self.container, container
        self.generation = generation
        # Behind the commit point: everything from here is garbage
        # collection a crash can leave half-done without consequence.
        self.log.truncate_behind(self.applied_lsn)
        if previous is not None:
            remove_file(catalog.root / previous)

    def compact(self) -> None:
        """Rebuild the cube from the current facts and swap generations.

        The rebuild is the in-memory build :meth:`bootstrap` runs (the
        ingestor owns the whole fact table anyway); the checkpoint that
        follows commits it.  Nothing is observable before that commit, so
        a crash anywhere in here recovers the drifted generation and
        replays into the same decision.  The rebuilt cube has zero drift,
        so the trigger re-arms cleanly.
        """
        catalog = self.engine.catalog
        maybe_fire(
            catalog.faults, f"ingest.compact:{PREFIX}.g{self.generation + 1}"
        )
        self.storage = _build(
            self.schema, self.fact_table, self.storage.plus_processed
        )
        if self.planner is not None:
            self.planner.storage = self.storage
            self._clear_results()
        self.stats.compactions += 1
        self.checkpoint()

    # -- geometry and GC ----------------------------------------------------

    @property
    def manifest_path(self) -> Path:
        return self.engine.catalog.root / BUNDLE_META

    def _sweep_stale_generations(self) -> None:
        """Unlink ``stream.g<k>.*`` files of every generation but the
        committed one, and a saved bundle's ``cube.v2`` once a generation
        replaced it (crash leftovers).

        Walks the directory, not the catalog's relation names: a
        generation is a plain file, and what a crash strands beside it —
        the ``.wip`` sibling of an interrupted atomic write — is not a
        relation either.
        """
        root = self.engine.catalog.root
        pattern = re.compile(rf"^{PREFIX}\.g(\d+)\.")
        for path in sorted(root.iterdir()):
            match = pattern.match(path.name)
            if match and int(match.group(1)) != self.generation:
                remove_file(path)
        if self.generation >= 0:
            remove_file(root / V2_FILE)


def _open_log(engine: Engine, log_root: str | Path, seal_records: int) -> AppendLog:
    faults, retry_policy = engine.catalog.faults, engine.retry_policy
    return AppendLog.open(log_root, faults, seal_records, retry_policy)


def _build(schema: CubeSchema, fact_table: Table, plus: bool) -> CubeStorage:
    """The from-scratch in-memory cube bootstrap and compaction share."""
    storage = build_cube(schema, table=fact_table).storage  # never partitions
    if plus:
        postprocess_plus(storage)
    return storage
