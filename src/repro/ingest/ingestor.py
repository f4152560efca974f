"""Exactly-once delta application under a durable commit watermark.

The :class:`StreamingIngestor` is the consumer side of the ingest loop:
it drains *sealed* records from the :class:`~repro.ingest.log.AppendLog`
through :func:`repro.core.incremental.apply_delta`, and periodically
checkpoints the maintained cube *and* its fact table as **one file per
generation** — the v2 container ``<prefix>.g<k>.cube.v2``
(:func:`repro.storage2.publish.write_v2`), written straight from the
in-memory structures and atomically renamed into the catalog directory.

**The watermark protocol.**  The ingest manifest
(``<prefix>.ingest.json``) is the single commit point.  It records the
current generation, the name and SHA-256 of its container, and
``applied_lsn`` — the LSN of the last log record folded into that
generation.  All maintenance between checkpoints happens in memory;
nothing the applier does before the manifest flips is observable after a
crash.  Recovery therefore has one shape regardless of where the crash
landed: verify and load the generation the manifest names (the file
checksum from the manifest, then the container's own directory and
per-section checksums — fail closed), re-open the log (which repairs its
own torn tail), and re-apply every sealed record past ``applied_lsn``.  A
record is applied exactly once per surviving generation — never zero
times (it is sealed and durable before it is eligible) and never twice
(the watermark moves with the generation that absorbed it) — and because
:func:`apply_delta`, CURE+ post-processing, and the drift-driven
compaction decision are all deterministic, the recovered cube is
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
commit-point semantics.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.cure import build_cube
from repro.core.incremental import apply_delta, drift_report, validate_delta
from repro.core.model import CubeSchema
from repro.core.postprocess import postprocess_plus
from repro.core.storage import CubeStorage
from repro.ingest.log import AppendLog
from repro.query.planner import CubePlanner, build_indices
from repro.relational.durable import (
    atomic_write_text,
    file_checksum,
    maybe_fire,
    remove_file,
)
from repro.relational.engine import Engine
from repro.relational.table import Table
from repro.storage2.format import V2FormatError
from repro.storage2.load import committed_container, load_v2
from repro.storage2.publish import write_v2

INGEST_MANIFEST_VERSION = 2


def generation_container(prefix: str, generation: int) -> str:
    """File name of one generation's v2 container in the catalog root."""
    return f"{prefix}.g{generation}.cube.v2"


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
    :class:`~repro.query.planner.CubePlanner` via ``planner`` to get
    fine-grained result-cache invalidation after every applied record
    (and a storage re-point after compaction).

    Requirements mirror :func:`apply_delta`: a non-DR, non-partitioned
    cube with all-distributive aggregates, and a fact table that fits in
    memory (the ingestor owns the authoritative in-memory copy).
    """

    schema: CubeSchema
    engine: Engine
    log: AppendLog
    storage: CubeStorage
    fact_table: Table
    prefix: str = "stream"
    planner: CubePlanner | None = field(default=None, repr=False)
    plus: bool = False
    compact_overhead: float | None = None
    generation: int = -1
    applied_lsn: int = -1
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
        prefix: str = "stream",
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
        log = AppendLog.open(
            log_root,
            faults=engine.catalog.faults,
            seal_records=seal_records,
            retry_policy=engine.retry_policy,
        )
        ingestor = cls(
            schema=schema,
            engine=engine,
            log=log,
            storage=_build(schema, fact_table, plus),
            fact_table=fact_table,
            prefix=prefix,
            plus=plus,
            compact_overhead=compact_overhead,
        )
        ingestor.checkpoint()
        ingestor.apply_ready()
        return ingestor

    @classmethod
    def recover(
        cls,
        schema: CubeSchema,
        engine: Engine,
        log_root: str | Path,
        *,
        prefix: str = "stream",
        seal_records: int = 64,
    ) -> "StreamingIngestor":
        """Reload the last committed generation and replay past it.

        The container the manifest names is *verified* before it is
        trusted — its whole-file checksum against the manifest, then its
        own directory and per-section checksums as it loads, then the row
        count; the log repairs its own torn tail on open; stale
        generations from crashed checkpoints are swept.  Raises
        :class:`IngestError` when no generation ever committed — the
        caller bootstraps from its source data instead — and when the
        committed one is damaged (fail closed: never a partial load).
        """
        catalog = engine.catalog
        manifest_path = catalog.root / f"{prefix}.ingest.json"
        if not manifest_path.exists():
            raise IngestError(
                f"no ingest manifest at {manifest_path}; nothing committed "
                f"— bootstrap from the source fact table instead"
            )
        payload = json.loads(manifest_path.read_text())
        if payload.get("version") != INGEST_MANIFEST_VERSION:
            raise IngestError(
                f"ingest manifest at {manifest_path} has an unsupported "
                f"version"
            )
        try:
            container = committed_container(
                catalog.root / str(payload["container"]),
                payload["container_checksum"],
            )
            storage, fact_table = load_v2(container, schema)
        except V2FormatError as error:
            raise IngestError(
                f"committed ingest generation fails verification: {error}"
            ) from error
        if len(fact_table) != int(payload["fact_rows"]):
            raise IngestError(
                f"container {container.name!r} holds {len(fact_table)} fact "
                f"rows; the manifest recorded {payload['fact_rows']}"
            )
        log = AppendLog.open(
            log_root,
            faults=catalog.faults,
            seal_records=seal_records,
            retry_policy=engine.retry_policy,
        )
        ingestor = cls(
            schema=schema,
            engine=engine,
            log=log,
            storage=storage,
            fact_table=fact_table,
            prefix=prefix,
            plus=bool(payload["plus"]),
            compact_overhead=payload["compact_overhead"],
            generation=int(payload["generation"]),
            applied_lsn=int(payload["applied_lsn"]),
        )
        ingestor._sweep_stale_generations()
        ingestor.apply_ready()
        return ingestor

    # -- producing ----------------------------------------------------------

    def append(self, rows: list[tuple]) -> int:
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

        Records apply in LSN order; after each one the CURE+ property is
        restored (if enabled), the planner's result cache is invalidated
        fine-grainedly from the delta's dimension codes (and its inverted
        indices, if it has any, are rebuilt over the grown fact table), and
        the drift trigger is evaluated — per record, so replay after a
        crash makes the identical compaction decisions at the identical
        points.
        Returns the number of records applied.
        """
        catalog = self.engine.catalog
        # Materialize first: compaction inside the loop truncates the log
        # behind the watermark, and the records already sealed are
        # immutable either way.
        records = list(self.log.sealed_records(self.applied_lsn))
        for record in records:
            maybe_fire(catalog.faults, f"ingest.apply:{record.lsn}")
            report = apply_delta(
                self.storage, self.schema, self.fact_table, record.rows
            )
            if self.plus:
                postprocess_plus(self.storage)
            self.applied_lsn = record.lsn
            self.stats.records_applied += 1
            self.stats.rows_applied += len(record.rows)
            if self.planner is not None:
                self.stats.results_dropped += self.planner.invalidate_results(
                    report
                )
                if self.planner.indices:
                    # An indexed slice keeps only row-ids its postings
                    # hold; the delta's rows must be among them.
                    self.planner.indices = build_indices(
                        self.schema, self.fact_table.as_batch()
                    )
            self._maybe_compact()
        return len(records)

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
        container); the ingest-manifest write after it is the commit,
        behind which the log is truncated to the watermark and the
        previous generation's file is removed.
        """
        catalog = self.engine.catalog
        new_gen = self.generation + 1
        cube_prefix = self._cube_prefix(new_gen)
        self._drop_generation(new_gen)
        container = write_v2(  # fires ``storage2.publish`` before writing
            catalog.root / generation_container(self.prefix, new_gen),
            self.schema,
            self.storage,
            self.fact_table.as_batch(),
            cube_prefix=cube_prefix,
            fact_relation=f"{cube_prefix}.fact",
            faults=catalog.faults,
        )
        # The written-but-uncommitted window: the container is durable
        # and nothing references it yet.
        maybe_fire(catalog.faults, f"checkpoint.write:{container.name}")
        self.stats.checkpoints += 1
        payload = {
            "version": INGEST_MANIFEST_VERSION,
            "prefix": self.prefix,
            "generation": new_gen,
            "container": container.name,
            "container_checksum": file_checksum(container),
            "applied_lsn": self.applied_lsn,
            "plus": self.plus,
            "compact_overhead": self.compact_overhead,
            "fact_rows": len(self.fact_table),
        }
        # THE commit point.
        atomic_write_text(self.manifest_path, json.dumps(payload, sort_keys=True))
        maybe_fire(catalog.faults, f"manifest.save:{self.prefix}.ingest")
        old_gen = self.generation
        self.generation = new_gen
        # Behind the commit point: everything from here is garbage
        # collection a crash can leave half-done without consequence.
        self.log.truncate_behind(self.applied_lsn)
        if old_gen >= 0:
            self._drop_generation(old_gen)

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
            catalog.faults,
            f"ingest.compact:{self._cube_prefix(self.generation + 1)}",
        )
        self.storage = _build(self.schema, self.fact_table, self.plus)
        if self.planner is not None:
            self.planner.storage = self.storage
            self.stats.results_dropped += self.planner.invalidate_results()
        self.stats.compactions += 1
        self.checkpoint()

    # -- geometry and GC ----------------------------------------------------

    @property
    def manifest_path(self) -> Path:
        return self.engine.catalog.root / f"{self.prefix}.ingest.json"

    def _cube_prefix(self, generation: int) -> str:
        return f"{self.prefix}.g{generation}"

    def _drop_generation(self, generation: int) -> None:
        """Remove every file of one generation (idempotent sweep)."""
        self._sweep(lambda found: found == generation)

    def _sweep_stale_generations(self) -> None:
        """Drop generations other than the committed one (crash leftovers)."""
        self._sweep(lambda found: found != self.generation)

    def _sweep(self, doomed) -> None:
        """Unlink ``<prefix>.g<k>.*`` files whose ``k`` satisfies ``doomed``.

        Walks the directory, not the catalog's relation names: a
        generation is a plain file, and what a crash strands beside it —
        the ``.wip`` sibling of an interrupted atomic write — is not a
        relation either.
        """
        pattern = re.compile(rf"^{re.escape(self.prefix)}\.g(\d+)\.")
        for path in sorted(self.engine.catalog.root.iterdir()):
            match = pattern.match(path.name)
            if match and doomed(int(match.group(1))):
                remove_file(path)


def _build(schema: CubeSchema, fact_table: Table, plus: bool) -> CubeStorage:
    """The from-scratch in-memory cube bootstrap and compaction share."""
    storage = build_cube(schema, table=fact_table).storage
    if storage.partition_level is not None:
        raise IngestError(
            "streaming maintenance needs a non-partitioned cube"
        )
    if plus:
        postprocess_plus(storage)
    return storage
