"""Crash-safe cube construction: manifest, checkpoints, resume, verify.

A partitioned CURE build is long-running — one write pass over the fact
table plus a construction phase per partition — which makes it exactly the
kind of job that dies halfway.  This module wraps the Section 4 pipeline
in a write-ahead *build manifest* so a killed build resumes instead of
restarting:

* **Stage A — partitioning.**  Partition files and the coarse node are
  written to ``….wip`` staging names and atomically published
  (write-tmp + fsync + rename) once the pass completes; the manifest then
  records their names, row counts, and SHA-256 checksums.  A resumed
  build *verifies* those checksums — a torn partition file from a crash
  mid-pass fails verification and the pass is redone; intact files are
  reused, saving one read and one write of the fact table.
* **Stage B — per-partition construction, checkpointed.**  The signature
  pool is flushed after every partition (an empty pool means the
  in-memory :class:`~repro.core.storage.CubeStorage` *is* the complete
  build state), and every ``checkpoint_every`` partitions that state is
  written as one cube-only v2 container, ``<prefix>.ckpt<k>.v2`` (no
  fact sections: a partitioned build never holds the fact table), in the
  order write → fsync → rename → directory fsync → manifest → unlink of
  the checkpoint it replaces.  The manifest names a container, with its
  whole-file SHA-256, only once it is durable, so a crash mid-checkpoint
  is invisible: resume holds the last referenced one to that checksum
  and its per-section checksums, reloads it, and re-runs only the
  partitions after it.  Four ``fsync``s, whatever the lattice size.
  Construction itself runs through the :mod:`repro.build` scheduler —
  sequential or multi-process — which delivers each partition's outcomes
  as one unit; adaptive re-partitioning (including the *local pair*
  split for intra-member skew) happens inside the executor as a task
  expansion, i.e. strictly between checkpoints: a crash mid-split
  re-runs that partition from the previous barrier, and because the
  split decisions are recomputed deterministically (exact counts over
  the same rows, same budget) the resumed build recreates identical
  ``.sub<i>`` / ``.coarseN*`` scaffolding and the cube stays
  byte-identical.
* **Stage C — coarse node + final commit.**  The finished cube is
  written the way a checkpoint is, as the cube-only container
  ``<prefix>.v2`` — the fact relation stays where it is, in the catalog,
  and is not read again — and the manifest flips to ``complete`` with the
  container's checksum and per-section row counts.  :func:`verify_cube`
  replays that checksum, re-verifies every section
  (:func:`repro.storage2.verify.verify_v2`) and cross-checks the row
  counts; the CLI exposes it as ``repro verify-cube``.

Because the pool is flushed at every partition boundary in *both* the
uninterrupted and the resumed build, the NT/CAT classification windows are
identical, and a build crashed at any injection point resumes to a cube
that is byte-identical to an uninterrupted checkpointed build — the
property the crash/resume suite enumerates exhaustively.
"""

from __future__ import annotations

import json
import time
from collections.abc import Callable
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any

from repro.build import apply_outcome, make_executor, pair_plan, single_level_plan
from repro.core.cure import (
    BuildStats,
    CubeResult,
    _fold_executor_stats,
    build_cube,
)
from repro.core.model import CubeSchema
from repro.core.partition import partition_relation, partition_relation_pair
from repro.core.partition_select import (
    PairPartitionDecision,
    PartitionDecision,
    select_partition_level,
    select_partition_pair,
)
from repro.core.signature import PoolStats, SignaturePool
from repro.core.storage import CubeStorage
from repro.relational.catalog import Catalog
from repro.relational.durable import (
    atomic_write_text,
    file_checksum,
    maybe_fire,
    remove_file,
)
from repro.relational.engine import Engine
from repro.relational.memory import MemoryBudgetExceeded
from repro.relational.sortops import SortStats
from repro.storage2.format import V2File, V2FormatError
from repro.storage2.load import committed_container, load_cube
from repro.storage2.publish import cube_writer, publish
from repro.storage2.verify import verify_v2

MANIFEST_VERSION = 2

STAGE_INIT = "init"
STAGE_PARTITIONED = "partitioned"
STAGE_PHASE1 = "phase1"
STAGE_COMPLETE = "complete"

_STAGING_SUFFIX = ".wip"


class ManifestError(RuntimeError):
    """The build manifest is missing, incompatible, or contradicts disk."""


def _stats_from_json(payload: dict[str, Any]) -> BuildStats:
    data = dict(payload)
    sort = SortStats(**data.pop("sort", {}))
    return BuildStats(sort=sort, **data)


@dataclass
class BuildManifest:
    """The durable record of one cube build's progress.

    Serialized as JSON (atomically — the manifest is itself a committed
    artifact) after every stage transition and checkpoint.  Checksums are
    SHA-256 over whole files: a staged partition's data file, a
    checkpoint's or the final cube's v2 container.
    """

    relation: str
    prefix: str
    stage: str = STAGE_INIT
    options: dict[str, Any] = field(default_factory=dict)
    fact_checksum: str = ""
    fact_rows: int = 0
    partition_mode: str = "single"
    partition_level: int | None = None
    partition_level2: int | None = None
    partitions: list[dict[str, Any]] = field(default_factory=list)
    coarse: dict[str, Any] | None = None
    coarse2: dict[str, Any] | None = None
    checkpoint: dict[str, Any] | None = None
    final: dict[str, Any] | None = None
    stats: dict[str, Any] | None = None

    def save(self, path: Path) -> None:
        payload = {"version": MANIFEST_VERSION, **asdict(self)}
        atomic_write_text(path, json.dumps(payload, sort_keys=True))

    @classmethod
    def load(cls, path: Path) -> "BuildManifest":
        if not path.exists():
            raise ManifestError(f"no build manifest at {path}")
        payload = json.loads(path.read_text())
        if payload.pop("version", None) != MANIFEST_VERSION:
            raise ManifestError(
                f"manifest at {path} has an unsupported version"
            )
        return cls(**payload)


@dataclass
class VerificationReport:
    """Outcome of :func:`verify_cube`: checksum + cardinality replay."""

    ok: bool
    checked_sections: int
    problems: list[str]

    def describe(self) -> str:
        if self.ok:
            return f"cube verified: {self.checked_sections} sections match"
        lines = [f"cube verification FAILED ({len(self.problems)} problems)"]
        lines.extend(f"  - {problem}" for problem in self.problems)
        return "\n".join(lines)


@dataclass
class DurableCubeBuild:
    """A crash-safe, resumable cube build over a named relation.

    ``build()`` starts from scratch (overwriting any previous manifest);
    ``resume()`` picks up after a crash, verifying every artifact the
    crashed build claimed to have committed before trusting it.  The two
    paths produce byte-identical cubes because the signature pool is
    flushed at every partition boundary either way.

    ``checkpoint_every`` trades checkpoint I/O against re-done work on
    resume; the flush *barriers* happen every partition regardless, so
    the cadence never changes the cube's content.

    ``workers`` selects the build executor (see :mod:`repro.build`); it
    is deliberately *not* part of the recorded build options — a build
    crashed under one executor may resume under another, because every
    executor produces the same bytes and the same checkpoints.
    """

    schema: CubeSchema
    engine: Engine
    relation: str
    prefix: str = "cube"
    pool_capacity: int | None = 1_000_000
    min_count: int = 1
    dr_mode: bool = False
    partition_strategy: str = "exact"
    checkpoint_every: int = 1
    workers: int = 1

    @property
    def manifest_path(self) -> Path:
        return self.engine.catalog.root / f"{self.prefix}.manifest.json"

    # -- entry points -------------------------------------------------------

    def build(self) -> CubeResult:
        """Run a fresh build, discarding any earlier manifest or state."""
        manifest = BuildManifest(
            relation=self.relation,
            prefix=self.prefix,
            options=self._options(),
            fact_checksum=self.engine.catalog.checksum(self.relation),
            fact_rows=len(self.engine.relation(self.relation)),
        )
        self._save_manifest(manifest)
        return self._run(manifest)

    def resume(self) -> CubeResult:
        """Continue a crashed build from its last committed state."""
        manifest = BuildManifest.load(self.manifest_path)
        if manifest.relation != self.relation or manifest.prefix != self.prefix:
            raise ManifestError(
                f"manifest at {self.manifest_path} describes relation "
                f"{manifest.relation!r} / prefix {manifest.prefix!r}, not "
                f"{self.relation!r} / {self.prefix!r}"
            )
        if manifest.options != self._options():
            raise ManifestError(
                "build options changed since the manifest was written; "
                "resuming would mix incompatible cubes — run build() instead"
            )
        actual = self.engine.catalog.checksum(self.relation)
        if actual != manifest.fact_checksum:
            raise ManifestError(
                f"fact relation {self.relation!r} changed since the build "
                f"started; a resumed cube would not describe it"
            )
        return self._run(manifest)

    def _options(self) -> dict[str, Any]:
        return {
            "pool_capacity": self.pool_capacity,
            "min_count": self.min_count,
            "dr_mode": self.dr_mode,
            "partition_strategy": self.partition_strategy,
        }

    def _save_manifest(self, manifest: BuildManifest) -> None:
        """Commit the manifest, then expose the commit as a crash point.

        The injection site fires *after* the save: it models a crash at
        the instant the new manifest is durable (a crash just before the
        save is the same state as a crash after the previous operation,
        which the surrounding sites already cover).
        """
        manifest.save(self.manifest_path)
        maybe_fire(
            self.engine.catalog.faults, f"manifest.save:{self.prefix}"
        )

    # -- the driver ---------------------------------------------------------

    def _run(self, manifest: BuildManifest) -> CubeResult:
        engine = self.engine
        catalog = engine.catalog
        started = time.perf_counter()

        if manifest.stage == STAGE_COMPLETE:
            report = verify_cube(catalog, self.manifest_path)
            if not report.ok:
                raise ManifestError(
                    "manifest says the build completed but the cube fails "
                    "verification:\n" + report.describe()
                )
            container = catalog.root / str((manifest.final or {})["container"])
            storage = load_cube(V2File.open(container), self.schema)
            storage.row_resolver = self._resolver()
            stats = _stats_from_json(manifest.stats or {})
            return CubeResult(storage, stats, PoolStats(), None)

        heap = engine.relation(self.relation)
        pool_bytes = (
            SignaturePool.size_bytes(self.pool_capacity, self.schema.n_aggregates)
            if self.pool_capacity
            else 0
        )
        if engine.memory.fits(heap.size_bytes + pool_bytes):
            # In-memory fast path: nothing partial ever reaches disk, so
            # there is no intermediate state to checkpoint — build whole,
            # then commit atomically.
            result = build_cube(
                self.schema,
                engine=engine,
                relation=self.relation,
                pool_capacity=self.pool_capacity,
                min_count=self.min_count,
                dr_mode=self.dr_mode,
                partition_strategy=self.partition_strategy,
            )
            self._commit_final(manifest, result.storage, result.stats)
        else:
            result = self._run_partitioned(manifest, pool_bytes)
        result.stats.elapsed_seconds = time.perf_counter() - started
        return result

    def _run_partitioned(
        self, manifest: BuildManifest, pool_bytes: int
    ) -> CubeResult:
        engine = self.engine
        catalog = engine.catalog
        heap = engine.relation(self.relation)
        decision = None

        pool_token = engine.memory.reserve(pool_bytes, what="signature pool")
        try:
            if manifest.stage in (
                STAGE_PARTITIONED,
                STAGE_PHASE1,
            ) and self._partitions_intact(manifest):
                level = int(manifest.partition_level or 0)
            else:
                decision, level = self._stage_partition(manifest)
            partition_names = [str(p["name"]) for p in manifest.partitions]

            storage = self._load_checkpoint(manifest)
            if storage is not None:
                checkpoint = manifest.checkpoint or {}
                stats = _stats_from_json(dict(checkpoint["stats"]))
                completed = int(checkpoint["completed_partitions"])
            else:
                storage = CubeStorage(self.schema, dr_mode=self.dr_mode)
                storage.partition_level = level
                storage.partition_level2 = manifest.partition_level2
                stats = _stats_from_json(manifest.stats or {})
                completed = 0
                manifest.checkpoint = None
            storage.fact_row_count = len(heap)
            storage.row_resolver = self._resolver()

            pool = SignaturePool(
                self.pool_capacity,
                on_flush=storage.write_flush,
                on_statistics=storage.decide_format,
            )
            if completed == 0:
                stats.fact_read_passes += 1  # the partitions re-read R once

            if manifest.partition_mode == "pair":
                plan = pair_plan(
                    self.schema,
                    self.min_count,
                    partition_names,
                    str((manifest.coarse or {})["name"]),
                    str((manifest.coarse2 or {})["name"]),
                    level,
                    int(manifest.partition_level2 or 0),
                )
            else:
                plan = single_level_plan(
                    self.schema,
                    self.min_count,
                    partition_names,
                    str((manifest.coarse or {})["name"]),
                    level,
                )
            executor = make_executor(engine, self.workers)
            faults = catalog.faults
            last_unit = len(plan.units) - 1
            index = completed

            def on_unit(completion) -> None:
                nonlocal index
                for outcome in completion.outcomes:
                    apply_outcome(outcome, storage, pool, stats, faults)
                    if outcome.task.drop_after:
                        catalog.drop(outcome.task.relation)
                if completion.unit.kind == "partition":
                    index += 1
                    # Barrier: with the pool empty, the in-memory storage
                    # is the complete build state — and the barrier is
                    # taken in every run, so resumed and uninterrupted
                    # builds classify NTs vs CATs over identical windows.
                    pool.flush()
                    if (
                        index % max(1, self.checkpoint_every) == 0
                        or index == len(partition_names)
                    ):
                        self._write_checkpoint(manifest, storage, stats, index)
                elif completion.unit.index == last_unit:
                    # The coarse phases share one flush window (a single
                    # coarse node, or the N1/N2 pair), exactly as the
                    # inline pipeline always flushed them.
                    pool.flush()

            executor.run(plan, on_unit, start_unit=completed)
            _fold_executor_stats(stats, executor.stats)
        finally:
            engine.memory.release(pool_token)

        self._commit_final(manifest, storage, stats)
        return CubeResult(storage, stats, pool.stats, decision)

    # -- stages -------------------------------------------------------------

    def _stage_partition(
        self, manifest: BuildManifest
    ) -> tuple[PartitionDecision | PairPartitionDecision, int]:
        """Stage A: write partition files and the coarse node — for a
        pair-partitioned build the (A_L, B_M) partitions and the two coarse
        nodes N1/N2 — to staging names, publish them atomically, record."""
        engine = self.engine
        stats = BuildStats()
        decision: PartitionDecision | PairPartitionDecision
        try:
            decision = select_partition_level(
                engine, self.relation, self.schema, self.partition_strategy
            )
        except MemoryBudgetExceeded:
            # No single level of dimension 0 works; partition on pairs of
            # leading-dimension members, checkpointed the same way.
            decision = select_partition_pair(engine, self.relation, self.schema)
        staged_coarse2 = None
        if isinstance(decision, PairPartitionDecision):
            levels = (decision.level0, decision.level1)
            staged_names, staged_coarse, staged_coarse2 = partition_relation_pair(
                engine, self.relation, self.schema, decision, stats,
                name_suffix=_STAGING_SUFFIX,
            )
        else:
            levels = (decision.level, None)
            staged_names, staged_coarse = partition_relation(
                engine, self.relation, self.schema, decision, stats,
                name_suffix=_STAGING_SUFFIX,
            )
        manifest.partitions = [
            self._publish_staged(staged) for staged in staged_names
        ]
        manifest.coarse = self._publish_staged(staged_coarse)
        manifest.coarse2 = (
            self._publish_staged(staged_coarse2) if staged_coarse2 else None
        )
        manifest.partition_mode = "pair" if staged_coarse2 else "single"
        manifest.partition_level, manifest.partition_level2 = levels
        manifest.stage = STAGE_PARTITIONED
        manifest.checkpoint = None
        manifest.stats = asdict(stats)
        self._save_manifest(manifest)
        return decision, levels[0]

    def _publish_staged(self, staged: str) -> dict[str, Any]:
        """Promote one staged relation to its final name; record checksums."""
        catalog = self.engine.catalog
        final = staged[: -len(_STAGING_SUFFIX)]
        catalog.publish(staged, final)
        return {
            "name": final,
            "checksum": catalog.checksum(final),
            "rows": len(catalog.open(final)),
        }

    def _publish_cube(self, name: str, storage: CubeStorage) -> dict[str, Any]:
        """Publish the cube as the container ``name``; its manifest entry."""
        catalog = self.engine.catalog
        writer = cube_writer(storage, self.prefix, self.relation)
        container = publish(catalog.root / name, writer, catalog.faults)
        return {
            "container": container.name,
            "checksum": file_checksum(container),
            "row_counts": writer.row_counts(),
        }

    def _write_checkpoint(
        self,
        manifest: BuildManifest,
        storage: CubeStorage,
        stats: BuildStats,
        completed: int,
    ) -> None:
        """Publish the build state as one container; flip the manifest to it.

        The manifest is the commit point and is saved only once the
        container is durable: a crash before the save leaves it pointing
        at the previous (intact) checkpoint, whose file goes only after
        the flip.  A half-written or unreferenced container is replaced
        when its id is reused and swept by the final commit.
        """
        catalog = self.engine.catalog
        previous = manifest.checkpoint
        ckpt_id = int(previous["id"]) + 1 if previous else 0
        entry = self._publish_cube(f"{self.prefix}.ckpt{ckpt_id}.v2", storage)
        # The written-but-uncommitted window: durable, referenced by nothing.
        maybe_fire(catalog.faults, f"checkpoint.write:{entry['container']}")
        manifest.checkpoint = {
            **entry,
            "id": ckpt_id,
            "completed_partitions": completed,
            "stats": asdict(stats),
        }
        manifest.stage = STAGE_PHASE1
        self._save_manifest(manifest)
        if previous is not None:
            remove_file(catalog.root / str(previous["container"]))

    def _commit_final(
        self,
        manifest: BuildManifest,
        storage: CubeStorage,
        stats: BuildStats,
    ) -> None:
        """Stage C: publish the cube as ``<prefix>.v2``, flip to complete."""
        catalog = self.engine.catalog
        maybe_fire(catalog.faults, f"commit.final:{self.prefix}")
        manifest.final = self._publish_cube(f"{self.prefix}.v2", storage)
        manifest.stage = STAGE_COMPLETE
        manifest.checkpoint = None
        manifest.stats = asdict(stats)
        self._save_manifest(manifest)
        # Best-effort cleanup of build scaffolding; a crash here costs
        # only disk space, never correctness.  The prefixed sweep also
        # catches adaptive re-partitioning leftovers (`<partition>.sub<i>`,
        # `.coarseN`, `.coarseN1/2`) from crashed attempts that a resumed
        # run superseded.
        for leftover in sorted(catalog.root.glob(f"{self.prefix}.ckpt*")):
            remove_file(leftover)
        for entry in manifest.partitions:
            self._drop_prefixed(str(entry["name"]) + ".")
            if catalog.exists(str(entry["name"])):
                catalog.drop(str(entry["name"]))
        for coarse_entry in (manifest.coarse, manifest.coarse2):
            if coarse_entry and catalog.exists(str(coarse_entry["name"])):
                catalog.drop(str(coarse_entry["name"]))

    # -- verification helpers -----------------------------------------------

    def _partitions_intact(self, manifest: BuildManifest) -> bool:
        catalog = self.engine.catalog
        entries = [*manifest.partitions, manifest.coarse]
        if manifest.partition_mode == "pair":
            entries.append(manifest.coarse2)
        return bool(manifest.partitions) and all(
            entry is not None
            and catalog.exists(str(entry["name"]))
            and catalog.checksum(str(entry["name"])) == entry["checksum"]
            for entry in entries
        )

    def _load_checkpoint(self, manifest: BuildManifest) -> CubeStorage | None:
        """The referenced checkpoint's cube, or None when there is none to
        trust: a container that is missing, fails the manifest's checksum
        or any section's own is not loaded in part — the build restarts
        from partition 0."""
        checkpoint = manifest.checkpoint
        if checkpoint is None:
            return None
        try:
            container = committed_container(
                self.engine.catalog.root / str(checkpoint["container"]),
                str(checkpoint["checksum"]),
            )
            return load_cube(V2File.open(container), self.schema)
        except V2FormatError:
            return None

    def _resolver(self) -> Callable[[int], tuple[int, ...]]:
        heap = self.engine.relation(self.relation)
        schema = self.schema
        return lambda rowid: schema.dim_values(heap.read_row(rowid))

    def _drop_prefixed(self, prefix: str) -> None:
        catalog = self.engine.catalog
        for name in catalog.names():
            if name.startswith(prefix):
                catalog.drop(name)


def verify_cube(catalog: Catalog, manifest_path: Path) -> VerificationReport:
    """Replay a completed build's checksums and cardinalities.

    Checks, against the manifest: that the build reached ``complete``;
    that the final container's SHA-256 matches; that every section
    passes its own checksum and decodes
    (:func:`~repro.storage2.verify.verify_v2`); that the sections are the
    recorded ones with the recorded row counts (node NT/TT/CAT
    cardinalities, AGGREGATES); and that the fact relation still holds the
    number of rows the cube was built over.
    Exposed as ``repro verify-cube``.
    """
    try:
        manifest = BuildManifest.load(manifest_path)
    except ManifestError as error:
        return VerificationReport(False, 0, [str(error)])
    if manifest.stage != STAGE_COMPLETE:
        problem = (
            f"build did not complete (stage {manifest.stage!r}); "
            f"resume it before verifying"
        )
        return VerificationReport(False, 0, [problem])
    final = manifest.final or {}
    container = catalog.root / str(final.get("container"))
    problems: list[str] = []
    if file_checksum(container) != final.get("checksum"):
        problems.append(f"checksum mismatch for {container.name!r}")
    report = verify_v2(container)
    if report.problems:  # not openable: there are no sections to compare
        return VerificationReport(False, 0, problems + report.problems)
    problems.extend(
        f"section {section.name!r}: {section.problem}"
        for section in report.sections
        if not section.ok
    )
    recorded = dict(final.get("row_counts", {}))
    found = {section.name: section.rows for section in report.sections}
    for name in sorted(recorded.keys() | found.keys()):
        if recorded.get(name) != found.get(name):
            problems.append(
                f"cardinality mismatch for section {name!r}: manifest "
                f"{recorded.get(name)}, container {found.get(name)}"
            )
    if catalog.exists(manifest.relation):
        rows = len(catalog.open(manifest.relation))
        if rows != manifest.fact_rows:
            problems.append(
                f"fact relation {manifest.relation!r} has {rows} rows; "
                f"the cube was built over {manifest.fact_rows}"
            )
    return VerificationReport(not problems, len(report.sections), problems)
