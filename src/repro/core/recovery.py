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
* **Stage B — per-partition construction, checkpointed.**  The
  pipeline flushes the signature pool after every partition, in every
  build (an empty pool means the in-memory
  :class:`~repro.core.storage.CubeStorage` *is* the complete build
  state), and after every partition that state is written as one
  cube-only v2 container, ``<prefix>.ckpt<k>.v2`` (no
  fact sections: a partitioned build never holds the fact table), in the
  order write → fsync → rename → directory fsync → manifest → unlink of
  the checkpoint it replaces.  The manifest names a container, with its
  whole-file SHA-256, only once it is durable, so a crash mid-checkpoint
  is invisible: resume holds the last referenced one to that checksum
  and its per-section checksums, maps it, and re-runs only the
  partitions after it.  Four ``fsync``s, whatever the lattice size.
  Construction itself runs through the :mod:`repro.build` scheduler —
  the driver alone or beside helper processes — which delivers each
  partition's outcomes as one unit; adaptive re-partitioning (including
  the *local pair* split for intra-member skew) happens inside the
  executor as a task expansion, i.e. strictly between checkpoints: a
  crash mid-split re-runs that partition from the previous barrier, and
  because the split decisions are recomputed deterministically (exact
  counts over the same rows, same budget) the resumed build recreates
  identical ``.sub<i>`` / ``.coarseN*`` scaffolding and the cube stays
  byte-identical.
* **Stage C — coarse node + final commit.**  The finished cube is
  written the way a checkpoint is, as the cube-only container
  ``<prefix>.v2`` — the fact relation stays where it is, in the catalog,
  and is not read again — and the manifest flips to ``complete`` with the
  container's checksum and per-section row counts.  :func:`verify_cube`
  replays that checksum, re-verifies every section
  (:func:`repro.storage2.verify.verify_v2`) and cross-checks the row
  counts; the CLI exposes it as ``repro verify-cube``.

Because :func:`~repro.core.cure.build_partitioned` flushes the pool at
every partition boundary — in a plain ``build_cube``, an uninterrupted
durable build and a resumed one alike — the NT/CAT classification windows
are identical, and a build crashed at any injection point resumes to a
cube that is byte-identical to an uninterrupted build, journalled or not —
the property the crash/resume suites enumerate exhaustively.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any

from repro.build.parallel import check_workers
from repro.core.cure import (
    BuildStats,
    CubeResult,
    build_cube,
    build_partitioned,
    fits_beside_pool,
    signature_pool,
)
from repro.core.model import CubeSchema
from repro.core.partition import Partitioning
from repro.core.signature import PoolStats
from repro.core.storage import CubeStorage
from repro.relational.catalog import Catalog
from repro.relational.durable import (
    Fields,
    atomic_write_text,
    file_checksum,
    maybe_fire,
    read_document,
    remove_file,
)
from repro.relational.engine import Engine
from repro.relational.sortops import SortStats
from repro.storage2.format import V2File, V2FormatError, committed_container
from repro.storage2.mapped import map_storage
from repro.storage2.publish import cube_writer, publish
from repro.storage2.verify import verify_v2

MANIFEST_VERSION = 3

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
    artifact) after every stage transition and checkpoint.  ``levels`` is
    the partitioning's level per leading dimension; ``partitions`` and
    ``coarse`` list its published relations in plan order.  Checksums are
    SHA-256 over whole files: a staged partition's data file, a
    checkpoint's or the final cube's v2 container.
    """

    relation: str
    prefix: str
    stage: str = STAGE_INIT
    options: dict[str, Any] = field(default_factory=dict)
    fact_checksum: str = ""
    fact_rows: int = 0
    levels: list[int] = field(default_factory=list)
    partitions: list[dict[str, Any]] = field(default_factory=list)
    coarse: list[dict[str, Any]] = field(default_factory=list)
    checkpoint: dict[str, Any] | None = None
    final: dict[str, Any] | None = None
    stats: dict[str, Any] | None = None

    def partitioning(self) -> Partitioning:
        """The recorded partitioning of the fact relation."""
        return Partitioning(
            tuple(self.levels),
            None,
            [str(entry["name"]) for entry in self.partitions],
            [str(entry["name"]) for entry in self.coarse],
        )

    def save(self, path: Path) -> None:
        payload = {"version": MANIFEST_VERSION, **asdict(self)}
        atomic_write_text(path, json.dumps(payload, sort_keys=True))

    @classmethod
    def load(cls, path: Path) -> "BuildManifest":
        """The manifest at ``path``, read through
        :func:`~repro.relational.durable.read_document`: non-JSON, another
        version, a missing, mistyped or unknown field is a
        :class:`ManifestError` naming the file (and the field)."""
        if not path.exists():
            raise ManifestError(f"no build manifest at {path}")
        payload = read_document(path, MANIFEST_VERSION, _MANIFEST_FIELDS, ManifestError)
        del payload["version"]
        unknown = sorted(payload.keys() - _MANIFEST_FIELDS.keys())
        if unknown:
            raise ManifestError(f"{path} has an unknown field {unknown[0]!r}")
        return cls(**payload)


#: Every :class:`BuildManifest` field and the JSON types it may hold.
_MANIFEST_FIELDS: Fields = {
    "relation": (str,),
    "prefix": (str,),
    "stage": (str,),
    "options": (dict,),
    "fact_checksum": (str,),
    "fact_rows": (int,),
    "levels": (list,),
    "partitions": (list,),
    "coarse": (list,),
    "checkpoint": (dict, type(None)),
    "final": (dict, type(None)),
    "stats": (dict, type(None)),
}


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
    crashed build claimed to have committed before trusting it.  Both
    write the bytes a plain ``build_cube`` of the relation writes: the
    pipeline flushes the signature pool at every partition boundary, and
    this class checkpoints there.

    ``workers`` is how many processes run the build's tasks (see
    :mod:`repro.build`; below 1 is a ``ValueError``); it is deliberately
    *not* part of the recorded build options — a build crashed under one
    count may resume under another, because every count produces the
    same bytes and the same checkpoints.
    """

    schema: CubeSchema
    engine: Engine
    relation: str
    prefix: str = "cube"
    pool_capacity: int | None = 1_000_000
    min_count: int = 1
    dr_mode: bool = False
    partition_strategy: str = "exact"
    workers: int = 1

    def __post_init__(self) -> None:
        check_workers(self.workers)

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
            storage = map_storage(self.schema, V2File.open(container))
            stats = _stats_from_json(manifest.stats or {})
            return CubeResult(storage, stats, PoolStats(), None)

        if fits_beside_pool(
            engine, self.relation, self.schema, self.pool_capacity
        ):
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
            result = self._run_partitioned(manifest)
        result.stats.elapsed_seconds = time.perf_counter() - started
        return result

    def _run_partitioned(self, manifest: BuildManifest) -> CubeResult:
        """The Section 4 pipeline (:func:`~repro.core.cure.build_partitioned`)
        with the journal steps of stages A and B."""
        recorded = storage = None
        if manifest.stage in (
            STAGE_PARTITIONED,
            STAGE_PHASE1,
        ) and self._partitions_intact(manifest):
            recorded = manifest.partitioning()
            storage = self._load_checkpoint(manifest)
        if storage is not None:
            checkpoint = manifest.checkpoint or {}
            stats = _stats_from_json(dict(checkpoint["stats"]))
            completed = int(checkpoint["completed_partitions"])
        else:
            storage = CubeStorage(self.schema, dr_mode=self.dr_mode)
            # The recorded pass's counters; a pass that runs again counts
            # again.
            stats = (
                _stats_from_json(manifest.stats or {})
                if recorded
                else BuildStats()
            )
            completed = 0
            manifest.checkpoint = None
        pool = signature_pool(storage, self.pool_capacity)

        def on_partitioned(staged: Partitioning) -> Partitioning:
            """Stage A: publish the staged relations atomically, record."""
            manifest.levels = list(staged.levels)
            manifest.partitions = [
                self._publish_staged(name) for name in staged.partition_names
            ]
            manifest.coarse = [
                self._publish_staged(name) for name in staged.coarse_names
            ]
            manifest.stage = STAGE_PARTITIONED
            manifest.stats = asdict(stats)
            self._save_manifest(manifest)
            return manifest.partitioning()

        def on_partition(done: int) -> None:
            # The pipeline has just flushed the pool: the in-memory
            # storage is the complete build state.
            self._write_checkpoint(manifest, storage, stats, done)

        decision = build_partitioned(
            self.schema,
            storage,
            pool,
            self.min_count,
            stats,
            self.engine,
            self.relation,
            self.partition_strategy,
            self.workers,
            name_suffix=_STAGING_SUFFIX,
            on_partitioned=on_partitioned,
            recorded=recorded,
            start_unit=completed,
            on_partition=on_partition,
        )
        self._commit_final(manifest, storage, stats)
        return CubeResult(storage, stats, pool.stats, decision)

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
        writer = cube_writer(storage)
        return {
            "container": name,
            "checksum": publish(catalog.root / name, writer, catalog.faults),
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
        for entry in manifest.coarse:
            if catalog.exists(str(entry["name"])):
                catalog.drop(str(entry["name"]))

    # -- verification helpers -----------------------------------------------

    def _partitions_intact(self, manifest: BuildManifest) -> bool:
        catalog = self.engine.catalog
        return bool(manifest.partitions) and all(
            catalog.exists(str(entry["name"]))
            and catalog.checksum(str(entry["name"])) == entry["checksum"]
            for entry in [*manifest.partitions, *manifest.coarse]
        )

    def _load_checkpoint(self, manifest: BuildManifest) -> CubeStorage | None:
        """The referenced checkpoint's cube, mapped, or None when there is
        none to trust: a container that is missing, fails the manifest's
        checksum or any section's own is not used in part — the build
        restarts from partition 0.  Resume appends to the mapped relations;
        the next checkpoint's unlink of this file leaves the map readable."""
        checkpoint = manifest.checkpoint
        if checkpoint is None:
            return None
        try:
            file = committed_container(
                self.engine.catalog.root / str(checkpoint["container"]),
                str(checkpoint["checksum"]),
            )
        except V2FormatError:
            return None
        return map_storage(self.schema, file)

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
