"""Cube bundles: a self-contained on-disk directory for one cube.

A bundle holds everything needed to answer queries later, in one place:

* ``bundle.json`` — the commit document (:class:`~repro.storage2.publish.BundleManifest`):
  the schema, bookkeeping, and the name of the container served;
* that container — ``cube.v2``, the cube and fact table as one mapped file
  (:mod:`repro.storage2`), until ``python -m repro ingest`` commits a
  generation in its place;
* the fact relation (heap file) — nothing in the package reads it; the
  ``benchmarks/e2e`` harness still sizes it (``v1_disk_bytes``).

``save_bundle`` / ``open_bundle`` are what the command-line interface
(:mod:`repro.cli`) builds on; they are equally usable as a library API.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.core.model import CubeSchema
from repro.core.storage import CubeStorage
from repro.query.cache import FactCache, ResultCache
from repro.relational.catalog import Catalog
from repro.relational.table import Table
from repro.storage2.mapped import MappedCube, open_v2
from repro.storage2.publish import (
    BUNDLE_META,
    V2_FILE,
    BundleManifest,
    read_manifest,
    write_manifest,
    write_v2,
)

FACT_RELATION = "fact"
#: Directory of the append log ``python -m repro ingest`` keeps in a bundle.
STREAM_LOG_DIR = "ingest.log"


def save_bundle(
    directory: str | Path,
    schema: CubeSchema,
    fact: Table,
    storage: CubeStorage,
    extra: dict | None = None,
) -> Path:
    """Write a complete cube bundle; the directory must not already hold one.

    The fact heap goes first, then the ``cube.v2`` container every reader
    maps, encoded from the in-memory cube and fact table (write → fsync →
    rename), then ``bundle.json`` naming it at generation −1: that last
    write is the commit, so a directory without it is not a bundle
    whatever else it holds.
    """
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    if (root / BUNDLE_META).exists():
        raise FileExistsError(f"{root} already contains a cube bundle")
    batch = fact.as_batch()
    catalog = Catalog(root)
    try:
        heap = catalog.create(FACT_RELATION, schema.fact_schema)
        heap.append_batch(batch)
        heap.flush()
        checksum = write_v2(
            root / V2_FILE, schema, storage, batch, faults=catalog.faults
        )
    finally:
        catalog.close()
    write_manifest(
        root, BundleManifest(schema, extra or {}, V2_FILE, checksum, len(fact))
    )
    return root


@dataclass
class CubeBundle:
    """An opened bundle: schema, the mapped container, a fact cache factory.

    ``storage`` is the mapped view of ``v2`` (no heap rows were unpacked),
    and the fact cache / planner wire over the container's fact columns.
    """

    root: Path
    schema: CubeSchema
    extra: dict
    v2: MappedCube

    @property
    def storage(self) -> CubeStorage:
        return self.v2.storage

    def fact_cache(self) -> FactCache:
        return FactCache(self.schema, table=self.v2.fact)

    def planner(
        self,
        result_cache_entries: int = 128,
        result_cache_bytes: int | None = None,
    ):
        """A ready-to-serve :class:`~repro.query.planner.CubePlanner`.

        One call wires everything querying needs over the opened bundle:
        the fact cache over the mapped fact columns (which a slice's
        pre-filter reads too) and a byte-budgeted
        :class:`~repro.query.cache.ResultCache`.  The serving layer
        builds exactly one of these and shares it across all request
        threads.
        """
        from repro.query.planner import CubePlanner

        return CubePlanner(
            self.storage,
            self.fact_cache(),
            results=ResultCache(
                max_entries=result_cache_entries,
                max_bytes=result_cache_bytes,
            ),
        )

    @property
    def fact_row_count(self) -> int:
        return len(self.v2.fact)

    def close(self) -> None:
        """Nothing to release: the map goes with the last reference."""

    def __enter__(self) -> "CubeBundle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def open_bundle(directory: str | Path) -> CubeBundle:
    """Open a bundle previously written by :func:`save_bundle`.

    ``bundle.json`` is read through the one manifest reader
    (:func:`~repro.storage2.publish.read_manifest`), and the container it
    names is mapped: the ``cube.v2`` ``save_bundle`` published, or the
    ingest generation committed since (``python -m repro ingest``).
    Opening unpacks **nothing** — no heap rows, no index builds, no
    whole-file hash.  A ``bundle.json`` this version did not write
    (without a ``version``) raises
    :class:`~repro.storage2.publish.BundleError`: rebuild the bundle.

    A container that fails structural validation raises
    :class:`~repro.storage2.format.V2FormatError` (fail closed; a damaged
    container must be noticed, not silently routed around).  Section-level
    bit flips surface the same way, lazily, on first access.
    """
    root = Path(directory)
    manifest = read_manifest(root)
    container = root / manifest.container
    if not container.exists():
        raise RuntimeError(
            f"{root} has no {container.name} to serve; rebuild the bundle"
        )
    return CubeBundle(
        root, manifest.schema, manifest.extra, open_v2(container, manifest.schema)
    )
