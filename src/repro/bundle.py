"""Cube bundles: a self-contained on-disk directory for one cube.

A bundle holds everything needed to answer queries later, in one place:

* the fact relation (heap file) — CURE answers dereference into it,
* every cube relation (via :meth:`CubeStorage.persist`),
* ``bundle.json`` — the schema (dimensions with level names, roll-up maps
  and member names), the aggregate specs, and bookkeeping.

``save_bundle`` / ``open_bundle`` are what the command-line interface
(:mod:`repro.cli`) builds on; they are equally usable as a library API.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from repro.core.model import CubeSchema
from repro.core.storage import CubeStorage
from repro.hierarchy.dimension import Dimension, Level
from repro.query.cache import FactCache
from repro.relational.aggregates import make_aggregates
from repro.relational.catalog import Catalog
from repro.relational.durable import atomic_write_text, file_checksum
from repro.relational.table import Table

if TYPE_CHECKING:
    from repro.storage2.mapped import MappedCube

BUNDLE_META = "bundle.json"
FACT_RELATION = "fact"
CUBE_PREFIX = "cube"
#: Prefix the ``python -m repro ingest`` command maintains generations
#: under; when its manifest exists, queries map the committed generation's
#: container instead of the originally built ``cube``/``fact`` pair.
STREAM_PREFIX = "stream"
STREAM_LOG_DIR = "ingest.log"


def _dimension_to_json(dimension: Dimension) -> dict:
    member_names = None
    if dimension.member_names is not None:
        member_names = [
            list(level_names) if level_names is not None else None
            for level_names in dimension.member_names
        ]
    return {
        "name": dimension.name,
        "levels": [
            {"name": level.name, "cardinality": level.cardinality}
            for level in dimension.levels
        ],
        "base_maps": [list(m) for m in dimension.base_maps],
        "parents": [list(p) for p in dimension.parents],
        "member_names": member_names,
    }


def _dimension_from_json(payload: dict) -> Dimension:
    member_names = None
    if payload.get("member_names") is not None:
        member_names = tuple(
            tuple(names) if names is not None else None
            for names in payload["member_names"]
        )
    return Dimension(
        payload["name"],
        tuple(
            Level(entry["name"], entry["cardinality"])
            for entry in payload["levels"]
        ),
        tuple(tuple(m) for m in payload["base_maps"]),
        tuple(tuple(p) for p in payload["parents"]),
        member_names,
    )


def schema_to_json(schema: CubeSchema) -> dict:
    return {
        "dimensions": [
            _dimension_to_json(dimension) for dimension in schema.dimensions
        ],
        "aggregates": [
            [spec.function.name, spec.measure_index]
            for spec in schema.aggregates
        ],
        "n_measures": schema.n_measures,
    }


def schema_from_json(payload: dict) -> CubeSchema:
    return CubeSchema(
        tuple(_dimension_from_json(d) for d in payload["dimensions"]),
        make_aggregates(
            *[(name, index) for name, index in payload["aggregates"]]
        ),
        payload["n_measures"],
    )


def save_bundle(
    directory: str | Path,
    schema: CubeSchema,
    fact: Table,
    storage: CubeStorage,
    extra: dict | None = None,
) -> Path:
    """Write a complete cube bundle; the directory must not already hold one."""
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    meta_path = root / BUNDLE_META
    if meta_path.exists():
        raise FileExistsError(f"{root} already contains a cube bundle")
    catalog = Catalog(root)
    try:
        heap = catalog.create(FACT_RELATION, schema.fact_schema)
        heap.append_batch(fact.as_batch())
        heap.flush()
        storage.persist(catalog, prefix=CUBE_PREFIX)
    finally:
        catalog.close()
    meta = {"schema": schema_to_json(schema), "extra": extra or {}}
    atomic_write_text(meta_path, json.dumps(meta))
    return root


@dataclass
class CubeBundle:
    """An opened bundle: schema, storage, and a fact cache factory.

    ``v2`` is set when the bundle was opened through a mapped
    :mod:`repro.storage2` container: ``storage`` is then the mapped view
    (no heap rows were unpacked), and the fact cache / planner wire over
    the mapped fact columns and pre-built CSR indices instead of
    re-reading and re-indexing the fact heap file.
    """

    root: Path
    schema: CubeSchema
    storage: CubeStorage
    catalog: Catalog
    extra: dict
    fact_relation: str = FACT_RELATION
    cube_prefix: str = CUBE_PREFIX
    v2: "MappedCube | None" = None

    def fact_cache(self, fraction: float = 1.0, seed: int = 7) -> FactCache:
        if self.v2 is not None:
            return FactCache(
                self.schema,
                table=self.v2.fact,
                fraction=fraction,
                seed=seed,
            )
        return FactCache(
            self.schema,
            heap=self.catalog.open(self.fact_relation),
            fraction=fraction,
            seed=seed,
        )

    def planner(
        self,
        fraction: float = 1.0,
        seed: int = 7,
        result_cache_entries: int = 128,
        result_cache_bytes: int | None = None,
        with_indices: bool = True,
    ):
        """A ready-to-serve :class:`~repro.query.planner.CubePlanner`.

        One call wires everything querying needs over the opened bundle:
        the fact cache, inverted indices over the fact table's dimension
        columns (skipped for DR cubes, whose NTs carry no row-ids to
        pre-filter), and a byte-budgeted
        :class:`~repro.query.cache.ResultCache`.  The serving layer
        builds exactly one of these and shares it across all request
        threads.
        """
        from repro.query.cache import ResultCache
        from repro.query.planner import CubePlanner, build_indices

        indices = None
        if with_indices and not self.storage.dr_mode:
            if self.v2 is not None:
                indices = self.v2.indices
            else:
                fact = self.catalog.open(self.fact_relation).load_batch()
                indices = build_indices(self.schema, fact)
        return CubePlanner(
            self.storage,
            self.fact_cache(fraction=fraction, seed=seed),
            indices=indices,
            results=ResultCache(
                max_entries=result_cache_entries,
                max_bytes=result_cache_bytes,
            ),
        )

    @property
    def fact_row_count(self) -> int:
        if self.v2 is not None:
            return len(self.v2.fact)
        return len(self.catalog.open(self.fact_relation))

    def close(self) -> None:
        self.catalog.close()

    def __enter__(self) -> "CubeBundle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def streamed_container(directory: str | Path) -> Path | None:
    """The committed ingest generation of a streamed-into bundle.

    ``python -m repro ingest`` checkpoints every generation as one v2
    container and names it in the ingest manifest; this is that file, or
    ``None`` for a bundle that was never streamed into.
    """
    manifest = Path(directory) / f"{STREAM_PREFIX}.ingest.json"
    if not manifest.exists():
        return None
    payload = json.loads(manifest.read_text())
    if "container" not in payload:
        raise RuntimeError(
            f"{manifest} predates one-file ingest generations; rebuild the "
            "bundle and ingest again"
        )
    return manifest.parent / str(payload["container"])


def _bundle_header(root: Path) -> tuple[CubeSchema, dict]:
    meta_path = root / BUNDLE_META
    if not meta_path.exists():
        raise FileNotFoundError(f"{root} does not contain a cube bundle")
    meta = json.loads(meta_path.read_text())
    return schema_from_json(meta["schema"]), meta.get("extra", {})


def load_v1_bundle(directory: str | Path) -> CubeBundle:
    """Open a bundle through the v1 heap relations :func:`save_bundle`
    wrote, whatever containers sit beside them.

    This is what :func:`open_bundle` falls back to, what ``publish-v2``
    compacts (a ``cube.v2`` must not feed its own replacement), and the
    reference the differential tests hold the mapped path to.
    """
    root = Path(directory)
    schema, extra = _bundle_header(root)
    catalog = Catalog(root)
    storage = CubeStorage.load(catalog, schema, prefix=CUBE_PREFIX)
    return CubeBundle(root, schema, storage, catalog, extra)


def open_bundle(directory: str | Path) -> CubeBundle:
    """Open a bundle previously written by :func:`save_bundle`.

    If the bundle has been streamed into (``python -m repro ingest``),
    the committed ingest generation supersedes the originally built cube.
    A generation *is* a v2 container, named by the ingest manifest, so it
    is mapped directly: nothing can be stale (the manifest flip is the
    commit and names exactly this file) and nothing is unpacked.

    Otherwise, when a ``cube.v2`` container is present (``publish-v2``),
    it is preferred: opening maps the file and unpacks **nothing** — no
    heap rows, no index builds.  Two guards apply, with different
    outcomes:

    * **staleness** — a v2 file whose recorded cube prefix, fact relation
      or v1 meta checksum no longer matches the bundle's v1 relations is
      silently ignored in favour of those relations
      (:func:`load_v1_bundle`), which are always current;
    * **corruption** — a v2 file that *does* describe the current cube
      but fails structural validation raises
      :class:`~repro.storage2.format.V2FormatError` (fail closed; a
      damaged container must be noticed, not silently routed around).
      Section-level bit flips surface the same way, lazily, on first
      access.
    """
    from repro.storage2.mapped import open_v2
    from repro.storage2.publish import V2_FILE

    root = Path(directory)
    schema, extra = _bundle_header(root)
    generation = streamed_container(root)
    if generation is not None:
        mapped = open_v2(generation, schema)
        return CubeBundle(
            root,
            schema,
            mapped.storage,
            Catalog(root),
            extra,
            str(mapped.file.meta["fact_relation"]),
            str(mapped.file.meta["cube_prefix"]),
            v2=mapped,
        )
    container = root / V2_FILE
    if container.exists():
        mapped = open_v2(container, schema)
        current = (
            mapped.file.meta.get("cube_prefix") == CUBE_PREFIX
            and mapped.file.meta.get("fact_relation") == FACT_RELATION
            and mapped.file.meta.get("cube_meta_checksum")
            == file_checksum(root / f"{CUBE_PREFIX}.meta.json")
        )
        if current:
            return CubeBundle(
                root, schema, mapped.storage, Catalog(root), extra, v2=mapped
            )
    return load_v1_bundle(root)
