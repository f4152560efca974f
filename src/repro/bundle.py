"""Cube bundles: a self-contained on-disk directory for one cube.

A bundle holds everything needed to answer queries later, in one place:

* ``cube.v2`` — the cube and the fact table as one mapped container
  (:mod:`repro.storage2`); every reader serves from it,
* the fact relation (heap file) — nothing in the package reads it; the
  ``benchmarks/e2e`` harness still sizes it (``v1_disk_bytes``),
* ``bundle.json`` — the schema (dimensions with level names, roll-up maps
  and member names), the aggregate specs, and bookkeeping.

``save_bundle`` / ``open_bundle`` are what the command-line interface
(:mod:`repro.cli`) builds on; they are equally usable as a library API.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path

from orjson import JSONDecodeError, loads

from repro.core.model import CubeSchema
from repro.core.storage import CubeStorage
from repro.hierarchy.dimension import Dimension, Level
from repro.ingest.ingestor import read_ingest_manifest
from repro.query.cache import FactCache, ResultCache
from repro.relational.aggregates import make_aggregates
from repro.relational.catalog import Catalog
from repro.relational.durable import atomic_write_text
from repro.relational.table import Table
from repro.storage2.mapped import MappedCube, open_v2
from repro.storage2.publish import V2_FILE, publish_v2_bundle, write_v2

BUNDLE_META = "bundle.json"
FACT_RELATION = "fact"
#: Prefix the ``python -m repro ingest`` command maintains generations
#: under; when its manifest exists, queries map the committed generation's
#: container instead of the originally built ``cube.v2``.
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


def _integer(value, field: str) -> int:
    """A ``bundle.json`` integer (orjson reads one ≥ 2**64 as a float)."""
    if type(value) is not int:
        raise ValueError(
            f"bundle.json: field {field!r} holds {value!r}, not an integer"
        )
    return value


def _dimension_from_json(payload: dict) -> Dimension:
    member_names = None
    if payload.get("member_names") is not None:
        member_names = tuple(
            tuple(names) if names is not None else None
            for names in payload["member_names"]
        )
    levels = tuple(
        Level(entry["name"], _integer(entry["cardinality"], "cardinality"))
        for entry in payload["levels"]
    )
    try:
        return Dimension(
            payload["name"],
            levels,
            tuple(tuple(m) for m in payload["base_maps"]),
            tuple(tuple(p) for p in payload["parents"]),
            member_names,
        )
    except OverflowError:
        raise ValueError(
            f"bundle.json: field 'base_maps' of {payload['name']!r} holds "
            "a code beyond int64"
        ) from None


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
        _integer(payload["n_measures"], "n_measures"),
    )


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
    rename), then ``bundle.json``: that last write is the commit, so a
    directory without it is not a bundle whatever else it holds.
    """
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    meta_path = root / BUNDLE_META
    if meta_path.exists():
        raise FileExistsError(f"{root} already contains a cube bundle")
    batch = fact.as_batch()
    catalog = Catalog(root)
    try:
        heap = catalog.create(FACT_RELATION, schema.fact_schema)
        heap.append_batch(batch)
        heap.flush()
        write_v2(root / V2_FILE, schema, storage, batch, faults=catalog.faults)
    finally:
        catalog.close()
    meta = {"schema": schema_to_json(schema), "extra": extra or {}}
    atomic_write_text(meta_path, json.dumps(meta))
    return root


@dataclass
class CubeBundle:
    """An opened bundle: schema, the mapped container, a fact cache factory.

    ``storage`` is the mapped view of ``v2`` (no heap rows were unpacked),
    and the fact cache / planner wire over the container's fact columns.
    """

    root: Path
    schema: CubeSchema
    catalog: Catalog
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
    return manifest.parent / read_ingest_manifest(manifest)["container"]


def bundle_header(root: Path) -> tuple[CubeSchema, dict]:
    """The schema and the ``extra`` bookkeeping ``bundle.json`` holds."""
    meta_path = root / BUNDLE_META
    if not meta_path.exists():
        raise FileNotFoundError(f"{root} does not contain a cube bundle")
    text = meta_path.read_bytes()
    try:
        meta = loads(text)
    except JSONDecodeError as error:
        # Name the field: the nearest key before the offending value.
        field = ([b"?"] + re.findall(rb'"([^"]*)":', text[: error.pos]))[-1]
        raise ValueError(
            f"{meta_path}: field {field.decode(errors='replace')!r}: {error.msg}"
        ) from None
    return schema_from_json(meta["schema"]), meta.get("extra", {})


def open_bundle(directory: str | Path) -> CubeBundle:
    """Open a bundle previously written by :func:`save_bundle`.

    The container it maps is :func:`~repro.storage2.publish.publish_v2_bundle`'s
    answer: the committed ingest generation once the bundle has been
    streamed into (``python -m repro ingest``; the manifest flip is the
    commit and names exactly that file), else the ``cube.v2`` that
    ``save_bundle`` published.  Opening unpacks **nothing** — no heap
    rows, no index builds.  A directory with a ``bundle.json`` but no
    container predates one-container bundles and must be rebuilt.

    A container that fails structural validation raises
    :class:`~repro.storage2.format.V2FormatError` (fail closed; a damaged
    container must be noticed, not silently routed around).  Section-level
    bit flips surface the same way, lazily, on first access.
    """
    root = Path(directory)
    schema, extra = bundle_header(root)
    container = publish_v2_bundle(root)
    if not container.exists():
        raise RuntimeError(
            f"{root} has no {container.name} to serve (a bundle saved as "
            "v1 heap relations has none); rebuild the bundle"
        )
    return CubeBundle(
        root, schema, Catalog(root), extra, open_v2(container, schema)
    )
