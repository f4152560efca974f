"""Query-layer views over a mapped v2 cube file.

Serving maps the container instead of loading it.  The classes here
present the surfaces the query layer consumes —
:class:`~repro.core.storage.CubeStorage` / ``NodeStore``, the ``Table``
duck type :class:`~repro.query.cache.FactCache` drives, and the
``dict[int, InvertedIndex]`` mapping the planner probes — backed by
:class:`~repro.storage2.format.V2File` sections:

* ``narrow`` sections (NT/CAT/AGGREGATES matrices, CSR offsets, fact
  measures) are verified and widened once — one add per column into an
  int64 array the file caches — the moment a matrix accessor asks;
* the other compressed sections (TT lists, CSR row-ids, bit-packed fact
  dimension columns) likewise decode vectorized, once, on first touch;
* row counts (the planner's cost estimates, the ``nt_count`` guards)
  come from the directory and touch no payload.

Opening a cube is therefore O(directory): nothing is unpacked until a
query touches it, and every consumer here sees the int64 arrays it
always did, whatever width they are stored at.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from pathlib import Path

from repro.core.model import CubeSchema
from repro.core.storage import ArrayRelation, CubeStorage, NodeStore
from repro.relational.batch import ColumnBatch
from repro.relational.index import InvertedIndex
from repro.storage2.format import V2File


def _section(file: V2File, name: str) -> ArrayRelation:
    """A cube relation held in a v2 section: the row count is the
    directory's; the array is fetched — verified, decoded and cached by
    the file — on first touch."""
    return ArrayRelation(file.entry(name).shape[0], lambda: file.array(name))


def map_storage(schema: CubeSchema, file: V2File) -> CubeStorage:
    """A ``CubeStorage`` whose relations are ``file``'s sections."""
    storage = CubeStorage.from_meta(schema, file.meta)
    for node_id in file.meta["node_ids"]:
        sections = {}
        for relation in ("nt", "tt", "cat"):
            name = f"node/{node_id}/{relation}"
            if file.has(name):
                sections[relation] = _section(file, name)
        storage.nodes[int(node_id)] = NodeStore(**sections)
    if file.has("aggregates"):
        storage.aggregates = _section(file, "aggregates")
    return storage


class MappedFactTable:
    """The fact relation as the ``Table`` duck type ``FactCache`` drives.

    ``as_batch`` assembles the columnar view straight from the v2
    sections: measures widen once, dimension columns bit-unpack once
    (both cached by the file).  Row tuples (``fetch``/``fetch_many``
    callers) transpose lazily from that same batch.
    """

    def __init__(self, schema: CubeSchema, file: V2File) -> None:
        self.schema = schema
        self._file = file
        self._length = int(file.meta["fact_row_count"])
        self._batch: ColumnBatch | None = None
        self._rows: list[tuple] | None = None

    def __len__(self) -> int:
        return self._length

    def as_batch(self) -> ColumnBatch:
        batch = self._batch
        if batch is None:
            arrays = [
                self._file.array(f"fact/dim/{d}")
                for d in range(self.schema.n_dimensions)
            ]
            arrays += [
                self._file.array(f"fact/measure/{m}")
                for m in range(self.schema.n_measures)
            ]
            batch = ColumnBatch.from_arrays(
                self.schema.fact_schema, tuple(arrays)
            )
            self._batch = batch
        return batch

    def __getitem__(self, rowid: int) -> tuple:
        rows = self._rows
        if rows is None:
            rows = self.as_batch().to_rows()
            self._rows = rows
        return rows[rowid]

    def __iter__(self) -> Iterator[tuple]:
        if self._rows is None:
            self._rows = self.as_batch().to_rows()
        return iter(self._rows)


class MappedIndexSet(Mapping[int, InvertedIndex]):
    """Per-dimension CSR inverted indices, decoded per index on demand.

    Each index reuses :class:`~repro.relational.index.InvertedIndex`
    directly — offsets widened from their narrow section, row-ids
    delta-decoded — so every lookup (including the ``rowids_in_range``
    clamping semantics) is byte-for-byte the in-memory implementation's.
    """

    def __init__(self, file: V2File, schema: CubeSchema) -> None:
        self._file = file
        self._schema = schema
        self._cache: dict[int, InvertedIndex] = {}
        self._dims = [
            d
            for d in range(schema.n_dimensions)
            if file.has(f"index/{d}/offsets")
        ]

    def __getitem__(self, dim: int) -> InvertedIndex:
        index = self._cache.get(dim)
        if index is None:
            name = f"index/{dim}/offsets"
            if not self._file.has(name):
                raise KeyError(dim)
            index = InvertedIndex(
                self._schema.dimensions[dim].base_cardinality,
                self._file.array(name),
                self._file.array(f"index/{dim}/rowids"),
            )
            self._cache[dim] = index
        return index

    def __iter__(self) -> Iterator[int]:
        return iter(self._dims)

    def __len__(self) -> int:
        return len(self._dims)


@dataclass
class MappedCube:
    """Everything :func:`repro.bundle.open_bundle` needs from a v2 file."""

    file: V2File
    storage: CubeStorage
    fact: MappedFactTable
    indices: MappedIndexSet | None


def open_v2(path: str | Path, schema: CubeSchema) -> MappedCube:
    """Map a v2 cube file and wire the query-layer views over it."""
    file = V2File.open(path)
    storage = map_storage(schema, file)
    fact = MappedFactTable(schema, file)
    indices: MappedIndexSet | None = None
    if file.has("index/0/offsets"):
        indices = MappedIndexSet(file, schema)
    return MappedCube(file, storage, fact, indices)
