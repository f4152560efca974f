"""Query-layer views over a mapped v2 cube file.

The v1 load path materializes every relation through
``load_batch().to_rows()`` before the first query can run.  The classes
here present the same surfaces the query layer already consumes —
:class:`~repro.core.storage.CubeStorage` / ``NodeStore`` (matrix
accessors *and* row lists), the ``Table`` duck type
:class:`~repro.query.cache.FactCache` drives, and the
``dict[int, InvertedIndex]`` mapping the planner probes — but backed by
:class:`~repro.storage2.format.V2File` sections:

* ``raw`` sections (NT/CAT/AGGREGATES matrices, CSR offsets, fact
  measures) come back as zero-copy memmap views the moment a matrix
  accessor asks;
* compressed sections (TT lists, CSR row-ids, bit-packed fact dimension
  columns) decode vectorized, once, on first touch;
* the row-tuple surfaces (``nt_rows`` and friends — the query layer
  only asks their length; the row-engine test oracle and maintenance
  iterate them) are lazy sequences that report their length for free
  and only transpose to Python tuples if something actually iterates
  them.

Opening a cube is therefore O(directory): nothing is unpacked until a
query touches it, and what queries touch is mostly views.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.model import CubeSchema
from repro.core.storage import CatFormat, CubeStorage, NodeStore
from repro.relational.batch import ColumnBatch
from repro.relational.index import InvertedIndex
from repro.storage2.format import V2File


class _LazyRows(Sequence[tuple]):
    """A section's matrix as a row-tuple sequence, transposed on demand.

    ``len`` / truthiness never touch the payload (the length comes from
    the directory), so the planner's cost estimates and the ``if not
    store.nt_rows`` guards stay free; only a caller that genuinely
    iterates tuples (the row-engine test oracle) pays for the transpose.
    """

    def __init__(self, file: V2File, name: str, length: int) -> None:
        self._file = file
        self._name = name
        self._length = length
        self._rows: list[tuple] | None = None

    def _materialized(self) -> list[tuple]:
        rows = self._rows
        if rows is None:
            rows = [tuple(row) for row in self._file.array(self._name).tolist()]
            self._rows = rows
        return rows

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, index):  # type: ignore[override]
        return self._materialized()[index]

    def __iter__(self) -> Iterator[tuple]:
        return iter(self._materialized())


class _LazyIds(Sequence[int]):
    """A one-column section as a lazy list of Python ints (TT lists)."""

    def __init__(self, file: V2File, name: str, length: int) -> None:
        self._file = file
        self._name = name
        self._length = length
        self._ids: list[int] | None = None

    def _materialized(self) -> list[int]:
        ids = self._ids
        if ids is None:
            ids = self._file.array(self._name).tolist()
            self._ids = ids
        return ids

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, index):  # type: ignore[override]
        return self._materialized()[index]

    def __iter__(self) -> Iterator[int]:
        return iter(self._materialized())


class MappedNodeStore(NodeStore):
    """A ``NodeStore`` whose relations live in v2 sections."""

    def __init__(self, file: V2File, node_id: int) -> None:
        super().__init__()
        self._file = file
        self._node_id = node_id
        nt = f"node/{node_id}/nt"
        if file.has(nt):
            self.nt_rows = _LazyRows(file, nt, file.entry(nt).shape[0])
        tt = f"node/{node_id}/tt"
        if file.has(tt):
            self.tt_rowids = _LazyIds(file, tt, file.entry(tt).count)
        cat = f"node/{node_id}/cat"
        if file.has(cat):
            self.cat_rows = _LazyRows(file, cat, file.entry(cat).shape[0])

    def nt_matrix(self) -> np.ndarray:
        if self._nt_matrix is None:
            name = f"node/{self._node_id}/nt"
            if self._file.has(name):
                self._nt_matrix = self._file.array(name)
        if self._nt_matrix is not None:
            return self._nt_matrix
        return super().nt_matrix()

    def tt_array(self) -> np.ndarray:
        if self._tt_array is None:
            name = f"node/{self._node_id}/tt"
            if self._file.has(name):
                self._tt_array = self._file.array(name)
        if self._tt_array is not None:
            return self._tt_array
        return super().tt_array()

    def cat_matrix(self) -> np.ndarray:
        if self._cat_matrix is None:
            name = f"node/{self._node_id}/cat"
            if self._file.has(name):
                self._cat_matrix = self._file.array(name)
        if self._cat_matrix is not None:
            return self._cat_matrix
        return super().cat_matrix()


class MappedCubeStorage(CubeStorage):
    """A read-only ``CubeStorage`` reconstructed from a v2 file."""

    def __init__(self, schema: CubeSchema, file: V2File) -> None:
        meta = file.meta
        super().__init__(
            schema,
            dr_mode=bool(meta["dr_mode"]),
            flat=bool(meta.get("flat", False)),
            partition_level=meta["partition_level"],
            partition_level2=meta.get("partition_level2"),
            fact_row_count=int(meta["fact_row_count"]),
        )
        self.plus_processed = bool(meta.get("plus_processed", False))
        self.update_drift_bytes = int(meta.get("update_drift_bytes", 0))
        if meta.get("cat_format") is not None:
            self.cat_format = CatFormat(meta["cat_format"])
        self._file = file
        for node_id in meta["node_ids"]:
            self.nodes[int(node_id)] = MappedNodeStore(file, int(node_id))
        if file.has("aggregates"):
            self.aggregates_rows = _LazyRows(
                file, "aggregates", file.entry("aggregates").shape[0]
            )

    def aggregates_matrix(self) -> np.ndarray:
        if self._aggregates_matrix is None and self._file.has("aggregates"):
            self._aggregates_matrix = self._file.array("aggregates")
        if self._aggregates_matrix is not None:
            return self._aggregates_matrix
        return super().aggregates_matrix()


class MappedFactTable:
    """The fact relation as the ``Table`` duck type ``FactCache`` drives.

    ``as_batch`` assembles the columnar view straight from the v2
    sections: measures are zero-copy views, dimension columns bit-unpack
    once.  Row tuples (``fetch``/``fetch_many`` callers) transpose lazily
    from that same batch.
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
    directly — offsets as a zero-copy view, row-ids delta-decoded — so
    every lookup (including the ``rowids_in_range`` clamping semantics)
    is byte-for-byte the in-memory implementation's.
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
    storage: MappedCubeStorage
    fact: MappedFactTable
    indices: MappedIndexSet | None


def open_v2(path: str | Path, schema: CubeSchema) -> MappedCube:
    """Map a v2 cube file and wire the query-layer views over it."""
    file = V2File.open(path)
    storage = MappedCubeStorage(schema, file)
    fact = MappedFactTable(schema, file)
    storage.row_resolver = lambda rowid: schema.dim_values(fact[rowid])
    indices: MappedIndexSet | None = None
    if file.has("index/0/offsets"):
        indices = MappedIndexSet(file, schema)
    return MappedCube(file, storage, fact, indices)
