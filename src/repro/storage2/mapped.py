"""Query-layer views over a mapped v2 cube file.

Serving maps the container instead of loading it.  The classes here
present the surfaces the query layer consumes —
:class:`~repro.core.storage.CubeStorage` / ``NodeStore``, the ``Table``
duck type :class:`~repro.query.cache.FactCache` drives and a slice's
pre-filter reads — backed by :class:`~repro.storage2.format.V2File`
sections:

* ``narrow`` sections (NT/CAT/AGGREGATES matrices, fact measures) are
  verified and widened once — one add per column into an int64 array the
  file caches — the moment a matrix accessor asks;
* the other compressed sections (TT lists, bit-packed fact dimension
  columns) likewise decode vectorized, once, on first touch;
* row counts (the planner's cost estimates, the ``nt_count`` guards)
  come from the directory and touch no payload.

Opening a cube therefore parses and checks the directory and builds
nothing else: a section entry, a node's store and a fact column are made
on first touch, so a first answer pays for the sections it reads, and
every consumer sees the int64 arrays it always did.
"""

from __future__ import annotations

from collections.abc import Iterator, MutableMapping
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.model import CubeSchema
from repro.core.storage import ArrayRelation, CubeStorage, NodeStore
from repro.relational.batch import ColumnBatch
from repro.storage2.format import V2File, V2FormatError


def _section(file: V2File, name: str) -> ArrayRelation:
    """A cube relation held in a v2 section: the row count is the
    directory's; the array is fetched — verified, decoded and cached by
    the file — on first touch."""
    return ArrayRelation(file.rows(name), lambda: file.array(name))


class _MappedNodes(MutableMapping[int, NodeStore]):
    """``CubeStorage.nodes`` over a mapped file: every node the directory
    lists, each one's store built the first time it is looked up."""

    def __init__(self, file: V2File) -> None:
        self._file = file
        self._stores: dict[int, NodeStore | None] = dict.fromkeys(
            map(int, file.meta["node_ids"])
        )

    def __getitem__(self, node_id: int) -> NodeStore:
        store = self._stores[node_id]
        if store is None:
            sections = {}
            for relation in ("nt", "tt", "cat"):
                name = f"node/{node_id}/{relation}"
                if self._file.has(name):
                    sections[relation] = _section(self._file, name)
            store = self._stores[node_id] = NodeStore(**sections)
        return store

    def get(self, node_id: int, default: Any = None) -> Any:
        # Every read looks its stores up: skip ``Mapping.get``'s
        # ``KeyError`` round trip once a store is built.
        store = self._stores.get(node_id)
        if store is None:
            return self[node_id] if node_id in self._stores else default
        return store

    def __setitem__(self, node_id: int, store: NodeStore) -> None:
        self._stores[node_id] = store

    def __delitem__(self, node_id: int) -> None:
        del self._stores[node_id]

    def __iter__(self) -> Iterator[int]:
        return iter(self._stores)

    def __len__(self) -> int:
        return len(self._stores)


def map_storage(schema: CubeSchema, file: V2File) -> CubeStorage:
    """A ``CubeStorage`` whose relations are ``file``'s sections."""
    storage = CubeStorage.from_meta(schema, file.meta)
    storage.nodes = _MappedNodes(file)
    if file.has("aggregates"):
        storage.aggregates = _section(file, "aggregates")
    return storage


class MappedFactTable:
    """The fact relation as the ``Table`` duck type ``FactCache`` drives.

    :meth:`column_at` reads one column straight from its v2 section:
    measures widen once, dimension columns bit-unpack once (both cached
    by the file).  ``len`` is the directory's row count, and a column
    that disagrees with it raises :class:`V2FormatError`; ``as_batch``
    is every column.
    """

    def __init__(self, schema: CubeSchema, file: V2File) -> None:
        self.schema = schema
        self._file = file
        self._length = int(file.meta["fact_row_count"])
        self._sections = [f"fact/dim/{d}" for d in range(schema.n_dimensions)]
        self._sections += [f"fact/measure/{m}" for m in range(schema.n_measures)]

    def __len__(self) -> int:
        return self._length

    def column_at(self, position: int) -> np.ndarray:
        array = self._file.array(self._sections[position])
        if len(array) != self._length:
            raise V2FormatError(
                f"{self._file.path}: fact columns hold [{len(array)}] rows, "
                f"the directory recorded {self._length}"
            )
        return array

    def as_batch(self) -> ColumnBatch:
        columns = [self.column_at(p) for p in range(len(self._sections))]
        return ColumnBatch.from_arrays(self.schema.fact_schema, columns)


@dataclass
class MappedCube:
    """Everything :func:`repro.bundle.open_bundle` needs from a v2 file."""

    file: V2File
    storage: CubeStorage
    fact: MappedFactTable


def open_v2(path: str | Path, schema: CubeSchema) -> MappedCube:
    """Map a v2 cube file and wire the query-layer views over it."""
    file = V2File.open(path, [d.base_cardinality for d in schema.dimensions])
    storage = map_storage(schema, file)
    return MappedCube(file, storage, MappedFactTable(schema, file))
