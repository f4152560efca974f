"""Loading a v2 container back into *mutable* in-memory structures.

:func:`~repro.storage2.mapped.open_v2` serves a container read-only,
through mapped views, and unpacks nothing.  A restarted writer needs the
opposite: the cube as a plain :class:`~repro.core.storage.CubeStorage`
(relations it can replace) — :func:`load_cube`, all a durable build's
containers hold — and, for streaming ingest, the fact relation as a
:class:`~repro.relational.table.Table` it can grow — :func:`load_fact`.
Every array is copied off the map, so the file can be replaced by the
next checkpoint or generation while the cube lives on.

A container named by a manifest goes through :func:`committed_container`
first, which holds the whole file to the manifest's checksum; every
section read after that passes its own checksum before it decodes
(:meth:`V2File.array`).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.core.model import CubeSchema
from repro.core.storage import CubeStorage
from repro.relational.batch import ColumnBatch
from repro.relational.durable import file_checksum
from repro.relational.table import Table
from repro.storage2.format import V2File, V2FormatError


def committed_container(path: str | Path, checksum: str) -> Path:
    """``path``, once it is shown to be the file a manifest committed.

    Raises :class:`~repro.storage2.format.V2FormatError` when the file
    is missing or is not byte for byte the one recorded with ``checksum``.
    """
    target = Path(path)
    if not target.exists():
        raise V2FormatError(f"missing container {target.name!r}")
    if file_checksum(target) != checksum:
        raise V2FormatError(f"checksum mismatch for {target.name!r}")
    return target


def load_cube(file: V2File, schema: CubeSchema) -> CubeStorage:
    """The cube sections of one v2 file, detached from the file.

    Raises :class:`~repro.storage2.format.V2FormatError` (structure) or
    its subclass ``SectionCorruption`` (a payload that fails its
    checksum or does not decode) — never returns partly loaded state.
    """
    storage = CubeStorage.from_meta(schema, file.meta)

    def detached(name: str) -> np.ndarray:
        return np.array(file.array(name), dtype=np.int64)

    for node_id in file.meta["node_ids"]:
        store = storage.node_store(int(node_id))
        for relation in ("nt", "tt", "cat"):
            name = f"node/{node_id}/{relation}"
            if file.has(name):
                getattr(store, relation).replace(detached(name))
    if file.has("aggregates"):
        storage.aggregates.replace(detached("aggregates"))
    return storage


def load_fact(file: V2File, schema: CubeSchema) -> Table:
    """The fact sections of one v2 file as a detached, growable table."""
    names = [f"fact/dim/{d}" for d in range(schema.n_dimensions)]
    names += [f"fact/measure/{m}" for m in range(schema.n_measures)]
    return Table.from_batch(
        ColumnBatch.from_arrays(
            schema.fact_schema, [np.array(file.array(name)) for name in names]
        )
    )


def load_v2(path: str | Path, schema: CubeSchema) -> tuple[CubeStorage, Table]:
    """Both halves of one v2 file: the cube and its fact table."""
    file = V2File.open(path)
    storage, fact = load_cube(file, schema), load_fact(file, schema)
    if len(fact) != storage.fact_row_count:
        raise V2FormatError(
            f"{file.path}: fact columns hold {len(fact)} rows, the "
            f"directory recorded {storage.fact_row_count}"
        )
    return storage, fact
