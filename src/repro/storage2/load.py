"""Loading a v2 container back into *mutable* in-memory structures.

:func:`~repro.storage2.mapped.open_v2` serves a container read-only,
through mapped views, and unpacks nothing.  Streaming ingest needs the
opposite after a restart: the committed generation as a plain
:class:`~repro.core.storage.CubeStorage` (relations it can replace) and
the fact relation as a :class:`~repro.relational.table.Table` it can
grow — every array copied off the map, so the file can be replaced by
the next generation while the cube lives on.

Every section read here passes its checksum first
(:meth:`V2File.array` verifies before it decodes).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.core.model import CubeSchema
from repro.core.storage import CubeStorage
from repro.relational.batch import ColumnBatch
from repro.relational.table import Table
from repro.storage2.format import V2File, V2FormatError


def load_v2(path: str | Path, schema: CubeSchema) -> tuple[CubeStorage, Table]:
    """The cube and fact table of one v2 file, detached from the file.

    Raises :class:`~repro.storage2.format.V2FormatError` (structure) or
    its subclass ``SectionCorruption`` (a payload that fails its
    checksum or does not decode) — never returns partly loaded state.
    """
    file = V2File.open(path)
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
    fact_schema = schema.fact_schema
    names = [f"fact/dim/{d}" for d in range(schema.n_dimensions)]
    names += [f"fact/measure/{m}" for m in range(schema.n_measures)]
    fact = Table.from_batch(
        ColumnBatch.from_arrays(
            fact_schema, [np.array(file.array(name)) for name in names]
        )
    )
    if len(fact) != storage.fact_row_count:
        raise V2FormatError(
            f"{file.path}: fact columns hold {len(fact)} rows, the "
            f"directory recorded {storage.fact_row_count}"
        )
    storage.row_resolver = lambda rowid: schema.dim_values(fact[rowid])
    return storage, fact
