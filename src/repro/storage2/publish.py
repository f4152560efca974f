"""Writing a cube as one v2 container: sections, writers, publish.

A container is assembled in two halves, each from structures already in
memory:

* :func:`cube_writer` — the cube half: a :class:`~repro.storage2.format.V2Writer`
  whose directory ``meta`` is :meth:`CubeStorage.meta` plus the bundle
  keys, holding one section per non-empty cube relation;
* :func:`add_fact_sections` — the fact half: the fact table's columns and
  the per-dimension inverted index.

=====================  =======================================================
``node/<id>/nt``       NT matrix, int64 stored ``narrow`` — each column at
                       the byte width its value range needs, widened
                       once on read
``node/<id>/tt``       TT row-id list, delta varint or Roaring (whichever
                       is smaller, deterministically)
``node/<id>/cat``      CAT matrix, ``narrow``
``aggregates``         the shared AGGREGATES relation, ``narrow``
``fact/dim/<d>``       fact dimension column, bit-packed to
                       ``⌈log2 cardinality⌉`` bits
``fact/measure/<m>``   fact measure column, ``narrow``
``index/<d>/offsets``  CSR offsets, ``narrow`` (absent for DR cubes)
``index/<d>/rowids``   CSR postings, delta varint or Roaring
=====================  =======================================================

``narrow`` is :meth:`V2Writer.add_array`'s choice, not this module's: an
int64 array whose values leave it no smaller (a full-range column) is
stored ``raw`` instead, so the codec of a section is a pure function of
its values and rewriting is deterministic.

:func:`write_v2` is both halves for a caller that holds the fact table as
a :class:`ColumnBatch` (a streaming-ingest generation); a durable build's
checkpoints and final commit are the cube half alone — its fact relation
stays a catalog heap (:mod:`repro.core.recovery`;
``docs/storage_format.md`` lists who writes which sections).  :func:`publish_v2_bundle` is the one
offline writer: it compacts a bundle saved as v1 heap relations, so it
reads them back through the slow v1 load — acceptable there and nowhere
else — and stamps the v1 meta checksum into the directory, which lets
``open_bundle`` detect a ``cube.v2`` that no longer describes the
bundle's v1 relations and fall back to them silently.  Containers
written from memory have no v1 copy and leave that checksum empty.

Every container reaches disk through :func:`publish`:
:func:`~repro.relational.durable.atomic_write_chunks` behind the
``storage2.publish`` fault site, so a crash mid-publish leaves either the
old file or no file, never a torn one.
"""

from __future__ import annotations

from collections.abc import Sequence
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.model import CubeSchema
from repro.core.storage import CubeStorage
from repro.relational.batch import ColumnBatch
from repro.relational.durable import (
    FaultHook,
    atomic_write_chunks,
    file_checksum,
    maybe_fire,
)
from repro.relational.index import InvertedIndex
from repro.storage2.codecs import BITPACK, bitpack_encode, encode_rowid_list, min_bits
from repro.storage2.format import V2Writer

#: File name of the v2 container inside a bundle directory.
V2_FILE = "cube.v2"


def _rowid_list(rowids: np.ndarray) -> dict[str, Any]:
    """``V2Writer.add_section`` arguments for one encoded row-id list."""
    codec, payload = encode_rowid_list(rowids)
    return {
        "payload": payload,
        "codec": codec,
        "dtype": "<i8",
        "shape": (len(rowids),),
        "count": len(rowids),
    }


def cube_writer(
    storage: CubeStorage,
    cube_prefix: str = "cube",
    fact_relation: str = "fact",
    cube_meta_checksum: str = "",
) -> V2Writer:
    """A writer holding the cube's sections (pure; no I/O)."""
    writer = V2Writer(
        {
            **storage.meta(),
            "cube_prefix": cube_prefix,
            "fact_relation": fact_relation,
            "cube_meta_checksum": cube_meta_checksum,
        }
    )
    for node_id in sorted(storage.nodes):
        store = storage.nodes[node_id]
        if store.nt_count:
            writer.add_array(f"node/{node_id}/nt", store.nt_matrix())
        if store.tt_count:
            writer.add_section(
                f"node/{node_id}/tt", **_rowid_list(store.stored_tt())
            )
        if store.cat_count:
            writer.add_array(f"node/{node_id}/cat", store.stored_cat())
    if storage.aggregates_count:
        writer.add_array("aggregates", storage.aggregates_matrix())
    return writer


def add_fact_sections(
    writer: V2Writer, schema: CubeSchema, columns: Sequence[np.ndarray]
) -> None:
    """Add the fact table's sections to a cube's writer.

    ``columns`` holds the fact columns in schema order — dimension codes,
    then measures.  For every cube but a DR one each dimension gets an
    inverted index; its sections follow the measures, as the layout has
    them.
    """
    indexed = not writer.meta["dr_mode"]
    indices: list[tuple[np.ndarray, dict[str, Any]]] = []
    for position, column in enumerate(columns):
        if position >= schema.n_dimensions:
            writer.add_array(
                f"fact/measure/{position - schema.n_dimensions}",
                column.astype(np.int64, copy=False),
            )
            continue
        cardinality = schema.dimensions[position].base_cardinality
        bits = max(min_bits(column), max(1, cardinality - 1).bit_length())
        writer.add_section(
            f"fact/dim/{position}",
            bitpack_encode(column, bits),
            codec=BITPACK,
            dtype="<i4",
            shape=(len(column),),
            count=len(column),
            extra={"bits": bits},
        )
        if indexed:
            index = InvertedIndex.build(column, cardinality)
            indices.append((index.offsets, _rowid_list(index.rowids)))
    for d, (offsets, rowids) in enumerate(indices):
        writer.add_array(f"index/{d}/offsets", offsets)
        writer.add_section(f"index/{d}/rowids", **rowids)


def publish(
    path: str | Path, writer: V2Writer, faults: FaultHook | None = None
) -> Path:
    """Atomically publish the writer's container at ``path``."""
    target = Path(path)
    maybe_fire(faults, f"storage2.publish:{target.name}")
    atomic_write_chunks(target, writer.chunks())
    return target


def write_v2(
    path: str | Path,
    schema: CubeSchema,
    storage: CubeStorage,
    fact_batch: ColumnBatch,
    cube_prefix: str = "cube",
    fact_relation: str = "fact",
    cube_meta_checksum: str = "",
    faults: FaultHook | None = None,
) -> Path:
    """Publish a cube and its in-memory fact table as one v2 file."""
    writer = cube_writer(storage, cube_prefix, fact_relation, cube_meta_checksum)
    add_fact_sections(writer, schema, fact_batch.arrays)
    return publish(path, writer, faults)


def publish_v2_bundle(directory: str | Path) -> Path:
    """Compact an existing bundle's cube into ``<bundle>/cube.v2``.

    Reads through the v1 path (``load_v1_bundle`` — a stale v2 file must
    not feed its own replacement), stamps the v1 meta checksum for the
    staleness guard, and atomically publishes the container.

    A bundle that has been streamed into has nothing to compact: its
    committed ingest generation already is a v2 container, and
    ``open_bundle`` maps it.  That file's path is returned and nothing
    is written.
    """
    from repro.bundle import load_v1_bundle, streamed_container

    root = Path(directory)
    generation = streamed_container(root)
    if generation is not None:
        return generation
    with load_v1_bundle(root) as bundle:
        fact_batch = bundle.catalog.open(bundle.fact_relation).load_batch()
        checksum = file_checksum(
            root / f"{bundle.cube_prefix}.meta.json"
        )
        return write_v2(
            root / V2_FILE,
            bundle.schema,
            bundle.storage,
            fact_batch,
            cube_prefix=bundle.cube_prefix,
            fact_relation=bundle.fact_relation,
            cube_meta_checksum=checksum,
            faults=bundle.catalog.faults,
        )
