"""Writing a cube as one v2 container: sections, writers, publish.

A container is assembled in two halves, each from structures already in
memory:

* :func:`cube_writer` — the cube half: a :class:`~repro.storage2.format.V2Writer`
  whose directory ``meta`` is :meth:`CubeStorage.meta` plus the bundle
  keys, holding one section per non-empty cube relation;
* :func:`add_fact_sections` — the fact half: the fact table's columns.

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
=====================  =======================================================

No inverted index is stored: the reader derives a dimension's from its
fact column the first time a slice needs it
(:class:`~repro.storage2.mapped.MappedIndexSet`), which costs less than
checksumming and decoding stored postings did.

``narrow`` is :meth:`V2Writer.add_array`'s choice, not this module's: an
int64 array whose values leave it no smaller (a full-range column) is
stored ``raw`` instead, so the codec of a section is a pure function of
its values and rewriting is deterministic.

:func:`write_v2` is both halves, for a caller that holds the fact table
as a :class:`ColumnBatch`: :func:`~repro.bundle.save_bundle` and a
streaming-ingest generation.  A durable build's checkpoints and final
commit are the cube half alone — its fact relation stays a catalog heap
(:mod:`repro.core.recovery`; ``docs/storage_format.md`` lists who writes
which sections).

Every container reaches disk through :func:`publish`:
:func:`~repro.relational.durable.atomic_write_chunks` behind the
``storage2.publish`` fault site, so a crash mid-publish leaves either the
old file or no file, never a torn one.
"""

from __future__ import annotations

from collections.abc import Sequence
from pathlib import Path

import numpy as np

from repro.core.model import CubeSchema
from repro.core.storage import CubeStorage
from repro.relational.batch import ColumnBatch
from repro.relational.durable import FaultHook, atomic_write_chunks, maybe_fire
from repro.storage2.codecs import BITPACK, bitpack_encode, encode_rowid_list, min_bits
from repro.storage2.format import V2Writer

#: File name of the v2 container inside a bundle directory.
V2_FILE = "cube.v2"


def cube_writer(
    storage: CubeStorage,
    cube_prefix: str = "cube",
    fact_relation: str = "fact",
) -> V2Writer:
    """A writer holding the cube's sections (pure; no I/O)."""
    writer = V2Writer(
        {
            **storage.meta(),
            "cube_prefix": cube_prefix,
            "fact_relation": fact_relation,
        }
    )
    for node_id in sorted(storage.nodes):
        store = storage.nodes[node_id]
        if store.nt_count:
            writer.add_array(f"node/{node_id}/nt", store.nt_matrix())
        if store.tt_count:
            tt = store.tt_array()
            codec, payload = encode_rowid_list(tt)
            writer.add_section(
                f"node/{node_id}/tt",
                payload,
                codec=codec,
                dtype="<i8",
                shape=(len(tt),),
                count=len(tt),
            )
        if store.cat_count:
            writer.add_array(f"node/{node_id}/cat", store.cat_matrix())
    if storage.aggregates_count:
        writer.add_array("aggregates", storage.aggregates_matrix())
    return writer


def add_fact_sections(
    writer: V2Writer, schema: CubeSchema, columns: Sequence[np.ndarray]
) -> None:
    """Add the fact table's sections to a cube's writer.

    ``columns`` holds the fact columns in schema order — dimension codes,
    then measures.
    """
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
    faults: FaultHook | None = None,
) -> Path:
    """Publish a cube and its in-memory fact table as one v2 file."""
    writer = cube_writer(storage, cube_prefix, fact_relation)
    add_fact_sections(writer, schema, fact_batch.arrays)
    return publish(path, writer, faults)


def publish_v2_bundle(directory: str | Path) -> Path:
    """The container a bundle serves from; writes nothing.

    That is the committed ingest generation of a bundle that has been
    streamed into, else the ``cube.v2`` :func:`~repro.bundle.save_bundle`
    published.  ``open_bundle`` and ``verify-cube --cube`` locate the
    container through this function.  It keeps its name because
    ``benchmarks/e2e`` calls it, after ``save_bundle``, as the publish step.
    """
    from repro.bundle import streamed_container

    root = Path(directory)
    return streamed_container(root) or root / V2_FILE
