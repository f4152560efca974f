"""Compacting a built cube into one v2 file (``publish-v2``).

The writer walks a :class:`~repro.core.storage.CubeStorage` (freshly
built or v1-loaded — publish is an offline step, so the slow v1 load is
acceptable here and nowhere else) plus the fact relation's columnar
batch, and lays every relation out as v2 sections:

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
its values and republishing is deterministic.

The directory's ``meta`` carries everything ``CubeStorage.load`` reads
from ``<prefix>.meta.json`` plus the publishing bundle's cube prefix,
fact relation and v1 meta checksum, so ``open_bundle`` can detect a
``cube.v2`` that no longer describes the bundle's v1 relations and fall
back to them silently.

The same writer is streaming ingest's checkpoint: a generation is one
container, ``<prefix>.g<k>.cube.v2``, written by :func:`write_v2` from
the ingestor's in-memory cube and fact columns (no v1 relations exist
for it, so its ``cube_meta_checksum`` is empty), read back mutable by
:func:`repro.storage2.load.load_v2` on recovery and mapped as is by
``open_bundle``.

The file itself is published through
:func:`~repro.relational.durable.atomic_write_chunks` behind the
``storage2.publish`` fault site: a crash mid-publish leaves either the
old file or no file, never a torn one.
"""

from __future__ import annotations

from pathlib import Path

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


def build_writer(
    schema: CubeSchema,
    storage: CubeStorage,
    fact_batch: ColumnBatch,
    cube_prefix: str,
    fact_relation: str,
    cube_meta_checksum: str,
) -> V2Writer:
    """Assemble the v2 sections for one cube (pure; no I/O)."""
    meta = {
        "cat_format": storage.cat_format.value if storage.cat_format else None,
        "dr_mode": storage.dr_mode,
        "flat": storage.flat,
        "partition_level": storage.partition_level,
        "partition_level2": storage.partition_level2,
        "plus_processed": storage.plus_processed,
        "fact_row_count": storage.fact_row_count,
        "update_drift_bytes": storage.update_drift_bytes,
        "node_ids": sorted(storage.nodes),
        "cube_prefix": cube_prefix,
        "fact_relation": fact_relation,
        "cube_meta_checksum": cube_meta_checksum,
    }
    writer = V2Writer(meta)
    for node_id in sorted(storage.nodes):
        store = storage.nodes[node_id]
        if store.nt_count:
            writer.add_array(f"node/{node_id}/nt", store.nt_matrix())
        trivial = (
            store.tt_bitmap.to_array()
            if store.tt_bitmap is not None
            else store.tt_array()
        )
        if len(trivial):
            codec, payload = encode_rowid_list(trivial)
            writer.add_section(
                f"node/{node_id}/tt",
                payload,
                codec=codec,
                dtype="<i8",
                shape=(len(trivial),),
                count=len(trivial),
            )
        cat_matrix = (
            store.cat_bitmap.to_array().reshape(-1, 1)
            if store.cat_bitmap is not None
            else store.cat_matrix()
        )
        if len(cat_matrix):
            writer.add_array(f"node/{node_id}/cat", cat_matrix)
    if storage.aggregates_count:
        writer.add_array("aggregates", storage.aggregates_matrix())
    for d in range(schema.n_dimensions):
        codes = fact_batch.arrays[d]
        cardinality = schema.dimensions[d].base_cardinality
        bits = max(min_bits(codes), max(1, cardinality - 1).bit_length())
        writer.add_section(
            f"fact/dim/{d}",
            bitpack_encode(codes, bits),
            codec=BITPACK,
            dtype="<i4",
            shape=(fact_batch.length,),
            count=fact_batch.length,
            extra={"bits": bits},
        )
    for m in range(schema.n_measures):
        writer.add_array(
            f"fact/measure/{m}",
            fact_batch.arrays[schema.n_dimensions + m].astype(
                np.int64, copy=False
            ),
        )
    if not storage.dr_mode:
        for d in range(schema.n_dimensions):
            index = InvertedIndex.build(
                fact_batch.arrays[d], schema.dimensions[d].base_cardinality
            )
            writer.add_array(f"index/{d}/offsets", index.offsets)
            codec, payload = encode_rowid_list(index.rowids)
            writer.add_section(
                f"index/{d}/rowids",
                payload,
                codec=codec,
                dtype="<i8",
                shape=(len(index.rowids),),
                count=len(index.rowids),
            )
    return writer


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
    """Write (atomically publish) one v2 cube file; returns its path."""
    target = Path(path)
    writer = build_writer(
        schema,
        storage,
        fact_batch,
        cube_prefix,
        fact_relation,
        cube_meta_checksum,
    )
    maybe_fire(faults, f"storage2.publish:{target.name}")
    atomic_write_chunks(target, writer.chunks())
    return target


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
