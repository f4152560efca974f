"""Writing a cube as one v2 container: sections, writers, publish.

A container is assembled in two halves, each from structures already in
memory:

* :func:`cube_writer` — the cube half: a :class:`~repro.storage2.format.V2Writer`
  whose directory ``meta`` is :meth:`CubeStorage.meta`, holding one
  section per non-empty cube relation;
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

No inverted index is stored: a slice pre-filters a node's stored
row-ids against the fact dimension columns themselves
(:func:`~repro.query.slice.answer_cure_sliced`).

``narrow`` is :meth:`V2Writer.add_arrays`'s choice, not this module's:
an int64 array whose values leave it no smaller (a full-range column) is
stored ``raw`` instead, so the codec of a section is a pure function of
its values and rewriting is deterministic.

:func:`cube_writer` hands every cube section to one
:meth:`V2Writer.add_arrays` call, in container order: the NT, CAT and
AGGREGATES matrices are narrowed together
(:func:`~repro.storage2.codecs.narrow_encode_batch`: grouped by column
count, a column of a group at a time) and the TT lists are encoded
together (:func:`~repro.storage2.codecs.encode_rowid_lists`: one pass
over all of them).  The bytes are those of encoding one relation at a
time; only the number of array passes changes.

:func:`write_v2` is both halves, for a caller that holds the fact table
as a :class:`ColumnBatch`: :func:`~repro.bundle.save_bundle` and a
streaming-ingest generation.  A durable build's checkpoints and final
commit are the cube half alone — its fact relation stays a catalog heap
(:mod:`repro.core.recovery`; ``docs/storage_format.md`` lists who writes
which sections).

Every container reaches disk through :func:`publish`:
:func:`~repro.relational.durable.atomic_write_chunks` behind the
``storage2.publish`` fault site, so a crash mid-publish leaves either the
old file or no file, never a torn one.  The file is hashed as it is
written, and :func:`publish` (so :func:`write_v2`) returns that SHA-256:
the checksum a build manifest or ``bundle.json`` records, with no
read-back.

A bundle directory commits through one document, ``bundle.json``
(:class:`BundleManifest`): :func:`write_manifest` is its one writer
(``save_bundle``, then every ingest checkpoint) and :func:`read_manifest`
its one reader.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from orjson import dumps

from repro.core.model import CubeSchema, schema_from_json, schema_to_json
from repro.core.storage import CubeStorage
from repro.relational.batch import ColumnBatch
from repro.relational.durable import (
    FaultHook,
    Fields,
    atomic_write_bytes,
    atomic_write_chunks,
    maybe_fire,
    read_document,
)
from repro.storage2.codecs import BITPACK, bitpack_encode, min_bits
from repro.storage2.format import V2Writer

#: File name of the v2 container inside a bundle directory.
V2_FILE = "cube.v2"
#: File name of a bundle directory's one commit document.
BUNDLE_META = "bundle.json"
BUNDLE_VERSION = 1


def cube_writer(storage: CubeStorage) -> V2Writer:
    """A writer holding the cube's sections (pure; no I/O), encoded in
    one :meth:`V2Writer.add_arrays` batch."""
    writer = V2Writer(storage.meta())
    sections: list[tuple[str, np.ndarray]] = []
    rowid_lists: set[str] = set()
    for node_id in sorted(storage.nodes):
        store = storage.nodes[node_id]
        if store.nt_count:
            sections.append((f"node/{node_id}/nt", store.nt_matrix()))
        if store.tt_count:
            rowid_lists.add(f"node/{node_id}/tt")
            sections.append((f"node/{node_id}/tt", store.tt_array()))
        if store.cat_count:
            sections.append((f"node/{node_id}/cat", store.cat_matrix()))
    if storage.aggregates_count:
        sections.append(("aggregates", storage.aggregates_matrix()))
    writer.add_arrays(sections, rowid_lists)
    return writer


def add_fact_sections(
    writer: V2Writer, schema: CubeSchema, columns: Sequence[np.ndarray]
) -> None:
    """Add the fact table's sections to a cube's writer.

    ``columns`` holds the fact columns in schema order — dimension codes,
    then measures.
    """
    n_dimensions = schema.n_dimensions
    for position, column in enumerate(columns[:n_dimensions]):
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
    writer.add_arrays(
        [
            (f"fact/measure/{m}", column.astype(np.int64, copy=False))
            for m, column in enumerate(columns[n_dimensions:])
        ]
    )


def publish(
    path: str | Path, writer: V2Writer, faults: FaultHook | None = None
) -> str:
    """Atomically publish the writer's container at ``path``; returns the
    file's SHA-256 hex digest, hashed while writing (the
    :func:`~repro.relational.durable.file_checksum` a manifest records)."""
    target = Path(path)
    maybe_fire(faults, f"storage2.publish:{target.name}")
    return atomic_write_chunks(target, writer.chunks())


def write_v2(
    path: str | Path,
    schema: CubeSchema,
    storage: CubeStorage,
    fact_batch: ColumnBatch,
    faults: FaultHook | None = None,
) -> str:
    """Publish a cube and its in-memory fact table as one v2 file;
    returns the file's digest, as :func:`publish` does."""
    writer = cube_writer(storage)
    add_fact_sections(writer, schema, fact_batch.arrays)
    return publish(path, writer, faults)


class BundleError(ValueError):
    """A bundle's ``bundle.json`` is not a manifest this version wrote, or
    names a container the directory does not hold."""


@dataclass(frozen=True)
class BundleManifest:
    """``bundle.json``: the container a bundle directory serves — ``cube.v2``
    at generation −1, or an ingest generation — with its SHA-256, its
    fact rows, the schema and ``extra`` to read it with, and the ingest
    watermark and drift budget it includes."""

    schema: CubeSchema
    extra: dict
    container: str
    container_checksum: str
    fact_rows: int
    generation: int = -1
    applied_lsn: int = -1
    compact_overhead: float | None = None


_MANIFEST_FIELDS: Fields = {
    "schema": (dict,), "extra": (dict,), "container": (str,),
    "container_checksum": (str,), "fact_rows": (int,), "generation": (int,),
    "applied_lsn": (int,), "compact_overhead": (int, float, type(None)),
}


def write_manifest(directory: str | Path, manifest: BundleManifest) -> None:
    """Commit ``manifest`` as the directory's ``bundle.json`` (write →
    fsync → rename): whichever container it names is the committed one."""
    payload = {"version": BUNDLE_VERSION}
    payload.update((key, getattr(manifest, key)) for key in _MANIFEST_FIELDS)
    payload["schema"] = schema_to_json(manifest.schema)
    atomic_write_bytes(Path(directory) / BUNDLE_META, dumps(payload))


def read_manifest(directory: str | Path) -> BundleManifest:
    """The directory's ``bundle.json``, checked once: every key with its
    type, the schema decoded (:class:`BundleError` naming the file and
    the key otherwise; ``FileNotFoundError`` when there is none)."""
    path = Path(directory) / BUNDLE_META
    try:
        payload = read_document(path, BUNDLE_VERSION, _MANIFEST_FIELDS, BundleError)
        payload["schema"] = schema_from_json(payload["schema"])
    except BundleError as error:
        raise BundleError(f"{error}; rebuild the bundle") from None
    except (KeyError, TypeError, ValueError) as error:
        raise BundleError(f"{path} has no valid 'schema' ({error}); rebuild the bundle") from None
    return BundleManifest(**{key: payload[key] for key in _MANIFEST_FIELDS})


def publish_v2_bundle(directory: str | Path) -> Path:
    """The container ``bundle.json`` names; writes nothing (the name is
    the publish step ``benchmarks/e2e`` calls after ``save_bundle``)."""
    return Path(directory) / read_manifest(directory).container
