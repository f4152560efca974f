"""A catalog of named on-disk relations.

The catalog plays the role of the host RDBMS's system tables: it maps
relation names to heap files and schemas, persists schema metadata as JSON
next to the data files, and can enumerate or drop relations.  CURE creates
relations through the catalog for the fact table, partitions, and every
cube node relation it materializes.
"""

from __future__ import annotations

import json
import re
import shutil
from dataclasses import dataclass, field
from pathlib import Path

from orjson import loads

from repro.relational.durable import (
    FaultHook,
    Fields,
    atomic_write_text,
    check_fields,
    file_checksum,
    maybe_fire,
    publish_file,
    remove_file,
)
from repro.relational.heap import HeapFile
from repro.relational.schema import Column, ColumnType, TableSchema

_NAME_RE = re.compile(r"^[A-Za-z0-9_.\-]+$")
_COLUMN_FIELDS: Fields = {"name": (str,), "type": (str,)}
_COLUMN_TYPES = frozenset(kind.value for kind in ColumnType)


def _schema_to_json(schema: TableSchema) -> list[dict]:
    return [
        {"name": column.name, "type": column.type.value}
        for column in schema.columns
    ]


class CatalogError(ValueError):
    """A relation's schema side file is not one :meth:`Catalog.create` wrote."""


def _read_schema(path: Path) -> TableSchema:
    """The relation schema at ``path``, checked column by column
    (:class:`CatalogError` naming the file and the key otherwise)."""
    try:
        payload = loads(path.read_bytes())
    except ValueError:  # bad UTF-8 or bad JSON (``orjson.JSONDecodeError``)
        raise CatalogError(f"{path} is not JSON") from None
    if not isinstance(payload, list):
        raise CatalogError(f"{path} is not a JSON list")
    columns = []
    for index, entry in enumerate(payload):
        where = f"{path} column {index}"
        check_fields(entry, _COLUMN_FIELDS, where, CatalogError)
        if entry["type"] not in _COLUMN_TYPES:
            raise CatalogError(f"{where} has no valid 'type'")
        columns.append(Column(entry["name"], ColumnType(entry["type"])))
    return TableSchema(tuple(columns))


@dataclass
class Catalog:
    """Named heap-file relations rooted at one directory."""

    root: Path
    faults: FaultHook | None = field(default=None, repr=False)
    _open: dict[str, HeapFile] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        self.root = Path(self.root)
        self.root.mkdir(parents=True, exist_ok=True)

    # -- paths ---------------------------------------------------------------

    def _data_path(self, name: str) -> Path:
        return self.root / f"{name}.dat"

    def _meta_path(self, name: str) -> Path:
        return self.root / f"{name}.schema.json"

    @staticmethod
    def _check_name(name: str) -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid relation name: {name!r}")

    # -- relation management ---------------------------------------------------

    def create(self, name: str, schema: TableSchema) -> HeapFile:
        """Create an empty relation; fails if the name already exists."""
        self._check_name(name)
        if self.exists(name):
            raise ValueError(f"relation {name!r} already exists")
        maybe_fire(self.faults, f"catalog.create:{name}")
        atomic_write_text(
            self._meta_path(name), json.dumps(_schema_to_json(schema))
        )
        heap = HeapFile(self._data_path(name), schema, faults=self.faults)
        self._open[name] = heap
        return heap

    def open(self, name: str) -> HeapFile:
        """Open an existing relation (cached per catalog)."""
        if name in self._open:
            return self._open[name]
        meta_path = self._meta_path(name)
        if not meta_path.exists():
            raise KeyError(f"no relation named {name!r} in {self.root}")
        schema = _read_schema(meta_path)
        heap = HeapFile(self._data_path(name), schema, faults=self.faults)
        self._open[name] = heap
        return heap

    def exists(self, name: str) -> bool:
        return self._meta_path(name).exists()

    def drop(self, name: str) -> None:
        """Remove a relation's data and metadata."""
        maybe_fire(self.faults, f"catalog.drop:{name}")
        heap = self._open.pop(name, None)
        if heap is not None:
            heap.close()
        remove_file(self._meta_path(name))
        remove_file(self._data_path(name))

    def publish(self, tmp_name: str, final_name: str) -> None:
        """Atomically promote relation ``tmp_name`` to ``final_name``.

        Data is renamed before metadata so the relation "exists" (its
        schema side file is in place) only once its data file is already
        durable; a crash between the two renames leaves ``final_name``
        either fully absent or fully present at the next :meth:`exists`
        check, never half-published.
        """
        self._check_name(final_name)
        if not self.exists(tmp_name):
            raise KeyError(f"no relation named {tmp_name!r} to publish")
        maybe_fire(self.faults, f"catalog.publish:{final_name}")
        for name in (tmp_name, final_name):
            heap = self._open.pop(name, None)
            if heap is not None:
                heap.close()
        source_data = self._data_path(tmp_name)
        if source_data.exists():
            publish_file(source_data, self._data_path(final_name))
        else:  # a zero-row relation never materialized its data file
            remove_file(self._data_path(final_name))
        publish_file(self._meta_path(tmp_name), self._meta_path(final_name))

    def checksum(self, name: str) -> str:
        """Checksum of a relation's data file (flushes pending writes)."""
        heap = self._open.get(name)
        if heap is not None and heap.unflushed:
            heap.flush()
        return file_checksum(self._data_path(name))

    def unflushed(self) -> list[str]:
        """Open relations with writes still in their handle's buffer."""
        return [name for name, heap in self._open.items() if heap.unflushed]

    def set_faults(self, faults: FaultHook | None) -> None:
        """Install (or clear) a fault hook, including on open heaps."""
        self.faults = faults
        for heap in self._open.values():
            heap.faults = faults

    def names(self) -> list[str]:
        """All relation names, sorted."""
        return sorted(
            path.name[: -len(".schema.json")]
            for path in self.root.glob("*.schema.json")
        )

    def close(self) -> None:
        for heap in self._open.values():
            heap.close()
        self._open.clear()

    def destroy(self) -> None:
        """Close and delete the whole catalog directory."""
        self.close()
        shutil.rmtree(self.root, ignore_errors=True)
