"""Unit tests for the relation catalog."""

import pytest

from repro.relational.catalog import Catalog, CatalogError
from repro.relational.schema import Column, ColumnType, TableSchema
from tests.support.rows import append_rows, rows_of


@pytest.fixture
def catalog(tmp_path) -> Catalog:
    built = Catalog(tmp_path / "cat")
    yield built
    built.close()


SCHEMA = TableSchema.of("x", Column("y", ColumnType.INT64))


def test_create_open_roundtrip(catalog):
    heap = catalog.create("r", SCHEMA)
    append_rows(heap, [(1, 2)])
    reopened = catalog.open("r")
    assert reopened is heap  # cached handle
    assert rows_of(reopened) == [(1, 2)]


def test_schema_persists_across_catalog_instances(catalog, tmp_path):
    append_rows(catalog.create("r", SCHEMA), [(1, 2)])
    catalog.close()
    fresh = Catalog(tmp_path / "cat")
    heap = fresh.open("r")
    assert heap.schema == SCHEMA
    assert rows_of(heap) == [(1, 2)]
    fresh.close()


def test_create_duplicate_rejected(catalog):
    catalog.create("r", SCHEMA)
    with pytest.raises(ValueError, match="already exists"):
        catalog.create("r", SCHEMA)


def test_open_missing_raises(catalog):
    with pytest.raises(KeyError, match="no relation"):
        catalog.open("ghost")


def test_invalid_names_rejected(catalog):
    for bad in ("", "a b", "../evil", "a/b"):
        with pytest.raises(ValueError, match="invalid relation name"):
            catalog.create(bad, SCHEMA)


def test_drop_removes_data_and_metadata(catalog):
    append_rows(catalog.create("r", SCHEMA), [(1, 2)])
    catalog.drop("r")
    assert not catalog.exists("r")
    assert catalog.names() == []
    catalog.create("r", SCHEMA)  # name reusable after drop


def test_names_sorted(catalog):
    for name in ("b", "a", "c"):
        catalog.create(name, SCHEMA)
    assert catalog.names() == ["a", "b", "c"]


def test_destroy_removes_directory(tmp_path):
    catalog = Catalog(tmp_path / "gone")
    catalog.create("r", SCHEMA)
    catalog.destroy()
    assert not (tmp_path / "gone").exists()


#: Bytes written over a relation's schema side file → what the error
#: names beside the file.
DAMAGED_META = {
    "not JSON": (b"\xff not json", "is not JSON"),
    "truncated": (b'[{"name": "x", "ty', "is not JSON"),
    "an object": (b'{"name": "x", "type": "int64"}', "is not a JSON list"),
    "a column a list": (b'[["x", "int64"]]', "column 0 is not a JSON object"),
    "no name": (b'[{"type": "int64"}]', "column 0 has no valid 'name'"),
    "no type": (b'[{"name": "x"}]', "column 0 has no valid 'type'"),
    "a name not text": (b'[{"name": 1, "type": "int64"}]', "no valid 'name'"),
    "a type not text": (b'[{"name": "x", "type": 8}]', "no valid 'type'"),
    "an unknown type": (
        b'[{"name": "x", "type": "int64"}, {"name": "y", "type": "int128"}]',
        "column 1 has no valid 'type'",
    ),
}


@pytest.mark.parametrize("case", sorted(DAMAGED_META))
def test_damaged_relation_meta_fails_in_one_family(tmp_path, case):
    """A relation's schema side file that is not JSON, drops a key or
    holds a wrong type raises :class:`CatalogError` naming the file and
    the key — never a ``KeyError`` / ``TypeError``."""
    catalog = Catalog(tmp_path / "cat")
    catalog.create("r", SCHEMA)
    catalog.close()
    data, named = DAMAGED_META[case]
    meta = tmp_path / "cat" / "r.schema.json"
    meta.write_bytes(data)
    with pytest.raises(CatalogError) as raised:
        Catalog(tmp_path / "cat").open("r")
    assert str(raised.value).startswith(str(meta))
    assert named in str(raised.value)
