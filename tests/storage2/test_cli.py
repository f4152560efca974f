"""End-to-end wiring: build → verify, the build-time publish, rebuilds.

Covers the operational surface of the v2 format — ``python -m repro
build`` publishing ``cube.v2`` and ``verify-cube --cube`` exit codes,
:func:`save_bundle`'s commit order (the container before ``bundle.json``),
the :class:`DurableCubeBuild` final commit (one ``<prefix>.v2``
container), and the rebuild error for a bundle with no container.
"""

from __future__ import annotations

import csv
import functools
import json
import random

import pytest

import repro.bundle as bundle_module
from repro.bundle import BUNDLE_META, open_bundle, save_bundle, schema_to_json
from repro.cli import main
from repro.core.variants import VARIANTS
from repro.faults.injector import FaultInjector, FaultKind, FaultSpec
from repro.relational.batch import ColumnBatch
from repro.relational.catalog import Catalog
from repro.relational.durable import InjectedCrash
from repro.relational.schema import Column, ColumnType, TableSchema
from repro.storage2 import V2_FILE, V2File, verify_v2
from tests.server.conftest import serving_fact, serving_schema
from tests.storage2.test_corruption import flip_byte


CITIES = [
    ("Athens", "Greece"), ("Patras", "Greece"),
    ("Paris", "France"), ("Lyon", "France"),
]


def cli_build(tmp_path, name: str = "bundle"):
    """``python -m repro build`` over a small CSV; the bundle directory."""
    csv_path, spec_path = tmp_path / "sales.csv", tmp_path / "spec.json"
    if not csv_path.exists():
        rng = random.Random(9)
        with open(csv_path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["city", "country", "sku", "qty"])
            for _ in range(200):
                city, country = rng.choice(CITIES)
                writer.writerow(
                    [city, country, f"s{rng.randrange(60)}", rng.randrange(1, 6)]
                )
        spec_path.write_text(json.dumps({
            "dimensions": [
                {"name": "Region", "levels": ["city", "country"]},
                {"name": "Product", "levels": ["sku"]},
            ],
            "measures": ["qty"],
        }))
    bundle_dir = tmp_path / name
    assert main([
        "build", "--csv", str(csv_path), "--spec", str(spec_path),
        "--out", str(bundle_dir),
    ]) == 0
    return bundle_dir


@pytest.fixture
def bundle_dir(tmp_path, capsys):
    """A freshly built bundle, published by ``build`` itself."""
    built = cli_build(tmp_path)
    capsys.readouterr()
    return built


def test_publish_and_verify_roundtrip(bundle_dir, capsys):
    assert sorted(p.name for p in bundle_dir.iterdir()) == [
        BUNDLE_META, V2_FILE, "fact.dat", "fact.schema.json"
    ]
    assert main(["verify-cube", "--cube", str(bundle_dir)]) == 0
    report = capsys.readouterr().out
    assert "ok" in report and "sections" in report
    assert "v1" not in report  # the report names only what the file holds
    # Stored beside decoded bytes, per section and for the file, and the
    # column widths of the narrow sections.
    assert "stored/decoded" in report and "widths " in report
    verified = verify_v2(bundle_dir / V2_FILE)
    assert verified.stored_bytes < verified.decoded_bytes
    aggregates = next(s for s in verified.sections if s.name == "aggregates")
    assert aggregates.codec == "narrow"
    assert aggregates.decoded_bytes == aggregates.count * 8
    rows = aggregates.count // len(aggregates.widths)
    assert aggregates.nbytes == sum(aggregates.widths) * rows
    tt = next(s for s in verified.sections if s.name.endswith("/tt"))
    assert tt.widths is None and tt.decoded_bytes == tt.count * 8


def test_verify_cube_flags_corruption(bundle_dir, capsys):
    target = bundle_dir / V2_FILE
    entry = V2File.open(target).entry("aggregates")
    flip_byte(target, entry.offset + 1)
    assert main(["verify-cube", "--cube", str(bundle_dir)]) != 0
    out = capsys.readouterr().out
    assert "aggregates" in out


def test_verify_cube_flags_truncation(bundle_dir, capsys):
    target = bundle_dir / V2_FILE
    target.write_bytes(target.read_bytes()[:100])
    assert main(["verify-cube", "--cube", str(bundle_dir)]) != 0


def test_verify_cube_requires_a_target():
    with pytest.raises(SystemExit, match="catalog.*cube|cube.*catalog"):
        main(["verify-cube"])


def test_publish_is_idempotent_and_picked_up(bundle_dir, tmp_path, capsys):
    again = cli_build(tmp_path, "again")
    capsys.readouterr()
    # Deterministic: the same input publishes the same bytes.
    assert (again / V2_FILE).read_bytes() == (bundle_dir / V2_FILE).read_bytes()

    bundle = open_bundle(bundle_dir)
    try:
        assert bundle.v2.file.path == bundle_dir / V2_FILE
    finally:
        bundle.close()


def _small_build():
    schema = serving_schema()
    fact = serving_fact(schema, n=200)
    result, _ = VARIANTS["CURE+"].build(schema, table=fact)
    return schema, fact, result.storage


def test_crash_before_the_container_leaves_no_bundle(tmp_path, monkeypatch):
    """``bundle.json`` commits after the container: a crash at the
    container's publish leaves a directory ``open_bundle`` refuses."""
    injector = FaultInjector(
        (FaultSpec("storage2.publish:cube.v2", FaultKind.CRASH),)
    )
    monkeypatch.setattr(
        bundle_module, "Catalog", functools.partial(Catalog, faults=injector)
    )
    root = tmp_path / "bundle"
    with pytest.raises(InjectedCrash):
        save_bundle(root, *_small_build())
    assert injector.fired == ["crash@storage2.publish:cube.v2"]
    assert not (root / BUNDLE_META).exists()
    assert not (root / V2_FILE).exists()
    with pytest.raises(FileNotFoundError):
        open_bundle(root)


def write_v1_bundle(root, schema, fact, storage) -> None:
    """A bundle in the layout before one-container bundles: ``bundle.json``,
    the fact heap and one heap relation per cube relation beside
    ``cube.meta.json`` — and no ``cube.v2``."""
    catalog = Catalog(root)

    def relation(name, array):
        matrix = array.reshape(len(array), -1)
        columns = tuple(
            Column(f"c{i}", ColumnType.INT64) for i in range(matrix.shape[1])
        )
        heap = catalog.create(name, TableSchema(columns))
        heap.append_batch(ColumnBatch.from_arrays(heap.schema, list(matrix.T)))
        heap.flush()

    try:
        heap = catalog.create("fact", schema.fact_schema)
        heap.append_batch(fact.as_batch())
        heap.flush()
        for node_id, store in storage.nodes.items():
            for kind, array in (
                ("nt", store.nt_matrix()),
                ("tt", store.tt_array()),
                ("cat", store.cat_matrix()),
            ):
                if len(array):
                    relation(f"cube.n{node_id}.{kind}", array)
        if storage.aggregates_count:
            relation("cube.aggregates", storage.aggregates_matrix())
    finally:
        catalog.close()
    (root / "cube.meta.json").write_text(json.dumps(storage.meta()))
    (root / BUNDLE_META).write_text(
        json.dumps({"schema": schema_to_json(schema), "extra": {}})
    )


def test_bundle_without_a_container_must_be_rebuilt(tmp_path):
    """A v1-only bundle is refused with the rebuild error, not loaded."""
    root = tmp_path / "bundle"
    write_v1_bundle(root, *_small_build())
    assert not (root / V2_FILE).exists()
    with pytest.raises(RuntimeError, match="rebuild the bundle"):
        open_bundle(root)


def test_durable_build_publishes_v2(tmp_path):
    """A durable build commits the mapped container with metadata that
    matches what a fresh publish would produce."""
    from repro import Engine
    from repro.core.recovery import DurableCubeBuild
    from repro.relational.catalog import Catalog
    from repro.relational.memory import MemoryManager

    schema = serving_schema()
    fact = serving_fact(schema, n=150)
    engine = Engine(Catalog(tmp_path), MemoryManager(1 << 26))
    engine.store_table("fact", fact)
    durable = DurableCubeBuild(schema, engine, "fact")
    result = durable.build()
    try:
        container = tmp_path / "cube.v2"
        assert container.exists()
        file = V2File.open(container)
        assert file.meta["fact_relation"] == "fact"
        assert file.meta["cube_prefix"] == "cube"
        assert sorted(file.meta["node_ids"]) == sorted(result.storage.nodes)
        assert file.verify_all() == []
    finally:
        engine.close()
