"""The first ``python -m repro ingest`` adopts the saved cube as it stands.

A saved bundle is the generation before 0: ``recover`` maps its
``cube.v2`` as it maps any generation, and keeps the cube when
``delta_refusal`` accepts it (row-id NTs, distributive aggregates,
``min_count`` 1), partitioned, CURE+ or flat alike.  A cube it refuses —
DR, iceberg, or a container that does not record ``min_count`` — is
rebuilt by ``compact()``.  The command prints which it did, and why.
"""

from __future__ import annotations

import csv
import json
import shutil
from pathlib import Path

import pytest

from repro.bundle import open_bundle
from repro.cli import main
from repro.core.signature import SignaturePool
from repro.datasets.loader import DimensionSpec, load_csv
from repro.ingest import StreamingIngestor
from repro.query import answer_cure_query, reference_group_by
from repro.query.answer import normalize_answer
from repro.relational.catalog import Catalog
from repro.relational.durable import file_checksum
from repro.relational.engine import Engine
from repro.relational.memory import MemoryManager
from repro.storage2 import V2_FILE, V2File
from repro.storage2.publish import BundleManifest, read_manifest, write_manifest
from tests.integration.test_bundle_and_cli import make_records
from tests.server.conftest import serving_fact, serving_schema
from tests.support.rows import rows_of

POOL = 200
#: Delta rows in bundle schema order (Product, Region), by member name.
DELTA = [["s0", "Athens", 7], ["s1", "Paris", 11], ["s7", "Lyon", 2],
         ["s0", "Athens", 3], ["s5", "Patras", 4]]
ADOPTED = "adopted the cube in cube.v2: it takes a delta as stored"


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Fact CSV, spec, delta CSV, and a memory budget that partitions."""
    tmp = tmp_path_factory.mktemp("first_ingest")
    csv_path, spec_path, delta_path = (
        tmp / "sales.csv", tmp / "spec.json", tmp / "delta.csv"
    )
    with open(csv_path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["city", "country", "sku", "qty"])
        for record in make_records(200, seed=9):
            writer.writerow(
                [record["city"], record["country"], record["sku"], record["qty"]]
            )
    spec_path.write_text(json.dumps({
        "dimensions": [
            {"name": "Region", "levels": ["city", "country"]},
            {"name": "Product", "levels": ["sku"]},
        ],
        "measures": ["qty"],
    }))
    with open(delta_path, "w", newline="") as handle:
        csv.writer(handle).writerows(DELTA)
    schema = load_csv(
        csv_path,
        [DimensionSpec.of("Region", "city", "country"),
         DimensionSpec.of("Product", "sku")],
        ["qty"],
    ).schema
    budget = (
        SignaturePool.size_bytes(POOL, schema.n_aggregates)
        + 120 * schema.partition_schema.row_size_bytes
    )
    return {"csv": csv_path, "spec": spec_path, "delta": delta_path,
            "budget": budget, "tmp": tmp}


def build(inputs, name: str, *options: str) -> Path:
    root = inputs["tmp"] / name
    if not root.exists():
        assert main([
            "build", "--csv", str(inputs["csv"]), "--spec", str(inputs["spec"]),
            "--out", str(root), "--pool", str(POOL), *options,
        ]) == 0
    return root


def ingest(root: Path, delta: Path, capsys, *options: str) -> list[str]:
    """``python -m repro ingest`` of ``delta`` as one record; its lines."""
    capsys.readouterr()
    assert main([
        "ingest", "--cube", str(root), "--csv", str(delta), *options,
    ]) == 0
    return capsys.readouterr().out.splitlines()


def assert_answers_the_cube_of(root: Path, expected_rows: list[tuple]) -> None:
    """Every node the bundle stores answers the CUBE over ``expected_rows``."""
    with open_bundle(root) as bundle:
        assert rows_of(bundle.v2.fact.as_batch()) == expected_rows
        cache, schema = bundle.fact_cache(), bundle.schema
        for node in schema.lattice.nodes():
            if schema.node_id(node) not in bundle.storage.nodes:
                continue  # FCURE: a coarse node is a roll-up, not stored
            got = normalize_answer(answer_cure_query(bundle.storage, cache, node))
            assert got == reference_group_by(schema, expected_rows, node), node


def after_delta(saved: Path) -> list[tuple]:
    """R ∪ Δ: the saved bundle's fact rows, then :data:`DELTA`'s coded."""
    with open_bundle(saved) as bundle:
        dimensions = bundle.schema.dimensions
        delta = [
            (*(d.member_names[0].index(name) for d, name in zip(dimensions, row)),
             row[-1])
            for row in DELTA
        ]
        return rows_of(bundle.v2.fact.as_batch()) + delta


def no_rebuild(*_args, **_kwargs):
    raise AssertionError("the saved cube was rebuilt")


@pytest.mark.parametrize("variant", ["CURE", "CURE+"])
def test_a_partitioned_bundle_takes_its_first_delta_as_stored(
    inputs, tmp_path, capsys, monkeypatch, variant
):
    saved = build(
        inputs, f"partitioned-{variant}", "--variant", variant,
        "--memory-budget", str(inputs["budget"]),
    )
    assert V2File.open(saved / V2_FILE).meta["partition_level"] is not None
    root = tmp_path / "bundle"
    shutil.copytree(saved, root)
    monkeypatch.setattr("repro.ingest.ingestor.build_cube", no_rebuild)
    lines = ingest(root, inputs["delta"], capsys, "--compact-overhead", "0")
    assert lines[0] == ADOPTED
    assert "0 compaction(s)" in lines[2]
    # One container, written once: the saved one is gone behind it.
    assert sorted(p.name for p in root.glob("*cube.v2")) == ["stream.g0.cube.v2"]
    assert read_manifest(root).generation == 0
    with open_bundle(root) as bundle:
        storage = bundle.storage
        assert storage.partition_level is not None
        assert storage.plus_processed == (variant == "CURE+")
        assert storage.min_count == 1
    assert_answers_the_cube_of(root, after_delta(saved))


def test_a_flat_bundle_is_adopted_and_stays_flat_through_compaction(
    inputs, tmp_path, capsys
):
    saved = build(inputs, "fcure", "--variant", "FCURE")
    root = tmp_path / "bundle"
    shutil.copytree(saved, root)
    lines = ingest(root, inputs["delta"], capsys, "--compact-overhead", "1e-9")
    assert lines[0] == ADOPTED
    assert "1 compaction(s)" in lines[2]
    with open_bundle(root) as bundle:
        schema, storage = bundle.schema, bundle.storage
        assert storage.flat
        flat_ids = {schema.node_id(node) for node in schema.lattice.flat_nodes()}
        assert set(storage.nodes) <= flat_ids
    assert_answers_the_cube_of(root, after_delta(saved))


@pytest.mark.parametrize(
    "name, options, reason",
    [
        ("dr", ["--variant", "CURE_DR"], "its NTs hold dimension codes (DR)"),
        ("iceberg", ["--min-count", "2"], "iceberg cube (min_count 2)"),
    ],
)
def test_a_cube_that_takes_no_delta_is_rebuilt_and_says_why(
    inputs, tmp_path, capsys, name, options, reason
):
    saved = build(inputs, name, *options)
    root = tmp_path / "bundle"
    shutil.copytree(saved, root)
    lines = ingest(root, inputs["delta"], capsys)
    assert lines[0].startswith("rebuilt the cube in cube.v2: ")
    assert reason in lines[0]
    assert "1 compaction(s)" in lines[2]
    with open_bundle(root) as bundle:
        assert not bundle.storage.dr_mode
        assert bundle.storage.min_count == 1
    # The rebuild is the full cube: every node, every group.
    assert_answers_the_cube_of(root, after_delta(saved))
    # And the next ingest takes that cube as stored.
    generation = read_manifest(root).container
    assert ingest(root, inputs["delta"], capsys)[0] == ADOPTED.replace(
        "cube.v2", generation, 1
    )


def test_a_container_that_does_not_record_min_count_is_rebuilt(tmp_path):
    """``format2.cube.v2`` was written before ``min_count`` was recorded:
    it opens, and recovery rebuilds its cube over its facts."""
    fixture = Path(__file__).parents[1] / "storage2" / "format2.cube.v2"
    assert "min_count" not in V2File.open(fixture).meta
    schema, fact = serving_schema(), serving_fact(serving_schema(), n=12)
    root = tmp_path / "bundle"
    root.mkdir()
    shutil.copyfile(fixture, root / V2_FILE)
    write_manifest(
        root,
        BundleManifest(schema, {}, V2_FILE, file_checksum(root / V2_FILE), len(fact)),
    )
    with open_bundle(root) as bundle:
        assert bundle.storage.min_count is None
    engine = Engine(Catalog(root), MemoryManager())
    try:
        ingestor = StreamingIngestor.recover(engine, root / "ingest.log")
    finally:
        engine.close()
    assert ingestor.rebuilt_because == "its container does not record min_count"
    assert (ingestor.generation, ingestor.storage.min_count) == (0, 1)
    assert ingestor.storage.plus_processed  # the fixture is a CURE+ cube
    assert sorted(p.name for p in root.glob("*cube.v2")) == ["stream.g0.cube.v2"]
    assert_answers_the_cube_of(root, rows_of(fact))
