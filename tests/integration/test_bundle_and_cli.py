"""Integration tests for cube bundles and the command-line interface."""

import csv
import json
import random

import pytest

from repro import build_cube
from repro.bundle import (
    open_bundle,
    save_bundle,
    schema_from_json,
    schema_to_json,
    streamed_container,
)
from repro.cli import main as cli_main
from repro.datasets.loader import DimensionSpec, load_records
from repro.query import answer_cure_query, reference_group_by
from repro.query.answer import normalize_answer
from repro.storage2 import publish_v2_bundle

CITIES = [
    ("Athens", "Greece"), ("Patras", "Greece"),
    ("Paris", "France"), ("Lyon", "France"),
]


def make_records(n=300, seed=5):
    rng = random.Random(seed)
    records = []
    for _ in range(n):
        city, country = CITIES[rng.randrange(len(CITIES))]
        records.append(
            {
                "city": city, "country": country,
                "sku": f"s{rng.randrange(8)}",
                "qty": rng.randrange(1, 10),
            }
        )
    return records


@pytest.fixture
def loaded():
    return load_records(
        make_records(),
        [DimensionSpec.of("Region", "city", "country"),
         DimensionSpec.of("Product", "sku")],
        ["qty"],
    )


def test_schema_json_roundtrip(loaded):
    payload = schema_to_json(loaded.schema)
    rebuilt = schema_from_json(json.loads(json.dumps(payload)))
    assert rebuilt.dimensions == loaded.schema.dimensions
    assert rebuilt.n_measures == loaded.schema.n_measures
    assert [s.name for s in rebuilt.aggregates] == [
        s.name for s in loaded.schema.aggregates
    ]
    # Member names survive (they are compare=False on Dimension).
    assert (
        rebuilt.dimensions[0].member_names
        == loaded.schema.dimensions[0].member_names
    )


def test_bundle_save_open_query(tmp_path, loaded):
    result = build_cube(loaded.schema, table=loaded.table)
    save_bundle(tmp_path / "b", loaded.schema, loaded.table, result.storage,
                extra={"variant": "CURE"})
    with open_bundle(tmp_path / "b") as bundle:
        assert bundle.extra["variant"] == "CURE"
        assert bundle.fact_row_count == len(loaded.table)
        cache = bundle.fact_cache()
        for node in list(bundle.schema.lattice.nodes())[:6]:
            expected = reference_group_by(
                loaded.schema, loaded.table.to_rows(), node
            )
            got = normalize_answer(
                answer_cure_query(bundle.storage, cache, node)
            )
            assert got == expected


def test_bundle_refuses_overwrite(tmp_path, loaded):
    result = build_cube(loaded.schema, table=loaded.table)
    save_bundle(tmp_path / "b", loaded.schema, loaded.table, result.storage)
    with pytest.raises(FileExistsError):
        save_bundle(tmp_path / "b", loaded.schema, loaded.table, result.storage)


def test_open_missing_bundle(tmp_path):
    with pytest.raises(FileNotFoundError):
        open_bundle(tmp_path / "nope")


@pytest.fixture
def cli_workspace(tmp_path):
    csv_path = tmp_path / "sales.csv"
    with open(csv_path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["city", "country", "sku", "qty"])
        for record in make_records(200, seed=9):
            writer.writerow(
                [record["city"], record["country"], record["sku"],
                 record["qty"]]
            )
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({
        "dimensions": [
            {"name": "Region", "levels": ["city", "country"]},
            {"name": "Product", "levels": ["sku"]},
        ],
        "measures": ["qty"],
    }))
    return tmp_path, csv_path, spec_path


def test_cli_build_describe_nodes_query(cli_workspace, capsys):
    tmp_path, csv_path, spec_path = cli_workspace
    cube_dir = tmp_path / "cube"
    assert cli_main([
        "build", "--csv", str(csv_path), "--spec", str(spec_path),
        "--out", str(cube_dir), "--variant", "CURE",
    ]) == 0
    out = capsys.readouterr().out
    assert "built CURE cube over 200 rows" in out

    assert cli_main(["describe", "--cube", str(cube_dir)]) == 0
    out = capsys.readouterr().out
    assert "dimension Region: city(4) -> country(2)" in out

    assert cli_main(["nodes", "--cube", str(cube_dir)]) == 0
    out = capsys.readouterr().out
    assert "∅" in out

    assert cli_main([
        "query", "--cube", str(cube_dir), "--group-by", "Region.country",
    ]) == 0
    out = capsys.readouterr().out
    assert "Greece" in out and "France" in out


def test_cli_build_with_memory_budget_partitions(cli_workspace, capsys):
    from repro.core.signature import SignaturePool
    from repro.datasets.loader import load_csv

    tmp_path, csv_path, spec_path = cli_workspace
    loaded = load_csv(
        csv_path,
        [DimensionSpec.of("Region", "city", "country"),
         DimensionSpec.of("Product", "sku")],
        ["qty"],
    )
    pool_bytes = SignaturePool.size_bytes(200, loaded.schema.n_aggregates)
    budget = pool_bytes + 120 * loaded.schema.partition_schema.row_size_bytes
    cube_dir = tmp_path / "cube_budget"
    assert cli_main([
        "build", "--csv", str(csv_path), "--spec", str(spec_path),
        "--out", str(cube_dir), "--variant", "CURE", "--pool", "200",
        "--memory-budget", str(budget),
    ]) == 0
    out = capsys.readouterr().out
    assert "partitions:" in out
    assert "pair-repartitioned:" in out
    assert "executor: 1 worker(s)" in out

    assert cli_main([
        "query", "--cube", str(cube_dir), "--group-by", "Region.country",
    ]) == 0
    out = capsys.readouterr().out
    assert "Greece" in out and "France" in out


def test_cli_build_parallel_workers_matches_sequential(cli_workspace, capsys):
    from repro.core.signature import SignaturePool
    from repro.datasets.loader import load_csv

    tmp_path, csv_path, spec_path = cli_workspace
    loaded = load_csv(
        csv_path,
        [DimensionSpec.of("Region", "city", "country"),
         DimensionSpec.of("Product", "sku")],
        ["qty"],
    )
    pool_bytes = SignaturePool.size_bytes(200, loaded.schema.n_aggregates)
    budget = pool_bytes + 120 * loaded.schema.partition_schema.row_size_bytes
    answers = {}
    for workers in (1, 2):
        cube_dir = tmp_path / f"cube_w{workers}"
        assert cli_main([
            "build", "--csv", str(csv_path), "--spec", str(spec_path),
            "--out", str(cube_dir), "--variant", "CURE", "--pool", "200",
            "--memory-budget", str(budget), "--workers", str(workers),
        ]) == 0
        out = capsys.readouterr().out
        assert f"executor: {workers} worker(s)" in out
        assert cli_main([
            "query", "--cube", str(cube_dir), "--group-by", "Region.country",
        ]) == 0
        answers[workers] = capsys.readouterr().out
    assert answers[2] == answers[1]


def test_cli_query_where_filters_members(cli_workspace, capsys):
    tmp_path, csv_path, spec_path = cli_workspace
    cube_dir = tmp_path / "cube"
    cli_main([
        "build", "--csv", str(csv_path), "--spec", str(spec_path),
        "--out", str(cube_dir),
    ])
    capsys.readouterr()
    cli_main([
        "query", "--cube", str(cube_dir), "--group-by", "Region",
        "--where", "Region.country=Greece",
    ])
    out = capsys.readouterr().out
    assert "Athens" in out and "Patras" in out
    assert "Paris" not in out and "Lyon" not in out


def test_cli_errors(cli_workspace, capsys):
    tmp_path, csv_path, spec_path = cli_workspace
    cube_dir = tmp_path / "cube"
    cli_main([
        "build", "--csv", str(csv_path), "--spec", str(spec_path),
        "--out", str(cube_dir),
    ])
    capsys.readouterr()
    with pytest.raises(SystemExit):
        cli_main([
            "query", "--cube", str(cube_dir), "--group-by", "Ghost",
        ])
    with pytest.raises(SystemExit):
        cli_main([
            "query", "--cube", str(cube_dir), "--group-by", "Region",
            "--where", "Region.country=Atlantis",
        ])


def test_bundle_roundtrips_complex_hierarchy(tmp_path):
    """DAG hierarchies (multiple parents) survive JSON serialization."""
    import random

    from repro import CubeSchema, Table, complex_dimension, flat_dimension, make_aggregates

    time = complex_dimension(
        "Time",
        [("day", 14), ("week", 2), ("month", 2)],
        [list(range(14)), [d // 7 for d in range(14)],
         [d % 2 for d in range(14)]],
        [(1, 2), (3,), (3,)],
    )
    schema = CubeSchema(
        (time, flat_dimension("X", 3)),
        make_aggregates(("sum", 0), ("count", 0)),
        1,
    )
    rng = random.Random(4)
    table = Table(
        schema.fact_schema,
        [(rng.randrange(14), rng.randrange(3), rng.randrange(5))
         for _ in range(120)],
    )
    result = build_cube(schema, table=table)
    save_bundle(tmp_path / "b", schema, table, result.storage)
    with open_bundle(tmp_path / "b") as bundle:
        reloaded_time = bundle.schema.dimensions[0]
        assert reloaded_time.parents == time.parents
        assert not reloaded_time.is_linear
        assert set(reloaded_time.entry_levels()) == set(time.entry_levels())
        cache = bundle.fact_cache()
        for node in bundle.schema.lattice.nodes():
            expected = reference_group_by(schema, table.to_rows(), node)
            got = normalize_answer(
                answer_cure_query(bundle.storage, cache, node)
            )
            assert got == expected


def test_cli_limits_truncate_output(cli_workspace, capsys):
    tmp_path, csv_path, spec_path = cli_workspace
    cube_dir = tmp_path / "cube"
    cli_main([
        "build", "--csv", str(csv_path), "--spec", str(spec_path),
        "--out", str(cube_dir),
    ])
    capsys.readouterr()
    cli_main(["nodes", "--cube", str(cube_dir), "--limit", "2"])
    out = capsys.readouterr().out
    assert "more (raise --limit)" in out
    cli_main([
        "query", "--cube", str(cube_dir), "--group-by", "Region,Product",
        "--limit", "3",
    ])
    out = capsys.readouterr().out
    assert "more rows (raise --limit)" in out


def _write_delta_csv(path, rows):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        for row in rows:
            writer.writerow(row)


def test_cli_ingest_updates_bundle_queries(cli_workspace, capsys):
    tmp_path, csv_path, spec_path = cli_workspace
    cube_dir = tmp_path / "cube"
    cli_main([
        "build", "--csv", str(csv_path), "--spec", str(spec_path),
        "--out", str(cube_dir),
    ])
    capsys.readouterr()

    # Bundle schema order (by decreasing cardinality): Product, Region.
    delta_csv = tmp_path / "delta.csv"
    _write_delta_csv(
        delta_csv,
        [["s0", "Athens", 7], ["s1", "Paris", 11], ["s0", "Athens", 2]],
    )
    assert cli_main([
        "ingest", "--cube", str(cube_dir), "--csv", str(delta_csv),
        "--batch", "2",
    ]) == 0
    out = capsys.readouterr().out
    assert "ingested 3 rows" in out
    assert "committed generation" in out

    assert "lag 0 records" in out

    # The bundle now answers from the committed ingest generation: one
    # mapped v2 container, no v1 relations behind it.
    with open_bundle(cube_dir) as bundle:
        assert bundle.v2.file.path == streamed_container(cube_dir)
        assert bundle.fact_row_count == 203
        cache = bundle.fact_cache()
        fact_rows = cache.fetch_many(range(bundle.fact_row_count))
        for node in bundle.schema.lattice.nodes():
            expected = reference_group_by(bundle.schema, fact_rows, node)
            got = normalize_answer(
                answer_cure_query(bundle.storage, cache, node)
            )
            assert got == expected, node.label(bundle.schema.dimensions)

    # The query command reads the new rows too.
    cli_main([
        "query", "--cube", str(cube_dir), "--group-by", "Region",
        "--where", "Region.city=Athens",
    ])
    out = capsys.readouterr().out
    assert "Athens" in out

    # A second ingest recovers the committed state and applies on top.
    _write_delta_csv(delta_csv, [["s2", "Lyon", 5]])
    assert cli_main([
        "ingest", "--cube", str(cube_dir), "--csv", str(delta_csv),
    ]) == 0
    out = capsys.readouterr().out
    assert "ingested 1 rows" in out
    with open_bundle(cube_dir) as bundle:
        assert bundle.fact_row_count == 204


def test_first_ingest_bootstraps_from_the_container(cli_workspace, capsys):
    """The first ingest takes its baseline facts from the bundle's
    ``cube.v2``: with the fact heap deleted it commits the very generation
    bytes it commits with the heap present."""
    tmp_path, csv_path, spec_path = cli_workspace
    delta_csv = tmp_path / "delta.csv"
    _write_delta_csv(delta_csv, [["s0", "Athens", 7], ["s1", "Paris", 11]])
    generations = []
    for name, drop_heap in (("with-heap", False), ("without-heap", True)):
        cube_dir = tmp_path / name
        cli_main([
            "build", "--csv", str(csv_path), "--spec", str(spec_path),
            "--out", str(cube_dir),
        ])
        if drop_heap:
            (cube_dir / "fact.dat").unlink()
            (cube_dir / "fact.schema.json").unlink()
        assert cli_main([
            "ingest", "--cube", str(cube_dir), "--csv", str(delta_csv),
        ]) == 0
        generations.append(streamed_container(cube_dir).read_bytes())
    capsys.readouterr()
    assert generations[0] == generations[1]


def test_streamed_bundle_serves_its_generation_container(cli_workspace, capsys):
    """After an ingest the committed generation *is* the served v2 file:
    the ``cube.v2`` the build published is left as it was and no longer
    served, ``verify-cube`` checks the generation, and a damaged
    generation stops the next ingest instead of silently restarting from
    the bundle's original facts."""
    tmp_path, csv_path, spec_path = cli_workspace
    cube_dir = tmp_path / "cube"
    cli_main([
        "build", "--csv", str(csv_path), "--spec", str(spec_path),
        "--out", str(cube_dir),
    ])
    assert cli_main(["verify-cube", "--cube", str(cube_dir)]) == 0
    assert "cube.v2" in capsys.readouterr().out
    published = (cube_dir / "cube.v2").read_bytes()
    assert streamed_container(cube_dir) is None
    assert publish_v2_bundle(cube_dir) == cube_dir / "cube.v2"
    delta_csv = tmp_path / "delta.csv"
    _write_delta_csv(delta_csv, [["s0", "Athens", 7]])
    assert cli_main(["ingest", "--cube", str(cube_dir), "--csv", str(delta_csv)]) == 0
    capsys.readouterr()

    generation = streamed_container(cube_dir)
    assert generation is not None and generation.name == "stream.g1.cube.v2"
    with open_bundle(cube_dir) as bundle:
        assert bundle.v2.file.path == generation
        assert bundle.fact_row_count == 201

    assert publish_v2_bundle(cube_dir) == generation
    assert (cube_dir / "cube.v2").read_bytes() == published  # untouched
    assert cli_main(["verify-cube", "--cube", str(cube_dir)]) == 0
    assert generation.name in capsys.readouterr().out

    from repro.storage2 import V2File

    data = bytearray(generation.read_bytes())
    data[V2File.open(generation).entry("fact/measure/0").offset] ^= 0xFF
    generation.write_bytes(bytes(data))
    assert cli_main(["verify-cube", "--cube", str(cube_dir)]) != 0
    capsys.readouterr()
    with pytest.raises(SystemExit, match="fails verification"):
        cli_main(["ingest", "--cube", str(cube_dir), "--csv", str(delta_csv)])


def test_cli_ingest_rejects_malformed_rows(cli_workspace, capsys):
    tmp_path, csv_path, spec_path = cli_workspace
    cube_dir = tmp_path / "cube"
    cli_main([
        "build", "--csv", str(csv_path), "--spec", str(spec_path),
        "--out", str(cube_dir),
    ])
    capsys.readouterr()
    delta_csv = tmp_path / "bad.csv"
    _write_delta_csv(delta_csv, [["s0", "Athens"]])  # missing measure
    with pytest.raises(SystemExit, match="expected 3 fields"):
        cli_main(["ingest", "--cube", str(cube_dir), "--csv", str(delta_csv)])
    _write_delta_csv(delta_csv, [["s0", "Atlantis", 1]])  # unknown member
    with pytest.raises(SystemExit, match="Atlantis"):
        cli_main(["ingest", "--cube", str(cube_dir), "--csv", str(delta_csv)])
