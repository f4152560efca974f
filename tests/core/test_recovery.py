"""The durable build's two artifacts: a checkpoint and the final container.

The crash suites under ``tests/property`` hold "crash anywhere → resume →
identical bytes".  This module pins what those cannot see from outside:
the order a checkpoint reaches disk in, that each container fails closed
when a byte of it flips, that the build stays inside the memory budget
and never loads the fact relation whole, and that the cost of durability — ``fsync``s
and fault sites — is a function of the staged relations, manifest saves
and checkpoints, with no term in the number of lattice nodes.
"""

from __future__ import annotations

import json
import os
import random
import stat
from collections import Counter
from dataclasses import fields
from pathlib import Path

import pytest

from repro import (
    CubeSchema,
    Engine,
    Table,
    build_cube,
    flat_dimension,
    linear_dimension,
    make_aggregates,
)
from repro.core.recovery import (
    _MANIFEST_FIELDS,
    BuildManifest,
    DurableCubeBuild,
    ManifestError,
    verify_cube,
)
from repro.faults import FaultInjector, FaultKind, FaultSpec
from repro.relational.catalog import Catalog
from repro.relational.durable import InjectedCrash
from repro.relational.heap import HeapFile
from repro.relational.memory import MemoryManager
from repro.storage2 import V2File
from tests.property.test_crash_resume import (
    POOL_CAPACITY,
    _budget,
    _fresh_engine,
    _instance,
)
from tests.storage2.test_corruption import flip_byte
from tests.support.rows import cube_bytes, table_of


def _four_dimension_instance() -> tuple[CubeSchema, Table]:
    a = linear_dimension("A", [("A0", 12), ("A1", 4), ("A2", 2)])
    dimensions = (a, flat_dimension("B", 5), flat_dimension("C", 4),
                  flat_dimension("D", 3))
    schema = CubeSchema(
        dimensions, make_aggregates(("sum", 0), ("count", 0)), n_measures=1
    )
    rng = random.Random(11)
    rows = [
        (rng.randrange(12), rng.randrange(5), rng.randrange(4),
         rng.randrange(3), rng.randrange(100))
        for _ in range(600)
    ]
    return schema, table_of(schema.fact_schema, rows)


def _durable(schema, engine) -> DurableCubeBuild:
    return DurableCubeBuild(schema, engine, "fact", pool_capacity=POOL_CAPACITY)


def _flip_in_first_section(container: Path) -> str:
    """Flip one payload byte of the container's first section; its name."""
    file = V2File.open(container)
    section = file.names()[0]
    flip_byte(container, file.entry(section).offset + 1)
    return section


def _recorded_build(root, instance):
    """One uninterrupted durable build: result, site trace, ``fsync`` count."""
    schema, table = instance
    engine = _fresh_engine(root, schema, table, _budget(schema, table))
    recorder = FaultInjector.recording()
    engine.install_faults(recorder)
    fsyncs = 0
    real_fsync = os.fsync

    def counting_fsync(fd):
        nonlocal fsyncs
        fsyncs += 1
        real_fsync(fd)

    os.fsync = counting_fsync
    try:
        result = _durable(schema, engine).build()
    finally:
        os.fsync = real_fsync
    assert result.stats.partitioned
    return engine, result, list(recorder.trace), fsyncs


def test_cost_of_durability_has_no_term_in_lattice_nodes(tmp_path):
    instances = {"2d": _instance(), "4d": _four_dimension_instance()}
    nodes = [schema.enumerator.n_nodes for schema, _table in instances.values()]
    assert nodes[0] == 8 < nodes[1]
    for name, instance in instances.items():
        root = tmp_path / name
        engine, _result, trace, fsyncs = _recorded_build(root, instance)
        engine.close()
        partitions = len(
            BuildManifest.load(root / "cube.manifest.json").partitions
        )
        families = Counter(site.split(":", 1)[0] for site in trace)
        # Two per sidecar, container or manifest written and four per
        # staged relation promoted: nothing per cube relation.
        assert fsyncs == (
            2 * families["catalog.create"]
            + 4 * families["catalog.publish"]
            + 2 * families["manifest.save"]
            + 2 * families["storage2.publish"]
        )
        assert families["catalog.create"] == partitions + 1  # + the coarse node
        # Every site that names the cube is a manifest save or a container …
        cube_sites = Counter(
            site.split(":", 1)[0]
            for site in trace
            if site.split(":", 1)[1].startswith("cube")
        )
        assert cube_sites == {
            "manifest.save": partitions + 3,  # init, partitioned, checkpoints, final
            "storage2.publish": partitions + 1,
            "checkpoint.write": partitions,
            "commit.final": 1,
        }
        # … and every relation site names the fact relation or its partitions.
        for site in trace:
            family, target = site.split(":", 1)
            if family.startswith(("catalog.", "heap.")):
                assert target.startswith("fact"), site
        assert sorted(path.name for path in root.iterdir()) == [
            "cube.manifest.json", "cube.v2", "fact.dat", "fact.schema.json",
        ]


def test_checkpoint_reaches_disk_in_commit_order(tmp_path, monkeypatch):
    """write → fsync → rename → directory fsync → manifest → unlink previous."""
    schema, table = _instance()
    engine = _fresh_engine(tmp_path, schema, table, _budget(schema, table))
    durable = _durable(schema, engine)
    events: list[tuple] = []
    recording = False
    real = {name: getattr(os, name) for name in ("fsync", "replace", "unlink")}

    def fsync(fd):
        if recording:
            is_dir = stat.S_ISDIR(os.fstat(fd).st_mode)
            events.append(("fsync", "directory" if is_dir else "file"))
        real["fsync"](fd)

    def replace(source, target):
        if recording:
            events.append(("replace", Path(source).name, Path(target).name))
        real["replace"](source, target)

    def unlink(path, **kwargs):
        if recording:
            events.append(("unlink", Path(path).name))
        real["unlink"](path, **kwargs)

    for name, spy in (("fsync", fsync), ("replace", replace), ("unlink", unlink)):
        monkeypatch.setattr(os, name, spy)
    write_checkpoint = durable._write_checkpoint
    calls = 0

    def second_checkpoint_recorded(*args):
        nonlocal recording, calls
        calls += 1
        recording = calls == 2  # the first one has no predecessor to unlink
        try:
            write_checkpoint(*args)
        finally:
            recording = False

    monkeypatch.setattr(durable, "_write_checkpoint", second_checkpoint_recorded)
    durable.build()
    engine.close()
    assert calls >= 2
    assert events == [
        ("fsync", "file"),
        ("replace", "cube.ckpt1.v2.wip", "cube.ckpt1.v2"),
        ("fsync", "directory"),
        ("fsync", "file"),
        ("replace", "cube.manifest.json.wip", "cube.manifest.json"),
        ("fsync", "directory"),
        ("unlink", "cube.ckpt0.v2"),
    ]


def test_flipped_byte_in_checkpoint_is_not_trusted(tmp_path):
    instance = schema, table = _instance()
    budget = _budget(schema, table)
    reference_engine, reference, _trace, _ = _recorded_build(
        tmp_path / "reference", instance
    )
    expected = cube_bytes(reference.storage)
    reference_engine.close()

    root = tmp_path / "crashed"
    engine = _fresh_engine(root, schema, table, budget)
    engine.install_faults(
        FaultInjector(
            plan=(
                FaultSpec(
                    site="storage2.publish:cube.ckpt2.v2",
                    kind=FaultKind.CRASH,
                    hit=1,
                ),
            )
        )
    )
    with pytest.raises(InjectedCrash):
        _durable(schema, engine).build()
    engine.close()
    checkpoint = BuildManifest.load(root / "cube.manifest.json").checkpoint
    assert checkpoint["container"] == "cube.ckpt1.v2"
    _flip_in_first_section(root / "cube.ckpt1.v2")

    engine = Engine(Catalog(root), MemoryManager(budget))
    recorder = FaultInjector.recording()
    engine.install_faults(recorder)
    durable = _durable(schema, engine)
    result = durable.resume()
    # Every partition was rebuilt: the checkpoint ids start over.
    assert recorder.sites("storage2.publish:cube.ckpt0.v2")
    assert cube_bytes(result.storage) == expected
    report = verify_cube(engine.catalog, durable.manifest_path)
    assert report.ok, report.describe()
    engine.close()


def test_flipped_byte_in_final_container_fails_verification(tmp_path):
    engine, _result, _trace, _ = _recorded_build(tmp_path, _instance())
    engine.install_faults(None)
    schema = _instance()[0]
    durable = _durable(schema, engine)
    assert verify_cube(engine.catalog, durable.manifest_path).ok
    section = _flip_in_first_section(tmp_path / "cube.v2")
    report = verify_cube(engine.catalog, durable.manifest_path)
    assert not report.ok
    assert any(repr(section) in problem for problem in report.problems)
    assert any("'cube.v2'" in problem for problem in report.problems)
    with pytest.raises(ManifestError, match="fails verification"):
        durable.resume()
    engine.close()


def test_build_never_reads_the_fact_relation_whole(tmp_path, monkeypatch):
    """The commit is cube-only: under the crash-suite budget, which the
    fact relation does not fit, nothing reserves or loads it."""
    schema, table = _instance()
    load_mapped = HeapFile.load_mapped

    def no_whole_fact_load(heap):
        assert heap.path.name != "fact.dat", "fact relation loaded whole"
        return load_mapped(heap)

    monkeypatch.setattr(HeapFile, "load_mapped", no_whole_fact_load)
    engine, _result, _trace, _ = _recorded_build(tmp_path, (schema, table))
    assert engine.memory.peak_bytes <= _budget(schema, table)
    assert engine.memory.used_bytes == 0
    # The final container is what a checkpoint is; the fact table stays
    # the catalog's relation.
    file = V2File.open(tmp_path / "cube.v2")
    assert not [name for name in file.names() if name.startswith(("fact/", "index/"))]
    assert file.meta["fact_row_count"] == len(table) == len(engine.relation("fact"))
    engine.close()


def test_holistic_aggregate_is_refused_before_anything_is_staged(tmp_path):
    """A durable build runs the same Section 4 driver as ``build_cube``:
    the distributive-aggregates guard comes before the partition pass, so
    the refusal is the same one and no staged relation is left behind."""
    base, table = _instance()
    schema = CubeSchema(
        base.dimensions, make_aggregates(("median", 0), ("count", 0)), 1
    )
    message = "external partitioning requires distributive aggregates"
    budget = _budget(schema, table)
    plain = _fresh_engine(tmp_path / "plain", schema, table, budget)
    with pytest.raises(ValueError, match=message):
        build_cube(
            schema, engine=plain, relation="fact", pool_capacity=POOL_CAPACITY
        )
    plain.close()
    engine = _fresh_engine(tmp_path / "durable", schema, table, budget)
    with pytest.raises(ValueError, match=message):
        _durable(schema, engine).build()
    engine.close()
    assert not list((tmp_path / "durable").glob("*.wip*"))


def test_version_2_manifest_is_refused_by_the_version_check(tmp_path):
    """A manifest written before ``levels`` / the ``coarse`` list fails the
    version gate — not ``BuildManifest(**payload)`` — and resume touches
    nothing."""
    schema, table = _instance()
    engine = _fresh_engine(tmp_path, schema, table, _budget(schema, table))
    durable = _durable(schema, engine)
    entry = {"name": "fact.part0", "checksum": "00", "rows": 1}
    durable.manifest_path.write_text(
        json.dumps(
            {
                "version": 2,
                "relation": "fact",
                "prefix": "cube",
                "stage": "partitioned",
                "options": durable._options(),
                "fact_checksum": engine.catalog.checksum("fact"),
                "fact_rows": len(table),
                "partition_mode": "pair",
                "partition_level": 1,
                "partition_level2": 0,
                "partitions": [entry],
                "coarse": {**entry, "name": "fact.coarseN1"},
                "coarse2": {**entry, "name": "fact.coarseN2"},
                "checkpoint": None,
                "final": None,
                "stats": None,
            }
        )
    )
    listing = sorted(path.name for path in tmp_path.iterdir())
    with pytest.raises(ManifestError, match="unsupported version"):
        durable.resume()
    assert sorted(path.name for path in tmp_path.iterdir()) == listing
    engine.close()


def test_manifest_fields_are_the_dataclass_fields():
    assert _MANIFEST_FIELDS.keys() == {f.name for f in fields(BuildManifest)}


@pytest.mark.parametrize(
    ("mutate", "names"),
    [
        (lambda doc: doc.pop("stage"), "'stage'"),
        (lambda doc: doc.update(fact_rows="600"), "'fact_rows'"),
        (lambda doc: doc.update(levels=None), "'levels'"),
        (lambda doc: doc.update(partition_mode="pair"), "'partition_mode'"),
    ],
    ids=["missing", "mistyped", "null list", "unknown"],
)
def test_a_malformed_manifest_is_a_manifest_error_naming_its_field(
    tmp_path, mutate, names
):
    """A dropped, mistyped or unknown key fails as ``ManifestError``
    naming the file and the key — not a ``TypeError`` from the
    dataclass — and a resume over it writes nothing."""
    schema, table = _instance()
    engine = _fresh_engine(tmp_path, schema, table, _budget(schema, table))
    durable = _durable(schema, engine)
    durable.build()
    path = durable.manifest_path
    document = json.loads(path.read_text())
    mutate(document)
    path.write_text(json.dumps(document))
    listing = sorted((p.name, p.stat().st_mtime_ns) for p in tmp_path.iterdir())
    with pytest.raises(ManifestError, match=names) as raised:
        BuildManifest.load(path)
    assert path.name in str(raised.value)
    with pytest.raises(ManifestError, match=names):
        durable.resume()
    assert not verify_cube(engine.catalog, path).ok
    assert sorted((p.name, p.stat().st_mtime_ns) for p in tmp_path.iterdir()) == listing
    engine.close()


@pytest.mark.parametrize("text", ["", "{", "[]", "\xff"], ids=repr)
def test_a_manifest_that_is_not_a_json_object_is_a_manifest_error(tmp_path, text):
    path = tmp_path / "cube.manifest.json"
    path.write_bytes(text.encode("latin-1"))
    with pytest.raises(ManifestError, match="cube.manifest.json"):
        BuildManifest.load(path)
