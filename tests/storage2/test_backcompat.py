"""Containers written before format version 3 still open.

``format1.cube.v2`` was written by the commit *before* format version 2
(``write_v2`` over ``serving_fact(n=12)`` built as CURE+): version 1 in
the header and directory, every int64 matrix ``raw``, and the
``reorder/<d>`` diagnostic sections that commit still shipped, as well as
the ``index/<d>/*`` inverted indices a reader now derives from the fact
columns instead.  ``format2.cube.v2`` was written the same way by the
commit before format version 3: version 2, ``narrow`` matrices with no
gap column, and CURE+ NT and format (b) CAT relations still in build
order.  Neither version 2 nor version 3 removed anything a reader
needs, so the same reader must open both, verify them and serve them —
to a query and to a restarting writer — and every section today's
builder and writer produce from the same rows must hold what the
fixture's does, once the fixture's NT and CAT rows are put in the order
CURE+ now stores them (stably by their first column).

Regenerate only by checking out those commits; a file rewritten by the
current writer would be version 4 and test nothing.

Version 4 changed no layout: from it on, a partitioned build stores each
trivial tuple once, so a partitioned container of an older version, which
may store one twice, fails closed, while an unpartitioned one still opens.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.core.variants import VARIANTS
from repro.query.answer import normalize_answer
from repro.query.cache import FactCache
from repro.query.planner import CubePlanner, QueryRequest
from repro.query.slice import DimensionSlice
from repro.query.workload import mixed_workload
from repro.server.replay import replay_op
from repro.relational.durable import file_checksum
from repro.storage2 import V2File, open_v2, verify_v2, write_v2
from repro.storage2.codecs import NARROW, RAW
from repro.storage2.format import FORMAT_VERSION, V2FormatError, committed_container
from repro.storage2.mapped import MappedFactTable, map_storage
from tests.query.test_phase_cut import level_one_case
from tests.server.conftest import serving_fact, serving_schema
from tests.support.rows import rows_of, table_of

FIXTURE = Path(__file__).with_name("format1.cube.v2")
FIXTURE_2 = Path(__file__).with_name("format2.cube.v2")


def plus_order(name: str, array: np.ndarray) -> np.ndarray:
    """A section's rows in today's CURE+ order: an NT or CAT stably by
    its first column, anything else as it is."""
    if name.endswith(("/nt", "/cat")):
        return array[np.argsort(array[:, 0], kind="stable")]
    return array


def assert_sections_equal_todays(fixture: Path, tmp_path: Path) -> V2File:
    """Today's CURE+ container from the fixture's rows holds what the
    fixture does, section by section; returns today's file."""
    schema = serving_schema()
    fact = serving_fact(schema, n=12)
    result, _ = VARIANTS["CURE+"].build(schema, table=fact)
    path = tmp_path / "today.cube.v2"
    write_v2(path, schema, result.storage, fact.as_batch())
    today = V2File.open(path)
    old = V2File.open(fixture)
    # Sections are 64-byte aligned, so a few rows may save no file bytes.
    assert fixture.stat().st_size >= today.file_bytes
    # The version 1 fixture predates bundles that publish one container;
    # its directory still carries the empty v1 meta checksum nothing reads.
    assert old.meta.pop("cube_meta_checksum", "") == ""
    # Both carry the relation names the writer stopped recording, which
    # no reader ever used.
    assert (old.meta.pop("cube_prefix"), old.meta.pop("fact_relation")) == (
        "cube", "fact"
    )
    assert old.meta == today.meta
    kept = [
        name
        for name in old.names()
        if not name.startswith(("reorder/", "index/"))
    ]
    assert kept == today.names()
    for name in kept:
        assert old.array(name).dtype == today.array(name).dtype, name
        assert np.array_equal(
            plus_order(name, old.array(name)), today.array(name)
        ), name
    return today


def test_fixture_is_a_version_1_container():
    assert FIXTURE.read_bytes()[8] == 1  # the header's version field
    file = V2File.open(FIXTURE)
    codecs = {file.entry(name).codec for name in file.names()}
    assert RAW in codecs and NARROW not in codecs
    assert verify_v2(FIXTURE).ok


def test_fixture_is_a_version_2_container():
    assert FIXTURE_2.read_bytes()[8] == 2 < FORMAT_VERSION
    file = V2File.open(FIXTURE_2)
    assert NARROW in {file.entry(name).codec for name in file.names()}
    assert not any("gaps" in file.entry(name).extra for name in file.names())
    assert file.meta["plus_processed"] and file.meta["cat_format"] == "b"
    assert verify_v2(FIXTURE_2).ok


def test_version_1_sections_equal_todays(tmp_path):
    assert V2File.open(FIXTURE).meta["cube_meta_checksum"] == ""
    today = assert_sections_equal_todays(FIXTURE, tmp_path)
    assert FIXTURE.stat().st_size > today.file_bytes
    assert any(today.entry(name).codec == NARROW for name in today.names())


def test_version_2_sections_equal_todays(tmp_path):
    today = assert_sections_equal_todays(FIXTURE_2, tmp_path)
    old = V2File.open(FIXTURE_2)
    sorted_now = [name for name in today.names() if name.endswith(("/nt", "/cat"))]
    for name in sorted_now:
        assert (np.diff(today.array(name)[:, 0]) >= 0).all(), name
    # The fixture's format (b) CATs were stored in build order.
    assert any(
        not np.array_equal(old.array(name), today.array(name)) for name in sorted_now
    )


def test_version_2_container_answers_and_loads():
    schema = serving_schema()
    fact = serving_fact(schema, n=12)
    result, _ = VARIANTS["CURE+"].build(schema, table=fact)
    reference = CubePlanner(result.storage, FactCache(schema, table=fact))
    mapped = open_v2(FIXTURE_2, schema)
    planner = CubePlanner(mapped.storage, FactCache(schema, table=mapped.fact))
    for op in mixed_workload(schema, 40, seed=41):
        assert replay_op(planner, op) == replay_op(reference, op), op
    file = committed_container(FIXTURE_2, file_checksum(FIXTURE_2))
    assert rows_of(MappedFactTable(schema, file).as_batch()) == rows_of(fact)
    assert sorted(map_storage(schema, file).nodes) == sorted(result.storage.nodes)


def test_version_1_container_answers_and_loads(tmp_path):
    schema = serving_schema()
    fact = serving_fact(schema, n=12)
    result, _ = VARIANTS["CURE+"].build(schema, table=fact)
    reference = CubePlanner(result.storage, FactCache(schema, table=fact))
    mapped = open_v2(FIXTURE, schema)
    planner = CubePlanner(mapped.storage, FactCache(schema, table=mapped.fact))
    for op in mixed_workload(schema, 40, seed=41):
        assert replay_op(planner, op) == replay_op(reference, op), op
    # What a restarting writer opens: verified whole, then mapped.
    file = committed_container(FIXTURE, file_checksum(FIXTURE))
    assert rows_of(MappedFactTable(schema, file).as_batch()) == rows_of(fact)
    assert sorted(map_storage(schema, file).nodes) == sorted(result.storage.nodes)


def test_version_1_container_slices_from_fact_columns(monkeypatch):
    """A pre-filtered slice over the fixture answers as the in-memory
    cube does, from its fact columns: the stored ``index/*`` sections
    are never requested."""
    requested: list[str] = []
    array = V2File.array

    def spying(file, name):
        requested.append(name)
        return array(file, name)

    monkeypatch.setattr(V2File, "array", spying)
    schema = serving_schema()
    fact = serving_fact(schema, n=12)
    result, _ = VARIANTS["CURE+"].build(schema, table=fact)
    reference = CubePlanner(result.storage, FactCache(schema, table=fact))
    mapped = open_v2(FIXTURE, schema)
    assert mapped.file.has("index/0/rowids")
    planner = CubePlanner(mapped.storage, FactCache(schema, table=mapped.fact))
    for node in schema.lattice.nodes():
        for dim in node.grouping_dims(schema.dimensions):
            for members in ({0}, {1, 2}):
                request = QueryRequest.of(
                    node, DimensionSlice.of(dim, node.levels[dim], members)
                )
                assert planner.plan(request).strategy == "prefilter"
                assert normalize_answer(planner.answer(request)) == (
                    normalize_answer(reference.answer(request))
                ), request
    assert "fact/dim/0" in requested
    assert not [name for name in requested if name.startswith("index/")]


@pytest.mark.parametrize("version", [1, 2, 3])
def test_older_partitioned_container_fails_closed(tmp_path, monkeypatch, version):
    case = level_one_case(plus=True)
    storage = case.build(tmp_path / "engine").storage
    fact = table_of(case.schema.fact_schema, case.rows).as_batch()
    current = tmp_path / "current.cube.v2"
    write_v2(current, case.schema, storage, fact)
    assert V2File.open(current).meta["partition_level"] == 1
    monkeypatch.setattr("repro.storage2.format.FORMAT_VERSION", version)
    older = tmp_path / "older.cube.v2"
    write_v2(older, case.schema, storage, fact)
    with pytest.raises(V2FormatError, match="rebuild the bundle"):
        V2File.open(older)
    storage.partition_level = None  # the same cube, unpartitioned, opens
    write_v2(older, case.schema, storage, fact)
    assert V2File.open(older).meta["partition_level"] is None
