"""A container written before the ``narrow`` codec still opens.

``format1.cube.v2`` was written by the commit *before* format version 2
(``write_v2`` over ``serving_fact(n=12)`` built as CURE+): version 1 in
the header and directory, every int64 matrix ``raw``, and the
``reorder/<d>`` diagnostic sections that commit still shipped, as well as
the ``index/<d>/*`` inverted indices a reader now derives from the fact
columns instead.  Version 2 added one codec and removed nothing a reader
needs, so the same reader must open it, verify it and serve it — to a
query and to a restarting writer —
and every section today's builder and writer produce from the same rows
must hold what the fixture's does.

Regenerate only by checking out that commit; a file rewritten by the
current writer would be version 2 and test nothing.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

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
from repro.storage2.format import committed_container
from repro.storage2.mapped import MappedFactTable, map_storage
from tests.server.conftest import serving_fact, serving_schema
from tests.support.rows import rows_of

FIXTURE = Path(__file__).with_name("format1.cube.v2")


def test_fixture_is_a_version_1_container():
    assert FIXTURE.read_bytes()[8] == 1  # the header's version field
    file = V2File.open(FIXTURE)
    codecs = {file.entry(name).codec for name in file.names()}
    assert RAW in codecs and NARROW not in codecs
    assert verify_v2(FIXTURE).ok


def test_version_1_sections_equal_todays(tmp_path):
    schema = serving_schema()
    fact = serving_fact(schema, n=12)
    result, _ = VARIANTS["CURE+"].build(schema, table=fact)
    path = tmp_path / "today.cube.v2"
    write_v2(path, schema, result.storage, fact.as_batch())
    today = V2File.open(path)
    old = V2File.open(FIXTURE)
    assert FIXTURE.stat().st_size > today.file_bytes
    # The fixture predates bundles that publish one container; its
    # directory still carries the empty v1 meta checksum nothing reads.
    assert old.meta.pop("cube_meta_checksum") == ""
    assert old.meta == today.meta
    kept = [
        name
        for name in old.names()
        if not name.startswith(("reorder/", "index/"))
    ]
    assert kept == today.names()
    assert any(today.entry(name).codec == NARROW for name in kept)
    for name in kept:
        assert old.array(name).dtype == today.array(name).dtype, name
        assert np.array_equal(old.array(name), today.array(name)), name


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
