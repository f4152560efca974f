"""A container written before the ``narrow`` codec still opens.

``format1.cube.v2`` was written by the commit *before* format version 2
(``write_v2`` over ``serving_fact(n=12)`` built as CURE+): version 1 in
the header and directory, every int64 matrix ``raw``, and the
``reorder/<d>`` diagnostic sections that commit still shipped.  Version 2
added one codec and removed nothing a reader needs, so the same reader
must open it, verify it, serve it and load it — and what it holds must be
the cube today's builder and writer produce from the same rows.

Regenerate only by checking out that commit; a file rewritten by the
current writer would be version 2 and test nothing.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.core.variants import VARIANTS
from repro.query.cache import FactCache
from repro.query.planner import CubePlanner
from repro.query.workload import mixed_workload
from repro.server.replay import replay_op
from repro.storage2 import V2File, load_v2, open_v2, verify_v2, write_v2
from repro.storage2.codecs import NARROW, RAW
from tests.server.conftest import serving_fact, serving_schema

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
    today = V2File.open(
        write_v2(tmp_path / "today.cube.v2", schema, result.storage, fact.as_batch())
    )
    old = V2File.open(FIXTURE)
    assert FIXTURE.stat().st_size > today.file_bytes
    # The fixture predates bundles that publish one container; its
    # directory still carries the empty v1 meta checksum nothing reads.
    assert old.meta.pop("cube_meta_checksum") == ""
    assert old.meta == today.meta
    kept = [name for name in old.names() if not name.startswith("reorder/")]
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
    planner = CubePlanner(
        mapped.storage,
        FactCache(schema, table=mapped.fact),
        indices=mapped.indices,
    )
    for op in mixed_workload(schema, 40, seed=41):
        assert replay_op(planner, op) == replay_op(reference, op), op
    storage, table = load_v2(FIXTURE, schema)
    assert table.to_rows() == fact.to_rows()
    assert sorted(storage.nodes) == sorted(result.storage.nodes)
