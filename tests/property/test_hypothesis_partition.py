"""Differential: the array partition pass against the tuple-at-a-time oracle.

``repro.core.partition.spill_by_key`` replaced six loops over a heap's
rows; those loops live on in
``tests/support/row_partition.py``, one function per shape.  On random
schemas, skew profiles and budgets, every shape the one production path
takes — level, pair, repartition and local-pair partitioning — and both
counting scans must agree with the oracle on

* the selection (level(s), member weights *in order*: first-fit binning
  breaks ties by it, so it shapes partition files),
* the bytes of every partition file, empty bins included (no data file),
* the bytes of every coarse relation: rows in first-appearance order,
  the first contributor's base code as representative, the minimum
  row-id, the aggregates,
* the ``PartitionStats`` counters and the returned names.

The production pass is run with a small ``scan_batches`` chunk too, so
groups that straddle chunks — and the running fold's merges — are
exercised on inputs hypothesis can shrink.
"""

from __future__ import annotations

from pathlib import Path
from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import repro.core.partition as array_pass
import repro.core.partition_select as array_select
import tests.support.row_partition as row_pass
from repro import CubeSchema, Table, make_aggregates
from repro.core.cure import BuildStats
from repro.faults import FaultInjector
from repro.hierarchy.builders import flat_dimension, linear_dimension
from repro.relational.catalog import Catalog
from repro.relational.engine import Engine
from repro.relational.heap import HeapFile
from repro.relational.memory import MemoryBudgetExceeded, MemoryManager
from tests.support.rows import rows_of, table_of

AGGREGATES = (("sum", 0), ("count", 0), ("min", 0), ("max", 1))


def _dimension(name: str, chain: tuple[int, ...]):
    if len(chain) == 1:
        return flat_dimension(name, chain[0])
    return linear_dimension(
        name, [(f"{name}{i}", c) for i, c in enumerate(chain)]
    )


@st.composite
def cases(draw):
    """A fact table with optional hot members, a budget, a chunk size."""
    c0 = draw(st.integers(2, 12))
    chain0 = draw(
        st.sampled_from([(c0,), (c0, max(2, c0 // 2)), (c0, max(2, c0 // 2), 2)])
    )
    c1 = draw(st.integers(2, 6))
    chain1 = draw(st.sampled_from([(c1,), (c1, 2)]))
    c2 = draw(st.sampled_from([None, 3]))
    n_aggregates = draw(st.integers(1, len(AGGREGATES)))
    row = st.tuples(
        st.integers(0, c0 - 1),
        st.integers(0, c1 - 1),
        st.integers(0, (c2 or 1) - 1),
        st.integers(-50, 50),
        st.integers(0, 9),
    )
    rows = draw(st.lists(row, max_size=120))
    hot = draw(st.integers(0, 150))
    at = draw(st.integers(0, len(rows)))
    rows[at:at] = [(c0 - 1, 0, 0, m, 1) for m in range(hot)]
    allowance_rows = draw(st.integers(1, 200))
    chunk_rows = draw(st.sampled_from([5, 64, 8192]))
    return chain0, chain1, c2, n_aggregates, rows, allowance_rows, chunk_rows


def _schema(chain0, chain1, c2, n_aggregates) -> CubeSchema:
    dimensions = [_dimension("A", chain0), _dimension("B", chain1)]
    if c2 is not None:
        dimensions.append(flat_dimension("C", c2))
    return CubeSchema(
        tuple(dimensions), make_aggregates(*AGGREGATES[:n_aggregates]), 2
    )


def _fact(schema: CubeSchema, rows) -> Table:
    keep = list(range(schema.n_dimensions)) + [3, 4]
    return table_of(schema.fact_schema, [tuple(r[i] for i in keep) for r in rows])


class _Side:
    """One implementation over its own catalog holding the same fact."""

    def __init__(self, root: Path, schema, table, budget, chunk_rows=None):
        self.engine = Engine(Catalog(root), MemoryManager(budget))
        self.engine.store_table("fact", table)
        self.chunk_rows = chunk_rows

    def run(self, function, *args, **kwargs):
        """``function(engine, …)``, reading chunks of ``chunk_rows``."""
        if self.chunk_rows is None:
            return function(self.engine, *args, **kwargs)
        scan_batches = HeapFile.scan_batches

        def small_chunks(heap, chunk_rows=self.chunk_rows):
            return scan_batches(heap, chunk_rows)

        with mock.patch.object(HeapFile, "scan_batches", small_chunks):
            return function(self.engine, *args, **kwargs)

    def data(self) -> dict[str, bytes | None]:
        """Relation name → data file bytes (``None``: never written)."""
        self.engine.catalog.close()
        root = self.engine.catalog.root
        return {
            name: (root / f"{name}.dat").read_bytes()
            if (root / f"{name}.dat").exists()
            else None
            for name in self.engine.catalog.names()
        }


def _sides(tmp_path_factory, case):
    chain0, chain1, c2, n_aggregates, rows, allowance_rows, chunk_rows = case
    schema = _schema(chain0, chain1, c2, n_aggregates)
    table = _fact(schema, rows)
    budget = allowance_rows * schema.partition_schema.row_size_bytes
    root = tmp_path_factory.mktemp("partition")
    return (
        schema,
        _Side(root / "rows", schema, table, budget),
        _Side(root / "arrays", schema, table, budget, chunk_rows),
    )


def _search(k: int, parent_level: int | None = None):
    """The production search over ``k`` dimensions, failing the way the
    oracle's ``select_*`` functions do."""

    def search(engine, relation, schema, strategy="exact"):
        decision = array_select.search_partition_levels(
            engine, relation, schema, k, strategy, parent_level
        )
        if decision is None:
            raise MemoryBudgetExceeded("no workable levels")
        return decision

    return search


def _both(
    oracle: _Side, arrays: _Side, row_function, array_function, *args,
    with_stats=False, **kwargs,
):
    """Run the oracle's function and its production counterpart: equal
    results, or the same error type (``(None, None)``).  ``with_stats``
    hands each side its own ``BuildStats`` and holds the counters equal
    too."""
    stats = []

    def call(side: _Side, function):
        if with_stats:
            stats.append(BuildStats())
            return side.run(function, *args, stats=stats[-1], **kwargs)
        return side.run(function, *args, **kwargs)

    try:
        expected = call(oracle, row_function)
    except (MemoryBudgetExceeded, ValueError) as error:
        with pytest.raises(type(error)):
            call(arrays, array_function)
        return None, None
    actual = call(arrays, array_function)
    if with_stats:
        assert stats[1] == stats[0]
    return expected, actual


def _assert_same_decision(expected, actual) -> None:
    assert actual == expected
    assert list(actual.rows_by_member.items()) == list(
        expected.rows_by_member.items()
    )


def _assert_same_relations(oracle: _Side, arrays: _Side) -> None:
    expected, actual = oracle.data(), arrays.data()
    assert actual.keys() == expected.keys()
    for name in expected:
        assert actual[name] == expected[name], f"{name} differs"


@settings(max_examples=60, deadline=None)
@given(cases(), st.sampled_from(["exact", "uniform"]))
def test_level_partitioning_matches_oracle(tmp_path_factory, case, strategy):
    schema, oracle, arrays = _sides(tmp_path_factory, case)
    expected, actual = _both(
        oracle, arrays, row_pass.select_partition_level, _search(1),
        "fact", schema, strategy,
    )
    if expected is None:
        return
    _assert_same_decision(expected, actual)
    written = _both(
        oracle, arrays, row_pass.partition_relation,
        array_pass.partition_relation, "fact", schema, expected,
        name_suffix=".tmp", with_stats=True,
    )
    assert written[1] == written[0]
    _assert_same_relations(oracle, arrays)


@settings(max_examples=60, deadline=None)
@given(cases())
def test_pair_partitioning_matches_oracle(tmp_path_factory, case):
    schema, oracle, arrays = _sides(tmp_path_factory, case)
    expected, actual = _both(
        oracle, arrays, row_pass.select_partition_pair, _search(2),
        "fact", schema,
    )
    if expected is None:
        return
    _assert_same_decision(expected, actual)
    written = _both(
        oracle, arrays, row_pass.partition_relation_pair,
        array_pass.partition_relation, "fact", schema, expected,
        with_stats=True,
    )
    assert written[1] == written[0]
    _assert_same_relations(oracle, arrays)


@settings(max_examples=80, deadline=None)
@given(cases(), st.integers(1, 60))
def test_repartitioning_matches_oracle(tmp_path_factory, case, shrunk_rows):
    """Split the heaviest partition of a uniform pass under a budget that
    shrank: a finer level of dimension 0 where one fits, else the local
    pair extension (both scan, select and spill the *partition*, whose
    rows carry their fact row-id)."""
    schema, oracle, arrays = _sides(tmp_path_factory, case)
    decision, _ = _both(
        oracle, arrays, row_pass.select_partition_level, _search(1),
        "fact", schema, "uniform",
    )
    if decision is None:
        return
    written, _ = _both(
        oracle, arrays, row_pass.partition_relation,
        array_pass.partition_relation, "fact", schema, decision,
    )
    partition = max(
        written.partition_names, key=lambda n: len(oracle.engine.relation(n))
    )
    budget = shrunk_rows * schema.partition_schema.row_size_bytes
    for side in (oracle, arrays):
        side.engine.memory = MemoryManager(budget)
    expected, actual = _both(
        oracle, arrays, row_pass.repartition_partition,
        array_pass.repartition_partition, partition, schema,
        decision.levels[0], with_stats=True,
    )
    if expected is None:
        return
    assert actual == expected
    _assert_same_relations(oracle, arrays)


@settings(max_examples=60, deadline=None)
@given(cases(), st.integers(0, 2))
def test_local_pair_partitioning_matches_oracle(
    tmp_path_factory, case, parent_level
):
    schema, oracle, arrays = _sides(tmp_path_factory, case)
    parent_level = min(parent_level, schema.dimensions[0].n_levels - 1)
    # Any relation in the partition layout will do as "the partition".
    for side in (oracle, arrays):
        fact = list(rows_of(side.engine.relation("fact")))
        rows = [row + (7 * i + 3,) for i, row in enumerate(fact)]
        side.engine.store_table(
            "fact.part0", table_of(schema.partition_schema, rows)
        )
    expected, actual = _both(
        oracle, arrays,
        lambda engine, *args: row_pass.select_partition_pair_local(
            engine, *args, parent_level
        ),
        _search(2, parent_level), "fact.part0", schema,
    )
    if expected is None:
        return
    _assert_same_decision(expected, actual)
    expected, actual = _both(
        oracle, arrays,
        lambda engine, *args, stats: row_pass.repartition_relation_pair(
            engine, "fact.part0", schema, parent_level, *args, stats
        ),
        lambda engine, *args, stats: array_pass.partition_relation(
            engine, "fact.part0", schema, *args, stats,
            parent_level=parent_level,
        ),
        expected, with_stats=True,
    )
    assert actual == expected
    assert (len(actual.coarse_names) == 1) == (
        actual.levels[0] == parent_level
    )
    _assert_same_relations(oracle, arrays)


@settings(max_examples=60, deadline=None)
@given(cases())
def test_counting_scans_match_oracle(tmp_path_factory, case):
    schema, oracle, arrays = _sides(tmp_path_factory, case)
    expected = oracle.run(
        lambda engine: row_pass._exact_member_rows(
            engine.relation("fact"), schema
        )
    )
    actual = arrays.run(
        lambda engine: array_select._exact_member_rows(
            engine.relation("fact"), schema
        )
    )
    assert [level.tolist() for level in actual] == [
        level.tolist() for level in expected
    ]
    expected = oracle.run(
        lambda engine: row_pass._exact_pair_counts(
            engine.relation("fact"), schema
        )
    )
    actual = arrays.run(
        lambda engine: array_select._exact_pair_counts(
            engine.relation("fact"), schema
        )
    )
    # Same distinct base pairs, same counts, same (first-appearance) order.
    assert [tuple(row) for row in actual.tolist()] == [
        pair + (count,) for pair, count in expected.items()
    ]


# -- fixed cases ---------------------------------------------------------------------

SKEWED = (
    (8, 4, 2), (4, 2), 3, 4,
    [(i % 8, (i * 3) % 4, i % 3, i - 40, i % 5) for i in range(200)]
    + [(7, 1, 2, 9, 9)] * 150,
    200, 5,
)


def test_member_absent_from_the_counting_scan_goes_to_bin_zero(
    tmp_path_factory,
):
    """A decision whose ``member_rows`` misses a member (statistics older
    than the data): both passes put that member's rows in partition 0."""
    schema, oracle, arrays = _sides(tmp_path_factory, SKEWED)
    decision = oracle.run(
        row_pass.select_partition_level, "fact", schema, "exact"
    )
    absent = max(decision.rows_by_member)
    del decision.rows_by_member[absent]
    written = _both(
        oracle, arrays, row_pass.partition_relation,
        array_pass.partition_relation, "fact", schema, decision,
    )
    assert written[1] == written[0]
    first_column = np.concatenate(
        [
            batch.arrays[0]
            for batch in arrays.engine.relation(
                written[1].partition_names[0]
            ).scan_batches()
        ]
    )
    level_map = schema.dimensions[0].level_maps[decision.levels[0]]
    assert absent in level_map[first_column]
    _assert_same_relations(oracle, arrays)


def test_wide_key_rerank_keeps_groups(tmp_path_factory, monkeypatch):
    """Past 62 bits the fold re-ranks its packed key per call; groups,
    their order and the cross-chunk merges must not notice."""
    import repro.core.segments as segments

    monkeypatch.setattr(segments, "_KEY_SPAN_LIMIT", 8)
    schema, oracle, arrays = _sides(tmp_path_factory, SKEWED)
    for k, select, partition in (
        (1, row_pass.select_partition_level, row_pass.partition_relation),
        (2, row_pass.select_partition_pair, row_pass.partition_relation_pair),
    ):
        expected, actual = _both(
            oracle, arrays, select, _search(k), "fact", schema
        )
        _assert_same_decision(expected, actual)
        _both(
            oracle, arrays, partition, array_pass.partition_relation,
            "fact", schema, expected,
        )
    _assert_same_relations(oracle, arrays)


def test_every_written_file_fires_write_and_flush_sites(tmp_path_factory):
    """Staging names and the ``heap.write:`` / ``heap.flush:`` sites stay
    on every partition file and coarse node the pass writes."""
    half = [(i % 4, i % 4, 0, i, 1) for i in range(100)]  # A codes 4–7 absent
    schema, _oracle, arrays = _sides(
        tmp_path_factory, ((8, 4, 2), (4, 2), 3, 2, half, 60, 7)
    )
    recorder = FaultInjector.recording()
    arrays.engine.install_faults(recorder)
    decision = arrays.run(
        array_select.select_partition_level, "fact", schema, "uniform"
    )
    partitioning = arrays.run(
        array_pass.partition_relation, "fact", schema, decision,
        name_suffix=".tmp",
    )
    names = [*partitioning.partition_names, *partitioning.coarse_names]
    assert all(name.endswith(".tmp") for name in names)
    written = {
        f"{name}.dat" for name in names if len(arrays.engine.relation(name))
    }
    assert len(written) < len(names)  # uniform: some members are empty
    for site in ("heap.write", "heap.flush"):
        fired = {s.split(":", 1)[1] for s in recorder.sites(f"{site}:*")}
        assert fired == written
