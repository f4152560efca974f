"""Unit tests for the fact cache."""

import pytest

from repro import Engine
from repro.query.cache import FactCache
from tests.support.rows import rows_of


@pytest.fixture
def setup(tmp_path, flat_schema, figure9_table):
    from repro.relational.catalog import Catalog
    from repro.relational.memory import MemoryManager

    engine = Engine(Catalog(tmp_path / "cat"), MemoryManager())
    heap = engine.store_table("fact", figure9_table)
    yield flat_schema, figure9_table, heap
    engine.close()


def test_requires_exactly_one_source(flat_schema, figure9_table):
    with pytest.raises(ValueError, match="exactly one"):
        FactCache(flat_schema)
    with pytest.raises(ValueError, match="exactly one"):
        FactCache(flat_schema, table=figure9_table, heap=object())


def test_fraction_validated(setup):
    schema, _table, heap = setup
    with pytest.raises(ValueError, match="fraction"):
        FactCache(schema, heap=heap, fraction=1.5)


def test_table_backed_always_hits(flat_schema, figure9_table):
    cache = FactCache(flat_schema, table=figure9_table)
    assert rows_of(cache.fetch_batch([3])) == [rows_of(figure9_table)[3]]
    assert cache.stats.hits == 1
    assert cache.stats.misses == 0
    assert cache.stats.runs == 0


def test_zero_fraction_always_misses(setup):
    schema, table, heap = setup
    cache = FactCache(schema, heap=heap, fraction=0.0)
    assert rows_of(cache.fetch_batch([0])) == rows_of(table)[:1]
    assert cache.stats.misses == 1
    assert cache.stats.hits == 0
    assert cache.stats.runs == 1


def test_full_fraction_never_misses(setup):
    schema, table, heap = setup
    cache = FactCache(schema, heap=heap, fraction=1.0)
    heap.stats.reset()
    everything = list(range(len(table)))
    assert rows_of(cache.fetch_batch(everything[::-1])) == rows_of(table)[::-1]
    assert cache.stats.misses == 0
    assert cache.stats.runs == 0
    assert heap.stats.rows_read == 0  # all answered from the cache


def test_partial_fraction_mixes(setup):
    schema, table, heap = setup
    cache = FactCache(schema, heap=heap, fraction=0.4, seed=1)
    resident = cache._resident.copy()
    assert rows_of(cache.fetch_batch(range(len(table)))) == rows_of(table)
    assert cache.stats.hits == 2  # 40% of 5 rows pinned
    assert cache.stats.misses == 3
    assert int(resident.sum()) == 2


def test_fetch_many_unsorted(setup):
    schema, table, heap = setup
    cache = FactCache(schema, heap=heap, fraction=0.0)
    heap.stats.reset()
    rows = rows_of(cache.fetch_batch([2, 0, 2]))
    expected = rows_of(table)
    assert rows == [expected[2], expected[0], expected[2]]
    assert heap.stats.random_reads == 3  # one seek per row-id
    assert cache.stats.runs == 3


def test_fetch_many_sorted_uses_sequential_pass(setup):
    schema, table, heap = setup
    cache = FactCache(schema, heap=heap, fraction=0.0)
    heap.stats.reset()
    rows = rows_of(cache.fetch_batch([0, 2, 3, 4], sorted_hint=True))
    expected = rows_of(table)
    assert rows == [expected[0], expected[2], expected[3], expected[4]]
    assert heap.stats.sequential_passes == 1
    assert heap.stats.random_reads == 0
    assert cache.stats.runs == 2  # {0} and {2, 3, 4}


def test_fetch_many_sorted_with_duplicates(setup):
    schema, table, heap = setup
    cache = FactCache(schema, heap=heap, fraction=0.0)
    heap.stats.reset()
    rows = rows_of(cache.fetch_batch([3, 1, 1], sorted_hint=True))
    expected = rows_of(table)
    assert rows == [expected[3], expected[1], expected[1]]
    assert cache.stats.misses == 3  # counted per row-id ...
    assert heap.stats.rows_read == 2  # ... read once each, in order
    assert cache.stats.runs == 2


@pytest.mark.parametrize("fraction", [None, 0.0, 0.4, 1.0])
def test_fetch_gathers_only_the_named_columns(setup, fraction):
    """Column positions fetch those columns of the whole fetch, in the
    order asked, and the counters stay per row-id; ``None`` is a table."""
    schema, table, heap = setup

    def cache():
        if fraction is None:
            return FactCache(schema, table=table)
        return FactCache(schema, heap=heap, fraction=fraction, seed=1)

    rowids = [4, 0, 2, 2]
    whole, some, none = cache(), cache(), cache()
    everything = whole.fetch_batch(rowids)
    columns = [schema.fact_schema.arity - 1, 0]
    batch = some.fetch_batch(rowids, columns=columns)
    assert batch.schema.names == tuple(
        everything.schema.names[p] for p in columns
    )
    for array, p in zip(batch.arrays, columns):
        assert array.tolist() == everything.arrays[p].tolist()
    assert none.fetch_batch(rowids, columns=[]).length == len(rowids)
    assert some.stats == whole.stats == none.stats


def test_row_count(setup, flat_schema, figure9_table):
    _schema, table, heap = setup
    assert FactCache(flat_schema, heap=heap).row_count == len(table)
    assert FactCache(flat_schema, table=figure9_table).row_count == len(table)


# -- the byte-budgeted result cache ------------------------------------------


def _answer_of(rows: int, node: int = 0):
    from repro.query.column_answer import ColumnAnswer

    return ColumnAnswer.from_pairs(
        [((node, i), (i, 1)) for i in range(rows)], arity=2, n_aggregates=2
    )


def result_cache(**kwargs):
    from repro.query.cache import ResultCache

    return ResultCache(**kwargs)


def test_entry_bytes_counts_both_matrices():
    from repro.query.cache import ResultCache

    answer = _answer_of(10)
    assert ResultCache.entry_bytes(answer) == (
        answer.dims.nbytes + answer.aggregates.nbytes
    )


def test_result_cache_rejects_oversized_answers():
    """The satellite fix: an answer larger than the whole budget must be
    refused at admission instead of flushing every resident entry."""
    small = _answer_of(4)
    budget = result_cache(max_bytes=result_cache().entry_bytes(small) * 3)
    assert budget.put(1, (), small)
    assert budget.put(2, (), _answer_of(2))
    resident = len(budget)
    big = _answer_of(1000)
    assert not budget.put(3, (), big)  # rejected, not admitted
    assert budget.stats.rejected == 1
    assert len(budget) == resident  # nobody was evicted for it
    assert budget.lookup(1, ()) is not None
    assert budget.lookup(2, ()) is not None
    assert budget.lookup(3, ()) is None


def test_result_cache_byte_budget_evicts_lru():
    one = _answer_of(8)
    size = result_cache().entry_bytes(one)
    cache = result_cache(max_bytes=size * 2 + size // 2)
    cache.put(1, (), _answer_of(8))
    cache.put(2, (), _answer_of(8))
    assert len(cache) == 2
    cache.put(3, (), _answer_of(8))  # over budget: LRU (node 1) drops
    assert cache.lookup(1, ()) is None
    assert cache.lookup(2, ()) is not None
    assert cache.lookup(3, ()) is not None
    assert cache.total_bytes <= size * 2 + size // 2


def test_result_cache_get_refreshes_recency():
    one = _answer_of(8)
    size = result_cache().entry_bytes(one)
    cache = result_cache(max_bytes=size * 2 + size // 2)
    cache.put(1, (), _answer_of(8))
    cache.put(2, (), _answer_of(8))
    assert cache.lookup(1, ()) is not None  # touch: 2 is now the LRU
    cache.put(3, (), _answer_of(8))
    assert cache.lookup(2, ()) is None
    assert cache.lookup(1, ()) is not None


def test_result_cache_replacement_updates_byte_accounting():
    cache = result_cache(max_bytes=1 << 20)
    cache.put(1, (), _answer_of(100))
    big = cache.total_bytes
    cache.put(1, (), _answer_of(2))
    assert len(cache) == 1
    assert cache.total_bytes < big
    assert cache.total_bytes == cache.entry_bytes(_answer_of(2))


def test_result_cache_clear_and_invalidate_reset_bytes():
    cache = result_cache(max_bytes=1 << 20)
    cache.put(1, (), _answer_of(10))
    cache.put(2, (), _answer_of(10))
    assert cache.clear() == 2
    assert cache.total_bytes == 0 and len(cache) == 0
    assert cache.lookup(1, ()) is None
    assert cache.clear() == 0


def test_result_cache_unbounded_bytes_by_default():
    cache = result_cache()
    assert cache.max_bytes is None
    assert cache.put(1, (), _answer_of(100_000))
    assert cache.stats.rejected == 0


def test_result_cache_put_takes_column_answers_only():
    # A pair list has no widths of its own: bridging it here would admit
    # an empty answer as a shapeless 0×0 entry.  The caller bridges with
    # ``ColumnAnswer.from_pairs(pairs, arity, n_aggregates)``.
    from repro.query.column_answer import ColumnAnswer

    cache = result_cache()
    with pytest.raises(TypeError, match="ColumnAnswer"):
        cache.put(1, (), [((0,), (1,))])
    with pytest.raises(TypeError, match="ColumnAnswer"):
        cache.put(1, (), [])
    assert len(cache) == 0 and cache.stats.rejected == 0
    cache.put(1, (), ColumnAnswer.from_pairs([], 2, 3))
    hit = cache.lookup(1).answer
    assert (hit.arity, hit.n_aggregates, len(hit)) == (2, 3, 0)
