"""The tuple-at-a-time query engine, kept as a test oracle.

This is the row execution path of ``repro.query`` as it stood before the
columnar relation reader (:func:`repro.query.answer.read_node_relations`)
became the only engine: every stored row is visited as a Python tuple,
R-rowids dereference through :meth:`FactCache.fetch_batch` and come
back as tuples (:func:`_fetch`), hierarchy roll-up goes through
``schema.project_to_node`` one tuple at a time, and every answer is a
plain ``list[(dims, aggregates)]``.  Nothing here shares a kernel with
the production reader, which is what makes it the reference for

* **answers** — the same multiset of tuples for node, slice, iceberg and
  roll-up queries (and for the whole :class:`WorkloadOp` vocabulary the
  server speaks, via :func:`execute_op`);
* **row order** — node answers come out NT, CAT, then TTs down the plan
  path, each relation in stored order, exactly as production emits them;
* **work counters** — ``QueryStats.rows_scanned`` / ``fact_fetches`` /
  ``tuples_returned`` and the fact cache's hits / misses.

What it does share with production is everything that is *not* the
reader: the lattice (``plan_ancestors``) and the planner's strategy
choice.  A pre-filtered slice computes its allowed fact rows itself,
one ``Dimension.code_at`` per fact row and slice.
"""

from __future__ import annotations

from repro.core.storage import CatFormat
from repro.lattice.plan import plan_ancestors
from repro.query.answer import QueryStats
from repro.query.column_answer import ColumnAnswer
from repro.query.planner import QueryRequest
from repro.query.rollup import base_node_of
from repro.relational.aggregates import aggregate_singleton
from tests.support.rows import CubeRows, rows_of

Pairs = list[tuple[tuple[int, ...], tuple[int, ...]]]


def _tt_sources(storage, node):
    """``node`` and its plan ancestors: the nodes whose TTs it shares."""
    lattice = storage.schema.lattice
    return [node, *plan_ancestors(lattice, node, flat=storage.flat)]


def _fetch(cache, rowids, sorted_hint: bool = False) -> list[tuple]:
    """Fact rows at ``rowids`` as tuples, counted like any fetch."""
    return rows_of(cache.fetch_batch(list(rowids), sorted_hint=sorted_hint))


# -- CURE node queries ----------------------------------------------------------


def answer_cure_query(storage, cache, node, stats=None) -> Pairs:
    """Answer one node query over a CURE(-family) cube."""
    storage = CubeRows(storage)
    schema = storage.schema
    answer: Pairs = []
    store = storage.get_node_store(schema.node_id(node))
    if store is not None:
        _append_nts(schema, storage, cache, node, store, answer, stats)
        _append_cats(schema, storage, cache, node, store, answer, stats)
    _append_tts(schema, storage, cache, node, answer, stats)
    if stats is not None:
        stats.tuples_returned += len(answer)
    return answer


def _append_nts(schema, storage, cache, node, store, answer, stats) -> None:
    if not store.nt_rows:
        return
    y = schema.n_aggregates
    if stats is not None:
        stats.rows_scanned += len(store.nt_rows)
    if storage.dr_mode:
        arity = len(node.grouping_dims(schema.dimensions))
        for row in store.nt_rows:
            answer.append((row[:arity], row[arity : arity + y]))
        return
    rowids = [row[0] for row in store.nt_rows]
    fact_rows = _fetch(cache, rowids, sorted_hint=storage.plus_processed)
    if stats is not None:
        stats.fact_fetches += len(rowids)
    for row, fact_row in zip(store.nt_rows, fact_rows):
        dims = schema.project_to_node(schema.dim_values(fact_row), node)
        answer.append((dims, row[1 : 1 + y]))


def _append_cats(schema, storage, cache, node, store, answer, stats) -> None:
    y = schema.n_aggregates
    if storage.cat_format is CatFormat.COMMON_SOURCE:
        arowids = [row[0] for row in store.cat_rows]
        if not arowids:
            return
        if stats is not None:
            stats.rows_scanned += len(arowids)
        entries = [storage.aggregates_rows[arowid] for arowid in arowids]
        rowids = [entry[0] for entry in entries]
        fact_rows = _fetch(cache, rowids, sorted_hint=storage.plus_processed)
        if stats is not None:
            stats.fact_fetches += len(rowids)
        for entry, fact_row in zip(entries, fact_rows):
            dims = schema.project_to_node(schema.dim_values(fact_row), node)
            answer.append((dims, entry[1 : 1 + y]))
        return
    if not store.cat_rows:
        return
    # Format (b): node rows are ⟨R-rowid, A-rowid⟩, AGGREGATES is bare.
    if stats is not None:
        stats.rows_scanned += len(store.cat_rows)
    rowids = [row[0] for row in store.cat_rows]
    fact_rows = _fetch(cache, rowids, sorted_hint=False)
    if stats is not None:
        stats.fact_fetches += len(rowids)
    for row, fact_row in zip(store.cat_rows, fact_rows):
        dims = schema.project_to_node(schema.dim_values(fact_row), node)
        answer.append((dims, tuple(storage.aggregates_rows[row[1]])))


def _append_tts(schema, storage, cache, node, answer, stats) -> None:
    for source in _tt_sources(storage, node):
        store = storage.get_node_store(schema.node_id(source))
        if store is None:
            continue
        rowids = store.tt_rowids
        sorted_hint = storage.plus_processed
        if not rowids:
            continue
        if stats is not None:
            stats.rows_scanned += len(rowids)
            stats.fact_fetches += len(rowids)
        fact_rows = _fetch(cache, rowids, sorted_hint=sorted_hint)
        for fact_row in fact_rows:
            dims = schema.project_to_node(schema.dim_values(fact_row), node)
            aggregates = aggregate_singleton(
                schema.aggregates, schema.measures(fact_row)
            )
            answer.append((dims, aggregates))


# -- BUC / BU-BST node queries --------------------------------------------------


def answer_buc_query(cube, node, stats=None) -> Pairs:
    """Answer one node query over a BUC cube (direct per-node read)."""
    schema = cube.schema
    y = schema.n_aggregates
    rows = cube.node_rows(schema.node_id(node)).tolist()
    arity = len(node.grouping_dims(schema.dimensions))
    answer = [(tuple(row[:arity]), tuple(row[arity : arity + y])) for row in rows]
    if stats is not None:
        stats.rows_scanned += len(rows)
        stats.tuples_returned += len(answer)
    return answer


def answer_bubst_query(cube, node, stats=None) -> Pairs:
    """Answer one node query over a BU-BST cube (full monolithic scan)."""
    schema = cube.schema
    node_id = schema.node_id(node)
    grouping = node.grouping_dims(schema.dimensions)
    sharing_ids = {
        schema.node_id(source)
        for source in [node]
        + plan_ancestors(schema.lattice, node, flat=True)
    }
    n_dims = schema.n_dimensions
    answer: Pairs = []
    for row_node_id, is_bst, *values in cube.rows.tolist():
        if stats is not None:
            stats.rows_scanned += 1
        dims = tuple(values[d] for d in grouping)
        aggregates = tuple(values[n_dims:])
        if is_bst:
            if row_node_id in sharing_ids:
                answer.append((dims, aggregates))
        elif row_node_id == node_id:
            answer.append((dims, aggregates))
    if stats is not None:
        stats.tuples_returned += len(answer)
    return answer


# -- slices -----------------------------------------------------------------------


def slice_predicate(schema, node, slices):
    """Compile slices into a membership test over answer dim tuples."""
    grouping = node.grouping_dims(schema.dimensions)
    position_of = {dim: i for i, dim in enumerate(grouping)}
    tests: list[tuple[int, set[int]]] = []
    for item in slices:
        dimension = schema.dimensions[item.dim]
        node_level = node.levels[item.dim]
        accepted = {
            dimension.code_at(base, node_level)
            for base in range(dimension.base_cardinality)
            if dimension.code_at(base, item.level) in item.members
        }
        tests.append((position_of[item.dim], accepted))

    def accepts(dims: tuple[int, ...]) -> bool:
        return all(dims[p] in accepted for p, accepted in tests)

    return accepts


def answer_cure_sliced(
    storage, cache, node, slices, stats=None, prefilter: bool = True
) -> Pairs:
    """Answer a node query under dimension slices.

    Row-ids are dropped before their fact fetch when the cube stores
    row-ids (not DR) and ``cache`` holds the whole fact table — the
    condition production pre-filters under — unless ``prefilter`` is
    false; otherwise the full node answer is computed and then filtered.
    """
    schema = storage.schema
    if not slices:
        return answer_cure_query(storage, cache, node, stats)
    if not prefilter or storage.dr_mode or cache.table is None:
        full = answer_cure_query(storage, cache, node, stats)
        accepts = slice_predicate(schema, node, slices)
        return [
            (dims, aggregates) for dims, aggregates in full if accepts(dims)
        ]
    allowed = allowed_rowids(schema, rows_of(cache.table.as_batch()), slices)
    return _answer_prefiltered(storage, cache, node, allowed, stats)


def allowed_rowids(schema, fact_rows: list[tuple], slices) -> set[int]:
    """The fact rows whose member at every slice's level is accepted."""
    return {
        rowid
        for rowid, row in enumerate(fact_rows)
        if all(
            schema.dimensions[item.dim].code_at(row[item.dim], item.level)
            in item.members
            for item in slices
        )
    }


def _answer_prefiltered(storage, cache, node, allowed: set[int], stats) -> Pairs:
    storage = CubeRows(storage)
    schema = storage.schema
    y = schema.n_aggregates
    answer: Pairs = []
    store = storage.get_node_store(schema.node_id(node))
    if store is not None:
        passing = [row for row in store.nt_rows if row[0] in allowed]
        if stats is not None:
            stats.rows_scanned += len(store.nt_rows)
            stats.fact_fetches += len(passing)
        fact_rows = _fetch(
            cache, [row[0] for row in passing], storage.plus_processed
        )
        for row, fact_row in zip(passing, fact_rows):
            dims = schema.project_to_node(schema.dim_values(fact_row), node)
            answer.append((dims, row[1 : 1 + y]))

        if storage.cat_format is CatFormat.COMMON_SOURCE:
            arowids = [row[0] for row in store.cat_rows]
            entries = [
                storage.aggregates_rows[arowid]
                for arowid in arowids
                if storage.aggregates_rows[arowid][0] in allowed
            ]
            if stats is not None:
                stats.rows_scanned += len(arowids)
                stats.fact_fetches += len(entries)
            fact_rows = _fetch(
                cache,
                [entry[0] for entry in entries],
                sorted_hint=storage.plus_processed,
            )
            for entry, fact_row in zip(entries, fact_rows):
                dims = schema.project_to_node(
                    schema.dim_values(fact_row), node
                )
                answer.append((dims, entry[1 : 1 + y]))
        else:
            passing_cats = [
                row for row in store.cat_rows if row[0] in allowed
            ]
            if stats is not None:
                stats.rows_scanned += len(store.cat_rows)
                stats.fact_fetches += len(passing_cats)
            fact_rows = _fetch(cache, [row[0] for row in passing_cats])
            for row, fact_row in zip(passing_cats, fact_rows):
                dims = schema.project_to_node(
                    schema.dim_values(fact_row), node
                )
                answer.append((dims, tuple(storage.aggregates_rows[row[1]])))

    for source in _tt_sources(storage, node):
        tt_store = storage.get_node_store(schema.node_id(source))
        if tt_store is None:
            continue
        rowids = [r for r in tt_store.tt_rowids if r in allowed]
        total = len(tt_store.tt_rowids)
        if stats is not None:
            stats.rows_scanned += total
            stats.fact_fetches += len(rowids)
        if not rowids:
            continue
        fact_rows = _fetch(cache, sorted(rowids), sorted_hint=True)
        for fact_row in fact_rows:
            dims = schema.project_to_node(schema.dim_values(fact_row), node)
            aggregates = aggregate_singleton(
                schema.aggregates, schema.measures(fact_row)
            )
            answer.append((dims, aggregates))
    if stats is not None:
        stats.tuples_returned += len(answer)
    return answer


# -- count icebergs ---------------------------------------------------------------


def iceberg_over_cure(storage, cache, node, min_count, stats=None) -> Pairs:
    """Iceberg query over CURE: TT relations are skipped entirely."""
    schema = storage.schema
    count_index = schema.count_aggregate_index()
    if min_count <= 1:
        return answer_cure_query(storage, cache, node, stats)
    storage = CubeRows(storage)
    answer: Pairs = []
    store = storage.get_node_store(schema.node_id(node))
    if store is None:
        return answer
    y = schema.n_aggregates
    # NTs: filter on the stored count before paying any fact fetch.
    if storage.dr_mode:
        arity = len(node.grouping_dims(schema.dimensions))
        for row in store.nt_rows:
            if stats is not None:
                stats.rows_scanned += 1
            aggregates = row[arity : arity + y]
            if aggregates[count_index] >= min_count:
                answer.append((row[:arity], aggregates))
    else:
        passing = [
            row for row in store.nt_rows if row[1 + count_index] >= min_count
        ]
        if stats is not None:
            stats.rows_scanned += len(store.nt_rows)
            stats.fact_fetches += len(passing)
        fact_rows = _fetch(
            cache, [row[0] for row in passing], storage.plus_processed
        )
        for row, fact_row in zip(passing, fact_rows):
            dims = schema.project_to_node(schema.dim_values(fact_row), node)
            answer.append((dims, row[1 : 1 + y]))
    # CATs: the aggregate vector lives in AGGREGATES; filter there.
    if storage.cat_format is CatFormat.COMMON_SOURCE:
        arowids = [row[0] for row in store.cat_rows]
        for arowid in arowids:
            if stats is not None:
                stats.rows_scanned += 1
            entry = storage.aggregates_rows[arowid]
            aggregates = entry[1 : 1 + y]
            if aggregates[count_index] < min_count:
                continue
            fact_row = _fetch(cache, [entry[0]])[0]
            if stats is not None:
                stats.fact_fetches += 1
            dims = schema.project_to_node(schema.dim_values(fact_row), node)
            answer.append((dims, aggregates))
    else:
        for row in store.cat_rows:
            if stats is not None:
                stats.rows_scanned += 1
            aggregates = tuple(storage.aggregates_rows[row[1]])
            if aggregates[count_index] < min_count:
                continue
            fact_row = _fetch(cache, [row[0]])[0]
            if stats is not None:
                stats.fact_fetches += 1
            dims = schema.project_to_node(schema.dim_values(fact_row), node)
            answer.append((dims, aggregates))
    if stats is not None:
        stats.tuples_returned += len(answer)
    return answer


def _count_filtered(schema, full: Pairs, min_count: int) -> Pairs:
    count_index = schema.count_aggregate_index()
    return [
        (dims, aggregates)
        for dims, aggregates in full
        if aggregates[count_index] >= min_count
    ]


def iceberg_over_buc(cube, node, min_count, stats=None) -> Pairs:
    """Iceberg query over BUC: read the node, then filter every tuple."""
    full = answer_buc_query(cube, node, stats)
    return _count_filtered(cube.schema, full, min_count)


def iceberg_over_bubst(cube, node, min_count, stats=None) -> Pairs:
    """Iceberg query over BU-BST: full monolithic scan, then filter."""
    full = answer_bubst_query(cube, node, stats)
    return _count_filtered(cube.schema, full, min_count)


# -- roll-up ----------------------------------------------------------------------


def rollup_base_answer(schema, base_answer: Pairs, node) -> Pairs:
    """Re-aggregate a base-level node answer up to ``node``'s levels:
    a dict keyed on the rolled-up codes, merged pairwise, first-seen order."""
    grouping = node.grouping_dims(schema.dimensions)
    groups: dict[tuple[int, ...], tuple[int, ...]] = {}
    for dims, aggregates in base_answer:
        rolled = tuple(
            schema.dimensions[dim].code_at(code, node.levels[dim])
            for code, dim in zip(dims, grouping)
        )
        existing = groups.get(rolled)
        if existing is None:
            groups[rolled] = aggregates
        else:
            groups[rolled] = tuple(
                spec.function.merge(a, b)
                for spec, a, b in zip(schema.aggregates, existing, aggregates)
            )
    return list(groups.items())


def _rolled_up(schema, answer_base, node) -> Pairs:
    base = base_node_of(schema, node)
    base_answer = answer_base(base)
    if node == base:
        return base_answer
    return rollup_base_answer(schema, base_answer, node)


def answer_rollup_from_flat(storage, cache, node, stats=None) -> Pairs:
    """Answer a hierarchical node query from a flat CURE (FCURE) cube."""
    return _rolled_up(
        storage.schema,
        lambda base: answer_cure_query(storage, cache, base, stats),
        node,
    )


def answer_rollup_from_buc(cube, node, stats=None) -> Pairs:
    return _rolled_up(
        cube.schema, lambda base: answer_buc_query(cube, base, stats), node
    )


def answer_rollup_from_bubst(cube, node, stats=None) -> Pairs:
    return _rolled_up(
        cube.schema, lambda base: answer_bubst_query(cube, base, stats), node
    )


# -- requests and workload ops ----------------------------------------------------


def answer_request(planner, request: QueryRequest, stats=None) -> Pairs:
    """``CubePlanner.execute`` over this engine: the planner picks the
    strategy, every tuple is produced here."""
    storage, cache = planner.storage, planner.cache
    schema = storage.schema
    plan = planner.plan(request)
    if plan.strategy == "direct":
        return answer_cure_query(storage, cache, request.node, stats)
    if plan.strategy == "rollup":
        base_answer = answer_cure_query(
            storage, cache, plan.source_node, stats
        )
        rolled = rollup_base_answer(schema, base_answer, request.node)
        accepts = slice_predicate(schema, request.node, request.slices)
        return [pair for pair in rolled if accepts(pair[0])]
    return answer_cure_sliced(
        storage,
        cache,
        request.node,
        list(request.slices),
        stats,
        prefilter=plan.strategy == "prefilter",
    )


def execute_op(planner, op) -> Pairs:
    """``repro.server.replay.execute_op`` over this engine."""
    schema = planner.storage.schema
    if op.kind == "node":
        return answer_request(planner, QueryRequest.of(op.node))
    if op.kind == "slice":
        return answer_request(planner, QueryRequest(op.node, tuple(op.slices)))
    if op.kind == "rollup":
        base = base_node_of(schema, op.node)
        return rollup_base_answer(
            schema, answer_request(planner, QueryRequest.of(base)), op.node
        )
    if op.kind == "iceberg":
        plan = planner.plan(op.request())
        if plan.strategy == "rollup":  # a node a flat cube does not store
            count = schema.count_aggregate_index()
            base_answer = answer_request(planner, QueryRequest.of(plan.source_node))
            rolled = rollup_base_answer(schema, base_answer, op.node)
            return [pair for pair in rolled if pair[1][count] >= op.min_count]
        return iceberg_over_cure(
            planner.storage, planner.cache, op.node, op.min_count
        )
    raise ValueError(f"unknown workload op kind {op.kind!r}")


# -- the differential every suite runs --------------------------------------------


def assert_engine_matches(cache, engine_fn, oracle_fn, ordered=False):
    """Hold ``engine_fn(stats)`` to this engine's ``oracle_fn(stats)``.

    The production engine must return a :class:`ColumnAnswer` with the
    oracle's tuples (in the oracle's order when ``ordered``), identical
    ``QueryStats`` and identical hits/misses on the shared fact
    ``cache``.  Returns the engine's answer.
    """
    cache.stats.reset()
    row_stats = QueryStats()
    row_answer = oracle_fn(row_stats)
    row_cache = (cache.stats.hits, cache.stats.misses)
    cache.stats.reset()
    stats = QueryStats()
    answer = engine_fn(stats)
    assert isinstance(row_answer, list)
    assert isinstance(answer, ColumnAnswer)
    if ordered:
        assert answer.to_pairs() == row_answer
    else:
        assert answer.normalized().to_pairs() == sorted(row_answer)
    assert row_stats == stats, "query work counters diverged"
    assert row_cache == (cache.stats.hits, cache.stats.misses), (
        "fact-cache counters diverged"
    )
    return answer
