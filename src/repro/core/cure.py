"""The CURE algorithm (Figure 13 of the paper).

``CureBuilder`` implements the recursion of ``ExecutePlan``/``FollowEdge``:

* a **solid edge** extends the grouping set with a further dimension at one
  of its entry levels (rule 1);
* a **dashed edge** re-sorts the current segment at the next finer level of
  the most recently added dimension (rule 2 / modified rule 2);
* a segment consisting of a single original fact tuple is a **trivial
  tuple**: its row-id goes to the current node's TT relation and the
  recursion is pruned (the whole plan sub-tree shares that TT);
* every other aggregated tuple becomes a **signature** in the bounded pool,
  whose flushes classify NTs vs CATs (Section 5.2).

The same executor drives all plan shapes of :mod:`repro.lattice.plan`: P3
(hierarchical CURE), the flat P1 (FCURE), and P2
(the "levels as dimensions" ablation) — a shape only decides which levels
solid edges introduce and where dashed edges descend.

``build_cube`` is the top-level Algorithm CURE: it takes the in-memory fast
path when the fact relation fits the (simulated) memory budget, and
otherwise runs the external-partitioning pipeline of Section 4.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.core.model import CubeSchema
from repro.core.partition import Partitioning, partition_relation
from repro.core.partition_select import PartitionDecision, select_partition_level
from repro.core.segments import aggregate_ufuncs, sort_groups, stable_order
from repro.core.signature import PoolStats, SignaturePool
from repro.core.storage import CubeStorage
from repro.core.workingset import WorkingSet
from repro.lattice.plan import (
    ExecutionShape,
    FlatShape,
    HierarchicalShape,
    child_edges,
)
from repro.relational.engine import Engine
from repro.relational.sortops import SortStats
from repro.relational.table import Table


@dataclass
class BuildStats:
    """Machine-independent construction cost counters."""

    nodes_aggregated: int = 0
    tt_written: int = 0
    #: TT copies a partitioned build wrote and then dropped because a plan
    #: ancestor holds the row-id (:func:`_store_tts_once`): the TTs
    #: stored are ``tt_written - tts_dropped``.
    tts_dropped: int = 0
    signatures_emitted: int = 0
    sort: SortStats = field(default_factory=SortStats)
    fact_read_passes: int = 0
    fact_write_passes: int = 0
    partitions_created: int = 0
    partitioned: bool = False
    repartitioned_partitions: int = 0
    pair_repartitioned_partitions: int = 0
    subpartitions_created: int = 0
    tasks_run: int = 0
    tasks_stolen: int = 0
    workers: int = 1
    peak_worker_bytes: int = 0
    elapsed_seconds: float = 0.0


# -- the executor ----------------------------------------------------------------


class _Frontier(NamedTuple):
    """The surviving segments one plan edge hands to its child edges."""

    positions: np.ndarray  # working-set rows, grouped by segment
    segment: np.ndarray  # int64 segment index per row, non-decreasing
    count: int


@dataclass
class _EdgeEvents:
    """Everything one plan edge emitted, before depth-first positions exist.

    ``parent[j]`` is the frontier segment that segment ``j`` of this edge
    was cut from; ``size[j]`` counts the events of ``j``'s plan sub-tree
    (its own, if any, plus all descendants'); ``totals[p]`` sums ``size``
    per parent.  ``alive`` indexes the segments that recurse — the frontier
    of ``children`` — each of which emitted one of ``sig_rows`` (none on a
    pair edge); ``trivial`` indexes those that emitted one of ``tt_rows``.
    """

    parent: np.ndarray
    size: np.ndarray
    totals: np.ndarray
    alive: np.ndarray
    trivial: np.ndarray
    tt_rows: np.ndarray  # (len(trivial), 2)
    sig_rows: np.ndarray  # (len(alive) or 0, _sig_width)
    children: list["_EdgeEvents"]


class CureBuilder:
    """``ExecutePlan``/``FollowEdge`` of Figure 13, one plan edge at a time.

    The recursion follows its shape's :func:`~repro.lattice.plan.child_edges`
    (the plan is never materialized); each ``FollowEdge`` handles
    *all* surviving parent segments at once: one stable sort on
    ``(parent segment, level key)``, per-segment weight, minimum row-id
    and aggregates, trivial-tuple / iceberg / signature classification as
    masks, survivors compacted for the child edges.  Over the fact table
    and its partitions only the aggregates other than COUNT take a
    ``reduceat``: with unit weights a segment's weight is its length; the
    sort is stable, so positions ascend within a segment and, over
    non-decreasing row-ids, its first row-id is its minimum; and a sum
    column equal to the weights (COUNT) is the segment weight.  A working
    set without one of these properties (weighted, permuted row-ids)
    reduces that column instead.

    Figure 13 emits depth-first per segment, and the order in which
    signatures reach the bounded pool decides the bytes.  So every event
    gets its depth-first position from sub-tree sizes — summed bottom-up
    per parent segment, turned into offsets top-down — and the entry
    points return the two event streams a
    :class:`~repro.build.tasks.TaskOutcome` ships, in exactly the
    per-segment recursion's emission order: ``tts (n, 2)`` rows
    ``(node_id, rowid)`` and ``sigs (m, 2 + Y)`` rows ``(node_id, rowid,
    aggregates…)``.
    With ``dr_mode`` (``CURE_DR``) a signature row carries D more columns:
    the node-level codes of its grouping dimensions, in dimension order,
    then zeros — one gather at the segment's first row, whose codes every
    row of the segment shares.
    """

    def __init__(
        self,
        schema: CubeSchema,
        shape: ExecutionShape,
        min_count: int = 1,
        stats: BuildStats | None = None,
        dr_mode: bool = False,
    ) -> None:
        self.schema = schema
        self.shape = shape
        self.min_count = min_count
        self.stats = stats or BuildStats()
        self.dr_mode = dr_mode
        self._sig_width = 2 + schema.n_aggregates + schema.n_dimensions * dr_mode
        self._factors = schema.enumerator.factors
        self._node_levels = [
            dimension.all_level for dimension in schema.dimensions
        ]
        self._node_id = schema.enumerator.node_id(schema.lattice.all_node)
        self._ufuncs = aggregate_ufuncs(schema)

    # -- public entry points --------------------------------------------------

    def run(self, working: WorkingSet) -> tuple[np.ndarray, np.ndarray]:
        """``ExecutePlan`` from the root: the all-in-memory case."""
        one = np.zeros(1, dtype=np.intp)
        return self._build(
            working,
            lambda whole: self._execute(whole.positions, one, one, 1, None, 0),
        )

    def run_partition(
        self, working: WorkingSet, levels: tuple[int, ...]
    ) -> tuple[np.ndarray, np.ndarray]:
        """``FollowEdge(partition, 0, L)``: one partition's sub-cubes.

        ``levels = (L,)`` constructs every node whose grouping attributes
        include the first dimension at level ≤ L (observation 1 of
        Section 4); the ∅-rooted rest is the coarse-node phase's job.

        ``levels = (L, M)`` constructs the nodes with dimensions 0 and 1
        both present at levels ≤ (L, M): the plan descends dimension 0's
        chain and, per segment, enters dimension 1 at level M (whence the
        standard edges cover its descent and the remaining dimensions).
        The segment itself — dimension 0 alone — is *not* a sound node for
        pair partitions, so nothing is emitted at that granularity.
        """
        pair_level = levels[1] if len(levels) == 2 else None
        return self._build(
            working,
            lambda whole: self._follow_edge(whole, 0, levels[0], 1, pair_level),
        )

    def _build(
        self,
        working: WorkingSet,
        first: Callable[[_Frontier], _EdgeEvents],
    ) -> tuple[np.ndarray, np.ndarray]:
        """Run the plan below ``first`` over the whole working set, then
        order both event streams as the per-segment recursion emits."""
        tts: list[tuple[np.ndarray, np.ndarray]] = []
        sigs: list[tuple[np.ndarray, np.ndarray]] = []
        n = len(working)
        if n:
            self._working = working
            # The facts that spare a reduceat (class docstring); ``None``
            # marks a sum column equal to the weights.
            self._unit_weights = bool((working.weights == 1).all())
            rowids = working.rowids
            self._ascending_rowids = bool((rowids[1:] >= rowids[:-1]).all())
            self._agg_columns: list[np.ndarray | None] = [
                None
                if ufunc is np.add
                and np.array_equal(working.aggs[:, y], working.weights)
                else np.ascontiguousarray(working.aggs[:, y])
                for y, ufunc in enumerate(self._ufuncs)
            ]
            self._key_columns: dict[tuple[int, int], np.ndarray] = {}
            whole = _Frontier(
                np.arange(n, dtype=np.intp), np.zeros(n, dtype=np.int64), 1
            )
            self._place(first(whole), np.zeros(1, dtype=np.int64), tts, sigs)
        return _in_order(tts, 2), _in_order(sigs, self._sig_width)

    def _keys(self, dim: int, level: int) -> np.ndarray:
        """Every row's member code at ``(dim, level)``, rolled up once per
        working set (a plan visits the same level on many edges)."""
        column = self._key_columns.get((dim, level))
        if column is None:
            column = self._working.dims[dim]
            if level:
                column = self.schema.dimensions[dim].level_maps[level][column]
            self._key_columns[dim, level] = column
        return column

    # -- bottom-up: sort, reduce, classify, recurse -------------------------------

    def _follow_edge(
        self,
        frontier: _Frontier,
        dim: int,
        level: int,
        next_dim: int,
        pair_level: int | None = None,
    ) -> _EdgeEvents:
        """One plan edge over every segment of ``frontier`` at once."""
        # Figure 13 sorts each parent segment separately; the counters keep
        # that logical cost (one sort per segment entering the edge).
        self.stats.sort.keys_sorted += len(frontier.positions)
        self.stats.sort.comparison_sorts += frontier.count
        cardinality = self.schema.dimensions[dim].cardinality(level)
        # int64 throughout: segment × cardinality outgrows int32 long
        # before either factor does.
        composite = frontier.segment * cardinality
        composite += self._keys(dim, level)[frontier.positions]
        order, composite, starts = sort_groups(composite)
        old_level = self._node_levels[dim]
        self._node_levels[dim] = level
        self._node_id += self._factors[dim] * (level - old_level)
        edge = self._execute(
            frontier.positions[order],
            starts,
            composite[starts] // cardinality,
            frontier.count,
            dim,
            next_dim,
            pair_level,
        )
        self._node_levels[dim] = old_level
        self._node_id += self._factors[dim] * (old_level - level)
        return edge

    def _execute(
        self,
        positions: np.ndarray,
        starts: np.ndarray,
        parent: np.ndarray,
        n_parents: int,
        entered: int | None,
        next_dim: int,
        pair_level: int | None = None,
    ) -> _EdgeEvents:
        """``ExecutePlan`` for all segments ``starts`` cuts ``positions``
        into: emit, prune, and follow the child edges with the survivors."""
        working = self._working
        lengths = np.diff(starts, append=len(positions))
        if pair_level is None:
            # Weights are >= 1, so weight 1 means one original fact tuple:
            # a trivial tuple, stored at this least detailed node (unless
            # an iceberg threshold drops it); the whole plan sub-tree
            # shares it.  Below ``min_count`` nothing deeper can reach the
            # support threshold either, so only the rest recurse.
            if self._unit_weights:
                weights = lengths
            else:
                weights = np.add.reduceat(working.weights[positions], starts)
            is_trivial = (weights == 1) & (self.min_count <= 1)
            is_alive = weights >= max(self.min_count, 2)
        else:
            # A pair edge emits nothing and prunes nothing (it signs no
            # segment, so no weight is read).
            weights = np.zeros(len(starts), dtype=np.int64)
            is_trivial = np.zeros(len(starts), dtype=np.bool_)
            is_alive = ~is_trivial
        trivial = np.flatnonzero(is_trivial)
        alive = np.flatnonzero(is_alive)
        signed = alive if pair_level is None else alive[:0]
        if self._ascending_rowids:
            rowids = working.rowids[positions[starts]]
        else:
            rowids = np.minimum.reduceat(working.rowids[positions], starts)
        tt_rows = np.empty((len(trivial), 2), dtype=np.int64)
        tt_rows[:, 1] = rowids[trivial]
        sig_rows = np.zeros((len(signed), self._sig_width), dtype=np.int64)
        sig_rows[:, 1] = rowids[signed]
        for y, (ufunc, values) in enumerate(zip(self._ufuncs, self._agg_columns)):
            if values is None:  # COUNT: the segment weight
                sig_rows[:, 2 + y] = weights[signed]
            else:
                reduced = ufunc.reduceat(values[positions], starts)
                sig_rows[:, 2 + y] = reduced[signed]
        if self.dr_mode:
            first = positions[starts[signed]]
            column = 2 + len(self._ufuncs)
            for d, dimension in enumerate(self.schema.dimensions):
                if self._node_levels[d] != dimension.all_level:
                    sig_rows[:, column] = self._keys(d, self._node_levels[d])[first]
                    column += 1
        tt_rows[:, 0] = sig_rows[:, 0] = self._node_id
        self.stats.tt_written += len(trivial)
        self.stats.nodes_aggregated += len(signed)
        self.stats.signatures_emitted += len(signed)

        size = np.zeros(len(starts), dtype=np.int64)
        size[trivial] = size[signed] = 1
        children: list[_EdgeEvents] = []
        if len(alive):
            if len(alive) < len(starts):
                positions = positions[np.repeat(is_alive, lengths)]
                lengths = lengths[alive]
            survivors = _Frontier(
                positions,
                np.repeat(np.arange(len(alive), dtype=np.int64), lengths),
                len(alive),
            )
            edges = child_edges(
                self.shape, self._node_levels, entered, next_dim, pair_level
            )
            children = [self._follow_edge(survivors, *edge) for edge in edges]
            for child in children:
                size[alive] += child.totals
        totals = np.bincount(parent, weights=size, minlength=n_parents)
        return _EdgeEvents(
            parent,
            size,
            totals.astype(np.int64),
            alive,
            trivial,
            tt_rows,
            sig_rows,
            children,
        )

    # -- top-down: depth-first positions --------------------------------------------

    def _place(
        self,
        edge: _EdgeEvents,
        base: np.ndarray,
        tts: list[tuple[np.ndarray, np.ndarray]],
        sigs: list[tuple[np.ndarray, np.ndarray]],
    ) -> None:
        """Assign depth-first positions below ``base`` (per parent segment,
        where this edge's block of events begins).

        Segments are ordered by (parent, key), so a segment starts at its
        parent's base plus the sizes of its earlier siblings: a running sum
        of ``size``, rebased at each parent's first segment.
        """
        running = np.cumsum(edge.size) - edge.size
        first = np.cumsum(edge.totals) - edge.totals
        start = (base - first)[edge.parent] + running
        tts.append((start[edge.trivial], edge.tt_rows))
        # An alive segment's own signature (a pair edge has none) comes
        # first, then the blocks of its child edges in plan order.
        child_base = start[edge.alive]
        if len(edge.sig_rows):
            sigs.append((child_base, edge.sig_rows))
            child_base = child_base + 1
        for child in edge.children:
            self._place(child, child_base, tts, sigs)
            child_base = child_base + child.totals


def _in_order(
    chunks: list[tuple[np.ndarray, np.ndarray]], width: int
) -> np.ndarray:
    """Concatenate ``(positions, rows)`` chunks and sort rows by position."""
    if not chunks:
        return np.empty((0, width), dtype=np.int64)
    positions = np.concatenate([chunk[0] for chunk in chunks])
    rows = np.concatenate([chunk[1] for chunk in chunks])
    return np.take(rows, stable_order(positions), axis=0)


# -- Algorithm CURE (top level) ----------------------------------------------------


@dataclass
class CubeResult:
    """Everything a construction run produces."""

    storage: CubeStorage
    stats: BuildStats
    pool_stats: PoolStats
    decision: PartitionDecision | None = None


def build_cube(
    schema: CubeSchema,
    *,
    table: Table | None = None,
    engine: Engine | None = None,
    relation: str | None = None,
    pool_capacity: int | None = 1_000_000,
    min_count: int = 1,
    dr_mode: bool = False,
    flat: bool = False,
    shape: ExecutionShape | None = None,
    partition_strategy: str = "exact",
    workers: int = 1,
    executor: object | None = None,
) -> CubeResult:
    """Construct a CURE cube over an in-memory table or a named relation.

    When ``engine`` and ``relation`` are given and the relation does not
    fit the engine's memory budget, the external-partitioning pipeline of
    Section 4 runs; otherwise the whole input is processed in memory.

    ``pool_capacity=None`` gives the idealized unbounded signature pool.
    ``min_count > 1`` builds an iceberg cube.  ``flat=True`` builds only
    the base-level (2^D) nodes — the FCURE variant.
    ``partition_strategy`` selects how per-member weights are obtained for
    partition-level selection (``"exact"`` or ``"uniform"``); a partition
    an optimistic estimate under-provisioned is re-partitioned adaptively
    at load time instead of aborting the build.

    ``workers`` is how many processes run the partitioned pipeline's
    tasks: the driver and ``workers − 1`` helpers
    (:class:`repro.build.parallel.ProcessPoolExecutor`); the output is
    byte-identical for every count, and a count below 1 is a
    ``ValueError``.  ``executor`` injects a pre-built executor instead
    (tests).  Both are ignored on the in-memory fast path, which has no
    tasks to schedule.
    """
    from repro.build.parallel import check_workers

    check_workers(workers)
    if (table is None) == (engine is None or relation is None):
        raise ValueError("provide either `table` or both `engine` and `relation`")

    storage = CubeStorage(
        schema, dr_mode=dr_mode, flat=flat, min_count=min_count
    )
    stats = BuildStats()
    pool = signature_pool(storage, pool_capacity)
    if shape is None:
        shape = (
            FlatShape(schema.lattice)
            if flat
            else HierarchicalShape(schema.lattice)
        )

    started = time.perf_counter()
    decision: PartitionDecision | None = None

    if table is not None:
        working = WorkingSet.from_fact_table(schema, table)
        _build_in_memory(storage, pool, shape, min_count, stats, working)
    elif fits_beside_pool(engine, relation, schema, pool_capacity):
        stats.fact_read_passes += 1
        with engine.load(relation) as records:
            working = WorkingSet.from_records(schema, records)
            _build_in_memory(storage, pool, shape, min_count, stats, working)
    else:
        if flat or not isinstance(shape, HierarchicalShape):
            raise ValueError(
                "external partitioning is implemented for the "
                "hierarchical (P3) shape"
            )
        decision = build_partitioned(
            schema,
            storage,
            pool,
            min_count,
            stats,
            engine,
            relation,
            partition_strategy,
            workers,
            executor,
        )

    stats.elapsed_seconds = time.perf_counter() - started
    return CubeResult(storage, stats, pool.stats, decision)


def signature_pool(storage: CubeStorage, capacity: int | None) -> SignaturePool:
    """The Section 5.2 pool whose flushes ``storage`` classifies and writes."""
    return SignaturePool(
        capacity,
        on_flush=storage.write_flush,
        on_statistics=storage.decide_format,
        n_aggregates=storage.schema.n_aggregates,
    )


def _pool_bytes(schema: CubeSchema, capacity: int | None) -> int:
    """The budget a pool of ``capacity`` reserves; an unbounded one, none."""
    return SignaturePool.size_bytes(capacity, schema.n_aggregates) if capacity else 0


def fits_beside_pool(
    engine: Engine, relation: str, schema: CubeSchema, pool_capacity: int | None
) -> bool:
    """Whether ``relation`` is built in memory: it fits the engine's budget
    beside the signature pool.  Otherwise Section 4's pipeline partitions it."""
    heap = engine.relation(relation)
    return engine.memory.fits(heap.size_bytes + _pool_bytes(schema, pool_capacity))


def _build_in_memory(
    storage: CubeStorage,
    pool: SignaturePool,
    shape,
    min_count: int,
    stats: BuildStats,
    working: WorkingSet,
) -> None:
    from repro.build.tasks import (
        KIND_COARSE_RUN,
        TaskOutcome,
        TaskSpec,
        apply_outcome,
    )

    storage.fact_row_count = len(working)
    builder = CureBuilder(
        storage.schema, shape, min_count, dr_mode=storage.dr_mode
    )
    tts, sigs = builder.run(working)
    # The whole input is one task: its events reach the storage and the
    # pool the way a partitioned build's tasks do.
    task = TaskSpec("memory", KIND_COARSE_RUN, "")
    apply_outcome(TaskOutcome(task, tts, sigs, builder.stats), storage, pool, stats)
    pool.flush()  # line 22 of Algorithm CURE


def build_partitioned(
    schema: CubeSchema,
    storage: CubeStorage,
    pool: SignaturePool,
    min_count: int,
    stats: BuildStats,
    engine: Engine,
    relation: str,
    partition_strategy: str = "exact",
    workers: int = 1,
    executor: object | None = None,
    *,
    name_suffix: str = "",
    on_partitioned: Callable[[Partitioning], Partitioning] | None = None,
    recorded: Partitioning | None = None,
    start_unit: int = 0,
    on_partition: Callable[[int], None] | None = None,
) -> PartitionDecision | None:
    """The Section 4 pipeline: partition once, then two construction phases.

    Select the levels, spill the relation in one pass, then run the plan
    :mod:`repro.build` makes of it — one task per partition file, then the
    coarse node(s); adaptive re-partitioning of an over-budget partition
    happens inside the executor as a task expansion.  The driver owns the
    pool and the storage: the executor only hands back per-unit outcome
    batches, which are applied — and their scaffolding relations dropped —
    in plan order, so flush windows and NT/CAT classification are
    identical for every ``workers``.

    The pool is flushed after every partition unit and once after the
    coarse units, for every caller.  So a partition's rows in each node
    form one self-contained run — NTs, CATs and their AGGREGATES rows —
    and a plain build, a journalled one and one resumed from any of its
    checkpoints classify over the same windows and write the same bytes.
    Last, a trivial tuple two phases stored keeps only its least detailed
    copy (:func:`_store_tts_once`), as an in-memory build stores it.

    The keyword arguments are a journalled build's steps
    (:class:`repro.core.recovery.DurableCubeBuild`): the pass writes to
    ``name_suffix`` staging names which ``on_partitioned`` publishes,
    returning the partitioning under its final names; a resumed build
    hands in the ``recorded`` partitioning instead of selecting and
    spilling again, and the ``start_unit`` after its last checkpoint;
    ``on_partition(done)`` runs after each partition unit's flush,
    ``done`` of them complete.
    """
    if not schema.all_distributive:
        raise ValueError(
            "external partitioning requires distributive aggregates "
            "(observation 3 of Section 4 excludes holistic functions)"
        )
    from repro.build import ProcessPoolExecutor, apply_outcome, partition_plan

    storage.fact_row_count = len(engine.relation(relation))
    faults = engine.catalog.faults

    def on_unit(completion) -> None:
        for outcome in completion.outcomes:
            apply_outcome(outcome, storage, pool, stats, faults)
            if outcome.task.drop_after:
                engine.catalog.drop(outcome.task.relation)
        if completion.unit.kind == "partition":
            pool.flush()
            if on_partition is not None:
                on_partition(completion.unit.index + 1)

    pool_token = engine.memory.reserve(
        _pool_bytes(schema, pool.capacity), what="signature pool"
    )
    try:
        decision = None
        partitioning = recorded
        if partitioning is None:
            decision = select_partition_level(
                engine, relation, schema, partition_strategy
            )
            partitioning = partition_relation(
                engine, relation, schema, decision, stats, name_suffix
            )
            if on_partitioned is not None:
                partitioning = on_partitioned(partitioning)
        storage.partition_level = partitioning.levels[0]
        if len(partitioning.levels) == 2:
            storage.partition_level2 = partitioning.levels[1]
        if start_unit == 0:
            stats.fact_read_passes += 1  # loading the partitions re-reads R once
        build_executor = executor or ProcessPoolExecutor(engine, workers)
        build_executor.run(
            partition_plan(schema, min_count, partitioning, storage.dr_mode), on_unit, start_unit
        )
        pool.flush()
        stats.tts_dropped += _store_tts_once(storage)
        stats.tasks_run += build_executor.stats.tasks_run
        stats.tasks_stolen += build_executor.stats.tasks_stolen
        stats.workers = max(stats.workers, build_executor.stats.workers)
        return decision
    finally:
        engine.memory.release(pool_token)


def _store_tts_once(storage: CubeStorage) -> int:
    """Drop from every node's TT list the row-ids a plan ancestor's holds.

    Section 5.1 stores a trivial tuple once, at the least detailed node
    where its group is one fact row.  Each construction phase re-finds
    the TTs of its own region, so a row alone in a coarse-phase group is
    stored again below it.  One pre-order sweep keeps the least detailed
    copy: ``held_until[r]`` is the end of the plan sub-tree whose root
    kept row-id ``r``.  Stored order is kept and the pass is idempotent,
    so a plain, a durable and a resumed build write the same bytes.
    Returns how many TT copies it dropped.
    """
    order = storage.schema.plan_order(storage.flat)
    ends = list(range(1, len(order) + 1))
    for position in range(len(order) - 1, 0, -1):
        parent = order[position][2]
        ends[parent] = max(ends[parent], ends[position])
    held_until = np.zeros(storage.fact_row_count, dtype=np.int32)
    dropped = 0
    for position, (_node, node_id, _parent) in enumerate(order):
        store = storage.nodes.get(node_id)
        if store is None or not store.tt_count:
            continue
        rowids = store.tt_array()
        inherited = held_until[rowids] > position
        if inherited.any():
            dropped += int(inherited.sum())
            rowids = rowids[~inherited]
            store.tt.replace(rowids)
            if not store.relation_count:
                del storage.nodes[node_id]
        held_until[rowids] = ends[position]
    return dropped
