"""The CURE algorithm (Figure 13 of the paper) and its execution shapes.

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

The same executor drives all plan shapes: P3 (hierarchical CURE), the flat
P1 (FCURE and the flat baselines), and P2 (the "levels as dimensions"
ablation) — a shape only decides which levels solid edges introduce and
where dashed edges descend.

``build_cube`` is the top-level Algorithm CURE: it takes the in-memory fast
path when the fact relation fits the (simulated) memory budget, and
otherwise runs the external-partitioning pipeline of Section 4.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import NamedTuple, Protocol

import numpy as np

from repro.core.model import CubeSchema
from repro.core.partition import Partitioning, partition_relation
from repro.core.partition_select import PartitionDecision, select_partition_level
from repro.core.segments import aggregate_ufuncs, sort_groups, stable_order
from repro.core.signature import PoolStats, SignaturePool
from repro.core.storage import CubeStorage
from repro.core.workingset import WorkingSet
from repro.relational.engine import Engine
from repro.relational.sortops import SortStats
from repro.relational.table import Table


@dataclass
class BuildStats:
    """Machine-independent construction cost counters."""

    nodes_aggregated: int = 0
    tt_written: int = 0
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


# -- execution shapes -----------------------------------------------------------


class ExecutionShape(Protocol):
    """What the executor needs from a plan shape (P1/P2/P3 or custom)."""

    def entry_levels(self, dim: int) -> tuple[int, ...]: ...

    def dashed_children(self, dim: int, level: int) -> tuple[int, ...]: ...


class HierarchicalShape:
    """CURE's P3 shape: entry at top levels, dashed descent per hierarchy.

    ``base_levels`` stops descent above a dimension's base level — the
    ``baseLevel`` array of Figure 13, used by the coarse-node phase of
    partitioned construction.
    """

    def __init__(
        self, schema: CubeSchema, base_levels: tuple[int, ...] | None = None
    ) -> None:
        self.base_levels = base_levels or tuple(0 for _ in schema.dimensions)
        self._entries: list[tuple[int, ...]] = []
        self._dashed: list[list[tuple[int, ...]]] = []
        for d, dimension in enumerate(schema.dimensions):
            floor = self.base_levels[d]
            self._entries.append(
                tuple(
                    level
                    for level in dimension.entry_levels()
                    if level >= floor
                )
            )
            self._dashed.append(
                [
                    tuple(
                        child
                        for child in dimension.dashed_children(level)
                        if child >= floor
                    )
                    for level in range(dimension.n_levels_with_all)
                ]
            )

    def entry_levels(self, dim: int) -> tuple[int, ...]:
        return self._entries[dim]

    def dashed_children(self, dim: int, level: int) -> tuple[int, ...]:
        return self._dashed[dim][level]


class FlatShape:
    """P1: base levels only, no dashed edges (BUC, BU-BST, FCURE)."""

    def __init__(self, schema: CubeSchema) -> None:
        self._n = schema.n_dimensions

    def entry_levels(self, dim: int) -> tuple[int, ...]:
        return (0,)

    def dashed_children(self, dim: int, level: int) -> tuple[int, ...]:
        return ()


class LevelsAsDimensionsShape:
    """P2: every level is an independent entry; no dashed edges.

    Each node is reached by one solid path that picks a single level per
    participating dimension, so the plan height stays D but every edge
    pays a from-scratch sort — the inefficiency Section 3.1 quantifies.
    """

    def __init__(self, schema: CubeSchema) -> None:
        self._dimensions = schema.dimensions

    def entry_levels(self, dim: int) -> tuple[int, ...]:
        return tuple(range(self._dimensions[dim].n_levels - 1, -1, -1))

    def dashed_children(self, dim: int, level: int) -> tuple[int, ...]:
        return ()


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

    The recursion walks the execution plan (``shape.entry_levels`` /
    ``dashed_children``, never materialized); each ``FollowEdge`` handles
    *all* surviving parent segments at once: one stable sort on
    ``(parent segment, level key)``, one ``reduceat`` per weight / row-id /
    aggregate column, trivial-tuple / iceberg / signature classification
    as masks, survivors compacted for the child edges.

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
            self._agg_columns = [
                np.ascontiguousarray(working.aggs[:, y])
                for y in range(self.schema.n_aggregates)
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
            weights = np.add.reduceat(working.weights[positions], starts)
            is_trivial = (weights == 1) & (self.min_count <= 1)
            is_alive = weights >= max(self.min_count, 2)
        else:
            # A pair edge emits nothing and prunes nothing.
            is_trivial = np.zeros(len(starts), dtype=np.bool_)
            is_alive = ~is_trivial
        trivial = np.flatnonzero(is_trivial)
        alive = np.flatnonzero(is_alive)
        signed = alive if pair_level is None else alive[:0]
        rowids = np.minimum.reduceat(working.rowids[positions], starts)
        tt_rows = np.empty((len(trivial), 2), dtype=np.int64)
        tt_rows[:, 1] = rowids[trivial]
        sig_rows = np.zeros((len(signed), self._sig_width), dtype=np.int64)
        sig_rows[:, 1] = rowids[signed]
        for y, ufunc in enumerate(self._ufuncs):
            column = self._agg_columns[y][positions]
            sig_rows[:, 2 + y] = ufunc.reduceat(column, starts)[signed]
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
            children = [
                self._follow_edge(survivors, *edge)
                for edge in self._child_edges(entered, next_dim, pair_level)
            ]
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

    def _child_edges(
        self, entered: int | None, next_dim: int, pair_level: int | None
    ) -> list[tuple[int, int, int, int | None]]:
        """Lines 8–15 of ``ExecutePlan``: the ``(dim, level, next_dim,
        pair_level)`` of the edges leaving the current node, in plan order."""
        if pair_level is not None:
            descents = self.shape.dashed_children(0, self._node_levels[0])
            return [(1, pair_level, 2, None)] + [
                (0, child, next_dim, pair_level) for child in descents
            ]
        edges: list[tuple[int, int, int, int | None]] = [
            (d, entry, d + 1, None)
            for d in range(next_dim, self.schema.n_dimensions)
            for entry in self.shape.entry_levels(d)
        ]
        if entered is not None:  # the dashed edges
            descents = self.shape.dashed_children(
                entered, self._node_levels[entered]
            )
            edges += [(entered, child, next_dim, None) for child in descents]
        return edges

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
    return rows[stable_order(positions)]


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

    ``workers > 1`` runs the partitioned pipeline's tasks on that many
    worker processes (:class:`repro.build.parallel.ProcessPoolExecutor`);
    the output is byte-identical to ``workers=1``.  ``executor`` injects a
    pre-built :class:`repro.build.BuildExecutor` instead (tests, custom
    budgets).  Both are ignored on the in-memory fast path, which has no
    tasks to schedule.
    """
    if (table is None) == (engine is None or relation is None):
        raise ValueError("provide either `table` or both `engine` and `relation`")

    storage = CubeStorage(schema, dr_mode=dr_mode, flat=flat)
    stats = BuildStats()
    pool = SignaturePool(
        pool_capacity,
        on_flush=storage.write_flush,
        on_statistics=storage.decide_format,
        n_aggregates=schema.n_aggregates,
    )
    if shape is None:
        shape = FlatShape(schema) if flat else HierarchicalShape(schema)

    started = time.perf_counter()
    decision: PartitionDecision | None = None

    if table is not None:
        working = WorkingSet.from_fact_table(schema, table)
        _build_in_memory(storage, pool, shape, min_count, stats, working)
    else:
        heap = engine.relation(relation)
        pool_bytes = (
            SignaturePool.size_bytes(pool_capacity, schema.n_aggregates)
            if pool_capacity
            else 0
        )
        if engine.memory.fits(heap.size_bytes + pool_bytes):
            stats.fact_read_passes += 1
            with engine.load(relation) as records:
                working = WorkingSet.from_records(schema, records)
                _build_in_memory(
                    storage, pool, shape, min_count, stats, working
                )
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
                pool_bytes,
                partition_strategy,
                workers,
                executor,
            )

    stats.elapsed_seconds = time.perf_counter() - started
    return CubeResult(storage, stats, pool.stats, decision)


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
    # pool the way every executor's do.
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
    pool_bytes: int,
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
    pool and the storage: executors only hand back per-unit outcome
    batches, which are applied — and their scaffolding relations dropped —
    in plan order, so flush windows and NT/CAT classification are
    identical under every executor.

    The keyword arguments are a journalled build's steps
    (:class:`repro.core.recovery.DurableCubeBuild`): the pass writes to
    ``name_suffix`` staging names which ``on_partitioned`` publishes,
    returning the partitioning under its final names; a resumed build
    hands in the ``recorded`` partitioning instead of selecting and
    spilling again, and the ``start_unit`` after its last checkpoint;
    ``on_partition(done)`` runs after each partition unit, ``done`` of
    them complete.
    """
    if not schema.all_distributive:
        raise ValueError(
            "external partitioning requires distributive aggregates "
            "(observation 3 of Section 4 excludes holistic functions)"
        )
    from repro.build import apply_outcome, make_executor, partition_plan

    storage.fact_row_count = len(engine.relation(relation))
    faults = engine.catalog.faults

    def on_unit(completion) -> None:
        for outcome in completion.outcomes:
            apply_outcome(outcome, storage, pool, stats, faults)
            if outcome.task.drop_after:
                engine.catalog.drop(outcome.task.relation)
        if on_partition is not None and completion.unit.kind == "partition":
            on_partition(completion.unit.index + 1)

    pool_token = engine.memory.reserve(pool_bytes, what="signature pool")
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
        build_executor = make_executor(engine, workers, executor)
        build_executor.run(
            partition_plan(schema, min_count, partitioning, storage.dr_mode), on_unit, start_unit
        )
        pool.flush()
        stats.tasks_run += build_executor.stats.tasks_run
        stats.tasks_stolen += build_executor.stats.tasks_stolen
        stats.workers = max(stats.workers, build_executor.stats.workers)
        stats.peak_worker_bytes = max(
            stats.peak_worker_bytes, build_executor.stats.peak_worker_bytes
        )
        return decision
    finally:
        engine.memory.release(pool_token)
