"""The tuple-at-a-time partition pass, kept as a test oracle.

This is ``repro.core.partition`` as it stood before the pass became one
array routine (``spill_by_key``): a loop over the heap's rows with a
per-bin row buffer, the coarse node(s) folded into a dict one tuple at
a time, the counting scans as Python loops over rows, six times over —
level, repartition, pair and local-pair partitioning plus the two
counting scans.  The functions below are the old bodies verbatim, down
to one function per shape; the decision and result dataclasses (one of
each, whatever the shape), the size estimator and the coarse loader are
the production ones.  The differential suite
(``tests/property/test_hypothesis_partition.py``) holds the array pass
to these: partition file bytes, coarse rows (first-appearance order,
the first contributor's base code as representative, minimum row-id,
aggregates), the decisions and ``PartitionStats``.
"""

from __future__ import annotations

import numpy as np

from repro.core.model import AggregateSpec, CubeSchema
from repro.core.partition import Partitioning, PartitionStats
from repro.core.partition_select import (
    PartitionDecision,
    _working_set_row_bytes,
    estimate_coarse_rows,
)
from repro.relational.durable import maybe_fire
from repro.relational.engine import Engine
from repro.relational.memory import MemoryBudgetExceeded
from tests.support.rows import append_rows, rows_of

_FLUSH_EVERY = 8192  # buffered rows per partition before an append burst


def select_partition_level(
    engine: Engine,
    relation: str,
    schema: CubeSchema,
    strategy: str = "exact",
) -> PartitionDecision:
    """Choose the maximum workable level ``L`` of the first dimension."""
    heap = engine.relation(relation)
    total_rows = len(heap)
    dimension = schema.dimensions[0]
    if not dimension.is_linear:
        raise ValueError(
            "partitioning descends the first dimension's chain; order a "
            "linear-hierarchy dimension first"
        )
    available = engine.memory.free_bytes
    if available is None:
        raise ValueError("select_partition_level needs a bounded memory budget")

    partition_row_bytes = schema.partition_schema.row_size_bytes
    ws_row_bytes = _working_set_row_bytes(schema)

    if strategy == "exact":
        member_rows_per_level = _exact_member_rows(heap, schema)
    elif strategy == "uniform":
        member_rows_per_level = None
    else:
        raise ValueError(f"unknown selection strategy {strategy!r}")

    for level in range(dimension.n_levels - 1, -1, -1):
        if member_rows_per_level is not None:
            counts = member_rows_per_level[level]
            max_member = int(counts.max()) if counts.size else 0
            member_rows = {
                int(code): int(count)
                for code, count in enumerate(counts)
                if count
            }
        else:
            max_member = -(-total_rows // dimension.cardinality(level))
            member_rows = {}
        estimated_coarse = estimate_coarse_rows(schema, 0, level, total_rows)
        partitions_fit = max_member * partition_row_bytes <= available
        coarse_fits = estimated_coarse * ws_row_bytes <= available
        if partitions_fit and coarse_fits:
            return PartitionDecision(
                levels=(level,),
                max_member_rows=max_member,
                estimated_coarse_rows=(estimated_coarse,),
                available_bytes=available,
                strategy=strategy,
                rows_by_member=member_rows,
            )
    raise MemoryBudgetExceeded(
        f"no level of dimension {dimension.name!r} yields memory-sized "
        f"sound partitions with a coarse node that fits; build_cube falls "
        f"back to partitioning on (A_L, B_M) member pairs "
        f"(select_partition_pair) — if that fails too, raise the memory "
        f"budget (MemoryManager(budget_bytes)) or reorder dimensions by "
        f"decreasing cardinality"
    )


def _exact_member_rows(heap, schema: CubeSchema) -> list[np.ndarray]:
    """One counting scan: per-member row counts at every level of dim 0."""
    dimension = schema.dimensions[0]
    base_counts = np.zeros(dimension.base_cardinality, dtype=np.int64)
    for row in rows_of(heap):
        base_counts[row[0]] += 1
    per_level = []
    for level in range(dimension.n_levels):
        if level == 0:
            per_level.append(base_counts)
            continue
        level_map = np.asarray(dimension.base_maps[level], dtype=np.int64)
        counts = np.zeros(dimension.cardinality(level), dtype=np.int64)
        np.add.at(counts, level_map, base_counts)
        per_level.append(counts)
    return per_level


def _bin_members(
    decision: PartitionDecision, partition_row_bytes: int
) -> dict[int, int]:
    """First-fit-decreasing binning of ``A_L`` members into partitions.

    Returns member-code → partition-index.  Soundness holds because a
    member is never split; memory-sizedness because bins are capped at the
    available budget (each single member fits by the selection criterion).
    """
    capacity_rows = max(
        decision.available_bytes // partition_row_bytes,
        decision.max_member_rows,
    )
    members = sorted(
        decision.rows_by_member.items(), key=lambda item: -item[1]
    )
    bins: list[int] = []  # remaining capacity per bin
    assignment: dict[int, int] = {}
    for code, rows in members:
        placed = False
        for index, remaining in enumerate(bins):
            if rows <= remaining:
                bins[index] -= rows
                assignment[code] = index
                placed = True
                break
        if not placed:
            bins.append(capacity_rows - rows)
            assignment[code] = len(bins) - 1
    return assignment


def partition_relation(
    engine: Engine,
    relation: str,
    schema: CubeSchema,
    decision: PartitionDecision,
    stats: PartitionStats | None = None,
    name_suffix: str = "",
) -> Partitioning:
    """One pass: route tuples to partitions and hash-build the coarse node.

    Returns the created partition relation names and the name of the
    persisted coarse node ``N`` (``<relation>.coarseN`` — the paper's
    ``nodeRelation``, written to disk here and loaded again for phase 2 so
    it does not occupy memory while partitions are being processed).

    ``name_suffix`` lets crash-safe builds write to staging names
    (``….part0.tmp``) that are atomically published once the pass — and
    its checksums — completed.
    """
    heap = engine.relation(relation)
    dimension = schema.dimensions[0]
    (level,) = decision.levels
    level_map = dimension.base_maps[level]
    partition_schema = schema.partition_schema

    if decision.rows_by_member:
        assignment = _bin_members(decision, partition_schema.row_size_bytes)
        n_bins = (max(assignment.values()) + 1) if assignment else 0
    else:  # uniform strategy: one partition per member
        assignment = {
            code: code for code in range(dimension.cardinality(level))
        }
        n_bins = dimension.cardinality(level)

    names = [f"{relation}.part{i}{name_suffix}" for i in range(n_bins)]
    for name in names:
        if engine.catalog.exists(name):
            engine.catalog.drop(name)
    heaps = [engine.create_relation(name, partition_schema) for name in names]
    buffers: list[list[tuple]] = [[] for _ in range(n_bins)]

    project_out = level + 1 == dimension.all_level
    upper_map = None if project_out else dimension.base_maps[level + 1]
    specs = schema.aggregates
    n_dims = schema.n_dimensions

    # key -> [aggregate vector, weight, min rowid, representative base code]
    coarse: dict[tuple, list] = {}

    for rowid, row in enumerate(rows_of(heap)):
        base_code = row[0]
        bin_index = assignment.get(level_map[base_code])
        if bin_index is None:  # member absent from the counting scan
            bin_index = 0
        buffer = buffers[bin_index]
        buffer.append(row + (rowid,))
        if len(buffer) >= _FLUSH_EVERY:
            append_rows(heaps[bin_index], buffer)
            buffer.clear()

        upper_code = 0 if project_out else upper_map[base_code]
        key = (upper_code,) + row[1:n_dims]
        _fold_coarse(coarse, key, row[n_dims:], rowid, base_code, specs)

    for bin_index, buffer in enumerate(buffers):
        if buffer:
            append_rows(heaps[bin_index], buffer)
    for partition_heap in heaps:
        partition_heap.flush()

    if stats is not None:
        stats.partitioned = True
        stats.fact_read_passes += 1
        stats.fact_write_passes += 1
        stats.partitions_created = n_bins

    coarse_name = _persist_coarse(engine, relation, schema, coarse, name_suffix)
    return Partitioning((level,), None, names, [coarse_name])


def _fold_coarse(
    coarse: dict[tuple, list],
    key: tuple,
    measures: tuple,
    rowid: int,
    base_code: int,
    specs: tuple[AggregateSpec, ...],
) -> None:
    """Merge one fact tuple into a coarse-node hash entry."""
    entry = coarse.get(key)
    if entry is None:
        coarse[key] = [
            [
                spec.function.from_value(measures[spec.measure_index])
                for spec in specs
            ],
            1,
            rowid,
            base_code,
        ]
    else:
        partials = entry[0]
        for y, spec in enumerate(specs):
            partials[y] = spec.function.merge(
                partials[y],
                spec.function.from_value(measures[spec.measure_index]),
            )
        entry[1] += 1
        if rowid < entry[2]:
            entry[2] = rowid


def _persist_coarse(
    engine: Engine,
    relation: str,
    schema: CubeSchema,
    coarse: dict[tuple, list],
    name_suffix: str = "",
) -> str:
    """Write ``N`` to disk, mirroring the paper's ``nodeRelation``.

    The first dimension is stored as a *representative base code* (any
    contributor's): recursion from ``N`` never descends below level L+1,
    where all contributors roll up identically, so any representative is
    equivalent and the working-set layout stays uniform.
    """
    from repro.relational.schema import Column, ColumnType, TableSchema

    columns = [Column("rep_base_code", ColumnType.INT32)]
    columns += [
        Column(f"d_{dimension.name}", ColumnType.INT32)
        for dimension in schema.dimensions[1:]
    ]
    columns += [
        Column(f"aggr_{y}", ColumnType.INT64)
        for y in range(schema.n_aggregates)
    ]
    columns += [
        Column("weight", ColumnType.INT64),
        Column("min_rowid", ColumnType.INT64),
    ]
    name = f"{relation}.coarseN{name_suffix}"
    if engine.catalog.exists(name):
        engine.catalog.drop(name)
    heap = engine.create_relation(name, TableSchema(tuple(columns)))
    append_rows(heap, [
        (base_code,) + key[1:] + tuple(partials) + (weight, min_rowid)
        for key, (partials, weight, min_rowid, base_code) in coarse.items()
    ])
    heap.flush()
    return name


def repartition_partition(
    engine: Engine,
    partition: str,
    schema: CubeSchema,
    parent_level: int,
    stats: PartitionStats | None = None,
) -> Partitioning:
    """Split one over-budget partition at a finer level of dimension 0.

    Partition-level selection works from *estimates*; when one
    under-provisions — a skewed member under the ``uniform`` strategy, or
    a budget shock at load time — loading that partition raises
    :class:`MemoryBudgetExceeded` even though the build as a whole is
    viable.  Instead of aborting, this re-runs the Section 4 machinery
    locally: pick the maximum ``L'' < parent_level`` whose members (exact
    counts, one scan of the partition) and local coarse node both fit the
    remaining budget, route the partition's rows into sound
    sub-partitions (``<partition>.sub<i>``), and persist a local coarse
    node at ``A_{L''+1}`` (``<partition>.coarseN``).  Callers recurse on
    a sub-partition that *still* fails to load.

    When no finer level of dimension 0 exists or helps — the skew lives
    inside a single base-level member — the paper's pair extension is
    applied *locally*: a level pair ``(A_L0, B_M)`` sound for just this
    partition's rows is selected (:func:`select_partition_pair_local`)
    and the partition is split on member pairs instead
    (:func:`repartition_relation_pair`).
    """
    heap = engine.relation(partition)
    total_rows = len(heap)
    dimension = schema.dimensions[0]
    available = engine.memory.free_bytes
    if available is None:
        raise ValueError("repartition_partition needs a bounded memory budget")
    partition_schema = schema.partition_schema
    partition_row_bytes = partition_schema.row_size_bytes
    ws_row_bytes = _working_set_row_bytes(schema)

    member_rows_per_level = _exact_member_rows(heap, schema)
    decision: PartitionDecision | None = None
    for level in range(parent_level - 1, -1, -1):
        counts = member_rows_per_level[level]
        max_member = int(counts.max()) if counts.size else 0
        estimated_coarse = estimate_coarse_rows(schema, 0, level, total_rows)
        if (
            max_member * partition_row_bytes <= available
            and estimated_coarse * ws_row_bytes <= available
        ):
            decision = PartitionDecision(
                levels=(level,),
                max_member_rows=max_member,
                estimated_coarse_rows=(estimated_coarse,),
                available_bytes=available,
                strategy="exact",
                rows_by_member={
                    int(code): int(count)
                    for code, count in enumerate(counts)
                    if count
                },
            )
            break
    if decision is None:
        # The skew lives inside a single base-level member of dimension 0
        # (no finer level can split it): extend partitioning to pairs of
        # dimensions, scoped to this partition's rows.
        pair_decision = select_partition_pair_local(
            engine, partition, schema, parent_level
        )
        maybe_fire(engine.catalog.faults, f"repartition.pair:{partition}")
        return repartition_relation_pair(
            engine, partition, schema, parent_level, pair_decision, stats
        )
    maybe_fire(engine.catalog.faults, f"repartition.single:{partition}")

    (level,) = decision.levels
    level_map = dimension.base_maps[level]
    assignment = _bin_members(decision, partition_row_bytes)
    n_bins = (max(assignment.values()) + 1) if assignment else 0
    names = [f"{partition}.sub{i}" for i in range(n_bins)]
    for name in names:
        if engine.catalog.exists(name):
            engine.catalog.drop(name)
    heaps = [engine.create_relation(name, partition_schema) for name in names]
    buffers: list[list[tuple]] = [[] for _ in range(n_bins)]

    # level+1 < all_level always holds here (level < parent_level <= top),
    # so the local coarse never projects dimension 0 out.
    upper_map = dimension.base_maps[level + 1]
    specs = schema.aggregates
    n_dims = schema.n_dimensions
    coarse: dict[tuple, list] = {}

    for row in rows_of(heap):
        base_code = row[0]
        bin_index = assignment.get(level_map[base_code], 0)
        buffer = buffers[bin_index]
        buffer.append(row)  # partition rows already carry their fact rowid
        if len(buffer) >= _FLUSH_EVERY:
            append_rows(heaps[bin_index], buffer)
            buffer.clear()
        key = (upper_map[base_code],) + row[1:n_dims]
        _fold_coarse(
            coarse, key, row[n_dims:-1], row[-1], base_code, specs
        )

    for bin_index, buffer in enumerate(buffers):
        if buffer:
            append_rows(heaps[bin_index], buffer)
    for sub_heap in heaps:
        sub_heap.flush()

    coarse_name = _persist_coarse(engine, partition, schema, coarse)
    if stats is not None:
        stats.repartitioned_partitions += 1
        stats.subpartitions_created += n_bins
    return Partitioning((level,), parent_level, names, [coarse_name])


def select_partition_pair(
    engine: Engine, relation: str, schema: CubeSchema
) -> PartitionDecision:
    """Choose the maximum workable level pair (L of dim 0, M of dim 1)."""
    if schema.n_dimensions < 2:
        raise MemoryBudgetExceeded(
            "pair partitioning needs at least two dimensions"
        )
    heap = engine.relation(relation)
    dim0, dim1 = schema.dimensions[0], schema.dimensions[1]
    if not (dim0.is_linear and dim1.is_linear):
        raise ValueError(
            "pair partitioning descends the two leading dimensions' "
            "chains; order linear-hierarchy dimensions first"
        )
    available = engine.memory.free_bytes
    if available is None:
        raise ValueError("select_partition_pair needs a bounded memory budget")
    decision = _search_pair_decision(
        heap, schema, available, top_level0=dim0.n_levels - 1
    )
    if decision is None:
        raise MemoryBudgetExceeded(
            "no level pair of the two leading dimensions yields "
            "memory-sized sound partitions with coarse nodes that fit; "
            "increase the budget or reorder dimensions by decreasing "
            "cardinality"
        )
    return decision


def _search_pair_decision(
    heap,
    schema: CubeSchema,
    available: int,
    top_level0: int,
    n1_free_level0: int | None = None,
) -> PartitionDecision | None:
    """Maximize (level0, level1) such that pairs and coarse nodes all fit.

    ``top_level0`` caps the search on dimension 0 (the full chain for the
    global case; ``parent_level`` for the partition-scoped case).  When
    ``level0 == n1_free_level0`` the N1 coarse node is not needed — a
    partition already sound on ``A_{parent_level}`` has no ``(L0,
    parent_level]`` gap to patch — so its fit constraint is waived.
    """
    total_rows = len(heap)
    dim0, dim1 = schema.dimensions[0], schema.dimensions[1]
    partition_row_bytes = schema.partition_schema.row_size_bytes
    ws_row_bytes = _working_set_row_bytes(schema)

    base_counts = _exact_pair_counts(heap, schema)
    for level0 in range(top_level0, -1, -1):
        if level0 == n1_free_level0:
            n1_rows = 0
        else:
            n1_rows = estimate_coarse_rows(schema, 0, level0, total_rows)
            if n1_rows * ws_row_bytes > available:
                continue
        map0 = dim0.base_maps[level0]
        for level1 in range(dim1.n_levels - 1, -1, -1):
            n2_rows = estimate_coarse_rows(schema, 1, level1, total_rows)
            if n2_rows * ws_row_bytes > available:
                continue
            map1 = dim1.base_maps[level1]
            pair_rows: dict[tuple[int, int], int] = {}
            for (code0, code1), count in base_counts.items():
                key = (map0[code0], map1[code1])
                pair_rows[key] = pair_rows.get(key, 0) + count
            max_pair = max(pair_rows.values(), default=0)
            if max_pair * partition_row_bytes <= available:
                return PartitionDecision(
                    levels=(level0, level1),
                    max_member_rows=max_pair,
                    estimated_coarse_rows=(n1_rows, n2_rows),
                    available_bytes=available,
                    rows_by_member=pair_rows,
                )
    return None


def _exact_pair_counts(heap, schema: CubeSchema) -> dict[tuple[int, int], int]:
    """One scan: joint base-code histogram of the two leading dimensions."""
    counts: dict[tuple[int, int], int] = {}
    for row in rows_of(heap):
        key = (row[0], row[1])
        counts[key] = counts.get(key, 0) + 1
    return counts


def _bin_pairs(
    decision: PartitionDecision, partition_row_bytes: int
) -> dict[tuple[int, int], int]:
    """First-fit-decreasing binning of (A_L, B_M) pairs into partitions.

    The pair analogue of :func:`_bin_members`: returns pair-key →
    partition-index; no pair is ever split across partitions.
    """
    capacity_rows = max(
        decision.available_bytes // partition_row_bytes,
        decision.max_member_rows,
    )
    members = sorted(decision.rows_by_member.items(), key=lambda item: -item[1])
    bins: list[int] = []
    assignment: dict[tuple[int, int], int] = {}
    for key, rows in members:
        placed = False
        for index, remaining in enumerate(bins):
            if rows <= remaining:
                bins[index] -= rows
                assignment[key] = index
                placed = True
                break
        if not placed:
            bins.append(capacity_rows - rows)
            assignment[key] = len(bins) - 1
    return assignment


def _fold_pair_coarse(
    coarse: dict[tuple, list],
    key: tuple,
    measures: tuple,
    rowid: int,
    rep0: int,
    rep1: int,
    specs: tuple[AggregateSpec, ...],
) -> None:
    """Merge one fact tuple into a pair-coarse hash entry (keeps both
    representative base codes so either dimension can be substituted)."""
    entry = coarse.get(key)
    if entry is None:
        coarse[key] = [
            [
                spec.function.from_value(measures[spec.measure_index])
                for spec in specs
            ],
            1,
            rowid,
            rep0,
            rep1,
        ]
    else:
        partials = entry[0]
        for y, spec in enumerate(specs):
            partials[y] = spec.function.merge(
                partials[y],
                spec.function.from_value(measures[spec.measure_index]),
            )
        entry[1] += 1
        if rowid < entry[2]:
            entry[2] = rowid


def partition_relation_pair(
    engine: Engine,
    relation: str,
    schema: CubeSchema,
    decision: PartitionDecision,
    stats: PartitionStats | None = None,
    name_suffix: str = "",
) -> Partitioning:
    """One pass: route tuples by (A_L, B_M) pair and build N1 and N2.

    Returns partition names plus the names of the two persisted coarse
    nodes (``<relation>.coarseN1`` / ``.coarseN2``).  ``name_suffix``
    lets crash-safe builds write to staging names that are atomically
    published once the pass completes (see :func:`partition_relation`).
    """
    heap = engine.relation(relation)
    dim0, dim1 = schema.dimensions[0], schema.dimensions[1]
    level0, level1 = decision.levels
    map0 = dim0.base_maps[level0]
    map1 = dim1.base_maps[level1]
    partition_schema = schema.partition_schema

    assignment = _bin_pairs(decision, partition_schema.row_size_bytes)
    n_bins = (max(assignment.values()) + 1) if assignment else 0

    names = [f"{relation}.pairpart{i}{name_suffix}" for i in range(n_bins)]
    for name in names:
        if engine.catalog.exists(name):
            engine.catalog.drop(name)
    heaps = [engine.create_relation(name, partition_schema) for name in names]
    buffers: list[list[tuple]] = [[] for _ in range(n_bins)]

    project0 = level0 + 1 == dim0.all_level
    project1 = level1 + 1 == dim1.all_level
    upper0 = None if project0 else dim0.base_maps[level0 + 1]
    upper1 = None if project1 else dim1.base_maps[level1 + 1]
    specs = schema.aggregates
    n_dims = schema.n_dimensions

    coarse1: dict[tuple, list] = {}  # N1 = A_{L+1} B_0 C_0 …
    coarse2: dict[tuple, list] = {}  # N2 = A_0 B_{M+1} C_0 …

    for rowid, row in enumerate(rows_of(heap)):
        code0, code1 = row[0], row[1]
        bin_index = assignment.get((map0[code0], map1[code1]), 0)
        buffer = buffers[bin_index]
        buffer.append(row + (rowid,))
        if len(buffer) >= _FLUSH_EVERY:
            append_rows(heaps[bin_index], buffer)
            buffer.clear()
        measures = row[n_dims:]
        upper_code0 = 0 if project0 else upper0[code0]
        upper_code1 = 0 if project1 else upper1[code1]
        _fold_pair_coarse(
            coarse1, (upper_code0,) + row[1:n_dims], measures, rowid,
            code0, code1, specs,
        )
        _fold_pair_coarse(
            coarse2, (row[0], upper_code1) + row[2:n_dims], measures, rowid,
            code0, code1, specs,
        )

    for bin_index, buffer in enumerate(buffers):
        if buffer:
            append_rows(heaps[bin_index], buffer)
    for partition_heap in heaps:
        partition_heap.flush()

    if stats is not None:
        stats.partitioned = True
        stats.fact_read_passes += 1
        stats.fact_write_passes += 1
        stats.partitions_created = n_bins

    name1 = _persist_pair_coarse(
        engine, relation, schema, coarse1, "coarseN1" + name_suffix, rep_dim=0
    )
    name2 = _persist_pair_coarse(
        engine, relation, schema, coarse2, "coarseN2" + name_suffix, rep_dim=1
    )
    return Partitioning((level0, level1), None, names, [name1, name2])


def _persist_pair_coarse(
    engine: Engine,
    relation: str,
    schema: CubeSchema,
    coarse: dict[tuple, list],
    suffix: str,
    rep_dim: int,
) -> str:
    """Write one of the pair's coarse nodes with a representative base code
    substituted into the aggregated dimension (see ``_persist_coarse``)."""
    from repro.relational.schema import Column, ColumnType, TableSchema

    columns = [
        Column(f"c_{d}", ColumnType.INT32)
        for d in range(schema.n_dimensions)
    ]
    columns += [
        Column(f"aggr_{y}", ColumnType.INT64)
        for y in range(schema.n_aggregates)
    ]
    columns += [
        Column("weight", ColumnType.INT64),
        Column("min_rowid", ColumnType.INT64),
    ]
    name = f"{relation}.{suffix}"
    if engine.catalog.exists(name):
        engine.catalog.drop(name)
    heap = engine.create_relation(name, TableSchema(tuple(columns)))

    def rows():
        for key, (partials, weight, min_rowid, rep0, rep1) in coarse.items():
            dims = list(key)
            dims[rep_dim] = rep0 if rep_dim == 0 else rep1
            yield tuple(dims) + tuple(partials) + (weight, min_rowid)

    append_rows(heap, rows())
    heap.flush()
    return name


def select_partition_pair_local(
    engine: Engine,
    partition: str,
    schema: CubeSchema,
    parent_level: int,
) -> PartitionDecision:
    """Choose the maximum workable (L0 ≤ parent_level, M) pair for one
    partition's rows.

    Called after single-dimension re-partitioning found no feasible finer
    level, so every failure here is terminal for the build and raises
    :class:`MemoryBudgetExceeded` with the remaining knobs spelled out.
    """
    if schema.n_dimensions < 2:
        raise MemoryBudgetExceeded(
            f"partition {partition!r} exceeds the memory budget, no finer "
            f"level of dimension 0 can split it, and the cube has a single "
            f"dimension so the local pair extension does not apply; raise "
            f"the memory budget (MemoryManager(budget_bytes))"
        )
    dim1 = schema.dimensions[1]
    if not dim1.is_linear:
        raise MemoryBudgetExceeded(
            f"partition {partition!r} exceeds the memory budget and the "
            f"local pair extension needs a linear hierarchy on dimension "
            f"{dim1.name!r}; reorder linear-hierarchy dimensions first or "
            f"raise the memory budget (MemoryManager(budget_bytes))"
        )
    available = engine.memory.free_bytes
    if available is None:
        raise ValueError(
            "select_partition_pair_local needs a bounded memory budget"
        )
    heap = engine.relation(partition)
    decision = _search_pair_decision(
        heap,
        schema,
        available,
        top_level0=parent_level,
        n1_free_level0=parent_level,
    )
    if decision is None:
        raise MemoryBudgetExceeded(
            f"partition {partition!r} exceeds the memory budget and no "
            f"level pair (A_L0, B_M) of the two leading dimensions yields "
            f"memory-sized sound sub-partitions with local coarse nodes "
            f"that fit; raise the memory budget "
            f"(MemoryManager(budget_bytes)) or reorder dimensions by "
            f"decreasing cardinality"
        )
    return decision


def repartition_relation_pair(
    engine: Engine,
    partition: str,
    schema: CubeSchema,
    parent_level: int,
    decision: PartitionDecision,
    stats: PartitionStats | None = None,
) -> Partitioning:
    """One pass over the partition: route rows by (A_L0, B_M) pair and
    build the local coarse nodes.

    The partition's rows already carry their fact row-id in the trailing
    column (``partition_schema``), so sub-partitions reuse the rows
    verbatim and the coarse folds read the stored row-id instead of
    re-enumerating — answers stay byte-identical to the unsplit build.
    """
    heap = engine.relation(partition)
    dim0, dim1 = schema.dimensions[0], schema.dimensions[1]
    level0, level1 = decision.levels
    map0 = dim0.base_maps[level0]
    map1 = dim1.base_maps[level1]
    partition_schema = schema.partition_schema

    assignment = _bin_pairs(decision, partition_schema.row_size_bytes)
    n_bins = (max(assignment.values()) + 1) if assignment else 0
    names = [f"{partition}.sub{i}" for i in range(n_bins)]
    for name in names:
        if engine.catalog.exists(name):
            engine.catalog.drop(name)
    heaps = [engine.create_relation(name, partition_schema) for name in names]
    buffers: list[list[tuple]] = [[] for _ in range(n_bins)]

    # Local N1 patches the (L0, parent_level] slice of dimension 0; when
    # level0 == parent_level that slice is empty (the pair partitions
    # already cover A_{parent_level}) and building N1 would double-count.
    build_n1 = level0 < parent_level
    upper0 = dim0.base_maps[level0 + 1] if build_n1 else None
    project1 = level1 + 1 == dim1.all_level
    upper1 = None if project1 else dim1.base_maps[level1 + 1]
    specs = schema.aggregates
    n_dims = schema.n_dimensions

    coarse1: dict[tuple, list] = {}  # local N1 = A_{L0+1} B_0 C_0 …
    coarse2: dict[tuple, list] = {}  # local N2 = A_0 B_{M+1} C_0 …

    for row in rows_of(heap):
        code0, code1 = row[0], row[1]
        bin_index = assignment.get((map0[code0], map1[code1]), 0)
        buffer = buffers[bin_index]
        buffer.append(row)  # rows already carry their fact rowid
        if len(buffer) >= _FLUSH_EVERY:
            append_rows(heaps[bin_index], buffer)
            buffer.clear()
        measures = row[n_dims:-1]
        rowid = row[-1]
        if build_n1:
            _fold_pair_coarse(
                coarse1, (upper0[code0],) + row[1:n_dims], measures, rowid,
                code0, code1, specs,
            )
        upper_code1 = 0 if project1 else upper1[code1]
        _fold_pair_coarse(
            coarse2, (code0, upper_code1) + row[2:n_dims], measures, rowid,
            code0, code1, specs,
        )

    for bin_index, buffer in enumerate(buffers):
        if buffer:
            append_rows(heaps[bin_index], buffer)
    for sub_heap in heaps:
        sub_heap.flush()

    coarse1_name: str | None = None
    if build_n1:
        coarse1_name = _persist_pair_coarse(
            engine, partition, schema, coarse1, "coarseN1", rep_dim=0
        )
    coarse2_name = _persist_pair_coarse(
        engine, partition, schema, coarse2, "coarseN2", rep_dim=1
    )
    if stats is not None:
        stats.repartitioned_partitions += 1
        stats.pair_repartitioned_partitions += 1
        stats.subpartitions_created += n_bins
    coarse_names = [coarse1_name, coarse2_name] if build_n1 else [coarse2_name]
    return Partitioning((level0, level1), parent_level, names, coarse_names)
