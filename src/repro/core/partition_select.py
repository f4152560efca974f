"""Partition-level selection (``SelectPartitionLevel``, Section 4).

CURE partitions on the **maximum** level ``L`` of the first dimension
such that (a) partitions sound on ``A_L`` fit in memory — feasible iff
the heaviest single member of ``A_L`` fits, since a member cannot be
split — and (b) the coarse node ``N = A_{L+1} B_0 C_0 …`` fits in memory
(estimated as ``|R| · |A_{L+1}| / |A_0|``, observation 2).  When no level
works, the same search runs over (A_L, B_M) member pairs of the two
leading dimensions — the extension Section 4 mentions but omits — for
the whole relation or, during adaptive re-partitioning, for the rows of
one over-budget partition.

Selection needs the per-member weights of each candidate level.  A real
ROLAP engine reads them from its statistics catalog; this substrate
offers both an ``exact`` strategy (one counting scan, the default) and a
``uniform`` strategy that trusts ``|R| / |A_L|`` the way the paper's
examples do.  Nothing here writes: the pass that acts on a decision is
:mod:`repro.core.partition`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.model import CubeSchema
from repro.core.segments import GroupFold, rollup_key
from repro.relational.engine import Engine
from repro.relational.memory import MemoryBudgetExceeded


@dataclass
class PartitionDecision:
    """The outcome of partition-level selection."""

    level: int
    n_members: int
    max_member_rows: int
    estimated_coarse_rows: int
    available_bytes: int
    strategy: str
    level_is_top: bool = False
    member_rows: dict[int, int] = field(default_factory=dict, repr=False)

    @property
    def projects_out_first_dim(self) -> bool:
        """True when ``L`` is the top level, so ``N`` drops the dimension."""
        return self.level_is_top


def _working_set_row_bytes(schema: CubeSchema) -> int:
    return 4 * schema.n_dimensions + 8 * (schema.n_aggregates + 2)


def available_bytes_of(engine: Engine, caller: str) -> int:
    available = engine.memory.free_bytes
    if available is None:
        raise ValueError(f"{caller} needs a bounded memory budget")
    return available


def select_partition_level(
    engine: Engine,
    relation: str,
    schema: CubeSchema,
    strategy: str = "exact",
) -> PartitionDecision:
    """Choose the maximum workable level ``L`` of the first dimension."""
    dimension = schema.dimensions[0]
    if not dimension.is_linear:
        raise ValueError(
            "partitioning descends the first dimension's chain; order a "
            "linear-hierarchy dimension first"
        )
    available = available_bytes_of(engine, "select_partition_level")
    if strategy not in ("exact", "uniform"):
        raise ValueError(f"unknown selection strategy {strategy!r}")
    decision = search_level_decision(
        engine, relation, schema, available, dimension.n_levels - 1, strategy
    )
    if decision is None:
        raise MemoryBudgetExceeded(
            f"no level of dimension {dimension.name!r} yields memory-sized "
            f"sound partitions with a coarse node that fits; build_cube falls "
            f"back to partitioning on (A_L, B_M) member pairs "
            f"(select_partition_pair) — if that fails too, raise the memory "
            f"budget (MemoryManager(budget_bytes)) or reorder dimensions by "
            f"decreasing cardinality"
        )
    return decision


def search_level_decision(
    engine: Engine,
    relation: str,
    schema: CubeSchema,
    available: int,
    top_level: int,
    strategy: str,
) -> PartitionDecision | None:
    """The highest level ≤ ``top_level`` of dimension 0 whose heaviest
    member and whose coarse node both fit ``available`` bytes."""
    heap = engine.relation(relation)
    total_rows = len(heap)
    dimension = schema.dimensions[0]
    partition_row_bytes = schema.partition_schema.row_size_bytes
    ws_row_bytes = _working_set_row_bytes(schema)
    counts_per_level = (
        _exact_member_rows(heap, schema) if strategy == "exact" else None
    )
    for level in range(top_level, -1, -1):
        if counts_per_level is not None:
            counts = counts_per_level[level]
            max_member = int(counts.max()) if counts.size else 0
            members = np.flatnonzero(counts)
            member_rows = dict(
                zip(members.tolist(), counts[members].tolist())
            )
        else:
            max_member = -(-total_rows // dimension.cardinality(level))
            member_rows = {}
        estimated_coarse = estimate_coarse_rows(schema, level, total_rows)
        if (
            max_member * partition_row_bytes <= available
            and estimated_coarse * ws_row_bytes <= available
        ):
            return PartitionDecision(
                level=level,
                n_members=dimension.cardinality(level),
                max_member_rows=max_member,
                estimated_coarse_rows=estimated_coarse,
                available_bytes=available,
                strategy=strategy,
                member_rows=member_rows,
                level_is_top=(level == dimension.n_levels - 1),
            )
    return None


def estimate_coarse_rows(
    schema: CubeSchema, level: int, total_rows: int
) -> int:
    """Expected row count of ``N = A_{L+1} B_0 C_0 …`` (observation 2)."""
    return estimate_pair_coarse_rows(schema, 0, level, total_rows)


def _exact_member_rows(heap, schema: CubeSchema) -> list[np.ndarray]:
    """One counting scan: per-member row counts at every level of dim 0."""
    dimension = schema.dimensions[0]
    base_counts = np.zeros(dimension.base_cardinality, dtype=np.int64)
    for batch in heap.scan_batches():
        base_counts += np.bincount(
            batch.arrays[0], minlength=len(base_counts)
        )
    per_level = [base_counts]
    for level in range(1, dimension.n_levels):
        counts = np.zeros(dimension.cardinality(level), dtype=np.int64)
        np.add.at(counts, dimension.level_maps[level], base_counts)
        per_level.append(counts)
    return per_level


# -- pair selection: the extension Section 4 mentions but omits ----------------------


@dataclass
class PairPartitionDecision:
    """Selection outcome for partitioning on (A_L, B_M) member pairs.

    Soundness on the pair lets the partitions build every node where both
    leading dimensions are present at levels ≤ (L, M); two coarse nodes
    cover the rest — ``N1 = A_{L+1} B_0 C_0 …`` for nodes with the first
    dimension above L (or absent), and ``N2 = A_0 B_{M+1} C_0 …`` for
    nodes keeping the first dimension ≤ L but the second above M (or
    absent).  The three regions are disjoint and exhaustive.
    """

    level0: int
    level1: int
    max_pair_rows: int
    estimated_n1_rows: int
    estimated_n2_rows: int
    available_bytes: int
    pair_rows: dict[tuple[int, int], int] = field(default_factory=dict, repr=False)


def estimate_pair_coarse_rows(
    schema: CubeSchema, which: int, level: int, total_rows: int
) -> int:
    """Expected row count of a coarse node: N and N1 (``which=0``) group
    by (A_{L+1}, bases of the rest), N2 (``which=1``) by (A_0, B_{M+1},
    bases of the rest).

    The paper estimates ``|N| ≈ |R| · |A_{L+1}| / |A_0|``, which assumes
    the fact table is dense in the first dimension.  This estimator uses
    the uniform balls-in-bins expectation over the ``K`` possible grouping
    combinations — ``E[distinct] = K · (1 - (1 - 1/K)^T)`` — which reduces
    to the paper's intuition when ``T ≫ K`` (the node shrinks toward ``K``
    rows) and correctly predicts ``N ≈ R`` on sparse data, where
    partitioning cannot help and a lower level (or a bigger budget) is
    needed.
    """
    combinations = 1
    for d, dimension in enumerate(schema.dimensions):
        if d == which:
            if level + 1 == dimension.all_level:
                continue  # projected out
            combinations *= dimension.cardinality(level + 1)
        else:
            combinations *= dimension.base_cardinality
    if combinations <= 1:
        return 1
    expected = -combinations * np.expm1(
        total_rows * np.log1p(-1.0 / combinations)
    )
    return int(min(total_rows, np.ceil(expected)))


def select_partition_pair(
    engine: Engine, relation: str, schema: CubeSchema
) -> PairPartitionDecision:
    """Choose the maximum workable level pair (L of dim 0, M of dim 1)."""
    if schema.n_dimensions < 2:
        raise MemoryBudgetExceeded(
            "pair partitioning needs at least two dimensions"
        )
    dim0, dim1 = schema.dimensions[0], schema.dimensions[1]
    if not (dim0.is_linear and dim1.is_linear):
        raise ValueError(
            "pair partitioning descends the two leading dimensions' "
            "chains; order linear-hierarchy dimensions first"
        )
    decision = _search_pair_decision(
        engine.relation(relation),
        schema,
        available_bytes_of(engine, "select_partition_pair"),
        top_level0=dim0.n_levels - 1,
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
) -> PairPartitionDecision | None:
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

    base_pairs = _exact_pair_counts(heap, schema)
    for level0 in range(top_level0, -1, -1):
        if level0 == n1_free_level0:
            n1_rows = 0
        else:
            n1_rows = estimate_pair_coarse_rows(schema, 0, level0, total_rows)
            if n1_rows * ws_row_bytes > available:
                continue
        for level1 in range(dim1.n_levels - 1, -1, -1):
            n2_rows = estimate_pair_coarse_rows(schema, 1, level1, total_rows)
            if n2_rows * ws_row_bytes > available:
                continue
            pairs = _pair_counter(schema, level0, level1).fold(base_pairs)
            max_pair = int(pairs[:, 2].max()) if len(pairs) else 0
            if max_pair * partition_row_bytes <= available:
                codes0 = dim0.level_maps[level0][pairs[:, 0]].tolist()
                codes1 = dim1.level_maps[level1][pairs[:, 1]].tolist()
                return PairPartitionDecision(
                    level0=level0,
                    level1=level1,
                    max_pair_rows=max_pair,
                    estimated_n1_rows=n1_rows,
                    estimated_n2_rows=n2_rows,
                    available_bytes=available,
                    pair_rows=dict(
                        zip(zip(codes0, codes1), pairs[:, 2].tolist())
                    ),
                )
    return None


def _pair_counter(schema: CubeSchema, level0: int, level1: int) -> GroupFold:
    """Rows ``(A_0 code, B_0 code, row count)`` grouped per (A_level0,
    B_level1) member pair: each group under its first contributor's base
    codes, groups in first-appearance order (the order
    :func:`_first_fit` breaks ties in)."""
    key_of = rollup_key(schema.dimensions[:2], (level0, level1))
    return GroupFold(key_of, 3, (np.add,))


def _exact_pair_counts(heap, schema: CubeSchema) -> np.ndarray:
    """One counting scan: the distinct base pairs of the two leading
    dimensions with their row counts."""
    counter = _pair_counter(schema, 0, 0)
    for batch in heap.scan_batches():
        rows = np.ones((batch.length, 3), dtype=np.int64)
        rows[:, 0] = batch.arrays[0]
        rows[:, 1] = batch.arrays[1]
        counter.add(rows)
    return counter.result()


def select_partition_pair_local(
    engine: Engine,
    partition: str,
    schema: CubeSchema,
    parent_level: int,
) -> PairPartitionDecision:
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
    decision = _search_pair_decision(
        engine.relation(partition),
        schema,
        available_bytes_of(engine, "select_partition_pair_local"),
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
