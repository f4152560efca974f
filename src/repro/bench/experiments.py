"""One experiment per table/figure of the paper's evaluation (Section 7).

Every ``run_*`` function regenerates the rows/series of one or more paper
figures at a configurable scale and returns :class:`ExperimentTable`
objects.  Scales default to a few seconds per experiment on a laptop; the
``full`` flag (or larger ``scale`` arguments) moves toward the paper's
original sizes.  Absolute times are Python-specific; the *shapes* —
orderings, ratios, crossovers — are what EXPERIMENTS.md compares.

Registry: ``EXPERIMENTS`` maps experiment ids (``"table1"``, ``"fig14"``,
…) to runner entries; ``run_experiment(id)`` executes one and returns its
tables.  The CLI lives in :mod:`repro.bench.run`.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.baselines import build_bubst_cube, build_buc_cube
from repro.bench.results import ExperimentTable
from repro.core.analysis import GB, table1_rows
from repro.core.cure import build_cube
from repro.core.variants import VARIANTS
from repro.core.model import CubeSchema
from repro.datasets import (
    generate_apb_dataset,
    generate_covtype_like,
    generate_flat_dataset,
    generate_sep85l_like,
)
from repro.lattice.plan import LevelsAsDimensionsShape
from repro.query import (
    CubePlanner,
    FactCache,
    QueryRequest,
    QueryStats,
    all_node_queries,
    answer_bubst_query,
    answer_buc_query,
    answer_cure_query,
    answer_rollup_from_bubst,
    answer_rollup_from_buc,
    bucket_queries_by_result_size,
    iceberg_over_bubst,
    iceberg_over_buc,
    iceberg_over_cure,
    random_node_queries,
    random_rollup_queries,
)
from repro.relational.engine import Engine
from repro.relational.table import Table

MB = 1024 * 1024
CURE_VARIANT_NAMES = ("CURE", "CURE+", "CURE_DR", "CURE_DR+")


def _mean_query_seconds(answer: Callable[[object], object], queries) -> float:
    started = time.perf_counter()
    for query in queries:
        answer(query)
    return (time.perf_counter() - started) / max(1, len(queries))


def _heap_backed_cache(
    engine: Engine, schema: CubeSchema, table: Table, fraction: float
) -> FactCache:
    if not engine.catalog.exists("fact"):
        engine.store_table("fact", table)
    return FactCache(
        schema, heap=engine.relation("fact"), fraction=fraction
    )


# -- Table 1 -----------------------------------------------------------------------


def run_table1() -> list[ExperimentTable]:
    """Table 1: CURE's partitioning efficiency on the SALES example."""
    table = ExperimentTable(
        "Table 1",
        "Partitioning efficiency (SALES, barcode→brand→economic_strength, "
        "|M| = 1 GB)",
        ["|R|", "L", "level", "# of Partitions", "Partition Size",
         "|A0|/|A(L+1)|", "|N|"],
    )
    for row in table1_rows():
        table.add(**{
            "|R|": f"{row.relation_bytes // GB} GB",
            "L": row.level,
            "level": row.level_name,
            "# of Partitions": row.n_partitions,
            "Partition Size": f"{row.partition_bytes // GB} GB",
            "|A0|/|A(L+1)|": row.shrink_factor,
            "|N|": _fmt_bytes(row.coarse_bytes),
        })
    return [table]


def _fmt_bytes(n: int) -> str:
    if n >= GB:
        return f"{n / GB:g} GB"
    return f"{n // 10**6} MB"


# -- Figures 14 & 15: real datasets, construction and storage ------------------------


def _real_datasets(scale: float):
    return [
        ("CovType", *generate_covtype_like(scale)),
        ("Sep85L", *generate_sep85l_like(scale)),
    ]


def run_fig14_15(
    scale: float = 1 / 80, pool_capacity: int = 200_000
) -> list[ExperimentTable]:
    """Figures 14 and 15: construction time / storage on real datasets."""
    time_table = ExperimentTable(
        "Figure 14", "Real datasets — construction time",
        ["dataset", "method", "seconds"],
        notes="simulacra of CovType/Sep85L (see DESIGN.md §3); "
        f"scale={scale:g} of the original tuple counts",
    )
    size_table = ExperimentTable(
        "Figure 15", "Real datasets — storage space",
        ["dataset", "method", "MB", "tuples"],
    )
    for name, schema, table in _real_datasets(scale):
        buc, buc_stats = build_buc_cube(schema, table)
        time_table.add(dataset=name, method="BUC", seconds=buc_stats.elapsed_seconds)
        size_table.add(
            dataset=name, method="BUC",
            MB=buc.size_report_bytes() / MB, tuples=buc.total_tuples,
        )
        bubst, bubst_stats = build_bubst_cube(schema, table)
        time_table.add(
            dataset=name, method="BU-BST", seconds=bubst_stats.elapsed_seconds
        )
        size_table.add(
            dataset=name, method="BU-BST",
            MB=bubst.size_report_bytes() / MB, tuples=bubst.total_tuples,
        )
        for variant in ("CURE", "CURE+"):
            config = VARIANTS[variant].with_pool(pool_capacity)
            # Real datasets are flat, so CURE's hierarchical machinery
            # degenerates to the flat plan, as in the paper's first
            # experiment set.
            result, _plus = config.build(schema, table=table)
            report = result.storage.size_report()
            time_table.add(
                dataset=name, method=variant,
                seconds=result.stats.elapsed_seconds,
            )
            size_table.add(
                dataset=name, method=variant,
                MB=report.total_bytes / MB,
                tuples=report.n_nt + report.n_tt + report.n_cat,
            )
    return [time_table, size_table]


# -- Figures 16 & 17: real datasets, query answering and caching ----------------------


def run_fig16_17(
    scale: float = 1 / 160,
    n_queries: int = 60,
    pool_capacity: int = 200_000,
    cache_fractions: tuple[float, ...] = (0.0, 0.25, 0.5, 0.75, 1.0),
) -> list[ExperimentTable]:
    """Figures 16 and 17: average query response time and cache effect."""
    qrt_table = ExperimentTable(
        "Figure 16", "Real datasets — average query response time",
        ["dataset", "method", "avg_ms"],
        notes=f"{n_queries} random node queries, fact cache fraction 0.5",
    )
    cache_table = ExperimentTable(
        "Figure 17", "Effect of caching on average QRT",
        ["dataset", "method", "cache_fraction", "avg_ms"],
    )
    for name, schema, table in _real_datasets(scale):
        queries = random_node_queries(schema, n_queries, seed=13, flat=True)
        engine = Engine.temporary()
        try:
            buc, _stats = build_buc_cube(schema, table)
            bubst, _stats = build_bubst_cube(schema, table)
            built = {}
            for variant in ("CURE", "CURE+"):
                config = VARIANTS[variant].with_pool(pool_capacity)
                result, _plus = config.build(schema, table=table)
                built[variant] = result.storage
            qrt_table.add(
                dataset=name, method="BUC",
                avg_ms=1000 * _mean_query_seconds(
                    lambda q: answer_buc_query(buc, q), queries
                ),
            )
            qrt_table.add(
                dataset=name, method="BU-BST",
                avg_ms=1000 * _mean_query_seconds(
                    lambda q: answer_bubst_query(bubst, q), queries
                ),
            )
            for variant, storage in built.items():
                cache = _heap_backed_cache(engine, schema, table, 0.5)
                qrt_table.add(
                    dataset=name, method=variant,
                    avg_ms=1000 * _mean_query_seconds(
                        lambda q: answer_cure_query(storage, cache, q),
                        queries,
                    ),
                )
                for fraction in cache_fractions:
                    cache = _heap_backed_cache(engine, schema, table, fraction)
                    cache_table.add(
                        dataset=name, method=variant,
                        cache_fraction=fraction,
                        avg_ms=1000 * _mean_query_seconds(
                            lambda q: answer_cure_query(storage, cache, q),
                            queries,
                        ),
                    )
        finally:
            engine.destroy()
    return [qrt_table, cache_table]


# -- Figure 18: signature pool size vs cube size --------------------------------------


def run_fig18(
    scale: float = 1 / 80,
    pool_sizes: tuple[int | None, ...] = (500, 2_000, 10_000, 50_000, None),
) -> list[ExperimentTable]:
    """Figure 18: bounded signature pools trade memory for cube size."""
    table = ExperimentTable(
        "Figure 18", "Signature pool size vs storage space (Sep85L)",
        ["pool_size", "MB", "flushes", "n_nt", "n_cat"],
        notes="pool_size -1 denotes the unbounded (idealized) pool",
    )
    schema, fact = generate_sep85l_like(scale)
    for capacity in pool_sizes:
        result, _plus = VARIANTS["CURE"].with_pool(capacity).build(
            schema, table=fact
        )
        report = result.storage.size_report()
        table.add(
            pool_size=capacity if capacity is not None else -1,
            MB=report.total_bytes / MB,
            flushes=result.pool_stats.flushes,
            n_nt=report.n_nt,
            n_cat=report.n_cat,
        )
    return [table]


# -- Figures 19 & 20: dimensionality sweep ---------------------------------------------


def run_fig19_20(
    dims: tuple[int, ...] = (4, 6, 8, 10, 12),
    n_tuples: int = 15_000,
    zipf: float = 0.8,
    buc_materialize_up_to: int = 10,
    pool_capacity: int = 200_000,
) -> list[ExperimentTable]:
    """Figures 19 and 20: effect of dimensionality (T fixed, C_i = T/i)."""
    time_table = ExperimentTable(
        "Figure 19", "Dimensionality vs construction time",
        ["D", "method", "seconds"],
        notes=f"T={n_tuples}, Z={zipf}, Ci=T/i; BUC output is counted "
        f"analytically above D={buc_materialize_up_to} (paper: BUC "
        "exceeds graph ranges)",
    )
    size_table = ExperimentTable(
        "Figure 20", "Dimensionality vs storage space",
        ["D", "method", "MB", "relations"],
    )
    for d in dims:
        schema, table = generate_flat_dataset(d, n_tuples, zipf=zipf, seed=7)
        materialize = d <= buc_materialize_up_to
        buc, buc_stats = build_buc_cube(schema, table, materialize=materialize)
        time_table.add(D=d, method="BUC", seconds=buc_stats.elapsed_seconds)
        size_table.add(
            D=d, method="BUC", MB=buc.size_report_bytes() / MB, relations=1 << d
        )
        bubst, bubst_stats = build_bubst_cube(schema, table)
        time_table.add(D=d, method="BU-BST", seconds=bubst_stats.elapsed_seconds)
        size_table.add(
            D=d, method="BU-BST", MB=bubst.size_report_bytes() / MB, relations=1
        )
        for variant in ("CURE", "CURE+"):
            config = VARIANTS[variant].with_pool(pool_capacity)
            result, _plus = config.build(schema, table=table)
            report = result.storage.size_report()
            time_table.add(
                D=d, method=variant, seconds=result.stats.elapsed_seconds
            )
            size_table.add(
                D=d, method=variant,
                MB=report.total_bytes / MB, relations=report.n_relations,
            )
    return [time_table, size_table]


# -- Figures 21 & 22: skew sweep ---------------------------------------------------------


def run_fig21_22(
    skews: tuple[float, ...] = (0.0, 0.4, 0.8, 1.2, 1.6, 2.0),
    n_dims: int = 8,
    n_tuples: int = 15_000,
    pool_capacity: int = 200_000,
) -> list[ExperimentTable]:
    """Figures 21 and 22: effect of Zipf skew (D=8, C_i = T/i)."""
    time_table = ExperimentTable(
        "Figure 21", "Skew vs construction time",
        ["Z", "method", "seconds"],
        notes=f"D={n_dims}, T={n_tuples}, Ci=T/i",
    )
    size_table = ExperimentTable(
        "Figure 22", "Skew vs storage space",
        ["Z", "method", "MB", "n_tt"],
    )
    for z in skews:
        schema, table = generate_flat_dataset(
            n_dims, n_tuples, zipf=z, seed=21
        )
        buc, buc_stats = build_buc_cube(schema, table)
        time_table.add(Z=z, method="BUC", seconds=buc_stats.elapsed_seconds)
        size_table.add(
            Z=z, method="BUC", MB=buc.size_report_bytes() / MB, n_tt=0
        )
        bubst, bubst_stats = build_bubst_cube(schema, table)
        time_table.add(Z=z, method="BU-BST", seconds=bubst_stats.elapsed_seconds)
        size_table.add(
            Z=z, method="BU-BST",
            MB=bubst.size_report_bytes() / MB, n_tt=bubst_stats.bst_written,
        )
        for variant in ("CURE", "CURE+"):
            config = VARIANTS[variant].with_pool(pool_capacity)
            result, _plus = config.build(schema, table=table)
            report = result.storage.size_report()
            time_table.add(
                Z=z, method=variant, seconds=result.stats.elapsed_seconds
            )
            size_table.add(
                Z=z, method=variant,
                MB=report.total_bytes / MB, n_tt=report.n_tt,
            )
    return [time_table, size_table]


# -- Figures 23 & 24: APB-1 construction scaling --------------------------------------------


def run_fig23_24(
    densities: tuple[float, ...] = (0.4, 4.0),
    scale: float = 1 / 1000,
    member_scale: float = 1 / 8,
    memory_budget: int = int(1.5 * MB),
    pool_capacity: int = 5_000,
    full: bool = False,
) -> list[ExperimentTable]:
    """Figures 23 and 24: APB-1 construction time / storage vs density.

    Densities whose fact table exceeds ``memory_budget`` run through the
    external-partitioning pipeline, as the paper's high densities did
    (``full=True`` appends the paper's flagship density 40).
    """
    if full and 40.0 not in densities:
        densities = densities + (40.0,)
    time_table = ExperimentTable(
        "Figure 23", "APB-1 — construction time",
        ["density", "tuples", "method", "seconds", "partitioned",
         "partitions", "fact_reads"],
        notes=f"scale={scale:g}, member_scale={member_scale:g}, "
        f"memory budget {memory_budget // MB} MB (see DESIGN.md §3)",
    )
    size_table = ExperimentTable(
        "Figure 24", "APB-1 — storage space",
        ["density", "tuples", "method", "MB", "fact_MB"],
    )
    for density in densities:
        schema, table = generate_apb_dataset(
            density=density, scale=scale, member_scale=member_scale
        )
        fact_bytes = len(table) * schema.fact_schema.row_size_bytes
        for variant in CURE_VARIANT_NAMES:
            config = VARIANTS[variant].with_pool(pool_capacity)
            engine = Engine.temporary(memory_budget_bytes=memory_budget)
            try:
                engine.store_table("fact", table)
                result, plus = config.build(
                    schema, engine=engine, relation="fact"
                )
                if config.plus and plus is not None:
                    pass  # plus time already folded into elapsed_seconds
                report = result.storage.size_report()
                time_table.add(
                    density=density, tuples=len(table), method=variant,
                    seconds=result.stats.elapsed_seconds,
                    partitioned=result.stats.partitioned,
                    partitions=result.stats.partitions_created,
                    fact_reads=result.stats.fact_read_passes,
                )
                size_table.add(
                    density=density, tuples=len(table), method=variant,
                    MB=report.total_bytes / MB, fact_MB=fact_bytes / MB,
                )
            finally:
                engine.destroy()
    return [time_table, size_table]


# -- Figure 25: APB-1 query response by result size -------------------------------------------


def run_fig25(
    density: float = 1.0,
    scale: float = 1 / 1000,
    pool_capacity: int = 200_000,
    n_buckets: int = 10,
) -> list[ExperimentTable]:
    """Figure 25: average QRT over all 168 APB node queries, bucketed by
    result size, for the four CURE variants."""
    table = ExperimentTable(
        "Figure 25", "APB-1 — average QRT by result-size bucket",
        ["bucket", "max_result_tuples"] + list(CURE_VARIANT_NAMES),
        notes=f"all 168 node queries, density {density:g} (scaled), "
        "ten equal-sized query sets ordered by result size",
    )
    schema, fact = generate_apb_dataset(density=density, scale=scale)
    queries = all_node_queries(schema)
    engine = Engine.temporary()
    try:
        storages = {}
        for variant in CURE_VARIANT_NAMES:
            result, _plus = VARIANTS[variant].with_pool(pool_capacity).build(
                schema, table=fact
            )
            storages[variant] = result.storage
        sizing_cache = _heap_backed_cache(engine, schema, fact, 1.0)
        result_sizes = [
            len(answer_cure_query(storages["CURE"], sizing_cache, query))
            for query in queries
        ]
        buckets = bucket_queries_by_result_size(
            queries, result_sizes, n_buckets
        )
        size_by_query = dict(zip(queries, result_sizes))
        for index, bucket in enumerate(buckets):
            row = {
                "bucket": index + 1,
                "max_result_tuples": max(
                    (size_by_query[q] for q in bucket), default=0
                ),
            }
            for variant in CURE_VARIANT_NAMES:
                cache = _heap_backed_cache(engine, schema, fact, 0.5)
                storage = storages[variant]
                row[variant] = 1000 * _mean_query_seconds(
                    lambda q: answer_cure_query(storage, cache, q), bucket
                )
            table.add(**row)
    finally:
        engine.destroy()
    return [table]


# -- Figures 26–28: flat vs hierarchical cubes ----------------------------------------------


def run_fig26_27_28(
    density: float = 0.4,
    scale: float = 1 / 1000,
    n_queries: int = 40,
    pool_capacity: int = 200_000,
) -> list[ExperimentTable]:
    """Figures 26–28: flat vs hierarchical cubes over APB-1 density 0.4."""
    time_table = ExperimentTable(
        "Figure 26", "Flat vs hierarchical — construction time",
        ["method", "seconds"],
        notes=f"APB-1 density {density:g} (scaled)",
    )
    size_table = ExperimentTable(
        "Figure 27", "Flat vs hierarchical — storage space",
        ["method", "MB"],
    )
    qrt_table = ExperimentTable(
        "Figure 28", "Flat vs hierarchical — average QRT",
        ["method", "avg_ms", "rows_scanned"],
        notes=f"{n_queries} random roll-up/drill-down queries (coarse "
        "granularities); flat formats re-aggregate on the fly; "
        "rows_scanned = stored rows read per query",
    )
    schema, fact = generate_apb_dataset(density=density, scale=scale)
    queries = random_rollup_queries(schema, n_queries, seed=29)

    def add_qrt(method: str, answer: Callable[..., object]) -> None:
        stats = QueryStats()
        seconds = _mean_query_seconds(lambda q: answer(q, stats), queries)
        qrt_table.add(
            method=method, avg_ms=1000 * seconds,
            rows_scanned=stats.rows_scanned / max(1, len(queries)),
        )

    engine = Engine.temporary()
    try:
        cache = _heap_backed_cache(engine, schema, fact, 1.0)

        buc, buc_stats = build_buc_cube(schema, fact)
        time_table.add(method="BUC", seconds=buc_stats.elapsed_seconds)
        size_table.add(method="BUC", MB=buc.size_report_bytes() / MB)
        add_qrt("BUC", lambda q, st: answer_rollup_from_buc(buc, q, st))
        bubst, bubst_stats = build_bubst_cube(schema, fact)
        time_table.add(method="BU-BST", seconds=bubst_stats.elapsed_seconds)
        size_table.add(method="BU-BST", MB=bubst.size_report_bytes() / MB)
        add_qrt(
            "BU-BST", lambda q, st: answer_rollup_from_bubst(bubst, q, st)
        )
        for variant in ("FCURE", "FCURE+", "CURE", "CURE+"):
            config = VARIANTS[variant].with_pool(pool_capacity)
            result, _plus = config.build(schema, table=fact)
            storage = result.storage
            report = storage.size_report()
            time_table.add(
                method=variant, seconds=result.stats.elapsed_seconds
            )
            size_table.add(method=variant, MB=report.total_bytes / MB)
            planner = CubePlanner(storage, cache, results=None)
            add_qrt(
                variant,
                lambda q, st, p=planner: p.execute(QueryRequest(q), st),
            )
    finally:
        engine.destroy()
    return [time_table, size_table, qrt_table]


# -- Section 7 (text): iceberg count queries ---------------------------------------------------


def run_iceberg(
    scale: float = 1 / 80,
    min_counts: tuple[int, ...] = (2, 10, 50),
    n_queries: int = 40,
    pool_capacity: int = 200_000,
) -> list[ExperimentTable]:
    """Iceberg count queries: CURE skips TTs; other formats filter all."""
    table = ExperimentTable(
        "Iceberg", "Count iceberg queries — average QRT",
        ["min_count", "method", "avg_ms", "avg_result"],
        notes="HAVING count(*) >= min_count over random node queries "
        "(Sep85L-like)",
    )
    schema, fact = generate_sep85l_like(scale)  # carries SUM + COUNT
    queries = random_node_queries(schema, n_queries, seed=31, flat=True)
    result, _plus = VARIANTS["CURE"].with_pool(pool_capacity).build(
        schema, table=fact
    )
    buc, _stats = build_buc_cube(schema, fact)
    bubst, _stats = build_bubst_cube(schema, fact)
    cache = FactCache(schema, table=fact)
    for min_count in min_counts:
        sizes: list[int] = []

        def cure_answer(query):
            answer = iceberg_over_cure(
                result.storage, cache, query, min_count
            )
            sizes.append(len(answer))
            return answer

        table.add(
            min_count=min_count, method="CURE",
            avg_ms=1000 * _mean_query_seconds(cure_answer, queries),
            avg_result=sum(sizes) / max(1, len(sizes)),
        )
        table.add(
            min_count=min_count, method="BUC",
            avg_ms=1000 * _mean_query_seconds(
                lambda q: iceberg_over_buc(buc, q, min_count), queries
            ),
            avg_result=sum(sizes) / max(1, len(sizes)),
        )
        table.add(
            min_count=min_count, method="BU-BST",
            avg_ms=1000 * _mean_query_seconds(
                lambda q: iceberg_over_bubst(bubst, q, min_count), queries
            ),
            avg_result=sum(sizes) / max(1, len(sizes)),
        )
    return [table]


# -- ablation: execution plan shapes P1/P2/P3 ---------------------------------------------------


def run_plan_ablation(
    density: float = 0.4,
    scale: float = 1 / 1000,
    pool_capacity: int = 200_000,
) -> list[ExperimentTable]:
    """Section 3.1's argument, measured: tall P3 vs short P2 vs flat P1."""
    table = ExperimentTable(
        "Plan ablation", "Execution plan shapes over APB-1",
        ["plan", "nodes_covered", "seconds", "keys_sorted", "sorts"],
        notes="P3 = CURE (tall, pipelined); P2 = levels-as-dimensions "
        "(short); P1 = flat base levels only (FCURE's plan)",
    )
    schema, fact = generate_apb_dataset(density=density, scale=scale)

    p3, _plus = VARIANTS["CURE"].with_pool(pool_capacity).build(
        schema, table=fact
    )
    table.add(
        plan="P3", nodes_covered=schema.enumerator.n_nodes,
        seconds=p3.stats.elapsed_seconds,
        keys_sorted=p3.stats.sort.keys_sorted,
        sorts=p3.stats.sort.comparison_sorts,
    )
    p2 = build_cube(
        schema, table=fact, pool_capacity=pool_capacity,
        shape=LevelsAsDimensionsShape(schema.lattice),
    )
    table.add(
        plan="P2", nodes_covered=schema.enumerator.n_nodes,
        seconds=p2.stats.elapsed_seconds,
        keys_sorted=p2.stats.sort.keys_sorted,
        sorts=p2.stats.sort.comparison_sorts,
    )
    p1, _plus = VARIANTS["FCURE"].with_pool(pool_capacity).build(
        schema, table=fact
    )
    table.add(
        plan="P1", nodes_covered=1 << schema.n_dimensions,
        seconds=p1.stats.elapsed_seconds,
        keys_sorted=p1.stats.sort.keys_sorted,
        sorts=p1.stats.sort.comparison_sorts,
    )
    return [table]


# -- ablation: partitioning budgets --------------------------------------------------------------


def run_partition_ablation(
    density: float = 4.0,
    scale: float = 1 / 1000,
    member_scale: float = 1 / 8,
    budgets: tuple[int, ...] = (int(1.5 * MB), 2 * MB, 64 * MB),
    pool_capacity: int = 5_000,
) -> list[ExperimentTable]:
    """External partitioning under shrinking memory budgets."""
    table = ExperimentTable(
        "Partitioning", "Memory budget vs partitioned construction",
        ["budget_MB", "partitioned", "level", "partitions", "peak_MB",
         "read_passes", "write_passes", "seconds"],
        notes=f"APB-1 density {density:g} (scaled, member_scale="
        f"{member_scale:g}); level -1 = in-memory fast path; read passes "
        "exclude the statistics scan a host engine would answer from its "
        "catalog",
    )
    schema, fact = generate_apb_dataset(
        density=density, scale=scale, member_scale=member_scale
    )
    for budget in budgets:
        engine = Engine.temporary(memory_budget_bytes=budget)
        try:
            engine.store_table("fact", fact)
            result = build_cube(
                schema, engine=engine, relation="fact",
                pool_capacity=pool_capacity,
            )
            decision = result.decision
            table.add(
                budget_MB=budget / MB,
                partitioned=result.stats.partitioned,
                level=decision.levels[0] if decision else -1,
                partitions=result.stats.partitions_created,
                peak_MB=engine.memory.peak_bytes / MB,
                read_passes=result.stats.fact_read_passes,
                write_passes=result.stats.fact_write_passes,
                seconds=result.stats.elapsed_seconds,
            )
        finally:
            engine.destroy()
    return [table]


# -- ablation: pair partitioning -------------------------------------------------------------------


def run_pair_partition_ablation(
    n_tuples: int = 6_000, budget: int = 40_000
) -> list[ExperimentTable]:
    """Section 4's omitted case: no single level works, pairs do."""
    import random

    from repro import flat_dimension, linear_dimension, make_aggregates
    from repro.core.partition_select import search_partition_levels

    table_out = ExperimentTable(
        "Pair partitioning", "Single-dimension fallback to pairs",
        ["strategy", "feasible", "level0", "level1", "partitions",
         "peak_KB", "seconds"],
        notes="dimension 0 has 4 members only — at most 4 sound "
        "single-dimension partitions, each exceeding the budget",
    )
    a = flat_dimension("A", 4)
    b = linear_dimension("B", [("B0", 40), ("B1", 8)])
    c = flat_dimension("C", 6)
    schema = CubeSchema(
        (a, b, c), make_aggregates(("sum", 0), ("count", 0)), 1
    )
    rng = random.Random(55)
    rows = np.array([
        (rng.randrange(4), rng.randrange(40), rng.randrange(6),
         rng.randrange(30))
        for _ in range(n_tuples)
    ])
    fact = Table.from_columns(schema.fact_schema, rows.T)

    engine = Engine.temporary(memory_budget_bytes=budget)
    try:
        engine.store_table("fact", fact)
        single = search_partition_levels(engine, "fact", schema, 1)
        table_out.add(
            strategy="single dimension", feasible=single is not None,
            level0=-1, level1=-1, partitions=0, peak_KB=0.0, seconds=0.0,
        )
        result = build_cube(
            schema, engine=engine, relation="fact", pool_capacity=500
        )
        level0, level1 = result.decision.levels
        table_out.add(
            strategy="dimension pair", feasible=True,
            level0=level0, level1=level1,
            partitions=result.stats.partitions_created,
            peak_KB=engine.memory.peak_bytes / 1024,
            seconds=result.stats.elapsed_seconds,
        )
    finally:
        engine.destroy()
    return [table_out]


# -- ablation: local pair re-partitioning under intra-member skew ---------------------------------


def run_skew_repartition(
    hot_fractions: tuple[float, ...] = (0.0, 0.3, 0.7, 0.9),
    n_tuples: int = 1_200,
    pool_capacity: int = 200,
    partition_allowance_rows: int = 300,
) -> list[ExperimentTable]:
    """Intra-member skew vs the adaptive re-partitioning ladder.

    The budget admits the uniform estimate (``T / |A|`` rows per
    partition) but not a hot member's actual rows.  Dimension 0 is flat,
    so a hot *base-level* member cannot be split on any finer level — the
    build must extend partitioning to (A, B) member pairs locally, the
    case this sweep isolates (``pair_repartitioned`` flips from 0 to 1 as
    the hot fraction crosses the budget).
    """
    from repro.core.signature import SignaturePool

    table_out = ExperimentTable(
        "Skew re-partitioning",
        "Hot-member skew vs local pair re-partitioning",
        ["hot_fraction", "partitions", "repartitioned", "pair_repartitioned",
         "subpartitions", "peak_KB", "seconds"],
        notes="flat A(12) x B(8), uniform selection strategy; the hot "
        "member takes `hot_fraction` of the rows "
        "(generate_flat_dataset(hot_member_fraction=…))",
    )
    for fraction in hot_fractions:
        schema, fact = generate_flat_dataset(
            2,
            n_tuples,
            zipf=0.0,
            seed=7,
            cardinalities=(12, 8),
            aggregates=(("sum", 0), ("count", 0)),
            hot_member_fraction=fraction,
        )
        budget = SignaturePool.size_bytes(pool_capacity, schema.n_aggregates)
        budget += (
            partition_allowance_rows * schema.partition_schema.row_size_bytes
        )
        engine = Engine.temporary(memory_budget_bytes=budget)
        try:
            engine.store_table("fact", fact)
            result = build_cube(
                schema,
                engine=engine,
                relation="fact",
                pool_capacity=pool_capacity,
                partition_strategy="uniform",
            )
            table_out.add(
                hot_fraction=fraction,
                partitions=result.stats.partitions_created,
                repartitioned=result.stats.repartitioned_partitions,
                pair_repartitioned=result.stats.pair_repartitioned_partitions,
                subpartitions=result.stats.subpartitions_created,
                peak_KB=engine.memory.peak_bytes / 1024,
                seconds=result.stats.elapsed_seconds,
            )
        finally:
            engine.destroy()
    return [table_out]


# -- extension: incremental maintenance vs rebuild --------------------------------------------------


def run_incremental(
    density: float = 1.0,
    scale: float = 1 / 1000,
    n_rounds: int = 4,
    batch_fraction: float = 0.01,
    pool_capacity: int = 100_000,
) -> list[ExperimentTable]:
    """Section 8 extension: appending deltas vs rebuilding from scratch."""
    import time as _time

    from repro.core.incremental import apply_delta, drift_report

    table_out = ExperimentTable(
        "Incremental", "Incremental maintenance vs rebuild (APB-1)",
        ["round", "rows_total", "update_seconds", "rebuild_seconds",
         "drift_ratio"],
        notes="each round appends a delta batch; drift_ratio = updated "
        "cube size / from-scratch rebuild size",
    )
    schema, full = generate_apb_dataset(density=density, scale=scale, seed=47)
    rows = np.column_stack(full.as_batch().arrays)
    batch = max(1, int(len(rows) * batch_fraction))
    n_base = len(rows) - n_rounds * batch
    fact = Table.from_batch(full.as_batch().slice(0, n_base))
    result = build_cube(schema, table=fact, pool_capacity=pool_capacity)
    for round_index in range(n_rounds):
        start = n_base + round_index * batch
        delta = rows[start : start + batch]
        began = _time.perf_counter()
        apply_delta(result.storage, schema, fact, delta)
        update_seconds = _time.perf_counter() - began
        began = _time.perf_counter()
        rebuilt = build_cube(
            schema, table=fact, pool_capacity=pool_capacity
        )
        rebuild_seconds = _time.perf_counter() - began
        drift = drift_report(result.storage, schema, fact)
        table_out.add(
            round=round_index + 1,
            rows_total=len(fact),
            update_seconds=update_seconds,
            rebuild_seconds=rebuild_seconds,
            drift_ratio=drift.overhead_ratio,
        )
        del rebuilt
    return [table_out]


# -- extension: pre-filtered sliced queries ------------------------------------------------------------


def run_sliced_queries(
    scale: float = 1 / 200,
    n_queries: int = 25,
    pool_capacity: int = 200_000,
) -> list[ExperimentTable]:
    """Section 5.3 extension: selections pre-filtered against the fact table."""
    import random as _random

    from repro.query import (
        DimensionSlice,
        QueryStats,
        answer_cure_query,
        answer_cure_sliced,
        slice_mask,
    )

    table_out = ExperimentTable(
        "Sliced queries", "Selective node queries: post-filter vs prefilter",
        ["selectivity", "strategy", "avg_ms", "fact_fetches"],
        notes="random node queries with a member predicate on the widest "
        "grouped dimension (CovType-like data)",
    )
    schema, fact = generate_covtype_like(scale)
    result, _plus = VARIANTS["CURE"].with_pool(pool_capacity).build(
        schema, table=fact
    )
    storage = result.storage
    cache = FactCache(schema, table=fact)

    def post_filter(node, slices, stats):
        full = answer_cure_query(storage, cache, node, stats)
        return full.filter(slice_mask(schema, node, slices, full.dims))

    def prefilter(node, slices, stats):
        return answer_cure_sliced(storage, cache, node, slices, stats)

    rng = _random.Random(61)
    flat_queries = random_node_queries(schema, n_queries, seed=59, flat=True)
    for selectivity in (0.5, 0.1, 0.02):
        jobs = []
        for node in flat_queries:
            grouping = node.grouping_dims(schema.dimensions)
            if not grouping:
                continue
            dim = max(
                grouping, key=lambda d: schema.dimensions[d].base_cardinality
            )
            cardinality = schema.dimensions[dim].base_cardinality
            k = max(1, int(cardinality * selectivity))
            members = frozenset(rng.sample(range(cardinality), k))
            jobs.append((node, [DimensionSlice(dim, 0, members)]))
        for strategy, answer in (
            ("post-filter", post_filter), ("prefilter", prefilter)
        ):
            stats = QueryStats()
            began = time.perf_counter()
            for node, slices in jobs:
                answer(node, slices, stats)
            elapsed = time.perf_counter() - began
            table_out.add(
                selectivity=selectivity,
                strategy=strategy,
                avg_ms=1000 * elapsed / max(1, len(jobs)),
                fact_fetches=stats.fact_fetches,
            )
    return [table_out]


# -- registry ------------------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentEntry:
    """One runnable experiment and the paper artifacts it regenerates."""

    id: str
    reproduces: str
    runner: Callable[..., list[ExperimentTable]]


EXPERIMENTS: dict[str, ExperimentEntry] = {
    entry.id: entry
    for entry in (
        ExperimentEntry("table1", "Table 1", run_table1),
        ExperimentEntry("fig14", "Figures 14 & 15", run_fig14_15),
        ExperimentEntry("fig16", "Figures 16 & 17", run_fig16_17),
        ExperimentEntry("fig18", "Figure 18", run_fig18),
        ExperimentEntry("fig19", "Figures 19 & 20", run_fig19_20),
        ExperimentEntry("fig21", "Figures 21 & 22", run_fig21_22),
        ExperimentEntry("fig23", "Figures 23 & 24", run_fig23_24),
        ExperimentEntry("fig25", "Figure 25", run_fig25),
        ExperimentEntry("fig26", "Figures 26, 27 & 28", run_fig26_27_28),
        ExperimentEntry("iceberg", "Section 7 (iceberg queries)", run_iceberg),
        ExperimentEntry("plans", "Section 3.1 ablation", run_plan_ablation),
        ExperimentEntry(
            "partitioning", "Section 4 ablation", run_partition_ablation
        ),
        ExperimentEntry(
            "pairs", "Section 4 (omitted pair case)",
            run_pair_partition_ablation,
        ),
        ExperimentEntry(
            "skew-repartition", "Section 4 + 6 (intra-member skew)",
            run_skew_repartition,
        ),
        ExperimentEntry(
            "incremental", "Section 8 (future work) extension",
            run_incremental,
        ),
        ExperimentEntry(
            "slices", "Section 5.3 (indexing) extension",
            run_sliced_queries,
        ),
    )
}

# Figures that share a runner are reachable by their own ids, too.
for alias, target in {
    "fig15": "fig14", "fig17": "fig16", "fig20": "fig19",
    "fig22": "fig21", "fig24": "fig23", "fig27": "fig26", "fig28": "fig26",
}.items():
    EXPERIMENTS[alias] = EXPERIMENTS[target]


def run_experiment(experiment_id: str, **kwargs) -> list[ExperimentTable]:
    """Run one experiment by id and return its tables."""
    try:
        entry = EXPERIMENTS[experiment_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; "
            f"known: {sorted(set(EXPERIMENTS))}"
        ) from None
    return entry.runner(**kwargs)
