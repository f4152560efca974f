"""APB-1 walkthrough: hierarchical cubes, variants, external partitioning.

Run with::

    python examples/apb_benchmark.py

Reproduces, at example scale, the paper's headline workflow on the APB-1
benchmark (Section 7): build the 168-node hierarchical cube with several
CURE variants, compare sizes, then shrink the memory budget until CURE is
forced through the external-partitioning pipeline of Section 4 — the
mechanism that let the paper build the 12 GB densest APB-1 cube on a
512 MB machine.
"""

import time

from repro import Engine, build_cube
from repro.core.variants import VARIANTS
from repro.datasets import generate_apb_dataset
from repro.query import FactCache, answer_cure_query, random_node_queries

MB = 1024 * 1024


def main() -> None:
    # Scaled-down APB-1 (see DESIGN.md §3): identical hierarchy structure,
    # 168 lattice nodes, smaller constants.
    schema, fact = generate_apb_dataset(
        density=4.0, scale=1 / 1000, member_scale=1 / 8
    )
    fact_mb = len(fact) * schema.fact_schema.row_size_bytes / MB
    print(f"APB-1 density 4 (scaled): {len(fact):,} tuples, {fact_mb:.2f} MB")
    print(f"lattice nodes: {schema.enumerator.n_nodes}")
    print()

    print("--- variants, in memory ---")
    for name in ("CURE", "CURE+", "CURE_DR", "CURE_DR+"):
        config = VARIANTS[name].with_pool(100_000)
        result, _plus = config.build(schema, table=fact)
        report = result.storage.size_report()
        print(
            f"{name:9s} build {result.stats.elapsed_seconds:6.2f}s   "
            f"cube {report.total_bytes / MB:6.2f} MB   "
            f"NT/TT/CAT = {report.n_nt}/{report.n_tt}/{report.n_cat}"
        )
    print()

    budget = int(1.5 * MB)
    print("--- external partitioning (memory budget 1.5 MB) ---")
    engine = Engine.temporary(memory_budget_bytes=budget)
    try:
        engine.store_table("fact", fact)
        started = time.perf_counter()
        result = build_cube(
            schema, engine=engine, relation="fact", pool_capacity=5_000
        )
        elapsed = time.perf_counter() - started
        level = result.decision.levels[0]
        level_name = schema.dimensions[0].level(level).name
        print(f"fact table ({fact_mb:.2f} MB) exceeds the {budget / MB:g} MB budget")
        print(
            f"partitioned on Product level L={level} "
            f"({level_name!r}) into {result.stats.partitions_created} "
            f"memory-sized sound partitions"
        )
        print(
            f"I/O: {result.stats.fact_read_passes} read passes, "
            f"{result.stats.fact_write_passes} write pass "
            "(the paper's 2 reads + 1 write)"
        )
        print(
            f"peak simulated memory: {engine.memory.peak_bytes / MB:.2f} MB "
            f"<= budget: {engine.memory.peak_bytes <= budget}"
        )
        print(f"construction: {elapsed:.2f}s")
        print()

        print("--- querying the partitioned cube ---")
        cache = FactCache(schema, heap=engine.relation("fact"), fraction=0.5)
        queries = random_node_queries(schema, 20, seed=77)
        started = time.perf_counter()
        total = sum(
            len(answer_cure_query(result.storage, cache, query))
            for query in queries
        )
        elapsed = time.perf_counter() - started
        print(
            f"20 random node queries: {total:,} tuples returned in "
            f"{elapsed:.2f}s ({1000 * elapsed / 20:.1f} ms/query, "
            "fact cache 50%)"
        )
    finally:
        engine.destroy()


if __name__ == "__main__":
    main()
