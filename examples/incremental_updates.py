"""Incremental cube maintenance: the paper's Section 8 future work.

Run with::

    python examples/incremental_updates.py

A warehouse receives nightly appends.  Instead of rebuilding the cube,
:func:`repro.core.incremental.apply_delta` merges the delta: trivial
tuples whose groups grew are devalued and re-placed, normal tuples merge
aggregates in place, and common-aggregate tuples are demoted to normal
tuples (the CAT part is what the paper left open — demotion is correct
but gradually un-condenses the cube, which ``drift_report`` measures).
"""

import time

import numpy as np

from repro import Table, build_cube
from repro.core.incremental import apply_delta, drift_report
from repro.datasets import generate_apb_dataset
from repro.query import FactCache, answer_cure_query, random_node_queries

MB = 1024 * 1024


def main() -> None:
    schema, full = generate_apb_dataset(density=0.2, scale=1 / 1000, seed=41)
    rows = np.column_stack(full.as_batch().arrays)
    nights = 5
    batch = len(rows) // 10
    n_base = len(rows) - nights * batch
    remaining = rows[n_base:]
    fact = Table.from_batch(full.as_batch().slice(0, n_base))
    print(f"initial load: {len(fact):,} tuples")

    started = time.perf_counter()
    result = build_cube(schema, table=fact)
    build_seconds = time.perf_counter() - started
    print(f"initial cube: {build_seconds:.2f}s, "
          f"{result.storage.size_report().total_mb:.2f} MB")
    print()

    for night in range(nights):
        delta = remaining[night * batch : (night + 1) * batch]
        started = time.perf_counter()
        report = apply_delta(result.storage, schema, fact, delta)
        elapsed = time.perf_counter() - started
        print(
            f"night {night + 1}: +{report.delta_rows} rows in {elapsed:.2f}s"
            f"  (TTs devalued {report.tts_devalued}, NTs merged "
            f"{report.nts_merged}, CATs demoted {report.cats_demoted}, "
            f"new TT/NT {report.new_tts}/{report.new_nts})"
        )

    print()
    drift = drift_report(result.storage, schema, fact)
    print(
        f"space drift after {nights} nights: updated "
        f"{drift.updated_bytes / MB:.2f} MB vs rebuilt "
        f"{drift.rebuilt_bytes / MB:.2f} MB "
        f"({(drift.overhead_ratio - 1) * 100:.1f}% overhead)"
    )

    # Sanity: the updated cube answers like a fresh one.
    cache = FactCache(schema, table=fact)
    rebuilt = build_cube(schema, table=fact)
    mismatches = 0
    for node in random_node_queries(schema, 40, seed=43):
        a = sorted(answer_cure_query(result.storage, cache, node))
        b = sorted(answer_cure_query(rebuilt.storage, cache, node))
        if a != b:
            mismatches += 1
    print(f"query equivalence with a rebuild: "
          f"{'OK' if mismatches == 0 else f'{mismatches} mismatches'} "
          "(40 random node queries)")


if __name__ == "__main__":
    main()
