"""Section 3.1 ablation: execution plan shapes P1 / P2 / P3.

The paper's argument for the tall plan P3 is sort-cost sharing: pushing
expensive sorts toward the bottom of the plan lets finer levels re-sort
already-separated segments.  P2 re-sorts the full input from scratch for
every level of every dimension, so it sorts strictly more keys.
"""

from paper.experiments import run_plan_ablation

DENSITY = 0.4
SCALE = 1 / 1000


def test_plan_ablation(run_once):
    (table,) = run_once(run_plan_ablation, density=DENSITY, scale=SCALE)
    p3_keys = table.value("keys_sorted", plan="P3")
    p2_keys = table.value("keys_sorted", plan="P2")
    p1_keys = table.value("keys_sorted", plan="P1")
    # P2 covers the same 168 nodes but sorts more keys than P3.
    assert p2_keys > p3_keys
    # P1 covers only 2^D of the nodes, hence far less work than either.
    assert p1_keys < p3_keys
    assert table.value("nodes_covered", plan="P3") == 168
    assert table.value("nodes_covered", plan="P1") == 16
