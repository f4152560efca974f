"""Smoke tests for the experiment registry and CLI, at tiny scales.

Heavier shape assertions live in ``benchmarks/paper/``; these tests only check
that every registered experiment runs and produces well-formed tables.
"""

import pytest

from paper.experiments import (
    EXPERIMENTS,
    run_experiment,
    run_fig18,
    run_fig21_22,
    run_iceberg,
    run_plan_ablation,
    run_table1,
)
from paper.run import main as cli_main


def test_registry_covers_every_figure_and_table():
    reproduced = {entry.reproduces for entry in EXPERIMENTS.values()}
    text = " ".join(reproduced)
    for figure in range(14, 29):
        assert str(figure) in text, f"Figure {figure} has no experiment"
    assert "Table 1" in text


def test_aliases_resolve():
    assert EXPERIMENTS["fig15"] is EXPERIMENTS["fig14"]
    assert EXPERIMENTS["fig28"] is EXPERIMENTS["fig26"]


def test_unknown_experiment_raises():
    with pytest.raises(KeyError, match="unknown experiment"):
        run_experiment("fig99")


def test_table1_runs():
    (table,) = run_experiment("table1")
    assert len(table.rows) == 3


def test_fig18_tiny():
    (table,) = run_fig18(scale=1 / 2000, pool_sizes=(50, None))
    assert len(table.rows) == 2
    assert table.rows[0]["MB"] >= table.rows[1]["MB"]


def test_fig21_22_tiny():
    time_table, size_table = run_fig21_22(
        skews=(0.0, 2.0), n_dims=3, n_tuples=400
    )
    assert len(time_table.rows) == 2 * 4  # 2 skews × 4 methods
    assert all(row["MB"] > 0 for row in size_table.rows)


def test_iceberg_tiny():
    (table,) = run_iceberg(scale=1 / 2000, min_counts=(2,), n_queries=5)
    methods = {row["method"] for row in table.rows}
    assert methods == {"CURE", "BUC", "BU-BST"}


def test_plan_ablation_tiny():
    (table,) = run_plan_ablation(density=0.05, scale=1 / 1000)
    plans = {row["plan"] for row in table.rows}
    assert plans == {"P1", "P2", "P3"}


def test_cli_list(capsys):
    assert cli_main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "table1" in out
    assert "fig23" in out


def test_cli_runs_one_experiment(capsys):
    assert cli_main(["-e", "table1"]) == 0
    out = capsys.readouterr().out
    assert "Partitioning efficiency" in out
    assert "completed in" in out


def test_cli_full_flag_forwarded(monkeypatch, capsys):
    """--full reaches the fig23 runner (and only experiments that take it)."""
    captured = {}

    def fake_runner(**kwargs):
        captured.update(kwargs)
        from paper.results import ExperimentTable

        return [ExperimentTable("Figure 23", "stub", ["x"], [{"x": 1}])]

    from paper import experiments

    monkeypatch.setitem(
        experiments.EXPERIMENTS,
        "fig23",
        experiments.ExperimentEntry("fig23", "Figures 23 & 24", fake_runner),
    )
    assert cli_main(["-e", "fig23", "--full"]) == 0
    assert captured.get("full") is True
    capsys.readouterr()


def test_new_extension_experiments_registered():
    for experiment_id in ("pairs", "incremental", "slices"):
        assert experiment_id in EXPERIMENTS
