"""The example scripts must run end to end (fast ones, as smoke tests)."""

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def run_example(name: str, capsys) -> str:
    spec = importlib.util.spec_from_file_location(name, EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
        module.main()
    finally:
        sys.modules.pop(name, None)
    return capsys.readouterr().out


def test_quickstart(capsys):
    out = run_example("quickstart", capsys)
    assert "sales per Country" in out
    assert "Greece" in out
    assert "sum= 250" in out  # Athens 120+80 + Patras 50


def test_retail_hierarchies(capsys):
    out = run_example("retail_hierarchies", capsys)
    assert "lattice nodes: 80" in out
    assert "Time dashed edges from 'week': ['day']" in out
    assert "Time dashed edges from 'month': []" in out
    assert "CURE plan P3: 80 nodes, height 8" in out
    # Figure 5b: day hangs under week (the larger parent), month under year.
    plan = out.split("the Time sub-plan (paper Figure 5b, as a tree) ---\n")[1]
    assert plan.splitlines()[:5] == [
        "∅",
        "  Time.week",
        "    Time.day",
        "  Time.year",
        "    Time.month",
    ]
    assert "revenue per continent × year" in out


def test_incremental_updates(capsys):
    out = run_example("incremental_updates", capsys)
    assert "query equivalence with a rebuild: OK" in out
    assert "space drift" in out
