"""``tools/check_floor.py``: the nightly floors' inequality checker."""

from __future__ import annotations

import importlib.util
import io
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[2] / "tools" / "check_floor.py"


def load_checker():
    spec = importlib.util.spec_from_file_location("check_floor", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(monkeypatch, floors, metrics: dict, correct: bool = True) -> int:
    """Exit status of the checker on one floor (a string) or several."""
    result = {
        "correct": correct,
        "failed": 0 if correct else 1,
        "metrics": {name: {"value": value} for name, value in metrics.items()},
    }
    stdout = "some progress line\n" + json.dumps(result) + "\n"
    monkeypatch.setattr("sys.stdin", io.StringIO(stdout))
    floors = [floors] if isinstance(floors, str) else list(floors)
    return load_checker().main(["check_floor.py", *floors])


METRICS = {"datasets.load_csv_s": 0.03, "core.build_s": 0.1, "x": 0.05}


@pytest.mark.parametrize(
    "floor, status",
    [
        ("datasets.load_csv_s < core.build_s", 0),
        ("3 * datasets.load_csv_s < core.build_s", 0),
        ("4 * datasets.load_csv_s < core.build_s", 1),
        ("3*datasets.load_csv_s + x < 2 * core.build_s", 0),
        ("datasets.load_csv_s + 2 * x < core.build_s", 1),
    ],
)
def test_integer_coefficients_scale_their_term(monkeypatch, floor, status):
    assert run(monkeypatch, floor, METRICS) == status


def test_an_incorrect_run_or_a_zero_side_fails(monkeypatch):
    floor = "datasets.load_csv_s < core.build_s"
    assert run(monkeypatch, floor, METRICS, correct=False) == 1
    assert run(monkeypatch, floor, {**METRICS, "datasets.load_csv_s": 0.0}) == 1


def test_usage_error_exits_2(monkeypatch):
    assert run(monkeypatch, "a < b < c", METRICS) == 2


def test_several_floors_check_one_run_and_fail_if_any_fails(monkeypatch):
    holds, fails = "3 * datasets.load_csv_s < core.build_s", "x < datasets.load_csv_s"
    assert run(monkeypatch, [holds, "x < core.build_s"], METRICS) == 0
    assert run(monkeypatch, [holds, fails], METRICS) == 1
    assert run(monkeypatch, [fails, holds], METRICS) == 1
    assert run(monkeypatch, [holds, holds], METRICS, correct=False) == 1


def test_no_floor_or_one_malformed_floor_is_a_usage_error(monkeypatch):
    assert run(monkeypatch, [], METRICS) == 2
    assert run(monkeypatch, ["x < core.build_s", "x core.build_s"], METRICS) == 2
