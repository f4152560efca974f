"""The gate the acceptance criteria describe, enforced from pytest.

``src/repro`` must be green against the committed baseline, and the
invariant-critical packages (``core/``, ``lattice/``, ``relational/``,
``faults/``) must carry zero violations — neither baselined nor
suppressed.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.lint.analyzer import analyze_paths
from repro.lint.baseline import Baseline, check_ratchet
from repro.lint.dataflow import SINK_FUNCTIONS
from repro.lint.rules_flow import R12_ENTRY_SUFFIXES, R13_ENTRY_SUFFIXES

REPO_ROOT = Path(__file__).resolve().parents[2]
CLEAN_PACKAGES = ("core", "lattice", "relational", "faults")


def _reports() -> list:
    return analyze_paths([REPO_ROOT / "src" / "repro"])


def test_src_is_green_against_committed_baseline() -> None:
    baseline = Baseline.load(REPO_ROOT / "tools" / "lint_baseline.json")
    result = check_ratchet(_reports(), baseline)
    assert result.ok, "\n".join(v.render() for v in result.new_violations)


def test_invariant_packages_are_fully_clean() -> None:
    dirty = []
    for report in _reports():
        parts = set(Path(report.path).parts)
        if not parts & set(CLEAN_PACKAGES):
            continue
        dirty.extend(report.violations)
        dirty.extend(report.suppressed)
    assert dirty == [], "\n".join(v.render() for v in dirty)


def test_baseline_has_no_invariant_package_entries() -> None:
    baseline = Baseline.load(REPO_ROOT / "tools" / "lint_baseline.json")
    offending = [
        key
        for key in baseline.counts
        if set(Path(key.split("::", 1)[0]).parts) & set(CLEAN_PACKAGES)
    ]
    assert offending == []


def test_sink_and_entry_names_are_defined_under_src() -> None:
    """A sink or entry point that no longer exists audits nothing, and
    says so nowhere: every listed name must be a function, or a
    ``Class.method``, that ``src/repro`` defines."""
    defined = set()
    for path in (REPO_ROOT / "src" / "repro").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef):
                defined.add(node.name)
            elif isinstance(node, ast.ClassDef):
                defined.update(
                    f"{node.name}.{item.name}"
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                )
    listed = SINK_FUNCTIONS | {*R12_ENTRY_SUFFIXES, *R13_ENTRY_SUFFIXES}
    fixture_only = {"process_partition"}
    assert sorted(listed - defined - fixture_only) == []
    assert not fixture_only & defined
