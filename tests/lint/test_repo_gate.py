"""The gate the acceptance criteria describe, enforced from pytest.

``src/repro`` must carry no active violation, and the
invariant-critical packages (``core/``, ``lattice/``, ``relational/``,
``faults/``) must carry none suppressed either.  The tree is analyzed
once per module: the whole-set call graph is the expensive part.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from repro.lint.analyzer import FileReport, analyze_paths
from repro.lint.rules_flow import (
    DURABLE_PRIMITIVES,
    R12_ENTRY_SUFFIXES,
    R13_ENTRY_SUFFIXES,
)

REPO_ROOT = Path(__file__).resolve().parents[2]
CLEAN_PACKAGES = ("core", "lattice", "relational", "faults")


@pytest.fixture(scope="module")
def reports() -> list[FileReport]:
    return analyze_paths([REPO_ROOT / "src" / "repro"])


def test_src_is_green(reports: list[FileReport]) -> None:
    active = [v for report in reports for v in report.violations]
    assert active == [], "\n".join(v.render() for v in active)


def test_invariant_packages_are_fully_clean(reports: list[FileReport]) -> None:
    dirty = []
    for report in reports:
        parts = set(Path(report.path).parts)
        if not parts & set(CLEAN_PACKAGES):
            continue
        dirty.extend(report.violations)
        dirty.extend(report.suppressed)
    assert dirty == [], "\n".join(v.render() for v in dirty)


def test_sink_and_entry_names_are_defined_under_src() -> None:
    """A durable primitive (R13's sink) or entry point that no longer
    exists audits nothing, and says so nowhere: every listed name must be
    a function, or a ``Class.method``, that ``src/repro`` defines."""
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
    listed = DURABLE_PRIMITIVES | {*R12_ENTRY_SUFFIXES, *R13_ENTRY_SUFFIXES}
    fixture_only = {"process_partition"}
    assert sorted(listed - defined - fixture_only) == []
    assert not fixture_only & defined
