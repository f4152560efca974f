"""Structural check: the product is the CURE cube, not the paper's bench.

The paper's Section 7 experiments, Table 1's model and the BUC / BU-BST
baselines live in ``benchmarks/paper`` (the ``paper`` package), which
imports ``repro``; nothing under ``src/repro`` imports it back, the old
module paths are gone, and :mod:`repro.query` exports only CURE readers.
"""

from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path

import pytest

import repro
import repro.query


def _imported_modules(path: Path) -> list[str]:
    names = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names.append(node.module)
    return names


def test_src_imports_nothing_from_the_paper_bench():
    src = Path(repro.__file__).parent
    found = [
        f"{path.relative_to(src)}: {name}"
        for path in sorted(src.rglob("*.py"))
        for name in _imported_modules(path)
        if name.split(".")[0] == "paper"
    ]
    assert found == []


@pytest.mark.parametrize("module", ["repro.bench", "repro.baselines", "repro.core.analysis"])
def test_the_paper_only_modules_are_gone_from_the_package(module):
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(module)


def test_the_query_package_exports_no_baseline_reader():
    # ``answer_buc_query``, ``iceberg_over_bubst``, ``BucCube``, ``BuBstStats``
    baseline = re.compile(r"(?:^|_)bu(?:c|bst)(?:_|$)|^Bu(?:c|Bst)[A-Z]")
    assert [name for name in repro.query.__all__ if baseline.search(name)] == []
