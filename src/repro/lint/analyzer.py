"""Per-file analysis: parsing, suppression comments, rule dispatch.

Suppression syntax (mirrors the familiar lint-pragma shape):

* ``# cubelint: disable=R3`` — suppress rule R3 on this line.
* ``# cubelint: disable=R3,R8`` — suppress several rules on this line.
* ``# cubelint: disable`` — suppress every rule on this line.
* ``# cubelint: disable-file=R5`` — suppress R5 for the whole module.

Suppressed hits are kept (reported separately) so the gate can assert
that invariant-critical packages carry *zero* suppressions.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from pathlib import Path

from repro.lint.graph import ProjectGraph
from repro.lint.registry import ALL_RULES
from repro.lint.rules import (
    ModuleContext,
    Rule,
    Violation,
    resolve_imports,
)

_PRAGMA = re.compile(
    r"#\s*cubelint:\s*(?P<kind>disable(?:-file)?)\s*(?:=\s*(?P<ids>[A-Za-z0-9_,\s]+))?"
)

#: Sentinel meaning "every rule" in a suppression set.
ALL = "*"


@dataclass
class Suppressions:
    """Line- and file-level pragma state for one module."""

    by_line: dict[int, set[str]] = field(default_factory=dict)
    file_level: set[str] = field(default_factory=set)

    def covers(self, violation: Violation) -> bool:
        for scope in (self.file_level, self.by_line.get(violation.line, set())):
            if ALL in scope or violation.rule_id in scope:
                return True
        return False


def parse_suppressions(source: str) -> Suppressions:
    suppressions = Suppressions()
    if "cubelint" not in source:
        return suppressions
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        comments = [
            (token.start[0], token.string)
            for token in tokens
            if token.type == tokenize.COMMENT
        ]
    except (tokenize.TokenizeError, IndentationError, SyntaxError):
        return suppressions
    for line, text in comments:
        match = _PRAGMA.search(text)
        if match is None:
            continue
        ids_text = match.group("ids")
        ids = (
            {part.strip() for part in ids_text.split(",") if part.strip()}
            if ids_text
            else {ALL}
        )
        if match.group("kind") == "disable-file":
            suppressions.file_level |= ids
        else:
            suppressions.by_line.setdefault(line, set()).update(ids)
    return suppressions


@dataclass
class FileReport:
    """Lint outcome for one file: active hits plus suppressed ones."""

    path: str
    violations: list[Violation] = field(default_factory=list)
    suppressed: list[Violation] = field(default_factory=list)


def display_path(path: Path) -> str:
    """Path relative to the current directory when possible, POSIX style."""
    resolved = path.resolve()
    try:
        return resolved.relative_to(Path.cwd()).as_posix()
    except ValueError:
        return path.as_posix()


def _parse_module(path: Path) -> tuple[FileReport, ModuleContext | None, Suppressions]:
    """Parse one file into a report shell plus its module context."""
    shown = display_path(path)
    report = FileReport(shown)
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as error:
        report.violations.append(
            Violation("E0", shown, error.lineno or 1, error.offset or 0, "syntax error")
        )
        return report, None, Suppressions()
    parts = frozenset(Path(shown).parts[:-1])
    ctx = ModuleContext(shown, parts, tree, resolve_imports(tree))
    return report, ctx, parse_suppressions(source)


def _run_rules(
    report: FileReport,
    ctx: ModuleContext,
    suppressions: Suppressions,
    rules: Sequence[Rule],
) -> FileReport:
    for rule in rules:
        if not rule.applies_to(ctx.parts):
            continue
        for violation in rule.check(ctx):
            if suppressions.covers(violation):
                report.suppressed.append(violation)
            else:
                report.violations.append(violation)
    report.violations.sort(key=lambda v: (v.line, v.col, v.rule_id))
    report.suppressed.sort(key=lambda v: (v.line, v.col, v.rule_id))
    return report


def analyze_file(path: Path, rules: Sequence[Rule] = ALL_RULES) -> FileReport:
    """Run every applicable rule over one source file in isolation.

    Flow rules (R12, R13) see a single-module call graph here; use
    :func:`analyze_paths` to resolve calls across the whole file set.
    """
    return analyze_paths([path], rules)[0]


def iter_python_files(paths: Iterable[str | Path]) -> list[Path]:
    """Expand files and directories into a sorted, de-duplicated file list."""
    seen: set[Path] = set()
    ordered: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            candidates = sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            candidates = [path]
        else:
            candidates = []
        for candidate in candidates:
            if "__pycache__" in candidate.parts or candidate.suffix != ".py":
                continue
            if any(part.endswith(".egg-info") for part in candidate.parts):
                continue
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                ordered.append(candidate)
    return ordered


def analyze_paths(
    paths: Iterable[str | Path], rules: Sequence[Rule] = ALL_RULES
) -> list[FileReport]:
    """Analyze every ``.py`` file under ``paths`` (files or directories).

    All files are parsed first and share one
    :class:`~repro.lint.graph.ProjectGraph`, so the flow rules (R12, R13)
    resolve calls *across* the analyzed set — an entry point in one
    module reaches a mutation in another.
    """
    parsed = [_parse_module(path) for path in iter_python_files(paths)]
    contexts = [ctx for _, ctx, _ in parsed if ctx is not None]
    graph = ProjectGraph.from_contexts(contexts)
    for ctx in contexts:
        ctx.graph = graph
    return [
        _run_rules(report, ctx, suppressions, rules) if ctx is not None else report
        for report, ctx, suppressions in parsed
    ]
