"""The ``cubelint`` command line (also ``python -m repro.lint``).

Exit status: 0 when clean, 1 when any violation is not silenced by a
``# cubelint: disable=`` pragma, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter

from repro.lint.analyzer import FileReport, analyze_paths
from repro.lint.registry import ALL_RULES, RULES_BY_ID
from repro.lint.rules import Rule


def _select_rules(spec: str | None) -> list[Rule]:
    if spec is None:
        return list(ALL_RULES)
    selected: list[Rule] = []
    for raw in spec.split(","):
        rule_id = raw.strip().upper()
        if not rule_id:
            continue
        if rule_id not in RULES_BY_ID:
            print(
                f"cubelint: unknown rule id {rule_id!r} (use --list-rules)",
                file=sys.stderr,
            )
            raise SystemExit(2)
        selected.append(RULES_BY_ID[rule_id])
    if not selected:
        print("cubelint: --select named no rules", file=sys.stderr)
        raise SystemExit(2)
    return selected


def _print_rules() -> None:
    for rule in ALL_RULES:
        scope = "everywhere"
        if rule.only_in is not None:
            scope = "only in " + "/, ".join(sorted(rule.only_in)) + "/"
        elif rule.not_in:
            scope = "outside " + "/, ".join(sorted(rule.not_in)) + "/"
        print(f"{rule.rule_id}  {rule.title}  [{scope}]")
        print(f"    hint: {rule.hint}")


def _print_statistics(reports: list[FileReport]) -> None:
    active: Counter[str] = Counter()
    suppressed: Counter[str] = Counter()
    for report in reports:
        active.update(v.rule_id for v in report.violations)
        suppressed.update(v.rule_id for v in report.suppressed)
    for rule_id in sorted(set(active) | set(suppressed)):
        print(
            f"{rule_id}: {active.get(rule_id, 0)} active, "
            f"{suppressed.get(rule_id, 0)} suppressed"
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubelint",
        description="Domain-aware static analysis for the CURE reproduction.",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src/repro"], help="files or directories to lint"
    )
    parser.add_argument(
        "--select", metavar="IDS", help="comma-separated rule ids to run (e.g. R3,R8)"
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue and exit"
    )
    parser.add_argument(
        "--statistics", action="store_true", help="print per-rule totals after linting"
    )
    parser.add_argument(
        "--show-suppressed",
        action="store_true",
        help="also print violations silenced by `# cubelint: disable=` pragmas",
    )
    parser.add_argument(
        "--explain",
        action="store_true",
        help="print the interprocedural call path under each R12/R13 finding",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        _print_rules()
        return 0

    rules = _select_rules(args.select)
    reports = analyze_paths(args.paths, rules)
    if not reports:
        print(
            f"cubelint: no python files found under {', '.join(args.paths)}",
            file=sys.stderr,
        )
        return 2
    violations = [v for r in reports for v in r.violations]

    if args.show_suppressed:
        for report in reports:
            for violation in report.suppressed:
                print(f"{violation.render()} [suppressed]")

    for violation in violations:
        print(violation.render())
        if args.explain and violation.trace:
            print(violation.render_trace())
    for rule_id in sorted({v.rule_id for v in violations} & set(RULES_BY_ID)):
        print(f"{rule_id} hint: {RULES_BY_ID[rule_id].hint}")

    if args.statistics:
        _print_statistics(reports)

    n_files = len(reports)
    if violations:
        print(
            f"cubelint: {len(violations)} violation(s) in {n_files} file(s)",
            file=sys.stderr,
        )
        return 1

    n_suppressed = sum(len(r.suppressed) for r in reports)
    summary = f"cubelint: OK ({n_files} file(s)"
    if n_suppressed:
        summary += f", {n_suppressed} suppressed"
    print(summary + ")")
    return 0


if __name__ == "__main__":
    sys.exit(main())
