"""Integration tests for the interprocedural rules over the fixture corpus."""

from __future__ import annotations

import ast
from pathlib import Path

from repro.lint.analyzer import analyze_file, analyze_paths
from repro.lint.graph import ProjectGraph
from repro.lint.rules import ModuleContext, resolve_imports

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).parents[2] / "src" / "repro"


def _by_name(reports):
    return {Path(report.path).name: report for report in reports}


def test_cross_module_mutation_needs_whole_set_analysis() -> None:
    # alone, listing.py is clean: the entry point lives in writer.py
    alone = analyze_file(FIXTURES / "flowproj" / "listing.py")
    assert alone.violations == []
    together = _by_name(analyze_paths([FIXTURES / "flowproj"]))
    assert together["writer.py"].violations == []
    (violation,) = together["listing.py"].violations
    assert violation.rule_id == "R12"
    assert "_LISTED" in violation.message


def test_r12_trace_runs_entry_to_mutation() -> None:
    together = _by_name(analyze_paths([FIXTURES / "flowproj"]))
    (violation,) = together["listing.py"].violations
    assert violation.trace[0].startswith("entry process_partition")
    assert "writer.py" in violation.trace[0]
    assert violation.trace[-1].startswith("calls list_partition")


def test_r12_module_mutation_carries_entry_trace() -> None:
    report = analyze_file(FIXTURES / "core" / "r12_shared_state.py")
    (mutate,) = [v for v in report.violations if "mutates" in v.message]
    assert mutate.trace[0].startswith("entry process_partition")
    assert any("_remember" in step for step in mutate.trace)
    (rebind,) = [v for v in report.violations if "rebound" in v.message]
    assert "_MODE" in rebind.message


def test_r12_lock_guard_is_sanctioned() -> None:
    report = analyze_file(FIXTURES / "core" / "r12_locked_cache.py")
    assert report.violations == []


def test_r12_audits_the_serving_entry_point() -> None:
    # The slicer's dispatch_request is an R12 entry like the build-task
    # interpreters: an unlocked module-level memo it can reach is a
    # finding, with the trace rooted at the request entry.
    report = analyze_file(FIXTURES / "server" / "r12_request_entry.py")
    (mutate,) = [v for v in report.violations if "mutates" in v.message]
    assert mutate.rule_id == "R12"
    assert mutate.trace[0].startswith("entry dispatch_request")
    assert any("_remember" in step for step in mutate.trace)


def test_r12_reaches_the_planner_cache_path_from_dispatch() -> None:
    # Every answer endpoint takes CubePlanner.entry, so the audit of the
    # serving entry covers the result-cache reads and admissions.
    contexts = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        contexts.append(
            ModuleContext(
                str(path), frozenset(path.parts[:-1]), tree, resolve_imports(tree)
            )
        )
    graph = ProjectGraph.from_contexts(contexts)
    (entry,) = graph.find("SlicerApp.dispatch_request")
    (planner_entry,) = graph.find("CubePlanner.entry")
    reachable = graph.reachable([entry])
    for method in ("ResultCache.lookup", "ResultCache.put"):
        (qname,) = graph.find(method)
        assert qname in reachable, method
        assert planner_entry in graph.call_path(entry, qname), method


def test_r12_audits_the_connection_entry_point() -> None:
    # The HTTP front's pool threads enter through serve_connection; what
    # they touch around dispatch_request (parsing, logging, counters) is
    # audited from there.
    report = analyze_file(FIXTURES / "server" / "r12_connection_entry.py")
    (mutate,) = [v for v in report.violations if "mutates" in v.message]
    assert mutate.rule_id == "R12"
    assert mutate.trace[0].startswith("entry serve_connection")
    assert any("_tally" in step for step in mutate.trace)


def test_r13_unregistered_family_and_uncovered_primitive() -> None:
    report = analyze_file(FIXTURES / "relational" / "r13_fault_sites.py")
    messages = [v.message for v in report.violations]
    assert any(
        "sideband.flush" in message and "not registered" in message
        for message in messages
    )
    assert any(
        "_write_meta" in message and "atomic_write_text" in message
        for message in messages
    )
    # the helper that fires a registered site is covered, so its own
    # primitive call produces no finding
    assert not any("_save_manifest" in message for message in messages)


def test_flow_rules_respect_pragmas(tmp_path: Path) -> None:
    module = tmp_path / "core" / "memo.py"
    module.parent.mkdir()
    module.write_text(
        '"""Doc."""\n\n'
        "from __future__ import annotations\n\n"
        "_MEMO: dict[str, int] = {}\n\n\n"
        "def process_partition(key: str) -> int:\n"
        "    _MEMO[key] = 1  # cubelint: disable=R12\n"
        "    return 1\n"
    )
    report = analyze_file(module)
    assert report.violations == []
    assert [v.rule_id for v in report.suppressed] == ["R12"]
