"""Interprocedural rules R12 and R13 (the *cubeflow* layer).

Unlike the per-file rules, these reason over the whole analyzed file set
at once: each computes its project-wide findings a single time (memoized
on ``ProjectGraph.cache``) and then yields the ones belonging to the
module under report.  They are therefore exact under ``analyze_paths``
over a directory and soundly degraded (single-module graph) under
``analyze_file`` on one file.

* **R12** — parallel-safety audit: ``global`` rebinds anywhere, and
  unsynchronized mutation of module-level mutable state by any function
  reachable from the parallel entry points: the build-task interpreters
  (``execute_task`` — which the driver and every helper process run —
  and the helper loop ``_worker_main``) and the serving layer's
  per-connection and per-request entries ``serve_connection`` and
  ``dispatch_request``, which the HTTP front's pool threads run
  concurrently over shared caches.  Mutation under a
  module-level ``threading.Lock`` is the sanctioned idiom.
* **R13** — fault-site coverage: every durable-primitive call reachable
  from the build entry points must execute under at least one registered
  ``FaultInjector`` site (a ``maybe_fire``/``fire`` call in the function
  or on every caller path), with site families cross-checked against the
  ``SITE_FAMILIES`` registry in ``faults/injector.py``.

Each finding carries the call path ``cubelint --explain`` prints.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from dataclasses import dataclass

from repro.lint.graph import FunctionInfo, ProjectGraph
from repro.lint.rules import ModuleContext, Rule, Violation, dotted_name

#: The audited durability primitives every on-disk mutation flows through.
DURABLE_PRIMITIVES = frozenset(
    {
        "atomic_write_bytes",
        "atomic_write_text",
        "atomic_write_chunks",
        "append_bytes",
        "truncate_file",
        "publish_file",
        "remove_file",
    }
)

#: Call names that mark a fault-injection point, with the index of the
#: argument that carries the site string.
_FIRE_CALLS = {"maybe_fire": 1, "fire": 0, "_fire_retrying": 0}

#: Parallel entry points whose transitive callees R12/R13 audit.
#: ``execute_task`` is the task interpreter every process of a build
#: runs through ``run_task`` (the driver inline, ``_worker_main`` in
#: helper processes, forked or spawned); ``process_partition`` is the
#: entry the lint fixtures define, nothing under ``src/``;
#: ``dispatch_request`` is the slicer server's per-request entry — many
#: HTTP threads run it concurrently over one shared planner, so every
#: module-state mutation it can reach needs a lock; ``serve_connection``
#: is the per-connection entry of the HTTP front's worker pool, which
#: reads, parses and answers around that call on the same threads.
R12_ENTRY_SUFFIXES = (
    "process_partition",
    "execute_task",
    "_worker_main",
    "dispatch_request",
    "serve_connection",
)
R13_ENTRY_SUFFIXES = R12_ENTRY_SUFFIXES + (
    "DurableCubeBuild.build",
    "DurableCubeBuild.resume",
    # Ingest forward paths.  ``AppendLog.open`` / ``StreamingIngestor``
    # bootstrap-and-recover are deliberately absent: their extra work is
    # crash *repair*, which the harness always runs fault-free (one
    # injected fault per run), so its primitives carry no sites.
    "AppendLog.append",
    "AppendLog.seal",
    "AppendLog.truncate_behind",
    "StreamingIngestor.append",
    "StreamingIngestor.apply_ready",
    "StreamingIngestor.checkpoint",
    "StreamingIngestor.compact",
)

_LOCK_CONSTRUCTORS = frozenset({"Lock", "RLock"})


@dataclass(frozen=True)
class FlowViolation:
    """One interprocedural finding, attributed to a concrete call site."""

    path: str
    line: int
    col: int
    message: str
    trace: tuple[str, ...] = ()


def project_graph(ctx: ModuleContext) -> ProjectGraph:
    """The shared graph, or a single-module one for isolated analysis."""
    if ctx.graph is not None:
        return ctx.graph
    graph = ProjectGraph.from_contexts([ctx])
    ctx.graph = graph
    return graph


def _fn_where(graph: ProjectGraph, qname: str) -> str:
    fn = graph.functions[qname]
    return f"{fn.display} ({fn.path}:{fn.node.lineno})"


def _entry_trace(graph: ProjectGraph, entries: list[str], qname: str) -> tuple[str, ...]:
    for entry in entries:
        path = graph.call_path(entry, qname)
        if path:
            return tuple(
                ("entry " if i == 0 else "calls ") + _fn_where(graph, q)
                for i, q in enumerate(path)
            )
    return ()


class _FlowRule(Rule):
    """Base: memoize a project-wide pass, yield per-module findings."""

    cache_key: str = ""

    def compute(self, graph: ProjectGraph) -> list[FlowViolation]:
        raise NotImplementedError

    def check(self, ctx: ModuleContext) -> Iterator[Violation]:
        graph = project_graph(ctx)
        if self.cache_key not in graph.cache:
            graph.cache[self.cache_key] = self.compute(graph)
        for finding in graph.cache[self.cache_key]:
            if finding.path == ctx.path:
                yield Violation(
                    self.rule_id,
                    finding.path,
                    finding.line,
                    finding.col,
                    finding.message,
                    trace=finding.trace,
                )


class ParallelSafetyAudit(_FlowRule):
    """R12: shared-state hazards for the coming partition worker pool."""

    rule_id = "R12"
    title = "shared mutable state reachable from the partition build entry points"
    hint = (
        "pass state explicitly or use contextvars.ContextVar; module-level "
        "caches mutated on the build path need a module-level "
        "threading.Lock guard"
    )
    cache_key = "cubeflow.r12"

    def compute(self, graph: ProjectGraph) -> list[FlowViolation]:
        findings: list[FlowViolation] = []
        entries = sorted(
            {q for suffix in R12_ENTRY_SUFFIXES for q in graph.find(suffix)}
        )
        reachable = graph.reachable(entries) if entries else set()
        for fn in graph.functions.values():
            locked = self._locked_spans(graph, fn)
            for mutation in fn.mutations:
                line = getattr(mutation.node, "lineno", fn.node.lineno)
                col = getattr(mutation.node, "col_offset", 0)
                if mutation.kind == "global-rebind":
                    findings.append(
                        FlowViolation(
                            fn.path,
                            line,
                            col,
                            f"{mutation.detail}: per-process module state "
                            "diverges under a worker pool",
                            (f"rebinding in {_fn_where(graph, fn.qname)}",),
                        )
                    )
                elif mutation.kind == "module-mutate" and fn.qname in reachable:
                    if any(start <= line <= end for start, end in locked):
                        continue
                    findings.append(
                        FlowViolation(
                            fn.path,
                            line,
                            col,
                            f"{mutation.detail}: unsynchronized shared state "
                            "on the partition build path",
                            _entry_trace(graph, entries, fn.qname),
                        )
                    )
        findings.sort(key=lambda v: (v.path, v.line, v.col, v.message))
        return findings

    def _locked_spans(
        self, graph: ProjectGraph, fn: FunctionInfo
    ) -> list[tuple[int, int]]:
        module = graph.modules[fn.module]
        locks = {
            name
            for name, value in module.constants.items()
            if isinstance(value, ast.Call)
            and (dotted_name(value.func) or "").rpartition(".")[2]
            in _LOCK_CONSTRUCTORS
        }
        if not locks:
            return []
        spans = []
        for node in ast.walk(fn.node):
            if not isinstance(node, (ast.With, ast.AsyncWith)):
                continue
            for item in node.items:
                dotted = dotted_name(item.context_expr)
                if dotted is not None and dotted.partition(".")[0] in locks:
                    spans.append(
                        (node.lineno, getattr(node, "end_lineno", node.lineno))
                    )
                    break
        return spans


class FaultSiteCoverage(_FlowRule):
    """R13: no reachable durable write escapes the crash harness."""

    rule_id = "R13"
    title = "durable primitive reachable from the build without a fault site"
    hint = (
        "call repro.relational.durable.maybe_fire with a site from a "
        "family registered in faults.injector.SITE_FAMILIES, in the "
        "function or on every caller path, so the crash harness can "
        "enumerate the new I/O point"
    )
    cache_key = "cubeflow.r13"

    def compute(self, graph: ProjectGraph) -> list[FlowViolation]:
        findings: list[FlowViolation] = []
        registry = self._registry(graph)
        fires: dict[str, bool] = {}
        for fn in graph.functions.values():
            families = self._fired_families(graph, fn)
            fires[fn.qname] = families is not None
            for family, node in families or []:
                if family is not None and registry and family not in registry:
                    findings.append(
                        FlowViolation(
                            fn.path,
                            node.lineno,
                            node.col_offset,
                            f"fault-site family `{family}` is not registered "
                            "in SITE_FAMILIES",
                            (f"fired in {_fn_where(graph, fn.qname)}",),
                        )
                    )

        entries = sorted(
            {q for suffix in R13_ENTRY_SUFFIXES for q in graph.find(suffix)}
        )
        reachable = graph.reachable(entries)
        covered = {q: fires.get(q, False) for q in reachable}
        changed = True
        while changed:
            changed = False
            for qname in reachable:
                if covered[qname]:
                    continue
                callers = graph.callers.get(qname, set()) & reachable
                if callers and all(covered.get(c, False) for c in callers):
                    covered[qname] = True
                    changed = True

        for qname in sorted(reachable):
            fn = graph.functions[qname]
            if fn.name in DURABLE_PRIMITIVES or covered[qname]:
                continue
            for call in fn.calls:
                name = (call.dotted or "").rpartition(".")[2]
                if name not in DURABLE_PRIMITIVES:
                    continue
                findings.append(
                    FlowViolation(
                        fn.path,
                        call.node.lineno,
                        call.node.col_offset,
                        f"durable primitive `{name}` runs without fault-"
                        f"injection coverage in `{fn.display}` or its callers",
                        _entry_trace(graph, entries, qname),
                    )
                )
        findings.sort(key=lambda v: (v.path, v.line, v.col, v.message))
        return findings

    def _registry(self, graph: ProjectGraph) -> frozenset[str]:
        families: set[str] = set()
        for module in graph.modules.values():
            literal = module.constants.get("SITE_FAMILIES")
            if literal is None:
                continue
            for node in ast.walk(literal):
                if isinstance(node, ast.Constant) and isinstance(node.value, str):
                    families.add(node.value)
        return frozenset(families)

    def _fired_families(
        self, graph: ProjectGraph, fn: FunctionInfo
    ) -> list[tuple[str | None, ast.Call]] | None:
        """Families fired by ``fn``, or None when it fires nothing."""
        fired: list[tuple[str | None, ast.Call]] = []
        for call in fn.calls:
            dotted = call.dotted
            if dotted is None:
                continue
            name = dotted.rpartition(".")[2]
            index = _FIRE_CALLS.get(name)
            if index is None:
                continue
            if len(call.node.args) <= index:
                continue
            fired.append((self._family_of(call.node.args[index]), call.node))
        return fired or None

    @staticmethod
    def _family_of(site: ast.expr) -> str | None:
        text: str | None = None
        if isinstance(site, ast.Constant) and isinstance(site.value, str):
            text = site.value
        elif isinstance(site, ast.JoinedStr) and site.values:
            first = site.values[0]
            if isinstance(first, ast.Constant) and isinstance(first.value, str):
                text = first.value
        if text is None:
            return None
        return text.partition(":")[0] or None


FLOW_RULES: tuple[Rule, ...] = (
    ParallelSafetyAudit(),
    FaultSiteCoverage(),
)
