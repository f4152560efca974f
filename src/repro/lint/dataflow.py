"""Forward taint and durable-write typestate over the project call graph.

Two analyses share this module:

* :class:`TaintAnalysis` (R11) — forward propagation of *nondeterminism*
  through assignments, containers and calls.  Two taint kinds exist:
  ``order`` (set iteration, unsorted ``os.listdir``/``glob`` results —
  laundered by ``sorted``/``min``/``max``/``sum``/``len``/``any``/``all``)
  and ``value`` (unseeded ``random``, ``id()``, ``hash()`` — laundered
  only by ``len``).  Functions are summarized to a fixpoint: a summary
  records whether the return value is tainted and which parameters flow
  into a sink, so taint crosses call boundaries in both directions.
  Every violation carries the full source→sink chain for ``--explain``.

* :class:`DurableProtocolAnalysis` (R10) — per-variable typestate for
  the atomic-publish protocol.  A write-mode ``open`` starts an
  *artifact*; subsequent ``write``/``flush``/``os.fsync``/``os.replace``/
  checksum events on the same handle or path are ordered by source
  position and checked against the protocol: data must be flushed before
  it is fsynced, fsynced before it is renamed, never written after the
  rename, and never checksummed before it is durable.  Helpers that
  write/flush/fsync a handle *parameter* are summarized, so a caller
  that delegates the write but skips the fsync is still caught.

Both analyses are purely syntactic over the :class:`ProjectGraph`; no
analyzed code is ever imported.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterable

from repro.lint.graph import FunctionInfo, ModuleInfo, ProjectGraph
from repro.lint.rules import resolved_call_name

# -- shared result shape -------------------------------------------------------


@dataclass(frozen=True)
class FlowViolation:
    """One interprocedural finding, attributed to a concrete call site."""

    path: str
    line: int
    col: int
    message: str
    trace: tuple[str, ...] = ()


def _where(fn: FunctionInfo, node: ast.AST) -> str:
    return f"{fn.display} ({fn.path}:{getattr(node, 'lineno', 0)})"


# -- taint analysis (R11) ------------------------------------------------------

_RANDOM_FUNCTIONS = frozenset(
    {
        "random.random", "random.randrange", "random.randint",
        "random.shuffle", "random.choice", "random.choices",
        "random.sample", "random.uniform", "random.getrandbits",
        "random.randbytes", "random.betavariate", "random.gauss",
    }
)

_ORDER_CALLS = frozenset({"os.listdir", "os.scandir", "glob.glob", "glob.iglob"})
_ORDER_METHODS = frozenset({"glob", "rglob", "iterdir"})

#: Sinks by (resolved) trailing call-name: the audited write helpers plus
#: the partition-decision functions whose outputs shape cube bytes — the
#: selection and its search, the pass that acts on a decision, and
#: ``spill_by_key``, the one routine that turns a bin assignment into
#: partition files and coarse nodes.
SINK_FUNCTIONS = frozenset(
    {
        "atomic_write_bytes", "atomic_write_text", "atomic_write_chunks",
        "publish_file",
        "select_partition_level", "search_partition_levels",
        "partition_relation", "repartition_partition",
        "spill_by_key",
    }
)
#: Sinks by method attribute (checked regardless of receiver type).
SINK_METHODS = frozenset(
    {
        "append_batch", "store_table",
        "write_tts", "write_flush", "add_batch",
    }
)

_ORDER_SANITIZERS = frozenset({"sorted", "min", "max", "sum", "any", "all"})


@dataclass(frozen=True)
class Taint:
    """One taint fact: a concrete source or a symbolic parameter."""

    kind: str  # "order" | "value" | "param:<i>"
    origin: str
    chain: tuple[str, ...] = ()


@dataclass(frozen=True)
class ParamSink:
    """Summary fact: parameter ``index`` flows into ``sink``."""

    index: int
    sink: str
    chain: tuple[str, ...]


@dataclass(frozen=True)
class TaintSummary:
    returns: frozenset[Taint] = frozenset()
    param_sinks: frozenset[ParamSink] = frozenset()


_EMPTY: frozenset[Taint] = frozenset()

#: Hard cap on ``--explain`` chain length: long enough for any real call
#: path, short enough that recursive cycles cannot grow chains (and
#: therefore summaries) without bound across fixpoint iterations.
_MAX_CHAIN = 12


def _extend(chain: tuple[str, ...], step: str) -> tuple[str, ...]:
    if len(chain) >= _MAX_CHAIN:
        return chain
    return chain + (step,)


def _dedupe_taints(taints: Iterable[Taint]) -> frozenset[Taint]:
    """One taint per (kind, origin), keeping the canonical shortest chain.

    Without this, mutually recursive functions keep producing the same
    fact with ever-longer chains and the summary fixpoint never settles.
    """
    best: dict[tuple[str, str], Taint] = {}
    for taint in taints:
        key = (taint.kind, taint.origin)
        kept = best.get(key)
        if kept is None or (len(taint.chain), taint.chain) < (
            len(kept.chain),
            kept.chain,
        ):
            best[key] = taint
    return frozenset(best.values())


def _dedupe_sinks(sinks: Iterable[ParamSink]) -> frozenset[ParamSink]:
    best: dict[tuple[int, str], ParamSink] = {}
    for sink in sinks:
        key = (sink.index, sink.sink)
        kept = best.get(key)
        if kept is None or (len(sink.chain), sink.chain) < (
            len(kept.chain),
            kept.chain,
        ):
            best[key] = sink
    return frozenset(best.values())


def _suffix(dotted: str, name: str) -> bool:
    return dotted == name or dotted.endswith("." + name)


class TaintAnalysis:
    """Project-wide determinism-taint propagation."""

    MAX_ITERATIONS = 8

    def __init__(self, graph: ProjectGraph) -> None:
        self.graph = graph
        self.summaries: dict[str, TaintSummary] = {}
        self.violations: list[FlowViolation] = []
        self._seen: set[tuple[str, int, int, str]] = set()

    def run(self) -> list[FlowViolation]:
        for _ in range(self.MAX_ITERATIONS):
            changed = False
            for fn in self.graph.functions.values():
                summary = self._analyze(fn, report=False)
                if summary != self.summaries.get(fn.qname):
                    self.summaries[fn.qname] = summary
                    changed = True
            if not changed:
                break
        for fn in self.graph.functions.values():
            self._analyze(fn, report=True)
        self.violations.sort(key=lambda v: (v.path, v.line, v.col, v.message))
        return self.violations

    # -- one function ----------------------------------------------------

    def _analyze(self, fn: FunctionInfo, report: bool) -> TaintSummary:
        module = self.graph.modules[fn.module]
        state = _FunctionState(self, fn, module)
        state.run(report=report)
        return TaintSummary(
            _dedupe_taints(state.returns), _dedupe_sinks(state.param_sinks)
        )

    def record(
        self, fn: FunctionInfo, node: ast.AST, message: str, trace: tuple[str, ...]
    ) -> None:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        key = (fn.path, line, col, message)
        if key in self._seen:
            return
        self._seen.add(key)
        self.violations.append(FlowViolation(fn.path, line, col, message, trace))


class _FunctionState:
    """Per-function abstract interpreter for :class:`TaintAnalysis`."""

    def __init__(
        self, analysis: TaintAnalysis, fn: FunctionInfo, module: ModuleInfo
    ) -> None:
        self.analysis = analysis
        self.fn = fn
        self.module = module
        self.env: dict[str, frozenset[Taint]] = {}
        self.returns: set[Taint] = set()
        self.param_sinks: set[ParamSink] = set()
        self.report = False
        self.targets = {id(c.node): c.targets for c in fn.calls}
        args = fn.node.args
        self.params = [a.arg for a in args.posonlyargs + args.args]
        for index, name in enumerate(self.params):
            self.env[name] = frozenset(
                {Taint(f"param:{index}", f"parameter `{name}`")}
            )

    def run(self, report: bool) -> None:
        # Two passes: the second sees loop-carried taint; only the
        # designated pass reports (the env grows monotonically, so every
        # pass-1 finding recurs in pass 2).
        self.report = False
        self._exec_body(self.fn.node.body)
        self.report = report
        self._exec_body(self.fn.node.body)

    # -- statements ------------------------------------------------------

    def _exec_body(self, body: Iterable[ast.stmt]) -> None:
        for stmt in body:
            self._exec(stmt)

    def _exec(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # nested scopes are analyzed as their own functions
        if isinstance(stmt, ast.Assign):
            taints = self._eval(stmt.value)
            for target in stmt.targets:
                self._assign(target, taints)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._assign(stmt.target, self._eval(stmt.value))
        elif isinstance(stmt, ast.AugAssign):
            taints = self._eval(stmt.value)
            if isinstance(stmt.target, ast.Name):
                self.env[stmt.target.id] = (
                    self.env.get(stmt.target.id, _EMPTY) | taints
                )
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self.returns |= self._eval(stmt.value)
        elif isinstance(stmt, ast.Expr):
            self._expr_statement(stmt.value)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._assign(stmt.target, self._eval(stmt.iter))
            self._exec_body(stmt.body)
            self._exec_body(stmt.orelse)
        elif isinstance(stmt, (ast.While, ast.If)):
            self._eval(stmt.test)
            self._exec_body(stmt.body)
            self._exec_body(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                taints = self._eval(item.context_expr)
                if item.optional_vars is not None:
                    self._assign(item.optional_vars, taints)
            self._exec_body(stmt.body)
        elif isinstance(stmt, ast.Try):
            self._exec_body(stmt.body)
            for handler in stmt.handlers:
                self._exec_body(handler.body)
            self._exec_body(stmt.orelse)
            self._exec_body(stmt.finalbody)
        elif isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self._eval(stmt.exc)
        elif isinstance(stmt, ast.Assert):
            self._eval(stmt.test)

    def _expr_statement(self, value: ast.expr) -> None:
        # ``x.sort()`` launders order taint in place.
        if (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Attribute)
            and value.func.attr == "sort"
            and isinstance(value.func.value, ast.Name)
        ):
            name = value.func.value.id
            self.env[name] = frozenset(
                t for t in self.env.get(name, _EMPTY) if t.kind == "value"
            )
            return
        self._eval(value)

    def _assign(self, target: ast.expr, taints: frozenset[Taint]) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = _dedupe_taints(taints)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._assign(element, taints)
        elif isinstance(target, ast.Starred):
            self._assign(target.value, taints)
        # attribute / subscript stores: not tracked per-object

    # -- expressions -----------------------------------------------------

    def _eval(self, node: ast.expr | None) -> frozenset[Taint]:
        if node is None:
            return _EMPTY
        if isinstance(node, ast.Name):
            return self.env.get(node.id, _EMPTY)
        if isinstance(node, ast.Attribute):
            return self._eval(node.value)
        if isinstance(node, ast.Subscript):
            # ``container[tainted_key]`` reads a deterministic container:
            # only the container's own taint flows through.
            self._eval(node.slice)
            return self._eval(node.value)
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, ast.Compare):
            for sub in [node.left, *node.comparators]:
                self._eval(sub)
            return _EMPTY  # membership/equality yields a plain bool
        if isinstance(node, (ast.Set,)):
            taints = self._union(node.elts)
            return taints | {
                Taint(
                    "order",
                    "set literal (iteration order)",
                    (_where(self.fn, node) + ": set literal built here",),
                )
            }
        if isinstance(node, ast.SetComp):
            self._eval(node.elt)
            taints = self._union([g.iter for g in node.generators])
            return taints | {
                Taint(
                    "order",
                    "set comprehension (iteration order)",
                    (_where(self.fn, node) + ": set comprehension built here",),
                )
            }
        if isinstance(node, (ast.ListComp, ast.GeneratorExp)):
            self._eval(node.elt)
            return self._union(g.iter for g in node.generators)
        if isinstance(node, ast.DictComp):
            self._eval(node.key)
            self._eval(node.value)
            return self._union(g.iter for g in node.generators)
        if isinstance(node, (ast.Tuple, ast.List)):
            return self._union(node.elts)
        if isinstance(node, ast.Dict):
            keys = [k for k in node.keys if k is not None]
            return self._union(keys) | self._union(node.values)
        if isinstance(node, ast.BoolOp):
            return self._union(node.values)
        if isinstance(node, ast.BinOp):
            return self._eval(node.left) | self._eval(node.right)
        if isinstance(node, ast.UnaryOp):
            return self._eval(node.operand)
        if isinstance(node, ast.IfExp):
            self._eval(node.test)
            return self._eval(node.body) | self._eval(node.orelse)
        if isinstance(node, ast.JoinedStr):
            return self._union(node.values)
        if isinstance(node, ast.FormattedValue):
            return self._eval(node.value)
        if isinstance(node, (ast.Starred, ast.Await, ast.NamedExpr)):
            inner = self._eval(node.value)
            if isinstance(node, ast.NamedExpr) and isinstance(
                node.target, ast.Name
            ):
                self.env[node.target.id] = inner
            return inner
        return _EMPTY

    def _union(self, nodes: Iterable[ast.expr]) -> frozenset[Taint]:
        result: frozenset[Taint] = _EMPTY
        for node in nodes:
            result = result | self._eval(node)
        return result

    # -- calls -----------------------------------------------------------

    def _eval_call(self, call: ast.Call) -> frozenset[Taint]:
        fn = self.fn
        arg_taints = [self._eval(arg) for arg in call.args]
        keyword_taints = self._union(kw.value for kw in call.keywords)
        resolved = resolved_call_name(call.func, self.module.imports)
        trailing = resolved.rpartition(".")[2] if resolved else ""
        attr = call.func.attr if isinstance(call.func, ast.Attribute) else None

        source = self._source_taint(call, resolved)
        if source is not None:
            return frozenset({source}) | self._union_all(arg_taints)

        if resolved == "len":
            return _EMPTY
        if resolved == "sorted" or (resolved in _ORDER_SANITIZERS):
            combined = self._union_all(arg_taints) | keyword_taints
            return frozenset(t for t in combined if t.kind == "value")

        incoming = (
            self._union_all(arg_taints)
            | keyword_taints
            | (
                self._eval(call.func.value)
                if isinstance(call.func, ast.Attribute)
                else _EMPTY
            )
        )

        sink = None
        if trailing in SINK_FUNCTIONS:
            sink = trailing
        elif attr in SINK_METHODS:
            sink = attr
        if sink is not None:
            self._check_sink(call, sink, arg_taints, keyword_taints)

        summarized = self._apply_summaries(call, arg_taints)
        if summarized is not None:
            return summarized
        return incoming

    def _source_taint(self, call: ast.Call, resolved: str | None) -> Taint | None:
        fn = self.fn
        here = _where(fn, call)
        if resolved is not None:
            if any(_suffix(resolved, name) for name in _RANDOM_FUNCTIONS):
                return Taint(
                    "value",
                    f"unseeded `{resolved}` call",
                    (f"{here}: unseeded `{resolved}()`",),
                )
            if _suffix(resolved, "random.Random") and not call.args:
                return Taint(
                    "value",
                    "unseeded `random.Random()`",
                    (f"{here}: unseeded `random.Random()`",),
                )
            if resolved.rpartition(".")[2] == "default_rng" and not call.args:
                return Taint(
                    "value",
                    "unseeded `default_rng()`",
                    (f"{here}: unseeded `default_rng()`",),
                )
            if resolved in ("id", "hash"):
                return Taint(
                    "value",
                    f"`{resolved}()` (interpreter-dependent)",
                    (f"{here}: `{resolved}()` value",),
                )
            if any(_suffix(resolved, name) for name in _ORDER_CALLS):
                return Taint(
                    "order",
                    f"unsorted `{resolved}` listing",
                    (f"{here}: unsorted `{resolved}()`",),
                )
            if resolved in ("set", "frozenset"):
                return Taint(
                    "order",
                    f"`{resolved}(...)` (iteration order)",
                    (f"{here}: `{resolved}(...)` built here",),
                )
        if (
            isinstance(call.func, ast.Attribute)
            and call.func.attr in _ORDER_METHODS
        ):
            return Taint(
                "order",
                f"unsorted `.{call.func.attr}()` listing",
                (f"{here}: unsorted `.{call.func.attr}()`",),
            )
        return None

    def _union_all(self, taint_sets: list[frozenset[Taint]]) -> frozenset[Taint]:
        result: frozenset[Taint] = _EMPTY
        for taints in taint_sets:
            result = result | taints
        return result

    def _check_sink(
        self,
        call: ast.Call,
        sink: str,
        arg_taints: list[frozenset[Taint]],
        keyword_taints: frozenset[Taint],
    ) -> None:
        here = _where(self.fn, call)
        step = f"{here}: flows into sink `{sink}(...)`"
        for taints in [*arg_taints, keyword_taints]:
            for taint in taints:
                if taint.kind in ("order", "value"):
                    if self.report:
                        self.analysis.record(
                            self.fn,
                            call,
                            f"nondeterministic input ({taint.origin}) "
                            f"reaches sink `{sink}`",
                            _extend(taint.chain, step),
                        )
                elif taint.kind.startswith("param:"):
                    self.param_sinks.add(
                        ParamSink(int(taint.kind.split(":")[1]), sink, (step,))
                    )

    def _apply_summaries(
        self, call: ast.Call, arg_taints: list[frozenset[Taint]]
    ) -> frozenset[Taint] | None:
        targets = self.targets.get(id(call), ())
        applied = False
        result: set[Taint] = set()
        for qname in targets:
            summary = self.analysis.summaries.get(qname)
            callee = self.analysis.graph.functions.get(qname)
            if summary is None or callee is None:
                continue
            applied = True
            offset = (
                1
                if callee.class_name is not None
                and isinstance(call.func, ast.Attribute)
                else 0
            )
            here = _where(self.fn, call)
            for taint in summary.returns:
                if taint.kind in ("order", "value"):
                    result.add(
                        Taint(
                            taint.kind,
                            taint.origin,
                            _extend(
                                taint.chain,
                                f"{here}: returned by `{callee.display}()`",
                            ),
                        )
                    )
                elif taint.kind.startswith("param:"):
                    position = int(taint.kind.split(":")[1]) - offset
                    if 0 <= position < len(arg_taints):
                        for passed in arg_taints[position]:
                            result.add(
                                passed
                                if passed.kind.startswith("param:")
                                else Taint(
                                    passed.kind,
                                    passed.origin,
                                    _extend(
                                        passed.chain,
                                        f"{here}: through "
                                        f"`{callee.display}()`",
                                    ),
                                )
                            )
            for param_sink in summary.param_sinks:
                position = param_sink.index - offset
                if not 0 <= position < len(arg_taints):
                    continue
                step = f"{here}: passed into `{callee.display}()`"
                for passed in arg_taints[position]:
                    if passed.kind in ("order", "value"):
                        if self.report:
                            self.analysis.record(
                                self.fn,
                                call,
                                f"nondeterministic input ({passed.origin}) "
                                f"reaches sink `{param_sink.sink}` via "
                                f"`{callee.display}`",
                                (passed.chain + (step,) + param_sink.chain)[
                                    : _MAX_CHAIN + 4
                                ],
                            )
                    elif passed.kind.startswith("param:"):
                        self.param_sinks.add(
                            ParamSink(
                                int(passed.kind.split(":")[1]),
                                param_sink.sink,
                                ((step,) + param_sink.chain)[:_MAX_CHAIN],
                            )
                        )
        return frozenset(_dedupe_taints(result)) if applied else None


# -- durable-write typestate (R10) ---------------------------------------------

_WRITE_MODE_CHARS = frozenset("wax+")
_EVENT_ORDER = {"write": 0, "flush": 1, "fsync": 2}


@dataclass
class _Artifact:
    handle: str | None
    path_text: str | None
    open_node: ast.Call
    events: list[tuple[tuple[int, int, int], str, ast.AST]]
    final_text: str | None = None

    def add(self, node: ast.AST, kind: str, sub: int = 0) -> None:
        pos = (getattr(node, "lineno", 0), getattr(node, "col_offset", 0), sub)
        self.events.append((pos, kind, node))


class DurableProtocolAnalysis:
    """Typestate checks for the tmp-write → fsync → rename protocol."""

    MAX_ITERATIONS = 4

    def __init__(self, graph: ProjectGraph) -> None:
        self.graph = graph
        #: qname -> {param index -> effects applied to that handle param}
        self.effects: dict[str, dict[int, frozenset[str]]] = {}
        self.violations: list[FlowViolation] = []

    def run(self) -> list[FlowViolation]:
        for _ in range(self.MAX_ITERATIONS):
            changed = False
            for fn in self.graph.functions.values():
                summary = self._param_effects(fn)
                if summary != self.effects.get(fn.qname):
                    self.effects[fn.qname] = summary
                    changed = True
            if not changed:
                break
        for fn in self.graph.functions.values():
            self._check_function(fn)
        self.violations.sort(key=lambda v: (v.path, v.line, v.col, v.message))
        return self.violations

    # -- helper summaries ------------------------------------------------

    def _param_effects(self, fn: FunctionInfo) -> dict[int, frozenset[str]]:
        args = fn.node.args
        params = [a.arg for a in args.posonlyargs + args.args]
        summary: dict[int, set[str]] = {}

        def touch(index: int, kinds: Iterable[str]) -> None:
            summary.setdefault(index, set()).update(kinds)

        for call in fn.calls:
            node = call.node
            kinds = self._handle_effect_kinds(fn, node)
            if kinds:
                receiver = self._handle_of(node, kinds)
                if receiver in params:
                    touch(params.index(receiver), kinds)
                continue
            for position, arg in enumerate(node.args):
                if not (isinstance(arg, ast.Name) and arg.id in params):
                    continue
                for qname in call.targets:
                    callee = self.graph.functions.get(qname)
                    effects = self.effects.get(qname, {})
                    offset = (
                        1
                        if callee is not None
                        and callee.class_name is not None
                        and isinstance(node.func, ast.Attribute)
                        else 0
                    )
                    inherited = effects.get(position + offset)
                    if inherited:
                        touch(params.index(arg.id), inherited)
        return {index: frozenset(kinds) for index, kinds in summary.items()}

    def _handle_effect_kinds(
        self, fn: FunctionInfo, node: ast.Call
    ) -> frozenset[str]:
        func = node.func
        if isinstance(func, ast.Attribute):
            if func.attr in ("write", "writelines"):
                return frozenset({"write"})
            if func.attr == "flush":
                return frozenset({"flush"})
        module = self.graph.modules[fn.module]
        resolved = resolved_call_name(func, module.imports)
        if resolved is not None and _suffix(resolved, "os.fsync"):
            return frozenset({"fsync"})
        return frozenset()

    @staticmethod
    def _handle_of(node: ast.Call, kinds: frozenset[str]) -> str | None:
        """The handle variable a write/flush/fsync call operates on."""
        if "fsync" in kinds:
            # os.fsync(handle.fileno()) / os.fsync(fd)
            if node.args:
                for sub in ast.walk(node.args[0]):
                    if isinstance(sub, ast.Name) and sub.id != "os":
                        return sub.id
            return None
        func = node.func
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            return func.value.id
        return None

    # -- per-function typestate ------------------------------------------

    def _check_function(self, fn: FunctionInfo) -> None:
        artifacts = self._collect_artifacts(fn)
        for artifact in artifacts:
            self._check_artifact(fn, artifact)

    def _collect_artifacts(self, fn: FunctionInfo) -> list[_Artifact]:
        artifacts: list[_Artifact] = []
        by_handle: dict[str, _Artifact] = {}
        module = self.graph.modules[fn.module]

        def open_artifact(call: ast.Call, handle: str | None) -> None:
            mode = self._open_mode(call)
            if not (
                isinstance(mode, ast.Constant)
                and isinstance(mode.value, str)
                and _WRITE_MODE_CHARS & set(mode.value)
            ):
                return  # read-mode or unprovable: not a durable artifact
            path_text = ast.unparse(call.args[0]) if call.args else None
            artifact = _Artifact(handle, path_text, call, [])
            artifacts.append(artifact)
            if handle is not None:
                by_handle[handle] = artifact

        # Bind handles: ``h = open(...)`` and ``with open(...) as h:``.
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                if self._is_open(node.value, module) and len(node.targets) == 1:
                    target = node.targets[0]
                    if isinstance(target, ast.Name):
                        open_artifact(node.value, target.id)
            elif isinstance(node, ast.withitem) and isinstance(
                node.context_expr, ast.Call
            ):
                if self._is_open(node.context_expr, module):
                    var = node.optional_vars
                    handle = var.id if isinstance(var, ast.Name) else None
                    open_artifact(node.context_expr, handle)

        if not artifacts:
            return []

        for call in fn.calls:
            node = call.node
            kinds = self._handle_effect_kinds(fn, node)
            if kinds:
                receiver = self._handle_of(node, kinds)
                if receiver in by_handle:
                    for kind in kinds:
                        by_handle[receiver].add(node, kind, _EVENT_ORDER[kind])
                continue
            resolved = resolved_call_name(node.func, module.imports)
            if resolved is not None and (
                _suffix(resolved, "os.replace") or _suffix(resolved, "os.rename")
            ):
                if len(node.args) >= 2:
                    src = ast.unparse(node.args[0])
                    dst = ast.unparse(node.args[1])
                    for artifact in artifacts:
                        if artifact.path_text == src:
                            artifact.add(node, "rename")
                            artifact.final_text = dst
                continue
            if resolved is not None and "checksum" in resolved.rpartition(".")[2]:
                texts = {ast.unparse(arg) for arg in node.args}
                for artifact in artifacts:
                    if texts & {artifact.path_text, artifact.final_text}:
                        artifact.add(node, "checksum")
                continue
            # A helper that writes/flushes/fsyncs the handle it was given.
            for position, arg in enumerate(node.args):
                if not (isinstance(arg, ast.Name) and arg.id in by_handle):
                    continue
                for qname in call.targets:
                    callee = self.graph.functions.get(qname)
                    offset = (
                        1
                        if callee is not None
                        and callee.class_name is not None
                        and isinstance(node.func, ast.Attribute)
                        else 0
                    )
                    inherited = self.effects.get(qname, {}).get(
                        position + offset, frozenset()
                    )
                    for kind in inherited:
                        by_handle[arg.id].add(node, kind, _EVENT_ORDER[kind])
        return artifacts

    @staticmethod
    def _is_open(call: ast.Call, module: ModuleInfo) -> bool:
        resolved = resolved_call_name(call.func, module.imports)
        return resolved == "open" or (
            isinstance(call.func, ast.Attribute) and call.func.attr == "open"
        )

    def _open_mode(self, call: ast.Call) -> ast.expr | None:
        if len(call.args) >= 2:
            return call.args[1]
        for keyword in call.keywords:
            if keyword.arg == "mode":
                return keyword.value
        return None

    def _check_artifact(self, fn: FunctionInfo, artifact: _Artifact) -> None:
        events = sorted(artifact.events, key=lambda e: e[0])
        writes = [e for e in events if e[1] == "write"]
        if not writes:
            return
        flushes = [e[0] for e in events if e[1] == "flush"]
        fsyncs = [e[0] for e in events if e[1] == "fsync"]
        renames = [e for e in events if e[1] == "rename"]
        checksums = [e for e in events if e[1] == "checksum"]
        label = artifact.path_text or artifact.handle or "<artifact>"

        def report(node: ast.AST, message: str) -> None:
            self.violations.append(
                FlowViolation(
                    fn.path,
                    getattr(node, "lineno", 0),
                    getattr(node, "col_offset", 0),
                    message,
                    (f"artifact `{label}` opened at {_where(fn, artifact.open_node)}",),
                )
            )

        first_rename = renames[0][0] if renames else None
        if first_rename is not None:
            late = [w for (w, _, node) in writes if w > first_rename]
            for pos in late:
                node = next(n for (p, _, n) in writes if p == pos)
                report(
                    node,
                    f"write to `{label}` after it was renamed into place",
                )
            staged = [w for (w, _, _n) in writes if w < first_rename]
            last_write = max(staged) if staged else None
            if last_write is not None and not any(
                last_write < f < first_rename for f in fsyncs
            ):
                report(
                    renames[0][2],
                    f"`{label}` renamed into place without an fsync after "
                    "its last write",
                )
        else:
            last_write = max(w for (w, _, _n) in writes)
            if not any(f > last_write for f in fsyncs):
                report(
                    artifact.open_node,
                    f"durable write to `{label}` is never fsynced",
                )
        # flush-before-fsync: the durability fsync must see flushed data.
        all_writes = [w for (w, _, _n) in writes]
        if all_writes and fsyncs:
            reference = max(w for w in all_writes)
            durable = [f for f in fsyncs if f > reference]
            if durable and not any(
                reference < fl < durable[0] for fl in flushes
            ):
                node = next(n for (p, k, n) in events if p == durable[0])
                report(
                    node,
                    f"fsync of `{label}` without flushing buffered writes "
                    "first",
                )
        # checksum-before-durability: fingerprinting unsynced bytes.
        if checksums and all_writes:
            reference = max(all_writes)
            durable = [f for f in fsyncs if f > reference]
            boundary = durable[0] if durable else None
            for pos, _kind, node in checksums:
                if pos > reference and (boundary is None or pos < boundary):
                    report(
                        node,
                        f"checksum of `{label}` computed before the bytes "
                        "are fsynced",
                    )
