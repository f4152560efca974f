"""Project-wide symbol table and call graph for the flow rules (R12, R13).

The per-file rules see one module at a time; the whole-program
invariants — shared-state reachability and fault-site coverage — need
to know *who calls whom* across the analyzed file set.
:class:`ProjectGraph` provides that:

* a symbol table of every module, class, function and method, keyed by a
  qualified name ``<module.dotted.path>:<Class.>name``;
* resolved call edges: plain names through each module's import table,
  ``self.method()`` to the enclosing class, attribute calls through a
  light local type inference (parameter annotations, ``x = ClassName(...)``
  constructor assignments, and known return annotations), and a
  conservative by-method-name fallback for receivers it cannot type;
* entry-point reachability (:meth:`reachable`) and shortest call paths
  (:meth:`call_path`) for ``--explain`` traces.

Everything is stdlib ``ast``; no module is ever imported.  Resolution is
*textual*, so the same machinery works for ``src/repro`` and for the
fixture corpus under ``tests/lint/fixtures/``.
"""

from __future__ import annotations

import ast
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import Any

from repro.lint.rules import ModuleContext, dotted_name

#: Attribute names too generic to resolve by name alone: a call on an
#: untyped receiver with one of these names would edge to every class
#: that happens to define it (``list.append`` vs ``HeapFile.append``).
_FALLBACK_EXCLUDED = frozenset(
    {
        "append", "add", "update", "pop", "popitem", "clear", "extend",
        "insert", "remove", "discard", "sort", "get", "setdefault",
        "items", "keys", "values", "copy", "join", "split", "strip",
        "encode", "decode", "format", "read", "readline", "seek", "tell",
        "write", "flush", "close", "open", "load", "save", "fire",
        "exists", "mkdir", "unlink", "resolve", "as_posix", "reset",
    }
)

_MUTATOR_METHODS = frozenset(
    {
        "append", "add", "update", "setdefault", "pop", "popitem",
        "clear", "extend", "insert", "remove", "discard", "sort",
    }
)

_MUTABLE_CONSTRUCTORS = frozenset(
    {"list", "dict", "set", "defaultdict", "Counter", "deque", "OrderedDict"}
)


@dataclass
class CallSite:
    """One call expression inside a function body."""

    node: ast.Call
    dotted: str | None
    targets: tuple[str, ...] = ()


@dataclass
class Mutation:
    """A shared-state hazard observed in a function body."""

    kind: str  # "global-rebind" | "module-mutate"
    name: str
    node: ast.AST
    detail: str


@dataclass
class FunctionInfo:
    """One function or method, with its resolved call sites."""

    qname: str
    name: str
    module: str
    path: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    class_name: str | None
    calls: list[CallSite] = field(default_factory=list)
    mutations: list[Mutation] = field(default_factory=list)
    global_names: set[str] = field(default_factory=set)
    local_names: set[str] = field(default_factory=set)
    var_classes: dict[str, str] = field(default_factory=dict)

    @property
    def display(self) -> str:
        """`Class.method` / `function` part of the qualified name."""
        return self.qname.split(":", 1)[1]


@dataclass
class ClassInfo:
    """A class definition and its method table."""

    name: str
    qname: str
    module: str
    methods: dict[str, str] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    """Per-module symbol table."""

    dotted: str
    path: str
    tree: ast.Module
    imports: dict[str, str]
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    mutable_globals: dict[str, int] = field(default_factory=dict)
    constants: dict[str, ast.expr] = field(default_factory=dict)


def _module_dotted(path: str) -> str:
    parts = list(path.split("/"))
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    return ".".join(part for part in parts if part)


def _suffix_match(dotted: str, suffix: str) -> bool:
    """Segment-aligned suffix match: ``a.b.c`` matches ``b.c`` but not ``bb.c``."""
    return dotted == suffix or dotted.endswith("." + suffix)


def _annotation_class_name(annotation: ast.expr | None) -> str | None:
    """Best-effort class name from a parameter/return annotation."""
    if annotation is None:
        return None
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        text = annotation.value.strip().strip("'\"")
        return text.split("|")[0].strip() or None
    if isinstance(annotation, ast.Name):
        return annotation.id
    if isinstance(annotation, ast.Attribute):
        return annotation.attr
    if isinstance(annotation, ast.BinOp) and isinstance(annotation.op, ast.BitOr):
        return _annotation_class_name(annotation.left)
    return None


def _bound_names(target: ast.expr) -> Iterator[str]:
    """Names an assignment target *binds* (subscript/attribute bases are
    mutated, not bound — ``cache[k] = v`` does not make ``cache`` local)."""
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _bound_names(element)
    elif isinstance(target, ast.Starred):
        yield from _bound_names(target.value)


def _is_mutable_literal(value: ast.expr) -> bool:
    if isinstance(
        value,
        (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp),
    ):
        return True
    if isinstance(value, ast.Call):
        name = dotted_name(value.func)
        return (
            name is not None
            and name.rpartition(".")[2] in _MUTABLE_CONSTRUCTORS
        )
    return False


class ProjectGraph:
    """Symbol table + call graph over one analyzed file set."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        self.functions: dict[str, FunctionInfo] = {}
        self.func_by_name: dict[str, list[str]] = {}
        self.method_by_name: dict[str, list[str]] = {}
        self.class_by_name: dict[str, list[ClassInfo]] = {}
        self.callers: dict[str, set[str]] = {}
        #: Scratch space for rule-level analyses computed once per run.
        self.cache: dict[str, Any] = {}

    # -- construction --------------------------------------------------------

    @classmethod
    def from_contexts(cls, contexts: list[ModuleContext]) -> "ProjectGraph":
        graph = cls()
        for ctx in contexts:
            graph._add_module(ctx)
        for module in graph.modules.values():
            for function in module.functions.values():
                graph._resolve_function(module, function)
        for function in graph.functions.values():
            for call in function.calls:
                for target in call.targets:
                    graph.callers.setdefault(target, set()).add(function.qname)
        return graph

    def _add_module(self, ctx: ModuleContext) -> None:
        dotted = _module_dotted(ctx.path)
        module = ModuleInfo(dotted, ctx.path, ctx.tree, dict(ctx.imports))
        self.modules[dotted] = module

        for node in ctx.tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                value = node.value
                for target in targets:
                    if not isinstance(target, ast.Name):
                        continue
                    if value is not None:
                        module.constants[target.id] = value
                        if _is_mutable_literal(value):
                            module.mutable_globals[target.id] = node.lineno
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(module, node, class_name=None)
            elif isinstance(node, ast.ClassDef):
                info = ClassInfo(node.name, f"{dotted}:{node.name}", dotted)
                module.classes[node.name] = info
                self.class_by_name.setdefault(node.name, []).append(info)
                for child in node.body:
                    if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        function = self._add_function(
                            module, child, class_name=node.name
                        )
                        info.methods[child.name] = function.qname

    def _add_function(
        self,
        module: ModuleInfo,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        class_name: str | None,
    ) -> FunctionInfo:
        qual = f"{class_name}.{node.name}" if class_name else node.name
        info = FunctionInfo(
            qname=f"{module.dotted}:{qual}",
            name=node.name,
            module=module.dotted,
            path=module.path,
            node=node,
            class_name=class_name,
        )
        self.functions[info.qname] = info
        if class_name is None:
            self.func_by_name.setdefault(node.name, []).append(info.qname)
        else:
            self.method_by_name.setdefault(node.name, []).append(info.qname)
        module.functions[info.qname] = info
        return info

    # -- resolution ----------------------------------------------------------

    def _resolve_function(self, module: ModuleInfo, fn: FunctionInfo) -> None:
        node = fn.node
        args = node.args
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            class_name = _annotation_class_name(arg.annotation)
            if class_name is not None:
                resolved = self._resolve_class(module, class_name)
                if resolved is not None:
                    fn.var_classes[arg.arg] = resolved.qname
        if fn.class_name is not None:
            own = module.classes.get(fn.class_name)
            if own is not None:
                fn.var_classes["self"] = own.qname
                fn.var_classes["cls"] = own.qname

        # Lexical order: typing assignments before the calls that use them.
        nodes = sorted(
            ast.walk(node),
            key=lambda n: (getattr(n, "lineno", 0), getattr(n, "col_offset", 0)),
        )
        for sub in nodes:
            if isinstance(sub, ast.Global):
                fn.global_names.update(sub.names)
            elif isinstance(sub, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                self._record_assignment(module, fn, sub)
            elif isinstance(sub, ast.For) and isinstance(sub.target, ast.Name):
                fn.local_names.add(sub.target.id)
            elif isinstance(sub, ast.withitem) and isinstance(
                sub.optional_vars, ast.Name
            ):
                fn.local_names.add(sub.optional_vars.id)
            elif isinstance(sub, ast.Call):
                call = CallSite(sub, dotted_name(sub.func))
                call.targets = self._resolve_call(module, fn, call)
                fn.calls.append(call)
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            fn.local_names.add(arg.arg)

        self._collect_mutations(module, fn, nodes)

    def _record_assignment(
        self,
        module: ModuleInfo,
        fn: FunctionInfo,
        stmt: ast.Assign | ast.AnnAssign | ast.AugAssign,
    ) -> None:
        targets: list[ast.expr]
        if isinstance(stmt, ast.Assign):
            targets = list(stmt.targets)
        else:
            targets = [stmt.target]
        for target in targets:
            fn.local_names.update(_bound_names(target))
        value = stmt.value
        if value is None or len(targets) != 1:
            return
        target = targets[0]
        if not isinstance(target, ast.Name):
            return
        inferred = self._infer_class(module, fn, value)
        if inferred is not None:
            fn.var_classes[target.id] = inferred

    def _infer_class(
        self, module: ModuleInfo, fn: FunctionInfo, value: ast.expr
    ) -> str | None:
        """Class qname of an expression, if it is a known constructor or a
        call to a known function whose return annotation names a class."""
        if not isinstance(value, ast.Call):
            return None
        dotted = dotted_name(value.func)
        if dotted is None:
            return None
        name = dotted.rpartition(".")[2]
        direct = self._resolve_class(module, dotted if "." not in dotted else name)
        if direct is not None and (
            "." not in dotted or dotted.rpartition(".")[0] in module.imports
        ):
            return direct.qname
        for target in self._resolve_call(module, fn, CallSite(value, dotted)):
            callee = self.functions.get(target)
            if callee is None:
                continue
            returns = _annotation_class_name(callee.node.returns)
            if returns is None:
                continue
            callee_module = self.modules.get(callee.module)
            if callee_module is None:
                continue
            resolved = self._resolve_class(callee_module, returns)
            if resolved is not None:
                return resolved.qname
        return None

    def _resolve_class(
        self, module: ModuleInfo, class_name: str
    ) -> ClassInfo | None:
        if class_name in module.classes:
            return module.classes[class_name]
        origin = module.imports.get(class_name, class_name)
        bare = origin.rpartition(".")[2]
        candidates = self.class_by_name.get(bare, [])
        for candidate in candidates:
            owner = candidate.module + "." + candidate.name
            if _suffix_match(owner, origin) or origin == bare:
                return candidate
        return candidates[0] if len(candidates) == 1 else None

    def _resolve_call(
        self, module: ModuleInfo, fn: FunctionInfo, call: CallSite
    ) -> tuple[str, ...]:
        dotted = call.dotted
        if dotted is None:
            return ()
        head, _, rest = dotted.partition(".")
        if not rest:
            local = f"{module.dotted}:{head}"
            if local in module.functions:
                return (local,)
            origin = module.imports.get(head)
            if origin is not None:
                return self._lookup_origin(origin)
            return ()
        attr = dotted.rpartition(".")[2]
        class_qname = fn.var_classes.get(head)
        if class_qname is not None and "." not in rest:
            return self._lookup_method(class_qname, attr)
        if head in module.classes and "." not in rest:
            # ClassName.method(...) — classmethod-style call.
            return self._lookup_method(module.classes[head].qname, attr)
        origin = module.imports.get(head)
        if origin is not None:
            resolved = self._lookup_origin(f"{origin}.{rest}")
            if resolved:
                return resolved
            middle = rest.rpartition(".")[0]
            klass = self._resolve_class(module, middle or rest.partition(".")[0])
            if klass is not None and middle:
                return self._lookup_method(klass.qname, attr)
            return ()
        if attr in _FALLBACK_EXCLUDED:
            return ()
        return tuple(self.method_by_name.get(attr, ()))

    def _lookup_method(self, class_qname: str, method: str) -> tuple[str, ...]:
        for infos in self.class_by_name.values():
            for info in infos:
                if info.qname == class_qname:
                    qn = info.methods.get(method)
                    return (qn,) if qn is not None else ()
        return ()

    def _lookup_origin(self, origin: str) -> tuple[str, ...]:
        fname = origin.rpartition(".")[2]
        module_part = origin.rpartition(".")[0]
        matches = []
        for qn in self.func_by_name.get(fname, ()):  # module-level functions
            if not module_part or _suffix_match(
                self.functions[qn].module, module_part
            ):
                matches.append(qn)
        if not matches and module_part:
            # ``module.Class.method`` style origins.
            class_name = module_part.rpartition(".")[2]
            for info in self.class_by_name.get(class_name, ()):
                qn = info.methods.get(fname)
                if qn is not None:
                    matches.append(qn)
        return tuple(matches)

    def _collect_mutations(
        self, module: ModuleInfo, fn: FunctionInfo, nodes: list[ast.AST]
    ) -> None:
        assigned_globals = fn.global_names & {
            name
            for stmt in nodes
            for target in self._assign_targets(stmt)
            for name in _bound_names(target)
        }
        for stmt in nodes:
            if isinstance(stmt, ast.Global):
                for name in stmt.names:
                    if name in assigned_globals:
                        fn.mutations.append(
                            Mutation(
                                "global-rebind",
                                name,
                                stmt,
                                f"`global {name}` rebound in `{fn.display}`",
                            )
                        )
            elif isinstance(stmt, ast.Call):
                func = stmt.func
                if (
                    isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.attr in _MUTATOR_METHODS
                    and self._is_module_global(module, fn, func.value.id)
                ):
                    fn.mutations.append(
                        Mutation(
                            "module-mutate",
                            func.value.id,
                            stmt,
                            f"`{func.value.id}.{func.attr}(...)` mutates "
                            f"module-level state in `{fn.display}`",
                        )
                    )
            elif isinstance(stmt, (ast.Assign, ast.AugAssign)):
                for target in self._assign_targets(stmt):
                    if (
                        isinstance(target, ast.Subscript)
                        and isinstance(target.value, ast.Name)
                        and self._is_module_global(module, fn, target.value.id)
                    ):
                        fn.mutations.append(
                            Mutation(
                                "module-mutate",
                                target.value.id,
                                stmt,
                                f"`{target.value.id}[...] = ...` mutates "
                                f"module-level state in `{fn.display}`",
                            )
                        )

    @staticmethod
    def _assign_targets(stmt: ast.AST) -> list[ast.expr]:
        if isinstance(stmt, ast.Assign):
            return list(stmt.targets)
        if isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
            return [stmt.target]
        return []

    def _is_module_global(
        self, module: ModuleInfo, fn: FunctionInfo, name: str
    ) -> bool:
        if name not in module.mutable_globals:
            return False
        return name not in fn.local_names or name in fn.global_names

    # -- queries -------------------------------------------------------------

    def find(self, suffix: str) -> list[str]:
        """Qualified names whose function part matches ``suffix`` exactly
        (``process_partition``) or as a ``Class.method`` tail."""
        hits = []
        for qname, info in self.functions.items():
            display = info.display
            if display == suffix or display.endswith("." + suffix):
                hits.append(qname)
        return sorted(hits)

    def reachable(self, entries: list[str]) -> set[str]:
        """Transitive closure of call targets from the entry functions."""
        seen: set[str] = set()
        queue = deque(q for q in entries if q in self.functions)
        while queue:
            qname = queue.popleft()
            if qname in seen:
                continue
            seen.add(qname)
            for call in self.functions[qname].calls:
                for target in call.targets:
                    if target not in seen and target in self.functions:
                        queue.append(target)
        return seen

    def call_path(self, source: str, target: str) -> list[str]:
        """Shortest call path ``source → … → target`` (inclusive), or []."""
        if source == target:
            return [source]
        previous: dict[str, str] = {source: source}
        queue = deque([source])
        while queue:
            qname = queue.popleft()
            fn = self.functions.get(qname)
            if fn is None:
                continue
            for call in fn.calls:
                for nxt in call.targets:
                    if nxt in previous:
                        continue
                    previous[nxt] = qname
                    if nxt == target:
                        path = [nxt]
                        while path[-1] != source:
                            path.append(previous[path[-1]])
                        return list(reversed(path))
                    queue.append(nxt)
        return []
