"""The per-file cubelint rules (R3–R9, R11).

Each rule protects either a structural invariant of the CURE engine
(R3, R6, R7, R9, R11 — see the paper-section references in
``docs/static_analysis.md``) or a hygiene property that keeps the
codebase honest as it grows (R4, R5, R8).

Rules are scoped by package directory: a rule with ``only_in`` fires only
for files whose path contains one of those directory components, and a
rule with ``not_in`` never fires under those components.  Scoping by path
parts keeps the rules applicable both to ``src/repro/<pkg>/`` modules and
to the test fixture corpus under ``tests/lint/fixtures/<pkg>/``.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import Any


@dataclass(frozen=True)
class Violation:
    """One rule hit at a concrete source location.

    ``trace`` is optional interprocedural context (source→sink call
    chains, entry-point paths) rendered by ``cubelint --explain``.
    """

    rule_id: str
    path: str
    line: int
    col: int
    message: str
    trace: tuple[str, ...] = ()

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"

    def render_trace(self) -> str:
        return "\n".join(f"    {step}" for step in self.trace)


@dataclass
class ModuleContext:
    """Everything a rule needs to know about one parsed module.

    ``graph`` is the shared :class:`~repro.lint.graph.ProjectGraph` when
    the module was analyzed as part of a file set (set by the analyzer);
    flow rules fall back to a single-module graph when it is absent.
    """

    path: str
    parts: frozenset[str]
    tree: ast.Module
    imports: dict[str, str]
    graph: Any = field(default=None, repr=False)


def resolve_imports(tree: ast.Module) -> dict[str, str]:
    """Map local names to the dotted origin they were imported as.

    ``import numpy as np`` maps ``np -> numpy``; ``from time import time as
    t`` maps ``t -> time.time``; relative imports keep their textual module
    path (``from ..relational import heap`` maps ``heap ->
    relational.heap``), which suffix matching handles.
    """
    table: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".", 1)[0]
                table[local] = alias.name if alias.asname else alias.name.split(".", 1)[0]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            for alias in node.names:
                if alias.name == "*":
                    continue
                origin = f"{module}.{alias.name}" if module else alias.name
                table[alias.asname or alias.name] = origin
    return table


def dotted_name(node: ast.expr) -> str | None:
    """The ``a.b.c`` text of a Name/Attribute chain, or None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def resolved_call_name(node: ast.expr, imports: dict[str, str]) -> str | None:
    """Dotted name of an expression with its head resolved through imports."""
    dotted = dotted_name(node)
    if dotted is None:
        return None
    head, _, rest = dotted.partition(".")
    origin = imports.get(head, head)
    return f"{origin}.{rest}" if rest else origin


def _matches(dotted: str, banned: str) -> bool:
    return dotted == banned or dotted.endswith("." + banned)


class Rule:
    """Base class: id, fix hint, package scoping, and an AST check."""

    rule_id: str = ""
    title: str = ""
    hint: str = ""
    only_in: frozenset[str] | None = None
    not_in: frozenset[str] = frozenset()

    def applies_to(self, parts: frozenset[str]) -> bool:
        if self.not_in & parts:
            return False
        if self.only_in is not None:
            return bool(self.only_in & parts)
        return True

    def check(self, ctx: ModuleContext) -> Iterator[Violation]:
        raise NotImplementedError

    def violation(self, ctx: ModuleContext, node: ast.AST, message: str) -> Violation:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Violation(self.rule_id, ctx.path, line, col, message)


class WallClockInCore(Rule):
    """R3: no wall-clock reads in ``core/``.

    Cube construction must be deterministic and timing-agnostic; elapsed
    durations use the monotonic ``time.perf_counter``, and wall-clock
    timestamps (benchmark metadata, result stamping) live in
    ``benchmarks/``, outside the package.
    """

    rule_id = "R3"
    title = "no wall-clock calls in core/"
    hint = "use time.perf_counter for durations; wall-clock timestamps belong in benchmarks/"
    only_in = frozenset({"core"})

    _BANNED = (
        "time.time",
        "time.time_ns",
        "time.localtime",
        "time.gmtime",
        "time.ctime",
        "time.asctime",
        "time.strftime",
        "datetime.now",
        "datetime.today",
        "datetime.utcnow",
        "date.today",
    )

    def check(self, ctx: ModuleContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = resolved_call_name(node.func, ctx.imports)
            if dotted is None:
                continue
            for banned in self._BANNED:
                if _matches(dotted, banned):
                    yield self.violation(ctx, node, f"wall-clock call `{dotted}` in core/")
                    break


class MutableDefault(Rule):
    """R4: no mutable default arguments (ruff's E722 bans bare ``except:``)."""

    rule_id = "R4"
    title = "no mutable default arguments"
    hint = "default to None and create inside the function"

    _MUTABLE_CALLS = frozenset(
        {"list", "dict", "set", "bytearray", "defaultdict", "Counter", "deque"}
    )

    def _is_mutable(self, default: ast.expr) -> bool:
        if isinstance(default, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        if isinstance(default, ast.Call):
            dotted = dotted_name(default.func)
            return dotted is not None and dotted.rpartition(".")[2] in self._MUTABLE_CALLS
        return False

    def check(self, ctx: ModuleContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                defaults = list(node.args.defaults) + [
                    d for d in node.args.kw_defaults if d is not None
                ]
                for default in defaults:
                    if self._is_mutable(default):
                        yield self.violation(ctx, default, "mutable default argument")


class MissingFutureAnnotations(Rule):
    """R5: every module opts into postponed annotation evaluation."""

    rule_id = "R5"
    title = "module missing `from __future__ import annotations`"
    hint = "add `from __future__ import annotations` directly after the module docstring"

    def check(self, ctx: ModuleContext) -> Iterator[Violation]:
        if not ctx.tree.body:
            return
        for node in ctx.tree.body:
            if (
                isinstance(node, ast.ImportFrom)
                and node.module == "__future__"
                and any(alias.name == "annotations" for alias in node.names)
            ):
                return
        yield Violation(
            self.rule_id, ctx.path, 1, 0, "module lacks `from __future__ import annotations`"
        )


class ImplicitNumpyDtype(Rule):
    """R6: numpy accumulator allocations carry an explicit dtype.

    SUM/COUNT accumulators that default to a platform-dependent integer
    dtype overflow silently at int32 on some platforms — on the exact
    aggregation paths the paper's measures flow through.
    """

    rule_id = "R6"
    title = "numpy allocation without explicit dtype"
    hint = "pass dtype= explicitly (e.g. np.zeros(n, dtype=np.int64)) on every accumulator allocation"

    # allocator -> index of the positional argument that would carry dtype
    _ALLOCATORS = {"zeros": 1, "empty": 1, "ones": 1, "full": 2, "arange": 3}

    def check(self, ctx: ModuleContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = resolved_call_name(node.func, ctx.imports)
            if dotted is None:
                continue
            name = dotted.rpartition(".")[2]
            if name not in self._ALLOCATORS or not _matches(dotted, f"numpy.{name}"):
                continue
            if any(kw.arg == "dtype" for kw in node.keywords):
                continue
            if len(node.args) > self._ALLOCATORS[name]:
                continue
            yield self.violation(ctx, node, f"`{name}` allocation without explicit dtype")


class AssertForValidation(Rule):
    """R7: ``assert`` is not a data validator in core/ or relational/.

    Asserts vanish under ``python -O``; a cube built with optimizations on
    would skip the check and emit corrupt aggregates instead of raising.
    """

    rule_id = "R7"
    title = "no assert-based validation in core/ or relational/"
    hint = "raise ValueError/RuntimeError explicitly; assert statements are stripped under python -O"
    only_in = frozenset({"core", "relational"})

    def check(self, ctx: ModuleContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Assert):
                yield self.violation(
                    ctx, node, "`assert` used for validation (stripped under -O)"
                )


class UntypedPublicFunction(Rule):
    """R8: public functions in invariant-heavy packages are fully typed."""

    rule_id = "R8"
    title = "public function not fully type-annotated"
    hint = "annotate every parameter and the return type; strict typing is the contract for core/, lattice/, relational/"
    only_in = frozenset({"core", "lattice", "relational"})

    def _missing(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> list[str]:
        args = node.args
        missing = [
            a.arg
            for a in args.posonlyargs + args.args + args.kwonlyargs
            if a.annotation is None and a.arg not in ("self", "cls")
        ]
        if args.vararg is not None and args.vararg.annotation is None:
            missing.append("*" + args.vararg.arg)
        if args.kwarg is not None and args.kwarg.annotation is None:
            missing.append("**" + args.kwarg.arg)
        if node.returns is None:
            missing.append("return")
        return missing

    def check(self, ctx: ModuleContext) -> Iterator[Violation]:
        functions: list[ast.FunctionDef | ast.AsyncFunctionDef] = []
        for node in ctx.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                functions.append(node)
            elif isinstance(node, ast.ClassDef):
                functions.extend(
                    child
                    for child in node.body
                    if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                )
        for function in functions:
            if function.name.startswith("_"):
                continue
            missing = self._missing(function)
            if missing:
                yield self.violation(
                    ctx,
                    function,
                    f"public function `{function.name}` missing annotations: "
                    + ", ".join(missing),
                )


class RawDurabilityPrimitive(Rule):
    """R9: raw write/rename primitives stay inside ``relational/`` and ``faults/``.

    Crash safety rests on every on-disk mutation flowing through the
    audited helpers in ``repro.relational.durable`` (write-tmp + fsync +
    rename, checksums, injection points).  A stray ``open(..., "w")`` or
    ``os.replace`` elsewhere writes bytes the fault injector never sees
    and the recovery manifest never covers — a silent hole in the crash
    model.  Reading is fine; only write-capable primitives are banned.
    """

    rule_id = "R9"
    title = "no raw write/rename primitives outside relational/ and faults/"
    hint = (
        "use repro.relational.durable.atomic_write_text/atomic_write_bytes "
        "(or Catalog/HeapFile APIs); raw writes bypass fsync, checksums, "
        "and fault injection"
    )
    not_in = frozenset({"relational", "faults"})

    _BANNED_CALLS = ("os.replace", "os.rename", "os.fdopen")
    _BANNED_METHODS = frozenset({"write_text", "write_bytes"})
    _WRITE_MODE_CHARS = frozenset("wax+")

    def _open_mode(self, node: ast.Call) -> ast.expr | None:
        if len(node.args) >= 2:
            return node.args[1]
        for keyword in node.keywords:
            if keyword.arg == "mode":
                return keyword.value
        return None

    def check(self, ctx: ModuleContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = resolved_call_name(node.func, ctx.imports)
            if dotted is not None:
                if dotted == "open":
                    mode = self._open_mode(node)
                    if mode is None:
                        continue  # default mode "r" is read-only
                    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
                        if not self._WRITE_MODE_CHARS & set(mode.value):
                            continue
                        yield self.violation(
                            ctx,
                            node,
                            f"raw `open(..., {mode.value!r})` outside relational/",
                        )
                    else:
                        yield self.violation(
                            ctx, node, "`open` with non-literal mode (cannot prove read-only)"
                        )
                    continue
                for banned in self._BANNED_CALLS:
                    if _matches(dotted, banned):
                        yield self.violation(
                            ctx, node, f"raw rename/write primitive `{banned}`"
                        )
                        break
                else:
                    if (
                        isinstance(node.func, ast.Attribute)
                        and node.func.attr in self._BANNED_METHODS
                    ):
                        yield self.violation(
                            ctx, node, f"raw `.{node.func.attr}(...)` write"
                        )
            elif (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in self._BANNED_METHODS
            ):
                yield self.violation(
                    ctx, node, f"raw `.{node.func.attr}(...)` write"
                )


class UnorderedListingOrUnseededRandom(Rule):
    """R11: directory listings are sorted and every generator is seeded.

    Partition files, checkpoints and cube bytes must not depend on the
    order a file system lists entries in or on a random state nobody
    chose.  Every listing call sits inside a ``sorted(...)`` argument,
    ``random.Random`` / ``numpy.random.default_rng`` get a seed, and the
    module-level generators of ``random`` and ``numpy.random`` are never
    drawn from.
    """

    rule_id = "R11"
    title = "unsorted directory listing or unseeded randomness"
    hint = (
        "wrap the listing in sorted(...); pass a seed to random.Random / "
        "np.random.default_rng and draw from that generator"
    )

    _LISTINGS = frozenset({"os.listdir", "os.scandir", "glob.glob", "glob.iglob"})
    _LISTING_METHODS = frozenset({"glob", "rglob", "iterdir"})
    _RNG_MODULES = ("random", "numpy.random")
    _CONSTRUCTORS = frozenset({"Random", "default_rng"})

    def check(self, ctx: ModuleContext) -> Iterator[Violation]:
        calls = [n for n in ast.walk(ctx.tree) if isinstance(n, ast.Call)]
        in_sorted = {
            inner
            for call in calls
            if isinstance(call.func, ast.Name) and call.func.id == "sorted"
            for arg in call.args[:1]
            for inner in ast.walk(arg)
        }
        for node in calls:
            dotted = resolved_call_name(node.func, ctx.imports)
            module, _, name = (dotted or "").rpartition(".")
            method = node.func.attr if isinstance(node.func, ast.Attribute) else ""
            listing = dotted in self._LISTINGS or method in self._LISTING_METHODS
            if listing and node not in in_sorted:
                yield self.violation(
                    ctx, node, f"`{dotted or method}()` listing outside sorted(...)"
                )
            elif module in self._RNG_MODULES and name not in self._CONSTRUCTORS:
                yield self.violation(ctx, node, f"draw from the global `{dotted}`")
            elif module in self._RNG_MODULES and not (node.args or node.keywords):
                yield self.violation(ctx, node, f"unseeded `{dotted}()`")


ALL_RULES: tuple[Rule, ...] = (
    WallClockInCore(),
    MutableDefault(),
    MissingFutureAnnotations(),
    ImplicitNumpyDtype(),
    AssertForValidation(),
    UntypedPublicFunction(),
    RawDurabilityPrimitive(),
    UnorderedListingOrUnseededRandom(),
)

RULES_BY_ID: dict[str, Rule] = {rule.rule_id: rule for rule in ALL_RULES}
