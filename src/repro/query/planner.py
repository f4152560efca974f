"""A small query planner over CURE cubes.

The answering primitives each cover one situation: direct node reads
(:func:`answer_cure_query`), on-the-fly roll-up when the cube is flat
(:func:`answer_rollup_from_flat`), pre- or post-filtered slices
(:func:`answer_cure_sliced`).  :class:`CubePlanner` picks among them per
request, the way a host engine's optimizer would:

* a node materialized in the cube → **direct** read;
* a hierarchical node over a flat (FCURE) cube → **rollup** from the
  base-level node with the same grouping dimensions;
* member predicates → **prefilter** of the stored row-ids against the
  fact columns when the cube stores row-ids (not DR) and the fact cache
  holds its table in memory or mapped
  (:func:`~repro.query.slice.prefilters`),
  **postfilter** otherwise.

``explain`` reports the chosen strategy and its estimated work (stored
tuples that will be touched), which the planner also uses as its cost
signal.

Answers are memoized in a :class:`~repro.query.cache.ResultCache` keyed
by ``(node, slices, tag)`` (the tag is empty here; the serving layer
caches roll-ups and icebergs under their own) — repeated requests reuse
the cached :class:`~repro.query.column_answer.ColumnAnswer` instead of
re-answering.
The cache is bypassed whenever the caller passes a ``stats`` object,
since instrumented runs exist to measure the underlying work; after
incremental maintenance, call :meth:`CubePlanner.invalidate_results`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.incremental import UpdateReport
from repro.core.storage import CubeStorage
from repro.lattice.node import CubeNode
from repro.query.answer import (
    QueryStats,
    answer_cure_query,
    tt_source_ids,
)
from repro.query.cache import FactCache, ResultCache
from repro.query.column_answer import ColumnAnswer
from repro.query.rollup import base_node_of, rollup_base_answer
from repro.query.slice import (
    DimensionSlice,
    answer_cure_sliced,
    prefilters,
    slice_mask,
)


@dataclass(frozen=True)
class QueryRequest:
    """One group-by request: a target node plus optional member slices."""

    node: CubeNode
    slices: tuple[DimensionSlice, ...] = ()

    @classmethod
    def of(cls, node: CubeNode, *slices: DimensionSlice) -> "QueryRequest":
        return cls(node, tuple(slices))


@dataclass(frozen=True)
class QueryPlan:
    """The planner's choice for one request."""

    strategy: str  # "direct" | "rollup" | "prefilter" | "postfilter"
    source_node: CubeNode
    estimated_tuples: int

    def explain(self, dimensions) -> str:
        return (
            f"{self.strategy} over {self.source_node.label(dimensions)} "
            f"(~{self.estimated_tuples} stored tuples)"
        )


@dataclass
class CubePlanner:
    """Plans and answers requests over one cube."""

    storage: CubeStorage
    cache: FactCache
    results: ResultCache | None = field(default_factory=ResultCache)

    # -- planning -----------------------------------------------------------

    def _estimated_tuples(self, node: CubeNode) -> int:
        storage = self.storage
        total = 0
        node_id = storage.schema.node_id(node)
        store = storage.get_node_store(node_id)
        if store is not None:
            total += store.nt_count + store.cat_count
        for source_id in tt_source_ids(storage, node, node_id):
            tt_store = storage.get_node_store(source_id)
            if tt_store is not None:
                total += tt_store.tt_count
        return total

    def _is_materialized(self, node: CubeNode) -> bool:
        if not self.storage.flat:
            return True  # a complete hierarchical cube has every node
        schema = self.storage.schema
        return all(
            level in (0, schema.dimensions[d].all_level)
            for d, level in enumerate(node.levels)
        )

    def plan(self, request: QueryRequest) -> QueryPlan:
        node = request.node
        if not self._is_materialized(node):
            base = base_node_of(self.storage.schema, node)
            return QueryPlan("rollup", base, self._estimated_tuples(base))
        if request.slices:
            prefilter = prefilters(self.storage, self.cache)
            strategy = "prefilter" if prefilter else "postfilter"
            return QueryPlan(strategy, node, self._estimated_tuples(node))
        return QueryPlan("direct", node, self._estimated_tuples(node))

    # -- execution ------------------------------------------------------------

    def answer(
        self, request: QueryRequest, stats: QueryStats | None = None
    ) -> ColumnAnswer:
        results = self.results if stats is None else None
        node_id = self.storage.schema.node_id(request.node)
        if results is not None:
            cached = results.get(node_id, request.slices)
            if cached is not None:
                return cached
        answer = self.execute(request, stats)
        if results is not None:
            results.put(node_id, request.slices, answer)
        return answer

    def invalidate_results(self, report: UpdateReport | None = None) -> int:
        """Drop memoized answers a delta could have changed.

        Without a report every entry drops — the conservative whole-cache
        behaviour.  With one, invalidation is slice-driven: an *unsliced*
        answer changes with every appended row (each new fact contributes
        to all 2^n groupings, so per-node filtering on ``nodes_touched``
        alone would drop everything), but a *sliced* answer only changes
        when some delta row's projection onto the node's grouping
        dimensions satisfies the slice predicate.  Result entries for
        untouched lattice regions — slices the delta never lands in —
        survive the update.  Returns the number of entries dropped.
        """
        if self.results is None:
            return 0
        if report is not None and report.delta_rows == 0:
            return 0
        if report is None or not report.delta_codes:
            dropped = len(self.results)
            self.results.clear()
            return dropped
        dimensions = self.storage.schema.dimensions
        delta_codes = report.delta_codes
        rolled: dict[tuple[int, int], list[int]] = {}

        def at_level(dim: int, level: int) -> list[int]:
            """The delta rows' members of ``dim`` at ``level``, rolled once."""
            codes = rolled.get((dim, level))
            if codes is None:
                codes = rolled[dim, level] = [
                    dimensions[dim].code_at(row[dim], level)
                    for row in delta_codes
                ]
            return codes

        def stale(_node_id: int, slices: tuple[DimensionSlice, ...]) -> bool:
            # A slice level is a roll-up of its node's level (validated
            # when the entry was answered), so a delta row's projection
            # onto the node passes the slice exactly when the row's own
            # member at the slice level is one of the slice's members.
            columns = [
                (at_level(item.dim, item.level), item.members)
                for item in slices
            ]
            return any(
                all(codes[i] in members for codes, members in columns)
                for i in range(len(delta_codes))
            )

        return self.results.invalidate(stale)

    def execute(
        self, request: QueryRequest, stats: QueryStats | None = None
    ) -> ColumnAnswer:
        """Plan and answer ``request`` past the result cache.

        :meth:`answer` wraps this in a cache get/put; the serving layer
        calls it directly, because it keeps the entry it looked up (and
        the body rendered from it) rather than only the answer.
        """
        plan = self.plan(request)
        if plan.strategy == "direct":
            return answer_cure_query(
                self.storage, self.cache, request.node, stats
            )
        if plan.strategy == "rollup":
            base_answer = answer_cure_query(
                self.storage, self.cache, plan.source_node, stats
            )
            rolled = rollup_base_answer(
                self.storage.schema, base_answer, request.node
            )
            if not request.slices:
                return rolled
            return rolled.filter(
                slice_mask(
                    self.storage.schema,
                    request.node,
                    request.slices,
                    rolled.dims,
                )
            )
        return answer_cure_sliced(
            self.storage,
            self.cache,
            request.node,
            list(request.slices),
            stats=stats,
        )

    def explain(self, request: QueryRequest) -> str:
        return self.plan(request).explain(self.storage.schema.dimensions)

