"""The one request path: plan, answer and cache a cube request.

A :class:`QueryRequest` is one of the paper's query forms over the
NT/CAT/TT relations: a node read, a node read under member slices, an
explicit roll-up from the base-level node (Figure 28) or a count
iceberg (Section 7).  :class:`CubePlanner` picks how to answer it, the
way a host engine's optimizer would:

* a node materialized in the cube → **direct** read;
* an explicit roll-up, or a hierarchical node over a flat (FCURE) cube
  → **rollup** from the base-level node with the same grouping
  dimensions, then the request's slices or count filter;
* member predicates → **prefilter** of the stored row-ids against the
  fact columns when the cube stores row-ids (not DR) and the fact cache
  holds its table in memory or mapped
  (:func:`~repro.query.slice.prefilters`), **postfilter** otherwise;
* a count iceberg on a stored node → **iceberg**: NT and CAT rows
  filtered on their stored count, TTs skipped.

``explain`` reports the chosen strategy and its estimated work (stored
tuples that will be touched), which the planner also uses as its cost
signal.

Every request is answered and cached in one place,
:meth:`CubePlanner.entry`: one lookup of its ``(node, slices, tag)``
key in the :class:`~repro.query.cache.ResultCache` registers exactly
one hit or miss, and a miss computes and admits the answer.
:meth:`CubePlanner.answer` is the entry's answer; the HTTP server keeps
the entry's rendered body beside it.  :meth:`CubePlanner.execute` is
the uncached path for instrumented runs, which exist to measure the
underlying work.  After incremental maintenance the ingestor empties
the result cache (:meth:`~repro.query.cache.ResultCache.clear`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.storage import CubeStorage
from repro.lattice.node import CubeNode
from repro.query.answer import (
    QueryStats,
    answer_cure_query,
    node_shape,
    tt_source_ids,
)
from repro.query.cache import CachedResult, FactCache, ResultCache, ResultKey
from repro.query.column_answer import ColumnAnswer
from repro.query.iceberg import count_filter, iceberg_over_cure
from repro.query.rollup import base_node_of, rollup_base_answer
from repro.query.slice import (
    DimensionSlice,
    answer_cure_sliced,
    canonical_slices,
    prefilters,
    slice_mask,
    validate_slices,
)


@dataclass(frozen=True)
class QueryRequest:
    """One request: a target node, optional member slices, and its kind.

    ``kind`` is ``"node"`` (the node's group-by, under ``slices`` when
    there are any), ``"rollup"`` (re-aggregated from the base-level
    node even where the cube stores ``node``) or ``"iceberg"`` (the
    groups whose COUNT reaches ``min_count``).  Only a node read takes
    slices, and only an iceberg a ``min_count``.  The slices are kept
    in :func:`~repro.query.slice.canonical_slices` order, so one set of
    predicates is one request (and one result-cache key).
    """

    node: CubeNode
    slices: tuple[DimensionSlice, ...] = ()
    kind: str = "node"
    min_count: int | None = None

    def __post_init__(self) -> None:
        if self.slices:
            object.__setattr__(self, "slices", canonical_slices(self.slices))
        if self.kind not in ("node", "rollup", "iceberg"):
            raise ValueError(f"unknown request kind {self.kind!r}")
        if (self.slices and self.kind != "node") or (
            (self.min_count is None) != (self.kind != "iceberg")
        ):
            raise ValueError(
                f"only a node request takes slices, and only an iceberg "
                f"a min_count: {self!r}"
            )

    @classmethod
    def of(cls, node: CubeNode, *slices: DimensionSlice) -> "QueryRequest":
        return cls(node, tuple(slices))

    @property
    def tag(self) -> tuple[object, ...]:
        """What keeps this request's cache entry apart from a node read's."""
        if self.kind == "iceberg":
            return ("iceberg", self.min_count)
        return () if self.kind == "node" else (self.kind,)


@dataclass(frozen=True)
class QueryPlan:
    """The planner's choice for one request."""

    strategy: str  # "direct" | "rollup" | "prefilter" | "postfilter" | "iceberg"
    source_node: CubeNode
    estimated_tuples: int

    def explain(self, dimensions) -> str:
        return (
            f"{self.strategy} over {self.source_node.label(dimensions)} "
            f"(~{self.estimated_tuples} stored tuples)"
        )


@dataclass
class CubePlanner:
    """Plans, answers and caches requests over one cube."""

    storage: CubeStorage
    cache: FactCache
    results: ResultCache | None = field(default_factory=ResultCache)

    # -- planning -----------------------------------------------------------

    def _estimated_tuples(self, node: CubeNode) -> int:
        storage = self.storage
        total = 0
        node_id = node_shape(storage.schema, node).node_id
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

    def _route(self, request: QueryRequest) -> tuple[str, CubeNode]:
        """The strategy answering ``request`` and the node it reads."""
        node, schema = request.node, self.storage.schema
        if request.kind == "rollup" or not self._is_materialized(node):
            if request.slices:  # a stored node's slices check themselves
                validate_slices(schema, node, request.slices)
            return "rollup", base_node_of(schema, node)
        if request.kind == "iceberg":
            return "iceberg", node
        if request.slices:
            prefilter = prefilters(self.storage, self.cache)
            return ("prefilter" if prefilter else "postfilter"), node
        return "direct", node

    def plan(self, request: QueryRequest) -> QueryPlan:
        strategy, source = self._route(request)
        return QueryPlan(strategy, source, self._estimated_tuples(source))

    def explain(self, request: QueryRequest) -> str:
        return self.plan(request).explain(self.storage.schema.dimensions)

    # -- answering ----------------------------------------------------------

    def key(self, request: QueryRequest) -> ResultKey:
        """The result-cache key of ``request``."""
        node_id = node_shape(self.storage.schema, request.node).node_id
        return node_id, request.slices, request.tag

    def entry(
        self, request: QueryRequest, record: bool = True
    ) -> tuple[ResultKey, CachedResult]:
        """The result-cache key of ``request`` and the entry answering it.

        The lookup registers one hit or miss (none when ``record`` is
        false); a miss computes the answer and admits it.  The key comes
        back so a caller can attach the entry's body without deriving it
        again (:meth:`~repro.query.cache.ResultCache.attach_body`).  A roll-up
        reads its base answer as an entry of its own, uncounted: every
        roll-up over the same grouping dimensions shares it, and the
        request has registered its one count.  A base larger than the
        cache's byte budget is used without being offered, so
        ``stats.rejected`` counts only answers to requests.
        """
        results = self.results
        node_id, slices, tag = key = self.key(request)
        entry = None if results is None else results.lookup(*key, record=record)
        if entry is None:
            entry = CachedResult(self._compute(request, cached=True))
            if results is not None and (record or results.holds(entry)):
                results.put(node_id, slices, entry.answer, tag)
        return key, entry

    def answer(self, request: QueryRequest) -> ColumnAnswer:
        """The answer to ``request``, through the result cache."""
        return self.entry(request)[1].answer

    def execute(
        self, request: QueryRequest, stats: QueryStats | None = None
    ) -> ColumnAnswer:
        """Plan and answer ``request`` past the result cache, counting
        its work in ``stats``."""
        return self._compute(request, stats)

    def _compute(
        self,
        request: QueryRequest,
        stats: QueryStats | None = None,
        cached: bool = False,
    ) -> ColumnAnswer:
        """Answer ``request`` by its plan; a roll-up takes its base answer
        from the result cache when ``cached``."""
        strategy, base = self._route(request)
        storage, cache, node = self.storage, self.cache, request.node
        if strategy == "rollup":
            if cached:
                base_answer = self.entry(QueryRequest(base), record=False)[1].answer
            else:
                base_answer = answer_cure_query(storage, cache, base, stats)
            rolled = rollup_base_answer(storage.schema, base_answer, node)
            if request.kind == "iceberg":
                return count_filter(storage.schema, rolled, request.min_count)
            if request.slices:
                return rolled.filter(
                    slice_mask(storage.schema, node, request.slices, rolled.dims)
                )
            return rolled
        if strategy == "iceberg":
            return iceberg_over_cure(storage, cache, node, request.min_count, stats)
        if strategy == "direct":
            return answer_cure_query(storage, cache, node, stats)
        return answer_cure_sliced(
            storage, cache, node, list(request.slices), stats=stats
        )
