"""The slicer application: one immutable cube, many readers.

:class:`SlicerApp` serves one published cube bundle.
:class:`~repro.server.http.SlicerServer` calls
:meth:`SlicerApp.dispatch_request` directly; ``__call__`` is the thin
WSGI adapter over the same method for third-party containers.  The
bundle loads **once**: every request thread shares the same
:class:`~repro.core.storage.CubeStorage` (whose per-node ``NodeStore``
matrix caches warm lazily and are then reused by all threads), the same
fully-resident :class:`~repro.query.cache.FactCache`, the same inverted
indices, and one bytes-budgeted
:class:`~repro.query.cache.ResultCache` — the cube is read-mostly, so
the serving path scales with cores instead of re-loading per caller.

All four answer endpoints go through that one cache, and an entry keeps
the canonical body rendered from its answer: a repeated request costs
the parse, one dictionary lookup and the socket write.  Every answer
request registers exactly one hit or miss on ``planner.results.stats``.

Endpoints (all ``GET``, all canonical JSON — see
:mod:`repro.server.encoding`):

======================  ====================================================
``/cube``               schema metadata: dimensions, levels, aggregates
``/nodes?limit=N``      lattice nodes with ids and labels
``/node/<id>``          one node answer (planner-routed: direct, or
                        roll-up over a flat cube)
``/slice/<id>?where=…`` node answer under member predicates;
                        ``where=<dim>.<level>:<m1>|<m2>…``, repeatable
``/rollup/<id>``        explicit on-the-fly roll-up from the base node
``/iceberg/<id>?min=k`` count-iceberg answer at ``min_count = k``
``/stats``              request/connection counters, cache occupancy and
                        hit rates
======================  ====================================================

Request handling funnels through :meth:`SlicerApp.dispatch_request`,
which the R12 parallel-safety lint rule audits exactly like the build
workers' entry points: everything reachable from it may only mutate
module state under a lock.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Iterable
from urllib.parse import parse_qs

from repro.bundle import CubeBundle
from repro.lattice.node import CubeNode
from repro.query.iceberg import iceberg_over_cure
from repro.query.cache import CachedResult, ResultCache, ResultTag
from repro.query.column_answer import ColumnAnswer
from repro.query.planner import CubePlanner, QueryRequest
from repro.query.rollup import base_node_of, rollup_base_answer
from repro.query.slice import DimensionSlice
from repro.server.encoding import canonical_json, encode_answer

#: Default result-cache budget: enough for thousands of small-node
#: answers while bounding a worst-case burst of huge ones.
DEFAULT_RESULT_CACHE_BYTES = 64 * 1024 * 1024


def canonical_slices(
    slices: Iterable[DimensionSlice],
) -> tuple[DimensionSlice, ...]:
    """One deterministic order for a request's predicates.

    The result cache keys on the slice tuple, so ``?where=B…&where=A…``
    must hit the entry ``?where=A…&where=B…`` created.
    """
    return tuple(
        sorted(
            slices,
            key=lambda s: (s.dim, s.level, tuple(sorted(s.members))),
        )
    )


def slice_params(slices: tuple[DimensionSlice, ...]) -> list[dict[str, Any]]:
    """The predicates as deterministic JSON-friendly values."""
    return [
        {
            "dim": item.dim,
            "level": item.level,
            "members": sorted(item.members),
        }
        for item in slices
    ]


class BadRequest(Exception):
    """A client error: malformed path, unknown member, invalid slice."""


class SlicerApp:
    """The application serving one immutable published cube."""

    def __init__(
        self,
        bundle: CubeBundle,
        result_cache_bytes: int | None = DEFAULT_RESULT_CACHE_BYTES,
        result_cache_entries: int = 4096,
        with_indices: bool = True,
    ) -> None:
        self.bundle = bundle
        self.schema = bundle.schema
        self.planner: CubePlanner = bundle.planner(
            result_cache_bytes=result_cache_bytes,
            result_cache_entries=result_cache_entries,
            with_indices=with_indices,
        )
        if self.planner.results is None:
            raise ValueError("the serving planner needs a result cache")
        self.results: ResultCache = self.planner.results
        self._counter_lock = threading.Lock()
        self._requests = 0
        self._errors = 0
        self._connections = 0

    # -- WSGI ---------------------------------------------------------------

    def __call__(
        self,
        environ: dict[str, Any],
        start_response: Callable[..., Any],
    ) -> list[bytes]:
        if environ.get("REQUEST_METHOD", "GET") != "GET":
            body = canonical_json({"error": "only GET is supported"})
            start_response("405 Method Not Allowed", self._headers(body))
            return [body]
        status, body = self.dispatch_request(
            environ.get("PATH_INFO", "/"),
            parse_qs(environ.get("QUERY_STRING", "")),
        )
        start_response(status, self._headers(body))
        return [body]

    @staticmethod
    def _headers(body: bytes) -> list[tuple[str, str]]:
        return [
            ("Content-Type", "application/json; charset=utf-8"),
            ("Content-Length", str(len(body))),
        ]

    # -- routing ------------------------------------------------------------

    def dispatch_request(
        self, path: str, params: dict[str, list[str]]
    ) -> tuple[str, bytes]:
        """Route one request; returns ``(status line, body bytes)``.

        This is the audited serving entry point: every answer a request
        thread can compute flows through here, over caches shared with
        every other request thread.
        """
        with self._counter_lock:
            self._requests += 1
        try:
            head, _, tail = path.strip("/").partition("/")
            if head in ("", "cube"):
                return "200 OK", self._cube_meta()
            if head == "nodes":
                return "200 OK", self._nodes(params)
            if head == "stats":
                return "200 OK", self._stats()
            if head == "node":
                node = self._parse_node(tail)
                if "where" in params:
                    raise BadRequest(
                        "predicates belong on /slice/<id>?where=…"
                    )
                request = QueryRequest.of(node)
                return "200 OK", self._answer_body(
                    node, "node", lambda: self.planner.execute(request)
                )
            if head == "slice":
                node = self._parse_node(tail)
                slices = canonical_slices(self._parse_where(params))
                if not slices:
                    raise BadRequest(
                        "at least one where=<dim>.<level>:<m1>|<m2> "
                        "predicate is required"
                    )
                request = QueryRequest(node, slices)
                return "200 OK", self._answer_body(
                    node,
                    "slice",
                    lambda: self.planner.execute(request),
                    slices=slices,
                    params={"where": slice_params(slices)},
                )
            if head == "rollup":
                node = self._parse_node(tail)
                return "200 OK", self._answer_body(
                    node,
                    "rollup",
                    lambda: self._rollup(node),
                    tag=("rollup",),
                )
            if head == "iceberg":
                node = self._parse_node(tail)
                min_count = self._parse_int(
                    params.get("min", ["2"])[0], "min"
                )
                return "200 OK", self._answer_body(
                    node,
                    "iceberg",
                    lambda: iceberg_over_cure(
                        self.planner.storage,
                        self.planner.cache,
                        node,
                        min_count,
                    ),
                    tag=("iceberg", min_count),
                    params={"min_count": min_count},
                )
            return self._error(
                "404 Not Found", f"unknown endpoint {path!r}"
            )
        except BadRequest as exc:
            return self._error("400 Bad Request", str(exc))
        except ValueError as exc:
            # Invalid slice levels, missing COUNT aggregate, and friends.
            return self._error("400 Bad Request", str(exc))

    # -- endpoint bodies ----------------------------------------------------

    def _entry(
        self,
        node: CubeNode,
        compute: Callable[[], ColumnAnswer],
        slices: tuple[DimensionSlice, ...] = (),
        tag: ResultTag = (),
        record: bool = True,
    ) -> CachedResult:
        """The cache entry of one answer, computed and admitted on a miss."""
        node_id = self.schema.node_id(node)
        entry = self.results.lookup(node_id, slices, tag, record=record)
        if entry is None:
            entry = CachedResult(compute())
            self.results.put(node_id, slices, entry.answer, tag)
        return entry

    def _answer_body(
        self,
        node: CubeNode,
        kind: str,
        compute: Callable[[], ColumnAnswer],
        slices: tuple[DimensionSlice, ...] = (),
        tag: ResultTag = (),
        params: dict[str, Any] | None = None,
    ) -> bytes:
        """One answer's canonical body, rendered at most once per entry."""
        entry = self._entry(node, compute, slices, tag)
        if entry.body is not None:
            return entry.body
        body = encode_answer(
            self.schema,
            node,
            entry.answer,
            kind=kind,
            params=params,
        )
        self.results.attach_body(
            self.schema.node_id(node), slices, tag, entry.answer, body
        )
        return body

    def _rollup(self, node: CubeNode) -> ColumnAnswer:
        # The base answer is shared by every roll-up over the same
        # grouping dimensions, so it is a cache entry of its own; the
        # request has already registered its one hit or miss.
        base = base_node_of(self.schema, node)
        request = QueryRequest.of(base)
        base_entry = self._entry(
            base, lambda: self.planner.execute(request), record=False
        )
        return rollup_base_answer(self.schema, base_entry.answer, node)

    def connection_opened(self) -> None:
        """Count one accepted socket (called by the HTTP front)."""
        with self._counter_lock:
            self._connections += 1

    def _cube_meta(self) -> bytes:
        schema = self.schema
        return canonical_json(
            {
                "aggregates": [spec.name for spec in schema.aggregates],
                "dimensions": [
                    {
                        "name": dimension.name,
                        "levels": [
                            {
                                "name": level.name,
                                "cardinality": level.cardinality,
                            }
                            for level in dimension.levels
                        ],
                    }
                    for dimension in schema.dimensions
                ],
                "fact_rows": self.planner.cache.row_count,
                "n_nodes": schema.enumerator.n_nodes,
                "variant": self.bundle.extra.get("variant"),
            }
        )

    def _nodes(self, params: dict[str, list[str]]) -> bytes:
        limit = self._parse_int(params.get("limit", ["0"])[0], "limit")
        schema = self.schema
        nodes = []
        for node in schema.lattice.nodes():
            nodes.append(
                {
                    "id": schema.node_id(node),
                    "levels": list(node.levels),
                    "label": node.label(schema.dimensions),
                }
            )
            if limit and len(nodes) >= limit:
                break
        return canonical_json(
            {"n_nodes": schema.enumerator.n_nodes, "nodes": nodes}
        )

    def _stats(self) -> bytes:
        planner, results = self.planner, self.results
        with self._counter_lock:
            requests, errors = self._requests, self._errors
            connections = self._connections
        return canonical_json(
            {
                "requests": requests,
                "errors": errors,
                "connections": connections,
                "fact_cache": {
                    "hits": planner.cache.stats.hits,
                    "misses": planner.cache.stats.misses,
                },
                "result_cache": {
                    "entries": len(results),
                    "bytes": results.total_bytes,
                    "max_entries": results.max_entries,
                    "max_bytes": results.max_bytes,
                    "hits": results.stats.hits,
                    "misses": results.stats.misses,
                    "rejected": results.stats.rejected,
                },
            }
        )

    # -- parsing ------------------------------------------------------------

    def _parse_node(self, tail: str) -> CubeNode:
        node_id = self._parse_int(tail, "node id")
        if not 0 <= node_id < self.schema.enumerator.n_nodes:
            raise BadRequest(
                f"node id {node_id} out of range "
                f"[0, {self.schema.enumerator.n_nodes})"
            )
        return self.schema.decode_node(node_id)

    @staticmethod
    def _parse_int(text: str, what: str) -> int:
        try:
            return int(text)
        except ValueError:
            raise BadRequest(f"{what} must be an integer, got {text!r}") from None

    def _parse_where(
        self, params: dict[str, list[str]]
    ) -> list[DimensionSlice]:
        slices = []
        for clause in params.get("where", []):
            target, sep, members_text = clause.partition(":")
            dim_text, dot, level_text = target.partition(".")
            if not sep or not dot or not members_text:
                raise BadRequest(
                    f"bad where clause {clause!r} "
                    "(expected <dim>.<level>:<m1>|<m2>)"
                )
            dim = self._parse_int(dim_text, "where dimension")
            level = self._parse_int(level_text, "where level")
            if not 0 <= dim < self.schema.n_dimensions:
                raise BadRequest(f"dimension {dim} out of range")
            dimension = self.schema.dimensions[dim]
            # Real levels only: the implicit ALL level has one member,
            # so slicing on it is meaningless (and unindexed).
            if not 0 <= level < dimension.n_levels:
                raise BadRequest(
                    f"level {level} out of range for {dimension.name!r} "
                    f"(sliceable levels: 0..{dimension.n_levels - 1})"
                )
            members = frozenset(
                self._parse_int(member, "where member")
                for member in members_text.split("|")
            )
            slices.append(DimensionSlice.of(dim, level, members))
        return slices

    def _error(self, status: str, message: str) -> tuple[str, bytes]:
        with self._counter_lock:
            self._errors += 1
        return status, canonical_json({"error": message})
