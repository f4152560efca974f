"""The slicer application: one immutable cube, many readers.

:class:`SlicerApp` serves one published cube bundle.
:class:`~repro.server.http.SlicerServer` hands each raw request target
to :meth:`SlicerApp.respond`; ``__call__`` is the thin WSGI adapter over
:meth:`SlicerApp.dispatch_request` for third-party containers.  The
bundle loads **once**: every request thread shares the same
:class:`~repro.core.storage.CubeStorage` (whose per-node ``NodeStore``
matrix caches warm lazily and are then reused by all threads), the same
fully-resident :class:`~repro.query.cache.FactCache` (whose mapped fact
columns the slice pre-filter reads), and one bytes-budgeted
:class:`~repro.query.cache.ResultCache` — the cube is read-mostly, so
the serving path scales with cores instead of re-loading per caller.

Each answer endpoint only translates: the URL becomes a
:class:`~repro.query.planner.QueryRequest`, and
:meth:`CubePlanner.entry <repro.query.planner.CubePlanner.entry>` — the
library's own request path, which registers exactly one hit or miss on
``planner.results.stats`` — answers it through that cache.  An entry
keeps the canonical body rendered from its answer and the first raw
request target that fetched it, so a repeated request over HTTP costs
one lookup by that target (:meth:`ResultCache.body_for
<repro.query.cache.ResultCache.body_for>`) and the socket write: no
unquoting, no query parsing, no node decode, no ``QueryRequest``.  A
target the cache does not know — a miss, or another spelling of a
cached request — is parsed and answered through ``dispatch_request``.

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
workers' entry points (and ``respond`` through the front's
``serve_connection``): everything reachable from them may only mutate
module state under a lock.
"""

from __future__ import annotations

import threading
from typing import Any, Callable
from urllib.parse import parse_qs, unquote

from repro.bundle import CubeBundle
from repro.lattice.node import CubeNode
from repro.query.cache import ResultCache
from repro.query.planner import CubePlanner, QueryRequest
from repro.query.slice import DimensionSlice
from repro.server.encoding import canonical_json, encode_request

#: Default result-cache budget: enough for thousands of small-node
#: answers while bounding a worst-case burst of huge ones.
DEFAULT_RESULT_CACHE_BYTES = 64 * 1024 * 1024


class BadRequest(Exception):
    """A client error: malformed path, unknown member, invalid slice."""


class SlicerApp:
    """The application serving one immutable published cube."""

    def __init__(
        self,
        bundle: CubeBundle,
        result_cache_bytes: int | None = DEFAULT_RESULT_CACHE_BYTES,
        result_cache_entries: int = 4096,
    ) -> None:
        self.bundle = bundle
        self.schema = bundle.schema
        self.planner: CubePlanner = bundle.planner(
            result_cache_bytes=result_cache_bytes,
            result_cache_entries=result_cache_entries,
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

    def respond(self, target: str) -> tuple[str, bytes]:
        """Answer one raw HTTP request target (path and query, as sent).

        A body cached under ``target`` is returned at once, counting one
        result-cache hit.  Anything else is split, unquoted and parsed,
        and routed by :meth:`dispatch_request`, which registers its own
        hit or miss and indexes ``target`` beside the body it returns.
        """
        body = self.results.body_for(target)
        if body is None:
            path, _, query = target.partition("?")
            return self.dispatch_request(unquote(path), parse_qs(query), target)
        with self._counter_lock:
            self._requests += 1
        return "200 OK", body

    def dispatch_request(
        self,
        path: str,
        params: dict[str, list[str]],
        target: str | None = None,
    ) -> tuple[str, bytes]:
        """Route one request; returns ``(status line, body bytes)``.

        This is the audited serving entry point: every answer a request
        thread can compute flows through here, over caches shared with
        every other request thread.  ``target``, the raw request target
        ``path`` and ``params`` were parsed from, is indexed beside an
        answer's cached body so :meth:`respond` finds it next time.
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
            if head in ("node", "slice", "rollup", "iceberg"):
                return "200 OK", self._answer_body(
                    self._parse_request(head, tail, params), target
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

    def _answer_body(self, request: QueryRequest, target: str | None) -> bytes:
        """The request's canonical body, rendered at most once per entry,
        and indexed under ``target`` when the entry has no target yet."""
        key, entry = self.planner.entry(request)
        if entry.body is not None:
            if target is not None and entry.target is None:
                self.results.add_target(key, entry, target)
            return entry.body
        body = encode_request(self.schema, request, entry.answer)
        self.results.attach_body(*key, entry.answer, body, target)
        return body

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
        if limit < 0:
            raise BadRequest(f"limit must not be negative, got {limit}")
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

    def _parse_request(
        self, head: str, tail: str, params: dict[str, list[str]]
    ) -> QueryRequest:
        node = self._parse_node(tail)
        if head == "slice":
            slices = self._parse_where(params)
            if not slices:
                raise BadRequest(
                    "at least one where=<dim>.<level>:<m1>|<m2> "
                    "predicate is required"
                )
            return QueryRequest(node, tuple(slices))
        if head == "iceberg":
            min_text = params.get("min", ["2"])[0]
            min_count = self._parse_int(min_text, "min")
            return QueryRequest(node, kind="iceberg", min_count=min_count)
        if head == "node" and "where" in params:
            raise BadRequest("predicates belong on /slice/<id>?where=…")
        return QueryRequest(node, kind=head)

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
        # Canonical decimal only: ``int`` also takes "+1", "1_0", " 10"
        # and non-ASCII digits, which would alias one answer under many
        # paths.
        try:
            if str(value := int(text)) == text:
                return value
        except ValueError:
            pass
        raise BadRequest(f"{what} must be an integer, got {text!r}")

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
            # so slicing on it is meaningless.
            if not 0 <= level < dimension.n_levels:
                raise BadRequest(
                    f"level {level} out of range for {dimension.name!r} "
                    f"(sliceable levels: 0..{dimension.n_levels - 1})"
                )
            members = frozenset(
                self._parse_int(member, "where member")
                for member in members_text.split("|")
            )
            cardinality = dimension.cardinality(level)
            unknown = [m for m in members if not 0 <= m < cardinality]
            if unknown:
                raise BadRequest(
                    f"unknown member {min(unknown)} of {dimension.name!r} "
                    f"level {level} (members: 0..{cardinality - 1})"
                )
            slices.append(DimensionSlice.of(dim, level, members))
        return slices

    def _error(self, status: str, message: str) -> tuple[str, bytes]:
        with self._counter_lock:
            self._errors += 1
        return status, canonical_json({"error": message})
