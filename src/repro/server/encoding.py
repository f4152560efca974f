"""Canonical JSON encoding of cube answers.

The serving layer's correctness contract is *byte identity*: the body an
HTTP endpoint returns must equal, byte for byte, what the in-process
library call produces for the same request.  That only works if both
sides share one canonical encoder, so this module is it — the slicer app
calls :func:`encode_answer` to render a response and the differential
harness calls the same function on the direct
:class:`~repro.query.column_answer.ColumnAnswer` result.

Canonical means deterministic everywhere a choice exists:

* rows are emitted in :meth:`ColumnAnswer.normalized` order, so two
  answers holding the same rows in different production orders (another
  planner strategy, another storage backend) encode identically;
* keys are sorted and separators compact, so two ``dict`` layouts cannot
  differ.  What does not depend on the request — ``aggregates``,
  ``groups``, ``levels``, ``node`` — is rendered once per node by
  ``json.dumps`` (which ``\\u``-escapes non-ASCII names, as ``orjson``
  cannot) into its :class:`~repro.query.answer.NodeShape`.  A body
  renders ``count``, ``kind`` and ``params``, and ``rows``, nearly all
  of the bytes, by ``orjson`` in C, which writes integers as
  ``json.dumps`` does (``tests/support/reference_encoding.py`` keeps the
  row-at-a-time ``json.dumps`` of the whole payload as the oracle).

:func:`decode_answer` inverts the encoding back into a
:class:`ColumnAnswer` plus its metadata — what an HTTP client (and the
harness's equality check) consumes.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np
import orjson

from repro.core.model import CubeSchema
from repro.lattice.node import CubeNode
from repro.query.answer import node_shape
from repro.query.column_answer import ColumnAnswer
from repro.query.planner import QueryRequest


def encode_answer(
    schema: CubeSchema,
    node: CubeNode,
    answer: ColumnAnswer,
    kind: str = "node",
    params: dict[str, Any] | None = None,
) -> bytes:
    """One answer as canonical JSON bytes.

    ``params`` carries request parameters that shaped the answer (slice
    predicates, iceberg thresholds) so a response is self-describing;
    the caller must pass JSON-serializable values with deterministic
    ordering (lists, not sets).
    """
    shape = node_shape(schema, node)
    head, groups, levels = shape.body
    parts = [head, b"%d" % len(answer), groups, canonical_json(kind), levels]
    if params:
        parts += [b',"params":', canonical_json(params)]
    parts += [b',"rows":', _rows_json(answer), b"}"]
    return b"".join(parts)


def _rows_json(answer: ColumnAnswer) -> bytes:
    """``answer``'s rows in canonical order, as a JSON array of arrays."""
    rows = answer.normalized().matrix()
    return orjson.dumps(
        np.ascontiguousarray(rows, dtype=np.int64),
        option=orjson.OPT_SERIALIZE_NUMPY,
    )


def encode_request(
    schema: CubeSchema, request: QueryRequest, answer: ColumnAnswer
) -> bytes:
    """``answer`` as the body the endpoint serving ``request`` ships.

    The body's ``kind`` and ``params`` follow from the request: a node
    read under slices is a ``"slice"`` carrying its predicates, an
    iceberg carries its ``min_count``.
    """
    if request.slices:
        where = [
            {"dim": s.dim, "level": s.level, "members": sorted(s.members)}
            for s in request.slices
        ]
        kind, params = "slice", {"where": where}
    elif request.kind == "iceberg":
        kind, params = "iceberg", {"min_count": request.min_count}
    else:
        kind, params = request.kind, None
    return encode_answer(schema, request.node, answer, kind, params)


def canonical_json(payload: object) -> bytes:
    """Compact, key-sorted JSON — the only JSON this server emits."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def decode_answer(body: bytes) -> tuple[dict[str, Any], ColumnAnswer]:
    """Invert :func:`encode_answer`: metadata plus the columnar answer."""
    payload = json.loads(body.decode("utf-8"))
    width = len(payload["groups"]) + len(payload["aggregates"])
    rows = np.array(payload["rows"], dtype=np.int64).reshape(-1, width)
    return payload, ColumnAnswer.of_rows(len(payload["groups"]), rows)
