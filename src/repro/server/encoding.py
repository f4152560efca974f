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
  differ.  ``rows``, the last key in that order and nearly all of the
  bytes, is the sorted int64 matrix serialized by ``orjson`` in C and
  spliced in behind the metadata.  The metadata stays on
  ``json.dumps(sort_keys=True)``: it ``\\u``-escapes non-ASCII dimension
  and level names, which ``orjson`` cannot, and it is a few hundred
  bytes.  For an all-integer array the two agree byte for byte
  (``tests/support/reference_encoding.py`` keeps the row-at-a-time
  ``json.dumps`` of the whole payload as the oracle for these bytes).

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
    grouping = node.grouping_dims(schema.dimensions)
    payload: dict[str, Any] = {
        "kind": kind,
        "node": schema.node_id(node),
        "levels": list(node.levels),
        "groups": [
            f"{schema.dimensions[d].name}."
            f"{schema.dimensions[d].level(node.levels[d]).name}"
            for d in grouping
        ],
        "aggregates": [spec.name for spec in schema.aggregates],
        "count": len(answer),
    }
    if params:
        payload["params"] = params
    # "rows" sorts after every other key, so it goes in front of the
    # closing brace of the key-sorted metadata.
    rows = np.hstack((answer.dims, answer.aggregates))[answer.sort_order()]
    return b'%s,"rows":%s}' % (
        canonical_json(payload)[:-1],
        orjson.dumps(
            np.ascontiguousarray(rows, dtype=np.int64),
            option=orjson.OPT_SERIALIZE_NUMPY,
        ),
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


def canonical_json(payload: dict[str, Any]) -> bytes:
    """Compact, key-sorted JSON — the only JSON this server emits."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def decode_answer(body: bytes) -> tuple[dict[str, Any], ColumnAnswer]:
    """Invert :func:`encode_answer`: metadata plus the columnar answer."""
    payload = json.loads(body.decode("utf-8"))
    arity = len(payload["groups"])
    n_aggregates = len(payload["aggregates"])
    pairs = [
        (tuple(row[:arity]), tuple(row[arity:]))
        for row in payload["rows"]
    ]
    answer = ColumnAnswer.from_pairs(
        pairs, arity=arity, n_aggregates=n_aggregates
    )
    return payload, answer
