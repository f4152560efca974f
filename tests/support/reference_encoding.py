"""The row-at-a-time canonical encoder, kept as a test oracle.

This is ``repro.server.encoding.encode_answer`` as it stood before the
column-wise encoder replaced it: every row becomes a Python list
(``dims + aggregates``) and the whole payload — metadata and rows — goes
through one ``json.dumps(sort_keys=True)``.  Nothing about the format
is hand-assembled here, which is what makes it the reference: the
production encoder splices an ``orjson``-serialized ``rows`` array
behind the metadata and must produce these exact bytes
(``tests/server/test_encoding.py``).

It takes a :class:`ColumnAnswer` or the pair lists the row-engine oracle
(``tests/support/row_engine.py``) produces; :func:`reference_encode_op`
renders one workload op's answer the way ``repro.server.replay.encode_op``
does, so oracle pairs can be held against served bytes.
"""

from __future__ import annotations

import json
from typing import Any

from repro.query.column_answer import ColumnAnswer


def reference_encode_answer(
    schema,
    node,
    answer,
    kind: str = "node",
    params: dict[str, Any] | None = None,
) -> bytes:
    grouping = node.grouping_dims(schema.dimensions)
    if not isinstance(answer, ColumnAnswer):
        answer = ColumnAnswer.from_pairs(
            answer, arity=len(grouping), n_aggregates=schema.n_aggregates
        )
    columnar = answer.normalized()
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
        "count": len(columnar),
        "rows": [
            dims + aggregates
            for dims, aggregates in zip(
                columnar.dims.tolist(), columnar.aggregates.tolist()
            )
        ],
    }
    if params:
        payload["params"] = params
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def reference_encode_op(schema, op, answer) -> bytes:
    params = None
    if op.kind == "slice":
        where = [
            {"dim": s.dim, "level": s.level, "members": sorted(s.members)}
            for s in op.slices
        ]
        params = {"where": sorted(where, key=lambda c: (c["dim"], c["level"], c["members"]))}
    elif op.kind == "iceberg":
        params = {"min_count": op.min_count}
    return reference_encode_answer(
        schema, op.node, answer, kind=op.kind, params=params
    )
