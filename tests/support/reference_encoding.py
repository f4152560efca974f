"""The row-at-a-time canonical encoder, kept as a test oracle.

This is ``repro.server.encoding.encode_answer`` as it stood before the
column-wise encoder replaced it: every row becomes a Python list
(``dims + aggregates``) and the whole payload — metadata and rows — goes
through one ``json.dumps(sort_keys=True)``.  Nothing about the format
is hand-assembled here, which is what makes it the reference: the
production encoder splices a ``%``-formatted ``rows`` array behind the
metadata and must produce these exact bytes
(``tests/server/test_encoding.py``).
"""

from __future__ import annotations

import json
from typing import Any

from repro.server.encoding import as_column_answer


def reference_encode_answer(
    schema,
    node,
    answer,
    kind: str = "node",
    params: dict[str, Any] | None = None,
) -> bytes:
    columnar = as_column_answer(schema, node, answer).normalized()
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
