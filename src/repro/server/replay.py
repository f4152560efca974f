"""Workload replay: the library side of the HTTP differential.

A :class:`~repro.query.workload.WorkloadOp` can be answered two ways:

* **over HTTP** — :func:`op_path` renders the op as the URL the
  :class:`~repro.server.app.SlicerApp` routes;
* **in process** — :func:`execute_op` answers it with the query-layer
  primitives directly (planner for node/slice, explicit
  :func:`rollup_base_answer` / :func:`iceberg_over_cure` for the rest)
  and :func:`encode_op` renders the result through the same canonical
  encoder the server uses.

The differential harness and ``benchmarks/bench_serve.py`` assert the
two byte streams are identical, op for op — which is what locks the
serving layer to the library: routing, parameter parsing, planner
strategy choice, shared-cache reuse and JSON rendering all have to agree
with a fresh in-process computation to pass.
"""

from __future__ import annotations

from urllib.parse import urlencode

from repro.query.column_answer import ColumnAnswer
from repro.query.iceberg import iceberg_over_cure
from repro.query.planner import CubePlanner, QueryRequest
from repro.query.rollup import base_node_of, rollup_base_answer
from repro.query.workload import WorkloadOp
from repro.server.app import canonical_slices, slice_params
from repro.server.encoding import encode_answer


def op_path(schema, op: WorkloadOp) -> str:
    """The server URL answering ``op`` (canonical parameter order)."""
    node_id = schema.node_id(op.node)
    if op.kind == "node":
        return f"/node/{node_id}"
    if op.kind == "slice":
        clauses = [
            f"{item.dim}.{item.level}:"
            + "|".join(str(m) for m in sorted(item.members))
            for item in canonical_slices(op.slices)
        ]
        return f"/slice/{node_id}?" + urlencode(
            [("where", clause) for clause in clauses]
        )
    if op.kind == "rollup":
        return f"/rollup/{node_id}"
    if op.kind == "iceberg":
        return f"/iceberg/{node_id}?" + urlencode([("min", op.min_count)])
    raise ValueError(f"unknown workload op kind {op.kind!r}")


def execute_op(planner: CubePlanner, op: WorkloadOp) -> ColumnAnswer:
    """Answer ``op`` in process, mirroring the server's semantics."""
    schema = planner.storage.schema
    if op.kind == "node":
        return planner.answer(QueryRequest.of(op.node))
    if op.kind == "slice":
        return planner.answer(
            QueryRequest(op.node, canonical_slices(op.slices))
        )
    if op.kind == "rollup":
        base = base_node_of(schema, op.node)
        return rollup_base_answer(
            schema, planner.answer(QueryRequest.of(base)), op.node
        )
    if op.kind == "iceberg":
        return iceberg_over_cure(
            planner.storage, planner.cache, op.node, op.min_count
        )
    raise ValueError(f"unknown workload op kind {op.kind!r}")


def encode_op(schema, op: WorkloadOp, answer: ColumnAnswer) -> bytes:
    """Render an in-process answer exactly as the server would."""
    if op.kind == "slice":
        return encode_answer(
            schema,
            op.node,
            answer,
            kind="slice",
            params={"where": slice_params(canonical_slices(op.slices))},
        )
    if op.kind == "iceberg":
        return encode_answer(
            schema,
            op.node,
            answer,
            kind="iceberg",
            params={"min_count": op.min_count},
        )
    return encode_answer(schema, op.node, answer, kind=op.kind)


def replay_op(planner: CubePlanner, op: WorkloadOp) -> bytes:
    """One-call library replay: execute then canonically encode."""
    return encode_op(
        planner.storage.schema, op, execute_op(planner, op)
    )
