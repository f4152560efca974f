"""Workload replay: the library side of the HTTP differential.

A :class:`~repro.query.workload.WorkloadOp` can be answered two ways:

* **over HTTP** — :func:`op_path` renders the op as the URL the
  :class:`~repro.server.app.SlicerApp` routes;
* **in process** — :func:`execute_op` answers the op's
  :class:`~repro.query.planner.QueryRequest` through
  :meth:`CubePlanner.answer <repro.query.planner.CubePlanner.answer>`,
  the request path the server takes too, and :func:`encode_op` renders
  it through :func:`~repro.server.encoding.encode_request`, the
  server's encoder.

The differential harness and ``benchmarks/bench_serve.py`` assert the
two byte streams are identical, op for op — which locks routing and
parameter parsing to the library.  Since both sides share the planner,
the checks that stay independent of it are the encoder pin, the
row-engine comparison and the definition-based iceberg check
(``docs/serving.md``).
"""

from __future__ import annotations

from urllib.parse import urlencode

from repro.query.column_answer import ColumnAnswer
from repro.query.planner import CubePlanner
from repro.query.workload import WorkloadOp
from repro.server.encoding import encode_request


def op_path(schema, op: WorkloadOp) -> str:
    """The server URL answering ``op`` (canonical parameter order)."""
    request = op.request()
    query = [
        ("where", f"{item.dim}.{item.level}:" + "|".join(map(str, sorted(item.members))))
        for item in request.slices
    ]
    if request.min_count is not None:
        query.append(("min", request.min_count))
    path = f"/{op.kind}/{schema.node_id(op.node)}"
    return f"{path}?{urlencode(query)}" if query else path


def execute_op(planner: CubePlanner, op: WorkloadOp) -> ColumnAnswer:
    """Answer ``op`` in process, through the server's request path."""
    return planner.answer(op.request())


def encode_op(schema, op: WorkloadOp, answer: ColumnAnswer) -> bytes:
    """Render an in-process answer exactly as the server would."""
    return encode_request(schema, op.request(), answer)


def replay_op(planner: CubePlanner, op: WorkloadOp) -> bytes:
    """One-call library replay: execute then canonically encode."""
    return encode_op(
        planner.storage.schema, op, execute_op(planner, op)
    )
