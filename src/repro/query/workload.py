"""Query workloads used by the paper's evaluation.

Section 7 uses two workload shapes:

* "1,000 random node queries, which perform no selection" for the real
  datasets (Figure 16) — :func:`random_node_queries`;
* "all possible (168) node queries in APB-1 … separated into ten
  equal-sized sets … ordering the queries according to the number of
  tuples they return" (Figure 25) — :func:`all_node_queries` plus
  :func:`bucket_queries_by_result_size`.

Beyond the paper, :func:`mixed_workload` generates the serving-layer
replay mix: a seeded stream of :class:`WorkloadOp` items whose target
nodes follow a Zipf popularity (real OLAP dashboards hammer a few hot
group-bys) and whose kinds — plain node reads, member-sliced requests,
on-the-fly roll-ups and count-iceberg queries — come in configurable
proportions.  The serving benchmark and the HTTP-vs-library differential
harness both replay these ops.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass

from repro.core.model import CubeSchema
from repro.lattice.node import CubeNode
from repro.query.planner import QueryRequest
from repro.query.slice import DimensionSlice


def random_node_queries(
    schema: CubeSchema, n: int, seed: int = 11, flat: bool = False
) -> list[CubeNode]:
    """``n`` uniformly random node queries (repeats allowed, as any random
    workload would produce).

    With ``flat=True`` only the base-level ``2^D`` nodes are drawn, which
    matches the flat-cube experiments.
    """
    rng = random.Random(seed)
    if flat:
        nodes = list(schema.lattice.flat_nodes())
        return [nodes[rng.randrange(len(nodes))] for _ in range(n)]
    total = schema.enumerator.n_nodes
    return [schema.decode_node(rng.randrange(total)) for _ in range(n)]


def all_node_queries(schema: CubeSchema, flat: bool = False) -> list[CubeNode]:
    """Every node of the lattice, in node-id order."""
    if flat:
        return list(schema.lattice.flat_nodes())
    return list(schema.lattice.nodes())


@dataclass(frozen=True)
class WorkloadOp:
    """One serving-layer request: a kind, a target node, and parameters.

    ``kind`` is ``"node"`` (plain node read), ``"slice"`` (node read
    under member predicates), ``"rollup"`` (explicit on-the-fly roll-up
    from the base-level node) or ``"iceberg"`` (count filter at
    ``min_count``).  ``slices`` is only populated for slice ops and
    ``min_count`` only meaningful for iceberg ops.
    """

    kind: str
    node: CubeNode
    slices: tuple[DimensionSlice, ...] = ()
    min_count: int = 2

    def request(self) -> QueryRequest:
        """The planner request this op asks."""
        kind = "node" if self.kind == "slice" else self.kind
        min_count = self.min_count if kind == "iceberg" else None
        return QueryRequest(self.node, self.slices, kind, min_count)


#: The default serving mix: mostly node reads, a quarter sliced, the
#: rest roll-ups and icebergs — the shape of a browse-heavy dashboard.
DEFAULT_MIX: tuple[tuple[str, float], ...] = (
    ("node", 0.50),
    ("slice", 0.25),
    ("rollup", 0.15),
    ("iceberg", 0.10),
)


def _zipf_chooser(rng: random.Random, n: int, s: float):
    """A seeded draw over ``n`` items with Zipf(s) popularity.

    Which item is "hot" is itself seeded (a shuffled rank assignment),
    so two workloads with different seeds hammer different nodes.
    """
    ranked = list(range(n))
    rng.shuffle(ranked)
    cumulative: list[float] = []
    total = 0.0
    for rank in range(n):
        total += 1.0 / (rank + 1) ** s
        cumulative.append(total)
    return lambda: ranked[
        min(bisect_left(cumulative, rng.random() * total), n - 1)
    ]


def mixed_workload(
    schema: CubeSchema,
    n: int,
    seed: int = 11,
    mix: tuple[tuple[str, float], ...] = DEFAULT_MIX,
    zipf_s: float = 1.1,
    max_slice_members: int = 3,
    min_count_range: tuple[int, int] = (2, 4),
) -> list[WorkloadOp]:
    """``n`` seeded serving requests with Zipf node popularity.

    Node targets are drawn Zipf(``zipf_s``)-distributed over the lattice
    (hot nodes repeat, the tail is long); the op kind follows ``mix``.
    Slice ops restrict one randomly chosen grouping dimension to a small
    member set at the node's own level; roll-up ops target coarse
    (above-base) levels so the server must re-aggregate; iceberg ops draw
    ``min_count`` from ``min_count_range``.  Kinds that the schema cannot
    answer are renormalized away: iceberg needs a COUNT aggregate,
    roll-up needs all-distributive aggregates.
    """
    rng = random.Random(seed)
    usable = []
    for kind, weight in mix:
        if kind == "iceberg" and schema.count_aggregate_index() is None:
            continue
        if kind == "rollup" and not schema.all_distributive:
            continue
        if weight > 0:
            usable.append((kind, weight))
    if not usable:
        raise ValueError("the mix leaves no op kind this schema can answer")
    kind_total = sum(weight for _kind, weight in usable)
    draw_node = _zipf_chooser(rng, schema.enumerator.n_nodes, zipf_s)

    def draw_kind() -> str:
        needle = rng.random() * kind_total
        acc = 0.0
        for kind, weight in usable:
            acc += weight
            if needle <= acc:
                return kind
        return usable[-1][0]

    ops: list[WorkloadOp] = []
    for _ in range(n):
        kind = draw_kind()
        node = schema.decode_node(draw_node())
        if kind == "slice":
            grouping = node.grouping_dims(schema.dimensions)
            if not grouping:
                ops.append(WorkloadOp("node", node))
                continue
            dim = grouping[rng.randrange(len(grouping))]
            level = node.levels[dim]
            cardinality = schema.dimensions[dim].level(level).cardinality
            k = rng.randint(1, min(max_slice_members, cardinality))
            members = rng.sample(range(cardinality), k)
            ops.append(
                WorkloadOp(
                    "slice",
                    node,
                    (DimensionSlice.of(dim, level, members),),
                )
            )
        elif kind == "rollup":
            levels = tuple(
                rng.randint(1, dimension.n_levels_with_all - 1)
                for dimension in schema.dimensions
            )
            ops.append(WorkloadOp("rollup", CubeNode(levels)))
        elif kind == "iceberg":
            lo, hi = min_count_range
            ops.append(WorkloadOp("iceberg", node, min_count=rng.randint(lo, hi)))
        else:
            ops.append(WorkloadOp("node", node))
    return ops


def bucket_queries_by_result_size(
    queries: list[CubeNode],
    result_sizes: list[int],
    n_buckets: int = 10,
) -> list[list[CubeNode]]:
    """Order queries by result size and split into equal-sized buckets.

    The first bucket holds the smallest queries, mirroring Figure 25's
    x-axis ("maximum number of tuples in result").  When the query count
    does not divide evenly the early buckets get the extra members.
    """
    if len(queries) != len(result_sizes):
        raise ValueError("one result size per query is required")
    if n_buckets < 1:
        raise ValueError("need at least one bucket")
    ordered = [
        query
        for _size, _index, query in sorted(
            zip(result_sizes, range(len(queries)), queries)
        )
    ]
    buckets: list[list[CubeNode]] = []
    base, extra = divmod(len(ordered), n_buckets)
    start = 0
    for index in range(n_buckets):
        size = base + (1 if index < extra else 0)
        buckets.append(ordered[start : start + size])
        start += size
    return buckets
