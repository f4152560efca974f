"""The cube schema: dimensions, measures, aggregates, and the fact layout.

A :class:`CubeSchema` fixes everything CURE needs to know about its input:
the ordered dimensions (order matters — BUC's decreasing-cardinality
heuristic is applied here), how many measure columns the fact table
carries, and which aggregate functions the cube materializes over them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

from repro.hierarchy.dimension import Dimension, Level
from repro.lattice.lattice import CubeLattice
from repro.lattice.node import CubeNode, NodeEnumerator
from repro.lattice.plan import (
    ExecutionShape,
    FlatShape,
    HierarchicalShape,
    walk_plan,
)
from repro.relational.aggregates import AggregateSpec, make_aggregates
from repro.relational.schema import Column, ColumnType, TableSchema

if TYPE_CHECKING:
    from repro.query.answer import NodeShape


@dataclass(frozen=True)
class CubeSchema:
    """Dimensions + measures + aggregates: the static shape of one cube.

    The fact table layout implied by a schema is ``D`` INT32 dimension-code
    columns (base-level member codes) followed by ``n_measures`` INT64
    measure columns.
    """

    dimensions: tuple[Dimension, ...]
    aggregates: tuple[AggregateSpec, ...]
    n_measures: int = 1

    def __post_init__(self) -> None:
        if not self.dimensions:
            raise ValueError("a cube schema needs at least one dimension")
        if not self.aggregates:
            raise ValueError("a cube schema needs at least one aggregate")
        if self.n_measures < 1:
            raise ValueError("a cube schema needs at least one measure")
        for spec in self.aggregates:
            if not 0 <= spec.measure_index < self.n_measures:
                raise ValueError(
                    f"aggregate {spec.name} references measure "
                    f"{spec.measure_index}, but only {self.n_measures} exist"
                )

    # -- geometry ---------------------------------------------------------

    @property
    def n_dimensions(self) -> int:
        return len(self.dimensions)

    @property
    def n_aggregates(self) -> int:
        """The paper's ``Y``: width of the aggregate vector."""
        return len(self.aggregates)

    @cached_property
    def lattice(self) -> CubeLattice:
        return CubeLattice(self.dimensions)

    @cached_property
    def enumerator(self) -> NodeEnumerator:
        return self.lattice.enumerator

    @property
    def all_distributive(self) -> bool:
        """True when every aggregate can be merged from partials."""
        return all(spec.distributive for spec in self.aggregates)

    # -- fact table layout -------------------------------------------------

    @cached_property
    def fact_schema(self) -> TableSchema:
        """Schema of the fact table: dimension codes then measures."""
        columns = [
            Column(f"d_{dimension.name}", ColumnType.INT32)
            for dimension in self.dimensions
        ]
        columns += [
            Column(f"m_{index}", ColumnType.INT64)
            for index in range(self.n_measures)
        ]
        return TableSchema(tuple(columns))

    @cached_property
    def partition_schema(self) -> TableSchema:
        """Fact layout plus the original row-id (partitions keep R-rowids)."""
        return TableSchema(
            self.fact_schema.columns + (Column("r_rowid", ColumnType.INT64),)
        )

    def dim_values(self, fact_row: tuple) -> tuple[int, ...]:
        return fact_row[: self.n_dimensions]

    def measures(self, fact_row: tuple) -> tuple[int, ...]:
        return fact_row[self.n_dimensions : self.n_dimensions + self.n_measures]

    # -- node helpers -------------------------------------------------------

    def node_id(self, node: CubeNode) -> int:
        return self.enumerator.node_id(node)

    def decode_node(self, node_id: int) -> CubeNode:
        """The node with id ``node_id``; an id out of range raises
        ``ValueError``, as :meth:`NodeEnumerator.decode` does."""
        nodes = self._nodes_by_id
        if 0 <= node_id < len(nodes):
            return nodes[node_id]
        return self.enumerator.decode(node_id)

    @cached_property
    def _nodes_by_id(self) -> tuple[CubeNode, ...]:
        """Every lattice node by id, decoded once per schema."""
        enumerator = self.enumerator
        return tuple(map(enumerator.decode, range(enumerator.n_nodes)))

    def plan_order(
        self, flat: bool = False
    ) -> tuple[tuple[CubeNode, int, int], ...]:
        """The execution plan in pre-order: ``(node, node_id, parent)``.

        ``parent`` is the position *in this tuple* of the node's plan
        parent (-1 for the root), so a consumer sweeping the tuple front
        to back has always visited a node's parent before the node — the
        order in which trivial tuples and their coverage propagate.
        Covers the P3 plan over every lattice node, or with ``flat`` the
        P1 plan over the ``2^D`` base-level nodes (FCURE).  Computed once
        per schema and shape.
        """
        cached = self._plan_orders.get(flat)
        if cached is None:
            shape: ExecutionShape = (
                FlatShape(self.lattice)
                if flat
                else HierarchicalShape(self.lattice)
            )
            cached = self._plan_orders[flat] = tuple(
                (node, self.node_id(node), parent)
                for node, parent in walk_plan(shape)
            )
        return cached

    @cached_property
    def _plan_orders(self) -> dict[bool, tuple[tuple[CubeNode, int, int], ...]]:
        return {}

    @cached_property
    def node_shapes(self) -> dict[CubeNode, NodeShape]:
        """Node → its ``repro.query.answer.NodeShape`` (query-side memo)."""
        return {}

    def project_to_node(
        self, base_codes: tuple[int, ...], node: CubeNode
    ) -> tuple[int, ...]:
        """Roll a base-code vector up to a node's levels.

        Dimensions at ALL are omitted, so the result has one value per
        grouping dimension — the shape of a cube tuple at that node.
        """
        projected = []
        for d, dimension in enumerate(self.dimensions):
            level = node.levels[d]
            if level == dimension.all_level:
                continue
            projected.append(dimension.code_at(base_codes[d], level))
        return tuple(projected)

    def count_aggregate_index(self) -> int | None:
        """Position of a COUNT aggregate, if the schema carries one.

        Iceberg count queries (Section 7) need it; ``None`` means the cube
        cannot answer them.
        """
        for index, spec in enumerate(self.aggregates):
            if spec.function.name == "count":
                return index
        return None


# -- JSON codec ------------------------------------------------------------------


def _dimension_to_json(dimension: Dimension) -> dict:
    held = dimension.member_names
    member_names = held if held is None else [
        None if names is None else list(names) for names in held
    ]
    return {
        "name": dimension.name,
        "levels": [
            {"name": level.name, "cardinality": level.cardinality}
            for level in dimension.levels
        ],
        "base_maps": [list(m) for m in dimension.base_maps],
        "parents": [list(p) for p in dimension.parents],
        "member_names": member_names,
    }


def _integer(value, field: str) -> int:
    """A schema integer (orjson reads one ≥ 2**64 as a float)."""
    if type(value) is not int:
        raise ValueError(f"field {field!r} holds {value!r}, not an integer")
    return value


def _dimension_from_json(payload: dict) -> Dimension:
    listed = payload.get("member_names")
    member_names = listed if listed is None else tuple(
        None if names is None else tuple(names) for names in listed
    )
    levels = tuple(
        Level(entry["name"], _integer(entry["cardinality"], "cardinality"))
        for entry in payload["levels"]
    )
    try:
        return Dimension(
            payload["name"],
            levels,
            tuple(tuple(m) for m in payload["base_maps"]),
            tuple(tuple(p) for p in payload["parents"]),
            member_names,
        )
    except OverflowError:
        raise ValueError(
            f"field 'base_maps' of {payload['name']!r} holds a code beyond "
            "int64"
        ) from None


def schema_to_json(schema: CubeSchema) -> dict:
    """The schema as a JSON object: what a bundle's manifest stores."""
    return {
        "dimensions": [
            _dimension_to_json(dimension) for dimension in schema.dimensions
        ],
        "aggregates": [
            [spec.function.name, spec.measure_index]
            for spec in schema.aggregates
        ],
        "n_measures": schema.n_measures,
    }


def schema_from_json(payload: dict) -> CubeSchema:
    """The inverse of :func:`schema_to_json`; raises ``ValueError``,
    ``KeyError`` or ``TypeError`` on a payload it did not write."""
    return CubeSchema(
        tuple(_dimension_from_json(d) for d in payload["dimensions"]),
        make_aggregates(
            *[(name, index) for name, index in payload["aggregates"]]
        ),
        _integer(payload["n_measures"], "n_measures"),
    )
