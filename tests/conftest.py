"""Shared fixtures: small schemas, fact tables, and engines."""

from __future__ import annotations

import pytest

from repro import (
    CubeSchema,
    Engine,
    Table,
    flat_dimension,
    linear_dimension,
    make_aggregates,
)
from tests.support.rows import table_of


@pytest.fixture
def paper_schema() -> CubeSchema:
    """The paper's running example: A0→A1→A2, B0→B1, C0 (24 nodes)."""
    a = linear_dimension("A", [("A0", 12), ("A1", 6), ("A2", 3)])
    b = linear_dimension("B", [("B0", 8), ("B1", 4)])
    c = linear_dimension("C", [("C0", 5)])
    return CubeSchema(
        (a, b, c), make_aggregates(("sum", 0), ("count", 0)), n_measures=1
    )


@pytest.fixture
def flat_schema() -> CubeSchema:
    """Three flat dimensions, like Figure 1/9 of the paper."""
    dims = (
        flat_dimension("A", 3),
        flat_dimension("B", 3),
        flat_dimension("C", 3),
    )
    return CubeSchema(dims, make_aggregates(("sum", 0)), n_measures=1)


@pytest.fixture
def figure9_table(flat_schema) -> Table:
    """The fact table of Figure 9a (codes are the paper's values - 1)."""
    return table_of(
        flat_schema.fact_schema,
        [
            (0, 0, 0, 10),
            (0, 0, 1, 20),
            (1, 1, 2, 40),
            (2, 1, 0, 45),
            (2, 2, 2, 45),
        ],
    )


@pytest.fixture
def engine(tmp_path) -> Engine:
    from repro.relational.catalog import Catalog
    from repro.relational.memory import MemoryManager

    built = Engine(Catalog(tmp_path / "cat"), MemoryManager())
    yield built
    built.close()


def small_fact_table(schema: CubeSchema, rows: list[tuple]) -> Table:
    return table_of(schema.fact_schema, rows)
