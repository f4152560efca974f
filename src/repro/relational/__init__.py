"""A small ROLAP substrate: schemas, tables, heap files, catalog, memory.

This package implements the relational machinery that the CURE paper takes
for granted from its host engine: fixed-schema relations with row-ids, a
disk-backed heap-file format, a catalog of named relations, an accounting
memory manager that decides when data "fits in memory", and the aggregate
functions cube construction relies on.
"""

from __future__ import annotations

from repro.relational.aggregates import (
    AggregateFunction,
    AggregateSpec,
    CountAgg,
    MaxAgg,
    MinAgg,
    SumAgg,
    make_aggregates,
)
from repro.relational.batch import ColumnBatch
from repro.relational.catalog import Catalog
from repro.relational.engine import Engine
from repro.relational.heap import HeapFile
from repro.relational.memory import MemoryBudgetExceeded, MemoryManager
from repro.relational.schema import Column, ColumnType, TableSchema
from repro.relational.table import Table

__all__ = [
    "AggregateFunction",
    "AggregateSpec",
    "Catalog",
    "Column",
    "ColumnBatch",
    "ColumnType",
    "CountAgg",
    "Engine",
    "HeapFile",
    "MaxAgg",
    "MemoryBudgetExceeded",
    "MemoryManager",
    "MinAgg",
    "SumAgg",
    "Table",
    "TableSchema",
    "make_aggregates",
]
