"""Query answering over CURE cubes: node, slice, roll-up and iceberg
queries, planned and cached by :class:`CubePlanner`."""

from __future__ import annotations

from repro.query.cache import FactCache, ResultCache
from repro.query.column_answer import ColumnAnswer
from repro.query.answer import (
    QueryStats,
    answer_cure_query,
    normalize_answer,
    reference_group_by,
)
from repro.query.workload import (
    WorkloadOp,
    all_node_queries,
    bucket_queries_by_result_size,
    mixed_workload,
    random_node_queries,
)
from repro.query.planner import CubePlanner, QueryPlan, QueryRequest
from repro.query.slice import (
    DimensionSlice,
    answer_cure_sliced,
    prefilters,
    slice_mask,
)
from repro.query.rollup import base_node_of, rollup_base_answer
from repro.query.iceberg import iceberg_over_cure

__all__ = [
    "ColumnAnswer",
    "CubePlanner",
    "DimensionSlice",
    "FactCache",
    "QueryPlan",
    "QueryRequest",
    "QueryStats",
    "ResultCache",
    "WorkloadOp",
    "all_node_queries",
    "mixed_workload",
    "normalize_answer",
    "answer_cure_sliced",
    "prefilters",
    "slice_mask",
    "answer_cure_query",
    "base_node_of",
    "bucket_queries_by_result_size",
    "rollup_base_answer",
    "iceberg_over_cure",
    "random_node_queries",
    "reference_group_by",
]
