"""Differential property: the column-wise loader against the row oracle.

``repro.datasets.loader.load_records`` (transpose once, encode a column at
a time) and ``tests.support.row_loader.load_records`` (the loader it
replaced: one record, one ``setdefault`` and one parent check at a time)
are run over the same random records.  They must agree on everything a
load produces — the ``CubeSchema`` (levels, ``base_maps``, member names,
aggregates), the decoders, the measure specs and the fact columns — and,
for an input with one defect (a missing field, a child with two parents,
a measure that is not integral at its scale, a boolean measure), raise
the same exception *type* with the same message.

An input with several defects may be rejected for a different one by each
loader: the oracle reports the first bad *record*, the column encoder the
first bad *column* (missing fields, then hierarchy violations dimension
by dimension, then measures).  Both reject it, possibly with different
types; the examples here carry at most one defect so that they are
comparable.

Shapes covered: linear and flat dimensions, one to three of them;
``order_by_cardinality`` on and off (ties included); integer, numeric
string, float and scaled fixed-point measures; default and explicit
aggregates; non-string level values (``str()`` is the member); the empty
record set.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.datasets.loader import (
    DimensionSpec,
    HierarchyViolation,
    MeasureSpec,
    load_records,
)
from repro.relational.batch import column_dtype
from tests.support import row_loader
from tests.support.rows import rows_of

AGGREGATE_CHOICES = (
    None,
    (("sum", 0), ("count", 0)),
    (("max", 0), ("min", 0), ("sum", 0)),
)


@st.composite
def dimension_case(draw, index: int):
    """One dimension: its spec and a function from a base code to the
    record fields of that member (children grouped under parents)."""
    n_levels = draw(st.integers(1, 3))
    cardinality = draw(st.integers(1, 6))
    spec = DimensionSpec.of(
        f"D{index}", *(f"d{index}l{level}" for level in range(n_levels))
    )
    # Level l's member of a base code: integer division groups children,
    # so every child has exactly one parent.
    divisors = [1]
    for _ in range(n_levels - 1):
        divisors.append(divisors[-1] * draw(st.integers(1, 3)))
    as_text = draw(st.booleans())

    def fields(code: int) -> dict:
        values = {}
        for level, field_name in enumerate(spec.levels):
            member = code // divisors[level]
            values[field_name] = f"m{member}" if as_text else member
        return values

    return spec, cardinality, fields


@st.composite
def measure_case(draw, index: int):
    """One measure: its spec and a strategy for raw values that are
    integral at its scale."""
    scale = draw(st.sampled_from([1, 1, 10, 100]))
    spec = MeasureSpec.of(f"v{index}", scale)
    whole = st.integers(-10_000, 10_000)
    kinds = [whole, whole.map(str), whole.map(lambda v: f" {v} ")]
    if scale > 1:
        digits = len(str(scale)) - 1
        kinds.append(
            st.tuples(st.integers(0, 999), st.integers(0, scale - 1)).map(
                lambda parts: f"{parts[0]}.{parts[1]:0{digits}d}"
            )
        )
        kinds.append(whole.map(lambda v: v / scale))  # a float, not whole
    else:
        kinds.append(whole.map(float))
    return spec, st.one_of(*kinds)


@st.composite
def load_case(draw):
    n_dims = draw(st.integers(1, 3))
    dims = [draw(dimension_case(index)) for index in range(n_dims)]
    n_measures = draw(st.integers(1, 2))
    measures = [draw(measure_case(index)) for index in range(n_measures)]
    n_records = draw(st.integers(0, 25))
    records = []
    for _ in range(n_records):
        record = {}
        for _spec, cardinality, fields in dims:
            record.update(fields(draw(st.integers(0, cardinality - 1))))
        for spec, values in measures:
            record[spec.field_name] = draw(values)
        records.append(record)
    aggregates = draw(st.sampled_from(AGGREGATE_CHOICES))
    defect = draw(
        st.sampled_from(
            [None, None, "missing", "hierarchy", "measure", "boolean"]
        )
    )
    expected_error = None
    if defect and records:
        victim = records[draw(st.integers(0, len(records) - 1))]
        if defect == "missing":
            del victim[draw(st.sampled_from(sorted(victim)))]
            expected_error = KeyError
        elif defect == "measure":
            spec, _values = measures[draw(st.integers(0, n_measures - 1))]
            victim[spec.field_name] = "0.5" if spec.scale == 1 else "0.0005"
            expected_error = ValueError
        elif defect == "boolean":
            spec, _values = measures[draw(st.integers(0, n_measures - 1))]
            victim[spec.field_name] = True
            expected_error = TypeError
        else:
            deep = [spec for spec, _c, _f in dims if len(spec.levels) > 1]
            if deep:
                spec = draw(st.sampled_from(deep))
                level = draw(st.integers(1, len(spec.levels) - 1))
                # The same child appears again under a brand-new parent.
                records.append({**victim, spec.levels[level]: "elsewhere"})
                expected_error = HierarchyViolation
    return (
        records,
        [spec for spec, _c, _f in dims],
        [spec for spec, _v in measures],
        aggregates,
        draw(st.booleans()),
        expected_error,
    )


def assert_same_load(got, expected) -> None:
    assert got.schema.n_measures == expected.schema.n_measures
    assert [
        (spec.function.name, spec.measure_index)
        for spec in got.schema.aggregates
    ] == [
        (spec.function.name, spec.measure_index)
        for spec in expected.schema.aggregates
    ]
    assert len(got.schema.dimensions) == len(expected.schema.dimensions)
    for ours, theirs in zip(got.schema.dimensions, expected.schema.dimensions):
        assert ours.name == theirs.name
        assert ours.levels == theirs.levels
        assert ours.base_maps == theirs.base_maps
        assert ours.parents == theirs.parents
        assert ours.member_names == theirs.member_names
    assert got.decoders == expected.decoders
    assert got.measures == expected.measures
    assert got.table.schema == expected.table.schema
    assert rows_of(got.table) == rows_of(expected.table)
    batch = got.table.as_batch()
    for column, array in zip(batch.schema.columns, batch.arrays):
        assert array.dtype == column_dtype(column.type)
        assert array.shape == (len(expected.table),)


@settings(max_examples=300, deadline=None)
@given(load_case())
def test_column_loader_matches_row_oracle(case):
    records, dimensions, measures, aggregates, ordered, expected_error = case
    arguments = (records, dimensions, measures, aggregates, ordered)
    if expected_error is not None:
        with pytest.raises(expected_error) as theirs:
            row_loader.load_records(*arguments)
        with pytest.raises(expected_error) as ours:
            load_records(*arguments)
        assert type(ours.value) is type(theirs.value)
        # With a single defect there is no order to disagree on.
        assert str(ours.value) == str(theirs.value)
        return
    assert_same_load(
        load_records(*arguments), row_loader.load_records(*arguments)
    )

