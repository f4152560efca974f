"""The row-at-a-time record loader, kept as a test oracle.

This is ``repro.datasets.loader.load_records`` as it stood before the
loader encoded column-wise: one pass over the records, a ``setdefault``
per level value, the child→parent check per row, one tuple per fact row
built twice (raw, then reordered by cardinality).  The differential
suite (``tests/property/test_hypothesis_loader.py``) holds the
production encoder to it.  The specs, ``LoadResult`` and the measure
conversion are the production ones — only the traversal differs.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.core.model import CubeSchema
from repro.datasets.loader import (
    DimensionDecoder,
    DimensionSpec,
    HierarchyViolation,
    LoadResult,
    MeasureSpec,
    _convert_measure,
)
from repro.hierarchy.dimension import Dimension, Level
from repro.relational.aggregates import make_aggregates
from tests.support.rows import table_of


def load_records(
    records: Iterable[dict],
    dimensions: Sequence[DimensionSpec],
    measures: Sequence[MeasureSpec | str],
    aggregates: tuple[tuple[str, int], ...] | None = None,
    order_by_cardinality: bool = True,
) -> LoadResult:
    """Encode raw records into a cube schema and fact table.

    ``aggregates`` defaults to SUM over every measure plus one COUNT.
    With ``order_by_cardinality`` (the BUC/CURE heuristic, on by default)
    dimensions are reordered by decreasing base cardinality.
    """
    if not dimensions:
        raise ValueError("at least one dimension is required")
    measure_specs = tuple(
        m if isinstance(m, MeasureSpec) else MeasureSpec.of(m)
        for m in measures
    )
    if not measure_specs:
        raise ValueError("at least one measure is required")

    # First pass: collect codes, parent maps and raw rows.
    encoders: list[list[dict[str, int]]] = [
        [{} for _ in spec.levels] for spec in dimensions
    ]
    parent_maps: list[list[dict[int, int]]] = [
        [{} for _ in spec.levels[:-1]] for spec in dimensions
    ]
    raw_rows: list[tuple] = []
    for record in records:
        codes: list[int] = []
        for d, spec in enumerate(dimensions):
            level_codes: list[int] = []
            for l, field_name in enumerate(spec.levels):
                try:
                    value = str(record[field_name])
                except KeyError:
                    raise KeyError(
                        f"record is missing field {field_name!r} "
                        f"(dimension {spec.name!r})"
                    ) from None
                mapping = encoders[d][l]
                code = mapping.setdefault(value, len(mapping))
                level_codes.append(code)
            for l in range(len(spec.levels) - 1):
                child, parent = level_codes[l], level_codes[l + 1]
                known = parent_maps[d][l].setdefault(child, parent)
                if known != parent:
                    child_value = list(encoders[d][l])[child]
                    raise HierarchyViolation(
                        f"{spec.name}.{spec.levels[l]}={child_value!r} maps "
                        f"to two different {spec.levels[l + 1]} members — "
                        "not a hierarchy"
                    )
            codes.append(level_codes[0])
        measures_row = tuple(
            _convert_measure(record[spec.field_name], spec)
            if spec.field_name in record
            else _missing_measure(spec)
            for spec in measure_specs
        )
        raw_rows.append(tuple(codes) + measures_row)

    built_dimensions = tuple(
        _build_dimension(spec, encoders[d], parent_maps[d])
        for d, spec in enumerate(dimensions)
    )
    decoders = [
        DimensionDecoder(
            spec,
            [sorted(encoders[d][l], key=encoders[d][l].get)
             for l in range(len(spec.levels))],
        )
        for d, spec in enumerate(dimensions)
    ]

    order = list(range(len(dimensions)))
    if order_by_cardinality:
        order.sort(key=lambda d: -built_dimensions[d].base_cardinality)
    ordered_dimensions = tuple(built_dimensions[d] for d in order)
    ordered_decoders = [decoders[d] for d in order]
    n_measures = len(measure_specs)
    rows = [
        tuple(row[d] for d in order) + row[len(dimensions):]
        for row in raw_rows
    ]

    if aggregates is None:
        aggregates = tuple(
            ("sum", index) for index in range(n_measures)
        ) + (("count", 0),)
    schema = CubeSchema(
        ordered_dimensions, make_aggregates(*aggregates), n_measures
    )
    return LoadResult(
        schema, table_of(schema.fact_schema, rows), ordered_decoders,
        measure_specs,
    )


def _missing_measure(spec: MeasureSpec) -> int:
    raise KeyError(f"record is missing measure field {spec.field_name!r}")


def _build_dimension(
    spec: DimensionSpec,
    level_encoders: list[dict[str, int]],
    level_parent_maps: list[dict[int, int]],
) -> Dimension:
    levels = tuple(
        Level(level_name, max(1, len(level_encoders[l])))
        for l, level_name in enumerate(spec.levels)
    )
    base_cardinality = levels[0].cardinality
    base_maps: list[tuple[int, ...]] = [tuple(range(base_cardinality))]
    for l, mapping in enumerate(level_parent_maps):
        previous = base_maps[-1]
        step = [mapping.get(code, 0) for code in range(levels[l].cardinality)]
        base_maps.append(tuple(step[previous[c]] for c in range(base_cardinality)))
    parents = tuple((l + 1,) for l in range(len(levels)))
    member_names = tuple(
        tuple(sorted(level_encoders[l], key=level_encoders[l].get))
        for l in range(len(levels))
    )
    return Dimension(spec.name, levels, tuple(base_maps), parents, member_names)
