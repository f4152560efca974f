"""Loading real data: dictionary encoding and hierarchy derivation.

The engine works on integer member codes; real data arrives as records
with raw values ("Athens", "Greece", …).  This module bridges the two:

* a :class:`DimensionSpec` names the fields of one dimension, most
  detailed first (``["city", "country", "continent"]``);
* :func:`load_records` dictionary-encodes each base level, **derives the
  roll-up maps from the data itself** (validating that every base member
  maps to exactly one parent member — the functional dependency a
  hierarchy requires), and produces the
  :class:`~repro.core.model.CubeSchema`, the fact
  :class:`~repro.relational.table.Table`, and per-level decoders;
* :func:`load_csv` does the same for a file with a header row.

Both are readers in front of one encoder that works a column at a time:
the input is text columns and the fact table is integer columns, so no
tuple is built per row in between.  ``load_records`` transposes its
records into one chunk of columns; ``load_csv`` transposes the file
:data:`CHUNK_ROWS` rows at a time.

Measures must be integral (cube aggregates stay exact for CAT detection);
a ``scale`` per measure turns fixed-point decimals like ``12.34`` into
integers losslessly.
"""

from __future__ import annotations

import csv
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import TextIO

import numpy as np

from repro.core.model import CubeSchema
from repro.hierarchy.dimension import Dimension, Level
from repro.relational.aggregates import make_aggregates
from repro.relational.table import Table


class HierarchyViolation(ValueError):
    """A base member mapped to two different parents (no hierarchy)."""


@dataclass(frozen=True)
class DimensionSpec:
    """The record fields making up one dimension, most detailed first."""

    name: str
    levels: tuple[str, ...]

    @classmethod
    def of(cls, name: str, *levels: str) -> "DimensionSpec":
        if not levels:
            raise ValueError(f"dimension {name!r} needs at least one level")
        return cls(name, tuple(levels))


@dataclass(frozen=True)
class MeasureSpec:
    """One measure field; ``scale`` multiplies before integer conversion."""

    field_name: str
    scale: int = 1

    @classmethod
    def of(cls, field_name: str, scale: int = 1) -> "MeasureSpec":
        if scale < 1:
            raise ValueError("measure scale must be a positive integer")
        return cls(field_name, scale)


@dataclass
class DimensionDecoder:
    """Per-level code → raw value mappings for one dimension."""

    spec: DimensionSpec
    members: list[list[str]]  # members[level][code] = raw value

    def decode(self, level: int, code: int) -> str:
        return self.members[level][code]

    def encode(self, level: int, value: str) -> int:
        try:
            return self.members[level].index(value)
        except ValueError:
            raise KeyError(
                f"{value!r} is not a member of "
                f"{self.spec.name}.{self.spec.levels[level]}"
            ) from None


@dataclass
class LoadResult:
    """Everything :func:`load_records` produces."""

    schema: CubeSchema
    table: Table
    decoders: list[DimensionDecoder]
    measures: tuple[MeasureSpec, ...]

    def decoder(self, dimension_name: str) -> DimensionDecoder:
        for decoder in self.decoders:
            if decoder.spec.name == dimension_name:
                return decoder
        raise KeyError(f"no dimension named {dimension_name!r}")


def _convert_measure(raw, spec: MeasureSpec) -> int:
    if isinstance(raw, bool):
        raise TypeError(f"measure {spec.field_name!r} is boolean")
    if isinstance(raw, int):
        return raw * spec.scale
    text = str(raw).strip()
    try:
        return int(text) * spec.scale
    except ValueError:
        pass
    value = float(text) * spec.scale
    rounded = round(value)
    if abs(value - rounded) > 1e-9:
        raise ValueError(
            f"measure {spec.field_name!r} value {raw!r} is not integral at "
            f"scale {spec.scale}; increase the scale"
        )
    return rounded


#: Text rows a reader holds at once.  A parsed row costs about 1 KB as
#: Python strings (twenty-five times its 40 encoded bytes), so the text in
#: flight, not the table being built, is what a load's memory peak is made
#: of: 2 MB a chunk here, where the whole of a 24,000-row file was 22 MB.
CHUNK_ROWS = 2048

#: One chunk of input, transposed: ``levels[d][l]`` is the text column of
#: level ``l`` of dimension ``d``, ``measures[m]`` the raw column of
#: measure ``m``; every column has one entry per row of the chunk.
ColumnChunk = tuple[Sequence[Sequence[Sequence[str]]], Sequence[Sequence]]


class _LevelEncoder:
    """The dictionary of one level, codes in first-appearance order, and
    the level's code column, chunk by chunk."""

    def __init__(self) -> None:
        self.codes: dict[str, int] = {}
        self._parts: list[np.ndarray] = []

    def add(self, values: Sequence[str]) -> None:
        codes = self.codes
        for value in dict.fromkeys(values):
            codes.setdefault(value, len(codes))
        self._parts.append(
            np.fromiter(
                map(codes.__getitem__, values),
                dtype=np.int32,
                count=len(values),
            )
        )

    def column(self) -> np.ndarray:
        return _concatenated(self._parts, np.int32)


def _concatenated(parts: list[np.ndarray], dtype: type) -> np.ndarray:
    return np.concatenate(parts) if parts else np.empty(0, dtype=dtype)


def _parent_step(
    spec: DimensionSpec,
    level: int,
    members: list[str],
    child: np.ndarray,
    parent: np.ndarray,
) -> np.ndarray:
    """``step[child code] = parent code``, or :class:`HierarchyViolation`.

    Every child takes the parent of its first row (the reversed
    assignment lets the earliest row win); one comparison then finds the
    first row that disagrees with it.
    """
    step = np.zeros(max(1, len(members)), dtype=np.int64)
    step[child[::-1]] = parent[::-1]
    disagree = step[child] != parent
    if disagree.any():
        child_value = members[child[int(np.argmax(disagree))]]
        raise HierarchyViolation(
            f"{spec.name}.{spec.levels[level]}={child_value!r} maps "
            f"to two different {spec.levels[level + 1]} members — "
            "not a hierarchy"
        )
    return step


def _build_dimension(
    spec: DimensionSpec, encoders: Sequence[_LevelEncoder]
) -> tuple[Dimension, DimensionDecoder, np.ndarray]:
    """One dimension from its encoded levels: the
    :class:`~repro.hierarchy.dimension.Dimension` (roll-up maps derived
    from the data), its decoder, and the base-level code column."""
    members = [list(encoder.codes) for encoder in encoders]
    columns = [encoder.column() for encoder in encoders]
    levels = tuple(
        Level(level_name, max(1, len(level_members)))
        for level_name, level_members in zip(spec.levels, members)
    )
    base_map = np.arange(levels[0].cardinality, dtype=np.int64)
    base_maps = [base_map]
    for l in range(len(levels) - 1):
        step = _parent_step(spec, l, members[l], columns[l], columns[l + 1])
        base_map = step[base_map]
        base_maps.append(base_map)
    dimension = Dimension(
        spec.name,
        levels,
        tuple(tuple(base_map.tolist()) for base_map in base_maps),
        tuple((l + 1,) for l in range(len(levels))),
        tuple(map(tuple, members)),
    )
    return dimension, DimensionDecoder(spec, members), columns[0]


def _measure_column(values: Sequence, spec: MeasureSpec) -> np.ndarray:
    """One measure column as int64, scaled.

    ``int`` over the whole column is the fast path.  It agrees with
    :func:`_convert_measure` on ``int`` values and integer literals and
    on nothing else (it would truncate a float and accept a bool), so a
    column holding any other type, or a string ``int`` rejects, goes
    through :func:`_convert_measure` value by value.
    """
    converted = None
    if set(map(type, values)) <= {str, int}:
        try:
            converted = list(map(int, values))
        except ValueError:
            pass
        else:
            if spec.scale != 1:
                converted = [value * spec.scale for value in converted]
    if converted is None:
        converted = [_convert_measure(value, spec) for value in values]
    return np.array(converted, dtype=np.int64)


def _encode_columns(
    chunks: Iterable[ColumnChunk],
    dimensions: Sequence[DimensionSpec],
    measure_specs: tuple[MeasureSpec, ...],
    aggregates: tuple[tuple[str, int], ...] | None,
    order_by_cardinality: bool,
) -> LoadResult:
    """The one encoder behind :func:`load_records` and :func:`load_csv`."""
    encoders = [[_LevelEncoder() for _ in spec.levels] for spec in dimensions]
    measure_parts: list[list[np.ndarray]] = [[] for _ in measure_specs]
    for level_values, measure_values in chunks:
        for dimension_encoders, columns in zip(encoders, level_values):
            for encoder, values in zip(dimension_encoders, columns):
                encoder.add(values)
        for parts, values, spec in zip(
            measure_parts, measure_values, measure_specs
        ):
            parts.append(_measure_column(values, spec))
    built, decoders, base_columns = zip(
        *(
            _build_dimension(spec, dimension_encoders)
            for spec, dimension_encoders in zip(dimensions, encoders)
        )
    )
    order = list(range(len(dimensions)))
    if order_by_cardinality:
        order.sort(key=lambda d: -built[d].base_cardinality)
    n_measures = len(measure_specs)
    if aggregates is None:
        aggregates = tuple(
            ("sum", index) for index in range(n_measures)
        ) + (("count", 0),)
    schema = CubeSchema(
        tuple(built[d] for d in order),
        make_aggregates(*aggregates),
        n_measures,
    )
    arrays = [base_columns[d] for d in order] + [
        _concatenated(parts, np.int64) for parts in measure_parts
    ]
    return LoadResult(
        schema,
        Table.from_columns(schema.fact_schema, arrays),
        [decoders[d] for d in order],
        measure_specs,
    )


def _checked_specs(
    dimensions: Sequence[DimensionSpec], measures: Sequence[MeasureSpec | str]
) -> tuple[MeasureSpec, ...]:
    if not dimensions:
        raise ValueError("at least one dimension is required")
    measure_specs = tuple(
        m if isinstance(m, MeasureSpec) else MeasureSpec.of(m)
        for m in measures
    )
    if not measure_specs:
        raise ValueError("at least one measure is required")
    return measure_specs


def _gather_columns(
    column: Callable[[str], Sequence],
    dimensions: Sequence[DimensionSpec],
    measure_specs: tuple[MeasureSpec, ...],
) -> ColumnChunk:
    """Every level and measure column, through a reader's ``column(field)``
    (which raises ``KeyError`` for a field the input does not carry)."""

    def fetch(field_name: str, what: str) -> Sequence:
        try:
            return column(field_name)
        except KeyError:
            raise KeyError(f"record is missing {what}") from None

    level_values = [
        [
            fetch(name, f"field {name!r} (dimension {spec.name!r})")
            for name in spec.levels
        ]
        for spec in dimensions
    ]
    measure_values = [
        fetch(spec.field_name, f"measure field {spec.field_name!r}")
        for spec in measure_specs
    ]
    return level_values, measure_values


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
    measure_specs = _checked_specs(dimensions, measures)
    records = list(records)
    level_values, measure_values = _gather_columns(
        lambda field_name: [record[field_name] for record in records],
        dimensions,
        measure_specs,
    )
    texts = [
        [list(map(str, values)) for values in levels]
        for levels in level_values
    ]
    return _encode_columns(
        [(texts, measure_values)],
        dimensions,
        measure_specs,
        aggregates,
        order_by_cardinality,
    )


def _ragged_row(handle: TextIO, path: str | Path, width: int) -> ValueError:
    """The error for the first data row whose field count is not ``width``
    (found by re-reading: only the reader knows a row's line number)."""
    handle.seek(0)
    reader = csv.reader(handle)
    next(reader)
    for row in reader:
        if row and len(row) != width:
            return ValueError(
                f"{path}: line {reader.line_num} has {len(row)} fields, "
                f"the header has {width}"
            )
    # Only a file rewritten between the two reads gets here.
    return ValueError(f"{path}: a row does not have the header's {width} fields")


def _csv_chunks(
    handle: TextIO,
    path: str | Path,
    dimensions: Sequence[DimensionSpec],
    measure_specs: tuple[MeasureSpec, ...],
) -> Iterator[ColumnChunk]:
    """The file's data rows, :data:`CHUNK_ROWS` at a time, transposed."""
    reader = csv.reader(handle)
    header = next(reader, [])
    positions = {name: position for position, name in enumerate(header)}
    while rows := list(islice(reader, CHUNK_ROWS)):
        widths = set(map(len, rows))
        if widths - {0, len(header)}:
            raise _ragged_row(handle, path, len(header))
        if 0 in widths:
            rows = list(filter(None, rows))
            if not rows:
                continue
        columns = list(zip(*rows))
        yield _gather_columns(
            lambda field_name: columns[positions[field_name]],
            dimensions,
            measure_specs,
        )


def load_csv(
    path: str | Path,
    dimensions: Sequence[DimensionSpec],
    measures: Sequence[MeasureSpec | str],
    aggregates: tuple[tuple[str, int], ...] | None = None,
    order_by_cardinality: bool = True,
) -> LoadResult:
    """Load a CSV file with a header row (see :func:`load_records`).

    Blank lines are skipped; any other data row must have exactly the
    header's number of fields (``ValueError`` naming the line).
    """
    measure_specs = _checked_specs(dimensions, measures)
    with open(path, newline="") as handle:
        return _encode_columns(
            _csv_chunks(handle, path, dimensions, measure_specs),
            dimensions,
            measure_specs,
            aggregates,
            order_by_cardinality,
        )
