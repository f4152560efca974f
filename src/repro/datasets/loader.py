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
* :func:`load_csv` does the same for a UTF-8, RFC 4180 file with a
  header row.

Both are readers in front of one encoder that works a column at a time:
each chunk of input arrives as, per level, its distinct members in
first-appearance order plus each row's index into them, and, per
measure, an int64 column; the encoder merges the members into one
dictionary per level.  No tuple is built per row in between.
``load_records`` transposes its records into one such chunk.
``load_csv`` reads the file's bytes a block of :data:`CHUNK_BYTES` at a
time and never holds a row as Python objects: numpy finds the fields
(comma and line-feed masks, quote parity from the positions of ``"``),
each level field becomes one or more ``uint64`` words gathered from the
block, one sort groups equal words, and Python touches each distinct
member once per block; integer measures are parsed eight digits a word.

Measures must be integral (cube aggregates stay exact for CAT detection);
a ``scale`` per measure turns fixed-point decimals like ``12.34`` into
integers losslessly.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, TypeVar

import numpy as np

from repro.core.model import CubeSchema
from repro.hierarchy.dimension import Dimension, Level
from repro.relational.aggregates import make_aggregates
from repro.relational.table import Table


T = TypeVar("T")


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


#: Bytes a CSV reader takes from the file at once.  A block is cut after
#: its last line end outside quotes (the partial row waits for the next
#: block; a row longer than a block extends it), so the text in flight is
#: one block and its field index, whatever the size of the file.  At
#: 256 KiB that peaks no higher than the 2,048 rows of Python strings the
#: row reader held; 1 MiB blocks loaded 4 % faster and cost 3 MB more.
CHUNK_BYTES = 1 << 18

#: One chunk of input, dictionary-encoded: ``levels[d][l]`` is level
#: ``l`` of dimension ``d`` as its distinct members in first-appearance
#: order and each row's index into them; ``measures[m]`` is measure
#: ``m``'s int64 column.  Every column has one entry per row of the chunk.
EncodedChunk = tuple[
    Sequence[Sequence[tuple[list[str], np.ndarray]]], Sequence[np.ndarray]
]


class _LevelEncoder:
    """The dictionary of one level, codes in first-appearance order, and
    the level's code column, chunk by chunk."""

    def __init__(self) -> None:
        self.codes: dict[str, int] = {}
        self._parts: list[np.ndarray] = []

    def add(self, distinct: list[str], local: np.ndarray) -> None:
        """Merge a chunk's distinct members (touched once each) and append
        its rows' codes."""
        codes = self.codes
        lookup = np.fromiter(
            (codes.setdefault(value, len(codes)) for value in distinct),
            dtype=np.int32,
            count=len(distinct),
        )
        self._parts.append(lookup[local])

    def column(self) -> np.ndarray:
        return _concatenated(self._parts, np.int32)


def _text_dictionary(values: Sequence[str]) -> tuple[list[str], np.ndarray]:
    """A text column's distinct values in first-appearance order and each
    value's index into them."""
    index = dict.fromkeys(values)
    for position, value in enumerate(index):
        index[value] = position
    local = np.fromiter(map(index.__getitem__, values), np.int32, len(values))
    return list(index), local


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
    chunks: Iterable[EncodedChunk],
    dimensions: Sequence[DimensionSpec],
    measure_specs: tuple[MeasureSpec, ...],
    aggregates: tuple[tuple[str, int], ...] | None,
    order_by_cardinality: bool,
) -> LoadResult:
    """The one encoder behind :func:`load_records` and :func:`load_csv`."""
    encoders = [[_LevelEncoder() for _ in spec.levels] for spec in dimensions]
    measure_parts: list[list[np.ndarray]] = [[] for _ in measure_specs]
    for level_columns, measure_columns in chunks:
        for dimension_encoders, columns in zip(encoders, level_columns):
            for encoder, (distinct, local) in zip(dimension_encoders, columns):
                encoder.add(distinct, local)
        for parts, column in zip(measure_parts, measure_columns):
            parts.append(column)
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
    column: Callable[[str], T],
    dimensions: Sequence[DimensionSpec],
    measure_specs: tuple[MeasureSpec, ...],
) -> tuple[list[list[T]], list[T]]:
    """Every level and measure column, through a reader's ``column(field)``
    (which raises ``KeyError`` for a field the input does not carry)."""

    def fetch(field_name: str, what: str) -> T:
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
    chunk = (
        [
            [_text_dictionary(list(map(str, values))) for values in levels]
            for levels in level_values
        ],
        [
            _measure_column(values, spec)
            for values, spec in zip(measure_values, measure_specs)
        ],
    )
    return _encode_columns(
        [chunk],
        dimensions,
        measure_specs,
        aggregates,
        order_by_cardinality,
    )


_BOM = b"\xef\xbb\xbf"
_QUOTE, _COMMA, _LF, _CR, _MINUS, _ZERO = b'",\n\r-0'
#: ``_MASKS[n]`` keeps the first ``n`` bytes of a little-endian word.
_MASKS = np.array([(1 << (8 * n)) - 1 for n in range(9)], dtype=np.uint64)
#: Most digits a vectorized measure may have: 10**18 - 1 fits an int64.
_MAX_DIGITS = 18
_LOW_NIBBLES = np.uint64(0x0F0F0F0F0F0F0F0F)
_HIGH_NIBBLES = ~_LOW_NIBBLES
_ASCII_ZEROS = np.uint64(0x3030303030303030)
_SIXES = np.uint64(0x0606060606060606)
#: ``(factor, shift, keep)``: folding digit bytes into pairs, quads, one.
_FOLDS = tuple(
    (np.uint64(10**width), np.uint64(8 * width), np.uint64(keep))
    for width, keep in (
        (1, 0x00FF00FF00FF00FF),
        (2, 0x0000FFFF0000FFFF),
        (4, 0x00000000FFFFFFFF),
    )
)


def _line_breaks(text: bytes, end: int) -> int:
    """Line breaks in ``text[:end]``, counted as ``csv.reader`` counts
    lines: LF, CRLF and a lone CR (inside quotes) each end one."""
    return (
        text.count(b"\n", 0, end)
        + text.count(b"\r", 0, end)
        - text.count(b"\r\n", 0, end)
    )


def _first_appearance(words: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Group equal keys (one key per row, spread over one or more word
    arrays): the row of each group's first appearance, ascending, and
    every row's group in that order."""
    order = np.argsort(words[0]) if len(words) == 1 else np.lexsort(words[::-1])
    change = np.empty(len(order), dtype=bool)
    change[0] = True
    change[1:] = False
    for word in words:
        ordered = word[order]
        change[1:] |= ordered[1:] != ordered[:-1]
    heads = np.flatnonzero(change)
    first = np.minimum.reduceat(order, heads)
    rank = np.argsort(first)
    group = np.empty(len(heads), dtype=np.int32)
    group[rank] = np.arange(len(heads), dtype=np.int32)
    local = np.empty(len(order), dtype=np.int32)
    local[order] = np.repeat(group, np.diff(heads, append=len(order)))
    return first[rank], local


class _Rows:
    """Whole rows of one block, all of one width: the unquoted bytes, the
    separator ending each field (one row of ``separators`` per row), where
    each row starts and whether it ends in CRLF."""

    def __init__(
        self,
        text: bytes,
        separators: np.ndarray,
        row_starts: np.ndarray,
        crlf: np.ndarray,
    ) -> None:
        self.text = text
        self.separators = separators
        self.row_starts = row_starts
        self.crlf = crlf
        self._padded = text + bytes(8)
        self._bytes = np.frombuffer(self._padded, dtype=np.uint8)
        #: The little-endian word starting at every byte of the block.
        self._view = np.ndarray(
            (len(text) + 1,), dtype="<u8", buffer=self._padded, strides=(1,)
        )

    def bounds(self, column: int) -> tuple[np.ndarray, np.ndarray]:
        """``[start, end)`` of every row's field at header position
        ``column``."""
        ends = self.separators[:, column]
        if column == self.separators.shape[1] - 1:
            ends = ends - self.crlf
        if column == 0:
            return self.row_starts, ends
        return self.separators[:, column - 1] + 1, ends

    def texts(self, column: int) -> list[str]:
        text = self.text
        starts, ends = self.bounds(column)
        return [
            text[start:end].decode("utf-8")
            for start, end in zip(starts.tolist(), ends.tolist())
        ]

    def _words(self, starts: np.ndarray, lengths: np.ndarray) -> list:
        """Each field as little-endian ``uint64`` words, bytes past its end
        zeroed: one gather from the stride-1 view per word."""
        longest = int(lengths.max())
        if longest <= 8:
            words = [self._view[starts] & _MASKS[lengths]]
        else:
            words = []
            for offset in range(0, longest, 8):
                left = np.clip(lengths - offset, 0, 8)
                at = np.where(left > 0, starts + offset, 0)
                words.append(self._view[at] & _MASKS[left])
        if b"\0" in self.text:
            # Zero padding alone cannot tell "a" from "a\0".
            words.append(lengths.astype(np.uint64))
        return words

    def dimension(self, columns: list[int]) -> list[tuple[list[str], np.ndarray]]:
        """Each level column (most detailed first) as its distinct members
        in first-appearance order, each decoded once, and every row's
        index into them.

        A level whose member agrees, on every row, with the one on the
        first row of the child member below it is keyed over the child's
        distinct members only: its first appearances are among the
        child's.  A level that disagrees somewhere is keyed over every row
        (and :func:`_parent_step` reports the violation).
        """
        encoded = []
        child = None
        text = self.text
        for column in columns:
            starts, ends = self.bounds(column)
            words = self._words(starts, ends - starts)
            if child is not None and all(
                np.array_equal(word[child[0]][child[1]], word) for word in words
            ):
                first, local = _first_appearance([word[child[0]] for word in words])
                first, local = child[0][first], local[child[1]]
            else:
                first, local = _first_appearance(words)
            child = first, local
            distinct = [
                text[start:end].decode("utf-8")
                for start, end in zip(starts[first].tolist(), ends[first].tolist())
            ]
            encoded.append((distinct, local))
        return encoded

    def _digits(self, ends: np.ndarray, count: np.ndarray):
        """The value of the ``count`` (0–8) bytes before each end read as
        decimal digits, or ``None`` if one is not a digit: one word per
        field, checked and summed in place (SWAR)."""
        mask = _MASKS[count]
        word = self._view[np.where(count > 0, ends - count, 0)] & mask
        if (
            (word & _HIGH_NIBBLES) != (_ASCII_ZEROS & mask)
        ).any() or (((word & _LOW_NIBBLES) + _SIXES) & _HIGH_NIBBLES).any():
            return None
        # The digits move to the top bytes, most significant first; three
        # multiply-adds fold neighbouring bytes, pairs and quads.
        word = (word & _LOW_NIBBLES) << (8 * (8 - count)).astype(np.uint64)
        for factor, shift, keep in _FOLDS:
            word = (word * factor + (word >> shift)) & keep
        return word.astype(np.int64)

    def _integers(self, starts: np.ndarray, ends: np.ndarray):
        """The column as int64 if every field matches ``-?[0-9]{1,18}``,
        else ``None``: the last eight digits, the eight before them and
        the first two, each by :meth:`_digits`."""
        negative = self._bytes[starts] == _MINUS
        digits = ends - starts - negative
        if int(digits.min()) < 1 or int(digits.max()) > _MAX_DIGITS:
            return None
        values = np.zeros(len(starts), dtype=np.int64)
        for place in range(0, int(digits.max()), 8):
            part = self._digits(ends - place, np.clip(digits - place, 0, 8))
            if part is None:
                return None
            values += part * 10**place
        return np.where(negative, -values, values)

    def measure(self, column: int, spec: MeasureSpec) -> np.ndarray:
        """One measure column as int64, scaled: integer literals in vector
        form, any other column through :func:`_measure_column`."""
        values = self._integers(*self.bounds(column))
        if values is not None and (
            spec.scale == 1
            or int(np.abs(values).max()) <= np.iinfo(np.int64).max // spec.scale
        ):
            return values * spec.scale
        return _measure_column(self.texts(column), spec)


class CsvBlock:
    """The whole rows at the head of a buffer, split into fields.

    Separators are the commas and LFs outside quotes: a byte is inside
    quotes when an odd number of ``"`` precede it in the buffer, which
    starts a row.  An LF ends a row and a CR before it is dropped; a row
    of one empty field is a blank line.  A quoted field is checked (RFC
    4180: quoted as a whole, a quote inside it doubled) and unquoted.
    """

    def __init__(self, buffer: bytes, lines: int, path: str | Path) -> None:
        self.buffer = buffer
        self.lines = lines
        self.path = path
        data = np.frombuffer(buffer, dtype=np.uint8)
        quotes = (
            np.flatnonzero(data == _QUOTE)
            if b'"' in buffer
            else np.empty(0, dtype=np.int64)
        )
        separators = np.flatnonzero((data == _COMMA) | (data == _LF))
        if len(quotes):
            separators = separators[np.searchsorted(quotes, separators) % 2 == 0]
        last_fields = np.flatnonzero(data[separators] == _LF)
        #: Bytes of whole rows at the head of the buffer.
        self.cut = int(separators[last_fields[-1]]) + 1 if len(last_fields) else 0
        if not self.cut:
            return
        separators = separators[: last_fields[-1] + 1]
        quotes = quotes[quotes < self.cut]
        terminators = separators[last_fields]
        row_starts = np.empty(len(terminators), dtype=np.int64)
        row_starts[0] = 0
        row_starts[1:] = terminators[:-1] + 1
        crlf = np.zeros(len(terminators), dtype=np.int64)
        if buffer.find(b"\r", 0, self.cut) >= 0:
            self._check_carriage_returns(data[: self.cut], quotes)
            crlf[:] = (terminators > row_starts) & (data[terminators - 1] == _CR)
        #: Line breaks in the whole rows: one per row unless a quoted field
        #: holds some.
        self.breaks = (
            _line_breaks(buffer, self.cut) if len(quotes) else len(terminators)
        )
        counts = np.diff(last_fields, prepend=-1)
        blank = (counts == 1) & (terminators - row_starts == crlf)
        #: Whether the buffer's first row is a blank line.
        self.first_blank = bool(blank[0])
        self.text = buffer[: self.cut]
        if len(quotes):
            field_ends = separators.copy()
            field_ends[last_fields] -= crlf
            self.text, dropped = self._unquote(data, quotes, separators, field_ends)
            separators = separators - np.searchsorted(dropped, separators)
            row_starts = row_starts - np.searchsorted(dropped, row_starts)
        if blank.any():
            keep = np.ones(len(separators), dtype=bool)
            keep[last_fields[blank]] = False
            separators = separators[keep]
            counts, row_starts, crlf, terminators = (
                array[~blank] for array in (counts, row_starts, crlf, terminators)
            )
        #: Per non-blank row: its fields' separators (flat), where it
        #: starts, whether it ends in CRLF, its field count and its LF.
        self.separators, self.row_starts, self.crlf = separators, row_starts, crlf
        self.counts, self.terminators = counts, terminators

    def rows(self, first: int, last: int, width: int) -> _Rows:
        """Non-blank rows ``first`` to ``last`` (exclusive), all ``width``
        fields wide."""
        fields = int(self.counts[:first].sum())
        return _Rows(
            self.text,
            self.separators[fields : fields + (last - first) * width].reshape(
                -1, width
            ),
            self.row_starts[first:last],
            self.crlf[first:last],
        )

    def line(self, position: int) -> int:
        """The physical line of the buffer byte at ``position``."""
        return self.lines + _line_breaks(self.buffer, position) + 1

    def row_line(self, row: int) -> int:
        """The physical line non-blank row ``row`` ends on, as
        ``csv.reader.line_num`` counts it."""
        return self.lines + _line_breaks(
            self.buffer, int(self.terminators[row]) + 1
        )

    def error(self, position: int, what: str) -> ValueError:
        return ValueError(f"{self.path}: line {self.line(position)}: {what}")

    def _check_carriage_returns(self, data: np.ndarray, quotes: np.ndarray):
        returns = np.flatnonzero(data == _CR)
        if len(quotes):
            returns = returns[np.searchsorted(quotes, returns) % 2 == 0]
        bare = data[returns + 1] != _LF
        if bare.any():
            raise self.error(
                int(returns[np.argmax(bare)]),
                "a carriage return outside quotes not followed by a line feed",
            )

    def _unquote(self, data, quotes, separators, field_ends):
        """Check every quote's place; return the text without the
        syntactic quotes (a field's opening and closing quote and the
        first of each doubled pair) and their positions."""
        field = np.searchsorted(separators, quotes)
        indices = np.arange(len(quotes), dtype=np.int64)
        first = np.ones(len(quotes), dtype=bool)
        first[1:] = field[1:] != field[:-1]
        last = np.ones(len(quotes), dtype=bool)
        last[:-1] = first[1:]
        rank = indices - np.maximum.accumulate(np.where(first, indices, 0))
        field_starts = np.empty(len(separators), dtype=np.int64)
        field_starts[0] = 0
        field_starts[1:] = separators[:-1] + 1
        stray = first & (quotes != field_starts[field])
        if stray.any():
            raise self.error(
                int(quotes[np.argmax(stray)]), "a quote inside an unquoted field"
            )
        paired = np.zeros(len(quotes), dtype=bool)
        paired[:-1] = quotes[1:] == quotes[:-1] + 1
        closing = rank % 2 == 1
        misplaced = closing & ~np.where(
            last, quotes == field_ends[field] - 1, paired
        )
        if misplaced.any():
            raise self.error(
                int(quotes[np.argmax(misplaced)]), "text after a closing quote"
            )
        dropped = quotes[(rank == 0) | closing]
        keep = np.ones(self.cut, dtype=bool)
        keep[dropped] = False
        return data[: self.cut][keep].tobytes(), dropped


def _unclosed_quote(buffer: bytes, lines: int, path: str | Path) -> ValueError:
    """The error for a file that ends inside quotes, at the quote that
    opened them."""
    opening = buffer.rindex(b'"')
    what = (
        "a quoted field is not closed before the end of the file"
        if opening == 0 or buffer[opening - 1] in b",\n"
        else "a quote inside an unquoted field"
    )
    line = lines + _line_breaks(buffer, opening) + 1
    return ValueError(f"{path}: line {line}: {what}")


def csv_blocks(handle: BinaryIO, path: str | Path) -> Iterator[CsvBlock]:
    """An RFC 4180 file opened in binary mode, as :class:`CsvBlock` s of
    whole rows read :data:`CHUNK_BYTES` at a time.  One leading UTF-8
    byte-order mark is dropped; ``ValueError`` names the line of input
    that is not RFC 4180 (see :func:`load_csv`)."""
    if handle.read(len(_BOM)) != _BOM:
        handle.seek(0)
    lines = 0  # physical lines before ``pending``
    pending = b""
    at_end = False
    while not at_end:
        data = handle.read(max(CHUNK_BYTES, len(pending)))
        at_end = not data
        buffer = pending + data
        if not buffer:
            break
        if at_end and not buffer.endswith(b"\n"):
            buffer += b"\n"
        block = CsvBlock(buffer, lines, path)
        if not block.cut:
            pending = buffer
            continue
        pending = buffer[block.cut :]
        lines += block.breaks
        yield block
    if pending:
        raise _unclosed_quote(pending, lines, path)


def _csv_chunks(
    handle: BinaryIO,
    path: str | Path,
    dimensions: Sequence[DimensionSpec],
    measure_specs: tuple[MeasureSpec, ...],
) -> Iterator[EncodedChunk]:
    """The file's data rows, a block at a time, dictionary-encoded."""
    header: list[str] | None = None
    columns = None
    for block in csv_blocks(handle, path):
        first_row = 0
        if header is None:
            header = []
            if not block.first_blank:
                first_row = 1
                head = block.rows(0, 1, int(block.counts[0]))
                header = [head.texts(column)[0] for column in range(block.counts[0])]
        width = len(header)
        ragged = block.counts[first_row:] != width
        if ragged.any():
            row = first_row + int(np.argmax(ragged))
            raise ValueError(
                f"{path}: line {block.row_line(row)} has "
                f"{int(block.counts[row])} fields, the header has {width}"
            )
        if first_row == len(block.counts):
            continue
        if columns is None:
            positions = {name: position for position, name in enumerate(header)}
            columns = _gather_columns(
                positions.__getitem__, dimensions, measure_specs
            )
        rows = block.rows(first_row, len(block.counts), width)
        level_positions, measure_positions = columns
        yield (
            [rows.dimension(levels) for levels in level_positions],
            [
                rows.measure(p, spec)
                for p, spec in zip(measure_positions, measure_specs)
            ],
        )


def load_csv(
    path: str | Path,
    dimensions: Sequence[DimensionSpec],
    measures: Sequence[MeasureSpec | str],
    aggregates: tuple[tuple[str, int], ...] | None = None,
    order_by_cardinality: bool = True,
) -> LoadResult:
    """Load an RFC 4180 CSV file with a header row (see
    :func:`load_records`).

    The file is UTF-8 on every machine (one leading byte-order mark is
    dropped); LF or CRLF line ends, the last one optional; a quoted field
    may hold commas, doubled quotes and line breaks.  Blank lines are
    skipped; any other data row must have exactly the header's number of
    fields.  ``ValueError`` names the physical line of a ragged row, of a
    carriage return outside quotes that does not end a line, of a quote
    inside an unquoted field, of text after a closing quote, and of a
    quoted field the file never closes.
    """
    measure_specs = _checked_specs(dimensions, measures)
    with open(path, "rb") as handle:
        return _encode_columns(
            _csv_chunks(handle, path, dimensions, measure_specs),
            dimensions,
            measure_specs,
            aggregates,
            order_by_cardinality,
        )
