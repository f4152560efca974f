"""Incremental cube maintenance (the paper's Section 8 future work).

The paper closes with: "we will further study incremental updating for
redundant tuples in CURE cubes.  Our initial investigation has resulted in
efficient methods for updating NTs and TTs, and we are currently working
on CATs."  This module implements that split for *appends* (new fact
tuples — the common data-warehouse refresh):

* **TTs** — a trivial tuple whose group gains delta rows stops being
  trivial.  Its row-id is removed from the sub-tree root's TT relation and
  re-placed over the plan sub-tree: at nodes whose group the delta touches
  it becomes an explicit NT (merged with its delta group); at
  untouched nodes it stays a TT, now rooted lower.  The key property that
  keeps this local is that *touchedness is upward-closed along the plan*:
  two tuples that agree on a node's grouping attributes also agree on
  every coarser node's, so an untouched node has an untouched sub-tree and
  the TT may safely cover it.
* **NTs** — aggregates merge in place (distributive functions only); the
  stored R-rowid stays the minimum over the enlarged group.
* **CATs** — a touched CAT is *demoted* to an NT with merged aggregates.
  Re-classifying it against the whole cube would need the signature pool
  again; that is the part the paper left open, and demotion is correct,
  merely suboptimal in space.
* **new groups** — a brand-new group becomes a TT when it is a single fact
  tuple whose plan parent's group is *not* also new-and-trivial (otherwise
  the parent's TT already covers it — preserving sub-tree sharing for
  fresh data), and an NT otherwise.

**Cost.**  A fixed number of array passes over the whole plan, not a
loop of array calls per node.

1. *Delta groups.*  Every node's groups of the *k* delta rows come from
   one stable sort of their keys at all *N* plan positions (``N·k``
   probes tagged by position) and one ``reduceat``.  A key packs the
   position and, per dimension, the row's code at the node's level: per
   dimension one small table over (level, base code), so a probe costs
   a gather from the fact column and two from small tables.
2. *Kept relations.*  The merger keeps, beside the cube's relations
   (:class:`KeyedRelations`, on the storage), every plan node's TTs,
   NTs and CATs stacked per kind, each stored row's (position, row-id)
   as one int64, and each row's *group key* at its own node: the
   position and the node's codes hashed to 64 bits, which no delta
   changes.  They are computed once per storage (on its first delta,
   so after a bootstrap, a compaction or a recovery) and extended by
   every write-back; each stored relation is a view of its slice of
   the stack.
3. *Membership.*  Every stored row is matched against the delta's
   groups by its kept key in one pass a kind: a hash bucket with no
   group drops a row, and a hit is checked against the position and the
   codes, so a hash collision costs a check, never a wrong match, for
   any width of code space.
4. *TTs, by upward closure.*  Tuples that agree on a node's grouping
   attributes agree on every coarser node's, so "the delta touches this
   tuple's group" holds at a node's plan parent whenever it holds at the
   node.  Each node's decisions then follow from the delta and its own
   relations, with no hand-off from parent to child: a TT stored at *a*
   becomes an NT at each node of a's plan sub-tree (and *a* itself)
   where its group is touched, and stays a TT at each node touched at
   its plan parent but not itself (one more membership pass, over the
   devalued TTs paired with their sub-trees).  A delta row whose group is
   new and single at a node is a new TT there unless it is also new and
   single at the plan parent — read off the delta's own probes.
5. *Write-back.*  NT merges, CAT demotions and new groups are computed
   on arrays for all nodes together.  Each kind's fresh stack is the
   stored rows copied once around the added ones — each added row goes
   before the first stored row of its node with a larger row-id (one
   ``searchsorted`` over the kept ids), so a CURE+ cube's relations stay
   in row-id order and no CURE+ pass follows a delta — with the merged
   NTs written in; the ids and keys are spliced alike, and every stored
   relation is re-pointed at its slice (``ArrayRelation.replace``, never
   the array a query was handed).

What is still proportional to stored rows: the membership pass over
every stored row's kept key, and the write-back's one copy of each
kind's stack, ids and keys.  What is proportional to the delta: the
``N·k`` probes, the hits and their checks, the merges, and the keys of
the added rows.

After many updates the cube drifts from the fully condensed form (demoted
CATs, localized TTs); tests assert exact query equivalence with a
from-scratch rebuild and storage equivalence with the record-at-a-time
reference merger (``tests/support/record_merger.py``), and
:func:`drift_report` measures the space gap.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.core.model import CubeSchema
from repro.core.segments import (
    aggregate_ufuncs,
    pack_keys,
    reduce_columns,
    sort_groups,
    stable_order,
)
from repro.core.storage import (
    VALUE_BYTES,
    ArrayRelation,
    CatFormat,
    CubeStorage,
    NodeStore,
)
from repro.relational.batch import ColumnBatch, column_dtype
from repro.relational.table import Table

_NO_ROWIDS = np.empty(0, dtype=np.int64)


@dataclass
class UpdateReport:
    """What one incremental update did."""

    delta_rows: int = 0
    tts_devalued: int = 0
    nts_merged: int = 0
    cats_demoted: int = 0
    new_tts: int = 0
    new_nts: int = 0


@dataclass
class DriftReport:
    """Space drift of an updated cube vs a from-scratch rebuild."""

    updated_bytes: int
    rebuilt_bytes: int
    #: True when ``rebuilt_bytes`` came from the drift accounting instead
    #: of an actual from-scratch rebuild (``drift_report(..., exact=False)``).
    estimated: bool = False

    @property
    def overhead_ratio(self) -> float:
        if self.rebuilt_bytes == 0:
            return 1.0
        return self.updated_bytes / self.rebuilt_bytes


def validate_delta(
    schema: CubeSchema, rows: Sequence[Sequence[int]] | np.ndarray
) -> np.ndarray:
    """``rows`` as one int64 matrix, checked against the fact layout.

    The single validation every public ingest boundary runs: arity
    (the same ``ValueError`` :meth:`TableSchema.validate_row` raises, for
    the first offending row), integral values, and base dimension codes
    inside their dimension's cardinality — a code the roll-up maps cannot
    index must be refused here, while refusing is still a no-op.
    """
    arity = schema.fact_schema.arity
    if len(rows) == 0:
        return np.empty((0, arity), dtype=np.int64)
    try:
        matrix = np.asarray(rows)
    except ValueError:  # ragged rows have no array shape
        matrix = None
    if matrix is None or matrix.ndim != 2 or matrix.shape[1] != arity:
        for row in rows:
            schema.fact_schema.validate_row(row)
        raise ValueError("fact rows must be flat tuples of integers")
    if matrix.dtype.kind not in "iu":
        raise ValueError(
            f"fact rows must hold integers, got {matrix.dtype.name} values"
        )
    matrix = matrix.astype(np.int64, copy=False)
    for d, dimension in enumerate(schema.dimensions):
        codes = matrix[:, d]
        low, high = int(codes.min()), int(codes.max())
        if low < 0 or high >= dimension.base_cardinality:
            bad = low if low < 0 else high
            raise ValueError(
                f"dimension {dimension.name!r} code {bad} is outside "
                f"[0, {dimension.base_cardinality})"
            )
    return matrix


def delta_refusal(storage: CubeStorage) -> str | None:
    """Why ``storage`` cannot take a delta as it stands, or None when it can.

    Read off what the cube records, never off a variant's name: a DR
    cube's NTs hold codes, not row-ids; a holistic aggregate does not
    merge; and an iceberg cube (``min_count`` > 1) has no rows for the
    groups below its threshold, which a delta can lift over it.  A cube
    whose ``min_count`` was not recorded (a container written before it
    was) is refused too.
    """
    if storage.dr_mode:
        return (
            "its NTs hold dimension codes (DR), and incremental maintenance "
            "is implemented for row-id based NTs"
        )
    if not storage.schema.all_distributive:
        return "incremental maintenance needs distributive aggregates"
    if storage.min_count is None:
        return "its container does not record min_count"
    if storage.min_count != 1:
        return (
            f"it is an iceberg cube (min_count {storage.min_count}), and a "
            f"delta can lift a group it does not store over the threshold"
        )
    return None


def apply_delta(
    storage: CubeStorage,
    schema: CubeSchema,
    fact_table: Table,
    delta_rows: Sequence[Sequence[int]] | np.ndarray,
) -> UpdateReport:
    """Merge ``delta_rows`` into ``storage``, appending them to
    ``fact_table`` (both updated in place).

    ``delta_rows`` is a sequence of fact tuples or an int64 matrix of
    them, and ``storage`` a cube built over ``fact_table`` that
    :func:`delta_refusal` accepts (its reason is the ``ValueError``
    raised otherwise).  A CURE+ cube stays one, ``plus_processed`` as it
    was: every relation is still in row-id order straight after the
    merge.
    """
    refusal = delta_refusal(storage)
    if refusal is not None:
        raise ValueError(refusal)
    report = UpdateReport(delta_rows=len(delta_rows))
    if not report.delta_rows:
        return report

    # Validate the whole delta before mutating anything.  A bad row must
    # leave the fact table and the cube exactly as they were: a rejected
    # delta is a no-op, never a partial append.
    delta = validate_delta(schema, delta_rows)
    base_rowid = len(fact_table)
    if base_rowid + len(delta) > _ROWID_MASK:
        raise ValueError(
            f"a fact table of more than {_ROWID_MASK} rows cannot be "
            f"maintained incrementally; rebuild instead"
        )

    # A CURE+ cube stays one: the merger inserts each added row at its
    # row-id's place, so a sorted relation stays sorted and
    # ``plus_processed`` holds as it was.
    fact_schema = schema.fact_schema
    fact_table.append_batch(
        ColumnBatch.from_arrays(
            fact_schema,
            [
                delta[:, position].astype(column_dtype(column.type))
                for position, column in enumerate(fact_schema.columns)
            ],
        )
    )
    storage.fact_row_count = len(fact_table)

    _DeltaMerger(
        storage, schema, fact_table.as_batch(), base_rowid, report
    ).run()
    return report


def drift_report(
    storage: CubeStorage,
    schema: CubeSchema,
    fact_table: Table,
    exact: bool = True,
) -> DriftReport:
    """Compare the updated cube's size with a from-scratch rebuild.

    ``exact=False`` skips the rebuild and *estimates* its size from the
    drift bytes :func:`apply_delta` accrues at each CAT demotion (the one
    systematic source of space overhead: a demoted CAT keeps an orphaned
    or oversized footprint a rebuild would recondense).  The estimate is
    deterministic and O(1), cheap enough to evaluate after every batch as
    a compaction trigger; it understates true drift — orphaned AGGREGATES
    rows and missed CAT-sharing opportunities are not accounted — so a
    threshold tuned against :attr:`DriftReport.overhead_ratio` fires no
    earlier than the exact report would.
    """
    updated = storage.size_report().total_bytes
    if not exact:
        return DriftReport(
            updated_bytes=updated,
            rebuilt_bytes=max(updated - storage.update_drift_bytes, 0),
            estimated=True,
        )
    from repro.core.cure import build_cube

    rebuilt = build_cube(schema, table=fact_table, flat=storage.flat)
    return DriftReport(
        updated_bytes=updated,
        rebuilt_bytes=rebuilt.storage.size_report().total_bytes,
    )


#: Fibonacci hashing multiplier (2^64 / golden ratio): mixes group keys,
#: whose top bits pick a membership hash bucket.
_HASH = np.uint64(0x9E3779B97F4A7C15)


class _KeySpace:
    """What the merger derives from the plan alone: each position's
    parent, sub-tree size and depth, and the delta-independent group key
    of a fact row at a position.

    Per dimension one table of level codes over (level, base code) — 0
    at ALL — and each plan position's offset into it, so a code costs a
    gather from the fact column and two from small tables.  A key mixes
    the position and the node's codes with one multiply a dimension
    (Fibonacci hashing): rows of one group share a key, and rows of two
    groups collide about once in 2⁶⁴ pairs.  Every schema is keyed the
    same way, whatever the width of its code space; a lookup checks its
    hits against the codes (:meth:`codes`), so a collision costs a
    check, never a wrong match.
    """

    def __init__(self, schema: CubeSchema, flat: bool) -> None:
        plan = schema.plan_order(flat)
        self.node_ids = [node_id for _node, node_id, _parent in plan]
        n_nodes = len(plan)
        parent = [parent for *_, parent in plan]
        # Pre-order: the plan sub-tree of position i is [i, i + size[i]).
        size = [1] * n_nodes
        depth = [0] * n_nodes
        for position in range(n_nodes - 1, 0, -1):
            size[parent[position]] += size[position]
        for position in range(1, n_nodes):
            depth[position] = depth[parent[position]] + 1
        self.parent = np.array(parent, dtype=np.int64)
        self.size = np.array(size, dtype=np.int64)
        self.depth = np.array(depth, dtype=np.int64)
        levels = np.array([node.levels for node, *_ in plan], dtype=np.int64)
        #: Per dimension, each position's offset into a table over
        #: (level, base code).
        self.offsets: list[np.ndarray] = []
        self._tables: list[np.ndarray] = []
        for d, dimension in enumerate(schema.dimensions):
            base = dimension.base_cardinality
            table = np.zeros((dimension.n_levels + 1, base), dtype=np.int64)
            for level, level_map in enumerate(dimension.level_maps):
                table[level] = level_map
            self._tables.append(table.ravel())
            self.offsets.append(levels[:, d] * base)
        self._seeds = np.arange(1, n_nodes + 1, dtype=np.uint64) * _HASH
        #: The position's and each dimension's code span, for packing.
        self.radices = [n_nodes] + [
            max(dimension.cardinality(level) for level in range(dimension.n_levels))
            for dimension in schema.dimensions
        ]

    def codes(
        self, d: int, column: np.ndarray, rowids: np.ndarray, positions: np.ndarray
    ) -> np.ndarray:
        """Dimension ``d``'s code of each row at its position's level;
        ``column`` is the fact table's dimension ``d``."""
        index = np.take(self.offsets[d], positions)
        index += column[rowids]
        return np.take(self._tables[d], index, out=index)

    def keys(
        self,
        columns: Sequence[np.ndarray],
        rowids: np.ndarray,
        positions: np.ndarray,
    ) -> np.ndarray:
        """The uint64 group key of each row at its plan position."""
        key = np.take(self._seeds, positions)
        for d, column in enumerate(columns):
            key ^= self.codes(d, column, rowids, positions).view(np.uint64)
            key *= _HASH
        return key


#: A stored row's id packs its plan position above this many bits of its
#: fact row-id (:func:`_ids`).
_ROWID_BITS = 40
_ROWID_MASK = (1 << _ROWID_BITS) - 1


def _ids(positions: np.ndarray, rowids: np.ndarray) -> np.ndarray:
    """(plan position, fact row-id) pairs as one int64 each: ids order
    rows by position, then row-id, as the pairs do."""
    return (positions << _ROWID_BITS) | rowids


class _Stack(NamedTuple):
    """One relation kind of every plan node, stacked in plan order:
    ``rows``; ``ids``, each row's plan position and fact row-id
    (:func:`_ids`) — a TT's own, an NT's R-rowid, a CAT's source row;
    and node offsets — node ``i``'s rows are ``offsets[i]:offsets[i + 1]``."""

    rows: np.ndarray
    ids: np.ndarray
    offsets: list[int]


class _Buckets:
    """The delta groups' hash-bucket tables, kept from record to record.

    Over ``2^bits`` buckets: ``occupied`` (whether a bucket holds a
    group), and, read only where it does, ``sizes`` and ``starts``.  A
    record uses the tables' first ``2^bits`` slots; the next one clears
    only the buckets this one occupied, instead of allocating and
    zeroing the tables again.  They grow to the largest record's size
    and shrink when a record needs less than a quarter of them.
    """

    def __init__(self) -> None:
        self.occupied = np.zeros(0, dtype=np.bool_)
        self.sizes = np.empty(0, dtype=np.int32)
        self.starts = np.empty(0, dtype=np.int32)
        self._dirty = np.empty(0, dtype=np.int64)

    def fill(
        self, bits: int, occupied: np.ndarray, sizes: np.ndarray, starts: np.ndarray
    ) -> None:
        """Hold one record's groups: buckets ``occupied`` with ``sizes``
        groups from ``starts`` each, every other bucket empty."""
        n = 1 << bits
        if not n <= len(self.occupied) <= 4 * n:
            self.occupied = np.zeros(n, dtype=np.bool_)
            self.sizes = np.empty(n, dtype=np.int32)
            self.starts = np.empty(n, dtype=np.int32)
        else:
            self.occupied[self._dirty] = False
        self._dirty = occupied
        self.occupied[occupied] = True
        self.sizes[occupied] = sizes
        self.starts[occupied] = starts


@dataclass
class KeyedRelations:
    """The cube's relations as the delta merger keeps them
    (:attr:`CubeStorage.keyed_relations`): per relation kind — TT, NT,
    CAT — a :class:`_Stack` of every plan node's relation, each row's
    group key at its own node beside it, and ``arrays``, the relations
    as stored: each a view of its slice of the stack.  ``buckets`` are
    the merger's hash tables, reused by the next record.

    The merger stacks and keys a cube once per storage; after that each
    delta writes fresh stacks — the stored rows copied once around the
    added ones, the ids and keys spliced alike — and re-points every
    stored relation at its slice, so no relation keeps an older stack
    alive.  A relation replaced by anything else (the CURE+ pass, say)
    is no longer the array kept for it, and the merger stacks and keys
    the cube again.
    """

    space: _KeySpace
    arrays: list[list[np.ndarray]]
    stacks: list[_Stack]
    keys: list[np.ndarray]
    buckets: _Buckets

    def holds(self, arrays: list[list[np.ndarray]]) -> bool:
        """Whether ``arrays`` are the relations kept here (by identity)."""
        return all(
            kept is array
            for kept_kind, kind in zip(self.arrays, arrays)
            for kept, array in zip(kept_kind, kind)
        )


def group_keys(
    storage: CubeStorage, schema: CubeSchema, fact_table: Table
) -> list[np.ndarray]:
    """Every stored row's group key at its node, per relation kind (TT,
    NT, CAT), computed from scratch — what :attr:`KeyedRelations.keys`
    must equal after any number of deltas."""
    space = _KeySpace(schema, storage.flat)
    stores = [storage.node_store(node_id) for node_id in space.node_ids]
    columns = fact_table.as_batch().arrays[: schema.n_dimensions]
    return [
        space.keys(columns, stack.ids & _ROWID_MASK, stack.ids >> _ROWID_BITS)
        for stack in _stacks(storage, _relations(stores))
    ]


def _relations(stores: Sequence[NodeStore]) -> list[list[np.ndarray]]:
    """The TT, NT and CAT arrays of ``stores``, per kind."""
    return [
        [store.tt_array() for store in stores],
        [store.nt_matrix() for store in stores],
        [store.cat_matrix() for store in stores],
    ]


def _stacks(
    storage: CubeStorage, arrays: list[list[np.ndarray]]
) -> list[_Stack]:
    """Per relation kind, the relation of every plan node stacked."""
    source_format = storage.cat_format is CatFormat.COMMON_SOURCE
    widths = (None, 1 + storage.schema.n_aggregates, 1 if source_format else 2)
    stacks = []
    for kind, (relations, width) in enumerate(zip(arrays, widths)):
        counts = [len(array) for array in relations]
        parts = [array for array in relations if len(array)]
        if parts:
            rows = np.concatenate(parts)
        elif width is None:
            rows = _NO_ROWIDS
        else:
            rows = np.empty((0, width), dtype=np.int64)
        if kind == 0:
            rowids = rows
        elif kind == 1 or not source_format:
            rowids = rows[:, 0]
        else:
            rowids = storage.aggregates_matrix()[rows[:, 0], 0]
        positions = np.repeat(np.arange(len(relations), dtype=np.int64), counts)
        stacks.append(
            _Stack(
                rows,
                _ids(positions, rowids),
                list(itertools.accumulate(counts, initial=0)),
            )
        )
    return stacks


class _DeltaMerger:
    """One delta folded into every plan node at once, on arrays.

    ``batch`` is the fact table *after* the append: rows from
    ``base_rowid`` on are the delta.  A *probe* is a fact row-id asked
    at a plan position.  The delta's own probes are grouped exactly: a
    key packs the position and the row's codes at the node's levels, all
    from one :func:`pack_keys` call.  A stored row is matched to those
    groups by its kept :class:`KeyedRelations` key, checked against the
    codes.
    """

    def __init__(
        self,
        storage: CubeStorage,
        schema: CubeSchema,
        batch: ColumnBatch,
        base_rowid: int,
        report: UpdateReport,
    ) -> None:
        self.storage = storage
        self.report = report
        kept = storage.keyed_relations
        if kept is None:
            self._space, self._buckets = _KeySpace(schema, storage.flat), _Buckets()
        else:
            self._space, self._buckets = kept.space, kept.buckets
        space = self._space
        self.node_ids = space.node_ids
        n_nodes = len(self.node_ids)

        self._dim_columns = batch.arrays[: schema.n_dimensions]
        self._measures = [
            batch.arrays[schema.n_dimensions + spec.measure_index]
            for spec in schema.aggregates
        ]
        self._functions = [spec.function for spec in schema.aggregates]
        self._ufuncs = aggregate_ufuncs(schema)
        self._k = k = batch.length - base_rowid

        # The delta's own probes, position-major: probe p is delta row
        # p % k at position p // k.
        probe_rowids = np.tile(
            np.arange(base_rowid, batch.length, dtype=np.int64), n_nodes
        )
        probe_positions = np.repeat(np.arange(n_nodes, dtype=np.int64), k)
        order, _, starts = sort_groups(self._keys(probe_rowids, probe_positions))
        # Per group (by position, then key): its first probe — the sort is
        # stable, so its lowest row-id — row count and aggregates.
        self._first = order[starts]
        self.group_position = self._first // k
        self.group_rowid = base_rowid + self._first % k
        self.group_count = np.diff(np.append(starts, len(order)))
        self.group_aggregates = reduce_columns(
            self._ufuncs,
            self._singletons(probe_rowids[:k])[order % k],
            starts,
        )
        self._probe_group = np.empty(len(order), dtype=np.int64)
        self._probe_group[order] = np.repeat(
            np.arange(len(starts), dtype=np.int64), self.group_count
        )

        # The groups' keys in hash buckets — the keys' top bits, about 32
        # buckets a group: per bucket its size and where its groups start
        # in ``_bucket_groups`` — and their codes, for checking a hit.
        self._group_keys = self._space.keys(
            self._dim_columns, self.group_rowid, self.group_position
        )
        bits = max(10, (32 * len(self._group_keys)).bit_length())
        self._shift = np.uint64(64 - bits)
        buckets = (self._group_keys >> self._shift).view(np.int64)
        self._bucket_groups = stable_order(buckets)
        _, by_bucket, first = sort_groups(buckets[self._bucket_groups])
        self._buckets.fill(
            bits, by_bucket[first], np.diff(np.append(first, len(buckets))), first
        )
        self._group_codes = [
            self._space.codes(d, column, self.group_rowid, self.group_position)
            for d, column in enumerate(self._dim_columns)
        ]

    # -- keys and membership -----------------------------------------------------

    def _keys(self, rowids: np.ndarray, positions: np.ndarray) -> np.ndarray:
        """The delta probes' exact group keys: the position and the
        node's codes, packed by one :func:`pack_keys` call."""
        columns = itertools.chain(
            (positions,),
            (
                self._space.codes(d, column, rowids, positions)
                for d, column in enumerate(self._dim_columns)
            ),
        )
        return pack_keys(columns, self._space.radices)

    def _members(
        self, keys: np.ndarray, ids: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The probes (stored rows by their :func:`_ids`, with their
        uint64 group ``keys``) that fall in a delta group, ascending,
        and those groups.

        A probe whose hash bucket holds no group is in none; the others
        are paired with every group of their bucket (about one), and a
        pair is kept when the keys, the positions and every dimension's
        code agree, so the match is exact.
        """
        tables = self._buckets
        buckets = (keys >> self._shift).view(np.int64)
        candidates = np.flatnonzero(tables.occupied[buckets])
        buckets = buckets[candidates]
        count = tables.sizes[buckets]
        probes = np.repeat(candidates, count)
        slots = np.repeat(tables.starts[buckets] - np.cumsum(count) + count, count)
        slots += np.arange(len(probes), dtype=np.int64)
        groups = self._bucket_groups[slots]
        hit = keys[probes] == self._group_keys[groups]
        probes, groups = probes[hit], groups[hit]
        found = ids[probes]
        at, rowids = found >> _ROWID_BITS, found & _ROWID_MASK
        hit = at == self.group_position[groups]
        for d, column in enumerate(self._dim_columns):
            hit &= self._space.codes(d, column, rowids, at) == self._group_codes[d][groups]
        return probes[hit], groups[hit]

    # -- fact-side arrays --------------------------------------------------------

    def _singletons(self, rowids: np.ndarray) -> np.ndarray:
        """Aggregate vectors of single fact tuples, one row per row-id."""
        matrix = np.empty((len(rowids), len(self._ufuncs)), dtype=np.int64)
        for y, function in enumerate(self._functions):
            matrix[:, y] = function.from_column(self._measures[y][rowids])
        return matrix

    def _merged(
        self, rowids: np.ndarray, aggregates: np.ndarray, groups: np.ndarray
    ) -> np.ndarray:
        """NT rows of stored tuples merged with their delta ``groups``:
        the lower row-id, and the aggregates combined component-wise."""
        rows = np.empty((len(groups), 1 + len(self._ufuncs)), dtype=np.int64)
        np.minimum(rowids, self.group_rowid[groups], out=rows[:, 0])
        right = self.group_aggregates[groups]
        for y, ufunc in enumerate(self._ufuncs):
            ufunc(aggregates[:, y], right[:, y], out=rows[:, 1 + y])
        return rows

    # -- the merge -------------------------------------------------------------------

    def run(self) -> None:
        report, storage = self.report, self.storage
        n_ufuncs = len(self._ufuncs)
        stores = [storage.node_store(node_id) for node_id in self.node_ids]
        n_nodes = len(stores)
        kept = self._kept(stores)
        trivial, normal, common = kept.stacks
        trivial_keys, normal_keys, common_keys = kept.keys

        # One membership pass a relation kind: every stored row at its
        # own node, by its kept key.
        devalued, trivial_group = self._members(trivial_keys, trivial.ids)
        rewritten, normal_group = self._members(normal_keys, normal.ids)
        demoted, common_group = self._members(common_keys, common.ids)
        report.tts_devalued += len(devalued)
        (became_rowids, became_at, became_group), (stay_rowids, stay_at) = (
            self._devalue(trivial.ids, devalued, trivial_group)
        )
        report.nts_merged += len(became_rowids)

        # NTs merge (distributive aggregates, minimum row-id); written
        # into the fresh stack below.
        merged = self._merged(
            normal.rows[rewritten, 0], normal.rows[rewritten, 1:], normal_group
        )
        report.nts_merged += len(rewritten)

        # Touched CATs are demoted to NTs.
        shared = storage.aggregates_matrix()
        if storage.cat_format is CatFormat.COMMON_SOURCE:
            source_aggregates = shared[common.rows[demoted, 0], 1:]
        else:
            source_aggregates = shared[common.rows[demoted, 1]]
        demoted_ids = common.ids[demoted]
        demoted_rows = self._merged(
            demoted_ids & _ROWID_MASK, source_aggregates, common_group
        )
        report.cats_demoted += len(demoted)
        storage.update_drift_bytes += (
            len(demoted) * (1 + n_ufuncs - common.rows.shape[1]) * VALUE_BYTES
        )

        matched = np.zeros(len(self.group_count), dtype=np.bool_)
        for groups in (became_group, normal_group, common_group):
            matched[groups] = True
        several, new_tts = self._new_groups(~matched)
        report.new_nts += len(several)
        report.new_tts += len(new_tts)

        # Write back: fresh stacks (never the arrays a query was handed),
        # each added row put before the first stored one of its node
        # with a larger row-id, so a CURE+ cube's relations stay in
        # row-id order; the ids and kept keys follow their rows.
        added_nt, added_nt_at = _by_position(
            (
                self._merged(
                    became_rowids, self._singletons(became_rowids), became_group
                ),
                became_at,
            ),
            (demoted_rows, demoted_ids >> _ROWID_BITS),
            (
                np.column_stack(
                    (self.group_rowid[several], self.group_aggregates[several])
                ),
                self.group_position[several],
            ),
        )
        added_tt, added_tt_at = _by_position(
            (stay_rowids, stay_at),
            (self.group_rowid[new_tts], self.group_position[new_tts]),
        )
        keep_trivial = np.ones(len(trivial.ids), dtype=np.bool_)
        keep_trivial[devalued] = False
        keep_common = np.ones(len(common.ids), dtype=np.bool_)
        keep_common[demoted] = False
        # Per node: rows removed, rows added.
        tt_changes = (
            np.bincount(trivial.ids[devalued] >> _ROWID_BITS, minlength=n_nodes),
            np.bincount(added_tt_at, minlength=n_nodes),
        )
        nt_changes = (
            np.bincount(normal.ids[rewritten] >> _ROWID_BITS, minlength=n_nodes),
            np.bincount(added_nt_at, minlength=n_nodes),
        )
        cat_changes = np.bincount(demoted_ids >> _ROWID_BITS, minlength=n_nodes)

        tt_ids = trivial.ids[keep_trivial]
        added_tt_ids = _ids(added_tt_at, added_tt)
        tt_places = _places(tt_ids, added_tt_ids)
        added_nt_ids = _ids(added_nt_at, added_nt[:, 0])
        nt_places = _places(normal.ids, added_nt_ids)
        nts = _spliced(normal.rows, added_nt, nt_places)
        # A stored row moves down by the added rows placed before it.
        nts[
            rewritten
            + np.searchsorted(
                nt_places - np.arange(len(nt_places), dtype=np.int64), rewritten, side="right"
            )
        ] = merged
        stacks = [
            _Stack(
                _spliced(_kept(trivial.rows, keep_trivial), added_tt, tt_places),
                _spliced(tt_ids, added_tt_ids, tt_places),
                _resized(trivial.offsets, -tt_changes[0] + tt_changes[1]),
            ),
            _Stack(
                nts,
                _spliced(normal.ids, added_nt_ids, nt_places),
                _resized(normal.offsets, nt_changes[1]),
            ),
            _Stack(
                _kept(common.rows, keep_common),
                common.ids[keep_common],
                _resized(common.offsets, -cat_changes),
            ),
        ]
        keys = [
            _spliced(
                trivial_keys[keep_trivial],
                self._space.keys(self._dim_columns, added_tt, added_tt_at),
                tt_places,
            ),
            _spliced(
                normal_keys,
                self._space.keys(self._dim_columns, added_nt[:, 0], added_nt_at),
                nt_places,
            ),
            common_keys[keep_common],
        ]
        changed = (
            tt_changes[0] + tt_changes[1],
            nt_changes[0] + nt_changes[1],
            cat_changes,
        )
        relations = [
            [store.tt for store in stores],
            [store.nt for store in stores],
            [store.cat for store in stores],
        ]
        storage.keyed_relations = KeyedRelations(
            self._space,
            [
                _repointed(kind, old, stack.rows, stack.offsets, change.tolist())
                for kind, old, stack, change in zip(
                    relations, kept.arrays, stacks, changed
                )
            ],
            stacks,
            keys,
            self._buckets,
        )

    def _kept(self, stores: list[NodeStore]) -> KeyedRelations:
        """The storage's :class:`KeyedRelations` when they are still its
        relations, else the relations stacked and keyed anew."""
        arrays = _relations(stores)
        kept = self.storage.keyed_relations
        if kept is not None and kept.holds(arrays):
            return kept
        stacks = _stacks(self.storage, arrays)
        keys = [
            self._space.keys(
                self._dim_columns,
                stack.ids & _ROWID_MASK,
                stack.ids >> _ROWID_BITS,
            )
            for stack in stacks
        ]
        return KeyedRelations(self._space, arrays, stacks, keys, self._buckets)

    def _devalue(
        self,
        trivial_ids: np.ndarray,
        devalued: np.ndarray,
        groups: np.ndarray,
    ) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
        """Where the TTs the delta touches at their own node go.

        Touchedness is upward-closed along the plan, so a TT stored at
        position a whose group the delta touches (``groups``, per
        ``devalued`` index into ``trivial_ids``) becomes an NT at each
        node of a's plan sub-tree where the delta touches it, stays a TT
        at each node touched at its plan parent but not itself, and is
        covered by those below.  Returns the NTs as ``(row-ids,
        positions, delta groups)`` and the TTs as ``(row-ids,
        positions)``; at a node, its own former TTs come first, then its
        plan parent's, grandparent's, … each in stored order.
        """
        roots = trivial_ids[devalued] >> _ROWID_BITS
        spans = self._space.size[roots]
        pair_tt = np.repeat(devalued, spans)
        pair_root = np.repeat(roots, spans)
        pair_at = pair_root + (
            np.arange(len(pair_tt), dtype=np.int64)
            - np.repeat(np.cumsum(spans) - spans, spans)
        )
        pair_rowids = trivial_ids[pair_tt] & _ROWID_MASK
        pair_group = np.repeat(groups, spans)
        below = np.flatnonzero(pair_at != pair_root)
        pair_group[below] = -1
        rowids, at = pair_rowids[below], pair_at[below]
        hits, found = self._members(
            self._space.keys(self._dim_columns, rowids, at), _ids(at, rowids)
        )
        pair_group[below[hits]] = found
        touched = pair_group >= 0
        # A pair's parent pair sits (position − parent position) before it.
        stay = np.zeros(len(pair_tt), dtype=np.bool_)
        stay[below] = ~touched[below] & touched[
            below - pair_at[below] + self._space.parent[pair_at[below]]
        ]
        order = stable_order(pair_at, self._space.depth[pair_at] - self._space.depth[pair_root])
        became = order[touched[order]]
        stays = order[stay[order]]
        return (
            (pair_rowids[became], pair_at[became], pair_group[became]),
            (pair_rowids[stays], pair_at[stays]),
        )

    def _new_groups(self, fresh: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The ``fresh`` delta groups (no stored tuple had them) that are
        new NTs — several delta rows — and new TTs: a single row, unless
        its group at the plan parent is fresh and single too, whose TT
        there covers this node."""
        several = np.flatnonzero(fresh & (self.group_count > 1))
        single = fresh & (self.group_count == 1)
        singles = np.flatnonzero(single)
        parent = self._space.parent[self.group_position[singles]]
        covered = single[
            self._probe_group[
                np.maximum(parent, 0) * self._k + self._first[singles] % self._k
            ]
        ]
        return several, singles[(parent < 0) | ~covered]


def _places(ids: np.ndarray, added: np.ndarray) -> np.ndarray:
    """Where rows with ids ``added`` (ascending) go among stored rows
    with ``ids`` (grouped by plan position): each before the first row
    of its node with a larger row-id, so a node whose rows ascend by
    row-id still does.  One ``searchsorted`` over the ids finds the
    places — a node's ids sit between those of the nodes around it, in
    order or not.  Returns the added rows' indices in the spliced stack
    (:func:`_spliced`)."""
    places = np.searchsorted(ids, added)
    places += np.arange(len(places), dtype=np.int64)
    return places


def _resized(offsets: list[int], change: np.ndarray) -> list[int]:
    """Node offsets after each node's row count changed by ``change``."""
    counts = np.diff(offsets) + change
    return [0, *np.cumsum(counts).tolist()]


def _repointed(
    relations: list[ArrayRelation],
    arrays: list[np.ndarray],
    rows: np.ndarray,
    offsets: list[int],
    changed: list[int],
) -> list[np.ndarray]:
    """Each relation of one kind given its slice of the fresh stack
    ``rows`` — where it changed, and wherever it holds rows, so that no
    relation keeps an older stack alive; an empty, unchanged one keeps
    its array.  Returns the arrays now stored."""
    stored = []
    for relation, array, start, stop, change in zip(
        relations, arrays, offsets, offsets[1:], changed
    ):
        if change or len(array):
            array = rows[start:stop]
            relation.replace(array)
        stored.append(array)
    return stored


def _items(rows: np.ndarray) -> np.ndarray:
    """``rows`` as a vector, a matrix row as one opaque item: a masked
    copy of whole rows then costs a tenth of one of their values."""
    if rows.ndim == 1:
        return rows
    row = np.dtype((np.void, rows.itemsize * rows.shape[1]))
    return np.ascontiguousarray(rows).view(row).reshape(-1)


def _kept(rows: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """The ``rows`` a boolean ``keep`` selects, in order."""
    return _items(rows)[keep].view(rows.dtype).reshape(-1, *rows.shape[1:])


def _spliced(
    stored: np.ndarray, added: np.ndarray, places: np.ndarray
) -> np.ndarray:
    """``stored`` rows with ``added`` ones at indices ``places`` of the
    result (ascending), the stored rows in order around them."""
    out = np.empty((len(stored) + len(added), *stored.shape[1:]), stored.dtype)
    spare = np.ones(len(out), dtype=np.bool_)
    spare[places] = False
    out[places] = added
    _items(out)[spare] = _items(stored)
    return out


def _by_position(
    *parts: tuple[np.ndarray, np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """``(rows, plan positions)`` parts as one array grouped by position,
    by row-id (a row's first value) within one, and those positions."""
    rows = np.concatenate([part for part, _ in parts])
    positions = np.concatenate([at for _, at in parts])
    order = stable_order(positions, rows if rows.ndim == 1 else rows[:, 0])
    return np.take(rows, order, axis=0), positions[order]
