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
   position and, per dimension, the rank of the row's member among the
   delta's members at the node's level (0 for a member no delta row
   has): per dimension one small rank table over (level, base code), so
   a probe costs a gather from the fact column and two from small tables.
2. *Membership.*  Every stored row-id — each node's TT list, NT row-ids
   and CAT source row-ids, with their plan positions — is matched
   against those groups in one pass.  The dimension whose base members
   the delta covers least sieves out the probes whose member there no
   delta row has; a hashed bitmap of the group keys drops most of the
   rest, and a ``searchsorted`` is the exact test.  The delta's probes
   and the stored ones are keyed by one :func:`pack_keys` call, so a code
   span it re-ranks re-ranks both alike and the match stays exact.
3. *TTs, by upward closure.*  Tuples that agree on a node's grouping
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
4. *Batches.*  NT merges, CAT demotions and new groups are computed on
   arrays for all nodes together; only the write-back loops over nodes,
   replacing each changed relation by a fresh array
   (``ArrayRelation.replace``).  The added NT and TT rows go in at
   their row-ids' places — one ``searchsorted`` over every node's
   (position, row-id) keys, and one ``take`` per changed relation — so
   the relations of a CURE+ cube stay in row-id order and the CURE+
   pass the ingestor re-runs after a delta finds nothing to sort.

What is still proportional to stored rows: concatenating every node's
relations, the sieve over every stored row-id, the write-back's keys and
interleaving order over every stored NT and TT row, and its copy of each
changed relation.  What is proportional to the delta: the
``N·k`` probes, the keys past the sieve, and the merges.

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
import numpy as np

from repro.core.model import CubeSchema
from repro.core.segments import (
    aggregate_ufuncs,
    pack_keys,
    reduce_columns,
    sort_groups,
    stable_order,
)
from repro.core.storage import VALUE_BYTES, CatFormat, CubeStorage
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


def apply_delta(
    storage: CubeStorage,
    schema: CubeSchema,
    fact_table: Table,
    delta_rows: Sequence[Sequence[int]] | np.ndarray,
) -> UpdateReport:
    """Merge ``delta_rows`` into ``storage``, appending them to
    ``fact_table`` (both updated in place).

    ``delta_rows`` is a sequence of fact tuples or an int64 matrix of
    them.  Requirements: a non-DR, non-iceberg cube built over
    ``fact_table`` with distributive aggregates.
    """
    if storage.dr_mode:
        raise ValueError(
            "incremental maintenance is implemented for row-id based NTs; "
            "rebuild DR cubes instead"
        )
    if not schema.all_distributive:
        raise ValueError(
            "incremental maintenance needs distributive aggregates"
        )
    report = UpdateReport(delta_rows=len(delta_rows))
    if not report.delta_rows:
        return report

    # Validate the whole delta before mutating anything.  A bad row must
    # leave the fact table and the cube exactly as they were: a rejected
    # delta is a no-op, never a partial append with ``plus_processed``
    # already cleared.
    delta = validate_delta(schema, delta_rows)

    # A CURE+ cube relies on sorted row-id lists.  The merger inserts
    # each added row at its row-id's place, so a sorted relation stays
    # sorted, but the flag goes until
    # :func:`repro.core.postprocess.postprocess_plus` has checked every
    # relation (and sorted any that falls) again.
    storage.plus_processed = False

    base_rowid = len(fact_table)
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


#: Fibonacci hashing multiplier (2^64 / golden ratio) for the group bitmap.
_HASH = np.uint64(0x9E3779B97F4A7C15)


def _stacked(
    arrays: list[np.ndarray], width: int | None
) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """One relation of every plan node, concatenated in plan order:
    ``(rows, plan position of each row, node offsets)`` — node ``i``'s
    rows are ``offsets[i]:offsets[i + 1]``.  ``width`` is the row width
    of a matrix relation (None: a vector); an empty relation is the empty
    vector, whatever its width."""
    counts = [len(array) for array in arrays]
    parts = [array for array in arrays if len(array)]
    if parts:
        rows = np.concatenate(parts)
    elif width is None:
        rows = _NO_ROWIDS
    else:
        rows = np.empty((0, width), dtype=np.int64)
    positions = np.repeat(np.arange(len(arrays), dtype=np.int64), counts)
    return rows, positions, list(itertools.accumulate(counts, initial=0))


def _offsets(positions: np.ndarray, n_nodes: int) -> list[int]:
    """Node offsets of ascending plan ``positions``."""
    return np.searchsorted(
        positions, np.arange(n_nodes + 1, dtype=np.int64)
    ).tolist()


class _DeltaMerger:
    """One delta folded into every plan node at once, on arrays.

    ``batch`` is the fact table *after* the append: rows from
    ``base_rowid`` on are the delta.  A *probe* is a fact row-id asked
    at a plan position.  Its group key there packs the position and, per
    dimension, the rank of the row's member among the delta's members at
    the node's level (0 when no delta row has that member, 1 at ALL);
    probes are keyed by one :func:`pack_keys` call together with the
    delta's own probes, so a key that call re-ranks still compares
    exactly with the delta's.
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
        plan = schema.plan_order(storage.flat)
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
        self._parent = np.array(parent, dtype=np.int64)
        self._size = np.array(size, dtype=np.int64)
        self._depth = np.array(depth, dtype=np.int64)

        self._dim_columns = batch.arrays[: schema.n_dimensions]
        self._measures = [
            batch.arrays[schema.n_dimensions + spec.measure_index]
            for spec in schema.aggregates
        ]
        self._functions = [spec.function for spec in schema.aggregates]
        self._ufuncs = aggregate_ufuncs(schema)
        self._k = k = batch.length - base_rowid

        # Per dimension one rank table over (level, base code), and each
        # plan position's offset into it.  The dimension whose base
        # members the delta covers least is the sieve: a probe whose
        # member there is no delta row's is in no group.
        levels = np.array([node.levels for node, *_ in plan], dtype=np.int64)
        self._ranks: list[np.ndarray] = []
        self._offsets: list[np.ndarray] = []
        self._radices = [n_nodes]
        coverage = []
        for d, dimension in enumerate(schema.dimensions):
            base = dimension.base_cardinality
            appended = self._dim_columns[d][base_rowid:]
            ranks = np.ones((dimension.n_levels + 1, base), dtype=np.int64)
            radix = 1
            for level, level_map in enumerate(dimension.level_maps):
                present = np.zeros(dimension.cardinality(level), dtype=np.bool_)
                present[level_map[appended]] = True
                rank = np.cumsum(present)
                radix = max(radix, int(rank[-1]))
                rank *= present
                np.take(rank, level_map, out=ranks[level])
            self._ranks.append(ranks.ravel())
            self._offsets.append(levels[:, d] * base)
            self._radices.append(radix + 1)
            coverage.append(int(ranks[0].max()) / base)
        self._sieve = int(np.argmin(coverage))
        self._sieve_members = self._ranks[self._sieve] > 0

        # The delta's own probes, position-major: probe p is delta row
        # p % k at position p // k.
        self._probe_rowids = np.tile(
            np.arange(base_rowid, batch.length, dtype=np.int64), n_nodes
        )
        self._probe_positions = np.repeat(np.arange(n_nodes, dtype=np.int64), k)
        order, _, starts = sort_groups(self._keys(_NO_ROWIDS, _NO_ROWIDS)[0])
        # Per group (by position, then key): its first probe — the sort is
        # stable, so its lowest row-id — row count and aggregates.
        self._first = order[starts]
        self.group_position = self._first // k
        self.group_rowid = base_rowid + self._first % k
        self.group_count = np.diff(np.append(starts, len(order)))
        self.group_aggregates = reduce_columns(
            self._ufuncs,
            self._singletons(self._probe_rowids[:k])[order % k],
            starts,
        )
        self._probe_group = np.empty(len(order), dtype=np.int64)
        self._probe_group[order] = np.repeat(
            np.arange(len(starts), dtype=np.int64), self.group_count
        )

    # -- keys and membership -----------------------------------------------------

    def _digits(
        self, d: int, rowids: np.ndarray, positions: np.ndarray, out: np.ndarray
    ) -> np.ndarray:
        """Per probe, its member's rank among the delta's members of
        dimension ``d`` at the probe's level (0: none), into ``out``.
        Every index is in range; ``mode="clip"`` only spares ``take`` the
        buffered copy its default mode makes when given ``out``."""
        np.take(self._offsets[d], positions, out=out, mode="clip")
        np.add(out, self._dim_columns[d][rowids], out=out)
        return np.take(self._ranks[d], out, out=out, mode="clip")

    def _sifted(self, rowids: np.ndarray, positions: np.ndarray) -> np.ndarray:
        """The probes whose member of the sieve dimension, at the
        probe's level, some delta row has — the others are in no group."""
        index = np.take(self._offsets[self._sieve], positions, mode="clip")
        index += self._dim_columns[self._sieve][rowids]
        return np.flatnonzero(np.take(self._sieve_members, index, mode="clip"))

    def _keys(
        self, rowids: np.ndarray, positions: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The delta probes' keys, and those of ``rowids`` at plan
        ``positions``, from one :func:`pack_keys` call."""
        rowids = np.concatenate((self._probe_rowids, rowids))
        positions = np.concatenate((self._probe_positions, positions))
        digits = np.empty(len(rowids), dtype=np.int64)
        columns = itertools.chain(
            (positions,),
            (
                self._digits(d, rowids, positions, digits)
                for d in range(len(self._ranks))
            ),
        )
        keys = pack_keys(columns, self._radices)
        split = len(self._probe_rowids)
        return keys[:split], keys[split:]

    def _match(
        self, parts: Sequence[tuple[np.ndarray, np.ndarray]]
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per part of aligned ``(rowids, positions)`` probes: the probes
        that fall in a delta group, ascending, and those groups.

        The sieve dimension drops most probes that cannot be in a group,
        a hashed bitmap of the groups' keys most of the rest; the keys
        ascend, so the exact test is a ``searchsorted``.
        """
        kept = [self._sifted(rowids, positions) for rowids, positions in parts]
        delta_keys, keys = self._keys(
            np.concatenate([rowids[k] for (rowids, _), k in zip(parts, kept)]),
            np.concatenate([at[k] for (_, at), k in zip(parts, kept)]),
        )
        table = delta_keys[self._first]
        bits = max(10, (8 * len(table)).bit_length())
        shift = np.uint64(64 - bits)
        bitmap = np.zeros(1 << bits, dtype=np.bool_)
        bitmap[(table.view(np.uint64) * _HASH) >> shift] = True
        hashed = keys.view(np.uint64) * _HASH
        hashed >>= shift
        candidates = np.flatnonzero(bitmap[hashed])
        wanted = keys[candidates]
        group = np.minimum(np.searchsorted(table, wanted), len(table) - 1)
        hit = table[group] == wanted
        probes, groups = candidates[hit], group[hit]
        starts = np.cumsum([0] + [len(k) for k in kept])
        cuts = np.searchsorted(probes, starts).tolist()
        return [
            (k[probes[low:high] - start], groups[low:high])
            for k, start, low, high in zip(kept, starts.tolist(), cuts, cuts[1:])
        ]

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
        trivial, trivial_at, trivial_offsets = _stacked(
            [store.tt_array() for store in stores], None
        )
        normal, normal_at, normal_offsets = _stacked(
            [store.nt_matrix() for store in stores], 1 + n_ufuncs
        )
        source_format = storage.cat_format is CatFormat.COMMON_SOURCE
        common, common_at, common_offsets = _stacked(
            [store.cat_matrix() for store in stores], 1 if source_format else 2
        )
        shared = storage.aggregates_matrix()
        source_rowids = shared[common[:, 0], 0] if source_format else common[:, 0]

        # One membership pass: every stored row-id at its own node.
        tts, nts, cats = self._match(
            (
                (trivial, trivial_at),
                (normal[:, 0], normal_at),
                (source_rowids, common_at),
            )
        )
        (devalued, trivial_group), (rewritten, normal_group) = tts, nts
        demoted, common_group = cats
        report.tts_devalued += len(devalued)
        (became_rowids, became_at, became_group), (stay_rowids, stay_at) = (
            self._devalue(trivial, trivial_at, devalued, trivial_group)
        )
        report.nts_merged += len(became_rowids)

        # NTs merge in place (distributive aggregates, minimum row-id).
        normal[rewritten] = self._merged(
            normal[rewritten, 0], normal[rewritten, 1:], normal_group
        )
        report.nts_merged += len(rewritten)

        # Touched CATs are demoted to NTs.
        if source_format:
            source_aggregates = shared[common[demoted, 0], 1:]
        else:
            source_aggregates = shared[common[demoted, 1]]
        demoted_rows = self._merged(
            source_rowids[demoted], source_aggregates, common_group
        )
        report.cats_demoted += len(demoted)
        storage.update_drift_bytes += (
            len(demoted) * (1 + n_ufuncs - common.shape[1]) * VALUE_BYTES
        )

        matched = np.zeros(len(self.group_count), dtype=np.bool_)
        for groups in (became_group, normal_group, common_group):
            matched[groups] = True
        several, new_tts = self._new_groups(~matched)
        report.new_nts += len(several)
        report.new_tts += len(new_tts)

        # Write back, node by node: fresh arrays (never the ones a query
        # was handed), each added row put before the first stored one
        # with a larger row-id, so a CURE+ cube's relations stay in
        # row-id order.
        added_nt, added_nt_at = _by_position(
            (
                self._merged(
                    became_rowids, self._singletons(became_rowids), became_group
                ),
                became_at,
            ),
            (demoted_rows, common_at[demoted]),
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
        keep_trivial = np.ones(len(trivial), dtype=np.bool_)
        keep_trivial[devalued] = False
        keep_common = np.ones(len(common), dtype=np.bool_)
        keep_common[demoted] = False
        nts, nt_order, nt_offsets = self._inserted(
            normal, normal_at, added_nt, added_nt_at
        )
        tts, tt_order, tt_offsets = self._inserted(
            trivial[keep_trivial], trivial_at[keep_trivial], added_tt, added_tt_at
        )
        rewrites = _offsets(normal_at[rewritten], n_nodes)
        added_nts = _offsets(added_nt_at, n_nodes)
        demotions = _offsets(common_at[demoted], n_nodes)
        devaluations = _offsets(trivial_at[devalued], n_nodes)
        added_tts = _offsets(added_tt_at, n_nodes)
        for position, store in enumerate(stores):
            here = slice(position, position + 2)
            r0, r1 = rewrites[here]
            a0, a1 = added_nts[here]
            d0, d1 = demotions[here]
            c0, c1 = common_offsets[here]
            v0, v1 = devaluations[here]
            s0, s1 = added_tts[here]
            if r0 < r1 or a0 < a1:
                store.nt.replace(
                    np.take(nts, nt_order[slice(*nt_offsets[here])], axis=0)
                )
            if d0 < d1:
                store.cat.replace(common[c0:c1][keep_common[c0:c1]])
            if v0 < v1 or s0 < s1:
                store.tt.replace(np.take(tts, tt_order[slice(*tt_offsets[here])]))

    def _inserted(
        self,
        rows: np.ndarray,
        at: np.ndarray,
        added: np.ndarray,
        added_at: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, list[int]]:
        """``added`` rows (grouped by plan position ``added_at``, by
        row-id within one) put into the stored ``rows`` (grouped by
        ``at``), each before the first row of its node with a larger
        row-id: a node whose rows ascend by row-id still does.  One
        ``searchsorted`` over (position, row-id) keys finds the places —
        every row-id is below the fact row count, so the keys of one
        node's rows sit between those of the nodes around it, in order
        or not.  Returns ``rows`` and ``added`` stacked, the order that
        interleaves them (each added row at its place, shifted by the
        added rows before it; the stored rows, in turn, in the rest) and
        its node offsets: node ``i``'s new relation is one ``take`` of
        the stack by its slice of the order."""
        span = len(self._dim_columns[0])

        def keys(values: np.ndarray, positions: np.ndarray) -> np.ndarray:
            return positions * span + (values if values.ndim == 1 else values[:, 0])

        n, k = len(rows), len(added)
        into = np.searchsorted(keys(rows, at), keys(added, added_at))
        into += np.arange(k, dtype=np.int64)
        order = np.empty(n + k, dtype=np.int64)
        order[into] = np.arange(n, n + k, dtype=np.int64)
        stored = np.ones(n + k, dtype=np.bool_)
        stored[into] = False
        order[stored] = np.arange(n, dtype=np.int64)
        n_nodes = len(self.node_ids)
        offsets = np.add(_offsets(at, n_nodes), _offsets(added_at, n_nodes))
        return np.concatenate((rows, added)), order, offsets.tolist()

    def _devalue(
        self,
        trivial: np.ndarray,
        trivial_at: np.ndarray,
        devalued: np.ndarray,
        groups: np.ndarray,
    ) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
        """Where the TTs the delta touches at their own node go.

        Touchedness is upward-closed along the plan, so a TT stored at
        position a whose group the delta touches (``groups``, per
        ``devalued`` index into ``trivial``) becomes an NT at each node of
        a's plan sub-tree where the delta touches it, stays a TT at each
        node touched at its plan parent but not itself, and is covered by
        those below.  Returns the NTs as ``(row-ids, positions, delta
        groups)`` and the TTs as ``(row-ids, positions)``; at a node,
        its own former TTs come first, then its plan parent's,
        grandparent's, … each in stored order.
        """
        spans = self._size[trivial_at[devalued]]
        pair_tt = np.repeat(devalued, spans)
        pair_root = trivial_at[pair_tt]
        pair_at = pair_root + (
            np.arange(len(pair_tt), dtype=np.int64)
            - np.repeat(np.cumsum(spans) - spans, spans)
        )
        pair_group = np.repeat(groups, spans)
        below = np.flatnonzero(pair_at != pair_root)
        pair_group[below] = -1
        [(hits, found)] = self._match(((trivial[pair_tt[below]], pair_at[below]),))
        pair_group[below[hits]] = found
        touched = pair_group >= 0
        # A pair's parent pair sits (position − parent position) before it.
        stay = np.zeros(len(pair_tt), dtype=np.bool_)
        stay[below] = ~touched[below] & touched[
            below - pair_at[below] + self._parent[pair_at[below]]
        ]
        order = stable_order(pair_at, self._depth[pair_at] - self._depth[pair_root])
        became = order[touched[order]]
        stays = order[stay[order]]
        return (
            (trivial[pair_tt[became]], pair_at[became], pair_group[became]),
            (trivial[pair_tt[stays]], pair_at[stays]),
        )

    def _new_groups(self, fresh: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The ``fresh`` delta groups (no stored tuple had them) that are
        new NTs — several delta rows — and new TTs: a single row, unless
        its group at the plan parent is fresh and single too, whose TT
        there covers this node."""
        several = np.flatnonzero(fresh & (self.group_count > 1))
        single = fresh & (self.group_count == 1)
        singles = np.flatnonzero(single)
        parent = self._parent[self.group_position[singles]]
        covered = single[
            self._probe_group[
                np.maximum(parent, 0) * self._k + self._first[singles] % self._k
            ]
        ]
        return several, singles[(parent < 0) | ~covered]


def _by_position(
    *parts: tuple[np.ndarray, np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """``(rows, plan positions)`` parts as one array grouped by position,
    by row-id (a row's first value) within one, and those positions."""
    rows = np.concatenate([part for part, _ in parts])
    positions = np.concatenate([at for _, at in parts])
    order = stable_order(positions, rows if rows.ndim == 1 else rows[:, 0])
    return np.take(rows, order, axis=0), positions[order]
