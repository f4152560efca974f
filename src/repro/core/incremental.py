"""Incremental cube maintenance (the paper's Section 8 future work).

The paper closes with: "we will further study incremental updating for
redundant tuples in CURE cubes.  Our initial investigation has resulted in
efficient methods for updating NTs and TTs, and we are currently working
on CATs."  This module implements that split for *appends* (new fact
tuples — the common data-warehouse refresh):

* **TTs** — a trivial tuple whose group gains delta rows stops being
  trivial.  Its row-id is removed from the sub-tree root's TT relation and
  re-placed over the plan sub-tree: at nodes whose group the delta touches
  it becomes an explicit NT (merged with the delta in the second pass); at
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

**Cost.**  One sweep over the execution plan, parents before children.
Per node the fact table's dimension columns are rolled up through
``Dimension.level_maps`` and packed into one int64 grouping key per fact
row (numpy gathers, no per-row Python); the delta's groups come from one
stable sort + ``reduceat`` over the ≤ |delta| new keys; and every stored
relation — TT row-ids, NT and CAT source row-ids — is tested against
those groups with one ``searchsorted``.  Devaluation is a mask, NT merges
and CAT demotions are batched per node, and each rewritten relation
replaces the stored array wholesale (``ArrayRelation.replace``).  Work is
*delta × lattice plus one vectorised membership test per node*; nothing
loops over stored rows.

After many updates the cube drifts from the fully condensed form (demoted
CATs, localized TTs); tests assert exact query equivalence with a
from-scratch rebuild and storage equivalence with the record-at-a-time
reference merger (``tests/support/record_merger.py``), and
:func:`drift_report` measures the space gap.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.core.model import CubeSchema
from repro.core.segments import (
    aggregate_ufuncs,
    pack_keys,
    reduce_columns,
    sort_groups,
)
from repro.core.storage import VALUE_BYTES, CatFormat, CubeStorage, NodeStore
from repro.lattice.node import CubeNode
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
    nodes_touched: set[int] = field(default_factory=set)
    #: Base dimension codes of every delta row, for answer-level
    #: invalidation: a cached *sliced* answer changes only if some delta
    #: row's projection onto its node satisfies the slice predicate.
    delta_codes: list[tuple[int, ...]] = field(default_factory=list)


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
    if storage.partition_level is not None:
        raise ValueError(
            "incremental maintenance over partitioned cubes is not "
            "supported: the TT chain is cut at the partition level"
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
    report.delta_codes = list(
        map(tuple, delta[:, : schema.n_dimensions].tolist())
    )

    # A CURE+ cube relies on sorted row-id lists; updates append out of
    # order, so the plus property goes (re-run
    # :func:`repro.core.postprocess.postprocess_plus` afterwards to
    # restore it).
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


class _DeltaGroups(NamedTuple):
    """The delta's groups at one node, under that node's packed key."""

    #: Every fact row's group key at the node (base rows, then delta rows).
    row_keys: np.ndarray
    #: Ascending distinct keys among the delta rows; the rest is per group.
    keys: np.ndarray
    counts: np.ndarray
    first_rowid: np.ndarray
    aggregates: np.ndarray

    def of(self, rowids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per stored row-id: its delta group, and whether it has one."""
        wanted = self.row_keys[rowids]
        group = np.minimum(
            np.searchsorted(self.keys, wanted), len(self.keys) - 1
        )
        return group, self.keys[group] == wanted


class _DeltaMerger:
    """One delta folded into a cube, a plan node at a time, on arrays.

    ``batch`` is the fact table *after* the append: rows from
    ``base_rowid`` on are the delta.  The sweep follows
    :meth:`CubeSchema.plan_order`, so when a node is merged its plan
    parent already has been, and has left behind the two things a child
    needs: the devalued TTs that reach it, and which delta rows are
    brand-new trivial tuples the parent's TT relation covers.
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
        self.schema = schema
        self.report = report
        self.base_rowid = base_rowid
        self.n_rows = batch.length
        self._dim_columns = batch.arrays[: schema.n_dimensions]
        self._measures = [
            batch.arrays[schema.n_dimensions + spec.measure_index]
            for spec in schema.aggregates
        ]
        self._ufuncs = aggregate_ufuncs(schema)
        self._level_codes: dict[tuple[int, int], np.ndarray] = {}
        self._delta_aggregates = self._singletons(
            np.arange(base_rowid, batch.length, dtype=np.int64)
        )

    def run(self) -> None:
        devalued: list[np.ndarray] = []
        fresh: list[np.ndarray] = []
        for node, node_id, parent in self.schema.plan_order(self.storage.flat):
            became, singles = self._merge_node(
                self.storage.node_store(node_id),
                self._groups_at(node),
                devalued[parent] if parent >= 0 else _NO_ROWIDS,
                fresh[parent] if parent >= 0 else None,
            )
            devalued.append(became)
            fresh.append(singles)
            self.report.nodes_touched.add(node_id)

    # -- fact-side arrays --------------------------------------------------------

    def _singletons(self, rowids: np.ndarray) -> np.ndarray:
        """Aggregate vectors of single fact tuples, one row per row-id."""
        matrix = np.empty((len(rowids), len(self._ufuncs)), dtype=np.int64)
        for y, spec in enumerate(self.schema.aggregates):
            matrix[:, y] = spec.function.from_column(self._measures[y][rowids])
        return matrix

    def _merged(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """Component-wise merge of two aligned aggregate matrices."""
        merged = np.empty_like(left)
        for y, ufunc in enumerate(self._ufuncs):
            ufunc(left[:, y], right[:, y], out=merged[:, y])
        return merged

    def _node_keys(self, node: CubeNode) -> np.ndarray:
        """Every fact row's group at ``node`` as one int64 key
        (:func:`pack_keys` over base and delta rows together, so a
        re-ranked key still supports membership tests)."""
        columns: list[np.ndarray] = []
        cardinalities: list[int] = []
        for d, level in enumerate(node.levels):
            dimension = self.schema.dimensions[d]
            if level == dimension.all_level:
                continue
            codes = self._level_codes.get((d, level))
            if codes is None:
                codes = self._dim_columns[d].astype(np.int64)
                if level:
                    codes = dimension.level_maps[level][codes]
                self._level_codes[d, level] = codes
            columns.append(codes)
            cardinalities.append(dimension.cardinality(level))
        if not columns:
            return np.zeros(self.n_rows, dtype=np.int64)
        return pack_keys(columns, cardinalities)

    def _groups_at(self, node: CubeNode) -> _DeltaGroups:
        """Group the delta rows at ``node``: one stable sort + ``reduceat``."""
        row_keys = self._node_keys(node)
        delta_keys = row_keys[self.base_rowid :]
        order, sorted_keys, starts = sort_groups(delta_keys)
        aggregates = reduce_columns(
            self._ufuncs, self._delta_aggregates[order], starts
        )
        return _DeltaGroups(
            row_keys,
            sorted_keys[starts],
            np.append(starts[1:], len(order)) - starts,
            # Stable sort: a group's first row is its lowest row-id.
            self.base_rowid + order[starts],
            aggregates,
        )

    # -- one node ------------------------------------------------------------------

    def _merge_node(
        self,
        store: NodeStore,
        groups: _DeltaGroups,
        inherited: np.ndarray,
        covered: np.ndarray | None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Fold the delta's ``groups`` into one node's relations.

        ``inherited`` are TTs devalued at plan ancestors whose group the
        delta touches all the way down to the parent; ``covered`` marks
        the delta rows (by offset) that are brand-new trivial tuples at
        the parent.  Returns the same two things for this node's
        children.
        """
        report = self.report
        matched = np.zeros(len(groups.keys), dtype=np.bool_)

        # Pass 1 — TT devaluation as a mask.  Touchedness is upward-closed
        # along the plan (tuples that agree on a node's grouping
        # attributes agree on every coarser node's), so a touched TT
        # becomes an explicit NT here, merged with its delta group, and is
        # handed on to the children, while an untouched one safely covers
        # this node's whole sub-tree.
        trivial = store.tt_array()
        trivial_group, trivial_hit = groups.of(trivial)
        inherited_group, inherited_hit = groups.of(inherited)
        became = np.concatenate((trivial[trivial_hit], inherited[inherited_hit]))
        group = np.concatenate(
            (trivial_group[trivial_hit], inherited_group[inherited_hit])
        )
        matched[group] = True
        appended = [
            np.column_stack(
                (
                    became,
                    self._merged(
                        self._singletons(became), groups.aggregates[group]
                    ),
                )
            )
        ]
        report.tts_devalued += np.count_nonzero(trivial_hit)
        report.nts_merged += len(became)

        # Pass 2 — existing NT groups merge in place (distributive
        # aggregates, minimum source row-id kept) ...
        normal = (
            store.nt_matrix()
            if store.nt_count
            else np.empty((0, 1 + len(self._ufuncs)), dtype=np.int64)
        )
        normal_group, normal_hit = groups.of(normal[:, 0])
        rewritten = np.flatnonzero(normal_hit)
        group = normal_group[rewritten]
        matched[group] = True
        merged = np.column_stack(
            (
                np.minimum(normal[rewritten, 0], groups.first_rowid[group]),
                self._merged(normal[rewritten, 1:], groups.aggregates[group]),
            )
        )
        report.nts_merged += len(rewritten)

        # ... touched CATs are demoted to NTs ...
        if store.cat_count:
            appended.append(self._demote_cats(store, groups, matched))

        # ... and what is left is brand new: several delta rows make an
        # NT; a single one is a TT — unless its group at the plan parent
        # is a brand-new single tuple too, in which case the TT written
        # there already covers this node (construction-time sub-tree
        # sharing).
        several = ~matched & (groups.counts > 1)
        appended.append(
            np.column_stack(
                (groups.first_rowid[several], groups.aggregates[several])
            )
        )
        report.new_nts += np.count_nonzero(several)
        single_rowids = groups.first_rowid[~matched & (groups.counts == 1)]
        singles = np.zeros(self.n_rows - self.base_rowid, dtype=np.bool_)
        singles[single_rowids - self.base_rowid] = True
        if covered is not None:
            single_rowids = single_rowids[
                ~covered[single_rowids - self.base_rowid]
            ]
        report.new_tts += len(single_rowids)

        # Write back: fresh arrays (never the ones a query was handed).
        new_rows = np.concatenate(appended)
        if len(rewritten) or len(new_rows):
            rows = np.concatenate((normal, new_rows))
            rows[rewritten] = merged
            store.nt.replace(rows)
        stay = inherited[~inherited_hit]
        if trivial_hit.any() or len(stay) or len(single_rowids):
            store.tt.replace(
                np.concatenate((trivial[~trivial_hit], stay, single_rowids))
            )
        return became, singles

    def _demote_cats(
        self, store: NodeStore, groups: _DeltaGroups, matched: np.ndarray
    ) -> np.ndarray:
        """Turn the CATs the delta touches into merged NT rows (returned).

        Demotion detaches a tuple from its shared AGGREGATES row, merges
        the delta group in and stores it as a plain NT (the open part of
        the paper's plan).  The NT row is wider than the CAT row it
        replaces (and the shared AGGREGATES row may end up orphaned);
        that growth is accounted so the cheap drift estimate can trigger
        compaction.
        """
        common = store.cat_matrix()
        shared = self.storage.aggregates_matrix()
        if self.storage.cat_format is CatFormat.COMMON_SOURCE:
            sources = shared[common[:, 0]]
            source_rowids, source_aggregates = sources[:, 0], sources[:, 1:]
        else:
            source_rowids = common[:, 0]
            source_aggregates = shared[common[:, 1]]
        common_group, common_hit = groups.of(source_rowids)
        demoted = np.flatnonzero(common_hit)
        group = common_group[demoted]
        matched[group] = True
        if len(demoted):
            store.cat.replace(np.delete(common, demoted, axis=0))
            self.report.cats_demoted += len(demoted)
            self.storage.update_drift_bytes += (
                len(demoted)
                * (1 + len(self._ufuncs) - common.shape[1])
                * VALUE_BYTES
            )
        return np.column_stack(
            (
                np.minimum(source_rowids[demoted], groups.first_rowid[group]),
                self._merged(source_aggregates[demoted], groups.aggregates[group]),
            )
        )
