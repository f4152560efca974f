"""Reference oracle: the record-at-a-time delta merger, verbatim.

This is the merger ``repro.core.incremental`` shipped before the array
rewrite — ``_Merger`` projecting, classifying and merging one stored row
and one lattice node at a time (``_project``, ``_node_groups``,
``_replace_tt``, ``_merge_existing``).  It is test-only:
:mod:`tests.property.test_hypothesis_delta_merge` requires the production
merger to leave, per node, the same multiset of NT rows, TT row-ids and
CAT rows, the same AGGREGATES rows, drift accounting and
``UpdateReport`` counters.  It is slow by design (it is the loop version
the vectorized one is checked against) and must not grow optimizations.

It walks and edits the relations as Python row lists, read from and
written back to the storage's arrays through
:class:`tests.support.rows.CubeRows`.
"""

from __future__ import annotations

from repro.core.incremental import UpdateReport
from repro.core.model import CubeSchema
from repro.core.storage import VALUE_BYTES, CatFormat, CubeStorage
from repro.lattice.node import CubeNode
from repro.lattice.plan import plan_parent
from repro.relational.aggregates import aggregate_singleton, merge_vectors
from repro.relational.table import Table
from tests.support.rows import CubeRows


def apply_delta_by_record(
    storage: CubeStorage,
    schema: CubeSchema,
    fact_table: Table,
    delta_rows: list[tuple],
) -> UpdateReport:
    """Merge ``delta_rows`` into ``storage``, appending them to
    ``fact_table`` (both updated in place).

    Requirements: a non-DR, non-iceberg cube built over ``fact_table``
    with distributive aggregates.
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
    if not delta_rows:
        return report

    # Validate the whole delta before mutating anything.  A bad row must
    # leave the fact table and the cube exactly as they were: a rejected
    # delta is a no-op, never a partial append with ``plus_processed``
    # already cleared.
    for row in delta_rows:
        schema.fact_schema.validate_row(row)
    report.delta_codes = [schema.dim_values(row) for row in delta_rows]

    # A CURE+ cube relies on sorted row-id lists; updates append out of
    # order, so the plus property goes (re-run
    # :func:`repro.core.postprocess.postprocess_plus` afterwards to
    # restore it).
    rows = CubeRows(storage)
    storage.plus_processed = False

    base_rowid = len(fact_table)
    for row in delta_rows:
        fact_table.append(row)
    storage.fact_row_count = len(fact_table)

    merger = _Merger(storage, rows, schema, fact_table, report)
    merger.flatten_delta(delta_rows, base_rowid)
    merger.devalue_touched_tts()
    merger.merge_delta()
    rows.write_back()
    return report


class _Merger:
    def __init__(self, storage, rows, schema, fact_table, report) -> None:
        self.storage = storage
        #: The same cube as row lists; every relation read or edit below
        #: goes through it.
        self.rows = rows
        self.schema = schema
        self.fact_table = fact_table
        self.report = report
        self._nodes = list(
            schema.lattice.flat_nodes() if storage.flat
            else schema.lattice.nodes()
        )
        self._children = self._plan_children()
        # node_id -> {dims: [aggregates(list), min_rowid, row_count]}
        self.delta: dict[int, dict[tuple, list]] = {}
        # node_id -> {dims: ("nt"|"cat", position)} over existing storage
        self._groups: dict[int, dict[tuple, tuple[str, int]]] = {}
        # rowid -> base dimension codes (TT rows project at many nodes)
        self._base_codes: dict[int, tuple[int, ...]] = {}

    # -- structure ---------------------------------------------------------------

    def _plan_children(self) -> dict[int, list[CubeNode]]:
        children: dict[int, list[CubeNode]] = {}
        lattice = self.schema.lattice
        for node in self._nodes:
            parent = plan_parent(lattice, node, flat=self.storage.flat)
            if parent is not None:
                children.setdefault(
                    self.schema.node_id(parent), []
                ).append(node)
        return children

    def _project(self, rowid: int, node: CubeNode) -> tuple[int, ...]:
        base_codes = self._base_codes.get(rowid)
        if base_codes is None:
            base_codes = self.schema.dim_values(self.fact_table[rowid])
            self._base_codes[rowid] = base_codes
        return self.schema.project_to_node(base_codes, node)

    # -- delta flattening -----------------------------------------------------------

    def flatten_delta(self, delta_rows: list[tuple], base_rowid: int) -> None:
        schema = self.schema
        for offset, row in enumerate(delta_rows):
            rowid = base_rowid + offset
            base_codes = schema.dim_values(row)
            partial = list(
                aggregate_singleton(schema.aggregates, schema.measures(row))
            )
            for node in self._nodes:
                node_id = schema.node_id(node)
                dims = schema.project_to_node(base_codes, node)
                per_node = self.delta.setdefault(node_id, {})
                entry = per_node.get(dims)
                if entry is None:
                    per_node[dims] = [list(partial), rowid, 1]
                else:
                    entry[0] = list(
                        merge_vectors(
                            schema.aggregates,
                            tuple(entry[0]),
                            tuple(partial),
                        )
                    )
                    entry[1] = min(entry[1], rowid)
                    entry[2] += 1

    # -- existing-group index ----------------------------------------------------------

    def _node_groups(self, node_id: int) -> dict[tuple, tuple[str, int]]:
        cached = self._groups.get(node_id)
        if cached is not None:
            return cached
        node = self.schema.decode_node(node_id)
        lookup: dict[tuple, tuple[str, int]] = {}
        store = self.rows.get_node_store(node_id)
        if store is not None:
            for position, row in enumerate(store.nt_rows):
                lookup[self._project(row[0], node)] = ("nt", position)
            for position, row in enumerate(store.cat_rows):
                lookup[self._project(self._cat_rowid(row), node)] = (
                    "cat", position,
                )
        self._groups[node_id] = lookup
        return lookup

    def _cat_rowid(self, cat_row: tuple) -> int:
        if self.storage.cat_format is CatFormat.COMMON_SOURCE:
            return self.rows.aggregates_rows[cat_row[0]][0]
        return cat_row[0]

    def _register_nt(self, node_id: int, dims, row: tuple) -> None:
        store = self.rows.node_store(node_id)
        store.nt_rows.append(row)
        self._node_groups(node_id)[dims] = ("nt", len(store.nt_rows) - 1)

    # -- pass 1: TT devaluation ------------------------------------------------------------

    def devalue_touched_tts(self) -> None:
        """Remove TTs whose group the delta touches; re-place them locally."""
        for node in self._nodes:
            node_id = self.schema.node_id(node)
            store = self.rows.get_node_store(node_id)
            if store is None or not store.tt_rowids:
                continue
            delta_here = self.delta.get(node_id, {})
            if not delta_here:
                continue
            kept: list[int] = []
            for rowid in store.tt_rowids:
                if self._project(rowid, node) in delta_here:
                    self._replace_tt(node, node_id, rowid)
                    self.report.tts_devalued += 1
                else:
                    kept.append(rowid)
            store.tt_rowids = kept

    def _replace_tt(self, node: CubeNode, node_id: int, rowid: int) -> None:
        """Re-place a devalued TT over its plan sub-tree.

        Touchedness is upward-closed: if any node of a sub-tree is
        touched by a delta row matching this tuple, so is the sub-tree's
        root (agreement on fine grouping attributes implies agreement on
        coarse ones).  Hence the recursion: touched node → explicit NT,
        then recurse; untouched node → the TT safely covers its sub-tree.
        """
        dims = self._project(rowid, node)
        delta_here = self.delta.get(node_id, {})
        if dims in delta_here:
            fact_row = self.fact_table[rowid]
            aggregates = aggregate_singleton(
                self.schema.aggregates, self.schema.measures(fact_row)
            )
            self._register_nt(node_id, dims, (rowid,) + aggregates)
            self.report.nodes_touched.add(node_id)
            for child in self._children.get(node_id, ()):
                self._replace_tt(child, self.schema.node_id(child), rowid)
        else:
            self.rows.node_store(node_id).tt_rowids.append(rowid)

    # -- pass 2: merging delta groups ----------------------------------------------------------

    def merge_delta(self) -> None:
        schema = self.schema
        for node in self._nodes:
            node_id = schema.node_id(node)
            delta_here = self.delta.get(node_id)
            if not delta_here:
                continue
            self.report.nodes_touched.add(node_id)
            lookup = self._node_groups(node_id)
            store = self.rows.node_store(node_id)
            for dims, (aggregates, rowid, count) in delta_here.items():
                existing = lookup.get(dims)
                if existing is not None:
                    self._merge_existing(
                        node, store, lookup, dims, existing, aggregates, rowid
                    )
                elif count == 1 and self._covered_by_parent_tt(node, rowid):
                    continue  # the plan parent's new TT already covers it
                elif count == 1:
                    store.tt_rowids.append(rowid)
                    self.report.new_tts += 1
                else:
                    self._register_nt(
                        node_id, dims, (rowid,) + tuple(aggregates)
                    )
                    self.report.new_nts += 1

    def _covered_by_parent_tt(self, node: CubeNode, rowid: int) -> bool:
        """Did (or will) the plan parent store this row as a new TT?

        True when the parent's delta group containing the row is also a
        brand-new single tuple — then the TT written there is shared with
        this node, exactly like construction-time pruning.
        """
        parent = plan_parent(
            self.schema.lattice, node, flat=self.storage.flat
        )
        if parent is None:
            return False
        parent_id = self.schema.node_id(parent)
        parent_dims = self._project(rowid, parent)
        entry = self.delta.get(parent_id, {}).get(parent_dims)
        if entry is None or entry[2] != 1:
            return False
        if parent_dims in self._node_groups(parent_id):
            return False
        # The parent group must itself be uncovered or covered — recurse.
        return True

    def _merge_existing(
        self, node, store, lookup, dims, existing, aggregates, rowid
    ) -> None:
        kind, position = existing
        y = self.schema.n_aggregates
        if kind == "nt":
            row = store.nt_rows[position]
            merged = merge_vectors(
                self.schema.aggregates, row[1 : 1 + y], tuple(aggregates)
            )
            store.nt_rows[position] = (min(row[0], rowid),) + merged
            self.report.nts_merged += 1
            return
        # CAT demotion: detach from the shared AGGREGATES row, merge, and
        # store as a plain NT (the open part of the paper's plan).  The
        # NT row is wider than the CAT row it replaces (and the shared
        # AGGREGATES row it referenced may end up orphaned); account that
        # growth so the cheap drift estimate can trigger compaction.
        cat_values = (
            1 if self.storage.cat_format is CatFormat.COMMON_SOURCE else 2
        )
        self.storage.update_drift_bytes += (1 + y - cat_values) * VALUE_BYTES
        cat_row = store.cat_rows.pop(position)
        if self.storage.cat_format is CatFormat.COMMON_SOURCE:
            entry = self.rows.aggregates_rows[cat_row[0]]
            old_rowid, old_aggregates = entry[0], entry[1 : 1 + y]
        else:
            old_rowid = cat_row[0]
            old_aggregates = tuple(self.rows.aggregates_rows[cat_row[1]])
        merged = merge_vectors(
            self.schema.aggregates, old_aggregates, tuple(aggregates)
        )
        store.nt_rows.append((min(old_rowid, rowid),) + merged)
        lookup[dims] = ("nt", len(store.nt_rows) - 1)
        self.report.cats_demoted += 1
        # Popping shifted the remaining CAT positions: refresh them.
        for key in [k for k, v in lookup.items() if v[0] == "cat"]:
            del lookup[key]
        for cat_position, remaining in enumerate(store.cat_rows):
            cat_dims = self._project(self._cat_rowid(remaining), node)
            lookup[cat_dims] = ("cat", cat_position)
