"""CURE's redundancy-free cube storage (Section 5 of the paper).

Per cube node, up to three relations exist:

* **NT** — normal tuples: ``⟨R-rowid, Aggr1..AggrY⟩`` (Figure 8a).  The
  dimension values are *not* stored; they are recoverable by fetching the
  fact tuple at ``R-rowid`` and rolling it up to the node's levels.  In
  ``CURE_DR`` mode the actual dimension values are stored instead, trading
  space for query speed (Section 5.3).
* **TT** — trivial tuples: a bare ``⟨R-rowid⟩`` (Figure 8b).  Stored only
  at the least detailed node of the plan sub-tree that shares them.
* **CAT** — common aggregate tuples, whose aggregate vectors live once in
  the shared ``AGGREGATES`` relation.  Two physical formats (Figure 10):

  * format **(a)** — ``AGGREGATES(R-rowid, Aggr…)``; node rows are a bare
    ``⟨A-rowid⟩``.  Best when common-source CATs prevail, because CATs from
    the same source share one AGGREGATES row.
  * format **(b)** — ``AGGREGATES(Aggr…)``; node rows are
    ``⟨R-rowid, A-rowid⟩``.  Best when coincidental CATs prevail.

  The choice is made once, from first-flush statistics, by the
  ``k/n > Y+1`` rule derived in Section 5.1 (with the degenerate cases:
  ``Y = 1`` → store CATs as plain NTs).

Sizes are accounted in the paper's logical model — 4 bytes per stored
value (row-id, dimension code, or aggregate) — so the reproduction's size
figures are directly comparable in shape to the paper's, independent of
Python object overhead.
"""

from __future__ import annotations

import enum
import json
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro.core.model import CubeSchema
from repro.lattice.node import CubeNode
from repro.core.signature import FormatStatistics, cat_members
from repro.relational.batch import ColumnBatch
from repro.relational.bitmap import Bitmap
from repro.relational.catalog import Catalog
from repro.relational.durable import atomic_write_text, maybe_fire
from repro.relational.schema import Column, ColumnType, TableSchema

VALUE_BYTES = 4
"""Logical size of one stored value (row-id / dimension code / aggregate)."""


class CatFormat(enum.Enum):
    """Physical format of CAT storage (Section 5.1)."""

    COMMON_SOURCE = "a"
    COINCIDENTAL = "b"
    AS_NT = "nt"


def choose_cat_format(
    statistics: FormatStatistics, n_aggregates: int
) -> CatFormat:
    """The paper's decision rule, verbatim:

    | if common source CATs prevail store them in format (a)
    | else if Y = 1 store CATs as NTs
    | else store CATs in format (b)
    """
    if statistics.common_source_prevails(n_aggregates):
        return CatFormat.COMMON_SOURCE
    if n_aggregates == 1:
        return CatFormat.AS_NT
    return CatFormat.COINCIDENTAL


@dataclass
class NodeStore:
    """The up-to-three relations of one cube node.

    The ``*_matrix``/``*_array`` accessors cache int64 views of the row
    lists for the vectorized query paths.  Caches are keyed on list
    length (the relations are append-only during construction); code
    that replaces or reorders a relation in place without changing its
    length must either call :meth:`invalidate_matrices` or — when it
    already holds the relation as an array, as CURE+ post-processing and
    incremental maintenance do — hand the new view over with
    :meth:`adopt_views`, so the next query does not re-box the list.
    """

    nt_rows: list[tuple] = field(default_factory=list)
    tt_rowids: list[int] = field(default_factory=list)
    cat_rows: list[tuple] = field(default_factory=list)
    tt_bitmap: Bitmap | None = None
    cat_bitmap: Bitmap | None = None
    _nt_matrix: np.ndarray | None = field(
        default=None, repr=False, compare=False
    )
    _tt_array: np.ndarray | None = field(
        default=None, repr=False, compare=False
    )
    _cat_matrix: np.ndarray | None = field(
        default=None, repr=False, compare=False
    )

    def nt_matrix(self) -> np.ndarray:
        """``nt_rows`` as a cached int64 matrix (non-empty lists only)."""
        cached = self._nt_matrix
        if cached is None or len(cached) != len(self.nt_rows):
            cached = np.asarray(self.nt_rows, dtype=np.int64)
            self._nt_matrix = cached
        return cached

    def tt_array(self) -> np.ndarray:
        """``tt_rowids`` as a cached int64 array."""
        cached = self._tt_array
        if cached is None or len(cached) != len(self.tt_rowids):
            cached = np.asarray(self.tt_rowids, dtype=np.int64)
            self._tt_array = cached
        return cached

    def cat_matrix(self) -> np.ndarray:
        """``cat_rows`` as a cached int64 matrix (non-empty lists only)."""
        cached = self._cat_matrix
        if cached is None or len(cached) != len(self.cat_rows):
            cached = np.asarray(self.cat_rows, dtype=np.int64)
            self._cat_matrix = cached
        return cached

    def invalidate_matrices(self) -> None:
        """Drop cached views after an in-place relation rewrite."""
        self._nt_matrix = None
        self._tt_array = None
        self._cat_matrix = None

    def adopt_views(
        self,
        nt: np.ndarray | None = None,
        tt: np.ndarray | None = None,
        cat: np.ndarray | None = None,
    ) -> None:
        """Install int64 views of relations the caller has just rewritten.

        Each array must equal its row list element for element (the
        caller edited both in step); the caches never alias an array a
        previous accessor handed out, so answers built over the old view
        stay what they were.
        """
        if nt is not None:
            self._nt_matrix = nt
        if tt is not None:
            self._tt_array = tt
        if cat is not None:
            self._cat_matrix = cat

    @property
    def relation_count(self) -> int:
        """How many physical relations this node materializes."""
        count = 0
        if self.nt_rows:
            count += 1
        if self.tt_rowids or self.tt_bitmap is not None:
            count += 1
        if self.cat_rows or self.cat_bitmap is not None:
            count += 1
        return count

    @property
    def tt_count(self) -> int:
        """How many trivial tuples the node stores, list or bitmap."""
        if self.tt_bitmap is not None:
            return self.tt_bitmap.count()
        return len(self.tt_rowids)

    @property
    def cat_count(self) -> int:
        """How many CATs the node stores, rows or bitmap."""
        if self.cat_bitmap is not None:
            return self.cat_bitmap.count()
        return len(self.cat_rows)

    @property
    def stored_tuples(self) -> int:
        return len(self.nt_rows) + self.tt_count + self.cat_count


@dataclass
class StorageSizeReport:
    """Logical storage breakdown, in bytes (4 bytes per value)."""

    nt_bytes: int = 0
    tt_bytes: int = 0
    cat_bytes: int = 0
    aggregates_bytes: int = 0
    n_relations: int = 0
    n_nt: int = 0
    n_tt: int = 0
    n_cat: int = 0
    n_aggregate_rows: int = 0

    @property
    def total_bytes(self) -> int:
        return (
            self.nt_bytes + self.tt_bytes + self.cat_bytes + self.aggregates_bytes
        )

    @property
    def total_mb(self) -> float:
        return self.total_bytes / (1024 * 1024)


@dataclass
class CubeStorage:
    """All materialized relations of one CURE cube.

    ``row_resolver`` maps a fact R-rowid to its base dimension codes; it is
    required in ``dr_mode`` (dimension values are written into NTs) and by
    the query layer otherwise.
    """

    schema: CubeSchema
    dr_mode: bool = False
    flat: bool = False
    nodes: dict[int, NodeStore] = field(default_factory=dict)
    aggregates_rows: list[tuple] = field(default_factory=list)
    cat_format: CatFormat | None = None
    partition_level: int | None = None
    # Level of the second dimension when partitioning fell back to a
    # dimension *pair* (the extension Section 4 mentions but omits).
    partition_level2: int | None = None
    fact_row_count: int = 0
    row_resolver: Callable[[int], tuple[int, ...]] | None = None
    plus_processed: bool = False
    # Logical bytes of space overhead accrued by incremental maintenance
    # (CAT demotions) since the last from-scratch build; lets
    # ``drift_report(exact=False)`` estimate a rebuild's size without
    # running one.  Reset to zero by construction (fresh storage).
    update_drift_bytes: int = 0
    _aggregates_matrix: np.ndarray | None = field(
        default=None, repr=False, compare=False
    )

    # -- node access ------------------------------------------------------------

    def node_store(self, node_id: int) -> NodeStore:
        store = self.nodes.get(node_id)
        if store is None:
            store = NodeStore()
            self.nodes[node_id] = store
        return store

    def get_node_store(self, node_id: int) -> NodeStore | None:
        return self.nodes.get(node_id)

    # -- write API (driven by apply_outcome and the signature pool) --------------

    def write_tt(self, node_id: int, rowid: int) -> None:
        self.node_store(node_id).tt_rowids.append(rowid)

    def write_tts(self, events: np.ndarray) -> None:
        """Append ``(node_id, rowid)`` trivial-tuple events, in order."""
        self._extend("tt_rowids", events[:, 0], events[:, 1])

    def decide_format(self, statistics: FormatStatistics) -> None:
        """Fix the CAT format from first-flush statistics (once, globally)."""
        if self.cat_format is None:
            self.cat_format = choose_cat_format(
                statistics, self.schema.n_aggregates
            )

    def write_flush(self, rows: np.ndarray, run_lengths: np.ndarray) -> None:
        """Store one classified pool flush.

        ``rows`` are ``(node_id, rowid, aggregates…)`` signatures sorted
        by ``(aggregates, rowid)`` and ``run_lengths`` the lengths of
        their maximal equal-aggregate runs (see
        :class:`~repro.core.signature.SignaturePool`): singleton runs
        become NTs, longer runs CATs under the globally decided format.
        """
        in_cat = cat_members(run_lengths)
        if not in_cat.any() or self.cat_format is CatFormat.AS_NT:
            self._write_nts(rows)
            return
        if self.cat_format is None:
            raise RuntimeError(
                "CAT format not decided; the signature pool must report "
                "statistics before emitting CAT runs"
            )
        self._write_nts(rows[~in_cat])
        cats = rows[in_cat]
        lengths = run_lengths[run_lengths > 1]
        new_row = np.zeros(len(cats), dtype=np.bool_)
        new_row[np.cumsum(lengths) - lengths] = True
        # Format (b): one AGGREGATES row ⟨Aggr…⟩ for the whole run (runs
        # have distinct aggregate vectors by construction); nodes keep the
        # pair ⟨R-rowid, A-rowid⟩.  Format (a): one ⟨R-rowid, Aggr…⟩ row
        # per distinct source within a run — CATs with the same source
        # share it (that is the format's point), and a run ascends by
        # rowid, so equal sources are adjacent; nodes keep ⟨A-rowid⟩.
        common_source = self.cat_format is CatFormat.COMMON_SOURCE
        if common_source:
            new_row[1:] |= cats[1:, 1] != cats[:-1, 1]
        arowids = len(self.aggregates_rows) - 1 + np.cumsum(new_row)
        aggregates = cats[new_row, (1 if common_source else 2) :]
        self.aggregates_rows.extend(map(tuple, aggregates.tolist()))
        if common_source:
            cat_rows = arowids[:, np.newaxis]
        else:
            cat_rows = np.column_stack((cats[:, 1], arowids))
        self._extend("cat_rows", cats[:, 0], cat_rows)

    def _write_nts(self, rows: np.ndarray) -> None:
        if not self.dr_mode:
            self._extend("nt_rows", rows[:, 0], rows[:, 1:])
            return
        nodes = {
            node_id: self.schema.decode_node(node_id)
            for node_id in np.unique(rows[:, 0]).tolist()
        }
        self._extend(
            "nt_rows",
            rows[:, 0],
            [
                self._resolve_node_dims(nodes[node_id], rowid) + tuple(aggregates)
                for node_id, rowid, *aggregates in rows.tolist()
            ],
        )

    def _extend(
        self, relation: str, node_ids: np.ndarray, values: np.ndarray | list
    ) -> None:
        """Append ``values[i]`` to the ``relation`` list of ``node_ids[i]``
        with one ``extend`` per node, keeping each node's arrival order.

        A vector contributes scalars, a matrix one tuple per row, a list
        its items as they are.
        """
        if not len(node_ids):
            return
        order = np.argsort(node_ids, kind="stable")
        if isinstance(values, list):
            items = [values[i] for i in order.tolist()]
        else:
            items = values[order].tolist()
            if values.ndim == 2:
                items = list(map(tuple, items))
        sorted_ids = node_ids[order]
        starts = [0, *(np.flatnonzero(sorted_ids[1:] != sorted_ids[:-1]) + 1).tolist()]
        for start, stop in zip(starts, [*starts[1:], len(items)]):
            node_id = int(sorted_ids[start])
            getattr(self.node_store(node_id), relation).extend(items[start:stop])

    def aggregates_matrix(self) -> np.ndarray:
        """The AGGREGATES relation as a cached int64 matrix.

        The vectorized query layer joins A-rowids against this with one
        fancy-index.  The cache is keyed on the row count: construction
        appends invalidate it, and post-build queries reuse one array.
        """
        cached = self._aggregates_matrix
        if cached is not None and len(cached) == len(self.aggregates_rows):
            return cached
        if not self.aggregates_rows:
            y = self.schema.n_aggregates
            width = 1 + y if self.cat_format is CatFormat.COMMON_SOURCE else y
            return np.empty((0, width), dtype=np.int64)
        cached = np.asarray(self.aggregates_rows, dtype=np.int64)
        self._aggregates_matrix = cached
        return cached

    def _resolve_node_dims(self, node: CubeNode, rowid: int) -> tuple[int, ...]:
        if self.row_resolver is None:
            raise RuntimeError("dr_mode requires a row_resolver")
        return self.schema.project_to_node(self.row_resolver(rowid), node)

    # -- size accounting ---------------------------------------------------------

    def _grouping_arity(self, node_id: int) -> int:
        node = self.schema.decode_node(node_id)
        return len(node.grouping_dims(self.schema.dimensions))

    def size_report(self) -> StorageSizeReport:
        report = StorageSizeReport()
        y = self.schema.n_aggregates
        cat_row_values = 1 if self.cat_format is CatFormat.COMMON_SOURCE else 2
        for node_id, store in self.nodes.items():
            report.n_relations += store.relation_count
            report.n_nt += len(store.nt_rows)
            report.n_cat += len(store.cat_rows)
            if self.dr_mode:
                nt_width = (self._grouping_arity(node_id) + y) * VALUE_BYTES
            else:
                nt_width = (1 + y) * VALUE_BYTES
            report.nt_bytes += len(store.nt_rows) * nt_width
            if store.tt_bitmap is not None:
                report.n_tt += store.tt_bitmap.count()
                report.tt_bytes += store.tt_bitmap.size_bytes
            else:
                report.n_tt += len(store.tt_rowids)
                report.tt_bytes += len(store.tt_rowids) * VALUE_BYTES
            if store.cat_bitmap is not None:
                report.cat_bytes += store.cat_bitmap.size_bytes
            else:
                report.cat_bytes += (
                    len(store.cat_rows) * cat_row_values * VALUE_BYTES
                )
        if self.cat_format is CatFormat.COMMON_SOURCE:
            aggregate_width = (1 + y) * VALUE_BYTES
        else:
            aggregate_width = y * VALUE_BYTES
        report.n_aggregate_rows = len(self.aggregates_rows)
        report.aggregates_bytes = len(self.aggregates_rows) * aggregate_width
        return report

    # -- persistence ---------------------------------------------------------------

    def persist(self, catalog: Catalog, prefix: str = "cube") -> list[str]:
        """Materialize every non-empty relation as a heap file.

        Layout: ``<prefix>.meta`` (JSON side file), ``<prefix>.aggregates``,
        and per node ``<prefix>.n<node_id>.{nt,tt,cat}``.  Returns the
        names of the relations created, so callers staging a crash-safe
        publish know exactly which files to checksum and promote.
        """
        created: list[str] = []
        y = self.schema.n_aggregates
        agg_columns = tuple(
            Column(f"aggr_{i}", ColumnType.INT64) for i in range(y)
        )
        rowid_column = Column("r_rowid", ColumnType.INT64)
        arowid_column = Column("a_rowid", ColumnType.INT64)
        for node_id, store in self.nodes.items():
            if store.nt_rows:
                if self.dr_mode:
                    arity = self._grouping_arity(node_id)
                    dim_columns = tuple(
                        Column(f"dim_{i}", ColumnType.INT32)
                        for i in range(arity)
                    )
                    schema = TableSchema(dim_columns + agg_columns)
                else:
                    schema = TableSchema((rowid_column,) + agg_columns)
                name = f"{prefix}.n{node_id}.nt"
                heap = catalog.create(name, schema)
                heap.append_batch(ColumnBatch.from_rows(schema, store.nt_rows))
                heap.flush()
                created.append(name)
            # Bitmaps (a CURE+ in-memory representation) are materialized
            # back to their ascending row-id lists on disk; the
            # ``plus_processed`` flag in the metadata preserves the sorted
            # sequential-access property across a reload.
            tt_rowids = (
                list(store.tt_bitmap.iter_set())
                if store.tt_bitmap is not None
                else store.tt_rowids
            )
            if tt_rowids:
                name = f"{prefix}.n{node_id}.tt"
                tt_schema = TableSchema((rowid_column,))
                heap = catalog.create(name, tt_schema)
                heap.append_batch(
                    ColumnBatch.from_arrays(
                        tt_schema, (np.asarray(tt_rowids, dtype=np.int64),)
                    )
                )
                heap.flush()
                created.append(name)
            cat_rows = (
                [(arowid,) for arowid in store.cat_bitmap.iter_set()]
                if store.cat_bitmap is not None
                else store.cat_rows
            )
            if cat_rows:
                if self.cat_format is CatFormat.COMMON_SOURCE:
                    schema = TableSchema((arowid_column,))
                else:
                    schema = TableSchema((rowid_column, arowid_column))
                name = f"{prefix}.n{node_id}.cat"
                heap = catalog.create(name, schema)
                heap.append_batch(ColumnBatch.from_rows(schema, cat_rows))
                heap.flush()
                created.append(name)
        if self.aggregates_rows:
            if self.cat_format is CatFormat.COMMON_SOURCE:
                schema = TableSchema((rowid_column,) + agg_columns)
            else:
                schema = TableSchema(agg_columns)
            name = f"{prefix}.aggregates"
            heap = catalog.create(name, schema)
            heap.append_batch(
                ColumnBatch.from_rows(schema, self.aggregates_rows)
            )
            heap.flush()
            created.append(name)
        meta = {
            "cat_format": self.cat_format.value if self.cat_format else None,
            "dr_mode": self.dr_mode,
            "flat": self.flat,
            "partition_level": self.partition_level,
            "partition_level2": self.partition_level2,
            "plus_processed": self.plus_processed,
            "fact_row_count": self.fact_row_count,
            "update_drift_bytes": self.update_drift_bytes,
            "node_ids": sorted(self.nodes),
        }
        maybe_fire(catalog.faults, f"storage.meta:{prefix}")
        atomic_write_text(
            catalog.root / f"{prefix}.meta.json", json.dumps(meta)
        )
        return created

    @classmethod
    def from_meta(cls, schema: CubeSchema, meta: dict) -> "CubeStorage":
        """An empty storage carrying persisted cube metadata (the dict
        :meth:`persist` writes and a v2 container's directory embeds)."""
        storage = cls(
            schema,
            dr_mode=meta["dr_mode"],
            flat=meta.get("flat", False),
            partition_level=meta["partition_level"],
            partition_level2=meta.get("partition_level2"),
            fact_row_count=meta["fact_row_count"],
        )
        storage.plus_processed = meta.get("plus_processed", False)
        storage.update_drift_bytes = meta.get("update_drift_bytes", 0)
        if meta["cat_format"] is not None:
            storage.cat_format = CatFormat(meta["cat_format"])
        return storage

    @classmethod
    def load(
        cls, catalog: Catalog, schema: CubeSchema, prefix: str = "cube"
    ) -> "CubeStorage":
        """Reload a persisted cube into memory."""
        meta = json.loads((catalog.root / f"{prefix}.meta.json").read_text())
        storage = cls.from_meta(schema, meta)
        # Columnar reload: each relation is read through the zero-copy
        # batch scan and transposed back to the row lists NodeStore keeps.
        for node_id in meta["node_ids"]:
            store = storage.node_store(node_id)
            nt_name = f"{prefix}.n{node_id}.nt"
            if catalog.exists(nt_name):
                store.nt_rows = catalog.open(nt_name).load_batch().to_rows()
            tt_name = f"{prefix}.n{node_id}.tt"
            if catalog.exists(tt_name):
                tt_batch = catalog.open(tt_name).load_batch()
                store.tt_rowids = tt_batch.arrays[0].tolist()
            cat_name = f"{prefix}.n{node_id}.cat"
            if catalog.exists(cat_name):
                store.cat_rows = catalog.open(cat_name).load_batch().to_rows()
        agg_name = f"{prefix}.aggregates"
        if catalog.exists(agg_name):
            storage.aggregates_rows = catalog.open(agg_name).load_batch().to_rows()
        return storage

    # -- inspection ---------------------------------------------------------------

    def node_by_label(self, label: str) -> NodeStore | None:
        """Find a node store by its human-readable label (tests/examples)."""
        for node_id, store in self.nodes.items():
            node = self.schema.decode_node(node_id)
            if node.label(self.schema.dimensions) == label:
                return store
        return None

    def describe(self) -> str:
        """A short multi-line summary for examples and debugging."""
        report = self.size_report()
        lines = [
            f"cube over {self.schema.n_dimensions} dimensions, "
            f"{self.schema.enumerator.n_nodes} lattice nodes",
            f"  NTs: {report.n_nt}, TTs: {report.n_tt}, CATs: {report.n_cat} "
            f"(format {self.cat_format.value if self.cat_format else '-'})",
            f"  AGGREGATES rows: {report.n_aggregate_rows}",
            f"  relations: {report.n_relations}",
            f"  logical size: {report.total_mb:.3f} MB",
        ]
        return "\n".join(lines)
