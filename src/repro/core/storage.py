"""CURE's redundancy-free cube storage (Section 5 of the paper).

Per cube node, up to three relations exist:

* **NT** — normal tuples: ``⟨R-rowid, Aggr1..AggrY⟩`` (Figure 8a).  The
  dimension values are *not* stored; they are recoverable by fetching the
  fact tuple at ``R-rowid`` and rolling it up to the node's levels.  In
  ``CURE_DR`` mode the node-level dimension codes the signatures carry are
  stored instead, trading space for query speed (Section 5.3).
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

In memory every relation is one int64 array and nothing else
(:class:`ArrayRelation`): construction appends array chunks, readers get
read-only arrays, rewriters replace a relation wholesale.

Sizes are accounted in the paper's logical model — 4 bytes per stored
value (row-id, dimension code, or aggregate) — so the reproduction's size
figures are directly comparable in shape to the paper's, independent of
Python object overhead.
"""

from __future__ import annotations

import enum
from collections.abc import Callable, Iterator, MutableMapping
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.model import CubeSchema
from repro.core.segments import stable_order
from repro.core.signature import FormatStatistics, cat_members

if TYPE_CHECKING:  # the delta merger imports this module
    from repro.core.incremental import KeyedRelations

VALUE_BYTES = 4
"""Logical size of one stored value (row-id / dimension code / aggregate)."""


def _plus_list_bytes(count: int, universe: int) -> int:
    """What CURE+ charges for a sorted list of ``count`` row-ids into a
    relation of ``universe`` rows: the list, or a bitmap over the relation
    when that is smaller — the Section 5.3 conversion "only if the number
    of row-ids stored originally is large enough"."""
    return min(count * VALUE_BYTES, (universe + 7) // 8)


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


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


_NO_ROWS = _read_only(np.empty(0, dtype=np.int64))


class ArrayRelation:
    """One cube relation: int64 rows, appended as chunks, read as one array.

    Construction appends array chunks; the first read consolidates them
    with one ``np.concatenate``, computed aside and installed by a single
    assignment, so serving threads may race a first read.  Every array
    handed out is read-only: a rewrite is a :meth:`replace` by a new
    array, which leaves answers built over the old one what they were.

    A relation that already exists elsewhere (a section of a mapped
    ``cube.v2``) is given as its row ``count`` and a ``fetch`` that the
    first read, or the first append, calls.
    """

    def __init__(
        self, count: int = 0, fetch: Callable[[], np.ndarray] | None = None
    ) -> None:
        self.count = count
        self._parts: list[np.ndarray] = []
        self._fetch = fetch

    def append(self, chunk: np.ndarray) -> None:
        if self._fetch is not None:  # the fetched rows come first
            self.array()
            self._fetch = None
        self._parts.append(_read_only(chunk))
        self.count += len(chunk)

    def replace(self, array: np.ndarray) -> None:
        self._parts = [_read_only(array)]
        self.count = len(array)

    def array(self) -> np.ndarray:
        parts = self._parts
        if len(parts) == 1:
            return parts[0]
        if parts:
            merged = np.concatenate(parts)
        elif self._fetch is not None:
            merged = self._fetch()
        else:
            return _NO_ROWS
        self._parts = [_read_only(merged)]
        return merged


class NodeStore:
    """The up-to-three relations of one cube node, each one int64 array.

    ``nt`` / ``tt`` / ``cat`` are the relations themselves — what
    construction appends chunks to and CURE+ post-processing and
    incremental maintenance replace wholesale.  Readers go through
    ``nt_matrix`` / ``tt_array`` / ``cat_matrix`` (an empty relation is
    the empty vector, so an NT or CAT matrix has columns only when its
    count is non-zero) and the counts, which read no array.
    """

    def __init__(
        self,
        nt: ArrayRelation | None = None,
        tt: ArrayRelation | None = None,
        cat: ArrayRelation | None = None,
    ) -> None:
        self.nt = nt or ArrayRelation()
        self.tt = tt or ArrayRelation()
        self.cat = cat or ArrayRelation()

    def nt_matrix(self) -> np.ndarray:
        return self.nt.array()

    def tt_array(self) -> np.ndarray:
        return self.tt.array()

    def cat_matrix(self) -> np.ndarray:
        return self.cat.array()

    @property
    def relation_count(self) -> int:
        """How many physical relations this node materializes."""
        return bool(self.nt.count) + bool(self.tt.count) + bool(self.cat.count)

    @property
    def nt_count(self) -> int:
        return self.nt.count

    @property
    def tt_count(self) -> int:
        return self.tt.count

    @property
    def cat_count(self) -> int:
        return self.cat.count


def node_chunks(
    node_ids: np.ndarray, values: np.ndarray
) -> Iterator[tuple[int, np.ndarray]]:
    """Split ``values`` by ``node_ids``: one ``(node_id, chunk)`` per node,
    each chunk in its node's arrival order (slices of one sorted copy)."""
    if not len(node_ids):
        return
    order = stable_order(node_ids)
    sorted_ids = node_ids[order]
    values = np.take(values, order, axis=0)
    starts = [0, *(np.flatnonzero(sorted_ids[1:] != sorted_ids[:-1]) + 1).tolist()]
    for start, stop in zip(starts, [*starts[1:], len(order)]):
        yield int(sorted_ids[start]), values[start:stop]


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

    Storage never reads the fact relation: an NT is written from its
    signature alone — in ``dr_mode`` from the node-level codes the
    signature carries after its aggregates.
    """

    schema: CubeSchema
    dr_mode: bool = False
    flat: bool = False
    nodes: MutableMapping[int, NodeStore] = field(default_factory=dict)
    cat_format: CatFormat | None = None
    partition_level: int | None = None
    # Level of the second dimension when partitioning fell back to a
    # dimension *pair* (the extension Section 4 mentions but omits).
    partition_level2: int | None = None
    fact_row_count: int = 0
    plus_processed: bool = False
    # Logical bytes of space overhead accrued by incremental maintenance
    # (CAT demotions) since the last from-scratch build; lets
    # ``drift_report(exact=False)`` estimate a rebuild's size without
    # running one.  Reset to zero by construction (fresh storage).
    update_drift_bytes: int = 0
    #: The shared AGGREGATES relation; read it through
    #: :meth:`aggregates_matrix`, which types the empty case.
    aggregates: ArrayRelation = field(
        default_factory=ArrayRelation, repr=False, compare=False
    )
    #: The delta merger's :class:`~repro.core.incremental.KeyedRelations`:
    #: the relations stacked, with each row's group key (None until the
    #: first delta).
    keyed_relations: KeyedRelations | None = field(
        default=None, init=False, repr=False, compare=False
    )
    #: Node id → ids of the nodes whose TTs it shares (query-side memo).
    tt_source_ids: dict[int, tuple[int, ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False
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

    def write_tts(self, events: np.ndarray) -> None:
        """Append ``(node_id, rowid)`` trivial-tuple events, in order."""
        for node_id, rowids in node_chunks(events[:, 0], events[:, 1]):
            self.node_store(node_id).tt.append(rowids)

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
        ``dr_mode`` rows carry codes after the aggregates, for NTs only.
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
        cats = rows[in_cat, : 2 + self.schema.n_aggregates]
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
        arowids = self.aggregates.count - 1 + np.cumsum(new_row)
        self.aggregates.append(cats[new_row, (1 if common_source else 2) :])
        if common_source:
            node_rows = arowids[:, np.newaxis]
        else:
            node_rows = np.column_stack((cats[:, 1], arowids))
        for node_id, chunk in node_chunks(cats[:, 0], node_rows):
            self.node_store(node_id).cat.append(chunk)

    def _write_nts(self, rows: np.ndarray) -> None:
        y = self.schema.n_aggregates
        for node_id, chunk in node_chunks(rows[:, 0], rows[:, 1:]):
            if self.dr_mode:  # ⟨grouping codes…, aggregates…⟩
                codes = chunk[:, 1 + y : 1 + y + self._grouping_arity(node_id)]
                chunk = np.column_stack((codes, chunk[:, 1 : 1 + y]))
            self.node_store(node_id).nt.append(chunk)

    def aggregates_matrix(self) -> np.ndarray:
        """The AGGREGATES relation as one read-only int64 matrix.

        The query layer joins A-rowids against this with one fancy-index.
        """
        if not self.aggregates.count:
            y = self.schema.n_aggregates
            width = 1 + y if self.cat_format is CatFormat.COMMON_SOURCE else y
            return _read_only(np.empty((0, width), dtype=np.int64))
        return self.aggregates.array()

    @property
    def aggregates_count(self) -> int:
        return self.aggregates.count

    # -- size accounting ---------------------------------------------------------

    def _grouping_arity(self, node_id: int) -> int:
        node = self.schema.decode_node(node_id)
        return len(node.grouping_dims(self.schema.dimensions))

    def size_report(self) -> StorageSizeReport:
        """The logical sizes; a CURE+ cube's TT lists, and its format (a)
        CAT lists that hold no A-rowid twice (a bitmap holds a set; the
        lists are sorted, so a repeat is adjacent), are charged at
        :func:`_plus_list_bytes` — the same before and after a reload,
        since only the sorted lists are ever stored."""
        report = StorageSizeReport()
        y = self.schema.n_aggregates
        common_source = self.cat_format is CatFormat.COMMON_SOURCE
        cat_row_values = 1 if common_source else 2
        for node_id, store in self.nodes.items():
            report.n_relations += store.relation_count
            report.n_nt += store.nt_count
            report.n_tt += store.tt_count
            report.n_cat += store.cat_count
            if self.dr_mode:
                nt_width = (self._grouping_arity(node_id) + y) * VALUE_BYTES
            else:
                nt_width = (1 + y) * VALUE_BYTES
            report.nt_bytes += store.nt_count * nt_width
            tt_bytes = store.tt_count * VALUE_BYTES
            cat_bytes = store.cat_count * cat_row_values * VALUE_BYTES
            if self.plus_processed:
                tt_bytes = _plus_list_bytes(store.tt_count, self.fact_row_count)
                if common_source:
                    as_bitmap = _plus_list_bytes(
                        store.cat_count, self.aggregates_count
                    )
                    if as_bitmap < cat_bytes:
                        arowids = store.cat_matrix()[:, 0]
                        if (arowids[1:] != arowids[:-1]).all():
                            cat_bytes = as_bitmap
            report.tt_bytes += tt_bytes
            report.cat_bytes += cat_bytes
        if self.cat_format is CatFormat.COMMON_SOURCE:
            aggregate_width = (1 + y) * VALUE_BYTES
        else:
            aggregate_width = y * VALUE_BYTES
        report.n_aggregate_rows = self.aggregates_count
        report.aggregates_bytes = self.aggregates_count * aggregate_width
        return report

    # -- metadata ---------------------------------------------------------------

    def meta(self) -> dict:
        """The cube's metadata: what a v2 container's directory embeds and
        :meth:`from_meta` reads."""
        return {
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

    @classmethod
    def from_meta(cls, schema: CubeSchema, meta: dict) -> "CubeStorage":
        """An empty storage carrying the metadata :meth:`meta` returned."""
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

    # -- inspection ---------------------------------------------------------------

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
