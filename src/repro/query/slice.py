"""Selective node queries: slice-and-dice with member predicates.

Section 7 of the paper observes that huge-result node queries "would be
more interesting if they were combined with some selection of specific
ranges (accelerated by indexing techniques)", and Section 5.3 proposes
indexing *the fact table* rather than the cube.  This module implements
both halves:

* a :class:`DimensionSlice` restricts one grouping dimension to a member
  set at some (possibly coarser) hierarchy level;
* :func:`answer_cure_sliced` evaluates a node query under slices.  Without
  an index it post-filters; given per-dimension
  :class:`~repro.relational.index.InvertedIndex` objects over the fact
  table it pre-filters NT/TT/CAT row-ids *before* any fact fetch — the
  row-id a CURE tuple stores belongs to its source group, whose members
  all share the grouping dimensions' values, so one membership test
  decides the whole tuple.

Pre-filtering is one argument to the shared relation reader
(:func:`~repro.query.answer.read_node_relations`): the CSR-backed index
marks the allowed fact rows in one boolean mask
(:func:`allowed_row_mask`), and each relation's row-ids test membership
with one gather into it before the reader dereferences the survivors.
Post-filtering compiles each slice to a boolean array over the node's
codes once and masks the full node answer (:func:`slice_mask`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.storage import CubeStorage
from repro.lattice.node import CubeNode
from repro.query.answer import (
    QueryStats,
    answer_cure_query,
    read_node_relations,
)
from repro.query.cache import FactCache
from repro.query.column_answer import ColumnAnswer
from repro.query.vector import level_map
from repro.relational.index import InvertedIndex


@dataclass(frozen=True)
class DimensionSlice:
    """Restrict dimension ``dim`` to ``members`` at hierarchy ``level``."""

    dim: int
    level: int
    members: frozenset[int]

    @classmethod
    def of(cls, dim: int, level: int, members) -> "DimensionSlice":
        return cls(dim, level, frozenset(members))


def _validate(schema, node: CubeNode, slices) -> None:
    grouping = set(node.grouping_dims(schema.dimensions))
    for item in slices:
        dimension = schema.dimensions[item.dim]
        if item.dim not in grouping:
            raise ValueError(
                f"cannot slice dimension {dimension.name!r}: it is at ALL "
                "in the queried node (its aggregates pool all members)"
            )
        if not schema.lattice.level_rolls_up_to(
            item.dim, node.levels[item.dim], item.level
        ):
            raise ValueError(
                f"slice level {item.level} of {dimension.name!r} is not a "
                f"roll-up of the node's level {node.levels[item.dim]}"
            )


def _accepted_base_mask(schema, item: DimensionSlice) -> np.ndarray:
    """Boolean mask over base-level codes: those whose ``item.level``
    image is accepted (member codes out of range accept nothing)."""
    dimension = schema.dimensions[item.dim]
    members = np.fromiter(item.members, dtype=np.int64)
    accepted = np.zeros(dimension.cardinality(item.level), dtype=np.bool_)
    accepted[members[(members >= 0) & (members < len(accepted))]] = True
    return accepted[level_map(dimension, item.level)]


def allowed_row_mask(
    schema, slices, indices: dict[int, InvertedIndex]
) -> np.ndarray:
    """Boolean mask over fact row-ids: the rows satisfying every slice.

    Per slice the accepted base members' CSR postings are set ``True``
    in one array over the fact rows; the slices AND together.  No sort,
    no intersection: a relation's pre-filter is then one gather.
    """
    masks = []
    for item in slices:
        index = indices[item.dim]
        accepted = _accepted_base_mask(schema, item)
        rows = np.zeros(index.row_count, dtype=np.bool_)
        rows[index.rowids[np.repeat(accepted, np.diff(index.offsets))]] = True
        masks.append(rows)
    return np.logical_and.reduce(masks)


def answer_cure_sliced(
    storage: CubeStorage,
    cache: FactCache,
    node: CubeNode,
    slices: list[DimensionSlice],
    indices: dict[int, InvertedIndex] | None = None,
    stats: QueryStats | None = None,
) -> ColumnAnswer:
    """Answer a node query under dimension slices.

    ``indices`` maps dimension index → fact-table inverted index (base
    level).  When provided, row-ids are filtered before fact fetches;
    otherwise the full node answer is computed (and counted in
    ``stats.tuples_returned``) and then masked.
    """
    schema = storage.schema
    _validate(schema, node, slices)
    if not slices:
        return answer_cure_query(storage, cache, node, stats)
    if indices is None:
        full = answer_cure_query(storage, cache, node, stats)
        return full.filter(slice_mask(schema, node, slices, full.dims))

    missing = [s.dim for s in slices if s.dim not in indices]
    if missing:
        raise KeyError(f"no inverted index for dimensions {missing}")
    if storage.dr_mode and storage.get_node_store(
        schema.node_id(node)
    ) is not None:
        raise ValueError(
            "index-assisted slicing needs row-id based NTs; query the "
            "DR cube with post-filtering instead (indices=None)"
        )
    # Every stored row-id belongs to the tuple's source group; since all
    # group members share the grouping dimensions' values, the stored
    # representative's membership in ``allowed`` decides the whole tuple.
    allowed = allowed_row_mask(schema, slices, indices)
    return read_node_relations(
        storage,
        cache,
        node,
        stats,
        keep=lambda rowids, _aggregates: allowed[rowids],
    )


def slice_mask(schema, node: CubeNode, slices, dims: np.ndarray) -> np.ndarray:
    """Boolean mask over an answer's ``dims`` matrix: rows passing every slice.

    Each slice's accepted base codes map up to the node's level, into a
    boolean array over its codes; a row passes when every slice's array
    is ``True`` at its code — one gather per slice.
    """
    position_of = {
        dim: i for i, dim in enumerate(node.grouping_dims(schema.dimensions))
    }
    mask = np.ones(len(dims), dtype=np.bool_)
    for item in slices:
        dimension = schema.dimensions[item.dim]
        node_level = node.levels[item.dim]
        accepted = np.zeros(dimension.cardinality(node_level), dtype=np.bool_)
        base = _accepted_base_mask(schema, item)
        accepted[level_map(dimension, node_level)[base]] = True
        mask &= accepted[dims[:, position_of[item.dim]]]
    return mask
