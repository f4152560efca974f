"""Selective node queries: slice-and-dice with member predicates.

Section 7 of the paper observes that huge-result node queries "would be
more interesting if they were combined with some selection of specific
ranges", and Section 5.3 answers a selection from *the fact table*
rather than from an index over the cube.  This module implements both
halves:

* a :class:`DimensionSlice` restricts one grouping dimension to a member
  set at some (possibly coarser) hierarchy level;
* :func:`answer_cure_sliced` evaluates a node query under slices.  When
  the fact table is resident (in memory or mapped) it pre-filters
  NT/TT/CAT row-ids *before* any fact fetch — the row-id a CURE tuple
  stores belongs to its source group, whose members all share the
  grouping dimensions' values, so the representative fact row's member
  decides the whole tuple.  Otherwise (DR cubes, whose NTs carry no
  row-ids, and partial heap caches) it post-filters.

Pre-filtering is one argument to the shared relation reader
(:func:`~repro.query.answer.read_node_relations`): per slice, the
accepted base members form a boolean array over the dimension's codes,
and a relation's stored row-ids gather their fact column's codes and
then that array — the slices AND together, touching only the queried
node's stored rows.  Post-filtering compiles each slice to a boolean
array over the node's codes once and masks the full node answer
(:func:`slice_mask`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.core.storage import CubeStorage
from repro.lattice.node import CubeNode
from repro.query.answer import (
    QueryStats,
    answer_cure_query,
    node_shape,
    read_node_relations,
)
from repro.query.cache import FactCache
from repro.query.column_answer import ColumnAnswer


@dataclass(frozen=True)
class DimensionSlice:
    """Restrict dimension ``dim`` to ``members`` at hierarchy ``level``."""

    dim: int
    level: int
    members: frozenset[int]

    @classmethod
    def of(cls, dim: int, level: int, members) -> "DimensionSlice":
        return cls(dim, level, frozenset(members))


def canonical_slices(
    slices: Iterable[DimensionSlice],
) -> tuple[DimensionSlice, ...]:
    """One deterministic order for a request's predicates.

    The result cache keys on the slice tuple, so ``?where=B…&where=A…``
    must hit the entry ``?where=A…&where=B…`` created.
    """
    return tuple(
        sorted(
            slices,
            key=lambda s: (s.dim, s.level, tuple(sorted(s.members))),
        )
    )


def validate_slices(schema, node: CubeNode, slices) -> None:
    """Raise ``ValueError`` unless ``node`` can take every slice."""
    grouping = node_shape(schema, node).grouping
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
    cardinality = dimension.cardinality(item.level)
    accepted = np.zeros(cardinality, dtype=np.bool_)
    accepted[[m for m in item.members if 0 <= m < cardinality]] = True
    return accepted[dimension.level_maps[item.level]]


def prefilters(storage: CubeStorage, cache: FactCache) -> bool:
    """Whether a slice over ``storage`` pre-filters through ``cache``.

    It takes stored fact row-ids (not a DR cube, whose NTs hold their
    dimension values inline) and a fact table the cache holds whole —
    in memory or mapped — whose columns the row-ids gather from.
    """
    return not storage.dr_mode and cache.table is not None


def answer_cure_sliced(
    storage: CubeStorage,
    cache: FactCache,
    node: CubeNode,
    slices: list[DimensionSlice],
    stats: QueryStats | None = None,
) -> ColumnAnswer:
    """Answer a node query under dimension slices.

    When :func:`prefilters` holds, stored row-ids are filtered before
    fact fetches; otherwise the full node answer is computed (and
    counted in ``stats.tuples_returned``) and then masked.
    """
    schema = storage.schema
    validate_slices(schema, node, slices)
    if not slices:
        return answer_cure_query(storage, cache, node, stats)
    if not prefilters(storage, cache):
        full = answer_cure_query(storage, cache, node, stats)
        return full.filter(slice_mask(schema, node, slices, full.dims))
    fact = cache.table
    tests = [
        (fact.column_at(item.dim), _accepted_base_mask(schema, item))
        for item in slices
    ]

    def keep(rowids: np.ndarray) -> np.ndarray:
        # Every stored row-id belongs to the tuple's source group; all
        # group members share the grouping dimensions' values, so the
        # representative fact row's member decides the whole tuple.
        column, accepted = tests[0]
        mask = accepted[column[rowids]]
        for column, accepted in tests[1:]:
            mask &= accepted[column[rowids]]
        return mask

    return read_node_relations(storage, cache, node, stats, keep=keep)


def slice_mask(schema, node: CubeNode, slices, dims: np.ndarray) -> np.ndarray:
    """Boolean mask over an answer's ``dims`` matrix: rows passing every slice.

    Each slice's accepted base codes map up to the node's level, into a
    boolean array over its codes; a row passes when every slice's array
    is ``True`` at its code — one gather per slice.
    """
    grouping = node_shape(schema, node).grouping
    mask = np.ones(len(dims), dtype=np.bool_)
    for item in slices:
        dimension = schema.dimensions[item.dim]
        node_level = node.levels[item.dim]
        accepted = np.zeros(dimension.cardinality(node_level), dtype=np.bool_)
        base = _accepted_base_mask(schema, item)
        accepted[dimension.level_maps[node_level][base]] = True
        mask &= accepted[dims[:, grouping.index(item.dim)]]
    return mask
