"""Execution plans: BUC-style prunings of the cube lattice (Section 3).

A plan is never materialized.  An *execution shape* says which levels
solid edges introduce and where dashed edges descend, and
:func:`child_edges` turns that into the edges leaving one plan node —
the one forward definition of the plan, which
:class:`~repro.core.cure.CureBuilder` executes and :func:`walk_plan`
enumerates.  Three shapes come from the paper:

* **P3** (:class:`HierarchicalShape`) — CURE's tall plan (Figure 4):
  rule 1 (solid edges introduce the next dimension at an entry level) and
  rule 2 (dashed edges descend the most recently added dimension one
  level), with the modified rule 2 for complex hierarchies baked into
  :meth:`Dimension.dashed_children`.
* **P1** (:class:`FlatShape`) — the flat BUC plan over base levels only
  (Figure 2); also the plan FCURE runs.
* **P2** (:class:`LevelsAsDimensionsShape`) — the "straightforward"
  hierarchical plan that treats every level as an independent dimension
  (Figure 3); height stays D, so sort costs are shared poorly.

:func:`plan_parent` / :func:`plan_ancestors` navigate P3 (or P1)
backwards without a walk, since flat lattices at high dimensionality
have ``2^D`` nodes.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from typing import Protocol

from repro.lattice.lattice import CubeLattice
from repro.lattice.node import CubeNode

#: One plan edge: ``(dim, level, next_dim, pair_level)`` — the dimension
#: the edge sorts on and its level, the first dimension the child's solid
#: edges may introduce, and the pending pair entry of a pair partition.
Edge = tuple[int, int, int, int | None]


class ExecutionShape(Protocol):
    """What the executor needs from a plan shape (P1/P2/P3 or custom)."""

    @property
    def lattice(self) -> CubeLattice: ...

    def entry_levels(self, dim: int) -> tuple[int, ...]: ...

    def dashed_children(self, dim: int, level: int) -> tuple[int, ...]: ...


class HierarchicalShape:
    """CURE's P3 shape: entry at top levels, dashed descent per hierarchy.

    ``base_levels`` stops descent above a dimension's base level — the
    ``baseLevel`` array of Figure 13, used by the coarse-node phase of
    partitioned construction.
    """

    def __init__(
        self, lattice: CubeLattice, base_levels: tuple[int, ...] | None = None
    ) -> None:
        self.lattice = lattice
        self.base_levels = base_levels or tuple(0 for _ in lattice.dimensions)
        self._entries: list[tuple[int, ...]] = []
        self._dashed: list[list[tuple[int, ...]]] = []
        for d, dimension in enumerate(lattice.dimensions):
            floor = self.base_levels[d]
            self._entries.append(
                tuple(
                    level
                    for level in dimension.entry_levels()
                    if level >= floor
                )
            )
            self._dashed.append(
                [
                    tuple(
                        child
                        for child in dimension.dashed_children(level)
                        if child >= floor
                    )
                    for level in range(dimension.n_levels_with_all)
                ]
            )

    def entry_levels(self, dim: int) -> tuple[int, ...]:
        return self._entries[dim]

    def dashed_children(self, dim: int, level: int) -> tuple[int, ...]:
        return self._dashed[dim][level]


class FlatShape:
    """P1: base levels only, no dashed edges (BUC's plan; FCURE)."""

    def __init__(self, lattice: CubeLattice) -> None:
        self.lattice = lattice

    def entry_levels(self, dim: int) -> tuple[int, ...]:
        return (0,)

    def dashed_children(self, dim: int, level: int) -> tuple[int, ...]:
        return ()


class LevelsAsDimensionsShape:
    """P2: every level is an independent entry; no dashed edges.

    Each node is reached by one solid path that picks a single level per
    participating dimension, so the plan height stays D but every edge
    pays a from-scratch sort — the inefficiency Section 3.1 quantifies.
    """

    def __init__(self, lattice: CubeLattice) -> None:
        self.lattice = lattice

    def entry_levels(self, dim: int) -> tuple[int, ...]:
        n_levels = self.lattice.dimensions[dim].n_levels
        return tuple(range(n_levels - 1, -1, -1))

    def dashed_children(self, dim: int, level: int) -> tuple[int, ...]:
        return ()


def child_edges(
    shape: ExecutionShape,
    levels: Sequence[int],
    entered: int | None,
    next_dim: int,
    pair_level: int | None,
) -> list[Edge]:
    """Lines 8–15 of ``ExecutePlan``: the edges leaving the node at
    ``levels``, in plan order — solid edges first, then dashed ones.

    ``entered`` is the dimension the edge into the node sorted on (None at
    the root).  Under a pair partition (``pair_level`` set) the node is
    dimension 0 alone: its one solid edge enters dimension 1 at
    ``pair_level``, and its dashed edges keep descending dimension 0.
    """
    if pair_level is not None:
        descents = shape.dashed_children(0, levels[0])
        return [(1, pair_level, 2, None)] + [
            (0, child, next_dim, pair_level) for child in descents
        ]
    edges: list[Edge] = [
        (d, entry, d + 1, None)
        for d in range(next_dim, shape.lattice.n_dimensions)
        for entry in shape.entry_levels(d)
    ]
    if entered is not None:  # the dashed edges
        descents = shape.dashed_children(entered, levels[entered])
        edges += [(entered, child, next_dim, None) for child in descents]
    return edges


def walk_plan(shape: ExecutionShape) -> Iterator[tuple[CubeNode, int]]:
    """The plan of ``shape`` in pre-order, as ``(node, parent)``.

    ``parent`` is the position in this sequence of the node's plan parent
    (-1 for the root, ∅), so every parent comes before its children —
    the order in which :class:`~repro.core.cure.CureBuilder` emits them.
    """
    pending: list[tuple[CubeNode, int, int | None, int]] = [
        (shape.lattice.all_node, -1, None, 0)
    ]
    position = 0
    while pending:
        node, parent, entered, next_dim = pending.pop()
        yield node, parent
        edges = child_edges(shape, node.levels, entered, next_dim, None)
        pending.extend(
            (node.with_level(dim, level), position, dim, child_next)
            for dim, level, child_next, _pair in reversed(edges)
        )
        position += 1


def plan_parent(
    lattice: CubeLattice, node: CubeNode, flat: bool = False
) -> CubeNode | None:
    """The parent of ``node`` in the P3 plan, or None for the root.

    Reverses the construction rules: if the rightmost grouping dimension
    sits at one of its entry levels (no named parent) the incoming edge
    was solid (drop the dimension); otherwise it was dashed (ascend to the
    level's max-cardinality parent).  With ``flat=True`` navigates the P1
    plan instead (drop the rightmost grouping dimension).
    """
    dimensions = lattice.dimensions
    grouping = node.grouping_dims(dimensions)
    if not grouping:
        return None
    rightmost = grouping[-1]
    dimension = dimensions[rightmost]
    parent_level = (
        None if flat else dimension.dashed_parent_of(node.levels[rightmost])
    )
    if parent_level is None:  # an entry level: the edge in was solid
        return node.with_level(rightmost, dimension.all_level)
    return node.with_level(rightmost, parent_level)


def plan_ancestors(
    lattice: CubeLattice, node: CubeNode, flat: bool = False
) -> list[CubeNode]:
    """The path from ``node``'s plan parent up to the root (∅), in order.

    These are exactly the nodes whose TT relations may hold trivial tuples
    shared with ``node`` (Section 5.1's sub-tree sharing property).
    """
    ancestors: list[CubeNode] = []
    current: CubeNode | None = node
    while True:
        current = plan_parent(lattice, current, flat=flat)
        if current is None:
            return ancestors
        ancestors.append(current)
