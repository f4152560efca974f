"""The hierarchical cube lattice: nodes and the roll-up order of levels.

The lattice (Harinarayan et al. [9], extended with hierarchy levels as in
Section 3 of the CURE paper) orders nodes by detail: node ``M`` is at
least as detailed as ``N`` when each of ``N``'s levels is reachable from
``M``'s level by rolling up (:meth:`CubeLattice.level_rolls_up_to`).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property

from repro.hierarchy.dimension import Dimension
from repro.lattice.node import CubeNode, NodeEnumerator


@dataclass(frozen=True)
class CubeLattice:
    """All cube nodes over an ordered tuple of dimensions."""

    dimensions: tuple[Dimension, ...]

    def __post_init__(self) -> None:
        if not self.dimensions:
            raise ValueError("a lattice needs at least one dimension")
        for dimension in self.dimensions:
            dimension.validate_plan_coverage()

    @cached_property
    def enumerator(self) -> NodeEnumerator:
        return NodeEnumerator(self.dimensions)

    @property
    def n_dimensions(self) -> int:
        return len(self.dimensions)

    @property
    def n_nodes(self) -> int:
        return self.enumerator.n_nodes

    def nodes(self) -> Iterator[CubeNode]:
        """Every node, in node-id order."""
        for node_id in range(self.n_nodes):
            yield self.enumerator.decode(node_id)

    # -- detail order ----------------------------------------------------------

    @cached_property
    def _rollup_reach(self) -> tuple[tuple[frozenset[int], ...], ...]:
        """Per dimension and level: the set of levels reachable by roll-up
        (including the level itself and ALL)."""
        per_dimension = []
        for dimension in self.dimensions:
            reach: list[frozenset[int]] = []
            for level in range(dimension.n_levels_with_all):
                seen: set[int] = set()
                frontier = [level]
                while frontier:
                    current = frontier.pop()
                    if current in seen:
                        continue
                    seen.add(current)
                    if current != dimension.all_level:
                        frontier.extend(dimension.parents[current])
                reach.append(frozenset(seen))
            per_dimension.append(tuple(reach))
        return tuple(per_dimension)

    def level_rolls_up_to(self, dim: int, detailed: int, coarse: int) -> bool:
        """Can dimension ``dim``'s level ``detailed`` roll up to ``coarse``?"""
        return coarse in self._rollup_reach[dim][detailed]

    # -- distinguished nodes -----------------------------------------------------

    @property
    def base_node(self) -> CubeNode:
        """The most detailed node: every dimension at its base level."""
        return CubeNode(tuple(0 for _ in self.dimensions))

    @property
    def all_node(self) -> CubeNode:
        """The ∅ node: every dimension at ALL."""
        return CubeNode(
            tuple(dimension.all_level for dimension in self.dimensions)
        )

    def flat_nodes(self) -> Iterator[CubeNode]:
        """Nodes of the flat (base-levels-only) sub-lattice.

        These are the ``2^D`` nodes FCURE constructs: each dimension either
        at its base level or at ALL.
        """
        n = self.n_dimensions
        for mask in range(1 << n):
            levels = tuple(
                0 if mask & (1 << d) else self.dimensions[d].all_level
                for d in range(n)
            )
            yield CubeNode(levels)
