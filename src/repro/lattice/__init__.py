"""Cube lattices over hierarchical dimensions and CURE execution plans."""

from __future__ import annotations

from repro.lattice.node import CubeNode, NodeEnumerator
from repro.lattice.lattice import CubeLattice
from repro.lattice.plan import plan_ancestors, plan_parent, walk_plan

__all__ = [
    "CubeLattice",
    "CubeNode",
    "NodeEnumerator",
    "plan_ancestors",
    "plan_parent",
    "walk_plan",
]
