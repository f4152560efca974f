"""Unit tests for execution plans P1, P2, P3 (Figures 2–4 of the paper).

Every plan is the walk of the shape the executor runs
(:func:`walk_plan` over :func:`child_edges`), never a separate tree.
"""

import pytest

from repro.hierarchy.builders import complex_dimension, flat_dimension
from repro.lattice.lattice import CubeLattice
from repro.lattice.node import CubeNode
from repro.lattice.plan import (
    FlatShape,
    HierarchicalShape,
    LevelsAsDimensionsShape,
    plan_ancestors,
    plan_parent,
    walk_plan,
)


@pytest.fixture
def lattice(paper_schema) -> CubeLattice:
    return paper_schema.lattice


def nodes_of(shape):
    return [node for node, _parent in walk_plan(shape)]


def height(shape) -> int:
    """Edges on the longest root-to-leaf path of the walk."""
    depths: list[int] = []
    for _node, parent in walk_plan(shape):
        depths.append(0 if parent < 0 else depths[parent] + 1)
    return max(depths)


def edges_of(shape):
    """Every walked edge as ``(parent node, child node)``."""
    walked = list(walk_plan(shape))
    return [(walked[parent][0], node) for node, parent in walked if parent >= 0]


# -- P3 (Figure 4) --------------------------------------------------------------------


def test_p3_covers_every_node_once(lattice):
    nodes = nodes_of(HierarchicalShape(lattice))
    assert len(nodes) == 24
    assert len(set(nodes)) == 24
    assert set(nodes) == set(lattice.nodes())


def test_p3_height_matches_figure4(lattice):
    """Figure 4's plan is the tallest: height 6 for the example."""
    assert height(HierarchicalShape(lattice)) == 6


def test_p3_root_is_all_node(lattice):
    assert next(walk_plan(HierarchicalShape(lattice))) == (lattice.all_node, -1)


def test_p3_edges_follow_rules(lattice):
    """Solid edges add a dimension at an entry level; dashed edges descend
    the rightmost grouping dimension one hierarchy step."""
    dimensions = lattice.dimensions
    for parent, child in edges_of(HierarchicalShape(lattice)):
        parent_grouping = set(parent.grouping_dims(dimensions))
        child_grouping = set(child.grouping_dims(dimensions))
        if child_grouping != parent_grouping:  # solid
            added = child_grouping - parent_grouping
            assert len(added) == 1
            (d,) = added
            assert d > max(parent_grouping, default=-1)
            assert child.levels[d] in dimensions[d].entry_levels()
        else:  # dashed
            changed = [
                d
                for d in range(lattice.n_dimensions)
                if child.levels[d] != parent.levels[d]
            ]
            assert len(changed) == 1
            (d,) = changed
            assert d == max(child_grouping)
            assert child.levels[d] in dimensions[d].dashed_children(
                parent.levels[d]
            )


def test_p3_first_level_nodes(lattice):
    """The D nodes built directly from R are the single top-level dims."""
    dimensions = lattice.dimensions
    first = {
        node.label(dimensions)
        for node, parent in walk_plan(HierarchicalShape(lattice))
        if parent == 0
    }
    assert first == {"A.A2", "B.B1", "C.C0"}


def test_p3_base_levels_cut_dashed_descent(lattice):
    """With baseLevel[0] = 1, no plan node has A below level 1."""
    nodes = nodes_of(HierarchicalShape(lattice, base_levels=(1, 0, 0)))
    assert all(node.levels[0] >= 1 for node in nodes)
    # Nodes lost: those with A at level 0 — a quarter of the lattice.
    assert len(nodes) == len(set(nodes)) == 24 - 6


# -- P1 (Figure 2) --------------------------------------------------------------------


def test_p1_flat_plan(lattice):
    shape = FlatShape(lattice)
    nodes = nodes_of(shape)
    assert len(nodes) == 8
    assert set(nodes) == set(lattice.flat_nodes())
    assert height(shape) == 3


# -- P2 (Figure 3) --------------------------------------------------------------------


def test_p2_covers_every_node_once_with_height_d(lattice):
    shape = LevelsAsDimensionsShape(lattice)
    nodes = nodes_of(shape)
    assert len(nodes) == 24
    assert len(set(nodes)) == 24
    assert height(shape) == 3  # "the shortest possible extension of P1"


def test_p2_no_node_mixes_levels_of_same_dimension(lattice):
    # Guaranteed structurally: a node has one level value per dimension.
    # What P2 must avoid is *revisiting* a dimension: no walked edge sets
    # a dimension the parent already groups by.
    dimensions = lattice.dimensions
    for parent, child in edges_of(LevelsAsDimensionsShape(lattice)):
        (d,) = set(child.grouping_dims(dimensions)) - set(
            parent.grouping_dims(dimensions)
        )
        assert parent.levels[d] == dimensions[d].all_level


# -- backward navigation ----------------------------------------------------------------


def test_plan_parent_matches_walk(lattice):
    assert plan_parent(lattice, lattice.all_node) is None
    for parent, child in edges_of(HierarchicalShape(lattice)):
        assert plan_parent(lattice, child) == parent
    for parent, child in edges_of(FlatShape(lattice)):
        assert plan_parent(lattice, child, flat=True) == parent


def test_plan_ancestors_path_to_root(lattice):
    node = CubeNode((0, 0, 0))  # A0B0C0
    path = plan_ancestors(lattice, node)
    assert path[-1] == lattice.all_node
    assert len(path) == 6  # the height of P3
    dims = lattice.dimensions
    assert [n.label(dims) for n in path[:3]] == [
        "A.A0×B.B0",
        "A.A0×B.B1",
        "A.A0",
    ]


def test_plan_ancestors_flat(lattice):
    node = CubeNode((0, 0, 0))
    path = plan_ancestors(lattice, node, flat=True)
    dims = lattice.dimensions
    assert [n.label(dims) for n in path] == ["A.A0×B.B0", "A.A0", "∅"]


def test_flat_plan_parent_drops_rightmost():
    lattice = CubeLattice(
        (flat_dimension("X", 2), flat_dimension("Y", 2), flat_dimension("Z", 2))
    )
    node = CubeNode((1, 0, 0))  # YZ
    parent = plan_parent(lattice, node, flat=True)
    assert parent.levels == (1, 0, 1)  # Y


def test_p3_complex_hierarchy_covers_lattice():
    """The Figure 5 time cube: ∅, year, month, week, day — one tree, with
    day under week (its parent with more members) by the modified rule 2."""
    time = complex_dimension(
        "Time",
        levels=[("day", 28), ("week", 4), ("month", 2), ("year", 1)],
        base_maps=[
            list(range(28)),
            [d // 7 for d in range(28)],
            [d // 14 for d in range(28)],
            [0] * 28,
        ],
        parents=[(1, 2), (4,), (3,), (4,)],
    )
    lattice = CubeLattice((time,))
    shape = HierarchicalShape(lattice)
    nodes = nodes_of(shape)
    assert len(nodes) == 5
    assert len(set(nodes)) == 5
    for parent, child in edges_of(shape):
        assert plan_parent(lattice, child) == parent
    assert plan_parent(lattice, CubeNode((0,))) == CubeNode((1,))  # day → week
