"""Property-based tests for lattices, node enumeration and plans.

Dimensions are drawn linear or complex (a random DAG of levels), so the
modified rule 2 — which parent owns a level with several — is on the
fuzzed surface.  Plans are the walks of the shapes the executor runs.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.hierarchy.builders import complex_dimension, linear_dimension
from repro.lattice.lattice import CubeLattice
from repro.lattice.plan import (
    FlatShape,
    HierarchicalShape,
    LevelsAsDimensionsShape,
    plan_parent,
    walk_plan,
)


@st.composite
def dimensions(draw, name: str):
    n_levels = draw(st.integers(1, 4))
    cards = sorted(
        draw(st.lists(st.integers(1, 9), min_size=n_levels, max_size=n_levels)),
        reverse=True,
    )
    if not draw(st.booleans()):
        return linear_dimension(
            name, [(f"L{i}", cards[i]) for i in range(n_levels)]
        )
    # A DAG: each level's parents are a non-empty set of less detailed
    # levels, ALL (index n_levels) included.
    parents = [
        tuple(
            sorted(
                draw(
                    st.sets(
                        st.integers(i + 1, n_levels), min_size=1, max_size=3
                    )
                )
            )
        )
        for i in range(n_levels)
    ]
    base = cards[0]
    return complex_dimension(
        name,
        levels=[(f"L{i}", cards[i]) for i in range(n_levels)],
        base_maps=[
            [code * cards[i] // base for code in range(base)]
            for i in range(n_levels)
        ],
        parents=parents,
    )


@st.composite
def lattices(draw):
    n_dims = draw(st.integers(1, 3))
    return CubeLattice(
        tuple(draw(dimensions(f"D{d}")) for d in range(n_dims))
    )


def walked_nodes(shape):
    return [node for node, _parent in walk_plan(shape)]


def height(shape) -> int:
    depths: list[int] = []
    for _node, parent in walk_plan(shape):
        depths.append(0 if parent < 0 else depths[parent] + 1)
    return max(depths)


def at_least_as_detailed(lattice, detailed, coarse) -> bool:
    return all(
        lattice.level_rolls_up_to(d, detailed.levels[d], coarse.levels[d])
        for d in range(lattice.n_dimensions)
    )


@settings(max_examples=40, deadline=None)
@given(lattices())
def test_enumeration_is_a_bijection(lattice):
    enumerator = lattice.enumerator
    ids = {enumerator.node_id(node) for node in lattice.nodes()}
    assert ids == set(range(enumerator.n_nodes))
    for node in lattice.nodes():
        assert enumerator.decode(enumerator.node_id(node)) == node


@settings(max_examples=40, deadline=None)
@given(lattices())
def test_n_nodes_is_product_of_level_counts(lattice):
    expected = 1
    for dimension in lattice.dimensions:
        expected *= dimension.n_levels_with_all
    assert lattice.n_nodes == expected


@settings(max_examples=30, deadline=None)
@given(lattices())
def test_p3_is_a_spanning_tree(lattice):
    nodes = walked_nodes(HierarchicalShape(lattice))
    assert len(nodes) == lattice.n_nodes
    assert set(nodes) == set(lattice.nodes())


@settings(max_examples=30, deadline=None)
@given(lattices())
def test_p2_is_a_spanning_tree_of_height_d(lattice):
    shape = LevelsAsDimensionsShape(lattice)
    nodes = walked_nodes(shape)
    assert len(nodes) == lattice.n_nodes
    assert set(nodes) == set(lattice.nodes())
    assert height(shape) <= lattice.n_dimensions


@settings(max_examples=30, deadline=None)
@given(lattices())
def test_p3_taller_or_equal_to_p2(lattice):
    """Section 3.1: P3 is the tallest BUC-based plan, P2 the shortest."""
    p3 = height(HierarchicalShape(lattice))
    assert p3 >= height(LevelsAsDimensionsShape(lattice))


@settings(max_examples=40, deadline=None)
@given(lattices())
def test_walked_edges_match_plan_parent(lattice):
    """``plan_parent`` reverses every edge the executor's shapes take,
    P3 over the whole lattice and P1 over the base-level nodes."""
    assert plan_parent(lattice, lattice.all_node) is None
    shapes = ((HierarchicalShape(lattice), False), (FlatShape(lattice), True))
    for shape, flat in shapes:
        walked = list(walk_plan(shape))
        for node, parent in walked[1:]:
            assert plan_parent(lattice, node, flat=flat) == walked[parent][0]


@settings(max_examples=30, deadline=None)
@given(lattices())
def test_plan_parent_walks_to_root(lattice):
    for node in lattice.nodes():
        current = node
        steps = 0
        while True:
            parent = plan_parent(lattice, current)
            if parent is None:
                break
            # Plan parents are strictly less detailed.
            assert parent != current
            assert at_least_as_detailed(lattice, current, parent)
            current = parent
            steps += 1
            assert steps <= lattice.n_nodes
        assert current == lattice.all_node


@settings(max_examples=30, deadline=None)
@given(lattices())
def test_ancestor_relation_is_a_partial_order(lattice):
    nodes = list(lattice.nodes())[:12]
    for x in nodes:
        assert at_least_as_detailed(lattice, x, x)
        for y in nodes:
            if at_least_as_detailed(lattice, x, y) and at_least_as_detailed(
                lattice, y, x
            ):
                assert x == y
