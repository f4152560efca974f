"""Unit tests for the hierarchical cube lattice."""

import pytest

from repro.hierarchy.builders import flat_dimension
from repro.lattice.lattice import CubeLattice


@pytest.fixture
def lattice(paper_schema) -> CubeLattice:
    return paper_schema.lattice


def test_n_nodes(lattice):
    assert lattice.n_nodes == 24
    assert len(list(lattice.nodes())) == 24


def test_base_and_all_nodes(lattice):
    assert lattice.base_node.levels == (0, 0, 0)
    assert lattice.all_node.levels == (3, 2, 1)


def test_level_rolls_up_to_linear(lattice):
    assert lattice.level_rolls_up_to(0, 0, 2)  # A0 → A2
    assert lattice.level_rolls_up_to(0, 1, 1)  # reflexive
    assert lattice.level_rolls_up_to(0, 0, 3)  # A0 → ALL
    assert not lattice.level_rolls_up_to(0, 2, 0)  # cannot drill down


def test_flat_nodes_power_set(lattice):
    flat = list(lattice.flat_nodes())
    assert len(flat) == 8
    for node in flat:
        for d, level in enumerate(node.levels):
            assert level in (0, lattice.dimensions[d].all_level)
    assert len(set(flat)) == 8


def test_flat_dimensions_lattice_is_power_set():
    lattice = CubeLattice((flat_dimension("X", 2), flat_dimension("Y", 2)))
    assert lattice.n_nodes == 4
    assert set(lattice.nodes()) == set(lattice.flat_nodes())


def test_empty_dimensions_rejected():
    with pytest.raises(ValueError):
        CubeLattice(())
