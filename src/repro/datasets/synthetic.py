"""Synthetic flat datasets with controlled dimensionality, size and skew.

The paper's synthetic experiments (Figures 19–22) draw ``T`` tuples over
``D`` flat dimensions with cardinality ``C_i = T / i`` and a Zipf factor
``Z`` (``Z = 0`` is uniform).  This generator reproduces those knobs
deterministically from a seed.
"""

from __future__ import annotations

import numpy as np

from repro.core.model import CubeSchema
from repro.hierarchy.builders import flat_dimension
from repro.relational.aggregates import make_aggregates
from repro.relational.table import Table


def zipf_probabilities(cardinality: int, z: float) -> np.ndarray:
    """Zipf(z) probabilities over ranks ``1..cardinality`` (z=0 → uniform)."""
    if cardinality < 1:
        raise ValueError("cardinality must be >= 1")
    if z < 0:
        raise ValueError("the Zipf factor must be non-negative")
    ranks = np.arange(1, cardinality + 1, dtype=np.float64)
    weights = ranks**-z
    return weights / weights.sum()


def zipf_column(
    rng: np.random.Generator, n: int, cardinality: int, z: float
) -> np.ndarray:
    """``n`` member codes drawn Zipf(z) from ``[0, cardinality)``.

    Code 0 is the most frequent member, matching the usual construction in
    the cubing literature.
    """
    if z == 0.0:
        return rng.integers(0, cardinality, size=n, dtype=np.int64)
    return rng.choice(
        cardinality, size=n, p=zipf_probabilities(cardinality, z)
    ).astype(np.int64)


def default_cardinalities(n_dims: int, n_tuples: int) -> tuple[int, ...]:
    """The paper's ``C_i = T / i`` profile (1-based ``i``), floored at 2."""
    return tuple(
        max(2, n_tuples // (index + 1)) for index in range(n_dims)
    )


def generate_flat_dataset(
    n_dims: int,
    n_tuples: int,
    zipf: float = 0.8,
    seed: int = 42,
    cardinalities: tuple[int, ...] | None = None,
    aggregates: tuple[tuple[str, int], ...] = (("sum", 0),),
    n_measures: int = 1,
    hot_member_fraction: float = 0.0,
    hot_dimension: int = 0,
) -> tuple[CubeSchema, Table]:
    """Generate a flat fact table with the paper's synthetic knobs.

    Returns the cube schema (flat dimensions whose level cardinalities
    match the generator's domains) and the fact table.  Dimensions come
    out in decreasing cardinality order when the default ``C_i = T/i``
    profile is used, which is BUC's (and CURE's) preferred ordering.

    ``hot_member_fraction`` layers *intra-member* skew on top of the Zipf
    draw: each tuple independently lands on member 0 of ``hot_dimension``
    with that probability (its other dimensions keep their Zipf draw).
    At 0.0 the knob is inert; near 1.0 a single base-level member owns
    almost the whole table — the regime where partitioning on any level
    of that dimension alone cannot bound partition size and the local
    pair extension has to kick in.
    """
    if n_dims < 1 or n_tuples < 1:
        raise ValueError("need at least one dimension and one tuple")
    if not 0.0 <= hot_member_fraction <= 1.0:
        raise ValueError("hot_member_fraction must be in [0, 1]")
    if not 0 <= hot_dimension < n_dims:
        raise ValueError("hot_dimension must name a generated dimension")
    if cardinalities is None:
        cardinalities = default_cardinalities(n_dims, n_tuples)
    if len(cardinalities) != n_dims:
        raise ValueError("one cardinality per dimension is required")
    rng = np.random.default_rng(seed)
    columns = [
        zipf_column(rng, n_tuples, cardinality, zipf)
        for cardinality in cardinalities
    ]
    if hot_member_fraction > 0.0:
        hot_mask = rng.random(n_tuples) < hot_member_fraction
        columns[hot_dimension] = np.where(
            hot_mask, np.int64(0), columns[hot_dimension]
        )
    measures = [
        rng.integers(1, 101, size=n_tuples, dtype=np.int64)
        for _ in range(n_measures)
    ]
    dimensions = tuple(
        flat_dimension(f"D{index}", cardinality)
        for index, cardinality in enumerate(cardinalities)
    )
    schema = CubeSchema(
        dimensions, make_aggregates(*aggregates), n_measures=n_measures
    )
    return schema, Table.from_columns(schema.fact_schema, columns + measures)
