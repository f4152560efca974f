"""Simulacra of the paper's real datasets (CovType and Sep85L).

The originals — the Forest CoverType dataset (581,012 tuples, 10 discrete
dimensions) and the Sep85L cloud report dataset (1,015,367 tuples, 9
dimensions) — are not redistributable inside this offline reproduction, so
deterministic synthetic stand-ins are generated with:

* the same dimensionality (10 and 9),
* a matched cardinality *profile* (a few very wide attributes and a tail
  of narrow ones, as both datasets have), and
* the sparsity character Section 7 leans on: the CovType-like dataset is
  **sparser** (mild skew over wide domains → mostly unique tuples → many
  TTs, heavier fact-table access per node, Figure 17's cache sensitivity),
  while the Sep85L-like dataset has **dense areas** (strong skew over
  narrow domains → many repeated combinations → many non-trivial tuples,
  which is what makes CURE's signature sorting cost visible in Figure 14).

Tuple counts default to 1/20 of the originals so pure-Python construction
stays in seconds; the ratio between the two datasets is preserved.
"""

from __future__ import annotations

import numpy as np

from repro.core.model import CubeSchema
from repro.datasets.synthetic import zipf_column
from repro.hierarchy.builders import flat_dimension
from repro.relational.aggregates import make_aggregates
from repro.relational.table import Table

COVTYPE_TUPLES = 581_012
SEP85L_TUPLES = 1_015_367

# Wide-to-narrow profiles in decreasing cardinality order (BUC's heuristic
# ordering), scaled with the tuple count so per-dimension selectivity
# matches the originals' character at any scale.
_COVTYPE_PROFILE = (
    0.010,
    0.0095,
    0.0034,
    0.0012,
    0.00095,
    0.00062,
    0.00044,
    0.00036,
    0.00032,
    0.00012,
)
_SEP85L_PROFILE = (0.0057, 0.00024, 0.00018, 0.0001, 0.00005, 0, 0, 0, 0)
_SEP85L_SMALL = (8, 6, 4, 2)  # the narrow tail that creates dense areas


def _cardinalities(
    profile: tuple[float, ...], n_tuples: int, floor: int = 2
) -> tuple[int, ...]:
    return tuple(
        max(floor, int(fraction * n_tuples)) if fraction else floor
        for fraction in profile
    )


def _generate(
    name: str,
    n_tuples: int,
    cardinalities: tuple[int, ...],
    zipf: float,
    seed: int,
) -> tuple[CubeSchema, Table]:
    rng = np.random.default_rng(seed)
    columns = [
        zipf_column(rng, n_tuples, cardinality, zipf)
        for cardinality in cardinalities
    ]
    measure = rng.integers(1, 101, size=n_tuples, dtype=np.int64)
    dimensions = tuple(
        flat_dimension(f"{name}{index}", cardinality)
        for index, cardinality in enumerate(cardinalities)
    )
    # SUM plus COUNT (Y = 2), the usual pair cubing papers materialize over
    # these datasets; it also keeps the CAT formats of Section 5.1 live
    # (with Y = 1 the paper's own rule degenerates CATs to NTs).
    schema = CubeSchema(
        dimensions, make_aggregates(("sum", 0), ("count", 0)), n_measures=1
    )
    return schema, Table.from_columns(schema.fact_schema, columns + [measure])


def generate_covtype_like(
    scale: float = 1 / 20, seed: int = 5
) -> tuple[CubeSchema, Table]:
    """A sparse 10-dimensional dataset shaped like Forest CoverType."""
    n_tuples = max(1, round(COVTYPE_TUPLES * scale))
    cardinalities = _cardinalities(_COVTYPE_PROFILE, n_tuples)
    return _generate("Cov", n_tuples, cardinalities, zipf=0.4, seed=seed)


def generate_sep85l_like(
    scale: float = 1 / 20, seed: int = 6
) -> tuple[CubeSchema, Table]:
    """A 9-dimensional dataset shaped like Sep85L, with dense areas."""
    n_tuples = max(1, round(SEP85L_TUPLES * scale))
    wide = _cardinalities(_SEP85L_PROFILE[:5], n_tuples)
    cardinalities = wide + _SEP85L_SMALL
    return _generate("Sep", n_tuples, cardinalities, zipf=1.1, seed=seed)
