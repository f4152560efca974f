"""Seeded ``retail`` input generator owned by the benchmark (numpy only).

The program under test only ever sees what this module writes to disk: a
CSV of raw member names plus a ``spec.json`` in the format
``python -m repro build --spec`` reads.  Nothing here imports ``repro``,
so the oracle (:mod:`oracle`) and the generator share no code with the
system they check.

Shape (fixed; only the row count scales):

=========  =============================  ==========
dimension  levels (most detailed first)   members
=========  =============================  ==========
Store      store → city → region          600→60→6
Product    product → category             20→4
Time       month → quarter                12→4
Channel    channel                        3
=========  =============================  ==========

Measures ``units`` and ``dollars``; aggregates SUM(units), SUM(dollars),
COUNT.  Every dimension is Zipf(0.6)-skewed; *which* member is popular
is drawn from the seed, so two seeds hammer different stores but the
same statistical shape.

The first :data:`ENUMERATED_ROWS` rows walk every member in code order.
That makes the loader's first-appearance dictionary codes equal the
generator's codes (member ``s17`` is code 17) and pins every level's
cardinality whatever the seed, so the oracle can compare integer codes
directly; :func:`oracle.check_code_space` asserts it.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

#: ``(dimension, ((level field, member-name prefix, cardinality), ...))``,
#: in decreasing base cardinality so the loader keeps this order.
DIMENSIONS = (
    ("Store", (("store", "s", 600), ("city", "c", 60), ("region", "r", 6))),
    ("Product", (("product", "p", 20), ("category", "g", 4))),
    ("Time", (("month", "m", 12), ("quarter", "q", 4))),
    ("Channel", (("channel", "h", 3),)),
)
MEASURES = ("units", "dollars")
AGGREGATES = (("sum", 0), ("sum", 1), ("count", 0))
ZIPF_S = 0.6
N_DIMENSIONS = len(DIMENSIONS)
BASE_CARDINALITIES = tuple(levels[0][2] for _name, levels in DIMENSIONS)
#: Rows needed to see every member of the widest dimension once.
ENUMERATED_ROWS = max(BASE_CARDINALITIES)


def rollup_codes(dim: int, level: int, base_codes: np.ndarray) -> np.ndarray:
    """Base member codes of ``dim`` rolled up to ``level`` (0 = base).

    Roll-ups are uniform and contiguous: member ``c`` of a level with
    ``lower`` members belongs to parent ``c * upper // lower``.
    """
    levels = DIMENSIONS[dim][1]
    codes = base_codes
    for step in range(level):
        codes = codes * levels[step + 1][2] // levels[step][2]
    return codes


def _skewed_column(
    rng: np.random.Generator, cardinality: int, n_rows: int
) -> np.ndarray:
    weights = 1.0 / np.arange(1, cardinality + 1) ** ZIPF_S
    popularity = rng.permutation(cardinality)
    ranks = rng.choice(cardinality, size=n_rows, p=weights / weights.sum())
    return popularity[ranks].astype(np.int64)


def _rows(rng: np.random.Generator, n_rows: int) -> np.ndarray:
    columns = [_skewed_column(rng, c, n_rows) for c in BASE_CARDINALITIES]
    columns.append(rng.integers(1, 20, n_rows))  # units
    columns.append(rng.integers(100, 50_000, n_rows))  # dollars (cents-free)
    return np.stack(columns, axis=1)


def generate_facts(seed: int, n_rows: int) -> np.ndarray:
    """``(n_rows, 6)`` int64: four base member codes, units, dollars."""
    if n_rows < ENUMERATED_ROWS:
        raise ValueError(
            f"need at least {ENUMERATED_ROWS} rows to enumerate every member"
        )
    rows = _rows(np.random.default_rng([seed, 0]), n_rows)
    walk = np.arange(ENUMERATED_ROWS)
    for d, cardinality in enumerate(BASE_CARDINALITIES):
        rows[:ENUMERATED_ROWS, d] = walk % cardinality
    return rows


def generate_delta(seed: int, n_rows: int) -> np.ndarray:
    """Rows appended after the build; same shape, an independent stream."""
    return _rows(np.random.default_rng([seed, 1]), n_rows)


def write_csv(path: Path, rows: np.ndarray) -> None:
    """One line per fact row, every hierarchy level spelled out by name."""
    header = [field for _n, levels in DIMENSIONS for field, _p, _c in levels]
    columns = []
    for d, (_name, levels) in enumerate(DIMENSIONS):
        for level, (_field, prefix, _card) in enumerate(levels):
            codes = rollup_codes(d, level, rows[:, d]).tolist()
            columns.append([f"{prefix}{code}" for code in codes])
    for m in range(len(MEASURES)):
        columns.append(rows[:, N_DIMENSIONS + m].tolist())
    with open(path, "w", newline="") as handle:
        handle.write(",".join(header + list(MEASURES)) + "\n")
        handle.writelines(
            ",".join(map(str, record)) + "\n" for record in zip(*columns)
        )


def write_spec(path: Path) -> None:
    """The cube spec, in the CLI's ``--spec`` JSON format."""
    spec = {
        "dimensions": [
            {"name": name, "levels": [field for field, _p, _c in levels]}
            for name, levels in DIMENSIONS
        ],
        "measures": list(MEASURES),
        "aggregates": [list(pair) for pair in AGGREGATES],
    }
    path.write_text(json.dumps(spec, indent=2) + "\n")


def write_input(directory: Path, rows: np.ndarray) -> tuple[Path, Path]:
    """Write ``fact.csv`` + ``spec.json`` under ``directory``."""
    directory.mkdir(parents=True, exist_ok=True)
    csv_path, spec_path = directory / "fact.csv", directory / "spec.json"
    write_csv(csv_path, rows)
    write_spec(spec_path)
    return csv_path, spec_path
