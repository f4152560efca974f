"""The correctness oracle: Gray et al.'s CUBE operator, done naively.

A cube answer is whatever ``GROUP BY`` over the fact rows says it is
(Gray et al., *Data Cube*, PAPERS.md), with each dimension first rolled
up to the node's hierarchy level.  This module computes exactly that with
one numpy group-by over the *generated* rows (:mod:`retail`) — it imports
nothing from ``repro``, so it cannot share a bug with any build,
storage, ingest, query or encoding path it is compared against.

* node query      — group by the node's levels;
* sliced query    — keep the fact rows whose member at the slice's level
  is in the slice's member set, then group;
* roll-up query   — the same group-by (a roll-up is only another way of
  computing a coarse node);
* iceberg query   — group, then keep groups with ``COUNT >= min_count``.
"""

from __future__ import annotations

import numpy as np

from retail import DIMENSIONS, N_DIMENSIONS, rollup_codes


def all_level(dim: int) -> int:
    """The level index meaning "``dim`` is not in the grouping set"."""
    return len(DIMENSIONS[dim][1])


class Oracle:
    """Answers cube queries straight from the fact rows."""

    def __init__(self, rows: np.ndarray) -> None:
        self.rows = rows

    def answer(
        self,
        levels: tuple[int, ...],
        slices: tuple[tuple[int, int, tuple[int, ...]], ...] = (),
        min_count: int = 1,
    ) -> list[tuple[int, ...]]:
        """Sorted answer rows: grouping codes, then SUM, SUM, COUNT.

        ``slices`` holds ``(dim, level, members)`` triples.
        """
        rows = self.rows
        keep = np.ones(len(rows), dtype=bool)
        for dim, level, members in slices:
            keep &= np.isin(rollup_codes(dim, level, rows[:, dim]), members)
        rows = rows[keep]
        grouping = [d for d in range(N_DIMENSIONS) if levels[d] != all_level(d)]
        keys = np.stack(
            [rollup_codes(d, levels[d], rows[:, d]) for d in grouping]
            or [np.zeros(len(rows), dtype=np.int64)],
            axis=1,
        )
        groups, inverse = np.unique(keys, axis=0, return_inverse=True)
        inverse = inverse.reshape(-1)
        sums = np.zeros((len(groups), 3), dtype=np.int64)
        np.add.at(sums[:, 0], inverse, rows[:, N_DIMENSIONS])
        np.add.at(sums[:, 1], inverse, rows[:, N_DIMENSIONS + 1])
        np.add.at(sums[:, 2], inverse, 1)
        passing = sums[:, 2] >= min_count
        dims = groups[passing] if grouping else groups[passing][:, :0]
        return sorted(
            tuple(d) + tuple(a)
            for d, a in zip(dims.tolist(), sums[passing].tolist())
        )


def check_code_space(dimensions) -> None:
    """Fail unless the loaded schema's codes are the generator's codes.

    ``dimensions`` are the loaded cube's dimension objects (``name``,
    ``levels[i].name/.cardinality``, ``base_maps``, ``member_names``).
    The oracle compares integer member codes, which is only meaningful
    when the loader's dictionary encoding reproduced the generator's
    numbering, order of dimensions and roll-up maps.
    """
    if len(dimensions) != N_DIMENSIONS:
        raise AssertionError(f"expected {N_DIMENSIONS} dimensions")
    for d, (name, levels) in enumerate(DIMENSIONS):
        loaded = dimensions[d]
        if loaded.name != name or len(loaded.levels) != len(levels):
            raise AssertionError(f"dimension {d} is not {name!r}")
        base = np.arange(levels[0][2])
        for level, (field, prefix, cardinality) in enumerate(levels):
            if (
                loaded.levels[level].name != field
                or loaded.levels[level].cardinality != cardinality
            ):
                raise AssertionError(f"{name}.{field}: wrong level shape")
            names = tuple(f"{prefix}{code}" for code in range(cardinality))
            if tuple(loaded.member_names[level]) != names:
                raise AssertionError(f"{name}.{field}: codes renumbered")
            expected = rollup_codes(d, level, base).tolist()
            if list(loaded.base_maps[level]) != expected:
                raise AssertionError(f"{name}.{field}: roll-up map differs")
