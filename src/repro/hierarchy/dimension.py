"""Dimensions as hierarchies of levels with roll-up maps.

A dimension has levels indexed ``0 .. n_levels - 1``, level 0 being the
base (most detailed) level; the implicit ALL level sits at index
``n_levels`` and has a single member, mirroring the paper's enumeration in
Section 3.3 (where ALL is renamed to the extra top level).

Hierarchies may be **linear** (a chain, e.g. City → Country → Continent)
or **complex** (a DAG, e.g. Day rolling up to both Week and Month,
Section 3.2).  Either way, each level carries a *base map*: an array
sending a base-level member code to that level's member code.  Storing
base maps directly (instead of parent-to-parent maps) makes roll-up O(1)
for any level and works unchanged for DAGs.

The **dashed-edge structure** of CURE's execution plan is derived here:
:meth:`Dimension.dashed_children` applies the paper's modified rule 2 —
when a level has several parents, only the parent with the maximum
cardinality keeps the dashed edge — and :meth:`Dimension.entry_levels`
yields the levels introduced by solid edges (children of ALL).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class Level:
    """One hierarchy level: a name and the number of distinct members."""

    name: str
    cardinality: int

    def __post_init__(self) -> None:
        if self.cardinality < 1:
            raise ValueError(
                f"level {self.name!r} must have cardinality >= 1, "
                f"got {self.cardinality}"
            )


@dataclass(frozen=True)
class Dimension:
    """A dimension: levels, base maps, and the parent DAG.

    Parameters
    ----------
    name:
        The dimension's name, e.g. ``"Product"``.
    levels:
        Levels ordered from most to least detailed intent; index 0 must be
        the base level.  The ALL level is implicit (index ``n_levels``).
    base_maps:
        ``base_maps[i][code]`` is the level-``i`` member code of base member
        ``code``.  ``base_maps[0]`` must be the identity.
    parents:
        ``parents[i]`` lists the parent level indices of level ``i`` in the
        hierarchy DAG; the ALL level is denoted by ``n_levels``.  Every
        non-base level must be some level's parent or a child of ALL; every
        level must (transitively) reach ALL.
    member_names:
        Optional display names per level: ``member_names[i][code]``.
    """

    name: str
    levels: tuple[Level, ...]
    base_maps: tuple[tuple[int, ...], ...]
    parents: tuple[tuple[int, ...], ...]
    member_names: tuple[tuple[str, ...] | None, ...] | None = field(
        default=None, compare=False
    )
    #: ``base_maps`` as read-only int64 lookup arrays, one per level: the
    #: one array form cube construction and the vectorized query kernels
    #: share.  Built with the dimension (no lock, no first-touch race) and
    #: freed with it.
    level_maps: tuple[np.ndarray, ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.levels:
            raise ValueError(f"dimension {self.name!r} needs at least one level")
        if len(self.base_maps) != len(self.levels):
            raise ValueError("one base map per level is required")
        if len(self.parents) != len(self.levels):
            raise ValueError("one parent list per level is required")
        base_cardinality = self.levels[0].cardinality
        arrays = tuple(
            np.asarray(base_map, dtype=np.int64) for base_map in self.base_maps
        )
        identity = np.arange(base_cardinality, dtype=np.int64)
        if not np.array_equal(arrays[0], identity):
            raise ValueError("base level map must be the identity")
        for index, (level, array) in enumerate(zip(self.levels, arrays)):
            if len(array) != base_cardinality:
                raise ValueError(
                    f"level {level.name!r} base map length {len(array)} "
                    f"!= base cardinality {base_cardinality}"
                )
            # Viewed unsigned, a negative code is at least 2**63.
            if array.view(np.uint64).max() >= level.cardinality:
                bad = (array < 0) | (array >= level.cardinality)
                raise ValueError(
                    f"level {level.name!r} base map contains out-of-range "
                    f"codes, e.g. {array[bad.argmax()]}"
                )
            if not self.parents[index]:
                raise ValueError(
                    f"level {level.name!r} has no parents (must reach ALL)"
                )
            for parent in self.parents[index]:
                # Parents must be strictly less detailed (higher index),
                # which keeps the hierarchy a DAG by construction.
                if not index < parent <= self.all_level:
                    raise ValueError(
                        f"level {level.name!r} has invalid parent index "
                        f"{parent} (must be in ({index}, {self.all_level}])"
                    )
        # Every level has a strictly less detailed parent, so every level
        # reaches ALL: by induction from the top level, whose parent is ALL.
        for array in arrays:
            array.setflags(write=False)
        object.__setattr__(self, "level_maps", arrays)

    # -- basic geometry ------------------------------------------------------

    @property
    def n_levels(self) -> int:
        """Number of named levels, excluding ALL (the paper's ``L_i``)."""
        return len(self.levels)

    @property
    def all_level(self) -> int:
        """The index of the implicit ALL level."""
        return len(self.levels)

    @property
    def n_levels_with_all(self) -> int:
        """The paper's ``script-L i`` from Section 3.3 (``L_i + 1``)."""
        return len(self.levels) + 1

    def level(self, index: int) -> Level:
        if index == self.all_level:
            return Level("ALL", 1)
        return self.levels[index]

    def cardinality(self, index: int) -> int:
        return self.level(index).cardinality

    @property
    def base_cardinality(self) -> int:
        return self.levels[0].cardinality

    def level_index(self, name: str) -> int:
        if name == "ALL":
            return self.all_level
        for index, level in enumerate(self.levels):
            if level.name == name:
                return index
        raise KeyError(f"dimension {self.name!r} has no level {name!r}")

    @cached_property
    def is_linear(self) -> bool:
        """True when the hierarchy is a simple chain base → … → top → ALL."""
        for index in range(len(self.levels)):
            expected = (index + 1,)
            if tuple(self.parents[index]) != expected:
                return False
        return True

    # -- roll-up -------------------------------------------------------------

    def code_at(self, base_code: int, level_index: int) -> int:
        """The member code of ``base_code`` at ``level_index`` (ALL → 0)."""
        if level_index == self.all_level:
            return 0
        return self.base_maps[level_index][base_code]

    def member_name(self, level_index: int, code: int) -> str:
        """Display name of a member, synthesized if none was provided."""
        if level_index == self.all_level:
            return "ALL"
        if self.member_names is not None:
            names = self.member_names[level_index]
            if names is not None:
                return names[code]
        return f"{self.level(level_index).name}:{code}"

    # -- plan structure (Section 3) -------------------------------------------

    @cached_property
    def children(self) -> dict[int, tuple[int, ...]]:
        """Inverse of ``parents``: children per level index (incl. ALL)."""
        mapping: dict[int, list[int]] = {self.all_level: []}
        for index in range(len(self.levels)):
            mapping.setdefault(index, [])
        for index, parent_list in enumerate(self.parents):
            for parent in parent_list:
                mapping[parent].append(index)
        return {key: tuple(sorted(value)) for key, value in mapping.items()}

    def entry_levels(self) -> tuple[int, ...]:
        """Levels introduced by solid edges.

        For a linear hierarchy this is just the top level (the paper's
        "top, least detailed level" in rule 1).  Complex hierarchies may
        expose several maximal levels.  A level qualifies only when it has
        *no* non-ALL parent — otherwise a dashed edge already reaches it
        and introducing it again would turn the plan into a graph.
        """
        return tuple(
            index
            for index in range(len(self.levels))
            if self.dashed_parent_of(index) is None
        )

    def dashed_children(self, level_index: int) -> tuple[int, ...]:
        """Children reached by dashed edges from ``level_index``.

        Applies the modified rule 2 of Section 3.2: a child with several
        (non-ALL) parents keeps only the dashed edge from the parent with
        maximum cardinality (ties broken toward the lower level index,
        which is the more detailed level and therefore the cheaper
        re-sort).
        """
        chosen: list[int] = []
        for child in self.children.get(level_index, ()):
            if self.dashed_parent_of(child) == level_index:
                chosen.append(child)
        return tuple(chosen)

    def dashed_parent_of(self, child: int) -> int | None:
        named_parents = [
            parent for parent in self.parents[child] if parent != self.all_level
        ]
        if not named_parents:
            return None
        return max(
            named_parents,
            key=lambda parent: (self.cardinality(parent), -parent),
        )

    def validate_plan_coverage(self) -> None:
        """Check entry levels + dashed edges reach every level exactly once.

        This is the guarantee the paper's rules provide for linear
        hierarchies and the modified rule 2 restores for complex ones.
        """
        seen: list[int] = []
        frontier = list(self.entry_levels())
        while frontier:
            level = frontier.pop()
            seen.append(level)
            frontier.extend(self.dashed_children(level))
        if sorted(seen) != list(range(len(self.levels))):
            raise ValueError(
                f"dimension {self.name!r}: plan covers levels {sorted(seen)}, "
                f"expected all of {list(range(len(self.levels)))}"
            )
