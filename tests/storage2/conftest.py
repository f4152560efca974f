"""Fixtures for the v2 storage harness: (built, mapped) pairs per variant.

Everything the differential suite compares — library answers, HTTP
bodies, cold-start behaviour — runs over the *same* built cube two ways:
in memory, as the build returned it (:class:`BuiltCube`), and through the
mapped ``cube.v2`` container ``save_bundle`` published from it.  Building
once per session keeps the whole suite fast.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.bundle import open_bundle, save_bundle
from repro.core.model import CubeSchema
from repro.core.storage import CubeStorage
from repro.core.variants import VARIANTS
from repro.query.cache import FactCache
from repro.query.planner import CubePlanner, build_indices
from repro.relational.table import Table
from tests.server.conftest import SERVED_VARIANTS, serving_fact, serving_schema


@dataclass
class BuiltCube:
    """The reference side: the cube and fact table the build returned,
    never written or reloaded; ``root`` is the bundle saved from them."""

    root: Path
    schema: CubeSchema
    storage: CubeStorage
    fact: Table

    @property
    def fact_row_count(self) -> int:
        return len(self.fact)

    def planner(self, with_indices: bool = True) -> CubePlanner:
        indices = None
        if with_indices and not self.storage.dr_mode:
            indices = build_indices(self.schema, self.fact.as_batch())
        return CubePlanner(
            self.storage, FactCache(self.schema, table=self.fact), indices
        )


def make_dual_bundle(directory, variant: str, n_rows: int = 400):
    """Build one cube and save it: ``(built, mapped bundle)``."""
    schema = serving_schema()
    fact = serving_fact(schema, n=n_rows)
    result, _ = VARIANTS[variant].build(schema, table=fact)
    path = save_bundle(
        directory, schema, fact, result.storage, extra={"variant": variant}
    )
    return BuiltCube(path, schema, result.storage, fact), open_bundle(path)


@pytest.fixture(scope="session")
def dual_bundles(tmp_path_factory):
    """Per served variant: the same cube as (built, mapped bundle)."""
    root = tmp_path_factory.mktemp("dual-bundles")
    bundles = {}
    for name in SERVED_VARIANTS:
        bundles[name] = make_dual_bundle(
            root / name.replace("+", "_plus"), name
        )
    yield bundles
    for _built, mapped in bundles.values():
        mapped.close()
