"""Fixtures for the v2 storage harness: dual (v1, v2) bundles per variant.

Everything the differential suite compares — library answers, HTTP
bodies, cold-start behaviour — runs over the *same* built cube opened
two ways: through the v1 heap-file load path (``load_v1_bundle``) and
through the mapped ``cube.v2`` container.  Building and publishing once
per session keeps the whole suite fast.
"""

from __future__ import annotations

import pytest

from repro.bundle import load_v1_bundle, open_bundle, save_bundle
from repro.core.variants import VARIANTS
from repro.storage2 import publish_v2_bundle
from tests.server.conftest import SERVED_VARIANTS, serving_fact, serving_schema


def make_dual_bundle(directory, variant: str, n_rows: int = 400):
    """Build one cube, publish v2, open both ways: ``(v1, v2)`` bundles."""
    schema = serving_schema()
    fact = serving_fact(schema, n=n_rows)
    result, _ = VARIANTS[variant].build(schema, table=fact)
    path = save_bundle(
        directory, schema, fact, result.storage, extra={"variant": variant}
    )
    publish_v2_bundle(path)
    v1 = load_v1_bundle(path)
    v2 = open_bundle(path)
    assert v2.v2 is not None, "published cube.v2 was not detected"
    return v1, v2


@pytest.fixture(scope="session")
def dual_bundles(tmp_path_factory):
    """Per served variant: the same cube opened as (v1, v2)."""
    root = tmp_path_factory.mktemp("dual-bundles")
    bundles = {}
    for name in SERVED_VARIANTS:
        bundles[name] = make_dual_bundle(
            root / name.replace("+", "_plus"), name
        )
    yield bundles
    for v1, v2 in bundles.values():
        v1.close()
        v2.close()
