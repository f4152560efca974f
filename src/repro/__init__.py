"""repro — a reproduction of "CURE for Cubes: Cubing Using a ROLAP Engine".

Public API highlights:

* :func:`repro.build_cube` / :data:`repro.VARIANTS` — construct CURE-family
  cubes over in-memory tables or disk-backed relations.
* :class:`repro.CubeSchema` with :mod:`repro.hierarchy` builders — describe
  dimensions, hierarchies, measures and aggregates.
* :mod:`repro.query` — answer node, slice, roll-up and iceberg queries
  over CURE cubes.
* :mod:`repro.datasets` — the paper's workloads (synthetic Zipf, APB-1,
  real-dataset simulacra).
* :class:`repro.DurableCubeBuild` / :func:`repro.verify_cube` — crash-safe
  manifest-driven builds with checkpointed resume (see docs/robustness.md).
* :class:`repro.StreamingIngestor` / :class:`repro.AppendLog` — crash-safe
  streaming ingest: a durable append log drained into the cube exactly
  once under a commit watermark (see docs/robustness.md).
"""

from __future__ import annotations

from repro.bundle import CubeBundle, open_bundle, save_bundle
from repro.core.cure import BuildStats, CubeResult, build_cube
from repro.core.incremental import apply_delta, drift_report
from repro.core.recovery import BuildManifest, DurableCubeBuild, verify_cube
from repro.core.model import CubeSchema
from repro.core.storage import CatFormat, CubeStorage
from repro.core.variants import VARIANTS, CureConfig
from repro.hierarchy.builders import (
    complex_dimension,
    flat_dimension,
    linear_dimension,
)
from repro.hierarchy.dimension import Dimension, Level
from repro.ingest import AppendLog, IngestError, StreamingIngestor
from repro.lattice.node import CubeNode
from repro.datasets.loader import DimensionSpec, MeasureSpec, load_csv, load_records
from repro.query.planner import CubePlanner, QueryRequest
from repro.relational.aggregates import make_aggregates
from repro.relational.engine import Engine
from repro.relational.table import Table

__version__ = "1.0.0"

__all__ = [
    "AppendLog",
    "BuildManifest",
    "BuildStats",
    "CubeBundle",
    "CubePlanner",
    "CatFormat",
    "CubeNode",
    "CubeResult",
    "CubeSchema",
    "CubeStorage",
    "CureConfig",
    "Dimension",
    "DimensionSpec",
    "DurableCubeBuild",
    "Engine",
    "IngestError",
    "MeasureSpec",
    "StreamingIngestor",
    "QueryRequest",
    "Level",
    "Table",
    "VARIANTS",
    "apply_delta",
    "build_cube",
    "complex_dimension",
    "drift_report",
    "flat_dimension",
    "linear_dimension",
    "load_csv",
    "load_records",
    "make_aggregates",
    "open_bundle",
    "save_bundle",
    "verify_cube",
]
