"""CURE's core: execution, signatures, redundancy-free storage, partitioning."""

from __future__ import annotations

from repro.core.model import CubeSchema
from repro.core.workingset import WorkingSet
from repro.core.signature import Signature, SignaturePool
from repro.core.storage import CatFormat, CubeStorage, StorageSizeReport
from repro.core.cure import BuildStats, CureBuilder, CubeResult, build_cube
from repro.core.incremental import UpdateReport, apply_delta, drift_report
from repro.core.partition_select import (
    PartitionDecision,
    select_partition_level,
)
from repro.core.postprocess import postprocess_plus
from repro.core.variants import CureConfig, VARIANTS

__all__ = [
    "BuildStats",
    "CatFormat",
    "CubeResult",
    "CubeSchema",
    "CubeStorage",
    "CureBuilder",
    "CureConfig",
    "PartitionDecision",
    "Signature",
    "SignaturePool",
    "UpdateReport",
    "StorageSizeReport",
    "VARIANTS",
    "WorkingSet",
    "apply_delta",
    "build_cube",
    "drift_report",
    "postprocess_plus",
    "select_partition_level",
]
