"""Baseline ROLAP cubing methods the paper compares against."""

from __future__ import annotations

from paper.baselines.buc import BucCube, BucStats, build_buc_cube
from paper.baselines.bubst import BuBstCube, BuBstStats, build_bubst_cube

__all__ = [
    "BuBstCube",
    "BuBstStats",
    "BucCube",
    "BucStats",
    "build_bubst_cube",
    "build_buc_cube",
]
