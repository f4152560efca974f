"""Sorted listings and seeded generators are clean."""

from __future__ import annotations

import os
import random
from pathlib import Path

import numpy as np


def partition_names(root: str) -> list[str]:
    return sorted(os.listdir(root))


def checkpoint_names(root: Path) -> list[str]:
    return sorted(path.name for path in root.glob("*.ckpt") if path.is_file())


def jitter(seed: int) -> float:
    rng = random.Random(seed)
    return rng.uniform(0.0, 1.0)


def sample_rows(n: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed=seed).integers(0, n, size=4)
