"""R11: listing order and unseeded randomness that could shape cube bytes."""

from __future__ import annotations

import os
import random
from pathlib import Path

import numpy as np


def partition_names(root: str) -> list[str]:
    return os.listdir(root)


def checkpoint_paths(root: Path) -> list[Path]:
    return [path for path in root.glob("*.ckpt") if path.is_file()]


def jitter() -> float:
    return random.Random().uniform(0.0, 1.0)


def sample_rows(n: int) -> np.ndarray:
    return np.random.default_rng().integers(0, n, size=4)


def pick_level(levels: list[int]) -> int:
    return random.choice(levels)


def noise(n: int) -> np.ndarray:
    return np.random.rand(n)
