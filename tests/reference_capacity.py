"""``edge_uniforms``, numpy's own generator for one row of
``capacity.edge_uniform_rows``: the oracle that the array Philox kernel and
whole runs drawn through it are checked against."""

from __future__ import annotations

import numpy as np


def edge_uniforms(seed: int, count: int) -> np.ndarray:
    """Uniform [0, 1) draws where draw i depends only on (seed, i)."""
    return np.random.Generator(np.random.Philox(key=seed)).random(count)
