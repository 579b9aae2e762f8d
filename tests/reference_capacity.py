"""``edge_uniforms``, one row of ``capacity.edge_uniform_rows``, kept as a
test helper: the package draws its rows in blocks and never one by seed."""

from __future__ import annotations

import numpy as np

from latticeflow.capacity import edge_uniform_rows


def edge_uniforms(seed: int, count: int) -> np.ndarray:
    """Uniform [0, 1) draws where draw i depends only on (seed, i)."""
    return edge_uniform_rows([seed], count)[0]
