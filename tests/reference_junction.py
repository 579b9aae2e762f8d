"""The boundary-projection API of the paper's gluing argument, kept as a test
oracle: nothing in the package calls it. ``join_streams`` compares the same
truncated projections at the interface on its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from latticeflow.capacity import as_fraction
from latticeflow.junction import DiscreteStream
from latticeflow.lattice import vertical_edges


@dataclass(frozen=True)
class BoundaryCondition:
    """Truncated projections at the bottom and below-top layers of a box."""

    pi1: tuple[int, ...]
    pi2: tuple[int, ...]
    lam: Fraction
    n: int
    level: int

    def reflected(self) -> "BoundaryCondition":
        return BoundaryCondition(self.pi2, self.pi1, self.lam, self.n, self.level)


def _cap_units(lam: Fraction, n: int, d: int, resolution: int) -> int:
    return (math.floor(lam * n ** (d - 1)) + 1) * resolution


def truncated_projection(ds: DiscreteStream, layer: int, lam, n: int) -> tuple[int, ...]:
    """Per-column vertical amounts through [layer, layer+1], capped.

    The cap is floor(lam * n^(d-1)) + 1 in whole units; entries follow the
    lexicographic base-point order.
    """
    lamf = as_fraction(lam)
    box = ds.box
    if not box.z_lo <= layer < box.z_hi:
        raise ValueError("layer outside the box")
    cap = _cap_units(lamf, n, box.d, ds.resolution)
    layer_ids = vertical_edges(box.dims, box.height)[:, layer - box.z_lo]
    return tuple(min(abs(x), cap) for x in ds.flow[layer_ids].tolist())


def boundary_condition(ds: DiscreteStream, lam, n: int) -> BoundaryCondition:
    """Projections at the bottom layer and the layer below the top face."""
    lamf = as_fraction(lam)
    box = ds.box
    return BoundaryCondition(
        truncated_projection(ds, box.z_lo, lamf, n),
        truncated_projection(ds, box.z_hi - 1, lamf, n),
        lamf,
        n,
        ds.level,
    )


def boundary_count_bound(lam, n: int, level: int, d: int) -> int:
    """Exact counting bound on the distinct boundary conditions at level k."""
    lamf = as_fraction(lam)
    if n < 1 or level < 1 or d < 2 or lamf < 0:
        raise ValueError("parameters must be positive (d >= 2, lam >= 0)")
    return (level * (math.floor(lamf * n ** (d - 1)) + 1) + 1) ** (2 * n ** (d - 1))
