"""Exact maximal flow through random-capacity lattice cylinders.

Exact integer max-flow and min-cut certificates on boxes of Z^d, pinned
slab cuts, discrete-stream gluing, and seeded Monte Carlo estimators for
the rescaled flow constants and the upper-tail rate curve.
"""

__version__ = "0.1.0"
