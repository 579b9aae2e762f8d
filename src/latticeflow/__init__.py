"""Exact maximal flow through random-capacity lattice cylinders.

Exact integer max-flow and min-cut certificates on boxes of Z^d, pinned
slab cuts, discrete-stream gluing, and seeded Monte Carlo estimators for
the rescaled flow constants and the upper-tail rate curve.
"""

__version__ = "0.1.0"

from .capacity import (
    DEFAULT_RESOLUTION,
    CapacityField,
    DistributionSpec,
    as_fraction,
    derive_seed,
    derive_seeds,
    discretize,
    sample_block,
    sample_field,
)
from .cuts import SlabProblem, SubadditivityReport, check_subadditivity, tau_slab
from .estimators import (
    EnumerationBudgetError,
    NuEstimate,
    PsiCurveReport,
    PsiEstimate,
    estimate_nu,
    estimate_psi,
    estimate_psi_sweep,
    exact_tail_probability,
    psi_curve_diagnostics,
    wilson_interval,
)
from .flow import (
    CapacityOverflowError,
    CutSet,
    MaxFlowResult,
    PinningInfeasibleError,
    Stream,
    Violation,
    decompose_paths,
    flow_value,
    max_flow,
    menger_count,
    min_cut,
    min_cut_value,
    validate_stream,
)
from .junction import (
    BoundaryCondition,
    DiscreteStream,
    JunctionHypothesisError,
    boundary_condition,
    boundary_count_bound,
    discrete_max_flow_stream,
    flip_vertical,
    join_streams,
    truncated_projection,
)
from .lattice import (
    BoxSpec,
    Edge,
    RectSpec,
    classify_edge,
    edges_in_box,
)
