"""Desk-scale laboratory for frequency monotonicity of drift heat flows."""

from .core import (
    CIRCLE,
    GAUSS_LINE,
    PROVENANCE_ANALYTIC,
    PROVENANCE_IMPLICIT,
    PROVENANCE_SPECTRAL,
    TORUS,
    Field,
    TimeGrid,
    Trajectory,
    WeightedGeometry,
    dirichlet_energy,
    energy_pairing,
    make_circle,
    make_gauss_line,
    make_torus,
    weighted_inner,
    weighted_norm,
)
from .operators import DriftOperator, EigenPair, assemble, check_self_adjoint, eigenpairs
from .evolution import (
    GaugeSpec,
    PerturbationSpec,
    evolve_cn,
    evolve_exact,
    evolve_perturbed,
    gauge_transform,
)
from .frequency import (
    FrequencyTrace,
    check_general_frequency,
    check_general_lower_bound,
    check_gradient_only,
    check_hadamard_bound,
    check_log_convexity,
    check_rigidity,
    check_u_monotone,
    default_tolerance,
    frequency_trace,
    vanishing_order_surrogate,
)
from .caloric import (
    CovSolution,
    HeatOracle,
    check_cov_residual,
    check_poon_convexity,
    check_poon_correspondence,
    cov_transform,
    gauss_weighted_norm2,
    make_oracle,
    poon_h,
    sample_grid,
    trajectory_from_cov,
)
from .reports import CheckReport
from .suite import run_check_all
from . import errors

__version__ = "0.1.0"
