"""Functional network autoregression for panel data.

Outcome functions interact through a known linear functional of a weighted
neighbourhood aggregate; the package simulates stationary panels from the
model, estimates the interaction-effect and coefficient functions by
integrated GMM with fixed-effect differencing, quantifies pointwise
uncertainty, and computes network multiplier effects.
"""

from .basis import BasisSystem, QuadratureGrid, build_bspline_basis, build_quadrature
from .effects import (
    PropagationResult,
    impulse_response,
    marginal_effects,
    risk_key_player,
    total_impact,
    total_impacts,
)
from .errors import (
    CannotDifferenceError,
    DomainError,
    FnarError,
    HarnessError,
    IllConditionedBasisError,
    InvalidArgumentError,
    MissingDataError,
    NonStationaryDgpError,
    NumericalFailureError,
    SchemaError,
    UnderidentifiedError,
    VarianceUnavailableError,
)
from .estimator import (
    GmmFit,
    MomentSpec,
    build_instruments,
    estimate_fixed_effects,
    estimate_variance,
    fit_2sls,
    fit_gmm,
    moment_function,
    moment_jacobian,
)
from .interaction import (
    KernelIntegral,
    PastWindow,
    PointEval,
    epanechnikov_kernel,
    network_lag,
)
from .io import interpolate_response, read_edge_list, write_edge_list
from .montecarlo import McConfig, McReport, run_mc
from .network import (
    NetworkWeights,
    build_distance_weights,
    build_lattice_weights,
    build_quadratic_weights,
)
from .simulate import (
    DgpConfig,
    FunctionalPanel,
    neumann_solve,
    simulate_mc_panel,
)

__version__ = "0.1.0"
