"""Multilevel accelerated proximal solvers for composite optimization.

The library solves min F(x) = f(x) + g(x) with f smooth and g given by
its prox, with l1-regularized least squares (and its bucket variant for
dense error correction) as the flagship instance family.  Solvers: ista,
fista, agm, and the multilevel magma, plus the monotone mfista used on
smoothed coarse models.
"""

from .problem import (
    CompositeProblem,
    L1LeastSquares,
    SmoothedView,
    grad_f,
    gradient_mapping,
    lipschitz_estimate,
    power_iteration,
    prog,
    prox_step,
    smoothed_grad,
    smoothed_value,
    soft_threshold,
)
from .mirror import BregmanGeometry, EuclideanGeometry, bregman, mirror_step
from .multilevel import (
    CoarseModel,
    RestrictionChain,
    build_chain,
    build_coarse_model,
    coarse_grad,
    coarse_lipschitz,
    coarse_value,
    prolong,
    restrict,
)
from .solvers import (
    CoarseEvent,
    InvariantViolation,
    LineSearchError,
    MagmaState,
    Solution,
    SolverConfig,
    TraceRow,
    agm,
    armijo_search,
    coarse_condition,
    fista,
    ista,
    magma,
    mfista,
    run_solver,
    update_eta_alpha,
)
from .harness import (
    ExperimentSpec,
    RunRecord,
    gen_correlated_dictionary,
    gen_instance,
    run_compare,
    subgradient_residual,
)

__version__ = "0.1.0"
