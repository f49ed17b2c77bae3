"""Multilevel accelerated proximal solvers for composite optimization.

The library solves min F(x) = f(x) + g(x) for l1-regularized least
squares, f(x) = 0.5*||Ax - b||^2 and g(x) = lam*||x||_1 (L1LeastSquares),
and its bucket variant for dense error correction.  Solvers: ista,
fista, which restarts its momentum by the gradient test, agm, and the
multilevel magma, plus the monotone mfista used on smoothed coarse
models, which restarts its momentum at each rejected step and returns
when a step without momentum is rejected.

Each operation has one public name: the methods of L1LeastSquares,
SmoothedView, RestrictionChain and CoarseModel, and the functions
prox_step, prog, gradient_mapping and mirror_step for the steps the
guarantee lemmas are stated for.
"""

from .problem import (
    L1LeastSquares,
    SmoothedView,
    gradient_mapping,
    lipschitz_estimate,
    mirror_step,
    power_iteration,
    prog,
    prox_step,
    soft_threshold,
)
from .multilevel import (
    CoarseModel,
    RestrictionChain,
    build_chain,
    build_coarse_model,
)
from .solvers import (
    CoarseEvent,
    InvariantViolation,
    LineSearchError,
    MagmaState,
    REJECTION_REASONS,
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
