"""Multilevel accelerated proximal solvers for composite optimization.

The library solves min F(x) = f(x) + g(x) for l1-regularized least
squares, f(x) = 0.5*||Ax - b||^2 and g(x) = lam*||x||_1 (L1LeastSquares),
and its bucket variant for dense error correction.  Solvers: ista,
fista, agm and the multilevel magma, plus mfista, the monotone solver of
magma's smoothed coarse models.  Every fine-level gradient step is a
prox step in the problem's rank-one-corrected metric V, and agm's and
magma's mirror steps are taken in V / L_f.

Each operation has one public name: the methods of L1LeastSquares,
SmoothedView, RestrictionChain and CoarseModel; the functions prox_step,
metric_prox_step, metric_inner, prog, gradient_mapping and mirror_step
for the steps the guarantee lemmas are stated for; and the pieces of
magma's step, coarse_condition(grad_mu, grad_H, config),
armijo_search(view, x, d, slope, s_start, r_x, Bd) and
update_eta_alpha.  There are two exceptions: build_chain and
build_coarse_model are aliases of the RestrictionChain and CoarseModel
constructors.  They are kept because the benchmark harness (perfbench)
imports build_chain and times coarse model builds by wrapping
solvers.build_coarse_model.
"""

from .problem import (
    L1LeastSquares,
    SmoothedView,
    gradient_mapping,
    lipschitz_estimate,
    metric_inner,
    metric_prox_step,
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
