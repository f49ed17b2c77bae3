"""Correctness checks that do not rely on the code under test.

Each check takes raw arrays and recomputes what it needs with plain
numpy: its own products with B = [A, I], its own soft-threshold, and a
dense SVD for the spectral norm.  A check returns a list of failure
messages, empty when the answer passes.

Solver answers are deliberately not compared with stored outputs or with
each other: at eps=1e-6 and lam=1e-6, magma and fista objectives differ by
about 2e-3 relative and the duality gap is of the order of F itself, so
objective agreement is not a usable check.
"""

import numpy as np

# Two evaluations of the same formula in a different order round
# differently; the stopping test is strict, so allow this much slack.
ROUNDING = 1e-6
OBJECTIVE_RTOL = 1e-9


def _shrink(v, t):
    return np.where(np.abs(v) > t, v - np.copysign(t, v), 0.0)


def gradient_map_norm(A, b, lam, L_f, w) -> float:
    """||w - prox_{g/L}(w - B^T(Bw - b)/L)||_2 for the bucket model."""
    n = A.shape[1]
    r = A @ w[:n] + w[n:] - b
    g = np.concatenate([A.T @ r, r])
    return float(np.linalg.norm(w - _shrink(w - g / L_f, lam / L_f)))


def objective(A, b, lam, w) -> float:
    n = A.shape[1]
    r = A @ w[:n] + w[n:] - b
    return 0.5 * float(r @ r) + lam * float(np.abs(w).sum())


def check_solution(A, b, lam, L_f, eps, x, converged, reported_F) -> list:
    """Reject an unconverged, not eps-stationary or misreported answer."""
    m, n = A.shape
    x = np.asarray(x)
    if x.shape != (n + m,) or not np.all(np.isfinite(x)):
        return [f"solution has shape {x.shape} or non-finite entries"]
    bad = []
    if not converged:
        bad.append("solver reports no convergence")
    Dn = gradient_map_norm(A, b, lam, L_f, x)
    if not Dn < eps * (1.0 + ROUNDING):
        bad.append(f"||D(x)|| = {Dn:.3e} is not below eps = {eps:g}")
    F = objective(A, b, lam, x)
    if not abs(F - reported_F) <= OBJECTIVE_RTOL * max(1.0, abs(F)):
        bad.append(f"reported objective {reported_F!r} != recomputed {F!r}")
    return bad


def spectral_bound(A) -> float:
    """||B||_2^2 = ||A||_2^2 + 1 for B = [A, I], from a dense SVD of A."""
    return float(np.linalg.svd(A, compute_uv=False)[0]) ** 2 + 1.0


def check_lipschitz(L_f, bound) -> list:
    """The guarantees need L_f to be an upper bound on ||B^T B||_2."""
    if not L_f >= bound:
        return [f"L_f = {L_f!r} is below ||B||^2 = {bound!r}"]
    return []


def check_counts(timed, traced) -> list:
    """A traced solve must repeat the untraced one step for step."""
    if timed != traced:
        return [f"traced counts {traced} differ from timed counts {timed}"]
    return []


def self_test(A, b, lam, L_f, eps, sol, bound) -> list:
    """Show that the checks accept ``sol`` and reject wrong answers.

    ``sol`` must be a converged solution of (A, b, lam) and ``bound`` the
    value of ``spectral_bound(A)``.  Returns the checks that did not
    behave; an empty list means the checks work.
    """
    rng = np.random.default_rng(0)
    x = sol.x
    F = sol.objective
    cases = [
        ("the solution", x, F, True, True),
        ("the starting point", np.zeros_like(x), objective(A, b, lam, 0 * x),
         True, False),
        ("a perturbed solution", x + 1e-3 * rng.standard_normal(x.size),
         F, True, False),
        ("a misreported objective", x, F * (1.0 + 1e-6) + 1e-6, True, False),
        ("an unconverged flag", x, F, False, False),
    ]
    problems = []
    for label, xc, Fc, conv, should_pass in cases:
        passed = not check_solution(A, b, lam, L_f, eps, xc, conv, Fc)
        if passed != should_pass:
            problems.append(f"check {'rejects' if should_pass else 'accepts'} "
                            f"{label}")
    if check_lipschitz(L_f, bound):
        problems.append("check rejects the library's L_f")
    if not check_lipschitz(0.5 * bound, bound):
        problems.append("check accepts half of ||B||^2 as L_f")
    if not check_counts({"iterations": 1}, {"iterations": 2}):
        problems.append("check accepts differing counts")
    return problems
