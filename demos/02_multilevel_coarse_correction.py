# The multilevel machinery piece by piece: full-weighting restriction,
# the coherent coarse model, and a MAGMA run against FISTA on a dense
# error correction (bucket) instance.

import numpy as np

from mgprox import (
    ExperimentSpec,
    SmoothedView,
    SolverConfig,
    build_chain,
    build_coarse_model,
    fista,
    gen_instance,
    magma,
)

# --- the restriction stencil ------------------------------------------------
# The chain stores only the composed stencil; restricting each unit vector
# spells out the matrix it applies.
print("full weighting on 8 points:")
print(np.column_stack([build_chain(8, 2).restrict(e) for e in np.eye(8)]))

chain = build_chain(8, 3)
print("3-level composed operator maps 8 ->", chain.n_H)
w = np.sin(np.linspace(0, np.pi, 8))
print("restricted smooth vector:", np.round(chain.restrict(w), 4))

# adjointness: <R w, u> == <w, R^T u>
u = np.cos(np.arange(chain.n_H))
print("adjoint gap:", abs(chain.restrict(w) @ u - w @ chain.prolong(u)))

# --- first-order coherence of the coarse model --------------------------
spec = ExperimentSpec(m=300, n=128, rho=0.9, k_true=6, corruption=0.2,
                      noise=0.01, seed=7)
problem, _, _ = gen_instance(spec)   # corruption > 0 makes it a bucket model
chain = build_chain(problem.n_x, 3, bucket=True, m=problem.m)

mu = 1e-4
x = np.random.default_rng(0).standard_normal(problem.dim)
model = build_coarse_model(problem, chain, x, mu)
fine_grad_restricted = chain.restrict(SmoothedView(problem, mu).grad(x))
print("coherence residual:",
      np.linalg.norm(model.grad(model.start) - fine_grad_restricted))

# --- MAGMA vs FISTA ------------------------------------------------------
x0 = np.zeros(problem.dim)
cfg = SolverConfig(eps=1e-6, max_iters=10000, kappa=0.8, levels=3, mu=1e-6)
sol_m = magma(problem, chain, x0, cfg)
sol_f = fista(problem, x0, SolverConfig(eps=1e-6, max_iters=10000))

print(f"fista: {sol_f.iterations} iterations, {sol_f.elapsed_s:.2f}s, "
      f"F={sol_f.objective:.8e}")
print(f"magma: {sol_m.iterations} iterations "
      f"({sol_m.step_counts['coarse']} coarse, "
      f"{sol_m.step_counts['fallback']} fallback), "
      f"{sol_m.elapsed_s:.2f}s, F={sol_m.objective:.8e}")

# Where the coarse steps happened and what they achieved.
print("step pattern (first 60):",
      "".join("C" if r.step_kind == "coarse" else
              ("f" if r.step_kind == "fallback" else ".")
              for r in sol_m.trace[:60]))
for ev in sol_m.coarse_events[:5]:
    print(f"  coarse step at k={ev.k}: slope={ev.slope:.3e} "
          f"step={ev.s:.3f} coarse_iters={ev.coarse_iters}")
