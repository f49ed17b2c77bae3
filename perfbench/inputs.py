"""Seeded inputs for the benchmark workloads.

The instance family is the correlated bucket model of the library's
acceptance suite, written out again here so that a change to
``mgprox.harness`` cannot shift the inputs: the library only ever sees
``A``, ``b``, ``lam`` and the solver config.

A workload fixes its dictionary and a pool of planted codes (sparse
signal plus gross errors); ``--seed`` draws the dense measurement noise
of every observation.  Time to eps moves in steps from one instance to
the next (one more magma coarse step costs about K_d = 30 iterations), so
runs that drew whole instances from their seed disagreed by far more
than any regression bound; fresh noise on fixed instances leaves the
iteration counts where they are.

Streams: ``default_rng([FAMILY, 0])`` is the dictionary,
``default_rng([FAMILY, 1, code])`` planted code ``code``, and
``default_rng([seed, 2, j])`` the noise of observation ``j``, so observation
``j`` is the same however many observations a run draws before it.
"""

import numpy as np

FAMILY = 0         # stream of the fixed dictionary and planted codes
RHO = 0.9          # mean pairwise column correlation of the dictionary
K_TRUE = 20        # nonzeros of a planted sparse code
CORRUPTION = 0.1   # share of measurements hit by a gross error
NOISE = 1e-3       # dense Gaussian noise level


def dictionary(m: int, n: int) -> np.ndarray:
    """Unit columns a_j = sqrt(rho) u + sqrt(1-rho) g_j, renormalised."""
    rng = np.random.default_rng([FAMILY, 0])
    u = rng.standard_normal(m)
    u /= np.linalg.norm(u)
    G = rng.standard_normal((m, n))
    G /= np.linalg.norm(G, axis=0)
    A = np.sqrt(RHO) * u[:, None] + np.sqrt(1.0 - RHO) * G
    return A / np.linalg.norm(A, axis=0)


def clean_observation(A: np.ndarray, code: int) -> np.ndarray:
    """A x + e for a K_TRUE-sparse x and CORRUPTION*m gross errors.

    The gross errors have the root-mean-square size of the clean signal.
    """
    m, n = A.shape
    rng = np.random.default_rng([FAMILY, 1, code])
    x = np.zeros(n)
    x[rng.choice(n, size=K_TRUE, replace=False)] = rng.standard_normal(K_TRUE)
    signal = A @ x
    n_bad = int(round(CORRUPTION * m))
    e = np.zeros(m)
    e[rng.choice(m, size=n_bad, replace=False)] = \
        np.sqrt(np.mean(signal ** 2)) * rng.standard_normal(n_bad)
    return signal + e


def noise(m: int, seed: int, j: int) -> np.ndarray:
    """Measurement noise of observation ``j`` of a run with this seed."""
    return NOISE * np.random.default_rng([seed, 2, j]).standard_normal(m)
