"""Per-layer counts and times, taken at the call sites of library functions.

A ``Tracer`` replaces public functions and methods of mgprox with
wrappers that count calls and time them, for the duration of one
operation.  Methods are replaced on their class; a function bound into a
module by ``from ... import`` is replaced in the namespace of the module
that calls it, since that is the name the caller looks up.  Nothing
inside the library is edited.

Times are inclusive: ``value.s`` contains the ``apply`` calls that
``value`` makes.  ``covered`` is the wall time covered by outermost
wrapped calls, so an operation's self time is its wall time minus
``covered``.
"""

import contextlib
from collections import Counter, defaultdict
from time import perf_counter

from mgprox import multilevel, problem, solvers
from mgprox.multilevel import CoarseModel, RestrictionChain
from mgprox.problem import L1LeastSquares, SmoothedView


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.seconds = defaultdict(float)
        self.counts = Counter()
        self.covered = 0.0
        self._depth = 0

    def span(self, name, fn, after=None):
        """``fn`` wrapped to count and time its calls under ``name``.

        ``after(result)`` runs on each result, outside the timed part.
        """
        def wrapper(*args, **kwargs):
            self._depth += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self._depth -= 1
                self.calls[name] += 1
                self.seconds[name] += dt
                if self._depth == 0:
                    self.covered += dt
            if after is not None:
                after(result)
            return result
        return wrapper

    def _power_iteration(self, name, fn):
        def power_iteration(op, dim, *args, **kwargs):
            def counted_op(v):
                self.counts[name + ".op_calls"] += 1
                return op(v)
            return fn(counted_op, dim, *args, **kwargs)
        return self.span(name, power_iteration)

    def _targets(self):
        """(owner, attribute, wrapper) for every traced entry point."""
        def mfista_iterations(result):
            self.counts["solvers.mfista.iterations"] += result.iterations

        methods = [
            (L1LeastSquares, "apply", "problem.apply"),
            (L1LeastSquares, "apply_adjoint", "problem.apply_adjoint"),
            (L1LeastSquares, "value", "problem.value"),
            (L1LeastSquares, "g_prox", "problem.g_prox"),
            (SmoothedView, "value", "problem.smoothed_value"),
            (RestrictionChain, "restrict", "multilevel.restrict"),
            (RestrictionChain, "prolong", "multilevel.prolong"),
            (RestrictionChain, "coarse_dictionary",
             "multilevel.coarse_dictionary"),
            (CoarseModel, "grad", "multilevel.coarse_model.grad"),
        ]
        out = [(owner, attr, self.span(name, getattr(owner, attr)))
               for owner, attr, name in methods]
        out += [
            (solvers, "mfista",
             self.span("solvers.mfista", solvers.mfista,
                       after=mfista_iterations)),
            (solvers, "armijo_search",
             self.span("solvers.armijo_search", solvers.armijo_search)),
            (solvers, "build_coarse_model",
             self.span("multilevel.build_coarse_model",
                       solvers.build_coarse_model)),
            (solvers, "mirror_step",
             self.span("mirror.mirror_step", solvers.mirror_step)),
            # The Lipschitz estimate of a fine problem, and the spectral
            # bound computed on each coarse-dictionary cache miss.
            (problem, "power_iteration",
             self._power_iteration("problem.power_iteration",
                                   problem.power_iteration)),
            (multilevel, "power_iteration",
             self._power_iteration("multilevel.power_iteration",
                                   multilevel.power_iteration)),
        ]
        return out

    @contextlib.contextmanager
    def installed(self):
        """Trace every entry point while the block runs, then restore them."""
        saved = []
        try:
            for owner, attr, wrapper in self._targets():
                saved.append((owner, attr, owner.__dict__.get(attr)))
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                if original is None:
                    delattr(owner, attr)  # it was inherited
                else:
                    setattr(owner, attr, original)
