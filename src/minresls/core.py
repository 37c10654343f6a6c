"""Core abstractions: vectors, symmetric operators, objectives, oracle accounting.

Everything downstream works on plain 1-D float64 numpy arrays. An operator is
matrix-free (only its action ``v -> A v`` is available), an objective bundles
callbacks for the function value, the gradient and, optionally, a
Hessian-vector product, together with a running tally of oracle work.
"""
from __future__ import annotations

import contextlib
import math

import numpy as np

__all__ = [
    "OptimizationError",
    "NotEvaluable",
    "NoHessianOracle",
    "ZeroRightHandSide",
    "NumericalBreakdown",
    "SymmetricOperator",
    "Objective",
]


class OptimizationError(RuntimeError):
    """Base class for solver-level failures."""


class NotEvaluable(OptimizationError):
    """The objective produced a non-finite value where a finite one is required."""


class NoHessianOracle(OptimizationError):
    """A Hessian-vector product was requested but none was provided."""


class ZeroRightHandSide(OptimizationError):
    """An inner solve was requested for a zero right-hand side."""


class NumericalBreakdown(OptimizationError):
    """A non-finite value appeared inside an iterative kernel."""

    def __init__(self, iteration: int, detail: str = ""):
        self.iteration = iteration
        msg = f"numerical breakdown at inner iteration {iteration}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class StepsizeStagnation(OptimizationError):
    """The linesearch shrank below its minimum admissible stepsize."""


class DegenerateMiddleMatrix(OptimizationError):
    """The small middle block of the compact quasi-Newton form is singular."""


def as_vector(x, name: str = "x") -> np.ndarray:
    """Coerce ``x`` to a finite 1-D float64 array, validating on the way in."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {v.shape}")
    if v.size == 0:
        raise ValueError(f"{name} must be nonempty")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains non-finite entries")
    return v


class SymmetricOperator:
    """Matrix-free symmetric linear map on R^dim."""

    def __init__(self, dim: int, apply_fn):
        if dim < 1:
            raise ValueError("operator dimension must be positive")
        self.dim = int(dim)
        self._apply = apply_fn

    def __call__(self, v: np.ndarray) -> np.ndarray:
        out = np.asarray(self._apply(v), dtype=float)
        if out.shape != (self.dim,):
            raise ValueError(f"operator returned shape {out.shape}, expected ({self.dim},)")
        return out

    def to_dense(self) -> np.ndarray:
        """Materialize the operator column by column. Test-scale only: dim applies."""
        cols = np.empty((self.dim, self.dim))
        e = np.zeros(self.dim)
        for j in range(self.dim):
            e[j] = 1.0
            cols[:, j] = self(e)
            e[j] = 0.0
        return cols


def ensure_operator(A) -> SymmetricOperator:
    """Wrap a dense symmetric ndarray as an operator; pass operators through."""
    if isinstance(A, SymmetricOperator):
        return A
    M = np.asarray(A, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    return SymmetricOperator(M.shape[0], lambda v: M @ v)


class Objective:
    """Smooth objective with oracle accounting.

    ``oracle_count`` tallies oracle work in units of one function evaluation:
    every call of ``f``, ``grad`` or ``hvp`` adds that oracle's cost. Costs
    default to one unit per function value, one per gradient and two per
    Hessian-vector product, mirroring the usual reverse-mode arithmetic
    estimates; each is configurable and must be finite and nonnegative.

    MINRES overwrites the Lanczos vectors it passes to ``hvp`` once the call
    returns, so an oracle must not keep a reference to its arguments. The
    Hessian-vector result is only read, so ``hvp`` may return its argument, a
    read-only array, or a buffer it keeps and refills on the next call.
    """

    def __init__(self, dim, f, grad, hvp=None, *,
                 f_cost=1.0, grad_cost=1.0, hvp_cost=2.0):
        self.dim = int(dim)
        self._f = f
        self._grad = grad
        self._hvp = hvp
        self.oracle_count = 0.0
        self.f_cost = _cost("f_cost", f_cost)
        self.grad_cost = _cost("grad_cost", grad_cost)
        self.hvp_cost = _cost("hvp_cost", hvp_cost)

    @property
    def has_hvp(self) -> bool:
        return self._hvp is not None

    @contextlib.contextmanager
    def paused(self):
        """Restore ``oracle_count`` on exit, e.g. after instrumentation has
        re-evaluated the model; pauses nest."""
        saved = self.oracle_count
        try:
            yield self
        finally:
            self.oracle_count = saved

    def f(self, x: np.ndarray) -> float:
        self.oracle_count += self.f_cost
        out = self._f(x)
        if not isinstance(out, float) and np.shape(out) != ():
            raise ValueError(f"function oracle returned shape {np.shape(out)}, "
                             "expected a scalar")
        return float(out)

    def grad(self, x: np.ndarray) -> np.ndarray:
        self.oracle_count += self.grad_cost
        return self._checked("gradient", self._grad(x))

    def hvp(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        if self._hvp is None:
            raise NoHessianOracle("no Hessian oracle attached to this objective")
        self.oracle_count += self.hvp_cost
        return self._checked("Hessian-vector", self._hvp(x, v))

    def _checked(self, oracle: str, out) -> np.ndarray:
        out = np.asarray(out, dtype=float)
        if out.shape != (self.dim,):
            raise ValueError(f"{oracle} oracle returned shape {out.shape}, "
                             f"expected ({self.dim},)")
        return out


def _cost(name: str, value) -> float:
    cost = float(value)
    if not (math.isfinite(cost) and cost >= 0.0):
        raise ValueError(f"{name} must be finite and nonnegative, got {cost!r}")
    return cost
