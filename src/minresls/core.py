"""Core abstractions: vectors, symmetric operators, objectives, oracle accounting.

Everything downstream works on plain 1-D float64 numpy arrays. An operator is
matrix-free (only its action ``v -> A v`` is available), an objective bundles
callbacks for the function value, the gradient and, optionally, a
Hessian-vector product, together with a running tally of oracle work. The
finite-difference helpers at the bottom are the independent checks used to
validate analytic derivatives.
"""
from __future__ import annotations

import contextlib

import numpy as np

__all__ = [
    "OptimizationError",
    "NotEvaluable",
    "NoHessianOracle",
    "ZeroRightHandSide",
    "NumericalBreakdown",
    "StepsizeStagnation",
    "DegenerateMiddleMatrix",
    "as_vector",
    "OracleCounter",
    "SymmetricOperator",
    "ensure_operator",
    "Objective",
    "fd_grad_check",
    "fd_hvp_check",
    "symmetry_defect",
    "estimate_operator_norm",
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


class OracleCounter:
    """Monotone tally of oracle work, in units of one function evaluation."""

    __slots__ = ("count", "_paused")

    def __init__(self):
        self.count = 0.0
        self._paused = False

    def add(self, units: float) -> None:
        if units < 0:
            raise ValueError("oracle cost must be nonnegative")
        if not self._paused:
            self.count += units

    @contextlib.contextmanager
    def paused(self):
        """Suspend counting, e.g. while instrumentation re-evaluates the model."""
        prev = self._paused
        self._paused = True
        try:
            yield self
        finally:
            self._paused = prev


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

    Costs default to one unit per function value, one per gradient and two per
    Hessian-vector product, mirroring the usual reverse-mode arithmetic
    estimates; all three are configurable.

    MINRES overwrites the Lanczos vectors it passes to ``hvp`` once the call
    returns, so an oracle must not keep a reference to its arguments. The
    Hessian-vector result is only read, so ``hvp`` may return its argument, a
    read-only array, or a buffer it keeps and refills on the next call.
    """

    def __init__(self, dim, f, grad, hvp=None, *, counter=None,
                 f_cost=1.0, grad_cost=1.0, hvp_cost=2.0):
        self.dim = int(dim)
        self._f = f
        self._grad = grad
        self._hvp = hvp
        self.counter = counter if counter is not None else OracleCounter()
        self.f_cost = float(f_cost)
        self.grad_cost = float(grad_cost)
        self.hvp_cost = float(hvp_cost)

    @property
    def has_hvp(self) -> bool:
        return self._hvp is not None

    @property
    def oracle_count(self) -> float:
        return self.counter.count

    def f(self, x: np.ndarray) -> float:
        self.counter.add(self.f_cost)
        return float(self._f(x))

    def grad(self, x: np.ndarray) -> np.ndarray:
        self.counter.add(self.grad_cost)
        return self._checked("gradient", self._grad(x))

    def hvp(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        if self._hvp is None:
            raise NoHessianOracle("no Hessian oracle attached to this objective")
        self.counter.add(self.hvp_cost)
        return self._checked("Hessian-vector", self._hvp(x, v))

    def _checked(self, oracle: str, out) -> np.ndarray:
        out = np.asarray(out, dtype=float)
        if out.shape != (self.dim,):
            raise ValueError(f"{oracle} oracle returned shape {out.shape}, "
                             f"expected ({self.dim},)")
        return out


def fd_grad_check(obj: Objective, x: np.ndarray, h: float = 1e-5) -> float:
    """Max normalized gap between the analytic gradient and central differences.

    Returns ``max_i |fd_i - g_i| / (1 + |g_i|)``. Raises :class:`NotEvaluable`
    if the objective is non-finite at any probe point.
    """
    x = as_vector(x)
    if h <= 0:
        raise ValueError("step h must be positive")
    g = obj.grad(x)
    worst = 0.0
    e = np.zeros_like(x)
    for i in range(x.size):
        e[i] = h
        fp = obj.f(x + e)
        fm = obj.f(x - e)
        e[i] = 0.0
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise NotEvaluable("objective not evaluable near the probe point")
        fd = (fp - fm) / (2.0 * h)
        worst = max(worst, abs(fd - g[i]) / (1.0 + abs(g[i])))
    return worst


def fd_hvp_check(obj: Objective, x: np.ndarray, v: np.ndarray, h: float = 1e-5) -> float:
    """Max normalized gap between the analytic Hessian-vector product and a
    central difference of gradients along ``v``."""
    x = as_vector(x)
    v = as_vector(v, "v")
    if h <= 0:
        raise ValueError("step h must be positive")
    hv = obj.hvp(x, v)
    gp = obj.grad(x + h * v)
    gm = obj.grad(x - h * v)
    if not (np.all(np.isfinite(gp)) and np.all(np.isfinite(gm))):
        raise NotEvaluable("gradient not evaluable near the probe point")
    fd = (gp - gm) / (2.0 * h)
    return float(np.max(np.abs(fd - hv) / (1.0 + np.abs(hv))))


def estimate_operator_norm(op: SymmetricOperator, rng=None, iters: int = 30) -> float:
    """Crude 2-norm estimate by power iteration on the symmetric operator."""
    if rng is None:
        rng = np.random.default_rng(0)
    v = rng.standard_normal(op.dim)
    v /= np.linalg.norm(v)
    est = 0.0
    for _ in range(iters):
        w = op(v)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        est = nw
        v = w / nw
    return float(est)


def symmetry_defect(op: SymmetricOperator, rng=None, probes: int = 20) -> float:
    """Largest normalized asymmetry ``|u'(Av) - v'(Au)|`` over random probes.

    The normalization is ``1 + ||u|| ||v|| ||A||_est`` so the defect of an
    exactly symmetric operator sits at rounding level regardless of scale.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    norm_est = max(estimate_operator_norm(op, rng), 1e-30)
    worst = 0.0
    for _ in range(probes):
        u = rng.standard_normal(op.dim)
        v = rng.standard_normal(op.dim)
        lhs = float(u @ op(v))
        rhs = float(v @ op(u))
        scale = 1.0 + np.linalg.norm(u) * np.linalg.norm(v) * norm_est
        worst = max(worst, abs(lhs - rhs) / scale)
    return worst
