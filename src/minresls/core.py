"""Core abstractions: vectors, symmetric operators, objectives, oracle accounting.

Everything downstream works on plain 1-D float64 numpy arrays. An operator is
matrix-free (only its action ``v -> A v`` is available), an objective bundles
callbacks for the function value, the gradient and, optionally, a
Hessian-vector product, together with a count of the calls of each.

A call fails in one of three ways, each with one type: an input refused
before any work raises ValueError naming the input, a failed derivative
self-test raises AssertionError, and a run that fails raises
:class:`OptimizationError`.
"""
from __future__ import annotations

import contextlib
import math
import numbers

import numpy as np

__all__ = [
    "Objective",
    "SymmetricOperator",
    "OptimizationError",
    "NumericalBreakdown",
]


class OptimizationError(RuntimeError):
    """A run that failed after it started, never a refused input (ValueError)."""


class NumericalBreakdown(OptimizationError):
    """A non-finite value appeared inside an iterative kernel; the message
    names the inner iteration."""


# numpy dtype kinds of real numbers: bool, signed, unsigned, float
_REAL_KINDS = "biuf"


def _real_array(a, source: str) -> np.ndarray:
    """``a`` as a float64 array: real kinds are cast, uncopied when already
    float64, and any other kind (complex, object, string) raises ValueError
    that starts with ``source``, e.g. ``"x0 has"`` or ``"operator returned"``."""
    a = np.asarray(a)
    if a.dtype != np.float64:
        if a.dtype.kind not in _REAL_KINDS:
            raise ValueError(f"{source} {a.dtype} values, expected real numbers")
        a = a.astype(float)
    return a


def _real_vector(a, dim: int, source: str) -> np.ndarray:
    """``a`` through :func:`_real_array`, then of shape ``(dim,)``, else
    ValueError that starts with ``source``, as ``"operator returned"``."""
    a = _real_array(a, source)
    if a.shape != (dim,):
        raise ValueError(f"{source} shape {a.shape}, expected ({dim},)")
    return a


def check_positive_int(value, name: str) -> None:
    """Raise ValueError unless ``value`` is an integer, of any integral type
    but ``bool``, of at least 1; the message names ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be at least 1")


def as_vector(x, name: str = "x") -> np.ndarray:
    """Coerce ``x`` to a finite 1-D float64 array, validating on the way in."""
    v = _real_array(x, f"{name} has")
    if v.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {v.shape}")
    if v.size == 0:
        raise ValueError(f"{name} must be nonempty")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains non-finite entries")
    return v


def norm2(v: np.ndarray) -> float:
    """Euclidean norm of a 1-D float64 array, bitwise that of
    ``np.linalg.norm(v)``: the same ravel, dot product and square root that
    numpy takes for this case, without the dispatch around them."""
    v = v.ravel(order="K")
    return math.sqrt(v.dot(v))


class SymmetricOperator:
    """Matrix-free symmetric linear map on R^dim; ``dim`` must be an integer
    of at least 1."""

    def __init__(self, dim: int, apply_fn):
        check_positive_int(dim, "dim")
        self.dim = dim
        self._apply = apply_fn

    def __call__(self, v: np.ndarray) -> np.ndarray:
        return _real_vector(self._apply(v), self.dim, "operator returned")


def ensure_operator(A) -> SymmetricOperator:
    """Wrap a dense symmetric ndarray as an operator; pass operators through."""
    if isinstance(A, SymmetricOperator):
        return A
    M = _real_array(A, "A has")
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    return SymmetricOperator(M.shape[0], lambda v: M @ v)


class Objective:
    """Smooth objective with oracle accounting.

    ``f_calls``, ``grad_calls`` and ``hvp_calls`` count the calls of each
    oracle. ``oracle_count`` weighs them in units of one function value: one
    per function value, one per gradient and two per Hessian-vector product,
    the usual reverse-mode arithmetic estimates.

    ``dim`` must be an integer of at least 1. ``f`` must return a real
    scalar, ``grad`` and ``hvp`` a real vector of length ``dim``; a wrong
    shape or a complex, ``None`` or other non-numeric value raises ValueError
    naming the oracle.

    An oracle reads ``x`` and ``v`` and writes neither: ``solve`` passes its
    iterate uncopied to every oracle. MINRES overwrites the Lanczos vectors
    it passes to ``hvp`` once the call returns, so an oracle must not keep a
    reference to its arguments. The Hessian-vector result is only read, so
    ``hvp`` may return its argument, a read-only array, or a buffer it keeps
    and refills on the next call.
    """

    def __init__(self, dim, f, grad, hvp=None):
        check_positive_int(dim, "dim")
        self.dim = dim
        self._f = f
        self._grad = grad
        self._hvp = hvp
        self.f_calls = self.grad_calls = self.hvp_calls = 0

    @property
    def has_hvp(self) -> bool:
        return self._hvp is not None

    @property
    def oracle_count(self) -> float:
        return float(self.f_calls + self.grad_calls + 2 * self.hvp_calls)

    @contextlib.contextmanager
    def paused(self):
        """Restore the call counts on exit, e.g. after instrumentation has
        re-evaluated the model; pauses nest."""
        saved = self.f_calls, self.grad_calls, self.hvp_calls
        try:
            yield self
        finally:
            self.f_calls, self.grad_calls, self.hvp_calls = saved

    def f(self, x: np.ndarray) -> float:
        self.f_calls += 1
        out = self._f(x)
        if isinstance(out, float):
            return float(out)
        value = np.asarray(out)
        if value.shape != ():
            raise ValueError(f"function oracle returned shape {value.shape}, "
                             "expected a scalar")
        if value.dtype.kind not in _REAL_KINDS:
            raise ValueError(f"function oracle returned {out!r}, expected a real number")
        return float(value)

    def grad(self, x: np.ndarray) -> np.ndarray:
        self.grad_calls += 1
        return _real_vector(self._grad(x), self.dim, "gradient oracle returned")

    def hvp(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """The product H(x) v. An objective built without ``hvp`` raises
        ValueError instead, and counts no call."""
        if self._hvp is None:
            raise ValueError("no Hessian oracle attached to this objective")
        self.hvp_calls += 1
        return _real_vector(self._hvp(x, v), self.dim, "Hessian-vector oracle returned")
