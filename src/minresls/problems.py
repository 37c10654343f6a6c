"""Benchmark problems with analytic gradients and Hessian-vector products.

Each builder returns a :class:`ProblemSpec` that can mint fresh objectives
(one oracle tally per run) and sample a deterministic starting point from a
caller-supplied generator. Objectives of one spec run one at a time:
Rosenbrock's oracles share two work vectors that the spec owns.

``ProblemSpec.self_test`` checks the analytic derivatives with O(n) work per
random point: a central difference of f along a random direction against g'v
(:func:`fd_grad_check`), and of the gradient along another against the HVP
(:func:`fd_hvp_check`), each gap scaled so that rounding stays below ``FD_TOL``
from n = 10 to n = 1e5. ``build_problem`` runs it by default, so every
manifest cell is checked. The benchmark workloads that build one large problem
directly (``newton_large``, ``lbfgs_mid``) turn it off, to keep it out of
their setup time, and so does ``checks.check_problem_derivatives``, which runs
a longer one itself.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core import Objective, as_vector, check_positive_int, norm2

__all__ = ["build_problem", "list_problems", "ProblemSpec"]

FD_STEP = 1e-5   # central-difference step along a probe direction
FD_TOL = 1e-6    # largest normalized gap a correct derivative may show


def fd_grad_check(obj: Objective, x: np.ndarray, v: np.ndarray) -> float:
    """Gap ``|fd - g'v| / (1 + ||g|| ||v||)`` of a central difference of f along v.

    Rounding in f(x +- h v) grows with |f|; the Cauchy-Schwarz scale absorbs it.
    A scale that overflows raises AssertionError, as the gap would read 0, and
    so does an f that is not finite at x +- h v.
    """
    x = as_vector(x)
    v = as_vector(v, "v")
    g = obj.grad(x)
    with np.errstate(over="ignore"):
        scale = 1.0 + norm2(g) * norm2(v)
    if not math.isfinite(scale):
        raise AssertionError("gradient norm overflows at the probe point")
    fd = (obj.f(x + FD_STEP * v) - obj.f(x - FD_STEP * v)) / (2.0 * FD_STEP)
    if not math.isfinite(fd):
        raise AssertionError("objective not evaluable near the probe point")
    return abs(fd - float(g @ v)) / scale


def fd_hvp_check(obj: Objective, x: np.ndarray, v: np.ndarray) -> float:
    """Gap ``max|fd - Hw| / (1 + max|Hw|)`` of gradient differences along ``w = v / max|v|``.

    The unit max-norm keeps truncation error (like ``max|w_i|^3``) from growing
    with n; the largest entry as scale absorbs rounding in large entries. A
    gradient that is not finite at x +- h w raises AssertionError.
    """
    x = as_vector(x)
    v = as_vector(v, "v")
    w = v / np.max(np.abs(v))
    hw = obj.hvp(x, w)
    g_plus, g_minus = obj.grad(x + FD_STEP * w), obj.grad(x - FD_STEP * w)
    if not (np.all(np.isfinite(g_plus)) and np.all(np.isfinite(g_minus))):
        raise AssertionError("gradient not evaluable near the probe point")
    fd = (g_plus - g_minus) / (2.0 * FD_STEP)
    return float(np.max(np.abs(fd - hw)) / (1.0 + np.max(np.abs(hw))))


@dataclass
class ProblemSpec:
    """Problem description: dimension, oracles, start sampler and optimum.

    ``start(rng)`` draws a starting point from a numpy generator. Every
    evaluation returns a fresh array (or a float) that the caller owns.
    Rosenbrock's ``f``, ``grad`` and ``hvp`` reuse two work vectors of their
    spec, so objectives of one spec must not run in concurrent threads.
    """

    name: str
    dim: int
    _f: Callable = field(repr=False)
    _grad: Callable = field(repr=False)
    _hvp: Callable = field(repr=False)
    start: Callable = field(repr=False)
    f_opt: float | None = None

    def make_objective(self) -> Objective:
        """A fresh objective, its oracle tally at zero."""
        return Objective(self.dim, self._f, self._grad, self._hvp)

    def self_test(self, seed: int = 0, points: int = 10) -> None:
        """Check the derivatives at ``points`` random locations, O(n) work each.

        Runs :func:`fd_grad_check` and :func:`fd_hvp_check` along two standard
        normal directions; raises AssertionError on a gap above ``FD_TOL`` or
        when f or the gradient is not finite nearby, the one way it fails.
        Uses a throwaway objective, so no run's oracle tally is touched.
        """
        rng = np.random.default_rng(seed)
        obj = self.make_objective()
        for _ in range(points):
            x = rng.uniform(0.0, 1.0, self.dim)
            for kind, check in (("gradient", fd_grad_check), ("hvp", fd_hvp_check)):
                gap = check(obj, x, rng.standard_normal(self.dim))
                if not gap <= FD_TOL:
                    raise AssertionError(f"{self.name}: {kind} gap {gap:.3e} > {FD_TOL:.1e}")


def _uniform_start(dim):
    return lambda rng: rng.uniform(0.0, 1.0, dim)


def toy_sine(n: int = 200) -> ProblemSpec:
    """Least-squares fit of y to sin(x): f(x, y) = 0.5 ||y - sin(x)||^2.

    The variable is the concatenation (x, y) of two length-n blocks, so the
    dimension is 2n. The Hessian is block-2x2 separable per coordinate pair
    and singular on the solution manifold y = sin(x); since the y-block of the
    gradient equals the residual itself, 2 f <= ||grad||^2 holds everywhere, a
    gradient-domination property that makes every stationary point a global
    minimum.
    """
    check_positive_int(n, "n")
    dim = 2 * n

    def split(z):
        return z[:n], z[n:]

    def f(z):
        x, y = split(z)
        e = y - np.sin(x)
        return 0.5 * float(e @ e)

    def grad(z):
        x, y = split(z)
        e = y - np.sin(x)
        return np.concatenate([-np.cos(x) * e, e])

    def hvp(z, v):
        x, y = split(z)
        e = y - np.sin(x)
        cx = np.cos(x)
        vx, vy = v[:n], v[n:]
        hx = (np.sin(x) * e + cx * cx) * vx - cx * vy
        hy = -cx * vx + vy
        return np.concatenate([hx, hy])

    return ProblemSpec("toy_sine", dim, f, grad, hvp, _uniform_start(dim), f_opt=0.0)


def _default_n(n, spectrum) -> int:
    """Dimension of a default spectrum: ``n``, a positive integer, or 10 when
    not given.

    A given spectrum sets the dimension itself, so ``n`` may not come with it.
    """
    if spectrum is not None and n is not None:
        raise ValueError("n and spectrum exclude each other: the spectrum sets the dimension")
    if n is None:
        return 10
    check_positive_int(n, "n")
    return n


def quartic_saddle(n: int | None = None, spectrum=None) -> ProblemSpec:
    """f(x) = 0.5 x'Ax + 0.25 ||x||^4 with diagonal A holding a strict saddle.

    Default spectrum is (1, -1, 1, ..., 1), of length ``n`` (10 if not
    given); a given spectrum sets the dimension instead. The origin is a
    strict saddle (gradient zero, smallest Hessian eigenvalue = min spectrum
    < 0); the global minima sit on the most negative eigendirection at
    radius sqrt(-a_min) with value -a_min^2 / 4. Default starts are tiny random
    perturbations of the saddle, which is the interesting regime.
    """
    n = _default_n(n, spectrum)
    if spectrum is None:
        a = np.ones(n)
        if n < 2:
            raise ValueError("need n >= 2 for the default spectrum")
        a[1] = -1.0
    else:
        a = as_vector(spectrum, "spectrum")
        n = a.size
    if a.min() >= 0.0:
        raise ValueError("saddle spectrum must have a negative entry")
    a_min = float(a.min())

    def f(x):
        sq = float(x @ x)
        return 0.5 * float(x @ (a * x)) + 0.25 * sq * sq

    def grad(x):
        return a * x + float(x @ x) * x

    def hvp(x, v):
        return a * v + float(x @ x) * v + 2.0 * float(x @ v) * x

    def start(rng, _n=n):
        u = rng.standard_normal(_n)
        u /= norm2(u)
        radius = 1e-3 * rng.uniform() ** (1.0 / _n)
        return radius * u

    return ProblemSpec("quartic_saddle", n, f, grad, hvp, start,
                       f_opt=-0.25 * a_min * a_min)


def rosenbrock(n: int = 100) -> ProblemSpec:
    """Chained Rosenbrock: sum of 100 (x_{i+1} - x_i^2)^2 + (1 - x_i)^2."""
    check_positive_int(n, "n")
    if n < 2:
        raise ValueError("need n >= 2")
    # the oracles' two work vectors, shared by every objective of this spec
    a, b = np.empty(n - 1), np.empty(n - 1)

    # each oracle evaluates the expression in its comments one numpy
    # operation at a time, in the same order, in the work vectors a and b (or
    # straight into its result), so its value is bitwise that of the plain
    # expression

    def f(x):
        # sum(100 (tail - head^2)^2 + (1 - head)^2)
        head, tail = x[:-1], x[1:]
        np.subtract(tail, np.square(head, out=a), out=a)
        np.multiply(np.square(a, out=a), 100.0, out=a)
        np.square(np.subtract(1.0, head, out=b), out=b)
        return float(np.sum(np.add(a, b, out=a)))

    def grad(x):
        # gap = tail - head^2; g[:-1] = -400 head gap - 2 (1 - head), then
        # g[1:] += 200 gap
        g = np.zeros_like(x)
        head, tail = x[:-1], x[1:]
        lead = g[:-1]
        gap = np.subtract(tail, np.square(head, out=a), out=a)
        np.multiply(np.multiply(head, -400.0, out=lead), gap, out=lead)
        np.multiply(np.subtract(1.0, head, out=b), 2.0, out=b)
        np.subtract(lead, b, out=lead)
        g[1:] += np.multiply(gap, 200.0, out=a)
        return g

    def hvp(x, v):
        h = np.zeros_like(x)
        head, tail = x[:-1], x[1:]
        vh, vt = v[:-1], v[1:]
        # diagonal of the leading block, (1200 head^2 - 400 tail + 2) vh,
        # plus the trailing 200 vt
        np.multiply(np.square(head, out=a), 1200.0, out=a)
        np.subtract(a, np.multiply(tail, 400.0, out=b), out=a)
        np.add(a, 2.0, out=a)
        h[:-1] += np.multiply(a, vh, out=a)
        h[1:] += np.multiply(vt, 200.0, out=a)
        # off-diagonal -400 head, against vt above and vh below
        off = np.multiply(head, -400.0, out=b)
        h[:-1] += np.multiply(off, vt, out=a)
        h[1:] += np.multiply(off, vh, out=a)
        return h

    return ProblemSpec("rosenbrock", n, f, grad, hvp, _uniform_start(n), f_opt=0.0)


def quadratic(spectrum=None, n: int | None = None) -> ProblemSpec:
    """Diagonal quadratic f(x) = 0.5 sum lam_i x_i^2.

    The spectrum is all ones of length ``n`` (10 if not given) by default; a
    given spectrum sets the dimension instead.
    """
    n = _default_n(n, spectrum)
    lam = np.ones(n) if spectrum is None else as_vector(spectrum, "spectrum")
    dim = lam.size

    def f(x):
        return 0.5 * float(x @ (lam * x))

    def grad(x):
        return lam * x

    def hvp(x, v):
        return lam * v

    f_opt = 0.0 if lam.min() >= 0.0 else None
    return ProblemSpec("quadratic", dim, f, grad, hvp, _uniform_start(dim), f_opt=f_opt)


REGISTRY = {
    "toy_sine": toy_sine,
    "quartic_saddle": quartic_saddle,
    "rosenbrock": rosenbrock,
    "quadratic": quadratic,
}


def list_problems():
    return sorted(REGISTRY)


def build_problem(name: str, self_test: bool = True, **params) -> ProblemSpec:
    """Instantiate a registered problem.

    An unknown name or a bad parameter value raises ValueError, a parameter
    the builder does not take raises TypeError, and a failed self-test
    raises AssertionError.

    Runs the O(n) derivative self-test (three probe points, see
    :meth:`ProblemSpec.self_test`) by default, so every manifest cell is
    checked. The benchmark workloads that build one large problem directly
    pass ``self_test=False``, because the check would add to their measured
    setup time, and so does ``checks.check_problem_derivatives``, which runs
    a longer self-test of its own.
    """
    if name not in REGISTRY:
        raise ValueError(f"unknown problem {name!r}; available: {', '.join(list_problems())}")
    spec = REGISTRY[name](**params)
    if self_test:
        spec.self_test(points=3)
    return spec
