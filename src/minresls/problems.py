"""Benchmark problems with analytic gradients and Hessian-vector products.

Each builder returns a :class:`ProblemSpec` that can mint fresh objectives
(one oracle counter per run) and sample a deterministic starting point from a
caller-supplied generator.

``ProblemSpec.self_test`` compares the analytic gradient and HVP with central
differences at a few random points. The gradient check differences f along
every coordinate, so it costs O(n^2) work, and its absolute tolerance fails a
correct ``rosenbrock`` at n = 1e4, where rounding in f swamps the difference
quotient. ``build_problem`` runs it by default; manifest cells
(``bench.parse_manifest``) and the benchmark harness build with
``self_test=False`` and are not checked. ``minresls check`` self-tests every
registered problem at its default size.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core import Objective, fd_grad_check, fd_hvp_check

__all__ = [
    "ProblemSpec",
    "toy_sine",
    "quartic_saddle",
    "rosenbrock",
    "quadratic",
    "REGISTRY",
    "build_problem",
    "list_problems",
]


@dataclass
class ProblemSpec:
    """Immutable problem description.

    Every evaluation returns a fresh array (or a float) that the caller owns.
    Rosenbrock's ``hvp`` reuses two work vectors per thread, so objectives of
    one spec may run in different threads.
    """

    name: str
    dim: int
    _f: Callable = field(repr=False)
    _grad: Callable = field(repr=False)
    _hvp: Callable = field(repr=False)
    _start: Callable = field(repr=False)
    f_opt: float | None = None

    def make_objective(self) -> Objective:
        """A fresh objective with its own zeroed oracle counter."""
        return Objective(self.dim, self._f, self._grad, self._hvp)

    def start(self, rng: np.random.Generator) -> np.ndarray:
        return self._start(rng)

    def self_test(self, seed: int = 0, points: int = 10, tol: float = 1e-6) -> None:
        """Check analytic derivatives against central differences.

        Probes ``points`` random locations; raises AssertionError on a gap
        above ``tol``. Uses a throwaway objective so no run counter is touched.
        """
        rng = np.random.default_rng(seed)
        obj = self.make_objective()
        for _ in range(points):
            x = rng.uniform(0.0, 1.0, self.dim)
            gap_g = fd_grad_check(obj, x)
            assert gap_g <= tol, f"{self.name}: gradient gap {gap_g:.3e} > {tol:.1e}"
            v = rng.standard_normal(self.dim)
            gap_h = fd_hvp_check(obj, x, v)
            assert gap_h <= tol, f"{self.name}: hvp gap {gap_h:.3e} > {tol:.1e}"


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
    if n < 1:
        raise ValueError("n must be positive")
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


def quartic_saddle(n: int = 10, spectrum=None) -> ProblemSpec:
    """f(x) = 0.5 x'Ax + 0.25 ||x||^4 with diagonal A holding a strict saddle.

    Default spectrum is (1, -1, 1, ..., 1). The origin is a strict saddle
    (gradient zero, smallest Hessian eigenvalue = min spectrum < 0); the
    global minima sit on the most negative eigendirection at radius
    sqrt(-a_min) with value -a_min^2 / 4. Default starts are tiny random
    perturbations of the saddle, which is the interesting regime.
    """
    if spectrum is None:
        a = np.ones(n)
        if n < 2:
            raise ValueError("need n >= 2 for the default spectrum")
        a[1] = -1.0
    else:
        a = np.asarray(spectrum, dtype=float)
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
        u /= np.linalg.norm(u)
        radius = 1e-3 * rng.uniform() ** (1.0 / _n)
        return radius * u

    return ProblemSpec("quartic_saddle", n, f, grad, hvp, start,
                       f_opt=-0.25 * a_min * a_min)


def rosenbrock(n: int = 100) -> ProblemSpec:
    """Chained Rosenbrock: sum of 100 (x_{i+1} - x_i^2)^2 + (1 - x_i)^2."""
    if n < 2:
        raise ValueError("need n >= 2")
    # hvp's two work vectors, made by the first call in each thread, so that
    # objectives of one spec may still run concurrently
    local = threading.local()

    def work():
        pair = getattr(local, "pair", None)
        if pair is None:
            pair = local.pair = (np.empty(n - 1), np.empty(n - 1))
        return pair

    def f(x):
        head, tail = x[:-1], x[1:]
        return float(np.sum(100.0 * (tail - head ** 2) ** 2 + (1.0 - head) ** 2))

    def grad(x):
        g = np.zeros_like(x)
        head, tail = x[:-1], x[1:]
        gap = tail - head ** 2
        g[:-1] = -400.0 * head * gap - 2.0 * (1.0 - head)
        g[1:] += 200.0 * gap
        return g

    def hvp(x, v):
        # each line evaluates the expression in its comment one numpy
        # operation at a time, in the same order, in the work vectors a and
        # b, so the result is bitwise that of the plain expression
        a, b = work()
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


def quadratic(spectrum=None, n: int = 10) -> ProblemSpec:
    """Diagonal quadratic f(x) = 0.5 sum lam_i x_i^2; all ones by default."""
    lam = np.ones(n) if spectrum is None else np.asarray(spectrum, dtype=float)
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
    """Instantiate a registered problem; unknown names raise KeyError.

    Registry builds run the derivative self-test (three probe points, see
    :meth:`ProblemSpec.self_test`) by default. It is O(n^2) and rejects a
    correct ``rosenbrock`` at n = 1e4, so large instances, manifest cells and
    the benchmark pass ``self_test=False`` and go unchecked.
    """
    if name not in REGISTRY:
        raise KeyError(f"unknown problem {name!r}; available: {', '.join(list_problems())}")
    spec = REGISTRY[name](**params)
    if self_test:
        spec.self_test(points=3)
    return spec
