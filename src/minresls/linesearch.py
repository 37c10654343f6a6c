"""Stepsize selection: Armijo backtracking and the two-sided curvature search.

Both searches try the steps of one grid: exponent j gives the trial step
``min(initial_step * shrink**j, max_step)``, and a search reports the exponent
it accepts. Backtracking raises j by one per failed trial. A search that
finds no acceptable step of at least ``min_step`` returns step 0 with
``f_new = f(x)``, its evaluations counted, and the first exponent below the
grid's range; the caller decides what that means.

Directions that certify non-positive curvature get a relaxed acceptance test
with an extra quadratic term,

    Phi(lam) = f(x + lam*d) - f(x) - sigma*lam*g'd - (sigma/2)*lam^2*d'Bd,

accepted when Phi(lam) <= 0 up to a few ulps of |f(x)|. Since d'Bd <= 0 the
test only gets easier along the ray, so when the first trial step already
passes, the search lowers j until the first failure and returns the last
accepted grid point (capped at ``max_step``). The first trial exponent is 0,
unless the caller warm-starts the search at another one, as the outer loop
does with the previous accepted curvature exponent. Ordinary descent
directions use plain backtracking on the sufficient-decrease condition, padded
the same way.

Both searches assume a descent direction, g'd < 0, and the curvature search
also d'Bd <= 0 and a start exponent whose step lies in [min_step, max_step];
:func:`~minresls.driver.solve`, their caller, establishes all three, and the
searches do not test them again.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import Objective

__all__ = ["LinesearchConfig"]

# Acceptance is padded by this many ulps of |f(x)|: near a minimizer the true
# decrease drops below the resolution of f itself, the trial value rounds to
# exactly f(x), and an unpadded test would reject a perfectly good step until
# the stepsize stagnates. The pad is invisible at any decrease large enough
# to matter and exactly zero when f(x) = 0.
_ROUNDING_PAD = 4.0

_EPS = np.finfo(float).eps


def _f_pad(f_x: float) -> float:
    return _ROUNDING_PAD * _EPS * abs(f_x)


@dataclass(frozen=True)
class LinesearchConfig:
    initial_step: float = 1.0
    shrink: float = 0.5
    sufficient_decrease: float = 1e-4
    min_step: float = 1e-18
    max_step: float = 1e10

    def __post_init__(self):
        if not (0.0 < self.shrink < 1.0):
            raise ValueError("shrink factor must lie in (0, 1)")
        if not (0.0 < self.sufficient_decrease < 1.0):
            raise ValueError("sufficient-decrease constant must lie in (0, 1)")
        if self.initial_step <= 0.0:
            raise ValueError("initial step must be positive")
        if not (0.0 < self.min_step <= self.initial_step <= self.max_step):
            raise ValueError("need 0 < min_step <= initial_step <= max_step")


class LinesearchResult(NamedTuple):
    step: float
    f_new: float        # objective at the accepted point, reusable by the caller
    n_evals: int
    capped: bool = False
    exponent: int = 0   # grid exponent j of the accepted step


def _grid_step(cfg: LinesearchConfig, j: int) -> float:
    return min(cfg.initial_step * cfg.shrink ** j, cfg.max_step)


def _backtrack(trial, cfg: LinesearchConfig, j: int, evals: int,
               f_x: float) -> LinesearchResult:
    """First exponent j, j + 1, ... whose step ``trial`` accepts, or step 0
    with ``f_x`` once the step falls below ``min_step``; ``evals`` counts the
    evaluations the caller made before."""
    while True:
        lam = _grid_step(cfg, j)
        if lam < cfg.min_step:
            return LinesearchResult(0.0, f_x, evals, exponent=j)
        ok, f_lam = trial(lam)
        evals += 1
        if ok:
            return LinesearchResult(lam, f_lam, evals, exponent=j)
        j += 1


def armijo_backtrack(obj: Objective, x: np.ndarray, d: np.ndarray,
                     g_dot_d: float, f_x: float,
                     cfg: LinesearchConfig = LinesearchConfig()) -> LinesearchResult:
    """Largest step of exponent j >= 0 satisfying the sufficient-decrease condition.

    ``d`` must be a descent direction, ``g_dot_d`` < 0; this is assumed, not
    tested. Exactly j + 1 objective evaluations for the accepted exponent j.
    Returns step 0 with ``f_new = f_x`` when the step falls below
    ``min_step`` without acceptance, after one evaluation per grid step of
    at least ``min_step`` (non-finite trial values count as failures and
    keep shrinking).
    """
    sigma = cfg.sufficient_decrease
    pad = _f_pad(f_x)

    def trial(lam):
        f_trial = obj.f(x + lam * d)
        return np.isfinite(f_trial) and f_trial - f_x <= sigma * lam * g_dot_d + pad, f_trial

    return _backtrack(trial, cfg, 0, 0, f_x)


def npc_linesearch(obj: Objective, x: np.ndarray, d: np.ndarray,
                   g_dot_d: float, d_curv: float, f_x: float,
                   cfg: LinesearchConfig = LinesearchConfig(), *,
                   start: int = 0) -> LinesearchResult:
    """Grid search under the curvature-aware acceptance test.

    ``d`` must be a descent direction, ``g_dot_d`` < 0, and ``d_curv``, d'Bd
    of the unshifted model matrix, must be nonpositive; both are assumed, not
    tested. The first trial has exponent ``start``, an integer whose step
    ``initial_step * shrink**start`` lies in ``[min_step, max_step]``; this
    too is assumed, as :func:`~minresls.driver.solve` establishes it.
    Backtracks when it fails, and returns step 0 with ``f_new = f_x`` when
    no step of at least ``min_step`` passes; otherwise lowers the exponent by
    one while the test keeps passing and returns the last accepted grid
    point. A forward search that reaches ``max_step`` returns it with
    ``capped=True``.

    Every start tries points of the one grid. When the steps that pass form
    an interval [0, lam*], any start then accepts the same step, the largest
    grid point in the interval or ``max_step``; only ``n_evals`` differs.
    From start j the forward walk takes at most
    j + ceil(log(max_step/initial_step) / log(1/shrink)) steps.
    """
    sigma = cfg.sufficient_decrease
    pad = _f_pad(f_x)

    def trial(lam):
        f_trial = obj.f(x + lam * d)
        gap = f_trial - f_x - sigma * lam * g_dot_d - 0.5 * sigma * lam * lam * d_curv
        return gap <= pad and np.isfinite(f_trial), f_trial

    j = start
    lam = _grid_step(cfg, j)
    ok, f_lam = trial(lam)
    if not ok:
        return _backtrack(trial, cfg, j + 1, 1, f_x)
    evals = 1
    while lam < cfg.max_step:
        cand = _grid_step(cfg, j - 1)
        ok, f_cand = trial(cand)
        evals += 1
        if not ok:
            return LinesearchResult(lam, f_lam, evals, exponent=j)
        j, lam, f_lam = j - 1, cand, f_cand
    return LinesearchResult(lam, f_lam, evals, capped=True, exponent=j)
