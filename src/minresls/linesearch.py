"""Stepsize selection: Armijo backtracking and the two-sided curvature search.

Both searches try the steps of one grid: exponent j gives the trial step
``min(initial_step * shrink**j, max_step)``, and a search reports the exponent
it accepts. Backtracking raises j by one per failed trial. A search that
finds no acceptable step of at least ``min_step`` returns step 0 with
``f_new = f(x)``, its evaluations counted, and the first exponent below the
grid's range; the caller decides what that means.

Both searches accept a step by one test,

    f(x + lam*d) - f(x) <= sigma*lam*g'd + (sigma/2)*lam^2*d'Bd + pad,

with f(x + lam*d) finite and ``pad`` a few ulps of |f(x)|. Directions that
certify non-positive curvature carry their d'Bd <= 0, and ordinary descent
directions take d'Bd = 0, which leaves the Armijo sufficient-decrease
condition. Both searches backtrack the same way. Since d'Bd <= 0 the
curvature test only gets easier along the ray, so when its first trial step
already passes, the curvature search lowers j until the first failure and
returns the last accepted grid point (capped at ``max_step``). The first
trial exponent is 0, unless the caller warm-starts the curvature search at
another one, as the outer loop does with the previous accepted curvature
exponent.

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


def _acceptance(obj: Objective, x: np.ndarray, d: np.ndarray, g_dot_d: float,
                d_curv: float, f_x: float, cfg: LinesearchConfig):
    """The one acceptance test of both searches: ``trial(lam)`` returns
    ``(accepted, f(x + lam*d))``, accepted when that value is finite and

        f(x + lam*d) - f(x) <= sigma*lam*g'd + (sigma/2)*lam^2*d'Bd + pad,

    with ``d_curv`` standing for d'Bd (0.0 for Armijo, which adds an exact
    +0.0) and ``pad`` the rounding pad of ``f_x``."""
    sigma = cfg.sufficient_decrease
    pad = _f_pad(f_x)

    def trial(lam):
        f_trial = obj.f(x + lam * d)
        bound = sigma * lam * g_dot_d + 0.5 * sigma * lam * lam * d_curv + pad
        return np.isfinite(f_trial) and f_trial - f_x <= bound, f_trial

    return trial


def _backtrack(trial, cfg: LinesearchConfig, start: int, f_x: float) -> LinesearchResult:
    """First exponent j = start, start + 1, ... whose step ``trial`` accepts,
    after j - start + 1 evaluations, or step 0 with ``f_x`` and exponent j
    after j - start evaluations once the step of j falls below ``min_step``."""
    j = start
    while (lam := _grid_step(cfg, j)) >= cfg.min_step:
        ok, f_lam = trial(lam)
        if ok:
            return LinesearchResult(lam, f_lam, j - start + 1, exponent=j)
        j += 1
    return LinesearchResult(0.0, f_x, j - start, exponent=j)


def armijo_backtrack(obj: Objective, x: np.ndarray, d: np.ndarray,
                     g_dot_d: float, f_x: float,
                     cfg: LinesearchConfig = LinesearchConfig()) -> LinesearchResult:
    """Largest step of exponent j >= 0 satisfying the sufficient-decrease
    condition, the acceptance test with d'Bd = 0.

    ``d`` must be a descent direction, ``g_dot_d`` < 0; this is assumed, not
    tested. Exactly j + 1 objective evaluations for the accepted exponent j.
    Returns step 0 with ``f_new = f_x`` when the step falls below
    ``min_step`` without acceptance, after one evaluation per grid step of
    at least ``min_step`` (non-finite trial values count as failures and
    keep shrinking).
    """
    return _backtrack(_acceptance(obj, x, d, g_dot_d, 0.0, f_x, cfg), cfg, 0, f_x)


def npc_linesearch(obj: Objective, x: np.ndarray, d: np.ndarray,
                   g_dot_d: float, d_curv: float, f_x: float,
                   cfg: LinesearchConfig = LinesearchConfig(), *,
                   start: int = 0) -> LinesearchResult:
    """Grid search under the acceptance test with its curvature term.

    ``d`` must be a descent direction, ``g_dot_d`` < 0, and ``d_curv``, d'Bd
    of the unshifted model matrix, must be nonpositive; both are assumed, not
    tested. The first trial has exponent ``start``, an integer whose step
    ``initial_step * shrink**start`` lies in ``[min_step, max_step]``; this
    too is assumed, as :func:`~minresls.driver.solve` establishes it.
    The search backtracks from ``start`` as :func:`armijo_backtrack` does
    from 0, and so returns step 0 with ``f_new = f_x`` when no step of at
    least ``min_step`` passes. When ``start`` itself passes, it lowers the
    exponent by one while the test keeps passing and returns the last
    accepted grid point. A forward search that reaches ``max_step`` returns
    it with ``capped=True``.

    Every start tries points of the one grid. When the steps that pass form
    an interval [0, lam*], any start then accepts the same step, the largest
    grid point in the interval or ``max_step``; only ``n_evals`` differs.
    From start j the forward walk takes at most
    j + ceil(log(max_step/initial_step) / log(1/shrink)) steps.
    """
    trial = _acceptance(obj, x, d, g_dot_d, d_curv, f_x, cfg)
    res = _backtrack(trial, cfg, start, f_x)
    if res.exponent > start:    # backtracked, or failed: start's step is >= min_step
        return res
    j, lam, f_lam = start, res.step, res.f_new
    while lam < cfg.max_step:
        cand = _grid_step(cfg, j - 1)
        ok, f_cand = trial(cand)
        if not ok:
            return LinesearchResult(lam, f_lam, start - j + 2, exponent=j)
        j, lam, f_lam = j - 1, cand, f_cand
    return LinesearchResult(lam, f_lam, start - j + 1, capped=True, exponent=j)
