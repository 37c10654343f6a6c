"""Stepsize selection: Armijo backtracking and the two-sided curvature search.

Directions that certify non-positive curvature get a relaxed acceptance test
with an extra quadratic term,

    Phi(lam) = f(x + lam*d) - f(x) - sigma*lam*g'd - (sigma/2)*lam^2*d'Bd,

accepted when Phi(lam) <= 0 up to a few ulps of |f(x)|. Since d'Bd <= 0 the
test only gets easier along the ray, so when the first trial step already
passes, the search walks forward on the geometric grid until the first failure
and returns the last accepted grid point (capped at ``max_step``). The first
trial step is ``initial_step``, unless the caller warm-starts the search at
another point of the grid, as the outer loop does with the previous accepted
curvature step. Ordinary descent directions use plain backtracking on the
sufficient-decrease condition, padded the same way.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import Objective, StepsizeStagnation

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


def armijo_backtrack(obj: Objective, x: np.ndarray, d: np.ndarray,
                     g_dot_d: float, f_x: float,
                     cfg: LinesearchConfig = LinesearchConfig()) -> LinesearchResult:
    """Largest step s * shrink^j satisfying the sufficient-decrease condition.

    Exactly j + 1 objective evaluations for the accepted exponent j. Raises
    :class:`StepsizeStagnation` when the step falls below ``min_step`` without
    acceptance (non-finite trial values count as failures and keep shrinking).
    """
    if g_dot_d >= 0.0:
        raise ValueError("backtracking needs a descent direction (g'd < 0)")
    lam = cfg.initial_step
    pad = _f_pad(f_x)
    evals = 0
    while True:
        f_trial = obj.f(x + lam * d)
        evals += 1
        if (np.isfinite(f_trial)
                and f_trial - f_x <= cfg.sufficient_decrease * lam * g_dot_d + pad):
            return LinesearchResult(lam, f_trial, evals)
        lam *= cfg.shrink
        if lam < cfg.min_step:
            raise StepsizeStagnation("stepsize stagnation in backtracking")


def npc_linesearch(obj: Objective, x: np.ndarray, d: np.ndarray,
                   g_dot_d: float, d_curv: float, f_x: float,
                   cfg: LinesearchConfig = LinesearchConfig(), *,
                   start: float | None = None) -> LinesearchResult:
    """Grid search under the curvature-aware acceptance test.

    ``d_curv`` is d'Bd of the unshifted model matrix and must be nonpositive.
    The first trial step is ``start``, ``cfg.initial_step`` by default, and
    must lie in ``[min_step, max_step]``. Backtracks when it fails; otherwise
    grows the step by 1/shrink while the test keeps passing and returns the
    last accepted grid point. A forward search that reaches ``max_step``
    returns it with ``capped=True``.

    A warm start ``initial_step * shrink^j`` keeps the grid of the default
    start (exactly so when ``shrink`` is a power of two, as the default 0.5
    is). When the steps that pass form an interval [0, lam*], both starts
    then accept the same step, the largest grid point in the interval or
    ``max_step``; only ``n_evals`` differs. From below ``initial_step`` the
    forward walk can take up to ceil(log(max_step/start) / log(1/shrink))
    steps.
    """
    if g_dot_d >= 0.0:
        raise ValueError("curvature search needs a descent direction (g'd < 0)")
    if d_curv > 0.0:
        raise ValueError("curvature search needs d'Bd <= 0")
    lam = cfg.initial_step if start is None else start
    if not (cfg.min_step <= lam <= cfg.max_step):
        raise ValueError(f"start {lam!r} lies outside [min_step, max_step] = "
                         f"[{cfg.min_step!r}, {cfg.max_step!r}]")

    sigma = cfg.sufficient_decrease
    pad = _f_pad(f_x)

    def shifted_gap(lam):
        f_trial = obj.f(x + lam * d)
        gap = f_trial - f_x - sigma * lam * g_dot_d - 0.5 * sigma * lam * lam * d_curv
        return gap, f_trial

    evals = 1
    gap, f_lam = shifted_gap(lam)
    if gap > pad or not np.isfinite(gap):
        # backtracking branch
        while True:
            lam *= cfg.shrink
            if lam < cfg.min_step:
                raise StepsizeStagnation("stepsize stagnation in curvature search")
            gap, f_lam = shifted_gap(lam)
            evals += 1
            if gap <= pad and np.isfinite(f_lam):
                return LinesearchResult(lam, f_lam, evals)

    # forward branch: lam currently passes
    while True:
        cand = min(lam / cfg.shrink, cfg.max_step)
        if cand == lam:
            return LinesearchResult(lam, f_lam, evals, capped=True)
        gap, f_cand = shifted_gap(cand)
        evals += 1
        if gap <= pad and np.isfinite(f_cand):
            lam, f_lam = cand, f_cand
            if cand == cfg.max_step:
                return LinesearchResult(lam, f_lam, evals, capped=True)
        else:
            return LinesearchResult(lam, f_lam, evals)
