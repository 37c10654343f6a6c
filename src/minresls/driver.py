"""Outer loop: regularized Newton / quasi-Newton steps from the inner solver.

Each iteration of :func:`solve` reads evaluate, choose, search, record. It
evaluates and tests the gradient; :func:`_choose_direction` solves
(B_k + zeta_k I) d = -g_k with MINRES to relative tolerance theta_k and screens
the solution (SOL) or certificate (NPC), else falls back to -g_k (GD); the
search matching the flag picks the step, and a record is kept. Tolerance and
shift shrink with the gradient norm, which is what produces the superlinear tail.

Schedules use natural log of (k + 1) wherever a log of the iteration counter
appears, so the k = 1 values stay positive.
"""
from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from .core import (
    DegenerateMiddleMatrix,
    NoHessianOracle,
    NumericalBreakdown,
    Objective,
    OptimizationError,
    StepsizeStagnation,
    SymmetricOperator,
    as_vector,
)
from .hessians import LbfgsStore
from .linesearch import LinesearchConfig, armijo_backtrack, npc_linesearch
from .minres import NPC, SOL, minres_npc

__all__ = [
    "GD",
    "CONVERGED",
    "STAGNATED",
    "BUDGET",
    "DIVERGED",
    "ScheduleParams",
    "SolverConfig",
    "IterateRecord",
    "RunTrace",
    "solve",
]

GD = "GD"

CONVERGED = "CONVERGED"
STAGNATED = "STAGNATED"
BUDGET = "BUDGET"
DIVERGED = "DIVERGED"

_SCHEDULE_MODES = ("newton_mr", "lbfgs_mr", "coupled")

@dataclass(frozen=True)
class ScheduleParams:
    """Per-iteration rules for the inner tolerance, shift, and curvature floor.

    Modes:
      * ``newton_mr``: theta_k = min(tol_cap, sqrt(||g||))
      * ``lbfgs_mr``:  theta_k = min(tol_cap, ln(k+1) * sqrt(k ||g||))
      * ``coupled``:   theta_k = min(tol_cap, ||g||^beta), zeta_k = zeta_mult * theta_k

    The first two modes draw the shift from min(shift_cap, z_k ||g||^zeta_exp)
    with z_k = (k ln(k+1)^2)^zeta_exp. The curvature floor sequence is always
    a_k = (k ln(k+1)^2)^alpha / 2.
    """

    curvature_floor: float = 0.5e-12      # cap on the small-curvature threshold
    tol_cap: float = 0.1                  # cap on the inner relative tolerance
    shift_cap: float = 1e-12              # cap on the regularization shift
    alpha: float = 1.0
    beta: float = 1.0                     # gradient exponent, coupled mode only
    zeta_exp: float = 1.0
    npc_curvature_cap: float = 1e8        # L-BFGS bound on |d'Bd| / ||d||^2
    mode: str = "newton_mr"
    zeta_mult: float = 1.0                # shift-to-tolerance ratio, coupled mode

    def __post_init__(self):
        if self.mode not in _SCHEDULE_MODES:
            raise ValueError(f"unknown schedule mode {self.mode!r}")
        if not (0.0 < self.curvature_floor):
            raise ValueError("curvature_floor must be positive")
        if not (0.0 < self.tol_cap < 1.0):
            raise ValueError("tol_cap must lie in (0, 1)")
        if not (self.shift_cap > 0.0):
            raise ValueError("shift_cap must be positive")
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError("alpha must lie in (0, 1]")
        if not (0.0 < self.zeta_exp <= 1.0):
            raise ValueError("zeta_exp must lie in (0, 1]")
        if not (self.beta > 0.0 and self.zeta_mult > 0.0):
            raise ValueError("beta and zeta_mult must be positive")
        if not (self.npc_curvature_cap > 0.0):
            raise ValueError("npc_curvature_cap must be positive")


def schedule_eval(k: int, gnorm: float, sp: ScheduleParams):
    """Evaluate (theta_k, zeta_k, a_k) at outer iteration k >= 1."""
    if k < 1:
        raise ValueError("outer iteration index starts at 1")
    if not (gnorm > 0.0):
        raise ValueError("schedules need a positive gradient norm")
    base = k * math.log(k + 1.0) ** 2
    a_k = base ** sp.alpha / 2.0
    if sp.mode == "newton_mr":
        theta = min(sp.tol_cap, math.sqrt(gnorm))
        zeta = min(sp.shift_cap, base ** sp.zeta_exp * gnorm ** sp.zeta_exp)
    elif sp.mode == "lbfgs_mr":
        theta = min(sp.tol_cap, math.log(k + 1.0) * math.sqrt(k * gnorm))
        zeta = min(sp.shift_cap, base ** sp.zeta_exp * gnorm ** sp.zeta_exp)
    else:   # coupled
        theta = min(sp.tol_cap, gnorm ** sp.beta)
        zeta = sp.zeta_mult * theta
    return theta, zeta, a_k


@dataclass(frozen=True)
class SolverConfig:
    schedule: ScheduleParams = ScheduleParams()
    linesearch: LinesearchConfig = LinesearchConfig()
    max_inner: int = 1000
    grad_tol: float = 1e-10
    max_oracles: float = 1e5
    hessian: str = "exact"                # "exact" | "lbfgs"
    lbfgs_memory: int = 10
    check_invariants: bool = False       # assert model symmetry, direction contracts

    def __post_init__(self):
        if self.hessian not in ("exact", "lbfgs"):
            raise ValueError(f"unknown hessian mode {self.hessian!r}")
        if not isinstance(self.max_inner, numbers.Integral):
            raise ValueError(f"max_inner must be an integer, got {self.max_inner!r}")
        if self.max_inner < 1:
            raise ValueError("max_inner must be at least 1")
        if not (self.grad_tol >= 0.0 and self.max_oracles > 0.0):
            raise ValueError("grad_tol must be >= 0 and max_oracles > 0")
        if self.lbfgs_memory < 1:
            raise ValueError("lbfgs_memory must be at least 1")


@dataclass
class IterateRecord:
    k: int
    f: float
    gnorm: float
    flag: str               # SOL | NPC | GD
    step: float
    inner_iters: int
    theta: float
    zeta: float
    oracles: float          # cumulative, after this iteration
    time_ms: float          # cumulative wall clock
    capped: bool = False    # forward search hit its cap


@dataclass
class RunTrace:
    status: str
    records: list
    f_final: float
    gnorm_final: float
    x_final: np.ndarray | None
    iters: int
    oracles: float
    time_ms: float
    problem: str = ""
    config: str = ""
    seed: int | None = None
    repeat: int | None = None


def _choose_direction(B, g, gnorm, theta, zeta, a_k, cfg):
    """``(flag, d, inner_iters, d_curv)`` from (B + zeta I) d = -g solved to ``theta``.

    A certificate is NPC with d_curv = d'Bd; a solution, or the iterate at the
    inner cap, is SOL when d'Bd >= min(curvature_floor, a_k ||g||^alpha) times
    ||d||^2, or times max(||d||^2, ||g||^2) under L-BFGS. Under L-BFGS a
    certificate also needs |d'Bd| < npc_curvature_cap ||d||^2. A failed screen
    gives GD (d = -g, d_curv = 0) with the inner iterations kept; a degenerate
    L-BFGS matrix gives GD with none.
    """
    sp = cfg.schedule
    lbfgs = cfg.hessian == "lbfgs"
    try:
        out = minres_npc(B, -g, theta, cfg.max_inner, shift=zeta)
    except DegenerateMiddleMatrix:
        return GD, -g, 0, 0.0
    d = out.direction
    d_sq = float(d @ d)
    if out.flag == NPC:
        d_curv = out.curvature - zeta * d_sq
        if not lbfgs or abs(d_curv) < sp.npc_curvature_cap * d_sq:
            return NPC, d, out.inner_iters, d_curv
    else:
        floor = min(sp.curvature_floor, a_k * gnorm ** sp.alpha)
        if out.curvature >= floor * (max(d_sq, gnorm * gnorm) if lbfgs else d_sq):
            return SOL, d, out.inner_iters, 0.0
    return GD, -g, out.inner_iters, 0.0


def solve(obj: Objective, x0, cfg: SolverConfig = SolverConfig()) -> RunTrace:
    """Minimize ``obj`` from ``x0``; returns the full run trace.

    Terminates CONVERGED when the gradient norm reaches ``grad_tol``,
    STAGNATED when a linesearch collapses, BUDGET when the oracle tally
    reaches ``max_oracles``, and DIVERGED when the objective or gradient
    stops being finite. A curvature certificate with g'd >= 0 raises
    :class:`OptimizationError`: in exact arithmetic only a nonsymmetric model
    operator, such as a wrong Hessian-vector oracle, produces one, and in
    exact mode the message says so.

    Each curvature search after the first starts at
    min(previous accepted curvature step, ``initial_step``), a point of the
    same geometric grid, so it backtracks less; the first starts at
    ``initial_step``.

    The budget is checked once per iteration, after the gradient. A BUDGET
    run's ``oracles`` therefore stays below
    ``max_oracles + max_inner*hvp_cost + L*f_cost + grad_cost``, where

        L = 1 + max(floor(log(min_step/initial_step) / log(shrink)),
                    ceil(log(max_step/min_step) / log(1/shrink)))

    bounds the evaluations of one linesearch: backtracking from at most
    ``initial_step``, or a forward search from a warm start no smaller than
    ``min_step``. L = 95 under the default :class:`LinesearchConfig`.
    """
    x = as_vector(x0, "x0")
    if x.size != obj.dim:
        raise ValueError(f"x0 has size {x.size}, objective dimension is {obj.dim}")
    if cfg.hessian == "exact" and not obj.has_hvp:
        raise NoHessianOracle("exact mode needs a Hessian-vector oracle")

    if cfg.check_invariants:
        from . import checks    # test-only instruments, not loaded otherwise

    sp = cfg.schedule
    ls = cfg.linesearch
    store = LbfgsStore(obj.dim, cfg.lbfgs_memory) if cfg.hessian == "lbfgs" else None

    t0 = time.perf_counter()
    records: list[IterateRecord] = []
    status = None
    gnorm = math.inf
    pending = None          # (s_vec, g_old) awaiting the next gradient
    npc_start = ls.initial_step

    f_x = obj.f(x)
    k = 0
    while True:
        k += 1
        g = obj.grad(x)
        gnorm = float(np.linalg.norm(g))
        if not (math.isfinite(f_x) and math.isfinite(gnorm)):
            status = DIVERGED
            break
        if store is not None and pending is not None:
            s_vec, g_old = pending
            store.update(s_vec, g - g_old)
            pending = None
        if gnorm <= cfg.grad_tol:
            status = CONVERGED
            break
        if obj.oracle_count >= cfg.max_oracles:
            status = BUDGET
            break

        theta, zeta, a_k = schedule_eval(k, gnorm, sp)
        # the model B, without zeta*I: L-BFGS products cost no oracle calls,
        # exact ones one Hessian-vector call each. x is rebound, never written,
        # so the copy is not for correctness: without it the allocator
        # trimmed and refaulted the heap (ROADMAP item 6)
        apply = store.apply if store is not None else partial(obj.hvp, x.copy())
        B = SymmetricOperator(obj.dim, apply)
        if cfg.check_invariants and k == 1:
            checks.assert_symmetric(B, obj)
        try:
            flag, d, inner, d_curv = _choose_direction(B, g, gnorm, theta, zeta, a_k, cfg)
        except NumericalBreakdown:
            status = DIVERGED
            break
        if cfg.check_invariants:
            checks.assert_direction_properties(flag, d, g, gnorm, theta, zeta, a_k, sp, B, obj)

        g_dot_d = float(g @ d)
        if flag == NPC and g_dot_d >= 0.0:
            # a certificate of a symmetric model is a descent direction, and
            # the L-BFGS model is symmetric by construction
            cause = ("" if store is not None else
                     "; the model operator is not symmetric: check the "
                     "Hessian-vector oracle, or run with check_invariants=True "
                     "to measure the symmetry defect")
            raise OptimizationError(
                f"curvature certificate is not a descent direction "
                f"(g'd = {g_dot_d:.3e}){cause}")
        try:
            if flag == NPC:
                res = npc_linesearch(obj, x, d, g_dot_d, d_curv, f_x, ls,
                                     start=npc_start)
                npc_start = min(res.step, ls.initial_step)
            else:
                res = armijo_backtrack(obj, x, d, g_dot_d, f_x, ls)
        except StepsizeStagnation:
            status = STAGNATED
            break

        x = x + res.step * d
        if store is not None:
            pending = (res.step * d, g)
        records.append(IterateRecord(
            k=k, f=f_x, gnorm=gnorm, flag=flag, step=res.step,
            inner_iters=inner, theta=theta, zeta=zeta,
            oracles=obj.oracle_count,
            time_ms=(time.perf_counter() - t0) * 1e3,
            capped=res.capped,
        ))
        f_x = res.f_new

    return RunTrace(
        status=status,
        records=records,
        f_final=f_x,
        gnorm_final=gnorm,
        x_final=x,
        iters=len(records),
        oracles=obj.oracle_count,
        time_ms=(time.perf_counter() - t0) * 1e3,
    )
