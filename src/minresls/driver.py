"""Outer loop: regularized Newton / quasi-Newton steps from the inner solver.

Each iteration of :func:`solve` reads test, choose, search, record, evaluate.
It tests the gradient; :func:`_choose_direction` solves
(B_k + zeta_k I) d = -g_k with MINRES to relative tolerance theta_k and screens
the solution (SOL) or certificate (NPC), else falls back to -g_k (GD); the
search matching the flag picks the step, a record is kept, and the gradient
at the new point is evaluated and, under L-BFGS, offered to the store with
the step as a curvature pair. Tolerance and
shift shrink with the gradient norm, which is what produces the superlinear tail.
The schedule mode also picks the model B_k: ``lbfgs_mr`` runs on the L-BFGS
store, ``newton_mr`` and ``coupled`` on the objective's Hessian-vector oracle.

Schedules use natural log of (k + 1) wherever a log of the iteration counter
appears, so the k = 1 values stay positive.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from .core import (
    NumericalBreakdown,
    Objective,
    OptimizationError,
    SymmetricOperator,
    as_vector,
    check_positive_int,
    norm2,
)
from .hessians import LbfgsStore
from .linesearch import LinesearchConfig, armijo_backtrack, npc_linesearch
from .minres import NPC, SOL, minres_npc

__all__ = [
    "solve",
    "SolverConfig",
    "ScheduleParams",
    "RunTrace",
    "IterateRecord",
    "GD",
    "CONVERGED",
    "STAGNATED",
    "BUDGET",
    "DIVERGED",
]

GD = "GD"

CONVERGED = "CONVERGED"
STAGNATED = "STAGNATED"
BUDGET = "BUDGET"
DIVERGED = "DIVERGED"

# the schedule modes, each with the SolverConfig fields, as dotted keys, that
# it never reads
UNREAD_FIELDS = {
    "newton_mr": ("schedule.beta", "schedule.zeta_mult", "schedule.npc_curvature_cap",
                  "lbfgs_memory"),
    "lbfgs_mr": ("schedule.beta", "schedule.zeta_mult"),
    "coupled": ("schedule.shift_cap", "schedule.zeta_exp", "schedule.npc_curvature_cap",
                "lbfgs_memory"),
}


@dataclass(frozen=True)
class ScheduleParams:
    """Per-iteration rules for the inner tolerance, shift, and curvature floor.

    Modes, each with its model B_k: ``lbfgs_mr`` the L-BFGS store, the other
    two the exact Hessian:
      * ``newton_mr``: theta_k = min(tol_cap, sqrt(||g||))
      * ``lbfgs_mr``:  theta_k = min(tol_cap, ln(k+1) * sqrt(k ||g||))
      * ``coupled``:   theta_k = min(tol_cap, ||g||^beta), zeta_k = zeta_mult * theta_k

    The first two modes draw the shift from min(shift_cap, z_k ||g||^zeta_exp)
    with z_k = (k ln(k+1)^2)^zeta_exp. Every mode screens solutions against
    the curvature floor floor_k = min(curvature_floor, a_k ||g||^alpha) with
    a_k = (k ln(k+1)^2)^alpha / 2. The modes are the keys of
    :data:`UNREAD_FIELDS`, which names the fields each leaves unread; a
    manifest refuses overrides of them.
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
        if self.mode not in UNREAD_FIELDS:
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
    """Evaluate (theta_k, zeta_k, floor_k) at outer iteration k.

    floor_k = min(curvature_floor, a_k ||g||^alpha), with
    a_k = (k ln(k+1)^2)^alpha / 2, is the curvature threshold of the
    solution screen in :func:`_choose_direction`; it is the one place the
    threshold is formed. Assumes k >= 1 and a finite gnorm > 0, which
    :func:`solve` establishes before it calls; other arguments are not checked.
    """
    base = k * math.log(k + 1.0) ** 2
    floor_k = min(sp.curvature_floor, base ** sp.alpha / 2.0 * gnorm ** sp.alpha)
    if sp.mode == "coupled":
        # tol_cap < 1 <= gnorm**beta for gnorm >= 1, where a large beta overflows
        theta = sp.tol_cap if gnorm >= 1.0 else min(sp.tol_cap, gnorm ** sp.beta)
        return theta, sp.zeta_mult * theta, floor_k
    if sp.mode == "newton_mr":
        theta = min(sp.tol_cap, math.sqrt(gnorm))
    else:   # lbfgs_mr
        theta = min(sp.tol_cap, math.log(k + 1.0) * math.sqrt(k * gnorm))
    return theta, min(sp.shift_cap, base ** sp.zeta_exp * gnorm ** sp.zeta_exp), floor_k


@dataclass(frozen=True)
class SolverConfig:
    """Everything one run of :func:`solve` reads.

    ``max_inner`` and ``lbfgs_memory`` must be integers of at least 1. The
    schedule mode decides which fields are read (:data:`UNREAD_FIELDS`).
    """

    schedule: ScheduleParams = ScheduleParams()
    linesearch: LinesearchConfig = LinesearchConfig()
    max_inner: int = 1000
    grad_tol: float = 1e-10
    max_oracles: float = 1e5
    lbfgs_memory: int = 10               # read by schedule mode lbfgs_mr only
    check_invariants: bool = False       # assert model symmetry, direction contracts

    def __post_init__(self):
        check_positive_int(self.max_inner, "max_inner")
        if not (self.grad_tol >= 0.0 and self.max_oracles > 0.0):
            raise ValueError("grad_tol must be >= 0 and max_oracles > 0")
        check_positive_int(self.lbfgs_memory, "lbfgs_memory")


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


def _choose_direction(B, g, gnorm, theta, zeta, floor_k, cfg, *, oracles_left=math.inf):
    """``(flag, d, inner_iters, d_curv)`` from (B + zeta I) d = -g solved to ``theta``.

    MINRES stops after max(1, min(max_inner, floor(oracles_left / 2)))
    iterations, as each product weighs 2 oracle calls; :func:`solve` passes
    the budget left on the exact Hessian and ``math.inf``, the default,
    under L-BFGS, whose products are free, so that ``max_inner`` caps it.

    MINRES reports the curvature d'(B + zeta I)d of the shifted system. A
    certificate is NPC with d_curv = d'Bd, the shift's zeta ||d||^2 taken off;
    under L-BFGS it also needs |d'Bd| < npc_curvature_cap ||d||^2. A solution,
    or the iterate at the inner cap, is SOL when the shifted d'(B + zeta I)d >=
    ``floor_k`` times ||d||^2, or times max(||d||^2, ||g||^2) under L-BFGS, with
    ``floor_k`` from :func:`schedule_eval`. A failed screen gives GD (d = -g,
    d_curv = 0) with the inner iterations kept. ``B`` is None for a degenerate
    L-BFGS store, and that gives GD with no MINRES call and no inner
    iterations. The mode is read for the two L-BFGS screens only.
    """
    if B is None:
        return GD, -g, 0, 0.0
    lbfgs = cfg.schedule.mode == "lbfgs_mr"
    out = minres_npc(B, -g, theta, int(max(1, min(cfg.max_inner, oracles_left / 2))),
                     shift=zeta)
    d = out.direction
    d_sq = float(d @ d)
    if out.flag == NPC:
        d_curv = out.curvature - zeta * d_sq
        if not lbfgs or abs(d_curv) < cfg.schedule.npc_curvature_cap * d_sq:
            return NPC, d, out.inner_iters, d_curv
    elif out.curvature >= floor_k * (max(d_sq, gnorm * gnorm) if lbfgs else d_sq):
        return SOL, d, out.inner_iters, 0.0
    return GD, -g, out.inner_iters, 0.0


def solve(obj: Objective, x0, cfg: SolverConfig = SolverConfig()) -> RunTrace:
    """Minimize ``obj`` from ``x0``; returns the full run trace.

    Terminates CONVERGED when the gradient norm reaches ``grad_tol``,
    STAGNATED when a linesearch returns step 0 (no grid step of at least
    ``min_step`` passes) or accepts a step that leaves f and x bitwise
    unchanged, BUDGET when the oracle tally reaches ``max_oracles``, and
    DIVERGED when the objective or gradient stops being finite or the inner
    solve breaks down, as on a non-finite or overflowing Hessian-vector
    product. A direction with g'd >= 0, whatever its flag (SOL, NPC or GD),
    raises :class:`OptimizationError` naming the flag, the inner iterations
    and the model dimension. In exact arithmetic only a model operator that
    is not symmetric, such as a wrong Hessian-vector oracle, gives one, and
    on the exact Hessian the message says so; in floating point a long inner
    solve whose residual recurrence has lost r'b = ||r||^2 gives one too,
    and the message says that on every model. A refused input, such as an
    ``x0`` of the wrong size or a schedule mode that needs a Hessian-vector
    oracle on an objective without one, raises ValueError before any oracle
    call.

    So each linesearch is called on a descent direction, g'd < 0, and the
    curvature search also on d'Bd <= 0, the certificate's d'(B + zeta I)d
    less zeta ||d||^2; the searches assume both and do not test them.

    Each curvature search after the first starts at the grid exponent
    max(j, 0) of the previous accepted curvature step, j, so from the step
    ``initial_step`` or a smaller one of the same grid, and backtracks less;
    the first starts at exponent 0. The start is the third precondition
    ``solve`` establishes for the searches: an integer whose step
    ``initial_step * shrink**start`` lies in [``min_step``, ``max_step``],
    as an accepted step is at least ``min_step`` and a failed search ends
    the run.

    The budget is checked once per iteration, after the gradient. Every
    inner solve is capped at
    ``max(1, min(max_inner, floor(oracles_left / 2)))`` iterations. On the
    exact Hessian, oracles_left = ``max_oracles - oracles`` and each product
    is one Hessian-vector call of weight 2, so the solve ends less than 2
    past the budget; ``lbfgs_mr``'s products cost no oracle calls, so there
    oracles_left = inf and ``max_inner`` alone caps it. Then come at most L
    linesearch evaluations and one gradient, of weight 1 each, so a BUDGET
    run's ``oracles`` stays below ``max_oracles + L + 3``, where

        L = 1 + floor(log(min_step/initial_step) / log(shrink))
              + ceil(log(max_step/initial_step) / log(1/shrink))

    bounds the evaluations of one linesearch. The floor term is the largest
    grid exponent whose step is at least ``min_step``: backtracking stops
    there, and no warm start is larger, so a forward search from one reaches
    ``max_step`` within L evaluations. L = 94 under the default
    :class:`LinesearchConfig`.
    """
    x = as_vector(x0, "x0")
    if x.size != obj.dim:
        raise ValueError(f"x0 has size {x.size}, objective dimension is {obj.dim}")
    sp = cfg.schedule
    lbfgs = sp.mode == "lbfgs_mr"
    if not lbfgs and not obj.has_hvp:
        raise ValueError(f"schedule mode {sp.mode!r} needs a Hessian-vector "
                         "oracle; lbfgs_mr needs none")

    if cfg.check_invariants:
        from . import checks    # test-only instruments, not loaded otherwise

    ls = cfg.linesearch
    store = LbfgsStore(obj.dim, cfg.lbfgs_memory) if lbfgs else None

    t0 = time.perf_counter()
    records: list[IterateRecord] = []
    status = None
    npc_start = 0           # grid exponent of the next curvature search's first trial

    f_x = obj.f(x)
    g = obj.grad(x)
    gnorm = norm2(g)
    k = 0
    while True:
        k += 1
        if not (math.isfinite(f_x) and math.isfinite(gnorm)):
            status = DIVERGED
            break
        if gnorm <= cfg.grad_tol:
            status = CONVERGED
            break
        if obj.oracle_count >= cfg.max_oracles:
            status = BUDGET
            break

        theta, zeta, floor_k = schedule_eval(k, gnorm, sp)
        # the model B, without zeta*I: L-BFGS products cost no oracle calls,
        # exact ones one Hessian-vector call each, at x, which is rebound and
        # never written. A degenerate store has no model: B = None takes the
        # GD fallback
        apply = store.apply if store is not None else partial(obj.hvp, x)
        B = (None if store is not None and store.degenerate
             else SymmetricOperator(obj.dim, apply))
        if cfg.check_invariants and k == 1:
            checks.assert_symmetric(B, obj)
        try:
            flag, d, inner, d_curv = _choose_direction(
                B, g, gnorm, theta, zeta, floor_k, cfg,
                oracles_left=math.inf if lbfgs else cfg.max_oracles - obj.oracle_count)
        except NumericalBreakdown:
            status = DIVERGED
            break
        if cfg.check_invariants:
            checks.assert_direction_properties(flag, d, g, gnorm, theta, zeta, floor_k,
                                               B, obj)

        g_dot_d = float(g @ d)
        if g_dot_d >= 0.0:
            # in exact arithmetic a solution or certificate of a symmetric
            # model is a descent direction, -g always is, and the L-BFGS model
            # is symmetric by construction
            oracle = ("" if lbfgs else
                      "in exact arithmetic only a model operator that is not "
                      "symmetric gives one: check the Hessian-vector oracle, or run "
                      "with check_invariants=True to measure the symmetry defect; ")
            raise OptimizationError(
                f"{flag} direction is not a descent direction (g'd = {g_dot_d:.3e}) "
                f"after {inner} inner iterations on the {obj.dim}-dimensional model; "
                f"{oracle}in floating point a long inner solve whose residual "
                "recurrence lost r'b = ||r||^2 gives one")
        if flag == NPC:
            res = npc_linesearch(obj, x, d, g_dot_d, d_curv, f_x, ls, start=npc_start)
            npc_start = max(res.exponent, 0)
        else:
            res = armijo_backtrack(obj, x, d, g_dot_d, f_x, ls)

        x_new = x + res.step * d
        # no step passed, or the step rounded away: a rerun would repeat it.
        # x + 0*d is not x when d holds a NaN, hence the test of the step
        if res.step == 0.0 or (res.f_new == f_x and np.array_equal(x_new, x)):
            status = STAGNATED
            break
        x = x_new
        records.append(IterateRecord(
            k=k, f=f_x, gnorm=gnorm, flag=flag, step=res.step,
            inner_iters=inner, theta=theta, zeta=zeta,
            oracles=obj.oracle_count,
            time_ms=(time.perf_counter() - t0) * 1e3,
            capped=res.capped,
        ))
        f_x = res.f_new
        s = res.step * d if store is not None else None
        g_new = obj.grad(x)
        gnorm = norm2(g_new)
        if store is not None and math.isfinite(gnorm):
            # a non-finite gradient ends the run DIVERGED at the loop's head
            store.update(s, g_new - g)
        g = g_new

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
