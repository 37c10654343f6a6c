"""Outer loop: schedules, curvature screening, flag dispatch, termination."""
import dataclasses
import math

import numpy as np
import pytest

from minresls import checks, driver
from minresls.bench import builtin_config
from minresls.checks import InvariantViolation
from minresls.core import (
    NumericalBreakdown,
    Objective,
    OptimizationError,
    SymmetricOperator,
    ensure_operator,
)
from minresls.driver import (
    BUDGET,
    CONVERGED,
    DIVERGED,
    GD,
    STAGNATED,
    ScheduleParams,
    SolverConfig,
    schedule_eval,
    solve,
)
from minresls.hessians import LbfgsStore
from minresls.linesearch import LinesearchConfig, npc_linesearch
from minresls.minres import MAXITER, NPC, SOL, MinresOutcome, minres_npc
from minresls.problems import build_problem


def spec(name, **params):
    return build_problem(name, **params)


def spy_on_minres(monkeypatch):
    """Record the model operator of every ``minres_npc`` call the driver makes."""
    calls = []

    def spy(A, *args, **kwargs):
        calls.append(A)
        return minres_npc(A, *args, **kwargs)

    monkeypatch.setattr(driver, "minres_npc", spy)
    return calls


def record_fields(trace):
    """A run's records without the fields that depend on oracle work or time."""
    return [dataclasses.replace(r, oracles=0.0, time_ms=0.0) for r in trace.records]


def lowest_grid_exponent(ls):
    """The largest exponent j whose step initial_step * shrink^j is at least min_step."""
    return math.floor(math.log(ls.min_step / ls.initial_step) / math.log(ls.shrink))


def linesearch_eval_cap(ls):
    """L of solve's budget bound: the most evaluations one linesearch makes,
    backtracking from exponent 0 or walking forward from the lowest exponent."""
    forward = math.ceil(math.log(ls.max_step / ls.initial_step) / math.log(1.0 / ls.shrink))
    return 1 + lowest_grid_exponent(ls) + forward


class TestSchedule:
    def test_newton_tolerance_cap(self):
        sp = ScheduleParams()
        assert schedule_eval(1, 1.0, sp)[0] == 0.1
        assert schedule_eval(1, 4.0, sp)[0] == 0.1
        assert schedule_eval(1, 1e-4, sp)[0] == pytest.approx(0.01, rel=1e-14)

    def test_shift_cap(self):
        th, ze, _ = schedule_eval(2, 1.0, ScheduleParams())
        z2 = 2.0 * math.log(3.0) ** 2
        assert z2 == pytest.approx(2.414, abs=1e-3)
        assert ze == 1e-12          # cap binds long before z_k does

    def test_floor_sequence(self):
        # a curvature_floor this large leaves floor_k = a_k ||g||^alpha, here a_k
        sp = ScheduleParams(curvature_floor=1e8)
        _, _, a1 = schedule_eval(1, 1.0, sp)
        assert a1 == pytest.approx(math.log(2.0) ** 2 / 2.0, rel=1e-15)
        _, _, a3 = schedule_eval(3, 1.0, dataclasses.replace(sp, alpha=0.5))
        assert a3 == pytest.approx(math.sqrt(3.0 * math.log(4.0) ** 2) / 2.0, rel=1e-14)
        # at the default cap, curvature_floor binds
        assert schedule_eval(1, 1.0, ScheduleParams())[2] == 0.5e-12
        assert schedule_eval(3, 1.0, ScheduleParams(alpha=0.5))[2] == 0.5e-12

    def test_coupled_links_shift_to_tolerance(self):
        sp = ScheduleParams(mode="coupled", beta=2.0, zeta_mult=0.5)
        th, ze, _ = schedule_eval(1, 0.1, sp)
        assert th == pytest.approx(0.01, rel=1e-15)
        assert ze == pytest.approx(0.005, rel=1e-15)

    def test_coupled_tolerance_of_a_huge_exponent(self):
        # gnorm ** 1e300 overflows for gnorm > 1; there tol_cap < 1 <= gnorm ** beta
        sp = ScheduleParams(mode="coupled", beta=1e300)
        assert schedule_eval(1, 2.0, sp)[:2] == (0.1, 0.1)
        assert schedule_eval(1, 1.0, sp)[:2] == (0.1, 0.1)
        assert schedule_eval(1, 0.5, sp)[:2] == (0.0, 0.0)
        # the same bits as min(tol_cap, gnorm ** beta) wherever that is finite
        for beta in (0.5, 1.0, 2.0, 7.0):
            sp = ScheduleParams(mode="coupled", beta=beta, zeta_mult=0.3)
            for gnorm in (1e-9, 0.3, 0.99, 1.0, 1.5, 3.0, 1e6):
                theta = min(sp.tol_cap, gnorm ** beta)
                assert schedule_eval(4, gnorm, sp)[:2] == (theta, 0.3 * theta)

    def test_lbfgs_tolerance_loosens_with_k(self):
        sp = ScheduleParams(mode="lbfgs_mr")
        tiny = 1e-12
        th1 = schedule_eval(1, tiny, sp)[0]
        th9 = schedule_eval(9, tiny, sp)[0]
        assert th1 == pytest.approx(math.log(2.0) * math.sqrt(tiny), rel=1e-14)
        assert th9 > th1

    def test_validation(self):
        with pytest.raises(ValueError):
            ScheduleParams(mode="cubic")
        with pytest.raises(ValueError):
            ScheduleParams(tol_cap=1.0)
        with pytest.raises(ValueError):
            ScheduleParams(alpha=0.0)
        with pytest.raises(ValueError):
            ScheduleParams(curvature_floor=0.0)
        for field in ("shift_cap", "beta", "zeta_mult", "npc_curvature_cap"):
            for bad in (math.nan, 0.0, -1.0):
                with pytest.raises(ValueError, match=f"{field}.* must be positive"):
                    ScheduleParams(**{field: bad})
        for field in ("curvature_floor", "tol_cap", "alpha", "zeta_exp"):
            with pytest.raises(ValueError, match=field):
                ScheduleParams(**{field: math.nan})
        ScheduleParams(shift_cap=math.inf, npc_curvature_cap=math.inf)   # caps may be off


class TestCurvatureScreens:
    """The screens of the direction choice on forged inner-solver outcomes."""

    @staticmethod
    def choose(monkeypatch, flag, d, curvature, g, mode="newton_mr", zeta=0.0,
               floor_k=ScheduleParams().curvature_floor):
        """The choice when MINRES returns ``d`` with d'(B + zeta I)d =
        ``curvature``, at the curvature floor ``floor_k`` under the default
        schedule of ``mode``."""
        d, g = np.asarray(d, dtype=float), np.asarray(g, dtype=float)

        def forged(A, b, tol, max_inner, **kwargs):
            return MinresOutcome(flag, d, b.copy(), 1, curvature,
                                 float(np.linalg.norm(b)), 0.0)

        monkeypatch.setattr(driver, "minres_npc", forged)
        cfg = SolverConfig(schedule=ScheduleParams(mode=mode))
        gnorm = float(np.linalg.norm(g))
        B = SymmetricOperator(g.size, lambda v: v)
        return driver._choose_direction(B, g, gnorm, 0.1, zeta, floor_k, cfg)[0]

    def test_flat_curvature_fails(self, monkeypatch):
        assert self.choose(monkeypatch, SOL, [1.0, 0.0], 1.0, [1.0, 0.0]) == SOL
        assert self.choose(monkeypatch, SOL, [1.0, 0.0], 0.0, [1.0, 0.0]) == GD

    def test_tie_passes(self, monkeypatch):
        thresh = min(ScheduleParams().curvature_floor, 0.5 * 1.0)
        # ||d||^2 = 2 and ||g|| = 1: d'Bd exactly at the floor times ||d||^2
        assert self.choose(monkeypatch, SOL, [1.0, 1.0], thresh * 2.0, [1.0, 0.0],
                           floor_k=thresh) == SOL

    def test_lbfgs_measures_against_larger_of_d_and_g(self, monkeypatch):
        thresh = min(ScheduleParams().curvature_floor, 0.5)
        # passes against ||d||^2 = 0.25 alone but not against ||g||^2 = 1
        d, curvature, g = [0.5, 0.0], thresh * 0.5, [1.0, 0.0]
        assert self.choose(monkeypatch, SOL, d, curvature, g, floor_k=thresh) == SOL
        assert self.choose(monkeypatch, SOL, d, curvature, g, "lbfgs_mr",
                           floor_k=thresh) == GD

    def test_lbfgs_certificate_cap(self, monkeypatch):
        d, g = [1.0, 0.0], [1.0, 0.0]
        for mode, want in (("newton_mr", NPC), ("lbfgs_mr", GD)):
            assert self.choose(monkeypatch, NPC, d, 2e8, g, mode) == want
            assert self.choose(monkeypatch, NPC, d, -2e8, g, mode) == want
        assert self.choose(monkeypatch, NPC, d, 0.0, g, "lbfgs_mr") == NPC

    def test_shift_leaves_certificates_only(self, monkeypatch):
        # MINRES reports d'(B + zeta I)d. A certificate's screen takes
        # zeta ||d||^2 off; a solution's screen keeps it.
        d, g = [1.0, 0.0], [1.0, 0.0]
        # the shifted 0.5 clears the floor; the unshifted -0.5 would not
        assert self.choose(monkeypatch, SOL, d, 0.5, g, zeta=1.0) == SOL
        assert self.choose(monkeypatch, SOL, d, -0.5, g) == GD
        # unshifted, 1e8 - 0.5 lies inside the L-BFGS cap of 1e8; shifted,
        # 1e8 + 0.5 would not
        for zeta, want in ((1.0, NPC), (0.0, GD)):
            assert self.choose(monkeypatch, NPC, d, 1e8 + 0.5, g, "lbfgs_mr", zeta) == want


class TestSolverConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(max_inner=0)
        with pytest.raises(ValueError):
            SolverConfig(max_oracles=0.0)
        for field, bad in (("grad_tol", math.nan), ("grad_tol", -1.0),
                           ("max_oracles", math.nan), ("max_oracles", -1.0)):
            with pytest.raises(ValueError, match="grad_tol must be >= 0 and max_oracles > 0"):
                SolverConfig(**{field: bad})
        for bad in (0, -1):
            with pytest.raises(ValueError, match="lbfgs_memory must be at least 1"):
                SolverConfig(lbfgs_memory=bad)
        SolverConfig(grad_tol=math.inf, max_oracles=math.inf)   # inf stays allowed

    def test_max_inner_must_be_an_integer(self):
        with pytest.raises(ValueError, match="max_inner must be an integer, got 2.5"):
            SolverConfig(max_inner=2.5)
        obj = spec("quadratic", n=4).make_objective()
        trace = solve(obj, np.ones(4), SolverConfig(max_inner=np.int64(5)))
        assert trace.status == CONVERGED

    def test_lbfgs_memory_must_be_an_integer(self):
        # a float memory would otherwise be truncated by the store
        with pytest.raises(ValueError, match="lbfgs_memory must be an integer, got 2.5"):
            SolverConfig(lbfgs_memory=2.5)
        obj = spec("quadratic", n=4).make_objective()
        cfg = SolverConfig(schedule=ScheduleParams(mode="lbfgs_mr"), lbfgs_memory=np.int64(2))
        assert solve(obj, np.ones(4), cfg).status == CONVERGED


class TestUnreadFields:
    """A field that ``UNREAD_FIELDS`` lists for a mode changes no run of it."""

    PROBLEMS = (("quartic_saddle", 10), ("toy_sine", 20), ("rosenbrock", 10))
    # a value far from each field's default
    VALUES = {"schedule.beta": 3.0, "schedule.zeta_mult": 50.0,
              "schedule.npc_curvature_cap": 1e-9, "lbfgs_memory": 2,
              "schedule.shift_cap": 1e-3, "schedule.zeta_exp": 0.5}

    @staticmethod
    def with_field(cfg, key, value):
        block, _, name = key.rpartition(".")
        if not block:
            return dataclasses.replace(cfg, **{name: value})
        inner = dataclasses.replace(getattr(cfg, block), **{name: value})
        return dataclasses.replace(cfg, **{block: inner})

    @classmethod
    def runs(cls, cfg):
        """Status, records without ``time_ms`` and ``x_final`` bytes of each problem."""
        out = []
        for name, n in cls.PROBLEMS:
            problem = spec(name, n=n)
            trace = solve(problem.make_objective(),
                          problem.start(np.random.default_rng(3)), cfg)
            out.append((trace.status,
                        [dataclasses.replace(r, time_ms=0.0) for r in trace.records],
                        trace.x_final.tobytes()))
        return out

    @pytest.mark.parametrize("mode, key", [(mode, key) for mode, keys in
                                           driver.UNREAD_FIELDS.items() for key in keys])
    def test_unread_field_leaves_every_run_unchanged(self, mode, key):
        cfg = builtin_config(mode)
        assert self.runs(self.with_field(cfg, key, self.VALUES[key])) == self.runs(cfg)

    @pytest.mark.parametrize("mode", list(driver.UNREAD_FIELDS))
    def test_a_read_field_changes_every_run(self, mode):
        # the control: the same comparison sees a field the mode reads
        cfg = builtin_config(mode)
        changed = self.runs(self.with_field(cfg, "schedule.tol_cap", 0.5))
        assert all(a != b for a, b in zip(changed, self.runs(cfg)))


class TestChooseDirection:
    """Every outcome of the direction choice, on small dense models."""

    @staticmethod
    def choose(B, g, mode="newton_mr", **cfg_fields):
        cfg = SolverConfig(schedule=ScheduleParams(mode=mode), **cfg_fields)
        gnorm = float(np.linalg.norm(g))
        return driver._choose_direction(ensure_operator(B), g, gnorm,
                                        *schedule_eval(1, gnorm, cfg.schedule), cfg)

    def test_violent_certificate_is_npc_exact_and_gd_lbfgs(self):
        # a certificate at t = 1 with |d'Bd| / ||d||^2 about 5e8, above the
        # L-BFGS certificate cap of 1e8
        B, g = np.diag([1.0, -1e9]), np.ones(2)
        flag, d, inner, d_curv = self.choose(B, g)
        assert (flag, inner) == (NPC, 1)
        assert d_curv / float(d @ d) == pytest.approx((1.0 - 1e9) / 2.0, rel=1e-12)
        flag, d, inner, d_curv = self.choose(B, g, "lbfgs_mr")
        assert (flag, inner, d_curv) == (GD, 1, 0.0)
        assert np.array_equal(d, -g)

    def test_stiff_solution_is_sol_exact_and_gd_lbfgs(self):
        # p'Bp = 1e-13 ||g||^2 clears the floor against ||p||^2 (exact) and
        # fails it against ||g||^2 (L-BFGS)
        B, g = 1e13 * np.eye(2), np.ones(2)
        flag, d, inner, d_curv = self.choose(B, g)
        assert (flag, inner, d_curv) == (SOL, 1, 0.0)
        assert np.allclose(d, -g / 1e13, rtol=1e-14)
        flag, d, inner, _ = self.choose(B, g, "lbfgs_mr")
        assert (flag, inner) == (GD, 1)
        assert np.array_equal(d, -g)

    @pytest.mark.parametrize("mode", ["newton_mr", "lbfgs_mr"])
    def test_inner_cap_is_flagged_sol(self, mode):
        B, g = np.diag([1.0, 2.0, 3.0, 10.0]), np.ones(4)
        assert minres_npc(B, -g, 0.1, 1).flag == MAXITER
        flag, d, inner, _ = self.choose(B, g, mode, max_inner=1)
        assert (flag, inner) == (SOL, 1)
        assert np.allclose(d, minres_npc(B, -g, 0.1, 1).direction, rtol=1e-10)

    def test_degenerate_model_is_gd_without_inner_iterations(self, monkeypatch):
        # solve passes no model, B = None, for a degenerate L-BFGS store
        calls = spy_on_minres(monkeypatch)
        cfg = SolverConfig(schedule=ScheduleParams(mode="lbfgs_mr"))
        g = np.array([1.0, -2.0])
        gnorm = float(np.linalg.norm(g))
        flag, d, inner, d_curv = driver._choose_direction(
            None, g, gnorm, *schedule_eval(1, gnorm, cfg.schedule), cfg)
        assert (flag, inner, d_curv) == (GD, 0, 0.0)
        assert np.array_equal(d, -g)
        assert calls == []

    def test_breakdown_propagates(self):
        with pytest.raises(NumericalBreakdown):
            self.choose(np.full((2, 2), np.nan), np.ones(2))


class TestSolveBasics:
    def test_quadratic_three_iterations(self):
        obj = spec("quadratic", n=10).make_objective()
        trace = solve(obj, np.ones(10))
        assert trace.status == CONVERGED
        assert trace.iters <= 3
        assert trace.gnorm_final <= 1e-10
        assert np.linalg.norm(trace.x_final) <= 1e-10

    def test_stationary_start_returns_immediately(self):
        obj = spec("quartic_saddle", n=5).make_objective()
        trace = solve(obj, np.zeros(5))
        assert trace.status == CONVERGED
        assert trace.iters == 0 and trace.records == []
        assert np.array_equal(trace.x_final, np.zeros(5))

    def test_perturbed_saddle_escapes(self):
        problem = spec("quartic_saddle", n=5)
        x0 = problem.start(np.random.default_rng(77))
        obj = problem.make_objective()
        trace = solve(obj, x0, SolverConfig(check_invariants=True))
        assert trace.status == CONVERGED
        assert trace.f_final == pytest.approx(problem.f_opt, abs=1e-8)
        assert any(r.flag == NPC for r in trace.records)

    def test_monotone_descent(self):
        obj = spec("rosenbrock", n=10).make_objective()
        trace = solve(obj, np.full(10, 0.2))
        assert trace.status == CONVERGED
        fs = [r.f for r in trace.records] + [trace.f_final]
        assert all(b <= a for a, b in zip(fs, fs[1:]))

    def test_record_bookkeeping(self):
        obj = spec("quadratic", n=6).make_objective()
        trace = solve(obj, np.ones(6))
        assert [r.k for r in trace.records] == list(range(1, trace.iters + 1))
        oracle_path = [r.oracles for r in trace.records]
        assert all(b >= a for a, b in zip(oracle_path, oracle_path[1:]))
        assert trace.oracles == obj.oracle_count
        assert trace.records[0].f == 3.0      # f at the start point, 0.5 * 6

    def test_x0_validation(self):
        obj = spec("quadratic", n=4).make_objective()
        with pytest.raises(ValueError, match="size"):
            solve(obj, np.ones(3))

    def test_exact_mode_needs_hvp(self):
        # the schedule mode picks the model: only lbfgs_mr runs without an HVP
        obj = Objective(2, lambda x: 0.5 * float(x @ x), lambda x: x.copy())
        for mode in ("newton_mr", "coupled"):
            with pytest.raises(ValueError, match=f"schedule mode '{mode}' needs"):
                solve(obj, np.ones(2), SolverConfig(schedule=ScheduleParams(mode=mode)))
        lbfgs = SolverConfig(schedule=ScheduleParams(mode="lbfgs_mr"))
        assert solve(obj, np.ones(2), lbfgs).status == CONVERGED

    @pytest.mark.parametrize("check_invariants", [False, True])
    def test_hessian_map_is_built_once_per_point(self, check_invariants):
        # every newton_mr iteration runs MINRES at its own point: one hess
        # call there, however many products, and hvp_calls counts each one
        problem = spec("rosenbrock", n=30)
        x0 = problem.start(np.random.default_rng(4))
        points = []

        def counting_hess(x):
            points.append(x)
            return problem._hess(x)

        cfg = SolverConfig(check_invariants=check_invariants)
        obj = Objective(problem.dim, problem._f, problem._grad, counting_hess)
        trace = solve(obj, x0, cfg)
        reference = solve(problem.make_objective(), x0, cfg)
        assert trace.status == CONVERGED
        assert record_fields(trace) == record_fields(reference)
        assert len(points) == trace.iters
        assert len({id(x) for x in points}) == trace.iters
        assert obj.hvp_calls == sum(r.inner_iters for r in trace.records) > trace.iters

    @pytest.mark.parametrize("x0", [np.full(5, 0.3), np.zeros(5)],
                             ids=["steps", "stationary"])
    def test_x0_is_copied_and_every_iterate_is_read_only(self, x0):
        kept = x0.copy()
        trace = solve(spec("quartic_saddle", n=5).make_objective(), x0)
        assert trace.status == CONVERGED
        assert x0.flags.writeable and np.array_equal(x0, kept)
        x = trace.x_final
        assert not x.flags.writeable and x.flags.owndata
        assert not np.shares_memory(x, x0)
        with pytest.raises(ValueError, match="read-only"):
            x[0] = 1.0


class TestTerminationStatuses:
    def test_budget(self):
        obj = spec("rosenbrock", n=10).make_objective()
        trace = solve(obj, np.zeros(10), SolverConfig(max_oracles=2.5))
        assert trace.status == BUDGET
        assert trace.iters == 1
        # overshoot is bounded by one iteration's work
        assert trace.oracles <= 2.5 + trace.records[0].oracles

    def test_budget_overshoot_bound(self):
        # the bound stated in solve's docstring, over a sweep of budgets
        assert linesearch_eval_cap(LinesearchConfig()) == 94
        ls = LinesearchConfig(min_step=2.0 ** -10, max_step=8.0)
        max_evals = linesearch_eval_cap(ls)
        assert max_evals == 14
        problem = spec("rosenbrock", n=20)
        x0 = problem.start(np.random.default_rng(4))
        for max_oracles in range(5, 400, 9):
            obj = problem.make_objective()
            cfg = SolverConfig(linesearch=ls, max_inner=6, max_oracles=max_oracles)
            trace = solve(obj, x0, cfg)
            assert trace.status == BUDGET, max_oracles
            bound = max_oracles + max_evals + 3
            assert max_oracles <= trace.oracles < bound, (max_oracles, trace.oracles)

    def test_inner_solve_stops_at_the_budget(self):
        # an ill-conditioned quadratic whose inner solves grow to hundreds of
        # Hessian-vector products, so an inner solve that ignored the budget
        # would end far past the bound
        problem = spec("quadratic", spectrum=np.geomspace(1.0, 1e6, 500))
        x0 = problem.start(np.random.default_rng(0))
        cfg = dataclasses.replace(builtin_config("newton_mr"), max_oracles=1e3)
        trace = solve(problem.make_objective(), x0, cfg)
        assert trace.status == BUDGET
        bound = cfg.max_oracles + linesearch_eval_cap(cfg.linesearch) + 3
        assert cfg.max_oracles <= trace.oracles < bound, trace.oracles

    def test_warm_started_search_reaches_the_bound(self):
        # a curvature search warm-started at the lowest grid exponent (59:
        # 2^-59 >= 1e-18 > 2^-60) on a descending ray walks forward to
        # max_step: past the 60 evaluations of a search backtracking from
        # exponent 0, and exactly onto L
        ls = LinesearchConfig()
        obj = Objective(1, lambda x: -x[0], lambda x: -np.ones(1))
        assert lowest_grid_exponent(ls) == 59
        res = npc_linesearch(obj, np.zeros(1), np.ones(1), -1.0, 0.0, 0.0, ls,
                             start=59)
        assert res.capped and res.step == ls.max_step
        assert 60 < res.n_evals == linesearch_eval_cap(ls)

    def test_stagnated_on_false_descent_claim(self):
        # gradient oracle promises descent that the (constant) function
        # never delivers; with f = 0 the rounding pad is zero as well
        obj = Objective(2, lambda x: 0.0, lambda x: np.ones(2),
                        lambda x: lambda v: v.copy())
        trace = solve(obj, np.zeros(2))
        assert trace.status == STAGNATED
        assert trace.iters == 0

    @pytest.mark.parametrize("name, n, iters", [("toy_sine", 100, 21), ("rosenbrock", 50, 247)])
    def test_stagnated_at_the_first_step_that_leaves_x_unchanged(self, monkeypatch, name, n,
                                                                  iters):
        # at grad_tol=0 these runs reach accepted Armijo steps that round away
        # (x + lambda d == x), which would repeat until the budget is spent
        problem = spec(name, n=n)
        x0 = problem.start(np.random.default_rng(3))
        cfg = SolverConfig(schedule=ScheduleParams(mode="lbfgs_mr"), grad_tol=0.0,
                           max_oracles=2e4)
        steps = []      # (x, step, d) of every accepted step
        armijo = driver.armijo_backtrack

        def spy(obj, x, d, *args):
            res = armijo(obj, x, d, *args)
            steps.append((x, res.step, d))
            return res

        monkeypatch.setattr(driver, "armijo_backtrack", spy)
        trace = solve(problem.make_objective(), x0, cfg)
        assert trace.status == STAGNATED
        assert trace.iters == iters and trace.oracles < 1000
        unchanged = [np.array_equal(x + step * d, x) for x, step, d in steps]
        assert unchanged == [False] * iters + [True]
        assert np.array_equal(trace.x_final, steps[-1][0])

    def test_diverged_on_nonfinite_gradient(self):
        calls = [0]
        def grad(x):
            calls[0] += 1
            return x.copy() if calls[0] == 1 else np.full(2, np.nan)
        obj = Objective(2, lambda x: 0.5 * float(x @ x), grad,
                        lambda x: lambda v: v.copy())
        trace = solve(obj, np.array([3.0, 4.0]))
        assert trace.status == DIVERGED
        assert trace.iters == 1                     # last valid record kept
        assert math.isfinite(trace.records[0].f)

    def test_diverged_on_nonfinite_f0(self):
        obj = Objective(1, lambda x: float(np.nan), lambda x: np.ones(1),
                        lambda x: lambda v: v.copy())
        trace = solve(obj, np.ones(1))
        assert trace.status == DIVERGED
        assert trace.records == []

    def test_inner_breakdown_is_divergence(self):
        # Hessian oracle emits NaN: the Lanczos recurrence cannot continue
        obj = Objective(2, lambda x: 0.5 * float(x @ x), lambda x: x.copy(),
                        lambda x: lambda v: np.full(2, np.nan))
        trace = solve(obj, np.ones(2))
        assert trace.status == DIVERGED

    @pytest.mark.parametrize("product", [
        pytest.param(lambda v: np.full(v.size, np.inf), id="+inf"),
        pytest.param(lambda v: np.full(v.size, -np.inf), id="-inf"),
        pytest.param(lambda v: np.where(v == 0.0, np.inf, v), id="inf-where-v-is-0"),
        pytest.param(lambda v: np.full(v.size, 1e308), id="1e308"),
    ])
    def test_nonfinite_hvp_is_divergence_without_a_warning(self, product):
        obj = Objective(3, lambda x: 0.5 * float(x @ x), lambda x: x.copy(),
                        lambda x: lambda v: product(v))
        trace = solve(obj, np.array([0.0, 1.0, -2.0]))
        assert (trace.status, trace.iters) == (DIVERGED, 0)

    @pytest.mark.parametrize("mode", ["newton_mr", "lbfgs_mr"])
    @pytest.mark.parametrize("finite_grads", [0, 1], ids=["at-x0", "after-a-step"])
    def test_overflowing_gradient_norm_is_divergence_without_a_warning(self, mode,
                                                                       finite_grads):
        # every entry is finite, but g'g overflows past ||g|| of about 1.34e154
        calls = [0]
        def grad(x):
            calls[0] += 1
            return 2.0 * x if calls[0] <= finite_grads else np.full(2, 1e200)
        obj = Objective(2, lambda x: float(x @ x), grad, lambda x: lambda v: 2.0 * v)
        trace = solve(obj, np.ones(2), SolverConfig(schedule=ScheduleParams(mode=mode)))
        assert (trace.status, trace.iters) == (DIVERGED, finite_grads)
        assert trace.gnorm_final == math.inf


class TestDirectionDispatch:
    def test_gd_fallback_on_degenerate_model(self, monkeypatch):
        class DegenerateStore(LbfgsStore):
            # degenerate from the start; the store's own updates cannot clear it
            degenerate = property(lambda self: True, lambda self, value: None)

        monkeypatch.setattr(driver, "LbfgsStore", DegenerateStore)
        calls = spy_on_minres(monkeypatch)
        obj = spec("quadratic", n=4).make_objective()
        trace = solve(obj, np.ones(4), SolverConfig(schedule=ScheduleParams(mode="lbfgs_mr")))
        assert trace.status == CONVERGED
        assert all(r.flag == GD for r in trace.records)
        assert all(r.inner_iters == 0 for r in trace.records)
        assert calls == []

    def test_basic_screen_demotes_flat_directions(self):
        # raise the curvature floor so the threshold tracks a_k ||g||: the
        # Rayleigh quotient of the returned direction (about 1 here) cannot
        # clear it while the gradient is large, so every step demotes to GD
        sp = ScheduleParams(curvature_floor=1e8)
        obj = spec("quadratic", spectrum=(1e-8, 1.0)).make_objective()
        cfg = SolverConfig(schedule=sp, max_oracles=30)
        trace = solve(obj, np.full(2, 100.0), cfg)
        assert trace.status == BUDGET
        assert trace.records
        assert all(r.flag == GD for r in trace.records)

    def test_npc_steps_on_saddle_problem(self):
        problem = spec("quartic_saddle", n=4)
        obj = problem.make_objective()
        x0 = problem.start(np.random.default_rng(5))
        trace = solve(obj, x0, SolverConfig(check_invariants=True))
        assert trace.status == CONVERGED
        npc_records = [r for r in trace.records if r.flag == NPC]
        assert npc_records
        # near the saddle the curvature search should push past unit steps
        assert any(r.step > 1.0 for r in npc_records)

    @pytest.mark.parametrize("name, params, seed", [
        ("rosenbrock", {"n": 50}, 7),               # steps of 2^-10 to 2^-3
        ("quartic_saddle", {"spectrum": (1.0, -1.0, -0.5, 1.0)}, 0),   # 1024, then 2
    ])
    def test_curvature_search_is_warm_started(self, monkeypatch, name, params, seed):
        # each curvature search after the first starts at the previous
        # accepted exponent, raised to 0; the steps are the same as with
        # every search started at exponent 0, in fewer evaluations when a
        # search starts lower
        problem = spec(name, **params)
        x0 = problem.start(np.random.default_rng(seed))
        cfg = builtin_config("newton_mr")
        searches = []

        def recorded(*args, start):
            res = npc_linesearch(*args, start=start)
            searches.append((start, res.exponent))
            return res

        monkeypatch.setattr(driver, "npc_linesearch", recorded)
        warm = solve(problem.make_objective(), x0, cfg)
        cold = self.cold_solve(problem, x0, cfg)

        starts = [start for start, _ in searches]
        assert len(starts) > 1
        assert starts == [0] + [max(j, 0) for _, j in searches[:-1]]
        # solve owns the start's precondition, which the search assumes
        ls = cfg.linesearch
        assert all(type(start) is int
                   and ls.min_step <= ls.initial_step * ls.shrink ** start <= ls.max_step
                   for start in starts)
        assert record_fields(warm) == record_fields(cold)
        assert np.array_equal(warm.x_final, cold.x_final)
        assert (warm.oracles < cold.oracles) == (max(starts) > 0)

    @staticmethod
    def cold_solve(problem, x0, cfg):
        """``solve`` with every curvature search started at exponent 0."""
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(driver, "npc_linesearch", lambda *args, start: npc_linesearch(*args))
            return solve(problem.make_objective(), x0, cfg)

    @pytest.mark.parametrize("shrink", [0.7, 0.1])
    def test_warm_start_keeps_the_steps_at_any_shrink(self, shrink):
        # the warm start tries points of the cold search's grid also when
        # shrink is not a power of two, so every step stays the same
        problem = spec("rosenbrock", n=50)
        cfg = dataclasses.replace(builtin_config("newton_mr"),
                                  linesearch=LinesearchConfig(shrink=shrink))
        for seed in range(5):
            x0 = problem.start(np.random.default_rng(seed))
            warm = solve(problem.make_objective(), x0, cfg)
            cold = self.cold_solve(problem, x0, cfg)
            assert any(r.flag == NPC for r in warm.records), seed
            assert record_fields(warm) == record_fields(cold), seed

    def test_lbfgs_inner_iterations_bounded_by_memory(self):
        memory = 10
        obj = spec("rosenbrock", n=20).make_objective()
        cfg = SolverConfig(schedule=ScheduleParams(mode="lbfgs_mr"), lbfgs_memory=memory,
                           max_oracles=1e5, grad_tol=1e-9)
        trace = solve(obj, np.full(20, 0.5), cfg)
        assert trace.status == CONVERGED
        # B has identity-plus-rank-2m structure: Krylov spaces stop growing
        assert max(r.inner_iters for r in trace.records) <= 2 * memory + 2

    @pytest.mark.parametrize("name, params, config", [
        ("quartic_saddle", {"n": 10}, "newton_mr"),
        ("rosenbrock", {"n": 20}, "lbfgs_mr"),
    ])
    def test_one_operator_call_per_inner_iteration(self, monkeypatch, name, params,
                                                   config):
        # the model operator is B_k alone; MINRES adds zeta_k I itself
        calls = []
        original = SymmetricOperator.__call__

        def counted(op, v):
            calls.append(1)
            return original(op, v)

        monkeypatch.setattr(SymmetricOperator, "__call__", counted)
        problem = spec(name, **params)
        x0 = problem.start(np.random.default_rng(7))
        trace = solve(problem.make_objective(), x0, builtin_config(config))
        assert trace.status == CONVERGED
        # a degenerate L-BFGS fallback would record 0 inner iterations
        assert all(r.inner_iters > 0 for r in trace.records)
        assert len(calls) == sum(r.inner_iters for r in trace.records)

    def test_invariants_hold_across_modes(self):
        for name, kwargs, mode in [
            ("toy_sine", {"n": 8}, "newton_mr"),
            ("rosenbrock", {"n": 8}, "newton_mr"),
            ("toy_sine", {"n": 8}, "lbfgs_mr"),
        ]:
            problem = spec(name, **kwargs)
            obj = problem.make_objective()
            x0 = problem.start(np.random.default_rng(3))
            cfg = SolverConfig(schedule=ScheduleParams(mode=mode),
                               check_invariants=True, max_oracles=1e5)
            trace = solve(obj, x0, cfg)
            assert trace.status in (CONVERGED, BUDGET), (name, mode)

    def test_gd_invariant_is_the_negative_gradient(self):
        # the GD branch reads only d and g; the golden GD runs take it on -g
        g = np.array([1.0, -2.0])
        args = (1.0, 0.1, 0.0, ScheduleParams().curvature_floor, None, None)
        checks.assert_direction_properties(GD, -g, g, *args)
        with pytest.raises(InvariantViolation, match="not the negative gradient"):
            checks.assert_direction_properties(GD, -0.5 * g, g, *args)

    # the model diag(2, -1) at g = e1, theta = 0.1, zeta = 0 and floor_k = 1/4:
    # a certificate needs -g'd > 0.1, ||d|| = 1 and d'Bd <= 0; a solution
    # needs ||d|| <= ||g|| / floor_k = 4 and, with ||B|| = 2 so c_k = 1/6,
    # -g'd > c_k floor_k ||g||^2 = 1/24
    @pytest.mark.parametrize("flag, d, broken", [
        (NPC, [-0.4, math.sqrt(0.84)], None),
        (NPC, [0.0, 1.0], "certificate direction lost its descent margin"),
        (NPC, [-0.5, -2.0], "certificate direction norm drifted"),
        (NPC, [-1.0, 0.0], "certificate direction has positive model curvature"),
        (SOL, [-3.9, 0.0], None),
        (SOL, [-4.1, 0.0], "solution-path direction norm exceeds its bound"),
        (SOL, [-0.05, 0.5], None),
        (SOL, [-0.04, 0.5], "solution-path direction lost its descent margin"),
    ], ids=["npc-holds", "npc-margin", "npc-norm", "npc-curvature",
            "sol-holds-long", "sol-norm", "sol-holds-short", "sol-margin"])
    def test_each_direction_contract_fires(self, flag, d, broken):
        A = np.diag([2.0, -1.0])
        obj = Objective(2, lambda x: 0.5 * float(x @ A @ x), lambda x: A @ x,
                        lambda x: lambda v: A @ v)
        B = SymmetricOperator(2, lambda v: obj.hvp(np.zeros(2), v))
        g = np.array([1.0, 0.0])
        args = (flag, np.array(d), g, 1.0, 0.1, 0.0, 0.25, B, obj)
        if broken is None:
            checks.assert_direction_properties(*args)
        else:
            with pytest.raises(InvariantViolation, match=broken):
                checks.assert_direction_properties(*args)
        assert obj.oracle_count == 0.0

    def test_invariant_checks_do_not_bill_oracles(self):
        problem = spec("toy_sine", n=6)
        x0 = problem.start(np.random.default_rng(1))
        plain = solve(problem.make_objective(), x0, SolverConfig())
        checked = solve(problem.make_objective(), x0,
                        SolverConfig(check_invariants=True))
        assert plain.oracles == checked.oracles
        assert plain.f_final == checked.f_final

    @staticmethod
    def skewed_quadratic(n=6):
        A = np.diag(np.arange(1.0, n + 1.0))
        skewed = A + np.triu(np.ones((n, n)), 1)      # a wrong Hessian oracle
        return Objective(n, lambda x: 0.5 * float(x @ A @ x), lambda x: A @ x,
                         lambda x: lambda v: skewed @ v)

    def test_nonsymmetric_hvp_is_named(self):
        obj = self.skewed_quadratic()
        with pytest.raises(InvariantViolation, match="not symmetric"):
            solve(obj, np.ones(6), SolverConfig(check_invariants=True))
        assert obj.oracle_count == 2.0      # f and grad at x0; the check is free

    def test_nonsymmetric_hvp_is_named_without_checks(self):
        # the certificate of a nonsymmetric model need not be a descent
        # direction; solve says so before the curvature search rejects it
        obj = self.skewed_quadratic()
        with pytest.raises(OptimizationError, match=r"not symmetric.*"
                           r"Hessian-vector oracle.*check_invariants=True"):
            solve(obj, np.ones(6), SolverConfig())

    @staticmethod
    def forced_certificate(monkeypatch, direction, flag=NPC):
        """Make every inner solve return ``direction(b)`` as an NPC certificate,
        or as a SOL solution of curvature 1 that passes the screen."""
        curvature = -1.0 if flag == NPC else 1.0
        def fake(A, b, tol, max_inner, **kwargs):
            return MinresOutcome(flag, direction(b), b.copy(), 1, curvature,
                                 float(np.linalg.norm(b)), 1.0)

        monkeypatch.setattr(driver, "minres_npc", fake)

    def test_ascent_solution_is_named_before_the_linesearch(self, monkeypatch):
        # d = +g: solve raises for every flag, not only for certificates
        self.forced_certificate(monkeypatch, lambda b: -b, flag=SOL)
        obj = spec("quadratic", n=4).make_objective()
        with pytest.raises(OptimizationError, match="SOL direction is not a descent "
                                                    "direction.*not symmetric"):
            solve(obj, np.ones(4), SolverConfig())
        assert obj.f_calls == 1         # at x0: no linesearch trial ran

    def test_ascent_certificate_of_lbfgs_model_names_no_asymmetry(self, monkeypatch):
        # the L-BFGS model is symmetric by construction
        self.forced_certificate(monkeypatch, lambda b: -b)
        obj = spec("quadratic", n=4).make_objective()
        with pytest.raises(OptimizationError, match="not a descent direction") as err:
            solve(obj, np.ones(4), SolverConfig(schedule=ScheduleParams(mode="lbfgs_mr")))
        assert "symmetric" not in str(err.value)

    def test_nan_certificate_reaches_the_curvature_search(self, monkeypatch):
        # g'd = NaN is not g'd >= 0: the curvature search rejects every step
        self.forced_certificate(monkeypatch, lambda b: np.full(b.size, np.nan))
        obj = spec("quadratic", n=4).make_objective()
        trace = solve(obj, np.ones(4), SolverConfig())
        assert trace.status == STAGNATED

    def test_identity_hvp_returning_its_argument(self):
        # an oracle may return its input, or a read-only array: MINRES adds
        # zeta_k > 0 into its own vector, so the run matches the one whose
        # oracle returns a fresh copy
        problem = spec("quartic_saddle", n=10)
        x0 = problem.start(np.random.default_rng(2))

        def run(hess):
            obj = Objective(problem.dim, problem._f, problem._grad, hess)
            return solve(obj, x0, SolverConfig(max_oracles=400))

        def read_only(v):
            out = v.copy()
            out.flags.writeable = False
            return out

        def untimed(records):
            return [dataclasses.replace(r, time_ms=0.0) for r in records]

        reference = run(lambda x: lambda v: v.copy())
        assert reference.records and all(r.zeta > 0.0 for r in reference.records)
        for hess in (lambda x: lambda v: v, lambda x: lambda v: v[:], lambda x: read_only):
            trace = run(hess)
            assert trace.status == reference.status
            assert untimed(trace.records) == untimed(reference.records)
            assert np.array_equal(trace.x_final, reference.x_final)

    def test_hvp_may_return_a_buffer_it_keeps(self):
        # one persistent buffer, refilled and returned by every product: it
        # still holds exactly H v when the next product starts, so nothing
        # downstream wrote into it, and the run is that of a fresh-array hvp
        problem = spec("quartic_saddle", n=10)
        x0 = problem.start(np.random.default_rng(2))
        buf = np.empty(problem.dim)
        products, intact = [], []

        def kept_buffer(x):
            product = problem._hess(x)

            def refill(v):
                if products:
                    intact.append(np.array_equal(buf, products[-1]))
                buf[:] = product(v)
                products.append(buf.copy())
                return buf
            return refill

        def run(hess):
            obj = Objective(problem.dim, problem._f, problem._grad, hess)
            return solve(obj, x0, builtin_config("newton_mr"))

        def untimed(records):
            return [dataclasses.replace(r, time_ms=0.0) for r in records]

        reference = run(problem._hess)
        trace = run(kept_buffer)
        intact.append(np.array_equal(buf, products[-1]))
        assert reference.status == CONVERGED
        assert reference.records and all(r.zeta > 0.0 for r in reference.records)
        assert len(intact) == sum(r.inner_iters for r in trace.records)
        assert all(intact)
        assert trace.status == reference.status
        assert untimed(trace.records) == untimed(reference.records)
        assert np.array_equal(trace.x_final, reference.x_final)
