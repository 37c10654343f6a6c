"""Backtracking and curvature-aware step searches against grid references."""
import numpy as np
import pytest

from minresls.core import Objective
from minresls.linesearch import (
    LinesearchConfig,
    armijo_backtrack,
    npc_linesearch,
)
from minresls.reference import backtrack_reference, forward_grid_reference


def quad_obj():
    # f(x) = 0.5 ||x||^2
    return Objective(2, lambda x: 0.5 * float(x @ x), lambda x: x.copy(),
                     lambda x: lambda v: v.copy())


class TestOneGrid:
    # every trial step of either search is min(initial_step * shrink^j,
    # max_step) for an integer j, also when shrink is not a power of two
    cfg = LinesearchConfig(shrink=0.7, min_step=1e-3, max_step=3.0)

    @staticmethod
    def ray(value):
        """Objective of constant slope ``value`` along x[0], and its trial steps."""
        trials = []
        def f(x):
            trials.append(float(x[0]))
            return value * float(x[0])
        return Objective(1, f, lambda x: np.full(1, value)), trials

    def grid(self, exponents):
        return [min(self.cfg.initial_step * self.cfg.shrink ** j, self.cfg.max_step)
                for j in exponents]

    def test_backtracking_walks_down_the_grid(self):
        # f = 0 never decreases: 0.7^19 > 1e-3 > 0.7^20
        # and finds no step: step 0 at f(x), every trial counted
        obj, trials = self.ray(0.0)
        res = armijo_backtrack(obj, np.zeros(1), np.ones(1), -1.0, 0.0, self.cfg)
        assert trials == self.grid(range(20))
        assert (res.step, res.f_new, res.n_evals) == (0.0, 0.0, 20)
        trials.clear()
        res = npc_linesearch(obj, np.zeros(1), np.ones(1), -1.0, 0.0, 0.0, self.cfg,
                             start=3)
        assert trials == self.grid(range(3, 20))
        assert (res.step, res.f_new, res.n_evals) == (0.0, 0.0, 17)

    def test_forward_walk_climbs_the_same_grid(self):
        # f decreases without bound: 0.7^-3 < 3 < 0.7^-4
        obj, trials = self.ray(-1.0)
        res = npc_linesearch(obj, np.zeros(1), np.ones(1), -1.0, 0.0, 0.0, self.cfg,
                             start=5)
        assert trials == self.grid(range(5, -5, -1))
        assert res.capped and res.step == 3.0 and res.exponent == -4


class TestArmijo:
    def test_full_step_one_eval(self):
        obj = quad_obj()
        x = np.array([1.0, 0.0])
        d = np.array([-1.0, 0.0])
        res = armijo_backtrack(obj, x, d, -1.0, obj.f(x))
        assert res.step == 1.0
        assert res.n_evals == 1
        assert res.f_new == 0.0

    def test_halves_once(self):
        # steep direction: lam = 1 overshoots badly, lam = 0.5 passes
        obj = quad_obj()
        x = np.array([1.0, 0.0])
        d = np.array([-3.0, 0.0])
        f_x = obj.f(x)
        res = armijo_backtrack(obj, x, d, -3.0, f_x)
        assert res.step == 0.5
        assert res.n_evals == 2
        assert res.exponent == 1

    def test_matches_grid_reference(self):
        rng = np.random.default_rng(8)
        A = np.diag(rng.uniform(0.5, 40.0, 6))
        obj = Objective(6, lambda x: 0.5 * float(x @ (A @ x)),
                        lambda x: A @ x, lambda x: lambda v: A @ v)
        cfg = LinesearchConfig()
        for trial in range(10):
            x = rng.standard_normal(6)
            g = obj.grad(x)
            d = -g - 0.1 * rng.standard_normal(6)
            gd = float(g @ d)
            if gd >= 0:
                continue
            f_x = obj.f(x)

            def accept(lam):
                return (obj.f(x + lam * d) - f_x
                        <= cfg.sufficient_decrease * lam * gd)

            want = backtrack_reference(accept, cfg.initial_step, cfg.shrink,
                                       cfg.min_step)
            res = armijo_backtrack(obj, x, d, gd, f_x, cfg)
            assert res.step == want

    def test_eval_economy_and_reuse(self):
        calls = []
        def f(x):
            calls.append(x.copy())
            return 0.5 * float(x @ x)
        obj = Objective(1, f, lambda x: x.copy())
        x = np.array([1.0])
        d = np.array([-3.0])
        res = armijo_backtrack(obj, x, d, -3.0, 0.5)
        assert len(calls) == res.n_evals
        # f_new is bit-identical to the objective at the accepted point, and
        # x_new is that point, the last one evaluated
        assert res.f_new == 0.5 * float((x + res.step * d) @ (x + res.step * d))
        assert res.x_new.tobytes() == (x + res.step * d).tobytes() == calls[-1].tobytes()

    def test_stagnation(self):
        # constant objective with a claimed negative slope can never satisfy
        # strict decrease: f_x = 0 so the rounding pad vanishes too
        obj = Objective(1, lambda x: 0.0, lambda x: np.zeros(1))
        x = np.zeros(1)
        res = armijo_backtrack(obj, x, np.ones(1), -1.0, 0.0)
        assert res.step == 0.0 and res.f_new == 0.0 and res.x_new is x
        # one trial per grid step 2^-j >= min_step = 1e-18, j = 0..59
        assert res.n_evals == obj.f_calls == 60

    def test_nonfinite_trials_are_rejected(self):
        # f is -inf outside a small interval: a trial there satisfies the
        # decrease inequality numerically yet must not be accepted
        def f(x):
            return float(-np.inf) if abs(x[0]) > 0.6 else 0.5 * float(x @ x)
        obj = Objective(1, f, lambda x: x.copy())
        x = np.array([0.5])
        res = armijo_backtrack(obj, x, np.array([-4.0]), -2.0, obj.f(x))
        assert np.isfinite(res.f_new)
        assert abs(x[0] + res.step * -4.0) <= 0.6

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LinesearchConfig(shrink=1.0)
        with pytest.raises(ValueError):
            LinesearchConfig(sufficient_decrease=0.0)
        with pytest.raises(ValueError):
            LinesearchConfig(initial_step=0.0)
        with pytest.raises(ValueError):
            LinesearchConfig(min_step=2.0)


class TestCurvatureSearch:
    # model problem with genuine negative curvature at x:
    # f(z) = -0.5 z^2 + 0.25 z^4, x = 0.5, moving along +d
    @staticmethod
    def scalar_obj():
        def f(x):
            z = x[0]
            return -0.5 * z * z + 0.25 * z ** 4
        def g(x):
            z = x[0]
            return np.array([-z + z ** 3])
        return Objective(1, f, g)

    @staticmethod
    def concave_obj():
        # f(z) = -z^2: every step along +d from x > 0 passes, up to max_step
        return Objective(1, lambda x: -x[0] * x[0], lambda x: np.array([-2.0 * x[0]]))

    @pytest.mark.parametrize("concave, d_curv, cfg", [
        # d_curv is f'' at x = 0.1, negative on both
        pytest.param(False, -1.0 + 3.0 * 0.01, LinesearchConfig(initial_step=0.125),
                     id="quartic"),
        pytest.param(True, -2.0, LinesearchConfig(initial_step=0.125, max_step=4.0),
                     id="concave-reaches-max-step"),
        pytest.param(True, -2.0, LinesearchConfig(initial_step=1.0, max_step=1.0),
                     id="concave-starts-at-max-step"),
    ])
    def test_forward_growth_matches_reference(self, concave, d_curv, cfg):
        obj = self.concave_obj() if concave else self.scalar_obj()
        x = np.array([0.1])
        d = np.array([1.0])
        g_dot_d = float(obj.grad(x) @ d)
        f_x = obj.f(x)
        sigma = cfg.sufficient_decrease

        def accept(lam):
            rhs = sigma * lam * g_dot_d + 0.5 * sigma * lam * lam * d_curv
            return obj.f(x + lam * d) - f_x <= rhs

        want, want_capped = forward_grid_reference(accept, cfg.initial_step,
                                                   cfg.shrink, cfg.max_step)
        res = npc_linesearch(obj, x, d, g_dot_d, d_curv, f_x, cfg)
        assert res.step == want and res.capped == want_capped
        # the forward walk returns the point it accepted, not its last trial
        assert res.x_new.tobytes() == (x + res.step * d).tobytes()
        if concave:
            assert (res.step, res.capped) == (cfg.max_step, True)
        else:
            assert res.step > cfg.initial_step    # negative curvature rewards growth

    def test_accepted_step_bracketing(self):
        # accepted lam passes the shifted test; lam/shrink fails it
        obj = self.scalar_obj()
        x = np.array([0.1])
        d = np.array([1.0])
        gd = float(obj.grad(x) @ d)
        d_curv = -0.97
        f_x = obj.f(x)
        cfg = LinesearchConfig()
        res = npc_linesearch(obj, x, d, gd, d_curv, f_x, cfg)

        def phi(lam):
            return (obj.f(x + lam * d) - f_x
                    - cfg.sufficient_decrease * lam * gd
                    - 0.5 * cfg.sufficient_decrease * lam * lam * d_curv)

        assert phi(res.step) <= 1e-12
        if not res.capped:
            assert phi(res.step / cfg.shrink) > 0.0

    def test_backtracking_branch(self):
        # start close to the basin edge so the unit step overshoots
        obj = self.scalar_obj()
        x = np.array([0.5])
        d = np.array([4.0])
        gd = float(obj.grad(x) @ d)     # -0.375 * 4 = -1.5
        assert gd < 0
        d_curv = -1.0
        f_x = obj.f(x)
        cfg = LinesearchConfig()
        sigma = cfg.sufficient_decrease

        def accept(lam):
            rhs = sigma * lam * gd + 0.5 * sigma * lam * lam * d_curv
            return obj.f(x + lam * d) - f_x <= rhs

        assert not accept(1.0)
        want = backtrack_reference(accept, cfg.shrink * cfg.initial_step,
                                   cfg.shrink, cfg.min_step)
        res = npc_linesearch(obj, x, d, gd, d_curv, f_x, cfg)
        assert res.step == want
        assert res.x_new.tobytes() == (x + res.step * d).tobytes()
        assert res.step < 1.0 and not res.capped

    def test_cap_reported(self):
        # strictly descending objective grows the step until the cap
        obj = Objective(1, lambda x: -x[0], lambda x: -np.ones(1))
        cfg = LinesearchConfig(max_step=4.0)
        res = npc_linesearch(obj, np.zeros(1), np.ones(1), -1.0, 0.0, 0.0, cfg)
        assert res.capped and res.step == 4.0 and res.exponent == -2

    def test_eval_count(self):
        calls = [0]
        def f(x):
            calls[0] += 1
            return -x[0]
        obj = Objective(1, f, lambda x: -np.ones(1))
        cfg = LinesearchConfig(max_step=2.0)
        res = npc_linesearch(obj, np.zeros(1), np.ones(1), -1.0, 0.0, 0.0, cfg)
        assert calls[0] == res.n_evals

    def test_stagnation(self):
        obj = Objective(1, lambda x: 0.0, lambda x: np.zeros(1))
        cfg = LinesearchConfig(min_step=1e-6)
        # claimed slope/curvature say decrease is possible; f refuses
        x = np.zeros(1)
        res = npc_linesearch(obj, x, np.ones(1), -1.0, -1.0, 0.0, cfg)
        assert res.step == 0.0 and res.f_new == 0.0 and res.x_new is x
        # one trial per grid step 2^-j >= min_step = 1e-6, j = 0..19
        assert res.n_evals == obj.f_calls == 20

    # steps 2^-start; the range [1e-6, 4] holds exponents -2 to 19
    @pytest.mark.parametrize("start", [19, -2])
    def test_start_at_step_range_ends(self, start):
        obj = Objective(1, lambda x: -x[0], lambda x: -np.ones(1))
        cfg = LinesearchConfig(min_step=1e-6, max_step=4.0)
        res = npc_linesearch(obj, np.zeros(1), np.ones(1), -1.0, 0.0, 0.0, cfg,
                             start=start)
        assert res.capped and res.step == 4.0


class TestDecreaseBound:
    def test_armijo_step_lower_bound_on_quadratic(self):
        # for an L-smooth objective the accepted backtracking step cannot
        # drop below shrink * 2 (1 - sigma) |g'd| / (L ||d||^2)
        rng = np.random.default_rng(42)
        lams = rng.uniform(0.5, 25.0, 8)
        L = float(lams.max())
        A = np.diag(lams)
        obj = Objective(8, lambda x: 0.5 * float(x @ (A @ x)),
                        lambda x: A @ x, lambda x: lambda v: A @ v)
        cfg = LinesearchConfig()
        for _ in range(20):
            x = rng.standard_normal(8)
            g = obj.grad(x)
            d = -g
            gd = float(g @ d)
            res = armijo_backtrack(obj, x, d, gd, obj.f(x), cfg)
            floor = cfg.shrink * 2.0 * (1.0 - cfg.sufficient_decrease) \
                * (-gd) / (L * float(d @ d))
            assert res.step >= min(cfg.initial_step, floor) - 1e-12


class TestInputsUnchanged:
    """A search leaves x and d intact and returns f at x + step*d."""

    def test_armijo(self):
        obj = quad_obj()
        x = np.array([1.0, 0.5])
        d = np.array([-12.0, -6.0])     # backtracks several times
        kept_x, kept_d = x.copy(), d.copy()
        res = armijo_backtrack(obj, x, d, float(x @ d), obj.f(x))
        assert res.n_evals > 2
        assert np.array_equal(x, kept_x) and np.array_equal(d, kept_d)
        assert res.f_new == obj.f(x + res.step * d)

    @pytest.mark.parametrize("x0, d0", [(0.1, 1.0), (0.5, 4.0)])   # forward, backtracking
    def test_npc(self, x0, d0):
        obj = TestCurvatureSearch.scalar_obj()
        x, d = np.array([x0]), np.array([d0])
        kept_x, kept_d = x.copy(), d.copy()
        res = npc_linesearch(obj, x, d, float(obj.grad(x) @ d), -1.0, obj.f(x))
        assert res.n_evals > 1
        assert np.array_equal(x, kept_x) and np.array_equal(d, kept_d)
        assert res.f_new == obj.f(x + res.step * d)
