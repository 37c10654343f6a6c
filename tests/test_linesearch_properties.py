"""Property test of the warm-started curvature search: on a ray whose passing
steps form an interval [0, lam*], a search started at any grid exponent
above 0 accepts the same step as one started at exponent 0, whatever the
shrink factor."""
import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from minresls.core import Objective  # noqa: E402
from minresls.linesearch import LinesearchConfig, npc_linesearch  # noqa: E402


@st.composite
def interval_ray(draw):
    """(objective, d_curv, cfg, offset) for f(z) = -c z + q |z|^p along d = 1
    from x = 0. The shifted gap is lam times -(1 - sigma) c + q lam^(p-1)
    - sigma d_curv lam / 2, which increases with lam, so the passing steps
    form an interval [0, lam*], with lam* between about 1e-6 and 1e6 and
    possibly beyond ``max_step``. f(0) = 0 makes the rounding pad zero."""
    c = draw(st.floats(1e-3, 1e3))
    q = draw(st.floats(1e-3, 1e3))
    p = draw(st.sampled_from((2, 3, 4)))
    d_curv = -draw(st.floats(0.0, 10.0))
    shrink = draw(st.sampled_from((0.5, 0.25, 0.7, 0.3, 0.1)))
    initial = draw(st.sampled_from((1.0, 0.375, 8.0)))
    max_step = initial / shrink ** draw(st.sampled_from((3, 10, 40)))
    cfg = LinesearchConfig(initial_step=initial, shrink=shrink, max_step=max_step,
                           min_step=initial * shrink ** 60)
    offset = draw(st.integers(-4, 12))      # grid steps from the accepted step to the warm start
    obj = Objective(1, lambda x: -c * x[0] + q * abs(x[0]) ** p,
                    lambda x: np.array([-c + p * q * abs(x[0]) ** (p - 1)]))
    return obj, d_curv, cfg, offset


def _passes(obj, g_dot_d, d_curv, cfg, lam):
    sigma = cfg.sufficient_decrease
    gap = obj.f(np.array([lam])) - sigma * lam * g_dot_d - 0.5 * sigma * lam * lam * d_curv
    return bool(np.isfinite(gap) and gap <= 0.0)


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(interval_ray())
def test_warm_start_keeps_the_step(case):
    obj, d_curv, cfg, offset = case
    x, d = np.zeros(1), np.ones(1)
    g_dot_d = float(obj.grad(x) @ d)
    with obj.paused():
        # rounding near lam* can break the interval on the grid; keep only
        # rays on which it holds in floating point
        grid = [min(cfg.initial_step * cfg.shrink ** j, cfg.max_step)
                for j in range(-41, 61)]
        passing = [_passes(obj, g_dot_d, d_curv, cfg, lam)
                   for lam in grid if lam >= cfg.min_step]
    assume(passing == sorted(passing))          # False* then True*, top down
    assume(any(passing))

    def search(**start):
        before = obj.f_calls
        res = npc_linesearch(obj, x, d, g_dot_d, d_curv, 0.0, cfg, **start)
        assert res.n_evals == obj.f_calls - before
        return res

    cold = search()
    # a grid exponent no smaller than 0, near the accepted one
    warm = search(start=max(cold.exponent + offset, 0))
    assert ((warm.step, warm.f_new, warm.capped, warm.exponent)
            == (cold.step, cold.f_new, cold.capped, cold.exponent))
