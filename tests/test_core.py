"""Vector coercion, oracle accounting, operators, derivative checks."""
import numpy as np
import pytest

from minresls.checks import estimate_operator_norm, symmetry_defect
from minresls.core import (
    NoHessianOracle,
    NotEvaluable,
    Objective,
    OracleCounter,
    SymmetricOperator,
    as_vector,
    ensure_operator,
)
from minresls.driver import solve
from minresls.problems import build_problem, fd_grad_check, fd_hvp_check


def quadratic_objective(counter=None):
    return Objective(2, lambda x: 0.5 * float(x @ x), lambda x: x.copy(),
                     lambda x, v: v.copy(), counter=counter)


class TestAsVector:
    def test_casts_int_list(self):
        v = as_vector([1, 2, 3])
        assert v.dtype == np.float64 and v.shape == (3,)

    def test_rejects_matrix(self):
        with pytest.raises(ValueError, match="1-D"):
            as_vector(np.eye(2))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="nonempty"):
            as_vector([])

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="non-finite"):
            as_vector([1.0, np.nan])


class TestOracleCounter:
    def test_monotone_sum(self):
        c = OracleCounter()
        increments = [1.0, 2.0, 0.0, 1.0]
        seen = []
        for u in increments:
            c.add(u)
            seen.append(c.count)
        assert seen == [1.0, 3.0, 3.0, 4.0]
        assert all(b >= a for a, b in zip(seen, seen[1:]))

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            OracleCounter().add(-1.0)

    def test_paused_suspends_and_restores(self):
        c = OracleCounter()
        c.add(2.0)
        with c.paused():
            c.add(100.0)
            with c.paused():        # nesting keeps the outer pause
                c.add(100.0)
            c.add(100.0)
        c.add(1.0)
        assert c.count == 3.0


class TestObjective:
    def test_default_costs(self):
        obj = quadratic_objective()
        x = np.array([3.0, 4.0])
        obj.f(x)
        obj.grad(x)
        obj.hvp(x, x)
        assert obj.oracle_count == 1.0 + 1.0 + 2.0

    def test_custom_costs(self):
        obj = Objective(1, lambda x: 0.0, lambda x: np.zeros(1),
                        lambda x, v: np.zeros(1), f_cost=3.0, grad_cost=5.0,
                        hvp_cost=7.0)
        obj.f(np.zeros(1)); obj.grad(np.zeros(1)); obj.hvp(np.zeros(1), np.zeros(1))
        assert obj.oracle_count == 15.0

    def test_missing_hvp(self):
        obj = Objective(1, lambda x: 0.0, lambda x: np.zeros(1))
        assert not obj.has_hvp
        with pytest.raises(NoHessianOracle, match="no Hessian oracle"):
            obj.hvp(np.zeros(1), np.zeros(1))

    def test_function_shape_checked(self):
        obj = Objective(3, lambda x: x, lambda x: np.zeros(3))
        with pytest.raises(ValueError, match=r"function oracle returned shape \(3,\), "
                                             r"expected a scalar"):
            obj.f(np.zeros(3))

    def test_gradient_shape_checked(self):
        obj = Objective(3, lambda x: 0.0, lambda x: np.zeros(4))
        with pytest.raises(ValueError, match=r"gradient oracle returned shape \(4,\), "
                                             r"expected \(3,\)"):
            obj.grad(np.zeros(3))

    def test_hvp_shape_checked(self):
        obj = Objective(3, lambda x: 0.0, lambda x: np.zeros(3),
                        lambda x, v: np.zeros((3, 1)))
        with pytest.raises(ValueError, match=r"Hessian-vector oracle returned shape "
                                             r"\(3, 1\), expected \(3,\)"):
            obj.hvp(np.zeros(3), np.ones(3))

    def test_bad_oracle_shape_surfaces_from_solve(self):
        bad_grad = Objective(3, lambda x: float(x @ x), lambda x: np.ones(4),
                             lambda x, v: v.copy())
        with pytest.raises(ValueError, match="gradient oracle returned shape"):
            solve(bad_grad, np.ones(3))
        bad_hvp = Objective(3, lambda x: float(x @ x), lambda x: 2.0 * x,
                            lambda x, v: np.ones(4))
        with pytest.raises(ValueError, match="Hessian-vector oracle returned shape"):
            solve(bad_hvp, np.ones(3))

    def test_shared_counter(self):
        c = OracleCounter()
        a, b = quadratic_objective(c), quadratic_objective(c)
        a.f(np.zeros(2)); b.f(np.zeros(2))
        assert c.count == 2.0


class TestFiniteDifferences:
    def test_gradient_quadratic(self):
        # gradient is x itself; central differences are exact up to rounding
        obj = quadratic_objective()
        assert fd_grad_check(obj, np.array([1.0, 2.0]), np.array([0.6, -1.3])) <= 1e-8

    def test_gradient_constant(self):
        obj = Objective(3, lambda x: 7.0, lambda x: np.zeros(3))
        assert fd_grad_check(obj, np.ones(3), np.array([1.0, -2.0, 0.5])) <= 1e-12

    def test_gradient_toy_sine(self):
        obj = build_problem("toy_sine", n=5).make_objective()
        rng = np.random.default_rng(11)
        assert fd_grad_check(obj, rng.uniform(0, 1, 10), rng.standard_normal(10)) <= 1e-6

    def test_gradient_not_evaluable(self):
        def f(x):
            with np.errstate(invalid="ignore"):
                return float(np.log(x[0]))
        obj = Objective(1, f, lambda x: 1.0 / x)
        with pytest.raises(NotEvaluable):
            fd_grad_check(obj, np.array([1e-9]), np.ones(1))

    def test_gradient_norm_overflow(self):
        # ||g|| ||v|| overflows to inf, which would read a gap of 0
        obj = Objective(2, lambda x: 0.0, lambda x: np.full(2, 1e200))
        with pytest.raises(NotEvaluable, match="gradient norm overflows"):
            fd_grad_check(obj, np.zeros(2), np.array([1.0, -1.0]))
        assert obj.oracle_count == 1.0      # the gradient only; f is never called

    def test_hvp_constant_hessian(self):
        D = np.diag([1.0, -1.0])
        obj = Objective(2, lambda x: 0.5 * float(x @ (D @ x)), lambda x: D @ x,
                        lambda x, v: D @ v)
        x = np.array([0.3, -2.0])
        assert np.array_equal(obj.hvp(x, np.array([0.0, 1.0])), [0.0, -1.0])
        assert fd_hvp_check(obj, x, np.array([0.0, 1.0])) <= 1e-8

    def test_hvp_toy_sine(self):
        obj = build_problem("toy_sine", n=5).make_objective()
        rng = np.random.default_rng(12)
        assert fd_hvp_check(obj, rng.uniform(0, 1, 10), rng.standard_normal(10)) <= 1e-6

    def test_hvp_zero_probe(self):
        obj = quadratic_objective()
        assert np.array_equal(obj.hvp(np.ones(2), np.zeros(2)), np.zeros(2))

    def test_missing_hvp_surfaces(self):
        obj = Objective(1, lambda x: 0.0, lambda x: np.zeros(1))
        with pytest.raises(NoHessianOracle):
            fd_hvp_check(obj, np.zeros(1), np.ones(1))


class TestOperators:
    def test_shape_validation(self):
        op = SymmetricOperator(2, lambda v: np.zeros(3))
        with pytest.raises(ValueError, match="shape"):
            op(np.ones(2))

    def test_to_dense_roundtrip(self):
        rng = np.random.default_rng(5)
        M = rng.standard_normal((4, 4))
        M = 0.5 * (M + M.T)
        op = ensure_operator(M)
        assert np.allclose(op.to_dense(), M)

    def test_ensure_rejects_rectangular(self):
        with pytest.raises(ValueError, match="square"):
            ensure_operator(np.ones((2, 3)))

    def test_ensure_passthrough(self):
        op = SymmetricOperator(2, lambda v: v)
        assert ensure_operator(op) is op

    def test_norm_estimate(self):
        M = np.diag([3.0, -1.0, 0.5])
        est = estimate_operator_norm(ensure_operator(M))
        assert abs(est - 3.0) <= 1e-6

    def test_symmetry_defect_scales(self):
        rng = np.random.default_rng(7)
        M = rng.standard_normal((6, 6))
        sym = ensure_operator(0.5 * (M + M.T))
        asym = ensure_operator(M + 0.1 * np.triu(np.ones((6, 6)), 1))
        assert symmetry_defect(sym, np.random.default_rng(1)) <= 1e-12
        assert symmetry_defect(asym, np.random.default_rng(1)) > 1e-4
