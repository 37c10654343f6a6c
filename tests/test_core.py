"""Vector coercion, oracle accounting, operators, derivative checks."""
import re

import numpy as np
import pytest

from minresls.checks import estimate_operator_norm, symmetry_defect, to_dense
from minresls.core import (
    Objective,
    SymmetricOperator,
    as_vector,
    ensure_operator,
)
from minresls.driver import solve
from minresls.minres import minres_npc
from minresls.problems import build_problem, fd_grad_check, fd_hvp_check


# a dim that is not an integer of at least 1, with its message
BAD_DIMS = [(0, "dim must be at least 1"), (-3, "dim must be at least 1"),
            (2.5, "dim must be an integer, got 2.5"),
            ("5", "dim must be an integer, got '5'"),
            (True, "dim must be an integer, got True")]


def quadratic_objective():
    return Objective(2, lambda x: 0.5 * float(x @ x), lambda x: x.copy(),
                     lambda x: lambda v: v.copy())


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


# a length-3 array of each refused dtype kind, with the dtype a message names
NON_REAL = [
    pytest.param(np.ones(3, dtype=complex), "complex128", id="complex"),
    pytest.param(np.array([1.0, 2.0, 3.0], dtype=object), "object", id="object"),
    pytest.param(np.array(["1", "2", "3"]), "<U1", id="string"),
]


def refused(source, dtype):
    return pytest.raises(ValueError, match=re.escape(
        f"{source} {dtype} values, expected real numbers"))


class TestRealArrays:
    """One dtype rule at every array boundary: real kinds become float64,
    anything else is refused by a message that names the input."""

    @pytest.mark.parametrize("value, dtype", NON_REAL)
    def test_start_point(self, value, dtype):
        with refused("x0 has", dtype):
            solve(quadratic_objective(), value[:2])

    @pytest.mark.parametrize("value, dtype", NON_REAL)
    def test_right_hand_side(self, value, dtype):
        with refused("b has", dtype):
            minres_npc(np.eye(3), value, 0.1, 10)

    @pytest.mark.parametrize("value, dtype", NON_REAL)
    def test_dense_matrix(self, value, dtype):
        with refused("A has", dtype):
            minres_npc(np.diag(value), np.ones(3), 0.1, 10)

    @pytest.mark.parametrize("value, dtype", NON_REAL)
    def test_spectrum(self, value, dtype):
        for problem in ("quadratic", "quartic_saddle"):
            with refused("spectrum has", dtype):
                build_problem(problem, spectrum=value)

    @pytest.mark.parametrize("value, dtype", NON_REAL)
    def test_operator_output(self, value, dtype):
        op = SymmetricOperator(3, lambda v: value)
        with refused("operator returned", dtype):
            op(np.ones(3))
        with refused("operator returned", dtype):
            minres_npc(op, np.ones(3), 0.1, 10)

    def test_real_kinds_become_float64(self):
        for value in ([1, 0, 2], np.array([True, False, True]), np.ones(3, np.float32)):
            assert as_vector(value).dtype == np.float64
            out = SymmetricOperator(3, lambda v: value)(np.ones(3))
            assert out.dtype == np.float64 and out.tolist() == list(map(float, value))
        kept = np.ones(3)
        assert SymmetricOperator(3, lambda v: kept)(np.ones(3)) is kept


class TestOracleTally:
    def test_monotone_sum(self):
        obj = Objective(1, lambda x: 0.0, lambda x: np.zeros(1), lambda x: lambda v: v)
        x = np.zeros(1)
        seen = []
        for call in (obj.f, obj.grad, lambda x: obj.hvp(x, x), obj.f):
            call(x)
            seen.append(obj.oracle_count)
        assert seen == [1.0, 2.0, 4.0, 5.0]
        assert all(type(c) is float for c in seen)

    def test_paused_suspends_and_restores(self):
        obj = quadratic_objective()
        x = np.zeros(2)
        obj.hvp(x, x)
        with obj.paused():
            obj.f(x)
            with obj.paused():      # nesting restores the outer pause's tally
                obj.hvp(x, x)
            obj.grad(x)
        obj.f(x)
        assert (obj.f_calls, obj.grad_calls, obj.hvp_calls) == (1, 0, 1)
        assert obj.oracle_count == 3.0


class TestObjective:
    def test_default_costs(self):
        obj = quadratic_objective()
        x = np.array([3.0, 4.0])
        obj.f(x)
        obj.grad(x)
        obj.hvp(x, x)
        assert obj.oracle_count == 1.0 + 1.0 + 2.0

    def test_counts_per_kind_at_fixed_weights(self):
        obj = quadratic_objective()
        x = np.zeros(2)
        for _ in range(3):
            obj.f(x)
        for _ in range(5):
            obj.grad(x)
        for _ in range(7):
            obj.hvp(x, x)
        assert (obj.f_calls, obj.grad_calls, obj.hvp_calls) == (3, 5, 7)
        # a float, as trace files and the golden counts store it
        assert repr(obj.oracle_count) == "22.0"
        with pytest.raises(TypeError, match="hvp_cost"):
            Objective(1, lambda x: 0.0, lambda x: np.zeros(1), hvp_cost=1.0)

    def test_hessian_map_is_reused_only_at_the_same_read_only_point(self):
        # each map keeps ||x||^2 of its point, so a product shows which
        # point's map made it
        points = []

        def hess(x):
            points.append(x.copy())
            sq = float(x @ x)
            return lambda v: sq * v

        obj = Objective(2, lambda x: 0.0, lambda x: np.zeros(2), hess)
        v = np.ones(2)
        x = np.array([1.0, 0.0])
        assert obj.hvp(x, v).tolist() == [1.0, 1.0]
        x[0] = 3.0                          # written in place between products
        assert obj.hvp(x, v).tolist() == [9.0, 9.0]
        x.flags.writeable = False
        for _ in range(3):
            assert obj.hvp(x, v).tolist() == [9.0, 9.0]
        assert len(points) == 3             # one map for the read-only point
        x.flags.writeable = True            # reused only while it is read-only
        x[0] = 2.0
        assert obj.hvp(x, v).tolist() == [4.0, 4.0]
        view = np.array([5.0, 0.0])[:]      # read-only, but not owning its data
        view.flags.writeable = False
        copy = x.copy()                     # equal values, another array
        copy.flags.writeable = False
        for y in (view, view, copy):
            obj.hvp(y, v)
        assert [p[0] for p in points] == [1.0, 3.0, 3.0, 2.0, 5.0, 5.0, 2.0]
        assert obj.hvp_calls == 9

    def test_missing_hvp(self):
        obj = Objective(1, lambda x: 0.0, lambda x: np.zeros(1))
        assert not obj.has_hvp
        with pytest.raises(ValueError, match="no Hessian oracle"):
            obj.hvp(np.zeros(1), np.zeros(1))
        assert obj.hvp_calls == 0

    @pytest.mark.parametrize("dim, fragment", BAD_DIMS)
    def test_dim_must_be_a_positive_integer(self, dim, fragment):
        with pytest.raises(ValueError, match=re.escape(fragment)):
            Objective(dim, lambda x: 0.0, lambda x: x)

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
                        lambda x: lambda v: np.zeros((3, 1)))
        with pytest.raises(ValueError, match=r"Hessian-vector oracle returned shape "
                                             r"\(3, 1\), expected \(3,\)"):
            obj.hvp(np.zeros(3), np.ones(3))

    @pytest.mark.parametrize("value, dtype", [
        (None, "object"),
        (1j, "complex128"),
        (np.complex128(2.0), "complex128"),
        ("1.5", "<U3"),
    ])
    def test_function_value_must_be_real(self, value, dtype):
        obj = Objective(2, lambda x: value, lambda x: np.zeros(2))
        with pytest.raises(ValueError, match=f"function oracle returned {dtype} values, "
                                             "expected real numbers"):
            obj.f(np.zeros(2))

    def test_real_scalars_are_accepted(self):
        for value in (3, np.float32(0.5), np.array(2.5), np.int64(-1), True):
            obj = Objective(1, lambda x: value, lambda x: np.zeros(1))
            out = obj.f(np.zeros(1))
            assert type(out) is float and out == float(value)

    @pytest.mark.parametrize("value, dtype", [
        (np.ones(2, dtype=complex), "complex128"),
        (None, "object"),
        ([1.0, None], "object"),
    ])
    def test_gradient_and_hvp_values_must_be_real(self, value, dtype):
        obj = Objective(2, lambda x: 0.0, lambda x: value, lambda x: lambda v: value)
        with pytest.raises(ValueError, match=f"gradient oracle returned {dtype} values, "
                                             "expected real numbers"):
            obj.grad(np.zeros(2))
        with pytest.raises(ValueError, match=f"Hessian-vector oracle returned {dtype} "
                                             "values, expected real numbers"):
            obj.hvp(np.zeros(2), np.ones(2))

    def test_real_vectors_are_converted_to_float(self):
        for value in ([1, 2], np.array([1, 2], dtype=np.int32), np.ones(2, np.float32)):
            obj = Objective(2, lambda x: 0.0, lambda x: value, lambda x: lambda v: value)
            for out in (obj.grad(np.zeros(2)), obj.hvp(np.zeros(2), np.ones(2))):
                assert out.dtype == np.float64 and out.tolist() == list(map(float, value))
        kept = np.ones(2)
        obj = Objective(2, lambda x: 0.0, lambda x: kept)
        assert obj.grad(np.zeros(2)) is kept           # float64 passes through uncopied

    def test_complex_oracle_surfaces_from_solve(self):
        bad = Objective(3, lambda x: float(x @ x), lambda x: 2.0 * x + 0j,
                        lambda x: lambda v: 2.0 * v)
        with pytest.raises(ValueError, match="gradient oracle returned complex128"):
            solve(bad, np.ones(3))

    def test_bad_oracle_shape_surfaces_from_solve(self):
        bad_grad = Objective(3, lambda x: float(x @ x), lambda x: np.ones(4),
                             lambda x: lambda v: v.copy())
        with pytest.raises(ValueError, match="gradient oracle returned shape"):
            solve(bad_grad, np.ones(3))
        bad_hvp = Objective(3, lambda x: float(x @ x), lambda x: 2.0 * x,
                            lambda x: lambda v: np.ones(4))
        with pytest.raises(ValueError, match="Hessian-vector oracle returned shape"):
            solve(bad_hvp, np.ones(3))


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
        with pytest.raises(AssertionError, match="objective not evaluable"):
            fd_grad_check(obj, np.array([1e-9]), np.ones(1))

    def test_gradient_norm_overflow(self):
        # ||g|| ||v|| overflows to inf, which would read a gap of 0
        obj = Objective(2, lambda x: 0.0, lambda x: np.full(2, 1e200))
        with pytest.raises(AssertionError, match="gradient norm overflows"):
            fd_grad_check(obj, np.zeros(2), np.array([1.0, -1.0]))
        assert obj.oracle_count == 1.0      # the gradient only; f is never called

    def test_hvp_constant_hessian(self):
        D = np.diag([1.0, -1.0])
        obj = Objective(2, lambda x: 0.5 * float(x @ (D @ x)), lambda x: D @ x,
                        lambda x: lambda v: D @ v)
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

    def test_gradient_not_evaluable_near_the_hvp_probe(self):
        # the gradient is finite at the probe point x = 0, infinite right of it
        obj = Objective(1, lambda x: 0.0, lambda x: np.where(x > 0.0, np.inf, 0.0),
                        lambda x: lambda v: v.copy())
        with pytest.raises(AssertionError, match="gradient not evaluable"):
            fd_hvp_check(obj, np.zeros(1), np.ones(1))

    def test_gradient_not_evaluable_on_both_sides_of_the_hvp_probe(self):
        # infinite at x +- h w alike: refused before the two are subtracted,
        # whose inf - inf would warn
        obj = Objective(1, lambda x: 0.0, lambda x: np.where(x == 0.0, 0.0, np.inf),
                        lambda x: lambda v: v.copy())
        with pytest.raises(AssertionError, match="gradient not evaluable"):
            fd_hvp_check(obj, np.zeros(1), np.ones(1))

    def test_missing_hvp_surfaces(self):
        obj = Objective(1, lambda x: 0.0, lambda x: np.zeros(1))
        with pytest.raises(ValueError, match="no Hessian oracle"):
            fd_hvp_check(obj, np.zeros(1), np.ones(1))


class TestOperators:
    def test_shape_validation(self):
        op = SymmetricOperator(2, lambda v: np.zeros(3))
        with pytest.raises(ValueError, match="shape"):
            op(np.ones(2))
        with pytest.raises(ValueError, match="dim must be at least 1"):
            SymmetricOperator(0, lambda v: v)

    @pytest.mark.parametrize("dim, fragment", BAD_DIMS)
    def test_dim_must_be_a_positive_integer(self, dim, fragment):
        with pytest.raises(ValueError, match=re.escape(fragment)):
            SymmetricOperator(dim, lambda v: v)

    def test_to_dense_roundtrip(self):
        rng = np.random.default_rng(5)
        M = rng.standard_normal((4, 4))
        M = 0.5 * (M + M.T)
        op = ensure_operator(M)
        assert np.allclose(to_dense(op), M)

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
        # the first product is zero: no direction to normalize, norm 0
        zero = SymmetricOperator(3, lambda v: np.zeros(3))
        assert estimate_operator_norm(zero) == 0.0
        assert symmetry_defect(zero) == 0.0

    def test_symmetry_defect_scales(self):
        rng = np.random.default_rng(7)
        M = rng.standard_normal((6, 6))
        sym = ensure_operator(0.5 * (M + M.T))
        asym = ensure_operator(M + 0.1 * np.triu(np.ones((6, 6)), 1))
        assert symmetry_defect(sym, np.random.default_rng(1)) <= 1e-12
        assert symmetry_defect(asym, np.random.default_rng(1)) > 1e-4
