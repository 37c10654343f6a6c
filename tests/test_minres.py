"""MINRES kernel: solution and curvature-certificate exits, frozen cases."""
import dataclasses
import tracemalloc

import numpy as np
import pytest

from minresls.checks import minres_iterations, random_symmetric_system
from minresls.core import NumericalBreakdown, SymmetricOperator
from minresls.minres import (
    _WINDOW,
    MAXITER,
    NPC,
    SOL,
    minres_npc,
)
from minresls.reference import krylov_lsq_oracle, minres_eager, minres_rotations


def run(A, b, tol, max_inner=50):
    return minres_npc(np.asarray(A, dtype=float), np.asarray(b, dtype=float),
                      tol, max_inner)


class TestFrozenCases:
    def test_identity_one_step(self):
        out = run(np.eye(3), [2.0, 0.0, 0.0], 1e-8)
        assert out.flag == SOL
        assert out.inner_iters == 1
        assert np.array_equal(out.direction, [2.0, 0.0, 0.0])
        assert out.residual_norm == 0.0

    def test_negative_identity_certificate(self):
        # b itself has negative curvature: caught before the first iterate
        out = run(-np.eye(3), [1.0, 0.0, 0.0], 0.0)
        assert out.flag == NPC
        assert out.inner_iters == 1
        assert np.array_equal(out.direction, [1.0, 0.0, 0.0])
        assert out.curvature == -1.0

    def test_diag_two_one(self):
        out = run(np.diag([2.0, 1.0]), [1.0, 1.0], 0.0)
        assert out.flag == SOL
        assert out.inner_iters == 2
        assert np.allclose(out.direction, [0.5, 1.0], atol=1e-12)

    def test_indefinite_second_iteration(self):
        # c_0 * gamma1_1 < 0 here, so the first pass is clean; the certificate
        # only fires once the rotations have mixed in the negative eigenvalue.
        A = np.diag([1.0, -1.0])
        b = np.array([-2.0, -1.0])
        out, vs, _, _, _ = minres_iterations(A, b, 0.0, 50)
        assert out.flag == NPC
        assert out.inner_iters == 2
        certs = minres_rotations(A, vs)
        assert certs[0] < 0.0
        assert certs[1] >= 0.0
        d = out.direction
        assert d @ (A @ d) < 0.0


class TestCertificateContract:
    @pytest.mark.parametrize("seed", range(8))
    def test_npc_direction_properties(self, seed):
        rng = np.random.default_rng(seed)
        Q, _ = np.linalg.qr(rng.standard_normal((12, 12)))
        A = (Q * rng.uniform(-2.0, 2.0, 12)) @ Q.T
        A = 0.5 * (A + A.T)
        b = rng.standard_normal(12)
        out = run(A, b, 1e-10, max_inner=100)
        if out.flag != NPC:
            pytest.skip("definite draw")
        d = out.direction
        quad = d @ (A @ d)
        assert quad <= 1e-10 * (d @ d)
        assert d @ b > 0.0
        # reported curvature is the certificate value for the same direction
        assert abs(out.curvature - quad) <= 1e-8 * max(1.0, abs(quad))

    def test_residual_norm_is_true_residual(self):
        rng = np.random.default_rng(3)
        M = rng.standard_normal((9, 9))
        A = M @ M.T + 0.1 * np.eye(9)
        b = rng.standard_normal(9)
        out = run(A, b, 1e-9, max_inner=100)
        assert out.flag == SOL
        true = np.linalg.norm(b - A @ out.direction)
        assert abs(out.residual_norm - true) <= 1e-10 * np.linalg.norm(b)
        assert np.allclose(out.residual, b - A @ out.direction, atol=1e-10)

    def test_sol_curvature_matches_quadratic(self):
        A = np.diag([2.0, 1.0, 0.5])
        b = np.array([1.0, 1.0, 1.0])
        out = run(A, b, 1e-12)
        x = out.direction
        assert abs(out.curvature - x @ (A @ x)) <= 1e-10


class TestTermination:
    def test_maxiter(self):
        out = run(np.diag([2.0, 1.0]), [1.0, 1.0], 0.0, max_inner=1)
        assert out.flag == MAXITER
        assert out.inner_iters == 1

    def test_tol_zero_terminates_on_definite(self):
        # round-off floor: tol = 0 means "to working precision", not forever
        rng = np.random.default_rng(9)
        M = rng.standard_normal((8, 8))
        A = M @ M.T + np.eye(8)
        b = rng.standard_normal(8)
        out = run(A, b, 0.0, max_inner=500)
        assert out.flag == SOL
        assert out.inner_iters <= 8 + 2

    def test_zero_rhs(self):
        with pytest.raises(ValueError, match="b is zero"):
            run(np.eye(2), [0.0, 0.0], 1e-8)

    def test_validation(self):
        with pytest.raises(ValueError):
            run(np.eye(2), [1.0, 0.0], -1e-3)
        with pytest.raises(ValueError):
            run(np.eye(2), [1.0, 0.0], 1e-8, max_inner=0)
        with pytest.raises(ValueError):
            run(np.eye(2), [1.0, 0.0, 0.0], 1e-8)

    @pytest.mark.parametrize("tol", [np.nan, -1e-3, 1.0, np.inf])
    def test_tol_outside_unit_interval_rejected_by_name(self, tol):
        with pytest.raises(ValueError, match=r"tol must lie in \[0, 1\)"):
            minres_npc(np.diag([1.0, 2.0, 3.0, 4.0]), np.ones(4), tol, 50)

    def test_max_inner_must_be_an_integer(self):
        with pytest.raises(ValueError, match="max_inner must be an integer, got 2.5"):
            minres_npc(np.eye(2), np.array([1.0, 0.0]), 1e-8, 2.5)
        out = minres_npc(np.diag([1.0, 2.0]), np.ones(2), 1e-8, np.int64(1))
        assert (out.flag, out.inner_iters) == (MAXITER, 1)

    @pytest.mark.parametrize("shift", [np.nan, np.inf, -np.inf])
    def test_nonfinite_shift_rejected_before_any_product(self, shift):
        calls = []
        op = SymmetricOperator(2, lambda v: calls.append(1) or v)
        with pytest.raises(ValueError, match="shift"):
            minres_npc(op, np.array([1.0, 0.0]), 1e-8, 10, shift=shift)
        assert calls == []

    @pytest.mark.parametrize("product", [
        pytest.param(lambda v: np.full(v.size, np.inf), id="+inf"),
        pytest.param(lambda v: np.full(v.size, -np.inf), id="-inf"),
        pytest.param(lambda v: np.where(v == 0.0, np.inf, v), id="inf-where-v-is-0"),
        pytest.param(lambda v: np.full(v.size, 1e308), id="1e308"),
    ])
    def test_nonfinite_product_breaks_down_without_a_warning(self, product):
        # the tier-1 filter turns any RuntimeWarning of the kernel into an error
        op = SymmetricOperator(4, product)
        with pytest.raises(NumericalBreakdown, match="inner iteration 1"):
            minres_npc(op, np.array([0.0, -2.0, 0.5, 3.0]), 0.1, 10)

    def test_operator_warnings_are_not_silenced(self):
        op = SymmetricOperator(2, lambda v: v * (np.array([1e308]) * 10.0))
        with pytest.raises(RuntimeWarning, match="overflow encountered in multiply"):
            minres_npc(op, np.array([1.0, 2.0]), 0.1, 10)

    def test_negative_shift_accepted(self):
        # diag(3, 0.5) - 1 I = diag(2, -0.5): the shift makes it indefinite
        A = np.diag([3.0, 0.5])
        out = minres_npc(A, np.array([0.0, 1.0]), 1e-10, 10, shift=-1.0)
        assert out.flag == NPC and out.curvature == -0.5
        out = minres_npc(A, np.array([1.0, 0.0]), 1e-10, 10, shift=-1.0)
        assert out.flag == SOL and np.array_equal(out.direction, [0.5, 0.0])


class TestMonotonicity:
    def test_residual_decreases_iterates_grow(self):
        rng = np.random.default_rng(21)
        M = rng.standard_normal((10, 10))
        A = M @ M.T + 0.5 * np.eye(10)
        b = rng.standard_normal(10)
        out, _, xs, _, phis = minres_iterations(A, b, 1e-11, 60)
        assert out.flag == SOL
        assert all(b <= a + 1e-12 for a, b in zip(phis, phis[1:]))
        xnorms = [np.linalg.norm(x) for x in xs]
        assert all(b >= a - 1e-10 * (1 + a) for a, b in zip(xnorms, xnorms[1:]))


class TestBufferSafety:
    """The kernel updates its work vectors in place; none of that may reach
    the operator's argument, the right-hand side or a returned outcome."""

    def test_operator_returning_its_argument(self):
        b = np.array([3.0, -1.0, 2.0])
        out = minres_npc(SymmetricOperator(3, lambda v: v), b, 1e-10, 10)
        assert out.flag == SOL and out.inner_iters == 1
        assert np.allclose(out.direction, b, rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("shift", [0.0, 0.3])
    def test_operator_result_is_only_read(self, shift):
        # an operator may return a buffer it keeps, or a read-only array: the
        # kernel adds the shift into its own vector, so the buffer still holds
        # A v and the outcome is that of an operator returning fresh arrays
        rng = np.random.default_rng(3)
        M = rng.standard_normal((6, 6))
        A = 0.5 * (M + M.T)
        kept = np.empty(6)
        products, intact = [], []

        def into_kept(v):
            if products:    # the previous product, as the kernel left it
                intact.append(np.array_equal(kept, products[-1]))
            np.matmul(A, v, out=kept)
            products.append(kept.copy())
            return kept

        def read_only(v):
            out = A @ v
            out.flags.writeable = False
            return out

        b = rng.standard_normal(6)
        ref = minres_npc(SymmetricOperator(6, lambda v: A @ v), b, 1e-10, 20,
                         shift=shift)
        for fn in (into_kept, read_only):
            out = minres_npc(SymmetricOperator(6, fn), b, 1e-10, 20, shift=shift)
            assert (out.flag, out.inner_iters) == (ref.flag, ref.inner_iters)
            assert np.array_equal(out.direction, ref.direction)
        intact.append(np.array_equal(kept, products[-1]))
        assert len(intact) == ref.inner_iters and all(intact)

    @pytest.mark.parametrize("A, b, max_inner", [
        (np.diag([2.0, 1.0, 0.5]), [1.0, 1.0, 1.0], 50),      # SOL
        (np.diag([1.0, -1.0]), [-2.0, -1.0], 50),             # NPC
        (np.diag([2.0, 1.0]), [1.0, 1.0], 1),                 # MAXITER
    ])
    def test_rhs_unchanged(self, A, b, max_inner):
        b = np.array(b)
        kept = b.copy()
        minres_npc(A, b, 0.0, max_inner)
        assert np.array_equal(b, kept)

    @pytest.mark.parametrize("flag, A", [
        (SOL, np.diag([3.0, 2.0, 1.0, 0.5])),
        (NPC, np.diag([3.0, 2.0, -1.0, 0.5])),
    ])
    def test_outcome_survives_next_call(self, flag, A):
        b = np.array([1.0, -2.0, 0.5, 1.5])
        first = minres_npc(A, b, 0.0, 50)
        assert first.flag == flag
        direction, residual = first.direction.copy(), first.residual.copy()
        minres_npc(A, -b, 0.0, 50)
        minres_npc(A, b, 0.0, 50)
        assert np.array_equal(first.direction, direction)
        assert np.array_equal(first.residual, residual)


def exit_system(flag, t, shift, n):
    """Diagonal of A and b for a solve that exits with ``flag`` at iteration t
    (with ``max_inner = t`` for MAXITER) under ``shift``, padded to dimension n
    with coordinates where b holds -0 and +0, whose signs the kernel keeps."""
    if flag == NPC:
        # t - 1 positive eigenvalues are resolved first; a weak negative one
        # then certifies
        lam = [*np.arange(1.0, t), -1.0 - shift]
        rhs = [1.0] * (t - 1) + [1e-3]
    else:
        # SOL at the grade t; MAXITER caps a grade of t + 3
        grade = t if flag == SOL else t + 3
        lam = list(np.arange(1.0, grade + 1.0))
        rhs = [1.0] * grade
    pad = n - len(lam)
    lam += [5.0, 7.0] * (pad // 2) + [5.0] * (pad % 2)
    rhs += [-0.0, 0.0] * (pad // 2) + [-0.0] * (pad % 2)
    return np.array(lam), np.array(rhs)


def assert_same_outcome(out, ref):
    """Every field equal, arrays and floats compared bit for bit."""
    for field in dataclasses.fields(out):
        mine, theirs = getattr(out, field.name), getattr(ref, field.name)
        if isinstance(mine, np.ndarray):
            assert mine.dtype == theirs.dtype and mine.shape == theirs.shape
            assert mine.tobytes() == theirs.tobytes(), field.name
        elif isinstance(mine, float):
            assert mine.hex() == float(theirs).hex(), field.name
        else:
            assert mine == theirs, field.name


def diagonal_operator(lam, returns):
    """A = diag(lam) as an operator returning fresh arrays or a kept buffer."""
    if returns == "fresh":
        return SymmetricOperator(lam.size, lambda v: lam * v)
    kept = np.empty(lam.size)
    return SymmetricOperator(lam.size, lambda v: np.multiply(lam, v, out=kept))


EXIT_ITERATIONS = range(1, _WINDOW + 4)


class TestDeferredWindow:
    """The first _WINDOW iterations defer d_t and x_t and replay them on the
    way out; every outcome is still bitwise that of the eager loop."""

    @pytest.mark.parametrize("returns", ["fresh", "kept"])
    @pytest.mark.parametrize("shift", [0.0, 0.3])
    @pytest.mark.parametrize("flag", [NPC, SOL, MAXITER])
    @pytest.mark.parametrize("t", EXIT_ITERATIONS)
    def test_exit_matches_eager_loop(self, t, flag, shift, returns):
        lam, b = exit_system(flag, t, shift, t + 8)
        max_inner = t if flag == MAXITER else 50
        out = minres_npc(diagonal_operator(lam, returns), b, 0.0, max_inner, shift=shift)
        assert (out.flag, out.inner_iters) == (flag, t)
        ref = minres_eager(np.diag(lam), b, 0.0, max_inner, shift=shift)
        assert_same_outcome(out, ref)

    @pytest.mark.parametrize("shift, flag", [(0.0, SOL), (0.3, SOL), (-2.0, NPC)])
    def test_operator_returning_its_argument_matches_eager_loop(self, shift, flag):
        b = np.array([3.0, -0.0, 2.0, 0.0, -1.0])
        op = SymmetricOperator(5, lambda v: v)
        out = minres_npc(op, b, 0.0, 50, shift=shift)
        assert (out.flag, out.inner_iters) == (flag, 1)
        assert_same_outcome(out, minres_eager(op, b, 0.0, 50, shift=shift))

    @pytest.mark.parametrize("max_inner", EXIT_ITERATIONS)
    @pytest.mark.parametrize("kind", ["definite", "indefinite"])
    def test_random_systems_match_eager_loop(self, kind, max_inner):
        rng = np.random.default_rng(max_inner)
        for _ in range(40):
            A, b, _ = random_symmetric_system(rng, n=int(rng.integers(2, 12)), kind=kind)
            for tol in (0.0, 0.1):
                assert_same_outcome(minres_npc(A, b, tol, max_inner),
                                    minres_eager(A, b, tol, max_inner))

    @pytest.mark.parametrize("flag", [NPC, SOL, MAXITER])
    @pytest.mark.parametrize("t", [2, _WINDOW, _WINDOW + 1, _WINDOW + 3])
    def test_peak_memory(self, t, flag):
        # at most ten n-vectors of the kernel's own, plus a certificate's
        # direction; the operator writes into a buffer made beforehand
        n = 20_000
        vec = 8 * n
        lam, b = exit_system(flag, t, 0.0, n)
        op = diagonal_operator(lam, "kept")
        max_inner = t if flag == MAXITER else 50
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            out = minres_npc(op, b, 0.0, max_inner)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert (out.flag, out.inner_iters) == (flag, t)
        assert peak <= (10 + (flag == NPC)) * vec + 0.25 * vec
        if flag == NPC and t <= _WINDOW + 1:
            # a certificate in the window forms neither x nor any d_j: the
            # call holds the Lanczos product, the scratch, the residual,
            # v_1..v_t and the direction
            assert peak <= (t + 4) * vec + 0.25 * vec

    def test_lanczos_buffers_reused_past_window(self):
        # an operator that keeps every argument sees v_t in the same buffers
        # however long the solve runs: past the window v_{t+1} goes into a
        # spent buffer rather than a fresh one
        def distinct_arguments(t):
            lam, b = exit_system(MAXITER, t, 0.0, t + 8)
            seen = []
            op = SymmetricOperator(lam.size, lambda v: seen.append(v) or lam * v)
            out = minres_npc(op, b, 0.0, t)
            assert (out.flag, out.inner_iters, len(seen)) == (MAXITER, t, t)
            return {v.ctypes.data for v in seen}

        assert len(distinct_arguments(25)) == len(distinct_arguments(_WINDOW + 1)) == 6


class TestIterationHistory:
    """The history the checks rebuild outside the kernel: recorded Lanczos
    vectors, truncated solves and the rotation reference."""

    @pytest.mark.parametrize("kind", ["mixed", "indefinite", "definite"])
    def test_npc_exit_is_first_nonnegative_reference_scalar(self, kind):
        rng = np.random.default_rng(17)
        checked = npc = 0
        for _ in range(100):
            A, b, _ = random_symmetric_system(rng, kind=kind)
            out, vs, _, _, _ = minres_iterations(A, b, 0.0, 50)
            certs = minres_rotations(A, vs)
            assert certs.size == out.inner_iters
            if np.any(np.abs(certs) <= 1e-10 * np.linalg.norm(A, 2)):
                continue        # a near-tie may round either way
            signs = list(certs >= 0.0)
            expected = signs.index(True) + 1 if True in signs else None
            assert (out.inner_iters if out.flag == NPC else None) == expected
            checked += 1
            npc += out.flag == NPC
        assert checked >= 90
        if kind == "definite":
            assert npc == 0
        else:
            assert npc > 0

    def test_history_of_a_solution(self):
        rng = np.random.default_rng(5)
        M = rng.standard_normal((8, 8))
        A = M @ M.T + 0.5 * np.eye(8)
        b = rng.standard_normal(8)
        out, vs, xs, rs, phis = minres_iterations(A, b, 1e-12, 50)
        assert out.flag == SOL and out.inner_iters >= 3
        assert len(vs) == len(xs) == len(rs) == len(phis) == out.inner_iters
        assert np.array_equal(vs[0], b / np.linalg.norm(b))
        for series in (vs, xs, rs):
            for a, c in zip(series, series[1:]):
                assert not np.array_equal(a, c)
        assert xs[-1] is out.direction and phis[-1] == out.residual_norm
        # x_t from the solve stopped at t is the iterate the full solve built
        ref = run(A, b, 1e-12, max_inner=out.inner_iters - 1)
        assert ref.flag == MAXITER
        assert np.array_equal(ref.direction, xs[-2])

    def test_history_of_a_certificate(self):
        A = np.diag([3.0, 2.0, -1.0, 0.5])
        b = np.array([1.0, -2.0, 0.5, 1.5])
        out, vs, xs, rs, phis = minres_iterations(A, b, 0.0, 50)
        assert out.flag == NPC and out.inner_iters >= 2
        assert len(vs) == out.inner_iters
        assert len(xs) == len(rs) == len(phis) == out.inner_iters - 1
        # the certifying residual is r_{T-1} of the solve stopped at T - 1
        assert np.array_equal(out.residual, rs[-1])
        assert out.residual_norm == phis[-1]

    def test_rotations_frozen(self):
        e1 = np.array([1.0, 0.0])
        # c_0 gamma1_1 = -alpha_1 = -b'Ab / ||b||^2
        assert list(minres_rotations(np.eye(2), [e1])) == [-1.0]
        assert list(minres_rotations(-np.eye(2), [e1])) == [1.0]


class TestKrylovOracle:
    def test_identity_exact_in_one(self):
        assert krylov_lsq_oracle(np.eye(3), np.array([1.0, 0.0, 0.0]), 1) == 0.0

    def test_diag_first_order(self):
        val = krylov_lsq_oracle(np.diag([2.0, 1.0]), np.array([1.0, 1.0]), 1)
        assert abs(val - np.sqrt(0.2)) <= 1e-12

    def test_matches_kernel_residuals(self):
        rng = np.random.default_rng(4)
        M = rng.standard_normal((7, 7))
        A = M @ M.T + 0.3 * np.eye(7)
        b = rng.standard_normal(7)
        out, _, _, _, phis = minres_iterations(A, b, 1e-12, 40)
        assert out.flag == SOL
        for t, phi in enumerate(phis, start=1):
            assert abs(phi - krylov_lsq_oracle(A, b, t)) <= 1e-8 * np.linalg.norm(b)

    def test_validation(self):
        with pytest.raises(ValueError):
            krylov_lsq_oracle(np.ones((2, 3)), np.ones(2), 1)
        with pytest.raises(ValueError):
            krylov_lsq_oracle(np.eye(2), np.ones(2), 0)
