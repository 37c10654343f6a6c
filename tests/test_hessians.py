"""Hessian models: operators over a frozen-point Hessian and over the L-BFGS
store, their shifted solves, the compact L-BFGS store."""
import os
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from minresls.checks import to_dense
from minresls.core import Objective, SymmetricOperator
from minresls.hessians import LbfgsStore
from minresls.minres import MAXITER, NPC, SOL, minres_npc
from minresls.reference import dense_bfgs_matrix


def pair_rng(seed):
    return np.random.default_rng(seed)


def exact_operator(obj, x):
    """The Hessian at a copy of x as an operator, one Hessian-vector call
    per product."""
    return SymmetricOperator(obj.dim, partial(obj.hvp, x.copy()))


def lbfgs_operator(store):
    """The store's matrix as an operator, whose products are ``store.apply``."""
    return SymmetricOperator(store.dim, store.apply)


class TestExactOperator:
    def test_identity_hessian(self):
        obj = Objective(3, lambda x: 0.5 * float(x @ x), lambda x: x.copy(),
                        lambda x, v: v.copy())
        op = exact_operator(obj, np.zeros(3))
        v = np.array([1.0, -2.0, 0.5])
        assert np.array_equal(op(v), v)
        assert op.dim == 3

    def test_charges_oracle(self):
        obj = Objective(2, lambda x: 0.0, lambda x: np.zeros(2),
                        lambda x, v: 2.0 * v)
        op = exact_operator(obj, np.zeros(2))
        op(np.ones(2)); op(np.ones(2))
        assert obj.oracle_count == 4.0          # two products at cost 2 each

    def test_dense_is_symmetric_on_toy_sine(self):
        from minresls.problems import build_problem
        obj = build_problem("toy_sine", n=4).make_objective()
        x = np.linspace(0.1, 0.9, 8)
        H = to_dense(exact_operator(obj, x))
        assert np.max(np.abs(H - H.T)) <= 1e-12

    def test_product_is_the_oracle_result(self):
        # the operator passes the oracle's result through: its argument v, a
        # view of it, the copy of x or a read-only array, with v left intact
        def read_only(x, v):
            out = 2.0 * v
            out.flags.writeable = False
            return out

        v = np.array([1.0, -2.0, 0.5])
        for hvp, scale in ((lambda x, v: v, 1.0), (lambda x, v: v[:], 1.0),
                           (lambda x, v: x, None), (read_only, 2.0)):
            obj = Objective(3, lambda x: 0.0, lambda x: np.zeros(3), hvp)
            x = np.array([3.0, 4.0, 5.0])
            op = exact_operator(obj, x)
            for _ in range(2):
                kept = v.copy()
                out = op(v)
                assert np.array_equal(v, kept)
                assert np.array_equal(out, x if scale is None else scale * v)


class TestShiftedSolve:
    """``minres_npc(B, ..., shift=sigma)`` is bit for bit MINRES on the
    operator v -> B v + sigma*v, for every kind of model B the driver uses."""

    N = 8

    @classmethod
    def models(cls):
        """(name, B) for a dense matrix, the frozen-point HVP operator, and an
        L-BFGS store empty and filled; all but the empty store are indefinite,
        with an eigenvalue near -5."""
        n = cls.N
        rng = pair_rng(7)
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        A = (Q * np.array([-5.0, -0.5, 0.5, 1.0, 2.0, 3.0, 4.0, 6.0])) @ Q.T
        A = 0.5 * (A + A.T)
        obj = Objective(n, lambda x: 0.0, lambda x: np.zeros(n),
                        lambda x, v: A @ v + x * v)
        filled = LbfgsStore(n, memory=3)
        # the first pair has curvature near -5, the later ones set gamma > 0
        for s in (Q[:, 0] + 0.1 * rng.standard_normal(n),
                  rng.standard_normal(n), rng.standard_normal(n)):
            assert filled.update(s, A @ s)
        return [
            ("dense", A),
            ("hvp", exact_operator(obj, 0.1 * rng.standard_normal(n))),
            ("lbfgs_empty", lbfgs_operator(LbfgsStore(n))),
            ("lbfgs_filled", lbfgs_operator(filled)),
        ]

    @pytest.mark.parametrize("sigma", [1e-12, 0.3, 2.0])
    @pytest.mark.parametrize("kind", ["dense", "hvp", "lbfgs_empty", "lbfgs_filled"])
    def test_bitwise_equal_to_the_summed_operator(self, kind, sigma):
        B = dict(self.models())[kind]
        op = B if not isinstance(B, np.ndarray) else SymmetricOperator(
            self.N, lambda v: B @ v)
        summed = SymmetricOperator(self.N, lambda v: op(v) + sigma * v)
        lam, V = np.linalg.eigh(to_dense(summed))
        b_pos = V[:, lam > 0.0].sum(axis=1)     # off the negative eigenspace
        b_any = pair_rng(11).standard_normal(self.N)
        cases = [(b_pos, 1e-10, 4 * self.N, SOL), (b_any, 1e-10, 4 * self.N, NPC),
                 (b_pos, 0.0, 2, MAXITER)]
        for b, tol, cap, flag in cases:
            got = minres_npc(B, b, tol, cap, shift=sigma)
            ref = minres_npc(summed, b, tol, cap)
            # B = gamma*I with an empty store: one iteration solves it
            assert got.flag == (SOL if kind == "lbfgs_empty" else flag)
            assert got.flag == ref.flag
            assert got.inner_iters == ref.inner_iters
            assert got.curvature == ref.curvature
            assert got.residual_norm == ref.residual_norm
            assert np.array_equal(got.direction, ref.direction)
            assert np.array_equal(got.residual, ref.residual)


class TestLbfgsStore:
    def test_empty_store_is_identity(self):
        st = LbfgsStore(2)
        assert st.gamma == 1.0 and st.n_pairs == 0
        assert np.array_equal(st.apply(np.array([3.0, 4.0])), [3.0, 4.0])

    def test_scale_from_latest_pair(self):
        st = LbfgsStore(3)
        s = np.array([1.0, 0.0, 1.0])
        assert st.update(s, 2.0 * s)
        assert abs(st.gamma - 2.0) <= 1e-15

    def test_single_pair_matches_dense(self):
        st = LbfgsStore(4)
        rng = pair_rng(7)
        s = rng.standard_normal(4)
        y = 2.0 * s
        st.update(s, y)
        B = dense_bfgs_matrix(st.gamma, [(s, y)])
        for _ in range(5):
            v = rng.standard_normal(4)
            assert np.max(np.abs(st.apply(v) - B @ v)) <= 1e-12 * np.linalg.norm(v)

    def test_multi_pair_matches_dense(self):
        rng = pair_rng(13)
        st = LbfgsStore(6, memory=10)
        pairs = []
        for _ in range(6):
            s = rng.standard_normal(6)
            y = s + 0.3 * rng.standard_normal(6)
            if st.update(s, y):
                pairs.append((s, y))
        assert len(pairs) == 6
        B = dense_bfgs_matrix(st.gamma, pairs)
        for _ in range(10):
            v = rng.standard_normal(6)
            ref = B @ v
            assert np.max(np.abs(st.apply(v) - ref)) <= 1e-9 * (1 + np.linalg.norm(ref))

    def test_eviction_keeps_last_m(self):
        rng = pair_rng(29)
        st = LbfgsStore(5, memory=10)
        history = []
        for _ in range(11):
            s = rng.standard_normal(5)
            y = s + 0.2 * rng.standard_normal(5)
            assert st.update(s, y)
            history.append((s, y))
        assert st.n_pairs == 10
        B = dense_bfgs_matrix(st.gamma, history[-10:])
        v = rng.standard_normal(5)
        assert np.max(np.abs(st.apply(v) - B @ v)) <= 1e-8 * (1 + np.linalg.norm(B @ v))

    @pytest.mark.parametrize("memory", [1, 3, 10])
    def test_ring_wraps_match_dense(self, memory):
        # 3m+2 kept pairs wrap the ring three times, with a rejected offer
        # after each; only the last m pairs may shape B
        n = 12
        rng = pair_rng(100 + memory)
        st = LbfgsStore(n, memory=memory)
        history = []
        for _ in range(3 * memory + 2):
            s = rng.standard_normal(n)
            y = s + 0.2 * rng.standard_normal(n)
            assert st.update(s, y)
            history.append((s, y))
            e = np.zeros(n)
            e[0] = 1.0
            assert not st.update(e, np.roll(e, 1))      # y's = 0
            assert st.n_pairs == min(len(history), memory)
            B = dense_bfgs_matrix(st.gamma, history[-memory:])
            v = rng.standard_normal(n)
            ref = B @ v
            assert np.max(np.abs(st.apply(v) - ref)) <= 1e-8 * (1 + np.linalg.norm(ref))

    def test_degenerate_pair_is_evicted(self):
        # the gradient-descent fallback of ``solve`` waits for m good pairs
        # to push a degenerate one out of the ring
        n, memory = 5, 3
        rng = pair_rng(43)
        st = LbfgsStore(n, memory=memory)
        good = []
        for _ in range(2):
            s = rng.standard_normal(n)
            y = s + 0.2 * rng.standard_normal(n)
            assert st.update(s, y)
            good.append((s, y))
        assert not st.degenerate
        e1 = np.eye(n)[0]
        assert st.update(e1, np.eye(n)[1] + 2e-18 * e1)
        assert st.degenerate
        good = []
        for _ in range(memory):
            s = rng.standard_normal(n)
            y = s + 0.2 * rng.standard_normal(n)
            assert st.update(s, y)
            good.append((s, y))
        assert not st.degenerate
        B = dense_bfgs_matrix(st.gamma, good)
        for _ in range(5):
            v = rng.standard_normal(n)
            ref = B @ v
            assert np.max(np.abs(st.apply(v) - ref)) <= 1e-8 * (1 + np.linalg.norm(ref))

    def test_apply_leaves_input_and_store_unchanged(self):
        rng = pair_rng(47)
        st = LbfgsStore(7, memory=3)
        for _ in range(5):
            s = rng.standard_normal(7)
            st.update(s, s + 0.2 * rng.standard_normal(7))
        v = rng.standard_normal(7)
        v_before = v.copy()
        state = (st.gamma, st.n_pairs)
        first = st.apply(v)
        second = st.apply(v)
        assert np.array_equal(first, second)
        assert np.array_equal(v, v_before)
        assert (st.gamma, st.n_pairs) == state
        first[:] = 0.0                  # the result is the caller's to keep
        assert np.array_equal(st.apply(v), second)

    def test_cautious_rejection_leaves_state(self):
        st = LbfgsStore(3)
        st.update(np.array([1.0, 0.0, 0.0]), np.array([2.0, 0.0, 0.0]))
        before = (st.gamma, st.n_pairs)
        e1 = np.array([1.0, 0.0, 0.0])
        e2 = np.array([0.0, 1.0, 0.0])
        assert not st.update(e1, e2)                    # y's = 0
        assert not st.update(e1, e2 + 0.5e-18 * e1)     # below the floor
        assert not st.update(np.zeros(3), e2)           # zero step
        assert (st.gamma, st.n_pairs) == before

    def test_accepts_just_above_floor_then_degenerates(self):
        # the pair passes the cautious screen but the compact middle matrix
        # is numerically singular, which the store reports as its state
        st = LbfgsStore(3)
        e1 = np.array([1.0, 0.0, 0.0])
        e2 = np.array([0.0, 1.0, 0.0])
        assert not st.degenerate
        assert st.update(e1, e2 + 2e-18 * e1)
        assert st.degenerate

    def test_singular_middle_matrix_is_degenerate(self):
        # both pairs pass the cautious screen (y's = -1, then 1), and with
        # gamma = 1 the middle matrix, in the order s_0, y_0, s_1, y_1, is
        # [[1, 0, 0, 0], [0, 1, 1, 0], [0, 1, 1, 0], [0, 0, 0, -1]]: two equal
        # rows, so inverting it fails
        st = LbfgsStore(2)
        e1, e2 = np.eye(2)
        assert st.update(e1, np.array([-1.0, 1.0]))
        assert not st.degenerate
        assert st.update(e2, e2)
        assert st.n_pairs == 2 and st.gamma == 1.0
        assert st.degenerate and st._K is None

    def test_step_scale_alone_is_not_degenerate(self):
        # steps eight orders of magnitude apart, as near convergence: the
        # unnormalized middle matrix has pivot ratios near 1e-16 here
        rng = pair_rng(41)
        st = LbfgsStore(6, memory=10)
        pairs = []
        for scale in (1.0, 1e-4, 1e-8):
            s = rng.standard_normal(6)
            y = s + 0.3 * rng.standard_normal(6)
            assert st.update(scale * s, scale * y)
            pairs.append((scale * s, scale * y))
        B = dense_bfgs_matrix(st.gamma, pairs)
        for _ in range(5):
            v = rng.standard_normal(6)
            ref = B @ v
            assert np.max(np.abs(st.apply(v) - ref)) <= 1e-8 * (1 + np.linalg.norm(ref))

    def test_negative_curvature_pair_kept_verbatim(self):
        st = LbfgsStore(2)
        e1 = np.array([1.0, 0.0])
        assert st.update(e1, -e1)
        assert st.gamma == -1.0
        out = minres_npc(lbfgs_operator(st), np.array([1.0, 1.0]), 1e-8, 20)
        assert out.flag == NPC

    def test_operator_is_symmetric(self):
        rng = pair_rng(31)
        st = LbfgsStore(5)
        for _ in range(4):
            s = rng.standard_normal(5)
            st.update(s, s + 0.1 * rng.standard_normal(5))
        B = to_dense(lbfgs_operator(st))
        assert np.max(np.abs(B - B.T)) <= 1e-10

    def test_package_import_loads_only_numpy(self):
        # numpy is the one runtime dependency; any other non-stdlib package
        # that ``import minresls`` pulls in shows up here
        src = Path(__file__).resolve().parents[1] / "src"
        code = ("import sys; before = set(sys.modules); import minresls; "
                "new = {m.partition('.')[0] for m in set(sys.modules) - before}; "
                "print(' '.join(sorted(new - sys.stdlib_module_names)))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, env={**os.environ, "PYTHONPATH": str(src)})
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["minresls", "numpy"]

    def test_empty_store_returns_its_argument_bitwise(self):
        v = np.array([-0.0, 0.0, 1.5, -2.0, np.inf])
        out = LbfgsStore(5).apply(v)
        assert np.array_equal(out, v) and out is not v
        assert np.array_equal(np.signbit(out), np.signbit(v))
