"""Randomized invariant suites shared by the test suite and ``minresls check``.

Each ``check_*`` function draws seeded random instances, asserts the relevant
identities with their stated tolerances, and returns a short human-readable
tally. The assertions are the contract; the CLI wraps them into pass/fail
lines, pytest calls them directly (the acceptance tests at the documented
instance counts). ``assert_symmetric`` and ``assert_direction_properties`` are
what ``solve`` asserts under ``check_invariants``, billing no oracle work.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bench import performance_profile
from .core import Objective, SymmetricOperator
from .driver import GD
from .hessians import LbfgsStore
from .linesearch import LinesearchConfig, armijo_backtrack, npc_linesearch
from .minres import MAXITER, NPC, SOL, minres_npc
from .problems import build_problem, list_problems
from .reference import (backtrack_reference, dense_bfgs_matrix, forward_grid_reference,
                        krylov_lsq_oracle, minres_rotations)

__all__ = [
    "SYMMETRY_TOL",
    "InvariantViolation",
    "estimate_operator_norm",
    "symmetry_defect",
    "assert_symmetric",
    "assert_direction_properties",
    "to_dense",
    "random_symmetric_system",
    "minres_iterations",
    "check_minres_oracle_equivalence",
    "check_minres_identities",
    "check_npc_certificates",
    "check_posdef_termination",
    "check_monotone_iterate_growth",
    "check_lbfgs_equivalence",
    "check_lbfgs_cautious_rule",
    "check_linesearch_grid",
    "check_problem_derivatives",
    "check_profile_example",
    "run_all_checks",
    "CheckResult",
]


# Largest ``symmetry_defect`` of the model operator that ``assert_symmetric``
# accepts; a symmetric operator's defect is rounding error, far below this.
SYMMETRY_TOL = 1e-8


class InvariantViolation(AssertionError):
    """A model operator or direction broke a contract of ``check_invariants``."""


def estimate_operator_norm(op: SymmetricOperator, rng=None, iters: int = 30) -> float:
    """Crude 2-norm estimate by power iteration on the symmetric operator."""
    if rng is None:
        rng = np.random.default_rng(0)
    v = rng.standard_normal(op.dim)
    v /= np.linalg.norm(v)
    est = 0.0
    for _ in range(iters):
        w = op(v)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        est = nw
        v = w / nw
    return float(est)


def symmetry_defect(op: SymmetricOperator, rng=None, probes: int = 20) -> float:
    """Largest normalized asymmetry ``|u'(Av) - v'(Au)|`` over random probes.

    The normalization is ``1 + ||u|| ||v|| ||A||_est`` so the defect of an
    exactly symmetric operator sits at rounding level regardless of scale.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    norm_est = max(estimate_operator_norm(op, rng), 1e-30)
    worst = 0.0
    for _ in range(probes):
        u = rng.standard_normal(op.dim)
        v = rng.standard_normal(op.dim)
        lhs = float(u @ op(v))
        rhs = float(v @ op(u))
        scale = 1.0 + np.linalg.norm(u) * np.linalg.norm(v) * norm_est
        worst = max(worst, abs(lhs - rhs) / scale)
    return worst


def to_dense(op: SymmetricOperator) -> np.ndarray:
    """Materialize ``op`` column by column: ``op.dim`` products, so for test
    scale only."""
    cols = np.empty((op.dim, op.dim))
    e = np.zeros(op.dim)
    for j in range(op.dim):
        e[j] = 1.0
        cols[:, j] = op(e)
        e[j] = 0.0
    return cols


def assert_symmetric(B, obj):
    """Reject a model operator whose products are not symmetric, e.g. a wrong
    Hessian-vector oracle, before MINRES runs on it."""
    with obj.paused():
        defect = symmetry_defect(B)
    if not (defect <= SYMMETRY_TOL):
        raise InvariantViolation(f"model operator is not symmetric: symmetry "
                                 f"defect {defect:.3e} exceeds {SYMMETRY_TOL:.0e}")


def assert_direction_properties(flag, d, g, gnorm, theta, zeta, floor_k, B, obj):
    """Direction-quality assertions, enabled by ``check_invariants``.

    Descent and norm bounds for each flag, with ``floor_k`` the screen's
    curvature floor from ``schedule_eval``: a solution-path direction is at
    most ||g|| / floor_k long, and its constant-bearing descent margin uses
    the dense norm of B + zeta*I, so it is only affordable (and only
    checked) at small dimension.
    """
    d_sq = float(d @ d)
    minus_dg = -float(d @ g)
    if flag == GD:
        if not np.array_equal(d, -g):
            raise InvariantViolation("fallback direction is not the negative gradient")
        return
    if flag == NPC:
        if not (minus_dg > theta * gnorm * gnorm):
            raise InvariantViolation("certificate direction lost its descent margin")
        if abs(math.sqrt(d_sq) - gnorm) > 1e-10 * (1.0 + gnorm):
            raise InvariantViolation("certificate direction norm drifted from ||g||")
        with obj.paused():
            true_quad = float(d @ B(d))
        if not (true_quad <= -zeta * d_sq + 1e-8):
            raise InvariantViolation("certificate direction has positive model curvature")
        return
    # solution path (SOL, or accepted MAXITER iterate)
    if not (math.sqrt(d_sq) <= gnorm / floor_k + 1e-10):
        raise InvariantViolation("solution-path direction norm exceeds its bound")
    if B.dim <= 50:
        with obj.paused():
            dense = to_dense(B) + zeta * np.eye(B.dim)
        nb = float(np.linalg.norm(dense, 2))
        c_k = 1.0 / (nb + nb * nb)
        if not (minus_dg > c_k * floor_k * gnorm * gnorm):
            raise InvariantViolation("solution-path direction lost its descent margin")


def random_symmetric_system(rng, n=None, kind="mixed"):
    """A dense symmetric system (A, b) with controlled definiteness.

    ``kind``: "definite" (eigenvalues in [0.5, 3]), "indefinite" (same
    magnitudes, at least one sign flipped), or "mixed" (coin flip).
    """
    if n is None:
        n = int(rng.integers(2, 9))
    if kind == "mixed":
        kind = "definite" if rng.uniform() < 0.5 else "indefinite"
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigs = rng.uniform(0.5, 3.0, n)
    if kind == "indefinite":
        signs = np.where(rng.uniform(size=n) < 0.5, -1.0, 1.0)
        if np.all(signs > 0):
            signs[int(rng.integers(0, n))] = -1.0
        eigs = eigs * signs
    A = (Q * eigs) @ Q.T
    A = 0.5 * (A + A.T)
    b = rng.standard_normal(n)
    while np.linalg.norm(b) < 0.1:
        b = rng.standard_normal(n)
    return A, b, eigs


def minres_iterations(A, b, tol, max_inner):
    """One MINRES solve on the dense ``A``, replayed from outside the kernel.

    Returns ``(outcome, vs, xs, rs, phis)``: the Lanczos vectors v_t, copied
    by the operator as the kernel multiplies them, and x_t, r_t, phi_t of each
    completed iteration t, read off the same solve stopped by ``max_inner=t``.
    """
    vs = []
    op = SymmetricOperator(b.size, lambda v: vs.append(v.copy()) or A @ v)
    out = minres_npc(op, b, tol, max_inner)
    # a certificate at iteration T completes only T - 1 iterations
    steps = [minres_npc(A, b, tol, t) for t in range(1, out.inner_iters)]
    steps += [] if out.flag == NPC else [out]
    return (out, vs, [s.direction for s in steps], [s.residual for s in steps],
            [s.residual_norm for s in steps])


def check_minres_oracle_equivalence(n_systems=200, seed=101) -> str:
    """phi_t agrees with the dense Krylov least-squares optimum at every t."""
    rng = np.random.default_rng(seed)
    compared = 0
    for _ in range(n_systems):
        A, b, _ = random_symmetric_system(rng)
        out, _, _, _, phis = minres_iterations(A, b, 0.0, 50)
        beta1 = out.rhs_norm
        for i, phi in enumerate(phis):
            ref = krylov_lsq_oracle(A, b, i + 1)
            assert abs(phi - ref) <= 1e-8 * beta1, (
                f"phi_{i+1} = {phi:.3e} vs oracle {ref:.3e} (scale {beta1:.3e})")
            compared += 1
    return f"{n_systems} systems, {compared} residual norms matched"


def check_minres_identities(n_systems=100, seed=7) -> str:
    """Recurrence identities and sanity invariants along every run.

    Checked per iteration: the curvature identity r_{t-1}'A r_{t-1} =
    -phi_{t-1}^2 c_{t-1} gamma1_t (scalars from ``minres_rotations``), the residual
    alignment r_t'b = ||r_t||^2, phi_t = ||b - A x_t||, monotonicity of phi,
    |s_t| = phi_t/phi_{t-1} <= 1, and local orthonormality of the Lanczos vectors.
    """
    rng = np.random.default_rng(seed)
    iters_total = 0
    for _ in range(n_systems):
        A, b, _ = random_symmetric_system(rng)
        out, vs, xs, rs, phis = minres_iterations(A, b, 0.0, 50)
        beta1 = out.rhs_norm
        norm_a = float(np.linalg.norm(A, 2))
        scale = 1e-8 * max(1.0, norm_a) * beta1 * beta1
        residuals = [b] + rs
        phis = [beta1] + phis       # phis[t] = phi_t from here on
        certs = minres_rotations(A, vs)
        for t in range(1, len(vs) + 1):
            r_prev = residuals[t - 1]
            lhs = float(r_prev @ (A @ r_prev))
            rhs = -(phis[t - 1] ** 2) * certs[t - 1]
            assert abs(lhs - rhs) <= scale, f"curvature identity off by {abs(lhs-rhs):.3e}"
            v = vs[t - 1]
            assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
            if t >= 2:
                assert abs(float(v @ vs[t - 2])) <= 1e-10
        for i, r in enumerate(rs):
            align = float(r @ b) - float(r @ r)
            assert abs(align) <= 1e-8 * beta1 * beta1, f"residual alignment off by {align:.3e}"
            direct = float(np.linalg.norm(b - A @ xs[i]))
            assert abs(phis[i + 1] - direct) <= 1e-8 * beta1
            assert abs(phis[i + 1] / phis[i]) <= 1.0 + 1e-12
        for a, bb in zip(phis, phis[1:]):
            assert bb <= a + 1e-12 * beta1, "phi is not monotone"
        iters_total += len(vs)
    return f"{n_systems} systems, {iters_total} iterations validated"


def check_npc_certificates(n_systems=200, seed=23) -> str:
    """Soundness of the curvature certificate on indefinite systems.

    With tol = 0 every indefinite draw must end in a certificate; each one is
    rechecked with an honest quadratic form: d'Ad <= 1e-10 ||b||^2, the
    direction norm equals ||b||, and d'b = ||b|| * ||r_{t-1}|| > 0. Runs that
    reach an exact solve first are held to the solution contract instead.
    """
    rng = np.random.default_rng(seed)
    n_npc = 0
    n_sol = 0
    for _ in range(n_systems):
        A, b, _ = random_symmetric_system(rng, kind="indefinite")
        out = minres_npc(A, b, 0.0, 200)
        beta1 = out.rhs_norm
        assert out.flag != MAXITER, "indefinite system with tol=0 failed to classify"
        if out.flag == NPC:
            n_npc += 1
            d = out.direction
            quad = float(d @ (A @ d))
            assert quad <= 1e-10 * beta1 * beta1, f"certificate curvature {quad:.3e} > 0"
            assert abs(np.linalg.norm(d) - beta1) <= 1e-10 * (1.0 + beta1)
            r_norm = float(np.linalg.norm(out.residual))
            gap = float(d @ b) - beta1 * r_norm
            assert abs(gap) <= 1e-8 * beta1 * beta1
            assert float(d @ b) > 0.0
            assert abs(quad - out.curvature) <= 1e-8 * max(1.0, np.linalg.norm(A, 2)) * beta1 * beta1
        else:
            n_sol += 1
            resid = float(np.linalg.norm(A @ out.direction - b))
            assert resid <= 1e-8 * beta1
    return f"{n_systems} indefinite systems: {n_npc} certificates, {n_sol} exact solves"


def check_posdef_termination(n_systems=100, seed=31) -> str:
    """Definite systems with tol = 0 solve within n iterations, residual 1e-8."""
    rng = np.random.default_rng(seed)
    for _ in range(n_systems):
        A, b, _ = random_symmetric_system(rng, kind="definite")
        n = b.size
        out = minres_npc(A, b, 0.0, 10 * n)
        assert out.flag == SOL, f"definite system ended {out.flag}"
        assert out.inner_iters <= n
        resid = float(np.linalg.norm(A @ out.direction - b))
        assert resid <= 1e-8 * out.rhs_norm
    return f"{n_systems} definite systems solved at grade"


def check_monotone_iterate_growth(n_systems=200, seed=47, kind="mixed") -> str:
    """Solution-path inequalities: p_t'b > p_t'Ap_t and growth from p_1 up.

    Also certifies p_1 against its closed form (b'Ab / ||Ab||^2) b and the
    interlacing bound: descending eigenvalues of the tridiagonal projection
    never exceed their counterparts in A. ``kind`` selects the definiteness
    mix, so the suite can replay the exact systems of the certificate check.
    """
    rng = np.random.default_rng(seed)
    checked = 0
    for _ in range(n_systems):
        A, b, _ = random_symmetric_system(rng, kind=kind)
        _, vs, xs, _, _ = minres_iterations(A, b, 0.0, 50)
        if not xs:
            continue
        p1_closed = (float(b @ (A @ b)) / float(np.linalg.norm(A @ b) ** 2)) * b
        assert np.max(np.abs(xs[0] - p1_closed)) <= 1e-10 * (1.0 + np.max(np.abs(p1_closed)))
        p1b = float(xs[0] @ b)
        for x_t in xs:
            ptb = float(x_t @ b)
            ptap = float(x_t @ (A @ x_t))
            assert ptb > ptap - 1e-10, f"p'b = {ptb:.3e} <= p'Ap = {ptap:.3e}"
            assert ptb >= p1b - 1e-10
            checked += 1
        # interlacing of the Lanczos projection
        V = np.column_stack(vs)
        T = V.T @ A @ V
        eig_t = np.sort(np.linalg.eigvalsh(0.5 * (T + T.T)))[::-1]
        eig_a = np.sort(np.linalg.eigvalsh(A))[::-1]
        assert np.all(eig_t <= eig_a[: eig_t.size] + 1e-8)
    return f"{n_systems} systems, {checked} solution-path iterates checked"


def check_lbfgs_equivalence(n_sequences=100, seed=59, probes=20) -> str:
    """Compact-form products match the dense recursive matrix to 1e-8."""
    rng = np.random.default_rng(seed)
    for _ in range(n_sequences):
        n = int(rng.integers(2, 11))
        m = int(rng.integers(1, 5))
        store = LbfgsStore(n, memory=10)
        pairs = []
        while len(pairs) < m:
            s = rng.standard_normal(n)
            y = rng.standard_normal(n)
            if abs(float(y @ s)) < 1e-3 * float(s @ s):
                continue        # keep the dense recursion well conditioned
            if store.update(s, y):
                pairs.append((s, y))
        B = dense_bfgs_matrix(store.gamma, pairs)
        scale = max(1.0, float(np.linalg.norm(B, 2)))
        for _ in range(probes):
            v = rng.standard_normal(n)
            fast = store.apply(v)
            ref = B @ v
            gap = np.max(np.abs(fast - ref))
            assert gap <= 1e-8 * scale * max(1.0, np.linalg.norm(v)), f"gap {gap:.3e}"
    return f"{n_sequences} pair sequences matched the dense recursion"


def check_lbfgs_cautious_rule(seed=61) -> str:
    """Pairs with |y's| below the floor are rejected and change nothing."""
    rng = np.random.default_rng(seed)
    n = 6
    store = LbfgsStore(n, memory=4)
    s0 = rng.standard_normal(n)
    y0 = 2.0 * s0
    assert store.update(s0, y0)
    assert abs(store.gamma - 2.0) <= 1e-14 * 2.0        # y'y / y's = 2 exactly
    gamma_before = store.gamma
    pairs_before = store.n_pairs

    e1 = np.zeros(n); e1[0] = 1.0
    e2 = np.zeros(n); e2[1] = 1.0
    assert not store.update(e1, np.zeros(n)), "zero y must be rejected"
    assert not store.update(e1, e2), "orthogonal pair (y's = 0) must be rejected"
    assert not store.update(e1, e2 + 0.5e-18 * e1), "below-floor pair must be rejected"
    assert not store.update(np.zeros(n), y0), "zero s must be rejected"
    assert store.gamma == gamma_before and store.n_pairs == pairs_before

    assert store.update(e1, e2 + 2e-18 * e1), "above-floor pair must be kept"
    return "cautious floor rejections verified"


def check_linesearch_grid() -> str:
    """Both searches land exactly on the reference grid points.

    Backtracking is compared against the smallest-exponent scan and the
    forward curvature search against the largest-accepted scan, from
    exponent 0 and warm-started further down the grid, including a run
    on a concave quadratic that must ride out to the cap.
    """
    cfg = LinesearchConfig()
    sigma = cfg.sufficient_decrease

    # backtracking on a 1-D quadratic, frozen expectation lam = 0.5
    obj = Objective(1, lambda x: 0.5 * float(x @ x), lambda x: x)
    x = np.array([1.0])
    d = np.array([-3.0])
    f_x = 0.5
    res = armijo_backtrack(obj, x, d, float(x @ d), f_x, cfg)
    ref = backtrack_reference(
        lambda lam: obj.f(x + lam * d) - f_x <= sigma * lam * float(x @ d),
        cfg.initial_step, cfg.shrink, cfg.min_step)
    assert res.step == ref == 0.5

    # forward search on the saddle quartic's negative direction
    def f_quartic(z):
        return -0.5 * z[0] ** 2 + 0.25 * z[0] ** 4

    obj2 = Objective(1, f_quartic, lambda z: np.array([-z[0] + z[0] ** 3]))
    x2 = np.array([0.05])
    g2 = obj2.grad(x2)
    d2 = -g2                                   # descent, tiny norm
    g_dot_d = float(g2 @ d2)
    d_curv = float(d2 @ ((-1.0 + 3.0 * x2[0] ** 2) * d2))
    f_x2 = obj2.f(x2)
    res2 = npc_linesearch(obj2, x2, d2, g_dot_d, d_curv, f_x2, cfg)

    def phi_ok(lam):
        val = obj2.f(x2 + lam * d2) - f_x2 - sigma * lam * g_dot_d \
            - 0.5 * sigma * lam * lam * d_curv
        return val <= 0.0

    ref2, capped2 = forward_grid_reference(phi_ok, cfg.initial_step, cfg.shrink,
                                           cfg.max_step)
    assert res2.step == ref2 and res2.capped == capped2
    assert res2.step > cfg.initial_step, "forward search failed to grow"

    # the same search warm-started at grid exponent 6; the reference scan
    # divides by shrink, which retraces that grid exactly as 0.5 is a power of two
    res_w = npc_linesearch(obj2, x2, d2, g_dot_d, d_curv, f_x2, cfg, start=6)
    ref_w, capped_w = forward_grid_reference(phi_ok, cfg.initial_step * cfg.shrink ** 6,
                                             cfg.shrink, cfg.max_step)
    assert res_w.step == ref_w and res_w.capped == capped_w
    assert res_w.step == res2.step, "warm start moved the accepted step"
    assert res_w.n_evals == res2.n_evals + 6

    # concave quadratic: the test holds everywhere, expect the cap
    obj3 = Objective(1, lambda z: -0.5 * float(z @ z), lambda z: -z)
    x3 = np.array([1.0])
    d3 = np.array([1.0])
    res3 = npc_linesearch(obj3, x3, d3, float(obj3.grad(x3) @ d3), -1.0,
                          obj3.f(x3), cfg)
    assert res3.capped and res3.step == cfg.max_step
    return "grid agreement and cap behaviour verified"


def check_problem_derivatives(points=10, seed=83) -> str:
    """Every registered problem passes the central-difference checks."""
    for name in list_problems():
        spec = build_problem(name, self_test=False)
        spec.self_test(seed=seed, points=points)
    return f"{len(list_problems())} problems x {points} probe points"


def check_profile_example() -> str:
    """Frozen two-solver example for the performance profile construction."""
    table = {
        ("fast", "p1"): (10.0, True),
        ("slow", "p1"): (20.0, True),
    }
    prof = performance_profile(table)
    assert list(prof.taus) == [1.0, 2.0]
    assert prof.fractions["fast"] == [1.0, 1.0]
    assert prof.fractions["slow"] == [0.0, 1.0]
    assert prof.ratios[("fast", "p1")] == 1.0
    assert prof.ratios[("slow", "p1")] == 2.0
    return "two-solver hand example reproduced"


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


_FAST_SUITE = [
    ("minres-oracle-equivalence", check_minres_oracle_equivalence, {"n_systems": 50}),
    ("minres-identities", check_minres_identities, {"n_systems": 40}),
    ("npc-certificates", check_npc_certificates, {"n_systems": 50}),
    ("posdef-termination", check_posdef_termination, {"n_systems": 40}),
    ("monotone-iterates", check_monotone_iterate_growth, {"n_systems": 50}),
    ("lbfgs-equivalence", check_lbfgs_equivalence, {"n_sequences": 30}),
    ("lbfgs-cautious-rule", check_lbfgs_cautious_rule, {}),
    ("linesearch-grid", check_linesearch_grid, {}),
    ("problem-derivatives", check_problem_derivatives, {"points": 5}),
    ("profile-example", check_profile_example, {}),
]


def run_all_checks() -> list[CheckResult]:
    results = []
    for name, fn, kwargs in _FAST_SUITE:
        try:
            detail = fn(**kwargs)
            results.append(CheckResult(name, True, detail))
        except AssertionError as exc:
            results.append(CheckResult(name, False, str(exc)))
        except Exception as exc:    # a crashing suite fails alone
            results.append(CheckResult(name, False, f"{type(exc).__name__}: {exc}"))
    return results
