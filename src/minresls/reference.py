"""Brute-force reference implementations used to verify the fast paths.

Everything here is deliberately naive: an explicit Krylov basis with a dense
least-squares solve, MINRES rotations rebuilt from dense quadratic forms of
the Lanczos vectors, dense recursive quasi-Newton updates, exhaustive grid
scans. These are the independent side of every two-route check in the test
suite and in ``minresls check``; none of them share code with the production
kernels they validate. The one exception is ``minres_eager``, the MINRES loop
that forms every iterate as it goes: it pins the production kernel's trailing
fold of the iterate updates to the eager arithmetic bit for bit.
"""
from __future__ import annotations

import math

import numpy as np

from .core import NumericalBreakdown, as_vector, ensure_operator
from .minres import _BREAKDOWN_FACTOR, _TOL_FLOOR, MAXITER, NPC, SOL, MinresOutcome

__all__ = [
    "krylov_lsq_oracle",
    "minres_rotations",
    "minres_eager",
    "dense_bfgs_matrix",
    "backtrack_reference",
    "forward_grid_reference",
    "profile_fraction_reference",
]


def krylov_lsq_oracle(A: np.ndarray, b: np.ndarray, t: int) -> float:
    """Dense reference for the optimal residual over the order-t Krylov space.

    Returns ``min_p ||b - A p||`` over ``p in span{b, Ab, ..., A^(t-1) b}``,
    computed by orthonormalizing the Krylov basis and solving a dense least
    squares problem. Intended for verification at small sizes; independent of
    the recurrence-based MINRES kernel.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("oracle expects a dense square matrix")
    b = as_vector(b, "b")
    if t < 1:
        raise ValueError("Krylov order t must be at least 1")
    nb = np.linalg.norm(b)
    if nb == 0.0:
        raise ValueError("b is zero: nothing to solve")

    eps = np.finfo(float).eps
    scale = max(1.0, float(np.linalg.norm(A, 2)))
    basis = [b / nb]
    for _ in range(1, t):
        w = A @ basis[-1]
        for _ in range(2):              # modified Gram-Schmidt, twice
            for q in basis:
                w = w - (q @ w) * q
        nw = np.linalg.norm(w)
        if nw <= 100.0 * eps * scale:
            break                       # grade reached, basis is complete
        basis.append(w / nw)
    Q = np.column_stack(basis)
    M = A @ Q
    y, *_ = np.linalg.lstsq(M, b, rcond=None)
    return float(np.linalg.norm(b - M @ y))


def minres_rotations(A: np.ndarray, vs) -> np.ndarray:
    """Certificate scalars c_{t-1} * gamma1_t rebuilt from Lanczos vectors.

    ``vs`` holds the Lanczos vectors v_1..v_T of a MINRES run on the dense ``A``;
    alpha_t = v_t'A v_t and beta_{t+1} = v_{t+1}'A v_t are dense quadratic forms
    fed through the Givens recurrence from c_0 = -1, s_0 = 0. The scalars equal
    -r_{t-1}'A r_{t-1} / phi_{t-1}^2; the first nonnegative one certifies.
    """
    c_prev, s_prev, delta1 = -1.0, 0.0, 0.0
    certs = []
    for t, v in enumerate(vs):
        Av = A @ v
        gamma1 = s_prev * delta1 - c_prev * float(v @ Av)
        certs.append(c_prev * gamma1)
        if t + 1 < len(vs):
            beta_next = float(vs[t + 1] @ Av)
            gamma2 = math.hypot(gamma1, beta_next)
            delta1 = -c_prev * beta_next
            c_prev, s_prev = gamma1 / gamma2, beta_next / gamma2
    return np.array(certs)


def minres_eager(A, b, tol: float, max_inner: int, *, shift: float = 0.0) -> MinresOutcome:
    """``minres_npc`` as a loop that forms d_t and x_t on every iteration.

    The same Lanczos, rotation and update arithmetic as the production kernel,
    in the same numpy operations and order, with every work vector in its own
    buffer (``r_prev`` and ``r_t`` rotate) and no deferred updates, so its
    outcome must equal the kernel's bit for bit. Arguments are assumed valid.
    """
    op = ensure_operator(A)
    b = as_vector(b, "b")
    beta1 = float(np.linalg.norm(b))
    if beta1 == 0.0:
        raise ValueError("b is zero: nothing to solve")

    eps = np.finfo(float).eps
    stop_tol = max(tol, _TOL_FLOOR * eps)
    n = b.size
    v = b / beta1
    v_prev = np.zeros(n)
    p = np.empty(n)
    w = np.empty(n)
    d_t = np.empty(n)
    d_prev = np.zeros(n)
    d_prev2 = np.zeros(n)
    x = np.zeros(n)
    r_prev = b.copy()
    r_t = np.empty(n)
    c_prev = -1.0
    s_prev = 0.0
    delta1 = 0.0
    eps_t = 0.0
    phi_prev = beta1
    beta_t = 0.0
    anorm_est = 0.0

    for t in range(1, max_inner + 1):
        np.add(op(v), np.multiply(v, shift, out=w), out=p)
        alpha = float(v @ p)
        np.subtract(p, np.multiply(v_prev, beta_t, out=w), out=p)
        np.subtract(p, np.multiply(v, alpha, out=w), out=p)
        beta_next = float(np.linalg.norm(p))
        if not (math.isfinite(alpha) and math.isfinite(beta_next)):
            raise NumericalBreakdown(f"numerical breakdown at inner iteration {t}: "
                                     "non-finite Lanczos coefficients")
        anorm_est = max(anorm_est, abs(alpha) + beta_t + beta_next)
        if beta_next <= _BREAKDOWN_FACTOR * eps * anorm_est:
            beta_next = 0.0

        delta2 = c_prev * delta1 + s_prev * alpha
        gamma1 = s_prev * delta1 - c_prev * alpha
        eps_next = s_prev * beta_next
        delta1_next = -c_prev * beta_next

        if c_prev * gamma1 >= 0.0:
            r_norm = float(np.linalg.norm(r_prev))
            direction = (beta1 / r_norm) * r_prev
            curvature = -(beta1 * beta1) * (c_prev * gamma1)
            return MinresOutcome(NPC, direction, r_prev, t, curvature, beta1, phi_prev)

        gamma2 = math.hypot(gamma1, beta_next)
        c = gamma1 / gamma2
        s = beta_next / gamma2
        tau = c * phi_prev
        phi = s * phi_prev

        np.subtract(v, np.multiply(d_prev, delta2, out=w), out=d_t)
        np.subtract(d_t, np.multiply(d_prev2, eps_t, out=w), out=d_t)
        np.divide(d_t, gamma2, out=d_t)
        np.add(x, np.multiply(d_t, tau, out=w), out=x)

        if beta_next > 0.0:
            v_next = np.divide(p, beta_next, out=v_prev)
            np.multiply(r_prev, s * s, out=r_t)
            np.subtract(r_t, np.multiply(v_next, phi * c, out=w), out=r_t)
        else:
            r_t.fill(0.0)

        if phi <= stop_tol * beta1:
            curvature = float(x @ np.subtract(b, r_t, out=w))
            return MinresOutcome(SOL, x, r_t, t, curvature, beta1, phi)

        v_prev, v = v, v_next
        r_prev, r_t = r_t, r_prev
        d_prev2, d_prev, d_t = d_prev, d_t, d_prev2
        c_prev, s_prev = c, s
        phi_prev = phi
        beta_t = beta_next
        delta1 = delta1_next
        eps_t = eps_next

    curvature = float(x @ np.subtract(b, r_prev, out=w))
    return MinresOutcome(MAXITER, x, r_prev, max_inner, curvature, beta1, phi_prev)


def dense_bfgs_matrix(gamma: float, pairs) -> np.ndarray:
    """Textbook recursive BFGS matrix from B0 = gamma * I and ordered pairs.

    Applies, for each (s, y) in order,
        B <- B - (B s)(B s)' / s'Bs + y y' / y's.
    Raises ZeroDivisionError if a denominator vanishes exactly (callers pick
    benign sequences).
    """
    if not pairs:
        raise ValueError("need at least one pair")
    n = pairs[0][0].size
    B = gamma * np.eye(n)
    for s, y in pairs:
        Bs = B @ s
        sBs = float(s @ Bs)
        ys = float(y @ s)
        if sBs == 0.0 or ys == 0.0:
            raise ZeroDivisionError("degenerate update in the dense recursion")
        B = B - np.outer(Bs, Bs) / sBs + np.outer(y, y) / ys
    return B


def backtrack_reference(accept, s: float, shrink: float, min_step: float) -> float:
    """Smallest-exponent grid point s * shrink^j accepted by the predicate."""
    lam = s
    while lam >= min_step:
        if accept(lam):
            return lam
        lam *= shrink
    raise RuntimeError("reference scan hit the minimum step")


def forward_grid_reference(accept, s: float, shrink: float, max_step: float):
    """Largest grid point s / shrink^j accepted, scanning j = 0, 1, 2, ...

    Mirrors the forward-search contract: walking past ``max_step`` clamps to
    it, and the clamped value is returned (flagged) when it is accepted.
    Returns (step, capped).
    """
    if not accept(s):
        raise ValueError("forward scan expects the initial step to be accepted")
    lam = s
    while True:
        cand = min(lam / shrink, max_step)
        if cand == lam:
            return lam, True
        if accept(cand):
            lam = cand
            if cand == max_step:
                return lam, True
        else:
            return lam, False


def profile_fraction_reference(table: dict, solver, tau: float) -> float:
    """Recount a profile value straight from the raw metric table.

    ``table`` maps (solver, problem) to (metric, solved). The fraction is the
    share of ALL problems on which ``solver`` solved within ``tau`` times the
    best solved metric. Written as one scan per call, over the table itself,
    so it shares no intermediate with the construction it checks, which
    tabulates ratios first and then counts them for every tau.
    """
    problems = sorted({p for _, p in table})
    if not problems:
        raise ValueError("empty metric table")
    hits = 0
    for p in problems:
        solved_values = [v for (s, q), (v, ok) in table.items()
                         if q == p and ok and math.isfinite(v)]
        if not solved_values:
            continue
        best = min(solved_values)
        entry = table.get((solver, p))
        if entry is None:
            continue
        value, ok = entry
        if not ok or not math.isfinite(value):
            continue
        if value == best:
            ratio = 1.0
        elif best == 0.0:
            continue
        else:
            ratio = value / best
        if ratio <= tau:
            hits += 1
    return hits / len(problems)
