"""Brute-force reference implementations used to verify the fast paths.

Everything here is deliberately naive: an explicit Krylov basis with a dense
least-squares solve, MINRES rotations rebuilt from dense quadratic forms of
the Lanczos vectors, dense recursive quasi-Newton updates, exhaustive grid
scans. These are the independent side of every two-route check in the test
suite and in ``minresls check``; none of them share code with the production
kernels they validate.
"""
from __future__ import annotations

import math

import numpy as np

from .core import ZeroRightHandSide, as_vector

__all__ = [
    "krylov_lsq_oracle",
    "minres_rotations",
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
        raise ZeroRightHandSide("zero right-hand side")

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
    best solved metric. Written as a plain scan so it shares nothing with the
    vectorized construction it checks.
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
