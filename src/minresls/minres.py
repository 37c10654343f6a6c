"""MINRES for shifted symmetric, possibly indefinite systems, with curvature
screening.

The kernel solves ``(A + shift*I) x = b`` for a symmetric operator A and a
finite scalar shift; in the rest of this docstring A stands for the shifted
matrix. It runs the classical three-term Lanczos recurrence together with the
Givens-QR update of the tridiagonal least-squares problem. On top of the
standard iterate updates it watches the sign of the scalar product
``c_{t-1} * gamma1_t`` formed from the rotation bookkeeping. Two identities of
the residual recurrence make that product meaningful:

    r_{t-1}' A r_{t-1} = -phi_{t-1}^2 * c_{t-1} * gamma1_t
    r_t' b             = ||r_t||^2

so ``c_{t-1} * gamma1_t >= 0`` certifies, with no extra matrix product, that
the previous residual is a direction of non-positive curvature which is also a
descent direction for a right-hand side ``b = -g``. The solver returns that
certificate (flag ``NPC``) instead of grinding on, or the usual inexact
solution (flag ``SOL``) once the residual estimate ``phi_t`` drops below
``tol * ||b||``.

Each call allocates its n-vectors once (Lanczos vectors, search directions,
iterate, residuals and one scratch) and updates them in place, so its
per-iteration bookkeeping allocates nothing of size n. Each Lanczos step
writes ``A v + shift*v`` straight into the kernel's own buffer: the operator's
result is read, never written, and the arrays an outcome returns are not
touched again by the kernel: they belong to the caller. The kernel records
nothing else; ``minres_npc`` says how its per-iteration history is observed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    NumericalBreakdown,
    SymmetricOperator,
    ZeroRightHandSide,
    as_vector,
    ensure_operator,
)

__all__ = [
    "SOL",
    "NPC",
    "MAXITER",
    "MinresOutcome",
    "minres_npc",
]

SOL = "SOL"
NPC = "NPC"
MAXITER = "MAXITER"

# Lanczos vectors whose norm falls below this multiple of the running norm
# estimate of A close an (numerically) invariant subspace: the recurrence has
# reached its grade and the tridiagonal least-squares problem is solved exactly.
_BREAKDOWN_FACTOR = 64.0

# Relative-residual floor: phi below this multiple of machine epsilon (times
# ||b||) is round-off, not signal, so even tol = 0 stops there. This is the
# floating-point reading of "terminates at the grade": past it the recurrence
# only grinds noise (beta stalls near sqrt(eps) instead of collapsing).
_TOL_FLOOR = 64.0


@dataclass
class MinresOutcome:
    """Result of one inner solve.

    ``curvature`` is the quadratic form d'(A + shift*I)d of the returned
    direction, obtained from the recurrence identities rather than an extra
    product. For an ``NPC`` outcome it is nonpositive by construction;
    ``residual`` then holds the certifying residual r_{t-1} itself.
    """

    flag: str
    direction: np.ndarray
    residual: np.ndarray
    inner_iters: int
    curvature: float
    rhs_norm: float
    residual_norm: float


def minres_npc(A, b, tol: float, max_inner: int, *, shift: float = 0.0) -> MinresOutcome:
    """Run MINRES on ``(A + shift*I) x = b`` until solution, curvature
    certificate, or cap.

    Parameters
    ----------
    A : SymmetricOperator or square ndarray
        Symmetric map; indefinite is fine, that is the point.
    b : ndarray
        Right-hand side, nonzero.
    tol : float
        Relative residual target in [0, 1): stop with ``SOL`` once
        ``phi_t <= tol * ||b||``. Values below the round-off floor (a small
        multiple of machine epsilon) are clamped to it, so ``tol = 0`` means
        "solve to working precision", not an infinite loop.
    max_inner : int
        Iteration cap; hitting it returns flag ``MAXITER`` with the current
        iterate and residual.
    shift : float
        Finite multiple of the identity added to ``A``; negative values are
        allowed. Every product is formed as ``A v + shift*v``, and the flags,
        ``curvature`` and residuals all refer to ``A + shift*I``.

    Notes
    -----
    The curvature test compares ``c_{t-1} * gamma1_t`` against zero exactly,
    no epsilon: ties (zero curvature) are certificates. Past that test the
    rotation norm ``gamma2`` cannot vanish, and a zero ``beta_{t+1}`` forces
    ``phi_t = 0`` and therefore the solution exit; both facts are asserted
    rather than branched on.

    Iteration t calls the operator exactly once, on v_t, and ``max_inner = t``
    stops the same solve after iteration t with x_t, r_t and phi_t as its
    ``direction``, ``residual`` and ``residual_norm`` (unless t certifies).

    The work vectors are allocated once per call and updated in place with
    ``out=``. The operator's result is only read, as the first operand of the
    sum written into the kernel's own buffer, so an operator may return its
    argument or a buffer it keeps. ``b`` is not modified, and the returned
    ``direction`` and ``residual`` are arrays no later call touches.
    """
    op = ensure_operator(A)
    b = as_vector(b, "b")
    if b.size != op.dim:
        raise ValueError(f"rhs has size {b.size}, operator dimension is {op.dim}")
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    if max_inner < 1:
        raise ValueError("max_inner must be at least 1")
    if not math.isfinite(shift):
        raise ValueError(f"shift must be finite, got {shift!r}")

    beta1 = float(np.linalg.norm(b))
    if beta1 == 0.0:
        raise ZeroRightHandSide("zero right-hand side: nothing to solve")

    eps = np.finfo(float).eps
    stop_tol = max(tol, _TOL_FLOOR * eps)
    n = b.size
    # work vectors, allocated once and updated in place; the pairs
    # v/v_prev and r_prev/r_t and the triple d_prev2/d_prev/d_t rotate
    v = b / beta1
    v_prev = np.zeros(n)
    p = np.empty(n)
    w = np.empty(n)     # scalar-times-vector scratch
    d_t = np.empty(n)
    d_prev = np.zeros(n)
    d_prev2 = np.zeros(n)
    x = np.zeros(n)
    r_prev = b.copy()
    r_t = np.empty(n)
    c_prev = -1.0
    s_prev = 0.0
    delta1 = 0.0        # delta_t^(1), carried into iteration t
    eps_t = 0.0         # epsilon_t, carried into iteration t
    phi_prev = beta1    # phi_{t-1}
    beta_t = 0.0        # beta_t (zero pairs with v_prev = 0 at t = 1)
    anorm_est = 0.0

    for t in range(1, max_inner + 1):
        # Lanczos step on A + shift*I; the operator's result is only read
        np.add(op(v), np.multiply(v, shift, out=w), out=p)
        alpha = float(v @ p)
        np.subtract(p, np.multiply(v_prev, beta_t, out=w), out=p)
        np.subtract(p, np.multiply(v, alpha, out=w), out=p)
        beta_next = float(np.linalg.norm(p))
        if not (math.isfinite(alpha) and math.isfinite(beta_next)):
            raise NumericalBreakdown(t, "non-finite Lanczos coefficients")
        anorm_est = max(anorm_est, abs(alpha) + beta_t + beta_next)
        if beta_next <= _BREAKDOWN_FACTOR * eps * anorm_est:
            # numerically invariant subspace: the grade is reached
            beta_next = 0.0

        # fold the previous rotation into column t of the tridiagonal
        delta2 = c_prev * delta1 + s_prev * alpha
        gamma1 = s_prev * delta1 - c_prev * alpha
        eps_next = s_prev * beta_next
        delta1_next = -c_prev * beta_next

        if c_prev * gamma1 >= 0.0:
            # non-positive curvature certificate: return the previous residual,
            # rescaled to the right-hand side norm
            r_norm = float(np.linalg.norm(r_prev))
            direction = (beta1 / r_norm) * r_prev
            curvature = -(beta1 * beta1) * (c_prev * gamma1)
            return MinresOutcome(NPC, direction, r_prev, t, curvature, beta1, phi_prev)

        gamma2 = math.hypot(gamma1, beta_next)
        # gamma1 != 0 on this side of the curvature test, so the rotation exists
        assert gamma2 > 0.0
        c = gamma1 / gamma2
        s = beta_next / gamma2
        tau = c * phi_prev
        phi = s * phi_prev

        # d_t = (v - delta2 d_prev - eps_t d_prev2) / gamma2;  x += tau d_t
        np.subtract(v, np.multiply(d_prev, delta2, out=w), out=d_t)
        np.subtract(d_t, np.multiply(d_prev2, eps_t, out=w), out=d_t)
        np.divide(d_t, gamma2, out=d_t)
        np.add(x, np.multiply(d_t, tau, out=w), out=x)

        if beta_next > 0.0:
            # v_{t+1} = p / beta_{t+1} into v_prev's buffer, which is spent
            v_next = np.divide(p, beta_next, out=v_prev)
            # r_t = s^2 r_prev - phi c v_{t+1}
            np.multiply(r_prev, s * s, out=r_t)
            np.subtract(r_t, np.multiply(v_next, phi * c, out=w), out=r_t)
        else:
            r_t.fill(0.0)       # s = 0 makes phi exactly zero here

        if phi <= stop_tol * beta1:
            curvature = float(x @ np.subtract(b, r_t, out=w))
            return MinresOutcome(SOL, x, r_t, t, curvature, beta1, phi)

        # beta_{t+1} = 0 would have zeroed phi and taken the solution exit
        assert beta_next > 0.0

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
