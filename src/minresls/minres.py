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

The iterate update trails the Lanczos recurrence. Every iteration that does
not certify keeps its Lanczos vector v_t with the scalars of its search
direction d_t, and a single fold later forms each kept direction,

    d_j = (v_j - delta2_j d_{j-1} - eps_j d_{j-2}) / gamma2_j,

in v_j's spent buffer, then adds tau_j d_j to x in order. A solution exit or
the iteration cap folds every kept update; from iteration ``_WINDOW + 1``
(six) on, each iteration folds all but its own, one iteration behind, as v_t
is still the next iteration's v_prev. A curvature certificate drops what is
kept: one by iteration ``_WINDOW + 1`` forms neither d_t nor x, and a later
one skips its trailing update. The fold runs the eager update's numpy
operations on the same operands in the same order, so every outcome is
bitwise that of a loop forming x_t on every iteration, signed zeros included.

A call holds at most ten n-vectors of its own (Lanczos vectors, search
directions, iterate, residual and one scratch), plus the direction a
certificate returns, and updates them in place with ``out=``. The residual
stays in one buffer, each d_j is written into v_j's spent buffer, and the
window is sized so that the first fold fits that bound. Past the window
v_{t+1} goes into the buffer of the direction the fold just dropped, so the
bookkeeping allocates nothing of size n, and a call that certifies within the
window allocates only the vectors it used: the Lanczos vectors so far, the
Lanczos product, the scratch and the residual.

Each Lanczos step writes ``A v + shift*v`` straight into the kernel's own
buffer: the operator's result is read, never written, and the arrays an
outcome returns are not touched again by the kernel: they belong to the
caller. The kernel records nothing else; ``minres_npc`` says how its
per-iteration history is observed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    NumericalBreakdown,
    as_vector,
    check_positive_int,
    ensure_operator,
    norm2,
)

__all__ = [
    "minres_npc",
    "MinresOutcome",
    "SOL",
    "NPC",
    "MAXITER",
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

_EPS = np.finfo(float).eps

# Iterations whose updates are kept until the first fold (see the module
# docstring); a certificate up to iteration _WINDOW + 1 forms no iterate. At
# the first fold, in iteration _WINDOW + 1, the kernel holds the window's
# Lanczos vectors, v_t, the Lanczos product, the scratch, the residual and the
# new iterate: _WINDOW + 5 n-vectors, which must stay at most ten.
_WINDOW = 5


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
        Iteration cap, an integer of at least 1 (not a ``bool``); hitting it
        returns flag ``MAXITER`` with the current iterate and residual, as
        the solution exit returns them with flag ``SOL``.
    shift : float
        Finite multiple of the identity added to ``A``; negative values are
        allowed. Every product is formed as ``A v + shift*v``, and the flags,
        ``curvature`` and residuals all refer to ``A + shift*I``.

    Notes
    -----
    The curvature test compares ``c_{t-1} * gamma1_t`` against zero exactly,
    no epsilon: ties (zero curvature) are certificates.

    ``b`` and a dense ``A`` must hold real numbers; complex, object or string
    values raise ValueError naming the argument, as does such an operator
    output. A zero ``b``, or a finite ``b`` whose norm overflows, raises
    ValueError naming ``b`` before any product. A non-finite or overflowing
    product raises :class:`NumericalBreakdown` in the iteration that forms
    it, whose message names that iteration, with no RuntimeWarning from the
    kernel's own arithmetic; a warning the operator raises itself still
    reaches the caller.

    Iteration t calls the operator exactly once, on v_t, and ``max_inner = t``
    stops the same solve after iteration t with x_t, r_t and phi_t as its
    ``direction``, ``residual`` and ``residual_norm`` (unless t certifies).

    The operator's result is only read, so an operator may return its
    argument or a buffer it keeps; it must not keep a reference to its
    argument, which the kernel overwrites once the call returns. ``b`` is
    not modified, and the returned ``direction`` and ``residual`` are arrays
    no later call touches. How the kernel forms the iterate, and which
    buffers it holds, is stated once, in the module docstring.
    """
    op = ensure_operator(A)
    b = as_vector(b, "b")
    if b.size != op.dim:
        raise ValueError(f"rhs has size {b.size}, operator dimension is {op.dim}")
    if not (0.0 <= tol < 1.0):
        raise ValueError(f"tol must lie in [0, 1), got {tol!r}")
    check_positive_int(max_inner, "max_inner")
    if not math.isfinite(shift):
        raise ValueError(f"shift must be finite, got {shift!r}")

    with np.errstate(over="ignore"):
        beta1 = norm2(b)
    if beta1 == 0.0:
        raise ValueError("b is zero: nothing to solve")
    if beta1 == math.inf:
        raise ValueError("b has a norm that overflows: scale b down")

    stop_tol = max(tol, _TOL_FLOOR * _EPS)
    n = b.size
    v = b / beta1
    v_prev = None       # v_0 = 0 is never formed: beta_1 = 0 multiplies it
    p = np.empty(n)     # Lanczos product, then beta_{t+1} v_{t+1}
    w = np.empty(n)     # scalar-times-vector scratch
    r = b.copy()        # r_{t-1}, overwritten by r_t
    x = None            # the iterate, formed at the first fold
    d = None            # [d_{j-2}, d_{j-1}] of the last folded update
    kept = []           # (v_j, delta2_j, eps_j, gamma2_j, tau_j), not yet folded
    c_prev = -1.0
    s_prev = 0.0
    delta1 = 0.0        # delta_t^(1), carried into iteration t
    eps_t = 0.0         # epsilon_t, carried into iteration t
    phi_prev = beta1    # phi_{t-1}
    beta_t = 0.0        # beta_t
    anorm_est = 0.0

    for t in range(1, max_inner + 1):
        # Lanczos step on A + shift*I; the operator's result is only read
        Av = op(v)
        # a non-finite or overflowing product ends the solve below, by the
        # test of alpha and beta, not with a warning from this arithmetic;
        # the operator's own warnings are raised outside the block
        with np.errstate(over="ignore", invalid="ignore"):
            np.add(Av, np.multiply(v, shift, out=w), out=p)
            # released at once, as a temporary would be: held until the next
            # product, it raised newton_large's peak RSS by 0.7 MB and its
            # minor page faults by 56%
            del Av
            alpha = float(v @ p)
            if t > 1:   # at t = 1 it would subtract +0, which changes no bit
                np.subtract(p, np.multiply(v_prev, beta_t, out=w), out=p)
            np.subtract(p, np.multiply(v, alpha, out=w), out=p)
            beta_next = norm2(p)
        if not (math.isfinite(alpha) and math.isfinite(beta_next)):
            raise NumericalBreakdown(f"numerical breakdown at inner iteration {t}: "
                                     "non-finite Lanczos coefficients")
        anorm_est = max(anorm_est, abs(alpha) + beta_t + beta_next)
        if beta_next <= _BREAKDOWN_FACTOR * _EPS * anorm_est:
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
            direction = (beta1 / norm2(r)) * r
            curvature = -(beta1 * beta1) * (c_prev * gamma1)
            return MinresOutcome(NPC, direction, r, t, curvature, beta1, phi_prev)

        gamma2 = math.hypot(gamma1, beta_next)
        # gamma1 != 0 on this side of the curvature test, so the rotation exists
        assert gamma2 > 0.0
        c = gamma1 / gamma2
        s = beta_next / gamma2
        tau = c * phi_prev
        phi = s * phi_prev
        solved = phi <= stop_tol * beta1
        last = solved or t == max_inner

        kept.append((v, delta2, eps_t, gamma2, tau))
        if last or t > _WINDOW:
            if x is None:
                x = np.zeros(n)     # stands for d_0 = d_{-1} = 0
                d = [x, x]
            # fold every kept update on the way out, else all but v_t's:
            # v_t is the next iteration's v_prev
            free = _fold(kept, len(kept) - (not last), x, d, w)
        else:
            free = np.empty(n)  # v_t stays kept

        if beta_next > 0.0:
            # v_{t+1} = p / beta_{t+1}, into a free buffer; r_t = s^2 r_{t-1}
            # - phi c v_{t+1}
            v_next = np.divide(p, beta_next, out=p if last else free)
            np.multiply(r, s * s, out=r)
            np.subtract(r, np.multiply(v_next, phi * c, out=w), out=r)
        else:
            r.fill(0.0)         # s = 0 makes phi exactly zero here

        if solved:
            break

        # beta_{t+1} = 0 would have zeroed phi and taken the solution exit
        assert beta_next > 0.0

        v_prev, v = v, v_next
        c_prev, s_prev = c, s
        phi_prev = phi
        beta_t = beta_next
        delta1 = delta1_next
        eps_t = eps_next

    # a solution, or the iterate at the cap, where phi_prev = phi
    curvature = float(x @ np.subtract(b, r, out=w))
    return MinresOutcome(SOL if solved else MAXITER, x, r, t, curvature, beta1, phi)


def _fold(kept, count, x, d, w):
    """Form the first ``count`` kept updates and add them to x in order.

    Each d_j goes into v_j's buffer, which the Lanczos recurrence has spent;
    ``d`` holds [d_{j-2}, d_{j-1}] and moves along in place. At the first fold
    x is still zero and stands for d_0 = d_{-1} = 0, so x accumulates
    tau_j d_j only once the directions are formed. Returns the buffer of the
    direction that left ``d`` last, which no later update reads.
    """
    folded = kept[:count]
    del kept[:count]
    for v, delta2, eps, gamma2, _ in folded:
        d_prev2, d_prev = d
        np.subtract(v, np.multiply(d_prev, delta2, out=w), out=v)
        np.subtract(v, np.multiply(d_prev2, eps, out=w), out=v)
        np.divide(v, gamma2, out=v)
        d[:] = d_prev, v
    for v, _, _, _, tau in folded:
        np.add(x, np.multiply(v, tau, out=w), out=x)
    return d_prev2
