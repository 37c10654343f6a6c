"""Quasi-Newton Hessian model: the compact L-BFGS store.

The quasi-Newton store keeps the most recent curvature pairs and applies the
BFGS matrix (not its inverse) through the compact outer-product form

    B = gamma*I - [gamma*S  Y] * M^{-1} * [gamma*S  Y]'
    M = [[gamma*S'S, L], [L', -D]]

where L is the strictly lower triangle and D the diagonal of S'Y. Updates are
cautious but deliberately loose: a pair is kept whenever |y's| clears a tiny
multiple of ||s||^2, so the matrix may be indefinite. That is a feature, the
inner solver can then surface non-positive curvature directions.

Each kept pair is stored as (s/||s||, y/||s||). A common scaling of one pair
leaves B, gamma and the cautious test unchanged (U -> U C and M -> C M C cancel
in U M^{-1} U'), but it takes step length out of M. M is inverted once per
accepted update, and it counts as degenerate when its 1-norm condition number
reaches 1e14, so the test responds to the geometry of the pairs and not to
how far apart their steps are.

The pairs live in one preallocated ring of 2m rows, s and y of a slot side by
side, so the live pairs are always a leading block of rows and a product with
U is a matrix-vector product on that block, with no copy. S'S and S'Y are kept
as m x m arrays; an accepted pair overwrites the oldest slot and recomputes
only that slot's row and column of them, O(n m) work. M is assembled in the
ring's interleaved slot order, which permutes its rows and columns alike and
so leaves its inverse (permuted the same way) and its condition number as
they are.
"""
from __future__ import annotations

import math

import numpy as np

from .core import DegenerateMiddleMatrix

__all__ = []   # the store is internal: solve builds and owns it

# |y's| >= CAUTIOUS_FLOOR * ||s||^2 keeps the pair
CAUTIOUS_FLOOR = 1e-18
# ||M||_1 ||M^{-1}||_1 at or above this marks the middle matrix degenerate
MAX_MIDDLE_CONDITION = 1e14


class LbfgsStore:
    """Bounded history of curvature pairs with compact-form products.

    The scale ``gamma`` is y'y / y's of the most recently accepted pair (1.0
    while empty) and can be negative when that pair has negative curvature.
    Pairs are kept normalized to unit step in a preallocated ``2*memory x dim``
    buffer: slot j holds s_j in row 2j and y_j in row 2j+1. Slots fill in
    order and then wrap, the newest pair overwriting the oldest, so the first
    ``2*n_pairs`` rows are always the live pairs. The ``memory x memory``
    arrays S'S and S'Y are kept in slot order, and an accepted pair refreshes
    only its own row and column of them. Insertion stamps recover the
    chronological order that the strictly lower triangle L of M needs.

    The middle block is inverted once per accepted update and the inverse
    reused across applies; the store is degenerate, and ``apply`` raises,
    when the inverse does not exist or the 1-norm condition number of M
    reaches ``MAX_MIDDLE_CONDITION``. A degenerate pair leaves the store once
    ``memory`` later pairs have been accepted.
    """

    def __init__(self, dim: int, memory: int = 10):
        if memory < 1:
            raise ValueError("memory must be at least 1")
        self.dim = int(dim)
        self.memory = int(memory)
        self.gamma = 1.0
        self._pairs = np.empty((2 * self.memory, self.dim))   # rows s_0, y_0, s_1, ...
        self._sts = np.zeros((self.memory, self.memory))      # s_i's_j, slot order
        self._sty = np.zeros((self.memory, self.memory))      # s_i'y_j, slot order
        self._stamp = np.zeros(self.memory, dtype=np.int64)   # insertion number per slot
        self._accepted = 0
        self._K = None          # G M^{-1} G, G = diag(gamma on s rows, 1 on y rows)
        self._degenerate = False

    @property
    def n_pairs(self) -> int:
        return min(self._accepted, self.memory)

    def update(self, s: np.ndarray, y: np.ndarray) -> bool:
        """Offer a pair (s, y); returns True when it is kept.

        Rejection leaves the store, including ``gamma``, untouched.
        """
        s = np.asarray(s, dtype=float)
        y = np.asarray(y, dtype=float)
        if s.shape != (self.dim,) or y.shape != (self.dim,):
            raise ValueError("pair dimensions do not match the store")
        s_sq = float(s @ s)
        ys = float(y @ s)
        if s_sq == 0.0 or not np.isfinite(ys) or abs(ys) < CAUTIOUS_FLOOR * s_sq:
            return False
        s_norm = math.sqrt(s_sq)
        j = self._accepted % self.memory        # the oldest slot once full
        np.divide(s, s_norm, out=self._pairs[2 * j])
        np.divide(y, s_norm, out=self._pairs[2 * j + 1])
        self._accepted += 1
        self._stamp[j] = self._accepted
        k = self.n_pairs
        # the new pair against every live row: one row and column of each Gram array
        sj, yj = self._pairs[2 * j:2 * j + 2] @ self._pairs[:2 * k].T
        self._sts[j, :k] = self._sts[:k, j] = sj[0::2]
        self._sty[j, :k] = sj[1::2]
        self._sty[:k, j] = yj[0::2]
        self.gamma = float(y @ y) / ys
        self._refresh()
        return True

    def _refresh(self) -> None:
        k = self.n_pairs
        sty = self._sty[:k, :k]
        stamp = self._stamp[:k]
        L = np.where(stamp[:, None] > stamp[None, :], sty, 0.0)
        # M = [[gamma*S'S, L], [L', -D]] with its rows and columns in the
        # buffer's interleaved order s_0, y_0, s_1, y_1, ...
        M = np.zeros((2 * k, 2 * k))
        M[0::2, 0::2] = self.gamma * self._sts[:k, :k]
        M[0::2, 1::2] = L
        M[1::2, 0::2] = L.T
        np.fill_diagonal(M[1::2, 1::2], -sty.diagonal())
        try:
            Minv = np.linalg.inv(M)
        except np.linalg.LinAlgError:
            self._K = None
            self._degenerate = True
            return
        cond = float(np.linalg.norm(M, 1)) * float(np.linalg.norm(Minv, 1))
        self._degenerate = not (cond < MAX_MIDDLE_CONDITION)
        Minv[0::2, :] *= self.gamma
        Minv[:, 0::2] *= self.gamma
        self._K = Minv

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Product B v = gamma*v - W'(K (W v)) over the live rows W, in
        O(dim * memory) flops; no oracle calls."""
        v = np.asarray(v, dtype=float)
        if self._accepted == 0:
            return v.copy()             # empty store acts as the identity
        if self._degenerate:
            raise DegenerateMiddleMatrix("degenerate L-BFGS middle matrix")
        live = self._pairs[:2 * self.n_pairs]
        return self.gamma * v - (self._K @ (live @ v)) @ live

