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
U is a matrix-vector product on that block, with no copy. One 2m x 2m Gram
array of the ring's rows holds S'S and S'Y as strided views; an accepted pair
overwrites the oldest slot and recomputes only that slot's two rows and
columns of it, O(n m) work. M is assembled in the ring's interleaved slot
order, which permutes its rows and columns alike and so leaves its inverse
(permuted the same way) and its condition number as they are. The count of
accepted pairs alone gives the ring's chronological order, which the strictly
lower triangle L needs.
"""
from __future__ import annotations

import math

import numpy as np

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
    ``2*n_pairs`` rows are always the live pairs. One ``2*memory x 2*memory``
    Gram array of the ring's rows holds S'S and S'Y in slot order as its
    views ``[0::2, 0::2]`` and ``[0::2, 1::2]``, and an accepted pair
    refreshes only its own two rows and columns. Once the ring is full the
    oldest slot is the accepted count modulo ``memory``, which orders the
    strictly lower triangle L of M chronologically.

    The middle block is inverted once per accepted update and the inverse
    reused across applies. The attribute ``degenerate`` is True when the
    inverse does not exist or the 1-norm condition number of M reaches
    ``MAX_MIDDLE_CONDITION``; ``solve`` then takes a gradient step without
    calling ``apply``, which must not be called on a degenerate store. Every
    accepted update recomputes ``degenerate``; a degenerate pair leaves the
    store once ``memory`` later pairs have been accepted, and later pairs can
    make M well conditioned before that. The empty store takes the same
    product over no rows with gamma = 1, which returns v bitwise.

    The store trusts its one caller: ``dim`` and ``memory`` are positive
    integers, as :class:`~minresls.core.Objective` and
    :class:`~minresls.driver.SolverConfig` check, and ``solve`` offers pairs
    and vectors as float64 arrays of length ``dim``.
    """

    def __init__(self, dim: int, memory: int = 10):
        self.dim = dim
        self.memory = memory
        self.gamma = 1.0
        self._pairs = np.empty((2 * self.memory, self.dim))   # rows s_0, y_0, s_1, ...
        self._gram = np.zeros((2 * self.memory, 2 * self.memory))   # of the ring rows
        self._accepted = 0
        self._K = np.zeros((0, 0))      # G M^{-1} G, G = diag(gamma on s rows, 1 on y rows)
        self.degenerate = False

    @property
    def n_pairs(self) -> int:
        return min(self._accepted, self.memory)

    def update(self, s: np.ndarray, y: np.ndarray) -> bool:
        """Offer a pair (s, y); returns True when it is kept.

        Rejection leaves the store, including ``gamma``, untouched.
        """
        s_sq = float(s @ s)
        ys = float(y @ s)
        if s_sq == 0.0 or not np.isfinite(ys) or abs(ys) < CAUTIOUS_FLOOR * s_sq:
            return False
        s_norm = math.sqrt(s_sq)
        j = self._accepted % self.memory        # the oldest slot once full
        np.divide(s, s_norm, out=self._pairs[2 * j])
        np.divide(y, s_norm, out=self._pairs[2 * j + 1])
        self._accepted += 1
        k = self.n_pairs
        # the new pair against every live row: its rows and columns of the Gram block
        rows = self._pairs[2 * j:2 * j + 2] @ self._pairs[:2 * k].T
        self._gram[2 * j:2 * j + 2, :2 * k] = rows
        self._gram[:2 * k, 2 * j:2 * j + 2] = rows.T
        self.gamma = float(y @ y) / ys
        self._refresh()
        return True

    def _refresh(self) -> None:
        k = self.n_pairs
        gram = self._gram[:2 * k, :2 * k]
        sty = gram[0::2, 1::2]
        # chronological rank of each slot, 0 for the oldest live pair
        rank = (np.arange(k) - self._accepted) % k
        L = np.where(rank[:, None] > rank[None, :], sty, 0.0)
        # M = [[gamma*S'S, L], [L', -D]] with its rows and columns in the
        # buffer's interleaved order s_0, y_0, s_1, y_1, ...
        M = np.zeros((2 * k, 2 * k))
        M[0::2, 0::2] = self.gamma * gram[0::2, 0::2]
        M[0::2, 1::2] = L
        M[1::2, 0::2] = L.T
        np.fill_diagonal(M[1::2, 1::2], -sty.diagonal())
        try:
            Minv = np.linalg.inv(M)
        except np.linalg.LinAlgError:
            self._K = None
            self.degenerate = True
            return
        cond = float(np.linalg.norm(M, 1)) * float(np.linalg.norm(Minv, 1))
        self.degenerate = not (cond < MAX_MIDDLE_CONDITION)
        Minv[0::2, :] *= self.gamma
        Minv[:, 0::2] *= self.gamma
        self._K = Minv

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Product B v = gamma*v - W'(K (W v)) over the live rows W, in
        O(dim * memory) flops; no oracle calls. Only for a store that is
        not ``degenerate``."""
        live = self._pairs[:2 * self.n_pairs]
        return self.gamma * v - (self._K @ (live @ v)) @ live

