"""Hessian models: compact L-BFGS and the regularized model operator.

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
"""
from __future__ import annotations

import math

import numpy as np

from .core import (
    DegenerateMiddleMatrix,
    Objective,
    SymmetricOperator,
)

__all__ = ["LbfgsStore", "model_operator"]

# |y's| >= CAUTIOUS_FLOOR * ||s||^2 keeps the pair
CAUTIOUS_FLOOR = 1e-18
# ||M||_1 ||M^{-1}||_1 at or above this marks the middle matrix degenerate
MAX_MIDDLE_CONDITION = 1e14


class LbfgsStore:
    """Bounded history of curvature pairs with compact-form products.

    The scale ``gamma`` is y'y / y's of the most recently accepted pair (1.0
    while empty) and can be negative when that pair has negative curvature.
    Pairs are kept normalized to unit step. The middle block is inverted once
    per accepted update and the inverse reused across applies; the store is
    degenerate, and ``apply`` raises, when the inverse does not exist or the
    1-norm condition number of M reaches ``MAX_MIDDLE_CONDITION``.
    """

    def __init__(self, dim: int, memory: int = 10):
        if memory < 1:
            raise ValueError("memory must be at least 1")
        self.dim = int(dim)
        self.memory = int(memory)
        self.gamma = 1.0
        self._s: list[np.ndarray] = []
        self._y: list[np.ndarray] = []
        self._U = None          # [gamma*S  Y], refreshed on update
        self._Minv = None
        self._degenerate = False

    @property
    def n_pairs(self) -> int:
        return len(self._s)

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
        self._s.append(s / s_norm)
        self._y.append(y / s_norm)
        if len(self._s) > self.memory:
            self._s.pop(0)
            self._y.pop(0)
        self.gamma = float(y @ y) / ys
        self._refresh()
        return True

    def _refresh(self) -> None:
        S = np.column_stack(self._s)
        Y = np.column_stack(self._y)
        StS = S.T @ S
        StY = S.T @ Y
        L = np.tril(StY, -1)
        D = np.diag(np.diag(StY))
        m = S.shape[1]
        M = np.empty((2 * m, 2 * m))
        M[:m, :m] = self.gamma * StS
        M[:m, m:] = L
        M[m:, :m] = L.T
        M[m:, m:] = -D
        self._U = np.hstack([self.gamma * S, Y])
        try:
            self._Minv = np.linalg.inv(M)
        except np.linalg.LinAlgError:
            self._Minv = None
            self._degenerate = True
            return
        cond = float(np.linalg.norm(M, 1)) * float(np.linalg.norm(self._Minv, 1))
        self._degenerate = not (cond < MAX_MIDDLE_CONDITION)

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Product B v in O(dim * memory) flops; no oracle calls."""
        v = np.asarray(v, dtype=float)
        if not self._s:
            return v.copy()             # empty store acts as the identity
        if self._degenerate:
            raise DegenerateMiddleMatrix("degenerate L-BFGS middle matrix")
        return self.gamma * v - self._U @ (self._Minv @ (self._U.T @ v))


def model_operator(shift: float, *, store: LbfgsStore | None = None,
                   obj: Objective | None = None, x=None) -> SymmetricOperator:
    """The regularized model ``B + shift*I`` as one matrix-free operator.

    B is the L-BFGS matrix of ``store`` when one is given; its products cost
    no oracle calls. Otherwise B is the exact Hessian of ``obj`` at a frozen
    copy of ``x``, and every product is charged to the objective's counter as
    one Hessian-vector oracle call.
    """
    if shift < 0:
        raise ValueError("shift must be nonnegative")
    if store is not None:
        return SymmetricOperator(store.dim, lambda v: store.apply(v) + shift * v)
    x = np.array(x, dtype=float, copy=True)   # freeze the evaluation point
    return SymmetricOperator(obj.dim, lambda v: obj.hvp(x, v) + shift * v)
