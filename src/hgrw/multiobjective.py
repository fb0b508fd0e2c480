"""Min-norm-point weighting of several objectives' gradients.

Finds the convex combination of gradient vectors with the smallest norm via
Frank-Wolfe iterations over the simplex, using the exact two-point line
search. Everything runs off the Gram matrix, so cost is independent of the
gradient dimension once the inner products are formed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

_SIMPLEX_TOL = 1e-9
_DEGENERATE = 1e-18


@dataclass(frozen=True)
class SimplexWeights:
    lambdas: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.lambdas, dtype=np.float64)
        object.__setattr__(self, "lambdas", lam)
        if lam.ndim != 1 or lam.shape[0] < 1:
            raise ValueError("weights must form a non-empty vector")
        if np.any(lam < -_SIMPLEX_TOL) or abs(lam.sum() - 1.0) > _SIMPLEX_TOL:
            raise ValueError(f"weights {lam} are not on the simplex")

    def __len__(self) -> int:
        return len(self.lambdas)


def min_norm_point(
    grads: Sequence[np.ndarray], max_iters: int = 100, tol: float = 1e-6
) -> SimplexWeights:
    """Weights lambda minimizing ||sum_i lambda_i g_i||^2 over the simplex.

    Degenerate conventions: if any gradient is the zero vector, weight is
    spread uniformly over the zero gradients (their vertex already attains
    norm 0); if all gradients coincide, the uniform weighting is returned
    (the line search is 0/0 there and the start point is already optimal).
    """
    m = len(grads)
    if m == 0:
        raise ValueError("need at least one gradient")
    flat = [np.asarray(gr, dtype=np.float64).ravel() for gr in grads]
    dim = flat[0].shape[0]
    for k, v in enumerate(flat):
        if v.shape[0] != dim:
            raise ValueError(f"gradient {k} has length {v.shape[0]}, expected {dim}")
    if m == 1:
        return SimplexWeights(np.ones(1))

    gram = np.empty((m, m))
    stacked = np.stack(flat)
    np.matmul(stacked, stacked.T, out=gram)

    zero = np.diag(gram) < _DEGENERATE
    if zero.any():
        lam = np.where(zero, 1.0 / zero.sum(), 0.0)
        return SimplexWeights(lam)

    lam = np.full(m, 1.0 / m)
    for _ in range(max_iters):
        v = gram @ lam
        t = int(np.argmin(v))
        current = float(lam @ v)
        gap = current - float(v[t])
        if gap < tol:
            break
        # exact line search between the current point a and vertex g_t
        denom = current - 2.0 * float(v[t]) + float(gram[t, t])
        if denom < _DEGENERATE:
            break
        gamma = (float(gram[t, t]) - float(v[t])) / denom
        gamma = min(1.0, max(0.0, gamma))
        lam = gamma * lam
        lam[t] += 1.0 - gamma
        # re-minimize over the support so the iteration cannot zigzag along a
        # face; vanilla steps alone stall far from the requested tolerance
        lam = _corrective_step(gram, lam)
    lam = np.maximum(lam, 0.0)
    lam /= lam.sum()
    return SimplexWeights(lam)


def _corrective_step(gram: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Exact minimization over the convex hull of the current support.

    Solves the affine-constrained problem on the support; while the solution
    leaves the simplex, walks to the boundary, drops the vanished vertex and
    re-solves. Each pass removes a vertex, so it terminates."""
    support = lam > 1e-12
    lam = lam.copy()
    for _ in range(lam.shape[0]):
        idx = np.flatnonzero(support)
        if idx.size <= 1:
            break
        sub = gram[np.ix_(idx, idx)]
        ones = np.ones(idx.size)
        try:
            sol = np.linalg.solve(sub, ones)
        except np.linalg.LinAlgError:
            sol = np.linalg.lstsq(sub, ones, rcond=None)[0]
        total = sol.sum()
        if abs(total) < _DEGENERATE:
            break
        mu = sol / total
        cur = lam[idx]
        if np.all(mu >= -1e-12):
            lam[:] = 0.0
            lam[idx] = np.maximum(mu, 0.0)
            break
        shrink = mu < 0.0
        theta = np.min(cur[shrink] / (cur[shrink] - mu[shrink]))
        theta = min(1.0, max(0.0, theta))
        cur = cur + theta * (mu - cur)
        cur[cur < 1e-12] = 0.0
        lam[:] = 0.0
        lam[idx] = cur
        support = lam > 1e-12
    s = lam.sum()
    return lam / s if s > 0 else np.full(lam.shape[0], 1.0 / lam.shape[0])

