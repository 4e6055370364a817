"""Wasserstein imbalance distance between treated and control point clouds.

The practical surrogate is entropic-regularized optimal transport solved by
log-domain Sinkhorn scaling with uniform marginals. The reported distance is
the transport cost of the converged plan (entropy term excluded); gradients
treat the plan as fixed (envelope approximation). A small-instance exact LP
solver serves as an independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .records import require_int_fields

COST_KINDS = ("euclidean", "squared_euclidean")

EXACT_OT_MAX_CELLS = 64


@dataclass(frozen=True)
class SinkhornConfig:
    entropic_reg: float = 0.1
    max_iters: int = 200
    tol: float = 1e-6
    cost: str = "euclidean"

    def __post_init__(self):
        require_int_fields(self)
        if self.entropic_reg <= 0:
            raise ValueError("entropic_reg must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.cost not in COST_KINDS:
            raise ValueError(f"unknown cost {self.cost!r}")


@dataclass
class SinkhornResult:
    distance: float
    grad_a: np.ndarray
    grad_b: np.ndarray
    iterations: int
    converged: bool


def _lse(M: np.ndarray, axis: int) -> np.ndarray:
    """Log-sum-exp along ``axis``; overwrites M, so pass a temporary."""
    mx = M.max(axis=axis, keepdims=True)
    M -= mx
    np.exp(M, out=M)
    return mx.squeeze(axis) + np.log(M.sum(axis=axis))


def _pairwise_sq_dists(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    d2 = (np.sum(A * A, axis=1)[:, None] + np.sum(B * B, axis=1)[None, :]
          - 2.0 * A @ B.T)
    return np.maximum(d2, 0.0)


def _cost_matrix(A: np.ndarray, B: np.ndarray, cost: str) -> np.ndarray:
    d2 = _pairwise_sq_dists(A, B)
    return d2 if cost == "squared_euclidean" else np.sqrt(d2)


def wasserstein_sinkhorn(
    A: np.ndarray,
    B: np.ndarray,
    cfg: SinkhornConfig | None = None,
) -> SinkhornResult:
    """Entropic OT between clouds A (n1, r) and B (n0, r), uniform marginals.

    Iterates log-domain Sinkhorn scalings until the L1 marginal violation
    drops below cfg.tol or cfg.max_iters is hit; non-convergence is reported
    through the ``converged`` flag rather than an exception.

    Returns the transport cost of the converged plan and its exact gradients
    with respect to both clouds under a fixed plan.
    """
    cfg = cfg or SinkhornConfig()
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[1]:
        raise ValueError("A and B must be 2-d with matching feature dimension")
    if A.shape[0] < 1 or B.shape[0] < 1:
        raise ValueError("both clouds must be nonempty")
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(B))):
        raise ValueError("non-finite inputs")

    n1, n0 = A.shape[0], B.shape[0]
    C = _cost_matrix(A, B, cfg.cost)
    eps = cfg.entropic_reg
    log_a = np.full(n1, -np.log(n1))
    log_b = np.full(n0, -np.log(n0))

    neg_C = -C / eps
    work = np.empty_like(C)
    # lse_rows(-C/eps + g/eps), starting from g = 0. It feeds the next
    # f-update, and the plan's row sums are exp(f/eps + lse_rows).
    lse_rows = _lse(np.add(neg_C, 0.0, out=work), 1)
    iterations = 0
    converged = False
    for _ in range(cfg.max_iters):
        iterations += 1
        f = eps * (log_a - lse_rows)
        g = eps * (log_b - _lse(np.add(neg_C, f[:, None] / eps, out=work), 0))
        lse_rows = _lse(np.add(neg_C, g[None, :] / eps, out=work), 1)
        # After the g-update the column marginals are exact; only the rows
        # can violate.
        row_err = np.abs(np.exp(f / eps + lse_rows) - 1.0 / n1).sum()
        if row_err <= cfg.tol:
            converged = True
            break

    T = np.exp(neg_C + (f[:, None] + g[None, :]) / eps)
    distance = float(np.sum(T * C))

    if cfg.cost == "squared_euclidean":
        # dC_ij/da_i = 2 (a_i - b_j)
        grad_a = 2.0 * (T.sum(axis=1)[:, None] * A - T @ B)
        grad_b = 2.0 * (T.sum(axis=0)[:, None] * B - T.T @ A)
    else:
        # dC_ij/da_i = (a_i - b_j) / ||a_i - b_j||, zero at coincident points
        with np.errstate(divide="ignore", invalid="ignore"):
            W = np.where(C > 0, T / np.where(C > 0, C, 1.0), 0.0)
        grad_a = W.sum(axis=1)[:, None] * A - W @ B
        grad_b = W.sum(axis=0)[:, None] * B - W.T @ A

    return SinkhornResult(distance=distance, grad_a=grad_a, grad_b=grad_b,
                          iterations=iterations, converged=converged)


def exact_ot_small(A: np.ndarray, B: np.ndarray, cost: str = "euclidean") -> float:
    """Exact optimal-transport cost with uniform marginals via the LP.

    Only intended as a test oracle; instances are capped at n1 * n0 <= 64.
    """
    if cost not in COST_KINDS:
        raise ValueError(f"unknown cost {cost!r}")
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[1]:
        raise ValueError("A and B must be 2-d with matching feature dimension")
    n1, n0 = A.shape[0], B.shape[0]
    if n1 * n0 > EXACT_OT_MAX_CELLS:
        raise ValueError("instance too large")

    C = _cost_matrix(A, B, cost).reshape(-1)
    # Row-sum and column-sum constraints on vec(T); one is redundant but the
    # HiGHS solver copes with that.
    A_eq = np.zeros((n1 + n0, n1 * n0))
    for i in range(n1):
        A_eq[i, i * n0:(i + 1) * n0] = 1.0
    for j in range(n0):
        A_eq[n1 + j, j::n0] = 1.0
    b_eq = np.concatenate([np.full(n1, 1.0 / n1), np.full(n0, 1.0 / n0)])
    res = linprog(C, A_eq=A_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if not res.success:
        raise RuntimeError(f"exact OT solve failed: {res.message}")
    return float(res.fun)
