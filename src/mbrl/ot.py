"""Wasserstein imbalance distance between treated and control point clouds.

The practical surrogate is entropic-regularized optimal transport with
uniform marginals, solved by Sinkhorn scalings in the kernel domain on a
kernel that absorbs the dual potentials and is re-anchored in the log domain
whenever a scaling leaves its bound. The reported distance is the transport
cost of the plan (entropy term excluded); gradients treat the plan as fixed
(envelope gradients), which makes them, at convergence, the gradients of the
entropic dual value the solver also reports. A small-instance exact LP
solver serves as an independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .records import bounded, check_fields

COST_KINDS = ("euclidean", "squared_euclidean")

EXACT_OT_MAX_CELLS = 64

# Kernel-domain scalings u, v stay within [1/SCALING_BOUND, SCALING_BOUND];
# a step that would leave it re-anchors the kernel in the log domain.
SCALING_BOUND = 1e6


@dataclass(frozen=True)
class SinkhornConfig:
    entropic_reg: float = bounded(0.1, positive=True)
    max_iters: int = bounded(200, at_least=1)
    tol: float = bounded(1e-6, positive=True)
    cost: str = bounded("euclidean", among=COST_KINDS)

    def __post_init__(self):
        check_fields(self)


@dataclass
class SinkhornResult:
    distance: float
    grad_a: np.ndarray
    grad_b: np.ndarray
    iterations: int
    converged: bool
    dual_value: float


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


def _anchor(neg_C: np.ndarray, f: np.ndarray, log_b: np.ndarray, eps: float,
            work: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The log-domain g-half-step for potential f, and the absorbed kernel
    exp((f + g - C)/eps) of the result. Its columns sum to b, and each row
    holds an entry of at least a_i * b_j / n0 when f is the f-half-step of
    some g, so no row or column of the kernel underflows."""
    g = eps * (log_b - _lse(np.add(neg_C, f[:, None] / eps, out=work), 0))
    K = np.exp(neg_C + (f[:, None] + g[None, :]) / eps)
    return g, K


def _fixed_plan_grads(A: np.ndarray, B: np.ndarray, T: np.ndarray, C: np.ndarray,
                      cost: str) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of <T, C(A, B)> with respect to A and B with the plan T
    held fixed."""
    if cost == "squared_euclidean":
        # dC_ij/da_i = 2 (a_i - b_j)
        grad_a = 2.0 * (T.sum(axis=1)[:, None] * A - T @ B)
        grad_b = 2.0 * (T.sum(axis=0)[:, None] * B - T.T @ A)
        return grad_a, grad_b
    # dC_ij/da_i = (a_i - b_j) / ||a_i - b_j||, zero at coincident points
    W = np.divide(T, C, out=np.zeros_like(T), where=C > 0)
    return W.sum(axis=1)[:, None] * A - W @ B, W.sum(axis=0)[:, None] * B - W.T @ A


def wasserstein_sinkhorn(
    A: np.ndarray,
    B: np.ndarray,
    cfg: SinkhornConfig,
) -> SinkhornResult:
    """Entropic OT between clouds A (n1, r) and B (n0, r), uniform marginals.

    Sinkhorn scalings run in the kernel domain, u = a / (K v) and
    v = b / (K^T u), on a kernel K = exp((f + g - C)/eps) that absorbs the
    dual potentials f, g. The first iteration is a log-domain f- then
    g-half-step from g = 0, which anchors K. Whenever u would leave
    [1/SCALING_BOUND, SCALING_BOUND] (v then cannot, since K's columns sum
    to b), the iteration folds eps * log u into f, redoes the g-half-step in
    the log domain and re-anchors K, so small eps neither overflows nor
    underflows the kernel. Iterations stop when the L1 violation of the row
    marginals after a g-update drops below cfg.tol or cfg.max_iters is hit;
    non-convergence is reported through the ``converged`` flag rather than
    an exception.

    Returns the transport cost of the plan, its exact gradients with
    respect to both clouds under a fixed plan, and the entropic dual value,
    whose exact gradient that fixed-plan gradient is at convergence.
    """
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
    a, b = 1.0 / n1, 1.0 / n0
    log_b = np.full(n0, -np.log(n0))
    # u = a / Kv stays inside the bound exactly when Kv stays inside this
    # range. The anchored kernel's columns sum to b, so K^T u then lies in
    # b * [min u, max u] and v = b / K^T u stays inside the bound too (to
    # rounding): K^T u needs no check of its own and cannot underflow to 0.
    Kv_lo, Kv_hi = a / SCALING_BOUND, a * SCALING_BOUND

    neg_C = -C / eps
    work = np.empty_like(C)
    # The f-half-step from g = 0 in the log domain, where exp(-C/eps) may
    # underflow whole rows or columns.
    f = eps * (-np.log(n1) - _lse(np.add(neg_C, 0.0, out=work), 1))
    g, K = _anchor(neg_C, f, log_b, eps, work)
    u, v = np.ones(n1), np.ones(n0)
    row_err = np.empty(n1)
    lo, hi = np.minimum.reduce, np.maximum.reduce
    iterations = 1
    converged = False
    while True:
        Kv = K @ v
        # After the g-update the column marginals are exact; only the rows
        # can violate.
        np.multiply(u, Kv, out=row_err)
        row_err -= a
        if np.abs(row_err, out=row_err).sum() <= cfg.tol:
            converged = True
            break
        if iterations == cfg.max_iters:
            break
        iterations += 1
        u = a / Kv
        if Kv_lo <= lo(Kv) and hi(Kv) <= Kv_hi:
            v = b / (u @ K)
        else:
            f = f + eps * np.log(u)
            g, K = _anchor(neg_C, f, log_b, eps, work)
            u, v = np.ones(n1), np.ones(n0)

    T = u[:, None] * K * v
    distance = float(np.sum(T * C))
    f = f + eps * np.log(u)
    g = g + eps * np.log(v)
    dual_value = float(a * f.sum() + b * g.sum() - eps * T.sum())

    grad_a, grad_b = _fixed_plan_grads(A, B, T, C, cfg.cost)
    return SinkhornResult(distance=distance, grad_a=grad_a, grad_b=grad_b,
                          iterations=iterations, converged=converged,
                          dual_value=dual_value)


def exact_ot_small(A: np.ndarray, B: np.ndarray, cost: str = "euclidean") -> float:
    """Exact optimal-transport cost with uniform marginals via the LP.

    The oracle that Sinkhorn is checked against (by the tests and by
    ``mbrl check``); instances are capped at n1 * n0 <= 64. scipy is
    imported here, not at module level, so that importing ``mbrl`` loads
    numpy only.
    """
    from scipy.optimize import linprog

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
