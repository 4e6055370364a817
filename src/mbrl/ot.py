"""Wasserstein imbalance distance between treated and control point clouds.

The practical surrogate is entropic-regularized optimal transport with
uniform marginals and a Euclidean ground cost, solved by over-relaxed
Sinkhorn scalings in the kernel domain on a kernel that absorbs the dual
potentials and is rebuilt from them whenever a scaling leaves its bound.
The reported distance is the transport cost of the plan (entropy term
excluded); gradients treat the plan as fixed (envelope gradients), which
makes them, at convergence, the gradients of the entropic dual value the
solver also reports. A small-instance exact LP solver serves as an
independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .records import bounded, check_fields

EXACT_OT_MAX_CELLS = 64

# Kernel-domain scalings u, v stay within [1/SCALING_BOUND, SCALING_BOUND];
# an iteration that leaves it folds them into the potentials and rebuilds
# the kernel from those (re-anchoring).
SCALING_BOUND = 1e6

# Over-relaxation factor of the kernel-domain scalings (Thibault, Chizat,
# Dossal & Papadakis 2021); 1 is plain Sinkhorn.
OMEGA = 1.5


@dataclass(frozen=True)
class SinkhornConfig:
    entropic_reg: float = bounded(0.1, positive=True)
    max_iters: int = bounded(200, at_least=1)
    tol: float = bounded(1e-6, positive=True)

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


def _lyapunov_ratio(omega: float) -> float:
    """The largest marginal ratio r (target over current) at which a
    half-step relaxed by ``omega`` cannot raise the Lyapunov function, the
    negated entropic dual objective sum(u * K v) - <a, log u> - <b, log v>.

    Relaxing entry i multiplies its scaling by r_i^omega and changes the
    function by a_i * h(r_i), h(r) = (r^omega - 1)/r - omega*log(r). For
    1 < omega < 2, h < 0 on (0, 1) and on (1, r*), so every r_i <= r* is a
    sufficient condition for the half-step to keep omega, in the spirit of
    Thibault et al.'s admissible-omega bound; at omega <= 1, h <= 0 for
    every r."""
    if omega <= 1.0:
        return np.inf
    def h(x):  # h(e^x) * e^x, whose sign is h's; < 0 just above x = 0
        return np.expm1(omega * x) - omega * x * np.exp(x)
    lo, hi = 0.0, 1.0
    while h(hi) <= 0.0:
        lo, hi = hi, 2.0 * hi
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if h(mid) <= 0.0 else (lo, mid)
    return float(np.exp(lo))


# A relaxed half-step keeps OMEGA while every marginal is at least
# RELAXED_FLOOR times its target; otherwise it runs at omega = 1.
RELAXED_FLOOR = 1.0 / _lyapunov_ratio(OMEGA)


def _cost_matrix(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Euclidean distances between the rows of A and those of B."""
    d2 = (np.sum(A * A, axis=1)[:, None] + np.sum(B * B, axis=1)[None, :]
          - 2.0 * A @ B.T)
    return np.sqrt(np.maximum(d2, 0.0))


def _first_anchor(neg_C: np.ndarray, eps: float, a: float, b: float,
                  K: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first iteration, plain and in the log domain, where exp(-C/eps)
    may underflow whole rows or columns: the f-half-step from g = 0, then
    the g-half-step. Returns (f, g) and writes the kernel
    exp((f + g - C)/eps) / a into K, built from the g-step's exp buffer.
    Its columns sum to b/a, and each row holds an entry of at least b / n0,
    so no row or column of the kernel underflows."""
    mx = neg_C.max(axis=1)
    np.subtract(neg_C, mx[:, None], out=K)
    f = eps * (np.log(a) - (mx + np.log(np.exp(K, out=K).sum(axis=1))))
    np.add(neg_C, (f / eps)[:, None], out=K)
    mx = K.max(axis=0)
    K -= mx
    colsum = np.exp(K, out=K).sum(axis=0)
    g = eps * (np.log(b) - (mx + np.log(colsum)))
    K *= (b / a) / colsum
    return f, g


def _reanchor(neg_C: np.ndarray, f: np.ndarray, g: np.ndarray, u: np.ndarray,
              v: np.ndarray, eps: float, a: float, K: np.ndarray) -> None:
    """Fold the scalings into the potentials (f += eps log u, g += eps log
    v), rebuild K = exp((f + g - C)/eps) / a in place and reset u = v = 1.
    A change of variables: the plan a * u K v is the same before and after."""
    f += eps * np.log(u)
    g += eps * np.log(v)
    np.add(neg_C, np.add.outer(f / eps - np.log(a), g / eps), out=K)
    np.exp(K, out=K)
    u.fill(1.0)
    v.fill(1.0)


def _fixed_plan_grads(A: np.ndarray, B: np.ndarray, T: np.ndarray,
                      C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of <T, C(A, B)> with respect to A and B with the plan T
    held fixed, for the Euclidean cost C."""
    # dC_ij/da_i = (a_i - b_j) / ||a_i - b_j||, zero at coincident points
    W = np.divide(T, C, out=np.zeros_like(T), where=C > 0)
    grad_a = W.sum(axis=1)[:, None] * A
    grad_a -= W @ B
    grad_b = W.sum(axis=0)[:, None] * B
    grad_b -= W.T @ A
    return grad_a, grad_b


def wasserstein_sinkhorn(
    A: np.ndarray,
    B: np.ndarray,
    cfg: SinkhornConfig,
) -> SinkhornResult:
    """Entropic OT between clouds A (n1, r) and B (n0, r), uniform marginals,
    Euclidean cost.

    The first iteration is a plain log-domain f- then g-half-step from
    g = 0, which anchors a kernel K = exp((f + g - C)/eps) that absorbs the
    dual potentials f, g. Every later iteration runs in the kernel domain as
    two over-relaxed scalings (Thibault et al. 2021),
    u <- u * (a / (u * K v))^w and then v <- v * (b / (v * K^T u))^w, with
    w = OMEGA, except that a half-step that could raise the Lyapunov
    function (some marginal below RELAXED_FLOOR times its target) runs at
    w = 1. Whenever u or v leaves [1/SCALING_BOUND, SCALING_BOUND], the
    scalings are folded into f and g and K is rebuilt (re-anchoring), so
    small eps neither overflows nor underflows the kernel. Iterations stop
    when the L1 violations of the row and column marginals sum to at most
    cfg.tol, or when cfg.max_iters is hit; non-convergence is reported
    through the ``converged`` flag rather than an exception.

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
    if not (np.isfinite(A).all() and np.isfinite(B).all()):
        raise ValueError("non-finite inputs")

    n1, n0 = A.shape[0], B.shape[0]
    C = _cost_matrix(A, B)
    eps, tol, max_iters, omega = cfg.entropic_reg, cfg.tol, cfg.max_iters, OMEGA
    a, b = 1.0 / n1, 1.0 / n0
    neg_C = C / -eps
    K = np.empty_like(C)
    f, g = _first_anchor(neg_C, eps, a, b, K)

    # K holds the kernel over a, so the plan is a * u K v, q = u * K v is its
    # row marginal over the target a and p = v * K^T u its column marginal
    # over a (target beta = b/a). u and v share one buffer, so one pair of
    # lookups bounds both. Every per-iteration result goes to a preallocated
    # vector; for vectors this short, argmin/argmax lookups cost less than
    # the reductions min and max.
    uv = np.ones(n1 + n0)
    u, v = uv[:n1], uv[n1:]
    q, p, err_q = np.empty(n1), np.empty(n0), np.empty(n1)
    beta = b / a
    floor_p = RELAXED_FLOOR * beta
    lo_bound, hi_bound = 1.0 / SCALING_BOUND, SCALING_BOUND
    dot, mul, div, pw = np.dot, np.multiply, np.divide, np.power
    iterations = 1
    converged = False
    while True:
        mul(u, dot(K, v, out=q), out=q)
        q_lo = q[q.argmin()]
        # Each row's own violation bounds the rows' L1 error from below, so
        # the sums are taken only once neither extreme row alone exceeds tol.
        if a * (1.0 - q_lo) <= tol and a * (q[q.argmax()] - 1.0) <= tol:
            err = a * np.abs(np.subtract(q, 1.0, out=err_q), out=err_q).sum()
            if err <= tol:
                mul(v, dot(u, K, out=p), out=p)
                err += a * np.abs(np.subtract(p, beta, out=p), out=p).sum()
                if err <= tol:
                    converged = True
                    break
        if iterations == max_iters:
            break
        iterations += 1
        w = omega if q_lo >= RELAXED_FLOOR else 1.0
        u *= pw(q, -w, out=q)
        mul(v, dot(u, K, out=p), out=p)
        w = omega if p[p.argmin()] >= floor_p else 1.0
        v *= pw(div(beta, p, out=p), w, out=p)
        if not (uv[uv.argmin()] >= lo_bound and uv[uv.argmax()] <= hi_bound):
            _reanchor(neg_C, f, g, u, v, eps, a, K)

    # The plan, in K's buffer; its mass is a * sum(q).
    T = K
    T *= (a * u)[:, None]
    T *= v
    distance = float(np.vdot(T, C))
    f += eps * np.log(u)
    g += eps * np.log(v)
    dual_value = float(a * f.sum() + b * g.sum() - eps * a * q.sum())

    grad_a, grad_b = _fixed_plan_grads(A, B, T, C)
    return SinkhornResult(distance=distance, grad_a=grad_a, grad_b=grad_b,
                          iterations=iterations, converged=converged,
                          dual_value=dual_value)


def exact_ot_small(A: np.ndarray, B: np.ndarray) -> float:
    """Exact optimal-transport cost with uniform marginals and a Euclidean
    ground cost, via the LP.

    The oracle that Sinkhorn is checked against (by the tests and by
    ``mbrl check``); instances are capped at n1 * n0 <= 64. scipy is
    imported here, not at module level, so that importing ``mbrl`` loads
    numpy only.
    """
    from scipy.optimize import linprog

    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[1]:
        raise ValueError("A and B must be 2-d with matching feature dimension")
    n1, n0 = A.shape[0], B.shape[0]
    if n1 * n0 > EXACT_OT_MAX_CELLS:
        raise ValueError("instance too large")

    C = _cost_matrix(A, B).reshape(-1)
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
