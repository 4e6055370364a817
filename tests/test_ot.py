import numpy as np
import pytest

from mbrl import ot
from mbrl.ot import SinkhornConfig, exact_ot_small, wasserstein_sinkhorn

TIGHT = SinkhornConfig(entropic_reg=0.01, max_iters=20000, tol=1e-9)


# ---------------------------------------------------------------- exact oracle

def test_exact_identical_clouds_is_zero():
    A = np.random.default_rng(0).normal(size=(4, 2))
    assert exact_ot_small(A, A) == pytest.approx(0.0, abs=1e-9)


def test_exact_two_point_instance():
    # {0, 2} -> {1, 1}: both plans cost 1.0
    assert exact_ot_small(np.array([[0.0], [2.0]]),
                          np.array([[1.0], [1.0]])) == pytest.approx(1.0)


def test_exact_asymmetric_instance():
    # {0, 1} -> {2}: mass 1/2 moves distance 2 and 1 -> 1.5
    assert exact_ot_small(np.array([[0.0], [1.0]]),
                          np.array([[2.0]])) == pytest.approx(1.5)


def test_exact_rejects_large_instances():
    A = np.zeros((10, 1))
    B = np.zeros((10, 1))
    with pytest.raises(ValueError, match="instance too large"):
        exact_ot_small(A, B)


# ---------------------------------------------------------------- sinkhorn

def test_sinkhorn_single_point_pair_is_exact():
    res = wasserstein_sinkhorn(np.array([[0.0]]), np.array([[1.0]]),
                               SinkhornConfig(entropic_reg=1e-3, max_iters=100,
                                              tol=1e-12))
    assert res.distance == pytest.approx(1.0, abs=1e-3)


def test_sinkhorn_identity_bound_and_reg_decay():
    A = np.random.default_rng(1).normal(size=(6, 2))
    prev = np.inf
    for reg in (0.3, 0.1, 0.03):
        res = wasserstein_sinkhorn(A, A.copy(),
                                   SinkhornConfig(entropic_reg=reg,
                                                  max_iters=20000, tol=1e-10))
        assert res.distance <= reg * np.log(6) + 1e-9
        assert res.distance <= prev + 1e-12
        prev = res.distance


def test_sinkhorn_matches_exact_small_instance():
    A = np.array([[0.0], [1.0]])
    B = np.array([[2.0]])
    res = wasserstein_sinkhorn(A, B, SinkhornConfig(entropic_reg=0.01,
                                                    max_iters=5000, tol=1e-10))
    assert res.distance == pytest.approx(1.5, rel=0.05)


def test_sinkhorn_symmetry():
    rng = np.random.default_rng(2)
    A = rng.normal(size=(5, 3))
    B = rng.normal(size=(7, 3))
    cfg = SinkhornConfig(entropic_reg=0.1, max_iters=20000, tol=1e-12)
    d1 = wasserstein_sinkhorn(A, B, cfg).distance
    d2 = wasserstein_sinkhorn(B, A, cfg).distance
    assert abs(d1 - d2) <= 1e-9


# The ground cost is Euclidean; the cases that covered it keep their
# "euclidean" ids.
@pytest.mark.parametrize("cost", ["euclidean"])
def test_sinkhorn_translation_invariance(cost):
    rng = np.random.default_rng(3)
    A = rng.normal(size=(4, 2))
    B = rng.normal(size=(6, 2))
    shift = rng.normal(size=2)
    cfg = SinkhornConfig(entropic_reg=0.1, max_iters=20000, tol=1e-12)
    d1 = wasserstein_sinkhorn(A, B, cfg).distance
    d2 = wasserstein_sinkhorn(A + shift, B + shift, cfg).distance
    assert abs(d1 - d2) <= 1e-9


def test_sinkhorn_reports_convergence_flag():
    rng = np.random.default_rng(4)
    A = rng.normal(size=(5, 2))
    B = rng.normal(size=(5, 2))
    res = wasserstein_sinkhorn(A, B, SinkhornConfig(entropic_reg=0.01,
                                                    max_iters=3, tol=1e-12))
    assert res.iterations == 3
    assert not res.converged


def test_sinkhorn_rejects_non_finite():
    # pytest turns warnings into errors, so a RuntimeWarning from arithmetic
    # on the bad value before the check would fail the test.
    for bad in (np.nan, np.inf, -np.inf):
        for cloud in ("A", "B"):
            rng = np.random.default_rng(8)
            clouds = {"A": rng.normal(size=(3, 2)), "B": rng.normal(size=(4, 2))}
            clouds[cloud][1, 0] = bad
            with pytest.raises(ValueError, match="non-finite"):
                wasserstein_sinkhorn(clouds["A"], clouds["B"], SinkhornConfig())


def test_sinkhorn_config_validation():
    with pytest.raises(ValueError):
        SinkhornConfig(entropic_reg=0.0)
    with pytest.raises(ValueError):
        SinkhornConfig(max_iters=0)


def test_over_relaxation_halves_the_iterations_of_a_study_shaped_instance(monkeypatch):
    # The shape and setting of a study minibatch: 57 treated and 71 control
    # representations in R^128, eps 0.1, tol 1e-6, 100 iterations.
    rng = np.random.default_rng(0)
    A = 0.6 * rng.normal(size=(57, 128))
    B = 0.6 * rng.normal(size=(71, 128))
    cfg = SinkhornConfig(entropic_reg=0.1, max_iters=100, tol=1e-6)
    relaxed = wasserstein_sinkhorn(A, B, cfg)
    monkeypatch.setattr(ot, "OMEGA", 1.0)
    plain = wasserstein_sinkhorn(A, B, cfg)
    assert relaxed.converged and plain.converged
    assert 2 * relaxed.iterations < plain.iterations
    # Both converge to the same plan, to within the tolerance.
    assert relaxed.distance == pytest.approx(plain.distance, rel=1e-5)


@pytest.mark.parametrize("omega", [1.2, 1.5, 1.8])
def test_lyapunov_ratio_is_the_root_of_the_relaxed_change(omega):
    def h(r):
        return (r ** omega - 1.0) / r - omega * np.log(r)

    r_max = ot._lyapunov_ratio(omega)
    assert np.all(h(np.linspace(1.0 + 1e-3, r_max * (1 - 1e-9), 1000)) < 0)
    assert h(r_max * (1 + 1e-9)) > 0
    assert ot._lyapunov_ratio(1.0) == np.inf
    assert ot.RELAXED_FLOOR == 1.0 / ot._lyapunov_ratio(ot.OMEGA)


# ---------------------------------------------------------------- oracle agreement

@pytest.mark.parametrize("seed", range(12))
def test_sinkhorn_close_to_oracle_on_random_instances(seed):
    rng = np.random.default_rng(1000 + seed)
    n1, n0 = int(rng.integers(2, 9)), int(rng.integers(2, 9))
    r = int(rng.integers(1, 4))
    A = 2.0 * rng.normal(size=(n1, r))
    B = 2.0 * rng.normal(size=(n0, r))
    exact = exact_ot_small(A, B)
    approx = wasserstein_sinkhorn(A, B, TIGHT).distance
    assert abs(approx - exact) <= max(0.05 * exact, 1e-3)


def test_sinkhorn_error_tightens_as_reg_decreases():
    rng = np.random.default_rng(42)
    A = 2.0 * rng.normal(size=(6, 2))
    B = 2.0 * rng.normal(size=(7, 2))
    exact = exact_ot_small(A, B)
    errors = []
    for reg in (0.1, 0.03, 0.01):
        cfg = SinkhornConfig(entropic_reg=reg, max_iters=20000, tol=1e-9)
        errors.append(abs(wasserstein_sinkhorn(A, B, cfg).distance - exact))
    assert errors[0] >= errors[1] >= errors[2]


# ---------------------------------------------------------------- gradients

def _fd_grad_a(A, B, cfg, h=1e-6):
    grad = np.zeros_like(A)
    for i in range(A.shape[0]):
        for j in range(A.shape[1]):
            A[i, j] += h
            fp = wasserstein_sinkhorn(A, B, cfg).distance
            A[i, j] -= 2 * h
            fm = wasserstein_sinkhorn(A, B, cfg).distance
            A[i, j] += h
            grad[i, j] = (fp - fm) / (2 * h)
    return grad


@pytest.mark.parametrize("cost", ["euclidean"])
def test_envelope_gradient_matches_finite_differences(cost):
    rng = np.random.default_rng(5)
    A = rng.normal(size=(4, 2))
    B = rng.normal(size=(5, 2))
    cfg = SinkhornConfig(entropic_reg=0.01, max_iters=20000, tol=1e-11)
    res = wasserstein_sinkhorn(A, B, cfg)
    numeric = _fd_grad_a(A, B, cfg)
    rel = np.abs(res.grad_a - numeric) / np.maximum(
        1.0, np.abs(res.grad_a) + np.abs(numeric))
    assert rel.max() <= 1e-3


# ---------------------------------------------------------------- dual value

@pytest.mark.parametrize("cost", ["euclidean"])
def test_fixed_plan_gradient_is_the_gradient_of_the_dual_value(cost):
    # At eps = 0.5 the plan is far from a vertex, so the transport cost's own
    # gradient differs from the fixed-plan one; the entropic dual value's
    # gradient is the fixed-plan one at convergence.
    rng = np.random.default_rng(6)
    A = rng.normal(size=(4, 2))
    B = rng.normal(size=(5, 2))
    cfg = SinkhornConfig(entropic_reg=0.5, max_iters=20000, tol=1e-13)
    res = wasserstein_sinkhorn(A, B, cfg)
    h = 1e-6
    numeric = np.zeros_like(A)
    for i in range(A.shape[0]):
        for j in range(A.shape[1]):
            A[i, j] += h
            fp = wasserstein_sinkhorn(A, B, cfg).dual_value
            A[i, j] -= 2 * h
            fm = wasserstein_sinkhorn(A, B, cfg).dual_value
            A[i, j] += h
            numeric[i, j] = (fp - fm) / (2 * h)
    np.testing.assert_allclose(res.grad_a, numeric, rtol=0, atol=1e-7)


# ---------------------------------------------------------------- log-domain reference

def _sinkhorn_plan_rebuild(A, B, cfg):
    """The log-domain solver that rebuilds the plan every iteration to test
    the marginals. Kept as the reference the kernel-domain solver must
    follow: the same iterations and flag, the same numbers to rounding.

    The first iteration is a plain f- then g-half-step from g = 0. Every
    later half-step is over-relaxed in the log domain,
    f <- (1 - w) f + w f_half and likewise for g, with w = ot.OMEGA, or
    w = 1 when some marginal of the plan it starts from is below
    ot.RELAXED_FLOOR times its target. Returns the number of half-steps run
    at w = 1 after the first iteration as well."""
    def lse(M, axis):
        mx = M.max(axis=axis, keepdims=True)
        return mx.squeeze(axis) + np.log(np.exp(M - mx).sum(axis=axis))

    n1, n0 = A.shape[0], B.shape[0]
    C = np.sqrt(np.maximum(np.sum(A * A, axis=1)[:, None]
                           + np.sum(B * B, axis=1)[None, :] - 2.0 * A @ B.T, 0.0))
    eps = cfg.entropic_reg
    log_a = np.full(n1, -np.log(n1))
    log_b = np.full(n0, -np.log(n0))
    neg_C = -C / eps

    def f_half(g):
        return eps * (log_a - lse(neg_C + g[None, :] / eps, 1))

    def g_half(f):
        return eps * (log_b - lse(neg_C + f[:, None] / eps, 0))

    def plan(f, g):
        return np.exp(neg_C + (f[:, None] + g[None, :]) / eps)

    def relaxation(marginal, target):
        return ot.OMEGA if marginal.min() >= ot.RELAXED_FLOOR * target else 1.0

    f = f_half(np.zeros(n0))
    g = g_half(f)
    iterations, converged, fallbacks = 1, False, 0
    while True:
        T = plan(f, g)
        err = (np.abs(T.sum(axis=1) - 1.0 / n1).sum()
               + np.abs(T.sum(axis=0) - 1.0 / n0).sum())
        if err <= cfg.tol:
            converged = True
            break
        if iterations == cfg.max_iters:
            break
        iterations += 1
        w = relaxation(T.sum(axis=1), 1.0 / n1)
        f = (1.0 - w) * f + w * f_half(g)
        fallbacks += w == 1.0
        w = relaxation(plan(f, g).sum(axis=0), 1.0 / n0)
        g = (1.0 - w) * g + w * g_half(f)
        fallbacks += w == 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        W = np.where(C > 0, T / np.where(C > 0, C, 1.0), 0.0)
    grad_a = W.sum(axis=1)[:, None] * A - W @ B
    grad_b = W.sum(axis=0)[:, None] * B - W.T @ A
    return float(np.sum(T * C)), grad_a, grad_b, iterations, converged, fallbacks


def test_euclidean_gradient_weights_match_the_two_where_expression_bitwise():
    # Integer coordinates keep the distance expansion exact, so coincident
    # points give exact-zero cells.
    rng = np.random.default_rng(40)
    A = rng.integers(-3, 4, size=(40, 16)).astype(float)
    B = rng.integers(-3, 4, size=(80, 16)).astype(float)
    B[:3] = A[:3]
    C = ot._cost_matrix(A, B)
    assert np.count_nonzero(C == 0) >= 3
    T = rng.random(C.shape) / C.size
    with np.errstate(divide="ignore", invalid="ignore"):
        W = np.where(C > 0, T / np.where(C > 0, C, 1.0), 0.0)
    want = (W.sum(axis=1)[:, None] * A - W @ B, W.sum(axis=0)[:, None] * B - W.T @ A)
    with np.errstate(all="raise"):
        got = ot._fixed_plan_grads(A, B, T, C)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()


def _assert_follows_reference(A, B, cfg, rtol):
    # Floating-point errors raise, so no overflow, division by zero or
    # invalid operation hides in the kernel-domain path.
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        res = wasserstein_sinkhorn(A, B, cfg)
    distance, grad_a, grad_b, iterations, converged, fallbacks = _sinkhorn_plan_rebuild(
        A, B, cfg)
    assert (res.iterations, res.converged) == (iterations, converged)
    assert np.isfinite(res.distance) and np.isfinite(res.dual_value)
    np.testing.assert_allclose(res.distance, distance, rtol=rtol, atol=0)
    # A gradient entry is a difference of two plan-weighted sums, so its own
    # relative error carries their cancellation; compare against the scale
    # of the whole gradient.
    for got, want in ((res.grad_a, grad_a), (res.grad_b, grad_b)):
        np.testing.assert_allclose(got, want, rtol=0, atol=rtol * np.abs(want).max())
    return res, fallbacks


# The name is older than the kernel-domain solver, which follows the
# reference to rounding rather than to the bit.
@pytest.mark.parametrize("cost", ["euclidean"])
@pytest.mark.parametrize("max_iters,tol,want_converged", [
    (1000, 1e-6, True),     # converges well inside the cap
    (5, 1e-12, False),      # stops at the cap
])
@pytest.mark.parametrize("seed", range(4))
def test_sinkhorn_matches_plan_rebuild_reference_bitwise(cost, max_iters, tol,
                                                         want_converged, seed):
    rng = np.random.default_rng(300 + seed)
    n1, n0, r = 20 + 7 * seed, 35 + 5 * seed, 16
    A = rng.normal(size=(n1, r))
    B = rng.normal(size=(n0, r)) + 0.3
    B[0] = A[0]  # one coincident pair: a zero-cost cell
    cfg = SinkhornConfig(entropic_reg=0.5, max_iters=max_iters, tol=tol)
    res, _ = _assert_follows_reference(A, B, cfg, rtol=1e-12)
    assert res.converged is want_converged


def _count_anchors(monkeypatch):
    """Records, for each re-anchor, whether u and v lay outside the bound."""
    calls = []
    reanchor = ot._reanchor

    def counted(neg_C, f, g, u, v, *rest):
        calls.append(tuple(bool(np.any(np.abs(np.log(s)) > np.log(ot.SCALING_BOUND)))
                           for s in (u, v)))
        return reanchor(neg_C, f, g, u, v, *rest)

    monkeypatch.setattr(ot, "_reanchor", counted)
    return calls


@pytest.mark.parametrize("seed", range(3))
def test_sinkhorn_reanchors_past_an_underflowed_kernel_column(seed, monkeypatch):
    # One control point far from every treated point: at eps = 1e-3 its
    # whole column of exp(-C/eps) underflows to zero.
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(6, 2))
    B = rng.normal(size=(7, 2))
    B[0] = [40.0, 40.0]
    cfg = SinkhornConfig(entropic_reg=1e-3, max_iters=5000, tol=1e-9)
    assert not np.any(np.exp(-np.linalg.norm(A - B[0], axis=1) / 1e-3))
    anchors = _count_anchors(monkeypatch)
    # The reference's potentials reach max(C)/eps ~ 6e4, so each of its exps
    # carries ~6e4 * 2**-52 ~ 1e-11 relative rounding.
    res, _ = _assert_follows_reference(A, B, cfg, rtol=1e-9)
    assert res.converged
    assert anchors


@pytest.mark.parametrize("seed", range(3))
def test_sinkhorn_reanchors_when_a_scaling_leaves_its_bound(seed, monkeypatch):
    # At eps = 0.01 the potentials move by more than eps * log(SCALING_BOUND)
    # between anchors, so u or v would leave the bound.
    rng = np.random.default_rng(10 + seed)
    A = rng.normal(size=(10, 3))
    B = rng.normal(size=(12, 3)) + 1.0
    cfg = SinkhornConfig(entropic_reg=0.01, max_iters=5000, tol=1e-9)
    anchors = _count_anchors(monkeypatch)
    res, _ = _assert_follows_reference(A, B, cfg, rtol=1e-12)
    assert res.converged
    assert anchors


@pytest.mark.parametrize("seed", [3, 8])
def test_sinkhorn_reanchors_when_only_v_leaves_its_bound(seed, monkeypatch):
    # Over-relaxation moves both potentials, so the column scaling v can
    # leave the bound while u stays inside it.
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(10, 3))
    B = rng.normal(size=(12, 3)) + 1.0
    cfg = SinkhornConfig(entropic_reg=0.01, max_iters=5000, tol=1e-9)
    anchors = _count_anchors(monkeypatch)
    res, _ = _assert_follows_reference(A, B, cfg, rtol=1e-12)
    assert res.converged
    assert anchors[0] == (False, True)


@pytest.mark.parametrize("seed", [0, 3, 10])
def test_sinkhorn_converges_through_a_fallback_half_step(seed):
    # A tight treated cloud against a wider control cloud: after the first
    # iteration some marginal is below RELAXED_FLOOR times its target, so a
    # half-step runs at omega = 1.
    rng = np.random.default_rng(seed)
    A = 0.3 * rng.normal(size=(9, 2))
    B = rng.normal(size=(8, 2)) + 1.0
    cfg = SinkhornConfig(entropic_reg=0.03, max_iters=3000, tol=1e-9)
    res, fallbacks = _assert_follows_reference(A, B, cfg, rtol=1e-12)
    assert fallbacks >= 1
    assert res.converged
