"""Self-verification suite: gradient checks, transport oracle agreement,
orthogonality probes and the noise-orthogonality statistic.

Each check returns a pass/fail record; the CLI prints them as a table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .data import SimConfig, simulate_at_kl
from .estimators import noise_orthogonality_stat, orthogonality_probe
from .model import Batch, TrainConfig, build_net, task_gradient_error
from .ot import SinkhornConfig, exact_ot_small, wasserstein_sinkhorn


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _random_net_loss(spec: nn.NetSpec, X: np.ndarray, y: np.ndarray):
    def loss(params: nn.ParamSet):
        out, cache = nn.forward(params, spec, X)
        value = float(np.mean((out - y) ** 2))
        grads, _ = nn.backward(params, spec, cache,
                               2.0 * (out - y) / out.size)
        return value, grads
    return loss


def check_dense_gradients(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for k in range(5):
        widths = tuple(int(w) for w in rng.integers(2, 9, size=rng.integers(2, 4)))
        out_act = "sigmoid" if k % 2 else "identity"
        spec = nn.NetSpec((int(rng.integers(2, 6)), *widths, 1),
                          output_activation=out_act)
        params = nn.init_params(spec, seed=int(rng.integers(0, 2**31)))
        X = rng.normal(size=(5, spec.input_width))
        y = rng.normal(size=(5, 1))
        err = nn.grad_check(spec, params, _random_net_loss(spec, X, y), h=1e-5)
        worst = max(worst, err)
    return CheckResult("dense-net gradients", worst <= 1e-4,
                       f"max relative error {worst:.2e} (tolerance 1e-4)")


def check_task_gradients(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    # Task 2's value is the entropic dual value, whose gradient is the
    # fixed-plan gradient once Sinkhorn has converged; a small eps and a
    # tight tol make the plan near-optimal, and the iteration cap keeps the
    # check fast where convergence is slow.
    cfg = TrainConfig(lambda1=0.05, lambda2=0.05, batch_size=8, epochs=1,
                      phi_depth=2, phi_width=6, pi_depth=2, pi_width=5,
                      head_depth=2, head_width=5,
                      sinkhorn=SinkhornConfig(entropic_reg=0.01, max_iters=3000,
                                              tol=1e-9))
    net = build_net(3, "continuous", cfg, seed=seed)
    net.eps_y[()] = 0.7
    net.eps_d[()] = -0.4
    batch = Batch(3.0 * rng.normal(size=(8, 3)),
                  np.array([1, 0, 1, 0, 1, 1, 0, 0], dtype=float),
                  rng.normal(size=8))
    errs = [task_gradient_error(net, batch, cfg, task, h=1e-5)
            for task in (1, 2, 3)]
    ok = errs[0] <= 1e-4 and errs[2] <= 1e-4 and errs[1] <= 1e-3
    return CheckResult(
        "task objective gradients", ok,
        f"task1 {errs[0]:.2e} task2 {errs[1]:.2e} task3 {errs[2]:.2e}")


def check_ot_oracle(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    cfg = SinkhornConfig(entropic_reg=0.01, max_iters=20000, tol=1e-9)
    worst = 0.0
    for _ in range(20):
        n1, n0 = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        r = int(rng.integers(1, 4))
        A = 2.0 * rng.normal(size=(n1, r))
        B = 2.0 * rng.normal(size=(n0, r))
        exact = exact_ot_small(A, B)
        approx = wasserstein_sinkhorn(A, B, cfg).distance
        gap = abs(approx - exact) / max(0.05 * exact, 1e-3)
        worst = max(worst, gap)
    return CheckResult("optimal-transport oracle", worst <= 1.0,
                       f"worst gap {worst:.3f}x the max(5%, 1e-3) budget")


def check_sinkhorn_invariances(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(6, 3))
    B = rng.normal(size=(4, 3))
    cfg = SinkhornConfig(entropic_reg=0.1, max_iters=20000, tol=1e-12)
    d_ab = wasserstein_sinkhorn(A, B, cfg).distance
    d_ba = wasserstein_sinkhorn(B, A, cfg).distance
    shift = rng.normal(size=3)
    d_shift = wasserstein_sinkhorn(A + shift, B + shift, cfg).distance
    sym = abs(d_ab - d_ba)
    trans = abs(d_ab - d_shift)
    return CheckResult("sinkhorn symmetry/translation",
                       sym <= 1e-9 and trans <= 1e-9,
                       f"symmetry gap {sym:.1e}, translation gap {trans:.1e}")


def _probe_draw(seed: int, n_units: int):
    # Pin the selection-bias level so the true propensity stays inside the
    # overlap region and the probe's Monte Carlo error stays informative.
    n_treated = n_units // 3
    sim = SimConfig(n_treated=n_treated, n_control=n_units - n_treated,
                    dim=10, mu1=np.ones(10), seed=seed)
    data, truth, _ = simulate_at_kl(sim, 0.5, seed)
    return data, truth


def check_orthogonality(seed: int) -> CheckResult:
    data, truth = _probe_draw(seed, 30_000)
    details = []
    ok = True
    for kind in ("psi1", "psi2"):
        for direction in ("perturb_g", "perturb_m"):
            res = orthogonality_probe(kind, data, truth, direction, t=0.05)
            passed = abs(res.derivative) <= 3.0 * res.std_error
            ok = ok and passed
            details.append(f"{kind}/{direction} {res.derivative:+.3f}"
                           f" (3se {3 * res.std_error:.3f})")
    naive = orthogonality_probe("plugin_naive", data, truth, "perturb_g", t=0.05)
    ok = ok and abs(naive.derivative + 1.0) <= 0.05
    details.append(f"naive {naive.derivative:+.4f} (target -1)")
    return CheckResult("orthogonality probes", ok, "; ".join(details))


def check_noise_orthogonality(seed: int) -> CheckResult:
    data, truth = _probe_draw(seed, 10_000)
    res = noise_orthogonality_stat(data, truth)
    passed = abs(res.stat) <= 3.0 * res.std_error
    return CheckResult("noise orthogonality", passed,
                       f"stat {res.stat:+.5f} vs 3se {3 * res.std_error:.5f}")


def run_checks(seed: int) -> list[CheckResult]:
    return [
        check_dense_gradients(seed),
        check_task_gradients(seed + 1),
        check_ot_oracle(seed + 2),
        check_sinkhorn_invariances(seed + 3),
        check_orthogonality(seed + 4),
        check_noise_orthogonality(seed + 5),
    ]
