"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The scaled simulation study (criterion 7) and the Monte Carlo probes use
pinned selection-bias levels through the exact KL inversion, so their
statistics are reproducible under the fixed seeds below.
"""

import os
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import pinned_kl_draw
from mbrl import nn
from mbrl.data import (Dataset, SimConfig, SplitSpec, concat,
                       generate_simulation, kl_target_mu1, load_csv, split,
                       true_ate)
from mbrl.estimators import (NuisanceEstimates, ate_orthogonal, baseline,
                             noise_orthogonality_stat, orthogonality_probe,
                             plug_in_ate, solve_theta)
from mbrl.harness import run_experiment, emit_report
from mbrl.model import (Batch, TrainConfig, build_net, fit,
                        perturbation_error, predict, task_gradient_error)
from mbrl.ot import SinkhornConfig, exact_ot_small, wasserstein_sinkhorn


def _report(criterion: str, passed: bool, detail: str) -> None:
    print(f"\n[{'PASS' if passed else 'FAIL'}] criterion {criterion}: {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def _sigmoid(z):
    a = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + a), a / (1.0 + a))


# =====================================================================
# 1. Gradient suite
# =====================================================================

def test_criterion_1_gradient_suite():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_net = 0.0
    for k in range(20):
        depth = int(rng.integers(1, 4))
        widths = tuple(int(w) for w in rng.integers(2, 17, size=depth))
        in_w = int(rng.integers(2, 9))
        out_act = "sigmoid" if k % 3 == 0 else "identity"
        spec = nn.NetSpec((in_w, *widths, int(rng.integers(1, 4))),
                          output_activation=out_act)
        params = nn.init_params(spec, seed=int(rng.integers(0, 2**31)))
        batch = int(rng.integers(2, 9))
        X = rng.normal(size=(batch, in_w))
        y = rng.normal(size=(batch, spec.output_width))

        def loss(p, spec=spec, X=X, y=y):
            out, cache = nn.forward(p, spec, X)
            grads, _ = nn.backward(p, spec, cache, 2.0 * (out - y) / out.size)
            return float(np.mean((out - y) ** 2)), grads

        worst_net = max(worst_net, nn.grad_check(spec, params, loss, h=1e-5))

    # Task 2's value is the entropic dual value, whose gradient is the
    # fixed-plan gradient the solver returns once the marginals have
    # converged; the iteration budget and tolerance set how close to
    # convergence each finite-difference solve gets.
    cfg = TrainConfig(lambda1=0.05, lambda2=0.05, batch_size=8, epochs=1,
                      phi_depth=2, phi_width=6, pi_depth=2, pi_width=5,
                      head_depth=2, head_width=5,
                      sinkhorn=SinkhornConfig(entropic_reg=0.01,
                                              max_iters=3000, tol=1e-9))
    net = build_net(3, "continuous", cfg, seed=11)
    net.eps_y[()] = 0.7
    net.eps_d[()] = -0.4
    spread = np.random.default_rng(55)
    batch = Batch(3.0 * spread.normal(size=(8, 3)),
                  np.array([1, 0, 1, 0, 1, 1, 0, 0], dtype=float),
                  spread.normal(size=8))
    errs = {t: task_gradient_error(net, batch, cfg, t, h=1e-5) for t in (1, 2, 3)}
    elapsed = time.perf_counter() - started
    ok = (worst_net <= 1e-4 and errs[1] <= 1e-4 and errs[3] <= 1e-4
          and errs[2] <= 1e-3 and elapsed < 60.0)
    _report("1 (gradient suite)", ok,
            f"20 nets max err {worst_net:.2e}; tasks "
            f"{errs[1]:.2e}/{errs[2]:.2e}/{errs[3]:.2e}; {elapsed:.1f}s")


# =====================================================================
# 2. Optimal-transport oracle
# =====================================================================

def test_criterion_2_ot_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(202)
    regs = (0.1, 0.03, 0.01)
    # Ties at the solver's convergence floor count as non-increasing; the
    # floor sits two orders below the 1e-3 accuracy budget.
    floor = 1e-4
    n_monotone = 0
    worst_gap = 0.0
    for _ in range(100):
        n1, n0 = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        r = int(rng.integers(1, 4))
        A = 2.0 * rng.normal(size=(n1, r))
        B = 2.0 * rng.normal(size=(n0, r))
        exact = exact_ot_small(A, B)
        errors = []
        for reg in regs:
            cfg = SinkhornConfig(entropic_reg=reg, max_iters=10000, tol=1e-8)
            errors.append(abs(wasserstein_sinkhorn(A, B, cfg).distance - exact))
        gap = errors[-1] / max(0.05 * exact, 1e-3)
        worst_gap = max(worst_gap, gap)
        if errors[0] >= errors[1] - floor and errors[1] >= errors[2] - floor:
            n_monotone += 1
    elapsed = time.perf_counter() - started
    ok = worst_gap <= 1.0 and n_monotone >= 95 and elapsed < 60.0
    _report("2 (OT oracle)", ok,
            f"worst gap {worst_gap:.3f}x budget; monotone {n_monotone}/100; "
            f"{elapsed:.1f}s")


# =====================================================================
# 3. Orthogonality probes
# =====================================================================

def test_criterion_3_orthogonality_probes():
    started = time.perf_counter()
    data, truth = pinned_kl_draw(seed=303, n_treated=33000, n_control=67000,
                                 kl=0.5)
    details = []
    ok = True
    for kind in ("psi1", "psi2"):
        for direction in ("perturb_g", "perturb_m"):
            res = orthogonality_probe(kind, data, truth, direction, t=0.05)
            passed = abs(res.derivative) <= 3.0 * res.std_error
            ok = ok and passed
            details.append(f"{kind}/{direction} {res.derivative:+.4f}"
                           f"<=3se {3 * res.std_error:.4f}")
    naive = orthogonality_probe("plugin_naive", data, truth, "perturb_g", t=0.05)
    ok = ok and abs(naive.derivative + 1.0) <= 0.05
    details.append(f"naive {naive.derivative:+.4f}")
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 120.0
    _report("3 (orthogonality probes)", ok,
            "; ".join(details) + f"; {elapsed:.1f}s")


# =====================================================================
# 4. Noise orthogonality
# =====================================================================

def test_criterion_4_noise_orthogonality():
    started = time.perf_counter()
    data, truth = pinned_kl_draw(seed=404, n_treated=3300, n_control=6700,
                                 kl=0.5)
    res = noise_orthogonality_stat(data, truth)
    level_ok = abs(res.stat) <= 3.0 * res.std_error

    ratios = []
    for k in range(50):
        small, truth_s = pinned_kl_draw(seed=7000 + 2 * k, n_treated=3300,
                                        n_control=6700, kl=0.5)
        big, truth_b = pinned_kl_draw(seed=7001 + 2 * k, n_treated=330000,
                                      n_control=670000, kl=0.5)
        s = noise_orthogonality_stat(small, truth_s).stat
        b = noise_orthogonality_stat(big, truth_b).stat
        ratios.append(abs(s) / abs(b))
    median_ratio = float(np.median(ratios))
    elapsed = time.perf_counter() - started
    ok = level_ok and 5.0 <= median_ratio <= 20.0 and elapsed < 120.0
    _report("4 (noise orthogonality)", ok,
            f"stat {res.stat:+.5f} <= 3se {3 * res.std_error:.5f}; "
            f"median scaling ratio {median_ratio:.1f} in [5, 20]; {elapsed:.1f}s")


# =====================================================================
# 5. Double robustness
# =====================================================================

def test_criterion_5_double_robustness():
    started = time.perf_counter()
    err_psi1_bad_g, err_plug_bad_g, err_psi1_bad_m = [], [], []
    for rep in range(30):
        data, truth = pinned_kl_draw(seed=505 + rep, n_treated=1667,
                                     n_control=3333, kl=0.5)
        tau = true_ate(data)
        Z = data.covariates
        n = data.n_units
        g0_true = truth.g0(np.zeros(n), Z)
        g1_true = truth.g0(np.ones(n), Z)
        m_true = truth.m0(Z)

        # corrupted outcome head (treated arm shifted by +1), correct propensity
        nuis_bad_g = NuisanceEstimates(g0_hat=g0_true, g1_hat=g1_true + 1.0,
                                       m_hat=m_true)
        err_psi1_bad_g.append(ate_orthogonal("psi1", data, nuis_bad_g).ate - tau)
        err_plug_bad_g.append(plug_in_ate(nuis_bad_g).ate - tau)

        # corrupted propensity (logit shifted by +1), correct outcome heads
        logit = np.log(m_true) - np.log1p(-m_true)
        nuis_bad_m = NuisanceEstimates(g0_hat=g0_true, g1_hat=g1_true,
                                       m_hat=_sigmoid(logit + 1.0))
        err_psi1_bad_m.append(ate_orthogonal("psi1", data, nuis_bad_m).ate - tau)

    def bias_and_se(errors):
        arr = np.asarray(errors)
        return float(arr.mean()), float(arr.std(ddof=1) / np.sqrt(arr.size))

    b_g, se_g = bias_and_se(err_psi1_bad_g)
    b_p, _ = bias_and_se(err_plug_bad_g)
    b_m, se_m = bias_and_se(err_psi1_bad_m)
    elapsed = time.perf_counter() - started
    ok = (abs(b_g) <= 3.0 * se_g and abs(b_p) >= 0.5
          and abs(b_m) <= 3.0 * se_m and elapsed < 300.0)
    _report("5 (double robustness)", ok,
            f"psi1 bias {b_g:+.4f} (3se {3 * se_g:.4f}) under bad g; "
            f"plug-in bias {b_p:+.3f} (>=0.5); "
            f"psi1 bias {b_m:+.4f} (3se {3 * se_m:.4f}) under bad m; "
            f"{elapsed:.1f}s")


# =====================================================================
# 6. Estimator arithmetic
# =====================================================================

def test_criterion_6_worked_examples():
    data = Dataset(np.zeros((2, 1)), [1, 0], [2.0, 0.0])
    nuis = NuisanceEstimates(g0_hat=[1.0, 0.0], g1_hat=[1.0, 1.0],
                             m_hat=[0.5, 0.5])
    theta1_psi1 = solve_theta("psi1", data, nuis, i=1)
    theta1_psi2 = solve_theta("psi2", data, nuis, i=1)
    eps_a = perturbation_error([1.0, -1.0], [0.0, 0.0], [1.0, 1.0],
                               [0.5, 0.5], beta=0.1)
    eps_b = perturbation_error([1.0, 1.0], [0.0, 0.0], [1.0, 1.0],
                               [0.5, 0.5], beta=0.1)
    ok = (theta1_psi1 == pytest.approx(2.0, abs=1e-12)
          and theta1_psi2 == pytest.approx(1.5, abs=1e-12)
          and eps_a == pytest.approx(1.0, abs=1e-12)
          and eps_b == pytest.approx(1.05, abs=1e-12))
    _report("6 (estimator arithmetic)", ok,
            f"theta1(psi1)={theta1_psi1}, theta1(psi2)={theta1_psi2}, "
            f"eps_p={eps_a}, {eps_b}")


# =====================================================================
# 7. Scaled simulation study
# =====================================================================

STUDY_LEVELS = (0.0, 62.85, 141.41)
STUDY_REPS = 20
STUDY_SEED = 11
# Desk-scale study configuration: the outcome model of this generator is
# linear and the nonzero bias levels put the groups 11-17 sigma apart, so a
# linear encoder extrapolates where deep encoders over-balance; see the
# training-config docs for the full-size defaults.
STUDY_CONFIG = TrainConfig(
    lambda1=0.01, lambda2=0.01, batch_size=128, epochs=80,
    learning_rate=1e-3, phi_depth=1, phi_width=128, pi_depth=2, pi_width=64,
    head_depth=2, head_width=64,
    sinkhorn=SinkhornConfig(entropic_reg=0.1, max_iters=100, tol=1e-6))


def _study_replication(level, rep):
    ss = np.random.SeedSequence([STUDY_SEED, int(level * 100), rep])
    s_gen, s_split, s_train = [int(v) for v in ss.generate_state(3, dtype=np.uint32)]
    rng = np.random.default_rng(s_gen)
    dim = 10
    mixing = rng.uniform(-1.0, 1.0, size=(dim, dim))
    cov = 0.5 * mixing @ mixing.T
    mu0 = np.zeros(dim)
    mu1 = kl_target_mu1(np.ones(dim), mu0, cov, level) if level > 0 else mu0
    cfg = SimConfig(n_treated=500, n_control=1000, dim=dim, mu1=mu1, mu0=mu0)
    data, _ = generate_simulation(cfg, seed=s_gen, mixing=mixing)
    tr, va, te = split(data, SplitSpec(0.63, 0.27, 0.10, seed=s_split))
    ckpt = fit(tr, va, replace(STUDY_CONFIG, seed=s_train))
    tau = true_ate(te)
    yhat0, yhat1, _ = predict(ckpt.net, te.covariates)
    err_eps_p = abs(tau - float(np.mean(yhat1 - yhat0)))
    yhat0r, yhat1r, _ = predict(ckpt.net_rmse, te.covariates)
    err_rmse_sel = abs(tau - float(np.mean(yhat1r - yhat0r)))
    ols = baseline("ols_lr1", concat([tr, va]), te)
    err_ols = abs(tau - ols.theta.ate)
    return err_eps_p, err_rmse_sel, err_ols


@pytest.mark.slow
def test_criterion_7_scaled_simulation_study():
    started = time.perf_counter()
    medians = {}
    for level in STUDY_LEVELS:
        rows = np.array([_study_replication(level, rep)
                         for rep in range(STUDY_REPS)])
        medians[level] = np.median(rows, axis=0)  # (eps_p sel, rmse sel, ols)
    elapsed = time.perf_counter() - started

    selection_ok = all(medians[lv][0] <= medians[lv][1] + 1e-12
                       for lv in STUDY_LEVELS[1:])
    beats_ols = all(medians[lv][0] < medians[lv][2] for lv in STUDY_LEVELS)
    detail = "; ".join(
        f"KL={lv}: eps_p {medians[lv][0]:.3f} rmse-sel {medians[lv][1]:.3f} "
        f"ols {medians[lv][2]:.3f}" for lv in STUDY_LEVELS)
    ok = selection_ok and beats_ols and elapsed < 1800.0
    _report("7 (scaled simulation study)", ok, detail + f"; {elapsed:.0f}s")


# =====================================================================
# 8. Optional, data-gated replication comparison
# =====================================================================

def _replication_dir() -> Path:
    return Path(os.environ.get("MBRL_IHDP_DIR", "data/ihdp"))


def test_criterion_8_replication_files_if_present():
    files = sorted(_replication_dir().glob("*.csv"))[:10]
    if len(files) < 10:
        msg = (f"criterion 8 skipped: need >= 10 replication CSVs under "
               f"{_replication_dir()} (found {len(files)}); see README for the schema")
        print(f"\n[SKIP] {msg}")
        pytest.skip(msg)
    cfg = TrainConfig(batch_size=100, epochs=120, phi_depth=2, phi_width=100,
                      pi_depth=2, pi_width=100, head_depth=2, head_width=64,
                      sinkhorn=SinkhornConfig(entropic_reg=0.1, max_iters=100,
                                              tol=1e-6))
    pehe = {"full_mbrl": [], "tarnet_mode": []}
    from mbrl.metrics import pehe_root
    for k, path in enumerate(files):
        data = load_csv(path)
        tr, va, te = split(data, SplitSpec(0.63, 0.27, 0.10, seed=k))
        insample = concat([tr, va])
        g1 = insample.mu1 if insample.mu1 is not None else insample.y1
        g0 = insample.mu0 if insample.mu0 is not None else insample.y0
        for ablation in pehe:
            ckpt = fit(tr, va, replace(cfg, ablation=ablation, seed=1000 + k))
            yhat0, yhat1, _ = predict(ckpt.net, insample.covariates)
            pehe[ablation].append(pehe_root(g1, g0, yhat1, yhat0))
    mbrl_pehe = float(np.mean(pehe["full_mbrl"]))
    tarnet_pehe = float(np.mean(pehe["tarnet_mode"]))
    ok = mbrl_pehe < tarnet_pehe
    _report("8 (replication files)", ok,
            f"in-sample root-PEHE {mbrl_pehe:.3f} vs tarnet {tarnet_pehe:.3f}")


# =====================================================================
# 9. Determinism of bench output
# =====================================================================

def test_criterion_9_bench_determinism(tmp_path):
    from mbrl.harness import ExperimentConfig
    cfg = ExperimentConfig(
        source="simulator",
        sim=SimConfig(n_treated=40, n_control=80, dim=3),
        split=SplitSpec(0.6, 0.2, 0.2),
        train=TrainConfig(batch_size=16, epochs=2, phi_depth=2, phi_width=8,
                          pi_depth=2, pi_width=6, head_depth=2, head_width=6,
                          sinkhorn=SinkhornConfig(entropic_reg=0.1,
                                                  max_iters=50, tol=1e-6)),
        estimators=("plugin", "psi1", "ols_lr1"),
        replications=2,
        seed=9,
    )
    texts = []
    for run in ("a", "b"):
        out = tmp_path / run
        emit_report(run_experiment(cfg), out)
        texts.append((out / "report.json").read_bytes())
    ok = texts[0] == texts[1]
    _report("9 (bench determinism)", ok,
            f"two runs produced byte-identical report.json ({len(texts[0])} bytes)")
