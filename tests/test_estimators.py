import numpy as np
import pytest

from mbrl import estimators
from mbrl.data import Dataset, SimConfig, generate_simulation
from mbrl.estimators import (PROBE_DELTA_SCALE, NuisanceEstimates, ThetaPair,
                             ate_orthogonal, baseline, noise_orthogonality_stat,
                             orthogonality_probe, plug_in_ate, score,
                             solve_theta)


def _worked_example():
    """Two units: {d=1, y=2, g1=1, m=0.5} and {d=0, y=0, g1=1, m=0.5}."""
    data = Dataset(np.zeros((2, 1)), [1, 0], [2.0, 0.0])
    nuis = NuisanceEstimates(g0_hat=[1.0, 0.0], g1_hat=[1.0, 1.0],
                             m_hat=[0.5, 0.5])
    return data, nuis


# ---------------------------------------------------------------- containers

def test_theta_pair_ate_identity():
    pair = ThetaPair(theta0=0.25, theta1=1.0)
    assert pair.ate == pair.theta1 - pair.theta0


def test_nuisance_clamping():
    nuis = NuisanceEstimates(g0_hat=[0.0, 0.0], g1_hat=[0.0, 0.0],
                             m_hat=[1e-9, 0.5])
    assert nuis.m_hat[0] == 1e-4
    assert nuis.n_clamped == 1


def test_nuisance_validation():
    with pytest.raises(ValueError, match="equal length"):
        NuisanceEstimates(g0_hat=[0.0], g1_hat=[0.0, 1.0], m_hat=[0.5])


# ---------------------------------------------------------------- plug-in

def test_plug_in_examples():
    nuis = NuisanceEstimates(g0_hat=[1.0, 1.0], g1_hat=[2.0, 2.0],
                             m_hat=[0.5, 0.5])
    assert plug_in_ate(nuis).ate == pytest.approx(1.0)
    same = NuisanceEstimates(g0_hat=[1.0, 3.0], g1_hat=[1.0, 3.0],
                             m_hat=[0.5, 0.5])
    assert plug_in_ate(same).ate == 0.0


def test_plug_in_shift_invariance():
    rng = np.random.default_rng(0)
    g0, g1 = rng.normal(size=(2, 10))
    m = np.full(10, 0.4)
    base = plug_in_ate(NuisanceEstimates(g0, g1, m)).ate
    shifted = plug_in_ate(NuisanceEstimates(g0 + 3.0, g1 + 3.0, m)).ate
    assert shifted == pytest.approx(base)


# ---------------------------------------------------------------- scores

def test_score_psi1_arithmetic():
    # zero-residual case vanishes for any m, d
    assert score("psi1", y=1.0, d=1, g0=0.0, g1=1.0, m=0.3, theta=1.0, i=1) == 0.0
    # direct evaluation
    assert score("psi1", y=2.0, d=1, g0=0.0, g1=1.0, m=0.5, theta=0.0,
                 i=1) == pytest.approx(-3.0)
    # indicator kills the residual term
    assert score("psi1", y=123.0, d=0, g0=0.0, g1=1.0, m=0.5, theta=1.0, i=1) == 0.0


def test_score_psi2_arithmetic():
    # g_i = g1 (i = 1) and g_d = g1 at d = 1, g0 at d = 0
    assert score("psi2", y=1.0, d=1, g0=5.0, g1=1.0, m=0.3, theta=1.0, i=1) == 0.0
    # (d-m)^2/(m(1-m)) = 1 at d=1, m=0.5
    assert score("psi2", y=2.0, d=1, g0=5.0, g1=1.0, m=0.5, theta=0.0,
                 i=1) == pytest.approx(-2.0)
    assert score("psi2", y=0.0, d=0, g0=0.0, g1=1.0, m=0.5, theta=1.0,
                 i=1) == pytest.approx(0.0)


def test_solve_theta_worked_examples():
    data, nuis = _worked_example()
    assert solve_theta("psi1", data, nuis, i=1) == pytest.approx(2.0)
    assert solve_theta("psi2", data, nuis, i=1) == pytest.approx(1.5)


def test_ate_orthogonal_theta0_branch():
    data, nuis = _worked_example()
    pair = ate_orthogonal("psi1", data, nuis)
    assert pair.theta0 == pytest.approx(0.5)  # (1 + 0) / 2
    assert pair.theta1 == pytest.approx(2.0)


def test_orthogonal_equals_plug_in_at_zero_residuals():
    rng = np.random.default_rng(1)
    n = 50
    g0 = rng.normal(size=n)
    g1 = rng.normal(size=n)
    d = rng.integers(0, 2, size=n)
    d[:2] = [0, 1]
    y = np.where(d == 1, g1, g0)  # factual residuals are exactly zero
    data = Dataset(rng.normal(size=(n, 2)), d, y)
    nuis = NuisanceEstimates(g0, g1, np.full(n, 0.3))
    plug = plug_in_ate(nuis)
    for kind in ("psi1", "psi2"):
        pair = ate_orthogonal(kind, data, nuis)
        assert pair.ate == pytest.approx(plug.ate, abs=1e-12)


def test_mean_score_vanishes_at_solution():
    # both scores are affine in theta with unit slope; the closed form
    # zeroes the empirical mean score to machine precision
    rng = np.random.default_rng(2)
    n = 200
    data = Dataset(rng.normal(size=(n, 3)),
                   rng.integers(0, 2, size=n),
                   rng.normal(size=n))
    nuis = NuisanceEstimates(rng.normal(size=n), rng.normal(size=n),
                             rng.uniform(0.1, 0.9, size=n))
    y, d, m = data.outcome_factual, data.treatment.astype(float), nuis.m_hat
    g0, g1 = nuis.g0_hat, nuis.g1_hat
    for i in (0, 1):
        theta1 = solve_theta("psi1", data, nuis, i)
        assert np.mean(score("psi1", y, d, g0, g1, m, theta1, i)) == \
            pytest.approx(0.0, abs=1e-12)
        theta2 = solve_theta("psi2", data, nuis, i)
        assert np.mean(score("psi2", y, d, g0, g1, m, theta2, i)) == \
            pytest.approx(0.0, abs=1e-12)


def test_psi2_reweighting_factor_is_unbiased(kl_draw):
    # with m_hat = m0 and Bernoulli assignment the mean of
    # (d - m)^2 / (m (1 - m)) tends to one
    data, truth = kl_draw(seed=6, n_treated=4000, n_control=8000, kl=0.5)
    m = truth.m0(data.covariates)
    w = (data.treatment - m) ** 2 / (m * (1.0 - m))
    se = w.std(ddof=1) / np.sqrt(w.size)
    assert abs(w.mean() - 1.0) <= 3.0 * se


# ---------------------------------------------------------------- probes

def test_probe_rejects_degenerate_step():
    data, truth = generate_simulation(SimConfig(n_treated=10, n_control=20,
                                                dim=2, seed=0))
    with pytest.raises(ValueError, match="degenerate step"):
        orthogonality_probe("psi1", data, truth, "perturb_g", t=0.0)


def test_probe_requires_truth():
    data, truth = generate_simulation(SimConfig(n_treated=10, n_control=20,
                                                dim=2, seed=0))
    truth.w1 = None
    with pytest.raises(ValueError, match="truth missing"):
        orthogonality_probe("psi1", data, truth, "perturb_g", t=0.05)


def test_probe_naive_score_detectably_non_orthogonal(kl_draw):
    data, truth = kl_draw(seed=3, n_treated=2000, n_control=4000, kl=0.5)
    res = orthogonality_probe("plugin_naive", data, truth, "perturb_g", t=0.05)
    assert res.derivative == pytest.approx(-1.0, abs=1e-9)


def test_probe_orthogonal_scores_centered_at_zero(kl_draw):
    data, truth = kl_draw(seed=4, n_treated=4000, n_control=8000, kl=0.5)
    for kind in ("psi1", "psi2"):
        for direction in ("perturb_g", "perturb_m"):
            res = orthogonality_probe(kind, data, truth, direction, t=0.05)
            assert abs(res.derivative) <= 3.0 * res.std_error, (kind, direction)


@pytest.mark.parametrize("i", [0, 1])
@pytest.mark.parametrize("direction", ["perturb_g", "perturb_m"])
@pytest.mark.parametrize("kind", ["psi1", "psi2"])
def test_probe_derivative_is_the_solvers_central_difference(kl_draw, kind,
                                                            direction, i):
    # The probe differentiates the score solve_theta solves: its derivative
    # is -(theta_hat(+t) - theta_hat(-t)) / (2 t mean(delta)), with theta_hat
    # solved at the true nuisances moved along the probe's direction.
    data, truth = kl_draw(seed=4, n_treated=1000, n_control=2000, kl=0.5)
    t = 0.05
    Z, n = data.covariates, data.n_units
    g0, g1 = truth.g0(np.zeros(n), Z), truth.g0(np.ones(n), Z)
    m0 = truth.m0(Z)
    delta = PROBE_DELTA_SCALE * np.tanh(Z[:, 0])

    def theta_hat(step):
        g_shift, m_shift = (step * delta, 0.0) if direction == "perturb_g" \
            else (0.0, step * delta)
        nuis = NuisanceEstimates(g0 + g_shift, g1 + g_shift, m0 + m_shift)
        assert nuis.n_clamped == 0
        return solve_theta(kind, data, nuis, i)

    expected = -(theta_hat(t) - theta_hat(-t)) / (2.0 * t * np.mean(delta))
    res = orthogonality_probe(kind, data, truth, direction, t=t, i=i)
    assert res.derivative == pytest.approx(expected, rel=1e-9)


def test_solver_and_probe_evaluate_the_one_score(monkeypatch):
    data, truth = generate_simulation(SimConfig(n_treated=10, n_control=20,
                                                dim=2, seed=0))
    calls = []
    real = estimators.score
    monkeypatch.setattr(estimators, "score",
                        lambda kind, *args: calls.append(kind) or real(kind, *args))
    nuis = NuisanceEstimates(np.zeros(30), np.ones(30), np.full(30, 0.5))
    solve_theta("psi2", data, nuis, 1)
    assert calls == ["psi2"]
    orthogonality_probe("plugin_naive", data, truth, "perturb_g", t=0.05)
    assert calls == ["psi2", "plugin_naive", "plugin_naive"]


def test_noise_orthogonality_zero_for_noiseless_outcomes():
    data, truth = generate_simulation(SimConfig(n_treated=50, n_control=100,
                                                dim=3, seed=5))
    # overwrite factual outcomes with their noiseless means
    noiseless = Dataset(data.covariates, data.treatment,
                        truth.g0(data.treatment, data.covariates))
    res = noise_orthogonality_stat(noiseless, truth)
    assert res.stat == 0.0


def test_noise_orthogonality_within_monte_carlo_error(kl_draw):
    data, truth = kl_draw(seed=7, n_treated=4000, n_control=8000, kl=0.5)
    res = noise_orthogonality_stat(data, truth)
    assert abs(res.stat) <= 3.0 * res.std_error


# ---------------------------------------------------------------- baselines

def _linear_treatment_data(n=400, s=4, effect=1.0, seed=0):
    rng = np.random.default_rng(seed)
    Z = rng.normal(size=(n, s))
    d = rng.integers(0, 2, size=n)
    d[:2] = [0, 1]
    w = rng.normal(size=s)
    y = Z @ w + effect * d
    return Dataset(Z, d, y)


def test_ols_lr1_recovers_exact_linear_model():
    data = _linear_treatment_data(effect=1.0)
    res = baseline("ols_lr1", data, data)
    assert res.theta.ate == pytest.approx(1.0, abs=1e-8)
    np.testing.assert_allclose(res.y1_hat - res.y0_hat, 1.0, atol=1e-8)


def test_ols_lr2_matches_group_means_on_simulator():
    data, truth = generate_simulation(
        SimConfig(n_treated=3000, n_control=3000, dim=5, seed=8))
    res = baseline("ols_lr2", data, data)
    target = float(np.mean(data.covariates @ (truth.w1 - truth.w0)))
    assert res.theta.ate == pytest.approx(target, abs=0.05)


def test_knn_duplicate_point_recovers_counterfactual():
    Z = np.array([[0.0], [5.0], [0.0]])
    train = Dataset(Z, [1, 0, 0], [7.0, 1.0, 2.0])
    eval_data = Dataset(np.array([[5.0], [0.0]]), [1, 0], [3.0, 2.0])
    res = baseline("knn", train, eval_data, k=1)
    # eval unit 1 is control at z=0; its nearest treated neighbor is z=0 -> y=7
    assert res.y1_hat[1] == pytest.approx(7.0)
    # eval unit 0 is treated at z=5; nearest control neighbor is z=5 -> y=1
    assert res.y0_hat[0] == pytest.approx(1.0)


def test_baseline_unknown_kind():
    data = _linear_treatment_data(n=10)
    with pytest.raises(ValueError, match="unknown baseline"):
        baseline("ridge", data, data)
