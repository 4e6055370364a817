import re
from dataclasses import replace

import numpy as np
import pytest

from mbrl import data as data_module
from mbrl.data import (Dataset, SimConfig, SplitSpec, concat,
                       generate_simulation, generate_twins_assignment,
                       kl_selection_bias, load_csv, save_csv, sigmoid, split,
                       true_ate)


def _toy_dataset(n=6, s=2, seed=0):
    rng = np.random.default_rng(seed)
    Z = rng.normal(size=(n, s))
    d = np.array([1, 0] * (n // 2))
    y = rng.normal(size=n)
    return Dataset(Z, d, y)


# ---------------------------------------------------------------- Dataset

def test_dataset_rejects_nonbinary_treatment():
    with pytest.raises(ValueError, match="treatment not binary"):
        Dataset(np.zeros((3, 2)), [0, 1, 2], np.zeros(3))


def test_dataset_rejects_nonfinite():
    with pytest.raises(ValueError, match="non-finite"):
        Dataset(np.array([[np.nan, 0.0], [0.0, 0.0]]), [0, 1], np.zeros(2))


@pytest.mark.parametrize("column", ["covariates", "outcome_factual", "y1", "mu0"])
def test_dataset_nonfinite_error_names_its_column(column):
    columns = dict(covariates=np.zeros((2, 1)), outcome_factual=[1.0, 0.0],
                   y0=[0.0, 0.0], y1=[1.0, 1.0], mu0=[0.0, 0.0], mu1=[1.0, 1.0])
    columns[column] = np.full(np.shape(columns[column]), np.inf)
    if column == "outcome_factual":
        columns.update(y0=None, y1=None)  # keep the consistency check out of it
    with pytest.raises(ValueError, match=f"^{column} has a non-finite value$"):
        Dataset(treatment=[1, 0], **columns)


def test_dataset_rejects_single_group():
    with pytest.raises(ValueError, match="one treated and one control"):
        Dataset(np.zeros((3, 1)), [1, 1, 1], np.zeros(3))


def test_dataset_consistency_enforced():
    Z = np.zeros((2, 1))
    with pytest.raises(ValueError, match="consistency violation"):
        Dataset(Z, [1, 0], [5.0, 0.0], y0=[0.0, 0.0], y1=[1.0, 1.0])
    # matching factuals are fine
    Dataset(Z, [1, 0], [1.0, 0.0], y0=[0.0, 0.0], y1=[1.0, 1.0])


def test_dataset_binary_outcome_values_checked():
    with pytest.raises(ValueError, match="0/1"):
        Dataset(np.zeros((2, 1)), [1, 0], [0.5, 0.0], outcome_kind="binary")


# ---------------------------------------------------------------- CSV I/O

def test_load_csv_schema_echo(tmp_path):
    p = tmp_path / "toy.csv"
    p.write_text("z1,z2,d,y\n0.1,0.2,1,1.5\n0.3,0.4,0,2.5\n0.5,0.6,1,3.5\n")
    data = load_csv(p)
    assert data.n_units == 3
    assert data.n_covariates == 2
    assert data.y0 is None


def test_load_csv_rejects_nonbinary_treatment(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("z1,d,y\n0.1,2,1.5\n0.3,0,2.5\n")
    with pytest.raises(ValueError, match="treatment not binary"):
        load_csv(p)


def test_load_csv_rejects_consistency_violation(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("z1,d,y,y0,y1\n0.1,1,9.0,0.0,1.0\n0.3,0,0.0,0.0,1.0\n")
    with pytest.raises(ValueError, match="consistency violation"):
        load_csv(p)


def test_load_csv_missing_column(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("z1,z2,y\n0.1,0.2,1.5\n0.3,0.4,2.5\n")
    with pytest.raises(ValueError, match="missing mandatory column"):
        load_csv(p)


@pytest.mark.parametrize("row,cells", [("0.5,1,2.0,99", 4), ("0.5,1", 2)],
                         ids=["extra", "short"])
def test_load_csv_rejects_a_row_whose_cell_count_differs(tmp_path, row, cells):
    p = tmp_path / "bad.csv"
    p.write_text(f"z1,d,y\n0.1,0,1.5\n0.3,1,2.5\n{row}\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(p))}: row 4 has {cells} cells; "
                                         r"the header names 3$"):
        load_csv(p)


@pytest.mark.parametrize("row,message", [
    ("0.5,1,oops", "bad value in column 'y', row 5"),
    ("0.5,1", "row 5 has 2 cells; the header names 3"),
], ids=["bad-value", "cell-count"])
def test_load_csv_errors_name_the_file_line_past_a_blank_line(tmp_path, row, message):
    p = tmp_path / "bad.csv"
    p.write_text(f"z1,d,y\n0.1,0,1.5\n\n0.3,1,2.5\n{row}\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(f'{p}: {message}')}$"):
        load_csv(p)


def test_csv_round_trip(tmp_path):
    data, _ = generate_simulation(SimConfig(n_treated=5, n_control=7, dim=3, seed=1))
    p = tmp_path / "sim.csv"
    save_csv(data, p)
    back = load_csv(p)
    np.testing.assert_array_equal(back.covariates, data.covariates)
    np.testing.assert_array_equal(back.treatment, data.treatment)
    np.testing.assert_array_equal(back.outcome_factual, data.outcome_factual)
    np.testing.assert_array_equal(back.mu1, data.mu1)


# ---------------------------------------------------------------- split

def _sized_dataset(n):
    rng = np.random.default_rng(7)
    Z = rng.normal(size=(n, 2))
    d = (rng.uniform(size=n) < 0.5).astype(int)
    d[:2] = [0, 1]
    return Dataset(Z, d, rng.normal(size=n))


def test_split_sizes_match_the_standard_ratios():
    data = _sized_dataset(100)
    tr, va, te = split(data, SplitSpec(0.63, 0.27, 0.10, seed=7))
    assert (tr.n_units, va.n_units, te.n_units) == (63, 27, 10)
    tr, va, te = split(data, SplitSpec(0.56, 0.24, 0.20, seed=7))
    assert (tr.n_units, va.n_units, te.n_units) == (56, 24, 20)


def test_split_deterministic_and_disjoint():
    data = _sized_dataset(40)
    spec = SplitSpec(0.5, 0.3, 0.2, seed=3)
    a = split(data, spec)
    b = split(data, spec)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x.covariates, y.covariates)
    # disjoint cover: every original row appears exactly once
    rows = np.vstack([part.covariates for part in a])
    assert rows.shape == data.covariates.shape
    order = np.lexsort(rows.T)
    base = np.lexsort(data.covariates.T)
    np.testing.assert_array_equal(rows[order], data.covariates[base])


def test_split_rejects_empty_share():
    data = _sized_dataset(10)
    with pytest.raises(ValueError, match="empty"):
        split(data, SplitSpec(0.98, 0.01, 0.01, seed=0))


def test_split_spec_validation():
    with pytest.raises(ValueError):
        SplitSpec(0.5, 0.5, 0.5)
    with pytest.raises(ValueError):
        SplitSpec(1.0, 0.0, 0.0)


# ---------------------------------------------------------------- simulator

def test_simulation_shapes_and_ground_truth():
    data, truth = generate_simulation(
        SimConfig(n_treated=2500, n_control=5000, dim=10, seed=5))
    assert data.n_units == 7500
    assert data.n_covariates == 10
    assert data.y0 is not None and data.mu1 is not None
    assert int(data.treatment.sum()) == 2500
    np.testing.assert_allclose(data.mu1, data.covariates @ truth.w1)
    # factual outcome honors consistency by construction
    np.testing.assert_array_equal(
        data.outcome_factual, np.where(data.treatment == 1, data.y1, data.y0))


def test_simulation_deterministic():
    cfg = SimConfig(n_treated=30, n_control=50, dim=4, seed=9)
    a, _ = generate_simulation(cfg)
    b, _ = generate_simulation(cfg)
    np.testing.assert_array_equal(a.covariates, b.covariates)
    np.testing.assert_array_equal(a.outcome_factual, b.outcome_factual)


def test_simulation_treated_mean_converges():
    mu1 = np.array([1.0, -2.0, 0.5])
    cfg = SimConfig(n_treated=4000, n_control=10, dim=3, mu1=mu1, seed=2)
    data, _ = generate_simulation(cfg)
    zt = data.covariates[data.treatment == 1]
    sd = zt.std(axis=0)
    assert np.all(np.abs(zt.mean(axis=0) - mu1) <= 5.0 * sd / np.sqrt(4000))


def test_simulation_symmetric_groups_have_flat_propensity():
    for mu in (None, np.array([3.0, -1.5, 0.25])):  # mu1 == mu0, at 0 and off it
        cfg = SimConfig(n_treated=60, n_control=120, dim=3, mu1=mu, mu0=mu, seed=3)
        data, truth = generate_simulation(cfg)
        p = truth.m0(data.covariates)
        np.testing.assert_allclose(p, 60 / 180, atol=1e-12)


def _two_quadratic_form_posterior(Z, mu1, mu0, cov, prior):
    # P(treated | z) from the two Gaussian densities, before the quadratic
    # terms are cancelled into the affine log-odds
    prec = np.linalg.inv(cov)
    a1 = Z - mu1
    a0 = Z - mu0
    q1 = ((a1 @ prec) * a1).sum(axis=1)
    q0 = ((a0 @ prec) * a0).sum(axis=1)
    return sigmoid(np.log(prior) - np.log1p(-prior) - 0.5 * (q1 - q0))


@pytest.mark.parametrize("kl", [0.0, 0.5, 141.41])
def test_simulation_affine_propensity_matches_the_quadratic_form(kl, kl_draw,
                                                                  monkeypatch):
    drawn = []

    def recording(cfg, seed=None, mixing=None):
        drawn.append((cfg, mixing))
        return generate_simulation(cfg, seed, mixing)

    monkeypatch.setattr(data_module, "generate_simulation", recording)
    data, truth = kl_draw(seed=7001, n_treated=2000, n_control=4000, kl=kl)
    (cfg, mixing), = drawn
    cov = data_module.SIGMA_SCALE * (mixing @ mixing.T)
    want = _two_quadratic_form_posterior(data.covariates, cfg.mu1, cfg.mu0, cov,
                                         2000 / 6000)
    np.testing.assert_allclose(truth.m0(data.covariates), want, rtol=0, atol=1e-10)


def test_simulation_posterior_matches_empirical_assignment():
    # the implied Bayes posterior should calibrate against realized groups
    cfg = SimConfig(n_treated=4000, n_control=8000, dim=2,
                    mu1=np.array([1.0, 0.0]), seed=8)
    data, truth = generate_simulation(cfg)
    p = truth.m0(data.covariates)
    bins = np.digitize(p, np.quantile(p, [0.25, 0.5, 0.75]))
    for b in range(4):
        mask = bins == b
        assert abs(data.treatment[mask].mean() - p[mask].mean()) < 0.03


# ---------------------------------------------------------------- twins assignment

def test_twins_assignment_shapes_and_determinism():
    Z = np.random.default_rng(1).normal(size=(11440, 30))
    d1, t1 = generate_twins_assignment(Z, seed=4)
    d2, t2 = generate_twins_assignment(Z, seed=4)
    assert d1.shape == (11440,)
    np.testing.assert_array_equal(d1, d2)
    np.testing.assert_array_equal(t1.m0(Z), t2.m0(Z))


def test_twins_assignment_draws_are_pinned():
    # d ~ Bernoulli(sigmoid(Z w + n)) with w, n and d drawn in that order
    Z = np.random.default_rng(5).normal(size=(3000, 30)) * 40
    d, truth = generate_twins_assignment(Z, seed=11)
    rng = np.random.default_rng(11)
    w = rng.uniform(-0.01, 0.01, size=30)
    n = float(rng.normal(0.0, 0.01))
    p = sigmoid(Z @ w + n)
    assert d.tobytes() == rng.binomial(1, p).astype(int).tobytes()
    assert truth.m0(Z).tobytes() == p.tobytes()


def test_twins_assignment_frequency_matches_propensity():
    z = np.random.default_rng(2).normal(size=(1, 5)) * 50  # exaggerate the logit
    # 400 copies of one unit share w, n and differ only in the Bernoulli draw
    d, truth = generate_twins_assignment(np.repeat(z, 400, axis=0), seed=0)
    p = float(truth.m0(z)[0])
    freq = np.mean(d)
    assert abs(freq - p) <= 3.0 * np.sqrt(p * (1 - p) / 400)


# ---------------------------------------------------------------- diagnostics

def test_kl_zero_for_identical_means():
    cov = np.array([[2.0, 0.3], [0.3, 1.0]])
    assert kl_selection_bias(np.ones(2), np.ones(2), cov) == 0.0


def test_kl_identity_covariance_hand_value():
    cov = np.eye(2)
    val = kl_selection_bias(np.array([1.0, 0.0]), np.zeros(2), cov)
    assert val == pytest.approx(0.5, abs=1e-12)


def test_kl_permutation_invariance():
    rng = np.random.default_rng(3)
    m = rng.normal(size=4)
    A = rng.normal(size=(4, 4))
    cov = A @ A.T + np.eye(4)
    perm = np.array([2, 0, 3, 1])
    v1 = kl_selection_bias(m, np.zeros(4), cov)
    v2 = kl_selection_bias(m[perm], np.zeros(4), cov[np.ix_(perm, perm)])
    assert v1 == pytest.approx(v2, rel=1e-12)


def test_kl_monotone_in_separation():
    cov = np.eye(3)
    direction = np.array([1.0, 2.0, -1.0])
    vals = [kl_selection_bias(c * direction, np.zeros(3), cov)
            for c in (0.5, 1.0, 2.0, 4.0)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_kl_rejects_singular_covariance():
    with pytest.raises(ValueError, match="singular covariance"):
        kl_selection_bias(np.ones(2), np.zeros(2), np.zeros((2, 2)))


def test_true_ate_preference_order():
    Z = np.zeros((2, 1))
    data = Dataset(Z, [1, 0], [2.0, 1.0], y0=[1.0, 1.0], y1=[2.0, 2.0])
    assert true_ate(data) == pytest.approx(1.0)
    # noiseless means win over noisy realized outcomes
    noisy = Dataset(Z, [1, 0], [2.5, 1.0], y0=[1.0, 1.0], y1=[2.5, 2.3],
                    mu0=[1.0, 1.0], mu1=[2.0, 2.0])
    assert true_ate(noisy) == pytest.approx(1.0)
    bare = Dataset(Z, [1, 0], [2.0, 1.0])
    with pytest.raises(ValueError, match="ground truth unavailable"):
        true_ate(bare)


UNIT_COLUMNS = ("treatment", "outcome_factual", "y0", "y1", "mu0", "mu1")


def _binary_sample(n, seed, truth):
    """Binary-outcome sample carrying the ground-truth columns in ``truth``."""
    rng = np.random.default_rng(seed)
    d = np.arange(n) % 2
    y0 = rng.integers(0, 2, n).astype(float)
    y1 = rng.integers(0, 2, n).astype(float)
    columns = {"y0": y0, "y1": y1, "mu0": rng.uniform(size=n),
               "mu1": rng.uniform(size=n)}
    return Dataset(rng.normal(size=(n, 3)), d, np.where(d == 1, y1, y0),
                   outcome_kind="binary",
                   **{k: v for k, v in columns.items() if k in truth})


def _assert_columns_equal(got, want):
    assert got.outcome_kind == want.outcome_kind
    assert got.covariates.tobytes() == want.covariates.tobytes()
    for name in UNIT_COLUMNS:
        a, b = getattr(got, name), getattr(want, name)
        assert (a is None) == (b is None), name
        if a is not None:
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


over_truth_columns = pytest.mark.parametrize(
    "truth", [(), ("y0", "y1"), ("mu0", "mu1"), ("y0", "y1", "mu0", "mu1")],
    ids=["none", "y", "mu", "both"])


@over_truth_columns
def test_concat_preserves_optional_columns(truth):
    a = _binary_sample(7, 0, truth)
    b = _binary_sample(5, 1, truth)
    merged = concat([a, b])
    assert merged.n_units == 12
    want = Dataset(np.vstack([a.covariates, b.covariates]),
                   np.concatenate([a.treatment, b.treatment]),
                   np.concatenate([a.outcome_factual, b.outcome_factual]),
                   outcome_kind="binary",
                   **{k: np.concatenate([getattr(a, k), getattr(b, k)])
                      for k in truth})
    _assert_columns_equal(merged, want)


@over_truth_columns
def test_subset_takes_every_column(truth):
    data = _binary_sample(9, 2, truth)
    idx = np.array([8, 0, 3, 5, 2])
    want = Dataset(data.covariates[idx], data.treatment[idx],
                   data.outcome_factual[idx], outcome_kind="binary",
                   **{k: getattr(data, k)[idx] for k in truth})
    _assert_columns_equal(data.subset(idx), want)


def test_concat_drops_a_pair_that_one_part_lacks():
    a = _binary_sample(6, 0, ("y0", "y1", "mu0", "mu1"))
    b = replace(_binary_sample(4, 1, ("y0", "y1", "mu0", "mu1")),
                mu0=None, mu1=None)
    for merged in (concat([a, b]), concat([b, a])):
        assert merged.mu0 is None and merged.mu1 is None
        assert merged.y0 is not None and merged.y1 is not None
    assert concat([a, b]).y1.tobytes() == np.concatenate([a.y1, b.y1]).tobytes()


def test_sigmoid_stability():
    vals = sigmoid(np.array([-1000.0, 0.0, 1000.0]))
    assert vals[0] >= 0.0 and vals[2] <= 1.0
    assert vals[1] == pytest.approx(0.5)
