import ast
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import mbrl.checks as checks
import mbrl.estimators as est
import mbrl.harness as harness
from mbrl.data import SimConfig, SplitSpec, kl_selection_bias, kl_target_mu1
from mbrl.harness import (ExperimentConfig, Report, aggregate_rows,
                          emit_report, run_experiment)
from mbrl.metrics import rmse
from mbrl.model import TrainConfig
from mbrl.ot import SinkhornConfig


def _tiny_experiment(**overrides):
    defaults = dict(
        source="simulator",
        sim=SimConfig(n_treated=40, n_control=80, dim=3),
        split=SplitSpec(0.6, 0.2, 0.2),
        train=TrainConfig(batch_size=16, epochs=2, phi_depth=2, phi_width=8,
                          pi_depth=2, pi_width=6, head_depth=2, head_width=6,
                          sinkhorn=SinkhornConfig(entropic_reg=0.1,
                                                  max_iters=50, tol=1e-6)),
        estimators=("plugin",),
        replications=1,
        seed=3,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


# ---------------------------------------------------------------- config

def test_config_validation():
    with pytest.raises(ValueError, match="estimator"):
        _tiny_experiment(estimators=())
    with pytest.raises(ValueError, match="unknown estimator"):
        _tiny_experiment(estimators=("magic",))
    with pytest.raises(ValueError, match="replications"):
        _tiny_experiment(replications=0)
    with pytest.raises(ValueError, match="csv_path"):
        ExperimentConfig(source="csv")


@pytest.mark.parametrize("source", ["csv", "twins"])
def test_config_rejects_a_sim_block_its_source_never_reads(source):
    with pytest.raises(ValueError, match="sim applies only to the simulator"):
        _tiny_experiment(source=source, csv_path="data.csv")
    cfg = _tiny_experiment(source=source, csv_path="data.csv", sim=None)
    assert cfg.to_dict()["sim"] is None


@pytest.mark.parametrize("key", ["split", "train"])
def test_config_rejects_null_nested_record(key):
    with pytest.raises(ValueError, match=f"{key} must be a"):
        ExperimentConfig(**{key: None})


def test_config_round_trips_through_dict():
    cfg = _tiny_experiment(kl_levels=(0.0, 1.5), replications=2)
    back = ExperimentConfig(**json.loads(json.dumps(cfg.to_dict())))
    assert back.to_dict() == cfg.to_dict()


# ---------------------------------------------------------------- KL targeting

def test_checks_import_nothing_from_harness():
    # mbrl check verifies the numerics under the harness; its KL-pinned draw
    # comes from data.
    names = []
    for node in ast.walk(ast.parse(Path(checks.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            names += [node.module or "", *(alias.name for alias in node.names)]
        elif isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
    assert "data" in names
    assert not [name for name in names if "harness" in name.split(".")]


def test_kl_target_inversion_is_exact():
    rng = np.random.default_rng(0)
    mix = rng.uniform(-1, 1, size=(6, 6))
    cov = 0.5 * mix @ mix.T
    mu0 = rng.normal(size=6)
    for target in (0.0, 1.0, 62.85, 141.41):
        mu1 = kl_target_mu1(mu0 + rng.normal(size=6), mu0, cov, target)
        assert kl_selection_bias(mu1, mu0, cov) == pytest.approx(target, abs=1e-9)


def test_kl_zero_level_produces_flat_bias():
    cfg = _tiny_experiment(kl_levels=(0.0,))
    report = run_experiment(cfg)
    assert not report.failures
    for row in report.rows:
        assert row["kl_realized"] == pytest.approx(0.0, abs=1e-9)


# ---------------------------------------------------------------- experiment

def test_single_replication_report():
    report = run_experiment(_tiny_experiment())
    # one estimator, in and out samples
    assert len(report.rows) == 2
    samples = {r["sample"] for r in report.rows}
    assert samples == {"in", "out"}
    for row in report.rows:
        assert row["eps_ate"] >= 0.0
        assert row["best_epoch"] is not None
    assert report.metadata["n_failures"] == 0
    # in/out unit counts partition the dataset
    n_in = next(r["n_units"] for r in report.rows if r["sample"] == "in")
    n_out = next(r["n_units"] for r in report.rows if r["sample"] == "out")
    assert n_in + n_out == 120


def test_baseline_rows_have_no_model_fields():
    report = run_experiment(_tiny_experiment(estimators=("plugin", "ols_lr1",
                                                         "ols_lr2", "knn")))
    for row in report.rows:
        if row["estimator"] in ("ols_lr1", "ols_lr2", "knn"):
            assert row["best_epoch"] is None
            assert row["eps_p"] is None
        else:
            assert row["eps_p"] is not None


def test_each_baseline_is_fitted_once_per_replication(monkeypatch):
    fits = []
    lstsq = est._lstsq
    monkeypatch.setattr(est, "_lstsq", lambda X, y: fits.append(X.shape) or lstsq(X, y))
    report = run_experiment(_tiny_experiment(
        replications=2, estimators=("ols_lr1", "ols_lr2", "knn")))
    assert report.metadata["n_failures"] == 0
    # per replication: one ols_lr1 fit and one fit per arm for ols_lr2, all
    # on the in-sample units
    n_in = next(r["n_units"] for r in report.rows if r["sample"] == "in")
    assert len(fits) == 2 * 3
    for rep in (fits[:3], fits[3:]):
        assert rep[0][0] == n_in and rep[1][0] + rep[2][0] == n_in


def test_baseline_rows_equal_a_fit_per_sample():
    cfg = _tiny_experiment(estimators=("ols_lr1", "ols_lr2", "knn"))
    report = run_experiment(cfg)
    gen_seed, split_seed, _ = harness._seeds_for(cfg.seed, 0, 0, 3)
    data, _ = harness._make_data(cfg, None, None, gen_seed)
    tr, va, te = harness.split(data, replace(cfg.split, seed=split_seed))
    insample = harness.concat([tr, va])
    for row in report.rows:
        dataset = insample if row["sample"] == "in" else te
        res = est.baseline(row["estimator"], insample, dataset, k=cfg.knn_k)
        want = harness._metric_row(dataset, res.theta.ate, res.y0_hat, res.y1_hat,
                                   rmse(dataset.outcome_factual, res.yhat_factual),
                                   None)
        assert json.dumps({k: row[k] for k in want}) == json.dumps(want)


def test_a_baseline_only_run_fits_no_net(monkeypatch):
    # Its rows are the baseline rows of a run that also fits the net: the
    # skipped fit shifts no seed.
    with_net = run_experiment(_tiny_experiment(estimators=("plugin", "ols_lr1")))
    fits = []
    monkeypatch.setattr(harness, "fit", lambda *args: fits.append(args))
    report = run_experiment(_tiny_experiment(estimators=("ols_lr1",)))
    assert fits == [] and report.metadata["n_failures"] == 0
    assert all(row["best_epoch"] is None for row in report.rows)
    assert report.rows == [r for r in with_net.rows if r["estimator"] == "ols_lr1"]


def test_each_sample_runs_predict_once_for_the_mbrl_estimators(monkeypatch):
    calls = []
    nuisances = harness.nuisances_from_net
    monkeypatch.setattr(harness, "nuisances_from_net", lambda net, data:
                        calls.append(data.n_units) or nuisances(net, data))
    report = run_experiment(_tiny_experiment(
        replications=2, estimators=("plugin", "psi1", "psi2", "ols_lr1")))
    assert report.metadata["n_failures"] == 0
    # one call per replication for the in-sample units, one for the test units
    assert len(calls) == 2 * 2
    assert sorted(set(calls)) == sorted({r["n_units"] for r in report.rows})


def test_aggregates_recompute_from_rows():
    cfg = _tiny_experiment(replications=3, estimators=("plugin", "psi1"))
    report = run_experiment(cfg)
    assert report.aggregates == aggregate_rows(report.rows)
    plug_in = [r["eps_ate"] for r in report.rows
               if r["estimator"] == "plugin" and r["sample"] == "in"]
    agg = next(a for a in report.aggregates
               if a["estimator"] == "plugin" and a["sample"] == "in"
               and a["metric"] == "eps_ate")
    assert agg["mean"] == pytest.approx(np.mean(plug_in))
    assert agg["se"] == pytest.approx(np.std(plug_in, ddof=1) / np.sqrt(3))
    assert agg["n"] == 3


def test_single_replication_has_zero_se():
    report = run_experiment(_tiny_experiment())
    assert all(a["se"] == 0.0 for a in report.aggregates)


def test_failed_replication_is_counted_not_hidden(monkeypatch):
    calls = {"n": 0}
    original = harness.fit

    def flaky_fit(train, val, cfg):
        calls["n"] += 1
        if calls["n"] == 2:
            raise RuntimeError("synthetic failure")
        return original(train, val, cfg)

    monkeypatch.setattr(harness, "fit", flaky_fit)
    report = run_experiment(_tiny_experiment(replications=3))
    assert report.metadata["n_failures"] == 1
    assert len(report.failures) == 1
    assert "synthetic failure" in report.failures[0]["error"]
    # two replications survive
    reps = {r["replication"] for r in report.rows}
    assert reps == {0, 2}


def test_twins_source_reassigns_treatment(tmp_path):
    from mbrl.data import SimConfig as SC
    from mbrl.data import generate_simulation, save_csv, load_csv
    base, _ = generate_simulation(SC(n_treated=60, n_control=60, dim=3, seed=1))
    path = tmp_path / "twins.csv"
    save_csv(base, path)
    cfg = _tiny_experiment(source="twins", sim=None, csv_path=str(path),
                           replications=2)
    report = run_experiment(cfg)
    assert not report.failures
    # factual outcomes follow the stored potential outcomes under the new
    # assignment, so every replication keeps a valid ATE error
    assert all(r["eps_ate"] is not None for r in report.rows)


def test_twins_sample_equals_a_field_by_field_construction(tmp_path):
    from mbrl.data import (Dataset, generate_simulation, generate_twins_assignment,
                           load_csv, save_csv)
    sample, _ = generate_simulation(SimConfig(n_treated=30, n_control=50, dim=3,
                                              seed=2))
    path = tmp_path / "twins.csv"
    save_csv(sample, path)  # carries both y0,y1 and mu0,mu1
    cfg = _tiny_experiment(source="twins", sim=None, csv_path=str(path))
    got, level = harness._make_data(cfg, harness._load_source(cfg), None, 11)
    assert level is None
    # reference: the sample rebuilt column by column
    base = load_csv(path)
    d, _ = generate_twins_assignment(base.covariates, 11)
    want = Dataset(base.covariates, d, np.where(d == 1, base.y1, base.y0),
                   base.outcome_kind, y0=base.y0, y1=base.y1,
                   mu0=base.mu0, mu1=base.mu1)
    assert got.outcome_kind == want.outcome_kind
    for name in ("covariates", "treatment", "outcome_factual",
                 "y0", "y1", "mu0", "mu1"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def test_a_file_source_is_parsed_once_per_run(tmp_path, monkeypatch):
    from mbrl.data import generate_simulation, save_csv
    sample, _ = generate_simulation(SimConfig(n_treated=30, n_control=50, dim=3,
                                              seed=2))
    path = tmp_path / "twins.csv"
    save_csv(sample, path)
    calls = []
    load_csv = harness.load_csv
    monkeypatch.setattr(harness, "load_csv",
                        lambda *args: calls.append(args) or load_csv(*args))
    report = run_experiment(_tiny_experiment(source="twins", sim=None,
                                             csv_path=str(path), replications=3))
    assert report.metadata["n_failures"] == 0
    assert {r["replication"] for r in report.rows} == {0, 1, 2}
    assert len(calls) == 1


def test_a_file_that_fails_to_load_fails_every_replication(tmp_path):
    cfg = _tiny_experiment(source="csv", sim=None, replications=2,
                           csv_path=str(tmp_path / "missing.csv"))
    report = run_experiment(cfg)
    assert report.metadata["n_failures"] == 2 and not report.rows
    assert [f["replication"] for f in report.failures] == [0, 1]
    assert all(f["error"].startswith("FileNotFoundError: ")
               for f in report.failures)


def test_twins_source_requires_potential_outcomes(tmp_path):
    p = tmp_path / "bare.csv"
    p.write_text("z1,d,y\n0.1,1,1.0\n0.2,0,2.0\n0.3,1,0.5\n0.4,0,1.5\n")
    cfg = _tiny_experiment(source="twins", sim=None, csv_path=str(p))
    report = run_experiment(cfg)
    assert report.metadata["n_failures"] == 1
    assert "y0/y1" in report.failures[0]["error"]


def test_deterministic_reports():
    cfg = _tiny_experiment(replications=2, estimators=("plugin", "ols_lr1"))
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    assert a.to_json() == b.to_json()


# ---------------------------------------------------------------- emission

def test_emit_report_files(tmp_path):
    cfg = _tiny_experiment(replications=2, estimators=("plugin", "knn"))
    report = run_experiment(cfg)
    paths = emit_report(report, tmp_path / "out")
    text = paths["report"].read_text()
    back = Report(**json.loads(text))
    assert back.rows == report.rows
    assert back.aggregates == report.aggregates
    assert back.metadata == report.metadata

    summary_lines = paths["summary"].read_text().strip().splitlines()
    assert summary_lines[0] == "kl_level,estimator,sample,metric,mean,se,n"
    assert len(summary_lines) == len(report.aggregates) + 1

    box_lines = paths["boxplot"].read_text().strip().splitlines()
    assert box_lines[0] == "kl_level,estimator,replication,sample,eps_ate"
    n_eps = sum(1 for r in report.rows if r["eps_ate"] is not None)
    assert len(box_lines) == n_eps + 1


def test_report_json_excludes_wall_time(tmp_path):
    report = run_experiment(_tiny_experiment())
    assert report.timings  # measured in memory
    assert "timings" not in json.loads(report.to_json())
