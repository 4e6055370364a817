import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mbrl import harness
from mbrl.cli import main
from mbrl.data import SimConfig, SplitSpec, generate_simulation, load_csv, save_csv, split
from mbrl.estimators import PROPENSITY_CLAMP
from mbrl.harness import MBRL_ESTIMATORS, ExperimentConfig
from mbrl.model import (TrainConfig, fit, load_checkpoint, predict,
                        save_checkpoint, validation_scores)
from mbrl.ot import SinkhornConfig


def _write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def _bench_doc(**changes):
    """A small simulator bench config; a key such as "train.epochs" sets a
    nested entry."""
    doc = {
        "source": "simulator",
        "sim": {"n_treated": 30, "n_control": 60, "dim": 3},
        "split": {"train_frac": 0.6, "val_frac": 0.2, "test_frac": 0.2,
                  "seed": 0},
        "train": {"batch_size": 16, "epochs": 1, "phi_depth": 2,
                  "phi_width": 8, "pi_depth": 2, "pi_width": 6,
                  "head_depth": 2, "head_width": 6},
        "estimators": ["plugin"],
        "replications": 1,
    }
    for path, value in changes.items():
        *parents, key = path.split(".")
        target = doc
        for name in parents:
            target = target.setdefault(name, {})
        target[key] = value
    return doc


@pytest.fixture
def sim_config(tmp_path):
    return _write(tmp_path / "sim.json",
                  {"n_treated": 30, "n_control": 60, "dim": 3, "seed": 5})


@pytest.fixture
def train_config(tmp_path):
    return _write(tmp_path / "train.json", {
        "batch_size": 16, "epochs": 2, "phi_depth": 2, "phi_width": 8,
        "pi_depth": 2, "pi_width": 6, "head_depth": 2, "head_width": 6,
        "split": {"train_frac": 0.6, "val_frac": 0.2, "test_frac": 0.2,
                  "seed": 1},
    })


def _fresh_python(code):
    """stdout of ``code`` run in a new interpreter that imports this
    checkout's ``mbrl``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code], check=True, text=True,
                          capture_output=True,
                          env=dict(os.environ, PYTHONPATH=path)).stdout


_SCIPY_MODULES = ("sorted(m for m in sys.modules "
                  "if m == 'scipy' or m.startswith('scipy.'))")


def test_importing_mbrl_loads_no_scipy():
    out = _fresh_python(f"import mbrl, mbrl.cli, sys; print({_SCIPY_MODULES})")
    assert out.strip() == "[]"


def test_exact_ot_small_imports_its_solver_on_first_call():
    # {0, 3} -> {1, 4}: the plan pairing 0-1 and 3-4 costs (1 + 1) / 2
    out = _fresh_python(
        "import sys, numpy as np; from mbrl.ot import exact_ot_small; "
        f"print({_SCIPY_MODULES}); "
        "print(exact_ot_small(np.array([[0.0], [3.0]]), np.array([[1.0], [4.0]]))); "
        "print('scipy.optimize' in sys.modules)")
    before, cost, after = out.split("\n")[:3]
    assert before == "[]"
    assert float(cost) == pytest.approx(1.0)
    assert after == "True"


def test_unknown_subcommand_exits_1(capsys):
    assert main(["frobnicate"]) == 1


def test_unknown_flag_exits_1():
    assert main(["generate", "--nope"]) == 1


def test_missing_config_exits_1(tmp_path):
    assert main(["bench", "--config", str(tmp_path / "missing.json")]) == 1


def test_generate_then_train_then_evaluate(tmp_path, sim_config, train_config):
    data_path = tmp_path / "data.csv"
    assert main(["generate", "--config", sim_config,
                 "--out", str(data_path)]) == 0
    data = load_csv(data_path)
    assert data.n_units == 90

    ckpt_path = tmp_path / "run" / "ckpt.json"
    ckpt_path.parent.mkdir()
    assert main(["train", "--config", train_config, "--data", str(data_path),
                 "--seed", "7", "--out", str(ckpt_path)]) == 0
    assert sorted(p.name for p in ckpt_path.parent.iterdir()) == [
        "ckpt.json", "ckpt.training_log.csv"]

    metrics_path = tmp_path / "metrics.json"
    assert main(["evaluate", "--checkpoint", str(ckpt_path),
                 "--data", str(data_path), "--out", str(metrics_path)]) == 0
    result = json.loads(metrics_path.read_text())
    assert set(result) == {"n_units", "selection", "best_epoch", "tau_true",
                           "plugin", "psi1", "psi2"}
    for name in ("plugin", "psi1", "psi2"):
        assert set(result[name]) == {"tau_hat", "eps_ate", "pehe_root", "auc",
                                     "rmse", "eps_p"}
    assert result["plugin"]["eps_ate"] >= 0.0


def test_selection_report_rows_and_evaluate_score_one_eps_p(tmp_path):
    # pi's output bias is moved so that about half the validation
    # propensities fall below the clamp: the eps_p that selects the epoch,
    # a report row's and evaluate's must all read the clamped propensity.
    sample, _ = generate_simulation(SimConfig(n_treated=40, n_control=80, dim=3,
                                              seed=5))
    tr, va, _ = split(sample, SplitSpec(0.6, 0.2, 0.2, seed=5))
    cfg = TrainConfig(batch_size=8, epochs=1, phi_depth=2, phi_width=6,
                      pi_depth=2, pi_width=5, head_depth=2, head_width=5,
                      sinkhorn=SinkhornConfig(entropic_reg=0.1, max_iters=50))
    ckpt = fit(tr, va, cfg)
    p = predict(ckpt.net, va.covariates)[2]
    logit = np.log(p) - np.log1p(-p)
    ckpt.net.pi.biases[-1] += np.log(PROPENSITY_CLAMP) - np.median(logit)
    p = predict(ckpt.net, va.covariates)[2]
    assert 0 < np.sum(p < PROPENSITY_CLAMP) < va.n_units

    eps_p = validation_scores(ckpt.net, va, ckpt.beta)[1]
    nuis = harness.nuisances_from_net(ckpt.net, va)
    assert harness.mbrl_row("plugin", nuis, va, ckpt.beta)["eps_p"] == eps_p
    save_checkpoint(ckpt, tmp_path / "ckpt.json")
    save_csv(va, tmp_path / "val.csv")
    out = tmp_path / "metrics.json"
    assert main(["evaluate", "--checkpoint", str(tmp_path / "ckpt.json"),
                 "--data", str(tmp_path / "val.csv"), "--out", str(out)]) == 0
    result = json.loads(out.read_text())
    assert [result[name]["eps_p"] for name in MBRL_ESTIMATORS] == [eps_p] * 3


def test_bench_writes_report(tmp_path):
    cfg = _write(tmp_path / "exp.json", _bench_doc(
        **{"train.epochs": 2}, estimators=["plugin", "ols_lr1"], seed=2))
    out = tmp_path / "results"
    assert main(["bench", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["metadata"]["n_failures"] == 0
    assert (out / "summary.csv").exists()
    assert (out / "boxplot_data.csv").exists()


def test_bench_output_dir_env_override(tmp_path, monkeypatch):
    cfg = _write(tmp_path / "exp.json", _bench_doc())
    target = tmp_path / "from_env"
    monkeypatch.setenv("MBRL_OUTPUT_DIR", str(target))
    assert main(["bench", "--config", cfg]) == 0
    assert (target / "report.json").exists()


def test_bad_experiment_config_exits_1(tmp_path):
    cfg = _write(tmp_path / "exp.json", {"source": "simulator",
                                         "estimators": [], "replications": 1})
    assert main(["bench", "--config", cfg]) == 1


def test_check_passes_on_healthy_build(capsys):
    assert main(["check", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "FAIL" not in out


def _trained(tmp_path, sim_config, train_config):
    """Paths of a generated CSV and of a checkpoint trained on it."""
    data_path = str(tmp_path / "data.csv")
    ckpt_path = tmp_path / "ckpt.json"
    assert main(["generate", "--config", sim_config, "--out", data_path]) == 0
    assert main(["train", "--config", train_config, "--data", data_path,
                 "--out", str(ckpt_path)]) == 0
    return data_path, ckpt_path


def _evaluate_edited(data_path, ckpt_path, edit, capsys):
    """``mbrl evaluate``'s exit code and stderr on the checkpoint after
    ``edit`` changes its JSON document."""
    doc = json.loads(ckpt_path.read_text())
    edit(doc)
    ckpt_path.write_text(json.dumps(doc))
    capsys.readouterr()
    code = main(["evaluate", "--checkpoint", str(ckpt_path), "--data", data_path])
    return code, capsys.readouterr().err


def test_evaluate_malformed_checkpoint_exits_1(tmp_path, sim_config,
                                               train_config, capsys):
    data_path, ckpt_path = _trained(tmp_path, sim_config, train_config)
    code, err = _evaluate_edited(data_path, ckpt_path,
                                 lambda doc: doc.pop("input_mean"), capsys)
    assert code == 1
    assert f"malformed checkpoint {ckpt_path}: missing entry 'input_mean'" in err


def test_evaluate_non_finite_checkpoint_exits_1(tmp_path, sim_config,
                                                train_config, capsys):
    # In either net, whose name the error gives; looped over, not
    # parametrized, so the case keeps its id.
    data_path, ckpt_path = _trained(tmp_path, sim_config, train_config)
    f1_w0 = load_checkpoint(ckpt_path).net.blocks["f1"].start  # f1.W0[0, 0]
    good = ckpt_path.read_text()
    for name in ("net", "net_rmse"):
        ckpt_path.write_text(good)

        def edit(doc):
            doc[name][f1_w0] = float("nan")

        code, err = _evaluate_edited(data_path, ckpt_path, edit, capsys)
        assert code == 1
        assert (f"malformed checkpoint {ckpt_path}: {name}: f1 has non-finite "
                f"parameters") in err


@pytest.mark.parametrize("field,value", [("phi_width", 77), ("head_depth", 9)])
def test_evaluate_checkpoint_whose_config_was_edited_exits_1(
        tmp_path, sim_config, train_config, capsys, field, value):
    # The nets are built from the config's architecture, so an edited depth
    # or width no longer lays out the saved parameter vectors.
    data_path, ckpt_path = _trained(tmp_path, sim_config, train_config)
    n = len(json.loads(ckpt_path.read_text())["net"])
    code, err = _evaluate_edited(data_path, ckpt_path,
                                 lambda doc: doc["config"].update({field: value}), capsys)
    assert code == 1
    assert (f"malformed checkpoint {ckpt_path}: net: params has shape ({n},); "
            f"the specs lay out (") in err


def test_evaluate_version_1_checkpoint_exits_1(tmp_path, sim_config,
                                               train_config, capsys):
    # Files of older versions (1: per-tensor nested lists; 2: a sidecar
    # beside the nets; 3: the selected epochs, scores, rule and beta stored
    # beside the history and config they derive from; 4: specs naming their
    # hidden activation, a config naming eps_clip and a Sinkhorn cost; 5:
    # each net stored its own specs, outcome kind and input transform) are
    # rejected, not read.
    data_path, ckpt_path = _trained(tmp_path, sim_config, train_config)
    for version in (1, 2, 3, 4, 5):
        code, err = _evaluate_edited(data_path, ckpt_path,
                                     lambda doc: doc.update(version=version), capsys)
        assert code == 1
        assert (f"unsupported checkpoint version {version} in {ckpt_path}: "
                f"this code reads version 6") in err


@pytest.mark.parametrize("key,value,message", [
    ("outcome_kind", "foo", "net: unknown outcome_kind 'foo'"),
    ("clip_events", -1, "clip_events must be nonnegative, not -1"),
    ("config", None, "config must be a TrainConfig or its JSON object, not None"),
    ("history", None, "history must be a list, not None"),
    pytest.param("history", [3], "history[0] must be a JSON object, not 3",
                 id="history-entry-3"),
    pytest.param("history", [], "history is empty", id="history-empty"),
])
def test_evaluate_checkpoint_with_a_bad_scalar_exits_1(
        tmp_path, sim_config, train_config, capsys, key, value, message):
    data_path, ckpt_path = _trained(tmp_path, sim_config, train_config)
    code, err = _evaluate_edited(data_path, ckpt_path,
                                 lambda doc: doc.update({key: value}), capsys)
    assert code == 1
    assert f"malformed checkpoint {ckpt_path}: {message}" in err


@pytest.mark.parametrize("key,value,message", [
    ("val_rmse", "abc", "val_rmse must be a number, not 'abc'"),
    ("val_eps_p", None, "val_eps_p must be a number, not None"),
    ("epoch", 1.5, "epoch must be an integer, not 1.5"),
    ("epoch", 0, "epoch must be at least 1, not 0"),
    pytest.param("l_fo", [1], "l_fo must be a number, not [1]", id="l_fo-list"),
    ("l_imb", float("nan"), "l_imb must be finite, not nan"),
    ("omega_d", float("inf"), "omega_d must be finite, not inf"),
    ("l_foo", 1.0, "unknown entry 'l_foo'"),
])
def test_evaluate_checkpoint_with_a_bad_history_entry_exits_1(
        tmp_path, sim_config, train_config, capsys, key, value, message):
    # The last entry is edited; the message names it and the field.
    data_path, ckpt_path = _trained(tmp_path, sim_config, train_config)
    entries = len(json.loads(ckpt_path.read_text())["history"])
    code, err = _evaluate_edited(data_path, ckpt_path,
                                 lambda doc: doc["history"][-1].update({key: value}),
                                 capsys)
    assert code == 1
    assert f"malformed checkpoint {ckpt_path}: history[{entries - 1}]: {message}" in err


def _renumbered(doc):
    doc["history"].reverse()


def _every_score_nan(column):
    def edit(doc):
        for entry in doc["history"]:
            entry[column] = float("nan")
    return edit


@pytest.mark.parametrize("edit,message", [
    (_renumbered, "history[0] has epoch 2, not 1"),
    (_every_score_nan("val_eps_p"), "no history entry has a finite val_eps_p"),
    (_every_score_nan("val_rmse"), "no history entry has a finite val_rmse"),
])
def test_evaluate_checkpoint_whose_history_selects_no_epoch_exits_1(
        tmp_path, sim_config, train_config, capsys, edit, message):
    # The selected epochs are derived from the history, so a history that
    # is out of order or has no finite score under full_mbrl's rule or under
    # RMSE leaves nothing to derive them from.
    data_path, ckpt_path = _trained(tmp_path, sim_config, train_config)
    code, err = _evaluate_edited(data_path, ckpt_path, edit, capsys)
    assert code == 1
    assert f"malformed checkpoint {ckpt_path}: {message}" in err


@pytest.mark.parametrize("edit,entry", [
    (lambda doc: doc.update(best_epoch=99), "'best_epoch'"),
    (lambda doc: doc.update(selection="rmse", beta=1.0), "'beta'"),
    (lambda doc: doc["config"].update(eps_clip=100.0), "'eps_clip' in config"),
    (lambda doc: doc["config"]["sinkhorn"].update(cost="euclidean"),
     "'cost' in sinkhorn"),
], ids=["top-level", "first-of-two", "config-eps_clip", "sinkhorn-cost"])
def test_evaluate_checkpoint_with_an_unknown_entry_exits_1(
        tmp_path, sim_config, train_config, capsys, edit, entry):
    # A key the loader would not read is named, not ignored: a leftover
    # best_epoch would otherwise look stored while the history decides.
    # Version-4 files held the last two; a version-6 file naming one is
    # rejected like any other unknown key.
    data_path, ckpt_path = _trained(tmp_path, sim_config, train_config)
    code, err = _evaluate_edited(data_path, ckpt_path, edit, capsys)
    assert code == 1
    assert f"malformed checkpoint {ckpt_path}: unknown entry {entry}" in err


@pytest.mark.parametrize("name,value,message", [
    ("net", "abc", "could not convert string to float: 'abc'"),
    ("net", [[0.5]], "params has shape (1, 1); the specs lay out"),
    ("net_rmse", {"params": [0.5]}, "float() argument must be a string or a real "
                                    "number, not 'dict'"),
    ("net_rmse", None, "params has shape (); the specs lay out"),
], ids=["net-string", "net-list", "net_rmse-object", "net_rmse-null"])
def test_evaluate_checkpoint_whose_net_is_not_a_parameter_list_exits_1(
        tmp_path, sim_config, train_config, capsys, name, value, message):
    data_path, ckpt_path = _trained(tmp_path, sim_config, train_config)
    code, err = _evaluate_edited(data_path, ckpt_path,
                                 lambda doc: doc.update({name: value}), capsys)
    assert code == 1
    assert f"malformed checkpoint {ckpt_path}: {name}: {message}" in err


def test_evaluate_checkpoint_with_a_non_finite_validation_score_exits_0(
        tmp_path, sim_config, train_config, capsys):
    # fit records an epoch whose validation score is not finite, so a
    # checkpoint may hold one.
    data_path, ckpt_path = _trained(tmp_path, sim_config, train_config)
    code, _ = _evaluate_edited(data_path, ckpt_path, lambda doc: doc["history"][0].update(
        val_rmse=float("nan"), val_eps_p=float("inf")), capsys)
    assert code == 0
    assert np.isnan(load_checkpoint(ckpt_path).history[0].val_rmse)


def test_unknown_train_config_key_exits_1(tmp_path, sim_config, capsys):
    # A typo and the keys a config no longer has (eps_clip, sinkhorn.cost,
    # sim.sigma_scale, knn_k), in a train config and in a bench config;
    # the error names the key and, in a nested block, the block.
    data_path = str(tmp_path / "data.csv")
    assert main(["generate", "--config", sim_config, "--out", data_path]) == 0
    out = str(tmp_path / "out")
    train = ["train", "--data", data_path, "--out", out, "--config"]
    bench = ["bench", "--out", out, "--config"]
    for argv, doc, message in [
        (train, {"epochs": 1, "learning_rte": 0.1}, "unknown entry 'learning_rte'"),
        (train, {"epochs": 1, "eps_clip": 100.0}, "unknown entry 'eps_clip'"),
        (bench, _bench_doc(**{"train.eps_clip": 100.0}),
         "unknown entry 'eps_clip' in train"),
        (bench, _bench_doc(**{"train.sinkhorn.cost": "euclidean"}),
         "unknown entry 'cost' in sinkhorn"),
        (bench, _bench_doc(**{"sim.sigma_scale": 0.5}),
         "unknown entry 'sigma_scale' in sim"),
        (bench, _bench_doc(knn_k=5), "unknown entry 'knn_k'"),
    ]:
        capsys.readouterr()
        assert main([*argv, _write(tmp_path / "cfg.json", doc)]) == 1
        assert message in capsys.readouterr().err
        assert not Path(out).exists()


def test_train_config_that_is_not_an_object_exits_1(tmp_path, sim_config, capsys):
    data_path = str(tmp_path / "data.csv")
    assert main(["generate", "--config", sim_config, "--out", data_path]) == 0
    cfg = _write(tmp_path / "list.json", [1, 2])
    capsys.readouterr()
    assert main(["train", "--config", cfg, "--data", data_path,
                 "--out", str(tmp_path / "ckpt.json")]) == 1
    assert "must hold a JSON object, not a list" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["split", "train"])
def test_bench_null_nested_config_exits_1(tmp_path, key, capsys):
    cfg = _write(tmp_path / "exp.json", {"source": "simulator", key: None,
                                         "estimators": ["plugin"]})
    assert main(["bench", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert f"{key} must be a" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_evaluate_truncated_checkpoint_exits_1(tmp_path, sim_config,
                                               train_config, capsys):
    data_path, ckpt_path = _trained(tmp_path, sim_config, train_config)
    ckpt_path.write_bytes(ckpt_path.read_bytes()[:500])
    capsys.readouterr()
    assert main(["evaluate", "--checkpoint", str(ckpt_path),
                 "--data", data_path]) == 1
    err = capsys.readouterr().err
    assert f"malformed checkpoint {ckpt_path}: not valid JSON" in err


# One case per record holding int fields (SimConfig, SplitSpec,
# SinkhornConfig, TrainConfig, ExperimentConfig).
@pytest.mark.parametrize("path,value", [
    ("train.sinkhorn.max_iters", 1e2),
    ("train.epochs", 2.0),
    ("train.phi_width", 8.7),
    ("train.seed", True),
    ("replications", 2.0),
    ("sim.dim", 3.0),
    ("split.seed", 1.5),
])
def test_bench_rejects_non_integer_int_fields(tmp_path, capsys, path, value):
    cfg = _write(tmp_path / "exp.json", _bench_doc(**{path: value}))
    out = tmp_path / "out"
    assert main(["bench", "--config", cfg, "--out", str(out)]) == 1
    field = path.rsplit(".", 1)[-1]
    assert f"{field} must be an integer, not {value!r}" in capsys.readouterr().err
    assert not out.exists()


# Python's JSON reader takes NaN and Infinity; one case per record holding
# float fields, and the entries of kl_levels.
@pytest.mark.parametrize("path,value,shown", [
    ("train.sinkhorn.tol", float("nan"), "nan"),
    ("train.lambda1", float("nan"), "nan"),
    ("train.learning_rate", float("nan"), "nan"),
    ("train.beta", float("inf"), "inf"),
    ("split.train_frac", float("nan"), "nan"),
    pytest.param("kl_levels", [0.5, float("-inf")], "-inf", id="kl_levels--inf"),
])
def test_bench_rejects_non_finite_float_fields(tmp_path, capsys, path, value, shown):
    cfg = _write(tmp_path / "exp.json", _bench_doc(**{path: value}))
    out = tmp_path / "out"
    assert main(["bench", "--config", cfg, "--out", str(out)]) == 1
    field = path.rsplit(".", 1)[-1]
    assert f"{field} must be finite, not {shown}" in capsys.readouterr().err
    assert not out.exists()


# Float fields and the entries of kl_levels take numbers only, and null only
# where the field is nullable.
@pytest.mark.parametrize("path,value,message", [
    ("train.learning_rate", True, "learning_rate must be a number, not True"),
    ("kl_levels", [True], "kl_levels must be a number, not True"),
    ("kl_levels", ["a"], "kl_levels must be a number, not 'a'"),
    ("kl_levels", [None], "kl_levels must be a number, not None"),
    ("train.lambda1", None, "lambda1 must be a number, not None"),
], ids=["learning_rate-true", "kl_levels-true", "kl_levels-string",
        "kl_levels-null", "lambda1-null"])
def test_bench_rejects_non_numbers_in_float_fields(tmp_path, capsys, path,
                                                   value, message):
    cfg = _write(tmp_path / "exp.json", _bench_doc(**{path: value}))
    out = tmp_path / "out"
    assert main(["bench", "--config", cfg, "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_train_rejects_a_split_that_is_not_an_object(tmp_path, sim_config, capsys):
    data_path = str(tmp_path / "data.csv")
    assert main(["generate", "--config", sim_config, "--out", data_path]) == 0
    cfg = _write(tmp_path / "train.json", {"epochs": 1, "split": []})
    out = tmp_path / "ckpt.json"
    capsys.readouterr()
    assert main(["train", "--config", cfg, "--data", data_path,
                 "--out", str(out)]) == 1
    assert ("split must be a SplitSpec or its JSON object, not []"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("path,value,message", [
    ("sim.mu1", [float("nan"), 0.0, 0.0], "mu1 must be finite, not [nan, 0.0, 0.0]"),
    ("sim.mu0", [0.0, float("inf"), 0.0], "mu0 must be finite, not [0.0, inf, 0.0]"),
    ("estimators", ["ols_lr1", "plugin", "ols_lr1"],
     "estimators lists ['ols_lr1'] more than once"),
    ("estimators", "plugin", "estimators must be a list of names, not 'plugin'"),
    ("train.sinkhorn", [],
     "sinkhorn must be a SinkhornConfig or its JSON object, not []"),
    ("train.sinkhorn", False,
     "sinkhorn must be a SinkhornConfig or its JSON object, not False"),
    ("train.sinkhorn", 0,
     "sinkhorn must be a SinkhornConfig or its JSON object, not 0"),
    ("train.sinkhorn", "",
     "sinkhorn must be a SinkhornConfig or its JSON object, not ''"),
], ids=["mu1-nan", "mu0-inf", "estimators-repeated", "estimators-string",
        "sinkhorn-list", "sinkhorn-false", "sinkhorn-zero", "sinkhorn-string"])
def test_bench_rejects_bad_means_estimators_and_sinkhorn(tmp_path, capsys,
                                                         path, value, message):
    cfg = _write(tmp_path / "exp.json", _bench_doc(**{path: value}))
    out = tmp_path / "out"
    assert main(["bench", "--config", cfg, "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("path,value,message", [
    ("estimators", 5, "estimators must be a list of names, not 5"),
    ("estimators", None, "estimators must be a list of names, not None"),
    ("kl_levels", 5, "kl_levels must be a list of numbers or null, not 5"),
], ids=["estimators-number", "estimators-null", "kl_levels-number"])
def test_bench_rejects_list_fields_that_are_not_lists(tmp_path, capsys,
                                                      path, value, message):
    cfg = _write(tmp_path / "exp.json", _bench_doc(**{path: value}))
    out = tmp_path / "out"
    assert main(["bench", "--config", cfg, "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name", ["mu1", "mu0"])
def test_generate_rejects_non_finite_means(tmp_path, capsys, name):
    cfg = _write(tmp_path / "sim.json", {"n_treated": 5, "n_control": 5,
                                         "dim": 2, name: [float("nan"), 0.0]})
    out = tmp_path / "data.csv"
    assert main(["generate", "--config", cfg, "--out", str(out)]) == 1
    assert f"{name} must be finite, not [nan, 0.0]" in capsys.readouterr().err
    assert not out.exists()


def test_train_rejects_non_integer_int_field(tmp_path, sim_config, capsys):
    data_path = str(tmp_path / "data.csv")
    assert main(["generate", "--config", sim_config, "--out", data_path]) == 0
    cfg = _write(tmp_path / "train.json", {"epochs": 1, "head_width": 5.5})
    capsys.readouterr()
    assert main(["train", "--config", cfg, "--data", data_path,
                 "--out", str(tmp_path / "ckpt.json")]) == 1
    assert "head_width must be an integer, not 5.5" in capsys.readouterr().err


def test_int_fields_accept_numpy_integers():
    cfg = ExperimentConfig(**_bench_doc(replications=np.int64(2),
                                        **{"train.epochs": np.int32(3),
                                           "sim.dim": np.uint8(3)}))
    assert cfg.replications == 2 and cfg.train.epochs == 3 and cfg.sim.dim == 3
    doc = cfg.to_dict()  # the report's metadata.config
    assert (doc["replications"], doc["train"]["epochs"]) == (2, 3)


def test_bench_exits_2_when_every_replication_fails(tmp_path, monkeypatch, capsys):
    def broken_fit(train, val, cfg):
        raise RuntimeError("no fit today")

    monkeypatch.setattr(harness, "fit", broken_fit)
    cfg = _write(tmp_path / "exp.json", _bench_doc(replications=2))
    out = tmp_path / "out"
    assert main(["bench", "--config", cfg, "--out", str(out)]) == 2
    assert "all 2 replications failed" in capsys.readouterr().err
    report = json.loads((out / "report.json").read_text())
    assert report["metadata"]["n_failures"] == 2 and report["rows"] == []


def test_bench_with_some_failed_replications_exits_0(tmp_path, monkeypatch):
    fit, calls = harness.fit, []

    def fails_first(train, val, cfg):
        calls.append(cfg.seed)
        if len(calls) == 1:
            raise RuntimeError("first fit fails")
        return fit(train, val, cfg)

    monkeypatch.setattr(harness, "fit", fails_first)
    cfg = _write(tmp_path / "exp.json", _bench_doc(replications=2))
    out = tmp_path / "out"
    assert main(["bench", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["metadata"]["n_failures"] == 1 and report["rows"]


@pytest.mark.parametrize("changes,message", [
    pytest.param({"source": "csv", "sim": None, "csv_path": "data.csv",
                  "outcome_kind": "bogus"}, "unknown outcome_kind 'bogus'",
                 id="csv-outcome_kind-bogus"),
    pytest.param({"outcome_kind": "binary"}, "continuous outcomes only",
                 id="sim-outcome_kind-binary"),
    pytest.param({"kl_levels": []}, "kl_levels must be nonempty",
                 id="kl_levels-empty"),
])
def test_bench_rejects_outcome_kind_and_empty_kl_levels(tmp_path, capsys,
                                                         changes, message):
    cfg = _write(tmp_path / "exp.json", _bench_doc(**changes))
    out = tmp_path / "out"
    assert main(["bench", "--config", cfg, "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_bench_rejects_a_sim_block_under_a_csv_source(tmp_path, capsys):
    cfg = _write(tmp_path / "exp.json", _bench_doc(source="csv", csv_path="data.csv"))
    out = tmp_path / "out"
    assert main(["bench", "--config", cfg, "--out", str(out)]) == 1
    assert "sim applies only to the simulator source" in capsys.readouterr().err
    assert not out.exists()


FLAG_ERROR = "argument --seed: must be nonnegative"


@pytest.mark.parametrize("command,message", [
    (["bench", "--config", "{exp}", "--seed", "-3"], FLAG_ERROR),
    (["bench", "--config", "{exp_negative}"], "seed must be nonnegative, not -1"),
    (["generate", "--config", "{sim}", "--seed", "-1"], FLAG_ERROR),
    (["train", "--data", "{data}", "--seed", "-1"], FLAG_ERROR),
])
def test_negative_seed_exits_1_naming_it(tmp_path, sim_config, capsys,
                                         command, message):
    paths = {"exp": _write(tmp_path / "exp.json", _bench_doc()),
             "exp_negative": _write(tmp_path / "neg.json", _bench_doc(seed=-1)),
             "sim": sim_config, "data": str(tmp_path / "data.csv")}
    assert main(["generate", "--config", sim_config, "--out", paths["data"]]) == 0
    out = str(tmp_path / "out")
    capsys.readouterr()
    assert main([arg.format(**paths) for arg in command] + ["--out", out]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("header,duplicated", [
    ("z1,d,d,y", "['d']"),
    ("z1,z1,d,y", "['z1']"),
])
def test_csv_with_a_repeated_column_exits_1(tmp_path, capsys, header, duplicated):
    path = tmp_path / "dup.csv"
    rows = "".join(f"{0.1 * i},{i % 2},{i % 2},{float(i)}\n" for i in range(20))
    path.write_text(header + "\n" + rows)
    assert main(["train", "--data", str(path), "--out",
                 str(tmp_path / "ckpt.json")]) == 1
    assert f"duplicate column(s) {duplicated}" in capsys.readouterr().err


def test_evaluate_on_other_covariate_width_exits_1(tmp_path, sim_config,
                                                   train_config, capsys):
    data_path, ckpt_path = str(tmp_path / "data.csv"), str(tmp_path / "ckpt.json")
    assert main(["generate", "--config", sim_config, "--out", data_path]) == 0
    assert main(["train", "--config", train_config, "--data", data_path,
                 "--out", ckpt_path]) == 0
    wide = _write(tmp_path / "wide.json", {"n_treated": 30, "n_control": 60, "dim": 4})
    wide_data = str(tmp_path / "wide.csv")
    assert main(["generate", "--config", wide, "--out", wide_data]) == 0
    capsys.readouterr()
    assert main(["evaluate", "--checkpoint", ckpt_path, "--data", wide_data]) == 1
    assert "covariates have 4 columns, but the net takes 3" in capsys.readouterr().err
