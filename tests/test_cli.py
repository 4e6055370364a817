import json

import pytest

from mbrl.cli import main
from mbrl.data import load_csv


def _write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


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

    ckpt_path = tmp_path / "ckpt.json"
    assert main(["train", "--config", train_config, "--data", str(data_path),
                 "--seed", "7", "--out", str(ckpt_path)]) == 0
    assert ckpt_path.exists()
    assert (tmp_path / "ckpt.meta.json").exists()
    assert (tmp_path / "ckpt.training_log.csv").exists()

    metrics_path = tmp_path / "metrics.json"
    assert main(["evaluate", "--checkpoint", str(ckpt_path),
                 "--data", str(data_path), "--out", str(metrics_path)]) == 0
    result = json.loads(metrics_path.read_text())
    assert "plugin" in result and "psi1" in result and "psi2" in result
    assert result["plugin"]["eps_ate"] >= 0.0


def test_bench_writes_report(tmp_path):
    cfg = _write(tmp_path / "exp.json", {
        "source": "simulator",
        "sim": {"n_treated": 30, "n_control": 60, "dim": 3},
        "split": {"train_frac": 0.6, "val_frac": 0.2, "test_frac": 0.2,
                  "seed": 0},
        "train": {"batch_size": 16, "epochs": 2, "phi_depth": 2,
                  "phi_width": 8, "pi_depth": 2, "pi_width": 6,
                  "head_depth": 2, "head_width": 6},
        "estimators": ["plugin", "ols_lr1"],
        "replications": 1,
        "seed": 2,
    })
    out = tmp_path / "results"
    assert main(["bench", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["metadata"]["n_failures"] == 0
    assert (out / "summary.csv").exists()
    assert (out / "boxplot_data.csv").exists()


def test_bench_output_dir_env_override(tmp_path, monkeypatch):
    cfg = _write(tmp_path / "exp.json", {
        "source": "simulator",
        "sim": {"n_treated": 30, "n_control": 60, "dim": 3},
        "split": {"train_frac": 0.6, "val_frac": 0.2, "test_frac": 0.2,
                  "seed": 0},
        "train": {"batch_size": 16, "epochs": 1, "phi_depth": 2,
                  "phi_width": 8, "pi_depth": 2, "pi_width": 6,
                  "head_depth": 2, "head_width": 6},
        "estimators": ["plugin"],
        "replications": 1,
    })
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


def test_evaluate_malformed_checkpoint_exits_1(tmp_path, sim_config,
                                               train_config, capsys):
    data_path = str(tmp_path / "data.csv")
    ckpt_path = tmp_path / "ckpt.json"
    assert main(["generate", "--config", sim_config, "--out", data_path]) == 0
    assert main(["train", "--config", train_config, "--data", data_path,
                 "--out", str(ckpt_path)]) == 0
    doc = json.loads(ckpt_path.read_text())
    del doc["net"]["subnets"]["phi"]["params"]["b1"]
    ckpt_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["evaluate", "--checkpoint", str(ckpt_path),
                 "--data", data_path]) == 1
    assert "missing entry 'phi.b1'" in capsys.readouterr().err


def test_unknown_train_config_key_exits_1(tmp_path, sim_config):
    data_path = str(tmp_path / "data.csv")
    assert main(["generate", "--config", sim_config, "--out", data_path]) == 0
    cfg = _write(tmp_path / "train.json", {"epochs": 1, "learning_rte": 0.1})
    assert main(["train", "--config", cfg, "--data", data_path,
                 "--out", str(tmp_path / "ckpt.json")]) == 1


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
    data_path = str(tmp_path / "data.csv")
    ckpt_path = tmp_path / "ckpt.json"
    assert main(["generate", "--config", sim_config, "--out", data_path]) == 0
    assert main(["train", "--config", train_config, "--data", data_path,
                 "--out", str(ckpt_path)]) == 0
    ckpt_path.write_bytes(ckpt_path.read_bytes()[:500])
    capsys.readouterr()
    assert main(["evaluate", "--checkpoint", str(ckpt_path),
                 "--data", data_path]) == 1
    err = capsys.readouterr().err
    assert f"malformed checkpoint {ckpt_path}: not valid JSON" in err
