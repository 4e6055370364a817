import json
from dataclasses import asdict, replace

import numpy as np
import pytest

from mbrl import model, nn
from mbrl.data import Dataset, SimConfig, SplitSpec, generate_simulation, split
from mbrl.model import (ABLATIONS, Batch, TrainConfig, build_net,
                        default_beta, fit, init_train_state, load_checkpoint,
                        multitask_step, perturbation_error, predict,
                        save_checkpoint, task_gradient_error, task_objective,
                        validation_scores)
from mbrl.ot import SinkhornConfig

TINY = TrainConfig(batch_size=8, epochs=2, phi_depth=2, phi_width=6,
                   pi_depth=2, pi_width=5, head_depth=2, head_width=5,
                   sinkhorn=SinkhornConfig(entropic_reg=0.1, max_iters=50,
                                           tol=1e-6))


def _tiny_net(outcome_kind="continuous", seed=0):
    return build_net(3, outcome_kind, TINY, seed=seed)


def _zeroed(net):
    for ps in (net.phi, net.pi, net.f0, net.f1):
        for w in ps.weights:
            w[:] = 0.0
        for b in ps.biases:
            b[:] = 0.0
    return net


def _batch(n=8, seed=0):
    rng = np.random.default_rng(seed)
    d = np.zeros(n)
    d[: n // 2] = 1.0
    return Batch(rng.normal(size=(n, 3)), d, rng.normal(size=n))


def _small_sim(seed=0):
    data, _ = generate_simulation(
        SimConfig(n_treated=40, n_control=80, dim=3, seed=seed))
    return split(data, SplitSpec(0.6, 0.2, 0.2, seed=seed))


# ---------------------------------------------------------------- predict

def test_predict_zero_net_outputs():
    net = _zeroed(_tiny_net())
    Z = np.random.default_rng(1).normal(size=(5, 3))
    yhat0, yhat1, p = predict(net, Z)
    np.testing.assert_array_equal(yhat0, 0.0)
    np.testing.assert_array_equal(yhat1, 0.0)
    np.testing.assert_array_equal(p, 0.5)


def test_predict_batch_equivariance():
    net = _tiny_net(seed=3)
    Z = np.random.default_rng(2).normal(size=(7, 3))
    perm = np.random.default_rng(3).permutation(7)
    a = predict(net, Z)
    b = predict(net, Z[perm])
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x[perm], y)


# ---------------------------------------------------------------- losses

def _term(net, batch, task, name):
    return task_objective(net, batch, TINY, task).terms[name]


def test_factual_loss_examples():
    net = _zeroed(_tiny_net())
    batch = Batch(np.zeros((2, 3)), np.array([1.0, 0.0]), np.array([0.0, 2.0]))
    # predictions are identically zero: mean((y - 0)^2) = 2.0
    assert _term(net, batch, 3, "l_fo") == pytest.approx(2.0)
    zero = Batch(np.zeros((2, 3)), np.array([1.0, 0.0]), np.zeros(2))
    assert _term(net, zero, 3, "l_fo") == 0.0


def test_factual_loss_binary():
    net = _zeroed(_tiny_net("binary"))
    batch = Batch(np.zeros((1, 3)), np.array([1.0]), np.array([1.0]))
    # predicted probability is sigmoid(0) = 0.5 -> loss log 2
    assert _term(net, batch, 3, "l_fo") == pytest.approx(np.log(2.0))


def test_distinguishability_examples():
    net = _zeroed(_tiny_net())
    one = Batch(np.zeros((1, 3)), np.array([1.0]), np.zeros(1))
    assert _term(net, one, 1, "l_dis") == pytest.approx(np.log(0.5))
    both = Batch(np.zeros((2, 3)), np.array([1.0, 0.0]), np.zeros(2))
    assert _term(net, both, 1, "l_dis") == pytest.approx(-np.log(2.0))


def test_noise_regularizers_examples():
    net = _zeroed(_tiny_net())
    net.eps_y[()] = 2.0
    # residuals (1, -3): mean -1 -> omega_y = 2 * |-1| = 2
    batch = Batch(np.zeros((2, 3)), np.array([1.0, 0.0]), np.array([1.0, -3.0]))
    assert _term(net, batch, 3, "omega_y") == pytest.approx(2.0)
    # eps_d is zero at init -> omega_d = 0 regardless of the gap
    assert _term(net, batch, 1, "omega_d") == 0.0
    net.eps_y[()] = 0.0
    assert _term(net, batch, 3, "omega_y") == 0.0


def test_perturbation_error_examples():
    y = np.array([1.0, -1.0]); yhat = np.zeros(2)
    d = np.array([1.0, 1.0]); dhat = np.array([0.5, 0.5])
    assert perturbation_error(y, yhat, d, dhat, beta=0.1) == pytest.approx(1.0)
    y2 = np.array([1.0, 1.0])
    assert perturbation_error(y2, yhat, d, dhat, beta=0.1) == pytest.approx(1.05)
    assert perturbation_error(y2, yhat, d, dhat, beta=0.0) == pytest.approx(1.0)


def test_perturbation_error_length_mismatch():
    with pytest.raises(ValueError, match="length mismatch"):
        perturbation_error([1.0], [1.0, 2.0], [1.0], [0.5], beta=0.1)


def test_default_beta():
    assert default_beta("continuous") == 0.1
    assert default_beta("binary") == 100.0


# ---------------------------------------------------------------- multitask step

def test_step_applies_task_objective_gradients():
    # One step equals Adam updates built from task_objective's gradients, in
    # task order, on an identical copy of the net: training runs the
    # objectives the finite-difference checks verify.
    net = _tiny_net(seed=9)
    net.eps_y[()] = 0.3
    net.eps_d[()] = -0.2
    ref = net.copy()
    batch = _batch(seed=10)
    multitask_step(init_train_state(net, TINY), batch, TINY)

    ref_state = init_train_state(ref, TINY)
    for task, opt in ref_state.opts.items():
        _, grads, group, _ = task_objective(ref, batch, TINY, task)
        nn.adam_update(group, grads, opt, maximize=task == 1)

    for name in ("phi", "pi", "f0", "f1"):
        for a, b in zip(getattr(net, name).tensors(), getattr(ref, name).tensors()):
            np.testing.assert_array_equal(a, b)
    assert float(net.eps_y) == float(ref.eps_y)
    assert float(net.eps_d) == float(ref.eps_d)
    assert float(net.eps_y) != 0.3 and float(net.eps_d) != -0.2


def test_balanced_step_runs_the_encoder_once_for_tasks_1_and_2(monkeypatch):
    # encoder + discriminator (tasks 1 and 2 share the encoder pass), then
    # encoder + two heads for task 3: five forward passes, not six.
    calls = []
    forward = nn.forward
    monkeypatch.setattr(nn, "forward",
                        lambda params, *a: calls.append(params) or forward(params, *a))
    net = _tiny_net(seed=9)
    multitask_step(init_train_state(net, TINY), _batch(seed=10), TINY)
    assert [id(p) for p in calls] == [id(net.phi), id(net.pi), id(net.phi),
                                      id(net.f0), id(net.f1)]


def test_step_zero_learning_rate_keeps_parameters():
    cfg = replace(TINY, learning_rate=0.0)
    net = _tiny_net(seed=1)
    state = init_train_state(net, cfg)
    before = [t.copy() for t in net.phi.tensors() + net.pi.tensors()
              + net.f0.tensors() + net.f1.tensors()]
    multitask_step(state, _batch(), cfg)
    after = net.phi.tensors() + net.pi.tensors() + net.f0.tensors() + net.f1.tensors()
    for a, b in zip(before, after):
        np.testing.assert_array_equal(a, b)
    assert state.last["l_fo"] > 0.0  # losses recorded


def test_step_single_group_batch_skips_balancing():
    net = _tiny_net(seed=2)
    state = init_train_state(net, TINY)
    rng = np.random.default_rng(0)
    all_control = Batch(rng.normal(size=(6, 3)), np.zeros(6), rng.normal(size=6))
    multitask_step(state, all_control, TINY)
    assert state.last["l_imb"] == 0.0
    assert state.opts[2].step == 0      # task 2 untouched
    assert state.opts[1].step == 1
    assert state.opts[3].step == 1


def test_step_tarnet_mode_never_balances():
    cfg = replace(TINY, ablation="tarnet_mode")
    net = _tiny_net(seed=3)
    state = init_train_state(net, cfg)
    multitask_step(state, _batch(), cfg)
    assert state.opts[2].step == 0
    assert state.last["l_imb"] == 0.0
    # eps scalars frozen
    assert float(net.eps_y) == 0.0 and float(net.eps_d) == 0.0


def test_step_cfr_mode_only_adds_balancing():
    net_t = _tiny_net(seed=4)
    net_c = _tiny_net(seed=4)
    cfg_t = replace(TINY, ablation="tarnet_mode")
    cfg_c = replace(TINY, ablation="cfr_mode")
    st_t = init_train_state(net_t, cfg_t)
    st_c = init_train_state(net_c, cfg_c)
    batch = _batch(seed=5)
    multitask_step(st_t, batch, cfg_t)
    multitask_step(st_c, batch, cfg_c)
    assert st_c.opts[2].step == 1 and st_t.opts[2].step == 0
    # task 1 runs before balancing and is unaffected by it
    for a, b in zip(net_t.pi.tensors(), net_c.pi.tensors()):
        np.testing.assert_array_equal(a, b)
    # the balancing step actually moved the encoder
    assert any(not np.array_equal(a, b)
               for a, b in zip(net_t.phi.tensors(), net_c.phi.tensors()))


def test_stationarity_links_constraint_to_zero_gap():
    # the eps_d gradient is -lambda1 * |mean(d - pi)|; it vanishes exactly
    # when the batch constraint holds
    net = _zeroed(_tiny_net(seed=6))  # propensity identically 0.5
    cfg = TINY
    balanced = Batch(np.zeros((2, 3)), np.array([1.0, 0.0]), np.zeros(2))
    grads = task_objective(net, balanced, cfg, task=1).grads
    assert float(grads[-1]) == 0.0   # mean(d - 0.5) = 0
    lopsided = Batch(np.zeros((2, 3)), np.array([1.0, 1.0]), np.zeros(2))
    grads = task_objective(net, lopsided, cfg, task=1).grads
    assert float(grads[-1]) == pytest.approx(-cfg.lambda1 * 0.5)


@pytest.mark.parametrize("task,tol", [(1, 1e-4), (2, 1e-3), (3, 1e-4)])
def test_task_gradients_match_finite_differences(task, tol):
    cfg = replace(TINY, lambda1=0.05, lambda2=0.05,
                  sinkhorn=SinkhornConfig(entropic_reg=0.01, max_iters=5000,
                                          tol=1e-10))
    net = _tiny_net(seed=7)
    net.eps_y[()] = 0.7
    net.eps_d[()] = -0.4
    assert task_gradient_error(net, _batch(seed=8), cfg, task, h=1e-5) <= tol


# ---------------------------------------------------------------- fit

def test_fit_single_epoch_and_history():
    tr, va, te = _small_sim()
    ckpt = fit(tr, va, replace(TINY, epochs=1))
    assert ckpt.best_epoch == 1
    assert len(ckpt.history) == 1
    assert ckpt.best_eps_p == ckpt.history[0].val_eps_p


def test_fit_selects_minimum_eps_p():
    tr, va, te = _small_sim(seed=1)
    ckpt = fit(tr, va, replace(TINY, epochs=5))
    eps = [h.val_eps_p for h in ckpt.history]
    assert ckpt.best_eps_p == min(eps)
    assert ckpt.best_epoch == int(np.argmin(eps)) + 1
    # rmse tracking is always available
    rmses = [h.val_rmse for h in ckpt.history]
    assert ckpt.best_val_rmse == min(rmses)
    assert ckpt.best_epoch_rmse == int(np.argmin(rmses)) + 1


def test_fit_deterministic_bitwise():
    tr, va, te = _small_sim(seed=2)
    cfg = replace(TINY, epochs=3, seed=11)
    a = fit(tr, va, cfg)
    b = fit(tr, va, cfg)
    for pa, pb in zip(a.net.phi.tensors(), b.net.phi.tensors()):
        np.testing.assert_array_equal(pa, pb)
    for pa, pb in zip(a.net.pi.tensors(), b.net.pi.tensors()):
        np.testing.assert_array_equal(pa, pb)
    assert [h.val_eps_p for h in a.history] == [h.val_eps_p for h in b.history]


def test_fit_no_eps_p_ablation_selects_on_rmse():
    tr, va, te = _small_sim(seed=3)
    ckpt = fit(tr, va, replace(TINY, epochs=4, ablation="no_eps_p"))
    assert ckpt.selection == "rmse"
    assert ckpt.best_epoch == ckpt.best_epoch_rmse
    assert ckpt.best_eps_p == ckpt.best_val_rmse


def test_fit_raises_when_no_epoch_is_finite(monkeypatch):
    tr, va, te = _small_sim(seed=4)
    monkeypatch.setattr(model, "validation_scores",
                        lambda net, val, beta: (float("nan"), float("nan")))
    with pytest.raises(RuntimeError, match="finite validation"):
        fit(tr, va, replace(TINY, epochs=2))


def test_fit_accepts_the_stock_configs():
    TrainConfig(batch_size=100, epochs=1000)
    TrainConfig(batch_size=1000, epochs=250)


def test_fit_rejects_mismatched_splits():
    tr, va, te = _small_sim(seed=4)
    bad_val = Dataset(np.zeros((4, 5)), [1, 0, 1, 0], np.zeros(4))
    with pytest.raises(ValueError, match="covariate dimensions"):
        fit(tr, bad_val, TINY)


def test_validation_scores_match_perturbation_error():
    tr, va, te = _small_sim(seed=5)
    ckpt = fit(tr, va, replace(TINY, epochs=1))
    val_rmse, val_eps_p = validation_scores(ckpt.net, va, ckpt.beta)
    assert val_eps_p >= val_rmse  # the cross term is nonnegative


# ---------------------------------------------------------------- ablation plumbing

def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(lambda1=-1.0)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=1)
    with pytest.raises(ValueError):
        TrainConfig(ablation="dropout")
    assert set(ABLATIONS) == {"full_mbrl", "no_eps_p", "no_orthogonality",
                              "tarnet_mode", "cfr_mode"}


def test_no_eps_p_trains_like_full_mbrl_and_selects_its_rmse_net():
    # The two rows of ABLATIONS differ only in the selection rule.
    tr, va, te = _small_sim(seed=6)
    cfg = replace(TINY, epochs=4, seed=3)
    full = fit(tr, va, cfg)
    no_eps_p = fit(tr, va, replace(cfg, ablation="no_eps_p"))
    assert no_eps_p.history == full.history
    assert no_eps_p.best_epoch == full.best_epoch_rmse
    for x, y in zip(predict(no_eps_p.net, te.covariates),
                    predict(full.net_rmse, te.covariates)):
        np.testing.assert_array_equal(x, y)


def test_cfr_mode_checkpoint_is_byte_identical_to_no_orthogonality(tmp_path):
    tr, va, _ = _small_sim(seed=7)
    paths = {}
    for ablation in ("no_orthogonality", "cfr_mode"):
        paths[ablation] = tmp_path / f"{ablation}.json"
        save_checkpoint(fit(tr, va, replace(TINY, epochs=3, ablation=ablation)),
                        paths[ablation])
    assert (paths["cfr_mode"].read_bytes()
            == paths["no_orthogonality"].read_bytes())
    # the sidecars differ only in the recorded ablation name
    metas = [json.loads(model.sidecar_path(p).read_text()) for p in paths.values()]
    for meta in metas:
        del meta["config"]["ablation"]
    assert metas[0] == metas[1]


@pytest.mark.parametrize("ablation", list(ABLATIONS))
def test_every_ablation_fits_one_epoch(ablation):
    tr, va, _ = _small_sim(seed=8)
    ckpt = fit(tr, va, replace(TINY, epochs=1, ablation=ablation))
    assert ckpt.best_epoch == 1 and len(ckpt.history) == 1
    assert ckpt.selection == ABLATIONS[ablation].selection


# ---------------------------------------------------------------- persistence

def test_checkpoint_round_trip(tmp_path):
    tr, va, te = _small_sim(seed=9)
    ckpt = fit(tr, va, replace(TINY, epochs=2))
    path = tmp_path / "ckpt.json"
    save_checkpoint(ckpt, path)
    back = load_checkpoint(path)
    assert back.best_epoch == ckpt.best_epoch
    assert back.best_eps_p == ckpt.best_eps_p
    assert back.selection == ckpt.selection
    assert back.config == ckpt.config
    assert len(back.history) == len(ckpt.history)
    for a, b in zip(ckpt.net.phi.tensors(), back.net.phi.tensors()):
        np.testing.assert_array_equal(a, b)
    assert back.best_epoch_rmse == ckpt.best_epoch_rmse
    # predictions agree exactly, for both selection rules
    for net, net_back in ((ckpt.net, back.net), (ckpt.net_rmse, back.net_rmse)):
        a = predict(net, te.covariates)
        b = predict(net_back, te.covariates)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)


def test_checkpoint_in_the_earlier_layout_still_loads(tmp_path):
    # Earlier files stored an empty "scalars" map in every subnet and no
    # net_rmse; such a file loads and predicts exactly as before.
    tr, va, te = _small_sim(seed=9)
    ckpt = fit(tr, va, replace(TINY, epochs=2))
    path = tmp_path / "ckpt.json"
    save_checkpoint(ckpt, path)
    doc = json.loads(path.read_text())
    del doc["net_rmse"]
    for sub in doc["net"]["subnets"].values():
        sub["params"]["scalars"] = {}
    path.write_text(json.dumps(doc, sort_keys=True))
    back = load_checkpoint(path)
    assert back.net_rmse is None
    a = predict(ckpt.net, te.covariates)
    b = predict(back.net, te.covariates)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)


def test_history_csv(tmp_path):
    tr, va, te = _small_sim(seed=10)
    ckpt = fit(tr, va, replace(TINY, epochs=3))
    from mbrl.model import history_to_csv
    path = tmp_path / "log.csv"
    history_to_csv(ckpt.history, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,l_fo,l_dis,l_imb,omega_y,omega_d,val_rmse,val_eps_p"
    assert len(lines) == 4


def test_train_config_json_round_trip_with_sinkhorn():
    cfg = TrainConfig(epochs=3, beta=0.5, ablation="cfr_mode",
                      sinkhorn=SinkhornConfig(entropic_reg=0.05, max_iters=17,
                                              tol=1e-4, cost="squared_euclidean"))
    back = TrainConfig(**json.loads(json.dumps(asdict(cfg))))
    assert back == cfg
    assert isinstance(back.sinkhorn, SinkhornConfig)
    assert TrainConfig(sinkhorn=None).sinkhorn == SinkhornConfig()
    with pytest.raises(TypeError):
        TrainConfig(**{**asdict(cfg), "sinkhorn": {"max_iter": 5}})


def _saved_checkpoint(tmp_path):
    tr, va, _ = _small_sim(seed=9)
    path = tmp_path / "ckpt.json"
    save_checkpoint(fit(tr, va, replace(TINY, epochs=1)), path)
    return path


def test_checkpoint_save_load_save_is_byte_identical(tmp_path):
    first = _saved_checkpoint(tmp_path)
    second = tmp_path / "again.json"
    save_checkpoint(load_checkpoint(first), second)
    assert second.read_bytes() == first.read_bytes()
    assert (tmp_path / "again.meta.json").read_bytes() == \
        (tmp_path / "ckpt.meta.json").read_bytes()


def _corrupt(path, edit):
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc, sort_keys=True))


def test_load_checkpoint_rejects_misshaped_tensor(tmp_path):
    path = _saved_checkpoint(tmp_path)

    def drop_column(doc):
        w0 = doc["net"]["subnets"]["phi"]["params"]["W0"]
        doc["net"]["subnets"]["phi"]["params"]["W0"] = [row[:-1] for row in w0]

    _corrupt(path, drop_column)
    with pytest.raises(ValueError, match=r"ckpt\.json.*phi\.W0 has shape \(6, 2\)"):
        load_checkpoint(path)


def test_load_checkpoint_rejects_missing_tensor(tmp_path):
    path = _saved_checkpoint(tmp_path)
    _corrupt(path, lambda doc: doc["net"]["subnets"]["f0"]["params"].pop("b1"))
    with pytest.raises(ValueError, match=r"ckpt\.json.*missing entry 'f0\.b1'"):
        load_checkpoint(path)


def test_load_checkpoint_rejects_missing_top_level_key(tmp_path):
    path = _saved_checkpoint(tmp_path)
    _corrupt(path, lambda doc: doc.pop("best_epoch"))
    with pytest.raises(ValueError, match=r"ckpt\.json.*missing entry 'best_epoch'"):
        load_checkpoint(path)


@pytest.mark.parametrize("target", ["ckpt.json", "ckpt.meta.json"])
def test_load_checkpoint_rejects_truncated_json(tmp_path, target):
    path = _saved_checkpoint(tmp_path)
    bad = tmp_path / target
    bad.write_bytes(bad.read_bytes()[:500])
    with pytest.raises(ValueError, match=rf"malformed checkpoint .*{target}: "
                                         r"not valid JSON \("):
        load_checkpoint(path)
