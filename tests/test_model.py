import copy
import json
import pickle
import tracemalloc
from dataclasses import asdict, fields, replace

import numpy as np
import pytest

from mbrl import model, nn
from mbrl.checks import check_task_gradients
from mbrl.data import Dataset, SimConfig, SplitSpec, generate_simulation, split
from mbrl.estimators import PROPENSITY_CLAMP
from mbrl.metrics import rmse
from mbrl.model import (ABLATIONS, Batch, TrainConfig, build_net,
                        default_beta, fit, init_train_state, load_checkpoint,
                        multitask_step, perturbation_error, predict,
                        save_checkpoint, task_gradient_error, task_objective,
                        task_slice, validation_scores)
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

def _grads(net):
    # A gradient vector in the net's layout and its views.
    grad = np.zeros_like(net.params)
    return grad, net.views_of(grad)


def _objective(net, batch, cfg, task, grads):
    # task_objective at the net's encoding, with the representation
    # gradient backed through the encoder into grads, as the step does.
    R, cache_phi = model.encode(net, batch)
    objective = task_objective(net, batch, cfg, task, grads, R)
    if objective.rep_grad is not None:
        nn.backward(net.phi, net.phi_spec, cache_phi, objective.rep_grad,
                    input_grad=False, out=grads["phi"])
    return objective


def _term(net, batch, task, name):
    return _objective(net, batch, TINY, task, _grads(net)[1]).terms[name]


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
    # One step equals, on an identical copy of the net, the structure of two
    # optimizers: Adam over task 1's slice on its task_objective gradient,
    # then Adam over task 3's slice on the sum of tasks 2 and 3's. Training
    # runs the objectives the finite-difference checks verify, and one Adam
    # state over the whole net steps each entry as its group's own would.
    # The step backs the summed representation gradient through the encoder
    # once, where the reference sums two encoder gradients, so the encoder
    # agrees to rounding and every other block bytewise.
    for ablation, plan in ABLATIONS.items():
        cfg = replace(TINY, ablation=ablation)
        net = _tiny_net(seed=9)
        net.eps_y[()] = 0.3
        net.eps_d[()] = -0.2
        ref = replace(net)
        batch = _batch(seed=10)
        state = init_train_state(net, cfg)
        multitask_step(state, batch, cfg)
        assert state.opt.step == 1

        grad, grads = _grads(ref)
        s1, s3 = task_slice(ref, 1), task_slice(ref, 3)
        opt1, opt3 = (nn.adam_init(ref.params[s], grad[s], cfg.learning_rate)
                      for s in (s1, s3))
        _objective(ref, batch, cfg, 1, grads)
        nn.adam_update(opt1)
        _objective(ref, batch, cfg, 3, grads)
        if plan.run_balance:  # task 2 writes the encoder's block only
            imb, imb_grads = _grads(ref)
            _objective(ref, batch, cfg, 2, imb_grads)
            grad[s3] += imb[s3]
        nn.adam_update(opt3)

        phi = net.blocks["phi"]
        rest = np.ones(net.params.size, dtype=bool)
        rest[phi] = False
        assert net.params[rest].tobytes() == ref.params[rest].tobytes(), ablation
        np.testing.assert_allclose(net.params[phi], ref.params[phi], rtol=1e-12,
                                   atol=1e-15, err_msg=ablation)
        assert (float(net.eps_y) != 0.3 and float(net.eps_d) != -0.2) == plan.train_eps


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_a_step_that_raises_leaves_the_net_unchanged(bad):
    # The gradients of every task are checked before the one update moves
    # any block: task 1's discriminator and eps_d do not step ahead of a
    # task 3 that fails. Under warnings-as-errors the first error may be
    # the RuntimeWarning of a product with the non-finite output gradient.
    net = _tiny_net(seed=9)
    net.eps_d[()] = -0.2
    state = init_train_state(net, TINY)
    multitask_step(state, _batch(seed=1), TINY)
    before = net.params.tobytes()
    batch = _batch(seed=10)
    batch.outcome[3] = bad
    with pytest.raises((RuntimeError, RuntimeWarning, ValueError)):
        multitask_step(state, batch, TINY)
    assert net.params.tobytes() == before
    assert state.opt.step == 1


def test_a_replaced_net_is_a_copy_with_its_own_vector():
    net = _tiny_net(seed=9)
    net.eps_d[()] = -0.2
    copied = replace(net)
    assert copied.params.tobytes() == net.params.tobytes()
    views = [*(t for name in model.SUBNETS for t in getattr(copied, name).tensors()),
             copied.eps_y, copied.eps_d]
    assert all(np.shares_memory(t, copied.params) for t in views)
    assert not any(np.shares_memory(t, net.params) for t in views)
    assert not np.shares_memory(copied.input_mean, net.input_mean)
    assert not np.shares_memory(copied.input_scale, net.input_scale)


_COPIES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda net: pickle.loads(pickle.dumps(net)),
    "checkpoint-deepcopy": lambda net: copy.deepcopy(model.Checkpoint(
        net=net, net_rmse=net, history=[model.EpochStats(1, *[0.0] * 7)],
        config=TINY, clip_events=0)).net,
}


@pytest.mark.parametrize("how", list(_COPIES))
def test_a_copied_net_trains_through_its_own_vector(how):
    # Copies rebuild the net, so every view is of the copy's vector: steps
    # on the copy move its predictions and leave the original's alone.
    net = _tiny_net(seed=9)
    copied = _COPIES[how](net)
    views = [*(t for name in model.SUBNETS for t in getattr(copied, name).tensors()),
             copied.eps_y, copied.eps_d]
    assert all(np.shares_memory(t, copied.params) for t in views)
    assert not any(np.shares_memory(t, net.params) for t in views)
    assert copied.params.tobytes() == net.params.tobytes()
    Z = np.random.default_rng(1).normal(size=(5, 3))
    before, original = predict(copied, Z), predict(net, Z)
    state = init_train_state(copied, TINY)
    for seed in range(5):
        multitask_step(state, _batch(seed=seed), TINY)
    assert not np.array_equal(predict(copied, Z)[0], before[0])
    for a, b in zip(predict(net, Z), original):
        np.testing.assert_array_equal(a, b)


def test_a_net_is_built_with_one_copy_of_its_parameters():
    # A copy copies the vector once: no per-block pieces joined into a
    # second copy.
    net = build_net(10, "continuous", TrainConfig(), seed=0)
    assert _traced_peak(lambda: replace(net)) <= net.params.nbytes + 2**20


def test_build_net_draws_into_the_nets_own_vector():
    # The init draws go into the net's own vector one subnet at a time, so
    # a build holds less than two copies of the parameters; joining fresh
    # draws into a vector the net then copies would hold three.
    def build():
        return build_net(10, "continuous", TrainConfig(), seed=0)

    assert _traced_peak(build) < 2 * build().params.nbytes


@pytest.mark.parametrize("outcome_kind,head", [("continuous", "identity"),
                                               ("binary", "sigmoid")])
def test_net_specs_fit_the_representation_and_outcome_kind(outcome_kind, head):
    # The one statement of a net's architecture, which build_net and
    # load_checkpoint both take: pi, f0 and f1 read phi's output, each has
    # one output, pi's a sigmoid and the heads' the outcome kind's.
    cfg = TrainConfig(phi_depth=2, phi_width=7, pi_depth=3, pi_width=5,
                      head_depth=1, head_width=4)
    specs = model.net_specs(3, outcome_kind, cfg)
    assert list(specs) == [f"{name}_spec" for name in model.SUBNETS]
    assert specs["phi_spec"] == nn.NetSpec((3, 7, 7))
    for name in ("pi", "f0", "f1"):
        assert specs[f"{name}_spec"].input_width == specs["phi_spec"].output_width
        assert specs[f"{name}_spec"].output_width == 1
    assert specs["pi_spec"] == nn.NetSpec((7, 5, 5, 5, 1), output_activation="sigmoid")
    assert specs["f0_spec"] == specs["f1_spec"] == nn.NetSpec(
        (7, 4, 1), output_activation=head)
    net = build_net(3, outcome_kind, cfg, seed=0)
    assert all(getattr(net, key) == spec for key, spec in specs.items())


def test_nets_and_checkpoints_compare_without_raising():
    # Nets compare by identity (their arrays have no single truth value); a
    # checkpoint compares field by field, its nets by identity.
    net = _tiny_net(seed=9)
    assert net == net
    assert not net == replace(net)
    tr, va, _ = _small_sim(seed=9)
    ckpt = fit(tr, va, TINY)
    assert ckpt == ckpt
    assert not replace(ckpt, net=replace(ckpt.net)) == ckpt


def test_every_parameter_has_exactly_one_optimizer():
    # One Adam state over the net's whole parameter vector and the one
    # gradient vector, which task_objective writes through the state's
    # views. At the default architecture the moments hold 364,605 entries
    # each, not the 487,405 of a second optimizer over phi.
    for ablation in ABLATIONS:
        net = _tiny_net(seed=9)
        state = init_train_state(net, replace(TINY, ablation=ablation))
        assert state.opt.params is net.params
        assert all(np.shares_memory(v, state.opt.grad) for name in model.SUBNETS
                   for v in state.grads[name].tensors())
        assert all(np.shares_memory(state.grads[n], state.opt.grad)
                   for n in model.SCALARS)
    net = build_net(10, "continuous", TrainConfig(), seed=0)
    opt = init_train_state(net, TrainConfig()).opt
    assert opt.params is net.params
    assert net.params.size == opt.m.size == opt.v.size == opt.grad.size == 364_605


@pytest.mark.parametrize("ablation", list(ABLATIONS))
@pytest.mark.parametrize("task", [1, 2, 3])
def test_layout_keeps_each_task_group_one_slice(ablation, task):
    # Fails when a LAYOUT order splits a group: its slice, which
    # task_gradient_error checks, would take in a block the group does not
    # name. The slice is the whole group, its free scalar included, whatever
    # the ablation (which TASK_GROUPS does not read).
    net = _tiny_net(seed=9)
    size = {name: getattr(net, f"{name}_spec").n_params for name in model.SUBNETS}
    size.update(eps_d=1, eps_y=1)
    want = sum(size[b] for b in model.TASK_GROUPS[task])
    s = task_slice(net, task)
    assert s.stop - s.start == want
    blocks = [[getattr(net, name)] if name in model.SCALARS
              else getattr(net, name).tensors() for name in model.LAYOUT]
    assert net.params.tobytes() == np.concatenate(
        [np.ravel(t) for block in blocks for t in block]).tobytes()
    assert all(np.shares_memory(t, net.params) for block in blocks for t in block)


def test_steps_build_no_views(monkeypatch):
    # The net's and the gradient's views are built once, by the net and by
    # init_train_state, and the task slices never, in a step.
    net = _tiny_net(seed=9)
    state = init_train_state(net, TINY)
    calls = []

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return wrapper

    for owner, name in ((nn, "param_views"), (model.MBRLNet, "views_of"),
                        (model, "task_slice")):
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    for seed in range(10):
        multitask_step(state, _batch(seed=seed), TINY)
    assert state.opt.step == 10 and calls == []
    replace(net)
    assert "views_of" in calls   # the counting itself works


def test_step_writes_task_gradients_into_one_shared_buffer(monkeypatch):
    # Every task objective and every backward pass of a step writes into
    # the state's one gradient vector, through the views it holds, and one
    # Adam update steps it.
    seen, outs, updates = [], [], []
    objective, backward, update = model.task_objective, nn.backward, nn.adam_update
    monkeypatch.setattr(model, "task_objective", lambda *a, **k: seen.append(
        (a[3], a[4])) or objective(*a, **k))
    monkeypatch.setattr(nn, "backward", lambda *a, **k: outs.append(
        k["out"]) or backward(*a, **k))
    monkeypatch.setattr(nn, "adam_update", lambda opt: updates.append(opt) or update(opt))
    net = _tiny_net(seed=9)
    state = init_train_state(net, TINY)
    multitask_step(state, _batch(seed=10), TINY)
    assert [task for task, _ in seen] == [1, 3, 2]
    assert all(grads is state.grads for _, grads in seen)
    assert [id(out) for out in outs] == [id(state.grads[name])
                                         for name in ("pi", "f0", "f1", "phi")]
    assert updates == [state.opt]


def _passes(monkeypatch, net):
    # The subnet and row count of every forward pass, as (name, rows), and
    # the subnet of every backward pass, in call order.
    calls = []
    forward, backward = nn.forward, nn.backward
    monkeypatch.setattr(nn, "forward", lambda params, spec, X: calls.append(
        ("forward", params, len(X))) or forward(params, spec, X))
    monkeypatch.setattr(nn, "backward", lambda params, *a, **k: calls.append(
        ("backward", params, None)) or backward(params, *a, **k))
    names = {id(getattr(net, name)): name for name in model.SUBNETS}
    return lambda kind: [(names[id(p)], rows) if kind == "forward" else names[id(p)]
                         for k, p, rows in calls if k == kind]


def test_balanced_step_runs_the_encoder_once_for_tasks_1_and_2(monkeypatch):
    # One encoder pass serves all three tasks: encoder, discriminator and
    # two heads, four forward passes. Each head sees only its own arm: f0
    # the 5 control rows, f1 the 3 treated. The heads' and the balancing
    # representation gradients go back through the encoder once, last.
    net = _tiny_net(seed=9)
    batch = _batch(seed=10)._replace(treatment=np.array([1.0, 0, 0, 1, 0, 0, 1, 0]))
    passes = _passes(monkeypatch, net)
    multitask_step(init_train_state(net, TINY), batch, TINY)
    assert passes("forward") == [("phi", 8), ("pi", 8), ("f0", 5), ("f1", 3)]
    assert passes("backward") == ["pi", "f0", "f1", "phi"]


@pytest.mark.parametrize("case", ["tarnet_mode", "all_control"])
def test_a_step_without_balancing_runs_the_encoder_once(monkeypatch, case):
    # Without balancing the step makes the same passes as a balanced one.
    net = _tiny_net(seed=9)
    cfg = replace(TINY, ablation="full_mbrl" if case == "all_control" else case)
    batch = _batch(seed=10)
    if case == "all_control":
        batch = batch._replace(treatment=np.zeros(8))
    passes = _passes(monkeypatch, net)
    multitask_step(init_train_state(net, cfg), batch, cfg)
    f0_rows = 8 if case == "all_control" else 4
    assert passes("forward") == [("phi", 8), ("pi", 8), ("f0", f0_rows),
                                 ("f1", 8 - f0_rows)]
    assert passes("backward") == ["pi", "f0", "f1", "phi"]


def test_a_task_group_holding_phi_gets_the_encoder_gradient(monkeypatch):
    # The table edit that has task 1 train the encoder too.
    monkeypatch.setitem(model.TASK_GROUPS, 1, ("eps_d", "pi", "phi"))
    cfg = replace(TINY, lambda1=0.05)
    net = _tiny_net(seed=7)
    net.eps_d[()] = -0.4
    assert task_gradient_error(net, _batch(seed=8), cfg, 1, h=1e-5) <= 1e-4


def test_a_step_with_phi_in_task_1s_group_makes_the_same_passes(monkeypatch):
    # With the table edit alone the step still makes one encoder pass, one
    # encoder backward and one Adam update; task 1's representation
    # gradient joins the sum, so the encoder moves differently.
    batch = _batch(seed=10)
    unpatched = _tiny_net(seed=9)
    multitask_step(init_train_state(unpatched, TINY), batch, TINY)
    monkeypatch.setitem(model.TASK_GROUPS, 1, ("eps_d", "pi", "phi"))
    net = _tiny_net(seed=9)
    state = init_train_state(net, TINY)
    passes = _passes(monkeypatch, net)
    updates = []
    update = nn.adam_update
    monkeypatch.setattr(nn, "adam_update", lambda opt: updates.append(opt) or update(opt))
    multitask_step(state, batch, TINY)
    assert passes("forward") == [("phi", 8), ("pi", 8), ("f0", 4), ("f1", 4)]
    assert passes("backward") == ["pi", "f0", "f1", "phi"]
    assert updates == [state.opt]
    phi = net.blocks["phi"]
    assert net.params[phi].tobytes() != unpatched.params[phi].tobytes()


@pytest.mark.parametrize("outcome_kind", ["continuous", "binary"])
@pytest.mark.parametrize("ablation", list(ABLATIONS))
@pytest.mark.parametrize("task", [1, 2, 3])
def test_task_objective_writes_its_whole_slice(task, ablation, outcome_kind):
    # A gradient entry in the task's slice that task_objective leaves alone
    # keeps the nan, and Adam would descend a stale gradient there.
    cfg = replace(TINY, ablation=ablation)
    net = _tiny_net(outcome_kind, seed=9)
    batch = _batch(seed=10)
    if outcome_kind == "binary":
        batch = batch._replace(outcome=(batch.outcome > 0).astype(float))
    grad = np.full_like(net.params, np.nan)
    _objective(net, batch, cfg, task, net.views_of(grad))
    assert np.isfinite(grad[task_slice(net, task)]).all()


def _task3_full_batch_reference(net, batch, cfg):
    # Both heads on every row; the rows a head does not own are zeroed by
    # the treatment mask in the prediction and in each head's output
    # gradient.
    R, cache_phi = model.encode(net, batch)
    d, y = batch.treatment, batch.outcome
    b = len(d)
    o0, cache_f0 = nn.forward(net.f0, net.f0_spec, R)
    o1, cache_f1 = nn.forward(net.f1, net.f1_spec, R)
    pred = d * o1[:, 0] + (1.0 - d) * o0[:, 0]
    if net.outcome_kind == "binary":
        l_fo = float(-np.mean(y * np.log(pred) + (1.0 - y) * np.log1p(-pred)))
        dpred = (-(y / pred) + (1.0 - y) / (1.0 - pred)) / b
    else:
        l_fo = float(np.mean((y - pred) ** 2))
        dpred = 2.0 * (pred - y) / b
    gap = float(np.mean(y - pred))
    value = l_fo + cfg.lambda2 * float(net.eps_y) * abs(gap)
    dpred = dpred - cfg.lambda2 * float(net.eps_y) * np.sign(gap) / b
    grads_f1, dR1 = nn.backward(net.f1, net.f1_spec, cache_f1, (dpred * d)[:, None])
    grads_f0, dR0 = nn.backward(net.f0, net.f0_spec, cache_f0,
                                (dpred * (1.0 - d))[:, None])
    grads_phi, _ = nn.backward(net.phi, net.phi_spec, cache_phi, dR1 + dR0)
    return value, [*grads_phi.tensors(), *grads_f0.tensors(), *grads_f1.tensors(),
                   np.asarray(cfg.lambda2 * abs(gap))]


@pytest.mark.parametrize("outcome_kind", ["continuous", "binary"])
@pytest.mark.parametrize("arms", ["mixed", "even", "all_treated", "all_control"])
def test_task3_heads_on_their_own_arm_match_the_masked_full_batch(outcome_kind, arms):
    net = _tiny_net(outcome_kind, seed=12)
    net.eps_y[()] = 0.6
    rng = np.random.default_rng(13)
    d = {"mixed": np.array([1.0, 0, 0, 1, 0, 1, 0, 0, 0, 0]),
         "even": np.array([0.0, 1, 1, 0, 1, 0, 0, 1, 1, 0]),
         "all_treated": np.ones(10), "all_control": np.zeros(10)}[arms]
    y = rng.normal(size=10) if outcome_kind == "continuous" else rng.integers(0, 2, 10) * 1.0
    batch = Batch(rng.normal(size=(10, 3)), d, y)
    _, g = _grads(net)
    obj = _objective(net, batch, TINY, 3, g)
    value, want = _task3_full_batch_reference(net, batch, TINY)
    assert obj.value == pytest.approx(value, rel=1e-12, abs=0)
    got = [*g["phi"].tensors(), *g["f0"].tensors(), *g["f1"].tensors(), g["eps_y"]]
    assert len(got) == len(want)
    for a, ref in zip(got, want):
        np.testing.assert_allclose(a, ref, rtol=0, atol=1e-12 * np.abs(ref).max())
    absent = {"all_treated": "f0", "all_control": "f1"}.get(arms)
    for name in ("f0", "f1"):
        assert all(not np.any(t) for t in g[name].tensors()) == (name == absent)


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


def _sinkhorn_calls(monkeypatch):
    calls = []
    solve = model.wasserstein_sinkhorn
    monkeypatch.setattr(model, "wasserstein_sinkhorn",
                        lambda *a: calls.append(len(a[0])) or solve(*a))
    return calls


def test_step_single_group_batch_skips_balancing(monkeypatch):
    net = _tiny_net(seed=2)
    state = init_train_state(net, TINY)
    rng = np.random.default_rng(0)
    all_control = Batch(rng.normal(size=(6, 3)), np.zeros(6), rng.normal(size=6))
    sinkhorn = _sinkhorn_calls(monkeypatch)
    multitask_step(state, all_control, TINY)
    assert state.last["l_imb"] == 0.0
    assert sinkhorn == []               # no balancing term
    assert state.opt.step == 1


def test_step_tarnet_mode_never_balances(monkeypatch):
    cfg = replace(TINY, ablation="tarnet_mode")
    net = _tiny_net(seed=3)
    state = init_train_state(net, cfg)
    sinkhorn = _sinkhorn_calls(monkeypatch)
    multitask_step(state, _batch(), cfg)
    assert sinkhorn == []
    assert state.opt.step == 1
    assert state.last["l_imb"] == 0.0
    # eps scalars frozen
    assert float(net.eps_y) == 0.0 and float(net.eps_d) == 0.0


def test_step_cfr_mode_only_adds_balancing(monkeypatch):
    net_t = _tiny_net(seed=4)
    net_c = _tiny_net(seed=4)
    cfg_t = replace(TINY, ablation="tarnet_mode")
    cfg_c = replace(TINY, ablation="cfr_mode")
    st_t = init_train_state(net_t, cfg_t)
    st_c = init_train_state(net_c, cfg_c)
    batch = _batch(seed=5)
    sinkhorn = _sinkhorn_calls(monkeypatch)
    multitask_step(st_t, batch, cfg_t)
    assert sinkhorn == []
    multitask_step(st_c, batch, cfg_c)
    assert sinkhorn == [4] and st_c.last["l_imb"] > 0.0
    # both steps make one Adam step; the balancing term joins task 3's
    assert st_c.opt.step == st_t.opt.step == 1
    # task 1 runs before balancing and is unaffected by it
    for a, b in zip(net_t.pi.tensors(), net_c.pi.tensors()):
        np.testing.assert_array_equal(a, b)
    # the balancing term actually moved the encoder
    assert any(not np.array_equal(a, b)
               for a, b in zip(net_t.phi.tensors(), net_c.phi.tensors()))


def test_stationarity_links_constraint_to_zero_gap():
    # the eps_d gradient of the descended task-1 objective is
    # lambda1 * |mean(d - pi)|; it vanishes exactly when the batch
    # constraint holds
    net = _zeroed(_tiny_net(seed=6))  # propensity identically 0.5
    cfg = TINY
    _, grads = _grads(net)
    balanced = Batch(np.zeros((2, 3)), np.array([1.0, 0.0]), np.zeros(2))
    _objective(net, balanced, cfg, 1, grads)
    assert float(grads["eps_d"]) == 0.0   # mean(d - 0.5) = 0
    lopsided = Batch(np.zeros((2, 3)), np.array([1.0, 1.0]), np.zeros(2))
    _objective(net, lopsided, cfg, 1, grads)
    assert float(grads["eps_d"]) == pytest.approx(cfg.lambda1 * 0.5)


def _task1_ascent_reference(net, batch, cfg):
    # The gradients of the ascent objective L_dis - lambda1*Omega_d, written
    # out independently of task_objective.
    R, _ = model.encode(net, batch)
    p_mat, cache_pi = nn.forward(net.pi, net.pi_spec, R)
    p, d, b = p_mat[:, 0], batch.treatment, len(batch.treatment)
    gap = float(np.mean(d - p))
    dobj = (d / p - (1.0 - d) / (1.0 - p)) / b
    dobj = dobj + cfg.lambda1 * float(net.eps_d) * np.sign(gap) / b
    grads_pi, _ = nn.backward(net.pi, net.pi_spec, cache_pi, dobj[:, None])
    return [*grads_pi.tensors(), np.asarray(-cfg.lambda1 * abs(gap))]


@pytest.mark.parametrize("eps_d", [0.0, -0.4])
def test_task1_gradients_are_the_negated_ascent_gradients(eps_d):
    # IEEE negation is exact, so the descent gradients are the ascent
    # gradients negated entry by entry (== also lets an exact zero differ
    # in sign).
    cfg = replace(TINY, lambda1=0.05)
    net = _tiny_net(seed=14)
    net.eps_d[()] = eps_d
    batch = _batch(seed=15)
    _, g = _grads(net)
    _objective(net, batch, cfg, 1, g)
    got = [*g["pi"].tensors(), g["eps_d"]]
    want = _task1_ascent_reference(net, batch, cfg)
    assert len(got) == len(want)
    for a, ref in zip(got, want):
        assert np.any(ref) and np.array_equal(a, -ref)


@pytest.mark.parametrize("task,tol", [(1, 1e-4), (2, 1e-3), (3, 1e-4)])
def test_task_gradients_match_finite_differences(task, tol):
    cfg = replace(TINY, lambda1=0.05, lambda2=0.05,
                  sinkhorn=SinkhornConfig(entropic_reg=0.01, max_iters=5000,
                                          tol=1e-10))
    net = _tiny_net(seed=7)
    net.eps_y[()] = 0.7
    net.eps_d[()] = -0.4
    assert task_gradient_error(net, _batch(seed=8), cfg, task, h=1e-5) <= tol


@pytest.mark.parametrize("check_seed", [4, 12, 16])
def test_task_gradient_check_passes_for_check_seeds(check_seed):
    # `mbrl check --seed S` runs this check at seed S + 1. While task 2's
    # value was the transport cost, whose gradient is not the fixed-plan
    # gradient that trains, these seeds missed the 1e-3 tolerance.
    res = check_task_gradients(check_seed + 1)
    assert res.passed, res.detail


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


@pytest.mark.parametrize("ablation", ["full_mbrl", "no_eps_p"])
def test_fit_selects_the_first_least_finite_score(monkeypatch, ablation):
    # Scripted (RMSE, eps_p) per epoch: non-finite epochs are skipped and a
    # tie keeps the earlier epoch, under each rule on its own.
    scores = iter(zip([np.inf, 0.7, 0.2, np.nan, 0.2, 0.6],
                      [np.nan, 0.5, np.inf, 0.5, 0.3, 0.3]))
    params = []

    def scripted(net, val, beta):
        params.append(net.params.copy())
        return next(scores)

    monkeypatch.setattr(model, "validation_scores", scripted)
    tr, va, te = _small_sim(seed=4)
    ckpt = fit(tr, va, replace(TINY, epochs=6, ablation=ablation))
    assert ckpt.best_epoch_rmse == 3 and ckpt.best_val_rmse == 0.2
    assert ckpt.net_rmse.params.tobytes() == params[2].tobytes()
    if ablation == "full_mbrl":
        assert ckpt.best_epoch == 5 and ckpt.best_eps_p == 0.3
        assert ckpt.net.params.tobytes() == params[4].tobytes()
    else:
        assert ckpt.best_epoch == 3 and ckpt.best_eps_p == 0.2
        assert ckpt.net.params.tobytes() == params[2].tobytes()
    assert len({p.tobytes() for p in params}) == 6  # every epoch moved the net


def test_fit_raises_when_no_epoch_is_finite(monkeypatch):
    tr, va, te = _small_sim(seed=4)
    monkeypatch.setattr(model, "validation_scores",
                        lambda net, val, beta: (float("nan"), float("nan")))
    with pytest.raises(RuntimeError, match="finite validation"):
        fit(tr, va, replace(TINY, epochs=2))


def test_fit_raises_on_a_non_finite_validation_prediction(monkeypatch):
    # NuisanceEstimates rejects it, as a training step rejects a non-finite
    # gradient.
    tr, va, te = _small_sim(seed=4)
    monkeypatch.setattr(model, "predict", lambda net, Z: (np.full(len(Z), np.nan),) * 3)
    with pytest.raises(ValueError, match="non-finite nuisance values"):
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


# The criterion-7 shapes (phi 1x128, pi and heads 2x64) on a 1500-unit draw
# with 405 validation units. After 6 epochs from seed 5 on this draw, an
# eps_p computed with each head on its own arm's rows only misses predict's
# by one ulp.
STUDY_SHAPE = TrainConfig(batch_size=128, epochs=6, phi_depth=1, phi_width=128,
                          pi_depth=2, pi_width=64, head_depth=2, head_width=64)


@pytest.mark.parametrize("seed", [5, 6, "study-5"])
def test_validation_scores_match_the_predict_reference(seed):
    # Both heads on every unit, then the factual one picked per unit.
    if seed == "study-5":
        sample, _ = generate_simulation(SimConfig(n_treated=500, n_control=1000,
                                                  dim=10, seed=5))
        tr, va, te = split(sample, SplitSpec(0.63, 0.27, 0.10, seed=5))
        net = fit(tr, va, replace(STUDY_SHAPE, seed=5)).net
    else:
        tr, va, te = _small_sim(seed=seed)
        net = fit(tr, va, replace(TINY, epochs=1)).net
    yhat0, yhat1, p = predict(net, va.covariates)
    p = np.clip(p, PROPENSITY_CLAMP, 1.0 - PROPENSITY_CLAMP)
    pred = np.where(va.treatment == 1, yhat1, yhat0)
    want = (rmse(va.outcome_factual, pred),
            perturbation_error(va.outcome_factual, pred, va.treatment, p, 0.1))
    assert validation_scores(net, va, 0.1) == want


def test_validation_scores_run_each_subnet_once_without_caches(monkeypatch):
    # One cacheless pass of each subnet over every validation unit.
    _, va, _ = _small_sim(seed=5)
    net = _tiny_net(seed=9)
    calls = []
    forward = nn.forward
    names = {id(getattr(net, name)): name for name in model.SUBNETS}

    def spy(params, spec, X, **kwargs):
        calls.append((names[id(params)], len(X), kwargs.get("keep_cache", True)))
        return forward(params, spec, X, **kwargs)

    monkeypatch.setattr(nn, "forward", spy)
    validation_scores(net, va, 0.1)
    assert sorted(calls) == [(name, va.n_units, False)
                             for name in ("f0", "f1", "phi", "pi")]


def _traced_peak(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_validation_scores_keep_no_forward_caches():
    # Every subnet runs without caches, so a validation pass holds a few
    # arrays of the representation's size (the representation, one layer's
    # input, pre-activation and output) at any depth; with caches it held
    # two per layer of each.
    val, _ = generate_simulation(SimConfig(n_treated=150, n_control=250, dim=10))
    layer = val.n_units * 200 * 8
    peaks = {}
    for depth in (4, 8):
        cfg = TrainConfig(phi_depth=depth, pi_depth=depth)
        net = build_net(10, "continuous", cfg, seed=0)
        peaks[depth] = _traced_peak(lambda: validation_scores(net, val, 0.1))
    assert peaks[4] < 6 * layer
    assert peaks[8] < peaks[4] + layer / 2


def test_fit_peak_memory_is_its_persistent_state_plus_slack():
    # A fit at the default architecture holds the parameter and gradient
    # vectors, the Adam moments and at most two best-epoch
    # snapshots. A training step or a validation pass adds a few
    # layer-sized arrays (here under 1 MiB); the slack is 4 MiB. Cached
    # validation passes, or the returned nets built while the optimizer
    # state is alive, go about 11 MiB over.
    sample, _ = generate_simulation(SimConfig(n_treated=500, n_control=1000, dim=10,
                                              seed=1))
    tr, va, _ = split(sample, SplitSpec(0.63, 0.27, 0.10, seed=1))
    cfg = TrainConfig(epochs=2, seed=1)
    state = init_train_state(build_net(10, "continuous", cfg, seed=0), cfg)
    persistent = (4 * state.net.params.nbytes
                  + state.opt.m.nbytes + state.opt.v.nbytes)
    del state
    assert _traced_peak(lambda: fit(tr, va, cfg)) < persistent + 4 * 2**20


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
    # The two checkpoints differ only in the recorded ablation name.
    tr, va, _ = _small_sim(seed=7)
    docs, nets = [], []
    for ablation in ("no_orthogonality", "cfr_mode"):
        path = tmp_path / f"{ablation}.json"
        save_checkpoint(fit(tr, va, replace(TINY, epochs=3, ablation=ablation)), path)
        doc = json.loads(path.read_text())
        assert doc["config"].pop("ablation") == ablation
        docs.append(doc)
        back = load_checkpoint(path)
        nets.append(back.net.params.tobytes() + back.net_rmse.params.tobytes())
    assert docs[0] == docs[1]
    assert nets[0] == nets[1]


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
    # The file stores each net's parameter vector, the outcome kind and input
    # transform they share, the config, history and clip count; the specs,
    # the selected epochs, their scores, the rule and beta are derived.
    assert set(json.loads(path.read_text())) == {
        "format", "version", "config", "history", "clip_events", "outcome_kind",
        "input_mean", "input_scale", "net", "net_rmse"}
    assert "specs" not in path.read_text()
    back = load_checkpoint(path)
    assert back.config == ckpt.config
    assert back.history == ckpt.history
    assert back.clip_events == ckpt.clip_events
    for name in ("best_epoch", "best_eps_p", "selection", "beta",
                 "best_epoch_rmse", "best_val_rmse"):
        assert getattr(back, name) == getattr(ckpt, name), name
    # every parameter, the free scalars included, and the predictions agree
    # exactly, for both selection rules
    for net, net_back in ((ckpt.net, back.net), (ckpt.net_rmse, back.net_rmse)):
        assert net_back.params.tobytes() == net.params.tobytes()
        for name in (*(f"{sub}_spec" for sub in model.SUBNETS), "outcome_kind"):
            assert getattr(net_back, name) == getattr(net, name), name
        for name in ("input_mean", "input_scale"):
            assert getattr(net_back, name).tobytes() == getattr(net, name).tobytes()
        a = predict(net, te.covariates)
        b = predict(net_back, te.covariates)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)


def _stats(epoch, val_rmse=0.5, val_eps_p=0.6):
    return model.EpochStats(epoch, 0.0, 0.0, 0.0, 0.0, 0.0, val_rmse, val_eps_p)


@pytest.mark.parametrize("history,message", [
    pytest.param([], "history is empty", id="empty"),
    pytest.param([_stats(1), _stats(3)], r"history\[1\] has epoch 3, not 2",
                 id="skipped-epoch"),
    pytest.param([_stats(1), _stats(1)], r"history\[1\] has epoch 1, not 2",
                 id="repeated-epoch"),
    pytest.param([_stats(1, val_eps_p=np.nan), _stats(2, val_eps_p=np.inf)],
                 "no history entry has a finite val_eps_p", id="no-finite-val_eps_p"),
    pytest.param([_stats(1, val_rmse=np.nan)],
                 "no history entry has a finite val_rmse", id="no-finite-val_rmse"),
])
def test_checkpoint_rejects_a_history_that_selects_no_epoch(history, message):
    net = _tiny_net()
    with pytest.raises(ValueError, match=message):
        model.Checkpoint(net=net, net_rmse=net, history=history, config=TINY,
                         clip_events=0)


@pytest.mark.parametrize("name", ["net", "net_rmse"])
def test_checkpoint_rejects_a_net_built_from_another_config(name):
    # The file stores the config, not the specs, so a checkpoint holds only
    # nets whose specs the config gives.
    nets = {"net": _tiny_net(), "net_rmse": _tiny_net(seed=1)}
    nets[name] = build_net(3, "continuous", replace(TINY, phi_width=7), seed=0)
    with pytest.raises(ValueError, match=rf"^{name} has other specs than the "
                                         rf"config's net_specs$"):
        model.Checkpoint(**nets, history=[_stats(1)], config=TINY, clip_events=0)


@pytest.mark.parametrize("edit", [
    pytest.param(lambda net: replace(net, input_mean=net.input_mean + 1.0),
                 id="input_mean"),
    pytest.param(lambda net: replace(net, input_scale=2.0 * net.input_scale),
                 id="input_scale"),
    pytest.param(lambda net: replace(net, outcome_kind="binary"), id="outcome_kind"),
])
def test_checkpoint_rejects_a_net_rmse_unlike_net(edit):
    # The file stores the outcome kind and input transform once, for both.
    net = _tiny_net()
    with pytest.raises(ValueError, match="^net_rmse has another outcome kind or "
                                         "input transform than net$"):
        model.Checkpoint(net=net, net_rmse=edit(net), history=[_stats(1)],
                         config=TINY, clip_events=0)


@pytest.mark.parametrize("outcome_kind,beta,derived", [
    ("continuous", None, 0.1), ("binary", None, 100.0), ("binary", 2.5, 2.5)])
def test_checkpoint_derives_beta_from_config_and_outcome_kind(outcome_kind, beta,
                                                              derived):
    net = _tiny_net(outcome_kind)
    ckpt = model.Checkpoint(net=net, net_rmse=net, history=[_stats(1)],
                            config=replace(TINY, beta=beta), clip_events=0)
    assert ckpt.beta == derived == model.run_beta(ckpt.config, outcome_kind)


def test_fit_clips_the_free_scalars_and_counts_it(tmp_path, caplog, monkeypatch):
    # One Adam step moves a free scalar by about the learning rate (1e-3),
    # so a clip bound of 1e-4 is crossed on the first step.
    tr, va, te = _small_sim(seed=9)
    monkeypatch.setattr(model, "EPS_CLIP", 1e-4)
    with caplog.at_level("WARNING", logger="mbrl.model"):
        ckpt = fit(tr, va, replace(TINY, epochs=2))
    assert ckpt.clip_events > 0
    assert "free scalar clipped to |eps| <= 0.0001" in caplog.text
    for net in (ckpt.net, ckpt.net_rmse):
        assert abs(float(net.eps_d)) <= 1e-4
        assert abs(float(net.eps_y)) <= 1e-4
    path = tmp_path / "ckpt.json"
    save_checkpoint(ckpt, path)
    assert load_checkpoint(path).clip_events == ckpt.clip_events


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
                                              tol=1e-4))
    back = TrainConfig(**json.loads(json.dumps(asdict(cfg))))
    assert back == cfg
    assert isinstance(back.sinkhorn, SinkhornConfig)
    assert TrainConfig(sinkhorn=None).sinkhorn == SinkhornConfig()
    with pytest.raises(ValueError, match="unknown entry 'max_iter' in sinkhorn"):
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
    assert sorted(p.name for p in tmp_path.iterdir()) == ["again.json", "ckpt.json"]


def test_load_checkpoint_ignores_a_leftover_sidecar(tmp_path):
    # Nothing but the checkpoint file is read: an older run's sidecar next
    # to it, valid or not, changes nothing.
    path = _saved_checkpoint(tmp_path)
    (tmp_path / "ckpt.meta.json").write_text("{not json")
    back = load_checkpoint(path)
    save_checkpoint(back, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def _corrupt(path, edit):
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc, sort_keys=True))


def _layout(doc):
    # The index in a saved net's params list of each of its parameters, by
    # block: a ParamSet per subnet, a 0-d array per scalar.
    specs = model.net_specs(len(doc["input_mean"]), doc["outcome_kind"],
                            TrainConfig(**doc["config"]))
    net = model.MBRLNet(**specs, params=doc["net"])
    return net.views_of(np.arange(net.params.size))


def test_load_checkpoint_rejects_misshaped_tensor(tmp_path):
    # A params list one entry short or one too long for the config's specs,
    # in either net; the error names the net. The nets are looped over, not
    # parametrized, so the case keeps its id.
    path = _saved_checkpoint(tmp_path)
    good = path.read_text()
    n = len(json.loads(good)["net"])
    for name in ("net", "net_rmse"):
        for edit, size in ((list.pop, n - 1), (lambda p: p.append(0.0), n + 1)):
            path.write_text(good)
            _corrupt(path, lambda doc: edit(doc[name]))
            with pytest.raises(ValueError, match=rf"ckpt\.json: {name}: params has "
                                                 rf"shape \({size},\); the specs lay "
                                                 rf"out \({n},\)$"):
                load_checkpoint(path)


def _nan_in_f1_w0(doc, name):
    doc[name][_layout(doc)["f1"].weights[0][0, 0]] = float("nan")


def _inf_in_phi_b1(doc, name):
    doc[name][_layout(doc)["phi"].biases[1][2]] = float("inf")


def _minus_inf_eps_d(doc, name):
    doc[name][_layout(doc)["eps_d"]] = float("-inf")


@pytest.mark.parametrize("edit,block", [
    (_nan_in_f1_w0, "f1"), (_inf_in_phi_b1, "phi"), (_minus_inf_eps_d, "eps_d"),
])
def test_load_checkpoint_rejects_non_finite_parameters(tmp_path, edit, block):
    # In either net, whose name the error gives.
    path = _saved_checkpoint(tmp_path)
    good = path.read_text()
    for name in ("net", "net_rmse"):
        path.write_text(good)
        _corrupt(path, lambda doc: edit(doc, name))
        with pytest.raises(ValueError, match=rf"^malformed checkpoint .*ckpt\.json: "
                                             rf"{name}: {block} has non-finite "
                                             rf"parameters$"):
            load_checkpoint(path)


@pytest.mark.parametrize("field,value", [
    ("input_mean", float("nan")), ("input_scale", float("inf")),
], ids=["input_mean-nan", "input_scale-inf"])
def test_load_checkpoint_rejects_non_finite_input_transform(tmp_path, field, value):
    path = _saved_checkpoint(tmp_path)

    def edit(doc):
        doc[field][0] = value

    _corrupt(path, edit)
    # The first net built from the shared transform names it.
    with pytest.raises(ValueError, match=rf"^malformed checkpoint .*ckpt\.json: "
                                         rf"net: {field} has a non-finite entry$"):
        load_checkpoint(path)


def test_load_checkpoint_rejects_missing_top_level_key(tmp_path):
    path = _saved_checkpoint(tmp_path)
    good = path.read_text()
    keys = set(json.loads(good)) - {"format", "version"}
    assert keys == {f.name for f in fields(model.Checkpoint)} | {
        "outcome_kind", "input_mean", "input_scale"}
    for key in sorted(keys):
        path.write_text(good)
        _corrupt(path, lambda doc: doc.pop(key))
        with pytest.raises(ValueError, match=rf"ckpt\.json.*missing entry '{key}'"):
            load_checkpoint(path)


@pytest.mark.parametrize("target", ["ckpt.json"])
def test_load_checkpoint_rejects_truncated_json(tmp_path, target):
    path = _saved_checkpoint(tmp_path)
    bad = tmp_path / target
    bad.write_bytes(bad.read_bytes()[:500])
    with pytest.raises(ValueError, match=rf"malformed checkpoint .*{target}: "
                                         r"not valid JSON \("):
        load_checkpoint(path)
