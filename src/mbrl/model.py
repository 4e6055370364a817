"""The moderately-balanced representation network and its training loop.

An encoder maps covariates to a representation read by three consumers: a
sigmoid discriminator producing propensity scores, and two outcome heads for
the control and treated arms. Two trainable free scalars turn the mean
outcome and treatment residuals into noise regularizers. Training alternates
three tasks per minibatch:

  Task 1  ascend   L_dis - lambda1 * Omega_d   over (discriminator, eps_d)
  Task 2  descend  L_imb                       over the encoder
  Task 3  descend  L_fo + lambda2 * Omega_y    over (encoder, heads, eps_y)

Model selection tracks the validation perturbation error (RMSE plus a
weighted cross-residual term) and keeps the best epoch's parameters.
"""

from __future__ import annotations

import copy
import csv
import json
import logging
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from . import nn
from .data import Dataset
from .metrics import rmse
from .ot import SinkhornConfig, wasserstein_sinkhorn
from .records import require_int_fields

logger = logging.getLogger(__name__)


class _TaskPlan(NamedTuple):
    """What an ablation keeps of the method."""

    train_eps: bool    # the noise regularizers and their free scalars
    run_balance: bool  # task 2, the Wasserstein balancing
    selection: str     # validation score that picks the epoch: "eps_p" or "rmse"


ABLATIONS = {
    "full_mbrl": _TaskPlan(True, True, "eps_p"),
    "no_eps_p": _TaskPlan(True, True, "rmse"),
    "no_orthogonality": _TaskPlan(False, True, "rmse"),
    "cfr_mode": _TaskPlan(False, True, "rmse"),  # = no_orthogonality
    "tarnet_mode": _TaskPlan(False, False, "rmse"),
}

BETA_DEFAULT_CONTINUOUS = 0.1
BETA_DEFAULT_BINARY = 100.0


def default_beta(outcome_kind: str) -> float:
    return BETA_DEFAULT_BINARY if outcome_kind == "binary" else BETA_DEFAULT_CONTINUOUS


# =========================================================================
# Network
# =========================================================================

SUBNETS = ("phi", "pi", "f0", "f1")


@dataclass
class MBRLNet:
    """Encoder, discriminator, outcome heads and the two free scalars.

    ``input_mean``/``input_scale`` hold the per-feature standardization
    (train-split statistics) applied before the encoder; they are part of
    the model, not of the data.
    """

    phi_spec: nn.NetSpec
    phi: nn.ParamSet
    pi_spec: nn.NetSpec
    pi: nn.ParamSet
    f0_spec: nn.NetSpec
    f0: nn.ParamSet
    f1_spec: nn.NetSpec
    f1: nn.ParamSet
    eps_y: np.ndarray
    eps_d: np.ndarray
    outcome_kind: str = "continuous"
    input_mean: np.ndarray | None = None
    input_scale: np.ndarray | None = None

    def __post_init__(self):
        rep = self.phi_spec.output_width
        for name in SUBNETS:
            spec, params = getattr(self, f"{name}_spec"), getattr(self, name)
            if name != "phi" and spec.input_width != rep:
                raise ValueError(f"{name} input width must equal the representation "
                                 f"width {rep}")
            w = spec.layer_widths
            want = {**{f"W{k}": (o, i) for k, (i, o) in enumerate(zip(w, w[1:]))},
                    **{f"b{k}": (o,) for k, o in enumerate(w[1:])}}
            have = {**{f"W{k}": t.shape for k, t in enumerate(params.weights)},
                    **{f"b{k}": t.shape for k, t in enumerate(params.biases)}}
            for entry in sorted(want.keys() | have.keys()):
                if want.get(entry) != have.get(entry):
                    raise ValueError(f"{name}.{entry} has shape {have.get(entry)}; "
                                     f"its spec {w} wants {want.get(entry)}")
        self.eps_y = np.asarray(self.eps_y, dtype=float).reshape(())
        self.eps_d = np.asarray(self.eps_d, dtype=float).reshape(())
        if not (np.isfinite(self.eps_y) and np.isfinite(self.eps_d)):
            raise ValueError("eps scalars must be finite")
        s = self.phi_spec.input_width
        if self.input_mean is None:
            self.input_mean = np.zeros(s)
        if self.input_scale is None:
            self.input_scale = np.ones(s)
        self.input_mean = np.asarray(self.input_mean, dtype=float)
        self.input_scale = np.asarray(self.input_scale, dtype=float)
        if self.input_mean.shape != (s,) or self.input_scale.shape != (s,):
            raise ValueError("input transform must match the covariate width")
        if np.any(self.input_scale <= 0):
            raise ValueError("input_scale entries must be positive")

    def transform(self, Z: np.ndarray) -> np.ndarray:
        return (np.asarray(Z, dtype=float) - self.input_mean) / self.input_scale

    def copy(self) -> "MBRLNet":
        return copy.deepcopy(self)


def standardizer_from(data: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Per-feature mean and scale of a training split; constant features
    get unit scale."""
    mean = data.covariates.mean(axis=0)
    scale = data.covariates.std(axis=0)
    scale[scale < 1e-12] = 1.0
    return mean, scale


class Batch(NamedTuple):
    covariates: np.ndarray
    treatment: np.ndarray
    outcome: np.ndarray

    @classmethod
    def from_dataset(cls, data: Dataset, indices: np.ndarray) -> "Batch":
        return cls(data.covariates[indices], data.treatment[indices].astype(float),
                   data.outcome_factual[indices])


# =========================================================================
# Configuration
# =========================================================================

@dataclass
class TrainConfig:
    """Hyperparameters of one training run."""

    lambda1: float = 0.01
    lambda2: float = 0.01
    beta: float | None = None  # None resolves to 0.1 continuous / 100 binary
    batch_size: int = 100
    epochs: int = 1000
    learning_rate: float = 1e-3
    ablation: str = "full_mbrl"
    seed: int = 0
    phi_depth: int = 4
    phi_width: int = 200
    pi_depth: int = 4
    pi_width: int = 200
    head_depth: int = 3
    head_width: int = 100
    sinkhorn: SinkhornConfig = field(default_factory=SinkhornConfig)
    eps_clip: float = 100.0

    def __post_init__(self):
        require_int_fields(self)
        if not isinstance(self.sinkhorn, SinkhornConfig):  # JSON: dict or null
            self.sinkhorn = SinkhornConfig(**(self.sinkhorn or {}))
        if self.lambda1 < 0 or self.lambda2 < 0:
            raise ValueError("regularizer weights must be nonnegative")
        if self.beta is not None and self.beta < 0:
            raise ValueError("beta must be nonnegative")
        if self.batch_size < 2:
            raise ValueError("batch_size must be at least 2")
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be nonnegative")
        if self.ablation not in ABLATIONS:
            raise ValueError(f"unknown ablation {self.ablation!r}")
        for name in ("phi_depth", "phi_width", "pi_depth", "pi_width",
                     "head_depth", "head_width"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.eps_clip <= 0:
            raise ValueError("eps_clip must be positive")


def build_net(n_covariates: int, outcome_kind: str, cfg: TrainConfig,
              seed: int | None = None,
              input_mean: np.ndarray | None = None,
              input_scale: np.ndarray | None = None) -> MBRLNet:
    """Construct a freshly initialized network for s-dimensional covariates."""
    seed = cfg.seed if seed is None else seed
    children = np.random.SeedSequence(seed).spawn(4)
    seeds = [int(c.generate_state(1)[0]) for c in children]
    rep = cfg.phi_width
    phi_spec = nn.NetSpec((n_covariates, *([cfg.phi_width] * cfg.phi_depth)))
    pi_spec = nn.NetSpec((rep, *([cfg.pi_width] * cfg.pi_depth), 1),
                         output_activation="sigmoid")
    head_out = "sigmoid" if outcome_kind == "binary" else "identity"
    head_spec = nn.NetSpec((rep, *([cfg.head_width] * cfg.head_depth), 1),
                           output_activation=head_out)
    return MBRLNet(
        phi_spec=phi_spec, phi=nn.init_params(phi_spec, seeds[0]),
        pi_spec=pi_spec, pi=nn.init_params(pi_spec, seeds[1]),
        f0_spec=head_spec, f0=nn.init_params(head_spec, seeds[2]),
        f1_spec=head_spec, f1=nn.init_params(head_spec, seeds[3]),
        eps_y=np.zeros(()), eps_d=np.zeros(()),
        outcome_kind=outcome_kind,
        input_mean=input_mean, input_scale=input_scale,
    )


# =========================================================================
# Predictions and losses
# =========================================================================

def predict(net: MBRLNet, Z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-unit (yhat0, yhat1, propensity). These are exactly the nuisance
    estimates g_hat(0, z), g_hat(1, z) and m_hat(z)."""
    X = net.transform(Z)
    R, _ = nn.forward(net.phi, net.phi_spec, X)
    p, _ = nn.forward(net.pi, net.pi_spec, R)
    o0, _ = nn.forward(net.f0, net.f0_spec, R)
    o1, _ = nn.forward(net.f1, net.f1_spec, R)
    return o0[:, 0], o1[:, 0], p[:, 0]


def perturbation_error(y, yhat, d, dhat, beta: float) -> float:
    """RMSE plus beta times the absolute mean cross-residual product."""
    y, yhat, d, dhat = (np.asarray(v, dtype=float) for v in (y, yhat, d, dhat))
    if not (y.shape == yhat.shape == d.shape == dhat.shape) or y.ndim != 1 or y.size < 1:
        raise ValueError("length mismatch")
    cross = float(np.mean((y - yhat) * (d - dhat)))
    return rmse(y, yhat) + beta * abs(cross)


# =========================================================================
# Multi-task training step
# =========================================================================

@dataclass
class TrainState:
    net: MBRLNet
    opts: dict[int, nn.AdamState]  # task -> the optimizer of its group
    step_count: int = 0
    clip_events: int = 0
    last: dict = field(default_factory=dict)


# Task -> (subnets it trains, free scalar it trains when the ablation keeps
# the noise regularizers). Groups list each subnet's tensors in this order.
TASK_GROUPS = {
    1: (("pi",), "eps_d"),
    2: (("phi",), None),
    3: (("phi", "f0", "f1"), "eps_y"),
}


def task_group(net: MBRLNet, task: int, train_eps: bool) -> list[np.ndarray]:
    """The parameters one task updates, in its gradients' order."""
    subnets, scalar = TASK_GROUPS[task]
    group = [t for name in subnets for t in getattr(net, name).tensors()]
    if train_eps and scalar is not None:
        group.append(getattr(net, scalar))
    return group


def init_train_state(net: MBRLNet, cfg: TrainConfig) -> TrainState:
    train_eps = ABLATIONS[cfg.ablation].train_eps
    return TrainState(net=net, opts={
        task: nn.adam_init(task_group(net, task, train_eps), cfg.learning_rate)
        for task in TASK_GROUPS})


def multitask_step(state: TrainState, batch: Batch, cfg: TrainConfig) -> TrainState:
    """Run the three tasks on one minibatch, in order, each with its own
    optimizer state: task 1 ascends, tasks 2 and 3 descend the gradients
    ``task_objective`` returns.

    The balancing task is skipped when the batch lacks a treatment arm (the
    imbalance loss is then defined as 0) and under the tarnet ablation.
    """
    plan = ABLATIONS[cfg.ablation]
    net = state.net
    treated = np.asarray(batch.treatment) == 1
    balance = plan.run_balance and treated.any() and not treated.all()
    losses = {"l_imb": 0.0}
    # Task 1 leaves the encoder as it is, so tasks 1 and 2 share one
    # encoder pass; task 3 runs after task 2 has moved it.
    encoded = encode(net, batch)
    for task, opt in state.opts.items():
        if task == 2 and not balance:
            continue
        obj = task_objective(net, batch, cfg, task, encoded if task < 3 else None)
        nn.adam_update(obj.group, obj.grads, opt, maximize=task == 1)
        losses.update(obj.terms)

    if plan.train_eps:
        for eps in (net.eps_y, net.eps_d):
            if abs(float(eps)) > cfg.eps_clip:
                eps[()] = np.clip(float(eps), -cfg.eps_clip, cfg.eps_clip)
                state.clip_events += 1
                logger.warning("free scalar clipped to |eps| <= %g", cfg.eps_clip)

    if not all(np.isfinite(v) for v in losses.values()):
        raise RuntimeError(f"non-finite training signal at step "
                           f"{state.step_count + 1}: {losses}")
    state.step_count += 1
    state.last = losses
    return state


# =========================================================================
# Task objectives with analytic gradients
# =========================================================================

class TaskObjective(NamedTuple):
    value: float
    grads: list[np.ndarray]
    group: list[np.ndarray]
    terms: dict[str, float]  # the loss terms the training log records


def encode(net: MBRLNet, batch: Batch) -> tuple[np.ndarray, nn.ForwardCache]:
    """The encoder pass (representation, cache) of a batch's covariates."""
    return nn.forward(net.phi, net.phi_spec, net.transform(batch.covariates))


def task_objective(net: MBRLNet, batch: Batch, cfg: TrainConfig, task: int,
                   encoded: tuple[np.ndarray, nn.ForwardCache] | None = None
                   ) -> TaskObjective:
    """Value, analytic gradients, parameter group and logged loss terms of
    one task objective.

    Task 1 returns the ascent objective L_dis - lambda1*Omega_d; tasks 2 and
    3 return the descent objectives. Gradients follow the objective's own
    sign convention (not the update direction), in ``task_group`` order.
    Ablations without the noise regularizers take lambda1 = lambda2 = 0 and
    leave the free scalars out. ``multitask_step`` applies these gradients.

    ``encoded`` is ``encode(net, batch)`` at the current encoder weights;
    when omitted it is computed here.
    """
    if task not in TASK_GROUPS:
        raise ValueError("task must be 1, 2 or 3")
    train_eps = ABLATIONS[cfg.ablation].train_eps
    lambda1, lambda2 = (cfg.lambda1, cfg.lambda2) if train_eps else (0.0, 0.0)
    R, cache_phi = encode(net, batch) if encoded is None else encoded
    d = np.asarray(batch.treatment, dtype=float)
    y = np.asarray(batch.outcome, dtype=float)
    b = R.shape[0]
    scalar_grad = 0.0  # of the task's free scalar, when it trains one
    if task == 1:
        p_mat, cache_pi = nn.forward(net.pi, net.pi_spec, R)
        p = p_mat[:, 0]
        l_dis = float(np.mean(d * np.log(p) + (1.0 - d) * np.log1p(-p)))
        gap = float(np.mean(d - p))
        value = l_dis - lambda1 * float(net.eps_d) * abs(gap)
        dobj = (d / p - (1.0 - d) / (1.0 - p)) / b
        dobj = dobj + lambda1 * float(net.eps_d) * np.sign(gap) / b
        grads_pi, _ = nn.backward(net.pi, net.pi_spec, cache_pi, dobj[:, None])
        sub_grads = {"pi": grads_pi}
        scalar_grad = -lambda1 * abs(gap)
        terms = {"l_dis": l_dis, "omega_d": float(net.eps_d) * abs(gap)}
    elif task == 2:
        treated = d == 1
        if not treated.any() or treated.all():
            raise ValueError("task 2 needs both treatment arms in the batch")
        res = wasserstein_sinkhorn(R[treated], R[~treated], cfg.sinkhorn)
        dR = np.zeros_like(R)
        dR[treated] = res.grad_a
        dR[~treated] = res.grad_b
        grads_phi, _ = nn.backward(net.phi, net.phi_spec, cache_phi, dR)
        sub_grads = {"phi": grads_phi}
        value, terms = res.distance, {"l_imb": res.distance}
    else:
        o0_mat, cache_f0 = nn.forward(net.f0, net.f0_spec, R)
        o1_mat, cache_f1 = nn.forward(net.f1, net.f1_spec, R)
        pred = d * o1_mat[:, 0] + (1.0 - d) * o0_mat[:, 0]
        if net.outcome_kind == "binary":
            l_fo = float(-np.mean(y * np.log(pred) + (1.0 - y) * np.log1p(-pred)))
            dpred = (-(y / pred) + (1.0 - y) / (1.0 - pred)) / b
        else:
            l_fo = float(np.mean((y - pred) ** 2))
            dpred = 2.0 * (pred - y) / b
        gap = float(np.mean(y - pred))
        value = l_fo + lambda2 * float(net.eps_y) * abs(gap)
        dpred = dpred - lambda2 * float(net.eps_y) * np.sign(gap) / b
        grads_f1, dR1 = nn.backward(net.f1, net.f1_spec, cache_f1, (dpred * d)[:, None])
        grads_f0, dR0 = nn.backward(net.f0, net.f0_spec, cache_f0,
                                    (dpred * (1.0 - d))[:, None])
        grads_phi, _ = nn.backward(net.phi, net.phi_spec, cache_phi, dR1 + dR0)
        sub_grads = {"phi": grads_phi, "f0": grads_f0, "f1": grads_f1}
        scalar_grad = lambda2 * abs(gap)
        terms = {"l_fo": l_fo, "omega_y": float(net.eps_y) * abs(gap)}
    subnets, scalar = TASK_GROUPS[task]
    grads = [g for name in subnets for g in sub_grads[name].tensors()]
    if train_eps and scalar is not None:
        grads.append(np.asarray(scalar_grad))
    return TaskObjective(value, grads, task_group(net, task, train_eps), terms)


def task_gradient_error(net: MBRLNet, batch: Batch, cfg: TrainConfig,
                        task: int, h: float = 1e-5,
                        max_coords: int = 2000, seed: int = 0) -> float:
    """Max relative error between analytic task gradients and central
    finite differences over the task's parameter group."""
    _, grads, group, _ = task_objective(net, batch, cfg, task)
    return nn.central_difference_error(
        group, grads, lambda: task_objective(net, batch, cfg, task).value,
        h, max_coords, seed)


# =========================================================================
# Fit and model selection
# =========================================================================

@dataclass
class EpochStats:
    epoch: int
    l_fo: float
    l_dis: float
    l_imb: float
    omega_y: float
    omega_d: float
    val_rmse: float
    val_eps_p: float


@dataclass
class Checkpoint:
    """Best parameters under the run's selection criterion plus its history.

    ``net_rmse`` is the best snapshot under plain validation RMSE, tracked on
    every run so selection rules can be compared on one trajectory.
    """

    net: MBRLNet
    best_epoch: int
    best_eps_p: float
    history: list[EpochStats]
    selection: str
    beta: float
    config: TrainConfig | None = None
    net_rmse: MBRLNet | None = None
    best_epoch_rmse: int | None = None
    best_val_rmse: float | None = None
    clip_events: int = 0


def validation_scores(net: MBRLNet, val: Dataset, beta: float) -> tuple[float, float]:
    """(RMSE, perturbation error) of factual predictions on a dataset."""
    yhat0, yhat1, p = predict(net, val.covariates)
    pred = np.where(val.treatment == 1, yhat1, yhat0)
    val_rmse = rmse(val.outcome_factual, pred)
    eps_p = perturbation_error(val.outcome_factual, pred,
                               val.treatment.astype(float), p, beta)
    return val_rmse, eps_p


def fit(train: Dataset, val: Dataset, cfg: TrainConfig) -> Checkpoint:
    """Epoch loop of shuffled minibatch multi-task steps.

    After each epoch the validation RMSE and perturbation error are
    recorded; the checkpoint keeps the parameters of the epoch minimizing
    the selection criterion (perturbation error by default, RMSE under
    ablations that drop it). Ties keep the earlier epoch. Raises
    RuntimeError when no epoch has a finite selection criterion.
    """
    if train.n_units == 0 or val.n_units == 0:
        raise ValueError("empty split")
    if train.n_covariates != val.n_covariates:
        raise ValueError("train and validation covariate dimensions differ")
    if train.outcome_kind != val.outcome_kind:
        raise ValueError("train and validation outcome kinds differ")

    selection = ABLATIONS[cfg.ablation].selection
    beta = default_beta(train.outcome_kind) if cfg.beta is None else cfg.beta
    root = np.random.SeedSequence(cfg.seed).spawn(2)
    mean, scale = standardizer_from(train)
    net = build_net(train.n_covariates, train.outcome_kind, cfg,
                    seed=int(root[0].generate_state(1)[0]),
                    input_mean=mean, input_scale=scale)
    state = init_train_state(net, cfg)
    rng = np.random.default_rng(int(root[1].generate_state(1)[0]))

    n = train.n_units
    history: list[EpochStats] = []
    # Selection rule -> (best value, its epoch, the net at that epoch).
    best = {rule: (np.inf, 0, None) for rule in ("eps_p", "rmse")}

    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(n)
        sums: dict[str, float] = {}
        n_steps = 0
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            if idx.size < 2:
                continue
            multitask_step(state, Batch.from_dataset(train, idx), cfg)
            for k, v in state.last.items():
                sums[k] = sums.get(k, 0.0) + v
            n_steps += 1
        if n_steps == 0:
            raise ValueError("batch_size leaves no usable minibatch")

        val_rmse, val_eps_p = validation_scores(net, val, beta)
        history.append(EpochStats(
            epoch=epoch,
            **{k: v / n_steps for k, v in sums.items()},
            val_rmse=val_rmse, val_eps_p=val_eps_p,
        ))
        for rule, value in (("eps_p", val_eps_p), ("rmse", val_rmse)):
            if value < best[rule][0]:
                best[rule] = (value, epoch, net.copy())

    value, epoch, selected = best[selection]
    if selected is None:
        raise RuntimeError(f"no epoch of {cfg.epochs} had a finite validation "
                           f"{selection}; nothing to select")
    best_rmse, best_epoch_rmse, net_rmse = best["rmse"]
    return Checkpoint(
        net=selected,
        best_epoch=epoch,
        best_eps_p=float(value),
        history=history,
        selection=selection,
        beta=beta,
        config=cfg,
        net_rmse=net_rmse,
        best_epoch_rmse=best_epoch_rmse,
        best_val_rmse=float(best_rmse),
        clip_events=state.clip_events,
    )


# =========================================================================
# Persistence: versioned params file plus a JSON sidecar (config, history)
# =========================================================================

CHECKPOINT_FORMAT = "mbrl-checkpoint"
CHECKPOINT_VERSION = 1


def _net_to_dict(net: MBRLNet) -> dict:
    return {
        "outcome_kind": net.outcome_kind,
        "eps_y": float(net.eps_y),
        "eps_d": float(net.eps_d),
        "input_mean": net.input_mean.tolist(),
        "input_scale": net.input_scale.tolist(),
        "subnets": {
            name: {"spec": asdict(getattr(net, f"{name}_spec")),
                   "params": nn.params_to_dict(getattr(net, name))}
            for name in SUBNETS
        },
    }


def _net_from_dict(d: dict) -> MBRLNet:
    parts = {}
    for name in SUBNETS:
        sub = d["subnets"][name]
        try:
            parts[f"{name}_spec"] = nn.NetSpec(**sub["spec"])
            parts[name] = nn.params_from_dict(sub["params"])
        except KeyError as exc:
            raise KeyError(f"{name}.{exc.args[0]}") from exc
    return MBRLNet(**parts, eps_y=d["eps_y"], eps_d=d["eps_d"],
                   outcome_kind=d["outcome_kind"],
                   input_mean=d.get("input_mean"),
                   input_scale=d.get("input_scale"))


def sidecar_path(path: str | Path) -> Path:
    path = Path(path)
    return path.with_name(path.stem + ".meta.json")


def save_checkpoint(ckpt: Checkpoint, path: str | Path) -> None:
    path = Path(path)
    doc = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "net": _net_to_dict(ckpt.net),
        "net_rmse": None if ckpt.net_rmse is None else _net_to_dict(ckpt.net_rmse),
        "best_epoch": ckpt.best_epoch,
        "best_eps_p": ckpt.best_eps_p,
        "selection": ckpt.selection,
        "beta": ckpt.beta,
    }
    path.write_text(json.dumps(doc, sort_keys=True))
    meta = {
        "config": None if ckpt.config is None else asdict(ckpt.config),
        "history": [asdict(h) for h in ckpt.history],
        "selection": ckpt.selection,
        "clip_events": ckpt.clip_events,
        "best_epoch_rmse": ckpt.best_epoch_rmse,
        "best_val_rmse": ckpt.best_val_rmse,
    }
    sidecar_path(path).write_text(json.dumps(meta, sort_keys=True, indent=2))


def _read_json(path: Path) -> dict:
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed checkpoint {path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"malformed checkpoint {path}: not a JSON object")
    return doc


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Read a checkpoint and its sidecar (optional). A file that is not a
    JSON object, or a missing or mis-shaped entry, raises ValueError naming
    the file (and the entry)."""
    path = Path(path)
    doc = _read_json(path)
    if doc.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"not a {CHECKPOINT_FORMAT} file: {path}")
    if doc.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {doc.get('version')}")
    side = sidecar_path(path)
    meta = _read_json(side) if side.exists() else {}
    try:
        return Checkpoint(
            net=_net_from_dict(doc["net"]),
            best_epoch=doc["best_epoch"],
            best_eps_p=doc["best_eps_p"],
            history=[EpochStats(**h) for h in meta.get("history", [])],
            selection=doc["selection"],
            beta=doc["beta"],
            config=None if meta.get("config") is None else TrainConfig(**meta["config"]),
            net_rmse=None if doc.get("net_rmse") is None else _net_from_dict(doc["net_rmse"]),
            best_epoch_rmse=meta.get("best_epoch_rmse"),
            best_val_rmse=meta.get("best_val_rmse"),
            clip_events=meta.get("clip_events", 0),
        )
    except KeyError as exc:
        raise ValueError(f"malformed checkpoint {path}: missing entry {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed checkpoint {path}: {exc}") from exc


def history_to_csv(history: Sequence[EpochStats], path: str | Path) -> None:
    """Training log: one row per epoch."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=[f.name for f in fields(EpochStats)])
        writer.writeheader()
        for row in history:
            writer.writerow(asdict(row))
