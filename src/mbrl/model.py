"""The moderately-balanced representation network and its training loop.

An encoder maps covariates to a representation read by three consumers: a
sigmoid discriminator producing propensity scores, and two outcome heads for
the control and treated arms. Two trainable free scalars turn the mean
outcome and treatment residuals into noise regularizers. Each minibatch
runs three tasks on one encoder pass, and one Adam step moves the whole net
on their gradients; the encoder's is the sum of tasks 2 and 3's (CFR's
unweighted L_fo + IPM):

  Task 1  descend  -L_dis + lambda1 * Omega_d  over (discriminator, eps_d)
  Task 2  descend  L_imb                       over the encoder
  Task 3  descend  L_fo + lambda2 * Omega_y    over (encoder, heads, eps_y)

Model selection tracks the validation perturbation error (RMSE plus a
weighted cross-residual term) and keeps the best epoch's parameters.
"""

from __future__ import annotations

import csv
import json
import logging
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from . import nn
from .data import OUTCOME_KINDS, Dataset
from .estimators import NuisanceEstimates
from .metrics import rmse
from .ot import SinkhornConfig, wasserstein_sinkhorn
from .records import bounded, check_fields, nested_record, reject_unknown

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

# After each step a free scalar is held to |eps| <= EPS_CLIP; each clip is
# logged and counted in the checkpoint's clip_events.
EPS_CLIP = 100.0


def default_beta(outcome_kind: str) -> float:
    return BETA_DEFAULT_BINARY if outcome_kind == "binary" else BETA_DEFAULT_CONTINUOUS


def run_beta(cfg: TrainConfig, outcome_kind: str) -> float:
    """The cross-term weight of a run: ``cfg.beta``, else the kind's default."""
    return default_beta(outcome_kind) if cfg.beta is None else cfg.beta


def head_activation(outcome_kind: str) -> str:
    """The output activation of an outcome head: a probability for binary
    outcomes, the real line for continuous ones."""
    return "sigmoid" if outcome_kind == "binary" else "identity"


# =========================================================================
# Network
# =========================================================================

SUBNETS = ("phi", "pi", "f0", "f1")
SCALARS = ("eps_d", "eps_y")
# The blocks of a net's parameter vector, in order: each of TASK_GROUPS is
# a run of adjacent blocks with its free scalar at one end.
LAYOUT = ("eps_d", "pi", "phi", "f0", "f1", "eps_y")


@dataclass(eq=False)
class MBRLNet:
    """Encoder, discriminator, outcome heads and the two free scalars.

    A net is its four specs (``net_specs``'s, from a config) and one
    float64 vector ``params``, laid out in ``LAYOUT`` order, a subnet's
    block in ``ParamSet.tensors()`` order. Construction checks what a
    checkpoint supplies: the outcome kind, that ``params`` is finite and
    has the specs' length, and the input transform. The
    net keeps its own copy of the vector it is given; the ParamSets
    ``phi``, ``pi``, ``f0``, ``f1``, the 0-d scalars ``eps_y``/``eps_d`` and
    the ``blocks`` slices are views of that copy, made with the net. So every
    copy (``dataclasses.replace``, ``copy.copy``, ``copy.deepcopy``, pickle)
    trains through its own vector. Nets compare by identity; compare
    ``params`` bytes for equal weights.

    ``input_mean``/``input_scale`` hold the per-feature standardization
    (train-split statistics) applied before the encoder; they are part of
    the model, not of the data.
    """

    phi_spec: nn.NetSpec
    pi_spec: nn.NetSpec
    f0_spec: nn.NetSpec
    f1_spec: nn.NetSpec
    params: np.ndarray = field(repr=False)
    outcome_kind: str = "continuous"
    input_mean: np.ndarray | None = None
    input_scale: np.ndarray | None = None
    phi: nn.ParamSet = field(init=False, repr=False)
    pi: nn.ParamSet = field(init=False, repr=False)
    f0: nn.ParamSet = field(init=False, repr=False)
    f1: nn.ParamSet = field(init=False, repr=False)
    eps_y: np.ndarray = field(init=False, repr=False)
    eps_d: np.ndarray = field(init=False, repr=False)
    blocks: dict[str, slice] = field(init=False, repr=False)  # of ``params``

    def __post_init__(self):
        if self.outcome_kind not in OUTCOME_KINDS:
            raise ValueError(f"unknown outcome_kind {self.outcome_kind!r}")
        sizes = [getattr(self, f"{n}_spec").n_params if n in SUBNETS else 1
                 for n in LAYOUT]
        ends = np.cumsum(sizes).tolist()
        self.blocks = {n: slice(e - k, e) for n, k, e in zip(LAYOUT, sizes, ends)}
        self.params = np.array(self.params, dtype=float)
        if self.params.shape != (ends[-1],):
            raise ValueError(f"params has shape {self.params.shape}; "
                             f"the specs lay out ({ends[-1]},)")
        finite = np.isfinite(self.params)
        bad = [name for name, b in self.blocks.items() if not finite[b].all()]
        if bad:
            raise ValueError(f"{bad[0]} has non-finite parameters")
        for name, view in self.views_of(self.params).items():
            setattr(self, name, view)
        s = self.phi_spec.input_width
        if self.input_mean is None:
            self.input_mean = np.zeros(s)
        if self.input_scale is None:
            self.input_scale = np.ones(s)
        self.input_mean = np.array(self.input_mean, dtype=float)
        self.input_scale = np.array(self.input_scale, dtype=float)
        if self.input_mean.shape != (s,) or self.input_scale.shape != (s,):
            raise ValueError("input transform must match the covariate width")
        for name in ("input_mean", "input_scale"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} has a non-finite entry")
        if np.any(self.input_scale <= 0):
            raise ValueError("input_scale entries must be positive")

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in fields(self) if f.init)

    def views_of(self, flat: np.ndarray) -> dict[str, nn.ParamSet | np.ndarray]:
        """Views of a vector in this net's layout (its parameters or their
        gradient) by block: a ParamSet per subnet, a 0-d array per scalar."""
        return {name: flat[b].reshape(()) if name in SCALARS
                else nn.param_views(getattr(self, f"{name}_spec"), flat[b])
                for name, b in self.blocks.items()}

    def transform(self, Z: np.ndarray) -> np.ndarray:
        Z = np.asarray(Z, dtype=float)
        if Z.shape[-1] != self.input_mean.shape[0]:
            raise ValueError(f"covariates have {Z.shape[-1]} columns, but the net "
                             f"takes {self.input_mean.shape[0]}")
        return (Z - self.input_mean) / self.input_scale


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

    lambda1: float = bounded(0.01, at_least=0)
    lambda2: float = bounded(0.01, at_least=0)
    # None resolves to 0.1 continuous / 100 binary
    beta: float | None = bounded(None, at_least=0)
    batch_size: int = bounded(100, at_least=2)
    epochs: int = bounded(1000, at_least=1)
    learning_rate: float = bounded(1e-3, at_least=0)
    ablation: str = bounded("full_mbrl", among=tuple(ABLATIONS))
    seed: int = bounded(0, at_least=0)
    phi_depth: int = bounded(4, at_least=1)
    phi_width: int = bounded(200, at_least=1)
    pi_depth: int = bounded(4, at_least=1)
    pi_width: int = bounded(200, at_least=1)
    head_depth: int = bounded(3, at_least=1)
    head_width: int = bounded(100, at_least=1)
    sinkhorn: SinkhornConfig = field(default_factory=SinkhornConfig)

    def __post_init__(self):
        check_fields(self)
        if self.sinkhorn is None:  # JSON null: the default solver
            self.sinkhorn = SinkhornConfig()
        self.sinkhorn = nested_record("sinkhorn", self.sinkhorn, SinkhornConfig)


def net_specs(n_covariates: int, outcome_kind: str,
              cfg: TrainConfig) -> dict[str, nn.NetSpec]:
    """The one statement of a net's architecture: its four specs for
    s-dimensional covariates, keyed as ``MBRLNet``'s fields. pi, f0 and f1
    read the representation phi outputs and each has one output: pi's a
    sigmoid, the heads' ``head_activation(outcome_kind)``."""
    rep = cfg.phi_width
    head_spec = nn.NetSpec((rep, *([cfg.head_width] * cfg.head_depth), 1),
                           output_activation=head_activation(outcome_kind))
    return {"phi_spec": nn.NetSpec((n_covariates, *([rep] * cfg.phi_depth))),
            "pi_spec": nn.NetSpec((rep, *([cfg.pi_width] * cfg.pi_depth), 1),
                                  output_activation="sigmoid"),
            "f0_spec": head_spec, "f1_spec": head_spec}


def build_net(n_covariates: int, outcome_kind: str, cfg: TrainConfig, seed: int,
              input_mean: np.ndarray | None = None,
              input_scale: np.ndarray | None = None) -> MBRLNet:
    """Construct a freshly initialized network for s-dimensional covariates."""
    children = np.random.SeedSequence(seed).spawn(4)
    seeds = [int(c.generate_state(1)[0]) for c in children]
    specs = net_specs(n_covariates, outcome_kind, cfg)
    # The net copies this read-only zero vector into its own; each subnet's
    # draws are written into their views of it and dropped before the next
    # subnet is drawn.
    n_params = sum(spec.n_params for spec in specs.values()) + len(SCALARS)
    net = MBRLNet(**specs, params=np.broadcast_to(0.0, n_params),
                  outcome_kind=outcome_kind,
                  input_mean=input_mean, input_scale=input_scale)
    for name, seed in zip(SUBNETS, seeds):
        for view, draw in zip(getattr(net, name).tensors(),
                              nn.init_params(specs[f"{name}_spec"], seed).tensors()):
            view[...] = draw
    return net


# =========================================================================
# Predictions and losses
# =========================================================================

def predict(net: MBRLNet, Z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-unit (yhat0, yhat1, propensity). These are exactly the nuisance
    estimates g_hat(0, z), g_hat(1, z) and m_hat(z)."""
    X = net.transform(Z)
    R, _ = nn.forward(net.phi, net.phi_spec, X, keep_cache=False)
    p, _ = nn.forward(net.pi, net.pi_spec, R, keep_cache=False)
    o0, _ = nn.forward(net.f0, net.f0_spec, R, keep_cache=False)
    o1, _ = nn.forward(net.f1, net.f1_spec, R, keep_cache=False)
    return o0[:, 0], o1[:, 0], p[:, 0]


def nuisances_from_net(net: MBRLNet, data: Dataset) -> NuisanceEstimates:
    """``predict`` on a unit set, as the nuisance estimates scores read."""
    yhat0, yhat1, p = predict(net, data.covariates)
    return NuisanceEstimates(g0_hat=yhat0, g1_hat=yhat1, m_hat=p)


def perturbation_error(y, yhat, d, dhat, beta: float) -> float:
    """RMSE plus beta times the absolute mean cross-residual product."""
    y, yhat, d, dhat = (np.asarray(v, dtype=float) for v in (y, yhat, d, dhat))
    if not (y.shape == yhat.shape == d.shape == dhat.shape) or y.ndim != 1 or y.size < 1:
        raise ValueError("length mismatch")
    cross = float(np.mean((y - yhat) * (d - dhat)))
    return rmse(y, yhat) + beta * abs(cross)


def heldout_scores(nuis: NuisanceEstimates, data: Dataset,
                   beta: float) -> tuple[float, float]:
    """(RMSE, eps_p) of a unit set's factual pick (each unit's own arm's
    estimate) and clamped propensity: the one held-out score of a net."""
    pred = np.where(data.treatment == 1, nuis.g1_hat, nuis.g0_hat)
    return (rmse(data.outcome_factual, pred),
            perturbation_error(data.outcome_factual, pred, data.treatment,
                               nuis.m_hat, beta))


# =========================================================================
# Multi-task training step
# =========================================================================

@dataclass
class TrainState:
    """A net in training: one Adam state over all of ``net.params``, whose
    gradient vector every task writes through ``grads`` (its views by
    block) and whose ``step`` counts the steps taken, the clip count and
    the last step's loss terms."""

    net: MBRLNet
    opt: nn.AdamState
    grads: dict[str, nn.ParamSet | np.ndarray]
    clip_events: int = 0
    last: dict = field(default_factory=dict)


# Task -> the blocks it trains, adjacent in LAYOUT: the one statement of each
# task's slice and of the gradient blocks it writes (the encoder's only where
# "phi" is listed, as a representation gradient the step sums over tasks).
# A free scalar stays in its group; where its lambda is 0 its gradient is 0.
TASK_GROUPS = {
    1: ("eps_d", "pi"),
    2: ("phi",),
    3: ("phi", "f0", "f1", "eps_y"),
}


def task_slice(net: MBRLNet, task: int) -> slice:
    """The span of ``net.params`` (and of its gradient) one task updates."""
    blocks = TASK_GROUPS[task]
    return slice(net.blocks[blocks[0]].start, net.blocks[blocks[-1]].stop)


def init_train_state(net: MBRLNet, cfg: TrainConfig) -> TrainState:
    """One Adam state over all of ``net.params`` and a gradient vector in
    the net's layout. Adam steps each entry from that entry's gradient and
    moments alone, so the one state is every task group's optimizer."""
    opt = nn.adam_init(net.params, np.zeros_like(net.params), cfg.learning_rate)
    return TrainState(net=net, opt=opt, grads=net.views_of(opt.grad))


def multitask_step(state: TrainState, batch: Batch, cfg: TrainConfig) -> TrainState:
    """One encoder pass, then ``task_objective`` for tasks 1, 3 and (when
    balancing) 2, each writing its gradients into the state's gradient
    vector; their representation gradients, summed in that order, backed
    through the encoder once; then one Adam update of the whole net. A step
    that raises on a non-finite loss or gradient leaves the net unchanged.

    The balancing term is left out when the batch lacks a treatment arm (the
    imbalance loss is then defined as 0) and under the tarnet ablation.
    """
    plan = ABLATIONS[cfg.ablation]
    net, grads = state.net, state.grads
    treated = np.asarray(batch.treatment) == 1
    tasks = [1, 3]
    if plan.run_balance and treated.any() and not treated.all():
        tasks.append(2)
    R, cache_phi = encode(net, batch)
    objectives = [task_objective(net, batch, cfg, task, grads, R) for task in tasks]
    losses = {"l_imb": 0.0}
    for objective in objectives:
        losses.update(objective.terms)
    if not all(np.isfinite(v) for v in losses.values()):
        raise RuntimeError(f"non-finite training signal at step "
                           f"{state.opt.step + 1}: {losses}")
    dR, *rest = [o.rep_grad for o in objectives if o.rep_grad is not None]
    for rep_grad in rest:
        dR += rep_grad
    nn.backward(net.phi, net.phi_spec, cache_phi, dR, input_grad=False, out=grads["phi"])
    nn.adam_update(state.opt)

    if plan.train_eps:
        for eps in (net.eps_y, net.eps_d):
            if abs(float(eps)) > EPS_CLIP:
                eps[()] = np.clip(float(eps), -EPS_CLIP, EPS_CLIP)
                state.clip_events += 1
                logger.warning("free scalar clipped to |eps| <= %g", EPS_CLIP)
    state.last = losses
    return state


# =========================================================================
# Task objectives with analytic gradients
# =========================================================================

class TaskObjective(NamedTuple):
    value: float
    terms: dict[str, float]  # the loss terms the training log records
    rep_grad: np.ndarray | None  # the value's gradient at R, where the group has "phi"


def encode(net: MBRLNet, batch: Batch) -> tuple[np.ndarray, nn.ForwardCache]:
    """The encoder pass (representation, cache) of a batch's covariates."""
    return nn.forward(net.phi, net.phi_spec, net.transform(batch.covariates))


def task_objective(net: MBRLNet, batch: Batch, cfg: TrainConfig, task: int,
                   grads: dict[str, nn.ParamSet | np.ndarray], R: np.ndarray
                   ) -> TaskObjective:
    """Value and logged loss terms of one task objective at the
    representation ``R`` (``encode(net, batch)``'s at the current encoder
    weights). Its analytic gradients are written into ``grads``
    (``net.views_of`` a gradient vector) for every block ``TASK_GROUPS``
    names for the task but the encoder; where the group names "phi",
    ``rep_grad`` is the value's gradient at ``R``, for the caller to back
    through the encoder.

    Every task objective is descended: -L_dis + lambda1*Omega_d (task 1),
    the entropic dual value of L_imb (task 2) and L_fo + lambda2*Omega_y
    (task 3). Ablations without the noise regularizers take lambda1 =
    lambda2 = 0. ``multitask_step`` descends these gradients.
    """
    if task not in TASK_GROUPS:
        raise ValueError("task must be 1, 2 or 3")
    d = np.asarray(batch.treatment, dtype=float)
    treated = d == 1
    b = R.shape[0]
    reach_phi = "phi" in TASK_GROUPS[task]
    if task == 2:
        if not treated.any() or treated.all():
            raise ValueError("task 2 needs both treatment arms in the batch")
        res = wasserstein_sinkhorn(R[treated], R[~treated], cfg.sinkhorn)
        dR = np.zeros_like(R)
        dR[treated] = res.grad_a
        dR[~treated] = res.grad_b
        # At convergence the fixed-plan gradient above is the gradient of
        # the entropic dual value; the log keeps the transport cost.
        value, terms = res.dual_value, {"l_imb": res.distance}
    else:
        # Task 1 fits the discriminator to t = d; task 3, the outcome heads to t = y.
        if task == 1:
            p, cache_pi = nn.forward(net.pi, net.pi_spec, R)
            pred, heads = p[:, 0], [("pi", slice(None), cache_pi)]
            t, lam, scalar = d, cfg.lambda1, "eps_d"
        else:
            # Each head runs on its own arm's rows only; a head whose arm
            # has no rows runs on zero rows and gets exact-zero gradients.
            pred, heads = np.empty(b), []
            for name, rows in (("f0", ~treated), ("f1", treated)):
                out, cache = nn.forward(getattr(net, name), getattr(net, f"{name}_spec"),
                                        R[rows])
                pred[rows] = out[:, 0]
                heads.append((name, rows, cache))
            t, lam, scalar = np.asarray(batch.outcome, dtype=float), cfg.lambda2, "eps_y"
        lam = lam if ABLATIONS[cfg.ablation].train_eps else 0.0
        if task == 1 or net.outcome_kind == "binary":  # Bernoulli log-loss
            loss = float(-np.mean(t * np.log(pred) + (1.0 - t) * np.log1p(-pred)))
            dpred = ((1.0 - t) / (1.0 - pred) - t / pred) / b
        else:
            loss = float(np.mean((t - pred) ** 2))
            dpred = 2.0 * (pred - t) / b
        eps = float(getattr(net, scalar))
        gap = float(np.mean(t - pred))
        value = loss + lam * eps * abs(gap)
        dpred = dpred - lam * eps * np.sign(gap) / b
        # The heads' rows partition the batch, so each row of dR is written
        # once, by the head that owns it.
        dR = np.empty_like(R) if reach_phi else None
        for name, rows, cache in heads:
            _, dR_rows = nn.backward(getattr(net, name), getattr(net, f"{name}_spec"),
                                     cache, dpred[rows, None], input_grad=reach_phi,
                                     out=grads[name])
            if reach_phi:
                dR[rows] = dR_rows
        grads[scalar][()] = lam * abs(gap)
        terms = ({"l_dis": -loss, "omega_d": eps * abs(gap)} if task == 1
                 else {"l_fo": loss, "omega_y": eps * abs(gap)})
    return TaskObjective(value, terms, dR)


def task_gradient_error(net: MBRLNet, batch: Batch, cfg: TrainConfig,
                        task: int, h: float = 1e-5) -> float:
    """Max relative error between analytic task gradients and central
    finite differences over the task's slice of the parameter vector: the
    ``task_objective`` gradients, the encoder's backed from ``rep_grad`` as
    ``multitask_step`` backs it."""
    s = task_slice(net, task)
    grad = np.zeros_like(net.params)
    grads = net.views_of(grad)
    R, cache_phi = encode(net, batch)
    rep_grad = task_objective(net, batch, cfg, task, grads, R).rep_grad
    if rep_grad is not None:
        nn.backward(net.phi, net.phi_spec, cache_phi, rep_grad, input_grad=False,
                    out=grads["phi"])
    spare = net.views_of(np.zeros_like(net.params))
    return nn.central_difference_error(
        net.params[s], grad[s],
        lambda: task_objective(net, batch, cfg, task, spare, encode(net, batch)[0]).value,
        h, 2000)


# =========================================================================
# Fit and model selection
# =========================================================================

@dataclass
class EpochStats:
    """One epoch's mean training losses and validation scores. ``fit``
    records an epoch whose validation score is not finite, never selects it."""

    epoch: int = bounded(at_least=1)
    l_fo: float
    l_dis: float
    l_imb: float
    omega_y: float
    omega_d: float
    val_rmse: float = bounded(finite=False)
    val_eps_p: float = bounded(finite=False)

    def __post_init__(self):
        check_fields(self)


def selected_epoch(history: Sequence[EpochStats], rule: str) -> int | None:
    """The selection rule: the first epoch with the least finite value of
    ``val_<rule>`` ("eps_p" or "rmse"), or None when no epoch has one."""
    values = [getattr(stats, f"val_{rule}") for stats in history]
    finite = [v for v in values if np.isfinite(v)]
    return history[values.index(min(finite))].epoch if finite else None


@dataclass
class Checkpoint:
    """What ``fit`` returns: its config, history and clip count, and the nets
    at the end of the epochs ``selected_epoch`` picks under the run's rule
    (``net``) and under RMSE (``net_rmse``). Construction rejects a net
    whose specs are not ``net_specs``'s for the config, a ``net_rmse`` whose
    outcome kind or input transform is not ``net``'s, an empty history,
    epochs other than 1..n in order, and a history in which a rule it
    derives has no finite score. So a checkpoint that stores these facts
    once round-trips every field.
    """

    net: MBRLNet
    net_rmse: MBRLNet
    history: list[EpochStats]
    config: TrainConfig
    clip_events: int = bounded(at_least=0)

    # Derived from the fields, never stored: each rule's epoch and its score.
    selection = property(lambda self: ABLATIONS[self.config.ablation].selection)
    beta = property(lambda self: run_beta(self.config, self.net.outcome_kind))
    best_epoch = property(lambda self: selected_epoch(self.history, self.selection))
    best_eps_p = property(lambda self: getattr(self.history[self.best_epoch - 1],
                                               f"val_{self.selection}"))
    best_epoch_rmse = property(lambda self: selected_epoch(self.history, "rmse"))
    best_val_rmse = property(lambda self: self.history[self.best_epoch_rmse - 1].val_rmse)

    def __post_init__(self):
        check_fields(self)
        ref = self.net
        specs = net_specs(ref.phi_spec.input_width, ref.outcome_kind, self.config)
        for name in ("net", "net_rmse"):
            net = getattr(self, name)
            if any(getattr(net, key) != spec for key, spec in specs.items()):
                raise ValueError(f"{name} has other specs than the config's net_specs")
            if (net.outcome_kind != ref.outcome_kind
                    or not np.array_equal(net.input_mean, ref.input_mean)
                    or not np.array_equal(net.input_scale, ref.input_scale)):
                raise ValueError(f"{name} has another outcome kind or input "
                                 f"transform than net")
        if not self.history:
            raise ValueError("history is empty")
        for i, stats in enumerate(self.history):
            if stats.epoch != i + 1:
                raise ValueError(f"history[{i}] has epoch {stats.epoch}, not {i + 1}")
        for rule in (self.selection, "rmse"):
            if selected_epoch(self.history, rule) is None:
                raise ValueError(f"no history entry has a finite val_{rule}")


def validation_scores(net: MBRLNet, val: Dataset, beta: float) -> tuple[float, float]:
    """``heldout_scores`` on ``val``: the eps_p that selects the epoch and a
    report row's eps_p are one function of one clamped propensity."""
    return heldout_scores(nuisances_from_net(net, val), val, beta)


def fit(train: Dataset, val: Dataset, cfg: TrainConfig) -> Checkpoint:
    """Epoch loop of shuffled minibatch multi-task steps, recording each
    epoch's validation RMSE and perturbation error and keeping the parameters
    of the epochs ``selected_epoch`` picks under the run's rule (perturbation
    error by default, RMSE under ablations that drop it) and under RMSE.
    Raises RuntimeError when either rule has no finite score."""
    if train.n_covariates != val.n_covariates:
        raise ValueError("train and validation covariate dimensions differ")
    if train.outcome_kind != val.outcome_kind:
        raise ValueError("train and validation outcome kinds differ")

    selection = ABLATIONS[cfg.ablation].selection
    beta = run_beta(cfg, train.outcome_kind)
    root = np.random.SeedSequence(cfg.seed).spawn(2)
    mean, scale = standardizer_from(train)
    net = build_net(train.n_covariates, train.outcome_kind, cfg,
                    seed=int(root[0].generate_state(1)[0]),
                    input_mean=mean, input_scale=scale)
    state = init_train_state(net, cfg)
    rng = np.random.default_rng(int(root[1].generate_state(1)[0]))

    n = train.n_units
    history: list[EpochStats] = []
    # Epoch -> net.params at its end, kept while a rule selects the epoch.
    snapshots: dict[int, np.ndarray] = {}

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

        val_rmse, val_eps_p = validation_scores(net, val, beta)
        history.append(EpochStats(
            epoch=epoch,
            **{k: v / n_steps for k, v in sums.items()},
            val_rmse=val_rmse, val_eps_p=val_eps_p,
        ))
        selected = {rule: selected_epoch(history, rule) for rule in (selection, "rmse")}
        if epoch in selected.values():
            snapshots[epoch] = net.params.copy()
        snapshots = {e: snapshots[e] for e in selected.values() if e is not None}

    missing = [rule for rule, epoch in selected.items() if epoch is None]
    if missing:
        raise RuntimeError(f"no epoch of {cfg.epochs} had a finite validation "
                           f"{missing[0]}; nothing to select")
    # The gradient and the Adam moments go before the returned nets
    # are built, so building them does not raise the fit's peak memory.
    clip_events = state.clip_events
    del state
    return Checkpoint(net=replace(net, params=snapshots[selected[selection]]),
                      net_rmse=replace(net, params=snapshots[selected["rmse"]]),
                      history=history, config=cfg, clip_events=clip_events)


# =========================================================================
# Persistence: one versioned JSON document per checkpoint
# =========================================================================

CHECKPOINT_FORMAT = "mbrl-checkpoint"
CHECKPOINT_VERSION = 6
# The facts both nets share, stored once beside their parameter vectors.
SHARED_NET_FIELDS = ("outcome_kind", "input_mean", "input_scale")


def _json_object(name: str, value) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be a JSON object, not {value!r}")
    return value


def save_checkpoint(ckpt: Checkpoint, path: str | Path) -> None:
    """Write every ``Checkpoint`` field to one JSON document at ``path``,
    beside the format and version: the config and each epoch's stats as
    their dicts, the outcome kind and input transform the nets share once,
    and each net as its ``params`` list. No spec is stored: ``Checkpoint``
    holds nets built from ``net_specs`` of its config."""
    net = ckpt.net
    doc = {f.name: getattr(ckpt, f.name) for f in fields(Checkpoint)}
    doc.update(format=CHECKPOINT_FORMAT, version=CHECKPOINT_VERSION,
               outcome_kind=net.outcome_kind, input_mean=net.input_mean.tolist(),
               input_scale=net.input_scale.tolist(),
               net=net.params.tolist(), net_rmse=ckpt.net_rmse.params.tolist())
    Path(path).write_text(json.dumps(doc, sort_keys=True, default=asdict))


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Read the checkpoint ``save_checkpoint`` wrote: one version-6 JSON
    document of the config, history and clip count, the nets' outcome kind
    and input transform, and each net's ``params`` list in ``LAYOUT``
    order; both nets are built from ``net_specs`` of the config. Any
    failure raises ValueError naming the file and the entry, net or field:
    not a JSON object, another format or version, a missing or unknown
    entry, or a net, config, history entry or checkpoint its constructor
    rejects."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed checkpoint {path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"malformed checkpoint {path}: not a JSON object")
    if doc.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"not a {CHECKPOINT_FORMAT} file: {path}")
    if doc.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {doc.get('version')!r} "
                         f"in {path}: this code reads version {CHECKPOINT_VERSION}")
    try:
        names = [f.name for f in fields(Checkpoint)]
        reject_unknown(doc, ("format", "version", *names, *SHARED_NET_FIELDS))
        record = {name: doc[name] for name in names}
        shared = {key: doc[key] for key in SHARED_NET_FIELDS}
        history = record["history"]
        if not isinstance(history, list):
            raise ValueError(f"history must be a list, not {history!r}")
        for i, entry in enumerate(history):
            _json_object(f"history[{i}]", entry)
            try:
                history[i] = nested_record(None, entry, EpochStats)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"history[{i}]: {exc}") from exc
        record["config"] = nested_record("config", record["config"], TrainConfig)
        specs = net_specs(np.size(shared["input_mean"]), shared["outcome_kind"],
                          record["config"])
        for name in ("net", "net_rmse"):
            try:
                record[name] = MBRLNet(**specs, params=record[name], **shared)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{name}: {exc}") from exc
        return Checkpoint(**record)
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
