"""Minimal dense-network engine: forward pass, exact reverse-mode gradients,
Adam updates and finite-difference verification.

Everything is float64 numpy. Weight matrices follow the (out, in) convention,
so a batch X of shape (B, in) maps to X @ W.T + b.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

SIGMOID_CLAMP = 1e-7

OUTPUT_ACTIVATIONS = ("identity", "sigmoid")


# =========================================================================
# Specs and parameter containers
# =========================================================================

@dataclass(frozen=True)
class NetSpec:
    """Shape and output activation of a fully connected net; every hidden
    layer applies ELU."""

    layer_widths: tuple[int, ...]
    output_activation: str = "identity"

    def __post_init__(self):
        widths = tuple(self.layer_widths)
        for w in widths:  # int() would quietly take 6.7, True or "6"
            if isinstance(w, bool) or not isinstance(w, numbers.Integral):
                raise ValueError(f"layer widths must be integers, not {w!r}")
        widths = tuple(map(int, widths))  # numpy integers as Python ints
        object.__setattr__(self, "layer_widths", widths)
        if len(widths) < 2:
            raise ValueError("layer_widths needs at least input and output entries")
        if any(w < 1 for w in widths):
            raise ValueError("layer widths must be positive")
        if self.output_activation not in OUTPUT_ACTIVATIONS:
            raise ValueError(f"unknown output activation {self.output_activation!r}")

    @property
    def input_width(self) -> int:
        return self.layer_widths[0]

    @property
    def output_width(self) -> int:
        return self.layer_widths[-1]

    @property
    def n_layers(self) -> int:
        return len(self.layer_widths) - 1

    @property
    def n_params(self) -> int:
        w = self.layer_widths
        return sum(o * i + o for i, o in zip(w, w[1:]))


@dataclass
class ParamSet:
    """Per-layer weight matrices and bias vectors."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def tensors(self) -> list[np.ndarray]:
        """All trainable arrays in a fixed order (weights, then biases)."""
        return [*self.weights, *self.biases]


def param_views(spec: NetSpec, flat: np.ndarray) -> ParamSet:
    """A ParamSet of views of ``flat`` (``spec.n_params`` entries) laid out
    in ``tensors()`` order: each weight matrix row-major, then each bias."""
    w = spec.layer_widths
    shapes = [*((o, i) for i, o in zip(w, w[1:])), *((o,) for o in w[1:])]
    ends = np.cumsum([np.prod(shape) for shape in shapes])
    views = [v.reshape(shape) for v, shape in zip(np.split(flat, ends[:-1]), shapes)]
    return ParamSet(weights=views[:spec.n_layers], biases=views[spec.n_layers:])


def init_params(spec: NetSpec, seed: int) -> ParamSet:
    """Deterministic fan-based uniform init: W ~ U(-a, a), a = sqrt(6/(fan_in+fan_out)).

    Biases start at zero.
    """
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(spec.layer_widths[:-1], spec.layer_widths[1:]):
        a = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-a, a, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return ParamSet(weights=weights, biases=biases)


# =========================================================================
# Activations
# =========================================================================

def elu(x: np.ndarray) -> np.ndarray:
    # Branch-free: expm1 of the nonpositive part, so large positive inputs
    # cannot overflow, and expm1(min(x, 0)) >= x for x < 0 and is 0 < x for
    # x > 0, so the maximum picks the right branch. elu(nan) is nan. This
    # argument order keeps elu(-0.0) = -0.0; the other order returns +0.0.
    out = np.minimum(x, 0.0)
    np.expm1(out, out=out)
    return np.maximum(out, x, out=out)


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Overflow-safe logistic function (unclamped)."""
    z = np.asarray(z, dtype=float)
    a = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + a), a / (1.0 + a))


# =========================================================================
# Forward / backward
# =========================================================================

@dataclass
class ForwardCache:
    """What one forward pass keeps for backward(): each layer's input (the
    batch, then each hidden layer's ELU output) and the net's output. No
    pre-activation is kept; backward() reads each hidden layer's ELU′ from
    the next layer's input and a sigmoid output's derivative from
    ``output`` (the clamped sigmoid), so callers must not write into them.
    """

    inputs: list[np.ndarray]
    output: np.ndarray


def forward(params: ParamSet, spec: NetSpec, X: np.ndarray, keep_cache: bool = True
            ) -> tuple[np.ndarray, ForwardCache | None]:
    """Batched forward pass.

    Sigmoid outputs are clamped to [1e-7, 1 - 1e-7] so downstream logarithms
    are always finite. With ``keep_cache=False`` (inference) no cache is
    built and None is returned in its place: each layer's arrays are
    released as the next layer is computed, and the output is the same
    bytes.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != spec.input_width:
        raise ValueError(
            f"input shape {X.shape} incompatible with spec input width {spec.input_width}")
    if len(params.weights) != spec.n_layers:
        raise ValueError("parameter count does not match spec")

    h = X
    inputs: list[np.ndarray] = []
    last = spec.n_layers - 1
    for k, (W, b) in enumerate(zip(params.weights, params.biases)):
        z = h @ W.T
        z += b
        if keep_cache:
            inputs.append(h)
        if k < last:
            h = elu(z)
        elif spec.output_activation == "sigmoid":
            h = np.clip(sigmoid(z), SIGMOID_CLAMP, 1.0 - SIGMOID_CLAMP)
        else:
            h = z
    if not keep_cache:
        return h, None
    return h, ForwardCache(inputs=inputs, output=h)


def backward(
    params: ParamSet,
    spec: NetSpec,
    cache: ForwardCache,
    output_grad: np.ndarray,
    input_grad: bool = True,
    out: ParamSet | None = None,
) -> tuple[ParamSet, np.ndarray | None]:
    """Exact reverse-mode gradients for the scalar whose output-gradient is given.

    Returns (gradients shaped like params, gradient w.r.t. the input batch).
    The parameter gradients are written into ``out`` when it is given (arrays
    shaped like params, e.g. views of an optimizer's gradient vector) and
    into views of a fresh vector otherwise; ``out`` is returned. With
    ``input_grad=False`` the first layer's product for the input gradient is
    skipped and None is returned in its place; the parameter gradients are
    the same bytes either way.
    """
    output_grad = np.asarray(output_grad, dtype=float)
    if len(cache.inputs) != spec.n_layers:
        raise ValueError("cache does not match spec")
    if output_grad.shape != cache.output.shape:
        raise ValueError(
            f"output_grad shape {output_grad.shape} does not match cached output "
            f"{cache.output.shape}")
    if out is None:
        out = param_views(spec, np.empty(spec.n_params))

    g = output_grad
    last = spec.n_layers - 1
    for k in range(last, -1, -1):
        if k == last:
            if spec.output_activation == "sigmoid":
                p = cache.output
                inside = (p > SIGMOID_CLAMP) & (p < 1.0 - SIGMOID_CLAMP)
                dz = g * p * (1.0 - p) * inside
            else:
                dz = g
        else:
            # ELU′ from the stored output h = elu(z): min(h, 0) + 1 is
            # expm1(z) + 1 for z <= 0, within 2^-52 of exp(z), and exactly 1
            # for z > 0 (the subderivative at 0 is 1). The trade: where
            # exp(z) is tiny its relative error grows, and it is exactly 0
            # once expm1(z) rounds to -1 (z below about -37.4). A nan
            # pre-activation gives a nan gradient.
            dz = np.minimum(cache.inputs[k + 1], 0.0)
            dz += 1.0
            dz *= g
        np.matmul(dz.T, cache.inputs[k], out=out.weights[k])
        np.sum(dz, axis=0, out=out.biases[k])
        g = dz @ params.weights[k] if k or input_grad else None
    return out, g


# =========================================================================
# Adam
# =========================================================================

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS_HAT = 1e-8
# Entries per block of an Adam update (256 KiB of each vector), so the
# update's passes over a block run in cache.
ADAM_BLOCK = 32768


@dataclass
class AdamState:
    """The parameter vector an optimizer updates (a net's whole vector),
    the gradient vector its producer writes in the same layout, the
    first/second moment accumulators and a work vector of one block,
    ``min(ADAM_BLOCK, size)`` entries."""

    params: np.ndarray
    grad: np.ndarray
    m: np.ndarray
    v: np.ndarray
    work: np.ndarray
    step: int = 0
    learning_rate: float = 1e-3


def adam_init(params: np.ndarray, grad: np.ndarray,
              learning_rate: float = 1e-3) -> AdamState:
    """Optimizer state of a flat parameter vector and its gradient vector."""
    size = params.size
    return AdamState(params=params, grad=grad, m=np.zeros(size), v=np.zeros(size),
                     work=np.zeros(min(ADAM_BLOCK, size)), learning_rate=learning_rate)


def adam_update(state: AdamState) -> None:
    """One bias-corrected Adam descent step on ``state.params``, in place,
    from the gradient its producer wrote into ``state.grad``.

    The step is lr * (m / c1) / (sqrt(v / c2) + eps_hat) with both bias
    corrections folded into two per-call scalars (Kingma & Ba 2015, §2):
    m * lr_t / (sqrt(v) + eps_t) with lr_t = lr * sqrt(c2) / c1 and
    eps_t = eps_hat * sqrt(c2), one division and one square root per
    entry, computed elementwise in that order. It runs block by block
    (``ADAM_BLOCK`` entries of each vector at a time, the same operations
    in the same order in every block, so the bytes do not depend on the
    block size) and overwrites the gradient with the step; nothing is
    allocated. Non-finite gradient entries raise before any block moves.
    """
    grad = state.grad
    # max and min propagate nan and reach any +-inf, without a mask.
    if not (np.isfinite(grad.max()) and np.isfinite(grad.min())):
        raise ValueError("non-finite gradient entries")
    state.step += 1
    t = state.step
    c1 = 1.0 - ADAM_BETA1 ** t
    sqrt_c2 = math.sqrt(1.0 - ADAM_BETA2 ** t)
    lr_t = state.learning_rate * sqrt_c2 / c1
    eps_t = ADAM_EPS_HAT * sqrt_c2
    for start in range(0, grad.size, ADAM_BLOCK):
        s = slice(start, start + ADAM_BLOCK)
        g, m, v, p = grad[s], state.m[s], state.v[s], state.params[s]
        work = state.work[:g.size]
        m *= ADAM_BETA1
        np.multiply(g, 1.0 - ADAM_BETA1, out=work)
        m += work
        v *= ADAM_BETA2
        np.multiply(g, 1.0 - ADAM_BETA2, out=work)
        work *= g
        v += work
        # The block's gradient is spent; g now holds its step.
        np.sqrt(v, out=work)
        work += eps_t
        np.multiply(m, lr_t, out=g)
        g /= work
        p -= g


# =========================================================================
# Finite-difference verification
# =========================================================================

def central_difference_error(
    params: np.ndarray,
    grad: np.ndarray,
    value: Callable[[], float],
    h: float,
    max_coords: int,
) -> float:
    """Compare an analytic gradient vector against central finite
    differences.

    ``value()`` evaluates the objective at the current contents of the flat
    vector ``params``, which is perturbed in place one entry at a time and
    restored. Every entry is checked (a random subsample of ``max_coords``
    above that many, drawn with seed 0); the result is
    max |analytic - numeric| / max(1, |analytic| + |numeric|).
    """
    if not (1e-7 < h < 1e-3):
        raise ValueError("invalid step")
    coords = range(params.size)
    if params.size > max_coords:
        coords = np.random.default_rng(0).choice(params.size, size=max_coords,
                                                 replace=False)

    max_err = 0.0
    for i in coords:
        orig = params[i]
        params[i] = orig + h
        f_plus = value()
        params[i] = orig - h
        f_minus = value()
        params[i] = orig
        numeric = (f_plus - f_minus) / (2.0 * h)
        analytic = float(grad[i])
        err = abs(analytic - numeric) / max(1.0, abs(analytic) + abs(numeric))
        max_err = max(max_err, err)
    return max_err


def grad_check(
    spec: NetSpec,
    params: ParamSet,
    loss: Callable[[ParamSet], tuple[float, ParamSet]],
    h: float,
) -> float:
    """Finite-difference check of a dense-net loss.

    ``loss(params)`` must return (value, gradient ParamSet); it is evaluated
    on views of a flat copy of ``params``. See ``central_difference_error``
    for the error measure.
    """
    if len(params.weights) != spec.n_layers:
        raise ValueError("parameter count does not match spec")
    flat = np.concatenate([t.ravel() for t in params.tensors()])
    views = param_views(spec, flat)
    _, grads = loss(views)
    grad = np.concatenate([g.ravel() for g in grads.tensors()])
    return central_difference_error(flat, grad, lambda: loss(views)[0], h, 10_000)

