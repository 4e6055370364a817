"""Minimal dense-network engine: forward pass, exact reverse-mode gradients,
Adam updates and finite-difference verification.

Everything is float64 numpy. Weight matrices follow the (out, in) convention,
so a batch X of shape (B, in) maps to X @ W.T + b.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

SIGMOID_CLAMP = 1e-7

HIDDEN_ACTIVATIONS = ("elu",)
OUTPUT_ACTIVATIONS = ("identity", "sigmoid")


# =========================================================================
# Specs and parameter containers
# =========================================================================

@dataclass(frozen=True)
class NetSpec:
    """Shape and activation description of a fully connected net."""

    layer_widths: tuple[int, ...]
    hidden_activation: str = "elu"
    output_activation: str = "identity"

    def __post_init__(self):
        widths = tuple(int(w) for w in self.layer_widths)
        object.__setattr__(self, "layer_widths", widths)
        if len(widths) < 2:
            raise ValueError("layer_widths needs at least input and output entries")
        if any(w < 1 for w in widths):
            raise ValueError("layer widths must be positive")
        if self.hidden_activation not in HIDDEN_ACTIVATIONS:
            raise ValueError(f"unknown hidden activation {self.hidden_activation!r}")
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


@dataclass
class ParamSet:
    """Per-layer weight matrices and bias vectors."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def tensors(self) -> list[np.ndarray]:
        """All trainable arrays in a fixed order (weights, then biases)."""
        return [*self.weights, *self.biases]


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

# Both take exp of min(x, 0), so large positive inputs cannot overflow, and
# NaN fails the mask: elu(nan) is nan and elu_grad(nan) is 1.

def elu(x: np.ndarray) -> np.ndarray:
    # x < 0 rather than x <= 0: at +-0 the identity branch returns x, which
    # keeps the sign of -0.0 that np.minimum(-0.0, 0) would drop.
    return np.where(x < 0, np.expm1(np.minimum(x, 0.0)), x)


def elu_grad(x: np.ndarray) -> np.ndarray:
    # Subderivative at exactly 0 taken as 1 (exp(0)).
    return np.where(x <= 0, np.exp(np.minimum(x, 0.0)), 1.0)


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
    """Intermediates of one forward pass, consumed by backward()."""

    inputs: list[np.ndarray]
    preacts: list[np.ndarray]
    output: np.ndarray


def forward(params: ParamSet, spec: NetSpec, X: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """Batched forward pass.

    Sigmoid outputs are clamped to [1e-7, 1 - 1e-7] so downstream logarithms
    are always finite.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != spec.input_width:
        raise ValueError(
            f"input shape {X.shape} incompatible with spec input width {spec.input_width}")
    if len(params.weights) != spec.n_layers:
        raise ValueError("parameter count does not match spec")

    h = X
    inputs: list[np.ndarray] = []
    preacts: list[np.ndarray] = []
    last = spec.n_layers - 1
    for k, (W, b) in enumerate(zip(params.weights, params.biases)):
        inputs.append(h)
        z = h @ W.T + b
        preacts.append(z)
        if k < last:
            h = elu(z)
        elif spec.output_activation == "sigmoid":
            h = np.clip(sigmoid(z), SIGMOID_CLAMP, 1.0 - SIGMOID_CLAMP)
        else:
            h = z
    return h, ForwardCache(inputs=inputs, preacts=preacts, output=h)


def backward(
    params: ParamSet,
    spec: NetSpec,
    cache: ForwardCache,
    output_grad: np.ndarray,
) -> tuple[ParamSet, np.ndarray]:
    """Exact reverse-mode gradients for the scalar whose output-gradient is given.

    Returns (gradients shaped like params, gradient w.r.t. the input batch).
    """
    output_grad = np.asarray(output_grad, dtype=float)
    if len(cache.preacts) != spec.n_layers:
        raise ValueError("cache does not match spec")
    if output_grad.shape != cache.output.shape:
        raise ValueError(
            f"output_grad shape {output_grad.shape} does not match cached output "
            f"{cache.output.shape}")

    g_w = [np.empty(0)] * spec.n_layers
    g_b = [np.empty(0)] * spec.n_layers
    g = output_grad
    last = spec.n_layers - 1
    for k in range(last, -1, -1):
        z = cache.preacts[k]
        if k == last:
            if spec.output_activation == "sigmoid":
                p = sigmoid(z)
                inside = (p > SIGMOID_CLAMP) & (p < 1.0 - SIGMOID_CLAMP)
                dz = g * p * (1.0 - p) * inside
            else:
                dz = g
        else:
            dz = g * elu_grad(z)
        g_w[k] = dz.T @ cache.inputs[k]
        g_b[k] = dz.sum(axis=0)
        g = dz @ params.weights[k]
    return ParamSet(weights=g_w, biases=g_b), g


# =========================================================================
# Adam
# =========================================================================

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS_HAT = 1e-8


@dataclass
class AdamState:
    """First/second moment accumulators of a tensor list, each one flat
    vector holding the tensors' entries in list order."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0
    learning_rate: float = 1e-3


def adam_init(tensors: list[np.ndarray], learning_rate: float = 1e-3) -> AdamState:
    size = sum(np.size(t) for t in tensors)
    return AdamState(m=np.zeros(size), v=np.zeros(size), learning_rate=learning_rate)


def adam_update(
    tensors: list[np.ndarray],
    grads: list[np.ndarray],
    state: AdamState,
    maximize: bool = False,
) -> None:
    """One bias-corrected Adam step, applied to the tensors in place.

    The arithmetic is elementwise in the order
    lr * (m / c1) / (sqrt(v / c2) + eps_hat), done once over the flat
    gradient vector in two work vectors the call allocates.
    """
    if len(grads) != len(tensors) or any(np.shape(g) != np.shape(p)
                                         for p, g in zip(tensors, grads)):
        raise ValueError("tensor and gradient shapes do not match")
    g = np.concatenate([np.ravel(x) for x in grads], dtype=float)
    if g.size != state.m.size:
        raise ValueError("tensor sizes do not match the optimizer state")
    if not np.all(np.isfinite(g)):
        raise ValueError("non-finite gradient entries")
    state.step += 1
    t = state.step
    c1 = 1.0 - ADAM_BETA1 ** t
    c2 = 1.0 - ADAM_BETA2 ** t
    if maximize:
        np.negative(g, out=g)
    m, v = state.m, state.v
    m *= ADAM_BETA1
    work = np.multiply(g, 1.0 - ADAM_BETA1)
    m += work
    v *= ADAM_BETA2
    np.multiply(g, 1.0 - ADAM_BETA2, out=work)
    work *= g
    v += work
    # The gradient is spent; g now holds the step.
    np.divide(v, c2, out=work)
    np.sqrt(work, out=work)
    work += ADAM_EPS_HAT
    np.divide(m, c1, out=g)
    g *= state.learning_rate
    g /= work
    start = 0
    for p in tensors:
        p -= g[start:start + p.size].reshape(p.shape)
        start += p.size


# =========================================================================
# Finite-difference verification
# =========================================================================

def central_difference_error(
    tensors: list[np.ndarray],
    grads: list[np.ndarray],
    value: Callable[[], float],
    h: float,
    max_coords: int,
    seed: int = 0,
) -> float:
    """Compare analytic gradients against central finite differences.

    ``value()`` evaluates the objective at the current contents of
    ``tensors``, which are perturbed in place one coordinate at a time and
    restored. Every coordinate is checked (a random subsample of
    ``max_coords`` above that many); the result is
    max |analytic - numeric| / max(1, |analytic| + |numeric|).
    """
    if not (1e-7 < h < 1e-3):
        raise ValueError("invalid step")
    coords = [(ti, idx) for ti, t in enumerate(tensors) for idx in range(t.size)]
    if len(coords) > max_coords:
        rng = np.random.default_rng(seed)
        picked = rng.choice(len(coords), size=max_coords, replace=False)
        coords = [coords[int(i)] for i in picked]

    max_err = 0.0
    for ti, idx in coords:
        flat = tensors[ti].reshape(-1)
        orig = flat[idx]
        flat[idx] = orig + h
        f_plus = value()
        flat[idx] = orig - h
        f_minus = value()
        flat[idx] = orig
        numeric = (f_plus - f_minus) / (2.0 * h)
        analytic = float(grads[ti].reshape(-1)[idx])
        err = abs(analytic - numeric) / max(1.0, abs(analytic) + abs(numeric))
        max_err = max(max_err, err)
    return max_err


def grad_check(
    spec: NetSpec,
    params: ParamSet,
    loss: Callable[[ParamSet], tuple[float, ParamSet]],
    h: float,
    max_coords: int = 10_000,
    seed: int = 0,
) -> float:
    """Finite-difference check of a dense-net loss.

    ``loss(params)`` must return (value, gradient ParamSet); see
    ``central_difference_error`` for the error measure.
    """
    if len(params.weights) != spec.n_layers:
        raise ValueError("parameter count does not match spec")
    _, grads = loss(params)
    return central_difference_error(params.tensors(), grads.tensors(),
                                    lambda: loss(params)[0], h, max_coords, seed)


# =========================================================================
# Serialization helpers (JSON-ready dicts, row-major arrays)
# =========================================================================

def params_to_dict(params: ParamSet) -> dict:
    out: dict = {}
    for k, w in enumerate(params.weights):
        out[f"W{k}"] = w.tolist()
    for k, b in enumerate(params.biases):
        out[f"b{k}"] = b.tolist()
    return out


def params_from_dict(d: dict) -> ParamSet:
    """Inverse of ``params_to_dict``; other keys (the empty ``scalars`` map
    of older files) are ignored."""
    n_layers = sum(1 for k in d if k.startswith("W"))
    weights = [np.asarray(d[f"W{k}"], dtype=float) for k in range(n_layers)]
    biases = [np.asarray(d[f"b{k}"], dtype=float) for k in range(n_layers)]
    return ParamSet(weights=weights, biases=biases)
