import contextlib
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from mbrl import nn


def _mse_loss(spec, X, y):
    def loss(params):
        out, cache = nn.forward(params, spec, X)
        grads, _ = nn.backward(params, spec, cache, 2.0 * (out - y) / out.size)
        return float(np.mean((out - y) ** 2)), grads
    return loss


# ---------------------------------------------------------------- init

def test_init_shapes_and_zero_biases():
    spec = nn.NetSpec((2, 3, 1))
    params = nn.init_params(spec, seed=0)
    assert [w.shape for w in params.weights] == [(3, 2), (1, 3)]
    assert [b.shape for b in params.biases] == [(3,), (1,)]
    for b in params.biases:
        np.testing.assert_array_equal(b, 0.0)


def test_init_deterministic():
    spec = nn.NetSpec((4, 5, 2))
    a = nn.init_params(spec, seed=3)
    b = nn.init_params(spec, seed=3)
    for wa, wb in zip(a.weights, b.weights):
        np.testing.assert_array_equal(wa, wb)


def test_init_scale_follows_fanin_fanout():
    spec = nn.NetSpec((100, 50))
    params = nn.init_params(spec, seed=1)
    bound = np.sqrt(6.0 / 150.0)
    assert np.abs(params.weights[0]).max() <= bound


def test_netspec_validation():
    with pytest.raises(ValueError):
        nn.NetSpec((3,))
    with pytest.raises(ValueError):
        nn.NetSpec((3, 0, 1))
    with pytest.raises(ValueError):
        nn.NetSpec((3, 1), output_activation="tanh")


@pytest.mark.parametrize("width", [6.7, True, "6", None])
def test_netspec_rejects_a_width_that_is_not_an_integer(width):
    # int() would read each as a width (6, 1, 6); a checkpoint spec edited
    # from 6 to 6.7 must not load as 6.
    with pytest.raises(ValueError, match=rf"layer widths must be integers, "
                                         rf"not {re.escape(repr(width))}$"):
        nn.NetSpec((3, width, 1))
    assert nn.NetSpec((np.int64(3), 6, 1)).layer_widths == (3, 6, 1)


# ---------------------------------------------------------------- forward

def test_forward_zero_params_identity_output():
    spec = nn.NetSpec((3, 4, 2))
    params = nn.init_params(spec, seed=0)
    for w in params.weights:
        w[:] = 0.0
    out, _ = nn.forward(params, spec, np.random.default_rng(0).normal(size=(5, 3)))
    np.testing.assert_array_equal(out, 0.0)


def _elu_grad_by_backward(z):
    # ELU′ as backward applies it, read through a one-hidden-layer net on
    # one zero row: the hidden biases are z (plus one padding unit, so an
    # empty z still makes a net), so the pre-activations are 0 + z, which
    # is z except that -0.0 becomes 0.0. The output weights are 1, so under
    # a unit output gradient the hidden biases' gradient is ELU′(z).
    z = np.asarray(z, dtype=float)
    width = z.size + 1
    spec = nn.NetSpec((1, width, 1))
    params = nn.ParamSet(weights=[np.zeros((width, 1)), np.ones((1, width))],
                         biases=[np.append(z.ravel(), 0.0), np.zeros(1)])
    _, cache = nn.forward(params, spec, np.zeros((1, 1)))
    grads, _ = nn.backward(params, spec, cache, np.ones((1, 1)), input_grad=False)
    return grads.biases[0][:-1].reshape(z.shape)


def test_elu_definition():
    np.testing.assert_allclose(nn.elu(np.array([2.0])), [2.0])
    np.testing.assert_allclose(nn.elu(np.array([-50.0])), [-1.0], atol=1e-12)
    np.testing.assert_allclose(nn.elu(np.array([0.0])), [0.0])
    grad = _elu_grad_by_backward(np.array([1.0, -1.0, 0.0]))
    assert grad[0] == 1.0
    assert grad[1] == pytest.approx(np.exp(-1.0))
    assert grad[2] == 1.0


def test_backward_elu_grad_is_exp_to_rounding():
    z = np.concatenate([np.linspace(-50.0, 50.0, 10_001), [0.0, -0.0]])
    got = _elu_grad_by_backward(z)
    assert np.max(np.abs(got - np.exp(np.minimum(z, 0.0)))) <= 2.0 ** -52
    assert np.all(got[z >= 0] == 1.0)
    # The trade of reading ELU′ from the stored expm1(z): exactly 0, not
    # exp(z), once expm1(z) rounds to -1.
    gone = np.expm1(z) == -1.0
    assert gone.any() and np.all(got[gone] == 0.0)
    assert np.all(z[gone] < -37.0) and np.all(got[(z < 0) & ~gone] > 0.0)


def _elu_masked(x):
    # Boolean-mask scatter form the np.where versions replaced; kept as the
    # bitwise reference.
    out = np.array(x, dtype=float)
    neg = x <= 0
    out[neg] = np.expm1(x[neg])
    return out


def _elu_where(x):
    # The np.where forms the branch-free versions replaced; kept as the
    # bitwise reference.
    return np.where(x < 0, np.expm1(np.minimum(x, 0.0)), x)


def _assert_elu_matches(elu_ref):
    # ELU and the ELU′ backward reads from its output, min(elu(z), 0) + 1.
    special = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 1e3, -1e3,
                        1e-320, -1e-320, 5e-324, -5e-324, 1e-300, -1e-300])
    rng = np.random.default_rng(0)
    for x in (special, 5.0 * rng.normal(size=(37, 23)), rng.normal(size=0)):
        with np.errstate(all="ignore"):
            want = (elu_ref(x), np.minimum(elu_ref(x), 0.0) + 1.0)
        # Only underflow is allowed; overflow, invalid and divide raise.
        with np.errstate(all="raise", under="ignore"), warnings.catch_warnings():
            warnings.simplefilter("error")
            got = (nn.elu(x), _elu_grad_by_backward(x))
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()   # also the sign of -0.0
    # elu(nan) is nan, and so is its ELU′ (the old exp form gave 1).
    assert np.isnan(_elu_grad_by_backward(np.array([np.nan]))[0])


def test_elu_matches_masked_reference_bitwise():
    _assert_elu_matches(_elu_masked)


def test_elu_matches_where_reference_bitwise():
    _assert_elu_matches(_elu_where)


@pytest.mark.parametrize("output_activation", ["identity", "sigmoid"])
def test_forward_hidden_outputs_are_elu_of_their_preactivations(output_activation):
    spec = nn.NetSpec((4, 6, 5, 2), output_activation=output_activation)
    params = nn.init_params(spec, seed=3)
    params.biases[0][:] = np.linspace(-1.0, 1.0, 6)
    X = np.random.default_rng(4).normal(size=(7, 4))
    _, cache = nn.forward(params, spec, X)
    # The cache keeps no pre-activations: recompute them from the inputs.
    zs = [h @ W.T + b for h, W, b in zip(cache.inputs, params.weights, params.biases)]
    for z, h in zip(zs[:-1], cache.inputs[1:]):
        assert h.tobytes() == nn.elu(z).tobytes()
        assert np.any(z < 0) and np.any(z > 0)
    out = zs[-1]
    if output_activation == "sigmoid":
        out = np.clip(nn.sigmoid(out), nn.SIGMOID_CLAMP, 1.0 - nn.SIGMOID_CLAMP)
    assert cache.output.tobytes() == out.tobytes()


@pytest.mark.parametrize("output_activation", ["identity", "sigmoid"])
def test_forward_without_cache_gives_the_cached_output_bytes(output_activation):
    spec = nn.NetSpec((4, 30, 20, 20, 3), output_activation=output_activation)
    params = nn.init_params(spec, seed=3)
    X = np.random.default_rng(4).normal(size=(50, 4))
    out, cache = nn.forward(params, spec, X)
    bare, none = nn.forward(params, spec, X, keep_cache=False)
    assert none is None and isinstance(cache, nn.ForwardCache)
    assert bare.shape == out.shape and bare.tobytes() == out.tobytes()


def test_forward_single_sigmoid_unit():
    spec = nn.NetSpec((1, 1), output_activation="sigmoid")
    params = nn.ParamSet(weights=[np.array([[1.0]])], biases=[np.array([0.0])])
    out, _ = nn.forward(params, spec, np.array([[0.0]]))
    assert out[0, 0] == pytest.approx(0.5)


def test_forward_sigmoid_clamped():
    spec = nn.NetSpec((1, 1), output_activation="sigmoid")
    params = nn.ParamSet(weights=[np.array([[1.0]])], biases=[np.array([0.0])])
    out, _ = nn.forward(params, spec, np.array([[-1e4], [1e4]]))
    assert out[0, 0] == nn.SIGMOID_CLAMP
    assert out[1, 0] == 1.0 - nn.SIGMOID_CLAMP


def test_forward_shape_mismatch():
    spec = nn.NetSpec((3, 2))
    params = nn.init_params(spec, seed=0)
    with pytest.raises(ValueError, match="input shape"):
        nn.forward(params, spec, np.zeros((4, 5)))


def test_forward_batch_equivariance():
    spec = nn.NetSpec((3, 6, 2), output_activation="sigmoid")
    params = nn.init_params(spec, seed=5)
    X = np.random.default_rng(1).normal(size=(7, 3))
    perm = np.random.default_rng(2).permutation(7)
    out, _ = nn.forward(params, spec, X)
    out_perm, _ = nn.forward(params, spec, X[perm])
    np.testing.assert_array_equal(out[perm], out_perm)


# ---------------------------------------------------------------- backward

def test_backward_linear_net_matches_hand_gradient():
    # y = W x, loss = sum(y): dL/dW = sum of inputs per output row
    spec = nn.NetSpec((3, 2))
    params = nn.ParamSet(
        weights=[np.random.default_rng(0).normal(size=(2, 3))],
        biases=[np.zeros(2)])
    X = np.random.default_rng(1).normal(size=(4, 3))
    _, cache = nn.forward(params, spec, X)
    grads, g_in = nn.backward(params, spec, cache, np.ones((4, 2)))
    np.testing.assert_allclose(grads.weights[0],
                               np.vstack([X.sum(axis=0)] * 2))
    np.testing.assert_allclose(grads.biases[0], [4.0, 4.0])
    np.testing.assert_allclose(g_in, np.ones((4, 2)) @ params.weights[0])


@pytest.mark.parametrize("output_activation", ["identity", "sigmoid"])
def test_backward_without_input_grad_keeps_parameter_gradients(output_activation):
    spec = nn.NetSpec((4, 6, 5, 2), output_activation=output_activation)
    params = nn.init_params(spec, seed=3)
    rng = np.random.default_rng(4)
    _, cache = nn.forward(params, spec, rng.normal(size=(7, 4)))
    out_grad = rng.normal(size=(7, 2))
    full, g_in = nn.backward(params, spec, cache, out_grad)
    skipped, none = nn.backward(params, spec, cache, out_grad, input_grad=False)
    assert g_in.shape == (7, 4) and none is None
    for a, b in zip(full.tensors(), skipped.tensors()):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("output_activation", ["identity", "sigmoid"])
@pytest.mark.parametrize("input_grad", [True, False])
@pytest.mark.parametrize("rows", [7, 0])
def test_backward_into_slots_matches_the_allocating_path(output_activation,
                                                         input_grad, rows):
    spec = nn.NetSpec((4, 6, 5, 2), output_activation=output_activation)
    params = nn.init_params(spec, seed=3)
    rng = np.random.default_rng(4)
    _, cache = nn.forward(params, spec, rng.normal(size=(rows, 4)))
    out_grad = rng.normal(size=(rows, 2))
    fresh, g_fresh = nn.backward(params, spec, cache, out_grad, input_grad)
    # Gradient slots as an optimizer holds them: views of one flat vector.
    flat = np.full(spec.n_params, np.nan)
    slots = nn.param_views(spec, flat)
    written, g_slots = nn.backward(params, spec, cache, out_grad, input_grad,
                                   out=slots)
    assert written is slots
    assert all(np.shares_memory(t, flat) for t in written.tensors())
    for a, b in zip(fresh.tensors(), written.tensors()):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    if input_grad:
        assert g_fresh.tobytes() == g_slots.tobytes()
    else:
        assert g_fresh is None and g_slots is None
    if rows == 0:   # a head whose arm has no rows: exact-zero gradients
        assert not np.any(flat)


def test_backward_sigmoid_output_matches_recompute_from_preactivations():
    # One sigmoid layer with identity weights, so the output pre-activations
    # are the inputs: |z| up to 40 (deep in the clamp), exact 0, and both
    # clamp edges with their neighbours.
    edge = float(np.log(nn.SIGMOID_CLAMP) - np.log1p(-nn.SIGMOID_CLAMP))
    edges = [np.nextafter(edge, -np.inf), edge, np.nextafter(edge, np.inf)]
    z = np.concatenate([np.linspace(-40.0, 40.0, 4001), [0.0],
                        edges, np.negative(edges)])
    X = np.stack([z, z[::-1]], axis=1)
    spec = nn.NetSpec((2, 2), output_activation="sigmoid")
    params = nn.ParamSet(weights=[np.eye(2)], biases=[np.zeros(2)])
    _, cache = nn.forward(params, spec, X)
    z = cache.inputs[0] @ params.weights[0].T + params.biases[0]
    assert z.tobytes() == X.tobytes()
    g = np.random.default_rng(8).normal(size=X.shape) * 1e3
    g[::7] = -0.0

    got, g_in = nn.backward(params, spec, cache, g)
    p = nn.sigmoid(X)
    inside = (p > nn.SIGMOID_CLAMP) & (p < 1.0 - nn.SIGMOID_CLAMP)
    dz = g * p * (1.0 - p) * inside
    want, want_in = nn.backward(params, nn.NetSpec((2, 2)), cache, dz)
    assert not inside.all() and inside.any()
    assert g_in.tobytes() == want_in.tobytes()
    for a, b in zip(got.tensors(), want.tensors()):
        assert a.tobytes() == b.tobytes()


def test_backward_rejects_mismatched_cache():
    spec = nn.NetSpec((3, 2))
    params = nn.init_params(spec, seed=0)
    _, cache = nn.forward(params, spec, np.zeros((4, 3)))
    with pytest.raises(ValueError, match="output_grad"):
        nn.backward(params, spec, cache, np.zeros((4, 3)))


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_grad_check_random_elu_net(seed):
    rng = np.random.default_rng(seed)
    spec = nn.NetSpec((4, 8, 6, 2))
    params = nn.init_params(spec, seed=seed)
    X = rng.normal(size=(6, 4))
    y = rng.normal(size=(6, 2))
    assert nn.grad_check(spec, params, _mse_loss(spec, X, y), h=1e-5) <= 1e-4


def test_grad_check_quadratic_is_exact():
    spec = nn.NetSpec((2, 2))
    params = nn.init_params(spec, seed=1)
    params.biases[0][:] = 0.7

    def loss(p):
        value = sum(float(np.sum(t * t)) for t in p.tensors())
        grads = nn.ParamSet(weights=[2 * w for w in p.weights],
                            biases=[2 * b for b in p.biases])
        return value, grads

    assert nn.grad_check(spec, params, loss, h=1e-4) <= 1e-8


def test_grad_check_rejects_bad_step():
    spec = nn.NetSpec((2, 1))
    params = nn.init_params(spec, seed=0)
    with pytest.raises(ValueError, match="invalid step"):
        nn.grad_check(spec, params, _mse_loss(spec, np.zeros((2, 2)),
                                              np.zeros((2, 1))), h=0.5)


# ---------------------------------------------------------------- adam

def _vector(*values):
    return np.array(values, dtype=float)


def test_adam_zero_gradient_is_identity():
    p = _vector(1.5)
    state = nn.adam_init(p, _vector(0.0))
    nn.adam_update(state)
    assert p[0] == 1.5
    assert state.step == 1


def test_adam_first_step_is_minus_lr():
    p = _vector(0.0)
    state = nn.adam_init(p, _vector(1.0), learning_rate=1e-3)
    nn.adam_update(state)
    assert p[0] == pytest.approx(-1e-3, rel=1e-6)


def test_adam_rejects_non_finite_gradients():
    for bad in (np.nan, np.inf, -np.inf):
        p = _vector(0.0, 0.0, 0.0)
        state = nn.adam_init(p, _vector(1.0, bad, -1.0))
        with pytest.raises(ValueError, match="non-finite gradient"):
            nn.adam_update(state)
        assert not np.any(p) and state.step == 0


def _adam_per_tensor(tensors, grads, m, v, t, lr=1e-3,
                     beta1=0.9, beta2=0.999, eps_hat=1e-8):
    # One moment pair per tensor, as the flat state replaced, and the bias
    # corrections folded into lr_t and eps_t; kept as the bitwise reference.
    c1 = 1.0 - beta1 ** t
    sqrt_c2 = math.sqrt(1.0 - beta2 ** t)
    lr_t = lr * sqrt_c2 / c1
    eps_t = eps_hat * sqrt_c2
    for p, g, mk, vk in zip(tensors, grads, m, v):
        g = np.asarray(g, dtype=float)
        mk *= beta1
        mk += (1.0 - beta1) * g
        vk *= beta2
        vk += (1.0 - beta2) * g * g
        p -= mk * lr_t / (np.sqrt(vk) + eps_t)


def _flat_group(tensors):
    # A parameter group as a net holds it: one vector, the tensors views
    # of it.
    flat = np.concatenate([t.ravel() for t in tensors])
    views, start = [], 0
    for t in tensors:
        views.append(flat[start:start + t.size].reshape(t.shape))
        start += t.size
    return flat, views


def _adam_case(seed):
    # Entries near the step size, so a last-bit change in a step is not
    # rounded away when it is subtracted.
    rng = np.random.default_rng(seed)
    tensors = [1e-3 * rng.normal(size=(8, 6)), 1e-3 * rng.normal(size=8),
               np.asarray(5e-4), 1e-3 * rng.normal(size=(2, 5)),
               np.asarray(-1e-3)]
    return rng, tensors


def test_adam_matches_per_tensor_reference_bitwise():
    rng, tensors = _adam_case(3)
    ref = [t.copy() for t in tensors]
    ref_m = [np.zeros_like(t) for t in ref]
    ref_v = [np.zeros_like(t) for t in ref]
    flat, views = _flat_group(tensors)
    grad = np.zeros_like(flat)
    state = nn.adam_init(flat, grad, learning_rate=1e-3)
    assert state.params is flat and state.grad is grad
    for t in range(1, 21):
        grads = [rng.normal(size=p.shape) * 10.0 ** rng.integers(-4, 3)
                 for p in tensors]
        grad[...] = np.concatenate([g.ravel() for g in grads])
        nn.adam_update(state)
        _adam_per_tensor(ref, grads, ref_m, ref_v, t)
    assert state.step == 20
    for a, b in zip(views, ref):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    assert state.m.tobytes() == np.concatenate([m.ravel() for m in ref_m]).tobytes()
    assert state.v.tobytes() == np.concatenate([v.ravel() for v in ref_v]).tobytes()


def test_adam_step_is_the_textbook_step_to_rounding():
    # Kingma & Ba's step lr * (m / c1) / (sqrt(v / c2) + eps_hat), from the
    # same moments; adam_update leaves its step in the gradient vector.
    rng = np.random.default_rng(9)
    n = 5000
    state = nn.adam_init(np.zeros(n), np.zeros(n), learning_rate=1e-3)
    worst = 0.0
    for t in range(1, 21):
        grad = rng.choice([-1.0, 1.0], size=n) * 10.0 ** rng.uniform(-4.0, 2.0, size=n)
        state.grad[...] = grad
        nn.adam_update(state)
        c1, c2 = 1.0 - 0.9 ** t, 1.0 - 0.999 ** t
        want = 1e-3 * (state.m / c1) / (np.sqrt(state.v / c2) + 1e-8)
        worst = max(worst, np.max(np.abs(state.grad - want) / np.abs(want)))
    assert worst <= 1e-14


def _blocked_case(seed):
    # A group of three full Adam blocks and a ragged tail, in three tensors.
    rng = np.random.default_rng(seed)
    n = 3 * nn.ADAM_BLOCK + 2334
    tensors = [1e-3 * rng.normal(size=(257, 300)), 1e-3 * rng.normal(size=20_000),
               1e-3 * rng.normal(size=n - 257 * 300 - 20_000)]
    return rng, tensors


def test_adam_blocks_match_per_tensor_reference_bitwise():
    rng, tensors = _blocked_case(5)
    ref = [t.copy() for t in tensors]
    ref_m = [np.zeros_like(t) for t in ref]
    ref_v = [np.zeros_like(t) for t in ref]
    flat, _ = _flat_group(tensors)
    grad = np.zeros_like(flat)
    state = nn.adam_init(flat, grad, learning_rate=1e-3)
    assert flat.size > 3 * nn.ADAM_BLOCK and flat.size % nn.ADAM_BLOCK
    assert state.work.size == nn.ADAM_BLOCK
    for t in range(1, 6):
        grads = [rng.normal(size=p.shape) * 10.0 ** rng.integers(-4, 3)
                 for p in tensors]
        grad[...] = np.concatenate([g.ravel() for g in grads])
        nn.adam_update(state)
        _adam_per_tensor(ref, grads, ref_m, ref_v, t)
    assert flat.tobytes() == np.concatenate([p.ravel() for p in ref]).tobytes()
    assert state.m.tobytes() == np.concatenate([m.ravel() for m in ref_m]).tobytes()
    assert state.v.tobytes() == np.concatenate([v.ravel() for v in ref_v]).tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_adam_non_finite_entry_in_the_last_block_moves_no_block(bad):
    rng, tensors = _blocked_case(6)
    params, _ = _flat_group(tensors)
    state = nn.adam_init(params, np.zeros_like(params))
    for _ in range(2):
        state.grad[...] = rng.normal(size=params.size)
        nn.adam_update(state)
    before = (params.copy(), state.m.copy(), state.v.copy())
    state.grad[...] = rng.normal(size=params.size)
    state.grad[-1] = bad
    with pytest.raises(ValueError, match="non-finite gradient"):
        nn.adam_update(state)
    assert state.step == 2
    for a, b in zip((params, state.m, state.v), before):
        assert a.tobytes() == b.tobytes()


def test_adam_work_vector_holds_one_block():
    for size in (10, nn.ADAM_BLOCK, 2 * nn.ADAM_BLOCK + 5):
        params = np.zeros(size)
        assert nn.adam_init(params, np.zeros(size)).work.size == min(nn.ADAM_BLOCK, size)


def test_adam_update_allocates_no_gradient_sized_buffer():
    # Neither the update nor the finiteness test that can stop it.
    rng = np.random.default_rng(7)
    for bad in (None, np.nan, np.inf):
        params = rng.normal(size=200 * 250 + 251)
        state = nn.adam_init(params, rng.normal(size=params.size))
        nn.adam_update(state)   # first call outside the trace
        state.grad[...] = rng.normal(size=params.size)
        if bad is not None:
            state.grad[-1] = bad
        tracemalloc.start()
        try:
            with contextlib.suppress(ValueError):
                nn.adam_update(state)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < state.m.nbytes / 100
        assert state.step == (2 if bad is None else 1)


def test_adam_non_finite_gradient_leaves_state_and_tensors():
    rng, tensors = _adam_case(4)
    params, _ = _flat_group(tensors)
    state = nn.adam_init(params, np.zeros_like(params))
    for _ in range(3):
        state.grad[...] = rng.normal(size=params.size)
        nn.adam_update(state)
    before = (params.copy(), state.m.copy(), state.v.copy())
    state.grad[...] = rng.normal(size=params.size)
    state.grad[50] = np.inf
    with pytest.raises(ValueError, match="non-finite gradient"):
        nn.adam_update(state)
    assert state.step == 3
    for a, b in zip((params, state.m, state.v), before):
        np.testing.assert_array_equal(a, b)


def test_param_views_share_the_flat_vector_in_tensors_order():
    spec = nn.NetSpec((4, 6, 5, 2))
    params = nn.init_params(spec, seed=3)
    flat = np.concatenate([t.ravel() for t in params.tensors()])
    assert flat.size == spec.n_params == 4 * 6 + 6 * 5 + 5 * 2 + 6 + 5 + 2
    views = nn.param_views(spec, flat)
    for a, b in zip(views.tensors(), params.tensors()):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
        assert np.shares_memory(a, flat)

