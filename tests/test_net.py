import json
import math
import re
from dataclasses import asdict, fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdcae import net, tdc
from tdcae.dataio import DatasetSplit, ScalerParams
from tdcae.diagnostics import RANK_THRESHOLD

from conftest import JSON_DRAWS, fd_grads, max_rel_err


def concat_pairs(pairs) -> np.ndarray:
    """Per-layer (W, b) pairs as one vector in theta's layout: W row-major, then b."""
    return np.concatenate([np.ravel(a) for pair in pairs for a in pair])


def theta_grads(params, vector) -> net.Gradients:
    """params' zero_gradients with vector written into its theta, for driving adamax_step."""
    grads = net.zero_gradients(params)
    grads.theta[:] = vector
    return grads


def micro_params(seed=0, specs=None):
    rng = np.random.default_rng(seed)
    if specs is None:
        specs = [net.LayerSpec(3, 4, "tanh"), net.LayerSpec(4, 2, "tanh"),
                 net.LayerSpec(2, 3, "identity")]
    return net.init_params(specs, rng)


MICRO_SPLIT = DatasetSplit(train_engines=frozenset({1}), test_engines=frozenset({2}))


# a 3-4-4-2-4-4-3 network: a checkpoint's layers are the ones its config describes
MICRO_CONFIG = tdc.TrainingConfig(input_dim=3, hidden_dim=4, latent_dim=2)


def save_micro_checkpoint(path, seed, config=MICRO_CONFIG):
    """A complete checkpoint of config's network, Glorot-initialised from seed:
    a [0, 1] scaler as wide as the input, MICRO_SPLIT and config itself."""
    width = config.input_dim
    params = net.init_params(tdc.network_specs(config), np.random.default_rng(seed))
    net.save_checkpoint(path, params, seed=0,
                        scaler=ScalerParams(minimum=np.zeros(width), maximum=np.ones(width)),
                        split=MICRO_SPLIT, training_config=asdict(config))


def rewrite_checkpoint(path, edit):
    """Apply edit to the JSON payload at path and write it back."""
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))


# --- specs and construction -----------------------------------------------------

def test_autoencoder_specs_default_shape():
    specs = net.autoencoder_specs()
    dims = [specs[0].in_dim] + [s.out_dim for s in specs]
    assert dims == [24, 24, 24, 8, 24, 24, 24]
    assert [s.activation for s in specs] == ["tanh"] * 5 + ["identity"]


def test_layer_spec_validation():
    with pytest.raises(ValueError):
        net.LayerSpec(0, 3)
    with pytest.raises(ValueError):
        net.LayerSpec(3, 3, "relu")


def test_network_params_shape_and_chain_checks():
    specs = [net.LayerSpec(3, 4), net.LayerSpec(5, 2)]
    weights = [np.zeros((4, 3)), np.zeros((2, 5))]
    biases = [np.zeros(4), np.zeros(2)]
    with pytest.raises(ValueError, match="incompatible"):
        net.NetworkParams(specs=specs, weights=weights, biases=biases)


def test_network_params_rejects_non_finite():
    specs = [net.LayerSpec(2, 2)]
    weights = [np.array([[1.0, np.nan], [0.0, 1.0]])]
    with pytest.raises(ValueError, match="non-finite"):
        net.NetworkParams(specs=specs, weights=weights, biases=[np.zeros(2)])


def test_theta_layout_is_weight_row_major_then_bias_per_layer():
    params = micro_params(seed=2)
    expected = np.concatenate([a.ravel() for w, b in zip(params.weights, params.biases)
                               for a in (w, b)])
    assert params.theta.shape == (sum(s.out_dim * (s.in_dim + 1) for s in params.specs),)
    assert np.array_equal(params.theta, expected)
    params.theta[:] = np.arange(params.theta.size)
    assert params.weights[0][1, 0] == 3.0 and params.biases[0][0] == 12.0
    assert params.weights[1][0, 0] == 16.0


def test_layers_are_views_into_theta():
    params = micro_params(seed=3)
    for w, b in zip(params.weights, params.biases):
        assert np.shares_memory(w, params.theta) and np.shares_memory(b, params.theta)
    params.weights[1][0, 1] += 1.0
    params.biases[2][:] = 5.0
    assert np.array_equal(params.theta, concat_pairs(zip(params.weights, params.biases)))


def test_construction_copies_its_inputs():
    weights, biases = [np.eye(2)], [np.zeros(2)]
    params = net.NetworkParams(specs=[net.LayerSpec(2, 2)], weights=weights, biases=biases)
    weights[0][0, 0] = 9.0
    biases[0][:] = 9.0
    assert np.array_equal(params.theta, [1.0, 0.0, 0.0, 1.0, 0.0, 0.0])


def test_replacing_a_layer_raises():
    params = micro_params()
    with pytest.raises(TypeError):
        params.weights[0] = np.zeros((4, 3))
    with pytest.raises(TypeError):
        params.biases[0] = np.zeros(4)


def test_copy_is_independent():
    params = micro_params(seed=4)
    original = params.theta.copy()
    dup = params.copy()
    assert np.array_equal(dup.theta, original) and dup.specs == params.specs
    assert not np.shares_memory(dup.theta, params.theta)
    dup.theta[:] = 1.0
    assert np.array_equal(params.theta, original)
    params.weights[0][0, 0] = 7.0
    assert np.all(dup.theta == 1.0)


def test_encoder_layer_count_finds_bottleneck():
    # 24-24-24-8-24-24-24 is six layers; the third one emits the latent
    params = micro_params(specs=net.autoencoder_specs())
    assert net.encoder_layer_count(params) == 3
    assert net.latent_dim(params) == 8


@pytest.mark.parametrize("dims, call, match", [
    ([4, 2, 4, 2], net.encoder_layer_count, "no unique bottleneck"),
    ([4, 2, 4, 2], net.latent_dim, "no unique bottleneck"),
    ([4, 2, 4, 2], lambda p: net.encode(p, np.zeros(4)), "no unique bottleneck"),
    ([4, 3, 4], lambda p: net._paired_latent_dim(p), "latent dimension 3 must be even"),
    ([4, 3, 4], lambda p: net.encode(p, np.zeros(4)), "latent dimension 3 must be even"),
], ids=["depth", "latent_dim", "encode", "paired", "encode_odd"])
def test_nets_without_an_even_bottleneck_build_and_fail_on_use(dims, call, match):
    specs = [net.LayerSpec(a, b) for a, b in zip(dims, dims[1:])]
    params = net.init_params(specs, np.random.default_rng(0))  # builds: micro-nets need it
    with pytest.raises(ValueError, match=match):
        call(params)


def test_bottleneck_of_a_micro_net_and_its_copy():
    params = micro_params(specs=net.autoencoder_specs(6, 5, 2, n_hidden=1))
    for p in (params, params.copy()):
        assert (net.encoder_layer_count(p), net.latent_dim(p)) == (2, 2)

def test_glorot_init_bounds_and_zero_biases():
    params = micro_params(seed=3)
    for spec, w, b in zip(params.specs, params.weights, params.biases):
        limit = math.sqrt(6.0 / (spec.in_dim + spec.out_dim))
        assert np.all(np.abs(w) <= limit)
        assert np.all(b == 0)


def test_init_deterministic():
    a = net.init_params(net.autoencoder_specs(), np.random.default_rng(7))
    b = net.init_params(net.autoencoder_specs(), np.random.default_rng(7))
    assert all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))


# --- forward ------------------------------------------------------------------------

def test_forward_zero_net_outputs_zero():
    specs = [net.LayerSpec(3, 4), net.LayerSpec(4, 2)]
    params = net.NetworkParams(specs=specs, weights=[np.zeros((4, 3)), np.zeros((2, 4))],
                               biases=[np.zeros(4), np.zeros(2)])
    out, _ = net.forward(params, np.array([1.0, -2.0, 0.5]))
    assert np.all(out == 0)


def test_forward_identity_layer_passes_through():
    specs = [net.LayerSpec(3, 3, "identity")]
    params = net.NetworkParams(specs=specs, weights=[np.eye(3)], biases=[np.zeros(3)])
    x = np.array([0.2, -1.5, 3.0])
    out, _ = net.forward(params, x)
    assert np.array_equal(out, x)


def test_forward_scalar_tanh_value():
    specs = [net.LayerSpec(1, 1, "tanh")]
    params = net.NetworkParams(specs=specs, weights=[np.array([[1.0]])],
                               biases=[np.zeros(1)])
    out, _ = net.forward(params, np.array([0.5]))
    assert out[0] == pytest.approx(0.46211715726000974, abs=1e-15)


def test_forward_batch_matches_single():
    params = micro_params(seed=1)
    x = np.random.default_rng(2).uniform(-1, 1, (6, 3))
    batch_out, _ = net.forward(params, x)
    for i in range(6):
        single, _ = net.forward(params, x[i])
        assert np.allclose(batch_out[i], single, atol=1e-15)


@pytest.mark.parametrize("rows", [1, 32, 96])
def test_forward_is_bitwise_the_allocating_layer_loop(rows):
    # in-place bias add and tanh against np.tanh(y @ W.T + b) per layer
    params = micro_params(seed=27, specs=net.autoencoder_specs())
    x = np.random.default_rng(28).uniform(-1, 1, (rows, 24))
    out, cache = net.forward(params, x)
    y = x
    for l, (w, b) in enumerate(zip(params.weights, params.biases)):
        pre = y @ w.T + b
        y = np.tanh(pre) if params.specs[l].activation == "tanh" else pre
        assert cache.activations[l + 1].tobytes() == y.tobytes()
    assert out.tobytes() == y.tobytes()

def test_forward_rejects_dimension_mismatch():
    with pytest.raises(ValueError, match="input dim"):
        net.forward(micro_params(), np.zeros(5))


def test_hidden_activations_stay_in_tanh_range():
    params = micro_params(seed=4, specs=net.autoencoder_specs())
    x = np.random.default_rng(5).uniform(-10, 10, (20, 24))
    _, cache = net.forward(params, x)
    for act in cache.activations[1:-1]:
        assert np.all(np.abs(act) < 1.0)


# --- backward -------------------------------------------------------------------------

def test_backward_zero_grad_gives_zero():
    params = micro_params()
    x = np.array([0.3, -0.2, 0.9])
    out, cache = net.forward(params, x)
    grads = net.backward(params, cache, np.zeros_like(out))
    assert grads.theta.shape == params.theta.shape and not grads.theta.any()


def test_backward_single_linear_layer_chain_rule():
    specs = [net.LayerSpec(1, 1, "identity")]
    params = net.NetworkParams(specs=specs, weights=[np.array([[3.0]])],
                               biases=[np.zeros(1)])
    out, cache = net.forward(params, np.array([2.0]))
    grads = net.backward(params, cache, np.array([1.0]))
    assert np.array_equal(grads.theta, [2.0, 1.0]) and grads.input_grad[0] == 3.0


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(10)
    worst = 0.0
    for seed in range(10):
        params = micro_params(seed=seed)
        x = rng.uniform(-1, 1, (4, 3))
        target = rng.uniform(-1, 1, (4, 3))

        def loss(p):
            out, _ = net.forward(p, x)
            return float(np.mean((out - target) ** 2))

        out, cache = net.forward(params, x)
        analytic = net.backward(params, cache, 2 * (out - target) / out.size)
        worst = max(worst, max_rel_err(analytic.theta, fd_grads(params, loss)))
    assert worst < 1e-5


def test_backward_split_at_bottleneck_matches_full_pass():
    params = micro_params(seed=6, specs=net.autoencoder_specs(4, 5, 2, n_hidden=1))
    n_enc = net.encoder_layer_count(params)
    x = np.random.default_rng(7).uniform(-1, 1, (3, 4))
    out, cache = net.forward(params, x)
    full = net.backward(params, cache, 2 * (out - x) / out.size)

    latent, enc_cache = net.forward(params, x, n_layers=n_enc)
    dec_out, dec_cache = net.forward(params, latent, start=n_enc)
    assert np.array_equal(dec_out, out)
    dec = net.backward(params, dec_cache, 2 * (dec_out - x) / out.size)
    enc = net.backward(params, enc_cache, dec.input_grad)
    split = sum(s.out_dim * (s.in_dim + 1) for s in params.specs[:n_enc])
    assert not enc.theta[split:].any() and not dec.theta[:split].any()
    assert np.array_equal(enc.theta + dec.theta, full.theta)
    assert np.array_equal(enc.input_grad, full.input_grad)


def pair_backward(params, cache, output_grad):
    """Oracle: backward as a loop returning one (dW, db) pair per covered layer."""
    output_grad = np.asarray(output_grad, dtype=np.float64)
    if cache.squeeze and output_grad.ndim == 1:
        output_grad = output_grad[None, :]
    pairs = []
    delta = output_grad
    for i in range(len(cache.activations) - 2, -1, -1):
        l = cache.start + i
        y = cache.activations[i + 1]
        pre_grad = delta * (1.0 - y * y) if params.specs[l].activation == "tanh" else delta
        pairs.append((pre_grad.T @ cache.activations[i], pre_grad.sum(axis=0)))
        delta = pre_grad @ params.weights[l]
    pairs.reverse()
    return pairs, (delta[0] if cache.squeeze else delta)


@pytest.mark.parametrize("part", ["full", "encoder", "decoder", "single_row",
                                  "stacked_encoder"])
def test_backward_is_bitwise_the_per_layer_pair_loop(part):
    params = micro_params(seed=23, specs=net.autoencoder_specs())
    n_enc = net.encoder_layer_count(params)
    rng = np.random.default_rng(24)
    rows = {"single_row": 24, "stacked_encoder": (96, 24)}.get(part, (32, 24))
    x = rng.uniform(-1, 1, rows)
    start, stop = {"full": (0, params.n_layers), "encoder": (0, n_enc),
                   "decoder": (n_enc, params.n_layers),
                   "single_row": (0, params.n_layers),
                   "stacked_encoder": (0, n_enc)}[part]
    if start > 0:
        x, _ = net.forward(params, x, n_layers=start)
    out, cache = net.forward(params, x, n_layers=stop, start=start)
    output_grad = rng.normal(size=out.shape)

    grads = net.backward(params, cache, output_grad)
    pairs, input_grad = pair_backward(params, cache, output_grad)
    expected = concat_pairs(pairs[l - start] if start <= l < stop
                            else (np.zeros_like(w), np.zeros_like(b))
                            for l, (w, b) in enumerate(zip(params.weights, params.biases)))
    assert np.array_equal(grads.theta, expected)
    for l in range(params.n_layers):
        dw, db = params.layer_views(grads.theta, l)
        assert (start <= l < stop) == bool(dw.any() and db.any())
    assert grads.input_grad.shape == x.shape and np.array_equal(grads.input_grad, input_grad)


def test_backward_into_a_kept_gradient_rewrites_only_its_layers():
    params = micro_params(seed=25, specs=net.autoencoder_specs())
    n_enc = net.encoder_layer_count(params)
    rng = np.random.default_rng(26)
    latent, enc_cache = net.forward(params, rng.uniform(-1, 1, (8, 24)), n_layers=n_enc)
    out, dec_cache = net.forward(params, latent, start=n_enc)
    output_grad = rng.normal(size=out.shape)
    kept = net.zero_gradients(params)
    kept.theta[:] = 7.0
    dec = net.backward(params, dec_cache, output_grad, kept)
    fresh = net.backward(params, dec_cache, output_grad)
    assert dec is kept and np.array_equal(dec.input_grad, fresh.input_grad)
    split = params._offsets[n_enc][0]
    assert np.all(kept.theta[:split] == 7.0)
    assert np.array_equal(kept.theta[split:], fresh.theta[split:])
    assert all(np.shares_memory(a, kept.theta) for layer in kept.layers for a in layer)

def test_backward_rejects_mismatched_cache():
    params = micro_params()
    _, cache = net.forward(params, np.zeros(3))
    with pytest.raises(ValueError, match="output_grad shape"):
        net.backward(params, cache, np.zeros(5))


# --- encoder jacobian -----------------------------------------------------------------

def test_jacobian_identity_layer():
    specs = [net.LayerSpec(3, 3, "identity")]
    params = net.NetworkParams(specs=specs, weights=[np.eye(3)], biases=[np.zeros(3)])
    x = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(net.encoder_jacobian_batch(params, x[None])[0], np.eye(3))


def test_jacobian_zero_network():
    specs = net.autoencoder_specs(4, 4, 2, n_hidden=0)
    params = net.NetworkParams(specs=specs,
                               weights=[np.zeros((s.out_dim, s.in_dim)) for s in specs],
                               biases=[np.zeros(s.out_dim) for s in specs])
    assert np.all(net.encoder_jacobian_batch(params, np.ones((1, 4)))[0] == 0)


def test_jacobian_matches_finite_differences():
    params = micro_params(seed=8, specs=net.autoencoder_specs(5, 6, 4, n_hidden=1))
    x = np.random.default_rng(9).uniform(-1, 1, 5)
    jac = net.encoder_jacobian_batch(params, x[None])[0]
    n_enc = net.encoder_layer_count(params)
    h = 1e-6
    for j in range(5):
        up, down = x.copy(), x.copy()
        up[j] += h
        down[j] -= h
        zu, _ = net.forward(params, up, n_layers=n_enc)
        zd, _ = net.forward(params, down, n_layers=n_enc)
        assert np.max(np.abs(jac[:, j] - (zu - zd) / (2 * h))) < 1e-6


def test_jacobian_batch_matches_single():
    params = micro_params(seed=12, specs=net.autoencoder_specs(4, 4, 2, n_hidden=1))
    x = np.random.default_rng(13).uniform(-1, 1, (5, 4))
    batch = net.encoder_jacobian_batch(params, x)
    for i in range(5):
        assert np.allclose(batch[i], net.encoder_jacobian_batch(params, x[i:i + 1])[0],
                           atol=1e-14)



def forward_mode_jacobian(params, x):
    """The einsum forward-mode Jacobian: k identity columns carried through every layer."""
    n_layers = net.encoder_layer_count(params)
    _, cache = net.forward(params, x, n_layers=n_layers)
    B, k = x.shape
    J = np.broadcast_to(np.eye(k), (B, k, k)).copy()
    for l in range(n_layers):
        J = np.einsum("oi,bij->boj", params.weights[l], J)
        if params.specs[l].activation == "tanh":
            y = cache.activations[l + 1]
            J = J * (1.0 - y * y)[:, :, None]
    return J


@pytest.mark.parametrize("specs, rows", [
    (net.autoencoder_specs(), 300),
    (net.autoencoder_specs(24, 24, 6, n_hidden=2), 64),
    (net.autoencoder_specs(5, 6, 4, n_hidden=0), 17),
    ([net.LayerSpec(5, 6, "identity"), net.LayerSpec(6, 3, "tanh"),
      net.LayerSpec(3, 5, "identity")], 9),
    ([net.LayerSpec(5, 6, "tanh"), net.LayerSpec(6, 3, "identity"),
      net.LayerSpec(3, 5, "identity")], 9),
    ([net.LayerSpec(4, 2, "identity"), net.LayerSpec(2, 4, "identity")], 1),
], ids=["paper", "latent6", "no_hidden", "identity_first", "identity_bottleneck", "linear"])
def test_reverse_mode_jacobian_is_the_forward_mode_oracle(specs, rows):
    params = net.init_params(specs, np.random.default_rng(rows))
    x = np.random.default_rng(rows + 1).uniform(-1.5, 1.5, (rows, specs[0].in_dim))
    jac, oracle = net.encoder_jacobian_batch(params, x), forward_mode_jacobian(params, x)
    assert jac.shape == oracle.shape and jac.dtype == np.float64
    assert np.max(np.abs(jac - oracle)) <= 1e-12
    ranks = [np.sum(np.linalg.svd(j, compute_uv=False) > RANK_THRESHOLD, axis=-1)
             for j in (jac, oracle)]
    assert np.array_equal(*ranks)

# --- adamax ----------------------------------------------------------------------------

def scalar_params(value=0.0):
    specs = [net.LayerSpec(1, 1, "identity")]
    return net.NetworkParams(specs=specs, weights=[np.array([[value]])],
                             biases=[np.zeros(1)])


def test_adamax_zero_gradient_leaves_params():
    params = scalar_params(0.7)
    state = net.init_adamax(params)
    net.adamax_step(params, theta_grads(params, [0.0, 0.0]), state)
    assert params.weights[0][0, 0] == 0.7


def test_adamax_first_step_is_exactly_lr():
    params = scalar_params(0.0)
    state = net.init_adamax(params, learning_rate=0.003)
    grads = theta_grads(params, [1.0, 0.0])
    net.adamax_step(params, grads, state)
    # m=0.1, u=1, correction 1-0.9 -> step = 0.003 * 0.1 / 0.1 / (1 + eps);
    # eps=1e-8 in the denominator shifts the step by 3e-11
    assert params.weights[0][0, 0] == pytest.approx(-0.003, abs=1e-10)
    assert state.m.shape == state.u.shape == params.theta.shape == (2,)
    assert state.m[0] == pytest.approx(0.1) and state.m[1] == 0.0
    assert state.u[0] == 1.0 and state.u[1] == 0.0


def test_adamax_constant_gradient_decreases_monotonically():
    params = scalar_params(0.0)
    state = net.init_adamax(params, learning_rate=0.01)
    grads = theta_grads(params, [1.0, 0.0])
    values = []
    for _ in range(1000):
        net.adamax_step(params, grads, state)
        values.append(params.weights[0][0, 0])
    assert all(b < a for a, b in zip(values, values[1:]))


def test_adamax_matches_reference_sequence():
    # independent scalar transcription of the update rule
    lr, b1, b2, eps = 0.003, 0.9, 0.999, 1e-8
    rng = np.random.default_rng(20)
    gs = rng.normal(size=12)
    theta = m = u = 0.0
    for t, g in enumerate(gs, start=1):
        m = b1 * m + (1 - b1) * g
        u = max(b2 * u, abs(g))
        theta -= lr / (1 - b1**t) * m / (u + eps)

    params = scalar_params(0.0)
    state = net.init_adamax(params, learning_rate=lr)
    for g in gs:
        net.adamax_step(params, theta_grads(params, [g, 0.0]), state)
    assert params.weights[0][0, 0] == pytest.approx(theta, rel=1e-15)


def test_adamax_rejects_non_finite_and_preserves_state():
    params = scalar_params(0.5)
    state = net.init_adamax(params)
    with pytest.raises(ValueError, match="non-finite"):
        net.adamax_step(params, theta_grads(params, [np.nan, 0.0]), state)
    assert params.weights[0][0, 0] == 0.5
    assert state.step_count == 0


def test_adamax_rejects_mis_sized_gradient_and_preserves_state():
    params = micro_params()
    state = net.init_adamax(params)
    before = params.theta.copy()
    with pytest.raises(ValueError, match="mis-sized"):
        net.adamax_step(params, theta_grads(micro_params(specs=[net.LayerSpec(3, 4)]),
                                            np.ones(4 * 3 + 4)), state)
    assert np.array_equal(params.theta, before) and not state.m.any() and state.step_count == 0


def loop_adamax(params, grad_steps, lr, b1=0.9, b2=0.999, eps=1e-8):
    """Oracle: the per-tensor Adamax loop on separate arrays, one (W, b) state pair per layer."""
    weights = [w.copy() for w in params.weights]
    biases = [b.copy() for b in params.biases]
    m = [(np.zeros_like(w), np.zeros_like(b)) for w, b in zip(weights, biases)]
    u = [(np.zeros_like(w), np.zeros_like(b)) for w, b in zip(weights, biases)]
    for t, grads in enumerate(grad_steps, start=1):
        scale = lr / (1.0 - b1**t)
        for i, (gw, gb) in enumerate(grads):
            mw, mb = m[i]
            uw, ub = u[i]
            mw *= b1
            mw += (1.0 - b1) * gw
            mb *= b1
            mb += (1.0 - b1) * gb
            np.maximum(b2 * uw, np.abs(gw), out=uw)
            np.maximum(b2 * ub, np.abs(gb), out=ub)
            weights[i] -= scale * mw / (uw + eps)
            biases[i] -= scale * mb / (ub + eps)
    return weights, biases, m, u


def test_flat_adamax_is_bitwise_the_per_tensor_loop():
    params = micro_params(seed=21, specs=net.autoencoder_specs())
    rng = np.random.default_rng(22)
    grad_steps = []
    for _ in range(50):
        # per-tensor scales over four decades, and some all-zero tensors
        grad_steps.append([tuple(rng.normal(size=a.shape) * 10.0 ** rng.uniform(-3, 1)
                                 * (rng.uniform() > 0.1) for a in (w, b))
                           for w, b in zip(params.weights, params.biases)])
    weights, biases, m, u = loop_adamax(params, grad_steps, lr=0.003)
    # the oracle's default b1, b2 and eps are the module's constants
    assert (net.ADAMAX_BETA1, net.ADAMAX_BETA2, net.ADAMAX_EPS) == (0.9, 0.999, 1e-8)

    state = net.init_adamax(params, learning_rate=0.003)
    for grads in grad_steps:
        net.adamax_step(params, theta_grads(params, concat_pairs(grads)), state)
    assert state.step_count == 50
    assert np.array_equal(params.theta, concat_pairs(zip(weights, biases)))
    assert np.array_equal(state.m, concat_pairs(m))
    assert np.array_equal(state.u, concat_pairs(u))


# --- encode / checkpoint ------------------------------------------------------------------

def test_encode_split_halves():
    params = micro_params(seed=14, specs=net.autoencoder_specs())
    x = np.random.default_rng(15).uniform(0, 1, 24)
    z, z_dot = net.encode(params, x)
    n_enc = net.encoder_layer_count(params)
    latent, _ = net.forward(params, x, n_layers=n_enc)
    assert np.array_equal(z, latent[:4])
    assert np.array_equal(z_dot, latent[4:])


def test_encode_rejects_odd_latent():
    params = micro_params(seed=16, specs=net.autoencoder_specs(4, 5, 3, n_hidden=0))
    with pytest.raises(ValueError, match="even"):
        net.encode(params, np.zeros(4))


def test_checkpoint_round_trip_is_exact(tmp_path):
    params = micro_params(seed=17, specs=net.autoencoder_specs())
    scaler = ScalerParams(minimum=np.random.default_rng(1).uniform(0, 1, 24),
                          maximum=np.random.default_rng(2).uniform(2, 3, 24))
    split = DatasetSplit(train_engines=frozenset({1, 2, 3}), test_engines=frozenset({4}))
    config = asdict(tdc.TrainingConfig(alpha=50.0, dt=0.5))
    path = tmp_path / "ckpt.json"
    net.save_checkpoint(path, params, seed=42, scaler=scaler, split=split,
                        training_config=config)
    loaded = net.load_checkpoint(path)
    assert set(loaded) == {"seed", "params", "scaler", "split", "training_config"}
    back = loaded["params"]
    assert all(np.array_equal(a, b) for a, b in zip(params.weights, back.weights))
    assert all(np.array_equal(a, b) for a, b in zip(params.biases, back.biases))
    assert back.specs == params.specs
    assert loaded["seed"] == 42
    assert np.array_equal(loaded["scaler"].minimum, scaler.minimum)
    assert np.array_equal(loaded["scaler"].maximum, scaler.maximum)
    assert loaded["split"] == split
    assert loaded["training_config"] == config


def test_checkpoint_rejects_foreign_payloads(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"format": "something-else"}))
    with pytest.raises(ValueError, match="not a"):
        net.load_checkpoint(path)
    path.write_text(json.dumps({"format": net.CHECKPOINT_FORMAT, "version": 99}))
    with pytest.raises(ValueError, match="version"):
        net.load_checkpoint(path)
    path.write_text('{"format": ')
    with pytest.raises(ValueError, match=re.escape(f"{path}: not JSON")):
        net.load_checkpoint(path)


@pytest.mark.parametrize("drop,match", [
    (None, "not a tdcae-checkpoint"), ("specs", "checkpoint lacks specs"),
    ("weights", "checkpoint lacks weights"), ("biases", "checkpoint lacks biases"),
    ("scaler", "checkpoint lacks scaler"), ("split", "checkpoint lacks split"),
    ("training_config", "checkpoint lacks training_config")],
    ids=["not_an_object", "no_specs", "no_weights", "no_biases", "no_scaler", "no_split",
         "no_training_config"])
def test_checkpoint_rejects_malformed_payload_by_name(drop, match, tmp_path):
    path = tmp_path / "ckpt.json"
    save_micro_checkpoint(path, seed=20)
    payload = json.loads(path.read_text())
    if drop is None:
        payload = list(payload)
    else:
        del payload[drop]
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=re.escape(f"{path}: {match}")):
        net.load_checkpoint(path)


@pytest.mark.parametrize("key", ["specs", "weights", "biases", "scaler", "split",
                                 "training_config"])
def test_checkpoint_rejects_null_field(key, tmp_path):
    path = tmp_path / "ckpt.json"
    save_micro_checkpoint(path, seed=20)
    rewrite_checkpoint(path, lambda p: p.update({key: None}))
    with pytest.raises(ValueError, match=re.escape(f"{path}: checkpoint lacks {key}") + "$"):
        net.load_checkpoint(path)


MICRO_SPECS = [[3, 4, "tanh"], [4, 4, "tanh"], [4, 2, "tanh"], [2, 4, "tanh"], [4, 4, "tanh"],
               [4, 3, "identity"]]


@pytest.mark.parametrize("specs", [
    [[3, 4], *MICRO_SPECS[1:]],
    [[3, 4, "tanh", 1], *MICRO_SPECS[1:]],
    [MICRO_SPECS[0], ["4", 4, "tanh"], *MICRO_SPECS[2:]],
    [MICRO_SPECS[0], [4, 4, True], *MICRO_SPECS[2:]],
    [MICRO_SPECS[0], [4, 4, "relu"], *MICRO_SPECS[2:]],
    [MICRO_SPECS[0], [4, 0, "tanh"], *MICRO_SPECS[2:]],
    7,
    {"0": [3, 4, "tanh"]},
    [[3.0, 4, "tanh"], *MICRO_SPECS[1:]],
    MICRO_SPECS[:-1],
], ids=["pair", "quadruple", "string_dim", "bool_activation", "unknown_activation",
        "zero_dim", "int", "object", "float_dim", "missing_layer"])
def test_checkpoint_rejects_malformed_specs_by_entry(specs, tmp_path):
    # the stored list is checked against the config's layers, never parsed by entry
    path = tmp_path / "ckpt.json"
    save_micro_checkpoint(path, seed=21)
    assert json.loads(path.read_text())["specs"] == MICRO_SPECS
    rewrite_checkpoint(path, lambda p: p.update(specs=specs))
    with pytest.raises(ValueError, match=re.escape(
            f"{path}: specs: stored {json.dumps(specs)} are not {json.dumps(MICRO_SPECS)}, "
            "the layers training_config describes") + "$"):
        net.load_checkpoint(path)


def test_checkpoint_with_saved_val_fraction_still_loads(tmp_path):
    # checkpoints once stored the split's row fraction, which nothing read
    path = tmp_path / "ckpt.json"
    save_micro_checkpoint(path, seed=22)
    payload = json.loads(path.read_text())
    assert "val_fraction" not in payload["split"]
    payload["split"]["val_fraction"] = 0.1
    path.write_text(json.dumps(payload))
    assert net.load_checkpoint(path)["split"] == MICRO_SPLIT


@pytest.mark.parametrize("key,value,match", [
    ("split", {"train": [1]}, "split: expected integer lists"),
    ("split", {"train_engines": [1], "test_engines": 3}, "split: expected integer lists"),
    ("split", {"train_engines": [1], "test_engines": ["2"]}, "split: expected integer lists"),
    ("split", [[1], [2]], "split: expected integer lists"),
    ("split", {"train_engines": [1, 2], "test_engines": [2]}, "split: train and test engine"),
    ("scaler", {"lo": [0]}, "scaler: expected"),
    ("scaler", {"min": 0, "max": [1]}, "scaler: expected"),
    ("scaler", {"min": ["a", 0, 0], "max": [1, 1, 1]}, "scaler: expected numbers, got 'a'"),
    ("scaler", {"min": [0, 2, 0], "max": [1, 1, 1]}, "scaler: max < min"),
    ("scaler", {"min": [float("nan"), 0, 0], "max": [1, 1, 1]},
     "scaler: min/max must be finite"),
    ("scaler", {"min": [0, 0, 0], "max": [1, 1, float("inf")]},
     "scaler: min/max must be finite"),
], ids=["split_keys", "split_int", "split_string_id", "split_list", "split_overlap",
        "scaler_keys", "scaler_int", "scaler_string", "scaler_order", "scaler_nan",
        "scaler_inf"])
def test_checkpoint_rejects_malformed_split_or_scaler(key, value, match, tmp_path):
    path = tmp_path / "ckpt.json"
    save_micro_checkpoint(path, seed=22)
    rewrite_checkpoint(path, lambda p: p.update({key: value}))
    with pytest.raises(ValueError, match=re.escape(f"{path}: {match}")):
        net.load_checkpoint(path)


@pytest.mark.parametrize("edit,field,match", [
    (lambda p: p.update(training_config=3), "training_config", "expected an object, got 3"),
    (lambda p: p.update(training_config=[1]), "training_config", "expected an object, got [1]"),
    (lambda p: p["training_config"].pop("dt"), "training_config", "lacks dt"),
    (lambda p: p.update(training_config={"dt": "x"}), "training_config",
     "lacks epochs, batch_size"),
    (lambda p: p["training_config"].update(dt="x"), "training_config",
     "dt: expected float, got 'x'"),
    (lambda p: p["training_config"].update(dt=-1), "training_config",
     "learning_rate and dt must be positive"),
    (lambda p: p["training_config"].update(dt=float("nan")), "training_config",
     "dt must be finite"),
    (lambda p: p["training_config"].update(momentum=0.9), "training_config",
     "unexpected keyword argument"),
    # a valid config of another network: the stored layers are not its layers
    (lambda p: p["training_config"].update(input_dim=24), "specs",
     "are not [[24, 4, \"tanh\"], "),
    (lambda p: p["training_config"].update(latent_dim=4), "training_config",
     "latent_dim 4 is not narrower than hidden_dim 4, so the latent layer of a 3-4-4-4-4-4-3 "
     "network is not its unique bottleneck"),
], ids=["int", "list", "no_dt", "only_dt", "string_dt", "negative_dt", "nan_dt", "unknown_key",
        "other_input_dim", "other_latent_dim"])
def test_checkpoint_rejects_malformed_training_config(edit, field, match, tmp_path):
    path = tmp_path / "ckpt.json"
    save_micro_checkpoint(path, seed=23)
    rewrite_checkpoint(path, edit)
    with pytest.raises(ValueError, match=re.escape(f"{path}: {field}: ") + ".*"
                       + re.escape(match)):
        net.load_checkpoint(path)


@pytest.mark.parametrize("edit,match", [
    (lambda p: p.update(weights=3), "weights: expected a list of 6 arrays, got 3"),
    (lambda p: p["weights"].pop(), "weights: expected a list of 6 arrays, got 5"),
    (lambda p: p["weights"][1].__setitem__(0, [0.5]), "weights[1]: "),
    (lambda p: p["weights"][2].pop(), "weights[2]: expected finite numbers of shape (2, 4)"),
    (lambda p: p["biases"][5].pop(), "biases[5]: expected finite numbers of shape (3,)"),
], ids=["weights_int", "weights_short", "ragged_row", "missing_row", "short_bias"])
def test_checkpoint_rejects_malformed_weights_or_biases(edit, match, tmp_path):
    path = tmp_path / "ckpt.json"
    save_micro_checkpoint(path, seed=24)
    rewrite_checkpoint(path, edit)
    with pytest.raises(ValueError, match=re.escape(f"{path}: {match}")):
        net.load_checkpoint(path)


def test_checkpoint_rejects_dimension_incompatible_layers(tmp_path):
    # layer 1's arrays match its stored spec, but it does not read layer 0's output
    path = tmp_path / "ckpt.json"
    save_micro_checkpoint(path, seed=25)

    def edit(payload):
        payload["specs"][1] = [5, 4, "tanh"]
        payload["weights"][1] = [[0.0] * 5] * 4

    rewrite_checkpoint(path, edit)
    with pytest.raises(ValueError, match=re.escape(f"{path}: specs: stored [[3, 4, \"tanh\"], "
                                                   f"[5, 4, \"tanh\"], ")):
        net.load_checkpoint(path)


@pytest.mark.parametrize("edit,match", [
    (lambda p: p["training_config"].update(hidden_dim=30),
     'specs: stored [[24, 24, "tanh"], [24, 24, "tanh"], [24, 8, "tanh"], [8, 24, "tanh"], '
     '[24, 24, "tanh"], [24, 24, "identity"]] are not [[24, 30, "tanh"], [30, 30, "tanh"], '
     '[30, 8, "tanh"], [8, 30, "tanh"], [30, 30, "tanh"], [30, 24, "identity"]], the layers '
     'training_config describes'),
    (lambda p: p["training_config"].update(hidden_dim=7),
     "training_config: latent_dim 8 is not narrower than hidden_dim 7, so the latent layer of "
     "a 24-7-7-8-7-7-24 network is not its unique bottleneck"),
    (lambda p: p["specs"][-1].__setitem__(2, "tanh"), 'specs: stored [[24, 24, "tanh"], '),
], ids=["wider_hidden", "no_bottleneck", "tanh_output"])
def test_checkpoint_whose_config_disagrees_with_its_layers_fails(edit, match, tmp_path):
    path = tmp_path / "ckpt.json"
    save_micro_checkpoint(path, seed=27, config=tdc.TrainingConfig())
    rewrite_checkpoint(path, edit)
    with pytest.raises(ValueError, match=re.escape(f"{path}: {match}")):
        net.load_checkpoint(path)


@pytest.mark.parametrize("bad", [None, "abc"], ids=["null", "string"])
def test_checkpoint_rejects_non_numeric_weight(bad, tmp_path):
    path = tmp_path / "ckpt.json"
    save_micro_checkpoint(path, seed=19)
    rewrite_checkpoint(path, lambda p: p["weights"][1][0].__setitem__(0, bad))
    with pytest.raises(ValueError, match=re.escape(f"{path}: weights[1]: ")):
        net.load_checkpoint(path)


# where a saved micro checkpoint holds one value: the keys and indices down to it
CHECKPOINT_VALUES = [("weights", 1, 0, 2), ("biases", 2, 1), ("scaler", "min", 0),
                     ("scaler", "max", 2), ("split", "train_engines", 0),
                     ("split", "test_engines", 0), ("specs", 0, 0), ("specs", 1, 1),
                     ("specs", 2, 2),
                     *(("training_config", f.name) for f in fields(tdc.TrainingConfig))]


@settings(max_examples=300, deadline=None)
@given(at=st.sampled_from(CHECKPOINT_VALUES), value=st.sampled_from(JSON_DRAWS))
def test_checkpoint_with_any_json_value_loads_or_fails_naming_the_file(tmp_path_factory, at,
                                                                         value):
    path = tmp_path_factory.mktemp("ckpt") / "ckpt.json"
    save_micro_checkpoint(path, seed=26)

    def edit(payload):
        *parents, last = at
        for key in parents:
            payload = payload[key]
        payload[last] = value
    rewrite_checkpoint(path, edit)
    try:
        loaded = net.load_checkpoint(path)
    except ValueError as exc:
        assert str(exc).startswith(f"{path}: ")
    else:
        # only a number loads, and only an engine id may lie beyond float64's range
        assert type(value) in (int, float) or at == ("training_config", "stop_gradient")
        assert value != 10 ** 400 or at[0] == "split"
        assert np.isfinite(loaded["params"].theta).all()
        assert loaded["params"].specs == tdc.network_specs(
            tdc.TrainingConfig(**loaded["training_config"]))


def test_checkpoint_rejects_scaler_width_mismatch(tmp_path):
    path = tmp_path / "ckpt.json"
    save_micro_checkpoint(path, seed=18, config=tdc.TrainingConfig())
    payload = json.loads(path.read_text())
    payload["scaler"]["min"] = payload["scaler"]["min"][:23]
    payload["scaler"]["max"] = payload["scaler"]["max"][:23]
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="ckpt.json: scaler width 23"):
        net.load_checkpoint(path)
