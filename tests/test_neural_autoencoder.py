import base64
import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from atrellis import neural_autoencoder as na
from atrellis.errors import (BadArchitecture, DivergedLoss, EmptyData,
                             SchemaError, ShapeMismatch)
from atrellis.neural_autoencoder import (AEArchitecture, AEModel, fit_many,
                                         forward, grad_check, init_model,
                                         model_from_dict, model_to_dict,
                                         reconstruction_error)

ARCH = AEArchitecture(r=10)


def zero_model():
    return AEModel(ARCH, np.zeros_like(init_model(ARCH, 0).weights))


def params(model):
    """The model's weights by name: views into its row."""
    return na._flat_views(model.weights, model.arch)


def kernel_rows(model):
    """The (1, n + 1) kernel rows of a model: its weights, then 0."""
    return np.append(model.weights, 0.0)[None]


class TestInit:
    def test_same_seed_identical(self):
        a, b = init_model(ARCH, 7), init_model(ARCH, 7)
        assert np.array_equal(a.weights, b.weights)

    def test_different_seed_differs(self):
        a, b = init_model(ARCH, 7), init_model(ARCH, 8)
        assert not np.array_equal(a.weights, b.weights)

    def test_row_holds_each_weights_draws_in_order(self):
        """The row holds, in _PARAM_ORDER, the draws of one generator:
        one uniform array per weight, bounded by 1/sqrt(its fan-in)."""
        rng = np.random.default_rng(5)
        c, k, m, L = na.CHANNELS, na.KERNEL, na.BOTTLENECK, ARCH.conv_len
        fan_in = {"w1": 2 * k, "b1": 2 * k, "w2": c * L, "b2": c * L,
                  "w3": m, "b3": m, "w4": c * k, "b4": c * k}
        want = np.concatenate([
            rng.uniform(-1.0 / np.sqrt(fan_in[n]), 1.0 / np.sqrt(fan_in[n]),
                        size=shape).ravel()
            for n, shape in na._param_shapes(ARCH).items()])
        got = init_model(ARCH, 5).weights
        assert got.shape == (794,)
        assert np.array_equal(got, want)

    def test_kernel_too_large(self):
        with pytest.raises(BadArchitecture, match="r must be >= 3"):
            AEArchitecture(r=2)

    def test_r_above_the_bound_is_refused(self):
        """A stack of STACK keys keeps three buffers of O(r^2) entries a
        key; the bound keeps them near 108 MB."""
        assert AEArchitecture(r=na.MAX_R).r == 64
        assert na._dense_index(AEArchitecture(r=64)).size == 70_280
        with pytest.raises(BadArchitecture, match="r must be <= 64, got 65"):
            AEArchitecture(r=65)

    def test_input_is_two_channels_of_r(self):
        assert AEArchitecture(r=3).input_len == 6
        assert AEArchitecture(r=11).input_len == 22


class TestForward:
    def test_zero_weights_give_half(self):
        out = forward(zero_model(), np.linspace(0, 1, 20))
        assert np.allclose(out, 0.5)

    def test_deterministic(self):
        model = init_model(ARCH, 3)
        x = np.random.default_rng(0).uniform(0, 1, 20)
        assert np.array_equal(forward(model, x), forward(model, x))

    def test_output_in_unit_interval(self):
        model = init_model(ARCH, 3)
        x = np.random.default_rng(1).uniform(0, 1, 20)
        out = forward(model, x)
        assert np.all(out > 0.0) and np.all(out < 1.0)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            forward(init_model(ARCH, 0), np.zeros(19))

    @settings(max_examples=200, deadline=None)
    @given(y=st.lists(st.floats(-1000.0, 1000.0), min_size=1, max_size=64))
    def test_sigmoid_matches_scipy_expit(self, y):
        """numpy's exp may differ from libm's by 1 ulp, which moves the
        output by at most about one ulp of 1 (2.2e-16)."""
        y = np.array(y)
        want = expit(y)
        assert np.max(np.abs(na._sigmoid(y) - want)) <= 2.3e-16

    def test_sigmoid_saturates_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = na._sigmoid(np.array([-1000.0, -750.0, 750.0, 1000.0]))
        assert got.tolist() == [0.0, 0.0, 1.0, 1.0]


class TestReconstructionError:
    def test_zero_for_constant_half(self):
        assert reconstruction_error(zero_model(), np.full(20, 0.5)) == 0.0

    def test_quarter_for_ones(self):
        err = reconstruction_error(zero_model(), np.ones(20))
        assert err == pytest.approx(0.25)

    def test_non_negative(self):
        model = init_model(ARCH, 5)
        x = np.random.default_rng(2).uniform(0, 1, 20)
        assert reconstruction_error(model, x) >= 0.0


class TestFit:
    def test_memorizes_single_vector(self):
        model = init_model(ARCH, 1)
        data = [np.full(20, 0.7)] * 200
        trained, errors = fit_many([(model, 1)], [data], 50)[0]
        assert max(errors) < 1e-3

    def test_loss_drops_on_learnable_data(self):
        model = init_model(ARCH, 1)
        data = [np.full(20, 0.7)] * 200
        initial = float(np.mean([reconstruction_error(model, v)
                                 for v in data]))
        trained, errors = fit_many([(model, 1)], [data], 50)[0]
        assert float(np.mean(errors)) < 0.1 * initial

    def test_final_loss_never_exceeds_initial(self):
        model = init_model(ARCH, 2)
        rng = np.random.default_rng(0)
        data = [rng.uniform(0, 1, 20) for _ in range(50)]
        initial = float(np.mean([reconstruction_error(model, v)
                                 for v in data]))
        _, errors = fit_many([(model, 2)], [data], 10)[0]
        assert float(np.mean(errors)) <= initial + 1e-12

    def test_huge_learning_rate_diverges_or_aborts(self, monkeypatch):
        monkeypatch.setattr(na, "LEARNING_RATE", 1e6)
        model = init_model(ARCH, 1)
        data = [np.full(20, 0.7)] * 64
        initial = float(np.mean([reconstruction_error(model, v)
                                 for v in data]))
        try:
            _, errors = fit_many([(model, 1)], [data], 50)[0]
        except DivergedLoss:
            return
        # early abort keeps the best weights, never worse than the start
        assert float(np.mean(errors)) <= initial + 1e-12

    def test_empty_data(self):
        with pytest.raises(EmptyData):
            fit_many([(init_model(ARCH, 0), 0)], [[]], 50)

    def test_reproducible(self):
        rng = np.random.default_rng(4)
        data = [rng.uniform(0, 1, 20) for _ in range(60)]
        t1, e1 = fit_many([(init_model(ARCH, 9), 9)], [data], 8)[0]
        t2, e2 = fit_many([(init_model(ARCH, 9), 9)], [data], 8)[0]
        assert e1 == e2
        assert np.array_equal(t1.weights, t2.weights)

    def test_non_finite_gradient_names_weight(self):
        data = [np.full(20, 0.5)] * 40
        data[7] = np.full(20, np.nan)
        with pytest.raises(DivergedLoss, match="non-finite gradient in w1"):
            fit_many([(init_model(ARCH, 1), 1)], [data], 2)


class TestGradCheck:
    def test_random_models_match_finite_differences(self):
        worst = 0.0
        for seed in range(5):
            model = init_model(ARCH, seed)
            x = np.random.default_rng(1000 + seed).uniform(0, 1, 20)
            worst = max(worst, grad_check(model, x, eps=1e-5))
        assert worst <= 1e-4

    def test_zero_eps_rejected(self):
        with pytest.raises(ValueError):
            grad_check(init_model(ARCH, 0), np.zeros(20), eps=0.0)

    def test_tiny_architecture_high_precision(self):
        arch = AEArchitecture(r=3)
        model = init_model(arch, 0)
        x = np.random.default_rng(0).uniform(0.2, 0.8, 6)
        assert grad_check(model, x, eps=1e-5) <= 1e-5


def encode(row):
    """The weights string of a row: base64 of little-endian float64."""
    return base64.b64encode(np.asarray(row, "<f8").tobytes()).decode()


def with_value(row, i, value):
    row = row.copy()
    row[i] = value
    return row


class TestSerialization:
    def test_round_trip_exact(self):
        model = init_model(ARCH, 11)
        data = [np.random.default_rng(0).uniform(0, 1, 20) for _ in range(30)]
        trained, _ = fit_many([(model, 11)], [data], 5)[0]
        text = json.dumps(model_to_dict(trained))
        loaded = model_from_dict(json.loads(text), ARCH)
        assert np.array_equal(loaded.weights.view(np.uint64),
                              trained.weights.view(np.uint64))
        x = np.random.default_rng(1).uniform(0, 1, 20)
        assert np.array_equal(forward(loaded, x), forward(trained, x))

    def test_architecture_comes_from_the_reader(self):
        doc = model_to_dict(init_model(ARCH, 0))
        with pytest.raises(SchemaError, match="^model: weights hold 8472 "
                           "base64 characters; r = 12 needs 9920$"):
            model_from_dict(doc, AEArchitecture(r=12))

    @pytest.mark.parametrize("corrupt, message", [
        (lambda w: {}, "model: missing field weights"),
        (lambda w: encode(with_value(w, 400, np.nan)),
         "model: bad weights: non-finite value in weight w3"),
        (lambda w: encode(with_value(w, 0, np.nan)),
         "model: bad weights: non-finite value in weight w1"),
        (lambda w: encode(with_value(w, 793, -np.inf)),
         "model: bad weights: non-finite value in weight b4"),
        (lambda w: encode(with_value(w, 60, np.inf)),
         "model: bad weights: non-finite value in weight w2"),
        (lambda w: encode(w[:-1]),
         "model: weights hold 8460 base64 characters; r = 10 needs 8472"),
        (lambda w: "!" + encode(w)[1:],
         "model: bad weights: Only base64 data is allowed"),
        (lambda w: "\u00e9" + encode(w)[1:],
         "model: bad weights: string argument should contain only ASCII"),
        (lambda w: encode(w)[:-2] + "AA",
         "model: bad weights: buffer size must be a multiple of element "
         "size"),
        (lambda w: w.tolist(),
         "model: field weights has the wrong type list"),
        (lambda w: True, "model: field weights has the wrong type bool"),
    ], ids=["no-weights", "nan-w3", "nan-first", "minus-inf-last", "inf-w2",
            "one-value-short", "not-base64", "not-ascii", "no-padding",
            "json-list", "json-true"])
    def test_corrupt_weights_rejected(self, corrupt, message):
        row = init_model(ARCH, 0).weights
        value = corrupt(row)    # the weights value, or the whole document
        doc = value if isinstance(value, dict) else {"weights": value}
        with pytest.raises(SchemaError) as info:
            model_from_dict(doc, ARCH)
        assert str(info.value).startswith(message)
        assert "\n" not in str(info.value)

    def test_model_needs_a_finite_row_of_the_architectures_length(self):
        row = init_model(ARCH, 0).weights
        with pytest.raises(ShapeMismatch, match=r"^weights have shape "
                           r"\(793,\), architecture needs \(794,\)$"):
            AEModel(ARCH, row[:-1])
        with pytest.raises(SchemaError, match="^non-finite value in weight "
                           "b1$"):
            AEModel(ARCH, with_value(row, 48, np.nan))


# --- kernel oracles -------------------------------------------------------

def reference_forward(model, X):
    """The einsum / np.pad / np.add.at forward pass that the im2col kernel
    replaced, kept as an independent oracle."""
    a, p = model.arch, params(model)
    B, r, L = X.shape[0], a.r, a.conv_len
    idx = na.STRIDE * np.arange(L)[:, None] + np.arange(na.KERNEL)[None, :]
    xp = np.pad(X.reshape(B, 2, r), ((0, 0), (0, 0), (1, 1)))
    h1 = np.einsum("bclk,ock->bol", xp[:, :, idx], p["w1"])
    h1 = np.maximum(h1 + p["b1"][None, :, None], 0.0)
    z = np.maximum(h1.reshape(B, -1) @ p["w2"].T + p["b2"], 0.0)
    g = np.maximum(z @ p["w3"].T + p["b3"], 0.0)
    y_padded = np.zeros((B, 2, r + 2))
    np.add.at(y_padded, (slice(None), slice(None), idx),
              np.einsum("bol,ock->bclk", g.reshape(B, na.CHANNELS, L),
                        p["w4"]))
    y = expit(y_padded[:, :, 1:-1] + p["b4"][None, :, None])
    return y.reshape(B, a.input_len)


class Im2col:
    """The im2col kernel that the dense kernel replaced, kept as a second
    oracle, for the gradients too.  A batch is copied into a zero buffer
    (B, 2, r + 2) and gathered into a (B * L, 2K) window matrix; the
    transposed conv adds the windows back with K strided slice adds."""

    @staticmethod
    def window_index(arch):
        k, s, L, rp = na.KERNEL, na.STRIDE, arch.conv_len, arch.r + 2
        return (np.arange(2)[None, :, None] * rp
                + s * np.arange(L)[:, None, None]
                + np.arange(k)[None, None, :]).reshape(L, 2 * k)

    @classmethod
    def im2col(cls, arch, x):
        B = x.shape[0]
        xp = np.zeros((B, 2, arch.r + 2))
        xp[:, :, 1:-1] = x.reshape(B, 2, arch.r)
        return xp.reshape(B, -1)[:, cls.window_index(arch)].reshape(
            B * arch.conv_len, -1)

    @staticmethod
    def col2im(arch, cols):
        k, s, L = na.KERNEL, na.STRIDE, arch.conv_len
        B = cols.shape[0] // L
        windows = cols.reshape(B, L, 2, k)
        yp = np.zeros((B, 2, arch.r + 2))
        for j in range(k):
            yp[:, :, j:j + s * L:s] += windows[:, :, :, j].transpose(0, 2, 1)
        return yp[:, :, 1:-1]

    @staticmethod
    def channel_major(a, B, L):
        return a.reshape(B, L, -1).transpose(0, 2, 1).reshape(B, -1)

    @staticmethod
    def position_major(a, B, L):
        return a.reshape(B, -1, L).transpose(0, 2, 1).reshape(B * L, -1)

    @classmethod
    def forward(cls, arch, p, x):
        B, L, c = x.shape[0], arch.conv_len, na.CHANNELS
        cols = cls.im2col(arch, x)
        h1 = np.maximum(cols @ p["w1"].reshape(c, -1).T + p["b1"], 0.0)
        flat = cls.channel_major(h1, B, L)
        z = np.maximum(flat @ p["w2"].T + p["b2"], 0.0)
        g = np.maximum(z @ p["w3"].T + p["b3"], 0.0)
        g_cols = cls.position_major(g, B, L)
        y = expit(cls.col2im(arch, g_cols @ p["w4"].reshape(c, -1))
                  + p["b4"][:, None])
        return y.reshape(B, arch.input_len), (cols, flat, z, g, g_cols, y)

    @classmethod
    def gradients(cls, arch, p, x):
        """The gradient of the mean squared reconstruction error of ``x``,
        laid out flat in _PARAM_ORDER."""
        out, (cols, flat, z, g, g_cols, y) = cls.forward(arch, p, x)
        B, L, c = x.shape[0], arch.conv_len, na.CHANNELS
        d_out = 2.0 * (out - x) / out.size
        grads = {}
        dy = d_out.reshape(B, 2, arch.r) * y * (1.0 - y)
        grads["b4"] = dy.sum(axis=(0, 2))
        dy_cols = cls.im2col(arch, dy)
        grads["w4"] = (g_cols.T @ dy_cols).reshape(c, 2, -1)
        dg = cls.channel_major(dy_cols @ p["w4"].reshape(c, -1).T, B, L) \
            * (g > 0)
        grads["w3"], grads["b3"] = dg.T @ z, dg.sum(axis=0)
        dz = (dg @ p["w3"]) * (z > 0)
        grads["w2"], grads["b2"] = dz.T @ flat, dz.sum(axis=0)
        dh1 = cls.position_major((dz @ p["w2"]) * (flat > 0), B, L)
        grads["b1"] = dh1.sum(axis=0)
        grads["w1"] = (dh1.T @ cols).reshape(c, 2, -1)
        return np.concatenate([grads[n].ravel() for n in na._PARAM_ORDER])


def dense_gradients(model, x):
    """One training step's flat gradient through the dense kernel, on a
    stack of one."""
    return na._Stack(model.arch, kernel_rows(model), [0]).gradients(
        [x[None]])[0]


even_lengths = st.integers(3, 32).map(lambda half: 2 * half)
batch_sizes = st.integers(1, 64)
seeds = st.integers(0, 2 ** 32 - 1)


def model_and_batch(n, batch, seed):
    arch = AEArchitecture(r=n // 2)
    model = init_model(arch, seed)
    return arch, model, np.random.default_rng(seed).uniform(0, 1, (batch, n))


class TestKernel:
    @settings(max_examples=60, deadline=None)
    @given(n=even_lengths, batch=batch_sizes, seed=seeds)
    def test_forward_matches_both_oracles(self, n, batch, seed):
        arch, model, X = model_and_batch(n, batch, seed)
        got = na._forward(na._gather(arch, kernel_rows(model)), X[None])[0]
        assert np.max(np.abs(got - reference_forward(model, X))) <= 1e-12
        im2col, _ = Im2col.forward(arch, params(model), X)
        assert np.max(np.abs(got - im2col)) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(n=even_lengths, batch=batch_sizes, seed=seeds)
    def test_step_gradients_match_im2col(self, n, batch, seed):
        arch, model, X = model_and_batch(n, batch, seed)
        got = dense_gradients(model, X)
        want = Im2col.gradients(arch, params(model), X)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @settings(max_examples=60, deadline=None)
    @given(n=even_lengths, seed=seeds)
    def test_gather_and_fold_are_adjoint(self, n, seed):
        arch = AEArchitecture(r=n // 2)
        index = na._dense_index(arch)
        rng = np.random.default_rng(seed)
        p = np.append(rng.normal(size=index.max()), 0.0)
        d = rng.normal(size=index.size)
        lhs = np.dot(np.take(p, index), d)
        rhs = np.dot(p[:-1], na._fold(arch, d[None], index)[0])
        scale = np.dot(np.abs(np.take(p, index)), np.abs(d))
        assert abs(lhs - rhs) <= 1e-12 * scale

    @settings(max_examples=60, deadline=None)
    @given(n=even_lengths, batch=batch_sizes, seed=seeds)
    def test_transposed_conv_is_adjoint_of_conv(self, n, batch, seed):
        arch = AEArchitecture(r=n // 2)
        rng = np.random.default_rng(seed)
        w = rng.normal(size=(na.CHANNELS, 2, na.KERNEL))
        model = AEModel(arch, np.zeros(na._n_weights(arch)))
        params(model)["w1"][...] = params(model)["w4"][...] = w
        layers = na._gather(arch, kernel_rows(model))
        conv, conv_t = layers[0][0], layers[6][0]
        assert np.array_equal(conv_t, conv.T)
        # and each matches the im2col oracle's conv or transposed conv
        L, w_cols = arch.conv_len, w.reshape(na.CHANNELS, -1)
        x = rng.normal(size=(batch, n))
        want = Im2col.channel_major(Im2col.im2col(arch, x) @ w_cols.T,
                                    batch, L)
        assert np.max(np.abs(x @ conv - want)) <= 1e-12 * np.max(np.abs(want))
        g = rng.normal(size=(batch, na.CHANNELS * L))
        want = Im2col.col2im(
            arch, Im2col.position_major(g, batch, L) @ w_cols).reshape(
                batch, n)
        assert np.max(np.abs(g @ conv_t - want)) \
            <= 1e-12 * np.max(np.abs(want))

    @settings(max_examples=60, deadline=None)
    @given(n=even_lengths, batch=batch_sizes, seed=seeds)
    def test_batch_forward_equals_single_rows(self, n, batch, seed):
        arch, model, X = model_and_batch(n, batch, seed)
        rows = np.stack([forward(model, x) for x in X])
        batch = forward(model, X)
        assert batch.shape == X.shape
        assert np.max(np.abs(batch - rows)) <= 1e-12
        errors = reconstruction_error(model, X)
        assert errors.shape == (batch.shape[0],)
        assert np.max(np.abs(errors - [reconstruction_error(model, x)
                                       for x in X])) <= 1e-12

    def test_empty_batch(self):
        model = init_model(ARCH, 0)
        empty = np.zeros((0, ARCH.input_len))
        assert forward(model, empty).shape == (0, ARCH.input_len)
        assert reconstruction_error(model, empty).shape == (0,)

    def test_forward_reads_the_current_weights(self):
        model = init_model(ARCH, 0)
        x = np.random.default_rng(0).uniform(0, 1, ARCH.input_len)
        before, w4 = forward(model, x), params(model)["w4"].copy()
        params(model)["w4"] += 0.5
        assert not np.allclose(forward(model, x), before)
        params(model)["w4"][...] = w4
        assert np.array_equal(forward(model, x), before)


# --- the lockstep oracle --------------------------------------------------

def seq_shapes(arch):
    """The eight dense layer arrays' shapes in the one-key kernel."""
    n, cl, m = arch.input_len, na.CHANNELS * arch.conv_len, na.BOTTLENECK
    return (n, cl), (cl,), (cl, m), (m,), (m, cl), (cl,), (cl, n), (n,)


def seq_layers(arch, flat):
    """The dense layer arrays of one flat weight buffer, as the one-key
    kernel took them."""
    return na._split(np.take(flat, na._dense_index(arch)), seq_shapes(arch))


def seq_forward(layers, x, want_cache=False):
    """The one-key forward pass: x (B, input_len)."""
    w1, b1, w2, b2, w3, b3, w4, b4 = layers
    h1 = x @ w1
    h1 += b1
    np.maximum(h1, 0.0, out=h1)
    z = h1 @ w2
    z += b2
    np.maximum(z, 0.0, out=z)
    g = z @ w3
    g += b3
    np.maximum(g, 0.0, out=g)
    y = g @ w4
    y += b4
    na._sigmoid(y)
    return (y, (x, h1, z, g, y)) if want_cache else y


def seq_backward(layers, cache, d_out, grads):
    """The one-key backward pass."""
    *acts, y = cache
    d = d_out * y
    d *= 1.0 - y
    for j in (3, 2, 1, 0):
        np.matmul(acts[j].T, d, out=grads[2 * j])
        d.sum(axis=0, out=grads[2 * j + 1])
        if j:
            d = d @ layers[2 * j].T
            d *= acts[j] > 0


def sequential_fit(model, seed, data, epochs):
    """The one-key training loop that fit_many replaced, with the one-key
    kernel: Adam on 32-row batches of the key's own shuffle, the best-loss
    weights kept, and a stop after PATIENCE epochs without a better loss.
    Returns the trained weights, the training errors under them and the
    epochs run."""
    arch = model.arch
    X = np.stack([np.asarray(v, dtype=float).ravel() for v in data])
    rng = np.random.default_rng(seed)
    flat = kernel_rows(model)[0]
    flat_params = flat[:-1]
    adam_m = np.zeros_like(flat_params)
    adam_v = np.zeros_like(flat_params)
    step_size = np.empty_like(flat_params)
    denom = np.empty_like(flat_params)
    index = na._dense_index(arch)
    dense = np.empty(index.size)
    dense_grad = np.empty_like(dense)
    layers = na._split(dense, seq_shapes(arch))
    grads = na._split(dense_grad, seq_shapes(arch))
    beta1, beta2, adam_eps = 0.9, 0.999, 1e-8
    step = 0

    def batch_errors(weights):
        return np.mean((seq_forward(seq_layers(arch, weights), X) - X) ** 2,
                       axis=1)

    best_loss = float(np.mean(batch_errors(flat)))
    best_flat = flat.copy()
    stale = 0
    run = 0
    for _ in range(epochs):
        run += 1
        order = rng.permutation(X.shape[0])
        for start in range(0, X.shape[0], na.BATCH_SIZE):
            batch = X[order[start:start + na.BATCH_SIZE]]
            np.take(flat, index, out=dense, mode="clip")
            out, cache = seq_forward(layers, batch, want_cache=True)
            d_out = 2.0 * (out - batch) / out.size
            seq_backward(layers, cache, d_out, grads)
            flat_grads = np.bincount(index, weights=dense_grad)[:-1]
            if not np.isfinite(flat_grads).all():
                raise DivergedLoss("non-finite gradient")
            step += 1
            adam_m *= beta1
            np.multiply(flat_grads, 1 - beta1, out=step_size)
            adam_m += step_size
            adam_v *= beta2
            np.multiply(flat_grads, 1 - beta2, out=denom)
            denom *= flat_grads
            adam_v += denom
            np.divide(adam_v, 1 - beta2 ** step, out=denom)
            np.sqrt(denom, out=denom)
            denom += adam_eps
            np.divide(adam_m, 1 - beta1 ** step, out=step_size)
            step_size *= na.LEARNING_RATE
            step_size /= denom
            flat_params -= step_size

        loss = float(np.mean(batch_errors(flat)))
        if not np.isfinite(loss):
            raise DivergedLoss(f"non-finite training loss {loss}")
        if loss < best_loss - 1e-15:
            best_loss = loss
            best_flat = flat.copy()
            stale = 0
        else:
            stale += 1
            if stale >= na.PATIENCE:
                break
    return best_flat[:-1], [float(e) for e in batch_errors(best_flat)], run


def keys_and_data(sizes, r, seed):
    arch = AEArchitecture(r)
    rng = np.random.default_rng(seed)
    starts = [(init_model(arch, int(s)), int(s))
              for s in rng.integers(0, 2 ** 32, size=len(sizes))]
    return starts, [rng.uniform(0, 1, (n, 2 * r)) for n in sizes]


def assert_equals_sequential(starts, datas, epochs):
    """fit_many's weights and errors equal the oracle's, bit for bit, per
    key; returns the epochs each key ran."""
    runs = []
    for (model, errors), (start, seed), data in zip(
            fit_many(starts, datas, epochs), starts, datas):
        weights, want, run = sequential_fit(start, seed, data, epochs)
        assert errors == want
        assert np.array_equal(model.weights, weights)
        runs.append(run)
    return runs


row_counts = st.one_of(st.sampled_from([1, 2, 31, 32, 33, 65]),
                       st.integers(1, 100))


class TestFitMany:
    @settings(max_examples=60, deadline=None)
    @given(sizes=st.lists(row_counts, min_size=1, max_size=6),
           epochs=st.integers(1, 6), r=st.sampled_from([3, 5, 9, 10]),
           seed=seeds)
    def test_equals_sequential_fits(self, sizes, epochs, r, seed):
        assert_equals_sequential(*keys_and_data(sizes, r, seed), epochs)

    @settings(max_examples=30, deadline=None)
    @given(sizes=st.lists(row_counts, min_size=2, max_size=6),
           epochs=st.integers(1, 12), patience=st.integers(1, 2),
           seed=seeds)
    def test_equals_sequential_fits_with_early_stops(self, sizes, epochs,
                                                     patience, seed):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(na, "PATIENCE", patience)
            mp.setattr(na, "LEARNING_RATE", 0.03)
            assert_equals_sequential(*keys_and_data(sizes, 10, seed), epochs)

    def test_keys_that_stop_early_leave_the_others_exact(self, monkeypatch):
        """A larger step makes losses stall: keys stop at epochs 2 to 24
        while one runs all 40."""
        monkeypatch.setattr(na, "PATIENCE", 1)
        monkeypatch.setattr(na, "LEARNING_RATE", 0.03)
        runs = assert_equals_sequential(
            *keys_and_data([90, 65, 33, 33, 7, 1], 10, 0), 40)
        assert runs == [24, 2, 9, 4, 40, 21]

    def test_stacks_hold_at_most_64_keys(self, monkeypatch):
        stacks = []
        original = na._fit_stack

        def counting(arch, flat, *args):
            stacks.append(len(flat))
            return original(arch, flat, *args)
        monkeypatch.setattr(na, "_fit_stack", counting)
        sizes = [1 + i % 3 for i in range(65)]
        assert_equals_sequential(*keys_and_data(sizes, 10, 0), 2)
        assert stacks == [64, 1]

    def test_one_step_per_batch_position(self, monkeypatch):
        """Keys of 119, 179, 239 and 143 rows take ceil(239 / 32) = 8
        stacked steps an epoch, where one key at a time takes 23; at each
        position, the keys with as many rows run as one batch."""
        shapes = []
        original = na._Stack.step

        def counting(stack, batches):
            shapes.append([b.shape[:2] for b in batches])
            return original(stack, batches)
        monkeypatch.setattr(na._Stack, "step", counting)
        starts, datas = keys_and_data([119, 179, 239, 143], 10, 1)
        fit_many(starts, datas, 1)
        assert len(shapes) == 8
        assert shapes[0] == [(4, 32)]
        assert shapes[3] == [(3, 32), (1, 23)]
        assert shapes[7] == [(1, 15)]

    def test_results_come_back_in_input_order(self):
        starts, datas = keys_and_data([3, 40, 1, 40], 10, 2)
        fitted = fit_many(starts, datas, 2)
        assert [len(errors) for _, errors in fitted] == [3, 40, 1, 40]

    def test_diverged_key_is_named(self):
        starts, datas = keys_and_data([40, 90, 10, 65], 10, 3)
        datas[2][4] = np.nan
        with pytest.raises(DivergedLoss, match="^activity key 2: non-finite "
                           "gradient in w1$"):
            fit_many(starts, datas, 3)

    def test_non_finite_loss_names_the_key(self):
        starts, datas = keys_and_data([40, 90, 10], 10, 4)
        datas[1] *= 1e200       # its squared errors overflow to inf
        with pytest.raises(DivergedLoss, match="^activity key 1: non-finite "
                           "training loss inf$"), np.errstate(over="ignore"):
            fit_many(starts, datas, 3)

    def test_huge_learning_rate_on_several_keys(self, monkeypatch):
        monkeypatch.setattr(na, "LEARNING_RATE", 1e6)
        starts, datas = keys_and_data([64, 20, 33], 10, 6)
        try:
            fitted = fit_many(starts, datas, 30)
        except DivergedLoss as exc:
            assert re.match(r"activity key \d: non-finite", str(exc))
            return
        for (model, _), data, (_, errors) in zip(starts, datas, fitted):
            initial = float(np.mean(reconstruction_error(model, data)))
            assert float(np.mean(errors)) <= initial + 1e-12

    def test_first_empty_key_is_named(self):
        starts, datas = keys_and_data([5, 0, 0], 10, 0)
        with pytest.raises(EmptyData, match="^activity key 1: "):
            fit_many(starts, datas, 1)

    def test_models_may_come_from_a_generator(self):
        starts, datas = keys_and_data([5, 40], 10, 0)
        fitted = fit_many(iter(starts), datas, 2)
        assert [e for _, e in fitted] == \
            [e for _, e in fit_many(starts, datas, 2)]

    def test_models_share_one_architecture(self):
        starts, datas = keys_and_data([5, 5], 10, 0)
        starts[1] = (init_model(AEArchitecture(5), 0), 0)
        with pytest.raises(BadArchitecture, match="^activity key 1: "):
            fit_many(starts, datas, 1)

    def test_one_model_per_training_set(self):
        starts, datas = keys_and_data([5, 5], 10, 0)
        with pytest.raises(ValueError, match="zip"):
            fit_many(starts, datas[:1], 1)
