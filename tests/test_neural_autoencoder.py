import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from atrellis import neural_autoencoder as na
from atrellis.errors import (BadArchitecture, DivergedLoss, EmptyData,
                             SchemaError, ShapeMismatch)
from atrellis.neural_autoencoder import (AEArchitecture, AEModel, fit,
                                         forward, grad_check, init_model,
                                         model_from_dict, model_to_dict,
                                         reconstruction_error)

ARCH = AEArchitecture(r=10)


def zero_model():
    model = init_model(ARCH, 0)
    return AEModel(ARCH, {k: np.zeros_like(v) for k, v in model.params.items()}, 0)


class TestInit:
    def test_same_seed_identical(self):
        a, b = init_model(ARCH, 7), init_model(ARCH, 7)
        for name in a.params:
            assert np.array_equal(a.params[name], b.params[name])

    def test_different_seed_differs(self):
        a, b = init_model(ARCH, 7), init_model(ARCH, 8)
        assert any(not np.array_equal(a.params[n], b.params[n])
                   for n in a.params)

    def test_kernel_too_large(self):
        with pytest.raises(BadArchitecture, match="r must be >= 3"):
            AEArchitecture(r=2)

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
        trained, errors = fit(model, data, 50)
        assert max(errors) < 1e-3

    def test_loss_drops_on_learnable_data(self):
        model = init_model(ARCH, 1)
        data = [np.full(20, 0.7)] * 200
        initial = float(np.mean([reconstruction_error(model, v)
                                 for v in data]))
        trained, errors = fit(model, data, 50)
        assert float(np.mean(errors)) < 0.1 * initial

    def test_final_loss_never_exceeds_initial(self):
        model = init_model(ARCH, 2)
        rng = np.random.default_rng(0)
        data = [rng.uniform(0, 1, 20) for _ in range(50)]
        initial = float(np.mean([reconstruction_error(model, v)
                                 for v in data]))
        _, errors = fit(model, data, 10)
        assert float(np.mean(errors)) <= initial + 1e-12

    def test_huge_learning_rate_diverges_or_aborts(self, monkeypatch):
        monkeypatch.setattr(na, "LEARNING_RATE", 1e6)
        model = init_model(ARCH, 1)
        data = [np.full(20, 0.7)] * 64
        initial = float(np.mean([reconstruction_error(model, v)
                                 for v in data]))
        try:
            _, errors = fit(model, data, 50)
        except DivergedLoss:
            return
        # early abort keeps the best weights, never worse than the start
        assert float(np.mean(errors)) <= initial + 1e-12

    def test_empty_data(self):
        with pytest.raises(EmptyData):
            fit(init_model(ARCH, 0), [], 50)

    def test_reproducible(self):
        rng = np.random.default_rng(4)
        data = [rng.uniform(0, 1, 20) for _ in range(60)]
        t1, e1 = fit(init_model(ARCH, 9), data, 8)
        t2, e2 = fit(init_model(ARCH, 9), data, 8)
        assert e1 == e2
        for name in t1.params:
            assert np.array_equal(t1.params[name], t2.params[name])

    def test_non_finite_gradient_names_weight(self):
        data = [np.full(20, 0.5)] * 40
        data[7] = np.full(20, np.nan)
        with pytest.raises(DivergedLoss, match="non-finite gradient in w1"):
            fit(init_model(ARCH, 1), data, 2)


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


class TestSerialization:
    def test_round_trip_exact(self):
        model = init_model(ARCH, 11)
        data = [np.random.default_rng(0).uniform(0, 1, 20) for _ in range(30)]
        trained, _ = fit(model, data, 5)
        text = json.dumps(model_to_dict(trained))
        loaded = model_from_dict(json.loads(text), ARCH)
        for name, w in trained.params.items():
            assert np.array_equal(loaded.params[name], w)
        x = np.random.default_rng(1).uniform(0, 1, 20)
        assert np.array_equal(forward(loaded, x), forward(trained, x))

    def test_holds_only_seed_and_weights(self):
        doc = model_to_dict(init_model(ARCH, 0))
        assert set(doc) == {"seed", "weights"}
        for name in ("seed", "weights"):
            with pytest.raises(SchemaError, match=f"missing field {name}"):
                model_from_dict({k: v for k, v in doc.items() if k != name},
                                ARCH)

    def test_architecture_comes_from_the_reader(self):
        doc = model_to_dict(init_model(ARCH, 0))
        with pytest.raises(ShapeMismatch, match="weight w2"):
            model_from_dict(doc, AEArchitecture(r=12))

    @pytest.mark.parametrize("corrupt, error, names", [
        (lambda w: w["w1"][0][0].__setitem__(0, float("nan")),
         SchemaError, "weight w1"),
        (lambda w: [row.pop() for row in w["w2"]], ShapeMismatch,
         "weight w2"),
        (lambda w: w["w3"][0].pop(), SchemaError, "weight w3"),
        (lambda w: w.pop("b4"), SchemaError, "missing: b4"),
        (lambda w: w.__setitem__("w9", [0.0]), SchemaError, "unknown: w9"),
    ])
    def test_corrupt_weights_rejected(self, corrupt, error, names):
        doc = model_to_dict(init_model(ARCH, 0))
        corrupt(doc["weights"])
        with pytest.raises(error, match=names):
            model_from_dict(doc, ARCH)


# --- kernel oracles -------------------------------------------------------

def reference_forward(model, X):
    """The einsum / np.pad / np.add.at forward pass that the im2col kernel
    replaced, kept as an independent oracle."""
    a, p = model.arch, model.params
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


def dense_gradients(arch, params, x):
    """One step's flat gradient through the dense kernel, as fit takes it."""
    flat = na._flatten(params)
    layers = na._gather(arch, flat)
    out, cache = na._forward(layers, x, want_cache=True)
    dense_grad = np.empty(na._dense_index(arch).size)
    na._backward(layers, cache, 2.0 * (out - x) / out.size,
                 na._split(dense_grad, na._dense_shapes(arch)))
    return na._fold(arch, dense_grad)


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
        got = na._forward(na._gather(arch, na._flatten(model.params)), X)
        assert np.max(np.abs(got - reference_forward(model, X))) <= 1e-12
        im2col, _ = Im2col.forward(arch, model.params, X)
        assert np.max(np.abs(got - im2col)) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(n=even_lengths, batch=batch_sizes, seed=seeds)
    def test_step_gradients_match_im2col(self, n, batch, seed):
        arch, model, X = model_and_batch(n, batch, seed)
        got = dense_gradients(arch, model.params, X)
        want = Im2col.gradients(arch, model.params, X)
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
        rhs = np.dot(p[:-1], na._fold(arch, d))
        scale = np.dot(np.abs(np.take(p, index)), np.abs(d))
        assert abs(lhs - rhs) <= 1e-12 * scale

    @settings(max_examples=60, deadline=None)
    @given(n=even_lengths, batch=batch_sizes, seed=seeds)
    def test_transposed_conv_is_adjoint_of_conv(self, n, batch, seed):
        arch = AEArchitecture(r=n // 2)
        rng = np.random.default_rng(seed)
        w = rng.normal(size=(na.CHANNELS, 2, na.KERNEL))
        params = {name: np.zeros(shape)
                  for name, shape in na._param_shapes(arch).items()}
        params["w1"], params["w4"] = w, w
        layers = na._gather(arch, na._flatten(params))
        conv, conv_t = layers[0], layers[6]
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
        before, w4 = forward(model, x), model.params["w4"].copy()
        model.params["w4"] += 0.5
        assert not np.allclose(forward(model, x), before)
        model.params["w4"][...] = w4
        assert np.array_equal(forward(model, x), before)
