import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from atrellis import neural_autoencoder as na
from atrellis.errors import (BadArchitecture, DivergedLoss, EmptyData,
                             SchemaError, ShapeMismatch)
from atrellis.neural_autoencoder import (AEArchitecture, AEModel,
                                         TrainConfig, fit, forward,
                                         grad_check, init_model,
                                         load_model, model_from_dict,
                                         model_to_dict,
                                         reconstruction_error, save_model)

ARCH = AEArchitecture(input_len=20)


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
        with pytest.raises(BadArchitecture):
            AEArchitecture(input_len=4, kernel=3)  # r=2 < kernel

    def test_odd_input_rejected(self):
        with pytest.raises(BadArchitecture):
            AEArchitecture(input_len=21)


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
        trained, errors = fit(model, data, TrainConfig())
        assert max(errors) < 1e-3

    def test_loss_drops_on_learnable_data(self):
        model = init_model(ARCH, 1)
        data = [np.full(20, 0.7)] * 200
        initial = float(np.mean([reconstruction_error(model, v)
                                 for v in data]))
        trained, errors = fit(model, data, TrainConfig())
        assert float(np.mean(errors)) < 0.1 * initial

    def test_final_loss_never_exceeds_initial(self):
        model = init_model(ARCH, 2)
        rng = np.random.default_rng(0)
        data = [rng.uniform(0, 1, 20) for _ in range(50)]
        initial = float(np.mean([reconstruction_error(model, v)
                                 for v in data]))
        _, errors = fit(model, data, TrainConfig(epochs=10))
        assert float(np.mean(errors)) <= initial + 1e-12

    def test_huge_learning_rate_diverges_or_aborts(self):
        model = init_model(ARCH, 1)
        data = [np.full(20, 0.7)] * 64
        initial = float(np.mean([reconstruction_error(model, v)
                                 for v in data]))
        try:
            _, errors = fit(model, data, TrainConfig(learning_rate=1e6))
        except DivergedLoss:
            return
        # early abort keeps the best weights, never worse than the start
        assert float(np.mean(errors)) <= initial + 1e-12

    def test_empty_data(self):
        with pytest.raises(EmptyData):
            fit(init_model(ARCH, 0), [])

    def test_reproducible(self):
        rng = np.random.default_rng(4)
        data = [rng.uniform(0, 1, 20) for _ in range(60)]
        t1, e1 = fit(init_model(ARCH, 9), data, TrainConfig(epochs=8))
        t2, e2 = fit(init_model(ARCH, 9), data, TrainConfig(epochs=8))
        assert e1 == e2
        for name in t1.params:
            assert np.array_equal(t1.params[name], t2.params[name])

    def test_non_finite_gradient_names_weight(self):
        data = [np.full(20, 0.5)] * 40
        data[7] = np.full(20, np.nan)
        with pytest.raises(DivergedLoss, match="non-finite gradient in w1"):
            fit(init_model(ARCH, 1), data, TrainConfig(epochs=2))


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
        arch = AEArchitecture(input_len=6)
        model = init_model(arch, 0)
        x = np.random.default_rng(0).uniform(0.2, 0.8, 6)
        assert grad_check(model, x, eps=1e-5) <= 1e-5


class TestSerialization:
    def test_round_trip_exact(self, tmp_path):
        model = init_model(ARCH, 11)
        data = [np.random.default_rng(0).uniform(0, 1, 20) for _ in range(30)]
        trained, _ = fit(model, data, TrainConfig(epochs=5))
        path = tmp_path / "model.json"
        save_model(path, trained)
        loaded = load_model(path)
        x = np.random.default_rng(1).uniform(0, 1, 20)
        assert np.max(np.abs(forward(loaded, x) - forward(trained, x))) < 1e-12

    def test_epsilon_preserved(self):
        model = init_model(ARCH, 0)
        doc = model_to_dict(AEModel(ARCH, model.params, 0, epsilon=0.42))
        assert model_from_dict(doc).epsilon == 0.42

    def test_bad_version_rejected(self):
        doc = model_to_dict(init_model(ARCH, 0))
        doc["schema_version"] = "9.0"
        with pytest.raises(SchemaError):
            model_from_dict(doc)

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
            model_from_dict(doc)


# --- kernel oracles -------------------------------------------------------

def reference_forward(model, X):
    """The einsum / np.pad / np.add.at forward pass that the im2col kernel
    replaced, kept as an independent oracle."""
    a, p = model.arch, model.params
    B, r, L = X.shape[0], a.r, a.conv_len
    idx = a.stride * np.arange(L)[:, None] + np.arange(a.kernel)[None, :]
    xp = np.pad(X.reshape(B, 2, r), ((0, 0), (0, 0), (1, 1)))
    h1 = np.einsum("bclk,ock->bol", xp[:, :, idx], p["w1"])
    h1 = np.maximum(h1 + p["b1"][None, :, None], 0.0)
    z = np.maximum(h1.reshape(B, -1) @ p["w2"].T + p["b2"], 0.0)
    g = np.maximum(z @ p["w3"].T + p["b3"], 0.0)
    y_padded = np.zeros((B, 2, r + 2))
    np.add.at(y_padded, (slice(None), slice(None), idx),
              np.einsum("bol,ock->bclk", g.reshape(B, a.channels, L),
                        p["w4"]))
    y = expit(y_padded[:, :, 1:-1] + p["b4"][None, :, None])
    return y.reshape(B, a.input_len)


even_lengths = st.integers(3, 32).map(lambda half: 2 * half)
batch_sizes = st.integers(1, 64)
seeds = st.integers(0, 2 ** 32 - 1)


class TestKernel:
    @settings(max_examples=60, deadline=None)
    @given(n=even_lengths, batch=batch_sizes, seed=seeds)
    def test_forward_matches_einsum_reference(self, n, batch, seed):
        arch = AEArchitecture(input_len=n)
        model = init_model(arch, seed)
        X = np.random.default_rng(seed).uniform(0, 1, (batch, n))
        got = na._forward(arch, model.params, X)
        assert np.max(np.abs(got - reference_forward(model, X))) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(n=even_lengths, batch=batch_sizes, seed=seeds)
    def test_transposed_conv_is_adjoint_of_conv(self, n, batch, seed):
        arch = AEArchitecture(input_len=n)
        rng = np.random.default_rng(seed)
        w = rng.normal(size=(arch.channels, 2, arch.kernel)).reshape(
            arch.channels, -1)
        x = rng.normal(size=(batch, n))
        g = rng.normal(size=(batch * arch.conv_len, arch.channels))
        conv = na._im2col(arch, x) @ w.T
        conv_t = na._col2im(arch, g @ w)
        lhs = np.sum(conv * g)
        rhs = np.sum(x.reshape(batch, 2, arch.r) * conv_t)
        scale = np.sum(np.abs(conv * g)) + np.sum(np.abs(x) * np.abs(
            conv_t.reshape(batch, n)))
        assert abs(lhs - rhs) <= 1e-12 * scale

    @settings(max_examples=60, deadline=None)
    @given(n=even_lengths, batch=batch_sizes, seed=seeds)
    def test_batch_forward_equals_single_rows(self, n, batch, seed):
        arch = AEArchitecture(input_len=n)
        model = init_model(arch, seed)
        X = np.random.default_rng(seed).uniform(0, 1, (batch, n))
        rows = np.stack([forward(model, x) for x in X])
        assert np.max(np.abs(na._forward(arch, model.params, X) - rows)) \
            <= 1e-12
