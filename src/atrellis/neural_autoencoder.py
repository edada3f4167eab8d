"""Per-activity unsupervised submodel: a small 1-D convolutional
autoencoder trained on benign feature vectors; the anomaly score of a flow
is its reconstruction error.

The network is implemented from scratch in numpy (forward, backward, Adam)
and its analytic gradients are verifiable against central finite
differences via :func:`grad_check`.

Layout: the 2r-vector is reshaped to 2 channels x r (lengths channel, gaps
channel) so the convolution correlates a packet's length with its gap at
the same position.  Encoder: stride-2 same-padded conv (2 -> 8 channels,
kernel 3), ReLU, dense to an 8-unit bottleneck.  Decoder mirrors it, with
the transposed convolution realized as the exact adjoint of a stride-2
conv, and a sigmoid output.

Both convolutions are plain matmuls over an im2col layout.  A batch of B
rows is copied into a zero buffer of shape (B, 2, r + 2) (one pad column
each side) and gathered, with an index computed once per architecture,
into a (B * L, 2 * K) matrix whose row b * L + l holds the window of
output position l: columns ci * K + k read padded position 2l + k of input
channel ci.  A conv weight (C, 2, K) is used as its (C, 2 * K) reshape, so
conv activations are (B * L, C) with the position axis outer; they are
transposed to channel-major (B, C * L) at the dense layers, whose weights
keep that order.  The transposed conv multiplies the other way and adds
the windows back with K strided slice adds: window k of output l lands at
padded position 2l + k.

:func:`fit` keeps the 8 weights, their gradients and both Adam moments in
four flat float buffers, with a view per weight, so each step makes one
Adam update and one finiteness check.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.special import expit

from .errors import (BadArchitecture, DivergedLoss, EmptyData, SchemaError,
                     ShapeMismatch)

MODEL_SCHEMA_VERSION = "1.0"


@dataclass(frozen=True)
class AEArchitecture:
    input_len: int          # 2r
    channels: int = 8
    kernel: int = 3
    bottleneck: int = 8
    stride: int = 2

    def __post_init__(self):
        if self.input_len < 2 or self.input_len % 2 != 0:
            raise BadArchitecture(
                f"input_len must be even and >= 2, got {self.input_len}")
        if self.kernel > self.r:
            raise BadArchitecture(
                f"kernel {self.kernel} larger than per-channel input {self.r}")
        if self.stride != 2 or self.kernel != 3:
            raise BadArchitecture("only kernel 3 / stride 2 is supported")

    @property
    def r(self) -> int:
        return self.input_len // 2

    @property
    def conv_len(self) -> int:
        # same padding (1 each side), stride 2
        return (self.r - 1) // 2 + 1


_PARAM_ORDER = ("w1", "b1", "w2", "b2", "w3", "b3", "w4", "b4")


def _param_shapes(arch: AEArchitecture) -> Dict[str, Tuple[int, ...]]:
    c, k, m, L = arch.channels, arch.kernel, arch.bottleneck, arch.conv_len
    return {"w1": (c, 2, k), "b1": (c,), "w2": (m, c * L), "b2": (m,),
            "w3": (c * L, m), "b3": (c * L,), "w4": (c, 2, k), "b4": (2,)}


@dataclass(frozen=True)
class AEModel:
    arch: AEArchitecture
    params: Dict[str, np.ndarray]
    rng_seed: int
    epsilon: Optional[float] = None  # calibrated threshold, set by training

    def __post_init__(self):
        shapes = _param_shapes(self.arch)
        missing = [n for n in _PARAM_ORDER if n not in self.params]
        unknown = sorted(set(self.params) - set(shapes))
        if missing or unknown:
            raise SchemaError(
                f"model weights missing: {', '.join(missing) or '-'}; "
                f"unknown: {', '.join(unknown) or '-'}")
        for name in _PARAM_ORDER:
            w = self.params[name]
            if w.shape != shapes[name]:
                raise ShapeMismatch(
                    f"weight {name} has shape {w.shape}, "
                    f"architecture needs {shapes[name]}")
            if not np.all(np.isfinite(w)):
                raise SchemaError(f"non-finite values in weight {name}")


def init_model(arch: AEArchitecture, seed: int) -> AEModel:
    """Uniform fan-in-scaled initialization from a seeded RNG."""
    rng = np.random.default_rng(seed)
    c, k, m, L = arch.channels, arch.kernel, arch.bottleneck, arch.conv_len
    fan_in = {"w1": 2 * k, "b1": 2 * k, "w2": c * L, "b2": c * L,
              "w3": m, "b3": m, "w4": c * k, "b4": c * k}
    params = {}
    for name, shape in _param_shapes(arch).items():
        bound = 1.0 / np.sqrt(fan_in[name])
        params[name] = rng.uniform(-bound, bound, size=shape)
    return AEModel(arch, params, seed)


def _flat_views(buf: np.ndarray, arch: AEArchitecture
                ) -> Dict[str, np.ndarray]:
    """One view per weight into a flat buffer laid out in _PARAM_ORDER."""
    views, at = {}, 0
    for name, shape in _param_shapes(arch).items():
        size = int(np.prod(shape))
        views[name] = buf[at:at + size].reshape(shape)
        at += size
    return views


def _flatten(params: Dict[str, np.ndarray]) -> np.ndarray:
    return np.concatenate([params[name].ravel() for name in _PARAM_ORDER])


@lru_cache(maxsize=None)
def _window_index(arch: AEArchitecture) -> np.ndarray:
    """(L, 2K) gather index into a flattened (2, r + 2) padded row: entry
    [l, ci * K + k] is ci * (r + 2) + stride * l + k."""
    k, s, L, rp = arch.kernel, arch.stride, arch.conv_len, arch.r + 2
    idx = (np.arange(2)[None, :, None] * rp
           + s * np.arange(L)[:, None, None]
           + np.arange(k)[None, None, :]).reshape(L, 2 * k)
    idx.setflags(write=False)
    return idx


def _im2col(arch: AEArchitecture, x: np.ndarray) -> np.ndarray:
    """(B, 2r) or (B, 2, r) input -> (B * L, 2K) windows of its same-padded
    channels."""
    B = x.shape[0]
    xp = np.zeros((B, 2, arch.r + 2))
    xp[:, :, 1:-1] = x.reshape(B, 2, arch.r)
    return xp.reshape(B, -1)[:, _window_index(arch)].reshape(
        B * arch.conv_len, -1)


def _col2im(arch: AEArchitecture, cols: np.ndarray) -> np.ndarray:
    """Exact adjoint of _im2col: (B * L, 2K) windows summed back into their
    padded positions, then cropped to (B, 2, r)."""
    k, s, L = arch.kernel, arch.stride, arch.conv_len
    B = cols.shape[0] // L
    windows = cols.reshape(B, L, 2, k)
    yp = np.zeros((B, 2, arch.r + 2))
    for j in range(k):
        yp[:, :, j:j + s * L:s] += windows[:, :, :, j].transpose(0, 2, 1)
    return yp[:, :, 1:-1]


def _channel_major(a: np.ndarray, B: int, L: int) -> np.ndarray:
    """(B * L, C) position-major activations -> (B, C * L) channel-major."""
    return a.reshape(B, L, -1).transpose(0, 2, 1).reshape(B, -1)


def _position_major(a: np.ndarray, B: int, L: int) -> np.ndarray:
    """Inverse of _channel_major."""
    return a.reshape(B, -1, L).transpose(0, 2, 1).reshape(B * L, -1)


def _forward(arch: AEArchitecture, p: Dict[str, np.ndarray], x: np.ndarray,
             want_cache: bool = False):
    """x: (B, input_len) -> reconstruction (B, input_len)."""
    B, L, c = x.shape[0], arch.conv_len, arch.channels
    cols = _im2col(arch, x)
    h1 = np.maximum(cols @ p["w1"].reshape(c, -1).T + p["b1"], 0.0)
    flat = _channel_major(h1, B, L)
    z = np.maximum(flat @ p["w2"].T + p["b2"], 0.0)
    g = np.maximum(z @ p["w3"].T + p["b3"], 0.0)
    g_cols = _position_major(g, B, L)
    y = expit(_col2im(arch, g_cols @ p["w4"].reshape(c, -1))
              + p["b4"][:, None])
    out = y.reshape(B, arch.input_len)
    if not want_cache:
        return out
    return out, (cols, flat, z, g, g_cols, y)


def _backward(arch: AEArchitecture, p: Dict[str, np.ndarray], cache: tuple,
              d_out: np.ndarray, grads: Dict[str, np.ndarray]) -> None:
    """Write the gradients of a scalar loss, given d(loss)/d(reconstruction),
    into ``grads`` (one array per weight)."""
    cols, flat, z, g, g_cols, y = cache
    B, L, c = d_out.shape[0], arch.conv_len, arch.channels

    dy = d_out.reshape(B, 2, arch.r) * y * (1.0 - y)
    dy.sum(axis=(0, 2), out=grads["b4"])
    dy_cols = _im2col(arch, dy)
    np.matmul(g_cols.T, dy_cols, out=grads["w4"].reshape(c, -1))

    dg = _channel_major(dy_cols @ p["w4"].reshape(c, -1).T, B, L) * (g > 0)
    np.matmul(dg.T, z, out=grads["w3"])
    dg.sum(axis=0, out=grads["b3"])
    dz = (dg @ p["w3"]) * (z > 0)
    np.matmul(dz.T, flat, out=grads["w2"])
    dz.sum(axis=0, out=grads["b2"])
    dh1 = _position_major((dz @ p["w2"]) * (flat > 0), B, L)
    dh1.sum(axis=0, out=grads["b1"])
    np.matmul(dh1.T, cols, out=grads["w1"].reshape(c, -1))


def _check_input(model: AEModel, x) -> np.ndarray:
    arr = np.asarray(getattr(x, "values", x), dtype=float).ravel()
    if arr.shape[0] != model.arch.input_len:
        raise ShapeMismatch(
            f"expected input of length {model.arch.input_len}, "
            f"got {arr.shape[0]}")
    return arr


def forward(model: AEModel, x) -> np.ndarray:
    """Reconstruct one feature vector; outputs lie in (0, 1)."""
    return _forward(model.arch, model.params,
                    _check_input(model, x)[None, :])[0]


def reconstruction_error(model: AEModel, x) -> float:
    """Mean squared error between input and reconstruction."""
    arr = _check_input(model, x)
    return float(np.mean((forward(model, arr) - arr) ** 2))


def _batch_errors(arch: AEArchitecture, p: Dict[str, np.ndarray],
                  X: np.ndarray) -> np.ndarray:
    return np.mean((_forward(arch, p, X) - X) ** 2, axis=1)


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    epochs: int = 50
    batch_size: int = 32
    patience: int = 5

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")


def fit(model: AEModel, data: Sequence, cfg: TrainConfig = TrainConfig()
        ) -> Tuple[AEModel, List[float]]:
    """Train on benign feature vectors with Adam; returns the trained model
    and its final per-sample reconstruction errors on the training set.

    Keeps the best-loss weights seen (including the initial ones), so the
    final mean training loss never exceeds the initial one.  Raises
    DivergedLoss on a non-finite loss or gradient.
    """
    if len(data) == 0:
        raise EmptyData("no training vectors")
    arch = model.arch
    X = np.stack([_check_input(model, v) for v in data])
    rng = np.random.default_rng(model.rng_seed)

    flat_params = _flatten(model.params)
    flat_grads = np.zeros_like(flat_params)
    adam_m = np.zeros_like(flat_params)
    adam_v = np.zeros_like(flat_params)
    params = _flat_views(flat_params, arch)
    grads = _flat_views(flat_grads, arch)
    beta1, beta2, adam_eps = 0.9, 0.999, 1e-8
    step = 0

    def epoch_loss():
        return float(np.mean(_batch_errors(arch, params, X)))

    best_loss = epoch_loss()
    best_flat = flat_params.copy()
    stale = 0

    for _ in range(cfg.epochs):
        order = rng.permutation(X.shape[0])
        for start in range(0, X.shape[0], cfg.batch_size):
            batch = X[order[start:start + cfg.batch_size]]
            out, cache = _forward(arch, params, batch, want_cache=True)
            d_out = 2.0 * (out - batch) / out.size
            _backward(arch, params, cache, d_out, grads)
            if not np.isfinite(flat_grads).all():
                name = next(n for n in _PARAM_ORDER
                            if not np.isfinite(grads[n]).all())
                raise DivergedLoss(f"non-finite gradient in {name}")
            step += 1
            adam_m *= beta1
            adam_m += (1 - beta1) * flat_grads
            adam_v *= beta2
            adam_v += (1 - beta2) * flat_grads * flat_grads
            m_hat = adam_m / (1 - beta1 ** step)
            v_hat = adam_v / (1 - beta2 ** step)
            flat_params -= cfg.learning_rate * m_hat / (
                np.sqrt(v_hat) + adam_eps)

        loss = epoch_loss()
        if not np.isfinite(loss):
            raise DivergedLoss(f"non-finite training loss {loss}")
        if loss < best_loss - 1e-15:
            best_loss = loss
            best_flat = flat_params.copy()
            stale = 0
        else:
            stale += 1
            if stale >= cfg.patience:
                break

    best = _flat_views(best_flat, arch)
    errors = _batch_errors(arch, best, X)
    return AEModel(arch, best, model.rng_seed, model.epsilon), [
        float(e) for e in errors]


def grad_check(model: AEModel, x, eps: float = 1e-5) -> float:
    """Max relative discrepancy between the analytic gradient of the MSE
    loss and central finite differences, over every weight."""
    if not 0 < eps <= 1e-2:
        raise ValueError(f"eps must be in (0, 1e-2], got {eps}")
    arch = model.arch
    arr = _check_input(model, x)[None, :]
    flat_params = _flatten(model.params)
    params = _flat_views(flat_params, arch)

    out, cache = _forward(arch, params, arr, want_cache=True)
    d_out = 2.0 * (out - arr) / out.size
    analytic = _flat_views(np.zeros_like(flat_params), arch)
    _backward(arch, params, cache, d_out, analytic)

    def loss_at():
        y = _forward(arch, params, arr)
        return float(np.mean((y - arr) ** 2))

    worst = 0.0
    for name in _PARAM_ORDER:
        w = params[name]
        it = np.nditer(w, flags=["multi_index"])
        for _ in it:
            i = it.multi_index
            orig = w[i]
            w[i] = orig + eps
            up = loss_at()
            w[i] = orig - eps
            down = loss_at()
            w[i] = orig
            numeric = (up - down) / (2 * eps)
            a = analytic[name][i]
            denom = max(abs(a) + abs(numeric), 1e-8)
            worst = max(worst, abs(a - numeric) / denom)
    return worst


# --- serialization --------------------------------------------------------

def model_to_dict(model: AEModel) -> dict:
    return {
        "schema_version": MODEL_SCHEMA_VERSION,
        "architecture": {
            "input_len": model.arch.input_len,
            "channels": model.arch.channels,
            "kernel": model.arch.kernel,
            "bottleneck": model.arch.bottleneck,
            "stride": model.arch.stride,
        },
        "seed": model.rng_seed,
        "epsilon": model.epsilon,
        "weights": {k: v.tolist() for k, v in model.params.items()},
    }


def model_from_dict(doc: dict) -> AEModel:
    from .clustering_tree import check_schema_version
    check_schema_version(doc, MODEL_SCHEMA_VERSION, "model")
    arch = AEArchitecture(**doc["architecture"])
    params = {}
    for name, value in doc["weights"].items():
        try:
            params[name] = np.asarray(value, dtype=float)
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"weight {name} is not a numeric array: "
                              f"{exc}") from None
    return AEModel(arch, params, doc["seed"], doc.get("epsilon"))


def save_model(path, model: AEModel) -> None:
    with open(path, "w") as fh:
        json.dump(model_to_dict(model), fh)
        fh.write("\n")


def load_model(path) -> AEModel:
    with open(path) as fh:
        return model_from_dict(json.load(fh))
