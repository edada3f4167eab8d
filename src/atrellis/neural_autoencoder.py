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

Every layer is one matmul of a (B, ...) batch by a dense matrix, so the
activations stay (B, width) throughout.  The conv is a banded (2r, C * L)
matrix: entry [ci * r + i, c * L + l] is w1[c, ci, k] where
i = 2l + k - 1, and 0 off the band (the same padding).  The transposed
conv is the (C * L, 2r) matrix that w4 gives the same way, transposed.
The dense layers use w2 and w3 transposed, b1 is repeated over the L conv
positions and b4 over the r positions.  Laid end to end, these eight
arrays form one dense buffer; one integer index, computed once per
architecture, maps each of its entries to a slot of the flat weight buffer
or to one extra slot that always holds 0.  A forward pass gathers the
dense buffer from the current weights with ``np.take``; a backward pass
writes its gradient into a dense-gradient buffer of the same layout, and
``np.bincount`` over the same index folds it back into the flat gradient.

:func:`fit` keeps the 8 weights (then the zero slot), their gradient and
both Adam moments in flat float buffers, with a view per weight, so each
step makes one gather, one fold, one finiteness check and one Adam update
into preallocated temporaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

import numpy as np
from scipy.special import expit

from .errors import (BadArchitecture, DivergedLoss, EmptyData, SchemaError,
                     ShapeMismatch, check)

# The network's shape: only r varies.
CHANNELS = 8
KERNEL = 3
BOTTLENECK = 8
STRIDE = 2

# Adam's step size, the minibatch size, and the epochs without a better
# loss after which fit stops.
LEARNING_RATE = 1e-3
BATCH_SIZE = 32
PATIENCE = 5


@dataclass(frozen=True)
class AEArchitecture:
    r: int                  # packets per flow; the input is 2r values

    def __post_init__(self):
        if self.r < KERNEL:
            raise BadArchitecture(
                f"r must be >= {KERNEL}, the kernel size, got {self.r}")

    @property
    def input_len(self) -> int:
        return 2 * self.r

    @property
    def conv_len(self) -> int:
        # same padding (1 each side), stride 2
        return (self.r - 1) // 2 + 1


_PARAM_ORDER = ("w1", "b1", "w2", "b2", "w3", "b3", "w4", "b4")


def _param_shapes(arch: AEArchitecture) -> Dict[str, Tuple[int, ...]]:
    c, k, m, L = CHANNELS, KERNEL, BOTTLENECK, arch.conv_len
    return {"w1": (c, 2, k), "b1": (c,), "w2": (m, c * L), "b2": (m,),
            "w3": (c * L, m), "b3": (c * L,), "w4": (c, 2, k), "b4": (2,)}


@dataclass(frozen=True)
class AEModel:
    arch: AEArchitecture
    params: Dict[str, np.ndarray]
    rng_seed: int

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
    c, k, m, L = CHANNELS, KERNEL, BOTTLENECK, arch.conv_len
    fan_in = {"w1": 2 * k, "b1": 2 * k, "w2": c * L, "b2": c * L,
              "w3": m, "b3": m, "w4": c * k, "b4": c * k}
    params = {}
    for name, shape in _param_shapes(arch).items():
        bound = 1.0 / np.sqrt(fan_in[name])
        params[name] = rng.uniform(-bound, bound, size=shape)
    return AEModel(arch, params, seed)


def _split(buf: np.ndarray, shapes) -> List[np.ndarray]:
    """Consecutive views of ``buf``, one per shape."""
    views, at = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(buf[at:at + size].reshape(shape))
        at += size
    return views


def _flat_views(buf: np.ndarray, arch: AEArchitecture
                ) -> Dict[str, np.ndarray]:
    """One view per weight into a flat buffer laid out in _PARAM_ORDER."""
    return dict(zip(_PARAM_ORDER, _split(buf, _param_shapes(arch).values())))


def _flatten(params: Dict[str, np.ndarray]) -> np.ndarray:
    """The weights laid out in _PARAM_ORDER, then the zero slot."""
    return np.concatenate([*(params[name].ravel() for name in _PARAM_ORDER),
                           [0.0]])


def _dense_shapes(arch: AEArchitecture) -> Tuple[Tuple[int, ...], ...]:
    n, cl, m = arch.input_len, CHANNELS * arch.conv_len, BOTTLENECK
    return (n, cl), (cl,), (cl, m), (m,), (m, cl), (cl,), (cl, n), (n,)


@lru_cache(maxsize=None)
def _dense_index(arch: AEArchitecture) -> np.ndarray:
    """The flat-buffer slot of each entry of the eight dense layer arrays,
    laid end to end; an entry that no weight feeds reads the zero slot."""
    c, L, r = CHANNELS, arch.conv_len, arch.r
    zero = sum(math.prod(s) for s in _param_shapes(arch).values())
    slot = _flat_views(np.arange(zero), arch)
    # w1[co, ci, k] links input position i = STRIDE * l + k - 1 of channel
    # ci to output position l of channel co; w4[co, ci, k] links them back.
    co, ci, k, l = np.meshgrid(np.arange(c), np.arange(2),
                               np.arange(KERNEL), np.arange(L), indexing="ij")
    i = STRIDE * l + k - 1
    ok = (i >= 0) & (i < r)
    rows, cols = (ci * r + i)[ok], (co * L + l)[ok]
    w1 = np.full((2 * r, c * L), zero)
    w1[rows, cols] = slot["w1"][co, ci, k][ok]
    w4 = np.full((c * L, 2 * r), zero)
    w4[cols, rows] = slot["w4"][co, ci, k][ok]
    index = np.concatenate([a.ravel() for a in (
        w1, np.repeat(slot["b1"], L), slot["w2"].T, slot["b2"],
        slot["w3"].T, slot["b3"], w4, np.repeat(slot["b4"], r))])
    index.setflags(write=False)
    return index


def _gather(arch: AEArchitecture, flat: np.ndarray) -> List[np.ndarray]:
    """The eight dense layer arrays of the weights in ``flat`` (a _flatten
    layout)."""
    return _split(np.take(flat, _dense_index(arch)), _dense_shapes(arch))


def _fold(arch: AEArchitecture, dense_grad: np.ndarray) -> np.ndarray:
    """The flat gradient, in _PARAM_ORDER layout, of a dense-layer
    gradient: the adjoint of _gather, less the zero slot."""
    # the zero slot is the index's largest value, so its bin is the last
    return np.bincount(_dense_index(arch), weights=dense_grad)[:-1]


def _forward(layers: Sequence[np.ndarray], x: np.ndarray,
             want_cache: bool = False):
    """x: (B, input_len) -> reconstruction (B, input_len), through the
    dense layer arrays of _gather."""
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
    expit(y, out=y)
    if not want_cache:
        return y
    return y, (x, h1, z, g, y)


def _backward(layers: Sequence[np.ndarray], cache: tuple,
              d_out: np.ndarray, grads: Sequence[np.ndarray]) -> None:
    """Write the gradients of a scalar loss, given d(loss)/d(reconstruction),
    into ``grads`` (one array per dense layer array)."""
    *acts, y = cache
    d = d_out * y
    d *= 1.0 - y
    for j in (3, 2, 1, 0):
        np.matmul(acts[j].T, d, out=grads[2 * j])
        d.sum(axis=0, out=grads[2 * j + 1])
        if j:
            d = d @ layers[2 * j].T
            d *= acts[j] > 0


def _check_input(model: AEModel, x) -> np.ndarray:
    """One vector (any shape but 2-D is flattened) or a 2-D batch of rows,
    as float arrays of the model's input length."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 2:
        arr = arr.ravel()
    if arr.shape[-1] != model.arch.input_len:
        raise ShapeMismatch(
            f"expected input of length {model.arch.input_len}, "
            f"got {arr.shape[-1]}")
    return arr


def forward(model: AEModel, x) -> np.ndarray:
    """Reconstruct one feature vector, or each row of a 2-D batch; outputs
    lie in (0, 1)."""
    arr = _check_input(model, x)
    out = _forward(_gather(model.arch, _flatten(model.params)),
                   np.atleast_2d(arr))
    return out if arr.ndim == 2 else out[0]


def reconstruction_error(model: AEModel, x):
    """Mean squared error between input and reconstruction: a float for one
    vector, an array with one error per row for a 2-D batch."""
    arr = _check_input(model, x)
    errors = np.mean((forward(model, arr) - arr) ** 2, axis=-1)
    return errors if arr.ndim == 2 else float(errors)


def _batch_errors(arch: AEArchitecture, flat: np.ndarray,
                  X: np.ndarray) -> np.ndarray:
    return np.mean((_forward(_gather(arch, flat), X) - X) ** 2, axis=1)


def fit(model: AEModel, data: Sequence, epochs: int
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

    flat = _flatten(model.params)
    flat_params = flat[:-1]
    adam_m = np.zeros_like(flat_params)
    adam_v = np.zeros_like(flat_params)
    step_size = np.empty_like(flat_params)
    denom = np.empty_like(flat_params)
    index = _dense_index(arch)
    dense = np.empty(index.size)
    dense_grad = np.empty_like(dense)
    layers = _split(dense, _dense_shapes(arch))
    grads = _split(dense_grad, _dense_shapes(arch))
    beta1, beta2, adam_eps = 0.9, 0.999, 1e-8
    step = 0

    def epoch_loss():
        return float(np.mean(_batch_errors(arch, flat, X)))

    best_loss = epoch_loss()
    best_flat = flat.copy()
    stale = 0

    for _ in range(epochs):
        order = rng.permutation(X.shape[0])
        for start in range(0, X.shape[0], BATCH_SIZE):
            batch = X[order[start:start + BATCH_SIZE]]
            # the index is in range by construction, and "clip" mode
            # writes to ``out`` without take's buffering
            np.take(flat, index, out=dense, mode="clip")
            out, cache = _forward(layers, batch, want_cache=True)
            d_out = 2.0 * (out - batch) / out.size
            _backward(layers, cache, d_out, grads)
            flat_grads = _fold(arch, dense_grad)
            if not np.isfinite(flat_grads).all():
                named = _flat_views(flat_grads, arch)
                name = next(n for n in _PARAM_ORDER
                            if not np.isfinite(named[n]).all())
                raise DivergedLoss(f"non-finite gradient in {name}")
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
            step_size *= LEARNING_RATE
            step_size /= denom
            flat_params -= step_size

        loss = epoch_loss()
        if not np.isfinite(loss):
            raise DivergedLoss(f"non-finite training loss {loss}")
        if loss < best_loss - 1e-15:
            best_loss = loss
            best_flat = flat.copy()
            stale = 0
        else:
            stale += 1
            if stale >= PATIENCE:
                break

    errors = _batch_errors(arch, best_flat, X)
    return AEModel(arch, _flat_views(best_flat[:-1], arch),
                   model.rng_seed), [float(e) for e in errors]


def grad_check(model: AEModel, x, eps: float = 1e-5) -> float:
    """Max relative discrepancy between the analytic gradient of the MSE
    loss and central finite differences, over every weight."""
    if not 0 < eps <= 1e-2:
        raise ValueError(f"eps must be in (0, 1e-2], got {eps}")
    arch = model.arch
    arr = _check_input(model, x)[None, :]
    flat = _flatten(model.params)
    params = _flat_views(flat[:-1], arch)

    layers = _gather(arch, flat)
    out, cache = _forward(layers, arr, want_cache=True)
    d_out = 2.0 * (out - arr) / out.size
    dense_grad = np.empty(_dense_index(arch).size)
    _backward(layers, cache, d_out, _split(dense_grad, _dense_shapes(arch)))
    analytic = _flat_views(_fold(arch, dense_grad), arch)

    def loss_at():
        y = _forward(_gather(arch, flat), arr)
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
    """The seed and the weights; the architecture is the reader's to give."""
    return {"seed": model.rng_seed,
            "weights": {k: v.tolist() for k, v in model.params.items()}}


def model_from_dict(doc: dict, arch: AEArchitecture) -> AEModel:
    """The model that ``model_to_dict`` wrote, given its architecture."""
    check(doc, {"seed": int, "weights": dict}, "model")
    params = {}
    for name, value in doc["weights"].items():
        try:
            params[name] = np.asarray(value, dtype=float)
        except (TypeError, ValueError, OverflowError) as exc:
            raise SchemaError(f"weight {name} is not a numeric array: "
                              f"{exc}") from None
    return AEModel(arch, params, doc["seed"])
