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
conv, and a sigmoid output 1 / (1 + exp(-y)), computed with numpy's exp;
for y below about -709, exp overflows to inf and the output is exactly 0.

The kernel works on stacks: k models at once, each on a batch of its own,
so a batch is (k, B, width) and every layer is one stacked matmul of it by
the k models' dense matrices.  Forward passes, errors and the gradient
check pass a stack of one.  The conv is a banded (2r, C * L) matrix:
entry [ci * r + i, c * L + l] is w1[c, ci, k] where i = 2l + k - 1, and 0
off the band (the same padding).  The transposed conv is the (C * L, 2r)
matrix that w4 gives the same way, transposed.  The dense layers use w2
and w3 transposed, b1 is repeated over the L conv positions and b4 over
the r positions.  Laid end to end, these eight arrays form one dense row;
one integer index, computed once per architecture, maps each of its
entries to a slot of the flat weight row or to one extra slot that always
holds 0.  A forward pass gathers the dense rows of the stack from the
current weights with ``np.take``; a backward pass writes its gradients
into dense-gradient rows of the same layout, and one ``np.bincount`` over
the index, offset per row, folds them back into the flat gradients.

:func:`fit_many` trains the submodels of all activity keys in lockstep.
It sorts the keys by row count, largest first, into stacks of at most
STACK, and keeps each stack's weights (then the zero slot), gradients and
Adam moments as one row per key.  At each batch position of an epoch it
makes one gather, one fold, one finiteness check and one Adam update for
the keys that still have a batch there, which form a prefix of the stack.
Each key keeps its own shuffle, Adam step count, patience, best weights and
epoch loss, so it ends with the weights and errors it would have had if
trained alone, to the bit.  Two rules keep it so:

- nothing is padded.  The keys whose batches at a position hold as many
  rows form a run, and each run makes one stacked forward and backward, so
  every matmul sees the shapes it saw for one key.  A batch padded with
  zero rows changes the last bits of gemm's products for some widths
  (2r = 10, 18 or 26 with OpenBLAS 0.3.31), and numpy multiplies a one-row
  batch with gemv and a taller one with gemm;
- transposes in the backward pass are views, as they were for one key: a
  contiguous copy changes the transpose flag BLAS is called with, and the
  last bits.

Each epoch loss is computed on the key's own rows; keys with as many rows
share one stacked forward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from .errors import (BadArchitecture, DivergedLoss, EmptyData, SchemaError,
                     ShapeMismatch, check)

# The network's shape: only r varies.
CHANNELS = 8
KERNEL = 3
BOTTLENECK = 8
STRIDE = 2

# Adam's step size, the minibatch size, and the epochs without a better
# loss after which a key stops training.
LEARNING_RATE = 1e-3
BATCH_SIZE = 32
PATIENCE = 5
# The most keys that train in one stack: bounds the stacked buffers on a
# profile with thousands of keys.
STACK = 64
# The largest r.  A key's dense layer arrays hold O(r^2) entries, as the
# conv and its transpose are (2r, C * L) matrices: 70,280 entries at
# r = 64, 16,074,008 at r = 1000.  A _Stack keeps three buffers of STACK
# such rows, 8 bytes an entry (dense rows, their gradients and the fold
# index): about 108 MB at r = 64 and 25 GB at r = 1000.
MAX_R = 64


@dataclass(frozen=True)
class AEArchitecture:
    r: int                  # packets per flow; the input is 2r values

    def __post_init__(self):
        if self.r < KERNEL:
            raise BadArchitecture(
                f"r must be >= {KERNEL}, the kernel size, got {self.r}")
        if self.r > MAX_R:
            raise BadArchitecture(f"r must be <= {MAX_R}, got {self.r}")

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
    """Consecutive views of ``buf``'s last axis, one per shape; rows of a
    2-D ``buf`` give (rows, *shape) views."""
    views, at = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(buf[..., at:at + size].reshape(buf.shape[:-1] + shape))
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


@lru_cache(maxsize=None)
def _flat_len(arch: AEArchitecture) -> int:
    """The length of a _flatten buffer: every weight, then the zero slot."""
    return sum(math.prod(s) for s in _param_shapes(arch).values()) + 1


def _dense_shapes(arch: AEArchitecture) -> Tuple[Tuple[int, ...], ...]:
    n, cl, m = arch.input_len, CHANNELS * arch.conv_len, BOTTLENECK
    return (n, cl), (1, cl), (cl, m), (1, m), (m, cl), (1, cl), (cl, n), (1, n)


@lru_cache(maxsize=None)
def _dense_index(arch: AEArchitecture) -> np.ndarray:
    """The flat-buffer slot of each entry of the eight dense layer arrays,
    laid end to end; an entry that no weight feeds reads the zero slot."""
    c, L, r = CHANNELS, arch.conv_len, arch.r
    zero = _flat_len(arch) - 1
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
    """The eight stacked dense layer arrays of the weights in ``flat``, one
    _flatten row per model."""
    return _split(np.take(flat, _dense_index(arch), axis=1),
                  _dense_shapes(arch))


def _fold(arch: AEArchitecture, dense_grad: np.ndarray,
          index: np.ndarray) -> np.ndarray:
    """The flat gradients, one _PARAM_ORDER row per model, of stacked
    dense-layer gradients: the adjoint of _gather, less the zero slot.
    ``index`` holds _dense_index once per row, each row's slots offset by
    a flat row, for at least as many rows."""
    k, width = dense_grad.shape[0], _flat_len(arch)
    return np.bincount(index[:dense_grad.size], weights=dense_grad.ravel(),
                       minlength=k * width).reshape(k, width)[:, :-1]


def _sigmoid(y: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-y)), in place; where exp overflows to inf, the result
    is exactly 0."""
    np.negative(y, out=y)
    with np.errstate(over="ignore"):
        np.exp(y, out=y)
    y += 1.0
    return np.reciprocal(y, out=y)


def _forward(layers: Sequence[np.ndarray], x: np.ndarray,
             want_cache: bool = False):
    """x: (k, B, input_len), a batch for each of k models -> their
    reconstructions (k, B, input_len), through the stacked dense layer
    arrays of _gather."""
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
    _sigmoid(y)
    if not want_cache:
        return y
    return y, (x, h1, z, g, y)


def _backward(layers: Sequence[np.ndarray], cache: tuple,
              d_out: np.ndarray, grads: Sequence[np.ndarray]) -> None:
    """Write the gradients of each model's scalar loss, given
    d(loss)/d(reconstruction), into ``grads`` (one stacked array per dense
    layer array)."""
    *acts, y = cache
    d = d_out * y
    d *= 1.0 - y
    for j in (3, 2, 1, 0):
        np.matmul(acts[j].transpose(0, 2, 1), d, out=grads[2 * j])
        np.add.reduce(d, axis=1, out=grads[2 * j + 1], keepdims=True)
        if j:
            d = d @ layers[2 * j].transpose(0, 2, 1)
            d *= acts[j] > 0


def _check_input(arch: AEArchitecture, x) -> np.ndarray:
    """One vector (any shape but 2-D is flattened) or a 2-D batch of rows,
    as float arrays of the architecture's input length."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 2:
        arr = arr.ravel()
    if arr.shape[-1] != arch.input_len:
        raise ShapeMismatch(
            f"expected input of length {arch.input_len}, "
            f"got {arr.shape[-1]}")
    return arr


def forward(model: AEModel, x) -> np.ndarray:
    """Reconstruct one feature vector, or each row of a 2-D batch; outputs
    lie in (0, 1)."""
    arr = _check_input(model.arch, x)
    out = _forward(_gather(model.arch, _flatten(model.params)[None]),
                   np.atleast_2d(arr)[None])[0]
    return out if arr.ndim == 2 else out[0]


def reconstruction_error(model: AEModel, x):
    """Mean squared error between input and reconstruction: a float for one
    vector, an array with one error per row for a 2-D batch."""
    arr = _check_input(model.arch, x)
    errors = np.mean((forward(model, arr) - arr) ** 2, axis=-1)
    return errors if arr.ndim == 2 else float(errors)


def _batch_errors(arch: AEArchitecture, flat: np.ndarray,
                  X: np.ndarray) -> np.ndarray:
    """(k, N) errors of k flat rows, row i on the N rows of X[i]."""
    return np.mean((_forward(_gather(arch, flat), X) - X) ** 2, axis=-1)


def _error_runs(arch: AEArchitecture, flat: np.ndarray,
                Xs: Sequence[np.ndarray]):
    """Each model's errors on its own rows, row i of ``flat`` on Xs[i]:
    consecutive models with as many rows share one stacked forward, and
    its (models, rows) errors are yielded in order."""
    at = 0
    for _, run in groupby(Xs, key=len):
        X = np.stack(list(run))
        yield _batch_errors(arch, flat[at:at + len(X)], X)
        at += len(X)


class _Stack:
    """The flat weights, Adam moments and Adam step counts of up to STACK
    models, one row (slot) per model, and the buffers that a step gathers
    them into and folds their gradients out of.  ``names`` gives the key
    of each slot, for errors."""

    def __init__(self, arch: AEArchitecture, flat: np.ndarray,
                 names: List[int]):
        k = flat.shape[0]
        self.arch, self.flat, self.names = arch, flat, names
        self.adam_m = np.zeros((k, flat.shape[1] - 1))
        self.adam_v = np.zeros_like(self.adam_m)
        self.steps = np.zeros(k, dtype=np.int64)
        self.step_size = np.empty_like(self.adam_m)
        self.denom = np.empty_like(self.adam_m)
        self.fold_index = (_dense_index(arch)
                           + _flat_len(arch) * np.arange(k)[:, None]).ravel()
        self.dense = np.empty((k, _dense_index(arch).size))
        self.dense_grad = np.empty_like(self.dense)
        self.layers = _split(self.dense, _dense_shapes(arch))
        self.grads = _split(self.dense_grad, _dense_shapes(arch))

    def keep(self, slots: List[int]) -> None:
        """Keep only ``slots``, in order, as the new first slots."""
        self.flat, self.adam_m, self.adam_v, self.steps = (
            a[slots] for a in (self.flat, self.adam_m, self.adam_v,
                               self.steps))
        self.names = [self.names[s] for s in slots]

    def gradients(self, batches: Sequence[np.ndarray]) -> np.ndarray:
        """The flat MSE gradients of the first slots, a row each and a run
        of them per batch (a (g, B, input_len) batch holds B rows for each
        of the next g slots); a non-finite one raises DivergedLoss."""
        arch, live = self.arch, sum(map(len, batches))
        # the index is in range by construction, and "clip" mode writes to
        # ``out`` without take's buffering
        np.take(self.flat[:live], _dense_index(arch), axis=1,
                out=self.dense[:live], mode="clip")
        lo = 0
        for batch in batches:
            hi = lo + len(batch)
            layers = [a[lo:hi] for a in self.layers]
            out, cache = _forward(layers, batch, want_cache=True)
            d_out = 2.0 * (out - batch) / batch[0].size
            _backward(layers, cache, d_out, [a[lo:hi] for a in self.grads])
            lo = hi

        grads = _fold(arch, self.dense_grad[:live], self.fold_index)
        finite = np.isfinite(grads)
        if not finite.all():
            s = int(np.argmin(finite.all(axis=1)))
            named = _flat_views(grads[s], arch)
            name = next(w for w in _PARAM_ORDER
                        if not np.isfinite(named[w]).all())
            raise DivergedLoss(f"activity key {self.names[s]}: non-finite "
                               f"gradient in {name}")
        return grads

    def step(self, batches: Sequence[np.ndarray]) -> None:
        """One Adam step, on their ``gradients``, for the first slots."""
        grads = self.gradients(batches)
        live = len(grads)
        beta1, beta2, adam_eps = 0.9, 0.999, 1e-8
        self.steps[:live] += 1
        steps = self.steps[:live].tolist()
        # 1 - beta ** step in Python floats, one per slot
        bias1 = np.array([1 - beta1 ** t for t in steps])[:, None]
        bias2 = np.array([1 - beta2 ** t for t in steps])[:, None]
        adam_m, adam_v = self.adam_m[:live], self.adam_v[:live]
        step_size, denom = self.step_size[:live], self.denom[:live]
        adam_m *= beta1
        np.multiply(grads, 1 - beta1, out=step_size)
        adam_m += step_size
        adam_v *= beta2
        np.multiply(grads, 1 - beta2, out=denom)
        denom *= grads
        adam_v += denom
        np.divide(adam_v, bias2, out=denom)
        np.sqrt(denom, out=denom)
        denom += adam_eps
        np.divide(adam_m, bias1, out=step_size)
        step_size *= LEARNING_RATE
        step_size /= denom
        self.flat[:live, :-1] -= step_size


def _schedule(sizes: List[int]) -> List[tuple]:
    """Each batch position of an epoch over keys of ``sizes`` rows (largest
    first): its first row, and the runs (lo, hi, rows) of slots lo..hi-1
    whose batches there hold as many rows."""
    positions = []
    for start in range(0, sizes[0], BATCH_SIZE):
        runs, lo = [], 0
        for size, run in groupby(min(n - start, BATCH_SIZE) for n in sizes):
            if size <= 0:
                break
            runs.append((lo, lo + len(list(run)), size))
            lo = runs[-1][1]
        positions.append((start, runs))
    return positions


def _fit_stack(arch: AEArchitecture, flat: np.ndarray, seeds: List[int],
               Xs: Sequence[np.ndarray], names: List[int], epochs: int
               ) -> Tuple[np.ndarray, List[List[float]]]:
    """Train the models whose weights are the rows of ``flat`` in
    lockstep, each with its seed's shuffles on its own rows (Xs, by row
    count, largest first); returns their best weights, a row each, and
    their training errors under them."""
    sizes = [len(X) for X in Xs]
    rows = np.concatenate(Xs)           # every key's rows, end to end
    firsts = np.cumsum([0, *sizes])
    rngs = [np.random.default_rng(seed) for seed in seeds]
    stack = _Stack(arch, flat, names)
    best = flat.copy()
    best_loss = [float(e.mean()) for run in _error_runs(arch, best, Xs)
                 for e in run]
    stale = [0] * len(Xs)
    live = list(range(len(Xs)))         # the model in each slot
    schedule = _schedule(sizes)

    for _ in range(epochs):
        n = [sizes[i] for i in live]
        order = np.zeros((len(live), n[0]), dtype=np.intp)
        for s, i in enumerate(live):
            order[s, :n[s]] = firsts[i] + rngs[i].permutation(n[s])
        for start, runs in schedule:
            stack.step([rows[order[lo:hi, start:start + size]]
                        for lo, hi, size in runs])

        losses = [loss for run in _error_runs(arch, stack.flat,
                                              [Xs[i] for i in live])
                  for loss in run.mean(axis=1).tolist()]
        kept = []
        for s, (i, loss) in enumerate(zip(live, losses)):
            if not np.isfinite(loss):
                raise DivergedLoss(f"activity key {names[i]}: non-finite "
                                   f"training loss {loss}")
            if loss < best_loss[i] - 1e-15:
                best_loss[i] = loss
                best[i] = stack.flat[s]
                stale[i] = 0
            else:
                stale[i] += 1
                if stale[i] >= PATIENCE:
                    continue
            kept.append(s)
        if not kept:
            break
        if len(kept) < len(live):
            stack.keep(kept)
            live = [live[s] for s in kept]
            schedule = _schedule([sizes[i] for i in live])

    return best, [e.tolist() for run in _error_runs(arch, best, Xs)
                  for e in run]


def fit_many(models: Iterable[AEModel], datas: Sequence[Sequence],
             epochs: int) -> List[Tuple[AEModel, List[float]]]:
    """Train each model on its own benign feature vectors with Adam, all
    in lockstep; returns each trained model and its final per-sample
    reconstruction errors on its training set, in the order of
    ``models``.

    Each model trains as it would alone: it keeps the best-loss weights
    seen (including the initial ones), so its final mean training loss
    never exceeds the initial one.  Raises EmptyData for the first model
    without vectors, before any training, and DivergedLoss naming the
    model's position ("activity key j") on a non-finite loss or gradient.
    ``models`` holds one model per training set and is read once, in
    order, so it may be a generator: only each model's seed and weights
    are kept, as a row of one buffer that the trained weights replace.
    """
    seeds, Xs = [], []
    for j, (model, data) in enumerate(zip(models, datas, strict=True)):
        if j == 0:
            arch = model.arch
            weights = np.empty((len(datas), _flat_len(arch)))
        elif model.arch != arch:
            raise BadArchitecture(f"activity key {j}: every model must "
                                  f"share one architecture")
        if len(data) == 0:
            raise EmptyData(f"activity key {j}: no training vectors")
        weights[j] = _flatten(model.params)
        seeds.append(model.rng_seed)
        Xs.append(_check_input(arch, data)
                  if isinstance(data, np.ndarray) and data.ndim == 2
                  else np.stack([_check_input(arch, v) for v in data]))
    if not Xs:
        return []
    errors: List[List[float]] = [None] * len(Xs)
    by_size = sorted(range(len(Xs)), key=lambda j: -len(Xs[j]))
    for at in range(0, len(by_size), STACK):
        names = by_size[at:at + STACK]
        weights[names], stack_errors = _fit_stack(
            arch, weights[names], [seeds[j] for j in names],
            [Xs[j] for j in names], names, epochs)
        for j, e in zip(names, stack_errors):
            errors[j] = e
    return [(AEModel(arch, _flat_views(weights[j, :-1], arch), seeds[j]),
             errors[j]) for j in range(len(Xs))]


def fit(model: AEModel, data: Sequence, epochs: int
        ) -> Tuple[AEModel, List[float]]:
    """fit_many of one model.  No stage calls it; the traced benchmark
    (bench/stage.py) wraps it by name."""
    return fit_many([model], [data], epochs)[0]


def grad_check(model: AEModel, x, eps: float = 1e-5) -> float:
    """Max relative discrepancy between a training step's gradient of the
    MSE loss and central finite differences, over every weight."""
    if not 0 < eps <= 1e-2:
        raise ValueError(f"eps must be in (0, 1e-2], got {eps}")
    arch = model.arch
    arr = _check_input(model.arch, x)[None, None, :]
    flat = _flatten(model.params)[None]
    params = _flat_views(flat[0, :-1], arch)
    analytic = _flat_views(_Stack(arch, flat, [0]).gradients([arr])[0], arch)

    def loss_at():
        return float(_batch_errors(arch, flat, arr)[0, 0])

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
