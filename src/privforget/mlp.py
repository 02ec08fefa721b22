"""A small feed-forward classifier trained from scratch in numpy.

Architecture: dense layers sized by layer_dims, ReLU on hidden layers,
softmax output, mean cross-entropy loss, Adam updates.  Parameters are
float32, and training runs in float32: each batch is cast as it is gathered
from the float64 encoded matrix, which is never copied whole.  Prediction
casts its input to float64, so probabilities are float64 computed from the
float32 parameters.  Every source of randomness is derived from explicit
integer seeds, so training twice with the same inputs produces bit-identical
parameters.  Models serialize to a binary format that round-trips exactly.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import seeds
from .data import EncodedMatrix


class ModelError(ValueError):
    pass


class TrainingDiverged(RuntimeError):
    """Raised when a training batch produces a non-finite loss."""


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 512
    learning_rate: float = 1e-2
    epochs: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ModelError(f"batch_size must be positive, got {self.batch_size}")
        if self.learning_rate <= 0:
            raise ModelError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.epochs < 0:
            raise ModelError(f"epochs must be non-negative, got {self.epochs}")
        if self.seed < 0:
            raise ModelError(f"seed must be non-negative, got {self.seed}")

    def with_(self, **kw) -> "TrainConfig":
        return replace(self, **kw)


@dataclass(frozen=True)
class MlpModel:
    """Immutable float32 parameter set."""

    layer_dims: tuple[int, ...]
    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.layer_dims)
        if len(dims) < 2 or any(d < 1 for d in dims):
            raise ModelError(f"layer_dims must be >= 2 positive sizes, got {dims}")
        ws = tuple(np.array(w, dtype=np.float32, copy=True) for w in self.weights)
        bs = tuple(np.array(b, dtype=np.float32, copy=True) for b in self.biases)
        if len(ws) != len(dims) - 1 or len(bs) != len(dims) - 1:
            raise ModelError("need one weight matrix and bias vector per layer")
        for i, (w, b) in enumerate(zip(ws, bs)):
            if w.shape != (dims[i], dims[i + 1]) or b.shape != (dims[i + 1],):
                raise ModelError(
                    f"layer {i}: expected shapes {(dims[i], dims[i + 1])} and "
                    f"({dims[i + 1]},), got {w.shape} and {b.shape}"
                )
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise ModelError(f"layer {i}: non-finite parameters")
            w.setflags(write=False)
            b.setflags(write=False)
        object.__setattr__(self, "layer_dims", dims)
        object.__setattr__(self, "weights", ws)
        object.__setattr__(self, "biases", bs)

    @property
    def n_inputs(self) -> int:
        return self.layer_dims[0]

    @property
    def n_classes(self) -> int:
        return self.layer_dims[-1]


def init(layer_dims, seed: int) -> MlpModel:
    """Glorot-uniform weights, zero biases, deterministic under seed."""
    dims = tuple(int(d) for d in layer_dims)
    rng = seeds.stream(seed, seeds.GLOROT_INIT)
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        a = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-a, a, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MlpModel(dims, tuple(weights), tuple(biases))


def models_equal(a: MlpModel, b: MlpModel) -> bool:
    """Bitwise parameter equality."""
    if a.layer_dims != b.layer_dims:
        return False
    return all(
        np.array_equal(wa, wb) and np.array_equal(ba, bb)
        for wa, wb, ba, bb in zip(a.weights, b.weights, a.biases, b.biases)
    )


# ---------------------------------------------------------------------------
# forward

def _check_features(model: MlpModel, features: np.ndarray) -> np.ndarray:
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.n_inputs:
        raise ModelError(
            f"model expects {model.n_inputs} input columns, got shape {x.shape}"
        )
    return x


def _affine_relu_stack(weights, biases, x: np.ndarray) -> list[np.ndarray]:
    """Every layer's activations, x first: ReLU on hidden layers, the last
    layer linear.  Each layer's output is one array, computed in place."""
    act = [x]
    for i, (w, b) in enumerate(zip(weights, biases)):
        z = act[-1] @ w
        z += b
        if i < len(weights) - 1:
            np.maximum(z, 0.0, out=z)
        act.append(z)
    return act


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    # the row max over a class-major copy: numpy's axis-1 max steps through
    # a few classes at a time, and a max is exact in any order
    shifted = logits - np.ascontiguousarray(logits.T).max(axis=0)[:, None]
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def forward(model: MlpModel, features: np.ndarray) -> np.ndarray:
    """Class probabilities, one row per example; rows sum to 1."""
    x = _check_features(model, features)
    logits = _affine_relu_stack(model.weights, model.biases, x)[-1]
    return np.exp(_log_softmax(logits))


# ---------------------------------------------------------------------------
# training

# Adam's moment decay rates and denominator offset
_BETA1 = 0.9
_BETA2 = 0.999
_ADAM_EPS = 1e-8


def _batch_gradients(model_params, x, y):
    """Mean cross-entropy loss and its gradients for one batch."""
    weights, biases = model_params
    n_layers = len(weights)
    act = _affine_relu_stack(weights, biases, x)
    logp = _log_softmax(act[-1])
    batch = x.shape[0]
    loss = float(-logp[np.arange(batch), y].mean())

    probs = np.exp(logp)
    dz = probs
    dz[np.arange(batch), y] -= 1.0
    dz /= batch
    grads_w = [None] * n_layers
    grads_b = [None] * n_layers
    for i in range(n_layers - 1, -1, -1):
        grads_w[i] = act[i].T @ dz
        grads_b[i] = dz.sum(axis=0)
        if i > 0:
            # relu(z) > 0 exactly where z > 0: the ReLU's derivative
            dz = (dz @ weights[i].T) * (act[i] > 0.0)
    return loss, grads_w, grads_b


def _outside(values: np.ndarray, stop: int):
    """The least or the greatest of values if it lies outside [0, stop), else None."""
    lo, hi = values.min(), values.max()
    return lo if lo < 0 else hi if hi >= stop else None


def train(
    model: MlpModel, data: EncodedMatrix, cfg: TrainConfig, rows: np.ndarray | None = None
) -> MlpModel:
    """Run cfg.epochs of minibatch Adam; returns a new model, input untouched.

    The example order of epoch e is a deterministic function of
    (cfg.seed, e) alone, so training is bit-reproducible.  Training runs on
    rows (an integer index array, every row of data by default) in that
    order and gives the same bits as training on data.take(rows), without
    copying them: each batch is gathered from data directly.

    The parameters and both Adam moments are each one flat float32 vector,
    the layers' weights and biases views of it, and each batch's gradients
    are concatenated into one: an Adam step is 14 whole-vector ufuncs.  At
    each epoch's end, first moments below the smallest normal float32 are
    set to 0: such an entry moves its parameter by about 1e-31, under half
    an ulp of any parameter above ~1e-24, and leaving it makes later steps
    compute in subnormals.
    """
    x = _check_features(model, data.features)
    y = data.labels
    rows = np.arange(data.n_rows) if rows is None else np.asarray(rows)
    if rows.ndim != 1 or rows.dtype.kind not in "iu":
        raise ModelError(f"rows must be a 1-d integer array, got {rows.dtype} {rows.shape}")
    n = len(rows)
    if n:
        row = _outside(rows, data.n_rows)
        if row is not None:
            raise ModelError(f"row {row} outside the matrix's {data.n_rows} rows")
        label = _outside(y[rows], model.n_classes)
        if label is not None:
            raise ModelError(f"label {label} outside the model's class range [0, {model.n_classes})")

    # layer by layer, its weights then its bias; views(flat) are those of
    # each layer in a flat vector
    parts = [p for layer in zip(model.weights, model.biases) for p in layer]
    params = np.concatenate([p.ravel() for p in parts])
    ends = np.cumsum([p.size for p in parts])
    layout = [(slice(end - p.size, end), p.shape) for p, end in zip(parts, ends)]

    def views(flat):
        layers = [flat[at].reshape(shape) for at, shape in layout]
        return layers[0::2], layers[1::2]

    m = np.zeros_like(params)
    v = np.zeros_like(params)
    t = 0

    for epoch in range(cfg.epochs):
        order = rows[seeds.stream(cfg.seed, seeds.EPOCH_SHUFFLE, epoch).permutation(n)]
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            loss, batch_w, batch_b = _batch_gradients(
                views(params), x[idx].astype(np.float32), y[idx]
            )
            if not np.isfinite(loss):
                raise TrainingDiverged(
                    f"non-finite loss at epoch {epoch}, batch {start // cfg.batch_size} "
                    f"(learning_rate={cfg.learning_rate})"
                )
            grads = np.concatenate([g.ravel() for layer in zip(batch_w, batch_b) for g in layer])
            t += 1
            bc1 = 1.0 - _BETA1**t
            bc2 = 1.0 - _BETA2**t
            m = _BETA1 * m + (1.0 - _BETA1) * grads
            v = _BETA2 * v + (1.0 - _BETA2) * grads**2
            params = params - cfg.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + _ADAM_EPS)
        m[np.abs(m) < np.finfo(np.float32).tiny] = 0.0

    return MlpModel(model.layer_dims, *map(tuple, views(params)))


def finetune(model: MlpModel, data: EncodedMatrix, epochs: int, cfg: TrainConfig) -> MlpModel:
    """Continue training an existing model for epochs under cfg's other settings."""
    return train(model, data, cfg.with_(epochs=epochs))


# ---------------------------------------------------------------------------
# serialization
#
# Layout (little-endian): 8-byte magic, uint32 format version, uint32 number
# of layer dims, uint32 dims, then per layer the weight matrix (row-major
# float32) followed by the bias vector.  float32 bytes are written raw, so
# save/load round-trips are bit-exact.  Version 1 held float64 parameters
# and version 2 a training seed and a lineage tag after the dims;
# such files are refused, not converted.

_MODEL_MAGIC = b"PFMLP\x00\x00\x01"
_MODEL_VERSION = 3
_HEADER = 16  # magic, version and the number of dims


def save_model(model: MlpModel, path) -> None:
    dims = model.layer_dims
    with open(path, "wb") as fh:
        fh.write(_MODEL_MAGIC)
        fh.write(struct.pack(f"<II{len(dims)}I", _MODEL_VERSION, len(dims), *dims))
        for w, b in zip(model.weights, model.biases):
            fh.write(np.ascontiguousarray(w, dtype="<f4").tobytes())
            fh.write(np.ascontiguousarray(b, dtype="<f4").tobytes())


def load_model(path) -> MlpModel:
    """The model saved at path.  Every length is checked against the file's
    size before it is read, so a damaged file raises ModelError naming path."""
    raw = Path(path).read_bytes()
    if raw[:8] != _MODEL_MAGIC:
        raise ModelError(f"{path}: not a model file")
    if len(raw) < _HEADER:
        raise ModelError(f"{path}: truncated header")
    version, n_dims = struct.unpack_from("<II", raw, 8)
    if version != _MODEL_VERSION:
        raise ModelError(
            f"{path}: model format version {version} is not supported (expected "
            f"{_MODEL_VERSION}); re-run `privforget run` to rebuild it"
        )
    start = _HEADER + 4 * n_dims
    if start > len(raw):
        raise ModelError(f"{path}: truncated header: {n_dims} layer dims run past the end of the file")
    dims = struct.unpack_from(f"<{n_dims}I", raw, _HEADER)
    n_params = sum(fan_in * fan_out + fan_out for fan_in, fan_out in zip(dims[:-1], dims[1:]))
    if start + 4 * n_params > len(raw):
        raise ModelError(f"{path}: truncated parameter block")
    if start + 4 * n_params < len(raw):
        raise ModelError(f"{path}: trailing bytes after parameters")
    params = np.frombuffer(raw, dtype="<f4", offset=start)
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        w_end = fan_in * fan_out
        weights.append(params[:w_end].reshape(fan_in, fan_out))
        biases.append(params[w_end : w_end + fan_out])
        params = params[w_end + fan_out :]
    try:
        return MlpModel(dims, tuple(weights), tuple(biases))
    except ModelError as exc:
        raise ModelError(f"{path}: {exc}") from None
