"""A small feed-forward classifier trained from scratch in numpy.

Architecture: dense layers sized by layer_dims, ReLU on hidden layers,
softmax output, mean cross-entropy loss, Adam updates.  Everything runs in
float64 and every source of randomness is derived from explicit integer
seeds, so training twice with the same inputs produces bit-identical
parameters.  Models serialize to a binary format that round-trips exactly.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from . import seeds
from .data import DataError, EncodedMatrix


class ModelError(ValueError):
    pass


class TrainingDiverged(RuntimeError):
    """Raised when a training batch produces a non-finite loss."""


def _rng(*entropy: int) -> np.random.Generator:
    for e in entropy:
        if e < 0:
            raise ModelError(f"seed components must be non-negative, got {entropy}")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(list(entropy))))


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 512
    learning_rate: float = 1e-2
    epochs: int = 100
    seed: int = 0
    shuffle: bool = True
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8

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
        import dataclasses

        return dataclasses.replace(self, **kw)


@dataclass(frozen=True)
class MlpModel:
    """Immutable parameter set plus a provenance tag and the training seed."""

    layer_dims: tuple[int, ...]
    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]
    provenance: str = "original"
    train_seed: int = 0

    def __post_init__(self):
        dims = tuple(int(d) for d in self.layer_dims)
        if len(dims) < 2 or any(d < 1 for d in dims):
            raise ModelError(f"layer_dims must be >= 2 positive sizes, got {dims}")
        ws = tuple(np.array(w, dtype=np.float64, copy=True) for w in self.weights)
        bs = tuple(np.array(b, dtype=np.float64, copy=True) for b in self.biases)
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


def init(layer_dims, seed: int, provenance: str = "original") -> MlpModel:
    """Glorot-uniform weights, zero biases, deterministic under seed."""
    dims = tuple(int(d) for d in layer_dims)
    rng = _rng(seed, seeds.GLOROT_INIT)
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        a = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-a, a, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MlpModel(dims, tuple(weights), tuple(biases), provenance, seed)


def models_equal(a: MlpModel, b: MlpModel) -> bool:
    """Bitwise parameter equality (provenance tags not compared)."""
    if a.layer_dims != b.layer_dims:
        return False
    return all(
        np.array_equal(wa, wb) and np.array_equal(ba, bb)
        for wa, wb, ba, bb in zip(a.weights, b.weights, a.biases, b.biases)
    )


# ---------------------------------------------------------------------------
# forward / loss

def _check_features(model: MlpModel, features: np.ndarray) -> np.ndarray:
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.n_inputs:
        raise ModelError(
            f"model expects {model.n_inputs} input columns, got shape {x.shape}"
        )
    return x


def _affine_relu_stack(weights, biases, x: np.ndarray):
    """Pre-activations and activations for every layer; last layer is linear."""
    pre, act = [], [x]
    h = x
    for i, (w, b) in enumerate(zip(weights, biases)):
        z = h @ w + b
        pre.append(z)
        h = np.maximum(z, 0.0) if i < len(weights) - 1 else z
        act.append(h)
    return pre, act


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def forward(model: MlpModel, features: np.ndarray) -> np.ndarray:
    """Class probabilities, one row per example; rows sum to 1."""
    x = _check_features(model, features)
    _, act = _affine_relu_stack(model.weights, model.biases, x)
    return np.exp(_log_softmax(act[-1]))


def loss_per_example(model: MlpModel, data: EncodedMatrix) -> np.ndarray:
    """Cross-entropy -log p(true class), per example."""
    x = _check_features(model, data.features)
    if data.n_rows and data.labels.max() >= model.n_classes:
        raise ModelError("label outside the model's class range")
    _, act = _affine_relu_stack(model.weights, model.biases, x)
    logp = _log_softmax(act[-1])
    return -logp[np.arange(data.n_rows), data.labels]


def entropy_per_example(model: MlpModel, features: np.ndarray) -> np.ndarray:
    """Shannon entropy (nats) of the predictive distribution, per example."""
    p = forward(model, features)
    plogp = np.where(p > 0.0, p * np.log(np.where(p > 0.0, p, 1.0)), 0.0)
    return -plogp.sum(axis=1)


def mean_loss(model: MlpModel, data: EncodedMatrix) -> float:
    if data.n_rows == 0:
        raise ModelError("mean loss of an empty dataset is undefined")
    return float(loss_per_example(model, data).mean())


def utility_from_probs(probs: np.ndarray, labels: np.ndarray, metric: str) -> float:
    """Accuracy, or binary ROC-AUC of the positive-class (label 1) probability,
    of a probability matrix (one model's or an ensemble's)."""
    from . import attack

    if len(labels) == 0:
        raise ModelError(f"{metric} of an empty dataset is undefined")
    if metric == "accuracy":
        return float((np.argmax(probs, axis=1) == labels).mean())
    if metric != "auc":
        raise ModelError(f"unknown utility metric {metric!r}")
    if probs.shape[1] != 2:
        raise ModelError("AUC utility is defined for binary classifiers")
    pos = probs[labels == 1, 1]
    neg = probs[labels == 0, 1]
    if len(pos) == 0 or len(neg) == 0:
        raise ModelError("AUC needs both classes present")
    return attack.roc_auc(pos, neg)


def accuracy(model: MlpModel, data: EncodedMatrix) -> float:
    return utility_from_probs(forward(model, data.features), data.labels, "accuracy")


def auc_utility(model: MlpModel, data: EncodedMatrix) -> float:
    """Binary ROC-AUC of the positive-class (label 1) probability."""
    return utility_from_probs(forward(model, data.features), data.labels, "auc")


# ---------------------------------------------------------------------------
# training

def _batch_gradients(model_params, x, y, n_classes):
    """Mean cross-entropy loss and its gradients for one batch."""
    weights, biases = model_params
    n_layers = len(weights)
    pre, act = _affine_relu_stack(weights, biases, x)
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
            dz = (dz @ weights[i].T) * (pre[i - 1] > 0.0)
    return loss, grads_w, grads_b


def train(model: MlpModel, data: EncodedMatrix, cfg: TrainConfig) -> MlpModel:
    """Run cfg.epochs of minibatch Adam; returns a new model, input untouched.

    The example order of epoch e is a deterministic function of
    (cfg.seed, e) alone, so training is bit-reproducible.
    """
    x = _check_features(model, data.features)
    y = data.labels
    if data.n_rows and y.max() >= model.n_classes:
        raise ModelError("label outside the model's class range")

    weights = [np.array(w) for w in model.weights]
    biases = [np.array(b) for b in model.biases]
    m_w = [np.zeros_like(w) for w in weights]
    v_w = [np.zeros_like(w) for w in weights]
    m_b = [np.zeros_like(b) for b in biases]
    v_b = [np.zeros_like(b) for b in biases]
    t = 0
    n = data.n_rows

    for epoch in range(cfg.epochs):
        if cfg.shuffle:
            order = _rng(cfg.seed, seeds.EPOCH_SHUFFLE, epoch).permutation(n)
        else:
            order = np.arange(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            loss, grads_w, grads_b = _batch_gradients(
                (weights, biases), x[idx], y[idx], model.n_classes
            )
            if not np.isfinite(loss):
                raise TrainingDiverged(
                    f"non-finite loss at epoch {epoch}, batch {start // cfg.batch_size} "
                    f"(learning_rate={cfg.learning_rate})"
                )
            t += 1
            bc1 = 1.0 - cfg.beta1**t
            bc2 = 1.0 - cfg.beta2**t
            for params, grads, ms, vs in (
                (weights, grads_w, m_w, v_w),
                (biases, grads_b, m_b, v_b),
            ):
                for i in range(len(params)):
                    ms[i] = cfg.beta1 * ms[i] + (1.0 - cfg.beta1) * grads[i]
                    vs[i] = cfg.beta2 * vs[i] + (1.0 - cfg.beta2) * grads[i] ** 2
                    step = cfg.learning_rate * (ms[i] / bc1) / (np.sqrt(vs[i] / bc2) + cfg.adam_eps)
                    params[i] = params[i] - step

    return MlpModel(
        model.layer_dims, tuple(weights), tuple(biases), model.provenance, cfg.seed
    )


def finetune(model: MlpModel, data: EncodedMatrix, epochs: int, cfg: TrainConfig) -> MlpModel:
    """Continue training an existing model; provenance records the lineage."""
    if epochs < 0:
        raise ModelError(f"epochs must be non-negative, got {epochs}")
    tuned = train(model, data, cfg.with_(epochs=epochs))
    provenance = f"finetuned({model.provenance},epochs={epochs})"
    return MlpModel(
        tuned.layer_dims, tuned.weights, tuned.biases, provenance, cfg.seed
    )


# ---------------------------------------------------------------------------
# serialization
#
# Layout (little-endian): 8-byte magic, uint32 format version, uint32 number
# of layer dims, uint32 dims, int64 train_seed, uint32 provenance byte
# length, utf-8 provenance, then per layer the weight matrix (row-major
# float64) followed by the bias vector.  float64 bytes are written raw, so
# save/load round-trips are bit-exact.

_MODEL_MAGIC = b"PFMLP\x00\x00\x01"
_MODEL_VERSION = 1


def save_model(model: MlpModel, path) -> None:
    with open(path, "wb") as fh:
        fh.write(_MODEL_MAGIC)
        fh.write(struct.pack("<II", _MODEL_VERSION, len(model.layer_dims)))
        fh.write(struct.pack(f"<{len(model.layer_dims)}I", *model.layer_dims))
        fh.write(struct.pack("<q", model.train_seed))
        tag = model.provenance.encode("utf-8")
        fh.write(struct.pack("<I", len(tag)))
        fh.write(tag)
        for w, b in zip(model.weights, model.biases):
            fh.write(np.ascontiguousarray(w, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(b, dtype="<f8").tobytes())


def load_model(path) -> MlpModel:
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != _MODEL_MAGIC:
            raise ModelError(f"{path}: not a model file")
        version, n_dims = struct.unpack("<II", fh.read(8))
        if version != _MODEL_VERSION:
            raise ModelError(f"{path}: unsupported model format version {version}")
        dims = struct.unpack(f"<{n_dims}I", fh.read(4 * n_dims))
        (train_seed,) = struct.unpack("<q", fh.read(8))
        (tag_len,) = struct.unpack("<I", fh.read(4))
        provenance = fh.read(tag_len).decode("utf-8")
        weights, biases = [], []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            wbuf = fh.read(8 * fan_in * fan_out)
            bbuf = fh.read(8 * fan_out)
            if len(wbuf) != 8 * fan_in * fan_out or len(bbuf) != 8 * fan_out:
                raise ModelError(f"{path}: truncated parameter block")
            weights.append(np.frombuffer(wbuf, dtype="<f8").reshape(fan_in, fan_out))
            biases.append(np.frombuffer(bbuf, dtype="<f8"))
        if fh.read(1):
            raise ModelError(f"{path}: trailing bytes after parameters")
    return MlpModel(dims, tuple(weights), tuple(biases), provenance, train_seed)
