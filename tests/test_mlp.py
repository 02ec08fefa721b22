import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import logsumexp

from privforget.attack import (
    ENTROPY_BASED,
    LOSS_BASED,
    mia_from_probs,
    scores_from_probs,
    utility_from_probs,
)
from privforget import mlp, seeds
from privforget.data import DataError, EncodedMatrix, encode
from privforget.mlp import (
    MlpModel,
    ModelError,
    TrainConfig,
    TrainingDiverged,
    _batch_gradients,
    finetune,
    forward,
    init,
    load_model,
    models_equal,
    save_model,
    train,
)

from conftest import make_dataset, write_old_model


def matrix(features, labels):
    return EncodedMatrix(np.asarray(features, float), np.asarray(labels))


def ref_loss(weights, biases, x, y):
    """Mean cross-entropy computed independently of the training code."""
    h = x
    for i, (w, b) in enumerate(zip(weights, biases)):
        z = h @ w + b
        h = np.maximum(z, 0.0) if i < len(weights) - 1 else z
    return float(np.mean(logsumexp(h, axis=1) - h[np.arange(len(y)), y]))


def model_loss(model, data):
    return ref_loss(model.weights, model.biases, data.features, data.labels)


def utility(model, data, metric="accuracy"):
    return utility_from_probs(forward(model, data.features), data.labels, metric)


def fd_gradient_check(dims, seed, n=8, h=1e-6):
    """Max relative error between analytic and central-difference gradients."""
    rng = np.random.default_rng(seed)
    weights = [rng.normal(size=(a, b)) for a, b in zip(dims[:-1], dims[1:])]
    biases = [rng.normal(size=b) for b in dims[1:]]
    x = rng.normal(size=(n, dims[0]))
    y = rng.integers(0, dims[-1], size=n)

    _, grads_w, grads_b = _batch_gradients((weights, biases), x, y)

    worst = 0.0
    for params, grads in ((weights, grads_w), (biases, grads_b)):
        for p, g in zip(params, grads):
            flat = p.reshape(-1)
            for idx in range(flat.size):
                keep = flat[idx]
                flat[idx] = keep + h
                up = ref_loss(weights, biases, x, y)
                flat[idx] = keep - h
                down = ref_loss(weights, biases, x, y)
                flat[idx] = keep
                fd = (up - down) / (2 * h)
                denom = max(abs(fd), abs(g.reshape(-1)[idx]), 1e-8)
                worst = max(worst, abs(fd - g.reshape(-1)[idx]) / denom)
    return worst


def test_gradients_match_finite_differences():
    for seed in range(3):
        assert fd_gradient_check((4, 5, 3), seed) < 1e-5


def test_gradients_match_finite_differences_deep():
    assert fd_gradient_check((3, 4, 4, 2), 11) < 1e-5


def test_init_is_deterministic_and_glorot_bounded():
    a = init((3, 7, 2), seed=4)
    b = init((3, 7, 2), seed=4)
    c = init((3, 7, 2), seed=5)
    assert models_equal(a, b)
    assert not models_equal(a, c)
    for w, (fan_in, fan_out) in zip(a.weights, [(3, 7), (7, 2)]):
        bound = math.sqrt(6.0 / (fan_in + fan_out))
        assert np.abs(w).max() <= bound
    for bias in a.biases:
        assert (bias == 0.0).all()


def test_zero_model_is_uniform():
    model = MlpModel((4, 3), (np.zeros((4, 3)),), (np.zeros(3),))
    x = np.random.default_rng(0).normal(size=(5, 4))
    p = forward(model, x)
    assert np.allclose(p, 1.0 / 3)
    labels = np.array([0, 1, 2, 0, 1])
    mean_loss = -scores_from_probs(p, labels, LOSS_BASED).mean()
    assert mean_loss == pytest.approx(math.log(3), rel=1e-12)
    assert np.allclose(-scores_from_probs(p, labels, ENTROPY_BASED), math.log(3))


def test_forward_hand_example():
    # single linear layer, identity weights: logits equal the inputs
    model = MlpModel((2, 2), (np.eye(2),), (np.zeros(2),))
    p = forward(model, np.array([[1.0, 0.0]]))
    assert p[0, 0] == pytest.approx(math.e / (math.e + 1.0), rel=1e-12)
    assert p.sum() == pytest.approx(1.0)


def test_loss_matches_forward_probabilities(small_dataset):
    """The loss score of forward's probabilities is the log-softmax loss of the logits."""
    em = encode(small_dataset)
    model = init((em.width, 6, 2), seed=0)
    losses = -scores_from_probs(forward(model, em.features), em.labels, LOSS_BASED)
    assert losses.mean() == pytest.approx(model_loss(model, em), rel=1e-10)
    direct = [model_loss(model, matrix(em.features[i : i + 1], em.labels[i : i + 1]))
              for i in range(em.n_rows)]
    assert np.allclose(losses, direct, rtol=1e-10)


def test_zero_epochs_is_identity(small_dataset):
    em = encode(small_dataset)
    model = init((em.width, 5, 2), seed=1)
    out = train(model, em, TrainConfig(epochs=0))
    assert models_equal(model, out)


def test_training_is_deterministic(small_dataset):
    em = encode(small_dataset)
    cfg = TrainConfig(batch_size=32, epochs=3, seed=9)
    model = init((em.width, 8, 2), seed=2)
    a = train(model, em, cfg)
    b = train(model, em, cfg)
    assert models_equal(a, b)
    c = train(model, em, cfg.with_(seed=10))
    assert not models_equal(a, c)


def param_bytes(model):
    return b"".join(a.tobytes() for a in model.weights + model.biases)


def reference_batch_gradients(model_params, x, y):
    """Loss and gradients as computed before the layer stack ran in place:
    a new array for every affine step and ReLU, kept with its pre-activation."""
    weights, biases = model_params
    pre, act = [], [x]
    h = x
    for i, (w, b) in enumerate(zip(weights, biases)):
        z = h @ w + b
        pre.append(z)
        h = np.maximum(z, 0.0) if i < len(weights) - 1 else z
        act.append(h)
    logp = h - h.max(axis=1, keepdims=True)
    logp = logp - np.log(np.exp(logp).sum(axis=1, keepdims=True))
    batch = x.shape[0]
    loss = float(-logp[np.arange(batch), y].mean())
    dz = np.exp(logp)
    dz[np.arange(batch), y] -= 1.0
    dz /= batch
    grads_w = [None] * len(weights)
    grads_b = [None] * len(weights)
    for i in range(len(weights) - 1, -1, -1):
        grads_w[i] = act[i].T @ dz
        grads_b[i] = dz.sum(axis=0)
        if i > 0:
            dz = (dz @ weights[i].T) * (pre[i - 1] > 0.0)
    return loss, grads_w, grads_b


@pytest.mark.parametrize("hidden", [(8,), (8, 5)])
def test_in_place_stack_trains_the_reference_bits(small_dataset, monkeypatch, hidden):
    """Training through the in-place layer stack gives the model bytes of
    training through the reference, for one hidden layer and for two."""
    em = encode(small_dataset)
    model = init((em.width, *hidden, 2), seed=2)
    cfg = TrainConfig(batch_size=32, epochs=3, seed=9)
    trained = train(model, em, cfg)
    monkeypatch.setattr(mlp, "_batch_gradients", reference_batch_gradients)
    reference = train(model, em, cfg)
    assert param_bytes(trained) == param_bytes(reference)


def reference_train(model, data, cfg, rows=None):
    """train with Adam run per parameter array: a first and second moment
    for each weight matrix and bias vector, 56 ufunc calls a step for two
    layers, and no flush of subnormal moments.  Also returns the most
    float32 subnormals its first moments held at the end of an epoch."""
    x, y = data.features, data.labels
    rows = np.arange(data.n_rows) if rows is None else rows
    n = len(rows)
    weights = [np.array(w) for w in model.weights]
    biases = [np.array(b) for b in model.biases]
    m_w = [np.zeros_like(w) for w in weights]
    v_w = [np.zeros_like(w) for w in weights]
    m_b = [np.zeros_like(b) for b in biases]
    v_b = [np.zeros_like(b) for b in biases]
    t = 0
    most_subnormal = 0
    for epoch in range(cfg.epochs):
        order = rows[seeds.stream(cfg.seed, seeds.EPOCH_SHUFFLE, epoch).permutation(n)]
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            _, grads_w, grads_b = _batch_gradients(
                (weights, biases), x[idx].astype(np.float32), y[idx]
            )
            t += 1
            bc1 = 1.0 - 0.9**t
            bc2 = 1.0 - 0.999**t
            for params, grads, ms, vs in (
                (weights, grads_w, m_w, v_w),
                (biases, grads_b, m_b, v_b),
            ):
                for i in range(len(params)):
                    ms[i] = 0.9 * ms[i] + (1.0 - 0.9) * grads[i]
                    vs[i] = 0.999 * vs[i] + (1.0 - 0.999) * grads[i] ** 2
                    step = cfg.learning_rate * (ms[i] / bc1) / (np.sqrt(vs[i] / bc2) + 1e-8)
                    params[i] = params[i] - step
        subnormal = sum(
            np.count_nonzero((m != 0) & (np.abs(m) < np.finfo(np.float32).tiny))
            for m in m_w + m_b
        )
        most_subnormal = max(most_subnormal, int(subnormal))
    return MlpModel(model.layer_dims, tuple(weights), tuple(biases)), most_subnormal


@pytest.mark.parametrize("hidden", [(8,), (8, 5)])
def test_flat_adam_trains_the_reference_bits(small_dataset, hidden):
    """Adam on flat vectors gives the model bytes of Adam per parameter
    array, for one hidden layer and for two, on every row and on rows=."""
    em = encode(small_dataset)
    model = init((em.width, *hidden, 2), seed=2)
    cfg = TrainConfig(batch_size=32, epochs=3, seed=9)
    assert param_bytes(train(model, em, cfg)) == param_bytes(reference_train(model, em, cfg)[0])
    rows = np.random.default_rng(0).permutation(em.n_rows)[:45]
    assert param_bytes(train(model, em, cfg, rows=rows)) == param_bytes(
        reference_train(model, em, cfg, rows=rows)[0]
    )


def test_flushing_subnormal_moments_keeps_the_reference_bits():
    """120 epochs of 7 batches leave float32 subnormals in the reference's
    first moments (dead hidden units see zero gradients, and their moments
    decay by 0.9 a step); train flushes them to 0 at each epoch's end and
    still gives the reference's model bytes."""
    em = encode(make_dataset(200, seed=0))
    model = init((em.width, 16, 2), seed=2)
    cfg = TrainConfig(batch_size=32, epochs=120, seed=9)
    reference, most_subnormal = reference_train(model, em, cfg)
    assert most_subnormal > 0
    assert param_bytes(train(model, em, cfg)) == param_bytes(reference)


def axis1_log_softmax(logits):
    """The log-softmax with its row max reduced along axis 1."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


@pytest.mark.parametrize("n_classes", [2, 3, 7, 8, 9, 100])
def test_log_softmax_bits_match_the_axis1_max(n_classes):
    """_log_softmax takes its row max over a class-major copy and gives the
    bits of the axis-1 max, with tied logits and logits near +-1e30, in
    float32 (training) and float64 (forward); forward's probabilities are
    those of the axis-1 formula byte for byte."""
    rng = np.random.default_rng(n_classes)
    logits = rng.normal(scale=4.0, size=(40, n_classes))
    logits[0] = 1.5  # every class tied
    logits[1, :2] = logits[1].max() + 1.0  # two tied maxima
    logits[2] = rng.choice([-1e30, 1e30], size=n_classes)
    logits[3] = 1e30
    logits[4] = -1e30
    logits[5, -1] = 1e30
    for dtype in (np.float32, np.float64):
        z = logits.astype(dtype)
        assert mlp._log_softmax(z).tobytes() == axis1_log_softmax(z).tobytes()
    model = init((6, 8, n_classes), seed=1)
    x = rng.normal(size=(50, 6))
    logits = mlp._affine_relu_stack(model.weights, model.biases, x)[-1]
    assert forward(model, x).tobytes() == np.exp(axis1_log_softmax(logits)).tobytes()


def test_forward_holds_one_hidden_activation():
    """forward on 8,000 rows at the CLI's layer sizes computes its hidden
    layer in place: no pre-activation copy and no second ReLU output."""
    model = init((104, 128, 2), seed=0)
    x = np.random.default_rng(0).random((8000, 104))
    tracemalloc.start()
    try:
        probs = forward(model, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    hidden_bytes = 8000 * 128 * 8
    assert peak < 1.5 * (hidden_bytes + probs.nbytes)


def test_train_casts_each_batch_not_the_matrix():
    """train on 15,000 x 104 float64 rows casts each gathered batch to
    float32: its peak traced memory stays under a quarter of the matrix,
    where one whole float32 copy of it would take half."""
    rng = np.random.default_rng(0)
    data = matrix(rng.random((15000, 104)), rng.integers(0, 2, 15000))
    model = init((104, 128, 2), seed=0)
    tracemalloc.start()
    try:
        train(model, data, TrainConfig(epochs=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < data.features.nbytes / 4


def test_train_on_rows_equals_train_on_take(small_dataset):
    """Training on rows of a matrix gives the bits of training on their copy."""
    em = encode(small_dataset)
    model = init((em.width, 8, 2), seed=2)
    cfg = TrainConfig(batch_size=16, epochs=3, seed=9)
    # 45 rows in no sorted order: two full batches and a partial one of 13
    rows = np.random.default_rng(0).permutation(em.n_rows)[:45]
    on_rows = train(model, em, cfg, rows=rows)
    assert param_bytes(on_rows) == param_bytes(train(model, em.take(rows), cfg))
    assert param_bytes(on_rows) != param_bytes(train(model, em, cfg))
    assert param_bytes(train(model, em, cfg, rows=np.arange(em.n_rows))) == param_bytes(
        train(model, em, cfg)
    )
    with pytest.raises(ModelError, match="1-d integer"):
        train(model, em, cfg, rows=rows.astype(float))
    with pytest.raises(ModelError, match="class range"):
        bad = matrix(em.features, np.where(np.arange(em.n_rows) == rows[3], 5, em.labels))
        train(model, bad, cfg, rows=rows)


def test_train_refuses_rows_and_labels_out_of_range():
    """A row outside [0, n_rows) or a label outside [0, n_classes) is refused
    naming it, not wrapped around by numpy's negative indexing."""
    rng = np.random.default_rng(0)
    data = matrix(rng.random((20, 3)), rng.integers(0, 2, 20))
    model = init((3, 4, 2), seed=0)
    cfg = TrainConfig(batch_size=8, epochs=1)
    for rows, bad in (([-1, 0, 1], -1), ([20, 0], 20), ([0, 19, 25], 25)):
        with pytest.raises(ModelError, match=rf"row {bad} outside the matrix's 20 rows"):
            train(model, data, cfg, rows=np.array(rows))
    for label in (-1, 2, 7):
        labels = data.labels.copy()
        labels[5] = label
        with pytest.raises(ModelError, match=rf"label {label} outside the model's class range \[0, 2\)"):
            train(model, matrix(data.features, labels), cfg)
    # a bad label outside the rows trained on is not read
    labels = data.labels.copy()
    labels[5] = -1
    train(model, matrix(data.features, labels), cfg, rows=np.arange(5))


def test_training_reduces_loss_and_fits_blobs():
    ds = make_dataset(400, seed=3, class_sep=4.0)
    em = encode(ds)
    model = init((em.width, 16, 2), seed=0)
    before = model_loss(model, em)
    trained = train(model, em, TrainConfig(batch_size=64, epochs=30, seed=0))
    after = model_loss(trained, em)
    assert after < before * 0.5
    assert utility(trained, em) >= 0.99


def test_divergence_is_reported():
    ds = make_dataset(64, seed=0)
    em = encode(ds)
    model = init((em.width, 4, 2), seed=0)
    cfg = TrainConfig(batch_size=16, epochs=3, learning_rate=1e200)
    with np.errstate(all="ignore"), pytest.raises(TrainingDiverged, match="epoch"):
        train(model, em, cfg)


def test_label_and_width_validation(small_dataset):
    em = encode(small_dataset)
    model = init((em.width, 4, 2), seed=0)
    bad_labels = matrix(em.features, np.full(em.n_rows, 5))
    with pytest.raises(DataError, match="label 5 outside the 2 columns"):
        scores_from_probs(forward(model, em.features), bad_labels.labels, LOSS_BASED)
    with pytest.raises(ModelError, match="input columns"):
        forward(model, em.features[:, :3])
    with pytest.raises(ModelError, match="class range"):
        train(model, bad_labels, TrainConfig(epochs=1))


def test_model_shape_validation():
    with pytest.raises(ModelError, match="layer_dims"):
        MlpModel((4,), (), ())
    with pytest.raises(ModelError, match="shapes"):
        MlpModel((2, 3), (np.zeros((3, 2)),), (np.zeros(3),))
    with pytest.raises(ModelError, match="non-finite"):
        MlpModel((2, 2), (np.full((2, 2), np.inf),), (np.zeros(2),))


def test_train_config_validation():
    with pytest.raises(ModelError):
        TrainConfig(batch_size=0)
    with pytest.raises(ModelError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ModelError):
        TrainConfig(epochs=-1)
    with pytest.raises(ModelError):
        TrainConfig(seed=-1)


def test_finetune_is_train_for_its_epochs(small_dataset):
    em = encode(small_dataset)
    base = init((em.width, 4, 2), seed=0)
    tuned = finetune(base, em, 2, TrainConfig(seed=3))
    assert models_equal(tuned, train(base, em, TrainConfig(epochs=2, seed=3)))
    assert not models_equal(tuned, base)
    with pytest.raises(ModelError, match="epochs must be non-negative, got -1"):
        finetune(base, em, -1, TrainConfig())


def test_auc_utility():
    # scores proportional to the first feature separate the classes perfectly
    model = MlpModel((1, 2), (np.array([[0.0, 4.0]]),), (np.zeros(2),))
    data = matrix([[-2.0], [-1.0], [1.0], [2.0]], [0, 0, 1, 1])
    assert utility(model, data, "auc") == 1.0
    three = init((1, 3), seed=0)
    with pytest.raises(DataError, match="binary"):
        utility(three, data, "auc")


def test_empty_metrics_raise():
    model = init((2, 2), seed=0)
    empty = matrix(np.empty((0, 2)), np.empty(0, dtype=int))
    probs = forward(model, empty.features)
    with pytest.raises(DataError):
        mia_from_probs(probs, empty.labels, probs, empty.labels)
    with pytest.raises(DataError):
        utility(model, empty)


def test_save_load_round_trip(tmp_path):
    """Parameters are float32 after init, train, finetune and a save/load
    round trip, which is bit-exact; the file holds 4 bytes per parameter
    after its header, and forward still computes float64 probabilities."""
    ds = make_dataset(80, seed=1)
    em = encode(ds)
    base = init((em.width, 6, 2), seed=7)
    trained = train(base, em, TrainConfig(batch_size=20, epochs=2, seed=7))
    model = finetune(trained, em, 1, TrainConfig(batch_size=20, seed=8))
    path = tmp_path / "m.model"
    save_model(model, path)
    back = load_model(path)
    assert models_equal(model, back)
    assert back.layer_dims == model.layer_dims
    for m in (base, trained, model, back):
        assert {a.dtype for a in m.weights + m.biases} == {np.dtype(np.float32)}
    # magic, version and dim count, dims
    header = 16 + 4 * len(back.layer_dims)
    n_params = sum(a.size for a in back.weights + back.biases)
    assert path.stat().st_size == header + 4 * n_params
    probs = forward(back, em.features)
    assert probs.dtype == np.float64
    assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-12


def test_load_model_rejects_corruption(tmp_path):
    """A damaged model file raises ModelError naming the file, whichever
    of its lengths is wrong, and a file of an older format is refused."""
    model = init((2, 3, 2), seed=0)
    path = tmp_path / "m.model"
    save_model(model, path)
    raw = path.read_bytes()
    assert len(raw) == 16 + 4 * 3 + 4 * 17

    def refused(name, data, message):
        (tmp_path / name).write_bytes(data)
        with pytest.raises(ModelError) as err:
            load_model(tmp_path / name)
        assert str(err.value).startswith(f"{tmp_path / name}: {message}"), err.value

    refused("magic.model", b"XXXXXXXX" + raw[8:], "not a model file")
    refused("empty.model", b"", "not a model file")
    # cut inside the version and dims count, inside the dims, and inside the parameters
    refused("cut12.model", raw[:12], "truncated header")
    refused("cut20.model", raw[:20], "truncated header: 3 layer dims run past the end")
    refused("cut30.model", raw[:30], "truncated parameter block")
    refused("short.model", raw[:-9], "truncated parameter block")
    refused("long.model", raw + b"\x00", "trailing bytes after parameters")
    many_dims = raw[:12] + (10**6).to_bytes(4, "little") + raw[16:]
    refused("many_dims.model", many_dims, "truncated header: 1000000 layer dims run past the end")
    refused("one_dim.model", raw[:12] + (1).to_bytes(4, "little") + raw[16:20], "layer_dims must be")

    for version in (1, 2):
        old = tmp_path / f"version{version}.model"
        write_old_model(model, old, version)
        with pytest.raises(ModelError) as err:
            load_model(old)
        message = str(err.value)
        assert message.startswith(f"{old}: model format version {version} is not supported"), message
        assert "re-run `privforget run` to rebuild it" in message
