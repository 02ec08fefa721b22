"""Acceptance gate: one test per release criterion, tolerances pinned.

Each test times its own core work and asserts the documented budget.  The
two tests that need the adult income dataset skip, with instructions, when
the prepared CSVs are absent; everything else is self-contained.
"""
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
from scipy.special import logsumexp

from privforget import mlp
from privforget.attack import (
    balanced_pair,
    mia_from_probs,
    roc_auc,
    utility_from_probs,
)
from privforget.data import (
    AttributeSchema,
    ForgetRequest,
    Provenance,
    TabularDataset,
    encode,
    load_csv,
    parse_schema_file,
    split_forget,
)
from privforget.dpanon import (
    CategoricalMechanism,
    exponential_probabilities,
    laplace_sample,
    make_rng,
    perturb_categorical,
)
from privforget.kanon import centroid_replace, mdav, verify_k_anonymity
from privforget.mlp import TrainConfig, save_model
from privforget.unlearn import (
    PrivacySpec,
    eupg_forget,
    eupg_prepare,
    predict,
    sisa_forget,
    sisa_train,
)

from conftest import make_dataset, roc_auc_pairwise, sisa_oracle

REPO_ROOT = Path(__file__).resolve().parent.parent
ADULT_DIR = Path(os.environ.get("PRIVFORGET_DATA_DIR", REPO_ROOT / "data" / "adult"))


def file_bytes(path) -> bytes:
    return Path(path).read_bytes()


# ---------------------------------------------------------------------------
# criterion 1: analytic gradients vs central finite differences

def _ref_loss(weights, biases, x, y):
    h = x
    for i, (w, b) in enumerate(zip(weights, biases)):
        z = h @ w + b
        h = np.maximum(z, 0.0) if i < len(weights) - 1 else z
    return float(np.mean(logsumexp(h, axis=1) - h[np.arange(len(y)), y]))


def test_criterion_1_gradient_oracle():
    dims = (5, 4, 3)
    fd_h = 1e-6
    start = time.perf_counter()
    worst = 0.0
    for draw in range(20):
        rng = np.random.default_rng(1000 + draw)
        weights = [rng.normal(size=(a, b)) for a, b in zip(dims[:-1], dims[1:])]
        biases = [rng.normal(size=b) for b in dims[1:]]
        x = rng.normal(size=(6, dims[0]))
        y = rng.integers(0, dims[-1], size=6)
        _, grads_w, grads_b = mlp._batch_gradients((weights, biases), x, y)
        for params, grads in ((weights, grads_w), (biases, grads_b)):
            for p, g in zip(params, grads):
                flat, gflat = p.reshape(-1), g.reshape(-1)
                for idx in range(flat.size):
                    keep = flat[idx]
                    flat[idx] = keep + fd_h
                    up = _ref_loss(weights, biases, x, y)
                    flat[idx] = keep - fd_h
                    down = _ref_loss(weights, biases, x, y)
                    flat[idx] = keep
                    fd = (up - down) / (2 * fd_h)
                    diff = abs(fd - gflat[idx])
                    if diff < 1e-9:
                        # below the FD roundoff floor (~eps/2h); no oracle
                        # can distinguish this from an exact match
                        continue
                    worst = max(worst, diff / max(abs(fd), abs(gflat[idx])))
    elapsed = time.perf_counter() - start
    assert worst < 1e-5, f"max relative gradient error {worst:.3g}"
    assert elapsed < 1.0, f"gradient oracle took {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# criterion 2: MDAV partition invariants on 200 random datasets

def test_criterion_2_mdav_property_suite():
    rng = np.random.default_rng(7)
    start = time.perf_counter()
    for trial in range(200):
        k = int(rng.choice([2, 3, 5, 10]))
        hi = 2000 if trial % 10 == 0 else 300
        n = int(rng.integers(k, hi + 1))
        d = int(rng.integers(1, 21))
        if trial % 3 == 0:
            x = rng.integers(0, 10, size=(n, d)).astype(float)  # heavy ties
        else:
            x = rng.normal(size=(n, d))
        clustering = mdav(x, k)
        sizes = np.array([len(c) for c in clustering.clusters])
        assert ((sizes >= k) & (sizes <= 2 * k - 1)).all(), (trial, k, sizes)
        flat = np.concatenate(clustering.clusters)
        assert len(flat) == n and len(np.unique(flat)) == n, trial

        schema = tuple(
            AttributeSchema(
                f"q{j}", "numeric", "quasi_identifier",
                observed_range=(float(x[:, j].min()), float(x[:, j].max())),
            )
            for j in range(d)
        ) + (AttributeSchema("label", "categorical", "class", categories=("a", "b")),)
        rows = np.column_stack([x, rng.integers(0, 2, n).astype(float)])
        ds = TabularDataset(schema, rows, Provenance.raw())
        protected = centroid_replace(ds, clustering)
        assert verify_k_anonymity(protected, k).ok, trial
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"property suite took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# criterion 3: mechanism statistics against closed forms

def test_criterion_3_mechanism_statistics():
    start = time.perf_counter()
    # Laplace: KS statistic against the analytic CDF at one million samples
    scale = 1.7
    x = laplace_sample(scale, make_rng(42), size=1_000_000)
    ks = scipy.stats.kstest(x, "laplace", args=(0.0, scale))
    assert ks.statistic < 0.01, f"KS statistic {ks.statistic:.5f}"

    # exponential mechanism: 4-candidate fixture, chi-square vs closed form
    n = 100_000
    mech = CategoricalMechanism(
        np.array(
            [
                [3.0, 0.0, 1.0, 2.0],
                [0.0, 3.0, 2.0, 1.0],
                [1.0, 2.0, 3.0, 0.0],
                [2.0, 1.0, 0.0, 3.0],
            ]
        )
    )
    eps = 1.3
    out = perturb_categorical(np.zeros(n), mech, eps, make_rng(99))
    expected = exponential_probabilities(mech.utility[0], eps, mech.delta_u) * n
    observed = np.bincount(out.astype(int), minlength=4)
    chi = scipy.stats.chisquare(observed, expected)
    assert chi.pvalue > 0.001, f"chi-square p {chi.pvalue:.5f}"

    # binary keep/flip utility at epsilon 2: keep frequency e/(e+1)
    keep_target = math.e / (math.e + 1.0)
    out2 = perturb_categorical(
        np.zeros(n), CategoricalMechanism.identity(2), 2.0, make_rng(123)
    )
    keep = float((out2 == 0).mean())
    assert abs(keep - keep_target) <= 0.01, f"keep frequency {keep:.4f}"
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"mechanism statistics took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# criterion 4: forgotten rows cannot influence the served model

def test_criterion_4_forget_independence(tmp_path):
    start = time.perf_counter()
    ds = make_dataset(1000, seed=0)
    cfg = TrainConfig(batch_size=128, epochs=5, seed=0)
    request = ForgetRequest.from_ratio(ds.n_rows, 0.05, seed=11)
    idx = np.array(request.forget_indices)

    # mutate every cell of the forgotten rows, class included
    rows = np.array(ds.rows)
    for j, attr in enumerate(ds.schema):
        if attr.kind == "numeric":
            rows[idx, j] = rows[idx, j] * -3.0 + 1234.5
        else:
            rows[idx, j] = (rows[idx, j] + 1) % len(attr.categories)
    mutated = TabularDataset(ds.schema, rows, Provenance.raw())
    assert not np.array_equal(mutated.rows[idx], ds.rows[idx])

    for spec in (PrivacySpec.k_anonymity(10), PrivacySpec.dp(1.0, seed=5)):
        state = eupg_prepare(ds, spec, cfg, finetune_epochs=3, hidden_units=16)
        a = eupg_forget(state, ds, request)
        b = eupg_forget(state, mutated, request)
        pa, pb = tmp_path / f"{spec.method}_a.model", tmp_path / f"{spec.method}_b.model"
        save_model(a.deployed_model, pa)
        save_model(b.deployed_model, pb)
        assert file_bytes(pa) == file_bytes(pb), spec.method
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"forget independence took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# criterion 5: sharded unlearning equals retraining the affected shard

def test_criterion_5_sisa_exactness(tmp_path):
    """Checked at 5 shards x 10 slices and at one shard and one slice, the
    from-scratch baseline, where every forget retrains the one model on the
    retain rows."""
    start = time.perf_counter()
    ds = make_dataset(500, seed=1)
    cfg = TrainConfig(batch_size=512, learning_rate=1e-2, epochs=10, seed=3)
    for n_shards, n_slices in ((5, 10), (1, 1)):
        store = sisa_train(ds, n_shards=n_shards, n_slices=n_slices, cfg=cfg, hidden_units=128)
        assert store.per_slice_epochs == 10 // n_slices

        original_files = {}
        for s, model in enumerate(store.final_models()):
            path = tmp_path / f"orig_shard{s}.model"
            save_model(model, path)
            original_files[s] = file_bytes(path)

        rng = np.random.default_rng(2024)
        for row in rng.choice(500, size=20, replace=False):
            after = sisa_forget(store, ds, ForgetRequest((int(row),)))
            s_hit = int(store.row_slices[row][0])
            for s in range(n_shards):
                got = tmp_path / f"got_shard{s}.model"
                save_model(after.final_models()[s], got)
                if s != s_hit:
                    # untouched shards keep byte-identical parameters
                    assert file_bytes(got) == original_files[s], (n_shards, int(row), s)
                    continue
                oracle = sisa_oracle(ds, store, s, after.alive)
                want = tmp_path / "oracle.model"
                save_model(oracle[-1], want)
                assert file_bytes(got) == file_bytes(want), (n_shards, int(row))
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"sisa exactness took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# criteria 6 and 7: adult income benchmark (skipped when data is absent)

ADULT_CFG = TrainConfig(batch_size=512, learning_rate=1e-2, epochs=100, seed=0)
ADULT_HIDDEN = 128


def _load_adult():
    needed = [ADULT_DIR / "train.csv", ADULT_DIR / "test.csv", ADULT_DIR / "adult.schema"]
    if not all(p.exists() for p in needed):
        pytest.skip(
            "adult income dataset not present (offline sandbox); fetch the two "
            "raw files and run scripts/prepare_adult.py, or set PRIVFORGET_DATA_DIR"
        )
    schema = parse_schema_file(ADULT_DIR / "adult.schema")
    train_ds = load_csv(ADULT_DIR / "train.csv", schema)
    test_ds = load_csv(ADULT_DIR / "test.csv", train_ds.schema)
    return train_ds, test_ds


def accuracy(model, em) -> float:
    return utility_from_probs(mlp.forward(model, em.features), em.labels, "accuracy")


def _loss_mia(model, members, nonmembers, seed):
    m, nm = balanced_pair(members, nonmembers, seed)
    return mia_from_probs(
        mlp.forward(model, m.features), m.labels,
        mlp.forward(model, nm.features), nm.labels,
        "loss_based",
    ).auc


def test_criterion_6_adult_reproduction():
    start = time.perf_counter()
    train_ds, test_ds = _load_adult()
    em_train, em_test = encode(train_ds), encode(test_ds)

    t0 = time.perf_counter()
    # the original model: retraining from scratch is SISA with one shard and one slice
    scratch = sisa_train(train_ds, 1, 1, ADULT_CFG, ADULT_HIDDEN)
    (m_o,) = scratch.final_models()
    acc_o = accuracy(m_o, em_test)
    assert acc_o >= 0.82, f"original model test accuracy {acc_o:.4f}"

    k_state = eupg_prepare(
        train_ds, PrivacySpec.k_anonymity(10), ADULT_CFG, 5, ADULT_HIDDEN
    )
    acc_k = accuracy(k_state.deployed_model, em_test)
    assert abs(acc_k - acc_o) <= 0.02, f"k=10 acc {acc_k:.4f} vs original {acc_o:.4f}"

    mia_o = _loss_mia(m_o, em_train, em_test, seed=0)
    mia_k = _loss_mia(k_state.deployed_model, em_train, em_test, seed=0)
    assert mia_k <= mia_o - 0.01, f"MIA k=10 {mia_k:.4f} vs original {mia_o:.4f}"

    # forget 5 percent with every method; leakage must drop to near-random
    request = ForgetRequest.from_ratio(train_ds.n_rows, 0.05, seed=0)
    _, forget_part = split_forget(train_ds, request)
    em_f = encode(forget_part)

    t0 = time.perf_counter()
    k_after = eupg_forget(k_state, train_ds, request)
    t_eupg = time.perf_counter() - t0

    dp_state = eupg_prepare(train_ds, PrivacySpec.dp(0.5, seed=0), ADULT_CFG, 5, ADULT_HIDDEN)
    dp_after = eupg_forget(dp_state, train_ds, request)

    store = sisa_train(train_ds, 5, 10, ADULT_CFG, ADULT_HIDDEN)
    store_after = sisa_forget(store, train_ds, request)

    t0 = time.perf_counter()
    (m_retrain,) = sisa_forget(scratch, train_ds, request).final_models()
    t_retrain = time.perf_counter() - t0

    probs_fns = {
        "retrain": lambda X: mlp.forward(m_retrain, X),
        "eupg_k10": lambda X: mlp.forward(k_after.deployed_model, X),
        "eupg_eps0.5": lambda X: mlp.forward(dp_after.deployed_model, X),
        "sisa": lambda X: predict(store_after, X),
    }
    for name, fn in probs_fns.items():
        m, nm = balanced_pair(em_f, em_test, seed=0)
        auc = mia_from_probs(
            fn(m.features), m.labels, fn(nm.features), nm.labels, "loss_based"
        ).auc
        assert 0.45 <= auc <= 0.55, f"{name}: post-forget MIA {auc:.4f}"

    assert t_eupg <= 0.25 * t_retrain, (
        f"forget {t_eupg:.1f}s vs retrain {t_retrain:.1f}s"
    )
    elapsed = time.perf_counter() - start
    assert elapsed < 1800.0, f"adult reproduction took {elapsed:.0f}s"


def test_criterion_7_finetune_epoch_trend():
    train_ds, test_ds = _load_adult()
    em_test = encode(test_ds)
    state = eupg_prepare(
        train_ds, PrivacySpec.dp(0.5, seed=0), ADULT_CFG,
        finetune_epochs=0, hidden_units=ADULT_HIDDEN,
    )
    acc0 = accuracy(state.deployed_model, em_test)
    em_train = encode(train_ds)
    acc5 = accuracy(mlp.finetune(state.base_model, em_train, 5, ADULT_CFG), em_test)
    acc20 = accuracy(mlp.finetune(state.base_model, em_train, 20, ADULT_CFG), em_test)
    assert acc0 < acc5, f"acc(0 epochs) {acc0:.4f} !< acc(5 epochs) {acc5:.4f}"
    assert abs(acc5 - acc20) < 0.02, f"acc(5) {acc5:.4f} vs acc(20) {acc20:.4f}"


# ---------------------------------------------------------------------------
# criterion 8: rank AUC equals pairwise counting, bit for bit

def test_criterion_8_auc_oracle():
    rng = np.random.default_rng(11)
    for trial in range(1000):
        n = int(rng.integers(1, 201))
        m = int(rng.integers(1, 201))
        if trial % 2 == 0:
            pos = rng.integers(0, 12, n).astype(float)  # dense ties
            neg = rng.integers(0, 12, m).astype(float)
        else:
            pos = rng.normal(size=n)
            neg = rng.normal(size=m)
        assert roc_auc(pos, neg) == roc_auc_pairwise(pos, neg), trial
