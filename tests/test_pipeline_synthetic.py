"""End-to-end behavior on synthetic data at desk scale.

One scenario, built once: a 600/400 train/test split with overlapping
classes and 8 percent label noise, trained long enough that the original
model memorizes its training set.  The tests then check the claims the
package exists to support: protected models keep utility while leaking
less, every forgetting path drives leakage on the forgotten rows back to
chance, and serving a forget request costs a small fraction of retraining.

Margins were chosen against observed values with 2-3x headroom; every
quantity is a deterministic function of the seeds below.
"""
import time
from types import SimpleNamespace

import numpy as np
import pytest

from privforget import mlp
from privforget.attack import mia_from_probs, utility_from_probs
from privforget.data import (
    ForgetRequest,
    Provenance,
    TabularDataset,
    encode,
    split_forget,
)
from privforget.mlp import TrainConfig
from privforget.unlearn import (
    PrivacySpec,
    eupg_forget,
    eupg_prepare,
    predict,
    sisa_forget,
    sisa_train,
)

from conftest import make_dataset

CFG = TrainConfig(batch_size=16, epochs=400, seed=0)
HIDDEN = 64
FT_EPOCHS = 5


def accuracy(model, em) -> float:
    return utility_from_probs(mlp.forward(model, em.features), em.labels, "accuracy")


def loss_auc(probs_fn, members, nonmembers) -> float:
    return mia_from_probs(
        probs_fn(members.features), members.labels,
        probs_fn(nonmembers.features), nonmembers.labels,
        "loss_based",
    ).auc


@pytest.fixture(scope="module")
def pipeline():
    full = make_dataset(1000, seed=17, n_numeric=8, class_sep=0.6, label_noise=0.08)
    holdout, train_part = split_forget(
        full, ForgetRequest.from_ratio(full.n_rows, 0.6, seed=3)
    )
    train_ds = TabularDataset(full.schema, train_part.rows, Provenance.raw())
    test_ds = TabularDataset(full.schema, holdout.rows, Provenance.raw())
    em_train, em_test = encode(train_ds), encode(test_ds)

    # the original model: retraining from scratch is SISA with one shard and one slice
    t0 = time.perf_counter()
    scratch = sisa_train(train_ds, 1, 1, CFG, HIDDEN)
    t_train_full = time.perf_counter() - t0
    (original,) = scratch.final_models()
    k_state = eupg_prepare(train_ds, PrivacySpec.k_anonymity(10), CFG, FT_EPOCHS, HIDDEN)
    dp_state = eupg_prepare(train_ds, PrivacySpec.dp(0.5, seed=0), CFG, FT_EPOCHS, HIDDEN)
    store = sisa_train(train_ds, 5, 10, CFG, HIDDEN)

    request = ForgetRequest.from_ratio(train_ds.n_rows, 0.2, seed=7)
    _, forget_part = split_forget(train_ds, request)
    em_forget = encode(forget_part)

    t0 = time.perf_counter()
    k_after = eupg_forget(k_state, train_ds, request)
    t_forget = time.perf_counter() - t0
    dp_after = eupg_forget(dp_state, train_ds, request)
    store_after = sisa_forget(store, train_ds, request)
    t0 = time.perf_counter()
    (retrained,) = sisa_forget(scratch, train_ds, request).final_models()
    t_retrain = time.perf_counter() - t0

    return SimpleNamespace(**locals())


def test_utility_survives_protection(pipeline):
    p = pipeline
    acc_o = accuracy(p.original, p.em_test)
    acc_k = accuracy(p.k_state.deployed_model, p.em_test)
    acc_dp = accuracy(p.dp_state.deployed_model, p.em_test)
    acc_sisa = float(
        np.mean(predict(p.store, p.em_test.features).argmax(1) == p.em_test.labels)
    )
    assert acc_o >= 0.78, acc_o
    assert abs(acc_k - acc_o) <= 0.05, (acc_k, acc_o)
    assert abs(acc_dp - acc_o) <= 0.06, (acc_dp, acc_o)
    assert acc_sisa >= 0.78, acc_sisa


def test_protection_reduces_membership_leakage(pipeline):
    p = pipeline
    auc_o = loss_auc(lambda X: mlp.forward(p.original, X), p.em_train, p.em_test)
    auc_k = loss_auc(lambda X: mlp.forward(p.k_state.deployed_model, X), p.em_train, p.em_test)
    auc_dp = loss_auc(lambda X: mlp.forward(p.dp_state.deployed_model, X), p.em_train, p.em_test)
    assert auc_o >= 0.55, f"original model does not memorize: {auc_o:.3f}"
    assert auc_k <= auc_o - 0.04, (auc_k, auc_o)
    assert auc_dp <= auc_o - 0.04, (auc_dp, auc_o)


def test_forgetting_drives_leakage_to_chance(pipeline):
    p = pipeline
    pre = loss_auc(lambda X: mlp.forward(p.original, X), p.em_forget, p.em_test)
    assert pre >= 0.55, f"forgotten rows not distinguishable to begin with: {pre:.3f}"
    post = {
        "retrain": loss_auc(lambda X: mlp.forward(p.retrained, X), p.em_forget, p.em_test),
        "eupg_k": loss_auc(
            lambda X: mlp.forward(p.k_after.deployed_model, X), p.em_forget, p.em_test
        ),
        "eupg_dp": loss_auc(
            lambda X: mlp.forward(p.dp_after.deployed_model, X), p.em_forget, p.em_test
        ),
        "sisa": loss_auc(lambda X: predict(p.store_after, X), p.em_forget, p.em_test),
    }
    for name, auc in post.items():
        assert abs(auc - 0.5) <= 0.08, f"{name}: post-forget AUC {auc:.3f}"
        assert auc <= pre - 0.05, f"{name}: {auc:.3f} not below pre-forget {pre:.3f}"


def test_forgetting_keeps_utility(pipeline):
    p = pipeline
    for name, acc in (
        ("retrain", accuracy(p.retrained, p.em_test)),
        ("eupg_k", accuracy(p.k_after.deployed_model, p.em_test)),
        ("eupg_dp", accuracy(p.dp_after.deployed_model, p.em_test)),
        (
            "sisa",
            float(
                np.mean(
                    predict(p.store_after, p.em_test.features).argmax(1)
                    == p.em_test.labels
                )
            ),
        ),
    ):
        assert acc >= 0.75, f"{name}: post-forget accuracy {acc:.3f}"


def test_forgetting_is_cheap(pipeline):
    p = pipeline
    # 5 fine-tune epochs against 400 from scratch; enormous slack for jitter
    assert p.t_forget <= 0.25 * p.t_retrain, (p.t_forget, p.t_retrain)


def test_finetune_epochs_recover_then_plateau(pipeline):
    p = pipeline
    acc0 = accuracy(p.dp_state.base_model, p.em_test)
    acc5 = accuracy(mlp.finetune(p.dp_state.base_model, p.em_train, 5, CFG), p.em_test)
    acc20 = accuracy(mlp.finetune(p.dp_state.base_model, p.em_train, 20, CFG), p.em_test)
    assert acc0 < acc5 - 0.2, (acc0, acc5)
    assert abs(acc5 - acc20) <= 0.04, (acc5, acc20)


def test_forget_request_leaves_base_untouched(pipeline):
    p = pipeline
    assert mlp.models_equal(p.k_after.base_model, p.k_state.base_model)
    assert not mlp.models_equal(p.k_after.deployed_model, p.k_state.deployed_model)
