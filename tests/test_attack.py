import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privforget.attack import (
    ENTROPY_BASED,
    LOSS_BASED,
    _average_ranks,
    balanced_pair,
    mia_from_probs,
    roc_auc,
    scores_from_probs,
)
from privforget.data import DataError, EncodedMatrix, encode, split_forget, ForgetRequest
from privforget.mlp import MlpModel, TrainConfig, forward, init, train

from conftest import make_dataset, roc_auc_pairwise


def mia(model, members, nonmembers, attack):
    return mia_from_probs(
        forward(model, members.features),
        members.labels,
        forward(model, nonmembers.features),
        nonmembers.labels,
        attack,
    )


def test_average_ranks_hand_cases():
    assert _average_ranks(np.array([10.0, 30.0, 20.0])).tolist() == [1.0, 3.0, 2.0]
    # two-way tie shares ranks 2 and 3 -> 2.5 each
    assert _average_ranks(np.array([5.0, 7.0, 7.0, 9.0])).tolist() == [1.0, 2.5, 2.5, 4.0]
    assert _average_ranks(np.array([4.0, 4.0, 4.0])).tolist() == [2.0, 2.0, 2.0]


def test_auc_extremes():
    assert roc_auc([3.0, 4.0], [1.0, 2.0]) == 1.0
    assert roc_auc([1.0, 2.0], [3.0, 4.0]) == 0.0
    assert roc_auc([1.0, 1.0], [1.0, 1.0]) == 0.5


def test_auc_hand_example():
    # pairs: (3>1), (3>2), (1<2 loses), (1=1 tie) -> (2 + 0.5) / 4
    pos = [3.0, 1.0]
    neg = [1.0, 2.0]
    assert roc_auc(pos, neg) == pytest.approx(0.625)
    assert roc_auc_pairwise(pos, neg) == pytest.approx(0.625)


def test_auc_validation():
    with pytest.raises(DataError, match="each side"):
        roc_auc([], [1.0])
    with pytest.raises(DataError, match="finite"):
        roc_auc([np.nan], [1.0])


@settings(max_examples=200, deadline=None)
@given(
    pos=st.lists(st.integers(-50, 50), min_size=1, max_size=40),
    neg=st.lists(st.integers(-50, 50), min_size=1, max_size=40),
)
def test_rank_auc_equals_pairwise_exactly(pos, neg):
    # integer scores force heavy ties; the two formulations must agree bitwise
    a = roc_auc(np.array(pos, float), np.array(neg, float))
    b = roc_auc_pairwise(np.array(pos, float), np.array(neg, float))
    assert a == b


@settings(max_examples=100, deadline=None)
@given(
    pos=st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=30),
    neg=st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=30),
)
def test_auc_monotone_invariance(pos, neg):
    # AUC depends on order only; integer scores keep the affine map exact,
    # so no new ties appear and equality is bitwise
    p = np.array(pos, float)
    n = np.array(neg, float)
    assert roc_auc(p, n) == roc_auc(3.0 * p + 7.0, 3.0 * n + 7.0)


def test_auc_complement_symmetry():
    rng = np.random.default_rng(0)
    pos = rng.normal(1.0, 1.0, 50)
    neg = rng.normal(0.0, 1.0, 60)
    assert roc_auc(pos, neg) + roc_auc(neg, pos) == pytest.approx(1.0, abs=1e-12)


def test_mia_detects_overfit_model():
    # a tiny train set on overlapping classes interpolates (train acc 1.0,
    # holdout ~0.76), so member losses collapse and both attacks fire
    ds = make_dataset(240, seed=5, n_numeric=8, class_sep=0.6)
    holdout, train_ds = split_forget(ds, ForgetRequest.from_ratio(ds.n_rows, 0.25, seed=1))
    em_train = encode(train_ds)
    em_hold = encode(holdout)
    model = train(
        init((em_train.width, 64, 2), seed=0),
        em_train,
        TrainConfig(batch_size=8, epochs=500, seed=0),
    )
    for attack in (LOSS_BASED, ENTROPY_BASED):
        result = mia(model, em_train, em_hold, attack)
        assert result.auc > 0.55, f"{attack}: auc {result.auc}"
        assert result.n_members == em_train.n_rows
        assert result.n_nonmembers == em_hold.n_rows


def test_mia_rejects_unknown_attack(small_dataset):
    em = encode(small_dataset)
    model = init((em.width, 4, 2), seed=0)
    with pytest.raises(DataError, match="unknown attack"):
        mia(model, em, em, "gradient_based")


def test_scores_from_probs_hand_values():
    # a zero model predicts 1/3 for every class: log p_y = -H = -log 3
    uniform = forward(MlpModel((4, 3), (np.zeros((4, 3)),), (np.zeros(3),)), np.ones((4, 4)))
    labels = np.array([0, 1, 2, 0])
    for attack in (LOSS_BASED, ENTROPY_BASED):
        assert np.allclose(scores_from_probs(uniform, labels, attack), -math.log(3), rtol=1e-12)

    probs = np.array([[1.0, 0.0], [0.0, 1.0], [0.25, 0.75]])
    # p_y = 0 clamps to log(tiny) rather than -inf
    loss = scores_from_probs(probs, np.array([1, 1, 1]), LOSS_BASED)
    assert loss.tolist() == pytest.approx(
        [math.log(np.finfo(np.float64).tiny), 0.0, math.log(0.75)], rel=1e-12
    )
    # a one-hot row has entropy 0
    entropy = scores_from_probs(probs, np.array([0, 1, 1]), ENTROPY_BASED)
    assert entropy[:2].tolist() == [0.0, 0.0]
    assert entropy[2] == pytest.approx(0.25 * math.log(0.25) + 0.75 * math.log(0.75))

    for attack in (LOSS_BASED, ENTROPY_BASED):
        for bad in (2, -1):
            with pytest.raises(DataError, match=f"label {bad} outside the 2 columns"):
                scores_from_probs(probs, np.array([0, bad, 1]), attack)


def test_balanced_pair(small_dataset):
    em = encode(small_dataset)
    big = em.take(np.arange(150))
    small = em.take(np.arange(150, 190))
    a, b = balanced_pair(big, small, seed=3)
    assert a.n_rows == b.n_rows == 40
    # the smaller side passes through untouched
    assert np.array_equal(b.features, small.features)
    # deterministic under the seed
    a2, _ = balanced_pair(big, small, seed=3)
    assert np.array_equal(a.features, a2.features)
    a3, _ = balanced_pair(big, small, seed=4)
    assert not np.array_equal(a.features, a3.features)

    empty = em.take(np.arange(0))
    with pytest.raises(DataError, match="non-empty"):
        balanced_pair(big, empty, seed=0)
