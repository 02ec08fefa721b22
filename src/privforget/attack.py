"""Scoring of probability matrices: utility, membership inference, ROC-AUC.

Every score here is a function of a matrix of class probabilities (one
model's or an ensemble's) and the true labels, so one model, a SISA
ensemble and a saved model are all scored by the same code.  An attack
assigns each example a score that is higher when the example looks like a
training member: the negated per-example loss (Yeom et al., CSF 2018), or
the negated predictive entropy.  Attack strength is the probability that a
random member outscores a random non-member, i.e. the ROC-AUC of the two
score samples, computed rank-based with ties counted one half.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import seeds
from .data import DataError, EncodedMatrix

LOSS_BASED = "loss_based"
ENTROPY_BASED = "entropy_based"
ATTACKS = (LOSS_BASED, ENTROPY_BASED)


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks, tied values sharing the mean of their rank range."""
    n = len(values)
    order = np.argsort(values, kind="mergesort")
    sv = values[order]
    new_group = np.empty(n, dtype=bool)
    new_group[0] = True
    new_group[1:] = sv[1:] != sv[:-1]
    group = np.cumsum(new_group) - 1
    counts = np.bincount(group)
    ends = np.cumsum(counts).astype(np.float64)
    mids = ends - (counts - 1) / 2.0
    ranks = np.empty(n)
    ranks[order] = mids[group]
    return ranks


def roc_auc(positive_scores, negative_scores) -> float:
    """Mann-Whitney AUC: P(pos > neg) + P(pos == neg) / 2."""
    pos = np.asarray(positive_scores, dtype=np.float64).ravel()
    neg = np.asarray(negative_scores, dtype=np.float64).ravel()
    if len(pos) == 0 or len(neg) == 0:
        raise DataError("AUC needs at least one score on each side")
    if not (np.isfinite(pos).all() and np.isfinite(neg).all()):
        raise DataError("AUC scores must be finite")
    ranks = _average_ranks(np.concatenate([pos, neg]))
    n_pos, n_neg = len(pos), len(neg)
    rank_sum = ranks[:n_pos].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


@dataclass(frozen=True)
class MiaResult:
    attack: str
    auc: float
    n_members: int
    n_nonmembers: int
    member_scores: np.ndarray
    nonmember_scores: np.ndarray


def _checked_labels(probs: np.ndarray, labels) -> np.ndarray:
    """labels as int64, one per row of probs and each a column of it."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (probs.shape[0],):
        raise DataError(f"{len(labels)} labels for {probs.shape[0]} probability rows")
    bad = labels[(labels < 0) | (labels >= probs.shape[1])]
    if len(bad):
        raise DataError(
            f"label {bad[0]} outside the {probs.shape[1]} columns of the probability matrix"
        )
    return labels


def utility_from_probs(probs: np.ndarray, labels: np.ndarray, metric: str) -> float:
    """Accuracy, or binary ROC-AUC of the positive-class (label 1) probability."""
    if len(labels) == 0:
        raise DataError(f"{metric} of an empty dataset is undefined")
    probs = np.asarray(probs, dtype=np.float64)
    labels = _checked_labels(probs, labels)
    if metric == "accuracy":
        return float((np.argmax(probs, axis=1) == labels).mean())
    if metric != "auc":
        raise DataError(f"unknown utility metric {metric!r}")
    if probs.shape[1] != 2:
        raise DataError("AUC utility is defined for binary classifiers")
    pos = probs[labels == 1, 1]
    neg = probs[labels == 0, 1]
    if len(pos) == 0 or len(neg) == 0:
        raise DataError("AUC needs both classes present")
    return roc_auc(pos, neg)


def scores_from_probs(probs: np.ndarray, labels: np.ndarray, attack: str) -> np.ndarray:
    """Membership scores from a probability matrix: log p(true class),
    floored at log(tiny), or the negated predictive entropy in nats."""
    probs = np.asarray(probs, dtype=np.float64)
    labels = _checked_labels(probs, labels)
    if attack == LOSS_BASED:
        p = probs[np.arange(len(labels)), labels]
        return np.log(np.maximum(p, np.finfo(np.float64).tiny))
    if attack == ENTROPY_BASED:
        plogp = np.where(probs > 0.0, probs * np.log(np.where(probs > 0.0, probs, 1.0)), 0.0)
        return plogp.sum(axis=1)
    raise DataError(f"unknown attack {attack!r}; expected one of {ATTACKS}")


def mia_from_probs(
    member_probs: np.ndarray,
    member_labels: np.ndarray,
    nonmember_probs: np.ndarray,
    nonmember_labels: np.ndarray,
    attack: str = LOSS_BASED,
) -> MiaResult:
    """Score both populations and report the membership AUC.

    0.5 means the attack cannot tell members from non-members; higher
    means training rows are identifiable.
    """
    member_scores = scores_from_probs(member_probs, member_labels, attack)
    nonmember_scores = scores_from_probs(nonmember_probs, nonmember_labels, attack)
    auc = roc_auc(member_scores, nonmember_scores)
    return MiaResult(
        attack,
        auc,
        len(member_scores),
        len(nonmember_scores),
        member_scores,
        nonmember_scores,
    )


def balanced_rows(n_members: int, n_nonmembers: int, seed: int) -> tuple:
    """The rows of each population that an attack on a balanced pair scores.

    The larger population is cut to the smaller one's size by a seeded draw
    (side 0 for the members, 1 for the non-members) and keeps those rows as
    a sorted index array; a population of that size keeps every row, as
    the slice slice(None), so that taking them copies nothing.
    """
    n = min(n_members, n_nonmembers)
    if n == 0:
        raise DataError("both populations must be non-empty")

    def cut(size: int, side: int):
        if size == n:
            return slice(None)
        return np.sort(seeds.stream(seed, seeds.MIA_SUBSAMPLE, side).permutation(size)[:n])

    return cut(n_members, 0), cut(n_nonmembers, 1)


def balanced_pair(
    members: EncodedMatrix, nonmembers: EncodedMatrix, seed: int
) -> tuple[EncodedMatrix, EncodedMatrix]:
    """Subsample the larger population down to the smaller one, seeded."""
    m_rows, nm_rows = balanced_rows(members.n_rows, nonmembers.n_rows, seed)
    return members.take(m_rows), nonmembers.take(nm_rows)
