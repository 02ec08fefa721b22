"""Membership-inference attacks and ROC-AUC scoring.

An attack assigns each example a score that is higher when the example
looks like a training member: the negated per-example loss, or the negated
predictive entropy.  Attack strength is the probability that a random
member outscores a random non-member, i.e. the ROC-AUC of the two score
samples, computed rank-based with ties counted one half.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import seeds
from .data import DataError, EncodedMatrix
from .mlp import MlpModel, forward

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


def roc_auc_pairwise(positive_scores, negative_scores) -> float:
    """Reference AUC by direct comparison of every (pos, neg) pair."""
    pos = np.asarray(positive_scores, dtype=np.float64).ravel()
    neg = np.asarray(negative_scores, dtype=np.float64).ravel()
    if len(pos) == 0 or len(neg) == 0:
        raise DataError("AUC needs at least one score on each side")
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return float((wins + 0.5 * ties) / (len(pos) * len(neg)))


@dataclass(frozen=True)
class MiaResult:
    attack: str
    auc: float
    n_members: int
    n_nonmembers: int
    member_scores: np.ndarray
    nonmember_scores: np.ndarray


def mia_scores(
    model: MlpModel,
    members: EncodedMatrix,
    nonmembers: EncodedMatrix,
    attack: str = LOSS_BASED,
) -> MiaResult:
    """Score both populations and report the membership AUC.

    0.5 means the attack cannot tell members from non-members; higher
    means training rows are identifiable.
    """
    return mia_from_probs(
        forward(model, members.features),
        members.labels,
        forward(model, nonmembers.features),
        nonmembers.labels,
        attack,
    )


def scores_from_probs(probs: np.ndarray, labels: np.ndarray, attack: str) -> np.ndarray:
    """Membership scores from a probability matrix (works for ensembles)."""
    probs = np.asarray(probs, dtype=np.float64)
    if attack == LOSS_BASED:
        p = probs[np.arange(len(labels)), np.asarray(labels, dtype=np.int64)]
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


def balanced_pair(
    members: EncodedMatrix, nonmembers: EncodedMatrix, seed: int
) -> tuple[EncodedMatrix, EncodedMatrix]:
    """Subsample the larger population down to the smaller one, seeded."""
    n = min(members.n_rows, nonmembers.n_rows)
    if n == 0:
        raise DataError("both populations must be non-empty")

    def cut(em: EncodedMatrix, side: int) -> EncodedMatrix:
        if em.n_rows == n:
            return em
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([seed, seeds.MIA_SUBSAMPLE, side]))
        )
        idx = np.sort(rng.permutation(em.n_rows)[:n])
        return em.take(idx)

    return cut(members, 0), cut(nonmembers, 1)
