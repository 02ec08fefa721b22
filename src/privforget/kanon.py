"""k-anonymity via MDAV microaggregation.

Rows are grouped into clusters of size k..2k-1 by the fixed-size variant of
maximum-distance-to-average-vector microaggregation (Domingo-Ferrer & Torra,
DMKD 2005), then every cluster's quasi-identifier cells are replaced by the
cluster centroid (mean for numeric attributes, mode for categorical ones).
Distances are Euclidean over the encoded quasi-identifier columns, so
numeric attributes enter on their min-max scale and categorical ones as
one-hot blocks.

All tie-breaks are deterministic: the candidate with the lowest original
row index wins.  The cluster-building scans are the package's hot loop.
They rank the unclustered rows on the surrogate |x|^2 - 2 x.p + |p|^2 (one
float32 matrix-vector product over a copy of the rows scaled by a power of
two) and evaluate the reference sum((x - p)^2) only for the rows a proven
rounding-error bound cannot rule out, so the labels are those of the
reference evaluated over every row, bit for bit (the kernel comment below
gives the bound).
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .data import (
    NUMERIC,
    DataError,
    EncodedMatrix,
    Provenance,
    TabularDataset,
    attribute_columns,
    encode,
)


class Clustering:
    """A partition of row indices 0..n_rows-1 into n_clusters clusters of
    size k..2k-1, held as each row's cluster id (labels()); clusters, the
    row indices of each cluster, is built from those when first read."""

    def __init__(self, k: int, labels, n_clusters: int):
        """The partition that puts row i in cluster labels[i]; DataError for
        an id outside [0, n_clusters), else for the first cluster, in
        cluster order, whose size is outside [k, 2k-1]."""
        labels = np.asarray(labels, dtype=np.int64)
        if labels.size and not 0 <= labels.min() <= labels.max() < n_clusters:
            raise DataError(f"cluster ids must lie in [0, {n_clusters})")
        sizes = np.bincount(labels, minlength=n_clusters)
        bad = np.flatnonzero((sizes < k) | (sizes > 2 * k - 1))
        if bad.size:
            raise DataError(f"cluster size {sizes[bad[0]]} outside [{k}, {2 * k - 1}]")
        labels.setflags(write=False)
        self.n_rows, self.k, self.n_clusters = len(labels), k, n_clusters
        self._labels, self._sizes = labels, sizes

    @functools.cached_property
    def clusters(self) -> tuple[np.ndarray, ...]:
        # a stable sort keeps every cluster's rows in ascending order
        order = np.argsort(self._labels, kind="stable")
        return tuple(np.split(order, np.cumsum(self._sizes)[:-1]))

    def labels(self) -> np.ndarray:
        """Each row's cluster id, read-only."""
        return self._labels


# ---------------------------------------------------------------------------
# kernel
#
# Reference semantics.  Every decision of fixed-size MDAV compares squared
# distances computed as ``((x[rows] - p) ** 2).sum(axis=1)`` over the active
# rows (kept in ascending row order): "farthest" is the first maximum, the
# k-1 "nearest" are the head of a stable sort, so ties go to the lowest row.
#
# Filter and verify.  Evaluating that expression for every active row costs
# two n x d temporaries per scan.  Instead each scan ranks the rows on a
# surrogate read from a float32 copy of the rows, at half the bytes of x,
# and a proven bound on the surrogate's error picks the few rows whose
# reference distances decide.
#
# Scaling.  The copy is xs = fl32(x'), x' = x * 2**-e, with e the exponent
# that puts max|x'| in [0.5, 1) (but e >= -460, see below); it is built
# without a float64 temporary and compacted with the block.  A point p is
# scaled alike, p' = p * 2**-e, sq' = |x'|^2 is sq * 4**-e, and the
# surrogate is
#
#     s = sq' - 2 * (xs @ fl32(p')) + p' @ p'
#
# one sgemv, combined in float64.  Scaling by a power of two is exact and
# reorders no distances; without it, rows at 1e30 overflow float32 and rows
# at 1e-30 underflow it.
#
# Bound.  Let S = max(sq') + p' @ p', u32 = 2**-24, u64 = 2**-53, and D' the
# true squared distance of x' and p'.  By the standard rounding model
# (Higham, Accuracy and Stability of Numerical Algorithms, 2002, ch. 3):
#
#   - fl32 moves each entry of x' and p' by at most u32 times its magnitude
#     or, below float32's normal range, by 2**-150; with |x'_i|, |p'_i| <= 1
#     and |x'||p'| <= S / 2, xs . ps is within u32 S + d 2**-149 of x' . p';
#   - the float32 d-term dot in any summation order (BLAS threads may
#     reorder it) adds at most gamma_d |xs||ps| ~ d u32 S / 2, plus d 2**-150
#     for products that underflow;
#   - doubled, the dot's error is at most (d + 2) u32 S + 3 d 2**-149;
#   - the float64 norms sq' and p' @ p' (d-term sums of non-negative terms)
#     and the two float64 additions add at most (d + 4) u64 S;
#   - the reference, against the same D', is off by at most (2 d + 4) u64 S
#     (subtraction, square, a d-term sum of non-negative terms, against a
#     true distance <= 2 S).
#
# The total, to first order, is (d/2 + 1) eps32 S + (1.5 d + 4) eps64 S
# + 3 d 2**-149.  The bound used,
#
#     bound = tol * S + (8 d + 16) * 2**-149,
#     tol = (2 d + 16) * eps32 + (4 d + 16) * eps64,
#
# is more than twice each term, which absorbs the second-order terms and
# the threshold arithmetic.  Where float64 underflows, the rounding model
# adds an absolute error instead: at most 2**-1075 per square of sq and of
# the reference, which are computed on x, not x', and so at most
# 2 d 2**(-1075 - 2 e) in scaled units; with e >= -460 that is below
# 2 d 2**-155, inside the absolute term, as are the 2**-1075 that sq' and p'
# may lose.  Rows whose entries are all below 2**-461 are hence scaled by
# 2**460 only, and their float32 products may underflow: the absolute term
# then carries the bound, valid but loose enough that most rows get the
# reference.  Hence
#
#   - every row that maximises the reference lies within 2 * bound of the
#     surrogate maximum, and
#   - every row among the k-1 reference-nearest lies within 2 * bound of
#     the (k-1)-th smallest surrogate.
#
# Only those candidates (usually exactly 1 and k-1 rows) get the reference
# expression, gathered from the float64 x by row id, and the decision is
# taken on its values over the candidates in ascending row order.  The
# reference distance of a row does not depend on which other rows are
# computed alongside it, so the labels equal the reference's bit for bit,
# ties included.  The bound needs finite squared distances, which
# mdav_labels checks up front.  max(sq') is taken at each compaction, over
# clustered rows still in the block as well: the bound stays valid, only
# looser.

_EPS32 = float(np.finfo(np.float32).eps)
_EPS64 = float(np.finfo(np.float64).eps)
_MIN_EXPONENT = -460


def _scaled_float32(x):
    """fl32(x * 2**-e) and e, with max|x * 2**-e| in [0.5, 1) unless e = -460."""
    biggest = max(float(x.max()), -float(x.min()))
    e = max(int(np.frexp(biggest)[1]), _MIN_EXPONENT)
    xs = np.empty(x.shape, dtype=np.float32)
    np.ldexp(x, -e, out=xs, casting="same_kind")
    return xs, e


def _exact(x, rows, p):
    """Reference squared distances from the given rows of x to p."""
    return ((x[rows] - p) ** 2).sum(axis=1)


def _farthest(x, ids, p, s, bound):
    """Position of the active row farthest from p (the first, on ties)."""
    cand = np.flatnonzero(s >= s.max() - 2.0 * bound)
    return int(cand[np.argmax(_exact(x, ids[cand], p))])


def _nearest(x, ids, p, s, bound, k):
    """Positions of the k-1 active rows nearest to p; rows with s = inf are excluded."""
    cand = np.flatnonzero(s <= np.partition(s, k - 2)[k - 2] + 2.0 * bound)
    return cand[np.argsort(_exact(x, ids[cand], p), kind="stable")[: k - 1]]


class _UntakenMean:
    """The mean of the untaken rows of the kernel's active block, bit for bit
    that of the block compacted to them, mostly without a pass over the block.

    numpy sums a C-ordered block two or more columns wide along axis 0 row
    by row, in row order from 0.0; a single column it sums pairwise.  A
    column of integers whose magnitudes sum below 2**53, such as a one-hot
    column, sums exactly in any order, so when x has such columns their sums
    over the untaken rows are kept as the column totals less each cluster's
    rows.  Only the other, real columns are summed at each call, over a
    C-ordered copy of them that is compacted with the block, widened by a
    zero column when it would be one column wide, and whose taken rows are
    zeroed.  ``einsum("ij->j")`` sums such a copy in row order from 0.0 as
    well: its inner loop runs along the unit-stride columns, adding one row
    at a time into a zeroed output.  A zeroed row adds +0.0, which leaves
    any running sum that started from +0.0 unchanged (such a sum is never
    -0.0).  A lone column of x is averaged pairwise over its untaken rows,
    as the reference does.
    """

    def __init__(self, x):
        n, d = x.shape
        whole = [bool((c == np.rint(c)).all()) and np.abs(c).max() * n < 2.0**53 for c in x.T]
        self.real = np.flatnonzero(np.logical_not(whole))
        self.sums = np.add.reduce(x, axis=0)
        self.copy = x.take(self.real, axis=1)
        if len(self.real) == 1 and d > 1:
            self.copy = np.column_stack([self.copy, np.zeros(n)])

    def remove(self, members, rows):
        """Drop the rows just taken, at block positions members, from the sums."""
        self.sums -= np.add.reduce(rows, axis=0)
        self.copy[members] = 0.0

    def compact(self, keep):
        self.copy = self.copy[keep]

    def __call__(self, taken, m):
        if self.copy.shape[1] == 1:
            return self.copy[~taken].mean(axis=0)
        centroid = self.sums.copy()
        centroid[self.real] = np.einsum("ij->j", self.copy)[: len(self.real)]
        return centroid / m


def _mdav_kernel(x, sq, k):
    """Labels and cluster count; x has finite rows with squared norms sq."""
    n, d = x.shape
    xs, e = _scaled_float32(x)
    sqs = np.ldexp(sq, -2 * e)
    tol = (2 * d + 16) * _EPS32 + (4 * d + 16) * _EPS64
    floor = (8 * d + 16) * 2.0**-149
    labels = np.empty(n, dtype=np.int64)
    # The active block: the row ids of x in ascending order, with their
    # scaled float32 rows and squared norms, less the rows compacted away.
    # The rows clustered since the last compaction stay in the block,
    # flagged in `taken`, and every scan sets them to +-inf; m rows are
    # untaken.  The block is compacted once a quarter of it is taken, so
    # each compaction allocates at most 3/4 of the block it replaces; x
    # itself is only ever read by row id.
    ids, sq_max = np.arange(n), sqs.max()
    taken = np.zeros(n, dtype=bool)
    m = n
    untaken_mean = _UntakenMean(x)
    n_clusters = 0

    def scan(p):
        """Surrogate squared distances from every active row to p, and their bound."""
        ps = np.ldexp(p, -e)
        pp = ps @ ps
        return sqs - 2.0 * (xs @ ps.astype(np.float32)) + pp, tol * (sq_max + pp) + floor

    def take_cluster(seed):
        """Cluster the seed with its k-1 nearest untaken rows; flag them taken.

        Returns the surrogate distances to the seed, taken rows at -inf, and
        their bound: the "farthest from r" scan reuses them.
        """
        nonlocal m, n_clusters
        p = x[ids[seed]]
        s, bound = scan(p)
        taken[seed] = True
        s[taken] = np.inf
        members = np.append(_nearest(x, ids, p, s, bound, k), seed)
        taken[members] = True
        rows = ids[members]
        untaken_mean.remove(members, x[rows])
        m -= k
        labels[rows] = n_clusters
        n_clusters += 1
        s[taken] = -np.inf
        return s, bound

    def farthest_from_centroid():
        centroid = untaken_mean(taken, m)
        s, bound = scan(centroid)
        s[taken] = -np.inf
        return _farthest(x, ids, centroid, s, bound)

    def compact_if_a_quarter_taken():
        nonlocal ids, xs, sqs, sq_max, taken
        if 4 * (len(ids) - m) >= len(ids):
            keep = ~taken
            ids, xs, sqs = ids[keep], xs[keep], sqs[keep]
            sq_max = sqs.max()
            untaken_mean.compact(keep)
            taken = np.zeros(m, dtype=bool)

    while m >= 3 * k:
        r = farthest_from_centroid()
        s_r, bound = take_cluster(r)
        take_cluster(_farthest(x, ids, x[ids[r]], s_r, bound))
        compact_if_a_quarter_taken()

    if m >= 2 * k:
        take_cluster(farthest_from_centroid())

    if m:
        labels[ids[~taken]] = n_clusters
        n_clusters += 1
    return labels, n_clusters


def mdav_labels(features: np.ndarray, k: int):
    """Cluster id per row and the number of clusters."""
    x = np.ascontiguousarray(features, dtype=np.float64)
    if x.ndim != 2:
        raise DataError("mdav expects a 2-d feature matrix")
    n = x.shape[0]
    if k < 2:
        raise DataError(f"mdav requires k >= 2, got {k}")
    if n < k:
        raise DataError(f"mdav requires at least k={k} rows, got {n}")
    sq = np.einsum("ij,ij->i", x, x)
    if not np.isfinite(8.0 * sq.max()):  # a NaN or inf cell, or distances that overflow
        bad = np.argwhere(~np.isfinite(x))
        if len(bad):
            row, col = bad[0]
            raise DataError(
                f"mdav features must be finite, got {x[row, col]} at row {row}, column {col}"
            )
        raise DataError(
            f"mdav features too large: squared distances overflow (row {int(np.argmax(sq))})"
        )
    labels, n_clusters = _mdav_kernel(x, sq, k)
    return labels, int(n_clusters)


def mdav(features: np.ndarray, k: int) -> Clustering:
    """Fixed-size MDAV microaggregation of a feature matrix.

    While at least 3k rows remain: take the row r farthest from the
    centroid of the remaining rows, cluster it with its k-1 nearest
    remaining rows, then take the remaining row s farthest from r and
    cluster it likewise.  If 2k..3k-1 rows remain afterwards, one more
    cluster of k forms around the row farthest from the current centroid;
    whatever remains (k..2k-1 rows) becomes the final cluster.
    """
    labels, n_clusters = mdav_labels(features, k)
    return Clustering(k, labels, n_clusters)


# ---------------------------------------------------------------------------
# dataset-level operations

def qi_feature_matrix(em: EncodedMatrix, ds: TabularDataset) -> np.ndarray:
    """Encoded columns of the quasi-identifier attributes, in schema order.

    When they form one run of columns, as when every non-class attribute is
    a quasi-identifier, this is a read-only view of em.features; otherwise
    a copy of the columns.
    """
    columns = attribute_columns(ds.schema)
    spans = [columns[j] for j in ds.qi_indices]
    if not spans:
        raise DataError("dataset declares no quasi-identifier attributes")
    start, stop = spans[0].start, spans[-1].stop
    if sum(s.stop - s.start for s in spans) == stop - start:
        return em.features[:, start:stop]
    cols = np.concatenate([np.arange(s.start, s.stop) for s in spans])
    return em.features.take(cols, axis=1)


def centroid_replace(ds: TabularDataset, clustering: Clustering) -> TabularDataset:
    """Replace each cluster's QI cells by the cluster centroid.

    Numeric QI cells become the cluster mean; categorical QI cells become
    the cluster mode with ties broken toward the lowest category index.
    Non-QI attributes (the class included) are untouched.
    """
    if clustering.n_rows != ds.n_rows:
        raise DataError("clustering does not match dataset size")
    rows = np.array(ds.rows)
    labels, n_clusters = clustering.labels(), clustering.n_clusters
    counts = np.bincount(labels, minlength=n_clusters).astype(np.float64)
    for j in ds.qi_indices:
        attr = ds.schema[j]
        col = ds.rows[:, j]
        if attr.kind == NUMERIC:
            sums = np.bincount(labels, weights=col, minlength=n_clusters)
            rows[:, j] = (sums / counts)[labels]
        else:
            # one (cluster, category) histogram; argmax takes the first maximum
            n_cat = len(attr.categories)
            freq = np.bincount(labels * n_cat + col.astype(np.int64), minlength=n_clusters * n_cat)
            rows[:, j] = freq.reshape(n_clusters, n_cat).argmax(axis=1)[labels]
    return TabularDataset._holding(ds.schema, rows, Provenance.k_anonymized(clustering.k))


def k_anonymize(ds: TabularDataset, k: int) -> TabularDataset:
    """Full pipeline: encode QI columns, cluster with MDAV, replace centroids."""
    em = encode(ds)
    clustering = mdav(qi_feature_matrix(em, ds), k)
    return centroid_replace(ds, clustering)


@dataclass(frozen=True)
class KAnonymityReport:
    ok: bool
    k: int
    n_groups: int
    min_group_size: int
    violating_groups: int


def verify_k_anonymity(ds: TabularDataset, k: int) -> KAnonymityReport:
    """Group rows by their exact QI value combination and check group sizes.

    Every combination of quasi-identifier values that occurs must occur at
    least k times.  An empty dataset passes vacuously.
    """
    if k < 1:
        raise DataError(f"k must be >= 1, got {k}")
    qi = list(ds.qi_indices)
    if ds.n_rows == 0:
        return KAnonymityReport(True, k, 0, 0, 0)
    if not qi:
        return KAnonymityReport(ds.n_rows >= k, k, 1, ds.n_rows, int(ds.n_rows < k))
    _, counts = np.unique(ds.rows[:, qi], axis=0, return_counts=True)
    violating = int((counts < k).sum())
    return KAnonymityReport(violating == 0, k, len(counts), int(counts.min()), violating)
