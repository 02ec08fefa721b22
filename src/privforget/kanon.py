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
matrix-vector product) and evaluate the reference sum((x - p)^2) only for
the rows a proven rounding-error bound cannot rule out, so the labels are
those of the reference evaluated over every row, bit for bit (the kernel
comment below gives the bound).
"""
from __future__ import annotations

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


@dataclass(frozen=True)
class Clustering:
    """A partition of row indices 0..n_rows-1 into clusters of size k..2k-1."""

    n_rows: int
    k: int
    clusters: tuple[np.ndarray, ...]

    def __post_init__(self):
        clusters = tuple(np.array(c, dtype=np.int64) for c in self.clusters)
        object.__setattr__(self, "clusters", clusters)
        seen = np.zeros(self.n_rows, dtype=bool)
        for c in clusters:
            if not self.k <= len(c) <= 2 * self.k - 1:
                raise DataError(
                    f"cluster size {len(c)} outside [{self.k}, {2 * self.k - 1}]"
                )
            if seen[c].any():
                raise DataError("clusters overlap")
            seen[c] = True
        if not seen.all():
            raise DataError("clusters do not cover all rows")

    def labels(self) -> np.ndarray:
        out = np.empty(self.n_rows, dtype=np.int64)
        for cid, c in enumerate(self.clusters):
            out[c] = cid
        return out


# ---------------------------------------------------------------------------
# kernel
#
# Reference semantics.  Every decision of fixed-size MDAV compares squared
# distances computed as ``((xa - p) ** 2).sum(axis=1)`` over the active rows
# ``xa`` (kept in ascending row order): "farthest" is the first maximum, the
# k-1 "nearest" are the head of a stable sort, so ties go to the lowest row.
#
# Filter and verify.  Evaluating that expression for every active row costs
# two n x d temporaries per scan.  Instead each scan ranks the rows on the
# surrogate ``sq - 2 * (xa @ p) + p @ p`` (``sq`` the cached squared row
# norms; one gemv), which differs from the reference expression by at most
#
#     bound = tol * (max(sq) + p @ p + tiny),   tol = (4 d + 16) * eps.
#
# Both are rounded forms of the true squared distance.  With
# S = |x|^2 + |p|^2 and u = eps / 2, the standard rounding model gives a
# surrogate error of at most (2 d + 5) u S (norms, the dot product in any
# summation order, two additions) and a reference error of at most
# (2 d + 4) u S (subtraction, square, a d-term sum of non-negative terms,
# against a true distance <= 2 S).  Their sum is (2 d + 4.5) eps S; tol is
# about twice that, to absorb the second-order terms and the threshold
# arithmetic, and ``tiny`` covers gradual underflow.  Hence
#
#   - every row that maximises the reference lies within 2 * bound of the
#     surrogate maximum, and
#   - every row among the k-1 reference-nearest lies within 2 * bound of
#     the (k-1)-th smallest surrogate.
#
# Only those candidates (usually exactly 1 and k-1 rows) get the reference
# expression, and the decision is taken on its values over the candidates
# in ascending row order.  The reference distance of a row does not depend
# on which other rows are computed alongside it, so the labels equal the
# reference's bit for bit, ties included.  The bound needs finite squared
# distances, which mdav_labels checks up front.  It stays valid, only looser,
# when max(sq) runs over clustered rows still in the block as well.

_TINY = np.finfo(np.float64).tiny


def _scan(xa, sq, p, tol):
    """Surrogate squared distances from every active row to p, and their error bound."""
    pp = p @ p
    return sq - 2.0 * (xa @ p) + pp, tol * (sq.max() + pp + _TINY)


def _exact(xa, rows, p):
    """Reference squared distances from the given active rows to p."""
    return ((xa[rows] - p) ** 2).sum(axis=1)


def _farthest(xa, p, s, bound):
    """Position of the active row farthest from p (the first, on ties)."""
    cand = np.flatnonzero(s >= s.max() - 2.0 * bound)
    return int(cand[np.argmax(_exact(xa, cand, p))])


def _nearest(xa, p, s, bound, k):
    """Positions of the k-1 active rows nearest to p; rows with s = inf are excluded."""
    cand = np.flatnonzero(s <= np.partition(s, k - 2)[k - 2] + 2.0 * bound)
    return cand[np.argsort(_exact(xa, cand, p), kind="stable")[: k - 1]]


class _UntakenMean:
    """The mean of the untaken rows of the kernel's active block, bit for bit
    that of the block compacted to them, mostly without a pass over the block.

    numpy sums a C-ordered block two or more columns wide along axis 0 row
    by row, in row order from 0.0, masked or not; a single column it sums
    pairwise.  A column of integers whose magnitudes sum below 2**53, such
    as a one-hot column, sums exactly in any order, so when x has such
    columns their sums over the untaken rows are kept as the column totals
    less each cluster's rows, and only the other, real columns are summed
    at each call: in row order, over a C-ordered copy of them that is
    compacted with the block and widened by a zero column when it would be
    one column wide.  When every column is real, the block itself is summed.
    """

    def __init__(self, x):
        n, d = x.shape
        whole = [bool((c == np.rint(c)).all()) and np.abs(c).max() * n < 2.0**53 for c in x.T]
        self.real = np.flatnonzero(np.logical_not(whole))
        self.sums = np.add.reduce(x, axis=0)
        self.copy = None
        if len(self.real) < d:
            self.copy = x.take(self.real, axis=1)
            if len(self.real) == 1:
                self.copy = np.column_stack([self.copy, np.zeros(n)])

    def remove(self, rows):
        """Drop the rows (an array of them) just taken from the running sums."""
        self.sums -= np.add.reduce(rows, axis=0)

    def compact(self, keep):
        if self.copy is not None:
            self.copy = self.copy[keep]

    def __call__(self, xa, taken, m):
        if self.copy is None:
            if xa.shape[1] == 1:
                return xa[~taken].mean(axis=0)
            return np.add.reduce(xa, axis=0, where=~taken[:, None]) / m
        centroid = self.sums.copy()
        real_sums = np.add.reduce(self.copy, axis=0, where=~taken[:, None])
        centroid[self.real] = real_sums[: len(self.real)]
        return centroid / m


def _mdav_kernel(x, sq, k):
    """Labels and cluster count; x has finite rows with squared norms sq."""
    n, d = x.shape
    tol = (4 * d + 16) * np.finfo(np.float64).eps
    labels = np.empty(n, dtype=np.int64)
    # The active block: x's rows in ascending row order, with their row ids
    # and squared norms, less the rows compacted away.  The rows clustered
    # since the last compaction stay in the block, flagged in `taken`, and
    # every scan sets them to +-inf; m rows are untaken.  The block is
    # compacted once a quarter of it is taken, so x itself is never copied
    # and each compaction allocates at most 3/4 of the block it replaces.
    ids, xa, sqa = np.arange(n), x, sq
    taken = np.zeros(n, dtype=bool)
    m = n
    untaken_mean = _UntakenMean(x)
    n_clusters = 0

    def take_cluster(seed):
        """Cluster the seed with its k-1 nearest untaken rows; flag them taken.

        Returns the surrogate distances to the seed, taken rows at -inf, and
        their bound: the "farthest from r" scan reuses them.
        """
        nonlocal m, n_clusters
        p = xa[seed]
        s, bound = _scan(xa, sqa, p, tol)
        taken[seed] = True
        s[taken] = np.inf
        members = np.append(_nearest(xa, p, s, bound, k), seed)
        taken[members] = True
        untaken_mean.remove(xa[members])
        m -= k
        labels[ids[members]] = n_clusters
        n_clusters += 1
        s[taken] = -np.inf
        return s, bound

    def farthest_from_centroid():
        centroid = untaken_mean(xa, taken, m)
        s, bound = _scan(xa, sqa, centroid, tol)
        s[taken] = -np.inf
        return _farthest(xa, centroid, s, bound)

    def compact_if_a_quarter_taken():
        nonlocal ids, xa, sqa, taken
        if 4 * (len(ids) - m) >= len(ids):
            keep = ~taken
            ids, xa, sqa = ids[keep], xa[keep], sqa[keep]
            untaken_mean.compact(keep)
            taken = np.zeros(m, dtype=bool)

    while m >= 3 * k:
        r = farthest_from_centroid()
        s_r, bound = take_cluster(r)
        take_cluster(_farthest(xa, xa[r], s_r, bound))
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
    # a stable sort keeps every cluster's rows in ascending order
    order = np.argsort(labels, kind="stable")
    sizes = np.bincount(labels, minlength=n_clusters)
    return Clustering(features.shape[0], k, tuple(np.split(order, np.cumsum(sizes)[:-1])))


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
    labels = clustering.labels()
    n_clusters = len(clustering.clusters)
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
    return TabularDataset(ds.schema, rows, Provenance.k_anonymized(clustering.k))


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
