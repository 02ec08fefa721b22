"""k-anonymity via MDAV microaggregation.

Rows are grouped into clusters of size k..2k-1 by the fixed-size variant of
maximum-distance-to-average-vector microaggregation, then every cluster's
quasi-identifier cells are replaced by the cluster centroid (mean for
numeric attributes, mode for categorical ones).  Distances are Euclidean
over the encoded quasi-identifier columns, so numeric attributes enter on
their min-max scale and categorical ones as one-hot blocks.

All tie-breaks are deterministic: the candidate with the lowest original
row index wins.  The cluster-building scans are the package's hot loop and
run as vectorised numpy over the active rows.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import (
    CATEGORICAL,
    NUMERIC,
    DataError,
    EncodedMatrix,
    Provenance,
    TabularDataset,
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
# The active (unassigned) rows are kept as an index array sorted ascending,
# so "first maximum" and stable-sort selection both break ties toward the
# lowest original row index.

def _farthest_numpy(x, active, point):
    d = ((x[active] - point) ** 2).sum(axis=1)
    return int(np.argmax(d))


def _mdav_labels_numpy(x, k):
    n = x.shape[0]
    labels = np.full(n, -1, dtype=np.int64)
    active = np.arange(n)
    next_label = 0

    def take_cluster(active, seed_pos, label):
        seed_row = active[seed_pos]
        d = ((x[active] - x[seed_row]) ** 2).sum(axis=1)
        d[seed_pos] = np.inf
        member = np.zeros(len(active), dtype=bool)
        member[seed_pos] = True
        member[np.argsort(d, kind="stable")[: k - 1]] = True
        labels[active[member]] = label
        return active[~member], seed_row

    while len(active) >= 3 * k:
        centroid = x[active].mean(axis=0)
        r_pos = _farthest_numpy(x, active, centroid)
        active, r_row = take_cluster(active, r_pos, next_label)
        next_label += 1
        s_pos = _farthest_numpy(x, active, x[r_row])
        active, _ = take_cluster(active, s_pos, next_label)
        next_label += 1

    if len(active) >= 2 * k:
        centroid = x[active].mean(axis=0)
        r_pos = _farthest_numpy(x, active, centroid)
        active, _ = take_cluster(active, r_pos, next_label)
        next_label += 1

    if len(active):
        labels[active] = next_label
        next_label += 1
    return labels, next_label


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
    labels, n_clusters = _mdav_labels_numpy(x, k)
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
    clusters = tuple(np.flatnonzero(labels == c) for c in range(n_clusters))
    return Clustering(features.shape[0], k, clusters)


# ---------------------------------------------------------------------------
# dataset-level operations

def qi_feature_matrix(em: EncodedMatrix, ds: TabularDataset) -> np.ndarray:
    """Encoded columns of the quasi-identifier attributes, in schema order."""
    spans = [em.span(ds.schema[i].name) for i in ds.qi_indices]
    if not spans:
        raise DataError("dataset declares no quasi-identifier attributes")
    cols = np.concatenate([np.arange(s.start, s.stop) for s in spans])
    return em.features[:, cols]


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
    counts = np.bincount(labels, minlength=len(clustering.clusters)).astype(np.float64)
    for j in ds.qi_indices:
        attr = ds.schema[j]
        col = ds.rows[:, j]
        if attr.kind == NUMERIC:
            sums = np.bincount(labels, weights=col, minlength=len(counts))
            rows[:, j] = (sums / counts)[labels]
        else:
            n_cat = len(attr.categories)
            modes = np.empty(len(clustering.clusters))
            for cid, idx in enumerate(clustering.clusters):
                freq = np.bincount(col[idx].astype(np.int64), minlength=n_cat)
                modes[cid] = float(np.argmax(freq))
            rows[:, j] = modes[labels]
    return TabularDataset(
        ds.schema, rows, Provenance.k_anonymized(clustering.k), ds.source_indices
    )


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
