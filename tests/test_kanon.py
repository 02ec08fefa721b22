import hashlib
import tracemalloc

import numpy as np
import pytest

from privforget.data import (
    AttributeSchema,
    DataError,
    Provenance,
    TabularDataset,
    encode,
)
from privforget.kanon import (
    Clustering,
    _exact,
    _UntakenMean,
    centroid_replace,
    k_anonymize,
    mdav,
    mdav_labels,
    qi_feature_matrix,
    verify_k_anonymity,
)

from conftest import make_dataset

# sha256 of the little-endian int64 labels and the cluster count that
# mdav_labels gives on seeded integer-valued matrices, keyed by (k, n, value
# range).  Row-to-row distances are exact on such data and the small ranges
# force many ties, so any kernel that keeps the algorithm and its lowest-index
# tie-breaks must reproduce these labels bit for bit.
PINNED_LABELS = {
    (2, 150, 40): (75, "33f6fb42b1b95e20ab48e2f6424337f60b87873d737df21933565610b8fc4bbb"),
    (3, 299, 40): (99, "ad3a409965feb954a7888198e2328faefd6e1adbd78e85f7f32bdb5aa8b0c6ac"),
    (7, 256, 40): (36, "f98cb2126638c15fcbe16e3c068ebd466abf52cd7d5b1a9720a85ac8f2a4463d"),
    (2, 97, 3): (48, "187e2eecc6739edebad75f861569fa071294c7506d4c98c944aa1eb6b798cc18"),
    (3, 200, 3): (66, "302cb0690b92469237b6463792da63aeecc004498d6f88e31f59d11cf94586b8"),
    (7, 300, 3): (42, "4b5bf1ffe8f88b1dede6681dd2560ec8cdd27b53a52d37a01c0c148e4a083af4"),
}


# Reference MDAV kernel: every scan evaluates the reference distances of all
# active rows.  The filter-and-verify kernel in kanon.py must match it label
# for label.

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


def _adult_like(rng, n):
    """Min-max scaled integer attributes next to one-hot blocks, as encode() gives."""
    numeric = rng.integers(0, 60, size=(n, 3)) / 59.0
    blocks = [np.eye(c)[rng.integers(0, c, size=n)] for c in (7, 16, 2)]
    return np.hstack([numeric, *blocks])


def _duplicate_ints(rng, n):
    """Few distinct integer rows, each repeated: exact ties everywhere."""
    distinct = rng.integers(0, 3, size=(max(1, n // 3), 4)).astype(float)
    return distinct[rng.integers(0, len(distinct), size=n)]


def _one_real_among_one_hot(rng, n):
    """A single real column between one-hot blocks: numpy sums a lone column
    pairwise but a wider block row by row, so its centroid entry must be
    summed in row order, as the block's is."""
    blocks = [np.eye(c)[rng.integers(0, c, size=n)] for c in (5, 3)]
    return np.hstack([blocks[0], rng.normal(size=(n, 1)), blocks[1]])


def _f32_near_ties(rng, n):
    """One-hot blocks beside a column whose values differ by a quarter of
    float32's eps: rows the float32 copy cannot tell apart, which only the
    float64 re-check orders."""
    blocks = [np.eye(c)[rng.integers(0, c, size=n)] for c in (3, 2)]
    step = np.finfo(np.float32).eps / 4
    return np.hstack([*blocks, 1.0 + step * rng.integers(0, 4, size=(n, 1))])


MATRIX_FAMILIES = {
    "normal": lambda rng, n: rng.normal(size=(n, 6)),
    "adult_like": _adult_like,
    "duplicate_ints": _duplicate_ints,
    "offset_1e6": lambda rng, n: 1e6 + rng.normal(size=(n, 5)),
    "scaled_1e6": lambda rng, n: 1e6 * rng.normal(size=(n, 5)),
    "one_column": lambda rng, n: rng.normal(size=(n, 1)),
    # integers too large to sum exactly
    "large_ints": lambda rng, n: rng.integers(-(2**50), 2**50, size=(n, 3)).astype(float),
    "one_real_among_one_hot": _one_real_among_one_hot,
    # beyond float32's range: the scans' float32 copy is scaled by a power of two
    "huge_1e30": lambda rng, n: 1e30 * rng.normal(size=(n, 5)),
    "huge_1e150": lambda rng, n: 1e150 * rng.normal(size=(n, 5)),
    "tiny_1e-42": lambda rng, n: 1e-42 * rng.normal(size=(n, 5)),  # float32 subnormals
    "tiny_1e-150": lambda rng, n: 1e-150 * rng.normal(size=(n, 5)),
    # scaled by 2**460 only: float32 products underflow, the bound's absolute term covers them
    "tiny_1e-160": lambda rng, n: 1e-160 * rng.normal(size=(n, 5)),
    "mixed_1e20": lambda rng, n: np.hstack([1e20 * rng.normal(size=(n, 1)), rng.normal(size=(n, 2))]),
    "mixed_1e-40": lambda rng, n: np.hstack([1e-40 * rng.normal(size=(n, 2)), rng.normal(size=(n, 2))]),
    "f32_near_ties": _f32_near_ties,
}


@pytest.mark.parametrize("k", [2, 3, 5, 10])
@pytest.mark.parametrize("family", sorted(MATRIX_FAMILIES))
def test_kernel_matches_reference(family, k):
    rng = np.random.default_rng([k, len(family)])
    # 40k + 1 rows: the kernel compacts its active block several times
    for n in (k, 2 * k, 3 * k - 1, 3 * k, 7 * k + 3, 150, 40 * k + 1):
        x = MATRIX_FAMILIES[family](rng, n)
        want, want_clusters = _mdav_labels_numpy(x, k)
        got, got_clusters = mdav_labels(x, k)
        assert np.array_equal(got, want) and got_clusters == want_clusters, (family, k, n)
        clusters = mdav(x, k).clusters
        assert len(clusters) == want_clusters
        assert all(np.array_equal(c, np.flatnonzero(want == i)) for i, c in enumerate(clusters))


@pytest.mark.parametrize("family", sorted(MATRIX_FAMILIES))
def test_untaken_mean_is_the_compacted_mean(family):
    """The kernel's centroid, kept from running sums while rows are taken
    and the block is compacted now and then, has the bits of the mean of
    the untaken rows gathered on their own."""
    rng = np.random.default_rng([7, len(family)])
    for n in (12, 150, 600):
        x = MATRIX_FAMILIES[family](rng, n)
        untaken_mean, ids, taken, m = _UntakenMean(x), np.arange(n), np.zeros(n, dtype=bool), n
        while m > 2:
            rows = rng.choice(np.flatnonzero(~taken), size=2, replace=False)
            taken[rows] = True
            untaken_mean.remove(rows, x[ids[rows]])
            m -= 2
            want = x[ids[~taken]].mean(axis=0)
            assert untaken_mean(taken, m).tobytes() == want.tobytes(), (family, n, m)
            if rng.random() < 0.1:
                keep = ~taken
                ids, taken = ids[keep], np.zeros(m, dtype=bool)
                untaken_mean.compact(keep)


# Rows A = O + (5, 0, 0) and B = O + (3, 4, 2**-24) around O = (1024, 1024,
# 1024): their reference squared distances to O are 25 and 25 + 2**-48, one
# ulp apart, while |x|^2 - 2 x.O + |O|^2 rounds both to exactly 25.  Only the
# exact re-check can order them.
_O = np.full(3, 1024.0)
_A = _O + [5.0, 0.0, 0.0]
_B = _O + [3.0, 4.0, 2.0**-24]


def test_near_tie_rows_are_one_ulp_apart():
    ab = np.array([_A, _B])
    ref = ((ab - _O) ** 2).sum(axis=1)
    assert ref[1] == np.nextafter(ref[0], np.inf)
    surrogate = (ab**2).sum(axis=1) - 2.0 * (ab @ _O) + _O @ _O
    assert surrogate[0] == surrogate[1]


def test_near_tie_nearest_follows_reference():
    # O is farthest from the centroid; its nearest row is A, one ulp nearer
    # than B, which sits at the lower row index.
    x = np.array([_B, _A, _O, _O + [4.5, 3.0, 0.0]])
    labels, _ = mdav_labels(x, 2)
    assert np.array_equal(labels, _mdav_labels_numpy(x, 2)[0])
    assert labels.tolist() == [1, 0, 0, 1]


def test_near_tie_farthest_follows_reference():
    # O is farthest from the centroid and clusters with its neighbour; the
    # row farthest from O is then B, one ulp beyond A, at the higher index,
    # so B seeds the second cluster and A the third.
    near_a, near_b = _O + [4.5, 0.0, 0.0], _O + [2.75, 3.5, 0.0]
    x = np.array([_O, _O + [0.5, 0.5, 0.0], _A, _B, near_a, near_b])
    labels, _ = mdav_labels(x, 2)
    assert np.array_equal(labels, _mdav_labels_numpy(x, 2)[0])
    assert labels.tolist() == [0, 0, 2, 1, 2, 1]


@pytest.mark.parametrize("d", [1, 7, 104, 300])
def test_exact_distances_on_a_subset_match_the_full_scan(d):
    rng = np.random.default_rng(d)
    x = 1e3 + rng.normal(size=(257, d))
    p = x.mean(axis=0)
    full = ((x - p) ** 2).sum(axis=1)
    for size in (1, 2, 3, 8, 100, 257):
        rows = np.sort(rng.choice(len(x), size, replace=False))
        assert full[rows].tobytes() == _exact(x, rows, p).tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_mdav_rejects_non_finite_features(bad):
    x = np.random.default_rng(0).normal(size=(12, 3))
    x[7, 2] = bad
    with pytest.raises(DataError, match="row 7, column 2"):
        mdav_labels(x, 3)


def test_mdav_rejects_overflowing_distances():
    x = np.zeros((6, 2))
    x[4, 1] = 1e160
    with pytest.raises(DataError, match="overflow"):
        mdav(x, 2)


def cluster_sets(clustering):
    return sorted(tuple(sorted(c.tolist())) for c in clustering.clusters)


def test_hand_worked_1d_example():
    # points 0,1 | 10,11 | 20,21 with k=2.
    # centroid 10.5; rows 0 and 5 tie for farthest, lowest index wins -> row 0
    # seeds cluster {0,1}; farthest from row 0 is row 5, seeding {4,5};
    # the remaining pair {2,3} becomes the final cluster.
    x = np.array([[0.0], [1.0], [10.0], [11.0], [20.0], [21.0]])
    got = mdav(x, 2)
    assert cluster_sets(got) == [(0, 1), (2, 3), (4, 5)]


def test_cluster_size_edge_counts():
    rng = np.random.default_rng(5)
    for k in (2, 3, 5):
        for n, expected_sizes in (
            (k, [k]),
            (2 * k, [k, k]),
            (3 * k + 1, sorted([k, k, k + 1])),
        ):
            x = rng.integers(0, 100, size=(n, 3)).astype(float)
            got = mdav(x, k)
            assert sorted(len(c) for c in got.clusters) == sorted(expected_sizes)


def test_partition_properties_random():
    rng = np.random.default_rng(17)
    for trial in range(25):
        k = int(rng.choice([2, 3, 5, 10]))
        n = int(rng.integers(k, 400))
        d = int(rng.integers(1, 8))
        x = rng.normal(size=(n, d))
        got = mdav(x, k)
        sizes = [len(c) for c in got.clusters]
        assert all(k <= s <= 2 * k - 1 for s in sizes)
        all_idx = np.concatenate(got.clusters)
        assert len(all_idx) == n and len(np.unique(all_idx)) == n


@pytest.mark.parametrize("k,n,high", sorted(PINNED_LABELS))
def test_labels_pinned_on_exact_data(k, n, high):
    x = np.random.default_rng([k, n, high]).integers(0, high, size=(n, 5)).astype(float)
    labels, n_clusters = mdav_labels(x, k)
    digest = hashlib.sha256(labels.astype("<i8").tobytes()).hexdigest()
    assert (n_clusters, digest) == PINNED_LABELS[(k, n, high)]


def test_mdav_input_validation():
    x = np.zeros((5, 2))
    with pytest.raises(DataError, match="k >= 2"):
        mdav(x, 1)
    with pytest.raises(DataError, match="at least k"):
        mdav(np.zeros((3, 2)), 4)
    with pytest.raises(DataError, match="2-d"):
        mdav(np.zeros(5), 2)


def test_clustering_invariants_enforced():
    with pytest.raises(DataError, match="size 1 outside"):
        Clustering(2, [0, 1, 1, 1], 2)
    with pytest.raises(DataError, match="size 0 outside"):
        Clustering(2, [0, 0, 2, 2], 3)
    for labels in ([0, 0, 1, 2], [0, 0, -1, 1]):
        with pytest.raises(DataError, match=r"ids must lie in \[0, 2\)"):
            Clustering(2, labels, 2)
    clustering = Clustering(2, [1, 0, 1, 0], 2)
    assert [c.tolist() for c in clustering.clusters] == [[1, 3], [0, 2]]


SCHEMA = (
    AttributeSchema("a", "numeric", "quasi_identifier", observed_range=(0.0, 8.0)),
    AttributeSchema("b", "numeric", "other", observed_range=(0.0, 8.0)),
    AttributeSchema("c", "categorical", "quasi_identifier", categories=("p", "q", "r")),
    AttributeSchema("label", "categorical", "class", categories=("n", "y")),
)


def test_centroid_replace_mean_mode_and_tie():
    rows = np.array(
        [
            [0.0, 1.0, 0.0, 0.0],
            [2.0, 2.0, 0.0, 1.0],
            [4.0, 3.0, 1.0, 0.0],
            [8.0, 4.0, 1.0, 1.0],
        ]
    )
    ds = TabularDataset(SCHEMA, rows, Provenance.raw())
    clustering = Clustering(2, [0, 0, 1, 1], 2)
    out = centroid_replace(ds, clustering)
    # numeric QI becomes the cluster mean
    assert out.rows[:, 0].tolist() == [1.0, 1.0, 6.0, 6.0]
    # non-QI numeric and the class stay untouched
    assert np.array_equal(out.rows[:, 1], rows[:, 1])
    assert np.array_equal(out.rows[:, 3], rows[:, 3])
    assert out.provenance.kind == "k_anonymized" and out.provenance.param == 2.0

    # categorical mode with a tie: cluster {0,1} has categories {0,0} -> 0;
    # make a tied cluster and check the lowest category index wins
    rows2 = np.array(
        [
            [0.0, 0.0, 2.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 2.0, 0.0],
        ]
    )
    ds2 = TabularDataset(SCHEMA, rows2, Provenance.raw())
    out2 = centroid_replace(ds2, Clustering(4, [0, 0, 0, 0], 1))
    assert out2.rows[:, 2].tolist() == [1.0, 1.0, 1.0, 1.0]


def test_centroid_replace_modes_match_per_cluster_loop(small_dataset):
    qi = qi_feature_matrix(encode(small_dataset), small_dataset)
    for k in (2, 5):
        clustering = mdav(qi, k)
        out = centroid_replace(small_dataset, clustering)
        for j in small_dataset.qi_indices:
            attr = small_dataset.schema[j]
            if attr.kind != "categorical":
                continue
            col = small_dataset.rows[:, j].astype(np.int64)
            for idx in clustering.clusters:
                freq = np.bincount(col[idx], minlength=len(attr.categories))
                assert (out.rows[idx, j] == np.argmax(freq)).all()


def test_verify_k_anonymity_pass_and_fail():
    rows = np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [1.0, 5.0, 0.0, 1.0],
            [1.0, 0.0, 0.0, 0.0],
            [2.0, 0.0, 1.0, 1.0],
        ]
    )
    ds = TabularDataset(SCHEMA, rows, Provenance.raw())
    report = verify_k_anonymity(ds, 2)
    assert not report.ok
    assert report.n_groups == 2
    assert report.min_group_size == 1
    assert report.violating_groups == 1

    ok = verify_k_anonymity(ds, 1)
    assert ok.ok

    empty = TabularDataset(SCHEMA, np.empty((0, 4)), Provenance.raw())
    assert verify_k_anonymity(empty, 5).ok


def test_k_anonymize_end_to_end(small_dataset):
    for k in (2, 3, 7):
        out = k_anonymize(small_dataset, k)
        report = verify_k_anonymity(out, k)
        assert report.ok, f"k={k}: {report}"
        assert out.n_rows == small_dataset.n_rows
        # class column is never modified
        ci = small_dataset.class_index
        assert np.array_equal(out.rows[:, ci], small_dataset.rows[:, ci])


def test_clusters_are_tighter_than_random(small_dataset):
    em = encode(small_dataset)
    qi = qi_feature_matrix(em, small_dataset)
    k = 5
    clustering = mdav(qi, k)

    def sse(clusters):
        total = 0.0
        for c in clusters:
            pts = qi[c]
            total += ((pts - pts.mean(axis=0)) ** 2).sum()
        return total

    rng = np.random.default_rng(0)
    perm = rng.permutation(small_dataset.n_rows)
    random_clusters = [c[np.argsort(c)] for c in np.array_split(perm, len(clustering.clusters))]
    assert sse(clustering.clusters) < sse(random_clusters)


def test_mdav_deterministic(small_dataset):
    em = encode(small_dataset)
    qi = qi_feature_matrix(em, small_dataset)
    a = mdav(qi, 4)
    b = mdav(qi, 4)
    assert cluster_sets(a) == cluster_sets(b)


def test_k_anonymize_copies_no_encoded_matrix():
    """k_anonymize clusters a view of the encoded matrix and scans a float32
    copy of it, compacted lazily: on a 3000 x 100 table its allocations peak
    at about two encoded matrices (about five before any of these)."""
    ds = make_dataset(3000, seed=5, n_numeric=4, n_categorical=32)
    matrix_bytes = encode(ds).features.nbytes
    assert matrix_bytes == 3000 * 100 * 8
    tracemalloc.start()
    try:
        k_anonymize(ds, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.25 * matrix_bytes


def test_qi_feature_matrix_views_one_run_of_columns(small_dataset):
    """Every non-class attribute a quasi-identifier: the QI columns are one
    run, and the matrix is a read-only view of the encoded features."""
    em = encode(small_dataset)
    qi = qi_feature_matrix(em, small_dataset)
    assert np.shares_memory(qi, em.features) and not qi.flags.writeable
    assert np.array_equal(qi, em.features)


def test_qi_feature_matrix_copies_scattered_columns():
    """A non-QI attribute between two QI ones: the QI columns are copied out,
    in schema order."""
    rows = np.array([[1.0, 2.0, 0.0, 0.0], [3.0, 4.0, 2.0, 1.0], [8.0, 0.0, 1.0, 0.0]])
    ds = TabularDataset(SCHEMA, rows, Provenance.raw())
    em = encode(ds)
    qi = qi_feature_matrix(em, ds)
    assert not np.shares_memory(qi, em.features)
    assert np.array_equal(qi, em.features[:, [0, 2, 3, 4]])


def test_qi_feature_matrix_requires_qi():
    schema = (
        AttributeSchema("x", "numeric", "other", observed_range=(0.0, 1.0)),
        AttributeSchema("label", "categorical", "class", categories=("a", "b")),
    )
    ds = TabularDataset(schema, np.array([[0.5, 0.0]]), Provenance.raw())
    with pytest.raises(DataError, match="quasi-identifier"):
        qi_feature_matrix(encode(ds), ds)
