import json
import math

import numpy as np
import pytest
import scipy.stats

from privforget.data import AttributeSchema, Provenance, TabularDataset
from privforget.dpanon import (
    CategoricalMechanism,
    DpError,
    MechanismSpec,
    dp_protect_table,
    exponential_probabilities,
    laplace_icdf,
    laplace_sample,
    load_utility_file,
    make_rng,
    perturb_categorical,
    perturb_numeric,
)


# ---------------------------------------------------------------------------
# Laplace mechanism

def test_laplace_icdf_known_points():
    assert laplace_icdf(0.0, 3.0) == 0.0
    assert laplace_icdf(0.25, 1.0) == pytest.approx(math.log(2), rel=1e-15)
    assert laplace_icdf(-0.25, 1.0) == pytest.approx(-math.log(2), rel=1e-15)
    # the grid endpoint u = -1/2 must stay finite
    assert np.isfinite(laplace_icdf(-0.5, 1.0))


def test_laplace_icdf_matches_reference_ppf():
    u = np.linspace(-0.49, 0.49, 197)
    ours = laplace_icdf(u, 2.3)
    ref = scipy.stats.laplace.ppf(u + 0.5, scale=2.3)
    assert np.allclose(ours, ref, rtol=1e-12, atol=1e-12)


def test_laplace_sample_moments():
    rng = make_rng(7)
    b = 1.5
    x = laplace_sample(b, rng, size=1_000_000)
    assert abs(x.mean()) < 0.01
    assert x.var() == pytest.approx(2 * b * b, rel=0.02)


def test_laplace_sample_distribution():
    rng = make_rng(11)
    x = laplace_sample(0.8, rng, size=20_000)
    stat = scipy.stats.kstest(x, "laplace", args=(0, 0.8))
    assert stat.pvalue > 0.01


def test_laplace_sample_rejects_negative_scale():
    with pytest.raises(DpError, match="non-negative"):
        laplace_sample(-1.0, make_rng(0))


def test_perturb_numeric_clamps_and_counts():
    rng = make_rng(3)
    values = np.full(5000, 0.5)
    # near-zero budget: noise dwarfs the range, almost everything clamps
    noised, n_clamped = perturb_numeric(values, 1.0, 1e-6, rng, bounds=(0.0, 1.0))
    assert noised.min() >= 0.0 and noised.max() <= 1.0
    assert n_clamped > 4500
    # huge budget: noise is negligible and nothing clamps
    quiet, n_quiet = perturb_numeric(values, 1.0, 1e9, make_rng(3), bounds=(0.0, 1.0))
    assert n_quiet == 0
    assert np.allclose(quiet, values, atol=1e-6)


def test_perturb_numeric_validation():
    with pytest.raises(DpError, match="epsilon"):
        perturb_numeric(np.zeros(3), 1.0, 0.0, make_rng(0), bounds=(0.0, 1.0))
    with pytest.raises(DpError, match="sensitivity"):
        perturb_numeric(np.zeros(3), -1.0, 1.0, make_rng(0), bounds=(0.0, 1.0))


# ---------------------------------------------------------------------------
# exponential mechanism

def test_exponential_probabilities_binary_keep():
    # identity utility, two categories: P(keep) = e^(eps/2) / (e^(eps/2) + 1)
    p = exponential_probabilities(np.array([1.0, 0.0]), 2.0, 1.0)
    assert p[0] == pytest.approx(math.e / (math.e + 1.0), rel=1e-15)
    assert p.sum() == pytest.approx(1.0, rel=1e-15)


def test_exponential_probabilities_shift_invariant():
    a = exponential_probabilities(np.array([5.0, 4.0, 4.5]), 1.3, 1.0)
    b = exponential_probabilities(np.array([1.0, 0.0, 0.5]), 1.3, 1.0)
    assert np.allclose(a, b, rtol=1e-12)


def test_perturb_categorical_keep_frequency():
    n = 100_000
    mech = CategoricalMechanism.identity(2)
    out = perturb_categorical(np.zeros(n), mech, 2.0, make_rng(123))
    keep = (out == 0).mean()
    assert keep == pytest.approx(math.e / (math.e + 1.0), abs=0.01)


def test_perturb_categorical_chi_square():
    n = 100_000
    mech = CategoricalMechanism(
        np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 0.0], [0.5, 0.0, 1.0]])
    )
    eps = 1.5
    out = perturb_categorical(np.zeros(n), mech, eps, make_rng(99))
    expected = exponential_probabilities(mech.utility[0], eps, mech.delta_u) * n
    observed = np.bincount(out.astype(int), minlength=3)
    stat = scipy.stats.chisquare(observed, expected)
    assert stat.pvalue > 0.001


def test_perturb_categorical_extreme_utility_is_deterministic():
    # overwhelming utility for flipping makes the draw effectively certain
    mech = CategoricalMechanism(np.array([[0.0, 500.0], [500.0, 0.0]]))
    out = perturb_categorical(np.array([0.0, 1.0, 0.0, 1.0]), mech, 10.0, make_rng(1))
    assert out.tolist() == [1.0, 0.0, 1.0, 0.0]


def test_perturb_categorical_same_seed_same_output():
    vals = np.array([0.0, 2.0, 1.0, 1.0, 0.0, 2.0])
    mech = CategoricalMechanism.identity(3)
    a = perturb_categorical(vals, mech, 0.7, make_rng(5))
    b = perturb_categorical(vals, mech, 0.7, make_rng(5))
    assert np.array_equal(a, b)


def test_perturb_categorical_rejects_out_of_range():
    mech = CategoricalMechanism.identity(2)
    with pytest.raises(DpError, match="utility matrix"):
        perturb_categorical(np.array([0.0, 3.0]), mech, 1.0, make_rng(0))


def test_categorical_mechanism_validation():
    with pytest.raises(DpError, match="square"):
        CategoricalMechanism(np.zeros((2, 3)))
    with pytest.raises(DpError, match="delta_u"):
        CategoricalMechanism(np.eye(2), 0.0)
    with pytest.raises(DpError, match="finite"):
        CategoricalMechanism(np.array([[1.0, np.nan], [0.0, 1.0]]))


# ---------------------------------------------------------------------------
# table protection

SCHEMA = (
    AttributeSchema("age", "numeric", "quasi_identifier", declared_range=(0.0, 100.0)),
    AttributeSchema("hours", "numeric", "other", observed_range=(0.0, 80.0)),
    AttributeSchema("color", "categorical", "quasi_identifier", categories=("r", "g", "b")),
    AttributeSchema("label", "categorical", "class", categories=("n", "y")),
)


def make_table(n=50, seed=0):
    rng = np.random.default_rng(seed)
    rows = np.column_stack(
        [
            rng.uniform(0, 100, n),
            rng.uniform(0, 80, n),
            rng.integers(0, 3, n).astype(float),
            rng.integers(0, 2, n).astype(float),
        ]
    )
    return TabularDataset(SCHEMA, rows, Provenance.raw())


def test_dp_protect_table_basic():
    ds = make_table()
    result = dp_protect_table(ds, 1.0, seed=42)
    out = result.dataset
    assert out.provenance.kind == "dp_protected" and out.provenance.param == 1.0
    # class column untouched
    assert np.array_equal(out.rows[:, 3], ds.rows[:, 3])
    # numeric columns clamped to their effective ranges
    assert out.rows[:, 0].min() >= 0.0 and out.rows[:, 0].max() <= 100.0
    assert out.rows[:, 1].min() >= 0.0 and out.rows[:, 1].max() <= 80.0
    # categorical stays a valid index
    assert set(np.unique(out.rows[:, 2])) <= {0.0, 1.0, 2.0}


def test_dp_protect_table_deterministic():
    ds = make_table()
    a = dp_protect_table(ds, 0.5, seed=7).dataset
    b = dp_protect_table(ds, 0.5, seed=7).dataset
    c = dp_protect_table(ds, 0.5, seed=8).dataset
    assert np.array_equal(a.rows, b.rows)
    assert not np.array_equal(a.rows, c.rows)


def test_dp_protect_table_budget_ledger():
    ds = make_table()
    result = dp_protect_table(ds, 0.3, seed=1)
    ledger = result.ledger
    assert ledger.n_attributes == 3
    assert len(ledger.entries) == 3
    # float shares are eps/m; the exact rational shares sum to eps precisely
    for e in ledger.entries:
        assert e.epsilon_share == 0.3 / 3
    assert float(ledger.share_exact * len(ledger.entries)) == 0.3
    mechs = {e.attribute: e.mechanism for e in ledger.entries}
    assert mechs == {"age": "laplace", "hours": "laplace", "color": "exponential"}
    # numeric sensitivity defaults to the effective range width
    sens = {e.attribute: e.sensitivity for e in ledger.entries}
    assert sens["age"] == 100.0 and sens["hours"] == 80.0
    json.dumps(result.ledger.to_json_dict())  # must be serializable


def test_dp_protect_requires_raw_input():
    ds = make_table()
    once = dp_protect_table(ds, 1.0, seed=0).dataset
    with pytest.raises(DpError, match="raw"):
        dp_protect_table(once, 1.0, seed=0)


def test_dp_protect_rejects_bad_epsilon():
    with pytest.raises(DpError, match="epsilon"):
        dp_protect_table(make_table(), 0.0, seed=0)


def test_dp_protect_with_custom_utility():
    ds = make_table()
    spec = MechanismSpec(
        categorical={"color": CategoricalMechanism(np.eye(3) * 2.0, delta_u=2.0)}
    )
    result = dp_protect_table(ds, 1.0, seed=5, spec=spec)
    entry = [e for e in result.ledger.entries if e.attribute == "color"][0]
    assert entry.sensitivity == 2.0


def test_dp_protect_rejects_mismatched_utility():
    spec = MechanismSpec(categorical={"color": CategoricalMechanism.identity(4)})
    with pytest.raises(DpError, match="categories"):
        dp_protect_table(make_table(), 1.0, seed=0, spec=spec)


def test_load_utility_file(tmp_path):
    path = tmp_path / "utility.json"
    path.write_text(
        json.dumps(
            {"color": {"delta_u": 2.0, "utility": [[2, 0, 1], [0, 2, 0], [1, 0, 2]]}}
        )
    )
    spec = load_utility_file(path, SCHEMA)
    assert spec.categorical["color"].delta_u == 2.0
    assert spec.categorical["color"].utility[0, 2] == 1.0

    (tmp_path / "bad1.json").write_text(json.dumps({"nope": {"utility": [[1]]}}))
    with pytest.raises(DpError, match="unknown attribute"):
        load_utility_file(tmp_path / "bad1.json", SCHEMA)

    (tmp_path / "bad2.json").write_text(json.dumps({"age": {"utility": [[1]]}}))
    with pytest.raises(DpError, match="not categorical"):
        load_utility_file(tmp_path / "bad2.json", SCHEMA)

    (tmp_path / "bad3.json").write_text(json.dumps({"color": {"utility": [[1, 0], [0, 1]]}}))
    with pytest.raises(DpError, match="categories"):
        load_utility_file(tmp_path / "bad3.json", SCHEMA)


def test_make_rng_rejects_negative_seed():
    with pytest.raises(DpError, match="non-negative"):
        make_rng(-1)
