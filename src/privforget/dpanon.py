"""Differentially private table protection.

Numeric attributes are perturbed with Laplace noise scaled to the
attribute's value-range sensitivity; categorical attributes are resampled
with the exponential mechanism.  A table-level budget epsilon is split
uniformly over the protected (non-class) attributes by sequential
composition.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, field
from fractions import Fraction

import numpy as np

from . import seeds
from .data import (
    CATEGORICAL,
    CLASS,
    NUMERIC,
    DataError,
    Provenance,
    TabularDataset,
    read_json,
)


class DpError(DataError):
    pass


def make_rng(seed: int) -> np.random.Generator:
    if seed < 0:
        raise DpError(f"seed must be non-negative, got {seed}")
    return seeds.stream(seed, seeds.DP_NOISE)


# ---------------------------------------------------------------------------
# Laplace mechanism

def laplace_icdf(u, scale: float):
    """Inverse CDF of Laplace(0, scale) on u in (-1/2, 1/2); maps 0 to 0."""
    u = np.asarray(u, dtype=np.float64)
    w = 1.0 - 2.0 * np.abs(u)
    # u drawn from [-1/2, 1/2) can hit the endpoint exactly; keep the log finite
    w = np.maximum(w, np.finfo(np.float64).tiny)
    return -scale * np.sign(u) * np.log(w)


def laplace_sample(scale: float, rng: np.random.Generator, size=None):
    """Draw Laplace(0, scale) noise by inverse-CDF transform of U(-1/2, 1/2)."""
    if scale < 0:
        raise DpError(f"scale must be non-negative, got {scale}")
    u = rng.random(size) - 0.5
    return laplace_icdf(u, scale)


def perturb_numeric(
    values: np.ndarray,
    sensitivity: float,
    epsilon: float,
    rng: np.random.Generator,
    bounds: tuple[float, float],
):
    """Add Laplace(sensitivity/epsilon) noise, then clamp to bounds.

    Returns (noised values, number of cells that hit the clamp).
    """
    if epsilon <= 0:
        raise DpError(f"epsilon must be positive, got {epsilon}")
    if sensitivity < 0:
        raise DpError(f"sensitivity must be non-negative, got {sensitivity}")
    values = np.asarray(values, dtype=np.float64)
    noised = values + laplace_sample(sensitivity / epsilon, rng, size=values.shape)
    lo, hi = bounds
    n_clamped = int(((noised < lo) | (noised > hi)).sum())
    return np.clip(noised, lo, hi), n_clamped


# ---------------------------------------------------------------------------
# exponential mechanism

@dataclass(frozen=True)
class CategoricalMechanism:
    """Utility matrix u[current, candidate] and its sensitivity delta_u."""

    utility: np.ndarray
    delta_u: float = 1.0

    def __post_init__(self):
        u = np.array(self.utility, dtype=np.float64, copy=True)
        if u.ndim != 2 or u.shape[0] != u.shape[1]:
            raise DpError(f"utility matrix must be square, got shape {u.shape}")
        if not np.isfinite(u).all():
            raise DpError("utility matrix has non-finite entries")
        if self.delta_u <= 0:
            raise DpError(f"delta_u must be positive, got {self.delta_u}")
        u.setflags(write=False)
        object.__setattr__(self, "utility", u)

    @classmethod
    def identity(cls, n_categories: int) -> "CategoricalMechanism":
        """Default utility: 1 for keeping the current category, 0 otherwise."""
        return cls(np.eye(n_categories), 1.0)


def exponential_probabilities(utilities: np.ndarray, epsilon: float, delta_u: float):
    """P(candidate) proportional to exp(epsilon * u / (2 * delta_u))."""
    if epsilon <= 0:
        raise DpError(f"epsilon must be positive, got {epsilon}")
    z = np.asarray(utilities, dtype=np.float64) * (epsilon / (2.0 * delta_u))
    z = z - z.max()
    p = np.exp(z)
    return p / p.sum()


def perturb_categorical(
    values: np.ndarray,
    mech: CategoricalMechanism,
    epsilon: float,
    rng: np.random.Generator,
):
    """Resample a whole column cell-wise with the exponential mechanism.

    Cells are processed grouped by their current category, categories in
    index order and rows in ascending order within a group, so the output
    is a deterministic function of (values, mech, epsilon, rng state).
    """
    values = np.asarray(values)
    idx = values.astype(np.int64)
    n_cat = mech.utility.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= n_cat):
        raise DpError("category index outside the utility matrix")
    out = np.empty(len(idx), dtype=np.float64)
    for c in range(n_cat):
        mask = idx == c
        count = int(mask.sum())
        if count == 0:
            continue
        p = exponential_probabilities(mech.utility[c], epsilon, mech.delta_u)
        cum = np.cumsum(p)
        draws = np.searchsorted(cum, rng.random(count), side="right")
        out[mask] = np.minimum(draws, n_cat - 1).astype(np.float64)
    return out


# ---------------------------------------------------------------------------
# table protection

@dataclass(frozen=True)
class MechanismSpec:
    """Optional per-attribute overrides for the table mechanisms.

    categorical maps attribute name to a CategoricalMechanism (default:
    identity utility).  A numeric attribute's sensitivity is always the
    width of its effective range, so its noise matches the ledger's epsilon.
    """

    categorical: dict[str, CategoricalMechanism] = field(default_factory=dict)


@dataclass(frozen=True)
class DpBudgetEntry:
    attribute: str
    mechanism: str
    epsilon_share: float
    sensitivity: float
    n_clamped: int = 0


@dataclass(frozen=True)
class DpLedger:
    """Budget accounting for one protected table.

    Shares are the exact rational epsilon_total / n_attributes; their sum
    reproduces epsilon_total exactly.  The mechanisms run with the float
    value of that share.
    """

    epsilon_total: float
    n_attributes: int
    seed: int
    entries: tuple[DpBudgetEntry, ...]

    @property
    def share_exact(self) -> Fraction:
        return Fraction(self.epsilon_total) / self.n_attributes

    @property
    def per_attribute_epsilon(self) -> float:
        return self.epsilon_total / self.n_attributes

    def to_json_dict(self) -> dict:
        share = self.share_exact
        return {
            "epsilon_total": self.epsilon_total,
            "n_attributes": self.n_attributes,
            "seed": self.seed,
            "per_attribute_epsilon": self.per_attribute_epsilon,
            "per_attribute_epsilon_exact": {
                "numerator": str(share.numerator),
                "denominator": str(share.denominator),
            },
            "entries": [asdict(e) for e in self.entries],
        }


@dataclass(frozen=True)
class DpProtectResult:
    dataset: TabularDataset
    ledger: DpLedger


def dp_protect_table(
    ds: TabularDataset,
    epsilon_total: float,
    seed: int,
    spec: MechanismSpec | None = None,
) -> DpProtectResult:
    """Protect every non-class attribute under a total budget epsilon_total.

    The budget splits uniformly over the protected attributes (sequential
    composition).  Numeric attributes get Laplace noise with sensitivity
    equal to their effective range width and are clamped back to that
    range; categorical attributes are resampled with the exponential
    mechanism.  Attributes are processed in schema order from a single
    seeded stream, so equal seeds give equal outputs.
    """
    if epsilon_total <= 0:
        raise DpError(f"epsilon must be positive, got {epsilon_total}")
    if ds.provenance.kind != "raw":
        raise DpError(f"expected raw data, got provenance {ds.provenance.tag()!r}")
    spec = spec or MechanismSpec()
    protected = [(j, a) for j, a in enumerate(ds.schema) if a.role != CLASS]
    if not protected:
        raise DpError("no attributes to protect")
    m = len(protected)
    eps_attr = epsilon_total / m
    rng = make_rng(seed)
    rows = np.array(ds.rows)
    entries = []
    for j, attr in protected:
        if attr.kind == NUMERIC:
            lo, hi = attr.effective_range
            sens = hi - lo
            rows[:, j], n_clamped = perturb_numeric(
                rows[:, j], sens, eps_attr, rng, bounds=(lo, hi)
            )
            entries.append(DpBudgetEntry(attr.name, "laplace", eps_attr, sens, n_clamped))
        else:
            mech = spec.categorical.get(attr.name)
            if mech is None:
                mech = CategoricalMechanism.identity(len(attr.categories))
            elif mech.utility.shape[0] != len(attr.categories):
                raise DpError(
                    f"attribute {attr.name!r}: utility matrix is "
                    f"{mech.utility.shape[0]}x{mech.utility.shape[0]} but the "
                    f"attribute has {len(attr.categories)} categories"
                )
            rows[:, j] = perturb_categorical(rows[:, j], mech, eps_attr, rng)
            entries.append(
                DpBudgetEntry(attr.name, "exponential", eps_attr, mech.delta_u)
            )
    out = TabularDataset._holding(ds.schema, rows, Provenance.dp_protected(epsilon_total))
    ledger = DpLedger(epsilon_total, m, seed, tuple(entries))
    return DpProtectResult(out, ledger)


def load_utility_file(path, schema) -> MechanismSpec:
    """Read per-attribute utility matrices from JSON.

    Format: ``{"attr": {"delta_u": 1.0, "utility": [[...], ...]}}``.  Each
    matrix must be square with one row per category of the attribute.
    """
    raw = read_json(path)
    if not isinstance(raw, dict):
        raise DpError(f"{path}: expected a JSON object keyed by attribute name")
    by_name = {a.name: a for a in schema}
    categorical = {}
    for name, entry in raw.items():
        attr = by_name.get(name)
        if attr is None:
            raise DpError(f"{path}: unknown attribute {name!r}")
        if attr.kind != CATEGORICAL:
            raise DpError(f"{path}: attribute {name!r} is not categorical")
        try:
            mech = CategoricalMechanism(
                np.array(entry["utility"], dtype=np.float64),
                float(entry.get("delta_u", 1.0)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise DpError(f"{path}: attribute {name!r}: {exc}") from exc
        if mech.utility.shape[0] != len(attr.categories):
            raise DpError(
                f"{path}: attribute {name!r}: matrix has {mech.utility.shape[0]} "
                f"rows but the attribute has {len(attr.categories)} categories"
            )
        categorical[name] = mech
    return MechanismSpec(categorical=categorical)
