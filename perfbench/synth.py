"""Seeded synthetic table with the adult income census layout.

Columns, kinds and category counts follow the real dataset: six numeric
attributes and eight categorical ones with 7/16/7/14/6/5/2/41 categories,
plus a binary income class.  Every non-class attribute is a
quasi-identifier, so the encoded width is 6 + 98 = 104 when every category
occurs in the training split.  A latent "status" variable drives the
categorical choices, the numeric columns and the label together, so the
label is learnable and the majority class is about three quarters of rows,
as in the real data.

Train and test are drawn from one table and split.  Test rows holding a
category that never occurs in train cannot be encoded under the training
schema, so they are dropped and counted, as ``scripts/prepare_adult.py``
does for the real files.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CATEGORICAL_SIZES = {
    "workclass": 7,
    "education": 16,
    "marital-status": 7,
    "occupation": 14,
    "relationship": 6,
    "race": 5,
    "sex": 2,
    "native-country": 41,
}
COLUMNS = (
    "age",
    "workclass",
    "fnlwgt",
    "education",
    "education-num",
    "marital-status",
    "occupation",
    "relationship",
    "race",
    "sex",
    "capital-gain",
    "capital-loss",
    "hours-per-week",
    "native-country",
    "income",
)
CLASS = "income"
LABELS = ("<=50K", ">50K")


@dataclass(frozen=True)
class SynthTables:
    train_csv: Path
    test_csv: Path
    schema: Path
    train_rows: int
    test_rows: int
    test_dropped_unseen: int
    test_majority_rate: float
    encoded_width: int  # 104 when every category occurs in train


def _categorical(rng, status, tilt):
    """Zipf-like base frequencies tilted by the latent status (Gumbel-max draw)."""
    base = np.log(1.0 / np.arange(1, len(tilt) + 1) ** 1.3)
    logits = base[None, :] + status[:, None] * tilt[None, :]
    gumbel = -np.log(-np.log(rng.uniform(1e-12, 1.0, logits.shape)))
    return np.argmax(logits + gumbel, axis=1)


def generate(n_rows: int, seed: int) -> dict[str, np.ndarray]:
    """One table of n_rows; integer codes for categoricals, integers for numerics.

    The population (category tilts and label effects) is fixed; the seed
    only draws the rows, so every seed samples the same distribution.
    """
    population = np.random.Generator(np.random.PCG64(np.random.SeedSequence([2507])))
    tilts = {name: population.normal(0.0, 0.8, size) for name, size in CATEGORICAL_SIZES.items()}
    effects = {
        name: population.normal(0.0, 1.0, CATEGORICAL_SIZES[name])
        for name in ("workclass", "marital-status", "occupation", "relationship")
    }
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 2507])))
    status = rng.normal(0.0, 1.0, n_rows)
    cols: dict[str, np.ndarray] = {}
    for name, tilt in tilts.items():
        cols[name] = _categorical(rng, status, tilt)
    cols["age"] = np.clip(np.round(38 + 13 * rng.normal(size=n_rows) + 3 * status), 17, 90)
    cols["fnlwgt"] = np.clip(np.round(rng.lognormal(12.0, 0.5, n_rows)), 12285, 1484705)
    cols["education-num"] = cols["education"] + 1
    has_gain = rng.uniform(size=n_rows) < 0.06 + 0.05 * (status > 1.0)
    gain = np.clip(np.round(rng.lognormal(8.5, 1.0, n_rows)), 1, 99999)
    cols["capital-gain"] = np.where(has_gain, gain, 0.0)
    has_loss = rng.uniform(size=n_rows) < 0.045
    cols["capital-loss"] = np.where(has_loss, np.clip(np.round(rng.normal(1900, 350, n_rows)), 155, 4356), 0.0)
    cols["hours-per-week"] = np.clip(np.round(40 + 11 * rng.normal(size=n_rows) + 3 * status), 1, 99)
    logit = (
        -0.5
        + 0.6 * status
        + 0.04 * (cols["age"] - 38)
        + 0.25 * (cols["education-num"] - 8)
        + 2.0 * (cols["capital-gain"] > 5000)
        + 0.03 * (cols["hours-per-week"] - 40)
    )
    for name, effect in effects.items():
        logit = logit + effect[cols[name]]
    cols[CLASS] = (rng.uniform(size=n_rows) < 1.0 / (1.0 + np.exp(-logit))).astype(np.int64)
    return cols


def _cell(name: str, value) -> str:
    if name == CLASS:
        return LABELS[int(value)]
    if name in CATEGORICAL_SIZES:
        return f"{name}-{int(value)}"
    return str(int(value))


def _write(path: Path, cols: dict[str, np.ndarray], rows: np.ndarray) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(COLUMNS)
        columns = [[_cell(name, v) for v in cols[name][rows]] for name in COLUMNS]
        writer.writerows(zip(*columns))


def write_tables(out_dir: Path, n_train: int, n_test: int, seed: int) -> SynthTables:
    """Write train.csv, test.csv and adult.schema for one seed into out_dir."""
    out_dir.mkdir(parents=True, exist_ok=True)
    cols = generate(n_train + n_test, seed)
    order = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence([seed, 2508]))
    ).permutation(n_train + n_test)
    train_idx, test_idx = order[:n_train], order[n_train:]
    keep = np.ones(len(test_idx), dtype=bool)
    for name in CATEGORICAL_SIZES:
        keep &= np.isin(cols[name][test_idx], cols[name][train_idx])
    test_labels = cols[CLASS][test_idx[keep]]
    tables = SynthTables(
        out_dir / "train.csv",
        out_dir / "test.csv",
        out_dir / "adult.schema",
        n_train,
        int(keep.sum()),
        int((~keep).sum()),
        float(max(test_labels.mean(), 1.0 - test_labels.mean())),
        6 + sum(len(np.unique(cols[name][train_idx])) for name in CATEGORICAL_SIZES),
    )
    _write(tables.train_csv, cols, train_idx)
    _write(tables.test_csv, cols, test_idx[keep])
    lines = ["# synthetic adult-shaped table: every non-class attribute is a quasi-identifier"]
    for name in COLUMNS:
        kind = "categorical" if name in CATEGORICAL_SIZES or name == CLASS else "numeric"
        role = "class" if name == CLASS else "quasi_identifier"
        lines.append(f"{name},{kind},{role}")
    tables.schema.write_text("\n".join(lines) + "\n")
    return tables
