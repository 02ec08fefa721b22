"""Shared fixtures: synthetic tabular datasets and acceptance reporting."""
from __future__ import annotations

import numpy as np
import pytest

from privforget.data import AttributeSchema, Provenance, TabularDataset


def make_dataset(
    n: int,
    seed: int,
    n_numeric: int = 3,
    n_categorical: int = 2,
    n_classes: int = 2,
    class_sep: float = 2.0,
    label_noise: float = 0.0,
) -> TabularDataset:
    """Learnable synthetic mixture: class-shifted gaussians + skewed categoricals.

    Numeric cells are rounded to 3 decimals so CSV round-trips are exact.
    """
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 991])))
    y = rng.integers(0, n_classes, n)
    cols = []
    schema = []
    for j in range(n_numeric):
        center = (y - (n_classes - 1) / 2.0) * class_sep * (1.0 if j % 2 == 0 else -0.5)
        col = np.round(center + rng.normal(0.0, 1.0, n), 3)
        cols.append(col)
        lo, hi = (float(col.min()), float(col.max())) if n else (0.0, 1.0)
        schema.append(
            AttributeSchema(
                f"num{j}", "numeric", "quasi_identifier", observed_range=(lo, hi)
            )
        )
    n_cat_levels = 3
    for j in range(n_categorical):
        # class-dependent category preference so categoricals carry signal
        probs = np.full((n_classes, n_cat_levels), 1.0 / n_cat_levels)
        for c in range(n_classes):
            probs[c] = 0.15
            probs[c, (c + j) % n_cat_levels] = 1.0 - 0.15 * (n_cat_levels - 1)
        u = rng.random(n)
        cum = np.cumsum(probs[y], axis=1)
        col = (u[:, None] > cum).sum(axis=1).astype(float)
        cols.append(col)
        schema.append(
            AttributeSchema(
                f"cat{j}",
                "categorical",
                "quasi_identifier",
                categories=tuple(f"v{i}" for i in range(n_cat_levels)),
            )
        )
    if label_noise > 0.0:
        flip = rng.random(n) < label_noise
        y = np.where(flip, rng.integers(0, n_classes, n), y)
    cols.append(y.astype(float))
    schema.append(
        AttributeSchema(
            "label", "categorical", "class", categories=tuple(f"c{i}" for i in range(n_classes))
        )
    )
    return TabularDataset(tuple(schema), np.column_stack(cols), Provenance.raw())


@pytest.fixture
def small_dataset():
    return make_dataset(200, seed=42)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print one line per acceptance criterion at the end of the run."""
    by_test: dict[str, tuple[str, str]] = {}
    order = {"failed": 3, "error": 2, "skipped": 1, "passed": 0}
    for status in ("passed", "skipped", "failed", "error"):
        for rep in terminalreporter.stats.get(status, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance" not in nodeid or "::test_criterion" not in nodeid:
                continue
            detail = ""
            if status == "skipped" and rep.longrepr:
                detail = str(rep.longrepr[-1] if isinstance(rep.longrepr, tuple) else rep.longrepr)
            prev = by_test.get(nodeid)
            if prev is None or order[status] > order[prev[0]]:
                by_test[nodeid] = (status, detail)
    if not by_test:
        return
    tw = terminalreporter
    tw.section("acceptance criteria")
    label = {"passed": "PASS", "failed": "FAIL", "error": "ERROR", "skipped": "SKIP"}
    for nodeid in sorted(by_test, key=lambda s: s.split("::")[-1]):
        status, detail = by_test[nodeid]
        name = nodeid.split("::")[-1].replace("test_", "", 1)
        line = f"{label[status]:5s} {name}"
        if status == "skipped" and detail:
            line += f"  [{detail.strip()}]"
        tw.write_line(line)
