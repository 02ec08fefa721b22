"""Shared fixtures: synthetic tabular datasets, the SISA, AUC and decoding oracles, a CPU-count pin and acceptance reporting."""
from __future__ import annotations

import math
import os
import struct

import numpy as np
import pytest

from privforget import mlp, seeds
from privforget.data import AttributeSchema, Provenance, TabularDataset, encode


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def pin_cpus(monkeypatch, cpus, **blas):
    """Pretend the process may run on `cpus` CPUs, with only the given BLAS
    thread-count variables set."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    for var in BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    for var, value in blas.items():
        monkeypatch.setenv(var, value)


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


def sisa_oracle(ds: TabularDataset, store, s: int, alive: np.ndarray) -> list:
    """Shard s trained from scratch on the alive rows, one checkpoint per slice.

    Written out from the SISA definition, not through the package's replay:
    the shard's seeded init, then for each slice r one mlp.train on the alive
    rows of slices 0..r in dealt order, for ceil(epochs / n_slices) epochs
    under the slice's seed.
    """
    cfg = store.cfg
    data = encode(ds)
    model = mlp.init(store.layer_dims, seeds.derive(cfg.seed, seeds.SISA_SHARD_INIT, s))
    checkpoints = []
    for r in range(store.n_slices):
        rows = np.concatenate(store.slice_rows[s][: r + 1])
        slice_cfg = cfg.with_(
            epochs=math.ceil(cfg.epochs / store.n_slices),
            seed=seeds.derive(cfg.seed, seeds.SISA_SLICE, s, r),
        )
        model = mlp.train(model, data.take(rows[alive[rows]]), slice_cfg)
        checkpoints.append(model)
    return checkpoints


def roc_auc_pairwise(positive_scores, negative_scores) -> float:
    """Reference AUC by direct comparison of every (pos, neg) pair."""
    pos = np.asarray(positive_scores, dtype=np.float64).ravel()
    neg = np.asarray(negative_scores, dtype=np.float64).ravel()
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return float((wins + 0.5 * ties) / (len(pos) * len(neg)))


def decode(em, schema) -> TabularDataset:
    """Reference inverse of encode: un-scale numerics by their effective
    range and take the argmax of one-hot blocks, walking the encoded columns
    in schema order (one per numeric attribute, one per category)."""
    rows = np.zeros((em.n_rows, len(schema)))
    start = 0
    for j, attr in enumerate(schema):
        if attr.role == "class":
            rows[:, j] = em.labels
        elif attr.kind == "numeric":
            lo, hi = attr.effective_range
            rows[:, j] = em.features[:, start] * (hi - lo) + lo
            start += 1
        else:
            rows[:, j] = np.argmax(em.features[:, start : start + len(attr.categories)], axis=1)
            start += len(attr.categories)
    return TabularDataset(schema, rows, Provenance.raw())


def write_old_model(model: mlp.MlpModel, path, version: int) -> None:
    """Write model in model format version 1 or 2: after the dims, a training
    seed and a tag (written as 0 and "original"), then the parameters, as
    float64 in version 1 and float32 in version 2."""
    dims = model.layer_dims
    tag = b"original"
    parts = [
        b"PFMLP\x00\x00\x01",
        struct.pack("<II", version, len(dims)),
        struct.pack(f"<{len(dims)}I", *dims),
        struct.pack("<qI", 0, len(tag)),
        tag,
    ]
    dtype = {1: "<f8", 2: "<f4"}[version]
    for w, b in zip(model.weights, model.biases):
        parts += [np.asarray(w, dtype=dtype).tobytes(), np.asarray(b, dtype=dtype).tobytes()]
    with open(path, "wb") as fh:
        fh.write(b"".join(parts))


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
