"""Unlearning strategies over the privacy-protected training pipeline.

The primary strategy keeps two models: a base model trained only on a
privacy-protected view of the training data (k-anonymized or
differentially private), and a deployed model obtained by fine-tuning the
base on the raw data.  Serving a forgetting request discards the deployed
model and fine-tunes the base on the retain set alone; the forgotten rows
never influence the result, because the base saw only the protected view
and the fine-tune sees only the retain rows.

Baselines: retraining from scratch on the retain set, and sharded
incremental training (SISA) where a forget rolls the affected shard back
to the last checkpoint untouched by the forgotten row and replays the
remaining slices with their original seeds.
"""
from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import dpanon, kanon, mlp, seeds
from .data import (
    DataError,
    EncodedMatrix,
    ForgetRequest,
    Provenance,
    TabularDataset,
    encode,
    encoded_width,
    schema_from_dicts,
    schema_to_dicts,
    split_forget,
)
from .dpanon import DpLedger, MechanismSpec
from .mlp import MlpModel, TrainConfig

K_ANONYMITY = "k_anonymity"
DP = "dp"


@dataclass(frozen=True)
class PrivacySpec:
    """Which protection to apply to the training data before pre-training."""

    method: str
    k: int | None = None
    epsilon: float | None = None
    seed: int = 0
    mechanisms: MechanismSpec | None = None

    def __post_init__(self):
        if self.method == K_ANONYMITY:
            if self.k is None or self.k < 2:
                raise DataError(f"k-anonymity requires k >= 2, got {self.k}")
        elif self.method == DP:
            if self.epsilon is None or self.epsilon <= 0:
                raise DataError(f"dp requires epsilon > 0, got {self.epsilon}")
        else:
            raise DataError(f"unknown privacy method {self.method!r}")
        if self.seed < 0:
            raise DataError("seed must be non-negative")

    @classmethod
    def k_anonymity(cls, k: int) -> "PrivacySpec":
        return cls(K_ANONYMITY, k=k)

    @classmethod
    def dp(cls, epsilon: float, seed: int = 0, mechanisms=None) -> "PrivacySpec":
        return cls(DP, epsilon=epsilon, seed=seed, mechanisms=mechanisms)

    def tag(self) -> str:
        if self.method == K_ANONYMITY:
            return f"k={self.k}"
        return f"eps={self.epsilon:g}"


@dataclass(frozen=True)
class ForgetEvent:
    n_forgotten: int
    epochs: int
    seconds: float
    ratio: float | None = None
    request_seed: int | None = None


@dataclass(frozen=True)
class EupgState:
    """Everything needed to serve forgetting requests without the raw data."""

    spec: PrivacySpec
    protected_data: TabularDataset
    base_model: MlpModel
    deployed_model: MlpModel
    finetune_epochs: int
    cfg: TrainConfig
    hidden_units: int
    timings: dict[str, float] = field(default_factory=dict)
    audit_log: tuple[ForgetEvent, ...] = ()
    dp_ledger: DpLedger | None = None


def _model_dims(ds: TabularDataset, hidden_units: int) -> tuple[int, int, int]:
    n_classes = len(ds.schema[ds.class_index].categories)
    if n_classes < 2:
        raise DataError("class attribute must have at least two categories")
    return (encoded_width(ds.schema), hidden_units, n_classes)


def protect(ds: TabularDataset, spec: PrivacySpec):
    """Apply the spec's protection; returns (protected dataset, dp ledger or None)."""
    if spec.method == K_ANONYMITY:
        return kanon.k_anonymize(ds, spec.k), None
    result = dpanon.dp_protect_table(ds, spec.epsilon, spec.seed, spec.mechanisms)
    return result.dataset, result.ledger


def eupg_prepare(
    ds: TabularDataset,
    spec: PrivacySpec,
    cfg: TrainConfig,
    finetune_epochs: int = 5,
    hidden_units: int = 128,
) -> EupgState:
    """Protect the data, pre-train the base model, fine-tune for deployment."""
    if ds.provenance.kind != "raw":
        raise DataError("prepare expects the raw training dataset")
    t0 = time.perf_counter()
    protected, ledger = protect(ds, spec)
    t1 = time.perf_counter()
    dims = _model_dims(ds, hidden_units)
    base = mlp.train(
        mlp.init(dims, cfg.seed, provenance=f"protected({spec.tag()})"),
        encode(protected),
        cfg,
    )
    t2 = time.perf_counter()
    deployed = mlp.finetune(base, encode(ds), finetune_epochs, cfg)
    t3 = time.perf_counter()
    return EupgState(
        spec=spec,
        protected_data=protected,
        base_model=base,
        deployed_model=deployed,
        finetune_epochs=finetune_epochs,
        cfg=cfg,
        hidden_units=hidden_units,
        timings={"anonymize": t1 - t0, "train": t2 - t1, "finetune": t3 - t2},
        dp_ledger=ledger,
    )


def eupg_forget(
    state: EupgState,
    ds: TabularDataset,
    request: ForgetRequest,
    epochs: int | None = None,
    cfg: TrainConfig | None = None,
) -> EupgState:
    """Serve a forgetting request: re-fine-tune the base on the retain set.

    The new deployed model is a function of (base model, retain rows,
    epochs, config seed) only; nothing about the forgotten rows' contents
    enters the computation.
    """
    if ds.schema != state.protected_data.schema:
        raise DataError("dataset schema does not match the prepared state")
    epochs = state.finetune_epochs if epochs is None else epochs
    cfg = state.cfg if cfg is None else cfg
    retain, forget_part = split_forget(ds, request)
    t0 = time.perf_counter()
    deployed = mlp.finetune(state.base_model, encode(retain), epochs, cfg)
    seconds = time.perf_counter() - t0
    event = ForgetEvent(
        n_forgotten=forget_part.n_rows,
        epochs=epochs,
        seconds=seconds,
        ratio=request.ratio,
        request_seed=request.seed,
    )
    return dataclasses.replace(
        state,
        deployed_model=deployed,
        audit_log=state.audit_log + (event,),
        timings={**state.timings, "forget": seconds},
    )


def retrain_scratch(
    ds: TabularDataset, cfg: TrainConfig, hidden_units: int = 128
) -> MlpModel:
    """Baseline: a fresh model trained only on the given (retain) dataset."""
    dims = _model_dims(ds, hidden_units)
    model = mlp.init(dims, cfg.seed, provenance="original")
    return mlp.train(model, encode(ds), cfg)


# ---------------------------------------------------------------------------
# SISA baseline

def _derive_seed(*entropy: int) -> int:
    return int(np.random.SeedSequence(list(entropy)).generate_state(1)[0])


@dataclass(frozen=True)
class ShardStore:
    """Sharded, sliced, checkpointed ensemble with exact-unlearning replay.

    slice_rows[s][r] holds the original row indices of shard s, slice r in
    dealt order; that order, filtered by the alive mask, is the canonical
    training order and must never be re-sorted.  checkpoints[s][r] is the
    shard model after training through slice r.
    """

    n_shards: int
    n_slices: int
    cfg: TrainConfig
    hidden_units: int
    layer_dims: tuple[int, ...]
    slice_rows: tuple[tuple[np.ndarray, ...], ...]
    alive: np.ndarray
    data: EncodedMatrix
    checkpoints: tuple[tuple[MlpModel, ...], ...]
    removed_log: tuple[int, ...] = ()

    @property
    def per_slice_epochs(self) -> int:
        return math.ceil(self.cfg.epochs / self.n_slices)

    def final_models(self) -> tuple[MlpModel, ...]:
        return tuple(cp[-1] for cp in self.checkpoints)

    def shard_of_row(self, row: int) -> tuple[int, int]:
        for s in range(self.n_shards):
            for r in range(self.n_slices):
                if row in self.slice_rows[s][r]:
                    return s, r
        raise DataError(f"row {row} is not assigned to any shard")


def _deal(n: int, n_shards: int, n_slices: int, seed: int):
    """Round-robin assignment of a seeded permutation to shards, then slices."""
    perm = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence([seed, seeds.SISA_DEAL]))
    ).permutation(n)
    shard_members: list[list[int]] = [[] for _ in range(n_shards)]
    for pos, row in enumerate(perm):
        shard_members[pos % n_shards].append(int(row))
    slice_rows = []
    for s in range(n_shards):
        slices: list[list[int]] = [[] for _ in range(n_slices)]
        for local, row in enumerate(shard_members[s]):
            slices[local % n_slices].append(row)
        slice_rows.append(tuple(np.array(sl, dtype=np.int64) for sl in slices))
    return tuple(slice_rows)


def _train_shard_slices(
    store_data: EncodedMatrix,
    slice_rows_s,
    alive: np.ndarray,
    cfg: TrainConfig,
    per_slice_epochs: int,
    base_seed: int,
    shard: int,
    start_slice: int,
    start_model: MlpModel,
    n_slices: int,
):
    """Train slices start_slice..n_slices-1, checkpointing after each."""
    model = start_model
    checkpoints = []
    for r in range(start_slice, n_slices):
        rows = np.concatenate(slice_rows_s[: r + 1])
        rows = rows[alive[rows]]
        slice_seed = _derive_seed(base_seed, seeds.SISA_SLICE, shard, r)
        model = mlp.train(
            model,
            store_data.take(rows),
            cfg.with_(epochs=per_slice_epochs, seed=slice_seed),
        )
        checkpoints.append(model)
    return checkpoints


def sisa_train(
    ds: TabularDataset,
    n_shards: int,
    n_slices: int,
    cfg: TrainConfig,
    hidden_units: int = 128,
) -> ShardStore:
    """Train the sharded ensemble.  Total epochs split as ceil(epochs/slices)
    per incremental stage, so each shard sees roughly cfg.epochs of work."""
    if n_shards < 1 or n_slices < 1:
        raise DataError("need at least one shard and one slice")
    if ds.n_rows < n_shards * n_slices:
        raise DataError(
            f"{ds.n_rows} rows cannot fill {n_shards} shards x {n_slices} slices"
        )
    data = encode(ds)
    dims = _model_dims(ds, hidden_units)
    slice_rows = _deal(ds.n_rows, n_shards, n_slices, cfg.seed)
    alive = np.ones(ds.n_rows, dtype=bool)
    per_slice = math.ceil(cfg.epochs / n_slices)
    checkpoints = []
    for s in range(n_shards):
        start = mlp.init(
            dims, _derive_seed(cfg.seed, seeds.SISA_SHARD_INIT, s), provenance=f"sisa_shard_{s}"
        )
        cps = _train_shard_slices(
            data, slice_rows[s], alive, cfg, per_slice, cfg.seed, s, 0, start, n_slices
        )
        checkpoints.append(tuple(cps))
    return ShardStore(
        n_shards=n_shards,
        n_slices=n_slices,
        cfg=cfg,
        hidden_units=hidden_units,
        layer_dims=dims,
        slice_rows=slice_rows,
        alive=alive,
        data=data,
        checkpoints=tuple(checkpoints),
    )


def sisa_forget(store: ShardStore, request: ForgetRequest) -> ShardStore:
    """Exact unlearning: roll affected shards back and replay their slices.

    For each shard containing a forgotten row, training restarts from the
    checkpoint just before the earliest affected slice (or from the
    original initialization when slice 0 is hit) with the forgotten rows
    dropped; the original per-slice seeds are replayed.  Untouched shards
    keep their exact checkpoint objects.
    """
    forget_rows = np.array(request.forget_indices, dtype=np.int64)
    n = len(store.alive)
    if forget_rows.size and forget_rows.max() >= n:
        raise DataError(f"forget index {int(forget_rows.max())} out of range")
    if not store.alive[forget_rows].all():
        dead = forget_rows[~store.alive[forget_rows]]
        raise DataError(f"rows already forgotten: {dead.tolist()}")
    alive = store.alive.copy()
    alive[forget_rows] = False

    hit = set(forget_rows.tolist())
    new_checkpoints = list(store.checkpoints)
    for s in range(store.n_shards):
        first_hit = None
        for r in range(store.n_slices):
            if hit.intersection(store.slice_rows[s][r].tolist()):
                first_hit = r
                break
        if first_hit is None:
            continue
        if first_hit == 0:
            start = mlp.init(
                store.layer_dims,
                _derive_seed(store.cfg.seed, seeds.SISA_SHARD_INIT, s),
                provenance=f"sisa_shard_{s}",
            )
        else:
            start = store.checkpoints[s][first_hit - 1]
        replayed = _train_shard_slices(
            store.data,
            store.slice_rows[s],
            alive,
            store.cfg,
            store.per_slice_epochs,
            store.cfg.seed,
            s,
            first_hit,
            start,
            store.n_slices,
        )
        new_checkpoints[s] = tuple(store.checkpoints[s][:first_hit]) + tuple(replayed)

    return dataclasses.replace(
        store,
        alive=alive,
        checkpoints=tuple(new_checkpoints),
        removed_log=store.removed_log + tuple(int(i) for i in forget_rows),
    )


def sisa_predict(store: ShardStore, features: np.ndarray) -> np.ndarray:
    """Ensemble prediction: mean of the shard models' softmax outputs."""
    probs = [mlp.forward(m, features) for m in store.final_models()]
    return np.mean(probs, axis=0)


# ---------------------------------------------------------------------------
# persistence
#
# A state directory holds manifest.json plus binary model files.  An EUPG
# state also holds its protected rows as protected.npy: the raw float64
# matrix (categorical cells are category indices), with its shape and the
# sha256 of the file's bytes in the manifest.  Shard stores do not embed the
# training data: load_shard_store re-encodes the dataset the caller supplies
# and verifies it against a checksum in the manifest.  Each kind carries its
# own format version; a directory of another version is refused, not
# converted.  `privforget anonymize` is the human-readable CSV export of a
# protected table.

EUPG_FORMAT_VERSION = 2
SHARD_FORMAT_VERSION = 1
PROTECTED_ROWS = "protected.npy"


def _cfg_to_dict(cfg: TrainConfig) -> dict:
    return dataclasses.asdict(cfg)


def _cfg_from_dict(d: dict) -> TrainConfig:
    return TrainConfig(**d)


def _read_manifest(state_dir, kind: str, what: str, version: int) -> dict:
    manifest = json.loads((Path(state_dir) / "manifest.json").read_text())
    if manifest.get("kind") != kind:
        raise DataError(f"{state_dir}: not a saved {what}")
    found = manifest.get("format_version")
    if found != version:
        raise DataError(
            f"{state_dir}: {what} format version {found} is not supported "
            f"(expected {version}); re-run `privforget run` to rebuild it"
        )
    return manifest


def save_eupg_state(state: EupgState, out_dir) -> None:
    """Write manifest.json, base.model, deployed.model and protected.npy."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    mlp.save_model(state.base_model, out / "base.model")
    mlp.save_model(state.deployed_model, out / "deployed.model")
    rows = np.ascontiguousarray(state.protected_data.rows, dtype="<f8")
    buf = io.BytesIO()
    np.save(buf, rows, allow_pickle=False)
    rows_bytes = buf.getvalue()
    (out / PROTECTED_ROWS).write_bytes(rows_bytes)
    spec = state.spec
    manifest = {
        "format_version": EUPG_FORMAT_VERSION,
        "kind": "eupg_state",
        "spec": {
            "method": spec.method,
            "k": spec.k,
            "epsilon": spec.epsilon,
            "seed": spec.seed,
            "mechanisms": None if spec.mechanisms is None else spec.mechanisms.to_json_dict(),
        },
        "finetune_epochs": state.finetune_epochs,
        "hidden_units": state.hidden_units,
        "cfg": _cfg_to_dict(state.cfg),
        "timings": state.timings,
        "audit_log": [dataclasses.asdict(e) for e in state.audit_log],
        "schema": schema_to_dicts(state.protected_data.schema),
        "protected_rows": {
            "shape": list(rows.shape),
            "sha256": hashlib.sha256(rows_bytes).hexdigest(),
        },
        "protected_provenance": {
            "kind": state.protected_data.provenance.kind,
            "param": state.protected_data.provenance.param,
        },
        "dp_ledger": state.dp_ledger.to_json_dict() if state.dp_ledger else None,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2))


def _load_protected_rows(path: Path, meta: dict, n_columns: int) -> np.ndarray:
    """Read the protected row matrix, refusing anything the manifest does not vouch for.

    The checksum is verified before parsing, and the file is parsed with
    pickling disabled, so an object array is refused, never unpickled.
    """
    raw = path.read_bytes()
    if hashlib.sha256(raw).hexdigest() != meta["sha256"]:
        raise DataError(f"{path}: sha256 does not match the manifest (file corrupted or replaced)")
    try:
        rows = np.load(io.BytesIO(raw), allow_pickle=False)
    except (ValueError, EOFError, OSError) as exc:
        raise DataError(f"{path}: not a readable .npy row matrix: {exc}") from None
    if rows.dtype != np.dtype("<f8"):
        raise DataError(f"{path}: expected float64 ('<f8') rows, got dtype {rows.dtype.str!r}")
    expected = tuple(meta["shape"])
    if rows.shape != expected or rows.ndim != 2 or rows.shape[1] != n_columns:
        raise DataError(
            f"{path}: shape {rows.shape} does not match the manifest "
            f"({expected}, {n_columns} schema columns)"
        )
    return rows


def load_eupg_state(state_dir) -> EupgState:
    """Reload a format-version-2 state; DataError names the file at fault."""
    out = Path(state_dir)
    manifest = _read_manifest(state_dir, "eupg_state", "unlearning state", EUPG_FORMAT_VERSION)
    schema = schema_from_dicts(manifest["schema"])
    rows = _load_protected_rows(out / PROTECTED_ROWS, manifest["protected_rows"], len(schema))
    prov = Provenance(
        manifest["protected_provenance"]["kind"],
        manifest["protected_provenance"]["param"],
    )
    protected = TabularDataset(schema, rows, prov)
    spec_d = manifest["spec"]
    mechanisms = spec_d["mechanisms"]
    spec = PrivacySpec(
        spec_d["method"],
        k=spec_d["k"],
        epsilon=spec_d["epsilon"],
        seed=spec_d["seed"],
        mechanisms=None if mechanisms is None else MechanismSpec.from_json_dict(mechanisms),
    )
    ledger = manifest.get("dp_ledger")
    return EupgState(
        spec=spec,
        protected_data=protected,
        base_model=mlp.load_model(out / "base.model"),
        deployed_model=mlp.load_model(out / "deployed.model"),
        finetune_epochs=manifest["finetune_epochs"],
        cfg=_cfg_from_dict(manifest["cfg"]),
        hidden_units=manifest["hidden_units"],
        timings=manifest["timings"],
        audit_log=tuple(ForgetEvent(**e) for e in manifest["audit_log"]),
        dp_ledger=DpLedger.from_json_dict(ledger) if ledger else None,
    )


def _data_checksum(em: EncodedMatrix) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(em.features).tobytes())
    h.update(np.ascontiguousarray(em.labels).tobytes())
    return h.hexdigest()


def save_shard_store(store: ShardStore, out_dir) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for s in range(store.n_shards):
        for r in range(store.n_slices):
            mlp.save_model(store.checkpoints[s][r], out / f"shard{s}_slice{r}.model")
    manifest = {
        "format_version": SHARD_FORMAT_VERSION,
        "kind": "shard_store",
        "n_shards": store.n_shards,
        "n_slices": store.n_slices,
        "cfg": _cfg_to_dict(store.cfg),
        "hidden_units": store.hidden_units,
        "layer_dims": list(store.layer_dims),
        "slice_rows": [
            [rows.tolist() for rows in shard] for shard in store.slice_rows
        ],
        "removed_rows": sorted(int(i) for i in np.flatnonzero(~store.alive)),
        "removed_log": list(store.removed_log),
        "data_sha256": _data_checksum(store.data),
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2))


def load_shard_store(state_dir, ds: TabularDataset) -> ShardStore:
    """Reload a shard store; ds must be the dataset it was trained on."""
    out = Path(state_dir)
    manifest = _read_manifest(state_dir, "shard_store", "shard store", SHARD_FORMAT_VERSION)
    data = encode(ds)
    if _data_checksum(data) != manifest["data_sha256"]:
        raise DataError(
            f"{state_dir}: supplied dataset does not match the one this store "
            "was trained on"
        )
    n_shards, n_slices = manifest["n_shards"], manifest["n_slices"]
    checkpoints = tuple(
        tuple(
            mlp.load_model(out / f"shard{s}_slice{r}.model") for r in range(n_slices)
        )
        for s in range(n_shards)
    )
    alive = np.ones(ds.n_rows, dtype=bool)
    alive[manifest["removed_rows"]] = False
    return ShardStore(
        n_shards=n_shards,
        n_slices=n_slices,
        cfg=_cfg_from_dict(manifest["cfg"]),
        hidden_units=manifest["hidden_units"],
        layer_dims=tuple(manifest["layer_dims"]),
        slice_rows=tuple(
            tuple(np.array(rows, dtype=np.int64) for rows in shard)
            for shard in manifest["slice_rows"]
        ),
        alive=alive,
        data=data,
        checkpoints=checkpoints,
        removed_log=tuple(manifest["removed_log"]),
    )
