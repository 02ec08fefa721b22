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
import functools
import hashlib
import json
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import dpanon, kanon, mlp, seeds
from .data import (
    AttributeSchema,
    DataError,
    EncodedMatrix,
    ForgetRequest,
    TabularDataset,
    encode,
    encoded_width,
    schema_from_dicts,
    schema_to_dicts,
    split_forget,
)
from .dpanon import CategoricalMechanism, DpBudgetEntry, DpLedger, MechanismSpec
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
    """Both models, the training settings and the raw table's schema.

    With the raw training table, which eupg_forget takes separately and
    which is not stored here, this serves any forgetting request.
    protected_data is the protected view the base model was trained on; a
    prepared state holds it, a loaded one holds None, since forgetting never
    reads it and protect(ds, spec) re-derives it.
    """

    spec: PrivacySpec
    schema: tuple[AttributeSchema, ...]
    base_model: MlpModel
    deployed_model: MlpModel
    finetune_epochs: int
    cfg: TrainConfig
    hidden_units: int
    timings: dict[str, float] = field(default_factory=dict)
    audit_log: tuple[ForgetEvent, ...] = ()
    dp_ledger: DpLedger | None = None
    protected_data: TabularDataset | None = None


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
        schema=ds.schema,
        base_model=base,
        deployed_model=deployed,
        finetune_epochs=finetune_epochs,
        cfg=cfg,
        hidden_units=hidden_units,
        timings={"anonymize": t1 - t0, "train": t2 - t1, "finetune": t3 - t2},
        dp_ledger=ledger,
        protected_data=protected,
    )


def eupg_forget(
    state: EupgState,
    ds: TabularDataset,
    request: ForgetRequest,
    epochs: int | None = None,
) -> EupgState:
    """Serve a forgetting request: re-fine-tune the base on the retain set.

    The new deployed model is a function of (base model, retain rows,
    epochs, config seed) only: the fine-tune sees the retain rows of the
    encoded table, so nothing about the forgotten rows' contents enters it.
    """
    if ds.schema != state.schema:
        raise DataError("dataset schema does not match the prepared state")
    if ds.provenance.kind != "raw":
        raise DataError(f"forget expects the raw training dataset, got {ds.provenance.tag()!r}")
    epochs = state.finetune_epochs if epochs is None else epochs
    retain, _ = split_forget(ds, request)
    t0 = time.perf_counter()
    deployed = mlp.finetune(state.base_model, encode(retain), epochs, state.cfg)
    seconds = time.perf_counter() - t0
    event = ForgetEvent(
        n_forgotten=len(request.forget_indices),
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

@dataclass(frozen=True)
class ShardStore:
    """Sharded, sliced, checkpointed ensemble with exact-unlearning replay.

    slice_rows[s][r] holds the original row indices of shard s, slice r in
    dealt order; that order, filtered by the alive mask, is the canonical
    training order and must never be re-sorted.  slice_rows is re-derived
    from the row count (len(alive)), shard and slice counts and cfg.seed
    (see _deal), so every row is dealt.  A saved store keeps only a sha256
    of the deal, and loading refuses a store whose re-dealt rows differ
    from those its checkpoints saw.  checkpoints[s][r] is the shard model
    after training through slice r; _replay_shard is the only code that
    trains one.  The training table is not held: sisa_forget takes it from
    its caller and refuses one whose encoding's sha256 is not data_sha256.
    """

    n_shards: int
    n_slices: int
    cfg: TrainConfig
    hidden_units: int
    layer_dims: tuple[int, ...]
    schema: tuple[AttributeSchema, ...]
    alive: np.ndarray
    data_sha256: str
    checkpoints: tuple[tuple[MlpModel, ...], ...]
    removed_log: tuple[int, ...] = ()

    @property
    def per_slice_epochs(self) -> int:
        return math.ceil(self.cfg.epochs / self.n_slices)

    @functools.cached_property
    def slice_rows(self) -> tuple[tuple[np.ndarray, ...], ...]:
        return _deal(len(self.alive), self.n_shards, self.n_slices, self.cfg.seed)

    @functools.cached_property
    def row_slices(self) -> np.ndarray:
        """(n_rows, 2) array: the (shard, slice) holding each row."""
        where = np.empty((len(self.alive), 2), dtype=np.int64)
        for s, shard in enumerate(self.slice_rows):
            for r, rows in enumerate(shard):
                where[rows] = (s, r)
        return where

    def final_models(self) -> tuple[MlpModel, ...]:
        return tuple(cp[-1] for cp in self.checkpoints)

    def shard_of_row(self, row: int) -> tuple[int, int]:
        if not 0 <= row < len(self.alive):
            raise DataError(f"row {row} is not assigned to any shard")
        s, r = self.row_slices[row]
        return int(s), int(r)


def _deal(n: int, n_shards: int, n_slices: int, seed: int):
    """Round-robin assignment of a seeded permutation to shards, then slices:
    slice r of shard s is perm[s::n_shards][r::n_slices]."""
    perm = seeds.stream(seed, seeds.SISA_DEAL).permutation(n)
    return tuple(
        tuple(perm[s::n_shards][r::n_slices] for r in range(n_slices))
        for s in range(n_shards)
    )


def _replay_shard(store: ShardStore, data: EncodedMatrix, s: int, first: int, alive: np.ndarray):
    """Shard s's checkpoints with slices first.. retrained on the alive rows of data.

    Training starts from checkpoint first-1, or from the shard's seeded
    initialization when first is 0; the checkpoints before first are kept
    as the same objects.  Slice r trains on the alive rows of slices 0..r in
    dealt order, for per_slice_epochs epochs under the slice's own seed.
    """
    kept = store.checkpoints[s][:first]
    if first == 0:
        init_seed = seeds.derive(store.cfg.seed, seeds.SISA_SHARD_INIT, s)
        model = mlp.init(store.layer_dims, init_seed, provenance=f"sisa_shard_{s}")
    else:
        model = kept[-1]
    replayed = []
    for r in range(first, store.n_slices):
        rows = np.concatenate(store.slice_rows[s][: r + 1])
        rows = rows[alive[rows]]
        slice_seed = seeds.derive(store.cfg.seed, seeds.SISA_SLICE, s, r)
        model = mlp.train(
            model,
            data,
            store.cfg.with_(epochs=store.per_slice_epochs, seed=slice_seed),
            rows=rows,
        )
        replayed.append(model)
    return tuple(kept) + tuple(replayed)


def _shard_workers(n_jobs: int) -> int:
    """Threads to replay n_jobs shards on: the usable CPUs left after each
    thread's BLAS calls take theirs, at least one and at most n_jobs.

    The BLAS thread count is read as OpenBLAS (the BLAS of numpy's wheels)
    reads it: the first of its thread-count variables set to a positive
    integer, else one thread per usable CPU.  Shard threads on top of a
    multithreaded BLAS oversubscribe the CPUs and replay slower than one
    thread does.
    """
    cpus = len(os.sched_getaffinity(0))
    blas = cpus
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(var, "").strip()
        if value.isdigit() and int(value) > 0:
            blas = int(value)
            break
    return max(1, min(n_jobs, cpus // blas))


def _replay_shards(
    store: ShardStore, data: EncodedMatrix, starts: list[tuple[int, int]], alive: np.ndarray
) -> list:
    """_replay_shard(store, data, s, first, alive) for each (s, first) in starts, in order.

    Shards are independent and each is a pure function of its seeds, so they
    run concurrently on _shard_workers threads (numpy releases the GIL in its
    BLAS and ufunc loops) and give the same bits whatever the thread count.
    The first exception raised by a shard propagates; shards not yet started
    are cancelled.
    """

    def replay(job):
        return _replay_shard(store, data, job[0], job[1], alive)

    with ThreadPoolExecutor(max_workers=_shard_workers(len(starts))) as pool:
        return list(pool.map(replay, starts))


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
    store = ShardStore(
        n_shards=n_shards,
        n_slices=n_slices,
        cfg=cfg,
        hidden_units=hidden_units,
        layer_dims=_model_dims(ds, hidden_units),
        schema=ds.schema,
        alive=np.ones(ds.n_rows, dtype=bool),
        data_sha256=_data_checksum(data),
        checkpoints=((),) * n_shards,
    )
    checkpoints = _replay_shards(store, data, [(s, 0) for s in range(n_shards)], store.alive)
    return dataclasses.replace(store, checkpoints=tuple(checkpoints))


def sisa_forget(store: ShardStore, ds: TabularDataset, request: ForgetRequest) -> ShardStore:
    """Exact unlearning: roll affected shards back and replay their slices.

    ds must be the table the store was trained on; another one is refused
    before any replay.  Each shard holding a forgotten row is replayed from
    its earliest hit slice with the forgotten rows dropped (see
    _replay_shard).  Untouched shards keep their exact checkpoint objects.
    """
    if ds.schema != store.schema:
        raise DataError("dataset schema does not match the shard store")
    data = encode(ds)
    if _data_checksum(data) != store.data_sha256:
        raise DataError("supplied dataset does not match the one this store was trained on")
    forget = request.mask(len(store.alive))
    dead = np.flatnonzero(forget & ~store.alive)
    if dead.size:
        raise DataError(f"rows already forgotten: {dead.tolist()}")
    forget_rows = np.flatnonzero(forget)
    alive = store.alive & ~forget

    hit_shard, hit_slice = store.row_slices[forget_rows].T
    first_hit = np.full(store.n_shards, store.n_slices)
    np.minimum.at(first_hit, hit_shard, hit_slice)
    hit = [(s, int(first)) for s, first in enumerate(first_hit) if first < store.n_slices]
    checkpoints = list(store.checkpoints)
    for (s, _), replayed in zip(hit, _replay_shards(store, data, hit, alive)):
        checkpoints[s] = replayed
    return dataclasses.replace(
        store,
        alive=alive,
        checkpoints=tuple(checkpoints),
        removed_log=store.removed_log + tuple(int(i) for i in forget_rows),
    )


def sisa_predict(store: ShardStore, features: np.ndarray) -> np.ndarray:
    """Ensemble prediction: mean of the shard models' softmax outputs."""
    probs = [mlp.forward(m, features) for m in store.final_models()]
    return np.mean(probs, axis=0)


def predict(fitted, features: np.ndarray) -> np.ndarray:
    """Class probabilities from what a fitted method serves: a shard store's
    ensemble, an EUPG state's deployed model, or a bare model."""
    if isinstance(fitted, ShardStore):
        return sisa_predict(fitted, features)
    model = fitted.deployed_model if isinstance(fitted, EupgState) else fitted
    return mlp.forward(model, features)


# ---------------------------------------------------------------------------
# persistence
#
# Every method saves what it fitted as a state directory: manifest.json plus
# binary model files, and nothing that forgetting does not read.  The
# manifest names its kind and holds the training table's fitted encoding
# schema (category order and observed ranges), so load_state(dir) needs no
# other input and a table loaded under that schema is encoded as the
# training table was.
#   - eupg_state: both models, the privacy spec, the training settings, the
#     DP ledger and the audit log.  The protected rows are not stored:
#     protect(ds, spec) re-derives them, and `privforget anonymize` is their
#     CSV export.
#   - shard_store: every checkpoint, the row count and sha256s of the encoded
#     training table and of its deal to shards and slices.  load_shard_store
#     re-deals the rows and checks the deal; sisa_forget takes the table
#     from its caller and checks it.
#   - original_model: the model trained from scratch.
# Each kind carries its own format version; a directory of another version
# is refused, not converted.

EUPG_FORMAT_VERSION = 3
SHARD_FORMAT_VERSION = 3
ORIGINAL_FORMAT_VERSION = 1


def _manifest(state_dir) -> dict:
    """manifest.json of state_dir; {} when it does not hold a JSON object."""
    manifest = json.loads((Path(state_dir) / "manifest.json").read_text())
    return manifest if isinstance(manifest, dict) else {}


def _read_manifest(state_dir, kind: str, what: str, version: int, *keys: str) -> dict:
    """The manifest of a saved `kind`, holding every key its caller reads."""
    manifest = _manifest(state_dir)
    if manifest.get("kind") != kind:
        raise DataError(f"{state_dir}: not a saved {what}")
    found = manifest.get("format_version")
    if found != version:
        raise DataError(
            f"{state_dir}: {what} format version {found} is not supported "
            f"(expected {version}); re-run `privforget run` to rebuild it"
        )
    missing = [key for key in keys if key not in manifest]
    if missing:
        raise DataError(f"{state_dir}: manifest.json lacks key {', '.join(map(repr, missing))}")
    return manifest


def _fields(state_dir, key: str, cls, record) -> dict:
    """record, the manifest's entry under key, which was saved from a cls:
    DataError naming state_dir and key unless it holds exactly cls's fields."""
    if not isinstance(record, dict):
        raise DataError(f"{state_dir}: manifest key {key!r}: expected a JSON object, got {record!r}")
    names = [f.name for f in dataclasses.fields(cls)]
    unknown = [name for name in record if name not in names]
    if unknown:
        raise DataError(f"{state_dir}: manifest key {key!r} has unknown key {unknown[0]!r}")
    missing = [name for name in names if name not in record]
    if missing:
        raise DataError(f"{state_dir}: manifest key {key!r} lacks key {missing[0]!r}")
    return record


def _schema(state_dir, records) -> tuple[AttributeSchema, ...]:
    """The manifest's schema, one record of AttributeSchema's fields per attribute."""
    if not isinstance(records, list):
        raise DataError(f"{state_dir}: manifest key 'schema': expected a list, got {records!r}")
    return schema_from_dicts(_fields(state_dir, "schema", AttributeSchema, r) for r in records)


def _write_state(out_dir, models: dict[str, MlpModel], manifest: dict) -> None:
    """Write each model under its file name, then manifest.json, to out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, model in models.items():
        mlp.save_model(model, out / name)
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2))


def save_state(fitted, schema, out_dir) -> None:
    """Write fitted, trained on a table of this schema, for load_state.

    An EupgState or a ShardStore is written with the schema it holds; a
    bare model, which holds none, with schema.
    """
    if isinstance(fitted, EupgState):
        save_eupg_state(fitted, out_dir)
    elif isinstance(fitted, ShardStore):
        save_shard_store(fitted, out_dir)
    else:
        _write_state(
            out_dir,
            {"original.model": fitted},
            {
                "format_version": ORIGINAL_FORMAT_VERSION,
                "kind": "original_model",
                "schema": schema_to_dicts(schema),
            },
        )


def load_state(state_dir) -> tuple:
    """(fitted, schema) of the state saved in state_dir, whatever its kind:
    an EupgState, a ShardStore or a bare model, and the training table's
    encoding schema."""
    kind = _manifest(state_dir).get("kind")
    if kind == "eupg_state":
        fitted = load_eupg_state(state_dir)
    elif kind == "shard_store":
        fitted = load_shard_store(state_dir)
    elif kind == "original_model":
        manifest = _read_manifest(
            state_dir, kind, "original model", ORIGINAL_FORMAT_VERSION, "schema"
        )
        model = mlp.load_model(Path(state_dir) / "original.model")
        return model, _schema(state_dir, manifest["schema"])
    else:
        raise DataError(f"{state_dir}: not a saved state (manifest kind {kind!r})")
    return fitted, fitted.schema


def save_eupg_state(state: EupgState, out_dir) -> None:
    """Write manifest.json, base.model and deployed.model."""
    mechanisms = state.spec.mechanisms
    manifest = {
        "format_version": EUPG_FORMAT_VERSION,
        "kind": "eupg_state",
        "spec": {
            **vars(state.spec),
            "mechanisms": None if mechanisms is None else mechanisms.to_json_dict(),
        },
        "finetune_epochs": state.finetune_epochs,
        "hidden_units": state.hidden_units,
        "cfg": dataclasses.asdict(state.cfg),
        "timings": state.timings,
        "audit_log": [dataclasses.asdict(e) for e in state.audit_log],
        "schema": schema_to_dicts(state.schema),
        "dp_ledger": state.dp_ledger.to_json_dict() if state.dp_ledger else None,
    }
    models = {"base.model": state.base_model, "deployed.model": state.deployed_model}
    _write_state(out_dir, models, manifest)


def load_eupg_state(state_dir) -> EupgState:
    """Reload a format-version-3 state; its protected_data is None."""
    out = Path(state_dir)
    manifest = _read_manifest(
        state_dir, "eupg_state", "unlearning state", EUPG_FORMAT_VERSION, "spec", "finetune_epochs",
        "hidden_units", "cfg", "timings", "audit_log", "schema", "dp_ledger",
    )
    spec = _fields(state_dir, "spec", PrivacySpec, manifest["spec"])
    mechanisms = spec["mechanisms"]
    if mechanisms is not None:
        _fields(state_dir, "spec.mechanisms", MechanismSpec, mechanisms)
        for mechanism in mechanisms["categorical"].values():
            _fields(state_dir, "spec.mechanisms.categorical", CategoricalMechanism, mechanism)
        mechanisms = MechanismSpec.from_json_dict(mechanisms)
    ledger = manifest["dp_ledger"]
    if ledger:
        for entry in ledger["entries"]:
            _fields(state_dir, "dp_ledger.entries", DpBudgetEntry, entry)
        ledger = DpLedger.from_json_dict(ledger)
    return EupgState(
        spec=PrivacySpec(**{**spec, "mechanisms": mechanisms}),
        schema=_schema(state_dir, manifest["schema"]),
        base_model=mlp.load_model(out / "base.model"),
        deployed_model=mlp.load_model(out / "deployed.model"),
        finetune_epochs=manifest["finetune_epochs"],
        cfg=TrainConfig(**_fields(state_dir, "cfg", TrainConfig, manifest["cfg"])),
        hidden_units=manifest["hidden_units"],
        timings=manifest["timings"],
        audit_log=tuple(
            ForgetEvent(**_fields(state_dir, "audit_log", ForgetEvent, e))
            for e in manifest["audit_log"]
        ),
        dp_ledger=ledger or None,
    )


def _data_checksum(em: EncodedMatrix) -> str:
    """sha256 of the features' bytes, then the labels', hashed in place."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(em.features))
    h.update(np.ascontiguousarray(em.labels))
    return h.hexdigest()


def _deal_checksum(slice_rows) -> str:
    """sha256 of the dealt row indices, shard by shard and slice by slice."""
    rows = np.concatenate([np.concatenate(shard) for shard in slice_rows])
    return hashlib.sha256(rows.astype("<i8").tobytes()).hexdigest()


def save_shard_store(store: ShardStore, out_dir) -> None:
    """Write manifest.json and one shard{s}_slice{r}.model per checkpoint."""
    models = {
        f"shard{s}_slice{r}.model": store.checkpoints[s][r]
        for s in range(store.n_shards)
        for r in range(store.n_slices)
    }
    manifest = {
        "format_version": SHARD_FORMAT_VERSION,
        "kind": "shard_store",
        "n_shards": store.n_shards,
        "n_slices": store.n_slices,
        "cfg": dataclasses.asdict(store.cfg),
        "hidden_units": store.hidden_units,
        "layer_dims": list(store.layer_dims),
        "schema": schema_to_dicts(store.schema),
        "n_rows": len(store.alive),
        "deal_sha256": _deal_checksum(store.slice_rows),
        "removed_rows": sorted(int(i) for i in np.flatnonzero(~store.alive)),
        "removed_log": list(store.removed_log),
        "data_sha256": store.data_sha256,
    }
    _write_state(out_dir, models, manifest)


def load_shard_store(state_dir) -> ShardStore:
    """Reload a shard store from its directory alone; sisa_forget checks the
    table it is given against the manifest's data_sha256."""
    out = Path(state_dir)
    manifest = _read_manifest(
        state_dir, "shard_store", "shard store", SHARD_FORMAT_VERSION, "n_shards", "n_slices",
        "cfg", "hidden_units", "layer_dims", "schema", "n_rows", "deal_sha256", "removed_rows",
        "removed_log", "data_sha256",
    )
    n_rows = manifest["n_rows"]
    if type(n_rows) is not int or n_rows < 1:
        raise DataError(f"{state_dir}: manifest key 'n_rows' must be a positive integer, got {n_rows!r}")
    removed = manifest["removed_rows"]
    ok = isinstance(removed, list) and all(type(i) is int and 0 <= i < n_rows for i in removed)
    if not ok or len(set(removed)) != len(removed):
        raise DataError(
            f"{state_dir}: manifest key 'removed_rows' must list distinct integer "
            f"row indices in [0, {n_rows})"
        )
    n_shards, n_slices = manifest["n_shards"], manifest["n_slices"]
    cfg = TrainConfig(**_fields(state_dir, "cfg", TrainConfig, manifest["cfg"]))
    if _deal_checksum(_deal(n_rows, n_shards, n_slices, cfg.seed)) != manifest["deal_sha256"]:
        raise DataError(
            f"{state_dir}: the rows dealt to shards and slices do not match the "
            "manifest's deal_sha256; re-run `privforget run` to rebuild the store"
        )
    checkpoints = tuple(
        tuple(mlp.load_model(out / f"shard{s}_slice{r}.model") for r in range(n_slices))
        for s in range(n_shards)
    )
    alive = np.ones(n_rows, dtype=bool)
    alive[removed] = False
    return ShardStore(
        n_shards=n_shards,
        n_slices=n_slices,
        cfg=cfg,
        hidden_units=manifest["hidden_units"],
        layer_dims=tuple(manifest["layer_dims"]),
        schema=_schema(state_dir, manifest["schema"]),
        alive=alive,
        data_sha256=manifest["data_sha256"],
        checkpoints=checkpoints,
        removed_log=tuple(manifest["removed_log"]),
    )
