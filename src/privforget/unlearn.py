"""Unlearning strategies over the privacy-protected training pipeline.

The primary strategy keeps two models: a base model trained only on a
privacy-protected view of the training data (k-anonymized or
differentially private), and a deployed model obtained by fine-tuning the
base on the raw data.  Serving a forgetting request discards the deployed
model and fine-tunes the base on the retain set alone; the forgotten rows
never influence the result, because the base saw only the protected view
and the fine-tune sees only the retain rows.

Baseline: sharded incremental training (SISA), where a forget rolls the
affected shard back to the last checkpoint untouched by the forgotten row
and replays the remaining slices with their original seeds.  Retraining
from scratch is SISA with one shard and one slice: every forget replays
the one model on the retain rows.
"""
from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import os
import time
import types
import typing
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
    read_json,
    validate_schema,
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


@dataclass(frozen=True)
class ForgetEvent:
    n_forgotten: int
    epochs: int
    ratio: float | None = None
    request_seed: int | None = None


@dataclass(frozen=True)
class EupgState:
    """Both models, the training settings and the raw table's schema.

    With the raw training table, which eupg_forget takes separately and
    which is not stored here, this serves any forgetting request.
    protected_data is the protected view the base model was trained on; a
    prepared state holds it, a loaded one holds None, since forgetting never
    reads it and protect(ds, spec) re-derives it.  timings holds the
    seconds prepare spent protecting, training and fine-tuning; a loaded
    state holds none.
    """

    spec: PrivacySpec
    schema: tuple[AttributeSchema, ...]
    base_model: MlpModel
    deployed_model: MlpModel
    finetune_epochs: int
    cfg: TrainConfig
    timings: dict[str, float] = field(default_factory=dict)
    audit_log: tuple[ForgetEvent, ...] = ()
    dp_ledger: DpLedger | None = None
    protected_data: TabularDataset | None = None

    def final_models(self) -> tuple[MlpModel, ...]:
        """The models whose mean predict serves: the deployed model alone."""
        return (self.deployed_model,)


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
    base = mlp.train(mlp.init(dims, cfg.seed), encode(protected), cfg)
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
    retain = encode(ds, rows=np.flatnonzero(~request.mask(ds.n_rows)))
    deployed = mlp.finetune(state.base_model, retain, epochs, state.cfg)
    event = ForgetEvent(
        n_forgotten=len(request.forget_indices),
        epochs=epochs,
        ratio=request.ratio,
        request_seed=request.seed,
    )
    return dataclasses.replace(state, deployed_model=deployed, audit_log=state.audit_log + (event,))


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


def _deal(n: int, n_shards: int, n_slices: int, seed: int):
    """Round-robin assignment of a seeded permutation to shards, then slices:
    slice r of shard s is perm[s::n_shards][r::n_slices]."""
    perm = seeds.stream(seed, seeds.SISA_DEAL).permutation(n)
    return tuple(
        tuple(perm[s::n_shards][r::n_slices] for r in range(n_slices))
        for s in range(n_shards)
    )


def _replay_shard(store: ShardStore, data: EncodedMatrix, s: int, first: int, alive: np.ndarray):
    """Shard s's checkpoints from slice first on, retrained on the alive rows of data.

    Training starts from checkpoint first-1, or from the shard's seeded
    initialization when first is 0.  Slice r trains on the alive rows of
    slices 0..r in dealt order, for per_slice_epochs epochs under the slice's
    own seed.
    """
    if first == 0:
        init_seed = seeds.derive(store.cfg.seed, seeds.SISA_SHARD_INIT, s)
        model = mlp.init(store.layer_dims, init_seed)
    else:
        model = store.checkpoints[s][first - 1]
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
    return replayed


def _shard_workers(n_jobs: int) -> int:
    """Processes to replay n_jobs shards in: the usable CPUs left after each
    process's BLAS calls take theirs, at least one and at most n_jobs.

    The BLAS thread count is read as OpenBLAS (the BLAS of numpy's wheels)
    reads it: the first of its thread-count variables set to a positive
    integer, else one thread per usable CPU.  Shard processes on top of a
    multithreaded BLAS oversubscribe the CPUs and replay slower than one
    process does.
    """
    cpus = len(os.sched_getaffinity(0))
    blas = cpus
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(var, "").strip()
        if value.isdigit() and int(value) > 0:
            blas = int(value)
            break
    return max(1, min(n_jobs, cpus // blas))


# (store, data, alive) of the replay in progress: set by sisa_train or
# sisa_forget, read by _replay_job in a forked replay worker or, while the
# shards replay on their own, in this process, and dropped by _replay_shards
_replay_inputs = None


def _set_replay_inputs(*inputs) -> None:
    """Hold (store, data, alive) for _replay_job; called without arguments,
    hold nothing."""
    global _replay_inputs
    _replay_inputs = inputs or None


def _replay_job(job: tuple[int, int]) -> list:
    """(layer_dims, weights, biases) of each slice _replay_shard retrains for
    job (s, first), on the replay inputs."""
    store, data, alive = _replay_inputs
    replayed = _replay_shard(store, data, job[0], job[1], alive)
    return [(m.layer_dims, m.weights, m.biases) for m in replayed]


def _replay_shards(starts: list[tuple[int, int]], on_final=None) -> list:
    """The checkpoints of every shard of the store in the replay inputs the
    caller set: for each (s, first) in starts, shard s's with slices first..
    replayed, the checkpoints before first kept as the same objects, and
    every other shard's as they are.  This process drops the inputs once it
    needs them no more: when the workers are forked, or after replaying in
    this process.  A caller that holds no other reference to the encoded
    table has freed it by the time on_final runs.

    Shards are independent and each is a pure function of its seeds, so they
    replay concurrently in _shard_workers forked processes and give the same
    bits whatever the worker count; threads would share one GIL.  The
    workers get the inputs through fork, copy-on-write: a fork pool forks
    its workers while the jobs are submitted, and this process then drops
    them.
    Only each job's (s, first) and the replayed parameters are pickled; fork
    is named because forkserver, Python 3.14's default on Linux, would
    pickle the data too.  When one worker is all there is, the same
    _replay_job runs here instead, one job after the other, and no process
    is forked.  Each replayed model is rebuilt here, so its parameters are
    checked, read-only float32 arrays.

    on_final(s, model), when given, runs here once for every shard of the
    store, with its final model, in no fixed order: a replayed shard as it
    finishes, but never before a worker has run out of shards to take, and
    a shard not in starts at that same point, so on_final's work fills the
    CPU the pool leaves idle while its last shards replay.  In this process
    it runs after the replay.  CLI run and forget score their report so,
    and a shard store's report timings_s train and forget then cover
    reading the test CSV and predicting the report's matrices too.  The
    first exception raised by a shard or by on_final propagates; in a pool,
    shards not yet started are cancelled, and the workers are joined either
    way.
    """
    store = _replay_inputs[0]
    workers = _shard_workers(len(starts))
    checkpoints = list(store.checkpoints)
    replaying = {s for s, _ in starts}
    not_handed = list(range(store.n_shards))

    def finish(job: tuple[int, int], params: list) -> None:
        s, first = job
        checkpoints[s] = store.checkpoints[s][:first] + tuple(MlpModel(*p) for p in params)
        replaying.remove(s)

    def hand_over() -> None:
        """on_final for every shard not replaying and not yet handed over."""
        for s in [s for s in not_handed if s not in replaying]:
            not_handed.remove(s)
            if on_final is not None:
                on_final(s, checkpoints[s][-1])

    try:
        if workers == 1:
            for job in starts:
                finish(job, _replay_job(job))
        else:
            # imported here, so that code that never forks a replay does not load multiprocessing
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor, as_completed

            fork = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(workers, mp_context=fork) as pool:
                jobs = {pool.submit(_replay_job, job): job for job in starts}
                _set_replay_inputs()  # the workers, forked by now, hold them
                try:
                    for future in as_completed(jobs):
                        finish(jobs[future], future.result())
                        if len(replaying) < workers:  # a worker has no shard left to take
                            hand_over()
                finally:
                    for future in jobs:
                        future.cancel()
    finally:
        _set_replay_inputs()
    hand_over()
    return checkpoints


def sisa_train(
    ds: TabularDataset,
    n_shards: int,
    n_slices: int,
    cfg: TrainConfig,
    hidden_units: int = 128,
    *,
    on_final=None,
) -> ShardStore:
    """Train the sharded ensemble.  Total epochs split as ceil(epochs/slices)
    per incremental stage, so each shard sees roughly cfg.epochs of work.
    One shard of one slice is a single model trained from scratch.
    on_final(s, model) runs with each shard's trained model, as
    _replay_shards says."""
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
        layer_dims=_model_dims(ds, hidden_units),
        schema=ds.schema,
        alive=np.ones(ds.n_rows, dtype=bool),
        data_sha256=_data_checksum(data),
        checkpoints=((),) * n_shards,
    )
    _set_replay_inputs(store, data, store.alive)
    del data  # the replay inputs hold the only reference; _replay_shards drops it
    checkpoints = _replay_shards([(s, 0) for s in range(n_shards)], on_final)
    return dataclasses.replace(store, checkpoints=tuple(checkpoints))


def sisa_forget(
    store: ShardStore, ds: TabularDataset, request: ForgetRequest, *, on_final=None
) -> ShardStore:
    """Exact unlearning: roll affected shards back and replay their slices.

    ds must be the table the store was trained on; another one is refused
    before any replay.  Each shard holding a forgotten row is replayed from
    its earliest hit slice with the forgotten rows dropped (see
    _replay_shard).  Untouched shards keep their exact checkpoint objects.
    on_final(s, model) runs with each shard's final model, replayed or
    untouched, as _replay_shards says.
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
    _set_replay_inputs(store, data, alive)
    del data  # the replay inputs hold the only reference; _replay_shards drops it
    checkpoints = _replay_shards(hit, on_final)
    return dataclasses.replace(
        store,
        alive=alive,
        checkpoints=tuple(checkpoints),
        removed_log=store.removed_log + tuple(int(i) for i in forget_rows),
    )


def ensemble_probs(shard_probs: list[np.ndarray]) -> np.ndarray:
    """The ensemble's class probabilities from its final models', given in
    order: their mean, which for one model is its matrix bit for bit."""
    return np.mean(shard_probs, axis=0)


def predict(fitted: EupgState | ShardStore, features: np.ndarray) -> np.ndarray:
    """Class probabilities from what a fitted method serves: the mean of its
    final models', a shard store's shard models or an EUPG state's deployed
    model."""
    return ensemble_probs([mlp.forward(m, features) for m in fitted.final_models()])


# ---------------------------------------------------------------------------
# persistence
#
# Every method saves what it fitted as a state directory of one of two
# kinds: manifest.json plus binary model files, and nothing that forgetting
# does not read, nor any wall-clock time, so one config saves the same bytes
# on every run.  The manifest names its kind and holds the training table's
# fitted encoding schema (category order and observed ranges), so
# load_state(dir) needs no other input and a table loaded under that schema
# is encoded as the training table was.
#   - eupg_state: both models, the privacy spec, the training settings, the
#     DP ledger and the audit log.  The protected rows are not stored:
#     protect(ds, spec) re-derives them, and `privforget anonymize` is their
#     CSV export.
#   - shard_store: every checkpoint, the row count and sha256s of the encoded
#     training table and of its deal to shards and slices.  load_shard_store
#     re-deals the rows and checks the deal; sisa_forget takes the table
#     from its caller and checks it.  The from-scratch baseline is a store
#     of one shard and one slice.
# Each kind's manifest is a record dataclass below, written by asdict and
# read back by _from_json against its type hints: the dataclasses are the
# format.  A directory of another format version is refused, not converted.

EUPG_FORMAT_VERSION = 7
SHARD_FORMAT_VERSION = 7
MANIFEST = "manifest.json"


@dataclass(frozen=True)
class _Manifest:
    """What every kind's manifest holds: the training table's encoding schema."""

    schema: tuple[AttributeSchema, ...]

    def __post_init__(self):
        validate_schema(self.schema)


@dataclass(frozen=True)
class _EupgManifest(_Manifest):
    spec: PrivacySpec
    finetune_epochs: int
    cfg: TrainConfig
    audit_log: tuple[ForgetEvent, ...]
    dp_ledger: DpLedger | None
    format_version: int = EUPG_FORMAT_VERSION
    kind: str = "eupg_state"


@dataclass(frozen=True)
class _ShardManifest(_Manifest):
    n_shards: int
    n_slices: int
    cfg: TrainConfig
    layer_dims: tuple[int, ...]
    n_rows: int
    deal_sha256: str
    removed_rows: tuple[int, ...]
    removed_log: tuple[int, ...]
    data_sha256: str
    format_version: int = SHARD_FORMAT_VERSION
    kind: str = "shard_store"


_hints = functools.cache(typing.get_type_hints)


def _from_json(state_dir, value, hint, key: str):
    """value, read from state_dir's manifest at key path key, as a hint.

    A dataclass is read from an object holding exactly its fields, and its
    own checks' errors are re-raised naming key; X | None also takes null, a
    tuple is read from a list, dict[str, T] from an object, and np.ndarray
    from a list of equal-length rows of numbers.  An int must be
    non-negative, since every manifest int is a count, an index or a seed,
    a float must be finite and a str a JSON string.  A field is named
    parent.name, and a list item or map value by its container's key.
    Anything else is a DataError naming state_dir and key.
    """
    where = MANIFEST if key == MANIFEST else f"manifest key {key!r}"

    def refused(problem: str) -> DataError:
        return DataError(f"{state_dir}: {where}{problem}")

    def expected(what: str) -> DataError:
        return refused(f": expected {what}, got {value!r}")

    args = typing.get_args(hint)
    if dataclasses.is_dataclass(hint):
        if not isinstance(value, dict):
            raise expected("a JSON object")
        names = [f.name for f in dataclasses.fields(hint)]
        unknown = [name for name in value if name not in names]
        missing = [name for name in names if name not in value]
        if unknown or missing:
            raise refused(f" has unknown key {unknown[0]!r}" if unknown else f" lacks key {missing[0]!r}")
        hints, prefix = _hints(hint), "" if key == MANIFEST else f"{key}."
        fields = {name: _from_json(state_dir, value[name], hints[name], prefix + name) for name in names}
        try:
            return hint(**fields)
        except ValueError as exc:
            raise refused(f": {exc}") from None
    if isinstance(hint, types.UnionType):  # X | None
        if value is None:
            return None
        (inner,) = (arg for arg in args if arg is not type(None))
        return _from_json(state_dir, value, inner, key)
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, list):
            raise expected("a list")
        if args[-1] is not Ellipsis and len(value) != len(args):
            raise expected(f"a list of {len(args)}")
        items = args[:1] * len(value) if args[-1] is Ellipsis else args
        return tuple(_from_json(state_dir, v, h, key) for v, h in zip(value, items))
    if typing.get_origin(hint) is dict:
        if not isinstance(value, dict):
            raise expected("a JSON object")
        return {name: _from_json(state_dir, v, args[1], key) for name, v in value.items()}
    if hint is np.ndarray:
        rows = _from_json(state_dir, value, tuple[tuple[float, ...], ...], key)
        if len({len(row) for row in rows}) > 1:
            raise expected("rows of equal length")
        return np.array(rows, dtype=np.float64)
    if hint is int:
        if type(value) is not int or value < 0:
            raise expected("a non-negative integer")
    elif hint is float:
        if type(value) not in (int, float) or not math.isfinite(value):
            raise expected("a finite number")
        return float(value)
    elif type(value) is not hint:  # str
        raise expected("a JSON string")
    return value


def _manifest(state_dir) -> dict:
    """manifest.json of state_dir; {} when it does not hold a JSON object."""
    manifest = read_json(Path(state_dir) / MANIFEST)
    return manifest if isinstance(manifest, dict) else {}


def _read_manifest(state_dir, cls, what: str):
    """The manifest of a saved `what`, read as a cls once its kind and
    format version are the ones cls records."""
    manifest = _manifest(state_dir)
    if manifest.get("kind") != cls.kind:
        raise DataError(f"{state_dir}: not a saved {what}")
    found = manifest.get("format_version")
    if found != cls.format_version:
        raise DataError(
            f"{state_dir}: {what} format version {found} is not supported "
            f"(expected {cls.format_version}); re-run `privforget run` to rebuild it"
        )
    return _from_json(state_dir, manifest, cls, MANIFEST)


def _write_state(out_dir, models: dict[str, MlpModel], manifest: _Manifest) -> None:
    """Write each model under its file name, then the manifest record as
    manifest.json (matrices as lists of rows)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, model in models.items():
        mlp.save_model(model, out / name)
    record = dataclasses.asdict(manifest)
    (out / MANIFEST).write_text(json.dumps(record, indent=2, default=np.ndarray.tolist))


def save_state(fitted: EupgState | ShardStore, out_dir) -> None:
    """Write fitted, with the schema it holds, for load_state."""
    save = save_eupg_state if isinstance(fitted, EupgState) else save_shard_store
    save(fitted, out_dir)


def load_state(state_dir) -> EupgState | ShardStore:
    """The EupgState or ShardStore saved in state_dir, whatever its kind;
    its schema is the training table's encoding schema."""
    manifest = _manifest(state_dir)
    kind, found = manifest.get("kind"), manifest.get("format_version")
    load = {_EupgManifest.kind: load_eupg_state, _ShardManifest.kind: load_shard_store}.get(kind)
    if load is None:
        raise DataError(
            f"{state_dir}: not a saved state: manifest kind {kind!r} format version {found} "
            "is not supported; re-run `privforget run` to rebuild it"
        )
    return load(state_dir)


def save_eupg_state(state: EupgState, out_dir) -> None:
    """Write manifest.json, base.model and deployed.model."""
    manifest = _EupgManifest(
        schema=state.schema,
        spec=state.spec,
        finetune_epochs=state.finetune_epochs,
        cfg=state.cfg,
        audit_log=state.audit_log,
        dp_ledger=state.dp_ledger,
    )
    models = {"base.model": state.base_model, "deployed.model": state.deployed_model}
    _write_state(out_dir, models, manifest)


def load_eupg_state(state_dir) -> EupgState:
    """Reload a saved state; its protected_data is None and its timings empty."""
    out = Path(state_dir)
    manifest = _read_manifest(state_dir, _EupgManifest, "unlearning state")
    return EupgState(
        spec=manifest.spec,
        schema=manifest.schema,
        base_model=mlp.load_model(out / "base.model"),
        deployed_model=mlp.load_model(out / "deployed.model"),
        finetune_epochs=manifest.finetune_epochs,
        cfg=manifest.cfg,
        audit_log=manifest.audit_log,
        dp_ledger=manifest.dp_ledger,
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
    manifest = _ShardManifest(
        schema=store.schema,
        n_shards=store.n_shards,
        n_slices=store.n_slices,
        cfg=store.cfg,
        layer_dims=store.layer_dims,
        n_rows=len(store.alive),
        deal_sha256=_deal_checksum(store.slice_rows),
        removed_rows=tuple(np.flatnonzero(~store.alive).tolist()),
        removed_log=store.removed_log,
        data_sha256=store.data_sha256,
    )
    _write_state(out_dir, models, manifest)


def load_shard_store(state_dir) -> ShardStore:
    """Reload a shard store from its directory alone; sisa_forget checks the
    table it is given against the manifest's data_sha256."""
    out = Path(state_dir)
    manifest = _read_manifest(state_dir, _ShardManifest, "shard store")
    n_rows, n_shards, n_slices = manifest.n_rows, manifest.n_shards, manifest.n_slices
    for key, count in (("n_rows", n_rows), ("n_shards", n_shards), ("n_slices", n_slices)):
        if count < 1:
            raise DataError(f"{state_dir}: manifest key {key!r} must be a positive integer, got {count}")
    removed = list(manifest.removed_rows)
    if len(set(removed)) != len(removed) or any(i >= n_rows for i in removed):
        raise DataError(
            f"{state_dir}: manifest key 'removed_rows' must list distinct "
            f"row indices in [0, {n_rows})"
        )
    if _deal_checksum(_deal(n_rows, n_shards, n_slices, manifest.cfg.seed)) != manifest.deal_sha256:
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
        cfg=manifest.cfg,
        layer_dims=manifest.layer_dims,
        schema=manifest.schema,
        alive=alive,
        data_sha256=manifest.data_sha256,
        checkpoints=checkpoints,
        removed_log=manifest.removed_log,
    )
