import dataclasses
import hashlib
import io
import json
import multiprocessing
import os
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privforget import mlp, seeds, unlearn
from privforget.attack import utility_from_probs
from privforget.data import (
    DataError,
    EncodedMatrix,
    ForgetRequest,
    Provenance,
    TabularDataset,
    encode,
    split_forget,
    write_csv,
)
from privforget.dpanon import CategoricalMechanism, MechanismSpec
from privforget.mlp import TrainConfig, TrainingDiverged, models_equal
from privforget.unlearn import (
    EupgState,
    PrivacySpec,
    ShardStore,
    _deal,
    eupg_forget,
    eupg_prepare,
    load_eupg_state,
    load_shard_store,
    load_state,
    predict,
    protect,
    save_eupg_state,
    save_shard_store,
    save_state,
    sisa_forget,
    sisa_train,
)

from conftest import make_dataset, pin_cpus, sisa_oracle

CFG = TrainConfig(batch_size=32, epochs=3, seed=0)


def prepared(ds, spec=None):
    spec = spec or PrivacySpec.k_anonymity(3)
    return eupg_prepare(ds, spec, CFG, finetune_epochs=2, hidden_units=8)


# ---------------------------------------------------------------------------
# privacy spec and protect dispatch

def test_privacy_spec_validation():
    with pytest.raises(DataError, match="k >= 2"):
        PrivacySpec.k_anonymity(1)
    with pytest.raises(DataError, match="epsilon"):
        PrivacySpec.dp(0.0)
    with pytest.raises(DataError, match="unknown privacy method"):
        PrivacySpec("noise")


def test_protect_dispatch(small_dataset):
    k_out, k_ledger = protect(small_dataset, PrivacySpec.k_anonymity(4))
    assert k_out.provenance.kind == "k_anonymized"
    assert k_ledger is None
    dp_out, dp_ledger = protect(small_dataset, PrivacySpec.dp(1.0, seed=3))
    assert dp_out.provenance.kind == "dp_protected"
    assert dp_ledger is not None and dp_ledger.epsilon_total == 1.0


# ---------------------------------------------------------------------------
# prepare / forget

def test_eupg_prepare_structure(small_dataset):
    state = prepared(small_dataset)
    assert set(state.timings) == {"anonymize", "train", "finetune"}
    assert state.dp_ledger is None
    assert state.protected_data.provenance.kind == "k_anonymized"

    dp_state = prepared(small_dataset, PrivacySpec.dp(2.0, seed=1))
    assert dp_state.dp_ledger is not None


def test_eupg_prepare_rejects_protected_input(small_dataset):
    protected, _ = protect(small_dataset, PrivacySpec.k_anonymity(3))
    with pytest.raises(DataError, match="raw"):
        eupg_prepare(protected, PrivacySpec.k_anonymity(3), CFG)


def test_zero_finetune_deploys_the_base(small_dataset):
    state = eupg_prepare(
        small_dataset, PrivacySpec.k_anonymity(3), CFG, finetune_epochs=0, hidden_units=8
    )
    assert models_equal(state.base_model, state.deployed_model)


def test_eupg_forget_basics(small_dataset):
    state = prepared(small_dataset)
    request = ForgetRequest.from_ratio(small_dataset.n_rows, 0.1, seed=7)
    after = eupg_forget(state, small_dataset, request)
    # the base never changes; only the deployed model is rebuilt, by the
    # state's own fine-tune epochs on the retain rows
    assert models_equal(after.base_model, state.base_model)
    assert not models_equal(after.deployed_model, state.deployed_model)
    retain = encode(small_dataset, rows=np.flatnonzero(~request.mask(small_dataset.n_rows)))
    assert models_equal(after.deployed_model, mlp.finetune(state.base_model, retain, 2, CFG))
    assert after.finetune_epochs == 2 and after.data_sha256 == state.data_sha256
    # forgetting times nothing itself: its caller times it
    assert after.timings == state.timings
    # serving the same request twice is deterministic
    again = eupg_forget(state, small_dataset, request)
    assert models_equal(after.deployed_model, again.deployed_model)


def test_eupg_forget_is_independent_of_forgotten_contents(small_dataset):
    """The rebuilt model may not depend on what the forgotten rows said."""
    state = prepared(small_dataset)
    request = ForgetRequest.from_ratio(small_dataset.n_rows, 0.2, seed=3)
    baseline = eupg_forget(state, small_dataset, request)

    # overwrite every forgotten cell with garbage (schema-valid garbage)
    rows = np.array(small_dataset.rows)
    idx = np.array(request.forget_indices)
    for j, attr in enumerate(small_dataset.schema):
        if attr.role == "class":
            continue
        if attr.kind == "numeric":
            rows[idx, j] = -999.0
        else:
            rows[idx, j] = (rows[idx, j] + 1) % len(attr.categories)
    mutated = TabularDataset(small_dataset.schema, rows, Provenance.raw())

    # the state refuses another table; one bound to the mutated table forgets alike
    with pytest.raises(DataError, match="does not match"):
        eupg_forget(state, mutated, request)
    bound = dataclasses.replace(state, data_sha256=unlearn._data_checksum(mutated))
    other = eupg_forget(bound, mutated, request)
    assert models_equal(baseline.deployed_model, other.deployed_model)


def test_eupg_forget_schema_mismatch(tmp_path, small_dataset):
    state = prepared(small_dataset)
    save_eupg_state(state, tmp_path / "state")
    other = make_dataset(50, seed=9, n_numeric=2)
    # a reloaded state, which holds no protected rows, checks the schema too
    for checked in (state, load_eupg_state(tmp_path / "state")):
        with pytest.raises(DataError, match="schema"):
            eupg_forget(checked, other, ForgetRequest((0,)))


def test_eupg_forget_refuses_subset_and_out_of_range(small_dataset):
    state = prepared(small_dataset)
    retain, _ = split_forget(small_dataset, ForgetRequest((0,)))
    with pytest.raises(DataError, match="does not match the one this store was trained on"):
        eupg_forget(state, retain, ForgetRequest((1,)))
    n = small_dataset.n_rows
    with pytest.raises(DataError, match=f"forget index {n} out of range for {n} rows"):
        eupg_forget(state, small_dataset, ForgetRequest((3, n)))


def test_retrain_scratch(small_dataset):
    """Retraining from scratch is a store of one shard and one slice: its
    forget trains one fresh model on the retain rows alone, for all of
    cfg's epochs, deterministically, and its ensemble is that model."""
    request = ForgetRequest.from_ratio(small_dataset.n_rows, 0.1, seed=0)
    store = sisa_train(small_dataset, 1, 1, CFG, hidden_units=8)
    after = sisa_forget(store, small_dataset, request)
    (model,) = after.final_models()
    assert model.layer_dims == (encode(small_dataset).width, 8, 2)
    assert after.per_slice_epochs == CFG.epochs
    oracle = sisa_oracle(small_dataset, store, 0, after.alive)
    assert models_equal(model, oracle[-1])
    again = sisa_forget(store, small_dataset, request)
    assert models_equal(model, again.final_models()[0])
    features = encode(small_dataset).features
    assert predict(after, features).tobytes() == mlp.forward(model, features).tobytes()


# ---------------------------------------------------------------------------
# SISA

# sha256 of the dealt slices as JSON lists; saved stores re-deal their rows
# and refuse to load when the deal differs from their manifest's deal_sha256,
# so a change here orphans every saved shard store
DEAL_SHA256 = {
    (37, 3, 4, 0): "029e60433b71c4b273890cd60332cfd7b90a47b300c930bdad2ee4238f1f3c7f",
    (30000, 5, 10, 0): "c856c006c74fab1d41be26eae96dea36f8dd03fdc906e4b99b5c7d8beaf5ef61",
}


@pytest.mark.parametrize("args", sorted(DEAL_SHA256))
def test_deal_pinned(args):
    slice_rows = _deal(*args)
    dealt = json.dumps([[rows.tolist() for rows in shard] for shard in slice_rows])
    assert hashlib.sha256(dealt.encode()).hexdigest() == DEAL_SHA256[args]


def test_deal_covers_rows_evenly():
    slice_rows = _deal(37, 3, 4, seed=0)
    flat = np.concatenate([np.concatenate(shard) for shard in slice_rows])
    assert sorted(flat.tolist()) == list(range(37))
    shard_sizes = [sum(len(sl) for sl in shard) for shard in slice_rows]
    assert max(shard_sizes) - min(shard_sizes) <= 1
    for shard in slice_rows:
        sizes = [len(sl) for sl in shard]
        assert max(sizes) - min(sizes) <= 1
    # deterministic in the seed
    again = _deal(37, 3, 4, seed=0)
    for a, b in zip(slice_rows, again):
        for sa, sb in zip(a, b):
            assert np.array_equal(sa, sb)


def test_sisa_train_structure():
    ds = make_dataset(90, seed=2)
    cfg = TrainConfig(batch_size=16, epochs=5, seed=1)
    store = sisa_train(ds, n_shards=3, n_slices=2, cfg=cfg, hidden_units=8)
    assert store.per_slice_epochs == 3  # ceil(5 / 2)
    assert len(store.checkpoints) == 3
    assert all(len(cp) == 2 for cp in store.checkpoints)
    assert store.alive.all()
    finals = store.final_models()
    assert len(finals) == 3 and all(m is cp[-1] for m, cp in zip(finals, store.checkpoints))
    em = encode(ds)
    probs = predict(store, em.features)
    assert np.allclose(probs.sum(axis=1), 1.0)
    assert 0.0 <= utility_from_probs(probs, em.labels, "accuracy") <= 1.0

    with pytest.raises(DataError, match="cannot fill"):
        sisa_train(make_dataset(5, seed=0), 3, 2, cfg)
    with pytest.raises(DataError, match="at least one"):
        sisa_train(ds, 0, 2, cfg)


def test_sisa_forget_matches_from_scratch_oracle():
    """Rollback plus replay must equal full retraining on the dealt slices."""
    ds = make_dataset(60, seed=4)
    cfg = TrainConfig(batch_size=8, epochs=3, seed=2)
    store = sisa_train(ds, n_shards=2, n_slices=3, cfg=cfg, hidden_units=8)
    for s in range(2):
        for r, model in enumerate(sisa_oracle(ds, store, s, store.alive)):
            assert models_equal(store.checkpoints[s][r], model), (s, r)

    # one row from the middle slice of shard 0 and one from slice 0 of shard 1,
    # exercising both the checkpoint-rollback and the fresh-init paths
    targets = [int(store.slice_rows[0][1][0]), int(store.slice_rows[1][0][0])]
    after = sisa_forget(store, ds, ForgetRequest(tuple(targets)))
    assert not after.alive[targets].any()
    for s in range(2):
        for r, model in enumerate(sisa_oracle(ds, store, s, after.alive)):
            assert models_equal(after.checkpoints[s][r], model), (s, r)


def test_sisa_forget_rolls_back_to_earliest_hit_slice():
    """One request hitting shard 0 in slices 2 and 1, and shard 1 in slice 3."""
    ds = make_dataset(60, seed=5)
    cfg = TrainConfig(batch_size=8, epochs=4, seed=1)
    store = sisa_train(ds, n_shards=3, n_slices=4, cfg=cfg, hidden_units=8)
    targets = (
        int(store.slice_rows[0][2][0]),
        int(store.slice_rows[0][1][1]),
        int(store.slice_rows[1][3][0]),
    )
    after = sisa_forget(store, ds, ForgetRequest(targets))

    assert after.checkpoints[2] is store.checkpoints[2]
    for s, first in ((0, 1), (1, 3)):
        oracle = sisa_oracle(ds, store, s, after.alive)
        for r in range(store.n_slices):
            if r < first:
                assert after.checkpoints[s][r] is store.checkpoints[s][r], (s, r)
            else:
                assert after.checkpoints[s][r] is not store.checkpoints[s][r], (s, r)
            assert models_equal(after.checkpoints[s][r], oracle[r]), (s, r)


def model_bytes(model):
    return b"".join(a.tobytes() for a in model.weights + model.biases)


def store_bytes(store):
    return [[model_bytes(m) for m in shard] for shard in store.checkpoints]


@pytest.mark.parametrize(
    "cpus, blas, jobs, workers",
    [
        (1, {}, 5, 1),
        (4, {}, 5, 1),
        (4, {"OPENBLAS_NUM_THREADS": "1"}, 5, 4),
        (4, {"OPENBLAS_NUM_THREADS": "1"}, 3, 3),
        (4, {"OMP_NUM_THREADS": "2"}, 5, 2),
        (4, {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 5, 2),
        (4, {"OPENBLAS_NUM_THREADS": "abc", "GOTO_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 5, 4),
        (4, {"OPENBLAS_NUM_THREADS": "8"}, 5, 1),
    ],
)
def test_shard_workers_leave_cpus_to_blas(monkeypatch, cpus, blas, jobs, workers):
    """Shard processes times BLAS threads never exceed the usable CPUs; an
    unset BLAS count means one BLAS thread per CPU."""
    pin_cpus(monkeypatch, cpus, **blas)
    assert unlearn._shard_workers(jobs) == workers


@pytest.mark.parametrize("cpus", [1, 4])
def test_sisa_bits_independent_of_cpu_count(monkeypatch, cpus):
    """Shards replay in one process per usable CPU (BLAS on one thread); the
    checkpoints are the bytes of the sequential from-scratch oracle either
    way, and no worker process is left once the forget returns."""
    pin_cpus(monkeypatch, cpus, OPENBLAS_NUM_THREADS="1")
    ds = make_dataset(70, seed=8)
    cfg = TrainConfig(batch_size=8, epochs=3, seed=3)
    store = sisa_train(ds, n_shards=3, n_slices=3, cfg=cfg, hidden_units=8)
    # rows in shards 0 and 2, from different slices
    targets = (int(store.slice_rows[0][2][0]), int(store.slice_rows[2][0][1]))
    after = sisa_forget(store, ds, ForgetRequest(targets))

    for trained, alive in ((store, store.alive), (after, after.alive)):
        oracle = [sisa_oracle(ds, store, s, alive) for s in range(3)]
        assert store_bytes(trained) == [[model_bytes(m) for m in shard] for shard in oracle]
    assert after.checkpoints[1] is store.checkpoints[1]
    assert multiprocessing.active_children() == []


def test_one_worker_replays_in_process(monkeypatch):
    """With one worker, shards replay in this process: no ProcessPoolExecutor
    is built, the checkpoints are those of the process pool, and no replay
    input stays held once the replay returns."""
    import concurrent.futures

    ds = make_dataset(70, seed=8)
    cfg = TrainConfig(batch_size=8, epochs=3, seed=3)

    def train_and_forget():
        store = sisa_train(ds, n_shards=3, n_slices=3, cfg=cfg, hidden_units=8)
        targets = (int(store.slice_rows[0][2][0]), int(store.slice_rows[2][0][1]))
        return store, sisa_forget(store, ds, ForgetRequest(targets))

    pin_cpus(monkeypatch, 4, OPENBLAS_NUM_THREADS="1")
    pooled = train_and_forget()
    pin_cpus(monkeypatch, 1, OPENBLAS_NUM_THREADS="1")
    monkeypatch.setattr(
        concurrent.futures, "ProcessPoolExecutor", lambda *a, **kw: pytest.fail("pool built")
    )
    in_process = train_and_forget()
    assert [store_bytes(s) for s in in_process] == [store_bytes(s) for s in pooled]
    assert unlearn._replay_inputs is None


@pytest.mark.parametrize("cpus", [1, 4])
def test_on_final_gets_every_final_model_once_the_table_is_freed(monkeypatch, cpus):
    """on_final runs once per shard with the final model the returned store
    holds, an untouched shard's included, and only after this process has
    dropped the encoded training table, which the workers hold.  In this
    process it runs after every shard has replayed, in shard order."""
    pin_cpus(monkeypatch, cpus, OPENBLAS_NUM_THREADS="1")
    ds = make_dataset(70, seed=8)
    cfg = TrainConfig(batch_size=8, epochs=3, seed=3)
    encoded, events = [], []
    real_encode, real_job = unlearn.encode, unlearn._replay_job

    def recorded_encode(table, rows=None):
        em = real_encode(table, rows=rows)
        encoded.extend((weakref.ref(em), weakref.ref(em.features)))
        return em

    def logged_job(job):
        events.append(("replay", job[0]))
        return real_job(job)

    def on_final(s, model):
        assert all(ref() is None for ref in encoded)
        events.append(("final", s, model))

    monkeypatch.setattr(unlearn, "encode", recorded_encode)
    if cpus == 1:  # a pool pickles its job function by name
        monkeypatch.setattr(unlearn, "_replay_job", logged_job)
    store = sisa_train(ds, n_shards=3, n_slices=3, cfg=cfg, hidden_units=8, on_final=on_final)
    trained, events[:] = events[:], []
    # shards 0 and 2 replay, shard 1 is untouched
    targets = (int(store.slice_rows[0][2][0]), int(store.slice_rows[2][0][1]))
    after = sisa_forget(store, ds, ForgetRequest(targets), on_final=on_final)

    for fitted, log, replayed in ((store, trained, [0, 1, 2]), (after, events, [0, 2])):
        finals = [e for e in log if e[0] == "final"]
        assert sorted(s for _, s, _ in finals) == [0, 1, 2]
        assert all(model is fitted.checkpoints[s][-1] for _, s, model in finals)
        if cpus == 1:
            assert log == [("replay", s) for s in replayed] + finals
            assert [s for _, s, _ in finals] == [0, 1, 2]
    assert after.checkpoints[1][-1] is store.checkpoints[1][-1]
    assert len(encoded) == 4 and unlearn._replay_inputs is None


_replay_job = unlearn._replay_job


def marking_replay_job(job):
    """unlearn._replay_job, which then marks shard job[0] done with a file in
    $REPLAY_MARKS; module-level, so that a pool can pickle it by name."""
    replayed = _replay_job(job)
    (Path(os.environ["REPLAY_MARKS"]) / str(job[0])).touch()
    return replayed


def test_on_final_waits_for_a_worker_without_shards(tmp_path, monkeypatch):
    """Five shards on two workers: on_final first runs once a worker has no
    shard left to take, so at least four shards have finished by then."""
    pin_cpus(monkeypatch, 2, OPENBLAS_NUM_THREADS="1")
    monkeypatch.setenv("REPLAY_MARKS", str(tmp_path))
    monkeypatch.setattr(unlearn, "_replay_job", marking_replay_job)
    finished = []

    def on_final(s, model):
        finished.append(len(list(tmp_path.iterdir())))

    cfg = TrainConfig(batch_size=8, epochs=6, seed=3)
    sisa_train(make_dataset(300, seed=8), 5, 2, cfg, hidden_units=8, on_final=on_final)
    assert len(finished) == 5 and finished[0] >= 4, finished


@pytest.mark.parametrize("cpus", [1, 4])
def test_replayed_checkpoints_read_only_float32(monkeypatch, cpus):
    """Every checkpoint a worker process replays comes back with read-only
    float32 parameters; checkpoints before a shard's first hit slice stay
    the same objects."""
    pin_cpus(monkeypatch, cpus, OPENBLAS_NUM_THREADS="1")
    ds = make_dataset(60, seed=4)
    cfg = TrainConfig(batch_size=8, epochs=3, seed=2)
    store = sisa_train(ds, n_shards=2, n_slices=3, cfg=cfg, hidden_units=8)
    targets = (int(store.slice_rows[0][1][0]), int(store.slice_rows[1][2][0]))
    after = sisa_forget(store, ds, ForgetRequest(targets))

    replayed = [m for shard in store.checkpoints for m in shard]
    replayed += after.checkpoints[0][1:] + after.checkpoints[1][2:]
    for model in replayed:
        for a in model.weights + model.biases:
            assert a.dtype == np.float32 and not a.flags.writeable
    for s, first in ((0, 1), (1, 2)):
        for r in range(store.n_slices):
            assert (after.checkpoints[s][r] is store.checkpoints[s][r]) == (r < first), (s, r)


@pytest.mark.parametrize("cpus", [1, 4])
def test_sisa_forget_divergence_propagates(monkeypatch, cpus):
    """A shard whose replay diverges fails the whole forget; the input store
    is left as it was and no worker process is left."""
    pin_cpus(monkeypatch, cpus, OPENBLAS_NUM_THREADS="1")
    ds = make_dataset(70, seed=8)
    cfg = TrainConfig(batch_size=8, epochs=2, seed=3)
    store = sisa_train(ds, n_shards=3, n_slices=2, cfg=cfg, hidden_units=8)
    before = store_bytes(store)
    checkpoints, alive = store.checkpoints, store.alive.copy()
    diverging = seeds.derive(cfg.seed, seeds.SISA_SLICE, 1, 1)
    train = mlp.train

    def train_diverging_in_shard_1(model, data, cfg, rows=None):
        if cfg.seed == diverging:
            raise TrainingDiverged("non-finite loss at epoch 0, batch 0")
        return train(model, data, cfg, rows=rows)

    monkeypatch.setattr(mlp, "train", train_diverging_in_shard_1)
    # every shard is hit in slice 0, so all three replay and shard 1 fails
    targets = tuple(int(store.slice_rows[s][0][0]) for s in range(3))
    with pytest.raises(TrainingDiverged, match="non-finite"):
        sisa_forget(store, ds, ForgetRequest(targets))
    assert multiprocessing.active_children() == []
    assert store.checkpoints is checkpoints
    assert store_bytes(store) == before
    assert np.array_equal(store.alive, alive)


def test_sisa_forget_leaves_other_shards_untouched():
    ds = make_dataset(80, seed=6)
    cfg = TrainConfig(batch_size=16, epochs=2, seed=0)
    store = sisa_train(ds, n_shards=4, n_slices=2, cfg=cfg, hidden_units=8)
    target = int(store.slice_rows[2][1][0])
    after = sisa_forget(store, ds, ForgetRequest((target,)))
    for s in range(4):
        if s == 2:
            continue
        # identical objects, not merely equal values
        assert after.checkpoints[s] is store.checkpoints[s]


def test_sisa_double_forget_rejected():
    ds = make_dataset(60, seed=1)
    cfg = TrainConfig(batch_size=16, epochs=2, seed=0)
    store = sisa_train(ds, 2, 2, cfg, hidden_units=8)
    once = sisa_forget(store, ds, ForgetRequest((5,)))
    assert np.flatnonzero(~once.alive).tolist() == [5]
    with pytest.raises(DataError, match="already forgotten"):
        sisa_forget(once, ds, ForgetRequest((5,)))
    with pytest.raises(DataError, match="out of range"):
        sisa_forget(store, ds, ForgetRequest((1000,)))


def test_shard_of_row():
    """row_slices names the (shard, slice) that slice_rows deals each row to."""
    ds = make_dataset(40, seed=3)
    store = sisa_train(ds, 2, 2, TrainConfig(epochs=1, seed=0), hidden_units=4)
    assert store.row_slices.shape == (40, 2)
    assert tuple(store.row_slices[store.slice_rows[1][0][2]]) == (1, 0)
    for s, shard in enumerate(store.slice_rows):
        for r, rows in enumerate(shard):
            assert (store.row_slices[rows] == (s, r)).all()
    assert sorted(np.concatenate([np.concatenate(shard) for shard in store.slice_rows])) == list(range(40))


# ---------------------------------------------------------------------------
# persistence

STATE_FILES = {"manifest.json", "base.model", "deployed.model"}


@pytest.mark.parametrize(
    "spec",
    [PrivacySpec.k_anonymity(3), PrivacySpec.dp(1.5, seed=2)],
    ids=["k_anonymity", "dp"],
)
def test_eupg_state_round_trip(tmp_path, small_dataset, spec):
    state = prepared(small_dataset, spec)
    request = ForgetRequest.from_ratio(small_dataset.n_rows, 0.1, seed=5)
    state = eupg_forget(state, small_dataset, request)

    save_eupg_state(state, tmp_path / "state")
    back = load_eupg_state(tmp_path / "state")

    assert {f.name for f in (tmp_path / "state").iterdir()} == STATE_FILES
    assert models_equal(back.base_model, state.base_model)
    assert models_equal(back.deployed_model, state.deployed_model)
    assert back.spec == state.spec
    assert back.schema == state.schema == small_dataset.schema
    assert back.protected_data is None
    # the saved spec re-derives the protected view the base was trained on
    again, _ = protect(small_dataset, back.spec)
    assert again.rows.tobytes() == state.protected_data.rows.tobytes()
    assert again.provenance == state.protected_data.provenance
    assert back.data_sha256 == state.data_sha256 == unlearn._data_checksum(small_dataset)
    assert back.finetune_epochs == state.finetune_epochs
    assert back.cfg == state.cfg
    assert back.dp_ledger == state.dp_ledger
    assert (back.dp_ledger is None) == (spec.method == "k_anonymity")

    # the reloaded state serves requests identically to the original
    r2 = ForgetRequest.from_ratio(small_dataset.n_rows, 0.15, seed=9)
    a = eupg_forget(state, small_dataset, r2)
    b = eupg_forget(back, small_dataset, r2)
    assert models_equal(a.deployed_model, b.deployed_model)


def test_eupg_state_keeps_mechanisms(tmp_path, small_dataset):
    utility = np.array([[1.0, 0.5, 0.0], [0.5, 1.0, 0.5], [0.0, 0.5, 1.0]])
    mechanisms = MechanismSpec(
        categorical={"cat1": CategoricalMechanism(utility, delta_u=0.75)},
    )
    state = prepared(small_dataset, PrivacySpec.dp(2.0, seed=3, mechanisms=mechanisms))
    save_eupg_state(state, tmp_path / "state")
    back = load_eupg_state(tmp_path / "state").spec

    assert (back.method, back.epsilon, back.seed) == ("dp", 2.0, 3)
    assert back.mechanisms.categorical.keys() == {"cat1"}
    mech = back.mechanisms.categorical["cat1"]
    assert mech.delta_u == 0.75
    assert mech.utility.dtype == np.float64
    assert mech.utility.tobytes() == utility.tobytes()
    # the reloaded mechanisms reproduce the protected table
    again, _ = protect(small_dataset, back)
    assert again.rows.tobytes() == state.protected_data.rows.tobytes()


def assert_old_eupg_layout_refused(state_dir, version, manifest):
    """Write manifest into state_dir as a format-`version` one; loading must
    refuse it, naming the directory and the version."""
    manifest["format_version"] = version
    (state_dir / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(DataError) as err:
        load_eupg_state(state_dir)
    message = str(err.value)
    assert str(state_dir) in message
    assert f"version {version}" in message
    assert "privforget run" in message


def test_eupg_state_v1_directory_refused(tmp_path, small_dataset):
    state_dir = tmp_path / "state"
    save_eupg_state(prepared(small_dataset), state_dir)
    # the version-1 layout: protected rows as CSV, no row checksum
    write_csv(small_dataset, state_dir / "protected.csv")
    manifest = json.loads((state_dir / "manifest.json").read_text())
    assert_old_eupg_layout_refused(state_dir, 1, manifest)


def test_eupg_state_v2_directory_refused(tmp_path, small_dataset):
    state_dir = tmp_path / "state"
    state = prepared(small_dataset)
    save_eupg_state(state, state_dir)
    # the version-2 layout: protected rows as protected.npy, with their shape,
    # checksum and provenance in the manifest
    buf = io.BytesIO()
    np.save(buf, np.ascontiguousarray(state.protected_data.rows, dtype="<f8"), allow_pickle=False)
    (state_dir / "protected.npy").write_bytes(buf.getvalue())
    manifest = json.loads((state_dir / "manifest.json").read_text())
    manifest["protected_rows"] = {
        "shape": list(state.protected_data.rows.shape),
        "sha256": hashlib.sha256(buf.getvalue()).hexdigest(),
    }
    manifest["protected_provenance"] = {"kind": "k_anonymized", "param": 3}
    assert_old_eupg_layout_refused(state_dir, 2, manifest)


def test_shard_store_round_trip(tmp_path):
    ds = make_dataset(60, seed=8)
    cfg = TrainConfig(batch_size=16, epochs=2, seed=3)
    store = sisa_forget(
        sisa_train(ds, 2, 2, cfg, hidden_units=8), ds, ForgetRequest((4, 17))
    )
    save_shard_store(store, tmp_path / "sisa")
    back = load_shard_store(tmp_path / "sisa")

    assert np.array_equal(back.alive, store.alive)
    assert np.flatnonzero(~back.alive).tolist() == [4, 17]
    assert back.schema == ds.schema and back.data_sha256 == store.data_sha256
    # the store holds models and checksums, not the encoded training table
    assert not any(isinstance(value, EncodedMatrix) for value in vars(back).values())
    for s in range(2):
        for r in range(2):
            assert models_equal(back.checkpoints[s][r], store.checkpoints[s][r])
            assert np.array_equal(back.slice_rows[s][r], store.slice_rows[s][r])

    # forgetting after reload equals forgetting before saving
    target = int(store.slice_rows[0][1][1])
    a = sisa_forget(store, ds, ForgetRequest((target,)))
    b = sisa_forget(back, ds, ForgetRequest((target,)))
    for m1, m2 in zip(a.final_models(), b.final_models()):
        assert models_equal(m1, m2)


def test_shard_store_v1_directory_refused(tmp_path):
    """A version-1 store, whose manifest lists each slice's rows, is refused."""
    ds = make_dataset(40, seed=0)
    store = sisa_train(ds, 2, 2, TrainConfig(epochs=1, seed=0), hidden_units=4)
    save_shard_store(store, tmp_path / "sisa")
    manifest = json.loads((tmp_path / "sisa" / "manifest.json").read_text())
    manifest["format_version"] = 1
    del manifest["deal_sha256"]
    manifest["slice_rows"] = [[rows.tolist() for rows in shard] for shard in store.slice_rows]
    (tmp_path / "sisa" / "manifest.json").write_text(json.dumps(manifest))

    with pytest.raises(DataError) as err:
        load_shard_store(tmp_path / "sisa")
    message = str(err.value)
    assert str(tmp_path / "sisa") in message
    assert "version 1" in message and "privforget run" in message


@pytest.mark.parametrize("damage", ["manifest", "deal"])
def test_shard_store_deal_mismatch_refused(tmp_path, monkeypatch, damage):
    """A store is refused when its rows re-deal differently from what its
    checkpoints saw: an altered deal_sha256, or a deal that moved (as a
    numpy permutation change would move it)."""
    ds = make_dataset(40, seed=0)
    store = sisa_train(ds, 2, 2, TrainConfig(epochs=1, seed=0), hidden_units=4)
    save_shard_store(store, tmp_path / "sisa")
    if damage == "manifest":
        manifest = json.loads((tmp_path / "sisa" / "manifest.json").read_text())
        manifest["deal_sha256"] = hashlib.sha256(b"another deal").hexdigest()
        (tmp_path / "sisa" / "manifest.json").write_text(json.dumps(manifest))
    else:
        deal = unlearn._deal
        monkeypatch.setattr(unlearn, "_deal", lambda n, *args: deal(n, *args)[::-1])

    with pytest.raises(DataError) as err:
        load_shard_store(tmp_path / "sisa")
    message = str(err.value)
    assert str(tmp_path / "sisa") in message and "deal_sha256" in message


@pytest.mark.parametrize("kind", ["eupg", "sisa"])
def test_shard_store_rejects_wrong_dataset(tmp_path, monkeypatch, kind):
    """Either state kind, reloaded, refuses a table of the training schema
    with one changed cell, and a retain subset of the training table,
    before it trains anything."""
    ds = make_dataset(60, seed=8)
    if kind == "eupg":
        fitted = prepared(ds)
    else:
        fitted = sisa_train(ds, 2, 2, TrainConfig(epochs=1, seed=0), hidden_units=4)
    save_state(fitted, tmp_path / kind)

    rows = np.array(ds.rows)
    rows[0, 0] += 1.0
    tampered = TabularDataset(ds.schema, rows, Provenance.raw())
    back = load_state(tmp_path / kind)
    forget = eupg_forget if kind == "eupg" else sisa_forget
    monkeypatch.setattr(unlearn, "_replay_shards", lambda *args: pytest.fail("replayed"))
    monkeypatch.setattr(mlp, "finetune", lambda *args: pytest.fail("fine-tuned"))
    for table in (tampered, split_forget(ds, ForgetRequest((1,)))[0]):
        with pytest.raises(DataError, match="does not match the one this store was trained on"):
            forget(back, table, ForgetRequest((1,)))


def test_shard_store_v2_directory_refused(tmp_path):
    """A version-2 store, whose manifest holds no schema and no row count,
    is refused."""
    ds = make_dataset(40, seed=0)
    save_shard_store(sisa_train(ds, 2, 2, TrainConfig(epochs=1, seed=0), hidden_units=4), tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest["format_version"] = 2
    del manifest["schema"], manifest["n_rows"]
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    for load in (load_shard_store, load_state):
        with pytest.raises(DataError, match="version 2 is not supported.*privforget run"):
            load(tmp_path)


@pytest.mark.parametrize(
    "kind, version",
    [("eupg", 3), ("sisa", 3), ("original", 1), ("eupg", 5), ("sisa", 5), ("eupg", 6), ("sisa", 6),
     ("eupg", 7), ("sisa", 7)],
)
def test_previous_format_version_refused(tmp_path, small_dataset, kind, version):
    """A state written before every manifest recorded its clamp flag (and,
    for EUPG, while its ledger carried two derived fields), one whose
    training settings held Adam's constants (format 5), one holding the
    clamp flag and a shuffle setting (format 6), one keeping a second
    forget log and, for EUPG, no sha256 of its training rows (format 7),
    or an original model of the retired kind original_model, is refused,
    naming the directory and the version."""
    fitted = {
        "eupg": lambda: prepared(small_dataset, PrivacySpec.dp(1.0, seed=2)),
        "sisa": lambda: sisa_train(small_dataset, 2, 2, CFG, hidden_units=8),
        "original": lambda: sisa_train(small_dataset, 1, 1, CFG, hidden_units=8),
    }[kind]()
    save_state(fitted, tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest["format_version"] = version
    if version in (5, 6):
        manifest.update(clamp_out_of_range=False)
        manifest["cfg"].update(shuffle=True)
    if version == 5:
        manifest["cfg"].update(beta1=0.9, beta2=0.999, adam_eps=1e-8)
    if kind == "eupg" and version == 3:
        manifest["dp_ledger"] = fitted.dp_ledger.to_json_dict()
    if version == 7:
        if kind == "eupg":
            del manifest["data_sha256"]
        manifest["audit_log" if kind == "eupg" else "removed_log"] = []
    if kind == "original":
        manifest = {"schema": manifest["schema"], "format_version": version, "kind": "original_model"}
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(DataError, match=f"version {version} is not supported.*privforget run") as err:
        load_state(tmp_path)
    assert str(err.value).startswith(f"{tmp_path}: ")


# the manifest maps whose keys are data (an attribute name), not fields
MANIFEST_MAPS = {"categorical"}


def manifest_nodes(value, path=()):
    """(path, value) of every value in a manifest, the manifest itself first;
    a path holds object keys and list indices."""
    yield path, value
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield from manifest_nodes(item, path + (key,))


def key_path(path) -> str:
    """How a load error names the value at path: its record field names
    joined by dots, without list indices or map keys."""
    names = [k for i, k in enumerate(path) if isinstance(k, str) and not (i and path[i - 1] in MANIFEST_MAPS)]
    return ".".join(names)


@pytest.fixture(scope="module")
def saved_states(tmp_path_factory):
    """kind -> (directory, manifest) of one saved state of each kind, each
    holding every kind of record: an eupg_dp state with utility matrices,
    after a forget, and a SISA store with forgotten rows."""
    ds = make_dataset(60, seed=4)
    mechanisms = MechanismSpec(
        categorical={"cat1": CategoricalMechanism(np.eye(3) + 0.25, delta_u=0.5)},
    )
    eupg = prepared(ds, PrivacySpec.dp(2.0, seed=1, mechanisms=mechanisms))
    fitted = {
        "eupg": eupg_forget(eupg, ds, ForgetRequest.from_ratio(ds.n_rows, 0.1, seed=3)),
        "sisa": sisa_forget(sisa_train(ds, 2, 2, CFG, hidden_units=8), ds, ForgetRequest((4, 17))),
    }
    states = {}
    for kind, obj in fitted.items():
        state_dir = tmp_path_factory.mktemp(kind)
        save_state(obj, state_dir)
        states[kind] = state_dir, json.loads((state_dir / "manifest.json").read_text())
    return states


def manifest_edit(data, manifest):
    """One edit of a manifest drawn from data: (edited manifest, key path of
    what the edit changed, what the error must say there).  kind and
    format_version, whose check comes first, are left alone."""
    edited = json.loads(json.dumps(manifest))
    nodes = [(path, value) for path, value in manifest_nodes(edited)
             if path[:1] not in (("kind",), ("format_version",))]
    records = [(path, value) for path, value in nodes
               if isinstance(value, dict) and not (path and path[-1] in MANIFEST_MAPS)]
    ints = [(path, value) for path, value in nodes if type(value) is int]
    edit = data.draw(st.sampled_from(["delete", "unknown", "wrong_type"] + ["negative"] * bool(ints)))
    if edit in ("delete", "unknown"):
        path, record = data.draw(st.sampled_from([r for r in records if r[1]]))
        names = [name for name in record if path or name not in ("kind", "format_version")]
        name = data.draw(st.sampled_from(names))
        if edit == "delete":
            del record[name]
            return edited, path, f"lacks key {name!r}"
        record["zz_" + name] = record[name]
        return edited, path, f"has unknown key 'zz_{name}'"
    if edit == "negative":
        path, value = data.draw(st.sampled_from(ints))
        wrong = -1 - value
    else:
        path, value = data.draw(st.sampled_from(nodes[1:]))
        # a string for a number, a number for a string, an object for a list or null
        wrong = {dict: [], list: {}, str: 7, type(None): {}}.get(type(value), "7")
    parent = edited
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = wrong
    return edited, path, ""


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(["eupg", "sisa"]), data=st.data())
def test_every_manifest_edit_refused_naming_its_key(saved_states, kind, data):
    """Deleting a record's key, adding an unknown one, a JSON value of the
    wrong type in any one place, or a negative integer: load_state raises
    DataError naming the state directory and the key path."""
    state_dir, manifest = saved_states[kind]
    edited, path, problem = manifest_edit(data, manifest)
    (state_dir / "manifest.json").write_text(json.dumps(edited))
    with pytest.raises(DataError) as err:
        load_state(state_dir)
    where = f"manifest key {key_path(path)!r}" if key_path(path) else "manifest.json"
    assert str(err.value).startswith(f"{state_dir}: {where}{' ' if problem else ''}{problem}"), (
        path, str(err.value))


def test_load_state_reads_every_kind_from_its_directory(tmp_path, small_dataset):
    """save_state then load_state gives back each method's fitted object,
    holding the training schema, and predict scores what each serves; the
    original baseline is a store of one shard and one slice."""
    ds = small_dataset
    em = encode(ds)
    fitted = {
        "original": sisa_train(ds, 1, 1, CFG, hidden_units=8),
        "eupg": prepared(ds),
        "sisa": sisa_train(ds, 2, 2, CFG, hidden_units=8),
    }
    for name, obj in fitted.items():
        save_state(obj, tmp_path / name)
        back = load_state(tmp_path / name)
        assert type(back) is type(obj) and back.schema == ds.schema, name
        assert predict(back, em.features).tobytes() == predict(obj, em.features).tobytes(), name
    assert {f.name for f in (tmp_path / "original").iterdir()} == {"manifest.json", "shard0_slice0.model"}
    assert predict(fitted["eupg"], em.features).tobytes() == (
        mlp.forward(fitted["eupg"].deployed_model, em.features).tobytes()
    )
    shard_probs = [mlp.forward(m, em.features) for m in fitted["sisa"].final_models()]
    assert predict(fitted["sisa"], em.features).tobytes() == np.mean(shard_probs, axis=0).tobytes()

    (tmp_path / "original" / "manifest.json").write_text(json.dumps({"kind": "notes"}))
    with pytest.raises(DataError, match="not a saved state"):
        load_state(tmp_path / "original")



def test_data_checksum_hashes_in_place():
    """A state's data checksum reads the table's raw rows where they lie:
    under 1 MiB allocated for 11 MB of rows, and the digest of their bytes."""
    ds = make_dataset(90_000, seed=0, n_numeric=13)
    assert ds.rows.nbytes >= 10_000_000
    tracemalloc.start()
    try:
        digest = unlearn._data_checksum(ds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert digest == hashlib.sha256(ds.rows.tobytes()).hexdigest()


def test_persistence_kind_checks(tmp_path, small_dataset):
    state = prepared(small_dataset)
    save_eupg_state(state, tmp_path / "state")
    with pytest.raises(DataError, match="not a saved shard store"):
        load_shard_store(tmp_path / "state")

    ds = make_dataset(40, seed=0)
    store = sisa_train(ds, 2, 2, TrainConfig(epochs=1, seed=0), hidden_units=4)
    save_shard_store(store, tmp_path / "sisa")
    with pytest.raises(DataError, match="not a saved unlearning state"):
        load_eupg_state(tmp_path / "sisa")

    # a manifest that is valid JSON but not an object is refused the same way
    (tmp_path / "sisa" / "manifest.json").write_text("[]")
    with pytest.raises(DataError, match="not a saved shard store"):
        load_shard_store(tmp_path / "sisa")
