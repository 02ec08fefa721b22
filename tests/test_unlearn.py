import hashlib
import io
import json

import numpy as np
import pytest

from privforget import mlp
from privforget.data import (
    DataError,
    ForgetRequest,
    Provenance,
    encode,
    split_forget,
    write_csv,
)
from privforget.dpanon import CategoricalMechanism, MechanismSpec
from privforget.mlp import TrainConfig, models_equal, utility_from_probs
from privforget.unlearn import (
    EupgState,
    PrivacySpec,
    ShardStore,
    _deal,
    _derive_seed,
    _train_shard_slices,
    eupg_forget,
    eupg_prepare,
    load_eupg_state,
    load_shard_store,
    protect,
    retrain_scratch,
    save_eupg_state,
    save_shard_store,
    sisa_forget,
    sisa_predict,
    sisa_train,
)

from conftest import make_dataset

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
    assert PrivacySpec.k_anonymity(10).tag() == "k=10"
    assert PrivacySpec.dp(0.5).tag() == "eps=0.5"


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
    assert state.base_model.provenance == "protected(k=3)"
    assert state.deployed_model.provenance == "finetuned(protected(k=3),epochs=2)"
    assert set(state.timings) == {"anonymize", "train", "finetune"}
    assert state.dp_ledger is None
    assert state.protected_data.provenance.kind == "k_anonymized"

    dp_state = prepared(small_dataset, PrivacySpec.dp(2.0, seed=1))
    assert dp_state.dp_ledger is not None
    assert dp_state.base_model.provenance == "protected(eps=2)"


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
    # the base never changes; only the deployed model is rebuilt
    assert models_equal(after.base_model, state.base_model)
    assert not models_equal(after.deployed_model, state.deployed_model)
    assert len(after.audit_log) == 1
    event = after.audit_log[0]
    assert event.n_forgotten == len(request.forget_indices)
    assert event.epochs == 2
    assert event.ratio == 0.1 and event.request_seed == 7
    assert "forget" in after.timings
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
    mutated = small_dataset.replace_rows(rows, Provenance.raw())

    other = eupg_forget(state, mutated, request)
    assert models_equal(baseline.deployed_model, other.deployed_model)


def test_eupg_forget_schema_mismatch(small_dataset):
    state = prepared(small_dataset)
    other = make_dataset(50, seed=9, n_numeric=2)
    with pytest.raises(DataError, match="schema"):
        eupg_forget(state, other, ForgetRequest((0,)))


def test_retrain_scratch(small_dataset):
    request = ForgetRequest.from_ratio(small_dataset.n_rows, 0.1, seed=0)
    retain, _ = split_forget(small_dataset, request)
    model = retrain_scratch(retain, CFG, hidden_units=8)
    assert model.provenance == "original"
    assert model.n_inputs == encode(retain).width
    again = retrain_scratch(retain, CFG, hidden_units=8)
    assert models_equal(model, again)


# ---------------------------------------------------------------------------
# SISA

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
    assert [m.provenance for m in finals] == [f"sisa_shard_{s}" for s in range(3)]
    em = encode(ds)
    probs = sisa_predict(store, em.features)
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

    # one row from the middle slice of shard 0 and one from slice 0 of shard 1,
    # exercising both the checkpoint-rollback and the fresh-init paths
    targets = [int(store.slice_rows[0][1][0]), int(store.slice_rows[1][0][0])]
    after = sisa_forget(store, ForgetRequest(tuple(targets)))
    assert not after.alive[targets].any()

    from privforget import seeds

    for s in range(2):
        fresh = mlp.init(
            store.layer_dims,
            _derive_seed(cfg.seed, seeds.SISA_SHARD_INIT, s),
            provenance=f"sisa_shard_{s}",
        )
        oracle = _train_shard_slices(
            store.data,
            store.slice_rows[s],
            after.alive,
            cfg,
            store.per_slice_epochs,
            cfg.seed,
            s,
            0,
            fresh,
            store.n_slices,
        )
        for r in range(store.n_slices):
            assert models_equal(after.checkpoints[s][r], oracle[r]), (s, r)


def test_sisa_forget_leaves_other_shards_untouched():
    ds = make_dataset(80, seed=6)
    cfg = TrainConfig(batch_size=16, epochs=2, seed=0)
    store = sisa_train(ds, n_shards=4, n_slices=2, cfg=cfg, hidden_units=8)
    target = int(store.slice_rows[2][1][0])
    after = sisa_forget(store, ForgetRequest((target,)))
    for s in range(4):
        if s == 2:
            continue
        # identical objects, not merely equal values
        assert after.checkpoints[s] is store.checkpoints[s]


def test_sisa_double_forget_rejected():
    ds = make_dataset(60, seed=1)
    cfg = TrainConfig(batch_size=16, epochs=2, seed=0)
    store = sisa_train(ds, 2, 2, cfg, hidden_units=8)
    once = sisa_forget(store, ForgetRequest((5,)))
    assert once.removed_log == (5,)
    with pytest.raises(DataError, match="already forgotten"):
        sisa_forget(once, ForgetRequest((5,)))
    with pytest.raises(DataError, match="out of range"):
        sisa_forget(store, ForgetRequest((1000,)))


def test_shard_of_row():
    ds = make_dataset(40, seed=3)
    store = sisa_train(ds, 2, 2, TrainConfig(epochs=1, seed=0), hidden_units=4)
    s, r = store.shard_of_row(int(store.slice_rows[1][0][2]))
    assert (s, r) == (1, 0)
    with pytest.raises(DataError, match="not assigned"):
        store.shard_of_row(10**6)


# ---------------------------------------------------------------------------
# persistence

STATE_FILES = {"manifest.json", "base.model", "deployed.model", "protected.npy"}


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
    assert back.protected_data.rows.tobytes() == state.protected_data.rows.tobytes()
    assert back.protected_data.schema == state.protected_data.schema
    assert back.protected_data.provenance == state.protected_data.provenance
    assert back.audit_log == state.audit_log
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
        numeric_sensitivity={"num0": 2.5},
    )
    state = prepared(small_dataset, PrivacySpec.dp(2.0, seed=3, mechanisms=mechanisms))
    save_eupg_state(state, tmp_path / "state")
    back = load_eupg_state(tmp_path / "state").spec

    assert (back.method, back.epsilon, back.seed) == ("dp", 2.0, 3)
    assert back.mechanisms.numeric_sensitivity == {"num0": 2.5}
    assert back.mechanisms.categorical.keys() == {"cat1"}
    mech = back.mechanisms.categorical["cat1"]
    assert mech.delta_u == 0.75
    assert mech.utility.dtype == np.float64
    assert mech.utility.tobytes() == utility.tobytes()
    # the reloaded mechanisms reproduce the protected table
    again, _ = protect(small_dataset, back)
    assert again.rows.tobytes() == state.protected_data.rows.tobytes()


def test_eupg_state_v1_directory_refused(tmp_path, small_dataset):
    state_dir = tmp_path / "state"
    save_eupg_state(prepared(small_dataset), state_dir)
    # the version-1 layout: protected rows as CSV, no row checksum
    manifest = json.loads((state_dir / "manifest.json").read_text())
    manifest["format_version"] = 1
    del manifest["protected_rows"]
    (state_dir / "manifest.json").write_text(json.dumps(manifest))
    (state_dir / "protected.npy").unlink()
    write_csv(small_dataset, state_dir / "protected.csv")

    with pytest.raises(DataError) as err:
        load_eupg_state(state_dir)
    message = str(err.value)
    assert str(state_dir) in message
    assert "version 1" in message
    assert "privforget run" in message


UNPICKLED: list = []


def _trip():
    UNPICKLED.append("unpickled")


class _Canary:
    """Unpickling this object calls _trip."""

    def __reduce__(self):
        return (_trip, ())


def _npy_bytes(array, allow_pickle=False) -> bytes:
    buf = io.BytesIO()
    np.save(buf, array, allow_pickle=allow_pickle)
    return buf.getvalue()


def _replace_protected_rows(state_dir, data: bytes, rehash: bool) -> None:
    """Overwrite protected.npy; with rehash the manifest checksum matches the new bytes."""
    (state_dir / "protected.npy").write_bytes(data)
    if rehash:
        manifest = json.loads((state_dir / "manifest.json").read_text())
        manifest["protected_rows"]["sha256"] = hashlib.sha256(data).hexdigest()
        (state_dir / "manifest.json").write_text(json.dumps(manifest))


@pytest.mark.parametrize(
    "corrupt,rehash",
    [
        (lambda data, rows: data[:-1] + bytes([data[-1] ^ 0x01]), False),
        (lambda data, rows: data[:-13], False),
        (lambda data, rows: data[:-13], True),
        (lambda data, rows: _npy_bytes(rows[:-1]), True),
        (lambda data, rows: _npy_bytes(rows[:, :-1]), True),
        (lambda data, rows: _npy_bytes(rows.ravel()), True),
        (lambda data, rows: _npy_bytes(rows.astype(np.float32)), True),
        (lambda data, rows: _npy_bytes(rows.astype(">f8")), True),
        (lambda data, rows: b"not an npy file", True),
    ],
    ids=[
        "flipped_byte",
        "truncated",
        "truncated_rehashed",
        "fewer_rows",
        "fewer_columns",
        "one_dimensional",
        "float32",
        "big_endian",
        "garbage",
    ],
)
def test_protected_rows_corruption_refused(tmp_path, small_dataset, corrupt, rehash):
    """Each damaged protected.npy is refused, whether or not the manifest
    checksum was updated to match it (rehash)."""
    state_dir = tmp_path / "state"
    state = prepared(small_dataset)
    save_eupg_state(state, state_dir)
    data = (state_dir / "protected.npy").read_bytes()
    _replace_protected_rows(state_dir, corrupt(data, np.array(state.protected_data.rows)), rehash)
    with pytest.raises(DataError, match="protected.npy"):
        load_eupg_state(state_dir)


@pytest.mark.parametrize("rehash", [False, True])
def test_protected_rows_object_array_not_unpickled(tmp_path, small_dataset, rehash):
    UNPICKLED.clear()
    state_dir = tmp_path / "state"
    save_eupg_state(prepared(small_dataset), state_dir)
    payload = np.empty((1, 1), dtype=object)
    payload[0, 0] = _Canary()
    data = _npy_bytes(payload, allow_pickle=True)
    # the payload is live: loading it with pickling allowed runs the canary
    np.load(io.BytesIO(data), allow_pickle=True)
    assert UNPICKLED == ["unpickled"]
    UNPICKLED.clear()

    _replace_protected_rows(state_dir, data, rehash)
    with pytest.raises(DataError, match="protected.npy"):
        load_eupg_state(state_dir)
    assert UNPICKLED == []


def test_shard_store_round_trip(tmp_path):
    ds = make_dataset(60, seed=8)
    cfg = TrainConfig(batch_size=16, epochs=2, seed=3)
    store = sisa_forget(
        sisa_train(ds, 2, 2, cfg, hidden_units=8), ForgetRequest((4, 17))
    )
    save_shard_store(store, tmp_path / "sisa")
    back = load_shard_store(tmp_path / "sisa", ds)

    assert np.array_equal(back.alive, store.alive)
    assert back.removed_log == (4, 17)
    for s in range(2):
        for r in range(2):
            assert models_equal(back.checkpoints[s][r], store.checkpoints[s][r])
            assert np.array_equal(back.slice_rows[s][r], store.slice_rows[s][r])

    # forgetting after reload equals forgetting before saving
    target = int(store.slice_rows[0][1][1])
    a = sisa_forget(store, ForgetRequest((target,)))
    b = sisa_forget(back, ForgetRequest((target,)))
    for m1, m2 in zip(a.final_models(), b.final_models()):
        assert models_equal(m1, m2)


def test_shard_store_rejects_wrong_dataset(tmp_path):
    ds = make_dataset(60, seed=8)
    store = sisa_train(ds, 2, 2, TrainConfig(epochs=1, seed=0), hidden_units=4)
    save_shard_store(store, tmp_path / "sisa")

    rows = np.array(ds.rows)
    rows[0, 0] += 1.0
    tampered = ds.replace_rows(rows, Provenance.raw())
    with pytest.raises(DataError, match="does not match"):
        load_shard_store(tmp_path / "sisa", tampered)


def test_persistence_kind_checks(tmp_path, small_dataset):
    state = prepared(small_dataset)
    save_eupg_state(state, tmp_path / "state")
    with pytest.raises(DataError, match="not a saved shard store"):
        load_shard_store(tmp_path / "state", small_dataset)

    ds = make_dataset(40, seed=0)
    store = sisa_train(ds, 2, 2, TrainConfig(epochs=1, seed=0), hidden_units=4)
    save_shard_store(store, tmp_path / "sisa")
    with pytest.raises(DataError, match="not a saved unlearning state"):
        load_eupg_state(tmp_path / "sisa")
