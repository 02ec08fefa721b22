import csv
import json
import multiprocessing
import shutil
import tracemalloc
from importlib.resources import files
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from privforget import mlp, unlearn
from privforget.attack import utility_from_probs
from privforget.cli import (
    DEFAULTS,
    _report_inputs,
    _Scores,
    _scored_report,
    _sweep_points,
    load_config,
    load_train,
    main,
)
from privforget.data import (
    DataError,
    ForgetRequest,
    TabularDataset,
    encode,
    load_csv,
    parse_schema_file,
    split_forget,
    write_csv,
)
from privforget.mlp import TrainConfig, load_model
from privforget.unlearn import load_eupg_state

from conftest import make_dataset, pin_cpus, write_old_model

REPORT_SCHEMA = json.loads(
    (files("privforget") / "schemas" / "report.schema.json").read_text()
)


def validate_report(path):
    jsonschema.validate(json.loads(Path(path).read_text()), REPORT_SCHEMA)


def write_inputs(tmp_path, n_train=120, n_test=80):
    """Train/test CSVs, a schema file, and a fast config dict."""
    train = make_dataset(n_train, seed=0)
    test = make_dataset(n_test, seed=1)
    write_csv(train, tmp_path / "train.csv")
    write_csv(test, tmp_path / "test.csv")
    lines = [f"{a.name},{a.kind},{a.role}" for a in train.schema]
    (tmp_path / "schema.txt").write_text("\n".join(lines) + "\n")
    return {
        "train_csv": str(tmp_path / "train.csv"),
        "test_csv": str(tmp_path / "test.csv"),
        "schema": str(tmp_path / "schema.txt"),
        "hidden_units": 8,
        "batch_size": 32,
        "epochs": 3,
        "finetune_epochs": 2,
        "n_shards": 2,
        "n_slices": 2,
        "forget_ratio": 0.1,
        "out": str(tmp_path / "out"),
    }


def write_config(tmp_path, conf, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(conf))
    return str(path)


def write_unseen_test_category(test_csv):
    """Give the third data row of test_csv a cat0 category that no training
    row has."""
    lines = test_csv.read_text().splitlines()
    cells = lines[3].split(",")
    cells[lines[0].split(",").index("cat0")] = "unseen"
    test_csv.write_text("\n".join(lines[:3] + [",".join(cells)] + lines[4:]) + "\n")


def test_run_original(tmp_path):
    conf = write_inputs(tmp_path)
    code = main(["run", "--config", write_config(tmp_path, conf)])
    assert code == 0
    report_path = tmp_path / "out" / "rep0" / "run_report.json"
    validate_report(report_path)
    report = json.loads(report_path.read_text())
    assert report["method"] == "original"
    assert report["dataset"]["train_rows"] == 120
    assert 0.0 <= report["utility"]["value"] <= 1.0
    assert {e["attack"] for e in report["mia"]} == {"loss_based", "entropy_based"}
    assert all(e["population"] == "train_vs_test" for e in report["mia"])
    # balanced attack populations
    assert all(e["n_members"] == e["n_nonmembers"] == 80 for e in report["mia"])
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["utility"]["n"] == 1


@pytest.mark.parametrize(
    "method,extra",
    [
        ("eupg_k", {"k": 3}),
        ("eupg_dp", {"epsilon": 2.0}),
        ("sisa", {}),
        ("original", {}),
    ],
)
def test_run_then_forget(tmp_path, method, extra):
    conf = write_inputs(tmp_path)
    conf.update({"method": method, **extra})
    cfg_path = write_config(tmp_path, conf)
    assert main(["run", "--config", cfg_path]) == 0

    run_report = json.loads(
        (tmp_path / "out" / "rep0" / "run_report.json").read_text()
    )
    validate_report(tmp_path / "out" / "rep0" / "run_report.json")
    assert run_report["params"] == {
        "eupg_k": {"k": 3},
        "eupg_dp": {"epsilon": 2.0},
        "sisa": {"n_shards": 2, "n_slices": 2},
        "original": {},
    }[method]
    if method == "eupg_dp":
        assert run_report["budget_ledger"]["epsilon_total"] == 2.0
    if method == "eupg_k":
        assert run_report["kanonymity"]["ok"] is True
    assert (tmp_path / "out" / "rep0" / "state").is_dir()

    assert main(["forget", "--config", cfg_path]) == 0
    forget_path = tmp_path / "out" / "rep0" / "forget_report.json"
    validate_report(forget_path)
    forget_report = json.loads(forget_path.read_text())
    assert forget_report["forget"]["n_forgotten"] == 12
    populations = {(e["attack"], e["population"]) for e in forget_report["mia"]}
    assert populations == {
        (a, p)
        for a in ("loss_based", "entropy_based")
        for p in ("forget_vs_test", "retain_vs_test")
    }
    after_dir = tmp_path / "out" / "rep0" / "state_after_forget"
    # a state holds the manifest and the models forgetting reads, nothing else
    if method == "sisa":
        expected = {"manifest.json"} | {f"shard{s}_slice{r}.model" for s in range(2) for r in range(2)}
    elif method == "original":
        # retraining from scratch is a store of one shard and one slice
        expected = {"manifest.json", "shard0_slice0.model"}
    else:
        expected = {"manifest.json", "base.model", "deployed.model"}
        after = load_eupg_state(after_dir)
        assert [e.n_forgotten for e in after.audit_log] == [12]
    for state_dir in (tmp_path / "out" / "rep0" / "state", after_dir):
        assert {f.name for f in state_dir.iterdir()} == expected, state_dir
    assert (tmp_path / "out" / "forget_summary.json").exists()


def test_dp_utility_file_kept_through_forget(tmp_path):
    """A utility file's categories are those learned from the training CSV,
    and the matrix survives run -> forget in the saved states."""
    conf = write_inputs(tmp_path)
    utility = [[1.0, 0.5, 0.0], [0.5, 1.0, 0.5], [0.0, 0.5, 1.0]]
    (tmp_path / "utility.json").write_text(
        json.dumps({"cat0": {"delta_u": 0.5, "utility": utility}})
    )
    conf.update(
        {"method": "eupg_dp", "epsilon": 2.0, "utility_file": str(tmp_path / "utility.json")}
    )
    cfg_path = write_config(tmp_path, conf)
    assert main(["run", "--config", cfg_path]) == 0
    assert main(["forget", "--config", cfg_path]) == 0
    for state in ("state", "state_after_forget"):
        mechanisms = load_eupg_state(tmp_path / "out" / "rep0" / state).spec.mechanisms
        assert mechanisms.categorical.keys() == {"cat0"}
        assert mechanisms.categorical["cat0"].delta_u == 0.5
        assert mechanisms.categorical["cat0"].utility.tolist() == utility


def test_forget_without_run_fails(tmp_path):
    conf = write_inputs(tmp_path)
    code = main(["forget", "--config", write_config(tmp_path, conf)])
    assert code == 1


def saved_run(tmp_path_factory, method, **extra):
    """The config of a `run` of method, whose output directory it names."""
    root = tmp_path_factory.mktemp(f"{method}_run")
    conf = {**write_inputs(root), "method": method, **extra}
    assert main(["run", "--config", write_config(root, conf)]) == 0
    return conf


@pytest.fixture(scope="module")
def sisa_run(tmp_path_factory):
    """A SISA `run` output directory and its config."""
    return saved_run(tmp_path_factory, "sisa")


@pytest.fixture(scope="module")
def eupg_run(tmp_path_factory):
    """An eupg_dp `run` output directory and its config."""
    return saved_run(tmp_path_factory, "eupg_dp", epsilon=2.0)


def assert_forget_refuses_state(tmp_path, capsys, run_conf, edit, message):
    """forget on a copy of run_conf's output whose rep0/state manifest went
    through edit exits 1, naming the state directory and message, and
    writes no state after forgetting."""
    shutil.copytree(Path(run_conf["out"]), tmp_path / "out")
    state_dir = tmp_path / "out" / "rep0" / "state"
    manifest = json.loads((state_dir / "manifest.json").read_text())
    edit(manifest)
    (state_dir / "manifest.json").write_text(json.dumps(manifest))
    conf = {**run_conf, "out": str(tmp_path / "out")}
    capsys.readouterr()
    assert main(["forget", "--config", write_config(tmp_path, conf)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {state_dir}:") and message in err, err
    assert not (state_dir.parent / "state_after_forget").exists()


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("removed_log", None, "lacks key 'removed_log'"),
        ("removed_rows", [120], "'removed_rows'"),
        ("removed_rows", [-1], "'removed_rows'"),
        ("removed_rows", [3, 3], "'removed_rows'"),
        ("removed_rows", [2.0], "'removed_rows'"),
        ("deal_sha256", "0" * 64, "deal_sha256"),
        ("n_rows", 0, "'n_rows' must be a positive integer"),
        ("schema", None, "lacks key 'schema'"),
    ],
    ids=["missing_key", "out_of_range", "negative", "duplicated", "not_integer", "deal_mismatch",
         "no_rows", "schema_missing"],
)
def test_malformed_shard_manifest_exits_one(tmp_path, capsys, sisa_run, key, value, message):
    """forget refuses a damaged shard manifest, naming the state directory
    and the key, and writes no state after forgetting."""

    def edit(manifest):
        if value is None:
            del manifest[key]
        else:
            manifest[key] = value

    assert_forget_refuses_state(tmp_path, capsys, sisa_run, edit, message)


EVENT = {"n_forgotten": 1, "epochs": 2, "ratio": None, "request_seed": None}


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda cfg: cfg.update(momentum=0.9), "key 'cfg' has unknown key 'momentum'"),
        (lambda cfg: cfg.pop("seed"), "key 'cfg' lacks key 'seed'"),
    ],
    ids=["unknown", "missing"],
)
def test_shard_manifest_cfg_fields_checked(tmp_path, capsys, sisa_run, edit, message):
    """forget refuses a shard manifest whose training settings name a field
    TrainConfig lacks, or lack one of its fields."""
    assert_forget_refuses_state(tmp_path, capsys, sisa_run, lambda m: edit(m["cfg"]), message)


@pytest.mark.parametrize(
    "key, edit, message",
    [
        ("cfg", lambda cfg: cfg.update(momentum=0.9), "key 'cfg' has unknown key 'momentum'"),
        ("spec", lambda spec: spec.pop("mechanisms"), "key 'spec' lacks key 'mechanisms'"),
        ("spec", lambda spec: spec.update(delta=1e-5), "key 'spec' has unknown key 'delta'"),
        ("audit_log", lambda log: log.append({**EVENT, "rows": [3]}),
         "key 'audit_log' has unknown key 'rows'"),
        ("audit_log", lambda log: log.append({}), "key 'audit_log' lacks key 'n_forgotten'"),
        ("audit_log", lambda log: log.append(7), "key 'audit_log': expected a JSON object"),
        ("dp_ledger", lambda ledger: ledger["entries"][0].update(extra=1),
         "key 'dp_ledger.entries' has unknown key 'extra'"),
        ("spec", lambda spec: spec.update(mechanisms={}),
         "key 'spec.mechanisms' lacks key 'categorical'"),
        ("spec", lambda spec: spec.update(mechanisms={"categorical": {"cat0": {"utility": [[1.0]]}}}),
         "key 'spec.mechanisms.categorical' lacks key 'delta_u'"),
        ("schema", lambda schema: schema[1].pop("kind"), "key 'schema' lacks key 'kind'"),
        ("schema", lambda schema: schema.clear() or schema.append([]),
         "key 'schema': expected a JSON object"),
    ],
    ids=["cfg_unknown", "spec_missing", "spec_unknown", "event_unknown", "event_missing",
         "event_not_object", "ledger_entry_unknown", "mechanisms_missing", "mechanism_missing",
         "schema_entry_missing", "schema_entry_not_object"],
)
def test_eupg_manifest_record_fields_checked(tmp_path, capsys, eupg_run, key, edit, message):
    """forget refuses an EUPG manifest whose settings, privacy spec or
    forget events name a field their dataclass lacks, or lack one of its
    fields."""
    assert_forget_refuses_state(tmp_path, capsys, eupg_run, lambda m: edit(m[key]), message)


@pytest.mark.parametrize(
    "run, edit, message",
    [
        ("eupg", lambda m: m["schema"][3].update(categories=5),
         "manifest key 'schema.categories': expected a list, got 5"),
        ("eupg", lambda m: m["dp_ledger"].pop("entries"), "key 'dp_ledger' lacks key 'entries'"),
        ("eupg", lambda m: m["cfg"].update(learning_rate="x"),
         "manifest key 'cfg.learning_rate': expected a finite number, got 'x'"),
        ("eupg", lambda m: m.update(finetune_epochs="5"),
         "manifest key 'finetune_epochs': expected a non-negative integer, got '5'"),
        ("eupg", lambda m: m["cfg"].update(batch_size=-3),
         "manifest key 'cfg.batch_size': expected a non-negative integer, got -3"),
        ("eupg", lambda m: m.update(audit_log={}), "manifest key 'audit_log': expected a list"),
        ("eupg", lambda m: m["spec"].update(epsilon=-1.0), "manifest key 'spec': dp requires epsilon > 0"),
        ("eupg", lambda m: m.update(notes="x"), "manifest.json has unknown key 'notes'"),
        ("eupg", lambda m: m["spec"].update(mechanisms={"categorical": {
            "cat0": {"delta_u": 1.0, "utility": [[1.0], [0.0, 1.0]]}}}),
         "manifest key 'spec.mechanisms.categorical.utility': expected rows of equal length"),
        ("sisa", lambda m: m["cfg"].update(learning_rate=float("nan")),
         "manifest key 'cfg.learning_rate': expected a finite number, got nan"),
        ("sisa", lambda m: m.update(layer_dims=5), "manifest key 'layer_dims': expected a list, got 5"),
        ("sisa", lambda m: m.update(n_shards="2"), "manifest key 'n_shards': expected a non-negative"),
        ("sisa", lambda m: m.update(n_slices=0), "manifest key 'n_slices' must be a positive integer"),
    ],
    ids=["categories_not_list", "ledger_no_entries", "learning_rate_string", "epochs_string",
         "batch_size_negative", "audit_log_object", "spec_check", "unknown_top_level",
         "ragged_matrix", "learning_rate_nan",
         "layer_dims_number", "n_shards_string", "no_slices"],
)
def test_manifest_values_typed(tmp_path, capsys, sisa_run, eupg_run, run, edit, message):
    """forget refuses a manifest value of the wrong type, a negative count or
    a value its record's own checks refuse, with exit 1 naming the state
    directory and the key path, where it used to exit 2 or load the value."""
    run_conf = eupg_run if run == "eupg" else sisa_run
    assert_forget_refuses_state(tmp_path, capsys, run_conf, edit, message)


def test_forget_refuses_another_table_or_method(tmp_path, capsys, sisa_run):
    """forget against a saved SISA state exits 1 naming the state directory,
    and writes no state after forgetting, when the training CSV holds other
    rows than the store was trained on, or when the config names another
    method."""
    shutil.copytree(Path(sisa_run["out"]), tmp_path / "out")
    state_dir = tmp_path / "out" / "rep0" / "state"
    lines = Path(sisa_run["train_csv"]).read_text().splitlines()
    lines[60], lines[61] = lines[61], lines[60]
    (tmp_path / "train.csv").write_text("\n".join(lines) + "\n")
    conf = {**sisa_run, "out": str(tmp_path / "out")}
    for edit, message in [
        ({"train_csv": str(tmp_path / "train.csv")}, "does not match the one this store was trained on"),
        ({"method": "eupg_k", "k": 3}, "not the saved state of a 'eupg_k' run"),
    ]:
        capsys.readouterr()
        assert main(["forget", "--config", write_config(tmp_path, {**conf, **edit})]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {state_dir}:") and message in err, err
        assert not (state_dir.parent / "state_after_forget").exists()


@pytest.fixture(scope="module")
def original_run(tmp_path_factory):
    """An original `run` output directory and its config."""
    return saved_run(tmp_path_factory, "original")


@pytest.mark.parametrize(
    "run, edit, key, found, wanted",
    [
        ("eupg", {"method": "eupg_k", "k": 3}, "method", "'eupg_dp'", "'eupg_k'"),
        ("eupg", {"epsilon": 50.0}, "epsilon", "2.0", "50.0"),
        ("sisa", {"n_shards": 3}, "n_shards", "2", "3"),
        ("original", {"method": "sisa"}, "method", "'original'", "'sisa'"),
        ("sisa", {"method": "original"}, "method", "'sisa'", "'original'"),
    ],
    ids=["eupg_k_on_eupg_dp", "other_epsilon", "other_shard_count", "sisa_on_original",
         "original_on_sisa"],
)
def test_forget_refuses_other_method_parameters(tmp_path, capsys, request, run, edit, key, found, wanted):
    """forget exits 1 when the config names another method or other method
    parameters than the saved state records, naming the state directory,
    the key and both values, and writes no state after forgetting."""
    run_conf = request.getfixturevalue(f"{run}_run")
    shutil.copytree(Path(run_conf["out"]), tmp_path / "out")
    state_dir = tmp_path / "out" / "rep0" / "state"
    conf = {**run_conf, "out": str(tmp_path / "out"), **edit}
    capsys.readouterr()
    assert main(["forget", "--config", write_config(tmp_path, conf)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {state_dir}: not the saved state of a {conf['method']!r} run"), err
    assert f"its {key} is {found}, the config's is {wanted}" in err, err
    assert not (state_dir.parent / "state_after_forget").exists()


def test_original_forget_reads_its_state(tmp_path, original_run):
    """An original run's forget replays its one-shard, one-slice store with
    the state's training settings and layer dims: a forget config with
    other hidden units and epochs, or naming sisa with one shard and one
    slice, writes the bytes a forget under the run's own config writes."""
    after = {}
    for name, edit in [
        ("own", {}),
        ("overridden", {"hidden_units": 16, "epochs": 1}),
        ("one_by_one_sisa", {"method": "sisa", "n_shards": 1, "n_slices": 1}),
    ]:
        shutil.copytree(Path(original_run["out"]), tmp_path / name)
        conf = {**original_run, "out": str(tmp_path / name), **edit}
        assert main(["forget", "--config", write_config(tmp_path, conf, f"{name}.json")]) == 0
        after[name] = (tmp_path / name / "rep0" / "state_after_forget" / "shard0_slice0.model").read_bytes()
    model = load_model(tmp_path / "overridden" / "rep0" / "state_after_forget" / "shard0_slice0.model")
    assert model.layer_dims[1] == original_run["hidden_units"] == 8
    assert after["overridden"] == after["own"] == after["one_by_one_sisa"]


@pytest.mark.parametrize(
    "method, extra",
    [("original", {}), ("eupg_k", {"k": 3}), ("eupg_dp", {"epsilon": 2.0}), ("sisa", {})],
)
def test_saved_states_repeat_byte_for_byte(tmp_path, method, extra):
    """Two runs and forgets of one config into two output directories write
    the same bytes into both states: a state holds no wall-clock time."""
    conf = {**write_inputs(tmp_path), "method": method, **extra}
    for out in ("a", "b"):
        cfg_path = write_config(tmp_path, {**conf, "out": str(tmp_path / out)}, f"{out}.json")
        assert main(["run", "--config", cfg_path]) == 0
        assert main(["forget", "--config", cfg_path]) == 0
    for state in ("state", "state_after_forget"):
        a, b = tmp_path / "a" / "rep0" / state, tmp_path / "b" / "rep0" / state
        files = sorted(f.name for f in a.iterdir())
        assert files == sorted(f.name for f in b.iterdir()), state
        for name in files:
            assert (a / name).read_bytes() == (b / name).read_bytes(), (state, name)


def test_cli_bits_independent_of_worker_count(tmp_path, monkeypatch):
    """A sisa run and forget replaying in one process and in three worker
    processes save the same bytes and write the same reports, timings
    apart; no worker and no replay input is left afterwards."""
    conf = {**write_inputs(tmp_path), "method": "sisa", "n_shards": 3, "n_slices": 3}
    cfg_path, out = write_config(tmp_path, conf), tmp_path / "out"
    for cpus in (1, 4):
        pin_cpus(monkeypatch, cpus, OPENBLAS_NUM_THREADS="1")
        assert main(["run", "--config", cfg_path]) == 0
        assert main(["forget", "--config", cfg_path]) == 0
        out.rename(tmp_path / f"cpus{cpus}")
    one, four = tmp_path / "cpus1" / "rep0", tmp_path / "cpus4" / "rep0"
    for state in ("state", "state_after_forget"):
        files = sorted(f.name for f in (one / state).iterdir())
        assert files == sorted(f.name for f in (four / state).iterdir())
        for name in files:
            assert (one / state / name).read_bytes() == (four / state / name).read_bytes()
    for name in ("run_report.json", "forget_report.json"):
        reports = [json.loads((rep / name).read_text()) for rep in (one, four)]
        for report in reports:
            report.pop("timings_s")
        assert reports[0] == reports[1]
    assert multiprocessing.active_children() == []
    assert unlearn._replay_inputs is None


@pytest.mark.parametrize("command", ["run", "forget"])
def test_bad_test_csv_read_while_shards_replay_exits_one(tmp_path, capsys, monkeypatch, command):
    """A shard store reads the test CSV while its last shards replay in a
    pool: an unseen category there exits 1 with the message of loading it,
    the pool's workers are joined, and run leaves no output directory,
    forget no state after forgetting."""
    conf = {**write_inputs(tmp_path), "method": "sisa", "n_shards": 3, "n_slices": 3}
    cfg_path, test_csv = write_config(tmp_path, conf), Path(conf["test_csv"])
    if command == "forget":
        assert main(["run", "--config", cfg_path]) == 0
    write_unseen_test_category(test_csv)
    with pytest.raises(DataError) as expected:
        load_csv(test_csv, load_train(conf).schema)

    pin_cpus(monkeypatch, 4, OPENBLAS_NUM_THREADS="1")
    shard_workers, workers = unlearn._shard_workers, []

    def counted_workers(n_jobs):
        workers.append(shard_workers(n_jobs))
        return workers[-1]

    monkeypatch.setattr(unlearn, "_shard_workers", counted_workers)
    capsys.readouterr()
    assert main([command, "--config", cfg_path]) == 1
    assert capsys.readouterr().err == f"error: {expected.value}\n"
    assert workers and min(workers) >= 2
    assert multiprocessing.active_children() == []
    assert unlearn._replay_inputs is None
    if command == "run":
        assert not (tmp_path / "out").exists()
    else:
        assert not (tmp_path / "out" / "rep0" / "state_after_forget").exists()


@pytest.mark.parametrize("method, extra", [("eupg_k", {"k": 3}), ("eupg_dp", {"epsilon": 2.0})])
@pytest.mark.parametrize("command", ["run", "forget"])
def test_eupg_reads_a_bad_test_csv_after_fitting(tmp_path, capsys, monkeypatch, command, method, extra):
    """An EUPG run or forget reads the test CSV after fitting and before
    saving: an unseen category there exits 1 with the message of loading
    it, run leaves no output directory, and forget no state after
    forgetting, while the run's state keeps its bytes."""
    conf = {**write_inputs(tmp_path), "method": method, **extra}
    cfg_path, test_csv = write_config(tmp_path, conf), Path(conf["test_csv"])
    state_dir = tmp_path / "out" / "rep0" / "state"
    if command == "forget":
        assert main(["run", "--config", cfg_path]) == 0
        saved = {f.name: f.read_bytes() for f in state_dir.iterdir()}
    write_unseen_test_category(test_csv)
    with pytest.raises(DataError) as expected:
        load_csv(test_csv, load_train(conf).schema)

    fit_name = "eupg_prepare" if command == "run" else "eupg_forget"
    fit, fits = getattr(unlearn, fit_name), []
    monkeypatch.setattr(unlearn, fit_name, lambda *args: fits.append(fit_name) or fit(*args))
    capsys.readouterr()
    assert main([command, "--config", cfg_path]) == 1
    assert capsys.readouterr().err == f"error: {expected.value}\n"
    assert fits == [fit_name]
    if command == "run":
        assert not (tmp_path / "out").exists()
    else:
        assert not (tmp_path / "out" / "rep0" / "state_after_forget").exists()
        assert {f.name: f.read_bytes() for f in state_dir.iterdir()} == saved


def assert_forget_refuses_deployed_model(tmp_path, capsys, eupg_run, write, message):
    """forget on a copy of eupg_run's output whose deployed.model went
    through write exits 1, naming the file and message, and writes no state
    after forgetting."""
    shutil.copytree(Path(eupg_run["out"]), tmp_path / "out")
    state_dir = tmp_path / "out" / "rep0" / "state"
    deployed = state_dir / "deployed.model"
    write(deployed)
    conf = {**eupg_run, "out": str(tmp_path / "out")}
    capsys.readouterr()
    assert main(["forget", "--config", write_config(tmp_path, conf)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {deployed}: {message}"), err
    assert not (state_dir.parent / "state_after_forget").exists()
    return err


def test_forget_refuses_a_version_1_model_file(tmp_path, capsys, eupg_run):
    """forget against a saved EUPG state whose deployed model is a format
    version 1 (float64) file exits 1, naming the file, and writes no state
    after forgetting."""
    err = assert_forget_refuses_deployed_model(
        tmp_path, capsys, eupg_run, lambda path: write_old_model(load_model(path), path, 1),
        "model format version 1",
    )
    assert "re-run `privforget run` to rebuild it" in err, err


def test_forget_refuses_a_truncated_model_file(tmp_path, capsys, eupg_run):
    """forget against a saved EUPG state whose deployed model is cut inside
    its header exits 1 naming the file, where it used to exit 2."""
    assert_forget_refuses_deployed_model(
        tmp_path, capsys, eupg_run, lambda path: path.write_bytes(path.read_bytes()[:20]),
        "truncated header",
    )


@pytest.mark.parametrize("which", ["config", "utility_file", "manifest", "report"])
def test_unparsable_json_file_named(tmp_path, capsys, eupg_run, which):
    """A JSON input that does not parse exits 1 naming the file: a config
    file, a utility file, a state's manifest (through forget and attack) and
    a report under report --root."""
    shutil.copytree(Path(eupg_run["out"]), tmp_path / "out")
    out = tmp_path / "out"
    state_dir = out / "rep0" / "state"
    conf = {**eupg_run, "out": str(out), "utility_file": str(tmp_path / "utility.json")}
    (tmp_path / "utility.json").write_text("{}")
    cfg_path = write_config(tmp_path, conf)
    bad, commands = {
        "config": (cfg_path, [["run", "--config", cfg_path]]),
        "utility_file": (tmp_path / "utility.json", [["run", "--config", cfg_path]]),
        "manifest": (state_dir / "manifest.json", [
            ["forget", "--config", cfg_path],
            ["attack", "--state", str(state_dir), "--members", conf["train_csv"],
             "--nonmembers", conf["test_csv"]],
        ]),
        "report": (out / "rep0" / "run_report.json", [["report", "--root", str(out)]]),
    }[which]
    Path(bad).write_text('{"method":\n')
    for argv in commands:
        capsys.readouterr()
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: not valid JSON: Expecting value: line 2"), err


def test_repetitions_and_summary(tmp_path):
    conf = write_inputs(tmp_path)
    conf["repetitions"] = 2
    assert main(["run", "--config", write_config(tmp_path, conf)]) == 0
    for rep in (0, 1):
        validate_report(tmp_path / "out" / f"rep{rep}" / "run_report.json")
    r0 = json.loads((tmp_path / "out" / "rep0" / "run_report.json").read_text())
    r1 = json.loads((tmp_path / "out" / "rep1" / "run_report.json").read_text())
    # repetitions use distinct derived seeds
    assert r0["seeds"]["train"] != r1["seeds"]["train"]
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["utility"]["n"] == 2
    assert summary["utility"]["std"] >= 0.0


def test_set_overrides_config_file(tmp_path):
    conf = write_inputs(tmp_path)
    conf["epochs"] = 3
    cfg_path = write_config(tmp_path, conf)
    assert main(["run", "--config", cfg_path, "--set", "epochs=1"]) == 0
    report = json.loads((tmp_path / "out" / "rep0" / "run_report.json").read_text())
    assert report["config"]["epochs"] == 1


def test_config_validation_errors(tmp_path, capsys):
    conf = write_inputs(tmp_path)
    conf["no_such_key"] = 1
    assert main(["run", "--config", write_config(tmp_path, conf)]) == 1
    assert "unknown config key" in capsys.readouterr().err

    good = write_inputs(tmp_path)
    # shuffling is always on and clamping always off: neither is a config key
    for pair in ("nope=1", "shuffle=false", "clamp_out_of_range=true"):
        assert main(["run", "--config", write_config(tmp_path, good), "--set", pair]) == 1, pair
        assert f"unknown config key '{pair.split('=')[0]}'" in capsys.readouterr().err, pair
    assert main(["run", "--config", str(tmp_path / "missing.json")]) == 1
    assert main(["run", "--config", write_config(tmp_path, good), "--set", "method=warp"]) == 1
    assert main([]) == 1
    assert main(["run", "--set", "oops"]) == 1

    # a negative forget seed is refused with its value, not a traceback
    (tmp_path / "out" / "rep0").mkdir(parents=True)
    capsys.readouterr()
    cfg_path = write_config(tmp_path, good)
    assert main(["forget", "--config", cfg_path, "--set", "forget_seed=-5"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "-5" in err

    # wrong-typed values are configuration errors naming the key, not tracebacks
    for pair, key in [
        ("epochs=abc", "epochs"),
        ("repetitions=x", "repetitions"),
        ("k=abc", "k"),
        ("learning_rate=fast", "learning_rate"),
        ("n_shards=2.5", "n_shards"),
        ("seed=true", "seed"),
        ("attacks=loss_based", "attacks"),
        ('attacks=["loss_based","entropy_based","loss_based"]', "attacks"),
        # a sweep grid is an object: a string or list used to fail on its characters or items
        ("sweep=abc", "sweep"),
        ("sweep=[1,2]", "sweep"),
        # path keys are JSON strings: 0 used to read the training CSV from stdin
        ("train_csv=0", "train_csv"),
        ("test_csv=[1]", "test_csv"),
        ("schema={}", "schema"),
        ("utility_file=7", "utility_file"),
        ("out=5", "out"),
        ("out=2024", "out"),
        ("out=null", "out"),
        # integer keys are counts or seeds
        ("hidden_units=-3", "hidden_units"),
        ("n_shards=-1", "n_shards"),
        ("privacy_seed=-2", "privacy_seed"),
    ]:
        assert main(["run", "--config", cfg_path, "--set", pair]) == 1, pair
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"'{key}'" in err, (pair, err)
    for pair in ("sweep=abc", "sweep=[1,2]"):
        assert main(["sweep", "--config", cfg_path, "--set", pair]) == 1, pair
        assert "config key 'sweep' must be a JSON object" in capsys.readouterr().err, pair


@pytest.mark.parametrize("ratio", [0.005, 1.0])  # floor(0.005 * 120) = 0 rows; all rows
def test_forget_ratio_selecting_no_or_all_rows_refused(tmp_path, capsys, ratio):
    conf = write_inputs(tmp_path)
    cfg_path = write_config(tmp_path, conf)
    assert main(["run", "--config", cfg_path]) == 0
    model = (tmp_path / "out" / "rep0" / "state" / "shard0_slice0.model").read_bytes()
    capsys.readouterr()
    assert main(["forget", "--config", cfg_path, "--set", f"forget_ratio={ratio}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "forget_ratio" in err and "120" in err
    assert not (tmp_path / "out" / "rep0" / "state_after_forget").exists()
    assert (tmp_path / "out" / "rep0" / "state" / "shard0_slice0.model").read_bytes() == model


@pytest.mark.parametrize("ratio,seed", [(0.1, 0), (0.5, 3), (0.99, 1)])
def test_report_populations_are_takes_of_encoded_train(tmp_path, ratio, seed):
    """The forget report attacks encode(train, rows=) of each population: the
    same bytes as encoding each part of split_forget on its own, and as
    taking its rows of encode(train)."""
    train = load_train(load_config(write_config(tmp_path, write_inputs(tmp_path))))
    request = ForgetRequest.from_ratio(train.n_rows, ratio, seed)
    retain, forget = split_forget(train, request)
    forget_rows = np.array(request.forget_indices)
    retain_rows = np.setdiff1d(np.arange(train.n_rows), forget_rows)
    whole = encode(train)
    for part, rows in ((retain, retain_rows), (forget, forget_rows)):
        alone, taken, encoded = encode(part), whole.take(rows), encode(train, rows=rows)
        for em in (taken, encoded):
            assert alone.features.tobytes() == em.features.tobytes()
            assert alone.labels.tobytes() == em.labels.tobytes()


def scored_forget_report(conf, rep_dir, fitted, train, test, forgotten) -> dict:
    """The forget report CLI forget writes for fitted, scored through _Scores."""
    scores = _Scores(lambda: _report_inputs(conf, 0, train, test, forgotten))
    probs = scores.probs(fitted)
    return _scored_report(conf, "forget", 0, rep_dir, train, scores.inputs, probs)


def test_forget_report_copies_no_population(tmp_path):
    """A SISA forget report encodes only the sampled rows of each population
    from the raw training table: it never allocates as much as one encoded
    training matrix."""
    train = make_dataset(3000, seed=0, n_categorical=10)
    test = TabularDataset(train.schema, make_dataset(100, seed=1, n_categorical=10).rows, train.provenance)
    store = unlearn.sisa_train(train, 2, 2, TrainConfig(batch_size=256, epochs=1), hidden_units=8)
    conf = load_config(None, {"method": "sisa", "n_shards": 2, "n_slices": 2})
    forgotten = ForgetRequest.from_ratio(train.n_rows, 0.01, 0).mask(train.n_rows)
    train_bytes = encode(train).features.nbytes
    tracemalloc.start()
    try:
        report = scored_forget_report(conf, tmp_path, store, train, test, forgotten)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < train_bytes
    sizes = {e["population"]: (e["n_members"], e["n_nonmembers"]) for e in report["mia"]}
    assert sizes == {"forget_vs_test": (30, 30), "retain_vs_test": (100, 100)}


def test_forget_report_predicts_the_test_set_once(tmp_path, monkeypatch):
    """A SISA forget report predicts the 100 test rows once per shard:
    retain_vs_test keeps every test row and reuses the utility's
    probabilities, while forget_vs_test subsamples 30 test rows and
    predicts them on their own."""
    train, test = make_dataset(300, seed=0), make_dataset(100, seed=1)
    test = TabularDataset(train.schema, test.rows, train.provenance)
    store = unlearn.sisa_train(train, 2, 2, TrainConfig(batch_size=64, epochs=1), hidden_units=8)
    conf = load_config(None, {"method": "sisa", "n_shards": 2, "n_slices": 2})
    forgotten = ForgetRequest.from_ratio(train.n_rows, 0.1, 0).mask(train.n_rows)
    forward, received = mlp.forward, []

    def counting_forward(model, features):
        received.append(len(features))
        return forward(model, features)

    monkeypatch.setattr(mlp, "forward", counting_forward)
    report = scored_forget_report(conf, tmp_path, store, train, test, forgotten)
    # per shard: the test set, then forget_vs_test's members and
    # non-members, then retain_vs_test's members
    assert received == [100, 30, 30, 100] * 2
    sizes = {e["population"]: (e["n_members"], e["n_nonmembers"]) for e in report["mia"]}
    assert sizes == {"forget_vs_test": (30, 30), "retain_vs_test": (100, 100)}


def test_scores_average_as_predict():
    """Final models handed over in any order, and those not handed over
    predicted by probs(fitted), average per report matrix to the bits
    unlearn.predict gives for a shard store and for an EUPG state: one
    ensemble rule."""
    train, test = make_dataset(300, seed=0), make_dataset(100, seed=1)
    test = TabularDataset(train.schema, test.rows, train.provenance)
    cfg = TrainConfig(batch_size=64, epochs=1)
    store = unlearn.sisa_train(train, 5, 2, cfg, hidden_units=8)
    eupg = unlearn.eupg_prepare(train, unlearn.PrivacySpec.k_anonymity(3), cfg, 1, 8)
    conf = load_config(None, {"method": "sisa"})
    forgotten = ForgetRequest.from_ratio(train.n_rows, 0.1, 0).mask(train.n_rows)
    for fitted, handed in [(store, (3, 0, 4, 2, 1)), (store, (3, 0)), (store, ()), (eupg, ())]:
        scores = _Scores(lambda: _report_inputs(conf, 0, train, test, forgotten))
        for s in handed:
            scores(s, fitted.final_models()[s])
        probs = scores.probs(fitted)
        expected = [unlearn.predict(fitted, x) for x in scores.inputs.features()]
        assert [p.tobytes() for p in probs] == [p.tobytes() for p in expected], handed


def test_missing_inputs_exit_one(tmp_path, capsys):
    conf = write_inputs(tmp_path)
    conf["train_csv"] = str(tmp_path / "gone.csv")
    cfg_path = write_config(tmp_path, conf)
    # neither command leaves an output directory behind when its inputs fail to load
    assert main(["run", "--config", cfg_path]) == 1
    assert not (tmp_path / "out").exists()
    assert main(["sweep", "--config", cfg_path, "--set", 'sweep={"method": ["original"]}']) == 1
    assert not (tmp_path / "out").exists()
    conf2 = write_inputs(tmp_path)
    del conf2["test_csv"]
    conf2.pop("train_csv")
    assert main(["run", "--config", write_config(tmp_path, conf2)]) == 1
    assert "required" in capsys.readouterr().err


def test_unseen_test_category_exits_one(tmp_path, capsys):
    conf = write_inputs(tmp_path)
    lines = (tmp_path / "test.csv").read_text().splitlines()
    header = lines[0].split(",")
    cells = lines[3].split(",")
    cells[header.index("cat0")] = "unseen"
    lines[3] = ",".join(cells)
    (tmp_path / "test.csv").write_text("\n".join(lines) + "\n")
    assert main(["run", "--config", write_config(tmp_path, conf)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "test.csv" in err, err
    assert "row 3" in err and "'cat0'" in err and "unknown category" in err, err
    assert not (tmp_path / "out" / "rep0").exists()


def test_unexpected_error_exits_two(tmp_path, monkeypatch):
    import privforget.cli as cli

    conf = write_inputs(tmp_path)
    monkeypatch.setattr(cli, "cmd_run", lambda c: 1 // 0)
    assert main(["run", "--config", write_config(tmp_path, conf)]) == 2


def test_output_root_env(tmp_path, monkeypatch):
    conf = write_inputs(tmp_path)
    conf["out"] = "nested/results"
    monkeypatch.setenv("PRIVFORGET_OUTPUT_ROOT", str(tmp_path / "root"))
    assert main(["run", "--config", write_config(tmp_path, conf)]) == 0
    assert (tmp_path / "root" / "nested" / "results" / "summary.json").exists()


def test_anonymize_kanon(tmp_path):
    conf = write_inputs(tmp_path)
    conf.update({"method": "eupg_k", "k": 4})
    assert main(["anonymize", "--config", write_config(tmp_path, conf)]) == 0
    out = tmp_path / "out"
    assert (out / "protected.csv").exists()
    report = json.loads((out / "anonymize_report.json").read_text())
    assert report["kanonymity"]["ok"] is True
    assert report["kanonymity"]["min_group_size"] >= 4
    assert report["budget_ledger"] is None


def test_anonymize_does_not_read_the_test_csv(tmp_path):
    """anonymize protects the training CSV alone: a test CSV with a short
    row, which run would refuse, does not stop it."""
    conf = write_inputs(tmp_path)
    conf.update({"method": "eupg_k", "k": 4})
    with open(conf["test_csv"], "a") as fh:
        fh.write("1.0,2.0\n")
    assert main(["anonymize", "--config", write_config(tmp_path, conf)]) == 0
    assert (tmp_path / "out" / "protected.csv").exists()
    assert main(["run", "--config", write_config(tmp_path, conf)]) == 1


def test_anonymize_dp(tmp_path, capsys):
    conf = write_inputs(tmp_path)
    conf.update({"method": "eupg_dp", "epsilon": 1.0})
    assert main(["anonymize", "--config", write_config(tmp_path, conf)]) == 0
    report = json.loads((tmp_path / "out" / "anonymize_report.json").read_text())
    ledger = report["budget_ledger"]
    assert ledger["epsilon_total"] == 1.0
    assert len(ledger["entries"]) == 5  # all non-class attributes
    conf["method"] = "original"
    assert main(["anonymize", "--config", write_config(tmp_path, conf)]) == 1
    # the method is refused before any CSV is read
    conf.update({"method": "sisa", "train_csv": str(tmp_path / "gone.csv")})
    capsys.readouterr()
    assert main(["anonymize", "--config", write_config(tmp_path, conf)]) == 1
    err = capsys.readouterr().err
    assert "anonymize requires method" in err and "gone.csv" not in err, err


@pytest.mark.parametrize("command", ["anonymize", "run"])
def test_failed_k_anonymity_exits_one(tmp_path, capsys, monkeypatch, command):
    """Both commands refuse a protected table that fails verification and
    write neither the table nor the state."""
    import privforget.kanon as kanon

    monkeypatch.setattr(kanon, "k_anonymize", lambda ds, k: ds)
    conf = write_inputs(tmp_path)
    conf.update({"method": "eupg_k", "k": 3})
    assert main([command, "--config", write_config(tmp_path, conf)]) == 1
    assert "failed k-anonymity verification" in capsys.readouterr().err
    assert not (tmp_path / "out" / "protected.csv").exists()
    assert not (tmp_path / "out" / "rep0" / "state").exists()


@pytest.mark.parametrize("table", ["train_csv", "test_csv"])
def test_bad_csv_cell_exits_one_naming_file_row_and_column(tmp_path, capsys, table):
    """run exits 1, naming the file, the row and the column, and writes no
    output directory, when a numeric cell of the training or the test CSV
    is not finite or lies outside its declared range; a CSV that is not
    UTF-8 exits 1 naming the file."""
    conf = write_inputs(tmp_path)
    path = Path(conf[table])
    header, *rows = path.read_text().splitlines()
    schema = Path(conf["schema"])
    declared = "num0,numeric,quasi_identifier"
    cases = [("nan", "", "value nan is not a finite number"),
             ("inf", "", "value inf is not a finite number"),
             ("9.5", ",-10,9", "value 9.5 lies outside declared range [-10.0, 9.0]")]
    for cell, declared_range, problem in cases:
        edited = rows.copy()
        edited[4] = ",".join([cell] + edited[4].split(",")[1:])
        path.write_text("\n".join([header, *edited]) + "\n")
        schema.write_text(schema.read_text().replace(declared, declared + declared_range))
        assert main(["run", "--config", write_config(tmp_path, conf)]) == 1, cell
        assert capsys.readouterr().err == f"error: {path}: row 5, column 'num0': {problem}\n"
    assert not (tmp_path / "out").exists()

    path.write_bytes(path.read_bytes().replace(b"c0", b"c\xff", 1))
    assert main(["run", "--config", write_config(tmp_path, conf)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: not UTF-8 text: ")


def test_attack_subcommand(tmp_path, capsys):
    conf = write_inputs(tmp_path)
    cfg_path = write_config(tmp_path, conf)
    assert main(["run", "--config", cfg_path]) == 0
    base = ["attack", "--state", str(tmp_path / "out" / "rep0" / "state")]
    out_json = tmp_path / "attack.json"
    populations = ["--members", conf["train_csv"], "--nonmembers", conf["test_csv"]]
    assert main(base + populations + ["--out", str(out_json)]) == 0
    results = json.loads(out_json.read_text())["results"]
    assert {r["attack"] for r in results} == {"loss_based", "entropy_based"}
    assert all(0.0 <= r["auc"] <= 1.0 for r in results)

    # an attack named twice is refused, as in a config's attacks list
    assert main(base + populations + ["--attacks", "loss_based", "loss_based"]) == 1
    assert "names 'loss_based' twice" in capsys.readouterr().err
    # a member labelled with a class the model lacks is refused where the
    # CSV is read under the state's schema, not with a traceback
    lines = Path(conf["test_csv"]).read_text().splitlines()
    lines[-1] = lines[-1].rsplit(",", 1)[0] + ",c2"
    (tmp_path / "three_classes.csv").write_text("\n".join(lines) + "\n")
    populations[1] = str(tmp_path / "three_classes.csv")
    for attacks in (["loss_based"], ["entropy_based"]):
        assert main(base + populations + ["--attacks", *attacks]) == 1, attacks
        err = capsys.readouterr().err
        assert err.startswith("error:") and "three_classes.csv" in err, err
        assert f"row {len(lines) - 1}" in err and "'label'" in err and "unknown category 'c2'" in err
    # the state is the one input path: a model file and a schema file are not
    assert main(["attack", "--model", "m", "--schema", "s"] + populations) == 1


@pytest.mark.parametrize(
    "method, extra",
    [("original", {}), ("eupg_k", {"k": 3}), ("eupg_dp", {"epsilon": 2.0}), ("sisa", {})],
)
def test_attack_scores_what_run_scored(tmp_path, method, extra):
    """attack --state rep{i}/state on the training and test CSVs, with seed
    seed + i, reproduces the train_vs_test entries of run_report.json bit
    for bit."""
    conf = {**write_inputs(tmp_path), "method": method, "seed": 5, "repetitions": 2, **extra}
    assert main(["run", "--config", write_config(tmp_path, conf)]) == 0
    for rep in (0, 1):
        rep_dir = tmp_path / "out" / f"rep{rep}"
        out_json = tmp_path / f"attack{rep}.json"
        assert main([
            "attack", "--state", str(rep_dir / "state"), "--members", conf["train_csv"],
            "--nonmembers", conf["test_csv"], "--seed", str(5 + rep), "--out", str(out_json),
        ]) == 0
        run_mia = json.loads((rep_dir / "run_report.json").read_text())["mia"]
        expected = [{k: v for k, v in e.items() if k != "population"} for e in run_mia]
        assert json.loads(out_json.read_text())["results"] == expected, (method, rep)


@pytest.mark.parametrize(
    "method, extra",
    [("original", {}), ("eupg_k", {"k": 3}), ("eupg_dp", {"epsilon": 2.0}), ("sisa", {})],
)
def test_reports_score_what_the_saved_state_serves(tmp_path, method, extra):
    """The run and forget reports' utility is unlearn.predict's, on the test
    CSV, of the state each saved (rep0/state, rep0/state_after_forget), bit
    for bit; the AUC metric tells apart nearby probabilities."""
    conf = {**write_inputs(tmp_path), "method": method, "utility_metric": "auc", **extra}
    cfg_path = write_config(tmp_path, conf)
    assert main(["run", "--config", cfg_path]) == 0
    assert main(["forget", "--config", cfg_path]) == 0
    test = encode(load_csv(conf["test_csv"], load_train(conf).schema))
    rep_dir = tmp_path / "out" / "rep0"
    for command, state in [("run", "state"), ("forget", "state_after_forget")]:
        probs = unlearn.predict(unlearn.load_state(rep_dir / state), test.features)
        report = json.loads((rep_dir / f"{command}_report.json").read_text())
        assert report["utility"]["value"] == utility_from_probs(probs, test.labels, "auc"), command


def test_attack_encodes_members_under_the_state_schema(tmp_path, capsys, monkeypatch):
    """A members CSV other than the training CSV is encoded under the state's
    schema (the training table's category order and observed ranges), not
    under one learned from that CSV; a category unseen in training exits 1
    naming the file, row and column."""
    import privforget.cli as cli

    conf = write_inputs(tmp_path)
    assert main(["run", "--config", write_config(tmp_path, conf)]) == 0
    train = load_csv(conf["train_csv"], parse_schema_file(conf["schema"]))
    # test.csv lists cat0's categories in the reverse of train.csv's order
    order = train.schema[3].categories
    header, *rows = Path(conf["test_csv"]).read_text().splitlines()
    rows.sort(key=lambda row: -order.index(row.split(",")[3]))
    (tmp_path / "members.csv").write_text("\n".join([header, *rows]) + "\n")
    alone = load_csv(tmp_path / "members.csv", parse_schema_file(conf["schema"]))
    assert alone.schema[3].categories == order[::-1]

    encoded = []
    monkeypatch.setattr(cli, "encode", lambda ds: encoded.append(ds) or encode(ds))
    state = ["attack", "--state", str(tmp_path / "out" / "rep0" / "state")]
    members = ["--members", str(tmp_path / "members.csv"), "--nonmembers", conf["train_csv"]]
    assert main(state + members + ["--out", str(tmp_path / "attack.json")]) == 0
    assert [ds.schema for ds in encoded] == [train.schema, train.schema]

    rows[2] = rows[2].replace(",v", ",unseen", 1)
    (tmp_path / "members.csv").write_text("\n".join([header, *rows]) + "\n")
    capsys.readouterr()
    assert main(state + members) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tmp_path / 'members.csv'}: row 3, column 'cat0': unknown category"), err


def test_report_subcommand(tmp_path, capsys):
    conf = write_inputs(tmp_path)
    conf.update({"method": "eupg_k", "k": 3})
    cfg_path = write_config(tmp_path, conf)
    assert main(["run", "--config", cfg_path]) == 0
    assert main(["forget", "--config", cfg_path]) == 0

    out_csv = tmp_path / "flat.csv"
    assert main(["report", "--root", conf["out"], "--out", str(out_csv)]) == 0
    with open(out_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2  # one run report, one forget report
    by_cmd = {r["command"]: r for r in rows}
    assert by_cmd["run"]["method"] == "eupg_k" and by_cmd["run"]["k"] == "3"
    assert by_cmd["forget"]["n_forgotten"] == "12"
    assert "mia_loss_based_forget_vs_test" in rows[0]
    assert float(by_cmd["run"]["utility"]) >= 0.0

    assert main(["report", "--root", str(tmp_path / "nowhere")]) == 1

    # a root holding only anonymize reports has no run or forget report to flatten
    conf["out"] = str(tmp_path / "anon")
    assert main(["anonymize", "--config", write_config(tmp_path, conf)]) == 0
    capsys.readouterr()
    assert main(["report", "--root", conf["out"]]) == 1
    assert conf["out"] in capsys.readouterr().err

    # beside the anonymize report, which is skipped, a *report.json that is
    # not a JSON object, or that holds a command but not what a run or
    # forget report holds, exits 1 naming the file
    bad = Path(conf["out"]) / "x" / "r_report.json"
    bad.parent.mkdir()
    for content, message in [
        (7, "not a report: expected a JSON object"),
        ([], "not a report: expected a JSON object"),
        ({"command": "run"}, "not a run or forget report: it lacks key 'method'"),
        ({"command": "run", "method": "sisa", "params": [1]}, "not a run or forget report: "),
    ]:
        bad.write_text(json.dumps(content))
        assert main(["report", "--root", conf["out"]]) == 1, content
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: {message}"), (content, err)


def test_sweep_runs_and_resumes(tmp_path, capsys, monkeypatch):
    conf = write_inputs(tmp_path)
    conf["sweep"] = {"method": ["eupg_k"], "k": [2, 3]}
    cfg_path = write_config(tmp_path, conf)
    monkeypatch.chdir(tmp_path)
    # an absolute out, then a relative out under a relative output root,
    # which each point's run and forget must root exactly once
    for out, root, where in [
        (str(tmp_path / "out"), None, tmp_path / "out"),
        ("out", "rootdir", tmp_path / "rootdir" / "out"),
    ]:
        if root is not None:
            monkeypatch.setenv("PRIVFORGET_OUTPUT_ROOT", root)
        overrides = ["--set", f"out={out}"]
        assert main(["sweep", "--config", cfg_path, *overrides]) == 0
        manifest = json.loads((where / "sweep_manifest.json").read_text())
        assert len(manifest["points"]) == 2
        assert len(manifest["completed_this_invocation"]) == 2
        for name in manifest["points"]:
            point_dir = where / "points" / name
            assert (point_dir / "summary.json").exists()
            assert (point_dir / "forget_summary.json").exists()

        # second invocation finds everything done and reruns nothing
        assert main(["sweep", "--config", cfg_path, *overrides]) == 0
        manifest = json.loads((where / "sweep_manifest.json").read_text())
        assert manifest["completed_this_invocation"] == []
        assert len(manifest["skipped_as_done"]) == 2


def test_sweep_point_grid_drops_irrelevant_axes():
    conf = dict(DEFAULTS)
    conf["sweep"] = {
        "method": ["eupg_k", "eupg_dp", "sisa"],
        "k": [3, 5],
        "epsilon": [0.5],
    }
    points = _sweep_points(conf)
    # eupg_k x {3,5}, eupg_dp x {0.5}, sisa deduplicated to one point
    assert len(points) == 4
    for p in points:
        if p["method"] == "eupg_k":
            assert "epsilon" not in p
        if p["method"] == "eupg_dp":
            assert "k" not in p
        if p["method"] == "sisa":
            assert "k" not in p and "epsilon" not in p

    # SISA's own axes do not multiply the points of the other methods
    conf["sweep"] = {"method": ["eupg_k", "original"], "k": [3], "n_shards": [2, 5]}
    assert _sweep_points(conf) == [{"k": 3, "method": "eupg_k"}, {"method": "original"}]

    from privforget.data import DataError

    for grid, message in [
        ({"bogus": [1]}, "unknown config key"),
        ({"attacks": [["loss_based"], ["entropy_based"]]}, "'attacks'"),
    ]:
        bad = dict(DEFAULTS)
        bad["sweep"] = grid
        with pytest.raises(DataError, match=message):
            _sweep_points(bad)


def test_load_config_defaults_and_types(tmp_path):
    conf = load_config(None)
    assert conf["method"] == "original"
    assert conf["repetitions"] == 1
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"repetitions": 0}))
    from privforget.data import DataError

    with pytest.raises(DataError, match="repetitions"):
        load_config(path)
    path.write_text(json.dumps({"attacks": ["loss_based", "psychic"]}))
    with pytest.raises(DataError, match="unknown attack"):
        load_config(path)
    path.write_text(json.dumps({"epochs": "7", "epsilon": 2, "forget_ratio": None}))
    typed = load_config(path)
    assert (typed["epochs"], typed["epsilon"], typed["forget_ratio"]) == (7, 2.0, None)
    assert isinstance(typed["epsilon"], float)
    path.write_text(json.dumps({"utility_metric": "f1"}))
    with pytest.raises(DataError, match="utility_metric"):
        load_config(path)
    path.write_text(json.dumps([1, 2]))
    with pytest.raises(DataError, match="JSON object"):
        load_config(path)
