import csv
import json
from importlib.resources import files
from pathlib import Path

import jsonschema
import pytest

from privforget.cli import DEFAULTS, _sweep_points, load_config, main
from privforget.data import write_csv
from privforget.unlearn import load_eupg_state

from conftest import make_dataset

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
    assert run_report["params"] == (
        {"k": 3}
        if method == "eupg_k"
        else {"epsilon": 2.0} if method == "eupg_dp" else {"n_shards": 2, "n_slices": 2}
    )
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
    assert after_dir.exists()
    if method != "sisa":
        after = load_eupg_state(after_dir)
        assert [e.n_forgotten for e in after.audit_log] == [12]
        assert after.protected_data.n_rows == 120
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
    assert main(["run", "--config", write_config(tmp_path, good), "--set", "nope=1"]) == 1
    assert main(["run", "--config", str(tmp_path / "missing.json")]) == 1
    assert main(["run", "--config", write_config(tmp_path, good), "--set", "method=warp"]) == 1
    assert main([]) == 1
    assert main(["run", "--set", "oops"]) == 1


def test_missing_inputs_exit_one(tmp_path, capsys):
    conf = write_inputs(tmp_path)
    conf["train_csv"] = str(tmp_path / "gone.csv")
    assert main(["run", "--config", write_config(tmp_path, conf)]) == 1
    conf2 = write_inputs(tmp_path)
    del conf2["test_csv"]
    conf2.pop("train_csv")
    assert main(["run", "--config", write_config(tmp_path, conf2)]) == 1
    assert "required" in capsys.readouterr().err


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


def test_anonymize_dp(tmp_path):
    conf = write_inputs(tmp_path)
    conf.update({"method": "eupg_dp", "epsilon": 1.0})
    assert main(["anonymize", "--config", write_config(tmp_path, conf)]) == 0
    report = json.loads((tmp_path / "out" / "anonymize_report.json").read_text())
    ledger = report["budget_ledger"]
    assert ledger["epsilon_total"] == 1.0
    assert len(ledger["entries"]) == 5  # all non-class attributes
    conf["method"] = "original"
    assert main(["anonymize", "--config", write_config(tmp_path, conf)]) == 1


def test_attack_subcommand(tmp_path):
    conf = write_inputs(tmp_path)
    cfg_path = write_config(tmp_path, conf)
    assert main(["run", "--config", cfg_path]) == 0
    model_path = tmp_path / "out" / "rep0" / "original.model"
    out_json = tmp_path / "attack.json"
    code = main(
        [
            "attack",
            "--model",
            str(model_path),
            "--schema",
            conf["schema"],
            "--members",
            conf["train_csv"],
            "--nonmembers",
            conf["test_csv"],
            "--out",
            str(out_json),
        ]
    )
    assert code == 0
    results = json.loads(out_json.read_text())["results"]
    assert {r["attack"] for r in results} == {"loss_based", "entropy_based"}
    assert all(0.0 <= r["auc"] <= 1.0 for r in results)


def test_report_subcommand(tmp_path):
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


def test_sweep_runs_and_resumes(tmp_path, capsys):
    conf = write_inputs(tmp_path)
    conf["sweep"] = {"method": ["eupg_k"], "k": [2, 3]}
    cfg_path = write_config(tmp_path, conf)
    assert main(["sweep", "--config", cfg_path]) == 0
    manifest = json.loads((tmp_path / "out" / "sweep_manifest.json").read_text())
    assert len(manifest["points"]) == 2
    assert len(manifest["completed_this_invocation"]) == 2
    for name in manifest["points"]:
        point_dir = tmp_path / "out" / "points" / name
        assert (point_dir / "summary.json").exists()
        assert (point_dir / "forget_summary.json").exists()

    # second invocation finds everything done and reruns nothing
    assert main(["sweep", "--config", cfg_path]) == 0
    manifest = json.loads((tmp_path / "out" / "sweep_manifest.json").read_text())
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

    bad = dict(DEFAULTS)
    bad["sweep"] = {"bogus": [1]}
    from privforget.data import DataError

    with pytest.raises(DataError, match="unknown config key"):
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
    path.write_text(json.dumps({"utility_metric": "f1"}))
    with pytest.raises(DataError, match="utility_metric"):
        load_config(path)
    path.write_text(json.dumps([1, 2]))
    with pytest.raises(DataError, match="JSON object"):
        load_config(path)
