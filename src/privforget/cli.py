"""Command line for the privacy-protected unlearning pipeline.

Subcommands: anonymize (write a protected copy of a dataset), run (train a
method and attack it), forget (serve a forgetting request against a
previous run), attack (membership inference against a saved model), sweep
(grid of runs/forgets, resumable), report (flatten report JSONs to CSV).

Configuration comes from a JSON file; every key can be overridden on the
command line with ``--set key=value``.  Precedence: flag > config file >
built-in default.  Relative output directories are rooted at
``$PRIVFORGET_OUTPUT_ROOT`` when that variable is set.
"""
from __future__ import annotations

import argparse
import csv as csvmod
import dataclasses
import itertools
import json
import os
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from . import attack as attack_mod
from . import dpanon, kanon, mlp, unlearn
from .data import (
    NUMERIC,
    DataError,
    ForgetRequest,
    Provenance,
    TabularDataset,
    encode,
    encoded_width,
    load_csv,
    parse_schema_file,
    split_forget,
    write_csv,
)
from .mlp import ModelError, TrainConfig, TrainingDiverged

METHODS = ("original", "eupg_k", "eupg_dp", "sisa")

DEFAULTS: dict = {
    "train_csv": None,
    "test_csv": None,
    "schema": None,
    "method": "original",
    "k": None,
    "epsilon": None,
    "n_shards": 5,
    "n_slices": 10,
    "hidden_units": 128,
    "batch_size": 512,
    "learning_rate": 1e-2,
    "epochs": 100,
    "finetune_epochs": 5,
    "seed": 0,
    "privacy_seed": None,
    "forget_seed": None,
    "forget_ratio": 0.05,
    "utility_metric": "accuracy",
    "attacks": ["loss_based", "entropy_based"],
    "repetitions": 1,
    "utility_file": None,
    "clamp_out_of_range": False,
    "shuffle": True,
    "out": "privforget-out",
    "run_dir": None,
    "sweep": None,
}

DEFAULT_SWEEP = {
    "method": ["eupg_k", "eupg_dp"],
    "k": [3, 5, 10, 20, 80],
    "epsilon": [0.5, 2.5, 5.0, 25.0, 50.0, 100.0],
    "finetune_epochs": [0, 5, 10, 20],
    "forget_ratio": [0.05, 0.1, 0.2, 0.5],
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------------------
# configuration plumbing

def _parse_set(pairs) -> dict:
    out = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise UsageError(f"--set expects key=value, got {pair!r}")
        key, _, raw = pair.partition("=")
        try:
            out[key] = json.loads(raw)
        except json.JSONDecodeError:
            out[key] = raw
    return out


def load_config(config_path, overrides: dict | None = None) -> dict:
    conf = dict(DEFAULTS)
    if config_path is not None:
        try:
            file_conf = json.loads(Path(config_path).read_text())
        except FileNotFoundError:
            raise DataError(f"config file not found: {config_path}") from None
        if not isinstance(file_conf, dict):
            raise DataError(f"{config_path}: config must be a JSON object")
        for key in file_conf:
            if key not in DEFAULTS:
                raise DataError(f"{config_path}: unknown config key {key!r}")
        conf.update(file_conf)
    for key, value in (overrides or {}).items():
        if key not in DEFAULTS:
            raise UsageError(f"unknown config key {key!r}")
        conf[key] = value
    if conf["method"] not in METHODS:
        raise DataError(f"unknown method {conf['method']!r}; expected one of {METHODS}")
    for atk in conf["attacks"]:
        if atk not in attack_mod.ATTACKS:
            raise DataError(f"unknown attack {atk!r}; expected one of {attack_mod.ATTACKS}")
    if conf["utility_metric"] not in ("accuracy", "auc"):
        raise DataError("utility_metric must be 'accuracy' or 'auc'")
    if int(conf["repetitions"]) < 1:
        raise DataError("repetitions must be >= 1")
    return conf


def resolve_out(conf: dict) -> Path:
    out = Path(conf["out"])
    root = os.environ.get("PRIVFORGET_OUTPUT_ROOT")
    if root and not out.is_absolute():
        out = Path(root) / out
    return out


def _require(conf: dict, *keys):
    for key in keys:
        if conf.get(key) is None:
            raise DataError(f"config key {key!r} is required for this command")


def _clamp_declared(ds: TabularDataset) -> TabularDataset:
    rows = np.array(ds.rows)
    for j, attr in enumerate(ds.schema):
        if attr.kind == NUMERIC and attr.declared_range is not None:
            lo, hi = attr.declared_range
            rows[:, j] = np.clip(rows[:, j], lo, hi)
    return TabularDataset(ds.schema, rows, ds.provenance, ds.source_indices)


def load_train_test(conf: dict):
    """Load train and test CSVs; the test set is parsed and encoded under the
    schema learned from the training data (category order, observed ranges)."""
    _require(conf, "train_csv", "schema")
    schema = parse_schema_file(conf["schema"])
    train = load_csv(conf["train_csv"], schema)
    test = None
    if conf.get("test_csv"):
        parsed = load_csv(conf["test_csv"], train.schema)
        test = TabularDataset(train.schema, parsed.rows, Provenance.raw())
    if conf["clamp_out_of_range"]:
        train = _clamp_declared(train)
        if test is not None:
            test = _clamp_declared(test)
    return train, test


def _train_config(conf: dict, seed: int) -> TrainConfig:
    return TrainConfig(
        batch_size=int(conf["batch_size"]),
        learning_rate=float(conf["learning_rate"]),
        epochs=int(conf["epochs"]),
        seed=seed,
        shuffle=bool(conf["shuffle"]),
    )


def _privacy_spec(conf: dict, privacy_seed: int, schema) -> unlearn.PrivacySpec:
    """schema is the loaded training table's, whose category lists are filled in."""
    method = conf["method"]
    if method == "eupg_k":
        if conf["k"] is None:
            raise DataError("method eupg_k requires config key 'k'")
        return unlearn.PrivacySpec.k_anonymity(int(conf["k"]))
    if method == "eupg_dp":
        if conf["epsilon"] is None:
            raise DataError("method eupg_dp requires config key 'epsilon'")
        mechanisms = None
        if conf["utility_file"]:
            mechanisms = dpanon.load_utility_file(conf["utility_file"], schema)
        return unlearn.PrivacySpec.dp(
            float(conf["epsilon"]), seed=privacy_seed, mechanisms=mechanisms
        )
    raise DataError(f"method {method!r} has no privacy spec")


# ---------------------------------------------------------------------------
# metrics

def _mia_entries(probs_fn, members, nonmembers, attacks, seed, population=None) -> list[dict]:
    """One entry per attack on a balanced member/non-member pair; the
    population key is left out when no population is named."""
    m, nm = attack_mod.balanced_pair(members, nonmembers, seed)
    m_probs = probs_fn(m.features)
    nm_probs = probs_fn(nm.features)
    entries = []
    for atk in attacks:
        res = attack_mod.mia_from_probs(m_probs, m.labels, nm_probs, nm.labels, atk)
        entry = {
            "attack": atk,
            "population": population,
            "auc": res.auc,
            "n_members": res.n_members,
            "n_nonmembers": res.n_nonmembers,
        }
        if population is None:
            del entry["population"]
        entries.append(entry)
    return entries


def _params_block(conf: dict) -> dict:
    method = conf["method"]
    if method == "eupg_k":
        return {"k": int(conf["k"])}
    if method == "eupg_dp":
        return {"epsilon": float(conf["epsilon"])}
    if method == "sisa":
        return {"n_shards": int(conf["n_shards"]), "n_slices": int(conf["n_slices"])}
    return {}


def _write_report(path: Path, report: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2))


def _summarize(reports: list[dict]) -> dict:
    """Mean and population standard deviation per numeric metric."""
    metrics: dict[str, list[float]] = {}
    for rep in reports:
        metrics.setdefault("utility", []).append(rep["utility"]["value"])
        for key, value in rep["timings_s"].items():
            metrics.setdefault(f"timing_{key}", []).append(value)
        for entry in rep["mia"]:
            key = f"mia_{entry['attack']}_{entry['population']}"
            metrics.setdefault(key, []).append(entry["auc"])
    summary = {}
    for key, values in metrics.items():
        arr = np.array(values)
        summary[key] = {
            "mean": float(arr.mean()),
            "std": float(arr.std(ddof=0)),
            "n": len(values),
        }
    return summary


# ---------------------------------------------------------------------------
# subcommands

def cmd_anonymize(conf: dict) -> int:
    """Write a protected copy of the training CSV plus a protection report."""
    _require(conf, "train_csv", "schema")
    out = resolve_out(conf)
    out.mkdir(parents=True, exist_ok=True)
    train, _ = load_train_test(conf)
    method = conf["method"]
    if method not in ("eupg_k", "eupg_dp"):
        raise DataError("anonymize requires method 'eupg_k' or 'eupg_dp'")
    privacy_seed = conf["privacy_seed"] if conf["privacy_seed"] is not None else conf["seed"]
    spec = _privacy_spec(conf, int(privacy_seed), train.schema)
    t0 = time.perf_counter()
    protected, ledger = unlearn.protect(train, spec)
    seconds = time.perf_counter() - t0
    write_csv(protected, out / "protected.csv")
    report = {
        "format_version": 1,
        "method": method,
        "params": _params_block(conf),
        "rows": protected.n_rows,
        "seconds": seconds,
        "seed": int(privacy_seed),
        "budget_ledger": ledger.to_json_dict() if ledger else None,
        "kanonymity": None,
    }
    if method == "eupg_k":
        check = kanon.verify_k_anonymity(protected, int(conf["k"]))
        report["kanonymity"] = dataclasses.asdict(check)
        if not check.ok:
            raise DataError(
                f"protected output failed k-anonymity verification: "
                f"{check.violating_groups} group(s) smaller than {check.k}"
            )
    _write_report(out / "anonymize_report.json", report)
    print(f"wrote {out / 'protected.csv'} ({protected.n_rows} rows)")
    return 0


def _report(conf, command, rep, rep_dir, fitted, train, test, populations, **fields) -> dict:
    """Score a fitted model, ensemble or state on the test set and against
    membership inference, then write ``<command>_report.json``.

    populations maps each population name to the member rows attacked
    against the test rows.  fields fill the command-specific report keys in
    place (timings_s, forget, artifacts, budget_ledger, kanonymity) and seeds
    the privacy and forget seeds, so the key order is fixed here.
    """
    method = conf["method"]
    base_seed = int(conf["seed"]) + rep
    seeds = {"train": base_seed, "privacy": None, "forget": None, "mia": base_seed}
    seeds.update(fields.pop("seeds", {}))
    if method == "sisa":
        probs_fn = lambda X: unlearn.sisa_predict(fitted, X)
    else:
        model = fitted.deployed_model if isinstance(fitted, unlearn.EupgState) else fitted
        probs_fn = lambda X: mlp.forward(model, X)
    test_em = encode(test)
    utility = mlp.utility_from_probs(
        probs_fn(test_em.features), test_em.labels, conf["utility_metric"]
    )
    mia = []
    for population, members in populations.items():
        mia += _mia_entries(
            probs_fn, encode(members), test_em, conf["attacks"], base_seed, population
        )
    report = {
        "format_version": 1,
        "command": command,
        "method": method,
        "params": _params_block(conf),
        "repetition": rep,
        "seeds": seeds,
        "dataset": {
            "train_rows": train.n_rows,
            "test_rows": test.n_rows,
            "n_classes": len(train.schema[train.class_index].categories),
            "encoded_width": encoded_width(train.schema),
        },
        "config": {k: v for k, v in conf.items() if k != "sweep"},
        "timings_s": None,
        "utility": {"metric": conf["utility_metric"], "value": utility},
        "mia": mia,
        "forget": None,
        "artifacts": None,
        "budget_ledger": None,
        "kanonymity": None,
        **fields,
    }
    _write_report(rep_dir / f"{command}_report.json", report)
    return report


def _run_one(conf: dict, rep: int, rep_dir: Path, train, test) -> dict:
    method = conf["method"]
    base_seed = int(conf["seed"]) + rep
    cfg = _train_config(conf, base_seed)
    privacy_seed = (
        int(conf["privacy_seed"]) if conf["privacy_seed"] is not None else base_seed
    )
    hidden = int(conf["hidden_units"])
    timings: dict[str, float] = {}
    fields: dict = {}

    if method == "original":
        t0 = time.perf_counter()
        fitted = unlearn.retrain_scratch(train, cfg, hidden)
        timings["train"] = time.perf_counter() - t0
        mlp.save_model(fitted, rep_dir / "original.model")
        fields["artifacts"] = {"model": str(rep_dir / "original.model")}
    elif method in ("eupg_k", "eupg_dp"):
        spec = _privacy_spec(conf, privacy_seed, train.schema)
        fitted = unlearn.eupg_prepare(
            train, spec, cfg, int(conf["finetune_epochs"]), hidden
        )
        timings.update(fitted.timings)
        unlearn.save_eupg_state(fitted, rep_dir / "state")
        fields["artifacts"] = {"state_dir": str(rep_dir / "state")}
        fields["seeds"] = {"privacy": privacy_seed}
        if fitted.dp_ledger:
            fields["budget_ledger"] = fitted.dp_ledger.to_json_dict()
        if method == "eupg_k":
            check = kanon.verify_k_anonymity(fitted.protected_data, int(conf["k"]))
            fields["kanonymity"] = dataclasses.asdict(check)
    else:
        t0 = time.perf_counter()
        fitted = unlearn.sisa_train(
            train, int(conf["n_shards"]), int(conf["n_slices"]), cfg, hidden
        )
        timings["train"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        unlearn.save_shard_store(fitted, rep_dir / "state")
        timings["artifact_io"] = time.perf_counter() - t0
        fields["artifacts"] = {"state_dir": str(rep_dir / "state")}

    populations = {"train_vs_test": train}
    return _report(
        conf, "run", rep, rep_dir, fitted, train, test, populations, timings_s=timings, **fields
    )


def cmd_run(conf: dict) -> int:
    """Train the configured method, measure utility and attack strength."""
    _require(conf, "train_csv", "test_csv", "schema")
    out = resolve_out(conf)
    out.mkdir(parents=True, exist_ok=True)
    train, test = load_train_test(conf)
    reports = []
    for rep in range(int(conf["repetitions"])):
        rep_dir = out / f"rep{rep}"
        rep_dir.mkdir(parents=True, exist_ok=True)
        report = _run_one(conf, rep, rep_dir, train, test)
        reports.append(report)
        print(
            f"rep{rep}: {conf['method']} utility={report['utility']['value']:.4f} "
            + " ".join(
                f"{e['attack']}/{e['population']}={e['auc']:.4f}" for e in report["mia"]
            )
        )
    (out / "summary.json").write_text(json.dumps(_summarize(reports), indent=2))
    return 0


def _forget_one(conf: dict, rep: int, rep_dir: Path, train, test) -> dict:
    method = conf["method"]
    base_seed = int(conf["seed"]) + rep
    cfg = _train_config(conf, base_seed)
    hidden = int(conf["hidden_units"])
    forget_base = (
        int(conf["forget_seed"]) if conf["forget_seed"] is not None else base_seed
    )
    request = ForgetRequest.from_ratio(
        train.n_rows, float(conf["forget_ratio"]), forget_base + rep
    )
    retain, forget_part = split_forget(train, request)
    timings: dict[str, float] = {}
    after_dir = rep_dir / "state_after_forget"

    if method == "original":
        t0 = time.perf_counter()
        new_obj = unlearn.retrain_scratch(retain, cfg, hidden)
        timings["forget"] = time.perf_counter() - t0
        after_dir.mkdir(parents=True, exist_ok=True)
        mlp.save_model(new_obj, after_dir / "original.model")
    elif method in ("eupg_k", "eupg_dp"):
        state = unlearn.load_eupg_state(rep_dir / "state")
        new_obj = unlearn.eupg_forget(
            state, train, request, epochs=int(conf["finetune_epochs"])
        )
        timings["forget"] = new_obj.timings["forget"]
        unlearn.save_eupg_state(new_obj, after_dir)
    else:
        store = unlearn.load_shard_store(rep_dir / "state", train)
        t0 = time.perf_counter()
        new_obj = unlearn.sisa_forget(store, request)
        timings["forget"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        unlearn.save_shard_store(new_obj, after_dir)
        timings["artifact_io"] = time.perf_counter() - t0

    return _report(
        conf,
        "forget",
        rep,
        rep_dir,
        new_obj,
        train,
        test,
        {"forget_vs_test": forget_part, "retain_vs_test": retain},
        timings_s=timings,
        seeds={"forget": forget_base + rep},
        forget={
            "ratio": float(conf["forget_ratio"]),
            "n_forgotten": forget_part.n_rows,
            "epochs": int(conf["finetune_epochs"]) if method.startswith("eupg") else None,
        },
        artifacts={"state_dir": str(after_dir)},
    )


def cmd_forget(conf: dict) -> int:
    """Serve a forgetting request against the artifacts of a previous run."""
    _require(conf, "train_csv", "test_csv", "schema")
    run_dir = Path(conf["run_dir"]) if conf["run_dir"] else resolve_out(conf)
    if not run_dir.exists():
        raise DataError(f"run directory not found: {run_dir} (run 'run' first)")
    train, test = load_train_test(conf)
    reports = []
    for rep in range(int(conf["repetitions"])):
        rep_dir = run_dir / f"rep{rep}"
        if not rep_dir.exists():
            raise DataError(f"missing repetition directory {rep_dir}")
        report = _forget_one(conf, rep, rep_dir, train, test)
        reports.append(report)
        print(
            f"rep{rep}: forget {report['forget']['n_forgotten']} rows "
            f"in {report['timings_s']['forget']:.2f}s "
            f"utility={report['utility']['value']:.4f}"
        )
    (run_dir / "forget_summary.json").write_text(
        json.dumps(_summarize(reports), indent=2)
    )
    return 0


def cmd_attack(args) -> int:
    """Membership inference against a saved model file."""
    model = mlp.load_model(args.model)
    schema = parse_schema_file(args.schema)
    members_ds = load_csv(args.members, schema)
    nonmembers_parsed = load_csv(args.nonmembers, members_ds.schema)
    nonmembers_ds = TabularDataset(
        members_ds.schema, nonmembers_parsed.rows, Provenance.raw()
    )
    results = _mia_entries(
        lambda X: mlp.forward(model, X),
        encode(members_ds),
        encode(nonmembers_ds),
        args.attacks,
        args.seed,
    )
    payload = json.dumps({"seed": args.seed, "results": results}, indent=2)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(payload)
    else:
        print(payload)
    return 0


def _sweep_points(conf: dict) -> list[dict]:
    """Cartesian product of the sweep axes, with per-method irrelevant axes
    dropped and the resulting duplicate points removed."""
    grid = conf["sweep"] if conf["sweep"] else DEFAULT_SWEEP
    for key in grid:
        if key not in DEFAULTS or key == "sweep":
            raise DataError(f"sweep: unknown config key {key!r}")
        if not isinstance(grid[key], list) or not grid[key]:
            raise DataError(f"sweep: {key!r} must map to a non-empty list")
    keys = sorted(grid)
    seen = set()
    points = []
    for values in itertools.product(*(grid[k] for k in keys)):
        point = dict(zip(keys, values))
        method = point.get("method", conf["method"])
        if method != "eupg_k":
            point.pop("k", None)
        if method != "eupg_dp":
            point.pop("epsilon", None)
        if method not in ("eupg_k", "eupg_dp"):
            point.pop("finetune_epochs", None)
        if method == "eupg_k" and "k" in grid and point.get("k") is None:
            continue
        key = tuple(sorted(point.items()))
        if key in seen:
            continue
        seen.add(key)
        points.append(point)
    return points


def _point_name(point: dict) -> str:
    return ",".join(f"{k}={point[k]}" for k in sorted(point))


def cmd_sweep(conf: dict) -> int:
    """Run a grid of configurations; completed points are skipped on rerun."""
    _require(conf, "train_csv", "test_csv", "schema")
    out = resolve_out(conf)
    out.mkdir(parents=True, exist_ok=True)
    points = _sweep_points(conf)
    completed = []
    skipped = []
    for point in points:
        name = _point_name(point)
        point_dir = out / "points" / name
        merged = dict(conf)
        merged.update(point)
        merged["sweep"] = None
        merged["out"] = str(point_dir)
        merged["run_dir"] = str(point_dir)
        wants_forget = merged.get("forget_ratio") is not None
        run_done = (point_dir / "summary.json").exists()
        forget_done = (point_dir / "forget_summary.json").exists()
        if run_done and (not wants_forget or forget_done):
            skipped.append(name)
            continue
        print(f"sweep point: {name}")
        if not run_done:
            cmd_run(merged)
        if wants_forget and not forget_done:
            cmd_forget(merged)
        completed.append(name)
    manifest = {
        "points": [_point_name(p) for p in points],
        "completed_this_invocation": completed,
        "skipped_as_done": skipped,
    }
    (out / "sweep_manifest.json").write_text(json.dumps(manifest, indent=2))
    print(f"sweep: {len(completed)} point(s) run, {len(skipped)} already done")
    return 0


_REPORT_COLUMNS = [
    "path",
    "command",
    "method",
    "k",
    "epsilon",
    "n_shards",
    "n_slices",
    "repetition",
    "finetune_epochs",
    "forget_ratio",
    "n_forgotten",
    "utility_metric",
    "utility",
]


def cmd_report(args) -> int:
    """Flatten every *report.json under a directory into one CSV table."""
    root = Path(args.root)
    if not root.exists():
        raise DataError(f"no such directory: {root}")
    files = sorted(root.rglob("*report.json"))
    if not files:
        raise DataError(f"no report JSONs found under {root}")
    rows = []
    extra_cols: list[str] = []
    for path in files:
        rep = json.loads(path.read_text())
        if "command" not in rep:
            continue
        row = {
            "path": str(path.relative_to(root)),
            "command": rep["command"],
            "method": rep["method"],
            "k": rep["params"].get("k"),
            "epsilon": rep["params"].get("epsilon"),
            "n_shards": rep["params"].get("n_shards"),
            "n_slices": rep["params"].get("n_slices"),
            "repetition": rep["repetition"],
            "finetune_epochs": rep["config"].get("finetune_epochs"),
            "forget_ratio": (rep.get("forget") or {}).get("ratio"),
            "n_forgotten": (rep.get("forget") or {}).get("n_forgotten"),
            "utility_metric": rep["utility"]["metric"],
            "utility": rep["utility"]["value"],
        }
        for entry in rep["mia"]:
            col = f"mia_{entry['attack']}_{entry['population']}"
            row[col] = entry["auc"]
            if col not in extra_cols:
                extra_cols.append(col)
        for key, value in rep["timings_s"].items():
            col = f"timing_{key}"
            row[col] = value
            if col not in extra_cols:
                extra_cols.append(col)
        rows.append(row)
    columns = _REPORT_COLUMNS + sorted(extra_cols)
    target = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        writer = csvmod.DictWriter(target, fieldnames=columns, restval="")
        writer.writeheader()
        writer.writerows(rows)
    finally:
        if args.out:
            target.close()
    if args.out:
        print(f"wrote {args.out} ({len(rows)} rows)")
    return 0


# ---------------------------------------------------------------------------
# entry point

def build_parser() -> _Parser:
    parser = _Parser(prog="privforget", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_config_command(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file")
        p.add_argument(
            "--set",
            action="append",
            metavar="KEY=VALUE",
            help="override a config key (JSON value or bare string); repeatable",
        )
        return p

    add_config_command("anonymize", "write a privacy-protected copy of a dataset")
    add_config_command("run", "train the configured method and attack it")
    add_config_command("forget", "serve a forgetting request against a previous run")
    add_config_command("sweep", "grid of runs and forgets; resumable")

    p_attack = sub.add_parser("attack", help="membership inference on a saved model")
    p_attack.add_argument("--model", required=True, help="model file")
    p_attack.add_argument("--schema", required=True, help="schema file")
    p_attack.add_argument("--members", required=True, help="CSV of training members")
    p_attack.add_argument("--nonmembers", required=True, help="CSV of non-members")
    p_attack.add_argument(
        "--attacks",
        nargs="+",
        default=list(attack_mod.ATTACKS),
        choices=list(attack_mod.ATTACKS),
    )
    p_attack.add_argument("--seed", type=int, default=0)
    p_attack.add_argument("--out", help="write results JSON here instead of stdout")

    p_report = sub.add_parser("report", help="flatten report JSONs to CSV")
    p_report.add_argument("--root", required=True, help="directory to scan")
    p_report.add_argument("--out", help="CSV output path (default: stdout)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.subcommand == "attack":
            return cmd_attack(args)
        if args.subcommand == "report":
            return cmd_report(args)
        conf = load_config(args.config, _parse_set(args.set))
        handler = {
            "anonymize": cmd_anonymize,
            "run": cmd_run,
            "forget": cmd_forget,
            "sweep": cmd_sweep,
        }[args.subcommand]
        return handler(conf)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (DataError, ModelError, TrainingDiverged, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit:
        raise
    except Exception:
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
