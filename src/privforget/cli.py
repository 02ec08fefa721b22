"""Command line for the privacy-protected unlearning pipeline.

Subcommands: anonymize (write a protected copy of a dataset), run (train a
method and attack it), forget (serve a forgetting request against a
previous run), attack (membership inference against a saved state), sweep
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
import functools
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
    DataError,
    EncodedMatrix,
    ForgetRequest,
    TabularDataset,
    encode,
    encoded_width,
    load_csv,
    parse_schema_file,
    read_json,
    write_csv,
)
from .mlp import ModelError, TrainConfig, TrainingDiverged

# each method's own config keys: its reports' params block and its sweep axes
METHOD_PARAMS = {
    "original": (),
    "eupg_k": ("k",),
    "eupg_dp": ("epsilon",),
    "sisa": ("n_shards", "n_slices"),
}
METHODS = tuple(METHOD_PARAMS)

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
    "out": "privforget-out",
    "sweep": None,
}

# numeric config keys, typed on load; the NULLABLE ones may be null (unset)
INTEGER_KEYS = ("k", "n_shards", "n_slices", "hidden_units", "batch_size", "epochs",
                "finetune_epochs", "seed", "privacy_seed", "forget_seed", "repetitions")
REAL_KEYS = ("epsilon", "learning_rate", "forget_ratio")
NULLABLE = ("k", "epsilon", "privacy_seed", "forget_seed", "forget_ratio")
# file path config keys, null when unset; the output directory `out` is never null
PATH_KEYS = ("train_csv", "test_csv", "schema", "utility_file")

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
            file_conf = read_json(config_path)
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
    return _validated(conf)


def _number(key: str, value):
    """value as a non-negative int or a float, per key; DataError naming key
    when it is not one."""
    kind = int if key in INTEGER_KEYS else float
    try:
        if isinstance(value, bool):
            raise TypeError
        number = kind(value)
        # 2.5 or -3 for an integer key (each is a count or a seed), or NaN
        if number != float(value) or (kind is int and number < 0):
            raise ValueError
    except (TypeError, ValueError, OverflowError):
        expected = "a non-negative integer" if kind is int else "a number"
        raise DataError(f"config key {key!r} must be {expected}, got {value!r}") from None
    return number


def _check_attacks(attacks, source: str) -> None:
    """DataError unless attacks is a list of known attack names, none repeated."""
    if not isinstance(attacks, list):
        raise DataError(f"{source} must be a list of names, got {attacks!r}")
    for i, atk in enumerate(attacks):
        if atk not in attack_mod.ATTACKS:
            raise DataError(f"unknown attack {atk!r}; expected one of {attack_mod.ATTACKS}")
        if atk in attacks[:i]:
            raise DataError(f"{source} names {atk!r} twice")


def _validated(conf: dict) -> dict:
    """Check a complete config and type its numeric keys, in place."""
    for key in PATH_KEYS + ("out",):
        if not isinstance(conf[key], str) and (conf[key] is not None or key == "out"):
            nullable = "" if key == "out" else " or null"
            raise DataError(f"config key {key!r} must be a JSON string{nullable}, got {conf[key]!r}")
    for key in INTEGER_KEYS + REAL_KEYS:
        if conf[key] is not None or key not in NULLABLE:
            conf[key] = _number(key, conf[key])
    if conf["method"] not in METHODS:
        raise DataError(f"unknown method {conf['method']!r}; expected one of {METHODS}")
    _check_attacks(conf["attacks"], "config key 'attacks'")
    if conf["sweep"] is not None and not isinstance(conf["sweep"], dict):
        raise DataError(f"config key 'sweep' must be a JSON object, got {conf['sweep']!r}")
    if conf["utility_metric"] not in ("accuracy", "auc"):
        raise DataError("utility_metric must be 'accuracy' or 'auc'")
    if conf["repetitions"] < 1:
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


def load_train(conf: dict) -> TabularDataset:
    """Load the training CSV under the schema file."""
    _require(conf, "train_csv", "schema")
    return load_csv(conf["train_csv"], parse_schema_file(conf["schema"]))


def _train_config(conf: dict, seed: int) -> TrainConfig:
    return TrainConfig(
        batch_size=conf["batch_size"],
        learning_rate=conf["learning_rate"],
        epochs=conf["epochs"],
        seed=seed,
    )


def _privacy_spec(conf: dict, privacy_seed: int, schema) -> unlearn.PrivacySpec:
    """schema is the loaded training table's, whose category lists are filled in."""
    method = conf["method"]
    if method == "eupg_k":
        if conf["k"] is None:
            raise DataError("method eupg_k requires config key 'k'")
        return unlearn.PrivacySpec.k_anonymity(conf["k"])
    if method == "eupg_dp":
        if conf["epsilon"] is None:
            raise DataError("method eupg_dp requires config key 'epsilon'")
        mechanisms = None
        if conf["utility_file"]:
            mechanisms = dpanon.load_utility_file(conf["utility_file"], schema)
        return unlearn.PrivacySpec.dp(conf["epsilon"], seed=privacy_seed, mechanisms=mechanisms)
    raise DataError(f"method {method!r} has no privacy spec")


# ---------------------------------------------------------------------------
# metrics

def _mia_entries(m, m_probs, nm, nm_probs, attacks, population=None) -> list[dict]:
    """One entry per attack on a balanced member/non-member pair and the
    class probabilities predicted for each side; the population key is left
    out when no population is named."""
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
    return {key: conf[key] for key in METHOD_PARAMS[conf["method"]]}


def _state_params(conf: dict) -> dict:
    """The method and method parameters that a run of conf records in its
    state.  original is SISA with one shard and one slice, so its store and
    a one-by-one sisa store are the same, both recorded as original."""
    method = conf["method"]
    if method not in ("original", "sisa"):
        return {"method": method, **_params_block(conf)}
    shards, slices = (1, 1) if method == "original" else (conf["n_shards"], conf["n_slices"])
    method = "original" if (shards, slices) == (1, 1) else "sisa"
    return {"method": method, "n_shards": shards, "n_slices": slices}


def _check_state_params(state_dir: Path, fitted, conf: dict) -> None:
    """DataError naming state_dir, a key and both values unless fitted is
    what a run of conf's method and method parameters saves."""
    if isinstance(fitted, unlearn.ShardStore):
        saved = {"method": "sisa", "n_shards": fitted.n_shards, "n_slices": fitted.n_slices}
    else:
        spec = fitted.spec
        method = "eupg_k" if spec.method == unlearn.K_ANONYMITY else "eupg_dp"
        saved = {"method": method, "k": spec.k, "epsilon": spec.epsilon}
    found = _state_params(saved)
    for key, wanted in _state_params(conf).items():
        if found.get(key) != wanted:
            raise DataError(
                f"{state_dir}: not the saved state of a {conf['method']!r} run: "
                f"its {key} is {found.get(key)!r}, the config's is {wanted!r}"
            )


def _timed(timings: dict, key: str, fn, *args, **kwargs):
    """fn(*args, **kwargs), with its wall time recorded as timings[key]."""
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    timings[key] = time.perf_counter() - t0
    return result


def _verified_k_anonymity(protected: TabularDataset, k: int) -> dict:
    """The k-anonymity report of a protected table; DataError when it fails."""
    check = kanon.verify_k_anonymity(protected, k)
    if not check.ok:
        raise DataError(
            f"protected output failed k-anonymity verification: "
            f"{check.violating_groups} group(s) smaller than {check.k}"
        )
    return dataclasses.asdict(check)


def _write_report(path: Path, report: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2))


def _metric_columns(report: dict) -> dict[str, float]:
    """A report's timing_<key> and mia_<attack>_<population> values, in report order."""
    columns = {f"timing_{key}": value for key, value in report["timings_s"].items()}
    for entry in report["mia"]:
        columns[f"mia_{entry['attack']}_{entry['population']}"] = entry["auc"]
    return columns


def _summarize(reports: list[dict]) -> dict:
    """Mean and population standard deviation per numeric metric."""
    metrics: dict[str, list[float]] = {}
    for rep in reports:
        metrics.setdefault("utility", []).append(rep["utility"]["value"])
        for key, value in _metric_columns(rep).items():
            metrics.setdefault(key, []).append(value)
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
    method = conf["method"]
    if method not in ("eupg_k", "eupg_dp"):
        raise DataError("anonymize requires method 'eupg_k' or 'eupg_dp'")
    train = load_train(conf)
    out = resolve_out(conf)
    out.mkdir(parents=True, exist_ok=True)
    privacy_seed = conf["privacy_seed"] if conf["privacy_seed"] is not None else conf["seed"]
    spec = _privacy_spec(conf, privacy_seed, train.schema)
    timing: dict[str, float] = {}
    protected, ledger = _timed(timing, "protect", unlearn.protect, train, spec)
    kanonymity = _verified_k_anonymity(protected, conf["k"]) if method == "eupg_k" else None
    write_csv(protected, out / "protected.csv")
    report = {
        "format_version": 1,
        "method": method,
        "params": _params_block(conf),
        "rows": protected.n_rows,
        "seconds": timing["protect"],
        "seed": privacy_seed,
        "budget_ledger": ledger.to_json_dict() if ledger else None,
        "kanonymity": kanonymity,
    }
    _write_report(out / "anonymize_report.json", report)
    print(f"wrote {out / 'protected.csv'} ({protected.n_rows} rows)")
    return 0


@dataclasses.dataclass(frozen=True)
class _ReportInputs:
    """What a report scores: the test table, its encoding, and per member
    population its name, its members' and its non-members' encodings and
    whether the non-members are the whole test set."""

    test: TabularDataset
    test_em: EncodedMatrix
    sides: tuple[tuple[str, EncodedMatrix, EncodedMatrix, bool], ...]

    def features(self) -> list[np.ndarray]:
        """The matrices a fitted method predicts, in order: the test set,
        then per population its members and its non-members, unless those
        are the whole test set, whose probabilities the utility's serve."""
        out = [self.test_em.features]
        for _, members, nonmembers, whole_test in self.sides:
            out.append(members.features)
            if not whole_test:
                out.append(nonmembers.features)
        return out


def _report_inputs(conf, rep, train, test, forgotten) -> _ReportInputs:
    """The report inputs of a repetition against the test table.

    train is the raw training table.  The members attacked against the test
    rows are all its rows when forgotten is None (run), else its forgotten
    and its retained rows under that request mask (forget).  Each population
    stays an array of row indices, and only the rows of its balanced pair
    are encoded, with encode(train, rows=): the bits of encode(subset) and
    of encode(train).take(rows), while the rest of the table is never
    encoded.
    """
    populations = {"train_vs_test": np.arange(train.n_rows)}
    if forgotten is not None:
        populations = {
            "forget_vs_test": np.flatnonzero(forgotten),
            "retain_vs_test": np.flatnonzero(~forgotten),
        }
    test_em = encode(test)
    sides = []
    for population, rows in populations.items():
        m_rows, nm_rows = attack_mod.balanced_rows(len(rows), test_em.n_rows, conf["seed"] + rep)
        # a side that keeps every test row reuses the utility's probabilities;
        # a subsample is predicted from its own rows, as forward(X)[idx] and
        # forward(X[idx]) can differ in their last bits
        members, nonmembers = encode(train, rows=rows[m_rows]), test_em.take(nm_rows)
        sides.append((population, members, nonmembers, isinstance(nm_rows, slice)))
    return _ReportInputs(test, test_em, tuple(sides))


class _Scores:
    """A report's scoring of a fitted method.  As the on_final of a shard
    store's replay it predicts each final model it is handed on the report
    inputs, which build() makes at its first call; probs(fitted) predicts
    the rest."""

    def __init__(self, build):
        self._build = build
        self.inputs: _ReportInputs | None = None
        self.build_error: DataError | None = None
        self._probs: dict[int, list[np.ndarray]] = {}

    def __call__(self, s: int, model) -> None:
        if self.inputs is None:
            try:
                self.inputs = self._build()
            except DataError as exc:
                self.build_error = exc
                raise
        self._probs[s] = [mlp.forward(model, x) for x in self.inputs.features()]

    def probs(self, fitted) -> list[np.ndarray]:
        """What fitted serves for each of the inputs' matrices: its final
        models' probabilities, those not handed over yet predicted now,
        averaged in order as unlearn.predict does."""
        for s, model in enumerate(fitted.final_models()):
            if s not in self._probs:
                self(s, model)
        models = [self._probs[s] for s in sorted(self._probs)]
        return [unlearn.ensemble_probs(list(p)) for p in zip(*models)]


def _scored_report(conf, command, rep, rep_dir, train, inputs, probs, **fields) -> dict:
    """Write ``<command>_report.json`` from the probabilities a fitted method
    gives for each of the inputs' features(): the test utility and the
    membership inference of each population.  fields fill the
    command-specific report keys in place (timings_s, forget, artifacts,
    budget_ledger, kanonymity) and seeds the privacy and forget seeds, so
    the key order is fixed here.
    """
    method = conf["method"]
    base_seed = conf["seed"] + rep
    seeds = {"train": base_seed, "privacy": None, "forget": None, "mia": base_seed}
    seeds.update(fields.pop("seeds", {}))
    test = inputs.test
    probs = iter(probs)
    test_probs = next(probs)
    labels = inputs.test_em.labels
    utility = attack_mod.utility_from_probs(test_probs, labels, conf["utility_metric"])
    mia = []
    for population, members, nonmembers, whole_test in inputs.sides:
        m_probs = next(probs)
        nm_probs = test_probs if whole_test else next(probs)
        mia += _mia_entries(members, m_probs, nonmembers, nm_probs, conf["attacks"], population)
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
            "n_classes": len(test.schema[test.class_index].categories),
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


def _run_one(conf: dict, rep: int, rep_dir: Path, train, load_test) -> dict:
    """Fit the configured method on train, score it, save its state under
    rep_dir and write its run report.  load_test() gives the test table: a
    shard store reads it on the CPU its replay leaves idle, an EUPG state
    after fitting."""
    method = conf["method"]
    base_seed = conf["seed"] + rep
    cfg = _train_config(conf, base_seed)
    privacy_seed = conf["privacy_seed"] if conf["privacy_seed"] is not None else base_seed
    hidden = conf["hidden_units"]
    state_dir = rep_dir / "state"
    timings: dict[str, float] = {}
    fields: dict = {"timings_s": timings, "artifacts": {"state_dir": str(state_dir)}}
    scores = _Scores(lambda: _report_inputs(conf, rep, train, load_test(), None))

    if method in ("eupg_k", "eupg_dp"):
        spec = _privacy_spec(conf, privacy_seed, train.schema)
        fitted = unlearn.eupg_prepare(train, spec, cfg, conf["finetune_epochs"], hidden)
        if method == "eupg_k":
            fields["kanonymity"] = _verified_k_anonymity(fitted.protected_data, conf["k"])
        timings.update(fitted.timings)
        fields["seeds"] = {"privacy": privacy_seed}
        if fitted.dp_ledger:
            fields["budget_ledger"] = fitted.dp_ledger.to_json_dict()
    else:
        params = _state_params(conf)
        shards, slices = params["n_shards"], params["n_slices"]
        fitted = _timed(
            timings, "train", unlearn.sisa_train, train, shards, slices, cfg, hidden, on_final=scores
        )
    probs = scores.probs(fitted)
    _timed(timings, "artifact_io", unlearn.save_state, fitted, state_dir)
    return _scored_report(conf, "run", rep, rep_dir, train, scores.inputs, probs, **fields)


def _test_loader(conf: dict, train: TabularDataset):
    """A function giving the test table, parsed under the training table's
    schema (category order, observed ranges) at its first call and kept."""
    return functools.cache(lambda: load_csv(conf["test_csv"], train.schema))


def cmd_run(conf: dict) -> int:
    """Train the configured method, measure utility and attack strength."""
    _require(conf, "train_csv", "test_csv", "schema")
    out = resolve_out(conf)
    train = load_train(conf)
    load_test = _test_loader(conf, train)
    reports = []
    for rep in range(conf["repetitions"]):
        # the output directories appear once the test table has loaded
        report = _run_one(conf, rep, out / f"rep{rep}", train, load_test)
        reports.append(report)
        print(
            f"rep{rep}: {conf['method']} utility={report['utility']['value']:.4f} "
            + " ".join(
                f"{e['attack']}/{e['population']}={e['auc']:.4f}" for e in report["mia"]
            )
        )
    (out / "summary.json").write_text(json.dumps(_summarize(reports), indent=2))
    return 0


def _forget_one(conf: dict, rep: int, rep_dir: Path, train, load_test) -> dict:
    """Serve conf's forget request against the state under rep_dir, save the
    result beside it and write the forget report; load_test() as in _run_one."""
    method = conf["method"]
    base_seed = conf["seed"] + rep
    forget_base = conf["forget_seed"] if conf["forget_seed"] is not None else base_seed
    request = ForgetRequest.from_ratio(train.n_rows, conf["forget_ratio"], forget_base + rep)
    if not 0 < len(request.forget_indices) < train.n_rows:
        raise DataError(
            f"forget_ratio {conf['forget_ratio']} selects {len(request.forget_indices)} of "
            f"the {train.n_rows} training rows; a forget needs rows to forget and to retain"
        )
    forgotten = request.mask(train.n_rows)
    timings: dict[str, float] = {}
    state_dir, after_dir = rep_dir / "state", rep_dir / "state_after_forget"
    fitted = unlearn.load_state(state_dir)
    _check_state_params(state_dir, fitted, conf)
    fields = {
        "timings_s": timings,
        "seeds": {"forget": forget_base + rep},
        "forget": {
            "ratio": conf["forget_ratio"],
            "n_forgotten": len(request.forget_indices),
            "epochs": conf["finetune_epochs"] if method.startswith("eupg") else None,
        },
        "artifacts": {"state_dir": str(after_dir)},
    }

    # the state's own settings drive the forget: its training config and
    # layer dims, and for EUPG its privacy spec
    scores = _Scores(lambda: _report_inputs(conf, rep, train, load_test(), forgotten))
    try:
        if isinstance(fitted, unlearn.EupgState):
            epochs = conf["finetune_epochs"]
            after = _timed(timings, "forget", unlearn.eupg_forget, fitted, train, request, epochs)
        else:
            forget = unlearn.sisa_forget
            after = _timed(timings, "forget", forget, fitted, train, request, on_final=scores)
    except DataError as exc:
        if exc is scores.build_error:  # the test table's error, not the state's
            raise
        raise DataError(f"{state_dir}: {exc}") from None
    probs = scores.probs(after)
    _timed(timings, "artifact_io", unlearn.save_state, after, after_dir)
    return _scored_report(conf, "forget", rep, rep_dir, train, scores.inputs, probs, **fields)


def cmd_forget(conf: dict) -> int:
    """Serve a forgetting request against the artifacts of a previous run."""
    _require(conf, "train_csv", "test_csv", "schema", "forget_ratio")
    run_dir = resolve_out(conf)
    if not run_dir.exists():
        raise DataError(f"run directory not found: {run_dir} (run 'run' first)")
    train = load_train(conf)
    load_test = _test_loader(conf, train)
    reports = []
    for rep in range(conf["repetitions"]):
        rep_dir = run_dir / f"rep{rep}"
        if not rep_dir.exists():
            raise DataError(f"missing repetition directory {rep_dir}")
        report = _forget_one(conf, rep, rep_dir, train, load_test)
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
    """Membership inference against what a saved state serves.

    Both CSVs are loaded and encoded under the state's schema, the
    training table's, so a member scores as it did in `run`.
    """
    _check_attacks(args.attacks, "--attacks")
    fitted = unlearn.load_state(args.state)
    tables = (load_csv(path, fitted.schema) for path in (args.members, args.nonmembers))
    members, nonmembers = (encode(t) for t in tables)
    m, nm = attack_mod.balanced_pair(members, nonmembers, args.seed)
    m_probs, nm_probs = (unlearn.predict(fitted, side.features) for side in (m, nm))
    results = _mia_entries(m, m_probs, nm, nm_probs, args.attacks)
    payload = json.dumps({"seed": args.seed, "results": results}, indent=2)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(payload)
    else:
        print(payload)
    return 0


def _sweep_points(conf: dict) -> list[dict]:
    """Cartesian product of the sweep axes, with the method-specific axes a
    point's method does not use dropped and the resulting duplicate points
    removed."""
    grid = conf["sweep"] if conf["sweep"] else DEFAULT_SWEEP
    for key in grid:
        if key not in DEFAULTS or key == "sweep":
            raise DataError(f"sweep: unknown config key {key!r}")
        if not isinstance(grid[key], list) or not grid[key]:
            raise DataError(f"sweep: {key!r} must map to a non-empty list")
        if any(isinstance(value, (list, dict)) for value in grid[key]):
            raise DataError(f"sweep: {key!r} values must be single values, not lists or objects")
    method_axes = {"finetune_epochs"}.union(*METHOD_PARAMS.values())
    keys = sorted(grid)
    seen = set()
    points = []
    for values in itertools.product(*(grid[k] for k in keys)):
        point = dict(zip(keys, values))
        method = point.get("method", conf["method"])
        tuning = ("finetune_epochs",) if method in ("eupg_k", "eupg_dp") else ()
        for key in method_axes.difference(METHOD_PARAMS.get(method, ()), tuning):
            point.pop(key, None)
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
    points = _sweep_points(conf)
    completed = []
    skipped = []
    for point in points:
        name = _point_name(point)
        point_dir = out / "points" / name
        merged = _validated({**conf, **point})
        merged["sweep"] = None
        merged["out"] = str(Path(conf["out"]) / "points" / name)  # rooted by resolve_out
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
    out.mkdir(parents=True, exist_ok=True)
    (out / "sweep_manifest.json").write_text(json.dumps(manifest, indent=2))
    print(f"sweep: {len(completed)} point(s) run, {len(skipped)} already done")
    return 0


def cmd_report(args) -> int:
    """Flatten every *report.json under a directory into one CSV table."""
    root = Path(args.root)
    if not root.exists():
        raise DataError(f"no such directory: {root}")
    rows = []
    extra_cols: set[str] = set()
    for path in sorted(root.rglob("*report.json")):
        rep = read_json(path)
        if not isinstance(rep, dict):
            raise DataError(f"{path}: not a report: expected a JSON object")
        if "command" not in rep:  # an anonymize report
            continue
        try:
            forget = rep.get("forget") or {}
            fixed = {
                "path": str(path.relative_to(root)),
                "command": rep["command"],
                "method": rep["method"],
                "k": rep["params"].get("k"),
                "epsilon": rep["params"].get("epsilon"),
                "n_shards": rep["params"].get("n_shards"),
                "n_slices": rep["params"].get("n_slices"),
                "repetition": rep["repetition"],
                "finetune_epochs": rep["config"].get("finetune_epochs"),
                "forget_ratio": forget.get("ratio"),
                "n_forgotten": forget.get("n_forgotten"),
                "utility_metric": rep["utility"]["metric"],
                "utility": rep["utility"]["value"],
            }
            metric_columns = _metric_columns(rep)
        except KeyError as exc:
            raise DataError(f"{path}: not a run or forget report: it lacks key {exc}") from None
        except (TypeError, AttributeError) as exc:
            raise DataError(f"{path}: not a run or forget report: {exc}") from None
        extra_cols.update(metric_columns)
        rows.append({**fixed, **metric_columns})
    if not rows:
        raise DataError(f"no run or forget report JSONs found under {root}")
    columns = list(fixed) + sorted(extra_cols)
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

    p_attack = sub.add_parser("attack", help="membership inference on a saved state")
    p_attack.add_argument("--state", required=True, help="state directory a run or forget wrote")
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
    except (DataError, ModelError, TrainingDiverged, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit:
        raise
    except Exception:
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
