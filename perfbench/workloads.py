"""The three benchmark workloads: prepare_kanon, forget_stream, cli_roundtrip.

Each workload runs as a closed loop with one client: after one timed
set-up, one operation runs after another until the run's seconds are
spent, with more timed set-ups in between (see _loop).  The program sees only the generated CSV files
and schema.

Calls that belong to a measured operation go through the privforget module
attributes (``unlearn.eupg_prepare``), so the tracer's wrappers see them.
Calls the benchmark makes to check results use the names imported below,
which are bound before the tracer is installed and stay untraced.
"""
from __future__ import annotations

import hashlib
import inspect
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import synth
import tracing
from privforget import attack, kanon, mlp, unlearn
from privforget import data as pf_data
from privforget.attack import balanced_pair, mia_from_probs, roc_auc
from privforget.data import ForgetRequest, Provenance, TabularDataset, encode
from privforget.mlp import forward, load_model, models_equal

# set-up runs at least 3 and at most 15 times in a run (see _loop)
SETUP_MIN_REPEATS, SETUP_MAX_REPEATS, SETUP_BUDGET_S = 3, 15, 2.0
HIDDEN_UNITS = 128
FINETUNE_EPOCHS = 5
K = 5
EPSILON = 1.0
FORGET_REQUESTS = 15  # one pass of disjoint requests forgets 3% of the rows
CHILD_TIMEOUT_S = 150

# (train rows, test rows, epochs) per workload; "tiny" is the self-check size
SIZES = {
    "prepare_kanon": {"full": (6000, 1500, 100), "tiny": (400, 150, 30)},
    "forget_stream": {"full": (15000, 4000, 20), "tiny": (400, 150, 20)},
    "cli_roundtrip": {"full": (30000, 8000, 30), "tiny": (400, 150, 30)},
}


@dataclass
class Context:
    root: Path  # checkout root
    work: Path  # scratch directory of this run, removed afterwards
    seed: int
    seconds: float
    tiny: bool
    tracer: tracing.Tracer | None


@dataclass
class Outcome:
    setup_s: list[float] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    checks: dict[str, list[int]] = field(default_factory=dict)  # name -> [passed, total]
    test_accuracy: float | None = None
    majority_rate: float | None = None
    mia_auc: float | None = None
    peak_rss_mb: float | None = None
    fingerprints: dict[str, str] = field(default_factory=dict)
    info: dict = field(default_factory=dict)

    def record(self, checks: dict[str, bool]) -> None:
        """One attempted operation; it failed if any of its checks failed."""
        self.attempted += 1
        for name, ok in checks.items():
            tally = self.checks.setdefault(name, [0, 0])
            tally[0] += bool(ok)
            tally[1] += 1
        self.failed += not all(checks.values())


# ---------------------------------------------------------------------------
# helpers

def _sha(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def _sha_files(*paths) -> str:
    return _sha(b"".join(Path(p).read_bytes() for p in paths))


def _set_run(ctx: Context, run: str) -> None:
    if ctx.tracer is not None:
        ctx.tracer.run = run


def _tables(ctx: Context, workload: str):
    n_train, n_test, epochs = SIZES[workload]["tiny" if ctx.tiny else "full"]
    tables = synth.write_tables(ctx.work / "data", n_train, n_test, ctx.seed)
    return tables, epochs


def _table_info(tables) -> dict:
    return {
        "train_rows": tables.train_rows,
        "test_rows": tables.test_rows,
        "test_dropped_unseen": tables.test_dropped_unseen,
        "encoded_width": tables.encoded_width,
    }


def _load_train_test(tables):
    """The CLI's loading path: test parsed under the schema learned from train."""
    schema = pf_data.parse_schema_file(tables.schema)
    train = pf_data.load_csv(tables.train_csv, schema)
    test = pf_data.load_csv(tables.test_csv, train.schema)
    return train, TabularDataset(train.schema, test.rows, Provenance.raw())


def _setup_once(ctx: Context, out: Outcome, build, verify):
    _set_run(ctx, f"setup-{len(out.setup_s)}")
    t0 = time.perf_counter()
    value = build()
    out.setup_s.append(time.perf_counter() - t0)
    out.record(verify(value))
    return value


def _setup(ctx: Context, out: Outcome, build, verify):
    """Time one set-up before the timed phase; return its value and a callable
    for one more timed set-up, which _loop runs between operations."""
    value = _setup_once(ctx, out, build, verify)
    return value, lambda: _setup_once(ctx, out, build, verify)


def _loop(ctx: Context, out: Outcome, op, again, min_ops: int = 1) -> None:
    """Closed loop: op(i) -> (latency, checks), back to back until time is up.

    Set-up repeats run between operations rather than in one burst, so
    that they sample the host across the run: one more at a third and at
    two thirds of the run, and one after every operation while all set-ups
    so far took under SETUP_BUDGET_S.  Their time extends the deadline.
    """
    start = time.perf_counter()
    deadline = start + ctx.seconds
    i = 0
    while i < min_ops or time.perf_counter() < deadline:
        _set_run(ctx, f"op-{i}")
        try:
            latency, checks = op(i)
        except Exception:
            traceback.print_exc()
            out.record({"completed": False})
        else:
            out.latencies.append(latency)
            out.record({"completed": True, **checks})
        i += 1
        n_setups = len(out.setup_s)
        due = n_setups < SETUP_MIN_REPEATS and (
            time.perf_counter() - start >= ctx.seconds * n_setups / SETUP_MIN_REPEATS
        )
        cheap = n_setups < SETUP_MAX_REPEATS and sum(out.setup_s) < SETUP_BUDGET_S
        if due or cheap:
            again()
            deadline += out.setup_s[-1]
    while len(out.setup_s) < SETUP_MIN_REPEATS:
        again()


def _loss_mia_auc(model, members, nonmembers, seed: int) -> float:
    m, nm = balanced_pair(members, nonmembers, seed)
    return mia_from_probs(
        forward(model, m.features), m.labels, forward(model, nm.features), nm.labels
    ).auc


def _accuracy(model, em) -> float:
    return float((np.argmax(forward(model, em.features), axis=1) == em.labels).mean())


def _self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@contextmanager
def _capture(module, name: str, sink: list):
    """Append (bound arguments, return value) of each call the program makes
    to module.name, which is restored on exit."""
    inner = getattr(module, name)
    signature = inspect.signature(inner)

    def capturing(*args, **kwargs):
        result = inner(*args, **kwargs)
        sink.append((signature.bind(*args, **kwargs).arguments, result))
        return result

    setattr(module, name, capturing)
    try:
        yield
    finally:
        setattr(module, name, inner)


def _row_hashes(em) -> np.ndarray:
    """A 64-bit hash of each encoded row (feature bits and label), for
    comparing sets of rows without copying them."""
    coef = np.random.default_rng(0).integers(1, 2**63, size=em.width + 1, dtype=np.uint64)
    bits = np.ascontiguousarray(em.features).view(np.uint64)
    return bits @ coef[:-1] + em.labels.astype(np.uint64) * coef[-1]


def _roundtrip_ok(state_dir: Path, state) -> bool:
    return models_equal(load_model(state_dir / "base.model"), state.base_model) and (
        models_equal(load_model(state_dir / "deployed.model"), state.deployed_model)
    )


# ---------------------------------------------------------------------------
# prepare_kanon: MDAV k-anonymity, pre-training and persistence, once per op

def prepare_kanon(ctx: Context) -> Outcome:
    out = Outcome()
    tables, epochs = _tables(ctx, "prepare_kanon")
    (train, test), again = _setup(ctx, out, lambda: _load_train_test(tables), lambda v: {})
    cfg = mlp.TrainConfig(epochs=epochs)
    spec = unlearn.PrivacySpec.k_anonymity(K)
    state_dir = ctx.work / "state"

    clusterings = []  # the MDAV runs eupg_prepare makes, for their fingerprint
    first: dict[str, str] = {}

    def op(i):
        t0 = time.perf_counter()
        with _capture(kanon, "mdav", clusterings):
            state = unlearn.eupg_prepare(train, spec, cfg, FINETUNE_EPOCHS, HIDDEN_UNITS)
        report = kanon.verify_k_anonymity(state.protected_data, K)
        unlearn.save_eupg_state(state, state_dir)
        latency = time.perf_counter() - t0
        prints = {
            "mdav_labels": _sha(clusterings.pop()[1].labels().astype("<i8").tobytes()),
            "base_model": _sha_files(state_dir / "base.model"),
            "deployed_model": _sha_files(state_dir / "deployed.model"),
        }
        if i == 0:
            first.update(prints)
            train_em, test_em = encode(train), encode(test)
            out.test_accuracy = _accuracy(state.deployed_model, test_em)
            out.mia_auc = _loss_mia_auc(state.deployed_model, train_em, test_em, ctx.seed)
        return latency, {
            "k_anonymous": report.ok,
            "model_roundtrip": _roundtrip_ok(state_dir, state),
            "deterministic": prints == first,
        }

    _loop(ctx, out, op, again)
    out.fingerprints = first
    out.majority_rate = tables.test_majority_rate
    out.peak_rss_mb = _self_rss_mb()
    out.info = {"k": K, "epochs": epochs, **_table_info(tables)}
    return out


# ---------------------------------------------------------------------------
# forget_stream: a chain of small forgetting requests against a DP base

def _forget_chain(n_rows: int, seed: int) -> list[ForgetRequest]:
    size = max(2, n_rows // 500)
    rows = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence([seed, 2509]))
    ).permutation(n_rows)[: size * FORGET_REQUESTS]
    return [ForgetRequest(tuple(chunk.tolist())) for chunk in np.split(rows, FORGET_REQUESTS)]


def forget_stream(ctx: Context) -> Outcome:
    out = Outcome()
    tables, epochs = _tables(ctx, "forget_stream")
    cfg = mlp.TrainConfig(epochs=epochs)
    spec = unlearn.PrivacySpec.dp(EPSILON)
    base_dir, stream_dir = ctx.work / "base_state", ctx.work / "stream_state"

    def build():
        train, test = _load_train_test(tables)
        prepared = unlearn.eupg_prepare(train, spec, cfg, FINETUNE_EPOCHS, HIDDEN_UNITS)
        unlearn.save_eupg_state(prepared, base_dir)
        return train, test, prepared, unlearn.load_eupg_state(base_dir)

    def verify(value):
        _, _, prepared, loaded = value
        return {
            "state_roundtrip": models_equal(loaded.base_model, prepared.base_model)
            and models_equal(loaded.deployed_model, prepared.deployed_model)
        }

    (train, test, _, base_state), again = _setup(ctx, out, build, verify)
    train_em, test_em = encode(train), encode(test)
    requests = _forget_chain(train.n_rows, ctx.seed)
    forgotten = [train_em.take(np.array(r.forget_indices)) for r in requests]
    # the rows each request's fine-tune must see: all training rows but the request's
    train_hashes = _row_hashes(train_em)
    request_hashes = [train_hashes[list(r.forget_indices)] for r in requests]
    expected = [np.sort(np.delete(train_hashes, r.forget_indices)) for r in requests]
    finetunes: list = []  # the fine-tunes eupg_forget runs, with their data
    # rows of earlier requests of the pass that each request fine-tuned on again
    retrained: list[int] = []
    # per request of the first pass: accuracy, member and non-member scores, model digest
    first_pass: list[tuple[float, np.ndarray, np.ndarray, str]] = []
    state = base_state

    def op(i):
        nonlocal state
        j = i % len(requests)
        if j == 0:
            state = base_state  # each pass replays the chain from the reloaded base
        t0 = time.perf_counter()
        with _capture(mlp, "finetune", finetunes):
            state = unlearn.eupg_forget(state, train, requests[j])
        unlearn.save_eupg_state(state, stream_dir)
        probs = mlp.forward(state.deployed_model, test_em.features)
        accuracy = float((np.argmax(probs, axis=1) == test_em.labels).mean())
        # a fresh test subsample per request, so the pooled audit spans many test rows
        members, nonmembers = attack.balanced_pair(
            forgotten[j], test_em, ctx.seed * FORGET_REQUESTS + j
        )
        audit = attack.mia_from_probs(
            mlp.forward(state.deployed_model, members.features),
            members.labels,
            mlp.forward(state.deployed_model, nonmembers.features),
            nonmembers.labels,
        )
        latency = time.perf_counter() - t0
        digest = _sha_files(stream_dir / "deployed.model")
        tuned = np.sort(_row_hashes(finetunes[-1][0]["data"])) if finetunes else None
        finetunes.clear()
        checks = {
            "forgotten_absent_from_finetune_data": np.array_equal(tuned, expected[j]),
            "model_roundtrip": models_equal(
                load_model(stream_dir / "deployed.model"), state.deployed_model
            ),
        }
        if i < len(requests):
            first_pass.append((accuracy, audit.member_scores, audit.nonmember_scores, digest))
            retrained.append(sum(int(np.isin(h, tuned).sum()) for h in request_hashes[:j]))
        else:
            checks["deterministic"] = first_pass[j][3] == digest
        return latency, checks

    _loop(ctx, out, op, again, min_ops=len(requests))
    if len(first_pass) < len(requests):
        raise RuntimeError("the first pass of forgetting requests did not complete")
    out.test_accuracy = first_pass[-1][0]
    # forgotten rows pooled over the pass, each scored by the model that forgot it
    out.mia_auc = roc_auc(
        np.concatenate([p[1] for p in first_pass]), np.concatenate([p[2] for p in first_pass])
    )
    out.majority_rate = tables.test_majority_rate
    out.peak_rss_mb = _self_rss_mb()
    out.fingerprints = {
        "base_model": _sha_files(base_dir / "base.model"),
        "deployed_models": _sha("".join(p[3] for p in first_pass).encode()),
    }
    out.info = {
        "epsilon": EPSILON,
        "epochs": epochs,
        "requests_per_pass": len(requests),
        "rows_per_request": len(requests[0].forget_indices),
        "earlier_forgotten_rows_retrained": retrained,
        **_table_info(tables),
    }
    return out


# ---------------------------------------------------------------------------
# cli_roundtrip: `privforget run` then `privforget forget` for SISA

def _without_timings(path: Path) -> str:
    report = json.loads(path.read_text())
    report.pop("timings_s", None)
    return _sha(json.dumps(report, sort_keys=True).encode())


def cli_roundtrip(ctx: Context) -> Outcome:
    import jsonschema

    out = Outcome()
    tables, epochs = _tables(ctx, "cli_roundtrip")
    config = {
        "train_csv": "data/train.csv",
        "test_csv": "data/test.csv",
        "schema": "data/adult.schema",
        "method": "sisa",
        "n_shards": 5,
        "n_slices": 10,
        "epochs": epochs,
        "forget_ratio": 0.01,
        "out": "out",
    }
    (ctx.work / "sisa.json").write_text(json.dumps(config))
    validator = jsonschema.Draft7Validator(
        json.loads((ctx.root / "src/privforget/schemas/report.schema.json").read_text())
    )
    env = {k: v for k, v in os.environ.items() if k != "PRIVFORGET_OUTPUT_ROOT"}
    env["PYTHONPATH"] = str(ctx.root / "src")
    rep_dir = ctx.work / "out" / "rep0"
    last_slice = config["n_slices"] - 1
    shard_models = [f"shard{s}_slice{last_slice}.model" for s in range(config["n_shards"])]
    # the CLI draws the request from seed + repetition, both 0 here
    expected = set(
        ForgetRequest.from_ratio(tables.train_rows, config["forget_ratio"], 0).forget_indices
    )

    def invoke(subcommand: str) -> tuple[float, bool]:
        spans = ctx.work / "child-spans.json"
        if ctx.tracer is None:
            cmd = [sys.executable, "-m", "privforget.cli", subcommand]
        else:
            launcher = Path(__file__).resolve().parent / "cli_launcher.py"
            cmd = [sys.executable, str(launcher), str(spans), subcommand]
        cmd += ["--config", "sisa.json"]
        t0 = time.perf_counter()
        proc = subprocess.run(
            cmd, cwd=ctx.work, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
        if ctx.tracer is not None:
            ctx.tracer.merge(spans, ctx.tracer.run)
        return wall, proc.returncode == 0

    first: dict[str, str] = {}

    def run_checks(ok: bool) -> dict[str, bool]:
        report = json.loads((rep_dir / "run_report.json").read_text())
        prints = {
            "run_report": _without_timings(rep_dir / "run_report.json"),
            "run_shard_models": _sha_files(*(rep_dir / "state" / m for m in shard_models)),
        }
        for key, value in prints.items():
            first.setdefault(key, value)
        return {
            "exit_code_0": ok,
            "report_schema": validator.is_valid(report),
            "deterministic": all(first[k] == v for k, v in prints.items()),
        }

    _, again = _setup(ctx, out, lambda: invoke("run"), lambda v: run_checks(v[1]))

    def op(i):
        wall, ok = invoke("forget")
        report = json.loads((rep_dir / "forget_report.json").read_text())
        manifest = json.loads((rep_dir / "state_after_forget" / "manifest.json").read_text())
        prints = {
            "forget_report": _without_timings(rep_dir / "forget_report.json"),
            "forget_shard_models": _sha_files(
                *(rep_dir / "state_after_forget" / m for m in shard_models)
            ),
        }
        for key, value in prints.items():
            first.setdefault(key, value)
        if i == 0:
            out.test_accuracy = report["utility"]["value"]
            out.mia_auc = next(
                e["auc"]
                for e in report["mia"]
                if e["attack"] == "loss_based" and e["population"] == "forget_vs_test"
            )
        return wall, {
            "exit_code_0": ok,
            "report_schema": validator.is_valid(report),
            "forgotten_absent_from_retain": set(manifest["removed_rows"]) == expected
            and report["forget"]["n_forgotten"] == len(expected),
            "deterministic": all(first[k] == v for k, v in prints.items()),
        }

    _loop(ctx, out, op, again)
    out.majority_rate = tables.test_majority_rate
    # the children do the work; ru_maxrss is the largest of them
    out.peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    out.fingerprints = dict(first)
    out.info = {k: config[k] for k in ("epochs", "n_shards", "n_slices", "forget_ratio")}
    out.info.update(_table_info(tables))
    if ctx.tracer is not None:
        out.info["cli_import_s"] = _cli_import_seconds(env)
    return out


def _cli_import_seconds(env: dict, repeats: int = 5) -> float:
    """Median cold `import privforget.cli`, each in a fresh interpreter."""
    code = (
        "import time; t0 = time.perf_counter(); import privforget.cli; "
        "print(time.perf_counter() - t0)"
    )
    samples = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            capture_output=True,
            text=True,
            check=True,
            timeout=CHILD_TIMEOUT_S,
        )
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


WORKLOADS = {
    "prepare_kanon": prepare_kanon,
    "forget_stream": forget_stream,
    "cli_roundtrip": cli_roundtrip,
}
