#!/usr/bin/env python3
"""privforget benchmark: three workloads on a seeded, synthetic adult-shaped table.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py):
  prepare_kanon  MDAV k-anonymity (k=5) + pre-train + fine-tune + persist
  forget_stream  chain of small EUPG forgetting requests against a DP base
  cli_roundtrip  `privforget run` then `privforget forget`, SISA 5 x 10

With ``--trace 0`` the last stdout line reports the end-to-end metrics;
with ``--trace 1`` every public function of data, kanon, dpanon, mlp,
unlearn and attack is wrapped in a span (cli children too) and the last
line reports per-layer metrics instead, named as ``end_to_end`` and
``per_layer`` in BENCHMARK.json.  Lines before it record the run
environment, the checks, the fingerprints and, when traced, a self-time
table per phase.  ``--tiny`` shrinks every workload to a few hundred rows
for the self-check.  The program is imported from ``src/`` next to this
directory; without it the benchmark exits with code 2.
"""
import os

BLAS_THREADS = "1"
# pinned before numpy loads; subprocesses inherit the environment
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import ctypes
import glob
import json
import platform
import shutil
import statistics
import sys
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("prepare_kanon", "forget_stream", "cli_roundtrip")

def _environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    for lib in glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                threads = getattr(handle, symbol)()
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": int(BLAS_THREADS),
        "blas_threads_reported": threads,
    }


def _tail(latencies: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it.

    Below 21 samples that percentile would not exceed the median, so the
    maximum is reported instead.  Returns (value, percentile, samples beyond).
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 21:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def _end_to_end(out) -> dict:
    return {
        "setup_s": statistics.median(out.setup_s),
        "latency_p50_s": statistics.median(out.latencies),
        "latency_tail_s": _tail(out.latencies)[0],
        "peak_rss_mb": out.peak_rss_mb,
        "test_accuracy": out.test_accuracy,
        "mia_auc": out.mia_auc,
    }


def _per_layer(tracer: tracing.Tracer, out) -> dict:
    """Mean seconds per call of each traced function, plus counts and rates.

    ``trace.overhead_est_ratio`` estimates the time tracing adds to the timed
    phases: spans times the measured cost of a bare wrapper, plus the measured
    time spent counting, installing wrappers in CLI children and writing
    their spans out, over the timed wall time.  Compare
    ``trace.latency_p50_s`` with the untraced ``latency_p50_s`` of the same
    seed for the gap as measured, host noise included.
    """
    summary = tracing.summarize(tracer.spans)
    counters = tracer.counters

    def total(name, key):
        return summary[name][key] if name in summary else 0

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    metrics = {f"{name}_s": ratio(total(name, "seconds"), total(name, "calls")) for name in tracing.TRACED}
    saves = total("unlearn.save_eupg_state", "calls") + total("unlearn.save_shard_store", "calls")
    replayed = counters["unlearn.sisa_slices_replayed"]
    metrics.update(
        {
            "data.load_csv_rows_per_s": ratio(counters["data.load_csv_rows"], total("data.load_csv", "seconds")),
            "kanon.mdav_clusters": ratio(counters["kanon.mdav_clusters"], total("kanon.mdav", "calls")),
            "dpanon.cells_clamped": ratio(counters["dpanon.cells_clamped"], total("dpanon.dp_protect_table", "calls")),
            "mlp.train_row_epochs_per_s": ratio(counters["mlp.train_row_epochs"], total("mlp.train", "seconds")),
            "unlearn.state_bytes": ratio(counters["unlearn.state_bytes"], saves),
            "unlearn.sisa_slices_replayed": ratio(replayed, total("unlearn.sisa_forget", "calls")),
            "unlearn.sisa_replay_ratio": ratio(replayed, counters["unlearn.sisa_slices_total"]),
            "cli.import_s": out.info.get("cli_import_s", 0.0),
            "cli.self_s": ratio(total(tracing.CLI_SPAN, "self_s"), total(tracing.CLI_SPAN, "calls")),
            "trace.latency_p50_s": statistics.median(out.latencies),
            "trace.overhead_est_ratio": ratio(
                len(tracer.spans) * tracing.span_cost() + tracer.overhead_s,
                sum(out.setup_s) + sum(out.latencies),
            ),
        }
    )
    return metrics


def _phase_table(tracer: tracing.Tracer, out) -> dict:
    """Self time per span name and its share of each phase's measured wall time."""
    walls = {"setup": sum(out.setup_s), "op": sum(out.latencies)}
    table = {}
    for phase, wall in walls.items():
        rows = tracing.summarize(tracer.spans, phase)
        table[phase] = {
            name: {
                "calls": e["calls"],
                "seconds": round(e["seconds"], 6),
                "self_s": round(e["self_s"], 6),
                "self_share": round(e["self_s"] / wall, 4) if wall else 0.0,
            }
            for name, e in sorted(rows.items(), key=lambda kv: -kv[1]["self_s"])
        }
    return table


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="length of the timed phase")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="a few hundred rows (self-check)")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    if not (SRC / "privforget" / "__init__.py").is_file():
        print(f"perfbench: no privforget sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import privforget

    if Path(privforget.__file__).resolve().parent != (SRC / "privforget").resolve():
        print(f"perfbench: imported privforget from {privforget.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    work = ROOT / ".perfbench" / f"work-{args.workload}-{os.getpid()}"
    ctx = workloads.Context(ROOT, work, args.seed, args.seconds, args.tiny, tracer)
    try:
        out = workloads.WORKLOADS[args.workload](ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    out.record({"beats_majority_class": out.test_accuracy > out.majority_rate})

    _, percentile, beyond = _tail(out.latencies)
    print("environment " + json.dumps(_environment()))
    print(
        "run "
        + json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "operations": len(out.latencies),
                "setup_samples_s": out.setup_s,
                "latencies_s": out.latencies,
                "tail_percentile": percentile,
                "tail_samples_beyond": beyond,
                "fail_ratio": out.failed / out.attempted,
                "majority_rate": out.majority_rate,
                **out.info,
            }
        )
    )
    print("checks " + json.dumps(out.checks, sort_keys=True))
    print("fingerprints " + json.dumps(out.fingerprints, sort_keys=True))
    if tracer is None:
        values, section = _end_to_end(out), "end_to_end"
    else:
        spans_path = ROOT / ".perfbench" / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.dump(spans_path)
        print("trace " + json.dumps(_phase_table(tracer, out)))
        values, section = _per_layer(tracer, out), "per_layer"
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in spec}
    correct = out.failed == 0
    print(json.dumps({"correct": correct, "attempted": out.attempted, "failed": out.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
