"""Span tracing of privforget's public functions, installed from outside.

The program is not edited: ``Tracer.install`` replaces each function in
``TRACED`` with a timing wrapper at every privforget module attribute that
holds it.  That covers callers that look the function up through its module
(``mlp.train`` inside ``unlearn``) and callers that imported it by name
(``encode`` inside ``unlearn``, ``cli`` and ``kanon``).

A span records name, start, end, parent span and run id.  Spans stay in
memory until the benchmark writes them out.  Counts come from public
arguments and return values at the same boundaries.  The time spent on
counts, installing and writing out is kept in ``overhead_s``.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path


def _dir_bytes(path) -> int:
    return sum(f.stat().st_size for f in Path(path).iterdir() if f.is_file())


def _train_row_epochs(bound, result):
    return {"mlp.train_row_epochs": bound["data"].n_rows * bound["cfg"].epochs}


def _replayed_slices(bound, result):
    old = bound["store"].checkpoints
    replayed = sum(
        new is not before
        for old_shard, new_shard in zip(old, result.checkpoints)
        for before, new in zip(old_shard, new_shard)
    )
    total = sum(len(shard) for shard in old)
    return {"unlearn.sisa_slices_replayed": replayed, "unlearn.sisa_slices_total": total}


# qualified name -> counter(bound arguments, return value) -> {counter: amount}
TRACED = {
    "data.load_csv": lambda b, r: {"data.load_csv_rows": r.n_rows},
    "data.encode": None,
    "data.write_csv": None,
    "data.split_forget": None,
    "kanon.mdav": lambda b, r: {"kanon.mdav_clusters": len(r.clusters)},
    "kanon.centroid_replace": None,
    "kanon.verify_k_anonymity": None,
    "dpanon.dp_protect_table": lambda b, r: {
        "dpanon.cells_clamped": sum(e.n_clamped for e in r.ledger.entries)
    },
    "mlp.train": _train_row_epochs,
    "mlp.finetune": None,
    "mlp.forward": None,
    "mlp.save_model": None,
    "mlp.load_model": None,
    "unlearn.eupg_prepare": None,
    "unlearn.eupg_forget": None,
    "unlearn.save_eupg_state": lambda b, r: {"unlearn.state_bytes": _dir_bytes(b["out_dir"])},
    "unlearn.load_eupg_state": None,
    "unlearn.sisa_train": None,
    "unlearn.sisa_forget": _replayed_slices,
    "unlearn.save_shard_store": lambda b, r: {"unlearn.state_bytes": _dir_bytes(b["out_dir"])},
    "unlearn.load_shard_store": None,
    "attack.balanced_pair": None,
    "attack.mia_from_probs": None,
}

CLI_SPAN = "cli.main"


class Tracer:
    """In-memory span recorder; one per process."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.run = "setup"
        self.overhead_s = 0.0  # counting, installing and dumping; children's merged in
        self._stack: list[int] = []

    def span(self, name: str, fn, counter=None):
        """Wrap fn so that each call records one span (and optional counts)."""
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            record = {
                "name": name,
                "start": time.perf_counter(),
                "end": None,
                "parent": self._stack[-1] if self._stack else None,
                "run": self.run,
            }
            self.spans.append(record)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                record["end"] = time.perf_counter()
            if counter is not None:
                t0 = time.perf_counter()
                bound = signature.bind(*args, **kwargs).arguments
                for key, amount in counter(bound, result).items():
                    self.counters[key] += amount
                self.overhead_s += time.perf_counter() - t0
            return result

        return traced

    def install(self) -> None:
        """Wrap every TRACED function wherever a privforget module holds it."""
        for qualified, counter in TRACED.items():
            module_name, fn_name = qualified.split(".")
            fn = getattr(importlib.import_module(f"privforget.{module_name}"), fn_name)
            wrapper = self.span(qualified, fn, counter)
            for name, module in list(sys.modules.items()):
                if module is None or not (name == "privforget" or name.startswith("privforget.")):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapper)

    def dump(self, path) -> None:
        """Write spans, counters and overhead as one JSON line, then a second
        line with the seconds the first took to write."""
        t0 = time.perf_counter()
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            payload = {"spans": self.spans, "counters": dict(self.counters), "overhead_s": self.overhead_s}
            f.write(json.dumps(payload) + "\n")
            f.flush()
            f.write(json.dumps({"dump_s": time.perf_counter() - t0}) + "\n")

    def merge(self, path, run: str) -> None:
        """Append the spans, counters and overhead a child process dumped, under run id."""
        first, second = Path(path).read_text().splitlines()
        payload = json.loads(first)
        offset = len(self.spans)
        for record in payload["spans"]:
            parent = record["parent"]
            self.spans.append(
                {**record, "parent": None if parent is None else parent + offset, "run": run}
            )
        for key, amount in payload["counters"].items():
            self.counters[key] += amount
        self.overhead_s += payload["overhead_s"] + json.loads(second)["dump_s"]


def span_cost(calls: int = 20000) -> float:
    """Seconds one traced call without a counter adds over an untraced one,
    measured here."""

    def noop():
        return None

    wrapped = Tracer().span("noop", noop)
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    t1 = time.perf_counter()
    for _ in range(calls):
        wrapped()
    t2 = time.perf_counter()
    return max(0.0, ((t2 - t1) - (t1 - t0)) / calls)


def self_times(spans: list[dict]) -> list[float]:
    """Span duration minus the time its direct children cover."""
    child_time = [0.0] * len(spans)
    for record in spans:
        if record["parent"] is not None:
            child_time[record["parent"]] += record["end"] - record["start"]
    return [r["end"] - r["start"] - c for r, c in zip(spans, child_time)]


def summarize(spans: list[dict], run_prefix: str = "") -> dict[str, dict]:
    """Per span name: calls, inclusive seconds and self seconds (totals),
    over the spans whose run id starts with run_prefix."""
    out: dict[str, dict] = {}
    for record, own in zip(spans, self_times(spans)):
        if not record["run"].startswith(run_prefix):
            continue
        entry = out.setdefault(record["name"], {"calls": 0, "seconds": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["seconds"] += record["end"] - record["start"]
        entry["self_s"] += own
    return out
