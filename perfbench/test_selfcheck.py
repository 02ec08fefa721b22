"""Self-check of the benchmark on a few hundred rows.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_selfcheck.py

Every workload runs twice untraced and once traced with one seed.  The
metric names must match BENCHMARK.json, the checks must pass, and all
three runs must print the same fingerprints (tracing changes no output).
At this size a model may not beat the majority class, so that one check
is not required here.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def _result(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    """The final result line and the fingerprints; asserts the checks passed."""
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    tagged = dict(line.split(" ", 1) for line in lines[:-1])
    checks = json.loads(tagged["checks"])
    checks.pop("beats_majority_class")
    assert all(passed == total for passed, total in checks.values()), checks
    return json.loads(lines[-1]), json.loads(tagged["fingerprints"])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_metrics_present_and_fingerprints_repeat(workload):
    first, prints = _result(_bench(workload, 0))
    second, prints_again = _result(_bench(workload, 0))
    traced, traced_prints = _result(_bench(workload, 1))

    for result, section in ((first, "end_to_end"), (second, "end_to_end"), (traced, "per_layer")):
        assert result["attempted"] >= 1
        assert set(result["metrics"]) == {m["name"] for m in SPEC[section]}
    assert prints
    assert prints == prints_again == traced_prints


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("prepare_kanon", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
