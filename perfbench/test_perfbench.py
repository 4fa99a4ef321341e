"""Self-tests of the benchmark harness (not of the library).

    python3 -m pytest -q perfbench

They run every workload at a few ops per pass, so they take well under a
minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import worker
from spans import Tracer, per_layer_units
from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
LIMIT = 3


def _run(*args, cwd=HERE.parent):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def _snapshot():
    """Every attribute of every loaded dofbc module, by identity."""
    return {
        (name, attr): id(value)
        for name, module in list(sys.modules.items())
        if name.split(".")[0] == "dofbc" and module is not None
        for attr, value in vars(module).items()
    }


def test_benchmark_json_lists_the_reported_metrics():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(
        per_layer_units().items()
    )


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_run(name):
    proc = _run("--workload", name, "--seed", str(DEFAULT_SEED), "--seconds", "0",
                "--trace", "0", "--limit", str(LIMIT))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == LIMIT
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == list(run.END_TO_END)
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_smoke_run_reports_every_per_layer_metric():
    proc = _run("--workload", "cert-tight", "--seconds", "0", "--trace", "1",
                "--limit", str(LIMIT))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK["per_layer"]]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_and_untraced_digests_agree(name):
    plain = worker.measure(name, DEFAULT_SEED, seconds=0, limit=LIMIT)
    traced = worker.trace(name, DEFAULT_SEED, limit=LIMIT, spans_path=None)
    assert plain["failed"] == 0 and traced["failed"] == 0, traced["problems"]
    assert plain["digest"] == traced["digest"]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_trace_calls_repeat_and_wrappers_are_removed(name):
    worker.load_library()
    before = _snapshot()
    first = worker.trace(name, 7, limit=LIMIT, spans_path=None)
    second = worker.trace(name, 7, limit=LIMIT, spans_path=None)
    assert _snapshot() == before
    assert first["missing_targets"] == [] and first["patched"] > 0
    calls = {k: v for k, v in first["metrics"].items() if k.endswith(".calls")}
    assert calls == {k: v for k, v in second["metrics"].items() if k.endswith(".calls")}
    assert sum(calls.values()) > 0


def test_restore_puts_back_the_original_objects():
    lib = worker.load_library()
    original = lib.verifier.realize_plan
    tracer = Tracer()
    tracer.install(0)
    assert lib.verifier.realize_plan is not original
    assert ("dofbc.verifier", "gf_rank") in tracer.patched
    tracer.restore()
    assert lib.verifier.realize_plan is original


def test_fails_without_the_library(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "bounds-sweep", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
