"""dofbc benchmark: certification, Monte Carlo rate slopes and exact bounds.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1] [--limit N]

Each workload runs in a fresh single-threaded child process (`worker.py`),
closed loop with one client. `--trace 0` prints the end-to-end metrics,
`--trace 1` the per-layer split from a separately traced run. The last line
of standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`; the lines before it give every metric with its unit, the
machine facts, and the digest of the run's exact outputs. A full record of
each run is written to `.bench_out/`. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

from spans import per_layer_units
from worker import THREAD_VARS
from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 3  # fresh processes whose set-up is timed, both before and after
# the measuring child: with its own set-up that gives seven samples spread over
# the run, and setup_s is their median
TIME_LIMIT_S = 170.0
P95_MIN_OPS = 200  # at least 10 samples beyond the 95th percentile

END_TO_END = (
    ("setup_s", "s"),
    ("speedup.ops_per_s", "ratio"),
    ("op_speedup.p50", "ratio"),
    ("peak_rss_mb", "MB"),
)


class ChildFailed(RuntimeError):
    pass


def _child(mode: str, args, deadline: float) -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.limit is not None:
        cmd += ["--limit", str(args.limit)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(deadline - monotonic(), 1.0))
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{mode} child exceeded the time limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{mode} child exited with code {proc.returncode}")
    return json.loads(lines[-1])


def end_to_end(args, deadline: float) -> tuple[dict, dict]:
    setups = [_child("setup", args, deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    run = _child("measure", args, deadline)
    setups.append(run["setup_s"])
    setups += [_child("setup", args, deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    latencies, seed_latencies = run["latencies"], run["seed_latencies"]
    values = {
        "setup_s": statistics.median(setups),
        "speedup.ops_per_s": sum(seed_latencies) / sum(latencies),
        "op_speedup.p50": statistics.median(s / t for s, t in zip(seed_latencies, latencies)),
        "peak_rss_mb": run["peak_rss_mb"],
    }
    as_measured = {
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "op_ms.p50": (statistics.median(latencies) * 1e3, "ms"),
        "op_ms.p95": (statistics.quantiles(latencies, n=100, method="inclusive")[94] * 1e3, "ms")
        if len(latencies) >= P95_MIN_OPS else (None, f"ms (fewer than {P95_MIN_OPS} ops)"),
        "seed.ops_per_s": (len(seed_latencies) / sum(seed_latencies), "1/s"),
        "fail_share": (run["failed"] / len(latencies), "ratio"),
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return metrics, {**run, "as_measured": as_measured, "setup_samples_s": setups,
                     "ops": len(latencies)}


def per_layer(args, deadline: float) -> tuple[dict, dict]:
    run = _child("trace", args, deadline)
    metrics = {name: {"value": run["metrics"][name], "unit": unit}
               for name, unit in per_layer_units().items()}
    return metrics, {**run, "as_measured": {"fail_share": (run["failed"] / run["ops"], "ratio")}}


def run_workload(args, deadline: float) -> dict:
    metrics, run = (per_layer if args.trace else end_to_end)(args, deadline)
    attempted = run["ops"]
    result = {
        "correct": run["failed"] == 0,
        "attempted": attempted,
        "failed": run["failed"],
        "metrics": metrics,
    }
    OUT_DIR.mkdir(exist_ok=True)
    record = {k: v for k, v in run.items() if not k.endswith("latencies")}
    record.update(workload=args.workload, trace=args.trace, result=result)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    print(f"== {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops {attempted}  passes {run.get('passes', 1)}")
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}")
    for name, (value, unit) in run["as_measured"].items():
        print(f"  {name:48s} {'n/a' if value is None else f'{value:.6g}'} {unit}")
    for problem in run["problems"]:
        print(f"  FAILED {problem.strip()}")
    print(f"  digest {run['digest']}  params {json.dumps(run['params'])}")
    print(f"  machine {json.dumps(run['machine'])}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--limit", type=int, default=None,
                        help="ops per pass (self-tests use a few)")
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        deadline = monotonic() + TIME_LIMIT_S
        try:
            results[name] = run_workload(argparse.Namespace(**{**vars(args), "workload": name}),
                                         deadline)
        except ChildFailed as exc:
            print(f"benchmark: {name}: {exc}", file=sys.stderr)
            return 1
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
