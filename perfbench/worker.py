"""One benchmark child process: set up, run one workload, print one JSON line.

    python3 perfbench/worker.py --mode {setup,measure,trace} --workload NAME
        --seed N --seconds S [--limit N]

`run.py` starts this in a fresh single-threaded process; it is not meant to
be run by hand. The library under test is imported from `src/` of the
checkout that holds this file, and from nowhere else; its frozen seed copy
comes from `perfbench/seedlib/`.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from workloads import DEFAULT_SEED, WORKLOADS, op_digest

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
REFERENCE = Path(__file__).resolve().parent / "reference_digests.json"
SEED_LIBRARY = Path(__file__).resolve().parent / "seedlib"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
MODULES = ("config", "region", "schemes", "verifier", "cli")


def _import(package: str, src: Path) -> SimpleNamespace:
    """Import `package` from directory `src`; fail if it resolves elsewhere."""
    if not (src / package / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no library source at {src / package}")
    sys.path.insert(0, str(src))
    module = importlib.import_module(package)
    if Path(module.__file__).resolve().parent != (src / package).resolve():
        raise SystemExit(f"benchmark: {package} imported from {module.__file__}, not {src}")
    return SimpleNamespace(**{m: importlib.import_module(f"{package}.{m}") for m in MODULES})


def load_library() -> SimpleNamespace:
    """The library under test, from this checkout's `src/`."""
    return _import("dofbc", ROOT / "src")


def load_seed_library() -> SimpleNamespace:
    """The frozen seed copy of the library that every measured op is paired with."""
    return _import("dofbc_seed", SEED_LIBRARY)


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine_facts(seed: int) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "git_commit": _git_commit(),
        "seed": seed,
    }


def _reference(name: str, seed: int, params: dict) -> list[str] | None:
    """Per-op digests of pass 0 at the default seed, or None at other seeds."""
    if seed != DEFAULT_SEED:
        return None
    entry = json.loads(REFERENCE.read_text()).get(name)
    if entry is None or entry["params"] != params:
        return []  # no reference for these settings: every pass-0 op mismatches
    return entry["ops"]


class Outcome:
    """Latencies, failures and pass-0 digests of one run."""

    def __init__(self, reference):
        self.reference = reference
        self.latencies: list[float] = []
        self.failed = 0
        self.digests: list[str] = []
        self.problems: list[str] = []

    def add(self, wl, op, run, twin, first_pass: bool):
        """Check one op's run; `twin` is the same op run again, which must agree."""
        out, error, latency = run
        self.latencies.append(latency)
        problems = [error] if error else wl.check(op, out)
        digest = None if error else op_digest(wl.record(out))
        if not error and first_pass:
            index = len(self.digests)
            self.digests.append(digest)
            if self.reference is not None and (
                index >= len(self.reference) or self.reference[index] != digest
            ):
                problems.append(f"{op}: digest {digest} differs from the reference")
        twin_out, twin_error, _ = twin
        if twin_error:
            problems.append(twin_error)
        elif digest is not None and op_digest(wl.record(twin_out)) != digest:
            problems.append(f"{op}: outputs differ between the two runs of the op")
        if problems:
            self.failed += 1
            self.problems += problems

    @property
    def digest(self) -> str:
        return hashlib.sha256("".join(self.digests).encode()).hexdigest()


def _call(wl, op):
    """Run one op; a raised exception is a failed op, reported with its traceback."""
    start = perf_counter()
    try:
        out = wl.run(op)
    except Exception:
        latency = perf_counter() - start
        return None, f"{op}: " + traceback.format_exc(limit=-3), latency
    return out, None, perf_counter() - start


def _both(i: int, first, second):
    """Call `first` and `second` back to back, alternating the order by op index."""
    if i % 2:
        b = second()
        a = first()
    else:
        a = first()
        b = second()
    return a, b


def _setup(name: str, seed: int):
    start = perf_counter()
    lib = load_library()
    wl = WORKLOADS[name](lib, seed)
    first = wl.pass_inputs(0)
    _call(wl, wl.warmup())  # untimed; a broken op is counted when the timed ops run it
    return wl, first, perf_counter() - start


def measure(name: str, seed: int, seconds: float, limit: int | None) -> dict:
    """Closed loop, one client, every op paired with the seed library.

    Each op runs on the library under test and on the seed copy, back to
    back in alternating order, so both see the same machine. Whole passes
    run until the next would take the paired op time past `seconds`.
    """
    wl, ops, setup_s = _setup(name, seed)
    ref = WORKLOADS[name](load_seed_library(), seed)
    _call(ref, ref.warmup())
    outcome = Outcome(_reference(name, seed, wl.params))
    seed_latencies = []
    busy = 0.0
    index = 0
    while True:
        pass_busy = 0.0
        for i, op in enumerate(ops[:limit]):
            run, twin = _both(i, lambda: _call(wl, op), lambda: _call(ref, op))
            pass_busy += run[2] + twin[2]
            seed_latencies.append(twin[2])
            outcome.add(wl, op, run, twin, first_pass=index == 0)
        busy += pass_busy
        index += 1
        if busy + pass_busy > seconds:
            break
        ops = wl.pass_inputs(index)
    return {
        "setup_s": setup_s,
        "passes": index,
        "latencies": outcome.latencies,
        "seed_latencies": seed_latencies,
        "failed": outcome.failed,
        "problems": outcome.problems[:20],
        "digest": outcome.digest,
        "params": wl.params,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "machine": machine_facts(seed),
    }


def trace(name: str, seed: int, limit: int | None, spans_path: Path | None) -> dict:
    """Pass 0 op by op, untraced and traced in alternating order.

    Both runs of an op must give the same exact outputs; the tracing overhead
    is the traced wall time over the untraced wall time, minus one.
    """
    from spans import Tracer

    wl, ops, _ = _setup(name, seed)
    tracer = Tracer()
    outcome = Outcome(_reference(name, seed, wl.params))
    traced = 0.0

    def traced_call(i, op):
        tracer.install(i)
        try:
            return _call(wl, op)
        finally:
            tracer.restore()

    for i, op in enumerate(ops[:limit]):
        run, twin = _both(i, lambda: _call(wl, op), lambda: traced_call(i, op))
        traced += twin[2]
        outcome.add(wl, op, run, twin, first_pass=True)
    metrics = tracer.layer_metrics()
    metrics["trace_overhead"] = traced / sum(outcome.latencies) - 1.0
    if spans_path is not None:
        spans_path.parent.mkdir(exist_ok=True)
        tracer.write(spans_path)
    return {
        "metrics": metrics,
        "ops": len(outcome.latencies),
        "failed": outcome.failed,
        "problems": outcome.problems[:20],
        "digest": outcome.digest,
        "params": wl.params,
        "patched": len(tracer.patched),
        "missing_targets": tracer.missing,
        "machine": machine_facts(seed),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--limit", type=int, default=None)
    args = parser.parse_args(argv)
    if args.mode == "setup":
        result = {"setup_s": _setup(args.workload, args.seed)[2]}
    elif args.mode == "measure":
        result = measure(args.workload, args.seed, args.seconds, args.limit)
    else:
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        result = trace(args.workload, args.seed, args.limit, spans_path)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
