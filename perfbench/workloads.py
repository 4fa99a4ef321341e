"""Benchmark workloads: inputs made from the seed, one op, and its checks.

Each workload is a sequence of passes. A pass is a fixed list of op inputs
derived from (workload seed, pass index) alone, so two runs with the same
seed run the same ops in the same order. Expected values are computed while
the inputs are made, before any op is timed or traced.

Ops call the library only through public functions, and always through the
module attribute (`lib.cli.simulate_document`, ...), so wrappers installed by
the tracer on those attributes see every call.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from fractions import Fraction

DEFAULT_SEED = 1

CERT_TIGHT_TRIALS = 1
CERT_LOWK_TRIALS = 2
CERT_LOWK_SLICES = 3  # a pass is every third config of the 1,320, from offset (seed + pass)
SLOPE_SNR_DB = (40.0, 60.0, 80.0)
SLOPE_TRIALS = 100
SLOPE_TOLERANCE = 0.15
# Criterion-8 configs whose slope is checked, then (9,3,6,4), whose slope at
# 100 trials (about 7.16 against a claimed 7.8) is only required to be finite.
SLOPE_CONFIGS = ((4, 1, 3, 2), (4, 1, 3, 3), (5, 2, 3, 0), (9, 3, 6, 4))
SLOPE_CHECKED = SLOPE_CONFIGS[:3]
SLOPE_SEEDS_PER_PASS = 2
BOUNDS_PASS_OPS = 500
BOUNDS_MAX_ANTENNAS = 20


def _pass_rng(seed: int, index: int) -> random.Random:
    return random.Random(seed * 1_000_003 + index)


def tight_grid():
    """Criterion-3 grid: N1 <= k < N2 < M <= min(10, N1+N2), 200 configs."""
    for N1 in range(1, 10):
        for N2 in range(N1 + 1, 11):
            for M in range(N2 + 1, min(10, N1 + N2) + 1):
                for k in range(N1, N2):
                    yield (M, N1, N2, k)


def lowk_grid():
    """Criterion-4 grid: 1 <= k < N1 <= N2 <= 10, M <= 10, 1,320 configs."""
    for N1 in range(2, 11):
        for N2 in range(N1, 11):
            for M in range(1, 11):
                for k in range(1, min(N1, M + 1)):
                    yield (M, N1, N2, k)


def op_digest(record: dict) -> str:
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:12]


class CertWorkload:
    """`cli.simulate_document` without SNR: certify the plan, check CSIT."""

    def __init__(self, lib, seed: int, grid, trials: int, bound: str, slices: int = 1):
        self.lib = lib
        self.seed = seed
        self.trials = trials
        self.slices = slices
        self.configs = list(grid)
        bound_fn = getattr(lib.region, bound)
        self.expected = {
            c: bound_fn(lib.config.normalize_config(*c)) for c in self.configs
        }
        self.params = {
            "trials": trials,
            "pass_ops": len(self.configs[::slices]),
            "slices": slices,
            "bound": bound,
        }

    def warmup(self):
        return (self.configs[0], self.seed)

    def pass_inputs(self, index: int) -> list:
        rng = _pass_rng(self.seed, index)
        order = self.configs[(self.seed + index) % self.slices :: self.slices]
        rng.shuffle(order)
        return [(c, rng.randrange(2**31)) for c in order]

    def run(self, op):
        config, op_seed = op
        return self.lib.cli.simulate_document(*config, trials=self.trials, seed=op_seed)

    def check(self, op, doc) -> list[str]:
        config, _ = op
        problems = []
        if not doc["certified"]:
            problems.append(f"{config}: not certified, failures {doc['failures']}")
        if not doc["compliance"]["compliant"]:
            problems.append(f"{config}: not CSIT-compliant")
        if doc["certified_dof"] != str(self.expected[config]):
            problems.append(
                f"{config}: certified {doc['certified_dof']}, expected {self.expected[config]}"
            )
        return problems

    def record(self, doc) -> dict:
        return {
            "config": list(doc["config"].values()),
            "scheme": doc["scheme"],
            "certified_dof": doc["certified_dof"],
            "failures": doc["failures"],
            "resamples": doc["resamples"],
        }


class SlopeWorkload:
    """`schemes.select_scheme` then `verifier.rate_slope_estimate`."""

    def __init__(self, lib, seed: int):
        self.lib = lib
        self.seed = seed
        self.claims = {
            c: lib.region.sum_dof_lower(lib.config.normalize_config(*c)) for c in SLOPE_CONFIGS
        }
        self.params = {
            "trials": SLOPE_TRIALS,
            "snr_db": list(SLOPE_SNR_DB),
            "pass_ops": len(SLOPE_CONFIGS) * SLOPE_SEEDS_PER_PASS,
        }

    def warmup(self):
        return (SLOPE_CONFIGS[0], self.seed)

    def pass_inputs(self, index: int) -> list:
        """Each config over consecutive seeds, starting at the workload seed."""
        first = self.seed + index * SLOPE_SEEDS_PER_PASS
        return [(c, first + s) for s in range(SLOPE_SEEDS_PER_PASS) for c in SLOPE_CONFIGS]

    def run(self, op):
        config, op_seed = op
        lib = self.lib
        plan = lib.schemes.select_scheme(lib.config.normalize_config(*config))
        rsc = lib.verifier.RateSimConfig(snr_db=SLOPE_SNR_DB, trials=SLOPE_TRIALS)
        return plan, lib.verifier.rate_slope_estimate(plan, rsc, op_seed)

    def check(self, op, out) -> list[str]:
        config, op_seed = op
        plan, result = out
        claim = self.claims[config]
        problems = []
        if plan.claimed_dof != claim:
            problems.append(f"{config}: plan claims {plan.claimed_dof}, bound is {claim}")
        if result.trials_used + result.discarded != SLOPE_TRIALS:
            problems.append(f"{config}: {result.trials_used}+{result.discarded} trials")
        if not math.isfinite(result.slope):
            problems.append(f"{config} seed {op_seed}: slope {result.slope}")
        elif config in SLOPE_CHECKED and abs(result.slope - float(claim)) > SLOPE_TOLERANCE:
            problems.append(f"{config} seed {op_seed}: slope {result.slope:.4f}, claim {claim}")
        return problems

    def record(self, out) -> dict:
        plan, result = out
        return {
            "config": list(plan.cfg.shape),
            "scheme": plan.scheme_id,
            "claimed_dof": str(plan.claimed_dof),
            "trials_used": result.trials_used,
            "discarded": result.discarded,
        }


class BoundsWorkload:
    """`cli.region_document` plus `schemes.select_scheme(...).to_json()`."""

    def __init__(self, lib, seed: int):
        self.lib = lib
        self.seed = seed
        self.params = {"pass_ops": BOUNDS_PASS_OPS, "max_antennas": BOUNDS_MAX_ANTENNAS}

    def warmup(self):
        return (BOUNDS_MAX_ANTENNAS, 7, 13, 9)

    def pass_inputs(self, index: int) -> list:
        """Configs in caller order; N1 > N2 in about half, so outputs un-swap."""
        rng = _pass_rng(self.seed, index)
        ops = []
        for _ in range(BOUNDS_PASS_OPS):
            M = rng.randint(1, BOUNDS_MAX_ANTENNAS)
            N1 = rng.randint(1, BOUNDS_MAX_ANTENNAS)
            N2 = rng.randint(1, BOUNDS_MAX_ANTENNAS)
            ops.append((M, N1, N2, rng.randint(0, M)))
        return ops

    def run(self, op):
        lib = self.lib
        doc = lib.cli.region_document(*op)
        plan = lib.schemes.select_scheme(lib.config.normalize_config(*op)).to_json()
        return doc, plan

    def check(self, op, out) -> list[str]:
        doc, plan = out
        lower, upper = Fraction(doc["sum_dof_lower"]), Fraction(doc["sum_dof_upper"])
        problems = []
        if lower > upper:
            problems.append(f"{op}: lower bound {lower} above upper bound {upper}")
        if Fraction(plan["claimed_dof"]) != lower:
            problems.append(f"{op}: plan claims {plan['claimed_dof']}, lower bound {lower}")
        if doc["config"]["swapped"] != (op[1] > op[2]):
            problems.append(f"{op}: swapped flag {doc['config']['swapped']}")
        return problems

    def record(self, out) -> dict:
        doc, plan = out
        return {
            "region": doc,
            "scheme": plan["scheme"],
            "claimed_dof": plan["claimed_dof"],
            "symbols": len(plan["symbols"]),
            "slots": len(plan["slots"]),
        }


WORKLOADS = {
    "cert-tight": lambda lib, seed: CertWorkload(
        lib, seed, tight_grid(), CERT_TIGHT_TRIALS, "sum_dof_upper"
    ),
    "cert-lowk": lambda lib, seed: CertWorkload(
        lib, seed, lowk_grid(), CERT_LOWK_TRIALS, "sum_dof_lower", CERT_LOWK_SLICES
    ),
    "rate-slope": SlopeWorkload,
    "bounds-sweep": BoundsWorkload,
}
