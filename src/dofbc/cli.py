"""Command-line surface: regions, bound sweeps, scheme verification, figures.

Commands
--------
region M N1 N2 k        outer-bound constraints, vertices, achievable hull
sweep-k M N1 N2         sum-DoF bounds for k = 0..M
sweep-n2 M k            sum-DoF bounds versus N2 with N1+N2 = M fixed
simulate M N1 N2 k      build, certify, and optionally rate-simulate a plan
figure {fig2,fig3,fig4} write the reference figure CSV datasets

Exit codes: 0 success, 2 invalid input, 3 certification failure.  Rationals
are serialized as "p/q" strings (plain "p" for integers); decimal companions
are provided for plotting.  JSON documents use the fixed key orders produced
here; see README for the schema.
"""

from __future__ import annotations

import argparse
import json
import sys
from math import gcd
from pathlib import Path

from .channel import ChannelDistribution
from .config import normalize_config
from .errors import InvalidConfigError, ResampleRequiredError
from .figures import (
    FIGURES,
    certified_points,
    rows_to_csv,
    sweep_k_rows,
    sweep_n2_rows,
    write_figure,
)
from .region import (
    _achievable_points,
    _integer_hull,
    _integer_vertices,
    _outer_lines,
    plan_shape,
    sum_dof_lower,
)
from .schemes import select_scheme
from .verifier import RateSimConfig, achieved_dof, rate_slope_estimate

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_CERTIFICATION = 3


def _ratio_str(n: int, d: int) -> str:
    """`str(Fraction(n, d))` for d > 0, without building the `Fraction`."""
    g = gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


def region_document(M: int, N1: int, N2: int, k: int) -> dict:
    """Region document in the caller's receiver labeling.

    It is written from the region kernel's integers: the outer halfplanes,
    and the vertices and achievable hull as numerator pairs over one
    positive denominator each.  A swapped document swaps each pair and sorts
    them, which orders them as sorting the rational points would.  The
    upper bound is the largest vertex sum, which no swap changes.
    """
    cfg = normalize_config(M, N1, N2, k)
    swapped = N1 > N2
    shape = plan_shape(cfg)
    lines = _outer_lines(cfg)
    vertices, vd = _integer_vertices(lines)
    hull, hd = _integer_hull(_achievable_points(cfg, shape))
    if swapped:
        lines = [(a2, a1, b) for a1, a2, b in lines]
        vertices = sorted((y, x) for x, y in vertices)
        hull = sorted((y, x) for x, y in hull)
    return {
        "config": {"M": M, "N1": N1, "N2": N2, "k": k, "swapped": swapped},
        "constraints": [{"a1": str(a1), "a2": str(a2), "b": str(b)} for a1, a2, b in lines],
        "vertices": [[_ratio_str(x, vd), _ratio_str(y, vd)] for x, y in vertices],
        "achievable": [[_ratio_str(x, hd), _ratio_str(y, hd)] for x, y in hull],
        "sum_dof_upper": _ratio_str(max(x + y for x, y in vertices), vd),
        "sum_dof_lower": _ratio_str(shape.S1 + shape.S2, shape.T),
    }


def simulate_document(
    M: int,
    N1: int,
    N2: int,
    k: int,
    trials: int = 50,
    seed: int = 1,
    snr_db: tuple[float, ...] | None = None,
    special_cases: bool = False,
    delta_min: float = 0.1,
    delta_max: float = 1.0,
) -> dict:
    """Simulation document; `S1`/`S2` count symbols in the caller's receiver order."""
    cfg = normalize_config(M, N1, N2, k)
    swapped = N1 > N2
    dist = ChannelDistribution(delta_min, delta_max)
    plan = select_scheme(cfg, allow_special_cases=special_cases)
    certification = achieved_dof(plan, trials=trials, seed=seed)
    S1, S2 = plan.registry.S1, plan.registry.S2
    if swapped:
        S1, S2 = S2, S1
    doc = {
        "config": {"M": M, "N1": N1, "N2": N2, "k": k, "swapped": swapped},
        "scheme": plan.scheme_id,
        "S1": S1,
        "S2": S2,
        "T": plan.T,
        "claimed_dof": str(plan.claimed_dof),
        "certified_dof": None if certification.dof is None else str(certification.dof),
        "certified": certification.ok,
        "trials": certification.trials,
        "failures": list(certification.failures),
        "resamples": certification.resamples,
        "compliance": certification.compliance.to_json(),
        "slope": None,
    }
    if snr_db:
        rsc = RateSimConfig(snr_db=tuple(snr_db), trials=min(trials, 100))
        doc["slope"] = rate_slope_estimate(plan, rsc, seed=seed, dist=dist).to_json()
    return doc


def _parse_snr(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(s) for s in text.split(","))
    except ValueError:
        raise InvalidConfigError(f"--snr expects comma-separated numbers, got {text!r}") from None


def _emit(text: str, out: str | None):
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _emit_rows(rows: list[dict], fmt: str, out: str | None):
    if fmt == "csv":
        _emit(rows_to_csv(rows), out)
    else:
        _emit(json.dumps(rows, indent=1), out)


def _region_csv(doc: dict) -> str:
    rows = []
    for i, c in enumerate(doc["constraints"]):
        rows.append({"kind": "constraint", "index": i, "x": c["a1"], "y": c["a2"], "b": c["b"]})
    for i, (d1, d2) in enumerate(doc["vertices"]):
        rows.append({"kind": "vertex", "index": i, "x": d1, "y": d2, "b": ""})
    for i, (d1, d2) in enumerate(doc["achievable"]):
        rows.append({"kind": "achievable", "index": i, "x": d1, "y": d2, "b": ""})
    return rows_to_csv(rows)


def _certify_figures(name: str, trials: int, seed: int) -> list[str]:
    """Re-run the verifier on each achievable point of a figure dataset.

    A point passes exactly when `simulate` would exit 0 on it and certify the
    table's lower bound.
    """
    problems = []
    for label, cfg in certified_points(name):
        result = achieved_dof(select_scheme(cfg), trials=trials, seed=seed)
        lower = sum_dof_lower(cfg)
        if not (result.ok and result.dof == lower):
            problems.append(f"{name} {label}: certified {result.dof}, table {lower}")
        if not result.compliance.compliant:
            problems.append(f"{name} {label}: not CSIT-compliant")
    return problems


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dofbc",
        description="DoF regions and verified transmission schemes for the "
        "two-user broadcast channel with k perfectly informed transmit antennas.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, *positionals: str):
        for name in positionals:
            p.add_argument(name, type=int)
        p.add_argument("--out", help="output path (default: stdout)")
        return p

    def add_table(p, *positionals: str):
        add_common(p, *positionals).add_argument("--format", choices=("json", "csv"), default="json")

    config = ("M", "N1", "N2", "k")
    add_table(sub.add_parser("region", help="DoF region constraints and vertices"), *config)
    add_table(sub.add_parser("sweep-k", help="bounds for k = 0..M"), "M", "N1", "N2")
    add_table(sub.add_parser("sweep-n2", help="bounds versus N2 with N1+N2 = M"), "M", "k")

    sim = sub.add_parser("simulate", help="build and certify a transmission plan")
    add_common(sim, *config)
    sim.add_argument("--trials", type=int, default=50)
    sim.add_argument("--seed", type=int, default=1)
    sim.add_argument("--snr", help="comma-separated SNR points in dB, e.g. 40,60,80")
    sim.add_argument("--special-cases", action="store_true")
    sim.add_argument("--delta-min", type=float, default=0.1)
    sim.add_argument("--delta-max", type=float, default=1.0)

    fig = sub.add_parser("figure", help="write figure datasets as CSV")
    fig.add_argument("name", choices=sorted(FIGURES))
    fig.add_argument("--out", default=".", help="output directory (default: cwd)")
    fig.add_argument("--certify", action="store_true")
    fig.add_argument("--trials", type=int, default=50)
    fig.add_argument("--seed", type=int, default=1)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "region":
            doc = region_document(args.M, args.N1, args.N2, args.k)
            _emit(_region_csv(doc) if args.format == "csv" else json.dumps(doc, indent=1), args.out)
        elif args.command == "sweep-k":
            _emit_rows(sweep_k_rows(args.M, args.N1, args.N2), args.format, args.out)
        elif args.command == "sweep-n2":
            _emit_rows(sweep_n2_rows(args.M, args.k), args.format, args.out)
        elif args.command == "simulate":
            snr = _parse_snr(args.snr) if args.snr else None
            doc = simulate_document(
                args.M,
                args.N1,
                args.N2,
                args.k,
                trials=args.trials,
                seed=args.seed,
                snr_db=snr,
                special_cases=args.special_cases,
                delta_min=args.delta_min,
                delta_max=args.delta_max,
            )
            _emit(json.dumps(doc, indent=1), args.out)
            if not doc["certified"] or not doc["compliance"]["compliant"]:
                return EXIT_CERTIFICATION
        elif args.command == "figure":
            path = write_figure(args.name, args.out)
            sys.stdout.write(f"wrote {path}\n")
            if args.certify:
                problems = _certify_figures(args.name, args.trials, args.seed)
                if problems:
                    sys.stderr.write("\n".join(problems) + "\n")
                    return EXIT_CERTIFICATION
    except (InvalidConfigError, OSError) as exc:
        sys.stderr.write(f"invalid input: {exc}\n")
        return EXIT_INVALID
    except ResampleRequiredError as exc:
        sys.stderr.write(f"certification failed: {exc}\n")
        return EXIT_CERTIFICATION
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
