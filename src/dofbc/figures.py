"""Datasets behind the three reference figures, recomputed from the formulas.

fig2: sum-DoF bounds versus k for the (9,6,3) system (normalized to (9,3,6)).
fig3: region vertices of the (4,1,3,k) system for k in {0,1,2,3}.
fig4: sum DoF versus the antenna repartition N2 for M = N1+N2 = 20, k = 12.

Values are exact rationals with decimal companions (>= 12 significant
digits) for plotting.  CSV output: comma separated, header row, UNIX
newlines, UTF-8.
"""

from __future__ import annotations

import csv
from fractions import Fraction
from pathlib import Path

from .config import normalize_config
from .region import region_constraints, sum_dof_lower, sum_dof_upper

FIG2_CONFIG = (9, 6, 3)
FIG3_CONFIG = (4, 1, 3)
FIG4_CONFIG = (20, 12)  # (M, k), N1 + N2 = M

_DECIMALS = 12


def _dec(value: Fraction) -> str:
    return f"{float(value):.{_DECIMALS}g}"


def fig2_rows() -> list[dict]:
    """k, upper, lower for (9,6,3) with k = 0..M."""
    M, N1, N2 = FIG2_CONFIG
    rows = []
    for k in range(M + 1):
        cfg = normalize_config(M, N1, N2, k)
        upper, lower = sum_dof_upper(cfg), sum_dof_lower(cfg)
        rows.append(
            {
                "k": k,
                "upper": _dec(upper),
                "lower": _dec(lower),
                "upper_exact": str(upper),
                "lower_exact": str(lower),
            }
        )
    return rows


def fig3_rows() -> list[dict]:
    """k, vertex_index, d1, d2 for the (4,1,3,k) regions, k in {0..3}."""
    M, N1, N2 = FIG3_CONFIG
    rows = []
    for k in range(4):
        cfg = normalize_config(M, N1, N2, k)
        for idx, vertex in enumerate(region_constraints(cfg).vertices):
            rows.append(
                {
                    "k": k,
                    "vertex_index": idx,
                    "d1": _dec(vertex.d1),
                    "d2": _dec(vertex.d2),
                    "d1_exact": str(vertex.d1),
                    "d2_exact": str(vertex.d2),
                }
            )
    return rows


def repartition_bounds(M: int, N2: int, k: int) -> tuple[Fraction, Fraction]:
    """(upper, lower) sum-DoF bounds at one point of a sweep with N1 + N2 = M.

    N2 = M leaves RX1 with zero antennas, which is not a valid two-user
    config; both bounds are then the single-user limit M.
    """
    if N2 == M:
        return Fraction(M), Fraction(M)
    cfg = normalize_config(M, M - N2, N2, k)
    return sum_dof_upper(cfg), sum_dof_lower(cfg)


def fig4_rows() -> list[dict]:
    """N2, upper, lower for M = N1+N2 = 20 and k = 12, N2 = 10..20."""
    M, k = FIG4_CONFIG
    rows = []
    for N2 in range(M // 2, M + 1):
        upper, lower = repartition_bounds(M, N2, k)
        rows.append(
            {
                "N2": N2,
                "upper": _dec(upper),
                "lower": _dec(lower),
                "upper_exact": str(upper),
                "lower_exact": str(lower),
            }
        )
    return rows


FIGURES = {
    "fig2": (fig2_rows, ("k", "upper", "lower", "upper_exact", "lower_exact")),
    "fig3": (fig3_rows, ("k", "vertex_index", "d1", "d2", "d1_exact", "d2_exact")),
    "fig4": (fig4_rows, ("N2", "upper", "lower", "upper_exact", "lower_exact")),
}


def write_figure(name: str, out_dir: str | Path = ".") -> Path:
    """Write <name>.csv into `out_dir` and return its path."""
    builder, header = FIGURES[name]
    path = Path(out_dir) / f"{name}.csv"
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(header), lineterminator="\n")
        writer.writeheader()
        writer.writerows(builder())
    return path
