"""Sum-DoF bound tables, the reference figure datasets, and the CSV writer.

`sweep_k_rows` and `sweep_n2_rows` are the bound tables; fig2 and fig4 are
column views of them, and `certified_points` lists the two-user configs each
figure plots, for `dofbc figure --certify`.

fig2: `sweep_k_rows(*FIG2_CONFIG)`, bounds versus k for (9,6,3).
fig3: region vertices of the (4,1,3,k) system for k in {0,1,2,3}.
fig4: `sweep_n2_rows(*FIG4_CONFIG)`, bounds versus N2 for M = N1+N2 = 20, k = 12.

Values are exact rationals with decimal companions (>= 12 significant
digits) for plotting.  CSV output: comma separated, a header row of the
first row's keys, UNIX newlines, UTF-8.
"""

from __future__ import annotations

import csv
import io
from fractions import Fraction
from pathlib import Path

from .config import SystemConfig, normalize_config
from .errors import InvalidConfigError
from .region import pd_sum_dof, region_vertices, sum_dof_lower, sum_dof_upper

FIG2_CONFIG = (9, 6, 3)  # (M, N1, N2), k = 0..M
FIG3_CONFIG = (4, 1, 3)  # (M, N1, N2), k = 0..3
FIG4_CONFIG = (20, 12)  # (M, k), N1 + N2 = M

_DECIMALS = 12


def _dec(value: Fraction) -> str:
    return f"{float(value):.{_DECIMALS}g}"


def _bounds_row(key: str, value: int, upper: Fraction, lower: Fraction, pd_ref: str) -> dict:
    return {
        key: value,
        "upper": str(upper),
        "upper_decimal": _dec(upper),
        "lower": str(lower),
        "lower_decimal": _dec(lower),
        "pd_reference": pd_ref,
    }


def sweep_k_rows(M: int, N1: int, N2: int) -> list[dict]:
    """Sum-DoF bounds for k = 0..M, with the delayed-CSIT reference if M = N1+N2."""
    base = normalize_config(M, N1, N2, 0)
    pd_ref = str(pd_sum_dof(base.N1, base.N2)) if M == N1 + N2 else ""
    rows = []
    for k in range(M + 1):
        cfg = normalize_config(M, N1, N2, k)
        rows.append(_bounds_row("k", k, sum_dof_upper(cfg), sum_dof_lower(cfg), pd_ref))
    return rows


def sweep_n2_rows(M: int, k: int) -> list[dict]:
    """Sum-DoF bounds versus N2 = ceil(M/2)..M with N1 + N2 = M.

    N2 = M leaves RX1 with zero antennas, which is not a valid two-user
    config; both bounds are then the single-user limit M.  M and k are
    checked here, since that row builds no config that would check them.
    """
    if M < 1 or not 0 <= k <= M:
        raise InvalidConfigError(f"sweep-n2 needs M >= 1 and 0 <= k <= M, got M={M}, k={k}")
    rows = []
    for N2 in range((M + 1) // 2, M + 1):
        N1 = M - N2
        if N1 == 0:
            rows.append(_bounds_row("N2", N2, Fraction(M), Fraction(M), ""))
            continue
        cfg = normalize_config(M, N1, N2, k)
        upper, lower = sum_dof_upper(cfg), sum_dof_lower(cfg)
        rows.append(_bounds_row("N2", N2, upper, lower, str(pd_sum_dof(N1, N2))))
    return rows


def _bounds_view(rows: list[dict], key: str) -> list[dict]:
    """Figure columns of a bound table: decimals for plotting, then exact values."""
    return [
        {
            key: row[key],
            "upper": row["upper_decimal"],
            "lower": row["lower_decimal"],
            "upper_exact": row["upper"],
            "lower_exact": row["lower"],
        }
        for row in rows
    ]


def certified_points(name: str) -> list[tuple[str, SystemConfig]]:
    """(label, config) of every two-user point of figure `name`, in row order.

    fig4's N2 = M row is the single-user limit and has no plan to certify.
    """
    if name == "fig4":
        M, k = FIG4_CONFIG
        return [
            (f"N2={row['N2']}", normalize_config(M, M - row["N2"], row["N2"], k))
            for row in fig4_rows()
            if row["N2"] < M
        ]
    M, N1, N2 = FIG2_CONFIG if name == "fig2" else FIG3_CONFIG
    ks = range(M + 1) if name == "fig2" else range(4)
    return [(f"k={k}", normalize_config(M, N1, N2, k)) for k in ks]


def fig2_rows() -> list[dict]:
    """k, upper, lower for (9,6,3) with k = 0..M."""
    return _bounds_view(sweep_k_rows(*FIG2_CONFIG), "k")


def fig3_rows() -> list[dict]:
    """k, vertex_index, d1, d2 for the (4,1,3,k) regions, k in {0..3}."""
    rows = []
    for _, cfg in certified_points("fig3"):
        for idx, vertex in enumerate(region_vertices(cfg)):
            rows.append(
                {
                    "k": cfg.k,
                    "vertex_index": idx,
                    "d1": _dec(vertex.d1),
                    "d2": _dec(vertex.d2),
                    "d1_exact": str(vertex.d1),
                    "d2_exact": str(vertex.d2),
                }
            )
    return rows


def fig4_rows() -> list[dict]:
    """N2, upper, lower for M = N1+N2 = 20 and k = 12, N2 = 10..20."""
    return _bounds_view(sweep_n2_rows(*FIG4_CONFIG), "N2")


FIGURES = {"fig2": fig2_rows, "fig3": fig3_rows, "fig4": fig4_rows}


def rows_to_csv(rows: list[dict]) -> str:
    """CSV text of a table whose header is its first row's keys."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def write_figure(name: str, out_dir: str | Path = ".") -> Path:
    """Write <name>.csv into `out_dir` and return its path."""
    path = Path(out_dir) / f"{name}.csv"
    path.write_text(rows_to_csv(FIGURES[name]()), encoding="utf-8", newline="\n")
    return path
