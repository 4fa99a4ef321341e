import hashlib
import json

from dofbc.config import normalize_config
from dofbc.figures import (
    FIG2_CONFIG,
    FIG4_CONFIG,
    certified_points,
    fig2_rows,
    fig4_rows,
    sweep_k_rows,
    sweep_n2_rows,
    write_figure,
)

# sha256 of json.dumps(sweep_k_rows(M, N1, N2)) for 1 <= M <= 12 and
# 1 <= N1, N2 <= M (both orders), then json.dumps(sweep_n2_rows(M, k)) for
# 1 <= M <= 20 and 0 <= k <= M, then the fig2, fig3 and fig4 CSV files;
# computed before the figure tables became views of the sweep tables.
TABLES_SHA256 = "898c989aca3aab30139ce8005db9e13acc58f8d09d6b8552df0c5e2b8d3cadb8"


def test_table_outputs_digest(tmp_path):
    digest = hashlib.sha256()
    for M in range(1, 13):
        for N1 in range(1, M + 1):
            for N2 in range(1, M + 1):
                digest.update(json.dumps(sweep_k_rows(M, N1, N2)).encode())
    for M in range(1, 21):
        for k in range(M + 1):
            digest.update(json.dumps(sweep_n2_rows(M, k)).encode())
    for name in ("fig2", "fig3", "fig4"):
        digest.update(write_figure(name, tmp_path).read_bytes())
    assert digest.hexdigest() == TABLES_SHA256


def test_certified_points_are_the_plotted_configs():
    M, N1, N2 = FIG2_CONFIG
    fig2 = [normalize_config(M, N1, N2, row["k"]) for row in fig2_rows()]
    assert [cfg for _, cfg in certified_points("fig2")] == fig2
    M, k = FIG4_CONFIG
    fig4 = [normalize_config(M, M - row["N2"], row["N2"], k) for row in fig4_rows() if row["N2"] < M]
    assert [cfg for _, cfg in certified_points("fig4")] == fig4
    assert fig4_rows()[-1]["N2"] == M  # the single-user sentinel is plotted, not certified
