import contextlib
import csv
import io
import json
import tempfile
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dofbc import cli
from dofbc.cli import main, region_document, simulate_document
from dofbc.config import SystemConfig
from dofbc.figures import certified_points, sweep_k_rows, sweep_n2_rows
from dofbc.region import LinearConstraint, region_constraints, region_vertices, sum_dof_lower

from .helpers import leak_precoders


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_region_command_json(capsys):
    code, out, _ = run_cli(capsys, "region", "4", "1", "3", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["vertices"] == [["0", "0"], ["1", "0"], ["1", "5/2"], ["0", "3"]]
    assert {"a1": "1", "a2": "2", "b": "6"} in doc["constraints"]
    assert doc["sum_dof_lower"] == "7/2"


def test_region_round_trip():
    cfg = SystemConfig(4, 1, 3, 2)
    parsed = json.loads(json.dumps(region_document(*cfg.shape)))
    constraints = tuple(LinearConstraint(*map(F, c.values())) for c in parsed["constraints"])
    assert constraints == region_constraints(cfg)
    assert tuple(tuple(map(F, v)) for v in parsed["vertices"]) == region_vertices(cfg)


def test_region_unswaps_axes():
    doc = region_document(9, 6, 3, 4)  # caller lists the larger receiver first
    assert doc["config"]["swapped"] is True
    plain = region_document(9, 3, 6, 4)
    assert sorted(map(tuple, doc["vertices"])) == sorted(
        (d2, d1) for d1, d2 in map(tuple, plain["vertices"])
    )


def test_region_k3_outer_matches_full_csit(capsys):
    code, out, _ = run_cli(capsys, "region", "4", "1", "3", "3")
    doc = json.loads(out)
    assert code == 0
    assert len(doc["constraints"]) == 3
    assert doc["vertices"] == [["0", "0"], ["1", "0"], ["1", "3"], ["0", "3"]]


def test_invalid_config_exits_2(capsys):
    code, _, err = run_cli(capsys, "region", "4", "1", "3", "5")
    assert code == 2
    assert "invalid" in err


@pytest.mark.parametrize(
    "args",
    [
        ("simulate", "4", "1", "3", "2", "--snr", "abc"),
        ("simulate", "4", "1", "3", "2", "--seed", "-1"),
        ("figure", "fig3", "--certify", "--seed", "-1", "--out", "{tmp}"),
        ("figure", "fig3", "--out", "{tmp}/missing"),
        ("simulate", "4", "1", "3", "2", "--trials", "2", "--out", "{tmp}/missing/sim.json"),
        ("region", "4", "1", "3", "2", "--out", "{tmp}/missing/region.json"),
        ("simulate", "4", "1", "3", "2", "--delta-min", "0"),
        ("simulate", "4", "1", "3", "2", "--trials", "2", "--snr", "nan,60,80"),
        ("sweep-n2", "0", "0"),
        ("sweep-n2", "1", "5"),
        ("sweep-n2", "-1", "0", "--format", "csv"),
        ("simulate", "4", "1", "3", "2", "--trials", "2", "--snr", "3080,3100"),  # 10^310 overflows
        ("simulate", "4", "1", "3", "2", "--trials", "2", "--snr=-3300,-3200"),  # 10^-330 is 0
    ],
)
def test_invalid_input_exits_2_with_one_line(tmp_path, capsys, args):
    code, _, err = run_cli(capsys, *(a.format(tmp=tmp_path) for a in args))
    assert code == 2
    assert err.startswith("invalid input:")
    assert err.count("\n") == 1


def test_sweep_k_values():
    rows = sweep_k_rows(9, 6, 3)
    assert rows[3]["upper"] == "15/2" and rows[3]["lower"] == "15/2"
    assert rows[0]["upper"] == "7" and rows[0]["lower"] == "6"
    assert rows[0]["pd_reference"] == "7"
    uppers = [F(r["upper"]) for r in rows]
    lowers = [F(r["lower"]) for r in rows]
    assert uppers == sorted(uppers) and lowers == sorted(lowers)


def test_sweep_n2_values():
    rows = {r["N2"]: r for r in sweep_n2_rows(20, 12)}
    assert rows[16]["upper"] == "18" and rows[16]["lower"] == "18"
    assert rows[12]["upper"] == "20"
    assert rows[13]["upper"] == str(F(13) + F(49, 8))


def test_sweep_csv_format(capsys):
    code, out, _ = run_cli(capsys, "sweep-k", "9", "6", "3", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    assert rows[6]["upper"] == "9" and rows[6]["lower"] == "9"


def test_simulate_document_and_exit(capsys):
    code, out, _ = run_cli(capsys, "simulate", "4", "1", "3", "2", "--trials", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["scheme"] == "mid-k"
    assert (doc["S1"], doc["S2"], doc["T"]) == (2, 5, 2)
    assert doc["claimed_dof"] == doc["certified_dof"] == "7/2"
    assert doc["compliance"]["compliant"] is True
    assert doc["slope"] is None


def test_simulate_reports_symbols_in_callers_order(capsys):
    code, out, _ = run_cli(capsys, "simulate", "4", "3", "1", "2", "--trials", "2")
    doc = json.loads(out)
    assert code == 0 and doc["config"]["swapped"] is True
    assert (doc["S1"], doc["S2"]) == (5, 2)


def test_simulate_has_no_format_flag():
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "4", "1", "3", "2", "--trials", "1", "--format", "csv"])
    assert exc.value.code == 2


def test_simulate_special_case_table1(capsys):
    code, out, _ = run_cli(capsys, "simulate", "6", "3", "3", "1", "--trials", "5", "--special-cases")
    doc = json.loads(out)
    assert code == 0
    assert doc["scheme"] == "table1"
    assert doc["certified_dof"] == "4"


def test_simulate_small_system(capsys):
    code, out, _ = run_cli(capsys, "simulate", "2", "1", "3", "0", "--trials", "5")
    doc = json.loads(out)
    assert code == 0
    assert doc["certified_dof"] == "2"


def test_simulate_with_slope():
    doc = simulate_document(4, 1, 3, 2, trials=30, seed=1, snr_db=(40.0, 60.0, 80.0))
    assert abs(doc["slope"]["slope"] - 3.5) <= 0.15


def test_figure_files(tmp_path, capsys):
    for name in ("fig2", "fig3", "fig4"):
        code, out, _ = run_cli(capsys, "figure", name, "--out", str(tmp_path))
        assert code == 0
        path = tmp_path / f"{name}.csv"
        assert path.exists()
    fig2 = list(csv.DictReader((tmp_path / "fig2.csv").read_text().splitlines()))
    assert fig2[6]["upper_exact"] == "9" and fig2[6]["lower_exact"] == "9"
    for column in ("upper_exact", "lower_exact"):
        values = [F(r[column]) for r in fig2]
        assert values == sorted(values)
    fig3 = list(csv.DictReader((tmp_path / "fig3.csv").read_text().splitlines()))
    k1 = [r for r in fig3 if r["k"] == "1"]
    assert ["7/3" == r["d2_exact"] for r in k1 if r["d1_exact"] == "1"]
    fig4 = list(csv.DictReader((tmp_path / "fig4.csv").read_text().splitlines()))
    assert fig4[2]["upper_exact"] == "20"  # N2 = 12


def test_figure_certify(tmp_path, capsys):
    code, out, err = run_cli(
        capsys, "figure", "fig3", "--out", str(tmp_path), "--certify", "--trials", "3"
    )
    assert code == 0, err


def test_figure_certify_reports_each_mismatch(tmp_path, capsys, monkeypatch):
    certified = [(label, sum_dof_lower(cfg)) for label, cfg in certified_points("fig3")]
    monkeypatch.setattr(cli, "sum_dof_lower", lambda cfg: F(-1))  # a table no plan meets
    code, _, err = run_cli(
        capsys, "figure", "fig3", "--out", str(tmp_path), "--certify", "--trials", "1"
    )
    assert code == 3
    assert err.splitlines() == [
        f"fig3 {label}: certified {dof}, table -1" for label, dof in certified
    ]


def test_figure_certify_checks_compliance(tmp_path, capsys, monkeypatch):
    # A figure point passes exactly when `simulate` would exit 0 on it.
    leak_precoders(monkeypatch)
    code, _, err = run_cli(
        capsys, "figure", "fig3", "--certify", "--trials", "2", "--out", str(tmp_path)
    )
    assert code == 3
    assert "not CSIT-compliant" in err


def test_output_file(tmp_path, capsys):
    out_file = tmp_path / "region.json"
    code, _, _ = run_cli(capsys, "region", "4", "1", "3", "0", "--out", str(out_file))
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert doc["vertices"][2] == ["1", "9/4"]


COUNT = st.integers(-3, 25).map(str)
OUT = st.sampled_from([None, "missing"])


def _flag(name: str, values) -> st.SearchStrategy:
    """Either no `name` flag or `name` with one of `values`.  A value that
    starts with "-" is attached with "=": argparse reads "-3300,-3200" alone
    as an option."""
    flags = st.sampled_from(values).map(lambda v: [f"{name}={v}"] if v[0] == "-" else [name, v])
    return st.one_of(st.just([]), flags)


def _switch(name: str) -> st.SearchStrategy:
    return st.sampled_from([[], [name]])


@st.composite
def cli_calls(draw):
    """A parseable command line: any counts, valid, boundary and junk flags."""
    command = draw(st.sampled_from(["region", "sweep-k", "sweep-n2", "simulate", "figure"]))
    if command == "figure":
        args = [command, draw(st.sampled_from(["fig2", "fig3", "fig4"]))]
        args += draw(_switch("--certify"))
    else:
        positionals = {"sweep-k": 3, "sweep-n2": 2}.get(command, 4)
        args = [command] + [draw(COUNT) for _ in range(positionals)]
    if command in ("region", "sweep-k", "sweep-n2"):
        args += draw(_flag("--format", ["json", "csv"]))
    if command in ("simulate", "figure"):
        # --trials is always set: the default 50 trials would take seconds.
        args += ["--trials", draw(st.sampled_from(["-1", "0", "1", "2"]))]
        args += draw(_flag("--seed", ["-1", "0", "7"]))
    if command == "simulate":
        args += draw(_flag("--snr", ["40", "60,40", "nan,1,2", "40,60", "3080,3100", "-3300,-3200"]))
        args += draw(_flag("--delta-min", ["0", "-1", "inf", "0.1"]))
        args += draw(_switch("--special-cases"))
    return args, draw(OUT)


@settings(max_examples=300, deadline=None)
@given(call=cli_calls())
@example(call=(["sweep-n2", "-1", "0", "--format", "csv"], None))
@example(call=(["simulate", "25", "5", "20", "3", "--trials", "1"], None))
@example(call=(["simulate", "4", "1", "3", "2", "--trials", "2", "--snr=3080,3100"], None))
@example(call=(["simulate", "4", "1", "3", "2", "--trials", "2", "--snr=-3300,-3200"], None))
def test_cli_exit_code_contract(call):
    args, out = call
    with tempfile.TemporaryDirectory() as tmp:
        if out:  # a directory that does not exist
            target = f"{tmp}/missing" if args[0] == "figure" else f"{tmp}/missing/out.txt"
            args = args + ["--out", target]
        elif args[0] == "figure":
            args = args + ["--out", tmp]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(args)  # any exception escaping main fails the test
    err = stderr.getvalue()
    assert code in (0, 2, 3), (args, code)
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith("invalid input:") and err.count("\n") == 1, (args, err)
    if code == 0 and "csv" in args and not out:
        rows = list(csv.DictReader(stdout.getvalue().splitlines()))
        assert rows and all(None not in row and None not in row.values() for row in rows)
    if args[0] == "sweep-n2":
        M, k = int(args[1]), int(args[2])
        assert (code == 0) == (M >= 1 and 0 <= k <= M and not out), (args, code)
