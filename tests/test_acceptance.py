"""Acceptance suite: one test per release criterion.

Each test prints a single PASS line (visible with `pytest -s`); a failing
criterion fails its test.  Expected values are exact rationals frozen from
the independent oracles in tests/oracles.py or from the closed-form bound
formulas; Monte Carlo items carry their stated tolerances.
"""

import time
from fractions import Fraction as F

import numpy as np

from dofbc.channel import field_channel
from dofbc.config import SystemConfig
from dofbc.figures import fig2_rows, fig3_rows, fig4_rows
from dofbc.region import (
    analogy_gap,
    pd_sum_dof,
    region_vertices,
    sum_dof_lower,
    sum_dof_upper,
)
from dofbc.schemes import build_scheme_6331, select_scheme
from dofbc.verifier import (
    RateSimConfig,
    achieved_dof,
    rate_slope_estimate,
)

from .helpers import (
    adversarial_plan,
    leaky_precoder_columns,
    low_k_grid,
    stream_gains,
    tight_regime_grid,
)
from .oracles import (
    low_k_scheme_value,
    outer_bound_halfplanes,
    sum_dof_lower_closed_form,
    vertex_oracle,
)


def _report(n, detail):
    print(f"criterion {n}: PASS - {detail}")


def test_criterion_1_region_exactness():
    start = time.monotonic()
    expected = {
        0: [(0, 0), (1, 0), (1, F(9, 4)), (0, 3)],
        1: [(0, 0), (1, 0), (1, F(7, 3)), (0, 3)],
        2: [(0, 0), (1, 0), (1, F(5, 2)), (0, 3)],
        3: [(0, 0), (1, 0), (1, 3), (0, 3)],
    }
    for k in range(4):
        cfg = SystemConfig(4, 1, 3, k)
        got = [(v.d1, v.d2) for v in region_vertices(cfg)]
        assert got == expected[k], (k, got)
        oracle = vertex_oracle(outer_bound_halfplanes(4, 1, 3, k))
        assert got == oracle, (k, oracle)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _report(1, f"(4,1,3,k) vertex lists exact, oracle-confirmed, {elapsed:.2f}s")


def test_criterion_2_bound_table():
    start = time.monotonic()
    upper = [F(7), F(57, 8), F(51, 7), F(15, 2), F(39, 5), F(33, 4), F(9), F(9), F(9), F(9)]
    lower = [F(6), F(37, 6), F(20, 3), F(15, 2), F(39, 5), F(33, 4), F(9), F(9), F(9), F(9)]
    configs = [SystemConfig(9, 3, 6, k) for k in range(10)]
    assert [sum_dof_upper(c) for c in configs] == upper
    assert [sum_dof_lower(c) for c in configs] == lower
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _report(2, f"(9,3,6,k) bound table exact for k=0..9, {elapsed:.2f}s")


def test_criterion_3_end_to_end_tightness():
    start = time.monotonic()
    count = 0
    for cfg in tight_regime_grid():
        result = achieved_dof(select_scheme(cfg), trials=50, seed=1)
        assert result.failures == (), (cfg.shape, result.failures)
        assert result.dof == sum_dof_upper(cfg), cfg.shape
        count += 1
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    _report(3, f"{count} configs certified at the upper bound, 50 trials each, {elapsed:.1f}s")


def test_criterion_4_proposition_1_certification():
    start = time.monotonic()
    count = 0
    for cfg in low_k_grid():
        baseline = F(min(cfg.N2, cfg.M))
        scheme_value = low_k_scheme_value(cfg)
        plan = select_scheme(cfg)
        result = achieved_dof(plan, trials=10, seed=2)
        assert result.ok, cfg.shape
        if scheme_value is not None and scheme_value > baseline:
            assert plan.scheme_id == "low-k"
            assert result.dof == scheme_value, cfg.shape
        else:
            assert plan.scheme_id == "rx2-baseline"
            assert result.dof == baseline, cfg.shape
        count += 1
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    _report(4, f"{count} low-k configs certified (plan or fallback), {elapsed:.1f}s")


def test_criterion_5_table_one():
    start = time.monotonic()
    plan = build_scheme_6331()
    result = achieved_dof(plan, trials=100, seed=5)
    assert result.ok and result.dof == 4
    assert result.compliance.compliant
    for channel in (field_channel(plan.cfg, seed=5, index=i) for i in range(10)):
        slot2 = stream_gains(plan, channel, 1)[1][2]  # RX1 antenna 3, second slot
        assert slot2[0] != 0 and not slot2[1:].any()
        slot3 = stream_gains(plan, channel, 2)[2][2]  # RX2 antenna 3, third slot
        assert slot3[0] != 0 and not slot3[1:].any()
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _report(5, f"(6,3,3,1) crafted plan certifies DoF 4 on 100 channels, {elapsed:.1f}s")


def test_criterion_6_rotation_reduction():
    # Wide arrays (M > N1+N2) run on their first N1+N2 antennas; the rest stay silent.
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    for trial in range(100):
        N1 = int(rng.integers(1, 5))
        N2 = int(rng.integers(N1, 6))
        M = int(rng.integers(N1 + N2 + 1, 13))
        k = int(rng.integers(0, M + 1))
        cfg = SystemConfig(M, N1, N2, k)
        result = achieved_dof(select_scheme(cfg), trials=2, seed=61 + trial)
        assert result.ok and result.dof == sum_dof_lower_closed_form(cfg), cfg.shape
        assert result.compliance.compliant, cfg.shape
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _report(
        6,
        f"100 wide systems certified on their first N1+N2 antennas at the "
        f"sum-DoF bound, CSIT-compliant, {elapsed:.1f}s",
    )


def test_criterion_7_csit_compliance(monkeypatch):
    start = time.monotonic()
    built_ins = [
        select_scheme(SystemConfig(4, 1, 3, 2)),
        select_scheme(SystemConfig(4, 1, 3, 1)),
        select_scheme(SystemConfig(9, 3, 6, 4)),
        select_scheme(SystemConfig(6, 3, 3, 1)),
        select_scheme(SystemConfig(6, 3, 3, 1), allow_special_cases=True),
        select_scheme(SystemConfig(6, 3, 3, 4)),
        select_scheme(SystemConfig(5, 2, 3, 0)),
        select_scheme(SystemConfig(2, 1, 3, 1)),
        select_scheme(SystemConfig(5, 2, 4, 2)),
    ]
    for plan in built_ins:
        assert achieved_dof(plan, trials=2).compliance.compliant, plan.scheme_id
    monkeypatch.setattr("dofbc.verifier._precoder_columns", leaky_precoder_columns)
    flagged = achieved_dof(adversarial_plan(), trials=2).compliance
    assert any(v.antenna == 2 and "varies" in v.reason for v in flagged.violations)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _report(7, f"{len(built_ins)} built-in plans compliant, adversarial plan flagged, {elapsed:.1f}s")


def test_criterion_8_monte_carlo_slopes():
    targets = [((4, 1, 3, 2), 3.5), ((4, 1, 3, 3), 4.0), ((5, 2, 3, 0), 3.0)]
    rsc = RateSimConfig(snr_db=(40.0, 60.0, 80.0), trials=100)
    details = []
    for shape, target in targets:
        start = time.monotonic()
        plan = select_scheme(SystemConfig(*shape))
        result = rate_slope_estimate(plan, rsc, seed=1)
        elapsed = time.monotonic() - start
        assert abs(result.slope - target) <= 0.15, (shape, result.slope)
        assert elapsed < 60.0
        details.append(f"{shape}->{result.slope:.3f}")
    _report(8, "slopes within +-0.15: " + ", ".join(details))


def test_criterion_9_benchmark_analogy():
    assert pd_sum_dof(1, 3) == F(13, 4)
    assert analogy_gap(SystemConfig(4, 1, 3, 2)) == (F(3, 4), F(1, 2))
    _report(9, "delayed-CSIT benchmark 13/4 and loss pair (3/4, 1/2) exact")


def test_criterion_10_figure_data():
    upper_table = [F(7), F(57, 8), F(51, 7), F(15, 2), F(39, 5), F(33, 4), F(9), F(9), F(9), F(9)]
    rows2 = fig2_rows()
    assert [F(r["upper_exact"]) for r in rows2] == upper_table
    assert [F(r["lower_exact"]) for r in rows2][:3] == [F(6), F(37, 6), F(20, 3)]

    rows3 = fig3_rows()
    by_k = {}
    for r in rows3:
        by_k.setdefault(int(r["k"]), []).append((F(r["d1_exact"]), F(r["d2_exact"])))
    for k in range(4):
        oracle = vertex_oracle(outer_bound_halfplanes(4, 1, 3, k))
        assert by_k[k] == oracle, k

    rows4 = {int(r["N2"]): F(r["upper_exact"]) for r in fig4_rows()}
    for N2 in range(10, 21):
        want = F(20) if N2 <= 12 else N2 + F((20 - N2) ** 2, 8)
        assert rows4[N2] == want, N2
        lower = F(
            [r for r in fig4_rows() if int(r["N2"]) == N2][0]["lower_exact"]
        )
        assert lower == want  # tight everywhere on this sweep (k >= N1)
    assert F(12) + F(64, 8) == F(20)  # continuity of the two formulas at N2 = 12
    _report(10, "fig2/fig3/fig4 datasets equal the closed-form values")
