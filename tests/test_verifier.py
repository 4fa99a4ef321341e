from fractions import Fraction as F

import numpy as np
import pytest

from dofbc.channel import ChannelRealization, field_channel
from dofbc.config import SystemConfig
from dofbc.errors import InvalidConfigError
from dofbc.gf import DEFAULT_PRIME
from dofbc.schemes import (
    FreshPayload,
    Slot,
    Stream,
    Symbol,
    SymbolRegistry,
    TransmissionPlan,
    UnitRecipe,
    build_scheme_6331,
    select_scheme,
)
from dofbc.verifier import (
    achieved_dof,
    certify_on_channels,
    csit_compliance,
    decodability_check,
    rate_slope_estimate,
    realize_plan,
    RateSimConfig,
    stream_gains,
)

from .helpers import adversarial_plan, empty_plan, overloaded_rx2_plan


def test_realize_shapes_mid_k():
    plan = select_scheme(SystemConfig(4, 1, 3, 2))
    system = realize_plan(plan, field_channel(plan.cfg, seed=0))
    assert system.A1.shape == (2, 7)
    assert system.A2.shape == (6, 7)


def test_realize_shapes_table1():
    plan = build_scheme_6331()
    system = realize_plan(plan, field_channel(plan.cfg, seed=0))
    assert system.A1.shape == (12, 16)
    assert system.A2.shape == (12, 16)


def test_realize_empty_plan():
    plan = empty_plan()
    system = realize_plan(plan, field_channel(plan.cfg, seed=0))
    assert system.A1.shape == (0, 0)
    report = decodability_check(system)
    assert report.all_decodable and report.achieved_dof is None


def test_realize_rejects_mismatched_channel():
    plan = select_scheme(SystemConfig(4, 1, 3, 2))
    wrong = field_channel(SystemConfig(5, 1, 3, 2), seed=0)
    with pytest.raises(InvalidConfigError):
        realize_plan(plan, wrong)


def test_decodability_mid_k_field():
    plan = select_scheme(SystemConfig(4, 1, 3, 2))
    report = decodability_check(realize_plan(plan, field_channel(plan.cfg, seed=1)))
    assert report.all_decodable
    assert report.rx1.rank_interference == 0  # RX2 symbols are invisible at RX1
    assert report.achieved_dof == F(7, 2)
    doc = report.to_json()
    assert doc["rx2"]["decodable"] and doc["achieved_dof"] == "7/2"


def test_decodability_overloaded_plan_fails():
    report = decodability_check(realize_plan(overloaded_rx2_plan(), field_channel(SystemConfig(4, 1, 3, 2), seed=1)))
    assert not report.rx2.decodable  # 6 observations cannot carry 7 symbols
    assert report.rx1.decodable
    assert report.achieved_dof is None


def test_rank_criterion_matches_direct_inversion():
    # Orthogonal streams over an identity channel: recovery by inspection.
    cfg = SystemConfig(4, 2, 2, 4)
    H = np.eye(4, dtype=np.int64)
    channel = ChannelRealization(cfg=cfg, H=H, field=DEFAULT_PRIME)
    registry = SymbolRegistry(
        (Symbol("a1", 1), Symbol("a2", 1), Symbol("b1", 2), Symbol("b2", 2))
    )
    streams = tuple(
        Stream(FreshPayload(sym.id), UnitRecipe(i)) for i, sym in enumerate(registry.symbols)
    )
    plan = TransmissionPlan(cfg, "diag", registry, (Slot(streams),), F(4))
    system = realize_plan(plan, channel)
    # A1 rows are exactly the first two rows of the identity: direct inversion
    assert np.array_equal(system.A1, np.eye(4, dtype=np.int64)[:2])
    report = decodability_check(system)
    assert report.all_decodable and report.achieved_dof == 4

    # Same channel, but both RX1 symbols forced through one antenna: direct
    # inversion is impossible and the rank criterion agrees.
    collide = (
        Stream(FreshPayload("a1"), UnitRecipe(0)),
        Stream(FreshPayload("a2"), UnitRecipe(0)),
        Stream(FreshPayload("b1"), UnitRecipe(2)),
        Stream(FreshPayload("b2"), UnitRecipe(3)),
    )
    plan2 = TransmissionPlan(cfg, "collide", registry, (Slot(collide),), F(4))
    report2 = decodability_check(realize_plan(plan2, channel))
    assert not report2.rx1.decodable
    assert report2.rx2.decodable


@pytest.mark.parametrize(
    "builder,shape,expected",
    [
        (select_scheme, (4, 1, 3, 2), F(7, 2)),
        (select_scheme, (6, 3, 3, 1), F(10, 3)),
        (None, None, F(4)),  # Table I
    ],
)
def test_achieved_dof_examples(builder, shape, expected):
    plan = build_scheme_6331() if builder is None else builder(SystemConfig(*shape))
    result = achieved_dof(plan, trials=50, seed=1)
    assert result.ok
    assert result.dof == expected
    assert result.failures == ()


def test_achieved_dof_reports_failures():
    result = achieved_dof(overloaded_rx2_plan(), trials=5, seed=1)
    assert not result.ok
    assert result.dof is None
    assert result.failures == (0, 1, 2, 3, 4)
    assert result.first_failure_report is not None


def test_interference_bookkeeping_mid_k():
    # After phase 1: RX1 holds N1^2 independent combinations, RX2 holds
    # N2*N1, and the RX1-symbol footprint at RX2 spans (N2-k)*N1 dimensions.
    from dofbc.gf import gf_rank

    cfg = SystemConfig(9, 3, 6, 4)
    M, N1, N2, k = cfg.shape
    plan = select_scheme(cfg)
    system = realize_plan(plan, field_channel(cfg, seed=21))
    a_cols = list(system.registry.owned_columns(1))
    phase1_rx1 = system.A1[: N1 * N1]
    phase1_rx2 = system.A2[: N2 * N1]
    assert gf_rank(phase1_rx1) == N1 * N1
    assert gf_rank(phase1_rx2) == N2 * N1
    assert gf_rank(phase1_rx2[:, a_cols]) == (N2 - k) * N1


def test_certification_oracle_equivalence_sample():
    shapes = [
        (4, 1, 3, 2),
        (5, 2, 4, 2),
        (6, 3, 3, 1),
        (6, 3, 3, 4),
        (5, 2, 3, 0),
        (3, 1, 2, 1),
        (8, 2, 5, 3),
        (7, 3, 4, 3),
    ]
    for shape in shapes:
        cfg = SystemConfig(*shape)
        plan = select_scheme(cfg)
        result = achieved_dof(plan, trials=50, seed=3)
        assert result.ok and result.dof == plan.claimed_dof, shape


def test_dimension_ceiling():
    for shape in [(4, 1, 3, 2), (6, 3, 3, 4), (9, 3, 6, 5), (2, 1, 3, 0)]:
        cfg = SystemConfig(*shape)
        result = achieved_dof(select_scheme(cfg), trials=5, seed=1)
        assert result.dof <= min(cfg.M, cfg.N1 + cfg.N2)


def test_certify_on_explicit_channels():
    plan = select_scheme(SystemConfig(4, 1, 3, 2))
    channels = [field_channel(plan.cfg, seed=5, index=i) for i in range(10)]
    result = certify_on_channels(plan, channels)
    assert result.ok and result.dof == F(7, 2)


def test_compliance_built_in_plans():
    plans = [
        select_scheme(SystemConfig(4, 1, 3, 2)),
        select_scheme(SystemConfig(6, 3, 3, 1)),
        select_scheme(SystemConfig(6, 3, 3, 1), allow_special_cases=True),
        select_scheme(SystemConfig(6, 3, 3, 4)),
        select_scheme(SystemConfig(5, 2, 3, 0)),
        select_scheme(SystemConfig(9, 3, 6, 4)),
    ]
    for plan in plans:
        assert csit_compliance(plan).compliant, plan.scheme_id


def test_compliance_flags_adversarial_plan():
    report = csit_compliance(adversarial_plan())
    assert not report.compliant
    assert any(v.antenna == 2 and "varies" in v.reason for v in report.violations)


def test_compliance_trivial_when_all_informed():
    cfg = SystemConfig(3, 1, 2, 3)
    assert csit_compliance(select_scheme(cfg)).compliant


def test_table1_slot_structure():
    plan = build_scheme_6331()
    channel = field_channel(plan.cfg, seed=13)
    gains_slot2 = stream_gains(plan, channel, 1)
    # RX1 antenna 3 hears only the crafted stream during slot 2
    row = gains_slot2[1][2]
    assert row[0] != 0 and not row[1:].any()
    gains_slot3 = stream_gains(plan, channel, 2)
    row = gains_slot3[2][2]
    assert row[0] != 0 and not row[1:].any()


def test_rate_slopes_match_dof():
    rsc = RateSimConfig(snr_db=(40.0, 60.0, 80.0), trials=60)
    for shape, target in [((4, 1, 3, 2), 3.5), ((4, 1, 3, 3), 4.0), ((5, 2, 3, 0), 3.0)]:
        plan = select_scheme(SystemConfig(*shape))
        result = rate_slope_estimate(plan, rsc, seed=1)
        assert abs(result.slope - target) <= 0.15, (shape, result.slope)


def test_slope_converges_with_wider_snr_span():
    plan = select_scheme(SystemConfig(4, 1, 3, 2))
    narrow = rate_slope_estimate(plan, RateSimConfig(snr_db=(30.0, 50.0), trials=40), seed=2)
    wide = rate_slope_estimate(plan, RateSimConfig(snr_db=(40.0, 70.0, 100.0), trials=40), seed=2)
    assert abs(wide.slope - 3.5) <= abs(narrow.slope - 3.5) + 0.02
    assert abs(wide.slope - 3.5) <= 0.1


def test_rate_sim_config_validation():
    with pytest.raises(InvalidConfigError):
        RateSimConfig(snr_db=(40.0,))
    with pytest.raises(InvalidConfigError):
        RateSimConfig(snr_db=(40.0, 50.0))  # span < 20 dB
    with pytest.raises(InvalidConfigError):
        RateSimConfig(snr_db=(60.0, 40.0))
    with pytest.raises(InvalidConfigError):
        RateSimConfig(snr_db=(float("nan"), 60.0, 80.0))
