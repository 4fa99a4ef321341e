import contextlib
import hashlib
import itertools
import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dofbc import gf, schemes, verifier
from dofbc.channel import ChannelDistribution, ChannelRealization, field_channel, sample_channel
from dofbc.config import SystemConfig
from dofbc.errors import InvalidConfigError, ResampleRequiredError
from dofbc.gf import DEFAULT_PRIME, gf_matmul, gf_rank, gf_solve
from dofbc.precoding import apzf_precoder
from dofbc.schemes import (
    ApzfRecipe,
    FreshPayload,
    Symbol,
    SymbolRegistry,
    TransmissionPlan,
    build_scheme_6331,
    select_scheme,
)
from dofbc.verifier import (
    _block_size,
    _gram,
    _precoder_columns,
    _precoder_matrices,
    _receiver_rates,
    achieved_dof,
    csit_compliance,
    decodability_check,
    rate_slope_estimate,
    realize_plan,
    RateSimConfig,
)

from . import helpers
from .helpers import (
    Stream,
    adversarial_plan,
    leak_precoders,
    low_k_grid,
    overloaded_rx2_plan,
    per_trial_certification,
    per_trial_rate_slope,
    planted_draws,
    reference_realize,
    repeated_coupled_plan,
    stream_gains,
    tight_regime_grid,
    weighted_retransmission_plan,
)
from .oracles import sum_dof_lower_closed_form

# sha256 of repr((scheme, str(dof), failures, resamples)) for every
# criterion-3 config with achieved_dof(trials=3, seed=1), then every third
# criterion-4 config with achieved_dof(trials=2, seed=2), in grid order;
# computed before the grouped AP-ZF solve replaced the per-stream one.
CERTIFICATION_SHA256 = "f3abddc1c116b289365ed918a4ef75ea397adbaccc212af9ebe96ac1f6b90e4f"


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


def test_realize_rejects_mismatched_channel():
    plan = select_scheme(SystemConfig(4, 1, 3, 2))
    wrong = field_channel(SystemConfig(5, 1, 3, 2), seed=0)
    with pytest.raises(InvalidConfigError):
        realize_plan(plan, wrong)


def test_decodability_mid_k_field():
    plan = select_scheme(SystemConfig(4, 1, 3, 2))
    system = realize_plan(plan, field_channel(plan.cfg, seed=1))
    report = decodability_check(system)
    assert report.all_decodable
    rx2_symbols = list(system.registry.owned_columns(2))
    assert not system.A1[:, rx2_symbols].any()  # RX2 symbols are invisible at RX1
    doc = report.to_json()
    assert list(doc) == ["rx1", "rx2"]
    assert doc["rx2"] == {"desired": 5, "recovered": 5, "decodable": True}


@pytest.mark.parametrize("shape,eliminations", [((7, 5, 6, 2), 1), ((4, 1, 3, 2), 2)])
def test_receiver_without_desired_symbols_needs_no_elimination(monkeypatch, shape, eliminations):
    # (7,5,6,2) is an rx2-baseline plan: RX1 decodes nothing, so only RX2 is
    # ranked.  The mid-k (4,1,3,2) plan has symbols for both receivers.
    plan = select_scheme(SystemConfig(*shape))
    system = realize_plan(plan, field_channel(plan.cfg, seed=1))
    calls = []

    def counting_ranks(stack, split):
        calls.append(stack.shape)
        return gf._ranks(stack, split)

    monkeypatch.setattr("dofbc.verifier._ranks", counting_ranks)
    report = decodability_check(system)
    assert report.all_decodable and len(calls) == eliminations
    assert [shape[0] for shape in calls] == [1] * eliminations  # one member each
    if eliminations == 1:
        assert plan.scheme_id == "rx2-baseline"
        assert (report.rx1.desired, report.rx1.recovered) == (0, 0)
        assert calls[0][1] == plan.cfg.N2


@pytest.mark.parametrize(
    "shape,trials,blocks", [((4, 1, 3, 2), 1, [1]), ((4, 1, 3, 2), 2, [2]), ((9, 3, 6, 4), 40, [18, 18, 4])]
)
def test_each_receiver_ranks_only_the_certified_trials(monkeypatch, shape, trials, blocks):
    # A one-trial run draws its compliance draw in the same block but never
    # ranks it; longer runs rank each block's trials, the last block
    # partial: in one `_certify` call for both receivers, or without the
    # kernel in one `_ranks` call per receiver.
    plan = select_scheme(SystemConfig(*shape))
    ranked, certified = [], []

    def counting_ranks(stack, split):
        ranked.append(len(stack))
        return gf._ranks(stack, split)

    def counting_certify(program, H, N1, columns, recovered):
        certified.append((len(H), len(recovered)))
        return gf._certify(program, H, N1, columns, recovered)

    monkeypatch.setattr("dofbc.verifier._ranks", counting_ranks)
    monkeypatch.setattr("dofbc.verifier._certify", counting_certify)
    for kernel in KERNELS:
        ranked.clear()
        certified.clear()
        with _kernel(kernel):
            assert achieved_dof(plan, trials=trials, seed=1).ok
        if kernel == "compiled":
            assert ranked == [] and certified == [(size + (trials == 1), size) for size in blocks]
        else:
            assert certified == [] and ranked == [size for size in blocks for _rx in (1, 2)]


def test_decodability_rejects_real_channels():
    # Only exact ranks certify: RX1's interference cancels exactly here, yet
    # its float singular values are about 1e-16, not 0.
    plan = select_scheme(SystemConfig(4, 1, 3, 2))
    system = realize_plan(plan, sample_channel(plan.cfg, seed=1))
    # The field is read off the maps' dtype, as a channel's is.
    assert system.field is None
    assert realize_plan(plan, field_channel(plan.cfg, seed=1)).field == DEFAULT_PRIME
    with pytest.raises(InvalidConfigError, match="GF\\(p\\)"):
        decodability_check(system)


@pytest.mark.parametrize("case", ["int32", "int16", "int8", "unreduced int64"])
def test_decodability_check_reduces_user_built_maps(case):
    # Any signed-integer maps count as GF(p) maps; their ranks must be those
    # of the reduced entries, and the caller's arrays stay as they were.
    plan = select_scheme(SystemConfig(4, 1, 3, 2))
    base = realize_plan(plan, field_channel(plan.cfg, seed=1))
    rng = np.random.default_rng(7)

    def user_maps(A):
        if case == "unreduced int64":  # entries up to about 2^62 in magnitude, both signs
            return A + DEFAULT_PRIME * rng.integers(-(2**31), 2**31, size=A.shape)
        if case == "int32":
            return A.astype(np.int32)
        small = {"int16": 2**15, "int8": 2**7}[case]
        return (A % small - small // 2).astype(case)  # keeps A's zeros, fits the dtype

    system = verifier.ObservationSystem(user_maps(base.A1), user_maps(base.A2), base.registry)
    kept = (system.A1.copy(), system.A2.copy())
    assert system.field == DEFAULT_PRIME
    report = decodability_check(system)
    for rx, A, got in ((1, system.A1, report.rx1), (2, system.A2, report.rx2)):
        desired, interference = system.registry.split(rx)
        recovered = gf_rank(A[:, interference + desired]) - gf_rank(A[:, interference])
        assert (got.desired, got.recovered) == (len(desired), recovered)
    assert all(np.array_equal(A, B) and A.dtype == B.dtype for A, B in zip(kept, (system.A1, system.A2)))
    stacked = verifier.ObservationSystem(system.A1[None], system.A2[None], system.registry)
    with pytest.raises(ValueError, match="2-D"):
        decodability_check(stacked)


def test_decodability_overloaded_plan_fails():
    report = decodability_check(realize_plan(overloaded_rx2_plan(), field_channel(SystemConfig(4, 1, 3, 2), seed=1)))
    assert not report.rx2.decodable  # 6 observations cannot carry 7 symbols
    assert report.rx1.decodable
    assert not report.all_decodable


def test_rank_criterion_matches_direct_inversion():
    # Orthogonal streams over an identity channel: recovery by inspection.
    cfg = SystemConfig(4, 2, 2, 4)
    H = np.eye(4, dtype=np.int64)
    channel = ChannelRealization(cfg=cfg, H=H)
    registry = SymbolRegistry(
        (Symbol("a1", 1), Symbol("a2", 1), Symbol("b1", 2), Symbol("b2", 2))
    )
    streams = tuple(
        Stream(FreshPayload(sym.id), ApzfRecipe(i)) for i, sym in enumerate(registry.symbols)
    )
    plan = TransmissionPlan(cfg, "diag", registry, (helpers.streams_slot(*streams),))
    system = realize_plan(plan, channel)
    # A1 rows are exactly the first two rows of the identity: direct inversion
    assert np.array_equal(system.A1, np.eye(4, dtype=np.int64)[:2])
    report = decodability_check(system)
    assert report.all_decodable

    # Same channel, but both RX1 symbols forced through one antenna: direct
    # inversion is impossible and the rank criterion agrees.
    collide = (
        Stream(FreshPayload("a1"), ApzfRecipe(0)),
        Stream(FreshPayload("a2"), ApzfRecipe(0)),
        Stream(FreshPayload("b1"), ApzfRecipe(2)),
        Stream(FreshPayload("b2"), ApzfRecipe(3)),
    )
    plan2 = TransmissionPlan(cfg, "collide", registry, (helpers.streams_slot(*collide),))
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
        assert achieved_dof(plan, trials=1).compliance.compliant, plan.scheme_id


@pytest.mark.parametrize("trials,resample_first", [(1, False), (2, False), (1, True), (2, True)])
def test_compliance_flags_adversarial_plan(monkeypatch, trials, resample_first):
    # On the compiled block path and on `realize_plan`'s alike.
    for kernel in KERNELS:
        with _kernel(kernel):
            assert achieved_dof(adversarial_plan(), trials=trials).compliance.compliant
    leak_precoders(monkeypatch)
    if resample_first:
        # Trial 0 is then accepted on draw 1; the second channel compliance
        # reads must be another draw, or a channel would be compared with itself.
        # Draw index 0 is refused alone and in any stack that holds it.
        first = field_channel(adversarial_plan().cfg, seed=1, index=0).H
        leaky_certify = verifier._certify

        def refuse_first(H):
            if (H == first).all(axis=(-2, -1)).any():
                raise ResampleRequiredError("forced")

        def realize_after_one_resample(plan, channel):
            refuse_first(channel.H)
            return realize_plan(plan, channel)

        def certify_after_one_resample(program, H, *args):
            refuse_first(H)
            return leaky_certify(program, H, *args)

        monkeypatch.setattr("dofbc.verifier.realize_plan", realize_after_one_resample)
        monkeypatch.setattr("dofbc.verifier._certify", certify_after_one_resample)
    for kernel in KERNELS:
        with _kernel(kernel):
            result = achieved_dof(adversarial_plan(), trials=trials)
        assert result.resamples == resample_first
        assert not result.compliance.compliant
        assert any(v.antenna == 2 and "varies" in v.reason for v in result.compliance.violations)


def _cut_precoders(case, precoders):
    """Precoder lists that are not one M x streams matrix per slot."""
    if case == "empty":
        return ()
    if case == "short":
        return precoders[:-1]
    if case == "long":
        return precoders + precoders[:1]
    cut = np.s_[:-1] if case == "missing-antenna" else np.s_[:, :-1]
    return (precoders[0][cut],) + precoders[1:]


@pytest.mark.parametrize("case", ["empty", "short", "long", "missing-antenna", "missing-stream"])
def test_compliance_requires_one_matrix_per_slot(case):
    plan = select_scheme(SystemConfig(4, 1, 3, 2))  # two slots
    a, b = (realize_plan(plan, field_channel(plan.cfg, seed=7, index=i)).precoders for i in range(2))
    assert csit_compliance(plan, a, b).compliant
    for args in ((_cut_precoders(case, a), _cut_precoders(case, b)), (a, _cut_precoders(case, b))):
        with pytest.raises(InvalidConfigError, match="one M x streams"):
            csit_compliance(plan, *args)


def test_compliance_trivial_when_all_informed():
    cfg = SystemConfig(3, 1, 2, 3)
    assert achieved_dof(select_scheme(cfg), trials=1).compliance.compliant


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
    cases = [
        ((4, 1, 3, 2), False, 3.5),
        ((4, 1, 3, 3), False, 4.0),
        ((5, 2, 3, 0), False, 3.0),
        ((6, 3, 3, 1), True, 4.0),  # the crafted plan: real coupled-stream fixed point
    ]
    for shape, special, target in cases:
        plan = select_scheme(SystemConfig(*shape), allow_special_cases=special)
        result = rate_slope_estimate(plan, rsc, seed=1)
        assert abs(result.slope - target) <= 0.15, (shape, result.slope)


# (slope, mean_sum_rates) of rate_slope_estimate(plan, RateSimConfig(trials=10),
# seed=1), computed before the GF(p) residual check left `apzf_precoder`;
# (6,3,3,1) runs the crafted plan.  Compared to a relative 1e-9, not bit for
# bit, because BLAS builds round differently.
RATE_SLOPE_PINS = {
    (4, 1, 3, 2): (3.396841513671524, (14.475003820162788, 25.50091258379316, 37.043130336453075)),
    (5, 2, 3, 0): (2.899875288786, (15.956521251220561, 25.587219657656014, 35.222875638196186)),
    (9, 3, 6, 4): (7.408365222733276, (28.264240392864497, 51.984028977571384, 77.48435353403275)),
    (25, 5, 20, 3): (19.843420109350713, (77.82235566611168, 142.22335890321165, 209.65918518592153)),
    (6, 3, 3, 1): (3.9562726005309563, (17.33211419361363, 30.336736812034236, 43.61702039908735)),
}


@pytest.mark.parametrize("shape", RATE_SLOPE_PINS, ids=str)
def test_rate_slope_values_pinned(shape):
    slope, means = RATE_SLOPE_PINS[shape]
    plan = select_scheme(SystemConfig(*shape), allow_special_cases=True)
    result = rate_slope_estimate(plan, RateSimConfig(trials=10), seed=1)
    assert result.slope == pytest.approx(slope, rel=1e-9, abs=0)
    assert result.mean_sum_rates == pytest.approx(means, rel=1e-9, abs=0)


@pytest.mark.parametrize("shape", [(25, 5, 20, 3), (20, 6, 14, 4), (12, 4, 8, 3)])
def test_wide_low_k_slopes_reach_claim(shape):
    # Up to 20 AP-ZF streams share a target; their real precoders must stay
    # well conditioned for five trials to show the claimed slope.
    plan = select_scheme(SystemConfig(*shape))
    result = rate_slope_estimate(plan, RateSimConfig(trials=5), seed=1)
    assert result.slope >= 0.9 * float(plan.claimed_dof), (shape, result.slope)


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
    # 10^310 overflows a float, and 10^-330 underflows to 0: no linear power.
    # An int past the largest float has none either, and raises no OverflowError.
    huge = ((10**400, 10**401), (40, 10**400))
    for snr_db in ((3080.0, 3100.0), (-3300.0, -3200.0), (np.float64(-3300.0), 0.0)) + huge:
        with pytest.raises(InvalidConfigError, match="positive, finite linear power"):
            RateSimConfig(snr_db=snr_db)
    assert RateSimConfig(snr_db=(3000.0, 3080.0)).snr_db == (3000.0, 3080.0)
    # True would read as 1 dB; a string is no SNR point either.
    for snr_db in ((True, 40.0), (0.0, 20.0, False), ("40", 60.0, 80.0)):
        with pytest.raises(InvalidConfigError, match="SNR points must be numbers"):
            RateSimConfig(snr_db=snr_db)
    assert RateSimConfig(snr_db=(np.float64(40.0), 60, 80.0)).snr_db[1] == 60
    with pytest.raises(InvalidConfigError, match="at least one trial"):
        RateSimConfig(trials=0)
    for trials in (2.5, 3.0, True, "3", None):
        with pytest.raises(InvalidConfigError, match="integer"):
            RateSimConfig(trials=trials)
    assert RateSimConfig(trials=np.int64(3)).trials == 3


def test_linear_power_of_an_int_past_the_float_range_keeps_its_sign():
    # float(-10**400) raises OverflowError, as float(10**400) does; the sign
    # still decides: no power below the smallest float, infinite past the largest.
    assert verifier._linear_power(-(10**400)) == 0.0
    assert verifier._linear_power(-1e308) == 0.0
    assert verifier._linear_power(10**400) == math.inf
    for snr_db in ((-(10**400), 40.0), (40.0, 10**400)):
        message = r"^SNR points must have a positive, finite linear power$"
        with pytest.raises(InvalidConfigError, match=message):
            RateSimConfig(snr_db=snr_db)


def test_achieved_dof_trial_count_validation():
    plan = select_scheme(SystemConfig(4, 1, 3, 2))
    for trials in (2.5, True, "3"):
        with pytest.raises(InvalidConfigError, match="integer"):
            achieved_dof(plan, trials=trials)
    with pytest.raises(InvalidConfigError, match="at least one trial"):
        achieved_dof(plan, trials=0)
    assert achieved_dof(plan, trials=np.int64(2)).ok


def _certification_digest(cold: bool = False) -> str:
    """Digest of the certification outputs; `cold` clears the template table
    before each plan is built, so no plan is served from it."""
    digest = hashlib.sha256()
    runs = [(cfg, 3, 1) for cfg in tight_regime_grid()]
    runs += [(cfg, 2, 2) for cfg in list(low_k_grid())[::3]]
    for cfg, trials, seed in runs:
        if cold:
            schemes._TEMPLATES.clear()
        plan = select_scheme(cfg)
        result = achieved_dof(plan, trials=trials, seed=seed)
        record = (plan.scheme_id, str(result.dof), result.failures, result.resamples)
        digest.update(repr(record).encode())
    return digest.hexdigest()


def test_certification_outputs_digest():
    assert _certification_digest(cold=True) == CERTIFICATION_SHA256
    _certification_digest()  # fills the table with every key of the runs
    filled = dict(schemes._TEMPLATES)
    assert _certification_digest() == CERTIFICATION_SHA256  # every plan served from the table
    assert schemes._TEMPLATES.keys() == filled.keys()
    assert all(schemes._TEMPLATES[key] is entry for key, entry in filled.items())


def _catalogue_plans():
    for M in range(1, 9):
        for N1 in range(1, 9):
            for N2 in range(N1, 9):
                for k in range(M + 1):
                    yield select_scheme(SystemConfig(M, N1, N2, k))
    yield build_scheme_6331()


def test_grouped_precoders_equal_per_stream_precoders():
    for plan in _catalogue_plans():
        for slot in plan.slots:
            # Streams cancelled at the same rows are sent from distinct antennas.
            recipes = [stream.precoder for stream in helpers.slot_streams(slot)]
            cancelled = [(r.rx, r.rows, r.antenna) for r in recipes if r.rows]
            assert len(set(cancelled)) == len(cancelled), plan.cfg.shape
        for channel in (field_channel(plan.cfg, seed=3), sample_channel(plan.cfg, seed=3)):
            matrices = _precoder_matrices(plan, channel)
            for slot, T_mat in zip(plan.slots, matrices):
                for s_idx, stream in enumerate(helpers.slot_streams(slot)):
                    recipe = stream.precoder
                    if recipe.rows:
                        single = apzf_precoder(channel, recipe.rx, recipe.rows, [recipe.antenna])
                        expected = single[:, 0]
                    else:
                        expected = np.eye(plan.cfg.M, dtype=channel.H.dtype)[:, recipe.antenna]
                    assert np.array_equal(T_mat[:, s_idx], expected), (plan.cfg.shape, s_idx)


def _solved_target(channel, rx, rows, antennas):
    """One AP-ZF target's M x n columns through public entries on
    `receiver_rows` slices: `gf_solve` on GF(p), and on a real channel one
    `np.linalg.solve` per column and draw.  A reference that shares no
    gather index, row offset, negation or stacking with the layout path."""
    H_sel = channel.receiver_rows(rx, rows)
    kp, n = len(rows), len(antennas)
    t = np.zeros(channel.H.shape[:-2] + (channel.cfg.M, n), dtype=channel.H.dtype)
    t[..., antennas, range(n)] = 1
    if channel.field is not None:
        t[..., :kp, :] = gf_solve(H_sel[..., :kp], -H_sel[..., antennas])
        return t
    for draw in np.ndindex(channel.H.shape[:-2]):
        for j, a in enumerate(antennas):
            t[draw + (slice(kp), j)] = np.linalg.solve(H_sel[draw][:, :kp], -H_sel[draw][:, a])
    return t


@pytest.mark.parametrize("compiled_kernel", [True, False])
def test_layout_precoder_columns_equal_per_target_apzf_precoders(monkeypatch, compiled_kernel):
    # Realizing gathers and solves each AP-ZF target straight from the
    # layout, on GF(p) and on real channels.  Its [I_M | Z] must equal, bit
    # for bit, the identity beside one stacked `apzf_precoder` call per
    # target, and the same columns solved without the layout (`gf_solve`,
    # or one LAPACK solve per column and draw), on one draw and on a stack.
    # The targets are read off the plan's streams, not its layout.
    # Template plans of one key share their layout across N1, so RX2's rows
    # start at a different offset of H for plans of the same layout.
    if not compiled_kernel:
        monkeypatch.setattr(gf, "_KERNEL", None)
    for plan in _catalogue_plans():
        M, targets = plan.cfg.M, helpers.reference_targets(plan)
        for index, draw in itertools.product((3, [0, 25, 50]), (field_channel, sample_channel)):
            channel = draw(plan.cfg, seed=5, index=index)
            eye = np.eye(M, dtype=channel.H.dtype) + np.zeros(channel.H.shape[:-2] + (1, 1), channel.H.dtype)
            got = _precoder_columns(plan, channel)
            for solve in (apzf_precoder, _solved_target):
                want = np.concatenate([eye, *(solve(channel, *target) for target in targets)], axis=-1)
                _assert_bits_equal(got, want)


@pytest.mark.parametrize("compiled_kernel", [True, False])
@pytest.mark.parametrize("rx", [1, 2])
def test_layout_precoder_columns_raise_on_a_singular_block(monkeypatch, compiled_kernel, rx):
    # (4,1,3,2): RX1 streams cancel at RX2 rows 0-1, RX2 streams at RX1 row
    # 0.  A singular block of either target, on GF(p) or rank-deficient on a
    # real channel, raises on one draw and as one member of a stack, on the
    # layout path and through `apzf_precoder`.
    if not compiled_kernel:
        monkeypatch.setattr(gf, "_KERNEL", None)
    plan = select_scheme(SystemConfig(4, 1, 3, 2))
    (target,) = [t for t in helpers.reference_targets(plan) if t[0] == rx]
    for draw in (field_channel, sample_channel):
        H = draw(plan.cfg, seed=0, index=[0, 25, 50]).H.copy()
        if rx == 1:
            H[1, 0, 0] = 0
        else:
            H[1, 2, :2] = 2 * H[1, 1, :2]
            if H.dtype == np.int64:
                H[1, 2, :2] %= DEFAULT_PRIME
        for channel in (ChannelRealization(plan.cfg, H[1]), ChannelRealization(plan.cfg, H)):
            with pytest.raises(ResampleRequiredError):
                _precoder_columns(plan, channel)
            with pytest.raises(ResampleRequiredError):
                apzf_precoder(channel, *target)
            with pytest.raises(ResampleRequiredError):
                realize_plan(plan, channel)


def _assert_bits_equal(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want) and got.tobytes() == want.tobytes()


HAND_BUILT_PLANS = (
    weighted_retransmission_plan(),
    repeated_coupled_plan(),
    build_scheme_6331(),
    helpers.overlapping_groups_plan(),
)


# GF(p) realize paths: the compiled kernel's one call, if it is loaded, and
# the numpy slot loop.
KERNELS = ("compiled", "numpy") if gf._KERNEL is not None else ("numpy",)


@contextlib.contextmanager
def _kernel(kernel: str):
    """Realize on GF(p) through the compiled kernel, or with it unloaded
    through the numpy slot loop."""
    with pytest.MonkeyPatch.context() as patch:
        if kernel == "numpy":
            patch.setattr(gf, "_KERNEL", None)
        yield


def _certify_counting(draws):
    """`gf._certify` that appends each call's draw count to `draws`."""

    def wrapped(program, H, *args):
        draws.append(len(H))
        return gf._certify(program, H, *args)

    return wrapped


@settings(max_examples=80, deadline=None)
@given(
    plan=st.one_of(
        st.builds(select_scheme, st.deferred(lambda: small_configs()), st.booleans()),
        st.sampled_from(HAND_BUILT_PLANS),
    ),
    seed=st.integers(0, 2**32 - 1),
)
@example(plan=HAND_BUILT_PLANS[0], seed=1)
@example(plan=HAND_BUILT_PLANS[1], seed=1)
@example(plan=HAND_BUILT_PLANS[2], seed=1)
@example(plan=HAND_BUILT_PLANS[3], seed=1)  # a group's Z columns out of order
@example(plan=select_scheme(SystemConfig(9, 3, 6, 4)), seed=2)
@example(plan=select_scheme(SystemConfig(7, 5, 6, 2)), seed=2)  # rx2-baseline
def test_layout_realizes_what_per_stream_loops_did(plan, seed):
    # On GF(p), through the compiled realize and the numpy slot loop alike.
    stacked = np.stack([sample_channel(plan.cfg, seed=seed, index=25 * i).H for i in range(3)])
    channels = (
        field_channel(plan.cfg, seed),
        sample_channel(plan.cfg, seed=seed),
        ChannelRealization(plan.cfg, stacked),
    )
    for channel, kernel in itertools.product(channels, KERNELS):
        try:
            want = reference_realize(plan, channel)
        except ResampleRequiredError:
            with pytest.raises(ResampleRequiredError), _kernel(kernel):
                realize_plan(plan, channel)
            continue
        with _kernel(kernel):
            system = realize_plan(plan, channel)
        _assert_bits_equal(system.A1, want[0])
        _assert_bits_equal(system.A2, want[1])
        assert len(system.precoders) == len(want[2]) == plan.T
        for T_mat, T_want in zip(system.precoders, want[2]):
            _assert_bits_equal(T_mat, T_want)


@settings(max_examples=80, deadline=None)
@given(
    plan=st.one_of(
        st.builds(select_scheme, st.deferred(lambda: small_configs()), st.booleans()),
        st.sampled_from(HAND_BUILT_PLANS),
    ),
    seed=st.integers(0, 2**32 - 1),
    members=st.integers(1, 4),
)
@example(plan=HAND_BUILT_PLANS[0], seed=1, members=3)
@example(plan=HAND_BUILT_PLANS[1], seed=1, members=3)
@example(plan=HAND_BUILT_PLANS[2], seed=1, members=3)  # the crafted plan's coupled fixed point
@example(plan=select_scheme(SystemConfig(9, 3, 6, 4)), seed=2, members=2)
def test_gf_trial_axis_equals_per_draw_realization(plan, seed, members):
    draws = [field_channel(plan.cfg, seed, index=25 * i) for i in range(members)]
    stacked = ChannelRealization(plan.cfg, np.stack([draw.H for draw in draws]))
    for kernel in KERNELS:
        with _kernel(kernel):
            alone = []
            for draw in draws:
                try:
                    alone.append(realize_plan(plan, draw))
                except ResampleRequiredError:
                    alone.append(None)
            if any(system is None for system in alone):
                with pytest.raises(ResampleRequiredError):
                    realize_plan(plan, stacked)
                continue
            system = realize_plan(plan, stacked)
        for i, one in enumerate(alone):
            assert np.array_equal(system.A1[i], one.A1) and np.array_equal(system.A2[i], one.A2)
            assert len(system.precoders) == len(one.precoders) == plan.T
            for T, T_one in zip(system.precoders, one.precoders):
                assert np.array_equal(T[i], T_one)


@st.composite
def small_configs(draw):
    M = draw(st.integers(1, 12), label="M")
    N1 = draw(st.integers(1, 7), label="N1")
    N2 = draw(st.integers(N1, 7), label="N2")
    return SystemConfig(M, N1, N2, draw(st.integers(0, M), label="k"))


# M > N1+N2 in about a fifth of the draws: those plans leave antennas silent.
@settings(max_examples=150, deadline=None)
@given(cfg=small_configs())
@example(cfg=SystemConfig(6, 3, 3, 1))
@example(cfg=SystemConfig(9, 2, 3, 2))
@example(cfg=SystemConfig(25, 5, 20, 3))  # 20 AP-ZF streams share one (rx, rows) group
def test_selected_plans_certify_and_comply(cfg):
    for special in (False, True):
        plan = select_scheme(cfg, special)
        result = achieved_dof(plan, trials=2)
        expected = sum_dof_lower_closed_form(cfg, special)
        assert result.ok and result.dof == expected, (cfg.shape, special)
        assert result.compliance.compliant, (cfg.shape, special)


@pytest.mark.parametrize("rx", [1, 2])
def test_singular_apzf_block_resamples(rx):
    # (4,1,3,2) mid-k: RX1 streams cancel at RX2 rows 0-1 with antennas 0-1,
    # RX2 streams at RX1 row 0 with antenna 0.  Make that block singular, in
    # one draw alone and in the middle draw of a stack of three.
    plan = select_scheme(SystemConfig(4, 1, 3, 2))
    H = field_channel(plan.cfg, seed=0, index=[0, 25, 50]).H.copy()
    if rx == 1:
        H[1, 0, 0] = 0
    else:
        H[1, 2, :2] = 2 * H[1, 1, :2] % DEFAULT_PRIME
    for draws, kernel in itertools.product((H[1], H), KERNELS):
        channel = ChannelRealization(cfg=plan.cfg, H=draws.copy())
        with pytest.raises(ResampleRequiredError), _kernel(kernel):
            realize_plan(plan, channel)


def test_compiled_realization_equals_the_numpy_slot_loop(monkeypatch):
    # Every criterion-3 plan, every third criterion-4 config's plan, the
    # crafted plan and the hand-built ones (weights -1, 3 and 2^40, a coupled
    # stream sent twice in one slot, Z columns out of order), on a stack of
    # three draws and on one 2-D draw: A1, A2 and the precoders of the one
    # compiled call equal the numpy slot loop's bit for bit.
    if gf._KERNEL is None:
        pytest.skip("the compiled kernel is not loaded")
    calls = []
    monkeypatch.setattr(verifier, "_realize", lambda *args: calls.append(1) or gf._realize(*args))
    plans = [select_scheme(cfg) for cfg in tight_regime_grid()]
    plans += [select_scheme(cfg) for cfg in list(low_k_grid())[::3]]
    plans += [build_scheme_6331(), *HAND_BUILT_PLANS]
    for plan in plans:
        for channel in (field_channel(plan.cfg, 1, index=[0, 25, 50]), field_channel(plan.cfg, 2)):
            with _kernel("numpy"):
                want = realize_plan(plan, channel)
            got = realize_plan(plan, channel)
            _assert_bits_equal(got.A1, want.A1)
            _assert_bits_equal(got.A2, want.A2)
            assert len(got.precoders) == len(want.precoders) == plan.T
            for T_mat, T_want in zip(got.precoders, want.precoders):
                _assert_bits_equal(T_mat, T_want)
    assert len(calls) == 2 * len(plans)


def test_compiled_certification_equals_the_realize_and_rank_path(monkeypatch):
    # Every criterion-3 plan and every third criterion-4 config's plan at 1,
    # 2 and 50 trials, the hand-built plans without coupled streams, the
    # overloaded plan that fails every trial, and a singular AP-ZF block
    # planted in the middle draw of a 3-draw block: `achieved_dof` through
    # one `gf._certify` call per block, realizing nothing, equals it with the
    # kernel unloaded (`realize_plan` and `_recovered`) and the per-trial
    # loop, field for field.  Coupled plans keep `realize_plan`.
    if gf._KERNEL is None:
        pytest.skip("the compiled kernel is not loaded")
    certified, realized = [], []

    def realize_counting(plan, channel):
        realized.append(len(channel.H))
        return realize_plan(plan, channel)

    monkeypatch.setattr(verifier, "_certify", _certify_counting(certified))
    monkeypatch.setattr(verifier, "realize_plan", realize_counting)

    def certified_alike(plan, trials, draw=field_channel):
        certified.clear()
        realized.clear()
        got = achieved_dof(plan, trials=trials, seed=1)
        assert realized == []
        with _kernel("numpy"):
            assert achieved_dof(plan, trials=trials, seed=1) == got
        assert per_trial_certification(plan, trials, seed=1, draw=draw) == got
        return got

    plans = [select_scheme(cfg) for cfg in tight_regime_grid()]
    plans += [select_scheme(cfg) for cfg in list(low_k_grid())[::3]]
    plans += [weighted_retransmission_plan(), helpers.overlapping_groups_plan(), adversarial_plan()]
    for plan, trials in itertools.product(plans, (1, 2, 50)):
        result = certified_alike(plan, trials)
        assert result.ok or plan.scheme_id == "adversarial", (plan.cfg.shape, trials)
        size = _block_size(plan)
        blocks = [min(size, trials - start) + (trials == 1) for start in range(0, trials, size)]
        assert certified == blocks, (plan.cfg.shape, trials)
    for trials in (1, 2, 50):
        result = certified_alike(overloaded_rx2_plan(), trials)
        assert result.failures == tuple(range(trials)) and result.first_failure_report is not None
    # Zero RX1's cancelling entry, or make two RX2 rows of the block
    # dependent, on draw 25 only: the block of draws 0, 25 and 50 raises,
    # and trial 1 resamples on its own.
    plan = select_scheme(SystemConfig(4, 1, 3, 2))
    for plant in (_zero_h00, _dependent_rx2_rows):
        planted = planted_draws(field_channel, lambda index: index == 25, plant)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(verifier, "field_channel", planted)
            result = certified_alike(plan, 3, draw=planted)
        assert result.ok and result.resamples == 1
        assert certified == [3, 1, 1, 1, 1]
    for plan in (build_scheme_6331(), repeated_coupled_plan()):
        certified.clear()
        realized.clear()
        assert achieved_dof(plan, trials=2, seed=1) == per_trial_certification(plan, 2, seed=1)
        assert certified == [] and realized == [2]


@settings(max_examples=200, deadline=None)
@given(
    rows=st.integers(0, 6),
    inner=st.integers(0, 6),
    owners=st.lists(st.sampled_from([1, 2]), max_size=7),
    sparse=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(rows=3, inner=3, owners=[], sparse=False, seed=0)
@example(rows=3, inner=2, owners=[1, 1, 1], sparse=False, seed=0)
@example(rows=3, inner=2, owners=[2, 2, 2, 2], sparse=False, seed=0)
def test_decodability_ranks_equal_separate_ranks(rows, inner, owners, sparse, seed):
    # Products of thin factors make rank-deficient observation matrices, and
    # sparse factors (entries 0, 1 and p - 1 only) rank-deficient column
    # subsets; a stack of three is ranked in one call per receiver, member by
    # member.
    rng = np.random.default_rng(seed)
    cols = len(owners)
    registry = SymbolRegistry(tuple(Symbol(f"s{i}", rx) for i, rx in enumerate(owners)))

    def factor(shape):
        if sparse:
            return rng.choice(np.array([0, 1, DEFAULT_PRIME - 1]), shape)
        return rng.integers(0, DEFAULT_PRIME, shape)

    A1, A2 = (
        np.stack([gf_matmul(factor((rows, inner)), factor((inner, cols))) for _ in range(3)])
        for _ in range(2)
    )
    for member, recovered in enumerate(verifier._recovered(A1, A2, registry)):
        report = verifier._report(registry, recovered)
        for rx, A, rx_report in ((1, A1[member], report.rx1), (2, A2[member], report.rx2)):
            other = [c for c in range(cols) if owners[c] != rx]
            assert rx_report.desired == cols - len(other)
            assert rx_report.recovered == gf_rank(A) - gf_rank(A[:, other])
            assert rx_report.decodable == (rx_report.recovered == rx_report.desired)


# Every template regime, and the crafted plan's coupled fixed point.  No
# first draw of any M <= 12, N2 <= 7 plan (10 trials at seed 5) needs a
# resample, so the stacked pass is not expected to raise here.
@settings(max_examples=60, deadline=None)
@given(
    cfg=small_configs(),
    special=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    trials=st.integers(1, 23),
)
@example(cfg=SystemConfig(6, 3, 3, 1), special=True, seed=1, trials=12)
@example(cfg=SystemConfig(9, 3, 6, 4), special=False, seed=2, trials=10)
def test_trial_axis_equals_per_trial_evaluation(cfg, special, seed, trials):
    plan = select_scheme(cfg, special)
    rsc = RateSimConfig(trials=trials)
    snrs = [10 ** (db / 10.0) for db in rsc.snr_db]
    draws = [sample_channel(plan.cfg, seed=seed, index=25 * i) for i in range(min(trials, 10))]
    system = realize_plan(plan, ChannelRealization(plan.cfg, np.stack([d.H for d in draws])))

    def receiver_rates(A, rx):
        desired, other = plan.registry.split(rx)
        if not desired:
            return np.zeros(A.shape[:-2] + (len(snrs),))
        return _receiver_rates(_gram(A[..., desired]), _gram(A[..., other]), snrs, plan.T)

    rates = [receiver_rates(A, rx) for rx, A in ((1, system.A1), (2, system.A2))]
    for i, draw in enumerate(draws):
        alone = realize_plan(plan, draw)
        assert np.array_equal(system.A1[i], alone.A1) and np.array_equal(system.A2[i], alone.A2)
        for T, T_alone in zip(system.precoders, alone.precoders):
            assert np.array_equal(T[i], T_alone)
        for rx, A in ((1, alone.A1), (2, alone.A2)):
            assert np.array_equal(rates[rx - 1][i], receiver_rates(A, rx))
    result = rate_slope_estimate(plan, rsc, seed=seed)
    expected = per_trial_rate_slope(plan, rsc, seed=seed)
    assert (result.slope, result.mean_sum_rates, result.trials_used, result.discarded) == expected


def _zero_rx2_block(H):
    H[1:3, :2] = 0


def _zero_h00(H):
    H[0, 0] = 0


def _dependent_rx2_rows(H):
    H[2, :2] = 2 * H[1, :2] % DEFAULT_PRIME


def test_singular_trial_redoes_its_block_per_trial(monkeypatch):
    # (4,1,3,2): RX1 streams cancel at RX2 rows 0-1 with antennas 0-1.  Zero
    # that block on trial 3's first draw (it resamples) and on every draw of
    # trial 12 (it is discarded).  All 20 trials share one block, drawn in one
    # call; it raises, and each trial is redone alone on one-draw stacks.
    plan = select_scheme(SystemConfig(4, 1, 3, 2))

    def hit(index):
        return index == 75 or index // 25 == 12

    planted = planted_draws(sample_channel, hit, _zero_rx2_block)
    calls = []  # (draws, raised) per realize_plan call

    def realize_counting(plan, channel):
        try:
            system = realize_plan(plan, channel)
        except ResampleRequiredError:
            calls.append((len(channel.H), True))
            raise
        calls.append((len(channel.H), False))
        return system

    monkeypatch.setattr("dofbc.verifier.sample_channel", planted)
    monkeypatch.setattr("dofbc.verifier.realize_plan", realize_counting)
    rsc = RateSimConfig(trials=20)
    result = rate_slope_estimate(plan, rsc, seed=1)
    # The block raises once; then one draw per trial, and one per resample:
    # trial 3 raises on draw 75 and passes on 76, trial 12 raises on all 25.
    assert calls[0] == (20, True)
    assert all(draws == 1 for draws, _ in calls[1:])
    assert len(calls) - 1 == 20 + 1 + 24
    assert [raised for _, raised in calls[1:]].count(True) == 1 + 25
    assert (result.trials_used, result.discarded) == (19, 1)
    expected = per_trial_rate_slope(plan, rsc, seed=1, draw=planted)
    assert (result.slope, result.mean_sum_rates, result.trials_used, result.discarded) == expected


def test_non_finite_rows_inside_a_block_are_discarded(monkeypatch):
    # No natural draw reaches the finite mask of a block that does not raise:
    # at 160-200 dB, (4,1,3,2) discards through a raising block instead.  So
    # plant NaN and inf rates at chosen trials of its one 20-trial block.
    plan = select_scheme(SystemConfig(4, 1, 3, 2))
    rsc = RateSimConfig(trials=20)
    assert _block_size(plan) >= rsc.trials
    stacks = []

    def planting(values):
        def receiver_rates(*args):
            rates = _receiver_rates(*args)
            stacks.append(len(rates))
            for i, value in values.items():
                rates[i, i % rates.shape[-1]] = value
            return rates

        return receiver_rates

    planted = {0: np.nan, 7: np.inf, 13: -np.inf, 19: np.nan}
    monkeypatch.setattr("dofbc.verifier._receiver_rates", planting(planted))
    result = rate_slope_estimate(plan, rsc, seed=1)
    assert stacks == [20, 20]  # one call per receiver: the block did not raise
    assert (result.trials_used, result.discarded) == (16, 4)
    expected = per_trial_rate_slope(plan, rsc, seed=1, skip=planted)
    assert (result.slope, result.mean_sum_rates, result.trials_used, result.discarded) == expected
    monkeypatch.setattr("dofbc.verifier._receiver_rates", planting(dict.fromkeys(range(20), np.inf)))
    with pytest.raises(ResampleRequiredError, match="all Monte Carlo trials were discarded"):
        rate_slope_estimate(plan, rsc, seed=1)


# 40 trials of criterion 8's (4,1,3,2) and (5,2,3,0) and of the crafted plan
# fill one block; (9,3,6,4) rates them in blocks of 18, 18 and 4.  The 2 or
# 5 SNR points sit on the log-det stack's leading axis.
@pytest.mark.parametrize("snr_db", [(40, 60), (40, 60, 80, 100, 120)], ids=len)
@pytest.mark.parametrize(
    "shape,blocks",
    [
        pytest.param(shape, blocks, id=str(shape))
        for shape, blocks in (
            ((4, 1, 3, 2), [40]),
            ((5, 2, 3, 0), [40]),
            ((9, 3, 6, 4), [18, 18, 4]),
            ((6, 3, 3, 1), [40]),
        )
    ],
)
def test_rate_slope_equals_per_trial_loop_at_any_snr_count(monkeypatch, shape, blocks, snr_db):
    plan = select_scheme(SystemConfig(*shape), allow_special_cases=True)
    calls = []

    def realize_counting(plan, channel):
        calls.append(len(channel.H))
        return realize_plan(plan, channel)

    monkeypatch.setattr("dofbc.verifier.realize_plan", realize_counting)
    rsc = RateSimConfig(snr_db=snr_db, trials=40)
    result = rate_slope_estimate(plan, rsc, seed=1)
    assert calls == blocks
    expected = per_trial_rate_slope(plan, rsc, seed=1)
    assert (result.slope, result.mean_sum_rates, result.trials_used, result.discarded) == expected
    assert result.trials_used == 40


# (4,1,3,2) mid-k: the RX2 streams cancel at RX1 row 0 with antenna 0, so a
# zero H[0, 0] makes their AP-ZF block singular.  Planted draw indices:
# trial 0's first draw; the first draws of trials 0 and 11 of a 12-trial
# block; two draws of trial 3; the compliance draw of a one-trial run, which
# raises rather than resamples.  Each run is one block, whose stack raises;
# `resamples` counts the planted draws that its trials then redo.
@pytest.mark.parametrize(
    "trials,planted,resamples",
    [(1, (0,), 1), (2, (0,), 1), (12, (0, 25 * 11), 2), (12, (75, 76), 2), (1, (25,), 0)],
)
def test_singular_draw_redoes_its_certification_block_per_trial(
    monkeypatch, trials, planted, resamples
):
    plan = select_scheme(SystemConfig(4, 1, 3, 2))
    planted_channel = planted_draws(field_channel, lambda index: index in planted, _zero_h00)
    try:
        want = per_trial_certification(plan, trials, seed=1, draw=planted_channel)
    except ResampleRequiredError:
        want = None
    draws = []

    def realize_counting(plan, channel):
        draws.append(len(channel.H))
        return realize_plan(plan, channel)

    monkeypatch.setattr("dofbc.verifier.field_channel", planted_channel)
    monkeypatch.setattr("dofbc.verifier.realize_plan", realize_counting)
    monkeypatch.setattr("dofbc.verifier._certify", _certify_counting(draws))
    for kernel in KERNELS:
        draws.clear()
        with _kernel(kernel):
            if want is None:
                with pytest.raises(ResampleRequiredError):
                    achieved_dof(plan, trials=trials, seed=1)
            else:
                assert achieved_dof(plan, trials=trials, seed=1) == want
                assert want.resamples == resamples
        # One stack of the block (index 25 added to a one-trial run's), then
        # one draw per trial and per resample, realized or certified.
        assert draws == [trials + (trials == 1)] + [1] * (trials + resamples)


def _planted_zero(H):
    H[...] = 0


def _raising_on_planted(fn, draws=None):
    """`fn(plan, channel)` that raises ResampleRequiredError if any draw of
    `channel` is all zero (a planted draw; no real or GF(p) draw is), and
    appends to `draws` the number of draws of each stacked call."""

    def wrapped(plan, channel):
        if draws is not None:
            draws.append(len(channel.H))
        if (channel.H == 0).all(axis=(-2, -1)).any():
            raise ResampleRequiredError("planted singular draw")
        return fn(plan, channel)

    return wrapped


def _certify_raising_on_planted(draws):
    """`gf._certify` that raises as `_raising_on_planted` does, also for a
    plan without AP-ZF, and counts its draws into `draws`."""

    def wrapped(program, H, *args):
        draws.append(len(H))
        if (H == 0).all(axis=(-2, -1)).any():
            raise ResampleRequiredError("planted singular draw")
        return gf._certify(program, H, *args)

    return wrapped


@st.composite
def planted_runs(draw):
    """(trials, {trial: planted draws}, compliance draw planted)."""
    trials = draw(st.integers(1, 120), label="trials")
    depths = st.sampled_from([1, 2, 25])  # 25: every draw of the trial
    planted = draw(st.dictionaries(st.integers(0, trials - 1), depths, max_size=3), label="planted")
    return trials, planted, trials == 1 and draw(st.booleans(), label="compliance")


@settings(max_examples=40, deadline=None)
@given(
    plan=st.builds(select_scheme, st.deferred(lambda: small_configs()), st.booleans()),
    seed=st.integers(0, 2**32 - 1),
    run=planted_runs(),
)
@example(plan=select_scheme(SystemConfig(4, 1, 3, 2)), seed=1, run=(1, {}, True))
@example(plan=select_scheme(SystemConfig(4, 1, 3, 2)), seed=1, run=(100, {37: 1}, False))
@example(plan=select_scheme(SystemConfig(9, 3, 6, 4)), seed=2, run=(45, {20: 2}, False))
@example(plan=build_scheme_6331(), seed=1, run=(120, {0: 25, 119: 1}, False))
def test_redone_blocks_equal_per_trial_loops(plan, seed, run):
    trials, planted, compliance = run
    indices = {25 * i + a for i, depth in planted.items() for a in range(depth)}
    indices |= {25} if compliance else set()
    hit = indices.__contains__
    size = _block_size(plan)
    blocks = -(-trials // size)

    def cost_bound(raising):
        """Calls at most: one stack per block, then one draw per trial of a
        raising block and one per resample attempt."""
        redone = sum(min(size, trials - size * b) for b in raising)
        return blocks + redone + sum(planted.values())

    raising = {i // size for i in planted}
    real = planted_draws(sample_channel, hit, _planted_zero)
    field = planted_draws(field_channel, hit, _planted_zero)
    rsc = RateSimConfig(trials=trials)
    with pytest.MonkeyPatch.context() as patch:
        draws = []
        patch.setattr("dofbc.verifier.realize_plan", _raising_on_planted(realize_plan, draws))
        patch.setattr("dofbc.verifier._certify", _certify_raising_on_planted(draws))
        patch.setattr("dofbc.verifier._precoder_matrices", _raising_on_planted(_precoder_matrices))
        patch.setattr("dofbc.verifier.sample_channel", real)
        patch.setattr("dofbc.verifier.field_channel", field)
        for name in ("realize_plan", "_precoder_matrices"):
            patch.setattr(f"tests.helpers.{name}", _raising_on_planted(getattr(helpers, name)))
        if all(depth == 25 for depth in planted.values()) and len(planted) == trials:
            with pytest.raises(ResampleRequiredError, match="discarded"):
                rate_slope_estimate(plan, rsc, seed=seed)
        else:
            result = rate_slope_estimate(plan, rsc, seed=seed)
            expected = per_trial_rate_slope(plan, rsc, seed=seed, draw=real)
            got = (result.slope, result.mean_sum_rates, result.trials_used, result.discarded)
            assert got == expected
        assert len(draws) <= cost_bound(raising) and sum(n > 1 for n in draws) <= blocks
        draws.clear()
        try:
            want = per_trial_certification(plan, trials, seed=seed, draw=field)
        except ResampleRequiredError:
            with pytest.raises(ResampleRequiredError):
                achieved_dof(plan, trials=trials, seed=seed)
        else:
            assert achieved_dof(plan, trials=trials, seed=seed) == want
        raising |= {0} if compliance else set()
        assert len(draws) <= cost_bound(raising) and sum(n > 1 for n in draws) <= blocks


# The rate-slope configs (criterion 8 and (9,3,6,4)) and the crafted plan.
# A block that raises is redone trial by trial; no run here pays that, so
# each rate slope realizes, and each certification realizes or certifies,
# each of its blocks once.  If
# raising blocks become common, this flags it before the redo cost goes
# unmeasured.
@pytest.mark.parametrize(
    "plan",
    [
        select_scheme(SystemConfig(*shape))
        for shape in ((4, 1, 3, 2), (4, 1, 3, 3), (5, 2, 3, 0), (9, 3, 6, 4))
    ]
    + [build_scheme_6331()],
    ids=lambda plan: str(plan.cfg.shape),
)
def test_no_trial_block_raises_on_the_rate_slope_configs(monkeypatch, plan):
    calls = []

    def realize_counting(plan, channel):
        calls.append(len(channel.H))
        return realize_plan(plan, channel)

    monkeypatch.setattr("dofbc.verifier.realize_plan", realize_counting)
    monkeypatch.setattr("dofbc.verifier._certify", _certify_counting(calls))
    size = _block_size(plan)
    blocks = [min(size, 100 - start) for start in range(0, 100, size)]
    for seed in (1, 2):
        calls.clear()
        rate_slope_estimate(plan, RateSimConfig(trials=100), seed=seed)
        assert calls == blocks, seed
        calls.clear()
        achieved_dof(plan, trials=100, seed=seed)
        assert calls == blocks, seed


# float.hex of (slope, mean_sum_rates) of rate_slope_estimate(plan,
# RateSimConfig(trials=trials), seed), keyed by (shape, seed) then trials,
# the crafted plan for (6,3,3,1); recorded with numpy 2.4.6 and OpenBLAS
# 0.3.31 on x86-64: the 20-trial bits before GF(p) channels gained a trial
# axis through the same `realize_plan`, the 100-trial bits before blocks
# were sized by cells, when they still held 10 trials.  Compared bit for bit.
RATE_SLOPE_BITS = {
    ((4, 1, 3, 2), 1): {
        20: ("0x1.b3f3b9b043754p+1", ("0x1.c193672e6cc10p+3", "0x1.91d5cb4545b00p+4", "0x1.256b4b6b1b808p+5")),
        100: ("0x1.b990edddc59a0p+1", ("0x1.de0ed83c2acaep+3", "0x1.a4369d8abb1a0p+4", "0x1.2edef0e3c197ep+5")),
    },
    ((4, 1, 3, 2), 2): {
        20: ("0x1.bbb7df53acf6ap+1", ("0x1.ebdb384dfd65ep+3", "0x1.ac885fdcd20d5p+4", "0x1.3336cf1b1aaa4p+5")),
        100: ("0x1.b8ce52cc3273ep+1", ("0x1.ed3e59e63ba2ep+3", "0x1.abc39cb41d5cep+4", "0x1.325a0262a16f1p+5")),
    },
    ((6, 3, 3, 1), 1): {
        20: ("0x1.f71f1bd99d7d3p+1", ("0x1.13fabaaed732fp+4", "0x1.e202708cb0202p+4", "0x1.5ae80970ae662p+5")),
    },
    ((6, 3, 3, 1), 2): {
        20: ("0x1.f75a9cfa4b816p+1", ("0x1.084051f38aa8fp+4", "0x1.d64f12f0ee33ap+4", "0x1.55238a7e62162p+5")),
    },
    ((9, 3, 6, 4), 1): {
        20: ("0x1.da0ca86078579p+2", ("0x1.da51d4d1edc4ap+4", "0x1.abe7c98c6ce96p+5", "0x1.3b6cb81c38825p+6")),
        100: ("0x1.dd284259101a2p+2", ("0x1.d8b0ed33db266p+4", "0x1.ad06f37a3df01p+5", "0x1.3c4edbfde0570p+6")),
    },
    ((9, 3, 6, 4), 2): {
        20: ("0x1.cc970287d4118p+2", ("0x1.b536a3437058ap+4", "0x1.926b6ef0eab6fp+5", "0x1.2c8f258071fa0p+6")),
        100: ("0x1.dbdfe24f888f1p+2", ("0x1.d37b58d7f60afp+4", "0x1.a99a1adc16137p+5", "0x1.3a791c10eaf2fp+6")),
    },
}


def test_rate_slope_default_seed_is_one():
    # A call without `seed` rates the draws of seed 1, bit for bit.
    plan = select_scheme(SystemConfig(4, 1, 3, 2))
    rsc = RateSimConfig(trials=20)
    default = rate_slope_estimate(plan, rsc)
    assert default == rate_slope_estimate(plan, rsc, seed=1)
    assert default.slope.hex() == RATE_SLOPE_BITS[(4, 1, 3, 2), 1][20][0]
    assert default != rate_slope_estimate(plan, rsc, seed=2)


@pytest.mark.parametrize("shape,seed", RATE_SLOPE_BITS, ids=str)
def test_rate_slope_bits_pinned(shape, seed):
    plan = select_scheme(SystemConfig(*shape), allow_special_cases=True)
    for trials, (slope, means) in RATE_SLOPE_BITS[shape, seed].items():
        result = rate_slope_estimate(plan, RateSimConfig(trials=trials), seed=seed)
        assert (result.trials_used, result.discarded) == (trials, 0)
        assert result.slope.hex() == slope, trials
        assert tuple(v.hex() for v in result.mean_sum_rates) == means, trials
