import hashlib
import json
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dofbc import schemes
from dofbc.channel import field_channel, sample_channel
from dofbc.config import SystemConfig, normalize_config
from dofbc.errors import InvalidConfigError
from dofbc.precoding import CHANNEL, CONSTANT
from dofbc.region import plan_shape, sum_dof_upper
from dofbc.schemes import (
    ApzfRecipe,
    CoupledPayload,
    FreshPayload,
    InterferencePayload,
    RxRowRef,
    Slot,
    StreamGroup,
    Symbol,
    SymbolRegistry,
    TransmissionPlan,
    build_scheme_6331,
    select_scheme,
)
from dofbc.verifier import realize_plan

from . import helpers
from .helpers import (
    Stream,
    fresh_count,
    low_k_grid,
    max_streams_per_slot,
    reference_layout,
    reference_plan_json,
    slot_streams,
    streams_slot,
    tight_regime_grid,
)
from .oracles import sum_dof_lower_closed_form

GOLDEN = Path(__file__).parent / "data" / "plan_4132.json"

# sha256 of json.dumps(plan.to_json(), indent=1) for every
# plan = select_scheme(SystemConfig(M, N1, N2, k), special), concatenated in
# loop order over M, N1 <= N2 <= 8, 0 <= k <= M and both values of
# `special`: 3,168 plans.
CATALOGUE_SHA256 = "dc56bb8d5ab7db6aeef4bfcf420d54e6a5b6e94d92f66f15fadd528078115c43"


@pytest.mark.parametrize(
    "shape,T,S1,S2,dof",
    [
        ((4, 1, 3, 2), 2, 2, 5, F(7, 2)),
        ((4, 1, 3, 1), 3, 3, 7, F(10, 3)),
        ((9, 3, 6, 4), 5, 15, 24, F(39, 5)),
    ],
)
def test_mid_k_counts(shape, T, S1, S2, dof):
    plan = select_scheme(SystemConfig(*shape))
    assert (plan.T, plan.registry.S1, plan.registry.S2) == (T, S1, S2)
    assert plan.claimed_dof == dof == F(S1 + S2, T)


def test_mid_k_phase_structure():
    cfg = SystemConfig(9, 3, 6, 4)
    plan = select_scheme(cfg)
    M, N1, N2, k = cfg.shape
    for t in range(N1):
        assert fresh_count(plan, t, 1) == M - k
        assert fresh_count(plan, t, 2) == M - N1
    for u in range(N1, plan.T):
        assert fresh_count(plan, u, 1) == 0
        assert fresh_count(plan, u, 2) == N2 - N1
        retrans = [s for s in slot_streams(plan.slots[u]) if isinstance(s.payload, InterferencePayload)]
        assert len(retrans) == N1
        for stream in retrans:
            assert not stream.precoder.rows
            assert stream.precoder.antenna < k
            assert all(ref.slot < u for ref in stream.payload.terms)
            assert all(ref.rx == 2 and ref.row >= k for ref in stream.payload.terms)


@pytest.mark.parametrize(
    "shape,m,T,total,dof",
    [
        ((6, 3, 3, 1), 3, 3, 10, F(10, 3)),
        ((9, 3, 6, 2), 6, 6, 40, F(20, 3)),
        ((5, 2, 3, 1), 3, 3, 10, F(10, 3)),
    ],
)
def test_low_k_counts(shape, m, T, total, dof):
    plan = select_scheme(SystemConfig(*shape))
    assert plan.T == T
    assert plan.registry.S1 + plan.registry.S2 == total
    assert plan.claimed_dof == dof
    k = shape[3]
    assert plan.registry.S1 == k * m


def test_table1_summary_and_structure():
    plan = build_scheme_6331()
    assert (plan.registry.S1, plan.registry.S2, plan.T) == (8, 8, 4)
    assert plan.claimed_dof == 4
    assert plan.aux_count == 2
    # the crafted streams ride the informed antenna in every slot
    for slot in plan.slots:
        lead = slot_streams(slot)[0]
        assert lead.precoder == ApzfRecipe(0)
    # slots 1-2 share the c equation, slots 3-4 the d equation
    assert slot_streams(plan.slots[0])[0].payload == slot_streams(plan.slots[1])[0].payload
    assert slot_streams(plan.slots[2])[0].payload == slot_streams(plan.slots[3])[0].payload
    assert slot_streams(plan.slots[0])[0].payload.terms == (RxRowRef(0, 2, 0, 1), RxRowRef(1, 1, 0, 1))


def test_baseline_claims():
    assert select_scheme(SystemConfig(4, 1, 3, 3)).claimed_dof == 4
    assert select_scheme(SystemConfig(5, 2, 3, 0)).claimed_dof == 3
    assert select_scheme(SystemConfig(2, 1, 3, 1)).claimed_dof == 2
    assert select_scheme(SystemConfig(6, 3, 3, 4)).claimed_dof == 6


def test_select_scheme_dispatch():
    assert select_scheme(SystemConfig(4, 1, 3, 2)).scheme_id == "mid-k"
    assert select_scheme(SystemConfig(6, 3, 3, 1)).scheme_id == "low-k"
    assert select_scheme(SystemConfig(6, 3, 3, 1), allow_special_cases=True).scheme_id == "table1"
    assert select_scheme(SystemConfig(6, 3, 3, 4)).scheme_id == "zf-baseline"
    assert select_scheme(SystemConfig(2, 1, 3, 0)).scheme_id == "rx2-baseline"
    assert select_scheme(SystemConfig(3, 2, 3, 1)).scheme_id == "rx2-baseline"  # low-k fallback


def test_select_scheme_caps_wide_arrays():
    plan = select_scheme(SystemConfig(9, 1, 3, 2))
    assert plan.cfg.shape == (4, 1, 3, 2)
    assert plan.claimed_dof == sum_dof_lower_closed_form(SystemConfig(9, 1, 3, 2))


def test_selected_claim_matches_lower_bound_grid():
    for M in range(1, 9):
        for N1 in range(1, 5):
            for N2 in range(N1, 7):
                for k in range(M + 1):
                    cfg = SystemConfig(M, N1, N2, k)
                    for flag in (False, True):
                        plan = select_scheme(cfg, allow_special_cases=flag)
                        assert plan.claimed_dof == sum_dof_lower_closed_form(cfg, flag), cfg.shape


def test_mid_k_claim_equals_upper_bound_grid():
    for N1 in range(1, 10):
        for N2 in range(N1 + 1, 11):
            for M in range(N2 + 1, min(10, N1 + N2) + 1):
                for k in range(N1, N2):
                    cfg = SystemConfig(M, N1, N2, k)
                    assert select_scheme(cfg).claimed_dof == sum_dof_upper(cfg)


def test_csit_label_discipline_all_plans():
    plans = [
        select_scheme(SystemConfig(4, 1, 3, 2)),
        select_scheme(SystemConfig(6, 3, 3, 1)),
        build_scheme_6331(),
        select_scheme(SystemConfig(6, 3, 3, 4)),
        select_scheme(SystemConfig(5, 2, 3, 0)),
    ]
    for plan in plans:
        k = plan.cfg.k
        for slot in plan.slots:
            for stream in slot_streams(slot):
                labels = stream.precoder.labels(plan.cfg)
                assert all(labels[a] == CONSTANT for a in range(k, plan.cfg.M))
                if isinstance(stream.precoder, ApzfRecipe):
                    # the first k' informed antennas solve; spare ones send constants
                    kp = len(stream.precoder.rows)
                    assert labels == (CHANNEL,) * kp + (CONSTANT,) * (plan.cfg.M - kp)


def test_per_slot_stream_budget():
    for shape in [(4, 1, 3, 2), (9, 3, 6, 4), (5, 2, 4, 2)]:
        cfg = SystemConfig(*shape)
        plan = select_scheme(cfg)
        M, N1, N2, k = cfg.shape
        phase2 = max(0, M - k - N1)
        assert max_streams_per_slot(plan) <= M + phase2
    for shape in [(6, 3, 3, 1), (9, 3, 6, 2)]:
        plan = select_scheme(SystemConfig(*shape))
        assert max_streams_per_slot(plan) <= plan.cfg.M


def test_rx2_allocation_never_exceeds_n2():
    for shape in [(4, 1, 3, 2), (9, 3, 6, 4), (5, 2, 4, 2), (6, 3, 3, 1), (6, 3, 3, 4)]:
        cfg = SystemConfig(*shape)
        plan = select_scheme(cfg)
        for t in range(plan.T):
            assert fresh_count(plan, t, 2) <= cfg.N2


def test_plan_validation_rejects_bad_structures():
    cfg = SystemConfig(4, 1, 3, 2)
    registry = SymbolRegistry((Symbol("a1", 1),))
    ok_stream = Stream(FreshPayload("a1"), ApzfRecipe(0))
    leak = InterferencePayload(owner=1, terms=(RxRowRef(0, 2, 0, 1),))
    with pytest.raises(InvalidConfigError, match="at least one slot"):
        TransmissionPlan(cfg, "x", SymbolRegistry(()), ())
    with pytest.raises(InvalidConfigError, match="no streams"):
        TransmissionPlan(cfg, "x", registry, (streams_slot(ok_stream), streams_slot()))
    with pytest.raises(InvalidConfigError, match="unknown payload"):
        TransmissionPlan(cfg, "x", registry, (streams_slot(ok_stream, Stream("a1", ApzfRecipe(1))),))
    with pytest.raises(InvalidConfigError, match="unknown precoder"):
        TransmissionPlan(cfg, "x", registry, (streams_slot(Stream(FreshPayload("a1"), 0)),))
    with pytest.raises(InvalidConfigError, match="unknown precoder"):
        TransmissionPlan(cfg, "x", registry, (streams_slot(ok_stream), streams_slot(Stream(leak, 0))))

    with pytest.raises(InvalidConfigError, match="RX1 or RX2"):
        SymbolRegistry((Symbol("a1", 1), Symbol("b1", 2), Symbol("x", 3)))

    def coupled(aux, *terms) -> Stream:
        return Stream(CoupledPayload(aux=aux, terms=terms), ApzfRecipe(1))

    c, c_other = coupled(0, RxRowRef(0, 2, 0, 1)), coupled(0, RxRowRef(0, 2, 1, 1))
    first = streams_slot(ok_stream, c)
    assert TransmissionPlan(cfg, "x", registry, (first, streams_slot(c))).aux_count == 1
    with pytest.raises(InvalidConfigError, match="conflicting definitions"):
        TransmissionPlan(cfg, "x", registry, (first, streams_slot(c_other)))
    with pytest.raises(InvalidConfigError, match="0..n-1"):  # stream 1 without stream 0
        TransmissionPlan(cfg, "x", registry, (streams_slot(ok_stream, coupled(1, RxRowRef(0, 2, 0, 1))),))
    forward_ref = Stream(leak, ApzfRecipe(0))
    with pytest.raises(InvalidConfigError):  # retransmission must look backwards
        TransmissionPlan(cfg, "x", registry, (streams_slot(ok_stream, forward_ref),))
    uninformed_retrans = Stream(leak, ApzfRecipe(3))
    with pytest.raises(InvalidConfigError):  # channel-dependent payload from TX with no CSI
        TransmissionPlan(cfg, "x", registry, (streams_slot(ok_stream), streams_slot(uninformed_retrans)))
    with pytest.raises(InvalidConfigError):  # AP-ZF beyond capability
        bad = Stream(FreshPayload("a1"), ApzfRecipe(3, rx=2, rows=(0, 1, 2)))
        TransmissionPlan(cfg, "x", registry, (streams_slot(bad),))
    with pytest.raises(InvalidConfigError):  # AP-ZF at a receiver that does not exist
        bad = Stream(FreshPayload("a1"), ApzfRecipe(1, rx=3, rows=(0,)))
        TransmissionPlan(cfg, "x", registry, (streams_slot(bad),))
    with pytest.raises(InvalidConfigError):  # AP-ZF at a row RX1 does not have
        bad = Stream(FreshPayload("a1"), ApzfRecipe(1, rx=1, rows=(5,)))
        TransmissionPlan(cfg, "x", registry, (streams_slot(bad),))
    with pytest.raises(InvalidConfigError):  # AP-ZF at a row RX2 does not have
        bad = Stream(FreshPayload("a1"), ApzfRecipe(1, rx=2, rows=(3,)))
        TransmissionPlan(cfg, "x", registry, (streams_slot(bad),))
    with pytest.raises(InvalidConfigError):  # AP-ZF cancelling twice at one row
        bad = Stream(FreshPayload("a1"), ApzfRecipe(2, rx=2, rows=(1, 1)))
        TransmissionPlan(cfg, "x", registry, (streams_slot(bad),))
    # Negative indices must not pass as informed antennas: numpy would send
    # this retransmission from uninformed antenna 3.
    negative = Stream(leak, ApzfRecipe(-1))
    with pytest.raises(InvalidConfigError, match="antenna -1"):
        TransmissionPlan(cfg, "x", registry, (streams_slot(ok_stream), streams_slot(negative)))
    with pytest.raises(InvalidConfigError, match="antenna 9"):  # beyond the array
        TransmissionPlan(cfg, "x", registry, (streams_slot(Stream(FreshPayload("a1"), ApzfRecipe(9))),))
    with pytest.raises(InvalidConfigError, match="antenna 1"):  # one of the solving antennas
        bad = Stream(FreshPayload("a1"), ApzfRecipe(1, rx=2, rows=(0, 1)))
        TransmissionPlan(cfg, "x", registry, (streams_slot(bad),))
    # A cancelled retransmission from informed antenna 1, solved by antenna 0.
    informed = Stream(leak, ApzfRecipe(1, 2, (0,)))
    assert TransmissionPlan(cfg, "x", registry, (streams_slot(ok_stream), streams_slot(informed))).T == 2
    # Every referenced sample must be one the plan receives; realizing would
    # otherwise index past it, or wrap around to another slot, row or receiver.
    unreceived = [
        InterferencePayload(1, (RxRowRef(0, 3, 0, 1),)),  # no RX3
        InterferencePayload(1, (RxRowRef(0, 2, 9, 1),)),  # RX2 has 3 antennas
        InterferencePayload(1, (RxRowRef(0, 2, -1, 1),)),
        InterferencePayload(1, (RxRowRef(-1, 2, 0, 1),)),
        InterferencePayload(3, (RxRowRef(0, 2, 0, 1),)),  # no RX3 symbols to restrict to
        CoupledPayload(0, (RxRowRef(9, 2, 0, 1),)),  # the plan has 2 slots
        CoupledPayload(0, (RxRowRef(0, 0, 0, 1),)),  # rx 0 would alias RX2
    ]
    for payload in unreceived:
        with pytest.raises(InvalidConfigError):
            TransmissionPlan(cfg, "x", registry, (streams_slot(ok_stream), streams_slot(Stream(payload, ApzfRecipe(0)))))
    # A weight is an integer, which reduces exactly mod p; realizing would
    # truncate a float's GF(p) combination into the int64 form.
    for weight in (0.5, 2.0, True, F(1, 2)):
        payload = InterferencePayload(1, (RxRowRef(0, 2, 2, weight),))
        with pytest.raises(InvalidConfigError, match="weights must be integers"):
            TransmissionPlan(cfg, "x", registry, (streams_slot(ok_stream), streams_slot(Stream(payload, ApzfRecipe(0)))))
    for weight in (2**40, -1, np.int64(3)):
        payload = InterferencePayload(1, (RxRowRef(0, 2, 2, weight),))
        assert TransmissionPlan(cfg, "x", registry, (streams_slot(ok_stream), streams_slot(Stream(payload, ApzfRecipe(0))))).T == 2
    with pytest.raises(InvalidConfigError, match="exactly once"):  # a symbol the registry lacks
        TransmissionPlan(cfg, "x", registry, (streams_slot(ok_stream, Stream(FreshPayload("zz"), ApzfRecipe(1))),))

    # The same rejections with the bad stream last in a multi-stream group:
    # a group's recipe is checked once, and that check covers every member.
    three = SymbolRegistry(tuple(Symbol(f"a{i}", 1) for i in (1, 2, 3)))
    fresh = tuple(FreshPayload(f"a{i}") for i in (1, 2, 3))
    leak2 = InterferencePayload(owner=1, terms=(RxRowRef(0, 2, 1, 1),))
    rejected = [  # (message, slots)
        ("stream cancelled at 0 rows cannot be sent from antenna 4 of 4", [(fresh, ApzfRecipe(2))]),
        ("stream cancelled at 1 rows cannot be sent from antenna 4 of 4", [(fresh, ApzfRecipe(2, 1, (0,)))]),
        ("channel-dependent payloads must be sent from informed antennas", [(fresh, ApzfRecipe(1)), ((leak, leak2), ApzfRecipe(1))]),
        ("coupled streams must be sent from informed antennas", [(fresh, ApzfRecipe(1)), ((c.payload, c.payload), ApzfRecipe(1))]),
        ("symbol a1 sent fresh twice", [(fresh[:2], ApzfRecipe(0)), ((fresh[2], fresh[0]), ApzfRecipe(2))]),
        (r"AP-ZF rows \(5,\) out of range for RX1", [(fresh, ApzfRecipe(1, 1, (5,)))]),
    ]
    for message, groups in rejected:
        slots = [Slot((StreamGroup(payloads, recipe),)) for payloads, recipe in groups]
        with pytest.raises(InvalidConfigError, match=f"^{message}$"):
            TransmissionPlan(cfg, "x", three, tuple(slots))
        # The per-stream form of each plan, with one-stream groups, is rejected alike.
        singles = [Slot(tuple(StreamGroup((s.payload,), s.precoder) for s in slot_streams(slot))) for slot in slots]
        with pytest.raises(InvalidConfigError, match=f"^{message}$"):
            TransmissionPlan(cfg, "x", three, tuple(singles))
    # Recipe fields index antennas and receive rows: 1.0 or True must not pass as 1.
    for recipe, message in (
        (ApzfRecipe(1.0), "stream antenna must be an int"),
        (ApzfRecipe(True), "stream antenna must be an int"),
        (ApzfRecipe(1, 1.0, (0,)), "must name int rows"),
        (ApzfRecipe(1, 1, (0.0,)), "must name int rows"),
    ):
        with pytest.raises(InvalidConfigError, match=message):
            TransmissionPlan(cfg, "x", three, (Slot((StreamGroup(fresh, recipe),)),))
    # Sample references and payload indices are used as indices too, so a
    # bool or float must not pass as the int it equals.  Types are checked
    # per term: a set of terms would keep RxRowRef(0, 2, 1, 1) and drop an
    # equal RxRowRef(0, 2, True, 1) sent beside it.
    good = RxRowRef(0, 2, 1, 1)
    for payloads, message in (
        ((InterferencePayload(1, (RxRowRef(0, 2, True, 1),)),), "must name an int slot, receiver and row"),
        ((InterferencePayload(1, (RxRowRef(0, 2, 1.0, 1),)),), "must name an int slot, receiver and row"),
        ((InterferencePayload(1, (RxRowRef(0.0, 2, 1, 1),)),), "must name an int slot, receiver and row"),
        ((InterferencePayload(1, (RxRowRef(0, True, 0, 1),)),), "must name an int slot, receiver and row"),
        ((InterferencePayload(1, (RxRowRef(False, 2, 1, 1),)),), "must name an int slot, receiver and row"),
        ((InterferencePayload(True, (good,)),), "^interference owner must be RX1 or RX2$"),
        ((CoupledPayload(0.0, (good,)),), r"^coupled stream indices must be 0\.\.n-1$"),
        ((InterferencePayload(1, (good,)), InterferencePayload(1, (RxRowRef(0, 2, True, 1),))), "must name an int slot"),
        ((InterferencePayload(1, (good,)), InterferencePayload(1, (RxRowRef(0, 2, 1, True),))), "weights must be integers"),
    ):
        slots = (streams_slot(ok_stream), Slot((StreamGroup(payloads, ApzfRecipe(0)),)))
        with pytest.raises(InvalidConfigError, match=message):
            TransmissionPlan(cfg, "x", registry, slots)
    with pytest.raises(InvalidConfigError, match="empty stream group"):
        TransmissionPlan(cfg, "x", three, (Slot((StreamGroup(fresh, ApzfRecipe(0)), StreamGroup((), ApzfRecipe(3)))),))
    with pytest.raises(InvalidConfigError, match="unknown stream group"):
        TransmissionPlan(cfg, "x", registry, (Slot((ok_stream,)),))
    grouped = TransmissionPlan(cfg, "x", three, (Slot((StreamGroup(fresh, ApzfRecipe(1)),)),))
    assert [s.precoder.antenna for s in slot_streams(grouped.slots[0])] == [1, 2, 3]


def test_plan_json_golden():
    plan = select_scheme(SystemConfig(4, 1, 3, 2))
    assert json.loads(json.dumps(plan.to_json(), indent=1)) == json.loads(GOLDEN.read_text())


def test_plan_json_shape():
    doc = build_scheme_6331().to_json()
    assert doc["scheme"] == "table1"
    assert doc["claimed_dof"] == "4"
    assert len(doc["slots"]) == 4
    stream = doc["slots"][0]["streams"][0]
    assert stream["payload"]["kind"] == "coupled"
    assert stream["csit"] == [CONSTANT] * 6


def test_plan_catalogue_digest():
    digest = hashlib.sha256()
    for M in range(1, 9):
        for N1 in range(1, 9):
            for N2 in range(N1, 9):
                for k in range(M + 1):
                    for special in (False, True):
                        plan = select_scheme(SystemConfig(M, N1, N2, k), special)
                        digest.update(json.dumps(plan.to_json(), indent=1).encode())
    assert digest.hexdigest() == CATALOGUE_SHA256


@st.composite
def caller_configs(draw):
    """(M, N1, N2, k) in the caller's order, N1 > N2 about half the time."""
    M, N1, N2 = (draw(st.integers(1, 20), label=name) for name in ("M", "N1", "N2"))
    return M, N1, N2, draw(st.integers(0, M), label="k")


HAND_BUILT_PLANS = (
    helpers.adversarial_plan(),
    helpers.overloaded_rx2_plan(),
    helpers.weighted_retransmission_plan(),
    helpers.repeated_coupled_plan(),
    helpers.overlapping_groups_plan(),
)


def _target_systems(M, targets):
    """`PlanLayout.systems` and `.template` of the AP-ZF targets (rx, rows,
    antennas), whose Z columns follow I_M in order: each system's flat
    indices of [H[rows, :k'] | H[rows, antennas]] within the receiver's rows."""
    template = np.eye(M, M + sum(len(antennas) for *_, antennas in targets), dtype=np.int64)
    systems, column = [], M
    for rx, rows, antennas in targets:
        span = slice(column, column + len(antennas))
        index = [[r * M + c for c in (*range(len(rows)), *antennas)] for r in rows]
        systems.append((rx, len(rows), span, np.array(index, dtype=np.intp)))
        template[list(antennas), range(span.start, span.stop)] = 1
        column = span.stop
    return systems, template


def _assert_same_systems(layout, systems, template):
    assert len(layout.systems) == len(systems)
    for got, want in zip(layout.systems, systems):
        assert got[:3] == want[:3]
        assert got[3].dtype == want[3].dtype and np.array_equal(got[3], want[3])
    assert layout.template.dtype == template.dtype and np.array_equal(layout.template, template)


# Template plans over the range bounds-sweep draws from, past the catalogue
# digest's M <= 8, and the hand-built plans with their merged groups.
@settings(max_examples=150, deadline=None)
@given(
    plan=st.one_of(
        st.builds(lambda c, s: select_scheme(normalize_config(*c), s), caller_configs(), st.booleans()),
        st.sampled_from(HAND_BUILT_PLANS),
    )
)
@example(plan=select_scheme(normalize_config(20, 13, 7, 9)))  # mid-k, phase 2, swapped receivers
@example(plan=select_scheme(normalize_config(20, 2, 18, 1)))  # low-k with a wide forwarding group
@example(plan=select_scheme(normalize_config(12, 3, 3, 1), True))  # caps to the crafted plan
@example(plan=HAND_BUILT_PLANS[3])
@example(plan=HAND_BUILT_PLANS[4])
def test_grouped_plans_serialize_and_lay_out_as_per_stream_code(plan):
    assert json.dumps(plan.to_json(), indent=1) == json.dumps(reference_plan_json(plan), indent=1)
    targets, slots, coupled = reference_layout(plan)
    layout = plan.layout
    _assert_same_systems(layout, *_target_systems(plan.cfg.M, targets))
    assert layout.coupled == coupled and len(layout.slots) == len(slots)
    for got, want in zip(layout.slots, slots):
        arrays = (got.columns, got.rows, got.forms, got.forms[: len(got.sources)], got.sources, got.mixed)
        for array, expected in zip(arrays, want[:6]):
            assert array.dtype == expected.dtype and np.array_equal(array, expected)
        assert [(j, owned.tolist(), terms) for j, owned, terms in got.interference] == list(want[6])
        assert got.constant.shape == want[7].shape and np.array_equal(got.constant, want[7])


# The template table: plans with the same (shape, M, k) share one structure,
# its registry, slots and layout, once one of them has been built.


def _table_key(plan):
    """The `_TEMPLATES` key of a template plan: (shape, M, k) of its capped
    config, k only when the shape has a phase 2."""
    shape = plan_shape(plan.cfg)
    return shape, plan.cfg.M, plan.cfg.k if shape.p2 else None


def _layout_arrays(layout):
    """Every array of a layout, in order, with the owned-column arrays."""
    for slot in layout.slots:
        yield from (slot.columns, slot.rows, slot.forms, slot.sources, slot.mixed, slot.constant)
        yield from (owned for _, owned, _ in slot.interference)


def _assert_same_plan(served, fresh):
    assert served == fresh  # config, scheme id, registry and slots
    _assert_same_systems(served.layout, fresh.layout.systems, fresh.layout.template)
    assert served.layout.coupled == fresh.layout.coupled
    for slot, fresh_slot in zip(served.layout.slots, fresh.layout.slots, strict=True):
        assert [t[::2] for t in slot.interference] == [t[::2] for t in fresh_slot.interference]
    pairs = zip(_layout_arrays(served.layout), _layout_arrays(fresh.layout), strict=True)
    assert all(a.dtype == b.dtype and np.array_equal(a, b) for a, b in pairs)
    assert json.dumps(served.to_json(), indent=1) == json.dumps(fresh.to_json(), indent=1)
    for channel in (field_channel(served.cfg, seed=3), sample_channel(served.cfg, seed=3)):
        got, want = realize_plan(served, channel), realize_plan(fresh, channel)
        assert np.array_equal(got.A1, want.A1) and np.array_equal(got.A2, want.A2)
        for T, T_want in zip(got.precoders, want.precoders, strict=True):
            assert np.array_equal(T, T_want)


def _small_config(draw) -> SystemConfig:
    M = draw(st.integers(1, 12), label="M")
    N1 = draw(st.integers(1, 7), label="N1")
    N2 = draw(st.integers(N1, 7), label="N2")
    return SystemConfig(M, N1, N2, draw(st.integers(0, M), label="k"))


@st.composite
def warm_and_served_configs(draw):
    """(warm, cfg, special, shared): `warm` is realized first, then `cfg` is
    built; `shared` says whether the two share a table key (None: unknown)."""
    cfg, special = _small_config(draw), draw(st.booleans(), label="special")
    if draw(st.booleans(), label="same"):
        return cfg, cfg, special, True
    return _small_config(draw), cfg, special, None


@settings(max_examples=80, deadline=None)
@given(configs=warm_and_served_configs())
@example(configs=(SystemConfig(7, 4, 6, 2), SystemConfig(7, 5, 6, 2), False, True))  # one rx2-baseline key
@example(configs=(SystemConfig(7, 4, 6, 2), SystemConfig(6, 4, 6, 2), False, False))  # same shape, other M
@example(configs=(SystemConfig(9, 3, 6, 4), SystemConfig(9, 3, 6, 4), False, True))  # mid-k with a phase 2
@example(configs=(SystemConfig(10, 6, 8, 3), SystemConfig(10, 6, 8, 3), False, True))  # low-k
@example(configs=(SystemConfig(6, 3, 3, 1), SystemConfig(6, 3, 3, 1), True, True))  # crafted plan
def test_served_plans_equal_plans_built_cold(configs):
    warm, cfg, special, shared = configs
    schemes._TEMPLATES.clear()
    first = select_scheme(warm, special)
    crafted = first.scheme_id == "table1"  # the crafted plan never enters the table
    # Building adds the plan's structure, with no layout yet.
    assert list(schemes._TEMPLATES.values()) == ([] if crafted else [first._structure])
    assert first._structure._layout is None
    realize_plan(first, field_channel(first.cfg, seed=1))
    assert first._structure._layout is first.layout
    served = select_scheme(cfg, special)
    # A served plan passes the full check of a plan built cold from its parts.
    TransmissionPlan(served.cfg, served.scheme_id, served.registry, served.slots)
    templates = [plan for plan in (first, served) if plan.scheme_id != "table1"]
    assert schemes._TEMPLATES.keys() == {_table_key(plan) for plan in templates}
    if served.scheme_id != "table1":  # served from its key's entry, or built and added under it
        assert schemes._TEMPLATES[_table_key(served)] is served._structure
    if crafted:
        shared = False
    if shared is not None:
        assert (served._structure is first._structure) == shared
        assert (served.layout is first.layout) == shared
        assert (served.slots is first.slots and served.registry is first.registry) == shared
    schemes._TEMPLATES.clear()
    cold = select_scheme(cfg, special)
    assert served.claimed_dof == cold.claimed_dof
    _assert_same_plan(served, cold)


@pytest.mark.parametrize(
    "warm, cfg",
    [
        ((9, 3, 6, 4), (9, 2, 6, 4)),  # too few RX1 rows for the RX2 groups' AP-ZF rows 0-2
        ((9, 3, 6, 4), (9, 3, 5, 4)),  # too few RX2 rows for phase 2's forwarded row 5
        ((5, 2, 4, 3), (5, 2, 4, 2)),  # too few informed antennas for AP-ZF at 3 rows
    ],
)
def test_served_key_rejects_a_config_that_misses_its_needs(warm, cfg, monkeypatch):
    # A config of a warmed key that lacks the rows or informed antennas of
    # the key's plan is refused by the key's structure, with the message it
    # gets with the table cleared, and builds no new structure.
    schemes._TEMPLATES.clear()
    warm, cfg = SystemConfig(*warm), SystemConfig(*cfg)
    shape = plan_shape(warm)
    realize_plan(select_scheme(warm), field_channel(warm, seed=1))
    key = (shape, cfg.M, cfg.k if shape.p2 else None)
    entry, built, init = schemes._TEMPLATES[key], [], schemes._Structure.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(schemes._Structure, "__init__", counted)
    with pytest.raises(InvalidConfigError) as served:
        schemes._two_phase_plan(cfg, shape)
    assert built == [] and schemes._TEMPLATES[key] is entry
    schemes._TEMPLATES.clear()
    with pytest.raises(InvalidConfigError) as cold:
        schemes._two_phase_plan(cfg, shape)
    assert len(built) == 1
    assert str(served.value) == str(cold.value)


def _forwarding_plan() -> TransmissionPlan:
    """A forward of slot 0's RX2 row 1 from antenna 2, with no AP-ZF: it
    needs 3 informed antennas through its sending antenna alone."""
    registry = SymbolRegistry((Symbol("a1", 1), Symbol("b1", 2)))
    forward = InterferencePayload(1, (RxRowRef(0, 2, 1, 1),))
    slots = (
        Slot((StreamGroup((FreshPayload("a1"), FreshPayload("b1")), ApzfRecipe(0)),)),
        Slot((StreamGroup((forward,), ApzfRecipe(2)),)),
    )
    return TransmissionPlan(SystemConfig(4, 2, 3, 3), "forwarding", registry, slots)


@pytest.mark.parametrize(
    "plan",
    [select_scheme(SystemConfig(*shape), allow_special_cases=True)
     for shape in ((7, 5, 6, 2), (4, 1, 3, 2), (5, 2, 3, 4), (5, 2, 4, 3), (6, 4, 5, 4),
                   (9, 3, 6, 4), (10, 6, 8, 3), (8, 3, 5, 1), (6, 3, 3, 1))] + [_forwarding_plan()],
    ids=lambda plan: f"{plan.scheme_id}-{plan.cfg.shape}",
)
def test_needs_decide_what_validate_accepts(plan):
    # A plan's structure is accepted on another config of its M exactly
    # when that config meets the needs its structure records: the three
    # comparisons of `admit` stand for every check that reads N1, N2 or k.
    (rx1_rows, _), (rx2_rows, _), (informed, _) = plan._structure.needs
    M, outcomes = plan.cfg.M, set()
    for N1 in range(1, 9):
        for N2 in range(N1, 9):
            for k in range(M + 1):
                meets = N1 >= rx1_rows and N2 >= rx2_rows and k >= informed
                try:
                    TransmissionPlan(SystemConfig(M, N1, N2, k), plan.scheme_id, plan.registry, plan.slots)
                except InvalidConfigError:
                    assert not meets, (N1, N2, k)
                else:
                    assert meets, (N1, N2, k)
                outcomes.add(meets)
    assert outcomes == ({True, False} if any((rx1_rows, rx2_rows, informed)) else {True})


@pytest.mark.parametrize(
    "registry",
    [
        select_scheme(SystemConfig(7, 5, 6, 2)).registry,  # RX1 decodes nothing
        select_scheme(SystemConfig(9, 3, 6, 4)).registry,
        build_scheme_6331().registry,
        SymbolRegistry((Symbol("b1", 2), Symbol("a1", 1), Symbol("b2", 2))),  # owners interleaved
        SymbolRegistry(()),
    ],
    ids=["rx2-baseline", "mid-k", "table1", "interleaved", "empty"],
)
def test_rank_orders_are_the_splits_concatenated(registry):
    # Each receiver's cached rank order is its interference columns, then its
    # desired ones, as one read-only intp array, split where the desired start.
    assert len(registry._rank_orders) == 2
    for rx, (order, split) in zip((1, 2), registry._rank_orders):
        desired, interference = registry.split(rx)
        assert order.dtype == np.intp and not order.flags.writeable
        assert order.tolist() == list(interference + desired)
        assert split == len(interference)
    assert registry._rank_orders is registry._rank_orders  # computed once


def test_serialized_plans_are_served_from_the_table():
    # Building a plan adds its key, so a later plan of the key is served even
    # when no plan is ever realized, and it serializes as a cold build does.
    schemes._TEMPLATES.clear()
    firsts, built = {}, []
    for M in range(1, 13):
        for N1 in range(1, 8):
            for k in range(M + 1):
                cfg = normalize_config(M, N1, 7 - N1 // 2, k)
                plan = select_scheme(cfg)
                first = firsts.setdefault(_table_key(plan), plan)
                assert plan._structure is first._structure
                assert plan.registry is first.registry and plan.slots is first.slots
                built.append((cfg, json.dumps(plan.to_json())))
    assert len(built) > len(firsts) == len(schemes._TEMPLATES)  # some served, none dropped
    assert all(entry._layout is None for entry in schemes._TEMPLATES.values())  # none built yet
    for cfg, text in built:
        schemes._TEMPLATES.clear()
        assert json.dumps(select_scheme(cfg).to_json()) == text, cfg


@st.composite
def caller_configs(draw):
    """(M, N1, N2, k) as a caller gives them: M, N1 and N2 in 1..20, k in 0..M."""
    M = draw(st.integers(1, 20), label="M")
    N1, N2 = draw(st.integers(1, 20), label="N1"), draw(st.integers(1, 20), label="N2")
    return M, N1, N2, draw(st.integers(0, M), label="k")


@settings(max_examples=120, deadline=None)
@given(config=caller_configs())
def test_bounds_sweep_plans_serialize_alike_warm_and_cold(config):
    # The bounds sweep's path: the table keeps what earlier examples built,
    # then is cleared, then serves the plan just built; all three serialize
    # byte for byte alike.
    cfg = normalize_config(*config)
    warm = json.dumps(select_scheme(cfg).to_json())
    schemes._TEMPLATES.clear()
    cold = json.dumps(select_scheme(cfg).to_json())
    assert json.dumps(select_scheme(cfg).to_json()) == cold == warm


def test_certification_grids_fit_in_the_table():
    # Every key of the criterion-3 and criterion-4 grids stays in the table,
    # so certifying the grids never drops an entry.
    schemes._TEMPLATES.clear()
    plans = [select_scheme(cfg) for cfg in (*tight_regime_grid(), *low_k_grid())]
    keys = {_table_key(plan) for plan in plans}
    assert len(keys) == 224 <= schemes._TEMPLATE_LIMIT
    assert schemes._TEMPLATES.keys() == keys
    assert all(schemes._TEMPLATES[_table_key(plan)] is plan._structure for plan in plans)


def test_shared_layout_arrays_are_read_only():
    schemes._TEMPLATES.clear()
    plan = select_scheme(SystemConfig(9, 3, 6, 4))
    realize_plan(plan, field_channel(plan.cfg, seed=1))
    arrays = list(_layout_arrays(select_scheme(SystemConfig(9, 3, 6, 4)).layout))
    assert any(array.size for array in arrays)
    for array in arrays:
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0


def test_table_drops_its_oldest_entry_past_the_limit(monkeypatch):
    monkeypatch.setattr(schemes, "_TEMPLATE_LIMIT", 2)
    schemes._TEMPLATES.clear()
    configs = [SystemConfig(4, 1, 3, 2), SystemConfig(9, 3, 6, 4), SystemConfig(7, 5, 6, 2)]
    plans = [select_scheme(cfg) for cfg in configs]  # each adds its entry as it is built
    assert list(schemes._TEMPLATES) == [_table_key(plan) for plan in plans[1:]]
    assert all(entry is plan._structure for entry, plan in zip(schemes._TEMPLATES.values(), plans[1:]))
    assert select_scheme(configs[0]).slots is not plans[0].slots  # dropped: built afresh
    assert select_scheme(configs[2]).slots is plans[2].slots
    assert select_scheme(configs[1]).slots is not plans[1].slots  # dropped by the rebuild above
    # Reading a layout builds it in the entry itself; it adds no entry and drops none.
    keys = list(schemes._TEMPLATES)
    assert select_scheme(configs[1]).layout is select_scheme(configs[1]).layout
    assert list(schemes._TEMPLATES) == keys


@pytest.mark.parametrize("rebuilt_first", [False, True])
def test_a_dropped_entry_layout_is_not_written_into_its_rebuild(monkeypatch, rebuilt_first):
    # A plan served before its key is dropped keeps the key's old structure,
    # which builds one layout for every plan that holds it, and realizes and
    # serializes as a cold build does.  The rebuilt key gets a new structure,
    # and neither structure's layout is written into the other, whichever
    # of the two is built first.
    built, plan_layout = [], schemes._plan_layout

    def counted(*args):
        built.append(args)
        return plan_layout(*args)

    monkeypatch.setattr(schemes, "_plan_layout", counted)
    monkeypatch.setattr(schemes, "_TEMPLATE_LIMIT", 1)
    schemes._TEMPLATES.clear()
    cfg = SystemConfig(9, 3, 6, 4)
    first = select_scheme(cfg)
    served = select_scheme(cfg)
    key, structure = _table_key(served), served._structure
    assert structure is first._structure is schemes._TEMPLATES[key]
    assert structure._layout is None  # served before any layout was built
    select_scheme(SystemConfig(7, 5, 6, 2))  # drops the key
    assert key not in schemes._TEMPLATES
    rebuilt = select_scheme(cfg)
    newer = schemes._TEMPLATES[key]
    assert newer is rebuilt._structure is not structure
    assert rebuilt.slots is not served.slots and served._structure is structure
    if rebuilt_first:
        rebuilt.layout
        assert newer._layout is rebuilt.layout and structure._layout is None
    assert served.layout is first.layout is structure.layout
    assert newer._layout is (rebuilt.layout if rebuilt_first else None)
    assert len(built) == (2 if rebuilt_first else 1)
    assert rebuilt.layout is not served.layout and len(built) == 2
    assert schemes._TEMPLATES[key] is newer and newer._layout is rebuilt.layout
    assert select_scheme(cfg).layout is rebuilt.layout and len(built) == 2  # the newer structure's
    schemes._TEMPLATES.clear()
    _assert_same_plan(served, select_scheme(cfg))
