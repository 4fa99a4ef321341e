import hashlib
import json
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dofbc.cli import _ratio_str, region_document
from dofbc.config import SystemConfig, normalize_config
from dofbc.errors import RegimeError
from dofbc.region import (
    DofPoint,
    LinearConstraint,
    achievable_region,
    analogy_gap,
    _integer_hull,
    _integer_vertices,
    pd_sum_dof,
    region_constraints,
    region_vertices,
    sum_dof_lower,
    sum_dof_upper,
)
from dofbc.schemes import select_scheme

from .helpers import reference_region_document
from .oracles import (
    analogy_gap_closed_form,
    lp_max_sum_oracle,
    outer_bound_halfplanes,
    sum_dof_lower_closed_form,
    sum_dof_upper_closed_form,
    vertex_oracle,
)


def cons_tuples(cfg):
    return [(c.a1, c.a2, c.b) for c in region_constraints(cfg)]


def test_constraints_mid_regime_include_weighted_bound():
    cfg = SystemConfig(4, 1, 3, 2)
    assert cons_tuples(cfg) == [(1, 0, 1), (0, 1, 3), (1, 1, 4), (1, 2, 6)]


def test_constraints_collapse_when_k_reaches_n2():
    cfg = SystemConfig(4, 1, 3, 3)
    assert cons_tuples(cfg) == [(1, 0, 1), (0, 1, 3), (1, 1, 4)]


def test_constraints_collapse_when_m_small():
    cfg = SystemConfig(2, 1, 3, 0)
    assert cons_tuples(cfg) == [(1, 0, 1), (0, 1, 2), (1, 1, 2)]


# Frozen from the pairwise-intersection oracle over the stated constraints.
FIG3_VERTICES = {
    0: [(0, 0), (1, 0), (1, F(9, 4)), (0, 3)],
    1: [(0, 0), (1, 0), (1, F(7, 3)), (0, 3)],
    2: [(0, 0), (1, 0), (1, F(5, 2)), (0, 3)],
    3: [(0, 0), (1, 0), (1, 3), (0, 3)],
}


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_vertices_4_1_3_family(k):
    cfg = SystemConfig(4, 1, 3, k)
    vertices = region_vertices(cfg)
    assert [(v.d1, v.d2) for v in vertices] == FIG3_VERTICES[k]
    assert vertices == tuple(
        DofPoint(F(x), F(y)) for x, y in vertex_oracle(outer_bound_halfplanes(4, 1, 3, k))
    )


def test_vertices_match_oracle_on_grid():
    for M in range(1, 8):
        for N1 in range(1, 5):
            for N2 in range(N1, 7):
                for k in range(0, M + 1):
                    cfg = SystemConfig(M, N1, N2, k)
                    got = [(v.d1, v.d2) for v in region_vertices(cfg)]
                    want = vertex_oracle(outer_bound_halfplanes(M, N1, N2, k))
                    assert got == want, cfg.shape


def test_vertex_certificate_and_lp_max():
    for shape in [(4, 1, 3, 0), (4, 1, 3, 2), (9, 3, 6, 4), (5, 2, 4, 2), (7, 2, 3, 1)]:
        cfg = SystemConfig(*shape)
        constraints, vertices = region_constraints(cfg), region_vertices(cfg)
        axes = (LinearConstraint(F(-1), F(0), F(0)), LinearConstraint(F(0), F(-1), F(0)))
        for v in vertices:
            slack = [c.b - c.a1 * v.d1 - c.a2 * v.d2 for c in constraints + axes]
            assert min(slack) >= 0  # inside the region, axes included
            assert slack.count(0) >= 2  # at least two active constraints
        assert max(v.d1 + v.d2 for v in vertices) == lp_max_sum_oracle(
            outer_bound_halfplanes(*shape)
        )


def test_hull_drops_collinear_points():
    # (1, 1) lies on the edge from (2, 0) to (0, 2), so it is not a vertex.
    hull, D = _integer_hull([(0, 0, 1), (2, 0, 1), (1, 1, 1), (0, 2, 1)])
    assert (hull, D) == ([(0, 0), (2, 0), (0, 2)], 1)


WEIGHTS = st.integers(1, 6)
COEFFICIENTS = st.integers(-24, 24)
POSITIVE = st.integers(1, 48)
SCALES = st.integers(-3, 3).filter(bool)


@st.composite
def bounded_lines(draw):
    """Integer halfplanes with an interior: w1 d1 <= u, w2 d2 <= v
    (w1, w2 > 0) and halfplanes with r > 0.

    The extra halfplanes are fresh, parallel to an earlier one (either
    orientation, any offset, so often redundant), or an earlier halfplane
    written again with a positive scale (a repeated line).
    """
    lines = [(draw(WEIGHTS), 0, draw(POSITIVE)), (0, draw(WEIGHTS), draw(POSITIVE))]
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["fresh", "parallel", "repeat"]))
        if kind == "fresh":
            lines.append((draw(COEFFICIENTS), draw(COEFFICIENTS), draw(POSITIVE)))
            continue
        a1, a2, b = draw(st.sampled_from(lines))
        s = draw(SCALES)
        if kind == "parallel":
            lines.append((s * a1, s * a2, draw(POSITIVE)))
        else:
            lines.append((abs(s) * a1, abs(s) * a2, abs(s) * b))
    return tuple(draw(st.permutations(lines)))


@settings(max_examples=300, deadline=None)
@given(lines=bounded_lines())
def test_vertices_match_oracle_on_drawn_regions(lines):
    # The kernel on halfplanes no config produces.  An interior keeps the
    # oracle's angular sort well defined (it raises ValueError on regions
    # with two vertices or fewer).
    for ls in (lines, tuple((a2, a1, b) for a1, a2, b in lines)):
        vertices, D = _integer_vertices(ls)
        assert [(F(x, D), F(y, D)) for x, y in vertices] == vertex_oracle(ls)


def test_sum_dof_upper_examples():
    assert sum_dof_upper(SystemConfig(6, 3, 3, 1)) == F(24, 5)
    assert sum_dof_upper(SystemConfig(4, 1, 3, 3)) == 4
    assert sum_dof_upper(SystemConfig(9, 3, 6, 4)) == F(39, 5)


def test_sum_dof_upper_matches_closed_form():
    # The bound is read off the vertices; the closed form decides the regime
    # independently.
    for M in range(1, 21):
        for N1 in range(1, 21):
            for N2 in range(N1, 21):
                for k in range(M + 1):
                    cfg = SystemConfig(M, N1, N2, k)
                    assert sum_dof_upper(cfg) == sum_dof_upper_closed_form(cfg), cfg.shape


def test_sum_dof_lower_examples():
    assert sum_dof_lower(SystemConfig(4, 1, 3, 2)) == F(7, 2)
    assert sum_dof_lower(SystemConfig(6, 3, 3, 1)) == F(10, 3)
    assert select_scheme(SystemConfig(6, 3, 3, 1), allow_special_cases=True).claimed_dof == 4
    assert sum_dof_lower(SystemConfig(5, 2, 3, 0)) == 3


def test_sum_dof_lower_matches_closed_form():
    # plan_shape decides the regime; the closed form decides it independently.
    for M in range(1, 21):
        for N1 in range(1, 21):
            for N2 in range(N1, 21):
                for k in range(M + 1):
                    cfg = SystemConfig(M, N1, N2, k)
                    assert sum_dof_lower(cfg) == sum_dof_lower_closed_form(cfg), cfg.shape
    # The crafted plan is chosen by select_scheme alone, on every M capping to 6.
    for M in range(6, 21):
        cfg = SystemConfig(M, 3, 3, 1)
        plan = select_scheme(cfg, allow_special_cases=True)
        assert plan.claimed_dof == sum_dof_lower_closed_form(cfg, True) == 4, M


BOUND_TABLE_UPPER = [F(7), F(57, 8), F(51, 7), F(15, 2), F(39, 5), F(33, 4), 9, 9, 9, 9]
BOUND_TABLE_LOWER = [F(6), F(37, 6), F(20, 3), F(15, 2), F(39, 5), F(33, 4), 9, 9, 9, 9]


def test_bound_table_9_3_6():
    uppers = [sum_dof_upper(SystemConfig(9, 3, 6, k)) for k in range(10)]
    lowers = [sum_dof_lower(SystemConfig(9, 3, 6, k)) for k in range(10)]
    assert uppers == BOUND_TABLE_UPPER
    assert lowers == BOUND_TABLE_LOWER


def test_regime_consistency_three_constraints():
    for shape in [(4, 1, 3, 3), (2, 1, 3, 0), (6, 3, 3, 5), (3, 2, 4, 1)]:
        cfg = SystemConfig(*shape)
        M, N1, N2, k = cfg.shape
        if k >= N2 or M <= N2:
            assert len(region_constraints(cfg)) == 3
            assert sum_dof_upper(cfg) == min(M, N1 + N2)


def test_tightness_mid_regime_grid():
    for N1 in range(1, 10):
        for N2 in range(N1 + 1, 11):
            for M in range(N2 + 1, min(10, N1 + N2) + 1):
                for k in range(N1, N2):
                    cfg = SystemConfig(M, N1, N2, k)
                    assert sum_dof_lower(cfg) == sum_dof_upper(cfg), cfg.shape


def test_upper_bound_monotone_in_k():
    for M, N1, N2 in [(9, 3, 6), (4, 1, 3), (6, 3, 3), (8, 2, 5), (12, 3, 6)]:
        uppers = [sum_dof_upper(SystemConfig(M, N1, N2, k)) for k in range(M + 1)]
        assert all(a <= b for a, b in zip(uppers, uppers[1:]))


def test_lower_bound_monotone_from_n1_up():
    # The retransmission lower bound for k < N1 is not monotone in general
    # (using fewer informed antennas can be better); from k = N1 on it is.
    for M, N1, N2 in [(9, 3, 6), (4, 1, 3), (8, 2, 5), (12, 3, 6)]:
        lowers = [sum_dof_lower(SystemConfig(M, N1, N2, k)) for k in range(N1, M + 1)]
        assert all(a <= b for a, b in zip(lowers, lowers[1:]))


def test_extreme_k_values():
    for M, N1, N2 in [(4, 1, 3), (9, 3, 6), (2, 1, 3)]:
        full = SystemConfig(M, N1, N2, M)
        assert sum_dof_upper(full) == sum_dof_lower(full) == min(M, N1 + N2)
        none = SystemConfig(M, N1, N2, 0)
        assert sum_dof_lower(none) == min(N2, M)
        if M > N2:
            third = N2 + F(N1 * min(N1, M - N2), min(N1 + N2, M))
            assert sum_dof_upper(none) == min(F(N1 + N2), F(M), third)
    # the k=0 gap of the reference sweep: upper N2+1 versus lower N2
    assert sum_dof_upper(SystemConfig(9, 3, 6, 0)) == 7
    assert sum_dof_lower(SystemConfig(9, 3, 6, 0)) == 6


def test_lower_never_exceeds_upper():
    for M in range(1, 11):
        for N1 in range(1, 6):
            for N2 in range(N1, 8):
                for k in range(M + 1):
                    cfg = SystemConfig(M, N1, N2, k)
                    assert sum_dof_lower(cfg) <= sum_dof_upper(cfg), cfg.shape


def test_swap_covariance():
    # Normalization maps both orders to the same system, so to the same
    # region; the documents mirror it (test_region_layer_properties).
    assert normalize_config(9, 6, 3, 4) == normalize_config(9, 3, 6, 4)


def test_achievable_region_examples():
    full = achievable_region(SystemConfig(4, 1, 3, 3))
    assert set(full) == {(0, 0), (1, 0), (0, 3), (1, 3)}
    mid = achievable_region(SystemConfig(4, 1, 3, 2))
    assert DofPoint(F(1), F(5, 2)) in mid
    none = achievable_region(SystemConfig(4, 1, 3, 0))
    assert set(none) == {(0, 0), (1, 0), (0, 3)}


def test_achievable_max_sum_matches_lower_bound():
    for shape in [(4, 1, 3, 1), (4, 1, 3, 2), (4, 1, 3, 3), (9, 3, 6, 4), (5, 2, 4, 2)]:
        cfg = SystemConfig(*shape)
        if cfg.k >= cfg.N1:
            assert max(v.d1 + v.d2 for v in achievable_region(cfg)) == sum_dof_lower(cfg)


def test_pd_sum_dof():
    assert pd_sum_dof(1, 3) == F(13, 4)
    assert pd_sum_dof(3, 3) == F(9, 2)
    with pytest.raises(Exception):
        pd_sum_dof(0, 3)


def test_analogy_gap():
    assert analogy_gap(SystemConfig(4, 1, 3, 1)) == (F(3, 4), F(2, 3))
    assert analogy_gap(SystemConfig(4, 1, 3, 2)) == (F(3, 4), F(1, 2))
    # The losses are read off pd_sum_dof and sum_dof_lower; the closed forms
    # check both over the whole domain M = N1+N2, N1 <= k < N2, N2 < 20.
    for N2 in range(2, 20):
        for N1 in range(1, N2):
            for k in range(N1, N2):
                cfg = SystemConfig(N1 + N2, N1, N2, k)
                assert analogy_gap(cfg) == analogy_gap_closed_form(cfg), cfg.shape
    with pytest.raises(RegimeError):
        analogy_gap(SystemConfig(4, 1, 3, 3))  # k = N2 excluded
    with pytest.raises(RegimeError):
        analogy_gap(SystemConfig(5, 1, 3, 2))  # M != N1 + N2


def _sorted_region(doc: dict, mirror: bool) -> dict:
    """Order-free view of a region document, optionally with RX1/RX2 exchanged."""

    def pair(d1, d2) -> tuple:
        return (d2, d1) if mirror else (d1, d2)

    return {
        "constraints": sorted(pair(c["a1"], c["a2"]) + (c["b"],) for c in doc["constraints"]),
        "vertices": sorted(pair(*v) for v in doc["vertices"]),
        "achievable": sorted(pair(*v) for v in doc["achievable"]),
        "sums": (doc["sum_dof_upper"], doc["sum_dof_lower"]),
    }


@settings(max_examples=300, deadline=None)
@given(data=st.data(), special=st.booleans())
def test_region_layer_properties(data, special):
    M = data.draw(st.integers(1, 12), label="M")
    N1 = data.draw(st.integers(1, 8), label="N1")
    N2 = data.draw(st.integers(1, 8), label="N2")
    k = data.draw(st.integers(0, M), label="k")
    cfg = normalize_config(M, N1, N2, k)
    assert sum_dof_lower(cfg) <= sum_dof_upper(cfg)
    assert select_scheme(cfg, special).claimed_dof == sum_dof_lower_closed_form(cfg, special)
    if N1 != N2:
        # At N1 = N2 nothing is swapped, so the mirror property has no content.
        doc = region_document(M, N1, N2, k)
        swapped = region_document(M, N2, N1, k)
        assert doc["config"]["swapped"] != swapped["config"]["swapped"]
        assert _sorted_region(doc, mirror=False) == _sorted_region(swapped, mirror=True)


REGION_SHA256 = "551fcbbcd6851f1b477b0b4e296a78dd5fb8f9f64c52e7fdce2d8fff3a761fec"


def test_region_document_digest():
    """Pins every region document and achievable hull for M <= 10, both orders."""
    digest = hashlib.sha256()
    for M in range(1, 11):
        for N1 in range(1, 11):
            for N2 in range(1, 11):
                for k in range(M + 1):
                    digest.update(json.dumps(region_document(M, N1, N2, k)).encode())
                    hull = achievable_region(normalize_config(M, N1, N2, k))
                    digest.update(json.dumps([[str(d1), str(d2)] for d1, d2 in hull]).encode())
    assert digest.hexdigest() == REGION_SHA256


@st.composite
def caller_configs(draw):
    """(M, N1, N2, k) in the caller's receiver order, M, N1, N2 <= 40 and any k."""
    M, N1, N2 = (draw(st.integers(1, 40)) for _ in range(3))
    return M, N1, N2, draw(st.integers(0, M))


@settings(max_examples=500, deadline=None)
@given(config=caller_configs())
@example(config=(5, 4, 2, 1))  # swapped, fractional vertices and hull
@example(config=(4, 3, 1, 3))  # swapped, in the known crossing vertex order
@example(config=(40, 40, 39, 0))
def test_region_document_matches_fraction_reference(config):
    """The document written from integer numerators equals the one composed
    from the public `Fraction` API, byte for byte, beyond REGION_SHA256's M <= 10."""
    assert json.dumps(region_document(*config), indent=1) == json.dumps(
        reference_region_document(*config), indent=1
    )


@given(n=st.integers(-(10**40), 10**40), d=st.integers(1, 10**40))
@example(n=0, d=1)
@example(n=0, d=7)
@example(n=-6, d=4)
@example(n=-12, d=4)
@example(n=10**40 + 1, d=10**20)
@example(n=3 * 10**40, d=3)
def test_ratio_str_is_fraction_str(n, d):
    assert _ratio_str(n, d) == str(F(n, d))
