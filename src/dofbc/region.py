"""Exact-rational DoF region computation and sum-DoF bounds.

Everything here is exact: coordinates and bounds are `fractions.Fraction`,
so equality tests against closed-form values are legitimate.  Every region
and bound function takes a `SystemConfig`, except the centralized benchmark
`pd_sum_dof`, which needs only N1 and N2.  The outer region of a config is
a bounded polygon in the (d1, d2) quadrant cut by integer halfplanes
(`_outer_lines`, the one place its regime is tested); vertices are
enumerated by pairwise constraint intersection, and the sum-DoF upper
bound is the largest d1 + d2 among them.

One integer kernel computes all of it on Python ints, which never round or
overflow.  Two lines meet at (x/det, y/det) by Cramer's rule; with det
made positive, the point satisfies p d1 + q d2 <= r exactly when
p x + q y <= r det.  The feasible points are then put on one common
denominator, the lcm of their dets, where comparing and taking cross
products of the integer numerators decides the same orderings and
orientations as on the rationals.  The public functions wrap the kernel's
integers in `Fraction`s and `DofPoint`s; `cli.region_document` writes its
halfplanes, vertices, hull and bounds straight from the integers.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, NamedTuple

from .config import SystemConfig
from .errors import InvalidConfigError, RegimeError


class DofPoint(NamedTuple):
    """A (d1, d2) pair with exact rational coordinates."""

    d1: Fraction
    d2: Fraction


class LinearConstraint(NamedTuple):
    """Halfplane a1*d1 + a2*d2 <= b with exact rational coefficients."""

    a1: Fraction
    a2: Fraction
    b: Fraction


def region_constraints(cfg: SystemConfig) -> tuple[LinearConstraint, ...]:
    """Outer-bound constraints of the DoF region for `cfg`.

    If k < N2 and M > N2, four constraints apply: the three single/sum caps
    plus the weighted CSIT bound, stored with cleared denominators as

        (min(N2,M)-k) d1 + (min(M,N1+N2)-k) d2
            <= (min(M,N1+N2)-k) (min(N2,M)-k) + k (min(M,N1+N2)-k).

    Otherwise (k >= N2 or M <= N2) only the three cap constraints remain,
    which is also the region under perfect CSIT everywhere.  The implicit
    constraints d1, d2 >= 0 are not listed.
    """
    return tuple(LinearConstraint(*map(Fraction, line)) for line in _outer_lines(cfg))


def _outer_lines(cfg: SystemConfig) -> tuple[tuple[int, int, int], ...]:
    """The halfplanes of `region_constraints(cfg)` as integer triples."""
    M, N1, N2, k = cfg.shape
    lines = ((1, 0, min(M, N1)), (0, 1, min(M, N2)), (1, 1, min(M, N1 + N2)))
    if k < N2 and M > N2:
        p = min(M, N1 + N2) - k  # weight on d2 after clearing denominators
        q = min(N2, M) - k  # weight on d1
        lines += ((q, p, p * q + k * p),)
    return lines


_AXES = ((-1, 0, 0), (0, -1, 0))  # d1 >= 0, d2 >= 0


def _chain(points: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """One half of Andrew's monotone chain, dropping collinear points."""
    chain: list[tuple[int, int]] = []
    for x, y in points:
        while len(chain) >= 2:
            (ox, oy), (ax, ay) = chain[-2], chain[-1]
            if (ax - ox) * (y - oy) - (ay - oy) * (x - ox) > 0:
                break
            chain.pop()
        chain.append((x, y))
    return chain


def _integer_hull(points: list[tuple[int, int, int]]) -> tuple[list[tuple[int, int]], int]:
    """Convex hull of the points (x/den, y/den), counterclockwise, as integer
    numerator pairs over one common denominator D, the lcm of theirs.

    The hull starts at the lexicographically smallest point.
    """
    D = lcm(*(den for _, _, den in points))
    pts = sorted({(x * (D // den), y * (D // den)) for x, y, den in points})
    if len(pts) > 2:
        pts = _chain(pts)[:-1] + _chain(reversed(pts))[:-1]
    return pts, D


def _dof_points(pts: list[tuple[int, int]], D: int) -> tuple[DofPoint, ...]:
    return tuple(DofPoint(Fraction(x, D), Fraction(y, D)) for x, y in pts)


def region_vertices(cfg: SystemConfig) -> tuple[DofPoint, ...]:
    """Vertices of the outer region of `cfg`, counterclockwise from (0, 0)."""
    return _dof_points(*_integer_vertices(_outer_lines(cfg)))


def _integer_vertices(lines: tuple[tuple[int, int, int], ...]) -> tuple[list[tuple[int, int]], int]:
    """Vertices of `{d1, d2 >= 0}` cut by the integer halfplanes `lines`,
    counterclockwise from the lexicographically smallest, as numerator pairs
    over one common denominator; no vertices if the cut is empty.

    Candidates are all pairwise intersections of the lines (including the
    axes), each solved by Cramer's rule with det > 0, so the point
    (x/det, y/det) is feasible exactly when p x + q y <= r det for every
    halfplane (p, q, r).  The feasible candidates are ordered by their
    convex hull.
    """
    lines = _AXES + lines
    candidates = []
    for i, (a1, a2, b) in enumerate(lines):
        for c1, c2, e in lines[i + 1 :]:
            det = a1 * c2 - a2 * c1
            if det == 0:
                continue
            x = b * c2 - a2 * e
            y = a1 * e - b * c1
            if det < 0:
                det, x, y = -det, -x, -y
            for p, q, r in lines:
                if p * x + q * y > r * det:
                    break
            else:
                candidates.append((x, y, det))
    return _integer_hull(candidates)


def sum_dof_upper(cfg: SystemConfig) -> Fraction:
    """Exact sum-DoF upper bound for `cfg`: the largest d1 + d2 over its
    outer region, read off the region's vertices."""
    vertices, D = _integer_vertices(_outer_lines(cfg))
    return Fraction(max(x + y for x, y in vertices), D)


class PlanShape(NamedTuple):
    """Parameters of the two-phase plan template (see `dofbc.schemes`).

    Phase 1 has `p1` slots of `a` fresh RX1 streams cancelled at `a_rows`
    rows of RX2 and `b` fresh RX2 streams cancelled at `b_rows` rows of RX1.
    Phase 2 has `p2` slots, each forwarding one overheard RX2 row per phase-1
    slot alongside `b2` fresh RX2 streams cancelled at `b_rows` rows of RX1.
    """

    scheme: str
    p1: int
    a: int
    a_rows: int
    b: int
    b_rows: int
    p2: int = 0
    b2: int = 0

    @property
    def T(self) -> int:
        return self.p1 + self.p2

    @property
    def S1(self) -> int:
        return self.p1 * self.a

    @property
    def S2(self) -> int:
        return self.p1 * self.b + self.p2 * self.b2


def effective_config(cfg: SystemConfig) -> SystemConfig:
    """Cap M at N1+N2: the DoF do not grow beyond it, so a wide system runs
    its plan on the first N1+N2 antennas and the extra antennas stay silent,
    which needs no CSI."""
    M, N1, N2, k = cfg.shape
    if M <= N1 + N2:
        return cfg
    eff_M = N1 + N2
    return SystemConfig(eff_M, N1, N2, min(k, eff_M))


def plan_shape(cfg: SystemConfig) -> PlanShape:
    """The template plan for `cfg`, decided on its capped config `effective_config(cfg)`.

    k = 0, M <= N2, or a low-k scheme that does not beat min(N2, M): serve
    RX2 alone.  k >= N2: one fully separated ZF slot.  N1 <= k < N2: the
    two-phase mid-k plan, a single slot when M <= N1+k.  1 <= k < N1: the
    low-k retransmission plan with m = min(N2, M-k), when m + k^2/m wins.
    The crafted (6,3,3,1) plan is not a template instance; only
    `schemes.select_scheme` chooses it, on request.
    """
    M, N1, N2, k = effective_config(cfg).shape
    rx2_only = PlanShape("rx2-baseline", p1=1, a=0, a_rows=0, b=min(N2, M), b_rows=0)
    if k == 0 or M <= N2:
        return rx2_only
    if k >= N2:
        return PlanShape("zf-baseline", p1=1, a=M - N2, a_rows=N2, b=N2, b_rows=M - N2)
    if k >= N1:
        if M <= N1 + k:
            return PlanShape("mid-k", p1=1, a=N1, a_rows=min(k, M - N1), b=M - N1, b_rows=N1)
        return PlanShape(
            "mid-k", p1=N1, a=M - k, a_rows=k, b=M - N1, b_rows=N1, p2=M - k - N1, b2=N2 - N1
        )
    m = min(N2, M - k)
    if m < k or m * m + k * k <= m * min(N2, M):
        return rx2_only
    return PlanShape("low-k", p1=k, a=m, a_rows=k, b=k, b_rows=k, p2=m - k, b2=m)


def sum_dof_lower(cfg: SystemConfig) -> Fraction:
    """Sum DoF (S1+S2)/T of the template plan that `plan_shape` picks for `cfg`.

    `plan_shape` is the one place the regime is decided; this bound is read
    off its symbol and slot counts.
    """
    shape = plan_shape(cfg)
    return Fraction(shape.S1 + shape.S2, shape.T)


def achievable_region(cfg: SystemConfig) -> tuple[DofPoint, ...]:
    """Hull of the single-user corners and the scheme split point (S1/T, S2/T).

    This is the region achievable by time-sharing the template plans; its
    maximal d1+d2 equals `sum_dof_lower`, read off the same shape.  No richer
    boundary is claimed for k < N1.
    """
    return _dof_points(*_integer_hull(_achievable_points(cfg, plan_shape(cfg))))


def _achievable_points(cfg: SystemConfig, shape: PlanShape) -> list[tuple[int, int, int]]:
    """The points (x, y, den) that `achievable_region(cfg)` spans, for
    `shape = plan_shape(cfg)`."""
    M, N1, N2, _ = cfg.shape
    return [(0, 0, 1), (min(M, N1), 0, 1), (0, min(M, N2), 1), (shape.S1, shape.S2, shape.T)]


def pd_sum_dof(N1: int, N2: int) -> Fraction:
    """Sum DoF of the centralized perfect/delayed-CSIT benchmark, M = N1+N2."""
    if not 1 <= N1 <= N2:
        raise InvalidConfigError("pd benchmark requires 1 <= N1 <= N2")
    return N1 + N2 - Fraction(N2 * N1, N1 + N2)


def analogy_gap(cfg: SystemConfig) -> tuple[Fraction, Fraction]:
    """DoF losses of the two imperfect-CSIT settings relative to M = N1+N2.

    Returns (delayed-CSIT loss, distributed-CSIT loss), that is
    M - pd_sum_dof(N1, N2) and M - sum_dof_lower(cfg).  Requires M = N1+N2
    and N1 <= k < N2.
    """
    M, N1, N2, k = cfg.shape
    if M != N1 + N2:
        raise RegimeError("loss comparison is defined for M = N1 + N2")
    if not N1 <= k < N2:
        raise RegimeError("loss comparison requires N1 <= k < N2")
    return (M - pd_sum_dof(N1, N2), M - sum_dof_lower(cfg))
