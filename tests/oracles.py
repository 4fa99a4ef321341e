"""Independent brute-force oracles used to freeze expected test values.

Everything here recomputes results from first principles (pairwise
constraint intersection, explicit determinants, the closed-form sum-DoF
upper and lower bounds of each regime, the closed-form analogy losses)
without calling into the package's own code paths.
"""

from __future__ import annotations

import math
from fractions import Fraction


def vertex_oracle(constraints) -> list[tuple[Fraction, Fraction]]:
    """Vertices of {x, y >= 0} cut by a1 x + a2 y <= b halfplanes.

    Brute force: intersect every pair of boundary lines (axes included),
    keep feasible points, discard non-extreme ones, and order the rest
    counterclockwise starting from the lexicographically smallest.
    """
    cons = [(Fraction(a1), Fraction(a2), Fraction(b)) for a1, a2, b in constraints]
    cons += [(Fraction(-1), Fraction(0), Fraction(0)), (Fraction(0), Fraction(-1), Fraction(0))]
    candidates = set()
    for i in range(len(cons)):
        a1, a2, b1 = cons[i]
        for j in range(i + 1, len(cons)):
            c1, c2, b2 = cons[j]
            det = a1 * c2 - a2 * c1
            if det == 0:
                continue
            x = (b1 * c2 - a2 * b2) / det
            y = (a1 * b2 - b1 * c1) / det
            if all(p * x + q * y <= r for p, q, r in cons):
                candidates.add((x, y))
    points = list(candidates)
    if not points:
        return []
    cx = sum(p[0] for p in points) / len(points)
    cy = sum(p[1] for p in points) / len(points)
    points.sort(key=lambda p: math.atan2(float(p[1] - cy), float(p[0] - cx)))

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    extreme = []
    n = len(points)
    for idx, p in enumerate(points):
        prev_p, next_p = points[idx - 1], points[(idx + 1) % n]
        if cross(prev_p, p, next_p) != 0:
            extreme.append(p)
    start = extreme.index(min(extreme))
    return extreme[start:] + extreme[:start]


def lp_max_sum_oracle(constraints) -> Fraction:
    """max x + y over the polygon, via the vertex oracle."""
    return max(x + y for x, y in vertex_oracle(constraints))


TABLE1_CONFIG = (6, 3, 3, 1)


def low_k_scheme_value(cfg) -> Fraction | None:
    """Sum DoF of the interference-retransmission scheme for k < N1.

    With m = min(N2, M-k) the scheme delivers m + k^2/m over m slots.  It
    requires a nonnegative retransmission phase (k <= m); outside that range
    no plan exists and None is returned.  Note the unguarded formula would
    exceed min(M, N1+N2) precisely when k > m, which is how the guard was
    fixed.
    """
    M, N1, N2, k = cfg.shape
    if not 1 <= k < N1:
        return None
    m = min(N2, M - k)
    if m < k:
        return None
    return m + Fraction(k * k, m)


def sum_dof_upper_closed_form(cfg) -> Fraction:
    """Sum-DoF upper bound in closed form.

    In the regime k < N2 < M the weighted bound contributes a third term;
    otherwise the bound collapses to the perfect-CSIT value min(M, N1+N2).
    """
    M, N1, N2, k = cfg.shape
    if k < N2 and M > N2:
        third = N2 + Fraction(N1 * min(N1, M - N2), min(N1 + N2, M) - k)
        return min(Fraction(N1 + N2), Fraction(M), third)
    return Fraction(min(M, N1 + N2))


def sum_dof_lower_closed_form(cfg, allow_special_cases: bool = False) -> Fraction:
    """Best sum DoF among the built-in achievable schemes, in closed form.

    k >= N2 reaches the perfect-CSIT value; N1 <= k < N2 reaches the upper
    bound (two-phase scheme, with M effectively capped at N1+N2 since extra
    transmit antennas do not increase the DoF); k < N1 takes the better of
    serving the stronger receiver alone and the retransmission scheme.  With
    `allow_special_cases`, the hand-crafted (6,3,3,1) plan raises that
    config's value to 4.
    """
    M, N1, N2, k = cfg.shape
    capped = (min(M, N1 + N2), N1, N2, min(k, N1 + N2))
    if allow_special_cases and capped == TABLE1_CONFIG:
        return Fraction(4)
    if k >= N2:
        return Fraction(min(M, N1 + N2))
    if k >= N1:
        if M <= N2:
            return Fraction(min(M, N2))
        # When M <= N1 + k the two-phase formula exceeds the dimension cap
        # min(M, N1+N2) and a single-slot plan already reaches the cap.
        value = N2 + Fraction(N1 * min(N1, M - N2), min(M, N1 + N2) - k)
        return min(Fraction(min(M, N1 + N2)), value)
    baseline = Fraction(min(N2, M))
    scheme = low_k_scheme_value(cfg)
    if scheme is None:
        return baseline
    return max(baseline, scheme)


def analogy_gap_closed_form(cfg) -> tuple[Fraction, Fraction]:
    """(delayed-CSIT loss, distributed-CSIT loss) against M = N1+N2 for
    N1 <= k < N2: N2*N1/(N1+N2) and (N2-k)*N1/(N1+(N2-k))."""
    M, N1, N2, k = cfg.shape
    return Fraction(N2 * N1, N1 + N2), Fraction((N2 - k) * N1, N1 + (N2 - k))


def det2_mod(a, b, c, d, p: int) -> int:
    """Determinant of [[a, b], [c, d]] mod p, written out explicitly."""
    return (a * d - b * c) % p


def outer_bound_halfplanes(M: int, N1: int, N2: int, k: int) -> list[tuple]:
    """Outer-bound halfplanes written down directly from the closed form."""
    cons = [(1, 0, min(M, N1)), (0, 1, min(M, N2)), (1, 1, min(M, N1 + N2))]
    if k < N2 and M > N2:
        p = min(M, N1 + N2) - k
        q = min(N2, M) - k
        cons.append((q, p, p * q + k * p))
    return cons


def rref_oracle(rows, p: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form over GF(p) of a list of integer rows, and
    its pivot columns, by textbook Gauss-Jordan on Python ints."""
    R = [[int(x) % p for x in row] for row in rows]
    cols = len(R[0]) if R else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, len(R)) if R[i][c]), None)
        if pivot is None:
            continue
        R[r], R[pivot] = R[pivot], R[r]
        inv = pow(R[r][c], p - 2, p)
        R[r] = [x * inv % p for x in R[r]]
        for i in range(len(R)):
            if i != r and R[i][c]:
                f = R[i][c]
                R[i] = [(x - f * y) % p for x, y in zip(R[i], R[r])]
        pivots.append(c)
        r += 1
    return R, pivots
