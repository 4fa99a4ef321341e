import ctypes
import os
import shutil
from bisect import bisect_left

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dofbc import gf, precoding, verifier
from dofbc.config import SystemConfig
from dofbc.errors import ResampleRequiredError
from dofbc.gf import (
    DEFAULT_PRIME,
    gf_array,
    gf_matmul,
    gf_particular_solution,
    gf_pivots,
    gf_rank,
    gf_solve,
)
from dofbc.schemes import select_scheme
from dofbc.verifier import achieved_dof

from .helpers import (
    adversarial_plan,
    low_k_grid,
    overloaded_rx2_plan,
    per_trial_certification,
    tight_regime_grid,
)
from .oracles import rref_oracle

P = DEFAULT_PRIME


def test_matmul_matches_python_ints():
    rng = np.random.default_rng(0)
    A = rng.integers(0, P, size=(7, 5), dtype=np.int64)
    B = rng.integers(0, P, size=(5, 6), dtype=np.int64)
    want = np.array(
        [[sum(int(A[i, t]) * int(B[t, j]) for t in range(5)) % P for j in range(6)] for i in range(7)],
        dtype=np.int64,
    )
    assert np.array_equal(gf_matmul(A, B), want)


def test_matmul_rejects_inner_dimension_beyond_exact_range():
    n = 2**16
    full = np.full((1, n), P - 1, dtype=np.int64)
    assert gf_matmul(full, full.T)[0, 0] == (n * (P - 1) ** 2) % P
    # Right factors whose low 16-bit limb is all ones maximise the unreduced
    # low-limb sum; the second also has a large high limb.
    for b in (2**16 - 1, 2**31 - 2**16 - 1):
        right = np.full((n, 1), b, dtype=np.int64)
        assert gf_matmul(full, right)[0, 0] == (n * (P - 1) * b) % P
    wide = np.full((1, 2 * n), P - 1, dtype=np.int64)
    with pytest.raises(ValueError):
        gf_matmul(wide, wide.T)


def test_rank_known_cases():
    assert gf_rank(np.eye(4, dtype=np.int64)) == 4
    A = np.array([[1, 2, 3], [2, 4, 6], [0, 1, 1]], dtype=np.int64)  # row2 = 2*row1
    assert gf_rank(A) == 2
    assert gf_rank(np.zeros((3, 5), dtype=np.int64)) == 0
    assert gf_rank(np.zeros((0, 5), dtype=np.int64)) == 0


def test_rank_handles_entries_reduced_mod_p():
    assert gf_rank(gf_array([[P, P], [P, P]])) == 0
    assert gf_rank(gf_array([[1, P + 3], [P + 2, 2]])) == 2
    assert gf_rank(gf_array([[1, P + 1], [P + 2, 2]])) == 1  # reduces to [[1,1],[2,2]]


def test_solve_roundtrip():
    rng = np.random.default_rng(1)
    A = rng.integers(1, P, size=(6, 6), dtype=np.int64)
    X = rng.integers(0, P, size=(6, 3), dtype=np.int64)
    B = gf_matmul(A, X)
    got = gf_solve(A, B)
    assert np.array_equal(got, X)
    x1 = gf_solve(A, B[:, 0])
    assert np.array_equal(x1, X[:, 0])


def test_solve_singular_raises():
    A = np.array([[1, 2], [2, 4]], dtype=np.int64)
    with pytest.raises(ResampleRequiredError):
        gf_solve(A, np.array([1, 1], dtype=np.int64))


def test_particular_solution_free_vars_zero():
    A = np.array([[1, 2, 3], [0, 1, 4]], dtype=np.int64)
    b = np.array([7, 9], dtype=np.int64)
    x = gf_particular_solution(A, b)
    assert np.array_equal(gf_matmul(A, x[:, None])[:, 0], b)
    free = [c for c in range(3) if c not in gf_pivots(A)]
    assert all(x[c] == 0 for c in free)


def test_pivots_count_leading_column_ranks():
    A = np.array([[1, 2, 0, 1], [2, 4, 0, 3], [0, 0, 0, 5]], dtype=np.int64)
    assert gf_pivots(A) == [0, 3]
    for c in range(5):
        assert sum(p < c for p in gf_pivots(A)) == gf_rank(A[:, :c])
    assert gf_pivots(np.zeros((0, 3), dtype=np.int64)) == []


def test_particular_solution_stacks_right_hand_sides():
    A = np.array([[1, 2, 3], [0, 1, 4]], dtype=np.int64)
    B = np.array([[7, 1], [9, 0]], dtype=np.int64)
    X = gf_particular_solution(A, B)
    for j in range(2):
        assert np.array_equal(X[:, j], gf_particular_solution(A, B[:, j]))


def test_particular_solution_rejects_rank_deficient_rows():
    A = np.array([[1, 2, 3], [2, 4, 6]], dtype=np.int64)
    with pytest.raises(ResampleRequiredError):
        gf_particular_solution(A, np.array([1, 2], dtype=np.int64))  # consistent


def _sparse(rng, shape):
    """Entries 0, 1 and p - 1 only: over GF(p) such factors leave zeros at
    pivots, and columns without one, as a small field would."""
    return rng.choice(np.array([0, 1, P - 1]), shape)


@settings(max_examples=300, deadline=None)
@given(
    rows=st.integers(0, 7),
    cols=st.integers(0, 8),
    inner=st.integers(0, 8),
    rhs_cols=st.integers(0, 3),
    sparse=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(rows=0, cols=4, inner=2, rhs_cols=1, sparse=False, seed=0)
@example(rows=4, cols=0, inner=2, rhs_cols=1, sparse=False, seed=0)
@example(rows=5, cols=5, inner=5, rhs_cols=2, sparse=False, seed=0)
@example(rows=3, cols=7, inner=3, rhs_cols=1, sparse=False, seed=0)
@example(rows=6, cols=6, inner=2, rhs_cols=2, sparse=True, seed=1)
@example(rows=5, cols=5, inner=5, rhs_cols=1, sparse=True, seed=63)  # zeros at pivots 1 and 2: row swaps
@example(rows=4, cols=8, inner=3, rhs_cols=1, sparse=True, seed=3645)  # dead columns cut before pivots 5, 6
def test_kernels_equal_python_int_gauss_jordan(rows, cols, inner, rhs_cols, sparse, seed):
    # Products of thin factors are rank deficient when inner < min(rows, cols);
    # sparse factors make row swaps and dead columns; adding multiples of p
    # leaves entries negative or >= p, i.e. unreduced.
    rng = np.random.default_rng(seed)

    def factor(shape):
        return _sparse(rng, shape) if sparse else rng.integers(0, P, shape)

    A = gf_matmul(factor((rows, inner)), factor((inner, cols)))
    A = A + P * rng.integers(-2, 3, A.shape)
    B = rng.integers(0, P, (rows, rhs_cols)) + P * rng.integers(-2, 3, (rows, rhs_cols))

    _, pivots_want = rref_oracle(A.tolist(), P)
    assert gf_pivots(A) == pivots_want
    assert gf_rank(A) == len(pivots_want)

    # The RREF of [A | B] carries the solutions in its right-hand columns.
    aug_want, aug_pivots = rref_oracle(np.hstack([A, B]).tolist(), P)
    if len(pivots_want) == rows:
        X = np.zeros((cols, rhs_cols), dtype=np.int64)
        X[pivots_want] = np.array(aug_want, dtype=np.int64).reshape(rows, cols + rhs_cols)[:, cols:]
        assert np.array_equal(gf_particular_solution(A, B), X)
    else:
        with pytest.raises(ResampleRequiredError):
            gf_particular_solution(A, B)

    n = min(rows, cols)
    square = A[:n, :n]
    sq_want, sq_pivots = rref_oracle(np.hstack([square, B[:n]]).tolist(), P)
    if sq_pivots[:n] == list(range(n)):
        X = np.array(sq_want, dtype=np.int64).reshape(n, n + rhs_cols)[:, n:]
        assert np.array_equal(gf_solve(square, B[:n]), X)
    else:
        with pytest.raises(ResampleRequiredError):
            gf_solve(square, B[:n])


@settings(max_examples=150, deadline=None)
@given(
    members=st.integers(1, 4),
    n=st.integers(0, 5),
    rhs_cols=st.one_of(st.none(), st.integers(0, 3)),
    sparse=st.booleans(),
    planted=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(members=3, n=4, rhs_cols=2, sparse=False, planted=False, seed=0)
@example(members=3, n=4, rhs_cols=None, sparse=False, planted=True, seed=0)
def test_stacked_solve_equals_per_member_solve(members, n, rhs_cols, sparse, planted, seed):
    # A stack solves each member as it would be solved alone, and raises if
    # any member is singular; sparse members are often singular or swap
    # rows, and `planted` zeroes a column of one member.
    rng = np.random.default_rng(seed)
    A = _sparse(rng, (members, n, n)) if sparse else rng.integers(0, P, (members, n, n))
    A += P * rng.integers(-2, 3, (members, n, n))
    B = rng.integers(0, P, (members, n) if rhs_cols is None else (members, n, rhs_cols))
    if planted and n:
        A[rng.integers(members), :, rng.integers(n)] = 0
    alone = []
    for member in range(members):
        try:
            alone.append(gf_solve(A[member], B[member]))
        except ResampleRequiredError:
            alone.append(None)
    if any(X is None for X in alone):
        with pytest.raises(ResampleRequiredError):
            gf_solve(A, B)
    else:
        X = gf_solve(A, B)
        assert X.shape == B.shape
        assert np.array_equal(X, np.stack(alone))


compiled = pytest.mark.skipif(gf._KERNEL is None, reason="the compiled rank kernel is not loaded")


def _oracle_pivots(A):
    return gf._eliminate(gf_array(A))


@st.composite
def planted_matrices(draw):
    """A matrix over GF(p) with planted degeneracies."""
    rows, cols = draw(st.integers(0, 14)), draw(st.integers(0, 14))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):  # 0, 1 and p - 1 only: many zero pivots and row swaps
        A = _sparse(rng, (rows, cols))
    else:
        A = rng.integers(0, P, (rows, cols))
    if rows and cols:
        if draw(st.booleans()):  # thin product: rank below min(rows, cols)
            inner = int(rng.integers(0, min(rows, cols)))
            A = gf_matmul(rng.integers(0, P, (rows, inner)), rng.integers(0, P, (inner, cols)))
        if draw(st.booleans()):
            A[:, rng.integers(cols, size=rng.integers(1, cols + 1))] = 0
        if rows > 1 and draw(st.booleans()):
            A[rng.integers(1, rows)] = A[rng.integers(rows)]
        if draw(st.booleans()):
            A[rng.random((rows, cols)) < 0.3] = P - 1
    if draw(st.booleans()):
        A = np.zeros_like(A)
    return A


def _laid_out(A, layout):
    if layout == "fortran":
        return np.asfortranarray(A)
    if layout == "strided":
        rows, cols = A.shape[-2:]
        big = np.full(A.shape[:-2] + (2 * rows, 3 * cols), -1, dtype=np.int64)
        big[..., ::2, ::3] = A
        return big[..., ::2, ::3]
    return A


@compiled
@settings(max_examples=400, deadline=None)
@given(A=planted_matrices(), layout=st.sampled_from(["c", "fortran", "strided"]))
def test_compiled_pivots_equal_numpy_elimination(A, layout):
    A = _laid_out(A, layout)
    before = A.copy()
    assert gf_pivots(A) == _oracle_pivots(A)
    assert np.array_equal(A, before)  # the kernel eliminates a copy


@compiled
@pytest.mark.parametrize("bound", [2, 3, 65521, P])
@pytest.mark.parametrize("shape", [(0, 0), (0, 5), (5, 0), (1, 1), (1, 9), (9, 1), (12, 12), (40, 60)])
def test_compiled_pivots_on_edge_shapes(bound, shape):
    # Entries below `bound`: a small bound leaves zero pivots, row swaps and
    # rank deficiency over GF(p), and `bound` = p reaches every entry.
    rng = np.random.default_rng(sum(shape))
    for A in (np.zeros(shape, dtype=np.int64), np.full(shape, bound - 1), rng.integers(0, bound, shape),
              rng.integers(-(2**40), 2**40, shape)):
        assert gf_pivots(A) == _oracle_pivots(A)
        assert gf_pivots(A.T) == _oracle_pivots(A.T)


def test_pivots_reject_arrays_that_are_not_matrices():
    for A in (np.int64(3), np.ones(4, dtype=np.int64), np.ones((2, 3, 4), dtype=np.int64)):
        with pytest.raises(ValueError, match="2-D"):
            gf_pivots(A)


@compiled
def test_compiled_pivots_equal_numpy_on_a_certification(monkeypatch):
    # Every member that certifying the largest criterion-3 plan ranks, trial
    # by trial through `realize_plan` and `decodability_check`.
    seen = []

    def recording(stack, split):
        seen.extend((member.copy(), split) for member in stack)
        return gf._ranks(stack, split)

    monkeypatch.setattr(verifier, "_ranks", recording)
    assert per_trial_certification(select_scheme(SystemConfig(10, 1, 9, 1)), trials=50, seed=1).ok
    assert len(seen) == 100
    for A, split in seen:
        pivots = _oracle_pivots(A)
        assert gf_pivots(A) == pivots
        assert gf._ranks(A[None].copy(), split) == ([len(pivots)], [sum(c < split for c in pivots)])


@st.composite
def rank_stacks(draw):
    """A (count, rows, cols) stack over GF(p), zero-size shapes included,
    whose members are thin products (rank-deficient) or entries 0, 1 and
    p - 1 (many zero pivots and row swaps), and a split in 0..cols."""
    count, rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 9)), draw(st.integers(0, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    members = []
    for _ in range(count):
        if draw(st.booleans()):  # a thin product: rank below min(rows, cols)
            inner = int(rng.integers(0, min(rows, cols) + 1))
            A = gf_matmul(rng.integers(0, P, (rows, inner)), rng.integers(0, P, (inner, cols)))
        else:
            A = _sparse(rng, (rows, cols))
        members.append(A)
    split = draw(st.sampled_from([0, cols, draw(st.integers(0, cols))]))
    return np.array(members, dtype=np.int64).reshape(count, rows, cols), split


@pytest.mark.parametrize("kernel", ["compiled", "numpy"])
@settings(max_examples=300, deadline=None)
@given(case=rank_stacks())
@example(case=(np.zeros((3, 0, 4), dtype=np.int64), 4))
@example(case=(np.zeros((2, 5, 0), dtype=np.int64), 0))
@example(case=(np.zeros((0, 3, 3), dtype=np.int64), 3))
@example(case=(np.ones((2, 3, 4), dtype=np.int64), 0))
def test_stacked_ranks_equal_eliminating_each_member(kernel, case):
    # Each member's rank and the rank of its first `split` columns, as
    # `_eliminate` of that member alone counts them.
    stack, split = case
    if kernel == "compiled" and gf._KERNEL is None:
        pytest.skip("the compiled rank kernel is not loaded")
    pivots = [_oracle_pivots(A) for A in stack]
    want = [len(columns) for columns in pivots], [sum(c < split for c in columns) for columns in pivots]
    with pytest.MonkeyPatch.context() as patch:
        if kernel == "numpy":
            patch.setattr(gf, "_KERNEL", None)
        got = gf._ranks(stack.copy(), split)
    assert got == want and all(type(n) is int for n in got[0] + got[1])


def test_stacked_ranks_reject_bad_stacks():
    stack = np.zeros((2, 3, 4), dtype=np.int64)
    for bad, split in ((stack[0], 0), (stack[None], 0), (stack, -1), (stack, 5)):
        with pytest.raises(ValueError, match="^cannot rank a stack of shape"):
            gf._ranks(bad, split)
    read_only = stack.copy()
    read_only.flags.writeable = False
    for bad in (stack.astype(np.int32), np.asfortranarray(stack), stack[:, :, ::2], read_only):
        with pytest.raises(ValueError, match="C-ordered int64"):
            gf._ranks(bad, 0)


def _on_numpy(call, *args):
    """`_outcome` with the compiled kernel unloaded."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gf, "_KERNEL", None)
        return _outcome(call, *args)


def _outcome(call, *args):
    """`call(*args)`, or the type of the exception it raised; the caller's
    arrays are checked unmodified."""
    before = [np.array(a, copy=True) for a in args[:2]]
    try:
        out = call(*args)
    except (ResampleRequiredError, ValueError) as exc:
        out = type(exc)
    assert all(np.array_equal(a, b) for a, b in zip(args, before))  # nothing eliminated in place
    return out


def _same(compiled_out, numpy_out):
    if isinstance(numpy_out, type):
        return compiled_out is numpy_out
    return (not isinstance(compiled_out, type) and compiled_out.dtype == numpy_out.dtype
            and compiled_out.shape == numpy_out.shape and np.array_equal(compiled_out, numpy_out))


def _entries(rng, shape, kind):
    """Entries of one of four kinds: uniform, only 0, 1 and p - 1 (zero
    pivots and row swaps), all p - 1, or uniform and then unreduced (shifted
    by multiples of p, so negative or at least p)."""
    if kind == "sparse":
        return _sparse(rng, shape)
    if kind == "top":
        return np.full(shape, P - 1, dtype=np.int64)
    values = rng.integers(0, P, shape)
    return values + P * rng.integers(-2, 3, shape) if kind == "unreduced" else values


KINDS = st.sampled_from(["uniform", "sparse", "top", "unreduced"])
LAYOUTS = st.sampled_from(["c", "fortran", "strided"])


@compiled
@settings(max_examples=400, deadline=None)
@given(
    members=st.integers(1, 6),
    stacked=st.booleans(),
    n=st.integers(0, 6),
    rhs_cols=st.one_of(st.none(), st.integers(0, 3)),
    kind=KINDS,
    planted=st.sampled_from([None, "column", "row"]),
    layout=LAYOUTS,
    seed=st.integers(0, 2**32 - 1),
)
@example(members=6, stacked=True, n=6, rhs_cols=2, kind="uniform", planted="row", layout="c", seed=0)
@example(members=1, stacked=False, n=1, rhs_cols=None, kind="top", planted=None, layout="c", seed=0)
@example(members=4, stacked=True, n=0, rhs_cols=3, kind="uniform", planted=None, layout="strided", seed=0)
def test_compiled_solve_equals_numpy_solve(members, stacked, n, rhs_cols, kind, planted, layout, seed):
    # `planted` makes one member singular: a zero column, or a repeated row.
    rng = np.random.default_rng(seed)
    lead = (members,) if stacked else ()
    A = _entries(rng, lead + (n, n), kind)
    B = _entries(rng, lead + (n,) if rhs_cols is None else lead + (n, rhs_cols), kind)
    member = (int(rng.integers(members)),) if stacked else ()
    if planted == "column" and n:
        A[member + (Ellipsis, int(rng.integers(n)))] = 0
    if planted == "row" and n > 1:
        A[member + (n - 1,)] = A[member + (0,)]
    A = _laid_out(A, layout)
    if B.ndim >= 2:
        B = _laid_out(B, layout)
    want = _on_numpy(gf_solve, A, B)
    assert _same(_outcome(gf_solve, A, B), want)
    if planted and n > 1:
        assert want is ResampleRequiredError


@st.composite
def broadcast_leads(draw):
    """Two leading shapes that broadcast against each other."""
    common = draw(st.lists(st.integers(1, 3), max_size=2))
    leads = []
    for _ in range(2):
        lead = [1 if draw(st.booleans()) else size for size in common]
        leads.append(tuple(lead[draw(st.integers(0, len(lead))) :]))
    return tuple(leads)


@compiled
@settings(max_examples=400, deadline=None)
@given(
    leads=broadcast_leads(),
    rows=st.integers(0, 6),
    inner=st.integers(0, 6),
    cols=st.integers(0, 6),
    kind=KINDS,
    layout=LAYOUTS,
    seed=st.integers(0, 2**32 - 1),
)
@example(leads=((3, 1), (2,)), rows=4, inner=5, cols=3, kind="unreduced", layout="fortran", seed=0)
@example(leads=((2,), (2,)), rows=3, inner=0, cols=2, kind="uniform", layout="c", seed=0)
def test_compiled_matmul_equals_numpy_matmul(leads, rows, inner, cols, kind, layout, seed):
    rng = np.random.default_rng(seed)
    A = _laid_out(_entries(rng, leads[0] + (rows, inner), kind), layout)
    B = _laid_out(_entries(rng, leads[1] + (inner, cols), kind), layout)
    want = _on_numpy(gf_matmul, A, B)
    assert want.shape == np.broadcast_shapes(leads[0], leads[1]) + (rows, cols)
    assert _same(_outcome(gf_matmul, A, B), want)


@compiled
def test_compiled_matmul_at_the_largest_inner_dimension():
    # Every entry p - 1 over 2^16 terms: the largest sums either accumulator meets.
    n = 2**16
    A = np.full((2, n), P - 1, dtype=np.int64)
    B = np.full((n, 3), P - 1, dtype=np.int64)
    want = (n * (P - 1) ** 2) % P
    assert np.array_equal(_on_numpy(gf_matmul, A, B), np.full((2, 3), want))
    assert np.array_equal(gf_matmul(A, B), np.full((2, 3), want))
    wide = (np.ones((1, n + 1), dtype=np.int64), np.ones((n + 1, 1), dtype=np.int64))
    assert _outcome(gf_matmul, *wide) is ValueError
    assert _on_numpy(gf_matmul, *wide) is ValueError


@pytest.mark.parametrize("kernel", ["compiled", "numpy"])
def test_both_paths_compute_in_the_same_field(kernel):
    # 2^30 * 2 = 2^31 is 1 mod 2^31 - 1, and not 1 mod any other prime: the
    # C kernel's P is `DEFAULT_PRIME`.
    if kernel == "compiled" and gf._KERNEL is None:
        pytest.skip("the compiled rank kernel is not loaded")
    with pytest.MonkeyPatch.context() as patch:
        if kernel == "numpy":
            patch.setattr(gf, "_KERNEL", None)
        product = gf._product(np.array([[2**30]], dtype=np.int64), np.array([[2]], dtype=np.int64))
    assert product.tolist() == [[1]]


# Edge entries: 2 * 2^30 - 1 * 1 = p, and products of p - 1, p - 2 and
# 2^30 + 1 lie near p^2, so eliminations meet row updates that are exact
# multiples of p or near the largest magnitude they can reach.
EDGES = np.array([0, 1, 2, 2**30, 2**30 + 1, P - 2, P - 1])


@compiled
@settings(max_examples=300, deadline=None)
@given(
    members=st.integers(1, 4),
    rows=st.integers(1, 7),
    cols=st.integers(1, 7),
    rhs=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_compiled_kernels_equal_numpy_at_the_extremes(members, rows, cols, rhs, seed):
    # Pivots and stacked ranks of edge entries, and solves of edge entries of
    # either sign with a negated right-hand side, so products of entries
    # +-(p - 1) reach about p^2 in magnitude.
    rng = np.random.default_rng(seed)
    stack = rng.choice(EDGES, (members, rows, cols))
    split = int(rng.integers(cols + 1))
    pivots = [_oracle_pivots(A) for A in stack]
    assert [gf._pivots(A.copy()) for A in stack] == pivots
    assert gf._ranks(stack.copy(), split) == ([len(c) for c in pivots],
                                             [bisect_left(c, split) for c in pivots])
    shape = (members, rows, rows + rhs)
    aug = rng.choice(EDGES, shape) * rng.choice([-1, 1], shape)
    aug[..., rows:] = -np.abs(aug[..., rows:])
    got = _solved_or_raised(gf._solve_in_place, aug)
    want = _solved_or_raised(gf._solve, aug)
    assert _same(got, want)


@compiled
def test_compiled_row_updates_of_multiples_of_p_reduce_to_zero():
    # Each matrix is singular over GF(p), and its elimination meets row
    # updates that are nonzero multiples of p: 2 * 2^30 - 1 * 1 = p and
    # (p - 1)^2 - 1 * 1 = p (p - 2) in pivots and ranks, (p - 1) - (-1) * 1 = p
    # in a solve.  Each must reduce to 0, the one representative of 0.  The
    # rank-2 product of edge entries updates its third column by -5p in its
    # second step; with one fold, its first step leaves the pivot at -16,
    # and that update becomes -(p^2 + 2p), which one fold reduces to -p.
    ranked = np.array([[[2, 1], [1, 2**30]], [[P - 1, 1], [1, P - 1]]], dtype=np.int64)
    assert [gf._pivots(A.copy()) for A in ranked] == [[0], [0]]
    assert gf._ranks(ranked.copy(), 1) == ([1, 1], [1, 1])
    product = np.array([[P - 4, P - 2, 3], [P - 4, 2, 5], [1, 2, 0], [4, 2**30, 2**29 - 4]], dtype=np.int64)
    assert gf._pivots(product.copy()) == _oracle_pivots(product) == [0, 1]
    for A in (*ranked, np.array([[1, 1], [-1, P - 1]], dtype=np.int64)):
        aug = np.hstack([A, np.ones((2, 1), dtype=np.int64)])
        assert _solved_or_raised(gf._solve_in_place, aug) is ResampleRequiredError


def test_matmul_and_solve_reject_mismatched_shapes_on_both_paths():
    for kernel in (gf._KERNEL, None):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(gf, "_KERNEL", kernel)
            with pytest.raises(ValueError):
                gf_matmul(np.ones((2, 3), dtype=np.int64), np.ones((4, 2), dtype=np.int64))
            with pytest.raises(ValueError):
                gf_matmul(np.ones((2, 2, 3), dtype=np.int64), np.ones((3, 3, 2), dtype=np.int64))
            with pytest.raises(ValueError):
                gf_solve(np.ones((2, 3), dtype=np.int64), np.ones(2, dtype=np.int64))
            with pytest.raises(ValueError):
                gf_solve(np.eye(2, dtype=np.int64), np.ones(3, dtype=np.int64))


@compiled
@pytest.mark.parametrize("shape,special", [((10, 1, 9, 1), False), ((6, 3, 3, 1), True)])
def test_compiled_solves_and_products_equal_numpy_on_a_certification(monkeypatch, shape, special):
    # Every AP-ZF solve, product and (for the crafted plan) coupled
    # fixed-point solve that certifying the plan trial by trial runs,
    # through the private entries that `realize_plan` calls.
    seen = []

    def recording(module, name):
        call = getattr(module, name)

        def record(*args):
            seen.append((f"{module.__name__}.{name}", call, [a.copy() for a in args]))
            return call(*args)

        monkeypatch.setattr(module, name, record)

    for module, name in ((precoding, "_solve_in_place"), (verifier, "_solve_in_place"),
                         (verifier, "_product")):
        recording(module, name)
    plan = select_scheme(SystemConfig(*shape), allow_special_cases=special)
    assert per_trial_certification(plan, trials=50, seed=1).ok
    callers = {caller for caller, *_ in seen}
    assert {"dofbc.verifier._product", "dofbc.precoding._solve_in_place"} <= callers
    assert ("dofbc.verifier._solve_in_place" in callers) == special  # the coupled fixed point
    for _, call, operands in seen:
        compiled_out = _entry_outcome(call, operands)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(gf, "_KERNEL", None)
            assert _same(compiled_out, _entry_outcome(call, operands))


def _entry_outcome(call, operands):
    """What a private entry makes of copies of `operands`: its result, the
    stack it solved in place, or the type of the exception it raised."""
    operands = [a.copy() for a in operands]
    try:
        out = call(*operands)
    except (ResampleRequiredError, ValueError) as exc:
        return type(exc)
    return operands[0] if out is None else out


@st.composite
def private_entry_stacks(draw):
    """Operands of `gf._product` and `gf._solve_in_place`: a leading shape
    (possibly of size zero), a reduced product pair, and an augmented stack
    with entries anywhere in (-p, p), one member possibly singular."""
    lead = tuple(draw(st.lists(st.integers(0, 3), max_size=2)))
    rows, inner, cols, n, rhs = (draw(st.integers(0, 5)) for _ in range(5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(KINDS.filter(lambda kind: kind != "unreduced"))
    a = _entries(rng, lead + (rows, inner), kind)
    b = _entries(rng, lead + (inner, cols), kind)
    aug = _entries(rng, lead + (n, n + rhs), kind)
    if draw(st.booleans()):  # negated entries, as an AP-ZF right-hand side: (-p, 0]
        aug[..., n:] *= -1
    if draw(st.booleans()):  # any sign anywhere
        aug = np.where(rng.random(aug.shape) < 0.5, -aug, aug)
    if n and aug.size and draw(st.booleans()):  # one member's column zero
        member = tuple(int(rng.integers(size)) for size in lead)
        aug[member + (Ellipsis, int(rng.integers(n)))] = 0
    return np.ascontiguousarray(a), np.ascontiguousarray(b), np.ascontiguousarray(aug)


def _solved_or_raised(solve, aug):
    """The stack `solve` leaves in a copy of `aug`, or ResampleRequiredError."""
    aug = aug.copy()
    try:
        solve(aug)
    except ResampleRequiredError:
        return ResampleRequiredError
    return aug[..., aug.shape[-2] :]


@settings(max_examples=300, deadline=None)
@given(case=private_entry_stacks(), compiled_kernel=st.booleans())
@example(case=(np.zeros((0, 2, 3), np.int64), np.zeros((0, 3, 2), np.int64),
               np.zeros((0, 2, 3), np.int64)), compiled_kernel=True)
@example(case=(np.ones((2, 0), np.int64), np.ones((0, 3), np.int64),
               np.zeros((0, 1), np.int64)), compiled_kernel=True)
def test_private_entries_equal_numpy_kernels(case, compiled_kernel):
    # `_product` and `_solve_in_place` equal `_matmul` and `_solve` on the
    # inputs realizing gives them, with and without the compiled kernel.
    a, b, aug = case
    with pytest.MonkeyPatch.context() as patch:
        if not compiled_kernel:
            patch.setattr(gf, "_KERNEL", None)
        for x in (a, b):  # read-only factors are read, never written
            x.setflags(write=False)
        got = gf._product(a, b)
        want = gf._matmul(a, b)
        assert got.dtype == want.dtype and got.shape == want.shape and np.array_equal(got, want)
        assert got.flags.c_contiguous and got.flags.writeable
        if aug.size:  # `_solve` takes one (members, n, n + m) stack
            want_solved = _solved_or_raised(lambda x: gf._solve(x.reshape((-1,) + x.shape[-2:])), aug)
        else:
            want_solved = aug[..., aug.shape[-2] :]
        got_solved = _solved_or_raised(gf._solve_in_place, aug)
        assert _same(got_solved, want_solved)
        if not isinstance(got_solved, type):
            assert ((0 <= got_solved) & (got_solved < P)).all()


class _Unreachable:
    """A stand-in kernel whose every function fails the test if called."""

    def __getattr__(self, name):
        raise AssertionError(f"the kernel's {name} was reached")


@pytest.mark.parametrize("compiled_kernel", [True, False])
def test_private_entries_reject_operands_the_kernels_cannot_take(monkeypatch, compiled_kernel):
    # An operand that is not C-ordered or not int64, or a read-only stack
    # that would be solved in place, raises before any kernel reads it.
    monkeypatch.setattr(gf, "_KERNEL", _Unreachable() if compiled_kernel else None)
    good = np.arange(1, 13, dtype=np.int64).reshape(3, 4) % 7
    read_only = good.copy()
    read_only.setflags(write=False)
    strided = np.repeat(good, 2, axis=1)[:, ::2]
    for bad in (np.asfortranarray(good), strided, good.astype(np.int32), good.astype(np.float64),
                good.astype(">i8")):
        assert bad.shape == (3, 4) and np.array_equal(bad, good)
        with pytest.raises(ValueError):
            gf._product(bad, np.ones((4, 2), dtype=np.int64))
        with pytest.raises(ValueError):
            gf._product(np.ones((2, 3), dtype=np.int64), bad)
        with pytest.raises(ValueError):
            gf._solve_in_place(bad)
    with pytest.raises(ValueError):
        gf._solve_in_place(read_only)
    with pytest.raises(ValueError):  # more rows than columns: no square system
        gf._solve_in_place(good.T.copy())
    with pytest.raises(ValueError):  # inner dimensions differ
        gf._product(good, good)


def test_realize_rejects_operands_the_kernel_cannot_take(monkeypatch):
    # A plan's realize program reaches the kernel only with C-ordered int64
    # gains and writable C-ordered int64 outputs of matching shapes; a
    # kernel that finds no room for its form row raises MemoryError.
    plan = select_scheme(SystemConfig(4, 1, 3, 2))  # T = 2 slots, N1 = 1, N2 = 3
    program, columns = plan.layout.program, plan.layout.template.shape[1]
    gains = np.ones((3, 4, columns), dtype=np.int64)
    A1, A2 = np.zeros((3, 2, 7), dtype=np.int64), np.zeros((3, 6, 7), dtype=np.int64)
    monkeypatch.setattr(gf, "_KERNEL", _Unreachable())
    read_only = A1.copy()
    read_only.setflags(write=False)
    for bad in (read_only, np.asfortranarray(A1), np.zeros((3, 2, 14), dtype=np.int64)[..., ::2],
                A1.astype(np.int32)):
        assert bad.shape == A1.shape
        with pytest.raises(ValueError, match="C-ordered int64"):
            gf._realize(program, gains, 1, bad, A2)
        with pytest.raises(ValueError, match="C-ordered int64"):
            gf._realize(program, gains, 1, A2[:, :2], bad)
    with pytest.raises(ValueError, match="C-ordered int64"):
        gf._realize(program, np.asfortranarray(gains[0]), 1, A1[0], A2[0])

    def zeros(*shape):
        return np.zeros(shape, dtype=np.int64)

    for args in ((gains, 2, A1, A2), (gains, 1, zeros(3, 1, 7), A2), (gains, 1, A1, zeros(3, 5, 7)),
                 (gains[:2], 1, A1, A2), (gains, 1, zeros(3, 2, 6), A2), (gains, 1, A1[0], A2[0]),
                 (gains, 0, A1, A2), (gains, 4, A1, A2)):
        with pytest.raises(ValueError, match="^cannot realize"):
            gf._realize(program, *args)

    class NoRoom:
        def gf_realize(self, *args):
            return -1

    monkeypatch.setattr(gf, "_KERNEL", NoRoom())
    with pytest.raises(MemoryError):
        gf._realize(program, gains, 1, A1, A2)


def test_certify_rejects_operands_the_kernel_cannot_take(monkeypatch):
    # A plan's program reaches the kernel only with a C-ordered int64 stack
    # of channels, which may be read-only, and writable C-ordered int64
    # outputs of matching shapes; a kernel that finds no room for its
    # scratch rows raises MemoryError, and a singular AP-ZF block
    # ResampleRequiredError.
    plan = select_scheme(SystemConfig(4, 1, 3, 2))  # N1 = 1, N2 = 3, M = 4
    program, template = plan.layout.program, plan.layout.template.shape
    H = np.ones((3, 4, 4), dtype=np.int64)
    H.setflags(write=False)
    columns = np.zeros((3, *template), dtype=np.int64)
    recovered = np.zeros((2, 2), dtype=np.int64)
    monkeypatch.setattr(gf, "_KERNEL", _Unreachable())
    with pytest.raises(AssertionError, match="gf_certify was reached"):
        gf._certify(program, H, 1, columns, recovered)

    def bad_layouts(a):
        """`a` as a read-only, a Fortran-ordered, a strided and an int32
        array of its shape."""
        read_only = a.copy()
        read_only.setflags(write=False)
        strided = np.zeros(a.shape[:-1] + (2 * a.shape[-1],), dtype=np.int64)[..., ::2]
        return read_only, np.asfortranarray(a), strided, a.astype(np.int32)

    for bad in bad_layouts(columns):
        assert bad.shape == columns.shape
        with pytest.raises(ValueError, match="C-ordered int64"):
            gf._certify(program, H, 1, bad, recovered)
    for bad in bad_layouts(recovered):
        assert bad.shape == recovered.shape
        with pytest.raises(ValueError, match="C-ordered int64"):
            gf._certify(program, H, 1, columns, bad)
    for bad in bad_layouts(np.ones((3, 4, 4), dtype=np.int64))[1:]:
        with pytest.raises(ValueError, match="C-ordered int64"):
            gf._certify(program, bad, 1, columns, recovered)

    def zeros(*shape):
        return np.zeros(shape, dtype=np.int64)

    for args in ((H, 0, columns, recovered), (H, 4, columns, recovered),
                 (H, 1, columns[:2], recovered), (H[:2], 1, columns, recovered),
                 (H, 1, zeros(3, 5, template[1]), recovered), (H, 1, zeros(3, 4, 3), recovered),
                 (H, 1, columns, zeros(4, 2)), (H, 1, columns, zeros(0, 2)), (H, 1, columns, zeros(2, 3)),
                 (H, 1, columns, zeros(4)), (H[0], 1, columns, zeros(1, 2))):
        with pytest.raises(ValueError, match="^cannot certify"):
            gf._certify(program, *args)

    class Returning:
        def __init__(self, status):
            self.status = status

        def gf_certify(self, *args):
            return self.status

    monkeypatch.setattr(gf, "_KERNEL", Returning(-1))
    with pytest.raises(MemoryError):
        gf._certify(program, H, 1, columns, recovered)
    monkeypatch.setattr(gf, "_KERNEL", Returning(1))
    with pytest.raises(ResampleRequiredError):
        gf._certify(program, H, 1, columns, recovered)
    monkeypatch.setattr(gf, "_KERNEL", Returning(0))
    gf._certify(program, H[0], 1, columns[0], recovered[:1])  # one 2-D channel


def _kernel_names(directory):
    return sorted(path.name for path in directory.iterdir())


def _fake_compiler(path, body):
    path.write_text("#!/bin/sh\n" + body)
    path.chmod(0o755)
    return str(path)


def test_kernel_loader_falls_back_without_leaving_files(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    assert gf._load_kernel(out, "dofbc-no-such-compiler") is None
    assert gf._load_kernel(tmp_path / "missing", "cc") is None
    assert gf._load_kernel(out, "false") is None  # the compile fails
    writes_junk = 'while [ $# -gt 0 ]; do [ "$1" = -o ] && echo junk > "$2"; shift; done\n'
    assert gf._load_kernel(out, _fake_compiler(tmp_path / "junk-cc", writes_junk)) is None  # dlopen fails
    assert _kernel_names(out) == []
    assert _kernel_names(tmp_path) == ["junk-cc", "out"]


def test_kernel_loader_gives_up_on_a_slow_compile(tmp_path, monkeypatch):
    monkeypatch.setattr(gf, "_COMPILE_TIMEOUT_S", 0.2)
    out = tmp_path / "out"
    out.mkdir()
    assert gf._load_kernel(out, _fake_compiler(tmp_path / "slow-cc", "exec sleep 3\n")) is None
    assert _kernel_names(out) == []


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_kernel_loader_builds_once_and_reuses_the_file(tmp_path):
    kernel = gf._load_kernel(tmp_path, "cc")
    (name,) = _kernel_names(tmp_path)
    prefix = f"_gfkernel-{gf._MACHINE}-"
    assert name.startswith(prefix) and name.endswith(".so") and len(name) == len(prefix + ".so") + 16
    built = os.stat(tmp_path / name)
    assert gf._load_kernel(tmp_path, "cc") is not None
    assert os.stat(tmp_path / name).st_mtime_ns == built.st_mtime_ns
    A = np.array([[0, 2, 4], [0, 1, 2], [0, 0, 3]], dtype=np.int64)
    pivots = (ctypes.c_int64 * 3)()
    assert pivots[: kernel.gf_pivots(A.ctypes.data, 3, 3, pivots)] == [1, 2]
    stack, out = np.stack([A, np.eye(3, dtype=np.int64)]), (ctypes.c_int64 * 4)()
    assert kernel.gf_ranks(stack.ctypes.data, 2, 3, 3, 2, out) == 0
    assert out[:] == [2, 3, 1, 2]
    # A file of that name that is not a library is not loaded, and is left alone.
    other = tmp_path / "other"
    other.mkdir()
    (other / name).write_bytes(b"junk")
    assert gf._load_kernel(other, "cc") is None
    assert _kernel_names(other) == [name]


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_kernel_build_removes_stale_kernels_only(tmp_path):
    # A build removes the kernels of other sources (16 hex digits) for its
    # machine type beside its own, and those named without a machine type,
    # but not another machine's kernel, another build's temporary file or
    # any other name.
    machine = gf._MACHINE
    other = "riscv64" if machine != "riscv64" else "s390x"
    stale = [f"_gfkernel-{machine}-0123456789abcdef.so", "_gfkernel-0123456789abcdef.so"]
    kept = [f"_gfkernel-{other}-0123456789abcdef.so", f"_gfkernel-{machine}-0123456789abcdef-k2j4x9_q.so",
            "_gfkernel-0123456789abcdef-k2j4x9_q.so", f"_gfkernel-{machine}-0123456789ABCDEF.so",
            f"_gfkernel-{machine}-0123456789abcde.so", f"_gfkernel-{machine}-0123456789abcdef.so.bak",
            "_gfkernel.c"]
    for name in (*stale, *kept):
        (tmp_path / name).write_bytes(b"old")
    assert gf._load_kernel(tmp_path, "cc") is not None
    (built,) = set(_kernel_names(tmp_path)) - set(kept)
    assert built not in stale and _kernel_names(tmp_path) == sorted([built, *kept])
    # Loading a kernel that is already built removes nothing.
    for name in stale:
        (tmp_path / name).write_bytes(b"old")
    assert gf._load_kernel(tmp_path, "cc") is not None
    assert _kernel_names(tmp_path) == sorted([built, *stale, *kept])


@pytest.mark.filterwarnings("error")
def test_numpy_fallback_certifies_identically(monkeypatch):
    plans = [select_scheme(cfg) for cfg in list(tight_regime_grid())[::25]]
    plans += [select_scheme(SystemConfig(9, 3, 6, 4))]
    plans += [select_scheme(cfg) for cfg in list(low_k_grid())[::150]]
    plans += [select_scheme(SystemConfig(6, 3, 3, 1), allow_special_cases=True)]  # solves a fixed point
    plans += [adversarial_plan(), overloaded_rx2_plan()]
    results = [achieved_dof(plan, trials=5, seed=3) for plan in plans]
    assert results[-1].first_failure_report is not None
    monkeypatch.setattr(gf, "_KERNEL", None)
    assert [achieved_dof(plan, trials=5, seed=3) for plan in plans] == results
