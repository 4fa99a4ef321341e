import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dofbc.errors import ResampleRequiredError
from dofbc.gf import (
    DEFAULT_PRIME,
    gf_array,
    gf_matmul,
    gf_particular_solution,
    gf_pivots,
    gf_rank,
    gf_rref,
    gf_solve,
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
    assert gf_rank(gf_array([[1, P + 3], [P + 2, 2]]), P) == 2
    assert gf_rank(gf_array([[1, P + 1], [P + 2, 2]]), P) == 1  # reduces to [[1,1],[2,2]]


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
    R, pivots = gf_rref(A)
    free = [c for c in range(3) if c not in pivots]
    assert all(x[c] == 0 for c in free)


def test_large_prime_rejected():
    with pytest.raises(ValueError):
        gf_array([1], p=2**62 + 1)
    with pytest.raises(ValueError):
        gf_array([1], p=2**31 + 11)  # prime, but products overflow matmul's limbs


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


@settings(max_examples=300, deadline=None)
@given(
    p=st.sampled_from([2, 7, P]),
    rows=st.integers(0, 7),
    cols=st.integers(0, 8),
    inner=st.integers(0, 8),
    rhs_cols=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
@example(p=P, rows=0, cols=4, inner=2, rhs_cols=1, seed=0)
@example(p=P, rows=4, cols=0, inner=2, rhs_cols=1, seed=0)
@example(p=P, rows=5, cols=5, inner=5, rhs_cols=2, seed=0)
@example(p=P, rows=3, cols=7, inner=3, rhs_cols=1, seed=0)
@example(p=7, rows=6, cols=6, inner=2, rhs_cols=2, seed=1)
@example(p=7, rows=5, cols=5, inner=5, rhs_cols=1, seed=46)  # zeros at pivots 1 and 2: row swaps
@example(p=2, rows=4, cols=8, inner=3, rhs_cols=1, seed=141)  # dead columns cut before pivots 5, 6
def test_kernels_equal_python_int_gauss_jordan(p, rows, cols, inner, rhs_cols, seed):
    # Products of thin factors are rank deficient when inner < min(rows, cols);
    # adding multiples of p leaves entries negative or >= p, i.e. unreduced.
    rng = np.random.default_rng(seed)
    A = gf_matmul(rng.integers(0, p, (rows, inner)), rng.integers(0, p, (inner, cols)), p)
    A = A + p * rng.integers(-2, 3, A.shape)
    B = rng.integers(0, p, (rows, rhs_cols)) + p * rng.integers(-2, 3, (rows, rhs_cols))

    R_want, pivots_want = rref_oracle(A.tolist(), p)
    assert gf_pivots(A, p) == pivots_want
    assert gf_rank(A, p) == len(pivots_want)
    R, pivots = gf_rref(A, p)
    assert pivots == pivots_want
    assert np.array_equal(R, np.array(R_want, dtype=np.int64).reshape(rows, cols))
    for r, c in enumerate(pivots):
        assert np.array_equal(R[:, c], np.eye(rows, dtype=np.int64)[r])

    # The RREF of [A | B] carries the solutions in its right-hand columns.
    aug_want, aug_pivots = rref_oracle(np.hstack([A, B]).tolist(), p)
    if len(pivots_want) == rows:
        X = np.zeros((cols, rhs_cols), dtype=np.int64)
        X[pivots_want] = np.array(aug_want, dtype=np.int64).reshape(rows, cols + rhs_cols)[:, cols:]
        assert np.array_equal(gf_particular_solution(A, B, p), X)
    else:
        with pytest.raises(ResampleRequiredError):
            gf_particular_solution(A, B, p)

    n = min(rows, cols)
    square = A[:n, :n]
    sq_want, sq_pivots = rref_oracle(np.hstack([square, B[:n]]).tolist(), p)
    if sq_pivots[:n] == list(range(n)):
        X = np.array(sq_want, dtype=np.int64).reshape(n, n + rhs_cols)[:, n:]
        assert np.array_equal(gf_solve(square, B[:n], p), X)
    else:
        with pytest.raises(ResampleRequiredError):
            gf_solve(square, B[:n], p)


@settings(max_examples=150, deadline=None)
@given(
    p=st.sampled_from([2, 7, P]),
    members=st.integers(1, 4),
    n=st.integers(0, 5),
    rhs_cols=st.one_of(st.none(), st.integers(0, 3)),
    planted=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(p=P, members=3, n=4, rhs_cols=2, planted=False, seed=0)
@example(p=P, members=3, n=4, rhs_cols=None, planted=True, seed=0)
def test_stacked_solve_equals_per_member_solve(p, members, n, rhs_cols, planted, seed):
    # A stack solves each member as it would be solved alone, and raises if
    # any member is singular; `planted` zeroes a column of one member.
    rng = np.random.default_rng(seed)
    A = rng.integers(0, p, (members, n, n)) + p * rng.integers(-2, 3, (members, n, n))
    B = rng.integers(0, p, (members, n) if rhs_cols is None else (members, n, rhs_cols))
    if planted and n:
        A[rng.integers(members), :, rng.integers(n)] = 0
    alone = []
    for member in range(members):
        try:
            alone.append(gf_solve(A[member], B[member], p))
        except ResampleRequiredError:
            alone.append(None)
    if any(X is None for X in alone):
        with pytest.raises(ResampleRequiredError):
            gf_solve(A, B, p)
    else:
        X = gf_solve(A, B, p)
        assert X.shape == B.shape
        assert np.array_equal(X, np.stack(alone))
