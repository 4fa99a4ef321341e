import ctypes
import os
import shutil

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dofbc import gf, verifier
from dofbc.config import SystemConfig
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
from dofbc.schemes import select_scheme
from dofbc.verifier import achieved_dof

from .helpers import adversarial_plan, low_k_grid, overloaded_rx2_plan, tight_regime_grid
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


compiled = pytest.mark.skipif(gf._KERNEL is None, reason="the compiled rank kernel is not loaded")


def _oracle_pivots(A, p=P):
    return gf._eliminate(gf_array(A, p), p)


@st.composite
def planted_matrices(draw):
    """A matrix over GF(p) with planted degeneracies, and p."""
    p = draw(st.sampled_from([2, 3, 65521, P]))
    rows, cols = draw(st.integers(0, 14)), draw(st.integers(0, 14))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):  # 0, 1 and p - 1 only: many zero pivots and row swaps
        A = rng.choice(np.array([0, 1, p - 1]), (rows, cols))
    else:
        A = rng.integers(0, p, (rows, cols))
    if rows and cols:
        if draw(st.booleans()):  # thin product: rank below min(rows, cols)
            inner = int(rng.integers(0, min(rows, cols)))
            A = gf_matmul(rng.integers(0, p, (rows, inner)), rng.integers(0, p, (inner, cols)), p)
        if draw(st.booleans()):
            A[:, rng.integers(cols, size=rng.integers(1, cols + 1))] = 0
        if rows > 1 and draw(st.booleans()):
            A[rng.integers(1, rows)] = A[rng.integers(rows)]
        if draw(st.booleans()):
            A[rng.random((rows, cols)) < 0.3] = p - 1
    if draw(st.booleans()):
        A = np.zeros_like(A)
    return A, p


def _laid_out(A, layout):
    if layout == "fortran":
        return np.asfortranarray(A)
    if layout == "strided":
        rows, cols = A.shape
        big = np.full((2 * rows, 3 * cols), -1, dtype=np.int64)
        big[::2, ::3] = A
        return big[::2, ::3]
    return A


@compiled
@settings(max_examples=400, deadline=None)
@given(case=planted_matrices(), layout=st.sampled_from(["c", "fortran", "strided"]))
def test_compiled_pivots_equal_numpy_elimination(case, layout):
    A, p = case
    A = _laid_out(A, layout)
    before = A.copy()
    assert gf_pivots(A, p) == _oracle_pivots(A, p)
    assert np.array_equal(A, before)  # the kernel eliminates a copy


@compiled
@pytest.mark.parametrize("p", [2, 3, 65521, P])
@pytest.mark.parametrize("shape", [(0, 0), (0, 5), (5, 0), (1, 1), (1, 9), (9, 1), (12, 12), (40, 60)])
def test_compiled_pivots_on_edge_shapes(p, shape):
    rng = np.random.default_rng(sum(shape))
    for A in (np.zeros(shape, dtype=np.int64), np.full(shape, p - 1), rng.integers(0, p, shape),
              rng.integers(-(2**40), 2**40, shape)):
        assert gf_pivots(A, p) == _oracle_pivots(A, p)
        assert gf_pivots(A.T, p) == _oracle_pivots(A.T, p)


def test_pivots_reject_arrays_that_are_not_matrices():
    for A in (np.int64(3), np.ones(4, dtype=np.int64), np.ones((2, 3, 4), dtype=np.int64)):
        with pytest.raises(ValueError, match="2-D"):
            gf_pivots(A)


@compiled
def test_compiled_pivots_equal_numpy_on_a_certification(monkeypatch):
    # Every matrix that certifying the largest criterion-3 plan ranks.
    seen = []

    def recording(A, p):
        seen.append((A.copy(), p))
        return gf_pivots(A, p)

    monkeypatch.setattr(verifier, "gf_pivots", recording)
    assert achieved_dof(select_scheme(SystemConfig(10, 1, 9, 1)), trials=50, seed=1).ok
    assert len(seen) == 100
    for A, p in seen:
        assert gf_pivots(A, p) == _oracle_pivots(A, p)


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
    assert name.startswith("_gfkernel-") and name.endswith(".so") and len(name) == len("_gfkernel-.so") + 16
    built = os.stat(tmp_path / name)
    assert gf._load_kernel(tmp_path, "cc") is not None
    assert os.stat(tmp_path / name).st_mtime_ns == built.st_mtime_ns
    A = np.array([[0, 2, 4], [0, 1, 2], [0, 0, 3]], dtype=np.int64)
    pivots = (ctypes.c_int64 * 3)()
    assert pivots[: kernel(A.ctypes.data, 3, 3, P, pivots)] == [1, 2]
    # A file of that name that is not a library is not loaded, and is left alone.
    other = tmp_path / "other"
    other.mkdir()
    (other / name).write_bytes(b"junk")
    assert gf._load_kernel(other, "cc") is None
    assert _kernel_names(other) == [name]


def test_numpy_fallback_certifies_identically(monkeypatch):
    plans = [select_scheme(cfg) for cfg in list(tight_regime_grid())[::25]]
    plans += [select_scheme(cfg) for cfg in list(low_k_grid())[::150]]
    plans += [adversarial_plan(), overloaded_rx2_plan()]
    results = [achieved_dof(plan, trials=5, seed=3) for plan in plans]
    assert results[-1].first_failure_report is not None
    monkeypatch.setattr(gf, "_KERNEL", None)
    assert [achieved_dof(plan, trials=5, seed=3) for plan in plans] == results
