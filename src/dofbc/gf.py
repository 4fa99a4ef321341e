"""Exact linear algebra over a prime field GF(p), vectorized with numpy.

Rank certificates for generic channels are computed here: a random matrix
over a large prime field avoids every fixed measure-zero degeneracy except
with probability on the order of (matrix degree)/p, so exact elimination
mod p stands in for "generic position" arguments without any floating-point
tolerance.

The default prime is the Mersenne prime 2^31 - 1.  All arrays are int64 in
[0, p); any p < 2^31 is accepted, so a product of two entries, and the
difference of two such products, stays within int64 and the kernels are
whole-array int64 operations.

The matrices met in certification are small (tens of rows), so the cost of
a numpy elimination is the number of numpy calls per pivot.  There are three
kernels, each one pass over the columns:

* `_eliminate` finds only the pivot columns of one matrix.  Per pivot it
  updates every row below the pivot, whole and fraction-free: each row is
  multiplied by the (nonzero) pivot before the pivot row times the row's
  entry is subtracted.  Whole rows are contiguous, and row operations keep
  the row space, so no inverse is needed and no rank of leading columns
  changes.  `gf_pivots` and `gf_rank` run the same elimination compiled,
  from `_gfkernel.c`, and `_eliminate` is its fallback and its test oracle.
* `gf_rref` (behind `gf_particular_solution`) is Gauss-Jordan: per pivot it
  normalises the pivot row and clears the pivot column above and below in
  one outer-product update.
* `gf_solve` runs the same Gauss-Jordan on a stack of square systems at
  once, whose pivots are the diagonal unless a member is singular.

The reduced row echelon form and the pivot columns of a matrix are unique,
so none of the kernels' shortcuts can change a result.

The compiled kernel is built on first import: `_load_kernel` compiles
`_gfkernel.c` with `cc -O2 -shared -fPIC` into `_gfkernel-<tag>.so` next to
this file, where the tag hashes the source, the command and the machine
type, and every later import loads that file through ctypes.  If there is
no compiler, the directory is not writable, or the build or the load fails,
`_KERNEL` is None and `gf_pivots` runs `_eliminate`; nothing is raised and
no file is left behind.  Both give the same pivots.  The C code keeps each
entry as a representative in (-p, p), not [0, p), so each product is below
2^62 in magnitude and the difference of two of them still fits in int64; it
reduces through a quotient rounded in double precision, which is within one
of the exact quotient, rather than through an integer division.
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import platform
from pathlib import Path

import numpy as np

from .errors import ResampleRequiredError

DEFAULT_PRIME = 2**31 - 1

_SPLIT = 16  # matmul splits one factor into 16-bit limbs to avoid overflow
_MAX_INNER = 2**16  # largest inner dimension whose limb sums fit int64


def _check_prime(p: int):
    if p >= 2**31:
        raise ValueError("prime too large for int64 arithmetic (need p < 2^31)")


def gf_array(values, p: int = DEFAULT_PRIME) -> np.ndarray:
    """Coerce to a fresh int64 array reduced into [0, p)."""
    _check_prime(p)
    return np.asarray(values, dtype=np.int64) % p


def gf_matmul(A: np.ndarray, B: np.ndarray, p: int = DEFAULT_PRIME) -> np.ndarray:
    """(A @ B) mod p without overflow, via 16-bit limb splitting of B.

    With n the inner dimension, the high-limb product is reduced mod p before
    it is shifted back, so the one unreduced sum is at most
    (p-1)(2^16-1) n + (p-1) 2^16, which is (p-1) 2^32 < 2^63 at n = 2^16;
    larger inner dimensions are rejected.
    """
    A = gf_array(A, p)
    B = gf_array(B, p)
    if A.shape[-1] > _MAX_INNER:
        raise ValueError(f"inner dimension {A.shape[-1]} exceeds {_MAX_INNER}")
    out = A @ (B >> _SPLIT)
    out %= p
    out <<= _SPLIT
    out += A @ (B & ((1 << _SPLIT) - 1))
    out %= p
    return out


def _pivot_row(A: np.ndarray, r: int, c: int) -> bool:
    """Make A[r, c] nonzero, swapping in the first row below r with a nonzero
    in column c (basic slices, whole rows); False if there is no such row."""
    if A[r, c]:
        return True
    nz = A[r + 1 :, c].nonzero()[0]
    if nz.size == 0:
        return False
    i = r + 1 + int(nz[0])
    row = A[i].copy()
    A[i] = A[r]
    A[r] = row
    return True


def _eliminate(A: np.ndarray, p: int) -> list[int]:
    """Pivot columns of A, eliminating in place (or in a trimmed copy).

    Each pivot updates the whole rows below it, which are contiguous.  No
    later step reads the columns left of the pivot, so their entries are
    left as the row operations make them, and once those dead columns
    outnumber the live ones they are cut off, with the finished rows, in
    one copy.
    """
    rows, cols = A.shape
    pivots: list[int] = []
    top = base = 0  # rows and columns of the input cut from A
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        if c - base > cols - c:
            A = A[r - top :, c - base :].copy()
            top, base = r, c
        i, j = r - top, c - base
        if not _pivot_row(A, i, j):
            continue
        pivots.append(c)
        below = A[i + 1 :]
        if below.size:
            products = below[:, j, None] * A[i]
            below *= A[i, j]
            below -= products
            below %= p
    return pivots


_COMPILE = ("-O2", "-shared", "-fPIC")  # no -march=native: the built file may move to another CPU
_COMPILE_TIMEOUT_S = 120


def _load_kernel(directory: Path, compiler: str = "cc"):
    """The compiled `gf_pivots` of `_gfkernel.c`, built into `directory` if
    it is not there yet, or None if it cannot be built or loaded."""
    source = Path(__file__).with_name("_gfkernel.c")
    command = (compiler, *_COMPILE)
    try:
        digest = hashlib.sha256(source.read_bytes())
        digest.update(" ".join(command).encode())
        digest.update(platform.machine().encode())
        target = Path(directory) / f"_gfkernel-{digest.hexdigest()[:16]}.so"
        if target.exists():
            kernel = ctypes.CDLL(str(target)).gf_pivots
        else:
            kernel = _build(source, command, target)
    except (OSError, AttributeError):  # no source or directory, a failed dlopen, no such symbol
        return None
    if kernel is not None:
        int64 = ctypes.c_int64
        kernel.argtypes = (ctypes.c_void_p, int64, int64, int64, ctypes.POINTER(int64))
        kernel.restype = int64
    return kernel


def _build(source: Path, command: tuple[str, ...], target: Path):
    """Compile `source` into a temporary file beside `target`, load it, and
    only then rename it to `target`, so processes importing at once never
    load a partial file.  A build that fails or does not load leaves no file
    and gives None."""
    import subprocess
    import tempfile

    handle, tmp = tempfile.mkstemp(prefix=target.stem + "-", suffix=".so", dir=target.parent)
    os.close(handle)
    try:
        subprocess.run([*command, "-o", tmp, str(source)], check=True, capture_output=True,
                       timeout=_COMPILE_TIMEOUT_S)
        os.chmod(tmp, 0o755)  # mkstemp made it private to this user
        kernel = ctypes.CDLL(tmp).gf_pivots
        os.replace(tmp, target)
    except (OSError, AttributeError, subprocess.SubprocessError):
        os.unlink(tmp)
        return None
    return kernel


_KERNEL = _load_kernel(Path(__file__).parent)


def gf_pivots(A: np.ndarray, p: int = DEFAULT_PRIME) -> list[int]:
    """Pivot columns of A's row echelon form over GF(p).

    Elimination runs left to right, so the pivots among the first c columns
    number the rank of A[:, :c].  The compiled kernel eliminates a reduced
    C-ordered copy of A, never A itself, and writes at most min(rows, cols)
    pivots into a buffer sized from that copy's shape.
    """
    A = gf_array(A, p)
    if A.ndim != 2:
        raise ValueError(f"gf_pivots expects a 2-D matrix, got {A.ndim} dimensions")
    if _KERNEL is None:
        return _eliminate(A, p)
    A = np.ascontiguousarray(A)
    rows, cols = A.shape
    pivots = (ctypes.c_int64 * max(min(rows, cols), 1))()
    return pivots[: _KERNEL(A.ctypes.data, rows, cols, int(p), pivots)]


def gf_rank(A: np.ndarray, p: int = DEFAULT_PRIME) -> int:
    """Exact rank of A over GF(p)."""
    return len(gf_pivots(A, p))


def gf_rref(A: np.ndarray, p: int = DEFAULT_PRIME) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form and pivot columns (one Gauss-Jordan pass)."""
    A = gf_array(A, p)
    rows, cols = A.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        if not _pivot_row(A, r, c):
            continue
        row = A[r, c:]
        row *= pow(int(row[0]), -1, p)
        row %= p
        factors = A[:, c].copy()
        factors[r] = 0
        right = A[:, c:]
        right -= factors[:, None] * row
        right %= p
        pivots.append(c)
        r += 1
    return A, pivots


def gf_solve(A: np.ndarray, B: np.ndarray, p: int = DEFAULT_PRIME) -> np.ndarray:
    """Solve A X = B for square nonsingular A over GF(p).

    A may stack systems on leading axes, (..., n, n), with B (..., n) or
    (..., n, m); one Gauss-Jordan pass solves them all, each member exactly
    as it would be solved alone.  Raises ResampleRequiredError if any member
    is singular, since in this package a singular square system always means
    a degenerate channel draw.
    """
    A = gf_array(A, p)
    B = gf_array(B, p)
    n = A.shape[-1]
    if A.ndim < 2 or A.shape[-2] != n:
        raise ValueError("gf_solve expects a square matrix")
    single = B.ndim == A.ndim - 1
    rhs = B[..., None] if single else B
    if rhs.shape[:-1] != A.shape[:-1]:
        raise ValueError("right-hand side has incompatible shape")
    lead = A.shape[:-2]
    aug = np.concatenate([A, rhs], axis=-1).reshape((math.prod(lead), n, n + rhs.shape[-1]))
    for c in range(n):
        diagonal = aug[:, c, c].tolist()
        for member, entry in enumerate(diagonal):
            if not entry:
                if not _pivot_row(aug[member], c, c):
                    raise ResampleRequiredError("singular system over GF(p)")
                diagonal[member] = int(aug[member, c, c])
        row = aug[:, c, c:]
        row *= np.array([pow(entry, -1, p) for entry in diagonal], dtype=np.int64)[:, None]
        row %= p
        factors = aug[:, :, c].copy()
        factors[:, c] = 0
        right = aug[:, :, c:]
        right -= factors[:, :, None] * row[:, None, :]
        right %= p
    X = aug[:, :, n:].reshape(rhs.shape)
    return X[..., 0] if single else X


def gf_particular_solution(A: np.ndarray, B: np.ndarray, p: int = DEFAULT_PRIME) -> np.ndarray:
    """One solution X of A X = B (B a vector or one right-hand side per
    column) with all free variables set to zero.

    Raises ResampleRequiredError unless A has full row rank, which also
    makes the system consistent.  No plan solves a wide system: AP-ZF
    cancellation uses the square `gf_solve`.
    """
    A = gf_array(A, p)
    B = gf_array(B, p)
    rows, cols = A.shape
    single = B.ndim == 1
    rhs = B[:, None] if single else B
    aug, pivots = gf_rref(np.hstack([A, rhs]), p)
    if sum(c < cols for c in pivots) < rows:
        raise ResampleRequiredError("rank-deficient system over GF(p)")
    X = np.zeros((cols, rhs.shape[1]), dtype=np.int64)
    X[pivots] = aug[:rows, cols:]
    return X[:, 0] if single else X
