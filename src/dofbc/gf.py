"""Exact linear algebra over a prime field GF(p), vectorized with numpy.

Rank certificates for generic channels are computed here: a random matrix
over a large prime field avoids every fixed measure-zero degeneracy except
with probability on the order of (matrix degree)/p, so exact elimination
mod p stands in for "generic position" arguments without any floating-point
tolerance.

The default prime is the Mersenne prime 2^31 - 1.  All arrays are int64 in
[0, p); with p < 2^31 every intermediate product (p-1)^2 < 2^62 fits int64,
which keeps the elimination fully vectorized.  Any prime with p^2 < 2^63 is
accepted.
"""

from __future__ import annotations

import numpy as np

from .errors import ResampleRequiredError

DEFAULT_PRIME = 2**31 - 1

_SPLIT = 16  # matmul splits one factor into 16-bit limbs to avoid overflow
_MAX_INNER = 2**16  # largest inner dimension whose limb sums fit int64


def _check_prime(p: int):
    if p * p >= 2**63:
        raise ValueError("prime too large for int64 arithmetic (need p^2 < 2^63)")


def gf_array(values, p: int = DEFAULT_PRIME) -> np.ndarray:
    """Coerce to an int64 array reduced into [0, p)."""
    _check_prime(p)
    return np.asarray(values, dtype=np.int64) % p


def gf_matmul(A: np.ndarray, B: np.ndarray, p: int = DEFAULT_PRIME) -> np.ndarray:
    """(A @ B) mod p without overflow, via 16-bit limb splitting of B.

    Each limb product is below p * 2^16 < 2^47, so sums stay exact in int64
    for an inner dimension of at most 2^16; larger products are rejected.
    """
    A = gf_array(A, p)
    B = gf_array(B, p)
    if A.shape[-1] > _MAX_INNER:
        raise ValueError(f"inner dimension {A.shape[-1]} exceeds {_MAX_INNER}")
    lo = B & ((1 << _SPLIT) - 1)
    hi = B >> _SPLIT
    out = (A @ lo) % p + (((A @ hi) % p) << _SPLIT) % p
    return out % p


def gf_inv_scalar(x: int, p: int = DEFAULT_PRIME) -> int:
    x = int(x) % p
    if x == 0:
        raise ZeroDivisionError("0 has no inverse mod p")
    return pow(x, p - 2, p)


def _eliminate(A: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """In-place forward elimination to row echelon form; returns pivot columns."""
    rows, cols = A.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(A[r:, c])[0]
        if nz.size == 0:
            continue
        pivot = r + int(nz[0])
        if pivot != r:
            A[[r, pivot]] = A[[pivot, r]]
        A[r] = (A[r] * gf_inv_scalar(A[r, c], p)) % p
        below = A[r + 1 :, c]
        mask = below != 0
        if mask.any():
            factors = below[mask][:, None]
            A[r + 1 :][mask] = (A[r + 1 :][mask] - factors * A[r][None, :]) % p
        pivots.append(c)
        r += 1
    return A, pivots


def gf_pivots(A: np.ndarray, p: int = DEFAULT_PRIME) -> list[int]:
    """Pivot columns of A's row echelon form over GF(p).

    Elimination runs left to right, so the pivots among the first c columns
    number the rank of A[:, :c].
    """
    A = gf_array(A, p).copy()
    if A.size == 0:
        return []
    return _eliminate(A, p)[1]


def gf_rank(A: np.ndarray, p: int = DEFAULT_PRIME) -> int:
    """Exact rank of A over GF(p)."""
    return len(gf_pivots(A, p))


def gf_rref(A: np.ndarray, p: int = DEFAULT_PRIME) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form and pivot columns."""
    A = gf_array(A, p).copy()
    if A.size == 0:
        return A, []
    A, pivots = _eliminate(A, p)
    for r in reversed(range(len(pivots))):
        c = pivots[r]
        above = A[:r, c]
        mask = above != 0
        if mask.any():
            factors = above[mask][:, None]
            A[:r][mask] = (A[:r][mask] - factors * A[r][None, :]) % p
    return A, pivots


def gf_solve(A: np.ndarray, B: np.ndarray, p: int = DEFAULT_PRIME) -> np.ndarray:
    """Solve A X = B for square nonsingular A over GF(p).

    Raises ResampleRequiredError if A is singular, since in this package a
    singular square system always means a degenerate channel draw.
    """
    A = gf_array(A, p)
    B = gf_array(B, p)
    n = A.shape[0]
    if A.shape[0] != A.shape[1]:
        raise ValueError("gf_solve expects a square matrix")
    single = B.ndim == 1
    rhs = B[:, None] if single else B
    if rhs.shape[0] != n:
        raise ValueError("right-hand side has incompatible shape")
    aug, pivots = gf_rref(np.hstack([A, rhs]), p)
    if len(pivots) < n or any(c >= n for c in pivots):
        raise ResampleRequiredError("singular system over GF(p)")
    X = aug[:n, n:]
    return X[:, 0] if single else X


def gf_particular_solution(A: np.ndarray, B: np.ndarray, p: int = DEFAULT_PRIME) -> np.ndarray:
    """One solution X of A X = B (B a vector or one right-hand side per
    column) with all free variables set to zero.

    Raises ResampleRequiredError unless A has full row rank, which also
    makes the system consistent: rank-deficient cancellation systems are
    degenerate channel draws.
    """
    A = gf_array(A, p)
    B = gf_array(B, p)
    rows, cols = A.shape
    single = B.ndim == 1
    rhs = B[:, None] if single else B
    aug, pivots = gf_rref(np.hstack([A, rhs]), p)
    if sum(c < cols for c in pivots) < rows:
        raise ResampleRequiredError("rank-deficient cancellation system over GF(p)")
    X = np.zeros((cols, rhs.shape[1]), dtype=np.int64)
    X[pivots] = aug[:rows, cols:]
    return X[:, 0] if single else X
