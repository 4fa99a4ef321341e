"""Exact linear algebra over a prime field GF(p), vectorized with numpy.

Rank certificates for generic channels are computed here: a random matrix
over a large prime field avoids every fixed measure-zero degeneracy except
with probability on the order of (matrix degree)/p, so exact elimination
mod p stands in for "generic position" arguments without any floating-point
tolerance.

The default prime is the Mersenne prime 2^31 - 1.  All arrays are int64 in
[0, p); p must be a prime int below 2^31 (`_check_prime`), so a product of
two entries, and the difference of two such products, stays within int64
and the kernels are whole-array int64 operations.

The matrices met in certification are small (tens of rows), so the cost of
a numpy elimination is the number of numpy calls per pivot.  There are two
elimination kernels, each one pass over the columns:

* `_eliminate` finds only the pivot columns of one matrix.  Per pivot it
  updates every row below the pivot, whole and fraction-free: each row is
  multiplied by the (nonzero) pivot before the pivot row times the row's
  entry is subtracted.  Whole rows are contiguous, and row operations keep
  the row space, so no inverse is needed and no rank of leading columns
  changes.
* `_solve` is Gauss-Jordan on a stack of square systems at once: per pivot
  it normalises the pivot row and clears the pivot column above and below
  in one outer-product update.  The pivots are the diagonal unless a member
  is singular.

The pivot columns and the solution of a nonsingular system are unique, so
neither kernel's shortcuts can change a result.  `gf_particular_solution`
takes `gf_pivots` of A, then `gf_solve` on A's pivot columns.

Three of the public functions run compiled, from `_gfkernel.c`, whenever
`_KERNEL` is loaded: `gf_pivots` (and `gf_rank`), `gf_solve` and
`gf_matmul`.  Their numpy bodies, `_eliminate`, `_solve` and `_matmul`,
are the fallbacks and the test oracles.  The kernel also exports
`channel_draws`, numpy's seeded channel draws replayed in C, which
`dofbc.channel` uses once a probe draw of each kind matches numpy.  The
kernel is built on first import: `_load_kernel` compiles `_gfkernel.c`
with `cc -O2 -ffp-contract=off -shared -fPIC` into
`_gfkernel-<machine>-<tag>.so` next to this file (the tag hashes the
source, the command and the machine type) and removes the kernels of other
tags for the same machine type there; every later import loads that file
through ctypes.  If there is no compiler, the directory is not writable, or
the build or the load fails, `_KERNEL` is None, all three run in numpy
and every channel draw calls `channel.trial_rng`; nothing is raised and no
file is left behind.

Overflow in the compiled kernels:

* The eliminations (pivots and solves) keep each entry as a representative
  in (-p, p), not [0, p).  A row update x * pivot - f * y (pivots) or
  x - f * y (solves), and a solve's scaling of its pivot row by an inverse
  in (-p, p), are below 2p^2 < 2^63 in magnitude.  Each is reduced through
  a quotient rounded in double precision, which is within one of the exact
  quotient, rather than through an integer division.  The solutions are
  shifted into [0, p) at the end.
* The product accumulates the products of entries in [0, p), each below
  2^62, unreduced in a uint64 that is kept below 2^63: after an addition it
  is below 2^63 + 2^62 < 2^64, and if it reached 2^63 it drops by the
  largest multiple of p not above 2^63, to below 2^62 + p.  One remainder
  per entry reduces it at the end, so any inner dimension is exact;
  `_matmul`'s limbs, not the kernel, set the 2^16 limit that both paths
  enforce.
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import platform
import re
from pathlib import Path

import numpy as np

from .errors import ResampleRequiredError

DEFAULT_PRIME = 2**31 - 1

_SPLIT = 16  # matmul splits one factor into 16-bit limbs to avoid overflow
_MAX_INNER = 2**16  # largest inner dimension whose limb sums fit int64


def _check_prime(p: int):
    """Raise ValueError unless p is a prime int below 2^31, before any kernel
    sees it: a composite p has no inverses, and a bool, a float or a NumPy
    integer is not an int here."""
    if type(p) is not int:
        raise ValueError(f"the field size must be an int prime, got {p!r}")
    if p >= 2**31:
        raise ValueError("prime too large for int64 arithmetic (need p < 2^31)")
    if p != DEFAULT_PRIME and not _is_prime(p):  # the default prime skips the test
        raise ValueError(f"the field size must be prime, got {p}")


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin with bases 2, 3, 5 and 7, exact for every
    n below 3,215,031,751, so for every n < 2^31."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7)
    if n in bases or any(n % a == 0 for a in bases):
        return n in bases
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def gf_array(values, p: int = DEFAULT_PRIME) -> np.ndarray:
    """Coerce to a fresh int64 array reduced into [0, p)."""
    _check_prime(p)
    return np.asarray(values, dtype=np.int64) % p


def gf_matmul(A: np.ndarray, B: np.ndarray, p: int = DEFAULT_PRIME) -> np.ndarray:
    """(A @ B) mod p without overflow, in [0, p); leading axes broadcast as
    for `@`.  Inner dimensions above 2^16 are rejected.

    Stacks of matrices are multiplied by the compiled kernel, vectors and
    every product without the kernel by `_matmul`.
    """
    A = gf_array(A, p)
    B = gf_array(B, p)
    if A.shape[-1] > _MAX_INNER:
        raise ValueError(f"inner dimension {A.shape[-1]} exceeds {_MAX_INNER}")
    if _KERNEL is None or A.ndim < 2 or B.ndim < 2:
        return _matmul(A, B, p)
    (rows, inner), (inner_b, cols) = A.shape[-2:], B.shape[-2:]
    if inner != inner_b:
        raise ValueError(f"inner dimensions {inner} and {inner_b} differ")
    lead = A.shape[:-2]
    if B.shape[:-2] != lead:
        lead = np.broadcast_shapes(lead, B.shape[:-2])
        A = np.broadcast_to(A, lead + A.shape[-2:])
        B = np.broadcast_to(B, lead + B.shape[-2:])
    A = np.ascontiguousarray(A)
    B = np.ascontiguousarray(B)
    out = np.empty(lead + (rows, cols), dtype=np.int64)
    _KERNEL.gf_matmul(A.ctypes.data, B.ctypes.data, out.ctypes.data, math.prod(lead), rows, inner,
                      cols, p)
    return out


def _matmul(A: np.ndarray, B: np.ndarray, p: int) -> np.ndarray:
    """`gf_matmul` of reduced A and B in numpy, via 16-bit limb splitting of B.

    With n <= 2^16 the inner dimension, the high-limb product is reduced mod
    p before it is shifted back, so the one unreduced sum is at most
    (p-1)(2^16-1) n + (p-1) 2^16, which is (p-1) 2^32 < 2^63 at n = 2^16.
    """
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


# No -march=native: the built file may move to another CPU.  No contraction of
# a + b * c into one fused multiply-add: the channel draws round as numpy does.
_COMPILE = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
_COMPILE_TIMEOUT_S = 120
_INT64 = ctypes.c_int64
_SIGNATURES = {  # (argtypes, restype) of each function `_gfkernel.c` exports
    "gf_pivots": ((ctypes.c_void_p, _INT64, _INT64, _INT64, ctypes.POINTER(_INT64)), _INT64),
    "gf_solve": ((ctypes.c_void_p, _INT64, _INT64, _INT64, _INT64), _INT64),
    "gf_matmul": ((ctypes.c_void_p,) * 3 + (_INT64,) * 5, None),
    "channel_draws": ((ctypes.c_char_p, _INT64, ctypes.c_char_p) + (_INT64,) * 3
                      + (ctypes.c_double,) * 2 + (ctypes.c_void_p,), None),
}
_MACHINE = re.sub(r"\W", "_", platform.machine()) or "unknown"
# Kernels a build replaces: this machine type's, and the older names that
# carried no machine type; another machine's kernel in a shared checkout stays.
_KERNEL_NAME = re.compile(rf"_gfkernel-(?:{_MACHINE}-)?[0-9a-f]{{16}}\.so")


def _load_kernel(directory: Path, compiler: str = "cc"):
    """The library compiled from `_gfkernel.c`, built into `directory` if it
    is not there yet, with the signatures of its functions bound, or None if
    it cannot be built or loaded."""
    source = Path(__file__).with_name("_gfkernel.c")
    command = (compiler, *_COMPILE)
    try:
        digest = hashlib.sha256(source.read_bytes())
        digest.update(" ".join(command).encode())
        digest.update(platform.machine().encode())
        target = Path(directory) / f"_gfkernel-{_MACHINE}-{digest.hexdigest()[:16]}.so"
        return _bind(str(target)) if target.exists() else _build(source, command, target)
    except (OSError, AttributeError):  # no source or directory, a failed dlopen, no such symbol
        return None


def _bind(path: str) -> ctypes.CDLL:
    """Load the library at `path` and set the signature of each function;
    AttributeError if one is missing."""
    kernel = ctypes.CDLL(path)
    for name, (argtypes, restype) in _SIGNATURES.items():
        function = getattr(kernel, name)
        function.argtypes = argtypes
        function.restype = restype
    return kernel


def _build(source: Path, command: tuple[str, ...], target: Path):
    """Compile `source` into a temporary file beside `target`, load it, and
    only then rename it to `target`, so processes importing at once never
    load a partial file.  A build that fails or does not load leaves no file
    and gives None.  A build that succeeds removes the kernels of other
    sources for this machine type beside `target`, but no other build's
    temporary file."""
    import subprocess
    import tempfile

    handle, tmp = tempfile.mkstemp(prefix=target.stem + "-", suffix=".so", dir=target.parent)
    os.close(handle)
    try:
        subprocess.run([*command, "-o", tmp, str(source)], check=True, capture_output=True,
                       timeout=_COMPILE_TIMEOUT_S)
        os.chmod(tmp, 0o755)  # mkstemp made it private to this user
        kernel = _bind(tmp)
        os.replace(tmp, target)
    except (OSError, AttributeError, subprocess.SubprocessError):
        os.unlink(tmp)
        return None
    for stale in target.parent.iterdir():
        if stale != target and _KERNEL_NAME.fullmatch(stale.name):
            try:
                stale.unlink()
            except OSError:  # removed by another build, or not ours to remove
                pass
    return kernel


_KERNEL = _load_kernel(Path(__file__).parent)


def gf_pivots(A: np.ndarray, p: int = DEFAULT_PRIME) -> list[int]:
    """Pivot columns of A's row echelon form over GF(p).

    Elimination runs left to right, so the pivots among the first c columns
    number the rank of A[:, :c].  A itself is never modified: `_pivots`
    eliminates a reduced C-ordered copy.
    """
    A = gf_array(A, p)
    if A.ndim != 2:
        raise ValueError(f"gf_pivots expects a 2-D matrix, got {A.ndim} dimensions")
    return _pivots(np.ascontiguousarray(A), p)


def _pivots(A: np.ndarray, p: int) -> list[int]:
    """`gf_pivots` of a C-ordered int64 matrix with entries in [0, p), for a
    valid prime p, eliminating A in place: for callers whose matrix is
    already a fresh reduced copy.  The compiled kernel writes at most
    min(rows, cols) pivots into a buffer sized from A's shape."""
    if _KERNEL is None:
        return _eliminate(A, p)
    rows, cols = A.shape
    pivots = (ctypes.c_int64 * max(min(rows, cols), 1))()
    return pivots[: _KERNEL.gf_pivots(A.ctypes.data, rows, cols, p, pivots)]


def gf_rank(A: np.ndarray, p: int = DEFAULT_PRIME) -> int:
    """Exact rank of A over GF(p)."""
    return len(gf_pivots(A, p))


def gf_solve(A: np.ndarray, B: np.ndarray, p: int = DEFAULT_PRIME) -> np.ndarray:
    """Solve A X = B for square nonsingular A over GF(p).

    A may stack systems on leading axes, (..., n, n), with B (..., n) or
    (..., n, m); they are solved in one call, by the compiled kernel or else
    by `_solve`, each member exactly as it would be solved alone.  Raises
    ResampleRequiredError if any member is singular, since in this package a
    singular square system always means a degenerate channel draw.
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
    aug = np.ascontiguousarray(aug)  # a Fortran-ordered A gives a Fortran-ordered stack
    if _KERNEL is None:
        _solve(aug, p)
    elif _KERNEL.gf_solve(aug.ctypes.data, *aug.shape, p) >= 0:
        raise ResampleRequiredError("singular system over GF(p)")
    X = aug[:, :, n:].reshape(rhs.shape)
    return X[..., 0] if single else X


def _solve(aug: np.ndarray, p: int) -> None:
    """Gauss-Jordan in numpy on a (members, n, n + m) stack of reduced
    augmented systems [A | B], in place, all members at once: `gf_solve`
    without the kernel.  Raises ResampleRequiredError if a member is
    singular."""
    n = aug.shape[1]
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


def gf_particular_solution(A: np.ndarray, B: np.ndarray, p: int = DEFAULT_PRIME) -> np.ndarray:
    """One solution X of A X = B (B a vector or one right-hand side per
    column) with all free variables set to zero.

    Raises ResampleRequiredError unless A has full row rank, which also
    makes the system consistent, and the square system on A's pivot columns
    nonsingular: its one solution is X on the pivots.  No plan solves a wide
    system: AP-ZF cancellation uses the square `gf_solve`.
    """
    A = gf_array(A, p)
    B = gf_array(B, p)
    pivots = gf_pivots(A, p)
    if len(pivots) < A.shape[0]:
        raise ResampleRequiredError("rank-deficient system over GF(p)")
    X = np.zeros(A.shape[1:] + B.shape[1:], dtype=np.int64)
    X[pivots] = gf_solve(A[:, pivots], B, p)
    return X
