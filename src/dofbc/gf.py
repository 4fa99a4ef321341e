"""Exact linear algebra over the prime field GF(p), p = 2^31 - 1, vectorized
with numpy.

Rank certificates for generic channels are computed here: a random matrix
over a large prime field avoids every fixed measure-zero degeneracy except
with probability on the order of (matrix degree)/p, so exact elimination
mod p stands in for "generic position" arguments without any floating-point
tolerance.

The field is fixed: p is the Mersenne prime `DEFAULT_PRIME` = 2^31 - 1, and
no function takes a field size.  All arrays are int64 in [0, p), so a
product of two entries, and the difference of two such products, stays
within int64 and the kernels are whole-array int64 operations.

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

Six private entries call the compiled kernels, from `_gfkernel.c`.  The
first four do so whenever `_KERNEL` is loaded, and fall back to the numpy
bodies `_eliminate`, `_solve` and `_matmul`, which are also the test
oracles; the last two run only with the kernel: `verifier.realize_plan`'s
numpy slot loop is the fallback and oracle of the fifth, and
`realize_plan` with `verifier._recovered` that of the sixth:

* `_pivots(A)` eliminates a fresh, writable matrix with entries in [0, p)
  in place;
* `_ranks(stack, split)` eliminates each member of a fresh, writable
  (count, rows, cols) stack with entries in [0, p) in place, in one call,
  and returns two lists: each member's rank, and its count of pivots left
  of `split` (0 <= split <= cols), which is the rank of its first `split`
  columns;
* `_product(a, b)` multiplies two stacks with the same leading axes and
  entries in [0, p), either of them read-only, into a fresh stack;
* `_solve_in_place(aug)` solves a fresh, writable stack of augmented
  systems whose entries lie anywhere in (-p, p), so an AP-ZF right-hand
  side may arrive negated;
* `_realize(program, gains, N1, A1, A2)` fills a fresh, writable stack of
  each receiver's observation matrices from the gains H [I_M | Z], entries
  in [0, p), by the realize part of a plan's program
  (`PlanLayout.program`): every slot of every draw in one call;
* `_certify(program, H, N1, columns, recovered)` certifies a stack of
  channels H, entries in [0, p), under a plan without coupled streams in
  one call: every AP-ZF solve into a fresh, writable stack of [I_M | Z],
  the gains, the realize, and each receiver's rank along its rank order
  for the first len(recovered) channels, whose recovered-symbol counts it
  writes into the fresh, writable (ranked, 2) `recovered`.  It raises
  ResampleRequiredError if any channel's AP-ZF block is singular.  The
  kernel runs each step with the routine behind `_solve_in_place`,
  `_product`, `_realize` and `_ranks`, so no step has a second body.

They neither reduce nor copy their operands; each raises ValueError, before
any kernel reads an array, unless the array is C-ordered int64 and writable
where it is written.  They read a writable array's address through
`ctypes.c_char.from_buffer`, about a third of the cost of `a.ctypes.data`,
and only a read-only one (a channel's H, read once per `_certify` call)
through `a.ctypes`.  `verifier` calls `_ranks`, `_product`,
`_solve_in_place`, `_realize` and `_certify` directly, and
`precoding._solution` the solve.
The public `gf_pivots` (and `gf_rank`), `gf_matmul` and `gf_solve` check
their arguments and reduce them with `gf_array` into C-ordered copies, then
call the same entries.  The kernel also exports
`channel_draws`, numpy's seeded channel draws replayed in C, which
`dofbc.channel` uses once a probe draw of each kind matches numpy.  The
kernel is built on first import: `_load_kernel` compiles `_gfkernel.c`
with `cc -O2 -ffp-contract=off -shared -fPIC` into
`_gfkernel-<machine>-<tag>.so` next to this file (the tag hashes the
source, the command and the machine type) and removes the kernels of other
tags for the same machine type there; every later import loads that file
through ctypes.  If there is no compiler, the directory is not writable, or
the build or the load fails, `_KERNEL` is None, the first four run in numpy,
`realize_plan` keeps its slot loop, `achieved_dof` realizes and ranks
each block, and every channel draw calls `channel.trial_rng`; nothing is
raised and no file is left behind.  The C file fixes the same prime as its
`P`, so 2^30 * 2 is 1 on both paths.

Overflow in the compiled kernels:

* The eliminations (pivots and solves) keep each entry as a representative
  in (-p, p), not [0, p), so a solve may also start from entries anywhere
  in (-p, p).  A row update x * pivot - f * y (pivots) or x - f * y
  (solves), and a solve's scaling of its pivot row by an inverse in
  (-p, p), are below 2p^2 < 2^63 in magnitude.  Each is reduced by
  Mersenne folding, since 2^31 = 1 mod p: two folds x -> (x >> 31) +
  (x & p) take any |x| < 2^63 into [-2, p + 1], and one conditional
  subtract into [-2, p), with no division.  The solutions are shifted into
  [0, p) at the end.  `_solve`'s first pivot step reduces every column
  into [0, p), and each later step's products stay below p^2 + p.
* The product accumulates the products of entries in [0, p), each below
  2^62, unreduced in a uint64 that is kept below 2^63: after an addition it
  is below 2^63 + 2^62 < 2^64, and if it reached 2^63 it drops by
  2^63 - 2, the largest multiple of p not above 2^63, to below 2^62 + 2.
  One remainder per entry reduces it at the end, so any inner dimension is
  exact; `_matmul`'s limbs, not the kernel, set the 2^16 limit that both
  paths enforce.
* The realize keeps every entry in [0, p): gains, samples and the
  program's weights (reduced mod p when the program is built) all lie
  there, so each product is below 2^62, and each sum is reduced by the same
  folding before the next add, so no sum reaches 2^62 + 2^31.
* The certification gathers each AP-ZF system from H, entries in [0, p),
  negating the right-hand side into (-p, 0], which the solve takes; its
  solutions, products, samples and ranks are those of the entries above.
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import platform
import re
from bisect import bisect_left
from pathlib import Path

import numpy as np

from .errors import ResampleRequiredError

DEFAULT_PRIME = 2**31 - 1

_SPLIT = 16  # matmul splits one factor into 16-bit limbs to avoid overflow
_MAX_INNER = 2**16  # largest inner dimension whose limb sums fit int64


def gf_array(values) -> np.ndarray:
    """Coerce to a fresh int64 array reduced into [0, p)."""
    return np.asarray(values, dtype=np.int64) % DEFAULT_PRIME


def gf_matmul(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """(A @ B) mod p without overflow, in [0, p); leading axes broadcast as
    for `@`.  Inner dimensions above 2^16 are rejected.

    Vectors are multiplied by `_matmul`, stacks of matrices by `_product`
    on reduced C-ordered copies.
    """
    A = gf_array(A)
    B = gf_array(B)
    if A.shape[-1] > _MAX_INNER:
        raise ValueError(f"inner dimension {A.shape[-1]} exceeds {_MAX_INNER}")
    if A.ndim < 2 or B.ndim < 2:
        return _matmul(A, B)
    lead = A.shape[:-2]
    if B.shape[:-2] != lead:
        lead = np.broadcast_shapes(lead, B.shape[:-2])
        A = np.broadcast_to(A, lead + A.shape[-2:])
        B = np.broadcast_to(B, lead + B.shape[-2:])
    return _product(np.ascontiguousarray(A), np.ascontiguousarray(B))


def _check(a: np.ndarray, written: bool = False) -> None:
    """Raise ValueError unless `a` is a C-ordered int64 array, and writable
    if it is `written`: the kernels read every operand, and write some, as
    such, so nothing else may reach them."""
    flags = a.flags
    if a.dtype != np.int64 or not flags.c_contiguous or (written and not flags.writeable):
        raise ValueError("the GF(p) kernels take C-ordered int64 arrays, writable where written")


def _address(a: np.ndarray) -> int:
    """The address of the data of a non-empty array that passed `_check`.
    A writable array's is read through `ctypes.c_char.from_buffer`, a
    third of the cost of `a.ctypes`; a read-only one, such as a channel's
    H, only through `a.ctypes`."""
    return ctypes.addressof(ctypes.c_char.from_buffer(a)) if a.flags.writeable else a.ctypes.data


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`gf_matmul` of C-ordered int64 stacks a (..., r, n) and b (..., n, m)
    with the same leading axes and entries in [0, p) into a fresh C-ordered
    array: the compiled product, or `_matmul` without the kernel or for an
    empty operand.  Neither operand is reduced or copied, and either may be
    read-only."""
    _check(a)
    _check(b)
    if a.ndim < 2 or a.shape[:-2] != b.shape[:-2] or a.shape[-1] != b.shape[-2]:
        raise ValueError(f"cannot multiply stacks of shapes {a.shape} and {b.shape}")
    if a.shape[-1] > _MAX_INNER:
        raise ValueError(f"inner dimension {a.shape[-1]} exceeds {_MAX_INNER}")
    if _KERNEL is None or not (a.size and b.size):
        return _matmul(a, b)
    (rows, inner), cols = a.shape[-2:], b.shape[-1]
    out = np.empty(a.shape[:-1] + (cols,), dtype=np.int64)
    _KERNEL.gf_matmul(_address(a), _address(b), _address(out), a.size // (rows * inner), rows,
                      inner, cols)
    return out


def _matmul(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """`gf_matmul` of reduced A and B in numpy, via 16-bit limb splitting of B.

    With n <= 2^16 the inner dimension, the high-limb product is reduced mod
    p before it is shifted back, so the one unreduced sum is at most
    (p-1)(2^16-1) n + (p-1) 2^16, which is (p-1) 2^32 < 2^63 at n = 2^16.
    """
    out = A @ (B >> _SPLIT)
    out %= DEFAULT_PRIME
    out <<= _SPLIT
    out += A @ (B & ((1 << _SPLIT) - 1))
    out %= DEFAULT_PRIME
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


def _eliminate(A: np.ndarray) -> list[int]:
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
            below %= DEFAULT_PRIME
    return pivots


# No -march=native: the built file may move to another CPU.  No contraction of
# a + b * c into one fused multiply-add: the channel draws round as numpy does.
_COMPILE = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
_COMPILE_TIMEOUT_S = 120
_INT64 = ctypes.c_int64
_SIGNATURES = {  # (argtypes, restype) of each function `_gfkernel.c` exports
    "gf_pivots": ((ctypes.c_void_p, _INT64, _INT64, ctypes.POINTER(_INT64)), _INT64),
    "gf_ranks": ((ctypes.c_void_p,) + (_INT64,) * 4 + (ctypes.POINTER(_INT64),), _INT64),
    "gf_solve": ((ctypes.c_void_p, _INT64, _INT64, _INT64), _INT64),
    "gf_matmul": ((ctypes.c_void_p,) * 3 + (_INT64,) * 4, None),
    "gf_realize": ((ctypes.c_void_p,) * 2 + (_INT64,) * 4 + (ctypes.c_void_p, _INT64) * 2 + (_INT64,),
                   _INT64),
    "gf_certify": ((ctypes.c_void_p,) * 2 + (_INT64,) * 4 + (ctypes.c_void_p, _INT64) * 2, _INT64),
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


def gf_pivots(A: np.ndarray) -> list[int]:
    """Pivot columns of A's row echelon form over GF(p).

    Elimination runs left to right, so the pivots among the first c columns
    number the rank of A[:, :c].  A itself is never modified: `_pivots`
    eliminates a reduced C-ordered copy.
    """
    A = gf_array(A)
    if A.ndim != 2:
        raise ValueError(f"gf_pivots expects a 2-D matrix, got {A.ndim} dimensions")
    return _pivots(np.ascontiguousarray(A))


def _pivots(A: np.ndarray) -> list[int]:
    """`gf_pivots` of a C-ordered int64 matrix with entries in [0, p),
    eliminating A in place: for callers whose matrix is already a fresh
    reduced copy.  The compiled kernel writes at most min(rows, cols) pivots
    into a buffer sized from A's shape."""
    _check(A, written=True)
    if _KERNEL is None or not A.size:
        return _eliminate(A)
    rows, cols = A.shape
    pivots = (ctypes.c_int64 * min(rows, cols))()
    return pivots[: _KERNEL.gf_pivots(_address(A), rows, cols, pivots)]


def _ranks(stack: np.ndarray, split: int) -> tuple[list[int], list[int]]:
    """The ranks of the members of a C-ordered int64 stack (count, rows,
    cols) with entries in [0, p), and the ranks of their first `split`
    columns, 0 <= split <= cols (their pivots left of `split`), eliminating
    the stack in place.  The compiled kernel ranks the whole stack in one
    call, or `_eliminate` each member without the kernel or for an empty
    stack."""
    _check(stack, written=True)
    if stack.ndim != 3 or not 0 <= split <= stack.shape[2]:
        raise ValueError(f"cannot rank a stack of shape {stack.shape} split at {split}")
    count, rows, cols = stack.shape
    if _KERNEL is None or not stack.size:
        pivots = [_eliminate(member) for member in stack]
        return [len(columns) for columns in pivots], [bisect_left(columns, split) for columns in pivots]
    out = (ctypes.c_int64 * (2 * count))()
    if _KERNEL.gf_ranks(_address(stack), count, rows, cols, split, out):
        raise MemoryError("no room for the pivots of a stacked rank")
    return out[:count], out[count:]


def _realize(program, gains: np.ndarray, N1: int, A1: np.ndarray, A2: np.ndarray) -> None:
    """Fill the C-ordered, writable int64 stacks A1 (..., T N1, cols) and A2
    (..., T N2, cols) with a T-slot plan's observation matrices under the
    gains H [I_M | Z], a C-ordered int64 stack (..., N1 + N2, columns) with
    entries in [0, p), in one compiled call: `program` is the plan's realize
    program (`PlanLayout.program`), a pointer that keeps its read-only int64
    array alive.  The kernel must be loaded; without it `realize_plan`
    keeps its numpy loop.  The program is trusted to fit the shapes: its
    plan's structure admitted N1, N2 and k."""
    _check(gains)
    _check(A1, written=True)
    _check(A2, written=True)
    lead, (rows, columns), cols = gains.shape[:-2], gains.shape[-2:], A1.shape[-1]
    T, N2 = A1.shape[-2] // N1 if 0 < N1 < rows else 0, rows - N1
    if not (T and cols and A1.shape == lead + (T * N1, cols) and A2.shape == lead + (T * N2, cols)):
        raise ValueError(f"cannot realize {A1.shape} and {A2.shape} from gains {gains.shape}")
    if _KERNEL.gf_realize(program, _address(gains), math.prod(lead), N1, N2, columns, _address(A1),
                          T * N1, _address(A2), T * N2, cols):
        raise MemoryError("no room for the form row of a realize")


def _certify(program, H: np.ndarray, N1: int, columns: np.ndarray, recovered: np.ndarray) -> None:
    """Certify a stack of channels under a plan without coupled streams in
    one compiled call, by the plan's program (`PlanLayout.program`): H is a
    C-ordered int64 stack (..., N1 + N2, M) with entries in [0, p), which
    may be read-only.  Each channel's [I_M | Z] goes into the C-ordered,
    writable int64 stack `columns` (..., M, columns), and for the first
    `ranked` channels, `recovered` being (ranked, 2), the RX1 and RX2
    recovered-symbol counts go into its rows, as `verifier._recovered`
    counts them on `realize_plan`'s matrices.  The kernel must be loaded;
    without it `achieved_dof` realizes and ranks.  The program is trusted
    to fit the shapes: its plan's structure admitted N1, N2 and k.  Raises
    ResampleRequiredError if any channel's AP-ZF block is singular."""
    _check(H)
    _check(columns, written=True)
    _check(recovered, written=True)
    lead, (rows, M) = H.shape[:-2], H.shape[-2:]
    count = math.prod(lead)
    if not (0 < N1 < rows and columns.shape[:-1] == lead + (M,) and columns.shape[-1] >= M
            and recovered.ndim == 2 and recovered.shape[1] == 2 and 0 < len(recovered) <= count):
        raise ValueError(f"cannot certify {columns.shape} and {recovered.shape} from channels {H.shape}")
    status = _KERNEL.gf_certify(program, _address(H), count, N1, rows - N1, M, _address(columns),
                                columns.shape[-1], _address(recovered), len(recovered))
    if status < 0:
        raise MemoryError("no room for the scratch rows of a certification")
    if status:
        raise ResampleRequiredError("singular AP-ZF block over GF(p)")


def gf_rank(A: np.ndarray) -> int:
    """Exact rank of A over GF(p)."""
    return len(gf_pivots(A))


def gf_solve(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Solve A X = B for square nonsingular A over GF(p).

    A may stack systems on leading axes, (..., n, n), with B (..., n) or
    (..., n, m); they are solved in one call, by the compiled kernel or else
    by `_solve`, each member exactly as it would be solved alone.  Raises
    ResampleRequiredError if any member is singular, since in this package a
    singular square system always means a degenerate channel draw.
    """
    A = gf_array(A)
    B = gf_array(B)
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
    _solve_in_place(aug)
    X = aug[:, :, n:].reshape(rhs.shape)
    return X[..., 0] if single else X


def _solve_in_place(aug: np.ndarray) -> None:
    """Solve a C-ordered, writable int64 stack (..., n, n + m) of augmented
    systems [A | B] in place: afterwards each member's last m columns hold
    its solution X of A X = B, in [0, p).  Entries may lie anywhere in
    (-p, p), so a caller may pass a negated B as it is.  The compiled kernel
    solves the stack, or `_solve` without the kernel or for an empty stack.
    Raises ResampleRequiredError if any member is singular."""
    _check(aug, written=True)
    if aug.ndim < 2 or aug.shape[-2] > aug.shape[-1]:
        raise ValueError(f"cannot solve a stack of shape {aug.shape}")
    n, width = aug.shape[-2:]
    if _KERNEL is None or not aug.size:
        _solve(aug.reshape((math.prod(aug.shape[:-2]), n, width)))  # a view: solved in place
    elif _KERNEL.gf_solve(_address(aug), aug.size // (n * width), n, width) >= 0:
        raise ResampleRequiredError("singular system over GF(p)")


def _solve(aug: np.ndarray) -> None:
    """Gauss-Jordan in numpy on a (members, n, n + m) stack of augmented
    systems [A | B] with entries in (-p, p), in place, all members at once:
    `_solve_in_place` without the kernel.  Each pivot step reduces every
    column from the pivot's on into [0, p), so the solutions end there.
    Raises ResampleRequiredError if a member is singular."""
    n = aug.shape[1]
    for c in range(n):
        diagonal = aug[:, c, c].tolist()
        for member, entry in enumerate(diagonal):
            if not entry:
                if not _pivot_row(aug[member], c, c):
                    raise ResampleRequiredError("singular system over GF(p)")
                diagonal[member] = int(aug[member, c, c])
        row = aug[:, c, c:]
        inverses = [pow(entry, -1, DEFAULT_PRIME) for entry in diagonal]
        row *= np.array(inverses, dtype=np.int64)[:, None]
        row %= DEFAULT_PRIME
        factors = aug[:, :, c].copy()
        factors[:, c] = 0
        right = aug[:, :, c:]
        right -= factors[:, :, None] * row[:, None, :]
        right %= DEFAULT_PRIME


def gf_particular_solution(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """One solution X of A X = B (B a vector or one right-hand side per
    column) with all free variables set to zero.

    Raises ResampleRequiredError unless A has full row rank, which also
    makes the system consistent, and the square system on A's pivot columns
    nonsingular: its one solution is X on the pivots.  No plan solves a wide
    system: AP-ZF cancellation uses the square `gf_solve`.
    """
    A = gf_array(A)
    B = gf_array(B)
    pivots = gf_pivots(A)
    if len(pivots) < A.shape[0]:
        raise ResampleRequiredError("rank-deficient system over GF(p)")
    X = np.zeros(A.shape[1:] + B.shape[1:], dtype=np.int64)
    X[pivots] = gf_solve(A[:, pivots], B)
    return X
