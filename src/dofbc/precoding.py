"""Active-passive zero-forcing (AP-ZF) precoders under the distributed-CSIT
constraint.

Every stream is sent from one antenna with the fixed coefficient 1.  An
AP-ZF stream also cancels at k' <= k chosen receive antennas: the first k'
informed antennas solve the k' x k' system that makes it vanish there, and
every other antenna sends the channel-independent constant 0.  Streams
cancelling at the same receive rows share that system's matrix, so
`apzf_precoder` takes the sending antennas of a whole group and solves it
once for all of them.

One core, `_solution`, makes every AP-ZF solve on either field, for
`apzf_precoder` and the verifier alike: one `take` of flat indices
(`_system_index`, relative to the receiver's first row of H) gathers every
trial's augmented system [H[rows, :k'] | H[rows, antennas]].  GF(p) solves
them exactly in one compiled call, a real channel in checked LAPACK solves.
A plan's layout records those indices once per AP-ZF target, so realizing
a plan calls neither `apzf_precoder` nor its argument checks.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from .channel import ChannelRealization
from .errors import CapabilityExceededError, InvalidConfigError, ResampleRequiredError, as_integer
from .gf import _solve_in_place

CHANNEL = "channel"
CONSTANT = "constant"


def apzf_precoder(
    channel: ChannelRealization,
    rx: int,
    rows: tuple[int, ...],
    antennas: Iterable[int],
) -> np.ndarray:
    """M x n coefficients of the AP-ZF precoders cancelling at `rows` of
    receiver `rx`, one column per entry of `antennas`.

    Column j sends coefficient 1 from antenna antennas[j], which must be one
    of the passive antennas k' .. M-1 (k' = len(rows)), and 0 from the other
    passive antennas; the first k' informed antennas solve the k' x k' block
    once for every column.  On a channel with a leading trial axis, the
    result has that axis too, and each trial's columns equal a one-draw
    call's bit for bit.

    Raises CapabilityExceededError when more than k rows are requested,
    InvalidConfigError when the receiver, a row or an antenna is not an
    integer (a bool or a float is rejected, not truncated) or is out of
    range, or when a row repeats, and ResampleRequiredError when the k' x k'
    block is singular or, on a real channel, the solution fails its
    residual check.
    """
    M, k = channel.cfg.M, channel.cfg.k
    kp = len(rows)
    if kp > k:
        raise CapabilityExceededError(f"cannot cancel at {kp} antennas with only {k} informed")
    antennas = [as_integer(a, "sending antenna") for a in antennas]
    if any(not kp <= a < M for a in antennas):
        raise InvalidConfigError(f"AP-ZF streams must be sent from antennas {kp}..{M - 1}")
    channel.receiver_rows(rx, rows)  # checks the receiver and its rows
    if len(set(rows)) != kp:  # a repeated row makes every draw's block singular
        raise InvalidConfigError("AP-ZF cancellation rows must be distinct")
    n = len(antennas)
    t = np.zeros(channel.H.shape[:-2] + (M, n), dtype=channel.H.dtype)
    t[..., antennas, range(n)] = 1
    if kp:
        first_row = 0 if rx == 1 else channel.cfg.N1
        t[..., :kp, :] = _solution(channel.H, first_row, _system_index(M, rows, antennas), channel.field)
    return t


def _system_index(M: int, rows, antennas) -> np.ndarray:
    """Flat indices of the augmented AP-ZF system [H[rows, :k'] | H[rows,
    antennas]], k' = len(rows), within one trial's rows of the receiver
    (M entries a row, local row 0 first): a k' x (k' + n) array."""
    columns = np.array([*range(len(rows)), *antennas], dtype=np.intp)
    return np.array(rows, dtype=np.intp)[:, None] * M + columns


def _residual_ok(aug: np.ndarray, X: np.ndarray) -> bool:
    """A X + B of the real systems aug = [A | B] vanishes to 1e-9 relative
    precision per column and trial: relative to the trial's largest |entry|
    of [A | B] times the column's largest |entry| of X, each at least 1."""
    kp = X.shape[-2]
    H_max = np.abs(aug).max(axis=(-2, -1))[..., None]
    scale = np.maximum(H_max * np.maximum(np.abs(X).max(axis=-2), 1.0), 1.0)
    return bool(np.all(np.abs(aug[..., :kp] @ X + aug[..., kp:]).max(axis=-2) <= 1e-9 * scale))


def _solution(H: np.ndarray, first_row: int, index: np.ndarray, p: int | None) -> np.ndarray:
    """The AP-ZF coefficients X of the first k' antennas: A X = -B for the
    system [A | B] that `index` (from `_system_index`) gathers, with H's trial
    axis if any, from the receiver whose rows of H begin at `first_row`.  On
    GF(p), B is negated in place into (-p, 0] and one call solves the stack
    into [0, p).  On a real channel, LAPACK solves each column alone, so its
    bits do not depend on the others.  Raises ResampleRequiredError if any
    trial's A is singular (on a real channel: rank-deficient, or the solution
    fails `_residual_ok`)."""
    M, kp = H.shape[-1], index.shape[0]
    aug = H.reshape(H.shape[:-2] + (-1,))[..., first_row * M :].take(index, axis=-1)
    rhs = aug[..., kp:]
    if p is not None:
        rhs *= -1  # not np.negative(rhs, out=rhs): numpy 2.4 negates 64-byte strides in place wrongly
        _solve_in_place(aug)
        return rhs
    A = aug[..., :kp]
    if np.any(np.linalg.matrix_rank(A) < kp):
        raise ResampleRequiredError("rank-deficient active submatrix")
    columns = np.swapaxes(-rhs, -1, -2)[..., None]  # one right-hand side per solve
    X = np.swapaxes(np.linalg.solve(A[..., None, :, :], columns)[..., 0], -1, -2)
    if not _residual_ok(aug, X):
        raise ResampleRequiredError("cancellation residual check failed")
    return X
