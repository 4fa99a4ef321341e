"""Active-passive zero-forcing (AP-ZF) precoders under the distributed-CSIT
constraint.

Every stream is sent from one antenna with the fixed coefficient 1.  An
AP-ZF stream also cancels at k' <= k chosen receive antennas: the first k'
informed antennas solve the k' x k' system that makes it vanish there, and
every other antenna sends the channel-independent constant 0.  Streams
cancelling at the same receive rows share that system's matrix, so
`apzf_precoder` takes the sending antennas of a whole group and solves it
once for all of them.

On GF(p) one core serves `apzf_precoder` and the verifier alike: the
augmented system [H[rows, :k'] | H[rows, antennas]] is gathered by one
`take` of flat indices (`_system_index`, relative to the receiver's first
row of H), its right-hand side negated in place, and every trial's system
solved in one call (`_field_solution`).  A plan's layout records those
indices once per AP-ZF target, so realizing a plan needs no call of
`apzf_precoder` and none of its checks; the public function checks its
arguments and builds the indices per call.  The real-valued path solves
with LAPACK and checks the residual.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from .channel import ChannelRealization
from .errors import CapabilityExceededError, InvalidConfigError, ResampleRequiredError, as_integer
from .gf import _solve_in_place

CHANNEL = "channel"
CONSTANT = "constant"


def _residual_ok(H_sel: np.ndarray, t: np.ndarray) -> bool:
    """Every column of the real-valued t vanishes at H_sel, to 1e-9 relative
    precision per column and trial.  GF(p) solves are exact and need no check."""
    H_max = np.abs(H_sel).max(axis=(-2, -1))[..., None]
    scale = np.maximum(H_max * np.maximum(np.abs(t).max(axis=-2), 1.0), 1.0)
    return bool(np.all(np.abs(H_sel @ t).max(axis=-2) <= 1e-9 * scale))


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
    block is singular.
    """
    M, k = channel.cfg.M, channel.cfg.k
    kp = len(rows)
    if kp > k:
        raise CapabilityExceededError(f"cannot cancel at {kp} antennas with only {k} informed")
    antennas = [as_integer(a, "sending antenna") for a in antennas]
    if any(not kp <= a < M for a in antennas):
        raise InvalidConfigError(f"AP-ZF streams must be sent from antennas {kp}..{M - 1}")
    H_sel = channel.receiver_rows(rx, rows)
    if len(set(rows)) != kp:  # a repeated row makes every draw's block singular
        raise InvalidConfigError("AP-ZF cancellation rows must be distinct")
    field = channel.field
    n = len(antennas)
    t = np.zeros(channel.H.shape[:-2] + (M, n), dtype=channel.H.dtype)
    t[..., antennas, range(n)] = 1
    if not kp:
        return t
    if field is None:
        A = H_sel[..., :kp]
        if np.any(np.linalg.matrix_rank(A) < kp):
            raise ResampleRequiredError("rank-deficient active submatrix")
        # One LAPACK solve per column, so each result is bit-identical to a
        # one-antenna call; a multi-column right-hand side could round apart.
        rhs = np.swapaxes(-H_sel[..., antennas], -1, -2)[..., None]
        blocks = np.broadcast_to(A[..., None, :, :], A.shape[:-2] + (n, kp, kp))
        t[..., :kp, :] = np.swapaxes(np.linalg.solve(blocks, rhs)[..., 0], -1, -2)
        if not _residual_ok(H_sel, t):
            raise ResampleRequiredError("cancellation residual check failed")
    else:
        first_row = 0 if rx == 1 else channel.cfg.N1
        t[..., :kp, :] = _field_solution(channel.H, first_row, _system_index(M, rows, antennas), field)
    return t


def _system_index(M: int, rows, antennas) -> np.ndarray:
    """Flat indices of the augmented AP-ZF system [H[rows, :k'] | H[rows,
    antennas]], k' = len(rows), within one trial's rows of the receiver
    (M entries a row, local row 0 first): a k' x (k' + n) array."""
    columns = np.array([*range(len(rows)), *antennas], dtype=np.intp)
    return np.array(rows, dtype=np.intp)[:, None] * M + columns


def _field_solution(H: np.ndarray, first_row: int, index: np.ndarray, p: int) -> np.ndarray:
    """The AP-ZF coefficients X of the first k' antennas on GF(p), in [0, p):
    A X = -B for the system [A | B] that `index` (from `_system_index`)
    gathers from the receiver whose rows of H begin at `first_row`, with H's
    trial axis, if any.  One `take` gathers every trial's system as a fresh
    stack, B is negated in place into (-p, 0], and one call solves the
    stack.  Raises ResampleRequiredError if any trial's A is singular."""
    M = H.shape[-1]
    aug = H.reshape(H.shape[:-2] + (-1,))[..., first_row * M :].take(index, axis=-1)
    rhs = aug[..., index.shape[0] :]
    rhs *= -1  # not np.negative(rhs, out=rhs): numpy 2.4 negates 64-byte strides in place wrongly
    _solve_in_place(aug, p)
    return rhs
