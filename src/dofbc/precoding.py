"""Active-passive zero-forcing (AP-ZF) precoders under the distributed-CSIT
constraint.

Every stream is sent from one antenna with the fixed coefficient 1.  An
AP-ZF stream also cancels at k' <= k chosen receive antennas: the first k'
informed antennas solve the k' x k' system that makes it vanish there, and
every other antenna sends the channel-independent constant 0.  Streams
cancelling at the same receive rows share that system's matrix, so
`apzf_precoder` takes the sending antennas of a whole group and solves it
once for all of them.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from .channel import ChannelRealization
from .errors import CapabilityExceededError, InvalidConfigError, ResampleRequiredError, as_integer
from .gf import gf_solve

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
        # gf_solve reduces the right-hand side mod p and raises
        # ResampleRequiredError if any trial's block is singular; its
        # solutions are exact.
        t[..., :kp, :] = gf_solve(H_sel[..., :kp], -H_sel[..., antennas], field)
    return t
