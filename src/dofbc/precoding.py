"""Active-passive zero-forcing (AP-ZF) precoders under the distributed-CSIT
constraint.

Every AP-ZF stream cancels at k' <= k chosen receive antennas.  The first
k' informed antennas solve the k' x k' system that makes the stream vanish
there; every other antenna, informed or not, sends the fixed
channel-independent constant that the stream's pattern gives it.  Streams
cancelling at the same receive rows share that system's matrix, so
`apzf_precoder` takes a stack of patterns and solves it once for all of them.
"""

from __future__ import annotations

import numpy as np

from .channel import ChannelRealization
from .errors import CapabilityExceededError, InvalidConfigError, ResampleRequiredError
from .gf import gf_matmul, gf_solve

CHANNEL = "channel"
CONSTANT = "constant"


def _residual_ok(H_sel: np.ndarray, t: np.ndarray, field) -> bool:
    """Every column of t vanishes at H_sel (exactly on GF(p), to 1e-9 relative
    precision per column on real channels)."""
    if field is None:
        scale = np.maximum(np.abs(H_sel).max() * np.maximum(np.abs(t).max(axis=0), 1.0), 1.0)
        return bool(np.all(np.abs(H_sel @ t).max(axis=0) <= 1e-9 * scale))
    return not np.any(gf_matmul(H_sel, t, field))


def apzf_precoder(
    channel: ChannelRealization,
    rx: int,
    rows: tuple[int, ...],
    patterns: np.ndarray,
) -> np.ndarray:
    """M x n coefficients of the AP-ZF precoders cancelling at `rows` of
    receiver `rx`, one column per column of `patterns`.

    `patterns` is the (M - k') x n stack of constant patterns, k' = len(rows):
    row j is the coefficient of antenna k' + j.  The first k' informed
    antennas solve the k' x k' block once for every column.

    Raises CapabilityExceededError when more than k rows are requested and
    ResampleRequiredError when the k' x k' block is singular.
    """
    M, k = channel.cfg.M, channel.cfg.k
    kp = len(rows)
    if kp > k:
        raise CapabilityExceededError(f"cannot cancel at {kp} antennas with only {k} informed")
    patterns = np.asarray(patterns)
    if len(patterns) != M - kp:
        raise InvalidConfigError(f"pattern must have length {M - kp}")
    H_sel = channel.receiver_rows(rx, rows)
    field = channel.field
    if field is not None:
        # Reduce before any int64 cast: built-in plans send 0/1 patterns, but
        # a caller's pattern of Python ints can exceed 2^63.
        patterns = np.asarray(patterns % field, dtype=np.int64)

    if kp == 0:
        active = np.zeros((0, patterns.shape[1]), dtype=channel.H.dtype)
    elif field is None:
        A = H_sel[:, :kp].astype(float)
        if np.linalg.matrix_rank(A) < kp:
            raise ResampleRequiredError("rank-deficient active submatrix")
        # Column by column, so each result is bit-identical to a one-pattern call.
        H_fixed = H_sel[:, kp:]
        active = np.column_stack([
            np.linalg.solve(A, -(H_fixed @ pattern))
            for pattern in np.ascontiguousarray(patterns.T, dtype=float)
        ])
    else:
        # gf_solve raises ResampleRequiredError on a singular block.
        rhs = (-gf_matmul(H_sel[:, kp:], patterns, field)) % field
        active = gf_solve(H_sel[:, :kp], rhs, field)

    if field is None:
        t = np.concatenate([active, patterns.astype(float)])
    else:
        t = np.concatenate([active, patterns])
    if kp and not _residual_ok(H_sel, t, field):
        raise ResampleRequiredError("cancellation residual check failed")
    return t
