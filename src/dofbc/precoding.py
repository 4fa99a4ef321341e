"""Zero-forcing precoders under the distributed-CSIT constraint.

The workhorse is active-passive zero forcing (AP-ZF): the M-k uninformed
antennas transmit fixed channel-independent coefficients (the passive part),
and the informed antennas solve a linear system so the stream vanishes at up
to k chosen receive antennas.  Streams cancelling at the same receive rows
share that system's matrix, so `apzf_precoder` takes a stack of patterns and
solves it once for all of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization
from .errors import CapabilityExceededError, InvalidConfigError, ResampleRequiredError
from .gf import gf_array, gf_matmul, gf_particular_solution, gf_solve

CHANNEL = "channel"
CONSTANT = "constant"


@dataclass(frozen=True)
class CancellationTarget:
    """Receiver antenna rows (receiver-local, 0-based) where a stream must vanish."""

    rx: int
    antenna_rows: tuple[int, ...]

    def __post_init__(self):
        if self.rx not in (1, 2):
            raise InvalidConfigError("rx must be 1 or 2")
        if len(set(self.antenna_rows)) != len(self.antenna_rows):
            raise InvalidConfigError("duplicate cancellation rows")


@dataclass(frozen=True)
class PrecoderVector:
    """M coefficients (one column per stream when stacked) plus one CSIT
    dependency label per antenna."""

    coeffs: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self):
        if len(self.labels) != len(self.coeffs):
            raise InvalidConfigError("one label per coefficient required")
        self.coeffs.setflags(write=False)

    @property
    def constant_support(self) -> tuple[int, ...]:
        return tuple(i for i, lab in enumerate(self.labels) if lab == CONSTANT)


def _residual_ok(H_sel: np.ndarray, t: np.ndarray, field) -> bool:
    """Every column of t vanishes at H_sel (exactly on GF(p), to 1e-9 relative
    precision per column on real channels)."""
    if field is None:
        scale = np.maximum(np.abs(H_sel).max() * np.maximum(np.abs(t).max(axis=0), 1.0), 1.0)
        return bool(np.all(np.abs(H_sel @ t).max(axis=0) <= 1e-9 * scale))
    return not np.any(gf_matmul(H_sel, t, field))


def apzf_precoder(
    channel: ChannelRealization,
    target: CancellationTarget,
    passive: np.ndarray,
    aux: np.ndarray | None = None,
) -> PrecoderVector:
    """AP-ZF precoder: fixed passive part, informed part solves cancellation.

    `passive` holds the M-k constant coefficients of the uninformed antennas.
    With k' = len(target.antenna_rows) <= k rows to cancel there are k - k'
    spare informed coefficients:

    * aux=None (default): all k informed coefficients solve the k'-equation
      system, taking the least-norm solution when k' < k;
    * aux given (length k - k'): the spare informed coefficients are pinned
      to the constant vector `aux` and only the first k' informed antennas
      solve, which lets a scheme sweep the full (M-k')-dimensional space of
      precoders cancelling at those rows while keeping determinism.

    `passive` (and `aux`) may also stack one pattern per column; all of them
    share the target's active block, which is then solved once, and the
    coefficients come back with one column per pattern.

    Raises CapabilityExceededError when more than k rows are requested and
    ResampleRequiredError when the active submatrix is rank-deficient.
    """
    cfg = channel.cfg
    M, k = cfg.M, cfg.k
    rows = target.antenna_rows
    kp = len(rows)
    if kp > k:
        raise CapabilityExceededError(f"cannot cancel at {kp} antennas with only {k} informed")
    passive = np.asarray(passive)
    if len(passive) != M - k:
        raise InvalidConfigError(f"passive part must have length {M - k}")
    single = passive.ndim == 1
    if single:
        passive = passive[:, None]
    H_sel = channel.receiver_rows(target.rx, rows)
    field = channel.field

    if aux is None:
        solve_count = k
        patterns = passive
    else:
        aux = np.asarray(aux)
        if len(aux) != k - kp:
            raise InvalidConfigError(f"aux part must have length {k - kp}")
        solve_count = kp
        patterns = np.concatenate([aux[:, None] if single else aux, passive])

    if kp == 0:
        active = np.zeros((solve_count, patterns.shape[1]), dtype=np.int64 if field else float)
    elif field is None:
        A = H_sel[:, :solve_count].astype(float)
        if np.linalg.matrix_rank(A) < kp:
            raise ResampleRequiredError("rank-deficient active submatrix")
        # Column by column, so each result is bit-identical to a 1-D call.
        H_fixed = H_sel[:, solve_count:]
        columns = []
        for pattern in np.ascontiguousarray(patterns.T, dtype=float):
            rhs = -(H_fixed @ pattern)
            if solve_count == kp:
                columns.append(np.linalg.solve(A, rhs))
            else:
                columns.append(np.linalg.lstsq(A, rhs, rcond=None)[0])
        active = np.column_stack(columns)
    else:
        # gf_solve and gf_particular_solution raise ResampleRequiredError
        # when the active block has rank below k'.
        A = H_sel[:, :solve_count]
        rhs = (-gf_matmul(H_sel[:, solve_count:], patterns, field)) % field
        if solve_count == kp:
            active = gf_solve(A, rhs, field)
        else:
            active = gf_particular_solution(A, rhs, field)

    if field is None:
        t = np.concatenate([active, patterns.astype(float)])
    else:
        t = np.concatenate([gf_array(active, field), gf_array(patterns, field)])
    if kp and not _residual_ok(H_sel, t, field):
        raise ResampleRequiredError("cancellation residual check failed")
    solved_label = CHANNEL if kp else CONSTANT
    labels = (solved_label,) * solve_count + (CONSTANT,) * (M - solve_count)
    return PrecoderVector(coeffs=t[:, 0] if single else t, labels=labels)
