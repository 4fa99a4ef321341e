"""Channel sampling and the transmit-side rotation.

Two kinds of realization are produced from the same seed machinery:

* real-valued channels with entries drawn uniformly from
  +-[delta_min, delta_max], the bounded-away-from-0-and-infinity model used
  for Monte Carlo rate simulation and floating residual checks;
* prime-field channels with uniform nonzero residues mod p, used by the
  verifier for exact generic-rank certification.

The rotation transform reduces a wide system (M > N1+N2) to an equivalent
square one: a unit-determinant matrix R with identity diagonal blocks zeroes
out the last M-N columns of H*R while leaving the first N columns of H (and
hence the channel statistics seen by the receivers) untouched.  Crucially,
the lower-right block of R acts on the uninformed antennas' signals alone,
so the transform respects the distributed-CSIT constraint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import SystemConfig
from .errors import InvalidConfigError, ResampleRequiredError
from .gf import DEFAULT_PRIME, gf_matmul, gf_solve


@dataclass(frozen=True)
class ChannelDistribution:
    """Uniform magnitude distribution over +-[delta_min, delta_max]."""

    delta_min: float = 0.1
    delta_max: float = 1.0

    def __post_init__(self):
        if not 0 < self.delta_min <= self.delta_max < np.inf:
            raise InvalidConfigError("need 0 < delta_min <= delta_max < inf")


def trial_rng(seed: int, index: int = 0) -> np.random.Generator:
    """Deterministic per-trial generator: trial i uses SeedSequence((seed, i)).

    This is the documented counter scheme for parallel trials: distinct
    indices give statistically independent streams, and the mapping is
    stable across runs and platforms.
    """
    if seed < 0 or index < 0:
        raise InvalidConfigError(f"seed and trial index must be non-negative, got {seed}, {index}")
    return np.random.default_rng(np.random.SeedSequence((int(seed), int(index))))


@dataclass(frozen=True)
class ChannelRealization:
    """One channel block: H is (N1+N2) x M, rows split as [H1; H2].

    `field` is None for a real-valued channel or the prime p for a GF(p)
    channel.  Realizations are immutable; H must not be mutated.
    """

    cfg: SystemConfig
    H: np.ndarray
    seed: int | None = None
    field: int | None = None

    def __post_init__(self):
        expected = (self.cfg.N, self.cfg.M)
        if self.H.shape != expected:
            raise InvalidConfigError(f"channel must have shape {expected}, got {self.H.shape}")
        self.H.setflags(write=False)

    @property
    def H1(self) -> np.ndarray:
        return self.H[: self.cfg.N1]

    @property
    def H2(self) -> np.ndarray:
        return self.H[self.cfg.N1 :]

    def receiver_rows(self, rx: int, rows) -> np.ndarray:
        """Global H rows for receiver-local antenna indices (0-based)."""
        if rx not in (1, 2):
            raise InvalidConfigError(f"no receiver RX{rx}")
        offset = 0 if rx == 1 else self.cfg.N1
        limit = self.cfg.N1 if rx == 1 else self.cfg.N2
        rows = tuple(int(r) for r in rows)
        if any(not 0 <= r < limit for r in rows):
            raise InvalidConfigError(f"antenna rows {rows} out of range for RX{rx}")
        return self.H[[offset + r for r in rows], :]


def sample_channel(
    cfg: SystemConfig,
    dist: ChannelDistribution = ChannelDistribution(),
    seed: int = 0,
    index: int = 0,
) -> ChannelRealization:
    """Real channel with i.i.d. entries uniform over +-[delta_min, delta_max]."""
    rng = trial_rng(seed, index)
    shape = (cfg.N, cfg.M)
    magnitudes = rng.uniform(dist.delta_min, dist.delta_max, size=shape)
    signs = rng.choice((-1.0, 1.0), size=shape)
    return ChannelRealization(cfg=cfg, H=magnitudes * signs, seed=seed, field=None)


def field_channel(
    cfg: SystemConfig, seed: int = 0, index: int = 0, p: int = DEFAULT_PRIME
) -> ChannelRealization:
    """GF(p) channel with i.i.d. uniform nonzero residues."""
    rng = trial_rng(seed, index)
    H = rng.integers(1, p, size=(cfg.N, cfg.M), dtype=np.int64)
    return ChannelRealization(cfg=cfg, H=H, seed=seed, field=p)


@dataclass(frozen=True)
class RotationMatrix:
    """M x M transform with identity/zero block structure and det = 1.

    Block layout (N = N1+N2):

        [ I_N    R_top ]
        [ 0      I_M-N ]

    Column j > N of R_top solves H[:N,:N] r = -H[:N, j], so the last M-N
    columns of H R vanish while H R agrees with H on the first N columns.
    """

    R: np.ndarray
    N: int
    field: int | None = None

    def __post_init__(self):
        self.R.setflags(write=False)

    @property
    def M(self) -> int:
        return self.R.shape[0]


def rotation_matrix(channel: ChannelRealization) -> RotationMatrix:
    """Build the column-cancelling rotation for a wide channel (M >= N).

    For M == N the rotation is the identity.  Raises ResampleRequiredError
    if the leading N x N block of H is singular (a measure-zero event).
    """
    cfg = channel.cfg
    N, M = cfg.N, cfg.M
    if M < N:
        raise InvalidConfigError("rotation requires M >= N1 + N2")
    if channel.field is None:
        R = np.eye(M)
        if M > N:
            lead = channel.H[:, :N]
            if np.linalg.matrix_rank(lead) < N:
                raise ResampleRequiredError("leading N x N channel block is singular")
            R[:N, N:] = np.linalg.solve(lead, -channel.H[:, N:])
    else:
        p = channel.field
        R = np.eye(M, dtype=np.int64)
        if M > N:
            R[:N, N:] = gf_solve(channel.H[:, :N], (-channel.H[:, N:]) % p, p)
    return RotationMatrix(R=R, N=N, field=channel.field)


def rotated_channel(channel: ChannelRealization, rotation: RotationMatrix) -> np.ndarray:
    """H R, whose last M-N columns vanish (exactly over GF(p))."""
    if channel.field is None:
        return channel.H @ rotation.R
    return gf_matmul(channel.H, rotation.R, channel.field)


def equivalent_square_channel(channel: ChannelRealization) -> ChannelRealization:
    """The N x N system a wide channel reduces to after rotation.

    Because the rotation leaves the first N columns of H untouched, this is
    simply H[:, :N] reinterpreted under a config with M = N; the rotation's
    existence (checked here) is what justifies the reduction.
    """
    cfg = channel.cfg
    rotation = rotation_matrix(channel)
    product = rotated_channel(channel, rotation)
    eq_cfg = SystemConfig(cfg.N, cfg.N1, cfg.N2, min(cfg.k, cfg.N), swapped=cfg.swapped)
    return ChannelRealization(
        cfg=eq_cfg, H=product[:, : cfg.N].copy(), seed=channel.seed, field=channel.field
    )


def apply_tx_rotation(
    rotation: RotationMatrix, x_star: np.ndarray, x_empty: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Apply X' = R X to a transmit vector partitioned as (informed, uninformed).

    Returns (X', X'_empty).  The uninformed part transforms as
    R[k:, k:] @ x_empty: since R[k:, :k] = 0 whenever k <= N, the uninformed
    antennas never need the informed antennas' signals, and their block of R
    can be handed to them by a genie without revealing any channel entry.
    """
    k = len(x_star)
    M = rotation.M
    if k > rotation.N:
        raise InvalidConfigError("partition requires k <= N1 + N2")
    if k + len(x_empty) != M:
        raise InvalidConfigError("partitioned vector must have M entries")
    x = np.concatenate([x_star, x_empty])
    if rotation.field is None:
        full = rotation.R @ x
        empty = rotation.R[k:, k:] @ x_empty
    else:
        p = rotation.field
        full = gf_matmul(rotation.R, x[:, None], p)[:, 0]
        empty = gf_matmul(rotation.R[k:, k:], x_empty[:, None], p)[:, 0]
    return full, empty
