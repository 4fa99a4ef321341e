"""Channel sampling.

Two kinds of realization are produced from the same seed machinery:

* real-valued channels with entries drawn uniformly from
  +-[delta_min, delta_max], the bounded-away-from-0-and-infinity model used
  for Monte Carlo rate simulation and floating residual checks;
* prime-field channels with uniform nonzero residues mod p = 2^31 - 1,
  used by the verifier for exact generic-rank certification.

`ChannelRealization` accepts a channel over any prime field below 2^31;
the library itself draws on GF(2^31 - 1) only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

import numpy as np

from .config import SystemConfig
from .errors import InvalidConfigError
from .gf import DEFAULT_PRIME


@dataclass(frozen=True)
class ChannelDistribution:
    """Uniform magnitude distribution over +-[delta_min, delta_max]."""

    delta_min: float = 0.1
    delta_max: float = 1.0

    def __post_init__(self):
        if not 0 < self.delta_min <= self.delta_max < np.inf:
            raise InvalidConfigError("need 0 < delta_min <= delta_max < inf")


def trial_rng(seed: int, index: int = 0) -> np.random.Generator:
    """Deterministic generator for draw `index` of a run: SeedSequence((seed, index)).

    Distinct indices give statistically independent streams, and the mapping
    is stable across runs and platforms.  `achieved_dof` and
    `rate_slope_estimate` draw attempt a of trial i at index 25*i + a (a
    counts resamples).  CSIT compliance compares the precoders of trial 0's
    and trial 1's accepted draws; a one-trial `achieved_dof` precodes index
    25, trial 1's first draw, for it.
    """
    if seed < 0 or index < 0:
        raise InvalidConfigError(f"seed and trial index must be non-negative, got {seed}, {index}")
    return np.random.default_rng(np.random.SeedSequence((int(seed), int(index))))


@lru_cache(maxsize=None)
def _check_field(p: int) -> None:
    """Reject p unless it is a prime below 2^31.

    Trial division, decided once per valid p: channels of a run share one field.
    """
    odd = 2 < p < 2**31 and p % 2 == 1
    if not (p == 2 or (odd and all(p % d for d in range(3, isqrt(p) + 1, 2)))):
        raise InvalidConfigError(f"field size must be a prime p < 2^31, got {p}")


@dataclass(frozen=True)
class ChannelRealization:
    """One channel block: H is (N1+N2) x M, rows split as [H1; H2].

    `field` is None for a real-valued channel, whose H is float64, or the
    prime p < 2^31 for a GF(p) channel, whose H is int64 with entries in
    [0, p).  Realizations are immutable; H must not be mutated.
    """

    cfg: SystemConfig
    H: np.ndarray
    field: int | None = None

    def __post_init__(self):
        expected = (self.cfg.N, self.cfg.M)
        if self.H.shape != expected:
            raise InvalidConfigError(f"channel must have shape {expected}, got {self.H.shape}")
        p = self.field
        dtype = np.dtype(np.float64 if p is None else np.int64)
        if self.H.dtype != dtype:
            raise InvalidConfigError(f"channel entries must be {dtype}, got {self.H.dtype}")
        if p is not None:
            _check_field(p)
            if self.H.min() < 0 or self.H.max() >= p:
                raise InvalidConfigError(f"GF({p}) channel entries must lie in [0, {p})")
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
    return ChannelRealization(cfg=cfg, H=magnitudes * signs, field=None)


def field_channel(cfg: SystemConfig, seed: int = 0, index: int = 0) -> ChannelRealization:
    """GF(2^31 - 1) channel with i.i.d. uniform nonzero residues."""
    rng = trial_rng(seed, index)
    H = rng.integers(1, DEFAULT_PRIME, size=(cfg.N, cfg.M), dtype=np.int64)
    return ChannelRealization(cfg=cfg, H=H, field=DEFAULT_PRIME)
