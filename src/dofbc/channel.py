"""Channel sampling.

Two kinds of realization are produced from the same seed machinery:

* real-valued channels with entries drawn uniformly from
  +-[delta_min, delta_max], the bounded-away-from-0-and-infinity model used
  for Monte Carlo rate simulation and floating residual checks;
* prime-field channels with uniform nonzero residues mod p = 2^31 - 1,
  used by the verifier for exact generic-rank certification.

A realization's dtype decides its kind: float64 is real, int64 is GF(2^31 - 1).
Either kind may stack several draws on a leading trial axis: given a
sequence of draw indices, `sample_channel` and `field_channel` return one
such stack, each draw equal to numpy's draw from its own
`trial_rng(seed, index)`, so a stacked draw equals its per-index draws bit
for bit.  When every index is below 2^32, one call of the compiled kernel
(`channel_draws` in `_gfkernel.c`) makes every draw, one draw or a stack: it
replays SeedSequence((seed, index)), PCG64 and numpy's own `integers` and
`uniform` draws in C.  NumPy fixes SeedSequence and PCG64 across releases
but not its `Generator` methods, so the kernel (`_KERNEL`) is used only if
one probe draw of each kind equals numpy's at the first draw (`_probed`).
Without the kernel, or for an index of 2^32 or more, each draw calls
`trial_rng` and numpy.  A kernel-drawn stack is not rescanned: the kernel
writes only residues in [1, p) or reals in +-[delta_min, delta_max] into an
array of the declared shape and dtype, so its realization skips
`ChannelRealization`'s dtype, shape and range checks.  A numpy-drawn stack,
and every realization built through the public constructor, is checked in
full.
`achieved_dof` and `rate_slope_estimate` draw and realize a block of trials
this way.
"""

from __future__ import annotations

import ctypes
import functools
import struct
from dataclasses import dataclass
from numbers import Real

import numpy as np

from . import gf
from .config import SystemConfig
from .errors import InvalidConfigError, as_integer
from .gf import DEFAULT_PRIME

_MAX_INDEX = 2**32 - 1  # the largest draw index the compiled kernel takes, one 32-bit word


@dataclass(frozen=True)
class ChannelDistribution:
    """Uniform magnitude distribution over +-[delta_min, delta_max]."""

    delta_min: float = 0.1
    delta_max: float = 1.0

    def __post_init__(self):
        bounds = (self.delta_min, self.delta_max)
        if any(isinstance(v, bool) or not isinstance(v, Real) for v in bounds):
            raise InvalidConfigError(f"delta_min and delta_max must be numbers, got {bounds!r}")
        if not 0 < self.delta_min <= self.delta_max < np.inf:
            raise InvalidConfigError("need 0 < delta_min <= delta_max < inf")


def _checked(seed, index) -> tuple[int, int]:
    """`(seed, index)` as non-negative ints, or InvalidConfigError."""
    seed, index = as_integer(seed, "seed"), as_integer(index, "draw index")
    if seed < 0 or index < 0:
        raise InvalidConfigError(f"seed and trial index must be non-negative, got {seed}, {index}")
    return seed, index


def trial_rng(seed: int, index: int = 0) -> np.random.Generator:
    """Deterministic generator for draw `index` of a run: SeedSequence((seed, index)).

    Distinct indices give statistically independent streams, and the mapping
    is stable across runs and platforms.  `achieved_dof` and
    `rate_slope_estimate` draw attempt a of trial i at index 25*i + a (a
    counts resamples); a block of trials draws its first draws, indices
    25*i, in one call with a sequence of indices.  The compiled draws
    replay this function's generator, and numpy's draws from it, for every
    index below 2^32; without the kernel, or for a block with an index of
    2^32 or more, every draw calls this function.
    CSIT compliance compares the precoders of trial 0's and trial 1's
    accepted draws; a one-trial `achieved_dof` precodes index 25, trial 1's
    first draw, for it.  A seed or index that is not an integer (a float or
    a bool) is rejected, not truncated.
    """
    return np.random.default_rng(np.random.SeedSequence(_checked(seed, index)))


@dataclass(frozen=True)
class ChannelRealization:
    """One channel block: H is (N1+N2) x M, rows split as [H1; H2].

    H's dtype decides the field: a float64 H with finite entries is a
    real-valued channel, an int64 H with entries in [0, p) a GF(p) channel,
    p = 2^31 - 1.  Either may also be a (trials, N1+N2, M) stack of one or
    more independent draws; every view below then keeps that leading axis.
    Realizations are immutable; H must not be mutated.
    """

    cfg: SystemConfig
    H: np.ndarray

    def __post_init__(self):
        if self.H.dtype not in (np.float64, np.int64):
            raise InvalidConfigError(f"channel must be float64 or int64, got {self.H.dtype}")
        p = self.field
        expected = (self.cfg.N, self.cfg.M)
        # The config has antennas, so only a stack of no draws has no entries.
        if self.H.shape[-2:] != expected or self.H.ndim not in (2, 3) or not self.H.size:
            raise InvalidConfigError(
                f"channel must have shape {expected} or (trials >= 1, {self.cfg.N}, {self.cfg.M}),"
                f" got {self.H.shape}"
            )
        if p is None and not np.isfinite(self.H).all():
            raise InvalidConfigError("real channel entries must be finite")
        if p is not None and (self.H.min() < 0 or self.H.max() >= p):
            raise InvalidConfigError(f"GF({p}) channel entries must lie in [0, {p})")
        self.H.setflags(write=False)

    @classmethod
    def _drawn(cls, cfg: SystemConfig, H: np.ndarray) -> ChannelRealization:
        """`H` as a read-only realization, without `__post_init__`'s scans:
        for a stack the probed kernel wrote into an array `_draws` allocated
        with the declared shape and dtype, and so with residues in [1, p) or
        reals in +-[delta_min, delta_max] only."""
        H.setflags(write=False)
        realization = object.__new__(cls)
        realization.__dict__.update(cfg=cfg, H=H)
        return realization

    @property
    def field(self) -> int | None:
        """The prime p of a GF(p) channel, None for a real-valued one."""
        return DEFAULT_PRIME if self.H.dtype.kind == "i" else None

    @property
    def H1(self) -> np.ndarray:
        return self.H[..., : self.cfg.N1, :]

    @property
    def H2(self) -> np.ndarray:
        return self.H[..., self.cfg.N1 :, :]

    def receiver_rows(self, rx: int, rows) -> np.ndarray:
        """Global H rows for receiver-local antenna indices (0-based).

        The receiver and the rows must be integers: a bool or a float is
        rejected, not truncated."""
        if as_integer(rx, "receiver") not in (1, 2):
            raise InvalidConfigError(f"no receiver RX{rx}")
        offset = 0 if rx == 1 else self.cfg.N1
        limit = self.cfg.N1 if rx == 1 else self.cfg.N2
        rows = tuple(as_integer(r, "receiver row") for r in rows)
        if any(not 0 <= r < limit for r in rows):
            raise InvalidConfigError(f"antenna rows {rows} out of range for RX{rx}")
        return self.H[..., [offset + r for r in rows], :]


def _numpy_draw(rng: np.random.Generator, shape, dist: ChannelDistribution | None) -> np.ndarray:
    """One draw from `rng`: a GF(2^31 - 1) channel if `dist` is None, else a
    real one."""
    if dist is None:
        return rng.integers(1, DEFAULT_PRIME, size=shape, dtype=np.int64)
    magnitudes = rng.uniform(dist.delta_min, dist.delta_max, size=shape)
    # The index draw inside rng.choice((-1.0, 1.0), size=shape): the same
    # signs and generator state, without choice's overhead.
    positive = rng.integers(0, 2, size=shape, dtype=np.int64)
    return np.where(positive, magnitudes, -magnitudes)


def _kernel_draws(kernel, seed: int, indices: list[int], out: np.ndarray,
                  dist: ChannelDistribution | None) -> None:
    """Write `_numpy_draw(trial_rng(seed, i), ...)` for each index i < 2^32
    into `out`, one draw per index along its first axis, with the compiled
    `channel_draws`.  `out` is a fresh C-ordered array, so its address is
    read through `ctypes.c_char.from_buffer`, faster than `out.ctypes`."""
    # The seed's 32-bit words, as SeedSequence splits it: 0 is one word.
    words = max(1, (seed.bit_length() + 31) // 32)
    p, lo, hi = (DEFAULT_PRIME, 0.0, 0.0) if dist is None else (0, dist.delta_min, dist.delta_max)
    kernel.channel_draws(seed.to_bytes(4 * words, "little"), words,
                         struct.pack(f"<{len(indices)}I", *indices), len(indices),
                         out.size // len(indices), p, lo, hi,
                         ctypes.addressof(ctypes.c_char.from_buffer(out)))


@functools.cache
def _probed(kernel):
    """`kernel` if its draws of both kinds equal numpy's on a probe case, else
    None.  NumPy's stream-compatibility policy (NEP 19) fixes SeedSequence and
    PCG64 but not the `Generator` methods, so a numpy release may draw
    differently from the replay in C.  The probe runs at the first draw, not
    at import: importing `numpy.random` costs a process that draws no channel
    about 2 MB."""
    if kernel is None:
        return None
    seed, index, shape = 2**130 + 12345, 2**32 - 1, (3, 5)  # six entropy words, odd cells
    for dist in (None, ChannelDistribution(0.3, 0.7)):
        expected = _numpy_draw(trial_rng(seed, index), shape, dist)
        out = np.empty(shape, expected.dtype)
        _kernel_draws(kernel, seed, [index], out, dist)
        if out.tobytes() != expected.tobytes():
            return None
    return kernel


# The compiled kernel the draws run in once `_probed` passes it; None, or a
# failed probe, leaves every draw to `trial_rng`.
_KERNEL = gf._KERNEL


def _draws(cfg: SystemConfig, seed: int, index,
           dist: ChannelDistribution | None) -> ChannelRealization:
    """`_numpy_draw(trial_rng(seed, index), ...)` as a realization; for a
    sequence of indices, a stack of one such draw per index, written into one
    array.  The compiled kernel draws every index when all are below 2^32,
    into an array allocated here, which is therefore not rescanned
    (`ChannelRealization._drawn`); otherwise `trial_rng` draws each index,
    and the stack is validated once."""
    # np.ndim would first convert a list into an array.
    scalar = not isinstance(index, (list, tuple)) and np.ndim(index) == 0
    indices = [index] if scalar else list(index)
    if not indices:
        raise InvalidConfigError("at least one draw index required")
    seed = as_integer(seed, "seed")
    if seed < 0 or not all(type(i) is int and i >= 0 for i in indices):
        indices = [_checked(seed, i)[1] for i in indices]  # raises trial_rng's error, if any
    shape = (cfg.N, cfg.M)
    kernel = _probed(_KERNEL)
    if kernel is not None and max(indices) <= _MAX_INDEX:
        dtype = np.int64 if dist is None else np.float64
        H = np.empty(shape if scalar else (len(indices), *shape), dtype)
        _kernel_draws(kernel, seed, indices, H, dist)
        return ChannelRealization._drawn(cfg, H)
    draws = [_numpy_draw(trial_rng(seed, i), shape, dist) for i in indices]
    return ChannelRealization(cfg=cfg, H=draws[0] if scalar else np.stack(draws))


def sample_channel(
    cfg: SystemConfig,
    dist: ChannelDistribution = ChannelDistribution(),
    seed: int = 0,
    index=0,
) -> ChannelRealization:
    """Real channel with i.i.d. entries uniform over +-[delta_min, delta_max].

    `index` is one draw index, or a sequence of them for a stack of draws.
    """
    return _draws(cfg, seed, index, dist)


def field_channel(cfg: SystemConfig, seed: int = 0, index=0) -> ChannelRealization:
    """GF(2^31 - 1) channel with i.i.d. uniform nonzero residues.

    `index` is one draw index, or a sequence of them for a stack of draws.
    """
    return _draws(cfg, seed, index, None)
