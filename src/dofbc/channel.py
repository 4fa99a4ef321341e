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
such stack, each draw from the state of its own `trial_rng(seed, index)`,
so a stacked draw equals its per-index draws bit for bit.  A stack of at
least `_VECTOR_MIN` draws gets those states in one vectorized pass that
replays SeedSequence((seed, index)) and PCG64's seeding on uint32 arrays, a
smaller stack calls `trial_rng` per index.  `achieved_dof` and
`rate_slope_estimate` draw and realize a block of trials this way.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .config import SystemConfig
from .errors import InvalidConfigError, as_integer
from .gf import DEFAULT_PRIME


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
    25*i, in one call with a sequence of indices.  A block of at least
    `_VECTOR_MIN` indices is seeded in one vectorized pass that gives each
    index the exact generator state of this function; a smaller block, or
    one with an index of 2^32 or more, calls this function per index.
    CSIT compliance compares the precoders of trial 0's and trial 1's
    accepted draws; a one-trial `achieved_dof` precodes index 25, trial 1's
    first draw, for it.  A seed or index that is not an integer (a float or
    a bool) is rejected, not truncated.
    """
    return np.random.default_rng(np.random.SeedSequence(_checked(seed, index)))


# SeedSequence's hash constants and PCG64's multiplier: fixed by NumPy's
# stream-compatibility policy (NEP 19), so `_block_states` can replay them.
_MASK32, _MASK128 = 2**32 - 1, 2**128 - 1
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# Smallest block seeded in one pass: below it the pass's fixed cost exceeds
# what it saves over per-index SeedSequence and default_rng calls.
_VECTOR_MIN = 8


def _hash_constants(init: int, mult: int, calls) -> tuple[np.ndarray, np.ndarray]:
    """The xor and multiplier, as uint32 columns, of each hash call number t
    in `calls`: SeedSequence's hash xors with init * mult**t and multiplies by
    init * mult**(t+1), mod 2^32."""
    xor = [init * pow(mult, t, 2**32) & _MASK32 for t in calls]
    times = [init * pow(mult, t + 1, 2**32) & _MASK32 for t in calls]
    return np.array(xor, np.uint32)[:, None], np.array(times, np.uint32)[:, None]


# Pool word i takes hash call i; then each source word s mixes into the
# other three with calls 4 + 3s, 5 + 3s, 6 + 3s (call 0 fills the unused
# slot s, whose result is discarded); generate_state uses the B constants.
_FILL = _hash_constants(_INIT_A, _MULT_A, range(4))
_CROSS = [
    _hash_constants(_INIT_A, _MULT_A, [0 if d == s else 4 + 3 * s + d - (d > s) for d in range(4)])
    for s in range(4)
]
_OUTPUT = _hash_constants(_INIT_B, _MULT_B, range(8))


def _hash(words: np.ndarray, constants) -> np.ndarray:
    xor, times = constants
    words = (words ^ xor) * times
    return words ^ (words >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    mixed = _MIX_L * x - _MIX_R * y
    return mixed ^ (mixed >> 16)


def _block_states(seed: int, indices: list[int]) -> Iterator[dict]:
    """The PCG64 state of `trial_rng(seed, i)` for each index i < 2^32, in
    order, from one pass of uint32 array arithmetic over the block.

    It replays SeedSequence((seed, i)): the entropy words are the seed's
    32-bit words, least significant first, then i's one word; the pool of
    four words is filled, cross-mixed, and extended by the words past the
    fourth; generate_state(4, uint64) hashes it into the PCG64 seed and
    increment words, from which PCG64 takes two steps."""
    words = [seed & _MASK32]
    while seed > _MASK32:
        seed >>= 32
        words.append(seed & _MASK32)
    words.append(np.array(indices, np.uint32))
    pool = np.zeros((4, len(indices)), np.uint32)
    for i, word in enumerate(words[:4]):
        pool[i] = word
    pool = _hash(pool, _FILL)
    for s in range(4):
        mixed = _mix(pool, _hash(pool[s], _CROSS[s]))
        mixed[s] = pool[s]
        pool = mixed
    for n, word in enumerate(words[4:]):
        calls = range(16 + 4 * n, 20 + 4 * n)
        pool = _mix(pool, _hash(np.asarray(word, np.uint32), _hash_constants(_INIT_A, _MULT_A, calls)))
    out = _hash(np.concatenate((pool, pool)), _OUTPUT).astype(np.uint64)
    halves = (out[0::2] | (out[1::2] << np.uint64(32))).tolist()
    for high, low, inc_high, inc_low in zip(*halves):
        inc = ((inc_high << 65) | (inc_low << 1) | 1) & _MASK128
        state = ((inc + ((high << 64) | low)) * _PCG64_MULT + inc) & _MASK128
        yield {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }


@dataclass(frozen=True)
class ChannelRealization:
    """One channel block: H is (N1+N2) x M, rows split as [H1; H2].

    H's dtype decides the field: a float64 H is a real-valued channel, an
    int64 H with entries in [0, p) a GF(p) channel, p = 2^31 - 1.  Either
    may also be a (trials, N1+N2, M) stack of independent draws; every view
    below then keeps that leading axis.
    Realizations are immutable; H must not be mutated.
    """

    cfg: SystemConfig
    H: np.ndarray

    def __post_init__(self):
        if self.H.dtype not in (np.float64, np.int64):
            raise InvalidConfigError(f"channel must be float64 or int64, got {self.H.dtype}")
        p = self.field
        expected = (self.cfg.N, self.cfg.M)
        if self.H.shape[-2:] != expected or self.H.ndim not in (2, 3):
            raise InvalidConfigError(
                f"channel must have shape {expected} or (trials, {self.cfg.N}, {self.cfg.M}),"
                f" got {self.H.shape}"
            )
        if p is not None and (self.H.min() < 0 or self.H.max() >= p):
            raise InvalidConfigError(f"GF({p}) channel entries must lie in [0, {p})")
        self.H.setflags(write=False)

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


def _draws(cfg: SystemConfig, seed: int, index, draw, dtype) -> ChannelRealization:
    """`draw(trial_rng(seed, index))` as a realization; for a sequence of
    indices, a stack of one such draw per index, written into one `dtype`
    array and validated once.  A sequence of at least `_VECTOR_MIN` indices
    below 2^32 is seeded in one pass (`_block_states`), a shorter one index
    by index."""
    if np.ndim(index) == 0:
        return ChannelRealization(cfg=cfg, H=draw(trial_rng(seed, index)))
    indices = list(index)
    if not indices:
        raise InvalidConfigError("at least one draw index required")
    H = np.empty((len(indices), cfg.N, cfg.M), dtype=dtype)
    if len(indices) >= _VECTOR_MIN:
        seed = as_integer(seed, "seed")
        indices = [_checked(seed, i)[1] for i in indices]
        if max(indices) <= _MASK32:
            rng = np.random.default_rng(0)
            for j, state in enumerate(_block_states(seed, indices)):
                rng.bit_generator.state = state
                H[j] = draw(rng)
            return ChannelRealization(cfg=cfg, H=H)
    for j, i in enumerate(indices):
        H[j] = draw(trial_rng(seed, i))
    return ChannelRealization(cfg=cfg, H=H)


def sample_channel(
    cfg: SystemConfig,
    dist: ChannelDistribution = ChannelDistribution(),
    seed: int = 0,
    index=0,
) -> ChannelRealization:
    """Real channel with i.i.d. entries uniform over +-[delta_min, delta_max].

    `index` is one draw index, or a sequence of them for a stack of draws.
    """
    shape = (cfg.N, cfg.M)

    def draw(rng: np.random.Generator) -> np.ndarray:
        magnitudes = rng.uniform(dist.delta_min, dist.delta_max, size=shape)
        # The index draw inside rng.choice((-1.0, 1.0), size=shape): the same
        # signs and generator state, without choice's overhead.
        positive = rng.integers(0, 2, size=shape, dtype=np.int64)
        return np.where(positive, magnitudes, -magnitudes)

    return _draws(cfg, seed, index, draw, np.float64)


def field_channel(cfg: SystemConfig, seed: int = 0, index=0) -> ChannelRealization:
    """GF(2^31 - 1) channel with i.i.d. uniform nonzero residues.

    `index` is one draw index, or a sequence of them for a stack of draws.
    """
    shape = (cfg.N, cfg.M)

    def draw(rng: np.random.Generator) -> np.ndarray:
        return rng.integers(1, DEFAULT_PRIME, size=shape, dtype=np.int64)

    return _draws(cfg, seed, index, draw, np.int64)
