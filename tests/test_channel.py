import ctypes
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dofbc import channel, gf
from dofbc.channel import (
    ChannelDistribution,
    ChannelRealization,
    field_channel,
    sample_channel,
    trial_rng,
)
from dofbc.config import SystemConfig
from dofbc.errors import InvalidConfigError
from dofbc.gf import DEFAULT_PRIME
from dofbc.schemes import select_scheme
from dofbc.verifier import RateSimConfig, achieved_dof, rate_slope_estimate

from .oracles import det2_mod


def test_deterministic_under_seed():
    cfg = SystemConfig(4, 1, 3, 2)
    dist = ChannelDistribution(0.1, 1.0)
    a = sample_channel(cfg, dist, seed=7)
    b = sample_channel(cfg, dist, seed=7)
    assert np.array_equal(a.H, b.H)
    c = sample_channel(cfg, dist, seed=7, index=1)
    assert not np.array_equal(a.H, c.H)
    assert np.array_equal(field_channel(cfg, seed=7).H, field_channel(cfg, seed=7).H)


def test_trial_rng_counter_scheme_is_stable():
    assert trial_rng(3, 5).integers(0, 2**31) == trial_rng(3, 5).integers(0, 2**31)
    assert trial_rng(3, 5).integers(0, 2**31) != trial_rng(3, 6).integers(0, 2**31)


def test_magnitudes_bounded_away():
    cfg = SystemConfig(5, 2, 3, 1)
    dist = ChannelDistribution(0.1, 1.0)
    samples = np.concatenate(
        [np.abs(sample_channel(cfg, dist, seed=0, index=i).H).ravel() for i in range(400)]
    )
    assert samples.size == 400 * 25
    assert samples.min() >= 0.1
    assert samples.max() <= 1.0


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    index=st.integers(0, 10**6),
    N1=st.integers(1, 10),
    extra=st.integers(0, 10),
    M=st.integers(1, 20),
    delta_min=st.floats(0.01, 1.0),
)
def test_sign_draw_matches_rng_choice(seed, index, N1, extra, M, delta_min):
    # sample_channel draws its signs as the index draw inside
    # rng.choice((-1.0, 1.0)); the entries must equal what the choice draw
    # gives on both paths, and without the kernel the one generator used must
    # be left in the choice draw's state.
    cfg = SystemConfig(M, N1, N1 + extra, 0)
    dist = ChannelDistribution(delta_min, 1.0)
    used = []

    def recording_rng(*args):
        used.append(trial_rng(*args))
        return used[-1]

    with mock.patch("dofbc.channel.trial_rng", recording_rng), mock.patch.object(channel, "_KERNEL", None):
        H = sample_channel(cfg, dist, seed=seed, index=index).H
    reference = trial_rng(seed, index)
    shape = (cfg.N, cfg.M)
    magnitudes = reference.uniform(delta_min, 1.0, size=shape)
    expected = magnitudes * reference.choice((-1.0, 1.0), size=shape)
    assert H.dtype == expected.dtype and H.tobytes() == expected.tobytes()
    assert len(used) == 1
    assert used[0].bit_generator.state == reference.bit_generator.state
    for index_or_block in (index, [index]):
        H = sample_channel(cfg, dist, seed=seed, index=index_or_block).H
        assert H.tobytes() == expected.tobytes()


def test_shapes_and_blocks():
    cfg = SystemConfig(4, 1, 3, 2)
    ch = sample_channel(cfg, seed=1)
    assert ch.H.shape == (4, 4)
    assert ch.H1.shape == (1, 4)
    assert ch.H2.shape == (3, 4)
    assert np.array_equal(ch.receiver_rows(2, [0, 2]), ch.H[[1, 3]])
    with pytest.raises(InvalidConfigError):
        ch.receiver_rows(1, [1])


@pytest.mark.parametrize(
    "bounds", [(True, True), (0.1, True), (False, 1.0), ("0.1", 1.0), (None, 1.0), (0.1, "1")]
)
def test_distribution_bounds_must_be_numbers(bounds):
    # A bool used to pass as 0 or 1, and a string or None raised a bare TypeError.
    with pytest.raises(InvalidConfigError, match="numbers"):
        ChannelDistribution(*bounds)
    assert ChannelDistribution(np.float64(0.2), 1) == ChannelDistribution(0.2, 1.0)


def test_field_channel_entries_nonzero():
    cfg = SystemConfig(3, 2, 2, 1)
    for i in range(50):
        H = field_channel(cfg, seed=3, index=i).H
        assert (H > 0).all() and (H < DEFAULT_PRIME).all()


def test_field_leading_minor_nonsingular_many_seeds():
    cfg = SystemConfig(4, 2, 3, 2)
    for i in range(1000):
        ch = field_channel(cfg, seed=11, index=i)
        block = ch.H2[: cfg.k, : cfg.k]
        assert det2_mod(int(block[0, 0]), int(block[0, 1]), int(block[1, 0]), int(block[1, 1]), DEFAULT_PRIME) != 0


def test_channel_entries_checked_against_field():
    # H's dtype decides the field: int64 is GF(2^31 - 1), float64 is real.
    cfg = SystemConfig(4, 1, 3, 2)
    H = field_channel(cfg, seed=0).H
    assert ChannelRealization(cfg=cfg, H=H.copy()).field == DEFAULT_PRIME
    assert ChannelRealization(cfg=cfg, H=sample_channel(cfg, seed=0).H.copy()).field is None
    # Other dtypes would be truncated or misread by the kernels.
    bad = [H.astype(np.int32), H.astype(complex)]
    for entry in (-1, DEFAULT_PRIME):
        out_of_range = H.copy()
        out_of_range[1, 2] = entry
        bad.append(out_of_range)
    for entries in bad:
        with pytest.raises(InvalidConfigError):
            ChannelRealization(cfg=cfg, H=entries)


@pytest.mark.parametrize("dtype", [np.int64, np.float64])
def test_zero_draw_stack_rejected(dtype):
    # An empty int64 stack used to raise numpy's ValueError from H.min(),
    # and an empty float64 one realized plans into empty matrices.
    cfg = SystemConfig(4, 1, 3, 2)
    with pytest.raises(InvalidConfigError, match="trials >= 1"):
        ChannelRealization(cfg, np.empty((0, cfg.N, cfg.M), dtype))


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
def test_non_finite_real_entries_rejected(entry):
    # A NaN used to reach LAPACK ("SVD did not converge") in an AP-ZF solve,
    # and an inf a RuntimeWarning and a residual resample.
    cfg = SystemConfig(4, 1, 3, 2)
    for index in (0, [0, 25]):
        H = sample_channel(cfg, seed=0, index=index).H.copy()
        H[..., 1, 0] = entry
        with pytest.raises(InvalidConfigError, match="finite"):
            ChannelRealization(cfg, H)


@pytest.mark.parametrize("draw", [sample_channel, field_channel], ids=lambda f: f.__name__)
def test_index_sequence_stacks_per_index_draws(draw):
    # Each member of a stack comes from its own SeedSequence((seed, index)).
    cfg = SystemConfig(5, 2, 3, 1)
    indices = [0, 25, 7, 25]
    stacked = draw(cfg, seed=4, index=indices)
    alone = np.stack([draw(cfg, seed=4, index=i).H for i in indices])
    assert stacked.H.shape == (4, cfg.N, cfg.M) and stacked.H.dtype == alone.dtype
    assert stacked.H.tobytes() == alone.tobytes()
    for same in ((0, 25, 7, 25), np.array(indices), [np.int64(i) for i in indices]):
        assert draw(cfg, seed=4, index=same).H.tobytes() == alone.tobytes()
    assert draw(cfg, seed=4, index=[7]).H.tobytes() == alone[2:3].tobytes()


def test_non_integer_seed_or_index_rejected():
    # int() used to truncate these: index=1.7 gave draw 1 and seed=True seed 1.
    cfg = SystemConfig(4, 1, 3, 2)
    for draw in (field_channel, sample_channel):
        for bad in (1.7, 1.0, True, "1", None):
            with pytest.raises(InvalidConfigError, match="integer"):
                draw(cfg, seed=0, index=bad)
            with pytest.raises(InvalidConfigError, match="integer"):
                draw(cfg, seed=bad, index=0)
        for bad in ([0, 1.5], [True], [[0]], ["3"]):
            with pytest.raises(InvalidConfigError, match="integer"):
                draw(cfg, seed=0, index=bad)
        with pytest.raises(InvalidConfigError, match="at least one draw index"):
            draw(cfg, seed=0, index=[])
        with pytest.raises(InvalidConfigError, match="non-negative"):
            draw(cfg, seed=0, index=[0, -25])
    numpy_ints = field_channel(cfg, np.int64(3), index=np.int64(2)).H
    assert np.array_equal(numpy_ints, field_channel(cfg, 3, 2).H)
    plan = select_scheme(cfg)
    with pytest.raises(InvalidConfigError, match="integer"):
        achieved_dof(plan, trials=2, seed=1.5)
    with pytest.raises(InvalidConfigError, match="integer"):
        rate_slope_estimate(plan, RateSimConfig(trials=2), seed=True)


# Seeds of one to five 32-bit words: the index word after them lands in
# pool word 1, 2 or 3 (the last), or is mixed in after the pool is full.
BLOCK_SEEDS = (0, 2**32 - 1, 2**32, 2**64, 2**96 - 1, 2**96, 2**128 + 1)
# Index words: both ends of the kernel's range, any word, small ones.
INDEX_WORDS = st.one_of(st.sampled_from((0, 2**32 - 1)), st.integers(0, 2**32 - 1), st.integers(0, 300))


def numpy_draws(seed, indices, shape, dist=None) -> np.ndarray:
    """The oracle: per index, trial_rng(seed, i) followed by numpy's own
    calls, integers(1, p) for a field channel, uniform then integers(0, 2)
    signs for a real one."""
    draws = []
    for i in indices:
        rng = trial_rng(seed, i)
        if dist is None:
            draws.append(rng.integers(1, DEFAULT_PRIME, size=shape, dtype=np.int64))
        else:
            magnitudes = rng.uniform(dist.delta_min, dist.delta_max, size=shape)
            positive = rng.integers(0, 2, size=shape, dtype=np.int64)
            draws.append(np.where(positive, magnitudes, -magnitudes))
    return np.stack(draws)


def assert_draws_match_oracle(cfg, dist, seed, indices):
    """Both kinds of draw, as a block and per index, equal `numpy_draws`
    byte for byte."""
    shape = (cfg.N, cfg.M)
    for kind, draw in ((None, lambda index: field_channel(cfg, seed, index)),
                       (dist, lambda index: sample_channel(cfg, dist, seed, index))):
        expected = numpy_draws(seed, indices, shape, kind)
        block = draw(indices).H
        assert block.dtype == expected.dtype and block.tobytes() == expected.tobytes()
        for j in sorted({0, len(indices) - 1}):
            assert draw(indices[j]).H.tobytes() == expected[j].tobytes()


@settings(max_examples=150, deadline=None)
@given(
    seed=st.one_of(st.sampled_from(BLOCK_SEEDS), st.integers(0, 2**200)),
    data=st.data(),
    N1=st.integers(1, 10),
    M=st.integers(1, 20),
    delta_min=st.floats(0.01, 10.0),
    equal_bounds=st.booleans(),
    repeat=st.booleans(),
)
def test_draws_match_numpy_oracle(seed, data, N1, M, delta_min, equal_bounds, repeat):
    # Shapes from 2 x 1 (one antenna per receiver, one transmit antenna) up
    # to 20 x 20, blocks of 1-5 indices, a repeated index, and
    # delta_min == delta_max.
    N2 = data.draw(st.integers(N1, 20 - N1))
    delta_max = delta_min if equal_bounds else data.draw(st.floats(delta_min, 20.0))
    indices = data.draw(st.lists(INDEX_WORDS, min_size=1, max_size=5))
    if repeat:
        indices.append(indices[0])
    assert_draws_match_oracle(SystemConfig(M, N1, N2, 0), ChannelDistribution(delta_min, delta_max),
                              seed, indices)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.sampled_from(BLOCK_SEEDS),
    indices=st.lists(st.one_of(INDEX_WORDS, st.integers(2**32, 2**70)), min_size=1, max_size=5),
    M=st.integers(1, 6),
)
def test_draws_without_kernel_identical(seed, indices, M):
    # With the kernel disabled every draw calls trial_rng, and gives the same
    # bytes; blocks with an index of 2^32 or more take that path anyway.
    cfg = SystemConfig(M, 2, 3, 0)
    dist = ChannelDistribution(0.2, 0.9)
    with_kernel = [field_channel(cfg, seed, indices).H, sample_channel(cfg, dist, seed, indices).H,
                   field_channel(cfg, seed, indices[-1]).H, sample_channel(cfg, dist, seed, indices[-1]).H]
    with mock.patch.object(channel, "_KERNEL", None):
        assert_draws_match_oracle(cfg, dist, seed, indices)
        without = [field_channel(cfg, seed, indices).H, sample_channel(cfg, dist, seed, indices).H,
                   field_channel(cfg, seed, indices[-1]).H, sample_channel(cfg, dist, seed, indices[-1]).H]
    for a, b in zip(with_kernel, without):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("length", [2, 7, 8, 32])
@settings(max_examples=25, deadline=None)
@given(
    seed=st.sampled_from(BLOCK_SEEDS),
    data=st.data(),
    numpy_ints=st.booleans(),
    M=st.integers(1, 6),
    N=st.integers(2, 6),
)
def test_block_seeding_matches_per_index_draws(length, seed, data, numpy_ints, M, N):
    # Short and long blocks, each with a repeated index and some indices as
    # NumPy integers: the stack must equal the per-index draws and the
    # oracle byte for byte.
    indices = data.draw(st.lists(INDEX_WORDS, min_size=length - 1, max_size=length - 1))
    indices.append(indices[0])
    cfg = SystemConfig(M, 1, N - 1, 0)
    block = [np.uint32(i) if numpy_ints and i % 2 else i for i in indices]
    dist = ChannelDistribution()
    for kind, draw in ((None, field_channel), (dist, sample_channel)):
        alone = np.stack([draw(cfg, seed=seed, index=i).H for i in indices])
        stacked = draw(cfg, seed=seed, index=block).H
        assert stacked.dtype == alone.dtype and stacked.tobytes() == alone.tobytes()
        assert stacked.tobytes() == numpy_draws(seed, indices, (cfg.N, cfg.M), kind).tobytes()


def test_long_block_validated_as_trial_rng():
    # A block rejects what trial_rng rejects, with its message, with the
    # kernel and without it, and still draws an index of 2^32 or more.
    cfg = SystemConfig(4, 1, 3, 2)
    n = 10
    cases = [(0, bad, n // 2) for bad in (1.5, True, "3", -25)]
    cases += [(bad, 0, 0) for bad in (-1, 2.0, False, "1")]
    for kernel in (channel._KERNEL, None):
        with mock.patch.object(channel, "_KERNEL", kernel):
            for seed, bad, at in cases:
                indices = list(range(0, 25 * n, 25))
                indices[at] = bad
                with pytest.raises(InvalidConfigError) as expected:
                    trial_rng(seed, bad)
                for draw in (field_channel, sample_channel):
                    with pytest.raises(InvalidConfigError, match=f"^{re.escape(str(expected.value))}$"):
                        draw(cfg, seed=seed, index=indices)
            indices = [2**32 - 1, 2**32, 2**40 + 3, *range(n)]
            assert_draws_match_oracle(cfg, ChannelDistribution(), 5, indices)


class SkewedKernel:
    """The compiled kernel with one draw entry changed: the first cell of
    every field (or every real) draw call has its lowest bit flipped."""

    def __init__(self, field: bool):
        self.field = field

    def channel_draws(self, *args):
        gf._KERNEL.channel_draws(*args)
        field, out = args[5], args[-1]
        if bool(field) == self.field:
            ctypes.c_int64.from_address(out).value ^= 1


@pytest.mark.skipif(gf._KERNEL is None, reason="no compiled kernel")
@pytest.mark.parametrize("field", [True, False], ids=["field", "real"])
def test_probe_mismatch_leaves_draws_on_numpy(field):
    # A kernel whose probe draw of either kind disagrees with numpy is not
    # used, and every draw then equals numpy's.
    skewed = SkewedKernel(field)
    out = np.empty((1, 3, 5), np.int64 if field else np.float64)
    channel._kernel_draws(skewed, 7, [25], out, None if field else ChannelDistribution())
    assert out.tobytes() != numpy_draws(7, [25], (3, 5), None if field else ChannelDistribution()).tobytes()
    assert channel._probed(skewed) is None and channel._probed(None) is None
    assert channel._probed(gf._KERNEL) is gf._KERNEL is channel._KERNEL
    with mock.patch.object(channel, "_KERNEL", skewed):
        assert_draws_match_oracle(SystemConfig(5, 2, 3, 1), ChannelDistribution(), 3, [0, 25, 2**32 - 1])


@pytest.mark.skipif(channel._probed(channel._KERNEL) is None, reason="no compiled draws")
def test_certification_and_slopes_draw_in_kernel():
    # Below 2^32 every draw runs in the kernel: a fall back to trial_rng,
    # which would still give the same bits, shows here.  The probe, which
    # calls trial_rng, has run in the skip condition.
    def no_rng(*args):
        raise AssertionError(f"trial_rng{args} called with the kernel loaded")

    with mock.patch("dofbc.channel.trial_rng", no_rng):
        for cfg in (SystemConfig(9, 3, 6, 4), SystemConfig(7, 5, 6, 2)):
            plan = select_scheme(cfg)
            for trials in (1, 12):
                assert achieved_dof(plan, trials=trials, seed=2**70).ok
            rate_slope_estimate(plan, RateSimConfig(trials=12), seed=3)


# Kernel draws skip ChannelRealization's scans; everything else keeps them.


@pytest.mark.skipif(channel._probed(channel._KERNEL) is None, reason="no compiled draws")
@settings(max_examples=60, deadline=None)
@given(
    seed=st.one_of(st.sampled_from(BLOCK_SEEDS), st.integers(0, 2**80)),
    indices=st.one_of(INDEX_WORDS, st.lists(INDEX_WORDS, min_size=1, max_size=6)),
    N1=st.integers(1, 8),
    extra=st.integers(0, 8),
    M=st.integers(1, 12),
    real=st.booleans(),
)
def test_kernel_draws_are_checked_realizations(seed, indices, N1, extra, M, real):
    # A kernel-drawn realization, one draw or a stack, is read-only, has the
    # declared shape and dtype, and passes the public constructor's checks.
    cfg = SystemConfig(M, N1, N1 + extra, 0)
    with mock.patch("dofbc.channel.trial_rng", side_effect=AssertionError("not drawn in the kernel")):
        if real:
            drawn = sample_channel(cfg, ChannelDistribution(0.2, 0.7), seed, indices)
        else:
            drawn = field_channel(cfg, seed, indices)
    H = drawn.H
    stack = () if isinstance(indices, int) else (len(indices),)
    assert H.shape == stack + (cfg.N, cfg.M)
    assert H.dtype == (np.float64 if real else np.int64)
    assert not H.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        H[...] = 0
    checked = ChannelRealization(cfg, H.copy())
    assert checked.field == drawn.field and drawn.cfg is cfg
    assert np.array_equal(checked.H, H)


@pytest.mark.parametrize("kernel", [True, False], ids=["kernel", "numpy"])
def test_only_numpy_draws_run_the_full_check(kernel):
    # Without the kernel every draw call builds its realization through the
    # public constructor, and so through __post_init__, once per call; a
    # kernel draw skips it.
    if kernel and channel._probed(channel._KERNEL) is None:
        pytest.skip("no compiled draws")
    cfg = SystemConfig(5, 2, 3, 1)
    check = ChannelRealization.__post_init__
    with mock.patch.object(channel, "_KERNEL", channel._KERNEL if kernel else None), \
            mock.patch.object(ChannelRealization, "__post_init__", autospec=True,
                              side_effect=check) as post_init:
        draws = [field_channel(cfg, 3, [0, 25]), sample_channel(cfg, seed=3, index=[0, 25]),
                 field_channel(cfg, 3, 4), sample_channel(cfg, seed=3, index=4)]
        assert post_init.call_count == (0 if kernel else len(draws))
    for drawn in draws:
        assert not drawn.H.flags.writeable
