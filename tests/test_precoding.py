import numpy as np
import pytest

from dofbc.channel import ChannelRealization, field_channel, sample_channel
from dofbc.config import SystemConfig
from dofbc.errors import CapabilityExceededError, InvalidConfigError, ResampleRequiredError
from dofbc.gf import gf_matmul
from dofbc.precoding import apzf_precoder


def column(values):
    """One pattern as a stack with a single column."""
    return np.array(values)[:, None]


def residual(channel, rx, rows, t):
    H_sel = channel.receiver_rows(rx, rows)
    if channel.field is None:
        return np.abs(H_sel @ t).max()
    return int(gf_matmul(H_sel, t, channel.field).max())


def test_unknown_receiver_rejected():
    ch = field_channel(SystemConfig(4, 1, 3, 2), seed=0)
    for rx in (0, 3):
        with pytest.raises(InvalidConfigError):
            ch.receiver_rows(rx, (0,))
        with pytest.raises(InvalidConfigError):
            apzf_precoder(ch, rx, (0,), column([1, 1, 1]))


def test_single_row_solution_closed_form():
    cfg = SystemConfig(2, 1, 1, 1)
    H = np.array([[0.3, -0.7], [0.5, 0.9]])
    ch = ChannelRealization(cfg=cfg, H=H)
    t = apzf_precoder(ch, 2, (0,), column([1.0]))
    # one equation h1 t1 + h2 = 0 gives t = [-h2/h1, 1]
    assert t.shape == (2, 1)
    assert np.allclose(t[:, 0], [-0.9 / 0.5, 1.0])


def test_zero_passive_gives_zero_vector():
    cfg = SystemConfig(3, 1, 2, 1)
    ch = sample_channel(cfg, seed=0)
    t = apzf_precoder(ch, 2, (0,), column([0.0, 0.0]))
    assert np.allclose(t, 0.0)


def test_two_row_cancellation_residual():
    cfg = SystemConfig(4, 2, 2, 2)
    ch = sample_channel(cfg, seed=3)
    t = apzf_precoder(ch, 2, (0, 1), column([1.0, 1.0]))
    assert residual(ch, 2, (0, 1), t) <= 1e-12 * np.abs(ch.H).max() * np.abs(t).max()


def test_field_cancellation_exact():
    cfg = SystemConfig(5, 2, 3, 2)
    ch = field_channel(cfg, seed=4)
    t = apzf_precoder(ch, 2, (0, 1), column([1, 2, 3]))
    assert residual(ch, 2, (0, 1), t) == 0
    # One row: informed antenna 1 is spare and sends the pattern's first entry.
    spare_t = apzf_precoder(ch, 1, (0,), column([5, 1, 2, 3]))
    assert residual(ch, 1, (0,), spare_t) == 0
    assert spare_t[1:, 0].tolist() == [5, 1, 2, 3]
    # Constants are reduced mod p on GF(p).
    negative_t = apzf_precoder(ch, 1, (0,), column([-5, 1, -2, 3]))
    assert negative_t[1:, 0].tolist() == [ch.field - 5, 1, ch.field - 2, 3]


def test_constant_part_passes_verbatim():
    cfg = SystemConfig(4, 1, 3, 2)
    ch = sample_channel(cfg, seed=1)
    for rows, pattern in [((0, 1), [2.0, -1.0]), ((0,), [0.5, 2.0, -1.0])]:
        t = apzf_precoder(ch, 2, rows, column(pattern))
        assert np.array_equal(t[len(rows):, 0], pattern)


def test_passive_part_identical_across_channels():
    cfg = SystemConfig(4, 1, 3, 2)
    pattern = column([1.0, 4.0])
    t1 = apzf_precoder(sample_channel(cfg, seed=1), 2, (0, 1), pattern)
    t2 = apzf_precoder(sample_channel(cfg, seed=2), 2, (0, 1), pattern)
    assert np.allclose(t1[2:], t2[2:])
    assert not np.allclose(t1[:2], t2[:2])


def test_scaling_linearity():
    cfg = SystemConfig(4, 1, 3, 2)
    ch = sample_channel(cfg, seed=5)
    pattern = column([1.0, -2.0])
    base = apzf_precoder(ch, 2, (0, 1), pattern)
    scaled = apzf_precoder(ch, 2, (0, 1), 3.0 * pattern)
    assert np.allclose(scaled, 3.0 * base)


def test_cancellation_dimension_law():
    # with |rows| = k the reachable precoders sweep an (M-k)-dim space
    cfg = SystemConfig(5, 2, 3, 2)
    ch = sample_channel(cfg, seed=6)
    stack = np.column_stack(
        [apzf_precoder(ch, 2, (0, 1), column(e)) for e in np.eye(cfg.M - cfg.k)]
    )
    assert np.linalg.matrix_rank(stack) == cfg.M - cfg.k


def test_capability_exceeded():
    cfg = SystemConfig(4, 1, 3, 1)
    ch = sample_channel(cfg, seed=7)
    with pytest.raises(CapabilityExceededError):
        apzf_precoder(ch, 2, (0, 1), column([1.0, 1.0]))


def test_rank_deficient_active_submatrix():
    cfg = SystemConfig(4, 1, 3, 1)
    H = np.ones((4, 4))
    H[0, 0] = 0.0
    H[1, 0] = 0.0  # informed column zero on the target row
    ch = ChannelRealization(cfg=cfg, H=H)
    with pytest.raises(ResampleRequiredError):
        apzf_precoder(ch, 1, (0,), column([1.0, 1.0, 1.0]))


@pytest.mark.parametrize("field", [False, True])
@pytest.mark.parametrize("spare", [False, True])
def test_stacked_patterns_equal_single_calls(field, spare):
    # spare: two rows for three informed antennas, else all three rows.
    cfg = SystemConfig(6, 2, 3, 3)
    ch = field_channel(cfg, seed=8) if field else sample_channel(cfg, seed=8)
    rows = (0, 1) if spare else (0, 1, 2)
    patterns = np.array([[1, -1, 2], [1, 2, -1], [3, 0, 1], [-2, 5, 4]])[-(cfg.M - len(rows)):]
    stacked = apzf_precoder(ch, 2, rows, patterns)
    assert stacked.shape == (cfg.M, patterns.shape[1])
    for j in range(patterns.shape[1]):
        single = apzf_precoder(ch, 2, rows, patterns[:, j : j + 1])
        assert np.array_equal(stacked[:, j], single[:, 0])


def test_field_rank_deficient_active_block_resamples_with_spare_antennas():
    # Two rows cancelled by the first two of three informed antennas, whose
    # block has rank 1: a degenerate draw even though antenna 2 is spare.
    cfg = SystemConfig(4, 1, 3, 3)
    H = np.ones((4, 4), dtype=np.int64)
    ch = ChannelRealization(cfg=cfg, H=H, field=field_channel(cfg, seed=0).field)
    with pytest.raises(ResampleRequiredError):
        apzf_precoder(ch, 2, (0, 1), column([1, 1]))


def test_field_patterns_beyond_int64_are_reduced_exactly():
    # A caller's pattern of Python ints can exceed 2^63 before reduction mod p.
    ch = field_channel(SystemConfig(4, 1, 3, 2), seed=3)
    big = [10**21, -(7**30), 1]
    reduced = [x % ch.field for x in big]
    assert np.array_equal(
        apzf_precoder(ch, 2, (0,), column(big)), apzf_precoder(ch, 2, (0,), column(reduced))
    )
