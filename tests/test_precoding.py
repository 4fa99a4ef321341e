import numpy as np
import pytest

from dofbc.channel import ChannelRealization, field_channel, sample_channel
from dofbc.config import SystemConfig
from dofbc.errors import CapabilityExceededError, ResampleRequiredError
from dofbc.gf import gf_matmul
from dofbc.precoding import CHANNEL, CONSTANT, CancellationTarget, apzf_precoder


def residual(channel, target, t):
    H_sel = channel.receiver_rows(target.rx, target.antenna_rows)
    if channel.field is None:
        return np.abs(H_sel @ t).max()
    return int(gf_matmul(H_sel, t[:, None], channel.field).max())


def test_single_row_solution_closed_form():
    cfg = SystemConfig(2, 1, 1, 1)
    H = np.array([[0.3, -0.7], [0.5, 0.9]])
    ch = ChannelRealization(cfg=cfg, H=H)
    target = CancellationTarget(rx=2, antenna_rows=(0,))
    t = apzf_precoder(ch, target, passive=np.array([1.0])).coeffs
    # one equation h1 t1 + h2 = 0 gives t = [-h2/h1, 1]
    assert np.allclose(t, [-0.9 / 0.5, 1.0])


def test_zero_passive_gives_zero_vector():
    cfg = SystemConfig(3, 1, 2, 1)
    ch = sample_channel(cfg, seed=0)
    target = CancellationTarget(rx=2, antenna_rows=(0,))
    t = apzf_precoder(ch, target, passive=np.zeros(2)).coeffs
    assert np.allclose(t, 0.0)


def test_two_row_cancellation_residual():
    cfg = SystemConfig(4, 2, 2, 2)
    ch = sample_channel(cfg, seed=3)
    target = CancellationTarget(rx=2, antenna_rows=(0, 1))
    t = apzf_precoder(ch, target, passive=np.array([1.0, 1.0])).coeffs
    assert residual(ch, target, t) <= 1e-12 * np.abs(ch.H).max() * np.abs(t).max()


def test_field_cancellation_exact():
    cfg = SystemConfig(5, 2, 3, 2)
    ch = field_channel(cfg, seed=4)
    target = CancellationTarget(rx=2, antenna_rows=(0, 1))
    t = apzf_precoder(ch, target, passive=np.array([1, 2, 3])).coeffs
    assert residual(ch, target, t) == 0
    aux_t = apzf_precoder(ch, CancellationTarget(rx=1, antenna_rows=(0,)),
                          passive=np.array([1, 2, 3]), aux=np.array([5])).coeffs
    assert residual(ch, CancellationTarget(rx=1, antenna_rows=(0,)), aux_t) == 0
    assert aux_t[1] == 5  # pinned spare informed coefficient


def test_passive_part_and_labels():
    cfg = SystemConfig(4, 1, 3, 2)
    ch = sample_channel(cfg, seed=1)
    target = CancellationTarget(rx=2, antenna_rows=(0, 1))
    passive = np.array([2.0, -1.0])
    vec = apzf_precoder(ch, target, passive)
    assert np.allclose(vec.coeffs[2:], passive)
    assert vec.labels == (CHANNEL, CHANNEL, CONSTANT, CONSTANT)
    assert vec.constant_support == (2, 3)


def test_passive_part_identical_across_channels():
    cfg = SystemConfig(4, 1, 3, 2)
    target = CancellationTarget(rx=2, antenna_rows=(0, 1))
    passive = np.array([1.0, 4.0])
    t1 = apzf_precoder(sample_channel(cfg, seed=1), target, passive).coeffs
    t2 = apzf_precoder(sample_channel(cfg, seed=2), target, passive).coeffs
    assert np.allclose(t1[2:], t2[2:])
    assert not np.allclose(t1[:2], t2[:2])


def test_scaling_linearity():
    cfg = SystemConfig(4, 1, 3, 2)
    ch = sample_channel(cfg, seed=5)
    target = CancellationTarget(rx=2, antenna_rows=(0, 1))
    passive = np.array([1.0, -2.0])
    base = apzf_precoder(ch, target, passive).coeffs
    scaled = apzf_precoder(ch, target, 3.0 * passive).coeffs
    assert np.allclose(scaled, 3.0 * base)


def test_cancellation_dimension_law():
    # with |rows| = k the reachable precoders sweep an (M-k)-dim space
    cfg = SystemConfig(5, 2, 3, 2)
    ch = sample_channel(cfg, seed=6)
    target = CancellationTarget(rx=2, antenna_rows=(0, 1))
    basis = np.eye(cfg.M - cfg.k)
    stack = np.stack([apzf_precoder(ch, target, e).coeffs for e in basis])
    assert np.linalg.matrix_rank(stack) == cfg.M - cfg.k


def test_capability_exceeded():
    cfg = SystemConfig(4, 1, 3, 1)
    ch = sample_channel(cfg, seed=7)
    with pytest.raises(CapabilityExceededError):
        apzf_precoder(ch, CancellationTarget(rx=2, antenna_rows=(0, 1)), np.ones(3))


def test_rank_deficient_active_submatrix():
    cfg = SystemConfig(4, 1, 3, 1)
    H = np.ones((4, 4))
    H[0, 0] = 0.0
    H[1, 0] = 0.0  # informed column zero on the target row
    ch = ChannelRealization(cfg=cfg, H=H)
    with pytest.raises(ResampleRequiredError):
        apzf_precoder(ch, CancellationTarget(rx=1, antenna_rows=(0,)), np.ones(3))


@pytest.mark.parametrize("field", [False, True])
@pytest.mark.parametrize("with_aux", [False, True])
def test_stacked_patterns_equal_single_calls(field, with_aux):
    cfg = SystemConfig(6, 2, 3, 3)
    ch = field_channel(cfg, seed=8) if field else sample_channel(cfg, seed=8)
    target = CancellationTarget(rx=2, antenna_rows=(0, 1))
    passive = np.array([[1, 2, -1], [3, 0, 1], [-2, 5, 4]])
    aux = np.array([[1, -1, 2]]) if with_aux else None
    stacked = apzf_precoder(ch, target, passive, aux)
    for j in range(passive.shape[1]):
        single = apzf_precoder(ch, target, passive[:, j], None if aux is None else aux[:, j])
        assert np.array_equal(stacked.coeffs[:, j], single.coeffs)
        assert stacked.labels == single.labels


def test_field_rank_deficient_active_block_resamples_with_spare_antennas():
    # Two rows cancelled by three informed antennas whose block has rank 1:
    # the system is consistent yet rank-deficient, a degenerate draw.
    cfg = SystemConfig(4, 1, 3, 3)
    H = np.ones((4, 4), dtype=np.int64)
    ch = ChannelRealization(cfg=cfg, H=H, field=field_channel(cfg, seed=0).field)
    with pytest.raises(ResampleRequiredError):
        apzf_precoder(ch, CancellationTarget(rx=2, antenna_rows=(0, 1)), np.ones(1))
