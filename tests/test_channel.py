import numpy as np
import pytest

from dofbc.channel import (
    ChannelDistribution,
    ChannelRealization,
    apply_tx_rotation,
    equivalent_square_channel,
    field_channel,
    rotated_channel,
    rotation_matrix,
    sample_channel,
    trial_rng,
)
from dofbc.config import SystemConfig
from dofbc.errors import InvalidConfigError, ResampleRequiredError
from dofbc.gf import DEFAULT_PRIME

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


def test_shapes_and_blocks():
    cfg = SystemConfig(4, 1, 3, 2)
    ch = sample_channel(cfg, seed=1)
    assert ch.H.shape == (4, 4)
    assert ch.H1.shape == (1, 4)
    assert ch.H2.shape == (3, 4)
    assert np.array_equal(ch.receiver_rows(2, [0, 2]), ch.H[[1, 3]])
    with pytest.raises(InvalidConfigError):
        ch.receiver_rows(1, [1])


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


def test_rotation_identity_when_square():
    cfg = SystemConfig(4, 1, 3, 2)
    rot = rotation_matrix(sample_channel(cfg, seed=5))
    assert np.array_equal(rot.R, np.eye(4))


def test_rotation_residual_small():
    cfg = SystemConfig(6, 1, 3, 2)
    ch = sample_channel(cfg, seed=9)
    rot = rotation_matrix(ch)
    product = rotated_channel(ch, rot)
    scale = np.abs(ch.H).max()
    assert np.abs(product[:, cfg.N :]).max() <= 1e-10 * scale
    assert np.array_equal(product[:, : cfg.N], ch.H[:, : cfg.N])
    assert abs(np.linalg.det(rot.R) - 1.0) < 1e-9


def test_rotation_block_structure():
    cfg = SystemConfig(7, 2, 3, 2)
    rot = rotation_matrix(sample_channel(cfg, seed=2))
    N = cfg.N
    assert np.array_equal(rot.R[:N, :N], np.eye(N))
    assert not rot.R[N:, :N].any()
    assert np.array_equal(rot.R[N:, N:], np.eye(cfg.M - N))


def test_rotation_field_exact():
    cfg = SystemConfig(8, 2, 4, 3)
    ch = field_channel(cfg, seed=4)
    rot = rotation_matrix(ch)
    product = rotated_channel(ch, rot)
    assert not product[:, cfg.N :].any()
    eq = equivalent_square_channel(ch)
    assert eq.cfg.shape == (6, 2, 4, 3)
    assert np.array_equal(eq.H, ch.H[:, : cfg.N])


def test_rotation_requires_wide_channel():
    cfg = SystemConfig(3, 2, 2, 1)
    with pytest.raises(InvalidConfigError):
        rotation_matrix(sample_channel(cfg, seed=1))


def test_rotation_singular_block_resamples():
    cfg = SystemConfig(5, 2, 2, 1)
    H = np.ones((4, 5))
    ch = ChannelRealization(cfg=cfg, H=H)
    with pytest.raises(ResampleRequiredError):
        rotation_matrix(ch)


def test_apply_tx_rotation_locality():
    cfg = SystemConfig(7, 2, 3, 2)
    ch = sample_channel(cfg, seed=6)
    rot = rotation_matrix(ch)
    rng = np.random.default_rng(0)
    x_empty = rng.normal(size=cfg.M - cfg.k)
    full_a, empty_a = apply_tx_rotation(rot, rng.normal(size=cfg.k), x_empty)
    full_b, empty_b = apply_tx_rotation(rot, rng.normal(size=cfg.k), x_empty)
    assert np.allclose(empty_a, empty_b)  # uninformed part ignores informed signals
    assert not np.allclose(full_a, full_b)
    x = np.concatenate([rng.normal(size=cfg.k), x_empty])
    scale = np.abs(ch.H).max() * np.abs(x).max()
    direct = ch.H @ (rot.R @ x)
    via_product = (rotated_channel(ch, rot)) @ x
    assert np.abs(direct - via_product).max() <= 1e-12 * max(scale, 1.0) * cfg.M


def test_apply_tx_rotation_identity_and_errors():
    cfg = SystemConfig(4, 1, 3, 2)
    rot = rotation_matrix(sample_channel(cfg, seed=5))
    x_star, x_empty = np.array([1.0, 2.0]), np.array([3.0, 4.0])
    full, empty = apply_tx_rotation(rot, x_star, x_empty)
    assert np.allclose(full, [1, 2, 3, 4])
    assert np.allclose(empty, x_empty)
    with pytest.raises(InvalidConfigError):
        apply_tx_rotation(rot, x_star, np.array([1.0]))


def test_rotation_residual_sweep():
    rng = np.random.default_rng(12)
    for trial in range(100):
        N1 = int(rng.integers(1, 5))
        N2 = int(rng.integers(N1, 6))
        M = int(rng.integers(N1 + N2 + 1, 13))
        k = int(rng.integers(0, M + 1))
        cfg = SystemConfig(M, N1, N2, k)
        ch = sample_channel(cfg, seed=100, index=trial)
        product = rotated_channel(ch, rotation_matrix(ch))
        assert np.abs(product[:, cfg.N :]).max() <= 1e-10 * np.abs(ch.H).max()
