import numpy as np
import pytest

from dofbc.config import SystemConfig, normalize_config
from dofbc.errors import InvalidConfigError


def test_swap_applied_when_receivers_out_of_order():
    cfg = normalize_config(9, 6, 3, 4)
    assert cfg.shape == (9, 3, 6, 4)


def test_ordered_input_unchanged():
    cfg = normalize_config(4, 1, 3, 2)
    assert cfg.shape == (4, 1, 3, 2)


@pytest.mark.parametrize(
    "raw",
    [
        (4, 1, 3, 5),  # k > M
        (0, 1, 3, 0),  # no transmit antennas
        (4, 0, 3, 1),  # zero-antenna receiver
        (4, 1, 0, 1),
        (4, 1, 3, -1),
        (4, "3", 1, 1),  # non-integer count
    ],
)
def test_invalid_configs_rejected(raw):
    with pytest.raises(InvalidConfigError):
        normalize_config(*raw)


def test_direct_construction_validates():
    with pytest.raises(InvalidConfigError):
        SystemConfig(4, 3, 1, 2)  # N1 > N2 not allowed post-normalization


@pytest.mark.parametrize(
    "raw",
    [
        (True, True, 2, False),  # would read as (1, 1, 2, 0)
        (4, 1, 3, True),
        (4, 1.0, 3, 2),
        (4.0, 1, 3, 2),
    ],
)
def test_bools_and_floats_rejected(raw):
    with pytest.raises(InvalidConfigError, match="must be an integer"):
        SystemConfig(*raw)
    with pytest.raises(InvalidConfigError, match="must be an integer"):
        normalize_config(*raw)
    with pytest.raises(InvalidConfigError, match="must be an integer"):
        normalize_config(raw[0], raw[2], raw[1], raw[3])  # swapped receivers too


def test_numpy_integers_stored_as_ints():
    cfg = normalize_config(np.int64(9), np.int32(6), np.uint8(3), np.int64(4))
    assert cfg.shape == (9, 3, 6, 4)
    assert all(type(v) is int for v in cfg.shape)
    assert cfg == SystemConfig(9, 3, 6, 4)
