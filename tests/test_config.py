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
