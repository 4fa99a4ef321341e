import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dofbc.channel import ChannelRealization, field_channel, sample_channel
from dofbc.config import SystemConfig
from dofbc.errors import CapabilityExceededError, InvalidConfigError, ResampleRequiredError
from dofbc.gf import gf_matmul
from dofbc.precoding import apzf_precoder
from dofbc.schemes import select_scheme
from dofbc.verifier import realize_plan


def residual(channel, rx, rows, t):
    H_sel = channel.receiver_rows(rx, rows)
    if channel.field is None:
        return np.abs(H_sel @ t).max()
    return int(gf_matmul(H_sel, t).max())


def test_unknown_receiver_rejected():
    ch = field_channel(SystemConfig(4, 1, 3, 2), seed=0)
    for rx in (0, 3):
        with pytest.raises(InvalidConfigError):
            ch.receiver_rows(rx, (0,))
        with pytest.raises(InvalidConfigError):
            apzf_precoder(ch, rx, (0,), [1])


def test_antennas_outside_the_passive_range_rejected():
    ch = field_channel(SystemConfig(4, 1, 3, 2), seed=0)
    for antennas in ([1], [2, 4], [-1]):  # 1 solves for rows (0, 1); 4 and -1 do not exist
        with pytest.raises(InvalidConfigError, match=r"^AP-ZF streams must be sent from antennas 2\.\.3$"):
            apzf_precoder(ch, 2, (0, 1), antennas)
    # The range runs from the first passive antenna, k' = len(rows), to M - 1.
    wide = field_channel(SystemConfig(9, 3, 6, 4), seed=0)
    with pytest.raises(InvalidConfigError, match=r"^AP-ZF streams must be sent from antennas 1\.\.8$"):
        apzf_precoder(wide, 1, (0,), [9])


# A bool or a float receiver, row or antenna used to be truncated or to
# index as another one: rows (0.9,) cancelled at row 0, (True,) at row 1,
# rx=True and rx=1.0 passed as RX1, and a float antenna raised IndexError.
@pytest.mark.parametrize(
    "rx,rows,antennas",
    [
        (2, (0.9,), [1]),
        (2, (True,), [1]),
        (2, (np.float64(0.0),), [1]),
        (True, (0,), [1]),
        (1.0, (0,), [1]),
        (2, (0,), [1.0]),
        (2, (0,), [True]),
        (2, (0,), [np.float64(2.0)]),
    ],
)
@pytest.mark.parametrize("draw", [field_channel, sample_channel])
def test_non_integer_receiver_rows_and_antennas_rejected(draw, rx, rows, antennas):
    ch = draw(SystemConfig(4, 1, 3, 2), seed=0)
    with pytest.raises(InvalidConfigError, match="integer"):
        apzf_precoder(ch, rx, rows, antennas)
    if type(antennas[0]) is int:  # the receiver or a row is at fault
        with pytest.raises(InvalidConfigError, match="integer"):
            ch.receiver_rows(rx, rows)
    # Integer types other than int are accepted, as everywhere else.
    assert np.array_equal(
        apzf_precoder(ch, np.int64(2), (np.int64(0),), [np.int64(1)]), apzf_precoder(ch, 2, (0,), [1])
    )


@pytest.mark.parametrize("draw", [field_channel, sample_channel])
def test_repeated_rows_rejected(draw):
    # A repeated row makes the block singular on every draw, so resampling
    # cannot help: the call is invalid, as plan validation says.
    ch = draw(SystemConfig(4, 1, 3, 2), seed=0)
    with pytest.raises(InvalidConfigError, match="AP-ZF cancellation rows must be distinct"):
        apzf_precoder(ch, 2, (0, 0), [2])
    with pytest.raises(InvalidConfigError, match="distinct"):
        apzf_precoder(ch, 2, (1, np.int64(1)), [2, 3])


def test_single_row_solution_closed_form():
    cfg = SystemConfig(2, 1, 1, 1)
    H = np.array([[0.3, -0.7], [0.5, 0.9]])
    ch = ChannelRealization(cfg=cfg, H=H)
    t = apzf_precoder(ch, 2, (0,), [1])
    # one equation h1 t1 + h2 = 0 gives t = [-h2/h1, 1]
    assert t.shape == (2, 1)
    assert np.allclose(t[:, 0], [-0.9 / 0.5, 1.0])


def test_two_row_cancellation_residual():
    cfg = SystemConfig(4, 2, 2, 2)
    ch = sample_channel(cfg, seed=3)
    t = apzf_precoder(ch, 2, (0, 1), [2, 3])
    assert residual(ch, 2, (0, 1), t) <= 1e-12 * np.abs(ch.H).max() * np.abs(t).max()


def test_field_cancellation_exact():
    cfg = SystemConfig(5, 2, 3, 2)
    ch = field_channel(cfg, seed=4)
    t = apzf_precoder(ch, 2, (0, 1), [2, 3, 4])
    assert residual(ch, 2, (0, 1), t) == 0
    # One row: informed antenna 1 is spare and sends a constant, 1 or 0.
    spare_t = apzf_precoder(ch, 1, (0,), [1, 2, 3, 4])
    assert residual(ch, 1, (0,), spare_t) == 0
    assert np.array_equal(spare_t[1:], np.eye(4, dtype=np.int64))


def test_constant_part_passes_verbatim():
    cfg = SystemConfig(4, 1, 3, 2)
    ch = sample_channel(cfg, seed=1)
    for rows, antenna in [((0, 1), 3), ((0,), 2)]:
        t = apzf_precoder(ch, 2, rows, [antenna])
        assert np.array_equal(t[len(rows):, 0], np.eye(cfg.M)[len(rows):, antenna])


def test_passive_part_identical_across_channels():
    cfg = SystemConfig(4, 1, 3, 2)
    t1 = apzf_precoder(sample_channel(cfg, seed=1), 2, (0, 1), [3])
    t2 = apzf_precoder(sample_channel(cfg, seed=2), 2, (0, 1), [3])
    assert np.array_equal(t1[2:], t2[2:])
    assert not np.allclose(t1[:2], t2[:2])


def test_cancellation_dimension_law():
    # with |rows| = k the reachable precoders sweep an (M-k)-dim space
    cfg = SystemConfig(5, 2, 3, 2)
    ch = sample_channel(cfg, seed=6)
    stack = np.column_stack([apzf_precoder(ch, 2, (0, 1), [a]) for a in range(cfg.k, cfg.M)])
    assert np.linalg.matrix_rank(stack) == cfg.M - cfg.k


def test_capability_exceeded():
    cfg = SystemConfig(4, 1, 3, 1)
    ch = sample_channel(cfg, seed=7)
    with pytest.raises(CapabilityExceededError):
        apzf_precoder(ch, 2, (0, 1), [2])


def test_rank_deficient_active_submatrix():
    cfg = SystemConfig(4, 1, 3, 1)
    H = np.ones((4, 4))
    H[0, 0] = 0.0
    H[1, 0] = 0.0  # informed column zero on the target row
    ch = ChannelRealization(cfg=cfg, H=H)
    with pytest.raises(ResampleRequiredError):
        apzf_precoder(ch, 1, (0,), [1, 2, 3])


@pytest.mark.parametrize("error,raises", [(1e-6, True), (1e-13, False)])
def test_real_residual_check_raises_a_resample(monkeypatch, error, raises):
    # Every LAPACK solution is shifted by `error`: a residual A X + B past
    # the 1e-9 relative bound raises a resample through `apzf_precoder` and
    # `realize_plan`, on one draw and on a stack; a rounding-sized one passes.
    plan = select_scheme(SystemConfig(4, 1, 3, 2))
    lapack = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: lapack(a, b) + error)
    for index in (0, [0, 25, 50]):
        ch = sample_channel(plan.cfg, seed=0, index=index)
        for call in (lambda: apzf_precoder(ch, 2, (0, 1), [2, 3]), lambda: apzf_precoder(ch, 1, (0,), [1]),
                     lambda: realize_plan(plan, ch)):
            if raises:
                with pytest.raises(ResampleRequiredError, match="residual"):
                    call()
            else:
                call()


@pytest.mark.parametrize("field", [False, True])
@pytest.mark.parametrize("spare", [False, True])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_stacked_patterns_equal_single_calls(field, spare, data):
    # A group's antennas solved in one call equal one call per antenna.
    # spare: fewer rows than informed antennas, else k rows.
    M = data.draw(st.integers(2, 8), label="M")
    k = data.draw(st.integers(1, M - 1), label="k")
    N1 = data.draw(st.integers(k, k + 2), label="N1")
    cfg = SystemConfig(M, N1, data.draw(st.integers(N1, N1 + 2), label="N2"), k)
    rx = data.draw(st.sampled_from([1, 2]), label="rx")
    kp = data.draw(st.integers(0, k - 1), label="kp") if spare else k
    receive = st.integers(0, (cfg.N1 if rx == 1 else cfg.N2) - 1)
    rows = tuple(data.draw(st.lists(receive, min_size=kp, max_size=kp, unique=True), label="rows"))
    antennas = data.draw(
        st.lists(st.integers(kp, M - 1), min_size=1, max_size=M - kp, unique=True),
        label="antennas",
    )
    seed = data.draw(st.integers(0, 2**16), label="seed")
    ch = field_channel(cfg, seed=seed) if field else sample_channel(cfg, seed=seed)
    grouped = apzf_precoder(ch, rx, rows, antennas)
    assert grouped.shape == (M, len(antennas)) and grouped.dtype == ch.H.dtype
    for j, a in enumerate(antennas):
        single = apzf_precoder(ch, rx, rows, [a])
        assert np.array_equal(grouped[:, j], single[:, 0])
        passive = np.zeros(M - kp, dtype=ch.H.dtype)
        passive[a - kp] = 1
        assert np.array_equal(grouped[kp:, j], passive)
    if field and kp:
        assert residual(ch, rx, rows, grouped) == 0


def test_field_rank_deficient_active_block_resamples_with_spare_antennas():
    # Two rows cancelled by the first two of three informed antennas, whose
    # block has rank 1: a degenerate draw even though antenna 2 is spare.
    cfg = SystemConfig(4, 1, 3, 3)
    H = np.ones((4, 4), dtype=np.int64)
    ch = ChannelRealization(cfg=cfg, H=H)
    with pytest.raises(ResampleRequiredError):
        apzf_precoder(ch, 2, (0, 1), [2, 3])
