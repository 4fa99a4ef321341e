"""Shared fixtures: hand-built plans for negative tests, and plan queries
that only tests ask."""

from __future__ import annotations

import numpy as np

from dofbc.channel import ChannelDistribution, sample_channel
from dofbc.config import SystemConfig
from dofbc.errors import ResampleRequiredError
from dofbc.gf import gf_matmul
from dofbc.precoding import apzf_precoder
from dofbc.schemes import (
    ApzfRecipe,
    FreshPayload,
    Slot,
    Stream,
    Symbol,
    SymbolRegistry,
    TransmissionPlan,
)
from dofbc.verifier import _precoder_matrices, realize_plan


def adversarial_plan() -> TransmissionPlan:
    """One RX2 symbol sent from antenna 1 of (3,1,2,1), cancelled at RX1 row 0."""
    cfg = SystemConfig(3, 1, 2, 1)
    registry = SymbolRegistry((Symbol("b1", 2),))
    slots = (Slot((Stream(FreshPayload("b1"), ApzfRecipe(1, 1, (0,))),)),)
    return TransmissionPlan(cfg=cfg, scheme_id="adversarial", registry=registry, slots=slots)


def leaky_apzf_precoder(channel, rx, rows, antennas):
    """`apzf_precoder` that sneaks a channel entry onto (uninformed) antenna 2,
    whose coefficients stay labelled constant; the compliance check must flag it."""
    t = apzf_precoder(channel, rx, rows, antennas)
    t[2] = channel.H[0, 0]
    return t


def overloaded_rx2_plan() -> TransmissionPlan:
    """(4,1,3,2) shaped plan pushing N2*(M-k)+1 = 7 fresh RX2 symbols into
    M-k = 2 slots: RX2 has only 6 observations, so it cannot decode."""
    cfg = SystemConfig(4, 1, 3, 2)
    syms = tuple(Symbol(f"b{i}", 2) for i in range(1, 8))
    registry = SymbolRegistry(syms)
    first = tuple(
        Stream(FreshPayload(f"b{i + 1}"), ApzfRecipe(i % cfg.M)) for i in range(4)
    )
    second = tuple(
        Stream(FreshPayload(f"b{i + 5}"), ApzfRecipe(i % cfg.M)) for i in range(3)
    )
    return TransmissionPlan(
        cfg=cfg,
        scheme_id="overloaded",
        registry=registry,
        slots=(Slot(first), Slot(second)),
    )


def max_streams_per_slot(plan: TransmissionPlan) -> int:
    return max(len(s.streams) for s in plan.slots)


def fresh_count(plan: TransmissionPlan, slot: int, rx: int) -> int:
    """Fresh symbols meant for receiver `rx` that slot `slot` of `plan` sends."""
    symbols = plan.registry.symbols
    return sum(
        1
        for stream in plan.slots[slot].streams
        if isinstance(stream.payload, FreshPayload)
        and symbols[plan.registry.index(stream.payload.symbol)].rx == rx
    )


def stream_gains(plan: TransmissionPlan, channel, slot_index: int) -> dict:
    """Per-stream receive gains H_i @ t_s of one slot on a GF(p) channel, keyed by receiver."""
    T_mat = _precoder_matrices(plan, channel)[slot_index]
    return {rx: gf_matmul(H, T_mat, channel.field) for rx, H in ((1, channel.H1), (2, channel.H2))}


def tight_regime_grid():
    """Acceptance criterion 3: N1 <= k < N2 < M <= min(10, N1 + N2)."""
    for N1 in range(1, 10):
        for N2 in range(N1 + 1, 11):
            for M in range(N2 + 1, min(10, N1 + N2) + 1):
                for k in range(N1, N2):
                    yield SystemConfig(M, N1, N2, k)


def low_k_grid():
    """Acceptance criterion 4: 1 <= k < N1 <= N2 <= 10, M <= 10, k <= M."""
    for N1 in range(2, 11):
        for N2 in range(N1, 11):
            for M in range(1, 11):
                for k in range(1, min(N1, M + 1)):
                    yield SystemConfig(M, N1, N2, k)


def per_trial_rate_slope(plan, rsc, seed=1, dist=ChannelDistribution(), draw=sample_channel):
    """(slope, mean_sum_rates, trials_used, discarded) of `rate_slope_estimate`,
    computed one trial and one SNR point at a time on 2-D matrices: the
    reference that rating trials in blocks must equal bit for bit.
    `draw(cfg, dist, seed, index)` makes each channel."""

    def log2det(A):
        sign, logdet = np.linalg.slogdet(A)
        if sign <= 0:
            raise FloatingPointError("non positive-definite covariance")
        return logdet / np.log(2.0)

    def rate(A, desired_cols, other_cols, P):
        if not desired_cols:
            return 0.0
        desired = A[:, desired_cols]
        interference = A[:, other_cols]  # one buffer on both sides: numpy's A @ A.T path
        sigma = np.eye(A.shape[0]) + P * (interference @ interference.T)
        total = sigma + P * (desired @ desired.T)
        return (log2det(total) - log2det(sigma)) / (2.0 * plan.T)

    snrs = [10 ** (db / 10.0) for db in rsc.snr_db]
    columns = [plan.registry.split(rx) for rx in (1, 2)]
    totals = np.zeros(len(snrs))
    used = discarded = 0
    for i in range(rsc.trials):
        rates = None
        for attempt in range(25):
            channel = draw(plan.cfg, dist, seed, index=25 * i + attempt)
            try:
                system = realize_plan(plan, channel)
                rates = [
                    rate(system.A1, *columns[0], P) + rate(system.A2, *columns[1], P) for P in snrs
                ]
                break
            except (ResampleRequiredError, FloatingPointError, np.linalg.LinAlgError):
                rates = None
        if rates is None or not np.all(np.isfinite(rates)):
            discarded += 1
            continue
        totals += np.asarray(rates)
        used += 1
    means = totals / used
    slope = float(np.polyfit(np.log2(np.sqrt(snrs)), means, 1)[0])
    return slope, tuple(float(v) for v in means), used, discarded
