"""Plan realization, exact decodability certification, and rate-slope checks.

`realize_plan` turns a transmission plan plus one channel realization into
per-receiver observation systems: matrices A_i mapping the information
symbols to every noiseless received sample of receiver i across the block.
Retransmission payloads are expanded to their linear forms over the original
symbols (coupled streams via a within-block fixed point), so decodability is
a pure rank statement:

    receiver i decodes its symbols  iff  it recovers them all, where it
    recovers rank(A_i) - rank(A_i without its columns) symbols.

The plan's registry splits A_i's columns into the desired and interference
symbols of receiver i (`SymbolRegistry.split`), and fixes each receiver's
rank order once: its columns as [interference | desired] in one read-only
index array, with the split point (`SymbolRegistry._rank_orders`, shared by
every plan of a registry).  The certificate and the rate slopes both read
that one order.  Certification is exact: one elimination mod p of
[interference | desired] counts the recovered symbols as its pivots among
the desired columns, and a receiver with no desired symbols recovers 0 of 0
without one.  A certified plan achieves the DoF it claims, `plan.claimed_dof`.
Realizing reads the plan's index arrays (`TransmissionPlan.layout`).  Every
stream is sent with coefficient 1 from its one antenna; streams that AP-ZF
cancels at the same rows of the same receiver share one solve per channel.
On either field the precoders come straight from the layout, without
`apzf_precoder` or its argument checks, which the plan's `_Structure` made
once: a copy of the layout's [I_M | Z] template in H's dtype receives
each target's solution, gathered from H by the layout's flat indices and
solved by `precoding._solution`, the one AP-ZF solve (one compiled call on
GF(p); checked LAPACK solves on a real channel).  On GF(p) one product
H [I_M | Z] covers every column, a fresh stream's samples are a gather, and
only interference and coupled streams need a product.  Every GF(p) product
and solve goes through `gf._product` and `gf._solve_in_place`, on fresh
C-ordered arrays already in range, so nothing is reduced or checked twice.
CSIT compliance compares the precoders `realize_plan` recorded under two of
the certification's own channels.  Real channels serve only the rate
slopes, realized at unit transmit power per slot.
Monte Carlo rate slopes use the standard real-Gaussian log-det rate with the
other user's columns treated as noise; the high-SNR slope against
log2(sqrt(P)) then recovers each receiver's DoF.

Both `achieved_dof` and `rate_slope_estimate` realize their trials in blocks
sized by a cell budget: a block holds max(10, `_BLOCK_CELLS` // cells)
trials, where cells = N T (S + aux) is the size of one trial's observation
matrices, so a small plan's trials all fit in one stack.  A block is the
stack of its trials' first draws, drawn in one call with the same bits a
trial-by-trial loop would draw: by the compiled kernel, which replays
SeedSequence((seed, index)) and numpy's draws, or else index by index
through `channel.trial_rng`.  A block whose evaluation raises (a singular
draw, a measure-zero event) is redone trial by trial, each trial on
one-draw stacks with that loop's resamples.
Trials are independent, so every result equals one of evaluating each
trial alone: GF(p) arithmetic is exact, and every float numpy call on the
stack rounds each trial as it would alone, so the slopes are bit-identical
too.  Certification ranks a block with one compiled call per receiver with
desired symbols (`gf._ranks`), on the block's matrices gathered along the
receiver's rank order, each member ranked as it would be alone.  Only the
first failing trial gets a `DecodabilityReport`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Real

import numpy as np

from .channel import ChannelDistribution, ChannelRealization, field_channel, sample_channel
from .errors import InvalidConfigError, ResampleRequiredError, as_integer
from .gf import DEFAULT_PRIME, _product, _ranks, _solve_in_place, gf_array
from .gf import gf_rank  # noqa: F401  (kept here: perfbench traces dofbc.verifier.gf_rank)
from .precoding import _solution
from .schemes import SlotLayout, SymbolRegistry, TransmissionPlan

_MAX_RESAMPLE = 25
# Observation-matrix cells that `achieved_dof` and `rate_slope_estimate`
# realize in one pass, and the fewest trials a block holds: enough to spread
# the per-call overhead, few enough to keep the stacks small.
_BLOCK_CELLS = 2**15
_MIN_BLOCK = 10
_RESAMPLE_ERRORS = (ResampleRequiredError, FloatingPointError, np.linalg.LinAlgError)


@dataclass(frozen=True)
class ObservationSystem:
    """Stacked symbol-to-sample maps for both receivers under one channel.

    `precoders` holds the per-slot M x streams precoder matrices the maps
    were built with; CSIT compliance compares them across channels.  Under
    a stacked real channel every array has its leading trial axis.
    """

    A1: np.ndarray
    A2: np.ndarray
    registry: SymbolRegistry
    precoders: tuple[np.ndarray, ...] = ()

    @property
    def field(self) -> int | None:
        """2^31 - 1 for int64 maps, None for real ones, as `ChannelRealization.field`."""
        return DEFAULT_PRIME if self.A1.dtype.kind == "i" else None


@dataclass(frozen=True)
class ReceiverReport:
    desired: int
    recovered: int  # rank(A) - rank(A without the desired columns)

    @property
    def decodable(self) -> bool:
        return self.recovered == self.desired


@dataclass(frozen=True)
class DecodabilityReport:
    rx1: ReceiverReport
    rx2: ReceiverReport

    @property
    def all_decodable(self) -> bool:
        return self.rx1.decodable and self.rx2.decodable

    def to_json(self) -> dict:
        def rx_doc(r):
            return {"desired": r.desired, "recovered": r.recovered, "decodable": r.decodable}

        return {"rx1": rx_doc(self.rx1), "rx2": rx_doc(self.rx2)}


def _check_trials(trials) -> None:
    """A trial count is a positive integer; a bool or a float is rejected."""
    if as_integer(trials, "trial count") < 1:
        raise InvalidConfigError("at least one trial required")


def _precoder_columns(plan: TransmissionPlan, channel: ChannelRealization) -> np.ndarray:
    """[I_M | Z] under `channel`, in its dtype and with its trial axis if
    any; every stream's precoder is one column.  A copy of the layout's
    template receives each AP-ZF target's solution, gathered and solved
    straight from the layout (`precoding._solution`)."""
    H, layout = channel.H, plan.layout
    columns = np.empty(H.shape[:-2] + layout.template.shape, dtype=H.dtype)
    columns[...] = layout.template
    for rx, kp, span, index in layout.systems:
        columns[..., :kp, span] = _solution(H, 0 if rx == 1 else channel.cfg.N1, index, channel.field)
    return columns


def _precoder_matrices(plan: TransmissionPlan, channel: ChannelRealization) -> list[np.ndarray]:
    """One M x streams precoder matrix per slot of `plan` under `channel`,
    with the channel's dtype (reduced mod p on GF(p)) and its trial axis."""
    columns = _precoder_columns(plan, channel)
    return [columns.take(slot.columns, axis=-1) for slot in plan.layout.slots]


def _reduce(x, p: int | None):
    """x mod p on GF(p); real values pass through."""
    return x if p is None else x % p


def _slot_samples(channel: ChannelRealization, T_mat, forms, slot: SlotLayout, gains: np.ndarray):
    """Noiseless samples (RX1, RX2) of one slot: H_i @ T_mat @ forms.

    On a real channel the slot is first scaled to equal power per stream and
    unit total power, which keeps every receive gain O(1) so rate curves
    enter the DoF regime early; scaling never changes rank structure.  On
    GF(p), a fresh stream's samples are its column of `gains` = H @ [I_M | Z];
    only interference and coupled streams need a product.
    """
    p = channel.field
    if p is None:
        norms = np.linalg.norm(T_mat, axis=-2)
        norms[norms == 0] = 1.0
        T_mat = T_mat / norms[..., None, :] / np.sqrt(T_mat.shape[-1])
        # One product per receiver: stacking them would change float bits.
        return (channel.H1 @ T_mat) @ forms, (channel.H2 @ T_mat) @ forms
    received = np.zeros(gains.shape[:-1] + forms.shape[-1:], dtype=np.int64)
    received[..., slot.forms[: len(slot.sources)]] = gains.take(slot.sources, axis=-1)
    if slot.mixed.size:  # both factors are fresh reduced C-ordered gathers
        received += _product(gains.take(slot.columns[slot.mixed], axis=-1),
                             forms.take(slot.mixed, axis=-2), p)
        received %= p
    return received[..., : channel.cfg.N1, :], received[..., channel.cfg.N1 :, :]


def _fixed_point(E: np.ndarray, S: int, p: int | None) -> np.ndarray:
    """phi with phi = E[:, :S] + E[:, S:] @ phi: the coupled streams' forms."""
    lhs = _reduce(np.eye(E.shape[-2], dtype=E.dtype) - E[..., S:], p)
    if p is not None:
        aug = np.concatenate([lhs, E[..., :S]], axis=-1)  # fresh, C-ordered, in [0, p)
        _solve_in_place(aug, p)  # raises ResampleRequiredError if singular
        return aug[..., E.shape[-2] :]
    try:
        return np.linalg.solve(lhs, E[..., :S])
    except np.linalg.LinAlgError as exc:
        raise ResampleRequiredError("coupled-stream fixed point is singular") from exc


def realize_plan(plan: TransmissionPlan, channel: ChannelRealization) -> ObservationSystem:
    """Expand a plan against one channel into observation matrices A_1, A_2.

    GF(p) channels give the exact matrices that certification ranks.  Real
    channels give the matrices behind the rate slopes, at unit transmit power
    per slot and with unit-norm retransmitted forms.  A channel with a
    leading trial axis gives A_1, A_2 (and precoders) with that axis, each
    trial bit-identical to realizing its draw alone; a singular draw anywhere
    in the stack raises ResampleRequiredError for the whole stack.
    """
    cfg = plan.cfg
    if channel.cfg.shape != cfg.shape:
        raise InvalidConfigError(
            f"plan built for {cfg.shape} cannot run on channel {channel.cfg.shape}"
        )
    p = channel.field
    S = len(plan.registry.symbols)
    ncols = S + plan.aux_count
    dtype = channel.H.dtype
    trials = channel.H.shape[:-2]
    columns = _precoder_columns(plan, channel)
    gains = channel.H
    if p is not None and plan.layout.systems:  # H [I_M | Z] = [H | H Z], one product per channel
        gains = _product(np.ascontiguousarray(channel.H), columns, p)
    samples: list[tuple[np.ndarray, np.ndarray]] = []

    def combine(terms) -> np.ndarray:
        """Weighted sum of earlier received samples."""
        acc = np.zeros(trials + (ncols,), dtype=dtype)
        for slot, rx, row, weight in terms:
            acc = _reduce(acc + _reduce(weight, p) * samples[slot][rx - 1][..., row, :], p)
        return acc

    precoders = [columns.take(slot.columns, axis=-1) for slot in plan.layout.slots]
    for slot, T_mat in zip(plan.layout.slots, precoders):
        forms = np.zeros(trials + (len(slot.columns), ncols), dtype=dtype)
        forms[..., slot.rows, slot.forms] = 1
        for s_idx, owned, terms in slot.interference:
            form = np.zeros(trials + (ncols,), dtype=dtype)
            form[..., owned] = combine(terms)[..., owned]
            if p is None:
                # The same dot product as np.linalg.norm's, per trial.
                norm = np.sqrt(form[..., None, :] @ form[..., :, None])[..., 0]
                norm[~(norm > 0)] = 1.0  # as for one draw: divide by positive norms only
                form = form / norm
            forms[..., s_idx, :] = form
        samples.append(_slot_samples(channel, T_mat, forms, slot, gains))

    if plan.aux_count:
        E = np.stack([combine(terms) for terms in plan.layout.coupled], axis=-2)
        phi = _fixed_point(E, S, p)

    def stack(rx: int) -> np.ndarray:
        parts = [slot_samples[rx - 1] for slot_samples in samples]
        full = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=-2)
        if plan.aux_count:
            if p is None:
                coupled = full[..., S:] @ phi
            else:
                coupled = _product(np.ascontiguousarray(full[..., S:]), np.ascontiguousarray(phi), p)
            return _reduce(full[..., :S] + coupled, p)
        return full[..., :S]

    return ObservationSystem(stack(1), stack(2), plan.registry, tuple(precoders))


def decodability_check(system: ObservationSystem) -> DecodabilityReport:
    """Exact rank certificate of symbol recovery for both receivers.

    A receiver recovers rank(A) - rank(A without its desired columns)
    symbols: the pivots among the desired columns of one elimination mod p
    of A's columns ordered [interference | desired].  A receiver with no
    desired symbols recovers 0 of 0 for every A, so it needs no elimination.
    """
    p = system.field
    if p is None:
        raise InvalidConfigError("decodability is certified on GF(p) channels only")
    A1, A2 = gf_array(system.A1, p), gf_array(system.A2, p)  # any integer dtype, any entries
    if A1.ndim != 2 or A2.ndim != 2:
        raise ValueError(f"decodability_check expects 2-D maps, not {A1.ndim}-D and {A2.ndim}-D")
    (recovered,) = _recovered(A1[None], A2[None], system.registry, p)
    return _report(system.registry, recovered)


def _recovered(A1, A2, registry: SymbolRegistry, p: int) -> list[tuple[int, int]]:
    """(RX1, RX2) recovered-symbol counts of each member of the int64 stacks
    A1, A2 with entries in [0, p), as `realize_plan` builds them: a
    receiver's rank minus its interference rank, from one `gf._ranks` call
    on a copy gathered along its rank order, or 0 without desired symbols."""
    counts = []
    for A, (order, split) in zip((A1, A2), registry._rank_orders):
        if split == len(order):
            counts.append([0] * len(A))
        else:
            counts.append(map(int.__sub__, *_ranks(A.take(order, axis=-1), split, p)))
    return list(zip(*counts))


def _desired(registry: SymbolRegistry) -> tuple[int, int]:
    """(RX1, RX2) desired-symbol counts: what each receiver must recover."""
    (order1, split1), (order2, split2) = registry._rank_orders
    return len(order1) - split1, len(order2) - split2


def _report(registry: SymbolRegistry, recovered: tuple[int, int]) -> DecodabilityReport:
    """The `DecodabilityReport` of one member's recovered-symbol counts."""
    return DecodabilityReport(*map(ReceiverReport, _desired(registry), recovered))


@dataclass(frozen=True)
class CertificationResult:
    trials: int
    failures: tuple[int, ...]
    resamples: int
    dof: Fraction | None
    compliance: ComplianceReport
    first_failure_report: DecodabilityReport | None = None

    @property
    def ok(self) -> bool:
        return not self.failures and self.dof is not None


def _block_size(plan: TransmissionPlan) -> int:
    """Trials per block: `_BLOCK_CELLS` over one trial's N T (S + aux)
    observation-matrix cells, and at least `_MIN_BLOCK`."""
    cells = plan.cfg.N * plan.T * (len(plan.registry.symbols) + plan.aux_count)
    return max(_MIN_BLOCK, _BLOCK_CELLS // cells)


def _trial_results(plan: TransmissionPlan, trials: int, draw, evaluate, errors, extra=()):
    """Yield (result, resamples) of trials 0, 1, ..., then of the draws at `extra`.

    Trials run in blocks of `_block_size(plan)`: `evaluate` maps one stack
    of the block's first draws (index 25 i for trial i, with the `extra`
    indices added to block 0) to one result per draw.  If it raises one of
    `errors`, each trial of the block is redone alone by `_resampled`, and
    each extra draw yields (None, 0).
    """
    size = _block_size(plan)
    for start in range(0, trials, size):
        indices = [i * _MAX_RESAMPLE for i in range(start, min(start + size, trials))]
        indices += list(extra if start == 0 else ())
        try:
            results = evaluate(draw(indices))
        except errors:
            results = None  # redone below, once the raising stack is freed
        if results is not None:
            yield from ((result, 0) for result in results)
            continue
        for index in indices:
            i = index // _MAX_RESAMPLE
            yield _resampled(i, draw, evaluate, errors) if i < trials else (None, 0)


def _resampled(i: int, draw, evaluate, errors):
    """(result, resamples) of trial i alone: `evaluate` on the one-draw
    stacks of draws 25 i + a, a = 0, 1, ..., until one does not raise one of
    `errors`; (None, 25) if every draw does."""
    for attempt in range(_MAX_RESAMPLE):
        try:
            (result,) = evaluate(draw([i * _MAX_RESAMPLE + attempt]))
            return result, attempt
        except errors:
            pass
    return None, _MAX_RESAMPLE


def achieved_dof(plan: TransmissionPlan, trials: int = 50, seed: int = 1) -> CertificationResult:
    """Certify the plan on `trials` independent GF(2^31 - 1) channels.

    This is the one certification entry point; on channels of your own,
    compose `realize_plan`, `decodability_check` and `csit_compliance`.
    Singular draws (AP-ZF submatrix or fixed-point degeneracies) are
    resampled, as they are measure-zero events; genuine decodability
    failures are recorded with their trial index.  CSIT compliance compares
    the precoders of trial 0's and trial 1's accepted channels; a one-trial
    run precodes trial 1's first draw (index 25) for it, without ranking it,
    and a singular draw there raises ResampleRequiredError.

    Trials are realized in blocks sized by the plan's cells (see the module
    docstring): one `realize_plan` call on a stack of the block's first
    draws, with index 25 added to a one-trial run's block.  If a draw of the
    block is singular, each of its trials is realized and resampled alone,
    so `dof`, `failures`, `resamples` and compliance equal those of
    realizing each trial alone.  Each receiver ranks a block's trials in one
    call (`_recovered`).
    """
    _check_trials(trials)
    desired = _desired(plan.registry)

    def draw(index) -> ChannelRealization:
        return field_channel(plan.cfg, seed, index=index)

    def realize(channel: ChannelRealization) -> list[tuple[tuple[int, int] | None, tuple, int]]:
        """(recovered, precoders, j) per draw of the stacked `channel`: its
        recovered-symbol counts, None past `trials` (a one-trial run's
        compliance draw), and its precoders T[j] for T in `precoders`.  The
        observation matrices are not kept once ranked."""
        system = realize_plan(plan, channel)
        ranked = _recovered(system.A1[:trials], system.A2[:trials], plan.registry, system.field)
        ranked += [None] * (len(system.A1) - len(ranked))
        return [(recovered, system.precoders, j) for j, recovered in enumerate(ranked)]

    failures = []
    first_failure = None
    precoders = []
    resamples = 0
    extra = (_MAX_RESAMPLE,) if trials == 1 else ()
    results = _trial_results(plan, trials, draw, realize, ResampleRequiredError, extra)
    for i, (drawn, attempts) in enumerate(results):
        if i == trials:  # the compliance draw of a one-trial run, not ranked
            if drawn is None:  # its block raised: precode it alone, raising if singular
                precoders.append(_precoder_matrices(plan, draw(_MAX_RESAMPLE)))
            else:
                _, stacked, j = drawn
                precoders.append(tuple(T[j] for T in stacked))
            break
        if drawn is None:
            raise ResampleRequiredError(f"resampling exhausted on trial {i}")
        resamples += attempts
        recovered, stacked, j = drawn
        if recovered != desired:
            if not failures:
                first_failure = _report(plan.registry, recovered)
            failures.append(i)
        if i < 2:
            precoders.append(tuple(T[j] for T in stacked))
    return CertificationResult(
        trials=trials,
        failures=tuple(failures),
        resamples=resamples,
        dof=None if failures else plan.claimed_dof,
        compliance=csit_compliance(plan, *precoders),
        first_failure_report=first_failure,
    )


@dataclass(frozen=True)
class ComplianceViolation:
    slot: int
    stream: int
    antenna: int
    reason: str


@dataclass(frozen=True)
class ComplianceReport:
    violations: tuple[ComplianceViolation, ...]

    @property
    def compliant(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "compliant": self.compliant,
            "violations": [
                {"slot": v.slot, "stream": v.stream, "antenna": v.antenna, "reason": v.reason}
                for v in self.violations
            ],
        }


def csit_compliance(plan: TransmissionPlan, precoders_a, precoders_b) -> ComplianceReport:
    """Check that uninformed antennas never emit channel-dependent coefficients.

    `precoders_a` and `precoders_b` are the plan's per-slot precoder matrices
    under two channels (`ObservationSystem.precoders`), one M x streams matrix
    per slot; no channel is drawn here.  Every coefficient on an uninformed
    antenna must be labeled constant and take identical values in both
    realizations, and every channel-dependent label must sit on an informed
    antenna.
    """
    slots, k = plan.layout.slots, plan.cfg.k
    shapes = [slot.constant.shape for slot in slots]
    if not [np.shape(T) for T in precoders_a] == [np.shape(T) for T in precoders_b] == shapes:
        raise InvalidConfigError("compliance needs one M x streams precoder matrix per slot")
    violations = []
    for t, (slot, T_a, T_b) in enumerate(zip(slots, precoders_a, precoders_b)):
        varies = slot.constant & (T_a != T_b)
        if slot.constant[k:].all() and not varies.any():
            continue
        uninformed_channel = ~slot.constant & (np.arange(plan.cfg.M)[:, None] >= k)
        for s_idx, antenna in np.argwhere((uninformed_channel | varies).T).tolist():
            reason = "coefficient labeled constant varies with H" if varies[antenna, s_idx] else (
                "uninformed antenna labeled channel-dependent"
            )
            violations.append(ComplianceViolation(t, s_idx, antenna, reason))
    return ComplianceReport(violations=tuple(violations))


@dataclass(frozen=True)
class RateSimConfig:
    """Finite-SNR simulation settings (SNR points in dB, strictly increasing)."""

    snr_db: tuple[float, ...] = (40.0, 60.0, 80.0)
    trials: int = 100

    def __post_init__(self):
        _check_trials(self.trials)
        if any(isinstance(s, bool) or not isinstance(s, Real) for s in self.snr_db):
            raise InvalidConfigError(f"SNR points must be numbers in dB, got {self.snr_db!r}")
        if not all(math.isfinite(s) for s in self.snr_db):
            raise InvalidConfigError("SNR points must be finite")
        if len(self.snr_db) < 2:
            raise InvalidConfigError("at least two SNR points required")
        if any(b <= a for a, b in zip(self.snr_db, self.snr_db[1:])):
            raise InvalidConfigError("SNR points must be strictly increasing")
        if self.snr_db[-1] - self.snr_db[0] < 20:
            raise InvalidConfigError("SNR points must span at least 20 dB")


@dataclass(frozen=True)
class SlopeResult:
    slope: float
    snr_db: tuple[float, ...]
    mean_sum_rates: tuple[float, ...]
    trials_used: int
    discarded: int

    def to_json(self) -> dict:
        return {
            "slope": self.slope,
            "snr_db": list(self.snr_db),
            "mean_sum_rates": list(self.mean_sum_rates),
            "trials_used": self.trials_used,
            "discarded": self.discarded,
        }


def _gram(X: np.ndarray) -> np.ndarray:
    """X @ X^T over the last two axes."""
    return X @ np.swapaxes(X, -1, -2)


def _log2det(A: np.ndarray) -> np.ndarray:
    sign, logdet = np.linalg.slogdet(A)
    if np.any(sign <= 0):
        raise FloatingPointError("non positive-definite covariance")
    return logdet / np.log(2.0)


def _receiver_rates(
    gram_desired: np.ndarray, gram_interference: np.ndarray, snrs: list[float], T: int
) -> np.ndarray:
    """(1/2T) log2 det ratio at each SNR point: mutual information of the
    desired symbols with the other user's columns treated as Gaussian noise,
    over unit-variance receiver noise.  The 1/2 is the real Gaussian channel
    prelog, matching the DoF normalization against log2(sqrt(P)).

    The arguments are the `_gram` matrices of a receiver's desired and other
    columns of A, with any leading trial axis; the result is
    (..., len(snrs)).  Each covariance takes one `slogdet` call per SNR point
    over all trials, and is built in place, so a block of trials holds few
    n x n matrices at once.
    """
    eye = np.eye(gram_desired.shape[-1])
    rates = []
    for P in snrs:
        # In place, in the order eye + P G_i, then + P G_d: the same bits as
        # building each covariance afresh, since float addition commutes.
        covariance = P * gram_interference
        covariance += eye
        noise = _log2det(covariance)
        covariance += P * gram_desired
        rates.append((_log2det(covariance) - noise) / (2.0 * T))
    return np.stack(rates, axis=-1)


def rate_slope_estimate(
    plan: TransmissionPlan,
    rsc: RateSimConfig = RateSimConfig(),
    seed: int = 1,
    dist: ChannelDistribution = ChannelDistribution(),
) -> SlopeResult:
    """Estimate the sum DoF as the least-squares slope of the mean sum rate
    against log2(sqrt(P)) over the configured SNR grid.

    Uninformed-antenna recipes are channel-independent by construction, so
    finite-precision CSIT enters only through the interference that AP-ZF
    cannot cancel.

    Trial i is rated on draw 25*i + a, where a counts its resamples.  Trials
    are rated in blocks sized by the plan's cells (see the module
    docstring): each block stacks its trials' first draws and is realized
    and rated in one pass.  If that pass raises a resample, each trial of
    the block is rated and resampled alone, so every result equals rating
    each trial alone, bit for bit.  A trial whose rates are not finite is
    discarded.
    """
    snrs = [10 ** (db / 10.0) for db in rsc.snr_db]

    def sum_rates(channel: ChannelRealization) -> np.ndarray:
        """One row of sum rates per draw of the stacked `channel`."""
        system = realize_plan(plan, channel)
        grams = [
            (_gram(A[..., order[split:]]), _gram(A[..., order[:split]]))
            for A, (order, split) in zip((system.A1, system.A2), plan.registry._rank_orders)
            if split < len(order)
        ]
        del system  # only the Gram matrices are rated: free A before the log-dets
        rates = np.zeros(channel.H.shape[:-2] + (len(snrs),))
        for gram_pair in grams:
            rates = rates + _receiver_rates(*gram_pair, snrs, plan.T)
        return rates

    def draw(index) -> ChannelRealization:
        return sample_channel(plan.cfg, dist, seed, index=index)

    totals = np.zeros(len(snrs))
    used = 0
    discarded = 0
    for row, _ in _trial_results(plan, rsc.trials, draw, sum_rates, _RESAMPLE_ERRORS):
        if row is None or not np.all(np.isfinite(row)):
            discarded += 1
            continue
        totals += row  # in trial order: a pairwise np.sum would change the bits
        used += 1
    if used == 0:
        raise ResampleRequiredError("all Monte Carlo trials were discarded")
    means = totals / used
    x = np.log2(np.sqrt(snrs))
    slope = float(np.polyfit(x, means, 1)[0])
    return SlopeResult(
        slope=slope,
        snr_db=tuple(rsc.snr_db),
        mean_sum_rates=tuple(float(v) for v in means),
        trials_used=used,
        discarded=discarded,
    )
