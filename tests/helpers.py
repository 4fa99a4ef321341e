"""Shared fixtures: hand-built plans for negative tests, and plan queries
that only tests ask."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from dofbc.channel import ChannelDistribution, ChannelRealization, field_channel, sample_channel
from dofbc.config import SystemConfig, normalize_config
from dofbc.errors import ResampleRequiredError
from dofbc.gf import gf_matmul, gf_solve
from dofbc.precoding import CHANNEL, CONSTANT, apzf_precoder
from dofbc.region import achievable_region, region_constraints, region_vertices, sum_dof_lower
from dofbc.schemes import (
    ApzfRecipe,
    CoupledPayload,
    FreshPayload,
    InterferencePayload,
    RxRowRef,
    Slot,
    StreamGroup,
    Symbol,
    SymbolRegistry,
    TransmissionPlan,
)
from dofbc.verifier import (
    CertificationResult,
    _certify,
    _precoder_columns,
    _precoder_matrices,
    csit_compliance,
    decodability_check,
    realize_plan,
)

from .oracles import sum_dof_upper_closed_form


class Stream(NamedTuple):
    """One stream with its own recipe, as `slot_streams` lists it."""

    payload: FreshPayload | InterferencePayload | CoupledPayload
    precoder: ApzfRecipe


def slot_streams(slot: Slot) -> tuple[Stream, ...]:
    """Every stream of `slot` in order, each with its own recipe: stream j of
    a group is sent from the group's first antenna + j."""
    return tuple(
        Stream(payload, g.precoder._replace(antenna=g.precoder.antenna + j))
        for g in slot.groups
        for j, payload in enumerate(g.payloads)
    )


def streams_slot(*streams: Stream) -> Slot:
    """A slot sending `streams` in order.  A stream joins the group before it
    when it continues that group's recipe family on the next antenna, so
    hand-built plans exercise multi-stream groups."""
    groups: list[StreamGroup] = []
    for payload, recipe in streams:
        if groups and isinstance(recipe, ApzfRecipe) and isinstance(groups[-1].precoder, ApzfRecipe):
            last = groups[-1]
            if recipe == last.precoder._replace(antenna=last.precoder.antenna + len(last.payloads)):
                groups[-1] = StreamGroup(last.payloads + (payload,), last.precoder)
                continue
        groups.append(StreamGroup((payload,), recipe))
    return Slot(tuple(groups))


def adversarial_plan() -> TransmissionPlan:
    """One RX2 symbol sent from antenna 1 of (3,1,2,1), cancelled at RX1 row 0."""
    cfg = SystemConfig(3, 1, 2, 1)
    registry = SymbolRegistry((Symbol("b1", 2),))
    slots = (streams_slot(Stream(FreshPayload("b1"), ApzfRecipe(1, 1, (0,)))),)
    return TransmissionPlan(cfg=cfg, scheme_id="adversarial", registry=registry, slots=slots)


def leaky_precoder_columns(plan, channel):
    """`verifier._precoder_columns` that sneaks a channel entry onto
    (uninformed) antenna 2 of every AP-ZF column, whose coefficients stay
    labelled constant; the compliance check must flag it.  On a stack of
    draws, each draw leaks its own entry.  `leak_precoders` patches it over
    `dofbc.verifier._precoder_columns`, which builds every precoder that
    realizing a plan, or precoding a compliance draw, reads."""
    columns = _precoder_columns(plan, channel)
    columns[..., 2, plan.cfg.M :] = channel.H[..., 0, :1]
    return columns


def leaky_certify(program, H, N1, columns, recovered):
    """`verifier._certify` that leaks as `leaky_precoder_columns` does into
    the [I_M | Z] columns it writes, from which `achieved_dof` takes the
    precoders of a certified block."""
    _certify(program, H, N1, columns, recovered)
    columns[..., 2, H.shape[-1] :] = H[..., 0, :1]


def leak_precoders(monkeypatch) -> None:
    """Make every precoder that certification reads leak a channel entry
    onto antenna 2, on the compiled block path and on `realize_plan`'s."""
    monkeypatch.setattr("dofbc.verifier._precoder_columns", leaky_precoder_columns)
    monkeypatch.setattr("dofbc.verifier._certify", leaky_certify)


def planted_draws(draw, hit, plant):
    """`draw` (`field_channel` or `sample_channel`, same arguments) with
    `plant(H)` applied in place to the H of every draw whose index satisfies
    `hit(index)`: of the one draw, or of each member of a stack of draws."""

    def planted(*args, index=0):
        channel = draw(*args, index=index)
        hits = [j for j, i in enumerate(np.atleast_1d(index)) if hit(int(i))]
        if not hits:
            return channel
        H = channel.H.copy()
        members = H.reshape((-1,) + H.shape[-2:])
        for j in hits:
            plant(members[j])
        return ChannelRealization(channel.cfg, H)

    return planted


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
        slots=(streams_slot(*first), streams_slot(*second)),
    )


def weighted_retransmission_plan() -> TransmissionPlan:
    """(4,1,3,2) plan whose retransmissions weigh samples by -1, 2^40 and 3,
    one for each receiver's symbols, next to AP-ZF and unit streams."""
    cfg = SystemConfig(4, 1, 3, 2)
    registry = SymbolRegistry((Symbol("a1", 1), Symbol("b1", 2), Symbol("b2", 2), Symbol("b3", 2)))
    first = (
        Stream(FreshPayload("a1"), ApzfRecipe(2, 2, (0, 1))),
        Stream(FreshPayload("b1"), ApzfRecipe(1, 1, (0,))),
        Stream(FreshPayload("b2"), ApzfRecipe(3)),
    )
    second = (
        Stream(InterferencePayload(1, (RxRowRef(0, 2, 2, -1), RxRowRef(0, 2, 1, 2**40))), ApzfRecipe(0)),
        Stream(FreshPayload("b3"), ApzfRecipe(2, 1, (0,))),
        Stream(InterferencePayload(2, (RxRowRef(0, 1, 0, 3),)), ApzfRecipe(1)),
    )
    return TransmissionPlan(cfg, "weighted", registry, (streams_slot(*first), streams_slot(*second)))


def repeated_coupled_plan() -> TransmissionPlan:
    """(4,1,3,2) plan that sends coupled stream 0 twice in its first slot,
    from both informed antennas, with weights -1 and 2^40 in its definition."""
    cfg = SystemConfig(4, 1, 3, 2)
    registry = SymbolRegistry((Symbol("a1", 1), Symbol("b1", 2), Symbol("b2", 2)))
    c = CoupledPayload(0, (RxRowRef(0, 2, 0, 1), RxRowRef(1, 1, 0, 2**40)))
    d = CoupledPayload(1, (RxRowRef(1, 2, 2, -1),))
    first = (
        Stream(FreshPayload("a1"), ApzfRecipe(2, 2, (0, 1))),
        Stream(c, ApzfRecipe(0)),
        Stream(FreshPayload("b1"), ApzfRecipe(3)),
        Stream(c, ApzfRecipe(1)),
    )
    second = (Stream(FreshPayload("b2"), ApzfRecipe(3)), Stream(d, ApzfRecipe(1)), Stream(c, ApzfRecipe(0)))
    return TransmissionPlan(cfg, "repeated-coupled", registry, (streams_slot(*first), streams_slot(*second)))


def overlapping_groups_plan() -> TransmissionPlan:
    """(4,1,3,2) plan whose groups share the AP-ZF target RX1 row 0 from
    different first antennas: the later group's columns in Z are not one
    range, and it adds antennas the first group lacks."""
    cfg = SystemConfig(4, 1, 3, 2)
    registry = SymbolRegistry((Symbol("a1", 1),) + tuple(Symbol(f"b{i}", 2) for i in range(1, 5)))
    first = Slot((
        StreamGroup((FreshPayload("a1"),), ApzfRecipe(2, 2, (0, 1))),
        StreamGroup((FreshPayload("b1"),), ApzfRecipe(3, 1, (0,))),
    ))
    second = Slot((StreamGroup(tuple(FreshPayload(f"b{i}") for i in (2, 3, 4)), ApzfRecipe(1, 1, (0,))),))
    return TransmissionPlan(cfg, "overlapping-groups", registry, (first, second))


def max_streams_per_slot(plan: TransmissionPlan) -> int:
    return max(len(slot_streams(s)) for s in plan.slots)


def symbol_column(registry: SymbolRegistry, symbol_id: str) -> int:
    """The observation column of the symbol `symbol_id`: its position in the registry."""
    return [s.id for s in registry.symbols].index(symbol_id)


def fresh_count(plan: TransmissionPlan, slot: int, rx: int) -> int:
    """Fresh symbols meant for receiver `rx` that slot `slot` of `plan` sends."""
    symbols = plan.registry.symbols
    return sum(
        1
        for stream in slot_streams(plan.slots[slot])
        if isinstance(stream.payload, FreshPayload)
        and symbols[symbol_column(plan.registry, stream.payload.symbol)].rx == rx
    )


def stream_gains(plan: TransmissionPlan, channel, slot_index: int) -> dict:
    """Per-stream receive gains H_i @ t_s of one slot on a GF(p) channel, keyed by receiver."""
    T_mat = _precoder_matrices(plan, channel)[slot_index]
    return {rx: gf_matmul(H, T_mat) for rx, H in ((1, channel.H1), (2, channel.H2))}


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


def per_trial_rate_slope(
    plan, rsc, seed=1, dist=ChannelDistribution(), draw=sample_channel, skip=()
):
    """(slope, mean_sum_rates, trials_used, discarded) of `rate_slope_estimate`,
    computed one trial and one SNR point at a time on 2-D matrices: the
    reference that rating trials in blocks must equal bit for bit.
    `draw(cfg, dist, seed, index)` makes each channel; the trials in `skip`
    are discarded as if their rates were not finite."""

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
        if rates is None or i in skip or not np.all(np.isfinite(rates)):
            discarded += 1
            continue
        totals += np.asarray(rates)
        used += 1
    means = totals / used
    slope = float(np.polyfit(np.log2(np.sqrt(snrs)), means, 1)[0])
    return slope, tuple(float(v) for v in means), used, discarded


def per_trial_certification(plan, trials, seed=1, draw=field_channel) -> CertificationResult:
    """`achieved_dof` computed one trial at a time on 2-D draws: trial i is
    realized on draw 25 i + a (a counts its resamples) and ranked, and a
    one-trial run precodes index 25 for compliance.  The reference that
    realizing trials in blocks must equal.  `draw(cfg, seed, index)` makes
    each channel."""
    reports, precoders, resamples = [], [], 0
    for i in range(trials):
        for attempt in range(25):
            try:
                system = realize_plan(plan, draw(plan.cfg, seed, index=25 * i + attempt))
                break
            except ResampleRequiredError:
                resamples += 1
        else:
            raise ResampleRequiredError(f"resampling exhausted on trial {i}")
        reports.append(decodability_check(system))
        if i < 2:
            precoders.append(system.precoders)
    if trials == 1:
        precoders.append(_precoder_matrices(plan, draw(plan.cfg, seed, index=25)))
    failures = tuple(i for i, report in enumerate(reports) if not report.all_decodable)
    return CertificationResult(
        trials=trials,
        failures=failures,
        resamples=resamples,
        dof=None if failures else plan.claimed_dof,
        compliance=csit_compliance(plan, *precoders),
        first_failure_report=reports[failures[0]] if failures else None,
    )


def reference_precoder_matrices(plan: TransmissionPlan, channel) -> list[np.ndarray]:
    """Per-slot precoder matrices built stream by stream: the frozen
    reference for `verifier._precoder_matrices` and `realize_plan`."""
    groups: dict[tuple, dict[int, int]] = {}
    for slot in plan.slots:
        for stream in slot_streams(slot):
            recipe = stream.precoder
            if recipe.rows:
                columns = groups.setdefault((recipe.rx, recipe.rows), {})
                columns.setdefault(recipe.antenna, len(columns))
    solved = {key: apzf_precoder(channel, *key, columns) for key, columns in groups.items()}
    matrices = []
    for slot in plan.slots:
        shape = channel.H.shape[:-2] + (channel.cfg.M, len(slot_streams(slot)))
        T_mat = np.zeros(shape, dtype=channel.H.dtype)
        for j, stream in enumerate(slot_streams(slot)):
            recipe = stream.precoder
            if recipe.rows:
                key = (recipe.rx, recipe.rows)
                T_mat[..., j] = solved[key][..., groups[key][recipe.antenna]]
            else:
                T_mat[..., recipe.antenna, j] = 1
        matrices.append(T_mat)
    return matrices


def reference_realize(plan: TransmissionPlan, channel):
    """(A1, A2, precoders) of `realize_plan`, computed stream by stream with a
    full H @ T @ forms product per slot: the frozen reference the plan
    layout must equal, bit for bit, on GF(p) and on real channels."""
    p = channel.field
    S = len(plan.registry.symbols)
    ncols = S + plan.aux_count
    dtype = channel.H.dtype
    trials = channel.H.shape[:-2]

    def reduce(x):
        return x if p is None else x % p

    def matmul(A, B):
        return A @ B if p is None else gf_matmul(A, B)

    samples = []
    aux_equations = {}

    def combine(terms):
        acc = np.zeros(trials + (ncols,), dtype=dtype)
        for ref in terms:
            sample = samples[ref.slot][ref.rx - 1][..., ref.row, :]
            acc = reduce(acc + reduce(ref.weight) * sample)
        return acc

    precoders = reference_precoder_matrices(plan, channel)
    for slot, T_mat in zip(plan.slots, precoders):
        forms = np.zeros(trials + (len(slot_streams(slot)), ncols), dtype=dtype)
        for s_idx, stream in enumerate(slot_streams(slot)):
            payload = stream.payload
            if isinstance(payload, FreshPayload):
                forms[..., s_idx, symbol_column(plan.registry, payload.symbol)] = 1
            elif isinstance(payload, InterferencePayload):
                owned = list(plan.registry.owned_columns(payload.owner))
                form = np.zeros(trials + (ncols,), dtype=dtype)
                form[..., owned] = combine(payload.terms)[..., owned]
                if p is None:
                    norm = np.sqrt(form[..., None, :] @ form[..., :, None])[..., 0]
                    norm[~(norm > 0)] = 1.0
                    form = form / norm
                forms[..., s_idx, :] = form
            else:
                forms[..., s_idx, S + payload.aux] = 1
                aux_equations[payload.aux] = payload.terms
        if p is None:
            norms = np.linalg.norm(T_mat, axis=-2)
            norms[norms == 0] = 1.0
            scaled = T_mat / norms[..., None, :] / np.sqrt(T_mat.shape[-1])
            samples.append(((channel.H1 @ scaled) @ forms, (channel.H2 @ scaled) @ forms))
        else:
            received = gf_matmul(gf_matmul(channel.H, T_mat), forms)
            samples.append((received[: channel.cfg.N1], received[channel.cfg.N1 :]))

    if plan.aux_count:
        E = np.zeros(trials + (plan.aux_count, ncols), dtype=dtype)
        for aux, terms in aux_equations.items():
            E[..., aux, :] = combine(terms)
        lhs = reduce(np.eye(plan.aux_count, dtype=dtype) - E[..., S:])
        try:
            phi = gf_solve(lhs, E[:, :S]) if p is not None else np.linalg.solve(lhs, E[..., :S])
        except np.linalg.LinAlgError as exc:
            raise ResampleRequiredError("coupled-stream fixed point is singular") from exc

    def stack(rx):
        full = np.concatenate([slot_samples[rx - 1] for slot_samples in samples], axis=-2)
        if plan.aux_count:
            return reduce(full[..., :S] + matmul(full[..., S:], phi))
        return full[..., :S]

    return stack(1), stack(2), tuple(precoders)


def reference_plan_json(plan: TransmissionPlan) -> dict:
    """`plan.to_json()` built stream by stream, every dict and list its own:
    the frozen per-stream serializer the grouped one must match byte for byte."""
    cfg = plan.cfg

    def precoder_json(recipe: ApzfRecipe) -> dict:
        if not recipe.rows:
            return {"kind": "unit", "antenna": recipe.antenna}
        kp = len(recipe.rows)
        pattern = [0] * (cfg.M - kp)
        pattern[recipe.antenna - kp] = 1
        return {"kind": "apzf", "rx": recipe.rx, "rows": list(recipe.rows), "pattern": pattern}

    def stream_json(stream: Stream) -> dict:
        kp = len(stream.precoder.rows)
        return {
            "payload": stream.payload.to_json(),
            "precoder": precoder_json(stream.precoder),
            "csit": [CHANNEL] * kp + [CONSTANT] * (cfg.M - kp),
        }

    return {
        "scheme": plan.scheme_id,
        "config": {"M": cfg.M, "N1": cfg.N1, "N2": cfg.N2, "k": cfg.k},
        "claimed_dof": str(plan.claimed_dof),
        "symbols": [{"id": s.id, "rx": s.rx} for s in plan.registry.symbols],
        "slots": [{"streams": [stream_json(s) for s in slot_streams(slot)]} for slot in plan.slots],
    }


def reference_targets(plan: TransmissionPlan) -> tuple:
    """(rx, rows, sending antennas) per AP-ZF target of `plan`, built stream
    by stream: targets and their antennas in the order of first use, which
    is the order of Z's columns in [I_M | Z]."""
    groups: dict[tuple, dict[int, None]] = {}
    for r in (s.precoder for slot in plan.slots for s in slot_streams(slot) if s.precoder.rows):
        groups.setdefault((r.rx, r.rows), {})[r.antenna] = None
    return tuple(key + (tuple(antennas),) for key, antennas in groups.items())


def reference_layout(plan: TransmissionPlan) -> tuple:
    """(targets, per-slot arrays, coupled terms) of `plan.layout`, built
    stream by stream: the frozen reference the grouped layout must equal.
    Each slot gives (columns, onehot rows, onehot forms, fresh symbols,
    fresh sources, mixed, interference, constant)."""
    M, S, registry = plan.cfg.M, len(plan.registry.symbols), plan.registry
    targets = reference_targets(plan)
    groups: dict[tuple, dict[int, int]] = {}
    column = M
    for rx, rows, antennas in targets:
        groups[rx, rows] = dict(zip(antennas, range(column, column + len(antennas))))
        column += len(antennas)
    slots, coupled = [], {}
    for slot in plan.slots:
        columns, cancelled, rows, forms, aux_rows, aux_forms, terms = ([] for _ in range(7))
        for j, (payload, r) in enumerate(slot_streams(slot)):
            columns.append(groups[r.rx, r.rows][r.antenna] if r.rows else r.antenna)
            cancelled.append(len(r.rows))
            if isinstance(payload, FreshPayload):
                rows.append(j)
                forms.append(symbol_column(registry, payload.symbol))
            elif isinstance(payload, InterferencePayload):
                terms.append((j, list(registry.owned_columns(payload.owner)), payload.terms))
            else:
                aux_rows.append(j)
                aux_forms.append(S + payload.aux)
                coupled[payload.aux] = payload.terms
        sources = [columns[j] for j in rows]
        mixed = [t[0] for t in terms] + aux_rows
        constant = np.arange(M)[:, None] >= np.array(cancelled, dtype=np.intp)
        arrays = [np.array(a, dtype=np.intp) for a in (columns, rows + aux_rows, forms + aux_forms, forms, sources, mixed)]
        slots.append((*arrays, tuple(terms), constant))
    coupled_terms = tuple(coupled[aux] for aux in range(len(coupled)))
    return targets, tuple(slots), coupled_terms


def reference_region_document(M: int, N1: int, N2: int, k: int) -> dict:
    """`cli.region_document` composed from `Fraction`s and `DofPoint`s of the
    public API: the frozen reference the integer-numerator document must
    match byte for byte.  Its upper bound is the closed-form oracle's, not
    the vertex sum the document reads it from."""
    cfg = normalize_config(M, N1, N2, k)
    swapped = N1 > N2

    def unswap(d1, d2):
        return (d2, d1) if swapped else (d1, d2)

    vertices = [unswap(*v) for v in region_vertices(cfg)]
    hull = [unswap(*v) for v in achievable_region(cfg)]
    constraints = [(*unswap(c.a1, c.a2), c.b) for c in region_constraints(cfg)]
    if swapped:
        vertices = sorted(vertices)
        hull = sorted(hull)
    return {
        "config": {"M": M, "N1": N1, "N2": N2, "k": k, "swapped": swapped},
        "constraints": [{"a1": str(a1), "a2": str(a2), "b": str(b)} for a1, a2, b in constraints],
        "vertices": [[str(d1), str(d2)] for d1, d2 in vertices],
        "achievable": [[str(d1), str(d2)] for d1, d2 in hull],
        "sum_dof_upper": str(sum_dof_upper_closed_form(cfg)),
        "sum_dof_lower": str(sum_dof_lower(cfg)),
    }
