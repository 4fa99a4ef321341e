"""Transmission plans: explicit per-slot linear programs over information symbols.

A plan lists, slot by slot, the streams to superpose on the transmit array.
Each stream has a payload recipe (what linear form over information symbols
it carries) and a precoder recipe (how the M antennas weight it).  Payloads
are either fresh symbols, interference retransmissions (channel-dependent
linear forms over earlier received samples, reconstructible at the informed
antennas), or the coupled streams of the hand-crafted (6,3,3,1) plan whose
defining equations are solved as a within-block fixed point.

Plans are built without any channel realization; the verifier realizes them
against channels.  Every stream has one precoder recipe, `ApzfRecipe`: it is
sent with coefficient 1 from one antenna and, when it names AP-ZF rows, the
first informed antennas cancel it there.  Independence of simultaneously
transmitted streams is arranged with distinct sending antennas and then
*verified* by the rank checks, never assumed.

Every built-in plan except the crafted (6,3,3,1) one follows one two-phase
template on the config with M capped at N1+N2.  Phase 1 has p1 slots, each
sending `a` fresh RX1 streams cancelled at RX2 rows range(a_rows), then `b`
fresh RX2 streams cancelled at RX1 rows range(b_rows).  Phase 2 has p2
slots; slot u forwards, from informed antenna i, the RX2 row k+u that
phase-1 slot i leaked onto RX2's unprotected antennas (a pure RX1-symbol
form RX2 already holds and RX1 still needs), then sends b2 fresh RX2
streams cancelled at RX1 rows range(b_rows).  With j its index within its
group, a fresh stream cancelled at r rows is sent from antenna r+j, and
antennas 0..r-1 cancel it.  No group holds more streams than it has passive
antennas, so the sending antennas within a group are distinct.
`region.plan_shape` picks the parameters; it is the one place the regime is
decided:

    regime (capped config)     id            p1  a     a_rows       b          b_rows  p2      b2
    k = 0, M <= N2, or k < N1
      without low-k gain       rx2-baseline  1   0     -            min(N2,M)  0       0       0
    k >= N2                    zf-baseline   1   M-N2  N2           N2         M-N2    0       0
    N1 <= k < N2, M <= N1+k    mid-k         1   N1    min(k,M-N1)  M-N1       N1      0       0
    N1 <= k < N2, M > N1+k     mid-k         N1  M-k   k            M-N1       N1      M-k-N1  N2-N1
    1 <= k < N1, m = min(N2,M-k),
      m + k^2/m > min(N2,M)    low-k         k   m     k            k          k       m-k     m

A plan delivers S1 = p1 a and S2 = p1 b + p2 b2 symbols over T = p1 + p2
slots.  Its claimed sum DoF is not stated anywhere: a plan derives it as
(S1+S2)/T from its own symbols and slots, and `region.sum_dof_lower` reads
the same counts off the shape.  `select_scheme` builds the template plan,
except that with `allow_special_cases` a config capping to (6,3,3,1) gets
the crafted plan, which claims 4 where `sum_dof_lower` stays 10/3.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain
from numbers import Integral
from typing import NamedTuple

import numpy as np

from .config import SystemConfig
from .errors import InvalidConfigError
from .precoding import CHANNEL, CONSTANT
from .region import PlanShape, effective_config, plan_shape

TABLE1_CONFIG = (6, 3, 3, 1)  # the config of the crafted special-case plan


class Symbol(NamedTuple):
    id: str
    rx: int


@dataclass(frozen=True)
class SymbolRegistry:
    """Ordered information symbols, each meant for RX1 or RX2; position
    defines the observation column."""

    symbols: tuple[Symbol, ...]

    def __post_init__(self):
        ids = [s.id for s in self.symbols]
        if len(set(ids)) != len(ids):
            raise InvalidConfigError("symbol ids must be unique")
        if not self._owned.keys() <= {1, 2}:
            raise InvalidConfigError("every symbol must be meant for RX1 or RX2")

    @cached_property
    def _columns(self) -> dict[str, int]:
        return {s.id: i for i, s in enumerate(self.symbols)}

    @cached_property
    def _owned(self) -> dict[int, tuple[int, ...]]:
        owned: dict[int, tuple[int, ...]] = {}
        for i, s in enumerate(self.symbols):
            owned[s.rx] = owned.get(s.rx, ()) + (i,)
        return owned

    @property
    def S1(self) -> int:
        return len(self.owned_columns(1))

    @property
    def S2(self) -> int:
        return len(self.owned_columns(2))

    def index(self, symbol_id: str) -> int:
        return self._columns[symbol_id]

    def owned_columns(self, rx: int) -> tuple[int, ...]:
        return self._owned.get(rx, ())

    def split(self, rx: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(desired, interference) columns at receiver `rx`."""
        return self.owned_columns(rx), self.owned_columns(3 - rx)


class RxRowRef(NamedTuple):
    """Reference to one noiseless received sample: (slot, receiver, local row),
    with the integer weight it takes in a combination."""

    slot: int
    rx: int
    row: int
    weight: int


@dataclass(frozen=True)
class FreshPayload:
    symbol: str

    def to_json(self):
        return {"kind": "fresh", "symbol": self.symbol}


@dataclass(frozen=True)
class InterferencePayload:
    """Constant-weight combination of earlier received samples, restricted to
    the columns of `owner`'s symbols (the interference part of those samples).

    The informed antennas can compute the restricted form because they know H
    and every constant recipe, so the payload is channel-dependent but
    CSIT-legal when transmitted from informed antennas only.
    """

    owner: int
    terms: tuple[RxRowRef, ...]

    def to_json(self):
        return {
            "kind": "interference",
            "owner": self.owner,
            "terms": [list(t) for t in self.terms],
        }


@dataclass(frozen=True)
class CoupledPayload:
    """A crafted stream defined as a sum of full received samples.

    The referenced samples may themselves contain this stream, so the
    defining equations of all coupled streams in a plan are solved jointly
    at realization time (the channel block is constant, so the informed
    antennas can precompute the solution before transmitting).
    """

    aux: int
    terms: tuple[RxRowRef, ...]

    def to_json(self):
        return {"kind": "coupled", "aux": self.aux, "terms": [list(t) for t in self.terms]}


class ApzfRecipe(NamedTuple):
    """Send from `antenna` with coefficient 1, cancelled at `rows` of receiver `rx`.

    When `rows` is non-empty, the first len(rows) informed antennas solve for
    the coefficients that make the stream vanish at those rows; every other
    antenna sends a fixed constant, 1 on `antenna` and 0 elsewhere.  With no
    rows the stream is sent from `antenna` alone.  Streams cancelled at the
    same rows from distinct antennas get generically independent effective
    channels.
    """

    antenna: int
    rx: int = 0
    rows: tuple[int, ...] = ()

    def labels(self, cfg: SystemConfig) -> tuple[str, ...]:
        kp = len(self.rows)
        return (CHANNEL,) * kp + (CONSTANT,) * (cfg.M - kp)

    def support_in_informed(self, cfg: SystemConfig) -> bool:
        return self.antenna < cfg.k

    def to_json(self, cfg: SystemConfig):
        if not self.rows:
            return {"kind": "unit", "antenna": self.antenna}
        kp = len(self.rows)
        pattern = [0] * (cfg.M - kp)
        pattern[self.antenna - kp] = 1
        return {"kind": "apzf", "rx": self.rx, "rows": list(self.rows), "pattern": pattern}


@dataclass(frozen=True)
class Stream:
    payload: FreshPayload | InterferencePayload | CoupledPayload
    precoder: ApzfRecipe

    def to_json(self, cfg: SystemConfig):
        return {
            "payload": self.payload.to_json(),
            "precoder": self.precoder.to_json(cfg),
            "csit": list(self.precoder.labels(cfg)),
        }


@dataclass(frozen=True)
class Slot:
    streams: tuple[Stream, ...]


class SlotLayout(NamedTuple):
    """One slot of `TransmissionPlan.layout`; a stream's column is that of its
    precoder in [I_M | Z], Z being the plan's AP-ZF columns."""

    columns: np.ndarray
    onehot: tuple[np.ndarray, np.ndarray]  # (stream, form column): fresh, then coupled streams
    fresh: tuple[np.ndarray, np.ndarray]  # (symbol column, column) of each fresh stream
    mixed: np.ndarray  # interference and coupled streams: their samples need a product
    interference: tuple  # (stream, owner's symbol columns, terms) per interference stream
    constant: np.ndarray  # M x streams: where `ApzfRecipe.labels` says constant


class PlanLayout(NamedTuple):
    groups: tuple  # (rx, rows, sending antennas) per AP-ZF group, in Z's column order
    slots: tuple[SlotLayout, ...]
    coupled: tuple  # each coupled stream's terms, by aux index


@dataclass(frozen=True)
class TransmissionPlan:
    """A complete transmission program; it claims the sum DoF (S1+S2)/T."""

    cfg: SystemConfig
    scheme_id: str
    registry: SymbolRegistry
    slots: tuple[Slot, ...]

    def __post_init__(self):
        self._validate()

    @property
    def T(self) -> int:
        return len(self.slots)

    @property
    def claimed_dof(self) -> Fraction:
        return Fraction(self.registry.S1 + self.registry.S2, self.T)

    @property
    def aux_count(self) -> int:
        """Number of coupled streams; validation makes their indices 0..aux_count-1."""
        return len(self.layout.coupled)

    @cached_property
    def layout(self) -> PlanLayout:
        """The plan as index arrays, so realizing it walks no stream per
        channel.  Built on first use, from lists and one array cut into views."""
        M, S, registry = self.cfg.M, len(self.registry.symbols), self.registry
        groups: dict[tuple, dict[int, int]] = {}  # (rx, rows) -> {antenna: column}
        for r in (s.precoder for slot in self.slots for s in slot.streams if s.precoder.rows):
            groups.setdefault((r.rx, r.rows), {})[r.antenna] = 0
        column = M
        for antennas in groups.values():
            for antenna in antennas:
                antennas[antenna], column = column, column + 1
        lists, interference, coupled = [], [], {}
        for slot in self.slots:
            columns, cancelled, rows, forms, aux_rows, aux_forms, terms = ([] for _ in range(7))
            for j, (payload, r) in enumerate((s.payload, s.precoder) for s in slot.streams):
                columns.append(groups[r.rx, r.rows][r.antenna] if r.rows else r.antenna)
                cancelled.append(len(r.rows))
                if isinstance(payload, FreshPayload):
                    rows.append(j)
                    forms.append(registry.index(payload.symbol))
                elif isinstance(payload, InterferencePayload):
                    terms.append((j, list(registry.owned_columns(payload.owner)), payload.terms))
                else:
                    aux_rows.append(j)
                    aux_forms.append(S + payload.aux)
                    coupled[payload.aux] = payload.terms
            sources, mixed = [columns[j] for j in rows], [t[0] for t in terms] + aux_rows
            lists += [columns, cancelled, rows + aux_rows, forms + aux_forms, sources, mixed]
            interference.append(tuple(terms))
        sizes = list(map(len, lists))
        flat = np.fromiter(chain.from_iterable(lists), dtype=np.intp)
        views = [flat[end - size : end] for size, end in zip(sizes, accumulate(sizes))]
        antenna, slots = np.arange(M)[:, None], []
        for t, terms in enumerate(interference):
            columns, cancelled, rows, forms, sources, mixed = views[6 * t : 6 * t + 6]
            constant = antenna >= cancelled  # labelled constant past the AP-ZF antennas
            fresh = (forms[: len(sources)], sources)
            slots.append(SlotLayout(columns, (rows, forms), fresh, mixed, terms, constant))
        coupled_terms = tuple(coupled[aux] for aux in range(len(coupled)))
        return PlanLayout(tuple(k + (tuple(a),) for k, a in groups.items()), tuple(slots), coupled_terms)

    def _validate(self):
        """Check the plan's structure once, so realizing it needs no structural checks."""
        cfg = self.cfg
        if not self.slots:
            raise InvalidConfigError("a plan needs at least one slot")
        fresh_seen = set()
        targets = set()
        refs: set[RxRowRef] = set()
        coupled: dict[int, tuple[RxRowRef, ...]] = {}
        for t, slot in enumerate(self.slots):
            if not slot.streams:
                raise InvalidConfigError(f"slot {t} sends no streams")
            for stream in slot.streams:
                payload, precoder = stream.payload, stream.precoder
                if not isinstance(precoder, ApzfRecipe):
                    raise InvalidConfigError(f"unknown precoder {precoder!r}")
                if isinstance(payload, FreshPayload):
                    if payload.symbol in fresh_seen:
                        raise InvalidConfigError(f"symbol {payload.symbol} sent fresh twice")
                    fresh_seen.add(payload.symbol)
                elif isinstance(payload, InterferencePayload):
                    if payload.owner not in (1, 2):
                        raise InvalidConfigError("interference owner must be RX1 or RX2")
                    if any(ref.slot >= t for ref in payload.terms):
                        raise InvalidConfigError("retransmission must reference earlier slots")
                    if not precoder.support_in_informed(cfg):
                        raise InvalidConfigError(
                            "channel-dependent payloads must be sent from informed antennas"
                        )
                    refs.update(payload.terms)
                elif isinstance(payload, CoupledPayload):
                    if not precoder.support_in_informed(cfg):
                        raise InvalidConfigError(
                            "coupled streams must be sent from informed antennas"
                        )
                    if coupled.setdefault(payload.aux, payload.terms) != payload.terms:
                        raise InvalidConfigError("conflicting definitions for coupled stream")
                    refs.update(payload.terms)
                else:
                    raise InvalidConfigError(f"unknown payload {payload!r}")
                if not len(precoder.rows) <= precoder.antenna < cfg.M:
                    raise InvalidConfigError(
                        f"stream cancelled at {len(precoder.rows)} rows cannot be sent "
                        f"from antenna {precoder.antenna} of {cfg.M}"
                    )
                if precoder.rows:
                    targets.add((precoder.rx, precoder.rows))
        # Many streams share a cancellation target or a sample; check each once.
        receive_antennas = {1: cfg.N1, 2: cfg.N2}
        for rx, rows in targets:
            if rx not in receive_antennas:
                raise InvalidConfigError("AP-ZF must cancel at receiver 1 or 2")
            if any(not 0 <= r < receive_antennas[rx] for r in rows):
                raise InvalidConfigError(f"AP-ZF rows {rows} out of range for RX{rx}")
            if len(set(rows)) != len(rows):
                raise InvalidConfigError("AP-ZF cancellation rows must be distinct")
            if len(rows) > cfg.k:
                raise InvalidConfigError("AP-ZF cannot cancel at more than k rows")
        for ref in refs:
            if not (0 <= ref.slot < self.T and 0 <= ref.row < receive_antennas.get(ref.rx, 0)):
                raise InvalidConfigError(f"{ref} names no sample of this plan")
        # Weights enter GF(p) forms, which hold integers mod p only.  Checked
        # per type, since an ABC check per sample would slow plan building.
        for weight_type in {type(ref.weight) for ref in refs}:
            if weight_type is bool or not issubclass(weight_type, Integral):
                raise InvalidConfigError(
                    f"sample weights must be integers, got {weight_type.__name__}"
                )
        if fresh_seen != {s.id for s in self.registry.symbols}:
            raise InvalidConfigError("every information symbol must be sent exactly once")
        if coupled.keys() != set(range(len(coupled))):
            raise InvalidConfigError("coupled stream indices must be 0..n-1")

    def to_json(self) -> dict:
        return {
            "scheme": self.scheme_id,
            "config": {"M": self.cfg.M, "N1": self.cfg.N1, "N2": self.cfg.N2, "k": self.cfg.k},
            "claimed_dof": str(self.claimed_dof),
            "symbols": [{"id": s.id, "rx": s.rx} for s in self.registry.symbols],
            "slots": [
                {"streams": [stream.to_json(self.cfg) for stream in slot.streams]}
                for slot in self.slots
            ],
        }


def _symbols(prefix: str, rx: int, count: int) -> list[Symbol]:
    return [Symbol(f"{prefix}{i}", rx) for i in range(1, count + 1)]


def _two_phase_plan(cfg: SystemConfig, shape: PlanShape) -> TransmissionPlan:
    """Build the template plan `shape` on the capped config `cfg`."""
    k = cfg.k
    a_syms = _symbols("a", 1, shape.S1)
    b_syms = _symbols("b", 2, shape.S2)
    a_next, b_next = iter(a_syms), iter(b_syms)

    def recipes(count: int, cancel_rx: int, rows: int) -> list[ApzfRecipe]:
        cancel = tuple(range(rows))
        return [ApzfRecipe(rows + j, cancel_rx, cancel) for j in range(count)]

    # A group's recipes are the same in every slot; only its symbols change.
    a_recipes = recipes(shape.a, 2, shape.a_rows)
    b_recipes = recipes(shape.b, 1, shape.b_rows)
    b2_recipes = recipes(shape.b2, 1, shape.b_rows)

    def fresh(symbols, precoders) -> list[Stream]:
        return [Stream(FreshPayload(next(symbols).id), precoder) for precoder in precoders]

    slots = []
    for _ in range(shape.p1):
        slots.append(Slot(tuple(fresh(a_next, a_recipes) + fresh(b_next, b_recipes))))
    for u in range(shape.p2):
        forwarded = [
            Stream(InterferencePayload(1, (RxRowRef(i, 2, k + u, 1),)), ApzfRecipe(i))
            for i in range(shape.p1)
        ]
        slots.append(Slot(tuple(forwarded + fresh(b_next, b2_recipes))))
    return TransmissionPlan(
        cfg=cfg,
        scheme_id=shape.scheme,
        registry=SymbolRegistry(tuple(a_syms + b_syms)),
        slots=tuple(slots),
    )


def build_scheme_6331() -> TransmissionPlan:
    """Hand-crafted plan certifying sum DoF 4 on the (6,3,3,1) system.

    Sixteen information symbols (a1..a8 for RX1, b1..b8 for RX2) plus two
    crafted streams c and d are sent over 4 slots.  The five uninformed
    antennas carry the information symbols one-per-antenna; the informed
    antenna shapes each group so it vanishes at the third antenna of the
    non-intended receiver, and superposes c (slots 1-2) or d (slots 3-4).
    c and d are the sums of two phase-received samples,

        c = Y2,1(t=1) + Y1,1(t=2),   d = Y2,2(t=1) + Y1,2(t=2),

    so each receiver can strip its own known sample from the decoded c or d
    and recover the cross observation it is missing.
    """
    cfg = SystemConfig(*TABLE1_CONFIG)
    a_syms = _symbols("a", 1, 8)
    b_syms = _symbols("b", 2, 8)
    registry = SymbolRegistry(tuple(a_syms + b_syms))

    c_payload = CoupledPayload(
        aux=0, terms=(RxRowRef(0, 2, 0, 1), RxRowRef(1, 1, 0, 1))
    )
    d_payload = CoupledPayload(
        aux=1, terms=(RxRowRef(0, 2, 1, 1), RxRowRef(1, 1, 1, 1))
    )

    def info_streams(symbols, cancel_rx):
        return [
            Stream(FreshPayload(sym.id), ApzfRecipe(1 + j, cancel_rx, (2,)))
            for j, sym in enumerate(symbols)
        ]

    slots = (
        Slot(tuple([Stream(c_payload, ApzfRecipe(0))] + info_streams(a_syms[:5], 2))),
        Slot(tuple([Stream(c_payload, ApzfRecipe(0))] + info_streams(b_syms[:5], 1))),
        Slot(tuple([Stream(d_payload, ApzfRecipe(0))] + info_streams(a_syms[5:], 2))),
        Slot(tuple([Stream(d_payload, ApzfRecipe(0))] + info_streams(b_syms[5:], 1))),
    )
    return TransmissionPlan(
        cfg=cfg,
        scheme_id="table1",
        registry=registry,
        slots=slots,
    )


def select_scheme(cfg: SystemConfig, allow_special_cases: bool = False) -> TransmissionPlan:
    """The template plan `plan_shape` picks for `cfg`, run on the capped config.

    With `allow_special_cases`, a config that caps to (6,3,3,1) gets the
    crafted plan of `build_scheme_6331` instead.
    """
    eff = effective_config(cfg)
    if allow_special_cases and eff.shape == TABLE1_CONFIG:
        return build_scheme_6331()
    return _two_phase_plan(eff, plan_shape(eff))
