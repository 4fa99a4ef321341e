"""Transmission plans: explicit per-slot linear programs over information symbols.

A plan lists, slot by slot, the streams to superpose on the transmit array,
in stream groups.  Each stream has a payload recipe (what linear form over
information symbols it carries) and a precoder recipe (how the M antennas
weight it).  Payloads are either fresh symbols, interference retransmissions
(channel-dependent linear forms over earlier received samples,
reconstructible at the informed antennas), or the coupled streams of the
hand-crafted (6,3,3,1) plan whose defining equations are solved as a
within-block fixed point.

Plans are built without any channel realization; the verifier realizes them
against channels.  Every stream has one precoder recipe, `ApzfRecipe`: it is
sent with coefficient 1 from one antenna and, when it names AP-ZF rows, the
first informed antennas cancel it there.  A `StreamGroup` holds payloads in
order under one recipe family: stream j of the group is sent from antenna
`precoder.antenna + j`, cancelled at the same rows of the same receiver.  A
plan is checked, laid out and serialized group by group.  Independence of
simultaneously transmitted streams is arranged with distinct sending
antennas and then *verified* by the rank checks, never assumed.

Every built-in plan except the crafted (6,3,3,1) one follows one two-phase
template on the config with M capped at N1+N2.  Phase 1 has p1 slots, each
sending a group of `a` fresh RX1 streams cancelled at RX2 rows
range(a_rows), then a group of `b` fresh RX2 streams cancelled at RX1 rows
range(b_rows).  Phase 2 has p2 slots; slot u sends a group that forwards,
from informed antenna i, the RX2 row k+u that phase-1 slot i leaked onto
RX2's unprotected antennas (a pure RX1-symbol form RX2 already holds and RX1
still needs), then a group of b2 fresh RX2 streams cancelled at RX1 rows
range(b_rows).  A fresh group cancelled at r rows starts at antenna r, and
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

A plan is checked in one place, `_Structure`, built from M, the registry
and the slots.  It runs every check that reads nothing else, and records
the least N1, N2 and k the rest need, each with the message of the check
that set it.  `_Structure.admit` holds a config to those three, for every
plan: a hand-built or crafted one when it is made, a template one when it
is served.  Within a process, template plans with the same (shape, M, k)
share one structure: registry, slots, claimed DoF, needs and layout; k
counts only when the shape has a phase 2.  Every template plan is served
from its key's structure, which enters a bounded module table the first
time the key is asked for, whether its plans are then realized or only
serialized.  The structure builds its layout on first use.  Each plan
still carries its own config, and keeps its structure after the key is
dropped from the table.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain, islice
from numbers import Integral
from typing import NamedTuple

import numpy as np

from .config import SystemConfig
from .errors import InvalidConfigError
from .precoding import CHANNEL, CONSTANT, _system_index
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
    def _owned(self) -> dict[int, tuple[int, ...]]:
        owned: dict[int, list[int]] = {}
        for i, s in enumerate(self.symbols):
            owned.setdefault(s.rx, []).append(i)
        return {rx: tuple(columns) for rx, columns in owned.items()}

    @property
    def S1(self) -> int:
        return len(self.owned_columns(1))

    @property
    def S2(self) -> int:
        return len(self.owned_columns(2))

    def owned_columns(self, rx: int) -> tuple[int, ...]:
        return self._owned.get(rx, ())

    def split(self, rx: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(desired, interference) columns at receiver `rx`."""
        return self.owned_columns(rx), self.owned_columns(3 - rx)

    @cached_property
    def _rank_orders(self) -> tuple[tuple[np.ndarray, int], ...]:
        """(order, split) at RX1, then at RX2: the receiver's `split` columns
        as [interference | desired] in one read-only intp array, and the
        count of interference columns, where the desired ones start.  The
        rank checks and rate slopes read a receiver's columns from it, so
        plans that share a registry share it."""
        orders = []
        for rx in (1, 2):
            desired, interference = self.split(rx)
            order = _readonly(np.array(interference + desired, dtype=np.intp))
            orders.append((order, len(interference)))
        return tuple(orders)


class RxRowRef(NamedTuple):
    """Reference to one noiseless received sample: (slot, receiver, local row),
    with the integer weight it takes in a combination."""

    slot: int
    rx: int
    row: int
    weight: int


@dataclass(frozen=True, slots=True)
class FreshPayload:
    symbol: str

    def to_json(self):
        return {"kind": "fresh", "symbol": self.symbol}


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
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

    def to_json(self, cfg: SystemConfig, count: int) -> list[dict]:
        """The recipes of `count` streams sent from `antenna` onwards, as JSON."""
        antennas = range(self.antenna, self.antenna + count)
        if not self.rows:
            return [{"kind": "unit", "antenna": a} for a in antennas]
        kp, rows, zeros = len(self.rows), list(self.rows), [0] * (cfg.M - len(self.rows))
        dicts = []
        for a in antennas:
            pattern = zeros.copy()
            pattern[a - kp] = 1
            dicts.append({"kind": "apzf", "rx": self.rx, "rows": rows, "pattern": pattern})
        return dicts


@dataclass(frozen=True, slots=True)
class StreamGroup:
    """Streams under one recipe family: stream j carries `payloads[j]` and is
    sent from antenna `precoder.antenna + j`, cancelled at `precoder.rows` of
    receiver `precoder.rx` like every other stream of the group."""

    payloads: tuple[FreshPayload | InterferencePayload | CoupledPayload, ...]
    precoder: ApzfRecipe


@dataclass(frozen=True, slots=True)
class Slot:
    groups: tuple[StreamGroup, ...]


class SlotLayout(NamedTuple):
    """One slot of `TransmissionPlan.layout`; a stream's column is that of its
    precoder in [I_M | Z], Z being the plan's AP-ZF columns.  The arrays are
    read-only, and slots and plans may share them."""

    columns: np.ndarray
    rows: np.ndarray  # (rows[i], forms[i]) is one-hot: fresh streams, then coupled ones
    forms: np.ndarray  # a fresh stream's form column is its symbol's column
    sources: np.ndarray  # the column of each fresh stream, in order
    mixed: np.ndarray  # interference and coupled streams: their samples need a product
    interference: tuple  # (stream, owner's symbol columns, terms) per interference stream
    constant: np.ndarray  # M x streams: where `ApzfRecipe.labels` says constant


class PlanLayout(NamedTuple):
    slots: tuple[SlotLayout, ...]
    coupled: tuple  # each coupled stream's terms, by aux index
    # Every AP-ZF solve, on either field: [I_M | Z] with its AP-ZF entries
    # zero, and per target (rx, k', Z's columns as a slice,
    # `precoding._system_index` of its system), in Z's column order.
    template: np.ndarray
    systems: tuple


@dataclass(frozen=True)
class TransmissionPlan:
    """A complete transmission program; it claims the sum DoF (S1+S2)/T."""

    cfg: SystemConfig
    scheme_id: str
    registry: SymbolRegistry
    slots: tuple[Slot, ...]

    def __post_init__(self):
        object.__setattr__(self, "_structure", _Structure(self.cfg.M, self.registry, self.slots))
        self._structure.admit(self.cfg)

    @classmethod
    def _served(cls, cfg: SystemConfig, scheme_id: str, structure: _Structure) -> TransmissionPlan:
        """The plan on `cfg` with the table's `structure`, once `cfg` passes
        its admission check: the structure ran every other check when it
        was built."""
        structure.admit(cfg)
        plan = object.__new__(cls)
        plan.__dict__.update(
            cfg=cfg, scheme_id=scheme_id, registry=structure.registry, slots=structure.slots,
            _structure=structure,
        )
        return plan

    @property
    def T(self) -> int:
        return len(self.slots)

    @property
    def claimed_dof(self) -> Fraction:
        return self._structure.claimed_dof

    @property
    def aux_count(self) -> int:
        """Number of coupled streams; validation makes their indices 0..aux_count-1."""
        return len(self.layout.coupled)

    @property
    def layout(self) -> PlanLayout:
        """The plan as read-only index arrays, so realizing it walks no
        stream per channel: its structure's, built on first use and shared
        by every plan of the structure."""
        return self._structure.layout

    def to_json(self) -> dict:
        """The plan as JSON-ready dicts, one per stream.  The streams of a
        group share their `csit` list, and groups of one recipe family and
        size, in any slot, share their `precoder` dicts and `csit`: mutating
        one stream's `precoder` or `csit` changes the others'."""
        cfg, shared = self.cfg, {}  # (recipe family, size) -> (precoder dicts, csit)

        def streams(group: StreamGroup) -> list[dict]:
            key = (group.precoder, len(group.payloads))
            if key not in shared:
                shared[key] = (group.precoder.to_json(cfg, key[1]), list(group.precoder.labels(cfg)))
            precoders, csit = shared[key]
            return [
                {"payload": payload.to_json(), "precoder": precoder, "csit": csit}
                for payload, precoder in zip(group.payloads, precoders)
            ]

        return {
            "scheme": self.scheme_id,
            "config": {"M": cfg.M, "N1": cfg.N1, "N2": cfg.N2, "k": cfg.k},
            "claimed_dof": str(self.claimed_dof),
            "symbols": [{"id": s.id, "rx": s.rx} for s in self.registry.symbols],
            "slots": [
                {"streams": [stream for group in slot.groups for stream in streams(group)]}
                for slot in self.slots
            ],
        }


# Symbols prefix1, prefix2, ... and their fresh payloads, by (prefix, rx):
# both are immutable, so every plan shares them.  A longer request rebuilds
# both at twice its length; threads that race only rebuild them twice.
_FRESH: dict[tuple[str, int], tuple[tuple[Symbol, ...], tuple[FreshPayload, ...]]] = {}


def _symbols(prefix: str, rx: int, count: int) -> tuple[tuple, tuple]:
    """The first `count` symbols for receiver `rx`, and the fresh payloads that send them."""
    symbols, payloads = _FRESH.get((prefix, rx), ((), ()))
    if len(symbols) < count:
        symbols = tuple(Symbol(f"{prefix}{i}", rx) for i in range(1, 2 * count + 1))
        payloads = tuple(FreshPayload(s.id) for s in symbols)
        _FRESH[prefix, rx] = symbols, payloads
    return symbols[:count], payloads[:count]


# Phase 2's forwarded payloads by RX2 row: payload i forwards that row of
# phase-1 slot i, sent from informed antenna i alone.  Immutable and shared
# by every plan, like `_FRESH`.
_FORWARDED: dict[int, tuple[InterferencePayload, ...]] = {}
_FORWARD_RECIPE = ApzfRecipe(0)


def _forwarded(row: int, count: int) -> tuple[InterferencePayload, ...]:
    """The payloads forwarding RX2 row `row` of phase-1 slots 0..count-1."""
    payloads = _FORWARDED.get(row, ())
    if len(payloads) < count:
        payloads = tuple(InterferencePayload(1, (RxRowRef(i, 2, row, 1),)) for i in range(2 * count))
        _FORWARDED[row] = payloads
    return payloads[:count]


class _Structure:
    """A plan's registry and slots on M antennas, checked once, and what
    plans of that structure share: the claimed DoF (S1+S2)/T, `needs` and
    the layout, built the first time it is read.  Threads that race to read
    it first may each build one; the layouts are equal."""

    __slots__ = ("registry", "slots", "claimed_dof", "needs", "_M", "_layout")

    def __init__(self, M: int, registry: SymbolRegistry, slots: tuple[Slot, ...]):
        """Run every check of a plan that reads only M, the registry and the
        slots.  The checks that read N1, N2 or k leave `needs`: for each, the
        least value that passes them and the message of the check that set
        it, for `admit`.  A group's recipe is checked once: its streams
        share rx and rows, and their antennas run from its first to its last."""
        if not slots:
            raise InvalidConfigError("a plan needs at least one slot")
        needs = [(0, ""), (0, ""), (0, "")]  # N1, N2, k

        def need(i: int, value: int, message: str, *args) -> None:
            if value > needs[i][0]:
                needs[i] = value, message.format(*args)

        fresh: list[str] = []
        targets = set()
        refs: set[RxRowRef] = set()
        weight_types = set()
        coupled: dict[int, tuple[RxRowRef, ...]] = {}
        for t, slot in enumerate(slots):
            if not isinstance(slot, Slot):
                raise InvalidConfigError(f"unknown slot {slot!r}")
            if not slot.groups:
                raise InvalidConfigError(f"slot {t} sends no streams")
            for group in slot.groups:
                if not isinstance(group, StreamGroup):
                    raise InvalidConfigError(f"unknown stream group {group!r}")
                if type(group.payloads) is not tuple:
                    raise InvalidConfigError(f"stream group payloads {group.payloads!r} must be a tuple")
                precoder, last = group.precoder, len(group.payloads) - 1
                if not isinstance(precoder, ApzfRecipe):
                    raise InvalidConfigError(f"unknown precoder {precoder!r}")
                if last < 0:
                    raise InvalidConfigError(f"slot {t} sends an empty stream group")
                dependent = None  # (index, message) of the group's last channel-dependent stream
                for j, payload in enumerate(group.payloads):
                    if isinstance(payload, FreshPayload):
                        fresh.append(payload.symbol)
                        continue
                    if not isinstance(payload, (InterferencePayload, CoupledPayload)):
                        raise InvalidConfigError(f"unknown payload {payload!r}")
                    if type(payload.terms) is not tuple:
                        raise InvalidConfigError(f"sample terms {payload.terms!r} must be a tuple")
                    # Per term: a bool or float equals the int it would index
                    # as, so a set of terms would hide it.
                    for ref in payload.terms:
                        if type(ref) is not RxRowRef:
                            raise InvalidConfigError(f"sample term {ref!r} must be an RxRowRef")
                        if not type(ref.slot) is type(ref.rx) is type(ref.row) is int:
                            raise InvalidConfigError(f"{ref} must name an int slot, receiver and row")
                        weight_types.add(type(ref.weight))
                    refs.update(payload.terms)
                    if isinstance(payload, InterferencePayload):
                        if type(payload.owner) is not int or payload.owner not in (1, 2):
                            raise InvalidConfigError("interference owner must be RX1 or RX2")
                        if any(ref.slot >= t for ref in payload.terms):
                            raise InvalidConfigError("retransmission must reference earlier slots")
                        dependent = j, "channel-dependent payloads must be sent from informed antennas"
                    else:
                        if type(payload.aux) is not int:
                            raise InvalidConfigError("coupled stream indices must be 0..n-1")
                        if coupled.setdefault(payload.aux, payload.terms) != payload.terms:
                            raise InvalidConfigError("conflicting definitions for coupled stream")
                        dependent = j, "coupled streams must be sent from informed antennas"
                if type(precoder.rows) is not tuple:  # a list is unhashable, a string iterates
                    raise InvalidConfigError(f"AP-ZF rows {precoder.rows!r} must be a tuple")
                kp, first = len(precoder.rows), precoder.antenna
                if type(first) is not int:  # a float or bool would index as another antenna
                    raise InvalidConfigError(f"stream antenna must be an int, got {first!r}")
                if not (kp <= first and first + last < M):
                    antenna = M if kp <= first < M else first  # the first stream off range
                    raise InvalidConfigError(
                        f"stream cancelled at {kp} rows cannot be sent from antenna {antenna} of {M}"
                    )
                if dependent:
                    need(2, first + dependent[0] + 1, dependent[1])
                if precoder.rows:
                    targets.add((precoder.rx, precoder.rows))
        # Many groups share a cancellation target or a sample; check each once.
        for rx, rows in targets:
            if not all(type(v) is int for v in (rx, *rows)):
                raise InvalidConfigError(f"AP-ZF target {(rx, rows)} must name int rows of an int receiver")
            if rx not in (1, 2):
                raise InvalidConfigError("AP-ZF must cancel at receiver 1 or 2")
            if min(rows) < 0:
                raise InvalidConfigError(f"AP-ZF rows {rows} out of range for RX{rx}")
            if len(set(rows)) != len(rows):
                raise InvalidConfigError("AP-ZF cancellation rows must be distinct")
            need(rx - 1, max(rows) + 1, "AP-ZF rows {} out of range for RX{}", rows, rx)
            need(2, len(rows), "AP-ZF cannot cancel at more than k rows")
        for ref in refs:
            if not (0 <= ref.slot < len(slots) and ref.rx in (1, 2) and ref.row >= 0):
                raise InvalidConfigError(f"{ref} names no sample of this plan")
            need(ref.rx - 1, ref.row + 1, "{} names no sample of this plan", ref)
        # Weights enter GF(p) forms, which hold integers mod p only.  Checked
        # per type, since an ABC check per sample would slow plan building.
        for weight_type in weight_types:
            if weight_type is bool or not issubclass(weight_type, Integral):
                raise InvalidConfigError(f"sample weights must be integers, got {weight_type.__name__}")
        fresh_seen = set(fresh)
        if len(fresh_seen) < len(fresh):
            twice = next(s for i, s in enumerate(fresh) if s in fresh[:i])
            raise InvalidConfigError(f"symbol {twice} sent fresh twice")
        if fresh_seen != {s.id for s in registry.symbols}:
            raise InvalidConfigError("every information symbol must be sent exactly once")
        if coupled.keys() != set(range(len(coupled))):
            raise InvalidConfigError("coupled stream indices must be 0..n-1")
        self.registry, self.slots, self._M, self._layout = registry, slots, M, None
        self.claimed_dof = Fraction(registry.S1 + registry.S2, len(slots))
        self.needs = tuple(needs)

    def admit(self, cfg: SystemConfig) -> None:
        """Refuse a config with fewer RX1 rows, RX2 rows or informed antennas
        than the structure needs, with the message of the check that needs
        them."""
        N1, N2, k = self.needs
        if cfg.N1 < N1[0]:
            raise InvalidConfigError(N1[1])
        if cfg.N2 < N2[0]:
            raise InvalidConfigError(N2[1])
        if cfg.k < k[0]:
            raise InvalidConfigError(k[1])

    @property
    def layout(self) -> PlanLayout:
        if self._layout is None:
            self._layout = _plan_layout(self._M, self.registry, self.slots)
        return self._layout


def _plan_layout(M: int, registry: SymbolRegistry, slots: tuple[Slot, ...]) -> PlanLayout:
    """`TransmissionPlan.layout` of the plan with `registry` and `slots` on
    M antennas.  Built group by group, from lists and one array cut into
    views: a group's antennas are one range."""
    S = len(registry.symbols)
    targets: dict[tuple, dict[int, int]] = {}  # (rx, rows) -> {antenna: column}
    for r, n in ((g.precoder, len(g.payloads)) for slot in slots for g in slot.groups):
        if r.rows:  # new antennas join the target's columns in order
            antennas = dict.fromkeys(range(r.antenna, r.antenna + n))
            targets.setdefault((r.rx, r.rows), {}).update(antennas)
    column = M
    systems = []
    for (rx, rows), antennas in targets.items():
        start = column
        for antenna in antennas:
            antennas[antenna], column = column, column + 1
        index = _readonly(_system_index(M, rows, antennas))
        systems.append((rx, len(rows), slice(start, column), index))
    template = np.eye(M, column, dtype=np.int64)
    for antennas in targets.values():
        template[list(antennas), list(antennas.values())] = 1
    index = {s.id: i for i, s in enumerate(registry.symbols)}  # not kept: shared layouts stay small
    owned: dict[int, np.ndarray] = {}  # one symbol-column array per owner, shared by its streams
    # Each distinct index list is stored once: slots of one phase differ in their forms only.
    segments: dict[tuple[int, ...], int] = {}
    per_slot, coupled = [], {}
    for slot in slots:
        columns, cancelled, rows, forms, aux_rows, aux_forms, terms = ([] for _ in range(7))
        for g in slot.groups:
            r, first = g.precoder, len(columns)
            antennas = range(r.antenna, r.antenna + len(g.payloads))
            columns += map(targets[r.rx, r.rows].__getitem__, antennas) if r.rows else antennas
            cancelled += [len(r.rows)] * len(antennas)
            for j, payload in enumerate(g.payloads, first):
                if isinstance(payload, FreshPayload):
                    rows.append(j)
                    forms.append(index[payload.symbol])
                elif isinstance(payload, InterferencePayload):
                    if payload.owner not in owned:
                        columns_of = np.array(registry.owned_columns(payload.owner), dtype=np.intp)
                        owned[payload.owner] = _readonly(columns_of)
                    terms.append((j, owned[payload.owner], payload.terms))
                else:
                    aux_rows.append(j)
                    aux_forms.append(S + payload.aux)
                    coupled[payload.aux] = payload.terms
        sources, mixed = [columns[j] for j in rows], [t[0] for t in terms] + aux_rows
        fields = (columns, rows + aux_rows, forms + aux_forms, sources, mixed)
        ids = [segments.setdefault(tuple(f), len(segments)) for f in fields]
        per_slot.append((ids, tuple(cancelled), tuple(terms)))
    sizes = list(map(len, segments))
    flat = _readonly(np.fromiter(chain.from_iterable(segments), dtype=np.intp))
    views = [flat[end - size : end] for size, end in zip(sizes, accumulate(sizes))]
    antenna, masks, slot_layouts = np.arange(M)[:, None], {}, []
    for ids, cancelled, terms in per_slot:
        if cancelled not in masks:  # labelled constant past the AP-ZF antennas
            masks[cancelled] = _readonly(antenna >= np.array(cancelled, dtype=np.intp))
        slot_layouts.append(SlotLayout(*map(views.__getitem__, ids), terms, masks[cancelled]))
    coupled_terms = tuple(coupled[aux] for aux in range(len(coupled)))
    return PlanLayout(tuple(slot_layouts), coupled_terms, _readonly(template), tuple(systems))


# The structure of each template plan by (shape, M, k) of its capped config,
# k only when the shape has a phase 2.  Plans with the same key share it:
# the slots depend only on the shape and on k (phase 2 forwards RX2 row
# k + u), the layout only on the slots, the registry and M.  Each plan still
# carries its own config, which the structure admits.  An entry is added the
# first time its key is asked for, so plans that are only serialized are
# served too, and builds its layout on first use.  Past _TEMPLATE_LIMIT
# entries the oldest is dropped; plans served from it keep their structure.
# The criterion-3 and criterion-4 grids need 224 keys, so certifying them
# never evicts; 256 also bounds the layout-less entries that serializing
# callers, such as the bounds sweep over M <= 20, leave behind.
_TEMPLATES: dict[tuple, _Structure] = {}
_TEMPLATE_LIMIT = 256
_TEMPLATES_LOCK = threading.Lock()


def _readonly(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _two_phase_plan(cfg: SystemConfig, shape: PlanShape) -> TransmissionPlan:
    """The template plan `shape` on the capped config `cfg`, served from its
    key's structure in `_TEMPLATES`, which is built and added first when the
    table lacks it."""
    key = (shape, cfg.M, cfg.k if shape.p2 else None)
    structure = _TEMPLATES.get(key)
    if structure is None:
        a_syms, a_fresh = _symbols("a", 1, shape.S1)
        b_syms, b_fresh = _symbols("b", 2, shape.S2)
        a_next, b_next = iter(a_fresh), iter(b_fresh)
        # A group's recipe family is the same in every slot; only its payloads change.
        a_recipe = ApzfRecipe(shape.a_rows, 2, tuple(range(shape.a_rows)))
        b_recipe = ApzfRecipe(shape.b_rows, 1, tuple(range(shape.b_rows)))

        def slot(*groups) -> Slot:
            """The next `count` payloads under `recipe`, per non-empty (payloads, count, recipe)."""
            return Slot(tuple(StreamGroup(tuple(islice(p, n)), r) for p, n, r in groups if n))

        slots = [slot((a_next, shape.a, a_recipe), (b_next, shape.b, b_recipe)) for _ in range(shape.p1)]
        for u in range(shape.p2):
            forwarded = iter(_forwarded(cfg.k + u, shape.p1))
            slots.append(slot((forwarded, shape.p1, _FORWARD_RECIPE), (b_next, shape.b2, b_recipe)))
        structure = _Structure(cfg.M, SymbolRegistry(a_syms + b_syms), tuple(slots))
        with _TEMPLATES_LOCK:  # add it, dropping the oldest entry past the limit
            _TEMPLATES[key] = structure
            while len(_TEMPLATES) > _TEMPLATE_LIMIT:
                del _TEMPLATES[next(iter(_TEMPLATES))]
    return TransmissionPlan._served(cfg, shape.scheme, structure)


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
    a_syms, a_fresh = _symbols("a", 1, 8)
    b_syms, b_fresh = _symbols("b", 2, 8)
    c_payload = CoupledPayload(aux=0, terms=(RxRowRef(0, 2, 0, 1), RxRowRef(1, 1, 0, 1)))
    d_payload = CoupledPayload(aux=1, terms=(RxRowRef(0, 2, 1, 1), RxRowRef(1, 1, 1, 1)))

    def slot(crafted, fresh, cancel_rx) -> Slot:
        crafted_group = StreamGroup((crafted,), ApzfRecipe(0))
        return Slot((crafted_group, StreamGroup(fresh, ApzfRecipe(1, cancel_rx, (2,)))))

    slots = (
        slot(c_payload, a_fresh[:5], 2),
        slot(c_payload, b_fresh[:5], 1),
        slot(d_payload, a_fresh[5:], 2),
        slot(d_payload, b_fresh[5:], 1),
    )
    registry = SymbolRegistry(a_syms + b_syms)
    return TransmissionPlan(SystemConfig(*TABLE1_CONFIG), "table1", registry, slots)


def select_scheme(cfg: SystemConfig, allow_special_cases: bool = False) -> TransmissionPlan:
    """The template plan `plan_shape` picks for `cfg`, run on the capped config.

    With `allow_special_cases`, a config that caps to (6,3,3,1) gets the
    crafted plan of `build_scheme_6331` instead.
    """
    eff = effective_config(cfg)
    if allow_special_cases and eff.shape == TABLE1_CONFIG:
        return build_scheme_6331()
    return _two_phase_plan(eff, plan_shape(eff))
