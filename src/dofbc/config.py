"""System configuration for the 2-user broadcast channel with k informed antennas.

A system is described by the tuple (M, N1, N2, k): M transmit antennas serve
two receivers with N1 and N2 antennas, and only the first k transmit antennas
hold perfect channel knowledge (the remaining M - k hold finite-precision
knowledge only).  All analysis assumes the receiver labels are ordered so
that N1 <= N2; `normalize_config` applies that convention.  A config does
not remember the caller's order: the CLI, which reports in that order,
swaps back itself when the caller's N1 > N2.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidConfigError, as_integer


@dataclass(frozen=True)
class SystemConfig:
    """Antenna/CSIT counts, normalized so that N1 <= N2.

    Attributes:
        M: number of transmit antennas (>= 1).
        N1: antennas at the weaker receiver (1 <= N1 <= N2).
        N2: antennas at the stronger receiver.
        k: number of transmit antennas with perfect channel knowledge
            (0 <= k <= M); by convention these are antennas 1..k.
    """

    M: int
    N1: int
    N2: int
    k: int

    def __post_init__(self):
        for name in ("M", "N1", "N2", "k"):
            # Any integer type is stored as an int; a bool or a float raises.
            object.__setattr__(self, name, as_integer(getattr(self, name), name))
        if self.M < 1:
            raise InvalidConfigError("at least one transmit antenna is required")
        if self.N1 < 1 or self.N2 < 1:
            raise InvalidConfigError("each receiver needs at least one antenna")
        if self.N1 > self.N2:
            raise InvalidConfigError("receiver antennas must satisfy N1 <= N2")
        if not 0 <= self.k <= self.M:
            raise InvalidConfigError("informed-antenna count k must satisfy 0 <= k <= M")

    @property
    def N(self) -> int:
        """Combined receive dimension N1 + N2."""
        return self.N1 + self.N2

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return (self.M, self.N1, self.N2, self.k)


def normalize_config(M: int, N1: int, N2: int, k: int) -> SystemConfig:
    """Swap receiver labels if needed so N1 <= N2; `SystemConfig` validates."""
    N1, N2 = as_integer(N1, "N1"), as_integer(N2, "N2")
    return SystemConfig(M, N2, N1, k) if N1 > N2 else SystemConfig(M, N1, N2, k)
