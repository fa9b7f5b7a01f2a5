"""Work accounting.

Every router kernel charges the operations it performs — MST relaxation
rounds, L-shape cost evaluations, feedthrough matches, flip evaluations —
to a counter under a *work kind*.  Serial runs use a :class:`TallyCounter`
to obtain the modeled serial runtime; parallel ranks use their logical
clock (which implements the same protocol) so per-rank load imbalance is
captured exactly.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Protocol, runtime_checkable


@runtime_checkable
class WorkCounter(Protocol):
    """Anything accepting ``add(kind, units)`` charges."""

    def add(self, kind: str, units: float) -> None:  # pragma: no cover - protocol
        ...


class NullCounter:
    """Discards all charges (default when nobody asks for timing)."""

    __slots__ = ()

    def add(self, kind: str, units: float) -> None:
        """Discard the charge."""
        return None


#: Shared no-op counter.
NULL_COUNTER = NullCounter()


class TallyCounter:
    """Accumulates charged units per work kind."""

    __slots__ = ("units",)

    def __init__(self) -> None:
        self.units: Dict[str, float] = defaultdict(float)

    def add(self, kind: str, units: float) -> None:
        """Charge ``units`` of ``kind`` work."""
        self.units[kind] += units

    def total(self) -> float:
        """Sum of charged units across all kinds."""
        return sum(self.units.values())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        inner = ", ".join(f"{k}={v:g}" for k, v in sorted(self.units.items()))
        return f"TallyCounter({inner})"


class FanoutCounter:
    """Tallies every charge locally *and* forwards it to a sink counter.

    The orchestrators need both views of the same charges: a private
    :class:`TallyCounter` (the modeled serial runtime recorded in
    ``RoutingResult.work_units``) and whatever counter the caller passed
    in (a rank's logical clock, a test probe).  This is the reusable form
    of that tally+forward pair; charging is on the router's hottest path,
    so forwarding to the shared no-op counter is skipped up front.
    """

    __slots__ = ("tally", "_units", "_sink", "_forward")

    def __init__(self, sink: WorkCounter = NULL_COUNTER, tally: TallyCounter | None = None) -> None:
        self.tally = tally if tally is not None else TallyCounter()
        self._units = self.tally.units  # bound once: add() is hot
        self._sink = sink
        self._forward = not isinstance(sink, NullCounter)

    def add(self, kind: str, units: float) -> None:
        """Charge ``units`` of ``kind`` to the tally and the sink."""
        self._units[kind] += units
        if self._forward:
            self._sink.add(kind, units)
