"""Core circuit data structures: pins, cells, nets, rows, circuits.

Coordinate system
-----------------
* ``x`` — integer column coordinate along a row (one unit = one routing
  grid column; cell widths are small integers).
* ``row`` — standard-cell row index, ``0`` at the bottom.
* channels — horizontal routing regions; channel ``c`` lies *below* row
  ``c``, so a circuit with ``R`` rows has ``R + 1`` channels (``R`` is the
  channel above the top row).

Pin sides and equivalence
-------------------------
A pin sits on the top (``side=+1``) or bottom (``side=-1``) edge of its
cell.  Some cells expose the same signal on both edges; such a pin has
``has_equiv=True`` and a wire may attach from either adjacent channel.
Net segments whose two endpoint pins are both equivalent are the
*switchable net segments* optimized in TWGR step 5.
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from repro.geometry import BBox, Point

#: Width (in grid columns) of an inserted feedthrough cell.
FEED_WIDTH = 1


class PinKind(enum.IntEnum):
    """What a pin is attached to.

    ``CELL``  — a regular pin on a logic cell.
    ``FEED``  — a pin on an inserted feedthrough cell (created in TWGR
    step 2/3).
    ``FAKE``  — a boundary pin created by the row-wise parallel algorithm;
    it is attached to no cell and never shifts when feedthroughs are
    inserted (paper §4).
    """

    CELL = 0
    FEED = 1
    FAKE = 2


@dataclass(slots=True)
class Pin:
    """A pin: the joint element of a cell and a net."""

    id: int
    net: int
    cell: int  # -1 for FAKE pins
    x: int
    row: int
    side: int = 1  # +1 top edge, -1 bottom edge
    has_equiv: bool = False
    kind: PinKind = PinKind.CELL

    @property
    def point(self) -> Point:
        """Grid position as a :class:`Point`."""
        return Point(self.x, self.row)

    def channel(self) -> int:
        """The channel this pin naturally connects to given its side."""
        return self.row + 1 if self.side > 0 else self.row


@dataclass(slots=True)
class Cell:
    """A standard cell placed in a row.

    ``x`` is the left edge; the cell occupies columns ``[x, x + width)``.
    """

    id: int
    row: int
    x: int
    width: int
    pins: List[int] = field(default_factory=list)
    is_feed: bool = False

    @property
    def right(self) -> int:
        """One past the cell's last occupied column."""
        return self.x + self.width


@dataclass(slots=True)
class Net:
    """A net: a named list of pin ids (2-pin and multi-pin nets alike)."""

    id: int
    name: str
    pins: List[int] = field(default_factory=list)

    @property
    def degree(self) -> int:
        """Number of pins on the net."""
        return len(self.pins)


@dataclass(slots=True)
class Row:
    """A row of cells, kept sorted by cell ``x``."""

    index: int
    cells: List[int] = field(default_factory=list)


@dataclass(frozen=True, slots=True)
class CircuitStats:
    """Summary counts, mirroring the paper's Table 1 columns."""

    num_rows: int
    num_pins: int
    num_cells: int
    num_nets: int

    def as_row(self) -> tuple[int, int, int, int]:
        """The Table-1 column order: rows, pins, cells, nets."""
        return (self.num_rows, self.num_pins, self.num_cells, self.num_nets)


class Circuit:
    """A complete standard-cell circuit.

    The structure is mutable because the router inserts feedthrough cells
    (which widen rows and shift cells/pins); :meth:`clone` gives routing
    passes a private copy so the caller's circuit is never modified.
    """

    def __init__(self, name: str = "circuit") -> None:
        self.name = name
        self.pins: List[Pin] = []
        self.cells: List[Cell] = []
        self.nets: List[Net] = []
        self.rows: List[Row] = []
        # fake pins per row, so feed insertion can shift them with the row
        self._fake_pins_by_row: Dict[int, List[int]] = {}

    # -- construction ----------------------------------------------------

    def add_row(self) -> Row:
        """Append an empty row and return it."""
        row = Row(index=len(self.rows))
        self.rows.append(row)
        return row

    def add_cell(self, row: int, x: int, width: int, is_feed: bool = False) -> Cell:
        """Place a cell at ``x`` in ``row`` and return it."""
        if not 0 <= row < len(self.rows):
            raise IndexError(f"row {row} out of range")
        cell = Cell(len(self.cells), row, x, width, [], is_feed)
        self.cells.append(cell)
        self.rows[row].cells.append(cell.id)
        return cell

    def add_net(self, name: Optional[str] = None) -> Net:
        """Create an empty net (auto-named when ``name`` is None)."""
        net = Net(len(self.nets), name or f"n{len(self.nets)}", [])
        self.nets.append(net)
        return net

    def add_pin(
        self,
        net: int,
        cell: int,
        offset: int = 0,
        side: int = 1,
        has_equiv: bool = False,
        kind: PinKind = PinKind.CELL,
        x: Optional[int] = None,
        row: Optional[int] = None,
    ) -> Pin:
        """Attach a pin to ``net`` and (unless FAKE) to ``cell``.

        For cell pins the absolute position derives from the cell placement
        plus ``offset``; fake pins pass explicit ``x``/``row``.
        """
        if kind is PinKind.FAKE:
            if x is None or row is None:
                raise ValueError("fake pins need explicit x and row")
            px, prow = x, row
        else:
            c = self.cells[cell]
            if not 0 <= offset < c.width:
                raise ValueError(f"pin offset {offset} outside cell width {c.width}")
            px, prow = c.x + offset, c.row
        # positional: a keyword call costs the dataclass __init__ about
        # twice as much, and sub-circuit extraction adds pins by the
        # thousand
        pin = Pin(
            len(self.pins), net, cell if kind is not PinKind.FAKE else -1,
            px, prow, side, has_equiv, kind,
        )
        self.pins.append(pin)
        if net >= 0:
            self.nets[net].pins.append(pin.id)
        if kind is not PinKind.FAKE:
            self.cells[cell].pins.append(pin.id)
        else:
            self._fake_pins_by_row.setdefault(prow, []).append(pin.id)
        return pin

    # -- queries ---------------------------------------------------------

    @property
    def num_rows(self) -> int:
        """Number of standard-cell rows."""
        return len(self.rows)

    @property
    def num_channels(self) -> int:
        """Channels between/around rows: one more than the row count."""
        return len(self.rows) + 1

    def stats(self) -> CircuitStats:
        """Headline counts (feedthrough cells and their pins excluded)."""
        real_cells = sum(1 for c in self.cells if not c.is_feed)
        real_pins = sum(1 for p in self.pins if p.kind is PinKind.CELL)
        return CircuitStats(
            num_rows=len(self.rows),
            num_pins=real_pins,
            num_cells=real_cells,
            num_nets=len(self.nets),
        )

    def net_pins(self, net_id: int) -> List[Pin]:
        """The net's pin records, in membership order."""
        return [self.pins[p] for p in self.nets[net_id].pins]

    def net_points(self, net_id: int) -> List[Point]:
        """The net's pin positions, in membership order."""
        return [self.pins[p].point for p in self.nets[net_id].pins]

    def net_bbox(self, net_id: int) -> BBox:
        """Bounding box of the net's pins."""
        return BBox.from_points(self.net_points(net_id))

    def row_width(self, row: int) -> int:
        """Occupied width of a row (rightmost cell edge)."""
        ids = self.rows[row].cells
        if not ids:
            return 0
        return max(self.cells[c].right for c in ids)

    def max_row_width(self) -> int:
        """Widest row's occupied width (the core width)."""
        if not self.rows:
            return 0
        return max(self.row_width(r) for r in range(len(self.rows)))

    def width(self) -> int:
        """Horizontal extent of the core (max over rows)."""
        return self.max_row_width()

    def pin_coords(self, net_id: int) -> np.ndarray:
        """``(degree, 2)`` array of ``(x, row)`` for a net's pins."""
        pts = self.net_points(net_id)
        return np.array([(p.x, p.row) for p in pts], dtype=np.int64)

    def iter_cell_pins(self, cell_id: int) -> Iterator[Pin]:
        """Yield the pin records attached to one cell."""
        for pid in self.cells[cell_id].pins:
            yield self.pins[pid]

    # -- mutation used by routing ----------------------------------------

    def sort_rows(self) -> None:
        """Re-sort each row's cell list by x (after insertions)."""
        for row in self.rows:
            row.cells.sort(key=lambda cid: self.cells[cid].x)

    def insert_feedthroughs(self, row: int, positions: Sequence[int]) -> List[Cell]:
        """Insert feedthrough cells at the given x positions in ``row``.

        Cells (and their pins) at or right of an insertion point shift
        right by :data:`FEED_WIDTH` per inserted feed, exactly like
        TimberWolf widening rows.  FAKE pins in the row shift by the same
        rule: they are not attached to cells, but they mark where a wire
        crosses the row's geometry, and that geometry just moved.
        Returns the new feedthrough cells, whose pins are *not yet* bound
        to any net (``net == -1``) — TWGR step 3 binds them.
        """
        if not positions:
            return []
        pos = sorted(positions)
        # Amount each existing x coordinate shifts: FEED_WIDTH per
        # insertion point at or left of it.  Plain bisect beats a NumPy
        # searchsorted here — the arrays are a few dozen entries and the
        # query runs once per cell.
        pins = self.pins
        for cid in self.rows[row].cells:
            cell = self.cells[cid]
            s = FEED_WIDTH * bisect_right(pos, cell.x)
            if s:
                cell.x += s
                for pid in cell.pins:
                    pins[pid].x += s
        for pid in self._fake_pins_by_row.get(row, ()):
            pin = pins[pid]
            pin.x += FEED_WIDTH * bisect_right(pos, pin.x)
        created: List[Cell] = []
        for k, x in enumerate(pos):
            # Each feed lands at its original position plus the shift
            # caused by feeds inserted before (left of) it.
            feed = self.add_cell(row, x + FEED_WIDTH * k, FEED_WIDTH, is_feed=True)
            pin = self.add_pin(
                net=-1, cell=feed.id, offset=0, side=1, has_equiv=True, kind=PinKind.FEED
            )
            # A feedthrough connects both channels; model as a single
            # dual-sided pin (has_equiv covers the opposite edge).
            created.append(feed)
            del pin
        self.rows[row].cells.sort(key=lambda cid: self.cells[cid].x)
        return created

    def bind_feed_pin(self, pin_id: int, net_id: int) -> None:
        """Assign a previously unbound feedthrough pin to a net (step 3)."""
        pin = self.pins[pin_id]
        if pin.kind is not PinKind.FEED:
            raise ValueError(f"pin {pin_id} is not a feedthrough pin")
        if pin.net >= 0:
            raise ValueError(f"feed pin {pin_id} already bound to net {pin.net}")
        pin.net = net_id
        self.nets[net_id].pins.append(pin_id)

    # -- copying ---------------------------------------------------------

    def clone(self) -> "Circuit":
        """Deep copy (routing passes mutate their own copy)."""
        other = Circuit(self.name)
        other.pins = [
            Pin(p.id, p.net, p.cell, p.x, p.row, p.side, p.has_equiv, p.kind)
            for p in self.pins
        ]
        other.cells = [
            Cell(c.id, c.row, c.x, c.width, list(c.pins), c.is_feed) for c in self.cells
        ]
        other.nets = [Net(n.id, n.name, list(n.pins)) for n in self.nets]
        other.rows = [Row(r.index, list(r.cells)) for r in self.rows]
        other._fake_pins_by_row = {r: list(v) for r, v in self._fake_pins_by_row.items()}
        return other

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        s = self.stats()
        return (
            f"Circuit({self.name!r}, rows={s.num_rows}, cells={s.num_cells}, "
            f"pins={s.num_pins}, nets={s.num_nets})"
        )
