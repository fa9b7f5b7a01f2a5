"""Structural consistency checks for circuits.

The parallel algorithms repeatedly re-derive sub-circuits, so cheap and
exhaustive invariant checking is the main defence against silent partition
bugs (a pin owned by two ranks, a net losing a terminal, overlapping
cells after feedthrough insertion, ...).
"""

from __future__ import annotations

from typing import List

from repro.circuits.model import Circuit, PinKind


class CircuitError(ValueError):
    """A circuit violates a structural invariant."""


def validate_circuit(circuit: Circuit, allow_unbound_feeds: bool = False) -> None:
    """Raise :class:`CircuitError` on the first violated invariant.

    Checked invariants:

    * every cell belongs to exactly one row, and rows list exactly their
      own cells in non-decreasing ``x`` order without overlaps;
    * every non-fake pin lies inside its cell's span and matches the
      cell's row;
    * pin/net membership is mutual and duplicate-free;
    * every net has >= 2 pins;
    * every pin bound to a net appears in that net (and vice versa);
    * feedthrough pins are bound to a net unless ``allow_unbound_feeds``.
    """
    errors: List[str] = []

    seen_cells = set()
    for row in circuit.rows:
        prev_right = None
        prev_x = None
        for cid in row.cells:
            if cid in seen_cells:
                errors.append(f"cell {cid} listed in more than one row slot")
                continue
            seen_cells.add(cid)
            cell = circuit.cells[cid]
            if cell.row != row.index:
                errors.append(f"cell {cid} in row list {row.index} but cell.row={cell.row}")
            if prev_x is not None and cell.x < prev_x:
                errors.append(f"row {row.index}: cells not sorted by x at cell {cid}")
            if prev_right is not None and cell.x < prev_right:
                errors.append(
                    f"row {row.index}: cell {cid} (x={cell.x}) overlaps previous "
                    f"cell ending at {prev_right}"
                )
            prev_right = cell.right
            prev_x = cell.x
    if len(seen_cells) != len(circuit.cells):
        missing = set(range(len(circuit.cells))) - seen_cells
        errors.append(f"cells not present in any row: {sorted(missing)[:10]}")

    # Membership as sets, built once: a list scan per pin costs
    # O(sum of degree^2), which a 2,300-pin clock net makes dominant.
    cell_pins = [set(cell.pins) for cell in circuit.cells]
    net_pins = [set(net.pins) for net in circuit.nets]
    for pin in circuit.pins:
        if pin.kind is PinKind.FAKE:
            if pin.cell != -1:
                errors.append(f"fake pin {pin.id} attached to cell {pin.cell}")
        else:
            if not 0 <= pin.cell < len(circuit.cells):
                errors.append(f"pin {pin.id} has invalid cell {pin.cell}")
                continue
            cell = circuit.cells[pin.cell]
            if pin.id not in cell_pins[pin.cell]:
                errors.append(f"pin {pin.id} missing from cell {pin.cell} pin list")
            if pin.row != cell.row:
                errors.append(f"pin {pin.id} row {pin.row} != cell row {cell.row}")
            if not cell.x <= pin.x < cell.right:
                errors.append(
                    f"pin {pin.id} at x={pin.x} outside cell span "
                    f"[{cell.x}, {cell.right})"
                )
        if pin.side not in (-1, 1):
            errors.append(f"pin {pin.id} has invalid side {pin.side}")
        if pin.net >= 0:
            if pin.net >= len(circuit.nets):
                errors.append(f"pin {pin.id} references missing net {pin.net}")
            elif pin.id not in net_pins[pin.net]:
                errors.append(f"pin {pin.id} not listed by its net {pin.net}")
        elif pin.kind is PinKind.FEED:
            if not allow_unbound_feeds:
                errors.append(f"feedthrough pin {pin.id} not bound to any net")
        else:
            errors.append(f"pin {pin.id} has no net")

    for net, members in zip(circuit.nets, net_pins):
        if len(net.pins) < 2:
            errors.append(f"net {net.id} ({net.name}) has {len(net.pins)} pin(s)")
        if len(members) != len(net.pins):
            errors.append(f"net {net.id} lists duplicate pins")
        for pid in net.pins:
            if not 0 <= pid < len(circuit.pins):
                errors.append(f"net {net.id} references missing pin {pid}")
            elif circuit.pins[pid].net != net.id:
                errors.append(
                    f"net {net.id} lists pin {pid} whose net is {circuit.pins[pid].net}"
                )

    if errors:
        detail = "\n  ".join(errors[:20])
        more = f"\n  ... and {len(errors) - 20} more" if len(errors) > 20 else ""
        raise CircuitError(f"invalid circuit {circuit.name!r}:\n  {detail}{more}")
