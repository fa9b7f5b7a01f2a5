import pytest

from repro.circuits import Circuit, CircuitError, PinKind, validate_circuit
from repro.circuits.generator import SyntheticSpec, generate_circuit


def valid_circuit():
    c = Circuit("v")
    c.add_row()
    a = c.add_cell(0, 0, 4)
    b = c.add_cell(0, 4, 4)
    n = c.add_net()
    c.add_pin(n.id, a.id, offset=0)
    c.add_pin(n.id, b.id, offset=0)
    return c


def test_valid_passes():
    validate_circuit(valid_circuit())


def test_overlapping_cells_detected():
    c = valid_circuit()
    c.cells[1].x = 2  # overlaps cell 0's span [0,4)
    c.pins[1].x = 2
    with pytest.raises(CircuitError, match="overlaps"):
        validate_circuit(c)


def test_unsorted_row_detected():
    c = valid_circuit()
    c.rows[0].cells.reverse()
    with pytest.raises(CircuitError):
        validate_circuit(c)


def test_pin_outside_cell_detected():
    c = valid_circuit()
    c.pins[0].x = 100
    with pytest.raises(CircuitError, match="outside cell span"):
        validate_circuit(c)


def test_pin_row_mismatch_detected():
    c = valid_circuit()
    c.add_row()
    c.pins[0].row = 1
    with pytest.raises(CircuitError):
        validate_circuit(c)


def test_single_pin_net_detected():
    c = valid_circuit()
    n = c.add_net()
    c.add_pin(n.id, 0, offset=1)
    with pytest.raises(CircuitError, match="pin"):
        validate_circuit(c)


def test_duplicate_pin_in_net_detected():
    c = valid_circuit()
    c.nets[0].pins.append(c.nets[0].pins[0])
    with pytest.raises(CircuitError, match="duplicate"):
        validate_circuit(c)


def test_net_membership_mismatch_detected():
    c = valid_circuit()
    c.pins[0].net = 5
    with pytest.raises(CircuitError):
        validate_circuit(c)


def test_unbound_feed_flagged_unless_allowed():
    c = valid_circuit()
    c.insert_feedthroughs(0, [4])
    with pytest.raises(CircuitError, match="feedthrough"):
        validate_circuit(c)
    validate_circuit(c, allow_unbound_feeds=True)


def test_fake_pin_attached_to_cell_detected():
    c = valid_circuit()
    pin = c.add_pin(0, -1, kind=PinKind.FAKE, x=1, row=0)
    c.pins[pin.id].cell = 0
    with pytest.raises(CircuitError, match="fake"):
        validate_circuit(c)


def test_invalid_side_detected():
    c = valid_circuit()
    c.pins[0].side = 2
    with pytest.raises(CircuitError, match="side"):
        validate_circuit(c)


def test_cell_missing_from_rows_detected():
    c = valid_circuit()
    c.rows[0].cells.pop()
    with pytest.raises(CircuitError, match="not present"):
        validate_circuit(c)


# --- membership checks on a high-degree net -------------------------------
# Pin/net and pin/cell membership are checked against sets; a clock net
# with hundreds of pins must still report every violation, with the same
# messages in the same order as a per-pin list scan would.

#: What the list-scan validator reported for the corruptions below.
EXPECTED_MEMBERSHIP_ERRORS = (
    "invalid circuit 'clk':\n"
    "  pin 43 missing from cell 12 pin list\n"
    "  pin 53 not listed by its net 1\n"
    "  pin 63 not listed by its net 11\n"
    "  net 0 lists duplicate pins\n"
    "  net 11 lists duplicate pins\n"
    "  net 11 lists pin 53 whose net is 1"
)


def clocked_circuit():
    spec = SyntheticSpec(name="clk", rows=4, cells=400, nets=12, clock_net_degrees=(300,))
    c = generate_circuit(spec, seed=3)
    clock = next(n for n in c.nets if n.name == "clk0")
    assert clock.degree == 300
    return c, clock


def test_clocked_circuit_is_valid():
    validate_circuit(clocked_circuit()[0])


def test_pin_missing_from_high_degree_net_detected():
    c, clock = clocked_circuit()
    pid = clock.pins.pop(150)
    with pytest.raises(CircuitError, match=rf"pin {pid} not listed by its net {clock.id}\b"):
        validate_circuit(c)


def test_pin_missing_from_cell_detected():
    c, clock = clocked_circuit()
    pid = clock.pins[200]
    cid = c.pins[pid].cell
    c.cells[cid].pins.remove(pid)
    with pytest.raises(CircuitError, match=rf"pin {pid} missing from cell {cid} pin list"):
        validate_circuit(c)


def test_duplicate_pin_in_high_degree_net_detected():
    c, clock = clocked_circuit()
    clock.pins.append(clock.pins[250])
    with pytest.raises(CircuitError, match=rf"net {clock.id} lists duplicate pins"):
        validate_circuit(c)


def test_pin_with_foreign_net_id_detected():
    c, clock = clocked_circuit()
    pid = clock.pins[299]
    c.pins[pid].net = 0
    with pytest.raises(CircuitError) as exc:
        validate_circuit(c)
    msg = str(exc.value)
    assert f"pin {pid} not listed by its net 0" in msg
    assert f"net {clock.id} lists pin {pid} whose net is 0" in msg


def test_membership_errors_keep_their_order_and_text():
    c, clock = clocked_circuit()
    c.nets[0].pins.append(c.nets[0].pins[0])
    c.cells[c.pins[clock.pins[10]].cell].pins.remove(clock.pins[10])
    c.pins[clock.pins[20]].net = 1
    clock.pins.pop(30)
    clock.pins.append(clock.pins[40])
    with pytest.raises(CircuitError) as exc:
        validate_circuit(c)
    assert str(exc.value) == EXPECTED_MEMBERSHIP_ERRORS
