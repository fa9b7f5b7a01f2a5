"""A content fingerprint of a :class:`~repro.circuits.model.Circuit`.

The SHA-256 covers every field that routing reads: cells (id, row, x,
width, pins, is_feed), pins (id, net, cell, x, row, side, has_equiv,
kind), nets (id, name, pins) and rows (index, cells).  Two circuits with
equal fingerprints are the same netlist and placement, byte for byte.
"""

from __future__ import annotations

import hashlib
import json

from repro.circuits.model import Circuit


def circuit_fingerprint(circuit: Circuit) -> str:
    """Hex SHA-256 over the circuit's cells, pins, nets and rows."""
    doc = {
        "cells": [
            [c.id, c.row, c.x, c.width, list(c.pins), bool(c.is_feed)]
            for c in circuit.cells
        ],
        "pins": [
            [p.id, p.net, p.cell, p.x, p.row, p.side, bool(p.has_equiv), int(p.kind)]
            for p in circuit.pins
        ],
        "nets": [[n.id, n.name, list(n.pins)] for n in circuit.nets],
        "rows": [[r.index, list(r.cells)] for r in circuit.rows],
    }
    blob = json.dumps(doc, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()
