"""Parameterized synthetic circuit generation.

The MCNC layout-synthesis benchmarks used in the paper are not
redistributable, so experiments run on synthetic circuits that match each
benchmark's *statistics*: row/cell/net/pin counts, the net-degree
distribution (mostly 2–4 pin nets with a long tail, plus optional huge
clock nets as in ``avq.large``), and spatial locality of net pins (a net's
pins cluster around an anchor cell, with a small fraction of global nets).

Those statistics are what the routing algorithms are sensitive to: net
degree drives Steiner-tree work (and hence the pin-number-weight partition
of paper §5), locality drives channel congestion and the fake-pin count of
the row-wise algorithm, and row count bounds usable parallelism.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.circuits.model import Circuit, PinKind
from repro.circuits.validate import validate_circuit

#: Largest ``scale`` :meth:`SyntheticSpec.scaled` accepts: specs only shrink.
MAX_SCALE = 1.0

#: Scale used wherever a command, spec or request names none.
DEFAULT_SCALE = 0.1


@dataclass(frozen=True, slots=True)
class SyntheticSpec:
    """Recipe for one synthetic circuit.

    ``clock_net_degrees`` lists the degrees of special huge nets (e.g. the
    >2000-pin clock lines in avq.large, paper §5); they span the entire
    core uniformly.
    """

    name: str
    rows: int
    cells: int
    nets: int
    #: mean net degree for the geometric tail; actual degree = 2 + Geom.
    mean_degree: float = 3.0
    #: fraction of nets that ignore locality and spread over the core
    global_net_fraction: float = 0.05
    #: std-dev of a local net's row spread, in *rows* — placement puts
    #: connected cells in the same or neighbouring rows, independent of
    #: how tall the circuit is (this is what makes same-row *switchable*
    #: net segments as common as TWGR step 5 assumes)
    row_locality: float = 0.6
    #: std-dev of a local net's x spread, as a fraction of the row width
    x_locality: float = 0.10
    #: probability a pin exposes an electrically-equivalent twin
    equiv_prob: float = 0.9
    min_cell_width: int = 3
    max_cell_width: int = 8
    clock_net_degrees: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.rows < 2:
            raise ValueError("need at least 2 rows")
        if self.cells < self.rows:
            raise ValueError("need at least one cell per row")
        if self.nets < 1:
            raise ValueError("need at least one net")
        if self.mean_degree < 2.0:
            raise ValueError("mean net degree must be >= 2")

    def scaled(self, scale: float) -> "SyntheticSpec":
        """Shrink cells/nets (and clock-net degrees) by ``scale``, keeping
        the row count and all distribution shapes.

        Scaling preserves the quality *ratios* and speedup shapes the
        experiments measure while keeping pure-Python runtimes tractable;
        ``tests/integration/test_scale_stability.py`` checks this.
        """
        if not 0 < scale <= MAX_SCALE:
            raise ValueError(f"scale must be in (0, {MAX_SCALE:g}]")
        if scale == 1.0:
            return self
        return SyntheticSpec(
            name=self.name,
            rows=self.rows,
            cells=max(self.rows * 2, int(round(self.cells * scale))),
            nets=max(1, int(round(self.nets * scale))),
            mean_degree=self.mean_degree,
            global_net_fraction=self.global_net_fraction,
            row_locality=self.row_locality,
            x_locality=self.x_locality,
            equiv_prob=self.equiv_prob,
            min_cell_width=self.min_cell_width,
            max_cell_width=self.max_cell_width,
            clock_net_degrees=tuple(
                max(8, int(round(d * scale))) for d in self.clock_net_degrees
            ),
        )


def generate_circuit(spec: SyntheticSpec, seed: int = 0, validate: bool = True) -> Circuit:
    """Generate a circuit from ``spec`` deterministically for a given seed.

    The output is a function of ``(spec, seed)`` alone, and that contract
    is byte-exact: ``tests/circuits/test_generator_fingerprint.py`` pins a
    SHA-256 of every cell, pin, net and row across the MCNC specs.  Two
    things are therefore part of the output, not implementation details:

    * the order and arguments of every call on the random generator —
      reordering two draws, merging scalar draws into one vector draw, or
      changing a bound changes every circuit downstream of that draw;
    * the tie rule of the nearest-cell lookup: a sampled ``x`` at equal
      distance from two cell centres picks the *left* cell.

    Every route here starts from one of these circuits, so the loops below
    do their scalar work in plain Python over lists: a NumPy call on a
    scalar costs microseconds, and a build makes thousands.  Only the
    draws themselves stay NumPy calls, bound to locals.
    """
    rng = np.random.default_rng(seed)
    circuit = Circuit(spec.name)
    n_rows = spec.rows

    # --- place cells: spread evenly over rows, pack left to right -------
    per_row = _split_evenly(spec.cells, n_rows, rng)
    widths = rng.integers(spec.min_cell_width, spec.max_cell_width + 1, size=spec.cells).tolist()
    for _ in range(n_rows):
        circuit.add_row()
    # Per row, its cells' centres and ids left to right.  A row is packed
    # in id order, so its centres never decrease and the lists are sorted
    # as built.
    row_centers: List[List[float]] = [[] for _ in range(n_rows)]
    row_cells: List[List[int]] = [[] for _ in range(n_rows)]
    cell_ids: List[int] = []
    add_cell = circuit.add_cell
    w_idx = 0
    for r, count in enumerate(per_row):
        centers, ids = row_centers[r], row_cells[r]
        x = 0
        for w in widths[w_idx:w_idx + count]:
            cid = add_cell(r, x, w).id
            cell_ids.append(cid)
            centers.append(x + w / 2)
            ids.append(cid)
            x += w
        w_idx += count
    core_width = circuit.max_row_width()

    def nearest_cell(x: float, row: int) -> int:
        """Cell in ``row`` whose center is closest to ``x`` (the left one
        on a tie)."""
        xs = row_centers[row]
        if not xs:  # empty row: walk outward
            for d in range(1, n_rows):
                for rr in (row - d, row + d):
                    if 0 <= rr < n_rows and row_centers[rr]:
                        return nearest_cell(x, rr)
            raise RuntimeError("no cells placed")
        i = bisect_left(xs, x)
        # xs[i - 1] < x <= xs[i]: both distances are exact differences,
        # and the left neighbour wins an equal one
        if i == len(xs) or (i and x - xs[i - 1] <= xs[i] - x):
            i -= 1
        return row_cells[row][i]

    # --- regular nets ----------------------------------------------------
    n_regular = spec.nets - len(spec.clock_net_degrees)
    if n_regular < 0:
        raise ValueError("more clock nets than total nets")
    extra = np.clip(rng.geometric(1.0 / max(spec.mean_degree - 1.0, 1e-9), size=n_regular) - 1, 0, 64)
    degrees = (2 + extra).tolist()
    is_global = (rng.random(n_regular) < spec.global_net_fraction).tolist()
    row_sigma = max(0.3, spec.row_locality)
    x_sigma = max(2.0, spec.x_locality * core_width)
    max_row, max_x = n_rows - 1, core_width - 1
    integers, uniform, normal = rng.integers, rng.uniform, rng.normal
    add_net = circuit.add_net

    for deg, spread in zip(degrees, is_global):
        net = add_net()
        chosen: set[int] = set()
        if not spread:
            anchor_row = int(integers(0, n_rows))
            anchor_x = uniform(0, core_width)
        attempts = 0
        while len(chosen) < deg and attempts < deg * 20:
            attempts += 1
            if spread:
                row = int(integers(0, n_rows))
                x = uniform(0, core_width)
            else:
                row = min(max(round(anchor_row + normal(0, row_sigma)), 0), max_row)
                x = min(max(anchor_x + normal(0, x_sigma), 0), max_x)
            chosen.add(nearest_cell(x, row))
        if len(chosen) < 2:
            # degenerate corner (tiny circuit): grab any second cell
            for cid in cell_ids:
                if cid not in chosen:
                    chosen.add(cid)
                    break
        _attach_pins(circuit, net.id, sorted(chosen), rng, spec.equiv_prob)

    # --- clock-like huge nets --------------------------------------------
    for k, deg in enumerate(spec.clock_net_degrees):
        net = add_net(f"clk{k}")
        deg = min(deg, len(cell_ids))
        chosen_idx = rng.choice(len(cell_ids), size=deg, replace=False).tolist()
        _attach_pins(
            circuit, net.id, sorted(cell_ids[j] for j in chosen_idx), rng, spec.equiv_prob
        )

    if validate:
        validate_circuit(circuit)
    return circuit


def _attach_pins(
    circuit: Circuit,
    net_id: int,
    cells: Sequence[int],
    rng: np.random.Generator,
    equiv_prob: float,
) -> None:
    """Pin ``net_id`` to each of ``cells``: three draws per pin, in the
    order offset, side, equivalence."""
    all_cells = circuit.cells
    add_pin = circuit.add_pin
    integers, random = rng.integers, rng.random
    cell_kind = PinKind.CELL
    for cid in cells:
        offset = int(integers(0, all_cells[cid].width))
        side = 1 if random() < 0.5 else -1
        has_equiv = bool(random() < equiv_prob)
        add_pin(net_id, cid, offset, side, has_equiv, cell_kind)


def _split_evenly(total: int, parts: int, rng: np.random.Generator) -> List[int]:
    """Split ``total`` into ``parts`` near-equal counts (tiny jitter for
    realism, every part >= 1)."""
    base = total // parts
    rem = total - base * parts
    counts = [base + (1 if i < rem else 0) for i in range(parts)]
    # jitter +-5% while preserving the sum and positivity
    for _ in range(parts // 2):
        i, j = rng.integers(0, parts, size=2)
        delta = int(min(counts[i] - 1, max(1, base // 20)))
        if delta > 0 and i != j:
            counts[i] -= delta
            counts[j] += delta
    return counts
