"""The row-wise pin partition parallel algorithm (paper §4).

Pins are owned row-wise, conforming with the cell and row partition.
Whole-net Steiner trees are built in parallel under a net partition and
gathered; each rank then derives its sub-circuit — block rows, block
cells, net fragments with *fake pins* at partition-boundary crossings —
and runs TWGR steps 2–5 on it almost independently.  Net fragments are
connected per-rank (the quality cost the hybrid algorithm later removes:
two fragments may each add a track near the boundary, paper Fig. 3), and
shared boundary channels are synchronized with row-adjacent neighbours
before switchable optimization.
"""

from __future__ import annotations

from typing import Optional

from repro.circuits.model import Circuit
from repro.grid.channels import build_state
from repro.grid.coarse import CoarseGrid
from repro.mpi.comm import Communicator
from repro.parallel.common import (
    boundary_presync,
    build_trees_parallel,
    finalize_block_result,
    global_ncols,
)
from repro.parallel.fakepins import extract_block
from repro.parallel.partition import RowPartition, partition_nets
from repro.twgr.coarse_step import coarse_route
from repro.twgr.config import RouterConfig
from repro.twgr.connect import connect_nets
from repro.twgr.feedthrough import assign_feedthroughs, insert_feedthroughs
from repro.twgr.result import RoutingResult
from repro.twgr.switchable import optimize_switchable


def rowwise_program(
    comm: Communicator,
    circuit: Circuit,
    config: RouterConfig,
    pcfg,
) -> Optional[RoutingResult]:
    """SPMD body of the row-wise algorithm; returns the result on rank 0."""
    obs = comm.obs
    counter = comm.counter
    row_part = RowPartition.balanced(circuit, comm.size)

    # Step 1 — whole-net Steiner trees, built in parallel and gathered.
    with obs.span("step1_steiner", step=1):
        owner = partition_nets(
            circuit, comm.size, scheme=pcfg.net_scheme, row_part=row_part,
            alpha=pcfg.alpha,
        )
        trees = build_trees_parallel(comm, circuit, owner, config)

        # Sub-circuit: block rows + net fragments + fake pins + clipped
        # trees (partition bookkeeping, charged with tree building).
        block = extract_block(circuit, trees, row_part, comm.rank, counter=counter)
    local = block.circuit
    row_lo, row_hi = block.row_lo, block.row_hi

    # Step 2 — coarse routing on the block's grid window.
    with obs.span("step2_coarse", step=2):
        grid = CoarseGrid(
            ncols=global_ncols(circuit, config.col_width),
            nrows=row_hi - row_lo + 1,
            col_width=config.col_width,
            row_lo=row_lo,
            weights=config.weights,
        )
        coarse_route(
            block.pool, grid, config.rng(2, comm.rank),
            passes=config.coarse_passes, counter=counter,
        )

    # Steps 2b/3 — feedthrough insertion + assignment on block rows.
    with obs.span("step3_feedthrough", step=3):
        plan = insert_feedthroughs(local, grid, counter=counter)
        bound = assign_feedthroughs(local, grid, plan, counter=counter)
        del bound

    # Step 4 — connect each net *fragment* locally (paper Fig. 3 cost).
    with obs.span("step4_connect", step=4):
        spans, stats = connect_nets(
            local,
            range(len(local.nets)),
            row_pitch=config.row_pitch,
            skip_row_penalty=config.skip_row_penalty,
            counter=counter,
            fakes_as_leaves=True,
        )
        for s in spans:  # report spans under global net ids
            s.net = block.net_l2g[s.net]

    # Step 5 — switchable optimization with boundary-channel snapshots.
    with obs.span("step5_switch", step=5):
        state = build_state(spans, block.channel_lo, block.channel_hi)
        boundary_presync(comm, row_part, spans, state)
        flips = optimize_switchable(
            spans, state, config.rng(5, comm.rank),
            passes=config.switch_passes, counter=counter,
        )

    return finalize_block_result(
        comm, row_part, local, circuit.name, circuit.num_rows,
        spans, stats, plan.total, flips, config, algorithm="rowwise",
    )
