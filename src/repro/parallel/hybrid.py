"""The hybrid pin partition parallel algorithm (paper §6).

Identical to the row-wise algorithm through feedthrough assignment, but
net *connection* (TWGR step 4) is done by one processor per whole net:
"instead of letting each processor connect the pins of a net in adjacent
rows for the subnets, we let one processor do it for each whole net."
Row ranks ship each net's terminals (its real pins in their rows plus the
feedthrough pins they just bound) to the net's connect owner; the owner
builds the whole-net connection MST and ships the resulting channel spans
back to the ranks owning those channels for switchable optimization.

This removes the duplicated boundary tracks of the row-wise scheme
(paper Fig. 3) at the price of two personalized all-to-all exchanges —
the paper's observed trade: best quality, slightly lower speedup.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.circuits.model import Circuit, PinKind
from repro.grid.channels import ChannelSpan, build_state
from repro.grid.coarse import CoarseGrid
from repro.mpi.comm import Communicator
from repro.parallel.common import (
    boundary_presync,
    build_trees_parallel,
    finalize_block_result,
    global_ncols,
    make_cell_pin,
    make_feed_pin,
)
from repro.parallel.fakepins import extract_block
from repro.parallel.partition import RowPartition, partition_nets
from repro.twgr.coarse_step import coarse_route
from repro.twgr.config import RouterConfig
from repro.twgr.connect import ConnectStats, connection_mst, spans_for_edge
from repro.twgr.feedthrough import assign_feedthroughs, insert_feedthroughs
from repro.twgr.result import RoutingResult
from repro.twgr.switchable import optimize_switchable

#: terminal tuple on the wire: (x, row, side, has_equiv, is_feed)
Terminal = Tuple[int, int, int, bool, bool]


def hybrid_program(
    comm: Communicator,
    circuit: Circuit,
    config: RouterConfig,
    pcfg,
) -> Optional[RoutingResult]:
    """SPMD body of the hybrid algorithm; returns the result on rank 0."""
    obs = comm.obs
    counter = comm.counter
    rank, P = comm.rank, comm.size
    row_part = RowPartition.balanced(circuit, P)

    # Steps 1–3: exactly the row-wise pipeline.
    with obs.span("step1_steiner", step=1):
        owner = partition_nets(
            circuit, P, scheme=pcfg.net_scheme, row_part=row_part, alpha=pcfg.alpha
        )
        trees = build_trees_parallel(comm, circuit, owner, config)
        block = extract_block(circuit, trees, row_part, rank, counter=counter)
    local = block.circuit
    with obs.span("step2_coarse", step=2):
        grid = CoarseGrid(
            ncols=global_ncols(circuit, config.col_width),
            nrows=block.row_hi - block.row_lo + 1,
            col_width=config.col_width,
            row_lo=block.row_lo,
            weights=config.weights,
        )
        coarse_route(
            block.pool, grid, config.rng(2, rank),
            passes=config.coarse_passes, counter=counter,
        )
    with obs.span("step3_feedthrough", step=3):
        plan = insert_feedthroughs(local, grid, counter=counter)
        assign_feedthroughs(local, grid, plan, counter=counter)

    # Step 4 — whole-net connection at per-net connect owners.
    with obs.span("step4_connect", step=4):
        conn_owner = partition_nets(
            circuit, P, scheme=pcfg.connect_scheme, row_part=row_part,
            alpha=pcfg.alpha,
        )
        outgoing: List[List[Tuple[int, List[Terminal]]]] = [[] for _ in range(P)]
        for lnet_id, gnet_id in enumerate(block.net_l2g):
            terms: List[Terminal] = []
            for pid in local.nets[lnet_id].pins:
                p = local.pins[pid]
                if p.kind is PinKind.FAKE:
                    continue  # fake pins only guided the local coarse stage
                terms.append((p.x, p.row, p.side, p.has_equiv, p.kind is PinKind.FEED))
            if terms:
                outgoing[int(conn_owner[gnet_id])].append((gnet_id, terms))
        incoming = comm.alltoall(outgoing)

        per_net: Dict[int, List[Terminal]] = {}
        for sender in range(P):
            for gnet_id, terms in incoming[sender]:
                per_net.setdefault(gnet_id, []).extend(terms)

        stats = ConnectStats()
        spans_out: List[List[ChannelSpan]] = [[] for _ in range(P)]
        for gnet_id in sorted(per_net):
            terms = per_net[gnet_id]
            if len(terms) < 2:
                continue
            pins = [
                make_feed_pin(gnet_id, x, row) if is_feed
                else make_cell_pin(gnet_id, x, row, side, has_equiv)
                for (x, row, side, has_equiv, is_feed) in terms
            ]
            edges = connection_mst(
                [t[0] for t in terms], [t[1] for t in terms],
                config.row_pitch, config.skip_row_penalty, counter,
            )
            for i, j in edges:
                for span in spans_for_edge(pins[i], pins[j], stats, config.row_pitch):
                    dest = (
                        row_part.owner_of_row(span.row)
                        if span.switchable
                        else row_part.owner_of_channel(span.channel)
                    )
                    spans_out[dest].append(span)

        received = comm.alltoall(spans_out)
        spans: List[ChannelSpan] = [s for part in received for s in part]

    # Step 5 — switchable optimization on owned channels, as in row-wise.
    with obs.span("step5_switch", step=5):
        state = build_state(spans, block.channel_lo, block.channel_hi)
        boundary_presync(comm, row_part, spans, state)
        flips = optimize_switchable(
            spans, state, config.rng(5, rank),
            passes=config.switch_passes, counter=counter,
        )

    return finalize_block_result(
        comm, row_part, local, circuit.name, circuit.num_rows,
        spans, stats, plan.total, flips, config, algorithm="hybrid",
    )
