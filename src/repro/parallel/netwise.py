"""The net-wise pin partition parallel algorithm (paper §5).

Pins are owned by net: a net-partition heuristic (center / locus /
density / pin-number-weight) distributes whole nets across processors and
"the pin partition does not change throughout the course of TWGR".  The
consequences the paper reports — and this implementation reproduces
mechanically — are:

* coarse routing decisions are made against a *periodically synchronized*
  copy of the global congestion maps, so between synchronizations ranks
  work with stale densities;
* feedthrough assignment still needs row locality, so crossing segments
  travel to row owners and bound feedthroughs travel back to net owners
  (two personalized all-to-alls);
* switchable-segment optimization interferes across ranks: "all
  processors could assign the same switchable net segments to the same
  channel"; the channel-density snapshot is refreshed a fixed number of
  times per pass, and its cost (an allgather of every rank's spans) is
  exactly the "very costly" synchronization the paper blames for the
  scheme's poor speedup.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.circuits.model import FEED_WIDTH, Circuit
from repro.geometry import max_overlap_of
from repro.grid.channels import ChannelSpan, build_state
from repro.grid.coarse import CoarseGrid
from repro.mpi.comm import Communicator, MAX, SUM
from repro.parallel.common import global_ncols, make_feed_pin
from repro.parallel.partition import RowPartition, partition_nets
from repro.steiner.tree import build_net_tree
from repro.twgr.coarse_step import coarse_route, collect_segments
from repro.twgr.config import RouterConfig
from repro.twgr.connect import ConnectStats, connection_mst, spans_for_edge
from repro.twgr.feedthrough import snap_to_boundary
from repro.twgr.result import RoutingResult
from repro.twgr.switchable import optimize_switchable

#: wire tuples
Crossing = Tuple[int, int, int]  # (row, gcol, net)
FeedTerminal = Tuple[int, int, int]  # (net, x, row)


def netwise_program(
    comm: Communicator,
    circuit: Circuit,
    config: RouterConfig,
    pcfg,
) -> Optional[RoutingResult]:
    """SPMD body of the net-wise algorithm; returns the result on rank 0."""
    obs = comm.obs
    counter = comm.counter
    rank, P = comm.rank, comm.size
    with obs.span("step1_steiner", step=1):
        row_part = RowPartition.balanced(circuit, P)
        owner = partition_nets(
            circuit, P, scheme=pcfg.net_scheme, row_part=row_part, alpha=pcfg.alpha
        )
        # Net-wise pin ownership is not memory-scalable (paper §3/§5):
        # every rank keeps a full circuit copy and mutates only its rows.
        local = circuit.clone()
        # full-copy construction and partition scans are replicated work
        counter.add(
            "setup", len(circuit.pins) * 2 + len(circuit.cells) + len(circuit.nets)
        )
        my_nets = [n.id for n in circuit.nets if int(owner[n.id]) == rank]

        # Steiner trees for owned nets only (no fake pins needed).
        trees = {
            nid: build_net_tree(
                nid,
                local.net_points(nid),
                row_pitch=config.row_pitch,
                refine=config.refine_steiner,
                counter=counter,
            )
            for nid in my_nets
        }

    # Step 2 — coarse routing of owned segments on a full-size grid with
    # periodic congestion synchronization.
    with obs.span("step2_coarse", step=2):
        grid = CoarseGrid(
            ncols=global_ncols(circuit, config.col_width),
            nrows=circuit.num_rows,
            col_width=config.col_width,
            weights=config.weights,
        )

        def grid_sync() -> None:
            total_feed = comm.allreduce(grid.feed_demand.copy(), SUM)
            total_hus = comm.allreduce(grid.husage.copy(), SUM)
            grid.set_external(total_feed - grid.feed_demand, total_hus - grid.husage)

        coarse_route(
            collect_segments(trees), grid, config.rng(2, rank),
            passes=config.coarse_passes, counter=counter,
            sync=grid_sync, syncs_per_pass=max(1, pcfg.coarse_syncs_per_pass),
        )

    # Steps 2b/3 — crossings to row owners, feeds inserted there, bound
    # terminals back to net owners.
    with obs.span("step3_feedthrough", step=3):
        out_cross: List[List[Crossing]] = [[] for _ in range(P)]
        for row, gcol, net in grid.all_crossings():
            out_cross[row_part.owner_of_row(row)].append((row, gcol, net))
        in_cross = comm.alltoall(out_cross)
        per_row: Dict[int, List[Tuple[int, int]]] = {}
        for part in in_cross:
            for row, gcol, net in part:
                per_row.setdefault(row, []).append((gcol, net))

        num_feeds = 0
        out_feeds: List[List[FeedTerminal]] = [[] for _ in range(P)]
        for row in sorted(per_row):
            crossings = sorted(per_row[row])
            positions = [
                snap_to_boundary(local, row, grid.gcol_center(g))
                for g, _net in crossings
            ]
            created = local.insert_feedthroughs(row, positions)
            counter.add("feeds", len(created) + len(local.rows[row].cells))
            num_feeds += len(created)
            feeds_sorted = sorted(created, key=lambda c: c.x)
            counter.add("assign", len(crossings) + 1)
            for (g, net), cell in zip(crossings, feeds_sorted):
                out_feeds[int(owner[net])].append((net, cell.x, row))
        in_feeds = comm.alltoall(out_feeds)
        terminals_by_net: Dict[int, List[Tuple[int, int]]] = {}
        for part in in_feeds:
            for net, x, row in part:
                terminals_by_net.setdefault(net, []).append((row, x))

        # Pin positions "may be changed along with their cells" when rows
        # widen (paper §3), but the net-wise scheme never re-synchronizes
        # them: a net owner holds pins of rows it does not manage and only
        # learns — through the congestion allreduces — each foreign row's
        # feedthrough *totals*, not where the feeds were actually inserted.
        # It therefore estimates the shift of a foreign pin by spreading the
        # row's widening uniformly; the residual error (feeds cluster where
        # nets cross, the estimate is as stale as the last synchronization)
        # is a genuine quality cost of net-wise pin ownership, and it shrinks
        # as synchronization gets more frequent (paper §5, §7.2).
        est_demand = grid.feed_demand.copy()
        if grid.ext_feed is not None:
            est_demand += grid.ext_feed
        row_totals = est_demand.sum(axis=1)
        core_width = max(circuit.max_row_width(), 1)
        my_rows = set(row_part.rows_of(rank))
        for pin in local.pins:
            if pin.row in my_rows:
                continue  # already shifted by the local insertion
            total = int(row_totals[pin.row - grid.row_lo])
            pin.x += FEED_WIDTH * int(round(total * min(pin.x / core_width, 1.0)))
        counter.add("setup", len(local.pins))

    # Step 4 — connect owned nets.
    with obs.span("step4_connect", step=4):
        stats = ConnectStats()
        spans: List[ChannelSpan] = []
        for nid in my_nets:
            pins = list(local.net_pins(nid))
            for row, x in sorted(terminals_by_net.get(nid, [])):
                pins.append(make_feed_pin(nid, x, row))
            if len(pins) < 2:
                continue
            edges = connection_mst(
                [p.x for p in pins], [p.row for p in pins],
                config.row_pitch, config.skip_row_penalty, counter,
            )
            for i, j in edges:
                spans.extend(spans_for_edge(pins[i], pins[j], stats, config.row_pitch))

    # Step 5 — switchable optimization over *all* channels with a
    # periodically refreshed global density snapshot.
    with obs.span("step5_switch", step=5):
        state = build_state(spans, 0, circuit.num_rows)

        def span_sync() -> None:
            if getattr(pcfg, "switch_sync_mode", "scalar") == "profile":
                # Full synchronization: every rank's span intervals, so flip
                # decisions see (a snapshot of) the true densities.  This is
                # the "very costly" option of paper §5.
                per_ch: Dict[int, List[Tuple[int, int]]] = {}
                for s in spans:
                    per_ch.setdefault(s.channel, []).append((s.lo, s.hi))
                gathered = comm.allgather(per_ch)
                merged: Dict[int, List[Tuple[int, int]]] = {}
                received = 0
                for r, part in enumerate(gathered):
                    if r == rank:
                        continue
                    for ch, ivs in part.items():
                        merged.setdefault(ch, []).extend(ivs)
                        received += len(ivs)
                state.replace_externals(merged)
                # rebuilding the density snapshot walks every received interval
                counter.add("switch", len(spans) + received)
            else:
                # Affordable synchronization: per-channel density counts only.
                # The counts keep global reporting honest, but a constant
                # offset on both channels of a flip candidate cancels out of
                # the gain rule — each rank still decides blind to the other
                # ranks' spans, which is precisely the §7.2 quality problem.
                own = np.zeros(circuit.num_rows + 1, dtype=np.int64)
                for ch, d in state.densities().items():
                    own[ch] = d
                comm.allreduce(own, SUM)
                counter.add("switch", circuit.num_rows + 1)
                # Every flip evaluation in the real implementation consults
                # the shared channel structure, whose size is the *global*
                # span population of the two channels, not just this rank's.
                total_spans = comm.allreduce(len(spans), SUM)
                state.eval_surcharge = (
                    2.0 * (total_spans - len(spans)) / (circuit.num_rows + 1)
                )

        flips = optimize_switchable(
            spans, state, config.rng(5, rank), passes=config.switch_passes,
            counter=counter, sync=span_sync,
            syncs_per_pass=max(1, pcfg.switch_syncs_per_pass),
        )

    # Final metrics: rank 0 computes true global densities from all spans.
    my_intervals: Dict[int, List[Tuple[int, int]]] = {}
    for s in spans:
        my_intervals.setdefault(s.channel, []).append((s.lo, s.hi))
    all_intervals = comm.gather(my_intervals, root=0)

    total_feeds = comm.allreduce(num_feeds, SUM)
    total_vwl = comm.allreduce(stats.vertical_wirelength, SUM)
    total_conflicts = comm.allreduce(stats.side_conflicts, SUM)
    total_unplanned = comm.allreduce(stats.unplanned_crossings, SUM)
    total_hwl = comm.allreduce(sum(s.length for s in spans), SUM)
    total_flips = comm.allreduce(flips, SUM)
    total_spans = comm.allreduce(len(spans), SUM)
    my_width = max(
        (local.row_width(r) for r in row_part.rows_of(rank)), default=0
    )
    core_width = comm.allreduce(my_width, MAX)
    work = comm.gather(dict(getattr(comm.counter, "work_units", {}) or {}), root=0)

    if rank != 0:
        return None

    merged_ivs: Dict[int, List[Tuple[int, int]]] = {}
    for part in all_intervals:
        for ch, ivs in part.items():
            merged_ivs.setdefault(ch, []).extend(ivs)
    channel_tracks = {
        ch: max_overlap_of(ivs) for ch, ivs in sorted(merged_ivs.items())
    }
    for ch in range(circuit.num_rows + 1):
        channel_tracks.setdefault(ch, 0)
    total_tracks = sum(channel_tracks.values())
    height = circuit.num_rows * config.cell_height + total_tracks * config.track_pitch
    merged_work: Dict[str, float] = {}
    for part in work:
        for k, v in part.items():
            merged_work[k] = merged_work.get(k, 0.0) + v

    return RoutingResult(
        circuit_name=circuit.name,
        algorithm="netwise",
        nprocs=P,
        total_tracks=total_tracks,
        channel_tracks=dict(sorted(channel_tracks.items())),
        num_feedthroughs=total_feeds,
        horizontal_wirelength=total_hwl,
        vertical_wirelength=total_vwl,
        core_width=core_width,
        area=core_width * height,
        side_conflicts=total_conflicts,
        unplanned_crossings=total_unplanned,
        num_spans=total_spans,
        flips=total_flips,
        work_units=merged_work,
        seed=config.seed,
    )
