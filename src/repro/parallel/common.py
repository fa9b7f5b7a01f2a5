"""Machinery shared by the three parallel routing programs.

Covers the pieces every SPMD router needs: parallel Steiner-tree
construction over a net partition, boundary-channel synchronization
between row-adjacent ranks (paper §4: "the track information in the
shared channel is synchronized between two adjacent processors"), and the
final metric combination where every channel is counted by exactly one
owner rank.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.circuits.model import Circuit, Pin, PinKind
from repro.geometry import max_overlap_of
from repro.grid.channels import ChannelSpan
from repro.mpi.comm import Communicator, MAX, SUM
from repro.parallel.partition import RowPartition
from repro.steiner.tree import NetTree, TreeSet, build_net_tree
from repro.twgr.config import RouterConfig
from repro.twgr.connect import ConnectStats
from repro.twgr.result import RoutingResult

#: reserved point-to-point tags of the parallel programs
TAG_BOUNDARY_PRE = 11
TAG_BOUNDARY_FINAL = 21


def global_ncols(circuit: Circuit, col_width: int) -> int:
    """Coarse grid column count for the whole core."""
    return max(1, -(-max(circuit.max_row_width(), 1) // col_width))


def build_trees_parallel(
    comm: Communicator,
    circuit: Circuit,
    owner: np.ndarray,
    config: RouterConfig,
) -> Dict[int, NetTree]:
    """Step 1 in parallel: every rank builds its owned nets' trees, then an
    allgather gives everyone the full tree set (needed for fake-pin
    placement and segment ownership).  Each rank's share travels as a
    :class:`TreeSet`, which pickles as flat arrays."""
    # every rank scanned all pins (row partition) and all nets (the net
    # partition heuristic) before getting here — replicated work
    comm.counter.add("setup", len(circuit.pins) + len(circuit.nets))
    mine = TreeSet()
    for net in circuit.nets:
        if int(owner[net.id]) == comm.rank:
            mine[net.id] = build_net_tree(
                net.id,
                circuit.net_points(net.id),
                row_pitch=config.row_pitch,
                refine=config.refine_steiner,
                counter=comm.counter,
            )
    gathered = comm.allgather(mine)
    trees: Dict[int, NetTree] = {}
    for part in gathered:
        trees.update(part)
    # merging the gathered trees is replicated per-rank work
    comm.counter.add("setup", len(trees))
    return trees


def make_feed_pin(net: int, x: int, row: int) -> Pin:
    """A synthesized feedthrough terminal (not attached to any circuit).

    Used when a terminal's position arrives by message rather than from
    the local circuit copy.
    """
    return Pin(-1, net, -1, x, row, 1, True, PinKind.FEED)


def make_cell_pin(net: int, x: int, row: int, side: int, has_equiv: bool) -> Pin:
    """A synthesized regular terminal received from a remote rank."""
    return Pin(-1, net, -1, x, row, side, has_equiv, PinKind.CELL)


def spans_intervals_in(spans: Iterable[ChannelSpan], channel: int) -> List[Tuple[int, int]]:
    """``(lo, hi)`` intervals of the given spans lying in ``channel``."""
    return [(s.lo, s.hi) for s in spans if s.channel == channel]


def boundary_presync(
    comm: Communicator,
    row_part: RowPartition,
    spans: Sequence[ChannelSpan],
    state,
) -> None:
    """Exchange current shared-channel spans with row-adjacent ranks.

    Runs once before switchable optimization; each rank folds the
    neighbour's contribution into its channel state as external intervals
    so flip decisions see (a snapshot of) the true boundary density.
    """
    rank, P = comm.rank, comm.size
    lo_ch = row_part.bounds[rank]          # shared with rank - 1
    hi_ch = row_part.bounds[rank + 1]      # shared with rank + 1
    if rank > 0:
        theirs = comm.sendrecv(
            spans_intervals_in(spans, lo_ch), rank - 1, tag=TAG_BOUNDARY_PRE
        )
        state.add_external(lo_ch, theirs)
    if rank < P - 1:
        theirs = comm.sendrecv(
            spans_intervals_in(spans, hi_ch), rank + 1, tag=TAG_BOUNDARY_PRE
        )
        state.add_external(hi_ch, theirs)


def owned_channels(row_part: RowPartition, rank: int) -> List[int]:
    """Channels this rank reports in the final metrics (each channel has
    exactly one owner: the owner of its upper row; the topmost channel
    belongs to the last rank)."""
    lo, hi = row_part.block_of(rank)
    out = list(range(lo, hi + 1))
    if rank == row_part.nprocs - 1:
        out.append(row_part.num_rows)
    return out


def finalize_block_result(
    comm: Communicator,
    row_part: RowPartition,
    local: Circuit,
    global_name: str,
    num_rows: int,
    spans: Sequence[ChannelSpan],
    stats: ConnectStats,
    num_feeds: int,
    flips: int,
    config: RouterConfig,
    algorithm: str,
) -> Optional[RoutingResult]:
    """Combine per-rank routing state into the final result (rank 0).

    Final boundary exchange: each rank sends its finished spans in the top
    shared channel to the rank above (that channel's owner) and counts its
    owned channels' densities over its own spans plus what arrived from
    below.  Every span is therefore counted exactly once, by the owner of
    the channel it ended up in.
    """
    rank, P = comm.rank, comm.size
    lo_ch = row_part.bounds[rank]
    hi_ch = row_part.bounds[rank + 1]
    # one pass instead of a scan of every span per channel; each channel
    # keeps its spans in list order, exactly as spans_intervals_in
    by_channel: Dict[int, List[Tuple[int, int]]] = {}
    for s in spans:
        by_channel.setdefault(s.channel, []).append((s.lo, s.hi))

    from_below: List[Tuple[int, int]] = []
    if rank < P - 1:
        comm.send(by_channel.get(hi_ch, []), rank + 1, tag=TAG_BOUNDARY_FINAL)
    if rank > 0:
        from_below = comm.recv(rank - 1, tag=TAG_BOUNDARY_FINAL)

    mine = owned_channels(row_part, rank)
    densities: Dict[int, int] = {}
    for ch in mine:
        ivs = by_channel.get(ch, [])
        if ch == lo_ch and rank > 0:
            ivs = ivs + from_below
        densities[ch] = max_overlap_of(ivs)
        comm.counter.add("metrics", len(ivs) + 1)

    # A span shipped upward for density purposes is still uniquely held in
    # this rank's list, so summing local lists counts every span once.
    hwl = sum(s.length for s in spans)

    total_feeds = comm.allreduce(num_feeds, SUM)
    total_vwl = comm.allreduce(stats.vertical_wirelength, SUM)
    total_conflicts = comm.allreduce(stats.side_conflicts, SUM)
    total_unplanned = comm.allreduce(stats.unplanned_crossings, SUM)
    total_hwl = comm.allreduce(hwl, SUM)
    total_flips = comm.allreduce(flips, SUM)
    total_spans = comm.allreduce(len(spans), SUM)
    core_width = comm.allreduce(local.max_row_width(), MAX)

    all_densities = comm.gather(densities, root=0)
    work = comm.gather(dict(getattr(comm.counter, "work_units", {}) or {}), root=0)
    if rank != 0:
        return None

    channel_tracks: Dict[int, int] = {}
    for part in all_densities:
        channel_tracks.update(part)
    total_tracks = sum(channel_tracks.values())
    height = num_rows * config.cell_height + total_tracks * config.track_pitch
    merged_work: Dict[str, float] = {}
    for part in work:
        for k, v in part.items():
            merged_work[k] = merged_work.get(k, 0.0) + v

    return RoutingResult(
        circuit_name=global_name,
        algorithm=algorithm,
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
