"""TWGR step 2 — coarse global routing.

Every Steiner-tree segment is assumed to be routed by a one-bend L-shaped
wire.  "To reduce the order dependence of the segments processed, a
segment is randomly picked from the whole segment pool.  By evaluating the
needed feedthrough number and the channel density change when the side of
an L shaped segment is switched, the L shape for this segment can be
determined." (paper §2)

We realize the random pool as one random permutation per improvement
pass: every pass rips up each diagonal segment in random order and
recommits it in its cheaper orientation given everything currently
routed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.geometry import Segment
from repro.grid.coarse import CoarseGrid, Orientation, RoutedSegment
from repro.perfmodel.counter import WorkCounter, NULL_COUNTER
from repro.steiner.tree import NetTree, tree_segments
from repro.twgr.scheduling import split_chunks


@dataclass(slots=True)
class PooledSegment:
    """A tree segment in the coarse pool with its committed route.

    For diagonal segments the two candidate one-bend routes are pure
    geometry — they depend only on the segment and the grid's column
    mapping, never on congestion — so they are precomputed once and the
    improvement passes merely swap between them.
    """

    net: int
    seg: Segment
    orient: Orientation
    route: RoutedSegment
    route_low: Optional[RoutedSegment] = None
    route_high: Optional[RoutedSegment] = None
    #: flip record built by ``CoarseGrid.commit_segment`` and consumed by
    #: ``CoarseGrid.flip_step_rec`` (clipped ranges, buffer bases,
    #: interval-multiset references, work charge) — ``None`` for
    #: flat/locked segments and in strict mode
    rec: Optional[tuple] = None


def collect_segments(trees: Mapping[int, NetTree]) -> List[Tuple[int, Segment, bool]]:
    """Flatten trees into the global ``(net, segment, locked)`` pool.

    Iteration order is by net id then tree edge order, so the pool is
    identical however the trees were computed (serially or gathered from
    ranks).  Serial pools are never orientation-locked.
    """
    pool: List[Tuple[int, Segment, bool]] = []
    for net_id in sorted(trees):
        for seg in tree_segments(trees[net_id]):
            pool.append((net_id, seg, False))
    return pool


def coarse_route(
    pool: Sequence[Tuple],
    grid: CoarseGrid,
    rng: np.random.Generator,
    passes: int = 2,
    counter: WorkCounter = NULL_COUNTER,
    sync: Optional[Callable[[], None]] = None,
    syncs_per_pass: int = 0,
) -> List[PooledSegment]:
    """Commit every pool segment to the grid, optimizing L orientations.

    Pool entries are ``(net, segment)`` or ``(net, segment, locked)``.
    Returns the committed segments (the grid is left loaded with their
    routes).  Flat segments have no orientation freedom and are committed
    once; *locked* diagonal segments (cross-boundary pieces whose entry
    column a neighbouring rank already fixed via a fake pin) keep
    ``VERT_AT_LOW``; other diagonals are re-evaluated each pass.

    ``sync``/``syncs_per_pass`` support the net-wise parallel algorithm:
    when given, ``sync()`` is called once right after the initial commit
    and then exactly ``syncs_per_pass`` times per pass, at evenly spaced
    points of the random order — the *same* number of calls on every
    rank, however many segments a rank holds, so it can safely contain
    collectives.  Early termination is disabled in that mode for the same
    reason.
    """
    committed: List[PooledSegment] = []
    diagonal_idx: List[int] = []
    commit = grid.commit_segment
    LOW = Orientation.VERT_AT_LOW
    # nothing in the commit loop reads the usage buffers, so their range
    # bumps are deferred into difference arrays and applied as one prefix
    # sum at the end — bit-identical state at a fraction of the writes
    grid.begin_bulk_commit()
    try:
        for entry in pool:
            net, seg = entry[0], entry[1]
            locked = len(entry) > 2 and bool(entry[2])
            a = seg.a
            b = seg.b
            diagonal = a.x != b.x and a.row != b.row and not locked
            # fused route_for + add_route (+ both-orientation precompute and
            # flip record for unlocked diagonals — the passes below only
            # choose between the two frozen routes)
            route, route_high, rec = commit(net, seg, diagonal)
            ps = PooledSegment(net, seg, LOW, route)
            committed.append(ps)
            if diagonal:
                ps.route_low = route
                ps.route_high = route_high
                ps.rec = rec
                diagonal_idx.append(len(committed) - 1)
    finally:
        grid.end_bulk_commit()
    # one unit per committed entry, charged in bulk (same total as the
    # historical per-entry charge; no sync point can fall inside the loop)
    counter.add("coarse", len(committed))

    synced = sync is not None and syncs_per_pass > 0
    if sync is not None:
        # one congestion snapshot right after the initial commit; in
        # sync-once mode (syncs_per_pass == 0) it is also the only one
        sync()

    # The improvement passes submit each scheduling wave — one chunk of
    # the pass permutation, i.e. everything between two sync points — to
    # the grid in a single call, which runs the per-candidate
    # rip-up/evaluate/re-commit loop in wave order.
    flip_wave = grid.flip_wave
    for _ in range(passes):
        changed = 0
        order = rng.permutation(len(diagonal_idx)) if diagonal_idx else np.empty(0, dtype=np.int64)
        for chunk in split_chunks(order, syncs_per_pass if synced else 1):
            changed += flip_wave(committed, diagonal_idx, chunk, counter)
            if synced:
                sync()
        # record the pass's evaluated-candidate count (flip_pass_stats)
        grid.mark_flip_pass()
        if changed == 0 and not synced:
            break
    return committed
