"""The coarse global-routing grid and L-shape cost evaluation.

A diagonal Steiner-tree segment admits two one-bend routes (paper §2):

* ``VERT_AT_LOW`` — run vertically at the *lower* endpoint's column, then
  horizontally to the upper endpoint (the horizontal part lands in the
  channel just below the upper row);
* ``VERT_AT_HIGH`` — run horizontally first (in the channel just above
  the lower row), then vertically at the *upper* endpoint's column.

Both orientations cross the same rows, so what the cost function weighs is
*where* the feedthroughs land (sharing with the net's existing verticals)
and which channel columns absorb the horizontal run (congestion).  The
grid keeps per-net usage multisets so marginal cost — "the needed
feedthrough number and the channel density change when the side ... is
switched" — is exact under sharing.

Congestion state is array-native: the aggregate feed/husage maps live in
flat integer buffers (column-major for feeds so a vertical run is one
contiguous range, row-major for channel usage so a horizontal run is
one contiguous range), and the fast cost kernel evaluates a range's
congestion term as ``count * w + w_c * range_sum`` with exact integer
range sums instead of walking cells one at a time.  External congestion
snapshots (net-wise algorithm) are immutable between synchronizations,
so their range sums come from maintained prefix-sum tables in O(1) per
interval.  The pre-rewrite per-cell accumulation survives behind
``strict=True`` as the reference oracle; because both cost forms use
exact integer gathers, the fast kernel resolves every orientation
decision identically (near-ties fall back to the oracle comparison, see
:meth:`CoarseGrid.eval_both`).

Step 2's improvement passes run through :meth:`CoarseGrid.flip_wave`: one
fused rip-up/evaluate/re-commit kernel (:meth:`CoarseGrid.flip_step_rec`)
per diagonal, or the oracle sequence in strict mode.  Every candidate is
re-evaluated in every pass.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.geometry import Segment
from repro.perfmodel.counter import WorkCounter, NULL_COUNTER

# The primitive congestion kernels (gap computation, range bumps, exact
# integer gathers, the strict per-cell oracle walk) live in their own module.
from repro.grid._kernels import (
    _TIE_EPS,
    _bump_range,
    _defer_bump,
    _gather,
    _merged,
    _strict_eval,
    _uncovered,
)


class Orientation(enum.IntEnum):
    """Which endpoint's column carries the vertical run of an L."""

    VERT_AT_LOW = 0
    VERT_AT_HIGH = 1


@dataclass(frozen=True, slots=True)
class CostWeights:
    """Tunable weights of the coarse cost function.

    ``feed`` — cost of each *new* feedthrough the route needs;
    ``feed_congestion`` — extra cost per already-demanded feed at the same
    (row, column), spreading feeds to limit row widening;
    ``channel_congestion`` — extra cost per existing track of horizontal
    usage in a covered channel column, spreading wires away from dense
    regions.
    """

    feed: float = 2.0
    feed_congestion: float = 0.15
    channel_congestion: float = 0.35


class RoutedSegment(NamedTuple):
    """A segment's committed coarse route.

    ``vert`` is ``(gcol, row_lo, row_hi)`` — a vertical run at grid column
    ``gcol`` from ``row_lo`` up to ``row_hi`` (inclusive endpoints; the
    crossed rows are the strict interior).  ``horiz`` is
    ``(channel, gcol_lo, gcol_hi)`` with inclusive column bounds.  Either
    part may be absent (flat segments).  A NamedTuple rather than a
    dataclass: the coarse pass builds two of these per diagonal segment,
    and tuple allocation is measurably cheaper.
    """

    net: int
    vert: Optional[Tuple[int, int, int]] = None
    horiz: Optional[Tuple[int, int, int]] = None


class CoarseGrid:
    """Congestion state of the coarse routing grid.

    The grid may describe a row *window* (``row_lo .. row_lo+nrows-1``) so
    the row-wise parallel algorithm can hold only its own block; all row
    and channel indices remain global.

    ``strict=True`` selects the reference per-cell cost accumulation (the
    pre-rewrite semantics, cell by cell in ascending order); the default
    fast mode computes each part as ``count * w + w_c * range_sum`` from
    exact integer gathers and defers only real-arithmetic ties to the
    strict walk, so both modes commit identical routes.
    """

    def __init__(
        self,
        ncols: int,
        nrows: int,
        col_width: int,
        row_lo: int = 0,
        weights: CostWeights = CostWeights(),
        strict: bool = False,
    ) -> None:
        if ncols <= 0 or nrows <= 0 or col_width <= 0:
            raise ValueError("grid dimensions must be positive")
        self.ncols = ncols
        self.nrows = nrows
        self.col_width = col_width
        self.row_lo = row_lo
        self.weights = weights
        self.strict = strict
        # Aggregate congestion maps in flat integer buffers.  Feeds are
        # column-major (column g owns the contiguous block
        # ``[g*nrows, (g+1)*nrows)``) so a vertical run is one range;
        # horizontal usage is row-major (channel index ci owns
        # ``[ci*ncols, (ci+1)*ncols)``) so a horizontal run is one range.
        # Plain Python ints keep the per-cell updates exact and below
        # NumPy's per-slice dispatch break-even; the public array views
        # are cached and rebuilt only after mutations.
        self._feed: List[int] = [0] * (ncols * nrows)
        self._hus: List[int] = [0] * ((nrows + 1) * ncols)
        self._feed_view: Optional[np.ndarray] = None
        self._hus_view: Optional[np.ndarray] = None
        #: lazily-built ``row_idx -> sorted [(gcol, net), ...]`` crossing
        #: index serving the feedthrough stage without per-query scans
        self._row_index: Optional[List[List[Tuple[int, int]]]] = None
        # Per-net sharing structure: instead of one multiplicity entry per
        # crossed cell, each (net, gcol) / (net, channel) keeps the compact
        # multiset of inclusive row/column intervals its committed routes
        # cover.  A cell is owned by the net iff some interval covers it.
        # Emptied lists are kept in the dicts so hot paths may hold stable
        # references to them across rip-up/recommit cycles.
        self._net_vert: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
        self._net_horiz: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
        # congestion contributed by other ranks' nets (net-wise algorithm);
        # folded into costs but never into this rank's own maps.  The
        # snapshot is immutable between syncs: per-cell mirrors feed the
        # strict oracle, prefix-sum tables feed the fast gathers.
        self.ext_feed: Optional[np.ndarray] = None
        self.ext_husage: Optional[np.ndarray] = None
        self._ext_feed_cells: Optional[List[int]] = None
        self._ext_hus_cells: Optional[List[int]] = None
        self._ext_feed_prefix: Optional[List[int]] = None
        self._ext_hus_prefix: Optional[List[int]] = None
        # difference arrays of a deferred bulk commit (see
        # begin_bulk_commit); None outside bulk-commit sections
        self._bulk_fd: Optional[List[int]] = None
        self._bulk_hd: Optional[List[int]] = None
        # evaluated flip candidates since the last mark_flip_pass, and the
        # per-pass records behind flip_pass_stats()
        self._pass_evals = 0
        self._pass_stats: List[Dict[str, int]] = []

    @property
    def feed_demand(self) -> np.ndarray:
        """Distinct nets demanding a feedthrough per ``(row, gcol)``.

        A cached read-only view; rebuilt only after mutations.
        """
        v = self._feed_view
        if v is None:
            v = (
                np.array(self._feed, dtype=np.int32)
                .reshape(self.ncols, self.nrows)
                .T
            )
            v.flags.writeable = False
            self._feed_view = v
        return v

    @property
    def husage(self) -> np.ndarray:
        """Distinct-net horizontal usage per ``(channel, gcol)``.

        A cached read-only view; rebuilt only after mutations.
        """
        v = self._hus_view
        if v is None:
            v = np.array(self._hus, dtype=np.int32).reshape(
                self.nrows + 1, self.ncols
            )
            v.flags.writeable = False
            self._hus_view = v
        return v

    def set_external(self, feed: Optional[np.ndarray], husage: Optional[np.ndarray]) -> None:
        """Replace the external congestion snapshot (None clears it).

        The snapshot is read-only until the next synchronization, so its
        range sums are precomputed here once: per-column (feed) and
        per-channel (husage) prefix tables make every external interval
        sum an O(1) difference in the cost kernels.
        """
        if feed is not None and feed.shape != (self.nrows, self.ncols):
            raise ValueError("external feed shape mismatch")
        if husage is not None and husage.shape != (self.nrows + 1, self.ncols):
            raise ValueError("external husage shape mismatch")
        self.ext_feed = feed
        self.ext_husage = husage
        if feed is not None:
            cols = np.asarray(feed, dtype=np.int64).T  # (ncols, nrows)
            self._ext_feed_cells = cols.ravel().tolist()
            pf = np.zeros((self.ncols, self.nrows + 1), dtype=np.int64)
            np.cumsum(cols, axis=1, out=pf[:, 1:])
            self._ext_feed_prefix = pf.ravel().tolist()
        else:
            self._ext_feed_cells = None
            self._ext_feed_prefix = None
        if husage is not None:
            rows = np.asarray(husage, dtype=np.int64)
            self._ext_hus_cells = rows.ravel().tolist()
            ph = np.zeros((self.nrows + 1, self.ncols + 1), dtype=np.int64)
            np.cumsum(rows, axis=1, out=ph[:, 1:])
            self._ext_hus_prefix = ph.ravel().tolist()
        else:
            self._ext_hus_cells = None
            self._ext_hus_prefix = None

    # -- bulk initial commit ----------------------------------------------

    def begin_bulk_commit(self) -> None:
        """Defer buffer writes of subsequent :meth:`commit_segment` calls.

        Between this call and :meth:`end_bulk_commit` the commit kernels
        record each range bump as two difference-array boundary writes
        instead of walking cells, while multisets, flip records and view
        invalidation behave exactly as in the direct path.  The usage
        buffers are stale inside the section — nothing in the initial
        commit loop reads them — and one prefix sum per buffer at the end
        reproduces the per-cell state bit for bit.
        """
        self._bulk_fd = [0] * (len(self._feed) + 1)
        self._bulk_hd = [0] * (len(self._hus) + 1)

    def end_bulk_commit(self) -> None:
        """Apply the deferred bumps and leave bulk-commit mode."""
        fd, hd = self._bulk_fd, self._bulk_hd
        self._bulk_fd = self._bulk_hd = None
        if fd is not None and any(fd):
            delta = np.cumsum(np.asarray(fd[:-1], dtype=np.int64))
            self._feed = (
                np.asarray(self._feed, dtype=np.int64) + delta
            ).tolist()
            self._feed_view = None
            self._row_index = None
        if hd is not None and any(hd):
            delta = np.cumsum(np.asarray(hd[:-1], dtype=np.int64))
            self._hus = (np.asarray(self._hus, dtype=np.int64) + delta).tolist()
            self._hus_view = None

    # -- index helpers ----------------------------------------------------

    def gcol(self, x: int) -> int:
        """Grid column containing coordinate ``x`` (clamped to the core)."""
        return min(max(x // self.col_width, 0), self.ncols - 1)

    def gcol_center(self, g: int) -> int:
        """Representative x coordinate of grid column ``g``."""
        return g * self.col_width + self.col_width // 2

    def _ri(self, row: int) -> int:
        idx = row - self.row_lo
        if not 0 <= idx < self.nrows:
            raise IndexError(f"row {row} outside grid window [{self.row_lo}, {self.row_lo + self.nrows})")
        return idx

    def _ci(self, channel: int) -> int:
        idx = channel - self.row_lo
        if not 0 <= idx < self.nrows + 1:
            raise IndexError(
                f"channel {channel} outside grid window "
                f"[{self.row_lo}, {self.row_lo + self.nrows}]"
            )
        return idx

    # -- route construction ----------------------------------------------

    def route_for(self, net: int, seg: Segment, orient: Orientation) -> RoutedSegment:
        """Build the :class:`RoutedSegment` for ``seg`` in ``orient``.

        Flat segments ignore the orientation: a vertical segment is a pure
        vertical run; a horizontal segment at row ``r`` defaults its span
        to the channel *above* the row (``r + 1``) — the final channel
        choice is step 5's job, the coarse stage only needs a consistent
        congestion estimate.
        """
        ax, ar = seg.a
        bx, br = seg.b
        cw = self.col_width
        nc1 = self.ncols - 1
        if ax == bx:  # vertical
            if ar == br:
                return RoutedSegment(net=net)  # degenerate point
            g = ax // cw
            g = 0 if g < 0 else (nc1 if g > nc1 else g)
            lo, hi = (ar, br) if ar <= br else (br, ar)
            return RoutedSegment(net=net, vert=(g, lo, hi))
        if ar == br:  # horizontal
            x_lo, x_hi = (ax, bx) if ax <= bx else (bx, ax)
            g_lo = x_lo // cw
            g_lo = 0 if g_lo < 0 else (nc1 if g_lo > nc1 else g_lo)
            g_hi = x_hi // cw
            g_hi = 0 if g_hi < 0 else (nc1 if g_hi > nc1 else g_hi)
            return RoutedSegment(net=net, horiz=(ar + 1, g_lo, g_hi))
        (lx, lr), (hx, hr) = ((ax, ar), (bx, br)) if ar < br else ((bx, br), (ax, ar))
        gl = lx // cw
        gl = 0 if gl < 0 else (nc1 if gl > nc1 else gl)
        gh = hx // cw
        gh = 0 if gh < 0 else (nc1 if gh > nc1 else gh)
        g_lo, g_hi = (gl, gh) if gl <= gh else (gh, gl)
        if orient is Orientation.VERT_AT_LOW:
            return RoutedSegment(net=net, vert=(gl, lr, hr), horiz=(hr, g_lo, g_hi))
        return RoutedSegment(net=net, vert=(gh, lr, hr), horiz=(lr + 1, g_lo, g_hi))

    def _vert_range(self, route: RoutedSegment) -> Optional[Tuple[int, int, int]]:
        """``(gcol, row_lo, row_hi)`` of the feedthrough crossings (strict
        interior of the vertical run), clipped to this grid's row window;
        ``None`` when the route crosses no row here."""
        if route.vert is None:
            return None
        g, r_lo, r_hi = route.vert
        lo = max(r_lo + 1, self.row_lo)
        hi = min(r_hi - 1, self.row_lo + self.nrows - 1)
        if lo > hi:
            return None
        return g, lo, hi

    def _horiz_range(self, route: RoutedSegment) -> Optional[Tuple[int, int, int]]:
        """``(channel, gcol_lo, gcol_hi)`` of the horizontal part, or
        ``None`` when the channel falls outside the window."""
        if route.horiz is None:
            return None
        ch, g_lo, g_hi = route.horiz
        if not self.row_lo <= ch <= self.row_lo + self.nrows:
            return None
        return ch, g_lo, g_hi

    # -- mutation ----------------------------------------------------------

    def _invalidate(self) -> None:
        self._feed_view = None
        self._hus_view = None
        self._row_index = None

    def add_route(self, route: RoutedSegment) -> None:
        """Commit a route, updating shared usage maps."""
        net = route.net
        rl = self.row_lo
        nr = self.nrows
        vert = route.vert
        if vert is not None:  # clip inline (== _vert_range, sans the tuple)
            g, r_lo, r_hi = vert
            lo = r_lo + 1
            if lo < rl:
                lo = rl
            hi = r_hi - 1
            rh = rl + nr - 1
            if hi > rh:
                hi = rh
            if lo <= hi:
                nv = self._net_vert
                key = (net, g)
                ivs = nv.get(key)
                if ivs is None:
                    ivs = nv[key] = []
                _bump_range(self._feed, g * nr - rl, lo, hi, ivs, 1)
                ivs.append((lo, hi))
                self._feed_view = None
                self._row_index = None
        horiz = route.horiz
        if horiz is not None:
            ch, g_lo, g_hi = horiz
            if rl <= ch <= rl + nr:
                nh = self._net_horiz
                key = (net, ch)
                ivs = nh.get(key)
                if ivs is None:
                    ivs = nh[key] = []
                _bump_range(self._hus, (ch - rl) * self.ncols, g_lo, g_hi, ivs, 1)
                ivs.append((g_lo, g_hi))
                self._hus_view = None

    def remove_route(self, route: RoutedSegment) -> None:
        """Undo a previously-committed route."""
        net = route.net
        vr = self._vert_range(route)
        if vr is not None:
            g, lo, hi = vr
            ivs = self._net_vert.get((net, g))
            if not ivs or (lo, hi) not in ivs:
                raise KeyError(f"vertical usage underflow at {(net, lo, g)}")
            ivs.remove((lo, hi))
            _bump_range(self._feed, g * self.nrows - self.row_lo, lo, hi, ivs, -1)
            self._feed_view = None
            self._row_index = None
        hr = self._horiz_range(route)
        if hr is not None:
            ch, g_lo, g_hi = hr
            ivs = self._net_horiz.get((net, ch))
            if not ivs or (g_lo, g_hi) not in ivs:
                raise KeyError(f"horizontal usage underflow at {(net, ch, g_lo)}")
            ivs.remove((g_lo, g_hi))
            _bump_range(self._hus, (ch - self.row_lo) * self.ncols, g_lo, g_hi, ivs, -1)
            self._hus_view = None

    # -- cost --------------------------------------------------------------

    def eval_cost(
        self, route: RoutedSegment, counter: WorkCounter = NULL_COUNTER
    ) -> float:
        """Marginal cost of committing ``route`` on the current state.

        New feedthroughs cost ``weights.feed`` each plus a congestion term;
        horizontal columns cost 1 each plus a congestion term; resources
        the net already owns are free (sharing).  Fast mode evaluates each
        uncovered interval as ``count * w + w_c * range_sum`` with exact
        integer range sums (own map: slice reduction; external snapshot:
        prefix-sum difference); strict mode walks the cells one by one in
        the pre-rewrite accumulation order.
        """
        if self.strict:
            return self._eval_cost_strict(route, counter)
        w = self.weights
        cost = 0.0
        ops = 0
        net = route.net
        v = route.vert
        rl = self.row_lo
        if v is not None:
            g, r_lo, r_hi = v
            lo = r_lo + 1
            if lo < rl:
                lo = rl
            hi = r_hi - 1
            rh = rl + self.nrows - 1
            if hi > rh:
                hi = rh
            if lo <= hi:
                ops = hi - lo + 1
                nr = self.nrows
                n, s = _gather(
                    self._feed, g * nr - rl, lo, hi,
                    self._net_vert.get((net, g)),
                    self._ext_feed_prefix, g * (nr + 1) - rl,
                )
                cost = n * w.feed + w.feed_congestion * s
        h = route.horiz
        if h is not None:
            ch, g_lo, g_hi = h
            ci = ch - rl
            if 0 <= ci <= self.nrows:
                ops += g_hi - g_lo + 1
                nc = self.ncols
                n, s = _gather(
                    self._hus, ci * nc, g_lo, g_hi,
                    self._net_horiz.get((net, ch)),
                    self._ext_hus_prefix, ci * (nc + 1),
                )
                cost += n * 1.0 + w.channel_congestion * s
        counter.add("coarse", ops if ops > 0 else 1)
        return cost

    def _eval_cost_strict(
        self, route: RoutedSegment, counter: WorkCounter = NULL_COUNTER
    ) -> float:
        """Reference per-cell cost walk (the pre-rewrite accumulation).

        Visits uncovered cells one at a time in ascending order, so the
        float accumulation history — and therefore every near-tie in the
        orientation comparison — matches the original implementation bit
        for bit.
        """
        w = self.weights
        cost = 0.0
        ops = 0
        net = route.net
        vr = self._vert_range(route)
        if vr is not None:
            g, lo, hi = vr
            ops += hi - lo + 1
            ivs = self._net_vert.get((net, g))
            feed = self._feed
            base = g * self.nrows - self.row_lo
            ext = self._ext_feed_cells
            ebase = g * self.nrows - self.row_lo
            wf = w.feed
            wfc = w.feed_congestion
            for a, b in _uncovered(lo, hi, ivs) if ivs else ((lo, hi),):
                if ext is None:
                    for r in range(base + a, base + b + 1):
                        cost += wf + wfc * feed[r]
                else:
                    for r in range(a, b + 1):
                        cost += wf + wfc * (feed[base + r] + ext[ebase + r])
        hr = self._horiz_range(route)
        if hr is not None:
            ch, g_lo, g_hi = hr
            ops += g_hi - g_lo + 1
            ivs = self._net_horiz.get((net, ch))
            hus = self._hus
            base = (ch - self.row_lo) * self.ncols
            ext = self._ext_hus_cells
            wcc = w.channel_congestion
            for a, b in _uncovered(g_lo, g_hi, ivs) if ivs else ((g_lo, g_hi),):
                if ext is None:
                    for c in range(base + a, base + b + 1):
                        cost += 1.0 + wcc * hus[c]
                else:
                    for c in range(a, b + 1):
                        cost += 1.0 + wcc * (hus[base + c] + ext[base + c])
        counter.add("coarse", max(ops, 1))
        return cost

    def eval_both(
        self,
        low: RoutedSegment,
        high: RoutedSegment,
        counter: WorkCounter = NULL_COUNTER,
    ) -> Tuple[float, float, bool]:
        """Fused evaluation of a segment's two orientations.

        Returns ``(cost_low, cost_high, pick_high)``.  ``pick_high``
        reproduces the pre-rewrite comparison exactly: when the fast costs
        differ by less than :data:`_TIE_EPS` — which only happens when the
        real-arithmetic costs are tied — the decision defers to the strict
        per-cell oracle, whose accumulation order is the original one.
        """
        if self.strict:
            c_low = self._eval_cost_strict(low, counter)
            c_high = self._eval_cost_strict(high, counter)
            return c_low, c_high, c_high < c_low
        c_low = self.eval_cost(low, counter)
        c_high = self.eval_cost(high, counter)
        d = c_low - c_high
        if -_TIE_EPS < d < _TIE_EPS:
            return c_low, c_high, (
                self._eval_cost_strict(high) < self._eval_cost_strict(low)
            )
        return c_low, c_high, d > 0

    def commit_segment(
        self, net: int, seg: Segment, want_rec: bool
    ) -> Tuple[RoutedSegment, Optional[RoutedSegment], Optional[tuple]]:
        """Fused initial commit of one pool segment.

        Equivalent to ``route_for(net, seg, VERT_AT_LOW)`` + ``add_route``
        and — for an unlocked diagonal (``want_rec``) —
        ``route_for(net, seg, VERT_AT_HIGH)``, with the geometry (column
        clamps, range clips, multiset keys) computed once.  Returns
        ``(route_low, route_high, rec)``; the latter two are ``None`` for
        flat or locked segments, and ``rec`` is ``None`` in strict mode.

        ``rec`` is the diagonal's flip record for :meth:`flip_step_rec`.
        Both candidate routes are pure geometry, so their clipped ranges,
        flat-buffer bases, prefix-table offsets, interval-multiset
        references (stable — emptied lists are retained) and work charge
        never change across improvement passes and are computed here once.
        """
        ax, ar = seg.a
        bx, br = seg.b
        cw = self.col_width
        nc1 = self.ncols - 1
        rl = self.row_lo
        nr = self.nrows
        bulk_fd = self._bulk_fd
        bulk_hd = self._bulk_hd
        if ax == bx:  # vertical (or degenerate point)
            if ar == br:
                return RoutedSegment(net=net), None, None
            g = ax // cw
            g = 0 if g < 0 else (nc1 if g > nc1 else g)
            lo, hi = (ar, br) if ar <= br else (br, ar)
            route = RoutedSegment(net=net, vert=(g, lo, hi))
            clo = lo + 1
            if clo < rl:
                clo = rl
            chi = hi - 1
            rh = rl + nr - 1
            if chi > rh:
                chi = rh
            if clo <= chi:
                nv = self._net_vert
                key = (net, g)
                ivs = nv.get(key)
                if ivs is None:
                    ivs = nv[key] = []
                if bulk_fd is not None:
                    _defer_bump(bulk_fd, g * nr - rl, clo, chi, ivs, 1)
                else:
                    _bump_range(self._feed, g * nr - rl, clo, chi, ivs, 1)
                ivs.append((clo, chi))
                self._feed_view = None
                self._row_index = None
            return route, None, None
        if ar == br:  # horizontal: span defaults to the channel above
            x_lo, x_hi = (ax, bx) if ax <= bx else (bx, ax)
            g_lo = x_lo // cw
            g_lo = 0 if g_lo < 0 else (nc1 if g_lo > nc1 else g_lo)
            g_hi = x_hi // cw
            g_hi = 0 if g_hi < 0 else (nc1 if g_hi > nc1 else g_hi)
            ch = ar + 1
            route = RoutedSegment(net=net, horiz=(ch, g_lo, g_hi))
            if rl <= ch <= rl + nr:
                nh = self._net_horiz
                key = (net, ch)
                ivs = nh.get(key)
                if ivs is None:
                    ivs = nh[key] = []
                if bulk_hd is not None:
                    _defer_bump(bulk_hd, (ch - rl) * self.ncols, g_lo, g_hi, ivs, 1)
                else:
                    _bump_range(self._hus, (ch - rl) * self.ncols, g_lo, g_hi, ivs, 1)
                ivs.append((g_lo, g_hi))
                self._hus_view = None
            return route, None, None
        # diagonal
        (lx, lr), (hx, hr) = ((ax, ar), (bx, br)) if ar < br else ((bx, br), (ax, ar))
        gl = lx // cw
        gl = 0 if gl < 0 else (nc1 if gl > nc1 else gl)
        gh = hx // cw
        gh = 0 if gh < 0 else (nc1 if gh > nc1 else gh)
        g_lo, g_hi = (gl, gh) if gl <= gh else (gh, gl)
        ch_l = hr
        ch_h = lr + 1
        route_low = RoutedSegment(net=net, vert=(gl, lr, hr), horiz=(ch_l, g_lo, g_hi))
        v_lo = lr + 1
        if v_lo < rl:
            v_lo = rl
        v_hi = hr - 1
        rh = rl + nr - 1
        if v_hi > rh:
            v_hi = rh
        has_v = v_lo <= v_hi
        ivs_vl = None
        nv = self._net_vert
        if has_v:
            key = (net, gl)
            ivs_vl = nv.get(key)
            if ivs_vl is None:
                ivs_vl = nv[key] = []
            if bulk_fd is not None:
                _defer_bump(bulk_fd, gl * nr - rl, v_lo, v_hi, ivs_vl, 1)
            else:
                _bump_range(self._feed, gl * nr - rl, v_lo, v_hi, ivs_vl, 1)
            ivs_vl.append((v_lo, v_hi))
            self._feed_view = None
            self._row_index = None
        in_l = rl <= ch_l <= rl + nr
        ivs_hl = None
        nh = self._net_horiz
        if in_l:
            key = (net, ch_l)
            ivs_hl = nh.get(key)
            if ivs_hl is None:
                ivs_hl = nh[key] = []
            if bulk_hd is not None:
                _defer_bump(bulk_hd, (ch_l - rl) * self.ncols, g_lo, g_hi, ivs_hl, 1)
            else:
                _bump_range(self._hus, (ch_l - rl) * self.ncols, g_lo, g_hi, ivs_hl, 1)
            ivs_hl.append((g_lo, g_hi))
            self._hus_view = None
        if not want_rec:
            return route_low, None, None
        route_high = RoutedSegment(net=net, vert=(gh, lr, hr), horiz=(ch_h, g_lo, g_hi))
        if self.strict:
            return route_low, route_high, None
        nc = self.ncols
        if has_v:
            fb_l = gl * nr - rl
            fb_h = gh * nr - rl
            efpb_l = gl * (nr + 1) - rl
            efpb_h = gh * (nr + 1) - rl
            key = (net, gh)
            ivs_vh = nv.get(key)
            if ivs_vh is None:
                ivs_vh = nv[key] = []
        else:
            v_lo = 1
            v_hi = 0
            fb_l = fb_h = efpb_l = efpb_h = 0
            ivs_vl = ivs_vh = None
        if in_l:
            ci_l = ch_l - rl
            hb_l = ci_l * nc
            ehpb_l = ci_l * (nc + 1)
        else:
            ci_l = -1
            hb_l = ehpb_l = 0
        if rl <= ch_h <= rl + nr:
            ci_h = ch_h - rl
            hb_h = ci_h * nc
            ehpb_h = ci_h * (nc + 1)
            key = (net, ch_h)
            ivs_hh = nh.get(key)
            if ivs_hh is None:
                ivs_hh = nh[key] = []
        else:
            ci_h = -1
            hb_h = ehpb_h = 0
            ivs_hh = None
        n_v = v_hi - v_lo + 1 if has_v else 0
        n_h = g_hi - g_lo + 1
        ops_low = n_v + (n_h if ci_l >= 0 else 0)
        ops_high = n_v + (n_h if ci_h >= 0 else 0)
        ops_lh = (ops_low if ops_low > 0 else 1) + (ops_high if ops_high > 0 else 1)
        rec = (
            has_v, fb_l, fb_h, v_lo, v_hi, (v_lo, v_hi), ivs_vl, ivs_vh,
            efpb_l, efpb_h,
            ci_l, ci_h, hb_l, hb_h, g_lo, g_hi, (g_lo, g_hi), ivs_hl, ivs_hh,
            ehpb_l, ehpb_h,
            ops_lh,
        )
        return route_low, route_high, rec

    def flip_step_rec(
        self, rec: tuple, cur_is_high: bool, counter: WorkCounter = NULL_COUNTER
    ) -> bool:
        """One rip-up/re-commit step of the coarse improvement pass.

        ``rec`` is the diagonal's flip record (see :meth:`commit_segment`)
        and ``cur_is_high`` its committed orientation.  Rips up the current
        route, evaluates both orientations on the remaining state, commits
        the cheaper one and returns ``True`` when ``VERT_AT_HIGH`` won —
        the same routes and work charges as ``remove_route`` +
        ``eval_cost`` ×2 + ``add_route``, with every per-pass-invariant
        lookup (clipping, key resolution, buffer bases) read from the
        record.
        """
        (has_v, fb_l, fb_h, v_lo, v_hi, vt, ivs_vl, ivs_vh,
         efpb_l, efpb_h,
         ci_l, ci_h, hb_l, hb_h, h_lo, h_hi, ht, ivs_hl, ivs_hh,
         ehpb_l, ehpb_h,
         ops_lh) = rec
        feed = self._feed
        hus = self._hus

        # 1. Virtual rip-up: drop the committed interval from its multiset
        # only.  The usage buffers keep the route's +1 — it sits on exactly
        # the uncovered cells the gathers below visit, so subtracting the
        # cell count from those sums reproduces the ripped-up values, and
        # the buffers never have to be touched unless the orientation
        # actually changes.
        if cur_is_high:
            if has_v:
                ivs_vh.remove(vt)
            if ci_h >= 0:
                ivs_hh.remove(ht)
        else:
            if has_v:
                ivs_vl.remove(vt)
            if ci_l >= 0:
                ivs_hl.remove(ht)
        # own +1 lingers in any structure the current orientation shares
        # with an evaluation (always its own side; both sides when the
        # clamped columns or channels coincide)
        if cur_is_high:
            sub_vh = 1
            sub_vl = 1 if fb_l == fb_h else 0
            sub_hh = 1
            sub_hl = 1 if ci_l == ci_h else 0
        else:
            sub_vl = 1
            sub_vh = 1 if fb_l == fb_h else 0
            sub_hl = 1
            sub_hh = 1 if ci_l == ci_h else 0

        # 2. Evaluate both orientations on the (virtually) remaining state.
        w = self.weights
        wf = w.feed
        wfc = w.feed_congestion
        wcc = w.channel_congestion
        efp = self._ext_feed_prefix
        ehp = self._ext_hus_prefix
        c_low = c_high = 0.0
        n_vl = s_vl = n_vh = s_vh = 0
        n_hl = s_hl = n_hh = s_hh = 0
        if has_v:
            n_vl, s_vl = _gather(feed, fb_l, v_lo, v_hi, ivs_vl, efp, efpb_l)
            if sub_vl:
                s_vl -= n_vl
            c_low = n_vl * wf + wfc * s_vl
            n_vh, s_vh = _gather(feed, fb_h, v_lo, v_hi, ivs_vh, efp, efpb_h)
            if sub_vh:
                s_vh -= n_vh
            c_high = n_vh * wf + wfc * s_vh
        if ci_l >= 0:
            n_hl, s_hl = _gather(hus, hb_l, h_lo, h_hi, ivs_hl, ehp, ehpb_l)
            if sub_hl:
                s_hl -= n_hl
            c_low += n_hl * 1.0 + wcc * s_hl
        if ci_h >= 0:
            n_hh, s_hh = _gather(hus, hb_h, h_lo, h_hi, ivs_hh, ehp, ehpb_h)
            if sub_hh:
                s_hh -= n_hh
            c_high += n_hh * 1.0 + wcc * s_hh
        # single bulk charge == the two historical per-eval charges
        counter.add("coarse", ops_lh)

        d = c_low - c_high
        if not -_TIE_EPS < d < _TIE_EPS:
            pick_high = d > 0
        elif (s_vl == 0 and s_vh == 0 and s_hl == 0 and s_hh == 0
              and n_vl == n_vh and n_hl == n_hh):
            pick_high = False  # bit-equal strict walks would keep low
        else:
            extf = self._ext_feed_cells
            exth = self._ext_hus_cells
            c_low_s = _strict_eval(
                feed, fb_l, v_lo, v_hi, ivs_vl, extf, wf, wfc,
                hus, hb_l, h_lo, h_hi, ivs_hl, exth, wcc,
                has_v, ci_l >= 0, sub_vl, sub_hl,
            )
            c_high_s = _strict_eval(
                feed, fb_h, v_lo, v_hi, ivs_vh, extf, wf, wfc,
                hus, hb_h, h_lo, h_hi, ivs_hh, exth, wcc,
                has_v, ci_h >= 0, sub_vh, sub_hh,
            )
            pick_high = c_high_s < c_low_s

        # 3. Commit the winner.
        if pick_high == cur_is_high:
            # kept: restore the multiset entries — buffers were never touched
            if pick_high:
                if has_v:
                    ivs_vh.append(vt)
                if ci_h >= 0:
                    ivs_hh.append(ht)
            else:
                if has_v:
                    ivs_vl.append(vt)
                if ci_l >= 0:
                    ivs_hl.append(ht)
            return pick_high
        # orientation changed: apply the real rip-up of the old side, then
        # the commit of the new one (same operation order as remove_route
        # followed by add_route)
        if cur_is_high:
            if has_v:
                _bump_range(feed, fb_h, v_lo, v_hi, ivs_vh, -1)
                _bump_range(feed, fb_l, v_lo, v_hi, ivs_vl, 1)
                ivs_vl.append(vt)
                self._feed_view = None
                self._row_index = None
            if ci_h >= 0:
                _bump_range(hus, hb_h, h_lo, h_hi, ivs_hh, -1)
                self._hus_view = None
            if ci_l >= 0:
                _bump_range(hus, hb_l, h_lo, h_hi, ivs_hl, 1)
                ivs_hl.append(ht)
                self._hus_view = None
        else:
            if has_v:
                _bump_range(feed, fb_l, v_lo, v_hi, ivs_vl, -1)
                _bump_range(feed, fb_h, v_lo, v_hi, ivs_vh, 1)
                ivs_vh.append(vt)
                self._feed_view = None
                self._row_index = None
            if ci_l >= 0:
                _bump_range(hus, hb_l, h_lo, h_hi, ivs_hl, -1)
                self._hus_view = None
            if ci_h >= 0:
                _bump_range(hus, hb_h, h_lo, h_hi, ivs_hh, 1)
                ivs_hh.append(ht)
                self._hus_view = None
        return pick_high

    # -- wave-level entry points --------------------------------------------

    def flip_wave(
        self,
        committed,
        diagonal_idx: Sequence[int],
        order: np.ndarray,
        counter: WorkCounter = NULL_COUNTER,
    ) -> int:
        """Run one scheduling wave of coarse flip candidates.

        ``committed`` is the pool of
        :class:`~repro.twgr.coarse_step.PooledSegment`, ``diagonal_idx``
        indexes its orientation-free diagonals, and ``order`` holds
        positions into ``diagonal_idx`` (one chunk of the pass
        permutation).  In wave order, each candidate is ripped up, both
        orientations are evaluated on the remaining state and the cheaper
        one is recommitted — by :meth:`flip_step_rec`, or in strict mode by
        the oracle sequence ``remove_route`` + ``_eval_cost_strict`` ×2 +
        ``add_route``.  Updates each candidate's ``orient``/``route`` and
        returns how many orientations changed.
        """
        LOW = Orientation.VERT_AT_LOW
        HIGH = Orientation.VERT_AT_HIGH
        strict = self.strict
        flip_rec = self.flip_step_rec
        ks = order.tolist()
        self._pass_evals += len(ks)
        changed = 0
        for k in ks:
            ps = committed[diagonal_idx[k]]
            if strict:
                self.remove_route(ps.route)
                c_low = self._eval_cost_strict(ps.route_low, counter)
                c_high = self._eval_cost_strict(ps.route_high, counter)
                pick_high = c_high < c_low
                self.add_route(ps.route_high if pick_high else ps.route_low)
            else:
                pick_high = flip_rec(ps.rec, ps.orient is HIGH, counter)
            if pick_high:
                new_orient, new_route = HIGH, ps.route_high
            else:
                new_orient, new_route = LOW, ps.route_low
            if new_orient is not ps.orient:
                changed += 1
            ps.orient, ps.route = new_orient, new_route
        return changed

    def mark_flip_pass(self) -> None:
        """Close out one coarse pass: record how many candidates it
        evaluated since the previous mark."""
        self._pass_stats.append({"clean": 0, "dirty": self._pass_evals})
        self._pass_evals = 0

    def flip_pass_stats(self) -> List[Dict[str, int]]:
        """Per-pass ``{"clean": 0, "dirty": n}`` candidate counts recorded
        by :meth:`mark_flip_pass` — the observable behind the
        ``dirty_frac`` benchmark stat.  Every candidate is evaluated, so
        ``clean`` is always 0."""
        return self._pass_stats

    # -- aggregate views ----------------------------------------------------

    def total_feed_demand(self) -> int:
        """Total feedthroughs currently demanded across the window."""
        return sum(self._feed)

    def demand_for_row(self, row: int) -> np.ndarray:
        """Copy of the feed demand across one row's grid columns."""
        ri = self._ri(row)
        return self.feed_demand[ri].copy()

    def _crossing_index(self) -> List[List[Tuple[int, int]]]:
        """``row_idx -> sorted [(gcol, net), ...]`` over the window.

        Built in one pass over the per-net interval multisets (merged so a
        net crossing a row through several committed runs counts once) and
        cached until the next mutation.
        """
        idx = self._row_index
        if idx is None:
            rl = self.row_lo
            nr = self.nrows
            idx = [[] for _ in range(nr)]
            for (net, g), ivs in self._net_vert.items():
                if not ivs:
                    continue
                for a, b in _merged(ivs):
                    for r in range(a - rl, b - rl + 1):
                        idx[r].append((g, net))
            for entries in idx:
                entries.sort()
            self._row_index = idx
        return idx

    def crossings_for_row(self, row: int) -> List[Tuple[int, int]]:
        """Sorted ``(gcol, net)`` crossings through ``row`` (one per
        demanded feed)."""
        ri = row - self.row_lo
        if not 0 <= ri < self.nrows:
            return []
        return list(self._crossing_index()[ri])

    def all_crossings(self) -> List[Tuple[int, int, int]]:
        """Sorted ``(row, gcol, net)`` for every demanded feedthrough."""
        out: List[Tuple[int, int, int]] = []
        for (net, g), ivs in self._net_vert.items():
            if not ivs:
                continue
            for a, b in _merged(ivs):
                out.extend((r, g, net) for r in range(a, b + 1))
        out.sort()
        return out

    # -- synchronization support (net-wise parallel algorithm) --------------

    def snapshot_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Copies of this rank's own aggregate maps (for allreduce sync)."""
        return self.feed_demand.copy(), self.husage.copy()
