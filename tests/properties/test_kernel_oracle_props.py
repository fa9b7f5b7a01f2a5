"""Property tests: fast array kernels vs the per-cell strict oracle.

The fast :class:`~repro.grid.coarse.CoarseGrid` mode computes each cost
part as ``count * w + w_c * range_sum`` from exact integer gathers; the
``strict=True`` mode walks cells one at a time in the pre-rewrite
accumulation order.  These properties pin the equivalence contract on
arbitrary congestion states — including external snapshots, the
``ext_feed`` / ``ext_husage`` overlay path used by the net-wise parallel
algorithm — not just on the workloads the routed circuits happen to
produce:

* costs agree to within the tie threshold (the integer sums are exact,
  so only float summation order can differ);
* the orientation decision (``eval_both``) is bit-identical, because
  near-ties defer to the strict walk;
* the mutable buffers themselves (feed demand, horizontal usage,
  crossings) are identical after any add/remove history.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Point, Segment
from repro.grid import CoarseGrid
from repro.grid.coarse import RoutedSegment, _TIE_EPS
from repro.perfmodel.counter import TallyCounter
from repro.twgr.coarse_step import coarse_route

NROWS, NCOLS = 6, 8


def _segment(t) -> RoutedSegment:
    net, g, r1, r2, ch, c1, c2, which = t
    vert = (g, min(r1, r2), max(r1, r2)) if which & 1 else None
    horiz = (ch, min(c1, c2), max(c1, c2)) if which & 2 else None
    return RoutedSegment(net=net, vert=vert, horiz=horiz)


segments = st.tuples(
    st.integers(0, 6),            # net
    st.integers(0, NCOLS - 1),    # vert gcol
    st.integers(0, NROWS - 1),    # vert row bound
    st.integers(0, NROWS - 1),    # vert row bound
    st.integers(0, NROWS),        # horiz channel
    st.integers(0, NCOLS - 1),    # horiz col bound
    st.integers(0, NCOLS - 1),    # horiz col bound
    st.integers(1, 3),            # which parts are present
).map(_segment)

externals = st.one_of(
    st.none(),
    st.tuples(
        st.lists(
            st.integers(0, 4), min_size=NROWS * NCOLS, max_size=NROWS * NCOLS
        ),
        st.lists(
            st.integers(0, 4),
            min_size=(NROWS + 1) * NCOLS,
            max_size=(NROWS + 1) * NCOLS,
        ),
    ),
)


def _twin_grids(routes, ext):
    """A fast grid and a strict grid loaded with the same state."""
    fast = CoarseGrid(ncols=NCOLS, nrows=NROWS, col_width=8)
    strict = CoarseGrid(ncols=NCOLS, nrows=NROWS, col_width=8, strict=True)
    for r in routes:
        fast.add_route(r)
        strict.add_route(r)
    if ext is not None:
        feed = np.array(ext[0], dtype=np.int32).reshape(NROWS, NCOLS)
        hus = np.array(ext[1], dtype=np.int32).reshape(NROWS + 1, NCOLS)
        fast.set_external(feed, hus)
        strict.set_external(feed, hus)
    return fast, strict


@settings(max_examples=200)
@given(st.lists(segments, max_size=25), segments, externals)
def test_eval_cost_matches_strict_oracle(routes, candidate, ext):
    """Fast gather cost == per-cell oracle cost (within float reassociation)."""
    fast, strict = _twin_grids(routes, ext)
    cf = fast.eval_cost(candidate)
    cs = strict.eval_cost(candidate)
    # integer range sums are exact, so any difference is pure summation
    # order — far below the tie threshold the router decides with
    assert abs(cf - cs) < _TIE_EPS


@settings(max_examples=200)
@given(st.lists(segments, max_size=25), segments, segments, externals)
def test_eval_both_decision_is_bit_identical(routes, low, high, ext):
    """The orientation pick never depends on which mode evaluates it."""
    fast, strict = _twin_grids(routes, ext)
    low = RoutedSegment(net=low.net, vert=low.vert, horiz=low.horiz)
    high = RoutedSegment(net=low.net, vert=high.vert, horiz=high.horiz)
    _, _, pick_fast = fast.eval_both(low, high)
    _, _, pick_strict = strict.eval_both(low, high)
    assert pick_fast == pick_strict


@settings(max_examples=100)
@given(st.lists(segments, max_size=25), externals)
def test_buffers_identical_across_modes(routes, ext):
    """Mutable congestion state is mode-independent, add and remove alike."""
    fast, strict = _twin_grids(routes, ext)
    assert np.array_equal(fast.feed_demand, strict.feed_demand)
    assert np.array_equal(fast.husage, strict.husage)
    assert fast.all_crossings() == strict.all_crossings()
    for r in routes[::2]:
        fast.remove_route(r)
        strict.remove_route(r)
    assert np.array_equal(fast.feed_demand, strict.feed_demand)
    assert np.array_equal(fast.husage, strict.husage)
    assert fast.all_crossings() == strict.all_crossings()


# ---------------------------------------------------------------------------
# Wave-level entry points vs the strict oracle
# ---------------------------------------------------------------------------

pair_candidates = st.lists(st.tuples(segments, segments), min_size=1, max_size=12)


def _as_pairs(raw_pairs):
    """(low, high) candidate pairs sharing one net, as eval_both expects."""
    return [
        (low, RoutedSegment(net=low.net, vert=high.vert, horiz=high.horiz))
        for low, high in raw_pairs
    ]


@settings(max_examples=150)
@given(st.lists(segments, max_size=20), pair_candidates, externals)
def test_batched_eval_matches_strict_oracle(routes, raw_pairs, ext):
    """``eval_both_batch`` == per-pair ``eval_both``, and its picks are
    the strict oracle's."""
    fast, strict = _twin_grids(routes, ext)
    pairs = _as_pairs(raw_pairs)
    batch = fast.eval_both_batch(pairs)
    assert batch == [fast.eval_both(low, high) for low, high in pairs]
    assert [pick for _, _, pick in batch] == [
        pick for _, _, pick in strict.eval_both_batch(pairs)
    ]


pool_entries = st.lists(
    st.tuples(
        st.integers(0, 6),             # net
        st.integers(0, NCOLS * 8 - 1),  # a.x
        st.integers(0, NROWS - 1),      # a.row
        st.integers(0, NCOLS * 8 - 1),  # b.x
        st.integers(0, NROWS - 1),      # b.row
    ),
    max_size=20,
)


@settings(max_examples=60, deadline=None)
@given(pool_entries, st.integers(0, 2**31 - 1))
def test_flip_waves_match_strict_oracle(entries, seed):
    """Whole coarse improvement passes are mode-independent.

    Same pool, same rng seed: the committed orientations, the congestion
    buffers, and the charged work units of the fast kernels (flip
    records, clean-candidate skips, oracle deferrals included) must match
    the strict per-cell walk's.
    """
    pool = [
        (net, Segment.make(Point(ax, ar), Point(bx, br)))
        for net, ax, ar, bx, br in entries
    ]
    results = []
    for strict in (False, True):
        grid = CoarseGrid(ncols=NCOLS, nrows=NROWS, col_width=8, strict=strict)
        counter = TallyCounter()
        committed = coarse_route(
            pool, grid, np.random.default_rng(seed), passes=2, counter=counter
        )
        results.append((
            [ps.orient for ps in committed],
            grid.feed_demand.copy(),
            grid.husage.copy(),
            grid.all_crossings(),
            dict(counter.units),
        ))
    fast, strict = results
    assert fast[0] == strict[0]
    assert np.array_equal(fast[1], strict[1])
    assert np.array_equal(fast[2], strict[2])
    assert fast[3] == strict[3]
    assert fast[4] == strict[4]


@settings(max_examples=100)
@given(st.lists(segments, max_size=20), segments)
def test_external_overlay_is_pure_cost_offset(routes, candidate):
    """A zero external snapshot changes no cost; clearing restores it."""
    fast, _ = _twin_grids(routes, None)
    base = fast.eval_cost(candidate)
    feed = np.zeros((NROWS, NCOLS), dtype=np.int32)
    hus = np.zeros((NROWS + 1, NCOLS), dtype=np.int32)
    fast.set_external(feed, hus)
    assert fast.eval_cost(candidate) == base
    fast.set_external(None, None)
    assert fast.eval_cost(candidate) == base
