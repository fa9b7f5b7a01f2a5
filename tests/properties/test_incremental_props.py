"""Property tests: the versioned dirty-window layer never serves stale state.

The incremental congestion engine caches each flip candidate's evaluation
under the version vector of the four resource windows it reads, and
additionally proves candidates clean through the bounded range log
(:meth:`~repro.grid.coarse.CoarseGrid.window_unchanged`) when newer bumps
missed the candidate's clipped ranges.  Two families of properties pin it:

* *soundness* — ``window_unchanged`` may say "provably identical" only
  when no recorded bump newer than the cached version overlaps the
  queried range (mirrored against a lossless ground-truth log, so log
  truncation, floor bookkeeping, bulk-commit suppression, and the
  ``set_external`` whole-grid invalidation are all exercised);
* *freshness* — over arbitrary mutation sequences interleaving flip
  waves with ``add_route`` / ``remove_route`` / ``set_external``, a
  cached grid commits exactly the orientations, buffers, and work
  charges of an uncached sequential oracle.

A final non-property test pins the dispatch contract: a fully-clean wave
performs zero gather and zero strict-oracle calls.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.grid.coarse as coarse_mod
from repro.geometry import Point, Segment
from repro.grid import CoarseGrid
from repro.grid.coarse import RoutedSegment
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

pool_entries = st.lists(
    st.tuples(
        st.integers(0, 6),              # net
        st.integers(0, NCOLS * 8 - 1),  # a.x
        st.integers(0, NROWS - 1),      # a.row
        st.integers(0, NCOLS * 8 - 1),  # b.x
        st.integers(0, NROWS - 1),      # b.row
    ),
    max_size=15,
)


# ---------------------------------------------------------------------------
# soundness of the bounded range-log proof
# ---------------------------------------------------------------------------


@settings(max_examples=700, deadline=None)
@given(st.lists(segments, min_size=1, max_size=15), st.data())
def test_window_unchanged_is_sound(routes, data):
    """``window_unchanged`` never claims cleanliness across a real bump.

    A lossless mirror records every ``_bump_w`` (version, range) — plus
    the whole-grid bump of ``set_external`` — so the bounded in-grid log
    can be checked against ground truth: whenever the grid answers True
    for ``(w, cached, lo, hi)``, no mirrored bump of ``w`` newer than
    ``cached`` may overlap ``[lo, hi]``.  Bulk commits (which suppress
    in-grid logging) and log-cap truncation must both surface as
    conservative False answers, never unsound True ones.
    """
    grid = CoarseGrid(ncols=NCOLS, nrows=NROWS, col_width=8)
    span = NCOLS * NROWS  # upper bound on any in-window cell index
    mirror = []  # lossless: (window, version, lo, hi)
    orig_bump = grid._bump_w

    def recording_bump(w, lo, hi):
        mirror.append((w, grid._wver[w] + 1, lo, hi))
        orig_bump(w, lo, hi)

    grid._bump_w = recording_bump

    def mirror_set_external(feed, hus):
        for w in range(len(grid._wver)):
            mirror.append((w, grid._wver[w] + 1, 0, span))
        grid.set_external(feed, hus)

    # checkpoint the version vector at random moments; queries replay
    # against these cached stamps afterwards
    checkpoints = [list(grid._wver)]
    n_ops = data.draw(st.integers(1, 12))
    added = []
    for _ in range(n_ops):
        op = data.draw(st.sampled_from(["add", "remove", "bulk", "ext", "mark"]))
        if op == "add":
            r = data.draw(segments)
            added.append(r)
            grid.add_route(r)
        elif op == "remove" and added:
            grid.remove_route(added.pop())
        elif op == "bulk":
            grid.begin_bulk_commit()
            for r in [data.draw(segments) for _ in range(data.draw(st.integers(1, 3)))]:
                added.append(r)
                grid.add_route(r)
            grid.end_bulk_commit()
        elif op == "ext":
            if data.draw(st.booleans()):
                feed = np.zeros((NROWS, NCOLS), dtype=np.int32)
                hus = np.zeros((NROWS + 1, NCOLS), dtype=np.int32)
                mirror_set_external(feed, hus)
            else:
                mirror_set_external(None, None)
        else:
            checkpoints.append(list(grid._wver))

    nwin = len(grid._wver)
    for _ in range(20):
        w = data.draw(st.integers(0, nwin - 1))
        cached = data.draw(st.sampled_from(checkpoints))[w]
        lo = data.draw(st.integers(0, span - 1))
        hi = data.draw(st.integers(lo, span))
        if grid.window_unchanged(w, cached, lo, hi):
            overlapping = [
                b for b in mirror
                if b[0] == w and b[1] > cached and b[2] <= hi and b[3] >= lo
            ]
            assert not overlapping, (
                f"window {w} claimed unchanged since v{cached} over "
                f"[{lo},{hi}] but bumps {overlapping} overlap it"
            )


# ---------------------------------------------------------------------------
# cached waves vs the uncached oracle under arbitrary interleaved mutation
# ---------------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(pool_entries, st.integers(0, 2**31 - 1), st.data())
def test_cached_flip_waves_never_serve_stale_costs(entries, seed, data):
    """Interleaved commits/externals/waves: caches change nothing.

    Two grids run the identical history — an initial ``coarse_route``
    then rounds of (mutations, flip wave): one with the versioned cache
    armed, one with the cache detached (every candidate re-evaluated —
    the oracle).  After every wave the committed orientations must agree, and at the end the
    congestion buffers and total work charges must be equal — a cached
    "clean" answer that survived a mutation it should not have would
    diverge here.
    """
    pool = [
        (net, Segment.make(Point(ax, ar), Point(bx, br)))
        for net, ax, ar, bx, br in entries
    ]
    grids = {}
    for kind in ("cached", "oracle"):
        grid = CoarseGrid(ncols=NCOLS, nrows=NROWS, col_width=8)
        counter = TallyCounter()
        committed = coarse_route(
            pool, grid, np.random.default_rng(seed), passes=1, counter=counter
        )
        diag = [i for i, ps in enumerate(committed) if ps.route_low is not None]
        if kind == "oracle":
            # rebind the grid's cache to a *different* pool identity:
            # every subsequent wave re-evaluates from scratch
            grid.begin_flip_waves([])
        else:
            grid.begin_flip_waves(diag)
        grids[kind] = (grid, committed, diag, counter)

    extras = []  # routes added after the initial commit (shared objects)
    for _ in range(data.draw(st.integers(1, 3))):
        for op in data.draw(
            st.lists(st.sampled_from(["add", "remove", "ext", "clear"]), max_size=4)
        ):
            if op == "add":
                r = data.draw(segments)
                extras.append(r)
                for grid, _, _, _ in grids.values():
                    grid.add_route(r)
            elif op == "remove" and extras:
                r = extras.pop()
                for grid, _, _, _ in grids.values():
                    grid.remove_route(r)
            elif op == "ext":
                cells = data.draw(
                    st.lists(
                        st.integers(0, 3),
                        min_size=NROWS * NCOLS,
                        max_size=NROWS * NCOLS,
                    )
                )
                feed = np.array(cells, dtype=np.int32).reshape(NROWS, NCOLS)
                hus = np.zeros((NROWS + 1, NCOLS), dtype=np.int32)
                for grid, _, _, _ in grids.values():
                    grid.set_external(feed, hus)
            else:
                for grid, _, _, _ in grids.values():
                    grid.set_external(None, None)
        ndiag = len(grids["cached"][2])
        order = np.random.default_rng(
            data.draw(st.integers(0, 2**31 - 1))
        ).permutation(ndiag)
        for grid, committed, diag, counter in grids.values():
            grid.flip_wave(committed, diag, order, counter)
        orients = {
            kind: [committed[i].orient for i in diag]
            for kind, (_, committed, diag, _) in grids.items()
        }
        assert orients["cached"] == orients["oracle"]

    buffers = {
        kind: (grid.feed_demand.copy(), grid.husage.copy(), dict(counter.units))
        for kind, (grid, _, _, counter) in grids.items()
    }
    assert np.array_equal(buffers["cached"][0], buffers["oracle"][0])
    assert np.array_equal(buffers["cached"][1], buffers["oracle"][1])
    assert buffers["cached"][2] == buffers["oracle"][2]


# ---------------------------------------------------------------------------
# a fully-clean wave performs zero kernel work
# ---------------------------------------------------------------------------


def _isolated_pool():
    """Tall diagonals in distinct columns: no two candidates interact."""
    nrows, ncols, cw = 24, 12, 8
    pool = [
        (net, Segment.make(Point(2 * net * cw, 0), Point((2 * net + 1) * cw, nrows - 1)))
        for net in range(5)
    ]
    return pool, nrows, ncols, cw


def test_fully_clean_wave_makes_zero_gather_calls(monkeypatch):
    """Re-running a wave with no intervening mutations touches no kernels.

    After one evaluated wave over non-interacting candidates, every
    candidate is provably clean (version match or range proof), so the
    next wave must be pure charge replay: zero ``_gather`` calls and
    zero strict-oracle walks.
    """
    pool, nrows, ncols, cw = _isolated_pool()
    grid = CoarseGrid(ncols=ncols, nrows=nrows, col_width=cw)
    committed = coarse_route(pool, grid, np.random.default_rng(7), passes=1)
    diag = [i for i, ps in enumerate(committed) if ps.route_low is not None]
    assert len(diag) == len(pool)
    grid.begin_flip_waves(diag)
    order = np.arange(len(diag))

    grid.flip_wave(committed, diag, order)  # evaluates: all dirty
    clean0 = grid.flip_stats["clean"]
    dirty0 = grid.flip_stats["dirty"]

    def boom(*args, **kwargs):  # pragma: no cover - must never run
        raise AssertionError("kernel invoked during a fully-clean wave")

    monkeypatch.setattr(coarse_mod, "_gather", boom)
    monkeypatch.setattr(coarse_mod, "_strict_eval", boom)

    changed = grid.flip_wave(committed, diag, order)
    assert changed == 0
    assert grid.flip_stats["clean"] == clean0 + len(diag)
    assert grid.flip_stats["dirty"] == dirty0
