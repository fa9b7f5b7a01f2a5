import numpy as np
import pytest

from repro.geometry import Point, Segment
from repro.grid import CoarseGrid, Orientation
from repro.steiner import build_net_tree
from repro.twgr import coarse_route, collect_segments


def make_grid():
    return CoarseGrid(ncols=12, nrows=8, col_width=8)


def test_collect_segments_sorted_by_net():
    trees = {
        3: build_net_tree(3, [Point(0, 0), Point(5, 5)]),
        1: build_net_tree(1, [Point(0, 0), Point(9, 0)]),
    }
    pool = collect_segments(trees)
    assert [net for net, _, _ in pool] == [1, 3]
    assert all(locked is False for _, _, locked in pool)


def test_all_segments_committed():
    grid = make_grid()
    pool = [
        (0, Segment.make(Point(0, 0), Point(40, 4))),
        (1, Segment.make(Point(0, 2), Point(40, 2))),
        (2, Segment.make(Point(16, 0), Point(16, 6))),
    ]
    committed = coarse_route(pool, grid, np.random.default_rng(0), passes=2)
    assert len(committed) == 3
    # grid loaded: vertical demand exists for nets 0 and 2
    assert grid.total_feed_demand() > 0


def test_orientation_improves_with_congestion():
    grid = make_grid()
    # preload channel 4 (below row 4) heavily so VERT_AT_LOW (bend at top)
    # becomes expensive for a segment ending at row 4
    from repro.grid.coarse import RoutedSegment

    for net in range(100, 112):
        grid.add_route(RoutedSegment(net=net, horiz=(4, 0, 11)))
    seg = Segment.make(Point(0, 1), Point(80, 4))
    committed = coarse_route([(1, seg)], grid, np.random.default_rng(0), passes=2)
    assert committed[0].orient is Orientation.VERT_AT_HIGH


def test_locked_segment_keeps_vert_at_low():
    grid = make_grid()
    from repro.grid.coarse import RoutedSegment

    for net in range(100, 112):
        grid.add_route(RoutedSegment(net=net, horiz=(4, 0, 11)))
    seg = Segment.make(Point(0, 1), Point(80, 4))
    committed = coarse_route(
        [(1, seg, True)], grid, np.random.default_rng(0), passes=2
    )
    assert committed[0].orient is Orientation.VERT_AT_LOW


def test_flat_segments_have_no_freedom():
    grid = make_grid()
    seg = Segment.make(Point(0, 2), Point(40, 2))
    committed = coarse_route([(1, seg)], grid, np.random.default_rng(0), passes=3)
    assert committed[0].route.horiz is not None
    assert committed[0].route.vert is None


def test_deterministic_under_same_rng_seed():
    def run():
        grid = make_grid()
        rng = np.random.default_rng(42)
        pool = [
            (i, Segment.make(Point(i * 3 % 90, i % 4), Point((i * 7) % 90, 4 + i % 4)))
            for i in range(40)
        ]
        committed = coarse_route(pool, grid, rng, passes=2)
        return [c.orient for c in committed], grid.feed_demand.copy()

    o1, d1 = run()
    o2, d2 = run()
    assert o1 == o2
    assert (d1 == d2).all()


def test_sync_called_fixed_number_of_times():
    calls = []
    grid = make_grid()
    pool = [(0, Segment.make(Point(0, 0), Point(40, 4)))]
    coarse_route(
        pool, grid, np.random.default_rng(0), passes=2,
        sync=lambda: calls.append(1), syncs_per_pass=3,
    )
    # 1 initial + 3 per pass * 2 passes
    assert len(calls) == 1 + 6


def test_sync_called_even_with_empty_pool():
    calls = []
    grid = make_grid()
    coarse_route(
        [], grid, np.random.default_rng(0), passes=2,
        sync=lambda: calls.append(1), syncs_per_pass=2,
    )
    assert len(calls) == 1 + 4


def test_sync_once_mode():
    calls = []
    grid = make_grid()
    coarse_route(
        [(0, Segment.make(Point(0, 0), Point(40, 4)))],
        grid, np.random.default_rng(0), passes=2,
        sync=lambda: calls.append(1), syncs_per_pass=0,
    )
    assert len(calls) == 1


@pytest.mark.parametrize("strict", [False, True], ids=["fast", "strict"])
def test_flip_pass_stats_one_record_per_pass(strict):
    # three diagonals, one flat and one locked segment; sync mode
    # disables early termination, so every pass executes
    pool = [
        (0, Segment.make(Point(0, 0), Point(40, 4))),
        (1, Segment.make(Point(8, 1), Point(64, 6))),
        (2, Segment.make(Point(72, 2), Point(16, 7))),
        (3, Segment.make(Point(0, 2), Point(40, 2))),
        (4, Segment.make(Point(24, 0), Point(88, 5)), True),
    ]
    grid = CoarseGrid(ncols=12, nrows=8, col_width=8, strict=strict)
    committed = coarse_route(
        pool, grid, np.random.default_rng(3), passes=3,
        sync=lambda: None, syncs_per_pass=2,
    )
    ndiag = sum(ps.route_low is not None for ps in committed)
    assert ndiag == 3
    assert grid.flip_pass_stats() == [{"clean": 0, "dirty": ndiag}] * 3


def test_flip_pass_stats_stop_at_early_termination():
    # an uncongested lone diagonal keeps its orientation: the first pass
    # changes nothing, so no second pass runs
    grid = make_grid()
    coarse_route(
        [(0, Segment.make(Point(0, 0), Point(40, 4)))],
        grid, np.random.default_rng(0), passes=3,
    )
    assert grid.flip_pass_stats() == [{"clean": 0, "dirty": 1}]
