"""Equivalence of the incremental congestion kernels with references.

The coarse grid, the interval profiles and the flip kernel were rewritten
from per-cell dictionary walks into interval arithmetic with cached
profiles; routing quality must be *bit-identical* (an fp tie in the
L-orientation comparison resolving differently changes committed routes).
These tests cross-check every rewritten kernel against a straightforward
per-cell reference on randomized workloads, and pin the end-to-end
``RoutingResult`` metrics of all four algorithms to golden values captured
from the pre-rewrite implementation.
"""

from collections import Counter
from typing import Dict, List, Optional, Tuple

import numpy as np
import pytest

from repro.circuits import mcnc
from repro.geometry import Interval, IntervalSet
from repro.grid.channels import ChannelSpan, build_state
from repro.grid.coarse import CoarseGrid, CostWeights, RoutedSegment
from repro.parallel.driver import route_parallel
from repro.twgr.config import RouterConfig
from repro.twgr.router import GlobalRouter


class ReferenceGrid:
    """Per-cell Counter-based congestion grid (the pre-rewrite semantics).

    Every crossed cell carries a per-net multiplicity; aggregate maps count
    distinct nets; the cost walk visits cells one by one in ascending
    order.  Slow but obviously correct.
    """

    def __init__(self, ncols: int, nrows: int, row_lo: int = 0,
                 weights: CostWeights = CostWeights()) -> None:
        self.ncols = ncols
        self.nrows = nrows
        self.row_lo = row_lo
        self.weights = weights
        self.vert_usage: Counter = Counter()   # (net, row, gcol) -> count
        self.horiz_usage: Counter = Counter()  # (net, channel, gcol) -> count
        self.ext_feed: Optional[np.ndarray] = None
        self.ext_husage: Optional[np.ndarray] = None

    def _vert_cells(self, route: RoutedSegment) -> List[Tuple[int, int]]:
        if route.vert is None:
            return []
        g, r_lo, r_hi = route.vert
        lo = max(r_lo + 1, self.row_lo)
        hi = min(r_hi - 1, self.row_lo + self.nrows - 1)
        return [(r, g) for r in range(lo, hi + 1)]

    def _horiz_cells(self, route: RoutedSegment) -> List[Tuple[int, int]]:
        if route.horiz is None:
            return []
        ch, g_lo, g_hi = route.horiz
        if not self.row_lo <= ch <= self.row_lo + self.nrows:
            return []
        return [(ch, g) for g in range(g_lo, g_hi + 1)]

    def add_route(self, route: RoutedSegment) -> None:
        for r, g in self._vert_cells(route):
            self.vert_usage[(route.net, r, g)] += 1
        for ch, g in self._horiz_cells(route):
            self.horiz_usage[(route.net, ch, g)] += 1

    def remove_route(self, route: RoutedSegment) -> None:
        for r, g in self._vert_cells(route):
            key = (route.net, r, g)
            self.vert_usage[key] -= 1
            if self.vert_usage[key] == 0:
                del self.vert_usage[key]
        for ch, g in self._horiz_cells(route):
            key = (route.net, ch, g)
            self.horiz_usage[key] -= 1
            if self.horiz_usage[key] == 0:
                del self.horiz_usage[key]

    def feed_demand(self) -> np.ndarray:
        out = np.zeros((self.nrows, self.ncols), dtype=np.int32)
        for (_net, r, g) in self.vert_usage:
            out[r - self.row_lo, g] += 1
        return out

    def husage(self) -> np.ndarray:
        out = np.zeros((self.nrows + 1, self.ncols), dtype=np.int32)
        for (_net, ch, g) in self.horiz_usage:
            out[ch - self.row_lo, g] += 1
        return out

    def eval_cost(self, route: RoutedSegment) -> float:
        w = self.weights
        feed = self.feed_demand()
        hus = self.husage()
        cost = 0.0
        net = route.net
        for r, g in self._vert_cells(route):
            if (net, r, g) in self.vert_usage:
                continue  # the net already owns this crossing — free
            demand = int(feed[r - self.row_lo, g])
            if self.ext_feed is not None:
                demand += int(self.ext_feed[r - self.row_lo, g])
            cost += w.feed + w.feed_congestion * demand
        for ch, g in self._horiz_cells(route):
            if (net, ch, g) in self.horiz_usage:
                continue
            usage = int(hus[ch - self.row_lo, g])
            if self.ext_husage is not None:
                usage += int(self.ext_husage[ch - self.row_lo, g])
            cost += 1.0 + w.channel_congestion * usage
        return cost

    def crossings_for_row(self, row: int) -> List[Tuple[int, int]]:
        return sorted({(g, net) for (net, r, g) in self.vert_usage if r == row})

    def all_crossings(self) -> List[Tuple[int, int, int]]:
        return sorted({(r, g, net) for (net, r, g) in self.vert_usage})


def _random_route(rng: np.random.Generator, ncols: int, nrows: int,
                  row_lo: int) -> RoutedSegment:
    net = int(rng.integers(0, 8))
    vert = horiz = None
    kind = int(rng.integers(0, 3))
    if kind in (0, 2):
        g = int(rng.integers(0, ncols))
        r_lo = int(rng.integers(row_lo - 2, row_lo + nrows))
        r_hi = r_lo + int(rng.integers(0, nrows))
        vert = (g, r_lo, r_hi)
    if kind in (1, 2):
        ch = int(rng.integers(row_lo - 1, row_lo + nrows + 2))
        g_lo = int(rng.integers(0, ncols))
        g_hi = min(g_lo + int(rng.integers(0, ncols)), ncols - 1)
        g_lo = min(g_lo, g_hi)
        horiz = (ch, g_lo, g_hi)
    return RoutedSegment(net=net, vert=vert, horiz=horiz)


def _costs_agree(grid: CoarseGrid, ref: ReferenceGrid,
                 candidate: RoutedSegment) -> bool:
    """Strict mode must match the reference bit for bit; the fast
    range-sum kernel may differ by float-summation-order ulps."""
    got, want = grid.eval_cost(candidate), ref.eval_cost(candidate)
    if grid.strict:
        return got == want
    return got == pytest.approx(want, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("strict", [False, True], ids=["fast", "strict"])
@pytest.mark.parametrize("seed,row_lo", [(0, 0), (1, 0), (2, 3), (3, 5)])
def test_grid_matches_per_cell_reference(seed, row_lo, strict):
    """add/remove/eval/crossings agree with the per-cell reference."""
    rng = np.random.default_rng(seed)
    ncols, nrows = 12, 8
    grid = CoarseGrid(ncols=ncols, nrows=nrows, col_width=10, row_lo=row_lo,
                      strict=strict)
    ref = ReferenceGrid(ncols=ncols, nrows=nrows, row_lo=row_lo)
    added: List[RoutedSegment] = []
    for step in range(300):
        if added and rng.random() < 0.35:
            route = added.pop(int(rng.integers(0, len(added))))
            grid.remove_route(route)
            ref.remove_route(route)
        else:
            route = _random_route(rng, ncols, nrows, row_lo)
            grid.add_route(route)
            ref.add_route(route)
            added.append(route)
        candidate = _random_route(rng, ncols, nrows, row_lo)
        assert _costs_agree(grid, ref, candidate)
        # the fused pair evaluation must decide exactly like two
        # reference evaluations compared with `<` — ties included
        other = _random_route(rng, ncols, nrows, row_lo)
        other = RoutedSegment(net=candidate.net, vert=other.vert,
                              horiz=other.horiz)
        _cl, _ch, pick_high = grid.eval_both(candidate, other)
        assert pick_high == (ref.eval_cost(other) < ref.eval_cost(candidate))
        if step % 25 == 0:
            np.testing.assert_array_equal(grid.feed_demand, ref.feed_demand())
            np.testing.assert_array_equal(grid.husage, ref.husage())
            row = int(rng.integers(row_lo, row_lo + nrows))
            assert grid.crossings_for_row(row) == ref.crossings_for_row(row)
    np.testing.assert_array_equal(grid.feed_demand, ref.feed_demand())
    np.testing.assert_array_equal(grid.husage, ref.husage())
    assert grid.all_crossings() == ref.all_crossings()
    assert grid.total_feed_demand() == int(ref.feed_demand().sum())


@pytest.mark.parametrize("strict", [False, True], ids=["fast", "strict"])
@pytest.mark.parametrize("seed", [0, 1])
def test_grid_external_congestion_matches_reference(seed, strict):
    """eval_cost folds the external snapshot exactly like the reference."""
    rng = np.random.default_rng(seed)
    ncols, nrows = 10, 6
    grid = CoarseGrid(ncols=ncols, nrows=nrows, col_width=10, strict=strict)
    ref = ReferenceGrid(ncols=ncols, nrows=nrows)
    for _ in range(60):
        route = _random_route(rng, ncols, nrows, 0)
        grid.add_route(route)
        ref.add_route(route)
    ext_feed = rng.integers(0, 4, size=(nrows, ncols)).astype(np.int32)
    ext_hus = rng.integers(0, 4, size=(nrows + 1, ncols)).astype(np.int32)
    grid.set_external(ext_feed, ext_hus)
    ref.ext_feed, ref.ext_husage = ext_feed, ext_hus
    for _ in range(100):
        candidate = _random_route(rng, ncols, nrows, 0)
        assert _costs_agree(grid, ref, candidate)
    grid.set_external(None, None)
    ref.ext_feed = ref.ext_husage = None
    candidate = _random_route(rng, ncols, nrows, 0)
    assert _costs_agree(grid, ref, candidate)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_intervalset_whatif_matches_mutation(seed):
    """density_with_add/remove equal an actual mutate → density → restore."""
    rng = np.random.default_rng(seed)
    s = IntervalSet()
    held: List[Interval] = []
    for _ in range(500):
        roll = rng.random()
        if held and roll < 0.3:
            iv = held.pop(int(rng.integers(0, len(held))))
            s.remove(iv)
        else:
            a, b = sorted(int(v) for v in rng.integers(0, 60, size=2))
            iv = Interval(a, b)
            s.add(iv)
            held.append(iv)
        lo, hi = sorted(int(v) for v in rng.integers(0, 60, size=2))
        probe = Interval(lo, hi)
        # what-if add
        got = s.density_with_add(probe)
        s.add(probe)
        assert got == s.density()
        s.remove(probe)
        # what-if remove (probe must be in the multiset)
        s.add(probe)
        got = s.density_with_remove(probe)
        s.remove(probe)
        assert got == s.density()
        # point query vs profile scan
        col = int(rng.integers(-5, 65))
        depth = 0
        for c, d in s.profile():
            if c <= col:
                depth = d
        assert s.density_at(col) == depth


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_flip_gain_matches_recompute(seed):
    """flip_gain equals the remove → recompute → restore reference."""
    rng = np.random.default_rng(seed)
    nrows = 6
    spans: List[ChannelSpan] = []
    for _ in range(120):
        row = int(rng.integers(0, nrows))
        lo, hi = sorted(int(v) for v in rng.integers(0, 80, size=2))
        switchable = bool(rng.random() < 0.5)
        channel = row + int(rng.integers(0, 2)) if switchable else row + 1
        spans.append(
            ChannelSpan(net=int(rng.integers(0, 20)), channel=channel,
                        lo=lo, hi=hi, switchable=switchable,
                        row=row if switchable else -1)
        )
    state = build_state(spans, 0, nrows)
    for span in spans:
        if not span.switchable:
            assert state.flip_gain(span) == 0
            continue
        gain = state.flip_gain(span)
        src, dst = span.channel, span.other_channel()
        before = state.density(src) + state.density(dst)
        state.flip(span)
        after = state.density(span.channel) + state.density(span.other_channel())
        state.flip(span)  # restore
        assert gain == before - after


# Golden RoutingResult metrics captured from the pre-rewrite per-cell
# implementation (commit 8535ffc), seed 13, nprocs=4 for the parallel
# algorithms: (total_tracks, area, num_feedthroughs, wirelength, flips,
# num_spans).  The rewritten kernels must reproduce them bit for bit.
GOLDEN = {
    ("primary1", 0.15, "serial"): (96, 15104, 43, 3967, 6, 312),
    ("primary1", 0.15, "rowwise"): (106, 15694, 43, 3559, 5, 325),
    ("primary1", 0.15, "netwise"): (98, 15222, 43, 3942, 11, 312),
    ("primary1", 0.15, "hybrid"): (103, 15517, 43, 3994, 4, 311),
    ("biomed", 0.05, "serial"): (279, 47296, 440, 15716, 16, 1097),
    ("biomed", 0.05, "rowwise"): (294, 48256, 440, 15463, 15, 1142),
    ("biomed", 0.05, "netwise"): (295, 48320, 440, 15592, 26, 1088),
    ("biomed", 0.05, "hybrid"): (284, 47616, 440, 15823, 16, 1102),
}


@pytest.mark.parametrize("name,scale,algo", sorted(GOLDEN))
def test_end_to_end_golden(name, scale, algo):
    circuit = mcnc.generate(name, scale=scale, seed=13)
    cfg = RouterConfig(seed=13)
    if algo == "serial":
        r = GlobalRouter(cfg).route(circuit)
    else:
        r = route_parallel(
            circuit, algorithm=algo, nprocs=4, config=cfg, compute_baseline=False
        ).result
    got = (r.total_tracks, r.area, r.num_feedthroughs, r.wirelength,
           r.flips, r.num_spans)
    assert got == GOLDEN[(name, scale, algo)]


def modeled_signature(algo: str, nprocs: int) -> tuple:
    """The modeled side of a parallel run: per-rank clock components,
    work units per kind, and the message count and bytes on the wire."""
    from repro.mpi.trace import total_bytes, total_messages
    from repro.obs import Tracer

    circuit = mcnc.generate("primary1", scale=0.15, seed=13)
    tracer = Tracer()
    run = route_parallel(
        circuit, algorithm=algo, nprocs=nprocs, config=RouterConfig(seed=13),
        compute_baseline=False, obs=tracer,
    )
    t = run.timing
    return (
        tuple(t.rank_times), tuple(t.rank_compute), tuple(t.rank_comm),
        tuple(t.rank_idle), tuple(sorted(run.result.work_units.items())),
        total_messages(tracer), total_bytes(tracer),
    )


# The modeled side of the parallel GOLDEN runs (primary1 0.15, seed 13),
# recorded from the straightforward per-net bookkeeping.  Modeled clocks
# are float sums of work charges, so any change to what a rank charges,
# or in which order, shows up here bit for bit.
MODELED_GOLDEN = {
    ('rowwise', 2): (
        (0.434955774999997, 0.434915774999997,),
        (0.31384000000000006, 0.42400000000000004,),
        (0.009327400000000007, 0.006901175000000004,),
        (0.1117883749999987, 0.004014599999999452,),
        (
            ('assign', 59.0),
            ('coarse', 1086.0),
            ('connect', 1462.0),
            ('feeds', 183.0),
            ('metrics', 332.0),
            ('setup', 4540.0),
            ('steiner', 2212.0),
            ('switch', 8572.0),
        ),
        23, 58743,
    ),
    ('rowwise', 3): (
        (0.29513082499999715, 0.2950508249999972, 0.2949718249999972,),
        (0.22444000000000003, 0.23652, 0.28168,),
        (0.013324000000000015, 0.006954425000000004, 0.006722825000000004,),
        (0.05736682499999989, 0.05157639999999907, 0.0065689999999989715,),
        (
            ('assign', 59.0),
            ('coarse', 1014.0),
            ('connect', 1388.0),
            ('feeds', 183.0),
            ('metrics', 336.0),
            ('setup', 6810.0),
            ('steiner', 2212.0),
            ('switch', 6564.0),
        ),
        46, 99250,
    ),
    ('netwise', 2): (
        (0.49039153235293703, 0.49035153235293705,),
        (0.4216799999999997, 0.41735294117647137,),
        (0.04517419999999999, 0.032899449999999955,),
        (0.023537332352940463, 0.04009914117646929,),
        (
            ('assign', 57.0),
            ('coarse', 1162.0),
            ('connect', 1642.0),
            ('feeds', 183.0),
            ('setup', 3085.0),
            ('steiner', 2212.0),
            ('switch', 12634.823529411777),
        ),
        106, 34146,
    ),
    ('netwise', 3): (
        (0.40092681470587843, 0.40084681470587846, 0.4007666147058785,),
        (0.2794776470588234, 0.29616000000000003, 0.3338776470588239,),
        (0.06432240000000003, 0.033072449999999955, 0.03310344999999996,),
        (0.05712676764705965, 0.07161436470588028, 0.03378551764705684,),
        (
            ('assign', 57.0),
            ('coarse', 1162.0),
            ('connect', 1642.0),
            ('feeds', 183.0),
            ('setup', 4606.0),
            ('steiner', 2212.0),
            ('switch', 12875.882352941182),
        ),
        216, 63132,
    ),
    ('hybrid', 2): (
        (0.4303779749999976, 0.4303379749999976,),
        (0.32036000000000003, 0.41864,),
        (0.010107600000000007, 0.0076833750000000044,),
        (0.0999103749999997, 0.004014599999999452,),
        (
            ('assign', 59.0),
            ('coarse', 1086.0),
            ('connect', 1642.0),
            ('feeds', 183.0),
            ('metrics', 329.0),
            ('setup', 4540.0),
            ('steiner', 2212.0),
            ('switch', 8424.0),
        ),
        27, 62039,
    ),
    ('hybrid', 3): (
        (0.3547526249999971, 0.35467262499999713, 0.35459362499999714,),
        (0.22296, 0.3294000000000001, 0.27720000000000006,),
        (0.014331600000000017, 0.007994425000000003, 0.007751825000000006,),
        (0.11746102499999994, 0.017278199999998793, 0.06964179999999906,),
        (
            ('assign', 59.0),
            ('coarse', 1014.0),
            ('connect', 1642.0),
            ('feeds', 183.0),
            ('metrics', 331.0),
            ('setup', 6810.0),
            ('steiner', 2212.0),
            ('switch', 8488.0),
        ),
        58, 104714,
    ),
}


@pytest.mark.parametrize("algo,nprocs", sorted(MODELED_GOLDEN))
def test_modeled_golden(algo, nprocs):
    assert modeled_signature(algo, nprocs) == MODELED_GOLDEN[(algo, nprocs)]
