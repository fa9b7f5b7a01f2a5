import numpy as np
import pytest

from repro.grid import ChannelSpan
from repro.grid.channels import build_state
from repro.twgr import optimize_switchable


def sw(net, channel, lo, hi, row):
    return ChannelSpan(net=net, channel=channel, lo=lo, hi=hi, switchable=True, row=row)


def rng():
    return np.random.default_rng(0)


def test_relieves_overloaded_channel():
    # channel 2 carries a 3-deep stack at columns 0..10; channel 1's own
    # traffic lives at columns 20..30, so stack members can move under
    # channel 1's existing tracks and reduce the total
    spans = [sw(i, 2, 0, 10, row=1) for i in range(3)]
    fixed = [
        ChannelSpan(net=10 + i, channel=1, lo=20, hi=30) for i in range(2)
    ]
    state = build_state(spans + fixed, 0, 3)
    before = state.total_tracks()
    flips = optimize_switchable(spans, state, rng(), passes=3)
    assert flips > 0
    assert state.total_tracks() < before


def test_total_tracks_never_increase():
    spans = [sw(i, 1 + i % 2, (i * 3) % 20, (i * 3) % 20 + 8, row=1) for i in range(12)]
    state = build_state(spans, 0, 3)
    before = state.total_tracks()
    optimize_switchable(spans, state, rng(), passes=4)
    assert state.total_tracks() <= before


def test_non_switchable_untouched():
    fixed = ChannelSpan(net=0, channel=2, lo=0, hi=10)
    spans = [fixed] + [sw(i, 2, 0, 10, row=1) for i in range(1, 4)]
    state = build_state(spans, 0, 3)
    optimize_switchable(spans, state, rng(), passes=3)
    assert fixed.channel == 2


def test_no_candidates_returns_zero():
    spans = [ChannelSpan(net=0, channel=1, lo=0, hi=5)]
    state = build_state(spans, 0, 2)
    assert optimize_switchable(spans, state, rng(), passes=3) == 0


def test_zero_passes():
    spans = [sw(0, 1, 0, 5, row=1)]
    state = build_state(spans, 0, 2)
    assert optimize_switchable(spans, state, rng(), passes=0) == 0


def test_deterministic():
    def run():
        spans = [sw(i, 1 + i % 2, (i * 7) % 30, (i * 7) % 30 + 10, row=1) for i in range(20)]
        state = build_state(spans, 0, 3)
        flips = optimize_switchable(spans, state, np.random.default_rng(9), passes=3)
        return flips, [s.channel for s in spans]

    assert run() == run()


def test_sync_chunk_counts_fixed():
    calls = []
    spans = [sw(i, 2, 0, 10, row=1) for i in range(7)]
    state = build_state(spans, 0, 3)
    optimize_switchable(
        spans, state, rng(), passes=2, sync=lambda: calls.append(1), syncs_per_pass=3
    )
    assert len(calls) == 6  # 3 per pass, 2 passes, no early stop


def test_sync_called_without_candidates():
    calls = []
    state = build_state([], 0, 2)
    optimize_switchable(
        [], state, rng(), passes=2, sync=lambda: calls.append(1), syncs_per_pass=2
    )
    assert len(calls) == 4


def test_sync_once_mode():
    calls = []
    spans = [sw(i, 2, 0, 10, row=1) for i in range(5)]
    state = build_state(spans, 0, 3)
    optimize_switchable(
        spans, state, rng(), passes=3, sync=lambda: calls.append(1), syncs_per_pass=0
    )
    assert len(calls) == 1


def test_result_same_with_and_without_trivial_sync():
    """A no-op sync must not change the optimization outcome."""

    def run(sync, chunks):
        spans = [sw(i, 1 + i % 2, (i * 5) % 25, (i * 5) % 25 + 9, row=1) for i in range(15)]
        state = build_state(spans, 0, 3)
        optimize_switchable(
            spans, state, np.random.default_rng(4), passes=3,
            sync=sync, syncs_per_pass=chunks,
        )
        return [s.channel for s in spans]

    assert run(None, 0) == run(lambda: None, 4)


# ---------------------------------------------------------------------------
# channel-version memoization (the step-5 incremental layer)
# ---------------------------------------------------------------------------


def _reference_optimize(spans, state, rng_, passes, sync, syncs_per_pass):
    """The memo-free synced optimizer: fresh flip_gain on every visit."""
    from repro.twgr.scheduling import split_chunks

    candidates = [s for s in spans if s.switchable]
    flips = 0
    for _ in range(passes):
        order = (
            rng_.permutation(len(candidates))
            if candidates else np.empty(0, dtype=np.int64)
        )
        for chunk in split_chunks(order, syncs_per_pass):
            sync()
            for k in chunk.tolist():
                if state.flip_gain(candidates[k]) > 0:
                    state.flip(candidates[k])
                    flips += 1
    return flips


@pytest.mark.parametrize("seed", range(6))
def test_memo_never_stale_under_mutating_sync(seed):
    """State-version invalidation: a sync that mutates channel contents
    (external resyncs AND direct span edits) must dirty exactly what it
    touched — cached gains may never survive a content change, so the
    memoized optimizer's decisions equal the memo-free reference's."""
    r = np.random.default_rng(seed)
    ext_seq = [
        {int(ch): [(int(lo), int(lo + w))]
         for ch, lo, w in zip(r.integers(0, 4, 3), r.integers(0, 20, 3), r.integers(1, 12, 3))}
        for _ in range(8)
    ]

    def build():
        spans = [
            sw(i, 1 + i % 2, int(x), int(x) + 6, row=1)
            for i, x in enumerate(r2.integers(0, 24, 14))
        ]
        state = build_state(spans, 0, 3)
        extra = ChannelSpan(net=99, channel=2, lo=0, hi=30)
        calls = [0]

        def sync():
            i = calls[0]
            calls[0] += 1
            state.replace_externals(ext_seq[i % len(ext_seq)])
            if i % 3 == 1:
                state.add_span(extra)
            elif i % 3 == 2:
                state.remove_span(extra)

        return spans, state, sync

    r2 = np.random.default_rng(seed + 100)
    spans_a, state_a, sync_a = build()
    r2 = np.random.default_rng(seed + 100)
    spans_b, state_b, sync_b = build()

    flips_a = optimize_switchable(
        spans_a, state_a, np.random.default_rng(seed), passes=2,
        sync=sync_a, syncs_per_pass=3,
    )
    flips_b = _reference_optimize(
        spans_b, state_b, np.random.default_rng(seed), passes=2,
        sync=sync_b, syncs_per_pass=3,
    )
    assert flips_a == flips_b
    assert [s.channel for s in spans_a] == [s.channel for s in spans_b]
    assert state_a.total_tracks() == state_b.total_tracks()


def test_pass_stats_report_clean_dirty_split():
    spans = [sw(i, 1 + i % 2, (i * 7) % 30, (i * 7) % 30 + 10, row=1) for i in range(20)]
    state = build_state(spans, 0, 3)
    stats = []
    optimize_switchable(
        spans, state, np.random.default_rng(9), passes=3, pass_stats=stats
    )
    assert stats, "pass_stats must receive one record per executed pass"
    # every candidate is visited once per pass, served clean or dirty
    assert all(p["clean"] + p["dirty"] == len(spans) for p in stats)
    # the first pass starts with a cold cache: nothing can be clean until
    # a candidate has been evaluated once
    assert stats[0]["clean"] < len(spans)
    # a flip-free final pass leaves every untouched candidate clean
    if len(stats) > 1:
        assert stats[-1]["clean"] > 0


def test_untouched_channels_replay_cached_charges():
    """Work charges are bit-identical with and without the memo."""
    from repro.perfmodel.counter import TallyCounter

    def run(passes):
        spans = [sw(i, 1 + i % 2, (i * 5) % 25, (i * 5) % 25 + 9, row=1) for i in range(15)]
        state = build_state(spans, 0, 3)
        c = TallyCounter()
        optimize_switchable(
            spans, state, np.random.default_rng(4), passes=passes, counter=c
        )
        return dict(c.units)

    # determinism of the charge totals across reruns (replayed charges
    # included) — the fast-versus-strict work-parity suites cover the rest
    assert run(3) == run(3)
