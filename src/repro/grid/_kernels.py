"""The pure-Python flat-buffer congestion kernels.

These are the primitive cost/update kernels of the coarse grid — gap
(uncovered-range) computation, range bumps, exact integer range gathers,
and the per-cell strict accumulation walk (the tie-breaking oracle of
the fast cost form).

This module must import nothing from the grid package — it is the
bottom of the grid's dependency stack.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

#: Cost gap below which the fast kernels defer an orientation decision to
#: the strict per-cell oracle.  Real cost differences are sums of weight
#: multiples (≥ 0.05 with the default weights); floating-point noise in
#: either cost form is bounded far below 1e-9, so any gap inside this band
#: means the two orientations are tied in real arithmetic and only the
#: oracle's accumulation order can break the tie the way the pre-rewrite
#: implementation did.
_TIE_EPS = 1e-7


def _uncovered(lo: int, hi: int, ivs: List[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """Subranges of the inclusive range ``[lo, hi]`` not covered by ``ivs``.

    ``ivs`` is a small unordered multiset of inclusive intervals (a net's
    existing runs over one grid column / channel).  The result is the
    ordered list of maximal gaps — the cells where committing a new run
    would actually consume a fresh resource.
    """
    if not ivs:
        return [(lo, hi)]
    if len(ivs) == 1:  # the overwhelmingly common case: one run per column
        a, b = ivs[0]
        if a > hi or b < lo:
            return [(lo, hi)]
        out = []
        if a > lo:
            out.append((lo, a - 1))
        if b < hi:
            out.append((b + 1, hi))
        return out
    rel = sorted((a, b) for a, b in ivs if a <= hi and b >= lo)
    if not rel:
        return [(lo, hi)]
    out: List[Tuple[int, int]] = []
    cur = lo
    for a, b in rel:
        if a > hi or cur > hi:
            break
        if a > cur:
            out.append((cur, a - 1))
        if b >= cur:
            cur = b + 1
    if cur <= hi:
        out.append((cur, hi))
    return out


def _merged(ivs: List[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """Sorted disjoint merge of an inclusive-interval multiset."""
    if len(ivs) == 1:
        return ivs
    out: List[Tuple[int, int]] = []
    for a, b in sorted(ivs):
        if out and a <= out[-1][1] + 1:
            if b > out[-1][1]:
                out[-1] = (out[-1][0], b)
        else:
            out.append((a, b))
    return out


def _bump_range(
    buf: List[int],
    base: int,
    lo: int,
    hi: int,
    ivs: List[Tuple[int, int]],
    delta: int,
) -> None:
    """Add ``delta`` to ``buf[base + x]`` for the cells of ``[lo, hi]``
    not covered by ``ivs``.  The 0/1-interval cases are inlined — they
    cover nearly every call — so the hot path allocates nothing."""
    if lo == hi:  # single cell — the typical vertical run of an L
        if ivs:
            for a, b in ivs:
                if a <= lo <= b:
                    return
        buf[base + lo] += delta
        return
    if not ivs:
        for i in range(base + lo, base + hi + 1):
            buf[i] += delta
        return
    if len(ivs) == 1:
        a, b = ivs[0]
        if a > hi or b < lo:
            for i in range(base + lo, base + hi + 1):
                buf[i] += delta
            return
        if a > lo:
            for i in range(base + lo, base + a):
                buf[i] += delta
        if b < hi:
            for i in range(base + b + 1, base + hi + 1):
                buf[i] += delta
        return
    for a, b in _uncovered(lo, hi, ivs):
        for i in range(base + a, base + b + 1):
            buf[i] += delta


def _defer_bump(
    diff: List[int],
    base: int,
    lo: int,
    hi: int,
    ivs: List[Tuple[int, int]],
    delta: int,
) -> None:
    """Record a :func:`_bump_range` as difference-array boundary writes.

    ``diff`` has one slot per buffer cell plus a trailing guard; adding
    ``delta`` at ``base + a`` and subtracting it at ``base + b + 1`` for
    every uncovered subrange makes a later exclusive prefix sum of
    ``diff`` reproduce the per-cell bumps exactly — two writes per range
    instead of one write per cell, which is what makes the initial pool
    commit cheap for long vertical runs."""
    if lo == hi:
        if ivs:
            for a, b in ivs:
                if a <= lo <= b:
                    return
        diff[base + lo] += delta
        diff[base + lo + 1] -= delta
        return
    for a, b in _uncovered(lo, hi, ivs) if ivs else ((lo, hi),):
        diff[base + a] += delta
        diff[base + b + 1] -= delta


def _strict_eval(
    feed: List[int],
    fb: int,
    lo: int,
    hi: int,
    ivs: Optional[List[Tuple[int, int]]],
    extf: Optional[List[int]],
    wf: float,
    wfc: float,
    hus: List[int],
    hb: int,
    g_lo: int,
    g_hi: int,
    ivsh: Optional[List[Tuple[int, int]]],
    exth: Optional[List[int]],
    wcc: float,
    use_v: bool,
    use_h: bool,
    sub_v: int = 0,
    sub_h: int = 0,
) -> float:
    """Per-cell cost accumulation from pre-clipped ranges — the tie-break
    core of the flip kernels, kept in exact agreement with
    ``CoarseGrid._eval_cost_strict``.  External mirrors share the flat
    layout of the own maps, so one base serves both.

    ``sub_v``/``sub_h`` subtract a constant from every visited cell: the
    mutation-free flip kernel leaves the ripped-up route's own ``+1`` in
    the usage buffers, and that contribution sits on exactly the cells
    this walk visits, so subtracting it per cell reproduces the ripped-up
    per-cell values (and hence the legacy accumulation) bit-for-bit."""
    cost = 0.0
    if use_v:
        for a, b in _uncovered(lo, hi, ivs) if ivs else ((lo, hi),):
            if extf is None:
                for i in range(fb + a, fb + b + 1):
                    cost += wf + wfc * (feed[i] - sub_v)
            else:
                for r in range(a, b + 1):
                    cost += wf + wfc * (feed[fb + r] + extf[fb + r] - sub_v)
    if use_h:
        for a, b in _uncovered(g_lo, g_hi, ivsh) if ivsh else ((g_lo, g_hi),):
            if exth is None:
                for i in range(hb + a, hb + b + 1):
                    cost += 1.0 + wcc * (hus[i] - sub_h)
            else:
                for c in range(a, b + 1):
                    cost += 1.0 + wcc * (hus[hb + c] + exth[hb + c] - sub_h)
    return cost


def _gather(
    buf: List[int],
    base: int,
    lo: int,
    hi: int,
    ivs: Optional[List[Tuple[int, int]]],
    ep: Optional[List[int]],
    pb: int,
) -> Tuple[int, int]:
    """``(cells, congestion_sum)`` over the uncovered cells of ``[lo, hi]``.

    ``buf[base + x]`` is the aggregate congestion of cell ``x``; ``ep`` is
    the external snapshot's prefix-sum table (``ep[pb + x]`` = sum of the
    external values strictly below cell ``x``), making each external
    interval an O(1) difference.  The own-map term is a C-level slice
    reduction — exact integer arithmetic either way, so the caller's
    ``count * w + w_c * sum`` cost is deterministic regardless of how the
    cells would have been walked.
    """
    if lo == hi:  # single cell
        if ivs:
            for a, b in ivs:
                if a <= lo <= b:
                    return 0, 0
        s = buf[base + lo]
        if ep is not None:
            i = pb + lo
            s += ep[i + 1] - ep[i]
        return 1, s
    if not ivs:
        s = sum(buf[base + lo : base + hi + 1])
        if ep is not None:
            s += ep[pb + hi + 1] - ep[pb + lo]
        return hi - lo + 1, s
    if len(ivs) == 1:
        a, b = ivs[0]
        if a > hi or b < lo:
            s = sum(buf[base + lo : base + hi + 1])
            if ep is not None:
                s += ep[pb + hi + 1] - ep[pb + lo]
            return hi - lo + 1, s
        n = 0
        s = 0
        if a > lo:
            s = sum(buf[base + lo : base + a])
            if ep is not None:
                s += ep[pb + a] - ep[pb + lo]
            n = a - lo
        if b < hi:
            s += sum(buf[base + b + 1 : base + hi + 1])
            if ep is not None:
                s += ep[pb + hi + 1] - ep[pb + b + 1]
            n += hi - b
        return n, s
    n = 0
    s = 0
    for a, b in _uncovered(lo, hi, ivs):
        s += sum(buf[base + a : base + b + 1])
        if ep is not None:
            s += ep[pb + b + 1] - ep[pb + a]
        n += b - a + 1
    return n, s
