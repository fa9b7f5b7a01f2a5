"""Half-open integer intervals and overlap ("density") computations.

Channel density — the number of wires that must pass a given column of a
routing channel — is the core quality metric of the router: the number of
tracks a channel needs equals the maximum overlap of the horizontal wire
spans assigned to it.  :func:`max_overlap` and :class:`IntervalSet` provide
that computation, both one-shot and incrementally.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple


@dataclass(frozen=True, slots=True)
class Interval:
    """Half-open interval ``[lo, hi)`` on the column axis.

    A zero-length wire span (a via-only connection) is represented by
    ``lo == hi`` and contributes nothing to density.
    """

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"inverted interval [{self.lo}, {self.hi})")

    @classmethod
    def spanning(cls, a: int, b: int) -> "Interval":
        """Interval covering columns between two endpoints, in either order."""
        return cls(min(a, b), max(a, b))

    @property
    def length(self) -> int:
        """Number of columns covered."""
        return self.hi - self.lo

    @property
    def empty(self) -> bool:
        """True for zero-length intervals (no density contribution)."""
        return self.lo == self.hi

    def overlaps(self, other: "Interval") -> bool:
        """True when the half-open intervals share a column."""
        return self.lo < other.hi and other.lo < self.hi

    def contains(self, x: int) -> bool:
        """True when column ``x`` lies in ``[lo, hi)``."""
        return self.lo <= x < self.hi


def max_overlap(intervals: Iterable[Interval]) -> int:
    """Maximum number of intervals covering any single column.

    Runs an event sweep in ``O(n log n)``.  Empty intervals are ignored.
    This is exactly the *channel density*, i.e. the minimum track count of
    a channel containing the given wire spans.
    """
    return max_overlap_of((iv.lo, iv.hi) for iv in intervals)


def max_overlap_of(bounds: Iterable[Tuple[int, int]]) -> int:
    """:func:`max_overlap` of bare ``(lo, hi)`` pairs with ``lo <= hi``.

    For callers that already hold normalized bounds (channel spans, span
    tuples received from another rank) and need no interval objects.
    """
    events: List[Tuple[int, int]] = []
    for lo, hi in bounds:
        if lo == hi:
            continue
        events.append((lo, 1))
        events.append((hi, -1))
    if not events:
        return 0
    # Process closings before openings at the same coordinate: the
    # intervals are half-open, so a span ending where another begins does
    # not overlap it.
    events.sort()
    depth = best = 0
    for _, delta in events:
        depth += delta
        if depth > best:
            best = depth
    return best


class IntervalSet:
    """A multiset of intervals with incremental density queries.

    The router adds and removes wire spans while evaluating candidate moves
    (L-shape flips, channel flips), so densities must be cheap to update.
    The set keeps a sparse difference profile (``column -> +/- count``)
    plus lazily-rebuilt sorted breakpoint/depth lists with running prefix
    and suffix maxima.  Mutations only invalidate the lists; every query
    — the global maximum, point densities, and the what-if densities used
    by the step-5 flip kernel — then runs in :math:`O(\\log n)` bisections
    over the cached profile instead of re-sorting the whole dict.  Plain
    lists and :mod:`bisect` beat NumPy here: a channel's profile holds a
    few dozen breakpoints, well below ufunc-dispatch break-even.
    """

    __slots__ = (
        "_diff", "_count", "_cols", "_depths", "_prefix", "_suffix", "_density"
    )

    def __init__(self, intervals: Iterable[Interval] = ()) -> None:
        self._diff: Dict[int, int] = {}
        self._count = 0
        self._cols: Optional[List[int]] = None
        self._depths: Optional[List[int]] = None
        self._prefix: Optional[List[int]] = None
        self._suffix: Optional[List[int]] = None
        self._density = 0
        for iv in intervals:
            self.add(iv)

    def __len__(self) -> int:
        return self._count

    def add(self, iv: Interval) -> None:
        """Insert one span (duplicates allowed)."""
        self.add_range(iv.lo, iv.hi)

    def remove(self, iv: Interval) -> None:
        """Remove one previously-added span.

        The profile is a multiset difference: removing a span that was never
        added corrupts the density, so callers must pair add/remove exactly.
        """
        self.remove_range(iv.lo, iv.hi)

    def add_range(self, lo: int, hi: int) -> None:
        """:meth:`add` from bare bounds — no :class:`Interval` allocation."""
        self._count += 1
        if lo == hi:
            return
        self._bump(lo, 1)
        self._bump(hi, -1)
        self._cols = None

    def remove_range(self, lo: int, hi: int) -> None:
        """:meth:`remove` from bare bounds."""
        if self._count == 0:
            raise KeyError("remove from empty IntervalSet")
        self._count -= 1
        if lo == hi:
            return
        self._bump(lo, -1)
        self._bump(hi, 1)
        self._cols = None

    def _bump(self, col: int, delta: int) -> None:
        new = self._diff.get(col, 0) + delta
        if new:
            self._diff[col] = new
        else:
            self._diff.pop(col, None)

    def _rebuild(self) -> None:
        """Recompute the sorted profile lists from the difference dict.

        All four lists come out of C-level :func:`itertools.accumulate`
        runs — the rebuild is the price of every post-mutation query, so
        no Python-level loop is allowed here.
        """
        diff = self._diff
        cols = sorted(diff)
        depths = list(accumulate(diff[c] for c in cols))
        prefix = list(accumulate(depths, max))
        suffix = list(accumulate(reversed(depths), max))
        suffix.reverse()
        self._cols = cols
        self._depths = depths
        self._prefix = prefix
        self._suffix = suffix
        self._density = prefix[-1] if prefix and prefix[-1] > 0 else 0

    def _arrays(self) -> Tuple[List[int], List[int]]:
        if self._cols is None:
            self._rebuild()
        return self._cols, self._depths

    def density(self) -> int:
        """Current maximum overlap (track requirement)."""
        if self._cols is None:
            self._rebuild()
        return self._density

    def density_at(self, col: int) -> int:
        """Overlap count at a single column."""
        cols, depths = self._arrays()
        i = bisect_right(cols, col) - 1
        return depths[i] if i >= 0 else 0

    def max_depth_in(self, lo: int, hi: int) -> int:
        """Maximum overlap over columns of the half-open range ``[lo, hi)``."""
        if lo >= hi:
            return 0
        cols, depths = self._arrays()
        if not cols:
            return 0
        # last profile step starting strictly before hi
        b = bisect_left(cols, hi) - 1
        if b < 0:
            return 0  # the whole range lies before the first breakpoint
        # step containing lo (may extend left of it; -1 = zero-depth prefix)
        a = bisect_right(cols, lo) - 1
        m = max(depths[max(a, 0) : b + 1])
        return max(m, 0) if a < 0 else m

    def max_depth_outside(self, lo: int, hi: int) -> int:
        """Maximum overlap over all columns *not* in ``[lo, hi)``.

        The domain is unbounded, so the zero-depth regions beyond the
        profile always count: the result is never negative.
        """
        if lo >= hi:
            return self.density()
        cols, depths = self._arrays()
        if not cols:
            return 0
        left = 0
        al = bisect_left(cols, lo)
        if al > 0:
            left = self._prefix[al - 1]
        ah = bisect_right(cols, hi) - 1
        right = self._suffix[max(ah, 0)]
        return max(left, right, 0)

    def whatif_density(self, lo: int, hi: int, delta: int) -> int:
        """Density after one hypothetical ``[lo, hi)`` mutation (no state
        change): ``delta=+1`` models an add, ``delta=-1`` a remove.

        Fuses :meth:`max_depth_in` and :meth:`max_depth_outside` — the
        step-5 flip kernel's whole query — into one pass over the cached
        profile: four bisections total, no intermediate objects.
        """
        if lo >= hi:  # empty span: no density effect either way
            return self.density()
        if self._cols is None:
            self._rebuild()
        cols = self._cols
        if not cols:
            return delta if delta > 0 else 0
        depths = self._depths
        b = bisect_left(cols, hi) - 1
        if b < 0:
            inside = 0
        else:
            a = bisect_right(cols, lo) - 1
            if a < 0:
                inside = max(depths[: b + 1])
                if inside < 0:
                    inside = 0
            else:
                inside = max(depths[a : b + 1])
        al = bisect_left(cols, lo)
        left = self._prefix[al - 1] if al > 0 else 0
        ah = bisect_right(cols, hi) - 1
        right = self._suffix[ah if ah > 0 else 0]
        outside = left if left > right else right
        if outside < 0:
            outside = 0
        inside += delta
        return inside if inside > outside else outside

    def density_with_add(self, iv: Interval) -> int:
        """Density the set *would* have after ``add(iv)`` (no mutation)."""
        return self.whatif_density(iv.lo, iv.hi, 1)

    def density_with_remove(self, iv: Interval) -> int:
        """Density the set *would* have after ``remove(iv)`` (no mutation).

        ``iv`` must currently be in the multiset, as with :meth:`remove`.
        """
        return self.whatif_density(iv.lo, iv.hi, -1)

    def profile(self) -> List[Tuple[int, int]]:
        """Piecewise-constant density profile as ``(start_col, depth)`` steps."""
        cols, depths = self._arrays()
        return list(zip(cols, depths))

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        return iter(self.profile())


def total_span_length(intervals: Sequence[Interval]) -> int:
    """Sum of interval lengths (horizontal wirelength of the spans)."""
    return sum(iv.length for iv in intervals)
