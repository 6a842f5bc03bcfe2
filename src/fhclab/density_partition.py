"""Pairwise-disjoint index sets of positive lower density with gap margins.

The family A(l, nu) is realized by tiling the positive integers with
consecutive blocks.  Each scheduled pair gets a rank j (ascending l+nu,
ties by l) and owns blocks of length 4*nu carrying exactly two elements,
at offsets nu and 3*nu from the block start.  Block t goes to rank v2(t)
(v2 = 2-adic valuation) when that rank exists; otherwise it is a length-1
filler with no elements.  A schedule with a single pair degenerates to
consecutive blocks all owned by that pair.

The head/tail margins of nu inside each block make every gap between
elements of A(l, nu) and A(k, mu) at least nu + mu, each element at least
nu, and rank frequencies 2^-(j+1) give every set positive lower density.

The layout is periodic.  With R ranks, blocks t and t + 2^R have the same
rank when R > 1: v2(t + 2^R) = v2(t) whenever v2(t) < R, and both are
fillers otherwise.  So blocks 1 .. 2^R, which hold 2^(R-1-j) blocks of rank
j and one filler, cover [1, P] with P = 1 + sum_j 2^(R-1-j) * 4 nu_j, and
the next 2^R blocks repeat them shifted by P.  With R = 1 every block is
the one pair's, and P = 4 nu.  Both elements of a block lie inside it, so
n is in A(key) exactly when n + P is: every set is its elements in [1, P]
shifted by the multiples of P, which a ``Tiled`` holds in O(P) memory.
"""

from __future__ import annotations

import csv
from bisect import bisect_right
from itertools import chain


class PairKey:
    """Index pair (l, nu); the gap budget of the set A(l, nu) is nu."""

    __slots__ = ("l", "nu")

    def __init__(self, l: int, nu: int):
        self.l, self.nu = l, nu
        if l < 1 or nu < 1:
            raise ValueError(f"PairKey requires l >= 1 and nu >= 1, got {self}")

    def __repr__(self):
        return f"PairKey(l={self.l!r}, nu={self.nu!r})"

    def __eq__(self, other):
        if type(other) is not PairKey:
            return NotImplemented
        return (self.l, self.nu) == (other.l, other.nu)

    def __hash__(self):
        return hash((self.l, self.nu))

    def __lt__(self, other):  # sorts the duplicates a schedule rejects
        if type(other) is not PairKey:
            return NotImplemented
        return (self.l, self.nu) < (other.l, other.nu)


class PartitionSchedule:
    """Deterministic block schedule for a finite family of PairKeys.

    ``period`` is the P of the module docstring, in closed form; walking to
    it would not pay once P is far past every horizon (P doubles per rank).
    A query walks the blocks only up to min(horizon, P), and ``placed`` is
    the one flattening of all the sets into an ascending (n, pair) sequence.
    """

    def __init__(self, pairs):
        pairs = list(pairs)
        if not pairs:
            raise ValueError("schedule needs at least one pair")
        if len(set(pairs)) != len(pairs):
            dup = sorted(p for p in set(pairs) if pairs.count(p) > 1)
            raise ValueError(f"duplicate pairs in schedule: {dup}")
        self.ranked = sorted(pairs, key=lambda p: (p.l + p.nu, p.l))
        self._rank_of = {p: j for j, p in enumerate(self.ranked)}
        R = len(self.ranked)
        self.period = 4 * pairs[0].nu if R == 1 else 1 + sum(
            2 ** (R - 1 - j) * 4 * p.nu for j, p in enumerate(self.ranked))

    def _blocks(self, stop: int):
        """(start, length, rank or None) of the blocks t = 1, 2, ... that start <= stop."""
        start, t = 1, 1
        while start <= stop:
            rank = 0 if len(self.ranked) == 1 else (t & -t).bit_length() - 1
            if rank >= len(self.ranked):
                rank = None  # a filler block
            length = 1 if rank is None else 4 * self.ranked[rank].nu
            yield start, length, rank
            start, t = start + length, t + 1

    def members(self, key, horizon: int) -> "Tiled":
        """Elements of A(key) in [1, horizon], ascending: those in [1, P], tiled."""
        if key not in self._rank_of:
            raise KeyError(f"pair {key} is not in this schedule")
        rank, nu, stop = self._rank_of[key], key.nu, min(horizon, self.period)
        return Tiled((), [n for start, _, r in self._blocks(stop) if r == rank
                          for n in (start + nu, start + 3 * nu) if n <= stop], self.period, horizon)

    def density_floor(self, key, horizon: int) -> float:
        """running_density_floor of A(key) up to horizon, one period read at each end."""
        return running_density_floor(self.members(key, horizon), horizon)

    def analytic_density(self, key) -> float:
        """Long-run density of A(key): 2^(R - rank) elements per period (2 per
        4 nu when R = 1)."""
        return 2 ** (len(self.ranked) - self._rank_of[key]) / self.period

    def placed(self, horizon: int):
        """[(n, key), ...]: every n of every A(key) in [1, horizon], ascending
        (the sets are disjoint, so each n occurs once)."""
        return sorted((n, key) for key in self.ranked for n in self.members(key, horizon))

    def export_csv(self, path, horizon: int):
        """``placed(horizon)`` as CSV with columns n, l, nu."""
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["n", "l", "nu"])
            w.writerows((n, key.l, key.nu) for n, key in self.placed(horizon))


class Tiled:
    """head, then base shifted by 0, P, 2P, ... and cut at stop, then tail: an
    immutable ascending int sequence that reads as that list (len, indexing,
    slices as lists, iteration, == and repr) in the memory of its parts, kept
    as given.  base spans less than P, so only the last copy can be cut; head
    ends before base starts, and tail starts past the last copy.
    """

    __slots__ = ("head", "base", "period", "stop", "tail", "_middle")

    def __init__(self, head, base, period: int, stop: int, tail=()):
        if base and not 0 <= base[-1] - base[0] < period:
            raise ValueError(f"base {base[0]} .. {base[-1]} spans a period {period}")
        self.head, self.base, self.period, self.stop, self.tail = head, base, period, stop, tail
        full = max(0, (stop - base[-1]) // period + 1) if base else 0  # copies that fit whole
        self._middle = full * len(base) + bisect_right(base, stop - full * period)

    def __len__(self):
        return len(self.head) + self._middle + len(self.tail)

    def _between(self, i: int, j: int) -> list:
        """The elements at indices i <= k < j, for i, j >= 0, as a list."""
        h, m, c, P, base = len(self.head), self._middle, len(self.base), self.period, self.base
        lo, hi = min(max(i - h, 0), m), min(max(j - h, 0), m)  # into the copies
        (q, r), (last, end) = divmod(lo, c or 1), divmod(max(lo, hi), c or 1)  # copy, place
        if q == last:
            copies = [n + q * P for n in base[r:end]]
        else:  # copy q from r on, the whole copies between, and copy last up to end
            copies = [n + q * P for n in base[r:]]
            copies += [n + s for s in range((q + 1) * P, last * P, P) for n in base]
            copies += [n + last * P for n in base[:end]]
        return [*self.head[i:j], *copies, *self.tail[max(i - h - m, 0):max(j - h - m, 0)]]

    def __iter__(self):  # in lists of 4096: the copies are never all built at once
        return chain.from_iterable(self._between(k, k + 4096) for k in range(0, len(self), 4096))

    def __getitem__(self, i):
        k = range(len(self))[i]  # an IndexError, or a range for a slice
        if isinstance(i, slice):
            return self._between(k.start, k.stop) if k.step == 1 else [self[j] for j in k]
        h, m = len(self.head), self._middle
        if h <= k < h + m:
            q, r = divmod(k - h, len(self.base))
            return self.base[r] + q * self.period
        return self.head[k] if k < h else self.tail[k - h - m]

    def __eq__(self, other):
        return list(self) == other if isinstance(other, (list, Tiled)) else NotImplemented

    def __repr__(self):
        return repr(list(self))


def running_density_floor(members, stop: int) -> float:
    """min over n in [max(1, floor(stop/10)), stop] of |members ∩ [1, n]| / n.

    members ascending ints, a ``Tiled`` or a list (read as a Tiled with no
    base).  The one density window, shared by the schedule and the verifier.

    Between members the count is flat and count(n)/n falls, so the minimum
    sits at stop or at m - 1 for a member m in (start, stop], with
    start = max(1, floor(stop/10)), where the count is m's index.  So the
    candidates are last / stop and i / (members[i] - 1) for first <= i < last,
    the indices of the members in the window (a repeated m only adds larger
    candidates).

    The copies of a Tiled sit at [a, b), a = len(head), with c = len(base)
    elements per copy: members[i + c] == members[i] + P for a <= i < b - c.
    Let lo = max(first, a) and hi = min(last, b).  Every i in [lo, hi) lies
    on a chain i0, i0 + c, i0 + 2c, ... in [lo, hi) whose first element is in
    [lo, lo + c) and whose last is in [hi - c, hi).  Along the chain, with
    M = members[i0] - 1 >= 1 (members[i0] > start >= 1), the k-th candidate
    is (i0 + kc) / (M + kP).  As a function of a real k it has the
    derivative (cM - P i0) / (M + kP)^2, of one sign, so it is monotone, and
    int / int is correctly rounded, which keeps it monotone.  Each chain is
    thus smallest at one of its ends, and only the indices in
    [first, lo + c) and [hi - c, last) are read: O(c) and the head and tail,
    at any stop.  With no base, every candidate is read.
    """
    if stop < 1:
        raise ValueError("empty density window")
    t = members if isinstance(members, Tiled) else Tiled(members, (), 1, 0)
    first, last = bisect_right(t, max(1, stop // 10)), bisect_right(t, stop)
    a, c = len(t.head), len(t.base)  # the copies sit at [a, a + t._middle)
    lo, hi = max(first, a), min(last, a + t._middle)
    spans = [(first, lo + c), (hi - c, last)] if lo + c < hi - c else [(first, last)]
    return min([last / stop] + [i / (m - 1) for s, e in spans for i, m in enumerate(t[s:e], s)])


def build_schedule(pairs) -> PartitionSchedule:
    return PartitionSchedule(pairs)
