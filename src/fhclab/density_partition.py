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
shifted by the multiples of P.
"""

from __future__ import annotations

import csv
from bisect import bisect_right
from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class PairKey:
    """Index pair (l, nu); the gap budget of the set A(l, nu) is nu."""

    l: int
    nu: int

    def __post_init__(self):
        if self.l < 1 or self.nu < 1:
            raise ValueError(f"PairKey requires l >= 1 and nu >= 1, got {self}")


class PartitionSchedule:
    """Deterministic block schedule for a finite family of PairKeys.

    ``period`` is the P of the module docstring, in closed form; walking to
    it would not pay once P is far past every horizon (P doubles per rank).
    A query walks the blocks from block 1 only up to min(horizon, P) and
    tiles the rest.  ``placed`` is the one flattening of all the sets into an
    ascending (n, pair) sequence.
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

    def members(self, key, horizon: int):
        """Elements of A(key) in [1, horizon], ascending."""
        if key not in self._rank_of:
            raise KeyError(f"pair {key} is not in this schedule")
        rank, nu, stop = self._rank_of[key], key.nu, min(horizon, self.period)
        return tile([n for start, _, r in self._blocks(stop) if r == rank
                     for n in (start + nu, start + 3 * nu) if n <= stop], self.period, horizon)

    def density_floor(self, key, horizon: int) -> float:
        """running_density_floor of A(key) up to horizon."""
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


def tile(base, period: int, stop: int):
    """[n + k * period <= stop for k = 0, 1, ... for n in base], ascending.

    base is ascending and spans less than one period, so each copy starts
    after the one before ends: the copies whose last element fits are whole,
    the next is cut at stop, and every later one starts past stop.
    """
    if not base:
        return []
    full = max(0, (stop - base[-1]) // period + 1)  # copies that fit whole
    last = full * period
    return ([n + s for s in range(0, last, period) for n in base]
            + [n + last for n in base if n + last <= stop])


def running_density_floor(members, stop: int) -> float:
    """min over n in [max(1, floor(stop/10)), stop] of |members ∩ [1, n]| / n.

    members ascending.  The one density window, shared by the schedule and
    the verifier.
    """
    if stop < 1:
        raise ValueError("empty density window")
    # between members the count is flat and count(n)/n falls, so the minimum
    # sits at stop or at m - 1 for a member m in (start, stop], where the
    # count is m's index (a repeated m only adds larger candidates)
    first, last = bisect_right(members, max(1, stop // 10)), bisect_right(members, stop)
    return min([last / stop] + [i / (members[i] - 1) for i in range(first, last)])


def build_schedule(pairs) -> PartitionSchedule:
    return PartitionSchedule(pairs)
