"""Pairwise-disjoint index sets of positive lower density with gap margins.

The family A(l, nu) is realized by tiling the positive integers with
consecutive blocks.  Each scheduled pair gets a rank j (ascending l+nu,
ties by l) and owns blocks of length 4*max(nu, 1) carrying exactly two
elements, at offsets nu and 3*nu from the block start.  Block t goes to
rank 1 + v2(t) (v2 = 2-adic valuation) when that rank exists; otherwise it
is a length-1 filler with no elements.  A schedule with a single pair
degenerates to consecutive blocks all owned by that pair.

The head/tail margins of nu inside each block make every gap between
elements of A(l, nu) and A(k, mu) at least nu + mu, each element at least
nu, and rank frequencies 2^-j give every set positive lower density.
"""

from __future__ import annotations

import csv
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, order=True)
class PairKey:
    """Index pair (l, nu); the gap budget of the set A(l, nu) is nu."""

    l: int
    nu: int

    def __post_init__(self):
        if self.l < 1 or self.nu < 1:
            raise ValueError(f"PairKey requires l >= 1 and nu >= 1, got {self}")


class PartitionSchedule:
    """Deterministic block schedule for a finite family of pairs.

    Immutable from the caller's perspective; lazy block materialization is
    append-only and should be driven to the maximum horizon before the
    schedule is shared across threads.
    """

    def __init__(self, pairs):
        pairs = [p if isinstance(p, PairKey) else PairKey(*p) for p in pairs]
        if not pairs:
            raise ValueError("schedule needs at least one pair")
        if len(set(pairs)) != len(pairs):
            dup = sorted(p for p in set(pairs) if pairs.count(p) > 1)
            raise ValueError(f"duplicate pairs in schedule: {dup}")
        ranked = sorted(pairs, key=lambda p: (p.l + p.nu, p.l))
        self.ranked = ranked
        self.rho = [p.nu for p in ranked]
        self.block_lengths = [4 * max(r, 1) for r in self.rho]
        self.filler_length = 1
        self._rank_of = {p: j for j, p in enumerate(ranked)}
        self._members = {p: [] for p in ranked}
        self._blocks = []  # (start, length, rank or None)
        self._next_t = 1
        self._next_start = 1

    # -- block materialization -------------------------------------------

    def _rank_for_block(self, t: int):
        if len(self.ranked) == 1:
            return 0
        j = 1
        while t % 2 == 0:
            t //= 2
            j += 1
        return j - 1 if j - 1 < len(self.ranked) else None

    def _extend(self, horizon: int):
        while self._next_start <= horizon:
            rank = self._rank_for_block(self._next_t)
            start = self._next_start
            if rank is None:
                length = self.filler_length
            else:
                length = self.block_lengths[rank]
                rho = self.rho[rank]
                mem = self._members[self.ranked[rank]]
                mem.append(start + rho)
                mem.append(start + 3 * rho)
            self._blocks.append((start, length, rank))
            self._next_start = start + length
            self._next_t += 1

    # -- queries -----------------------------------------------------------

    def members(self, key, horizon: int):
        """Elements of A(key) in [1, horizon], ascending."""
        key = key if isinstance(key, PairKey) else PairKey(*key)
        if key not in self._rank_of:
            raise KeyError(f"pair {key} is not in this schedule")
        if horizon < 1:
            return []
        self._extend(horizon)
        mem = self._members[key]
        return mem[: bisect_right(mem, horizon)]

    def locate(self, n: int):
        """The unique key with n in A(key), or None."""
        if n < 1:
            return None
        self._extend(n)
        i = bisect_right(self._blocks, (n, float("inf"), None)) - 1
        start, length, rank = self._blocks[i]
        if rank is None:
            return None
        rho = self.rho[rank]
        if n in (start + rho, start + 3 * rho):
            return self.ranked[rank]
        return None

    def density_floor(self, key, window_start: int, horizon: int) -> float:
        """min over n in [window_start, horizon] of |A(key) ∩ [1, n]| / n."""
        if not window_start < horizon:
            raise ValueError("window_start must be < horizon")
        return running_density_floor(self.members(key, horizon), max(window_start, 1), horizon)

    def analytic_density(self, key) -> float:
        """Long-run density of A(key) under the block construction."""
        key = key if isinstance(key, PairKey) else PairKey(*key)
        j = self._rank_of[key]
        nranks = len(self.ranked)
        if nranks == 1:
            return 2.0 / self.block_lengths[0]
        freq = [2.0 ** -(i + 1) for i in range(nranks)]
        filler_freq = 2.0 ** -nranks
        avg_len = sum(f * L for f, L in zip(freq, self.block_lengths))
        avg_len += filler_freq * self.filler_length
        return 2.0 * freq[j] / avg_len

    def export_csv(self, path, horizon: int):
        """Member list over [1, horizon] as CSV with columns n, l, nu."""
        rows = []
        for key in self.ranked:
            for n in self.members(key, horizon):
                rows.append((n, key.l, key.nu))
        rows.sort()
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["n", "l", "nu"])
            w.writerows(rows)


def running_density_floor(members, start: int, stop: int) -> float:
    """min over n in [start, stop] of |members ∩ [1, n]| / n, members ascending, start >= 1."""
    ns = np.arange(start, stop + 1, dtype=np.int64)
    counts = np.searchsorted(np.asarray(members, dtype=np.int64), ns, side="right")
    return float(np.min(counts / ns))


def build_schedule(pairs) -> PartitionSchedule:
    return PartitionSchedule(pairs)
