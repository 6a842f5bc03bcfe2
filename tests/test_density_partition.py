"""Disjoint visit-set schedules with positive lower density."""

import csv
import io
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fhclab.density_partition import PairKey, build_schedule, running_density_floor


class TestSinglePair:
    def test_members_on_small_window(self):
        sched = build_schedule([PairKey(1, 2)])
        assert sched.members(PairKey(1, 2), 16) == [3, 7, 11, 15]

    def test_elements_not_below_nu(self):
        sched = build_schedule([PairKey(1, 5)])
        mem = sched.members(PairKey(1, 5), 500)
        assert mem and min(mem) >= 5

    def test_internal_gaps_at_least_two_nu(self):
        sched = build_schedule([PairKey(1, 3)])
        mem = sched.members(PairKey(1, 3), 1000)
        gaps = [b - a for a, b in zip(mem, mem[1:])]
        assert min(gaps) >= 2 * 3

    def test_analytic_density(self):
        sched = build_schedule([PairKey(1, 2)])
        assert sched.analytic_density(PairKey(1, 2)) == pytest.approx(0.25)

    def test_density_floor_matches_frozen_value(self):
        sched = build_schedule([PairKey(1, 2)])
        floor = sched.density_floor(PairKey(1, 2), 10_000)
        assert floor == pytest.approx(0.25, abs=0.01)


class TestTwoPairs:
    def setup_method(self):
        self.sched = build_schedule([PairKey(1, 1), PairKey(1, 2)])

    def test_members_on_small_window(self):
        assert self.sched.members(PairKey(1, 1), 21) == [2, 4, 14, 16, 19, 21]
        assert self.sched.members(PairKey(1, 2), 21) == [7, 11]

    def test_disjoint(self):
        a = set(self.sched.members(PairKey(1, 1), 5000))
        b = set(self.sched.members(PairKey(1, 2), 5000))
        assert not a & b

    def test_cross_gaps_at_least_sum_of_nus(self):
        a = self.sched.members(PairKey(1, 1), 2000)
        b = self.sched.members(PairKey(1, 2), 2000)
        assert min(abs(x - y) for x in a for y in b) >= 1 + 2

    def test_primary_pair_density(self):
        floor = self.sched.density_floor(PairKey(1, 1), 10_000)
        assert floor == pytest.approx(0.235, abs=0.01)


class TestValidation:
    def test_duplicate_pairs_rejected(self):
        with pytest.raises(ValueError):
            build_schedule([PairKey(1, 1), PairKey(1, 1)])

    def test_nonpositive_indices_rejected(self):
        with pytest.raises(ValueError):
            PairKey(0, 1)
        with pytest.raises(ValueError):
            PairKey(1, 0)


@settings(max_examples=25, deadline=None)
@given(st.lists(
    st.tuples(st.integers(1, 4), st.integers(1, 4)),
    min_size=1, max_size=5, unique=True,
))
def test_schedule_invariants_hold_generically(pairs):
    keys = [PairKey(l, nu) for l, nu in pairs]
    sched = build_schedule(keys)
    horizon = 4000
    members = {k: sched.members(k, horizon) for k in keys}
    seen = {}
    for k, mem in members.items():
        for n in mem:
            assert n >= k.nu
            assert n not in seen, "sets must be pairwise disjoint"
            seen[n] = k
    # pairwise gap lower bound nu_1 + nu_2 (quadratic sweep, small horizon)
    for i, k1 in enumerate(keys):
        for k2 in keys[i:]:
            lo = k1.nu + k2.nu
            for x in members[k1]:
                for y in members[k2]:
                    if x != y:
                        assert abs(x - y) >= lo
    # every requested set eventually populated
    for k, mem in members.items():
        assert mem, f"{k} received no elements below {horizon}"


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 6), st.integers(1, 9)), min_size=1, max_size=6,
                unique=True),
       st.integers(1, 600))
def test_placed_is_every_member_in_ascending_order(pairs, horizon):
    keys = [PairKey(l, nu) for l, nu in pairs]
    sched = build_schedule(keys)
    placed = sched.placed(horizon)
    ns = [n for n, _ in placed]
    assert all(a < b for a, b in zip(ns, ns[1:]))
    for key in keys:
        assert [n for n, k in placed if k == key] == sched.members(key, horizon)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "partition.csv")
        sched.export_csv(path, horizon)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    assert rows == [["n", "l", "nu"]] + [[str(n), str(k.l), str(k.nu)] for n, k in placed]


def walked_members(pairs, key, horizon):
    """Oracle: A(key) in [1, horizon] as the schedule first found it, walking every
    block from block 1 (block t to rank v2(t), a length-1 filler past the last rank)."""
    ranked = sorted(pairs, key=lambda p: (p.l + p.nu, p.l))
    out, start, t = [], 1, 1
    while start <= horizon:
        rank = 0 if len(ranked) == 1 else (t & -t).bit_length() - 1
        if rank < len(ranked):
            if ranked[rank] == key:
                out += [n for n in (start + key.nu, start + 3 * key.nu) if n <= horizon]
            start += 4 * ranked[rank].nu
        else:
            start += 1
        t += 1
    return out


def former_analytic_density(pairs, key):
    """Oracle: the long-run density as first written, from rank frequencies 2^-(j+1)
    and the mean block length, fillers included."""
    ranked = sorted(pairs, key=lambda p: (p.l + p.nu, p.l))
    lengths = [4 * p.nu for p in ranked]
    if len(lengths) == 1:
        return 2.0 / lengths[0]
    freq = [2.0 ** -(i + 1) for i in range(len(lengths))]
    avg_len = sum(f * L for f, L in zip(freq, lengths)) + 2.0 ** -len(lengths)
    return 2.0 * freq[ranked.index(key)] / avg_len


# R = 1 to 6 ranks, each as likely: a single pair (period 4 nu) is its own layout
schedules = st.integers(1, 6).flatmap(lambda R: st.lists(
    st.tuples(st.integers(1, 6), st.integers(1, 9)), min_size=R, max_size=R, unique=True)).map(
    lambda pairs: [PairKey(l, nu) for l, nu in pairs])


@settings(max_examples=60, deadline=None)
@given(schedules, st.sampled_from(["below", "at", "above", "turns"]), st.data())
def test_tiled_sets_equal_the_block_walk(keys, where, data):
    sched = build_schedule(keys)
    P = sched.period
    horizon = {"below": data.draw(st.integers(1, P - 1)), "at": P,
               "above": P + data.draw(st.integers(1, P)),
               "turns": data.draw(st.integers(2, 4)) * P + data.draw(st.integers(0, P - 1))
               }[where]
    walked = {key: walked_members(keys, key, horizon) for key in keys}
    for key in keys:
        assert sched.members(key, horizon) == walked[key]
    placed = sorted((n, key) for key in keys for n in walked[key])
    assert sched.placed(horizon) == placed
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "partition.csv")
        sched.export_csv(path, horizon)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    assert rows == [["n", "l", "nu"]] + [[str(n), str(k.l), str(k.nu)] for n, k in placed]


@settings(max_examples=60, deadline=None)
@given(schedules)
def test_every_set_repeats_with_the_period(keys):
    sched = build_schedule(keys)
    P = sched.period
    # one turn of the block pattern: 2^R blocks (R > 1), or one block (R = 1)
    turn = 1 if len(keys) == 1 else 2 ** len(keys)
    starts = [1]
    for t in range(1, turn + 1):
        rank = 0 if len(keys) == 1 else (t & -t).bit_length() - 1
        starts.append(starts[-1] + (4 * sched.ranked[rank].nu if rank < len(keys) else 1))
    assert starts[-1] - 1 == P
    for key in keys:
        members = set(walked_members(keys, key, 3 * P))
        assert all((j in members) == (j + P in members) for j in range(1, 2 * P + 1))
        assert repr(sched.analytic_density(key)) == repr(former_analytic_density(keys, key))


def test_csv_export_schema(tmp_path):
    sched = build_schedule([PairKey(1, 2)])
    path = tmp_path / "partition.csv"
    sched.export_csv(path, 16)
    rows = list(csv.DictReader(io.StringIO(path.read_text())))
    assert [r["n"] for r in rows] == ["3", "7", "11", "15"]
    assert {r["l"] for r in rows} == {"1"} and {r["nu"] for r in rows} == {"2"}


def numpy_density_floor(members, stop):
    """Oracle: the window minimum as first written, every n of the window counted."""
    ns = np.arange(max(1, stop // 10), stop + 1, dtype=np.int64)
    counts = np.searchsorted(np.asarray(members, dtype=np.int64), ns, side="right")
    return float(np.min(counts / ns))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-3, 600), max_size=80), st.integers(1, 500))
def test_density_floor_matches_numpy_oracle(members, stop):
    # repeated members and members outside the window included
    members = sorted(members)
    assert repr(running_density_floor(members, stop)) == repr(numpy_density_floor(members, stop))
