"""Visit statistics, density floors, report schema, continuous measure."""

import functools
import json
import math
import os
import sys
import tracemalloc
import types
from bisect import bisect_left, bisect_right
from fractions import Fraction

import pytest
from hypothesis import event, given, settings, strategies as st

from fhclab import constructor, operators, regularized_semigroup, spaces, verifier
from fhclab.cli import build_placements, load_config
from fhclab.constructor import (
    assign_placements,
    orbit_eval,
    orbit_window,
    orbit_windows,
    proximity_bound,
)
from fhclab.criterion import compute_thresholds
from fhclab.density_partition import PairKey, Tiled, build_schedule
from fhclab.operators import (
    Differentiation,
    TranslationGenerator,
    WeightedBackwardShift,
    make_certificate,
    transform_power,
    transform_rotation,
)
from fhclab.regularized_semigroup import SolutionOrbit, w_apply
from fhclab.spaces import C0_SEQ, HARDY, L2, CkModel, PiecewiseLinearFn, SequenceSpace, distance
from fhclab.verifier import (
    OrbitReport,
    continuity_window,
    continuous_visits,
    density_proxy,
    discrete_report,
    report_export,
    report_import,
    reports_to_csv_text,
)

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "golden_report.csv")
REPO_CONFIG = os.path.join(os.path.dirname(__file__), "..", "configs", "shift_w2.cfg")


def shift_placement(L=2, horizon=400):
    cert = make_certificate(WeightedBackwardShift(2, L2), L)
    return assign_placements(compute_thresholds(cert), horizon)


def schedule_of(p):
    """The partition schedule that assign_placements placed the targets on."""
    return build_schedule([PairKey(l, N) for l, N in p.tail_certificate.pairs()])


class TestDensityProxy:
    def test_full_set_has_density_one(self):
        assert density_proxy(list(range(1, 101)), 100) == pytest.approx(1.0)

    def test_arithmetic_progression(self):
        visits = list(range(4, 1001, 4))
        assert density_proxy(visits, 1000) == pytest.approx(0.25, abs=0.02)

    def test_minimum_over_window(self):
        # all visits late: the early part of the window drags the floor down
        visits = list(range(500, 1001))
        assert density_proxy(visits, 1000) == 0.0


    def test_a_declared_list_is_read_in_place(self):
        # no list is built: the floor reads the two copies at the window's ends
        visits = counting_parts(Tiled([], [3, 5], 10, 10_000))
        floor = density_proxy(visits, 10_000)
        assert parts_read(visits) < 50
        assert floor.hex() == density_proxy(list(visits), 10_000).hex()

    def test_bench_sized_floors_read_one_period(self, monkeypatch):
        cfg = load_config(REPO_CONFIG)
        cfg["run"]["horizon"] = N = 40_000
        p = build_placements(cfg)
        eps = {l: cfg["run"]["radius_factor"] * proximity_bound(l) for l in range(1, 6)}
        real, lists = verifier.density_proxy, []

        def counted(visits, *args):
            lists.append(counting_parts(visits))
            return real(lists[-1], *args)

        monkeypatch.setattr(verifier, "density_proxy", counted)
        reports = discrete_report(p, eps, N)
        head, hi = tiled_span(p, N)
        assert head <= hi and len(lists) == len(reports) == 5
        for rep, visits in zip(reports, lists):
            v = rep.visit_times
            a, b = bisect_left(v, head - p.period), bisect_right(v, hi)
            c = bisect_left(v, head) - a  # the head's last period, which the middle repeats
            # two bisections add the rest
            assert parts_read(visits) <= 2 * c + a + (len(v) - b) + 2 * len(v).bit_length() + 4
            assert rep.density_floor.hex() == density_proxy(list(v), N).hex()
        assert sum(map(len, lists)) > 75_000 > 10 * sum(map(parts_read, lists))


def counting_parts(t):
    """t with each of its head, base and tail in a ReadCounter that counts the
    reads after the Tiled is built."""
    counted = Tiled(ReadCounter(t.head), ReadCounter(t.base), t.period, t.stop,
                    ReadCounter(t.tail))
    counted.head.reads = counted.base.reads = counted.tail.reads = 0
    return counted


def parts_read(t):
    return t.head.reads + t.base.reads + t.tail.reads


class ReadCounter(list):
    """A list that counts the elements read from it, by index, slice or iteration."""

    def __init__(self, items):
        super().__init__(items)
        self.reads = 0

    def __getitem__(self, i):
        got = super().__getitem__(i)
        self.reads += len(got) if isinstance(i, slice) else 1
        return got

    def __iter__(self):
        for x in super().__iter__():
            self.reads += 1
            yield x


class TestDiscreteVisits:
    def setup_method(self):
        self.p = shift_placement()

    def test_scheduled_times_are_visits(self):
        rep = discrete_report(self.p, {1: 1.2 * proximity_bound(1)}, 200)[0]
        assert rep.covering_set_check
        sched = schedule_of(self.p)
        assert set(sched.members(sched.ranked[0], 200)) <= set(rep.visit_times)

    def test_vacuous_flag_for_tiny_radius(self):
        rep = discrete_report(self.p, {1: 1e-9}, 200)[0]
        assert rep.guarantee_vacuous

    def test_informative_radius_not_vacuous(self):
        rep = discrete_report(self.p, {1: 1.2 * proximity_bound(1)}, 200)[0]
        assert not rep.guarantee_vacuous

    def test_batch_report_matches_single(self):
        eps = {1: 1.2 * proximity_bound(1), 2: 1.2 * proximity_bound(2)}
        batch = discrete_report(self.p, eps, 200)
        for rep in batch:
            single = discrete_report(self.p, {rep.l: eps[rep.l]}, 200)[0]
            assert single.visit_times == rep.visit_times
            assert single.density_floor == rep.density_floor

    def test_horizon_beyond_placement_rejected(self):
        with pytest.raises(ValueError):
            discrete_report(self.p, {1: 1.0}, self.p.horizon + 1)


def revisit_worst(p, l, N):
    """Oracle: re-evaluate every scheduled n <= N of A(l, N_l) on its own."""
    key = PairKey(l, p.tail_certificate.threshold(l))
    scheduled = schedule_of(p).members(key, N)
    worst = 0.0
    for n in scheduled:
        vec, err = orbit_eval(p, n)
        worst = max(worst, distance(vec, p.cert.target(l)) + err)
    return scheduled, worst


class TestWorstScheduled:
    @pytest.mark.parametrize("cert, horizon", [
        (make_certificate(WeightedBackwardShift(2, L2), 2), 400),
        (transform_rotation(make_certificate(WeightedBackwardShift(2, L2), 3), -1), 1000),
        (transform_power(make_certificate(WeightedBackwardShift(2, L2), 3), 2), 1000),
    ], ids=["shift-L2", "rotated", "powered"])
    def test_equals_revisit_loop(self, cert, horizon):
        p = assign_placements(compute_thresholds(cert), horizon)
        N = horizon // 2
        eps = {l: 1.2 * proximity_bound(l) for l in range(1, cert.target_count + 1)}
        for rep in discrete_report(p, eps, N):
            scheduled, worst = revisit_worst(p, rep.l, N)
            assert scheduled
            assert rep.worst_scheduled == worst
            assert rep.worst_scheduled <= rep.proof_bound
            assert rep.covering_set_check == (set(scheduled) <= set(rep.visit_times))

    def test_covering_check_at_the_boundary(self):
        # a radius equal to the worst scheduled distance leaves that n unvisited
        p = shift_placement()
        for l in (1, 2):
            scheduled, worst = revisit_worst(p, l, 200)
            for eps, covered in ((worst, False), (math.nextafter(worst, math.inf), True)):
                rep = discrete_report(p, {l: eps}, 200)[0]
                assert rep.covering_set_check is covered
                assert (set(scheduled) <= set(rep.visit_times)) is covered

    def test_zero_without_scheduled_times(self):
        p = shift_placement()
        first = min(schedule_of(p).members(PairKey(2, p.tail_certificate.threshold(2)), 200))
        rep = discrete_report(p, {2: 1.2 * proximity_bound(2)}, first - 1)[0]
        assert rep.worst_scheduled == 0.0 and rep.covering_set_check


def per_n_report(p, epsilons, N):
    """Oracle: ``discrete_report`` as it was, evaluating the orbit at every n."""
    if N > p.horizon:
        raise ValueError("N must not exceed the placement horizon")
    ls = sorted(epsilons)
    targets = {l: p.cert.target(l) for l in ls}
    visits = {l: [] for l in ls}
    worst = dict.fromkeys(ls, 0.0)
    max_err = 0.0
    placed = dict(zip(p.placed_ns, p.placed_ls))
    for n in range(1, N + 1):
        vec, err = orbit_eval(p, n)
        max_err = max(max_err, err)
        scheduled = placed.get(n)
        for l in ls:
            d = distance(vec, targets[l]) + err
            if d < epsilons[l]:
                visits[l].append(n)
            if l == scheduled:
                worst[l] = max(worst[l], d)
    reports = []
    for l in ls:
        bound = proximity_bound(l)
        reports.append(OrbitReport(
            l=l,
            epsilon=epsilons[l],
            horizon=N,
            visit_times=visits[l],
            density_floor=density_proxy(visits[l], N) if visits[l] else 0.0,
            covering_set_check=worst[l] < epsilons[l],
            proof_bound=bound,
            certified_error=max_err,
            worst_scheduled=worst[l],
            guarantee_vacuous=not epsilons[l] > bound + max_err,
        ))
    return reports


def interleaved_visits(orbit, epsilons, t_max, grid_step):
    """Oracle: ``continuous_visits`` as it was, the integer checks interleaved
    with the cells by hand and the last integer point kept in a one-entry cache."""
    p = orbit.placement
    op = p.cert.op
    lam = float(op.lam)
    ls = sorted(epsilons)
    targets = {l: p.cert.target(l) for l in ls}
    delta = {l: continuity_window(targets[l], epsilons[l], lam) for l in ls}
    last = [None, None, None]  # (n, orbit point, certified error)

    def evaluate(t):
        n = int(math.floor(t))
        s = t - n
        if last[0] != n:
            last[:] = [n, *orbit_eval(p, n)]
        _, vec, err = last
        if s == 0:
            return vec, err
        return w_apply(op, s, vec), err * math.exp(float(op.lam) * float(s))

    n_cells = int(math.ceil(t_max / grid_step))
    n_ints = {l: int(math.floor(t_max - delta[l])) + 1 if delta[l] > 0 else 0 for l in ls}
    n_end = max(n_ints.values(), default=0)
    cells = {l: [] for l in ls}
    windows = {l: [] for l in ls}
    outer_measure = dict.fromkeys(ls, 0.0)

    def integer_visit(n):
        vec, err = evaluate(float(n))
        for l in ls:
            if n < n_ints[l] and distance(vec, targets[l]) + err < epsilons[l] / 2.0:
                windows[l].append((float(n), float(n) + delta[l]))

    n = 0
    for i in range(n_cells):
        t0 = i * grid_step
        if t0 >= t_max:
            break
        while n < n_end and n <= t0:
            integer_visit(n)
            n += 1
        t1 = min(t_max, t0 + grid_step)
        vec, err = evaluate(t0)
        lip = orbit.lipschitz_bound(t0, t1)
        for l in ls:
            d = distance(vec, targets[l])
            if d + err + lip * (t1 - t0) < epsilons[l]:
                cells[l].append((t0, t1))
            if d - err - lip * (t1 - t0) < epsilons[l]:
                outer_measure[l] += t1 - t0
    for n in range(n, n_end):
        integer_visit(n)

    reports = []
    for l in ls:
        inner_intervals = cells[l] + windows[l]
        inner = verifier._union_measure(inner_intervals)
        visits = sorted(set(int(t) for t, _ in inner_intervals))
        reports.append(OrbitReport(
            l=l,
            epsilon=epsilons[l],
            horizon=t_max,
            visit_times=visits,
            density_floor=inner / t_max if t_max > 0 else 0.0,
            covering_set_check=inner >= delta[l] * len(visits),
            proof_bound=delta[l] * len(windows[l]),
            certified_error=0.0,
            mode="continuous",
            inner_measure=inner,
            outer_measure=outer_measure[l],
            continuity_window=delta[l],
        ))
    return reports


@functools.cache
def translation_orbit(lam, L, exact):
    """The solution orbit of a translation run, placed to twice the largest horizon drawn."""
    cert = make_certificate(TranslationGenerator(lam), L, exact=exact)
    return SolutionOrbit(assign_placements(compute_thresholds(cert), 240))


@st.composite
def continuous_sweeps(draw):
    """(orbit, epsilons, t_max, grid_step); grid 2.5 leaves integers after the last cell,
    grid 0.7 rounds 21 / 0.7 and 84 / 0.7 up."""
    L = draw(st.integers(1, 2))
    orbit = translation_orbit(draw(st.sampled_from([1, Fraction(1, 2)])), L, draw(st.booleans()))
    eps = {l: draw(st.sampled_from([1.2 * proximity_bound(l), proximity_bound(l) / 2]))
           for l in range(1, L + 1)}
    return (orbit, eps, float(draw(st.integers(20, 120))),
            draw(st.sampled_from([0.05, 0.1, 0.3, 0.7, 1.0, 2.5])))


OPERATORS = {
    "shift-l1": WeightedBackwardShift(2, SequenceSpace(1.0)),
    "shift-l2": WeightedBackwardShift(2, L2),
    # N_1 = 1: a single pair's period 4 ends on a placement, so the tiling must not
    # start before n - period - forward_window >= 1
    "shift-w4": WeightedBackwardShift(4, L2),
    "shift-c0": WeightedBackwardShift(2, C0_SEQ),
    "hardy": Differentiation(HARDY),
    "ck1": Differentiation(CkModel(1, 0.0, 1.0)),
    # piecewise-linear points: the sweep hands distance their suffix peaks
    "translation": TranslationGenerator(1),
}


@functools.cache
def placement(family, twist, power, L, horizon):
    cert = make_certificate(OPERATORS[family], L)
    cert = transform_power(transform_rotation(cert, twist), power)
    return assign_placements(compute_thresholds(cert), horizon)


@st.composite
def sweeps(draw):
    """(placement, epsilons, N) with N up to the horizon, where windows shrink."""
    family = draw(st.sampled_from(sorted(OPERATORS)))
    L = draw(st.integers(1, 3))
    p = placement(family, draw(st.sampled_from([1, -1])), draw(st.integers(1, 2)), L,
                  draw(st.integers(60, 160)))
    ls = draw(st.lists(st.integers(1, L), min_size=1, max_size=L, unique=True))
    eps = {l: draw(st.sampled_from([1.2 * proximity_bound(l), proximity_bound(l) / 8]))
           for l in ls}
    N = draw(st.integers(1, p.horizon) | st.integers(p.horizon - 10, p.horizon))
    return p, eps, N


def tiled_span(p, N):
    """(head, hi): ``discrete_report`` tiles the n in [head, hi] when head <= hi."""
    return p.forward_window + p.period + 1, min(N, p.horizon - p.backward_window)


def count_keys(monkeypatch):
    """Counts, per ``orbit_windows`` call of the verifier, the keys it yields."""
    counted = []

    def counting(p, start, stop):
        counted.append(0)
        for key in orbit_windows(p, start, stop):
            counted[-1] += 1
            yield key

    monkeypatch.setattr(verifier, "orbit_windows", counting)
    return counted


@st.composite
def tiled_sweeps(draw):
    """(placement, epsilons, N) where the sweep tiles a middle: a horizon at least
    head + period + backward window, and N anywhere from head to the horizon."""
    family = draw(st.sampled_from(sorted(OPERATORS)))
    L = draw(st.integers(1, 2))
    twist, power = draw(st.sampled_from([1, -1])), draw(st.integers(1, 2))
    q = placement(family, twist, power, L, 160)  # period and windows are the horizon's too
    head = q.forward_window + q.period + 1
    least = head + q.period + q.backward_window
    p = placement(family, twist, power, L, draw(st.integers(least, least + 2 * q.period)))
    ls = draw(st.lists(st.integers(1, L), min_size=1, max_size=L, unique=True))
    eps = {l: draw(st.sampled_from([1.2 * proximity_bound(l), proximity_bound(l) / 8]))
           for l in ls}
    N = draw(st.integers(head, p.horizon) | st.just(p.horizon))
    return p, eps, N


class TestWindowSweep:
    @settings(max_examples=60, deadline=None)
    @given(sweeps())
    def test_equals_the_per_n_sweep(self, case):
        p, eps, N = case
        head, hi = tiled_span(p, N)
        event("tiled" if head <= hi else "one key loop")
        got, want = discrete_report(p, eps, N), per_n_report(p, eps, N)
        assert [repr(r) for r in got] == [repr(r) for r in want]

    @settings(max_examples=40, deadline=None)
    @given(tiled_sweeps())
    def test_tiled_middle_equals_the_per_n_sweep(self, case):
        p, eps, N = case
        head, hi = tiled_span(p, N)
        assert head <= hi
        got, want = discrete_report(p, eps, N), per_n_report(p, eps, N)
        assert [repr(r) for r in got] == [repr(r) for r in want]

    @pytest.mark.parametrize("family", ["translation", "shift-l2"])
    def test_suffix_peaks_are_built_once_per_new_key(self, family, monkeypatch):
        p = placement(family, 1, 1, 2, 160)
        keys, built = [], []
        monkeypatch.setattr(verifier, "orbit_windows",
                            lambda *a: (keys.append(k) or k for k in orbit_windows(*a)))
        monkeypatch.setattr(verifier, "suffix_peaks",
                            lambda vec: built.append(vec) or spaces.suffix_peaks(vec))
        eps = {l: 1.2 * proximity_bound(l) for l in (1, 2)}
        got = discrete_report(p, eps, p.horizon)
        assert len(built) == len(set(keys)) < len(keys)
        assert [repr(r) for r in got] == [repr(r) for r in per_n_report(p, eps, p.horizon)]

    def test_tiled_middle_and_the_shrinking_tail(self):
        p = placement("shift-l2", 1, 1, 2, 160)
        head, hi = tiled_span(p, p.horizon)
        assert head + p.period <= hi < p.horizon  # windows shrink past hi
        eps = {1: 1.2 * proximity_bound(1), 2: proximity_bound(2) / 8}
        got, want = discrete_report(p, eps, p.horizon), per_n_report(p, eps, p.horizon)
        assert [repr(r) for r in got] == [repr(r) for r in want]

    def test_period_past_the_horizon_sweeps_every_n(self, monkeypatch):
        p = shift_placement(L=5, horizon=200)
        assert p.period > p.horizon
        counted = count_keys(monkeypatch)
        eps = {l: 1.2 * proximity_bound(l) for l in range(1, 6)}
        got, want = discrete_report(p, eps, 150), per_n_report(p, eps, 150)
        assert [repr(r) for r in got] == [repr(r) for r in want]
        assert counted == [150]

    def test_bench_sized_sweep_reads_one_period_of_keys(self, monkeypatch):
        cfg = load_config(REPO_CONFIG)
        cfg["run"]["horizon"] = N = 40_000
        p = build_placements(cfg)
        eps = {l: cfg["run"]["radius_factor"] * proximity_bound(l) for l in range(1, 6)}
        counted = count_keys(monkeypatch)
        got = discrete_report(p, eps, N)
        head, hi = tiled_span(p, N)
        assert head <= hi and sum(counted) == p.forward_window + p.period + (N - hi) < N / 50
        # the same sweep with a period past the horizon runs the key loop over every n
        counted.clear()
        untiled = discrete_report(p._replace(period=2 * p.horizon), eps, N)
        assert counted == [N]
        assert [repr(r) for r in got] == [repr(r) for r in untiled]

    def test_long_horizon_reports_keep_one_period(self):
        # shift w = 2, 3 targets, horizon 10^6: 1.88 M visits, held as each list's
        # swept head, one period and its tail (a built list of them took 72 MB)
        cfg = load_config(REPO_CONFIG)
        cfg["run"]["targets"] = 3
        cfg["run"]["horizon"] = N = 10**6
        p = build_placements(cfg)
        eps = {l: cfg["run"]["radius_factor"] * proximity_bound(l) for l in range(1, 4)}
        tracemalloc.start()
        try:
            reports = discrete_report(p, eps, N)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(len(r.visit_times) for r in reports) > 1_880_000
        assert peak < 2**20

    def test_near_the_horizon_windows_shrink(self):
        p = placement("shift-l2", 1, 1, 3, 100)
        assert p.backward_window < 100
        assert orbit_window(p, 100)[0] == 0 < orbit_window(p, 99)[0] < p.backward_window

    def test_shift_w2_config_evaluates_107_windows(self, monkeypatch):
        cfg = load_config(REPO_CONFIG)
        p = build_placements(cfg)
        calls = []

        def counted(placement, n):
            calls.append(n)
            return orbit_eval(placement, n)

        monkeypatch.setattr(verifier, "orbit_eval", counted)
        eps = {l: cfg["run"]["radius_factor"] * proximity_bound(l) for l in range(1, 6)}
        discrete_report(p, eps, cfg["run"]["horizon"])
        assert len(calls) == 107


    def test_shift_w2_config_reads_107_one_point_windows(self, monkeypatch):
        # the sweep slides its windows; the one-point window is read only by
        # orbit_parts, once per distinct window (a per-n lookup would add one
        # per swept n: 322 of the 1,000, the rest are tiled)
        cfg = load_config(REPO_CONFIG)
        p = build_placements(cfg)
        callers = []
        real = constructor.orbit_window

        def counted(placement, n):
            callers.append(sys._getframe(1).f_code.co_name)
            return real(placement, n)

        monkeypatch.setattr(constructor, "orbit_window", counted)
        monkeypatch.setattr(verifier, "orbit_window", counted, raising=False)
        eps = {l: cfg["run"]["radius_factor"] * proximity_bound(l) for l in range(1, 6)}
        discrete_report(p, eps, cfg["run"]["horizon"])
        assert callers == ["orbit_parts"] * 107


def window_as_pairs(p, n):
    """Oracle: orbit point n's window as the per-n lookup built it, (W, ((j - n, l_j), ...))."""
    W = min(p.backward_window, p.horizon - n)
    ns = p.placed_ns
    lo, hi = bisect_left(ns, n - p.forward_window), bisect_right(ns, n + W)
    return W, tuple((ns[i] - n, p.placed_ls[i]) for i in range(lo, hi))


class TestSlidingWindows:
    def check(self, p, start, stop):
        keys = list(orbit_windows(p, start, stop))
        assert keys == [orbit_window(p, n) for n in range(start, stop)]
        # the key is the window: (W, its offsets j - n, their targets l_j)
        windows = [window_as_pairs(p, n) for n in range(start, stop)]
        assert keys == [(W, tuple(d for d, _ in pairs), tuple(l for _, l in pairs))
                        for W, pairs in windows]
        return keys

    @settings(max_examples=60, deadline=None)
    @given(sweeps(), st.data())
    def test_equals_the_one_point_keys(self, case, data):
        p = case[0]
        start = data.draw(st.integers(0, p.horizon + 1))
        self.check(p, start, data.draw(st.integers(start, p.horizon + 1)))

    def test_covers_the_horizon_short_and_empty_windows(self):
        p = placement("ck1", 1, 1, 3, 160)
        keys = self.check(p, 0, p.horizon + 1)
        assert keys[-1][0] == 0  # n = horizon
        assert any(0 < key[0] < p.backward_window for key in keys)
        assert any(key[1] == key[2] == () for key in keys)

    @pytest.mark.parametrize("op", [WeightedBackwardShift(2, L2),
                                    Differentiation(CkModel(1, 0.0, 1.0)),
                                    TranslationGenerator(1)], ids=["shift", "ck1", "translation"])
    def test_offset_zero_is_the_target_placed_at_n(self, op):
        # discrete_report reads the scheduled target from the key alone
        tc = compute_thresholds(make_certificate(op, 2))
        P = assign_placements(tc, max(N for _, N in tc.pairs())).period
        for horizon in (P - 1, P, P + 1, 3 * P + 2):
            p = assign_placements(tc, horizon)
            placed = dict(zip(p.placed_ns, p.placed_ls))
            assert placed
            for n, (_, offsets, targets) in enumerate(orbit_windows(p, 1, horizon + 1), 1):
                at_zero = targets[offsets.index(0)] if 0 in offsets else None
                assert at_zero == placed.get(n)

    @pytest.mark.parametrize("start, stop", [(-1, 5), (5, 4), (0, 402)])
    def test_range_outside_the_horizon_rejected(self, start, stop):
        with pytest.raises(ValueError):
            next(orbit_windows(shift_placement(), start, stop))


@st.composite
def tiled_visits(draw):
    """A Tiled of ints up to about +-2^80: head and tail of any length, an empty
    or a nonempty base, 0, 1, 2 or several whole copies, the last one cut or not."""
    ints = st.integers(-2 ** 80, 2 ** 80)
    head = sorted(draw(st.lists(ints, max_size=3)))
    P = draw(st.sampled_from([1, 2, 7]) | st.integers(1, 2 ** 80))
    start = (head[-1] if head else 0) + draw(st.integers(1, 5))
    base = sorted(draw(st.sets(st.integers(start, start + P - 1), max_size=5)))
    copies = draw(st.sampled_from([0, 1, 2, 9]))  # whole copies, the cut one aside
    stop = (base[-1] if base else start) + (copies - 1) * P + draw(st.integers(0, P - 1))
    end = max([*head, *Tiled([], base, P, stop)], default=0)
    tail = sorted(draw(st.sets(st.integers(end + 1, end + 2 ** 80), max_size=3)))
    return Tiled(head, base, P, stop, tail)


@st.composite
def orbit_reports(draw):
    """Any OrbitReport: non-finite and signed-zero floats, bools, large ints,
    visit lists as plain lists of several lengths or as Tiled sequences."""
    n = draw(st.sampled_from([0, 1, 2, 3, 100, 5000, 9000]))
    ints = st.integers(-2 ** 80, 2 ** 80)
    base = draw(st.lists(ints, min_size=1, max_size=4))
    number = st.one_of(st.floats(), st.sampled_from([-0.0, math.inf, -math.inf]), ints)
    visits = st.just([base[i % len(base)] + i for i in range(n)]) | tiled_visits()
    return OrbitReport(
        l=draw(ints), epsilon=draw(number), horizon=draw(number),
        visit_times=draw(visits),
        density_floor=draw(number), covering_set_check=draw(st.booleans()),
        proof_bound=draw(number), certified_error=draw(number),
        worst_scheduled=draw(number), guarantee_vacuous=draw(st.booleans()),
        mode=draw(st.sampled_from(["discrete", "continuous"])),
        inner_measure=draw(number), outer_measure=draw(number),
        continuity_window=draw(number))


class TestReportIO:
    def _reports(self):
        eps = {1: 1.2 * proximity_bound(1), 2: 1.2 * proximity_bound(2)}
        return discrete_report(shift_placement(), eps, 200)

    def test_json_roundtrip(self, tmp_path):
        reports = self._reports()
        path = tmp_path / "report.json"
        report_export(reports, json_path=path)
        back = report_import(path)
        assert [r.to_json_dict() for r in back] == [r.to_json_dict() for r in reports]

    def test_csv_header(self):
        text = reports_to_csv_text(self._reports())
        assert text.splitlines()[0] == (
            "l,epsilon,horizon,visit_count,density_floor,"
            "covering_set_check,proof_bound,certified_error")

    def test_csv_matches_golden_file(self):
        text = reports_to_csv_text(self._reports())
        with open(GOLDEN, newline="") as fh:
            assert fh.read() == text

    def test_export_error_names_path(self, tmp_path):
        with pytest.raises(OSError, match="no/such"):
            report_export(self._reports(), csv_path=str(tmp_path / "no/such/x.csv"))

    def test_json_export_error_names_path(self, tmp_path):
        with pytest.raises(OSError, match="no/such"):
            report_export(self._reports(), json_path=str(tmp_path / "no/such/x.json"))

    @staticmethod
    def _exported(reports, path):
        report_export(reports, json_path=path)
        with open(path) as fh:
            return fh.read()

    @given(reports=st.lists(orbit_reports(), max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_json_bytes_equal_indented_dump(self, tmp_path_factory, reports):
        path = tmp_path_factory.mktemp("json") / "report.json"
        expected = json.dumps([r.to_json_dict() for r in reports], indent=1, default=list)
        assert self._exported(reports, path) == expected

    def test_json_bytes_of_a_sweep_longer_than_a_slice(self, tmp_path):
        eps = {1: 1.2 * proximity_bound(1), 2: 1.2 * proximity_bound(2)}
        reports = discrete_report(shift_placement(horizon=2500), eps, 2500)
        v = reports[0].visit_times
        assert v.base and v._middle >= 3 * len(v.base)  # several period copies
        expected = json.dumps([r.to_json_dict() for r in reports], indent=1, default=list)
        assert self._exported(reports, tmp_path / "report.json") == expected

    @pytest.mark.parametrize("visits, want", [
        (Tiled([], [], 5, 40), []),
        (Tiled([3], [], 5, 40), [3]),
        (Tiled([], [], 5, 40, [41, 2 ** 80]), [41, 2 ** 80]),
        (Tiled([], [5, 7], 10, 4), []),
        (Tiled([], [5, 7], 10, 5), [5]),
        (Tiled([], [5, 7], 10, 7), [5, 7]),
        (Tiled([1], [5, 7], 10, 15), [1, 5, 7, 15]),
        (Tiled([1], [5, 7], 10, 27, [90]), [1, 5, 7, 15, 17, 25, 27, 90]),
        (Tiled([-2 ** 80], [5, 7, 14], 10, 10 ** 4, [10 ** 4 + 1]),
         [-2 ** 80, *(n + 10 * q for q in range(999) for n in (5, 7, 14)), 9995, 9997,
          10 ** 4 + 1]),
        (Tiled(list(range(-9000, 0)), [5], 10, 30, list(range(31, 9000))),
         [*range(-9000, 0), 5, 15, 25, *range(31, 9000)]),
    ], ids=["empty", "head only", "tail only", "no copy", "a cut copy", "one copy",
            "a copy and a cut one", "two copies", "many copies", "long head and tail"])
    def test_json_bytes_of_a_tiled_visit_list(self, tmp_path, visits, want):
        reports = [OrbitReport(1, 0.5, 40, visits, 0.1, True, 0.2, 0.0)]
        expected = json.dumps([r.to_json_dict() for r in reports], indent=1, default=list)
        got = self._exported(reports, tmp_path / "report.json")
        assert got == expected and json.loads(got)[0]["visit_times"] == want

    @pytest.mark.parametrize("visits", [[True, 2], [2.5, 3], Tiled([True], [5], 10, 30),
                                        Tiled([], [2.5, 3], 10, 30)],
                             ids=["bool", "float", "tiled bool", "tiled float"])
    def test_json_bytes_of_entries_that_are_not_exact_ints(self, tmp_path, visits):
        # %d writes True as 1 and 2.5 as 2: such a list must reach the JSON encoder
        reports = [OrbitReport(1, 0.5, 40, visits, 0.1, True, 0.2, 0.0)]
        expected = json.dumps([r.to_json_dict() for r in reports], indent=1, default=list)
        assert self._exported(reports, tmp_path / "report.json") == expected

    def test_json_export_skips_the_pure_python_encoder(self, tmp_path, monkeypatch):
        # json.dump builds its encoder with _make_iterencode, one
        # generator step per visit time; the export must never reach it
        reports = self._reports()
        expected = json.dumps([r.to_json_dict() for r in reports], indent=1, default=list)

        def pure_python_encoder(*args, **kwargs):
            raise AssertionError("the pure-Python JSON encoder was used")

        monkeypatch.setattr(json.encoder, "_make_iterencode", pure_python_encoder)
        assert self._exported(reports, tmp_path / "report.json") == expected


class TestContinuous:
    def test_continuity_window_positive_and_bounded(self):
        cert = make_certificate(TranslationGenerator(1), 1)
        delta = continuity_window(cert.target(1), 0.5, 1.0)
        assert 0 < delta <= 1.0

    def test_window_grows_with_epsilon(self):
        # the integer radius is epsilon / 2, so a larger epsilon leaves more room
        y = make_certificate(TranslationGenerator(1), 1).target(1)
        assert 0 < continuity_window(y, 0.2, 1.0) < continuity_window(y, 0.5, 1.0)

    def test_inner_measure_covers_certified_windows(self):
        cert = make_certificate(TranslationGenerator(1), 1)
        p = assign_placements(compute_thresholds(cert), horizon=200)
        orbit = SolutionOrbit(p)
        rep = continuous_visits(orbit, {1: 0.5}, 60.0, 0.1)[0]
        assert rep.mode == "continuous"
        assert rep.continuity_window > 0
        assert rep.inner_measure >= rep.continuity_window * len(rep.visit_times)
        assert rep.inner_measure <= rep.outer_measure <= 60.0

    def test_one_sweep_serves_every_target(self, monkeypatch):
        cert = make_certificate(TranslationGenerator(1), 3)
        p = assign_placements(compute_thresholds(cert), horizon=80)
        eps = {l: 1.2 * proximity_bound(l) for l in (1, 2, 3)}
        singles = [continuous_visits(SolutionOrbit(p), {l: eps[l]}, 40.0, 0.1)[0] for l in eps]
        calls = []

        def counted(placement, n):
            calls.append(n)
            return orbit_eval(placement, n)

        monkeypatch.setattr(regularized_semigroup, "orbit_eval", counted)
        batch = continuous_visits(SolutionOrbit(p), eps, 40.0, 0.1)
        assert [r.to_json_dict() for r in batch] == [r.to_json_dict() for r in singles]
        assert calls == list(range(0, 40))

    def test_suffix_peaks_are_built_once_per_point(self, monkeypatch):
        # the bench's translation bridge: 80 units, 53 window keys, so keys come back
        p = assign_placements(compute_thresholds(make_certificate(TranslationGenerator(1), 1)),
                              horizon=160)
        eps = {1: 1.2 * proximity_bound(1)}
        points, built = [], []
        monkeypatch.setattr(regularized_semigroup, "orbit_eval",
                            lambda placement, n: points.append(n) or orbit_eval(placement, n))
        monkeypatch.setattr(regularized_semigroup, "suffix_peaks",
                            lambda vec: built.append(vec) or spaces.suffix_peaks(vec))
        got = continuous_visits(SolutionOrbit(p), eps, 80.0, 0.1)
        assert len(built) == len(points) < 80
        want = interleaved_visits(SolutionOrbit(p), eps, 80.0, 0.1)
        assert [repr(r) for r in got] == [repr(r) for r in want]

    def test_no_empty_cell_at_t_max(self):
        # 21 / 0.7 is 30.000000000000004 in floats: a 31st cell would start at 21, be empty
        # and list 21 as a visit time
        cert = make_certificate(TranslationGenerator(1), 1)
        p = assign_placements(compute_thresholds(cert), horizon=80)
        rep = continuous_visits(SolutionOrbit(p), {1: 1.2 * proximity_bound(1)}, 21.0, 0.7)[0]
        assert max(rep.visit_times) < 21.0

    @staticmethod
    def h10_sweep_builds(tmp_path, monkeypatch, grid_step):
        """Calls to plf_shift_left, PiecewiseLinearFn.__init__ and PiecewiseLinearFn.folded
        made inside ``continuous_visits`` on the run_translation_h10 config at ``grid_step``."""
        path = tmp_path / f"h10_{grid_step}.cfg"
        path.write_text("[operator]\nkind = translation\nlam = 1\n\n[run]\ntargets = 1\n"
                        f"horizon = 10\nmode = continuous\ngrid_step = {grid_step}\n")
        cfg = load_config(str(path))
        orbit = SolutionOrbit(build_placements(cfg))
        eps = {1: cfg["run"]["radius_factor"] * proximity_bound(1)}
        counts = dict.fromkeys(["plf_shift_left", "__init__", "folded"], 0)
        with monkeypatch.context() as patch:
            for owner, name in [(spaces, "plf_shift_left"), (operators, "plf_shift_left"),
                                (PiecewiseLinearFn, "__init__"), (PiecewiseLinearFn, "folded")]:
                def counted(*args, real=getattr(owner, name), name=name, **kwargs):
                    counts[name] += 1
                    return real(*args, **kwargs)

                patch.setattr(owner, name, counted)
            continuous_visits(orbit, eps, 10.0, grid_step)
        return counts

    def test_cells_build_no_function(self, tmp_path, monkeypatch):
        # every build in the sweep belongs to a window key's point: halving the
        # grid doubles the cells but leaves the counts alone
        coarse = self.h10_sweep_builds(tmp_path, monkeypatch, 0.5)
        assert coarse["__init__"] > 0
        assert self.h10_sweep_builds(tmp_path, monkeypatch, 0.25) == coarse

    def test_integer_times_measure_the_point_itself(self, monkeypatch):
        # every cell passes its shift (s, lam * s); at s == 0.0 W(0) is the identity,
        # so the walk reads the exact Fraction breakpoints and log scale unrounded
        cert = make_certificate(TranslationGenerator(Fraction(3, 2)), 1, exact=True)
        orbit = SolutionOrbit(assign_placements(compute_thresholds(cert), horizon=40))
        shifts, walked = [], []

        def recorded(u, v, *shift, peaks=None):
            shifts.append(shift)
            return distance(u, v, *shift, peaks=peaks)

        def walk(u, v, dt, dlog, peaks, real=spaces._plf_distance):
            if dt == 0:
                walked.append(([b - dt for b in u.breakpoints], u.log_scale + dlog))
            return real(u, v, dt, dlog, peaks)

        monkeypatch.setattr(verifier, "distance", recorded)
        monkeypatch.setattr(spaces, "_plf_distance", walk)
        continuous_visits(orbit, {1: 1.2 * proximity_bound(1)}, 20.0, 0.25)
        assert (0.0, 0.0) in shifts
        assert all(len(s) == 2 and s[1] == 1.5 * s[0] for s in shifts if s)
        assert walked
        for bps, scale in walked:
            assert any(type(b) is Fraction for b in bps)
            assert not any(isinstance(b, float) for b in bps) and type(scale) is not float

    def test_cells_are_streamed_not_listed(self):
        # 10^6 cells: listing every cell start before the sweep would trace tens of MB
        cert = make_certificate(TranslationGenerator(1), 1)
        y = cert.target(1)

        class Stop(Exception):
            pass

        class StubOrbit:
            placement = types.SimpleNamespace(cert=cert)

            def evaluate(self, times):
                for k, _ in enumerate(times):
                    if k == 100:
                        raise Stop
                    yield y, 0, 0.0, None

            def lipschitz_bound(self, t0, t1):
                return 0.0

        tracemalloc.start()
        try:
            with pytest.raises(Stop):
                continuous_visits(StubOrbit(), {1: 0.5}, 1.0, 1e-6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @settings(max_examples=30, deadline=None)
    @given(continuous_sweeps())
    def test_equals_the_interleaved_sweep(self, case):
        orbit, eps, t_max, grid_step = case
        got = continuous_visits(orbit, eps, t_max, grid_step)
        want = interleaved_visits(orbit, eps, t_max, grid_step)
        assert [repr(r) for r in got] == [repr(r) for r in want]

    def test_report_roundtrip_keeps_continuous_fields(self, tmp_path):
        rep = OrbitReport(
            l=1, epsilon=0.5, horizon=60.0, visit_times=[3, 7],
            density_floor=0.1, covering_set_check=True, proof_bound=2.5,
            certified_error=0.0, mode="continuous",
            inner_measure=5.0, outer_measure=9.0, continuity_window=0.1)
        path = tmp_path / "r.json"
        report_export([rep], json_path=path)
        back = report_import(path)[0]
        assert back.inner_measure == 5.0 and back.mode == "continuous"
