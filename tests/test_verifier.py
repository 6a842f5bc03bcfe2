"""Visit statistics, density floors, report schema, continuous measure."""

import functools
import json
import math
import os

import pytest
from hypothesis import given, settings, strategies as st

from fhclab import regularized_semigroup, verifier
from fhclab.cli import build_placements, load_config
from fhclab.constructor import assign_placements, orbit_eval, orbit_window, proximity_bound
from fhclab.criterion import compute_thresholds
from fhclab.density_partition import PairKey, build_schedule
from fhclab.operators import (
    Differentiation,
    TranslationGenerator,
    WeightedBackwardShift,
    make_certificate,
    transform_power,
    transform_rotation,
)
from fhclab.regularized_semigroup import SolutionOrbit
from fhclab.spaces import C0_SEQ, HARDY, CkModel, SequenceSpace, distance
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
    cert = make_certificate(WeightedBackwardShift(2), L)
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
        (make_certificate(WeightedBackwardShift(2), 2), 400),
        (transform_rotation(make_certificate(WeightedBackwardShift(2), 3), -1), 1000),
        (transform_power(make_certificate(WeightedBackwardShift(2), 3), 2), 1000),
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
    for n in range(1, N + 1):
        vec, err = orbit_eval(p, n)
        max_err = max(max_err, err)
        scheduled = p.placements.get(n)
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


OPERATORS = {
    "shift-l1": WeightedBackwardShift(2, SequenceSpace("lp", 1.0)),
    "shift-l2": WeightedBackwardShift(2),
    "shift-c0": WeightedBackwardShift(2, C0_SEQ),
    "hardy": Differentiation(HARDY),
    "ck1": Differentiation(CkModel(1)),
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


class TestWindowSweep:
    @settings(max_examples=60, deadline=None)
    @given(sweeps())
    def test_equals_the_per_n_sweep(self, case):
        p, eps, N = case
        got, want = discrete_report(p, eps, N), per_n_report(p, eps, N)
        assert [repr(r) for r in got] == [repr(r) for r in want]

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


class TestContinuous:
    def test_continuity_window_positive_and_bounded(self):
        cert = make_certificate(TranslationGenerator(1), 1)
        delta = continuity_window(cert.target(1), 0.5, 1.0, 0.02)
        assert 0 < delta <= 1.0

    def test_window_shrinks_with_radius(self):
        cert = make_certificate(TranslationGenerator(1), 1)
        y = cert.target(1)
        d_roomy = continuity_window(y, 0.5, 1.0, 0.01)
        d_tight = continuity_window(y, 0.5, 1.0, 0.4)
        assert d_tight < d_roomy

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
