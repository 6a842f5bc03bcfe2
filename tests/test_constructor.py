"""Placement of targets on scheduled times and orbit evaluation."""

import functools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fhclab import constructor, criterion
from fhclab.constructor import (
    assign_placements,
    materialize,
    orbit_eval,
    orbit_parts,
    proximity_bound,
)
from fhclab.criterion import compute_thresholds, tail_norm
from fhclab.density_partition import PairKey, build_schedule
from fhclab.operators import (
    Differentiation,
    TranslationGenerator,
    WeightedBackwardShift,
    apply_forward,
    apply_inverse,
    make_certificate,
    transform_inverse,
    transform_power,
    transform_rotation,
)
from fhclab.spaces import HARDY, L2, CkModel, accumulate, distance, linear_combine
from fhclab.verifier import discrete_report


def shift_placement(L=1, horizon=200, w=2, exact=False):
    cert = make_certificate(WeightedBackwardShift(w, L2), L, exact=exact)
    return assign_placements(compute_thresholds(cert), horizon)


def schedule_of(p):
    """The partition schedule that assign_placements placed the targets on."""
    return build_schedule([PairKey(l, N) for l, N in p.tail_certificate.pairs()])


def count_inverse_calls(monkeypatch):
    """The iteration counts of every apply_inverse call from now on, made by the
    constructor or by the tail certificate's store."""
    calls = []
    real = constructor.apply_inverse

    def counted(cert, v, n):
        calls.append(n)
        return real(cert, v, n)

    for module in (constructor, criterion):
        monkeypatch.setattr(module, "apply_inverse", counted)
    return calls


class TestProximityBound:
    def test_values(self):
        assert proximity_bound(1) == 2.5
        assert proximity_bound(3) == 0.625

    def test_rejects_nonpositive_l(self):
        with pytest.raises(ValueError):
            proximity_bound(0)


class TestAssignment:
    def test_placements_follow_the_schedule(self):
        p = shift_placement(L=3, horizon=500)
        tc = p.tail_certificate
        sched = schedule_of(p)
        members = {key: sched.members(key, p.horizon) for key in sched.ranked}
        assert all(key.nu == tc.threshold(key.l) for key in members)
        assert sum(map(len, members.values())) == len(p.placed_ns) == len(p.placed_ls)
        assert list(p.placed_ns) == sorted(n for ns in members.values() for n in ns)
        assert {n: key.l for key, ns in members.items() for n in ns} \
            == dict(zip(p.placed_ns, p.placed_ls))

    def test_every_target_is_placed(self):
        p = shift_placement(L=3, horizon=500)
        assert set(p.placed_ls) == {1, 2, 3}

    def test_placed_times_respect_thresholds(self):
        p = shift_placement(L=3, horizon=500)
        tc = p.tail_certificate
        for n, l in zip(p.placed_ns, p.placed_ls):
            assert n >= tc.threshold(l)

    def test_horizon_below_thresholds_rejected(self):
        cert = make_certificate(WeightedBackwardShift(2, L2), 5)
        tc = compute_thresholds(cert)
        with pytest.raises(ValueError):
            assign_placements(tc, horizon=2)


OPERATORS = {
    "shift-w2": WeightedBackwardShift(2, L2),
    "shift-w4": WeightedBackwardShift(4, L2),
    "hardy": Differentiation(HARDY),
    "ck1": Differentiation(CkModel(1, 0.0, 1.0)),
    "translation": TranslationGenerator(1),
}


@functools.cache
def thresholds(family, L):
    return compute_thresholds(make_certificate(OPERATORS[family], L))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(OPERATORS)), st.integers(1, 3), st.data())
def test_placement_tuples_are_the_split_of_placed(family, L, data):
    tc = thresholds(family, L)
    sched = build_schedule([PairKey(l, N) for l, N in tc.pairs()])
    P = sched.period
    # the largest threshold, the least horizon, lies below the first placement when L = 1
    for horizon in (max(N for _, N in tc.pairs()), P - 1, P, P + 1,
                    data.draw(st.integers(2, 6)) * P + data.draw(st.integers(0, P - 1))):
        p = assign_placements(tc, horizon)
        placed = sched.placed(horizon)
        ns = tuple(n for n, _ in placed)
        assert p.placed_ns == ns
        assert p.placed_ls == tuple(key.l for _, key in placed)


def test_a_horizon_below_the_first_placement_places_nothing():
    p = shift_placement(L=1, horizon=2)  # N_1 = 2, first placement 3
    assert p.placed_ns == p.placed_ls == ()


class TestMaterialize:
    def test_leading_term_of_x(self):
        # first placed time is n=3 carrying y_1 = e_1; B^3 e_1 = 2^-6 e_4
        p = shift_placement()
        x, tail = materialize(p)
        assert p.placed_ns[0] == 3
        assert x.min_index() == 4
        assert x.entries[4] == pytest.approx(2.0**-6)

    def test_orbit_at_zero_is_x(self):
        p = shift_placement()
        x, tail = materialize(p)
        vec, err = orbit_eval(p, 0)
        assert distance(vec, x) == 0.0
        assert err == tail


class TestOrbit:
    def test_visit_hits_target_within_bound(self):
        p = shift_placement()
        y1 = p.cert.target(1)
        sched = schedule_of(p)
        for n in sched.members(sched.ranked[0], 100):
            vec, err = orbit_eval(p, n)
            assert distance(vec, y1) + err <= proximity_bound(1)

    def test_frozen_distance_at_first_visit(self):
        p = shift_placement()
        vec, err = orbit_eval(p, 3)
        # dominated by the n=7 neighbour: A^3 B^7 e_1 = B^4 e_1, norm 2^-10
        assert distance(vec, p.cert.target(1)) == pytest.approx(2.0**-10, abs=1e-12)

    def test_component_bounds(self):
        p = shift_placement(L=3, horizon=2000)
        sched = schedule_of(p)
        for l in (1, 2, 3):
            key = sched.ranked[[k.l for k in sched.ranked].index(l)]
            for n in sched.members(key, 300):
                fwd, mid, bwd, err = orbit_parts(p, n)
                y = p.cert.target(l)
                assert fwd.norm() <= 2 / 2**l + 1e-12
                assert distance(mid, y) <= 2 / 2**l + 1e-12
                assert bwd.norm() + err <= 1 / 2**l + 1e-12

    def test_empty_sides_apply_no_inverse(self, monkeypatch):
        # the zero standing in for an empty sum is built without applying B, and
        # after assign_placements every orbit term comes from the term table
        p = shift_placement()
        calls = count_inverse_calls(monkeypatch)
        _, _, bwd, _ = orbit_parts(p, p.horizon)  # backward window is empty
        assert bwd.is_zero()
        fwd, _, _, _ = orbit_parts(p, 1)  # nothing is placed before n = 1
        assert fwd.is_zero() and calls == []

    def test_exact_decomposition_consistency(self):
        # orbit_eval must agree with literally applying A^n to the materialized
        # sum; exact rational arithmetic, small horizon
        p = shift_placement(L=2, horizon=64, w=Fraction(2), exact=True)
        x, _ = materialize(p)
        cert = p.cert
        for n in (1, 3, 7, 12):
            direct = apply_forward(cert, x, n)
            vec, err = orbit_eval(p, n)
            assert distance(direct, vec) <= err + 1e-29

    def test_translation_orbit_visits(self):
        cert = make_certificate(TranslationGenerator(1), 1)
        p = assign_placements(compute_thresholds(cert), horizon=200)
        y = cert.target(1)
        n = p.placed_ns[0]
        vec, err = orbit_eval(p, n)
        assert distance(vec, y) + err <= proximity_bound(1)


class TestTermTable:
    @pytest.mark.parametrize("cert", [
        make_certificate(WeightedBackwardShift(2, L2), 2),
        transform_rotation(make_certificate(WeightedBackwardShift(2, L2), 3), -1),
        transform_power(make_certificate(WeightedBackwardShift(2, L2), 3), 2),
        make_certificate(TranslationGenerator(1), 1),
    ], ids=["shift-L2", "rotated", "powered", "translation"])
    def test_entries_are_the_certificate_actions(self, cert):
        p = assign_placements(compute_thresholds(cert), 400)
        for l in range(1, cert.target_count + 1):
            y = cert.target(l)
            assert len(p.forward_terms[l]) == p.forward_window + 1
            assert len(p.inverse_terms[l]) == p.backward_window + 1
            for k, term in enumerate(p.forward_terms[l]):
                assert repr(term) == repr(apply_forward(cert, y, k))
            for k, term in enumerate(p.inverse_terms[l]):
                assert repr(term) == repr(apply_inverse(cert, y, k))

    def test_sweep_applies_no_inverse(self, monkeypatch):
        p = shift_placement(L=3, horizon=8000)
        calls = count_inverse_calls(monkeypatch)
        eps = {l: 1.2 * proximity_bound(l) for l in (1, 2, 3)}
        for N in (1000, 4000):
            discrete_report(p, eps, N)
            assert calls == [], N

    def test_orbit_at_zero_applies_b_past_the_table(self, monkeypatch):
        p = shift_placement(L=2)
        past = [j for j in p.placed_ns if j > p.backward_window]
        assert p.horizon > p.backward_window and past
        calls = count_inverse_calls(monkeypatch)
        vec, err = orbit_eval(p, 0)
        # then the store builds the horizon tail's own terms: B^(horizon+1) y_l
        # underflows to 0, so each target's walk from horizon + 1 stops there
        assert calls == past + [p.horizon + 1] * p.cert.target_count
        x, tail = materialize(p)
        direct = accumulate([apply_inverse(p.cert, p.cert.target(l), j)
                             for j, l in zip(p.placed_ns, p.placed_ls)])
        assert err == tail
        assert repr(list(vec.entries.items())) == repr(list(x.entries.items())) \
            == repr(list(direct.entries.items()))


# --------------------------------------------------------------------------
# the orbit point as it was evaluated before the table held folds and norms


def _former_window_error(p, W):
    """The former ``_window_error``: every shorter window's tail built its own terms."""
    if W == p.backward_window:
        return p.backward_tail
    return sum(tail_norm(p.cert, p.cert.target(l), W + 1, "inverse")
               for l in range(1, p.cert.target_count + 1))


def _former_orbit_eval(p, n):
    """The former ``orbit_eval``: sums through ``accumulate`` and ``linear_combine``,
    so every sum folds its own terms."""
    zero = p.cert.target(1).scaled(0)
    if n == 0:
        terms = [p.inverse_terms[l][j] if j <= p.backward_window
                 else apply_inverse(p.cert, p.cert.target(l), j)
                 for j, l in zip(p.placed_ns, p.placed_ls)]
        return (accumulate(terms) if terms else zero), _former_window_error(p, p.horizon)
    W, offsets, ls = constructor.orbit_window(p, n)
    placed = list(zip(offsets, ls))
    fwd = [p.forward_terms[l][-d] for d, l in placed if d < 0]
    middle = next((p.cert.target(l) for d, l in placed if d == 0), None)
    bwd = [p.inverse_terms[l][d] for d, l in placed if d > 0]
    vec = linear_combine(1, accumulate(fwd) if fwd else zero, 1, accumulate(bwd) if bwd else zero)
    if middle is not None:
        vec = linear_combine(1, vec, 1, middle)
    return vec, _former_window_error(p, W)


class TestFoldedTable:
    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([1, Fraction(1, 2), 400]), st.integers(1, 3), st.integers(20, 60),
           st.booleans())
    def test_orbit_points_are_the_former_ones(self, lam, targets, horizon, exact):
        # every point from n = 0 (x itself) to the horizon, repr for repr; lam = 400
        # folds B^2 y to zero inside a window, and a window with one nonzero term on
        # a side keeps that term's raw log scale
        cert = make_certificate(TranslationGenerator(lam), targets, exact=exact)
        p = assign_placements(compute_thresholds(cert), horizon)
        for n in range(horizon + 1):
            assert repr(orbit_eval(p, n)) == repr(_former_orbit_eval(p, n)), n

    @pytest.mark.parametrize("lam", [1, Fraction(1, 2), 400])
    def test_one_term_windows_keep_their_raw_scale(self, lam):
        cert = make_certificate(TranslationGenerator(lam), 2)
        p = assign_placements(compute_thresholds(cert), 60)
        one_term = [n for n in range(1, 61)
                    if any(part.log_scale != 0 for part in orbit_parts(p, n)[::2])]
        assert one_term
        for n in one_term:
            assert repr(orbit_eval(p, n)) == repr(_former_orbit_eval(p, n)), n

    def test_the_folds_are_the_table_terms_folded(self):
        cert = make_certificate(TranslationGenerator(Fraction(3, 2)), 2)
        p = assign_placements(compute_thresholds(cert), 80)
        for terms, folds in [(p.forward_terms, p.forward_folds),
                             (p.inverse_terms, p.inverse_folds)]:
            assert folds.keys() == terms.keys()
            for l in terms:
                assert [repr(t.folded()) for t in terms[l]] == list(map(repr, folds[l]))

    def test_other_vector_types_have_no_folds(self):
        p = shift_placement(L=2)
        assert p.forward_folds is None and p.inverse_folds is None

    @pytest.mark.parametrize("cert", [
        make_certificate(WeightedBackwardShift(2, L2), 3),
        make_certificate(WeightedBackwardShift(Fraction(3, 2), L2), 2, exact=True),
        make_certificate(TranslationGenerator(1), 2),
    ], ids=["shift", "shift-exact", "translation"])
    def test_short_windows_read_the_kept_norms(self, cert, monkeypatch):
        # the store kept every norm a shorter window's tail reads, and those tails
        # have the bits of tails that build their own terms; no term is built again
        p = assign_placements(compute_thresholds(cert), 300)
        tc = p.tail_certificate
        for l, terms in p.inverse_terms.items():
            assert all(tc.term(l, k, "inverse") is t for k, t in enumerate(terms))
        want = [repr(_former_window_error(p, W)) for W in range(p.backward_window)]
        calls = count_inverse_calls(monkeypatch)
        monkeypatch.setattr(criterion, "apply_inverse", None)
        assert [repr(constructor._window_error(p, W)) for W in range(p.backward_window)] == want
        assert calls == []


STORE_FAMILIES = {
    "shift": lambda exact: WeightedBackwardShift(Fraction(3, 2) if exact else 2, L2),
    "hardy": lambda exact: Differentiation(HARDY),
    "ck": lambda exact: Differentiation(CkModel(2, 0.0, 1.0)),
    "translation": lambda exact: TranslationGenerator(1),
}


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(STORE_FAMILIES)), st.integers(1, 3), st.sampled_from([1, 2]),
       st.booleans(), st.booleans(), st.booleans(), st.data())
def test_the_store_keeps_the_bits_of_stand_alone_tails(family, L, power, rotate, exact, swap,
                                                       data):
    # a tail read from the store, whether the search, the window or the sweep first read
    # it, is the tail that builds its own terms; so is every window's error bar
    cert = make_certificate(STORE_FAMILIES[family](exact), L, exact=exact)
    cert = transform_power(transform_rotation(cert, -1) if rotate else cert, power)
    if swap:  # a swapped certificate certifies no threshold: its store stands alone
        cert = transform_inverse(cert)
        tc = criterion.TailCertificate(cert, (), criterion._term_store(cert))
        reads = {l: range(1, 8) for l in range(1, L + 1)}
    else:
        tc = compute_thresholds(cert)
        K = max(N for _, N in tc.pairs())
        window = assign_placements(tc, K).backward_window  # the same at every horizon
        p = assign_placements(tc, data.draw(st.integers(K, 2 * window + 10)))
        # below the threshold, at the backward window and past the horizon
        reads = {l: [*range(1, tc.threshold(l) + 1), p.backward_window + 1,
                     p.horizon + 1, p.horizon + 5] for l in range(1, L + 1)}
    for l, Ns in reads.items():
        for N in Ns:
            for direction in ("forward", "inverse"):
                want = tail_norm(cert, cert.target(l), N, direction)
                assert repr(tc.tail(l, N, direction)) == repr(want), (l, N, direction)
    if not swap:
        assert [repr(constructor._window_error(p, W)) for W in range(p.horizon + 1)] \
            == [repr(_former_window_error(p, W)) for W in range(p.horizon + 1)]
