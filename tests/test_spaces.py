"""Vector models: norms, combination algebra, enumeration."""

import hashlib
import math
import sys
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from fhclab import criterion, operators, spaces
from fhclab.spaces import (
    C0_PLUS,
    C0_SEQ,
    CkModel,
    HARDY,
    L2,
    PiecewiseLinearFn,
    PolySeries,
    SequenceSpace,
    SparseVector,
    _CK_MESH,
    _ck_grid,
    accumulate,
    distance,
    enumerate_targets,
    linear_combine,
    plf_shift_left,
    plf_shift_right,
    plf_sum,
    suffix_peaks,
)


class TestSparseVector:
    def test_zero_entries_pruned(self):
        v = SparseVector({1: 0, 2: 3}, L2)
        assert v.entries == {2: 3}

    def test_l2_norm(self):
        v = SparseVector({1: 3, 4: 4}, L2)
        assert v.norm() == pytest.approx(5.0)

    def test_c0_norm_is_sup(self):
        v = SparseVector({1: -3, 4: 2}, C0_SEQ)
        assert v.norm() == pytest.approx(3.0)

    def test_lp_norm_general_p(self):
        sp = SequenceSpace(3.0)
        v = SparseVector({1: 1, 2: 1}, sp)
        assert v.norm() == pytest.approx(2 ** (1 / 3))

    def test_c0_is_the_infinite_exponent(self):
        assert SequenceSpace(math.inf) == C0_SEQ
        assert repr(SparseVector({2: 1}, C0_SEQ)) == "SparseVector({2: 1}, c0)"
        assert repr(SparseVector({2: 1}, SequenceSpace(3.0))) == "SparseVector({2: 1}, lp)"

    @pytest.mark.parametrize("p", [0.5, math.nan])
    def test_exponent_outside_one_to_inf_is_rejected(self, p):
        with pytest.raises(ValueError):
            SequenceSpace(p)

    def test_rational_entries_stay_exact(self):
        v = SparseVector({1: Fraction(1, 3)}, L2)
        w = linear_combine(3, v, 0, v.scaled(0))
        assert w.entries[1] == 1

    @given(st.integers(min_value=1, max_value=50))
    def test_basis_norm_one(self, k):
        assert SparseVector({k: 1}, L2).norm() == pytest.approx(1.0)

    def test_index_must_be_positive(self):
        with pytest.raises(ValueError):
            SparseVector({0: 1.0}, L2)

    @pytest.mark.parametrize("key", [0, -1, 2.5])
    def test_index_that_is_not_a_positive_integer_is_rejected(self, key):
        with pytest.raises(ValueError, match="sequence index must be a positive integer"):
            SparseVector({3: 1, key: 1.0}, L2)

    @pytest.mark.parametrize("keys", [[5, 3, 9, 1], [5, 3.0, 9, True]],
                             ids=["int keys", "a float and a bool key"])
    def test_keys_become_ints_in_order_and_every_zero_is_dropped(self, keys):
        zeros = [0, 0.0, -0.0, 0j, Fraction(0)]
        for zero in zeros:
            v = SparseVector(dict(zip(keys, [2, zero, -0.5, 1j])), L2)
            assert list(v.entries.items()) == [(5, 2), (9, -0.5), (1, 1j)]
            assert all(type(k) is int for k in v.entries)
        v = SparseVector(dict(zip(keys, [2, Fraction(1, 3), -0.5, 1j])), L2)
        assert list(v.entries.items()) == [(5, 2), (3, Fraction(1, 3)), (9, -0.5), (1, 1j)]
        assert all(type(k) is int for k in v.entries)
        v = SparseVector(dict(zip(keys, zeros[:4])), L2)
        assert v.entries == {} and v.is_zero()


class TestPolySeries:
    def test_hardy_norm_is_l2_of_coefficients(self):
        f = PolySeries((3, 0, 4), HARDY)
        assert f.norm() == pytest.approx(5.0)

    def test_ck_norm_dominated_by_largest_derivative(self):
        model = CkModel(2, 0.0, 1.0)
        f = PolySeries((0, 1, -1), model)  # x(1-x); |f''| = 2 dominates on [0,1]
        assert f.norm() == pytest.approx(2.0, abs=1e-3)
        assert f.ck_norm_interval()[0] <= f.norm()

    def test_derivative_coeffs(self):
        f = PolySeries((1, 2, 3), HARDY)
        assert f.derivative_coeffs(1) == [2, 6]


def _former_breakpoint_fault(breakpoints):
    """The constructor's former per-element loop: the message it raised, or None."""
    for i, b in enumerate(breakpoints):
        if b < 0:
            return "breakpoints must be >= 0"
        if i and not breakpoints[i - 1] < b:
            return "breakpoints must be strictly increasing"
    return None


BREAKPOINT_SCALARS = st.one_of(
    st.integers(-3, 8),
    st.fractions(-3, 8, max_denominator=4),
    st.floats(-3, 8),
    st.sampled_from([-0.0, math.nan]),
)


@st.composite
def breakpoint_lists(draw):
    """int/Fraction/float lists: strictly increasing, sorted (equal entries,
    negatives and NaNs kept), or in drawn order."""
    shape = draw(st.sampled_from(["increasing", "sorted", "drawn"]))
    if shape == "increasing":
        points = draw(st.sets(BREAKPOINT_SCALARS.filter(lambda b: b >= 0), min_size=2,
                              max_size=6))
        return sorted(points)
    points = draw(st.lists(BREAKPOINT_SCALARS, min_size=2, max_size=6))
    return sorted(points) if shape == "sorted" else points


class TestPiecewiseLinear:
    def test_tent_norm(self):
        t = PiecewiseLinearFn.tent(0, 1, 2, 1)
        assert t.norm() == pytest.approx(1.0)
        assert t.raw_eval(0.5) == pytest.approx(0.5)

    def test_log_scale_scales_norm(self):
        t = PiecewiseLinearFn.tent(0, 1, 2, 1)
        s = PiecewiseLinearFn(t.breakpoints, t.values, log_scale=2)
        assert s.norm() == pytest.approx(math.exp(2))

    def test_last_value_must_vanish(self):
        with pytest.raises(ValueError):
            PiecewiseLinearFn((0, 1), (0, 1))

    def test_shift_left_clips_at_origin(self):
        t = PiecewiseLinearFn.tent(Fraction(0), Fraction(1), Fraction(2), Fraction(1))
        g = plf_shift_left(t, Fraction(1, 2))
        assert g.breakpoints[0] == 0
        assert g.raw_eval(0) == Fraction(1, 2)

    def test_shift_right_then_left_roundtrips(self):
        t = PiecewiseLinearFn.tent(Fraction(0), Fraction(1), Fraction(2), Fraction(1))
        g = plf_shift_left(plf_shift_right(t, Fraction(3)), Fraction(3))
        assert distance(g, t) == 0.0

    def test_shift_right_rejects_mass_at_origin(self):
        f = PiecewiseLinearFn((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0)))
        with pytest.raises(ValueError):
            plf_shift_right(f, Fraction(1))

    def test_combination_on_breakpoint_union(self):
        a = PiecewiseLinearFn.tent(0, 1, 2, 1)
        b = PiecewiseLinearFn.tent(1, 2, 3, 1)
        c = linear_combine(1, a, 1, b)
        assert c.raw_eval(1.5) == pytest.approx(1.0)

    @given(st.fractions(min_value=0, max_value=5))
    def test_shift_left_norm_never_grows(self, dt):
        t = PiecewiseLinearFn.tent(Fraction(0), Fraction(1), Fraction(2), Fraction(1))
        assert plf_shift_left(t, dt).norm() <= t.norm() + 1e-12

    @settings(max_examples=400, deadline=None)
    @given(breakpoint_lists())
    def test_breakpoint_checks_match_the_former_loop(self, breakpoints):
        values = [1] * len(breakpoints)
        values[0] = values[-1] = 0
        want = _former_breakpoint_fault(breakpoints)
        if want is None:
            PiecewiseLinearFn(breakpoints, values)
        else:
            with pytest.raises(ValueError) as exc:
                PiecewiseLinearFn(breakpoints, values)
            assert str(exc.value) == want


class TestEnumeration:
    def test_l2_order_frozen(self):
        got = enumerate_targets(L2, 6)
        expected = [
            SparseVector({1: 1.0}, L2),
            SparseVector({1: -1.0}, L2),
            SparseVector({1: 2.0}, L2),
            SparseVector({1: -2.0}, L2),
            SparseVector({1: 0.5}, L2),
            SparseVector({1: -0.5}, L2),
        ]
        for u, v in zip(got, expected):
            assert distance(u, v) == 0.0

    def test_hardy_order_frozen(self):
        got = enumerate_targets(HARDY, 4)
        assert [f.coeffs for f in got] == [[1.0], [-1.0], [2.0], [-2.0]]

    def test_half_line_first_target_is_unit_tent(self):
        y = enumerate_targets(C0_PLUS, 1)[0]
        tent = PiecewiseLinearFn.tent(0, 1, 2, 1)
        assert distance(y, tent) == 0.0

    def test_exact_mode_yields_fractions(self):
        v = enumerate_targets(L2, 5, exact=True)[4]
        assert v.entries[1] == Fraction(1, 2)

    def test_targets_are_distinct(self):
        got = enumerate_targets(L2, 12)
        for i, u in enumerate(got):
            for v in got[i + 1:]:
                assert distance(u, v) > 0

    @pytest.mark.parametrize("space, count, exact, digest", [
        (L2, 200, False, "ef053e5abfa1ef5f12dc70adc91ef6ba485c329e963cd7da57e4354fa992458f"),
        (L2, 200, True, "964bd5b7401c25c08e18ecfa79143f9697340b8ef130e39e814c8521b8d6c1ce"),
        (C0_SEQ, 60, False, "e6175c25560162eaf1c8e30aca28a477e39e304235afb4dcd96b4927c24edad5"),
        (C0_SEQ, 60, True, "0c99dace4fe24177acefeee717244f67025ad25d6bd02edfdca3fc6f122bc09e"),
        (SequenceSpace(1.0), 60, False,
         "6fa3e10a5841347b7e5daf8d4863bbe69fce0503bf71320dae3ea9e68db1697f"),
        (SequenceSpace(1.0), 60, True,
         "ca0fefa74f5cc453f7eea265d6f3ef035afcfee7d419737787f7d505a2ba5f44"),
        (HARDY, 200, False, "3e3c9873fc52224174ca1e6bc85d6471293cc6c1a69abfff5985cb31916abf48"),
        (HARDY, 200, True, "3b83c46f6bdcb6687cfa84bd829b6b3477b2ad9624fbf30b1218c29eb9d00d1d"),
        (CkModel(2, 0.5, 2.0), 60, False,
         "a66b1fa29dcaed85a9e040c45b33fa857cd21ad31ba83878cc92063b93ff64f9"),
        (CkModel(2, 0.5, 2.0), 60, True,
         "834c74b358982195664d086edc3c28184d1b78c24b215e9dfad56054039c905e"),
        (C0_PLUS, 150, False, "fef264b2fd0e6c9aa879fcb47325f1b1b68202c8296e2b1d070758c45cac7dd9"),
        (C0_PLUS, 150, True, "547c41e9024e7043df929c9154d61677b46aec26816ca098c9d8c3d224c4c569"),
    ], ids=["l2", "l2-exact", "c0", "c0-exact", "l1", "l1-exact", "hardy", "hardy-exact",
            "ck2", "ck2-exact", "half-line", "half-line-exact"])
    def test_order_and_scalar_types_pinned(self, space, count, exact, digest):
        # sha256 over one line per target: its repr and the type names of its scalars
        def scalars(t):
            if isinstance(t, SparseVector):
                return [t.entries[k] for k in sorted(t.entries)]
            if isinstance(t, PolySeries):
                return t.coeffs
            return [*t.breakpoints, *t.values, t.log_scale]

        text = "\n".join(f"{t!r} {[type(c).__name__ for c in scalars(t)]}"
                         for t in enumerate_targets(space, count, exact=exact))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_each_cost_level_is_built_once(self, monkeypatch):
        levels = []

        def counted(cost):
            levels.append(cost)
            return bumps(cost)

        bumps = spaces._bumps
        monkeypatch.setattr(spaces, "_bumps", counted)
        got = enumerate_targets(C0_PLUS, 24)
        assert len(got) == 24
        assert levels == list(range(1, max(levels) + 1))


class TestAccumulate:
    def test_sums_sparse_vectors(self):
        vs = [SparseVector({k: 1}, L2) for k in range(1, 4)]
        s = accumulate(vs)
        assert s.norm() == pytest.approx(math.sqrt(3))

    def test_norm_helper_dispatches(self):
        assert PolySeries((3,), HARDY).norm() == pytest.approx(3.0)


# --------------------------------------------------------------------------
# the one-pass piecewise-linear sum against the pairwise fold it replaced


def _pairwise_combine(a, u, b, v):
    """The former two-term sum: both functions evaluated at every union point."""
    if u.is_zero():
        return v.scaled(b)
    if v.is_zero():
        return u.scaled(a)
    if u.log_scale != v.log_scale:
        u, v = u.folded(), v.folded()
    bps = sorted(set(u.breakpoints) | set(v.breakpoints))
    vals = [a * u.raw_eval(x) + b * v.raw_eval(x) for x in bps]
    if vals and vals[0] != 0 and bps[0] != 0:
        bps.insert(0, bps[0] / 2)
        vals.insert(0, 0)
    if vals and vals[-1] != 0:
        bps.append(bps[-1] + 1)
        vals.append(0)
    return PiecewiseLinearFn(bps, vals, u.log_scale)


def pairwise_sum(terms):
    """Oracle: fold the (c, f) terms into a running sum, one pair at a time."""
    acc = PiecewiseLinearFn.zero()
    for c, f in terms:
        acc = _pairwise_combine(1, acc, c, f)
    return acc


SCALES = [0, -1, Fraction(-5, 2), 2, -800]  # e^-800 folds to 0.0


@st.composite
def plf_terms(draw, exact):
    """(c, f) lists of dyadic piecewise-linear functions, some zero."""
    num = (lambda q: q) if exact else float
    shared = draw(st.sampled_from(SCALES)) if draw(st.booleans()) else None
    den = 2 ** draw(st.integers(0, 2))
    terms = []
    for _ in range(draw(st.integers(0, 6))):
        c = draw(st.sampled_from([1, -1, 2, Fraction(1, 2)]))
        scale = shared if shared is not None else draw(st.sampled_from(SCALES))
        if draw(st.integers(0, 5)) == 0:
            terms.append((num(c), PiecewiseLinearFn.zero()))
            continue
        ks = sorted(draw(st.sets(st.integers(0, 16), min_size=2, max_size=6)))
        vals = [Fraction(draw(st.integers(-8, 8)), 2 ** draw(st.integers(0, 3))) for _ in ks]
        vals[-1] = 0
        if ks[0] != 0:
            vals[0] = 0
        f = PiecewiseLinearFn([num(Fraction(k, den)) for k in ks], [num(v) for v in vals], scale)
        terms.append((num(c), f))
    return terms


def _points(*fs):
    return sorted({x for f in fs for x in f.breakpoints})


def _value(f, x):
    """f(x) as a float, the scale factor included."""
    return math.exp(float(f.log_scale)) * float(f.raw_eval(x))


def _assert_close(got, want, terms):
    """Equal as functions to a few ulps of the terms' own magnitude."""
    mag = sum(abs(float(c)) * f.norm() for c, f in terms)
    tol = 8 * max(len(terms), 1) * math.ulp(mag)
    for x in _points(got, want):
        assert abs(_value(got, x) - _value(want, x)) <= tol, x


def _difference_norm(u, v):
    """The former ``distance``: the norm of the built difference."""
    return linear_combine(1, u, -1, v).norm()


def _ks(draw, lo, hi):
    """Three to six distinct sorted integers in [lo, hi]."""
    return sorted(draw(st.sets(st.integers(lo, hi), min_size=3, max_size=6)))


def _dyadic_bump(draw, ks, den, num, scale):
    """The function with breakpoints k / den for k in ``ks`` and drawn dyadic values."""
    vals = [Fraction(draw(st.integers(-8, 8)), 2 ** draw(st.integers(0, 3))) for _ in ks]
    vals[-1] = 0
    if ks[0] != 0:
        vals[0] = 0
    elif draw(st.integers(0, 5)) == 0:
        vals[0] = math.nan  # at 0: the first union point
    if draw(st.integers(0, 5)) == 0:
        vals[draw(st.integers(1, len(ks) - 2))] = math.nan
    return PiecewiseLinearFn([num(Fraction(k, den)) for k in ks], [num(x) for x in vals], scale)


@st.composite
def plf_pairs(draw):
    """(u, v): supports that overlap, touch, nest or are disjoint, or u == v;
    equal or mixed log scales (a fold past e^-745 underflows, e^800 overflows);
    either or both may be zero, and a value may be NaN."""
    num = draw(st.sampled_from([lambda q: q, float]))
    scales = SCALES + [800]
    su = draw(st.sampled_from(scales))
    sv = su if draw(st.booleans()) else draw(st.sampled_from(scales))
    den = 2 ** draw(st.integers(0, 2))
    ks = _ks(draw, 0, 16)
    u = _dyadic_bump(draw, ks, den, num, su)
    lo, hi = 4 * ks[0], 4 * ks[-1]  # u's support on the grid 4 times finer
    shape = draw(st.sampled_from(["overlap", "touch", "nest", "disjoint", "equal"]))
    if shape == "equal":
        v = PiecewiseLinearFn(u.breakpoints, u.values, u.log_scale)
    elif shape == "overlap":
        v = _dyadic_bump(draw, _ks(draw, 0, 16), den, num, sv)
    else:
        fine = {"touch": [hi] + _ks(draw, hi + 1, hi + 16), "nest": _ks(draw, lo + 1, hi - 1),
                "disjoint": _ks(draw, hi + 1, hi + 24)}[shape]
        v = _dyadic_bump(draw, fine, 4 * den, num, sv)
    return tuple(f if draw(st.integers(0, 5)) else PiecewiseLinearFn.zero() for f in (u, v))


class TestPlfSum:
    @settings(max_examples=300, deadline=None)
    @given(st.booleans().flatmap(lambda exact: plf_terms(exact=exact)))
    def test_distance_keeps_the_bits_of_the_difference_norm(self, terms):
        fs = [f for _, f in terms]
        for u, v in zip(fs, fs[1:]):
            assert _outcome(distance, u, v) == _outcome(_difference_norm, u, v)

    @settings(max_examples=600, deadline=None)
    @given(plf_pairs())
    # u == v past e^709: the difference trims to the zero function, so 0.0 and no exp
    @example(pair=(PiecewiseLinearFn([0, 1, 2], [0, 1, 0], 800),
                   PiecewiseLinearFn([0, 1, 2], [0, 1, 0], 800)))
    # a NaN seeds max() at the first union point, and never replaces its seed later
    @example(pair=(PiecewiseLinearFn([0, 1, 2], [math.nan, 1.0, 0.0]),
                   PiecewiseLinearFn([0, 1, 2], [0.0, 0.5, 0.0])))
    @example(pair=(PiecewiseLinearFn([0, 1, 2], [0.0, math.nan, 0.0]),
                   PiecewiseLinearFn([0, 1, 2], [0.0, 0.5, 0.0])))
    def test_distance_keeps_the_bits_on_every_shape(self, pair):
        u, v = pair
        assert _outcome(distance, u, v) == _outcome(_difference_norm, u, v)
        assert _outcome(distance, v, u) == _outcome(_difference_norm, v, u)

    @settings(max_examples=300, deadline=None)
    @given(plf_terms(exact=True))
    def test_exact_mode_matches_the_pairwise_fold(self, terms):
        got, want = plf_sum(terms), pairwise_sum(terms)
        if len({f.log_scale for _, f in terms if not f.is_zero()}) <= 1:
            # no fold: rational arithmetic throughout, so equal as functions
            assert got.log_scale == want.log_scale
            for x in _points(got, want):
                assert got.raw_eval(x) == want.raw_eval(x), x
        else:
            _assert_close(got, want, terms)

    @settings(max_examples=300, deadline=None)
    @given(plf_terms(exact=False))
    def test_float_mode_matches_the_pairwise_fold(self, terms):
        _assert_close(plf_sum(terms), pairwise_sum(terms), terms)

    @settings(max_examples=100, deadline=None)
    @given(plf_terms(exact=False))
    def test_two_terms_equal_the_pairwise_sum(self, terms):
        # the distance case u - v included: two terms are the old sum value for value
        for u, v in zip(terms, terms[1:]):
            got = linear_combine(u[0], u[1], -v[0], v[1])
            want = _pairwise_combine(u[0], u[1], -v[0], v[1])
            assert got == want
            assert distance(u[1], v[1]) == _pairwise_combine(1, u[1], -1, v[1]).norm()

    def test_underflowing_fold_adds_no_breakpoints(self):
        tent = PiecewiseLinearFn.tent(0, 1, 2, 1)
        far = PiecewiseLinearFn.tent(5, 6, 7, 1)
        gone = PiecewiseLinearFn(far.breakpoints, far.values, -800)
        got = plf_sum([(1, tent), (1, gone)])
        assert got == pairwise_sum([(1, tent), (1, gone)]) == tent

    def test_shifted_tents_match_the_pairwise_fold(self):
        # the orbit-term shape: B^j of a tent, each with its own scale -j
        tents = [PiecewiseLinearFn(
            [Fraction(j), Fraction(j + 1), Fraction(j + 2)], [0, Fraction(1, j + 1), 0], -j)
            for j in range(40)]
        got = accumulate(tents)
        assert got.log_scale == 0 and got.breakpoints == list(range(42))
        assert got == pairwise_sum([(1, f) for f in tents])

    def test_mixed_types_rejected(self):
        with pytest.raises(TypeError):
            accumulate([PiecewiseLinearFn.tent(0, 1, 2, 1), SparseVector({1: 1}, L2)])

    def test_non_vectors_rejected(self):
        with pytest.raises(TypeError, match="int"):
            linear_combine(1, 3, 1, 4)
        with pytest.raises(TypeError, match="int"):
            accumulate([1, 2])


# --------------------------------------------------------------------------
# the shift-aware distance walk against the built shift


def _grid_scalar(draw, q):
    """q as a float or a Fraction, or an int when it is integral."""
    return draw(st.sampled_from([float, Fraction] + ([int] if q.denominator == 1 else [])))(q)


# zero runs and magnitudes down to 2^-12: at e^-744 a fold keeps 1 and loses 2^-12
SHIFT_VALUES = [0, 0, 0, 1, -2, Fraction(3, 4), Fraction(-1, 4096), 8]


@st.composite
def shifted_distances(draw):
    """(u, v, dt, dlog) for ``distance(u, v, dt, dlog)``.

    Breakpoints are int, float or Fraction on a dyadic grid, one type per
    entry.  dt is 0, 0.0, a breakpoint, between two, the last one, past it or
    drawn.  Values have zero runs (so a clip can leave 0 at the origin and
    at the next point, which the constructor trims) and magnitudes down to
    2^-12, at scales down to -800, so that a fold underflows at the ends or
    everywhere.  v is drawn on a finer grid anywhere in [0, 15], at g's scale
    or its own.  A NaN may sit at the first union point (v's value at 0),
    at a point of u inside v's support, or at u's first point past it.
    """
    den = 2 ** draw(st.integers(0, 2))
    ks = sorted(draw(st.sets(st.integers(0, 12 * den), min_size=3, max_size=8)))
    vals = [draw(st.sampled_from(SHIFT_VALUES)) for _ in ks]
    vals[draw(st.integers(1, len(ks) - 2))] = draw(st.sampled_from([1, -2, 8]))
    vals[-1] = 0
    if ks[0] != 0:
        vals[0] = 0
    xs = [Fraction(k, den) for k in ks]
    i = draw(st.integers(0, len(xs) - 2))
    runs = [p for p in range(len(xs) - 1) if vals[p] == vals[p + 1] == 0] or [i]
    r = draw(st.sampled_from(runs))  # in a zero run, a clip leaves two zeros in front
    dt = draw(st.sampled_from([0, 0.0, xs[i], (xs[i] + xs[i + 1]) / 2, xs[-1], xs[-1] + 1,
                               xs[r], (xs[r] + xs[r + 1]) / 2]))
    dt = draw(st.one_of(st.just(dt), st.builds(float, st.just(dt)), st.floats(0, 14),
                        st.fractions(0, 14, max_denominator=12)))
    dlog = draw(st.sampled_from([0, 1, Fraction(3, 2), 1.5])) * dt + draw(st.sampled_from([0, -1]))
    su = draw(st.sampled_from([0, -1, Fraction(-5, 2), 2, -740, -744, -745.5, -800]))

    fine = 4 * den
    vks = sorted(draw(st.sets(st.integers(0, 15 * fine), min_size=3, max_size=6)))
    where = draw(st.sampled_from([None, None, "first", "inside", "past"]))
    if where == "first":
        vks = sorted({0, *vks})
    vvals = [Fraction(draw(st.integers(-8, 8).filter(bool)), 2 ** draw(st.integers(0, 3)))
             for _ in vks]
    vvals[-1] = 0
    if vks[0] != 0:
        vvals[0] = 0
    elif where == "first":
        vvals[0] = math.nan  # at 0, the first union point
    shifted = [x - dt for x in xs]
    lo, hi = Fraction(vks[0], fine), Fraction(vks[-1], fine)
    free = range(0 if ks[0] == 0 else 1, len(xs) - 1)  # the end values must be 0
    inside = [p for p in free if lo < shifted[p] < hi]
    past = [p for p, x in enumerate(shifted) if x > hi]
    if where == "inside" and inside:
        vals[draw(st.sampled_from(inside))] = math.nan
    elif where == "past" and past and past[0] in free:
        vals[past[0]] = math.nan  # the first point of the run past v's end
    u = PiecewiseLinearFn([_grid_scalar(draw, x) for x in xs],
                          [v if v != v else _grid_scalar(draw, v) for v in vals], su)
    sv = su + dlog if draw(st.booleans()) else draw(st.sampled_from([0, -1, 2, -800]))
    v = PiecewiseLinearFn([_grid_scalar(draw, Fraction(k, fine)) for k in vks],
                          [v if v != v else _grid_scalar(draw, v) for v in vvals], sv)
    u, v = (f if draw(st.integers(0, 9)) else PiecewiseLinearFn.zero() for f in (u, v))
    return u, v, dt, dlog


class TestShiftedDistance:
    @settings(max_examples=800, deadline=None)
    @given(shifted_distances())
    # past v's end a run opens with NaN, which no later max may keep as its seed:
    # the run's 8 is the answer, not the 0.3 inside v's support
    @example(case=(PiecewiseLinearFn([0, 0.5, 1.5, 2, 3], [0.25, 0.3, math.nan, 8, 0]),
                   PiecewiseLinearFn.tent(0, 0.5, 1, 0.5), 0.25, 0.25))
    # dt inside a zero run: 0 at the origin and at the next point, trimmed
    @example(case=(PiecewiseLinearFn(range(7), [0, 3, 0, 0, 0, 5, 0]),
                   PiecewiseLinearFn.tent(0, 1, 2), 2.5, 2.5))
    # the fold keeps 8 and loses 2^-12 at both ends, or loses everything
    @example(case=(PiecewiseLinearFn(range(6), [0, Fraction(1, 4096), 8, 1, Fraction(1, 4096), 0],
                                     -744), PiecewiseLinearFn.tent(0, 1, 2), 0.5, 0.5))
    @example(case=(PiecewiseLinearFn(range(4), [0, 8, 1, 0], -800),
                   PiecewiseLinearFn.tent(0, 1, 2, 3), 0.5, 0.5))
    # NaN at the first union point; v at its own nonzero scale
    @example(case=(PiecewiseLinearFn(range(4), [0, 8, 1, 0]),
                   PiecewiseLinearFn([0, 1, 2], [math.nan, 1, 0], -1), 0.75, 0.75))
    # dt at the end of the support: the zero function, so ||v||
    @example(case=(PiecewiseLinearFn(range(4), [0, 8, 1, 0]),
                   PiecewiseLinearFn([0, 1, 2], [5, 1, 0], 2), 3, 3))
    # the clip's origin value is raw_eval at ub[0] + (0 - (ub[0] - dt)), which is not dt
    @example(case=(PiecewiseLinearFn([0.1, 1 / 3, Fraction(4, 3), Fraction(3)], [0, 5, 0.1, 0]),
                   PiecewiseLinearFn([0, 1.25, Fraction(8, 3)], [0.1, 1, 0]), Fraction(4, 3), 2.0))
    # the clip bisects on b - dt: 12/7 > dt, but 12/7 - dt is float(12/7) - dt = 0.0
    @example(case=(PiecewiseLinearFn([Fraction(5, 6), Fraction(12, 7), Fraction(25, 3)], [0, 1, 0]),
                   PiecewiseLinearFn([0, 0.6572032465389499, 1.6232147782296882],
                                     [Fraction(2, 7), 1, 0], -1), float(Fraction(12, 7)), 0))
    # at scale 0, g is not folded, so its Fraction values stay exact beside v's fold
    @example(case=(PiecewiseLinearFn([0, Fraction(1, 2), Fraction(29, 6), Fraction(26, 3)],
                                     [5, 0.1, 1, 0]),
                   PiecewiseLinearFn([1.25, Fraction(5, 3), 2.747051441528491], [0, -1 / 3, 0], 0.5),
                   Fraction(29, 6), 0))
    # g is zero: the difference is v.scaled(-1), whose -1 * (inf + inf j) is NaN
    @example(case=(PiecewiseLinearFn([0, 1, 3], [1, -2, 0]),
                   PiecewiseLinearFn([0, 1.729785184832969, 2.4298051714949773],
                                     [complex(math.inf, math.inf), 1, 0]), 3.5, 3.5))
    def test_equals_the_built_shift(self, case):
        u, v, dt, dlog = case
        got = _outcome(distance, u, v, dt, dlog)
        assert got == _outcome(distance, plf_shift_left(u, dt, dlog), v)
        assert got == _outcome(_difference_norm, plf_shift_left(u, dt, dlog), v)

    @pytest.mark.parametrize("case", [
        # complex values in the run past v: each |0 + 1 * fold * x| is listed
        (PiecewiseLinearFn(range(6), [0, 1, 2j, 3, 1 + 1j, 0]), PiecewiseLinearFn.tent(0, 1, 2),
         0.5, 0.5),
        (PiecewiseLinearFn(range(5), [0, 1, 2, 1.5 - 2.5j, 0]), PiecewiseLinearFn.tent(0, 1, 2),
         0.5, 0.5),
        # the rest of the run opens with NaN
        (PiecewiseLinearFn(range(6), [0, 1, 2, math.nan, 9, 0]), PiecewiseLinearFn.tent(0, 1, 2),
         0.5, 0.5),
        # a fold to 0.0 turns inf into NaN
        (PiecewiseLinearFn(range(6), [0, 1, 2, math.inf, 9, 0], -800),
         PiecewiseLinearFn.tent(0, 1, 2), 0.5, 0.5),
        # every value 0 but a NaN in the rest of the run: not the zero function, so
        # e^800 is taken and overflows
        (PiecewiseLinearFn(range(7), [0, 1, 0, 0, 0, math.nan, 0], 800),
         PiecewiseLinearFn([0, 1, 2], [0, 1, 0], 800), 0, 0),
        # complex infinities: 0 + 1*z and 0 + (-1)*z are complex products, NaN here
        (PiecewiseLinearFn(range(4), [0, complex(math.inf, math.inf), 1, 0]),
         PiecewiseLinearFn.tent(0, 0.5, 1), 1.5, 1.5),
        (PiecewiseLinearFn([5, 6, 7], [0, 1, 0]),
         PiecewiseLinearFn([0, 1.5, 2.5], [complex(math.inf, math.inf), 1, 0]), 0, 0),
    ], ids=["complex", "complex-last", "nan-second", "zero-fold-inf", "zero-but-nan",
            "complex-inf-in-g", "complex-inf-in-v"])
    def test_runs_the_peak_cannot_stand_for_are_listed(self, case):
        u, v, dt, dlog = case
        got = _outcome(distance, u, v, dt, dlog)
        assert got == _outcome(_difference_norm, plf_shift_left(u, dt, dlog), v)

    def test_a_shift_the_constructor_refuses_is_still_measured(self):
        # the one documented difference: 1/3 and Fraction(1, 3) minus 0.05 are one
        # float, so the shift's constructor raises, while the walk, which builds no
        # list, measures the jump there: its peak |-2 - v(x)|, in plf_sum's arithmetic
        u = PiecewiseLinearFn([0, 0.1, 1 / 3, Fraction(1, 3), Fraction(9, 4)],
                              [0.7, 1 / 3, 0, -2, 0])
        v = PiecewiseLinearFn([0, 2], [Fraction(2, 7), 0])
        with pytest.raises(ValueError, match="strictly increasing"):
            plf_shift_left(u, 0.05, 0.0)
        x = 1 / 3 - 0.05
        v_at_x = Fraction(2, 7) + (x - 0) / (2 - 0) * (0 - Fraction(2, 7))
        assert repr(distance(u, v, 0.05, 0.0)) == repr(abs(0 + 1 * -2 + -1 * v_at_x))

    def test_a_zero_shift_is_the_identity(self):
        # W(0) returns the function itself, where 1/3 and Fraction(1, 3) minus 0.0
        # would round to one float
        u = PiecewiseLinearFn([0, 0.1, 1 / 3, Fraction(1, 3), Fraction(9, 4)],
                              [0.7, 1 / 3, 0, -2, 0])
        v = PiecewiseLinearFn([0, 2], [Fraction(2, 7), 0])
        assert plf_shift_left(u, 0.0, 0.0) is u
        assert repr(distance(u, v, 0.0, 0.0)) == repr(distance(u, v)) \
            == repr(_difference_norm(u, v))

    def test_the_run_past_v_keeps_its_peak_after_a_nan(self):
        u = PiecewiseLinearFn([0, 0.5, 1.5, 2, 3], [0.25, 0.3, math.nan, 8, 0])
        got = distance(u, PiecewiseLinearFn.tent(0, 0.5, 1, 0.5), 0.25, 0.25)
        assert got == math.exp(0.25) * 8

    def test_a_complex_nan_reads_nan_whatever_errno_holds(self):
        # CPython's complex abs() takes its NaN path without clearing errno, so after an
        # underflowing exp() had left ERANGE there, the same distance raised OverflowError
        u = PiecewiseLinearFn([0, 1, 2], [complex(math.nan, 1), 1, 0])
        v = PiecewiseLinearFn.tent(0, 1, 2)
        first = distance(u, v)
        math.exp(-800)
        second = distance(u, v)
        assert math.isnan(first) and math.isnan(second)
        math.exp(-800)
        assert math.isnan(u.norm())
        math.exp(-800)
        assert math.isnan(spaces._modulus(complex(math.nan, 1)))

    def test_a_complex_overflow_still_raises(self):
        u = PiecewiseLinearFn([0, 1, 2], [complex(1.5e308, 1.5e308), 1, 0])
        with pytest.raises(OverflowError):
            distance(u, PiecewiseLinearFn.tent(0, 1, 2))
        with pytest.raises(OverflowError):
            u.norm()
        assert spaces._modulus(complex(1.5e308, 1.5e308)) == math.inf

    def test_builds_no_function(self, monkeypatch):
        # no shift, no fold of u and no constructor call: the lists are read in place
        u = PiecewiseLinearFn([0, 0.5, 1.5, 2, 3], [0.25, 0.3, 2, 8, 0])
        v = PiecewiseLinearFn.tent(0, 0.5, 1, 0.5)
        want = distance(plf_shift_left(u, 0.25, 0.25), v)
        built = []
        for name in ("__init__", "folded"):
            real = getattr(PiecewiseLinearFn, name)
            monkeypatch.setattr(PiecewiseLinearFn, name,
                                lambda self, *a, real=real, name=name:
                                built.append(name) or real(self, *a))
        monkeypatch.setattr(spaces, "plf_shift_left", None)
        assert repr(distance(u, v, 0.25, 0.25)) == repr(want)
        assert built == []


# --------------------------------------------------------------------------
# the run past v read from the suffix peaks


def _bits(x):
    """float.hex of a float result (repr for NaN, whose sign and payload no output
    reads), or the name of the error raised on the way."""
    try:
        d = x()
    except OverflowError as exc:
        return type(exc).__name__
    return repr(d) if d != d else float.hex(d)


@st.composite
def peak_cases(draw):
    """``shifted_distances`` with u's values made ints or floats (a zero as 0, 0.0
    or -0.0), NaNs kept, and now and then one value made complex, NaN or not."""
    u, v, dt, dlog = draw(shifted_distances())
    if u.is_zero():
        return u, v, dt, dlog
    if not v.is_zero() and draw(st.booleans()):  # v ends early, so a run of g passes it
        w = Fraction(draw(st.integers(1, 8)), 4)
        v = PiecewiseLinearFn([0, w / 2, w], [draw(st.sampled_from([0, 1, -0.5, math.nan])),
                                              draw(st.sampled_from([1, -3, 0.25])), 0],
                              draw(st.sampled_from([v.log_scale, u.log_scale + dlog])))

    def real(x):
        if x != x:
            return x
        if x == 0:
            return draw(st.sampled_from([0, 0.0, -0.0]))
        if x == int(x) and draw(st.booleans()):
            return int(x)
        return float(x)

    vals = [real(x) for x in u.values]
    if len(vals) > 2 and not draw(st.integers(0, 7)):
        k = draw(st.integers(1, len(vals) - 2))
        vals[k] = complex(vals[k], draw(st.sampled_from([0, 1])))
    return PiecewiseLinearFn(u.breakpoints, vals, u.log_scale), v, dt, dlog


class TestSuffixPeaks:
    def test_each_index_holds_the_largest_magnitude_from_it_on(self):
        f = PiecewiseLinearFn([0, 1, 2, 3, 4, 5], [0, -3, 1, -0.0, 2.5, 0])
        assert suffix_peaks(f) == [3, 3, 2.5, 2.5, 2.5, 0]
        assert suffix_peaks(PiecewiseLinearFn.zero()) == []

    @pytest.mark.parametrize("value", [math.nan, 1j, Fraction(1, 2), True])
    def test_no_peaks_for_values_a_run_lists(self, value):
        assert suffix_peaks(PiecewiseLinearFn([0, 1, 2, 3], [0, 1, value, 0])) is None

    @settings(max_examples=800, deadline=None)
    @given(peak_cases())
    # NaN as u's first value, at the origin, and a later NaN past v
    @example(case=(PiecewiseLinearFn([0, 1, 2, 3], [math.nan, 1, 2, 0]),
                   PiecewiseLinearFn.tent(0, 0.5, 1), 0, 0))
    @example(case=(PiecewiseLinearFn([0, 0.5, 1.5, 2, 3], [0.25, 0.3, math.nan, 8, 0]),
                   PiecewiseLinearFn.tent(0, 0.5, 1, 0.5), 0.25, 0.25))
    # int and float peaks with -0.0 around them, no fold, a clipped first point
    @example(case=(PiecewiseLinearFn([0, 1, 2, 3, 4, 5], [0, 3, -0.0, 3.0, -2, 0]),
                   PiecewiseLinearFn.tent(0, 0.25, 0.5), 1.5, 0))
    # a fold that underflows at the end of the run: its largest value is lost first
    @example(case=(PiecewiseLinearFn(range(6), [0, 8, 1, 2.0**-12, 2.0**12, 0], -744),
                   PiecewiseLinearFn.tent(0, 0.5, 1), 0.5, 0.5))
    @example(case=(PiecewiseLinearFn(range(6), [0, 1, 8, 2.0**-12, 2.0**-12, 0], -744),
                   PiecewiseLinearFn.tent(0, 0.5, 1), 0.5, 0.5))
    # complex values: no peaks, the run is listed
    @example(case=(PiecewiseLinearFn(range(6), [0, 1, 2j, 3, 1 + 1j, 0]),
                   PiecewiseLinearFn.tent(0, 1, 2), 0.5, 0.5))
    # v past u's support: no run of u past v
    @example(case=(PiecewiseLinearFn([0, 1, 2], [0, 5, 0]),
                   PiecewiseLinearFn([1, 3, 4], [0, 1, 0]), 0.5, 0.5))
    def test_the_peaks_walk_keeps_every_bit(self, case):
        # the walks with and without peaks share one loop, so the built difference
        # is the oracle wherever the shift's constructor accepts the shifted lists
        u, v, dt, dlog = case
        peaks = suffix_peaks(u)
        got = _bits(lambda: distance(u, v, dt, dlog, peaks=peaks))
        assert got == _bits(lambda: distance(u, v, dt, dlog))
        try:
            g = plf_shift_left(u, dt, dlog)
        except ValueError:
            return
        assert got == _bits(lambda: _difference_norm(g, v))

    def test_a_run_past_v_is_one_entry(self):
        # g = W(1/2)u has points 0 (the clip), 0.5 and 1.5, ...; v ends at 1, so the run
        # past v starts at u's index 2, and doctored peaks there are read as its entry
        u = PiecewiseLinearFn(range(9), [0, 1, 2, 7, 3, 1, 5, 2, 0])
        v = PiecewiseLinearFn.tent(0, 0.5, 1)
        peaks = suffix_peaks(u)
        assert repr(distance(u, v, 0.5, 0.5, peaks=peaks)) == repr(distance(u, v, 0.5, 0.5)) \
            == repr(math.exp(0.5) * 7)
        doctored = [*peaks[:2], 100, *peaks[3:]]
        assert repr(distance(u, v, 0.5, 0.5, peaks=doctored)) == repr(math.exp(0.5) * 100)
        doctored[2] = 0  # a zero peak is no entry: that point is listed, the next peak read
        assert repr(distance(u, v, 0.5, 0.5, peaks=doctored)) == repr(math.exp(0.5) * 7)


# --------------------------------------------------------------------------
# the piecewise-linear clip, union and zero rule against the loops they replaced


def _former_shift_left(f, dt, dlog=0):
    """The former ``plf_shift_left``: the clip as an append loop over every breakpoint,
    with the rule that W(0) is the identity."""
    if f.is_zero() or dt == dlog == 0:
        return f
    bp = [b - dt for b in f.breakpoints]
    if bp[-1] <= 0:
        return PiecewiseLinearFn.zero()
    if bp[0] >= 0:
        return PiecewiseLinearFn(bp, list(f.values), f.log_scale + dlog)
    v0 = f.raw_eval(f.breakpoints[0] + (0 - bp[0]))
    nb, nv = [0], [v0]
    for b, v in zip(bp, f.values):
        if b > 0:
            nb.append(b)
            nv.append(v)
    return PiecewiseLinearFn(nb, nv, f.log_scale + dlog)


def _former_plf_sum(terms):
    """The former ``plf_sum``: the union from a set comprehension, each term's ends
    looked up in a dict from union point to index."""
    terms = [(c, f) for c, f in terms if not f.is_zero()]
    if len(terms) == 1:
        c, f = terms[0]
        return f.scaled(c)
    scale = terms[0][1].log_scale if terms else 0
    if any(f.log_scale != scale for _, f in terms):
        terms = [(c, f.folded()) for c, f in terms]
        terms = [(c, f) for c, f in terms if not f.is_zero()]
        scale = 0
    if not terms:
        return PiecewiseLinearFn.zero()
    bps = sorted({x for _, f in terms for x in f.breakpoints})
    index = {x: i for i, x in enumerate(bps)}
    vals = [0] * len(bps)
    for c, f in terms:
        fb, fv = f.breakpoints, f.values
        first, last = index[fb[0]], index[fb[-1]]
        vals[first] += c * fv[0]
        k = 0
        for i in range(first + 1, last):
            x = bps[i]
            while fb[k + 1] <= x:
                k += 1
            if fb[k] == x:
                vals[i] += c * fv[k]
            else:
                t = (x - fb[k]) / (fb[k + 1] - fb[k])
                vals[i] += c * (fv[k] + t * (fv[k + 1] - fv[k]))
    return PiecewiseLinearFn(bps, vals, scale)


def _built(make, *args):
    """(repr, the function) of what ``make`` builds, or the message of its ValueError."""
    try:
        f = make(*args)
    except ValueError as exc:
        return str(exc), None
    return repr(f), f


@st.composite
def mixed_plf(draw, den):
    """A function on the grid k / den whose breakpoints and values are drawn as int
    (when integral), float or Fraction, one type per entry."""
    def scalar(q):
        return draw(st.sampled_from([float, Fraction] + ([int] if q.denominator == 1 else [])))(q)

    ks = sorted(draw(st.sets(st.integers(0, 12), min_size=2, max_size=6)))
    vals = [Fraction(draw(st.integers(-8, 8)), 2 ** draw(st.integers(0, 3))) for _ in ks]
    vals[-1] = 0
    if ks[0] != 0:
        vals[0] = 0
    scale = draw(st.sampled_from([0, -1, Fraction(1, 2), 0.5]))
    return PiecewiseLinearFn([scalar(Fraction(k, den)) for k in ks], [scalar(v) for v in vals],
                             scale)


@st.composite
def shift_cases(draw):
    """(f, dt, dlog): dt is 0, exactly a breakpoint, between two breakpoints, the last one,
    past it or drawn, as the breakpoint itself, a float or a Fraction."""
    f = draw(mixed_plf(2 ** draw(st.integers(0, 2))))
    bp = f.breakpoints or [0, 1]  # all-zero values give the zero function
    i = draw(st.integers(0, len(bp) - 2))
    dt = draw(st.sampled_from([0, bp[i], (bp[i] + bp[i + 1]) / 2, bp[-1], bp[-1] + 1]))
    dt = draw(st.one_of(st.just(dt), st.builds(float, st.just(dt)),
                        st.builds(Fraction, st.just(dt)), st.floats(0, 14),
                        st.fractions(0, 14, max_denominator=12)))
    return f, dt, draw(st.sampled_from([0, 1, Fraction(-1, 2), 0.25]))


@st.composite
def mixed_terms(draw):
    """(c, f) terms on one grid, so equal breakpoints of different types meet in the union."""
    den = 2 ** draw(st.integers(0, 2))
    return [(draw(st.sampled_from([1, -1, 0.5, Fraction(1, 3)])), draw(mixed_plf(den)))
            for _ in range(draw(st.integers(1, 5)))]


def _former_folded(f):
    """The former ``PiecewiseLinearFn.folded``: the scaled values through the
    checking constructor."""
    if f.log_scale == 0:
        return f
    e = math.exp(float(f.log_scale))
    return PiecewiseLinearFn(f.breakpoints, [e * v for v in f.values], 0)


@st.composite
def fold_cases(draw):
    """A function with int, float or Fraction values, tiny ones among them, at a log
    scale whose fold underflows all, some or none of them."""
    ks = sorted(draw(st.sets(st.integers(0, 12), min_size=2, max_size=6)))
    mags = [0, 1, Fraction(3, 2), 8, 1e-20, 1e-300, 5e-324]
    vals = [draw(st.sampled_from([1, -1])) * draw(st.sampled_from(mags)) for _ in ks]
    vals = [draw(st.sampled_from([float, Fraction] + ([int] if v == int(v) else [])))(v)
            for v in vals]
    vals[-1] = 0
    if ks[0] != 0:
        vals[0] = 0
    bps = [draw(st.sampled_from([int, float, Fraction]))(k) for k in ks]
    scale = draw(st.sampled_from([-800, -745.5, -700, -1, Fraction(-3, 2), 0.5, 3]))
    return PiecewiseLinearFn(bps, vals, scale)


ZERO_LIKE = [0, 0.0, -0.0, Fraction(0), 0j, complex(-0.0, -0.0), math.nan,
             complex(math.nan, 0), Fraction(1, 2), -1.0]


class TestPlfPathOracles:
    @settings(max_examples=300, deadline=None)
    @given(shift_cases())
    @example(case=(PiecewiseLinearFn([0, 1, 2], [0, 1, 0]), 1, 0))  # dt at a breakpoint
    @example(case=(PiecewiseLinearFn([1, 2.0, Fraction(3)], [0, 1, 0]), 2.5, 0))
    @example(case=(PiecewiseLinearFn([0, 1, 2], [0, 1, 0]), 7, 1))  # past the last
    def test_shift_left_matches_the_append_loop(self, case):
        f, dt, dlog = case
        got, want = _built(plf_shift_left, f, dt, dlog), _built(_former_shift_left, f, dt, dlog)
        assert got[0] == want[0]
        assert got[1] == want[1]

    @settings(max_examples=300, deadline=None)
    @given(mixed_terms())
    # 1, 1.0 and Fraction(1) are one union point: the first term's 1 represents it
    @example(terms=[(1, PiecewiseLinearFn([1, 2, 3], [0, 1, 0])),
                    (1, PiecewiseLinearFn([1.0, Fraction(2), 4], [0, 1, 0])),
                    (1, PiecewiseLinearFn([Fraction(1), 3.0, 5], [0, 1, 0]))])
    def test_sum_matches_the_index_dict(self, terms):
        got, want = plf_sum(terms), _former_plf_sum(terms)
        assert repr(got) == repr(want)
        assert got == want

    @settings(max_examples=300, deadline=None)
    @given(fold_cases())
    @example(f=PiecewiseLinearFn([0, 1, 2], [3, 1e-20, 0], -700))  # the origin stays, trim
    @example(f=PiecewiseLinearFn([0, 1, 2, 3], [0, 1e-20, 5, 0], -700))  # leading trim
    @example(f=PiecewiseLinearFn([1, 2, 3, 4], [0, 5, 1e-20, 0], -700))  # trailing trim
    @example(f=PiecewiseLinearFn([0, 1.5, 2], [Fraction(1, 2), 8, 0], -745.5))  # all zero
    def test_fold_matches_the_checking_constructor(self, f):
        before = repr(f)
        got, want = f.folded(), _former_folded(f)
        assert repr(got) == repr(want)
        assert got.log_scale == want.log_scale == 0
        assert got.is_zero() == want.is_zero()
        assert repr(f) == before  # the shared breakpoint list is left alone

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(ZERO_LIKE), min_size=1, max_size=4),
           st.sampled_from([0, -1, 2]))
    @example(inner=[0, math.nan], scale=0)
    def test_zero_rule_and_norm_match_the_generators(self, inner, scale):
        # values [*inner, 0] on 0, 1, 2, ...: only the last value must vanish
        values = [*inner, 0]
        f = PiecewiseLinearFn(range(len(values)), values, scale)
        assert f.is_zero() == all(v == 0 for v in values)
        want = (math.exp(float(f.log_scale)) * float(max(abs(v) for v in f.values))
                if f.breakpoints else 0.0)
        assert repr(f.norm()) == repr(want)


# --------------------------------------------------------------------------
# sparse sums and distances against the pairwise code written out


def _pairwise_sparse(a, u, b, v):
    """The former ``SparseVector.combine``: a*u + b*v through the checking constructor."""
    out = {k: a * c for k, c in u.entries.items()}
    for k, c in v.entries.items():
        out[k] = out.get(k, 0) + b * c
    return SparseVector(out, u.space)


def _pairwise_norm(v):
    """The former ``SparseVector.norm``: the entries summed in dict order.

    A sum below the smallest normal float is taken again from the entries
    divided by the power of two of the largest one (into [0.5, 1)).
    """
    values = v.entries.values()
    if not values:
        return 0.0
    if v.space.p == math.inf:
        return float(max(abs(c) for c in values))
    p = v.space.p
    if p == 2:
        total, root = float(sum(abs(c) ** 2 for c in values)), math.sqrt
    else:
        total, root = float(sum(float(abs(c)) ** p for c in values)), lambda s: s ** (1.0 / p)
    if total >= sys.float_info.min:
        return root(total)
    scale = 2.0 ** math.frexp(max(float(abs(c)) for c in values))[1]
    return root(sum((float(abs(c)) / scale) ** p for c in values)) * scale


def _items(v):
    return repr(list(v.entries.items()))


SEQ_SPACES = [SequenceSpace(1.0), L2, SequenceSpace(3.0), C0_SEQ]
# sums of these round (0.1, 1/3) or stay exact (dyadics), and can cancel to 0
FLOATS = [0.1, -0.1, 0.3, 1 / 3, -2 / 3, 0.5, -0.5, 1.0, -3.0, 1e-17, 2.5e-300]
FRACTIONS = [Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3), Fraction(-2, 3), Fraction(5), -1]
WEIGHTS = [0, 0.5, Fraction(1, 3), -1]  # a and b of linear_combine


@st.composite
def sparse_lists(draw):
    """(scalars, vectors) in one space, supports overlapping, dict orders shuffled.

    Some vectors are negated, as a -1 twist does.  Some lists get, after a
    prefix, the negation of the prefix's sum at one index (an exact
    cancellation partway through the fold) and at the end a term that brings
    that index back.
    """
    space = draw(st.sampled_from(SEQ_SPACES))
    scalars = draw(st.sampled_from([FLOATS, FRACTIONS, FLOATS + FRACTIONS]))
    vectors = []
    for _ in range(draw(st.integers(1, 7))):
        keys = draw(st.lists(st.integers(1, 8), max_size=5, unique=True))
        v = SparseVector({k: draw(st.sampled_from(scalars)) for k in keys}, space)
        vectors.append(v.scaled(-1) if draw(st.booleans()) else v)
    if draw(st.booleans()):
        cut = draw(st.integers(1, len(vectors)))
        prefix = reduce(lambda acc, v: _pairwise_sparse(1, acc, 1, v), vectors[:cut])
        if prefix.entries:
            k = draw(st.sampled_from(sorted(prefix.entries)))
            vectors.insert(cut, SparseVector({k: -prefix.entries[k]}, space))
            vectors.append(SparseVector({k: draw(st.sampled_from(scalars))}, space))
    return scalars, vectors


@st.composite
def sparse_pairs(draw):
    """(u, v) with overlapping, disjoint, equal-support or equal vectors."""
    scalars, vectors = draw(sparse_lists())
    u, v = vectors[0], vectors[-1]
    shape = draw(st.sampled_from(["overlapping", "disjoint", "same support", "equal"]))
    if shape == "disjoint":
        v = SparseVector({k + 8: c for k, c in v.entries.items()}, v.space)
    elif shape == "same support":  # v lists the indices in the other order
        v = SparseVector({k: draw(st.sampled_from(scalars)) for k in reversed(u.entries)},
                         u.space)
    elif shape == "equal":
        v = SparseVector(dict(u.entries), u.space)
    return u, v


# int, Fraction, float and complex entries with NaN, infinities, signed zeros and subnormals
SEQ_SPECIALS = [1, -3, 2 ** 70, Fraction(1, 3), Fraction(-7, 2), 0.1, -2.5, -0.0, math.nan,
                math.inf, -math.inf, 5e-324, -2.2250738585072014e-308, 1e300, 1 + 2j, -1j,
                complex(math.inf, 1), complex(0, math.nan), 0j]


@st.composite
def special_pairs(draw):
    """(u, v) in one space over SEQ_SPECIALS, supports overlapping, some shared indices
    holding equal entries, which cancel to an exact zero unless they are NaN or infinite."""
    space = draw(st.sampled_from(SEQ_SPACES))
    scalar = st.sampled_from(SEQ_SPECIALS)
    keys = st.lists(st.integers(1, 8), max_size=6, unique=True)
    u = {k: draw(scalar) for k in draw(keys)}
    v = {k: draw(scalar) for k in draw(keys)}
    for k in draw(st.lists(st.sampled_from(sorted(u)), unique=True)) if u else []:
        v[k] = u[k]
    return SparseVector(u, space), SparseVector(v, space)


class TestSparseSum:
    @settings(max_examples=400, deadline=None)
    @given(sparse_lists())
    def test_accumulate_matches_the_pairwise_fold(self, case):
        _, vectors = case
        want = reduce(lambda acc, v: _pairwise_sparse(1, acc, 1, v), vectors)
        fold = reduce(lambda acc, v: linear_combine(1, acc, 1, v), vectors)
        got = accumulate(vectors)
        assert _items(got) == _items(fold) == _items(want)
        assert repr(got.norm()) == repr(_pairwise_norm(want))

    def test_cancelled_index_comes_back_at_the_end(self):
        vs = [SparseVector({1: 0.1, 2: 0.5}, L2), SparseVector({3: 1.0, 1: -0.1}, L2),
              SparseVector({1: 0.25, 4: 2.0}, L2)]
        assert list(accumulate(vs).entries.items()) == [(2, 0.5), (3, 1.0), (1, 0.25), (4, 2.0)]

    def test_space_mismatch_rejected(self):
        with pytest.raises(ValueError):
            accumulate([SparseVector({1: 1}, L2), SparseVector({1: 1}, C0_SEQ)])
        with pytest.raises(ValueError):
            distance(SparseVector({1: 1}, L2), SparseVector({1: 1}, C0_SEQ))

    @settings(max_examples=400, deadline=None)
    @given(sparse_pairs())
    def test_distance_matches_the_norm_of_the_difference(self, pair):
        u, v = pair
        got = distance(u, v)
        assert repr(got) == repr(linear_combine(1, u, -1, v).norm())
        assert repr(got) == repr(_pairwise_norm(_pairwise_sparse(1, u, -1, v)))
        if u == v:
            assert repr(got) == "0.0"

    @settings(max_examples=400, deadline=None)
    @given(special_pairs())
    def test_distance_builds_no_vector_and_keeps_the_bits(self, pair):
        u, v = pair  # a huge entry overflows at p = 3 on both sides
        assert _outcome(distance, u, v) == _outcome(lambda: linear_combine(1, u, -1, v).norm())

    def test_distance_refuses_a_space_mismatch(self):
        for space in (C0_SEQ, SequenceSpace(3.0)):
            with pytest.raises(ValueError, match="^sequence space mismatch$"):
                distance(SparseVector({1: 1}, L2), SparseVector({2: 1}, space))

    @settings(max_examples=300, deadline=None)
    @given(sparse_pairs(), st.sampled_from(WEIGHTS), st.sampled_from(WEIGHTS))
    def test_combine_matches_the_pairwise_code(self, pair, a, b):
        u, v = pair
        got, want = linear_combine(a, u, b, v), _pairwise_sparse(a, u, b, v)
        assert _items(got) == _items(want)
        assert repr(got.norm()) == repr(want.norm())


# --------------------------------------------------------------------------
# polynomial sums against the pairwise code written out


def _pairwise_poly(a, u, b, v):
    """The former ``PolySeries.combine``: both lists padded with int 0, then a*x + b*y."""
    n = max(len(u.coeffs), len(v.coeffs))
    cu = u.coeffs + [0] * (n - len(u.coeffs))
    cv = v.coeffs + [0] * (n - len(v.coeffs))
    return PolySeries([a * x + b * y for x, y in zip(cu, cv)], u.model)


def _unsigned(c):
    """c with the sign of each zero part dropped (x + 0.0 keeps every other float)."""
    if isinstance(c, complex):
        return complex(c.real + 0.0, c.imag + 0.0)
    return c + 0.0 if isinstance(c, float) else c


def _assert_same_poly(got, want):
    """Same length and coefficient types, equal coefficients, repr equal up to zero signs."""
    assert len(got.coeffs) == len(want.coeffs)
    assert [type(c) for c in got.coeffs] == [type(c) for c in want.coeffs]
    assert got.coeffs == want.coeffs
    assert repr([_unsigned(c) for c in got.coeffs]) == repr([_unsigned(c) for c in want.coeffs])


POLY_MODELS = [HARDY, CkModel(2, 0.5, 0.75), CkModel(1, -0.5, 0.5)]
INTS = [1, -1, 2, -3, 5]


@st.composite
def poly_lists(draw):
    """Polynomials of different lengths in one model, with runs of int 0 coefficients.

    Scalars are ints, floats, Fractions or a mix.  Some polynomials are
    negated, as a -1 twist does.  Some lists get, after a prefix, a term that
    cancels the prefix's sum exactly at its top degree (so the trim runs), at
    a middle degree, or everywhere, and a longer term after it.
    """
    model = draw(st.sampled_from(POLY_MODELS))
    scalars = draw(st.sampled_from([INTS, FLOATS, FRACTIONS, INTS + FLOATS + FRACTIONS]))
    coeff = st.one_of(st.just(0), st.sampled_from(scalars))
    polys = []
    for _ in range(draw(st.integers(1, 7))):
        p = PolySeries(draw(st.lists(coeff, max_size=8)), model)
        polys.append(p.scaled(-1) if draw(st.booleans()) else p)
    if draw(st.booleans()):
        cut = draw(st.integers(1, len(polys)))
        prefix = reduce(lambda acc, p: _pairwise_poly(1, acc, 1, p), polys[:cut])
        if prefix.coeffs:
            where = draw(st.sampled_from(["top", "middle", "all"]))
            if where == "all":
                cancel = prefix.scaled(-1)
            else:
                j = prefix.degree if where == "top" else draw(st.integers(0, prefix.degree))
                cancel = PolySeries([0] * j + [-prefix.coeffs[j]], model)
            polys.insert(cut, cancel)
            polys.append(PolySeries(draw(st.lists(coeff, min_size=1, max_size=10)), model))
    return polys


class TestPolySum:
    # the float sum cancels at degree 1 and is trimmed there, so the last
    # Fraction is added to int 0 padding and stays a Fraction
    @example(polys=[PolySeries([1.0, 0.5], HARDY), PolySeries([0, -0.5], HARDY),
                    PolySeries([0, Fraction(1, 3)], HARDY)])
    @settings(max_examples=300, deadline=None)
    @given(poly_lists())
    def test_accumulate_matches_the_pairwise_fold(self, polys):
        want = reduce(lambda acc, p: _pairwise_poly(1, acc, 1, p), polys)
        got = accumulate(polys)
        _assert_same_poly(got, want)
        assert repr(got.norm()) == repr(want.norm())
        if isinstance(got.model, CkModel):
            assert repr(got.ck_norm_interval()) == repr(want.ck_norm_interval())

    # 0.5 * 0 = 0.0 pads v, so the Fraction past v's end turns float
    @example(polys=[PolySeries([Fraction(1, 3), Fraction(2)], HARDY), PolySeries([1], HARDY)],
             a=Fraction(1, 3), b=0.5)
    @settings(max_examples=300, deadline=None)
    @given(poly_lists(), st.sampled_from(WEIGHTS), st.sampled_from(WEIGHTS))
    def test_combine_matches_the_pairwise_code(self, polys, a, b):
        u, v = polys[0], polys[-1]
        got, want = linear_combine(a, u, b, v), _pairwise_poly(a, u, b, v)
        _assert_same_poly(got, want)
        assert repr(got.norm()) == repr(want.norm())

    def test_model_mismatch_rejected(self):
        with pytest.raises(ValueError, match="model"):
            accumulate([PolySeries([1], HARDY), PolySeries([1], CkModel(1, 0.0, 1.0))])


# --------------------------------------------------------------------------
# the C^k Lipschitz term over the nonzero coefficients


def _full_lipschitz_interval(f):
    """Oracle: ``ck_norm_interval`` with the Lipschitz sum over every coefficient, zeros too."""
    m = f.model
    if not f.coeffs:
        return (0.0, 0.0)
    big = max(m.b - m.a, 1.0)
    grid = _ck_grid(m.b - m.a)
    lo = hi = 0.0
    d = f.coeffs
    for i in range(m.k + 1):
        if i:
            d = [j * d[j] for j in range(1, len(d))]
        if not d:
            break
        sample = spaces._grid_max(list(enumerate(d)), grid,
                                  real=not any(isinstance(c, complex) for c in d))
        if math.isnan(sample):
            return (math.nan, math.nan)
        lip = sum(float(abs(c)) * j * big ** (j - 1) for j, c in enumerate(d) if j >= 1)
        lo = max(lo, sample)
        hi = max(hi, sample + _CK_MESH * lip)
    return (lo, max(lo, hi))


ZEROS = [0, 0.0, -0.0, Fraction(0), 0j]
NONZEROS = [3, -1, 0.7, -2.5e-3, 1e-200, Fraction(-5, 3), Fraction(1, 7), 1.5 - 2j, -0.25j]


@st.composite
def runs_of_zeros(draw):
    """Coefficients in runs: a nonzero scalar, then up to 9 zeros of any type."""
    coeffs = []
    for _ in range(draw(st.integers(1, 5))):
        coeffs.append(draw(st.sampled_from(NONZEROS)))
        coeffs += [draw(st.sampled_from(ZEROS)) for _ in range(draw(st.integers(0, 9)))]
    return coeffs


class TestLipschitzSkip:
    @settings(max_examples=120, deadline=None)
    @given(runs_of_zeros(), st.integers(0, 3),
           st.sampled_from([(0.5, 0.75), (0.0, 1.0), (-1.0, 0.5)]))  # L < 1, = 1, > 1
    def test_skipping_zero_coefficients_keeps_every_bit(self, coeffs, k, ab):
        f = PolySeries(coeffs, CkModel(k, *ab))
        assert repr(f.ck_norm_interval()) == repr(_full_lipschitz_interval(f))

    def test_an_overflowing_power_still_raises(self):
        # the powers 10^309..10^317 of the zero coefficients overflow in the full
        # sum; the top coefficient's 10^318 overflows in the skipping one
        f = PolySeries([1.0] + [0] * 318 + [1e-300], CkModel(1, 0.0, 10.0))
        assert f.degree == 319
        with pytest.raises(OverflowError):
            _full_lipschitz_interval(f)
        with pytest.raises(OverflowError):
            f.ck_norm_interval()

    @pytest.mark.parametrize("coeffs", [
        [1e308, 1e308],  # the sample at u = 1 is inf
        [0, 1e308, 5e307],  # B of that: the sample is 1.5e308, the Lipschitz sum inf
    ])
    def test_an_infinite_norm_is_an_overflow(self, coeffs):
        f = PolySeries(coeffs, CkModel(0, 0.0, 1.0))
        assert math.isinf(_full_lipschitz_interval(f)[1])
        with pytest.raises(OverflowError, match="beyond the float range"):
            f.ck_norm_interval()


# --------------------------------------------------------------------------
# l^p norms whose sum of powers underflows


TINY_NORMS = {  # the three sums of squares that rescale below the smallest normal float
    "l2": lambda mags: SparseVector(dict(enumerate(mags, 1)), L2).norm(),
    "hardy": lambda mags: PolySeries(mags, HARDY).norm(),
    "combined": lambda mags: criterion._combined(mags, 2.0),
}


class TestTinyNorms:
    def test_underflowing_squares_keep_the_norm(self):
        assert SparseVector({2: 1e-200}, L2).norm() == 1e-200
        assert SparseVector({2: 1e-160}, L2).norm() == 1e-160
        assert PolySeries([0, 1e-200], HARDY).norm() == 1e-200
        assert criterion._combined([1e-200, 0.0], 2.0) == 1e-200
        assert SparseVector({1: 1e-110, 2: 1e-110}, SequenceSpace(3.0)).norm() \
            == pytest.approx(2 ** (1 / 3) * 1e-110, rel=1e-15)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(sorted(TINY_NORMS)),
           st.lists(st.floats(0.25, 4.0), min_size=1, max_size=5), st.integers(0, 1100))
    @example(kind="hardy", mags=[1.6034566112302815, 2.5437420972507785], k=2)
    @example(kind="combined", mags=[1.5110482062345847, 3.3103669654279146], k=313)
    def test_scaling_by_a_power_of_two_scales_the_norm(self, kind, mags, k):
        norm = TINY_NORMS[kind]
        want = math.ldexp(norm(mags), -k)
        scaled = [math.ldexp(m, -k) for m in mags]
        squares = [m ** 2 for m in scaled]
        # a subnormal entry that ldexp rounded is no scaling of the original
        assume(all(math.ldexp(s, k) == m for s, m in zip(scaled, mags)))
        assume(want >= sys.float_info.min)  # the result stays normal
        # a normal sum of subnormal squares has rounded them: only the sums
        # with every square normal, or below the smallest normal, are exact
        assume(min(squares) >= sys.float_info.min or sum(squares) < sys.float_info.min)
        assert norm(scaled) == want


# --------------------------------------------------------------------------
# lp_norm against the norms it replaced, written out


def _former_power_sum_root(total, values, p, root):
    if total >= sys.float_info.min:
        return root(total)
    mags = [float(abs(c)) for c in values]
    e = -math.frexp(max(mags, default=0.0))[1]
    scaled = [math.ldexp(m, e) for m in mags]
    return math.ldexp(root(sum(s * s if p == 2 else s ** p for s in scaled)), -e)


def _former_l2_norm(values):
    """The former Hardy norm, and SparseVector.norm on l2."""
    return _former_power_sum_root(float(sum(a * a for a in map(abs, values))), values, 2,
                                  math.sqrt)


def _former_sparse_norm(values, space):
    if space.p == math.inf:
        return float(max((abs(c) for c in values), default=0))
    p = space.p
    if p == 2:
        return _former_l2_norm(values)
    return _former_power_sum_root(float(sum(float(abs(c)) ** p for c in values)), values, p,
                                  lambda s: s ** (1.0 / p))


def _former_combined(term_norms, p):
    """The former ``criterion._combined`` away from p = 2, the one place its bits move."""
    if p is None:
        return sum(term_norms)
    if p == math.inf:
        return max(term_norms)
    return _former_power_sum_root(sum(t**p for t in term_norms), term_norms, p,
                                  lambda s: s ** (1.0 / p))


def _outcome(norm, *args):
    """repr of the norm, or the name of the error it raises (huge entries overflow)."""
    try:
        return repr(norm(*args))
    except OverflowError as exc:
        return type(exc).__name__


def _rescaled_norm(values, p):
    """max|a| (sum (|a|/max)^p)^(1/p), the l^p norm written out without overflow,
    or None when some |a| is infinite or past the float range."""
    try:
        mags = [float(abs(a)) for a in values]
    except OverflowError:
        return None
    if not all(map(math.isfinite, mags)):
        return None
    top = max(mags)
    return top * math.fsum((m / top) ** p for m in mags) ** (1 / p)


def assert_former_outcome(got, former, values, p):
    """``got`` is the former outcome, except where the former power sum overflowed
    (raised or read inf) on finite entries: there it is within a relative 1e-12 of
    ``_rescaled_norm``, or an OverflowError at the edge of the float range or past it."""
    overflowed = former in ("OverflowError", "inf") and p not in (None, math.inf)
    ref = _rescaled_norm(values, p) if overflowed else None
    edge = sys.float_info.max * (1 - 1e-12)
    if ref is None:
        assert got == former
    elif got == "OverflowError":
        assert ref >= edge, (ref, former)
    else:
        assert math.isfinite(float(got)), got
        assert math.isclose(float(got), ref, rel_tol=1e-12) or min(ref, float(got)) >= edge


ANY_FLOAT = st.floats(allow_nan=False, allow_subnormal=True)
NORM_SCALARS = st.one_of(
    st.lists(ANY_FLOAT, max_size=6),
    st.lists(st.floats(-1e-150, 1e-150, allow_subnormal=True), max_size=6),
    st.lists(st.fractions(max_denominator=10**400), max_size=6),
    st.lists(st.builds(complex, ANY_FLOAT, ANY_FLOAT), max_size=6),
    st.lists(st.one_of(st.just(0), ANY_FLOAT, st.fractions()), max_size=6),
)


class TestLpNorm:
    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from([SequenceSpace(1.0), SequenceSpace(1.5), L2,
                            SequenceSpace(3.0), C0_SEQ]), NORM_SCALARS)
    def test_sequence_norms_keep_their_bits(self, space, values):
        assert_former_outcome(_outcome(spaces.lp_norm, values, space.p),
                              _outcome(_former_sparse_norm, values, space), values, space.p)
        v = SparseVector(dict(enumerate(values, 1)), space)
        assert_former_outcome(_outcome(v.norm),
                              _outcome(_former_sparse_norm, v.entries.values(), space),
                              v.entries.values(), space.p)

    @settings(max_examples=300, deadline=None)
    @given(NORM_SCALARS)
    def test_hardy_norm_keeps_its_bits(self, coeffs):
        assert_former_outcome(_outcome(PolySeries(coeffs, HARDY).norm),
                              _outcome(_former_l2_norm, coeffs), coeffs, 2)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([None, 1.0, 1.5, 3.0, math.inf]),
           st.lists(st.floats(0, allow_infinity=False, allow_subnormal=True), min_size=1,
                    max_size=6))
    def test_combined_keeps_its_bits_away_from_p_two(self, p, term_norms):
        assert_former_outcome(_outcome(criterion._combined, term_norms, p),
                              _outcome(_former_combined, term_norms, p), term_norms, p)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_a_finite_entry_whose_power_overflows_keeps_its_norm(self, p):
        # 1e300 ** p is past the float range: the sum is taken again from scaled entries
        space = SequenceSpace(p)
        v, u = SparseVector({1: 1e300}, space), SparseVector({2: 1e300}, space)
        assert v.norm() == pytest.approx(1e300, rel=1e-15)
        assert distance(v, u) == pytest.approx(2 ** (1 / p) * 1e300, rel=1e-12)
        assert distance(v, v.scaled(-1)) == pytest.approx(2e300, rel=1e-12)

    def test_squares_that_overflow_keep_the_norm_exactly(self):
        assert SparseVector({1: 1e300}, L2).norm() == 1e300
        assert SparseVector({3: -1e300}, L2).norm() == 1e300
        assert PolySeries([0, 1e300], HARDY).norm() == 1e300

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_a_norm_past_the_float_range_raises(self, p):
        v = SparseVector({1: 1.5e308, 2: 1.5e308}, SequenceSpace(p))
        with pytest.raises(OverflowError):
            v.norm()

    def test_an_infinite_entry_keeps_its_outcome(self):
        assert spaces.lp_norm([math.inf, 1.0], 2) == spaces.lp_norm([math.inf], 3.0) == math.inf
        with pytest.raises(OverflowError):
            spaces.lp_norm([math.inf, 1e300], 3.0)

    def test_c0_is_the_max_norm(self):
        assert SparseVector({1: -3, 4: Fraction(7, 2)}, C0_SEQ).norm() == 3.5
        assert spaces.lp_norm([], math.inf) == spaces.lp_norm([], 2) == 0.0

    @pytest.mark.parametrize("space", [SequenceSpace(1.0), L2, C0_SEQ])
    def test_a_complex_nan_reads_nan_whatever_errno_holds(self, space):
        # as in the piecewise-linear walk: complex abs() takes its NaN path without
        # clearing the ERANGE an underflowing exp() left in errno
        z = complex(math.nan, 1)
        math.exp(-800)
        assert math.isnan(spaces.lp_norm([z], space.p))
        math.exp(-800)
        assert math.isnan(SparseVector({1: z}, space).norm())
        math.exp(-800)
        assert math.isnan(distance(SparseVector({1: z}, space), SparseVector({2: 1.0}, space)))
        with pytest.raises(OverflowError):
            spaces.lp_norm([complex(1.5e308, 1.5e308)], space.p)


# --------------------------------------------------------------------------
# the C^k grid maximum against numpy's full sweep


def _numpy_samples(f):
    """(grid sample, Lipschitz sum) of each derivative 0..k of f, np.polyval on every point."""
    m = f.model
    big = max(m.b - m.a, 1.0)
    grid = np.arange(0, m.b - m.a + _CK_MESH, _CK_MESH)
    for i in range(m.k + 1):
        d = f.derivative_coeffs(i)
        if not d:
            return
        with np.errstate(over="ignore", invalid="ignore"):
            vals = np.polyval([complex(c) if isinstance(c, complex) else float(c)
                               for c in reversed(d)], grid)
            sample = float(np.max(np.abs(vals)))
        yield sample, sum(float(abs(c)) * j * big ** (j - 1) for j, c in enumerate(d) if j >= 1)


def _interval(samples):
    lo = hi = 0.0
    for sample, lip in samples:
        lo = max(lo, sample)
        hi = max(hi, sample + _CK_MESH * lip)
    return (lo, max(lo, hi))


def numpy_ck_norm_interval(f):
    """Oracle: ``ck_norm_interval`` as first written, np.polyval on every point of the u grid."""
    return _interval(_numpy_samples(f))


def numpy_ck_outcome(f):
    """The numpy oracle read as ``ck_norm_interval`` reads its samples, derivative by
    derivative: a NaN sample gives (nan, nan), an infinite sample or Lipschitz sum
    an OverflowError, whichever comes first; else the oracle's interval."""
    samples = list(_numpy_samples(f))
    for sample, lip in samples:
        if math.isnan(sample):
            return "(nan, nan)"
        if math.inf in (sample, lip):
            return "OverflowError"
    return repr(_interval(samples))


def full_scan_grid_max(coeffs, length):
    """Oracle: Horner and abs on every point of the u grid on [0, length], complex kept complex."""
    cs = [complex(c) for c in reversed(coeffs)]
    best = 0.0
    for u in np.arange(0, length + _CK_MESH, _CK_MESH).tolist():
        acc = 0.0
        for c in cs:
            acc = acc * u + c
        best = max(best, abs(acc))
    return best


CK_INTERVALS = [(0.0, 1.0), (-1.0, 1.0), (-2.0, 2.0), (0.5, 2.0), (0.5, 0.75)]


def _expansion(n, base, scalar):
    """Coefficients of scalar(u - base)^n / n!, exact, then converted by ``scalar``."""
    base = Fraction(base)
    return [scalar(math.comb(n, j) * (-base) ** (n - j) / Fraction(math.factorial(n)))
            for j in range(n + 1)]


def _count_grid_values(monkeypatch):
    """Count the grid points ``_grid_max`` evaluates, through its evaluator."""
    count = [0]
    evaluate = spaces._polyval

    def counting(cs, xs):
        count[0] += len(xs)
        return evaluate(cs, xs)

    monkeypatch.setattr(spaces, "_polyval", counting)
    return count


class TestCkGridMax:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(-512, 512), st.integers(1, 32), st.integers(4, 8))
    def test_grid_matches_numpy_arange(self, num, width, scale):
        a, b = num / 2**scale, (num + width) / 2**scale
        length = b - a
        n, point = _ck_grid(length)
        assert [point(i) for i in range(n)] == np.arange(0, length + _CK_MESH, _CK_MESH).tolist()

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.one_of(st.integers(-9, 9), st.fractions(-9, 9, max_denominator=16),
                              st.floats(-3, 3)), max_size=71),
           st.sampled_from(CK_INTERVALS), st.integers(0, 3))
    def test_matches_numpy_oracle(self, coeffs, interval, k):
        f = PolySeries(coeffs, CkModel(k, *interval))
        assert repr(f.ck_norm_interval()) == repr(numpy_ck_norm_interval(f))

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 70), st.sampled_from(CK_INTERVALS), st.integers(0, 3),
           st.sampled_from([Fraction, float, lambda c: -float(c)]))
    def test_expansions_at_the_base_point_match_numpy(self, n, interval, k, scalar):
        # (u - c)^n / n! expanded at the centre c of [0, L], where the coefficients
        # cancel and only the mean-value bound closes
        a, b = interval
        f = PolySeries(_expansion(n, (b - a) / 2, scalar), CkModel(k, a, b))
        assert repr(f.ck_norm_interval()) == repr(numpy_ck_norm_interval(f))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 20), st.integers(1, 20), st.sampled_from(CK_INTERVALS),
           st.integers(0, 3), st.sampled_from([Fraction, float]))
    def test_interior_maxima_match_numpy(self, i, j, interval, k, scalar):
        # u^i (L - u)^j peaks inside [0, L] and vanishes at both ends, so a
        # block skipped in error loses the maximum
        a, b = map(Fraction, interval)
        coeffs = [Fraction(1)]
        for root, sign, times in ((0, 1, i), (b - a, -1, j)):
            for _ in range(times):  # multiply by sign * (u - root)
                coeffs = [sign * (lo - root * hi) for lo, hi in zip([0] + coeffs, coeffs + [0])]
        f = PolySeries([scalar(c) for c in coeffs], CkModel(k, *interval))
        assert repr(f.ck_norm_interval()) == repr(numpy_ck_norm_interval(f))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.complex_numbers(max_magnitude=4, allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=12),
           st.sampled_from(CK_INTERVALS))
    def test_complex_matches_a_full_scan(self, coeffs, interval):
        # np.abs of a complex value may differ from Python's abs by an ulp, so
        # the oracle is the same Horner and abs on every point
        got = PolySeries(coeffs, CkModel(0, *interval)).ck_norm_interval()[0]
        assert repr(got) == repr(full_scan_grid_max(coeffs, interval[1] - interval[0]))

    @pytest.mark.parametrize("coeffs", [
        [0.5 - 1j, 3, Fraction(-7, 4), 2.0, -1],  # only the constant: derivatives 1..3 real
        [1, -2.5, Fraction(1, 3), 0.25 + 2j],  # the top one: every derivative complex
        [1, 0j, 2.5, -1],  # a complex zero: derivatives 0 and 1 complex
    ], ids=["constant", "top", "zero"])
    def test_derivatives_take_the_path_of_their_own_coefficients(self, monkeypatch, coeffs):
        f = PolySeries(coeffs, CkModel(3, 0.0, 1.0))
        paths, grid_max = [], spaces._grid_max

        def recorded(d, grid, real):
            paths.append(real)
            return grid_max(d, grid, real)

        monkeypatch.setattr(spaces, "_grid_max", recorded)
        lo, hi = f.ck_norm_interval()
        ds = [f.derivative_coeffs(i) for i in range(4)]
        assert paths == [not any(isinstance(c, complex) for c in d) for d in ds]
        samples = [full_scan_grid_max(d, 1.0) for d in ds]
        assert repr(lo) == repr(max(samples))
        real = [i for i, d in enumerate(ds) if paths[i]]
        assert [repr(grid_max(list(enumerate(ds[i])), _ck_grid(1.0), True)) for i in real] == [
            repr(numpy_ck_norm_interval(PolySeries(ds[i], CkModel(0, 0.0, 1.0)))[0])
            for i in real]
        assert lo <= hi

    @pytest.mark.parametrize("coeffs", [
        [1.0, math.nan],  # NaN at the end points
        [1j, 0, 1.5e308, 1.5e308, -1.5e308],  # inf * 0 in the imaginary part, inside only
    ], ids=["ends", "inside"])
    def test_nan_value_makes_the_sample_nan(self, coeffs):
        # the sample is NaN, as np.max makes it; the oracle's max() then drops
        # it and reports (0.0, 0.0), but the interval is NaN, so nothing built
        # on it certifies
        f = PolySeries(coeffs, CkModel(0, 0.0, 1.0))
        real = not any(isinstance(c, complex) for c in coeffs)
        assert repr(spaces._grid_max(list(enumerate(coeffs)), _ck_grid(1.0), real)) == "nan"
        assert repr(f.ck_norm_interval()) == "(nan, nan)"

    @pytest.mark.parametrize("coeffs", [[Fraction(1, 3), 2, 0.5, 1e-3], [-1.0, -0.25, 0, -7.0]])
    @pytest.mark.parametrize("interval", [(0.0, 1.0), (0.5, 2.0)])
    def test_single_sign_on_nonnegative_interval_costs_two_points(
            self, monkeypatch, coeffs, interval):
        count = _count_grid_values(monkeypatch)
        f = PolySeries(coeffs, CkModel(3, *interval))
        assert repr(f.ck_norm_interval()) == repr(numpy_ck_norm_interval(f))
        assert count[0] == 2 * 4

    def test_threshold_search_evaluates_few_points(self, monkeypatch):
        # the full sweep evaluates 4 * 10001 points per call on C^3[0,1]
        count = _count_grid_values(monkeypatch)
        calls = [0]
        norm_interval = PolySeries.ck_norm_interval

        def counting_calls(f):
            calls[0] += 1
            return norm_interval(f)

        monkeypatch.setattr(PolySeries, "ck_norm_interval", counting_calls)
        cert = operators.make_certificate(operators.Differentiation(CkModel(3, 0.0, 1.0)), 5)
        criterion.compute_thresholds(cert)
        assert calls[0] > 0
        assert count[0] <= 100 * calls[0]


# --------------------------------------------------------------------------
# the C^k kernel over runs of zero coefficients


SPECIALS = [0.0, -0.0, 1.5, -2.0, math.inf, -math.inf, math.nan, 5e-324, 1e308]
REAL_NONZEROS = [3, -1, 0.7, -2.5e-3, 1e-200, Fraction(-5, 3), Fraction(1, 7),
                 math.nan, math.inf, -math.inf]
# L = 1 (the last grid point is 1.0), then L = 0.5, 1.5, 2 and 3, some with a < 0
ZERO_RUN_INTERVALS = [(0.0, 1.0), (-1.0, 0.0), (-0.25, 0.75), (0.25, 0.75), (-1.0, 0.5),
                      (-2.0, 0.0), (0.5, 2.5), (-1.0, 2.0), (0.5, 3.5)]


@st.composite
def zero_heavy(draw):
    """Degree <= 80 with at most 4 nonzero coefficients, the top one among them,
    and zeros of every spelling."""
    degree = draw(st.integers(0, 80))
    spellings = [ZEROS[i] for i in sorted(draw(st.sets(st.integers(0, len(ZEROS) - 1),
                                                      min_size=1)))]
    coeffs = draw(st.lists(st.sampled_from(spellings), min_size=degree + 1, max_size=degree + 1))
    scalar = st.one_of(st.floats(-4, 4).filter(bool), st.sampled_from(REAL_NONZEROS))
    for j in draw(st.lists(st.integers(0, degree), max_size=3)) + [degree]:
        coeffs[j] = draw(scalar)
    return coeffs


def _dense_horner(cs, x):
    """np.polyval's steps at x over every coefficient, highest degree first."""
    acc = 0.0
    for c in cs:
        acc = acc * x + c
    return acc


def _size(v):
    return repr(spaces._modulus(v) if isinstance(v, complex) else abs(v))


class TestZeroRuns:
    @settings(max_examples=150, deadline=None)
    @given(zero_heavy(), st.integers(0, 5), st.sampled_from(ZERO_RUN_INTERVALS))
    def test_matches_numpy_oracle(self, coeffs, k, interval):
        f = PolySeries(coeffs, CkModel(k, *interval))
        assert _outcome(f.ck_norm_interval) == numpy_ck_outcome(f)

    @pytest.mark.parametrize("x", [0.0, 1.0, 0.37, 3.0], ids=["zero", "one", "generic", "big"])
    @pytest.mark.parametrize("kind", [float, complex])
    def test_a_zero_run_keeps_the_dense_modulus(self, x, kind):
        if kind is float:
            values, zeros = SPECIALS, [0.0, -0.0]
        else:
            values = [complex(a, b) for a in SPECIALS for b in SPECIALS]
            zeros = [0j, complex(-0.0, 0.0)]
        for top in values:
            if top == 0:
                continue
            for low in values:
                for z in (1, 2, 3, 7):
                    for zero in zeros:
                        dense = [top] + [zero] * z + [low]
                        runs = spaces._runs([(j, c) for j, c in enumerate(reversed(dense)) if c])
                        assert _size(spaces._horner(runs, x)) == _size(_dense_horner(dense, x))

    def test_a_complex_run_at_one_takes_two_products(self):
        # (inf + 0j) u^2 at u = 1: the dense steps give inf + nan j, then nan + nan j,
        # so a run cut after one product would read inf
        assert _size(_dense_horner([complex(math.inf, 0.0), 0j, 0j], 1.0)) == "nan"
        runs = spaces._runs([(2, complex(math.inf, 0.0))])
        assert runs == [(complex(math.inf, 0.0), 2)]
        assert _size(spaces._horner(runs, 1.0)) == "nan"

    def test_the_kernel_walks_one_run_per_nonzero(self, monkeypatch):
        f = PolySeries([0] * 500 + [1.0], CkModel(3, 0.0, 1.0))
        seen = set()
        evaluate = spaces._polyval

        def recorded(runs, xs):
            seen.add(tuple(runs))
            return evaluate(runs, xs)

        monkeypatch.setattr(spaces, "_polyval", recorded)
        got = f.ck_norm_interval()
        # x^500 and its derivatives 500 x^499, 500 * 499 x^498, 500 * 499 * 498 x^497
        assert seen == {((1.0, 500),), ((500.0, 499),), ((249500.0, 498),),
                        ((124251000.0, 497),)}
        assert repr(got) == repr(numpy_ck_norm_interval(f))

    def test_the_margins_are_built_only_when_read(self, monkeypatch):
        built = []
        margins = spaces._margins
        monkeypatch.setattr(spaces, "_margins", lambda d, un: built.append(d) or margins(d, un))
        # real and single-sign: the |c| bound closes every search
        PolySeries([Fraction(1, 3), 2, 0.5, 1e-3], CkModel(3, 0.0, 1.0)).ck_norm_interval()
        assert built == []
        # a cancelling expansion closes through the mean-value bound, which reads them
        f = PolySeries(_expansion(30, 0.5, float), CkModel(0, 0.0, 1.0))
        assert repr(f.ck_norm_interval()) == repr(numpy_ck_norm_interval(f))
        assert built == [30]


# --------------------------------------------------------------------------
# C^k polynomials stored in u = x - a on [0, L]


CK_NORM_INTERVALS = CK_INTERVALS + [(1.0, 3.0), (2.0, 3.0)]


def _exact_value(coeffs, t):
    """The polynomial with lowest-degree-first ``coeffs`` at t, in Fractions."""
    return reduce(lambda acc, c: acc * t + Fraction(c), reversed(coeffs), Fraction(0))


def _exact_sup(c, n, k, length):
    """max over i <= k of sup over [0, L] of |d^i/du^i c u^n / n!|: |c| L^(n-i) / (n-i)!."""
    return max(abs(Fraction(c)) * Fraction(length) ** (n - i) / math.factorial(n - i)
               for i in range(min(k, n) + 1))


def _mesh_correction(c, n, k, length):
    """The documented Lipschitz term: max over i <= k of mesh |c| (n-i) max(L, 1)^(n-i-1) / (n-i)!."""
    big = max(Fraction(length), 1)
    return max((Fraction(_CK_MESH) * abs(Fraction(c)) * (n - i) * big ** (n - i - 1)
                / math.factorial(n - i) for i in range(min(k, n) + 1) if n > i), default=0)


class TestCkCoordinate:
    @pytest.mark.parametrize("interval", CK_NORM_INTERVALS + [(1e10, 1.0001e10)])
    def test_targets_are_the_x_targets_at_a_plus_u(self, interval):
        # the C^k enumeration is the Hardy one (in x), stored exactly as p(a + u);
        # float mode rounds each exact u coefficient once
        model = CkModel(2, *interval)
        a = Fraction(interval[0])
        pairs = zip(enumerate_targets(HARDY, 40, exact=True),
                    enumerate_targets(model, 40, exact=True), enumerate_targets(model, 40))
        for x, u, f in pairs:
            for t in (Fraction(0), Fraction(1, 4), Fraction(3, 8), Fraction(1), Fraction(-5, 2)):
                assert _exact_value(u.coeffs, t) == _exact_value(x.coeffs, a + t)
            assert all(isinstance(c, (int, Fraction)) for c in u.coeffs)
            assert [type(c) for c in f.coeffs] == [float] * len(f.coeffs)
            assert f.coeffs == [float(c) for c in u.coeffs]

    @settings(max_examples=120, deadline=None)
    @given(st.sampled_from(CK_NORM_INTERVALS), st.integers(0, 3), st.integers(0, 70),
           st.integers(1, 6))
    def test_norm_interval_brackets_the_exact_sup(self, interval, k, n, l):
        # B^n of a constant target c is c u^n / n!, whose sup-norms are known exactly
        cert = operators.make_certificate(operators.Differentiation(CkModel(k, *interval)), 6)
        c = cert.target(l).coeffs[0]
        lo, hi = operators.apply_inverse(cert, cert.target(l), n).ck_norm_interval()
        length = interval[1] - interval[0]
        exact = _exact_sup(c, n, k, length)
        assert Fraction(hi) >= exact
        assert Fraction(lo) <= exact * (1 + Fraction(1, 10**12))
        assert Fraction(hi) - exact <= (_mesh_correction(c, n, k, length) * (1 + Fraction(1, 10**9))
                                        + exact * Fraction(1, 10**12))

    @pytest.mark.parametrize("interval, k, n", [
        ((1.0, 3.0), 0, 20), ((0.5, 2.0), 0, 60), ((2.0, 3.0), 0, 30), ((0.5, 2.0), 2, 60),
        ((-1.0, 1.0), 3, 40)])
    def test_inverse_images_of_one_are_tight(self, interval, k, n):
        # stored in u, the coefficients of u^n / n! do not cancel, so the upper end
        # is within the mesh correction; the lower end is a computed value, so it
        # may sit a few ulps above the exact sup
        cert = operators.make_certificate(operators.Differentiation(CkModel(k, *interval)), 1)
        lo, hi = operators.apply_inverse(cert, cert.target(1), n).ck_norm_interval()
        exact = _exact_sup(1, n, k, interval[1] - interval[0])
        assert Fraction(lo) <= exact * (1 + Fraction(1, 10**12))
        assert exact <= Fraction(hi) <= exact * Fraction(101, 100)

    def test_taylor_shift_runs_only_in_the_enumeration(self, monkeypatch):
        calls = []
        shift = spaces._taylor_shift

        def counting(coeffs, a):
            calls.append(a)
            return shift(coeffs, a)

        monkeypatch.setattr(spaces, "_taylor_shift", counting)
        cert = operators.make_certificate(operators.Differentiation(CkModel(2, 0.5, 2.0)), 2)
        assert calls == [Fraction(1, 2)] * 2  # one conversion per target
        criterion.compute_thresholds(cert)
        assert len(calls) == 2
