"""Vector models: norms, combination algebra, enumeration, JSON codecs."""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

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
    accumulate,
    distance,
    enumerate_targets,
    from_json_dict,
    linear_combine,
    plf_shift_left,
    plf_shift_right,
    plf_sum,
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
        sp = SequenceSpace("lp", 3.0)
        v = SparseVector({1: 1, 2: 1}, sp)
        assert v.norm() == pytest.approx(2 ** (1 / 3))

    def test_rational_entries_stay_exact(self):
        v = SparseVector({1: Fraction(1, 3)}, L2)
        w = linear_combine(3, v, 0, v.scaled(0))
        assert w.entries[1] == 1

    @given(st.integers(min_value=1, max_value=50))
    def test_basis_norm_one(self, k):
        assert SparseVector.basis(k, L2).norm() == pytest.approx(1.0)

    def test_index_must_be_positive(self):
        with pytest.raises(ValueError):
            SparseVector({0: 1.0}, L2)


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


class TestPiecewiseLinear:
    def test_tent_norm(self):
        t = PiecewiseLinearFn.tent(0, 1, 2, 1)
        assert t.norm() == pytest.approx(1.0)
        assert t.eval(0.5) == pytest.approx(0.5)

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
        assert c.eval(1.5) == pytest.approx(1.0)

    @given(st.fractions(min_value=0, max_value=5))
    def test_shift_left_norm_never_grows(self, dt):
        t = PiecewiseLinearFn.tent(Fraction(0), Fraction(1), Fraction(2), Fraction(1))
        assert plf_shift_left(t, dt).norm() <= t.norm() + 1e-12


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


class TestJsonCodec:
    @pytest.mark.parametrize("v", [
        SparseVector({1: Fraction(1, 3), 5: -2.5}, L2),
        SparseVector({2: 1 + 2j}, C0_SEQ),
        PolySeries((Fraction(1, 2), 0, 3), HARDY),
        PiecewiseLinearFn.tent(Fraction(0), Fraction(1), Fraction(2), Fraction(1)),
        PolySeries((1.5, 0, -2.0, 0.25), CkModel(3, -1.0, 1.0)),
        PiecewiseLinearFn([0, Fraction(1, 2), 2], [Fraction(3, 4), 1, 0], Fraction(-5, 2)),
        PiecewiseLinearFn([0.5, 1.0, 3.0], [0, -2.0, 0], -3.25),
        SparseVector({1: 0.5, 3: -Fraction(1, 4)}, SequenceSpace("lp", 3.0)),
    ])
    def test_roundtrip(self, v):
        w = from_json_dict(json.loads(json.dumps(v.to_json_dict())))
        assert w == v
        assert distance(v, w) == 0.0

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError):
            from_json_dict({"type": "dense_vector", "entries": []})


class TestAccumulate:
    def test_sums_sparse_vectors(self):
        vs = [SparseVector.basis(k, L2) for k in range(1, 4)]
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


def _assert_close(got, want, terms):
    """Equal as functions to a few ulps of the terms' own magnitude."""
    mag = sum(abs(float(c)) * f.norm() for c, f in terms)
    tol = 8 * max(len(terms), 1) * math.ulp(mag)
    for x in _points(got, want):
        assert abs(got.eval(x) - want.eval(x)) <= tol, x


class TestPlfSum:
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
            accumulate([PiecewiseLinearFn.tent(0, 1, 2, 1), SparseVector.basis(1, L2)])

    def test_non_vectors_rejected(self):
        with pytest.raises(TypeError, match="int"):
            linear_combine(1, 3, 1, 4)
        with pytest.raises(TypeError, match="int"):
            accumulate([1, 2])
