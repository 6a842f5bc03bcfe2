"""Operator actions, right inverses, and certificate transforms."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fhclab.operators import (
    Differentiation,
    TranslationGenerator,
    WeightedBackwardShift,
    apply_forward,
    apply_inverse,
    forward_extinction_index,
    make_certificate,
    right_inverse_identity_check,
    transform_inverse,
    transform_power,
    transform_rotation,
)
from fhclab.spaces import (
    C0_PLUS,
    CkModel,
    HARDY,
    L2,
    PiecewiseLinearFn,
    PolySeries,
    SparseVector,
    _taylor_shift,
    distance,
)


def shift_cert(w=2, L=3, exact=False):
    return make_certificate(WeightedBackwardShift(w, L2), L, exact=exact)


class TestShift:
    def test_forward_action_on_basis(self):
        # (x_k) -> (w^k x_{k+1}): e_3 maps to w^2 e_2
        cert = shift_cert()
        out = apply_forward(cert, SparseVector({3: 1}, L2), 1)
        assert out.entries == {2: 4}

    def test_kernel_of_forward(self):
        cert = shift_cert()
        out = apply_forward(cert, SparseVector({1: 1}, L2), 1)
        assert out.is_zero()

    def test_inverse_action_on_basis(self):
        # B e_k = w^{-k} e_{k+1}
        cert = shift_cert(w=Fraction(2), exact=True)
        out = apply_inverse(cert, SparseVector({1: 1}, L2), 1)
        assert out.entries == {2: Fraction(1, 2)}

    def test_iterated_inverse_weights(self):
        # B^n e_k carries w^{-(k + ... + k+n-1)}
        cert = shift_cert(w=Fraction(2), exact=True)
        out = apply_inverse(cert, SparseVector({1: 1}, L2), 3)
        assert out.entries == {4: Fraction(1, 2 ** (1 + 2 + 3))}

    def test_right_inverse_identity_exact(self):
        cert = shift_cert(w=Fraction(2), exact=True)
        v = SparseVector({1: Fraction(3), 4: Fraction(-1, 7)}, L2)
        assert right_inverse_identity_check(cert, v) == 0.0

    def test_weight_must_expand(self):
        with pytest.raises(ValueError):
            WeightedBackwardShift(1, L2)

    @given(st.integers(1, 8), st.integers(1, 6))
    @settings(max_examples=30, deadline=None)
    def test_forward_undoes_inverse_on_basis(self, k, n):
        cert = shift_cert(w=Fraction(3), exact=True)
        v = SparseVector({k: 1}, L2)
        w = apply_forward(cert, apply_inverse(cert, v, n), n)
        assert distance(v, w) == 0.0


class TestDifferentiationHardy:
    def setup_method(self):
        self.cert = make_certificate(Differentiation(HARDY), 2, exact=True)

    def test_inverse_is_antiderivative(self):
        # B^n z^k = k!/(k+n)! z^{k+n}
        f = PolySeries([0, 0, Fraction(1)], HARDY)
        out = apply_inverse(self.cert, f, 3)
        assert out.coeffs[5] == Fraction(2 * 1, 5 * 4 * 3 * 2)
        assert out.min_degree() == 5

    def test_forward_is_derivative(self):
        f = PolySeries((0, 0, 0, Fraction(1)), HARDY)
        out = apply_forward(self.cert, f, 2)
        assert out.coeffs == [0, 6]

    def test_identity_on_polynomials(self):
        f = PolySeries((Fraction(1), Fraction(-2), Fraction(1, 3)), HARDY)
        assert right_inverse_identity_check(self.cert, f) == 0.0


class TestDifferentiationCk:
    def test_antiderivative_vanishes_at_left_endpoint(self):
        model = CkModel(2, 0.0, 1.0)
        cert = make_certificate(Differentiation(model), 1, exact=True)
        f = PolySeries((Fraction(1),), model)
        out = apply_inverse(cert, f, 1)
        assert out.coeffs[0] == 0  # the value at x = 0
        assert out.coeffs == [0, Fraction(1)]


def _stepwise_inverse(space, coeffs, m, a=0):
    """Reference B^m: m single integration steps, each fixing F(a) = 0."""
    coeffs = list(coeffs)
    for _ in range(m):
        if not coeffs:
            break
        anti = [0]
        for j, c in enumerate(coeffs):
            if isinstance(c, Fraction) or (isinstance(c, int) and not isinstance(c, bool)):
                anti.append(Fraction(c, j + 1))
            else:
                anti.append(c / (j + 1))
        if a != 0:
            val = 0
            for c in reversed(anti):
                val = val * a + c
            anti[0] = -val
        coeffs = anti
    return PolySeries(coeffs, space)


class TestClosedFormInverse:
    """Differentiation.inverse (closed form) against the stepwise reference.

    Both models store a polynomial in their own coordinate (u = x - a on
    C^k[a,b]), where B^m fixes F(0) = 0, so the reference integrates there.
    """

    coeffs = st.lists(st.one_of(st.just(0), st.fractions(-10, 10, max_denominator=50)),
                      max_size=7)
    spaces = st.sampled_from([HARDY] + [CkModel(3, a, a + 2)
                                        for a in (Fraction(0), Fraction(-1), Fraction(1, 2))])

    @given(spaces, coeffs, st.integers(1, 40))
    @settings(max_examples=150, deadline=None)
    def test_exact_mode_equals_stepwise(self, space, coeffs, m):
        v = PolySeries(coeffs, space)
        out = Differentiation(space).inverse(v, m)
        assert out == _stepwise_inverse(space, v.coeffs, m)
        assert all(isinstance(c, (int, Fraction)) for c in out.coeffs)
        if space != HARDY:
            # read in x, the image is the x-antiderivative vanishing to order m at a
            a = space.a
            x_coeffs = _taylor_shift(v.coeffs, -a)
            assert out.coeffs == PolySeries(_taylor_shift(
                _stepwise_inverse(space, x_coeffs, m, a).coeffs, a), space).coeffs

    @given(spaces, coeffs, st.integers(1, 40))
    @settings(max_examples=150, deadline=None)
    def test_float_mode_stays_float(self, space, coeffs, m):
        v = PolySeries([float(c) for c in coeffs], space)
        out = Differentiation(space).inverse(v, m)
        assert not any(isinstance(c, Fraction) for c in out.coeffs)
        ref = _stepwise_inverse(space, v.coeffs, m).coeffs
        assert [float(c).hex() for c in out.coeffs] == [float(c).hex() for c in ref]
        assert all(type(c) is int for c in out.coeffs if c == 0)

    def test_complex_coefficients_keep_the_division_chain(self):
        v = PolySeries([1 + 2j, 0.0, -0.5j], HARDY)
        out = Differentiation(HARDY).inverse(v, 7)
        assert out.coeffs == _stepwise_inverse(HARDY, v.coeffs, 7).coeffs
        assert all(isinstance(c, complex) for c in out.coeffs if c != 0)


class TestTranslation:
    def setup_method(self):
        self.cert = make_certificate(TranslationGenerator(1), 1)
        self.tent = PiecewiseLinearFn.tent(
            Fraction(0), Fraction(1), Fraction(2), Fraction(1))

    def test_forward_shifts_left_with_growth(self):
        out = apply_forward(self.cert, self.tent, 1)
        assert out.log_scale == 1
        assert out.breakpoints[-1] == 1

    def test_inverse_shifts_right_with_decay(self):
        out = apply_inverse(self.cert, self.tent, 2)
        assert out.log_scale == -2
        assert out.breakpoints[0] == 2

    def test_identity_residual_zero(self):
        assert right_inverse_identity_check(self.cert, self.tent) == 0.0


class TestExtinction:
    def test_shift_extinction_is_top_index(self):
        cert = shift_cert()
        v = SparseVector({2: 1.0, 7: -3.0}, L2)
        n = forward_extinction_index(cert, v)
        assert n == 7
        assert apply_forward(cert, v, n).is_zero()
        assert not apply_forward(cert, v, n - 1).is_zero()

    def test_hardy_extinction_is_degree_plus_one(self):
        cert = make_certificate(Differentiation(HARDY), 1)
        f = PolySeries((1, 0, 2), HARDY)
        assert forward_extinction_index(cert, f) == 3

    def test_translation_extinction_is_support_width(self):
        cert = make_certificate(TranslationGenerator(1), 1)
        tent = PiecewiseLinearFn.tent(0, 1, 2, 1)
        assert forward_extinction_index(cert, tent) == 2

    def test_power_certificate_divides_extinction(self):
        cert = transform_power(shift_cert(), 3)
        v = SparseVector({7: 1.0}, L2)
        assert forward_extinction_index(cert, v) == 3  # ceil(7/3)


class TestTransforms:
    def test_power_composes_forward_action(self):
        base = shift_cert(w=Fraction(2), exact=True)
        sq = transform_power(base, 2)
        v = SparseVector({5: 1}, L2)
        assert distance(apply_forward(sq, v, 1), apply_forward(base, v, 2)) == 0.0

    def test_power_requires_positive_exponent(self):
        with pytest.raises(ValueError):
            transform_power(shift_cert(), 0)

    def test_rotation_twists_each_step(self):
        base = shift_cert()
        rot = transform_rotation(base, -1)
        v = SparseVector({3: 1}, L2)
        out = apply_forward(rot, v, 1)
        assert out.entries == {2: -4}

    def test_rotation_rejects_non_unit_scalar(self):
        with pytest.raises(ValueError):
            transform_rotation(shift_cert(), 2)

    def test_rotation_preserves_identity_residual(self):
        rot = transform_rotation(shift_cert(w=Fraction(2), exact=True), -1)
        v = SparseVector({2: Fraction(5)}, L2)
        assert right_inverse_identity_check(rot, v) == 0.0

    def test_swap_exchanges_roles(self):
        base = shift_cert(w=Fraction(2), exact=True)
        swapped = transform_inverse(base)
        v = SparseVector({1: 1}, L2)
        assert distance(apply_forward(swapped, v, 2),
                        apply_inverse(base, v, 2)) == 0.0

    def test_target_count_follows_the_targets(self):
        base = shift_cert(L=3)
        for cert in (transform_power(base, 2), transform_rotation(base, -1),
                     transform_inverse(base)):
            assert cert.target_count == len(cert.targets) == 3

    def test_double_swap_is_identity(self):
        base = shift_cert(w=Fraction(2), exact=True)
        twice = transform_inverse(transform_inverse(base))
        v = SparseVector({3: Fraction(1), 6: Fraction(-2)}, L2)
        for n in range(1, 4):
            assert distance(apply_forward(twice, v, n),
                            apply_forward(base, v, n)) == 0.0
