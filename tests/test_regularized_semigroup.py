"""Semigroup law, generator recovery, image norm, and solution orbits."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fhclab import regularized_semigroup
from fhclab.constructor import assign_placements, orbit_eval
from fhclab.criterion import compute_thresholds
from fhclab.operators import TranslationGenerator, apply_forward, make_certificate
from fhclab.regularized_semigroup import (
    DiagonalDecayMultiplier,
    IdentityMultiplier,
    RegularizedSemigroup,
    SolutionOrbit,
    generator_residual,
    imc_norm,
    semigroup_law_residual,
    w_apply,
)
from fhclab.spaces import (
    HARDY,
    L2,
    PiecewiseLinearFn,
    PolySeries,
    SparseVector,
    distance,
)

UNIT_TENT = PiecewiseLinearFn.tent(Fraction(0), Fraction(1), Fraction(2), Fraction(1))


plf_strategy = st.builds(
    lambda cuts, raw: _mk_plf(cuts, raw),
    st.sets(st.fractions(min_value=0, max_value=6), min_size=2, max_size=5),
    st.lists(st.fractions(min_value=-3, max_value=3), min_size=5, max_size=5),
)


def _mk_plf(cuts, raw):
    bps = sorted(cuts)
    vals = list(raw[: len(bps)])
    vals[-1] = Fraction(0)
    if bps[0] != 0:
        vals[0] = Fraction(0)
    return PiecewiseLinearFn(tuple(bps), tuple(vals))


class TestWApply:
    def test_zero_time_is_c(self):
        sg = RegularizedSemigroup(lam=1)
        assert distance(w_apply(sg, 0, UNIT_TENT), UNIT_TENT) == 0.0

    def test_half_shift_frozen_example(self):
        sg = RegularizedSemigroup(lam=1)
        g = w_apply(sg, Fraction(1, 2), UNIT_TENT)
        assert g.breakpoints == [0, Fraction(1, 2), Fraction(3, 2)]
        assert g.log_scale == Fraction(1, 2)
        # clipped origin value is the old value at 1/2
        assert g.raw_eval(0) == Fraction(1, 2)

    def test_norm_growth_bound(self):
        sg = RegularizedSemigroup(lam=1)
        for t in (0.25, 1.0, 3.0):
            assert w_apply(sg, t, UNIT_TENT).norm() <= math.exp(t) * UNIT_TENT.norm() + 1e-12

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            w_apply(RegularizedSemigroup(lam=1), -1, UNIT_TENT)

    def test_strong_continuity_modulus(self):
        sg = RegularizedSemigroup(lam=1)
        y = UNIT_TENT
        prev = float("inf")
        for j in range(0, 11):
            t = Fraction(1, 2**j)
            gap = distance(w_apply(sg, t, y), y)
            modulus = (math.exp(t) - 1) * y.norm() + math.exp(t) * y.max_slope() * float(t)
            assert gap <= modulus + 1e-12
            assert gap <= prev + 1e-12
            prev = gap


class TestSemigroupLaw:
    def test_unit_times_exact_zero(self):
        sg = RegularizedSemigroup(lam=1)
        assert semigroup_law_residual(sg, 1, 1, UNIT_TENT) == 0.0

    def test_zero_s_commutes_with_c(self):
        sg = RegularizedSemigroup(lam=1)
        assert semigroup_law_residual(sg, Fraction(3, 2), 0, UNIT_TENT) == 0.0

    @settings(max_examples=60, deadline=None)
    @given(
        st.fractions(min_value=0, max_value=4),
        st.fractions(min_value=0, max_value=4),
        plf_strategy,
    )
    def test_law_exact_on_random_inputs(self, t, s, f):
        sg = RegularizedSemigroup(lam=1)
        assert semigroup_law_residual(sg, t, s, f) == 0.0

    def test_law_with_diagonal_decay_multiplier(self):
        sg = RegularizedSemigroup(lam=1, C=DiagonalDecayMultiplier(2.0))
        with pytest.raises(TypeError):
            # the diagonal model acts on sequences, not functions
            semigroup_law_residual(sg, 1, 1, UNIT_TENT)


class TestGenerator:
    def setup_method(self):
        self.sg = RegularizedSemigroup(lam=1)
        self.bump = PolySeries((0, 0, 1, -2, 1), HARDY)  # x^2 (1-x)^2

    def test_residual_small_at_fine_step(self):
        assert generator_residual(self.sg, self.bump, 1e-3) <= 1e-2

    def test_first_order_decay(self):
        r1 = generator_residual(self.sg, self.bump, 1e-3)
        r2 = generator_residual(self.sg, self.bump, 5e-4)
        assert 0.4 <= r2 / r1 <= 0.6

    def test_zero_function(self):
        assert generator_residual(self.sg, PolySeries((), HARDY), 1e-3) == 0.0

    def test_non_smooth_input_rejected(self):
        with pytest.raises(TypeError):
            generator_residual(self.sg, UNIT_TENT, 1e-3)


class TestImcNorm:
    def test_identity_multiplier_is_plain_norm(self):
        sg = RegularizedSemigroup(lam=1)
        v = SparseVector({2: 3.0}, L2)
        assert imc_norm(sg, v) == pytest.approx(3.0)

    def test_diagonal_decay_restores_scale(self):
        sg = RegularizedSemigroup(lam=1, C=DiagonalDecayMultiplier(2.0))
        v = SparseVector({3: 2.0**-3}, L2)
        assert imc_norm(sg, v) == pytest.approx(1.0)

    def test_norm_axioms(self):
        sg = RegularizedSemigroup(lam=1, C=DiagonalDecayMultiplier(2.0))
        import random

        rng = random.Random(5)
        for _ in range(100):
            u = SparseVector({rng.randint(1, 6): rng.uniform(-2, 2)}, L2)
            v = SparseVector({rng.randint(1, 6): rng.uniform(-2, 2)}, L2)
            a = rng.uniform(-3, 3)
            assert imc_norm(sg, u.scaled(a)) == pytest.approx(abs(a) * imc_norm(sg, u))
            from fhclab.spaces import linear_combine

            s = linear_combine(1, u, 1, v)
            assert imc_norm(sg, s) <= imc_norm(sg, u) + imc_norm(sg, v) + 1e-12


def full_scan_lipschitz(orbit, t0, t1):
    """Oracle: the bound as first written, scanning every placed j from the start."""
    p = orbit.placement
    lam = float(orbit.sg.lam)
    cert = p.cert
    widths = {}
    rates = {}
    for l in range(1, cert.target_count + 1):
        y = cert.target(l)
        widths[l] = float(y.breakpoints[-1]) if not y.is_zero() else 0.0
        rates[l] = lam * y.norm() + y.max_slope()
    total = 0.0
    for j in p.placed_ns:
        l = p.placements[j]
        if j + widths[l] < t0:
            continue
        gap = float(t1) - j
        total += math.exp(lam * min(gap, widths[l])) * rates[l]
        if j > t1 + p.backward_window:
            break
    total += (lam + 16.0) * p.backward_tail * math.exp(lam)
    return total


class TestSolutionOrbit:
    def setup_method(self):
        cert = make_certificate(TranslationGenerator(1), 1)
        self.p = assign_placements(compute_thresholds(cert), horizon=400)
        self.orbit = SolutionOrbit(self.p)

    def test_integer_times_match_discrete_orbit(self):
        for n in (0, 1, 3, 7):
            cont, _ = self.orbit.evaluate(n)
            disc, _ = orbit_eval(self.p, n)
            assert distance(cont, disc) == 0.0

    def test_fractional_step_is_exact_w_apply(self):
        base, err = self.orbit.evaluate(3)
        expected = w_apply(self.orbit.sg, Fraction(1, 4), base)
        got, got_err = self.orbit.evaluate(3.25)
        assert distance(got, expected) <= 1e-12
        assert got_err >= err

    def test_forward_undoes_inverse_on_targets(self):
        from fhclab.operators import apply_inverse

        cert = self.p.cert
        y = cert.target(1)
        assert distance(apply_forward(cert, apply_inverse(cert, y, 1), 1), y) == 0.0

    def test_lipschitz_bound_dominates_observed_slope(self):
        for t0 in (2.0, 3.0, 6.5):
            bound = self.orbit.lipschitz_bound(t0, t0 + 0.5)
            u, _ = self.orbit.evaluate(t0)
            v, _ = self.orbit.evaluate(t0 + 0.5)
            assert distance(u, v) <= bound * 0.5 + 1e-9

    def test_lipschitz_bound_equals_the_full_scan(self):
        # same terms, same order: the bisect start and the per-orbit rates keep the bits
        for t0 in [i / 10 for i in range(0, 4000, 7)] + [0.0, 199.9, 399.9]:
            t1 = t0 + 0.1
            assert self.orbit.lipschitz_bound(t0, t1) == full_scan_lipschitz(self.orbit, t0, t1)
        cert = make_certificate(TranslationGenerator(Fraction(3, 2)), 3)
        orbit = SolutionOrbit(assign_placements(compute_thresholds(cert), horizon=80))
        for t0 in [i / 4 for i in range(0, 320)]:
            assert orbit.lipschitz_bound(t0, t0 + 0.25) == full_scan_lipschitz(orbit, t0, t0 + 0.25)

    def test_integer_point_is_built_once_per_unit(self, monkeypatch):
        calls = []

        def counted(p, n):
            calls.append(n)
            return orbit_eval(p, n)

        monkeypatch.setattr(regularized_semigroup, "orbit_eval", counted)
        for t in (3, 3.25, 3.5, 4, 4.75, 3.5):
            self.orbit.evaluate(t)
        assert calls == [3, 4, 3]  # one entry: going back to 3 builds it again

    def test_semigroup_rate_is_the_certificates(self):
        cert = make_certificate(TranslationGenerator(Fraction(3, 2)), 1)
        p = assign_placements(compute_thresholds(cert), horizon=100)
        assert SolutionOrbit(p).sg.lam == p.cert.op.lam == Fraction(3, 2)

    def test_requires_translation_certificate(self):
        from fhclab.operators import WeightedBackwardShift

        cert = make_certificate(WeightedBackwardShift(2), 1)
        p = assign_placements(compute_thresholds(cert), horizon=100)
        with pytest.raises(TypeError):
            SolutionOrbit(p)
