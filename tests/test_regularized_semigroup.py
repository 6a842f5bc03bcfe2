"""Semigroup law, generator recovery, and solution orbits."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fhclab import regularized_semigroup
from fhclab.cli import main
from fhclab.constructor import _window_error, assign_placements, orbit_eval, orbit_window
from fhclab.criterion import compute_thresholds
from fhclab.operators import TranslationGenerator, apply_forward, make_certificate
from fhclab.regularized_semigroup import (
    SolutionOrbit,
    generator_residual,
    semigroup_law_residual,
    w_apply,
)
from fhclab.spaces import HARDY, L2, PiecewiseLinearFn, PolySeries, distance

UNIT_TENT = PiecewiseLinearFn.tent(Fraction(0), Fraction(1), Fraction(2), Fraction(1))
OP = TranslationGenerator(1)


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
    def test_zero_time_is_identity(self):
        assert distance(w_apply(OP, 0, UNIT_TENT), UNIT_TENT) == 0.0

    def test_half_shift_frozen_example(self):
        g = w_apply(OP, Fraction(1, 2), UNIT_TENT)
        assert g.breakpoints == [0, Fraction(1, 2), Fraction(3, 2)]
        assert g.log_scale == Fraction(1, 2)
        # clipped origin value is the old value at 1/2
        assert g.raw_eval(0) == Fraction(1, 2)

    def test_norm_growth_bound(self):
        for t in (0.25, 1.0, 3.0):
            assert w_apply(OP, t, UNIT_TENT).norm() <= math.exp(t) * UNIT_TENT.norm() + 1e-12

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            w_apply(OP, -1, UNIT_TENT)

    def test_strong_continuity_modulus(self):
        y = UNIT_TENT
        prev = float("inf")
        for j in range(0, 11):
            t = Fraction(1, 2**j)
            gap = distance(w_apply(OP, t, y), y)
            modulus = (math.exp(t) - 1) * y.norm() + math.exp(t) * y.max_slope() * float(t)
            assert gap <= modulus + 1e-12
            assert gap <= prev + 1e-12
            prev = gap


class TestSemigroupLaw:
    def test_unit_times_exact_zero(self):
        assert semigroup_law_residual(OP, 1, 1, UNIT_TENT) == 0.0

    def test_zero_s_commutes_with_c(self):
        # C = I here: W(t) W(0) = W(t)
        assert semigroup_law_residual(OP, Fraction(3, 2), 0, UNIT_TENT) == 0.0

    @settings(max_examples=60, deadline=None)
    @given(
        st.fractions(min_value=0, max_value=4),
        st.fractions(min_value=0, max_value=4),
        plf_strategy,
    )
    def test_law_exact_on_random_inputs(self, t, s, f):
        assert semigroup_law_residual(OP, t, s, f) == 0.0


def numpy_generator_residual(op, f, t_step):
    """Oracle: the grid residual as first written, with np.linspace and np.polyval."""
    lo, hi = 0.0, 1.0
    lam = float(op.lam)
    h = float(t_step)
    xs = np.linspace(lo, hi, 2001)

    def ev(coeffs, pts):
        inside = (pts >= lo) & (pts <= hi)
        vals = np.polyval([float(c) for c in reversed(coeffs)], pts) if coeffs else np.zeros_like(pts)
        return np.where(inside, vals, 0.0)

    fx = ev(f.coeffs, xs)
    fxh = ev(f.coeffs, xs + h)
    quot = (math.exp(lam * h) * fxh - fx) / h
    exact = ev(f.derivative_coeffs(1), xs) + lam * fx
    return float(np.max(np.abs(quot - exact)))


class TestGenerator:
    def setup_method(self):
        self.bump = PolySeries((0, 0, 1, -2, 1), HARDY)  # x^2 (1-x)^2

    def test_residual_small_at_fine_step(self):
        assert generator_residual(OP, self.bump, 1e-3) <= 1e-2

    def test_first_order_decay(self):
        r1 = generator_residual(OP, self.bump, 1e-3)
        r2 = generator_residual(OP, self.bump, 5e-4)
        assert 0.4 <= r2 / r1 <= 0.6

    def test_zero_function(self):
        assert generator_residual(OP, PolySeries((), HARDY), 1e-3) == 0.0

    def test_non_smooth_input_rejected(self):
        with pytest.raises(TypeError):
            generator_residual(OP, UNIT_TENT, 1e-3)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.one_of(st.integers(-5, 5), st.fractions(-9, 9, max_denominator=12),
                           st.floats(-3, 3)), max_size=7),
        st.one_of(st.sampled_from([1e-2, 1e-3, 1e-4]), st.floats(1e-5, 2.0)),
        st.one_of(st.integers(1, 4), st.fractions(Fraction(1, 8), 8, max_denominator=16)),
    )
    def test_matches_numpy_oracle(self, coeffs, step, lam):
        # the stdlib grid and Horner loop repeat numpy's float operations in order
        op, bump = TranslationGenerator(lam), PolySeries(coeffs, HARDY)
        assert repr(generator_residual(op, bump, step)) == repr(
            numpy_generator_residual(op, bump, step))



def full_scan_lipschitz(orbit, t0, t1):
    """Oracle: the bound as first written, scanning every placed j from the start."""
    p = orbit.placement
    lam = float(orbit.placement.cert.op.lam)
    cert = p.cert
    widths = {}
    rates = {}
    for l in range(1, cert.target_count + 1):
        y = cert.target(l)
        widths[l] = float(y.breakpoints[-1]) if not y.is_zero() else 0.0
        rates[l] = lam * y.norm() + y.max_slope()
    total = 0.0
    for j, l in zip(p.placed_ns, p.placed_ls):
        if j + widths[l] < t0:
            continue
        gap = float(t1) - j
        total += math.exp(lam * min(gap, widths[l])) * rates[l]
        if j > t1 + p.backward_window:
            break
    tail = _window_error(p.tail_certificate, p.backward_window)
    total += (lam + 16.0) * tail * math.exp(lam)
    return total


def orbit_values(orbit, times):
    """(value, error) per t, the value of each (point, s, err) read as W(s) point."""
    op = orbit.placement.cert.op
    return [(w_apply(op, s, point), err) for point, s, err, _ in orbit.evaluate(times)]


class TestSolutionOrbit:
    def setup_method(self):
        cert = make_certificate(TranslationGenerator(1), 1)
        self.p = assign_placements(compute_thresholds(cert), horizon=400)
        self.orbit = SolutionOrbit(self.p)

    def test_integer_times_match_discrete_orbit(self):
        for n, (cont, _) in zip((0, 1, 3, 7), orbit_values(self.orbit, [0, 1, 3, 7])):
            disc, _ = orbit_eval(self.p, n)
            assert distance(cont, disc) == 0.0

    def test_fractional_step_is_exact_w_apply(self):
        (base, err), (got, got_err) = orbit_values(self.orbit, [3, 3.25])
        expected = w_apply(self.p.cert.op, Fraction(1, 4), base)
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
            (u, _), (v, _) = orbit_values(self.orbit, [t0, t0 + 0.5])
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

    @pytest.mark.parametrize("bw", [0, 1, 3, None])
    def test_lipschitz_bound_equals_the_full_scan_at_the_window_ends(self, bw):
        # cells whose window ends land on a placement, cells with placements past
        # t1 + backward_window (the scan adds the first of them) and cells past the
        # last; a short window puts that first term within a few units of t1, where
        # e^(lam (t1 - j)) still moves the sum's bits
        p = self.p if bw is None else self.p._replace(backward_window=bw)
        orbit = SolutionOrbit(p)
        ns, bw, reach = p.placed_ns, p.backward_window, orbit._reach
        cells = [(j - bw - 0.1, j - bw) for j in ns if j - bw >= 0.1]  # t1 + bw == j
        cells += [(j - bw - 1.5, j - bw - 1.25) for j in ns if j - bw >= 1.5]
        cells += [(j + reach + 1, j + reach + 1.1) for j in ns]  # t0 - reach - 1 == j
        cells += [(ns[-1] + s, ns[-1] + s + 0.1) for s in (0, 0.5, 1, 10, 200)]
        assert sum(any(j > t1 + bw for j in ns) for _, t1 in cells) >= 50
        assert sum(t0 > ns[-1] for t0, _ in cells) >= 5
        for t0, t1 in cells:
            assert orbit.lipschitz_bound(t0, t1) == full_scan_lipschitz(orbit, t0, t1)

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(st.sampled_from([1, Fraction(1, 2), 3, Fraction(5, 4)]),
                     st.fractions(Fraction(1, 2), 4, max_denominator=64)),
           st.integers(1, 3), st.integers(20, 60), st.data())
    def test_lipschitz_bound_equals_the_full_scan_anywhere(self, lam, targets, horizon, data):
        # the early stop drops only terms below a quarter ulp of the running sum;
        # placements reach 2 * horizon, as in a run
        cert = make_certificate(TranslationGenerator(lam), targets)
        orbit = SolutionOrbit(assign_placements(compute_thresholds(cert), horizon=2 * horizon))
        for _ in range(25):
            width = data.draw(st.floats(0.1, 1))
            t0 = data.draw(st.floats(0, horizon - width))
            assert orbit.lipschitz_bound(t0, t0 + width) == full_scan_lipschitz(
                orbit, t0, t0 + width)

    def test_integer_point_is_built_once_per_unit(self, monkeypatch):
        # one point per window key: 0, then each unit whose key is new
        calls = []

        def counted(p, n):
            calls.append(n)
            return orbit_eval(p, n)

        monkeypatch.setattr(regularized_semigroup, "orbit_eval", counted)
        times = [0, 0.5, 3, 3.25, 3.5, 4, 4.75, 6.5, 7, Fraction(29, 4)]
        assert len(orbit_values(self.orbit, times)) == len(times)
        first = {}  # window key -> the first unit that has it
        for n in sorted({math.floor(t) for t in times} - {0}):
            first.setdefault(orbit_window(self.p, n), n)
        assert calls == [0, *first.values()]
        assert len(set(calls)) == len(calls)

    def test_continuous_run_builds_one_point_per_window_key(self, monkeypatch, tmp_path):
        # the run_translation_h10 pin's config: the sweep enters every unit below 10
        calls = []

        def counted(p, n):
            calls.append((p, n))
            return orbit_eval(p, n)

        monkeypatch.setattr(regularized_semigroup, "orbit_eval", counted)
        monkeypatch.setenv("FHCLAB_OUTPUT_DIR", str(tmp_path))
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[operator]\nkind = translation\nlam = 1\n\n[run]\ntargets = 1\n"
                       "horizon = 10\nmode = continuous\ngrid_step = 0.5\n\n"
                       "[output]\ncsv = translation_h10_report.csv\n")
        assert main(["run", "--config", str(cfg)]) == 0
        p = calls[0][0]
        keys = {orbit_window(p, n) for n in range(1, 10)}
        assert calls[0][1] == 0
        assert len(calls) == 1 + len(keys)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.sampled_from([0, 0.5, 1, 3, 3.25, 3.5, 4, Fraction(31, 4)]),
                    max_size=8))
    def test_any_order_gives_the_one_element_values(self, times):
        # descending and repeated times rebuild the integer point they leave
        want = [orbit_values(self.orbit, [t])[0] for t in times]
        got = orbit_values(self.orbit, times)
        assert [(repr(v), repr(e)) for v, e in got] == [(repr(v), repr(e)) for v, e in want]

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            orbit_values(self.orbit, [1.5, -0.5])

    def test_semigroup_rate_is_the_certificates(self):
        cert = make_certificate(TranslationGenerator(Fraction(3, 2)), 1)
        p = assign_placements(compute_thresholds(cert), horizon=100)
        orbit = SolutionOrbit(p)
        (base, err), (got, got_err) = orbit_values(orbit, [2, 2.5])
        assert distance(got, w_apply(TranslationGenerator(Fraction(3, 2)), 0.5, base)) == 0.0
        assert got_err == err * math.exp(1.5 * 0.5)

    def test_requires_translation_certificate(self):
        from fhclab.operators import WeightedBackwardShift

        cert = make_certificate(WeightedBackwardShift(2, L2), 1)
        p = assign_placements(compute_thresholds(cert), horizon=100)
        with pytest.raises(TypeError):
            SolutionOrbit(p)
