"""Tail certification and threshold search.

The frozen tail values for the w=2 shift come from an independent oracle:
exact rational partial sums of the squared inverse-term norms, square-rooted
only at the end.
"""

import math
from fractions import Fraction

import pytest

from fhclab import criterion
from fhclab.criterion import (
    CertificationError,
    compute_thresholds,
    tail_norm,
    unconditional_probe,
)
from fhclab.operators import (
    Differentiation,
    TranslationGenerator,
    WeightedBackwardShift,
    make_certificate,
    transform_inverse,
    transform_power,
    transform_rotation,
)
from fhclab.spaces import HARDY, L2, SparseVector


def rational_shift_tail(w: int, N: int, terms: int = 40) -> float:
    """Oracle: || sum_{n >= N} B^n e_1 ||_2 with B^n e_1 = w^{-n(n+1)/2} e_{n+1}.

    The supports are disjoint, so the sup over finite sub-sums equals the
    l^2 combination of all the terms.  Exact rationals until the final sqrt.
    """
    s = Fraction(0)
    for n in range(N, N + terms):
        c = Fraction(1, w ** (n * (n + 1) // 2))
        s += c * c
    return math.sqrt(float(s))


class TestShiftTails:
    def setup_method(self):
        self.cert = make_certificate(WeightedBackwardShift(2), 1)

    def test_inverse_tail_matches_rational_oracle(self):
        y = self.cert.target(1)
        for N in (1, 2, 3, 5):
            assert tail_norm(self.cert, y, N, "inverse") == pytest.approx(
                rational_shift_tail(2, N), abs=1e-6)

    def test_frozen_values_around_the_threshold(self):
        y = self.cert.target(1)
        t1 = tail_norm(self.cert, y, 1, "inverse")
        t2 = tail_norm(self.cert, y, 2, "inverse")
        assert t1 == pytest.approx(0.5156259, abs=1e-6)
        assert t2 == pytest.approx(0.1259766, abs=1e-6)
        assert t1 > 0.5 > t2

    def test_forward_tail_vanishes_past_extinction(self):
        y = self.cert.target(1)  # e_1 dies after one forward step
        assert tail_norm(self.cert, y, 1, "forward") == 0.0

    def test_tail_decreases_in_N(self):
        y = self.cert.target(1)
        vals = [tail_norm(self.cert, y, N, "inverse") for N in range(1, 8)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestThresholds:
    def test_shift_w2_first_threshold(self):
        cert = make_certificate(WeightedBackwardShift(2), 1)
        tc = compute_thresholds(cert)
        assert tc.threshold(1) == 2

    def test_shift_w2_five_targets(self):
        cert = make_certificate(WeightedBackwardShift(2), 5)
        tc = compute_thresholds(cert)
        assert [tc.threshold(l) for l in range(1, 6)] == [2, 3, 3, 4, 4]

    def test_hardy_three_targets(self):
        cert = make_certificate(Differentiation(HARDY), 3)
        tc = compute_thresholds(cert)
        assert [tc.threshold(l) for l in range(1, 4)] == [3, 4, 5]

    def test_translation_first_threshold(self):
        cert = make_certificate(TranslationGenerator(1), 1)
        assert compute_thresholds(cert).threshold(1) == 2

    def test_record_inequalities(self):
        cert = make_certificate(WeightedBackwardShift(2), 4)
        tc = compute_thresholds(cert)
        for l, rec in enumerate(tc.records, start=1):
            assert rec.forward_tail_bound <= 1 / (l * 2**l)
            assert rec.inverse_tail_bound <= 1 / (l * 2**l)
            assert rec.target_tail_bound <= 1 / 2**l
            assert rec.identity_residual <= 1 / 2**l

    def test_thresholds_are_minimal(self):
        cert = make_certificate(WeightedBackwardShift(2), 3)
        tc = compute_thresholds(cert)
        for l, rec in enumerate(tc.records, start=1):
            if rec.N == 1:
                continue
            N = rec.N - 1
            strict = 1 / (l * 2**l)
            ok = all(
                tail_norm(cert, cert.target(lam), N, d) <= strict
                for lam in range(1, l + 1)
                for d in ("forward", "inverse")
            ) and tail_norm(cert, cert.target(l), N, "inverse") <= 1 / 2**l
            assert not ok, f"N_{l} - 1 should fail at least one inequality"

    def test_search_cap_raises(self, monkeypatch):
        monkeypatch.setattr(criterion, "_SEARCH_CAP", 2)
        cert = make_certificate(WeightedBackwardShift(Fraction(101, 100)), 3)
        with pytest.raises(CertificationError):
            compute_thresholds(cert)

    def test_json_export_shape(self):
        cert = make_certificate(WeightedBackwardShift(2), 2)
        obj = compute_thresholds(cert).to_json_dict()
        assert [r["l"] for r in obj["records"]] == [1, 2]
        assert all("inverse_tail_bound" in r for r in obj["records"])


class TestTransformedThresholds:
    def test_power_two_first_threshold(self):
        cert = transform_power(make_certificate(WeightedBackwardShift(2), 1), 2)
        assert compute_thresholds(cert).threshold(1) == 1

    def test_power_oracle(self):
        # (A^2)-inverse terms are B^{2n} e_1 = 2^{-n(2n+1)} e_{2n+1}
        cert = transform_power(make_certificate(WeightedBackwardShift(2), 1), 2)
        y = cert.target(1)
        s = sum(Fraction(1, 2 ** (n * (2 * n + 1))) ** 2 for n in range(1, 30))
        assert tail_norm(cert, y, 1, "inverse") == pytest.approx(
            math.sqrt(float(s)), abs=1e-9)

    def test_rotation_keeps_thresholds(self):
        base = make_certificate(WeightedBackwardShift(2), 3)
        rot = transform_rotation(base, 1j)
        assert ([compute_thresholds(rot).threshold(l) for l in range(1, 4)]
                == [compute_thresholds(base).threshold(l) for l in range(1, 4)])

    def test_swapped_certificate_exchanges_tail_roles(self):
        base = make_certificate(WeightedBackwardShift(2), 1)
        sw = transform_inverse(base)
        y = base.target(1)
        assert tail_norm(sw, y, 1, "forward") == pytest.approx(
            tail_norm(base, y, 1, "inverse"), abs=1e-12)


class TestProbes:
    def test_probe_under_certified_bound(self):
        cert = make_certificate(WeightedBackwardShift(2), 2)
        tc = compute_thresholds(cert)
        for l in (1, 2):
            N = tc.threshold(l)
            worst = unconditional_probe(cert, cert.target(l), N, trials=200, seed=7)
            assert worst <= tail_norm(cert, cert.target(l), N + 1, "inverse") + 1e-15

    def test_probe_deterministic(self):
        cert = make_certificate(WeightedBackwardShift(2), 1)
        y = cert.target(1)
        a = unconditional_probe(cert, y, 2, trials=50, seed=11)
        b = unconditional_probe(cert, y, 2, trials=50, seed=11)
        assert a == b
