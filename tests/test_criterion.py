"""Tail certification and threshold search.

The frozen tail values for the w=2 shift come from an independent oracle:
exact rational partial sums of the squared inverse-term norms, square-rooted
only at the end.
"""

import hashlib
import math
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fhclab import criterion, spaces
from fhclab.criterion import (
    CertificationError,
    ThresholdRecord,
    compute_thresholds,
    tail_norm,
    unconditional_probe,
)
from fhclab.operators import (
    Differentiation,
    OperatorCertificate,
    TranslationGenerator,
    WeightedBackwardShift,
    apply_forward,
    apply_inverse,
    make_certificate,
    transform_inverse,
    transform_power,
    transform_rotation,
)
from fhclab.spaces import (
    C0_SEQ,
    HARDY,
    L2,
    CkModel,
    PolySeries,
    SequenceSpace,
    SparseVector,
    distance,
)


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
        self.cert = make_certificate(WeightedBackwardShift(2, L2), 1)

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

    def test_underflowed_inverse_tail_stays_positive(self):
        # every term past n = 600 is an empty vector in floats; the true tail
        # of e_1 is positive, so the bound reads the floor, not 0.0
        y = self.cert.target(1)
        assert apply_inverse(self.cert, y, 600).entries == {}
        assert tail_norm(self.cert, y, 2001, "inverse") == criterion._TINY_FLOOR


class TestThresholds:
    def test_shift_w2_first_threshold(self):
        cert = make_certificate(WeightedBackwardShift(2, L2), 1)
        tc = compute_thresholds(cert)
        assert tc.threshold(1) == 2

    def test_shift_w2_five_targets(self):
        cert = make_certificate(WeightedBackwardShift(2, L2), 5)
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
        cert = make_certificate(WeightedBackwardShift(2, L2), 4)
        tc = compute_thresholds(cert)
        for l, rec in enumerate(tc.records, start=1):
            assert rec.forward_tail_bound <= 1 / (l * 2**l)
            assert rec.inverse_tail_bound <= 1 / (l * 2**l)
            assert rec.target_tail_bound <= 1 / 2**l
            assert rec.identity_residual <= 1 / 2**l

    def test_thresholds_are_minimal(self):
        cert = make_certificate(WeightedBackwardShift(2, L2), 3)
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
        cert = make_certificate(WeightedBackwardShift(Fraction(101, 100), L2), 3)
        with pytest.raises(CertificationError):
            compute_thresholds(cert)

    @pytest.mark.parametrize("model", [CkModel(0, 0.0, 1.0), HARDY], ids=["ck0", "hardy"])
    def test_nan_target_does_not_certify(self, model):
        # a NaN bound fails every `>` test: this target used to certify N = 1
        # with every bound 0.0 (C^k, its NaN sample dropped) or NaN (Hardy)
        y = PolySeries([1.0, math.nan], model)
        with pytest.raises(CertificationError, match="NaN"):
            compute_thresholds(OperatorCertificate(Differentiation(model), (y,)))

    def test_infinite_term_norm_does_not_certify(self):
        # B y has a finite grid sample (1.5e308) but an inf Lipschitz sum: an
        # overflow, not a certified tail of inf
        model = CkModel(0, 0.0, 1.0)
        y = PolySeries([1e308, 1e308], model)
        cert = make_certificate(Differentiation(model), 1)
        with pytest.raises(CertificationError,
                           match="the inverse term norm at 1 is beyond the float range"):
            tail_norm(cert, y, 1, "inverse")

    def test_json_export_shape(self):
        cert = make_certificate(WeightedBackwardShift(2, L2), 2)
        obj = compute_thresholds(cert).to_json_dict()
        assert [r["l"] for r in obj["records"]] == [1, 2]
        assert all("inverse_tail_bound" in r for r in obj["records"])


def reference_search(cert):
    """The threshold search before the term-norm lists, kept as the reference:
    every tail through the public ``tail_norm``, rebuilt from scratch per N."""
    records = []
    for l in range(1, cert.target_count + 1):
        strict = 1.0 / (l * 2**l)
        loose = 1.0 / 2**l
        found = None
        for N in range(1, criterion._SEARCH_CAP + 1):
            fwd = max(tail_norm(cert, cert.target(lam), N, "forward") for lam in range(1, l + 1))
            if fwd > strict:
                continue
            inv = max(tail_norm(cert, cert.target(lam), N, "inverse") for lam in range(1, l + 1))
            if inv > strict:
                continue
            own = tail_norm(cert, cert.target(l), N, "inverse")
            if own > loose:
                continue
            resid = distance(
                apply_forward(cert, apply_inverse(cert, cert.target(l), N), N),
                cert.target(l),
            )
            if resid > loose:
                continue
            found = ThresholdRecord(N, fwd, inv, own, resid)
            break
        if found is None:
            raise CertificationError(
                f"no threshold N_{l} <= {criterion._SEARCH_CAP} certifies target {l}"
            )
        records.append(found)
    return records


def draw_certificate(data, family):
    """A certificate of ``family`` with a twist of +-1 and a power of 1 or 2.

    C^k keeps L at 2 on [0,1] and 1 on [-1,1]: the reference search takes up
    to 5 s at L = 2 on [-1,1].
    """
    if family == "shift":
        space = data.draw(st.sampled_from(
            [SequenceSpace(1.0), L2, SequenceSpace(3.0), C0_SEQ]))
        w = data.draw(st.sampled_from([2, 3, -2, Fraction(3, 2), 1.25]))
        op, L = WeightedBackwardShift(w, space), data.draw(st.integers(1, 5))
    elif family == "hardy":
        op, L = Differentiation(HARDY), data.draw(st.integers(1, 4))
    elif family == "ck":
        a = data.draw(st.sampled_from([0.0, -1.0]))
        op = Differentiation(CkModel(data.draw(st.integers(1, 3)), a, 1.0))
        L = data.draw(st.integers(1, 2 if a == 0 else 1))
    else:
        op = TranslationGenerator(data.draw(st.sampled_from([1, 2, Fraction(1, 2)])))
        L = data.draw(st.integers(1, 3))
    cert = make_certificate(op, L)
    if data.draw(st.booleans()):
        cert = transform_rotation(cert, -1)
    return transform_power(cert, data.draw(st.sampled_from([1, 2])))


def count_term_builds(monkeypatch, cert):
    """Builds of G^n y_l, keyed (l, direction, n), during one compute_thresholds.

    The identity residual's B^N y_l is recognised by the A^N applied to it:
    the residual reads the built term itself, so it is no build.  Returns
    (term builds, [(the key of the term a residual read, the A^N it applied)]).
    """
    targets = {id(y): l for l, y in enumerate(cert.targets, start=1)}
    builds, residuals, made = Counter(), [], []

    def spy(direction, real):
        def counted(c, v, n):
            out = real(c, v, n)
            if id(v) in targets:
                key = (targets[id(v)], direction, n)
                builds[key] += 1
                made.append((out, key))
            else:
                residuals.append((next(k for o, k in made if o is v), n))
            return out
        return counted

    monkeypatch.setattr(criterion, "apply_forward", spy("forward", apply_forward))
    monkeypatch.setattr(criterion, "apply_inverse", spy("inverse", apply_inverse))
    compute_thresholds(cert)
    return builds, residuals


class TestTermNormLists:
    @pytest.mark.parametrize("family", ["shift", "hardy", "ck", "translation"])
    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_search_matches_the_reference_loop(self, family, data):
        cert = draw_certificate(data, family)
        new = compute_thresholds(cert).records
        assert [repr(r) for r in new] == [repr(r) for r in reference_search(cert)]

    @pytest.mark.parametrize("cert", [
        make_certificate(WeightedBackwardShift(2, L2), 5),
        transform_rotation(make_certificate(WeightedBackwardShift(Fraction(3, 2), C0_SEQ), 3), -1),
        transform_power(make_certificate(Differentiation(HARDY), 3), 2),
        make_certificate(Differentiation(CkModel(3, 0.0, 1.0)), 2),
        make_certificate(TranslationGenerator(1), 3),
    ], ids=["shift-l2", "shift-c0-rotated", "hardy-power2", "c3", "translation"])
    def test_each_term_is_built_once(self, monkeypatch, cert):
        builds, residuals = count_term_builds(monkeypatch, cert)
        assert builds and set(builds.values()) == {1}
        assert {l for (l, _, _), _ in residuals} == set(range(1, cert.target_count + 1))
        assert all(direction == "inverse" for (_, direction, _), _ in residuals)
        # each residual reads the built B^N y_l of its own N from the store
        assert all(n == N for (_, _, n), N in residuals)

    def test_ck_norms_on_c3_at_L5(self, monkeypatch):
        # 4,046 calls when every tail rebuilt its terms
        calls = []
        real = spaces.PolySeries.ck_norm_interval

        def counted(self):
            calls.append(1)
            return real(self)

        monkeypatch.setattr(spaces.PolySeries, "ck_norm_interval", counted)
        cert = make_certificate(Differentiation(CkModel(3, 0.0, 1.0)), 5)
        assert [N for _, N in compute_thresholds(cert).pairs()] == [6, 7, 8, 9, 9]
        assert len(calls) <= 179


class TestTransformedThresholds:
    def test_power_two_first_threshold(self):
        cert = transform_power(make_certificate(WeightedBackwardShift(2, L2), 1), 2)
        assert compute_thresholds(cert).threshold(1) == 1

    def test_power_oracle(self):
        # (A^2)-inverse terms are B^{2n} e_1 = 2^{-n(2n+1)} e_{2n+1}
        cert = transform_power(make_certificate(WeightedBackwardShift(2, L2), 1), 2)
        y = cert.target(1)
        s = sum(Fraction(1, 2 ** (n * (2 * n + 1))) ** 2 for n in range(1, 30))
        assert tail_norm(cert, y, 1, "inverse") == pytest.approx(
            math.sqrt(float(s)), abs=1e-9)

    def test_rotation_keeps_thresholds(self):
        base = make_certificate(WeightedBackwardShift(2, L2), 3)
        rot = transform_rotation(base, 1j)
        assert ([compute_thresholds(rot).threshold(l) for l in range(1, 4)]
                == [compute_thresholds(base).threshold(l) for l in range(1, 4)])

    def test_swapped_certificate_exchanges_tail_roles(self):
        base = make_certificate(WeightedBackwardShift(2, L2), 1)
        sw = transform_inverse(base)
        y = base.target(1)
        assert tail_norm(sw, y, 1, "forward") == pytest.approx(
            tail_norm(base, y, 1, "inverse"), abs=1e-12)

    def test_a_swapped_image_that_dies_is_not_underflow(self, monkeypatch):
        # swapped, B is the derivative, which maps 1 to 0 exactly: the search goes on
        monkeypatch.setattr(criterion, "_SEARCH_CAP", 3)
        cert = transform_inverse(make_certificate(Differentiation(HARDY), 1))
        with pytest.raises(CertificationError, match="no threshold N_1 <= 3 certifies target 1"):
            compute_thresholds(cert)


def pinned_certificates():
    """76 certificates: each operator at power 1 and 2, unrotated and rotated by 1j, L = 3."""
    ops = [WeightedBackwardShift(w, space) for w in (2, 3, -1.5, 1.25)
           for space in (L2, SequenceSpace(1.0), SequenceSpace(3.0), C0_SEQ)]
    ops += [Differentiation(HARDY), Differentiation(CkModel(3, 0.0, 1.0)), TranslationGenerator(1)]
    for op in ops:
        for r in (1, 2):
            cert = transform_power(make_certificate(op, 3), r)
            yield cert
            yield transform_rotation(cert, 1j)


class TestRecordsPin:
    def test_records_of_76_certificates_keep_their_bits(self):
        records = [compute_thresholds(cert).records for cert in pinned_certificates()]
        assert len(records) == 76
        assert hashlib.sha256(repr(records).encode()).hexdigest() == (
            "5a3b63431c14d5f2a2e965705847f1046292a0711bd20ef988be9bc6a192af25")


class TestProbes:
    def test_probe_under_certified_bound(self):
        cert = make_certificate(WeightedBackwardShift(2, L2), 2)
        tc = compute_thresholds(cert)
        for l in (1, 2):
            N = tc.threshold(l)
            worst = unconditional_probe(cert, cert.target(l), N, trials=200, seed=7)
            assert worst <= tail_norm(cert, cert.target(l), N + 1, "inverse") + 1e-15

    def test_probe_deterministic(self):
        cert = make_certificate(WeightedBackwardShift(2, L2), 1)
        y = cert.target(1)
        a = unconditional_probe(cert, y, 2, trials=50, seed=11)
        b = unconditional_probe(cert, y, 2, trials=50, seed=11)
        assert a == b

    def test_probe_sums_make_no_pairwise_calls(self, monkeypatch):
        # accumulate sums each sub-sum in one pass, with no linear_combine fold
        cert = make_certificate(Differentiation(CkModel(3, 0.0, 1.0)), 1)
        calls = []
        combine = spaces.linear_combine

        def counting(*args):
            calls.append(args)
            return combine(*args)

        monkeypatch.setattr(spaces, "linear_combine", counting)
        worst = unconditional_probe(cert, cert.target(1), 6, trials=40, seed=5)
        assert calls == []
        assert repr(worst) == "0.04307305555636929"  # the pairwise fold's value


class TestSearchReuse:
    @pytest.mark.parametrize("cert", [
        make_certificate(WeightedBackwardShift(1.001, L2), 4),
        transform_rotation(make_certificate(WeightedBackwardShift(Fraction(3, 2), C0_SEQ), 3), -1),
        transform_power(make_certificate(Differentiation(HARDY), 3), 2),
        make_certificate(Differentiation(CkModel(3, 0.0, 1.0)), 2),
        make_certificate(TranslationGenerator(1), 4),
    ], ids=["shift-near-1", "shift-c0-rotated", "hardy-power2", "c3", "translation"])
    def test_each_tail_is_computed_once(self, monkeypatch, cert):
        targets = {id(y): l for l, y in enumerate(cert.targets, start=1)}
        tails = Counter()
        real = criterion._tail

        def counted(c, y, N, direction, read_norm):
            tails[targets[id(y)], N, direction] += 1
            return real(c, y, N, direction, read_norm)

        monkeypatch.setattr(criterion, "_tail", counted)
        records = compute_thresholds(cert).records
        assert tails and set(tails.values()) == {1}
        # every later target starts at the threshold before it: no tail below it
        assert all(N >= records[l - 2].N for (l, N, _) in tails if l > 1)

    def test_a_residual_failure_starts_the_next_search_there(self, monkeypatch):
        # target 1 fails only its identity residual at N = 2 and 3, so N_1 = 4;
        # target 2 is searched from N = 2, where a start at N_1 would find 4, not 3
        cert = make_certificate(WeightedBackwardShift(2, L2), 3)
        y1 = cert.target(1)

        def failing_twice(real):
            fails = [2]

            def residual(u, v):
                if v is y1 and fails[0]:
                    fails[0] -= 1
                    return 1.0
                return real(u, v)
            return residual

        monkeypatch.setattr(criterion, "distance", failing_twice(distance))
        records = compute_thresholds(cert).records
        monkeypatch.setattr(sys.modules[__name__], "distance", failing_twice(distance))
        assert [repr(r) for r in records] == [repr(r) for r in reference_search(cert)]
        assert [r.N for r in records][:2] == [4, 3]
