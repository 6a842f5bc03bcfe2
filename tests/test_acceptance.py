"""Acceptance gate: the quantitative guarantees the package promises.

Each test prints one PASS/FAIL line (with its tolerance) directly to the
terminal, bypassing capture, then asserts.  The suite exercises:

  1. exhaustive schedule laws on [1, 10^6]            (< 60 s)
  2. threshold exactness against a rational oracle    (tol 1e-6)
  3. orbit proximity <= 5/2^l with component bounds   (< 5 min)
  4. covering and density floors at N = 10^4
  5. Hardy-space antiderivative coefficients          (tol 1e-12)
  6. exact semigroup law + first-order generator recovery
  7. continuous visit measure >= window * integer visits
  8. randomized unconditional-convergence probes
  9. rotation/power/swap certificate transforms
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from fhclab.constructor import (
    assign_placements,
    materialize,
    orbit_eval,
    orbit_parts,
    proximity_bound,
)
from fhclab.criterion import compute_thresholds, tail_norm, unconditional_probe
from fhclab.density_partition import PairKey, build_schedule
from fhclab.operators import (
    Differentiation,
    TranslationGenerator,
    WeightedBackwardShift,
    apply_forward,
    apply_inverse,
    make_certificate,
    right_inverse_identity_check,
    transform_inverse,
    transform_power,
    transform_rotation,
)
from fhclab.regularized_semigroup import (
    RegularizedSemigroup,
    SolutionOrbit,
    generator_residual,
    semigroup_law_residual,
)
from fhclab.spaces import (
    C0_SEQ,
    CkModel,
    HARDY,
    L2,
    PiecewiseLinearFn,
    PolySeries,
    SparseVector,
    distance,
)
from fhclab.verifier import continuous_visits, discrete_report


def announce(capsys, num: int, ok: bool, detail: str):
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        print(f"\nACCEPTANCE {num}: {status} — {detail}")


# ---------------------------------------------------------------------------
# shared expensive artifacts


@pytest.fixture(scope="module")
def shift_tc():
    cert = make_certificate(WeightedBackwardShift(2), 5)
    return compute_thresholds(cert)


@pytest.fixture(scope="module")
def shift_placement(shift_tc):
    # build twice as deep as the verification horizon so certified errors
    # are negligible at every verified time
    return assign_placements(shift_tc, horizon=20_000)


def rational_shift_tail(w: int, N: int, r: int = 1, terms: int = 40) -> float:
    """Oracle: l^2 norm of {(B^r)^n e_1 : n >= N}, exact rationals then sqrt."""
    s = Fraction(0)
    for n in range(N, N + terms):
        m = r * n
        c = Fraction(1, w ** (m * (m + 1) // 2))
        s += c * c
    return math.sqrt(float(s))


def test_acceptance_1_schedule_laws_exhaustive(shift_tc, capsys):
    """Disjointness, n >= N_l, and pairwise gaps >= N_l + N_k on [1, 10^6]."""
    t0 = time.time()
    horizon = 10**6
    pairs = [PairKey(l, N) for l, N in shift_tc.pairs()]
    sched = build_schedule(pairs)
    members = {k: np.asarray(sched.members(k, horizon)) for k in pairs}

    ok = all(len(m) > 0 and m.min() >= k.nu for k, m in members.items())
    union = np.concatenate(list(members.values()))
    ok &= len(union) == len(np.unique(union))
    for i, k1 in enumerate(pairs):
        for k2 in pairs[i:]:
            a, b = members[k1], members[k2]
            bound = k1.nu + k2.nu
            if k1 == k2:
                ok &= int(np.diff(a).min()) >= bound
                continue
            idx = np.searchsorted(b, a)
            nearest = np.full(len(a), horizon, dtype=np.int64)
            hit = idx < len(b)
            nearest[hit] = b[idx[hit]] - a[hit]
            hit = idx > 0
            nearest[hit] = np.minimum(nearest[hit], a[hit] - b[idx[hit] - 1])
            ok &= int(nearest.min()) >= bound
    elapsed = time.time() - t0
    ok = bool(ok) and elapsed < 60
    announce(capsys, 1, ok,
             f"schedule laws exhaustive on [1, 10^6] for (l, N_l) = "
             f"{shift_tc.pairs()} in {elapsed:.1f} s (< 60 s)")
    assert ok


def test_acceptance_2_threshold_exactness(capsys):
    """N_1 = 2 for the w=2 shift; tails straddle 0.5, oracle tolerance 1e-6."""
    cert = make_certificate(WeightedBackwardShift(2), 1)
    tc = compute_thresholds(cert)
    y = cert.target(1)
    t1 = tail_norm(cert, y, 1, "inverse")
    t2 = tail_norm(cert, y, 2, "inverse")
    ok = (
        tc.threshold(1) == 2
        and abs(t1 - rational_shift_tail(2, 1)) <= 1e-6
        and abs(t2 - rational_shift_tail(2, 2)) <= 1e-6
        and t1 > 0.5 > t2
    )
    announce(capsys, 2, ok,
             f"N_1 = {tc.threshold(1)}; tails {t1:.7f} / {t2:.7f} match the "
             f"rational oracle (tol 1e-6) and straddle 0.5")
    assert ok


def _proof_bound_sweep(p, verify_N):
    """(ok, worst-slack) for total and component bounds on scheduled times."""
    tc = p.tail_certificate
    ok = True
    worst = 0.0
    for l in range(1, p.cert.target_count + 1):
        y = p.cert.target(l)
        key = PairKey(l, tc.threshold(l))
        for n in p.schedule.members(key, verify_N):
            fwd, mid, bwd, err = orbit_parts(p, n)
            total = distance(
                orbit_eval(p, n)[0], y) + err
            ok &= total <= proximity_bound(l)
            ok &= fwd.norm() <= 2 / 2**l
            ok &= distance(mid, y) <= 2 / 2**l
            ok &= bwd.norm() + err <= 1 / 2**l
            worst = max(worst, total * 2**l / 5)
    return ok, worst


def test_acceptance_3_proof_bound_compliance(shift_placement, capsys):
    """||orbit(n) - y_l|| + err <= 5/2^l with 2/2^l + 2/2^l + 1/2^l parts."""
    t0 = time.time()
    ok, worst = _proof_bound_sweep(shift_placement, 10_000)
    elapsed = time.time() - t0
    ok = ok and elapsed < 300
    announce(capsys, 3, ok,
             f"shift w=2, L=5: every scheduled n <= 10^4 satisfies the 5/2^l "
             f"bound and its 2/2^l, 2/2^l, 1/2^l components; worst slack "
             f"{worst:.2e} of budget, {elapsed:.1f} s (< 5 min)")
    assert ok


def test_acceptance_4_covering_and_density(shift_placement, capsys):
    """Coverage with eps_l = 1.2 * 5/2^l; visit density >= 0.9x schedule density."""
    p = shift_placement
    N = 10_000
    eps = {l: 1.2 * proximity_bound(l) for l in range(1, 6)}
    reports = discrete_report(p, eps, N)
    ok = True
    floors = []
    for rep in reports:
        key = PairKey(rep.l, p.tail_certificate.threshold(rep.l))
        sched_floor = p.schedule.density_floor(key, N // 10, N)
        floors.append((rep.density_floor, sched_floor))
        ok &= rep.covering_set_check
        ok &= not rep.guarantee_vacuous
        ok &= rep.density_floor >= 0.9 * sched_floor
    announce(capsys, 4, ok,
             "covering true for l <= 5 and visit density floors "
             + ", ".join(f"{v:.4f}>={0.9 * s:.4f}" for v, s in floors)
             + " at N = 10^4")
    assert ok


def test_acceptance_5_hardy_differentiation(capsys):
    """B^n z^k carries k!/(k+n)! (tol 1e-12); proof bounds for L=3 at N=2000."""
    cert = make_certificate(Differentiation(HARDY), 3)
    coeff_err = 0.0
    for k in range(0, 6):
        f = PolySeries.monomial(k, HARDY)
        for n in range(1, 31):
            out = apply_inverse(cert, f, n)
            expect = math.factorial(k) / math.factorial(k + n)
            coeff_err = max(coeff_err, abs(out.coeffs[k + n] - expect))
    ok = coeff_err <= 1e-12

    tc = compute_thresholds(cert)
    p = assign_placements(tc, horizon=4000)
    sweep_ok, _ = _proof_bound_sweep(p, 2000)
    ok = ok and sweep_ok
    announce(capsys, 5, ok,
             f"antiderivative coefficients match k!/(k+n)! to {coeff_err:.1e} "
             f"(tol 1e-12) for k <= 5, n <= 30; proof bounds hold for the "
             f"differentiation certificate, L=3, n <= 2000")
    assert ok


def test_acceptance_6_semigroup_algebra(capsys):
    """Law residual exactly 0 on 100 random (t, s, f); residual halves with step."""
    sg = RegularizedSemigroup(lam=1)
    rng = random.Random(2026)
    law_ok = True
    for _ in range(100):
        t = Fraction(rng.randrange(0, 12), rng.randrange(1, 8))
        s = Fraction(rng.randrange(0, 12), rng.randrange(1, 8))
        bps = sorted({Fraction(rng.randrange(0, 16), 4) for _ in range(4)})
        while len(bps) < 2:
            bps.append(bps[-1] + 1)
        vals = [Fraction(rng.randrange(-4, 5), 2) for _ in bps]
        vals[-1] = Fraction(0)
        if bps[0] != 0:
            vals[0] = Fraction(0)
        f = PiecewiseLinearFn(tuple(bps), tuple(vals))
        law_ok &= semigroup_law_residual(sg, t, s, f) == 0.0

    bump = PolySeries((0, 0, 1, -2, 1), HARDY)  # x^2 (1-x)^2 on [0, 1]
    ratios = []
    for h in (1e-2, 1e-3, 1e-4):
        r_h = generator_residual(sg, bump, h)
        r_half = generator_residual(sg, bump, h / 2)
        ratios.append(r_half / r_h)
    ratio_ok = all(0.4 <= r <= 0.6 for r in ratios)
    ok = law_ok and ratio_ok
    announce(capsys, 6, ok,
             f"semigroup law residual = 0 exactly on 100 random (t, s, f); "
             f"generator residual halving ratios "
             f"{', '.join(f'{r:.3f}' for r in ratios)} all in [0.4, 0.6]")
    assert ok


def test_acceptance_7_continuous_bridge(capsys):
    """Inner visit measure on [0, 10^3] >= delta * certified integer visits."""
    cert = make_certificate(TranslationGenerator(1), 1)
    tc = compute_thresholds(cert)
    p = assign_placements(tc, horizon=2000)
    orbit = SolutionOrbit(p)
    rep = continuous_visits(orbit, {1: 0.5}, 1000.0, 0.1)[0]
    delta = rep.continuity_window
    needed = delta * len(rep.visit_times)
    ok = delta > 0 and rep.inner_measure >= needed
    announce(capsys, 7, ok,
             f"delta = {delta:.4f} > 0 and inner measure {rep.inner_measure:.2f} "
             f">= {needed:.2f} = delta * {len(rep.visit_times)} integer visits "
             f"(lam=1, unit tent, eps=1/2)")
    assert ok


def test_acceptance_8_unconditional_probes(capsys):
    """10^3 random sub-sums beyond each N_l stay under the certified tail."""
    builtins = [
        make_certificate(WeightedBackwardShift(2), 3),
        make_certificate(WeightedBackwardShift(2, C0_SEQ), 2),
        make_certificate(Differentiation(HARDY), 3),
        make_certificate(Differentiation(CkModel(3, 0.0, 1.0)), 1),
        make_certificate(TranslationGenerator(1), 1),
    ]
    ok = True
    checked = 0
    for cert in builtins:
        tc = compute_thresholds(cert)
        for l in range(1, cert.target_count + 1):
            N = tc.threshold(l)
            y = cert.target(l)
            worst = unconditional_probe(cert, y, N, trials=1000, seed=100 + l)
            bound = tail_norm(cert, y, N + 1, "inverse")
            ok &= worst <= bound + 1e-15
            checked += 1
    announce(capsys, 8, ok,
             f"1000 random finite sub-sums beyond N_l under the certified "
             f"bound for each of {checked} (certificate, target) pairs")
    assert ok


def test_acceptance_9_certificate_transforms(capsys):
    """Rotation (i, -1) and power (2, 3) certs; identity residuals; double swap."""
    ok = True
    notes = []

    # criterion-2 analogue: thresholds against the rational oracle
    for r in (2, 3):
        cert = transform_power(make_certificate(WeightedBackwardShift(2), 1), r)
        tc = compute_thresholds(cert)
        want = next(N for N in range(1, 50)
                    if rational_shift_tail(2, N, r=r) <= 0.5)
        ok &= tc.threshold(1) == want
        y = cert.target(1)
        ok &= abs(tail_norm(cert, y, 1, "inverse")
                  - rational_shift_tail(2, 1, r=r)) <= 1e-9
        notes.append(f"power r={r}: N_1={tc.threshold(1)}")
    for lam in (1j, -1):
        base = make_certificate(WeightedBackwardShift(2), 3)
        rot = transform_rotation(base, lam)
        ok &= compute_thresholds(rot).pairs() == compute_thresholds(base).pairs()
        notes.append(f"rotation {lam}: thresholds preserved")

    # criterion 3-4 analogues on transformed certificates
    for cert in (
        transform_rotation(make_certificate(WeightedBackwardShift(2), 3), -1),
        transform_power(make_certificate(WeightedBackwardShift(2), 3), 2),
    ):
        tc = compute_thresholds(cert)
        p = assign_placements(tc, horizon=4000)
        sweep_ok, _ = _proof_bound_sweep(p, 2000)
        ok &= sweep_ok
        eps = {l: 1.2 * proximity_bound(l) for l in range(1, 4)}
        for rep in discrete_report(p, eps, 2000):
            key = PairKey(rep.l, tc.threshold(rep.l))
            ok &= rep.covering_set_check
            ok &= rep.density_floor >= 0.9 * p.schedule.density_floor(key, 200, 2000)
        # identity residual must be exactly zero on every target
        for l in range(1, 4):
            ok &= right_inverse_identity_check(cert, cert.target(l)) == 0.0

    # double swap is the identity on random dense vectors
    base = make_certificate(WeightedBackwardShift(Fraction(2)), 1, exact=True)
    twice = transform_inverse(transform_inverse(base))
    rng = random.Random(9)
    for _ in range(100):
        v = SparseVector(
            {rng.randint(1, 9): Fraction(rng.randrange(-8, 9), rng.randrange(1, 5))
             for _ in range(rng.randint(1, 4))},
            L2,
        )
        n = rng.randint(1, 5)
        ok &= distance(apply_forward(twice, v, n), apply_forward(base, v, n)) == 0.0
        ok &= distance(apply_inverse(twice, v, n), apply_inverse(base, v, n)) == 0.0
    announce(capsys, 9, ok,
             "; ".join(notes) + "; proof bounds, covering, and density hold "
             "for rotated/powered certificates; identity residual 0; "
             "double swap is the identity on 100 random vectors")
    assert ok
