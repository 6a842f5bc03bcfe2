"""The translation semigroup of TranslationGenerator on C0(R+).

W(t) f = e^(lam*t) f(. + t), clipped at the origin: the operator's own
forward step taken at a real time t >= 0.  With the symbolic log_scale
carried by PiecewiseLinearFn, the law W(t)W(s) = W(t+s) is an exact identity
on this class whenever lam, t, s are rationals.

``SolutionOrbit.evaluate`` streams t -> e^(tA) x over given times with one
point per window key, as ``discrete_report`` builds them: it yields A^n x,
held while the times stay in [n, n + 1), with s = t - n, and leaves the shift
W(s) to the caller.  ``continuous_visits`` never builds W(s) A^n x: it passes
s and dlog = lam*s to ``spaces.distance``, whose walk measures the shifted
point against each target in place.  At s == 0 it measures the point itself,
never W(0.0) A^n x, whose breakpoints b - 0.0 would turn exact Fractions into
floats.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .constructor import FhcPlacement, orbit_eval, orbit_window
from .operators import TranslationGenerator
from .spaces import PiecewiseLinearFn, PolySeries, _horner, distance

_BUMP_SUPPORT = (0.0, 1.0)  # generator_residual's bump lives on [0, 1], zero outside
_GRID_POINTS = 2001  # sup-norm grid of generator_residual over the support
_NORMAL = sys.float_info.min  # smallest normal float: below it exp's ulp is not relative


def w_apply(op: TranslationGenerator, t, f: PiecewiseLinearFn) -> PiecewiseLinearFn:
    """W(t) f = e^(lam*t) f(. + t), clipped at the origin."""
    if t < 0:
        raise ValueError("t must be >= 0")
    return op.forward(f, t)


def semigroup_law_residual(op: TranslationGenerator, t, s, f: PiecewiseLinearFn) -> float:
    """|| W(t) W(s) f - W(t+s) f ||, exactly 0 in the exact representation."""
    if t < 0 or s < 0:
        raise ValueError("t and s must be >= 0")
    return distance(w_apply(op, t, w_apply(op, s, f)), w_apply(op, t + s, f))


def generator_residual(op: TranslationGenerator, f: PolySeries, t_step) -> float:
    """Sup-grid norm of (W(h)f - f)/h - (f' + lam f) for a smooth bump.

    ``f`` is a polynomial on [0, 1], extended by zero; it must vanish to
    first order at 1 for the extension to stay C^1.  The norm is taken on
    2001 equally spaced points of [0, 1].  First-order in t_step by
    construction.
    """
    if not isinstance(f, PolySeries):
        raise TypeError("generator recovery needs a smooth polynomial bump")
    if t_step <= 0:
        raise ValueError("t_step must be positive")
    lo, hi = _BUMP_SUPPORT
    lam = float(op.lam)
    h = float(t_step)
    step = (hi - lo) / (_GRID_POINTS - 1)
    xs = [i * step + lo for i in range(_GRID_POINTS - 1)] + [hi]
    coeffs = [float(c) for c in reversed(f.coeffs)]  # highest degree first
    dcoeffs = [float(c) for c in reversed(f.derivative_coeffs(1))]

    def ev(cs, x):
        return _horner(cs, x) if lo <= x <= hi else 0.0  # zero outside the support

    growth = math.exp(lam * h)
    worst = 0.0
    for x in xs:
        fx = ev(coeffs, x)
        quot = (growth * ev(coeffs, x + h) - fx) / h
        worst = max(worst, abs(quot - (ev(dcoeffs, x) + lam * fx)))
    return worst


@dataclass
class SolutionOrbit:
    """Evaluator t -> e^(tA) x for the constructed x of a translation certificate.

    Integer times reuse the discrete orbit decomposition verbatim; fractional
    times apply W(t - floor(t)) to the integer point, which is exact on the
    piecewise-linear class.  This is the finite-horizon form of the
    discrete-to-continuous bridge.
    """

    placement: FhcPlacement

    def __post_init__(self):
        cert = self.placement.cert
        if not isinstance(cert.op, TranslationGenerator):
            raise TypeError("solution orbits require a translation certificate")
        lam = float(cert.op.lam)
        ys = [cert.target(l) for l in range(1, cert.target_count + 1)]
        # per target (index l - 1): support width and time-derivative rate of y_l
        self._widths = [float(y.breakpoints[-1]) if not y.is_zero() else 0.0 for y in ys]
        self._rates = [lam * y.norm() + y.max_slope() for y in ys]
        self._reach = max(self._widths)
        self._peak = max(self._rates)

    def evaluate(self, times):
        """Yield (point, s, err) per t: e^(tA) x is W(s) point, within err.

        point is A^n x for n = floor(t) and s = t - n, so the value at t is
        ``w_apply(op, s, point)``, and the point itself when s == 0; err is
        the certified error bound of that value.  The integer point is looked
        up when t enters [n, n + 1) and held while t stays there, with one
        point per window key: for n >= 1, ``orbit_eval(p, n)`` is a pure
        function of ``orbit_window(p, n)`` (see ``discrete_report``), so a
        unit whose key was seen in this call reuses that point; n = 0 is
        ``materialize``.  Any order gives what one-element calls give.
        """
        p = self.placement
        lam = float(p.cert.op.lam)
        points = {}  # window key -> (A^n x, error) for the n >= 1 seen so far
        n = vec = err = None
        for t in times:
            if t < 0:
                raise ValueError("t must be >= 0")
            if (floor := math.floor(t)) != n:
                n = floor
                if n == 0:
                    vec, err = orbit_eval(p, 0)
                else:
                    key = orbit_window(p, n)
                    if (point := points.get(key)) is None:
                        point = points[key] = orbit_eval(p, n)
                    vec, err = point
            s = t - n
            yield vec, s, (err if s == 0 else err * math.exp(lam * float(s)))

    def lipschitz_bound(self, t0, t1) -> float:
        """Upper bound on the t-Lipschitz constant of the orbit over [t0, t1].

        Each active term e^(lam(t-j)) z_j(. + t - j) has time derivative
        bounded by e^(lam(t-j)) (lam ||z_j|| + Lip z_j); sum over placed j
        in reach plus the certified tail.

        Counts the placed j in [t0 - max width - 1, t1 + backward_window] in
        ascending order, plus the first j past that window: the earlier walk
        added it before it stopped, and keeping it keeps the bits.  Every j
        below is past the origin (the extra 1 covers rounding), and so is a j
        with j + width < t0, which adds nothing.

        The walk stops at the first j > t1 whose factor e = exp(lam (t1 - j))
        is normal and has peak * e < ulp(total) / 4, peak the largest rate:
        no later term can change a bit of the sum.  Proof: for j' > j the
        exponent t1 - j' < 0 <= width is the term's own, and with lam > 0 and
        monotone rounding its rounded value is at most j's.  So a faithful
        math.exp (within one ulp) gives e' at most the float after e, at most
        e (1 + 2^-52) as e is normal, and the exact term e' * rate is at most
        peak * e (1 + 2^-52).  Write U = ulp(total) / 4, a power of two
        >= 2^-1074 whenever the test can pass.  A normal test product puts
        peak * e below (1 + 2^-53) U, and the term rounds to at most
        (1 + 2^-50) U; a subnormal one is at most U - 2^-1074, so
        peak * e <= U - 2^-1075 and the term rounds to at most U.  Either way
        the term is below 2 U, half the gap above total, and adding it rounds
        back to total: total, its ulp and the bound stay put to the end.  For
        total = 0.0, or any total with ulp(total) < 2^-1072, U rounds to 0.0,
        the test fails and the walk goes on.
        """
        p = self.placement
        lam = float(p.cert.op.lam)
        ns = p.placed_ns
        lo = bisect_left(ns, t0 - self._reach - 1)
        hi = bisect_right(ns, t1 + p.backward_window) + 1
        t1 = float(t1)
        total = 0.0
        for j, l in zip(ns[lo:hi], p.placed_ls[lo:hi]):
            width = self._widths[l - 1]
            if j + width >= t0:  # else already translated past the origin: term is zero
                e = math.exp(lam * min(t1 - j, width))
                if j > t1 and self._peak * e < math.ulp(total) / 4 and e >= _NORMAL:
                    break
                total += e * self._rates[l - 1]
        # tail terms: slope/norm ratio of any enumerated tent is <= 16 by the
        # dyadic breakpoint grid, so this stays an upper bound
        total += (lam + 16.0) * p.backward_tail * math.exp(lam)
        return total
