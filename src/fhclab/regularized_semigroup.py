"""Regularized semigroup algebra for the translation example.

W(t) f = e^(lam*t) f(. + t) composed with the multiplier C.  With the
symbolic log_scale carried by PiecewiseLinearFn, the law W(t)W(s) = C W(t+s)
is an exact identity on this class whenever lam, t, s are rationals.

Two built-in multipliers: the identity (the example verbatim) and an
injective diagonal-decay model on sequence space that makes the graph norm
on the image, inf{||y|| : Cy = x}, nontrivial while keeping the infimum a
single computable preimage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constructor import FhcPlacement, orbit_eval
from .operators import TranslationGenerator
from .spaces import (
    PiecewiseLinearFn,
    PolySeries,
    SparseVector,
    distance,
    plf_shift_left,
)

_BUMP_SUPPORT = (0.0, 1.0)  # generator_residual's bump lives on [0, 1], zero outside
_GRID_POINTS = 2001  # sup-norm grid of generator_residual over the support


@dataclass(frozen=True)
class IdentityMultiplier:
    def apply(self, x):
        return x

    def inverse(self, x):
        return x


@dataclass(frozen=True)
class DiagonalDecayMultiplier:
    """C e_k = base^-k e_k on sequence space; injective with explicit inverse."""

    base: float = 2.0

    def __post_init__(self):
        if not abs(self.base) > 1:
            raise ValueError("diagonal decay requires |base| > 1")

    def apply(self, x):
        if not isinstance(x, SparseVector):
            raise TypeError("diagonal-decay multiplier acts on sequence space only")
        return SparseVector(
            {k: c * self.base**-k for k, c in x.entries.items()}, x.space
        )

    def inverse(self, x):
        if not isinstance(x, SparseVector):
            raise TypeError("diagonal-decay multiplier acts on sequence space only")
        # every finitely supported vector lies in the range
        return SparseVector(
            {k: c * self.base**k for k, c in x.entries.items()}, x.space
        )


@dataclass(frozen=True)
class RegularizedSemigroup:
    lam: object = 1  # int/Fraction keeps the algebra exact
    C: object = field(default_factory=IdentityMultiplier)

    def __post_init__(self):
        if not self.lam > 0:
            raise ValueError("lam must be positive")


def w_apply(sg: RegularizedSemigroup, t, f: PiecewiseLinearFn) -> PiecewiseLinearFn:
    """W(t) f = C [e^(lam*t) f(. + t)], clipped at the origin."""
    if t < 0:
        raise ValueError("t must be >= 0")
    shifted = plf_shift_left(f, t, dlog=sg.lam * t)
    return sg.C.apply(shifted)


def semigroup_law_residual(sg: RegularizedSemigroup, t, s, f: PiecewiseLinearFn) -> float:
    """|| W(t) W(s) f - C W(t+s) f ||, exactly 0 in the exact representation."""
    if t < 0 or s < 0:
        raise ValueError("t and s must be >= 0")
    lhs = w_apply(sg, t, w_apply(sg, s, f))
    rhs = sg.C.apply(w_apply(sg, t + s, f))
    return distance(lhs, rhs)


def generator_residual(sg: RegularizedSemigroup, f: PolySeries, t_step) -> float:
    """Sup-grid norm of C^-1[(W(h)f - Cf)/h] - (f' + lam f) for a smooth bump.

    ``f`` is a polynomial on [0, 1], extended by zero; it must vanish to
    first order at 1 for the extension to stay C^1.  The norm is taken on
    2001 equally spaced points of [0, 1].  First-order in t_step by
    construction.
    """
    if not isinstance(f, PolySeries):
        raise TypeError("generator recovery needs a smooth polynomial bump")
    if t_step <= 0:
        raise ValueError("t_step must be positive")
    if not isinstance(sg.C, IdentityMultiplier):
        raise TypeError("generator recovery is implemented for the identity multiplier")
    lo, hi = _BUMP_SUPPORT
    lam = float(sg.lam)
    h = float(t_step)
    xs = np.linspace(lo, hi, _GRID_POINTS)
    dcoeffs = f.derivative_coeffs(1)

    def ev(coeffs, pts):
        inside = (pts >= lo) & (pts <= hi)
        vals = np.polyval([float(c) for c in reversed(coeffs)], pts) if coeffs else np.zeros_like(pts)
        return np.where(inside, vals, 0.0)

    fx = ev(f.coeffs, xs)
    fxh = ev(f.coeffs, xs + h)
    quot = (math.exp(lam * h) * fxh - fx) / h
    exact = ev(dcoeffs, xs) + lam * fx
    return float(np.max(np.abs(quot - exact)))


def imc_norm(sg: RegularizedSemigroup, x) -> float:
    """The graph norm inf{||y|| : Cy = x}; a single preimage for injective C."""
    return sg.C.inverse(x).norm()


@dataclass
class SolutionOrbit:
    """Evaluator t -> e^(tA) x for the constructed x of a translation certificate.

    Integer times reuse the discrete orbit decomposition verbatim; fractional
    times apply W(t - floor(t)) to the integer point, which is exact on the
    piecewise-linear class.  This is the finite-horizon form of the
    discrete-to-continuous bridge.
    """

    placement: FhcPlacement
    sg: RegularizedSemigroup = field(init=False)  # the certificate's own growth rate

    def __post_init__(self):
        op = self.placement.cert.op
        if not isinstance(op, TranslationGenerator):
            raise TypeError("solution orbits require a translation certificate")
        self.sg = RegularizedSemigroup(lam=op.lam)

    @property
    def lam(self):
        return self.sg.lam

    def evaluate(self, t):
        """(piecewise-linear value of e^(tA) x, certified error bound)."""
        if t < 0:
            raise ValueError("t must be >= 0")
        n = int(math.floor(t))
        s = t - n
        vec, err = orbit_eval(self.placement, n)
        if s == 0:
            return vec, err
        out = w_apply(self.sg, s, vec)
        return out, err * math.exp(float(self.sg.lam) * float(s))

    def lipschitz_bound(self, t0, t1) -> float:
        """Upper bound on the t-Lipschitz constant of the orbit over [t0, t1].

        Each active term e^(lam(t-j)) z_j(. + t - j) has time derivative
        bounded by e^(lam(t-j)) (lam ||z_j|| + Lip z_j); sum over placed j
        in reach plus the certified tail.
        """
        p = self.placement
        lam = float(self.sg.lam)
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
                continue  # already translated past the origin: term is zero
            gap = float(t1) - j
            total += math.exp(lam * min(gap, widths[l])) * rates[l]
            if j > t1 + p.backward_window:
                break
        # tail terms: slope/norm ratio of any enumerated tent is <= 16 by the
        # dyadic breakpoint grid, so this stays an upper bound
        total += (lam + 16.0) * p.backward_tail * math.exp(lam)
        return total


def solution_orbit(placement: FhcPlacement) -> SolutionOrbit:
    return SolutionOrbit(placement)
