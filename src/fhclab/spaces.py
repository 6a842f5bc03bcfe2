"""Finite exact representations of the ambient spaces.

Three value types cover every space the built-in operators act on:

* ``SparseVector`` -- finitely supported sequences in l_p or c0,
* ``PolySeries``   -- polynomials modelling Hardy-space elements (l2 of
  Taylor coefficients) or C^k[a,b] elements (max of derivative sup-norms),
* ``PiecewiseLinearFn`` -- compactly supported piecewise-linear functions
  on the half line, standing in for smooth bumps.

Coefficients may be ints/floats/complex or ``fractions.Fraction``; the
exact-rational mode is simply "feed Fractions in, get Fractions out" for
every operation that is algebraically rational.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import chain, combinations, islice, repeat


# --------------------------------------------------------------------------
# space tags


class SequenceSpace:
    """l_p for 1 <= p < inf, or c0 at p = inf: the exponent of its norm."""

    __slots__ = ("p",)

    def __init__(self, p: float):
        if not 1.0 <= p <= math.inf:
            raise ValueError(f"a sequence space requires 1 <= p <= inf, got p={p}")
        self.p = p

    def __eq__(self, other):
        return self.p == other.p if type(other) is SequenceSpace else NotImplemented

    def __hash__(self):
        return hash((self.p,))


L2 = SequenceSpace(2.0)
C0_SEQ = SequenceSpace(math.inf)


class HardyModel:
    """Polynomial model of H^2: norm is l2 of the coefficient list."""

    __slots__ = ()

    def __eq__(self, other):
        return True if type(other) is HardyModel else NotImplemented

    def __hash__(self):
        return hash(())


_CK_MESH = 1e-4  # grid spacing of the C^k sup-norm estimate


class CkModel:
    """Polynomial model of C^k[a,b], stored in u = x - a: coefficients of p(a + u), u in [0, L].

    With L = b - a, sup-norms of derivatives are sampled on the ``_ck_grid``
    points i * mesh, mesh = ``_CK_MESH``: the sample is the exact maximum of
    the floating-point values np.polyval computes there, found without numpy
    by ``_grid_max``.  It is reported with the rigorous Lipschitz correction
    mesh * sum(|c_i| * i * max(L, 1)^(i-1)), so ``norm`` is a true upper bound.
    """

    __slots__ = ("k", "a", "b")

    def __init__(self, k: int, a: float, b: float):
        if k < 0:
            raise ValueError("k must be >= 0")
        if not a < b:
            raise ValueError("CkModel requires a < b")
        # _ck_grid's point i is i * mesh with i converted to float, as in
        # numpy's grid: exact only while i <= 2^53
        if not (b - a + _CK_MESH) / _CK_MESH <= 2**53:
            raise ValueError(
                f"CkModel requires at most 2^53 grid points on [a, b], {_CK_MESH} apart")
        self.k, self.a, self.b = k, a, b

    def __eq__(self, other):
        if type(other) is not CkModel:
            return NotImplemented
        return (self.k, self.a, self.b) == (other.k, other.a, other.b)

    def __hash__(self):
        return hash((self.k, self.a, self.b))


class HalfLineC0:
    """Tag for C0(R+), the home of PiecewiseLinearFn."""

    __slots__ = ()


HARDY = HardyModel()
C0_PLUS = HalfLineC0()


# --------------------------------------------------------------------------
# l^p sums


def lp_norm(values, p) -> float:
    """The l^p norm of the scalars ``values`` (a collection), 1 <= p <= inf.

    p = inf is the largest |c|.  At p = 2 the squares are products summed in
    the scalars' own type (exact for Fractions) and the root is math.sqrt, as
    ``x ** 2`` and ``s ** 0.5`` (libm pow) are not correctly rounded; other p
    sum float(|c|) ** p and take ``** (1/p)``.  A sum below the smallest
    normal float has lost bits to underflow, so it is summed again from the
    entries scaled by the power of two that brings the largest into [0.5, 1);
    the root is scaled back by that power.  A complex NaN reads nan (``_abs``).
    """
    try:
        mags = list(map(abs, values))
    except OverflowError:
        mags = list(map(_abs, values))
    if p == math.inf:
        return float(max(mags, default=0))
    if p == 2:
        total, root = float(sum(map(operator.mul, mags, mags))), math.sqrt
    else:
        total, root = float(sum(float(a) ** p for a in mags)), lambda s: s ** (1.0 / p)
    if total >= sys.float_info.min:
        return root(total)
    mags = list(map(float, mags))
    e = -math.frexp(max(mags, default=0.0))[1]
    scaled = [math.ldexp(m, e) for m in mags]
    return math.ldexp(root(sum(s * s if p == 2 else s ** p for s in scaled)), -e)


# --------------------------------------------------------------------------
# sparse sequence vectors


class SparseVector:
    """Finitely supported sequence; ``entries`` maps index >= 1 to a scalar.

    Zero entries are never stored.
    """

    __slots__ = ("entries", "space")

    def __init__(self, entries, space: SequenceSpace):
        clean = {}
        for k, c in dict(entries).items():
            if k < 1 or k != int(k):
                raise ValueError(f"sequence index must be a positive integer, got {k}")
            if c != 0:
                clean[int(k)] = c
        self.entries = clean
        self.space = space

    def norm(self) -> float:
        return lp_norm(self.entries.values(), self.space.p)

    def scaled(self, a) -> "SparseVector":
        if a == 0:
            return SparseVector({}, self.space)
        return SparseVector({k: a * c for k, c in self.entries.items()}, self.space)

    def max_index(self) -> int:
        return max(self.entries) if self.entries else 0

    def min_index(self) -> int:
        return min(self.entries) if self.entries else 0

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other):
        return (
            isinstance(other, SparseVector)
            and self.space == other.space
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.space, tuple(sorted(self.entries.items(), key=lambda kv: kv[0]))))

    def __repr__(self):
        items = ", ".join(f"{k}: {c}" for k, c in sorted(self.entries.items()))
        return f"SparseVector({{{items}}}, {'c0' if self.space.p == math.inf else 'lp'})"


# --------------------------------------------------------------------------
# polynomials


class PolySeries:
    """Polynomial c_0 + c_1 z + ... + c_d z^d under a Hardy or C^k model."""

    __slots__ = ("coeffs", "model")

    def __init__(self, coeffs, model):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = coeffs
        self.model = model

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def derivative_coeffs(self, order: int = 1):
        c = self.coeffs
        for _ in range(order):
            c = [j * c[j] for j in range(1, len(c))]
        return c

    def norm(self) -> float:
        if isinstance(self.model, HardyModel):
            return lp_norm(self.coeffs, 2)
        return self.ck_norm_interval()[1]

    def ck_norm_interval(self):
        """(grid max, grid max + mesh * Lipschitz bound) over derivatives 0..k.

        Each grid max is exactly the largest |value| np.polyval computes on
        the ``_ck_grid`` points of [0, L], found by ``_grid_max`` without
        evaluating every point.  A block of points is skipped only when a
        proven bound on its computed values is at most the best value found:
        either fl(Horner(|c|, r)) >= |fl(p(u))| for 0 <= u <= r, since
        round-to-nearest is monotone and odd, or a mean-value bound plus
        Higham's gamma_2d margin for the rounding of Horner's rule.

        The Lipschitz sum skips zero coefficients, keeping every bit: a zero
        term is +0.0 added to a sum of nonnegative terms (or a NaN or inf
        one), which changes nothing.  Nor does it hide an overflow: the top
        coefficient of each derivative is nonzero and carries the largest
        power of max(L, 1) >= 1, so a power the full sum overflows on raises
        the same OverflowError there.  A grid sample or a Lipschitz sum that
        is inf is no bound either and raises OverflowError; a NaN one gives
        (nan, nan).
        """
        m: CkModel = self.model
        if not self.coeffs:
            return (0.0, 0.0)
        big = max(m.b - m.a, 1.0)
        grid = _ck_grid(m.b - m.a)
        lo = hi = 0.0
        d = self.coeffs
        # derivative i holds c_j times an int for each j >= i, and j * c keeps c's
        # type, so it is complex exactly when a complex c_j sits at an index >= i
        top = max((j for j, c in enumerate(d) if isinstance(c, complex)), default=-1)
        for i in range(m.k + 1):
            if i:  # derivative i from derivative i - 1, as derivative_coeffs(i) builds it
                d = [j * d[j] for j in range(1, len(d))]
            if not d:
                break
            sample = _grid_max(d, grid, real=i > top)
            if math.isnan(sample):  # max() would drop it and certify (0.0, 0.0)
                return (math.nan, math.nan)
            lip = sum(float(abs(c)) * j * big ** (j - 1) for j, c in enumerate(d) if j and c)
            if sample == math.inf or lip == math.inf:
                raise OverflowError(f"the C^{i} sup norm of a degree-{self.degree} polynomial "
                                    "is beyond the float range")
            lo = max(lo, sample)
            hi = max(hi, sample + _CK_MESH * lip)
        return (lo, max(lo, hi))

    def scaled(self, a) -> "PolySeries":
        return PolySeries([a * c for c in self.coeffs], self.model)

    def min_degree(self) -> int:
        for j, c in enumerate(self.coeffs):
            if c != 0:
                return j
        return 0

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return (
            isinstance(other, PolySeries)
            and self.model == other.model
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.model, tuple(self.coeffs)))

    def __repr__(self):
        return f"PolySeries({self.coeffs}, {type(self.model).__name__})"


def _taylor_shift(coeffs, a) -> list:
    """Coefficients of p(x + a) from those of p(x), by repeated synthetic division.

    Zero coefficients are never multiplied, so int 0 stays int 0.  For a = 0
    this is a copy.
    """
    c = list(coeffs)
    if a != 0:
        for i in range(len(c) - 1):
            for j in range(len(c) - 2, i - 1, -1):
                if c[j + 1] != 0:
                    c[j] = c[j] + a * c[j + 1]
    return c


def _ck_grid(length):
    """(n, point): the size and the i-th point of np.arange(0, length + _CK_MESH, _CK_MESH).

    numpy sizes it ceil((stop - start) / step) and fills in start + i * ((start + step) - start),
    which from start 0 is i * step.
    """
    return math.ceil((length + _CK_MESH) / _CK_MESH), lambda i: i * _CK_MESH


def _horner(cs, x):
    """Horner's rule from 0.0, highest degree first: np.polyval's operations, in order."""
    acc = 0.0
    for c in cs:
        acc = acc * x + c
    return acc


def _polyval(cs, xs) -> list:
    """The values np.polyval(cs, xs) computes, one grid point at a time."""
    return [_horner(cs, x) for x in xs]


def _gamma(m: int) -> float:
    """Higham's gamma_m = m u / (1 - m u), u the unit roundoff 2^-53."""
    mu = m * 2.0**-53
    return mu / (1.0 - mu)


def _abs(z) -> float:
    """abs(z), but nan for a complex NaN with no infinite part, whose abs() raises
    OverflowError when an earlier libm call left ERANGE in errno (CPython does not
    clear it there).  A genuine overflow still raises; callers try abs() first."""
    if z != z and not (math.isinf(z.real) or math.isinf(z.imag)):
        return math.nan
    return abs(z)


def _modulus(z: complex) -> float:
    """abs(z), or inf where that overflows, as np.abs gives it."""
    try:
        return abs(z)
    except OverflowError:
        return math.inf if z == z else _abs(z)


_DIRECT_BLOCK = 16  # a block with at most this many interior points is evaluated, not split


def _grid_max(coeffs, grid, real: bool) -> float:
    """np.max(np.abs(np.polyval(cs, grid))) for cs = ``coeffs`` (lowest degree first), bit for bit.

    The coefficients are converted as numpy would: all complex if any is,
    else all float; ``real`` says which, as the caller knows it.  A NaN
    value makes the result NaN, as in np.max.  The grid points
    (``_ck_grid``) start at 0 and never decrease.  The search
    evaluates the two end points, then takes blocks of grid indices off a
    stack: a block whose points provably have computed |value| <= the best
    value found so far is skipped, a block of at most ``_DIRECT_BLOCK``
    interior points is evaluated, any other is split at its middle point.
    All points of a block lie in [u_i, u_j], its end points, with u_i >= 0.
    Write p for the polynomial with the converted coefficients c, so that a
    computed value is fl(p(u)), and S(u) = sum |c_i| u^i.  Two bounds:

    * Monotone rounding.  Round-to-nearest is monotone and odd, so by
      induction over Horner's steps |fl(p(u))| <= fl(Horner(|c|, u_j)) for
      every float 0 <= u <= u_j, with no margin.  A single-sign polynomial
      reaches this bound at the last grid point, which closes the search
      after the two end points.  Complex values are bounded through their
      real and imaginary parts, which Horner's steps on a real u update
      independently (up to signed zeros), with the margins below.
    * Mean value.  For real u in [u_i, u_j], |p(u)| <= (|p(u_i)| + |p(u_j)|
      + (u_j - u_i) max|p'|) / 2, where |p'| <= sum j |c_j| u_j^(j-1) as
      u >= 0.  Higham's bound for Horner without fused multiply-add,
      |fl(p(u)) - p(u)| <= gamma_2d S(u) <= gamma_2d S(u_j), relates the
      computed values at u, u_i and u_j to exact ones: three margins that
      2 g fl(Horner(|c|, u_j)) covers, g = gamma_(8d+16).  One slack factor
      1 + g covers the rounding of the bound itself, and a fixed absolute
      term covers underflow.  Cancelling expansions (u - c)^n close through it.
    """
    n, point = grid
    if real:
        cs = [float(c) for c in reversed(coeffs)]
        mag = [abs(c) for c in cs]
        size = abs
    else:
        cs = [complex(c) for c in reversed(coeffs)]
        mag = [abs(c.real) + abs(c.imag) for c in cs]
        size = _modulus
    d = len(cs) - 1
    g = _gamma(8 * d + 16)
    u0, un = point(0), point(n - 1)
    # underflow: a multiplication loses at most 2^-1075 absolutely; the bounds
    # gather fewer than (d + 2)^4 such losses, each grown by at most
    # (2 rho^2)^(d + 1) on its way, with rho = 1 + max u
    rho = 1.0 + un
    tiny = math.ldexp((d + 2) ** 4, -1070)
    for _ in range(d + 1):
        tiny *= 2.0 * rho * rho
    slope = None  # k |c_k|, highest first; built on the first block needing it

    v0, vn = _polyval(cs, [u0, un])
    a0, an = size(v0), size(vn)
    if a0 != a0 or an != an:
        return math.nan
    best = max(a0, an)
    stack = [(0, n - 1, u0, un, a0, an)]
    while stack:
        i, j, ui, uj, ai, aj = stack.pop()
        if j - i < 2:
            continue
        b1 = _horner(mag, uj)
        if not real:
            b1 = b1 * (1.0 + g) + tiny
        if b1 <= best < math.inf:
            continue
        if slope is None:
            slope = [k * size(c) for k, c in zip(range(d, 0, -1), cs)]
        b2 = ((ai + aj + (uj - ui) * _horner(slope, uj)) * 0.5
              + 2.0 * g * b1) * (1.0 + g) + tiny
        if b2 <= best < math.inf:
            continue
        if j - i <= _DIRECT_BLOCK + 1:
            values = _polyval(cs, [point(m) for m in range(i + 1, j)])
        else:
            mid = (i + j) // 2
            um = point(mid)
            values = _polyval(cs, [um])
            am = size(values[0])
            low, high = (i, mid, ui, um, ai, am), (mid, j, um, uj, am, aj)
            # the half with the larger end value is searched first
            stack += (low, high) if aj >= ai else (high, low)
        for v in values:
            av = size(v)
            if av > best:
                best = av
            elif av != av:
                return math.nan
    return best


# --------------------------------------------------------------------------
# piecewise-linear functions on the half line


def _trim_bounds(at, lo, hi):
    """(lo, hi) with the redundant zero tails of the values at(lo), ..., at(hi - 1) cut off.

    The first point is dropped while it and the next have value 0, then the
    last while it and the one before do, keeping two points at least.
    """
    while hi - lo >= 3 and at(lo) == 0 and at(lo + 1) == 0:
        lo += 1
    while hi - lo >= 3 and at(hi - 1) == 0 and at(hi - 2) == 0:
        hi -= 1
    return lo, hi


def _trimmed(breakpoints, values):
    """(breakpoints, values) without redundant zero tails (``_trim_bounds``), so
    that equal functions compare equal, and empty when every value is 0.

    The lists are sliced, never changed.
    """
    lo, hi = _trim_bounds(values.__getitem__, 0, len(values))
    if not any(islice(values, lo, hi)):
        return [], []
    if lo or hi < len(values):
        return breakpoints[lo:hi], values[lo:hi]
    return breakpoints, values


class PiecewiseLinearFn:
    """Compactly supported piecewise-linear function on [0, inf).

    The stored graph is (breakpoints, values); the actual function is
    exp(log_scale) times the interpolant, zero outside the breakpoint
    range.  ``log_scale`` lets translation-semigroup scalings e^(lam*t)
    stay symbolic, which is what makes the semigroup law an exact
    identity on this class.

    Invariants: breakpoints strictly increasing and >= 0; value 0 at the
    last breakpoint, and at the first unless it sits at 0 (a clipped
    function may carry mass into the origin).  The breakpoint checks run
    in C: a strictly increasing list is >= 0 when its first entry is, and
    a NaN fails both tests.  Only a list that fails them is walked in
    Python, to name the first fault.
    """

    __slots__ = ("breakpoints", "values", "log_scale")

    def __init__(self, breakpoints, values, log_scale=0):
        breakpoints = list(breakpoints)
        values = list(values)
        if len(breakpoints) != len(values):
            raise ValueError("breakpoints and values must have equal length")
        if breakpoints and len(breakpoints) < 2:
            raise ValueError("need at least two breakpoints (or none for the zero fn)")
        if breakpoints and not (breakpoints[0] >= 0 and all(
                map(operator.lt, breakpoints, islice(breakpoints, 1, None)))):
            for i, b in enumerate(breakpoints):
                if b < 0:
                    raise ValueError("breakpoints must be >= 0")
                if i and not breakpoints[i - 1] < b:
                    raise ValueError("breakpoints must be strictly increasing")
        if breakpoints:
            if values[-1] != 0:
                raise ValueError("value at the last breakpoint must be 0")
            if values[0] != 0 and breakpoints[0] != 0:
                raise ValueError("value at the first breakpoint must be 0 unless it is 0")
        self.breakpoints, self.values = _trimmed(breakpoints, values)
        self.log_scale = 0 if not self.breakpoints else log_scale

    @classmethod
    def zero(cls):
        return cls([], [])

    @classmethod
    def tent(cls, left, peak_x, right, peak=1):
        return cls([left, peak_x, right], [0, peak, 0])

    def is_zero(self) -> bool:
        return not self.breakpoints

    def raw_eval(self, x):
        """Interpolant without the exp(log_scale) factor."""
        bp, v = self.breakpoints, self.values
        if not bp or x <= bp[0] or x >= bp[-1]:
            if bp and x == bp[0]:
                return v[0]
            return 0
        i = bisect_right(bp, x) - 1
        if bp[i] == x:
            return v[i]
        t = (x - bp[i]) / (bp[i + 1] - bp[i])
        return v[i] + t * (v[i + 1] - v[i])

    def norm(self) -> float:
        if not self.breakpoints:
            return 0.0
        try:
            peak = max(map(abs, self.values))
        except OverflowError:
            peak = max(map(_abs, self.values))
        return math.exp(float(self.log_scale)) * float(peak)

    def max_slope(self) -> float:
        """Upper bound on |d/dx|, including the scale factor."""
        if not self.breakpoints:
            return 0.0
        s = max(
            abs(self.values[i + 1] - self.values[i]) / (self.breakpoints[i + 1] - self.breakpoints[i])
            for i in range(len(self.values) - 1)
        )
        return math.exp(float(self.log_scale)) * float(s)

    def folded(self) -> "PiecewiseLinearFn":
        """Equivalent function with log_scale 0 (values go float).

        The constructor's result, built without its breakpoint and endpoint
        checks: ``self`` passed them, and the factor e^s is finite and >= 0, so
        its endpoint zeros stay zero.  Only the trim and all-zero rules run,
        since scaled values may underflow to 0.  The breakpoint list is shared.
        """
        if self.log_scale == 0:
            return self
        f = math.exp(float(self.log_scale))
        g = object.__new__(PiecewiseLinearFn)
        g.breakpoints, g.values = _trimmed(self.breakpoints, [f * v for v in self.values])
        g.log_scale = 0
        return g

    def scaled(self, a) -> "PiecewiseLinearFn":
        if a == 0:
            return PiecewiseLinearFn.zero()
        return PiecewiseLinearFn(self.breakpoints, [a * v for v in self.values], self.log_scale)

    def __eq__(self, other):
        return (
            isinstance(other, PiecewiseLinearFn)
            and self.breakpoints == other.breakpoints
            and self.values == other.values
            and self.log_scale == other.log_scale
        )

    def __hash__(self):
        return hash((tuple(self.breakpoints), tuple(self.values), self.log_scale))

    def __repr__(self):
        return (
            f"PiecewiseLinearFn({self.breakpoints}, {self.values}, log_scale={self.log_scale})"
        )


def plf_shift_left(f: PiecewiseLinearFn, dt, dlog=0) -> PiecewiseLinearFn:
    """Shift the graph left by dt >= 0, clip at x=0, add dlog to log_scale.

    The shifted breakpoints stay sorted, so the clip is a ``bisect_right`` at 0:
    the value at the origin, then the slice of breakpoints > 0 and their values.
    W(0) is the identity: a zero dt and dlog return f itself.
    """
    if f.is_zero() or dt == dlog == 0:
        return f
    bp = [b - dt for b in f.breakpoints]
    if bp[-1] <= 0:
        return PiecewiseLinearFn.zero()
    if bp[0] >= 0:
        return PiecewiseLinearFn(bp, f.values, f.log_scale + dlog)
    v0 = f.raw_eval(f.breakpoints[0] + (0 - bp[0]))
    k = bisect_right(bp, 0)
    return PiecewiseLinearFn([0, *bp[k:]], [v0, *f.values[k:]], f.log_scale + dlog)


def plf_shift_right(f: PiecewiseLinearFn, dt, dlog=0) -> PiecewiseLinearFn:
    """Shift the graph right by dt >= 0 (extends by zero below the support)."""
    if f.is_zero():
        return f
    if dt > 0 and f.values[0] != 0:
        raise ValueError(
            "cannot shift right a function with nonzero value at the origin "
            "(the result would jump); right shifts are defined on the dense class"
        )
    return PiecewiseLinearFn([b + dt for b in f.breakpoints], f.values, f.log_scale + dlog)


# --------------------------------------------------------------------------
# algebra


def linear_combine(a, u, b, v):
    """a*u + b*v with exact coefficient / breakpoint-union arithmetic."""
    if type(u) is not type(v) or type(u) not in _SUMS:
        raise TypeError(f"cannot combine {type(u).__name__} with {type(v).__name__}")
    return _SUMS[type(u)]([(a, u), (b, v)])


def sparse_sum(terms) -> SparseVector:
    """sum of c * v over the nonempty list of (c, v) pairs, in one pass over the entries.

    Entry for entry and in dict order, this is the pairwise fold it replaced
    (``linear_combine`` for two terms, then 1*acc + 1*v for each later one, as
    ``accumulate`` sums): each index is summed in list order, 0 + c*x where
    the running sum lacks it, an index first met at a later term is
    appended, and an index whose running sum is 0 leaves the dict and
    re-enters at the end if a later term brings it back.  A zero of c1*v1
    (a zero or underflowing weight) keeps its place until the constructor
    drops it, as in ``linear_combine``; a fold of three or more terms would
    drop it after the second.  The fold's 1*acc is skipped: exact for real
    scalars, and for finite complex ones up to the sign of a zero part.
    """
    (a, first), *rest = terms
    space = first.space
    out = {k: a * c for k, c in first.entries.items()}
    for b, v in rest:
        if v.space is not space and v.space != space:
            raise ValueError("sequence space mismatch")
        get = out.get
        for k, c in v.entries.items():
            s = get(k, 0) + b * c
            if s != 0:
                out[k] = s
            elif k in out:
                del out[k]
    return SparseVector(out, space)


def poly_sum(terms) -> PolySeries:
    """sum of c * p over the nonempty list of (c, p) pairs, into one coefficient list.

    It matches the pairwise fold it replaced, linear_combine(c1, p1, c2, p2)
    and then 1*acc + c*p for each later term, in length, coefficient types and
    values.  Each coefficient is summed in list order, and trailing zeros are
    trimmed after each term, so a coefficient past the running sum's end
    starts from the fold's int 0 padding, never from a 0.0 that would turn a
    later Fraction into a float.  The fold pads the shorter operand with 0
    and multiplies it by its weight: a pad c*0 that is not int 0 (a float,
    Fraction or complex weight) can change a coefficient's type and is
    added where the fold adds it; an int 0 pad, and the fold's 1*acc, are
    skipped.  For finite values only the sign of a zero can differ: a -0.0
    coefficient, or a zero part of a complex one, can stay -0.0 where the
    fold writes 0.0.  No norm, comparison or hash reads that sign.
    """
    (a, first), *rest = terms
    model = first.model
    out = [a * c for c in first.coeffs]
    lead = a * 0  # the fold's pad of c1*p1, where p2 is longer
    for b, p in rest:
        if p.model != model:
            raise ValueError("polynomial model mismatch")
        pc = p.coeffs
        n, m = len(out), len(pc)
        head = [x + b * c for x, c in zip(out, pc)]
        pad = b * 0  # the fold's pad of c*p, where the running sum is longer
        if m > n:
            more = pc[n:]
            head += [b * c for c in more] if type(lead) is int else [lead + b * c for c in more]
        else:
            head += out[m:] if type(pad) is int else [x + pad for x in out[m:]]
        while head and head[-1] == 0:
            head.pop()
        out, lead = head, 0
    return PolySeries(out, model)


def plf_sum(terms, folds=None) -> PiecewiseLinearFn:
    """sum of c * f over the (c, f) pairs, in one pass over the breakpoint union.

    Each term is evaluated with ``raw_eval``'s formula only at the union points
    inside its own support, and terms are added in list order: linear in
    breakpoints when supports are local.  One log scale shared by every nonzero
    term is kept; mixed scales fold every term to scale 0 first, and a term
    whose fold underflows to zero (e^s is 0.0 once s < -745) adds nothing.
    ``folds``, when given, holds each f's ``f.folded()`` in the order of the
    terms (None where the sum is to fold f itself), so that a caller summing
    the same functions again and again folds each of them once.

    Two terms give the pairwise sum value for value.  With more, folding in
    pairs interpolates the running sum at each new breakpoint where this sums
    the terms' own interpolations: equal in rational arithmetic without a fold,
    a few ulps apart in floats.
    """
    kept = [(c, f, g) for (c, f), g in zip(terms, folds or repeat(None)) if not f.is_zero()]
    if len(kept) == 1:
        c, f, _ = kept[0]
        return f.scaled(c)
    scale = kept[0][1].log_scale if kept else 0
    if any(f.log_scale != scale for _, f, _ in kept):
        terms = [(c, f.folded() if g is None else g) for c, f, g in kept]
        terms = [(c, f) for c, f in terms if not f.is_zero()]
        scale = 0
    else:
        terms = [(c, f) for c, f, _ in kept]
    if not terms:
        return PiecewiseLinearFn.zero()
    # equal breakpoints of different types keep the first term's representative
    bps = sorted(set().union(*(f.breakpoints for _, f in terms)))
    vals = [0] * len(bps)
    for c, f in terms:
        fb, fv = f.breakpoints, f.values
        first = bisect_left(bps, fb[0])
        last = bisect_left(bps, fb[-1], first)
        vals[first] += c * fv[0]
        k = 0
        # raw_eval is 0 at the last breakpoint, so the walk stops short of it
        for i in range(first + 1, last):
            x = bps[i]
            while fb[k + 1] <= x:
                k += 1
            if fb[k] == x:
                vals[i] += c * fv[k]
            else:
                t = (x - fb[k]) / (fb[k + 1] - fb[k])
                vals[i] += c * (fv[k] + t * (fv[k + 1] - fv[k]))
    # the endpoint invariants need no padding: the first union point is some
    # term's first breakpoint, where every term is 0 unless the point is 0,
    # and no term adds anything at the last union point
    return PiecewiseLinearFn(bps, vals, scale)


_SUMS = {SparseVector: sparse_sum, PolySeries: poly_sum, PiecewiseLinearFn: plf_sum}


def accumulate(values):
    """Sum of a nonempty list of same-type values: its type's one-pass sum, every weight 1.

    The zero rules are the sums' own.  A sequence index whose running sum is
    0 leaves and re-enters at the end (``sparse_sum``); a polynomial drops
    its trailing zeros after each term, so later terms extend it from int 0
    padding (``poly_sum``); a piecewise-linear function drops terms that
    fold to zero (``plf_sum``).
    """
    values = list(values)
    if not values:
        raise ValueError("accumulate needs at least one value")
    kind = type(values[0])
    for v in values:
        if type(v) is not kind or kind not in _SUMS:
            raise TypeError(f"cannot combine {kind.__name__} with {type(v).__name__}")
    return _SUMS[kind]([(1, v) for v in values])


def distance(u, v, dt=0, dlog=0, peaks=None) -> float:
    """||W(dt)u - v||, the norm of ``linear_combine(1, plf_shift_left(u, dt, dlog), -1, v)``
    bit for bit; without dt and dlog, ||u - v|| for two values of any one type.

    W(dt)u is the shift a piecewise-linear u takes in the translation
    semigroup, dt >= 0.  Two nonzero piecewise-linear functions take
    ``_plf_distance``, a walk that builds no function; any other pair builds
    the shift and the difference.  W(0) is the identity: a zero dt and dlog
    become the ints 0, so b - dt keeps a ``Fraction`` breakpoint and
    log_scale + dlog a ``Fraction`` scale.  ``peaks``, if given, must be
    ``suffix_peaks(u)``: a caller measuring one u often builds it once.
    """
    if dt == dlog == 0:
        dt = dlog = 0
    if type(u) is PiecewiseLinearFn and type(v) is PiecewiseLinearFn and u.breakpoints \
            and v.breakpoints:
        return _plf_distance(u, v, dt, dlog, peaks)
    if type(u) is PiecewiseLinearFn:
        u = plf_shift_left(u, dt, dlog)
    return linear_combine(1, u, -1, v).norm()


def suffix_peaks(f):
    """[max |x| over f.values[i:] for each index i], or None if f is not piecewise-linear or
    a value is NaN, complex, or not an int or float; ``_plf_distance`` reads the run of f
    past v's support from it as one entry instead of listing it."""
    if type(f) is not PiecewiseLinearFn:
        return None
    values = f.values
    if not set(map(type, values)) <= {int, float} or not all(map(operator.eq, values, values)):
        return None
    peaks, top = [], 0
    for x in map(abs, reversed(values)):  # about 3x faster than accumulate(..., max)
        if x > top:
            top = x
        peaks.append(top)
    peaks.reverse()
    return peaks


def _plf_distance(u: PiecewiseLinearFn, v: PiecewiseLinearFn, dt=0, dlog=0,
                  peaks=None) -> float:
    """sup |g - v| for g = plf_shift_left(u, dt, dlog), in one merge walk that reads u's lists.

    g is read in place.  Its points are u's indices lo..hi - 1 at breakpoints
    b - dt, except that a clip (u's first breakpoint minus dt below 0) puts
    g's first point at the origin, index c, with ``raw_eval``'s value there;
    dt is subtracted only from the breakpoints the walk visits, and the
    clip's index is found by bisecting on b - dt, which is monotone in b.
    g's trims are the constructor's: the clipped lists are cut by
    ``_trim_bounds``, and g is the zero function when its values are all
    zero or every breakpoint is at or below 0; then the difference is
    ``plf_sum``'s lone term v.scaled(-1).  u's own lists were trimmed, so an
    unclipped g needs no trim, and a clipped one only when its first two
    values are 0.

    At each union point the walk forms the value ``plf_sum([(1, g), (-1, v)])``
    stores there, with its arithmetic in its order: 0 + 1*G + (-1)*V, where a
    term is its value at its own breakpoint, f_k + t * (f_(k+1) - f_k) with
    t = (x - b_k) / (b_(k+1) - b_k) between two, and adds nothing (0 here)
    outside its support or at its last breakpoint.  A point of both lists is
    g's.  Mixed log scales fold both, as ``folded`` does: each value of g the
    walk reads is multiplied by the fold factor F = e^(scale) (none at scale
    0), and g's fold trims again by ``_trim_bounds`` on the products; a fold
    that underflows to all zeros leaves g no points, so it adds nothing.

    Every union point is listed, in order.  The result is the old norm's: max
    of the |values| (seeded with the first, replaced on ``>``, so NaN exactly
    when the first value is NaN; a complex NaN's is nan, ``_abs``), times
    exp(scale); when every value is 0 it is the zero function's 0.0.

    The one exception is the run of g past v's last breakpoint.  Given
    ``peaks`` (``suffix_peaks(u)``), it is the one entry fl(F p), p = peaks[i],
    when it starts at an index i other than the clip and fl(F p) > 0 (F = 1
    without a fold).  Proof: peaks exist, so the values are real and not NaN,
    and the run lists |0 + 1 * fl(F x) + (-1) * 0| = |fl(F x)| for u's values
    x_i, ..., x_(hi-2), then 0.  p is the largest |x| from x_i to the end of
    u's list, where fl(F x) = 0 from hi - 1 on (u's last value is 0, a fold
    trimmed the rest).  Round-to-nearest is monotone and odd, so fl(F p) > 0
    makes p the |x| of an x in the run and fl(F p) its largest entry, which
    alone leaves the max and the zero test as they were.

    Exact wherever ``plf_shift_left`` returns.  It subtracts dt from every
    breakpoint, so it can refuse a shift the walk still measures: two
    breakpoints within two ulps of each other that round to one float, or a
    breakpoint beyond the float range.
    """
    ub, uv = u.breakpoints, u.values
    lo, hi, c, v0, first = 0, len(ub), -1, None, ub[0] - dt

    def at(i):  # g's value at index i, before a fold
        return v0 if i == c else uv[i]

    if ub[-1] - dt <= 0:
        return v.scaled(-1).norm()
    if first < 0:
        c = lo = bisect_right(ub, 0, key=lambda b: b - dt) - 1
        v0 = u.raw_eval(ub[0] + (0 - first))
        if v0 == 0 and uv[lo + 1] == 0:
            lo, hi = _trim_bounds(at, lo, hi)
            if not any(map(at, range(lo, hi))):
                return v.scaled(-1).norm()
    scale, fold = u.log_scale + dlog, None
    if scale != v.log_scale:
        if scale != 0:
            fold = math.exp(float(scale))
            lo, hi = _trim_bounds(lambda i: fold * at(i), lo, hi)
            if not any(fold * at(i) for i in range(lo, hi)):
                hi = lo
        if v.log_scale != 0:
            v = v.folded()
        scale = 0

    def gx(i):  # g's breakpoint at index i
        return 0 if i == c else ub[i] - dt

    def gy(i):  # g's value at index i
        y = v0 if i == c else uv[i]
        return y if fold is None else fold * y

    vb, vv = v.breakpoints, v.values
    m, n = hi - 1, len(vb) - 1  # the last breakpoints, where a term adds nothing
    diffs = []  # the value at each union point, in order; the run past v as its peak
    i, j = lo, 0
    x = gx(i) if i <= m else None  # g's breakpoint at i
    while i <= m or j <= n:
        if j > n or (i <= m and x < vb[j]):
            if j > n and peaks is not None and i != c:  # the run of g past v, as one
                top = peaks[i] if fold is None else fold * peaks[i]
                if top > 0:
                    diffs.append(top)
                    break
            a, b = gy(i) if i < m else 0, 0  # v adds nothing before vb[0] or past vb[-1]
            if 0 < j <= n:
                b = vv[j - 1] + (x - vb[j - 1]) / (vb[j] - vb[j - 1]) * (vv[j] - vv[j - 1])
            i += 1
            x = gx(i) if i <= m else None
        elif i > m or vb[j] < x:
            a, b = 0, vv[j] if j < n else 0  # g adds nothing outside [gx(lo), gx(m))
            if lo < i <= m:
                p = gx(i - 1)
                a = gy(i - 1) + (vb[j] - p) / (x - p) * (gy(i) - gy(i - 1))
            j += 1
        else:
            a, b = gy(i) if i < m else 0, vv[j] if j < n else 0
            i += 1
            j += 1
            x = gx(i) if i <= m else None
        diffs.append(0 + 1 * a + -1 * b)
    if not any(diffs):  # a value is nonzero exactly when its modulus is
        return 0.0
    try:
        top = max(map(abs, diffs))
    except OverflowError:
        top = max(map(_abs, diffs))
    return math.exp(float(scale)) * float(top)


# --------------------------------------------------------------------------
# frozen enumeration of the countable dense sets
#
# Every enumerated element is built from dyadic rationals a / 2^b in lowest
# terms (a odd whenever b >= 1).  Elements are ordered by a cost, then by a
# lexicographic key that determines the element, so none repeats; the costs
# and keys are frozen here and documented in the README ("Frozen target
# enumeration").  Each cost level is finite and is built once, when the
# levels below it hold fewer elements than asked for.  The first element is
# always the canonical unit: e_1, the constant-1 polynomial, or the unit
# tent on [0, 2].


def _dyadics(cost: int):
    """(key, Fraction) for the dyadics a / 2^b in lowest terms with |a| + b = ``cost``."""
    for b in range(cost):
        mag = cost - b
        if b == 0 or mag % 2:
            for sign_bit, sign in ((0, 1), (1, -1)):
                yield (b, mag, sign_bit), Fraction(sign * mag, 2**b)


def _coefficients(cost: int, slots: int):
    """(keys, values) for every ``slots``-tuple of dyadics whose |a| + b sum to ``cost``."""
    if slots == 0:
        if cost == 0:
            yield (), ()
        return
    for first in range(1, cost - slots + 2):
        for key, value in _dyadics(first):
            for keys, values in _coefficients(cost - first, slots - 1):
                yield (key, *keys), (value, *values)


def _indexed(cost: int, kmin: int):
    """(key, {index: coeff}) for the maps on indices >= kmin of cost sum(index + |a| + b)."""
    for size in range(1, cost + 1):
        for ks in combinations(range(kmin, cost), size):
            for keys, values in _coefficients(cost - sum(ks), size):
                yield tuple((k, *key) for k, key in zip(ks, keys)), dict(zip(ks, values))


def _bumps(cost: int):
    """(key, (breakpoints, values)) for the bumps of cost g + j_last + sum(|a| + b).

    A bump is 0 at j_0 / 2^g, takes nonzero dyadic values at the interior
    breakpoints j / 2^g and is 0 again at j_last / 2^g; g is the least such
    exponent, so some j is odd when g > 0.
    """
    for g in range(cost):
        for jlast in range(2, cost - g):
            rest = cost - g - jlast  # the cost of the interior values
            for size in range(2, min(jlast, rest + 1) + 1):
                for js in combinations(range(jlast), size):  # j_0, then the interior
                    js += (jlast,)
                    if g and all(j % 2 == 0 for j in js):
                        continue  # a coarser grid holds it
                    bps = [Fraction(j, 2**g) for j in js]
                    for keys, values in _coefficients(rest, size - 1):
                        vals = [Fraction(0), *values, Fraction(0)]
                        yield (len(bps), tuple(bps), keys), (bps, vals)


def _cheapest(n: int, level):
    """The first ``n`` elements of level(1), level(2), ..., each level in key order."""
    levels = (sorted(level(cost), key=lambda t: t[0]) for cost in itertools.count(1))
    return [element for _, element in islice(chain.from_iterable(levels), n)]


def enumerate_targets(space, count: int, exact: bool = False):
    """First ``count`` elements of the frozen dense-set enumeration.

    ``space`` is a SequenceSpace, HardyModel, CkModel, or HalfLineC0 tag.
    With exact=True coefficients stay Fractions.  C^k[a,b] polynomials are
    enumerated in x and stored as p(a + u), exactly, since a float a is dyadic.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    scalar = (lambda x: x) if exact else float
    if isinstance(space, SequenceSpace):
        return [SparseVector({k: scalar(c) for k, c in m.items()}, space)
                for m in _cheapest(count, lambda cost: _indexed(cost, 1))]
    if isinstance(space, (HardyModel, CkModel)):
        base = Fraction(space.a) if isinstance(space, CkModel) else 0
        return [PolySeries([scalar(c) for c in _taylor_shift(
                    [m.get(j, 0) for j in range(max(m) + 1)], base)], space)
                for m in _cheapest(count, lambda cost: _indexed(cost, 0))]
    if isinstance(space, HalfLineC0):
        return [PiecewiseLinearFn([scalar(b) for b in bps], [scalar(v) for v in vals])
                for bps, vals in _cheapest(count, _bumps)]
    raise TypeError(f"unknown space tag {space!r}")
