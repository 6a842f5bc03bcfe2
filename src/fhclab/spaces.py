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

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np


# --------------------------------------------------------------------------
# space tags


@dataclass(frozen=True)
class SequenceSpace:
    """l_p for 1 <= p < inf (kind="lp") or c0 (kind="c0")."""

    kind: str = "lp"
    p: float = 2.0

    def __post_init__(self):
        if self.kind not in ("lp", "c0"):
            raise ValueError(f"unknown sequence space kind {self.kind!r}")
        if self.kind == "lp" and not 1.0 <= self.p < math.inf:
            raise ValueError(f"l_p requires 1 <= p < inf, got p={self.p}")


L2 = SequenceSpace("lp", 2.0)
C0_SEQ = SequenceSpace("c0")


@dataclass(frozen=True)
class HardyModel:
    """Polynomial model of H^2: norm is l2 of the coefficient list."""


@dataclass(frozen=True)
class CkModel:
    """Polynomial model of C^k[a,b].

    Sup-norms of derivatives are estimated on a grid of mesh ``mesh`` and
    reported with the rigorous Lipschitz correction mesh * sum(|c_i| * i *
    M^(i-1)), so ``norm`` is a true upper bound.
    """

    k: int
    a: float = 0.0
    b: float = 1.0
    mesh: float = 1e-4

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("k must be >= 0")
        if not self.a < self.b:
            raise ValueError("CkModel requires a < b")


@dataclass(frozen=True)
class HalfLineC0:
    """Tag for C0(R+), the home of PiecewiseLinearFn."""


HARDY = HardyModel()
C0_PLUS = HalfLineC0()


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

    @classmethod
    def basis(cls, k: int, space: SequenceSpace = L2):
        return cls({k: 1}, space)

    def norm(self) -> float:
        if not self.entries:
            return 0.0
        if self.space.kind == "c0":
            return float(max(abs(c) for c in self.entries.values()))
        p = self.space.p
        if p == 2:
            s = sum(abs(c) ** 2 for c in self.entries.values())
            return math.sqrt(float(s))
        return float(sum(float(abs(c)) ** p for c in self.entries.values())) ** (1.0 / p)

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

    def combine(self, a, b, other) -> "SparseVector":
        """a*self + b*other."""
        if self.space != other.space:
            raise ValueError("sequence space mismatch")
        out = {k: a * c for k, c in self.entries.items()}
        for k, c in other.entries.items():
            out[k] = out.get(k, 0) + b * c
        return SparseVector(out, self.space)

    def to_json_dict(self):
        return {
            "type": "sparse_vector",
            "space": {"kind": self.space.kind, "p": self.space.p},
            "entries": [[k, _encode_scalar(c)] for k, c in sorted(self.entries.items())],
        }

    @classmethod
    def from_json_dict(cls, obj):
        space = SequenceSpace(obj["space"]["kind"], obj["space"].get("p", 2.0))
        return cls({int(k): _decode_scalar(c) for k, c in obj["entries"]}, space)

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
        return f"SparseVector({{{items}}}, {self.space.kind})"


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

    @classmethod
    def monomial(cls, degree: int, model, coeff=1):
        return cls([0] * degree + [coeff], model)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def derivative_coeffs(self, order: int = 1):
        c = self.coeffs
        for _ in range(order):
            c = [j * c[j] for j in range(1, len(c))]
        return c

    def eval(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def norm(self) -> float:
        if isinstance(self.model, HardyModel):
            s = sum(abs(c) ** 2 for c in self.coeffs)
            return math.sqrt(float(s))
        return self.ck_norm_interval()[1]

    def ck_norm_interval(self):
        """(grid max, grid max + mesh * Lipschitz bound) over derivatives 0..k."""
        m: CkModel = self.model
        if not self.coeffs:
            return (0.0, 0.0)
        big = max(abs(m.a), abs(m.b), 1.0)
        grid = np.arange(m.a, m.b + m.mesh, m.mesh)
        lo = hi = 0.0
        for i in range(m.k + 1):
            d = self.derivative_coeffs(i)
            if not d:
                continue
            vals = np.polyval([complex(c) if isinstance(c, complex) else float(c)
                               for c in reversed(d)], grid)
            sample = float(np.max(np.abs(vals)))
            lip = sum(float(abs(c)) * j * big ** (j - 1) for j, c in enumerate(d) if j >= 1)
            lo = max(lo, sample)
            hi = max(hi, sample + m.mesh * lip)
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

    def combine(self, a, b, other) -> "PolySeries":
        """a*self + b*other."""
        if self.model != other.model:
            raise ValueError("polynomial model mismatch")
        n = max(len(self.coeffs), len(other.coeffs))
        cu = self.coeffs + [0] * (n - len(self.coeffs))
        cv = other.coeffs + [0] * (n - len(other.coeffs))
        return PolySeries([a * x + b * y for x, y in zip(cu, cv)], self.model)

    def to_json_dict(self):
        m = self.model
        model = ({"kind": "hardy"} if isinstance(m, HardyModel)
                 else {"kind": "ck", "k": m.k, "a": m.a, "b": m.b, "mesh": m.mesh})
        return {"type": "poly_series", "model": model,
                "coeffs": [_encode_scalar(c) for c in self.coeffs]}

    @classmethod
    def from_json_dict(cls, obj):
        m = obj["model"]
        model = HARDY if m["kind"] == "hardy" else CkModel(m["k"], m["a"], m["b"], m["mesh"])
        return cls([_decode_scalar(c) for c in obj["coeffs"]], model)

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


# --------------------------------------------------------------------------
# piecewise-linear functions on the half line


class PiecewiseLinearFn:
    """Compactly supported piecewise-linear function on [0, inf).

    The stored graph is (breakpoints, values); the actual function is
    exp(log_scale) times the interpolant, zero outside the breakpoint
    range.  ``log_scale`` lets translation-semigroup scalings e^(lam*t)
    stay symbolic, which is what makes the semigroup law an exact
    identity on this class.

    Invariants: breakpoints strictly increasing and >= 0; value 0 at the
    last breakpoint, and at the first unless it sits at 0 (a clipped
    function may carry mass into the origin).
    """

    __slots__ = ("breakpoints", "values", "log_scale")

    def __init__(self, breakpoints, values, log_scale=0):
        breakpoints = list(breakpoints)
        values = list(values)
        if len(breakpoints) != len(values):
            raise ValueError("breakpoints and values must have equal length")
        if breakpoints and len(breakpoints) < 2:
            raise ValueError("need at least two breakpoints (or none for the zero fn)")
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
        # trim redundant zero tails so equal functions compare equal
        while len(values) >= 3 and values[0] == 0 and values[1] == 0:
            breakpoints.pop(0)
            values.pop(0)
        while len(values) >= 3 and values[-1] == 0 and values[-2] == 0:
            breakpoints.pop()
            values.pop()
        if breakpoints and all(v == 0 for v in values):
            breakpoints, values = [], []
        self.breakpoints = breakpoints
        self.values = values
        self.log_scale = 0 if not breakpoints else log_scale

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

    def eval(self, x) -> float:
        return math.exp(float(self.log_scale)) * float(self.raw_eval(x))

    def norm(self) -> float:
        if not self.breakpoints:
            return 0.0
        return math.exp(float(self.log_scale)) * float(max(abs(v) for v in self.values))

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
        """Equivalent function with log_scale 0 (values go float)."""
        if self.log_scale == 0:
            return self
        f = math.exp(float(self.log_scale))
        return PiecewiseLinearFn(self.breakpoints, [f * v for v in self.values], 0)

    def scaled(self, a) -> "PiecewiseLinearFn":
        if a == 0:
            return PiecewiseLinearFn.zero()
        return PiecewiseLinearFn(self.breakpoints, [a * v for v in self.values], self.log_scale)

    def combine(self, a, b, other) -> "PiecewiseLinearFn":
        """a*self + b*other, one pass over the breakpoint union."""
        return plf_sum([(a, self), (b, other)])

    def to_json_dict(self):
        return {
            "type": "piecewise_linear",
            "breakpoints": [_encode_scalar(b) for b in self.breakpoints],
            "values": [_encode_scalar(x) for x in self.values],
            "log_scale": _encode_scalar(self.log_scale),
        }

    @classmethod
    def from_json_dict(cls, obj):
        return cls([_decode_scalar(b) for b in obj["breakpoints"]],
                   [_decode_scalar(x) for x in obj["values"]], _decode_scalar(obj["log_scale"]))

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
    """Shift the graph left by dt >= 0, clip at x=0, add dlog to log_scale."""
    if f.is_zero():
        return f
    if dt < 0:
        return plf_shift_right(f, -dt, dlog)
    bp = [b - dt for b in f.breakpoints]
    if bp[-1] <= 0:
        return PiecewiseLinearFn.zero()
    if bp[0] >= 0:
        return PiecewiseLinearFn(bp, list(f.values), f.log_scale + dlog)
    v0 = f.raw_eval(f.breakpoints[0] + (0 - bp[0]))
    nb, nv = [0], [v0]
    for b, v in zip(bp, f.values):
        if b > 0:
            nb.append(b)
            nv.append(v)
    return PiecewiseLinearFn(nb, nv, f.log_scale + dlog)


def plf_shift_right(f: PiecewiseLinearFn, dt, dlog=0) -> PiecewiseLinearFn:
    """Shift the graph right by dt >= 0 (extends by zero below the support)."""
    if f.is_zero():
        return f
    if dt < 0:
        return plf_shift_left(f, -dt, dlog)
    if dt > 0 and f.values[0] != 0:
        raise ValueError(
            "cannot shift right a function with nonzero value at the origin "
            "(the result would jump); right shifts are defined on the dense class"
        )
    return PiecewiseLinearFn([b + dt for b in f.breakpoints], list(f.values), f.log_scale + dlog)


# --------------------------------------------------------------------------
# algebra


def linear_combine(a, u, b, v):
    """a*u + b*v with exact coefficient / breakpoint-union arithmetic."""
    if type(u) is not type(v) or type(u) not in _VECTOR_CLASSES:
        raise TypeError(f"cannot combine {type(u).__name__} with {type(v).__name__}")
    return u.combine(a, b, v)


def plf_sum(terms) -> PiecewiseLinearFn:
    """sum of c * f over the (c, f) pairs, in one pass over the breakpoint union.

    Each term is evaluated with ``raw_eval``'s formula only at the union points
    inside its own support, and terms are added in list order: linear in
    breakpoints when supports are local.  One log scale shared by every nonzero
    term is kept; mixed scales fold every term to scale 0 first, and a term
    whose fold underflows to zero (e^s is 0.0 once s < -745) adds nothing.

    Two terms give the pairwise sum value for value.  With more, folding in
    pairs interpolates the running sum at each new breakpoint where this sums
    the terms' own interpolations: equal in rational arithmetic without a fold,
    a few ulps apart in floats.
    """
    terms = [(c, f) for c, f in terms if not f.is_zero()]
    if len(terms) == 1:
        c, f = terms[0]
        return f.scaled(c)
    scale = terms[0][1].log_scale if terms else 0
    if any(f.log_scale != scale for _, f in terms):
        terms = [(c, f.folded()) for c, f in terms]
        terms = [(c, f) for c, f in terms if not f.is_zero()]
        scale = 0
    if not terms:
        return PiecewiseLinearFn.zero()
    bps = sorted({x for _, f in terms for x in f.breakpoints})
    index = {x: i for i, x in enumerate(bps)}
    vals = [0] * len(bps)
    for c, f in terms:
        fb, fv = f.breakpoints, f.values
        first, last = index[fb[0]], index[fb[-1]]
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


def accumulate(values):
    """Sum of a nonempty list of same-type values.

    Piecewise-linear lists go through ``plf_sum`` in one pass; the other
    types are folded in pairs with ``linear_combine``.
    """
    values = list(values)
    if not values:
        raise ValueError("accumulate needs at least one value")
    if all(type(v) is PiecewiseLinearFn for v in values):
        return plf_sum([(1, v) for v in values])
    acc = values[0]
    for v in values[1:]:
        acc = linear_combine(1, acc, 1, v)
    return acc


def distance(u, v) -> float:
    return linear_combine(1, u, -1, v).norm()


# --------------------------------------------------------------------------
# frozen enumeration of the countable dense sets
#
# Every enumerated element is built from dyadic rationals a / 2^b in lowest
# terms (a odd whenever b >= 1).  Elements are ordered by a cost, then by a
# deterministic lexicographic key; the exact scheme is frozen here and
# documented in the README.  The first element is always the canonical unit:
# e_1, the constant-1 polynomial, or the unit tent on [0, 2].


def _dyadic_options(budget: int):
    """(cost, Fraction) for coefficients a/2^b with |a| + b <= budget."""
    for b in range(0, budget):
        for mag in range(1, budget - b + 1):
            if b > 0 and mag % 2 == 0:
                continue
            for sign_bit, sign in ((0, 1), (1, -1)):
                yield mag + b, (b, mag, sign_bit), Fraction(sign * mag, 2**b)


def _indexed_vectors(budget: int, kmin: int):
    """((cost, key), {index: coeff}) for every map with sum(index + |a| + b) <= budget."""
    results = []

    def rec(k, used, current, key):
        if current:
            results.append(((used, tuple(key)), dict(current)))
        if k + 1 + used > budget:
            return
        for cost, ckey, coeff in _dyadic_options(budget - used - k):
            rec(k + 1, used + k + cost, current + [(k, coeff)], key + [(k,) + ckey])
        rec(k + 1, used, current, key)

    rec(kmin, 0, [], [])
    return results


def _first_distinct(count: int, budget: int, cap: int, candidates, make):
    """First ``count`` distinct elements in cost order, raising the budget as needed.

    ``candidates(budget)`` lists (sort key, raw) pairs within the budget and
    ``make(raw)`` gives (signature, element); equal signatures keep the first.
    """
    while budget < cap:
        seen, out = set(), []
        for _, raw in sorted(candidates(budget), key=lambda t: t[0]):
            sig, element = make(raw)
            if sig in seen:
                continue
            seen.add(sig)
            out.append(element)
            if len(out) == count:
                return out
        budget += 1
    raise ValueError(f"enumeration budget exhausted before {count} elements")


def _enumerate_indexed(count: int, kmin: int):
    return _first_distinct(count, 2, 40, lambda budget: _indexed_vectors(budget, kmin),
                           lambda m: (tuple(sorted(m.items())), m))


def _plf_candidates(budget: int):
    """(key, (breakpoints, values)) of dyadic bumps, cost g + j_last + sum(|a|+b) <= budget."""
    out = []
    for g in range(0, budget + 1):
        den = 2**g
        for jlast in range(2, budget - g + 1):
            vbudget = budget - g - jlast
            if vbudget < 1:
                continue
            # choose interior integer breakpoints between some j0 and jlast
            for j0 in range(0, jlast - 1):
                interiors = _interior_choices(j0, jlast)
                for mids in interiors:
                    if not mids:
                        continue
                    if g > 0 and all(j % 2 == 0 for j in (j0, *mids, jlast)):
                        continue  # reducible to a coarser grid
                    for cost_vals, vkey, vals in _value_assignments(len(mids), vbudget):
                        cost = g + jlast + cost_vals
                        bps = [Fraction(j, den) for j in (j0, *mids, jlast)]
                        key = (cost, len(bps), tuple(bps), vkey)
                        out.append((key, (bps, [Fraction(0), *vals, Fraction(0)])))
    return out


def _interior_choices(j0, jlast):
    inner = list(range(j0 + 1, jlast))
    for r in range(1, len(inner) + 1):
        yield from combinations(inner, r)


def _value_assignments(n, vbudget):
    """All length-n interior value tuples with total cost <= vbudget."""
    opts = list(_dyadic_options(vbudget))
    results = []

    def rec(i, used, vals, key):
        if i == n:
            results.append((used, tuple(key), list(vals)))
            return
        for cost, ckey, coeff in opts:
            if used + cost <= vbudget:
                rec(i + 1, used + cost, vals + [coeff], key + [ckey])

    rec(0, 0, [], [])
    return results


def _maybe_float(x, exact: bool):
    return x if exact else float(x)


def enumerate_targets(space, count: int, exact: bool = False):
    """First ``count`` elements of the frozen dense-set enumeration.

    ``space`` is a SequenceSpace, HardyModel, CkModel, or HalfLineC0 tag.
    With exact=True coefficients stay Fractions.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if isinstance(space, SequenceSpace):
        return [SparseVector({k: _maybe_float(c, exact) for k, c in m.items()}, space)
                for m in _enumerate_indexed(count, kmin=1)]
    if isinstance(space, (HardyModel, CkModel)):
        return [PolySeries([_maybe_float(m.get(j, 0), exact) for j in range(max(m) + 1)], space)
                for m in _enumerate_indexed(count, kmin=0)]
    if isinstance(space, HalfLineC0):
        def make(raw):
            bps, vals = raw
            f = PiecewiseLinearFn([_maybe_float(b, exact) for b in bps],
                                  [_maybe_float(v, exact) for v in vals])
            return (tuple(f.breakpoints), tuple(f.values)), f

        return _first_distinct(count, 3, 24, _plf_candidates, make)
    raise TypeError(f"unknown space tag {space!r}")


# --------------------------------------------------------------------------
# JSON codecs (documented schema; exact round trip in rational mode)


def _encode_scalar(c):
    if isinstance(c, Fraction):
        return {"fraction": [c.numerator, c.denominator]}
    if isinstance(c, complex):
        return {"complex": [c.real, c.imag]}
    if isinstance(c, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(c, (int, float)):
        return c
    raise TypeError(f"unsupported scalar {type(c).__name__}")


def _decode_scalar(obj):
    if isinstance(obj, dict):
        if "fraction" in obj:
            n, d = obj["fraction"]
            return Fraction(n, d)
        if "complex" in obj:
            re, im = obj["complex"]
            return complex(re, im)
        raise ValueError(f"bad scalar object {obj!r}")
    return obj


_VECTOR_TYPES = {
    "sparse_vector": SparseVector,
    "poly_series": PolySeries,
    "piecewise_linear": PiecewiseLinearFn,
}
_VECTOR_CLASSES = tuple(_VECTOR_TYPES.values())


def from_json_dict(obj):
    """The vector a class's ``to_json_dict`` wrote, by its ``"type"`` tag."""
    cls = _VECTOR_TYPES.get(obj["type"])
    if cls is None:
        raise ValueError(f"unknown serialized type {obj['type']!r}")
    return cls.from_json_dict(obj)
