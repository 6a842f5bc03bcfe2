"""Built-in operator models, their right inverses, and certificate transforms.

Three families:

* weighted backward shift (x_k) -> (w^k x_{k+1}) on l_p / c0, |w| > 1,
  with right inverse (x_k) -> (0, x_1/w, x_2/w^2, ...);
* differentiation f -> f' on the Hardy or C^k polynomial model, with
  the antiderivative vanishing at the base point as right inverse;
* the translation generator on C0(R+): one forward step maps f to
  e^lam f(.+1) clipped at 0, one inverse step to e^-lam f(.-1).

Each family is one class that owns everything known about it:

* ``space`` -- where its targets live;
* ``forward(v, m)``, ``inverse(v, m)`` -- the raw m-step actions A^m, B^m;
* ``extinction(v)`` -- E with A^m v = 0 for all m >= E;
* ``inverse_ratio_bound(y, n, r)`` -- a bound on ||B^(r(n+1)) y|| / ||B^(r n) y||;
* ``combine_mode(y)`` -- the exponent the norms of the terms B^(r n) y
  combine with: p when they are provably disjointly supported in an l^p
  norm (inf in c0), None for the triangle inequality.

A certificate bundles an operator with its enumerated targets plus two
formal transforms: a unit-modulus scalar twist and a power r, acting as
(twist*A)^(r n) forward and (twist^-1 B)^(r n) backward.  ``swapped``
certificates exchange the two roles.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

from .spaces import (
    C0_PLUS,
    HardyModel,
    PiecewiseLinearFn,
    PolySeries,
    SequenceSpace,
    SparseVector,
    distance,
    enumerate_targets,
    plf_shift_left,
    plf_shift_right,
)


# --------------------------------------------------------------------------
# operator models


class WeightedBackwardShift:
    __slots__ = ("w", "space")

    def __init__(self, w, space: SequenceSpace):
        if abs(w) <= 1:
            raise ValueError(f"shift weight must satisfy |w| > 1, got {w}")
        self.w = w  # real/complex scalar with |w| > 1 (Fraction allowed)
        self.space = space

    def __eq__(self, other):
        if type(other) is not WeightedBackwardShift:
            return NotImplemented
        return (self.w, self.space) == (other.w, other.space)

    def forward(self, v: SparseVector, m: int) -> SparseVector:
        # entry at index i moves to i-m with weight w^((i-m) + ... + (i-1))
        out = {}
        for i, c in v.entries.items():
            if i > m:
                expo = m * i - m * (m + 1) // 2
                out[i - m] = c * self.w**expo
        return SparseVector(out, v.space)

    def inverse(self, v: SparseVector, m: int) -> SparseVector:
        # entry at index i moves to i+m with weight w^-(i + ... + (i+m-1));
        # a Fraction weight keeps this exact, int/float weights underflow gracefully
        out = {}
        for i, c in v.entries.items():
            expo = m * i + m * (m - 1) // 2
            if isinstance(self.w, Fraction):
                out[i + m] = c / self.w**expo
            else:
                out[i + m] = c * self.w ** (-expo)
        return SparseVector(out, v.space)

    def extinction(self, v: SparseVector) -> int:
        return v.max_index()

    def inverse_ratio_bound(self, y: SparseVector, n: int, r: int) -> float:
        # one more B^r multiplies each entry by w^-(i + ... + i+r-1), i >= kmin + r*n
        return abs(self.w) ** -(r * (y.min_index() + r * n))

    def combine_mode(self, y: SparseVector):
        return self.space.p if len(y.entries) == 1 else None


class Differentiation:
    """f -> f' on the Hardy model, or on C^k[a,b] stored in u = x - a (d/du = d/dx).

    ``inverse_ratio_bound`` is proven on the Hardy model only; on C^k some
    computed norms exceed it (ROADMAP item 2, defect 1).
    """

    __slots__ = ("space",)

    def __init__(self, space):
        self.space = space  # HardyModel or CkModel

    def __eq__(self, other):
        return self.space == other.space if type(other) is Differentiation else NotImplemented

    def forward(self, v: PolySeries, m: int) -> PolySeries:
        return PolySeries(v.derivative_coeffs(m), v.model)

    def inverse(self, v: PolySeries, m: int) -> PolySeries:
        # the m-fold antiderivative vanishing to order m at the origin of the
        # stored coordinate: B^m u^j = j!/(j+m)! u^(j+m)
        out = [0] * (len(v.coeffs) + m)
        for j, c in enumerate(v.coeffs):
            if c == 0:
                continue
            if isinstance(c, (int, Fraction)):
                out[j + m] = Fraction(c) / math.perm(j + m, m)
            else:
                # the per-step division chain, so float bits match m single steps
                for i in range(j + 1, j + m + 1):
                    c = c / i
                out[j + m] = c
        return PolySeries(out, v.model)

    def extinction(self, v: PolySeries) -> int:
        return v.degree + 1

    def inverse_ratio_bound(self, y: PolySeries, n: int, r: int) -> float:
        base = y.min_degree() + r * n
        if isinstance(self.space, HardyModel):
            q = 1.0
            for i in range(1, r + 1):
                q /= base + i
            return q
        # C^k sup-norms of antiderivatives lose k derivative factors; unproven,
        # and some cases exceed it (ROADMAP item 2, defect 1)
        model = self.space
        q = max(model.b - model.a, 1.0) ** r
        for i in range(1, r + 1):
            q /= max(1, base + i - model.k)
        return q

    def combine_mode(self, y: PolySeries):
        # inverse images of a Hardy monomial are monomials of distinct degrees
        if isinstance(self.space, HardyModel) and sum(1 for c in y.coeffs if c != 0) == 1:
            return 2.0
        return None


class TranslationGenerator:
    __slots__ = ("lam",)
    space = C0_PLUS

    def __init__(self, lam):
        if not lam > 0:
            raise ValueError("translation generator requires lam > 0")
        if lam > sys.float_info.max:  # the tail bounds and w_apply read float(lam)
            raise ValueError("beyond the float range")
        self.lam = lam  # growth rate lambda > 0; keep it an int/Fraction for exactness

    def __eq__(self, other):
        return self.lam == other.lam if type(other) is TranslationGenerator else NotImplemented

    def forward(self, f: PiecewiseLinearFn, m: int) -> PiecewiseLinearFn:
        return plf_shift_left(f, m, dlog=self.lam * m)

    def inverse(self, f: PiecewiseLinearFn, m: int) -> PiecewiseLinearFn:
        return plf_shift_right(f, m, dlog=-self.lam * m)

    def extinction(self, f: PiecewiseLinearFn):
        return f.breakpoints[-1] if not f.is_zero() else 0

    def inverse_ratio_bound(self, y: PiecewiseLinearFn, n: int, r: int) -> float:
        return math.exp(-float(self.lam) * r)

    def combine_mode(self, y: PiecewiseLinearFn):
        return None


class OperatorCertificate:
    """Operator + right inverse + enumerated dense targets (the criterion data)."""

    __slots__ = ("op", "targets", "scalar_twist", "power", "swapped")

    def __init__(self, op, targets: tuple, scalar_twist=1, power: int = 1,
                 swapped: bool = False):
        if power < 1:
            raise ValueError("power must be >= 1")
        if abs(abs(scalar_twist) - 1) > 1e-12:
            raise ValueError("scalar twist must have unit modulus")
        self.op, self.targets = op, targets
        self.scalar_twist, self.power, self.swapped = scalar_twist, power, swapped

    def __eq__(self, other):
        if type(other) is not OperatorCertificate:
            return NotImplemented
        return ((self.op, self.targets, self.scalar_twist, self.power, self.swapped)
                == (other.op, other.targets, other.scalar_twist, other.power, other.swapped))

    @property
    def target_count(self) -> int:
        return len(self.targets)

    def target(self, l: int):
        """1-based target y_l."""
        return self.targets[l - 1]


def make_certificate(op, target_count: int, exact: bool = False) -> OperatorCertificate:
    """Twist 1, power 1; ``transform_rotation``/``transform_power`` set the others."""
    targets = tuple(enumerate_targets(op.space, target_count, exact=exact))
    return OperatorCertificate(op, targets)


# --------------------------------------------------------------------------
# certificate-level actions


def _act(cert: OperatorCertificate, v, n: int, forward_role: bool):
    """The certificate's forward (or inverse) action applied n times.

    The swap picks which raw action of the operator plays the role; the
    twist scales the raw forward action by twist^m and the raw inverse one
    by twist^-m, m = r*n raw steps.
    """
    if n < 0:
        raise ValueError("iteration count must be >= 0")
    if n == 0:
        return v
    m = cert.power * n
    raw_forward = forward_role != cert.swapped
    out = cert.op.forward(v, m) if raw_forward else cert.op.inverse(v, m)
    factor = cert.scalar_twist ** (m if raw_forward else -m)
    return out if factor == 1 else out.scaled(factor)


def apply_forward(cert: OperatorCertificate, v, n: int):
    """(twist*A)^(r*n) v, exactly, on the finite representation."""
    return _act(cert, v, n, forward_role=True)


def apply_inverse(cert: OperatorCertificate, v, n: int):
    """(twist^-1 * B)^(r*n) v."""
    return _act(cert, v, n, forward_role=False)


def right_inverse_identity_check(cert: OperatorCertificate, v) -> float:
    """Residual norm of A(B v) - v under the certificate's current roles."""
    return distance(apply_forward(cert, apply_inverse(cert, v, 1), 1), v)


def forward_extinction_index(cert: OperatorCertificate, v) -> int:
    """Smallest E with apply_forward(cert, v, n) = 0 for all n >= E.

    Only defined for unswapped certificates (the inverse never dies).
    """
    if cert.swapped:
        raise ValueError("swapped certificates have no forward extinction")
    return math.ceil(cert.op.extinction(v) / cert.power)


# --------------------------------------------------------------------------
# certificate transforms (the corollaries)


def transform_power(cert: OperatorCertificate, r: int) -> OperatorCertificate:
    """Certificate for the r-th power: forward (A^r)^n, inverse (B^r)^n."""
    return OperatorCertificate(cert.op, cert.targets, cert.scalar_twist, cert.power * r,
                               cert.swapped)


def transform_rotation(cert: OperatorCertificate, lam) -> OperatorCertificate:
    """Certificate for the rotated operator lam*A, |lam| = 1."""
    return OperatorCertificate(cert.op, cert.targets, cert.scalar_twist * lam, cert.power,
                               cert.swapped)


def transform_inverse(cert: OperatorCertificate) -> OperatorCertificate:
    """Formally swap the forward and inverse roles (an involution)."""
    return OperatorCertificate(cert.op, cert.targets, cert.scalar_twist, cert.power,
                               not cert.swapped)
