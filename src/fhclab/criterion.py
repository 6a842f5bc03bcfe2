"""Certified tail bounds for the forward/backward series and the thresholds N_l.

``tail_norm`` returns a rigorous upper bound on

    sup { || sum_{n in F} G^n y ||  :  F finite, F ∩ [1, N-1] = empty }

for G the certificate's forward or inverse action.  Forward series of the
built-in operators die after a finite extinction index, so the forward
bound is a finite triangle sum (exactly 0 once N passes extinction).
Inverse series are dominated termwise: the disjointly supported terms of a
single-entry target combine in the space norm (``spaces.lp_norm``, the max
in c0), everything else by the triangle inequality, and the infinite
remainder is closed off with a certified geometric ratio.

``compute_thresholds`` searches the minimal N_l making all four displayed
inequalities hold with constants 1/(l*2^l) and 1/2^l.  With T_n = A^n and
S_k = B^k the criterion's doubly indexed sums collapse (A^(k+n) B^k = A^n,
A^k B^(k+n) = B^n on the dense class), so one N per l certifies uniformly
in k.  The ``TailCertificate`` it returns keeps the terms G^n y_l and the
tails it read, for the placement and the orbit sweep to read again.
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple

from .operators import OperatorCertificate, apply_forward, apply_inverse
from .spaces import accumulate, distance, lp_norm

_NEGLIGIBLE = 1e-34
_TINY_FLOOR = 1e-300  # smallest decaying tail reported: an upper bound on any that underflows
_MAX_TERMS = 600  # inverse terms summed before the geometric remainder closes the tail
_PROBE_WINDOW = 64  # sub-sums are drawn from F ⊂ (N, N + _PROBE_WINDOW]
_SEARCH_CAP = 10_000  # largest N tried for each threshold N_l


class CertificationError(Exception):
    """Raised when a threshold search exceeds its cap or meets a NaN or overflowing bound."""


def _not_nan(bound: float, what: str) -> float:
    """bound, unless it is NaN: a NaN fails every `>` test and would pass the search."""
    if math.isnan(bound):
        raise CertificationError(f"{what} is NaN")
    return bound


class ThresholdRecord(NamedTuple):
    N: int
    forward_tail_bound: float
    inverse_tail_bound: float
    target_tail_bound: float  # inverse tail of y_l itself (the 1/2^l condition)
    identity_residual: float


class TailCertificate:
    """The thresholds N_l of a certificate, with one store of its terms and tails.

    ``term(l, n, direction)`` is apply_forward or apply_inverse(cert, y_l, n)
    and ``tail(l, N, direction)`` is tail_norm(cert, y_l, N, direction), which
    reads the terms' norms from the store.  Each term, norm and tail is
    computed on its first read and kept, keyed by n, so the threshold search,
    the placement and the orbit sweep together build each G^n y_l once.
    """

    __slots__ = ("cert", "records", "term", "tail")

    def __init__(self, cert: OperatorCertificate, records: tuple, store):
        self.cert = cert
        self.records = records  # ThresholdRecord per l = 1..L
        self.term, self.tail = store  # _term_store(cert)

    def threshold(self, l: int) -> int:
        return self.records[l - 1].N

    def pairs(self):
        """(l, N_l) pairs feeding the partition schedule."""
        return [(l + 1, rec.N) for l, rec in enumerate(self.records)]

    def to_json_dict(self):
        return {
            "type": "tail_certificate",
            "records": [{"l": l + 1, **r._asdict()} for l, r in enumerate(self.records)],
        }


# --------------------------------------------------------------------------
# tails


def _combined(term_norms, p) -> float:
    """Norm bound of a sum from its termwise norms; p as in ``combine_mode``."""
    return sum(term_norms) if p is None else lp_norm(term_norms, p)


def tail_norm(cert: OperatorCertificate, y, N: int, direction: str, read_norm=None) -> float:
    """Certified upper bound on the tail of the forward or inverse series.

    ``read_norm``, when given, returns ||G^n y|| for n >= N, as the caller has
    it; otherwise each G^n y is built and its norm taken.
    """
    if direction not in ("forward", "inverse"):
        raise ValueError(f"direction must be 'forward' or 'inverse', got {direction!r}")
    if N < 1:
        raise ValueError("N must be >= 1")
    apply_n = apply_inverse if direction == "inverse" else apply_forward
    return _tail(cert, y, N, direction, read_norm or (lambda n: apply_n(cert, y, n).norm()))


def _tail(cert: OperatorCertificate, y, N: int, direction: str, read_norm) -> float:
    """``tail_norm``'s bound, reading ||G^n y|| from ``read_norm(n)``, n = N, N+1, ...

    A term norm or ratio bound beyond the float range (math.exp or a float
    power raising OverflowError) is a CertificationError naming it and n.
    """
    def checked(what, n, read, *args):
        try:
            return read(*args)
        except OverflowError as exc:
            raise CertificationError(
                f"the {direction} {what} at {n} is beyond the float range") from exc

    decaying = (direction == "inverse") != cert.swapped

    if not decaying:
        # the growing action is A^r in either role and dies at a finite index
        ext = math.ceil(cert.op.extinction(y) / cert.power)
        if N >= ext:
            return 0.0
        return _not_nan(sum(checked("term norm", n, read_norm, n) for n in range(N, ext)),
                        f"the {direction} tail from {N}")

    terms = []
    n = N
    total_hint = 0.0
    while True:
        t = _not_nan(checked("term norm", n, read_norm, n), f"the {direction} term norm at {n}")
        terms.append(t)
        total_hint = max(total_hint, t)
        q = checked("ratio bound", n, cert.op.inverse_ratio_bound, y, n, cert.power)
        if q < 1.0 and (t <= _NEGLIGIBLE * max(total_hint, 1.0) or len(terms) >= _MAX_TERMS):
            remainder = t * q / (1.0 - q)
            break
        n += 1
        if len(terms) > _MAX_TERMS + 5:
            raise CertificationError("inverse tail did not certify within the term cap")
    bound = _combined(terms, cert.op.combine_mode(y)) + remainder
    # the raw decaying map B is injective, so a nonzero y has a positive true
    # tail even when its float terms underflow to 0.0; _TINY_FLOOR bounds it
    return max(bound, _TINY_FLOOR)


def _term_store(cert: OperatorCertificate):
    """(term, tail) of ``TailCertificate``, over one memo each of terms, norms and tails.

    The memos are keyed by n, not kept as lists from n = 1, so a tail read
    past the horizon builds no term below its N.
    """
    terms, norms, tails = {}, {}, {}

    def term(l: int, n: int, direction: str):
        if (l, n, direction) not in terms:
            apply_n = apply_inverse if direction == "inverse" else apply_forward
            terms[l, n, direction] = apply_n(cert, cert.target(l), n)
        return terms[l, n, direction]

    def tail(l: int, N: int, direction: str) -> float:
        if (l, N, direction) not in tails:
            known = norms.setdefault((l, direction), {})  # n -> ||G^n y_l||

            def read_norm(n):
                if n not in known:
                    known[n] = term(l, n, direction).norm()
                return known[n]

            tails[l, N, direction] = tail_norm(cert, cert.target(l), N, direction, read_norm)
        return tails[l, N, direction]

    return term, tail


# --------------------------------------------------------------------------
# thresholds


def compute_thresholds(cert: OperatorCertificate) -> TailCertificate:
    """Minimal N_l per target making the four displayed inequalities hold.

    Every tail, and the identity residual's B^N y_l, is read from the
    certificate's store (``_term_store``), so each ||G^n y_lam|| and each
    tail(lam, N, direction) is computed once for the whole search.

    Target l's search starts where target l - 1's ended, at N_(l-1), or at
    the first N where target l - 1 failed only its identity residual, if
    that is lower.  Below the start, target l - 1 failed a tail condition
    at every N, and each tail condition of l - 1 is one of l with a smaller
    constant, so target l fails there too: its forward and inverse maxima
    run over lam <= l, a superset of lam <= l - 1, and
    1/(l 2^l) < 1/((l-1) 2^(l-1)); target l - 1's own tail is one of the
    inverse tails target l compares with 1/(l 2^l) < 1/2^(l-1).  Both
    constants are correctly rounded quotients of exact integers, so their
    order holds in float.  The residual is the one condition of l - 1 that
    target l does not share.  So every N_l is the one a search from N = 1
    finds, with the same record.  The tails at an N below a target's start
    are not computed: one of them that would raise a CertificationError (a
    NaN or an overflowing term norm) ended the search from N = 1 there, and
    is not met here.
    """
    term, tail = store = _term_store(cert)
    records = []
    start = 1
    for l in range(1, cert.target_count + 1):
        strict = 1.0 / (l * 2**l)
        loose = 1.0 / 2**l
        found = residual_failed = None
        for N in range(start, _SEARCH_CAP + 1):
            fwd = max(tail(lam, N, "forward") for lam in range(1, l + 1))
            if fwd > strict:
                continue
            inv_tails = [tail(lam, N, "inverse") for lam in range(1, l + 1)]
            inv = max(inv_tails)
            if inv > strict:
                continue
            own = inv_tails[-1]
            if own > loose:
                continue
            image = term(l, N, "inverse")
            resid = _not_nan(distance(apply_forward(cert, image, N), cert.target(l)),
                             f"the identity residual of target {l}")
            if resid > loose:
                if not cert.swapped and image.is_zero():  # B is injective: underflow, 0 at all larger N
                    raise CertificationError(
                        f"the inverse image of target {l} at {N} underflows to zero")
                residual_failed = residual_failed or N
                continue
            found = ThresholdRecord(N, fwd, inv, own, resid)
            break
        if found is None:
            raise CertificationError(
                f"no threshold N_{l} <= {_SEARCH_CAP} certifies target {l}"
            )
        records.append(found)
        start = residual_failed or found.N
    return TailCertificate(cert, tuple(records), store)


# --------------------------------------------------------------------------
# randomized probes of unconditional convergence


def unconditional_probe(cert: OperatorCertificate, y, N: int, trials: int, seed: int) -> float:
    """Max over random finite F ⊂ (N, N+64] of || sum_{n in F} B^n y ||.

    Deterministic given the seed; the result never exceeds
    tail_norm(cert, y, N+1, "inverse").
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = random.Random(seed)
    lo, hi = N + 1, N + _PROBE_WINDOW
    terms = {}  # n -> B^n y, built on its first draw
    best = 0.0
    for _ in range(trials):
        size = rng.randint(0, min(_PROBE_WINDOW, 12))
        if size == 0:
            continue
        F = rng.sample(range(lo, hi + 1), size)
        for n in F:
            if n not in terms:
                terms[n] = apply_inverse(cert, y, n)
        vec = accumulate([terms[n] for n in F])
        best = max(best, vec.norm())
    return best
