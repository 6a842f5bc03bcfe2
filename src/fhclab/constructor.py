"""Assembly of the frequently hypercyclic vector and stable orbit evaluation.

The vector is x = sum_n B^n z_n where z_n = y_l exactly when n lands in the
scheduled set A(l, N_l).  The n-th orbit point is never computed by iterating
the operator on a truncated float vector; instead it is rebuilt term by term
from the cancellation identities A^n B^j = B^(j-n) (j >= n) and A^(n-j)
(j < n) on dense elements, which is numerically stable because growing
weights never multiply truncated small entries.

Every term of an orbit point is some A^k y_l (k up to the forward window) or
B^k y_l (k up to the backward window), so ``assign_placements`` builds these
once per target and the sweep reads them from that table.  Only x itself,
``materialize(p)`` with the horizon past the backward window, still applies
B for the terms beyond it.  Orbit point n reads only the placements of its
window, ``orbit_window(p, n)``, so two points with the same window are one
point.

Everything beyond the evaluation window is closed off with the certified
inverse-tail bound and reported as an explicit error bar.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .criterion import TailCertificate, tail_norm
from .density_partition import PairKey, build_schedule
from .operators import apply_forward, apply_inverse, forward_extinction_index
from .spaces import accumulate, linear_combine

_WINDOW_GOAL = 1e-30  # summed inverse tail the backward window aims for
_WINDOW_CAP = 4096  # the window never grows past this; the tail is reported instead


def proximity_bound(l: int) -> float:
    """The proof's orbit-to-target bound 5/2^l (= 2/2^l + 2/2^l + 1/2^l)."""
    if l < 1:
        raise ValueError("l must be >= 1")
    return 5.0 / 2**l


@dataclass
class FhcPlacement:
    """Symbolic description of x up to a horizon, plus certified tails."""

    tail_certificate: TailCertificate
    horizon: int
    placements: dict  # n -> l for every placed n <= horizon
    placed_ns: list  # sorted keys of placements
    forward_window: int  # exact extinction bound for forward terms
    backward_window: int  # inverse terms beyond this are covered by the tail
    backward_tail: float  # certified bound for everything beyond the window
    # l -> (A^0 y_l, ..., A^forward_window y_l), each apply_forward(cert, y_l, k)
    forward_terms: dict
    # l -> (B^0 y_l, ..., B^backward_window y_l), each apply_inverse(cert, y_l, k)
    inverse_terms: dict

    @property
    def cert(self):
        return self.tail_certificate.cert

    def target_of(self, n: int):
        return self.cert.target(self.placements[n])


def assign_placements(tc: TailCertificate, horizon: int) -> FhcPlacement:
    """Build the schedule over {(l, N_l)} and record z_n up to the horizon."""
    pairs = [PairKey(l, N) for l, N in tc.pairs()]
    max_n = max(p.nu for p in pairs)
    if horizon < max_n:
        raise ValueError(f"horizon {horizon} is below the largest threshold {max_n}")
    sched = build_schedule(pairs)
    placements = {}
    for key in pairs:
        for n in sched.members(key, horizon):
            placements[n] = key.l
    placed = sorted(placements)

    cert = tc.cert
    fwd_window = max(
        forward_extinction_index(cert, cert.target(l))
        for l in range(1, cert.target_count + 1)
    )
    bwd_window, bwd_tail = _backward_window(tc)
    targets = {l: cert.target(l) for l in range(1, cert.target_count + 1)}
    forward_terms = {l: tuple(apply_forward(cert, y, k) for k in range(fwd_window + 1))
                     for l, y in targets.items()}
    inverse_terms = {l: tuple(apply_inverse(cert, y, k) for k in range(bwd_window + 1))
                     for l, y in targets.items()}
    return FhcPlacement(tc, horizon, placements, placed, fwd_window, bwd_window,
                        bwd_tail, forward_terms, inverse_terms)


def _inverse_tail(cert, K: int) -> float:
    """sum_l tail_norm(y_l, K, "inverse"), summed in target order."""
    return sum(
        tail_norm(cert, cert.target(l), K, "inverse")
        for l in range(1, cert.target_count + 1)
    )


def _backward_window(tc: TailCertificate):
    """Smallest window K with sum_l tail(y_l, K+1) <= _WINDOW_GOAL (or the cap)."""
    K = max(rec.N for rec in tc.records)
    while True:
        K = min(K, _WINDOW_CAP)
        tail = _inverse_tail(tc.cert, K + 1)
        if tail <= _WINDOW_GOAL or K == _WINDOW_CAP:
            return K, tail
        K *= 2


def _window_error(p: FhcPlacement, W: int) -> float:
    """Certified bound on the inverse terms past a backward window of W."""
    return p.backward_tail if W == p.backward_window else _inverse_tail(p.cert, W + 1)


def materialize(p: FhcPlacement):
    """(x = sum_{n <= horizon} B^n z_n, certified bound on the omitted tail)."""
    ns = p.placed_ns
    cut = bisect_right(ns, p.backward_window)  # the table ends here
    terms = [p.inverse_terms[p.placements[j]][j] for j in ns[:cut]]
    terms += [apply_inverse(p.cert, p.target_of(j), j) for j in ns[cut:]]
    vec = accumulate(terms) if terms else p.cert.target(1).scaled(0)  # the space's zero
    return vec, _window_error(p, p.horizon)


def orbit_window(p: FhcPlacement, n: int):
    """The placements orbit point n reads: (W, ((j - n, l_j), ...)).

    W = min(backward_window, horizon - n) is its backward window, and the
    pairs list every placed j in [n - forward_window, n + W] in increasing
    order, with its offset from n and its target.
    """
    W = min(p.backward_window, p.horizon - n)
    ns = p.placed_ns
    lo, hi = bisect_left(ns, n - p.forward_window), bisect_right(ns, n + W)
    return W, tuple((j - n, p.placements[j]) for j in ns[lo:hi])


def orbit_parts(p: FhcPlacement, n: int):
    """(forward sum, middle term or None, backward sum, certified error).

    forward = sum_{j<n} A^(n-j) z_j  (exact: terms past the extinction
    window vanish identically), middle = z_n, backward covers placed
    j in (n, n + W] with the certified tail bound for the rest; every part
    is read from ``orbit_window(p, n)`` and the term table.
    """
    if not 0 <= n <= p.horizon:
        raise ValueError("n must lie in [0, horizon]")
    W, placed = orbit_window(p, n)
    zero = p.cert.target(1).scaled(0)
    fwd = [p.forward_terms[l][-d] for d, l in placed if d < 0]
    middle = next((p.cert.target(l) for d, l in placed if d == 0), None)
    bwd = [p.inverse_terms[l][d] for d, l in placed if d > 0]
    return (accumulate(fwd) if fwd else zero, middle,
            accumulate(bwd) if bwd else zero, _window_error(p, W))


def orbit_eval(p: FhcPlacement, n: int):
    """(A^n x evaluated through the proof's decomposition, certified error)."""
    if n == 0:
        return materialize(p)
    fwd, middle, bwd, err = orbit_parts(p, n)
    vec = linear_combine(1, fwd, 1, bwd)
    if middle is not None:
        vec = linear_combine(1, vec, 1, middle)
    return vec, err
