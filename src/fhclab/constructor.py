"""Assembly of the frequently hypercyclic vector and stable orbit evaluation.

The vector is x = sum_n B^n z_n where z_n = y_l exactly when n lands in the
scheduled set A(l, N_l); the placement stores n -> l once, as the schedule's
``placed`` sequence split into ``placed_ns`` and ``placed_ls``, and readers
take l at the index they hold.  The n-th orbit point is never computed by
iterating the operator on a truncated float vector; instead it is rebuilt
term by term from the cancellation identities A^n B^j = B^(j-n) (j >= n) and
A^(n-j) (j < n) on dense elements, which is numerically stable because
growing weights never multiply truncated small entries.

Every term of an orbit point is some A^k y_l (k up to the forward window) or
B^k y_l (k up to the backward window), so ``assign_placements`` builds these
once per target and the sweep reads them from that table.  Only x itself,
``materialize(p)`` with the horizon past the backward window, still applies
B for the terms beyond it.  Orbit point n reads only the placements of its
window, so two points with the same window key are one point.
``orbit_windows(p, start, stop)`` slides that window over the placed n in
one pass and yields each point's key, built from slices of tuples stored on
the placement; ``orbit_window(p, n)`` is its one-point case and
``window_pairs`` decodes a key into offsets and targets.

Everything beyond the evaluation window is closed off with the certified
inverse-tail bound and reported as an explicit error bar.
"""

from __future__ import annotations

import itertools
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
    placed_ns: tuple  # every placed n <= horizon, ascending
    placed_ls: tuple  # placed_ls[i]: the target l placed at placed_ns[i]
    placed_gaps: tuple  # placed_ns[i + 1] - placed_ns[i]
    period: int  # the schedule's period: n <= horizon - period is placed with l iff n + period is
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


def assign_placements(tc: TailCertificate, horizon: int) -> FhcPlacement:
    """Build the schedule over {(l, N_l)} and record z_n up to the horizon."""
    pairs = [PairKey(l, N) for l, N in tc.pairs()]
    max_n = max(p.nu for p in pairs)
    if horizon < max_n:
        raise ValueError(f"horizon {horizon} is below the largest threshold {max_n}")
    schedule = build_schedule(pairs)
    placed = schedule.placed(horizon)
    ns, ls = tuple(n for n, _ in placed), tuple(key.l for _, key in placed)

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
    gaps = tuple(b - a for a, b in zip(ns, ns[1:]))
    return FhcPlacement(tc, horizon, ns, ls, gaps, schedule.period, fwd_window, bwd_window,
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
    bwd = p.backward_window  # the table ends here
    terms = [p.inverse_terms[l][j] if j <= bwd else apply_inverse(p.cert, p.cert.target(l), j)
             for j, l in zip(p.placed_ns, p.placed_ls)]
    vec = accumulate(terms) if terms else p.cert.target(1).scaled(0)  # the space's zero
    return vec, _window_error(p, p.horizon)


def orbit_windows(p: FhcPlacement, start: int, stop: int):
    """The window key of each orbit point n in range(start, stop), in order.

    Point n reads every placed j in [n - forward_window, n + W], where
    W = min(backward_window, horizon - n) is its backward window.  Its key is
    (W, j_0 - n, the gaps between consecutive j, their targets l_j), with j_0
    the first placed j, or (W, None, (), ()) when none is placed; so two keys
    are equal exactly when their windows hold the same (j - n, l_j) pairs.
    ``window_pairs`` decodes a key.  Neither end of the window moves back as
    n grows, so after one bisection at start two indices slide forward over
    ``placed_ns``; the gaps and targets are slices of the placement's tuples,
    taken again only when an index moves.
    """
    if not 0 <= start <= stop <= p.horizon + 1:
        raise ValueError("need 0 <= start <= stop <= horizon + 1")
    ns, gaps, ls = p.placed_ns, p.placed_gaps, p.placed_ls
    fwd, bwd, horizon, count = p.forward_window, p.backward_window, p.horizon, len(ns)
    lo = bisect_left(ns, start - fwd)
    hi = bisect_right(ns, min(start + bwd, horizon))
    # placed n are distinct, so each end passes at most one per step: ns[lo]
    # leaves the window at n = ns[lo] + fwd + 1, ns[hi] enters at n = ns[hi] - bwd
    leave = ns[lo] + fwd + 1 if lo < count else -1
    enter = ns[hi] - bwd if hi < count else -1
    moved = True
    for n in range(start, stop):
        if n == leave:
            lo += 1
            leave = ns[lo] + fwd + 1 if lo < count else -1
            moved = True
        if n == enter:
            hi += 1
            enter = ns[hi] - bwd if hi < count else -1
            moved = True
        if moved:
            moved = False
            first, placed_gaps, placed_ls = (
                (ns[lo], gaps[lo:hi - 1], ls[lo:hi]) if lo < hi else (None, (), ()))
        W = bwd if n + bwd <= horizon else horizon - n
        yield W, None if first is None else first - n, placed_gaps, placed_ls


def orbit_window(p: FhcPlacement, n: int):
    """The window key of orbit point n: ``orbit_windows`` at the one point n."""
    return next(orbit_windows(p, n, n + 1))


def window_pairs(key):
    """(W, ((j - n, l_j), ...)): a window key's backward window and its placed
    j in increasing order, each with its offset from n and its target."""
    W, first, gaps, ls = key
    if first is None:
        return W, ()
    return W, tuple(zip(itertools.accumulate(gaps, initial=first), ls))


def orbit_parts(p: FhcPlacement, n: int):
    """(forward sum, middle term or None, backward sum, certified error).

    forward = sum_{j<n} A^(n-j) z_j  (exact: terms past the extinction
    window vanish identically), middle = z_n, backward covers placed
    j in (n, n + W] with the certified tail bound for the rest; every part
    is read from the window key ``orbit_window(p, n)`` and the term table.
    """
    if not 0 <= n <= p.horizon:
        raise ValueError("n must lie in [0, horizon]")
    W, placed = window_pairs(orbit_window(p, n))
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
