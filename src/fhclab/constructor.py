"""Assembly of the frequently hypercyclic vector and stable orbit evaluation.

The vector is x = sum_n B^n z_n where z_n = y_l exactly when n lands in the
scheduled set A(l, N_l); the placement stores n -> l once, as ``placed_ns``
and ``placed_ls``, and readers take l at the index they hold.  The schedule
repeats with its period P, so these tuples are one period of the schedule's
``placed`` sequence repeated up to the horizon: ``placed_ns`` is a ``Tiled``
of that period stored as a tuple, since the sweeps bisect and slice it at C
speed.  The n-th orbit point is never computed by iterating the operator on
a truncated float vector; instead it is rebuilt term by term from the
cancellation identities A^n B^j = B^(j-n) (j >= n) and A^(n-j) (j < n) on
dense elements, which is numerically stable because growing weights never
multiply truncated small entries.

Every term of an orbit point is some A^k y_l (k up to the forward window) or
B^k y_l (k up to the backward window), and the sweep reads each of them, and
every tail, from the tail certificate's store, which builds each G^n y_l once
from the threshold search on; the placement keeps no copy.  A
piecewise-linear sum reads its terms' folds to log scale 0 from the store
too, so each term is folded once for every sum that folds it.  Only x
itself, ``materialize(p)`` with the horizon past the backward window, still
applies B for the terms beyond it, and keeps none of them.  Orbit point n
reads only the placements of its window, so two points with the same window
key are one point.  ``orbit_windows(p, start, stop)`` slides that window over
the placed n in one pass and yields each point's key, the window itself: its
offsets j - n and their targets; ``orbit_window(p, n)`` is its one-point case.

Everything beyond the evaluation window is closed off with the certified
inverse-tail bound and reported as an explicit error bar.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import cycle, islice
from typing import NamedTuple

from .criterion import TailCertificate
from .density_partition import PairKey, Tiled, build_schedule
from .operators import apply_inverse, forward_extinction_index
from .spaces import PiecewiseLinearFn, accumulate, linear_combine, plf_sum

_WINDOW_GOAL = 1e-30  # summed inverse tail the backward window aims for
_WINDOW_CAP = 4096  # the window never grows past this; the tail is reported instead


def proximity_bound(l: int) -> float:
    """The proof's orbit-to-target bound 5/2^l (= 2/2^l + 2/2^l + 1/2^l)."""
    if l < 1:
        raise ValueError("l must be >= 1")
    return 5.0 / 2**l


class FhcPlacement(NamedTuple):
    """Where the targets go in x up to a horizon; the terms and tails are the store's."""

    tail_certificate: TailCertificate
    horizon: int
    placed_ns: tuple  # every placed n <= horizon, ascending
    placed_ls: tuple  # placed_ls[i]: the target l placed at placed_ns[i]
    period: int  # the schedule's period: n <= horizon - period is placed with l iff n + period is
    forward_window: int  # exact extinction bound for forward terms
    backward_window: int  # inverse terms beyond this are covered by the tail

    @property
    def cert(self):
        return self.tail_certificate.cert


def assign_placements(tc: TailCertificate, horizon: int) -> FhcPlacement:
    """Build the schedule over {(l, N_l)} and record z_n up to the horizon.

    The backward window's tails are read from the tail certificate's store.
    """
    pairs = [PairKey(l, N) for l, N in tc.pairs()]
    max_n = max(p.nu for p in pairs)
    if horizon < max_n:
        raise ValueError(f"horizon {horizon} is below the largest threshold {max_n}")
    schedule = build_schedule(pairs)
    P = schedule.period
    # one period of placements, tiled up to the horizon, with its targets
    placed = schedule.placed(min(horizon, P))
    ns = tuple(Tiled((), [n for n, _ in placed], P, horizon))
    ls = tuple(islice(cycle([key.l for _, key in placed]), len(ns)))

    targets = range(1, tc.cert.target_count + 1)
    fwd_window = max(forward_extinction_index(tc.cert, tc.cert.target(l)) for l in targets)
    return FhcPlacement(tc, horizon, ns, ls, P, fwd_window, _backward_window(tc))


def _backward_window(tc: TailCertificate) -> int:
    """Smallest window K with sum_l tail(y_l, K+1) <= _WINDOW_GOAL (or the cap)."""
    K = max(rec.N for rec in tc.records)
    while True:
        K = min(K, _WINDOW_CAP)
        if _window_error(tc, K) <= _WINDOW_GOAL or K == _WINDOW_CAP:
            return K
        K *= 2


def _window_error(tc: TailCertificate, W: int) -> float:
    """Certified bound on the inverse terms past a backward window of W, from the store:
    sum_l tail_norm(y_l, W + 1, "inverse"), summed in target order.

    A window W < backward_window reads no term past those the window search
    read.  The window search's walk from backward_window + 1 stopped at some
    n* with ratio bound q < 1 and either _MAX_TERMS terms or
    t_(n*) <= _NEGLIGIBLE * max(peak, 1); the walk from W + 1 meets the same
    q and t at n*, with more terms and a peak at least as large, so it stops
    by n*, or at its own term cap first.  Its terms up to backward_window are
    built on their first read, as the sweep's are.
    """
    return sum(tc.tail(l, W + 1, "inverse") for l in range(1, tc.cert.target_count + 1))


def _summed(terms, folds, zero):
    """accumulate(terms), or ``zero`` for no terms; piecewise-linear terms take their
    folds from the list ``folds`` (None: fold the term in the sum), other types None."""
    if not terms:
        return zero
    if folds is None:
        return accumulate(terms)
    return plf_sum([(1, t) for t in terms], folds)


def _folds(tc: TailCertificate, zero, direction: str, picks):
    """The store's folds of the terms (l, k) in picks, None past the backward window
    (a pick of None), or None for a vector type with no fold."""
    if type(zero) is not PiecewiseLinearFn:
        return None
    return [pick and tc.fold(*pick, direction) for pick in picks]


def materialize(p: FhcPlacement):
    """(x = sum_{n <= horizon} B^n z_n, certified bound on the omitted tail)."""
    tc, bwd = p.tail_certificate, p.backward_window  # the store's terms are read to here
    placed = list(zip(p.placed_ns, p.placed_ls))
    terms = [tc.term(l, j, "inverse") if j <= bwd else apply_inverse(p.cert, p.cert.target(l), j)
             for j, l in placed]
    zero = p.cert.target(1).scaled(0)  # the space's zero
    folds = _folds(tc, zero, "inverse", [(l, j) if j <= bwd else None for j, l in placed])
    return _summed(terms, folds, zero), _window_error(tc, p.horizon)


def orbit_windows(p: FhcPlacement, start: int, stop: int):
    """The window key (W, offsets, targets) of each orbit point n in range(start, stop).

    Point n reads every placed j in [n - forward_window, n + W], where
    W = min(backward_window, horizon - n) is its backward window; ``offsets``
    are those j - n in ascending order and ``targets`` their l_j, so two keys
    are equal exactly when their windows hold the same (j - n, l_j) pairs.
    Neither end of the window moves back as n grows, so after one bisection
    at start two indices slide forward over ``placed_ns``.
    """
    if not 0 <= start <= stop <= p.horizon + 1:
        raise ValueError("need 0 <= start <= stop <= horizon + 1")
    ns, ls = p.placed_ns, p.placed_ls
    fwd, bwd, horizon, count = p.forward_window, p.backward_window, p.horizon, len(ns)
    lo = bisect_left(ns, start - fwd)
    hi = bisect_right(ns, min(start + bwd, horizon))
    # placed n are distinct, so each end passes at most one per step: ns[lo]
    # leaves the window at n = ns[lo] + fwd + 1, ns[hi] enters at n = ns[hi] - bwd
    leave = ns[lo] + fwd + 1 if lo < count else -1
    enter = ns[hi] - bwd if hi < count else -1
    window, targets = ns[lo:hi], ls[lo:hi]
    for n in range(start, stop):
        if n == leave:
            lo += 1
            leave = ns[lo] + fwd + 1 if lo < count else -1
            window, targets = ns[lo:hi], ls[lo:hi]
        if n == enter:
            hi += 1
            enter = ns[hi] - bwd if hi < count else -1
            window, targets = ns[lo:hi], ls[lo:hi]
        W = bwd if n + bwd <= horizon else horizon - n
        yield W, tuple([j - n for j in window]), targets


def orbit_window(p: FhcPlacement, n: int):
    """The window key of orbit point n: ``orbit_windows`` at the one point n."""
    return next(orbit_windows(p, n, n + 1))


def orbit_parts(p: FhcPlacement, n: int):
    """(forward sum, middle term or None, backward sum, certified error).

    forward = sum_{j<n} A^(n-j) z_j  (exact: terms past the extinction
    window vanish identically), middle = z_n, backward covers placed
    j in (n, n + W] with the certified tail bound for the rest; every part
    is read from the window key ``orbit_window(p, n)`` and the tail
    certificate's store.
    """
    W, offsets, ls = orbit_window(p, n)
    placed = list(zip(offsets, ls))
    tc = p.tail_certificate
    zero = p.cert.target(1).scaled(0)

    def side(direction, picks):  # the sum of the store's terms G^k y_l, (l, k) in picks
        return _summed([tc.term(l, k, direction) for l, k in picks],
                       _folds(tc, zero, direction, picks), zero)

    middle = next((p.cert.target(l) for d, l in placed if d == 0), None)
    return (side("forward", [(l, -d) for d, l in placed if d < 0]),
            middle,
            side("inverse", [(l, d) for d, l in placed if d > 0]),
            _window_error(tc, W))


def orbit_eval(p: FhcPlacement, n: int):
    """(A^n x evaluated through the proof's decomposition, certified error)."""
    if n == 0:
        return materialize(p)
    fwd, middle, bwd, err = orbit_parts(p, n)
    vec = linear_combine(1, fwd, 1, bwd)
    if middle is not None:
        vec = linear_combine(1, vec, 1, middle)
    return vec, err
