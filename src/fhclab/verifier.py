"""Visit-time statistics and lower-density proxies, discrete and continuous.

The lower density (a liminf) is replaced by a windowed running minimum of
count(n)/n over the window [max(1, floor(N/10)), N] of
``density_partition.running_density_floor``; this lower-bounds every finite
prefix of the evidence and is reported next to N so scaling is visible.  The
discrete sweep declares the stretch of each visit list that it tiled with
the schedule's period, so the floor reads one period at each end of it.
Continuous visit sets are measured on a grid with a rigorous Lipschitz
modulus, yielding inner and outer estimates, in one time-ordered pass over
the integer checks and the grid cells.

The JSON export keeps the layout of ``json.dump(reports, indent=1)`` byte for
byte, but streams the visit lists through the C encoder in slices rather than
through the pure-Python encoder that ``json.dump`` runs;
``tests/data/run_*_report.json`` pin the bytes.
"""

from __future__ import annotations

import csv
import heapq
import io
import json
import math
from bisect import bisect_left
from dataclasses import dataclass, fields
from itertools import islice, takewhile, tee

from .constructor import FhcPlacement, orbit_eval, orbit_windows, proximity_bound
from .density_partition import running_density_floor, tile
from .spaces import distance

CSV_COLUMNS = [
    "l",
    "epsilon",
    "horizon",
    "visit_count",
    "density_floor",
    "covering_set_check",
    "proof_bound",
    "certified_error",
]


@dataclass
class OrbitReport:
    l: int
    epsilon: float
    horizon: float
    visit_times: list
    density_floor: float
    covering_set_check: bool
    proof_bound: float
    certified_error: float
    # discrete: max of ||orbit(n) - y_l|| + err over scheduled n <= N (0.0 if none)
    worst_scheduled: float = 0.0
    guarantee_vacuous: bool = False
    mode: str = "discrete"
    # continuous-mode extras
    inner_measure: float = 0.0
    outer_measure: float = 0.0
    continuity_window: float = 0.0

    def to_json_dict(self):
        # shallow: dataclasses.asdict would deep-copy every visit time
        return {f.name: getattr(self, f.name) for f in fields(self)}


def density_proxy(visits, N: int, tiled=None) -> float:
    """running_density_floor of the visits up to N, under its ``tiled`` declaration.

    ``visits`` must be ascending, as ``discrete_report`` builds every list;
    they are read in place.
    """
    return running_density_floor(visits, N, tiled)


def discrete_report(p: FhcPlacement, epsilons: dict, N: int):
    """Reports for several targets sharing one orbit sweep.

    ``epsilons`` maps l -> radius.  Each orbit point is compared against
    every requested target; the same distances give each target's worst
    scheduled distance (n scheduled for l iff z_n = y_l) and with it the
    covering check.

    The sweep evaluates each distinct key of ``orbit_windows(p, 1, N + 1)``
    once: for n >= 1, ``orbit_eval(p, n)`` is a pure function of the window
    key.  It reads the forward term A^(-d) y_l for each placed offset d < 0,
    the target y_l for d = 0 and the backward term B^d y_l for d > 0, all
    from the term table, sums them in the window's order, starting from a
    zero vector that does not depend on n, and reports the error bar of the
    window W: ``backward_tail`` when W is the full backward window, else
    ``_inverse_tail(W + 1)``.  So points with equal keys have equal vectors
    and errors.  Each key keeps its distances (error included) and the
    targets its point visits, so every n only joins the visit lists of its
    key's targets.  The largest error is taken over the keys, and each
    target's worst scheduled distance over the placed n <= N.

    Most n are not swept at all.  The placements repeat with the schedule's
    period P: j >= 1 is placed with target l exactly when j + P is, as long
    as j + P <= horizon.  Let head = forward_window + P + 1 and
    hi = min(N, horizon - backward_window).  For head <= n <= hi the windows
    [n - fwd, n + bwd] of n and of n - P are both full and lie in
    [1, horizon], so shifting by P maps the placements of one onto the other
    with their targets: key(n) = key(n - P).  The keys of [head, hi] are thus
    those of [head - P, head), repeated: the key loop runs on [1, head) and
    on (hi, N], and the visits of the head's last period, shifted by the
    multiples of P, fill the middle.  The middle adds no new key, and a
    placed n there has the target and the key of the placed n - P, so the
    largest error and the worst scheduled distances are already final.  When
    head > hi the key loop runs over all of [1, N].

    The visit lists come out ascending.  Each tiled list declares its tiled
    range to the density floor: from index a, the first visit of the head's
    last period, to b, the end of the tiled middle, each visit recurs c
    places later shifted by P, with c the visit count of that period.  The
    floor then reads O(c) visits plus those before a and past b.
    """
    if N > p.horizon:
        raise ValueError("N must not exceed the placement horizon")
    ls = sorted(epsilons)
    targets = {l: p.cert.target(l) for l in ls}
    visits = {l: [] for l in ls}
    worst = dict.fromkeys(ls, 0.0)
    tiled = dict.fromkeys(ls)  # l -> (a, b, c, P) of its tiled visits
    max_err = 0.0
    seen = {}  # window key -> ({l: distance(orbit point, y_l) + err}, visited targets)

    def sweep(start, stop):
        """The key loop over n in range(start, stop)."""
        nonlocal max_err
        # placements advanced only when n reaches them
        placed = islice(zip(p.placed_ns, p.placed_ls), bisect_left(p.placed_ns, start), None)
        next_placed, scheduled = next(placed, (None, None))
        for n, key in enumerate(orbit_windows(p, start, stop), start):
            entry = seen.get(key)
            if entry is None:
                vec, err = orbit_eval(p, n)
                max_err = max(max_err, err)
                dist = {l: distance(vec, targets[l]) + err for l in ls}
                entry = seen[key] = dist, tuple(l for l in ls if dist[l] < epsilons[l])
            for l in entry[1]:
                visits[l].append(n)
            if n == next_placed:
                if scheduled in worst:
                    worst[scheduled] = max(worst[scheduled], entry[0][scheduled])
                next_placed, scheduled = next(placed, (None, None))

    P = p.period
    head, hi = p.forward_window + P + 1, min(N, p.horizon - p.backward_window)
    if head <= hi:
        sweep(1, head)
        for l in ls:
            a = bisect_left(visits[l], head - P)
            last = visits[l][a:]
            visits[l] += tile([n + P for n in last], P, hi)
            if last:
                tiled[l] = a, len(visits[l]), len(last), P
        sweep(hi + 1, N + 1)
    else:
        sweep(1, N + 1)
    reports = []
    for l in ls:
        bound = proximity_bound(l)
        reports.append(OrbitReport(
            l=l,
            epsilon=epsilons[l],
            horizon=N,
            visit_times=visits[l],
            density_floor=density_proxy(visits[l], N, tiled[l]),
            covering_set_check=worst[l] < epsilons[l],
            proof_bound=bound,
            certified_error=max_err,
            worst_scheduled=worst[l],
            guarantee_vacuous=not epsilons[l] > bound + max_err,
        ))
    return reports


# --------------------------------------------------------------------------
# continuous mode


def continuity_window(target, epsilon: float, lam: float) -> float:
    """Largest delta in (0, 1] with

        e^(lam*s) * epsilon/2 + (e^(lam*s) - 1)*||y|| + e^(lam*s)*s*Lip(y)
            <= epsilon   for all s in [0, delta].

    This is the finite-horizon form of the strong-continuity argument: an
    integer visit within epsilon / 2 certifies the whole window
    [n, n + delta] as visits within epsilon.  Returns 0.0 if even s -> 0
    fails (a negative epsilon).
    """
    ynorm = target.norm()
    lip = target.max_slope()

    def ok(s):
        g = math.exp(lam * s)
        return g * (epsilon / 2.0) + (g - 1.0) * ynorm + g * s * lip <= epsilon

    if not ok(0.0):
        return 0.0
    lo, hi = 0.0, 1.0
    if ok(hi):
        return hi
    for _ in range(60):
        mid = (lo + hi) / 2
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return lo


def continuous_visits(orbit, epsilons: dict, t_max: float, grid_step: float):
    """Reports for several targets sharing one sweep of the continuous orbit.

    ``orbit`` is a SolutionOrbit (regularized_semigroup module) and
    ``epsilons`` maps l -> radius; target l measures
    {t in [0, t_max] : ||orbit(t) - y_l|| < epsilon_l} on a grid.  Cells are
    classified with the orbit's certified Lipschitz modulus: inner cells
    are provably inside the visit set, outer cells possibly intersect it.
    Certified integer-visit windows [n, n + delta] from the continuity
    argument are united into the inner estimate.  ``covering_set_check``
    is inner measure >= delta * len(visit_times), the visit times being the
    integer parts of the inner intervals' left ends.  The sweep is one pass
    over the integer checks and the cells in time order, so the orbit builds
    one point per window key (``SolutionOrbit.evaluate``); only the distances
    are per target.  A cell at t = n + s measures W(s) A^n x against y_l by
    ``distance(point, y_l, s, lam * s)``, which builds no function; at
    s == 0 it measures the point itself, with no shift.
    """
    if grid_step <= 0:
        raise ValueError("grid_step must be positive")
    lam = float(orbit.placement.cert.op.lam)
    ls = sorted(epsilons)
    targets = {l: orbit.placement.cert.target(l) for l in ls}
    delta = {l: continuity_window(targets[l], epsilons[l], lam) for l in ls}

    # per target, the integers n whose certified window [n, n + delta] can count
    n_ints = {l: int(math.floor(t_max - delta[l])) + 1 if delta[l] > 0 else 0 for l in ls}
    # (n, 0) checks integer n, (t, 1) the cell [t, t + grid_step): two ascending streams,
    # merged lazily in sorted order (at equal t, n goes first), so no cell is listed ahead;
    # a quotient t_max / grid_step rounded up would add an empty cell at t_max
    checks = ((float(n), 0) for n in range(max(n_ints.values(), default=0)))
    cell_starts = (i * grid_step for i in range(int(math.ceil(t_max / grid_step))))
    grid = ((t, 1) for t in takewhile(lambda t: t < t_max, cell_starts))
    events, times = tee(heapq.merge(checks, grid))
    cells = {l: [] for l in ls}  # inner cells
    windows = {l: [] for l in ls}  # certified windows from integer visits
    outer_measure = dict.fromkeys(ls, 0.0)
    for (t0, is_cell), (vec, s, err) in zip(events, orbit.evaluate(t for t, _ in times)):
        if not is_cell:  # at an integer, s == 0
            for l in ls:
                if t0 < n_ints[l] and distance(vec, targets[l]) + err < epsilons[l] / 2.0:
                    windows[l].append((t0, t0 + delta[l]))
            continue
        t1 = min(t_max, t0 + grid_step)
        lip = orbit.lipschitz_bound(t0, t1)
        shift = (s, lam * s) if s else ()  # W(s) with dlog = lam*s; none at s == 0
        for l in ls:
            d = distance(vec, targets[l], *shift)
            if d + err + lip * (t1 - t0) < epsilons[l]:
                cells[l].append((t0, t1))
            if d - err - lip * (t1 - t0) < epsilons[l]:
                outer_measure[l] += t1 - t0

    reports = []
    for l in ls:
        inner_intervals = cells[l] + windows[l]
        inner = _union_measure(inner_intervals)
        visits = sorted(set(int(t) for t, _ in inner_intervals))
        reports.append(OrbitReport(
            l=l,
            epsilon=epsilons[l],
            horizon=t_max,
            visit_times=visits,
            density_floor=inner / t_max if t_max > 0 else 0.0,
            covering_set_check=inner >= delta[l] * len(visits),
            proof_bound=delta[l] * len(windows[l]),
            certified_error=0.0,
            mode="continuous",
            inner_measure=inner,
            outer_measure=outer_measure[l],
            continuity_window=delta[l],
        ))
    return reports


def _union_measure(intervals) -> float:
    if not intervals:
        return 0.0
    intervals = sorted(intervals)
    total = 0.0
    cur_lo, cur_hi = intervals[0]
    for lo, hi in intervals[1:]:
        if lo > cur_hi:
            total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    return total + (cur_hi - cur_lo)


# --------------------------------------------------------------------------
# export


def reports_to_csv_text(reports) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(CSV_COLUMNS)
    for r in reports:
        w.writerow(
            [
                r.l,
                repr(float(r.epsilon)),
                repr(float(r.horizon)),
                len(r.visit_times),
                repr(float(r.density_floor)),
                "true" if r.covering_set_check else "false",
                repr(float(r.proof_bound)),
                repr(float(r.certified_error)),
            ]
        )
    return buf.getvalue()


_SLICE = 2048  # visit times per C-encoder call


def _dump_reports(reports, fh):
    """json.dump([r.to_json_dict() for r in reports], fh, indent=1), byte for byte.

    json.dump runs the pure-Python encoder (json.dumps does too once an indent
    is set), one generator step per visit time.  Here the framing of the flat report dicts is written
    directly, each scalar goes through json.dumps and each list through the C
    encoder in slices of _SLICE entries, re-indented by replacing ", ".  That
    split is exact only for lists of numbers, whose JSON never contains ", ":
    visit_times holds ints in both modes.
    """
    fh.write("[")
    for i, r in enumerate(reports):
        fh.write(",\n {" if i else "\n {")
        for j, (key, value) in enumerate(r.to_json_dict().items()):
            fh.write((",\n  " if j else "\n  ") + json.dumps(key) + ": ")
            if not isinstance(value, list):
                fh.write(json.dumps(value))
                continue
            fh.write("[")
            for k in range(0, len(value), _SLICE):
                fh.write(",\n   " if k else "\n   ")
                fh.write(json.dumps(value[k:k + _SLICE])[1:-1].replace(", ", ",\n   "))
            fh.write("\n  ]" if value else "]")
        fh.write("\n }")
    fh.write("\n]" if reports else "]")


def report_export(reports, csv_path=None, json_path=None):
    """Write reports; CSV carries the summary row per target, JSON everything."""
    try:
        if csv_path is not None:
            with open(csv_path, "w", newline="") as fh:
                fh.write(reports_to_csv_text(reports))
        if json_path is not None:
            with open(json_path, "w") as fh:
                _dump_reports(reports, fh)
    except OSError as exc:
        raise OSError(f"report export failed for {exc.filename!r}: {exc}") from exc


def report_import(json_path):
    with open(json_path) as fh:
        return [OrbitReport(**obj) for obj in json.load(fh)]
