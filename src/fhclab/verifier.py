"""Visit-time statistics and lower-density proxies, discrete and continuous.

The lower density (a liminf) is replaced by a windowed running minimum of
count(n)/n over the window [max(1, floor(N/10)), N] of
``density_partition.running_density_floor``; this lower-bounds every finite
prefix of the evidence and is reported next to N so scaling is visible.  The
discrete sweep returns each visit list as a ``Tiled``: the visits it swept
and one period of them repeated with the schedule's period, so a list takes
O(period) memory and the floor reads one period at each end of the copies.
Continuous visit sets are measured on a grid with a rigorous Lipschitz
modulus, yielding inner and outer estimates, in one time-ordered pass over
the integer checks and the grid cells.

The JSON export keeps the layout of ``json.dump(reports, indent=1)`` byte for
byte, a ``Tiled`` written as its list, but writes each part of a visit list
(a period copy of a ``Tiled``) in one ``%d`` format pass rather than through
the pure-Python encoder that ``json.dump`` runs, one generator step per
visit; ``tests/data/run_*_report.json`` pin the bytes.
"""

from __future__ import annotations

import csv
import heapq
import io
import json
import math
from bisect import bisect_left
from itertools import chain, takewhile, tee
from typing import NamedTuple

from .constructor import FhcPlacement, orbit_eval, orbit_windows, proximity_bound
from .density_partition import Tiled, running_density_floor
from .spaces import distance, suffix_peaks

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


class OrbitReport(NamedTuple):
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
        return self._asdict()


def density_proxy(visits, N: int) -> float:
    """running_density_floor of the ascending visits up to N, read in place."""
    return running_density_floor(visits, N)


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
    from the tail certificate's store, sums them in the window's order,
    starting from a zero vector that does not depend on n, and reports the
    error bar of the window W, ``_window_error(tc, W)``, read from the same
    store; a term is built on its first read only, so a second sweep builds
    none.  So points with equal keys have equal vectors and errors.  Each key
    keeps its distances (error included; the point's suffix peaks are built
    once for all of them), the targets its point visits and the target at
    offset 0, the one scheduled at n if any, so every n only joins the visit
    lists of its key's targets and updates its scheduled target's worst
    distance, in ascending n.  The largest error is taken over the keys.

    Most n are not swept at all.  The placements repeat with the schedule's
    period P: j >= 1 is placed with target l exactly when j + P is, as long
    as j + P <= horizon.  Let head = forward_window + P + 1 and
    hi = min(N, horizon - backward_window).  For head <= n <= hi the windows
    [n - fwd, n + bwd] of n and of n - P are both full and lie in
    [1, horizon], so shifting by P maps the placements of one onto the other
    with their targets: key(n) = key(n - P).  The keys of [head, hi] are thus
    those of [head - P, head), repeated: the key loop runs on [1, head) and
    on (hi, N], and each visit list is a ``Tiled`` whose base, the visits of
    the head's last period, repeats up to hi, after the visits before head - P
    and before those past hi.  The middle adds no new key, and a placed n
    there has the target and the key of the placed n - P, so the largest
    error and the worst scheduled distances are already final.  When
    head > hi the key loop runs over all of [1, N], and the base is empty.
    """
    if N > p.horizon:
        raise ValueError("N must not exceed the placement horizon")
    ls = sorted(epsilons)
    targets = {l: p.cert.target(l) for l in ls}
    worst = dict.fromkeys(ls, 0.0)
    max_err = 0.0
    seen = {}  # window key -> ({l: distance + err}, visited targets, target at offset 0)

    def sweep(start, stop):
        """The key loop over n in range(start, stop): {l: its visits there}."""
        nonlocal max_err
        visits = {l: [] for l in ls}
        for n, key in enumerate(orbit_windows(p, start, stop), start):
            entry = seen.get(key)
            if entry is None:
                vec, err = orbit_eval(p, n)
                max_err = max(max_err, err)
                peaks = suffix_peaks(vec)
                dist = {l: distance(vec, targets[l], peaks=peaks) + err for l in ls}
                entry = seen[key] = (dist, tuple(l for l in ls if dist[l] < epsilons[l]),
                                     dict(zip(key[1], key[2])).get(0))
            dist, visited, scheduled = entry
            for l in visited:
                visits[l].append(n)
            if scheduled in worst:
                worst[scheduled] = max(worst[scheduled], dist[scheduled])
        return visits

    P = p.period
    head, hi = p.forward_window + P + 1, min(N, p.horizon - p.backward_window)
    repeats = head <= hi  # a middle of repeated periods
    swept = sweep(1, head if repeats else N + 1)
    tails = sweep(hi + 1, N + 1) if repeats else dict.fromkeys(ls, ())
    reports = []
    for l in ls:
        v, bound = swept[l], proximity_bound(l)
        a = bisect_left(v, head - P) if repeats else len(v)
        visits = Tiled(v[:a], v[a:], P, hi, tails[l])
        reports.append(OrbitReport(
            l=l,
            epsilon=epsilons[l],
            horizon=N,
            visit_times=visits,
            density_floor=density_proxy(visits, N),
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
    one point and its suffix peaks per window key (``SolutionOrbit.evaluate``);
    only the distances are per target.  A cell at t = n + s measures W(s) A^n x
    against y_l by ``distance(point, y_l, s, lam * s, peaks)``, which builds no
    function.
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
    values = orbit.evaluate(t for t, _ in times)
    for (t0, is_cell), (vec, s, err, peaks) in zip(events, values):
        if not is_cell:  # at an integer, s == 0
            for l in ls:
                if t0 < n_ints[l] and distance(vec, targets[l], peaks=peaks) + err \
                        < epsilons[l] / 2.0:
                    windows[l].append((t0, t0 + delta[l]))
            continue
        t1 = min(t_max, t0 + grid_step)
        lip = orbit.lipschitz_bound(t0, t1)
        for l in ls:
            d = distance(vec, targets[l], s, lam * s, peaks=peaks)
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


_SCALARS = (str, int, float, type(None))  # json.dumps writes these as the indented encoder does


def _exact_ints(value) -> bool:
    """Whether value is a visit list, a list or a ``Tiled``, of exact ints only.  A Tiled's
    copies add int multiples of its period to its base, so its stored parts decide."""
    if isinstance(value, Tiled):
        value = chain(value.head, value.base, value.tail)
    elif not isinstance(value, list):
        return False
    return set(map(type, value)) <= {int}


def _dump_reports(reports, fh):
    """json.dump([r.to_json_dict() for r in reports], fh, indent=1, default=list),
    byte for byte: a ``Tiled`` visit list is written as its list.

    json.dump runs the pure-Python encoder (json.dumps does too once an indent
    is set), one generator step per visit time.  Here the framing of the flat
    report dicts is written directly, each scalar goes through json.dumps, and
    each visit list is written one part of its ``Tiled.parts`` walk at a time
    (a list read as a Tiled with no base), each part in one ``%`` pass of
    ",\\n   %d" per entry; no part is longer than a period or a few thousand
    entries, so the export holds only that much formatted text at once.  The
    bytes are json.dump's:

    * json writes an exact int as ``int.__repr__``, which is what ``%d`` writes;
    * at depth 2 with indent=1 json opens a list with "[\\n   ", separates its
      entries by ",\\n   " and closes it with "\\n  ]": the parts follow one
      another, and the first part's string loses its leading comma;
    * an empty list is written as "[]".

    ``%d`` writes True as 1 and truncates 2.5, and json.dumps writes a container
    on one line, so a report holding a value that is neither a str, int, float
    or None nor a list or Tiled of exact ints (checked by type, at C speed) is
    handed whole to json.dump.
    """
    dicts = [r.to_json_dict() for r in reports]
    if not all(isinstance(v, _SCALARS) or _exact_ints(v) for d in dicts for v in d.values()):
        json.dump(dicts, fh, indent=1, default=list)
        return
    fh.write("[")
    for i, d in enumerate(dicts):
        fh.write(",\n {" if i else "\n {")
        for j, (key, value) in enumerate(d.items()):
            fh.write((",\n  " if j else "\n  ") + json.dumps(key) + ": ")
            if isinstance(value, _SCALARS):
                fh.write(json.dumps(value))
                continue
            parts = (value if isinstance(value, Tiled) else Tiled(value, (), 1, 0)).parts()
            lines = ((",\n   %d" * len(t)) % t for t in map(tuple, parts) if t)
            first = next(lines, None)
            if first is None:
                fh.write("[]")
                continue
            fh.write("[" + first[1:])
            fh.writelines(lines)
            fh.write("\n  ]")
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
