"""Visit-time statistics and lower-density proxies, discrete and continuous.

The lower density (a liminf) is replaced by a windowed running minimum of
count(n)/n over [N/10, N]; this lower-bounds every finite
prefix of the evidence and is reported next to N so scaling is visible.
Continuous visit sets are measured on a grid with a rigorous Lipschitz
modulus, yielding inner and outer estimates.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, fields

from .constructor import FhcPlacement, orbit_eval, proximity_bound
from .density_partition import running_density_floor
from .spaces import distance

_DENSITY_WINDOW = 0.1  # the density floor is a minimum over [0.1 * N, N]

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


def density_proxy(visits, N: int) -> float:
    """min over n in [0.1*N, N] of |visits ∩ [1, n]| / n."""
    ws = max(1, int(_DENSITY_WINDOW * N))
    if ws > N:
        raise ValueError("empty density window")
    return running_density_floor(sorted(visits), ws, N)


def discrete_report(p: FhcPlacement, epsilons: dict, N: int):
    """Reports for several targets sharing one orbit sweep.

    ``epsilons`` maps l -> radius.  The orbit is evaluated once per n and
    compared against every requested target; the same distances give each
    target's worst scheduled distance (n scheduled for l iff z_n = y_l) and
    with it the covering check.
    """
    if N > p.horizon:
        raise ValueError("N must not exceed the placement horizon")
    ls = sorted(epsilons)
    targets = {l: p.cert.target(l) for l in ls}
    visits = {l: [] for l in ls}
    worst = dict.fromkeys(ls, 0.0)
    max_err = 0.0
    for n in range(1, N + 1):
        vec, err = orbit_eval(p, n)
        max_err = max(max_err, err)
        scheduled = p.placements.get(n)
        for l in ls:
            d = distance(vec, targets[l]) + err
            if d < epsilons[l]:
                visits[l].append(n)
            if l == scheduled:
                worst[l] = max(worst[l], d)
    reports = []
    for l in ls:
        bound = proximity_bound(l)
        reports.append(OrbitReport(
            l=l,
            epsilon=epsilons[l],
            horizon=N,
            visit_times=visits[l],
            density_floor=density_proxy(visits[l], N) if visits[l] else 0.0,
            covering_set_check=worst[l] < epsilons[l],
            proof_bound=bound,
            certified_error=max_err,
            worst_scheduled=worst[l],
            guarantee_vacuous=not epsilons[l] > bound + max_err,
        ))
    return reports


# --------------------------------------------------------------------------
# continuous mode


def continuity_window(target, epsilon: float, lam: float,
                      integer_radius: float) -> float:
    """Largest delta in (0, 1] with

        e^(lam*s) * integer_radius + (e^(lam*s) - 1)*||y|| + e^(lam*s)*s*Lip(y)
            <= epsilon   for all s in [0, delta].

    This is the finite-horizon form of the strong-continuity argument: an
    integer visit within ``integer_radius`` certifies the whole window
    [n, n + delta] as visits within epsilon.  Returns 0.0 if even s -> 0
    fails (radius too large).
    """
    ynorm = target.norm()
    lip = target.max_slope()

    def ok(s):
        g = math.exp(lam * s)
        return g * integer_radius + (g - 1.0) * ynorm + g * s * lip <= epsilon

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
    integer parts of the inner intervals' left ends.  Each cell and each
    integer evaluates the orbit once; only the distances are per target.
    """
    if grid_step <= 0:
        raise ValueError("grid_step must be positive")
    lam = float(orbit.lam)
    ls = sorted(epsilons)
    targets = {l: orbit.placement.cert.target(l) for l in ls}
    # an integer visit within epsilon / 2 certifies a window [n, n + delta]
    delta = {l: continuity_window(targets[l], epsilons[l], lam, epsilons[l] / 2.0) for l in ls}

    n_cells = int(math.ceil(t_max / grid_step))
    # per target, the integers n whose certified window [n, n + delta] can count
    n_ints = {l: int(math.floor(t_max - delta[l])) + 1 if delta[l] > 0 else 0 for l in ls}
    n_end = max(n_ints.values(), default=0)
    cells = {l: [] for l in ls}  # inner cells
    windows = {l: [] for l in ls}  # certified windows from integer visits
    outer_measure = dict.fromkeys(ls, 0.0)

    def integer_visit(n):
        vec, err = orbit.evaluate(float(n))
        for l in ls:
            if n < n_ints[l] and distance(vec, targets[l]) + err < epsilons[l] / 2.0:
                windows[l].append((float(n), float(n) + delta[l]))

    # one sweep in time order: integer n is checked just before the cells of
    # [n, n + 1), so the orbit builds each integer point once
    n = 0
    for i in range(n_cells):
        t0 = i * grid_step
        while n < n_end and n <= t0:
            integer_visit(n)
            n += 1
        t1 = min(t_max, t0 + grid_step)
        vec, err = orbit.evaluate(t0)
        lip = orbit.lipschitz_bound(t0, t1)
        for l in ls:
            d = distance(vec, targets[l])
            if d + err + lip * (t1 - t0) < epsilons[l]:
                cells[l].append((t0, t1))
            if d - err - lip * (t1 - t0) < epsilons[l]:
                outer_measure[l] += t1 - t0
    for n in range(n, n_end):
        integer_visit(n)

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


def report_export(reports, csv_path=None, json_path=None):
    """Write reports; CSV carries the summary row per target, JSON everything."""
    try:
        if csv_path is not None:
            with open(csv_path, "w", newline="") as fh:
                fh.write(reports_to_csv_text(reports))
        if json_path is not None:
            with open(json_path, "w") as fh:
                json.dump([r.to_json_dict() for r in reports], fh, indent=1)
    except OSError as exc:
        raise OSError(f"report export failed for {exc.filename!r}: {exc}") from exc


def report_import(json_path):
    with open(json_path) as fh:
        return [OrbitReport(**obj) for obj in json.load(fh)]
