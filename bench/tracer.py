"""Outside-in span recorder for fhclab's public functions.

``install`` replaces each traced function with a wrapper in every ``fhclab``
module that binds it by name (modules import functions by name, so patching
only the defining module would miss most calls); methods are wrapped on
their class.  A span is (name id, parent span, start, end).  Spans live in
flat arrays while the run lasts and are written out once, by ``dump``.
``summarize`` turns a dump into per-function calls, self time and failures.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from array import array

import numpy as np

# module -> public functions and methods traced in that module
LAYERS = {
    "operators": ["apply_inverse", "apply_forward"],
    "spaces": ["linear_combine", "accumulate", "distance", "SparseVector.norm",
               "PolySeries.norm", "PolySeries.ck_norm_interval",
               "PiecewiseLinearFn.norm", "enumerate_targets"],
    "criterion": ["compute_thresholds", "tail_norm", "unconditional_probe"],
    "density_partition": ["build_schedule", "PartitionSchedule.members"],
    "constructor": ["assign_placements", "materialize", "orbit_parts", "orbit_eval"],
    "verifier": ["discrete_report", "continuous_visits", "density_proxy", "report_export"],
    "regularized_semigroup": ["SolutionOrbit.evaluate", "SolutionOrbit.lipschitz_bound",
                              "w_apply"],
    "cli": ["run_pipeline", "build_certificate"],
}
TRACED = [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]

# direct children of the root span cli.run_pipeline -> pipeline stage
STAGES = {
    "cli.build_certificate": "certify",
    "criterion.compute_thresholds": "certify",
    "constructor.assign_placements": "place",
    "verifier.discrete_report": "sweep",
    "verifier.continuous_visits": "sweep",
    "constructor.orbit_eval": "revisit",
    "density_partition.PartitionSchedule.members": "revisit",
    "spaces.distance": "revisit",
    "criterion.unconditional_probe": "probes",
    "verifier.report_export": "export",
}
STAGE_NAMES = ["certify", "place", "sweep", "revisit", "probes", "export", "other"]


class Tracer:
    def __init__(self):
        self.names = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.failed = array("i")  # indices of spans whose call raised
        self.orbit_ns = array("q")  # n argument of every orbit_eval call
        self.bytes_written = 0
        self._stack = [-1]

    def wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        failed, stack, clock = self.failed, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                failed.append(idx)
                raise
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def _record_orbit_n(self, fn):
        ns = self.orbit_ns

        @functools.wraps(fn)
        def recorded(p, n):
            ns.append(n)
            return fn(p, n)

        return recorded

    def _count_bytes(self, fn):
        @functools.wraps(fn)
        def counted(reports, csv_path=None, json_path=None):
            fn(reports, csv_path, json_path)
            self.bytes_written += sum(os.path.getsize(p) for p in (csv_path, json_path) if p)

        return counted

    def install(self):
        """Wrap every function in TRACED; raises if one no longer exists."""
        hooks = {"constructor.orbit_eval": self._record_orbit_n,
                 "verifier.report_export": self._count_bytes}
        for name in TRACED:
            mod_name, _, qual = name.partition(".")
            mod = importlib.import_module(f"fhclab.{mod_name}")
            owner, _, attr = qual.rpartition(".")
            if owner:
                cls = getattr(mod, owner)
                orig = cls.__dict__[attr]
                setattr(cls, attr, self.wrap(name, orig))
                continue
            orig = getattr(mod, attr)
            inner = hooks[name](orig) if name in hooks else orig
            wrapped = self.wrap(name, inner)
            for m in list(sys.modules.values()):
                if m is not None and (m.__name__ == "fhclab" or m.__name__.startswith("fhclab.")):
                    for key, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, key, wrapped)

    def dump(self, path):
        np.savez(path, names=np.array(self.names), name_id=np.asarray(self.name_id),
                 parent=np.asarray(self.parent), start=np.asarray(self.start),
                 end=np.asarray(self.end), failed=np.asarray(self.failed),
                 orbit_ns=np.asarray(self.orbit_ns),
                 bytes_written=np.array(self.bytes_written))


def summarize(path):
    """Per-layer metrics of one dumped trace, keyed by metric name."""
    with np.load(path) as z:
        names = [str(s) for s in z["names"]]
        name_id, parent = z["name_id"], z["parent"]
        dur = z["end"] - z["start"]
        failed, orbit_ns = z["failed"], z["orbit_ns"]
        bytes_written = int(z["bytes_written"])
    k = len(names)
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_time = dur - covered
    calls = np.bincount(name_id, minlength=k)
    self_s = np.bincount(name_id, weights=self_time, minlength=k)
    fails = np.bincount(name_id[failed], minlength=k)
    out = {}
    for i, name in enumerate(names):
        out[f"{name}.calls"] = int(calls[i])
        out[f"{name}.self_s"] = float(self_s[i])
        out[f"{name}.fails"] = int(fails[i])
    out["constructor.orbit_eval.distinct_ratio"] = (
        len(set(orbit_ns.tolist())) / len(orbit_ns) if len(orbit_ns) else 0.0)
    out["verifier.report_export.bytes"] = bytes_written

    stages = dict.fromkeys(STAGE_NAMES, 0.0)
    roots = np.flatnonzero(name_id == names.index("cli.run_pipeline"))
    for child in np.flatnonzero(np.isin(parent, roots)):
        stages[STAGES.get(names[name_id[child]], "other")] += float(dur[child])
    for stage, seconds in stages.items():
        out[f"cli.run_pipeline.{stage}_s"] = seconds
    out["trace.spans"] = len(dur)
    return out
