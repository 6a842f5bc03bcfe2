"""fhclab benchmark: three pipeline workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 bench/run.py --workload shift_sweep --seed 0 --seconds 35 --trace 0
    python3 bench/run.py --workload all

Each run first replays the golden shift report (tests/data/golden_report.csv)
as a self-check, then runs the workload in a closed loop, one iteration after
the other, each in a fresh interpreter (bench/worker.py), until ``--seconds``
have passed.  Every iteration's output is checked; a failed check counts in
``failed``.  With ``--trace 0`` the run reports the end-to-end metrics as
medians over its iterations, with times rescaled to a reference machine speed
(see REFERENCE_KERNEL_S and bench/README.md).  With ``--trace 1`` it
alternates untraced and traced iterations on one input and reports the
per-layer metrics of the traced ones plus the tracing overhead.  The last stdout line is the result
as one JSON object; metric names and units are those of BENCHMARK.json.

All inputs derive from ``--seed``; program outputs go to a temporary
directory under .bench_tmp/ that is removed at exit.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
GOLDEN = os.path.join(ROOT, "tests", "data", "golden_report.csv")
CHILD_TIMEOUT_S = 100
# worker.kernel_s on an idle 2-vCPU Intel Xeon VM at 2.1 GHz, Python 3.11.7.  Times are
# reported at this speed: measured time * REFERENCE_KERNEL_S / kernel_s around it.
REFERENCE_KERNEL_S = 0.0131

# size is the horizon for the pipeline workloads, trials per target for poly_probe;
# items is the verified work of one iteration at that size, in the stated unit
WORKLOADS = {
    "shift_sweep": {"size": 40_000, "items": 40_000, "unit": "orbit points"},
    "poly_probe": {"size": 40, "items": 4 * 40, "unit": "random sub-sums"},
    "translation_bridge": {"size": 80, "items": 80 * 10, "unit": "grid cells"},
}
POLY_THRESHOLDS = [[3, 4, 5], [6]]  # Hardy L=3, C^3[0,1] L=1, as certified at fa363e4

SHIFT_CFG = """\
[operator]
kind = shift
w = 2
space = lp
p = 2

[run]
targets = {targets}
horizon = {horizon}
radius_factor = 1.2
seed = {seed}
mode = discrete
precision = float
probes = {probes}

[output]
dir = {out}
csv = report.csv
json = {json}
"""

TRANSLATION_CFG = """\
[operator]
kind = translation
lam = 1

[run]
targets = 1
horizon = {horizon}
radius_factor = 1.2
seed = {seed}
mode = continuous
precision = float
grid_step = 0.1

[output]
dir = {out}
csv = report.csv
json = report.json
"""


def config_text(workload, size, seed, out):
    if workload == "golden":
        return SHIFT_CFG.format(targets=2, horizon=size, seed=seed, probes=0, out=out, json="")
    if workload == "shift_sweep":
        return SHIFT_CFG.format(targets=5, horizon=size, seed=seed, probes=50, out=out,
                                json="report.json")
    return TRANSLATION_CFG.format(horizon=size, seed=seed, out=out)


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def check(workload, result, out):
    """None if the iteration's outputs are correct, else what is wrong."""
    if workload == "poly_probe":
        if result["thresholds"] != POLY_THRESHOLDS:
            return f"thresholds {result['thresholds']} != {POLY_THRESHOLDS}"
        over = [(w, b) for w, b in result["probes"] if not w <= b]
        if len(result["probes"]) != 4 or over:
            return f"probe maxima above the certified tail: {over}"
        return None
    csv_path = os.path.join(out, "report.csv")
    if not os.path.exists(csv_path):
        return "no CSV report written"
    want = GOLDEN if workload == "golden" else os.path.join(HERE, "reference", f"{workload}.csv")
    if read_bytes(csv_path) != read_bytes(want):
        return f"CSV differs from {os.path.relpath(want, ROOT)}"
    if workload != "golden":
        with open(os.path.join(out, "report.json")) as fh:
            if not json.load(fh):
                return "empty JSON report"
    return None


def run_job(work, workload, size, seed, trace=False):
    """One iteration in a fresh interpreter: (result or None, problem or None)."""
    out = tempfile.mkdtemp(dir=work)
    job = {"workload": workload, "size": size, "seed": seed}
    if workload != "poly_probe":
        job["config"] = os.path.join(out, "run.cfg")
        with open(job["config"], "w") as fh:
            fh.write(config_text(workload, size, seed, out))
    if trace:
        job["trace_path"] = os.path.join(out, "spans.npz")
    job["t0"] = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, WORKER, json.dumps(job)], cwd=ROOT,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"{workload} iteration exceeded {CHILD_TIMEOUT_S} s"
    if proc.returncode != 0:
        return None, f"{workload} worker exited {proc.returncode}: {proc.stderr.strip()[-500:]}"
    result = json.loads(proc.stdout.splitlines()[-1])
    problem = check(workload, result, out)
    if trace and problem is None:
        result["layers"] = tracer.summarize(job["trace_path"])
    shutil.rmtree(out)
    return (None, problem) if problem else (result, None)


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def machine_facts(workload, seed, seconds, trace, numpy_version):
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "fhclab")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            digest.update(name.encode() + b"\0" + read_bytes(os.path.join(src, name)))
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {"workload": workload, "size": WORKLOADS[workload]["size"],
            "unit": WORKLOADS[workload]["unit"], "seed": seed, "seconds": seconds,
            "trace": trace, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy_version, "platform": platform.platform(),
            "git_commit": commit, "src_sha256": digest.hexdigest()[:16]}


def at_reference_speed(result, key):
    return result[key] * REFERENCE_KERNEL_S / result["kernel_s"]


def describe(label, values, unit):
    q1, med, q3 = quartiles(values)
    print(f"{label}: median {med:.6g} {unit} (q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})")


def end_to_end(workload, samples):
    items = WORKLOADS[workload]["items"]
    wall = [at_reference_speed(r, "wall_s") for r in samples]
    series = {
        "wall_s": (wall, "s"),
        "items_per_s": ([items / w for w in wall], f"{WORKLOADS[workload]['unit']}/s"),
        "setup_s": ([at_reference_speed(r, "setup_s") for r in samples], "s"),
        "peak_rss_mb": ([r["peak_rss_mb"] for r in samples], "MB"),
    }
    for name, (values, unit) in series.items():
        describe(f"{workload} {name}", values, unit)
    describe(f"{workload} measured wall_s (machine speed not removed)",
             [r["wall_s"] for r in samples], "s")
    describe(f"{workload} kernel_s", [r["kernel_s"] for r in samples], "s")
    return {name: statistics.median(values) for name, (values, _) in series.items()}


def per_layer(workload, plain, traced):
    """Medians over the traced iterations; a value every iteration repeats stays exact."""
    metrics = {}
    for name in traced[0]["layers"]:
        values = [r["layers"][name] for r in traced]
        metrics[name] = values[0] if len(set(values)) == 1 else statistics.median(values)
    untraced = statistics.median(at_reference_speed(r, "wall_s") for r in plain)
    overhead = statistics.median(at_reference_speed(r, "wall_s") for r in traced) - untraced
    metrics["trace.overhead_s"] = overhead
    print(f"{workload} tracing overhead: {overhead:.4g} s over untraced wall_s {untraced:.4g} s "
          f"(n={len(plain)} untraced, {len(traced)} traced)")
    top = sorted((k for k in metrics if k.endswith(".self_s")), key=metrics.get, reverse=True)
    for name in top[:5]:
        print(f"{workload} self time {name[:-7]}: {metrics[name]:.4g} s, "
              f"{metrics[name[:-7] + '.calls']} calls")
    return metrics


def run_workload(work, workload, seed, seconds, trace):
    """(attempted, failed, metrics) of one run of one workload."""
    attempted, failed = 1, 0
    _, problem = run_job(work, "golden", 200, seed)
    if problem:
        failed += 1
        print(f"{workload} golden self-check FAILED: {problem}")
    size = WORKLOADS[workload]["size"]
    rng = random.Random(f"{workload}/{seed}")
    fixed_seed = rng.randrange(2**31)
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while True:
        # timed runs draw a fresh input per iteration, so the median spans several;
        # traced runs repeat one input, so their counts must repeat exactly
        if trace:
            jobs = [(fixed_seed, False), (fixed_seed, True)]
        else:
            jobs = [(rng.randrange(2**31), False)]
        for iter_seed, traced_job in jobs:
            result, problem = run_job(work, workload, size, iter_seed, traced_job)
            attempted += 1
            if problem:
                failed += 1
                print(f"{workload} iteration FAILED (seed {iter_seed}): {problem}")
            else:
                (traced if traced_job else plain).append(result)
        if time.perf_counter() >= deadline:
            break
    counts = {tuple(v for k, v in sorted(r["layers"].items())
                    if k.endswith((".calls", ".fails", ".distinct_ratio", ".bytes")))
              for r in traced}
    if len(counts) > 1:
        failed += 1
        print(f"{workload}: per-layer counts differ between traced iterations of one input")
    if not plain or (trace and not traced):
        return attempted, failed, None
    print("facts:", json.dumps(machine_facts(workload, seed, seconds, trace, plain[0]["numpy"])))
    print(f"{workload} fail_rate: {failed / attempted:.6g} failed/attempted "
          f"(n={attempted} checks, {failed} failed)")
    metrics = per_layer(workload, plain, traced) if trace else end_to_end(workload, plain)
    return attempted, failed, metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    missing = [p for p in (os.path.join(ROOT, "src", "fhclab", "__init__.py"), GOLDEN)
               if not os.path.exists(p)]
    if missing:
        sys.exit(f"bench: missing {', '.join(missing)}; run from a full fhclab checkout")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    base = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(base, exist_ok=True)
    work = tempfile.mkdtemp(dir=base)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    final = {}
    try:
        for name in names:
            a, f, metrics = run_workload(work, name, args.seed, args.seconds, args.trace)
            attempted, failed = attempted + a, failed + f
            if metrics is None:
                sys.exit(f"bench: no successful {name} iteration")
            if set(metrics) != set(units):
                sys.exit(f"bench: metrics {sorted(set(metrics) ^ set(units))} "
                         "do not match BENCHMARK.json")
            for metric, value in metrics.items():
                key = metric if len(names) == 1 else f"{name}/{metric}"
                final[key] = {"value": value, "unit": units[metric]}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not os.listdir(base):
            os.rmdir(base)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": final}))


if __name__ == "__main__":
    main()
