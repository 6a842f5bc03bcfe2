"""One timed iteration of a benchmark workload, in a fresh interpreter.

Usage: python3 bench/worker.py '<job JSON>'

The job names the workload, its size, the iteration seed, a private output
directory, the parent's clock reading just before this process was started
(``t0``) and, when tracing, the file the spans go to.  ``setup_s`` runs from
``t0`` to the first pipeline call: interpreter start, ``import fhclab``,
config parsing and certificate construction.  ``wall_s`` runs from the first
pipeline call to the exported result.  Both clocks are ``time.perf_counter``,
which on Linux reads the system-wide monotonic clock, so the two processes
share it.  ``kernel_s`` times a fixed loop just before and just after the
pipeline, so the parent can tell how fast the machine ran meanwhile.  The last
line of stdout is the result as JSON; checking it is the parent's job
(bench/run.py).
"""

import json
import math
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def kernel_s():
    """Best of five timings of a fixed pure-Python loop: the machine's speed now."""
    best = math.inf
    for _ in range(5):
        start = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        best = min(best, time.perf_counter() - start)
    return best


def peak_rss_mb():
    """This process's peak RSS (VmHWM).  Not ru_maxrss: Linux carries the parent's
    RSS at fork into the child's ru_maxrss across exec."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def pipeline(job, cli):
    """Set up `fhclab run` (shift_sweep, translation_bridge, golden); return the run."""
    cp = cli.load_config(job["config"])
    cli.build_certificate(cp)

    def run():
        with open(os.devnull, "w") as sink:
            cli.run_pipeline(cp, out=sink)
        return {}

    return run


def poly_probe(job, cli):
    """Set up the acceptance-8 shape, Hardy L=3 and C^3[0,1] L=1; return the run."""
    from fhclab import criterion, operators, spaces

    certs = [
        operators.make_certificate(operators.Differentiation(spaces.HARDY), 3),
        operators.make_certificate(operators.Differentiation(spaces.CkModel(3, 0.0, 1.0)), 1),
    ]

    def run():
        thresholds, probes = [], []
        for k, cert in enumerate(certs):
            tc = criterion.compute_thresholds(cert)
            thresholds.append([N for _, N in tc.pairs()])
            for l in range(1, cert.target_count + 1):
                N, y = tc.threshold(l), cert.target(l)
                worst = criterion.unconditional_probe(cert, y, N, trials=job["size"],
                                                      seed=job["seed"] + 10 * k + l)
                bound = criterion.tail_norm(cert, y, N + 1, "inverse")
                probes.append([worst, bound])
        return {"thresholds": thresholds, "probes": probes}

    return run


def main():
    job = json.loads(sys.argv[1])
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from fhclab import cli

    tracer = None
    if job.get("trace_path"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    set_up = poly_probe if job["workload"] == "poly_probe" else pipeline
    run = set_up(job, cli)
    setup_s = time.perf_counter() - job["t0"]
    before = kernel_s()
    start = time.perf_counter()
    extra = run()
    wall_s = time.perf_counter() - start
    after = kernel_s()

    import numpy

    peak_mb = peak_rss_mb()
    if tracer is not None:
        tracer.dump(job["trace_path"])
    print(json.dumps({"setup_s": setup_s, "wall_s": wall_s, "kernel_s": (before + after) / 2,
                      "peak_rss_mb": peak_mb, "numpy": numpy.__version__, **extra}))


if __name__ == "__main__":
    main()
