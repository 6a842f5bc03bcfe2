"""The benchmark's workload set-ups, run in-process against the benchmark's own checks.

``bench/`` changes only with the benchmark, and tier-1 otherwise never runs the
``poly_probe`` set-up, which reads ``TailCertificate.pairs``/``threshold``,
``tail_norm`` and ``unconditional_probe`` without a store.
"""

import importlib.util
import pathlib

from fhclab import cli

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_poly_probe_passes_its_check(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # run.py imports its sibling tracer.py
    worker, run = load("worker"), load("run")
    result = worker.poly_probe({"size": 4, "seed": 0}, cli)()
    assert result["thresholds"] == run.POLY_THRESHOLDS
    assert run.check("poly_probe", result, None) is None
