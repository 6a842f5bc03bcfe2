"""The benchmark's span recorder, ``bench/tracer.py``, installed on small runs.

``Tracer.install`` patches fhclab's modules, so it runs in a subprocess.
"""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

CONFIGS = {
    "shift": "kind = shift\nw = 2\n\n[run]\ntargets = 2\nhorizon = 100\nprobes = 3\n",
    "ck": "kind = differentiation\nspace = ck\nk = 1\n\n[run]\ntargets = 1\nhorizon = 40\n",
    "translation": ("kind = translation\n\n[run]\ntargets = 1\nhorizon = 10\n"
                    "mode = continuous\ngrid_step = 0.5\n"),
}

# installs the tracer, runs every config given on the command line and the
# semigroup check (the continuous sweep measures W(s) x without w_apply), and
# prints the per-layer calls of the dumped trace
SCRIPT = """
import contextlib, json, sys
from tracer import TRACED, Tracer, summarize

tracer = Tracer()
tracer.install()
from fhclab import cli

out_dir, configs = sys.argv[1], sys.argv[2:]
with open(f"{out_dir}/stdout.txt", "w") as sink:
    for path in configs:
        cli.run_pipeline(cli.load_config(path), out=sink)
    with contextlib.redirect_stdout(sink):
        cli.main(["semigroup"])
tracer.dump(f"{out_dir}/trace.npz")
metrics = summarize(f"{out_dir}/trace.npz")
print(json.dumps({name: metrics[f"{name}.calls"] for name in TRACED}))
"""


def test_every_traced_layer_records_calls(tmp_path):
    paths = []
    for name, text in CONFIGS.items():
        path = tmp_path / f"{name}.cfg"
        path.write_text(f"[operator]\n{text}\n[output]\ndir = {tmp_path}\n"
                        f"csv = {name}.csv\njson = {name}.json\n")
        paths.append(str(path))
    pythonpath = os.pathsep.join([str(ROOT / "bench"), str(ROOT / "src")]
                                 + [p for p in [os.environ.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path), *paths],
                          env={**os.environ, "PYTHONPATH": pythonpath},
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    calls = json.loads(done.stdout.splitlines()[-1])
    assert calls and not [name for name, n in calls.items() if n < 1], calls
