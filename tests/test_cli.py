"""End-to-end runner: subcommands, config validation, determinism, exit codes."""

import io
import os
import re

import pytest

from fhclab import cli, criterion, regularized_semigroup, spaces, verifier
from fhclab.constructor import _window_error, orbit_window
from fhclab.cli import (
    ConfigError,
    _cert_from_args,
    build_certificate,
    build_parser,
    build_placements,
    load_config,
    main,
    run_pipeline,
)

REPO_CONFIG = os.path.join(os.path.dirname(__file__), "..", "configs", "shift_w2.cfg")
DATA = os.path.join(os.path.dirname(__file__), "data")


def write_cfg(tmp_path, body, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(body)
    return str(path)


SMALL_RUN = """\
[operator]
kind = shift
w = 2

[run]
targets = 2
horizon = 100
probes = 10

[output]
dir = {out}
csv = report.csv
json = report.json
"""


CONTINUOUS_RUN = """\
[operator]
kind = translation
lam = 1

[run]
targets = 1
horizon = 10
mode = continuous
grid_step = 0.1

[output]
dir = {out}
csv = report.csv
"""


class TestSubcommands:
    def test_partition_prints_members(self, capsys):
        assert main(["partition", "--pairs", "(1,2)", "--horizon", "16"]) == 0
        assert "[3, 7, 11, 15]" in capsys.readouterr().out

    def test_certify_prints_first_threshold(self, capsys):
        assert main(["certify", "--op", "shift", "--w", "2", "--L", "1"]) == 0
        assert "N_1 = 2" in capsys.readouterr().out

    def test_certify_reports_an_underflowing_inverse_tail(self, capsys):
        # ||B e_1|| = 1e-200, whose square underflows: the tail must not read 0
        assert main(["certify", "--op", "shift", "--w", "1e200", "--L", "1"]) == 0
        out = capsys.readouterr().out
        assert float(re.search(r"inverse ([^,]+),", out).group(1)) >= 1e-200

    def test_certify_transformed_operator(self, capsys):
        assert main(["certify", "--op", "shift", "--w", "2", "--L", "1",
                     "--power", "2"]) == 0
        assert "N_1 = 1" in capsys.readouterr().out

    @pytest.mark.parametrize("flags, thresholds", [
        (["--k", "3", "--a", "-1", "--b", "1", "--L", "1"], ["N_1 = 8"]),
        (["--k", "2", "--a", "0.5", "--b", "2", "--L", "2"], ["N_1 = 6", "N_2 = 7"]),
    ], ids=["c3[-1,1]", "c2[0.5,2]"])
    def test_certify_ck_off_origin(self, capsys, flags, thresholds):
        # B^m integrates in u = x - a, so the antiderivatives vanish at a
        assert main(["certify", "--op", "differentiation", "--space", "ck", *flags]) == 0
        out = capsys.readouterr().out
        assert [line.split("  ")[0] for line in out.splitlines()] == thresholds

    @pytest.mark.parametrize("flags, golden", [
        (["--op", "shift", "--w", "2", "--L", "5"], "certify_shift_w2_L5.json"),
        (["--op", "shift", "--space", "c0", "--w", "3/2", "--L", "2"],
         "certify_c0_w3-2_L2.json"),
        (["--op", "differentiation", "--space", "hardy", "--L", "3", "--power", "2"],
         "certify_hardy_L3_power2.json"),
        (["--op", "translation", "--lam", "1", "--L", "2", "--rotate", "-1"],
         "certify_translation_L2_rotate-1.json"),
        (["--op", "differentiation", "--space", "ck", "--k", "3", "--L", "5"],
         "certify_ck3_L5.json"),
        (["--op", "differentiation", "--space", "ck", "--k", "2", "--a", "0.5", "--b", "2",
          "--L", "2"], "certify_ck2_a0.5_L2.json"),
    ], ids=["shift-l2", "shift-c0", "hardy-power2", "translation-rotate", "ck3", "ck2-a0.5"])
    def test_certify_json_matches_golden(self, tmp_path, flags, golden):
        # every threshold record, bound and residual bit is pinned
        out = tmp_path / golden
        assert main(["certify", *flags, "--json", str(out)]) == 0
        with open(os.path.join(DATA, golden), "rb") as fh:
            assert out.read_bytes() == fh.read()

    def test_semigroup_reports_zero_law_residual(self, capsys):
        assert main(["semigroup"]) == 0
        out = capsys.readouterr().out
        assert "residual at (t,s)=(1,1)" in out and ": 0.0" in out

    def test_semigroup_stdout_matches_pin(self, capsys):
        # the default arguments, then a rational rate at rational times
        assert main(["semigroup"]) == 0
        assert main(["semigroup", "--lam", "3/2", "--t", "1/3", "--s", "5/7"]) == 0
        with open(os.path.join(DATA, "semigroup_stdout.txt"), "rb") as fh:
            assert capsys.readouterr().out.encode() == fh.read()

    def test_orbit_command(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SMALL_RUN.format(out=tmp_path))
        assert main(["orbit", "--config", cfg, "--n", "3"]) == 0
        assert "distance to y_1" in capsys.readouterr().out

    def test_construct_command(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SMALL_RUN.format(out=tmp_path))
        assert main(["construct", "--config", cfg]) == 0
        assert "backward window" in capsys.readouterr().out


    def test_underflowed_inverse_tail_is_printed_positive(self, capsys):
        # the bundled config's tail past the horizon underflows term by term
        assert main(["construct", "--config", REPO_CONFIG]) == 0
        tail = re.search(r"certified tail (\S+)", capsys.readouterr().out).group(1)
        assert main(["orbit", "--config", REPO_CONFIG, "--n", "0"]) == 0
        err = re.search(r"certified error (\S+)", capsys.readouterr().out).group(1)
        assert float(tail) > 0 and float(err) > 0
        p = build_placements(load_config(REPO_CONFIG))
        assert _window_error(p, p.horizon) > 0


BENCH_REFERENCE = os.path.join(os.path.dirname(__file__), "..", "bench", "reference")

# the shift_sweep and translation_bridge configs of bench/run.py, at its sizes
BENCH_RUNS = {
    "shift_sweep": """\
[operator]
kind = shift
w = 2
space = lp
p = 2

[run]
targets = 5
horizon = 40000
radius_factor = 1.2
seed = 0
mode = discrete
precision = float
probes = 50

[output]
dir = {out}
csv = report.csv
json = report.json
""",
    "translation_bridge": """\
[operator]
kind = translation
lam = 1

[run]
targets = 1
horizon = 80
radius_factor = 1.2
seed = 0
mode = continuous
precision = float
grid_step = 0.1

[output]
dir = {out}
csv = report.csv
json = report.json
""",
}


class TestRun:
    @pytest.mark.parametrize("workload", sorted(BENCH_RUNS))
    def test_bench_workload_matches_reference(self, workload, tmp_path):
        # the benchmark rejects an iteration whose CSV differs from its reference
        cfg = write_cfg(tmp_path, BENCH_RUNS[workload].format(out=tmp_path))
        run_pipeline(load_config(cfg), out=io.StringIO())
        with open(os.path.join(BENCH_REFERENCE, f"{workload}.csv"), "rb") as fh:
            assert (tmp_path / "report.csv").read_bytes() == fh.read()

    def test_small_run_exits_zero_and_writes_artifacts(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SMALL_RUN.format(out=tmp_path))
        assert main(["run", "--config", cfg]) == 0
        assert (tmp_path / "report.csv").exists()
        assert (tmp_path / "report.json").exists()
        assert "all certified invariants hold" in capsys.readouterr().out

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL_RUN.format(out=tmp_path))
        main(["run", "--config", cfg])
        first = (tmp_path / "report.csv").read_bytes()
        first_json = (tmp_path / "report.json").read_bytes()
        main(["run", "--config", cfg])
        assert (tmp_path / "report.csv").read_bytes() == first
        assert (tmp_path / "report.json").read_bytes() == first_json

    def test_discrete_run_evaluates_each_orbit_point_once(self, tmp_path, monkeypatch):
        # once per distinct placement window: equal windows are equal orbit points
        calls, placements = [], []
        real = verifier.orbit_eval

        def counted(p, n):
            calls.append((n, orbit_window(p, n)))
            placements.append(p)
            return real(p, n)

        monkeypatch.setattr(verifier, "orbit_eval", counted)
        monkeypatch.setattr(cli, "orbit_eval", counted)
        cfg = write_cfg(tmp_path, SMALL_RUN.format(out=tmp_path))
        run_pipeline(load_config(cfg), out=io.StringIO())
        ns = [n for n, _ in calls]
        keys = [key for _, key in calls]
        assert ns == sorted(set(ns)) and ns[0] == 1
        assert len(set(keys)) == len(keys)
        assert len(calls) == len({orbit_window(placements[0], n) for n in range(1, 101)})

    def test_continuous_run_evaluates_each_orbit_point_once(self, tmp_path, monkeypatch):
        calls = []
        real = regularized_semigroup.orbit_eval

        def counted(p, n):
            calls.append(n)
            return real(p, n)

        monkeypatch.setattr(regularized_semigroup, "orbit_eval", counted)
        cfg = write_cfg(tmp_path, CONTINUOUS_RUN.format(out=tmp_path))
        run_pipeline(load_config(cfg), out=io.StringIO())
        assert calls == list(range(0, 10))

    def test_continuous_run_exits_zero_and_writes_csv(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, CONTINUOUS_RUN.format(out=tmp_path))
        assert main(["run", "--config", cfg]) == 0
        lines = (tmp_path / "report.csv").read_text().splitlines()
        assert len(lines) == 2 and lines[1].split(",")[5] == "true"
        assert "all certified invariants hold" in capsys.readouterr().out

    def test_continuous_run_runs_the_probes(self, tmp_path, capsys):
        # the probes check the certificate's tails, which the sweep mode does not change
        body = CONTINUOUS_RUN.format(out=tmp_path).replace("[output]", "probes = 5\n\n[output]")
        assert main(["run", "--config", write_cfg(tmp_path, body)]) == 0
        assert "probes: 5 random sub-sums per target within bounds" in capsys.readouterr().out

    def test_env_var_overrides_output_dir(self, tmp_path, monkeypatch):
        cfg = write_cfg(tmp_path, SMALL_RUN.format(out=tmp_path / "ignored"))
        override = tmp_path / "env_out"
        override.mkdir()
        monkeypatch.setenv("FHCLAB_OUTPUT_DIR", str(override))
        assert main(["run", "--config", cfg]) == 0
        assert (override / "report.csv").exists()

    def test_density_reads_report_back(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SMALL_RUN.format(out=tmp_path))
        main(["run", "--config", cfg])
        capsys.readouterr()
        assert main(["density", "--input", str(tmp_path / "report.json")]) == 0
        out = capsys.readouterr().out
        assert "density_floor" in out and "True" in out

    def test_bundled_config_parses(self):
        cfg = load_config(REPO_CONFIG)
        assert cfg["run"]["targets"] == 5

    def test_percent_in_a_value_is_plain_text(self, tmp_path):
        cfg = write_cfg(tmp_path, "[output]\ncsv = 100%.csv\n")
        assert load_config(cfg)["output"]["csv"] == "100%.csv"

    def test_bundled_run_stdout_matches_pin(self, monkeypatch, capsys, tmp_path):
        # the directory of the two "wrote" lines is the only part that varies
        monkeypatch.setenv("FHCLAB_OUTPUT_DIR", str(tmp_path))
        assert main(["run", "--config", REPO_CONFIG]) == 0
        out = capsys.readouterr().out.replace(str(tmp_path), "$FHCLAB_OUTPUT_DIR")
        with open(os.path.join(DATA, "run_shift_w2_stdout.txt"), "rb") as fh:
            assert out.encode() == fh.read()

    def test_bundled_run_json_matches_pin(self, monkeypatch, tmp_path):
        # worst_scheduled of the discrete path is read along the placed sequence
        monkeypatch.setenv("FHCLAB_OUTPUT_DIR", str(tmp_path))
        assert main(["run", "--config", REPO_CONFIG]) == 0
        with open(os.path.join(DATA, "run_shift_w2_report.json"), "rb") as fh:
            assert (tmp_path / "shift_w2_report.json").read_bytes() == fh.read()

    def test_small_continuous_run_matches_pins(self, monkeypatch, capsys, tmp_path):
        # t in [0, 1) reads materialize, and the continuity window lipschitz_bound
        monkeypatch.setenv("FHCLAB_OUTPUT_DIR", str(tmp_path))
        cfg = write_cfg(tmp_path, "[operator]\nkind = translation\nlam = 1\n\n[run]\n"
                        "targets = 1\nhorizon = 10\nmode = continuous\ngrid_step = 0.5\n\n"
                        "[output]\ncsv = translation_h10_report.csv\n"
                        "json = translation_h10_report.json\n")
        assert main(["run", "--config", cfg]) == 0
        out = capsys.readouterr().out.replace(str(tmp_path), "$FHCLAB_OUTPUT_DIR")
        with open(os.path.join(DATA, "run_translation_h10_stdout.txt"), "rb") as fh:
            assert out.encode() == fh.read()
        for ext in ("csv", "json"):
            with open(os.path.join(DATA, f"run_translation_h10_report.{ext}"), "rb") as fh:
                assert (tmp_path / f"translation_h10_report.{ext}").read_bytes() == fh.read()

    def test_rational_continuous_run_matches_the_pins(self, monkeypatch, tmp_path):
        # at s == 0 the sweep measures the exact point itself, never W(0.0) of it
        monkeypatch.setenv("FHCLAB_OUTPUT_DIR", str(tmp_path))
        cfg = write_cfg(tmp_path, "[operator]\nkind = translation\nlam = 1\n\n[run]\n"
                        "targets = 1\nhorizon = 10\nmode = continuous\ngrid_step = 0.5\n"
                        "precision = rational\n\n[output]\ncsv = translation_h10_report.csv\n"
                        "json = translation_h10_report.json\n")
        assert main(["run", "--config", cfg]) == 0
        for ext in ("csv", "json"):
            with open(os.path.join(DATA, f"run_translation_h10_report.{ext}"), "rb") as fh:
                assert (tmp_path / f"translation_h10_report.{ext}").read_bytes() == fh.read()

    def test_rational_run_writes_the_float_csv(self, monkeypatch, tmp_path):
        # exact arithmetic end to end is the oracle of the float pipeline
        with open(REPO_CONFIG) as fh:
            text = fh.read()
        assert "precision = float\n" in text
        for precision in ("float", "rational"):
            out = tmp_path / precision
            out.mkdir()
            monkeypatch.setenv("FHCLAB_OUTPUT_DIR", str(out))
            body = text.replace("precision = float", f"precision = {precision}")
            assert main(["run", "--config", write_cfg(tmp_path, body, f"{precision}.cfg")]) == 0
        csvs = [(tmp_path / d / "shift_w2_report.csv").read_bytes() for d in ("float", "rational")]
        assert csvs[0] == csvs[1]

    def test_five_pair_partition_matches_pin(self, capsys, tmp_path):
        # five ranks and filler blocks; the --csv directory is the only part that varies
        csv = tmp_path / "partition_5pairs.csv"
        assert main(["partition", "--pairs", "(1,2),(2,3),(3,5),(4,7),(5,9)", "--horizon",
                     "3000", "--density", "--csv", str(csv)]) == 0
        out = capsys.readouterr().out.replace(str(tmp_path), "$TMP")
        with open(os.path.join(DATA, "partition_5pairs_stdout.txt"), "rb") as fh:
            assert out.encode() == fh.read()
        with open(os.path.join(DATA, "partition_5pairs.csv"), "rb") as fh:
            assert csv.read_bytes() == fh.read()


class TestFailureModes:
    def test_injected_violation_exits_one(self, tmp_path, monkeypatch, capsys):
        # a proof bound far below every distance: a genuine violation of 5/2^l
        monkeypatch.setattr(verifier, "proximity_bound", lambda l: 1e-300)
        cfg = write_cfg(tmp_path, SMALL_RUN.format(out=tmp_path))
        assert main(["run", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert "INVARIANT FAILED" in err and "orbit proximity" in err

    def test_run_without_scheduled_times_exits_zero(self, tmp_path):
        # A(1, N_1) starts at n = 3, past the horizon: no scheduled distance to compare
        body = "[operator]\nkind = shift\nw = 2\n\n[run]\ntargets = 1\nhorizon = 2\n"
        assert main(["run", "--config", write_cfg(tmp_path, body)]) == 0

    def test_injected_continuous_violation_exits_one(self, tmp_path, monkeypatch, capsys):
        # no inner measure at all, against a positive window times the integer visits
        monkeypatch.setattr(verifier, "_union_measure", lambda intervals: 0.0)
        cfg = write_cfg(tmp_path, CONTINUOUS_RUN.format(out=tmp_path))
        assert main(["run", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert "INVARIANT FAILED" in err and "continuous-visit inner measure" in err

    @pytest.mark.parametrize("via_env", [True, False], ids=["env", "config"])
    def test_missing_output_dir_exits_two_before_any_work(self, tmp_path, monkeypatch,
                                                            capsys, via_env):
        missing = tmp_path / "no" / "such"
        cfg = write_cfg(tmp_path, SMALL_RUN.format(out=tmp_path if via_env else missing))
        if via_env:
            monkeypatch.setenv("FHCLAB_OUTPUT_DIR", str(missing))
        else:
            monkeypatch.delenv("FHCLAB_OUTPUT_DIR", raising=False)

        def no_work(cp):
            raise AssertionError("certified before checking the output directory")

        monkeypatch.setattr(cli, "build_certificate", no_work)
        assert main(["run", "--config", cfg]) == 2
        assert f"bad output dir = {str(missing)!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("body, message", [
        ("[operatr]\nkind = translation\n",
         "bad section = 'operatr': not one of operator, run, output"),
        ("[debug]\ninject_bound_violation = false\n",
         "bad section = 'debug': not one of operator, run, output"),
        ("[DEFAULT]\nhorizon = 10\n",
         "bad section = 'DEFAULT': not one of operator, run, output"),
        ("[run]\nhorizn = 10\n", "bad key = 'horizn': not a key of [run]"),
        ("[output]\ncsv = {out}\n", "bad csv = {out!r}: is a directory"),
    ], ids=["operatr", "debug", "DEFAULT", "horizn", "csv-is-dir"])
    def test_unknown_name_or_unwritable_output_exits_two_before_any_work(
            self, tmp_path, monkeypatch, capsys, body, message):
        def no_work(cfg):
            raise AssertionError("certified before checking the config")

        monkeypatch.setattr(cli, "build_certificate", no_work)
        monkeypatch.delenv("FHCLAB_OUTPUT_DIR", raising=False)
        cfg = write_cfg(tmp_path, body.format(out=str(tmp_path)))
        assert main(["run", "--config", cfg]) == 2
        assert message.format(out=str(tmp_path)) in capsys.readouterr().err

    def test_orbit_n_stays_within_the_run_horizon(self, capsys):
        # past the run horizon the error bar exceeds every distance it shows
        assert main(["orbit", "--config", REPO_CONFIG, "--n", "2000"]) == 2
        assert "bad n = 2000: must lie in [0, 1000]" in capsys.readouterr().err
        assert main(["orbit", "--config", REPO_CONFIG, "--n", "1000"]) == 0
        lines = capsys.readouterr().out.splitlines()
        err = float(lines[0].rsplit("certified error ", 1)[1])
        distances = [float(line.split(": ")[1].split()[0]) for line in lines[1:]]
        assert len(distances) == 5 and err < min(distances)

    def test_radius_factor_at_most_one_rejected(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "[run]\nradius_factor = 1.0\n")
        assert main(["run", "--config", cfg]) == 2
        assert "radius_factor" in capsys.readouterr().err

    @pytest.mark.parametrize("grid_step, message", [
        ("1e-9", "bad grid_step = 1e-09: 1e+10 cells, more than 1000000"),
        ("1e-320", "bad grid_step = 1e-320: inf cells, more than 1000000"),
    ])
    def test_grid_too_fine_to_sweep_exits_two_before_any_work(
            self, tmp_path, monkeypatch, capsys, grid_step, message):
        # such a grid streams its cells without end; the counter ends a sweep early
        calls = []

        def counted(u, v):
            calls.append(1)
            if len(calls) > 1000:
                raise AssertionError("swept a grid finer than the cell cap")
            return spaces.distance(u, v)

        monkeypatch.setattr(verifier, "distance", counted)
        monkeypatch.delenv("FHCLAB_OUTPUT_DIR", raising=False)
        body = CONTINUOUS_RUN.format(out=tmp_path).replace("0.1", grid_step)
        assert main(["run", "--config", write_cfg(tmp_path, body)]) == 2
        assert message in capsys.readouterr().err and not calls

    @pytest.mark.parametrize("cap, code", [(100, 0), (99, 2)])
    def test_cell_cap_counts_the_cells_of_the_sweep(self, tmp_path, monkeypatch, cap, code):
        # horizon 10 at grid 0.1 sweeps exactly 100 cells
        monkeypatch.setattr(cli, "_CELL_CAP", cap)
        monkeypatch.delenv("FHCLAB_OUTPUT_DIR", raising=False)
        cfg = write_cfg(tmp_path, CONTINUOUS_RUN.format(out=tmp_path))
        assert main(["run", "--config", cfg]) == code

    def test_certification_failure_is_named(self, capsys):
        # no configuration value is at fault: B^200 1 underflows to zero
        assert main(["certify", "--op", "differentiation", "--power", "200", "--L", "1"]) == 2
        assert capsys.readouterr().err.startswith("certification failed: ")
        assert main(["run", "--config", "/nonexistent.cfg"]) == 2
        assert capsys.readouterr().err.startswith("config error: ")

    def test_missing_config_exits_two(self, capsys):
        assert main(["run", "--config", "/nonexistent.cfg"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_malformed_config_reports_line(self, tmp_path):
        cfg = write_cfg(tmp_path, "[run\ntargets = 2\n")
        with pytest.raises(ConfigError, match="line"):
            load_config(cfg)

    def test_unknown_operator_kind(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "[operator]\nkind = mystery\n")
        assert main(["run", "--config", cfg]) == 2

    def test_continuous_mode_needs_translation(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path,
                        "[operator]\nkind = shift\n[run]\nmode = continuous\n"
                        "targets = 1\nhorizon = 20\n")
        assert main(["run", "--config", cfg]) == 2

    @pytest.mark.parametrize("argv, body, key", [
        (["certify", "--w", "1"], None, "w"),
        (["certify", "--w", "abc"], None, "w"),
        (["certify", "--op", "shift", "--w", "1e400"], None, "w"),
        (["certify", "--op", "translation", "--lam", "0"], None, "lam"),
        (["certify", "--op", "differentiation", "--space", "ck", "--a", "1", "--b", "0"],
         None, "k, a, b"),
        (["certify", "--rotate", "2"], None, "--rotate"),
        (["certify", "--power", "0"], None, "--power"),
        (["certify", "--L", "0"], None, "--L"),
        (["run"], "[operator]\nw = 1/2\n", "w"),
        (["run"], "[operator]\np = abc\n", "p"),
        (["run"], "[run]\nhorizon = abc\n", "horizon"),
        (["run"], "[operator]\nw = 2%\n", "w"),
        (["run"], "[operator]\nw = 1e400\n", "w"),
        (["run"], "[run]\nmode = continuous\ngrid_step = 0\n", "grid_step"),
        (["run"], "[run]\ngrid_step = -0.1\n", "grid_step"),
        (["run"], "[debug]\ninject_bound_violation = maybe\n", "section"),
        (["semigroup", "--lam", "0"], None, "lam"),
        (["semigroup", "--t", "abc"], None, "t"),
        (["semigroup", "--s", "-1"], None, "s"),
        (["orbit", "--n", "99999"], SMALL_RUN, "n"),
        (["orbit", "--n", "-1"], SMALL_RUN, "n"),
        (["run"], "[run]\nhorizon = 1\n", "horizon"),
        (["construct"], "[run]\nhorizon = 1\n", "horizon"),
        (["orbit", "--n", "1"], "[run]\nhorizon = 1\n", "horizon"),
        (["partition", "--pairs", "(0,1)"], None, "--pairs"),
        (["partition", "--pairs", "(1,"], None, "--pairs"),
        (["partition", "--pairs", "(1,1),(1,1)"], None, "--pairs"),
        (["partition", "--pairs", "(1,2)", "--density", "--horizon", "1"], None, "--horizon"),
        (["density", "--input", "/nonexistent/report.json"], None, "--input"),
        (["density", "--input", REPO_CONFIG], None, "--input"),
        (["certify", "--json", "/nonexistent/thresholds.json"], None, "--json"),
        (["run"], "[operatr]\nkind = translation\n", "section"),
        (["run"], "[debug]\ninject_bound_violation = false\n", "section"),
        (["run"], "[run]\nhorizn = 10\n", "key"),
        (["run"], "[run]\nprobes = -1\n", "probes"),
        (["run"], "[operator]\nkind = shift\nspace = hardy\n", "space"),
        (["run"], "[operator]\nkind = differentiation\nspace = lp\n", "space"),
        (["certify", "--op", "translation", "--space", "c0", "--p", "7"], None, "space"),
        (["certify", "--json", "{out}"], None, "--json"),
        (["run"], "[output]\ncsv = {out}\n", "csv"),
        (["partition", "--pairs", "(1,2)", "--csv", "{out}"], None, "--csv"),
        (["partition", "--pairs", "(1,2)", "--csv", "/nonexistent/members.csv"], None, "--csv"),
        (["partition", "--pairs", "(1.5,2)"], None, "--pairs"),
        (["partition", "--pairs", "(True,2)"], None, "--pairs"),
        (["partition", "--pairs", "(1,2)", "--horizon", "0"], None, "--horizon"),
        (["partition", "--pairs", "(1,2)", "--horizon", "-5"], None, "--horizon"),
        (["partition", "--pairs", "(1,2)", "--horizon", "0", "--csv", "{out}/m.csv"], None,
         "--horizon"),
        (["certify", "--op", "translation", "--w", "1", "--p", "7", "--k", "0", "--L", "1"],
         None, "key"),
        (["certify", "--op", "differentiation", "--k", "7", "--L", "1"], None, "key"),
        (["run"], "[operator]\nkind = translation\nw = 1\np = abc\n", "key"),
        (["certify", "--op", "differentiation", "--space", "ck", "--b", "inf"], None,
         "k, a, b"),
        (["run"], "[operator]\nkind = differentiation\nspace = ck\nb = inf\n", "k, a, b"),
        (["certify", "--op", "translation", "--lam", "1e400"], None, "lam"),
        (["run"], "[operator]\nkind = translation\nlam = 1e400\n", "lam"),
        (["semigroup", "--lam", "1e400"], None, "lam"),
        (["semigroup", "--lam", "1e300"], None, "lam"),
        (["certify", "--op", "differentiation", "--space", "ck", "--b", "1e15"], None,
         "k, a, b"),
        (["certify", "--op", "differentiation", "--space", "ck", "--b", "1e300"], None,
         "k, a, b"),
        (["run"], "[run]\ntargets = 2\nhorizon = 100\nradius_factor = inf\n",
         "radius_factor"),
        (["run"], "[operator]\nkind = translation\n[run]\ntargets = 1\nhorizon = 10\n"
         "mode = continuous\ngrid_step = inf\n", "grid_step"),
        (["certify", "--op", "shift", "--space", "lp", "--p", "inf"], None, "p"),
    ], ids=["w=1", "w=abc", "w=1e400", "lam=0", "ck-a>b", "rotate=2", "power=0", "L=0",
            "config-w=1/2", "config-p=abc", "config-horizon=abc", "config-w=2%",
            "config-w=1e400",
            "config-grid_step=0", "config-grid_step<0", "config-inject=maybe",
            "semigroup-lam=0", "semigroup-t=abc", "semigroup-s<0",
            "orbit-n-past-horizon", "orbit-n<0", "run-horizon-below-thresholds",
            "construct-horizon-below-thresholds", "orbit-horizon-below-thresholds",
            "pairs-l=0", "pairs-unclosed", "pairs-duplicate", "density-horizon=1",
            "input-missing", "input-not-json", "json-dir-missing",
            "config-section-operatr", "config-section-debug", "config-key-horizn",
            "config-probes<0", "shift-space-hardy", "differentiation-space-lp",
            "translation-space-c0", "json-is-dir", "config-csv-is-dir", "csv-is-dir",
            "csv-dir-missing", "pairs-float", "pairs-bool", "partition-horizon=0",
            "partition-horizon<0", "partition-horizon=0-csv", "translation-flags-w-p-k",
            "hardy-flag-k", "config-translation-w-p", "ck-b=inf", "config-ck-b=inf",
            "lam=1e400", "config-lam=1e400", "semigroup-lam=1e400", "semigroup-lam=1e300",
            "ck-b=1e15", "ck-b=1e300", "config-radius_factor=inf", "config-grid_step=inf",
            "lp-p=inf"])
    def test_bad_operator_or_run_value_exits_two(self, tmp_path, capsys, argv, body, key):
        argv = [arg.format(out=tmp_path) for arg in argv]
        if body is not None:
            body = body.format(out=tmp_path)
            argv = argv + ["--config", write_cfg(tmp_path, body)]
        assert main(argv) == 2
        assert f"bad {key} = " in capsys.readouterr().err

    def test_bad_partition_horizon_writes_no_csv(self, tmp_path, capsys):
        csv = tmp_path / "m.csv"
        assert main(["partition", "--pairs", "(1,2)", "--horizon", "-5", "--csv", str(csv)]) == 2
        assert "bad --horizon = -5: must be >= 1" in capsys.readouterr().err
        assert not csv.exists()

    @pytest.mark.parametrize("argv, body, message", [
        (["run"], "[operator]\nkind = translation\nw = 1\np = abc\n",
         "bad key = 'w': not read by kind translation"),
        (["certify", "--op", "differentiation", "--k", "7", "--L", "1"], None,
         "bad key = 'k': not read by kind differentiation on hardy"),
        (["certify", "--op", "shift", "--space", "c0", "--p", "3"], None,
         "bad key = 'p': not read by kind shift on c0"),
    ], ids=["translation-config", "hardy-flag", "c0-flag-p"])
    def test_key_the_operator_does_not_read_exits_two(self, tmp_path, capsys, argv, body,
                                                       message):
        if body is not None:
            argv = argv + ["--config", write_cfg(tmp_path, body)]
        assert main(argv) == 2
        assert message in capsys.readouterr().err


    @pytest.mark.parametrize("argv, body, message", [
        (["certify", "--op", "translation", "--lam", "710"], None,
         "the forward term norm at 1 is beyond the float range"),
        (["run"], "[operator]\nkind = translation\nlam = 1e300\n[run]\ntargets = 2\n"
         "horizon = 20\nmode = continuous\ngrid_step = 0.1\n",
         "the forward term norm at 1 is beyond the float range"),
        (["certify", "--op", "differentiation", "--space", "ck", "--b", "1e6", "--L", "1"],
         None, "the inverse term norm at 53 is beyond the float range"),
        (["certify", "--op", "differentiation", "--space", "ck", "--b", "1e11", "--L", "1"],
         None, "the inverse term norm at 30 is beyond the float range"),
        (["certify", "--op", "differentiation", "--space", "ck", "--b", "9e11",
          "--power", "26", "--L", "1"],
         None, "the inverse ratio bound at 1 is beyond the float range"),
    ], ids=["translation-lam=710", "continuous-lam=1e300", "ck-b=1e6", "ck-b=1e11",
            "ck-b=9e11-power=26"])
    def test_overflowing_term_norm_exits_two(self, tmp_path, capsys, argv, body, message):
        if body is not None:
            argv = argv + ["--config", write_cfg(tmp_path, body)]
        assert main(argv) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        (["--space", "ck", "--a", "1e10", "--b", "1.0001e10"],
         "the inverse term norm at 53 is beyond the float range"),
        (["--space", "ck", "--a", "1e20", "--b", "1.0000000000001e20"],
         "the inverse term norm at 46 is beyond the float range"),
        (["--power", "200"], "the inverse image of target 1 at 1 underflows to zero"),
        (["--power", "1000"], "the inverse image of target 1 at 1 underflows to zero"),
    ], ids=["ck-a=1e10", "ck-a=1e20", "power=200", "power=1000"])
    def test_runaway_differentiation_exits_two_in_bounded_work(self, monkeypatch, capsys,
                                                                flags, message):
        # far from the origin, C^k values stored in u = x - a do not cancel, so the
        # grid searches skip blocks until the Lipschitz sum overflows; B^(rN) 1
        # underflows to 0.0 at every N, so no N can pass.  Counters, not wall
        # time, bound the work
        work = {}

        def bound(module, name, limit, size):
            original = getattr(module, name)

            def counted(*args):
                work[name] = work.get(name, 0) + size(args)
                assert work[name] <= limit, f"{name} past {limit}"
                return original(*args)

            monkeypatch.setattr(module, name, counted)

        bound(spaces, "_polyval", 10**6, lambda args: len(args[1]))  # grid values
        bound(criterion, "apply_inverse", 100, lambda args: 1)  # inverse images
        assert main(["certify", "--op", "differentiation", *flags, "--L", "1"]) == 2
        assert message in capsys.readouterr().err


class TestOperatorParser:
    @pytest.mark.parametrize("flags, section, L", [
        (["--op", "shift", "--w", "2"], "kind = shift\nw = 2\n", 3),
        (["--op", "shift", "--space", "c0", "--w", "3/2"],
         "kind = shift\nspace = c0\nw = 3/2\n", 2),
        (["--op", "differentiation", "--space", "hardy"],
         "kind = differentiation\nspace = hardy\n", 3),
        (["--op", "differentiation", "--space", "ck", "--k", "3", "--a", "-1", "--b", "1"],
         "kind = differentiation\nspace = ck\nk = 3\na = -1\nb = 1\n", 1),
        (["--op", "translation", "--lam", "1/2"], "kind = translation\nlam = 1/2\n", 1),
    ], ids=["shift-lp", "shift-c0", "hardy", "c3", "translation"])
    def test_flags_and_config_give_the_same_certificate(self, tmp_path, flags, section, L):
        args = build_parser().parse_args(["certify", *flags, "--L", str(L)])
        cfg = write_cfg(tmp_path, f"[operator]\n{section}[run]\ntargets = {L}\n")
        assert _cert_from_args(args) == build_certificate(load_config(cfg))
