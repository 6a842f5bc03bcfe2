"""End-to-end runner: subcommands, config validation, determinism, exit codes."""

import configparser
import io
import os

import pytest

from fhclab import cli, regularized_semigroup, verifier
from fhclab.cli import (
    ConfigError,
    _cert_from_args,
    build_certificate,
    build_parser,
    load_config,
    main,
    run_pipeline,
)

REPO_CONFIG = os.path.join(os.path.dirname(__file__), "..", "configs", "shift_w2.cfg")


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

    def test_certify_transformed_operator(self, capsys):
        assert main(["certify", "--op", "shift", "--w", "2", "--L", "1",
                     "--power", "2"]) == 0
        assert "N_1 = 1" in capsys.readouterr().out

    @pytest.mark.parametrize("flags, thresholds", [
        (["--k", "3", "--a", "-1", "--b", "1", "--L", "1"], ["N_1 = 8"]),
        (["--k", "2", "--a", "0.5", "--b", "2", "--L", "2"], ["N_1 = 6", "N_2 = 7"]),
    ], ids=["c3[-1,1]", "c2[0.5,2]"])
    def test_certify_ck_off_origin(self, capsys, flags, thresholds):
        # the antiderivative's Taylor shift to the base point a != 0 must keep N_l
        assert main(["certify", "--op", "differentiation", "--space", "ck", *flags]) == 0
        out = capsys.readouterr().out
        assert [line.split("  ")[0] for line in out.splitlines()] == thresholds

    def test_semigroup_reports_zero_law_residual(self, capsys):
        assert main(["semigroup"]) == 0
        out = capsys.readouterr().out
        assert "residual at (t,s)=(1,1)" in out and ": 0.0" in out

    def test_orbit_command(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SMALL_RUN.format(out=tmp_path))
        assert main(["orbit", "--config", cfg, "--n", "3"]) == 0
        assert "distance to y_1" in capsys.readouterr().out

    def test_construct_command(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SMALL_RUN.format(out=tmp_path))
        assert main(["construct", "--config", cfg]) == 0
        assert "backward window" in capsys.readouterr().out


class TestRun:
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
        calls = []
        real = verifier.orbit_eval

        def counted(p, n):
            calls.append(n)
            return real(p, n)

        monkeypatch.setattr(verifier, "orbit_eval", counted)
        monkeypatch.setattr(cli, "orbit_eval", counted)
        cfg = write_cfg(tmp_path, SMALL_RUN.format(out=tmp_path))
        run_pipeline(load_config(cfg), out=io.StringIO())
        assert calls == list(range(1, 101))

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
        cp = load_config(REPO_CONFIG)
        assert cp.getint("run", "targets") == 5

    def test_percent_in_a_value_is_plain_text(self, tmp_path):
        cfg = write_cfg(tmp_path, "[output]\ncsv = 100%.csv\n")
        assert load_config(cfg).get("output", "csv") == "100%.csv"


class TestFailureModes:
    def test_injected_violation_exits_one(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SMALL_RUN.format(out=tmp_path)
                        + "\n[debug]\ninject_bound_violation = true\n")
        assert main(["run", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert "INVARIANT FAILED" in err and "orbit proximity" in err

    def test_injected_violation_without_scheduled_times_exits_one(self, tmp_path, capsys):
        # A(1, N_1) starts at n = 3, past the horizon: no scheduled distance to compare
        body = "[operator]\nkind = shift\nw = 2\n\n[run]\ntargets = 1\nhorizon = 2\n"
        assert main(["run", "--config", write_cfg(tmp_path, body)]) == 0
        cfg = write_cfg(tmp_path, body + "\n[debug]\ninject_bound_violation = true\n")
        assert main(["run", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert "INVARIANT FAILED" in err and "[injected]" in err

    def test_injected_continuous_violation_exits_one(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, CONTINUOUS_RUN.format(out=tmp_path)
                        + "\n[debug]\ninject_bound_violation = true\n")
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
        (["run"], "[run]\nmode = continuous\ngrid_step = 0\n", "grid_step"),
        (["run"], "[run]\ngrid_step = -0.1\n", "grid_step"),
        (["run"], "[debug]\ninject_bound_violation = maybe\n", "inject_bound_violation"),
        (["semigroup", "--lam", "0"], None, "lam"),
        (["semigroup", "--t", "abc"], None, "t"),
        (["semigroup", "--s", "-1"], None, "s"),
        (["orbit", "--n", "99999"], SMALL_RUN, "n"),
        (["orbit", "--n", "-1"], SMALL_RUN, "n"),
    ], ids=["w=1", "w=abc", "lam=0", "ck-a>b", "rotate=2", "power=0", "L=0",
            "config-w=1/2", "config-p=abc", "config-horizon=abc", "config-w=2%",
            "config-grid_step=0", "config-grid_step<0", "config-inject=maybe",
            "semigroup-lam=0", "semigroup-t=abc", "semigroup-s<0",
            "orbit-n-past-horizon", "orbit-n<0"])
    def test_bad_operator_or_run_value_exits_two(self, tmp_path, capsys, argv, body, key):
        if body is not None:
            body = body.format(out=tmp_path)
            argv = argv + ["--config", write_cfg(tmp_path, body)]
        assert main(argv) == 2
        assert f"bad {key} = " in capsys.readouterr().err


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
