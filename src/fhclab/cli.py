"""Reproducible experiment runner.

Config files are INI text (configparser) with sections [operator], [run],
[output], and optionally [debug]; see configs/shift_w2.cfg for the schema
with all defaults.  The output directory can be overridden with the
FHCLAB_OUTPUT_DIR environment variable.

Exit codes: 0 success, 1 a certified invariant failed, 2 config error.
"""

from __future__ import annotations

import argparse
import ast
import configparser
import json
import os
import sys
from fractions import Fraction

from .constructor import assign_placements, materialize, orbit_eval, proximity_bound
from .criterion import CertificationError, compute_thresholds, unconditional_probe
from .density_partition import PairKey, build_schedule
from .operators import (
    Differentiation,
    TranslationGenerator,
    WeightedBackwardShift,
    make_certificate,
    transform_power,
    transform_rotation,
)
from .regularized_semigroup import (
    RegularizedSemigroup,
    SolutionOrbit,
    generator_residual,
    semigroup_law_residual,
)
from .spaces import (
    C0_SEQ,
    CkModel,
    HARDY,
    PiecewiseLinearFn,
    PolySeries,
    SequenceSpace,
    distance,
)
from .verifier import continuous_visits, discrete_report, report_export, report_import


class ConfigError(Exception):
    pass


class InvariantFailure(Exception):
    """Carries the name of the violated invariant."""


# --------------------------------------------------------------------------
# config


DEFAULTS = {
    "operator": {"kind": "shift", "w": "2", "space": "lp", "p": "2",
                 "lam": "1", "k": "3", "a": "0", "b": "1"},
    "run": {"targets": "5", "horizon": "1000", "radius_factor": "1.2",
            "seed": "0", "mode": "discrete", "precision": "float",
            "grid_step": "0.05", "probes": "0"},
    "output": {"dir": ".", "csv": "", "json": ""},
    "debug": {"inject_bound_violation": "false"},
}


def _parsed(key: str, text, parse):
    """parse(text), with a bad value reported as a ConfigError naming its key."""
    try:
        return parse(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad {key} = {text!r}: {exc}") from exc


def _defaults() -> configparser.ConfigParser:
    # no %(...)s interpolation: a '%' in a value is just a character
    cp = configparser.ConfigParser(interpolation=None)
    cp.read_dict(DEFAULTS)
    return cp


def load_config(path: str) -> configparser.ConfigParser:
    cp = _defaults()
    try:
        with open(path) as fh:
            cp.read_file(fh, source=path)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        # configparser messages already carry file/line diagnostics
        raise ConfigError(str(exc)) from exc
    run = {key: _parsed(key, cp.get("run", key), parse)
           for key, parse in (("targets", int), ("horizon", int), ("seed", int),
                              ("probes", int), ("radius_factor", float), ("grid_step", float))}
    if not run["radius_factor"] > 1:
        raise ConfigError(f"radius_factor must be > 1, got {run['radius_factor']}")
    if run["targets"] < 1 or run["horizon"] < 1:
        raise ConfigError("targets and horizon must be >= 1")
    if not run["grid_step"] > 0:
        raise ConfigError(f"bad grid_step = {cp.get('run', 'grid_step')!r}: must be > 0")
    _parsed("inject_bound_violation", cp.get("debug", "inject_bound_violation"),
            lambda _: cp.getboolean("debug", "inject_bound_violation"))
    if cp.get("run", "mode") not in ("discrete", "continuous"):
        raise ConfigError("mode must be 'discrete' or 'continuous'")
    if cp.get("run", "precision") not in ("float", "rational"):
        raise ConfigError("precision must be 'float' or 'rational'")
    return cp


def _scalar(text: str, exact: bool):
    if exact:
        return Fraction(text)
    f = Fraction(text)
    return int(f) if f.denominator == 1 else float(f)


def build_operator(cp: configparser.ConfigParser, exact: bool):
    """The operator of the [operator] section; the one parser of operator values."""
    sec = cp["operator"]
    kind = sec["kind"]
    if kind == "shift":
        if sec["space"] == "c0":
            space = C0_SEQ
        else:
            space = _parsed("p", sec["p"], lambda t: SequenceSpace("lp", float(t)))
        return _parsed("w", sec["w"], lambda t: WeightedBackwardShift(_scalar(t, exact), space))
    if kind == "differentiation":
        if sec["space"] != "ck":
            return Differentiation(HARDY)
        kab = (_parsed("k", sec["k"], int), _parsed("a", sec["a"], float),
               _parsed("b", sec["b"], float))
        return Differentiation(_parsed("k, a, b", kab, lambda t: CkModel(*t)))
    if kind == "translation":
        return _parsed("lam", sec["lam"], lambda t: TranslationGenerator(_scalar(t, True)))
    raise ConfigError(f"unknown operator kind {kind!r}")


def build_certificate(cp: configparser.ConfigParser):
    exact = cp.get("run", "precision") == "rational"
    op = build_operator(cp, exact)
    return make_certificate(op, cp.getint("run", "targets"), exact=exact)


def build_placements(cp: configparser.ConfigParser):
    """Placements up to 2 * horizon over the certified thresholds N_l.

    Raises ConfigError when the placement horizon is below the largest N_l.
    """
    tc = compute_thresholds(build_certificate(cp))
    N = cp.getint("run", "horizon")
    largest = max(N_l for _, N_l in tc.pairs())
    if 2 * N < largest:
        raise ConfigError(f"bad horizon = {N}: placements run to 2 * horizon = {2 * N}, "
                          f"below the largest threshold N_l = {largest}")
    return assign_placements(tc, horizon=2 * N)


def output_paths(cp: configparser.ConfigParser):
    """(csv path, json path), None where not requested.

    Raises ConfigError when an output is requested and its directory, after
    the FHCLAB_OUTPUT_DIR override, does not exist.
    """
    out_dir = os.environ.get("FHCLAB_OUTPUT_DIR") or cp.get("output", "dir")
    csv_name = cp.get("output", "csv")
    json_name = cp.get("output", "json")
    if (csv_name or json_name) and not os.path.isdir(out_dir):
        raise ConfigError(f"bad output dir = {out_dir!r}: not an existing directory")
    csv_path = os.path.join(out_dir, csv_name) if csv_name else None
    json_path = os.path.join(out_dir, json_name) if json_name else None
    return csv_path, json_path


# --------------------------------------------------------------------------
# pipeline


def run_pipeline(cp: configparser.ConfigParser, out=sys.stdout):
    csv_path, json_path = output_paths(cp)
    p = build_placements(cp)
    cert, tc = p.cert, p.tail_certificate
    print("thresholds:", tc.pairs(), file=out)

    N = cp.getint("run", "horizon")
    factor = cp.getfloat("run", "radius_factor")
    inject = cp.getboolean("debug", "inject_bound_violation")
    mode = cp.get("run", "mode")

    if mode == "continuous" and not isinstance(cert.op, TranslationGenerator):
        raise ConfigError("continuous mode requires the translation operator")
    epsilons = {l: factor * proximity_bound(l) for l in range(1, cert.target_count + 1)}
    if mode == "continuous":
        reports = continuous_visits(SolutionOrbit(p), epsilons, float(N),
                                    cp.getfloat("run", "grid_step"))
        for rep in reports:
            floor = rep.continuity_window * len(rep.visit_times)
            print(f"l={rep.l}: delta={rep.continuity_window:.4f} "
                  f"inner={rep.inner_measure:.3f} (needs >= {floor:.3f})", file=out)
            if not rep.covering_set_check or inject:
                raise InvariantFailure(
                    "continuous-visit inner measure >= window * integer visits"
                    + (" [injected]" if inject else ""))
    else:
        reports = discrete_report(p, epsilons, N)
        for rep in reports:
            if inject or rep.worst_scheduled > rep.proof_bound:
                raise InvariantFailure(
                    f"orbit proximity <= 5/2^l, l={rep.l}: worst scheduled "
                    f"distance {rep.worst_scheduled!r}"
                    + (" [injected]" if inject else ""))
            if not rep.covering_set_check:
                raise InvariantFailure(f"scheduled visits covered, l={rep.l}")
            print(f"l={rep.l}: visits={len(rep.visit_times)} "
                  f"density_floor={rep.density_floor:.4f} "
                  f"bound={rep.proof_bound:.6f}", file=out)

        probes = cp.getint("run", "probes")
        if probes:
            seed = cp.getint("run", "seed")
            for l in range(1, cert.target_count + 1):
                rec = tc.records[l - 1]
                worst = unconditional_probe(cert, cert.target(l), rec.N,
                                            trials=probes, seed=seed + l)
                if worst > rec.inverse_tail_bound:
                    raise InvariantFailure(f"sub-sum probe under certified tail, l={l}")
            print(f"probes: {probes} random sub-sums per target within bounds", file=out)

    if csv_path or json_path:
        report_export(reports, csv_path, json_path)
        for path in (csv_path, json_path):
            if path:
                print("wrote", path, file=out)
    return reports


# --------------------------------------------------------------------------
# subcommands


def _parse_pairs(text: str):
    try:
        raw = ast.literal_eval(text if text.strip().startswith("[") else f"[{text}]")
        return [PairKey(int(l), int(nu)) for l, nu in raw]
    except (SyntaxError, TypeError) as exc:
        raise ValueError(f"expected (l, nu) pairs: {exc}") from exc


def cmd_partition(args):
    sched = _parsed("--pairs", args.pairs, lambda t: build_schedule(_parse_pairs(t)))
    if args.density and args.horizon < 2:
        raise ConfigError(f"bad --horizon = {args.horizon}: --density needs horizon >= 2")
    for key in sched.ranked:
        members = sched.members(key, args.horizon)
        print(f"A({key.l},{key.nu}) on [1,{args.horizon}]: {members}")
        if args.density:
            start = max(1, args.horizon // 10)
            print(f"  density floor: {sched.density_floor(key, start, args.horizon):.6f} "
                  f"(analytic {sched.analytic_density(key):.6f})")
    if args.csv:
        sched.export_csv(args.csv, args.horizon)
        print("wrote", args.csv)
    return 0


def _add_op_flags(sub):
    # one flag per [operator] key (--op is "kind"); unset flags keep DEFAULTS
    sub.add_argument("--op", dest="kind",
                     choices=["shift", "differentiation", "translation"])
    sub.add_argument("--w", help="shift weight base, |w| > 1")
    sub.add_argument("--space", choices=["lp", "c0", "hardy", "ck"])
    sub.add_argument("--p")
    sub.add_argument("--lam", help="translation growth rate")
    sub.add_argument("--k")
    sub.add_argument("--a")
    sub.add_argument("--b")
    sub.add_argument("--L", type=int, default=1, help="number of targets")
    sub.add_argument("--rotate", default=None, help="unit scalar twist, e.g. -1 or 1j")
    sub.add_argument("--power", type=int, default=None, help="certify A^r instead")


def _cert_from_args(args):
    cp = _defaults()
    for key in DEFAULTS["operator"]:
        value = getattr(args, key)
        if value is not None:
            _parsed(key, value, lambda t: cp.set("operator", key, t))
    op = build_operator(cp, exact=False)
    cert = _parsed("--L", args.L, lambda L: make_certificate(op, L))
    if args.rotate is not None:
        cert = _parsed("--rotate", args.rotate, lambda t: transform_rotation(
            cert, complex(t) if "j" in t else Fraction(t)))
    if args.power is not None:
        cert = _parsed("--power", args.power, lambda r: transform_power(cert, r))
    return cert


def cmd_certify(args):
    cert = _cert_from_args(args)
    if args.json and not os.path.isdir(os.path.dirname(args.json) or "."):
        raise ConfigError(f"bad --json = {args.json!r}: its directory does not exist")
    tc = compute_thresholds(cert)
    for l, N in tc.pairs():
        rec = tc.records[l - 1]
        print(f"N_{l} = {N}  (forward {rec.forward_tail_bound:.3e}, "
              f"inverse {rec.inverse_tail_bound:.3e}, "
              f"own tail {rec.target_tail_bound:.3e})")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(tc.to_json_dict(), fh, indent=2)
        print("wrote", args.json)
    return 0


def cmd_construct(args):
    p = build_placements(load_config(args.config))
    vec, tail = materialize(p, p.horizon)
    print(f"placements on [1,{p.horizon}]: {len(p.placed_ns)}")
    print(f"backward window {p.backward_window}, certified tail {tail:.3e}")
    print("||x|| =", vec.norm())
    return 0


def cmd_orbit(args):
    cp = load_config(args.config)
    N = cp.getint("run", "horizon")
    # past N the backward window shrinks and the error bar outgrows the distances
    if not 0 <= args.n <= N:
        raise ConfigError(f"bad n = {args.n}: must lie in [0, {N}] (the run horizon)")
    p = build_placements(cp)
    vec, err = orbit_eval(p, args.n)
    print(f"n={args.n}  ||orbit|| = {vec.norm():.6f}  certified error {err:.3e}")
    for l in range(1, p.cert.target_count + 1):
        d = distance(vec, p.cert.target(l))
        mark = " <= 5/2^l" if d + err <= proximity_bound(l) else ""
        print(f"  distance to y_{l}: {d:.6f}{mark}")
    return 0


def cmd_density(args):
    try:
        reports = report_import(args.input)
    except (OSError, ValueError, TypeError) as exc:
        # a missing file, text that is not JSON, or JSON that is not a report list
        raise ConfigError(f"bad --input = {args.input!r}: {exc}") from exc
    print(f"{'l':>3} {'epsilon':>12} {'visits':>8} {'density_floor':>14} {'covering':>9}")
    for rep in reports:
        print(f"{rep.l:>3} {rep.epsilon:>12.6f} {len(rep.visit_times):>8} "
              f"{rep.density_floor:>14.6f} {str(rep.covering_set_check):>9}")
    return 0


def _time(text: str) -> Fraction:
    t = Fraction(text)
    if t < 0:
        raise ValueError("must be >= 0")
    return t


def cmd_semigroup(args):
    sg = _parsed("lam", args.lam, lambda t: RegularizedSemigroup(lam=Fraction(t)))
    t, s = _parsed("t", args.t, _time), _parsed("s", args.s, _time)
    tent = PiecewiseLinearFn.tent(Fraction(0), Fraction(1), Fraction(2), Fraction(1))
    res = semigroup_law_residual(sg, t, s, tent)
    print(f"semigroup law residual at (t,s)=({args.t},{args.s}) on the unit tent: {res}")
    bump = PolySeries((0, 0, 1, -2, 1), HARDY)  # x^2 (1-x)^2 on [0,1]
    for h in (1e-2, 1e-3, 1e-4):
        print(f"generator residual at t_step={h:g}: "
              f"{generator_residual(sg, bump, h):.6e}")
    return 0


def cmd_run(args):
    cp = load_config(args.config)
    run_pipeline(cp)
    print("all certified invariants hold")
    return 0


def build_parser():
    ap = argparse.ArgumentParser(
        prog="fhclab",
        description="Construct and verify frequently hypercyclic vectors "
                    "for unbounded operators.")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("partition", help="positive-lower-density disjoint sets")
    sp.add_argument("--pairs", required=True, help='e.g. "(1,2)" or "(1,1),(1,2)"')
    sp.add_argument("--horizon", type=int, default=100)
    sp.add_argument("--density", action="store_true")
    sp.add_argument("--csv", default=None)
    sp.set_defaults(func=cmd_partition)

    sp = sub.add_parser("certify", help="compute criterion thresholds N_l")
    _add_op_flags(sp)
    sp.add_argument("--json", default=None)
    sp.set_defaults(func=cmd_certify)

    sp = sub.add_parser("construct", help="materialize the orbit vector")
    sp.add_argument("--config", required=True)
    sp.set_defaults(func=cmd_construct)

    sp = sub.add_parser("orbit", help="evaluate one orbit point")
    sp.add_argument("--config", required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.set_defaults(func=cmd_orbit)

    sp = sub.add_parser("density", help="print the density-floor table of a report")
    sp.add_argument("--input", required=True)
    sp.set_defaults(func=cmd_density)

    sp = sub.add_parser("semigroup", help="semigroup law and generator checks")
    sp.add_argument("--lam", default="1")
    sp.add_argument("--t", default="1")
    sp.add_argument("--s", default="1")
    sp.set_defaults(func=cmd_semigroup)

    sp = sub.add_parser("run", help="full certify-schedule-construct-verify pipeline")
    sp.add_argument("--config", required=True)
    sp.set_defaults(func=cmd_run)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, CertificationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except InvariantFailure as exc:
        print(f"INVARIANT FAILED: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
