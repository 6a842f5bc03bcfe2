"""Reproducible experiment runner.

Config files are INI text (configparser) with the sections [operator], [run]
and [output]; SCHEMA names every key a config may set, with its default, and
anything else is a config error.  The output directory can be overridden with
the FHCLAB_OUTPUT_DIR environment variable.

Exit codes: 0 success, 1 a certified invariant failed, 2 config error or
certification failure (stderr starts "config error:" or "certification failed:").
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import re
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
from .regularized_semigroup import SolutionOrbit, generator_residual, semigroup_law_residual
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


def _parsed(key: str, text, parse):
    """parse(text), with a bad value reported as a ConfigError naming its key."""
    try:
        return parse(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad {key} = {text!r}: {exc}") from exc


def _checked(parse, ok, cause: str):
    """parse, then reject a value v with ok(v) false for the stated cause."""
    def checked(text: str):
        if not ok(value := parse(text)):
            raise ValueError(cause)
        return value
    return checked


def _one_of(*names: str):
    return _checked(str, names.__contains__, f"not one of {', '.join(names)}")


_COUNT = _checked(int, lambda n: n >= 1, "must be >= 1")
_LP_EXPONENT = _checked(float, lambda p: p != math.inf, "l_p requires p < inf: c0 is space = c0")

# The whole config schema: section -> key -> (default text, parser that also
# checks the value).  [operator] values stay text for build_operator, which
# knows the kind, the space and the precision; a key the config leaves out is
# None there, and _OPERATORS holds the operator's defaults.
SCHEMA = {
    "operator": {"kind": ("shift", str), **{key: (None, lambda text: text) for key in (
        "w", "space", "p", "lam", "k", "a", "b")}},
    "run": {"targets": ("5", _COUNT), "horizon": ("1000", _COUNT), "seed": ("0", int),
            "radius_factor": ("1.2", _checked(float, lambda x: 1 < x < math.inf,
                                              "must be finite and > 1")),
            "grid_step": ("0.05", _checked(float, lambda x: 0 < x < math.inf,
                                           "must be finite and > 0")),
            "probes": ("0", _checked(int, lambda n: n >= 0, "must be >= 0")),
            "mode": ("discrete", _one_of("discrete", "continuous")),
            "precision": ("float", _one_of("float", "rational"))},
    "output": {"dir": (".", str), "csv": ("", str), "json": ("", str)},
}


def load_config(path: str) -> dict:
    """{section: {key: parsed value}} for every key of SCHEMA, else a ConfigError."""
    # no %(...)s interpolation: a '%' in a value is just a character; no
    # default section either: [DEFAULT] is a section SCHEMA does not name
    cp = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        with open(path) as fh:
            cp.read_file(fh, source=path)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        # configparser messages already carry file/line diagnostics
        raise ConfigError(str(exc)) from exc
    for section in cp.sections():
        if section not in SCHEMA:
            raise ConfigError(f"bad section = {section!r}: not one of {', '.join(SCHEMA)}")
        for key in cp[section]:
            if key not in SCHEMA[section]:
                raise ConfigError(f"bad key = {key!r}: not a key of [{section}]")
    return {section: {key: _parsed(key, cp.get(section, key, fallback=default), parse)
                      for key, (default, parse) in keys.items()}
            for section, keys in SCHEMA.items()}


def _scalar(text: str, exact: bool):
    f = Fraction(text)
    if exact:
        return f
    if abs(f) > sys.float_info.max:  # a float run would overflow on its first power
        raise ValueError("beyond the float range")
    return int(f) if f.denominator == 1 else float(f)


# kind -> the spaces it takes, its default first -> the keys its operator
# reads, with their defaults; translation takes no space.  The one place
# operator parameters get defaults: the operator classes take every value.
_OPERATORS = {
    "shift": {"lp": {"w": "2", "p": "2"}, "c0": {"w": "2"}},
    "differentiation": {"hardy": {}, "ck": {"k": "3", "a": "0", "b": "1"}},
    "translation": {None: {"lam": "1"}},
}


def build_operator(sec: dict, exact: bool):
    """The operator of an [operator] section; the one parser of operator values.

    A key that is set (not None) but not read by the kind and space is an error.
    """
    kind = sec["kind"]
    if kind not in _OPERATORS:
        raise ConfigError(f"bad kind = {kind!r}: not one of {', '.join(_OPERATORS)}")
    spaces = _OPERATORS[kind]
    space = sec["space"] or next(iter(spaces))
    if space not in spaces:
        raise ConfigError(f"bad space = {space!r}: kind {kind} takes "
                          + (" or ".join(filter(None, spaces)) or "no space"))
    for key, text in sec.items():
        if text is not None and key not in ("kind", "space", *spaces[space]):
            raise ConfigError(f"bad key = {key!r}: not read by kind {kind}"
                              + (f" on {space}" if space else ""))
    sec = {**spaces[space], **{key: text for key, text in sec.items() if text is not None}}
    if kind == "shift":
        space = C0_SEQ if space == "c0" else _parsed(
            "p", sec["p"], lambda t: SequenceSpace(_LP_EXPONENT(t)))
        return _parsed("w", sec["w"], lambda t: WeightedBackwardShift(_scalar(t, exact), space))
    if kind == "differentiation":
        if space != "ck":
            return Differentiation(HARDY)
        kab = (_parsed("k", sec["k"], int), _parsed("a", sec["a"], float),
               _parsed("b", sec["b"], float))
        return Differentiation(_parsed("k, a, b", kab, lambda t: CkModel(*t)))
    return _parsed("lam", sec["lam"], lambda t: TranslationGenerator(_scalar(t, True)))


def build_certificate(cfg: dict):
    exact = cfg["run"]["precision"] == "rational"
    op = build_operator(cfg["operator"], exact)
    return make_certificate(op, cfg["run"]["targets"], exact=exact)


def build_placements(cfg: dict):
    """Placements up to 2 * horizon over the certified thresholds N_l.

    Raises ConfigError when the placement horizon is below the largest N_l.
    """
    tc = compute_thresholds(build_certificate(cfg))
    N = cfg["run"]["horizon"]
    largest = max(N_l for _, N_l in tc.pairs())
    if 2 * N < largest:
        raise ConfigError(f"bad horizon = {N}: placements run to 2 * horizon = {2 * N}, "
                          f"below the largest threshold N_l = {largest}")
    return assign_placements(tc, horizon=2 * N)


def _output_file(flag: str, path: str) -> str:
    """path, once a writer can create it: its directory exists, it is no directory."""
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise ConfigError(f"bad {flag} = {path!r}: its directory does not exist")
    if os.path.isdir(path):
        raise ConfigError(f"bad {flag} = {path!r}: is a directory")
    return path


def output_paths(cfg: dict):
    """(csv path, json path), None where not requested, each checked by _output_file
    after the output directory ($FHCLAB_OUTPUT_DIR, else dir) is checked to exist."""
    out = cfg["output"]
    out_dir = os.environ.get("FHCLAB_OUTPUT_DIR") or out["dir"]
    if (out["csv"] or out["json"]) and not os.path.isdir(out_dir):
        raise ConfigError(f"bad output dir = {out_dir!r}: not an existing directory")
    return tuple(_output_file(key, os.path.join(out_dir, out[key])) if out[key] else None
                 for key in ("csv", "json"))


# --------------------------------------------------------------------------
# pipeline


# The most cells a continuous run sweeps.  Each cell costs at most about 31 us (the
# translation_bridge benchmark runs a pipeline that sweeps 800 cells in about 0.025 s,
# at bench/run.py's reference machine speed), so the cap is under a minute of sweep;
# a finer grid is refused before anything is certified.
_CELL_CAP = 10**6


def run_pipeline(cfg: dict, out):
    run = cfg["run"]
    N, mode = run["horizon"], run["mode"]
    if mode == "continuous":
        if cfg["operator"]["kind"] != "translation":
            raise ConfigError("bad mode = 'continuous': needs kind translation")
        # ceil(N / grid_step) > _CELL_CAP exactly when the quotient is, which may be inf
        cells = N / run["grid_step"]
        if cells > _CELL_CAP:
            raise ConfigError(f"bad grid_step = {run['grid_step']!r}: {cells:.4g} cells, "
                              f"more than {_CELL_CAP}")
    csv_path, json_path = output_paths(cfg)
    p = build_placements(cfg)
    cert, tc = p.cert, p.tail_certificate
    print("thresholds:", tc.pairs(), file=out)

    epsilons = {l: run["radius_factor"] * proximity_bound(l)
                for l in range(1, cert.target_count + 1)}
    if mode == "continuous":
        reports = continuous_visits(SolutionOrbit(p), epsilons, float(N), run["grid_step"])
        for rep in reports:
            floor = rep.continuity_window * len(rep.visit_times)
            print(f"l={rep.l}: delta={rep.continuity_window:.4f} "
                  f"inner={rep.inner_measure:.3f} (needs >= {floor:.3f})", file=out)
            if not rep.covering_set_check:
                raise InvariantFailure(
                    "continuous-visit inner measure >= window * integer visits")
    else:
        reports = discrete_report(p, epsilons, N)
        for rep in reports:
            if rep.worst_scheduled > rep.proof_bound:
                raise InvariantFailure(
                    f"orbit proximity <= 5/2^l, l={rep.l}: worst scheduled "
                    f"distance {rep.worst_scheduled!r}")
            if not rep.covering_set_check:
                raise InvariantFailure(f"scheduled visits covered, l={rep.l}")
            print(f"l={rep.l}: visits={len(rep.visit_times)} "
                  f"density_floor={rep.density_floor:.4f} "
                  f"bound={rep.proof_bound:.6f}", file=out)

    # the probes test the certificate's tails, not the sweep: both modes run them
    if run["probes"]:
        for l in range(1, cert.target_count + 1):
            rec = tc.records[l - 1]
            worst = unconditional_probe(cert, cert.target(l), rec.N,
                                        trials=run["probes"], seed=run["seed"] + l,
                                        term=lambda n, l=l: tc.term(l, n, "inverse"))
            if worst > rec.inverse_tail_bound:
                raise InvariantFailure(f"sub-sum probe under certified tail, l={l}")
        print(f"probes: {run['probes']} random sub-sums per target within bounds", file=out)

    if csv_path or json_path:
        report_export(reports, csv_path, json_path)
        for path in (csv_path, json_path):
            if path:
                print("wrote", path, file=out)
    return reports


# --------------------------------------------------------------------------
# subcommands


_PAIR = r"\(\s*([+-]?[0-9]+)\s*,\s*([+-]?[0-9]+)\s*\)"  # (l, nu), two integers


def _parse_pairs(text: str):
    """The pairs of "(l, nu), (l, nu), ...", in brackets or not; a trailing comma is allowed."""
    body = text.strip()
    if body.startswith("[") and body.endswith("]"):
        body = body[1:-1]
    if not re.fullmatch(rf"\s*(?:{_PAIR}\s*,\s*)*(?:{_PAIR}\s*)?", body):
        raise ValueError("expected (l, nu) pairs of integers")
    return [PairKey(int(l), int(nu)) for l, nu in re.findall(_PAIR, body)]


def cmd_partition(args):
    _parsed("--horizon", args.horizon, _COUNT)
    if args.csv:
        _output_file("--csv", args.csv)
    sched = _parsed("--pairs", args.pairs, lambda t: build_schedule(_parse_pairs(t)))
    if args.density and args.horizon < 2:
        raise ConfigError(f"bad --horizon = {args.horizon}: --density needs horizon >= 2")
    for key in sched.ranked:
        members = sched.members(key, args.horizon)
        print(f"A({key.l},{key.nu}) on [1,{args.horizon}]: {members}")
        if args.density:
            print(f"  density floor: {sched.density_floor(key, args.horizon):.6f} "
                  f"(analytic {sched.analytic_density(key):.6f})")
    if args.csv:
        sched.export_csv(args.csv, args.horizon)
        print("wrote", args.csv)
    return 0


def _add_op_flags(sub):
    # one flag per [operator] key (--op is "kind"); unset flags keep SCHEMA's defaults
    sub.add_argument("--op", dest="kind", choices=list(_OPERATORS))
    sub.add_argument("--w", help="shift weight base, |w| > 1")
    sub.add_argument("--space", choices=[s for spaces in _OPERATORS.values()
                                         for s in spaces if s])
    sub.add_argument("--p")
    sub.add_argument("--lam", help="translation growth rate")
    sub.add_argument("--k")
    sub.add_argument("--a")
    sub.add_argument("--b")
    sub.add_argument("--L", type=int, default=1, help="number of targets")
    sub.add_argument("--rotate", default=None, help="unit scalar twist, e.g. -1 or 1j")
    sub.add_argument("--power", type=int, default=None, help="certify A^r instead")


def _cert_from_args(args):
    sec = {key: default for key, (default, _) in SCHEMA["operator"].items()}
    sec.update((key, getattr(args, key)) for key in sec if getattr(args, key) is not None)
    op = build_operator(sec, exact=False)
    cert = _parsed("--L", args.L, lambda L: make_certificate(op, L))
    if args.rotate is not None:
        cert = _parsed("--rotate", args.rotate, lambda t: transform_rotation(
            cert, complex(t) if "j" in t else Fraction(t)))
    if args.power is not None:
        cert = _parsed("--power", args.power, lambda r: transform_power(cert, r))
    return cert


def cmd_certify(args):
    if args.json:
        _output_file("--json", args.json)
    cert = _cert_from_args(args)
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
    vec, tail = materialize(p)
    print(f"placements on [1,{p.horizon}]: {len(p.placed_ns)}")
    print(f"backward window {p.backward_window}, certified tail {tail:.3e}")
    print("||x|| =", vec.norm())
    return 0


def cmd_orbit(args):
    cfg = load_config(args.config)
    N = cfg["run"]["horizon"]
    # past N the backward window shrinks and the error bar outgrows the distances
    if not 0 <= args.n <= N:
        raise ConfigError(f"bad n = {args.n}: must lie in [0, {N}] (the run horizon)")
    p = build_placements(cfg)
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


def cmd_semigroup(args):
    op = build_operator({**dict.fromkeys(SCHEMA["operator"]), "kind": "translation",
                         "lam": args.lam}, exact=True)
    steps = (1e-2, 1e-3, 1e-4)  # generator_residual scales by e^(lam * t_step)
    try:
        math.exp(float(op.lam) * steps[0])
    except OverflowError:
        raise ConfigError(f"bad lam = {args.lam!r}: e^(lam * {steps[0]:g}) "
                          "is beyond the float range") from None
    nonnegative = _checked(Fraction, lambda t: t >= 0, "must be >= 0")
    t, s = _parsed("t", args.t, nonnegative), _parsed("s", args.s, nonnegative)
    tent = PiecewiseLinearFn.tent(Fraction(0), Fraction(1), Fraction(2), Fraction(1))
    res = semigroup_law_residual(op, t, s, tent)
    print(f"semigroup law residual at (t,s)=({args.t},{args.s}) on the unit tent: {res}")
    bump = PolySeries((0, 0, 1, -2, 1), HARDY)  # x^2 (1-x)^2 on [0,1]
    for h in steps:
        print(f"generator residual at t_step={h:g}: "
              f"{generator_residual(op, bump, h):.6e}")
    return 0


def cmd_run(args):
    run_pipeline(load_config(args.config), sys.stdout)
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
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CertificationError as exc:
        print(f"certification failed: {exc}", file=sys.stderr)
        return 2
    except InvariantFailure as exc:
        print(f"INVARIANT FAILED: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
