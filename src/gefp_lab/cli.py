"""Command-line front end.

Commands: partition, gefp, efp, hfun, cutdomain, table, verify.  Results go
to stdout as JSON (default), CSV, or text; each command writes one log
line, with its wall time, to stderr.  Identical configurations produce
byte-identical stdout: float formatting is fixed by the working precision,
summation orders are fixed, and the wall-time field stays null unless
--timing is passed.

Exit codes: 0 success, 2 argument/configuration errors (including
non-monotone profiles, sizes below their minimum and engine/backend
mismatches), 3 computation errors (the error class name is reported).
"""

import argparse
import csv
import json
import re
import sys
import time
from functools import cached_property, partial

from mpmath import mp

from . import __version__
from .algebra import UniPoly
from .backends import (EXACT, FLOAT, MIN_PRECISION_BITS, default_precision_bits,
                       format_scalar, parse_exact, parse_float)
from .errors import BadIndex, GefpLabError, Unsupported
from .gefp import check_jets_box, check_residue_box, gefp_determinant_jets, gefp_residue
from .hfun import boundary_H_table_via_K
from .ik import homogeneous_partition_jets, ik_partition
from .oracle import (WeightGrid, YoungProfile, _check_cap, all_profiles,
                     boundary_distribution_oracle, gefp_oracle,
                     modified_domain_partition, partition_function_oracle)
from .params import (SpectralData, VertexWeights, delta_t_from_trig,
                     lambda_eta_from_delta_t, weights_from_trig)
from .verify import CRITERIA, run_criterion

SCHEMA = "gefp-lab/1"

# Largest --oracle-cap accepted.  The transfer keeps up to 2^N states a row:
# a cold `hfun --engine oracle --delta 1/3 --t 3/4` (CPython 3.11, one x86
# core) took 0.5 / 1.0 / 2.7 / 5.6 / 16 s and 35 / 51 / 86 / 159 / 293 MB
# peak RSS at N = 16 .. 20, about 2.8x the time and 1.8x the memory a step.
ORACLE_CAP_CEILING = 20

CSV_COLUMNS = ["schema", "command", "engine", "backend", "N", "r", "s", "mu", "delta",
               "t", "lambda", "eta", "lambdas", "nus", "precision_bits", "value",
               "wall_time_ms"]


class UsageError(Exception):
    """Configuration problems that map to exit code 2."""


def _parse_profile(text, N):
    try:
        parts = [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise UsageError(f"cannot parse --r {text!r}; expected e.g. 2,3,3")
    return _profile(N, parts)


def _profile(N, parts):
    if len(parts) > N:
        raise UsageError(f"profile length {len(parts)} exceeds N={N}")
    try:
        return YoungProfile(N, parts)
    except BadIndex:
        raise UsageError(
            f"invalid profile r={list(parts)}: positions must satisfy "
            f"1 <= r_1 <= r_2 <= ... <= r_s <= N")


def _number(flag, text, parse):
    try:
        return parse(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"cannot parse {flag} {text!r} as a number")
    except Unsupported as exc:
        raise UsageError(f"{flag}: {exc}")


class ParamSpec:
    """Exactly one of (delta, t) or (lambda, eta[, rapidity lists]) per run."""

    def __init__(self, args):
        trig_given = args.lam is not None or args.eta is not None
        lists_given = getattr(args, "lambdas", None) or getattr(args, "nus", None)
        rational_given = args.delta is not None or args.t is not None
        if rational_given and (trig_given or lists_given):
            raise UsageError("give either --delta/--t or --lambda/--eta, not both")
        if lists_given and args.lam is not None:
            raise UsageError("give either --lambda or --lambdas/--nus, not both")
        if not rational_given and not trig_given and not lists_given:
            raise UsageError("parameters missing: --delta/--t or --lambda/--eta")
        self.backend, self.N, self.oracle_cap = args.backend, args.N, args.oracle_cap
        self.allow_nonphysical = args.allow_nonphysical
        self.delta = self.t = self.lam = self.eta = None
        self.lambdas = self.nus = None
        if rational_given:
            if args.delta is None or args.t is None:
                raise UsageError("--delta and --t must be given together")
            parse = parse_exact if self.backend == EXACT else parse_float
            self.delta = _number("--delta", args.delta, parse)
            self.t = _number("--t", args.t, parse)
        else:
            if self.backend == EXACT:
                raise UsageError("the exact backend takes rational --delta/--t, "
                                 "not trig parameters")
            if lists_given:
                if not (getattr(args, "lambdas", None) and args.nus and args.eta):
                    raise UsageError("--lambdas, --nus and --eta go together")
                self.lambdas = [_number("--lambdas", x, parse_float)
                                for x in args.lambdas.split(",")]
                self.nus = [_number("--nus", x, parse_float) for x in args.nus.split(",")]
                self.eta = _number("--eta", args.eta, parse_float)
                if len(self.lambdas) != len(self.nus):
                    raise UsageError(f"--lambdas and --nus must have equal length, got "
                                     f"{len(self.lambdas)} and {len(self.nus)}")
                if len(self.lambdas) != args.N:
                    raise UsageError(f"--N {args.N} does not match the "
                                     f"{len(self.lambdas)} rapidities of --lambdas/--nus")
            else:
                if args.lam is None or args.eta is None:
                    raise UsageError("--lambda and --eta must be given together")
                self.lam = _number("--lambda", args.lam, parse_float)
                self.eta = _number("--eta", args.eta, parse_float)

    @cached_property
    def grid(self):
        """The weight grid, built once for every row of a command; it holds
        O(N) row tuples, so the oracle cap is checked first."""
        weights = self.weights()
        _check_cap(self.N, self.oracle_cap)
        return WeightGrid.from_weights(self.N, weights)

    def weights(self):
        if self.delta is not None:
            return VertexWeights.from_delta_t(self.delta, self.t, self.allow_nonphysical)
        if self.lam is None:
            raise UsageError("this command needs homogeneous parameters")
        return weights_from_trig(self.lam, 0, self.eta, self.allow_nonphysical)

    @cached_property
    def delta_t(self):
        """(Delta, t) as given, or converted once from the trig point."""
        if self.delta is not None:
            return self.delta, self.t
        return delta_t_from_trig(self.lam, self.eta)

    @cached_property
    def lambda_eta(self):
        """(lambda, eta) as given, or converted once from (Delta, t); needs
        |Delta| < 1."""
        if self.lam is not None:
            return self.lam, self.eta
        return lambda_eta_from_delta_t(self.delta, self.t)

    def echo(self):
        out = {}
        for key, val in (("delta", self.delta), ("t", self.t),
                         ("lambda", self.lam), ("eta", self.eta)):
            if val is not None:
                out[key] = format_scalar(val)
        if self.lambdas is not None:
            out["lambdas"] = [format_scalar(x) for x in self.lambdas]
            out["nus"] = [format_scalar(x) for x in self.nus]
        return out


def _record(command, engine, backend, inputs, value, args, elapsed_ms):
    return {
        "schema": SCHEMA,
        "command": command,
        "engine": engine,
        "backend": backend,
        "inputs": inputs,
        "precision_bits": mp.prec if backend == FLOAT else None,
        "value": format_scalar(value) if not isinstance(value, (list, dict, str)) else value,
        "wall_time_ms": round(elapsed_ms, 3) if args.timing else None,
    }


def _run(args, spec, engine, rows):
    """One record per row (inputs, call) of a result command: ``call()``
    computes the row's value and is timed alone, and the inputs gain N and
    the parameters.  One log line goes to stderr for the whole command."""
    given = {"N": args.N, **spec.echo()}
    t0 = time.perf_counter()
    records = []
    for inputs, call in rows:
        t1 = time.perf_counter()
        value = call()
        ms = (time.perf_counter() - t1) * 1e3
        records.append(_record(args.command, engine, spec.backend, {**inputs, **given},
                               value, args, ms))
    ms = (time.perf_counter() - t0) * 1e3
    _log(f"command={args.command} rows={len(records)} wall_time_ms={ms:.3f}")
    return records


def _emit(records, args):
    if args.format == "json":
        payload = records[0] if len(records) == 1 else records
        sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    elif args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for rec in records:
            cells = {**rec, **rec["inputs"]}
            row = []
            for col in CSV_COLUMNS:
                val = cells.get(col)
                if isinstance(val, list):
                    val = " ".join(str(x) for x in val)
                elif isinstance(val, dict):
                    val = json.dumps(val, sort_keys=True, separators=(",", ":"))
                row.append("" if val is None else str(val))
            writer.writerow(row)
    else:
        for rec in records:
            for key in ("command", "engine", "backend"):
                sys.stdout.write(f"{key}: {rec[key]}\n")
            for key, val in sorted(rec["inputs"].items()):
                sys.stdout.write(f"{key}: {val}\n")
            sys.stdout.write(f"precision_bits: {rec['precision_bits']}\n")
            sys.stdout.write(f"value: {rec['value']}\n\n")


def _log(message):
    sys.stderr.write(f"[gefp-lab] {message}\n")


# ---------------------------------------------------------------------------
# result commands: each checks its inputs and returns its engine's name and
# its rows (inputs, call) for ``_run``

def cmd_partition(args, spec):
    def call():
        if args.engine == "oracle":
            return partition_function_oracle(spec.grid, cap=args.oracle_cap)
        if args.engine == "ik":
            if spec.lambdas is None:
                raise UsageError("--engine ik needs --lambdas/--nus/--eta")
            return ik_partition(SpectralData(spec.lambdas, spec.nus, spec.eta))
        if spec.lam is None:
            raise UsageError("--engine ik-hom needs --lambda/--eta")
        spec.weights()  # raises NonphysicalWeights
        check_jets_box(args.N, 1)   # the K route's N cap
        return homogeneous_partition_jets(args.N, spec.lam, spec.eta)
    return args.engine, [({}, call)]


def _check_engine(args, spec, s):
    """Refuse, in O(1) and before any profile is built or listed, what the
    engine refuses at N and profile length s: the oracle's weights and cap
    (the residue engine's H tables keep the default cap), or the jets
    backend, N and box."""
    if args.engine == "jets":
        if spec.backend == EXACT:
            raise UsageError("--engine jets runs in the float backend")
        check_jets_box(args.N, s)
    elif args.engine == "oracle":
        spec.grid                   # checks the weights, then the cap, then builds
    else:
        _check_cap(args.N, None)


def _gefp_value(args, spec, profile):
    """One profile on the engine of ``gefp``, ``efp`` and ``table``."""
    if args.engine == "residue":
        return gefp_residue(args.N, profile, *spec.delta_t, spec.backend,
                            allow_nonphysical=args.allow_nonphysical).value
    if args.engine == "jets":
        return gefp_determinant_jets(args.N, profile, *spec.lambda_eta,
                                     allow_nonphysical=args.allow_nonphysical).value
    return gefp_oracle(spec.grid, profile, cap=args.oracle_cap).value


def cmd_gefp(args, spec):
    profile = _parse_profile(args.r, args.N)
    _check_engine(args, spec, profile.s)
    return args.engine, [({"r": list(profile.r)}, partial(_gefp_value, args, spec, profile))]


def cmd_efp(args, spec):
    """The EFP is the GEFP of the rectangular profile (r, ..., r), s times."""
    if not 1 <= args.r <= args.N:
        raise UsageError(f"--r {args.r} outside 1..{args.N}")
    if args.s > args.N:             # before the s-tuple is built
        raise UsageError(f"profile length {args.s} exceeds N={args.N}")
    _check_engine(args, spec, args.s)
    profile = _profile(args.N, (args.r,) * args.s)
    return f"efp/{args.engine}", [({"r": args.r, "s": args.s},
                                   partial(_gefp_value, args, spec, profile))]


def cmd_hfun(args, spec):
    def call():
        if args.engine == "oracle":
            table = boundary_distribution_oracle(spec.grid, cap=args.oracle_cap)
        else:
            if spec.backend == EXACT:
                raise UsageError("--engine kpoly runs in the float backend")
            spec.weights()  # raises NonphysicalWeights
            table = boundary_H_table_via_K(args.N, *spec.lambda_eta)
        return {"H": [format_scalar(x) for x in table],
                "h_poly_coeffs": [format_scalar(c) for c in UniPoly(table).coeffs]}
    return args.engine, [({}, call)]


def cmd_cutdomain(args, spec):
    profile = _parse_profile(args.r, args.N)
    return "oracle", [({"r": list(profile.r), "mu": list(profile.mu)},
                       lambda: modified_domain_partition(spec.grid, profile,
                                                         cap=args.oracle_cap))]


def cmd_table(args, spec):
    if args.s is not None and args.s > args.N:
        raise UsageError(f"--s {args.s} exceeds N={args.N}")
    sizes = range(1, args.N + 1) if args.s is None else [args.s]
    _check_engine(args, spec, sizes[-1])        # before any row is listed
    if args.engine == "residue":                # N is at most the oracle cap here
        check_residue_box((args.N - 1,) * sizes[-1])
    return args.engine, (({"r": list(p.r)}, partial(_gefp_value, args, spec, p))
                         for s in sizes for p in all_profiles(args.N, s))


def _criteria(text):
    """Criterion numbers of --criteria, each once, in run order; all when not given."""
    if not text:
        return sorted(CRITERIA)
    try:
        numbers = sorted({int(x) for x in text.split(",")})
    except ValueError:
        raise UsageError(f"cannot parse --criteria {text!r}; expected e.g. 1,3")
    for n in numbers:
        if n not in CRITERIA:
            raise UsageError(f"--criteria: no criterion {n}; they run from "
                             f"{min(CRITERIA)} to {max(CRITERIA)}")
    return numbers


def cmd_verify(args):
    t0 = time.perf_counter()
    records = [rec for n in _criteria(args.criteria) for rec in run_criterion(n, args.level)]
    ok = all(r.passed for r in records)
    ms = (time.perf_counter() - t0) * 1e3
    _log(f"command=verify level={args.level} wall_time_ms={ms:.3f}")
    if args.format == "json":
        payload = {"schema": SCHEMA, "command": "verify", "level": args.level,
                   "passed": ok, "checks": [r._asdict() for r in records]}
        sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    else:
        sys.stdout.writelines(rec.line() + "\n" for rec in records)
        sys.stdout.write(f"verify: {'all checks passed' if ok else 'FAILURES'}\n")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# parser

def _at_least(low, most=None):
    """argparse type: an integer of at least ``low`` and, when given, at most
    ``most``."""
    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if most is not None and value > most:
            raise argparse.ArgumentTypeError(f"must be at most {most}, got {value}")
        return value
    parse.__name__ = "int"          # argparse names the type in its messages
    return parse


def _add_common(p, profile_flag=True, engines=None, default_engine=None):
    p.add_argument("--N", type=_at_least(1), required=True, help="lattice size")
    if profile_flag:
        p.add_argument("--r", required=True,
                       help="comma-separated edge positions, e.g. 2,3,3")
    p.add_argument("--delta", help="anisotropy Delta, rational p/q or decimal")
    p.add_argument("--t", help="weight ratio b/a, rational p/q or decimal")
    p.add_argument("--lambda", dest="lam", help="spectral parameter (float backend)")
    p.add_argument("--eta", help="crossing parameter (float backend)")
    p.add_argument("--backend", choices=[EXACT, FLOAT], default=EXACT)
    if engines:
        p.add_argument("--engine", choices=engines, default=default_engine)
    p.add_argument("--format", choices=["json", "csv", "text"], default="json")
    p.add_argument("--precision", type=int, default=None,
                   help="float precision in bits (default 128 or "
                        "GEFP_LAB_PRECISION)")
    p.add_argument("--allow-nonphysical", action="store_true",
                   dest="allow_nonphysical",
                   help="accept weights outside the physical cone")
    p.add_argument("--oracle-cap", type=_at_least(1, ORACLE_CAP_CEILING), default=None,
                   dest="oracle_cap",
                   help="override the enumeration size cap (default 8, at most "
                        f"{ORACLE_CAP_CEILING}) of the oracle engines; the H tables "
                        "of the residue engine, both backends, keep the default")
    p.add_argument("--timing", action="store_true",
                   help="include wall time in the stdout record "
                        "(off by default so output is byte-reproducible)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gefp-lab",
        description="Six-vertex model with domain wall boundary conditions: "
                    "partition functions, boundary correlations, and "
                    "generalized emptiness formation probabilities.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("partition", help="partition function Z_N")
    _add_common(p, profile_flag=False, engines=["oracle", "ik", "ik-hom"],
                default_engine="oracle")
    p.add_argument("--lambdas", help="comma-separated row rapidities (engine ik)")
    p.add_argument("--nus", help="comma-separated column rapidities (engine ik)")

    p = sub.add_parser("gefp", help="generalized emptiness formation probability")
    _add_common(p, engines=["residue", "jets", "oracle"], default_engine="residue")

    p = sub.add_parser("efp", help="emptiness formation probability: the "
                                   "profile (r, ..., r), s times")
    _add_common(p, profile_flag=False,
                engines=["residue", "jets", "oracle"], default_engine="residue")
    p.add_argument("--s", type=_at_least(0), required=True, help="number of marked rows")
    p.add_argument("--r", type=int, required=True, help="common edge position")

    p = sub.add_parser("hfun", help="boundary distribution H and its polynomial")
    _add_common(p, profile_flag=False, engines=["oracle", "kpoly"],
                default_engine="oracle")

    p = sub.add_parser("cutdomain", help="partition function of the cut-corner domain")
    _add_common(p)

    p = sub.add_parser("table", help="sweep all profiles at fixed parameters")
    _add_common(p, profile_flag=False,
                engines=["residue", "jets", "oracle"], default_engine="residue")
    p.add_argument("--s", type=_at_least(0), default=None,
                   help="restrict to one profile length")

    p = sub.add_parser("verify", help="run the acceptance suites")
    p.add_argument("--level", choices=["desk", "quick"], default="desk")
    p.add_argument("--criteria", default=None,
                   help="comma-separated criterion numbers (default: all)")
    p.add_argument("--format", choices=["json", "text"], default="text")
    return parser


def _apply_precision(args):
    bits = getattr(args, "precision", None)
    if bits is None:
        try:
            bits = default_precision_bits()
        except ValueError as exc:
            raise UsageError(str(exc))
    elif bits < MIN_PRECISION_BITS:
        raise UsageError(f"--precision must be at least {MIN_PRECISION_BITS} bits, "
                         f"got {bits}")
    mp.prec = bits


COMMANDS = {
    "partition": cmd_partition,
    "gefp": cmd_gefp,
    "efp": cmd_efp,
    "hfun": cmd_hfun,
    "cutdomain": cmd_cutdomain,
    "table": cmd_table,
}


_SIGNED_FLAGS = ("--delta", "--t", "--lambda", "--eta", "--lambdas", "--nus", "--r")


def _join_negative_values(argv):
    """argparse reads a separate "-1/2", "-1e-1" or "-0.5,0.3" as a flag; only
    a plain negative decimal passes.  So "--delta -1/2" is joined into
    "--delta=-1/2", and likewise after --t, --lambda, --eta, --lambdas and
    --nus, and after --r, whose negative entries are then refused as an
    invalid profile."""
    out = []
    for arg in argv:
        if out and out[-1] in _SIGNED_FLAGS and re.match(r"-\d", arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_join_negative_values(argv))
    try:
        _apply_precision(args)
        if args.command == "verify":
            return cmd_verify(args)
        spec = ParamSpec(args)
        _emit(_run(args, spec, *COMMANDS[args.command](args, spec)), args)
        return 0
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except GefpLabError as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
