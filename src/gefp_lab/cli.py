"""Command-line front end.

Commands: partition, gefp, efp, hfun, cutdomain, table, verify.  Results go
to stdout as JSON (default), CSV, or text; log lines, including wall time,
go to stderr.  Identical configurations produce byte-identical stdout: float
formatting is fixed by the working precision, summation orders are fixed,
and the wall-time field stays null unless --timing is passed.

Exit codes: 0 success, 2 argument/configuration errors (including
non-monotone profiles and engine/backend mismatches), 3 computation errors
(the error class name is reported).
"""

import argparse
import json
import sys
import time

from mpmath import mp

from . import __version__
from .backends import (EXACT, FLOAT, MIN_PRECISION_BITS, default_precision_bits,
                       format_scalar, parse_exact, parse_float)
from .errors import BadIndex, GefpLabError
from .gefp import efp_special_case, gefp_determinant_jets, gefp_residue
from .hfun import boundary_H_table_oracle, boundary_H_table_via_K, h_generating
from .ik import homogeneous_partition_jets, ik_partition
from .oracle import (WeightGrid, YoungProfile, all_profiles, gefp_oracle,
                     modified_domain_partition, partition_function_oracle)
from .params import SpectralData, VertexWeights, weights_from_trig
from .verify import run_acceptance

SCHEMA = "gefp-lab/1"

CSV_COLUMNS = ["schema", "command", "engine", "backend", "N", "r", "delta", "t",
               "lambda", "eta", "precision_bits", "value", "wall_time_ms"]


class UsageError(Exception):
    """Configuration problems that map to exit code 2."""


def _parse_profile(text, N):
    try:
        parts = [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise UsageError(f"cannot parse profile {text!r}; expected e.g. 2,3,3")
    try:
        return YoungProfile(N, parts)
    except BadIndex:
        raise UsageError(
            f"invalid profile r={parts}: positions must satisfy "
            f"1 <= r_1 <= r_2 <= ... <= r_s <= N")


def _number(flag, text, parse):
    try:
        return parse(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"cannot parse {flag} {text!r} as a number")


class ParamSpec:
    """Exactly one of (delta, t) or (lambda, eta[, rapidity lists]) per run."""

    def __init__(self, args):
        trig_given = args.lam is not None or args.eta is not None
        lists_given = getattr(args, "lambdas", None) or getattr(args, "nus", None)
        rational_given = args.delta is not None or args.t is not None
        if rational_given and (trig_given or lists_given):
            raise UsageError("give either --delta/--t or --lambda/--eta, not both")
        if not rational_given and not trig_given and not lists_given:
            raise UsageError("parameters missing: --delta/--t or --lambda/--eta")
        self.backend = args.backend
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
            else:
                if args.lam is None or args.eta is None:
                    raise UsageError("--lambda and --eta must be given together")
                self.lam = _number("--lambda", args.lam, parse_float)
                self.eta = _number("--eta", args.eta, parse_float)

    def weights(self, allow_nonphysical):
        if self.delta is not None:
            return VertexWeights.from_delta_t(self.delta, self.t, allow_nonphysical)
        if self.lam is None:
            raise UsageError("this command needs homogeneous parameters")
        return weights_from_trig(self.lam, 0, self.eta, allow_nonphysical)

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


def _emit(records, args):
    if isinstance(records, dict):
        records = [records]
    if args.format == "json":
        payload = records[0] if len(records) == 1 else records
        sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    elif args.format == "csv":
        sys.stdout.write(",".join(CSV_COLUMNS) + "\n")
        for rec in records:
            row = []
            for col in CSV_COLUMNS:
                if col in ("N", "r", "delta", "t", "lambda", "eta"):
                    val = rec["inputs"].get(col, "")
                else:
                    val = rec.get(col, "")
                if isinstance(val, list):
                    val = " ".join(str(x) for x in val)
                row.append("" if val is None else str(val))
            sys.stdout.write(",".join(row) + "\n")
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
# command implementations

def cmd_partition(args):
    spec = ParamSpec(args)
    t0 = time.perf_counter()
    if args.engine == "oracle":
        grid = WeightGrid.from_weights(args.N, spec.weights(args.allow_nonphysical))
        value = partition_function_oracle(grid, cap=args.oracle_cap)
        backend = spec.backend
    elif args.engine == "ik":
        if spec.lambdas is None:
            raise UsageError("--engine ik needs --lambdas/--nus/--eta")
        value = ik_partition(SpectralData(spec.lambdas, spec.nus, spec.eta))
        backend = FLOAT
    elif args.engine == "ik-hom":
        if spec.lam is None:
            raise UsageError("--engine ik-hom needs --lambda/--eta")
        value = homogeneous_partition_jets(args.N, spec.lam, spec.eta,
                                           order=args.jet_order)
        backend = FLOAT
    else:
        raise UsageError(f"unknown partition engine {args.engine!r}")
    ms = (time.perf_counter() - t0) * 1e3
    _log(f"command=partition engine={args.engine} wall_time_ms={ms:.3f}")
    inputs = {"N": args.N, **spec.echo()}
    return [_record("partition", args.engine, backend, inputs, value, args, ms)]


def _run_gefp_engine(args, spec, profile):
    if args.engine == "residue":
        res = gefp_residue(args.N, profile, spec.delta, spec.t, spec.backend,
                           lam=spec.lam, eta=spec.eta,
                           allow_nonphysical=args.allow_nonphysical)
    elif args.engine == "jets":
        if spec.backend == EXACT:
            raise UsageError("--engine jets runs in the float backend")
        if spec.lam is None:
            from .params import lambda_eta_from_delta_t
            lam, eta = lambda_eta_from_delta_t(spec.delta, spec.t)
        else:
            lam, eta = spec.lam, spec.eta
        res = gefp_determinant_jets(args.N, profile, lam, eta)
    elif args.engine == "oracle":
        grid = WeightGrid.from_weights(args.N, spec.weights(args.allow_nonphysical))
        res = gefp_oracle(grid, profile, cap=args.oracle_cap)
    else:
        raise UsageError(f"unknown gefp engine {args.engine!r}")
    return res


def cmd_gefp(args):
    spec = ParamSpec(args)
    profile = _parse_profile(args.r, args.N)
    t0 = time.perf_counter()
    res = _run_gefp_engine(args, spec, profile)
    ms = (time.perf_counter() - t0) * 1e3
    _log(f"command=gefp engine={res.engine} wall_time_ms={ms:.3f}")
    inputs = {"N": args.N, "r": list(profile.r), **spec.echo()}
    return [_record("gefp", res.engine, res.backend, inputs, res.value, args, ms)]


def cmd_efp(args):
    spec = ParamSpec(args)
    t0 = time.perf_counter()
    res = efp_special_case(args.N, args.s, args.r, args.engine,
                           delta=spec.delta, t=spec.t, lam=spec.lam, eta=spec.eta,
                           backend=spec.backend,
                           allow_nonphysical=args.allow_nonphysical)
    ms = (time.perf_counter() - t0) * 1e3
    _log(f"command=efp engine={res.engine} wall_time_ms={ms:.3f}")
    inputs = {"N": args.N, "r": args.r, "s": args.s, **spec.echo()}
    return [_record("efp", res.engine, res.backend, inputs, res.value, args, ms)]


def cmd_hfun(args):
    spec = ParamSpec(args)
    t0 = time.perf_counter()
    if args.engine == "oracle":
        table = boundary_H_table_oracle(args.N, spec.weights(args.allow_nonphysical))
    elif args.engine == "kpoly":
        if spec.lam is None:
            raise UsageError("--engine kpoly needs --lambda/--eta")
        table = boundary_H_table_via_K(args.N, spec.lam, spec.eta)
    else:
        raise UsageError(f"unknown hfun engine {args.engine!r}")
    ms = (time.perf_counter() - t0) * 1e3
    _log(f"command=hfun engine={args.engine} wall_time_ms={ms:.3f}")
    inputs = {"N": args.N, **spec.echo()}
    value = {
        "H": [format_scalar(x) for x in table.values],
        "h_poly_coeffs": [format_scalar(c) for c in h_generating(table).coeffs],
    }
    rec = _record("hfun", args.engine, table.backend, inputs, value, args, ms)
    return [rec]


def cmd_cutdomain(args):
    spec = ParamSpec(args)
    profile = _parse_profile(args.r, args.N)
    t0 = time.perf_counter()
    grid = WeightGrid.from_weights(args.N, spec.weights(args.allow_nonphysical))
    value = modified_domain_partition(grid, profile, cap=args.oracle_cap)
    ms = (time.perf_counter() - t0) * 1e3
    _log(f"command=cutdomain wall_time_ms={ms:.3f}")
    inputs = {"N": args.N, "r": list(profile.r), "mu": list(profile.mu), **spec.echo()}
    return [_record("cutdomain", "oracle", spec.backend, inputs, value, args, ms)]


def cmd_table(args):
    spec = ParamSpec(args)
    profiles = all_profiles(args.N, args.s)
    keys = sorted((p.s, p.r) for p in profiles)
    jobs = [(args.N, r) for (_, r) in keys]
    t0 = time.perf_counter()
    if args.workers > 1:
        records = _table_parallel(args, jobs)
    else:
        records = []
        for n, r in jobs:
            profile = YoungProfile(n, r)
            res = _run_gefp_engine(args, spec, profile)
            inputs = {"N": n, "r": list(r), **spec.echo()}
            records.append(_record("table", res.engine, res.backend, inputs,
                                   res.value, args, 0.0))
    ms = (time.perf_counter() - t0) * 1e3
    _log(f"command=table rows={len(records)} wall_time_ms={ms:.3f}")
    return records


def _table_job(payload):
    argv, n, r = payload
    args = build_parser().parse_args(argv)
    _apply_precision(args)
    spec = ParamSpec(args)
    profile = YoungProfile(n, r)
    res = _run_gefp_engine(args, spec, profile)
    inputs = {"N": n, "r": list(r), **spec.echo()}
    return _record("table", res.engine, res.backend, inputs, res.value, args, 0.0)


def _table_parallel(args, jobs):
    from concurrent.futures import ProcessPoolExecutor
    argv = args._argv
    payloads = [(argv, n, r) for n, r in jobs]
    with ProcessPoolExecutor(max_workers=args.workers) as pool:
        records = list(pool.map(_table_job, payloads))
    return records  # jobs were sorted by input key already


def cmd_verify(args):
    t0 = time.perf_counter()
    numbers = [int(x) for x in args.criteria.split(",")] if args.criteria else None
    if args.workers > 1 and not numbers:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            chunks = list(pool.map(_verify_job,
                                   [(args.level, n) for n in range(1, 9)]))
        records = [rec for chunk in chunks for rec in chunk]
        ok = all(r["passed"] for r in records)
    else:
        recs, ok = run_acceptance(args.level, numbers)
        records = [{"criterion": r.criterion, "name": r.name, "passed": r.passed,
                    "detail": r.detail} for r in recs]
    ms = (time.perf_counter() - t0) * 1e3
    _log(f"command=verify level={args.level} wall_time_ms={ms:.3f}")
    if args.format == "json":
        payload = {"schema": SCHEMA, "command": "verify", "level": args.level,
                   "passed": ok, "checks": records}
        sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    else:
        for rec in records:
            tag = "PASS" if rec["passed"] else "FAIL"
            sys.stdout.write(f"[{tag}] {rec['criterion']}: {rec['name']}\n")
            if rec["detail"] and not rec["passed"]:
                sys.stdout.write(f"       {rec['detail']}\n")
        sys.stdout.write(f"verify: {'all checks passed' if ok else 'FAILURES'}\n")
    return 0 if ok else 1


def _verify_job(payload):
    level, number = payload
    from .verify import run_criterion
    return [{"criterion": r.criterion, "name": r.name, "passed": r.passed,
             "detail": r.detail} for r in run_criterion(number, level)]


# ---------------------------------------------------------------------------
# parser

def _add_common(p, profile_flag=True, engines=None, default_engine=None):
    p.add_argument("--N", type=int, required=True, help="lattice size")
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
    p.add_argument("--jet-order", type=int, default=None, dest="jet_order",
                   help="override the automatic jet truncation order")
    p.add_argument("--oracle-cap", type=int, default=None, dest="oracle_cap",
                   help="override the enumeration size cap (default 8)")
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

    p = sub.add_parser("efp", help="equal-position special case")
    _add_common(p, profile_flag=False,
                engines=["residue", "jets", "oracle"], default_engine="residue")
    p.add_argument("--s", type=int, required=True, help="number of marked rows")
    p.add_argument("--r", type=int, required=True, help="common edge position")

    p = sub.add_parser("hfun", help="boundary distribution H and its polynomial")
    _add_common(p, profile_flag=False, engines=["oracle", "kpoly"],
                default_engine="oracle")

    p = sub.add_parser("cutdomain", help="partition function of the cut-corner domain")
    _add_common(p)

    p = sub.add_parser("table", help="sweep all profiles at fixed parameters")
    _add_common(p, profile_flag=False,
                engines=["residue", "jets", "oracle"], default_engine="residue")
    p.add_argument("--s", type=int, default=None, help="restrict to one profile length")
    p.add_argument("--workers", type=int, default=1)

    p = sub.add_parser("verify", help="run the acceptance suites")
    p.add_argument("--level", choices=["desk", "quick"], default="desk")
    p.add_argument("--criteria", default=None,
                   help="comma-separated criterion numbers (default: all)")
    p.add_argument("--format", choices=["json", "text"], default="text")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--precision", type=int, default=None)
    p.add_argument("--timing", action="store_true")
    return parser


def _apply_precision(args):
    bits = args.precision
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


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args._argv = argv
    try:
        _apply_precision(args)
        if getattr(args, "workers", 1) < 1:
            raise UsageError(f"--workers must be at least 1, got {args.workers}")
        if args.command == "verify":
            return cmd_verify(args)
        records = COMMANDS[args.command](args)
        _emit(records, args)
        return 0
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except GefpLabError as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
