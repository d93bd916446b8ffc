"""One workload repetition in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --mode setup|plain|trace

The worker imports gefp_lab from the checkout's ``src``, builds the
workload's operation list and prints ``ready``.  In ``setup`` mode it then
prints one JSON line with the mean host-speed probe time of set-up
(``hostspeed.py``).  Otherwise it first runs every operation once, and the
JSON line also holds: wall and process CPU time of the operation list net
of probe time, the mean probe time over the list, peak RSS, per-operation
failures, the worst agreement with the exact reference in bits and, in
``trace`` mode, the per-layer span totals.  The reference values are exact
oracle results read from ``reference.json`` after the timed interval.
"""

import argparse
import json
import math
import os
import platform
import random
import resource
import sys
import time
from fractions import Fraction

import hostspeed

PROBE = hostspeed.Probe()
if __name__ == "__main__":
    PROBE.start()       # before the heavy imports, so that set-up is sampled

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import mpmath  # noqa: E402
from mpmath import mp  # noqa: E402

# Engines are called through their modules so that a traced run's
# wrappers, installed after this import, see every call.
from gefp_lab import gefp as engines, oracle  # noqa: E402
from gefp_lab.backends import EXACT, FLOAT, parse_exact, parse_float  # noqa: E402
from gefp_lab.oracle import WeightGrid, YoungProfile, all_profiles  # noqa: E402
from gefp_lab.params import VertexWeights, lambda_eta_from_delta_t  # noqa: E402

# The rational point every workload uses: physical, |Delta| < 1, so every
# engine accepts it and the exact oracle gives a reference for every op.
DELTA, T = "1/3", "3/4"
PRECISION_BITS = 128            # the CLI default
FLOAT_TOLERANCE = Fraction(1, 10 ** 14)   # the float-engine tolerance of tests/test_gefp.py
AGREEMENT_CEILING_BITS = 512    # an exact match reads as this many agreed bits

REFERENCE_FILE = os.path.join(HERE, "reference.json")


def profile_key(N, r):
    return f"gefp N={N} r={','.join(map(str, r))}"


def distribution_key(N):
    return f"H N={N}"


def table_profiles(N, max_s):
    """Profiles of ``gefp-lab table --s 1`` .. ``--s max_s``, in that order."""
    return [p for s in range(1, max_s + 1) for p in all_profiles(N, s)]


def residue_exact_sweep(rng):
    delta, t = parse_exact(DELTA), parse_exact(T)
    return [(profile_key(6, p.r), False,
             lambda p=p: engines.gefp_residue(6, p, delta, t, EXACT, allow_nonphysical=False).value)
            for p in table_profiles(6, 4)]


def residue_float_single(rng):
    delta, t = parse_float(DELTA), parse_float(T)
    p = YoungProfile(7, (2, 4, 6, 7))
    return [(profile_key(7, p.r), True,
             lambda: engines.gefp_residue(7, p, delta, t, FLOAT, allow_nonphysical=False).value)]


def jets_sweep(rng):
    delta, t = parse_float(DELTA), parse_float(T)

    def op(p):
        lam, eta = lambda_eta_from_delta_t(delta, t)
        return engines.gefp_determinant_jets(p.N, p, lam, eta).value

    profiles = table_profiles(4, 4) + table_profiles(5, 3)
    rng.shuffle(profiles)
    return [(profile_key(p.N, p.r), True, lambda p=p: op(p)) for p in profiles]


def oracle_transfer(rng):
    delta, t = parse_exact(DELTA), parse_exact(T)

    def grid(N):
        return WeightGrid.from_weights(N, VertexWeights.from_delta_t(delta, t, False))

    ops = [(profile_key(8, p.r), False, lambda p=p: oracle.gefp_oracle(grid(8), p).value)
           for p in table_profiles(8, 2)]
    ops += [(distribution_key(N), False,
             lambda N=N: oracle.boundary_distribution_oracle(grid(N), cap=10))
            for N in (9, 10)]
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    "residue-exact-sweep": residue_exact_sweep,
    "residue-float-single": residue_float_single,
    "jets-sweep": jets_sweep,
    "oracle-transfer": oracle_transfer,
}


def _to_fraction(x):
    if isinstance(x, mpmath.mpf):
        man, exp = x.man_exp
        return Fraction(man) * Fraction(2) ** exp
    return Fraction(x)


def relative_error(value, ref):
    """|value - ref| / |ref| computed exactly; |value| when ref is 0."""
    err = abs(_to_fraction(value) - ref)
    return err / abs(ref) if ref else err


def agreed_bits(err):
    if err == 0:
        return float(AGREEMENT_CEILING_BITS)
    return min(float(AGREEMENT_CEILING_BITS),
               math.log2(err.denominator) - math.log2(err.numerator))


def check(key, is_float, value, reference):
    """(failed, agreed bits) of one operation against its exact reference."""
    ref = reference[key]
    if isinstance(ref, list):
        if not isinstance(value, list) or len(value) != len(ref):
            return True, 0.0
        pairs = list(zip(value, (Fraction(x) for x in ref)))
    else:
        pairs = [(value, Fraction(ref))]
    worst = float(AGREEMENT_CEILING_BITS)
    failed = False
    for v, r in pairs:
        if is_float:
            err = relative_error(v, r)
            failed = failed or err > FLOAT_TOLERANCE
            worst = min(worst, agreed_bits(err))
        elif v != r:
            failed = True
            worst = min(worst, agreed_bits(relative_error(v, r)))
    return failed, worst


def provenance():
    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "mp_prec": mp.prec,
        "nproc": os.cpu_count(),
    }


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "plain", "trace"), required=True)
    args = ap.parse_args(argv)

    mp.prec = PRECISION_BITS
    ops = WORKLOADS[args.workload](random.Random(args.seed))
    tracer = None
    if args.mode == "trace":
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    setup_probe_s = PROBE.mean_since(0)
    print("ready", flush=True)
    if args.mode == "setup":
        PROBE.stop()
        print(json.dumps({"setup_probe_s": setup_probe_s}), flush=True)
        return 0

    results = []
    first_sample = len(PROBE.samples)
    busy0, wall0, cpu0 = PROBE.busy_s, time.perf_counter(), time.process_time()
    for key, is_float, fn in ops:
        try:
            results.append((key, is_float, fn(), None))
        except Exception as exc:   # a raising operation counts as failed
            results.append((key, is_float, None, f"{type(exc).__name__}: {exc}"))
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    busy = PROBE.busy_s - busy0
    ops_probe_s = PROBE.mean_since(first_sample)
    PROBE.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    layers = tracer.metrics() if tracer else {}

    with open(REFERENCE_FILE) as fh:
        reference = json.load(fh)
    failed, errors = 0, []
    min_bits = float(AGREEMENT_CEILING_BITS)
    for key, is_float, value, error in results:
        if error is None:
            bad, bits = check(key, is_float, value, reference)
            if bad:
                error = f"mismatch against the exact reference ({bits:.1f} bits agree)"
        else:
            bits = 0.0
        min_bits = min(min_bits, bits)
        if error is not None:
            failed += 1
            errors.append(f"{key}: {error}")

    print(json.dumps({
        "attempted": len(results), "failed": failed, "errors": errors,
        "setup_probe_s": setup_probe_s, "ops_probe_s": ops_probe_s,
        "wall_s": wall - busy, "cpu_s": cpu - busy, "peak_rss_mb": peak_rss_mb,
        "min_agreed_bits": min_bits,
        "layers": {k: v for k, (v, _) in layers.items()},
        "units": {k: u for k, (_, u) in layers.items()},
        "provenance": provenance(),
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
