"""gefp-lab engine benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every repetition runs in a fresh single-threaded interpreter
(``worker.py``), so module-level and per-grid caches start cold, as in one
CLI call.  Repetitions run one after another until the next one would end
past ``--seconds``; each run makes at least one.  Every repetition also
gives a set-up sample, and set-up-only interpreters top the samples up to
``MIN_SETUP_SAMPLES``.

Every time is reported in reference seconds: the raw time scaled by the
host-speed probe the worker ran over the same interval
(``hostspeed.py``), so that a host that slows down for a while moves the
raw times but not the reported ones.  The raw samples are on the
provenance line.

With ``--trace 0`` the last stdout line holds the end-to-end metrics, as
medians over the repetitions; with ``--trace 1`` it holds the per-layer
metrics of traced repetitions, which alternate with untraced ones so the
trace overhead can be measured.  The line before it records provenance.
Exit status is non-zero, with no result line, when the program cannot be
run or a repetition crashes.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")

MIN_SETUP_SAMPLES = 11
HARD_LIMIT_S = 170           # every run ends well inside 180 s


class BenchError(Exception):
    pass


def launch(workload, seed, mode, deadline):
    """One fresh interpreter: (set-up seconds, parsed result)."""
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--mode", mode]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, text=True)
    # kills a worker that is still running at the deadline, even before "ready"
    watchdog = threading.Timer(max(0.0, deadline - t0), proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        out = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if time.perf_counter() >= deadline:
        raise BenchError(f"{mode} repetition of {workload} ran past the time limit")
    if first.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"{mode} repetition of {workload} exited with {proc.returncode}")
    return setup_s, json.loads(out.strip().splitlines()[-1])


def source_provenance():
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() if proc.returncode == 0 else None
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def setup_scale(result):
    """Factor that turns a launch's raw set-up seconds into reference seconds."""
    return hostspeed.SETUP_REF_S / result["setup_probe_s"]


def ops_scale(result):
    """Factor that turns raw seconds of the operation list into reference seconds."""
    return hostspeed.OPS_REF_S / result["ops_probe_s"]


def measure(workload, seed, seconds, trace):
    """Launches as (mode, set-up seconds, worker result), warm-up excluded."""
    start = time.perf_counter()
    hard_deadline = start + HARD_LIMIT_S
    budget_end = start + seconds
    launch(workload, seed, "setup", hard_deadline)      # warm-up, discarded
    launches = []
    longest = 0.0
    modes = ["plain", "trace"] if trace else ["plain"]
    while True:
        for mode in modes:
            t0 = time.perf_counter()
            launches.append((mode, *launch(workload, seed, mode, hard_deadline)))
            longest = max(longest, time.perf_counter() - t0)
        if time.perf_counter() + len(modes) * longest > budget_end:
            break
    while sum(1 for mode, _, _ in launches if mode != "trace") < MIN_SETUP_SAMPLES:
        launches.append(("setup", *launch(workload, seed, "setup", hard_deadline)))
    return launches


def setup_samples(launches):
    """Set-up seconds of the untraced launches, in reference seconds."""
    return [s * setup_scale(r) for mode, s, r in launches if mode != "trace"]


def op_walls(launches, mode):
    """Operation-list wall times of one mode, in reference seconds."""
    return [r["wall_s"] * ops_scale(r) for m, _, r in launches if m == mode]


def end_to_end(launches):
    plain = [r for mode, _, r in launches if mode == "plain"]
    return {
        "setup_s": (statistics.median(setup_samples(launches)), "s"),
        "wall_s": (statistics.median(op_walls(launches, "plain")), "s"),
        "cpu_s": (statistics.median(r["cpu_s"] * ops_scale(r) for r in plain), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in plain), "MB"),
        "min_agreed_bits": (min(r["min_agreed_bits"] for r in plain), "bits"),
        "passed_frac": (min(1 - r["failed"] / r["attempted"] for r in plain), "fraction"),
    }


def per_layer(launches):
    traced = [r for mode, _, r in launches if mode == "trace"]
    out = {name: (statistics.median(r["layers"][name] * (ops_scale(r) if unit == "s" else 1)
                                    for r in traced), unit)
           for name, unit in traced[0]["units"].items()}
    out["trace.overhead_s"] = (statistics.median(op_walls(launches, "trace"))
                               - statistics.median(op_walls(launches, "plain")), "s")
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "gefp_lab", "__init__.py")):
        print(f"error: no gefp_lab sources under {SRC}", file=sys.stderr)
        return 2
    try:
        launches = measure(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    reps = [r for mode, _, r in launches if mode != "setup"]
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    for r in reps:
        for line in r["errors"]:
            print(f"failed: {line}", file=sys.stderr)
    metrics = per_layer(launches) if args.trace else end_to_end(launches)
    raw = {"setup_s": [s for mode, s, _ in launches if mode != "trace"],
           "setup_probe_s": [r["setup_probe_s"] for mode, _, r in launches if mode != "trace"]}
    for mode in ("plain", "trace") if args.trace else ("plain",):
        raw[f"{mode}_wall_s"] = [r["wall_s"] for m, _, r in launches if m == mode]
        raw[f"{mode}_probe_s"] = [r["ops_probe_s"] for m, _, r in launches if m == mode]
    print(json.dumps({"provenance": {**reps[0]["provenance"], **source_provenance(),
                                     "workload": args.workload, "seed": args.seed,
                                     "setup_ref_s": hostspeed.SETUP_REF_S,
                                     "ops_ref_s": hostspeed.OPS_REF_S,
                                     "raw_samples": raw}}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
