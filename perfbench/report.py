"""Run every workload once and print each end-to-end metric with its unit.

    python3 perfbench/report.py

Each workload runs for BENCHMARK.json's ``run_seconds`` with seed 1.
Adds ``failed_frac`` (failed / attempted operations) per workload, from
the result's own counts.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 1


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    status = 0
    for w in spec["workloads"]:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", w["name"],
             "--seed", str(SEED), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"{w['name']}: run failed\n{proc.stderr}")
            status = 1
            continue
        provenance, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
        info = {k: v for k, v in provenance["provenance"].items() if k != "raw_samples"}
        print(f"{w['name']}  ({json.dumps(info)})")
        for name, m in result["metrics"].items():
            print(f"  {name:16s} {m['value']:.6g} {m['unit']}")
        print(f"  {'failed_frac':16s} {result['failed'] / result['attempted']:.6g} "
              f"({result['failed']} of {result['attempted']} operations)")
    return status


if __name__ == "__main__":
    sys.exit(main())
