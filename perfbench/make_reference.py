"""Regenerate reference.json: the exact oracle value of every benchmark op.

    python3 perfbench/make_reference.py

Every key any workload uses gets the enumeration oracle's exact value at
the workload point (Delta, t) = (1/3, 3/4): a GEFP as "p/q", or the
boundary distribution H^(1..N) as a list of "p/q".  The benchmark's tests
recompute the values and compare them with the file.
"""

import json
import random
import sys

import worker
from gefp_lab.backends import format_exact, parse_exact
from gefp_lab.oracle import (WeightGrid, YoungProfile,
                             boundary_distribution_oracle, gefp_oracle)
from gefp_lab.params import VertexWeights


def reference_values():
    weights = VertexWeights.from_delta_t(parse_exact(worker.DELTA), parse_exact(worker.T))
    keys = sorted({key for build in worker.WORKLOADS.values()
                   for key, _, _ in build(random.Random(0))})
    out = {}
    for key in keys:
        kind, size, *rest = key.split()
        N = int(size.split("=")[1])
        grid = WeightGrid.from_weights(N, weights)
        if kind == "H":
            out[key] = [format_exact(x) for x in boundary_distribution_oracle(grid, cap=N)]
        else:
            r = tuple(int(x) for x in rest[0].split("=")[1].split(","))
            out[key] = format_exact(gefp_oracle(grid, YoungProfile(N, r)).value)
    return out


def main():
    values = reference_values()
    with open(worker.REFERENCE_FILE, "w") as fh:
        json.dump(values, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(values)} keys")
    return 0


if __name__ == "__main__":
    sys.exit(main())
