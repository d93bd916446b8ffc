"""The names that the benchmark in ``perfbench/`` reaches stay in the package.

``perfbench/spans.py`` wraps every ``TARGETS`` entry in place, and
``perfbench/worker.py`` fails a boundary distribution that is not a list.
Both run against this source tree, so a deletion here would break them
without any other test noticing.
"""

import importlib
import importlib.util
from fractions import Fraction
from pathlib import Path

from mpmath import mp

from gefp_lab.oracle import WeightGrid, boundary_distribution_oracle
from gefp_lab.params import VertexWeights

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    """perfbench/spans.py as a module, loaded by path and only read."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_exists():
    spans = _load_spans()
    for mod_name, attr in spans.TARGETS:
        owner = importlib.import_module(f"{spans.PACKAGE}.{mod_name}")
        *path, last = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        assert spans._ATTR.get(last, last) in vars(owner), (mod_name, attr)


def test_boundary_distribution_is_a_list_on_both_backends():
    with mp.workprec(128):
        for delta, t in ((Fraction(1, 3), Fraction(3, 4)), (mp.mpf(1) / 3, mp.mpf(3) / 4)):
            grid = WeightGrid.from_weights(4, VertexWeights.from_delta_t(delta, t))
            assert isinstance(boundary_distribution_oracle(grid), list)
