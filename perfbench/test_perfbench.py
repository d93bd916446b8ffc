"""The benchmark's own checks.

    python3 -m pytest perfbench -q

Traced repetitions take about a minute in total on a 2-core x86 VM.
"""

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import hostspeed
import make_reference
import run
import spans
import worker

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

RESIDUE = ("residue-exact-sweep", "residue-float-single")
JETS_AND_FLOAT = ("jets-sweep", "residue-float-single")

# Workloads on which each wrapped function must run: the workloads whose
# end-to-end metrics the layer should move (see README.md).
EXPECTED_CALLS = {
    "hfun.h_polynomial": RESIDUE,
    "algebra.UniPoly.mul": RESIDUE,
    "oracle.boundary_distribution_oracle": ("oracle-transfer", "residue-exact-sweep"),
    "oracle.gefp_oracle": ("oracle-transfer",),
    "algebra.TruncatedSeries.mul": JETS_AND_FLOAT,
    "algebra.TruncatedSeries.invert": JETS_AND_FLOAT,
    "gefp.gefp_determinant_jets": ("jets-sweep",),
    "gefp.IntegrandSeries.coefficient": RESIDUE,
    "gefp.residue_workspace": RESIDUE,
    "gefp.gefp_residue": RESIDUE,
    "hfun.build_h_tables": RESIDUE,
    "hfun.boundary_H_table_via_K": ("residue-float-single",),
    "ik.k_polynomial": JETS_AND_FLOAT,
    "algebra.det": JETS_AND_FLOAT,
    "algebra.Jet.mul": JETS_AND_FLOAT,
    "algebra.Jet.invert": JETS_AND_FLOAT,
}


def traced_rep(workload, seed):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
         "--seed", str(seed), "--mode", "trace"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def traced():
    """Two traced repetitions of every workload, with different seeds."""
    return {w: [traced_rep(w, seed) for seed in (1, 2)] for w in worker.WORKLOADS}


def test_every_target_is_mapped():
    assert sorted(EXPECTED_CALLS) == sorted(spans.layer_name(m, a) for m, a in spans.TARGETS)


def test_traced_runs_pass_their_checks(traced):
    for workload, reps in traced.items():
        for rep in reps:
            assert rep["failed"] == 0, (workload, rep["errors"])


def test_mapped_layers_are_called(traced):
    for name, workloads in EXPECTED_CALLS.items():
        for workload in workloads:
            assert traced[workload][0]["layers"][f"{name}.calls"] > 0, (name, workload)


def test_control_workloads_bypass_other_layers(traced):
    jets = traced["jets-sweep"][0]["layers"]
    assert all(jets[f"{n}.calls"] == 0 for n in EXPECTED_CALLS
               if n.startswith(("hfun.", "oracle.")))
    transfer = traced["oracle-transfer"][0]["layers"]
    assert all(transfer[f"{n}.calls"] == 0 for n in EXPECTED_CALLS
               if not n.startswith("oracle."))


def test_counts_repeat_exactly(traced):
    for workload, (a, b) in traced.items():
        counts = [k for k in a["layers"]
                  if k.endswith((".calls", ".terms", ".hit_ratio"))]
        assert counts
        assert {k: a["layers"][k] for k in counts} == {k: b["layers"][k] for k in counts}


def test_result_lines_carry_the_declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", "jets-sweep",
             "--seed", "3", "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
        result = json.loads(proc.stdout.splitlines()[-1])
        assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
        assert result["correct"] and result["failed"] == 0
        declared = {m["name"]: m["unit"] for m in spec[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "jets-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_reference_matches_the_oracle():
    with open(worker.REFERENCE_FILE) as fh:
        assert json.load(fh) == make_reference.reference_values()


def test_agreement_bits():
    assert worker.agreed_bits(Fraction(0)) == worker.AGREEMENT_CEILING_BITS
    assert worker.agreed_bits(Fraction(1, 2 ** 52)) == 52
    failed, bits = worker.check("k", True, Fraction(1, 3) * (1 + Fraction(1, 2 ** 40)),
                                {"k": "1/3"})
    assert failed and 39 < bits < 41
    assert worker.check("k", False, Fraction(1, 3), {"k": "1/3"}) == (False, 512.0)


def test_one_failed_operation_shows_in_passed_frac():
    clean = {"attempted": 209, "failed": 0, "wall_s": 1.0, "cpu_s": 1.0,
             "peak_rss_mb": 20.0, "min_agreed_bits": 512.0,
             "setup_probe_s": 1e-4, "ops_probe_s": 1e-4}
    launches = [("plain", 0.1, clean)] * 9 + [("plain", 0.1, {**clean, "failed": 1})]
    assert run.end_to_end(launches)["passed_frac"][0] == 1 - 1 / 209


def test_times_scale_with_the_host_speed_probe():
    rep = {"attempted": 1, "failed": 0, "wall_s": 3.0, "cpu_s": 2.9,
           "peak_rss_mb": 20.0, "min_agreed_bits": 512.0,
           "setup_probe_s": 2 * hostspeed.SETUP_REF_S, "ops_probe_s": 1.5 * hostspeed.OPS_REF_S}
    metrics = run.end_to_end([("plain", 0.2, rep)])
    assert metrics["setup_s"][0] == pytest.approx(0.1)
    assert metrics["wall_s"][0] == pytest.approx(2.0)
