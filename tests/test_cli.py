import concurrent.futures
import csv
import io
import json
import os
import resource
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from gefp_lab import cli, gefp, ik, oracle, verify
from gefp_lab.backends import format_scalar
from gefp_lab.cli import main
from gefp_lab.gefp import gefp_residue
from gefp_lab.oracle import YoungProfile
from gefp_lab.params import delta_t_from_trig, lambda_eta_from_delta_t


def run_cli(capsys, *argv):
    """(exit code, stdout, stderr); an argparse refusal gives its exit code."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gefp_exact_residue_json(capsys):
    code, out, _ = run_cli(capsys, "gefp", "--N", "3", "--r", "2,3",
                           "--delta", "1/2", "--t", "1",
                           "--engine", "residue", "--backend", "exact")
    assert code == 0
    rec = json.loads(out)
    assert rec["schema"] == "gefp-lab/1"
    assert rec["value"] == "5/7"
    assert rec["engine"] == "residue" and rec["backend"] == "exact"
    assert rec["precision_bits"] is None and rec["wall_time_ms"] is None
    assert rec["inputs"]["r"] == [2, 3]


def test_gefp_blocked_profile_is_zero(capsys):
    code, out, _ = run_cli(capsys, "gefp", "--N", "2", "--r", "1,1",
                           "--delta", "1/2", "--t", "1")
    assert code == 0
    assert json.loads(out)["value"] == "0/1"


def test_gefp_oracle_engine_agrees(capsys):
    _, out1, _ = run_cli(capsys, "gefp", "--N", "3", "--r", "2,3",
                         "--delta", "1/2", "--t", "1", "--engine", "oracle")
    _, out2, _ = run_cli(capsys, "gefp", "--N", "3", "--r", "2,3",
                         "--delta", "1/2", "--t", "1", "--engine", "residue")
    assert json.loads(out1)["value"] == json.loads(out2)["value"]


def test_partition_ik_hom_single_site(capsys):
    code, out, _ = run_cli(capsys, "partition", "--N", "1",
                           "--lambda", "1.5707963", "--eta", "0.5235987",
                           "--engine", "ik-hom", "--backend", "float")
    assert code == 0
    rec = json.loads(out)
    value = mp.mpf(rec["value"])
    assert abs(value - mp.sqrt(3) / 2) < 1e-6     # sin(2 eta) at eta ~ pi/6
    assert rec["precision_bits"] == 128


def test_partition_ik_with_rapidity_lists(capsys):
    code, out, _ = run_cli(capsys, "partition", "--N", "2", "--backend", "float",
                           "--engine", "ik", "--lambdas", "0.3,0.7",
                           "--nus", "0.1,0.5", "--eta", "0.4")
    assert code == 0
    rec = json.loads(out)
    assert rec["engine"] == "ik"
    # the enumeration engine needs homogeneous parameters, not rapidity lists
    code2, _, _ = run_cli(capsys, "partition", "--N", "2", "--backend", "float",
                          "--engine", "oracle", "--lambdas", "0.3,0.7",
                          "--nus", "0.1,0.5", "--eta", "0.4")
    assert code2 == 2


def test_nonmonotone_profile_exits_2(capsys):
    code, _, err = run_cli(capsys, "gefp", "--N", "3", "--r", "3,2",
                           "--delta", "1/2", "--t", "1")
    assert code == 2
    assert "1 <= r_1 <= r_2 <= ... <= r_s <= N" in err


def test_engine_backend_mismatch_exits_2(capsys):
    code, _, err = run_cli(capsys, "gefp", "--N", "3", "--r", "2,3",
                           "--delta", "1/2", "--t", "1", "--engine", "jets",
                           "--backend", "exact")
    assert code == 2
    code, _, err = run_cli(capsys, "gefp", "--N", "3", "--r", "2,3",
                           "--lambda", "1.1", "--eta", "0.35",
                           "--backend", "exact")
    assert code == 2


DEGENERATE = ["--lambda", "0", "--eta", "0", "--backend", "float"]
# b = sin(lambda - eta) < 0
NONPHYSICAL_TRIG = ["--lambda", "0.2", "--eta", "0.35", "--backend", "float"]


def test_computation_error_exits_3_with_class_name(capsys):
    # c^2 = 2 has no rational square root, so exact Z_N is unavailable
    code, out, err = run_cli(capsys, "partition", "--N", "2",
                             "--delta", "0", "--t", "1",
                             "--engine", "oracle", "--backend", "exact")
    assert code == 3 and out == ""
    assert err.startswith("error: Unsupported:")


@pytest.mark.parametrize("argv, name", [
    # lambda = eta = 0: a = sin(lambda + eta) = 0
    (["gefp", "--N", "3", "--r", "2,3", *DEGENERATE, "--engine", "jets"],
     "DivisionByZero"),
    (["gefp", "--N", "3", "--r", "2,3", *DEGENERATE, "--engine", "residue"],
     "DivisionByZero"),
    (["efp", "--N", "3", "--s", "2", "--r", "2", *DEGENERATE, "--engine", "jets"],
     "DivisionByZero"),
    # eta = 0: c = sin(2 eta) = 0
    (["gefp", "--engine", "jets", "--N", "4", "--r", "1,2", "--lambda", "1", "--eta", "0",
      "--backend", "float", "--allow-nonphysical"], "DivisionByZero"),
    # b = sin(lambda - eta) < 0
    (["gefp", "--N", "3", "--r", "2,3", "--lambda", "0", "--eta", "0.3",
      "--engine", "jets", "--backend", "float"], "NonphysicalWeights"),
    (["efp", "--N", "3", "--s", "2", "--r", "3", "--lambda", "0", "--eta", "0.3",
      "--engine", "jets", "--backend", "float"], "NonphysicalWeights"),
    # a = sin(lambda - nu + eta) = 0 at one site
    (["partition", "--N", "1", "--lambdas", "0", "--nus", "0.1", "--eta", "0.1",
      "--engine", "ik", "--backend", "float"], "DivisionByZero"),
    (["hfun", "--N", "3", *NONPHYSICAL_TRIG, "--engine", "kpoly"], "NonphysicalWeights"),
    (["partition", "--N", "3", *NONPHYSICAL_TRIG, "--engine", "ik-hom"],
     "NonphysicalWeights"),
    # a float point past 10^4300, whose exact digits Python will not print
    (["gefp", "--N", "4", "--r", "2", "--delta", "1e5000", "--t", "3/4", "--backend", "float"],
     "NonphysicalWeights"),
    (["gefp", "--N", "4", "--r", "2", "--delta", "1/3", "--t", "-1e5000", "--backend", "float"],
     "NonphysicalWeights"),
    (["table", "--N", "3", "--delta", "1e5000", "--t", "0.75", "--backend", "float"],
     "NonphysicalWeights"),
], ids=["jets-degenerate", "residue-degenerate", "efp-jets-degenerate",
        "jets-vanishing-c", "jets-nonphysical", "efp-jets-nonphysical", "ik-vanishing-weight",
        "kpoly-nonphysical", "ik-hom-nonphysical", "residue-huge-delta", "residue-huge-t",
        "table-huge-delta"])
def test_bad_weights_exit_3_with_class_name(capsys, argv, name):
    code, out, err = run_cli(capsys, *argv)
    assert code == 3 and out == ""
    assert err.startswith(f"error: {name}:")


@pytest.mark.parametrize("argv", [
    ["hfun", "--N", "3", *NONPHYSICAL_TRIG, "--engine", "kpoly"],
    ["partition", "--N", "3", *NONPHYSICAL_TRIG, "--engine", "ik-hom"],
], ids=["kpoly", "ik-hom"])
def test_allow_nonphysical_admits_the_trig_engines(capsys, argv):
    code, out, _ = run_cli(capsys, *argv, "--allow-nonphysical")
    assert code == 0 and json.loads(out)["value"]


@pytest.mark.parametrize("argv", [
    ["gefp", "--N", "3", "--r", ""],
    ["efp", "--N", "3", "--s", "0", "--r", "2"],
    ["table", "--N", "3", "--s", "0"],
], ids=["gefp", "efp", "table"])
def test_empty_profile_checks_physicality(capsys, argv):
    # Delta = 5, t = -1 gives b < 0: refused like any other profile
    point = ["--delta", "5", "--t", "-1"]
    code, out, err = run_cli(capsys, *argv, *point)
    assert code == 3 and out == ""
    assert err.startswith("error: NonphysicalWeights:")
    code, out, _ = run_cli(capsys, *argv, *point, "--allow-nonphysical")
    assert code == 0 and json.loads(out)["value"] == "1/1"


@pytest.mark.parametrize("backend, point, shown", [
    ("float", ["--delta", "0.7", "--t", "-0.3"], "a=1.0, b=-0.3, c^2=1.51"),
    ("exact", ["--delta", "7/10", "--t", "-3/10"], "a=1, b=-3/10, c^2=151/100"),
], ids=["float", "exact"])
def test_nonphysical_residue_shows_the_weights_as_the_oracle_does(capsys, backend, point,
                                                                   shown):
    # the residue engine decides on the rationals its inputs hold, and shows
    # a float point's weights as floats
    argv = ["gefp", "--N", "5", "--r", "1,3", *point, "--backend", backend]
    errors = []
    for engine in ("residue", "oracle"):
        code, out, err = run_cli(capsys, *argv, "--engine", engine)
        assert code == 3 and out == ""
        errors.append(err)
    assert errors[0] == errors[1] == ("error: NonphysicalWeights: weights must be positive "
                                      f"in physical mode: {shown}\n")


@pytest.mark.parametrize("argv", [
    ["efp", "--N", "40", "--s", "6", "--r", "3"],
    ["gefp", "--N", "30", "--r", "1,2,3,4,5"],
    ["gefp", "--N", "15", "--r", "1,2,3,4"],
])
def test_jets_box_cap_exits_3_before_compute(capsys, monkeypatch, argv):
    def no_build(*args):
        raise AssertionError("the workspace was built")

    monkeypatch.setattr(gefp, "_build_jets_workspace", no_build)
    code, out, err = run_cli(capsys, *argv, "--delta", "1/3", "--t", "3/4",
                             "--engine", "jets", "--backend", "float")
    assert code == 3 and out == ""
    assert err.startswith("error: TooLarge:")


OVERSIZE = ["--N", "99999999999", "--delta", "1/3", "--t", "3/4"]


@pytest.mark.parametrize("argv", [
    ["gefp", "--r", "1"],
    ["gefp", "--r", "1", "--engine", "oracle"],
    ["efp", "--s", "1", "--r", "1"],
    ["efp", "--s", "1", "--r", "1", "--engine", "oracle"],
    ["partition"],
    ["hfun"],
    ["cutdomain", "--r", "1"],
    ["efp", "--s", "99999999999", "--r", "1"],
    ["efp", "--s", "99999999999", "--r", "1", "--engine", "oracle"],
])
def test_oversize_n_is_refused_before_the_grid(capsys, monkeypatch, argv):
    def no_grid(*args):
        raise AssertionError("the O(N) weight grid was built")

    monkeypatch.setattr(oracle.WeightGrid, "from_weights", no_grid)
    code, out, err = run_cli(capsys, *argv, *OVERSIZE)
    assert code == 3 and out == ""
    assert err.startswith("error: TooLarge: N=99999999999 exceeds the enumeration cap")


@pytest.mark.parametrize("cap, code, refusal", [
    ("99999999999", 2, "argument --oracle-cap: must be at most 20, got 99999999999"),
    ("21", 2, "argument --oracle-cap: must be at most 20, got 21"),
    ("20", 3, "error: TooLarge: N=99999999999 exceeds the enumeration cap 20"),
])
def test_oracle_cap_above_the_ceiling_exits_2_before_the_grid(capsys, monkeypatch, cap, code,
                                                             refusal):
    def no_grid(*args):
        raise AssertionError("the O(N) weight grid was built")

    monkeypatch.setattr(oracle.WeightGrid, "from_weights", no_grid)
    for argv in (["gefp", "--r", "1"], ["hfun"], ["partition"]):
        got, out, err = run_cli(capsys, *argv, *OVERSIZE, "--engine", "oracle",
                                "--oracle-cap", cap)
        assert (got, out) == (code, "") and refusal in err, argv


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("engine, code, refusal", [
    (["--engine", "residue"], 3, "TooLarge: N=99999999999 exceeds the enumeration cap 8"),
    (["--engine", "oracle"], 3, "TooLarge: N=99999999999 exceeds the enumeration cap 8"),
    (["--engine", "jets", "--backend", "float"], 3,
     "TooLarge: N=99999999999 exceeds the K-route cap"),
    (["--engine", "jets"], 2, "--engine jets runs in the float backend"),
], ids=["residue", "oracle", "jets", "jets-exact"])
def test_oversize_table_is_refused_before_any_profile(engine, code, refusal):
    # listing the N profiles of length 1, or walking range(1, N + 1), would
    # spin or fill memory; a child process with 1 GiB and 20 s ends either
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    result = subprocess.run([sys.executable, "-m", "gefp_lab.cli", "table", *OVERSIZE, *engine],
                            capture_output=True, text=True, env=env, timeout=20,
                            preexec_fn=_limit_memory)
    assert result.returncode == code and result.stdout == ""
    assert result.stderr.startswith(f"error: {refusal}")


@pytest.mark.parametrize("argv", [
    ["gefp", "--N", "40000", "--r", "1", "--engine", "jets"],
    ["gefp", "--N", "65", "--r", "65,65", "--engine", "jets"],
    ["efp", "--N", "40000", "--s", "1", "--r", "1", "--engine", "jets"],
    ["table", "--N", "40000", "--s", "1", "--engine", "jets"],
    ["hfun", "--N", "99999999999", "--engine", "kpoly"],
    ["partition", "--N", "40000", "--engine", "ik-hom"],
])
def test_k_route_refuses_n_above_its_cap_before_any_input(capsys, monkeypatch, argv):
    def no_build(*args):
        raise AssertionError("a K-route input was built")

    for target in (gefp, "_JetsInputs"), (gefp, "phi_derivatives"), (ik, "phi_derivatives"):
        monkeypatch.setattr(*target, no_build)
    code, out, err = run_cli(capsys, *argv, "--lambda", "1.1", "--eta", "0.35",
                             "--backend", "float")
    assert code == 3 and out == ""
    assert err.startswith(f"error: TooLarge: N={argv[2]} exceeds the K-route cap")


def test_nonphysical_jets_agrees_with_residue(capsys):
    argv = ["gefp", "--N", "3", "--r", "2,3", "--lambda", "0", "--eta", "0.3",
            "--backend", "float", "--allow-nonphysical"]
    code, out, _ = run_cli(capsys, *argv, "--engine", "jets")
    assert code == 0
    code, out_residue, _ = run_cli(capsys, *argv, "--engine", "residue")
    assert code == 0
    jets, residue = json.loads(out), json.loads(out_residue)
    prec = jets["precision_bits"]
    with mp.workprec(prec):
        jv, rv = mp.mpf(jets["value"]), mp.mpf(residue["value"])
        assert abs(jv - rv) <= mp.mpf(2) ** (20 - prec) * abs(rv)


def test_float_residue_at_n6_s5_is_one(capsys):
    # r_s = N drops the last row without changing the value, down to s = 0
    code, out, _ = run_cli(capsys, "gefp", "--N", "6", "--r", "6,6,6,6,6",
                           "--delta", "1/3", "--t", "3/4", "--backend", "float")
    assert code == 0
    rec = json.loads(out)
    prec = rec["precision_bits"]
    with mp.workprec(prec):
        assert abs(mp.mpf(rec["value"]) - 1) <= mp.mpf(2) ** (16 - prec)


def test_duplicate_rapidity_exits_3(capsys):
    code, _, err = run_cli(capsys, "partition", "--N", "2", "--backend", "float",
                           "--engine", "ik", "--lambdas", "0.3,0.3",
                           "--nus", "0.1,0.5", "--eta", "0.4")
    assert code == 3
    assert "DuplicateRapidity" in err


def test_byte_identical_output(capsys):
    argv = ["gefp", "--N", "4", "--r", "2,4", "--lambda", "1.1", "--eta", "0.35",
            "--engine", "jets", "--backend", "float"]
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2
    argv = ["gefp", "--N", "3", "--r", "2,3", "--delta", "1/2", "--t", "1"]
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2


def test_timing_flag_adds_wall_time(capsys):
    _, out, _ = run_cli(capsys, "gefp", "--N", "2", "--r", "1",
                        "--delta", "1/2", "--t", "1", "--timing")
    assert json.loads(out)["wall_time_ms"] is not None


def test_table_timing_times_each_row(capsys):
    argv = ["table", "--N", "2", "--delta", "1/3", "--t", "3/4"]
    _, out, _ = run_cli(capsys, *argv, "--timing")
    assert all(row["wall_time_ms"] > 0 for row in json.loads(out))
    _, out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert out == (
        "schema,command,engine,backend,N,r,s,mu,delta,t,lambda,eta,lambdas,nus,"
        "precision_bits,value,wall_time_ms\n"
        "gefp-lab/1,table,residue,exact,2,1,,,1/3,3/4,,,,,,16/25,\n"
        "gefp-lab/1,table,residue,exact,2,2,,,1/3,3/4,,,,,,1/1,\n"
        "gefp-lab/1,table,residue,exact,2,1 1,,,1/3,3/4,,,,,,0/1,\n"
        "gefp-lab/1,table,residue,exact,2,1 2,,,1/3,3/4,,,,,,16/25,\n"
        "gefp-lab/1,table,residue,exact,2,2 2,,,1/3,3/4,,,,,,1/1,\n")
    _, out, _ = run_cli(capsys, *argv)
    assert all(row["wall_time_ms"] is None for row in json.loads(out))


def test_csv_format(capsys):
    code, out, _ = run_cli(capsys, "gefp", "--N", "3", "--r", "2,3",
                           "--delta", "1/2", "--t", "1", "--format", "csv")
    assert code == 0
    header, row = out.strip().split("\n")
    cols = header.split(",")
    vals = row.split(",")
    assert vals[cols.index("value")] == "5/7"
    assert vals[cols.index("r")] == "2 3"


def test_csv_quotes_a_structured_value(capsys):
    code, out, _ = run_cli(capsys, "hfun", "--N", "3", *RATIONAL_POINT, "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1 and len(rows[0]) == 17 and None not in rows[0]
    _, out_json, _ = run_cli(capsys, "hfun", "--N", "3", *RATIONAL_POINT)
    assert json.loads(rows[0]["value"])["H"] == json.loads(out_json)["value"]["H"]


def test_text_format(capsys):
    code, out, _ = run_cli(capsys, "gefp", "--N", "3", "--r", "2,3",
                           "--delta", "1/2", "--t", "1", "--format", "text")
    assert code == 0
    assert "value: 5/7" in out


def test_hfun_command(capsys):
    code, out, _ = run_cli(capsys, "hfun", "--N", "3", "--delta", "1/2",
                           "--t", "1", "--engine", "oracle")
    assert code == 0
    rec = json.loads(out)
    assert rec["value"]["H"] == ["2/7", "3/7", "2/7"]
    assert rec["value"]["h_poly_coeffs"] == ["2/7", "3/7", "2/7"]
    assert rec["backend"] == "exact" and rec["precision_bits"] is None


def test_hfun_kpoly_converts_delta_t(capsys):
    float_point = RATIONAL_POINT + ["--backend", "float", "--precision", "128"]
    code, out, _ = run_cli(capsys, "hfun", "--N", "3", "--engine", "kpoly", *float_point)
    assert code == 0
    with mp.workprec(128):
        lam, eta = lambda_eta_from_delta_t(Fraction(1, 3), Fraction(3, 4))
        trig = ["--lambda", mp.nstr(lam, 60), "--eta", mp.nstr(eta, 60)]
    code, out_trig, _ = run_cli(capsys, "hfun", "--N", "3", "--engine", "kpoly",
                                *trig, "--backend", "float", "--precision", "128")
    assert code == 0
    rec, rec_trig = json.loads(out), json.loads(out_trig)
    assert rec.pop("inputs") != rec_trig.pop("inputs")
    assert rec == rec_trig
    code, out, err = run_cli(capsys, "hfun", "--N", "3", "--engine", "kpoly",
                             *RATIONAL_POINT)
    assert code == 2 and out == "" and "float backend" in err


def test_hfun_kpoly_refuses_a_trig_point_with_vanishing_a(capsys):
    code, out, err = run_cli(capsys, "hfun", "--engine", "kpoly", "--N", "3",
                             "--lambda", "-0.3", "--eta", "0.3", "--backend", "float",
                             "--allow-nonphysical")
    assert code == 3 and out == ""
    assert err.startswith("error: DivisionByZero:")


# Delta = 4, t = 1: c^2 = -6, and Z_3 / c^3 = 6 + c^2 = 0
VANISHING_Z = ["--N", "3", "--delta", "4", "--t", "1", "--allow-nonphysical"]


@pytest.mark.parametrize("argv", [
    ["gefp", "--r", "2", *VANISHING_Z],
    ["gefp", "--r", "2", *VANISHING_Z, "--backend", "float"],
    ["gefp", "--r", "2", *VANISHING_Z, "--engine", "oracle"],
    ["hfun", *VANISHING_Z],
    ["table", *VANISHING_Z],
], ids=["residue", "residue-float", "oracle", "hfun", "table"])
def test_vanishing_partition_sum_exits_3(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 3 and out == ""
    assert err.startswith("error: DivisionByZero:") and "Z_3" in err


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_residue_refuses_n9_before_any_transfer(capsys, monkeypatch, cold_oracle, backend):
    def no_transfer(*args):
        raise AssertionError("the transfer ran")

    monkeypatch.setattr(oracle, "_row", no_transfer)
    code, out, err = run_cli(capsys, "gefp", "--N", "9", "--r", "1,2", "--delta", "1/3",
                             "--t", "3/4", "--backend", backend)
    assert code == 3 and out == ""
    assert err.startswith("error: TooLarge:")


def test_hfun_oracle_reaches_n10_and_refuses_n11_before_compute(capsys, monkeypatch,
                                                                cold_oracle):
    argv = ["hfun", "--engine", "oracle", "--oracle-cap", "10", "--delta", "1/3", "--t", "3/4"]
    code, out, _ = run_cli(capsys, *argv, "--N", "10")
    assert code == 0
    assert sum(Fraction(h) for h in json.loads(out)["value"]["H"]) == 1

    def no_transfer(*args):
        raise AssertionError("the transfer ran")

    monkeypatch.setattr(oracle, "_row", no_transfer)
    code, out, err = run_cli(capsys, *argv, "--N", "11")
    assert code == 3 and out == ""
    assert "TooLarge" in err


def test_efp_command(capsys):
    code, out, _ = run_cli(capsys, "efp", "--N", "4", "--s", "2", "--r", "3",
                           "--delta", "1/2", "--t", "1")
    assert code == 0
    rec = json.loads(out)
    assert rec["engine"] == "efp/residue"
    _, out2, _ = run_cli(capsys, "gefp", "--N", "4", "--r", "3,3",
                         "--delta", "1/2", "--t", "1")
    assert rec["value"] == json.loads(out2)["value"]


def test_efp_jets_converts_delta_t(capsys):
    code, out, _ = run_cli(capsys, "efp", "--N", "3", "--s", "2", "--r", "2",
                           "--delta", "1/2", "--t", "1", "--engine", "jets",
                           "--backend", "float")
    assert code == 0
    rec = json.loads(out)
    assert rec["engine"] == "efp/jets"
    _, out2, _ = run_cli(capsys, "gefp", "--N", "3", "--r", "2,2", "--delta", "1/2",
                         "--t", "1", "--engine", "jets", "--backend", "float")
    assert rec["value"] == json.loads(out2)["value"]


RATIONAL_POINT = ["--delta", "1/3", "--t", "3/4"]
TRIG_POINT = ["--lambda", "1.1", "--eta", "0.35", "--backend", "float"]


@pytest.mark.parametrize("engine", ["residue", "jets", "oracle"])
@pytest.mark.parametrize("point", [RATIONAL_POINT, RATIONAL_POINT + ["--backend", "float"],
                                   TRIG_POINT], ids=["exact", "float", "trig"])
def test_efp_is_the_gefp_of_the_rectangular_profile(capsys, engine, point):
    code, out, _ = run_cli(capsys, "efp", "--N", "4", "--s", "2", "--r", "3",
                           "--engine", engine, *point)
    code2, out2, _ = run_cli(capsys, "gefp", "--N", "4", "--r", "3,3",
                             "--engine", engine, *point)
    assert code == code2 == (2 if (engine, point) == ("jets", RATIONAL_POINT) else 0)
    if code == 0:
        efp, gefp_rec = json.loads(out), json.loads(out2)
        assert efp["engine"] == f"efp/{gefp_rec['engine']}"
        for key in ("backend", "precision_bits", "value"):
            assert efp[key] == gefp_rec[key]


def test_float_residue_at_a_trig_point_takes_delta_t_from_trig(capsys):
    code, out, _ = run_cli(capsys, "gefp", "--N", "4", "--r", "2,4", "--engine", "residue",
                           *TRIG_POINT)
    assert code == 0
    with mp.workprec(128):
        delta, t = delta_t_from_trig(mp.mpf("1.1"), mp.mpf("0.35"))
        value = gefp_residue(4, YoungProfile(4, (2, 4)), delta, t, "float").value
        assert json.loads(out)["value"] == format_scalar(value)


def test_efp_jets_on_exact_backend_exits_2(capsys):
    code, out, err = run_cli(capsys, "efp", "--N", "3", "--s", "2", "--r", "2",
                             "--delta", "1/2", "--t", "1", "--engine", "jets")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "float backend" in err


def test_cutdomain_command(capsys):
    code, out, _ = run_cli(capsys, "cutdomain", "--N", "2", "--r", "1",
                           "--delta", "1/2", "--t", "1")
    assert code == 0
    rec = json.loads(out)
    assert rec["value"] == "1/1"
    assert rec["inputs"]["mu"] == [1]


def test_table_command_sorted(capsys):
    code, out, _ = run_cli(capsys, "table", "--N", "3", "--delta", "1/2",
                           "--t", "1", "--engine", "residue")
    assert code == 0
    rows = json.loads(out)
    keys = [(len(r["inputs"]["r"]), r["inputs"]["r"]) for r in rows]
    assert keys == sorted(keys)
    assert len(rows) == 3 + 6 + 10


def test_table_restricted_to_s(capsys):
    code, out, _ = run_cli(capsys, "table", "--N", "3", "--s", "1",
                           "--delta", "1/2", "--t", "1")
    rows = json.loads(out)
    assert len(rows) == 3


def test_table_refuses_oversize_N_at_its_first_row(capsys, monkeypatch):
    # profiles are listed one length at a time, never all C(2N, N) up front
    real = cli.all_profiles

    def one_length(N, s=None):
        if s is None:
            raise AssertionError("every profile length was listed at once")
        return real(N, s)

    monkeypatch.setattr(cli, "all_profiles", one_length)
    code, out, err = run_cli(capsys, "table", "--N", "9", "--delta", "1/3", "--t", "3/4")
    assert code == 3 and out == ""
    assert err.startswith("error: TooLarge:")


def test_table_jets_refuses_the_largest_box_before_any_row(capsys, monkeypatch):
    # s = 1..4 fit under the cap at N = 9, s = 5 does not
    def no_workspace(*args):
        raise AssertionError("a jets workspace was built")

    monkeypatch.setattr(gefp, "jets_workspace", no_workspace)
    code, out, err = run_cli(capsys, "table", "--N", "9", "--engine", "jets", *TRIG_POINT)
    assert code == 3 and out == ""
    assert err.startswith("error: TooLarge:") and "9^9" in err


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_table_residue_refuses_the_largest_box_before_any_row(capsys, monkeypatch, backend):
    # s = 1..6 fit under the cap at N = 8, s = 7 and 8 do not
    def no_workspace(*args, **kwargs):
        raise AssertionError("a residue workspace was built")

    monkeypatch.setattr(gefp, "residue_workspace", no_workspace)
    code, out, err = run_cli(capsys, "table", "--N", "8", "--delta", "1/3", "--t", "3/4",
                             "--engine", "residue", "--backend", backend)
    assert code == 3 and out == ""
    assert err.startswith("error: TooLarge:") and "cap 7^7" in err


@pytest.mark.parametrize("engine, point, conversion", [
    ("jets", ["--delta", "1/3", "--t", "3/4", "--backend", "float"], "lambda_eta_from_delta_t"),
    ("residue", TRIG_POINT, "delta_t_from_trig")])
def test_table_converts_the_parameters_once(capsys, monkeypatch, engine, point, conversion):
    real, calls = getattr(cli, conversion), []
    monkeypatch.setattr(cli, conversion, lambda *args: calls.append(args) or real(*args))
    code, out, _ = run_cli(capsys, "table", "--N", "3", "--engine", engine, *point)
    assert code == 0 and len(json.loads(out)) == 19
    assert len(calls) == 1


def test_precision_flag_and_env(capsys, monkeypatch):
    _, out, _ = run_cli(capsys, "partition", "--N", "1", "--lambda", "1.1",
                        "--eta", "0.35", "--engine", "ik-hom",
                        "--backend", "float", "--precision", "192")
    assert json.loads(out)["precision_bits"] == 192
    monkeypatch.setenv("GEFP_LAB_PRECISION", "160")
    _, out, _ = run_cli(capsys, "partition", "--N", "1", "--lambda", "1.1",
                        "--eta", "0.35", "--engine", "ik-hom",
                        "--backend", "float")
    assert json.loads(out)["precision_bits"] == 160


def test_missing_parameters_exit_2(capsys):
    code, _, err = run_cli(capsys, "gefp", "--N", "3", "--r", "2,3")
    assert code == 2
    code, _, err = run_cli(capsys, "gefp", "--N", "3", "--r", "2,3",
                           "--delta", "1/2", "--t", "1", "--lambda", "1.1",
                           "--eta", "0.3")
    assert code == 2


def test_verify_quick_subset(capsys):
    code = main(["verify", "--level", "quick", "--criteria", "8",
                 "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert all(c["passed"] for c in payload["checks"])


def test_verify_records_keep_their_fields_in_order(capsys):
    rows = [rec._asdict() for rec in verify.run_criterion(8, "quick")]
    assert [list(rec) for rec in rows] == [["criterion", "name", "passed", "detail"]] * 2
    assert rows[0]["detail"] == "Z_1=1 Z_2=2 Z_3=7" and rows[1]["detail"] == ""
    code, out, _ = run_cli(capsys, "verify", "--level", "quick", "--criteria", "8",
                           "--format", "json")
    assert code == 0
    checks = dict(json.loads(out, object_pairs_hook=list))["checks"]
    assert [[key for key, _ in rec] for rec in checks] == [["criterion", "detail", "name",
                                                             "passed"]] * 2


def test_verify_prints_each_record_by_its_own_line(capsys, monkeypatch):
    # a failing criterion: text mode prints CheckRecord.line(), the detail in
    # parentheses on the same line, and json its fields
    records = [verify.CheckRecord("criterion-8", "holds", True, "kept quiet"),
               verify.CheckRecord("criterion-8", "breaks", False, "Z_3=8, expected 7")]
    monkeypatch.setitem(verify.CRITERIA, 8, lambda level: records)
    code, out, _ = run_cli(capsys, "verify", "--level", "quick", "--criteria", "8")
    assert code == 1
    assert out == ("[PASS] criterion-8: holds\n"
                   "[FAIL] criterion-8: breaks  (Z_3=8, expected 7)\n"
                   "verify: FAILURES\n")
    assert out.splitlines()[:2] == [rec.line() for rec in records]
    code, out, _ = run_cli(capsys, "verify", "--level", "quick", "--criteria", "8",
                           "--format", "json")
    payload = json.loads(out)
    assert code == 1 and payload["passed"] is False
    assert payload["checks"] == [rec._asdict() for rec in records]


def test_verify_worker_pool_matches_serial(capsys):
    for criteria in ([], ["--criteria", "1,3"]):
        argv = ["verify", "--level", "quick", "--format", "json", *criteria]
        code, serial, _ = run_cli(capsys, *argv)
        assert code == 0
        code, parallel, _ = run_cli(capsys, *argv, "--workers", "2")
        assert code == 0 and serial == parallel
    checks = json.loads(serial)["checks"]
    assert {c["criterion"] for c in checks} == {"criterion-1", "criterion-3"}


def test_verify_pool_is_no_larger_than_the_criteria(capsys, monkeypatch):
    # a pool that records its size and runs the jobs in this process
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return list(map(fn, jobs))

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    argv = ["verify", "--level", "quick", "--criteria", "8"]
    code, serial, _ = run_cli(capsys, *argv)
    assert code == 0
    code, pooled, _ = run_cli(capsys, *argv, "--workers", "1000")
    assert code == 0 and pooled == serial
    assert sizes == [1]


def test_verify_runs_a_repeated_criterion_once(capsys):
    argv = ["verify", "--level", "quick", "--format", "json", "--criteria"]
    once = run_cli(capsys, *argv, "8")
    assert run_cli(capsys, *argv, "8,8")[:2] == once[:2] and once[0] == 0


@pytest.mark.parametrize("text", ["x", "1,", "9", "0,2"])
def test_bad_criteria_exit_2(capsys, text):
    code, out, err = run_cli(capsys, "verify", "--level", "quick", "--criteria", text)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "--criteria" in err


@pytest.mark.parametrize("argv", [
    ["hfun", "--N", "3", "--delta", "1/2", "--t", "1", "--engine", "oracle"],
    ["efp", "--N", "3", "--s", "2", "--r", "2", "--delta", "1/2", "--t", "1",
     "--engine", "oracle"],
])
def test_oracle_cap_exits_3(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--oracle-cap", "2")
    assert code == 3 and out == ""
    assert "TooLarge" in err


@pytest.mark.parametrize("argv", [
    ["partition", "--N", "1", "--lambda", "1.1", "--eta", "0.35",
     "--engine", "ik-hom", "--backend", "float", "--jet-order", "1"],
    ["verify", "--level", "quick", "--criteria", "8", "--precision", "64"],
    ["verify", "--level", "quick", "--criteria", "8", "--timing"],
    ["table", "--N", "3", "--delta", "1/2", "--t", "1", "--workers", "2"],
])
def test_removed_flags_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_verify_validates_precision_env(capsys, monkeypatch):
    monkeypatch.setenv("GEFP_LAB_PRECISION", "abc")
    code, out, err = run_cli(capsys, "verify", "--level", "quick", "--criteria", "8")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "GEFP_LAB_PRECISION" in err


@pytest.mark.parametrize("flag, argv", [
    ("--t", ["--delta", "1/2", "--t", "1/0"]),
    ("--delta", ["--delta", "abc", "--t", "1"]),
    ("--delta", ["--delta", "abc", "--t", "1", "--backend", "float"]),
    ("--delta", ["--delta", "0.5", "--t", "1"]),
    ("--t", ["--delta", "1/2", "--t", "0.75"]),
])
def test_malformed_number_exits_2(capsys, flag, argv):
    code, out, err = run_cli(capsys, "gefp", "--N", "3", "--r", "2,3", *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and flag in err


@pytest.mark.parametrize("flag, argv", [
    ("--delta", ["gefp", "--r", "2", "--delta", "nan", "--t", "1"]),
    ("--t", ["gefp", "--r", "2", "--delta", "1/3", "--t", "inf", "--engine", "oracle"]),
    ("--lambda", ["gefp", "--r", "2", "--lambda", "nan", "--eta", "0.3", "--engine", "jets"]),
    ("--eta", ["efp", "--s", "2", "--r", "2", "--lambda", "1.1", "--eta=-inf"]),
    ("--lambdas", ["partition", "--engine", "ik", "--lambdas", "0.3,inf,0.5",
                   "--nus", "0.1,0.2,0.4", "--eta", "0.4"]),
    ("--nus", ["partition", "--engine", "ik", "--lambdas", "0.3,0.7,0.5",
               "--nus", "0.1,nan,0.4", "--eta", "0.4"]),
], ids=["delta-nan", "t-inf", "lambda-nan", "eta-minus-inf", "lambdas-inf", "nus-nan"])
def test_non_finite_float_parameter_exits_2(capsys, flag, argv):
    code, out, err = run_cli(capsys, *argv[:1], "--N", "3", *argv[1:], "--backend", "float",
                             "--allow-nonphysical")
    assert code == 2 and out == ""
    assert err.startswith("error:") and flag in err


@pytest.mark.parametrize("env, argv, flag", [
    ("abc", [], "GEFP_LAB_PRECISION"),
    (None, ["--precision", "0"], "--precision"),
    (None, ["--precision", "7"], "--precision"),
    ("4", [], "GEFP_LAB_PRECISION"),
])
def test_bad_precision_exits_2(capsys, monkeypatch, env, argv, flag):
    if env is not None:
        monkeypatch.setenv("GEFP_LAB_PRECISION", env)
    code, out, err = run_cli(capsys, "gefp", "--N", "3", "--r", "2,3", "--delta", "1/2",
                             "--t", "1", "--backend", "float", *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and flag in err


@pytest.mark.parametrize("argv", [
    ["verify", "--workers=0"],
    ["verify", "--level", "desk", "--format", "json", "--workers", "-1"],
    ["verify", "--level", "quick", "--criteria", "8", "--workers", "0"],
    ["verify", "--level", "quick", "--criteria", "8", "--workers", "-3"],
])
def test_workers_below_one_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "--workers" in err


RATIONAL = ["--delta", "1/2", "--t", "1"]
FLOAT_LISTS = ["--engine", "ik", "--eta", "0.4", "--backend", "float"]


@pytest.mark.parametrize("argv, fault", [
    (["partition", "--N", "-2", *RATIONAL], "--N"),
    (["partition", "--N", "-2", "--lambda", "1.1", "--eta", "0.3", "--engine", "ik-hom",
      "--backend", "float"], "--N"),
    (["table", "--N", "-1", *RATIONAL], "--N"),
    (["hfun", "--N", "0", "--delta", "1/3", "--t", "3/4"], "--N"),
    (["hfun", "--N", "0", "--lambda", "1.1", "--eta", "0.35", "--engine", "kpoly",
      "--backend", "float"], "--N"),
    (["table", "--N", "3", "--s", "-1", *RATIONAL], "--s"),
    (["table", "--N", "3", "--s", "4", *RATIONAL], "--s 4 exceeds N=3"),
    (["efp", "--N", "3", "--s", "-1", "--r", "2", *RATIONAL], "--s"),
    (["efp", "--N", "3", "--s", "4", "--r", "2", *RATIONAL], "length 4 exceeds N=3"),
    (["efp", "--N", "5", "--s", "99999999999", "--r", "2", *RATIONAL],
     "length 99999999999 exceeds N=5"),
    (["efp", "--N", "3", "--s", "2", "--r", "4", *RATIONAL], "--r 4 outside 1..3"),
    (["efp", "--N", "3", "--s", "0", "--r", "0", *RATIONAL], "--r 0 outside 1..3"),
    (["efp", "--N", "3", "--s", "2", "--r", "2", *RATIONAL, "--engine", "quadrature"],
     "--engine"),
    (["gefp", "--N", "4", "--r", "2,3", *RATIONAL, "--engine", "oracle",
      "--oracle-cap", "0"], "--oracle-cap"),
    (["gefp", "--N", "4", "--r", "2,3", *RATIONAL, "--engine", "oracle",
      "--oracle-cap", "-3"], "--oracle-cap"),
    (["gefp", "--N", "4", "--r", "2,3", *RATIONAL, "--engine", "oracle",
      "--oracle-cap", "21"], "--oracle-cap: must be at most 20"),
    (["gefp", "--N", "3", "--r", "1,2,3,3", *RATIONAL], "length 4 exceeds N=3"),
    (["partition", "--N", "1", "--lambdas", "0.3", "--nus", "0.1,0.5", *FLOAT_LISTS],
     "equal length"),
    (["partition", "--N", "5", "--lambdas", "0.3,0.4", "--nus", "0.1,0.5", *FLOAT_LISTS],
     "--N 5 does not match"),
    (["gefp", "--N", "3", "--r", "2,x", *RATIONAL], "cannot parse --r '2,x'"),
    (["gefp", "--N", "3", "--r", "2", "--delta", "1/2"], "--delta and --t"),
    (["partition", "--N", "2", "--engine", "ik", "--backend", "float",
      "--lambdas", "0.3,0.7", "--nus", "0.1,0.5"], "--lambdas, --nus and --eta"),
    (["gefp", "--N", "3", "--r", "2", "--lambda", "1.1", "--engine", "jets",
      "--backend", "float"], "--lambda and --eta"),
], ids=["partition-N", "ik-hom-N", "table-N", "hfun-N", "kpoly-N", "table-s-negative",
        "table-s-above-N", "efp-s-negative", "efp-s-above-N",
        "efp-s-far-above-N", "efp-r-above-N",
        "efp-r-zero", "efp-unknown-engine", "oracle-cap-zero", "oracle-cap-negative",
        "oracle-cap-above-ceiling",
        "gefp-profile-too-long",
        "ik-unequal-lists", "ik-N-mismatch", "profile-not-integer", "delta-without-t",
        "lists-without-eta", "lambda-without-eta"])
def test_bad_sizes_exit_2_naming_the_fault(capsys, argv, fault):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert fault in err


GEFP_N3 = ["gefp", "--N", "3", "--r", "2", "--allow-nonphysical"]
JETS_N3 = [*GEFP_N3, "--backend", "float", "--engine", "jets"]


@pytest.mark.parametrize("command, values", [
    (GEFP_N3, {"--delta": "-1/2", "--t": "3/4"}),
    (GEFP_N3, {"--delta": "1/3", "--t": "-3/4"}),
    (["partition", "--N", "2", "--engine", "ik", "--backend", "float"],
     {"--lambdas": "-0.7,0.3", "--nus": "-0.15,0.2", "--eta": "0.4"}),
    (JETS_N3, {"--lambda": "-1e-1", "--eta": "0.35"}),
    (JETS_N3, {"--lambda": "1.1", "--eta": "-3.5e-1"})])
def test_negative_value_as_its_own_argument(capsys, command, values):
    # argparse alone reads "-1/2" or "-0.5,0.3" after a flag as another flag
    separate = run_cli(capsys, *command, *(x for kv in values.items() for x in kv))
    joined = run_cli(capsys, *command, *(f"{k}={v}" for k, v in values.items()))
    assert separate[:2] == joined[:2] and separate[0] == 0   # stderr carries the wall time


@pytest.mark.parametrize("engine", ["ik", "ik-hom"])
def test_lambda_with_rapidity_lists_exit_2(capsys, engine):
    code, out, err = run_cli(capsys, "partition", "--N", "2", "--engine", engine,
                             "--lambdas", "0.3,0.7", "--nus", "0.1,0.5", "--eta", "0.4",
                             "--lambda", "1.0", "--backend", "float")
    assert code == 2 and out == ""
    assert "either --lambda or --lambdas/--nus" in err


@pytest.mark.parametrize("profile", [["--r", "-1,2"], ["--r=-1,2"]])
def test_negative_profile_entry_is_an_invalid_profile(capsys, profile):
    # "-1,2" on its own would be read as a flag: exit 2 with "expected one argument"
    code, out, err = run_cli(capsys, "gefp", "--N", "3", *profile, "--delta", "1/2",
                             "--t", "1")
    assert code == 2 and out == ""
    assert "invalid profile r=[-1, 2]" in err


@st.composite
def cli_argv(draw):
    """Argv of one result command from small sizes and parameters, valid or not."""
    engines = {"gefp": ["residue", "jets", "oracle"], "efp": ["residue", "jets", "oracle"],
               "table": ["residue", "jets", "oracle"], "hfun": ["oracle", "kpoly"],
               "partition": ["oracle", "ik", "ik-hom"], "cutdomain": []}
    command = draw(st.sampled_from(sorted(engines)))
    argv = [command, "--N", str(draw(st.integers(-2, 4)))]
    if command in ("gefp", "cutdomain"):
        argv += ["--r", ",".join(str(r) for r in draw(st.lists(st.integers(-1, 5),
                                                               max_size=5)))]
    if command == "efp":
        argv += ["--s", str(draw(st.integers(-2, 4))), "--r", str(draw(st.integers(-1, 5)))]
    if command == "table" and draw(st.booleans()):
        argv += ["--s", str(draw(st.integers(-2, 4)))]
    if engines[command]:
        argv += ["--engine", draw(st.sampled_from(engines[command]))]
    argv += ["--backend", draw(st.sampled_from(["exact", "float"]))]
    rational = st.fractions(min_value=-2, max_value=2, max_denominator=4).map(str)
    decimal = st.one_of(st.integers(-20, 20).map(lambda k: str(k / 10)),
                        st.sampled_from(["nan", "inf", "-inf"]))
    kinds = ["rational", "trig"] + (["lists"] if command == "partition" else [])
    kind = draw(st.sampled_from(kinds))

    def option(flag, value):
        """A value, negative ones too, as its own argument or joined by "="."""
        return [flag, value] if draw(st.booleans()) else [f"{flag}={value}"]

    if kind == "rational":
        argv += option("--delta", draw(rational)) + option("--t", draw(rational))
    elif kind == "trig":
        argv += ["--lambda", draw(decimal), "--eta", draw(decimal)]
    else:
        lists = st.lists(decimal, min_size=1, max_size=3).map(",".join)
        argv += (option("--lambdas", draw(lists)) + option("--nus", draw(lists))
                 + ["--eta", draw(decimal)])
    if draw(st.booleans()):
        argv.append("--allow-nonphysical")
    return argv


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(cli_argv())
def test_cli_ends_in_an_exit_code_never_a_traceback(argv):
    try:
        code = main(argv)
    except SystemExit as exc:           # argparse refuses the argument
        code = exc.code
        assert code == 2, argv
    assert code in (0, 2, 3), argv
