import json

import pytest
from mpmath import mp

from gefp_lab.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
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


def test_computation_error_exits_3_with_class_name(capsys):
    # c^2 = 2 has no rational square root, so exact Z_N is unavailable
    code, _, err = run_cli(capsys, "partition", "--N", "2",
                           "--delta", "0", "--t", "1",
                           "--engine", "oracle", "--backend", "exact")
    assert code == 3
    assert "Unsupported" in err


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


def test_csv_format(capsys):
    code, out, _ = run_cli(capsys, "gefp", "--N", "3", "--r", "2,3",
                           "--delta", "1/2", "--t", "1", "--format", "csv")
    assert code == 0
    header, row = out.strip().split("\n")
    cols = header.split(",")
    vals = row.split(",")
    assert vals[cols.index("value")] == "5/7"
    assert vals[cols.index("r")] == "2 3"


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


def test_efp_command(capsys):
    code, out, _ = run_cli(capsys, "efp", "--N", "4", "--s", "2", "--r", "3",
                           "--delta", "1/2", "--t", "1")
    assert code == 0
    rec = json.loads(out)
    assert rec["engine"] == "efp/residue"
    _, out2, _ = run_cli(capsys, "gefp", "--N", "4", "--r", "3,3",
                         "--delta", "1/2", "--t", "1")
    assert rec["value"] == json.loads(out2)["value"]


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


def test_table_worker_pool_matches_serial(capsys):
    argv = ["table", "--N", "3", "--s", "2", "--delta", "1/2", "--t", "1"]
    _, serial, _ = run_cli(capsys, *argv)
    _, parallel, _ = run_cli(capsys, *argv, "--workers", "2")
    assert serial == parallel


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


@pytest.mark.parametrize("flag, argv", [
    ("--t", ["--delta", "1/2", "--t", "1/0"]),
    ("--delta", ["--delta", "abc", "--t", "1"]),
    ("--delta", ["--delta", "abc", "--t", "1", "--backend", "float"]),
])
def test_malformed_number_exits_2(capsys, flag, argv):
    code, out, err = run_cli(capsys, "gefp", "--N", "3", "--r", "2,3", *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and flag in err


@pytest.mark.parametrize("env, argv, flag", [
    ("abc", [], "GEFP_LAB_PRECISION"),
    (None, ["--precision", "0"], "--precision"),
    (None, ["--precision", "7"], "--precision"),
])
def test_bad_precision_exits_2(capsys, monkeypatch, env, argv, flag):
    if env is not None:
        monkeypatch.setenv("GEFP_LAB_PRECISION", env)
    code, out, err = run_cli(capsys, "gefp", "--N", "3", "--r", "2,3", "--delta", "1/2",
                             "--t", "1", "--backend", "float", *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and flag in err


@pytest.mark.parametrize("argv", [
    ["table", "--N", "3", "--delta", "1/2", "--t", "1", "--workers", "0"],
    ["table", "--N", "3", "--delta", "1/2", "--t", "1", "--workers", "-3"],
    ["verify", "--level", "quick", "--criteria", "8", "--workers", "0"],
    ["verify", "--level", "quick", "--criteria", "8", "--workers", "-3"],
])
def test_workers_below_one_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "--workers" in err
