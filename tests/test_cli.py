"""Command-line contract: values, exit codes, error objects, determinism."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

import orlicz_conc.cli as cli
from orlicz_conc import two_level_tail
from orlicz_conc.errors import NumericalError

PSI2 = '{"family":"PowerNorm","params":{"norm":"l2","a":2},"dim":2}'


def run(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def value_lines(out):
    return [ln for ln in out.splitlines() if ln and not ln.startswith("#")]


# ---------------------------------------------------------------------------
# pinned examples

def test_norm_example(capsys):
    rc, out, err = run(capsys, "norm", "--psi", PSI2, "--p", "4", "--x", "3,4")
    assert rc == 0 and err == ""
    assert out.splitlines()[0].startswith("# config: ")
    assert float(value_lines(out)[0]) == pytest.approx(10.0, rel=1e-12)


def test_bound_example(capsys):
    rc, out, _ = run(capsys, "bound", "l_constant", "--K", "1", "--D", "1",
                     "--alpha", "2", "--beta", "2")
    assert rc == 0
    assert float(value_lines(out)[0]) == pytest.approx(2.0 + math.sqrt(2.0), rel=1e-12)


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "orlicz_conc.cli", "norm", "--psi", PSI2,
         "--p", "4", "--x", "3,4"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert float(value_lines(proc.stdout)[0]) == pytest.approx(10.0)


# ---------------------------------------------------------------------------
# exit codes and error objects

def test_missing_flag_is_input_error(capsys):
    rc, _, err = run(capsys, "norm", "--psi", PSI2, "--x", "3,4")
    assert rc == 2
    obj = json.loads(err)
    assert obj["error"] == "input" and "--p" in obj["message"]


def test_unknown_bound_parameter_rejected(capsys):
    rc, _, err = run(capsys, "bound", "l_constant", "--K", "1", "--alpha", "2",
                     "--beta", "2", "--bogus", "3")
    assert rc == 2
    assert json.loads(err)["error"] == "input"


def test_unknown_bound_name_rejected(capsys):
    rc, _, err = run(capsys, "bound", "no_such_bound", "--t", "1")
    assert rc == 2
    assert "no_such_bound" in json.loads(err)["message"]


def test_malformed_psi_json_rejected(capsys):
    rc, _, err = run(capsys, "norm", "--psi", "{not json", "--p", "2", "--x", "1,1")
    assert rc == 2
    assert json.loads(err)["error"] == "input"


def test_numerical_failures_exit_three(capsys, monkeypatch):
    def boom(env):
        raise NumericalError("synthetic bracket failure")
    monkeypatch.setattr(cli.bd, "l_constant", boom)
    rc, _, err = run(capsys, "bound", "l_constant", "--K", "1", "--alpha", "2",
                     "--beta", "2")
    assert rc == 3
    assert json.loads(err)["error"] == "numerical"


@pytest.mark.parametrize("argv", [
    ("verify", "nu-logp", "--seed", "-1"),
    ("verify", "nu-logp", "--seed", "18446744073709551616"),
    ("verify", "nu-logp", "--N", "0"),
    ("verify", "centered", "--n", "2", "--function", "linear", "--theta", "1",
     "--psi", PSI2),
    ("verify", "centered", "--n", "3", "--function", "quadratic", "--matrix", "MATRIX",
     "--psi", '{"family":"PowerNorm","params":{"norm":"l2","a":2},"dim":3}'),
], ids=["negative_seed", "seed_2_64", "zero_N", "theta_dim", "matrix_dim"])
def test_bad_stream_and_function_inputs_exit_two(capsys, matrix_file, argv):
    rc, out, err = run(capsys, *(matrix_file if a == "MATRIX" else a for a in argv))
    assert rc == 2 and out == ""
    assert json.loads(err)["error"] == "input"


def test_norm_x_file_equals_per_row_x(capsys, tmp_path):
    spec = '{"family":"SeparableTwoLevel","params":{"r":3},"dim":3}'
    X = np.random.default_rng(3).standard_normal((12, 3)) * 4.0
    X[5] = 0.0
    path = tmp_path / "rows.csv"
    path.write_text("".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in X))
    rc, out, _ = run(capsys, "norm", "--psi", spec, "--p", "4", "--x-file", str(path))
    assert rc == 0
    batched = value_lines(out)[1:]
    single = []
    for row in X:
        rc, out, _ = run(capsys, "norm", "--psi", spec, "--p", "4",
                         "--x=" + ",".join(f"{v:.17g}" for v in row))
        assert rc == 0
        single.append(value_lines(out)[0])
    assert batched == single


def test_verify_band_failure_exits_one(capsys):
    # a tiny constant makes the residual strongly negative
    rc, out, _ = run(capsys, "verify", "mlsi", "--family", "gaussian", "--n", "2",
                     "--psi", PSI2, "--function", "tilt", "--theta", "1,0",
                     "--D", "0.02", "--N", "20000", "--seed", "5")
    assert rc == 1
    rep = json.loads(out)
    assert rep["residual"] < -3.0 * rep["se"]


# ---------------------------------------------------------------------------
# structured output

def test_conjugate_grid_csv_columns(capsys):
    rc, out, _ = run(capsys, "conjugate", "--psi", PSI2, "--grid", "0.5,2,3")
    assert rc == 0
    lines = out.splitlines()
    assert lines[1] == "t,omega,omega_inv,omega_star,lambda"
    rows = [ln.split(",") for ln in lines[2:]]
    assert len(rows) == 3
    # omega(t) = t^2 for the quarter-square family
    for row in rows:
        assert float(row[1]) == pytest.approx(float(row[0]) ** 2, rel=1e-9)


def test_conjugate_point_and_support(capsys):
    rc, out, _ = run(capsys, "conjugate", "--psi",
                     '{"family":"SeparableFromPhi","params":{"s":1},"dim":2}',
                     "--y", "0.5,0")
    assert rc == 0
    assert float(value_lines(out)[0]) == pytest.approx(0.25, rel=1e-9)
    rc, out, _ = run(capsys, "conjugate", "--psi",
                     '{"family":"PowerNorm","params":{"norm":"l2","a":2},"dim":3}',
                     "--support", "--p", "4", "--theta", "1,2,2")
    assert float(value_lines(out)[0]) == pytest.approx(12.0, rel=1e-9)


def test_bound_grid_matches_direct_calls(capsys):
    rc, out, _ = run(capsys, "bound", "two_level_tail", "--a", "1", "--b", "1",
                     "--r", "3", "--grid", "1,4,5")
    assert rc == 0
    rows = [ln.split(",") for ln in out.splitlines()[2:]]
    for t_str, v_str in rows:
        assert float(v_str) == pytest.approx(
            two_level_tail(1.0, 1.0, 3.0, 1.0, float(t_str)), rel=1e-12)


def test_bound_params_json_equivalent_to_flags(capsys):
    _, out_a, _ = run(capsys, "bound", "hanson_wright_tail", "--params",
                      '{"A_q": 2, "B": 1, "q": 2, "t": 7, "c": 1.3}')
    _, out_b, _ = run(capsys, "bound", "hanson_wright_tail", "--A_q", "2",
                      "--B", "1", "--q", "2", "--t", "7", "--c", "1.3")
    assert value_lines(out_a) == value_lines(out_b)


def test_json_format_includes_config(capsys):
    rc, out, _ = run(capsys, "norm", "--psi", PSI2, "--p", "4", "--x", "3,4",
                     "--format", "json")
    assert rc == 0
    obj = json.loads(out)
    assert obj["result"] == pytest.approx(10.0)
    assert obj["config"]["psi"]["family"] == "PowerNorm"


def test_gk_and_chain_bounds(capsys):
    rc, out, _ = run(capsys, "bound", "gk_moment", "--x", "3,4", "--s", "2",
                     "--p", "4")
    assert rc == 0
    assert float(value_lines(out)[0]) == pytest.approx(5.0, rel=1e-8)
    rc, out, _ = run(capsys, "bound", "bcg_moment_bound", "--L", "2", "--p", "9",
                     "--dk_norm", "0.5", "--hess_op_mp", "0.5", "--higher",
                     "[[1, 1.0]]")
    assert rc == 0
    # chain = 1 + sqrt(2) L dk; first line = L sqrt(p) chain + L^2 p hop
    chain = 1.0 + math.sqrt(2.0) * 2.0 * 0.5
    want = 2.0 * 3.0 * chain + 4.0 * 9.0 * 0.5
    assert float(value_lines(out)[0]) == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# tensor and sample subcommands

@pytest.fixture()
def matrix_file(tmp_path):
    path = str(tmp_path / "m.txt")
    with open(path, "w") as fh:
        fh.write("1 2\n2 5\n")
    return path


def test_tensor_eval_gradient_partition(capsys, matrix_file):
    rc, out, _ = run(capsys, "tensor", "--matrix", matrix_file, "--op", "eval",
                     "--x", "1,1")
    assert rc == 0 and float(value_lines(out)[0]) == pytest.approx(10.0)
    rc, out, _ = run(capsys, "tensor", "--matrix", matrix_file, "--op", "gradient",
                     "--x", "1,1")
    vals = [float(v) for v in value_lines(out)[0].split(",")]
    assert vals == pytest.approx([6.0, 14.0])
    rc, out, _ = run(capsys, "tensor", "--matrix", matrix_file, "--op", "partition",
                     "--r", "2", "--format", "json")
    res = json.loads(out)["result"]
    assert res["hs"][0] == pytest.approx(math.sqrt(34.0), rel=1e-10)


def test_tensor_symmetrize_writes_matrix(capsys, tmp_path):
    src = str(tmp_path / "raw.txt")
    with open(src, "w") as fh:
        fh.write("0 2\n0 0\n")
    dst = str(tmp_path / "sym.json")
    rc, _, _ = run(capsys, "tensor", "--matrix", src, "--op", "symmetrize",
                   "--out", dst)
    assert rc == 0
    obj = json.loads(open(dst).read())
    assert obj["symmetric"] is True
    np.testing.assert_allclose(np.array(obj["data"]).reshape(2, 2),
                               [[0.0, 1.0], [1.0, 0.0]])


def test_sample_runs_are_byte_identical(capsys, tmp_path):
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    for path in (a, b):
        rc, _, _ = run(capsys, "sample", "--family", "gaussian", "--n", "2",
                       "--seed", "9", "--count", "64", "--out", path)
        assert rc == 0
    assert open(a, "rb").read() == open(b, "rb").read()


def test_sample_bin_requires_out(capsys):
    rc, _, err = run(capsys, "sample", "--family", "nu", "--seed", "1",
                     "--count", "8", "--format", "bin")
    assert rc == 2
    assert json.loads(err)["error"] == "input"


def test_verify_writes_report_file(capsys, tmp_path):
    path = str(tmp_path / "rep.json")
    rc, _, _ = run(capsys, "verify", "nu-logp", "--p-grid", "2,4",
                   "--N", "20000", "--seed", "1", "--out", path)
    assert rc == 0
    rep = json.loads(open(path).read())
    assert rep["all_passed"] is True
