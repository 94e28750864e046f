"""Command-line contract: values, exit codes, error objects, determinism."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

import orlicz_conc as oc
import orlicz_conc.cli as cli
from orlicz_conc import (GrowthEnvelope, SeparableTwoLevel, bcg_tail, bounds,
                         chebyshev_level, conjugacy, enlargement_bound, hanson_wright_tail,
                         lipschitz_profile, tensors, two_level_tail)
from orlicz_conc.errors import NumericalError

PSI2 = '{"family":"PowerNorm","params":{"norm":"l2","a":2},"dim":2}'
ENV_FLAGS = ("--K", "1", "--D", "1", "--alpha", "2", "--beta", "2")


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


@pytest.mark.parametrize("code", [
    "import orlicz_conc",
    "import runpy; runpy.run_module('orlicz_conc.cli', run_name='__main__')",
], ids=["import", "cli_help"])
def test_startup_imports_neither_scipy_nor_thread_pool(code):
    probe = (f"import sys; sys.argv[1:] = ['--help']\ntry:\n    {code}\n"
             "except SystemExit:\n    pass\n"
             "print(sorted(m for m in sys.modules if m.split('.')[0] in "
             "('scipy', 'concurrent')))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def _startup(argv):
    """(exit code, the numpy and orlicz_conc modules loaded) of one CLI run in
    a fresh interpreter."""
    probe = (f"import json, runpy, sys; sys.argv[1:] = {argv!r}\nrc = 0\ntry:\n"
             "    runpy.run_module('orlicz_conc.cli', run_name='__main__')\n"
             "except SystemExit as exc:\n    rc = exc.code\n"
             "print(json.dumps([rc, sorted(m for m in sys.modules\n"
             "                             if m.split('.')[0] in ('numpy', 'orlicz_conc'))]))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    rc, loaded = json.loads(proc.stdout.splitlines()[-1])
    return rc, set(loaded)


@pytest.mark.parametrize("argv, rc", [
    (["--help"], 0), (["norm", "--help"], 0), (["norm", "--bogus"], 2),
    (["verify", "nu-logp", "--N", "many"], 2), ([], 2),
], ids=["help", "norm_help", "unknown_flag", "bad_type", "no_command"])
def test_help_and_usage_errors_load_neither_numpy_nor_a_layer(argv, rc):
    got_rc, loaded = _startup(argv)
    assert got_rc == rc
    assert loaded <= {"orlicz_conc", "orlicz_conc.errors"}


@pytest.mark.parametrize("argv, layers", [
    (["norm", "--psi", PSI2, "--p", "4", "--x", "3,4"], {"psi", "solvers", "tables"}),
    (["tensor", "--matrix", "m.txt", "--op", "eval", "--x", "1,2"],
     {"psi", "solvers", "tables", "tensors"}),
    (["tensor", "--matrix", "m.txt", "--op", "gradient", "--x", "1,2"],
     {"psi", "solvers", "tables", "tensors"}),
    (["bound", "l_constant", *ENV_FLAGS], {"bounds", "psi", "solvers", "tables"}),
    (["verify", "nu-logp", "--N", "2000", "--p-grid", "2,4"],
     {"empirics", "measures", "psi", "solvers", "tables"}),
], ids=["norm", "tensor_eval", "tensor_gradient", "bound_l_constant", "verify_nu_logp"])
def test_startup_imports_no_layer_the_subcommand_does_not_use(argv, layers, tmp_path):
    # a subcommand imports its layers when it runs, and only sampling loads
    # numpy.random: a 2-index form's symmetry check draws no permutation
    matrix = tmp_path / "m.txt"
    matrix.write_text("1 0.5\n0.5 2\n")
    rc, loaded = _startup([str(matrix) if a == "m.txt" else a for a in argv])
    assert rc == 0
    assert {m.split(".")[1] for m in loaded if m.startswith("orlicz_conc.")} == layers | {"errors"}
    assert "numpy.random" not in loaded or argv[0] == "verify"


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
    monkeypatch.setattr(bounds, "l_constant", boom)
    rc, _, err = run(capsys, "bound", "l_constant", "--K", "1", "--alpha", "2",
                     "--beta", "2")
    assert rc == 3
    assert json.loads(err)["error"] == "numerical"


@pytest.mark.parametrize("argv", [
    ("verify", "nu-logp", "--seed", "-1"),
    ("verify", "nu-logp", "--seed", "18446744073709551616"),
    ("verify", "nu-logp", "--N", "0"),
    ("verify", "nu-logp", "--N", "1", "--p-grid", "2"),
    ("verify", "centered", "--n", "2", "--function", "linear", "--theta", "1",
     "--psi", PSI2),
    ("verify", "centered", "--n", "3", "--function", "quadratic", "--matrix", "MATRIX",
     "--psi", '{"family":"PowerNorm","params":{"norm":"l2","a":2},"dim":3}'),
    ("verify", "mlsi", "--n", "2", "--function", "tilt", "--theta", "0.5,0",
     "--psi", PSI2, "--N", "1"),
    ("verify", "enlargement", "--n", "2", "--psi", PSI2, "--K", "1", "--N", "1"),
    ("verify", "centered", "--n", "2", "--theta", "1,0", "--psi", PSI2, "--N", "31"),
    ("verify", "comparison", "--n", "2", "--theta", "1,0", "--N", "1"),
], ids=["negative_seed", "seed_2_64", "zero_N", "N_below_batches", "theta_dim",
        "matrix_dim", "mlsi_N_below_batches", "enlargement_N_below_batches",
        "centered_N_below_batches", "comparison_N_below_batches"])
def test_bad_stream_and_function_inputs_exit_two(capsys, matrix_file, argv):
    rc, out, err = run(capsys, *(matrix_file if a == "MATRIX" else a for a in argv))
    assert rc == 2 and out == ""
    assert json.loads(err)["error"] == "input"


@pytest.mark.parametrize("params", ['{"r":"abc"}', '{"r":null}', '{"r":[3]}'])
def test_non_numeric_psi_params_exit_two(capsys, params):
    psi = '{"family":"SeparableTwoLevel","params":%s,"dim":2}' % params
    rc, out, err = run(capsys, "norm", "--psi", psi, "--p", "2", "--x", "1,1")
    assert rc == 2 and out == ""
    assert json.loads(err)["error"] == "input"


BAD_INPUTS = {
    "norm_ragged_x_file": ("norm", "--psi", PSI2, "--p", "4", "--x-file", "RAGGED"),
    "norm_text_x_file": ("norm", "--psi", PSI2, "--p", "4", "--x-file", "TEXT"),
    "norm_negative_p": ("norm", "--psi", PSI2, "--p", "-1", "--x", "1,2"),
    "conjugate_infinite_grid": ("conjugate", "--psi", PSI2, "--grid", "1,inf,3"),
    "conjugate_bad_y": ("conjugate", "--psi", PSI2, "--y", "1,abc"),
    "conjugate_norm_profile": ("conjugate", "--psi", PSI2.replace('"a":2', '"a":1'),
                               "--grid", "1,2,3"),
    "bound_gk_text_s": ("bound", "gk_moment", "--x", "1,2", "--s", "abc", "--p", "4"),
    "bound_gk_object_x": ("bound", "gk_moment", "--params", '{"x":{"a":1},"s":2,"p":4}'),
    "bound_bcg_list_params": ("bound", "bcg_moment_bound", "--params", "[1]"),
    "bound_bcg_text_dk_norm": ("bound", "bcg_moment_bound", "--L", "1", "--p", "4",
                               "--dk_norm", "x", "--hess_op_mp", "1", "--higher", "[[1,0.5]]"),
    "bound_bcg_bad_higher": ("bound", "bcg_moment_bound", "--L", "1", "--p", "4",
                             "--dk_norm", "1", "--hess_op_mp", "1", "--higher", "[[1,2,3]]"),
    "bound_list_params": ("bound", "l_constant", "--params", "[1]"),
    "bound_text_t": ("bound", "two_level_tail", "--a", "1", "--b", "1", "--r", "3",
                     "--t", "abc"),
    "tensor_bad_x": ("tensor", "--matrix", "MATRIX", "--op", "eval", "--x", "1,abc"),
    "tensor_text_matrix": ("tensor", "--matrix", "TEXT", "--op", "eval", "--x", "1,2"),
    "tensor_small_r": ("tensor", "--matrix", "MATRIX", "--op", "partition", "--r", "1"),
    "sample_small_phi_s": ("sample", "--family", "phi_tail", "--phi-s", "0.5",
                           "--seed", "0", "--count", "10"),
    "sample_zero_count": ("sample", "--family", "gaussian", "--seed", "0", "--count", "0"),
    "verify_text_p_grid": ("verify", "nu-logp", "--p-grid", "2,abc"),
    "verify_small_K": ("verify", "centered", "--n", "2", "--theta", "1,0", "--psi", PSI2,
                       "--K", "0.5"),
}


@pytest.mark.parametrize("argv", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_bad_inputs_exit_with_a_json_error(capsys, tmp_path, matrix_file, argv):
    files = {"MATRIX": matrix_file, "RAGGED": tmp_path / "ragged.csv",
             "TEXT": tmp_path / "text.csv"}
    files["RAGGED"].write_text("1,2\n3\n")
    files["TEXT"].write_text("1,abc\n")
    rc, out, err = run(capsys, *(str(files.get(a, a)) for a in argv))
    assert rc in (2, 3) and out == ""
    assert json.loads(err)["error"] == ("input" if rc == 2 else "numerical")


NON_FINITE = {
    "nan_flag": ("bound", "chebyshev_level", *ENV_FLAGS, "--g0", "1", "--g_exponent", "nan",
                 "--t", "1"),
    "inf_flag": ("bound", "two_level_tail", "--a", "inf", "--b", "1", "--r", "3", "--t", "1"),
    "minus_inf_json": ("bound", "two_level_tail", "--params",
                       '{"a": 1, "b": 1, "r": 3, "t": -Infinity}'),
    "nan_json_env": ("bound", "l_constant", "--params", '{"K": 1, "alpha": 2, "beta": NaN}'),
    "inf_grid_bound_param": ("bound", "lipschitz_profile", "--psi", PSI2, *ENV_FLAGS,
                             "--a", "1", "--b", "Infinity", "--grid", "1,2,3"),
    "gk_inf_s": ("bound", "gk_moment", "--x", "1,2", "--s", "inf", "--p", "4"),
    "bcg_chain_inf_order": ("bound", "bcg_moment_bound", "--L", "1", "--p", "4", "--dk_norm", "1",
                            "--hess_op_mp", "1", "--higher", "[[Infinity,0.5]]"),
    "bcg_chain_nan_L": ("bound", "bcg_moment_bound", "--L", "nan", "--p", "4", "--dk_norm", "1",
                        "--hess_op_mp", "1", "--higher", "[[1,0.5]]"),
}


@pytest.mark.parametrize("argv", NON_FINITE.values(), ids=NON_FINITE.keys())
def test_non_finite_bound_parameters_exit_two(capsys, argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 2 and out == ""
    obj = json.loads(err)
    assert obj["error"] == "input" and "non-finite" in obj["message"]


EXIT_TWO = {
    "verify_centered_without_psi": ("verify", "centered", "--n", "2", "--theta", "1,0"),
    "verify_mlsi_without_psi": ("verify", "mlsi", "--n", "2", "--function", "tilt",
                                "--theta", "0.5,0"),
    "verify_enlargement_without_psi": ("verify", "enlargement", "--n", "2"),
    "conjugate_nan_y": ("conjugate", "--psi", PSI2, "--y", "nan,1"),
    "conjugate_inf_theta": ("conjugate", "--psi", PSI2, "--support", "--p", "4",
                            "--theta", "inf,0"),
    "conjugate_inf_p": ("conjugate", "--psi", PSI2, "--support", "--p", "inf",
                        "--theta", "1,0"),
    "norm_inf_p": ("norm", "--psi", PSI2, "--p", "inf", "--x", "3,4"),
    "verify_centered_inf_C": ("verify", "centered", "--n", "2", "--theta", "1,0",
                              "--psi", PSI2, "--N", "2000", "--C", "inf"),
    "verify_enlargement_inf_m": ("verify", "enlargement", "--n", "2", "--psi", PSI2,
                                 "--N", "2000", "--m", "inf"),
    "tensor_partition_inf_r": ("tensor", "--matrix", "MATRIX", "--op", "partition",
                               "--r", "inf"),
    "tensor_chaos_zero_restarts": ("tensor", "--matrix", "MATRIX", "--op", "chaos",
                                   "--psi", PSI2, "--p", "2", "--restarts", "0"),
    "bcg_chain_fractional_order": ("bound", "bcg_moment_bound", "--L", "1", "--p", "4",
                                   "--dk_norm", "1", "--hess_op_mp", "1", "--higher",
                                   "[[1.5,0.5]]"),
    "bcg_chain_boolean_order": ("bound", "bcg_moment_bound", "--L", "1", "--p", "4",
                                "--dk_norm", "1", "--hess_op_mp", "1", "--higher",
                                "[[true,0.5]]"),
    "bound_boolean_param": ("bound", "l_constant", "--params",
                            '{"K": true, "alpha": 2, "beta": 2}'),
    "norm_boolean_psi_param": ("norm", "--psi", '{"family":"BobkovLedouxCap",'
                               '"params":{"threshold":true},"dim":2}', "--p", "4", "--x", "1,2"),
}


@pytest.mark.filterwarnings("error")  # a RuntimeWarning on the way fails the case
@pytest.mark.parametrize("argv", EXIT_TWO.values(), ids=EXIT_TWO.keys())
def test_missing_psi_and_non_finite_numbers_exit_two(capsys, matrix_file, argv):
    rc, out, err = run(capsys, *(matrix_file if a == "MATRIX" else a for a in argv))
    assert rc == 2 and out == ""
    assert json.loads(err)["error"] == "input"
    assert "Traceback" not in err and "RuntimeWarning" not in err


def test_chebyshev_level_with_overflowing_moment_growth(capsys):
    # G(p) = p^100 overflows a double at p = P_MAX, which must read as +inf;
    # the level is exp(-p*) with L p*^100 = t
    t = 1e40
    rc, out, _ = run(capsys, "bound", "chebyshev_level", *ENV_FLAGS, "--g0", "1",
                     "--g_exponent", "100", "--t", str(t))
    assert rc == 0
    p_star = (t / oc.l_constant(ENV22)) ** (1.0 / 100.0)
    assert float(value_lines(out)[0]) == pytest.approx(math.exp(-p_star), rel=1e-12)
    rc, out, _ = run(capsys, "bound", "chebyshev_level", *ENV_FLAGS, "--g0", "1",
                     "--g_exponent", "100", "--grid", "1e30,1e300,5")
    assert rc == 0 and len(value_lines(out)) == 6


def test_verify_mlsi_writes_a_one_row_csv(capsys, tmp_path):
    path = tmp_path / "mlsi.csv"
    rc, out, _ = run(capsys, "verify", "mlsi", "--n", "2", "--psi", PSI2, "--function", "tilt",
                     "--theta", "0.5,0", "--D", "4", "--N", "2000", "--seed", "3",
                     "--format", "csv", "--out", str(path))
    assert rc == 0 and out == ""
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# config: ")
    assert lines[1] == "residual,se,rhs_mean,entropy,infinite"
    assert len(lines) == 3 and len(lines[2].split(",")) == 5


TWOLEVEL2 = '{"family":"SeparableTwoLevel","params":{"r":3},"dim":2}'


@pytest.mark.parametrize("argv", [
    ("norm", "--psi", PSI2, "--p", "1e308", "--x", "1e300,4"),
    ("norm", "--psi", TWOLEVEL2, "--p", "2", "--x", "1.2e308,1"),
    ("verify", "centered", "--n", "2", "--psi", PSI2, "--theta", "1e308,0", "--N", "2000"),
    ("tensor", "--matrix", "MATRIX", "--op", "partition", "--r", "1e308"),
    ("conjugate", "--psi", TWOLEVEL2, "--support", "--p", "4", "--theta", "1e300,0"),
    ("conjugate", "--psi", TWOLEVEL2, "--y", "1e308,1"),
], ids=["norm_p", "norm_x", "verify_theta", "partition_r", "support_theta", "conjugate_y"])
def test_overflow_exits_three(capsys, matrix_file, argv):
    rc, out, err = run(capsys, *(matrix_file if a == "MATRIX" else a for a in argv))
    assert rc == 3 and out == ""
    assert len(err.splitlines()) == 1 and json.loads(err)["error"] == "numerical"


def test_an_indicator_conjugate_is_inf_and_a_tiny_row_has_a_positive_gauge(capsys):
    # PowerNorm a=1: Psi* is the indicator of the dual ball, +inf outside it
    rc, out, _ = run(capsys, "conjugate", "--y", "2,0",
                     "--psi", '{"family":"PowerNorm","params":{"norm":"l2","a":1},"dim":2}')
    assert rc == 0 and value_lines(out) == ["inf"]
    # p x overflows, yet the gauge 1.587e308 is representable
    rc, out, _ = run(capsys, "norm", "--psi", TWOLEVEL2, "--p", "2", "--x", "1e308,1")
    assert rc == 0 and float(value_lines(out)[0]) == pytest.approx(2.0 ** (2.0 / 3.0) * 1e308)
    rc, out, _ = run(capsys, "norm", "--psi", PSI2, "--p", "1e308", "--x", "3,4")
    assert rc == 0 and value_lines(out) == ["5e+154"]
    # |x|^4 under- or overflows, yet the gauge p^(1/2) ||x||_4 is representable
    for scale in ("1e-100", "1e100"):
        rc, out, _ = run(capsys, "norm", "--p", "4", f"--x={scale},{scale}",
                         "--psi", '{"family":"PowerNorm","params":{"norm":4,"a":2},"dim":2}')
        assert rc == 0 and float(value_lines(out)[0]) == pytest.approx(
            2.0 ** 1.25 * float(scale), rel=1e-15)
    # the row's l2 norm underflows, yet it is not the zero row
    for spec in (TWOLEVEL2, PSI2, '{"family":"SeparableFromPhi","params":{"s":3},"dim":2}'):
        rc, out, _ = run(capsys, "norm", "--psi", spec, "--p", "4", "--x", "1e-300,1e-301")
        assert rc == 0 and float(value_lines(out)[0]) > 0.0


def test_overflow_prints_one_json_line_and_no_warning(tmp_path):
    matrix = tmp_path / "m.txt"
    matrix.write_text("1 2\n3 4\n")
    proc = subprocess.run(
        [sys.executable, "-m", "orlicz_conc.cli", "tensor", "--matrix", str(matrix),
         "--op", "eval", "--x", "1e200,1e200"], capture_output=True, text=True)
    assert proc.returncode == 3 and proc.stdout == ""
    assert json.loads(proc.stderr) == {"error": "numerical",
                                       "message": "overflow encountered in multiply"}


@pytest.mark.parametrize("text", ["", "# a comment\n\n"], ids=["empty", "comment_only"])
def test_x_file_with_no_rows_prints_one_json_line_and_no_warning(tmp_path, text):
    path = tmp_path / "x.csv"
    path.write_text(text)
    proc = subprocess.run(
        [sys.executable, "-m", "orlicz_conc.cli", "norm", "--psi", PSI2, "--p", "2",
         "--x-file", str(path)], capture_output=True, text=True)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.count("\n") == 1
    assert json.loads(proc.stderr) == {"error": "input",
                                       "message": f"--x-file {str(path)!r} has no rows"}


def test_chaos_iteration_cap_exits_three(capsys, monkeypatch, matrix_file):
    monkeypatch.setattr(tensors, "_CHAOS_MAX_ITERS", 1)
    rc, out, err = run(capsys, "tensor", "--matrix", matrix_file, "--op", "chaos",
                       "--psi", PSI2, "--p", "2", "--restarts", "1")
    assert rc == 3 and out == ""
    assert json.loads(err)["error"] == "numerical"


@pytest.mark.parametrize("cap", ["_ARGMAX_GOLDEN_MAX", "_MULTIPLIER_GOLDEN_MAX"])
def test_chaos_support_golden_cap_exits_three(capsys, monkeypatch, matrix_file, cap):
    monkeypatch.setattr(conjugacy, cap, 1)
    rc, out, err = run(capsys, "tensor", "--matrix", matrix_file, "--op", "chaos",
                       "--psi", '{"family":"SeparableTwoLevel","params":{"r":3},"dim":2}',
                       "--p", "2", "--restarts", "1")
    assert rc == 3 and out == ""
    assert json.loads(err)["error"] == "numerical"


def test_chaos_term_of_the_capped_family_exits_zero(capsys, tmp_path):
    # the capped conjugate is linear beyond 2*threshold, where the numeric
    # coordinate argmax never brackets; the family's closed form covers it
    a = np.random.default_rng(0).standard_normal((4, 4))
    path = tmp_path / "sym4.txt"
    np.savetxt(path, a + a.T)
    rc, out, err = run(capsys, "tensor", "--matrix", str(path), "--op", "chaos", "--p", "4",
                       "--restarts", "2", "--psi",
                       '{"family":"BobkovLedouxCap","params":{"threshold":0.5},"dim":4}')
    assert rc == 0 and err == ""
    value = float(value_lines(out)[0])
    assert math.isfinite(value) and value > 0.0


def test_chaos_term_of_separable_from_phi_s1_is_a_quarter_of_the_cap(capsys, tmp_path):
    # Phi(t) = t gives Psi(x) = BobkovLedouxCap(1/2) at x/2, so both factors of
    # the chaos term halve
    a = np.random.default_rng(0).standard_normal((4, 4))
    path = tmp_path / "sym4.txt"
    np.savetxt(path, a + a.T)
    values = []
    for psi in ('{"family":"SeparableFromPhi","params":{"s":1},"dim":4}',
                '{"family":"BobkovLedouxCap","params":{"threshold":0.5},"dim":4}'):
        rc, out, err = run(capsys, "tensor", "--matrix", str(path), "--op", "chaos",
                           "--p", "4", "--restarts", "1", "--psi", psi)
        assert rc == 0 and err == ""
        values.append(float(value_lines(out)[0]))
    assert values[0] == pytest.approx(0.25 * values[1], rel=1e-12, abs=0.0)


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


ENV22 = GrowthEnvelope(K=1.0, alpha=2.0, beta=2.0, D=1.0)
PSI_TL = '{"family":"SeparableTwoLevel","params":{"r":3},"dim":4}'
SWEPT = {
    "two_level_tail": (("--a", "1", "--b", "1", "--r", "3"),
                       lambda t: two_level_tail(1.0, 1.0, 3.0, 1.0, t)),
    "hanson_wright_tail": (("--A_q", "2", "--B", "1", "--q", "1.5", "--c", "0.5"),
                           lambda t: hanson_wright_tail(2.0, 1.0, 1.5, 0.5, t)),
    "bcg_tail": (("--L", "2", "--hess_hs_m2", "1", "--mean_grad", "1", "--hess_op_sup", "1"),
                 lambda t: bcg_tail(2.0, 1.0, 1.0, 1.0, t)),
    "chebyshev_level": ((*ENV_FLAGS, "--g0", "1", "--g_exponent", "0.5"),
                        lambda t: chebyshev_level(math.sqrt, ENV22, 1.0, t)),
    "lipschitz_profile": (("--psi", PSI_TL, "--a", "1", "--b", "1", *ENV_FLAGS),
                          lambda t: lipschitz_profile(1.0, 1.0, ENV22,
                                                      SeparableTwoLevel(dim=4, r=3.0), 1.0, t)),
    "enlargement_bound": ((*ENV_FLAGS, "--C_impl", "0.2"),
                          lambda u: enlargement_bound(u, ENV22, 0.2)),
}


@pytest.mark.parametrize("name", SWEPT)
def test_bound_grid_matches_direct_calls(capsys, name):
    flags, scalar = SWEPT[name]
    rc, out, _ = run(capsys, "bound", name, *flags, "--grid", "0.1,1000,40")
    assert rc == 0
    rows = [ln.split(",") for ln in out.splitlines()[2:]]
    assert len(rows) == 40
    vals = [float(v_str) for _, v_str in rows]
    assert min(vals) < max(vals)  # the grid crosses the bound's transition
    for t_str, v_str in rows:
        assert float(v_str) == pytest.approx(scalar(float(t_str)), rel=1e-14, abs=0.0)


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


ENV23 = GrowthEnvelope(K=2.0, alpha=1.5, beta=3.0, D=3.0, d=0.5)
ENV23_FLAGS = ("--K", "2", "--alpha", "1.5", "--beta", "3", "--D", "3", "--d", "0.5")
UNSWEPT = {
    "l_constant": ((), lambda: oc.l_constant(ENV23)),
    "defective_moment_bound": (("--p", "4", "--lower_moment", "1", "--grad_moment", "2"),
                               lambda: oc.defective_moment_bound(
                                   env=ENV23, p=4.0, lower_moment=1.0, grad_moment=2.0)),
    "defective_moment_bound_q": (("--p", "6", "--lower_moment", "1", "--grad_moment", "2",
                                  "--q", "2"),
                                 lambda: oc.defective_moment_bound_q(
                                     env=ENV23, p=6.0, lower_moment=1.0, grad_moment=2.0,
                                     q=2.0)),
    "alpha1_moment_bound": (("--norm_beta", "1", "--grad_moment", "2", "--p", "4"),
                            lambda: oc.alpha1_moment_bound(1.0, 2.0, ENV23, 4.0)),
    "centered_moment_bound": (("--grad_moment", "2", "--p", "4", "--C", "3"),
                              lambda: oc.centered_moment_bound(2.0, ENV23, 4.0, 3.0)),
    "poincare_beta_bound": (("--grad_moment_beta", "2"),
                            lambda: oc.poincare_beta_bound(2.0, ENV23)),
    "enlargement_rate": (("--C_impl", "0.2"), lambda: oc.enlargement_rate(ENV23, 0.2)),
    "quadratic_chaos_moment": (("--hs", "1", "--op", "0.5", "--entry_lr", "0.3",
                                "--mixed_2_rstar", "0.4", "--rstar_rstar", "0.2", "--r", "4",
                                "--p", "8"),
                               lambda: oc.quadratic_chaos_moment(
                                   oc.PartitionNorms(1.0, 0.5, 0.3, 0.4, 0.2, 4.0), 8.0)),
    "moment_interpolation_factor": (("--A", "2", "--p", "8", "--q", "4", "--r", "2"),
                                    lambda: oc.moment_interpolation_factor(2.0, 8.0, 4.0, 2.0)),
    "bcg_first_line": (("--L", "2", "--p", "9", "--mean_grad_norm", "1", "--hess_op_mp", "0.5"),
                       lambda: oc.bcg_first_line(2.0, 9.0, 1.0, 0.5)),
}


def test_registry_tests_cover_every_bound():
    assert set(SWEPT) == {n for n, b in bounds._BOUNDS.items() if b.swept}
    assert set(UNSWEPT) == {n for n, b in bounds._BOUNDS.items() if not b.swept}


@pytest.mark.parametrize("name", UNSWEPT)
def test_every_unswept_bound_matches_its_direct_call(capsys, name):
    flags, direct = UNSWEPT[name]
    env = ENV23_FLAGS if bounds._BOUNDS[name].needs_env else ()
    rc, out, _ = run(capsys, "bound", name, *flags, *env)
    assert rc == 0
    assert float(value_lines(out)[0]) == direct()
    rc, _, err = run(capsys, "bound", name, *flags, *env, "--grid", "1,2,3")
    assert rc == 2 and "not a profile" in json.loads(err)["message"]


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
    # an integral float is an order; 1.5 and true are not (EXIT_TWO)
    rc, out_float, _ = run(capsys, "bound", "bcg_moment_bound", "--L", "2", "--p", "9",
                           "--dk_norm", "0.5", "--hess_op_mp", "0.5", "--higher",
                           "[[1.0, 1.0]]")
    assert rc == 0 and out_float == out


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


def test_sample_bin_requires_out(capsys, monkeypatch):
    # refused before any chunk's stream is made
    def boom(*args):
        raise AssertionError("a chunk was drawn")

    monkeypatch.setattr(oc.measures, "_chunk_rng", boom)
    rc, _, err = run(capsys, "sample", "--family", "nu", "--seed", "1",
                     "--count", "8", "--format", "bin")
    assert rc == 2
    assert json.loads(err)["error"] == "input"


def test_sample_nu_refuses_a_dimension_other_than_one(capsys):
    # nu is one-dimensional: --n 3 is an input error, not a one-column sample
    rc, out, err = run(capsys, "sample", "--family", "nu", "--n", "3", "--seed", "1",
                       "--count", "8")
    assert rc == 2 and out == ""
    assert json.loads(err) == {"error": "input",
                               "message": "NuMeasure is one-dimensional; n must be 1"}


def test_verify_writes_report_file(capsys, tmp_path):
    path = str(tmp_path / "rep.json")
    rc, _, _ = run(capsys, "verify", "nu-logp", "--p-grid", "2,4",
                   "--N", "20000", "--seed", "1", "--out", path)
    assert rc == 0
    rep = json.loads(open(path).read())
    assert rep["all_passed"] is True


@pytest.mark.parametrize("family", [("gaussian", "--n", "2"),
                                    ("phi_tail", "--n", "3", "--phi-s", "1.5"),
                                    ("nu",)], ids=lambda f: f[0])
def test_sample_csv_on_stdout_equals_the_out_file(capsys, tmp_path, family):
    # more rows than one chunk
    argv = ("sample", "--family", *family, "--seed", "4", "--count", str(oc.CHUNK + 5))
    rc, out, _ = run(capsys, *argv)
    assert rc == 0
    path = tmp_path / "s.csv"
    rc, quiet, _ = run(capsys, *argv, "--out", str(path))
    assert rc == 0 and quiet == ""
    assert path.read_text() == out
    assert out.startswith("# config: ") and len(out.splitlines()) == oc.CHUNK + 6


ENL = ("verify", "enlargement", "--n", "2", "--psi", PSI2, "--N", "5000")
MLSI = ("verify", "mlsi", "--n", "2", "--psi", PSI2, "--function", "tilt",
        "--theta", "0.5,0", "--N", "5000")
VERIFY_EXIT = {
    "centered": (("verify", "centered", "--n", "2", "--theta", "1,0", "--psi", PSI2,
                  "--N", "5000"), 0),
    "centered_band_fails": (("verify", "centered", "--n", "2", "--theta", "1,0", "--psi", PSI2,
                             "--N", "5000", "--C", "1e-6"), 1),
    "centered_high_p": (("verify", "centered", "--n", "2", "--theta", "1,0", "--psi", PSI2,
                         "--N", "5000", "--p-grid", "2,80"), 0),
    "nu_logp": (("verify", "nu-logp", "--N", "5000", "--p-grid", "2,4"), 0),
    "comparison": (("verify", "comparison", "--n", "3", "--function", "max",
                    "--N", "5000"), 0),
    "enlargement": ((*ENL, "--K", "1", "--D", "1", "--C", "0.2"), 0),
    # no envelope flag, so no bound to check
    "enlargement_without_env": (ENL, 0),
    "enlargement_band_fails": ((*ENL, "--D", "1", "--C", "0.01"), 1),
    "mlsi": (MLSI, 0),
    "mlsi_band_fails": ((*MLSI, "--D", "0.01"), 1),
    "mlsi_infinite": (("verify", "mlsi", "--n", "2", "--function", "tilt", "--theta", "1,0",
                       "--psi", '{"family":"BobkovLedouxCap","params":{"threshold":0.1},'
                       '"dim":2}', "--N", "2000"), 0),
}


@pytest.mark.parametrize("name", VERIFY_EXIT)
def test_verify_exit_code_per_scenario(capsys, tmp_path, name):
    argv, want = VERIFY_EXIT[name]
    rc, out, _ = run(capsys, *argv)
    assert rc == want
    json.loads(out)
    # the CSV report carries the same verdict
    path = tmp_path / "rep.csv"
    rc, out, _ = run(capsys, *argv, "--format", "csv", "--out", str(path))
    assert rc == want and out == ""
    assert path.read_text().startswith("# config: ")


def test_enlargement_without_envelope_flags_checks_no_bound(capsys):
    rc, out, _ = run(capsys, *ENL)
    assert rc == 0
    rep = json.loads(out)
    assert rep["meta"]["env"] is None and all(math.isnan(b) for b in rep["bound"])


def test_enlargement_with_only_K_fills_in_the_envelope(capsys):
    rc, out, _ = run(capsys, *ENL, "--K", "1.5")
    assert rc == 0
    rep = json.loads(out)
    assert rep["meta"]["env"] == {"K": 1.5, "alpha": 2.0, "beta": 2.0, "D": 2.0, "d": 0.0}
    assert not any(math.isnan(b) for b in rep["bound"])


@pytest.mark.parametrize("argv", [
    ("conjugate", "--psi", PSI2, "--grid", "0.5,2,3"),
    ("norm", "--psi", PSI2, "--p", "4", "--x", "3,4"),
    ("bound", "two_level_tail", "--a", "1", "--b", "1", "--r", "3", "--grid", "1,10,4"),
], ids=["conjugate", "norm", "bound"])
def test_csv_format_is_the_text_table(capsys, argv):
    _, text, _ = run(capsys, *argv)
    _, csv, _ = run(capsys, *argv, "--format", "csv")
    assert csv == text

