import dataclasses
import functools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pharmonic import cli, group
from pharmonic import expressions as ex
from pharmonic import operators as ops
from pharmonic.cli import (
    COMMANDS,
    EXIT_DOMAIN,
    EXIT_FAIL,
    EXIT_PASS,
    EXIT_USAGE,
    PROPERNESS_FLOOR,
    RunConfig,
    UsageError,
    cmd_calibrate,
    cmd_dual,
    cmd_flag,
    cmd_grassmann,
    cmd_pharmonic,
    _lift_components,
    _p_harmonic_records,
    _validate_common,
    main,
)
from pharmonic.expressions import Entry, Log, Product, Stack, Unstack, _readers
from pharmonic.group import sample_so, so_basis
from pharmonic.jets import BranchCutError, NonFiniteError
from pharmonic.reports import validate_report_dict

from oracles import compositions, eigenfamily_reference, flag_forms_reference, form_jets_reference

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def _child_env():
    """The environment of a fresh interpreter that imports pharmonic from
    this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_python(*args, cwd=None):
    """A fresh interpreter that imports pharmonic from this checkout."""
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=_child_env(), cwd=cwd, timeout=300,
    )


def run_cli_process(*argv, cwd=None):
    """The CLI in a fresh interpreter, as a shell user runs it."""
    return run_python("-m", "pharmonic.cli", *argv, cwd=cwd)


# The CLI's main, followed at interpreter exit by one stderr line with the
# process's own peak resident set.  getrusage cannot give that figure: Linux
# folds the peak of the address space a vfork+exec child replaced (the test
# process's own) into the child's maxrss, so RUSAGE_CHILDREN, and even the
# child's RUSAGE_SELF, can read the test process's peak.  VmHWM belongs to the
# address space the child runs in.
_PEAK_REPORTING_CLI = """
import atexit, sys

def report_peak():
    with open("/proc/self/status") as status:
        kb = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
    sys.stderr.write(f"\\npeak_rss_kb {kb}\\n")

atexit.register(report_peak)
from pharmonic.cli import main
sys.exit(main())
"""


def run_cli_measured(*argv):
    """run_cli_process, and the CLI process's own peak resident set in MB."""
    proc = run_python("-c", _PEAK_REPORTING_CLI, *argv)
    peak_kb = int(proc.stderr.rsplit("peak_rss_kb ", 1)[1])
    return proc, peak_kb / 1024


# -- commands through the Python API ---------------------------------------------


def test_calibrate_passes_small_group():
    report = cmd_calibrate(RunConfig("calibrate", m=1, n=1, samples=5))
    assert report.passed
    assert max(report.max_residuals.values()) <= 1e-10


def test_calibrate_rescaled_basis_fails():
    report = cmd_calibrate(RunConfig("calibrate", m=2, n=2, samples=3, basis_scale=1.1))
    assert not report.passed


def test_grassmann_negative_control(tmp_path):
    bad = np.diag([1.0, -1.0, 0.0, 0.0])
    path = tmp_path / "bad.csv"
    rows = [",".join(f"{v}:0" for v in row) for row in bad]
    path.write_text("\n".join(rows) + "\n")
    report = cmd_grassmann(
        RunConfig("grassmann", m=2, n=2, samples=3, a_file=str(path))
    )
    assert not report.passed
    failed = {r.check for r in report.checks if not r.passed}
    assert "matrix_rank" in failed and "matrix_square" in failed
    assert any("kappa_eigen" in c for c in failed)


def test_grassmann_single_row_window_matches_sphere_eigenvalue():
    # m = 1 runs against the eigenvalue -(n+1), the degree-two value on the sphere
    report = cmd_grassmann(RunConfig("grassmann", m=1, n=3, samples=3))
    assert report.passed
    assert any("-(n+1) = -4" in note for note in report.notes)


def test_pharmonic_equal_eigenvalue_case_noted():
    report = cmd_pharmonic(RunConfig("pharmonic", m=1, n=1, p=2, samples=3))
    assert report.passed
    assert any("lam = mu" in note for note in report.notes)


def test_pharmonic_first_order_reduces_to_harmonicity():
    report = cmd_pharmonic(RunConfig("pharmonic", m=2, n=2, p=1, samples=3))
    assert report.passed
    assert report.max_residuals["tau_p_residual"] <= 1e-9


def test_pharmonic_domain_exhaustion_when_function_is_tiny():
    # coefficients so small that every sample sits under the magnitude floor
    with pytest.raises(Exception) as err:
        cmd_pharmonic(RunConfig("pharmonic", m=2, n=2, p=2, samples=3, w="1e-9,1e-9,1e-9"))
    assert "conditioned" in str(err.value) or "branch" in str(err.value)


def test_flag_two_blocks_skips_non_descent():
    report = cmd_flag(RunConfig("flag", blocks=(2, 2), p=2, samples=3))
    assert report.passed
    assert not [c for c in report.checks if c.check == "non_descent_witness"]
    assert any("skipped" in note for note in report.notes)


def test_flag_three_blocks_has_witness():
    report = cmd_flag(RunConfig("flag", blocks=(1, 1, 2), p=2, samples=3))
    assert report.passed
    assert [c for c in report.checks if c.check == "non_descent_witness"]


_IDENTITY_IDS = {"tau_projector", "kappa_projector"}
_MATRIX_IDS = {"matrix_symmetry", "matrix_trace", "matrix_square", "matrix_rank"}


@pytest.mark.parametrize(
    "config, ids",
    [
        (RunConfig("calibrate", m=1, n=2, samples=2), {"tau_coordinate", "kappa_coordinate"}),
        (
            RunConfig("grassmann", m=2, n=2, samples=2),
            _IDENTITY_IDS | _MATRIX_IDS | {"function_scale", "tau_eigen", "kappa_eigen", "invariance"},
        ),
        (
            RunConfig("flag", blocks=(1, 1, 2), p=2, samples=2),
            {f"block{k}_member0_{check}" for k in range(3) for check in ("tau_eigen", "kappa_eigen")}
            | {"tau_p_residual", "properness_witness", "invariance", "non_descent_witness"},
        ),
    ],
    ids=["calibrate", "grassmann", "flag"],
)
def test_check_ids_are_the_report_contract(config, ids):
    # check ids are byte-stable report output; the per-point ones name every point
    report = {"calibrate": cmd_calibrate, "grassmann": cmd_grassmann, "flag": cmd_flag}[config.command](config)
    assert report.passed
    assert {r.check for r in report.checks} == ids
    for check in ids - _MATRIX_IDS - {"function_scale", "non_descent_witness"}:
        assert sorted(r.point for r in report.checks if r.check == check) == [0, 1], check


def test_flag_third_order_two_blocks():
    report = cmd_flag(RunConfig("flag", blocks=(2, 2), p=3, samples=2))
    assert report.passed
    assert report.max_residuals["tau_p_residual"] <= 1e-6


def test_dual_radius_zero_is_degenerate():
    report = cmd_dual(RunConfig("dual", m=2, n=2, p=2, samples=4, radius=0.0))
    assert any("degenerate" in note for note in report.notes)


def test_dual_single_sample_is_not_called_degenerate():
    # one value has no spread, which says nothing about the radius
    report = cmd_dual(RunConfig("dual", m=1, n=2, p=2, samples=1, radius=0.5))
    assert not any("degenerate" in note for note in report.notes)


def test_dual_small_radius_passes():
    report = cmd_dual(RunConfig("dual", m=1, n=2, p=2, samples=4, radius=0.5))
    assert report.passed


def test_usage_validation():
    with pytest.raises(UsageError, match="^need m >= 1 and n >= 1$"):
        cmd_calibrate(RunConfig("calibrate", m=0, n=2))


# -- the executable surface ---------------------------------------------------------


def test_main_calibrate_writes_report(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code, out = run_cli(
        capsys,
        "calibrate", "--m", "2", "--n", "2", "--samples", "3", "--out", str(out_file),
    )
    assert code == EXIT_PASS
    doc = json.loads(out)
    validate_report_dict(doc)
    on_disk = json.loads(out_file.read_text())
    validate_report_dict(on_disk)
    assert on_disk["config"]["seed"] == 7


def test_main_csv_residual_dump(tmp_path, capsys):
    csv_file = tmp_path / "residuals.csv"
    code, _ = run_cli(
        capsys,
        "calibrate", "--m", "2", "--n", "2", "--samples", "2", "--csv", str(csv_file),
    )
    assert code == EXIT_PASS
    lines = csv_file.read_text().strip().splitlines()
    assert lines[0] == "check,point,residual,threshold,passed,kind"
    assert len(lines) == 1 + 4  # two checks per sample point
    assert all(line.endswith(",True,upper") for line in lines[1:])


def test_main_grassmann_with_w(capsys):
    code, out = run_cli(
        capsys,
        "grassmann", "--m", "2", "--n", "3", "--w", "1,2,3,4", "--samples", "3",
    )
    assert code == EXIT_PASS
    doc = json.loads(out)
    assert doc["passed"] is True


def test_main_exit_code_on_verification_failure(tmp_path, capsys):
    bad = np.zeros((4, 4))
    bad[0, 0], bad[1, 1] = 1.0, -1.0
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(",".join(f"{v}:0" for v in row) for row in bad) + "\n")
    code, out = run_cli(
        capsys,
        "grassmann", "--m", "2", "--n", "2", "--A", str(path), "--samples", "3",
    )
    assert code == EXIT_FAIL
    doc = json.loads(out)
    assert doc["passed"] is False


def test_main_exit_code_on_bad_config(capsys):
    code, _ = run_cli(capsys, "flag", "--blocks", "4", "--samples", "3")
    assert code == EXIT_USAGE
    code, _ = run_cli(capsys, "grassmann", "--w", "1,2", "--m", "2", "--n", "2")
    assert code == EXIT_USAGE
    code, _ = run_cli(capsys, "pharmonic", "--p", "9")
    assert code == EXIT_USAGE
    code, _ = run_cli(capsys, "flag", "--blocks", "", "--samples", "3")
    assert code == EXIT_USAGE


def test_main_exit_code_on_domain_failure(capsys):
    code, _ = run_cli(
        capsys,
        "pharmonic", "--m", "2", "--n", "2", "--p", "2", "--samples", "3",
        "--w", "1e-9,1e-9,1e-9",
    )
    assert code == EXIT_DOMAIN


# Each command's options in declaration order, written out by hand: the five
# every command reads and the ones its body reads besides.
DECLARED = {
    "calibrate": ["--m", "--n", "--seed", "--samples", "--tol", "--out", "--csv"],
    "grassmann": ["--m", "--n", "--seed", "--samples", "--tol", "--w", "--A", "--out", "--csv"],
    "pharmonic": ["--m", "--n", "--p", "--seed", "--samples", "--tol", "--w", "--A", "--out", "--csv"],
    "flag": ["--blocks", "--p", "--seed", "--samples", "--tol", "--out", "--csv"],
    "dual": [
        "--m", "--n", "--p", "--seed", "--samples", "--radius", "--tol", "--w", "--A", "--out", "--csv",
    ],
}

# A well-formed value of every option.
OPTION_VALUES = {
    "--m": "3", "--n": "1", "--blocks": "1,2", "--p": "4", "--seed": "11", "--samples": "5",
    "--radius": "0.5", "--tol": "1e-6", "--w": "1,2:1", "--A": "a.csv", "--out": "r.json",
    "--csv": "r.csv",
}


def _parser_declared_per_command():
    """The CLI parser with each subcommand's options declared on it one by
    one, as DECLARED lists them: the layout the option table must reproduce."""
    keywords = {
        "--m": dict(type=int, default=2),
        "--n": dict(type=int, default=2),
        "--blocks": dict(type=str, default=None, help="comma-separated block sizes"),
        "--p": dict(type=int, default=2),
        "--seed": dict(type=int, default=7),
        "--samples": dict(type=int, default=20),
        "--radius": dict(type=float, default=0.75),
        "--tol": dict(type=float, default=None, help="override the residual thresholds (not the floors)"),
        "--w": dict(type=str, default=None, help="comma-separated re:im cells"),
        "--A": dict(dest="a_file", type=str, default=None, help="CSV/JSON matrix file"),
        "--out": dict(type=str, default=None, help="write the JSON report here"),
        "--csv": dict(type=str, default=None, help="also dump residuals as CSV"),
    }
    parser = cli._Parser(prog="pharmonic", description=cli.__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, options in DECLARED.items():
        cp = sub.add_parser(name)
        for option in options:
            cp.add_argument(option, **keywords[option])
    sub.add_parser("report-schema")
    return parser


def _parsed(parser, argv, capsys):
    """(namespace or exit code, stdout, stderr) of parser.parse_args(argv)."""
    try:
        result = vars(parser.parse_args(argv))
    except SystemExit as exc:
        result = exc.code
    captured = capsys.readouterr()
    return result, captured.out, captured.err


@pytest.mark.parametrize("command", [*COMMANDS, "report-schema"])
def test_shared_options_parse_and_print_as_when_declared_per_command(capsys, command):
    every_option = [word for option, value in OPTION_VALUES.items() for word in (option, value)]
    argvs = [[command, "--help"], [command], [command, "--m", "x"], ["--help"], [command, *every_option]]
    if command != "report-schema":
        own = [word for option in DECLARED[command] for word in (option, OPTION_VALUES[option])]
        argvs += [[command, *own], [command, "--seed=9", "--samples", "1"]]
    for argv in argvs:
        got = _parsed(cli._build_parser(), argv, capsys)
        assert got == _parsed(_parser_declared_per_command(), argv, capsys), argv


# (command, option) for each of the 16 options a command does not read
UNREAD_OPTIONS = [
    (command, option) for command, options in DECLARED.items() for option in OPTION_VALUES
    if option not in options
]


@pytest.mark.parametrize("command, option", UNREAD_OPTIONS)
def test_an_option_the_command_does_not_read_is_a_usage_error(tmp_path, capsys, command, option):
    out_file = tmp_path / "report.json"
    value = OPTION_VALUES[option]
    assert main([command, option, value, "--samples", "1", "--out", str(out_file)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert not captured.out and f"unrecognized arguments: {option} {value}" in captured.err
    assert "Traceback" not in captured.err
    assert not out_file.exists()


def test_parser_is_built_once_and_reused_across_main_calls(capsys):
    assert cli._build_parser() is cli._build_parser()
    assert main(["pharmonic", "--m", "x"]) == EXIT_USAGE
    assert main(["--help"]) == EXIT_PASS
    assert main(["definitely-not-a-command"]) == EXIT_USAGE
    assert main(["report-schema"]) == EXIT_PASS
    capsys.readouterr()
    argv = ["pharmonic", "--m", "1", "--n", "2", "--p", "2", "--samples", "2"]
    code, out = run_cli(capsys, *argv)
    proc = run_cli_process(*argv)
    assert code == proc.returncode == EXIT_PASS
    in_process, fresh = json.loads(out), json.loads(proc.stdout)
    in_process.pop("timing_seconds"), fresh.pop("timing_seconds")
    assert in_process == fresh


def test_main_rejects_unknown_command(capsys):
    assert main(["definitely-not-a-command"]) == EXIT_USAGE


def test_main_determinism_modulo_timing(capsys):
    argv = ["pharmonic", "--m", "1", "--n", "2", "--p", "2", "--samples", "3"]
    code1, out1 = run_cli(capsys, *argv)
    code2, out2 = run_cli(capsys, *argv)
    assert code1 == code2 == EXIT_PASS
    d1, d2 = json.loads(out1), json.loads(out2)
    d1.pop("timing_seconds"), d2.pop("timing_seconds")
    assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)


def test_main_report_schema(capsys):
    code, out = run_cli(capsys, "report-schema")
    assert code == EXIT_PASS
    schema = json.loads(out)
    assert schema["schema_version"]
    assert "checks" in schema["properties"]


@pytest.mark.parametrize(
    "argv, tol_scale, code",
    [
        (["flag", "--blocks", "1,1,2", "--samples", "2"], "1.0", EXIT_PASS),
        (["calibrate", "--m", "1", "--n", "2", "--samples", "2"], "1e-30", EXIT_FAIL),
        (["report-schema"], "1.0", EXIT_PASS),
    ],
)
def test_closed_stdout_keeps_the_verdict_and_prints_no_traceback(argv, tol_scale, code):
    # the read end of stdout's pipe is closed before the CLI starts, as in
    # `pharmonic ... | true`, so its first write meets a broken pipe
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {**_child_env(), "GH_VERIFY_TOL_SCALE": tol_scale}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pharmonic.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=300,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == code
    assert proc.stderr == ""


SCIPY_FREE_RUNS = [
    ["calibrate", "--m", "1", "--n", "1", "--samples", "2"],
    ["grassmann", "--m", "1", "--n", "2", "--samples", "2"],
    ["pharmonic", "--m", "1", "--n", "2", "--p", "1", "--samples", "2"],
    ["flag", "--blocks", "1,1,1", "--p", "1", "--samples", "2"],
    ["dual", "--m", "1", "--n", "2", "--p", "1", "--samples", "2"],
    ["report-schema"],
]


def test_every_command_runs_without_scipy():
    """scipy serves only the test oracles, and numpy.ma no run: with both
    imports blocked, every command still exits 0, and importing the package
    loads neither."""
    blocked = run_python(
        "-c",
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "sys.modules['numpy.ma'] = None\n"
        "from pharmonic import cli\n"
        f"codes = [cli.main(argv) for argv in {SCIPY_FREE_RUNS!r}]\n"
        "print(codes, file=sys.stderr)\n"
    )
    assert blocked.returncode == 0, blocked.stderr
    assert blocked.stderr.strip() == str([EXIT_PASS] * len(SCIPY_FREE_RUNS))
    fresh = run_python(
        "-c", "import sys, pharmonic, pharmonic.cli; print('scipy' in sys.modules, 'numpy.ma' in sys.modules)"
    )
    assert fresh.returncode == 0, fresh.stderr
    assert fresh.stdout.strip() == "False False"


def test_numpy_random_is_imported_at_the_first_draw():
    # importing numpy.random alone raises a process's peak resident set by
    # about 5 MB, so no import of the package loads it; the first draw does
    probe = run_python(
        "-c",
        "import sys\n"
        "import pharmonic.cli\n"
        "print('numpy.random' in sys.modules)\n"
        "pharmonic.cli.sample_so(3, range(2))\n"
        "print('numpy.random' in sys.modules)\n",
    )
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.split() == ["False", "True"]


def test_tol_scale_environment_variable(monkeypatch, capsys):
    # an absurdly tight global scale forces residuals over threshold
    monkeypatch.setenv("GH_VERIFY_TOL_SCALE", "1e-12")
    code, out = run_cli(capsys, "calibrate", "--m", "2", "--n", "2", "--samples", "2")
    assert code == EXIT_FAIL
    monkeypatch.setenv("GH_VERIFY_TOL_SCALE", "not-a-number")
    code, _ = run_cli(capsys, "calibrate", "--m", "2", "--n", "2", "--samples", "2")
    assert code == EXIT_USAGE


def test_tol_override_flag(capsys):
    code, out = run_cli(
        capsys,
        "calibrate", "--m", "2", "--n", "2", "--samples", "2", "--tol", "1e-18",
    )
    assert code == EXIT_FAIL


@pytest.mark.parametrize(
    "argv",
    [
        ("grassmann", "--w", "0,0,0"),
        ("grassmann", "--w", "1,1j,0"),
        ("grassmann", "--w", "nan,1,2"),
        ("grassmann", "--A", "no-such-matrix.csv"),
        ("dual", "--radius", "1e3"),
        ("dual", "--radius", "-1"),
        ("calibrate", "--seed", "-5"),
        ("calibrate", "--tol", "nan"),
        ("calibrate", "--m", "1", "--n", "1", "--out", "no-such-dir/x.json"),
        ("calibrate", "--m", "1", "--n", "1", "--csv", "no-such-dir/x.csv"),
        ("grassmann", "--w", "1e-300,0,0"),
        ("grassmann", "--w", "1e-160,0,0"),
        ("pharmonic", "--w", "1e200,1,1"),
        ("grassmann", "--w", "1e308,1e308,1"),
    ],
)
def test_bad_input_exits_with_usage_code_and_no_traceback(tmp_path, argv):
    proc = run_cli_process(*argv, "--samples", "2", cwd=tmp_path)
    assert proc.returncode == EXIT_USAGE, proc.stderr
    assert "configuration error" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert "RuntimeWarning" not in proc.stderr


@pytest.mark.parametrize(
    "name, text, message",
    [
        ("A.json", '{"a": 1}', "expected a JSON array of row arrays"),
        ("A.json", '"0:0"', "expected a JSON array of row arrays"),
        ("A.json", "[1, 2, 3, 4]", "expected a JSON array of row arrays"),
        ("A.json", "[[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0], [0, 0, 0, 0]]", "rows of unequal lengths [3, 4]"),
        ("A.csv", "0,0,0,0\n0,0,0,0\n0,0,0\n0,0,0,0\n", "rows of unequal lengths [3, 4]"),
        # json.loads raises RecursionError, complex() OverflowError, csv.reader a csv.Error
        ("A.json", "[" * 100_000 + "]" * 100_000, "unreadable matrix file: maximum recursion depth exceeded"),
        ("A.json", "[[1" + "0" * 400 + ", 0], [0, 0]]", "unreadable matrix file: int too large to convert to float"),
        ("A.csv", "1" * 140_000 + ",0,0,0\n", "unreadable matrix file: field larger than field limit (131072)"),
        ("A.json", "[[1, 0], [0, 1], [1, 1]]", "expected a square matrix, got shape (3, 2)"),
        ("A.json", "[[{}, 0], [0, 0]]", "cannot read complex cell {}"),
        # JSON booleans are not numbers here, alone or in a [re, im] pair
        ("A.json", "[[true, false, 0, 0], [false, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]",
         "cannot read complex cell True"),
        ("A.json", "[[[true, 1], 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]",
         "cannot read complex cell [True, 1]"),
    ],
    ids=[
        "object", "string", "flat", "ragged", "ragged-csv", "deep-json", "huge-json-int", "long-csv-cell",
        "non-square", "object-cell", "bool-cell", "bool-pair-member",
    ],
)
def test_malformed_matrix_file_is_a_usage_error(tmp_path, capsys, name, text, message):
    path = tmp_path / name
    path.write_text(text)
    assert main(["grassmann", "--m", "2", "--n", "2", "--A", str(path), "--samples", "1"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"bad --A {path}: {message}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["grassmann", "dual"])
@pytest.mark.parametrize("entry", ["1e308", "1e-170"])
def test_coefficient_scale_out_of_float_range_is_a_usage_error(tmp_path, capsys, command, entry):
    path = tmp_path / "A.csv"
    path.write_text("0,0,0,0\n0,0,0,0\n0,0,0,0\n0,0,0," + entry + "\n")
    assert main([command, "--A", str(path), "--samples", "1"]) == EXIT_USAGE
    assert "coefficient matrix scale" in capsys.readouterr().err


# (option, value or --A file text, exit code, part of the message)
_DEGENERATE_INPUTS = {
    "zero-w": (("--w", "0,0,0"), EXIT_USAGE, "bad --w 0,0,0: need a nonzero vector"),
    # an empty --w is refused, not read as no --w at all (the default vector)
    "empty-w": (("--w", ""), EXIT_USAGE, "bad --w : empty complex cell"),
    # a nonzero w whose squares, and so sum w_i^2, underflow to zero
    "underflow-w": (
        ("--w", "1e-200,1e-200,1e-200"), EXIT_USAGE,
        "bad --w 1e-200,1e-200,1e-200: w is nonzero, but its squares underflow to zero",
    ),
    # the zero matrix, and a skew one, whose symmetric part (the only part a
    # projector form reads) is zero: both define the zero function
    "zero-A": (("--A", "0,0,0,0\n" * 4), EXIT_USAGE, "defines the zero function"),
    "skew-A": (("--A", "0,1,0,0\n-1,0,0,0\n0,0,0,2\n0,0,-2,0\n"), EXIT_USAGE, "defines the zero function"),
    # every |f| below ABS_FLOOR, or above ABS_CEIL, on all 20 candidates
    "tiny-w": (("--w", "1e-9,1e-9,1e-9"), EXIT_DOMAIN, "20 below the magnitude window"),
    "huge-w": (("--w", "1e5,1e5,1e5"), EXIT_DOMAIN, "the magnitude window [1e-06, 1e+06], 20 above it"),
}


@pytest.mark.parametrize(
    "case, command",
    # grassmann draws no conditioned sample: it has no magnitude window
    [
        (case, command)
        for case, (_, code, _) in _DEGENERATE_INPUTS.items()
        for command in ("grassmann", "pharmonic", "dual")
        if command != "grassmann" or code == EXIT_USAGE
    ],
)
def test_degenerate_coefficients_get_the_documented_exit_code(tmp_path, capsys, case, command):
    (option, value), code, message = _DEGENERATE_INPUTS[case]
    if option == "--A":
        path = tmp_path / "A.csv"
        path.write_text(value)
        value = str(path)
    assert main([command, option, value, "--samples", "2"]) == code
    captured = capsys.readouterr()
    assert not captured.out and message in captured.err
    assert len(captured.err.splitlines()) == 1 and "Traceback" not in captured.err


@pytest.mark.parametrize("command", ["grassmann", "pharmonic", "dual"])
def test_an_empty_matrix_path_is_a_usage_error(capsys, command):
    # --A '' names no file: it is refused, not read as no --A at all (the
    # default vector), nor as the current directory
    assert main([command, "--A", "", "--samples", "2"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert not captured.out and "bad --A : empty file name" in captured.err
    assert len(captured.err.splitlines()) == 1 and "Traceback" not in captured.err


def test_numerically_zero_function_fails_its_scale_check(tmp_path, capsys):
    # u u^T for u = 1e-50 (1, i, 0, 0): a valid coefficient matrix of scale
    # 1e-100, whose form is about 1e-100 at every sample, below
    # FUNCTION_SCALE_FLOOR, so the run reports a failure (exit 2), with a note
    path = tmp_path / "A.csv"
    path.write_text("1e-100,0:1e-100,0,0\n0:1e-100,-1e-100,0,0\n0,0,0,0\n0,0,0,0\n")
    code, out = run_cli(capsys, "grassmann", "--A", str(path), "--samples", "2")
    assert code == EXIT_FAIL
    report = json.loads(out)
    assert "function is numerically zero on every sample (degenerate input)" in report["notes"]
    failed = [r for r in report["checks"] if not r["passed"]]
    assert [(r["check"], r["point"]) for r in failed] == [("function_scale", "all")]
    assert 0 < failed[0]["residual"] < cli.FUNCTION_SCALE_FLOOR


@pytest.mark.parametrize(
    "argv",
    [
        # N = 39: a lift of 39^2 (741 + 2) = 1,130,103 components, just over the bound
        ("calibrate", "--m", "1", "--n", "38"),
        ("grassmann", "--m", "1", "--n", "38"),
    ],
)
def test_group_over_the_lift_bound_is_a_usage_error(capsys, argv):
    assert main([*argv, "--samples", "1"]) == EXIT_USAGE
    assert "group too large" in capsys.readouterr().err


@pytest.mark.parametrize(
    "config, allowed",
    [
        # the largest tested run: 524,288 components
        pytest.param(RunConfig("flag", blocks=(1, 1, 2), p=5), True, id="flag-112-p5"),
        pytest.param(RunConfig("flag", blocks=(1, 1, 1, 2), p=5), False, id="flag-1112-p5"),
        pytest.param(RunConfig("pharmonic", m=2, n=3, p=5), True, id="pharmonic-2-3-p5"),
        pytest.param(RunConfig("pharmonic", m=1, n=6, p=5), False, id="pharmonic-1-6-p5"),
        pytest.param(RunConfig("dual", m=2, n=3, p=5), True, id="dual-2-3-p5"),
        pytest.param(RunConfig("dual", m=1, n=6, p=5), False, id="dual-1-6-p5"),
        pytest.param(RunConfig("calibrate", m=1, n=37), True, id="calibrate-N38"),
        # so(200): 6.4 GB of basis matrices if it were built
        pytest.param(RunConfig("calibrate", m=1, n=199), False, id="calibrate-N200"),
    ],
)
def test_lift_bound_is_checked_before_anything_is_built(config, allowed):
    # _validate_common builds nothing, so the oversized cases cost nothing here
    if allowed:
        _validate_common(config)
    else:
        with pytest.raises(UsageError, match="group too large"):
            _validate_common(config)


@pytest.mark.parametrize(
    "config, N",
    [
        pytest.param(RunConfig("calibrate"), 4, id="calibrate-2-2"),
        pytest.param(RunConfig("flag", blocks=(1, 2)), 3, id="flag-12"),
        pytest.param(RunConfig("grassmann", m=19, n=19), 38, id="grassmann-19-19"),
    ],
)
def test_sample_count_bound_is_checked_before_anything_is_built(config, N):
    # the stack of sample points shares the bound of one lift: samples N^2
    # components at most; _validate_common builds nothing, so neither count
    # is sampled here
    largest = ops.MAX_LIFT_COMPONENTS // N**2
    _validate_common(dataclasses.replace(config, samples=largest))
    with pytest.raises(UsageError, match="too many samples"):
        _validate_common(dataclasses.replace(config, samples=largest + 1))


def test_over_bound_sample_count_exits_before_sampling(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("sampled")

    monkeypatch.setattr(cli, "sample_so", refuse)
    assert main(["calibrate", "--samples", str(10**12)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert not captured.out and "too many samples" in captured.err
    assert len(captured.err.splitlines()) == 1 and "Traceback" not in captured.err


@pytest.mark.parametrize(
    "config",
    [
        pytest.param(RunConfig("calibrate", m=1, n=3, samples=2), id="calibrate-1-3"),
        pytest.param(RunConfig("grassmann", m=2, n=3, samples=2), id="grassmann-2-3"),
        pytest.param(RunConfig("pharmonic", m=1, n=2, p=3, samples=2), id="pharmonic-1-2-p3"),
        pytest.param(RunConfig("flag", blocks=(1, 1, 2), p=2, samples=2), id="flag-112-p2"),
        pytest.param(RunConfig("dual", m=1, n=2, p=2, samples=2), id="dual-1-2-p2"),
        pytest.param(RunConfig("dual", m=2, n=1, p=2, samples=2), id="dual-2-1-p2"),
    ],
)
def test_lift_bound_formula_matches_the_walks_that_run(monkeypatch, config):
    # _lift_components sizes a run's largest lift from its config alone; the
    # entry lifts and the projector forms' generator tensors the command
    # really builds, each N^2 (|basis| + 2)^p components per point or
    # window, must reach it (one call builds the tensors of a group of windows)
    sizes = []
    lift, tensor = ops._lift, ops._generator_tensor

    def recording_lift(X, basis, p):
        sizes.append(X.shape[-1] ** 2 * (len(basis) + 2) ** p)
        return lift(X, basis, p)

    def recording_tensor(basis, windows, N, p):
        T = tensor(basis, windows, N, p)
        sizes.extend(window.size for window in T)
        return T

    monkeypatch.setattr(ops, "_lift", recording_lift)
    monkeypatch.setattr(ops, "_generator_tensor", recording_tensor)
    COMMANDS[config.command](config)
    assert max(sizes) == _lift_components(config)


@pytest.mark.parametrize(
    "argv",
    [
        ("pharmonic", "--m", "2", "--n", "2"),
        ("dual", "--m", "1", "--n", "2"),
        ("flag", "--blocks", "1,1,2"),
    ],
)
def test_deep_walks_lift_no_entries_above_depth_one(monkeypatch, capsys, argv):
    # the p-harmonic walks take phi's jet from the generator tensor; only the
    # depth-1 identity residuals lift matrix entries
    depths = []
    lift = ops._lift

    def recording(X, basis, p):
        depths.append(p)
        return lift(X, basis, p)

    monkeypatch.setattr(ops, "_lift", recording)
    code, _ = run_cli(capsys, *argv, "--p", "3", "--samples", "2")
    assert code == EXIT_PASS
    assert set(depths) <= {1}


def test_jet_error_during_a_run_exits_with_domain_code(monkeypatch, capsys):
    def overflow(config):
        raise NonFiniteError("exp overflow")

    monkeypatch.setitem(COMMANDS, "calibrate", overflow)
    assert main(["calibrate"]) == EXIT_DOMAIN
    assert "numerical domain failure" in capsys.readouterr().err


# -- the exit-code contract over generated argument vectors ------------------------------

_BAD_NUMBERS = st.sampled_from(["x", "", "1.5", "nan", "inf", "-inf", "1e400", "0x10"])
_CELLS = st.sampled_from(["0", "1", "-2.5", "1:1", "0:-1", "1e308", "1e-300", "1e-9"])
_BAD_CELLS = st.sampled_from(["nan", "inf", "1j", "x", "", "1:", "1:2:3"])


@st.composite
def _argument_vectors(draw):
    """(argv, matrix file, unread) for main; half the draws use only
    well-formed values.

    Each argv passes only options its command reads, but half the draws,
    wild or not, add one the command does not read (unread is then True), so
    a well-formed argv plus that one option is drawn about a quarter of the
    time.  Runs that get past validation keep --samples <= 2 and p <= 3, and
    the matrix file, when present, is a (suffix, text) pair for the test to
    write."""
    wild = draw(st.booleans())
    command = draw(st.sampled_from(sorted(COMMANDS)))
    reads = DECLARED[command]

    def value(valid, invalid):
        return str(draw(st.one_of(valid, invalid) if wild else valid))

    def option(name, valid, invalid):
        return [name, value(valid, invalid)] if name in reads and draw(st.booleans()) else []

    cells = st.one_of(_CELLS, _BAD_CELLS) if wild else _CELLS
    # --samples is always given: its default of 20 would make a run slow
    samples = value(st.sampled_from([1, 2]), st.sampled_from([0, -1, "x", 10**12]))
    argv = [command, "--samples", samples]
    argv += option("--m", st.integers(1, 3), st.one_of(st.integers(-1, 0), _BAD_NUMBERS))
    argv += option("--n", st.integers(1, 3), st.one_of(st.integers(-1, 0), _BAD_NUMBERS))
    bad_p = st.sampled_from([-1, 0, ops.DEPTH_CAP + 1])
    argv += option("--p", st.integers(1, 3), st.one_of(bad_p, _BAD_NUMBERS))
    seeds = st.sampled_from([0, 2**31 - 1, 2**32, 2**64 + 3])
    argv += option("--seed", seeds, st.one_of(st.just(-5), _BAD_NUMBERS))
    radii = st.sampled_from([0, 1e-300, 0.5, 1.5])
    argv += option("--radius", radii, st.one_of(st.sampled_from([1e3, -1]), _BAD_NUMBERS))
    tols = st.sampled_from([0, 1e-18, 1e300])
    argv += option("--tol", tols, st.one_of(st.just(-1), _BAD_NUMBERS))
    argv += option(
        "--w", st.lists(cells, min_size=1, max_size=6).map(",".join), st.text(max_size=12)
    )
    argv += option(
        "--blocks",
        st.lists(st.integers(1, 2), min_size=1, max_size=3).map(lambda b: ",".join(map(str, b))),
        st.one_of(st.sampled_from(["a", "1,,2", "2;2", ",", "0,1", "-1,2"]), st.text(max_size=6)),
    )
    unread = draw(st.booleans())
    if unread:
        extra = draw(st.sampled_from([name for name in OPTION_VALUES if name not in reads]))
        argv += [extra, OPTION_VALUES[extra]]
    matrix = st.integers(1, 4).flatmap(
        lambda k: st.lists(st.lists(cells, min_size=k, max_size=k), min_size=k, max_size=k)
    ).map(lambda rows: (".csv", "".join(",".join(row) + "\n" for row in rows)))
    garbage_text = st.sampled_from(["", "{", "[]", "[[1]]", '{"a": 1}', "[[1, [2]]]"])
    garbage = st.tuples(
        st.sampled_from([".csv", ".json"]), st.one_of(garbage_text, st.text(max_size=30))
    )
    matrix_file = None
    if "--A" in reads:
        matrix_file = draw(st.one_of(st.none(), st.one_of(matrix, garbage) if wild else matrix))
    return argv, matrix_file, unread


@given(_argument_vectors())
@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
def test_exit_code_contract_holds_for_generated_argument_vectors(tmp_path, capsys, case):
    # the run is in-process, so an exception escaping main fails the test
    argv, matrix_file, unread = case
    if matrix_file is not None:
        suffix, text = matrix_file
        path = tmp_path / f"matrix{suffix}"
        path.write_text(text)
        argv = argv + ["--A", str(path)]
    code = main(argv)
    if unread:
        assert code == EXIT_USAGE, argv
    else:
        assert code in (EXIT_PASS, EXIT_FAIL, EXIT_USAGE, EXIT_DOMAIN), argv
    capsys.readouterr()


# -- the small corner of the accepted domain ---------------------------------------------


def _small_domain() -> list:
    """pharmonic and dual on every (m, n) with m + n <= 5, at every p <= 5
    the lift bound admits; flag on every composition of 2-5 columns, at
    p <= 5 for 2-3 columns, p <= 3 for 4 and p <= 2 for 5."""
    runs = [
        (command, "--m", str(m), "--n", str(N - m), "--p", str(p))
        for command in ("pharmonic", "dual")
        for N in range(2, 6)
        for m in range(1, N)
        for p in range(1, 6)
        if _lift_components(RunConfig(command, m=m, n=N - m, p=p)) <= ops.MAX_LIFT_COMPONENTS
    ]
    for n, top in ((2, 5), (3, 5), (4, 3), (5, 2)):
        for blocks in compositions(n):
            runs += [("flag", "--blocks", ",".join(map(str, blocks)), "--p", str(p)) for p in range(1, top + 1)]
    return runs


# A finding, pinned as it stands: at seed 7, flag (1,1,1) at p = 5 reads
# tau_p_residual 2.15e-3 at point 1 against 1e-4, where block 1's |phi|
# is 0.40; the same point reads 1.3e-9 at p = 3 and 1.2e-6 at p = 4.
SMALL_DOMAIN_FAILURES = {("flag", "--blocks", "1,1,1", "--p", "5"): [("tau_p_residual", 1)]}


def test_the_small_corner_of_the_accepted_domain_passes(capsys):
    # every run exits 0 with empty stderr but the pinned finding; none
    # exits 4, so no conditioned point meets a branch cut on the walk
    runs = _small_domain()
    assert len(runs) == 171
    for argv in runs:
        code = main([*argv, "--samples", "2"])
        captured = capsys.readouterr()
        want = SMALL_DOMAIN_FAILURES.get(argv, [])
        assert (code, captured.err) == (EXIT_FAIL if want else EXIT_PASS, ""), argv
        failing = [(c["check"], c["point"]) for c in json.loads(captured.out)["checks"] if not c["passed"]]
        assert failing == want, argv


# -- the shared p-harmonic pipeline ------------------------------------------------------

PIPELINE_RUNS = {
    "pharmonic": ["pharmonic", "--m", "1", "--n", "2", "--samples", "2"],
    "flag": ["flag", "--blocks", "2,2", "--samples", "2"],
    "dual": ["dual", "--m", "1", "--n", "2", "--radius", "0.5", "--samples", "2"],
}


def _fake_residuals(monkeypatch, outcomes):
    """Replace the batched ops.p_harmonic_residuals; outcome k answers for the
    k-th sample point (the last repeats), and an exception class makes the
    call raise it naming those points' lanes.  Returns every point handed to
    it, one entry per lane."""
    calls = []
    order = {}

    def fake(f, p, points, basis, plain=None):
        calls.extend(points)
        answers = [
            outcomes[min(order.setdefault(pt.tobytes(), len(order)), len(outcomes) - 1)]
            for pt in points
        ]
        failing = [lane for lane, answer in enumerate(answers) if isinstance(answer, type)]
        if failing:
            raise answers[failing[0]]("forced by the test", failing)
        residuals, witnesses = np.array(answers, dtype=float).reshape(-1, 2).T
        if plain is None:
            return residuals, witnesses
        ((group, _),), _ = ex.tree_forms(f)  # the riders' one form group
        return residuals, witnesses, ops.eigen_jets(group, plain, basis)

    monkeypatch.setattr(ops, "p_harmonic_residuals", fake)
    return calls


@pytest.mark.parametrize("command", sorted(PIPELINE_RUNS))
def test_a_cut_at_a_conditioned_point_exits_4(monkeypatch, capsys, command):
    # the sampler keeps no point on the cut; a walk that meets one there
    # anyway ends the run, naming the point, and no walk is made again
    calls = _fake_residuals(monkeypatch, [BranchCutError, (0.0, 1.0)])
    code = main(PIPELINE_RUNS[command])
    captured = capsys.readouterr()
    assert code == EXIT_DOMAIN
    assert not captured.out and len(calls) == 2
    assert captured.err == "numerical domain failure: lanes [0] forced by the test\n"


@pytest.mark.parametrize("command", sorted(PIPELINE_RUNS))
def test_sub_floor_witness_drops_the_point(monkeypatch, capsys, command):
    _fake_residuals(monkeypatch, [(0.0, PROPERNESS_FLOOR / 2), (0.0, 1.0)])
    code, out = run_cli(capsys, *PIPELINE_RUNS[command])
    doc = json.loads(out)
    assert "point 0 dropped: order-(p-1) witness below floor" in doc["notes"]
    witness_points = [c["point"] for c in doc["checks"] if c["check"] == "properness_witness"]
    assert witness_points == [1]
    assert code == EXIT_PASS


@pytest.mark.parametrize("command", sorted(PIPELINE_RUNS))
def test_every_point_dropped_fails_properness(monkeypatch, capsys, command):
    calls = _fake_residuals(monkeypatch, [(0.0, 0.0)])
    code, out = run_cli(capsys, *PIPELINE_RUNS[command])
    doc = json.loads(out)
    assert len(calls) == 2
    assert not [c for c in doc["checks"] if c["check"] == "tau_p_residual"]
    failing = [c for c in doc["checks"] if not c["passed"]]
    assert failing == [
        {"check": "properness_witness", "point": "all", "residual": 0.0,
         "threshold": PROPERNESS_FLOOR, "passed": False, "kind": "lower"}
    ]
    assert "order-(p-1) image vanished on every sample" in doc["notes"]
    assert code == EXIT_FAIL


def _conditioned_on(monkeypatch, points):
    """Have ops.conditioned_sample return the hand-made stack `points` as
    the conditioned sample, one draw per point."""
    monkeypatch.setattr(ops, "conditioned_sample", lambda f, sampler, count, seed, first: (points, len(points)))


def test_pipeline_names_the_point_on_the_log_cut(monkeypatch):
    # a hand-made "conditioned" stack with x11 < 0 at point 1 only: the one
    # walk raises, naming point 1, and nothing is dropped or walked again
    x = sample_so(3, 11)
    points = np.stack([x] * 4)
    points[:, 0, 0] = abs(x[0, 0]) * np.array([1.0, -1.0, 1.0, 1.0])
    f = Product((Log(Entry(1, 1)), Entry(2, 2)))
    _conditioned_on(monkeypatch, points)
    walks = []
    residuals = ops.p_harmonic_residuals

    def recording_residuals(f, p, points, basis, *plain):
        walks.append(len(points))
        return residuals(f, p, points, basis, *plain)

    monkeypatch.setattr(ops, "p_harmonic_residuals", recording_residuals)
    notes = []
    sampler = functools.partial(sample_so, 3)
    with pytest.raises(BranchCutError) as caught:
        _p_harmonic_records(f, f, sampler, so_basis(3), RunConfig("pharmonic", p=2), notes)
    assert caught.value.lanes == (1,)
    assert walks == [4] and notes == []


def test_a_later_stacked_member_on_the_cut_names_its_point(monkeypatch):
    # a tree over a lane stack of two members, x11^2 and x11, on four points
    # where x11 < 0 at point 1 only: the log reaches the cut on member 1's
    # lane of point 1, entry (1, 1) of the (4, 2) lanes, and the error
    # names point 1
    x = sample_so(3, 11)
    assert abs(x[0, 0]) > 1e-3
    points = np.stack([x] * 4)
    points[:, 0, 0] = abs(x[0, 0]) * np.array([1.0, -1.0, 1.0, 1.0])
    stack = Stack((Product((Entry(1, 1), Entry(1, 1))), Entry(1, 1)))
    f = Unstack(Log(stack))
    basis = so_basis(3)
    with pytest.raises(BranchCutError) as caught:
        ops.p_harmonic_residuals(f, 2, points, basis)
    assert caught.value.lanes == (1,)
    assert str(caught.value).startswith("lanes [1] "), str(caught.value)
    with pytest.raises(BranchCutError) as caught:
        ops.check_invariance(f, np.stack([np.eye(3) for _ in ops.invariance_seeds(0)]), points)
    assert caught.value.lanes == (1,)
    # an eigenfamily's members are walked on the points' lanes, then stacked
    with pytest.raises(BranchCutError) as caught:
        ops.eigen_jets(Stack((stack.members[0], Log(Entry(1, 1)))), points, basis)
    assert caught.value.lanes == (1,)
    _conditioned_on(monkeypatch, points)
    sampler = functools.partial(sample_so, 3)
    with pytest.raises(BranchCutError) as caught:
        _p_harmonic_records(f, f, sampler, basis, RunConfig("pharmonic", p=2), [])
    assert caught.value.lanes == (1,)


@pytest.mark.parametrize(
    "argv, functions",
    [
        (("pharmonic", "--m", "2", "--n", "2", "--samples", "3"), 0),
        (("dual", "--m", "1", "--n", "2", "--radius", "0.5", "--samples", "3"), 1),
        (("flag", "--blocks", "1,1,2", "--samples", "3"), 3),
    ],
)
def test_pipeline_walks_each_chunk_once_per_depth(monkeypatch, capsys, argv, functions):
    walks = _counting_walks(monkeypatch)
    code, _ = run_cli(capsys, *argv, "--p", "3")
    assert code == EXIT_PASS
    # one depth-3 walk of the three conditioned points; a run with eigen
    # checks (on one function or one family) has its three plain points ride it
    plain = 3 if functions else 0
    assert walks == [(3, 3 + plain, plain)]


@pytest.mark.parametrize(
    "argv, forms",
    [
        (("flag", "--blocks", "1,1,2"), 3),
        (("flag", "--blocks", "2,2"), 2),
        (("dual", "--m", "1", "--n", "2"), 1),
    ],
    ids=["flag-112", "flag-22", "dual-1-2"],
)
def test_a_run_pairs_each_form_once(monkeypatch, capsys, argv, forms):
    # one walk for the eigen checks and the p-harmonic check: one form
    # pairing pass over the plain and conditioned points, one generator
    # tensor for the run's windows, and one pairing of each form
    calls = {name: [] for name in ("_form_jets", "_generator_tensor", "_form_jet")}
    for name, seen in calls.items():

        def recording(*args, original=getattr(ops, name), seen=seen):
            seen.append(args)
            return original(*args)

        monkeypatch.setattr(ops, name, recording)
    code, _ = run_cli(capsys, *argv, "--p", "2", "--samples", "3")
    assert code == EXIT_PASS
    (walk,) = calls["_form_jets"]
    assert len(walk[1]) == 6
    (tensor,) = calls["_generator_tensor"]
    assert tensor[3] == 2
    pairings = [id(form) for args in calls["_form_jet"] for form in args[0]]
    assert len(pairings) == len(set(pairings)) == forms


def test_a_three_block_flag_evaluates_its_moved_points_once(monkeypatch, capsys):
    # the invariance and non-descent actions share one values_at call
    calls, inside = [], []
    values_at = ops.values_at

    def recording_values(f, X):
        calls.append(bool(inside))
        return values_at(f, X)

    def marking(fn):
        def marked(*args, **kwargs):
            inside.append(fn)
            try:
                return fn(*args, **kwargs)
            finally:
                inside.pop()

        return marked

    monkeypatch.setattr(ops, "values_at", recording_values)
    for name in ("check_invariance", "non_descent_witness"):
        monkeypatch.setattr(ops, name, marking(getattr(ops, name)))
    code, _ = run_cli(capsys, "flag", "--blocks", "1,1,2", "--p", "2", "--samples", "3")
    assert code == EXIT_PASS
    assert calls.count(True) == 1


def test_flag_samples_and_sums_the_same_block_forms(monkeypatch, capsys):
    """The tree the flag run conditions its points on is the very block
    family whose sum's p-harmonicity it checks."""
    sampled, summed = [], []
    sample, residuals = ops.conditioned_sample, ops.p_harmonic_residuals

    def recording_sample(f, *args):
        sampled.append(f)
        return sample(f, *args)

    def recording_residuals(f, *args):
        summed.append(f)
        return residuals(f, *args)

    monkeypatch.setattr(ops, "conditioned_sample", recording_sample)
    monkeypatch.setattr(ops, "p_harmonic_residuals", recording_residuals)
    code, _ = run_cli(capsys, "flag", "--blocks", "1,1,2", "--p", "2", "--samples", "2")
    assert code == EXIT_PASS
    (family,) = sampled
    assert isinstance(family, Stack) and len(family.members) == 3 and summed
    for total in summed:
        # Unstack(... + c2 log(phi)), phi the block family
        assert total.child.terms[-1].factors[-1].child is family
        readers = _readers(total)
        for phi in family.members:
            assert readers[id(phi)] == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("calibrate", "--m", "1", "--n", "2"),
        ("grassmann", "--m", "2", "--n", "2"),
        ("pharmonic", "--m", "1", "--n", "2"),
        ("flag", "--blocks", "1,1,2"),
        ("flag", "--blocks", "2,2"),
        ("dual", "--m", "1", "--n", "2"),
        ("dual", "--m", "2", "--n", "2"),
    ],
    ids=" ".join,
)
def test_a_run_draws_each_seed_once(monkeypatch, capsys, argv):
    # one ledger entry per lane a sampler draws: (block sizes, coefficients,
    # radius, seed); a repeated entry is a point drawn twice in one run
    ledger = []
    lane_draws = group._lane_draws

    def recording(requests, coefficients=0, radius=0.0):
        for sizes, seed in requests:
            seeds = [seed] if np.ndim(seed) == 0 else seed
            ledger.extend((tuple(sizes), coefficients, radius, int(s)) for s in seeds)
        return lane_draws(requests, coefficients, radius)

    monkeypatch.setattr(group, "_lane_draws", recording)
    code, _ = run_cli(capsys, *argv, "--samples", "3")
    assert code == EXIT_PASS
    repeated = {entry for entry in ledger if ledger.count(entry) > 1}
    assert ledger and not repeated


@pytest.mark.parametrize(
    "argv",
    [
        ("grassmann", "--m", "2", "--n", "2"),
        ("grassmann", "--m", "3", "--n", "4"),
        ("flag", "--blocks", "2,2"),
        ("flag", "--blocks", "1,1,2"),
        ("flag", "--blocks", "2,1,1"),
    ],
    ids=" ".join,
)
def test_a_run_draws_its_points_and_actions_in_one_sampler_pass(monkeypatch, capsys, argv):
    # one seeding hash and one group-relation check per run, over the plain
    # points (flag: the first conditioned batch), the invariance actions and,
    # with three or more blocks, the merged-subgroup witness actions, drawn
    # in that order from the seeds the operators' helpers state
    calls, drawn = [], []
    for name in ("_seed_words", "validate_group_point"):

        def counting(*args, _fn=getattr(group, name), _name=name):
            calls.append(_name)
            return _fn(*args)

        monkeypatch.setattr(group, name, counting)
    lane_draws = group._lane_draws

    def recording(requests, *args):
        drawn.extend(int(s) for _, seeds in requests for s in seeds)
        return lane_draws(requests, *args)

    monkeypatch.setattr(group, "_lane_draws", recording)
    code, _ = run_cli(capsys, *argv, "--samples", "3")
    assert code == EXIT_PASS
    assert sorted(calls) == ["_seed_words", "validate_group_point"]
    if argv[0] == "grassmann":
        want = [*range(7, 10), *ops.invariance_seeds(7)]
    else:
        three = len(argv[2].split(",")) >= 3
        witness = ops.witness_seeds(1, 7) if three else ()
        want = [*ops.first_batch_seeds(3, 7), *ops.invariance_seeds(7), *witness]
    assert drawn == want


@pytest.mark.parametrize(
    "argv",
    [("grassmann", "--m", "2", "--n", "2"), ("dual", "--m", "1", "--n", "2")],
    ids=" ".join,
)
def test_plain_points_are_evaluated_only_by_the_eigen_walk(monkeypatch, capsys, argv):
    # f's values at the plain points (the function_scale record, the
    # degenerate-samples note) are the value channel of the walk the eigen
    # check reads (grassmann's own, dual's depth-p walk): no plain
    # evaluation is handed that stack again
    plain, handed = [], []
    jets, residuals, values_at = ops.eigen_jets, ops.p_harmonic_residuals, ops.values_at

    def recording_jets(f, points, basis):
        plain.append(points.copy())
        return jets(f, points, basis)

    def recording_residuals(f, p, points, basis, riders=None):
        if riders is not None:
            plain.append(riders.copy())
        return residuals(f, p, points, basis, riders)

    def recording_values(f, X):
        handed.append(X.copy())
        return values_at(f, X)

    monkeypatch.setattr(ops, "eigen_jets", recording_jets)
    monkeypatch.setattr(ops, "p_harmonic_residuals", recording_residuals)
    monkeypatch.setattr(ops, "values_at", recording_values)
    code, _ = run_cli(capsys, *argv, "--samples", "3")
    assert code == EXIT_PASS
    (points,) = plain
    assert handed and not any(np.array_equal(X, points) for X in handed)


def test_fifth_order_flag_walks_two_points_at_a_time(monkeypatch, capsys):
    # flag (1,1,2) at p = 5 lifts 4^2 * 8^5 = 524,288 components per point, so
    # two points fill MAX_LIFT_COMPONENTS; the three plain points, 4^2 * 8
    # components each, ride the second chunk; a cheap tree stands in at depth 5
    walks = _counting_walks(monkeypatch, deep=Product((Entry(1, 1), Entry(2, 2))))
    run_cli(capsys, "flag", "--blocks", "1,1,2", "--p", "5", "--samples", "3")
    assert walks == [(5, 2, 0), (5, 4, 3)]
    for p, lanes, plain in walks:
        assert (lanes - plain) * 16 * 8**p + plain * 16 * 8 <= ops.MAX_LIFT_COMPONENTS


def test_a_two_chunk_flag_run_prints_the_document_of_member_by_member_pairing(monkeypatch, capsys):
    # flag (1,1,2) at p = 5 walks its three points in chunks of two and one
    # and pairs its family across two tensor groups, of two windows and of
    # one.  Built, paired, walked and eigen-checked one member at a time, as
    # before the family took one pass, the run prints the same document,
    # residual bits included.
    argv = ("flag", "--blocks", "1,1,2", "--p", "5", "--samples", "3")
    walks = _counting_walks(monkeypatch)
    code, out = run_cli(capsys, *argv)
    assert walks == [(5, 2, 0), (5, 4, 3)]
    monkeypatch.undo()
    monkeypatch.setattr(ex, "flag_forms", flag_forms_reference)
    monkeypatch.setattr(ops, "_form_jets", form_jets_reference)
    monkeypatch.setattr(ops, "check_eigenfamily", eigenfamily_reference)
    alone_code, alone = run_cli(capsys, *argv)
    docs = [json.loads(text) for text in (out, alone)]
    for doc in docs:
        doc.pop("timing_seconds")
    assert code == alone_code == EXIT_PASS
    assert docs[0] == docs[1]


def _counting_walks(monkeypatch, deep=None):
    """Wrap ops._form_jets, the form pairing each walk of a chunk starts
    with, and walk `deep` in place of f at depths above 1 when given;
    returns the (depth, lanes, plain lanes) of every walk."""
    walks = []
    pairing, walk = ops._form_jets, ops._tree_jet

    def counting_pairing(forms, X, basis, p, plain=0):
        walks.append((p, len(X), plain))
        return pairing(forms, X, basis, p, plain)

    def substituting_walk(f, X, basis, p, known, entries):
        if deep is not None and p > 1:
            f, entries = deep, True
        return walk(f, X, basis, p, known, entries)

    monkeypatch.setattr(ops, "_form_jets", counting_pairing)
    monkeypatch.setattr(ops, "_tree_jet", substituting_walk)
    return walks


def test_dual_at_radius_zero_expects_no_witness(monkeypatch, capsys):
    _fake_residuals(monkeypatch, [(0.0, 0.0)])
    code, out = run_cli(capsys, "dual", "--m", "1", "--n", "2", "--radius", "0", "--samples", "2")
    doc = json.loads(out)
    assert not [c for c in doc["checks"] if c["point"] == "all"]
    assert "order-(p-1) image vanished on every sample" not in doc["notes"]


# -- every order the CLI accepts ---------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ("pharmonic", "--m", "2", "--n", "2", "--p", "4", "--samples", "2"),
        ("dual", "--m", "1", "--n", "2", "--p", "4", "--samples", "2"),
        ("flag", "--blocks", "1,1,2", "--p", "1", "--samples", "2"),
        ("dual", "--m", "1", "--n", "2", "--p", "1", "--samples", "2"),
        ("flag", "--blocks", "1,1,2", "--p", "4", "--samples", "2"),
        ("dual", "--m", "1", "--n", "2", "--p", "5", "--samples", "2"),
    ],
)
def test_fourth_order_runs_pass(capsys, argv):
    code, out = run_cli(capsys, *argv)
    doc = json.loads(out)
    residuals = [c for c in doc["checks"] if c["check"] == "tau_p_residual"]
    assert code == EXIT_PASS, doc["max_residuals"]
    assert residuals and all(c["passed"] for c in residuals)


@pytest.mark.parametrize(
    "argv, samples, seconds",
    [
        pytest.param(("pharmonic", "--m", "2", "--n", "2"), 1, 10.0, id="pharmonic"),
        pytest.param(("flag", "--blocks", "2,2"), 1, 30.0, id="flag"),
        # two points in one walk: the largest lift the CLI accepts for flag
        pytest.param(("flag", "--blocks", "1,1,2"), 2, 30.0, id="flag-two-points"),
    ],
)
def test_fifth_order_run_passes_within_time_and_memory_budget(argv, samples, seconds):
    start = time.perf_counter()
    proc, peak_mb = run_cli_measured(*argv, "--p", "5", "--samples", str(samples))
    elapsed = time.perf_counter() - start
    assert proc.returncode == EXIT_PASS, proc.stdout + proc.stderr
    doc = json.loads(proc.stdout)
    points = {c["point"] for c in doc["checks"] if c["check"] == "tau_p_residual"}
    assert len(points) == samples
    assert elapsed < seconds
    assert peak_mb < 300.0


def test_fifth_order_four_point_walk_within_the_same_budget():
    # 4 x 124,416 components: all four points in one walk
    start = time.perf_counter()
    proc, peak_mb = run_cli_measured("pharmonic", "--m", "2", "--n", "2", "--p", "5", "--samples", "4")
    elapsed = time.perf_counter() - start
    assert proc.returncode == EXIT_PASS, proc.stdout + proc.stderr
    doc = json.loads(proc.stdout)
    points = {c["point"] for c in doc["checks"] if c["check"] == "tau_p_residual"}
    assert points == {0, 1, 2, 3}
    assert elapsed < 10.0
    assert peak_mb < 300.0


@pytest.mark.parametrize(
    "argv, label",
    [
        pytest.param(("calibrate", "--m", "1", "--n", "37"), "coordinate", id="calibrate-N38"),
        pytest.param(("grassmann", "--m", "1", "--n", "37"), "projector", id="grassmann-1-37"),
        pytest.param(("grassmann", "--m", "19", "--n", "19"), "projector", id="grassmann-19-19"),
    ],
)
def test_largest_identity_runs_pass_within_the_fifth_order_budget(argv, label):
    # N = 38, the widest so(N) basis the lift bound accepts: one point's
    # 38^4 pairing tensor, taken one slab of rows at a time, under the
    # 10 s / 300 MB budget of a p = 5 run
    start = time.perf_counter()
    proc, peak_mb = run_cli_measured(*argv, "--samples", "1")
    elapsed = time.perf_counter() - start
    assert proc.returncode == EXIT_PASS, proc.stdout + proc.stderr
    doc = json.loads(proc.stdout)
    identities = {c["check"] for c in doc["checks"] if c["point"] == 0}
    assert {f"tau_{label}", f"kappa_{label}"} <= identities
    assert elapsed < 10.0
    assert peak_mb < 300.0
