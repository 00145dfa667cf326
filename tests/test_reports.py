import json
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from pharmonic.cli import COMMANDS, RunConfig, main
from pharmonic.reports import (
    REPORT_SCHEMA,
    SCHEMA_VERSION,
    CheckRecord,
    VerificationReport,
    lower_check,
    upper_check,
    validate_report_dict,
)


def _sample_report():
    checks = [
        upper_check("alpha", 0, 1e-12, 1e-9),
        upper_check("alpha", 1, 3e-11, 1e-9),
        upper_check("beta", 0, 2e-10, 1e-8),
        lower_check("witness", 0, 0.4, 1e-3),
    ]
    return VerificationReport("demo", {"seed": 7}, checks, notes=["note"])


@pytest.mark.parametrize("kind", [upper_check, lower_check])
@pytest.mark.parametrize(
    "residuals",
    [[float("nan")], [float("nan"), 0.5], [0.5, float("nan")], [0.2, float("nan"), 0.5], [float("nan"), float("nan")]],
    ids=["alone", "first", "last", "between", "twice"],
)
def test_a_nan_residual_shows_in_max_residuals(kind, residuals):
    checks = [kind("x", i, r, 1.0) for i, r in enumerate(residuals)] + [kind("y", 0, 0.25, 1.0)]
    report = VerificationReport("demo", {}, checks)
    summary = report.max_residuals
    assert np.isnan(summary["x"]) and summary["y"] == 0.25
    assert not report.passed
    assert '"x": NaN' in report.to_json()


def test_record_direction_semantics():
    assert upper_check("a", 0, 1e-10, 1e-9).passed
    assert not upper_check("a", 0, 1e-8, 1e-9).passed
    assert lower_check("w", 0, 0.5, 1e-3).passed
    assert not lower_check("w", 0, 1e-5, 1e-3).passed


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_numpy_thresholds_give_python_bool_verdicts(dtype):
    records = [
        upper_check("a", 0, 0.5, dtype(1.0)),
        upper_check("a", 1, 2.0, dtype(1.0)),
        lower_check("w", 0, 0.5, dtype(1e-3)),
        lower_check("w", 1, 1e-5, dtype(1e-3)),
    ]
    assert [r.passed for r in records] == [True, False, True, False]
    assert all(type(r.passed) is bool and type(r.threshold) is float for r in records)
    report = VerificationReport("demo", {}, records)
    assert report.to_json() == json.dumps(report.as_dict(), indent=2, sort_keys=True)


def test_aggregates():
    report = _sample_report()
    assert report.passed
    assert report.max_residuals["alpha"] == 3e-11
    assert report.max_residuals["witness"] == 0.4
    assert len([c for c in report.checks if c.check == "alpha"]) == 2


def test_overall_fails_when_any_record_fails():
    report = _sample_report()
    report.checks.append(upper_check("beta", 1, 1.0, 1e-8))
    assert not report.passed


def test_json_round_trip_validates_against_schema():
    doc = json.loads(_sample_report().to_json())
    validate_report_dict(doc)
    assert doc["version"]
    assert REPORT_SCHEMA["schema_version"] == SCHEMA_VERSION


def test_serialization_is_deterministic_modulo_timing():
    a = _sample_report()
    b = _sample_report()
    a.timing_seconds = 1.0
    b.timing_seconds = 2.0
    da, db = a.as_dict(), b.as_dict()
    da.pop("timing_seconds"), db.pop("timing_seconds")
    assert json.dumps(da, sort_keys=True) == json.dumps(db, sort_keys=True)


def _field_dict(obj) -> dict:
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def _oracle(report) -> str:
    """json.dumps of the report's document, built field by field."""
    doc = {
        "command": report.command,
        "config": report.config,
        "checks": [_field_dict(c) for c in report.checks],
        "max_residuals": report.max_residuals,
        "passed": report.passed,
        "notes": list(report.notes),
        "timing_seconds": report.timing_seconds,
        "version": report.version,
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def test_report_json_is_the_field_by_field_dump():
    config = RunConfig("flag", blocks=(2, 1, 1), samples=3, out="r.json").as_dict()
    checks = [
        upper_check("alpha", 0, 1e-12, 1e-9),
        upper_check("alpha", "all", 3e-11, 1e-9),
        lower_check("witness", 1, 0.4, 1e-3),
        lower_check("properness", "all", 1e-5, 1e-3),
    ]
    for c in checks:
        assert list(c.as_dict().items()) == list(_field_dict(c).items())
    report = VerificationReport("flag", config, checks, notes=["drew 7", "note 2"])
    report.timing_seconds = 0.125
    assert report.to_json() == _oracle(report)


@pytest.mark.parametrize(
    "config",
    [
        RunConfig("calibrate", m=1, n=2, samples=3),
        RunConfig("grassmann", m=2, n=2, samples=3),
        RunConfig("pharmonic", m=1, n=2, p=2, samples=3),
        RunConfig("flag", blocks=(1, 1, 2), p=2, samples=2),
        RunConfig("dual", m=1, n=2, p=2, radius=0.5, samples=3),
    ],
    ids=lambda config: config.command,
)
def test_every_command_report_encodes_as_the_json_dumps_oracle(config):
    report = COMMANDS[config.command](config)
    report.timing_seconds = 0.1 + 0.2
    assert report.to_json() == _oracle(report)
    assert report.to_json() == json.dumps(report.as_dict(), indent=2, sort_keys=True)


_SPECIAL_FLOATS = [float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 5e-324, 2.2e-308, 1e16, 0.1]
_floats = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True) | st.sampled_from(
    _SPECIAL_FLOATS
)
_texts = st.text() | st.sampled_from(['a"b', "back\\slash", "tab\tnul\x00\x1f", "\u00e9\u2211\U0001f600", ""])
_records = st.builds(
    CheckRecord,
    check=_texts,
    point=st.integers() | st.sampled_from(["all", "A*"]),
    residual=_floats,
    threshold=_floats,
    passed=st.booleans(),
    kind=st.sampled_from(["upper", "lower"]) | _texts,
)
_config_values = st.none() | st.integers() | _floats | _texts | st.tuples(st.integers(), st.none(), _texts)
_reports = st.builds(
    VerificationReport,
    command=_texts,
    config=st.dictionaries(_texts, _config_values, max_size=4),
    checks=st.lists(_records, max_size=6),
    notes=st.lists(_texts, max_size=3),
    timing_seconds=_floats,
)


@given(_reports)
@example(VerificationReport("empty", {"blocks": (1, 2), "a_file": None}, []))
@example(
    VerificationReport(
        "special",
        {},
        [CheckRecord('q"\\\x07\u00e9', point, x, x, x == x) for x in _SPECIAL_FLOATS for point in (0, "all", "A*")],
    )
)
def test_report_json_is_byte_equal_to_the_json_dumps_oracle(report):
    assert report.to_json() == _oracle(report)


def test_record_fields_of_other_types_encode_as_json_dumps_does(capsys, monkeypatch):
    # a float subclass encodes as json encodes it; a numpy bool verdict or a
    # numpy integer point is refused, and the CLI prints nothing
    subclass = VerificationReport("demo", {}, [CheckRecord("a", 0, np.float64(0.5), 1.0, True)])
    assert subclass.to_json() == _oracle(subclass)
    refused = (CheckRecord("a", 0, 0.5, 1.0, np.bool_(True)), CheckRecord("a", np.int64(0), 0.5, 1.0, True))
    for record in refused:
        report = VerificationReport("calibrate", {}, [upper_check("b", 0, 0.0, 1.0), record])
        with pytest.raises(TypeError, match="not JSON serializable"):
            report.to_json()
        monkeypatch.setitem(COMMANDS, "calibrate", lambda config, report=report: report)
        with pytest.raises(TypeError, match="not JSON serializable"):
            main(["calibrate", "--m", "1", "--n", "1", "--samples", "1"])
        assert capsys.readouterr().out == ""


def test_validator_rejects_malformed_documents():
    doc = json.loads(_sample_report().to_json())
    bad = dict(doc)
    bad.pop("checks")
    with pytest.raises(ValueError):
        validate_report_dict(bad)

    inconsistent = json.loads(_sample_report().to_json())
    inconsistent["passed"] = False
    with pytest.raises(ValueError):
        validate_report_dict(inconsistent)

    wrong_kind = json.loads(_sample_report().to_json())
    wrong_kind["checks"][0]["kind"] = "sideways"
    with pytest.raises(ValueError):
        validate_report_dict(wrong_kind)

    # documents that `pharmonic report-schema` forbids; JSON booleans are not numbers
    for path, value in (
        (("checks", 0, "threshold"), "1e-9"),
        (("checks", 0, "point"), [0]),
        (("checks", 0, "passed"), "true"),
        (("timing_seconds",), "0.5"),
        (("version",), 1),
        (("notes", 0), 3),
        (("max_residuals", "alpha"), "3e-11"),
        (("checks", 0, "residual"), False),
    ):
        malformed = json.loads(_sample_report().to_json())
        target = malformed
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(ValueError):
            validate_report_dict(malformed)


_SWEEP = str(Path(__file__).resolve().parents[1] / "scripts" / "run_verification_suite.py")


def _sweep_script():
    import importlib.util

    spec = importlib.util.spec_from_file_location("run_verification_suite", _SWEEP)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sweep_comparison_names_differing_fields(tmp_path):
    compare_reports = _sweep_script().compare_reports
    old = json.loads(_sample_report().to_json())
    previous = tmp_path / "demo.json"
    previous.write_text(json.dumps(old))

    moved = json.loads(json.dumps(old))
    moved["checks"][2]["residual"] += 5e-11
    moved["timing_seconds"] = 99.0
    differing, change = compare_reports(moved, previous)
    assert differing == [] and change == pytest.approx(5e-11)

    flipped = json.loads(json.dumps(old))
    flipped["checks"][3]["passed"] = False
    flipped["notes"] = []
    assert compare_reports(flipped, previous)[0] == ["verdicts", "notes"]

    renamed = json.loads(json.dumps(old))
    renamed["checks"][0]["point"] = 5
    differing, change = compare_reports(renamed, previous)
    assert differing == ["ids"] and change != change
    assert compare_reports(old, tmp_path / "absent.json")[0] == ["missing"]


@pytest.mark.parametrize("tol_scale, code", [("1.0", 0), ("1e-30", 2)])
def test_sweep_survives_a_closed_stdout(tmp_path, tol_scale, code):
    # as in `run_verification_suite.py | head -1`: the reader takes the
    # header line and closes the pipe, so the sweep's next write meets a
    # broken pipe; it must run on, keep its exit code and print no traceback
    import os
    import subprocess
    import sys

    out_dir = tmp_path / "reports"
    argv = [sys.executable, _SWEEP, "--samples", "2", "--out-dir", str(out_dir)]
    env = {**os.environ, "GH_VERIFY_TOL_SCALE": tol_scale}
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env) as proc:
        assert proc.stdout.readline().startswith("run ")
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert proc.wait(timeout=300) == code
    assert stderr == ""
    assert len(list(out_dir.glob("*.json"))) == len(_sweep_script().build_runs(2))


def test_sweep_compare_fails_on_dropped_and_missing_runs(tmp_path, monkeypatch, capsys):
    sweep = _sweep_script()
    runs = [("calibrate_N2", "calibrate --m 1 --n 1 --samples 2")]
    monkeypatch.setattr(sweep, "build_runs", lambda samples: runs)
    base = tmp_path / "base"
    assert sweep.main(["--out-dir", str(base)]) == 0
    capsys.readouterr()

    def compare():
        code = sweep.main(["--out-dir", str(tmp_path / "head"), "--compare", str(base)])
        return code, {line.split()[0]: line for line in capsys.readouterr().out.splitlines() if line}

    code, lines = compare()
    assert code == 0 and "same" in lines["calibrate_N2"]

    (base / "calibrate_N9.json").write_text((base / "calibrate_N2.json").read_text())
    code, lines = compare()
    assert code == 2 and "same" in lines["calibrate_N2"]
    assert lines["calibrate_N9"].split()[1] == "dropped"

    (base / "calibrate_N9.json").rename(base / "calibrate_N2.json")
    (base / "calibrate_N2.json").rename(base / "calibrate_N3.json")
    code, lines = compare()
    assert code == 2 and "missing" in lines["calibrate_N2"]


def test_sweep_honours_the_tolerance_scale(tmp_path, monkeypatch, capsys):
    # the same scale as the CLI: a tight one fails the runs, a bad one is a
    # configuration error reported in one line
    sweep = _sweep_script()
    runs = [
        ("calibrate_N2", "calibrate --m 1 --n 1 --samples 2"),
        ("grassmann_1_2", "grassmann --m 1 --n 2 --samples 2"),
    ]
    monkeypatch.setattr(sweep, "build_runs", lambda samples: runs)
    out_dir = ["--out-dir", str(tmp_path)]
    monkeypatch.delenv("GH_VERIFY_TOL_SCALE", raising=False)
    assert sweep.main(out_dir) == 0
    monkeypatch.setenv("GH_VERIFY_TOL_SCALE", "1e-30")
    assert sweep.main(out_dir) == 2
    assert "SOME RUNS FAILED" in capsys.readouterr().out
    for bad in ("not-a-number", "-1"):
        monkeypatch.setenv("GH_VERIFY_TOL_SCALE", bad)
        assert sweep.main(out_dir) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith(f"configuration error: bad GH_VERIFY_TOL_SCALE value {bad!r}")


def test_sweep_marks_a_report_that_is_not_json_dumps_output(tmp_path, monkeypatch, capsys):
    sweep = _sweep_script()
    runs = [
        ("calibrate_N2", "calibrate --m 1 --n 1 --samples 2"),
        ("grassmann_1_2", "grassmann --m 1 --n 2 --samples 2"),
    ]
    monkeypatch.setattr(sweep, "build_runs", lambda samples: runs)
    out_dir = ["--out-dir", str(tmp_path)]
    assert sweep.main(out_dir) == 0
    capsys.readouterr()

    # the grassmann document indented by one space: valid JSON, other bytes
    to_json = VerificationReport.to_json
    monkeypatch.setattr(
        VerificationReport,
        "to_json",
        lambda self: to_json(self) if self.command == "calibrate" else json.dumps(self.as_dict(), indent=1),
    )
    assert sweep.main(out_dir) == 2
    out = capsys.readouterr().out
    outcome = {row[0]: row[1] for row in map(str.split, out.splitlines()) if len(row) > 1}
    assert outcome["calibrate_N2"] == "pass" and outcome["grassmann_1_2"] == "ENCODING"
    assert "SOME REPORTS DIFFER" in out


def test_sweep_lists_a_run_the_cli_refuses_and_goes_on(tmp_path, monkeypatch, capsys):
    # a run over the lift bound (exit 3) and one whose every candidate point
    # falls below the magnitude window (exit 4) between two passing runs:
    # each is one row with its exit code, and the sweep writes the other reports
    sweep = _sweep_script()
    runs = [
        ("calibrate_N2", "calibrate --m 1 --n 1 --samples 2"),
        ("flag_11111_p5", "flag --blocks 1,1,1,1,1 --p 5 --samples 2"),
        ("pharmonic_tiny", "pharmonic --w 1e-9,1e-9,1e-9 --samples 2"),
        ("grassmann_1_2", "grassmann --m 1 --n 2 --samples 2"),
    ]
    monkeypatch.setattr(sweep, "build_runs", lambda samples: runs)
    out_dir = tmp_path / "reports"
    assert sweep.main(["--out-dir", str(out_dir)]) == 2
    captured = capsys.readouterr()
    outcome = {row[0]: row[1:] for row in map(str.split, captured.out.splitlines()) if len(row) > 1}
    assert outcome["calibrate_N2"][0] == outcome["grassmann_1_2"][0] == "pass"
    assert outcome["flag_11111_p5"] == ["EXIT", "3"] and outcome["pharmonic_tiny"] == ["EXIT", "4"]
    assert sorted(path.name for path in out_dir.iterdir()) == ["calibrate_N2.json", "grassmann_1_2.json"]
    assert "SOME RUNS FAILED" in captured.out
    err = captured.err.splitlines()
    assert len(err) == 2 and "Traceback" not in captured.err
    assert err[0].startswith("configuration error: group too large")
    assert err[1].startswith("numerical domain failure:") and "20 below the magnitude window" in err[1]
