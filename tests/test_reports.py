import json
from dataclasses import fields

import pytest

from pharmonic.cli import RunConfig
from pharmonic.reports import (
    REPORT_SCHEMA,
    SCHEMA_VERSION,
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


def test_record_direction_semantics():
    assert upper_check("a", 0, 1e-10, 1e-9).passed
    assert not upper_check("a", 0, 1e-8, 1e-9).passed
    assert lower_check("w", 0, 0.5, 1e-3).passed
    assert not lower_check("w", 0, 1e-5, 1e-3).passed


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
    want = {
        "command": report.command,
        "config": report.config,
        "checks": [_field_dict(c) for c in checks],
        "max_residuals": report.max_residuals,
        "passed": report.passed,
        "notes": report.notes,
        "timing_seconds": report.timing_seconds,
        "version": report.version,
    }
    assert report.to_json() == json.dumps(want, indent=2, sort_keys=True)


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


def _sweep_script():
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "scripts" / "run_verification_suite.py"
    spec = importlib.util.spec_from_file_location("run_verification_suite", path)
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


def test_sweep_compare_fails_on_dropped_and_missing_runs(tmp_path, monkeypatch, capsys):
    sweep = _sweep_script()
    runs = [("calibrate_N2", RunConfig("calibrate", m=1, n=1, samples=2))]
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
