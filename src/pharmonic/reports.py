"""Machine-readable verification reports.

A report is a flat record of every individual check that ran: check id,
point id, residual, threshold, and verdict, plus per-check residual maxima
and an overall verdict.  Reports embed the configuration that produced them
so a run can be reproduced from its own output.  Serialization is
deterministic (sorted keys); the wall-clock field is the only part that
varies between identical runs.

``VerificationReport.to_json`` equals ``json.dumps(report.as_dict(),
indent=2, sort_keys=True)`` byte for byte.  "checks" sorts first, so the
check records are written first, each from one fixed template: its six keys
in sorted order, strings through json's ``encode_basestring_ascii``, floats
through ``float.__repr__`` (with json's NaN, Infinity and -Infinity) and
verdicts as true/false.  The rest of the document goes through ``json.dumps``.
A report with a record field of any other type (a numpy bool verdict, a
float subclass) is written by ``json.dumps`` whole, which encodes it or
raises as it would for ``as_dict()``.

Most checks are upper bounds (residual <= threshold).  Witness-style checks
(properness floors, non-descent) are lower bounds and carry kind "lower".
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _json_string

ARTIFACT_VERSION = "0.1.0"
SCHEMA_VERSION = "1"

REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "pharmonic verification report",
    "schema_version": SCHEMA_VERSION,
    "type": "object",
    "required": [
        "command",
        "config",
        "checks",
        "max_residuals",
        "passed",
        "notes",
        "timing_seconds",
        "version",
    ],
    "properties": {
        "command": {"type": "string"},
        "config": {"type": "object"},
        "checks": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["check", "point", "residual", "threshold", "passed", "kind"],
                "properties": {
                    "check": {"type": "string"},
                    "point": {"type": ["integer", "string"]},
                    "residual": {"type": "number"},
                    "threshold": {"type": "number"},
                    "passed": {"type": "boolean"},
                    "kind": {"enum": ["upper", "lower"]},
                },
            },
        },
        "max_residuals": {"type": "object", "additionalProperties": {"type": "number"}},
        "passed": {"type": "boolean"},
        "notes": {"type": "array", "items": {"type": "string"}},
        "timing_seconds": {"type": "number"},
        "version": {"type": "string"},
    },
}


def _json_float(value: float) -> str:
    """A float as json writes it."""
    if math.isfinite(value):
        return float.__repr__(value)
    return "NaN" if value != value else "Infinity" if value > 0 else "-Infinity"


@dataclass(frozen=True)
class CheckRecord:
    check: str
    point: int | str
    residual: float
    threshold: float
    passed: bool
    kind: str = "upper"

    def as_dict(self) -> dict:
        return dict(vars(self))


def upper_check(check: str, point, residual: float, threshold: float) -> CheckRecord:
    """Record for a residual that must stay at or below its threshold."""
    residual = float(residual)
    return CheckRecord(check, point, residual, float(threshold), residual <= threshold)


def lower_check(check: str, point, value: float, floor: float) -> CheckRecord:
    """Record for a witness value that must reach at least its floor."""
    value = float(value)
    return CheckRecord(check, point, value, float(floor), value >= floor, "lower")


@dataclass
class VerificationReport:
    command: str
    config: dict
    checks: list[CheckRecord]
    notes: list[str] = field(default_factory=list)
    timing_seconds: float = 0.0
    version: str = ARTIFACT_VERSION

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def max_residuals(self) -> dict[str, float]:
        """The largest residual of each upper check id and the smallest of
        each lower one; NaN for an id with any NaN residual, which max and
        min would drop or keep depending on its position."""
        out: dict[str, float] = {}
        for c in self.checks:
            seen = out.get(c.check, 0.0 if c.kind == "upper" else math.inf)
            if math.isnan(seen) or math.isnan(c.residual):
                out[c.check] = math.nan
            else:
                out[c.check] = (max if c.kind == "upper" else min)(seen, c.residual)
        return out

    def _summary(self) -> dict:
        """Every field of the document but the check records."""
        return {
            "command": self.command,
            "config": self.config,
            "max_residuals": self.max_residuals,
            "passed": self.passed,
            "notes": list(self.notes),
            "timing_seconds": self.timing_seconds,
            "version": self.version,
        }

    def as_dict(self) -> dict:
        return {"checks": [c.as_dict() for c in self.checks], **self._summary()}

    def to_json(self) -> str:
        records = []
        for c in self.checks:
            point, passed = c.point, c.passed
            if (
                type(c.check) is not str
                or type(c.kind) is not str
                or type(point) not in (int, str)
                or type(c.residual) is not float
                or type(c.threshold) is not float
                or (passed is not True and passed is not False)
            ):
                return json.dumps(self.as_dict(), indent=2, sort_keys=True)
            residual, threshold = _json_float(c.residual), _json_float(c.threshold)
            point = _json_string(point) if type(point) is str else int.__repr__(point)
            # the record as json.dumps(..., indent=2) writes it inside a report
            records.append(
                f'{{\n      "check": {_json_string(c.check)},\n      "kind": {_json_string(c.kind)},\n'
                f'      "passed": {"true" if passed else "false"},\n      "point": {point},\n'
                f'      "residual": {residual},\n      "threshold": {threshold}\n    }}'
            )
        checks = "[\n    " + ",\n    ".join(records) + "\n  ]" if records else "[]"
        # the summary's keys all sort after "checks": splice the records in first
        rest = json.dumps(self._summary(), indent=2, sort_keys=True)
        return '{\n  "checks": ' + checks + ",\n" + rest[2:]

    def to_csv(self) -> str:
        """Flat residual dump, one line per check record."""
        lines = ["check,point,residual,threshold,passed,kind"]
        for c in self.checks:
            lines.append(
                f"{c.check},{c.point},{c.residual!r},{c.threshold!r},{c.passed},{c.kind}"
            )
        return "\n".join(lines) + "\n"


_JSON_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "boolean": bool,
    "integer": int,
    "number": (int, float),
}


def _is_json_type(value, name: str) -> bool:
    # bool subclasses int in Python; JSON booleans are not numbers
    if isinstance(value, bool):
        return name == "boolean"
    return isinstance(value, _JSON_TYPES[name])


def _check_schema(value, schema: dict, where: str) -> None:
    """Check value against the JSON-schema keywords REPORT_SCHEMA uses."""
    if "type" in schema:
        names = [schema["type"]] if isinstance(schema["type"], str) else schema["type"]
        if not any(_is_json_type(value, name) for name in names):
            raise ValueError(f"{where} must be of type {' or '.join(names)}")
    if "enum" in schema and value not in schema["enum"]:
        raise ValueError(f"{where} must be one of {schema['enum']}, got {value!r}")
    for key in schema.get("required", ()):
        if key not in value:
            raise ValueError(f"{where} is missing field {key!r}")
    properties = schema.get("properties", {})
    for key, sub in properties.items():
        if key in value:
            _check_schema(value[key], sub, f"{where}.{key}")
    if "additionalProperties" in schema:
        for key in value.keys() - properties.keys():
            _check_schema(value[key], schema["additionalProperties"], f"{where}.{key}")
    for i, item in enumerate(value if "items" in schema else ()):
        _check_schema(item, schema["items"], f"{where}[{i}]")


def validate_report_dict(doc: dict) -> None:
    """Validate a report document against REPORT_SCHEMA (the output of
    ``pharmonic report-schema``) and check that the overall verdict agrees
    with the check records."""
    _check_schema(doc, REPORT_SCHEMA, "report")
    if doc["passed"] != all(rec["passed"] for rec in doc["checks"]):
        raise ValueError("overall verdict inconsistent with check records")
