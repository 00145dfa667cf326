#!/usr/bin/env python3
"""Check that report verdicts do not depend on the BLAS kernel or the SIMD
level the machine picks.

Runs one sweep line per command (``--samples 5``, p <= 4) through ``python
-m pharmonic.cli`` in fresh processes: first as is, then under each setting
below, which acts on those child processes only:

- ``OPENBLAS_CORETYPE=Haswell`` and ``OPENBLAS_CORETYPE=Prescott``: an
  OpenBLAS kernel other than the one it picks for this CPU;
- ``NPY_DISABLE_CPU_FEATURES`` naming the AVX-512 groups numpy dispatches to
  on this CPU: numpy's own loops at a lower SIMD level.

Each run under a setting must give the exit code, check ids and points,
verdicts, thresholds, notes and config of the run as is.  Residual bits may
move: the largest absolute change of any check residual is printed beside
each run.  A setting the machine does not honour is skipped, and the reason
is printed: an OpenBLAS that cannot be queried or was built without
DYNAMIC_ARCH, a core type that is the kernel in use already, or a CPU with
no AVX-512 group.  Exits 0 when every run holds, 2 when any differs.

Usage:
  python scripts/check_machine_independence.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from run_verification_suite import build_runs, report_changes

_SRC = Path(__file__).resolve().parents[1] / "src"
LINES = ("calibrate_N4", "grassmann_2_2", "pharmonic_2_2_p4", "flag_112", "dual_2_2_p4")

# Printed as JSON by a child under a setting: the OpenBLAS core in use and
# its build configuration (None where the library cannot be queried), and
# numpy's dispatch targets with the CPU features it has enabled.
_PROBE = r"""
import ctypes, glob, json, os
import numpy
try:
    from numpy._core import _multiarray_umath as umath
except ImportError:
    from numpy.core import _multiarray_umath as umath
core = config = None
libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")
for path in glob.glob(libs):
    lib = ctypes.CDLL(path)
    for prefix in ("scipy_openblas", "openblas"):  # numpy 2 and numpy 1 wheels
        get_core = getattr(lib, f"{prefix}_get_corename64_", None)
        get_config = getattr(lib, f"{prefix}_get_config64_", None)
        if get_core and get_config:
            get_core.restype = get_config.restype = ctypes.c_char_p
            core, config = get_core().decode(), get_config().decode()
print(json.dumps({
    "core": core, "config": config,
    "dispatch": list(umath.__cpu_dispatch__),
    "features": {k: bool(v) for k, v in umath.__cpu_features__.items()},
}))
"""


def _child_env(setting: dict) -> dict:
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": f"{_SRC}{os.pathsep}{path}" if path else str(_SRC), **setting}


def _probe(setting: dict) -> dict:
    proc = subprocess.run([sys.executable, "-c", _PROBE], env=_child_env(setting), capture_output=True, text=True)
    if proc.returncode:
        raise RuntimeError((proc.stderr.strip().splitlines() or ["no output"])[-1])
    return json.loads(proc.stdout)


def honoured_settings() -> list[dict]:
    """The settings this machine honours; prints why it skips each other."""
    base = _probe({})
    settings = []
    for core in ("Haswell", "Prescott"):
        setting = {"OPENBLAS_CORETYPE": core}
        if base["core"] is None:
            reason = "the OpenBLAS numpy uses cannot be queried for its core type"
        elif "DYNAMIC_ARCH" not in base["config"].split():
            reason = f"OpenBLAS was built without DYNAMIC_ARCH ({base['config']})"
        elif _probe(setting)["core"] == base["core"]:
            reason = f"OpenBLAS uses the {base['core']} kernel already"
        else:
            settings.append(setting)
            continue
        print(f"skipped OPENBLAS_CORETYPE={core}: {reason}")
    groups = [
        name for name in base["dispatch"]
        if (name == "X86_V4" or name.startswith("AVX512")) and base["features"].get(name)
    ]
    setting = {"NPY_DISABLE_CPU_FEATURES": " ".join(groups)}
    if not groups:
        print("skipped NPY_DISABLE_CPU_FEATURES: this CPU has no AVX-512 group numpy dispatches to")
    else:
        try:
            enabled = [name for name in groups if _probe(setting)["features"].get(name)]
        except RuntimeError as exc:
            enabled = [f"numpy did not import: {exc}"]
        if enabled:
            print(f"skipped NPY_DISABLE_CPU_FEATURES={' '.join(groups)}: still enabled: {', '.join(enabled)}")
        else:
            settings.append(setting)
    return settings


def run_line(line: str, setting: dict) -> tuple[int, dict | None]:
    """The exit code of one CLI run in a fresh process, and its report (None
    when it wrote none)."""
    argv = [sys.executable, "-m", "pharmonic.cli", *line.split()]
    proc = subprocess.run(argv, env=_child_env(setting), capture_output=True, text=True)
    return proc.returncode, json.loads(proc.stdout) if proc.stdout.strip() else None


def main() -> int:
    settings = honoured_settings()
    lines = dict(build_runs(5))
    all_same = True
    for name in LINES:
        line = lines[name]
        base_code, base = run_line(line, {})
        print(f"{line}: exited {base_code}")
        for setting in settings:
            label = " ".join(f"{key}={value}" for key, value in setting.items())
            code, doc = run_line(line, setting)
            if code != base_code:
                differing, change = [f"exit code {code}"], float("nan")
            elif doc is None:  # exit 3 or 4: no report
                differing, change = [], 0.0
            else:
                differing, change = report_changes(doc, base)
            all_same &= not differing
            status = "DIFFERS: " + ",".join(differing) if differing else "same"
            print(f"  under {label}: {status}, largest residual change {change:.2e}")
    print("every run the same under every setting" if all_same else "SOME RUNS DIFFER")
    return 0 if all_same else 2


if __name__ == "__main__":
    raise SystemExit(main())
