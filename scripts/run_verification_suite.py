#!/usr/bin/env python3
"""Run the full verification sweep and collect the JSON reports.

Covers the calibration sizes, the Grassmannian shapes, the iterated-Laplacian
orders p = 2, 3, 4, both flag partitions, and the indefinite duals at p = 2
and 4; writes one report per run into the output directory and prints a
summary table.

With ``--compare DIR`` each report is also compared with the report of the
same name in DIR, an earlier sweep: the run reads "same" when its check ids,
point ids, verdicts, thresholds, notes and config all equal the earlier
ones, and otherwise names the fields that differ; the largest absolute
change of any check residual is printed beside it.  Timing is ignored.  Any
difference makes the sweep exit 2.

Usage:
  python scripts/run_verification_suite.py              # full sweep
  python scripts/run_verification_suite.py --samples 5  # fewer samples
  python scripts/run_verification_suite.py --out-dir reports
  python scripts/run_verification_suite.py --out-dir new --compare old
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

_SRC = Path(__file__).resolve().parents[1] / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from pharmonic.cli import COMMANDS, RunConfig


def build_runs(samples: int) -> list[tuple[str, RunConfig]]:
    runs: list[tuple[str, RunConfig]] = []
    for N in range(2, 9):
        runs.append(
            (f"calibrate_N{N}", RunConfig("calibrate", m=1, n=N - 1, samples=samples))
        )
    for m, n in ((1, 2), (2, 2), (2, 3), (3, 4)):
        runs.append(
            (f"grassmann_{m}_{n}", RunConfig("grassmann", m=m, n=n, samples=samples))
        )
    for m, n in ((1, 2), (2, 2)):
        for p in (2, 3, 4):
            runs.append(
                (
                    f"pharmonic_{m}_{n}_p{p}",
                    RunConfig("pharmonic", m=m, n=n, p=p, samples=max(10, samples // 2)),
                )
            )
    for blocks in ((1, 1, 2), (2, 1, 1), (2, 2)):
        tag = "".join(str(b) for b in blocks)
        runs.append(
            (f"flag_{tag}", RunConfig("flag", blocks=blocks, p=2, samples=max(5, samples // 4)))
        )
    for m, n in ((1, 2), (2, 2)):
        for p, suffix in ((2, ""), (4, "_p4")):
            runs.append(
                (
                    f"dual_{m}_{n}{suffix}",
                    RunConfig("dual", m=m, n=n, p=p, radius=0.5, samples=max(10, samples // 2)),
                )
            )
    return runs


_COMPARED = {
    "ids": lambda r: [(c["check"], c["point"], c["kind"]) for c in r["checks"]],
    "verdicts": lambda r: [c["passed"] for c in r["checks"]] + [r["passed"]],
    "thresholds": lambda r: [c["threshold"] for c in r["checks"]],
    "notes": lambda r: r["notes"],
    "config": lambda r: r["config"],
}


def compare_reports(new: dict, previous: Path) -> tuple[list[str], float]:
    """Names of the compared fields in which ``new`` differs from the report
    stored at ``previous``, and the largest absolute residual change over
    checks with equal ids (nan when the ids differ or the file is missing)."""
    if not previous.is_file():
        return ["missing"], float("nan")
    old = json.loads(previous.read_text())
    differing = [name for name, get in _COMPARED.items() if get(new) != get(old)]
    if "ids" in differing:
        return differing, float("nan")
    changes = [abs(a["residual"] - b["residual"]) for a, b in zip(new["checks"], old["checks"])]
    return differing, max(changes, default=0.0)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", default="reports_out")
    parser.add_argument("--samples", type=int, default=20)
    parser.add_argument("--compare", metavar="DIR", help="compare with the reports in DIR")
    args = parser.parse_args()

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    all_ok = all_same = True
    largest_change = 0.0
    header = f"{'run':<24} {'verdict':<8} {'checks':>7} {'worst residual':>15} {'time':>8}"
    if args.compare:
        header += f"  {'vs ' + args.compare:<24} {'max |dr|':>10}"
    print(header)
    print("-" * len(header))
    for name, config in build_runs(args.samples):
        start = time.perf_counter()
        report = COMMANDS[config.command](config)
        report.timing_seconds = time.perf_counter() - start
        text = report.to_json() + "\n"
        line = ""
        if args.compare:
            differing, change = compare_reports(
                json.loads(text), Path(args.compare) / f"{name}.json"
            )
            all_same &= not differing
            if not math.isnan(change):
                largest_change = max(largest_change, change)
            status = "DIFFERS: " + ",".join(differing) if differing else "same"
            line = f"  {status:<24} {change:>10.2e}"
        (out_dir / f"{name}.json").write_text(text)
        uppers = [c.residual for c in report.checks if c.kind == "upper"]
        worst = max(uppers) if uppers else float("nan")
        ok = report.passed
        all_ok &= ok
        print(
            f"{name:<24} {'pass' if ok else 'FAIL':<8} {len(report.checks):>7} "
            f"{worst:>15.3e} {report.timing_seconds:>7.2f}s" + line
        )
    print("-" * len(header))
    print(f"reports written to {out_dir}/")
    if args.compare:
        verdict = "every run the same as" if all_same else "SOME RUNS DIFFER FROM"
        print(f"{verdict} {args.compare}/; largest residual change {largest_change:.2e}")
    if not all_ok:
        print("SOME RUNS FAILED")
    if not (all_ok and all_same):
        return 2
    print("all runs passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
