#!/usr/bin/env python3
"""Run the full verification sweep and collect the JSON reports.

Covers the calibration sizes, the Grassmannian shapes, the iterated-Laplacian
orders p = 2, 3, 4, the flag partitions (1,1,2) and (2,1,1) with the (2,2)
Grassmannian control, and the indefinite duals at p = 2 and 4.  Each run is
one ``pharmonic`` command line, run through ``pharmonic.cli.main`` with
``--out`` naming its report in the output directory; the summary table
reads that report, and ends with the sum of the reports' ``timing_seconds``
and the elapsed wall time of the sweep.  A run that exits 3 or 4 writes no
report: its row reads "EXIT 3" or "EXIT 4", the CLI's one-line message
goes to stderr, and the sweep goes on and exits 2.  As in the CLI,
GH_VERIFY_TOL_SCALE multiplies the thresholds of the numerical residuals
(not the floors or the symbolic verdicts); a value that is not a finite
number >= 0 is a configuration error (exit 3) before any run starts.

With ``--compare DIR`` each report is also compared with the report of the
same name in DIR, an earlier sweep: the run reads "same" when its check ids,
point ids, verdicts, thresholds, notes and config all equal the earlier
ones, and otherwise names the fields that differ; the largest absolute
change of any check residual is printed beside it.  Timing is ignored.  A
run with no report in DIR reads "missing", and a report in DIR that no run
of this sweep wrote reads "dropped".  Any difference makes the sweep exit 2.

Each report written must equal ``json.dumps(json.loads(text), indent=2,
sort_keys=True)`` plus a newline, byte for byte: the report encoder writes
its check records from a template, and this holds it to json's own output.
A run whose report does not reads "ENCODING" in place of its verdict, and
the sweep exits 2.

Usage:
  python scripts/run_verification_suite.py              # full sweep
  python scripts/run_verification_suite.py --samples 5  # fewer samples
  python scripts/run_verification_suite.py --out-dir reports
  python scripts/run_verification_suite.py --out-dir new --compare old
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import sys
import time
from pathlib import Path

_SRC = Path(__file__).resolve().parents[1] / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from pharmonic import cli


def build_runs(samples: int) -> list[tuple[str, str]]:
    """(report name, pharmonic command line) for every run of the sweep."""
    runs = [(f"calibrate_N{N}", f"calibrate --m 1 --n {N - 1} --samples {samples}") for N in range(2, 9)]
    for m, n in ((1, 2), (2, 2), (2, 3), (3, 4)):
        runs.append((f"grassmann_{m}_{n}", f"grassmann --m {m} --n {n} --samples {samples}"))
    for m, n in ((1, 2), (2, 2)):
        for p in (2, 3, 4):
            line = f"pharmonic --m {m} --n {n} --p {p} --samples {max(10, samples // 2)}"
            runs.append((f"pharmonic_{m}_{n}_p{p}", line))
    for blocks in ("1,1,2", "2,1,1", "2,2"):
        tag = blocks.replace(",", "")
        runs.append((f"flag_{tag}", f"flag --blocks {blocks} --p 2 --samples {max(5, samples // 4)}"))
    for m, n in ((1, 2), (2, 2)):
        for p, suffix in ((2, ""), (4, "_p4")):
            line = f"dual --m {m} --n {n} --p {p} --radius 0.5 --samples {max(10, samples // 2)}"
            runs.append((f"dual_{m}_{n}{suffix}", line))
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
    return report_changes(new, json.loads(previous.read_text()))


def report_changes(new: dict, old: dict) -> tuple[list[str], float]:
    """compare_reports of two report documents."""
    differing = [name for name, get in _COMPARED.items() if get(new) != get(old)]
    if "ids" in differing:
        return differing, float("nan")
    changes = [abs(a["residual"] - b["residual"]) for a, b in zip(new["checks"], old["checks"])]
    return differing, max(changes, default=0.0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", default="reports_out")
    parser.add_argument("--samples", type=int, default=20)
    parser.add_argument("--compare", metavar="DIR", help="compare with the reports in DIR")
    args = parser.parse_args(argv)
    try:
        cli.tol_scale_from_env()
    except cli.UsageError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return cli.EXIT_USAGE

    sweep_start = time.perf_counter()
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    all_ok = all_same = all_canonical = True
    largest_change = run_total = 0.0
    header = f"{'run':<24} {'verdict':<8} {'checks':>7} {'worst residual':>15} {'time':>8}"
    if args.compare:
        header += f"  {'vs ' + args.compare:<24} {'max |dr|':>10}"
    print(header)
    print("-" * len(header))
    runs = build_runs(args.samples)
    for name, command in runs:
        path = out_dir / f"{name}.json"
        path.unlink(missing_ok=True)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(command.split() + ["--out", str(path)])
        if code not in (cli.EXIT_PASS, cli.EXIT_FAIL):
            all_ok = False
            print(f"{name:<24} EXIT {code}")
            continue
        text = path.read_text()
        doc = json.loads(text)
        canonical = text == json.dumps(doc, indent=2, sort_keys=True) + "\n"
        all_canonical &= canonical
        line = ""
        if args.compare:
            differing, change = compare_reports(doc, Path(args.compare) / f"{name}.json")
            all_same &= not differing
            if not math.isnan(change):
                largest_change = max(largest_change, change)
            status = "DIFFERS: " + ",".join(differing) if differing else "same"
            line = f"  {status:<24} {change:>10.2e}"
        uppers = [c["residual"] for c in doc["checks"] if c["kind"] == "upper"]
        worst = max(uppers) if uppers else float("nan")
        ok = doc["passed"]
        all_ok &= ok
        run_total += doc["timing_seconds"]
        outcome = "ENCODING" if not canonical else "pass" if ok else "FAIL"
        print(
            f"{name:<24} {outcome:<8} {len(doc['checks']):>7} "
            f"{worst:>15.3e} {doc['timing_seconds']:>7.2f}s" + line
        )
    if args.compare:
        names = {name for name, _ in runs}
        for name in sorted({path.stem for path in Path(args.compare).glob("*.json")} - names):
            all_same = False
            print(f"{name:<24} {'':<8} {'':>7} {'':>15} {'':>8}  {'dropped':<24} {math.nan:>10.2e}")
    print("-" * len(header))
    elapsed = time.perf_counter() - sweep_start
    print(f"total: {run_total:.2f}s in runs, {elapsed:.2f}s elapsed")
    print(f"reports written to {out_dir}/")
    if args.compare:
        verdict = "every run the same as" if all_same else "SOME RUNS DIFFER FROM"
        print(f"{verdict} {args.compare}/; largest residual change {largest_change:.2e}")
    if not all_ok:
        print("SOME RUNS FAILED")
    if not all_canonical:
        print("SOME REPORTS DIFFER FROM json.dumps(..., indent=2, sort_keys=True)")
    if not (all_ok and all_same and all_canonical):
        return 2
    print("all runs passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
