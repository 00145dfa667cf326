#!/usr/bin/env python3
"""Run the full verification sweep and collect the JSON reports.

Covers the calibration sizes, the Grassmannian shapes, the iterated-Laplacian
orders p = 2, 3, 4, both flag partitions, and the indefinite duals at p = 2
and 4; writes one report per run into the output directory and prints a
summary table.

Usage:
  python scripts/run_verification_suite.py            # full sweep
  python scripts/run_verification_suite.py --quick    # fewer samples
  python scripts/run_verification_suite.py --out-dir reports
"""

from __future__ import annotations

import argparse
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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", default="reports_out")
    parser.add_argument("--samples", type=int, default=20)
    parser.add_argument("--quick", action="store_true", help="use 5 samples per run")
    args = parser.parse_args()

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    samples = 5 if args.quick else args.samples

    all_ok = True
    print(f"{'run':<24} {'verdict':<8} {'checks':>7} {'worst residual':>15} {'time':>8}")
    print("-" * 68)
    for name, config in build_runs(samples):
        start = time.perf_counter()
        report = COMMANDS[config.command](config)
        report.timing_seconds = time.perf_counter() - start
        (out_dir / f"{name}.json").write_text(report.to_json() + "\n")
        uppers = [c.residual for c in report.checks if c.kind == "upper"]
        worst = max(uppers) if uppers else float("nan")
        ok = report.passed
        all_ok &= ok
        print(
            f"{name:<24} {'pass' if ok else 'FAIL':<8} {len(report.checks):>7} "
            f"{worst:>15.3e} {report.timing_seconds:>7.2f}s"
        )
    print("-" * 68)
    print(f"reports written to {out_dir}/")
    if not all_ok:
        print("SOME RUNS FAILED")
        return 2
    print("all runs passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
