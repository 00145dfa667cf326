#!/usr/bin/env python3
"""Maintain and audit the benchmark's correctness reference.

  python3 bench/verify.py capture      # rewrite reference.json
  python3 bench/verify.py selfcheck    # counters repeat; held-out seeds pass

`capture` runs every workload run at every CLI seed of the pool, requires
the digest of its verdict structure (check ids, point ids, verdicts) to be
the same at every seed, and records one digest per run.  Run it only on a
commit whose reports are known good, since later runs are judged against it.

`selfcheck` runs each workload's traced run twice in fresh processes at one
seed and requires every counter to repeat exactly, then runs every workload
run once at CLI seeds outside the pool and requires each report to pass every
check, the reference comparison included.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import run
import workloads

HELD_OUT_SEEDS = tuple(range(90_000, 90_000 + 8 * 100, 100))
SELFCHECK_SEED = 4242
SELFCHECK_SECONDS = 10.0


def _run_each(argvs, structures=None) -> tuple[dict[str, dict], list[str]]:
    """Run every argument vector once; the reports of the runs that pass every
    check (against `structures`, if given), and one problem line per failure."""
    cli = run.import_cli()
    from pharmonic.reports import validate_report_dict

    reports, problems = {}, []
    for argv in argvs:
        _, code, out, error = run.call(cli, argv)
        problem, doc = run.check(validate_report_dict, argv, code, out, error, structures)
        if problem is None:
            reports[" ".join(argv)] = doc
        else:
            problems.append(f"{' '.join(argv)}: {problem}")
    return reports, problems


def capture() -> int:
    argvs = [
        text.split() + ["--seed", str(seed)]
        for runs in workloads.WORKLOADS.values()
        for text in runs
        for seed in workloads.CLI_SEEDS
    ]
    reports, problems = _run_each(argvs)
    digests: dict[str, set[str]] = {}
    for argv in argvs:
        doc = reports.get(" ".join(argv))
        if doc is not None:
            digests.setdefault(run.reference_key(argv), set()).add(run.structure_digest(doc))
    problems += [
        f"{key}: verdict structure differs between pool seeds"
        for key, seen in digests.items()
        if len(seen) > 1
    ]
    for line in problems:
        print(f"FAILED {line}", file=sys.stderr)
    if problems:
        return 1
    structures = {key: seen.pop() for key, seen in digests.items()}
    run.REFERENCE.write_text(json.dumps({"structures": structures}, indent=0, sort_keys=True) + "\n")
    print(f"wrote {len(structures)} reference digests")
    return 0


def _traced_counters(workload: str) -> tuple[bool, dict]:
    argv = [sys.executable, str(Path(run.__file__).resolve()), "--workload", workload,
            "--seed", str(SELFCHECK_SEED), "--seconds", str(SELFCHECK_SECONDS), "--trace", "1"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    counters = {
        k: v["value"] for k, v in result["metrics"].items() if v["unit"] in ("count", "ratio")
    }
    return result["correct"], counters


def selfcheck() -> int:
    ok = True
    for name in workloads.WORKLOADS:
        first_ok, first = _traced_counters(name)
        second_ok, second = _traced_counters(name)
        same = first == second
        ok &= first_ok and second_ok and same
        print(f"{name}: counters at seed {SELFCHECK_SEED} {'repeat' if same else 'DIFFER'} "
              f"({len(first)} counters), reports {'pass' if first_ok and second_ok else 'FAIL'}")
        if not same:
            for k in first:
                if first[k] != second.get(k):
                    print(f"  {k}: {first[k]} vs {second.get(k)}")

    structures = json.loads(run.REFERENCE.read_text())["structures"]
    for name in workloads.WORKLOADS:
        reports, problems = _run_each(workloads.argvs(name, SELFCHECK_SEED, HELD_OUT_SEEDS), structures)
        points = sum(len({c["point"] for c in doc["checks"]}) for doc in reports.values())
        ok &= not problems
        print(f"{name}: held-out CLI seeds: {len(problems)} failed runs, {points} verified points")
        for line in problems:
            print(f"  FAILED {line}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("capture")
    sub.add_parser("selfcheck")
    args = parser.parse_args(argv)
    if args.command == "capture":
        return capture()
    return selfcheck()


if __name__ == "__main__":
    raise SystemExit(main())
