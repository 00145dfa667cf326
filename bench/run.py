#!/usr/bin/env python3
"""pharmonic benchmark: verification workloads timed end to end and per layer.

  python3 bench/run.py --workload iterated_p3 --seed 7 --seconds 30 --trace 0

One process, one worker thread, a closed loop: the workload's CLI runs are
made one after another by calling `pharmonic.cli.main(argv)` in-process with
stdout captured, and the whole list is repeated until `--seconds` have
passed.  The first pass warms caches and is checked but not timed.  Every
report is checked: exit code 0, `validate_report_dict`, `passed: true`, and
check ids, point ids and verdicts equal to `reference.json`.  End-to-end
times are scaled to a reference host speed (see `reference_seconds`).
`setup_s` is the median of fresh-process set-up probes spread over the
timed passes (see `measure`).

--trace 0 prints the end-to-end metrics of BENCHMARK.json; --trace 1 runs
untraced passes, then traced passes and the jet microbench, and prints the
per-layer metrics.  The last line of stdout is the JSON result; the run
record and the spans go to .bench_out/.  Exit code 2 means the benchmark
could not run (no pharmonic sources next to it).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
REFERENCE = Path(__file__).with_name("reference.json")
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
SETUP_PROBES = 11
MIN_TIMED_PASSES = 3
REFERENCE_STEPS = 400
REFERENCE_SAMPLES = 3
# The reference's time on the machine the benchmark was defined on, in its
# fast phases (2-vCPU Intel Xeon VM); it only fixes the unit of scaled times.
REFERENCE_NOMINAL_S = 0.0025
UNTRACED_SHARE = 0.4  # of --seconds, in a traced run; traced passes get the rest


class SetupError(RuntimeError):
    """The benchmark cannot run in this directory."""


@dataclass
class Setup:
    cli: object
    argvs: list[list[str]]
    structures: dict[str, str]


def import_cli():
    """Import `pharmonic.cli` from the checkout's src/, never from elsewhere."""
    if not (SRC / "pharmonic" / "__init__.py").is_file():
        raise SetupError("no pharmonic sources under src/ next to the benchmark")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from pharmonic import cli

    if Path(cli.__file__).resolve().parent != (SRC / "pharmonic").resolve():
        raise SetupError(f"imported pharmonic from {cli.__file__}, not from src/")
    return cli


def setup(workload: str, seed: int) -> Setup:
    """Import pharmonic and build the argument vectors."""
    cli = import_cli()
    structures = json.loads(REFERENCE.read_text())["structures"]
    return Setup(cli, workloads.argvs(workload, seed), structures)


# -- one CLI run and its checks ---------------------------------------------------


def reference_key(argv: list[str]) -> str:
    """A run's key in reference.json: its argument vector without `--seed`."""
    return " ".join(argv[:-2])


def structure_digest(doc: dict) -> str:
    """Digest of the check ids, point ids and verdicts; residuals and timing excluded."""
    structure = [[c["check"], c["point"], c["passed"]] for c in doc["checks"]]
    return hashlib.sha256(json.dumps(structure).encode()).hexdigest()[:16]


def call(cli, argv: list[str]) -> tuple[float, int | None, str, str]:
    """Run the CLI in-process: (seconds, exit code or None if it raised, stdout, error)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception as exc:  # a raising run is a failed run, not a failed benchmark
        return time.perf_counter() - start, None, out.getvalue(), repr(exc)
    return time.perf_counter() - start, code, out.getvalue(), err.getvalue().strip()


def check(validate, argv, code, text, error, structures) -> tuple[str | None, dict | None]:
    """Problem with one run's report (None if it passes every check), and the report."""
    if code is None:
        return f"raised {error}", None
    if code != 0:
        return f"exit code {code}: {error}", None
    try:
        doc = json.loads(text)
        validate(doc)
    except ValueError as exc:
        return f"invalid report: {exc}", None
    if doc["passed"] is not True:
        return "report did not pass", doc
    if structures is not None:
        expected = structures.get(reference_key(argv))
        if expected is None:
            return "no reference for this run", doc
        if structure_digest(doc) != expected:
            return "verdict structure differs from the reference", doc
    return None, doc


# -- host speed reference -------------------------------------------------------
#
# On shared hosts the same pass can run 1.6x slower for minutes at a time,
# with CPU time slowing as much as wall time, so no statistic over one run
# removes it.  A fixed reference computation owned by the benchmark, timed
# between CLI runs, measures the host's speed at that moment; each run's time
# is scaled by REFERENCE_NOMINAL_S over the reference time around it.  The
# reference mimics the nested jet arithmetic the workloads spend their time
# in, but shares no code with pharmonic, and it runs with the cyclic GC off,
# so garbage a CLI run leaves behind is not collected inside its timing.


class _Jet2:
    """Order-2 truncated polynomial over complex numbers or _Jet2s."""

    __slots__ = ("c",)

    def __init__(self, c):
        self.c = c

    def __mul__(self, other):
        a, b = self.c, other.c
        return _Jet2(
            (a[0] * b[0], a[0] * b[1] + a[1] * b[0], a[0] * b[2] + a[1] * b[1] + a[2] * b[0])
        )

    def __add__(self, other):
        a, b = self.c, other.c
        return _Jet2((a[0] + b[0], a[1] + b[1], a[2] + b[2]))


_REFERENCE_JET = _Jet2(
    (_Jet2((0.7 + 0.2j, 1 + 0j, 0j)), _Jet2((1 + 0j, 0j, 0j)), _Jet2((0j, 0j, 0j)))
)


def reference_seconds() -> float:
    """Median time of the fixed reference computation, right now."""
    times = []
    gc.disable()
    try:
        for _ in range(REFERENCE_SAMPLES):
            acc = x = _REFERENCE_JET
            start = time.perf_counter()
            for _ in range(REFERENCE_STEPS):
                acc = acc * x + x
            times.append(time.perf_counter() - start)
    finally:
        gc.enable()
    return statistics.median(times)


# -- passes over the workload -----------------------------------------------------


@dataclass
class Pass:
    seconds: float = 0.0
    scaled_seconds: float = 0.0  # at reference host speed
    points: int = 0
    failures: list[str] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)
    command_seconds: dict[str, float] = field(default_factory=dict)
    spans: list = field(default_factory=list)


def run_pass(s: Setup, tracer: tracing.Tracer | None = None) -> Pass:
    from pharmonic.reports import validate_report_dict

    gc.collect()
    result = Pass(counts={"branch_cut": 0, "witness_floor": 0})
    before = reference_seconds()
    for i, argv in enumerate(s.argvs):
        if tracer is not None:
            tracer.run = i
        seconds, code, text, error = call(s.cli, argv)
        after = reference_seconds()
        result.seconds += seconds
        result.scaled_seconds += seconds * REFERENCE_NOMINAL_S / ((before + after) / 2)
        before = after
        result.command_seconds[argv[0]] = result.command_seconds.get(argv[0], 0.0) + seconds
        problem, doc = check(validate_report_dict, argv, code, text, error, s.structures)
        if problem is not None:
            result.failures.append(f"{' '.join(argv)}: {problem}")
            continue
        # A point is a distinct (run, point id) among the check records.
        result.points += len({c["point"] for c in doc["checks"]})
        for note in doc["notes"]:
            result.counts["branch_cut"] += "(branch cut)" in note
            result.counts["witness_floor"] += "witness below floor" in note
    if tracer is not None:
        result.spans, counts = tracer.take()
        result.counts.update(counts)
    return result


def measure(s: Setup, seconds: float, tracer=None, probe=None) -> tuple[list[Pass], list[float]]:
    """A warm-up pass, then timed passes until `seconds` have passed.

    With `probe`, SETUP_PROBES set-up probes are made between passes, spread
    evenly over the `seconds`, so that they sample the host's slow and fast
    phases alike; the passes go on until all of them are made.
    """
    passes, probes = [run_pass(s, tracer)], []
    wanted = SETUP_PROBES if probe is not None else 0
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        while len(probes) < wanted and elapsed >= len(probes) * seconds / wanted:
            probes.append(probe())
        if len(passes) > MIN_TIMED_PASSES and elapsed >= seconds and len(probes) == wanted:
            return passes, probes
        passes.append(run_pass(s, tracer))


def setup_probe(workload: str, seed: int):
    """A function timing one fresh process that only imports pharmonic and
    builds the argvs.

    Not scaled to reference host speed: process start and imports are mostly
    kernel and file work, which the reference computation does not track.
    """
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", workload, "--seed", str(seed)]

    def probe() -> float:
        start = time.perf_counter()
        # No timeout: with one, subprocess polls the child every 50 ms, which
        # would quantise the measurement.
        subprocess.run(argv, check=True, cwd=ROOT)
        return time.perf_counter() - start

    return probe


# -- metrics ----------------------------------------------------------------------


def end_to_end(passes: list[Pass], setup_times: list[float]) -> dict[str, float]:
    timed = passes[1:]
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(p.scaled_seconds for p in timed),
        "points_per_s": statistics.median(p.points / p.scaled_seconds for p in timed),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def layer_metrics(p: Pass) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    inclusive, own, calls = tracing.span_times(p.spans)
    draws = p.counts.get("operators.conditioned_sample.draws", 0)
    accepted = p.counts.get("operators.conditioned_sample.accepted", 0)
    out = {
        "operators.iterated_laplacian.s": inclusive["operators.iterated_laplacian"],
        "operators.iterated_laplacian.calls": calls["operators.iterated_laplacian"],
        **{
            f"operators.iterated_laplacian.calls.p{k}": p.counts.get(
                f"operators.iterated_laplacian.calls.p{k}", 0
            )
            for k in (1, 2, 3)
        },
        "operators.laplacian.s": inclusive["operators.laplacian"],
        "operators.gradient_product.s": inclusive["operators.gradient_product"],
        "operators.identity_residuals.s": inclusive["operators.identity_residuals"],
        "operators.conditioned_sample.s": inclusive["operators.conditioned_sample"],
        "operators.conditioned_sample.draws": draws,
        "operators.conditioned_sample.accept_ratio": accepted / draws if draws else 0.0,
        "operators.rejected_points.branch_cut": p.counts["branch_cut"],
        "operators.rejected_points.witness_floor": p.counts["witness_floor"],
        "operators.invariance.s": inclusive["operators.invariance"],
        "expressions.evaluate.calls": calls["expressions.evaluate"],
        "expressions.evaluate.self_s": own["expressions.evaluate"],
        "group.curve_jets.calls": calls["group.curve_jets"],
        "group.curve_jets.s": inclusive["group.curve_jets"],
        "group.sample.calls": calls["group.sample"],
        "group.sample.s": inclusive["group.sample"],
        "symcalc.verify_p_harmonic.s": inclusive["symcalc.verify_p_harmonic"],
        "reports.to_json.s": inclusive["reports.to_json"],
        "reports.bytes": p.counts.get("reports.bytes", 0),
    }
    for command in ("calibrate", "grassmann", "pharmonic", "flag", "dual"):
        out[f"cli.run_s.{command}"] = p.command_seconds.get(command, 0.0)
    return out


def per_layer(untraced: list[Pass], traced: list[Pass], units: dict) -> tuple[dict, list[str]]:
    """Median per-layer times over the timed traced passes; counters from the
    first traced pass, which every later traced pass must repeat exactly."""
    rows = [layer_metrics(p) for p in traced]
    counters = [k for k in rows[0] if units[k] in ("count", "ratio")]
    problems = [
        f"counter {k} changed between passes at one seed: {rows[0][k]} vs {row[k]}"
        for row in rows[1:]
        for k in counters
        if row[k] != rows[0][k]
    ]
    out = {
        k: rows[0][k] if k in counters else statistics.median(r[k] for r in rows[1:])
        for k in rows[0]
    }
    out["trace.wall_s"] = statistics.median(p.seconds for p in traced[1:])
    out["trace.overhead_s"] = out["trace.wall_s"] - statistics.median(
        p.seconds for p in untraced[1:]
    )
    return out, problems


# -- run record -------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' if
    the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_record(args) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# -- main -------------------------------------------------------------------------


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        s = setup(args.workload, args.seed)
    except (SetupError, OSError, ImportError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        os._exit(0)  # the probe's time ends when set-up does, not after teardown

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    if args.trace:
        from pharmonic import expressions, jets, operators, reports, symcalc

        untraced, _ = measure(s, args.seconds * UNTRACED_SHARE)
        tracer = tracing.Tracer()
        with tracer.installed(s.cli, operators, expressions, symcalc, reports):
            traced, _ = measure(s, args.seconds * (1 - UNTRACED_SHARE), tracer)
        metrics, problems = per_layer(untraced, traced, units)
        metrics.update(tracing.jet_microbench(jets))
        passes = untraced + traced
    else:
        passes, setup_times = measure(s, args.seconds, probe=setup_probe(args.workload, args.seed))
        metrics, problems = end_to_end(passes, setup_times), []

    failures = [f for p in passes for f in p.failures]
    attempted = len(passes) * len(s.argvs)
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"benchmark produced no value for {missing}", file=sys.stderr)
        return 2
    for line in (failures + problems)[:20]:
        print(f"FAILED {line}", file=sys.stderr)

    record = run_record(args)
    result = {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted
        },
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    detail = {
        "record": record,
        "argvs": s.argvs,
        "pass_seconds": [p.seconds for p in passes],
        "pass_seconds_at_reference_speed": [p.scaled_seconds for p in passes],
        "result": result,
    }
    if args.trace:
        _, own, _ = tracing.span_times(traced[-1].spans)
        detail["self_seconds_last_pass"] = dict(sorted(own.items(), key=lambda kv: -kv[1]))
        (OUT_DIR / f"{stem}_spans.json").write_text(json.dumps(traced[-1].spans))
    else:
        detail["setup_seconds"] = setup_times
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(detail, indent=2))

    print(json.dumps({"record": record}))
    for name, seconds in detail.get("self_seconds_last_pass", {}).items():
        print(f"self time {name:<36} {seconds:<14.6g} s")
    print(f"{'failed_ratio':<46} {len(failures) / attempted:<14.6g} ratio")
    if not args.trace:
        unscaled = statistics.median(p.seconds for p in passes[1:])
        print(f"{'wall_s unscaled':<46} {unscaled:<14.6g} s")
    for name, entry in result["metrics"].items():
        print(f"{name:<46} {entry['value']:<14.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
