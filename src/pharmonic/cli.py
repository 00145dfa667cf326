"""Command-line verification harness.

Subcommands build the functions under study, run the symbolic and numerical
checks, and emit one JSON report per run.  This module alone names the
check ids, holds the thresholds and floors, and writes the check records:
the operators it calls return plain residual arrays.  ``pharmonic``,
``flag`` and ``dual`` make their p-harmonic check through one helper,
_p_harmonic_records: it draws and conditions the sample points, walks
them once at depth p with the eigen checks' plain points riding, and
writes the records.
Runs are deterministic: the same configuration (seed included) reproduces
the same report byte for byte on one machine, apart from the wall-clock
field.

Exit codes: 0 all checks passed, 2 a verification check failed, 3 a usage
or configuration error, 4 a numerical-domain failure (well-conditioned
sample points could not be found, or jet arithmetic hit a branch cut, a
conditioned point's too, or a non-finite value during the run).  A stdout
whose reader has gone drops the report but not the exit code, and prints
no traceback.

Each subcommand accepts the options every run reads (``SHARED``) and its
own (its ``READS`` row); any other option is a usage error, and a RunConfig
field the command does not read keeps its default.

``--tol`` replaces, and the environment variable GH_VERIFY_TOL_SCALE
multiplies (for CI on heterogeneous hardware), the thresholds of the
numerical residuals: the DEFAULT_TOLS checks and tau_p_residual.  Neither
touches the floors (FUNCTION_SCALE_FLOOR, PROPERNESS_FLOOR, WITNESS_FLOOR)
or the 0.5 threshold of the symbolic verdicts.

``main`` may be called any number of times in one process.  parse_args
leaves the parser unchanged, so ``main`` builds it on the first call and
reuses it after that: callers that run ``main`` many times in one process
(the tests, the benchmark) save the set-up.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from dataclasses import dataclass, fields

import numpy as np

from . import expressions as ex
from . import operators as ops
from . import symcalc as sym
from .group import m_basis, minkowski_form, sample_block_diagonal, sample_so, sample_so_mn, so_basis
from .jets import JetError
from .reports import (
    REPORT_SCHEMA,
    VerificationReport,
    lower_check,
    upper_check,
)

EXIT_PASS = 0
EXIT_FAIL = 2
EXIT_USAGE = 3
EXIT_DOMAIN = 4

# Floors of the lower-bound checks: the largest |f| over the samples, a
# kept point's order-(p-1) witness, and the largest change of f under the
# non-descent witness's merged-subgroup actions.
FUNCTION_SCALE_FLOOR = 1e-12
PROPERNESS_FLOOR = 1e-3
WITNESS_FLOOR = 1e-6

# Largest spectral norm radius * sqrt(m n / 2) of a sampled boost: beyond it
# roundoff in x = k exp(a), growing like exp(2 |a|), approaches the group
# relation tolerance of the sampler.
MAX_BOOST_NORM = 4.0

# Nonzero coefficient-matrix scales outside this range make the squared
# entries in the structure checks underflow to zero or overflow.
COEFFICIENT_SCALE_RANGE = (1e-150, 1e150)

DEFAULT_BLOCKS = (1, 1, 2)

DEFAULT_TOLS = {
    "calibrate": 1e-9,
    "projector": 1e-9,
    "eigen": 1e-8,
    "matrix": 1e-10,
    "invariance": 1e-10,
}


class UsageError(ValueError):
    """Configuration rejected before any checks ran."""


@dataclass
class RunConfig:
    """Echoable configuration of one verification run."""

    command: str
    m: int = 2
    n: int = 2
    blocks: tuple[int, ...] | None = None
    p: int = 2
    seed: int = 7
    samples: int = 20
    radius: float = 0.75
    tol: float | None = None
    tol_scale: float = 1.0
    w: str | None = None
    a_file: str | None = None
    out: str | None = None
    csv: str | None = None
    basis_scale: float = 1.0

    def as_dict(self) -> dict:
        """Every field but the output paths, which do not change the report."""
        out = dict(vars(self))
        del out["out"], out["csv"]
        out["blocks"] = list(self.blocks) if self.blocks else None
        return out


def _validate_common(config: RunConfig) -> None:
    if config.m < 1 or config.n < 1:
        raise UsageError("need m >= 1 and n >= 1")
    if not 1 <= config.p <= ops.DEPTH_CAP:
        raise UsageError(f"need 1 <= p <= {ops.DEPTH_CAP} (the depth cap), got {config.p}")
    if config.samples < 1:
        raise UsageError("need at least one sample")
    if config.blocks is not None and any(b < 1 for b in config.blocks):
        raise UsageError("block sizes must be positive")
    if config.seed < 0:
        raise UsageError("need seed >= 0")
    if not (math.isfinite(config.radius) and config.radius >= 0):
        raise UsageError("need a finite radius >= 0")
    for name, value in (("tol", config.tol), ("tolerance scale", config.tol_scale)):
        if value is not None and not (math.isfinite(value) and value >= 0):
            raise UsageError(f"need a finite {name} >= 0")
    # a single point's lift or generator tensor, and the stack of the run's
    # sample points, must fit one walk (ops.MAX_LIFT_COMPONENTS); anything
    # larger is refused before any basis or sample exists
    lift = _lift_components(config)
    if lift > ops.MAX_LIFT_COMPONENTS:
        raise UsageError(
            f"group too large: its lift N^2 (|basis| + 2)^d holds {lift:,} components, "
            f"more than {ops.MAX_LIFT_COMPONENTS:,}"
        )
    N = _matrix_size(config)
    stack = config.samples * N * N
    if stack > ops.MAX_LIFT_COMPONENTS:
        raise UsageError(
            f"too many samples: {config.samples:,} points of {N} x {N} entries hold "
            f"{stack:,} components, more than {ops.MAX_LIFT_COMPONENTS:,}"
        )


def _matrix_size(config: RunConfig) -> int:
    """N, the size of the run's N x N matrices."""
    if "--blocks" in READS[config.command]:
        return sum(config.blocks or DEFAULT_BLOCKS)
    return config.m + config.n


def _lift_components(config: RunConfig) -> int:
    """N^2 (|basis| + 2)^d: the size of the largest forward-Laplacian array
    the run builds for one point (an entry lift at depth 1, a projector
    form's generator tensor at depth p), for its N x N matrices, its widest
    basis and its depth d."""
    N = _matrix_size(config)
    if config.command in ("pharmonic", "dual"):
        directions = config.m * config.n
    else:
        directions = N * (N - 1) // 2
    depth = config.p if "--p" in READS[config.command] else 1
    return N * N * (directions + 2) ** depth


def _threshold(config: RunConfig, default: float) -> float:
    base = config.tol if config.tol is not None else default
    return base * config.tol_scale


def _tau_p_tol(config: RunConfig) -> float:
    # 1e-7 at p = 2, one decade looser per extra iteration level.
    default = 1e-7 * 10.0 ** max(config.p - 2, 0)
    return _threshold(config, default)


def _coefficient_matrix(config: RunConfig) -> np.ndarray:
    """The coefficient matrix from --A, --w or the default vector; unreadable
    or non-finite input, a zero --w, an --A whose symmetric part is zero (A
    + A^T = 0: its projector form, and the dual's, is the zero function), or
    a scale outside COEFFICIENT_SCALE_RANGE, is a configuration error."""
    N = config.m + config.n
    source = f"--A {config.a_file}" if config.a_file is not None else f"--w {config.w}"
    try:
        if config.a_file is not None:
            values = ex.load_matrix(config.a_file)
        elif config.w is not None:
            values = ex.parse_vector(config.w)
        else:
            values = np.arange(1, N, dtype=float)
    except (OSError, TypeError, ValueError) as exc:
        raise UsageError(f"bad {source}: {exc}") from exc
    if not np.all(np.isfinite(values)):
        raise UsageError(f"{source} holds non-finite entries")
    if config.a_file is not None:
        if values.shape != (N, N):
            raise UsageError(f"matrix file has shape {values.shape}, expected {(N, N)}")
        A = values
    else:
        if values.size != N - 1:
            raise UsageError(f"w must have length {N - 1}, got {values.size}")
        try:
            A = ex.rank_one_from_vector(values)
        except ValueError as exc:  # w is zero, or its squares underflow to zero
            raise UsageError(f"bad {source}: {exc}") from exc
    if np.array_equal(A, -A.T):
        raise UsageError(f"{source} defines the zero function: its symmetric part A + A^T is zero")
    low, high = COEFFICIENT_SCALE_RANGE
    scale = float(np.max(np.abs(A)))
    if not low <= scale <= high:
        raise UsageError(f"coefficient matrix scale {scale:.3g} outside [{low:g}, {high:g}]")
    return A


def _seeds(config: RunConfig) -> range:
    """The seeds of the run's plain sample points, one per sample."""
    return range(config.seed, config.seed + config.samples)


def _matrix_records(A, label: str, config: RunConfig, form=None) -> list:
    """The four coefficient-matrix structure records."""
    tol = _threshold(config, DEFAULT_TOLS["matrix"])
    residuals = ex.validate_eigen_matrix(A, form=form)
    return [upper_check(f"matrix_{key}", label, value, tol) for key, value in residuals.items()]


def _point_records(checks, residuals, tol: float) -> list:
    """Upper-bound records of per-point residual arrays, one array per check
    id, each point's checks in turn."""
    return [
        upper_check(check, i, value, tol)
        for i, values in enumerate(zip(*residuals))
        for check, value in zip(checks, values)
    ]


def _symbolic_records(params, p: int, label: str, c1, c2, proper: bool = True) -> list:
    """Exact p-harmonicity (and properness) verdicts as pass/fail records."""
    verdict = sym.verify_p_harmonic(params, p, c1, c2)
    records = [
        upper_check(f"symbolic_p_harmonic_{label}", 0, 0.0 if verdict.p_harmonic else 1.0, 0.5)
    ]
    if proper:
        records.append(
            lower_check(f"symbolic_proper_{label}", 0, 1.0 if verdict.proper else 0.0, 0.5)
        )
    return records


def _p_harmonic_records(
    expr, f, sampler, basis, config: RunConfig, notes: list[str], first=None, eigen=False, expect_witness=True
) -> tuple:
    """The p-harmonic check of the composition expr, as (records, the
    conditioned points, f's depth-1 jets at the plain points or None).

    Draws the first batch with `sampler` (seeds to points) unless the run's
    sampler pass has drawn it (`first`), conditions config.samples points
    on f (phi, or a block family: expr's one form group) with a note of the
    draws that cost, and writes order-p residual and order-(p-1) witness
    records at each, from one walk.  With `eigen`, the plain points, the
    batch's first config.samples lanes, ride that walk for f's eigen checks
    (see ops.p_harmonic_residuals).  A conditioned point meets no branch
    cut; if the walk meets one there, its BranchCutError ends the run.

    A point whose witness falls below the properness floor is dropped, with
    a note, in point order.  If every point is dropped and a witness is
    expected, one failing "all" record stands in.
    """
    if first is None:
        first = sampler(ops.first_batch_seeds(config.samples, config.seed))
    points, draws = ops.conditioned_sample(f, sampler, config.samples, config.seed, first)
    if draws > config.samples:
        notes.append(f"drew {draws} candidate points for {config.samples} conditioned samples")
    tau_tol = _tau_p_tol(config)
    riders = (first[: config.samples],) if eigen else ()
    residuals, witnesses, *jets = ops.p_harmonic_residuals(expr, config.p, points, basis, *riders)
    records = []
    for i, (residual, witness) in enumerate(zip(residuals, witnesses)):
        if witness < PROPERNESS_FLOOR:
            notes.append(f"point {i} dropped: order-(p-1) witness below floor")
            continue
        records.append(upper_check("tau_p_residual", i, residual, tau_tol))
        records.append(lower_check("properness_witness", i, witness, PROPERNESS_FLOOR))
    if not records and expect_witness:
        records.append(lower_check("properness_witness", "all", 0.0, PROPERNESS_FLOOR))
        notes.append("order-(p-1) image vanished on every sample")
    return records, points, jets[0] if jets else None


# -- commands --------------------------------------------------------------------


def cmd_calibrate(config: RunConfig) -> VerificationReport:
    """Closed-form coordinate identities on SO(m+n): the normalization gate."""
    _validate_common(config)
    N = config.m + config.n
    tol = _threshold(config, DEFAULT_TOLS["calibrate"])
    basis = so_basis(N) * config.basis_scale
    points = sample_so(N, _seeds(config))
    residuals = ops.coordinate_identity_residuals(points, basis)
    records = _point_records(("tau_coordinate", "kappa_coordinate"), residuals, tol)
    notes = []
    if config.basis_scale != 1.0:
        notes.append(f"basis deliberately rescaled by {config.basis_scale} (test hook)")
    return VerificationReport("calibrate", config.as_dict(), records, notes)


def cmd_grassmann(config: RunConfig) -> VerificationReport:
    """Structure validation, projector identities, eigen relations, invariance.

    One sampler call draws the plain points and the invariance actions.
    The function_scale record reads phi's values off the eigen check's
    depth-1 walk, so phi is walked once on the plain points."""
    _validate_common(config)
    m, n = config.m, config.n
    N = m + n
    A = _coefficient_matrix(config)
    notes = []

    records = _matrix_records(A, "A", config)
    if not all(rec.passed for rec in records):
        notes.append("coefficient matrix fails the structure conditions")

    proj_tol = _threshold(config, DEFAULT_TOLS["projector"])
    eigen_tol = _threshold(config, DEFAULT_TOLS["eigen"])
    inv_tol = _threshold(config, DEFAULT_TOLS["invariance"])
    phi = ex.projector_form(A, m)
    requests = [((N,), _seeds(config)), ((m, n), ops.invariance_seeds(config.seed))]
    points, actions = sample_block_diagonal(requests)
    tau, kappa, values = ops.check_eigenfunction(ops.eigen_jets(phi, points, m_basis(m, n)), -N, -2)

    scale = float(np.max(np.abs(values)))
    records.append(lower_check("function_scale", "all", scale, FUNCTION_SCALE_FLOOR))
    if scale < FUNCTION_SCALE_FLOOR:
        notes.append("function is numerically zero on every sample (degenerate input)")

    residuals = ops.projector_identity_residuals(points, m, so_basis(N))
    records += _point_records(("tau_projector", "kappa_projector"), residuals, proj_tol)

    records += _point_records(("tau_eigen", "kappa_eigen"), (tau, kappa), eigen_tol)
    records += _point_records(("invariance",), [ops.check_invariance(phi, actions, points)], inv_tol)
    if m == 1:
        notes.append(f"m = 1: eigenvalue -(n+1) = {-(n + 1)} (degree-two harmonics)")
    return VerificationReport("grassmann", config.as_dict(), records, notes)


def cmd_pharmonic(config: RunConfig) -> VerificationReport:
    """Exact p-harmonicity verdicts plus numerical iterated-Laplacian residuals."""
    _validate_common(config)
    m, n = config.m, config.n
    N = m + n
    p = config.p
    A = _coefficient_matrix(config)
    notes = []

    params = sym.EigenParams.of(-N, -2)
    if N == 2:
        notes.append("m + n = 2 gives lam = mu: equal-eigenvalue composition in effect")
    records = _symbolic_records(params, p, "c1", 1, 0)
    records += _symbolic_records(params, p, "c2", 0, 1, proper=False)

    phi = ex.projector_form(A, m)
    composed = ex.p_harmonic_expr(phi, -N, -2, p, 1, 1)
    sampler = functools.partial(sample_so, N)
    records += _p_harmonic_records(composed, phi, sampler, m_basis(m, n), config, notes)[0]
    return VerificationReport("pharmonic", config.as_dict(), records, notes)


def cmd_flag(config: RunConfig) -> VerificationReport:
    """Per-block eigen relations, p-harmonicity of the block sum, invariance,
    and (three or more blocks) the non-descent witness.

    One sampler call draws the first conditioned batch, the invariance
    actions and, with three or more blocks, the witness actions; the batch
    goes to _p_harmonic_records, whose block-sum walk the eigen checks'
    plain points ride, pairing each block form once for both.  The
    invariance and non-descent actions are evaluated in one call."""
    _validate_common(config)
    blocks = config.blocks or DEFAULT_BLOCKS
    if len(blocks) < 2:
        raise UsageError("need at least two blocks")
    n = sum(blocks)
    family = ex.flag_forms(blocks)
    notes = []
    records = []

    eigen_tol = _threshold(config, DEFAULT_TOLS["eigen"])
    inv_tol = _threshold(config, DEFAULT_TOLS["invariance"])
    basis = so_basis(n)
    requests = [
        ((n,), ops.first_batch_seeds(config.samples, config.seed)),
        (blocks, ops.invariance_seeds(config.seed)),
    ]
    if len(blocks) >= 3:
        requests.append(((blocks[0] + blocks[1], *blocks[2:]), ops.witness_seeds(1, config.seed)))
    batch, actions, *merged_actions = sample_block_diagonal(requests)

    total = ex.flag_sum_expr(family, config.p)
    sampler = functools.partial(sample_so, n)
    p_records, sampled, jets = _p_harmonic_records(total, family, sampler, basis, config, notes, batch, eigen=True)

    # the ids keep their member0 part: check ids are byte-stable report output
    for k, residuals in enumerate(ops.check_eigenfamily(jets, -n, -2)):
        checks = (f"block{k}_member0_tau_eigen", f"block{k}_member0_kappa_eigen")
        records += _point_records(checks, residuals, eigen_tol)
    records += p_records

    if merged_actions:
        worst, best = ops.non_descent_witness(total, *merged_actions, sampled[:1], (actions, sampled))
        witness = [lower_check("non_descent_witness", 0, best, WITNESS_FLOOR)]
    else:
        worst, witness = ops.check_invariance(total, actions, sampled), []
        notes.append("two blocks: non-descent check skipped (single-window quotient)")
    records += _point_records(("invariance",), [worst], inv_tol) + witness
    return VerificationReport("flag", config.as_dict(), records, notes)


def cmd_dual(config: RunConfig) -> VerificationReport:
    """Companion function on the indefinite group: boost-twisted coefficients,
    sign-flipped eigen relations, and p-harmonicity along boost directions.

    As in cmd_flag, the eigen check's plain points ride the composition's
    walk in _p_harmonic_records; the eigen check and the degenerate-samples
    note read phi's depth-1 jets off it, and that note keeps its place
    before the sampling's."""
    _validate_common(config)
    m, n = config.m, config.n
    N = m + n
    p = config.p
    if config.radius * math.sqrt(m * n / 2) > MAX_BOOST_NORM:
        raise UsageError(
            f"radius {config.radius} too large: boost norm bound "
            f"radius * sqrt(m n / 2) must stay <= {MAX_BOOST_NORM}"
        )
    A = _coefficient_matrix(config)
    notes = []

    params = sym.EigenParams.of(N, 2)  # compact eigenvalues negated
    records = _symbolic_records(params, p, "dual", 1, 1)

    A_dual = ex.dual_matrix(A, m, n)
    records += _matrix_records(A_dual, "A*", config, form=minkowski_form(m, n))

    phi = ex.projector_form(A_dual, m)
    basis = m_basis(m, n, "indefinite")
    eigen_tol = _threshold(config, DEFAULT_TOLS["eigen"])

    composed = ex.p_harmonic_expr(phi, N, 2, p, 1, 1)
    sampler = functools.partial(sample_so_mn, m, n, radius=config.radius)
    drawn = len(notes)  # where the sampling's note goes
    p_records, _, jets = _p_harmonic_records(
        composed, phi, sampler, basis, config, notes, eigen=True, expect_witness=config.radius > 0
    )

    tau, kappa, values = ops.check_eigenfunction(jets, N, 2)
    spread = float(np.std(np.abs(values)))
    # one value has no spread to judge
    if len(values) >= 2 and spread < 1e-12 * (1.0 + float(np.mean(np.abs(values)))):
        notes.insert(
            drawn,
            "degenerate samples: function values constant across points "
            "(radius too small to leave the compact subgroup)",
        )

    records += _point_records(("tau_eigen", "kappa_eigen"), (tau, kappa), eigen_tol)
    records += p_records
    return VerificationReport("dual", config.as_dict(), records, notes)


COMMANDS = {
    "calibrate": cmd_calibrate,
    "grassmann": cmd_grassmann,
    "pharmonic": cmd_pharmonic,
    "flag": cmd_flag,
    "dual": cmd_dual,
}


# -- argument handling -----------------------------------------------------------

# Every option, declared once by its add_argument keywords but its default,
# which is its RunConfig field's; the options every command reads; and each
# command's own, the one statement of who reads what.  A command accepts no
# option it does not read.
OPTIONS = {
    "--m": dict(type=int),
    "--n": dict(type=int),
    "--blocks": dict(type=str, help="comma-separated block sizes"),
    "--p": dict(type=int),
    "--seed": dict(type=int),
    "--samples": dict(type=int),
    "--radius": dict(type=float),
    "--tol": dict(type=float, help="override the residual thresholds (not the floors)"),
    "--w": dict(type=str, help="comma-separated re:im cells"),
    "--A": dict(dest="a_file", type=str, help="CSV/JSON matrix file"),
    "--out": dict(type=str, help="write the JSON report here"),
    "--csv": dict(type=str, help="also dump residuals as CSV"),
}
SHARED = ("--seed", "--samples", "--tol", "--out", "--csv")
READS = {
    "calibrate": ("--m", "--n"),
    "grassmann": ("--m", "--n", "--w", "--A"),
    "pharmonic": ("--m", "--n", "--p", "--w", "--A"),
    "flag": ("--blocks", "--p"),
    "dual": ("--m", "--n", "--p", "--radius", "--w", "--A"),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="pharmonic", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    defaults = {field.name: field.default for field in fields(RunConfig)}
    for name in COMMANDS:
        command = sub.add_parser(name)
        for option, keywords in OPTIONS.items():
            if option in SHARED or option in READS[name]:
                command.add_argument(option, default=defaults[keywords.get("dest", option[2:])], **keywords)
    sub.add_parser("report-schema")
    return parser


def tol_scale_from_env() -> float:
    """The threshold scale GH_VERIFY_TOL_SCALE sets, 1.0 when it is unset; a
    value that is not a finite number >= 0 is a configuration error."""
    scale_text = os.environ.get("GH_VERIFY_TOL_SCALE", "1.0")
    try:
        tol_scale = float(scale_text)
    except ValueError as exc:
        raise UsageError(f"bad GH_VERIFY_TOL_SCALE value {scale_text!r}") from exc
    if not (math.isfinite(tol_scale) and tol_scale >= 0):
        raise UsageError(f"bad GH_VERIFY_TOL_SCALE value {scale_text!r}: need a finite number >= 0")
    return tol_scale


def _config_from_args(args) -> RunConfig:
    blocks = getattr(args, "blocks", None)
    if blocks is not None:
        try:
            blocks = tuple(int(b) for b in blocks.split(","))
        except ValueError as exc:
            raise UsageError(f"bad --blocks value: {exc}") from exc
    return RunConfig(**{**vars(args), "blocks": blocks, "tol_scale": tol_scale_from_env()})


def _print(text: str) -> None:
    """Print text and flush it.  If stdout's reader has gone, stdout is
    pointed at os.devnull, as the Python docs on SIGPIPE advise, so neither
    this write nor the interpreter's final flush raises: the run's exit code
    stands, and no traceback is printed."""
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    if args.command == "report-schema":
        _print(json.dumps(REPORT_SCHEMA, indent=2, sort_keys=True))
        return EXIT_PASS

    start = time.perf_counter()
    try:
        config = _config_from_args(args)
        report = COMMANDS[args.command](config)
    except UsageError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ops.SamplingExhausted, JetError) as exc:
        print(f"numerical domain failure: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    report.timing_seconds = time.perf_counter() - start

    text = report.to_json()
    try:
        if config.out:
            with open(config.out, "w") as fh:
                fh.write(text + "\n")
        if config.csv:
            with open(config.csv, "w") as fh:
                fh.write(report.to_csv())
    except OSError as exc:
        print(f"configuration error: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return EXIT_USAGE
    _print(text)
    return EXIT_PASS if report.passed else EXIT_FAIL


if __name__ == "__main__":
    raise SystemExit(main())
