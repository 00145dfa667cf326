"""Command-line verification harness.

Subcommands build the functions under study, run the symbolic and numerical
checks, and emit one JSON report per run.  Runs are deterministic: the same
configuration (seed included) reproduces the same report byte for byte,
apart from the wall-clock field.

Exit codes: 0 all checks passed, 2 a verification check failed, 3 a usage
or configuration error, 4 a numerical-domain failure (well-conditioned
sample points could not be found, or jet arithmetic hit a branch cut or a
non-finite value during the run).  The environment variable
GH_VERIFY_TOL_SCALE multiplies every upper-bound threshold, for CI on
heterogeneous hardware.

``main`` may be called any number of times in one process.  It builds its
argument parser on the first call and reuses it after that.  A shell command
builds the parser once either way, so only callers that run ``main`` many
times in one process (the tests, the benchmark) save the set-up.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from dataclasses import dataclass, replace

import numpy as np

from . import expressions as ex
from . import operators as ops
from . import symcalc as sym
from .group import m_basis, minkowski_form, sample_block_diagonal, sample_so, sample_so_mn, so_basis
from .jets import BranchCutError, JetError
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

PROPERNESS_FLOOR = 1e-3

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
    # a single point's lift must fit one walk (ops.MAX_LIFT_COMPONENTS);
    # anything larger is refused before any basis or sample exists
    lift = _lift_components(config)
    if lift > ops.MAX_LIFT_COMPONENTS:
        raise UsageError(
            f"group too large: its lift N^2 (|basis| + 2)^d holds {lift:,} components, "
            f"more than {ops.MAX_LIFT_COMPONENTS:,}"
        )


def _lift_components(config: RunConfig) -> int:
    """N^2 (|basis| + 2)^d: the size of the largest forward-Laplacian lift the
    run builds, for its N x N matrices, its widest basis and its depth d."""
    if config.command == "flag":
        N = sum(config.blocks or DEFAULT_BLOCKS)
    else:
        N = config.m + config.n
    if config.command in ("pharmonic", "dual"):
        directions = config.m * config.n
    else:
        directions = N * (N - 1) // 2
    depth = config.p if config.command in ("pharmonic", "flag", "dual") else 1
    return N * N * (directions + 2) ** depth


def _threshold(config: RunConfig, default: float) -> float:
    base = config.tol if config.tol is not None else default
    return base * config.tol_scale


def _tau_p_tol(config: RunConfig) -> float:
    # 1e-7 at p = 2, one decade looser per extra iteration level.
    default = 1e-7 * 10.0 ** max(config.p - 2, 0)
    return _threshold(config, default)


def _coefficient_matrix(config: RunConfig) -> np.ndarray:
    """The coefficient matrix from --A, --w or the default vector; unreadable,
    non-finite or zero input, or a scale outside COEFFICIENT_SCALE_RANGE, is a
    configuration error."""
    N = config.m + config.n
    source = f"--A {config.a_file}" if config.a_file else f"--w {config.w}"
    try:
        if config.a_file:
            values = ex.load_matrix(config.a_file)
        elif config.w:
            values = ex.parse_vector(config.w)
        else:
            values = np.arange(1, N, dtype=float)
    except (OSError, TypeError, ValueError) as exc:
        raise UsageError(f"bad {source}: {exc}") from exc
    if not np.all(np.isfinite(values)):
        raise UsageError(f"{source} holds non-finite entries")
    if config.a_file:
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
    low, high = COEFFICIENT_SCALE_RANGE
    scale = float(np.max(np.abs(A)))
    if scale != 0.0 and not low <= scale <= high:
        raise UsageError(f"coefficient matrix scale {scale:.3g} outside [{low:g}, {high:g}]")
    return A


def _seeds(config: RunConfig) -> range:
    """The seeds of the run's plain sample points, one per sample."""
    return range(config.seed, config.seed + config.samples)


def _sample_conditioned(funcs, sampler, config: RunConfig, notes: list[str]):
    """Draw sample points on which the listed functions are trustworthy.

    Delegates to the scale-relative conditioning filter; notes record how
    many raw draws the accepted batch cost.
    """
    points, draws = ops.conditioned_sample(funcs, sampler, config.samples, config.seed)
    if draws > config.samples:
        notes.append(
            f"drew {draws} candidate points for {config.samples} conditioned samples"
        )
    return points


def _matrix_records(A, label: str, config: RunConfig, form=None) -> list:
    """The four coefficient-matrix structure records."""
    tol = _threshold(config, DEFAULT_TOLS["matrix"])
    residuals = ex.validate_eigen_matrix(A, form=form)
    return [upper_check(f"matrix_{key}", label, value, tol) for key, value in residuals.items()]


def _identity_records(residuals: dict, tol: float) -> list:
    """Records of stacked identity residuals, each point's checks in turn."""
    per_point = zip(*residuals.values())
    return [
        upper_check(check, i, value, tol)
        for i, values in enumerate(per_point)
        for check, value in zip(residuals, values)
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
    expr, points, basis, config: RunConfig, notes: list[str], expect_witness: bool = True
) -> list:
    """Order-p residual and order-(p-1) witness records at each point of the
    (K, N, N) stack.

    All points are walked together.  A point where the iteration hits a
    branch cut is dropped and the rest are walked again; a point whose
    witness falls below the properness floor is dropped too, each with a
    note, in point order.  If every point is dropped and a witness is
    expected, one failing "all" record stands in.
    """
    tau_tol = _tau_p_tol(config)
    lanes = list(range(len(points)))
    cut: set[int] = set()
    results = ((), ())
    while lanes:
        try:
            results = ops.p_harmonic_residuals(expr, config.p, points[lanes], basis)
            break
        except BranchCutError as exc:
            # no lane named: the failing value is shared by every lane
            cut.update([lanes[j] for j in exc.lanes] or lanes)
            lanes = [i for i in lanes if i not in cut]
    walked = dict(zip(lanes, zip(*results)))
    records = []
    for i in range(len(points)):
        if i in cut:
            notes.append(f"point {i} rejected during iteration (branch cut)")
            continue
        residual, witness = walked[i]
        if witness < PROPERNESS_FLOOR:
            notes.append(f"point {i} resampled: order-(p-1) witness below floor")
            continue
        records.append(upper_check("tau_p_residual", i, residual, tau_tol))
        records.append(lower_check("properness_witness", i, witness, PROPERNESS_FLOOR))
    if not records and expect_witness:
        records.append(lower_check("properness_witness", "all", 0.0, PROPERNESS_FLOOR))
        notes.append("order-(p-1) image vanished on every sample")
    return records


# -- commands --------------------------------------------------------------------


def cmd_calibrate(config: RunConfig) -> VerificationReport:
    """Closed-form coordinate identities on SO(m+n): the normalization gate."""
    _validate_common(config)
    N = config.m + config.n
    if N < 2:
        raise UsageError("need m + n >= 2")
    tol = _threshold(config, DEFAULT_TOLS["calibrate"])
    basis = so_basis(N) * config.basis_scale
    points = sample_so(N, _seeds(config))
    records = _identity_records(ops.coordinate_identity_residuals(points, basis), tol)
    notes = []
    if config.basis_scale != 1.0:
        notes.append(f"basis deliberately rescaled by {config.basis_scale} (test hook)")
    return VerificationReport("calibrate", config.as_dict(), records, notes)


def cmd_grassmann(config: RunConfig) -> VerificationReport:
    """Structure validation, projector identities, eigen relations, invariance."""
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
    points = sample_so(N, _seeds(config))

    scale = float(np.max(np.abs(ops.values_at(phi, points))))
    records.append(lower_check("function_scale", "all", scale, 1e-12))
    if scale < 1e-12:
        notes.append("function is numerically zero on every sample (degenerate input)")

    records += _identity_records(ops.projector_identity_residuals(points, m, so_basis(N)), proj_tol)

    records += ops.check_eigenfunction(phi, -N, -2, points, m_basis(m, n), eigen_tol)
    records += ops.check_invariance(
        phi,
        lambda s: sample_block_diagonal((m, n), s),
        points,
        tol=inv_tol,
        seed=config.seed,
    )
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
    points = _sample_conditioned([phi], lambda s: sample_so(N, s), config, notes)
    records += _p_harmonic_records(composed, points, m_basis(m, n), config, notes)
    return VerificationReport("pharmonic", config.as_dict(), records, notes)


def cmd_flag(config: RunConfig) -> VerificationReport:
    """Per-block eigen relations, p-harmonicity of the block sum, invariance,
    and (three or more blocks) the non-descent witness."""
    _validate_common(config)
    blocks = config.blocks or DEFAULT_BLOCKS
    if len(blocks) < 2:
        raise UsageError("need at least two blocks")
    n = sum(blocks)
    block_forms = ex.flag_forms(blocks)
    notes = []
    records = []

    eigen_tol = _threshold(config, DEFAULT_TOLS["eigen"])
    inv_tol = _threshold(config, DEFAULT_TOLS["invariance"])
    basis = so_basis(n)
    points = sample_so(n, _seeds(config))

    for k, phi_k in enumerate(block_forms):
        fam = ops.check_eigenfamily([phi_k], -n, -2, points, basis, eigen_tol)
        records += [replace(rec, check=f"block{k}_{rec.check}") for rec in fam]

    total = ex.flag_sum_expr(block_forms, config.p)
    sampled = _sample_conditioned(block_forms, lambda s: sample_so(n, s), config, notes)
    records += _p_harmonic_records(total, sampled, basis, config, notes)

    records += ops.check_invariance(
        total,
        lambda s: sample_block_diagonal(blocks, s),
        sampled,
        tol=inv_tol,
        seed=config.seed,
    )

    if len(blocks) >= 3:
        merged = (blocks[0] + blocks[1],) + tuple(blocks[2:])
        records += ops.non_descent_witness(
            total,
            lambda s: sample_block_diagonal(merged, s),
            sampled[:1],
            seed=config.seed,
        )
    else:
        notes.append("two blocks: non-descent check skipped (single-window quotient)")
    return VerificationReport("flag", config.as_dict(), records, notes)


def cmd_dual(config: RunConfig) -> VerificationReport:
    """Companion function on the indefinite group: boost-twisted coefficients,
    sign-flipped eigen relations, and p-harmonicity along boost directions."""
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

    points = sample_so_mn(m, n, _seeds(config), config.radius)
    values = ops.values_at(phi, points)
    spread = float(np.std(np.abs(values)))
    # one value has no spread to judge
    if len(values) >= 2 and spread < 1e-12 * (1.0 + float(np.mean(np.abs(values)))):
        notes.append(
            "degenerate samples: function values constant across points "
            "(radius too small to leave the compact subgroup)"
        )

    records += ops.check_eigenfunction(phi, N, 2, points, basis, eigen_tol)

    composed = ex.p_harmonic_expr(phi, N, 2, p, 1, 1)
    iter_points = _sample_conditioned(
        [phi], lambda s: sample_so_mn(m, n, s, config.radius), config, notes
    )
    records += _p_harmonic_records(
        composed, iter_points, basis, config, notes, expect_witness=config.radius > 0
    )
    return VerificationReport("dual", config.as_dict(), records, notes)


COMMANDS = {
    "calibrate": cmd_calibrate,
    "grassmann": cmd_grassmann,
    "pharmonic": cmd_pharmonic,
    "flag": cmd_flag,
    "dual": cmd_dual,
}


# -- argument handling -----------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@functools.cache
def _build_parser() -> _Parser:
    # cached: parse_args leaves the parser unchanged, so one parser serves
    # every main call; the options every command shares are declared once, on
    # a parent parser the subcommands copy them from (each add_argument builds
    # a formatter)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--m", type=int, default=2)
    common.add_argument("--n", type=int, default=2)
    common.add_argument("--blocks", type=str, default=None, help="comma-separated block sizes")
    common.add_argument("--p", type=int, default=2)
    common.add_argument("--seed", type=int, default=7)
    common.add_argument("--samples", type=int, default=20)
    common.add_argument("--radius", type=float, default=0.75)
    common.add_argument("--tol", type=float, default=None, help="override every threshold")
    common.add_argument("--w", type=str, default=None, help="comma-separated re:im cells")
    common.add_argument("--A", dest="a_file", type=str, default=None, help="CSV/JSON matrix file")
    common.add_argument("--out", type=str, default=None, help="write the JSON report here")
    common.add_argument("--csv", type=str, default=None, help="also dump residuals as CSV")
    parser = _Parser(prog="pharmonic", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sub.add_parser(name, parents=[common])
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
    blocks = None
    if args.blocks is not None:
        try:
            blocks = tuple(int(b) for b in args.blocks.split(","))
        except ValueError as exc:
            raise UsageError(f"bad --blocks value: {exc}") from exc
    return RunConfig(**{**vars(args), "blocks": blocks, "tol_scale": tol_scale_from_env()})


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    if args.command == "report-schema":
        print(json.dumps(REPORT_SCHEMA, indent=2, sort_keys=True))
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
    print(text)
    return EXIT_PASS if report.passed else EXIT_FAIL


if __name__ == "__main__":
    raise SystemExit(main())
