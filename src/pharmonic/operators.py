"""Numerical Laplace-Beltrami and conformality operators.

The Laplacian of f at x is the sum over an orthonormal basis {Z_b} of
second derivatives of f along the curves x . exp(t Z_b): those curves are
geodesics through x (one-parameter subgroups for the bi-invariant metric;
boost directions of the symmetric pair for the quotient-level operators),
so no connection correction term is needed.  In terms of the left-invariant
fields Z_b, L = sum_b Z_b Z_b.

One primitive, :func:`laplacian_jet`, computes every operator here by a
single walk of the expression tree per point (the forward Laplacian):
each node carries its value, its B = |basis| directional derivatives and
its Laplacian, D = B + 2 components, combined by the product rule
L(fg) = f Lg + g Lf + 2 sum_b Z_b f Z_b g.  For the p-fold Laplacian the
walk runs over the p-fold tensor power of that algebra, D**p components
(:class:`pharmonic.jets.LaplacianJet`).  A matrix entry is lifted with the
component at multi-index (i_1, ..., i_p) equal to (x M_i1 ... M_ip)_rc,
with M_0 = I, M_b = Z_b and M_(D-1) = sum_b Z_b^2: left-invariant fields
act on entries by right multiplication, outermost level on the left, so
their non-commutativity is exact.  L^p f is the (D-1, ..., D-1) component
and the gradient pairing sum_b Z_b f Z_b g is read from the depth-1
direction components.  Each product in the walk costs
O((3B + 3)**(p - 1) D) instead of the |basis|**p walks over nested jets of
3**p coefficients that literal recursion needs.  Log and non-integer powers
are Taylor series of order 2p in the nilpotent part and raise :class:`pharmonic.jets.BranchCutError`,
:class:`pharmonic.jets.NonFiniteError` or :class:`pharmonic.jets.JetError`
on the point value exactly as plain evaluation does.

The closed-form identity residuals read the same depth-1 lift as plain
arrays: for the coordinate functions its planes X M_i are the value, the
gradient and the Laplacian outright, and for the projector quadratics
S = W W^T (W the window columns of X) one application of the product rule
gives Z_b S = (X Z_b)_W W^T + W (X Z_b)_W^T and
L S = (X sum Z^2)_W W^T + W (X sum Z^2)_W^T + 2 sum_b (X Z_b)_W (X Z_b)_W^T.

For a function invariant under right translation by a subgroup K, every
K-tangent direction contributes zero, so the full-basis Laplacian agrees
with the complement-basis Laplacian; the checkers exploit that to verify
quotient-level identities on group samples.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import expm

from .expressions import evaluate
from .group import BasisVector, GroupPoint, m_basis, so_basis
from .group import curve_jets  # noqa: F401  (bench/tracing.py wraps operators.curve_jets)
from .jets import LaplacianJet, scalar_value
from .reports import CheckRecord, VerificationReport, lower_check, upper_check

DEPTH_CAP = 5

# Subgroup elements per invariance check; merged-subgroup elements per point,
# and the change f must show under one of them, for the non-descent witness.
INVARIANCE_TRIALS = 5
WITNESS_TRIALS = 20
WITNESS_FLOOR = 1e-6

# Conditioned sampling.  Iterated-Laplacian checks amplify roundoff like a
# power of the derivative-to-value ratio, so the small-magnitude tail is
# mathematically fine but numerically uninformative: a point is kept only
# when every function's magnitude reaches FLOOR_RATIO times the median of
# the first batch, which keeps cancellation noise well below the thresholds.
# ABS_FLOOR and ABS_CEIL bound the magnitudes outright, and CUT_ANGLE keeps
# values that far (in radians) from the branch cut of log and fractional
# powers on the negative real axis.
FLOOR_RATIO = 0.25
ABS_FLOOR = 1e-6
ABS_CEIL = 1e6
CUT_ANGLE = 1e-2


@dataclass(frozen=True)
class OperatorContext:
    """The orthonormal basis the operators sum over."""

    basis: tuple[BasisVector, ...]

    def __post_init__(self):
        if not self.basis:
            raise ValueError("operator context needs a nonempty basis")


def full_context(N: int, scale: float = 1.0) -> OperatorContext:
    """All of so(N): the group-level Laplacian.  A scale other than 1 rescales
    every basis vector, which breaks the normalization on purpose."""
    return OperatorContext(
        tuple(BasisVector(b.matrix * scale, b.rows, b.block, b.form_sign) for b in so_basis(N))
    )


def quotient_context(m: int, n: int) -> OperatorContext:
    """Off-block directions only: the quotient-level operators on SO(m+n)."""
    return OperatorContext(tuple(m_basis(m, n, "compact")))


def dual_context(m: int, n: int) -> OperatorContext:
    """Boost directions of the indefinite group: the dual quotient operators."""
    return OperatorContext(tuple(m_basis(m, n, "indefinite")))


def _as_matrix(x):
    return x.entries if isinstance(x, GroupPoint) else x


# -- core operators -------------------------------------------------------------


def _lift(X: np.ndarray, basis: Sequence[BasisVector], p: int) -> np.ndarray:
    """The D**p matrices X M_i1 ... M_ip, stacked in multi-index order, for
    M_0 = I, M_b = Z_b and M_(D-1) = sum_b Z_b Z_b."""
    N = X.shape[0]
    zs = [b.matrix for b in basis]
    fields = np.stack([np.eye(N), *zs, sum(z @ z for z in zs)])
    lifted = X[None]
    for _ in range(p):
        lifted = (lifted[:, None] @ fields).reshape(-1, N, N)
    return lifted


def laplacian_jet(f, x, basis: Sequence[BasisVector], p: int) -> LaplacianJet:
    """f evaluated once on the depth-p forward-Laplacian lift of the point x.

    Component (i_1, ..., i_p) of the result is M_i1 ... M_ip f at x, for the
    operators M_0 = 1, M_b = Z_b and M_(D-1) = sum_b Z_b Z_b over the basis.
    """
    X = np.asarray(_as_matrix(x))
    N = X.shape[0]
    lifted = _lift(X, basis, p)
    entries = np.ascontiguousarray(lifted.reshape(-1, N * N).T, dtype=complex)
    B = len(basis)
    rows = [[LaplacianJet(B, p, entries[r * N + c]) for c in range(N)] for r in range(N)]
    value = evaluate(f, rows)
    if isinstance(value, LaplacianJet):
        return value
    coeffs = np.zeros((B + 2) ** p, dtype=complex)
    coeffs[0] = value
    return LaplacianJet(B, p, coeffs)


def laplacian(f, x, ctx: OperatorContext) -> complex:
    """Sum over basis directions of the second derivative of f along x.exp(tZ)."""
    return complex(laplacian_jet(f, x, ctx.basis, 1).coeffs[-1])


def gradient_product(f, g, x, ctx: OperatorContext) -> complex:
    """Complex-bilinear pairing of gradients: sum of Z(f) Z(g) over the basis."""
    df = laplacian_jet(f, x, ctx.basis, 1).coeffs[1:-1]
    dg = df if g is f else laplacian_jet(g, x, ctx.basis, 1).coeffs[1:-1]
    return complex(df @ dg)


def iterated_laplacian(f, p: int, x, ctx: OperatorContext):
    """p-fold Laplacian from one depth-p walk; p = 0 evaluates f."""
    if p < 0:
        raise ValueError("need p >= 0")
    if p > DEPTH_CAP:
        raise ValueError(f"iteration depth {p} exceeds cap {DEPTH_CAP}")
    if p == 0:
        return evaluate(f, _as_matrix(x))
    return complex(laplacian_jet(f, x, ctx.basis, p).coeffs[-1])


def fd_laplacian(f, x, ctx: OperatorContext, step: float = 1e-4) -> complex:
    """Central-difference Laplacian, an oracle independent of jet arithmetic."""
    X = np.asarray(_as_matrix(x), dtype=float)
    center = 2.0 * complex(evaluate(f, X))
    total = 0j
    for b in ctx.basis:
        fwd = complex(evaluate(f, X @ expm(step * b.matrix)))
        bwd = complex(evaluate(f, X @ expm(-step * b.matrix)))
        total += (fwd + bwd - center) / step**2
    return total


# -- batch identity residuals ---------------------------------------------------


def _identity_residuals(tau, grads, label: str, tau_expected, kappa_expected) -> dict[str, float]:
    """Residual maxima, normalised by 1 + |expected|, of the closed forms for
    the Laplacian and the gradient pairing of an N x N grid of functions,
    from its Laplacian plane ``tau`` and its B gradient planes ``grads``."""
    kappa = np.einsum("zja,zkb->jakb", grads, grads)
    r_tau = np.max(np.abs(tau - tau_expected) / (1.0 + np.abs(tau_expected)))
    r_kappa = np.max(np.abs(kappa - kappa_expected) / (1.0 + np.abs(kappa_expected)))
    return {f"tau_{label}": float(r_tau), f"kappa_{label}": float(r_kappa)}


def coordinate_identity_residuals(x, ctx: OperatorContext) -> dict[str, float]:
    """Residual maxima of the closed forms for Laplacian and gradient pairing
    of the matrix-entry coordinates on SO(N).

    Expected: laplacian(x_{ja}) = -(N-1)/2 * x_{ja} and
    pairing(x_{ja}, x_{kb}) = -(x_{jb} x_{ka} - delta_{jk} delta_{ab}) / 2.
    """
    X = np.asarray(_as_matrix(x), dtype=float)
    N = X.shape[0]
    eye = np.eye(N)
    kappa_expected = -0.5 * (
        np.einsum("jb,ka->jakb", X, X) - np.einsum("jk,ab->jakb", eye, eye)
    )
    lifted = _lift(X, ctx.basis, 1)
    return _identity_residuals(
        lifted[-1], lifted[1:-1], "coordinate", -(N - 1) / 2.0 * X, kappa_expected
    )


def projector_identity_residuals(x, m: int, ctx: OperatorContext) -> dict[str, float]:
    """Residual maxima of the closed forms for the projector quadratics.

    With S = x P x^T (P the first-m-columns projector) the expected values
    are laplacian(S_{ja}) = -N S_{ja} + m delta_{ja} and

      pairing(S_{ja}, S_{kb}) = -(S_{jb} S_{ka} + S_{jk} S_{ab})
          + (d_{jk} S_{ab} + d_{ab} S_{jk} + d_{jb} S_{ka} + d_{ka} S_{jb}) / 2.
    """
    X = np.asarray(_as_matrix(x), dtype=float)
    N = X.shape[0]
    W = X[:, :m]
    S = W @ W.T
    eye = np.eye(N)
    kappa_expected = (
        -(np.einsum("jb,ka->jakb", S, S) + np.einsum("jk,ab->jakb", S, S))
        + 0.5
        * (
            np.einsum("jk,ab->jakb", eye, S)
            + np.einsum("ab,jk->jakb", eye, S)
            + np.einsum("jb,ka->jakb", eye, S)
            + np.einsum("ka,jb->jakb", eye, S)
        )
    )
    # product rule on S = W W^T over the window columns of the lifted planes
    windows = _lift(X, ctx.basis, 1)[:, :, :m]
    half = windows @ W.T
    grads = half[1:-1] + half[1:-1].transpose(0, 2, 1)
    tau = half[-1] + half[-1].T + 2.0 * np.einsum("bjt,bat->ja", windows[1:-1], windows[1:-1])
    return _identity_residuals(tau, grads, "projector", -N * S + m * eye, kappa_expected)


# -- checkers --------------------------------------------------------------------


def check_eigenfunction(
    f, lam, mu, points: Sequence, ctx: OperatorContext, tol: float
) -> VerificationReport:
    """Verify laplacian(f) = lam f and pairing(f, f) = mu f^2 at each point.

    Residuals are normalized by 1 + |f| + |f|^2 to mix absolute and relative
    control across the scales the two identities live on.
    """
    lam, mu = complex(lam), complex(mu)
    records: list[CheckRecord] = []
    for i, pt in enumerate(points):
        v = complex(evaluate(f, _as_matrix(pt)))
        coeffs = laplacian_jet(f, pt, ctx.basis, 1).coeffs
        t = complex(coeffs[-1])
        k = complex(coeffs[1:-1] @ coeffs[1:-1])
        denom = 1.0 + abs(v) + abs(v) ** 2
        records.append(upper_check("tau_eigen", i, abs(t - lam * v) / denom, tol))
        records.append(upper_check("kappa_eigen", i, abs(k - mu * v * v) / denom, tol))
    return VerificationReport(
        "check_eigenfunction",
        {"lam": repr(lam), "mu": repr(mu), "points": len(points), "tol": tol},
        records,
    )


def check_eigenfamily(
    fs: Sequence, lam, mu, points: Sequence, ctx: OperatorContext, tol: float
) -> VerificationReport:
    """Eigen relations for each member plus pairing(f_i, f_j) = mu f_i f_j
    for every unordered pair."""
    if not fs:
        raise ValueError("need at least one family member")
    lam, mu = complex(lam), complex(mu)
    records: list[CheckRecord] = []
    for idx, f in enumerate(fs):
        member = check_eigenfunction(f, lam, mu, points, ctx, tol)
        records += [replace(rec, check=f"member{idx}_{rec.check}") for rec in member.checks]
    for i in range(len(fs)):
        for j in range(i + 1, len(fs)):
            for pidx, pt in enumerate(points):
                X = _as_matrix(pt)
                vi = complex(evaluate(fs[i], X))
                vj = complex(evaluate(fs[j], X))
                kij = complex(gradient_product(fs[i], fs[j], pt, ctx))
                denom = 1.0 + abs(vi) + abs(vj) + abs(vi * vj)
                records.append(
                    upper_check(
                        f"kappa_pair_{i}_{j}", pidx, abs(kij - mu * vi * vj) / denom, tol
                    )
                )
    return VerificationReport(
        "check_eigenfamily",
        {"lam": repr(lam), "mu": repr(mu), "members": len(fs), "points": len(points), "tol": tol},
        records,
    )


def check_invariance(
    f,
    subgroup_sampler: Callable[[int], GroupPoint],
    points: Sequence,
    tol: float = 1e-10,
    seed: int = 0,
) -> VerificationReport:
    """Verify f(x k) = f(x) for INVARIANCE_TRIALS sampled subgroup elements k.

    Records, per point, the worst normalized change over the trials.
    """
    ks = [subgroup_sampler(seed + 10_000 + j).entries for j in range(INVARIANCE_TRIALS)]
    records: list[CheckRecord] = []
    for i, pt in enumerate(points):
        X = _as_matrix(pt)
        v = complex(evaluate(f, X))
        worst = 0.0
        for k in ks:
            moved = complex(evaluate(f, X @ k))
            worst = max(worst, abs(moved - v) / (1.0 + abs(v)))
        records.append(upper_check("invariance", i, worst, tol))
    return VerificationReport(
        "check_invariance",
        {"points": len(points), "trials": INVARIANCE_TRIALS, "tol": tol},
        records,
    )


def non_descent_witness(
    f,
    merged_sampler: Callable[[int], GroupPoint],
    points: Sequence,
    seed: int = 0,
) -> VerificationReport:
    """Find a merged-subgroup element whose right action visibly moves f.

    Passing means at least one of WITNESS_TRIALS sampled actions per point
    changed the value by more than WITNESS_FLOOR (a lower-bound check),
    witnessing that f does not descend through the merged quotient.
    """
    records: list[CheckRecord] = []
    best = 0.0
    for i, pt in enumerate(points):
        X = _as_matrix(pt)
        v = complex(evaluate(f, X))
        for j in range(WITNESS_TRIALS):
            k = merged_sampler(seed + 20_000 + i * WITNESS_TRIALS + j).entries
            moved = complex(evaluate(f, X @ k))
            best = max(best, abs(moved - v) / (1.0 + abs(v)))
    records.append(lower_check("non_descent_witness", 0, best, WITNESS_FLOOR))
    return VerificationReport(
        "non_descent_witness",
        {"points": len(points), "trials": WITNESS_TRIALS, "floor": WITNESS_FLOOR},
        records,
    )


class SamplingExhausted(RuntimeError):
    """Enough well-conditioned sample points could not be found."""


def conditioned_sample(
    funcs: Sequence,
    sampler: Callable[[int], GroupPoint],
    count: int,
    seed: int,
) -> tuple[list[GroupPoint], int]:
    """Draw points where every listed function is numerically trustworthy.

    A point qualifies when each function value keeps clear of the branch cut
    (CUT_ANGLE), lies within [ABS_FLOOR, ABS_CEIL], and its magnitude reaches
    FLOOR_RATIO times the batch median scale.  Deterministic for a fixed seed.
    Returns the accepted points and the total number of draws.
    """
    if count < 1:
        raise ValueError("need count >= 1")

    def smallest_safe_value(point):
        worst = None
        for f in funcs:
            v = complex(scalar_value(evaluate(f, point.entries)))
            mag = abs(v)
            if not (ABS_FLOOR <= mag <= ABS_CEIL):
                return None
            if np.pi - abs(np.angle(v)) < CUT_ANGLE:
                return None
            worst = mag if worst is None else min(worst, mag)
        return worst

    batch_size = max(2 * count, 20)
    limit = 60 * count + batch_size
    candidates: list[tuple[GroupPoint, float]] = []
    draws = 0
    while draws < batch_size:
        pt = sampler(seed + draws)
        draws += 1
        mag = smallest_safe_value(pt)
        if mag is not None:
            candidates.append((pt, mag))
    if not candidates:
        raise SamplingExhausted("every candidate point violated the branch window")
    scale = float(np.median([m for _, m in candidates]))
    floor = FLOOR_RATIO * scale

    accepted = [pt for pt, mag in candidates if mag >= floor]
    while len(accepted) < count and draws < limit:
        pt = sampler(seed + draws)
        draws += 1
        mag = smallest_safe_value(pt)
        if mag is not None and mag >= floor:
            accepted.append(pt)
    if len(accepted) < count:
        raise SamplingExhausted(
            f"only {len(accepted)}/{count} conditioned samples after {draws} draws"
        )
    return accepted[:count], draws


def p_harmonic_residuals(f, p: int, x, ctx: OperatorContext) -> tuple[float, float]:
    """Normalized order-p residual and order-(p-1) witness at one point.

    Returns (|L^p f| / (1 + |f| + |L^(p-1) f|), |L^(p-1) f| / (1 + |f|)).
    """
    v = scalar_value(evaluate(f, _as_matrix(x)))
    top = complex(iterated_laplacian(f, p, x, ctx))
    prev = complex(iterated_laplacian(f, p - 1, x, ctx)) if p >= 1 else v
    residual = abs(top) / (1.0 + abs(v) + abs(prev))
    witness = abs(prev) / (1.0 + abs(v))
    return residual, witness
