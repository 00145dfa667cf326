"""Numerical Laplace-Beltrami and conformality operators.

The Laplacian of f at x is the sum over an orthonormal basis {Z_b} of
second derivatives of f along the curves x . exp(t Z_b): those curves are
geodesics through x (one-parameter subgroups for the bi-invariant metric;
boost directions of the symmetric pair for the quotient-level operators),
so no connection correction term is needed.  In terms of the left-invariant
fields Z_b, L = sum_b Z_b Z_b.  Every operator takes its basis as one
(B, N, N) array of the Z_b: group.so_basis(N) for the group-level operators,
group.m_basis(m, n) for the quotient-level ones, and
group.m_basis(m, n, "indefinite") for the dual ones.

One primitive, :func:`laplacian_jet`, computes every operator here by a
single walk of the expression tree per batch of points (the forward
Laplacian): each node carries its value, its B = |basis| directional
derivatives and its Laplacian, D = B + 2 components, combined by the product rule
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
3**p coefficients that literal recursion needs, in blocks whose workspace
is bounded by jets.PRODUCT_WORKSPACE_BYTES.  A projector form takes its
N |window| entry products (N touched rows) as one tensor-product call.  Log,
reciprocal and non-integer powers apply the one-level rule once per depth,
from the point value up, and raise :class:`pharmonic.jets.BranchCutError`,
:class:`pharmonic.jets.NonFiniteError` or :class:`pharmonic.jets.JetError`
on the point value exactly as plain evaluation does.

Every checker and residual function takes its points as one (K, N, N)
stack and walks the tree once per chunk of lanes, the lift of a chunk
holding at most MAX_LIFT_COMPONENTS components; plain evaluations
(invariance, the non-descent witness, conditioned sampling) run on stacks
the same way.  Their samplers take a sequence of seeds and return the
points as one (K, N, N) array, so every batch of subgroup actions or
candidate points is drawn in one call.  The checkers return their
verdicts as lists of CheckRecords, the residual functions as arrays of
one value per point.
One depth-p walk gives f, L^(p-1) f and L^p f at once, as components
(0, ..., 0), (D-1, ..., D-1, 0) and (D-1, ..., D-1).  A branch cut in a
stacked walk raises a BranchCutError naming the failing lanes.

The closed-form identity residuals read the same depth-1 lift as plain
arrays, for a stack of points at once, and build each point's rank-4
pairing tensor on its own: for the coordinate functions its planes X M_i
are the value, the gradient and the Laplacian outright, and for the
projector quadratics S = W W^T (W the window columns of X) one application
of the product rule gives Z_b S = (X Z_b)_W W^T + W (X Z_b)_W^T and
L S = (X sum Z^2)_W W^T + W (X sum Z^2)_W^T + 2 sum_b (X Z_b)_W (X Z_b)_W^T.

For a function invariant under right translation by a subgroup K, every
K-tangent direction contributes zero, so the full-basis Laplacian agrees
with the complement-basis Laplacian; the checkers exploit that to verify
quotient-level identities on group samples.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .expressions import evaluate
from .group import curve_jets  # noqa: F401  (bench/tracing.py wraps operators.curve_jets)
from .jets import BranchCutError, LaplacianJet
from .reports import CheckRecord, lower_check, upper_check

DEPTH_CAP = 5

# Largest forward-Laplacian lift, N^2 (|basis| + 2)^p components, one walk
# may build: the CLI refuses a run whose single-point lift exceeds it, and
# the checkers walk as many points at once as fit under it.  Measured one
# sample per run on a 2-core x86-64 VM (peak resident set): flag --blocks
# 1,1,2 --p 5 (524,288 components) takes 2.1 s and 70 MB; pharmonic --m 2
# --n 3 --p 5 (819,200) 1.2 s and 76 MB; grassmann --m 19 --n 19 (1,018,020)
# 1.3 s and 133 MB.  Unbounded, calibrate --m 1 --n 199 would first build
# about 6.4 GB of so(200) basis.
MAX_LIFT_COMPONENTS = 2**20

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


def _by_chunks(walk, X: np.ndarray, components: int) -> np.ndarray:
    """walk over consecutive chunks of the stack X, each of at most
    MAX_LIFT_COMPONENTS // components lanes (at least one), concatenated.
    A BranchCutError names its failing lanes, in its message and in .lanes,
    by their index in X."""
    step = max(1, MAX_LIFT_COMPONENTS // components)
    parts = []
    for start in range(0, len(X), step):
        try:
            parts.append(walk(X[start : start + step]))
        except BranchCutError as exc:
            raise BranchCutError(exc.reason, [start + i for i in exc.lanes]) from None
    return np.concatenate(parts)


def values_at(f, X: np.ndarray) -> np.ndarray:
    """Plain values of f at each point of the stack X, one walk per chunk."""
    return _by_chunks(lambda chunk: evaluate(f, chunk), X, X[0].size)


def _jets_at(f, X: np.ndarray, basis, p: int, components=slice(None)) -> np.ndarray:
    """The chosen components of f's depth-p jet at each point of the stack
    X, a (K, ...) array, from one laplacian_jet walk per chunk of points."""
    size = X[0].size * (len(basis) + 2) ** p
    return _by_chunks(lambda chunk: laplacian_jet(f, chunk, basis, p).coeffs[:, components], X, size)


# -- core operators -------------------------------------------------------------


def _lift(X: np.ndarray, basis: np.ndarray, p: int) -> np.ndarray:
    """The D**p matrices X M_i1 ... M_ip in multi-index order, for M_0 = I,
    M_b = Z_b and M_(D-1) = sum_b Z_b Z_b: shape (D**p, N, N) for one
    matrix X, (K, D**p, N, N) for a stack of K."""
    if not len(basis):
        raise ValueError("need a nonempty basis")
    N = X.shape[-1]
    fields = np.concatenate([np.eye(N)[None], basis, sum(z @ z for z in basis)[None]])
    lifted = X[..., None, :, :]
    for _ in range(p):
        lifted = (lifted[..., None, :, :] @ fields).reshape(X.shape[:-2] + (-1, N, N))
    return lifted


def laplacian_jet(f, x, basis: np.ndarray, p: int) -> LaplacianJet:
    """f evaluated once on the depth-p forward-Laplacian lift of the point x,
    or of every matrix of a stack x of shape (K, N, N) at once (K lanes).

    Component (i_1, ..., i_p) of the result, in each lane, is M_i1 ... M_ip f
    at the point, for the operators M_0 = 1, M_b = Z_b and
    M_(D-1) = sum_b Z_b Z_b over the basis.
    """
    X = np.asarray(x)
    N = X.shape[-1]
    lanes = X.shape[:-2]
    # entries[r * N + c] holds the lifted (r, c) entry, lanes first
    entries = np.ascontiguousarray(
        np.moveaxis(_lift(X, basis, p).reshape(lanes + (-1, N * N)), -1, 0), dtype=complex
    )
    B = len(basis)
    rows = [[LaplacianJet(B, p, entries[r * N + c]) for c in range(N)] for r in range(N)]
    value = evaluate(f, rows)
    if isinstance(value, LaplacianJet):
        return value
    coeffs = np.zeros(lanes + ((B + 2) ** p,), dtype=complex)
    coeffs[..., 0] = value
    return LaplacianJet(B, p, coeffs)


def laplacian(f, x, basis: np.ndarray) -> complex:
    """Sum over basis directions of the second derivative of f along x.exp(tZ)."""
    return complex(laplacian_jet(f, x, basis, 1).coeffs[-1])


def gradient_product(f, g, x, basis: np.ndarray) -> complex:
    """Complex-bilinear pairing of gradients: sum of Z(f) Z(g) over the basis."""
    df = laplacian_jet(f, x, basis, 1).coeffs[1:-1]
    dg = df if g is f else laplacian_jet(g, x, basis, 1).coeffs[1:-1]
    return complex(df @ dg)


def iterated_laplacian(f, p: int, x, basis: np.ndarray):
    """p-fold Laplacian from one depth-p walk; p = 0 evaluates f."""
    if p < 0:
        raise ValueError("need p >= 0")
    if p > DEPTH_CAP:
        raise ValueError(f"iteration depth {p} exceeds cap {DEPTH_CAP}")
    if p == 0:
        return evaluate(f, x)
    return complex(laplacian_jet(f, x, basis, p).coeffs[-1])


def fd_laplacian(f, x, basis: np.ndarray, step: float = 1e-4) -> complex:
    """Central-difference Laplacian, an oracle independent of jet arithmetic
    (and of the CLI, so scipy is imported here rather than with the module)."""
    from scipy.linalg import expm

    X = np.asarray(x, dtype=float)
    center = 2.0 * complex(evaluate(f, X))
    total = 0j
    for z in basis:
        fwd = complex(evaluate(f, X @ expm(step * z)))
        bwd = complex(evaluate(f, X @ expm(-step * z)))
        total += (fwd + bwd - center) / step**2
    return total


# -- batch identity residuals ---------------------------------------------------


def _identity_residuals(points: np.ndarray, basis: np.ndarray, label: str, planes) -> dict:
    """Residual maxima, normalised by 1 + |expected|, of the closed forms for
    the Laplacian and the gradient pairing of an N x N grid of functions:
    one array of values per point of the (K, N, N) stack, lifted in
    chunks under MAX_LIFT_COMPONENTS.

    ``planes(X)`` gives, for a (K, N, N) chunk, the grid's Laplacian planes,
    their expected values, its (K, B, N, N) gradient planes, and a function
    of k returning point k's expected N^4 pairing tensor; the pairing
    tensors are built one point at a time, so only one is held at once.
    """

    def residuals(chunk):
        tau, tau_expected, grads, kappa_expected = planes(chunk)
        r_tau = np.max(np.abs(tau - tau_expected) / (1.0 + np.abs(tau_expected)), axis=(-2, -1))
        r_kappa = np.empty(len(chunk))
        for k, point_grads in enumerate(grads):
            kappa = np.einsum("zja,zkb->jakb", point_grads, point_grads)
            expected = kappa_expected(k)
            r_kappa[k] = np.max(np.abs(kappa - expected) / (1.0 + np.abs(expected)))
        return np.stack([r_tau, r_kappa], axis=1)

    r = _by_chunks(residuals, points, points[0].size * (len(basis) + 2))
    return {f"tau_{label}": r[:, 0], f"kappa_{label}": r[:, 1]}


def coordinate_identity_residuals(points: np.ndarray, basis: np.ndarray) -> dict:
    """Residual maxima of the closed forms for Laplacian and gradient pairing
    of the matrix-entry coordinates on SO(N), at each point of a stack (see
    _identity_residuals).

    Expected: laplacian(x_{ja}) = -(N-1)/2 * x_{ja} and
    pairing(x_{ja}, x_{kb}) = -(x_{jb} x_{ka} - delta_{jk} delta_{ab}) / 2.
    """

    def planes(X):
        N = X.shape[-1]
        eye = np.eye(N)
        delta = np.einsum("jk,ab->jakb", eye, eye)
        lifted = _lift(X, basis, 1)
        return (
            lifted[:, -1],
            -(N - 1) / 2.0 * X,
            lifted[:, 1:-1],
            lambda k: -0.5 * (np.einsum("jb,ka->jakb", X[k], X[k]) - delta),
        )

    return _identity_residuals(points, basis, "coordinate", planes)


def projector_identity_residuals(points: np.ndarray, m: int, basis: np.ndarray) -> dict:
    """Residual maxima of the closed forms for the projector quadratics at
    each point of a stack (see _identity_residuals).

    With S = x P x^T (P the first-m-columns projector) the expected values
    are laplacian(S_{ja}) = -N S_{ja} + m delta_{ja} and

      pairing(S_{ja}, S_{kb}) = -(S_{jb} S_{ka} + S_{jk} S_{ab})
          + (d_{jk} S_{ab} + d_{ab} S_{jk} + d_{jb} S_{ka} + d_{ka} S_{jb}) / 2.
    """

    def kappa_expected(S, eye):
        return -(np.einsum("jb,ka->jakb", S, S) + np.einsum("jk,ab->jakb", S, S)) + 0.5 * (
            np.einsum("jk,ab->jakb", eye, S)
            + np.einsum("ab,jk->jakb", eye, S)
            + np.einsum("jb,ka->jakb", eye, S)
            + np.einsum("ka,jb->jakb", eye, S)
        )

    def planes(X):
        N = X.shape[-1]
        eye = np.eye(N)
        W = X[..., :m]
        Wt = np.swapaxes(W, -1, -2)
        S = W @ Wt
        # product rule on S = W W^T over the window columns of the lifted planes
        windows = _lift(X, basis, 1)[..., :m]
        half = windows @ Wt[:, None]
        grads = half[:, 1:-1] + np.swapaxes(half[:, 1:-1], -1, -2)
        tau = (
            half[:, -1]
            + np.swapaxes(half[:, -1], -1, -2)
            + 2.0 * np.einsum("kbjt,kbat->kja", windows[:, 1:-1], windows[:, 1:-1])
        )
        return tau, -N * S + m * eye, grads, lambda k: kappa_expected(S[k], eye)

    return _identity_residuals(points, basis, "projector", planes)


# -- checkers --------------------------------------------------------------------


def _eigen_records(jets, lam: complex, mu: complex, tol: float, prefix: str = "") -> list[CheckRecord]:
    """tau and kappa records per point from the (K, D) depth-1 components."""
    v, grads, t = jets[:, 0], jets[:, 1:-1], jets[:, -1]
    k = np.einsum("kb,kb->k", grads, grads)
    denom = 1.0 + np.abs(v) + np.abs(v) ** 2
    tau = np.abs(t - lam * v) / denom
    kappa = np.abs(k - mu * v * v) / denom
    records: list[CheckRecord] = []
    for i in range(len(v)):
        records.append(upper_check(f"{prefix}tau_eigen", i, tau[i], tol))
        records.append(upper_check(f"{prefix}kappa_eigen", i, kappa[i], tol))
    return records


def check_eigenfunction(
    f, lam, mu, points: np.ndarray, basis: np.ndarray, tol: float
) -> list[CheckRecord]:
    """Verify laplacian(f) = lam f and pairing(f, f) = mu f^2 at each point
    of the stack, from one depth-1 walk per chunk of points.

    Residuals are normalized by 1 + |f| + |f|^2 to mix absolute and relative
    control across the scales the two identities live on.
    """
    return _eigen_records(_jets_at(f, points, basis, 1), complex(lam), complex(mu), tol)


def check_eigenfamily(
    fs: Sequence, lam, mu, points: np.ndarray, basis: np.ndarray, tol: float
) -> list[CheckRecord]:
    """Eigen relations for each member plus pairing(f_i, f_j) = mu f_i f_j
    for every unordered pair, read from one depth-1 walk per member per
    chunk of points."""
    if not fs:
        raise ValueError("need at least one family member")
    lam, mu = complex(lam), complex(mu)
    jets = [_jets_at(f, points, basis, 1) for f in fs]
    records: list[CheckRecord] = []
    for idx, member in enumerate(jets):
        records += _eigen_records(member, lam, mu, tol, prefix=f"member{idx}_")
    for i in range(len(fs)):
        for j in range(i + 1, len(fs)):
            vi, vj = jets[i][:, 0], jets[j][:, 0]
            kij = np.einsum("kb,kb->k", jets[i][:, 1:-1], jets[j][:, 1:-1])
            denom = 1.0 + np.abs(vi) + np.abs(vj) + np.abs(vi * vj)
            residuals = np.abs(kij - mu * vi * vj) / denom
            records += [
                upper_check(f"kappa_pair_{i}_{j}", pidx, r, tol) for pidx, r in enumerate(residuals)
            ]
    return records


def _moved_changes(f, X: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """|f(x_i k_ij) - f(x_i)| / (1 + |f(x_i)|) for the (K, T, N, N) actions
    ks on the (K, N, N) points X, shape (K, T), from one stacked evaluation
    of the points and then their moved copies.  A BranchCutError names the
    points, by their index in X, whose value or moved values hit the cut."""
    K, T = ks.shape[:2]
    moved = (X[:, None] @ ks).reshape(K * T, *X.shape[1:])
    try:
        values = values_at(f, np.concatenate([X, moved]))
    except BranchCutError as exc:
        points = sorted({lane if lane < K else (lane - K) // T for lane in exc.lanes})
        raise BranchCutError(exc.reason, points) from None
    v = values[:K, None]
    return np.abs(values[K:].reshape(K, T) - v) / (1.0 + np.abs(v))


def check_invariance(
    f,
    subgroup_sampler: Callable[[Sequence[int]], np.ndarray],
    points: np.ndarray,
    tol: float = 1e-10,
    seed: int = 0,
) -> list[CheckRecord]:
    """Verify f(x k) = f(x) for INVARIANCE_TRIALS sampled subgroup elements k,
    drawn as one stack from seeds seed + 10000, ....

    Records, per point, the worst normalized change over the trials.
    """
    ks = subgroup_sampler(range(seed + 10_000, seed + 10_000 + INVARIANCE_TRIALS))
    worst = _moved_changes(f, points, np.broadcast_to(ks, (len(points),) + ks.shape)).max(axis=1)
    return [upper_check("invariance", i, w, tol) for i, w in enumerate(worst)]


def non_descent_witness(
    f,
    merged_sampler: Callable[[Sequence[int]], np.ndarray],
    points: np.ndarray,
    seed: int = 0,
) -> list[CheckRecord]:
    """Find a merged-subgroup element whose right action visibly moves f.

    Passing means at least one of WITNESS_TRIALS sampled actions per point
    changed the value by more than WITNESS_FLOOR (a lower-bound check),
    witnessing that f does not descend through the merged quotient.  Trial j
    of point i uses seed seed + 20000 + i WITNESS_TRIALS + j; all are drawn
    as one stack.
    """
    start = seed + 20_000
    ks = merged_sampler(range(start, start + len(points) * WITNESS_TRIALS))
    ks = ks.reshape(len(points), WITNESS_TRIALS, *points.shape[1:])
    best = float(_moved_changes(f, points, ks).max())
    return [lower_check("non_descent_witness", 0, best, WITNESS_FLOOR)]


class SamplingExhausted(RuntimeError):
    """Enough well-conditioned sample points could not be found."""


def conditioned_sample(
    funcs: Sequence,
    sampler: Callable[[Sequence[int]], np.ndarray],
    count: int,
    seed: int,
) -> tuple[np.ndarray, int]:
    """Draw points where every listed function is numerically trustworthy.

    A point qualifies when each function value keeps clear of the branch cut
    (CUT_ANGLE), lies within [ABS_FLOOR, ABS_CEIL], and its magnitude reaches
    FLOOR_RATIO times the batch median scale.  Deterministic for a fixed seed:
    ``sampler`` maps a sequence of seeds to the stack of their points, and
    candidate i is the point of seed + i.  Returns the accepted points, as
    one (count, N, N) stack, and the total number of draws.
    """
    if count < 1:
        raise ValueError("need count >= 1")

    def smallest_safe_values(X: np.ndarray) -> np.ndarray:
        """Per point, the smallest magnitude over funcs, or nan where a value
        leaves the window; one stacked evaluation per function."""
        worst = np.full(len(X), np.inf)
        for f in funcs:
            v = values_at(f, X)
            mag = np.abs(v)
            safe = (ABS_FLOOR <= mag) & (mag <= ABS_CEIL) & (np.pi - np.abs(np.angle(v)) >= CUT_ANGLE)
            worst = np.where(safe, np.minimum(worst, mag), np.nan)
        return worst

    batch_size = max(2 * count, 20)
    limit = 60 * count + batch_size
    first = sampler(range(seed, seed + batch_size))
    draws = batch_size
    mags = smallest_safe_values(first)
    safe = ~np.isnan(mags)
    if not safe.any():
        raise SamplingExhausted("every candidate point violated the branch window")
    floor = FLOOR_RATIO * float(np.median(mags[safe]))

    accepted = [first[mags >= floor]]
    kept = len(accepted[0])
    while kept < count and draws < limit:
        # never more draws than acceptances still needed, so the draw count
        # is the one a point-by-point loop stopping at `count` makes
        size = min(count - kept, limit - draws)
        batch = sampler(range(seed + draws, seed + draws + size))
        draws += size
        accepted.append(batch[smallest_safe_values(batch) >= floor])
        kept += len(accepted[-1])
    if kept < count:
        raise SamplingExhausted(
            f"only {kept}/{count} conditioned samples after {draws} draws"
        )
    return np.concatenate(accepted)[:count], draws


def p_harmonic_residuals(f, p: int, points: np.ndarray, basis: np.ndarray):
    """Normalized order-p residual and order-(p-1) witness.

    Returns (|L^p f| / (1 + |f| + |L^(p-1) f|), |L^(p-1) f| / (1 + |f|)) as
    two arrays of one value per point of the (K, N, N) stack, walked
    together in chunks.  f, L^(p-1) f and L^p f are components (0, ..., 0),
    (D-1, ..., D-1, 0) and (D-1, ..., D-1) of one depth-p jet.  A branch cut
    raises a BranchCutError naming the failing points by their index.
    """
    if not 1 <= p <= DEPTH_CAP:
        raise ValueError(f"need 1 <= p <= {DEPTH_CAP}, got {p}")
    D = len(basis) + 2
    components = [0, D**p - D, D**p - 1]
    v, prev, top = np.abs(_jets_at(f, points, basis, p, components)).T
    return top / (1.0 + v + prev), prev / (1.0 + v)
