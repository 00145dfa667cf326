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
(:class:`pharmonic.jets.LaplacianJet`), whose component at multi-index
(i_1, ..., i_p) is M_i1 ... M_ip f, with M_0 = 1, M_b = Z_b and
M_(D-1) = sum_b Z_b^2: left-invariant fields act on a point by right
multiplication, outermost level on the left, so their non-commutativity
is exact.  L^p f is the (D-1, ..., D-1) component and the gradient pairing
sum_b Z_b f Z_b g is read from the depth-1 direction components.

A projector form is tr(P G), P its window projector and G = X^T S X its
Gram matrix, and x -> x g moves G to g^T G g; so M_i f_Q = f_(rho(M_i) Q)
for f_Q = tr(Q G), with rho(Z) Q = Z Q + Q Z^T and
rho(M_(D-1)) = sum_b rho(Z_b)^2.  A form's jet is therefore G paired with
the generator tensor T_(i1...ip) = rho(M_i1) ... rho(M_ip) P, which
depends only on the basis, the window and p: one T per window per walk,
one contraction of N^2 D**p terms per point, and no lift of the point.
Only a tree with Entry leaves lifts its matrix entries, each with the
component (i_1, ..., i_p) equal to (x M_i1 ... M_ip)_rc.  Each product in
the walk costs O((3B + 3)**p) instead of the |basis|**p walks over nested
jets of 3**p coefficients that literal recursion needs, in blocks whose
workspace, 24 (3B + 3)**p bytes per element where one term map covers the
product, is bounded by jets.PRODUCT_WORKSPACE_BYTES.  Log,
reciprocal and non-integer powers apply the one-level rule once per depth,
from the point value up, sharing one chain of reciprocals per jet, and
raise :class:`pharmonic.jets.BranchCutError`,
:class:`pharmonic.jets.NonFiniteError` or :class:`pharmonic.jets.JetError`
on the point value exactly as plain evaluation does.

Every checker and residual function takes its points as one (K, N, N)
stack and walks the tree once per chunk of lanes, a chunk holding at most
MAX_LIFT_COMPONENTS components of N^2 D**p per lane; plain evaluations
(invariance, the non-descent witness, conditioned sampling) run on stacks
the same way.  Their samplers take a sequence of seeds and return the
points as one (K, N, N) array, so every batch of subgroup actions or
candidate points is drawn in one call.  The checkers return their
verdicts as lists of CheckRecords, the residual functions as arrays of
one value per point.
One depth-p walk gives f, L^(p-1) f and L^p f at once, as components
(0, ..., 0), (D-1, ..., D-1, 0) and (D-1, ..., D-1).  A branch cut in a
stacked walk raises a BranchCutError naming the failing lanes.

The closed-form identity residuals read depth-1 planes as plain arrays,
for a stack of points at once, and take the rank-4 pairing tensor and its
residual in tiles of at most IDENTITY_TILE_BYTES: several whole points per
tile at small N, one slab of a point's rows at a time when one point's N^4
tensor does not fit.  For the coordinate functions the planes X M_i of the
lift are the value, the gradient and the Laplacian outright, and for the
projector quadratics S = X P X^T (P the window projector) they are
M_i S = X T_i X^T, from the depth-1 generator tensor T that every
projector form's jet is paired with.

For a function invariant under right translation by a subgroup K, every
K-tangent direction contributes zero, so the full-basis Laplacian agrees
with the complement-basis Laplacian; the checkers exploit that to verify
quotient-level identities on group samples.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .expressions import Entry, ProjectorForm, evaluate, tree_leaves
from .group import curve_jets  # noqa: F401  (bench/tracing.py wraps operators.curve_jets)
from .jets import BranchCutError, LaplacianJet
from .reports import CheckRecord, lower_check, upper_check

DEPTH_CAP = 5

# Largest forward-Laplacian array, N^2 (|basis| + 2)^p components, one walk
# may build per point (an entry lift, or a projector form's generator
# tensor): the CLI refuses a run whose single-point array exceeds it, and
# the checkers walk as many points at once as fit under it.  Measured one
# sample per run, median of three fresh processes, on a 2-core x86-64 VM
# (peak resident set): flag --blocks 1,1,2 --p 5 (524,288 components) takes
# 1.2 s and 61 MB; pharmonic --m 2 --n 3 --p 5 (819,200) 0.6 s and 58 MB;
# grassmann --m 19 --n 19 (1,018,020) 0.44 s and 83 MB (median of ten, its
# pairing tensor taken in tiles).  Unbounded,
# calibrate --m 1 --n 199 would first build about 6.4 GB of so(200) basis.
MAX_LIFT_COMPONENTS = 2**20

# Bytes of pairing-tensor entries the identity residuals take in one tile:
# whole points when one point's N^4 entries fit, else one point's rows for a
# slab of its leading index, at least one index (N^3 entries).  Measured on a
# 2-core x86-64 VM at the identities benchmark's 11 shapes, ten points each
# (best of five runs of 7 x 50 passes): 32 KiB 3.9 ms, 64 KiB 2.8 ms,
# 128 KiB 2.6 ms and 256 KiB 3.1 ms a pass, against 4.8 ms for one whole
# tensor per point.  Over 50 passes, 128 KiB raised the peak resident set by
# 0.2 MB and 256 KiB by 0.7 MB (160 page faults a pass); 32 and 64 KiB did
# not.  One so(38) point's coordinate residuals take 0.08 s and a 15.5 MiB
# tracemalloc peak, that of its gradient planes, against 0.16 s and 87.4 MiB.
IDENTITY_TILE_BYTES = 2**16

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
    fields = np.concatenate([np.eye(N)[None], basis, (basis @ basis).sum(axis=0, keepdims=True)])
    lifted = X[..., None, :, :]
    for _ in range(p):
        lifted = (lifted[..., None, :, :] @ fields).reshape(X.shape[:-2] + (-1, N, N))
    return lifted


def _generator_tensor(basis: np.ndarray, columns: Sequence[int], N: int, p: int) -> np.ndarray:
    """The D**p matrices T_(i1...ip) = rho(M_i1) ... rho(M_ip) P in
    multi-index order, shape (D**p, N, N), for P the projector onto the
    1-based window columns, rho(Z) Q = Z Q + Q Z^T, rho(M_0) the identity,
    rho(M_b) = rho(Z_b) and rho(M_(D-1)) = sum_b rho(Z_b)^2.

    Each level prepends one index.  T is symmetric, so with A = F T for the
    stacked fields F = (Z_1, ..., Z_B, sum_b Z_b Z_b), one batched product,
    rho(Z_b) T = A_b + A_b^T, and sum_b rho(Z_b)^2 T = A_L + A_L^T + E + E^T
    for E = sum_b Z_b T Z_b^T = sum_b A_b Z_b^T, added into A_L first.
    """
    if not len(basis):
        raise ValueError("need a nonempty basis")
    P = np.zeros((N, N))
    window = [c - 1 for c in columns]
    P[window, window] = 1.0
    fields = np.concatenate([basis, (basis @ basis).sum(axis=0, keepdims=True)])
    T = P[None]
    for _ in range(p):
        A = fields[:, None] @ T
        A[-1] += np.tensordot(A[:-1], basis, axes=([0, 3], [0, 2]))
        T = np.concatenate([T[None], A + np.swapaxes(A, -1, -2)]).reshape(-1, N, N)
    return T


def _form_jet(form: ProjectorForm, X: np.ndarray, T: np.ndarray) -> np.ndarray:
    """The depth-p components of form at the point X, or at each point of a
    stack: the form is tr(P G) for the Gram matrix G = X_R^T S X_R (R the
    rows its pairs touch), linear in G, so component i is the pairing of G
    with T_i.  T is real (the bases are), so G's real and imaginary parts
    are paired with it apart, and T is never copied to complex.  Component
    0 is plain evaluation of the form."""
    rows, weights = form.window_weights
    XR = X[..., rows, :]
    G = np.swapaxes(XR, -1, -2) @ (weights @ XR)
    N = X.shape[-1]
    g, flat = G.reshape(X.shape[:-2] + (N * N,)), T.reshape(len(T), N * N).T
    coeffs = np.empty(g.shape[:-1] + (len(T),), dtype=complex)
    coeffs.real, coeffs.imag = g.real @ flat, g.imag @ flat
    coeffs[..., 0] = evaluate(form, X)
    return coeffs


def _form_jets(forms, X: np.ndarray, basis: np.ndarray, p: int) -> dict:
    """The depth-p LaplacianJet of each ProjectorForm, keyed by node
    identity, from one generator tensor per distinct window."""
    tensors, jets = {}, {}
    for form in forms:
        if form.columns not in tensors:
            tensors[form.columns] = _generator_tensor(basis, form.columns, X.shape[-1], p)
        jets[id(form)] = LaplacianJet(len(basis), p, _form_jet(form, X, tensors[form.columns]))
    return jets


def laplacian_jet(f, x, basis: np.ndarray, p: int) -> LaplacianJet:
    """f evaluated once on the depth-p forward-Laplacian lift of the point x,
    or of every matrix of a stack x of shape (K, N, N) at once (K lanes).

    Component (i_1, ..., i_p) of the result, in each lane, is M_i1 ... M_ip f
    at the point, for the operators M_0 = 1, M_b = Z_b and
    M_(D-1) = sum_b Z_b Z_b over the basis.  Each ProjectorForm of the tree
    enters the walk as its jet from the generator tensor; matrix entries
    are lifted only for a tree with Entry leaves.
    """
    X = np.asarray(x)
    N = X.shape[-1]
    lanes = X.shape[:-2]
    B = len(basis)
    leaves = tree_leaves(f)
    known = _form_jets([n for n in leaves if isinstance(n, ProjectorForm)], X, basis, p)
    rows = None
    if any(isinstance(n, Entry) for n in leaves):
        # entries[r * N + c] holds the lifted (r, c) entry, lanes first
        entries = np.ascontiguousarray(
            np.moveaxis(_lift(X, basis, p).reshape(lanes + (-1, N * N)), -1, 0), dtype=complex
        )
        rows = [[LaplacianJet(B, p, entries[r * N + c]) for c in range(N)] for r in range(N)]
    value = evaluate(f, rows, known)
    if isinstance(value, LaplacianJet):
        return value
    coeffs = np.zeros(lanes + ((B + 2) ** p,), dtype=complex)
    coeffs[..., 0] = value
    return LaplacianJet(B, p, coeffs)


# laplacian, gradient_product and iterated_laplacian: no CLI command calls
# them; the tests do, and bench/tracing.py wraps them by name.
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


# -- batch identity residuals ---------------------------------------------------


def _identity_residuals(points: np.ndarray, basis: np.ndarray, label: str, planes) -> dict:
    """Residual maxima, normalised by 1 + |expected|, of the closed forms for
    the Laplacian and the gradient pairing of an N x N grid of functions:
    one array of values per point of the (K, N, N) stack, lifted in
    chunks under MAX_LIFT_COMPONENTS.

    ``planes(X)`` gives, for a (K, N, N) chunk, the grid's Laplacian planes,
    their expected values, its (K, B, N, N) gradient planes, and a function
    of a slice of points and a slice of the leading index j returning the
    expected pairing tensor there, shape (P, J, N, N, N) in index order
    (j, a, k, b).  The pairing tensor of a point is flat^T flat, flat its
    gradient planes as a (B, N^2) matrix, and it is taken in tiles of at most
    IDENTITY_TILE_BYTES: a run of whole points, one stacked GEMM, when one
    point's N^4 tensor fits, else one point and a slab of its j, whose rows
    are flat[:, slab]^T flat.  Each tile's residual is computed in its own
    buffer, so no N^4 tensor is held.  numpy hands a whole point's A^T A to
    BLAS syrk and a slab's rows to gemm, which may round differently: slab
    tiles can move a pairing residual by a unit in its last place.
    """

    def residuals(chunk):
        tau, tau_expected, grads, kappa_expected = planes(chunk)
        r_tau = np.max(np.abs(tau - tau_expected) / (1.0 + np.abs(tau_expected)), axis=(-2, -1))
        K, N = len(chunk), chunk.shape[-1]
        flat = grads.reshape(K, -1, N * N)
        step = max(1, IDENTITY_TILE_BYTES // (8 * N**4))
        slab = min(N, max(1, IDENTITY_TILE_BYTES // (8 * N**3)))
        r_kappa = np.full(K, -np.inf)
        for k in range(0, K, step):
            lanes = slice(k, k + step)
            for j in range(0, N, slab):
                kappa = np.swapaxes(flat[lanes, :, j * N : (j + slab) * N], -1, -2) @ flat[lanes]
                expected = kappa_expected(lanes, slice(j, j + slab)).reshape(kappa.shape)
                np.subtract(kappa, expected, out=kappa)
                np.abs(kappa, out=kappa)
                np.abs(expected, out=expected)
                expected += 1.0
                kappa /= expected
                np.maximum(r_kappa[lanes], np.max(kappa, axis=(-2, -1)), out=r_kappa[lanes])
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
        XT = np.swapaxes(X, -1, -2)

        def kappa_expected(lanes, rows):
            # axes (point, j, a, k, b); delta_jk delta_ab is the k = j, b = a diagonal
            expected = X[lanes, rows, None, None, :] * XT[lanes, None, :, :, None]
            np.einsum("pjaja->pja", expected[:, :, :, rows])[...] -= 1.0
            expected *= -0.5
            return expected

        lifted = _lift(X, basis, 1)
        return lifted[:, -1], -(N - 1) / 2.0 * X, lifted[:, 1:-1], kappa_expected

    return _identity_residuals(points, basis, "coordinate", planes)


def projector_identity_residuals(points: np.ndarray, m: int, basis: np.ndarray) -> dict:
    """Residual maxima of the closed forms for the projector quadratics at
    each point of a stack (see _identity_residuals).

    With S = x P x^T (P the first-m-columns projector) the expected values
    are laplacian(S_{ja}) = -N S_{ja} + m delta_{ja} and

      pairing(S_{ja}, S_{kb}) = -(S_{jb} S_{ka} + S_{jk} S_{ab})
          + (d_{jk} S_{ab} + d_{ab} S_{jk} + d_{jb} S_{ka} + d_{ka} S_{jb}) / 2.
    """

    def planes(X):
        N = X.shape[-1]
        eye = np.eye(N)
        W = X[..., :m]
        S = W @ np.swapaxes(W, -1, -2)
        ST = np.swapaxes(S, -1, -2)
        H = 0.5 * S

        def kappa_expected(lanes, rows):
            # axes (point, j, a, k, b).  Each delta term lives on one diagonal
            # view; they are added in the order above, halved, which is exact.
            expected = S[lanes, rows, None, None, :] * ST[lanes, None, :, :, None]
            expected += S[lanes, rows, None, :, None] * S[lanes, None, :, None, :]
            deltas = np.zeros_like(expected)
            np.einsum("pjajb->pjab", deltas[:, :, :, rows])[...] = H[lanes, None]
            np.einsum("pjaka->pjak", deltas)[...] += H[lanes, rows, None, :]
            np.einsum("pjakj->pjak", deltas[..., rows])[...] += np.swapaxes(H[lanes], -1, -2)[:, None]
            np.einsum("pjaab->pjab", deltas)[...] += H[lanes, rows, None, :]
            return np.subtract(deltas, expected, out=expected)

        # M_i S = X T_i X^T, T the depth-1 generator tensor of the window
        T = _generator_tensor(basis, range(1, m + 1), N, 1)
        lifted = X[:, None] @ T @ np.swapaxes(X, -1, -2)[:, None]
        return lifted[:, -1], -N * S + m * eye, lifted[:, 1:-1], kappa_expected

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
    """Eigen relations for each member, as check_eigenfunction records whose
    ids carry the prefix member{i}_, from one depth-1 walk per member per
    chunk of points."""
    if not fs:
        raise ValueError("need at least one family member")
    records: list[CheckRecord] = []
    for idx, f in enumerate(fs):
        jets = _jets_at(f, points, basis, 1)
        records += _eigen_records(jets, complex(lam), complex(mu), tol, prefix=f"member{idx}_")
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
