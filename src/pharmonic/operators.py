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
depends only on the basis, the window and p: one T for all the tree's
windows per walk, built level by level in place, one contraction of
N^2 D**p terms per point, and no lift of the point.  A lane stack of
forms (the flag function's blocks, an eigenfamily's members) enters the
walk as one jet of (K, t) lanes, its t members on a last block axis.
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

Every walk takes its points as one (K, N, N) stack and walks the tree once
per chunk of lanes, a chunk holding at most MAX_LIFT_COMPONENTS components
of N^2 D**p per lane; plain evaluations (invariance, the non-descent
witness, conditioned sampling) run on stacks the same way.  The eigen
checks read depth-1 jets: eigen_jets', or those of the plain points that
ride a p_harmonic_residuals walk.  The samplers take a sequence of seeds
and return the points as one (K, N, N) array, so every batch of subgroup actions or
candidate points is drawn in one call.  Every checker and residual
function returns plain numbers, arrays of one value per point (the
non-descent witness one best change), so this module takes no threshold
and names no check: the CLI judges the numbers and writes the records.
One depth-p walk gives f, L^(p-1) f and L^p f at once, as components
(0, ..., 0), (D-1, ..., D-1, 0) and (D-1, ..., D-1).  A branch cut in a
stacked walk raises a BranchCutError naming the failing lanes, by point
whichever block of a lane stack failed there.

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

from .expressions import Entry, ProjectorForm, Stack, evaluate, tree_leaves
from .group import curve_jets  # noqa: F401  (bench/tracing.py wraps operators.curve_jets)
from .jets import BranchCutError, LaplacianJet

DEPTH_CAP = 5

# Largest forward-Laplacian array, N^2 (|basis| + 2)^p components, one walk
# may build per point or window (an entry lift, or a projector form's
# generator tensor): the CLI refuses a run whose single array exceeds it,
# the checkers walk as many points at once as fit under it, and the
# generator tensors are built for as many windows at once.  Measured one
# sample per run, median of five fresh processes with one BLAS thread on a
# 2-core x86-64 VM, from before the CLI's import to the end of its run
# (peak resident set): flag --blocks 1,1,2 --p 5 (524,288 components) takes
# 0.69 s and 59 MB; pharmonic --m 2 --n 3 --p 5 (819,200) 0.31 s and 53 MB;
# grassmann --m 19 --n 19 (1,018,020) 0.27 s and 75 MB (its pairing tensor
# taken in tiles).  Unbounded, calibrate --m 1 --n 199 would first build
# about 6.4 GB of so(200) basis.
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

# Subgroup elements per invariance check; merged-subgroup elements per point
# for the non-descent witness.
INVARIANCE_TRIALS = 5
WITNESS_TRIALS = 20

# Conditioned sampling.  Iterated-Laplacian checks amplify roundoff like a
# power of the derivative-to-value ratio, so the small-magnitude tail is
# mathematically fine but numerically uninformative: a point is kept only
# when every value's magnitude reaches FLOOR_RATIO times the median of
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
    MAX_LIFT_COMPONENTS // components lanes (at least one), concatenated;
    an empty stack is not walked and gives an empty array.  A
    BranchCutError names its failing lanes, in its message and in .lanes,
    by their index in X."""
    step = max(1, MAX_LIFT_COMPONENTS // components)
    parts = []
    for start in range(0, len(X), step):
        try:
            parts.append(walk(X[start : start + step]))
        except BranchCutError as exc:
            raise BranchCutError(exc.reason, [start + i for i in exc.lanes]) from None
    return np.concatenate(parts) if parts else np.empty(0)


def values_at(f, X: np.ndarray) -> np.ndarray:
    """Plain values of f at each point of the stack X, one walk per chunk."""
    return _by_chunks(lambda chunk: evaluate(f, chunk), X, X[0].size)


def _jets_at(f, points: np.ndarray, basis, p: int, components=slice(None), eigen=None, plain=None) -> tuple:
    """The chosen components of f's depth-p jet at each point of the stack
    `points`, a (K, ...) array; and, given a stack `plain`, the depth-1 jets
    of the tree `eigen` at its points, (P, ..., D), else None.

    One walk per chunk of at most MAX_LIFT_COMPONENTS components, N^2 D**p
    a point and N^2 D a plain point: as many points as fit (at least one),
    and all the plain points in the first chunk with room for them, else
    (and when `points` is empty) in a depth-1 walk of their own, so each of
    their pairings has the rows of a walk of them alone (a one-row product
    takes another BLAS kernel).
    The forms are paired once over the chunk's [plain; points] lanes.  A
    BranchCutError names its failing points by their index in `points`.
    eigen is a form of f or a Stack of them, which meets no branch cut.
    """
    N, D = points.shape[-1], len(basis) + 2
    riders = points[:0] if plain is None else plain
    forms = [n for n in tree_leaves(f) if isinstance(n, ProjectorForm)]
    size = N * N * D**p
    plain_jets = None

    def walk(chunk):
        nonlocal plain_jets
        room = MAX_LIFT_COMPONENTS - len(chunk) * size >= len(riders) * N * N * D
        ride = riders if plain_jets is None and room else riders[:0]
        X = np.concatenate([ride, chunk]) if len(ride) else chunk
        plain_known, known = _form_jets(forms, X, basis, p, len(ride))
        jets = _tree_jet(f, chunk, basis, p, known).coeffs[:, components]
        if len(ride):
            plain_jets = _tree_jet(eigen, ride, basis, 1, plain_known).coeffs
        return jets

    walked = _by_chunks(walk, points, size)
    if len(riders) and plain_jets is None:
        plain_jets = eigen_jets(eigen, riders, basis)
    return walked, plain_jets


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


def _generator_tensor(basis: np.ndarray, windows: Sequence[Sequence[int]], N: int, p: int) -> np.ndarray:
    """The D**p matrices T_(i1...ip) = rho(M_i1) ... rho(M_ip) P in
    multi-index order for each window, shape (len(windows), D**p, N, N), for
    P the projector onto the window's 1-based columns, rho(Z) Q = Z Q + Q Z^T,
    rho(M_0) the identity, rho(M_b) = rho(Z_b) and
    rho(M_(D-1)) = sum_b rho(Z_b)^2.

    Each level prepends one index, written in place into the next level's
    array.  T is symmetric, so with A_b = Z_b T, one batched product for
    every window and direction, rho(Z_b) T = A_b + A_b^T, and
    sum_b rho(Z_b)^2 T = A_L + A_L^T + E + E^T for A_L = (sum_b Z_b Z_b) T and
    E = sum_b Z_b T Z_b^T = sum_b A_b Z_b^T, added into A_L first.  E is
    the one product np.tensordot(A, basis, axes=([0, 3], [0, 2])) takes, on
    the same operands, so every window's T equals, bit for bit, the one
    built for that window alone from whole stacks.
    """
    if not len(basis):
        raise ValueError("need a nonempty basis")
    B = len(basis)
    T = np.zeros((len(windows), 1, N, N))
    for P, columns in zip(T[:, 0], windows):
        window = [c - 1 for c in columns]
        P[window, window] = 1.0
    laplacian = (basis @ basis).sum(axis=0)
    transposed = np.swapaxes(basis, -1, -2).reshape(B * N, N)  # rows (b, l) of Z_b^T
    for _ in range(p):
        W, M = T.shape[:2]
        level = np.empty((W, B + 2, M, N, N))
        level[:, 0] = T
        np.matmul(basis[:, None], T[:, None], out=level[:, 1:-1])
        np.matmul(laplacian, T, out=level[:, -1])
        # E: rows (window, m, i) of the A_b side by side against Z_b^T's rows
        rows = level[:, 1:-1].transpose(0, 2, 3, 1, 4).reshape(W * M * N, B * N)
        level[:, -1] += np.dot(rows, transposed).reshape(W, M, N, N)
        del rows  # a copy of every A_b, freed before np.add copies A^T
        A = level[:, 1:]
        np.add(A, np.swapaxes(A, -1, -2), out=A)
        T = level.reshape(W, -1, N, N)
    return T


def _paired(g: np.ndarray, flat: np.ndarray) -> np.ndarray:
    """The flattened Gram matrices g paired with the columns of flat, a
    generator tensor's (N^2, D**p) matrix or its leading columns.  T is
    real (the bases are), so g's real and imaginary parts are paired with it
    apart, and T is never copied to complex."""
    coeffs = np.empty(g.shape[:-1] + (flat.shape[1],), dtype=complex)
    coeffs.real, coeffs.imag = g.real @ flat, g.imag @ flat
    return coeffs


def _form_jet(form: ProjectorForm, X: np.ndarray, T: np.ndarray, D: int, plain: int = 0) -> tuple:
    """The components of form at the point X, or at each lane of a stack:
    the form is tr(P G) for the Gram matrix G = X_R^T S X_R (R the rows it
    touches), linear in G, so component i is the pairing of G with T_i.
    Component 0 is plain evaluation of the form.  The first `plain` lanes
    are paired with T's D leading matrices only, the depth-1 tensor that
    each level copies.  Returns (their (plain, D) components or None, the
    other lanes' D**p)."""
    XR = X[..., form.rows, :]
    G = np.swapaxes(XR, -1, -2) @ (form.weight_array @ XR)
    N = X.shape[-1]
    g, flat = G.reshape(X.shape[:-2] + (N * N,)), T.reshape(len(T), N * N).T
    # not the first D columns of the whole pairing: a wider product may
    # take another BLAS kernel and round them otherwise
    head = _paired(g[:plain], flat[:, :D]) if plain else None
    rest = _paired(g[plain:], flat)
    values = evaluate(form, X)
    if plain:
        head[:, 0], values = values[:plain], values[plain:]
    rest[..., 0] = values
    return head, rest


def _form_jets(forms, X: np.ndarray, basis: np.ndarray, p: int, plain: int = 0) -> tuple[dict, dict]:
    """The LaplacianJet of each ProjectorForm, keyed by node identity, from
    one generator tensor per group of their distinct windows: as many
    windows as MAX_LIFT_COMPONENTS holds (at least one), each group's forms
    paired before the next group is built.  Returns (the depth-1 jets at the
    first `plain` lanes of the stack X, the depth-p jets at the rest or at
    the one point X), each form paired once for both."""
    windows = list(dict.fromkeys(form.columns for form in forms))
    N, B = X.shape[-1], len(basis)
    step = max(1, MAX_LIFT_COMPONENTS // (N * N * (B + 2) ** p))
    plain_jets, jets = {}, {}
    for start in range(0, len(windows), step):
        group = windows[start : start + step]
        tensors = dict(zip(group, _generator_tensor(basis, group, N, p)))
        for form in forms:
            if form.columns in tensors:
                head, rest = _form_jet(form, X, tensors[form.columns], B + 2, plain)
                if plain:
                    plain_jets[id(form)] = LaplacianJet(B, 1, head)
                jets[id(form)] = LaplacianJet(B, p, rest)
    return plain_jets, jets


def _tree_jet(f, X: np.ndarray, basis: np.ndarray, p: int, known: dict) -> LaplacianJet:
    """f's depth-p jet at the point X, or at each lane of a stack, from the
    jets of its projector forms in `known`, which the walk consumes; matrix
    entries are lifted only for a tree with Entry leaves."""
    N, lanes, B = X.shape[-1], X.shape[:-2], len(basis)
    rows = None
    if any(isinstance(n, Entry) for n in tree_leaves(f)):
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
    known = _form_jets([n for n in tree_leaves(f) if isinstance(n, ProjectorForm)], X, basis, p)[1]
    return _tree_jet(f, X, basis, p, known)


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


def _identity_residuals(points: np.ndarray, basis: np.ndarray, planes) -> tuple:
    """Residual maxima, normalised by 1 + |expected|, of the closed forms for
    the Laplacian and the gradient pairing of an N x N grid of functions:
    (tau, kappa), two arrays of one value per point of the (K, N, N) stack,
    lifted in chunks under MAX_LIFT_COMPONENTS.

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
    return r[:, 0], r[:, 1]


def coordinate_identity_residuals(points: np.ndarray, basis: np.ndarray) -> tuple:
    """Residual maxima of the closed forms for Laplacian and gradient pairing
    of the matrix-entry coordinates on SO(N), at each point of a stack (see
    _identity_residuals).

    Expected: laplacian(x_{ja}) = -(N-1)/2 * x_{ja} and
    pairing(x_{ja}, x_{kb}) = -(x_{jb} x_{ka} - delta_{jk} delta_{ab}) / 2.
    """

    def planes(X):
        N = X.shape[-1]
        XT = np.swapaxes(X, -1, -2)

        def kappa_expected(lanes, rows):
            # axes (point, j, a, k, b); delta_jk delta_ab is the k = j, b = a diagonal
            expected = X[lanes, rows, None, None, :] * XT[lanes, None, :, :, None]
            np.einsum("pjaja->pja", expected[:, :, :, rows])[...] -= 1.0
            expected *= -0.5
            return expected

        lifted = _lift(X, basis, 1)
        return lifted[:, -1], -(N - 1) / 2.0 * X, lifted[:, 1:-1], kappa_expected

    return _identity_residuals(points, basis, planes)


def projector_identity_residuals(points: np.ndarray, m: int, basis: np.ndarray) -> tuple:
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
        T = _generator_tensor(basis, [range(1, m + 1)], N, 1)[0]
        lifted = X[:, None] @ T @ np.swapaxes(X, -1, -2)[:, None]
        return lifted[:, -1], -N * S + m * eye, lifted[:, 1:-1], kappa_expected

    return _identity_residuals(points, basis, planes)


# -- checkers --------------------------------------------------------------------


def _eigen_residuals(jets: np.ndarray, lam, mu) -> tuple:
    """(tau, kappa) from the (K, D) depth-1 jets of one function."""
    v, grads, t = jets[:, 0], jets[:, 1:-1], jets[:, -1]
    k = np.einsum("kb,kb->k", grads, grads)
    denom = 1.0 + np.abs(v) + np.abs(v) ** 2
    return np.abs(t - complex(lam) * v) / denom, np.abs(k - complex(mu) * v * v) / denom


def eigen_jets(f, points: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """f's depth-1 jets at each point of the stack, a (K, ..., D) array, from
    one walk per chunk of points: what check_eigenfunction and
    check_eigenfamily read.  A branch cut raises a BranchCutError naming the
    failing points by their index."""
    return _jets_at(f, points, basis, 1)[0]


def check_eigenfunction(jets: np.ndarray, lam, mu) -> tuple:
    """Residuals of laplacian(f) = lam f and pairing(f, f) = mu f^2 at each
    of K points, and f's values there: (tau, kappa, values), read from f's
    (K, D) depth-1 jets (eigen_jets', or p_harmonic_residuals' of its plain
    points).  The values are component 0, bit for bit what values_at gives.

    Residuals are normalized by 1 + |f| + |f|^2 to mix absolute and relative
    control across the scales the two identities live on.
    """
    return (*_eigen_residuals(jets, lam, mu), jets[:, 0].copy())


def check_eigenfamily(jets: np.ndarray, lam, mu) -> list[tuple]:
    """check_eigenfunction's (tau, kappa) for each member of a family, in
    order, read from the family Stack's (K, t, D) depth-1 jets."""
    return [_eigen_residuals(np.ascontiguousarray(jets[:, k]), lam, mu) for k in range(jets.shape[1])]


def _moved_changes(f, groups) -> list:
    """|f(x_i k_ij) - f(x_i)| / (1 + |f(x_i)|), shape (K, T), for each
    (X, ks) of groups, the (K, T, N, N) actions ks on the (K, N, N) points X,
    from one evaluation of every group's points and then moved copies.

    The evaluation stops at the first node where some lane hits the cut,
    and the BranchCutError names the lanes failing there that belong to the
    first group with any, as points by their index in that group's X.  A
    cut no lane is named for (a value shared by every lane) is raised as it
    came."""
    stacks, spans, start = [], [], 0
    for X, ks in groups:
        K, T = ks.shape[:2]
        stacks += [X, (X[:, None] @ ks).reshape(K * T, *X.shape[1:])]
        spans.append((start, K, T))
        start += K + K * T
    try:
        values = values_at(f, np.concatenate(stacks))
    except BranchCutError as exc:
        for start, K, T in spans:
            lanes = [lane - start for lane in exc.lanes if start <= lane < start + K + K * T]
            if lanes:
                raise BranchCutError(exc.reason, sorted({i if i < K else (i - K) // T for i in lanes})) from None
        raise
    changes = []
    for start, K, T in spans:
        v = values[start : start + K, None]
        changes.append(np.abs(values[start + K : start + K + K * T].reshape(K, T) - v) / (1.0 + np.abs(v)))
    return changes


def _invariance_group(subgroup_sampler, points: np.ndarray, seed: int) -> tuple:
    """(points, INVARIANCE_TRIALS subgroup elements each), the elements drawn
    as one stack from seeds seed + 10000, ...: the same for every point."""
    ks = subgroup_sampler(range(seed + 10_000, seed + 10_000 + INVARIANCE_TRIALS))
    return points, np.broadcast_to(ks, (len(points),) + ks.shape)


def check_invariance(
    f,
    subgroup_sampler: Callable[[Sequence[int]], np.ndarray],
    points: np.ndarray,
    seed: int = 0,
) -> np.ndarray:
    """The worst normalized change of f(x k) against f(x) at each point, over
    INVARIANCE_TRIALS sampled subgroup elements k, drawn as one stack from
    seeds seed + 10000, ....  non_descent_witness makes this check in its
    own evaluation."""
    return _moved_changes(f, [_invariance_group(subgroup_sampler, points, seed)])[0].max(axis=1)


def non_descent_witness(
    f,
    merged_sampler: Callable[[Sequence[int]], np.ndarray],
    points: np.ndarray,
    invariance: tuple,
    seed: int = 0,
) -> tuple:
    """The pair (check_invariance(f, subgroup_sampler, stack, seed), the
    witness) for invariance = (subgroup_sampler, stack), from one values_at
    call.  The witness is the largest normalized change of f under
    WITNESS_TRIALS sampled merged-subgroup actions per point of `points`: a
    visible change witnesses that f does not descend through the merged
    quotient.  Trial j of point i uses seed seed + 20000 + i WITNESS_TRIALS
    + j; all are drawn as one stack.

    A BranchCutError names points of `stack` when any of them fail at the
    node where the evaluation stopped, else points of `points`, each by
    their index in its own stack (see _moved_changes).
    """
    start = seed + 20_000
    ks = merged_sampler(range(start, start + len(points) * WITNESS_TRIALS))
    witness = (points, ks.reshape(len(points), WITNESS_TRIALS, *points.shape[1:]))
    worst, changes = _moved_changes(f, [_invariance_group(*invariance, seed), witness])
    return worst.max(axis=1), float(changes.max())


class SamplingExhausted(RuntimeError):
    """Enough well-conditioned sample points could not be found."""


def _median(values: np.ndarray) -> float:
    """The median of a nonempty array of finite values, taken by sorting: the
    middle value of an odd count, the mean of the two middle values of an
    even one (bit for bit what np.median returns for them)."""
    # not np.median: its NaN check imports numpy.ma, 10-20 ms and 0.7 MB a process
    ordered = np.sort(values)
    half = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[half])
    return float((ordered[half - 1] + ordered[half]) / 2)


def first_batch_seeds(count: int, seed: int) -> range:
    """The seeds of conditioned_sample's first batch of candidates for
    `count` points: max(2 count, 20) of them, from `seed` on."""
    return range(seed, seed + max(2 * count, 20))


def conditioned_sample(
    f,
    sampler: Callable[[Sequence[int]], np.ndarray],
    count: int,
    seed: int,
    first: np.ndarray | None = None,
) -> tuple[np.ndarray, int]:
    """Draw points where every value of the tree f is numerically
    trustworthy: its one value, or each member's of a block family (a Stack).

    A point qualifies when each of its values keeps clear of the branch cut
    (CUT_ANGLE), lies within [ABS_FLOOR, ABS_CEIL], and its magnitude reaches
    FLOOR_RATIO times the median, taken by sorting (_median), of the first
    batch's smallest usable magnitudes, one per point whose values all stay in
    the window.  Deterministic for a fixed seed:
    ``sampler`` maps a sequence of seeds to the stack of their points, and
    candidate i is the point of seed + i.  The first batch is the stack of
    first_batch_seeds(count, seed); a caller that has drawn it already
    passes it as ``first``, and it is not drawn again.  Returns the accepted
    points, as one (count, N, N) stack, and the total number of draws.
    """
    if count < 1:
        raise ValueError("need count >= 1")

    def smallest_safe_values(X: np.ndarray) -> tuple[np.ndarray, list]:
        """Per point, the smallest magnitude of f's values, or nan where a
        value leaves the window; and per bound (ABS_FLOOR, ABS_CEIL, CUT_ANGLE
        of the cut) which points have a value past it.  One stacked
        evaluation, one column per value."""
        v = values_at(f, X).reshape(len(X), -1)
        mag = np.abs(v)
        bounds = (mag < ABS_FLOOR, mag > ABS_CEIL, np.pi - np.abs(np.angle(v)) < CUT_ANGLE)
        misses = [miss.any(axis=1) for miss in bounds]
        # a nan magnitude misses no bound, and the row minimum keeps it nan
        return np.where(misses[0] | misses[1] | misses[2], np.nan, mag.min(axis=1)), misses

    seeds = first_batch_seeds(count, seed)
    batch_size = len(seeds)
    if first is None:
        first = sampler(seeds)
    elif len(first) != batch_size:
        raise ValueError(f"the first batch holds {batch_size} points, got {len(first)}")
    limit = 60 * count + batch_size
    draws = batch_size
    mags, misses = smallest_safe_values(first)
    safe = ~np.isnan(mags)
    if not safe.any():
        below, above, cut = (int(np.sum(miss)) for miss in misses)
        raise SamplingExhausted(
            f"every one of {batch_size} candidate points left the window of values: "
            f"{below} below the magnitude window [{ABS_FLOOR:g}, {ABS_CEIL:g}], {above} above it, "
            f"{cut} within {CUT_ANGLE:g} rad of the branch cut"
        )
    floor = FLOOR_RATIO * _median(mags[safe])

    accepted = [first[mags >= floor]]
    kept = len(accepted[0])
    while kept < count and draws < limit:
        # never more draws than acceptances still needed, so the draw count
        # is the one a point-by-point loop stopping at `count` makes
        size = min(count - kept, limit - draws)
        batch = sampler(range(seed + draws, seed + draws + size))
        draws += size
        accepted.append(batch[smallest_safe_values(batch)[0] >= floor])
        kept += len(accepted[-1])
    if kept < count:
        raise SamplingExhausted(
            f"only {kept}/{count} conditioned samples after {draws} draws"
        )
    return np.concatenate(accepted)[:count], draws


def p_harmonic_residuals(f, p: int, points: np.ndarray, basis: np.ndarray, eigen=None, plain=None):
    """Normalized order-p residual and order-(p-1) witness.

    Returns (|L^p f| / (1 + |f| + |L^(p-1) f|), |L^(p-1) f| / (1 + |f|)) as
    two arrays of one value per point of the (K, N, N) stack, walked
    together in chunks.  f, L^(p-1) f and L^p f are components (0, ..., 0),
    (D-1, ..., D-1, 0) and (D-1, ..., D-1) of one depth-p jet.  A branch cut
    raises a BranchCutError naming the failing points by their index.

    Given an eigen check's points as the stack `plain` and its function
    `eigen` (a form or a Stack of forms of f), they ride the same walks
    (see _jets_at), and eigen's depth-1 jets there come third, bit for bit
    those eigen_jets gives.  An empty stack of points gives empty residual
    arrays, and the plain points are then walked alone.
    """
    if not 1 <= p <= DEPTH_CAP:
        raise ValueError(f"need 1 <= p <= {DEPTH_CAP}, got {p}")
    D = len(basis) + 2
    components = [0, D**p - D, D**p - 1]
    jets, plain_jets = _jets_at(f, points, basis, p, components, eigen, plain)
    v, prev, top = np.abs(jets).reshape(-1, 3).T
    residuals = top / (1.0 + v + prev), prev / (1.0 + v)
    return residuals if plain is None else (*residuals, plain_jets)
