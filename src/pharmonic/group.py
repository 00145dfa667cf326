"""Rotation groups, their indefinite-signature duals, and Lie-algebra bases.

Points are plain numpy arrays: one N x N matrix, or a (K, N, N) stack of K
elements of one group.  A signature names the group whose relations
validate_group_point checks: ``("compact", N)`` for SO(N) and
``("indefinite", m, n)`` for the identity component of the
pseudo-orthogonal group preserving diag(I_m, -I_n).

A basis of the Lie algebra is a plain (B, N, N) float array, one direction
per matrix.  Bases are orthonormal for the trace form g(X, Y) = -tr(XY) on
skew-symmetric (compact) directions and g(X, Y) = +tr(XY) on the symmetric
boost directions of the indefinite form.
This normalization is the one under which the coordinate Laplacian on SO(N)
has eigenvalue -(N - 1)/2 on matrix entries; the calibration tests pin it.

Sampling takes an explicit integer seed and is deterministic, so
verification runs over disjoint seeds can proceed concurrently without any
shared state.  A sampler given a sequence of K seeds returns the K points
as one (K, N, N) stack, each lane drawn from its own seed's generator in
the one-seed draw order, one generator alive at a time; the QR
factorisations, sign fixes, exponentials and group-relation checks then
run once per stack.  One seed is the K = 1 case, returned as its one
N x N matrix.

The exponential of a boost is read from the SVD of its off-diagonal block
(the Cartan decomposition of the symmetric pair; Higham, Functions of
Matrices, 2008), in numpy alone: no module of the package imports scipy.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .jets import JetScalar, shape_of, zero

POINT_TOL = 1e-10

# Lanes per QR in _haar_orthogonal.  QR, sign fix and det hold about 3.5
# times the stack they work on, so the stack is taken in slabs of this many
# lanes; each matrix is factored on its own, so a slab's Q equals, bit for
# bit, the whole stack's.  Measured with tracemalloc on the (20000, 2, 2)
# normals of sample_so(2, range(20_000)), numpy 2.4 on a 2-core x86-64 VM:
# the peak is 2.31 MB for the whole stack at once and 0.94 MB in slabs of
# 2,048, in about the same time (10.3 against 10.2 ms); 0.79 MB at 1,024 and
# 0.68 MB at 256 take 11% and 30% longer.  A stack of one slab or less takes
# the whole-stack path, so the benchmark's stacks (at most 40 lanes) pay
# nothing for the slabs.
HAAR_SLAB = 2048


def minkowski_form(m: int, n: int) -> np.ndarray:
    return np.diag(np.concatenate([np.ones(m), -np.ones(n)]))


def validate_group_point(x: np.ndarray, signature: tuple) -> None:
    """Raise ValueError if the matrix x fails the defining relations of the
    group named by signature to POINT_TOL; for a (K, N, N) stack, all K are
    checked at once and the message names the first failing lane."""
    stack = x.reshape(-1, *x.shape[-2:])
    kind = signature[0]
    gram = np.swapaxes(stack, -1, -2)
    if kind == "compact":
        form = np.eye(x.shape[-1])
    elif kind == "indefinite":
        _, m, n = signature
        form = minkowski_form(m, n)
        gram = gram @ form
    else:
        raise ValueError(f"unknown signature {signature!r}")
    defect = np.max(np.abs(gram @ stack - form), axis=(-2, -1))
    det = np.linalg.det(stack)
    bad = np.flatnonzero(~(defect <= POINT_TOL) | ~(np.abs(det - 1.0) <= max(POINT_TOL, 1e-9)))
    if not bad.size:
        return
    k = bad[0]
    where = f"lane {k}: " if x.ndim == 3 else ""
    if not defect[k] <= POINT_TOL:
        raise ValueError(f"{where}matrix violates {kind} relation by {defect[k]:.3e}")
    raise ValueError(f"{where}determinant {det[k]!r} is not 1")


# -- Lie-algebra bases -------------------------------------------------------


def _unit(N: int, r: int, s: int, sign: float) -> np.ndarray:
    """(E_rs + sign E_sr)/sqrt(2): skew for sign -1, symmetric for +1."""
    mat = np.zeros((N, N))
    mat[r - 1, s - 1] = 1.0 / np.sqrt(2.0)
    mat[s - 1, r - 1] = sign / np.sqrt(2.0)
    return mat


def so_basis(N: int) -> np.ndarray:
    """Orthonormal basis of so(N): (E_rs - E_sr)/sqrt(2) for r < s, in
    row-major order of (r, s)."""
    if N < 2:
        raise ValueError("need N >= 2")
    return np.array([_unit(N, r, s, -1.0) for r in range(1, N + 1) for s in range(r + 1, N + 1)])


def m_basis(m: int, n: int, kind: str = "compact") -> np.ndarray:
    """Orthonormal complement of the block-diagonal subalgebra, one direction
    per pair (j, a), j <= m < a, in row-major order.

    Compact: skew off-block directions of so(m+n).  Indefinite: symmetric
    boost directions of the pseudo-orthogonal algebra, orthonormal for
    +tr(XY).
    """
    if m < 1 or n < 1:
        raise ValueError("need m, n >= 1")
    N = m + n
    signs = {"compact": -1.0, "indefinite": 1.0}
    if kind not in signs:
        raise ValueError(f"unknown kind {kind!r}")
    return np.array([_unit(N, j, a, signs[kind]) for j in range(1, m + 1) for a in range(m + 1, N + 1)])


# -- sampling -----------------------------------------------------------------


def _rng(seed) -> np.random.Generator:
    """The stream np.random.default_rng(seed) gives, built without its
    argument dispatch."""
    return np.random.Generator(np.random.PCG64(seed))


def _lane_draws(seed, sizes: Sequence[int], coefficients: int = 0, radius: float = 0.0):
    """Every lane's random numbers, one generator alive at a time.

    For each seed of a single seed or a sequence, that seed's generator
    draws the Gaussian entries of every block of size b > 1, in block
    order, in one standard_normal call, then ``coefficients`` uniforms in
    [-radius, radius].  Returns the (K, sum b^2) normals and the
    (K, coefficients) uniforms, lane k from seed k.
    """
    seeds = [seed] if np.ndim(seed) == 0 else seed
    if not len(seeds):
        raise ValueError("need at least one seed")
    normals = np.empty((len(seeds), sum(b * b for b in sizes if b > 1)))
    uniforms = np.empty((len(seeds), coefficients))
    for lane, s in enumerate(seeds):
        rng = _rng(s)
        rng.standard_normal(out=normals[lane])
        if coefficients:
            uniforms[lane] = rng.uniform(-radius, radius, size=coefficients)
    return normals, uniforms


def _haar_orthogonal(normals: np.ndarray) -> np.ndarray:
    """Special-orthogonal matrices from a (K, n, n) stack of Gaussian ones,
    Haar-distributed up to the det correction.

    QR of each Gaussian matrix with the R-diagonal sign fix; a det of -1 is
    repaired by negating the first column.  A stack of more than HAAR_SLAB
    lanes is taken one slab at a time.
    """
    if len(normals) > HAAR_SLAB:
        Q = np.empty_like(normals)
        for start in range(0, len(normals), HAAR_SLAB):
            Q[start : start + HAAR_SLAB] = _haar_orthogonal(normals[start : start + HAAR_SLAB])
        return Q
    Q, R = np.linalg.qr(normals)
    d = np.sign(np.diagonal(R, axis1=-2, axis2=-1))
    d[d == 0] = 1.0
    Q = Q * d[:, None, :]
    flip = np.linalg.det(Q) < 0
    Q[flip, :, 0] = -Q[flip, :, 0]
    return Q


def _haar_blocks(normals: np.ndarray, sizes: Sequence[int]) -> list[np.ndarray]:
    """One (K, b, b) stack of SO(b) elements per size b, from the (K, sum b^2)
    normals of _lane_draws; a size-1 block draws nothing (SO(1) = {1})."""
    blocks, start = [], 0
    for b in sizes:
        if b == 1:
            blocks.append(np.ones((len(normals), 1, 1)))
            continue
        blocks.append(_haar_orthogonal(normals[:, start : start + b * b].reshape(-1, b, b)))
        start += b * b
    return blocks


def _sampled(x: np.ndarray, signature: tuple, seed) -> np.ndarray:
    """The validated point of one seed, or the stack x of a seed sequence."""
    point = x if np.ndim(seed) else x[0]
    validate_group_point(point, signature)
    return point


def sample_so(N: int, seed) -> np.ndarray:
    """Seeded random element of SO(N), one N x N matrix; a sequence of K
    seeds gives a (K, N, N) stack, lane k equal to the point of seed k."""
    return sample_block_diagonal((N,), seed)


def sample_block_diagonal(blocks: Sequence[int], seed) -> np.ndarray:
    """Seeded block-diagonal element of SO(n1) x ... x SO(nt) inside SO(N);
    a sequence of seeds gives a stack, as in sample_so."""
    if not blocks or any(b < 1 for b in blocks):
        raise ValueError("block sizes must be positive")
    normals, _ = _lane_draws(seed, blocks)
    N = sum(blocks)
    x = np.zeros((len(normals), N, N))
    start = 0
    for b, q in zip(blocks, _haar_blocks(normals, blocks)):
        x[:, start : start + b, start : start + b] = q
        start += b
    return _sampled(x, ("compact", N), seed)


def _boost_exp(C: np.ndarray) -> np.ndarray:
    """exp([[0, C], [C^T, 0]]) for a (K, m, n) stack of off-diagonal blocks.

    With the reduced SVD C = U S V^T, a^2 = diag(C C^T, C^T C) acts as S^2
    on the singular vectors and as 0 on the rest, so exp(a) =
    [[I + U (cosh S - I) U^T, U sinh S V^T], [V sinh S U^T, I + V (cosh S - I) V^T]];
    cosh s - 1 is taken as 2 sinh(s/2)^2, which keeps small boosts accurate
    and makes C = 0 give the identity exactly.
    """
    K, m, n = C.shape
    U, s, Vt = np.linalg.svd(C, full_matrices=False)
    V = np.swapaxes(Vt, -1, -2)
    cosh_m1 = 2.0 * np.sinh(s / 2.0) ** 2
    out = np.empty((K, m + n, m + n))
    out[:, :m, :m] = np.eye(m) + (U * cosh_m1[:, None, :]) @ np.swapaxes(U, -1, -2)
    out[:, :m, m:] = (U * np.sinh(s)[:, None, :]) @ Vt
    out[:, m:, :m] = np.swapaxes(out[:, :m, m:], -1, -2)
    out[:, m:, m:] = np.eye(n) + (V * cosh_m1[:, None, :]) @ Vt
    return out


def sample_so_mn(m: int, n: int, seed, radius: float = 0.75) -> np.ndarray:
    """Seeded element of the identity component of the indefinite group; a
    sequence of seeds gives a stack, as in sample_so.

    Constructed as k . exp(a): k block-diagonal in SO(m) x SO(n) and a a
    random combination of boost directions with coefficients uniform in
    [-radius, radius].  Membership in the identity component is therefore
    by construction.  Each seed's generator draws the SO(m) normals, then
    the SO(n) normals, then the m n coefficients, which fill the
    off-diagonal block C of a = [[0, C], [C^T, 0]] row by row (the order of
    m_basis); exp(a) comes from the SVD of C (see the module docstring).
    """
    if m < 1 or n < 1:
        raise ValueError("need m, n >= 1")
    if radius < 0:
        raise ValueError("radius must be >= 0")
    normals, coeffs = _lane_draws(seed, (m, n), m * n, radius)
    N = m + n
    k = np.zeros((len(normals), N, N))
    k[:, :m, :m], k[:, m:, m:] = _haar_blocks(normals, (m, n))
    C = coeffs.reshape(-1, m, n) / np.sqrt(2.0)
    return _sampled(k @ _boost_exp(C), ("indefinite", m, n), seed)


# -- curves -------------------------------------------------------------------


def _sparse_columns(Z: np.ndarray) -> dict[int, list[tuple[int, float]]]:
    cols: dict[int, list[tuple[int, float]]] = {}
    for k, c in zip(*np.nonzero(Z)):
        cols.setdefault(int(c), []).append((int(k), float(Z[k, c])))
    return cols


def _sparse_right_mul(X, cols, scale: float):
    """X @ (scale * Z) for a nested-tuple matrix X and sparse Z columns."""
    N = len(X)
    zero_entry = zero(shape_of(X[0][0]))
    rows = []
    for r in range(N):
        Xr = X[r]
        row = []
        for c in range(N):
            hits = cols.get(c)
            if not hits:
                row.append(zero_entry)
                continue
            acc = None
            for k, v in hits:
                term = Xr[k] * (v * scale)
                acc = term if acc is None else acc + term
            row.append(acc)
        rows.append(tuple(row))
    return tuple(rows)


# Kept for the nested-jet cross-oracle tests and for bench/tracing.py, which
# wraps operators.curve_jets; no CLI command calls it.
def curve_jets(entries, Z: np.ndarray, order: int = 2):
    """Jet-valued matrix of x . exp(eps Z) truncated at the given order, for
    an N x N direction matrix Z.

    Coefficient i of entry (r, c) is (x Z^i / i!)[r, c].  ``entries`` is a
    nested tuple of scalars of one common shape, or a numpy matrix, whose
    entries are read as complex numbers; jets are stacked with the new
    curve parameter outermost.
    """
    if isinstance(entries, np.ndarray):
        entries = entries.astype(complex).tolist()
    cols = _sparse_columns(Z)
    mats = [entries]
    for i in range(1, order + 1):
        mats.append(_sparse_right_mul(mats[-1], cols, 1.0 / i))
    N = len(entries)
    return tuple(
        tuple(JetScalar(order, tuple(m[r][c] for m in mats)) for c in range(N))
        for r in range(N)
    )
