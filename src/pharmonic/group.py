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
shared state.  One seed gives one N x N matrix, a sequence of K seeds a
(K, N, N) stack, and sample_block_diagonal given (blocks, seed) requests on
one N gives each request's points from one pass, lane k always the point
of seed k alone.  A pass draws each lane from np.random.default_rng(seed)'s
PCG64 stream, one generator alive at a time, seeded from words one numpy
pass of SeedSequence's hash gives a slab of up to HAAR_SLAB lanes
(_seed_words; a slab holding a seed outside [0, 2^64) goes through
SeedSequence itself); then it factors the blocks of each size, over all
lanes and requests, in one QR call and checks all lanes in one call.  QR,
sign fix and det act matrix by matrix, so no lane depends on the others.
numpy.random is imported at the first draw.

The exponential of a boost is read from the SVD of its off-diagonal block
(the Cartan decomposition of the symmetric pair; Higham, Functions of
Matrices, 2008), in numpy alone: no module of the package imports scipy.
"""

from __future__ import annotations

import functools
import itertools
from typing import Sequence

import numpy as np

from .jets import JetScalar, shape_of, zero

POINT_TOL = 1e-10

# Lanes per QR call in _haar_orthogonal and per hash pass in _lane_draws.
# QR, sign fix and det hold about 3.5 times the stack they work on; each
# matrix is factored on its own, so a slab's Q equals the whole stack's bit
# for bit.  On the (20000, 2, 2) normals of sample_so(2, range(20_000))
# (tracemalloc, numpy 2.4, 2-core x86-64 VM) the peak is 2.31 MB at once and
# 0.94 MB in slabs of 2,048, in about the same time; slabs of 1,024 and 256
# take 11% and 30% longer.  A draw of one slab or less, as every draw of the
# benchmark (at most 65 lanes), takes the whole-stack path.  Seeding one
# slab of seeds above 2^40 peaks at 0.43 MB.
HAAR_SLAB = 2048


def minkowski_form(m: int, n: int) -> np.ndarray:
    return np.diag(np.concatenate([np.ones(m), -np.ones(n)]))


def validate_group_point(x: np.ndarray, signature: tuple, lane_name="lane {}".format) -> None:
    """Raise ValueError if the matrix x fails the defining relations of the
    group named by signature to POINT_TOL; for a (K, N, N) stack, all K are
    checked at once and the message names the first failing lane k as
    lane_name(k)."""
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
    defect = gram @ stack
    defect -= form
    defect = np.max(np.abs(defect, out=defect), axis=(-2, -1))
    det = np.linalg.det(stack)
    bad = np.flatnonzero(~(defect <= POINT_TOL) | ~(np.abs(det - 1.0) <= max(POINT_TOL, 1e-9)))
    if not bad.size:
        return
    k = bad[0]
    where = f"{lane_name(k)}: " if x.ndim == 3 else ""
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


class _SeedWords:
    """The seeding words of one seed, handed to PCG64 in place of the
    SeedSequence that would compute them: PCG64 asks for exactly
    ``generate_state(4, np.uint64)``, and gets these (4,) uint64 words."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
        return self.words


@functools.cache
def _seed_hash_constants() -> tuple[np.ndarray, ...]:
    """The constants of SeedSequence's hash calls, as read-only uint32 arrays.

    Each call xors its word with the current constant, steps the constant
    (times a fixed multiplier, mod 2^32) and multiplies by the new one, so
    the constants are two fixed chains, a for mix_entropy's 16 calls and b
    for generate_state's 8.  Returns the (xor, multiply) constants of the
    entropy calls (4,), of the mixing calls as (4, 4) tables (call 4 + 3 s
    + i hashes pool word s for its i-th other word d; the diagonal, whose
    result is discarded, holds another call's) and of generate_state's
    calls as (2, 4) tables, the pool read twice.
    """

    def chain(h: int, mult: int, calls: int) -> np.ndarray:
        out = [h]
        for _ in range(calls):
            h = h * mult & 0xFFFFFFFF
            out.append(h)
        return np.array(out, np.uint32)

    a = chain(0x43B0D7E5, 0x931E8875, 16)
    b = chain(0x8B51F9DD, 0x58F38DED, 8)
    calls = [[3 + 3 * s + d + (d < s) for d in range(4)] for s in range(4)]
    tables = (a[:4], a[1:5], a[calls], a[1:][calls], b[:8].reshape(2, 4), b[1:].reshape(2, 4))
    for table in tables:
        table.flags.writeable = False
    return tables


def _seed_words(seeds: Sequence[int]) -> np.ndarray:
    """The (K, 4) uint64 words ``np.random.SeedSequence(s).generate_state(4,
    np.uint64)`` gives for each integer 0 <= s < 2^64, all lanes at once.

    This is SeedSequence's hash (O'Neill's seed_seq_fe, as NumPy's NEP 19
    fixes it) with a pool of four uint32 words, taken in numpy's order on a
    (K, 4) uint32 array: mix_entropy hashes the seed's 32-bit words, low
    word first and padded with zeros (a shorter entropy array hashes a 0
    for each missing word, so every seed below 2^64 reads as two words),
    into the pool, then mixes each pool word s into every other; the
    mixing of one s is one array step over the other three words, as they
    do not depend on each other.  generate_state hashes the pool, read
    twice, into eight uint32 words, paired little end first into four
    uint64 words.  uint32 arithmetic wraps mod 2^32 as the C code's does.
    Each seed is split into its 32-bit words as a Python int, so no seed
    passes through a fixed-width integer.
    """
    entry_xor, entry_mul, mix_xor, mix_mul, state_xor, state_mul = _seed_hash_constants()
    pool = np.array([(s & 0xFFFFFFFF, s >> 32, 0, 0) for s in seeds], np.uint32)
    pool ^= entry_xor
    pool *= entry_mul
    pool ^= pool >> 16
    for s in range(4):
        hashed = pool[:, s, None] ^ mix_xor[s]
        hashed *= mix_mul[s]
        hashed ^= hashed >> 16
        # mix(x, y) = (0xCA01F9DD x - 0x4973F715 y) xor-shifted by 16, on
        # every word; word s itself is then put back
        hashed *= np.uint32(0x4973F715)
        mixed = pool * np.uint32(0xCA01F9DD)
        mixed -= hashed
        mixed ^= mixed >> 16
        mixed[:, s] = pool[:, s]
        pool = mixed
    state = pool[:, None, :] ^ state_xor
    state *= state_mul
    state ^= state >> 16
    return state.reshape(-1, 8).astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


def _generators(seeds: Sequence):
    """One generator per seed, made as it is needed: default_rng(seed)'s
    stream, seeded from _seed_words when every seed is an integer in
    [0, 2^64), else by _rng (SeedSequence itself, and its errors)."""
    ints = [int(s) for s in seeds if isinstance(s, (int, np.integer))]
    if len(ints) < len(seeds) or min(ints) < 0 or max(ints) >= 1 << 64:
        return map(_rng, seeds)
    np.random.bit_generator.ISeedSequence.register(_SeedWords)
    return (np.random.Generator(np.random.PCG64(_SeedWords(w))) for w in _seed_words(ints))


def _lanes(seed) -> Sequence:
    """A request's seeds: one seed is a sequence of one."""
    seeds = [seed] if np.ndim(seed) == 0 else seed
    if not len(seeds):
        raise ValueError("need at least one seed")
    return seeds


def _lane_draws(requests, coefficients: int = 0, radius: float = 0.0) -> list[tuple[np.ndarray, np.ndarray]]:
    """Every lane's random numbers, one generator alive at a time.

    For each seed of each (sizes, seed) request in turn, that seed's
    generator draws the Gaussian entries of every block of size b > 1, in
    block order, in one standard_normal call, then ``coefficients`` uniforms
    in [-radius, radius].  Returns each request's (K, sum b^2) normals and
    (K, coefficients) uniforms.  The generators are seeded a slab of
    HAAR_SLAB seeds at a time, across requests (_generators).
    """
    lanes = [_lanes(seed) for _, seed in requests]
    draws = [
        (np.empty((len(seeds), sum(b * b for b in sizes if b > 1))), np.empty((len(seeds), coefficients)))
        for (sizes, _), seeds in zip(requests, lanes)
    ]
    rows = ((normals[k], uniforms[k]) for normals, uniforms in draws for k in range(len(normals)))
    seeds = itertools.chain.from_iterable(lanes)
    while slab := list(itertools.islice(seeds, HAAR_SLAB)):
        for rng, (normals, uniforms) in zip(_generators(slab), rows):
            rng.standard_normal(out=normals)
            if coefficients:
                uniforms[:] = rng.uniform(-radius, radius, size=coefficients)
    return draws


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


def _block_stack(requests, normals: Sequence[np.ndarray]) -> np.ndarray:
    """The (L, N, N) block-diagonal points of all lanes of the requests, in
    order, from their normals: one _haar_orthogonal call per block size
    b > 1; a size-1 block is 1 (SO(1) = {1})."""
    N = sum(requests[0][0])
    x = np.zeros((sum(map(len, normals)), N, N))
    gaussians = {}  # b: (lanes, first row, (K, b, b) normals) per block
    lane = 0
    for (blocks, _), draws in zip(requests, normals):
        lanes, column, row = slice(lane, lane + len(draws)), 0, 0
        for b in blocks:
            if b == 1:
                x[lanes, row, row] = 1.0
            else:
                block = draws[:, column : column + b * b].reshape(-1, b, b)
                gaussians.setdefault(b, []).append((lanes, row, block))
                column += b * b
            row += b
        lane += len(draws)
    for b, places in gaussians.items():
        q = _haar_orthogonal(places[0][2] if len(places) == 1 else np.concatenate([g for *_, g in places]))
        for lanes, row, g in places:
            x[lanes, row : row + b, row : row + b], q = q[: len(g)], q[len(g) :]
    return x


def _sampled(x: np.ndarray, signature: tuple, requests) -> list[np.ndarray]:
    """Each request's points, split off the (L, N, N) stack x of all their
    lanes after one validate_group_point call, which names a failing lane
    by its request, lane and seed."""
    lanes = [_lanes(seed) for _, seed in requests]

    def lane_name(k: int) -> str:
        for r, seeds in enumerate(lanes):
            if k < len(seeds):
                return f"{f'request {r}, ' if len(lanes) > 1 else ''}lane {k} (seed {seeds[k]})"
            k -= len(seeds)

    validate_group_point(x, signature, lane_name)
    points, start = [], 0
    for (_, seed), seeds in zip(requests, lanes):
        points.append(x[start : start + len(seeds)] if np.ndim(seed) else x[start])
        start += len(seeds)
    return points


def sample_so(N: int, seed) -> np.ndarray:
    """Seeded random element of SO(N), one N x N matrix; a sequence of K
    seeds gives a (K, N, N) stack, lane k equal to the point of seed k."""
    return sample_block_diagonal((N,), seed)


def sample_block_diagonal(blocks, seed=None):
    """Seeded block-diagonal element of SO(n1) x ... x SO(nt) inside SO(N);
    a sequence of seeds gives a stack, as in sample_so.

    With no seed, blocks is a sequence of (blocks, seed) requests on one N,
    and the list of their points, each equal to its request's own call, is
    returned from one pass (see the module docstring).
    """
    requests = list(blocks) if seed is None else [(blocks, seed)]
    if not requests or len({sum(blocks) for blocks, _ in requests}) > 1:
        raise ValueError("need requests that partition one N")
    if any(not blocks or min(blocks) < 1 for blocks, _ in requests):
        raise ValueError("block sizes must be positive")
    x = _block_stack(requests, [normals for normals, _ in _lane_draws(requests)])
    points = _sampled(x, ("compact", x.shape[-1]), requests)
    return points if seed is None else points[0]


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
    requests = [((m, n), seed)]
    [(normals, coeffs)] = _lane_draws(requests, m * n, radius)
    C = coeffs.reshape(-1, m, n) / np.sqrt(2.0)
    return _sampled(_block_stack(requests, [normals]) @ _boost_exp(C), ("indefinite", m, n), requests)[0]


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
