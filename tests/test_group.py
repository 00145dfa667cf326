import tracemalloc

import numpy as np
import pytest
from scipy.linalg import block_diag, expm

from pharmonic.cli import MAX_BOOST_NORM
from pharmonic.group import (
    _boost_exp,
    curve_jets,
    m_basis,
    minkowski_form,
    sample_block_diagonal,
    sample_so,
    sample_so_mn,
    so_basis,
    validate_group_point,
)
from pharmonic import group
from pharmonic.jets import JetScalar, variable
from oracles import k_basis, series_curve_point


def gram_matrix(basis, sign=-1):
    """Gram matrix sign * tr(Z_i Z_j) of a (B, N, N) basis under the signed
    trace form: -1 for skew directions, +1 for symmetric boosts."""
    return sign * np.einsum("iab,jba->ij", basis, basis)


# -- bases ---------------------------------------------------------------------


def test_so2_basis_single_vector():
    basis = so_basis(2)
    assert len(basis) == 1
    expected = np.array([[0, 1], [-1, 0]]) / np.sqrt(2)
    np.testing.assert_allclose(basis[0], expected)


def test_so_basis_counts_and_gram():
    for N in (3, 4, 6):
        basis = so_basis(N)
        assert len(basis) == N * (N - 1) // 2
        np.testing.assert_allclose(gram_matrix(basis), np.eye(len(basis)), atol=1e-12)


def test_unit_trace_normalization():
    for b in so_basis(4):
        assert abs(np.trace(b @ b) + 1.0) <= 1e-12


def test_skewness_and_symmetry():
    for b in so_basis(5):
        np.testing.assert_allclose(b, -b.T, atol=1e-14)
    for b in m_basis(2, 3, "indefinite"):
        np.testing.assert_allclose(b, b.T, atol=1e-14)


def test_m_basis_counts():
    assert len(m_basis(1, 1)) == 1
    assert len(m_basis(2, 3)) == 6


def test_k_basis_counts():
    assert k_basis(1, 1).shape == (0, 2, 2)
    assert len(k_basis(2, 2)) == 2
    assert len(k_basis(2, 3)) == 1 + 3


def test_k_and_m_bases_are_orthogonal_and_span():
    m, n = 2, 3
    N = m + n
    kb = k_basis(m, n)
    mb = m_basis(m, n)
    for kv in kb:
        for mv in mb:
            assert abs(np.trace(kv @ mv)) <= 1e-12
    both = np.concatenate([kb, mb])
    assert np.linalg.matrix_rank(both.reshape(len(both), -1)) == N * (N - 1) // 2
    np.testing.assert_allclose(gram_matrix(both), np.eye(len(both)), atol=1e-12)


def test_indefinite_m_basis_gram():
    basis = m_basis(2, 2, "indefinite")
    np.testing.assert_allclose(gram_matrix(basis, sign=+1), np.eye(4), atol=1e-12)


# -- sampling -------------------------------------------------------------------


def test_sample_so_invariants_and_determinism():
    x = sample_so(5, 42)
    validate_group_point(x, ("compact", 5))
    assert abs(np.linalg.det(x) - 1) <= 1e-10
    y = sample_so(5, 42)
    np.testing.assert_array_equal(x, y)
    z = sample_so(5, 43)
    assert np.max(np.abs(x - z)) > 1e-3


def test_sample_so_first_entry_second_moment():
    # Haar second moment: E[x_11^2] = 1/N.
    N, count = 3, 10_000
    vals = np.array([sample_so(N, seed)[0, 0] ** 2 for seed in range(count)])
    se = vals.std() / np.sqrt(count)
    assert abs(vals.mean() - 1.0 / N) <= 5 * se


def test_sample_so_mn_invariants():
    for seed in range(5):
        x = sample_so_mn(2, 2, seed, radius=0.75)
        validate_group_point(x, ("indefinite", 2, 2))
        eta = minkowski_form(2, 2)
        defect = np.max(np.abs(x.T @ eta @ x - eta))
        assert defect <= 1e-10


def test_sample_so_mn_radius_zero_is_block_diagonal():
    x = sample_so_mn(2, 3, 0, radius=0.0)
    np.testing.assert_allclose(x[:2, 2:], 0, atol=1e-14)
    np.testing.assert_allclose(x[2:, :2], 0, atol=1e-14)


def test_expm_matches_series_for_small_arguments():
    rng = np.random.default_rng(0)
    basis = m_basis(2, 2, "indefinite")
    a = sum(rng.uniform(-0.2, 0.2) * b for b in basis)
    series = np.zeros_like(a)
    term = np.eye(4)
    for i in range(1, 20):
        series += term
        term = term @ a / i
    assert np.max(np.abs(expm(a) - series)) <= 1e-12


def test_sample_block_diagonal():
    x = sample_block_diagonal((1, 1, 2), 9)
    validate_group_point(x, ("compact", 4))
    np.testing.assert_allclose(x[0, 1:], 0, atol=1e-14)
    assert x[0, 0] == 1.0


def _reference_haar(N, rng):
    """One SO(N) element drawn point by point: Gaussian QR with the
    R-diagonal sign fix and the det repair, nothing drawn for N = 1."""
    if N == 1:
        return np.ones((1, 1))
    Q, R = np.linalg.qr(rng.standard_normal((N, N)))
    d = np.sign(np.diag(R))
    d[d == 0] = 1.0
    Q = Q * d
    if np.linalg.det(Q) < 0:
        Q[:, 0] = -Q[:, 0]
    return Q


def _reference_boost_exp(C):
    """exp([[0, C], [C^T, 0]]) of one m x n block from its SVD C = U S V^T."""
    m, n = C.shape
    U, s, Vt = np.linalg.svd(C, full_matrices=False)
    cosh_m1 = 2.0 * np.sinh(s / 2.0) ** 2
    off = (U * np.sinh(s)) @ Vt
    return np.block(
        [
            [np.eye(m) + (U * cosh_m1) @ U.T, off],
            [off.T, np.eye(n) + (Vt.T * cosh_m1) @ Vt],
        ]
    )


def _reference_boost_draw(seed, m, n, radius):
    """k and the boost block C of one seed, drawn one number at a time."""
    rng = np.random.default_rng(seed)
    k = block_diag(_reference_haar(m, rng), _reference_haar(n, rng))
    C = np.zeros((m, n))
    for j in range(m):  # the order of m_basis: row by row
        for a in range(n):
            C[j, a] = rng.uniform(-radius, radius) / np.sqrt(2.0)
    return k, C


def _boost_matrix(C):
    m, n = C.shape
    a = np.zeros((m + n, m + n))
    a[:m, m:], a[m:, :m] = C, C.T
    return a


def _reference_point(seed, kind, shape, radius=0.75):
    """The point of one seed, built one draw at a time in the samplers' order."""
    rng = np.random.default_rng(seed)
    if kind == "so":
        return _reference_haar(shape, rng)
    if kind == "blocks":
        return block_diag(*[_reference_haar(b, rng) for b in shape])
    k, C = _reference_boost_draw(seed, *shape, radius)
    return k @ _reference_boost_exp(C)


_SAMPLERS = (
    [pytest.param(lambda s, N=N: sample_so(N, s), ("so", N), id=f"so{N}") for N in range(1, 9)]
    + [
        pytest.param(lambda s, b=b: sample_block_diagonal(b, s), ("blocks", b), id=f"blocks{b}")
        for b in ((1, 1, 2), (2, 1, 1), (2, 2))
    ]
    + [
        pytest.param(
            lambda s, m=m, n=n, r=r: sample_so_mn(m, n, s, r), ("mn", (m, n), r), id=f"mn{m}{n}r{r}"
        )
        for m, n in ((1, 2), (2, 1), (2, 2), (2, 3))
        for r in (0.0, 0.75)
    ]
)


@pytest.mark.parametrize("sampler, reference", _SAMPLERS)
def test_stacked_sampling_equals_one_seed_sampling_exactly(sampler, reference):
    for seeds in (range(40, 41), range(300, 337)):
        stack = sampler(seeds)
        assert stack.shape[0] == len(seeds)
        for lane, seed in enumerate(seeds):
            alone = sampler(seed)
            assert np.array_equal(stack[lane], alone), (seed, lane)
            # and both equal the point drawn one number at a time
            assert np.array_equal(alone, _reference_point(seed, *reference)), seed


@pytest.mark.parametrize("sampler, reference", _SAMPLERS)
def test_sampler_streams_equal_default_rng_streams_exactly(sampler, reference):
    # every lane is the point of default_rng(seed), drawn one number at a
    # time, on both sides of 2^32, 2^63 and 2^64: a stack of seeds below 2^64
    # is seeded by the array hash, a stack holding a seed of 2^64 or more
    # (the full list, the 12 lanes across 2^64) by SeedSequence itself
    seeds = [0, 9, 2**32 - 1, 2**32, 2**32 + 997, 2**63, 2**63 + 1, 2**64 - 1, 2**64 + 5]
    for stack_seeds in (seeds, seeds[:-1], range(2**64 - 6, 2**64 + 6)):
        stack = sampler(stack_seeds)
        for lane, seed in enumerate(stack_seeds):
            assert np.array_equal(stack[lane], _reference_point(seed, *reference)), seed
    for seed in seeds:
        assert np.array_equal(sampler(seed), _reference_point(seed, *reference)), seed


_MERGED_DRAWS = [
    [(4,), (1, 1, 2), (2, 1, 1), (2, 2)],
    [(7,), (3, 4), (1, 2, 4)],
    *([(m + n,), (m, n)] for m, n in ((1, 2), (2, 2), (2, 3), (3, 4))),
]


@pytest.mark.parametrize("slab", [3, group.HAAR_SLAB])
@pytest.mark.parametrize("partitions", _MERGED_DRAWS, ids=str)
def test_a_merged_draw_equals_each_request_drawn_alone(monkeypatch, partitions, slab):
    # four lanes per request, the requests' seeds straddling 2^32 and 2^64
    # inside one draw, plus a one-seed request; with slabs of 3, slab edges
    # fall inside requests and between them, and a slab can mix seeds below
    # 2^64 (hashed in one pass) with seeds above (seeded by SeedSequence)
    monkeypatch.setattr(group, "HAAR_SLAB", slab)
    starts = [2**32 - 2, 2**64 - 7, 5, 2**64 - 2]
    requests = [(b, range(starts[r % 4] + r, starts[r % 4] + r + 4)) for r, b in enumerate(partitions)]
    requests.append((partitions[-1], 2**32))
    drawn = sample_block_diagonal(requests)
    assert len(drawn) == len(requests)
    for (blocks, seeds), got in zip(requests, drawn):
        assert np.array_equal(got, sample_block_diagonal(blocks, seeds)), (blocks, seeds)
        for lane, seed in enumerate(np.atleast_1d(seeds).tolist()):
            want = _reference_point(seed, "blocks", blocks)
            assert np.array_equal(got if np.ndim(seeds) == 0 else got[lane], want), (blocks, seed)


def test_a_failed_relation_names_the_lane_and_seed_of_its_request(monkeypatch):
    haar = group._haar_orthogonal

    def corrupting(normals):  # the third matrix of every 2 x 2 QR call
        q = haar(normals)
        if q.shape[-1] == 2:
            q[2, 0, -1] += 1e-7
        return q

    monkeypatch.setattr(group, "_haar_orthogonal", corrupting)
    # the size-2 QR holds the (2, 2) request's first blocks, then its
    # second: its third matrix is lane 2 of that request, lane 5 of the draw
    with pytest.raises(ValueError, match=r"^request 1, lane 2 \(seed 202\): matrix violates compact"):
        sample_block_diagonal([((4,), range(100, 103)), ((2, 2), range(200, 205))])
    with pytest.raises(ValueError, match=r"^lane 2 \(seed 12\): matrix violates compact"):
        sample_so(2, range(10, 15))
    with pytest.raises(ValueError, match=r"^lane 2 \(seed 32\): matrix violates indefinite"):
        sample_so_mn(2, 2, range(30, 33))


def test_requests_partition_one_group():
    with pytest.raises(ValueError, match="partition one N"):
        sample_block_diagonal([((4,), 1), ((2, 3), 2)])
    with pytest.raises(ValueError, match="partition one N"):
        sample_block_diagonal([])
    with pytest.raises(ValueError, match="block sizes must be positive"):
        sample_block_diagonal([((4,), 1), ((0, 4), 2)])
    with pytest.raises(ValueError, match="need at least one seed"):
        sample_block_diagonal([((4,), 1), ((2, 2), [])])


def test_seed_words_equal_seed_sequence_words():
    fixed = np.random.default_rng(34).integers(0, 2**64, 1000, dtype=np.uint64)
    seeds = [
        *range(4096),
        *range(2**32 - 3, 2**32 + 4),
        *range(2**63 - 3, 2**63 + 4),
        *range(2**64 - 3, 2**64),
        *map(int, fixed),
    ]
    got = group._seed_words(seeds)
    want = np.array([np.random.SeedSequence(s).generate_state(4, np.uint64) for s in seeds])
    assert got.dtype == np.uint64 and got.flags.c_contiguous
    assert np.array_equal(got, want)


@pytest.mark.parametrize("count", [1, group.HAAR_SLAB - 1, group.HAAR_SLAB + 1])
def test_seed_slabs_draw_as_one_seed_generators(count):
    # the stacks start 2^64 - HAAR_SLAB, so the last lane of HAAR_SLAB + 1 is
    # a slab of its own, seed 2^64, which SeedSequence seeds
    seeds = range(2**64 - group.HAAR_SLAB, 2**64 - group.HAAR_SLAB + count)
    [(normals, uniforms)] = group._lane_draws([((2, 3), seeds)], 4, 0.5)
    assert normals.shape == (count, 13) and uniforms.shape == (count, 4)
    for lane, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        assert np.array_equal(normals[lane], rng.standard_normal(13)), seed
        assert np.array_equal(uniforms[lane], rng.uniform(-0.5, 0.5, size=4)), seed


def test_seeds_that_are_not_unsigned_64_bit_integers_fail_as_seed_sequence_does():
    for bad, error in ((-1, ValueError), (1.5, TypeError)):
        with pytest.raises(error):
            np.random.default_rng(bad)
        with pytest.raises(error):
            sample_so(3, [0, bad])
    assert np.array_equal(sample_so(3, [np.uint64(2**64 - 1), True]), sample_so(3, [2**64 - 1, 1]))


def test_sampling_keeps_one_generator_alive_at_a_time():
    # the (20000, 2, 2) stack is 0.64 MB; 20,000 live generators alone held
    # about 18 MB, and the seeding words are hashed a slab at a time
    sample_so(2, range(3))
    tracemalloc.start()
    try:
        stack = sample_so(2, range(20_000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stack.shape == (20_000, 2, 2)
    assert peak < 4e6, peak
    with pytest.raises(ValueError, match="need at least one seed"):
        sample_so(2, [])


@pytest.mark.parametrize("N", [2, 3, 5])
def test_haar_slabs_equal_the_whole_stack_qr(monkeypatch, N):
    # 50 lanes in slabs of 7, the last one short, against one QR of the
    # whole stack: each matrix is factored on its own, bit for bit
    normals = np.random.default_rng(N).standard_normal((50, N, N))
    monkeypatch.setattr(group, "HAAR_SLAB", 10**9)
    whole = group._haar_orthogonal(normals)
    monkeypatch.setattr(group, "HAAR_SLAB", 7)
    slabbed = group._haar_orthogonal(normals)
    assert np.array_equal(slabbed, whole)
    assert np.all(np.linalg.det(whole) > 0)
    for got, normal in zip(whole[:3], normals):
        Q, R = np.linalg.qr(normal)
        assert np.allclose(np.abs(got), np.abs(Q), atol=1e-14)


def _boost_radii(m, n):
    """Radii from 0 up to the largest the CLI accepts for (m, n)."""
    limit = MAX_BOOST_NORM / np.sqrt(m * n / 2)
    return limit, (0.0, 0.75, limit / 2, limit)


def _boost_blocks(m, n, radius, count=10):
    """Sampled boost blocks at one radius, plus the corner where every
    coefficient is +radius: a rank-one block whose norm is the CLI bound."""
    draws = [_reference_boost_draw(seed, m, n, radius)[1] for seed in range(count)]
    return np.stack(draws + [np.full((m, n), radius / np.sqrt(2.0))])


_BOOST_SHAPES = pytest.mark.parametrize("m, n", [(1, 2), (2, 1), (2, 2), (2, 3)])


@_BOOST_SHAPES
def test_boost_exponential_matches_scipy_expm(m, n):
    # Only up to half the CLI limit: beyond it scipy's expm (scaling and
    # squaring) itself drifts from the exact exponential by up to ~1e-11,
    # so the exact oracle below covers the rest of the range.
    limit, radii = _boost_radii(m, n)
    for radius in (r for r in radii if r <= limit / 2):
        C = _boost_blocks(m, n, radius)
        for block, got in zip(C, _boost_exp(C)):
            assert np.max(np.abs(got - expm(_boost_matrix(block)))) <= 1e-14, radius
    zero = _boost_exp(np.zeros((3, m, n)))
    assert np.array_equal(zero, np.broadcast_to(np.eye(m + n), zero.shape))
    seeds = range(5)
    points = sample_so_mn(m, n, seeds, 0.0)
    for seed, point in zip(seeds, points):
        assert np.array_equal(point, _reference_boost_draw(seed, m, n, 0.0)[0])


@_BOOST_SHAPES
def test_boost_exponential_matches_exact_exponential_up_to_the_cli_limit(m, n):
    mpmath = pytest.importorskip("mpmath")
    limit, radii = _boost_radii(m, n)
    with mpmath.workdps(40):
        for radius in radii:
            C = _boost_blocks(m, n, radius, count=4)
            for block, got in zip(C, _boost_exp(C)):
                exact = mpmath.expm(mpmath.matrix(_boost_matrix(block).tolist()))
                expected = np.array(exact.tolist(), dtype=float)
                # 1e-14 absolute while entries stay below cosh 2; beyond, where
                # they reach cosh 4 ~ 27 and exp amplifies a rounding of its
                # argument about ||a|| = 4 times, 2e-15 relative (~9 ulps)
                bound = 1e-14 if radius <= limit / 2 else 2e-15 * np.max(np.abs(expected))
                assert np.max(np.abs(got - expected)) <= bound, radius


def test_validation_names_the_corrupted_lane():
    for stack, signature, lane in (
        (sample_so(4, range(10)), ("compact", 4), 6),
        (sample_so_mn(2, 2, range(5), 0.5), ("indefinite", 2, 2), 3),
    ):
        validate_group_point(stack, signature)
        stack[lane, 1, 2] += 1e-7
        with pytest.raises(ValueError, match=f"^lane {lane}: matrix violates"):
            validate_group_point(stack, signature)
    flipped = sample_so(3, range(4))
    flipped[2, :, 0] *= -1  # orthogonal, but det = -1
    with pytest.raises(ValueError, match="^lane 2: determinant"):
        validate_group_point(flipped, ("compact", 3))
    one = sample_so(3, 5)
    one[0, 0] += 1e-7
    with pytest.raises(ValueError, match="^matrix violates compact relation"):
        validate_group_point(one, ("compact", 3))


def test_sampler_needs_a_seed():
    with pytest.raises(ValueError):
        sample_so(3, [])


# -- curves --------------------------------------------------------------------


def test_curve_point_jet_coefficients():
    # coefficients 1 and 2 of the curve x . exp(eps Z) are x Z and x Z Z / 2
    x = sample_so(4, 2)
    Z = so_basis(4)[3]
    mat = curve_jets(x, Z, order=2)
    first = np.array([[mat[r][c].coefficient(1) for c in range(4)] for r in range(4)])
    second = np.array([[mat[r][c].coefficient(2) for c in range(4)] for r in range(4)])
    np.testing.assert_allclose(first, x @ Z, atol=1e-14)
    np.testing.assert_allclose(second, x @ Z @ Z / 2, atol=1e-14)


def test_curve_jets_matches_curve_point():
    x = sample_so(3, 5)
    Z = so_basis(3)[0]
    fast = curve_jets(x, Z, order=2)
    via_series = series_curve_point(x, Z, variable(0, 2))
    for r in range(3):
        for c in range(3):
            for i in range(3):
                assert abs(fast[r][c].coefficient(i) - via_series[r][c].coefficient(i)) <= 1e-14


def test_curve_jets_nested_path():
    x = sample_so(3, 6)
    Z1, Z2 = so_basis(3)[0], so_basis(3)[2]
    level1 = curve_jets(x, Z1, order=2)
    # coefficient i of entry (r, c) is (x Z^i / i!)[r, c]
    for i, mat in enumerate((x, x @ Z1, x @ Z1 @ Z1 / 2)):
        got = np.array([[level1[r][c].coefficient(i) for c in range(3)] for r in range(3)])
        np.testing.assert_allclose(got, mat, rtol=0, atol=1e-14)
    level2 = curve_jets(level1, Z2, order=2)
    entry = level2[0][1]
    assert isinstance(entry, JetScalar)
    assert entry.shape == (2, 2)
    # the (eps2 = 0) slice reproduces level 1
    assert entry.coefficient(0).coeffs == level1[0][1].coeffs
    # the eps2-linear coefficient at eps1 = 0 is (x Z2)[0, 1]
    assert abs(entry.coefficient(1).coefficient(0) - (x @ Z2)[0, 1]) <= 1e-14


def test_validate_group_point_rejects_garbage():
    with pytest.raises(ValueError):
        validate_group_point(np.eye(3) * 2, ("compact", 3))
    with pytest.raises(ValueError):
        validate_group_point(np.eye(4), ("weird", 4))
