import cmath
import platform
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pharmonic import jets
from pharmonic.jets import (
    BranchCutError,
    JetError,
    JetScalar,
    LaplacianJet,
    NonFiniteError,
    ShapeMismatch,
    constant,
    ipow,
    jexp,
    jlog,
    jpow,
    nilpotent_part,
    reciprocal,
    variable,
    zero,
)
from pharmonic.operators import DEPTH_CAP, MAX_LIFT_COMPONENTS
from oracles import concatenated_level, level_product, series_log, series_pow, series_reciprocal


def jet2(c0, c1, c2):
    return JetScalar(2, (complex(c0), complex(c1), complex(c2)))


def assert_jet_close(a, b, tol=1e-12):
    if isinstance(a, JetScalar):
        assert isinstance(b, JetScalar) and a.shape == b.shape
        for x, y in zip(a.coeffs, b.coeffs):
            assert_jet_close(x, y, tol)
    else:
        assert abs(complex(a) - complex(b)) <= tol * (1 + abs(complex(a)) + abs(complex(b)))


finite_complex = st.builds(
    complex,
    st.floats(-10, 10, allow_nan=False, allow_infinity=False),
    st.floats(-10, 10, allow_nan=False, allow_infinity=False),
)


@st.composite
def order2_jets(draw):
    return JetScalar(2, tuple(draw(finite_complex) for _ in range(3)))


# -- constructors -----------------------------------------------------------


def test_lift_constant():
    assert constant(1, (2,)).coeffs == (1 + 0j, 0j, 0j)
    assert constant(0, (2,)).coeffs == (0j, 0j, 0j)


@given(finite_complex)
@settings(max_examples=50, deadline=None)
def test_lift_roundtrip(c):
    assert constant(c, (3,)).coefficient(0) == c


def test_variable_square_and_cube():
    eps = variable(0, 2)
    assert (eps * eps).coeffs == (0j, 0j, 1 + 0j)
    assert (eps * eps * eps).coeffs == (0j, 0j, 0j)


def test_variable_product_with_offset():
    v = variable(2, 1)
    assert (v * v).coeffs == (4 + 0j, 4 + 0j)


def test_order_validation():
    with pytest.raises(JetError):
        constant(1, (0,))
    with pytest.raises(JetError):
        variable(1, 0)
    with pytest.raises(JetError):
        JetScalar(2, (1 + 0j, 0j))


# -- ring operations ----------------------------------------------------------


def test_componentwise_addition():
    assert (jet2(1, 2, 0) + jet2(3, 0, 1)).coeffs == (4 + 0j, 2 + 0j, 1 + 0j)


def test_cauchy_product():
    assert (jet2(0, 1, 0) * jet2(0, 1, 0)).coeffs == (0j, 0j, 1 + 0j)
    assert (jet2(1, 1, 0) * jet2(1, -1, 0)).coeffs == (1 + 0j, 0j, -1 + 0j)


def test_mixed_scalar_arithmetic():
    a = jet2(1, 2, 3)
    assert (a + 1).coeffs == (2 + 0j, 2 + 0j, 3 + 0j)
    assert (2 * a).coeffs == (2 + 0j, 4 + 0j, 6 + 0j)
    assert (a + (-a)).coeffs == (0j, 0j, 0j)


def test_shape_mismatch_raises():
    with pytest.raises(ShapeMismatch):
        jet2(1, 0, 0) + variable(0, 1)


def test_division():
    v = variable(2, 1)
    assert_jet_close((v * v) * reciprocal(v), v)
    with pytest.raises(JetError):
        reciprocal(variable(0, 2))


def _absolute(a):
    return JetScalar(a.order, tuple(complex(abs(c)) for c in a.coeffs))


def assert_within_roundoff(lhs, rhs, magnitude, tol=1e-14):
    """Coefficientwise |lhs - rhs| <= tol * magnitude + (underflow term), where
    ``magnitude`` is the same expression evaluated on the absolute values of
    the coefficients.  It is the sum of the term magnitudes, which bounds the
    rounding error of either side whatever the cancellation (Higham, Accuracy
    and Stability of Numerical Algorithms, 2nd ed., sections 2.1 and 3.1);
    the value itself does not.  Subnormal results add an absolute error
    below the smallest normal number."""
    for x, y, s in zip(lhs.coeffs, rhs.coeffs, magnitude.coeffs):
        assert abs(x - y) <= tol * abs(s) + sys.float_info.min


@example(  # coefficient 2 of the triple product cancels to ~1e1 from terms ~1e3
    jet2(6.91 + 3.98j, -1.22 - 8.78j, 3.74 + 3.68j),
    jet2(9.08 - 8.21j, 0.4 + 1.36j, 4.85 + 3.34j),
    jet2(7.56 + 4.3j, -2.68 + 1.74j, -7.41 - 9.28j),
)
@given(order2_jets(), order2_jets(), order2_jets())
@settings(max_examples=80, deadline=None)
def test_ring_axioms(a, b, c):
    A, B, C = _absolute(a), _absolute(b), _absolute(c)
    assert_within_roundoff((a * b) * c, a * (b * c), (A * B) * C)
    assert_within_roundoff(a * (b + c), a * b + a * c, A * (B + C))
    assert_within_roundoff(a + (b + c), (a + b) + c, A + (B + C))
    assert_within_roundoff(a * b, b * a, A * B)


# -- derivatives ----------------------------------------------------------------


def _poly_eval(coeffs, x):
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * x + c
    return acc


def _poly_derivative(coeffs):
    return [i * c for i, c in enumerate(coeffs)][1:]


def test_derivatives_match_symbolic_differentiation():
    rng = np.random.default_rng(3)
    for _ in range(20):
        deg = int(rng.integers(2, 7))
        coeffs = [complex(a, b) for a, b in rng.uniform(-2, 2, size=(deg + 1, 2))]
        c = complex(*rng.uniform(-2, 2, size=2))
        jet = _poly_eval(coeffs, variable(c, 2))
        d1 = _poly_eval(_poly_derivative(coeffs), c)
        d2 = _poly_eval(_poly_derivative(_poly_derivative(coeffs)), c)
        assert abs(jet.coefficient(1) - d1) <= 1e-12 * (1 + abs(d1))
        assert abs(2 * jet.coefficient(2) - d2) <= 1e-12 * (1 + abs(d2))


def test_nested_jets_match_finite_differences():
    # Bivariate polynomial of degree <= 2 per variable: every central-difference
    # stencil below is exact up to roundoff.
    rng = np.random.default_rng(11)
    cs = rng.uniform(-1, 1, size=(3, 3))

    def q(s, t):
        total = None
        for i in range(3):
            for j in range(3):
                term = cs[i, j] * ipow(s, i) * ipow(t, j)
                total = term if total is None else total + term
        return total

    s0, t0 = 0.37, -0.81
    inner = (2,)
    s_jet = JetScalar(2, (constant(s0, inner), constant(1.0, inner), zero(inner)))
    t_jet = JetScalar(2, (variable(t0, 2), zero(inner), zero(inner)))
    val = q(s_jet, t_jet)

    h = 0.05

    def fd(ds, dt):
        def at(i, j):
            return complex(q(s0 + i * h, t0 + j * h))

        if (ds, dt) == (1, 1):
            return (at(1, 1) - at(1, -1) - at(-1, 1) + at(-1, -1)) / (4 * h * h)
        if (ds, dt) == (2, 2):
            def d2t(i):
                return (at(i, 1) - 2 * at(i, 0) + at(i, -1)) / (h * h)

            return (d2t(1) - 2 * d2t(0) + d2t(-1)) / (h * h)
        if (ds, dt) == (2, 0):
            return (at(1, 0) - 2 * at(0, 0) + at(-1, 0)) / (h * h)
        if (ds, dt) == (0, 2):
            return (at(0, 1) - 2 * at(0, 0) + at(0, -1)) / (h * h)
        raise AssertionError

    # mixed partial d^2/ds dt, and the pure and doubly-mixed second orders
    assert abs(val.coefficient(1).coefficient(1) - fd(1, 1)) <= 1e-6
    assert abs(2 * val.coefficient(2).coefficient(0) - fd(2, 0)) <= 1e-6
    assert abs(2 * val.coefficient(0).coefficient(2) - fd(0, 2)) <= 1e-6
    assert abs(4 * val.coefficient(2).coefficient(2) - fd(2, 2)) <= 1e-6


# -- analytic functions -----------------------------------------------------------


def test_log_examples():
    assert jlog(constant(1, (2,))).coeffs == (0j, 0j, 0j)
    got = jlog(jet2(1, 1, 0))
    assert_jet_close(got, jet2(0, 1, -0.5))


def test_pow_example():
    assert_jet_close(jpow(jet2(3, 1, 0), 2), jet2(9, 6, 1))


def test_sqrt_matches_half_power():
    a = jet2(4, 1, 0.5)
    assert_jet_close(jpow(a, 0.5) * jpow(a, 0.5), a, 1e-14)


def test_exp_log_inverse():
    rng = np.random.default_rng(5)
    for _ in range(20):
        c = complex(rng.uniform(0.2, 3), rng.uniform(-1, 1))
        a = JetScalar(2, (c, complex(*rng.uniform(-1, 1, 2)), complex(*rng.uniform(-1, 1, 2))))
        assert_jet_close(jexp(jlog(a)), a, 1e-13)
        assert_jet_close(jpow(a, 1), a, 1e-13)
        b = JetScalar(2, (complex(rng.uniform(-1, 1), rng.uniform(-2, 2)), 1 + 0j, 0j))
        assert_jet_close(jlog(jexp(b)), b, 1e-13)


def test_plain_and_jet_analytic_paths_agree_exactly():
    z = 1.7 - 0.6j
    assert jlog(constant(z, (2,))).coefficient(0) == cmath.log(z)
    assert jpow(constant(z, (2,)), 0.5).coefficient(0) == jpow(z, 0.5)


def test_branch_cut_rejections():
    with pytest.raises(BranchCutError):
        jlog(constant(-1, (2,)))
    with pytest.raises(BranchCutError):
        jlog(constant(1e-8, (2,)))
    with pytest.raises(BranchCutError):
        jlog(-2.0 + 0j)
    with pytest.raises(BranchCutError):
        jpow(constant(-4, (2,)), 0.5)
    # integer powers bypass the cut
    assert ipow(constant(-4, (2,)), 2).coefficient(0) == 16 + 0j


def test_nonfinite_rejections():
    with pytest.raises(NonFiniteError):
        constant(float("nan"), (2,))
    with pytest.raises(NonFiniteError):
        jexp(constant(800, (2,)))


def test_nilpotent_part_and_scalar_value():
    a = jet2(3, 1, 2)
    assert nilpotent_part(a).coeffs == (0j, 1 + 0j, 2 + 0j)
    assert (nilpotent_part(a) + 3).coeffs == a.coeffs
    nested = JetScalar(1, (a, zero((2,))))
    assert nilpotent_part(nested).coeffs[0].coeffs == (0j, 0j, 0j)
    assert nested.coefficient(0).coefficient(0) == 3 + 0j


# -- forward-Laplacian algebra ------------------------------------------------------


def random_laplacian_jet(rng, B, p, value=None):
    coeffs = rng.uniform(-1, 1, (B + 2) ** p) + 1j * rng.uniform(-1, 1, (B + 2) ** p)
    if value is not None:
        coeffs[0] = value
    return LaplacianJet(B, p, coeffs)


def test_laplacian_jet_depth_one_is_the_product_rule():
    rng = np.random.default_rng(1)
    a, b = random_laplacian_jet(rng, 3, 1), random_laplacian_jet(rng, 3, 1)
    (v, g, l), (w, h, k) = (
        (x.coeffs[0], x.coeffs[1:-1], x.coeffs[-1]) for x in (a, b)
    )
    want = np.concatenate([[v * w], v * h + g * w, [v * k + l * w + 2 * (g @ h)]])
    np.testing.assert_allclose((a * b).coeffs, want, rtol=1e-15, atol=1e-15)


@pytest.mark.parametrize("B, p", [(1, 1), (2, 2), (3, 3), (1, 4)])
def test_laplacian_jet_ring_axioms(B, p):
    rng = np.random.default_rng(B * 10 + p)
    a, b, c = (random_laplacian_jet(rng, B, p) for _ in range(3))
    A, Bm, C = (LaplacianJet(B, p, np.abs(x.coeffs)) for x in (a, b, c))
    for lhs, rhs, magnitude in (
        ((a * b) * c, a * (b * c), (A * Bm) * C),
        (a * (b + c), a * b + a * c, A * (Bm + C)),
        (a * b, b * a, A * Bm),
    ):
        assert np.all(np.abs(lhs.coeffs - rhs.coeffs) <= 1e-14 * np.abs(magnitude.coeffs))


@pytest.mark.parametrize("B, p", [(2, 1), (3, 2), (2, 3), (1, 4)])
@pytest.mark.parametrize("lanes", [(), (3,)])
def test_blocked_products_equal_unblocked_products_bit_for_bit(monkeypatch, B, p, lanes):
    rng = np.random.default_rng(B * 10 + p)
    shape = (7,) + lanes + ((B + 2) ** p,)
    a, b = (rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape) for _ in range(2))
    monkeypatch.setattr(jets, "PRODUCT_WORKSPACE_BYTES", 2**40)
    want = jets._tensor_product(a, b, B, p)
    # each element alone, as LaplacianJet.__mul__ takes it
    assert all(jets._tensor_product(x, y, B, p).tobytes() == w.tobytes() for x, y, w in zip(a, b, want))
    per_element = jets._workspace_bytes(B, p)
    # blocks of two elements, one element split into its outer-level pairs,
    # and every level split down to single pairs
    for budget in (2 * per_element, per_element - 1, 1):
        monkeypatch.setattr(jets, "PRODUCT_WORKSPACE_BYTES", budget)
        assert jets._tensor_product(a, b, B, p).tobytes() == want.tobytes(), budget


# Basis sizes with the N x N group each comes from (Gr(1,1), Gr(1,2),
# Gr(2,2), so(4), so(5), so(7)), and every depth whose N^2 (B + 2)**p
# components MAX_LIFT_COMPONENTS admits: the term map covers products of
# depth 1..5, 1..4 and 1..3 whole for B = 1, 2 and 4..6 and sits under nested
# levels above that; B = 10 and 21 keep the fused one-level rule.
KERNEL_CASES = [
    (B, p)
    for B, N in ((1, 2), (2, 3), (4, 4), (6, 4), (10, 5), (21, 7))
    for p in range(1, DEPTH_CAP + 1)
    if N * N * (B + 2) ** p <= MAX_LIFT_COMPONENTS
]


@pytest.mark.parametrize("lanes", [1, 3])
@pytest.mark.parametrize("B, p", KERNEL_CASES)
def test_products_match_the_level_by_level_kernel(B, p, lanes):
    # every component within 1e-14 of the same component of |a| |b|, the
    # sum of the magnitudes of its terms, which bounds the rounding error of
    # either summation order; the fused rule's bases bit for bit
    rng = np.random.default_rng(10 * B + p)
    shape = (lanes, (B + 2) ** p)
    a, b = (rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape) for _ in range(2))
    got, want = jets._tensor_product(a, b, B, p), level_product(a, b, B, p)
    magnitude = level_product(np.abs(a) + 0j, np.abs(b) + 0j, B, p)
    assert np.all(np.abs(got - want) <= 1e-14 * np.abs(magnitude)), np.max(np.abs(got - want) / np.abs(magnitude))
    if jets._map_depth(B) == 0:
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("B, p", KERNEL_CASES)
def test_workspace_bytes_is_the_closed_form_sum(B, p):
    # per nested level l = 1..p - max(q, 1) its two gathered operands and
    # its pair products, 48 G**l D**(p - l) bytes, then the innermost levels:
    # 24 G**p for a term map of q levels, or 16 G**(p - 1) D for the fused rule
    G, D = 3 * B + 3, B + 2
    q = min(p, jets._map_depth(B))
    nested = sum(48 * G**level * D ** (p - level) for level in range(1, p - max(q, 1) + 1))
    assert jets._workspace_bytes(B, p) == nested + (24 * G**p if q else 16 * G ** (p - 1) * D)


def test_a_block_holds_the_depth_three_elements_the_budget_cites():
    assert jets.PRODUCT_WORKSPACE_BYTES // jets._workspace_bytes(4, 3) == 103
    assert jets.PRODUCT_WORKSPACE_BYTES // jets._workspace_bytes(6, 3) == 37


@pytest.mark.parametrize("B, p", [(1, 2), (2, 3), (4, 3), (6, 2), (4, 4), (10, 2), (21, 1)])
def test_a_lanes_product_is_the_same_at_every_stack_size_and_offset(B, p):
    rng = np.random.default_rng(B + p)
    shape = (17, (B + 2) ** p)
    a, b = (rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape) for _ in range(2))
    want = jets._tensor_product(a[:1], b[:1], B, p)[0].tobytes()
    for K in range(1, 18):
        for offset in range(K):
            order = np.roll(np.arange(K), offset)  # lane 0 at row offset
            got = jets._tensor_product(a[order], b[order], B, p)[offset]
            assert got.tobytes() == want, (K, offset)


@pytest.mark.parametrize("B, p", [(2, 5), (4, 4), (10, 3)])
def test_split_products_equal_unsplit_products_bit_for_bit(monkeypatch, B, p):
    # products deeper than their term map (B = 2 at p = 5, B = 4 at p = 4)
    # or under the fused rule (B = 10): an element split into its outer
    # level's products, and every nested level split, take the operations
    # of the unsplit product
    rng = np.random.default_rng(B * 10 + p)
    shape = (2, (B + 2) ** p)
    a, b = (rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape) for _ in range(2))
    want = jets._tensor_product(a, b, B, p)
    for budget in (jets._workspace_bytes(B, p) - 1, 1):
        monkeypatch.setattr(jets, "PRODUCT_WORKSPACE_BYTES", budget)
        assert jets._tensor_product(a, b, B, p).tobytes() == want.tobytes(), budget


@pytest.mark.skipif(
    not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
    reason="the fault count measures glibc's heap trimming, on Linux",
)
def test_a_warm_single_block_product_faults_in_no_fresh_pages():
    import resource

    # a B = 4, p = 3 product of 20 lanes is one block whose gathers, 20 x
    # 3375 terms each, are the two halves of one 2.2 MB buffer; with the
    # gathers in two separate arrays, freed together, glibc trimmed the heap
    # after each call and the next faulted the pages in again: 495 minor
    # faults per call.  Warm: the first call's buffer is mapped and unmapped
    # whole, which raises glibc's mmap threshold, and the second faults it in
    # on the heap, where it stays.
    rng = np.random.default_rng(43)
    shape = (20, 6**3)
    a, b = (rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape) for _ in range(2))
    for _ in range(3):
        jets._tensor_product(a, b, 4, 3)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(50):
        jets._tensor_product(a, b, 4, 3)
    faults = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 50
    assert faults < 5, faults


LEVEL_FUNCTIONS = [
    ("log", jlog, series_log),
    ("reciprocal", reciprocal, series_reciprocal),
    ("pow -0.5", lambda v: jpow(v, -0.5), lambda v: series_pow(v, -0.5)),
]


@pytest.mark.parametrize("lanes", [(), (3,)])
@pytest.mark.parametrize("B", [1, 2, 4, 6])
@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_level_rule_matches_the_order_2p_series(B, p, lanes):
    # every component within 1e-13 of the largest one of the series; the
    # value channel bit-equal to the function at the point value
    rng = np.random.default_rng(100 * B + p)
    shape = lanes + ((B + 2) ** p,)
    coeffs = 0.3 * (rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape))
    values = np.array([1.3 - 0.4j, 0.6 + 0.9j, -0.8 + 0.5j])
    coeffs[..., 0] = values if lanes else values[0]
    u = LaplacianJet(B, p, coeffs)
    for name, level, series in LEVEL_FUNCTIONS:
        got, want = level(u).coeffs, series(u).coeffs
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), name
        plain = np.asarray(level(u.constant_value()), dtype=complex)
        assert got[..., 0].tobytes() == plain.tobytes(), name


@pytest.mark.parametrize("lanes", [(), (3,), (2, 3), (0,)], ids=["point", "lanes", "lane-stack", "no-lanes"])
@pytest.mark.parametrize("B, k", [(B, p) for B, p in KERNEL_CASES if B <= 10])
def test_level_step_equals_the_concatenated_operands_bit_for_bit(B, k, lanes):
    # the left operand written into one new array and the right one taken by
    # one gather hold what np.concatenate built, so the level's 2B + 1
    # products, and every component of the step, keep their bits; a lane
    # stack is a flag's (K, t), and no lanes give a (0, D**k) step
    rng = np.random.default_rng(10 * B + k)

    def draw(size):
        shape = lanes + (size,)
        return rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape)

    u = draw((B + 2) ** k)
    g, d1, d2 = (draw((B + 2) ** (k - 1)) for _ in range(3))
    got, want = jets._level(u, g, d1, d2, B, k), concatenated_level(u, g, d1, d2, B, k)
    assert got.shape == want.shape == u.shape
    assert got.tobytes() == want.tobytes()


CHAIN_READERS = [
    ("log", jlog),
    ("pow 0.5", lambda v: jpow(v, 0.5)),
    ("reciprocal", reciprocal),
    ("ipow -2", lambda v: ipow(v, -2)),
]


@pytest.mark.parametrize("lanes", [(), (3,)])
@pytest.mark.parametrize("B, p", [(2, 1), (4, 2), (2, 3)])
def test_a_stored_reciprocal_chain_gives_a_fresh_jets_results_bit_for_bit(B, p, lanes):
    # the first call stores the chain (log and powers to depth p - 1,
    # reciprocal to depth p); the second reads or extends it and must equal
    # the same call on a fresh copy of the jet
    rng = np.random.default_rng(10 * B + p)
    shape = lanes + ((B + 2) ** p,)
    coeffs = 0.3 * (rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape))
    values = np.array([1.3 - 0.4j, 0.6 + 0.9j, -0.8 + 0.5j])
    coeffs[..., 0] = values if lanes else values[0]
    for first_name, first in CHAIN_READERS:
        for name, call in CHAIN_READERS:
            stored = LaplacianJet(B, p, coeffs.copy())
            first(stored)
            assert stored._reciprocals is not None
            fresh = LaplacianJet(B, p, coeffs.copy())
            assert call(stored).coeffs.tobytes() == call(fresh).coeffs.tobytes(), (first_name, name)


def test_branch_cut_names_the_point_of_a_stacked_lane():
    # a (3, 2) lane array, points by blocks: a bad entry at (1, 0) names
    # point 1, whichever block it sits in
    z = np.ones((3, 2), dtype=complex)
    z[1, 0] = -1.0
    with pytest.raises(BranchCutError) as info:
        jlog(z)
    assert info.value.lanes == (1,)


def test_non_finite_lane_is_named():
    with pytest.raises(NonFiniteError, match=r"non-finite value in lanes \[1\]"):
        jlog(np.array([1, np.nan]))


@pytest.mark.parametrize("p", [1, 3])
def test_level_rule_rejects_from_the_point_value(p):
    rng = np.random.default_rng(p)
    stack = random_laplacian_jet(rng, 2, p, value=1.0)
    stack = LaplacianJet(2, p, np.stack([stack.coeffs] * 3))
    stack.coeffs[1, 0] = -1.0  # lane 1 on the cut of log and powers
    for func in (jlog, lambda v: jpow(v, -0.5)):
        with pytest.raises(BranchCutError) as info:
            func(stack)
        assert info.value.lanes == (1,) and str(info.value).startswith("lanes [1] ")


def test_laplacian_jet_nilpotent_part_truncates_at_order_2p():
    rng = np.random.default_rng(3)
    for B, p in ((2, 1), (1, 2), (2, 3)):
        h = nilpotent_part(random_laplacian_jet(rng, B, p))
        power = h
        for _ in range(h.order - 1):
            power = power * h
        assert np.any(power.coeffs != 0)
        assert np.all((power * h).coeffs == 0)


def test_laplacian_jet_analytic_functions_invert():
    rng = np.random.default_rng(4)
    a = random_laplacian_jet(rng, 2, 2, value=1.3 - 0.4j)
    one = (reciprocal(a) * a).coeffs
    assert abs(one[0] - 1) <= 1e-15 and np.max(np.abs(one[1:])) <= 1e-13
    np.testing.assert_allclose((jpow(a, 0.5) * jpow(a, 0.5)).coeffs, a.coeffs, rtol=0, atol=1e-13)
    assert ipow(a, -2).constant_value() == ipow(a.constant_value(), -2)


def test_laplacian_jet_rejections_match_plain_numbers():
    rng = np.random.default_rng(5)
    for value, func, error in (
        (-1.0, jlog, BranchCutError),
        (1e-8, jlog, BranchCutError),
        (-4.0, lambda v: jpow(v, 0.5), BranchCutError),
        (float("nan"), jlog, NonFiniteError),
        (0.0, reciprocal, JetError),
    ):
        with pytest.raises(error):
            func(complex(value))
        with pytest.raises(error):
            func(random_laplacian_jet(rng, 2, 2, value=value))
    with pytest.raises(ShapeMismatch):
        random_laplacian_jet(rng, 2, 2) * random_laplacian_jet(rng, 2, 1)
    with pytest.raises(JetError):
        LaplacianJet(2, 2, np.zeros(5))


@pytest.mark.parametrize("shape", [(4,), (3, 4), (1, 4)], ids=["flat", "three-lanes", "one-lane"])
def test_jexp_refuses_a_laplacian_jet(shape):
    # jexp takes numbers, lane arrays and JetScalars; a LaplacianJet of any
    # lane shape is refused by name rather than broadcast into a wrong shape
    coeffs = np.random.default_rng(2).uniform(-1, 1, shape) + 0j
    with pytest.raises(JetError, match="not a LaplacianJet") as raised:
        jexp(LaplacianJet(2, 1, coeffs))
    assert type(raised.value) is JetError
