import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from pharmonic.expressions import (
    Const,
    Entry,
    Log,
    Pow,
    Product,
    Stack,
    Sum,
    evaluate,
    p_harmonic_expr,
    projector_form,
    rank_one_from_isotropic,
    rank_one_from_vector,
)
from pharmonic.expressions import dual_matrix, flag_forms, flag_sum_expr
from pharmonic import expressions, jets
from pharmonic import operators as ops
from pharmonic.group import curve_jets, m_basis, sample_block_diagonal, sample_so, sample_so_mn, so_basis
from pharmonic.jets import BranchCutError, JetScalar
from pharmonic.operators import (
    check_eigenfamily,
    check_eigenfunction,
    check_invariance,
    conditioned_sample,
    coordinate_identity_residuals,
    eigen_jets,
    gradient_product,
    iterated_laplacian,
    laplacian,
    laplacian_jet,
    non_descent_witness,
    p_harmonic_residuals,
    projector_identity_residuals,
)
from oracles import (
    depth_one_jets,
    expanded_projector_form,
    fd_laplacian,
    flag_sum_oracle,
    generator_tensor_reference,
    identity_residuals_per_point,
    k_basis,
    window_quadratic,
)
from product_rule import check_product_rule


# -- closed-form coordinate identities ------------------------------------------------


def test_coordinate_laplacian_matches_closed_form():
    for N in (2, 4, 6):
        basis = so_basis(N)
        x = sample_so(N, N)
        for j, a in ((1, 1), (1, N), (N - 1, 2)):
            got = laplacian(Entry(j, a), x, basis)
            want = -(N - 1) / 2 * x[j - 1, a - 1]
            assert abs(got - want) <= 1e-10 * (1 + abs(want))


def test_coordinate_pairing_matches_closed_form():
    N = 5
    basis = so_basis(N)
    x = sample_so(N, 17)
    rng = np.random.default_rng(2)
    for _ in range(8):
        j, a, k, b = (int(v) + 1 for v in rng.integers(0, N, 4))
        got = gradient_product(Entry(j, a), Entry(k, b), x, basis)
        want = -0.5 * (
            x[j - 1, b - 1] * x[k - 1, a - 1]
            - (j == k) * (a == b)
        )
        assert abs(got - want) <= 1e-10 * (1 + abs(want))


def test_batch_residuals_agree_with_operator_calls():
    N = 4
    basis = so_basis(N)
    x = sample_so(N, [23])
    tau, kappa = coordinate_identity_residuals(x, basis)
    assert tau[0] <= 1e-12
    assert kappa[0] <= 1e-12


def test_projector_identities_batch_and_spot():
    for m, n in ((1, 2), (2, 2), (2, 3)):
        N = m + n
        basis = so_basis(N)
        x = sample_so(N, m * 10 + n)
        tau, kappa = projector_identity_residuals(x[None], m, basis)
        assert tau[0] <= 1e-11
        assert kappa[0] <= 1e-11

        # spot-check one entry through the per-function operators
        S = x[:, :m] @ x[:, :m].T
        node = window_quadratic(1, 2, range(1, m + 1))
        got = laplacian(node, x, basis)
        want = -N * S[0, 1]
        assert abs(got - want) <= 1e-10 * (1 + abs(want))


def test_projector_laplacian_includes_diagonal_offset():
    m, n = 2, 2
    N = m + n
    basis = so_basis(N)
    x = sample_so(N, 31)
    S = x[:, :m] @ x[:, :m].T
    got = laplacian(window_quadratic(1, 1, range(1, m + 1)), x, basis)
    want = -N * S[0, 0] + m
    assert abs(got - want) <= 1e-10


def test_constants_are_annihilated():
    basis = so_basis(3)
    x = sample_so(3, 3)
    assert abs(laplacian(Const(2 + 3j), x, basis)) <= 1e-14
    assert abs(gradient_product(Entry(1, 1), Const(5), x, basis)) <= 1e-14


def test_laplacian_linearity_and_pairing_bilinearity():
    basis = so_basis(4)
    x = sample_so(4, 5)
    f, g = window_quadratic(1, 2, range(1, 3)), window_quadratic(3, 3, range(1, 3))
    af, bg = Product((Const(2 - 1j), f)), Product((Const(0.5j), g))
    combo = Sum((af, bg))
    lhs = laplacian(combo, x, basis)
    rhs = (2 - 1j) * laplacian(f, x, basis) + 0.5j * laplacian(g, x, basis)
    assert abs(lhs - rhs) <= 1e-11 * (1 + abs(lhs))

    s1 = gradient_product(f, g, x, basis)
    s2 = gradient_product(g, f, x, basis)
    assert abs(s1 - s2) <= 1e-11 * (1 + abs(s1))
    lhs = gradient_product(combo, g, x, basis)
    rhs = (2 - 1j) * gradient_product(f, g, x, basis) + 0.5j * gradient_product(g, g, x, basis)
    assert abs(lhs - rhs) <= 1e-11 * (1 + abs(lhs))


# -- invariance and basis splitting ---------------------------------------------------


def test_k_directions_annihilate_invariant_functions():
    m, n = 2, 3
    x = sample_so(m + n, 7)
    phi = projector_form(rank_one_from_vector([1, 2, 3, 4]), m)
    for b in k_basis(m, n):
        assert abs(laplacian_jet(phi, x, b[None], 1).coeffs[-1]) <= 1e-11


def test_empty_basis_is_refused():
    x = sample_so(2, 1)
    with pytest.raises(ValueError, match="nonempty basis"):
        laplacian(Entry(1, 1), x, k_basis(1, 1))
    with pytest.raises(ValueError, match="nonempty basis"):
        coordinate_identity_residuals(x[None], k_basis(1, 1))


def test_full_basis_equals_quotient_basis_on_invariant_functions():
    m, n = 2, 2
    x = sample_so(m + n, 8)
    phi = projector_form(rank_one_from_vector([1, 2, 3]), m)
    full = laplacian(phi, x, so_basis(m + n))
    quot = laplacian(phi, x, m_basis(m, n))
    assert abs(full - quot) <= 1e-9 * (1 + abs(full))


def test_coordinates_are_not_invariant():
    pts = sample_so(4, range(60, 63))
    changes = check_invariance(Entry(1, 1), sample_block_diagonal((2, 2), ops.invariance_seeds(0)), pts)
    assert changes.shape == (len(pts),)
    assert changes.max() > 1e-10


def test_projector_form_is_invariant():
    m, n = 2, 3
    pts = sample_so(m + n, range(70, 73))
    phi = projector_form(rank_one_from_vector([1, 2, 3, 4]), m)
    changes = check_invariance(phi, sample_block_diagonal((m, n), ops.invariance_seeds(0)), pts)
    assert changes.shape == (len(pts),)
    assert changes.max() <= 1e-10


@pytest.mark.parametrize("m, n", [(1, 2), (2, 2), (2, 3)])
def test_dual_projector_form_is_invariant_at_dual_points(m, n):
    # the dual's function lives on SO0(m,n)/SO(m) x SO(n): right translation
    # by the compact subgroup leaves it unchanged at boost points, while an
    # entry in the last column, which SO(n) mixes, moves
    pts = sample_so_mn(m, n, range(80, 85))
    phi = projector_form(dual_matrix(rank_one_from_vector(np.arange(1.0, m + n)), m, n), m)
    actions = sample_block_diagonal((m, n), ops.invariance_seeds(80))
    assert check_invariance(phi, actions, pts).max() <= 1e-10
    assert check_invariance(Entry(1, m + n), actions, pts).max() > 1e-3


# -- eigen checks ------------------------------------------------------------------------


def test_check_eigenfunction_positive():
    m, n = 2, 3
    N = m + n
    phi = projector_form(rank_one_from_vector([1, 2, 3, 4]), m)
    pts = sample_so(N, range(80, 85))
    tau, kappa, values = check_eigenfunction(eigen_jets(phi, pts, m_basis(m, n)), -N, -2)
    assert tau.shape == kappa.shape == (len(pts),)
    assert np.all(tau <= 1e-12) and np.all(kappa <= 1e-12), (tau, kappa)
    # the value channel of the walk is plain evaluation, bit for bit
    assert np.array_equal(values, ops.values_at(phi, pts))


def _counting_walks(monkeypatch):
    """Wrap ops._form_jets, the form pairing each walk of a chunk starts
    with; returns the (depth, lanes, plain lanes) of every walk."""
    walks = []
    pairing = ops._form_jets

    def counting_walk(forms, X, basis, p, plain=0):
        walks.append((p, len(X), plain))
        return pairing(forms, X, basis, p, plain)

    monkeypatch.setattr(ops, "_form_jets", counting_walk)
    return walks


def test_check_eigenfunction_walks_each_chunk_once(monkeypatch):
    m, n = 2, 2
    phi = projector_form(rank_one_from_vector([1, 2, 3]), m)
    pts = sample_so(m + n, range(70, 73))
    basis = m_basis(m, n)
    # wrong eigenvalues give residuals of order one, so agreement with the
    # one-point operators shows each residual reads its own point's lane
    for lam, mu in ((-4, -2), (-3, -1)):
        expected = []
        for pt in pts:
            v = complex(evaluate(phi, pt))
            denom = 1.0 + abs(v) + abs(v) ** 2
            expected.append(abs(laplacian(phi, pt, basis) - complex(lam) * v) / denom)
            expected.append(abs(gradient_product(phi, phi, pt, basis) - complex(mu) * v * v) / denom)
        walks = _counting_walks(monkeypatch)
        tau, kappa, _ = check_eigenfunction(eigen_jets(phi, pts, basis), lam, mu)
        assert walks == [(1, len(pts), 0)]
        got = np.stack([tau, kappa], axis=1).ravel()
        np.testing.assert_allclose(got, expected, rtol=1e-13, atol=1e-15)
        monkeypatch.undo()


def test_check_eigenfamily_pairs_read_the_members_walks(monkeypatch):
    # the honest two-member family of the test below: one depth-1 walk of
    # the members' lane stack, (K, 2) lanes, and each member's tau and kappa
    # equal to its own eigen check
    fu = projector_form(rank_one_from_isotropic(np.array([1, 1j, 0, 0])), 1)
    fv = projector_form(rank_one_from_isotropic(np.array([0, 0, 1, 1j])), 1)
    pts = sample_so(4, range(80, 83))
    basis = m_basis(1, 3)
    walks = []
    walk = ops._tree_jet

    def counting_walk(f, X, basis, p, known):
        jet = walk(f, X, basis, p, known)
        walks.append((p, jet.coeffs.shape[:-1]))
        return jet

    monkeypatch.setattr(ops, "_tree_jet", counting_walk)
    family = check_eigenfamily(eigen_jets(Stack((fu, fv)), pts, basis), -4, -2)
    assert walks == [(1, (len(pts), 2))]
    monkeypatch.undo()
    assert len(family) == 2
    for f, pair in zip((fu, fv), family):
        alone = check_eigenfunction(eigen_jets(f, pts, basis), -4, -2)[:2]
        for got, want in zip(pair, alone):
            assert got.shape == (len(pts),)
            assert np.array_equal(got, want)
            assert got.max() <= 1e-8


def test_check_eigenfunction_negative_control():
    # traceless symmetric rank-2 matrix: the pairing relation must fail visibly
    m, n = 2, 2
    N = m + n
    bad = np.diag([1.0, -1.0, 0.0, 0.0]).astype(complex)
    phi = projector_form(bad, m=m)
    pts = sample_so(N, range(90, 95))
    tau, kappa, _ = check_eigenfunction(eigen_jets(phi, pts, m_basis(m, n)), -N, -2)
    assert kappa.max() >= 1e-2
    assert tau.max() <= 1e-10  # linear relation survives any traceless matrix


def test_check_eigenfamily_singleton_matches_eigenfunction():
    m, n = 1, 2
    phi = projector_form(rank_one_from_vector([1, 2]), m)
    pts = sample_so(3, range(100, 103))
    fam = check_eigenfamily(eigen_jets(Stack((phi,)), pts, m_basis(m, n)), -3, -2)
    single = check_eigenfunction(eigen_jets(phi, pts, m_basis(m, n)), -3, -2)[:2]
    assert len(fam) == 1
    assert all(np.array_equal(a, b) for a, b in zip(fam[0], single))
    assert all(np.all(residual <= 1e-8) for residual in single), single


def test_check_eigenfamily_two_members_single_column():
    # two orthogonal isotropic generators over a width-one window: each is an
    # eigenfunction
    m, n = 1, 3
    N = m + n
    u = np.array([1, 1j, 0, 0])
    v = np.array([0, 0, 1, 1j])
    fu = projector_form(rank_one_from_isotropic(u), m)
    fv = projector_form(rank_one_from_isotropic(v), m)
    pts = sample_so(N, range(110, 115))
    fam = check_eigenfamily(eigen_jets(Stack((fu, fv)), pts, m_basis(m, n)), -N, -2)
    assert len(fam) == 2
    for tau, kappa in fam:
        assert tau.shape == kappa.shape == (len(pts),)
        assert np.all(tau <= 1e-8) and np.all(kappa <= 1e-8), fam


def test_check_eigenfamily_with_a_non_eigen_member_fails():
    # v v^T for v = (1, 0, 0), rank one but not isotropic, so not traceless:
    # its form x11^2 has L x11^2 = -3 x11^2 + 1, not -3 x11^2
    m, n = 1, 2
    phi = projector_form(rank_one_from_vector([1, 2]), m)
    bad = projector_form(np.diag([1.0, 0.0, 0.0]), m)
    pts = sample_so(3, range(120, 123))
    fam = check_eigenfamily(eigen_jets(Stack((phi, bad)), pts, m_basis(m, n)), -3, -2)
    (tau, kappa), (bad_tau, _) = fam
    assert np.all(tau <= 1e-8) and np.all(kappa <= 1e-8), (tau, kappa)
    assert bad_tau.min() > 1e-8


def test_a_stack_of_mixed_kinds_raises_rather_than_broadcasting():
    # a Stack holds one kind of member: a constant beside a form, either way
    # round, is refused on a stack of points and in jet walks of a stack and
    # of one point (at one bare point plain values are all numbers), and an
    # empty Stack is refused when it is built
    phi = projector_form(rank_one_from_vector([1, 2]), 1)
    pts = sample_so(3, range(120, 123))
    for members in ((phi, Const(1 + 0j)), (Const(1 + 0j), phi)):
        with pytest.raises((TypeError, ValueError, AttributeError)):
            evaluate(Stack(members), pts)
        with pytest.raises((TypeError, ValueError, AttributeError)):
            laplacian_jet(Stack(members), pts, m_basis(1, 2), 1)
        with pytest.raises((TypeError, ValueError, AttributeError)):
            laplacian_jet(Stack(members), pts[0], m_basis(1, 2), 1)
    with pytest.raises(ValueError, match="a Stack needs at least one member"):
        Stack(())


# -- product rule -------------------------------------------------------------------------


def test_product_rule_on_coordinates():
    pts = sample_so(3, range(130, 135))
    report = check_product_rule(Entry(1, 1), Entry(1, 1), pts, so_basis(3), 1e-10)
    assert report.passed


def test_product_rule_with_constant_reduces_to_linearity():
    pts = sample_so(3, range(140, 143))
    report = check_product_rule(Entry(2, 1), Const(3 - 2j), pts, so_basis(3), 1e-12)
    assert report.passed


def test_product_rule_on_projector_entries():
    pts = sample_so(4, range(150, 170))
    f, g = window_quadratic(1, 1, range(1, 3)), window_quadratic(1, 2, range(1, 3))
    report = check_product_rule(f, g, pts, so_basis(4), 1e-10)
    assert report.passed


# -- iterated Laplacian --------------------------------------------------------------------


def test_iterated_laplacian_base_cases():
    basis = so_basis(3)
    x = sample_so(3, 160)
    phi = window_quadratic(1, 1, range(1, 2))
    assert iterated_laplacian(phi, 0, x, basis) == evaluate(phi, x)
    one = iterated_laplacian(phi, 1, x, basis)
    assert abs(one - laplacian(phi, x, basis)) <= 1e-13


def test_iterated_laplacian_depth_cap():
    basis = so_basis(3)
    x = sample_so(3, 161)
    with pytest.raises(ValueError):
        iterated_laplacian(Entry(1, 1), 6, x, basis)


def test_second_order_composition_is_biharmonic_but_not_harmonic():
    m, n = 1, 2
    N = m + n
    phi = projector_form(rank_one_from_vector([1, 2]), m)
    composed = p_harmonic_expr(phi, -N, -2, 2, 1, 0)
    basis = m_basis(m, n)
    hits = 0
    for i in range(5):
        x = sample_so(N, 170 + i)
        (residual,), (witness,) = p_harmonic_residuals(composed, 2, x[None], basis)
        assert residual <= 1e-7
        if witness > 1e-3:
            hits += 1
    assert hits >= 3


# -- oracles -----------------------------------------------------------------------------


def _nested_jet_iterated_laplacian(f, p, X, basis):
    """L^p f by literal recursion over nested order-2 jets: |basis|^p tree walks,
    each the second derivative along one basis curve x . exp(eps Z)."""
    if p == 0:
        return evaluate(f, X)
    total = 0j
    for z in basis:
        value = _nested_jet_iterated_laplacian(f, p - 1, curve_jets(X, z, order=2), basis)
        if isinstance(value, JetScalar):
            total = total + value.coefficient(2) * 2
    return total


def _oracle_cases():
    """(f, the tree the nested jets walk, basis, point) per case: order-3
    compositions, so L and L^2 of f are generically nonzero and L^3 f is a
    true zero.  Nested jets have no lanes, so for the flag function they walk
    its per-block oracle tree."""
    cases = []
    for m, n in ((1, 2), (2, 2)):
        N = m + n
        phi = projector_form(rank_one_from_vector(np.arange(1.0, N)), m)
        pts, _ = conditioned_sample(phi, lambda s, N=N: sample_so(N, s), 1, 400)
        f = p_harmonic_expr(phi, -N, -2, 3, 1, 1)
        cases.append(pytest.param(f, f, m_basis(m, n), pts[0], id=f"Gr({m},{n})"))
    phi = projector_form(dual_matrix(rank_one_from_vector([1.0, 2.0]), 1, 2), 1)
    pts, _ = conditioned_sample(phi, lambda s: sample_so_mn(1, 2, s, 0.5), 1, 410)
    f = p_harmonic_expr(phi, 3, 2, 3, 1, 1)
    cases.append(pytest.param(f, f, m_basis(1, 2, "indefinite"), pts[0], id="dual(1,2)"))
    forms = flag_forms((1, 1, 2))
    f = flag_sum_expr(forms, 3)
    cases.append(pytest.param(f, flag_sum_oracle(forms, 3), so_basis(4), sample_so(4, 420), id="flag(1,1,2)"))
    return cases


@pytest.mark.parametrize("f, nested, basis, x", _oracle_cases())
def test_forward_laplacian_matches_nested_jets(f, nested, basis, x):
    tolerances = {1: 1e-12, 2: 1e-9, 3: 1e-9}
    value = complex(evaluate(f, x))
    previous = value
    for p, tol in tolerances.items():
        got = complex(iterated_laplacian(f, p, x, basis))
        want = complex(_nested_jet_iterated_laplacian(nested, p, x, basis))
        scale = 1.0 + abs(value) + abs(previous)
        assert abs(got - want) <= tol * scale, (p, got, want)
        previous = want


def _stack_cases():
    """(f, basis, stack of three points) per case, as in _oracle_cases."""
    cases = []
    for m, n in ((1, 2), (2, 2)):
        N = m + n
        phi = projector_form(rank_one_from_vector(np.arange(1.0, N)), m)
        pts, _ = conditioned_sample(phi, lambda s, N=N: sample_so(N, s), 3, 400)
        f = p_harmonic_expr(phi, -N, -2, 3, 1, 1)
        cases.append(pytest.param(f, m_basis(m, n), pts, id=f"Gr({m},{n})"))
    phi = projector_form(dual_matrix(rank_one_from_vector([1.0, 2.0]), 1, 2), 1)
    pts, _ = conditioned_sample(phi, lambda s: sample_so_mn(1, 2, s, 0.5), 3, 410)
    f = p_harmonic_expr(phi, 3, 2, 3, 1, 1)
    cases.append(pytest.param(f, m_basis(1, 2, "indefinite"), pts, id="dual(1,2)"))
    f = flag_sum_expr(flag_forms((1, 1, 2)), 3)
    pts = sample_so(4, range(420, 423))
    cases.append(pytest.param(f, so_basis(4), pts, id="flag(1,1,2)"))
    return cases


@pytest.mark.parametrize("f, basis, points", _stack_cases())
def test_stacked_walk_equals_one_point_walks(f, basis, points):
    for p in (1, 2, 3):
        stacked = laplacian_jet(f, points, basis, p).coeffs
        assert stacked.shape == (len(points), (len(basis) + 2) ** p)
        for lane, pt in enumerate(points):
            alone = laplacian_jet(f, pt, basis, p).coeffs
            scale = 1.0 + np.max(np.abs(alone))
            assert np.max(np.abs(stacked[lane] - alone)) <= 1e-11 * scale, (p, lane)


def test_stacked_walk_names_the_lane_on_the_log_cut():
    x = sample_so(3, 11)
    assert abs(x[0, 0]) > 1e-3
    stack = np.stack([x] * 4)
    stack[:, 0, 0] = abs(x[0, 0]) * np.array([1.0, -1.0, 1.0, 1.0])  # x11 < 0 in lane 1 only
    f = Product((Log(Entry(1, 1)), Entry(2, 2)))
    for p in (1, 2):
        with pytest.raises(BranchCutError) as caught:
            laplacian_jet(f, stack, so_basis(3), p)
        assert caught.value.lanes == (1,)
    with pytest.raises(BranchCutError) as caught:
        p_harmonic_residuals(f, 2, stack, so_basis(3))
    assert caught.value.lanes == (1,)


def test_chunked_walk_names_the_lane_by_its_index_in_the_stack(monkeypatch):
    # two lanes per chunk, so the cut at lane 3 is lane 1 of the second chunk
    x = sample_so(3, 11)
    stack = np.stack([x] * 4)
    stack[:, 0, 0] = abs(x[0, 0]) * np.array([1.0, 1.0, 1.0, -1.0])  # x11 < 0 in lane 3 only
    f = Product((Log(Entry(1, 1)), Entry(2, 2)))
    basis = so_basis(3)
    for per_lane, walk in (
        (9, lambda: ops.values_at(f, stack)),
        (9 * 5**2, lambda: p_harmonic_residuals(f, 2, stack, basis)),
    ):
        with pytest.raises(BranchCutError) as whole:
            walk()
        monkeypatch.setattr(ops, "MAX_LIFT_COMPONENTS", 2 * per_lane)
        with pytest.raises(BranchCutError) as chunked:
            walk()
        monkeypatch.undo()
        assert chunked.value.lanes == whole.value.lanes == (3,)
        assert str(chunked.value) == str(whole.value)
        assert str(whole.value).startswith("lanes [3] "), str(whole.value)


def test_p_harmonic_residuals_read_one_depth_p_walk(monkeypatch):
    phi = projector_form(rank_one_from_vector([1, 2, 3]), 2)
    f = p_harmonic_expr(phi, -4, -2, 3, 1, 1)
    basis = m_basis(2, 2)
    pts, _ = conditioned_sample(phi, lambda s: sample_so(4, s), 3, 500)
    walks = _counting_walks(monkeypatch)
    residuals, witnesses = p_harmonic_residuals(f, 3, pts, basis)
    assert walks == [(3, len(pts), 0)]
    monkeypatch.undo()
    for i, pt in enumerate(pts):
        v = complex(evaluate(f, pt))
        prev = complex(iterated_laplacian(f, 2, pt, basis))
        top = complex(iterated_laplacian(f, 3, pt, basis))
        assert abs(witnesses[i] - abs(prev) / (1 + abs(v))) <= 1e-12 * witnesses[i]
        assert residuals[i] <= 1e-9 and abs(top) / (1 + abs(v) + abs(prev)) <= 1e-9


def test_p_harmonic_residuals_of_no_points_walk_the_plain_points_alone(monkeypatch):
    family = flag_forms((1, 1, 2))
    basis = so_basis(4)
    plain = sample_so(4, range(70, 73))
    walks = _counting_walks(monkeypatch)
    residuals, witnesses, jets = p_harmonic_residuals(flag_sum_expr(family, 2), 2, plain[:0], basis, family, plain)
    assert walks == [(1, 3, 0)]
    assert residuals.shape == witnesses.shape == (0,)
    monkeypatch.undo()
    assert np.array_equal(jets, depth_one_jets(family, plain, basis))


def _ride_and_compare(f, eigen, p, sampler, basis, walked_count=3, plain_count=3):
    """Walk f at p on conditioned points with the first plain_count points of
    the first batch riding, and check eigen's depth-1 jets there, the eigen
    residuals and values read off them, and f's residuals against separate
    walks, bit for bit.  Returns the walks _form_jets made."""
    batch = sampler(ops.first_batch_seeds(walked_count, 40))
    plain = batch[:plain_count]
    walked, _ = conditioned_sample(eigen, sampler, walked_count, 40, batch)
    residuals, witnesses, jets = p_harmonic_residuals(f, p, walked, basis, eigen, plain)
    want = depth_one_jets(eigen, plain, basis)
    assert jets.shape == want.shape
    assert np.array_equal(jets, want)
    assert np.array_equal(jets[..., 0], ops.values_at(eigen, plain))
    if jets.ndim == 3:
        for got, ref in zip(check_eigenfamily(jets, -1, -2), check_eigenfamily(want, -1, -2)):
            assert all(np.array_equal(a, b) for a, b in zip(got, ref))
    else:
        got, ref = check_eigenfunction(jets, 1, 2), check_eigenfunction(want, 1, 2)
        assert all(np.array_equal(a, b) for a, b in zip(got, ref))
    alone = p_harmonic_residuals(f, p, walked, basis)
    assert np.array_equal(residuals, alone[0]) and np.array_equal(witnesses, alone[1])


@pytest.mark.parametrize("blocks, p", [((3, 4), 2), ((3, 4), 3), ((1, 1, 2), 2), ((2, 2), 4), ((1, 1, 1, 2), 2)])
def test_plain_points_riding_a_flag_walk_equal_a_separate_depth_one_walk(blocks, p):
    # so(7) at p = 3 holds one walked point per chunk, the plain points in
    # the first; pairing the whole tensor and slicing its first D columns
    # moved the depth-1 components of flag (3,4) by up to 7e-15
    family = flag_forms(blocks)
    n = sum(blocks)
    _ride_and_compare(flag_sum_expr(family, p), family, p, lambda s: sample_so(n, s), so_basis(n))


@pytest.mark.parametrize("m, n, p", [(2, 3, 2), (2, 3, 3), (1, 2, 4), (3, 2, 2)])
def test_plain_points_riding_a_dual_walk_equal_a_separate_depth_one_walk(m, n, p):
    phi = projector_form(dual_matrix(rank_one_from_vector(np.arange(1.0, m + n)), m, n), m)
    f = p_harmonic_expr(phi, m + n, 2, p, 1, 1)
    basis = m_basis(m, n, "indefinite")
    _ride_and_compare(f, phi, p, lambda s: sample_so_mn(m, n, s, 0.5), basis, walked_count=4, plain_count=2)


@pytest.mark.parametrize(
    "bound, plain, walks",
    [
        # the plain points ride the first chunk, two walked points beside them
        (2 * 1024 + 4 * 128, 4, [(2, 6, 4), (2, 2, 0), (2, 1, 0)]),
        # room for one plain point beside two walked ones: all four ride the
        # last chunk, beside its one walked point
        (2 * 1024 + 128, 4, [(2, 2, 0), (2, 2, 0), (2, 5, 4)]),
        # one walked point fills a chunk: the plain points are walked alone
        # at depth 1, eight to a chunk
        (1024, 10, [(2, 1, 0)] * 5 + [(1, 8, 0), (1, 2, 0)]),
    ],
)
def test_plain_points_riding_chunked_walks_equal_a_separate_depth_one_walk(monkeypatch, bound, plain, walks):
    # flag (1,1,2) at p = 2: 4^2 8^2 = 1,024 components a walked point and
    # 4^2 8 = 128 a plain point, five walked points
    monkeypatch.setattr(ops, "MAX_LIFT_COMPONENTS", bound)
    family = flag_forms((1, 1, 2))
    recorded = _counting_walks(monkeypatch)
    _ride_and_compare(flag_sum_expr(family, 2), family, 2, lambda s: sample_so(4, s), so_basis(4), 5, plain)
    # the first walks are the riding ones; those of the separate walks follow
    assert recorded[: len(walks)] == walks


def test_one_deep_walk_releases_values_after_their_last_read():
    import tracemalloc

    # flag --blocks 1,1,2 --p 4 on four points, with product blocks of at
    # most jets.PRODUCT_WORKSPACE_BYTES (8.4 MB) in either tree.  The
    # per-block Sum holds three phi jets and the values of their three
    # compositions, 0.26 MB each: the walk peaks at 11.4 MB, and keeping
    # every node's jet until the walk ends pushes it to 14.9 MB.  The one
    # composition over the lane stack holds fewer values of 12 lanes,
    # 0.79 MB each: 15.3 MB, and 16.1 MB when every jet is kept.  Each bound
    # lies between its tree's two peaks.  (At p = 5 on one point the product
    # blocks alone set the peak, which keeping the values does not move.)
    forms = flag_forms((1, 1, 2))
    basis = so_basis(4)
    x = sample_so(4, range(7, 11))
    for f, bound in ((flag_sum_oracle(forms, 4), 13.5e6), (flag_sum_expr(forms, 4), 15.7e6)):
        tracemalloc.start()
        try:
            laplacian_jet(f, x, basis, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, (peak, bound)


def test_second_lane_of_a_deep_walk_adds_no_second_workspace():
    import tracemalloc

    # flag --blocks 1,1,2 --p 5: a second lane adds its own values, but its
    # products share the bounded blocks of the first (22.0 MB for one lane,
    # 23.1 MB for two); when each product held its whole innermost level,
    # two lanes peaked at twice one (223.4 MB against 111.8 MB)
    f = flag_sum_expr(flag_forms((1, 1, 2)), 5)
    basis = so_basis(4)
    peaks = []
    for lanes in (1, 2):
        x = sample_so(4, range(7, 7 + lanes))
        tracemalloc.start()
        try:
            laplacian_jet(f, x, basis, 5)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.85 * peaks[0], peaks


def _recorded_products(monkeypatch) -> list:
    """Wrap jets' products; the list returned gets, per product call, its
    batch elements, its depth and the innermost kernel calls (term map or
    fused rule) it took.  A product taken in one block takes one: the
    nested levels of a block that fits the budget fit it in one block too."""
    products, kernel_calls = [], []
    tensor_product = jets._tensor_product

    def counting(kernel):
        def counted(*args):
            kernel_calls.append(kernel.__name__)
            kernel(*args)

        return counted

    def recording(a, b, B, p):
        before = len(kernel_calls)
        out = tensor_product(a, b, B, p)
        products.append((a.size // (B + 2) ** p, p, len(kernel_calls) - before))
        return out

    for name in ("_mapped_product", "_fused_product"):
        monkeypatch.setattr(jets, name, counting(getattr(jets, name)))
    monkeypatch.setattr(jets, "_tensor_product", recording)
    return products


def test_walks_up_to_depth_three_take_each_product_in_one_block(monkeypatch):
    # the sweep's widest walk at p <= 3: Gr(2,2) at p = 3 on ten points
    products = _recorded_products(monkeypatch)
    phi = projector_form(rank_one_from_vector([1, 2, 3]), 2)
    laplacian_jet(p_harmonic_expr(phi, -4, -2, 3, 1, 1), sample_so(4, range(10)), m_basis(2, 2), 3)
    assert products and all(kernels == 1 for _, _, kernels in products), products


def test_depth_three_products_of_a_fourth_order_walk_take_one_block(monkeypatch):
    # the sweep's widest products of depth 3: Gr(2,2) at p = 4 on ten points,
    # where the level rule of log(phi) and 1/phi takes 2B + 1 = 9 products
    # per point one depth down, 90 batch elements against 103 per block
    products = _recorded_products(monkeypatch)
    phi = projector_form(rank_one_from_vector([1, 2, 3]), 2)
    laplacian_jet(p_harmonic_expr(phi, -4, -2, 4, 1, 1), sample_so(4, range(10)), m_basis(2, 2), 4)
    shallow = [(n, kernels) for n, p, kernels in products if p <= 3]
    assert all(kernels == 1 for _, kernels in shallow), shallow
    assert max(n for n, p, _ in products if p == 3) == 90


def _curve_jet_identity_residuals(X, basis, m=None):
    """The closed-form identity residuals from order-2 jets along each basis
    curve X . exp(eps Z): of the coordinate functions when m is None, else of
    the projector quadratics of the first m columns, built entry by entry
    from jet products."""
    N = X.shape[0]
    eye = np.eye(N)
    if m is None:

        def entry_jets(jm):
            return jm

        tau_expected = -(N - 1) / 2.0 * X
        kappa_expected = -0.5 * (
            np.einsum("jb,ka->jakb", X, X) - np.einsum("jk,ab->jakb", eye, eye)
        )
    else:

        def entry_jets(jm):
            sums = [[None] * N for _ in range(N)]
            for j in range(N):
                for a in range(j, N):
                    acc = jm[j][0] * jm[a][0]
                    for t in range(1, m):
                        acc = acc + jm[j][t] * jm[a][t]
                    sums[j][a] = sums[a][j] = acc
            return sums

        S = X[:, :m] @ X[:, :m].T
        tau_expected = -N * S + m * eye
        kappa_expected = -(
            np.einsum("jb,ka->jakb", S, S) + np.einsum("jk,ab->jakb", S, S)
        ) + 0.5 * (
            np.einsum("jk,ab->jakb", eye, S)
            + np.einsum("ab,jk->jakb", eye, S)
            + np.einsum("jb,ka->jakb", eye, S)
            + np.einsum("ka,jb->jakb", eye, S)
        )

    def plane(jm, index):
        return np.array([[jm[r][c].coefficient(index) for c in range(N)] for r in range(N)])

    tau = np.zeros((N, N), dtype=complex)
    firsts = []
    for z in basis:
        jets = entry_jets(curve_jets(X, z, order=2))
        tau += 2.0 * plane(jets, 2)
        firsts.append(plane(jets, 1))
    grads = np.stack(firsts)
    kappa = np.einsum("zja,zkb->jakb", grads, grads)
    r_tau = np.max(np.abs(tau - tau_expected) / (1.0 + np.abs(tau_expected)))
    r_kappa = np.max(np.abs(kappa - kappa_expected) / (1.0 + np.abs(kappa_expected)))
    return float(r_tau), float(r_kappa)


@pytest.mark.parametrize("scale", [1.0, 1.1])
def test_identity_residuals_match_curve_jets(scale):
    # a rescaled basis moves every residual to order 0.1, so agreement there
    # checks the planes themselves, not just that both sides are near zero;
    # the residuals of a stack of three points are compared lane by lane
    for N in range(2, 9):
        basis = so_basis(N) * scale
        stack = sample_so(N, range(700 + N, 703 + N))
        pairs = [
            (coordinate_identity_residuals(stack, basis), [_curve_jet_identity_residuals(x, basis) for x in stack])
        ]
        pairs += [
            (
                projector_identity_residuals(stack, m, basis),
                [_curve_jet_identity_residuals(x, basis, m) for x in stack],
            )
            for m in range(1, N)
        ]
        for got, wants in pairs:
            for lane, want in enumerate(wants):
                for key, (array, value) in enumerate(zip(got, want)):
                    assert abs(array[lane] - value) <= 1e-13, (N, lane, key, array[lane], value)


def test_stacked_identity_residuals_equal_one_point_calls_exactly(monkeypatch):
    cases = [(N, None) for N in range(2, 9)] + [(m + n, m) for m, n in ((1, 2), (2, 2), (2, 3), (3, 4))]
    for N, m in cases:
        basis = so_basis(N)
        lift = N * N * (len(basis) + 2)
        for bound in (ops.MAX_LIFT_COMPONENTS, 2 * lift):  # all lanes, then 2 per lift
            monkeypatch.setattr(ops, "MAX_LIFT_COMPONENTS", bound)
            stack = sample_so(N, range(40 * N, 40 * N + 5))

            def residuals(x):
                if m is None:
                    return coordinate_identity_residuals(x, basis)
                return projector_identity_residuals(x, m, basis)

            stacked = residuals(stack)
            for lane, x in enumerate(stack):
                alone = residuals(x[None])
                assert len(stacked) == len(alone) == 2
                for key, (array, value) in enumerate(zip(stacked, alone)):
                    assert value.shape == (1,)
                    assert array.shape == (5,)
                    assert array[lane] == value[0], (N, m, lane, key)


def _identity_cases(N):
    """(m, residual function) for the coordinates and every projector window of SO(N)."""
    basis = so_basis(N)
    yield None, lambda x: coordinate_identity_residuals(x, basis)
    for m in range(1, N):
        yield m, lambda x, m=m: projector_identity_residuals(x, m, basis)


@pytest.mark.parametrize("N", range(2, 12))
def test_tiled_identity_residuals_equal_the_per_point_reference(monkeypatch, N):
    # Tiles of whole points take each point's pairing tensor by the same
    # GEMM as the per-point reference (numpy hands A^T A to BLAS syrk), so
    # they agree bit for bit.  A slab of j takes its rows by a general GEMM,
    # which OpenBLAS may round differently from syrk: each entry is a sum
    # of B <= 55 products of entries at most 1, so the two agree within
    # 1e-14, fixed before the first run.
    stack = sample_so(N, range(60 * N, 60 * N + 13))
    budgets = {
        "default": ops.IDENTITY_TILE_BYTES,
        "three points": 3 * 8 * N**4,  # 13 points in tiles of 3, 3, 3, 3 and 1
        "two j": 2 * 8 * N**3,  # slabs of two j, the last of one when N is odd
        "one j": 1,
    }
    for name, budget in budgets.items():
        monkeypatch.setattr(ops, "IDENTITY_TILE_BYTES", budget)
        whole_points = 8 * N**4 <= budget
        for m, residuals in _identity_cases(N):
            tau, kappa = residuals(stack)
            want_tau, want_kappa = identity_residuals_per_point(stack, so_basis(N), m)
            assert np.array_equal(tau, want_tau), (name, m)
            if whole_points:
                assert np.array_equal(kappa, want_kappa), (name, m)
            else:
                assert np.max(np.abs(kappa - want_kappa)) <= 1e-14, (name, m)


def test_identity_residuals_at_n_38_hold_no_pairing_tensor(monkeypatch):
    import tracemalloc

    # One so(38) point: one 38^4 pairing tensor is 15.9 MiB.  A loop holding
    # each point's whole tensor peaked at 87.4 MiB (coordinates) and
    # 71.5 MiB (Gr(19,19) projectors); the gradient planes and, for the
    # projectors, the generator tensor they come from peak below 40 MiB, and
    # the tiles may add less than 4 MiB on top of the planes they read.  Both
    # bounds were fixed before the first run.
    tiled = ops._identity_residuals
    marks = []

    def measured(points, basis, planes):
        def measured_planes(X):
            out = planes(X)
            marks.append(tracemalloc.get_traced_memory())
            tracemalloc.reset_peak()
            return out

        return tiled(points, basis, measured_planes)

    monkeypatch.setattr(ops, "_identity_residuals", measured)
    x = sample_so(38, [5])
    basis = so_basis(38)
    for call in (
        lambda: coordinate_identity_residuals(x, basis),
        lambda: projector_identity_residuals(x, 19, basis),
    ):
        marks.clear()
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        (planes_memory, planes_peak), = marks
        assert max(planes_peak, peak) < 40 * 2**20, (planes_peak, peak)
        assert peak - planes_memory < 4 * 2**20, (peak, planes_memory)


def test_forward_laplacian_value_channel_equals_plain_evaluation_exactly():
    x = sample_so(4, 5)
    phi = projector_form(rank_one_from_vector([1, 2, 3]), 2)
    nodes = [
        phi,
        projector_form(rank_one_from_vector([1, 2, 3]), columns=(1, 2, 3)),
        flag_forms((1, 1, 2)).members[2],
        p_harmonic_expr(phi, -4, -2, 3, 1, 1),
        Pow(phi, -0.5),
        Pow(phi, -2),
        Product((Const(2 - 1j), Entry(1, 1), Entry(3, 2), phi)),
    ]
    stack = sample_so(4, range(5, 9))
    for p in (1, 2, 3):
        for node in nodes:
            lifted = laplacian_jet(node, x, m_basis(2, 2), p)
            assert lifted.constant_value() == evaluate(node, x)
            stacked = laplacian_jet(node, stack, m_basis(2, 2), p)
            assert np.array_equal(stacked.constant_value(), evaluate(node, stack))


def test_forward_laplacian_components_are_the_lifted_fields():
    # component (i, j) of an entry at depth 2 is (x M_i M_j)_rc, M_(D-1) = sum Z^2
    basis = so_basis(3)
    x = sample_so(3, 12)
    fields = [np.eye(3), *basis, sum(z @ z for z in basis)]
    lifted = laplacian_jet(Entry(2, 3), x, basis, 2).coeffs.reshape(5, 5)
    want = np.array([[(x @ a @ b)[1, 2] for b in fields] for a in fields])
    np.testing.assert_allclose(lifted, want, atol=1e-15)


def _generator_cases():
    """(form, basis, stack of two points) for every command's basis and
    window, the points scaled by 1 + 0.5j."""
    cases = [
        (f"Gr({m},{n})", projector_form(rank_one_from_vector(np.arange(1.0, m + n)), m), m_basis(m, n),
         sample_so(m + n, range(70 + 2 * n, 72 + 2 * n)))
        for m, n in ((1, 2), (2, 2), (2, 3))
    ]
    for m, n in ((1, 2), (2, 2)):
        A = dual_matrix(rank_one_from_vector(np.arange(1.0, m + n)), m, n)
        points = sample_so_mn(m, n, range(80 + 2 * m, 82 + 2 * m), 0.5)
        cases.append((f"dual({m},{n})", projector_form(A, m), m_basis(m, n, "indefinite"), points))
    for blocks in ((1, 1, 2), (2, 2)):
        for k, form in enumerate(flag_forms(blocks).members):
            cases.append((f"flag{blocks} block {k}", form, so_basis(4), sample_so(4, range(90, 92))))
    return [pytest.param(form, basis, points * (1 + 0.5j), id=name) for name, form, basis, points in cases]


@pytest.mark.parametrize(
    "make_basis, windows, p",
    [
        pytest.param(lambda: so_basis(4), [(1,), (2,), (3, 4)], 3, id="so(4)-112-p3"),
        pytest.param(lambda: so_basis(4), [(1, 2), (3, 4)], 5, id="so(4)-22-p5"),
        pytest.param(lambda: so_basis(5), [(1,), (2,), (3,), (4, 5)], 3, id="so(5)-1112-p3"),
        pytest.param(lambda: so_basis(7), [(1, 2, 3), (4, 5, 6, 7)], 2, id="so(7)-34-p2"),
        pytest.param(lambda: so_basis(38), [tuple(range(1, 20))], 1, id="so(38)-19-p1"),
        pytest.param(lambda: m_basis(2, 3), [(1, 2)], 4, id="Gr(2,3)-p4"),
        pytest.param(lambda: m_basis(2, 2, "indefinite"), [(1, 2)], 3, id="dual(2,2)-p3"),
    ],
)
def test_generator_tensor_of_every_window_equals_the_stacked_reference(make_basis, windows, p):
    # one tensor for all the windows, built level by level in place, against
    # the whole-stack build of each window alone, bit for bit
    basis = make_basis()
    N = basis.shape[-1]
    T = ops._generator_tensor(basis, windows, N, p)
    assert T.shape == (len(windows), (len(basis) + 2) ** p, N, N)
    for tensor, columns in zip(T, windows):
        assert tensor.tobytes() == generator_tensor_reference(basis, columns, N, p).tobytes()


@pytest.mark.parametrize("windows_per_group", [1, 2])
def test_generator_tensors_are_built_in_groups_under_the_lift_bound(monkeypatch, windows_per_group):
    # flag (1,1,2) at p = 2: three windows of 4^2 * 8^2 components each.
    # Under a bound of one or two windows the tensors are built a group at
    # a time, none larger than the bound, and the walk's jet is unchanged
    tree = flag_sum_expr(flag_forms((1, 1, 2)), 2)
    points = sample_so(4, range(40, 43))
    basis = so_basis(4)
    want = laplacian_jet(tree, points, basis, 2).coeffs
    window = 4**2 * 8**2
    bound = windows_per_group * window
    sizes = []
    tensor = ops._generator_tensor

    def recording_tensor(basis, windows, N, p):
        T = tensor(basis, windows, N, p)
        sizes.append(T.size)
        return T

    monkeypatch.setattr(ops, "MAX_LIFT_COMPONENTS", bound)
    monkeypatch.setattr(ops, "_generator_tensor", recording_tensor)
    got = laplacian_jet(tree, points, basis, 2).coeffs
    assert got.tobytes() == want.tobytes()
    assert sizes == [bound] * (3 // windows_per_group) + [window] * (3 % windows_per_group)


def test_gr19_19_projector_planes_hold_no_stack_of_fields():
    import tracemalloc

    # one Gr(19,19) point: the depth-1 generator tensor T and X T X^T are
    # 8.1 MB stacks of 705 so(38) matrices each.  Built from whole stacks (the
    # squares of the basis, the fields, A, A + A^T and their concatenation)
    # the planes peaked at 31.1 MiB; in place, T, the two copies tensordot
    # takes and the two stacks of X T X^T bound it below 24 MiB, a bound
    # fixed before the first run
    x = sample_so(38, [5])
    basis = so_basis(38)
    tracemalloc.start()
    try:
        projector_identity_residuals(x, 19, basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 24 * 2**20, peak


@pytest.mark.parametrize("p", range(1, ops.DEPTH_CAP + 1))
@pytest.mark.parametrize("form, basis, points", _generator_cases())
def test_generator_tensor_jets_match_the_entry_lift(form, basis, points, p):
    # a form's jet from its generator tensor against the entry-lift walk of
    # its expanded tree, on a stack and on one point (one point only at the
    # depth cap): component 0 bit-equal, every other component within 1e-14
    # of the largest component of the check
    tree = expanded_projector_form(form)
    for x in ([points] if p < ops.DEPTH_CAP else []) + [points[0]]:
        got, want = (laplacian_jet(f, x, basis, p).coeffs for f in (form, tree))
        assert got[..., 0].tobytes() == want[..., 0].tobytes()
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), x.shape


def test_one_composition_walk_builds_phis_reciprocal_chain_once(monkeypatch):
    # phi^(-1) log(phi)^2 + log(phi)^2 on Gr(2,2): the power and the log
    # both need 1/phi, and they share one chain, so 1/phi at the point
    # values (the chain's base) is taken once; the squares r^2 of the
    # chain's links at depths 0..p-1, which the chain's next level and the
    # log's g'' both read, are taken once each as well
    phi = projector_form(rank_one_from_vector([1, 2, 3]), 2)
    f = p_harmonic_expr(phi, -4, -2, 3, 1, 1)
    bases, squares = [], []
    reciprocal, times = jets.reciprocal, jets._times

    def counting(value):
        if not isinstance(value, jets.LaplacianJet):
            bases.append(value)
        return reciprocal(value)

    def counting_times(a, b, B, depth):
        if a is b:
            squares.append(depth)
        return times(a, b, B, depth)

    monkeypatch.setattr(jets, "reciprocal", counting)
    monkeypatch.setattr(jets, "_times", counting_times)
    for x in (sample_so(4, range(3)), sample_so(4, 3)):
        bases.clear()
        squares.clear()
        laplacian_jet(f, x, m_basis(2, 2), 3)
        assert len(bases) == 1
        assert sorted(squares) == [0, 1, 2], squares


def test_one_composition_walk_takes_one_positive_power(monkeypatch):
    # phi^(-1) log(phi)^2 + log(phi)^2: both terms read one log(phi)^2
    # node, so the walk's memo raises log(phi) to a positive power once
    phi = projector_form(rank_one_from_vector([1, 2, 3]), 2)
    f = p_harmonic_expr(phi, -4, -2, 3, 1, 1)
    exponents = []
    ipow = expressions.ipow

    def counting(value, exponent):
        exponents.append(exponent)
        return ipow(value, exponent)

    monkeypatch.setattr(expressions, "ipow", counting)
    laplacian_jet(f, sample_so(4, range(3)), m_basis(2, 2), 3)
    assert sorted(exponents) == [-1, 2], exponents


def test_jet_laplacian_matches_finite_differences():
    rng = np.random.default_rng(9)
    basis = so_basis(4)
    for i in range(3):
        x = sample_so(4, 180 + i)
        nodes = [
            window_quadratic(1, 2, range(1, 3)),
            Product((Entry(1, 1), Entry(2, 3))),
            Sum((Entry(1, 1), Product((Const(2), Entry(4, 4), Entry(1, 4))))),
        ]
        for node in nodes:
            jet_value = complex(laplacian(node, x, basis))
            fd_value = fd_laplacian(node, x, basis, step=1e-4)
            assert abs(jet_value - fd_value) <= 1e-6 * (1 + abs(jet_value))


# -- non-descent --------------------------------------------------------------------------


def test_non_descent_witness_found_for_three_blocks():
    node = flag_sum_expr(flag_forms((1, 1, 2)), 2)
    pts = sample_so(4, [190, 191, 192])
    actions = sample_block_diagonal((1, 1, 2), ops.invariance_seeds(3))
    merged = sample_block_diagonal((2, 2), ops.witness_seeds(1, 3))
    worst, best = non_descent_witness(node, merged, pts[:1], (actions, pts))
    assert isinstance(best, float)
    assert best > 1e-6
    # the invariance half is check_invariance's, bit for bit
    assert np.array_equal(worst, check_invariance(node, actions, pts))


def _point_by_point_conditioned_sample(funcs, sampler, count, seed):
    """conditioned_sample's rule one point at a time and one function at a
    time: the median scale from the first max(2 count, 20) draws, then
    single draws until count points are kept or the draw limit is reached."""

    def smallest_safe_value(pt):
        worst = np.inf
        for f in funcs:
            v = complex(evaluate(f, pt))
            if not (ops.ABS_FLOOR <= abs(v) <= ops.ABS_CEIL and np.pi - abs(np.angle(v)) >= ops.CUT_ANGLE):
                return None
            worst = min(worst, abs(v))
        return worst

    batch_size = max(2 * count, 20)
    first = [sampler(seed + i) for i in range(batch_size)]
    mags = [smallest_safe_value(pt) for pt in first]
    floor = ops.FLOOR_RATIO * float(np.median([mag for mag in mags if mag is not None]))
    accepted = [pt for pt, mag in zip(first, mags) if mag is not None and mag >= floor]
    draws = batch_size
    while len(accepted) < count and draws < 60 * count + batch_size:
        pt = sampler(seed + draws)
        draws += 1
        mag = smallest_safe_value(pt)
        if mag is not None and mag >= floor:
            accepted.append(pt)
    return accepted[:count], draws


@given(st.lists(st.floats(min_value=0.0, max_value=1e300, exclude_min=True), min_size=1, max_size=59))
@example([0.5])
@example([0.5, 2.0])
def test_sorted_median_equals_numpy_median_bit_for_bit(values):
    values = np.array(values)
    assert np.float64(ops._median(values)).tobytes() == np.float64(np.median(values)).tobytes()


def test_conditioned_sample_equals_a_point_by_point_loop():
    # Entry(1, 1) is on the log cut at every point with x11 < 0, so fewer than
    # half the first draws qualify and single draws have to follow
    phi = projector_form(rank_one_from_vector([1, 2, 3]), 2)
    family = Stack((phi, Entry(1, 1)))
    for seed in (300, 301, 302):
        got, draws = conditioned_sample(family, lambda s: sample_so(4, s), 12, seed)
        want, want_draws = _point_by_point_conditioned_sample(family.members, lambda s: sample_so(4, s), 12, seed)
        assert draws == want_draws and draws > 24, seed
        assert len(got) == len(want) == 12
        for a, b in zip(got, want):
            assert np.array_equal(a, b), seed


def test_a_handed_in_first_batch_is_not_drawn_again():
    # the first batch drawn by the caller gives the same points and draw count
    # as the one conditioned_sample draws itself, and only the later draws'
    # seeds reach the sampler
    family = Stack((projector_form(rank_one_from_vector([1, 2, 3]), 2), Entry(1, 1)))
    requested = []

    def sampler(seeds):
        requested.append(list(seeds))
        return sample_so(4, seeds)

    for count, seed in ((12, 300), (3, 7)):
        seeds = ops.first_batch_seeds(count, seed)
        assert seeds == range(seed, seed + max(2 * count, 20))
        want, want_draws = conditioned_sample(family, sampler, count, seed)
        assert requested[0] == list(seeds)
        requested.clear()
        got, draws = conditioned_sample(family, sampler, count, seed, sample_so(4, seeds))
        assert draws == want_draws and np.array_equal(got, want)
        assert all(s >= seeds.stop for batch in requested for s in batch)
        requested.clear()
    with pytest.raises(ValueError, match="the first batch holds 20 points, got 19"):
        conditioned_sample(family, sampler, 3, 7, sample_so(4, range(7, 26)))


def test_moved_evaluations_name_the_sample_point_on_a_cut():
    # x11 > 0 at every point and x12 > 0 at point 1 only; the quarter turn R
    # in the (1, 2) plane takes x11 to -x12, onto the cut of log x11 at point 1
    flip_12 = np.diag([-1.0, -1.0, 1.0, 1.0])
    flip_23 = np.diag([1.0, -1.0, -1.0, 1.0])
    pts = sample_so(4, range(60, 63))
    pts = np.where(pts[:, :1, :1] < 0, pts @ flip_12, pts)
    want_positive = np.array([False, True, False])[:, None, None]
    pts = np.where((pts[:, :1, 1:2] > 0) != want_positive, pts @ flip_23, pts)
    R = np.eye(4)
    R[:2, :2] = [[0.0, 1.0], [-1.0, 0.0]]
    f = Log(Entry(1, 1))
    ops.values_at(f, pts)  # would raise if a point itself were on the cut

    trials = ops.invariance_seeds(0)
    one_quarter_turn = np.stack([R if s == trials[1] else np.eye(4) for s in trials])  # the second trial only
    identity = np.stack([np.eye(4) for _ in trials])

    def quarter_turns(count):  # every merged action at `count` points
        return np.stack([R for _ in ops.witness_seeds(count, 0)])

    def identities(count):
        return np.stack([np.eye(4) for _ in ops.witness_seeds(count, 0)])

    # the invariance and witness actions share one evaluation, each stack's
    # points named by their index in it: a cut in the witness stack alone
    # names its point, and a cut in both names the invariance stack's
    cases = [
        (lambda: check_invariance(f, one_quarter_turn, pts), (1,)),
        (lambda: non_descent_witness(f, quarter_turns(2), pts[[1, 0]], (identity, pts)), (0,)),
        (lambda: non_descent_witness(f, quarter_turns(3), pts[[2, 0, 1]], (identity, pts[[0, 2]])), (2,)),
        (lambda: non_descent_witness(f, quarter_turns(2), pts[[1, 0]], (one_quarter_turn, pts)), (1,)),
        (lambda: non_descent_witness(f, identities(3), pts[[2, 0, 1]], (one_quarter_turn, pts[[1, 2]])), (0,)),
    ]
    for check, lanes in cases:
        with pytest.raises(BranchCutError) as caught:
            check()
        assert caught.value.lanes == lanes
        assert str(caught.value).startswith(f"lanes {list(lanes)} "), str(caught.value)
    # a cut no lane is named for, on a value shared by every lane, is raised as it came
    with pytest.raises(BranchCutError) as caught:
        non_descent_witness(Sum((f, Log(Const(-1.0)))), identities(3), pts, (identity, pts))
    assert caught.value.lanes == ()


def test_invariance_and_witness_draw_their_actions_from_the_same_seeds():
    invariance = [5 + 10_000 + j for j in range(ops.INVARIANCE_TRIALS)]
    witness = [5 + 20_000 + i * ops.WITNESS_TRIALS + j for i in range(3) for j in range(ops.WITNESS_TRIALS)]
    assert list(ops.invariance_seeds(5)) == invariance
    assert list(ops.witness_seeds(3, 5)) == witness
    # trial j of point i moves that point by the action of its seed
    f = Entry(1, 2)
    pts = sample_so(4, range(60, 63))
    actions = sample_block_diagonal((2, 2), invariance)
    worst, best = non_descent_witness(f, sample_block_diagonal((2, 2), witness), pts, (actions, pts[:2]))
    assert np.array_equal(worst, check_invariance(f, actions, pts[:2]))
    value = [complex(evaluate(f, x)) for x in pts]
    moved = [
        abs(complex(evaluate(f, pts[i] @ sample_block_diagonal((2, 2), s))) - value[i]) / (1 + abs(value[i]))
        for i in range(3)
        for s in witness[i * ops.WITNESS_TRIALS : (i + 1) * ops.WITNESS_TRIALS]
    ]
    assert best == pytest.approx(max(moved), rel=1e-12)


def test_conditioned_sample_is_deterministic_and_filters_small_values():
    from pharmonic.operators import SamplingExhausted, conditioned_sample

    m, n = 2, 2
    N = m + n
    phi = projector_form(rank_one_from_vector([1, 2, 3]), m)
    pts1, draws1 = conditioned_sample(phi, lambda s: sample_so(N, s), 8, 300)
    pts2, draws2 = conditioned_sample(phi, lambda s: sample_so(N, s), 8, 300)
    assert draws1 == draws2
    for a, b in zip(pts1, pts2):
        np.testing.assert_array_equal(a, b)

    values = [abs(complex(evaluate(phi, p))) for p in pts1]
    scale = np.median(values)
    assert min(values) >= 0.25 * scale * 0.999  # no small-tail points slip through

    with pytest.raises(SamplingExhausted):
        # an empty-window sampler can never qualify
        conditioned_sample(Const(0j), lambda s: sample_so(N, s), 3, 0)


def test_conditioned_sample_that_runs_out_of_draws_says_how_far_it_got():
    # 1 x 1 points: only seed 0 gives a value inside the window, so the
    # first batch of 20 keeps one point and every later draw leaves the window
    def sampler(seeds):
        return np.array([[[1.0 if s == 0 else 0.0]] for s in seeds])

    with pytest.raises(ops.SamplingExhausted, match=r"^only 1/3 conditioned samples after 200 draws$"):
        conditioned_sample(Entry(1, 1), sampler, 3, 0)


def test_dual_context_eigen_relations():
    m, n = 1, 2
    N = m + n
    from pharmonic.expressions import dual_matrix

    A = dual_matrix(rank_one_from_vector([1, 2]), m, n)
    phi = projector_form(A, m)
    pts = sample_so_mn(m, n, range(200, 205), 0.5)
    tau, kappa, _ = check_eigenfunction(eigen_jets(phi, pts, m_basis(m, n, "indefinite")), N, 2)
    assert np.all(tau <= 1e-8) and np.all(kappa <= 1e-8), (tau, kappa)
