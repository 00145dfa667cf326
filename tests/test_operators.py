import numpy as np
import pytest

from pharmonic.expressions import (
    Const,
    Entry,
    Log,
    Pow,
    Product,
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
    gradient_product,
    iterated_laplacian,
    laplacian,
    laplacian_jet,
    non_descent_witness,
    p_harmonic_residuals,
    projector_identity_residuals,
)
from oracles import expanded_projector_form, fd_laplacian, identity_residuals_per_point, k_basis, window_quadratic
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
    res = coordinate_identity_residuals(x, basis)
    assert res["tau_coordinate"][0] <= 1e-12
    assert res["kappa_coordinate"][0] <= 1e-12


def test_projector_identities_batch_and_spot():
    for m, n in ((1, 2), (2, 2), (2, 3)):
        N = m + n
        basis = so_basis(N)
        x = sample_so(N, m * 10 + n)
        res = projector_identity_residuals(x[None], m, basis)
        assert res["tau_projector"][0] <= 1e-11
        assert res["kappa_projector"][0] <= 1e-11

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
    records = check_invariance(
        Entry(1, 1), lambda s: sample_block_diagonal((2, 2), s), pts, tol=1e-10
    )
    assert not all(r.passed for r in records)


def test_projector_form_is_invariant():
    m, n = 2, 3
    pts = sample_so(m + n, range(70, 73))
    phi = projector_form(rank_one_from_vector([1, 2, 3, 4]), m)
    records = check_invariance(
        phi, lambda s: sample_block_diagonal((m, n), s), pts, tol=1e-10
    )
    assert all(r.passed for r in records)


# -- eigen checks ------------------------------------------------------------------------


def test_check_eigenfunction_positive():
    m, n = 2, 3
    N = m + n
    phi = projector_form(rank_one_from_vector([1, 2, 3, 4]), m)
    pts = sample_so(N, range(80, 85))
    records = check_eigenfunction(phi, -N, -2, pts, m_basis(m, n), 1e-8)
    assert all(r.passed for r in records)
    assert max(r.residual for r in records) <= 1e-12


def _counting_walks(monkeypatch):
    """Wrap ops.laplacian_jet; returns the (depth, lanes) of every walk."""
    import pharmonic.operators as ops

    walks = []
    walk = ops.laplacian_jet

    def counting_walk(f, x, basis, p):
        walks.append((p, len(x)))
        return walk(f, x, basis, p)

    monkeypatch.setattr(ops, "laplacian_jet", counting_walk)
    return walks


def test_check_eigenfunction_walks_each_chunk_once(monkeypatch):
    m, n = 2, 2
    phi = projector_form(rank_one_from_vector([1, 2, 3]), m)
    pts = sample_so(m + n, range(70, 73))
    basis = m_basis(m, n)
    # wrong eigenvalues give residuals of order one, so agreement with the
    # one-point operators shows each record reads its own point's lane
    for lam, mu in ((-4, -2), (-3, -1)):
        expected = []
        for pt in pts:
            v = complex(evaluate(phi, pt))
            denom = 1.0 + abs(v) + abs(v) ** 2
            expected.append(abs(laplacian(phi, pt, basis) - complex(lam) * v) / denom)
            expected.append(abs(gradient_product(phi, phi, pt, basis) - complex(mu) * v * v) / denom)
        walks = _counting_walks(monkeypatch)
        records = check_eigenfunction(phi, lam, mu, pts, basis, 1e-8)
        assert walks == [(1, len(pts))]
        got = [r.residual for r in records]
        np.testing.assert_allclose(got, expected, rtol=1e-13, atol=1e-15)
        monkeypatch.undo()


def test_check_eigenfamily_pairs_read_the_members_walks(monkeypatch):
    # the honest two-member family of the test below: one depth-1 walk per
    # member, and the tau and kappa records of each member at every point
    fu = projector_form(rank_one_from_isotropic(np.array([1, 1j, 0, 0])), 1)
    fv = projector_form(rank_one_from_isotropic(np.array([0, 0, 1, 1j])), 1)
    pts = sample_so(4, range(80, 83))
    walks = _counting_walks(monkeypatch)
    records = check_eigenfamily([fu, fv], -4, -2, pts, m_basis(1, 3), 1e-8)
    assert walks == [(1, len(pts))] * 2
    for i in range(2):
        for check in ("tau_eigen", "kappa_eigen"):
            mine = [r for r in records if r.check == f"member{i}_{check}"]
            assert [r.point for r in mine] == list(range(len(pts)))
    assert len(records) == 2 * 2 * len(pts)
    assert all(r.passed for r in records), records


def test_check_eigenfunction_negative_control():
    # traceless symmetric rank-2 matrix: the pairing relation must fail visibly
    m, n = 2, 2
    N = m + n
    bad = np.diag([1.0, -1.0, 0.0, 0.0]).astype(complex)
    phi = projector_form(bad, m=m)
    pts = sample_so(N, range(90, 95))
    records = check_eigenfunction(phi, -N, -2, pts, m_basis(m, n), 1e-8)
    assert not all(r.passed for r in records)
    kappa_res = [r.residual for r in records if r.check == "kappa_eigen"]
    tau_res = [r.residual for r in records if r.check == "tau_eigen"]
    assert max(kappa_res) >= 1e-2
    assert max(tau_res) <= 1e-10  # linear relation survives any traceless matrix


def test_check_eigenfamily_singleton_matches_eigenfunction():
    m, n = 1, 2
    phi = projector_form(rank_one_from_vector([1, 2]), m)
    pts = sample_so(3, range(100, 103))
    fam = check_eigenfamily([phi], -3, -2, pts, m_basis(m, n), 1e-8)
    assert all(r.passed for r in fam)


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
    fam = check_eigenfamily([fu, fv], -N, -2, pts, m_basis(m, n), 1e-8)
    ids = [f"member{i}_{check}" for i in range(2) for check in ("tau_eigen", "kappa_eigen")]
    assert sorted(r.check for r in fam) == sorted(ids * len(pts))
    assert all(r.passed for r in fam), fam


def test_check_eigenfamily_with_constant_fails():
    m, n = 1, 2
    phi = projector_form(rank_one_from_vector([1, 2]), m)
    pts = sample_so(3, range(120, 123))
    fam = check_eigenfamily([phi, Const(1 + 0j)], -3, -2, pts, m_basis(m, n), 1e-8)
    assert not all(r.passed for r in fam)
    assert any(not r.passed and "tau_eigen" in r.check for r in fam)


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
    """(f, basis, point) per case: order-3 compositions, so L and L^2 of f are
    generically nonzero and L^3 f is a true zero."""
    cases = []
    for m, n in ((1, 2), (2, 2)):
        N = m + n
        phi = projector_form(rank_one_from_vector(np.arange(1.0, N)), m)
        pts, _ = conditioned_sample([phi], lambda s, N=N: sample_so(N, s), 1, 400)
        f = p_harmonic_expr(phi, -N, -2, 3, 1, 1)
        cases.append(pytest.param(f, m_basis(m, n), pts[0], id=f"Gr({m},{n})"))
    phi = projector_form(dual_matrix(rank_one_from_vector([1.0, 2.0]), 1, 2), 1)
    pts, _ = conditioned_sample([phi], lambda s: sample_so_mn(1, 2, s, 0.5), 1, 410)
    f = p_harmonic_expr(phi, 3, 2, 3, 1, 1)
    cases.append(pytest.param(f, m_basis(1, 2, "indefinite"), pts[0], id="dual(1,2)"))
    f = flag_sum_expr(flag_forms((1, 1, 2)), 3)
    cases.append(pytest.param(f, so_basis(4), sample_so(4, 420), id="flag(1,1,2)"))
    return cases


@pytest.mark.parametrize("f, basis, x", _oracle_cases())
def test_forward_laplacian_matches_nested_jets(f, basis, x):
    tolerances = {1: 1e-12, 2: 1e-9, 3: 1e-9}
    value = complex(evaluate(f, x))
    previous = value
    for p, tol in tolerances.items():
        got = complex(iterated_laplacian(f, p, x, basis))
        want = complex(_nested_jet_iterated_laplacian(f, p, x, basis))
        scale = 1.0 + abs(value) + abs(previous)
        assert abs(got - want) <= tol * scale, (p, got, want)
        previous = want


def _stack_cases():
    """(f, basis, stack of three points) per case, as in _oracle_cases."""
    cases = []
    for m, n in ((1, 2), (2, 2)):
        N = m + n
        phi = projector_form(rank_one_from_vector(np.arange(1.0, N)), m)
        pts, _ = conditioned_sample([phi], lambda s, N=N: sample_so(N, s), 3, 400)
        f = p_harmonic_expr(phi, -N, -2, 3, 1, 1)
        cases.append(pytest.param(f, m_basis(m, n), pts, id=f"Gr({m},{n})"))
    phi = projector_form(dual_matrix(rank_one_from_vector([1.0, 2.0]), 1, 2), 1)
    pts, _ = conditioned_sample([phi], lambda s: sample_so_mn(1, 2, s, 0.5), 3, 410)
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
    pts, _ = conditioned_sample([phi], lambda s: sample_so(4, s), 3, 500)
    walks = _counting_walks(monkeypatch)
    residuals, witnesses = p_harmonic_residuals(f, 3, pts, basis)
    assert walks == [(3, len(pts))]
    monkeypatch.undo()
    for i, pt in enumerate(pts):
        v = complex(evaluate(f, pt))
        prev = complex(iterated_laplacian(f, 2, pt, basis))
        top = complex(iterated_laplacian(f, 3, pt, basis))
        assert abs(witnesses[i] - abs(prev) / (1 + abs(v))) <= 1e-12 * witnesses[i]
        assert residuals[i] <= 1e-9 and abs(top) / (1 + abs(v) + abs(prev)) <= 1e-9


def test_one_deep_walk_releases_values_after_their_last_read():
    import tracemalloc

    # flag --blocks 1,1,2 --p 4 on four points: three phi jets and the
    # values of their compositions, 0.26 MB each, and product blocks of at
    # most jets.PRODUCT_WORKSPACE_BYTES (8.4 MB); the walk peaks at 11.2 MB,
    # and keeping every node's jet until the walk ends pushes it to 15.2 MB.
    # (At p = 5 on one point the product blocks alone set the peak, which
    # keeping the values does not move.)
    f = flag_sum_expr(flag_forms((1, 1, 2)), 4)
    basis = so_basis(4)
    x = sample_so(4, range(7, 11))
    tracemalloc.start()
    try:
        laplacian_jet(f, x, basis, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 13.5e6, peak


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
        label = "coordinate"

        def entry_jets(jm):
            return jm

        tau_expected = -(N - 1) / 2.0 * X
        kappa_expected = -0.5 * (
            np.einsum("jb,ka->jakb", X, X) - np.einsum("jk,ab->jakb", eye, eye)
        )
    else:
        label = "projector"

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
    return {f"tau_{label}": float(r_tau), f"kappa_{label}": float(r_kappa)}


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
                assert got.keys() == want.keys()
                for key, value in want.items():
                    assert abs(got[key][lane] - value) <= 1e-13, (N, lane, key, got[key][lane], value)


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
                assert stacked.keys() == alone.keys()
                for key, value in alone.items():
                    assert value.shape == (1,)
                    assert stacked[key].shape == (5,)
                    assert stacked[key][lane] == value[0], (N, m, lane, key)


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
            got = residuals(stack)
            want = identity_residuals_per_point(stack, so_basis(N), m)
            assert got.keys() == want.keys()
            for key, value in want.items():
                if whole_points or key.startswith("tau"):
                    assert np.array_equal(got[key], value), (name, m, key)
                else:
                    assert np.max(np.abs(got[key] - value)) <= 1e-14, (name, m, key)


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

    def measured(points, basis, label, planes):
        def measured_planes(X):
            out = planes(X)
            marks.append(tracemalloc.get_traced_memory())
            tracemalloc.reset_peak()
            return out

        return tiled(points, basis, label, measured_planes)

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
        flag_forms((1, 1, 2))[2],
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
        for k, form in enumerate(flag_forms(blocks)):
            cases.append((f"flag{blocks} block {k}", form, so_basis(4), sample_so(4, range(90, 92))))
    return [pytest.param(form, basis, points * (1 + 0.5j), id=name) for name, form, basis, points in cases]


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
    pts = sample_so(4, [190])
    records = non_descent_witness(node, lambda s: sample_block_diagonal((2, 2), s), pts)
    assert all(r.passed for r in records)


def _point_by_point_conditioned_sample(funcs, sampler, count, seed):
    """conditioned_sample's rule one point at a time: the median scale from
    the first max(2 count, 20) draws, then single draws until count points
    are kept or the draw limit is reached."""

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


def test_conditioned_sample_equals_a_point_by_point_loop():
    # Entry(1, 1) is on the log cut at every point with x11 < 0, so fewer than
    # half the first draws qualify and single draws have to follow
    phi = projector_form(rank_one_from_vector([1, 2, 3]), 2)
    funcs = [phi, Entry(1, 1)]
    for seed in (300, 301, 302):
        got, draws = conditioned_sample(funcs, lambda s: sample_so(4, s), 12, seed)
        want, want_draws = _point_by_point_conditioned_sample(funcs, lambda s: sample_so(4, s), 12, seed)
        assert draws == want_draws and draws > 24, seed
        assert len(got) == len(want) == 12
        for a, b in zip(got, want):
            assert np.array_equal(a, b), seed


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

    def one_quarter_turn(seeds):  # R at the second invariance trial only
        return np.stack([R if s == 10_001 else np.eye(4) for s in seeds])

    def quarter_turns(seeds):
        return np.stack([R for _ in seeds])

    for check, sampler in ((check_invariance, one_quarter_turn), (non_descent_witness, quarter_turns)):
        with pytest.raises(BranchCutError) as caught:
            check(f, sampler, pts)
        assert caught.value.lanes == (1,), check.__name__
        assert str(caught.value).startswith("lanes [1] "), str(caught.value)


def test_invariance_and_witness_draw_their_actions_from_the_same_seeds():
    requested = []

    def sampler(seeds):
        requested.append(list(seeds))
        return sample_block_diagonal((2, 2), seeds)

    phi = projector_form(rank_one_from_vector([1, 2, 3]), 2)
    pts = sample_so(4, range(60, 63))
    check_invariance(phi, sampler, pts, seed=5)
    non_descent_witness(phi, sampler, pts, seed=5)
    assert requested == [
        [5 + 10_000 + j for j in range(ops.INVARIANCE_TRIALS)],
        [5 + 20_000 + i * ops.WITNESS_TRIALS + j for i in range(3) for j in range(ops.WITNESS_TRIALS)],
    ]


def test_conditioned_sample_is_deterministic_and_filters_small_values():
    from pharmonic.operators import SamplingExhausted, conditioned_sample

    m, n = 2, 2
    N = m + n
    phi = projector_form(rank_one_from_vector([1, 2, 3]), m)
    pts1, draws1 = conditioned_sample([phi], lambda s: sample_so(N, s), 8, 300)
    pts2, draws2 = conditioned_sample([phi], lambda s: sample_so(N, s), 8, 300)
    assert draws1 == draws2
    for a, b in zip(pts1, pts2):
        np.testing.assert_array_equal(a, b)

    values = [abs(complex(evaluate(phi, p))) for p in pts1]
    scale = np.median(values)
    assert min(values) >= 0.25 * scale * 0.999  # no small-tail points slip through

    with pytest.raises(SamplingExhausted):
        # an empty-window sampler can never qualify
        conditioned_sample(
            [Const(0j)], lambda s: sample_so(N, s), 3, 0
        )


def test_dual_context_eigen_relations():
    m, n = 1, 2
    N = m + n
    from pharmonic.expressions import dual_matrix

    A = dual_matrix(rank_one_from_vector([1, 2]), m, n)
    phi = projector_form(A, m)
    pts = sample_so_mn(m, n, range(200, 205), 0.5)
    records = check_eigenfunction(phi, N, 2, pts, m_basis(m, n, "indefinite"), 1e-8)
    assert all(r.passed for r in records), records
