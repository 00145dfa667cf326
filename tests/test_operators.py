import numpy as np
import pytest

from pharmonic.expressions import (
    Const,
    Entry,
    Pow,
    Product,
    Sum,
    evaluate,
    p_harmonic_expr,
    projector_form,
    rank_one_from_isotropic,
    rank_one_from_vector,
    window_quadratic,
)
from pharmonic.expressions import default_flag_spec, dual_matrix, flag_sum_expr
from pharmonic.group import curve_jets, k_basis, sample_block_diagonal, sample_so, sample_so_mn
from pharmonic.jets import JetScalar
from pharmonic.operators import (
    check_eigenfamily,
    check_eigenfunction,
    check_invariance,
    conditioned_sample,
    coordinate_identity_residuals,
    dual_context,
    fd_laplacian,
    full_context,
    gradient_product,
    iterated_laplacian,
    laplacian,
    laplacian_jet,
    non_descent_witness,
    p_harmonic_residuals,
    projector_identity_residuals,
    quotient_context,
)
from product_rule import check_product_rule


# -- closed-form coordinate identities ------------------------------------------------


def test_coordinate_laplacian_matches_closed_form():
    for N in (2, 4, 6):
        ctx = full_context(N)
        x = sample_so(N, N)
        for j, a in ((1, 1), (1, N), (N - 1, 2)):
            got = laplacian(Entry(j, a), x, ctx)
            want = -(N - 1) / 2 * x.entries[j - 1, a - 1]
            assert abs(got - want) <= 1e-10 * (1 + abs(want))


def test_coordinate_pairing_matches_closed_form():
    N = 5
    ctx = full_context(N)
    x = sample_so(N, 17)
    rng = np.random.default_rng(2)
    for _ in range(8):
        j, a, k, b = (int(v) + 1 for v in rng.integers(0, N, 4))
        got = gradient_product(Entry(j, a), Entry(k, b), x, ctx)
        want = -0.5 * (
            x.entries[j - 1, b - 1] * x.entries[k - 1, a - 1]
            - (j == k) * (a == b)
        )
        assert abs(got - want) <= 1e-10 * (1 + abs(want))


def test_batch_residuals_agree_with_operator_calls():
    N = 4
    ctx = full_context(N)
    x = sample_so(N, 23)
    res = coordinate_identity_residuals(x, ctx)
    assert res["tau_coordinate"] <= 1e-12
    assert res["kappa_coordinate"] <= 1e-12


def test_projector_identities_batch_and_spot():
    for m, n in ((1, 2), (2, 2), (2, 3)):
        N = m + n
        ctx = full_context(N)
        x = sample_so(N, m * 10 + n)
        res = projector_identity_residuals(x, m, ctx)
        assert res["tau_projector"] <= 1e-11
        assert res["kappa_projector"] <= 1e-11

        # spot-check one entry through the per-function operators
        S = x.entries[:, :m] @ x.entries[:, :m].T
        node = window_quadratic(1, 2, range(1, m + 1))
        got = laplacian(node, x, ctx)
        want = -N * S[0, 1]
        assert abs(got - want) <= 1e-10 * (1 + abs(want))


def test_projector_laplacian_includes_diagonal_offset():
    m, n = 2, 2
    N = m + n
    ctx = full_context(N)
    x = sample_so(N, 31)
    S = x.entries[:, :m] @ x.entries[:, :m].T
    got = laplacian(window_quadratic(1, 1, range(1, m + 1)), x, ctx)
    want = -N * S[0, 0] + m
    assert abs(got - want) <= 1e-10


def test_constants_are_annihilated():
    ctx = full_context(3)
    x = sample_so(3, 3)
    assert abs(laplacian(Const(2 + 3j), x, ctx)) <= 1e-14
    assert abs(gradient_product(Entry(1, 1), Const(5), x, ctx)) <= 1e-14


def test_laplacian_linearity_and_pairing_bilinearity():
    ctx = full_context(4)
    x = sample_so(4, 5)
    f, g = window_quadratic(1, 2, range(1, 3)), window_quadratic(3, 3, range(1, 3))
    af, bg = Product((Const(2 - 1j), f)), Product((Const(0.5j), g))
    combo = Sum((af, bg))
    lhs = laplacian(combo, x, ctx)
    rhs = (2 - 1j) * laplacian(f, x, ctx) + 0.5j * laplacian(g, x, ctx)
    assert abs(lhs - rhs) <= 1e-11 * (1 + abs(lhs))

    s1 = gradient_product(f, g, x, ctx)
    s2 = gradient_product(g, f, x, ctx)
    assert abs(s1 - s2) <= 1e-11 * (1 + abs(s1))
    lhs = gradient_product(combo, g, x, ctx)
    rhs = (2 - 1j) * gradient_product(f, g, x, ctx) + 0.5j * gradient_product(g, g, x, ctx)
    assert abs(lhs - rhs) <= 1e-11 * (1 + abs(lhs))


# -- invariance and basis splitting ---------------------------------------------------


def test_k_directions_annihilate_invariant_functions():
    m, n = 2, 3
    x = sample_so(m + n, 7)
    phi = projector_form(rank_one_from_vector([1, 2, 3, 4], (m, n)))
    for b in k_basis(m, n):
        assert abs(laplacian_jet(phi, x, (b,), 1).coeffs[-1]) <= 1e-11


def test_full_basis_equals_quotient_basis_on_invariant_functions():
    m, n = 2, 2
    x = sample_so(m + n, 8)
    phi = projector_form(rank_one_from_vector([1, 2, 3], (m, n)))
    full = laplacian(phi, x, full_context(m + n))
    quot = laplacian(phi, x, quotient_context(m, n))
    assert abs(full - quot) <= 1e-9 * (1 + abs(full))


def test_coordinates_are_not_invariant():
    pts = [sample_so(4, 60 + i) for i in range(3)]
    report = check_invariance(
        Entry(1, 1), lambda s: sample_block_diagonal((2, 2), s), pts, tol=1e-10
    )
    assert not report.passed


def test_projector_form_is_invariant():
    m, n = 2, 3
    pts = [sample_so(m + n, 70 + i) for i in range(3)]
    phi = projector_form(rank_one_from_vector([1, 2, 3, 4], (m, n)))
    report = check_invariance(
        phi, lambda s: sample_block_diagonal((m, n), s), pts, tol=1e-10
    )
    assert report.passed


# -- eigen checks ------------------------------------------------------------------------


def test_check_eigenfunction_positive():
    m, n = 2, 3
    N = m + n
    phi = projector_form(rank_one_from_vector([1, 2, 3, 4], (m, n)))
    pts = [sample_so(N, 80 + i) for i in range(5)]
    report = check_eigenfunction(phi, -N, -2, pts, quotient_context(m, n), 1e-8)
    assert report.passed
    assert max(report.max_residuals.values()) <= 1e-12


def test_check_eigenfunction_walks_each_point_once(monkeypatch):
    import pharmonic.operators as ops

    m, n = 2, 2
    phi = projector_form(rank_one_from_vector([1, 2, 3], (m, n)))
    pts = [sample_so(m + n, 70 + i) for i in range(3)]
    ctx = quotient_context(m, n)
    expected = []
    for pt in pts:
        v = complex(evaluate(phi, pt.entries))
        denom = 1.0 + abs(v) + abs(v) ** 2
        expected.append(abs(laplacian(phi, pt, ctx) - complex(-4) * v) / denom)
        expected.append(abs(gradient_product(phi, phi, pt, ctx) - complex(-2) * v * v) / denom)

    depths = []
    walk = ops.laplacian_jet

    def counting_walk(f, x, basis, p):
        depths.append(p)
        return walk(f, x, basis, p)

    monkeypatch.setattr(ops, "laplacian_jet", counting_walk)
    report = check_eigenfunction(phi, -4, -2, pts, ctx, 1e-8)
    assert depths == [1] * len(pts)
    assert [r.residual for r in report.checks] == expected


def test_check_eigenfunction_negative_control():
    # traceless symmetric rank-2 matrix: the pairing relation must fail visibly
    m, n = 2, 2
    N = m + n
    bad = np.diag([1.0, -1.0, 0.0, 0.0]).astype(complex)
    phi = projector_form(bad, m=m)
    pts = [sample_so(N, 90 + i) for i in range(5)]
    report = check_eigenfunction(phi, -N, -2, pts, quotient_context(m, n), 1e-8)
    assert not report.passed
    kappa_res = [r.residual for r in report.records_for("kappa_eigen")]
    tau_res = [r.residual for r in report.records_for("tau_eigen")]
    assert max(kappa_res) >= 1e-2
    assert max(tau_res) <= 1e-10  # linear relation survives any traceless matrix


def test_check_eigenfamily_singleton_matches_eigenfunction():
    m, n = 1, 2
    phi = projector_form(rank_one_from_vector([1, 2], (m, n)))
    pts = [sample_so(3, 100 + i) for i in range(3)]
    fam = check_eigenfamily([phi], -3, -2, pts, quotient_context(m, n), 1e-8)
    assert fam.passed


def test_check_eigenfamily_two_members_single_column():
    # two orthogonal isotropic generators over a width-one window form an
    # honest family: all pairing products collapse to mu f g
    m, n = 1, 3
    N = m + n
    u = np.array([1, 1j, 0, 0])
    v = np.array([0, 0, 1, 1j])
    fu = projector_form(rank_one_from_isotropic(u, (m, n)))
    fv = projector_form(rank_one_from_isotropic(v, (m, n)))
    pts = [sample_so(N, 110 + i) for i in range(5)]
    fam = check_eigenfamily([fu, fv], -N, -2, pts, quotient_context(m, n), 1e-8)
    assert fam.passed, fam.max_residuals


def test_check_eigenfamily_with_constant_fails():
    m, n = 1, 2
    phi = projector_form(rank_one_from_vector([1, 2], (m, n)))
    pts = [sample_so(3, 120 + i) for i in range(3)]
    fam = check_eigenfamily([phi, Const(1 + 0j)], -3, -2, pts, quotient_context(m, n), 1e-8)
    assert not fam.passed
    assert any(not r.passed and "tau_eigen" in r.check for r in fam.checks)


# -- product rule -------------------------------------------------------------------------


def test_product_rule_on_coordinates():
    pts = [sample_so(3, 130 + i) for i in range(5)]
    report = check_product_rule(Entry(1, 1), Entry(1, 1), pts, full_context(3), 1e-10)
    assert report.passed


def test_product_rule_with_constant_reduces_to_linearity():
    pts = [sample_so(3, 140 + i) for i in range(3)]
    report = check_product_rule(Entry(2, 1), Const(3 - 2j), pts, full_context(3), 1e-12)
    assert report.passed


def test_product_rule_on_projector_entries():
    pts = [sample_so(4, 150 + i) for i in range(20)]
    f, g = window_quadratic(1, 1, range(1, 3)), window_quadratic(1, 2, range(1, 3))
    report = check_product_rule(f, g, pts, full_context(4), 1e-10)
    assert report.passed


# -- iterated Laplacian --------------------------------------------------------------------


def test_iterated_laplacian_base_cases():
    ctx = full_context(3)
    x = sample_so(3, 160)
    phi = window_quadratic(1, 1, range(1, 2))
    assert iterated_laplacian(phi, 0, x, ctx) == evaluate(phi, x.entries)
    one = iterated_laplacian(phi, 1, x, ctx)
    assert abs(one - laplacian(phi, x, ctx)) <= 1e-13


def test_iterated_laplacian_depth_cap():
    ctx = full_context(3)
    x = sample_so(3, 161)
    with pytest.raises(ValueError):
        iterated_laplacian(Entry(1, 1), 6, x, ctx)


def test_second_order_composition_is_biharmonic_but_not_harmonic():
    m, n = 1, 2
    N = m + n
    phi = projector_form(rank_one_from_vector([1, 2], (m, n)))
    composed = p_harmonic_expr(phi, -N, -2, 2, 1, 0)
    ctx = quotient_context(m, n)
    hits = 0
    for i in range(5):
        x = sample_so(N, 170 + i)
        residual, witness = p_harmonic_residuals(composed, 2, x, ctx)
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
    for b in basis:
        value = _nested_jet_iterated_laplacian(f, p - 1, curve_jets(X, b.matrix, order=2), basis)
        if isinstance(value, JetScalar):
            total = total + value.coefficient(2) * 2
    return total


def _oracle_cases():
    """(f, context, point) per case: order-3 compositions, so L and L^2 of f are
    generically nonzero and L^3 f is a true zero."""
    cases = []
    for m, n in ((1, 2), (2, 2)):
        N = m + n
        phi = projector_form(rank_one_from_vector(np.arange(1.0, N), (m, n)))
        pts, _ = conditioned_sample([phi], lambda s, N=N: sample_so(N, s), 1, 400)
        f = p_harmonic_expr(phi, -N, -2, 3, 1, 1)
        cases.append(pytest.param(f, quotient_context(m, n), pts[0], id=f"Gr({m},{n})"))
    phi = projector_form(dual_matrix(rank_one_from_vector([1.0, 2.0], (1, 2))))
    pts, _ = conditioned_sample([phi], lambda s: sample_so_mn(1, 2, s, 0.5), 1, 410)
    f = p_harmonic_expr(phi, 3, 2, 3, 1, 1)
    cases.append(pytest.param(f, dual_context(1, 2), pts[0], id="dual(1,2)"))
    f = flag_sum_expr(default_flag_spec((1, 1, 2)), 3)
    cases.append(pytest.param(f, full_context(4), sample_so(4, 420), id="flag(1,1,2)"))
    return cases


@pytest.mark.parametrize("f, ctx, x", _oracle_cases())
def test_forward_laplacian_matches_nested_jets(f, ctx, x):
    tolerances = {1: 1e-12, 2: 1e-9, 3: 1e-9}
    value = complex(evaluate(f, x))
    previous = value
    for p, tol in tolerances.items():
        got = complex(iterated_laplacian(f, p, x, ctx))
        want = complex(_nested_jet_iterated_laplacian(f, p, x.entries, ctx.basis))
        scale = 1.0 + abs(value) + abs(previous)
        assert abs(got - want) <= tol * scale, (p, got, want)
        previous = want


def _curve_jet_identity_residuals(x, ctx, m=None):
    """The closed-form identity residuals from order-2 jets along each basis
    curve x . exp(eps Z): of the coordinate functions when m is None, else of
    the projector quadratics of the first m columns, built entry by entry
    from jet products."""
    X = x.entries
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
    for b in ctx.basis:
        jets = entry_jets(curve_jets(X, b.matrix, order=2))
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
    # checks the planes themselves, not just that both sides are near zero
    for N in range(2, 9):
        ctx = full_context(N, scale=scale)
        x = sample_so(N, 700 + N)
        pairs = [(coordinate_identity_residuals(x, ctx), _curve_jet_identity_residuals(x, ctx))]
        pairs += [
            (projector_identity_residuals(x, m, ctx), _curve_jet_identity_residuals(x, ctx, m))
            for m in range(1, N)
        ]
        for got, want in pairs:
            assert got.keys() == want.keys()
            for key, value in want.items():
                assert abs(got[key] - value) <= 1e-13, (N, key, got[key], value)


def test_forward_laplacian_value_channel_equals_plain_evaluation_exactly():
    x = sample_so(4, 5)
    phi = projector_form(rank_one_from_vector([1, 2, 3], (2, 2)))
    nodes = [
        phi,
        p_harmonic_expr(phi, -4, -2, 3, 1, 1),
        Pow(phi, -0.5),
        Pow(phi, -2),
        Product((Const(2 - 1j), Entry(1, 1), Entry(3, 2), phi)),
    ]
    for p in (1, 2, 3):
        for node in nodes:
            lifted = laplacian_jet(node, x, quotient_context(2, 2).basis, p)
            assert lifted.constant_value() == evaluate(node, x)


def test_forward_laplacian_components_are_the_lifted_fields():
    # component (i, j) of an entry at depth 2 is (x M_i M_j)_rc, M_(D-1) = sum Z^2
    ctx = full_context(3)
    x = sample_so(3, 12)
    zs = [b.matrix for b in ctx.basis]
    fields = [np.eye(3), *zs, sum(z @ z for z in zs)]
    lifted = laplacian_jet(Entry(2, 3), x, ctx.basis, 2).coeffs.reshape(5, 5)
    want = np.array([[(x.entries @ a @ b)[1, 2] for b in fields] for a in fields])
    np.testing.assert_allclose(lifted, want, atol=1e-15)


def test_jet_laplacian_matches_finite_differences():
    rng = np.random.default_rng(9)
    ctx = full_context(4)
    for i in range(3):
        x = sample_so(4, 180 + i)
        nodes = [
            window_quadratic(1, 2, range(1, 3)),
            Product((Entry(1, 1), Entry(2, 3))),
            Sum((Entry(1, 1), Product((Const(2), Entry(4, 4), Entry(1, 4))))),
        ]
        for node in nodes:
            jet_value = complex(laplacian(node, x, ctx))
            fd_value = fd_laplacian(node, x, ctx, step=1e-4)
            assert abs(jet_value - fd_value) <= 1e-6 * (1 + abs(jet_value))


# -- non-descent --------------------------------------------------------------------------


def test_non_descent_witness_found_for_three_blocks():
    from pharmonic.expressions import default_flag_spec, flag_sum_expr

    spec = default_flag_spec((1, 1, 2))
    node = flag_sum_expr(spec, 2)
    pts = [sample_so(4, 190)]
    report = non_descent_witness(node, lambda s: sample_block_diagonal((2, 2), s), pts)
    assert report.passed


def test_conditioned_sample_is_deterministic_and_filters_small_values():
    from pharmonic.operators import SamplingExhausted, conditioned_sample

    m, n = 2, 2
    N = m + n
    phi = projector_form(rank_one_from_vector([1, 2, 3], (m, n)))
    pts1, draws1 = conditioned_sample([phi], lambda s: sample_so(N, s), 8, 300)
    pts2, draws2 = conditioned_sample([phi], lambda s: sample_so(N, s), 8, 300)
    assert draws1 == draws2
    for a, b in zip(pts1, pts2):
        np.testing.assert_array_equal(a.entries, b.entries)

    values = [abs(complex(evaluate(phi, p.entries))) for p in pts1]
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

    A = dual_matrix(rank_one_from_vector([1, 2], (m, n)))
    phi = projector_form(A)
    pts = [sample_so_mn(m, n, 200 + i, 0.5) for i in range(5)]
    report = check_eigenfunction(phi, N, 2, pts, dual_context(m, n), 1e-8)
    assert report.passed, report.max_residuals
