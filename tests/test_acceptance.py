"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one verdict line per
criterion.  Each test prints its line before asserting, so failures still
report their measured values.
"""

import time

import numpy as np

from pharmonic.expressions import (
    dual_matrix,
    evaluate,
    Const,
    Entry,
    Product,
    Sum,
    flag_forms,
    flag_sum_expr,
    p_harmonic_expr,
    projector_form,
    rank_one_from_vector,
    validate_eigen_matrix,
)
from pharmonic.group import m_basis, sample_block_diagonal, sample_so, sample_so_mn, so_basis
from pharmonic.jets import BranchCutError
from pharmonic.operators import (
    check_eigenfamily,
    check_eigenfunction,
    check_invariance,
    conditioned_sample,
    coordinate_identity_residuals,
    eigen_jets,
    invariance_seeds,
    laplacian,
    laplacian_jet,
    non_descent_witness,
    p_harmonic_residuals,
    projector_identity_residuals,
    witness_seeds,
)
from pharmonic.symcalc import (
    EigenParams,
    SymExpr,
    p_harmonic_combination,
    verify_p_harmonic,
)
from oracles import apply_laplacian, as_expr_node, evaluate_sym, fd_laplacian, k_basis
from product_rule import check_product_rule

GRASSMANN_SHAPES = [(1, 2), (2, 2), (2, 3), (3, 4)]


def verdict(number, label, ok, detail):
    print(f"criterion {number:02d} {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_01_calibration():
    worst = 0.0
    worst_time = 0.0
    for N in range(2, 9):
        basis = so_basis(N)
        start = time.perf_counter()
        tau, kappa = coordinate_identity_residuals(sample_so(N, range(1000 * N, 1000 * N + 20)), basis)
        # np.max, not max: a NaN residual must reach the verdict
        worst = np.max([worst, tau.max(), kappa.max()])
        worst_time = max(worst_time, time.perf_counter() - start)
    ok = worst <= 1e-9 and worst_time < 5.0
    verdict(1, "calibration", ok, f"max residual {worst:.2e} <= 1e-9, worst N {worst_time:.2f}s < 5s")


def test_criterion_02_projector_identities():
    worst = 0.0
    for m, n in GRASSMANN_SHAPES:
        basis = so_basis(m + n)
        tau, kappa = projector_identity_residuals(sample_so(m + n, range(2000, 2020)), m, basis)
        worst = np.max([worst, tau.max(), kappa.max()])
    verdict(2, "projector identities", worst <= 1e-9, f"max residual {worst:.2e} <= 1e-9")


def test_criterion_03_eigenfunction_theorem():
    worst = 0.0
    rng = np.random.default_rng(3)
    for m, n in GRASSMANN_SHAPES:
        N = m + n
        basis = m_basis(m, n)
        points = sample_so(N, range(3000, 3010))
        for _ in range(5):
            w = rng.uniform(-2, 2, N - 1) + 1j * rng.uniform(-2, 2, N - 1)
            phi = projector_form(rank_one_from_vector(w), m)
            tau, kappa, _ = check_eigenfunction(eigen_jets(phi, points, basis), -N, -2)
            assert np.all(tau <= 1e-8) and np.all(kappa <= 1e-8), (tau, kappa)
            worst = np.max([worst, tau.max(), kappa.max()])

    # negative control: traceless symmetric rank-2 coefficients break the
    # pairing relation by a visible margin
    bad = np.diag([1.0, -1.0, 0.0, 0.0]).astype(complex)
    phi_bad = projector_form(bad, m=2)
    points = sample_so(4, range(3500, 3510))
    _, kappa, _ = check_eigenfunction(eigen_jets(phi_bad, points, m_basis(2, 2)), -4, -2)
    kappa_worst = kappa.max()
    ok = worst <= 1e-8 and kappa_worst >= 1e-2
    verdict(3, "eigenfunction theorem", ok,
            f"max residual {worst:.2e} <= 1e-8, control kappa defect {kappa_worst:.2e} >= 1e-2")


def test_criterion_04_matrix_validators():
    rng = np.random.default_rng(4)
    worst = 0.0
    for k in range(6):
        size = int(rng.integers(3, 8))
        w = rng.uniform(-2, 2, size) + 1j * rng.uniform(-2, 2, size)
        A = rank_one_from_vector(w)
        residual = max(validate_eigen_matrix(A).values())
        assert residual <= 1e-10, residual
        worst = max(worst, residual)

        perturbed = A.copy()
        perturbed[0, 1] += 1e-3
        assert max(validate_eigen_matrix(perturbed).values()) > 1e-10
    verdict(4, "matrix validators", worst <= 1e-10,
            f"max structural residual {worst:.2e} <= 1e-10, 1e-3 perturbations rejected")


def test_criterion_05_p_harmonicity():
    # exact side: all three eigenvalue patterns, orders 1..8, both coefficient axes
    case_params = [
        EigenParams.of(-3, 0),
        EigenParams.of(-2, -2),
        EigenParams.of(-4, -2),
        EigenParams.of(-7, -2),
    ]
    for params in case_params:
        for p in range(1, 9):
            for c1, c2 in ((1, 0), (0, 1)):
                v = verify_p_harmonic(params, p, c1, c2)
                assert v.p_harmonic
            assert verify_p_harmonic(params, p, 1, 0).proper
            if not params.mu.is_zero():
                assert verify_p_harmonic(params, p, 0, 1).proper

    # numerical side
    start = time.perf_counter()
    worst_res = 0.0
    least_witness = float("inf")
    for m, n in ((1, 2), (2, 2)):
        N = m + n
        phi = projector_form(rank_one_from_vector(np.arange(1.0, N)), m)
        basis = m_basis(m, n)
        points, _ = conditioned_sample(phi, lambda s: sample_so(N, s), 20, 5000)
        for p in (2, 3):
            composed = p_harmonic_expr(phi, -N, -2, p, 1, 1)
            accepted = 0
            for x in points:
                if accepted >= 10:
                    break
                try:
                    (residual,), (witness,) = p_harmonic_residuals(composed, p, x[None], basis)
                except BranchCutError:
                    continue
                if witness < 1e-3:
                    continue
                accepted += 1
                worst_res = np.max([worst_res, residual])
                least_witness = np.min([least_witness, witness])
            assert accepted >= 10, f"only {accepted} accepted samples for (m,n,p)=({m},{n},{p})"
    elapsed = time.perf_counter() - start
    ok = worst_res <= 1e-5 and least_witness >= 1e-3 and elapsed < 60.0
    verdict(5, "p-harmonicity", ok,
            f"exact kill all cases p<=8; numeric max {worst_res:.2e} <= 1e-5, "
            f"witness >= {least_witness:.2e}, {elapsed:.1f}s < 60s")


def test_criterion_06_invariance_and_lift():
    worst_inv = 0.0
    worst_rel = 0.0
    worst_k = 0.0
    for m, n in ((2, 2), (2, 3)):
        N = m + n
        phi = projector_form(rank_one_from_vector(np.arange(1.0, N)), m)
        points = sample_so(N, range(6000, 6005))
        changes = check_invariance(phi, sample_block_diagonal((m, n), invariance_seeds(0)), points)
        assert np.all(changes <= 1e-10), changes
        worst_inv = np.max([worst_inv, changes.max()])
        for x in points:
            full = complex(laplacian(phi, x, so_basis(N)))
            quot = complex(laplacian(phi, x, m_basis(m, n)))
            worst_rel = np.max([worst_rel, abs(full - quot) / (1 + abs(full))])
            for b in k_basis(m, n):
                worst_k = np.max([worst_k, abs(laplacian_jet(phi, x, b[None], 1).coeffs[-1])])
    ok = worst_inv <= 1e-10 and worst_rel <= 1e-9 and worst_k <= 1e-11
    verdict(6, "invariance and lift", ok,
            f"invariance {worst_inv:.2e} <= 1e-10, basis split {worst_rel:.2e} <= 1e-9, "
            f"k-directions {worst_k:.2e} <= 1e-11")


def test_criterion_07_flag_construction():
    worst_family = 0.0
    worst_tau = 0.0
    worst_inv = 0.0
    least_witness = float("inf")
    for blocks in ((1, 1, 2), (2, 1, 1)):
        n = sum(blocks)
        block_forms = flag_forms(blocks)
        basis = so_basis(n)
        points = sample_so(n, range(7000, 7010))

        for tau, kappa in check_eigenfamily(eigen_jets(block_forms, points, basis), -n, -2):
            assert np.all(tau <= 1e-8) and np.all(kappa <= 1e-8), (tau, kappa)
            worst_family = np.max([worst_family, tau.max(), kappa.max()])

        total = flag_sum_expr(block_forms, 2)
        candidates, _ = conditioned_sample(block_forms, lambda s: sample_so(n, s), 15, 7100)
        accepted = []
        for x in candidates:
            if len(accepted) >= 10:
                break
            try:
                (residual,), (witness,) = p_harmonic_residuals(total, 2, x[None], basis)
            except BranchCutError:
                continue
            if witness < 1e-3:
                continue
            accepted.append(x)
            worst_tau = np.max([worst_tau, residual])
        assert len(accepted) >= 10

        actions = sample_block_diagonal(blocks, invariance_seeds(0))
        changes = check_invariance(total, actions, np.stack(accepted))
        assert np.all(changes <= 1e-10), changes
        worst_inv = np.max([worst_inv, changes.max()])

        merged = (blocks[0] + blocks[1],) + tuple(blocks[2:])
        same_changes, witness = non_descent_witness(
            total,
            sample_block_diagonal(merged, witness_seeds(1, 0)),
            np.stack(accepted[:1]),
            (actions, np.stack(accepted)),
        )
        assert np.array_equal(same_changes, changes)
        assert witness >= 1e-6, witness
        least_witness = min(least_witness, witness)
    ok = worst_family <= 1e-8 and worst_tau <= 1e-5 and worst_inv <= 1e-10 and least_witness > 1e-6
    verdict(7, "flag construction", ok,
            f"families {worst_family:.2e} <= 1e-8, sum residual {worst_tau:.2e} <= 1e-5, "
            f"invariance {worst_inv:.2e} <= 1e-10, descent witness {least_witness:.2e} > 1e-6")


def test_criterion_08_duality():
    worst_eigen = 0.0
    worst_tau = 0.0
    for m, n in ((1, 2), (2, 2)):
        N = m + n
        A_dual = dual_matrix(rank_one_from_vector(np.arange(1.0, N)), m, n)
        phi = projector_form(A_dual, m)
        basis = m_basis(m, n, "indefinite")
        points = sample_so_mn(m, n, range(8000, 8010), radius=0.5)
        tau, kappa, _ = check_eigenfunction(eigen_jets(phi, points, basis), N, 2)
        assert np.all(tau <= 1e-8) and np.all(kappa <= 1e-8), (tau, kappa)
        worst_eigen = np.max([worst_eigen, tau.max(), kappa.max()])

        composed = p_harmonic_expr(phi, N, 2, 2, 1, 1)
        iter_points, _ = conditioned_sample(
            phi, lambda s: sample_so_mn(m, n, s, 0.5), 10, 8200
        )
        accepted = 0
        for x in iter_points:
            try:
                (residual,), (witness,) = p_harmonic_residuals(composed, 2, x[None], basis)
            except BranchCutError:
                continue
            if witness < 1e-3:
                continue
            accepted += 1
            worst_tau = np.max([worst_tau, residual])
        assert accepted >= 5
    ok = worst_eigen <= 1e-8 and worst_tau <= 1e-5
    verdict(8, "duality", ok,
            f"sign-flipped eigen {worst_eigen:.2e} <= 1e-8, dual order-2 {worst_tau:.2e} <= 1e-5")


def _random_polynomial(rng, N):
    terms = []
    for _ in range(int(rng.integers(2, 4))):
        deg = int(rng.integers(1, 4))
        entries = tuple(
            Entry(int(rng.integers(1, N + 1)), int(rng.integers(1, N + 1)))
            for _ in range(deg)
        )
        coeff = Const(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
        terms.append(Product((coeff,) + entries))
    return Sum(tuple(terms))


def test_criterion_09_cross_oracles():
    # jets against central differences on polynomial trees
    rng = np.random.default_rng(9)
    N = 4
    basis = so_basis(N)
    worst_fd = 0.0
    for i in range(5):
        x = sample_so(N, 9000 + i)
        node = _random_polynomial(rng, N)
        jet_value = complex(laplacian(node, x, basis))
        fd_value = fd_laplacian(node, x, basis, step=1e-4)
        worst_fd = np.max([worst_fd, abs(jet_value - fd_value) / (1 + abs(jet_value))])

    # exact rewrite against the numerical operator through composed trees
    m, n = 1, 2
    params = EigenParams.of(-3, -2)
    phi = projector_form(rank_one_from_vector([1, 2]), m)
    quotient = m_basis(m, n)
    exprs = [
        SymExpr.term(1, 1, 0),
        SymExpr.term(1, 0, 1) + SymExpr.term(2, 2, 0),
        p_harmonic_combination(params, 2, 1, 1),
    ]
    worst_sym = 0.0
    for i in range(10):
        x = sample_so(3, 9100 + i)
        v = complex(evaluate(phi, x))
        for e in exprs:
            numeric = complex(laplacian(as_expr_node(e, phi), x, quotient))
            symbolic = complex(evaluate_sym(apply_laplacian(e, params), v))
            worst_sym = np.max([worst_sym, abs(numeric - symbolic) / (1 + abs(numeric))])
    ok = worst_fd <= 1e-6 and worst_sym <= 1e-7
    verdict(9, "cross oracles", ok,
            f"finite differences {worst_fd:.2e} <= 1e-6, exact rewrite {worst_sym:.2e} <= 1e-7")


def test_criterion_10_product_rule():
    rng = np.random.default_rng(10)
    N = 4
    basis = so_basis(N)
    points = sample_so(N, range(10_000, 10_020))
    worst = 0.0
    for _ in range(5):
        f = _random_polynomial(rng, N)
        g = _random_polynomial(rng, N)
        report = check_product_rule(f, g, points, basis, 1e-10)
        assert report.passed
        worst = np.max([worst, report.max_residuals["product_rule"]])
    verdict(10, "product rule", worst <= 1e-10, f"max residual {worst:.2e} <= 1e-10")
