import ast
import inspect
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pharmonic.expressions import evaluate, p_harmonic_expr, projector_form, rank_one_from_vector
from pharmonic.group import m_basis, sample_so
from pharmonic.jets import variable
from pharmonic import symcalc
from pharmonic.operators import DEPTH_CAP, laplacian
from pharmonic.symcalc import (
    EigenParams,
    GaussianRational,
    SymExpr,
    p_harmonic_combination,
    verify_p_harmonic,
)
from oracles import apply_laplacian, apply_laplacian_reference, as_expr_node, evaluate_sym, iterate_laplacian

rationals = st.fractions(
    min_value=-5, max_value=5, max_denominator=6
)
gaussians = st.builds(GaussianRational, rationals, rationals)


# -- Gaussian rationals ------------------------------------------------------------


@given(gaussians, gaussians, gaussians)
@settings(max_examples=60, deadline=None)
def test_gaussian_rational_ring_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * (b * c) == (a * b) * c
    assert a + b == b + a
    assert a - a == GaussianRational(Fraction(0))


@given(gaussians)
@settings(max_examples=60, deadline=None)
def test_gaussian_rational_division(a):
    if not a.is_zero():
        assert (a / a) == GaussianRational(Fraction(1))
        assert ((a * a) / a) == a


def test_gaussian_rational_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        GaussianRational.of(1) / GaussianRational.of(0)


def test_gaussian_rational_complex_conversion():
    g = GaussianRational(Fraction(3, 2), Fraction(-1, 4))
    assert g.to_complex() == 1.5 - 0.25j


# -- the rewrite --------------------------------------------------------------------


def test_rewrite_fixes_degree_one():
    params = EigenParams.of(-5, -2)
    e = SymExpr.term(1, 1, 0)
    assert apply_laplacian(e, params) == e.scale(-5)


def test_rewrite_kills_log_at_equal_eigenvalues():
    params = EigenParams.of(-2, -2)
    e = SymExpr.term(1, 0, 1)
    assert apply_laplacian(e, params).is_zero()


def test_rewrite_kills_the_eigen_exponent():
    # the exponent 1 - lam/mu sits in the kernel of the degree coefficient
    params = EigenParams.of(-4, -2)
    e = SymExpr.term(1, Fraction(-1), 0)
    assert apply_laplacian(e, params).is_zero()
    params = EigenParams.of(-3, -2)
    e = SymExpr.term(1, Fraction(-1, 2), 0)
    assert apply_laplacian(e, params).is_zero()


def test_rewrite_is_linear():
    params = EigenParams.of(-4, -2)
    a = SymExpr.term(GaussianRational(Fraction(2), Fraction(1)), Fraction(-1), 2)
    b = SymExpr.term(1, 0, 3)
    assert apply_laplacian(a + b, params) == apply_laplacian(a, params) + apply_laplacian(b, params)


def test_rewrite_matches_explicit_formula():
    # L T(a,b) = (a lam + a(a-1) mu) T(a,b) + b (lam + (2a-1) mu) T(a,b-1)
    #          + b(b-1) mu T(a,b-2), spot-checked at concrete numbers.
    lam, mu = -7, -3
    a, b = Fraction(2), 3
    out = apply_laplacian(SymExpr.term(1, a, b), EigenParams.of(lam, mu))
    assert out.coefficient(a, b).to_complex() == (2 * lam + 2 * 1 * mu)
    assert out.coefficient(a, b - 1).to_complex() == 3 * (lam + 3 * mu)
    assert out.coefficient(a, b - 2).to_complex() == 6 * mu


exponents = st.fractions(min_value=-5, max_value=5, max_denominator=7)
sym_exprs = st.lists(
    st.builds(SymExpr.term, gaussians, exponents, st.integers(0, 6)), min_size=1, max_size=3
).map(lambda terms: sum(terms, SymExpr.zero()))
eigen_params = st.tuples(gaussians, gaussians).filter(
    lambda lam_mu: not (lam_mu[0].is_zero() and lam_mu[1].is_zero())
)


@given(sym_exprs, eigen_params, st.integers(0, 6))
@settings(max_examples=80, deadline=None)
def test_iterate_equals_term_by_term_reference(expr, lam_mu, k):
    # the one integer pass against k Fraction-valued term-by-term steps
    params = EigenParams(*lam_mu)
    expected = expr
    for _ in range(k):
        expected = apply_laplacian_reference(expected, params)
    assert iterate_laplacian(expr, k, params) == expected


# -- the three-case combination -------------------------------------------------------


def test_combination_case_shapes():
    c1 = GaussianRational.of(1)
    c2 = GaussianRational.of(1)

    e = p_harmonic_combination(EigenParams.of(-4, -2), 2, c1, c2)
    assert e.coefficient(Fraction(-1), 1) == c1
    assert e.coefficient(Fraction(0), 1) == c2

    e = p_harmonic_combination(EigenParams.of(-2, -2), 1, c1, c2)
    assert e.coefficient(Fraction(0), 1) == c1
    assert e.coefficient(Fraction(0), 0) == c2

    e = p_harmonic_combination(EigenParams.of(-3, 0), 3, c1, c2)
    assert e.coefficient(Fraction(0), 2) == c1
    assert len(e.terms()) == 1


def test_combination_rejections():
    with pytest.raises(ValueError):
        EigenParams.of(0, 0)
    with pytest.raises(ValueError):
        p_harmonic_combination(EigenParams.of(0, -2), 2, 1, 1)
    with pytest.raises(ValueError):
        p_harmonic_combination(EigenParams.of(-4, -2), 0, 1, 1)
    with pytest.raises(ValueError):
        # non-real eigenvalue ratio has no rational exponent
        p_harmonic_combination(
            EigenParams(GaussianRational.of(1), GaussianRational(Fraction(0), Fraction(1))),
            2, 1, 1,
        )


# -- exact p-harmonicity ---------------------------------------------------------------


CASE_PARAMS = [
    EigenParams.of(-3, 0),
    EigenParams.of(2, 0),
    EigenParams.of(-2, -2),
    EigenParams.of(4, 4),
    EigenParams.of(-4, -2),
    EigenParams.of(-5, -2),
    EigenParams.of(-8, -2),
    EigenParams.of(3, 1),
]


@pytest.mark.parametrize("params", CASE_PARAMS)
@pytest.mark.parametrize("p", range(1, 9))
def test_iterate_kills_combination_exactly(params, p):
    for c1, c2 in ((1, 0), (0, 1)):
        expr = p_harmonic_combination(params, p, c1, c2)
        assert iterate_laplacian(expr, p, params).is_zero()


@pytest.mark.parametrize("params", CASE_PARAMS)
@pytest.mark.parametrize("p", range(1, 9))
def test_previous_iterate_survives(params, p):
    verdict = verify_p_harmonic(params, p, 1, 0)
    assert verdict.p_harmonic and verdict.proper
    # the second basis coefficient is inert only in the vanishing-mu case
    verdict2 = verify_p_harmonic(params, p, 0, 1)
    assert verdict2.p_harmonic
    if not params.mu.is_zero():
        assert verdict2.proper


def test_grassmannian_parameter_grid():
    # the eigenvalue pairs (-(m+n), -2) realized on the quotients, orders 1..5
    for total in range(3, 9):
        params = EigenParams.of(-total, -2)
        for p in range(1, 6):
            verdict = verify_p_harmonic(params, p, 1, 1)
            assert verdict.p_harmonic and verdict.proper


def test_zero_coefficients_are_harmonic_but_not_proper():
    verdict = verify_p_harmonic(EigenParams.of(-4, -2), 3, 0, 0)
    assert verdict.p_harmonic and not verdict.proper


def test_case_one_closed_form():
    # (p-1)-fold iteration of T(0, p-1) at mu = 0 gives (p-1)! lam^(p-1) T(0,0)
    lam = -3
    params = EigenParams.of(lam, 0)
    for p in range(1, 7):
        out = iterate_laplacian(SymExpr.term(1, 0, p - 1), p - 1, params)
        expected = 1
        for b in range(1, p):
            expected *= b * lam
        assert out == SymExpr.term(expected, 0, 0)


def test_duality_involution_and_verdict():
    params, dual = EigenParams.of(-5, -2), EigenParams.of(5, 2)
    e = p_harmonic_combination(params, 3, 2, 3)
    # negating both eigenvalues negates the rewrite, so doing it twice is the identity
    assert apply_laplacian(e, dual) == -apply_laplacian(e, params)
    v = verify_p_harmonic(params, 3, 1, 1)
    vd = verify_p_harmonic(dual, 3, 1, 1)
    assert (v.p_harmonic, v.proper) == (vd.p_harmonic, vd.proper)


@pytest.mark.parametrize("sign", [-1, 1], ids=["pharmonic", "dual"])
@pytest.mark.parametrize("N", range(2, 9))
def test_verdict_equals_reference_for_every_cli_parameter_set(N, sign):
    # pharmonic builds (-N, -2), dual (N, 2); each at every p the CLI accepts
    params = EigenParams.of(sign * N, sign * 2)
    for p in range(1, DEPTH_CAP + 1):
        for c1, c2 in ((1, 0), (0, 1), (1, 1)):
            previous = p_harmonic_combination(params, p, c1, c2)
            for _ in range(p - 1):
                previous = apply_laplacian_reference(previous, params)
            final = apply_laplacian_reference(previous, params)
            verdict = verify_p_harmonic(params, p, c1, c2)
            assert verdict.p_harmonic == final.is_zero()
            assert verdict.proper == (not previous.is_zero())
            assert verdict.final == previous


# -- evaluation bridges ------------------------------------------------------------------


def test_evaluate_sym_basics():
    one = SymExpr.term(1, 0, 0)
    lin = SymExpr.term(1, 1, 0)
    for v in (0.5 + 0.2j, 2 + 0j, -1 + 3j):
        assert evaluate_sym(one, v) == 1 + 0j
        assert evaluate_sym(lin, v) == v
    assert evaluate_sym(SymExpr.zero(), 2 + 0j) == 0j


def test_evaluate_sym_on_jets_matches_composition():
    e = SymExpr.term(2, Fraction(-1), 1) + SymExpr.term(1, Fraction(1, 2), 0)
    v = variable(1.3 + 0.4j, 2)
    got = evaluate_sym(e, v)
    z = 1.3 + 0.4j
    direct = 2 * z ** (-1) * np.log(z) + z**0.5
    assert abs(got.coefficient(0) - direct) <= 1e-12


def test_expression_tree_bridge_matches_numeric_builder():
    A = rank_one_from_vector([1, 2, 3])
    phi = projector_form(A, 2)
    x = sample_so(4, 12)
    params = EigenParams.of(-4, -2)
    for p in (1, 2, 3):
        tree = as_expr_node(p_harmonic_combination(params, p, 1, 1), phi)
        direct = p_harmonic_expr(phi, -4, -2, p, 1, 1)
        assert abs(evaluate(tree, x) - evaluate(direct, x)) <= 1e-12


def test_symbolic_laplacian_matches_jet_operator():
    # independent route: push random combinations through the numerical
    # Laplacian of the composed tree and compare against the rewrite image
    # evaluated at the function value.
    m, n = 1, 2
    N = m + n
    params = EigenParams.of(-N, -2)
    A = rank_one_from_vector([1, 2])
    phi = projector_form(A, m)
    basis = m_basis(m, n)
    exprs = [
        SymExpr.term(1, 1, 0),
        SymExpr.term(1, 0, 1),
        SymExpr.term(2, Fraction(-1), 1) + SymExpr.term(1, 0, 2),
        SymExpr.term(1, Fraction(1, 2), 0),
        p_harmonic_combination(params, 2, 1, 1),
    ]
    for i in range(10):
        x = sample_so(N, 40 + i)
        v = complex(evaluate(phi, x))
        for e in exprs:
            numeric = complex(laplacian(as_expr_node(e, phi), x, basis))
            symbolic = complex(evaluate_sym(apply_laplacian(e, params), v))
            assert abs(numeric - symbolic) <= 1e-7 * (1 + abs(numeric) + abs(symbolic))


def _imported_modules(path: Path) -> list[str]:
    """Every module a source file imports, at any depth (imports inside
    functions too); a relative import keeps its leading dots."""
    imported = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    return imported


def test_symcalc_imports_no_pharmonic_module():
    # the exact route must share no code with the numeric one it is compared with
    imported = _imported_modules(Path(symcalc.__file__))
    offending = [name for name in imported if name.startswith(".") or name.split(".")[0] == "pharmonic"]
    assert not offending, offending


def test_no_package_module_imports_scipy():
    # scipy is a test dependency only: the package's own modules never import it
    modules = sorted(Path(symcalc.__file__).parent.rglob("*.py"))
    assert len(modules) >= 8, modules
    offending = {
        path.name: names
        for path in modules
        if (names := [name for name in _imported_modules(path) if name.split(".")[0] == "scipy"])
    }
    assert not offending, offending


def test_operators_import_nothing_from_reports():
    # operators returns residual arrays; the CLI alone judges them against
    # thresholds and writes the check records
    from pharmonic import operators

    imported = _imported_modules(Path(operators.__file__))
    assert not [name for name in imported if name.split(".")[-1] == "reports"], imported
    functions = [f for f in vars(operators).values() if inspect.isfunction(f)]
    taking_tol = [f.__name__ for f in functions if "tol" in inspect.signature(f).parameters]
    assert not taking_tol, taking_tol
