import cmath

import numpy as np
import pytest

from pharmonic.expressions import (
    Const,
    Entry,
    Log,
    Pow,
    Product,
    ProjectorForm,
    Stack,
    Sum,
    Unstack,
    _readers,
    block_columns,
    dual_matrix,
    evaluate,
    flag_forms,
    flag_sum_expr,
    load_matrix,
    p_harmonic_expr,
    parse_complex,
    parse_vector,
    projector_form,
    rank_one_from_isotropic,
    rank_one_from_vector,
    validate_eigen_matrix,
)
from pharmonic.group import curve_jets, m_basis, minkowski_form, sample_so, sample_so_mn, so_basis
from pharmonic.jets import JetScalar, LaplacianJet, constant
from pharmonic.operators import laplacian_jet

from oracles import (
    compositions,
    expanded_projector_form,
    flag_sum_oracle,
    pairwise_projector_form,
    projector_pairs,
    window_quadratic,
)


# -- projector quadratics ---------------------------------------------------------


def test_projector_entry_single_column():
    node = window_quadratic(2, 3, range(1, 2))
    x = sample_so(4, 0)
    assert evaluate(node, x) == complex(x[1, 0] * x[2, 0])


def test_projector_entry_at_identity():
    eye = np.eye(5)
    for j in range(1, 6):
        for a in range(1, 6):
            expected = 1.0 if (j == a and j <= 2) else 0.0
            assert evaluate(window_quadratic(j, a, range(1, 3)), eye) == expected


def test_projector_diagonal_sums_to_window_size():
    x = sample_so(6, 1)
    for m in (1, 2, 3):
        total = sum(evaluate(window_quadratic(j, j, range(1, m + 1)), x) for j in range(1, 7))
        assert abs(total - m) <= 1e-12


def test_window_quadratic_rejects_empty_window():
    with pytest.raises(ValueError):
        window_quadratic(1, 1, ())
    with pytest.raises(ValueError):
        projector_form(np.eye(3), columns=())


# -- coefficient matrices -----------------------------------------------------------


def test_rank_one_from_vector_reproduces_displayed_matrix():
    A = rank_one_from_vector([1, 0, 0])
    expected = np.array(
        [
            [1, 1j, 0, 0],
            [1j, -1, 0, 0],
            [0, 0, 0, 0],
            [0, 0, 0, 0],
        ]
    )
    np.testing.assert_allclose(A, expected, atol=1e-14)


def test_rank_one_from_isotropic_hand_example():
    A = rank_one_from_isotropic([1, 1j, 0, 0])
    expected = np.array(
        [
            [1, 1j, 0, 0],
            [1j, -1, 0, 0],
            [0, 0, 0, 0],
            [0, 0, 0, 0],
        ]
    )
    np.testing.assert_allclose(A, expected, atol=1e-14)


def test_rank_one_random_vectors_satisfy_structure():
    rng = np.random.default_rng(7)
    for _ in range(10):
        w = rng.uniform(-2, 2, 5) + 1j * rng.uniform(-2, 2, 5)
        val = validate_eigen_matrix(rank_one_from_vector(w))
        assert max(val.values()) <= 1e-10, val


def test_isotropic_scaling_squares_the_matrix():
    u = np.array([1.0, 1j, 0.0])
    A = rank_one_from_isotropic(u)
    B = rank_one_from_isotropic(2.5 * u)
    np.testing.assert_allclose(B, 2.5**2 * A, atol=1e-14)


def test_isotropic_rejections():
    with pytest.raises(ValueError):
        rank_one_from_isotropic([0, 0, 0])
    with pytest.raises(ValueError):
        rank_one_from_isotropic([1, 2, 3])
    with pytest.raises(ValueError):
        rank_one_from_vector([0, 0, 0])


def test_validator_negative_controls():
    zero = validate_eigen_matrix(np.zeros((4, 4)))
    assert list(zero.items()) == [("symmetry", 0.0), ("trace", 0.0), ("square", 0.0), ("rank", 1.0)]

    diag = validate_eigen_matrix(np.diag([1.0, -1.0, 0.0, 0.0]))
    assert diag["square"] > 1e-2 and diag["rank"] > 1e-2
    assert diag["symmetry"] <= 1e-14 and diag["trace"] <= 1e-14


def test_validator_perturbation_sensitivity():
    A = rank_one_from_vector([1, 2, 3]).copy()
    A[0, 1] += 1e-3
    val = validate_eigen_matrix(A)
    assert max(val.values()) > 1e-5


def test_dual_matrix_satisfies_indefinite_conditions():
    m, n = 2, 3
    A = rank_one_from_vector(np.arange(1.0, 5.0))
    Ad = dual_matrix(A, m, n)
    val = validate_eigen_matrix(Ad, form=minkowski_form(m, n))
    assert max(val.values()) <= 1e-10, val
    # the twist breaks the plain square-zero condition in general
    assert max(validate_eigen_matrix(Ad).values()) > 1e-10


# -- quadratic forms ------------------------------------------------------------------


def test_projector_form_at_identity_is_partial_trace():
    m, n = 2, 2
    A = rank_one_from_vector([1, 2, 3])
    value = evaluate(projector_form(A, m), np.eye(4))
    assert abs(value - np.trace(A[:m, :m])) <= 1e-12


def test_projector_form_single_column_square():
    u = np.array([1.0, 1j, 0.0])
    A = rank_one_from_isotropic(u)
    x = sample_so(3, 3)
    direct = (x[0, 0] + 1j * x[1, 0]) ** 2
    assert abs(evaluate(projector_form(A, 1), x) - direct) <= 1e-12


def test_projector_form_linearity():
    m, n = 1, 3
    A = rank_one_from_vector([1, 2, 3])
    B = rank_one_from_vector([2, -1, 1])
    x = sample_so(4, 4)
    lhs = evaluate(projector_form(A + B, m=m), x)
    rhs = evaluate(projector_form(A, m=m), x) + evaluate(projector_form(B, m=m), x)
    assert abs(lhs - rhs) <= 1e-12


def test_projector_form_has_one_term_per_unordered_pair():
    # the node stores S = (A + A^T) / 2 with A's diagonal on the rows it
    # touches, and the oracle's pair list gives back one coefficient per
    # unordered pair, c_jj = A_jj and c_ja = A_ja + A_aj, exactly
    N = 4
    rng = np.random.default_rng(5)
    B = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
    form = projector_form(B + B.T, m=2)
    assert form.rows == (0, 1, 2, 3) and form.columns == (1, 2)
    assert form.weights == tuple(tuple(complex(c) for c in row) for row in B + B.T)

    sparse = np.zeros((N, N), dtype=complex)
    sparse[0, 0], sparse[0, 2], sparse[2, 0] = 1 + 2j, 3, -1
    sparse[1, 3], sparse[3, 1] = 2 - 1j, -2 + 1j  # skew only: rows 1 and 3 untouched
    for A, rows in ((B, (0, 1, 2, 3)), (sparse, (0, 2))):
        form = projector_form(A, m=2)
        S = (A + A.T) / 2
        np.fill_diagonal(S, np.diag(A))
        assert form.rows == rows
        assert form.weight_array.tobytes() == S[np.ix_(rows, rows)].tobytes()
        assert not form.weight_array.flags.writeable
        pairs = [
            ((j + 1, a + 1), c)
            for j in range(N)
            for a in range(j, N)
            if (c := complex(A[j, a] if j == a else A[j, a] + A[a, j]))
        ]
        assert projector_pairs(form) == pairs
    assert len(projector_pairs(projector_form(B, m=2))) == N * (N + 1) // 2


def test_projector_form_equals_unfolded_sum_for_nonsymmetric_coefficients():
    m, n = 2, 3
    N = m + n
    rng = np.random.default_rng(6)
    A = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
    x = sample_so(N, 6)
    unfolded = sum(
        A[j, a] * evaluate(window_quadratic(j + 1, a + 1, range(1, m + 1)), x)
        for j in range(N)
        for a in range(N)
    )
    folded = evaluate(projector_form(A, m=m), x)
    assert abs(folded - unfolded) <= 1e-12 * (1 + abs(unfolded))


def _bits(value) -> bytes:
    """The bytes of a number, a lane array or a jet's coefficients, nested,
    or of each value of a list in turn."""
    if isinstance(value, list):
        return b"".join(_bits(v) for v in value)
    if isinstance(value, JetScalar):
        return b"".join(_bits(c) for c in value.coeffs)
    if isinstance(value, LaplacianJet):
        return value.coeffs.tobytes()
    return np.asarray(value, dtype=complex).tobytes()


def _form_cases():
    """(form, basis, stack of three points) for the forms the commands build.
    The points are scaled by 1 + 0.5j: products of real entries round the
    same with or without a fused multiply-add, complex ones do not."""
    gr22 = projector_form(rank_one_from_vector([1, 2, 3]), 2)
    gr23 = projector_form(rank_one_from_vector([1, 2, 3, 4]), columns=(1, 2, 3))
    dual = projector_form(dual_matrix(rank_one_from_vector([1, 2]), 1, 2), 1)
    cases = [
        ("Gr(2,2)", gr22, m_basis(2, 2), sample_so(4, range(30, 33))),
        ("Gr(2,3) 3-column window", gr23, m_basis(2, 3), sample_so(5, range(33, 36))),
        ("dual(1,2)", dual, m_basis(1, 2, "indefinite"), sample_so_mn(1, 2, range(36, 39), 0.5)),
    ]
    for blocks in ((1, 1, 2), (2, 2)):
        for k, form in enumerate(flag_forms(blocks).members):
            cases.append((f"flag{blocks} block {k}", form, so_basis(4), sample_so(4, range(39, 42))))
    return [pytest.param(form, basis, points * (1 + 0.5j), id=name) for name, form, basis, points in cases]


def _form_checks(form, basis, points):
    """Every value the form and its expanded tree are compared on: a plain
    stack, each plain point, Laplacian-jet stacks and single-point jets at
    p = 1..3, and nested order-2 jets along two basis curves."""
    yield "stack", lambda f: evaluate(f, points)
    yield "each point", lambda f: [evaluate(f, x) for x in points]
    for p in (1, 2, 3):
        yield f"jet stack p={p}", lambda f, p=p: laplacian_jet(f, points, basis, p)
        yield f"jet point p={p}", lambda f, p=p: laplacian_jet(f, points[0], basis, p)
    nested = curve_jets(curve_jets(points[0], basis[0]), basis[-1])
    yield "nested jets", lambda f: evaluate(f, nested)


def _value_bits(value) -> bytes:
    """_bits of a value, of a Laplacian jet only its value channel: the
    form's jet comes from the generator tensor, the tree's from the lifted
    entries, and only component 0 is the same operations on both routes
    (tests/test_operators.py checks the others to roundoff)."""
    return _bits(value.coeffs[..., 0] if isinstance(value, LaplacianJet) else value)


@pytest.mark.parametrize("form, basis, points", _form_cases())
def test_projector_form_equals_its_expanded_tree_bit_for_bit(form, basis, points):
    tree = expanded_projector_form(form)
    for name, value in _form_checks(form, basis, points):
        assert _value_bits(value(form)) == _value_bits(value(tree)), name


def test_expanded_tree_comparison_sees_a_permuted_sum_order():
    # the bytes compared above depend on the order of both sums: a tree
    # summing the products x_jt y_jt, or the terms of each y_jt, in reverse
    # order differs in each check
    form, basis, points = next(c.values for c in _form_cases() if c.id == "Gr(2,3) 3-column window")
    tree = expanded_projector_form(form)
    reversed_products = Sum(tree.terms[::-1])
    reversed_rows = Sum(tuple(Product((x, Sum(y.terms[::-1]))) for x, y in (t.factors for t in tree.terms)))
    for permuted in (reversed_products, reversed_rows):
        for name, value in _form_checks(form, basis, points):
            assert _value_bits(value(form)) != _value_bits(value(permuted)), name


def _roundoff_cases():
    """The forms above, the rank-2 negative control (two rows of four
    touched) and a random non-symmetric complex A, on Gr(2,2) and Gr(2,3)."""
    rng = np.random.default_rng(6)
    control = projector_form(np.diag([1.0, -1.0, 0.0, 0.0]), m=2)
    nonsymmetric = projector_form(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)), m=2)
    return _form_cases() + [
        pytest.param(control, m_basis(2, 2), sample_so(4, range(42, 45)) * (1 + 0.5j), id="control"),
        pytest.param(nonsymmetric, m_basis(2, 3), sample_so(5, range(45, 48)) * (1 + 0.5j), id="nonsymmetric"),
    ]


@pytest.mark.parametrize("form, basis, points", _roundoff_cases())
def test_projector_form_agrees_with_its_pairwise_products_to_roundoff(form, basis, points):
    # the linear rewrite against the P |W| entry products it replaced: every
    # value and component within 1e-13 of the largest one of its check
    tree = pairwise_projector_form(form)
    for name, value in _form_checks(form, basis, points):
        got, want = (np.frombuffer(_bits(value(f)), dtype=complex) for f in (form, tree))
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), name


def test_projector_form_needs_window():
    A = rank_one_from_vector([1, 2, 3])
    with pytest.raises(ValueError):
        projector_form(A)


# -- scalar-generic evaluation ---------------------------------------------------------


def _lifted(x, order=2):
    return tuple(tuple(constant(v, (order,)) for v in row) for row in x)


def test_plain_evaluation_equals_jet_coefficient_zero_exactly():
    x = sample_so(4, 5)
    A = rank_one_from_vector([1, 2, 3])
    nodes = [
        window_quadratic(1, 2, range(1, 3)),
        projector_form(A, 2),
        projector_form(A, columns=(1, 2, 3)),
        p_harmonic_expr(projector_form(A, 2), -4, -2, 2, 1, 1),
        Pow(projector_form(A, 2), -0.5),
        Product((Const(2 - 1j), Entry(1, 1), Entry(3, 2))),
    ]
    for node in nodes:
        plain = evaluate(node, x)
        jet = evaluate(node, _lifted(x))
        assert jet.coefficient(0) == plain


def test_shared_subtrees_are_evaluated_once_per_call():
    class CountingMatrix:
        def __init__(self, x):
            self.x, self.reads = x, 0

        def __getitem__(self, r):
            self.reads += 1
            return self.x[r]

    shared = Product((Entry(1, 1), Entry(1, 1)))
    node = Sum((shared, Product((shared, shared)), Log(shared)))
    m = CountingMatrix(sample_so(3, 4))
    value = evaluate(node, m)
    assert m.reads == 2
    v = m.x[0, 0] ** 2
    assert abs(value - (v + v * v + cmath.log(v))) <= 1e-14
    assert evaluate(node, m) == value and m.reads == 4


def test_sum_and_product_nodes():
    x = np.eye(2)
    node = Sum((Const(1 + 1j), Product((Const(2), Entry(1, 1)))))
    assert evaluate(node, x) == 3 + 1j
    assert evaluate(Pow(Const(2), 10), x) == 1024 + 0j
    assert abs(evaluate(Log(Const(np.e)), x) - 1) <= 1e-15


# -- p-harmonic compositions ------------------------------------------------------------


def test_p_harmonic_case_dispatch_values():
    A = rank_one_from_vector([1, 2, 3])
    phi = projector_form(A, 2)
    x = sample_so(4, 6)
    v = evaluate(phi, x)

    # vanishing conformality eigenvalue: single log power, second coefficient unused
    node = p_harmonic_expr(phi, -3, 0, 2, c1=2, c2=5)
    assert abs(evaluate(node, x) - 2 * np.log(complex(v))) <= 1e-12

    # equal eigenvalues at p = 1: c1 log + c2
    node = p_harmonic_expr(phi, -2, -2, 1, c1=3, c2=7)
    assert abs(evaluate(node, x) - (3 * np.log(complex(v)) + 7)) <= 1e-12

    # distinct eigenvalues at p = 1: c1 phi^(1 - lam/mu) + c2
    node = p_harmonic_expr(phi, -4, -2, 1, c1=1, c2=4)
    assert abs(evaluate(node, x) - (complex(v) ** (-1.0) + 4)) <= 1e-12


def _subtrees(node):
    yield node
    children = {Sum: "terms", Product: "factors"}.get(type(node))
    if children:
        for child in getattr(node, children):
            yield from _subtrees(child)
    elif isinstance(node, Pow):
        yield from _subtrees(node.base)
    elif isinstance(node, Log):
        yield from _subtrees(node.child)


def test_two_term_composition_shares_one_log_node():
    # one Log node per composition, so the identity memo runs its series once
    phi = projector_form(rank_one_from_vector([1, 2, 3]), 2)
    node = p_harmonic_expr(phi, -4, -2, 3, c1=1, c2=1)
    logs = {id(n) for n in _subtrees(node) if isinstance(n, Log)}
    assert len(node.terms) == 2
    assert len(logs) == 1


def test_p_harmonic_rejections():
    phi = Entry(1, 1)
    with pytest.raises(ValueError):
        p_harmonic_expr(phi, 0, 0, 2)
    with pytest.raises(ValueError):
        p_harmonic_expr(phi, 0, -2, 2)
    with pytest.raises(ValueError):
        p_harmonic_expr(phi, -4, -2, 0)


# -- flags ---------------------------------------------------------------------------


def test_flag_forms_validation():
    with pytest.raises(ValueError):
        flag_forms((4,))
    with pytest.raises(ValueError):
        flag_forms((2, 0))


def _form_bits(form: ProjectorForm) -> tuple:
    hexed = tuple(tuple((w.real.hex(), w.imag.hex()) for w in row) for row in form.weights)
    return form.rows, form.columns, hexed


@pytest.mark.parametrize(
    "sizes",
    [pytest.param(n, id=f"{n} columns") for n in range(2, 9)]
    + [pytest.param((1,) * t, id=f"{t} one-column blocks") for t in (10, 12, 38)],
)
def test_flag_forms_equal_the_per_block_projector_forms_bit_for_bit(sizes):
    # member k is projector_form(rank_one_from_vector(w_k)) over block k,
    # weight by weight down to the sign of zero
    for blocks in compositions(sizes) if isinstance(sizes, int) else [sizes]:
        n = sum(blocks)
        for k, form in enumerate(flag_forms(blocks).members):
            A = rank_one_from_vector(np.arange(1, n, dtype=float) + k)
            alone = projector_form(A, columns=block_columns(blocks, k))
            assert _form_bits(form) == _form_bits(alone), (blocks, k)


def test_compositions_cover_every_partition_order():
    assert sorted(compositions(4)) == [(1, 1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 3), (2, 1, 1), (2, 2), (3, 1)]
    assert sum(1 for _ in compositions(8)) == 2**7 - 1


def test_block_columns():
    assert block_columns((1, 1, 2), 0) == (1,)
    assert block_columns((1, 1, 2), 1) == (2,)
    assert block_columns((1, 1, 2), 2) == (3, 4)


FLAG_PARTITIONS = [(1, 1, 2), (2, 1, 1), (2, 2), (1, 1, 1, 1), (1, 2, 2), (1, 1, 1, 2)]


@pytest.mark.parametrize("blocks", FLAG_PARTITIONS, ids=str)
@pytest.mark.parametrize("p", [1, 2, 3])
def test_flag_sum_of_flag_forms_equals_the_sum_built_per_block(blocks, p):
    """The sum composed from flag_forms equals, bit for bit, the sum built
    block by block from each generator and its column window."""
    n = sum(blocks)
    by_block = Sum(
        tuple(
            p_harmonic_expr(
                projector_form(
                    rank_one_from_vector(np.arange(1, n, dtype=float) + k),
                    columns=block_columns(blocks, k),
                ),
                -n, -2, p, 1, (k + 1) / 2,
            )
            for k in range(len(blocks))
        )
    )
    X = sample_so(n, range(50, 53))
    expected = evaluate(by_block, X)
    assert np.array_equal(evaluate(flag_sum_expr(flag_forms(blocks), p), X), expected)


@pytest.mark.parametrize("blocks", FLAG_PARTITIONS, ids=str)
@pytest.mark.parametrize("p", [1, 2, 3])
def test_flag_sum_jets_equal_the_per_block_oracle(blocks, p):
    """Every component of the lane-stacked tree's jet equals, bit for bit,
    that of the per-block Sum, on a stack of points; component 0 equals
    plain evaluation of the stacked tree."""
    n = sum(blocks)
    forms = flag_forms(blocks)
    X = sample_so(n, range(50, 53)) * (1 + 0.5j)
    basis = so_basis(n)
    got = laplacian_jet(flag_sum_expr(forms, p), X, basis, p).coeffs
    want = laplacian_jet(flag_sum_oracle(forms, p), X, basis, p).coeffs
    assert got.shape == (len(X), (len(basis) + 2) ** p)
    assert got.tobytes() == want.tobytes()
    assert got[:, 0].tobytes() == evaluate(flag_sum_expr(forms, p), X).tobytes()


def test_fifth_order_flag_jet_equals_the_per_block_oracle():
    # at the depth cap on (2, 2), one point.  It is walked as a stack of one:
    # on a stack every tree runs numpy's lane arithmetic, while at a bare
    # point the per-block tree runs on Python numbers (cmath), whose log and
    # powers may round differently from numpy's in the last place
    forms = flag_forms((2, 2))
    x = sample_so(4, range(60, 61))
    got = laplacian_jet(flag_sum_expr(forms, 5), x, so_basis(4), 5).coeffs
    want = laplacian_jet(flag_sum_oracle(forms, 5), x, so_basis(4), 5).coeffs
    assert got.shape == (1, 8**5)  # a stack of one point keeps its lane axis
    assert got.tobytes() == want.tobytes()


def test_flag_sum_at_one_bare_point_has_no_lane_axis():
    # at a bare point the stack's only axis is its block axis, which the
    # Unstack root sums away: a scalar value, and a jet of D**p components
    forms = flag_forms((1, 1, 2))
    x = sample_so(4, 7)
    tree = flag_sum_expr(forms, 2)
    value = evaluate(tree, x)
    assert np.ndim(value) == 0
    jet = laplacian_jet(tree, x, so_basis(4), 2).coeffs
    assert jet.shape == (8**2,)
    assert jet[0] == value
    stacked = laplacian_jet(forms, x, so_basis(4), 2).coeffs
    assert stacked.shape == (3, 8**2)


def _flag_stack(node):
    """The Stack of a p = 2 flag sum, reached through its composition:
    Unstack(... + c2 log(phi)), phi the stack."""
    assert isinstance(node, Unstack)
    log_phi = node.child.terms[-1].factors[-1]
    assert isinstance(log_phi, Log) and isinstance(log_phi.child, Stack)
    return log_phi.child


@pytest.mark.parametrize("blocks", FLAG_PARTITIONS, ids=str)
def test_flag_sum_terms_read_the_given_forms(blocks):
    # one composition over the block family: the tree's stack is the given
    # family itself, and the tree reads each of its forms once, there
    family = flag_forms(blocks)
    node = flag_sum_expr(family, 2)
    assert len(family.members) == len(blocks)
    assert all(isinstance(phi, ProjectorForm) for phi in family.members)
    assert _flag_stack(node) is family
    readers = _readers(node)
    for phi in family.members:
        assert readers[id(phi)] == 1


def test_flag_sum_builds_three_terms():
    # three blocks: three stacked forms under one composition,
    # phi^(-1) log(phi) + c2 log(phi), whose c2 gives each block its own
    node = flag_sum_expr(flag_forms((1, 1, 2)), 2)
    assert len(_flag_stack(node).members) == 3
    assert isinstance(node.child, Sum) and len(node.child.terms) == 2
    c2 = node.child.terms[1].factors[0]
    assert isinstance(c2, Stack) and all(isinstance(c, Const) for c in c2.members)
    assert [c.value for c in c2.members] == [0.5, 1.0, 1.5]
    x = sample_so(4, 7)
    value = evaluate(node, x)
    assert np.isfinite(value.real) and np.isfinite(value.imag)


def test_flag_sum_invariant_under_block_rotations():
    from pharmonic.group import sample_block_diagonal

    node = flag_sum_expr(flag_forms((1, 1, 2)), 2)
    x = sample_so(4, 8)
    v = evaluate(node, x)
    for seed in range(5):
        k = sample_block_diagonal((1, 1, 2), seed)
        assert abs(evaluate(node, x @ k) - v) <= 1e-10 * (1 + abs(v))


def test_flag_sum_changes_under_merged_rotation():
    from pharmonic.group import sample_block_diagonal

    node = flag_sum_expr(flag_forms((1, 1, 2)), 2)
    x = sample_so(4, 9)
    v = evaluate(node, x)
    changes = [
        abs(evaluate(node, x @ sample_block_diagonal((2, 2), seed)) - v)
        for seed in range(20)
    ]
    assert max(changes) > 1e-6


# -- parsing and files --------------------------------------------------------------


def test_parse_complex_cells():
    assert parse_complex("1.5:-2") == 1.5 - 2j
    assert parse_complex("3") == 3 + 0j
    assert parse_complex(" 0:1 ") == 1j
    with pytest.raises(ValueError):
        parse_complex("")


def test_parse_vector():
    np.testing.assert_array_equal(parse_vector("1,2:1,3"), np.array([1, 2 + 1j, 3]))


def test_matrix_file_roundtrip(tmp_path):
    A = rank_one_from_vector([1, 2, 3])
    path = tmp_path / "a.csv"
    rows = [",".join(f"{v.real}:{v.imag}" for v in row) for row in A]
    path.write_text("\n".join(rows) + "\n")
    np.testing.assert_allclose(load_matrix(path), A, atol=1e-14)


def test_matrix_json_roundtrip(tmp_path):
    import json

    A = rank_one_from_vector([1, 1])
    path = tmp_path / "a.json"
    path.write_text(json.dumps([[[v.real, v.imag] for v in row] for row in A]))
    np.testing.assert_allclose(load_matrix(path), A, atol=1e-14)
