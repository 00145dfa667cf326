"""Reference constructions for the tests.

The term-by-term Laplacian rewrite over Fraction-valued Gaussian rationals:
the route pharmonic.symcalc replaced with its one pass in Gaussian integers,
and the reference that pass is checked against, order by order; and one
and k applications of that pass, read from its list of images.

The bridges from the exact symbolic calculus to the numeric side:
pharmonic.symcalc imports no other pharmonic module, and these helpers
join its combinations to jet arithmetic and expression trees on the test
side only, so the routes they compare share no code in the package.

The order-2p Taylor series of log, reciprocal and powers of a
LaplacianJet, evaluated by Horner: the expansion the package's level-by-level
rule replaced, and the reference it is checked against.

The projector quadratics as trees of Entry products: the expanded linear
rewrite of a ProjectorForm node, whose value the node must reproduce bit
for bit, and the P |W| pairwise products it replaced, which it must match
to roundoff, read from the per-pair encoding the node's weights give back
exactly.

The level-by-level product of two LaplacianJet component arrays: the kernel
the package's term maps replaced, and the reference they are checked
against.

One step of the level rule with both operands of its 2B + 1 products
built by np.concatenate, g' broadcast to B + 1 rows: the step that
pharmonic.jets._level's operands, written into one new array and taken by
one gather, replaced, and the reference it must equal bit for bit.

The flag function as a Sum of one p-harmonic composition per block form:
the per-block tree that pharmonic.expressions.flag_sum_expr's one
composition over the forms' lane stack replaced, and the reference it must
equal bit for bit.

The generator tensor of one window built from whole stacks: the (B, N, N)
squares of the basis, the fields, A + A^T and each level's concatenation,
which pharmonic.operators._generator_tensor's in-place levels replaced, and
the reference it must equal bit for bit.

The eigen checks' depth-1 jets from a depth-1 walk of the plain points
alone: the walk that the depth-p walk's pairing of the plain points, against
the depth-1 rows of its generator tensors, replaced, and the reference
those jets must equal bit for bit.

The closed-form identity residuals with each point's whole N^4 pairing
tensor built on its own, one GEMM and one einsum expectation per point: the
loop the package's cache-sized tiles replaced, and the reference they are
checked against.

The curve x . exp(t Z) for a jet parameter t, summed as the exponential
series in jet arithmetic: the route curve_jets' coefficient recurrence
replaced, and the reference it is checked against.

The central-difference Laplacian along scipy's matrix exponential, which
shares nothing with jet arithmetic, and the skew basis of SO(m) x SO(n),
from which the tests build directions that invariant functions must not
see.  scipy is a test dependency only.
"""

from fractions import Fraction

import numpy as np
from scipy.linalg import expm

from pharmonic.expressions import Const, Entry, Log, Pow, Product, ProjectorForm, Sum, evaluate, p_harmonic_expr
from pharmonic.group import _unit
from pharmonic.jets import JetScalar, _times, constant, ipow, jlog, jpow, nilpotent_part, reciprocal, shape_of
from pharmonic.operators import _generator_tensor, _lift, laplacian_jet
from pharmonic.symcalc import EigenParams, GaussianRational, SymExpr, _laplacian_images


def apply_laplacian_reference(expr: SymExpr, params: EigenParams) -> SymExpr:
    """One application of L T(a,b) = (a lam + a(a-1) mu) T(a,b)
    + b (lam + (2a-1) mu) T(a,b-1) + b(b-1) mu T(a,b-2), term by term."""
    lam, mu = params.lam, params.mu
    out = SymExpr.zero()
    for t in expr.terms():
        a_gr = GaussianRational(t.a)
        am1 = GaussianRational(t.a - 1)
        stay = a_gr * lam + a_gr * am1 * mu
        out = out + SymExpr.term(t.coeff * stay, t.a, t.b)
        if t.b >= 1:
            down1 = GaussianRational(Fraction(t.b)) * (lam + GaussianRational(2 * t.a - 1) * mu)
            out = out + SymExpr.term(t.coeff * down1, t.a, t.b - 1)
        if t.b >= 2:
            down2 = GaussianRational(Fraction(t.b * (t.b - 1))) * mu
            out = out + SymExpr.term(t.coeff * down2, t.a, t.b - 2)
    return out


def apply_laplacian(expr: SymExpr, params: EigenParams) -> SymExpr:
    """One exact application of the Laplacian rewrite, extended linearly."""
    return _laplacian_images(expr, 1, params)[1]


def iterate_laplacian(expr: SymExpr, k: int, params: EigenParams) -> SymExpr:
    """k-fold exact application of the rewrite."""
    return _laplacian_images(expr, k, params)[k]


def evaluate_sym(expr: SymExpr, value):
    """Evaluate sum coeff * v^a * log(v)^b at a complex number or jet.

    Integer powers avoid the logarithm entirely; fractional powers and any
    log factor use principal branches.
    """
    total = None
    log_v = None
    for t in expr.terms():
        part = t.coeff.to_complex() * constant(1.0, shape_of(value))
        if t.a != 0:
            if t.a.denominator == 1:
                part = part * ipow(value, int(t.a))
            else:
                part = part * jpow(value, float(t.a))
        if t.b > 0:
            if log_v is None:
                log_v = jlog(value)
            part = part * ipow(log_v, t.b)
        total = part if total is None else total + part
    if total is None:
        return 0j if not isinstance(value, JetScalar) else constant(1.0, shape_of(value)) * 0.0
    return total


def as_expr_node(expr: SymExpr, phi):
    """Expression tree for the combination composed with a given inner tree."""
    if expr.is_zero():
        return Const(0j)
    parts = []
    for t in expr.terms():
        factors = [Const(t.coeff.to_complex())]
        if t.a != 0:
            factors.append(Pow(phi, complex(float(t.a))))
        if t.b > 0:
            factors.append(Log(phi) if t.b == 1 else Pow(Log(phi), t.b))
        parts.append(factors[0] if len(factors) == 1 else Product(tuple(factors)))
    return parts[0] if len(parts) == 1 else Sum(tuple(parts))


def horner(value, taylor):
    """sum taylor[i] * h^i by Horner, h the nilpotent part of the jet value;
    h^(2p+1) = 0 at depth p, so order 2p is the whole series."""
    h = nilpotent_part(value)
    acc = taylor[-1]
    for t in reversed(taylor[:-1]):
        acc = acc * h + t
    return acc


def series_log(value):
    z = value.constant_value()
    inv = reciprocal(z)
    taylor = [jlog(z)]
    power, sign = inv, 1.0
    for i in range(1, value.order + 1):
        taylor.append(power * (sign / i))
        power, sign = power * inv, -sign
    return horner(value, taylor)


def series_reciprocal(value):
    inv = reciprocal(value.constant_value())
    taylor = [inv]
    for _ in range(value.order):
        taylor.append(taylor[-1] * -inv)
    return horner(value, taylor)


def series_pow(value, a):
    """u^a = sum_i binom(a, i) z^(a-i) h^i, z the point value."""
    z = value.constant_value()
    inv = reciprocal(z)
    taylor = [jpow(z, a)]
    for i in range(1, value.order + 1):
        taylor.append(taylor[-1] * ((a - i + 1) / i) * inv)
    return horner(value, taylor)


def window_quadratic(j: int, alpha: int, columns) -> Sum:
    """sum over t in columns of x_{jt} x_{alpha t} (all indices 1-based)."""
    if not columns:
        raise ValueError("empty column window")
    return Sum(tuple(Product((Entry(j, t), Entry(alpha, t))) for t in columns))


def projector_pairs(form: ProjectorForm) -> list:
    """The form's per-pair encoding, ((j, a), c) for the 1-based pairs
    j <= a of its touched rows with a nonzero coefficient: c_jj = S_jj and
    c_ja = 2 S_ja, both exact, so c is A_jj and A_ja + A_aj of the matrix
    the form was built from."""
    rows, S = form.rows, form.weights
    return [
        ((rows[i] + 1, rows[k] + 1), S[i][k] if i == k else 2 * S[i][k])
        for i in range(len(rows))
        for k in range(i, len(rows))
        if S[i][k]
    ]


def pairwise_projector_form(form: ProjectorForm) -> Sum:
    """The form as P |W| entry products: one Product(Const(c), window
    quadratic) per pair."""
    return Sum(
        tuple(Product((Const(c), window_quadratic(j, a, form.columns))) for (j, a), c in projector_pairs(form))
    )


def expanded_projector_form(form: ProjectorForm) -> Sum:
    """The form's linear rewrite as a tree, whose value the node must
    reproduce bit for bit: over its touched rows j and the window columns t,
    row-major, the Sum of Product(Entry(j, t), y_jt), where y_jt is the Sum
    over those rows a of Product(Const(S_ja), Entry(a, t))."""
    rows = [r + 1 for r in form.rows]

    def y(i, t):
        return Sum(tuple(Product((Const(w), Entry(a, t))) for a, w in zip(rows, form.weights[i])))

    return Sum(tuple(Product((Entry(j, t), y(i, t))) for i, j in enumerate(rows) for t in form.columns))


def generator_tensor_reference(basis, columns, N: int, p: int):
    """The (D**p, N, N) generator tensor of one window, each level one
    batched product A = F T of the stacked fields F = (Z_1, ..., Z_B,
    sum_b Z_b Z_b), A_L += sum_b A_b Z_b^T, and T = (T, A + A^T)."""
    P = np.zeros((N, N))
    window = [c - 1 for c in columns]
    P[window, window] = 1.0
    fields = np.concatenate([basis, (basis @ basis).sum(axis=0, keepdims=True)])
    T = P[None]
    for _ in range(p):
        A = fields[:, None] @ T
        A[-1] += np.tensordot(A[:-1], basis, axes=([0, 3], [0, 2]))
        T = np.concatenate([T[None], A + np.swapaxes(A, -1, -2)]).reshape(-1, N, N)
    return T


def flag_sum_oracle(family, p: int) -> Sum:
    """Sum over blocks of the p-harmonic composition of each member of the
    block family, block k with coefficients (1, (k + 1) / 2), each term
    reading member k."""
    forms = family.members
    n = sum(len(phi.columns) for phi in forms)
    return Sum(tuple(p_harmonic_expr(phi, -n, -2, p, 1.0, (k + 1) / 2.0) for k, phi in enumerate(forms)))


# Bytes of workspace one block of level_product may hold; an element over it
# is split into the products of its outer level.
LEVEL_PRODUCT_BYTES = 2**23


def level_product(a, b, B: int, p: int):
    """a b for two (n, D**p) component arrays, level by level: each of the
    outer p - 1 levels gathers its 3B + 3 component pairs, (0, k), (k, 0) and
    (b, b), into one batch for the level below; the innermost level
    multiplies the whole batch by the one-level rule, and the outer levels
    fold their pairs back on the way up.  The batch is taken in blocks of
    64 (3B + 3)**(p - 1) (B + 2) bytes per element."""
    out = np.empty(a.shape, dtype=complex)
    _level_product_into(a, b, out, B, p)
    return out


def _level_product_into(a, b, out, B: int, p: int):
    D, G = B + 2, 3 * B + 3
    per_element = 64 * G ** (p - 1) * D
    if p > 1 and per_element > LEVEL_PRODUCT_BYTES:
        pick_left, pick_right = _pair_indices(B)
        rest = D ** (p - 1)
        for x, y, target in zip(a, b, out):
            pairs = np.empty((G, rest), dtype=complex)
            _level_product_into(x.reshape(D, rest)[pick_left], y.reshape(D, rest)[pick_right], pairs, B, p - 1)
            _fold_level(pairs[None], target.reshape(1, D, rest))
        return
    step = max(1, LEVEL_PRODUCT_BYTES // per_element)
    for start in range(0, len(a), step):
        block = slice(start, start + step)
        _level_block(a[block], b[block], out[block], B, p)


def _pair_indices(B: int):
    D = B + 2
    left = np.array([0] * D + list(range(1, D)) + list(range(1, B + 1)))
    right = np.array(list(range(D)) + [0] * (D - 1) + list(range(1, B + 1)))
    return left, right


def _level_block(a, b, out, B: int, p: int):
    D = B + 2
    pick_left, pick_right = _pair_indices(B)
    G = len(pick_left)
    left, right, batch = a, b, len(a)
    for level in range(p - 1):
        rest = D ** (p - level - 1)
        left = left.reshape(batch, D, rest).take(pick_left, axis=1)
        right = right.reshape(batch, D, rest).take(pick_right, axis=1)
        batch *= G
    left, right = left.reshape(batch, D), right.reshape(batch, D)
    inner = out if p == 1 else np.empty((batch, D), dtype=complex)
    np.multiply(left[:, :1], right, out=inner)
    inner += right[:, :1] * left
    inner[:, 0] = left[:, 0] * right[:, 0]
    inner[:, -1] += 2 * np.einsum("ij,ij->i", left[:, 1:-1], right[:, 1:-1])
    del left, right
    for level in reversed(range(p - 1)):
        rest = D ** (p - level - 1)
        batch //= G
        pairs = inner.reshape(batch, G, rest)
        inner = out.reshape(batch, D, rest) if level == 0 else np.empty((batch, D, rest), dtype=complex)
        _fold_level(pairs, inner)


def _fold_level(pairs, target):
    D = target.shape[1]
    target[:] = pairs[:, :D]
    target[:, 1:] += pairs[:, D : 2 * D - 1]
    target[:, -1] += 2 * pairs[:, 2 * D - 1 :].sum(axis=1)


def concatenated_level(u, g, d1, d2, B: int, k: int):
    """The components of g(u) at depth k from g, g' and g'' one depth down,
    the 2B + 1 products u_b u_b, g' u_b and g' u_L taken as one batch whose
    operands are concatenated from u's rows and g' broadcast."""
    D, inner = B + 2, (B + 2) ** (k - 1)
    parts = u.reshape(u.shape[:-1] + (D, inner))
    directions, laplacian = parts[..., 1:-1, :], parts[..., -1:, :]
    slope = np.broadcast_to(d1[..., None, :], directions.shape[:-2] + (B + 1, inner))
    products = _times(
        np.concatenate([directions, slope], axis=-2),
        np.concatenate([directions, directions, laplacian], axis=-2),
        B,
        k - 1,
    )
    out = np.empty(parts.shape, dtype=complex)
    out[..., 0, :] = g
    out[..., 1:-1, :] = products[..., B : 2 * B, :]
    out[..., -1, :] = products[..., -1, :] + _times(d2, products[..., :B, :].sum(axis=-2), B, k - 1)
    return out.reshape(u.shape)


def depth_one_jets(f, points, basis) -> np.ndarray:
    """f's depth-1 jets at each point of the stack from one depth-1 walk of
    the whole stack, no other points beside them."""
    return laplacian_jet(f, points, basis, 1).coeffs


def identity_residuals_per_point(points, basis, m=None) -> tuple:
    """The identity residuals (tau, kappa) of
    operators.coordinate_identity_residuals (m None) or
    projector_identity_residuals (window of m columns) at each point of the
    (K, N, N) stack, every point's pairing tensor whole."""
    N = points.shape[-1]
    eye = np.eye(N)
    if m is None:
        lifted = _lift(points, basis, 1)
        tau_expected = -(N - 1) / 2.0 * points
        delta = np.einsum("jk,ab->jakb", eye, eye)

        def kappa_expected(x):
            return -0.5 * (np.einsum("jb,ka->jakb", x, x) - delta)

        grams = points
    else:
        W = points[..., :m]
        grams = W @ np.swapaxes(W, -1, -2)
        T = _generator_tensor(basis, [range(1, m + 1)], N, 1)[0]
        lifted = points[:, None] @ T @ np.swapaxes(points, -1, -2)[:, None]
        tau_expected = -N * grams + m * eye

        def kappa_expected(S):
            return -(np.einsum("jb,ka->jakb", S, S) + np.einsum("jk,ab->jakb", S, S)) + 0.5 * (
                np.einsum("jk,ab->jakb", eye, S)
                + np.einsum("ab,jk->jakb", eye, S)
                + np.einsum("jb,ka->jakb", eye, S)
                + np.einsum("ka,jb->jakb", eye, S)
            )

    tau = lifted[:, -1]
    r_tau = np.max(np.abs(tau - tau_expected) / (1.0 + np.abs(tau_expected)), axis=(-2, -1))
    r_kappa = np.empty(len(points))
    for k, point_grads in enumerate(lifted[:, 1:-1]):
        flat = point_grads.reshape(len(point_grads), N * N)
        kappa = (flat.T @ flat).reshape(N, N, N, N)
        expected = kappa_expected(grams[k])
        r_kappa[k] = np.max(np.abs(kappa - expected) / (1.0 + np.abs(expected)))
    return r_tau, r_kappa


def fd_laplacian(f, x, basis, step: float = 1e-4) -> complex:
    """Central-difference Laplacian of f at the point x: the sum over the
    basis of second differences along x . expm(+-step Z)."""
    X = np.asarray(x, dtype=float)
    center = 2.0 * complex(evaluate(f, X))
    total = 0j
    for z in basis:
        fwd = complex(evaluate(f, X @ expm(step * z)))
        bwd = complex(evaluate(f, X @ expm(-step * z)))
        total += (fwd + bwd - center) / step**2
    return total


def series_curve_point(x, Z: np.ndarray, t):
    """x . exp(t Z) for a jet t with zero constant part, as nested tuples of
    jet entries: the exponential series sum_i (x Z^i / i!) t^i, summed in
    jet arithmetic, which ends because t^i vanishes past the jet's total
    order."""
    shape = shape_of(t)
    mats = [np.asarray(x, dtype=complex)]
    for i in range(1, sum(shape) + 1):
        mats.append(mats[-1] @ Z / i)
    N = mats[0].shape[0]
    rows = []
    for r in range(N):
        row = []
        for c in range(N):
            acc = constant(mats[0][r, c], shape)
            for i, mat in enumerate(mats[1:], start=1):
                acc = acc + ipow(t, i) * complex(mat[r, c])
            row.append(acc)
        rows.append(tuple(row))
    return tuple(rows)


def k_basis(m: int, n: int) -> np.ndarray:
    """Block-diagonal skew directions tangent to SO(m) x SO(n): those of
    SO(m), then those of SO(n), each in the order of so_basis."""
    N = m + n
    pairs = [(r, s) for r in range(1, m + 1) for s in range(r + 1, m + 1)]
    pairs += [(r, s) for r in range(m + 1, N + 1) for s in range(r + 1, N + 1)]
    return np.array([_unit(N, r, s, -1.0) for r, s in pairs]).reshape(-1, N, N)
