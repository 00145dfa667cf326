"""Truncated Taylor ("jet") arithmetic over the complex numbers.

A :class:`JetScalar` of order ``k`` carries a value together with its first
``k`` derivatives along one curve parameter: an element of the quotient ring
C[eps] / (eps^(k+1)).  Coefficients may themselves be jets, which models
several independent nilpotent parameters at once and yields mixed partial
derivatives; iterated second-order operators are computed by nesting one
level per iteration.

Plain ``complex`` is the base scalar.  Values are immutable after
construction and every operation is pure, so jets can be shared freely
between concurrent workers.

A :class:`LaplacianJet` of depth ``p`` carries, in one numpy array, what
``p`` nesting levels of (value, directional first derivatives, summed second
derivative) produce: the forward-Laplacian algebra and its tensor powers.
It supports the same ring operations and analytic functions as a jet.  Its
coefficients may carry a leading lane axis, one lane per sample point, so
one pass over an expression serves a whole stack of points; a 1-D array
holding one value per lane is then the matching plain scalar.
Its products walk their batch axis (lanes, and any stacked operands) in
blocks under ``PRODUCT_WORKSPACE_BYTES``, each element computed by the same
operations whatever its block; its log, reciprocal, exp and powers apply the
one-level rule g(u0) + g'(u0) h + g''(u0) h^2 / 2 once per depth, from the
point value up.

Analytic functions (:func:`jlog`, :func:`jexp`, :func:`jpow`)
use principal branches throughout.  They raise :class:`BranchCutError` when
the base value of the argument is within ``BRANCH_FLOOR`` of the origin or
within ``BRANCH_ANGLE`` radians of the cut along the negative real axis, so
callers can reject the sample point and draw another instead of committing
an ill-conditioned result; on lanes the error names the failing ones.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache
from numbers import Number
from typing import Union

import numpy as np

Scalar = Union[complex, "JetScalar"]

# Arguments closer than this to the branch cut of log/pow are refused.
BRANCH_FLOOR = 1e-6
BRANCH_ANGLE = 1e-6

# exp overflows double precision near Re(z) = 709.
_EXP_OVERFLOW = 700.0


class JetError(ArithmeticError):
    """Base class for jet arithmetic failures."""


class ShapeMismatch(JetError):
    """Two jets of incompatible truncation shapes met in one operation."""


class BranchCutError(JetError):
    """An analytic function was evaluated on or too near its branch cut.

    ``lanes`` holds the indices of the failing lanes when the argument was a
    lane array, and is empty when it was one number; the message names them
    before the ``reason``.
    """

    def __init__(self, reason: str, lanes=()):
        self.reason = reason
        self.lanes = tuple(int(i) for i in lanes)
        super().__init__(f"lanes {list(self.lanes)} {reason}" if self.lanes else reason)


class NonFiniteError(JetError):
    """An operation would have committed a NaN or infinity."""


def shape_of(value) -> tuple:
    """Truncation shape: () for a plain number, (order, *inner) for a jet."""
    return value.shape if isinstance(value, JetScalar) else ()


def _require_finite(z):
    if isinstance(z, np.ndarray):
        if not np.all(np.isfinite(z)):
            raise NonFiniteError(f"non-finite value in lanes {np.flatnonzero(~np.isfinite(z)).tolist()}")
        return z
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise NonFiniteError(f"non-finite scalar {z!r}")
    return z


class JetScalar:
    """Polynomial in one nilpotent variable, truncated at ``order``.

    ``coeffs`` has length ``order + 1``; entries are either ``complex`` or
    jets of one common inner shape.  Multiplication is the Cauchy product
    truncated at ``order``, so ``variable(0, k) ** (k + 1)`` is exactly zero.
    """

    __slots__ = ("order", "coeffs", "shape")

    def __init__(self, order: int, coeffs):
        coeffs = tuple(coeffs)
        if order < 1:
            raise JetError(f"jet order must be >= 1, got {order}")
        if len(coeffs) != order + 1:
            raise JetError(f"expected {order + 1} coefficients, got {len(coeffs)}")
        inner = shape_of(coeffs[0])
        for c in coeffs[1:]:
            if shape_of(c) != inner:
                raise ShapeMismatch("jet coefficients have inconsistent shapes")
        self.order = order
        self.coeffs = coeffs
        self.shape = (order,) + inner

    # -- access ------------------------------------------------------------

    def coefficient(self, i: int):
        """Coefficient of eps^i (a scalar of the inner shape)."""
        return self.coeffs[i]

    def constant_value(self) -> complex:
        """The underlying point value: coefficient 0 through every level."""
        v = self
        while isinstance(v, JetScalar):
            v = v.coeffs[0]
        return complex(v)

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, JetScalar):
            if other.shape == self.shape:
                return JetScalar(
                    self.order,
                    tuple(a + b for a, b in zip(self.coeffs, other.coeffs)),
                )
            if other.shape == self.shape[1:]:
                return JetScalar(
                    self.order, (self.coeffs[0] + other,) + self.coeffs[1:]
                )
            if self.shape == other.shape[1:]:
                return other + self
            raise ShapeMismatch(f"cannot add shapes {self.shape} and {other.shape}")
        if isinstance(other, Number):
            return JetScalar(
                self.order, (self.coeffs[0] + complex(other),) + self.coeffs[1:]
            )
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return JetScalar(self.order, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-other if isinstance(other, JetScalar) else -complex(other))

    def __rsub__(self, other):
        return (-self) + complex(other)

    def __mul__(self, other):
        if isinstance(other, JetScalar):
            if other.shape == self.shape:
                a, b = self.coeffs, other.coeffs
                out = []
                for k in range(self.order + 1):
                    acc = a[0] * b[k]
                    for i in range(1, k + 1):
                        acc = acc + a[i] * b[k - i]
                    out.append(acc)
                return JetScalar(self.order, out)
            if other.shape == self.shape[1:]:
                return JetScalar(self.order, tuple(c * other for c in self.coeffs))
            if self.shape == other.shape[1:]:
                return JetScalar(other.order, tuple(self * c for c in other.coeffs))
            raise ShapeMismatch(
                f"cannot multiply shapes {self.shape} and {other.shape}"
            )
        if isinstance(other, Number):
            z = complex(other)
            return JetScalar(self.order, tuple(c * z for c in self.coeffs))
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, JetScalar):
            return self * reciprocal(other)
        if isinstance(other, Number):
            return self * reciprocal(complex(other))
        return NotImplemented

    def __rtruediv__(self, other):
        return reciprocal(self) * complex(other)

    def __pow__(self, exponent):
        if isinstance(exponent, Number):
            e = complex(exponent)
            if e.imag == 0.0 and e.real == int(e.real):
                return ipow(self, int(e.real))
            return jpow(self, e)
        return NotImplemented

    # -- comparison / display --------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, JetScalar):
            return self.shape == other.shape and self.coeffs == other.coeffs
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        return f"Jet{self.coeffs!r}"


class LaplacianJet:
    """Element of the p-fold tensor power of the forward-Laplacian algebra.

    One level holds a value v, ``basis_size`` = B directional derivatives g
    and a Laplacian l, D = B + 2 components, multiplied as

      (v, g, l) (v', g', l') = (v v', v g' + g v', v l' + l v' + 2 g . g'),

    the product rule of a first-order field per direction and of their
    summed squares.  Depth p is the p-fold tensor power: ``coeffs`` is a
    flat complex array of D**p components indexed (i_1, ..., i_p) row-major,
    the outermost level first; index 0 is the value, 1..B the directions and
    D - 1 the Laplacian at each level.  Component (0, ..., 0) is the point
    value and (D-1, ..., D-1) the p-fold Laplacian.

    ``coeffs`` may also be a (K, D**p) stack: K independent lanes, one per
    sample point, combined lane by lane.  Numbers act on every lane, and a
    1-D array of K values acts lane by lane.

    The nilpotent part h (everything but component 0) has h**(2p+1) = 0:
    ``order`` = 2p is the order of its Taylor expansions.  Analytic
    functions are not expanded that way but level by level (see the
    analytic functions below).  Instances are immutable: operations return
    new arrays.
    """

    __slots__ = ("basis_size", "depth", "order", "coeffs")
    __array_ufunc__ = None  # numpy scalars and lane arrays defer to the reflected operators

    def __init__(self, basis_size: int, depth: int, coeffs):
        coeffs = np.asarray(coeffs, dtype=complex)
        if basis_size < 1 or depth < 1:
            raise JetError(f"need basis size and depth >= 1, got {basis_size}, {depth}")
        size = (basis_size + 2) ** depth
        if coeffs.ndim not in (1, 2) or coeffs.shape[-1] != size:
            raise JetError(f"expected {size} components per lane, got shape {coeffs.shape}")
        self.basis_size = basis_size
        self.depth = depth
        self.order = 2 * depth
        self.coeffs = coeffs

    def constant_value(self):
        """The point value, or for a stack a contiguous array of one per lane:
        the operand plain evaluation of the same points holds."""
        if self.coeffs.ndim == 1:
            return complex(self.coeffs[0])
        return np.ascontiguousarray(self.coeffs[:, 0])

    def _like(self, coeffs) -> "LaplacianJet":
        return LaplacianJet(self.basis_size, self.depth, coeffs)

    def _same_shape(self, other: "LaplacianJet"):
        mine = (self.basis_size, self.depth, self.coeffs.shape)
        theirs = (other.basis_size, other.depth, other.coeffs.shape)
        if theirs != mine:
            raise ShapeMismatch(
                f"cannot combine Laplacian jets of (basis, depth, shape) {mine} and {theirs}"
            )

    def __add__(self, other):
        if isinstance(other, LaplacianJet):
            self._same_shape(other)
            return self._like(self.coeffs + other.coeffs)
        if isinstance(other, (Number, np.ndarray)):
            out = self.coeffs.copy()
            out[..., 0] += other
            return self._like(out)
        return NotImplemented

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, LaplacianJet):
            self._same_shape(other)
            out = _tensor_product(self.coeffs, other.coeffs, self.basis_size, self.depth)
            other0 = other.constant_value()
        elif isinstance(other, (Number, np.ndarray)):
            out = self.coeffs * _per_lane(other)
            other0 = other
        else:
            return NotImplemented
        # Vectorised complex products round differently from scalar ones, and
        # from each other with the operands swapped (fused multiply-add), so
        # the value is recomputed as plain evaluation computes it: the same
        # operands, contiguous, in the same order.
        out[..., 0] = self.constant_value() * other0
        return self._like(out)

    def __rmul__(self, other):
        if not isinstance(other, (Number, np.ndarray)):
            return NotImplemented
        out = _per_lane(other) * self.coeffs
        out[..., 0] = other * self.constant_value()
        return self._like(out)

    def __repr__(self):
        return f"LaplacianJet(basis_size={self.basis_size}, depth={self.depth}, {self.coeffs!r})"


def _per_lane(c):
    """A number, or lane values as a column against a (K, D**p) stack."""
    return c[:, None] if isinstance(c, np.ndarray) else c


# Bytes of complex workspace one block of _tensor_product may hold at its
# innermost level: both gathered operands, the products and one temporary,
# 64 (3B + 3)**(p - 1) (B + 2) bytes per batch element.  A block is as many
# batch elements as fit.  An element larger than the budget (one B = 6
# product at p = 5 takes about 100 MB) is split into the 3B + 3 depth-(p-1)
# products of its outer level, which are blocked in turn.  A block holds 97
# elements of a B = 4 product at p = 3 and 37 of a B = 6 one, so no product
# of the benchmark's runs or of the sweep's at p <= 3 is split (the widest,
# phi on ten Gr(2,2) points, has 80).
PRODUCT_WORKSPACE_BYTES = 2**23


@lru_cache(maxsize=None)
def _pair_indices(B: int) -> tuple[np.ndarray, np.ndarray]:
    """Left and right component indices of the 3B + 3 products one level needs:
    (0, k) for every k, (k, 0) for k >= 1, then (b, b) for each direction."""
    D = B + 2
    left = np.array([0] * D + list(range(1, D)) + list(range(1, B + 1)))
    right = np.array(list(range(D)) + [0] * (D - 1) + list(range(1, B + 1)))
    left.flags.writeable = right.flags.writeable = False  # shared by every caller
    return left, right


def _workspace_bytes(B: int, p: int) -> int:
    """Innermost workspace of one depth-p batch element: four arrays of
    (3B + 3)**(p - 1) (B + 2) complex components."""
    return 64 * (3 * B + 3) ** (p - 1) * (B + 2)


def _tensor_product(a: np.ndarray, b: np.ndarray, B: int, p: int) -> np.ndarray:
    """Product of two depth-p component arrays of one shape, flat or with
    leading (lane, batch) axes, which are walked as one batch axis.

    The batch is taken in blocks whose workspace fits
    PRODUCT_WORKSPACE_BYTES, each written into its slice of one output, by
    the same operations per element whatever its block; an element over
    the budget is split into the products of its outer level.
    """
    D = B + 2
    out = np.empty(a.shape, dtype=complex)
    flat = (-1, D**p)
    _product_into(a.reshape(flat), b.reshape(flat), out.reshape(flat), B, p)
    return out


def _product_into(a: np.ndarray, b: np.ndarray, out: np.ndarray, B: int, p: int):
    """out[i] = a[i] b[i] for (n, D**p) arrays, in blocks under the budget."""
    D = B + 2
    if p > 1 and _workspace_bytes(B, p) > PRODUCT_WORKSPACE_BYTES:
        pick_left, pick_right = _pair_indices(B)
        rest = D ** (p - 1)
        for x, y, target in zip(a, b, out):
            pairs = np.empty((len(pick_left), rest), dtype=complex)
            _product_into(x.reshape(D, rest)[pick_left], y.reshape(D, rest)[pick_right], pairs, B, p - 1)
            _fold_level(pairs[None], target.reshape(1, D, rest))
        return
    step = max(1, PRODUCT_WORKSPACE_BYTES // _workspace_bytes(B, p))
    for start in range(0, len(a), step):
        block = slice(start, start + step)
        _block_product(a[block], b[block], out[block], B, p)


def _block_product(a: np.ndarray, b: np.ndarray, out: np.ndarray, B: int, p: int):
    """out = a b for (n, D**p) arrays in one pass.

    Each of the outer p - 1 levels gathers its 3B + 3 component pairs, (0, k),
    (k, 0) and (b, b), into one batch for the level below; the innermost
    level multiplies the whole batch by the one-level rule, and the outer
    levels fold their pairs back on the way up, the outermost into out.
    Work is O((3B + 3)**(p - 1) (B + 2)) per element.
    """
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


def _fold_level(pairs: np.ndarray, target: np.ndarray):
    """One level of the product from its (n, 3B + 3, rest) pair products,
    written into the (n, D, rest) target."""
    D = target.shape[1]
    target[:] = pairs[:, :D]
    target[:, 1:] += pairs[:, D : 2 * D - 1]
    target[:, -1] += 2 * pairs[:, 2 * D - 1 :].sum(axis=1)


# -- constructors ---------------------------------------------------------


def zero(shape: tuple):
    """The zero scalar of the given truncation shape."""
    if shape == ():
        return 0j
    inner = shape[1:]
    return JetScalar(shape[0], tuple(zero(inner) for _ in range(shape[0] + 1)))


def constant(c, shape: tuple):
    """Lift a plain number into the given truncation shape."""
    if shape == ():
        return _require_finite(c)
    inner = shape[1:]
    return JetScalar(
        shape[0],
        (constant(c, inner),) + tuple(zero(inner) for _ in range(shape[0])),
    )


def lift(c, order: int) -> JetScalar:
    """Constant jet: coefficients (c, 0, ..., 0)."""
    if order < 1:
        raise JetError(f"jet order must be >= 1, got {order}")
    return JetScalar(order, (_require_finite(c),) + (0j,) * order)


def variable(c, order: int) -> JetScalar:
    """Curve-parameter jet: coefficients (c, 1, 0, ..., 0)."""
    if order < 1:
        raise JetError(f"jet order must be >= 1, got {order}")
    return JetScalar(order, (_require_finite(c), 1 + 0j) + (0j,) * (order - 1))


def zero_like(value):
    return zero(shape_of(value))


def one_like(value):
    return constant(1.0, shape_of(value))


def nilpotent_part(a):
    """Copy of ``a`` with its constant coefficient replaced by zero."""
    if isinstance(a, LaplacianJet):
        h = a.coeffs.copy()
        h[..., 0] = 0j
        return a._like(h)
    return JetScalar(a.order, (zero(a.shape[1:]),) + a.coeffs[1:])


def is_zero(value) -> bool:
    """Exact (coefficient-wise) zero test."""
    if isinstance(value, JetScalar):
        return all(is_zero(c) for c in value.coeffs)
    return complex(value) == 0j


def scalar_value(value) -> complex:
    """Point value of a plain number or a jet of any nesting depth."""
    if isinstance(value, JetScalar):
        return value.constant_value()
    return complex(value)


# -- division and analytic functions ------------------------------------------
#
# Each function takes a number, a 1-D array of lane values, or a jet, and
# evaluates a jet through the same function at its point value (a number or
# lane array), so its value channel is what plain evaluation computes.
#
# A JetScalar is expanded as the Taylor series around that value, by Horner.
# A depth-p LaplacianJet u is read as one level (u0, u_b, u_L) over the
# depth-(p-1) ring, on which
#
#   g(u) = (g(u0), g'(u0) u_b, g'(u0) u_L + g''(u0) sum_b u_b u_b),
#
# with g, g' and g'' at u0 computed one depth down by the same rule, from the
# point value up (Griewank & Walther, Evaluating Derivatives, 2nd ed.,
# ch. 13).  u0 at depth k is the leading D**k components of u, so each depth
# costs about 2B + 4 products one depth below it: for log and powers g' and g''
# come from g and one shared chain of reciprocals.


def _times(a: np.ndarray, b: np.ndarray, B: int, depth: int) -> np.ndarray:
    """Product of two component arrays of the given depth; depth 0 holds
    numbers, one per lane."""
    return a * b if depth == 0 else _tensor_product(a, b, B, depth)


def _level(u: np.ndarray, g, d1, d2, B: int, k: int) -> np.ndarray:
    """The components of g(u) for u's components at depth k >= 1, given g,
    g' and g'' at u's leading depth-(k-1) slice; the 2B + 1 products
    u_b u_b, g' u_b and g' u_L are one batch."""
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


def _levels(value: "LaplacianJet", base, derivatives, depth: int) -> list:
    """g(u) for the leading slices of u = value at depths 0..depth, as
    component arrays: base is g at the point value, and derivatives(g, k)
    gives g' and g'' at depth k from g there."""
    B, coeffs = value.basis_size, value.coeffs
    g = np.asarray(base, dtype=complex).reshape(coeffs.shape[:-1] + (1,))
    chain = [g]
    for k in range(1, depth + 1):
        g = _level(coeffs[..., : (B + 2) ** k], g, *derivatives(g, k - 1), B, k)
        chain.append(g)
    return chain


def _reciprocal_levels(value: "LaplacianJet", depth: int) -> list:
    """1/u at depths 0..depth: g' = -r^2 and g'' = 2 r^3."""
    B = value.basis_size

    def derivatives(r, k):
        square = _times(r, r, B, k)
        return -square, 2 * _times(square, r, B, k)

    return _levels(value, reciprocal(value.constant_value()), derivatives, depth)


def reciprocal(value: Scalar) -> Scalar:
    """Multiplicative inverse; the constant term must be nonzero."""
    if isinstance(value, Number):
        z = complex(value)
        if z == 0j:
            raise JetError("division by a scalar with zero constant term")
        return 1.0 / z
    if isinstance(value, np.ndarray):
        if np.any(value == 0):
            raise JetError("division by a scalar with zero constant term")
        return 1.0 / value
    if isinstance(value, LaplacianJet):
        return value._like(_reciprocal_levels(value, value.depth)[-1])
    inv0 = reciprocal(value.coeffs[0])
    taylor = [inv0]
    for _ in range(value.order):
        taylor.append(taylor[-1] * -inv0)
    return _compose(value, taylor)


def ipow(value: Scalar, exponent: int) -> Scalar:
    """Integer power by repeated squaring; works for numbers and jets alike.

    Negative exponents invert first, so only the constant term has to be
    nonzero; no branch cut is involved.
    """
    if exponent < 0:
        return ipow(reciprocal(value), -exponent)
    if exponent == 0:
        return one_like(value)
    result = None
    base = value
    e = exponent
    while e:
        if e & 1:
            result = base if result is None else result * base
        e >>= 1
        if e:
            base = base * base
    return result


def _check_branch(z):
    z = _require_finite(z)
    if isinstance(z, np.ndarray):
        bad = (np.abs(z) < BRANCH_FLOOR) | (math.pi - np.abs(np.angle(z)) < BRANCH_ANGLE)
        if np.any(bad):
            raise BranchCutError(
                f"within {BRANCH_FLOOR:.1e} of the origin or {BRANCH_ANGLE:.1e} of the cut",
                np.flatnonzero(bad),
            )
        return z
    if abs(z) < BRANCH_FLOOR:
        raise BranchCutError(f"magnitude {abs(z):.3e} below branch floor {BRANCH_FLOOR:.1e}")
    if math.pi - abs(cmath.phase(z)) < BRANCH_ANGLE:
        raise BranchCutError(f"argument of {z!r} within {BRANCH_ANGLE:.1e} of the cut")
    return z


def _compose(a: JetScalar, taylor):
    """Evaluate sum taylor[i] * h^i by Horner, h the nilpotent part of a."""
    h = nilpotent_part(a)
    acc = taylor[-1]
    for t in reversed(taylor[:-1]):
        acc = acc * h + t
    return acc


def jlog(value: Scalar) -> Scalar:
    """Principal logarithm of a number, lane array or jet."""
    if isinstance(value, Number):
        return cmath.log(_check_branch(complex(value)))
    if isinstance(value, np.ndarray):
        return np.log(_check_branch(value))
    if isinstance(value, LaplacianJet):
        # g' = r and g'' = -r^2, r the reciprocal one depth down
        base = jlog(value.constant_value())
        r = _reciprocal_levels(value, value.depth - 1)
        B = value.basis_size
        return value._like(
            _levels(value, base, lambda g, k: (r[k], -_times(r[k], r[k], B, k)), value.depth)[-1]
        )
    z = value.coeffs[0]
    base = jlog(z)
    inv = reciprocal(z)
    taylor = [base]
    power = inv
    sign = 1.0
    for i in range(1, value.order + 1):
        taylor.append(power * (sign / i))
        if i < value.order:
            power = power * inv
        sign = -sign
    return _compose(value, taylor)


def jexp(value: Scalar) -> Scalar:
    """Exponential of a number, lane array or jet."""
    if isinstance(value, (Number, np.ndarray)):
        z = _require_finite(value)
        if np.any(z.real > _EXP_OVERFLOW):
            raise NonFiniteError(f"exp overflow at Re(z) = {np.max(z.real):.3g}")
        return np.exp(z) if isinstance(z, np.ndarray) else cmath.exp(z)
    if isinstance(value, LaplacianJet):
        # g' = g'' = g
        return value._like(_levels(value, jexp(value.constant_value()), lambda g, k: (g, g), value.depth)[-1])
    e0 = jexp(value.coeffs[0])
    taylor = [e0]
    fact = 1.0
    for i in range(1, value.order + 1):
        fact /= i
        taylor.append(e0 * fact)
    return _compose(value, taylor)


def jpow(value: Scalar, exponent) -> Scalar:
    """Principal power value**exponent: exp(exponent * log(value)) at a
    number, lane array or JetScalar.  On a LaplacianJet the levels take
    g' = a u^(a-1) and g'' = a (a-1) u^(a-2) as a g r and (a-1) g' r, r the
    reciprocal one depth down."""
    if isinstance(value, LaplacianJet):
        a = complex(exponent)
        base = jpow(value.constant_value(), a)
        r = _reciprocal_levels(value, value.depth - 1)
        B = value.basis_size

        def derivatives(g, k):
            slope = a * _times(g, r[k], B, k)
            return slope, (a - 1) * _times(slope, r[k], B, k)

        return value._like(_levels(value, base, derivatives, value.depth)[-1])
    return jexp(jlog(value) * complex(exponent))
