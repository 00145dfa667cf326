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
Its products are one recursion over their batch axis (lanes, and any
stacked operands), in blocks under ``PRODUCT_WORKSPACE_BYTES`` that share
one workspace, each element computed by the same operations whatever its
block or stack.  A block whose depth a term map covers, (3B + 3)**q terms at
most ``MAP_TERMS`` cached per basis size and depth, is a gather of both
operands' components, one multiply, the weights of the (b, b) pairs and one
segmented sum, in about five numpy calls for the whole depth; a deeper block
gathers its outer level's 3B + 3 component pairs into one batch one depth
down, taken by the same recursion, and folds their products back.  Bases of
eight or more directions have no map and end in the fused one-level rule.
Its log, reciprocal, exp and powers apply the one-level rule
g(u0) + g'(u0) h + g''(u0) h^2 / 2 once per depth, from the point value up.

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


# No CLI command builds one: its constructor, +, -x, * and analytic-function
# branches stay for the nested-jet tests and bench/tracing.py's microbench.
class JetScalar:
    """Polynomial in one nilpotent variable, truncated at ``order``.

    ``coeffs`` has length ``order + 1``; entries are either ``complex`` or
    jets of one common inner shape.  Multiplication is the Cauchy product
    truncated at ``order``, so ``ipow(variable(0, k), k + 1)`` is exactly zero.
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
    new arrays.  The one thing a jet keeps after it is built is the chain of
    its reciprocals r at depths 0..k (``_reciprocals``) and their squares
    (``_squares``), read-only arrays stored by the first analytic function
    that needs them and extended by a later one that needs more depth, so
    log, reciprocal and powers of one jet build them once between them.
    """

    __slots__ = ("basis_size", "depth", "order", "coeffs", "_reciprocals", "_squares")
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
        self._reciprocals = None
        self._squares = []

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


# Bytes of complex workspace one block of _tensor_product may hold.  A block
# is as many batch elements as fit, at _workspace_bytes(B, p) each; an
# element larger than the budget (one B = 6 product at p = 5 takes 113 MB)
# is taken alone, its outer level's 3B + 3 depth-(p-1) products blocked in
# turn.  A block holds 103 elements of a B = 4 product at p = 3 and 37 of a
# B = 6 one, so every product of depth 3 or less in the benchmark's runs and
# the sweep's takes one block (the widest, the 2B + 1 = 9 level-rule
# products per point of a log or 1/phi at depth 4 on ten Gr(2,2) points, has
# 90 elements).
PRODUCT_WORKSPACE_BYTES = 2**23

# Most terms one term map may hold.  A map covers the innermost q levels of
# a product in (3B + 3)**q terms, q the deepest depth within this bound:
# 5 levels for B = 1, 4 for B = 2 and 3 for B = 3..7.  Bases whose map would
# reach fewer than three levels (B >= 8: Gr(2,4), so(5), so(7)) keep the
# fused one-level rule under nested levels, since a two-level map under a
# nested level ran 1.3-2x slower than that rule at B = 10 and 21 (timings
# in CHANGES.md).
MAP_TERMS = 2**14


@lru_cache(maxsize=None)
def _pair_indices(B: int) -> tuple[np.ndarray, np.ndarray]:
    """Left and right component indices of the 3B + 3 products one level needs:
    (0, k) for every k, (k, 0) for k >= 1, then (b, b) for each direction."""
    D = B + 2
    left = np.array([0] * D + list(range(1, D)) + list(range(1, B + 1)))
    right = np.array(list(range(D)) + [0] * (D - 1) + list(range(1, B + 1)))
    left.flags.writeable = right.flags.writeable = False  # shared by every caller
    return left, right


@lru_cache(maxsize=None)
def _map_depth(B: int) -> int:
    """Innermost levels a term map covers for basis size B: the deepest q
    with (3B + 3)**q <= MAP_TERMS, or 0 (no map: the fused one-level rule
    under nested levels) when that is fewer than three."""
    q = 0
    while (3 * B + 3) ** (q + 1) <= MAP_TERMS:
        q += 1
    return q if q >= 3 else 0


@lru_cache(maxsize=None)
def _term_map(B: int, q: int) -> tuple[np.ndarray, ...]:
    """The (3B + 3)**q terms of a depth-q product, one pair per level, in
    row-major order of the output component each adds to: their left and
    right component indices, their weights 2**e for a term with e (b, b)
    pairs, and where each output component's run of terms starts.

    A level's output k takes a run of 1 (k = 0), 2 (directions) or B + 2
    (the Laplacian) of its pairs, so a term's place is the start of its
    output's run plus its rank within it, mixed-radix in those run lengths.
    """
    D = B + 2
    pick_left, pick_right = _pair_indices(B)
    target = np.array(list(range(D)) + list(range(1, D)) + [D - 1] * B)
    rank_in_run = np.array([0] * D + [1] * (D - 1) + list(range(2, B + 2)))
    doubled = np.array([0] * (2 * D - 1) + [1] * B)
    run = np.array([1] + [2] * B + [B + 2])
    run_start = np.array([0] + list(range(1, 2 * B, 2)) + [2 * B + 1])
    pair_run = run[target]
    left = right = output = rank = exponent = starts = np.zeros(1, dtype=np.intp)
    runs = np.ones(1, dtype=np.intp)
    for _ in range(q):
        left = (left[:, None] * D + pick_left).ravel()
        right = (right[:, None] * D + pick_right).ravel()
        output = (output[:, None] * D + target).ravel()
        rank = (rank[:, None] * pair_run + rank_in_run).ravel()
        exponent = (exponent[:, None] + doubled).ravel()
        starts = (starts[:, None] * len(target) + runs[:, None] * run_start).ravel()
        runs = (runs[:, None] * run).ravel()
    place = starts[output] + rank
    arrays = [np.empty_like(left), np.empty_like(right), np.empty(len(left), dtype=complex)]
    for array, values in zip(arrays, (left, right, 2.0**exponent)):
        array[place] = values
    for array in arrays + [starts]:
        array.flags.writeable = False  # shared by every caller
    return (*arrays, starts)


@lru_cache(maxsize=None)
def _workspace_bytes(B: int, p: int) -> int:
    """Workspace of one depth-p batch element in a block of _product_into:
    24 (3B + 3)**p bytes for a term map (its terms and half of the right
    operand's), 16 (B + 2) for the fused rule's one temporary at p = 1, and
    above them 48 (3B + 3) (B + 2)**(p - 1) for the outer level's two
    gathered operands and its pair products, plus the workspace of those
    3B + 3 depth-(p - 1) elements."""
    G, D = 3 * B + 3, B + 2
    if p <= _map_depth(B):
        return 24 * G**p
    if p == 1:
        return 16 * D
    return 48 * G * D ** (p - 1) + G * _workspace_bytes(B, p - 1)


def _tensor_product(a: np.ndarray, b: np.ndarray, B: int, p: int) -> np.ndarray:
    """Product of two depth-p component arrays of one shape, flat or with
    leading (lane, batch) axes, which are walked as one batch axis, by
    _product_into with a workspace of its own."""
    out = np.empty(a.shape, dtype=complex)
    flat = (-1, (B + 2) ** p)
    _product_into(a.reshape(flat), b.reshape(flat), out.reshape(flat), B, p, {})
    return out


def _product_into(a: np.ndarray, b: np.ndarray, out: np.ndarray, B: int, p: int, work: dict):
    """out[i] = a[i] b[i] for (n, D**p) arrays, in blocks of as many
    elements as fit PRODUCT_WORKSPACE_BYTES (at least one), which reuse the
    arrays kept in work.  Each element takes the same operations whatever
    its block.

    A block is one term map when the map covers all p levels
    (_mapped_product), the fused one-level rule at p = 1 (_fused_product),
    or else its outer level's 3B + 3 component pairs, (0, k), (k, 0) and
    (b, b), gathered into one batch of depth-(p-1) products, taken by this
    function, and folded back into out.
    """
    D = B + 2
    step = max(1, PRODUCT_WORKSPACE_BYTES // _workspace_bytes(B, p))
    for start in range(0, len(a), step):
        x, y, target = a[start : start + step], b[start : start + step], out[start : start + step]
        if p <= _map_depth(B):
            _mapped_product(x, y, target, work, B, p)
        elif p == 1:
            _fused_product(x, y, target, work)
        else:
            pick_left, pick_right = _pair_indices(B)
            n, G, rest = len(x), len(pick_left), D ** (p - 1)
            xs, ys, pairs = _scratch(work, p, (3 * n, G, rest)).reshape(3, n, G, rest)
            x.reshape(n, D, rest).take(pick_left, axis=1, out=xs, mode="wrap")
            y.reshape(n, D, rest).take(pick_right, axis=1, out=ys, mode="wrap")
            flat = (n * G, rest)
            _product_into(xs.reshape(flat), ys.reshape(flat), pairs.reshape(flat), B, p - 1, work)
            _fold_level(pairs, target.reshape(n, D, rest))


def _scratch(work: dict, key, shape) -> np.ndarray:
    """An uninitialised complex array of the given shape, kept in work under
    key, so the later blocks of a product reuse what its first allocated.
    A key's arrays differ in their leading length only."""
    buffer = work.get(key)
    if buffer is None or len(buffer) < shape[0]:
        work[key] = buffer = np.empty(shape, dtype=complex)
        return buffer
    return buffer[: shape[0]]


def _mapped_product(left, right, out, work: dict, B: int, q: int):
    """out = left right for (n, D**q) arrays by the term map of depth q:
    gather each operand's component of every term, multiply, weight, and
    sum each output component's run of terms.

    Both gathers share one buffer kept in work: two equal arrays freed
    together let glibc trim the heap, so every later product faulted their
    pages in again.  The right operand's gather is taken in two halves when
    a whole one would pass the budget."""
    pick_left, pick_right, weights, starts = _term_map(B, q)
    n, T = len(left), len(pick_left)
    step = T if 32 * n * T <= PRODUCT_WORKSPACE_BYTES else (T + 1) // 2
    buffer = _scratch(work, "terms", (n * (T + step),))
    terms = left.take(pick_left, axis=1, out=buffer[: n * T].reshape(n, T), mode="wrap")
    for start in range(0, T, step):
        picks = pick_right[start : start + step]
        gathered = buffer[n * T : n * (T + len(picks))].reshape(n, len(picks))
        terms[:, start : start + step] *= right.take(picks, axis=1, out=gathered, mode="wrap")
    terms *= weights
    np.add.reduceat(terms, starts, axis=1, out=out)


def _fused_product(left, right, out, work: dict):
    """out = left right for (n, D) arrays by the one-level rule."""
    np.multiply(left[:, :1], right, out=out)
    out += np.multiply(right[:, :1], left, out=_scratch(work, "fused", left.shape))
    out[:, 0] = left[:, 0] * right[:, 0]
    out[:, -1] += 2 * np.einsum("ij,ij->i", left[:, 1:-1], right[:, 1:-1])


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


# Kept for bench/tracing.py, whose jet microbench starts from it.
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


def _extend(value: "LaplacianJet", chain: list, derivatives, depth: int) -> list:
    """Extend chain, g(u) for the leading slices of u = value at depths
    0..len(chain) - 1 as component arrays, to depths 0..depth:
    derivatives(g, k) gives g' and g'' at depth k from g there.  Level k
    reads only chain[k - 1] and u's leading (B + 2)**k components, so an
    extended chain equals one built to that depth at once, bit for bit."""
    B, coeffs = value.basis_size, value.coeffs
    for k in range(len(chain), depth + 1):
        g = chain[-1]
        chain.append(_level(coeffs[..., : (B + 2) ** k], g, *derivatives(g, k - 1), B, k))
    return chain


def _levels(value: "LaplacianJet", base, derivatives, depth: int) -> list:
    """g(u) for u = value at depths 0..depth, base being g at the point value."""
    g = np.asarray(base, dtype=complex).reshape(value.coeffs.shape[:-1] + (1,))
    return _extend(value, [g], derivatives, depth)


def _reciprocal_levels(value: "LaplacianJet", depth: int) -> list:
    """1/u at depths 0..depth: g' = -r^2 and g'' = 2 r^3.  Built once per
    jet: the chain is stored on value, a deeper call extends it and a
    shallower one reads its prefix."""

    def derivatives(r, k):
        square = _reciprocal_square(value, k)
        return -square, 2 * _times(square, r, value.basis_size, k)

    chain = value._reciprocals
    if chain is None:
        chain = value._reciprocals = _levels(value, reciprocal(value.constant_value()), derivatives, 0)
    for g in _extend(value, chain, derivatives, depth):
        g.flags.writeable = False  # shared by every later reader of the chain
    return chain[: depth + 1]


def _reciprocal_square(value: "LaplacianJet", k: int) -> np.ndarray:
    """r^2 for r the depth-k link of value's stored reciprocal chain, which
    must reach depth k: taken once and stored beside the chain, where both
    the chain's next level and the log's g'' = -r^2 read it."""
    squares = value._squares
    for j in range(len(squares), k + 1):
        r = value._reciprocals[j]
        square = _times(r, r, value.basis_size, j)
        square.flags.writeable = False
        squares.append(square)
    return squares[k]


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
        return value._like(
            _levels(value, base, lambda g, k: (r[k], -_reciprocal_square(value, k)), value.depth)[-1]
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
