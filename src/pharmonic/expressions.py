"""Evaluation trees for complex functions of matrix entries, and builders
for the eigenfunctions and p-harmonic compositions studied here.

An :class:`ExprNode` tree is scalar-generic: evaluating it substitutes the
entries of whatever matrix is supplied, so one tree serves plain complex
evaluation, jet and nested-jet evaluation, and forward-Laplacian evaluation
(:class:`pharmonic.jets.LaplacianJet` entries).  A stack of K matrices is
evaluated in one walk, every node holding one value per matrix (a lane),
and forward-Laplacian entries may carry such lanes too.  Powers with integer
exponent are taken by repeated multiplication (no branch cut); fractional
powers and logarithms use principal branches and may raise
:class:`pharmonic.jets.BranchCutError`.

The quadratic building blocks are entries of the projector onto the span of
a window of columns: for a window C, q_{j,a}(x) = sum_{t in C} x_{jt} x_{at}.
These are invariant under right rotation of the window columns.  Contracting
them against a symmetric coefficient matrix that is traceless, rank one and
square-zero produces a simultaneous eigenfunction of the Laplace-Beltrami
and conformality operators; such matrices arise as u u^T for isotropic u.
A coefficient matrix is a plain N x N complex array; the column window is
given beside it, as its width m or as the columns themselves.

Such a contraction is one :class:`ProjectorForm` node, tr(P X^T S X) for
P the projector onto the window: it holds the rows it touches, the
symmetric coefficient matrix S on them and the column window, not a tree
of entry products.  It is evaluated by its linear rewrite
sum_{j, t} x_jt y_jt with y = S X_C: N |C| entry products for N touched
rows; the node's value equals its rewrite as a tree bit for bit.
The forward-Laplacian walk (:func:`pharmonic.operators.laplacian_jet`) does
not evaluate the node on lifted entries: it hands :func:`evaluate` the
node's jet, computed from the Gram matrix X^T S X and a generator tensor of
the basis and window, whose value channel is plain evaluation of the node.

A flag function, a sum over column blocks of one p-harmonic composition per
block eigenfunction, is one composition over a lane stack: the block family
is one :class:`Stack` node, which puts the t block forms' values side by
side on a last block axis, so K points give a (K, t) lane array, a Stack of
t constants gives each block its own coefficient, broadcast along that axis,
and the :class:`Unstack` root adds the t blocks at each point.  Every node
of the composition then runs once for all blocks, lane for lane the
operations the per-block sum runs, so on a stack of points the two agree
bit for bit.  :func:`tree_forms` scans a tree once for the forward-Laplacian
walk: a Stack of forms on the same rows that no other node reads is one
group, whose jet the walk hands :func:`evaluate` whole, and every other
form a group of one.
"""

from __future__ import annotations

import cmath
import csv
import json
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from numbers import Number
from pathlib import Path
from typing import Sequence

import numpy as np

from .jets import LaplacianJet, ipow, jlog, jpow

ISOTROPY_TOL = 1e-12


# -- expression trees ----------------------------------------------------------


@dataclass(frozen=True)
class Entry:
    """Matrix coordinate x_{row,col}, 1-based."""

    row: int
    col: int


@dataclass(frozen=True)
class Const:
    value: complex


@dataclass(frozen=True)
class Sum:
    terms: tuple


@dataclass(frozen=True)
class Product:
    factors: tuple


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: complex


@dataclass(frozen=True)
class Log:
    child: object


@dataclass(frozen=True)
class Stack:
    """The members' values side by side on a new last block axis: a (K, t)
    lane array at K points, jets of (K, t, D**p) components, and t values
    at one bare point, where the block axis is the only one.  A Stack holds
    one kind of member, whose values are all jets, all lane arrays or all
    numbers: a block family of forms, or t constants, whose t values
    broadcast along the block axis.  A stack that mixes them raises."""

    members: tuple

    def __post_init__(self):
        if not self.members:
            raise ValueError("a Stack needs at least one member")


@dataclass(frozen=True)
class Unstack:
    """At each point, the sum of ``child``'s values along the block axis,
    left to right: (b_0 + b_1) + b_2 ...."""

    child: object


@dataclass(frozen=True)
class ProjectorForm:
    """tr(P X^T S X) = sum_{j, a in rows} S_ja sum_{t in columns} x_jt x_at:
    ``rows`` are the rows the form touches, 0-based and ascending,
    ``weights`` the symmetric coefficient matrix S on them, row by row, and
    ``columns`` the 1-based window that P projects onto.

    It is evaluated by its linear rewrite sum_{j, t} x_jt y_jt with
    y_jt = sum_a S_ja x_at, one entry product per row and column.
    """

    rows: tuple[int, ...]
    weights: tuple[tuple[complex, ...], ...]
    columns: tuple[int, ...]

    def __post_init__(self):
        if not self.columns:
            raise ValueError("empty column window")

    @cached_property
    def weight_array(self) -> np.ndarray:
        """``weights`` as a read-only complex array."""
        weights = np.array(self.weights, dtype=complex)
        weights.flags.writeable = False  # shared by every evaluation of the node
        return weights


ExprNode = (Entry, Const, Sum, Product, Pow, Log, ProjectorForm, Stack, Unstack)


def _is_int(e: complex) -> bool:
    return abs(e.imag) < 1e-12 and abs(e.real - round(e.real)) < 1e-12


def evaluate(node, matrix, known: dict | None = None):
    """Evaluate a tree on a matrix of scalars (numpy or nested sequences), or
    on a numeric stack of K matrices, shape (K, N, N), in one walk: then every
    node holds a contiguous array of K lane values, and so does the result.
    ``known`` maps the id of a node to its value, which the walk takes as
    given (the forward-Laplacian walk hands it each projector form's jet
    this way); the walk uses that dict as its memo, so it drops each of
    those values after its last reader too.  A tree whose Entry leaves are
    all below such nodes may be walked with no matrix (None).

    Evaluating on plain complex entries agrees exactly, coefficient 0 by
    coefficient 0, with evaluating on jet-lifted entries: both paths run the
    identical primitive operations, and a stack agrees the same way with
    forward-Laplacian entries lifted from it.  A subtree reached several
    times (the eigenfunction inside a composition) is evaluated once per
    call: results are memoised by node identity, and each is dropped after
    its last reader has read it, so a walk holds only the values still due.
    Below a Stack node a value gains a last block axis, one entry per
    member (see Stack); an Unstack node sums it away.
    """
    memo = {} if known is None else known
    if isinstance(matrix, np.ndarray) and matrix.ndim == 3:
        # entry (r, c) of every matrix as one contiguous lane array
        lanes = np.ascontiguousarray(np.moveaxis(matrix, 0, -1), dtype=complex)
        if known is None and isinstance(node, ProjectorForm):
            return _projector_value(node, lanes)  # one node: no readers, no memo
        value = _eval(node, lanes, memo, _readers(node))
        return value if isinstance(value, np.ndarray) else np.full(len(matrix), complex(value))
    return _eval(node, matrix, memo, _readers(node))


def _children(node) -> tuple:
    if isinstance(node, Sum):
        return node.terms
    if isinstance(node, Product):
        return node.factors
    if isinstance(node, Pow):
        return (node.base,)
    if isinstance(node, Log):
        return (node.child,)
    if isinstance(node, Stack):
        return node.members
    if isinstance(node, Unstack):
        return (node.child,)
    return ()


def tree_forms(root) -> tuple[list, bool]:
    """One scan of a tree: its projector forms in groups, and whether it has
    Entry leaves.  A group is (node, forms).  A block family, a Stack whose
    members are all ProjectorForms touching the same rows and read by no
    other node, is one group keyed by the Stack, its forms in member order;
    every other form is a group of one, keyed by itself."""
    counts, nodes = _reference_counts(root)
    groups, forms, grouped, entries = [], [], set(), False
    for node in nodes:
        if isinstance(node, ProjectorForm):
            forms.append(node)
        elif isinstance(node, Entry):
            entries = True
        elif isinstance(node, Stack) and _is_family(node, counts):
            groups.append((node, node.members))
            grouped.update(map(id, node.members))
    groups += [(form, (form,)) for form in forms if id(form) not in grouped]
    return groups, entries


def _is_family(node: Stack, counts: dict) -> bool:
    """Whether the Stack's members are all ProjectorForms on the same rows,
    read by no node but this Stack."""
    members, rows = node.members, getattr(node.members[0], "rows", None)
    if not all(isinstance(m, ProjectorForm) and m.rows == rows for m in members):
        return False
    return all(counts[key] == n for key, n in Counter(map(id, members)).items())


def _reference_counts(root) -> tuple[dict, list]:
    """How many times a walk from root reads each node, by identity: once
    per reference from each distinct parent, and once for the root itself;
    and the distinct nodes, each once, root first."""
    counts, nodes = {id(root): 1}, [root]
    stack = [root]
    while stack:
        for child in _children(stack.pop()):
            key = id(child)
            seen = counts.get(key, 0)
            if not seen:
                stack.append(child)
                nodes.append(child)
            counts[key] = seen + 1
    return counts, nodes


def _readers(root) -> dict:
    """How many times a walk from root reads each node, by identity."""
    return _reference_counts(root)[0]


def _eval(node, m, memo: dict, readers: dict):
    key = id(node)
    value = memo.pop(key) if key in memo else _node_value(node, m, memo, readers)
    readers[key] -= 1
    if readers[key]:
        memo[key] = value
    return value


def _entry(m, row: int, col: int):
    v = m[row - 1][col - 1]
    return complex(v) if isinstance(v, Number) else v


def _node_value(node, m, memo: dict, readers: dict):
    if isinstance(node, Entry):
        return _entry(m, node.row, node.col)
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Sum):
        acc = _eval(node.terms[0], m, memo, readers)
        for t in node.terms[1:]:
            acc = acc + _eval(t, m, memo, readers)
        return acc
    if isinstance(node, Product):
        acc = _eval(node.factors[0], m, memo, readers)
        for f in node.factors[1:]:
            acc = acc * _eval(f, m, memo, readers)
        return acc
    if isinstance(node, Pow):
        v = _eval(node.base, m, memo, readers)
        e = complex(node.exponent)
        if _is_int(e):
            return ipow(v, int(round(e.real)))
        return jpow(v, e)
    if isinstance(node, Log):
        return jlog(_eval(node.child, m, memo, readers))
    if isinstance(node, ProjectorForm):
        return _projector_value(node, m)
    if isinstance(node, Stack):
        return _stack_value([_eval(member, m, memo, readers) for member in node.members])
    if isinstance(node, Unstack):
        return _block_sum(_eval(node.child, m, memo, readers))
    raise TypeError(f"not an expression node: {node!r}")


# -- lane stacks -----------------------------------------------------------------


def _stack_value(values: list):
    """Member values of one kind side by side on a new last block axis:
    Laplacian jets as one jet, lane arrays or numbers as one array."""
    if isinstance(values[0], LaplacianJet):
        return values[0]._like(np.stack([v.coeffs for v in values], axis=-2))
    return np.stack(values, axis=-1, dtype=complex)


def _block_sum(value):
    """The sum along the block axis, left to right."""
    if isinstance(value, LaplacianJet):
        return value._like(_ordered_sum(np.moveaxis(value.coeffs, -2, 0)))
    return _ordered_sum(np.moveaxis(value, -1, 0))


# -- projector quadratics ------------------------------------------------------


def _projector_value(node: ProjectorForm, m):
    """The form as sum_{j, t} x_jt y_jt over the rows j it touches and the
    window columns t, row-major, with y_jt = sum_a S_ja x_at.

    On a numeric stack (m[r, c] the lane array of entry (r, c)) y is one
    linear map of the window's lanes; on any other scalar (one plain point,
    nested jets) every term is a ring operation on the entries, in the same
    order.  The forward-Laplacian walk does not come here: it takes the
    form's jet from the generator tensor in pharmonic.operators.
    """
    cols = [c - 1 for c in node.columns]
    if isinstance(m, np.ndarray) and m.ndim == 3:
        x = m.take(node.rows, axis=0).take(cols, axis=1)
        terms = x * _window_map(node.weight_array, x)
        return _ordered_sum(terms.reshape(len(node.rows) * len(cols), m.shape[-1]))
    x = [[_entry(m, r + 1, c + 1) for c in cols] for r in node.rows]
    y = [
        [_ordered_sum([w * x[a][t] for a, w in enumerate(row)]) for t in range(len(cols))]
        for row in node.weights
    ]
    return _ordered_sum([a * b for xs, ys in zip(x, y) for a, b in zip(xs, ys)])


def _window_map(weights: np.ndarray, x: np.ndarray) -> np.ndarray:
    """y for an (R, W, ...) array x of entry values: y[j] is the sum over a
    of weights[j, a] x[a], left to right, each term a number times an array
    as Const * Entry computes it."""
    columns = weights.T.reshape(weights.shape + (1,) * (x.ndim - 1))  # columns[a] = weights[:, a]
    y = columns[0] * x[0]
    for a in range(1, len(weights)):
        y = y + columns[a] * x[a]
    return y


def _ordered_sum(terms):
    """terms[0] + terms[1] + ..., left to right."""
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total


def projector_form(A, m: int | None = None, columns: Sequence[int] | None = None):
    """Quadratic form sum_{j,a} A[j,a] * q_{j,a} over a column window, as
    one :class:`ProjectorForm` node.

    ``A`` is an N x N complex matrix, with or without the eigenfunction
    structure (negative controls pass one without).  The window is the first
    ``m`` columns, or the 1-based ``columns`` when given.  Since
    q_{j,a} = q_{a,j}, the form reads only the symmetric part of A: S_jj =
    A_jj and S_ja = (A_ja + A_aj) / 2, exact for any A.  It touches the
    rows where S has a nonzero entry; a form that touches none is Const(0).
    """
    if columns is None:
        if m is None:
            raise ValueError("need a column window: pass m or columns")
        columns = range(1, m + 1)
    A = np.asarray(A, dtype=complex).tolist()
    S = [[c if j == a else (c + A[a][j]) / 2 for a, c in enumerate(row)] for j, row in enumerate(A)]
    rows = tuple(j for j, row in enumerate(S) if any(row))
    if not rows:
        return Const(0j)
    weights = tuple(tuple(S[j][a] for a in rows) for j in rows)
    return ProjectorForm(rows, weights, tuple(columns))


# -- coefficient matrices ------------------------------------------------------


def validate_eigen_matrix(A, form=None) -> dict[str, float]:
    """Residuals of symmetry, zero trace, square zero, and rank one.

    Returns the dict ``{"symmetry", "trace", "square", "rank"}`` in that
    order; each value is zero for an exact eigenfunction-inducing matrix,
    and the zero matrix reads 0, 0, 0 and 1.0.  Residuals are normalized by
    the matrix scale so they are invariant under rescaling; rank uses the
    ratio of the two largest singular values.

    ``form`` generalizes the conditions to an indefinite signature: with a
    diagonal form matrix eta the trace condition becomes tr(A eta) = 0 and
    the square condition A eta A = 0.  The default (identity) recovers the
    plain conditions.
    """
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("expected a square matrix")
    eta = np.eye(A.shape[0]) if form is None else np.asarray(form)
    scale = float(np.max(np.abs(A)))
    if scale == 0.0:
        return {"symmetry": 0.0, "trace": 0.0, "square": 0.0, "rank": 1.0}
    sym = float(np.max(np.abs(A - A.T))) / scale
    tr = abs(complex(np.trace(A @ eta))) / scale
    sq = float(np.max(np.abs(A @ eta @ A))) / scale**2
    s = np.linalg.svd(A, compute_uv=False)
    rank_ratio = float(s[1] / s[0]) if len(s) > 1 else 0.0
    return {"symmetry": sym, "trace": tr, "square": sq, "rank": rank_ratio}


def rank_one_from_isotropic(u) -> np.ndarray:
    """Coefficient matrix u u^T for an isotropic vector (u . u = 0, to
    ISOTROPY_TOL relative to |u|^2)."""
    u = np.asarray(u, dtype=complex).ravel()
    norm2 = float(np.sum(np.abs(u) ** 2))
    if norm2 == 0.0:
        raise ValueError("isotropic vector must be nonzero")
    if abs(complex(u @ u)) > ISOTROPY_TOL * norm2:
        raise ValueError(f"vector is not isotropic: u.u = {complex(u @ u)!r}")
    return np.outer(u, u)


def rank_one_from_vector(w) -> np.ndarray:
    """Coefficient matrix built from a free complex vector of length N - 1.

    With s the principal square root of sum(w_i^2), the generating isotropic
    vector is (s, i w_1, ..., i w_{N-1}); the result has first row
    (sum w^2, i w_1 s, ...) and lower block -w_i w_j.  A w whose squares
    underflow to zero, or whose products overflow, raises ValueError.
    """
    w = np.asarray(w, dtype=complex).ravel()
    if w.size == 0 or not np.any(w):
        raise ValueError("need a nonzero vector")
    with np.errstate(over="ignore", invalid="ignore"):
        if np.max(np.abs(w)) ** 2 == 0.0:
            raise ValueError("w is nonzero, but its squares underflow to zero")
        root = cmath.sqrt(complex(w @ w))
        u = np.concatenate([[root], 1j * w])
        A = rank_one_from_isotropic(u)
    if not np.all(np.isfinite(A)):
        raise ValueError("products of the entries of w overflow")
    return A


def dual_matrix(A, m: int, n: int) -> np.ndarray:
    """Coefficient matrix of the companion function on the indefinite group.

    Both real forms sit in one complex group, related by conjugation with
    c = diag(I_m, i I_n); restricting the analytic continuation of the
    compact quadratic form to the other form turns the coefficients A into
    c A c (boost rows and columns pick up a factor i).  The result satisfies
    the indefinite-signature structure conditions whenever A satisfies the
    plain ones, and its form obeys the sign-flipped eigen relations along
    boost directions.
    """
    A = np.asarray(A, dtype=complex)
    c = np.concatenate([np.ones(m), 1j * np.ones(n)])
    return A * np.outer(c, c)


# -- p-harmonic compositions ---------------------------------------------------


def _power_log_term(c, phi, a: complex, log_power):
    """c * phi^a * log_power with build-time trivial factors dropped, where
    c is a number or a node, and log_power is the composition's shared node
    log(phi)^b, or None for b = 0."""
    factors = [c if isinstance(c, ExprNode) else Const(c)]
    if a != 0:
        factors.append(phi if a == 1 else Pow(phi, complex(a)))
    if log_power is not None:
        factors.append(log_power)
    if len(factors) == 1:
        return factors[0]
    return Product(tuple(factors))


def p_harmonic_expr(phi, lam, mu, p: int, c1=1.0, c2=0.0):
    """Composition of an eigenfunction whose iterated Laplacian of order p
    vanishes while the order p - 1 image survives for generic coefficients.

    lam and mu are the Laplacian and conformality eigenvalues of phi.  The
    shape depends on the eigenvalue pattern:

      mu == 0, lam != 0:  c1 * log(phi)^(p-1)              (c2 unused)
      mu != 0, lam == mu: c1 * log(phi)^(2p-1) + c2 * log(phi)^(2p-2)
      mu != 0, lam != mu, lam != 0:
                          c1 * phi^(1 - lam/mu) * log(phi)^(p-1)
                          + c2 * log(phi)^(p-1)

    The pattern (lam == 0, mu != 0) is rejected: no composition is defined
    for it here.  c1 and c2 are numbers, or nodes (a Stack of constants
    gives each block of a lane stack its own).
    """
    lam, mu = complex(lam), complex(mu)
    if p < 1:
        raise ValueError("need p >= 1")
    if lam == 0j and mu == 0j:
        raise ValueError("eigenvalues (0, 0) are not allowed")
    c1, c2 = (c if isinstance(c, ExprNode) else complex(c) for c in (c1, c2))
    if mu == 0j:
        terms = [(c1, 0j, p - 1)]
    elif lam == mu:
        terms = [(c1, 0j, 2 * p - 1), (c2, 0j, 2 * p - 2)]
    elif lam == 0j:
        raise ValueError("eigenvalue pattern (lam = 0, mu != 0) is not supported")
    else:
        terms = [(c1, 1 - lam / mu, p - 1), (c2, 0j, p - 1)]
    # one Log(phi) and one node per power of it, shared by every term, so a
    # walk evaluates the logarithm and each of its powers once
    log_phi = Log(phi)
    log_powers = {b: log_phi if b == 1 else Pow(log_phi, b) for _, _, b in terms if b > 0}
    built = [_power_log_term(c, phi, a, log_powers.get(b)) for c, a, b in terms if c != 0j]
    if not built:
        return Const(0j)
    if len(built) == 1:
        return built[0]
    return Sum(tuple(built))


# -- flag sums -----------------------------------------------------------------


def block_columns(block_sizes: Sequence[int], k: int) -> tuple[int, ...]:
    """1-based column window of block k (0-based k)."""
    start = sum(block_sizes[:k])
    return tuple(range(start + 1, start + block_sizes[k] + 1))


def flag_forms(block_sizes: Sequence[int]) -> Stack:
    """The block family: one deterministic block eigenfunction per column
    block, as one :class:`Stack` of :class:`ProjectorForm` members on all n
    rows.

    ``block_sizes`` partitions the n columns into t >= 2 windows; member k
    has weights u u^T over block k's window, u = (s, i w_1, ..., i w_(n-1))
    for w = (1 + k, ..., n - 1 + k) and s the principal square root of
    sum(w_i^2).  Built in Python complex arithmetic, each product exact or
    rounded once, they equal bit for bit those of
    ``projector_form(rank_one_from_vector(w))``, whose checks guard input
    from outside the program; these vectors are the program's own.
    """
    block_sizes = tuple(int(b) for b in block_sizes)
    if len(block_sizes) < 2:
        raise ValueError("need at least two blocks")
    if any(b < 1 for b in block_sizes):
        raise ValueError("block sizes must be positive")
    n = sum(block_sizes)
    members = []
    for k in range(len(block_sizes)):
        w = [float(j + k) for j in range(1, n)]
        u = [cmath.sqrt(complex(sum(x * x for x in w)))] + [1j * x for x in w]
        weights = tuple(tuple(a * b for b in u) for a in u)
        members.append(ProjectorForm(tuple(range(n)), weights, block_columns(block_sizes, k)))
    return Stack(tuple(members))


def flag_sum_expr(family: Stack, p: int):
    """Sum over blocks of the p-harmonic composition of each block form, as
    one composition over the block family.

    ``family`` is the Stack of block eigenfunctions :func:`flag_forms`
    builds; block k is composed with coefficients (1, (k + 1) / 2).  The
    tree is Unstack(p_harmonic_expr(family, ..., Stack(c2s))): at K points
    the forms' values fill a (K, t) lane array, the c2s are a Stack of t
    constants, and the root adds the t blocks in block order, so one walk
    takes a single log, reciprocal chain and product per node for every
    block, and each form is read once, by the family.  The windows
    partition the columns, so n is the sum of the members' window sizes.
    Every block eigenfunction has Laplacian eigenvalue -n and conformality
    eigenvalue -2, so the summands share one eigenvalue pair and the sum
    stays p-harmonic.
    """
    n = sum(len(phi.columns) for phi in family.members)
    c2 = Stack(tuple(Const(complex((k + 1) / 2)) for k in range(len(family.members))))
    return Unstack(p_harmonic_expr(family, -n, -2, p, 1.0, c2))


# -- file ingestion -------------------------------------------------------------


def parse_complex(cell: str) -> complex:
    """Parse a 're:im' cell; a bare real is taken with zero imaginary part."""
    cell = cell.strip()
    if not cell:
        raise ValueError("empty complex cell")
    if ":" in cell:
        re_part, im_part = cell.split(":", 1)
        return complex(float(re_part), float(im_part))
    return complex(float(cell), 0.0)


def parse_vector(text: str) -> np.ndarray:
    """Comma-separated 're:im' cells."""
    return np.array([parse_complex(c) for c in text.split(",")], dtype=complex)


def _cell_to_complex(cell) -> complex:
    # a JSON true or false is a Python bool, which is a Number: refused
    if isinstance(cell, str):
        return parse_complex(cell)
    if isinstance(cell, (list, tuple)) and len(cell) == 2 and not any(isinstance(c, bool) for c in cell):
        return complex(float(cell[0]), float(cell[1]))
    if isinstance(cell, Number) and not isinstance(cell, bool):
        return complex(cell)
    raise ValueError(f"cannot read complex cell {cell!r}")


def load_matrix(path) -> np.ndarray:
    """Row-major complex matrix from a CSV of 're:im' cells or a JSON array.

    JSON cells may be 're:im' strings, [re, im] pairs, or plain numbers.
    Every unreadable file raises ValueError (or OSError), among them JSON
    nested past the parser's recursion limit, a JSON integer beyond float
    range and a CSV cell over csv's field size limit; so does an empty path,
    which Path would read as the current directory.
    """
    if path == "":
        raise ValueError("empty file name")
    path = Path(path)
    try:
        if path.suffix.lower() == ".json":
            rows = json.loads(path.read_text())
            if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
                raise ValueError("expected a JSON array of row arrays")
        else:
            with path.open(newline="") as fh:
                rows = [row for row in csv.reader(fh) if row]
        lengths = sorted({len(row) for row in rows})
        if len(lengths) > 1:
            raise ValueError(f"rows of unequal lengths {lengths}")
        data = [[_cell_to_complex(cell) for cell in row] for row in rows]
    except (RecursionError, csv.Error, OverflowError) as exc:
        raise ValueError(f"unreadable matrix file: {exc}") from None
    mat = np.array(data, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    return mat
