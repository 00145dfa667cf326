"""Evaluation trees for complex functions of matrix entries, and builders
for the eigenfunctions and p-harmonic compositions studied here.

An :class:`ExprNode` tree is scalar-generic: evaluating it substitutes the
entries of whatever matrix is supplied, so one tree serves plain complex
evaluation, jet and nested-jet evaluation, and forward-Laplacian evaluation
(:class:`pharmonic.jets.LaplacianJet` entries).  Powers with integer
exponent are taken by repeated multiplication (no branch cut); fractional
powers and logarithms use principal branches and may raise
:class:`pharmonic.jets.BranchCutError`.

The quadratic building blocks are entries of the projector onto the span of
a window of columns: for a window C, q_{j,a}(x) = sum_{t in C} x_{jt} x_{at}.
These are invariant under right rotation of the window columns.  Contracting
them against a symmetric coefficient matrix that is traceless, rank one and
square-zero produces a simultaneous eigenfunction of the Laplace-Beltrami
and conformality operators; such matrices arise as u u^T for isotropic u.
"""

from __future__ import annotations

import cmath
import csv
import json
from dataclasses import dataclass
from numbers import Number
from pathlib import Path
from typing import Sequence

import numpy as np

from .jets import ipow, jlog, jpow

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


ExprNode = (Entry, Const, Sum, Product, Pow, Log)


def _is_int(e: complex) -> bool:
    return abs(e.imag) < 1e-12 and abs(e.real - round(e.real)) < 1e-12


def evaluate(node, matrix):
    """Evaluate a tree on a matrix of scalars (numpy or nested sequences).

    Evaluating on plain complex entries agrees exactly, coefficient 0 by
    coefficient 0, with evaluating on jet-lifted entries: both paths run the
    identical primitive operations.  A subtree reached several times (the
    eigenfunction inside a composition) is evaluated once per call: results
    are memoised by node identity.
    """
    if hasattr(matrix, "entries"):
        matrix = matrix.entries
    return _eval(node, matrix, {})


def _eval(node, m, memo: dict):
    key = id(node)
    if key not in memo:
        memo[key] = _node_value(node, m, memo)
    return memo[key]


def _node_value(node, m, memo: dict):
    if isinstance(node, Entry):
        v = m[node.row - 1][node.col - 1]
        return complex(v) if isinstance(v, Number) else v
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Sum):
        acc = _eval(node.terms[0], m, memo)
        for t in node.terms[1:]:
            acc = acc + _eval(t, m, memo)
        return acc
    if isinstance(node, Product):
        acc = _eval(node.factors[0], m, memo)
        for f in node.factors[1:]:
            acc = acc * _eval(f, m, memo)
        return acc
    if isinstance(node, Pow):
        v = _eval(node.base, m, memo)
        e = complex(node.exponent)
        if _is_int(e):
            return ipow(v, int(round(e.real)))
        return jpow(v, e)
    if isinstance(node, Log):
        return jlog(_eval(node.child, m, memo))
    raise TypeError(f"not an expression node: {node!r}")


# -- projector quadratics ------------------------------------------------------


def window_quadratic(j: int, alpha: int, columns: Sequence[int]) -> Sum:
    """sum over t in columns of x_{jt} x_{alpha t} (all indices 1-based)."""
    if not columns:
        raise ValueError("empty column window")
    return Sum(tuple(Product((Entry(j, t), Entry(alpha, t))) for t in columns))


def projector_form(A, m: int | None = None, columns: Sequence[int] | None = None):
    """Quadratic form sum_{j,a} A[j,a] * q_{j,a} over a column window.

    ``A`` may be an :class:`EigenMatrix` or a plain complex matrix (useful
    for negative controls).  The window defaults to the first ``m`` columns,
    with ``m`` taken from the eigen-matrix dims when not given.  Since
    q_{j,a} = q_{a,j}, the tree holds one term per unordered pair j <= a,
    with coefficient A[j,a] + A[a,j] off the diagonal: exact for any A.
    """
    if isinstance(A, EigenMatrix):
        if m is None and columns is None and A.dims is not None:
            m = A.dims[0]
        A = A.matrix
    A = np.asarray(A, dtype=complex)
    if columns is None:
        if m is None:
            raise ValueError("need a column window: pass m or columns")
        columns = range(1, m + 1)
    columns = tuple(columns)
    N = A.shape[0]
    terms = []
    for j in range(1, N + 1):
        for a in range(j, N + 1):
            c = complex(A[j - 1, a - 1] if a == j else A[j - 1, a - 1] + A[a - 1, j - 1])
            if c != 0j:
                terms.append(Product((Const(c), window_quadratic(j, a, columns))))
    if not terms:
        return Const(0j)
    return Sum(tuple(terms))


# -- coefficient matrices ------------------------------------------------------


@dataclass(frozen=True, eq=False)
class EigenMatrix:
    """Symmetric coefficient matrix with eigenfunction-inducing structure."""

    matrix: np.ndarray
    dims: tuple[int, int] | None = None


@dataclass(frozen=True)
class MatrixValidation:
    """Scale-normalized residuals of the four structure conditions; each is
    zero for an exact eigenfunction-inducing matrix."""

    symmetry: float
    trace: float
    square: float
    rank_ratio: float


def validate_eigen_matrix(A, form=None) -> MatrixValidation:
    """Residuals of symmetry, zero trace, square zero, and rank one.

    Residuals are normalized by the matrix scale so they are invariant under
    rescaling; rank uses the ratio of the two largest singular values.

    ``form`` generalizes the conditions to an indefinite signature: with a
    diagonal form matrix eta the trace condition becomes tr(A eta) = 0 and
    the square condition A eta A = 0.  The default (identity) recovers the
    plain conditions.
    """
    if isinstance(A, EigenMatrix):
        A = A.matrix
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("expected a square matrix")
    eta = np.eye(A.shape[0]) if form is None else np.asarray(form)
    scale = float(np.max(np.abs(A)))
    if scale == 0.0:
        return MatrixValidation(0.0, 0.0, 0.0, 1.0)
    sym = float(np.max(np.abs(A - A.T))) / scale
    tr = abs(complex(np.trace(A @ eta))) / scale
    sq = float(np.max(np.abs(A @ eta @ A))) / scale**2
    s = np.linalg.svd(A, compute_uv=False)
    rank_ratio = float(s[1] / s[0]) if len(s) > 1 else 0.0
    return MatrixValidation(sym, tr, sq, rank_ratio)


def rank_one_from_isotropic(u, dims: tuple[int, int] | None = None) -> EigenMatrix:
    """Coefficient matrix u u^T for an isotropic vector (u . u = 0, to
    ISOTROPY_TOL relative to |u|^2)."""
    u = np.asarray(u, dtype=complex).ravel()
    norm2 = float(np.sum(np.abs(u) ** 2))
    if norm2 == 0.0:
        raise ValueError("isotropic vector must be nonzero")
    if abs(complex(u @ u)) > ISOTROPY_TOL * norm2:
        raise ValueError(f"vector is not isotropic: u.u = {complex(u @ u)!r}")
    return EigenMatrix(np.outer(u, u), dims)


def rank_one_from_vector(w, dims: tuple[int, int] | None = None) -> EigenMatrix:
    """Coefficient matrix built from a free complex vector of length N - 1.

    With s the principal square root of sum(w_i^2), the generating isotropic
    vector is (s, i w_1, ..., i w_{N-1}); the result has first row
    (sum w^2, i w_1 s, ...) and lower block -w_i w_j.  A w whose products
    overflow raises ValueError.
    """
    w = np.asarray(w, dtype=complex).ravel()
    if w.size == 0 or not np.any(w):
        raise ValueError("need a nonzero vector")
    with np.errstate(over="ignore", invalid="ignore"):
        root = cmath.sqrt(complex(w @ w))
        u = np.concatenate([[root], 1j * w])
        A = rank_one_from_isotropic(u, dims)
    if not np.all(np.isfinite(A.matrix)):
        raise ValueError("products of the entries of w overflow")
    return A


def dual_matrix(A, m: int | None = None, n: int | None = None) -> EigenMatrix:
    """Coefficient matrix of the companion function on the indefinite group.

    Both real forms sit in one complex group, related by conjugation with
    c = diag(I_m, i I_n); restricting the analytic continuation of the
    compact quadratic form to the other form turns the coefficients A into
    c A c (boost rows and columns pick up a factor i).  The result satisfies
    the indefinite-signature structure conditions whenever A satisfies the
    plain ones, and its form obeys the sign-flipped eigen relations along
    boost directions.
    """
    if isinstance(A, EigenMatrix):
        if m is None and A.dims is not None:
            m, n = A.dims
        A = A.matrix
    if m is None or n is None:
        raise ValueError("need the signature split (m, n)")
    A = np.asarray(A, dtype=complex)
    c = np.concatenate([np.ones(m), 1j * np.ones(n)])
    return EigenMatrix(A * np.outer(c, c), (m, n))


# -- p-harmonic compositions ---------------------------------------------------


def _power_log_term(c: complex, phi, log_phi, a: complex, b: int):
    """c * phi^a * log(phi)^b with build-time trivial factors dropped; every
    term of one composition shares the node log_phi, so a walk evaluates the
    logarithm once."""
    factors = [Const(complex(c))]
    if a != 0:
        factors.append(phi if a == 1 else Pow(phi, complex(a)))
    if b > 0:
        factors.append(log_phi if b == 1 else Pow(log_phi, b))
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
    for it here.
    """
    lam, mu = complex(lam), complex(mu)
    if p < 1:
        raise ValueError("need p >= 1")
    if lam == 0j and mu == 0j:
        raise ValueError("eigenvalues (0, 0) are not allowed")
    c1, c2 = complex(c1), complex(c2)
    if mu == 0j:
        terms = [(c1, 0j, p - 1)]
    elif lam == mu:
        terms = [(c1, 0j, 2 * p - 1), (c2, 0j, 2 * p - 2)]
    elif lam == 0j:
        raise ValueError("eigenvalue pattern (lam = 0, mu != 0) is not supported")
    else:
        terms = [(c1, 1 - lam / mu, p - 1), (c2, 0j, p - 1)]
    log_phi = Log(phi)
    built = [_power_log_term(c, phi, log_phi, a, b) for c, a, b in terms if c != 0j]
    if not built:
        return Const(0j)
    if len(built) == 1:
        return built[0]
    return Sum(tuple(built))


# -- flag sums -----------------------------------------------------------------


@dataclass(frozen=True)
class FlagSpec:
    """Column-window partition with per-block coefficients and generators.

    ``block_sizes`` partitions the n columns into t >= 2 windows; block k
    owns one n x n coefficient matrix and one (c1, c2) coefficient pair.
    """

    block_sizes: tuple[int, ...]
    coefficients: tuple[tuple[complex, complex], ...]
    generators: tuple[EigenMatrix, ...]

    def __post_init__(self):
        t = len(self.block_sizes)
        if t < 2:
            raise ValueError("need at least two blocks")
        if any(b < 1 for b in self.block_sizes):
            raise ValueError("block sizes must be positive")
        if len(self.coefficients) != t or len(self.generators) != t:
            raise ValueError("need one coefficient pair and one generator per block")
        n = sum(self.block_sizes)
        for g in self.generators:
            if g.matrix.shape != (n, n):
                raise ValueError("generators must be n x n for n = sum of blocks")

    @property
    def total(self) -> int:
        return sum(self.block_sizes)


def block_columns(block_sizes: Sequence[int], k: int) -> tuple[int, ...]:
    """1-based column window of block k (0-based k)."""
    start = sum(block_sizes[:k])
    return tuple(range(start + 1, start + block_sizes[k] + 1))


def default_flag_spec(block_sizes: Sequence[int]) -> FlagSpec:
    """Deterministic generators and generic coefficients for a block partition."""
    block_sizes = tuple(int(b) for b in block_sizes)
    n = sum(block_sizes)
    if n < 2:
        raise ValueError("total size must be >= 2")
    gens = []
    coeffs = []
    for k in range(len(block_sizes)):
        w = np.arange(1, n, dtype=float) + k
        gens.append(rank_one_from_vector(w))
        coeffs.append((1.0 + 0j, complex((k + 1) / 2.0)))
    return FlagSpec(block_sizes, tuple(coeffs), tuple(gens))


def flag_sum_expr(spec: FlagSpec, p: int):
    """Sum over blocks of the p-harmonic composition of each block form.

    Every block eigenfunction has Laplacian eigenvalue -n and conformality
    eigenvalue -2, n the total column count, so the summands share one
    eigenvalue pair and the sum stays p-harmonic.
    """
    n = spec.total
    parts = []
    for k in range(len(spec.block_sizes)):
        cols = block_columns(spec.block_sizes, k)
        phi_k = projector_form(spec.generators[k], columns=cols)
        c1, c2 = spec.coefficients[k]
        parts.append(p_harmonic_expr(phi_k, -n, -2, p, c1, c2))
    return Sum(tuple(parts))


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
    if isinstance(cell, str):
        return parse_complex(cell)
    if isinstance(cell, (list, tuple)) and len(cell) == 2:
        return complex(float(cell[0]), float(cell[1]))
    if isinstance(cell, Number):
        return complex(cell)
    raise ValueError(f"cannot read complex cell {cell!r}")


def load_matrix(path) -> np.ndarray:
    """Row-major complex matrix from a CSV of 're:im' cells or a JSON array.

    JSON cells may be 're:im' strings, [re, im] pairs, or plain numbers.
    """
    path = Path(path)
    if path.suffix.lower() == ".json":
        rows = json.loads(path.read_text())
    else:
        with path.open(newline="") as fh:
            rows = [row for row in csv.reader(fh) if row]
    data = [[_cell_to_complex(cell) for cell in row] for row in rows]
    mat = np.array(data, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    return mat
