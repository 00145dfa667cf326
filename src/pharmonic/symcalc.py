"""Exact symbolic calculus on the span of phi^a * log(phi)^b.

For a function phi with Laplacian eigenvalue lam and conformality eigenvalue
mu, the Laplacian acts on a composition f(phi) as

    L(f o phi) = lam * phi * f'(phi) + mu * phi^2 * f''(phi),

a consequence of the second-order chain rule combined with the two eigen
relations.  Differentiating s^a log(s)^b twice and substituting gives the
exact rewrite on basis terms T(a, b) = phi^a log(phi)^b:

    L T(a,b) = (a*lam + a(a-1)*mu) T(a,b)
             + b*(lam + (2a-1)*mu)  T(a,b-1)
             + b(b-1)*mu            T(a,b-2).

Everything here runs over Gaussian rationals (exact rational real and
imaginary parts) with exact rational exponents a and natural exponents b, so
"the iterate is zero" is a theorem about the expression, not a numerical
statement.  Eigenvalue pairs whose ratio is irrational or non-real are out
of scope and rejected.  The rewrite itself is cross-checked against the
jet-based numerical operators in the test suite.  This module imports no
other pharmonic module: the exact route shares no code with the numeric
one, so their agreement is itself a check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


def _frac(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float) and value == int(value):
        return Fraction(int(value))
    raise TypeError(f"need an exact rational, got {value!r}")


@dataclass(frozen=True)
class GaussianRational:
    """Complex number with exact rational real and imaginary parts."""

    re: Fraction
    im: Fraction = Fraction(0)

    @staticmethod
    def of(value) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, complex):
            return GaussianRational(_frac(value.real), _frac(value.imag))
        return GaussianRational(_frac(value))

    def __add__(self, other):
        other = GaussianRational.of(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        other = GaussianRational.of(other)
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other):
        other = GaussianRational.of(other)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __radd__ = __add__
    __rmul__ = __mul__

    def __truediv__(self, other):
        other = GaussianRational.of(other)
        denom = other.re * other.re + other.im * other.im
        if denom == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / denom,
            (self.im * other.re - self.re * other.im) / denom,
        )

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"({self.re}+{self.im}i)"


GR_ZERO = GaussianRational(Fraction(0))


@dataclass(frozen=True)
class SymTerm:
    """coeff * phi^a * log(phi)^b."""

    coeff: GaussianRational
    a: Fraction
    b: int


class SymExpr:
    """Finite linear combination of basis terms, keyed by (a, b).

    Canonical form: zero coefficients are dropped, equal keys merged.  The
    empty combination is the zero expression.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: dict | None = None):
        clean: dict[tuple[Fraction, int], GaussianRational] = {}
        for key, coeff in (terms or {}).items():
            if not coeff.is_zero():
                clean[key] = coeff
        self._terms = clean

    @staticmethod
    def zero() -> "SymExpr":
        return SymExpr()

    @staticmethod
    def term(coeff, a, b: int) -> "SymExpr":
        coeff = GaussianRational.of(coeff)
        a = _frac(a)
        if b < 0:
            raise ValueError("log exponent must be a natural number")
        return SymExpr({(a, int(b)): coeff})

    def terms(self) -> list[SymTerm]:
        return [
            SymTerm(c, a, b)
            for (a, b), c in sorted(self._terms.items(), key=lambda kv: (kv[0][0], kv[0][1]))
        ]

    def coefficient(self, a, b: int) -> GaussianRational:
        return self._terms.get((_frac(a), int(b)), GR_ZERO)

    def is_zero(self) -> bool:
        return not self._terms

    def __add__(self, other: "SymExpr") -> "SymExpr":
        merged = dict(self._terms)
        for key, coeff in other._terms.items():
            merged[key] = merged.get(key, GR_ZERO) + coeff
        return SymExpr(merged)

    def scale(self, factor) -> "SymExpr":
        factor = GaussianRational.of(factor)
        return SymExpr({key: coeff * factor for key, coeff in self._terms.items()})

    def __neg__(self) -> "SymExpr":
        return self.scale(GaussianRational(Fraction(-1)))

    def __sub__(self, other: "SymExpr") -> "SymExpr":
        return self + (-other)

    def __eq__(self, other):
        if isinstance(other, SymExpr):
            return self._terms == other._terms
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        if self.is_zero():
            return "SymExpr(0)"
        parts = [f"{t.coeff!r}*T({t.a},{t.b})" for t in self.terms()]
        return "SymExpr(" + " + ".join(parts) + ")"


@dataclass(frozen=True)
class EigenParams:
    """Exact eigenvalue pair (Laplacian, conformality)."""

    lam: GaussianRational
    mu: GaussianRational

    @staticmethod
    def of(lam, mu) -> "EigenParams":
        params = EigenParams(GaussianRational.of(lam), GaussianRational.of(mu))
        if params.lam.is_zero() and params.mu.is_zero():
            raise ValueError("eigenvalues (0, 0) are not allowed")
        return params


def apply_laplacian(expr: SymExpr, params: EigenParams) -> SymExpr:
    """One exact application of the Laplacian rewrite, extended linearly."""
    lam, mu = params.lam, params.mu
    out = SymExpr.zero()
    for t in expr.terms():
        a_gr = GaussianRational(t.a)
        am1 = GaussianRational(t.a - 1)
        stay = a_gr * lam + a_gr * am1 * mu
        out = out + SymExpr.term(t.coeff * stay, t.a, t.b)
        if t.b >= 1:
            down1 = GaussianRational(Fraction(t.b)) * (
                lam + GaussianRational(2 * t.a - 1) * mu
            )
            out = out + SymExpr.term(t.coeff * down1, t.a, t.b - 1)
        if t.b >= 2:
            down2 = GaussianRational(Fraction(t.b * (t.b - 1))) * mu
            out = out + SymExpr.term(t.coeff * down2, t.a, t.b - 2)
    return out


def iterate_laplacian(expr: SymExpr, k: int, params: EigenParams) -> SymExpr:
    """k-fold exact application of the rewrite."""
    if k < 0:
        raise ValueError("need k >= 0")
    for _ in range(k):
        expr = apply_laplacian(expr, params)
    return expr


def p_harmonic_combination(params: EigenParams, p: int, c1, c2) -> SymExpr:
    """The symbolic counterpart of the three-case p-harmonic composition.

    Case mu = 0 (lam != 0):   c1 T(0, p-1)
    Case lam = mu != 0:       c1 T(0, 2p-1) + c2 T(0, 2p-2)
    Case mu != 0, lam != mu, lam != 0:
                              c1 T(1 - lam/mu, p-1) + c2 T(0, p-1)

    The pattern (lam = 0, mu != 0) is rejected, as is a non-real-rational
    ratio lam/mu.
    """
    if p < 1:
        raise ValueError("need p >= 1")
    c1 = GaussianRational.of(c1)
    c2 = GaussianRational.of(c2)
    lam, mu = params.lam, params.mu
    if mu.is_zero():
        if lam.is_zero():
            raise ValueError("eigenvalues (0, 0) are not allowed")
        return SymExpr.term(c1, Fraction(0), p - 1)
    if lam == mu:
        return SymExpr.term(c1, Fraction(0), 2 * p - 1) + SymExpr.term(
            c2, Fraction(0), 2 * p - 2
        )
    if lam.is_zero():
        raise ValueError("eigenvalue pattern (lam = 0, mu != 0) is not supported")
    ratio = lam / mu
    if ratio.im != 0:
        raise ValueError("lam/mu must be a real rational for exact exponents")
    exponent = Fraction(1) - ratio.re
    return SymExpr.term(c1, exponent, p - 1) + SymExpr.term(c2, Fraction(0), p - 1)


@dataclass(frozen=True)
class TheoremVerdict:
    """Outcome of the exact p-harmonicity verification."""

    p_harmonic: bool
    proper: bool
    final: SymExpr  # image under the (p-1)-fold Laplacian


def verify_p_harmonic(params: EigenParams, p: int, c1, c2) -> TheoremVerdict:
    """Exact check that the combination dies at order p but not at p - 1.

    Properness is formal nonvanishing of the order-(p-1) image; numerical
    spot checks that the composed function is not identically zero live with
    the samplers, not here.
    """
    expr = p_harmonic_combination(params, p, c1, c2)
    previous = iterate_laplacian(expr, p - 1, params)
    final = apply_laplacian(previous, params)
    return TheoremVerdict(final.is_zero(), not previous.is_zero(), previous)

