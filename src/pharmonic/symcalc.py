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
of scope and rejected.

The rewrite runs in Gaussian integers.  With every exponent written over one
denominator Q, lam and mu over d and the coefficients over C, each rewrite
factor times S = Q^2 d is a Gaussian integer, so L^j of an expression is an
integer image over the one denominator C S^j.  One pass applies the rewrite
k times and yields every order L^0 .. L^k; the single step, the iterate and
the p-harmonicity verdict (orders p-1 and p) all read it.

The rewrite is cross-checked against the jet-based numerical operators in
the test suite.  This module imports no other pharmonic module: the exact
route shares no code with the numeric one, so their agreement is itself a
check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm


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


def _laplacian_images(expr: SymExpr, k: int, params: EigenParams) -> list[SymExpr]:
    """L^j expr for every j = 0..k, from one pass in Gaussian integers.

    With every exponent a = P/Q over one Q, lam and mu over d and S = Q^2 d,
    S times each rewrite factor of T(P/Q, b) is a Gaussian integer:

        S (a lam + a(a-1) mu)   = P Q d lam + P (P-Q) d mu
        S b (lam + (2a-1) mu)   = b Q (Q d lam + (2P-Q) d mu)
        S b(b-1) mu             = b(b-1) Q^2 d mu

    so with the coefficients cleared by C, the lcm of their denominators,
    L^j expr = image_j / (C S^j) exactly, image_j a map (P, b) -> (re, im)
    of integer pairs.  Zero pairs are dropped as they arise.
    """
    if k < 0:
        raise ValueError("need k >= 0")
    lam, mu = params.lam, params.mu
    parts = (lam.re, lam.im, mu.re, mu.im)
    d = lcm(*(x.denominator for x in parts))
    lr, li, mr, mi = (x.numerator * (d // x.denominator) for x in parts)
    Q = lcm(*(a.denominator for a, _ in expr._terms))
    C = lcm(*(x.denominator for c in expr._terms.values() for x in (c.re, c.im)))
    exponent = {}  # P -> a
    image = {}
    for (a, b), c in expr._terms.items():
        P = a.numerator * (Q // a.denominator)
        exponent[P] = a
        image[P, b] = (
            c.re.numerator * (C // c.re.denominator),
            c.im.numerator * (C // c.im.denominator),
        )
    S = Q * Q * d
    result = [expr]
    factors = {}  # (P, b) -> the nonzero scaled factors, as (b', re, im)
    for j in range(1, k + 1):
        out: dict[tuple[int, int], tuple[int, int]] = {}
        for (P, b), (re, im) in image.items():
            row = factors.get((P, b))
            if row is None:
                x, y = P * (P - Q), 2 * P - Q
                row = [
                    (b, P * Q * lr + x * mr, P * Q * li + x * mi),
                    (b - 1, b * Q * (Q * lr + y * mr), b * Q * (Q * li + y * mi)),
                    (b - 2, b * (b - 1) * Q * Q * mr, b * (b - 1) * Q * Q * mi),
                ]
                # a term T(a, b) reaches down to T(a, max(b - 2, 0)) only
                row = factors[P, b] = [f for f in row[: b + 1] if f[1] or f[2]]
            for b2, fr, fi in row:
                old = out.get((P, b2), (0, 0))
                out[P, b2] = (old[0] + re * fr - im * fi, old[1] + re * fi + im * fr)
        image = {key: pair for key, pair in out.items() if pair[0] or pair[1]}
        denom = C * S**j
        result.append(
            SymExpr(
                {
                    (exponent[P], b): GaussianRational(Fraction(re, denom), Fraction(im, denom))
                    for (P, b), (re, im) in image.items()
                }
            )
        )
    return result


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
    zero = Fraction(0)
    if mu.is_zero():
        if lam.is_zero():
            raise ValueError("eigenvalues (0, 0) are not allowed")
        return SymExpr({(zero, p - 1): c1})
    if lam == mu:
        return SymExpr({(zero, 2 * p - 1): c1, (zero, 2 * p - 2): c2})
    if lam.is_zero():
        raise ValueError("eigenvalue pattern (lam = 0, mu != 0) is not supported")
    # lam/mu is real exactly when lam.im mu.re = lam.re mu.im, and then it is
    # the ratio of whichever parts of mu are nonzero
    if lam.im * mu.re != lam.re * mu.im:
        raise ValueError("lam/mu must be a real rational for exact exponents")
    ratio = lam.re / mu.re if mu.re else lam.im / mu.im
    # the exponent 1 - lam/mu is nonzero, as lam != mu: the two keys differ
    return SymExpr({(1 - ratio, p - 1): c1, (zero, p - 1): c2})


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
    images = _laplacian_images(p_harmonic_combination(params, p, c1, c2), p, params)
    previous, final = images[p - 1], images[p]
    return TheoremVerdict(final.is_zero(), not previous.is_zero(), previous)

