"""Reference constructions for the tests.

The bridges from the exact symbolic calculus to the numeric side:
pharmonic.symcalc imports no other pharmonic module, and these helpers
join its combinations to jet arithmetic and expression trees on the test
side only, so the routes they compare share no code in the package.

The projector quadratics as trees of Entry products: the expanded form of
a ProjectorForm node, whose value the node must reproduce bit for bit.
"""

from pharmonic.expressions import Const, Entry, Log, Pow, Product, ProjectorForm, Sum
from pharmonic.jets import JetScalar, ipow, jlog, jpow, one_like
from pharmonic.symcalc import SymExpr


def evaluate_sym(expr: SymExpr, value):
    """Evaluate sum coeff * v^a * log(v)^b at a complex number or jet.

    Integer powers avoid the logarithm entirely; fractional powers and any
    log factor use principal branches.
    """
    total = None
    log_v = None
    for t in expr.terms():
        part = t.coeff.to_complex() * one_like(value)
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
        return 0j if not isinstance(value, JetScalar) else one_like(value) * 0.0
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


def window_quadratic(j: int, alpha: int, columns) -> Sum:
    """sum over t in columns of x_{jt} x_{alpha t} (all indices 1-based)."""
    if not columns:
        raise ValueError("empty column window")
    return Sum(tuple(Product((Entry(j, t), Entry(alpha, t))) for t in columns))


def expanded_projector_form(form: ProjectorForm) -> Sum:
    """The form as a tree: one Product(Const(c), window quadratic) per pair."""
    return Sum(
        tuple(
            Product((Const(c), window_quadratic(j, a, form.columns)))
            for (j, a), c in zip(form.pairs, form.coefficients)
        )
    )
