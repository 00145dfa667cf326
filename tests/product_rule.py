"""The product-rule checker the operator tests and the acceptance gate share."""

from pharmonic.expressions import Product, evaluate
from pharmonic.operators import gradient_product, laplacian
from pharmonic.reports import VerificationReport, upper_check


def check_product_rule(f, g, points, basis, tol: float = 1e-10) -> VerificationReport:
    """Verify laplacian(f g) = laplacian(f) g + 2 pairing(f, g) + f laplacian(g)."""
    fg = Product((f, g))
    records = []
    for i, pt in enumerate(points):
        vf = complex(evaluate(f, pt))
        vg = complex(evaluate(g, pt))
        tf = complex(laplacian(f, pt, basis))
        tg = complex(laplacian(g, pt, basis))
        kfg = complex(gradient_product(f, g, pt, basis))
        tfg = complex(laplacian(fg, pt, basis))
        rhs = tf * vg + 2.0 * kfg + vf * tg
        denom = 1.0 + abs(tfg) + abs(tf * vg) + abs(kfg) + abs(vf * tg)
        records.append(upper_check("product_rule", i, abs(tfg - rhs) / denom, tol))
    return VerificationReport(
        "check_product_rule", {"points": len(points), "tol": tol}, records
    )
