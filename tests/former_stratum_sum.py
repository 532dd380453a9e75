"""The former stratum sum of verify_recursion, kept as a test oracle.

strata.verify_recursion used to multiply each stratum's factor expansions
as Poly values, cut back to the stratum's order after each product, and to
add each stratum's coefficient list into the right side one coefficient at
a time.  It now takes the whole right side as one exactalg.truncated_sum;
the tests compare the two reports.
"""

from ymseries.closedforms import flat_series
from ymseries.exactalg import CoeffVector, Poly, series_expand
from ymseries.gaugeseries import betti_degrees, bg_orientable
from ymseries.rootsys import GroupSpec, validate_topclass
from ymseries.strata import RecursionReport, enumerate_ab_points, stratum_factors


def truncated_stratum_series(g, c, ell, points, degree):
    """Each point's stratum series through t^(degree - 2 d): (point, d, coefficients).

    The coefficients stop at the last nonzero one.  For a split point the
    component is the one living on the bundle of class c.  Each distinct
    factor is expanded once, to the largest order a stratum needs it, and
    each stratum multiplies its factors' expansions as polynomials, cut back
    to its order after each product.
    """
    component = "plus" if c % 2 == 0 else "minus"
    used = []
    orders = {}
    for pt, d in points:
        factors = stratum_factors(g, pt, component if pt.is_split else None)
        used.append((pt, d, factors))
        for factor in factors:
            orders[factor] = max(orders.get(factor, 0), degree - 2 * d)
    expanded = {
        (fam, n, k): series_expand(flat_series(GroupSpec(fam, n), k, ell), order).coeffs
        for (fam, n, k), order in orders.items()
    }
    for pt, d, factors in used:
        order = degree - 2 * d
        product = Poly.one()
        for factor in factors:
            product = Poly((product * Poly(expanded[factor][: order + 1])).coeffs[: order + 1])
        yield pt, d, product.coeffs


def verify_recursion(g, c, ell, degree):
    """The former strata.verify_recursion, over truncated_stratum_series."""
    validate_topclass(g, c)
    lhs = series_expand(bg_orientable(betti_degrees(g), ell), degree)
    points = enumerate_ab_points(g, c, ell, degree // 2)
    rhs = [0] * (degree + 1)
    for _, d, coeffs in truncated_stratum_series(g, c, ell, points, degree):
        for i, x in enumerate(coeffs):
            rhs[2 * d + i] += x
    residual = CoeffVector(tuple(a - b for a, b in zip(lhs.coeffs, rhs)))
    return RecursionReport(group=g, topclass=c, ell=ell, residual=residual, strata=tuple(points))
