"""Hand-built reference expressions for the worked low-rank series.

Each builder assembles one published closed expression term by term from
raw polynomial primitives, independently of the package's own formula
assembly, so the comparisons in the tests are genuine transcriptions
against transcriptions.  The genus enters as the integer ell.

The second SO(4) bundle is transcribed from the factored form of its
source (the term-by-term display there is internally inconsistent; the
factored form is the one consistent with the closed formulas and with
series positivity, once its stray (1+t)^{2 ell} prefactor is dropped).
"""

from polys import one_minus_t, one_plus_t, scaled
from ymseries.exactalg import Poly, RatFun


def _term(ell, sign, pluses, texp, minuses, coeff=1):
    """sign * coeff * prod (1+t^a)^(m*ell or m) * t^texp / prod (1-t^b)."""
    num = scaled(Poly.t_power(texp), sign * coeff)
    for base, power in pluses:
        num = num * one_plus_t(base) ** power
    den = Poly.one()
    for base in minuses:
        den = den * one_minus_t(base)
    return RatFun(num, den)


def u2_even(ell):
    L = 2 * ell
    return _term(ell, 1, [(1, L), (3, L)], 0, [2, 2, 4]) + _term(
        ell, -1, [(1, 2 * L)], 2 * ell + 2, [2, 2, 4]
    )


def u2_odd(ell):
    L = 2 * ell
    return _term(ell, 1, [(1, L), (3, L)], 0, [2, 2, 4]) + _term(
        ell, -1, [(1, 2 * L)], 2 * ell, [2, 2, 4]
    )


def su2(ell):
    L = 2 * ell
    return _term(ell, 1, [(3, L)], 0, [2, 4]) + _term(ell, -1, [(1, L)], 2 * ell + 2, [2, 4])


def su3(ell):
    L = 2 * ell
    return (
        _term(ell, 1, [(3, L), (5, L)], 0, [2, 4, 4, 6])
        + _term(ell, -1, [(1, L), (3, L)], 4 * ell + 2, [2, 2, 4, 6], coeff=2)
        + _term(ell, 1, [(1, 2 * L)], 6 * ell + 2, [2, 2, 4, 4])
    )


def su4(ell):
    L = 2 * ell
    return (
        _term(ell, 1, [(3, L), (5, L), (7, L)], 0, [2, 4, 4, 6, 6, 8])
        + _term(ell, -1, [(1, L), (3, L), (5, L)], 6 * ell + 2, [2, 2, 4, 4, 6, 8], coeff=2)
        + _term(ell, -1, [(1, L), (3, 2 * L)], 8 * ell, [2, 2, 2, 4, 4, 8])
        + _term(ell, 1, [(1, 2 * L), (3, L)], 10 * ell, [2, 2, 2, 4, 4, 6], coeff=2)
        + _term(ell, 1, [(1, 2 * L), (3, L)], 10 * ell + 2, [2, 2, 2, 4, 6, 6])
        + _term(ell, -1, [(1, 3 * L)], 12 * ell, [2, 2, 2, 4, 4, 4])
    )


def so3_plus(ell):
    L = 2 * ell
    return _term(ell, -1, [(1, L)], 2 * ell + 2, [2, 4]) + _term(ell, 1, [(3, L)], 0, [2, 4])


def so3_minus(ell):
    L = 2 * ell
    return _term(ell, -1, [(1, L)], 2 * ell, [2, 4]) + _term(ell, 1, [(3, L)], 0, [2, 4])


def so5_plus(ell):
    L = 2 * ell
    return (
        _term(ell, -1, [(1, L), (3, L)], 6 * ell + 2, [2, 2, 4, 8])
        + _term(ell, 1, [(3, L), (7, L)], 0, [2, 4, 6, 8])
        + _term(ell, 1, [(1, 2 * L)], 8 * ell, [2, 2, 4, 4])
        + _term(ell, -1, [(1, L), (3, L)], 6 * ell, [2, 2, 4, 6])
    )


def so5_minus(ell):
    L = 2 * ell
    return (
        _term(ell, -1, [(1, L), (3, L)], 6 * ell - 2, [2, 2, 4, 8])
        + _term(ell, 1, [(3, L), (7, L)], 0, [2, 4, 6, 8])
        + _term(ell, 1, [(1, 2 * L)], 8 * ell - 2, [2, 2, 4, 4])
        + _term(ell, -1, [(1, L), (3, L)], 6 * ell, [2, 2, 4, 6])
    )


def sp1(ell):
    return so3_plus(ell)


def sp2(ell):
    L = 2 * ell
    return (
        _term(ell, -1, [(1, L), (3, L)], 6 * ell, [2, 2, 4, 6])
        + _term(ell, 1, [(1, 2 * L)], 8 * ell, [2, 2, 4, 4])
        + _term(ell, 1, [(3, L), (7, L)], 0, [2, 4, 6, 8])
        + _term(ell, -1, [(1, L), (3, L)], 6 * ell + 2, [2, 2, 4, 8])
    )


def sp3(ell):
    L = 2 * ell
    return (
        _term(ell, -1, [(1, L), (3, L), (5, L)], 12 * ell - 4, [2, 2, 4, 4, 6, 8])
        + _term(ell, 1, [(1, 2 * L), (3, L)], 16 * ell - 4, [2, 2, 2, 4, 6, 6])
        + _term(ell, 1, [(1, 2 * L), (3, L)], 16 * ell - 6, [2, 2, 2, 4, 4, 6])
        + _term(ell, -1, [(1, 3 * L)], 18 * ell - 6, [2, 2, 2, 4, 4, 4])
        + _term(ell, 1, [(3, L), (7, L), (11, L)], 0, [2, 4, 6, 8, 10, 12])
        + _term(ell, -1, [(1, L), (3, L), (7, L)], 10 * ell + 2, [2, 2, 4, 6, 8, 12])
        + _term(ell, -1, [(1, L), (3, 2 * L)], 14 * ell - 4, [2, 2, 2, 4, 4, 10])
        + _term(ell, 1, [(1, 2 * L), (3, L)], 16 * ell - 4, [2, 2, 2, 4, 4, 8])
    )


def so4_plus(ell):
    L = 2 * ell
    return (
        _term(ell, 1, [(3, 2 * L)], 0, [2, 2, 4, 4])
        + _term(ell, -1, [(1, L), (3, L)], 2 * ell + 2, [2, 2, 4, 4], coeff=2)
        + _term(ell, 1, [(1, 2 * L)], 4 * ell + 4, [2, 2, 4, 4])
    )


def so4_minus(ell):
    L = 2 * ell
    return (
        _term(ell, 1, [(3, 2 * L)], 0, [2, 2, 4, 4])
        + _term(ell, -1, [(1, L), (3, L)], 2 * ell, [2, 2, 4, 4], coeff=2)
        + _term(ell, 1, [(1, 2 * L)], 4 * ell, [2, 2, 4, 4])
    )


def so6_plus(ell):
    L = 2 * ell
    return (
        _term(ell, 1, [(1, 2 * L), (3, L)], 10 * ell + 2, [2, 2, 2, 4, 6, 6])
        + _term(ell, -1, [(1, 3 * L)], 12 * ell, [2, 2, 2, 4, 4, 4])
        + _term(ell, -1, [(1, L), (3, L), (5, L)], 6 * ell + 2, [2, 2, 4, 4, 6, 8], coeff=2)
        + _term(ell, 1, [(1, 2 * L), (3, L)], 10 * ell, [2, 2, 2, 4, 4, 6], coeff=2)
        + _term(ell, 1, [(3, L), (5, L), (7, L)], 0, [2, 4, 4, 6, 6, 8])
        + _term(ell, -1, [(1, L), (3, 2 * L)], 8 * ell, [2, 2, 2, 4, 4, 8])
    )


def so6_minus(ell):
    L = 2 * ell
    return (
        _term(ell, 1, [(1, 2 * L), (3, L)], 10 * ell - 4, [2, 2, 2, 4, 6, 6])
        + _term(ell, -1, [(1, 3 * L)], 12 * ell - 4, [2, 2, 2, 4, 4, 4])
        + _term(ell, -1, [(1, L), (3, L), (5, L)], 6 * ell - 2, [2, 2, 4, 4, 6, 8], coeff=2)
        + _term(ell, 1, [(1, 2 * L), (3, L)], 10 * ell - 2, [2, 2, 2, 4, 4, 6], coeff=2)
        + _term(ell, 1, [(3, L), (5, L), (7, L)], 0, [2, 4, 4, 6, 6, 8])
        + _term(ell, -1, [(1, L), (3, 2 * L)], 8 * ell, [2, 2, 2, 4, 4, 8])
    )


# name -> (builder, description of the computed counterpart)
REFERENCE_CASES = {
    "u2_even": u2_even,
    "u2_odd": u2_odd,
    "su2": su2,
    "su3": su3,
    "su4": su4,
    "so3_plus": so3_plus,
    "so3_minus": so3_minus,
    "so5_plus": so5_plus,
    "so5_minus": so5_minus,
    "sp1": sp1,
    "sp2": sp2,
    "sp3": sp3,
    "so4_plus": so4_plus,
    "so4_minus": so4_minus,
    "so6_plus": so6_plus,
    "so6_minus": so6_minus,
}
