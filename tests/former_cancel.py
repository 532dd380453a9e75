"""The former per-Phi_d cancellation, kept as a test oracle.

exactalg._cancel used to divide each Phi_d of the denominator map out of
the numerator one at a time, trying a division for every d while its
multiplicity stayed positive.  It now divides whole strides 1 - t**e
first and screens every division by the values at t = 2; the tests
compare the two on random numerators and maps.
"""

from ymseries.exactalg import Poly, _pairs, _phi_quotient


def former_cancel(cs, mult):
    """(num, factors) of cs / prod Phi_d**mult[d], one Phi_d at a time."""
    mult = dict(mult)
    for d, m in mult.items():
        while m and (quotient := _phi_quotient(cs, d)) is not None:
            cs, m = quotient, m - 1
        mult[d] = m
    return Poly(cs), _pairs(mult)
