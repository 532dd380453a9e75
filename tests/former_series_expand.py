"""The former dense series_expand recurrence, kept as a test oracle.

exactalg.series_expand used to subtract every denominator term c t^j for
j = 1 .. deg den, zero or not, and to divide every coefficient by den(0),
even when den(0) = 1.  It now never expands the denominator: it nets the
Phi_d multiplicities into strides 1 - t**e and runs one truncated pass
per stride.  The tests compare the two on random rational functions.
"""

from fractions import Fraction

from ymseries.errors import ExactnessError


def dense_series_expand(num, den, order):
    """The coefficients of num / den through t**order, as the former
    recurrence computed them, or ExactnessError at the first fractional one."""
    d0 = den[0]
    num, dc = num.coeffs, den.coeffs
    out = []
    for k in range(order + 1):
        acc = num[k] if k < len(num) else 0
        for j in range(1, min(k, len(dc) - 1) + 1):
            acc -= dc[j] * out[k - j]
        bk, rem = divmod(acc, d0)
        if rem:
            raise ExactnessError(f"coefficient of t^{k} is {Fraction(acc, d0)}")
        out.append(bk)
    return tuple(out)
