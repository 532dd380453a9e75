"""Polynomial helpers that the tests and their oracles build values with."""

from ymseries.exactalg import Poly


def one_minus_t(e):
    """1 - t**e."""
    return Poly.one() - Poly.t_power(e)


def one_plus_t(e):
    """1 + t**e."""
    return Poly.one() + Poly.t_power(e)


def scaled(p, c):
    """c * p, coefficient by coefficient."""
    return Poly(tuple(c * x for x in p.coeffs))
