"""The former Fraction twist arithmetic, kept as a test oracle.

The bracket <x> used to be a Fraction in (0, 1], and every twist exponent
was summed as a Fraction: the parabolic sum's sum_a p_a <x_a>, Zagier's
sum_i k_i <prefix_i (-k/n)> and each cone factor's p <x>.  They are now
integer numerators over one denominator; the tests compare the two.
"""

from fractions import Fraction

from ymseries.errors import ExactnessError, InputError
from ymseries.levidata import _compositions, _cut_positions, _pair_sum

F = Fraction


def former_frac_part(x) -> Fraction:
    """The bracket <x>: the representative of x mod Z in (0, 1], so <0> = 1."""
    return Fraction(x) % 1 or Fraction(1)


def former_parabolic_terms(poset, a0, q_cut, classes):
    """The signed terms of the closed inversion b0(Q), summed on Fractions."""
    q_dim_u = poset.profiles[q_cut].dim_u
    for p_cut, prof in poset.profiles.items():
        if not q_cut <= p_cut:
            continue
        ks, twist = [], F(0)
        for a, rho_pair in zip(prof.simple_indices, prof.rho_pairings):
            if a in q_cut:
                continue
            k = 4 * rho_pair
            if k.denominator != 1 or k <= 0:
                raise ExactnessError(f"pair weight {k} not a positive integer")
            ks.append(int(k))
            twist += k * former_frac_part(classes[a])
        if twist.denominator != 1:
            raise ExactnessError(f"total twist {twist} not integral")
        shift = 2 * (prof.dim_u - q_dim_u) * (poset.ell - 1)
        yield (-1) ** len(ks), a0[p_cut], shift + int(twist), ks


def former_zagier_terms(n, kmod, ell):
    """(sign, exponent, denominator exponents) of each term of Zagier's U(n) sum."""
    for comp in _compositions(n):
        adj = [2 * (a + b) for a, b in zip(comp, comp[1:])]
        prefixes = _cut_positions(comp)
        twist = sum(k * former_frac_part(F(-kmod * prefix, n)) for k, prefix in zip(adj, prefixes))
        if twist.denominator != 1 or twist < 0:
            raise ExactnessError(f"exponent {twist} is not a natural number")
        yield (-1) ** (len(comp) - 1), 2 * (ell - 1) * _pair_sum(comp) + int(twist), adj


def former_first_exponents(weights, classes) -> tuple:
    """Each cone factor's p <x>, which must be an integer."""
    firsts = []
    for p, x in zip(weights, classes):
        first = p * former_frac_part(x)
        if first.denominator != 1:
            raise InputError(f"p*<x> = {first} not integral")
        firsts.append(int(first))
    return tuple(firsts)
