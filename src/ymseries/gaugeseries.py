"""Rational Poincare series of classifying spaces of gauge groups.

The rational cohomology of BG for a compact connected group G is a free
algebra on generators in degrees 2*d_1 <= ... <= 2*d_n, with d_1 = ... = d_r
= 1 accounting for the central torus.  A DegreeProfile stores the halved
degrees alone, and its torus count r is read off them.  Mapping-space
arguments turn this degree list into a closed product formula for P_t of
the classifying space of the gauge group of any principal bundle over a
closed surface, orientable (genus ell) or nonorientable (m crosscaps).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import InputError
from .exactalg import RatFun, cyclotomic_quotient
from .rootsys import (
    SO_EVEN,
    SO_ODD,
    SPECIAL_UNITARY,
    SPIN_EVEN,
    SPIN_ODD,
    SYMPLECTIC,
    UNITARY,
    GroupSpec,
    UnsupportedFamily,
)


@dataclass(frozen=True)
class DegreeProfile:
    """Halved generator degrees of H^*(BG; Q), ascending."""

    degrees: tuple

    @property
    def center_count(self) -> int:
        """The torus generators: exactly those of halved degree 1."""
        return self.degrees.count(1)


@lru_cache(maxsize=None)
def unitary_block_profile(m: int) -> DegreeProfile:
    """Degrees of U(m): 1, 2, ..., m with a single torus generator, built once per m."""
    return DegreeProfile(tuple(range(1, m + 1)))


@lru_cache(maxsize=None)
def tail_profile(family: str, m: int) -> DegreeProfile:
    """Degrees of a rank-m orthogonal or symplectic factor, built once per pair."""
    if family in (SO_ODD, SYMPLECTIC):
        return DegreeProfile(tuple(2 * k for k in range(1, m + 1)))
    if family == SO_EVEN:
        if m == 1:
            # SO(2) is a torus
            return DegreeProfile((1,))
        return DegreeProfile(tuple(sorted([2 * k for k in range(1, m)] + [m])))
    raise UnsupportedFamily(f"tail degree profiles are not defined for family {family!r}")


def betti_degrees(g: GroupSpec) -> DegreeProfile:
    """Degree profile of the group itself."""
    fam, n = g.family, g.n
    if fam == UNITARY:
        return unitary_block_profile(n)
    if fam == SPECIAL_UNITARY:
        return DegreeProfile(tuple(range(2, n + 1)))
    if fam in (SO_ODD, SPIN_ODD, SYMPLECTIC):
        return tail_profile(SO_ODD, n)
    if fam in (SO_EVEN, SPIN_EVEN):
        return tail_profile(SO_EVEN, n)
    raise UnsupportedFamily(f"Betti degrees are not defined for family {fam!r}")


def concat_profiles(profiles) -> DegreeProfile:
    """Degree profile of a product group."""
    return DegreeProfile(tuple(sorted(d for p in profiles for d in p.degrees)))


@lru_cache(maxsize=None)
def bg_orientable(profile: DegreeProfile, ell: int) -> RatFun:
    """P_t of B(gauge group) over the genus-ell orientable surface.

    Each torus generator contributes (1+t)^{2 ell} / (1-t^2); a generator of
    halved degree d > 1 contributes
    (1+t^{2d-1})^{2 ell} / ((1-t^{2d-2})(1-t^{2d})).  The product is built
    by cyclotomic_quotient, which cancels its cyclotomic factors by their
    multiplicities with no gcd.  The series depends only on the sorted
    degree list and ell, so it is computed once per pair.
    """
    if ell < 0:
        raise InputError("genus must be nonnegative")
    plus, minus = [], []
    for d in profile.degrees:
        if d == 1:
            plus.append((1, 2 * ell))
            minus.append((2, 1))
        else:
            plus.append((2 * d - 1, 2 * ell))
            minus += [(2 * d - 2, 1), (2 * d, 1)]
    return cyclotomic_quotient(plus, minus)


def bg_nonorientable(profile: DegreeProfile, m: int) -> RatFun:
    """P_t of B(gauge group) over the connected sum of m projective planes.

    Every generator, torus part included, contributes
    (1+t^{2d-1})^{m-1} / (1-t^{2d}).
    """
    if m < 1:
        raise InputError("need at least one crosscap")
    return cyclotomic_quotient(
        [(2 * d - 1, m - 1) for d in profile.degrees], [(2 * d, 1) for d in profile.degrees]
    )
