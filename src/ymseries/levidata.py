"""Standard parabolic subgroups of the classical groups as combinatorial data.

A subset I of the simple roots determines a parabolic subgroup and its Levi
factor.  For the classical families a subset is the same thing as a
composition (n_1, ..., n_r) of n together with family-specific membership
flags for the last node(s) of the Dynkin diagram:

  u                 composition only; Levi is a product of unitary blocks
  so-odd / sp       one flag (is the short/long end node in I?); when it is
                    not, the last block is an orthogonal/symplectic tail
  so-even           two flags for the fork nodes; both in I forces a last
                    block of size 1, any other combination forces size >= 2

For each parabolic this module produces the data the series formulas
consume: the complex dimension of the unipotent radical, the excess of the
Levi's central dimension over the group's, the pairings of the half-sum of
unipotent-radical roots against the coroots indexed by I, and the Betti
degree profile of the Levi for its gauge series.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, combinations

from .errors import InputError
from .gaugeseries import DegreeProfile, concat_profiles, tail_profile, unitary_block_profile
from .rootsys import (
    SO_EVEN,
    SO_ODD,
    SYMPLECTIC,
    UNITARY,
    GroupSpec,
    UnsupportedFamily,
    build_root_system,
    pairing,
)

F = Fraction


class InadmissibleCase(InputError):
    """Composition and tail flags violate the family's case constraints."""


@dataclass(frozen=True)
class ParabolicIndex:
    """Composition of n with the family's end-node membership flags."""

    composition: tuple
    flags: tuple = ()

    def __post_init__(self):
        if not self.composition or any(p < 1 for p in self.composition):
            raise InadmissibleCase("composition parts must be positive")


@dataclass(frozen=True)
class LeviProfile:
    """Everything the series formulas need to know about one parabolic."""

    unitary_blocks: tuple
    tail: tuple | None  # (family, m) or None
    dim_u: int
    center_excess: int
    simple_indices: tuple  # 1-based indices of the simple roots in I
    rho_pairings: tuple  # Fractions, aligned with simple_indices
    betti: DegreeProfile


def _compositions(n: int):
    """All compositions of n, ordered by (length, parts).

    Combinations of cut positions come in lexicographic order for each
    length, and so do the parts, since they are differences of the cuts.
    """
    return [
        tuple(b - a for a, b in zip((0,) + cuts, cuts + (n,)))
        for r in range(n)
        for cuts in combinations(range(1, n), r)
    ]


def enumerate_parabolics(g: GroupSpec):
    """All admissible ParabolicIndex values for g.

    They come ordered by (composition length, composition, flags), since
    the compositions and each one's flags are generated in that order.
    The count is always 2**|Delta|: one subset of the simple roots each.
    """
    n, fam = g.n, g.family
    comps = _compositions(n)
    out = []
    if fam == UNITARY:
        for c in comps:
            out.append(ParabolicIndex(c, ()))
    elif fam in (SO_ODD, SYMPLECTIC):
        for c in comps:
            for flag in (False, True):
                out.append(ParabolicIndex(c, (flag,)))
    elif fam == SO_EVEN:
        for c in comps:
            if c[-1] == 1:
                out.append(ParabolicIndex(c, (True, True)))
            else:
                for flags in ((False, False), (False, True), (True, False)):
                    out.append(ParabolicIndex(c, flags))
    else:
        raise UnsupportedFamily(f"standard parabolics are not defined for family {fam!r}")
    return out


def _check_admissible(g: GroupSpec, idx: ParabolicIndex):
    n, fam = g.n, g.family
    comp, flags = idx.composition, idx.flags
    if sum(comp) != n:
        raise InadmissibleCase(f"composition {comp} does not sum to {n}")
    if fam == UNITARY:
        if flags != ():
            raise InadmissibleCase("unitary parabolics carry no flags")
    elif fam in (SO_ODD, SYMPLECTIC):
        if len(flags) != 1:
            raise InadmissibleCase("so-odd/sp parabolics carry one flag")
    elif fam == SO_EVEN:
        if len(flags) != 2:
            raise InadmissibleCase("so-even parabolics carry two flags")
        if flags == (True, True) and comp[-1] != 1:
            raise InadmissibleCase("both fork nodes in I forces a last block of size 1")
        if flags != (True, True) and comp[-1] < 2:
            raise InadmissibleCase("a missing fork node forces a last block of size >= 2")
    else:
        raise UnsupportedFamily(f"parabolic admissibility is not defined for family {fam!r}")


def _pair_sum(comp) -> int:
    """sum over i < j of n_i n_j."""
    total = sum(comp)
    return (total * total - sum(p * p for p in comp)) // 2


def _cut_positions(comp):
    return list(accumulate(comp[:-1]))


def _adjacent_pairings(comp, upto):
    return [F(comp[i] + comp[i + 1], 2) for i in range(upto)]


@lru_cache(maxsize=None)
def levi_profile(g: GroupSpec, idx: ParabolicIndex) -> LeviProfile:
    """Case table for the parabolic determined by idx inside g.

    Both arguments and the result are frozen, so each profile is built once;
    an inadmissible idx raises on every call.
    """
    _check_admissible(g, idx)
    n, fam = g.n, g.family
    comp = idx.composition
    r = len(comp)
    cuts = _cut_positions(comp)
    if fam == UNITARY:
        blocks, tail = comp, None
        indices = cuts
        pairings = _adjacent_pairings(comp, r - 1)
        dim_u = _pair_sum(comp)
        excess = r - 1
    elif fam in (SO_ODD, SYMPLECTIC):
        last_in = idx.flags[0]
        if last_in:
            blocks, tail = comp, None
            indices = cuts + [n]
            boundary = F(comp[-1]) if fam == SO_ODD else F(comp[-1] + 1, 2)
            pairings = _adjacent_pairings(comp, r - 1) + [boundary]
            dim_u = _pair_sum(comp) + n * (n + 1) // 2
            excess = r
        else:
            m = comp[-1]
            blocks, tail = comp[:-1], (fam, m)
            indices = cuts
            pairings = _adjacent_pairings(comp, r - 2)
            if r > 1:
                if fam == SO_ODD:
                    pairings.append(F(comp[-2], 2) + m)
                else:
                    pairings.append(F(comp[-2] + 1, 2) + m)
            dim_u = _pair_sum(comp) + (n * (n + 1) - m * (m + 1)) // 2
            excess = r - 1
    elif fam == SO_EVEN:
        in_nm1, in_n = idx.flags
        if in_nm1 and in_n:
            blocks, tail = comp, None
            indices = cuts[: r - 2] + [n - 1, n] if r >= 2 else [n - 1, n]
            boundary = F(comp[-2] + 1, 2)
            pairings = _adjacent_pairings(comp, r - 2) + [boundary, boundary]
            dim_u = _pair_sum(comp) + n * (n - 1) // 2
            excess = r
        elif in_nm1 != in_n:
            blocks, tail = comp, None
            indices = cuts + [n - 1 if in_nm1 else n]
            pairings = _adjacent_pairings(comp, r - 1) + [F(comp[-1] - 1)]
            dim_u = _pair_sum(comp) + n * (n - 1) // 2
            excess = r
        else:
            m = comp[-1]
            blocks, tail = comp[:-1], (SO_EVEN, m)
            indices = cuts
            pairings = _adjacent_pairings(comp, r - 2)
            if r > 1:
                pairings.append(F(comp[-2] + 2 * m - 1, 2))
            dim_u = _pair_sum(comp) + (n * (n - 1) - m * (m - 1)) // 2
            excess = r - 1
    else:
        raise UnsupportedFamily(f"Levi profiles are not defined for family {fam!r}")
    profiles = [unitary_block_profile(b) for b in blocks]
    if tail is not None:
        profiles.append(tail_profile(*tail))
    return LeviProfile(
        unitary_blocks=tuple(blocks),
        tail=tail,
        dim_u=dim_u,
        center_excess=excess,
        simple_indices=tuple(indices),
        rho_pairings=tuple(pairings),
        betti=concat_profiles(profiles),
    )


# -- recomputation from root data ---------------------------------------
#
# Used by the consistency tests: the table values above must agree exactly
# with what the root system says.  The same root-support rule gives
# inversion.forward_residual the rho_P of its lattice walk; the closed
# inversion reads its pair weights from the tables.  Root supports are read
# off RootSystem.positive_coefficients, which is computed from the simple
# roots and stays independent of the case tables.


def _roots_between(rs, small_cut: frozenset, large_cut: frozenset) -> list:
    """Positive roots in the Levi cut by large_cut, outside the one cut by small_cut.

    A positive root lies in the Levi of a standard parabolic exactly when
    its support avoids the parabolic's cut set of simple-root indices.
    """
    out = []
    for beta, coeffs in zip(rs.positive_roots, rs.positive_coefficients):
        support = {i + 1 for i, c in enumerate(coeffs) if c != 0}
        if support & small_cut and not support & large_cut:
            out.append(beta)
    return out


def relative_rho(rs, small_cut: frozenset, large_cut: frozenset) -> tuple:
    """Half the sum of the positive roots in the large Levi outside the small one."""
    roots = _roots_between(rs, small_cut, large_cut)
    return tuple(F(sum(beta[j] for beta in roots), 2) for j in range(rs.n))


def dim_u_from_roots(g: GroupSpec, idx: ParabolicIndex) -> int:
    """|R+ of g| minus |R+ of the Levi|, straight from the root system."""
    cut = frozenset(levi_profile(g, idx).simple_indices)
    return len(_roots_between(build_root_system(g), cut, frozenset()))


def rho_pairings_from_roots(g: GroupSpec, idx: ParabolicIndex) -> dict:
    """Pairings of half the sum of unipotent-radical roots with I's coroots.

    The radical is the set of positive roots outside the Levi, i.e. with
    support meeting I.  (A positive pairing with some coroot of I does not
    characterize it: a radical root can pair nonpositively with all of them,
    e.g. 2*theta_2 for Sp(3) with I = {alpha_1, alpha_3}.)
    """
    rs = build_root_system(g)
    cut = levi_profile(g, idx).simple_indices
    rho = relative_rho(rs, frozenset(cut), frozenset())
    return {i: pairing(rho, rs.simple_coroots[i - 1]) for i in cut}


def levi_profile_to_json(prof: LeviProfile) -> dict:
    return {
        "unitary_blocks": list(prof.unitary_blocks),
        "tail": list(prof.tail) if prof.tail else None,
        "dim_u": prof.dim_u,
        "center_excess": prof.center_excess,
        "simple_indices": list(prof.simple_indices),
        "rho_pairings": [str(x) for x in prof.rho_pairings],
        "betti_degrees": list(prof.betti.degrees),
        "center_count": prof.betti.center_count,
    }
