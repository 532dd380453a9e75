"""Standard parabolic subgroups of the classical groups as combinatorial data.

A standard parabolic subgroup is named by the set I of simple roots it cuts,
a frozenset of 1-based simple-root indices: the group itself is the empty
set and the Borel is all of them.  Its Levi factor is read off a
composition (n_1, ..., n_r) of n derived from I, whose cut positions are the
chain nodes of the Dynkin diagram in I:

  u                 every node is a chain node; the Levi is a product of
                    unitary blocks
  so-odd / sp       chain nodes 1..n-1; when the end node n is not in I, the
                    last block is an orthogonal/symplectic tail
  so-even           chain nodes 1..n-2, and n-1 is a cut position when both
                    fork nodes n-1 and n are in I (a last block of size 1);
                    when neither is, the last block is an orthogonal tail

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
    """A cut set names a simple root the group does not have."""


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


def enumerate_parabolics(g: GroupSpec) -> list:
    """The cut sets I of all standard parabolics of g.

    They come ordered by the composition each induces (length, then parts)
    and, within one composition, by end nodes: () then (n,) for so-odd and
    sp; for so-even (n,) alone when the last block has size 1 (both fork
    nodes cut), otherwise (), (n,), (n-1,).
    The count is always 2**|Delta|: one subset of the simple roots each.
    """
    n, fam = g.n, g.family
    if fam not in (UNITARY, SO_ODD, SO_EVEN, SYMPLECTIC):
        raise UnsupportedFamily(f"standard parabolics are not defined for family {fam!r}")
    out = []
    for comp in _compositions(n):
        if fam == UNITARY:
            ends = [()]
        elif fam != SO_EVEN:
            ends = [(), (n,)]
        elif comp[-1] == 1:
            ends = [(n,)]
        else:
            ends = [(), (n,), (n - 1,)]
        cuts = _cut_positions(comp)
        out.extend(frozenset(cuts + list(end)) for end in ends)
    return out


def _pair_sum(comp) -> int:
    """sum over i < j of n_i n_j."""
    total = sum(comp)
    return (total * total - sum(p * p for p in comp)) // 2


def _cut_positions(comp):
    return list(accumulate(comp[:-1]))


def _adjacent_pairings(comp, upto):
    return [F(comp[i] + comp[i + 1], 2) for i in range(upto)]


@lru_cache(maxsize=None)
def levi_profile(g: GroupSpec, cut: frozenset) -> LeviProfile:
    """Case table for the standard parabolic of g that cuts the simple roots in cut.

    The composition's cut positions are the chain nodes in cut, plus n - 1
    on so-even when both fork nodes are in cut.  Both arguments and the
    result are frozen, so each profile is built once; a cut set that is not
    inside 1..rank raises on every call.
    """
    n, fam = g.n, g.family
    if fam not in (UNITARY, SO_ODD, SO_EVEN, SYMPLECTIC):
        raise UnsupportedFamily(f"Levi profiles are not defined for family {fam!r}")
    rank = n - 1 if fam == UNITARY else n
    if cut and not 1 <= min(cut) <= max(cut) <= rank:
        raise InadmissibleCase(f"cut set {sorted(cut)} is not inside 1..{rank}")
    indices = sorted(cut)
    chain_end = n - 1 if fam == SO_EVEN else n
    cuts = [i for i in indices if i < chain_end]
    both_forks = fam == SO_EVEN and n - 1 in cut and n in cut
    if both_forks:
        cuts.append(n - 1)
    comp = tuple(b - a for a, b in zip([0] + cuts, cuts + [n]))
    r = len(comp)
    if fam == UNITARY:
        blocks, tail = comp, None
        pairings = _adjacent_pairings(comp, r - 1)
        dim_u = _pair_sum(comp)
        excess = r - 1
    elif fam in (SO_ODD, SYMPLECTIC):
        if n in cut:
            blocks, tail = comp, None
            boundary = F(comp[-1]) if fam == SO_ODD else F(comp[-1] + 1, 2)
            pairings = _adjacent_pairings(comp, r - 1) + [boundary]
            dim_u = _pair_sum(comp) + n * (n + 1) // 2
            excess = r
        else:
            m = comp[-1]
            blocks, tail = comp[:-1], (fam, m)
            pairings = _adjacent_pairings(comp, r - 2)
            if r > 1:
                if fam == SO_ODD:
                    pairings.append(F(comp[-2], 2) + m)
                else:
                    pairings.append(F(comp[-2] + 1, 2) + m)
            dim_u = _pair_sum(comp) + (n * (n + 1) - m * (m + 1)) // 2
            excess = r - 1
    else:  # so-even
        if both_forks:
            blocks, tail = comp, None
            boundary = F(comp[-2] + 1, 2)
            pairings = _adjacent_pairings(comp, r - 2) + [boundary, boundary]
            dim_u = _pair_sum(comp) + n * (n - 1) // 2
            excess = r
        elif n - 1 in cut or n in cut:
            blocks, tail = comp, None
            pairings = _adjacent_pairings(comp, r - 1) + [F(comp[-1] - 1)]
            dim_u = _pair_sum(comp) + n * (n - 1) // 2
            excess = r
        else:
            m = comp[-1]
            blocks, tail = comp[:-1], (SO_EVEN, m)
            pairings = _adjacent_pairings(comp, r - 2)
            if r > 1:
                pairings.append(F(comp[-2] + 2 * m - 1, 2))
            dim_u = _pair_sum(comp) + (n * (n - 1) - m * (m - 1)) // 2
            excess = r - 1
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
# with what the root system says.  This reference reads nothing from the
# tables: it takes the cut set I and reads root supports off
# RootSystem.positive_coefficients, which is computed from the simple roots.
# The same root-support rule gives inversion.forward_residual the rho_P of
# its lattice walk; the closed inversion reads its pair weights from the
# tables.


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


def dim_u_from_roots(g: GroupSpec, cut: frozenset) -> int:
    """|R+ of g| minus |R+ of the Levi of the cut set, from the root system alone."""
    return len(_roots_between(build_root_system(g), cut, frozenset()))


def rho_pairings_from_roots(g: GroupSpec, cut: frozenset) -> dict:
    """{a: pairing of half the sum of unipotent-radical roots with coroot a},
    over a in the cut set I, from the root system alone.

    The radical is the set of positive roots outside the Levi, i.e. with
    support meeting I.  (A positive pairing with some coroot of I does not
    characterize it: a radical root can pair nonpositively with all of them,
    e.g. 2*theta_2 for Sp(3) with I = {alpha_1, alpha_3}.)
    """
    rs = build_root_system(g)
    rho = relative_rho(rs, cut, frozenset())
    return {i: pairing(rho, rs.simple_coroots[i - 1]) for i in sorted(cut)}


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
