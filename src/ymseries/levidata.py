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
consume.  The Levi's blocks and tail come from the composition, and its
Betti degree profile (for its gauge series) from those on first read.
The complex dimension of the unipotent radical and the pairings of the
half-sum of its roots against the coroots indexed by I come from the root
system alone: the radical is the set of positive roots whose support
meets I.  That one rule is the only source of
Levi data, and all of it is integers: 2 rho_P is the sum of the radical's
roots, and each pair weight 4 <rho_P, a^v> = 2 <2 rho_P, a^v> is an int.
The parabolic sum and the forward lattice walk of the inversion read
both off the profile.  The rho_P pairings themselves are Fractions derived
from the pair weights, for display.

Every enumeration of parabolics or compositions, in this module and in the
closed forms, goes through _compositions, which refuses a rank whose
2^(n-1) compositions exceed MAX_COMPOSITIONS before building any.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
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
    simple_indices: tuple  # 1-based indices of the simple roots in I
    pair_weights: tuple  # ints 4 <rho_P, a^v>, aligned with simple_indices
    two_rho: tuple  # 2 rho_P, the integer sum of the radical's roots

    @cached_property
    def betti(self) -> DegreeProfile:
        """The Levi's degree profile: its unitary blocks' and its tail's."""
        profiles = [unitary_block_profile(b) for b in self.unitary_blocks]
        if self.tail is not None:
            profiles.append(tail_profile(*self.tail))
        return concat_profiles(profiles)

    @cached_property
    def rho_pairings(self) -> tuple:
        """<rho_P, a^v> for a in simple_indices, as Fractions."""
        return tuple(F(p, 4) for p in self.pair_weights)


# the most compositions a closed form or enumerate_parabolics may build: at
# 2^13 (n = 14) `poincare --group sp --rank 14 --engine both` takes 5.4 s on
# an AMD EPYC host under Python 3.11.7, and each step in n doubles the
# compositions, so a larger rank is refused before any is built
MAX_COMPOSITIONS = 2**13


def _compositions(n: int):
    """All compositions of n, ordered by (length, parts).

    Combinations of cut positions come in lexicographic order for each
    length, and so do the parts, since they are differences of the cuts.
    n has 2^(n-1) of them; more than MAX_COMPOSITIONS raises InputError.
    """
    if 2 ** (n - 1) > MAX_COMPOSITIONS:
        raise InputError(
            f"rank {n} has {2 ** (n - 1)} compositions, more than the "
            f"{MAX_COMPOSITIONS} this package enumerates"
        )
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


@lru_cache(maxsize=None)
def levi_profile(g: GroupSpec, cut: frozenset) -> LeviProfile:
    """Levi data of the standard parabolic of g that cuts the simple roots in cut.

    The composition's cut positions are the chain nodes in cut, plus n - 1
    on so-even when both fork nodes are in cut; outside u, its last block
    is an orthogonal or symplectic tail unless an end node is in cut.
    dim_u and 2 rho_P are _radical of the cut set, and the pair weights
    are 4 <rho_P, a^v> over a in the cut set.  Both arguments and the result
    are frozen, so each profile is built once per process: a poset built
    again for the same group, at another genus or class, reads its profiles
    from the cache.  A cut set that is not inside 1..rank raises on every
    call.
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
    if fam == SO_EVEN and n - 1 in cut and n in cut:
        cuts.append(n - 1)
    comp = tuple(b - a for a, b in zip([0] + cuts, cuts + [n]))
    if fam == UNITARY or n in cut or (fam == SO_EVEN and n - 1 in cut):
        blocks, tail = comp, None
    else:
        blocks, tail = comp[:-1], (fam, comp[-1])
    rs = build_root_system(g)
    dim_u, two_rho = _radical(rs, cut)
    return LeviProfile(
        unitary_blocks=tuple(blocks),
        tail=tail,
        dim_u=dim_u,
        simple_indices=tuple(indices),
        pair_weights=tuple(2 * pairing(two_rho, rs.simple_coroots[a - 1]) for a in indices),
        two_rho=two_rho,
    )


# -- Levi data from root data -------------------------------------------
#
# One rule gives every radical: a positive root lies in the Levi of a
# standard parabolic exactly when its support avoids the parabolic's cut
# set.  levi_profile and the bench's root-data cases (dim_u_from_roots,
# rho_pairings_from_roots) read it, in integers, off the support bitmasks
# that build_root_system computes once per group.


def _radical(rs, cut: frozenset) -> tuple:
    """(count, integer sum) of the positive roots whose support meets the
    cut set: the roots of the unipotent radical of its parabolic P, whose
    sum is 2 rho_P.  For parabolics P <= Q (cut sets I_P >= I_Q), 2 rho_P^Q
    is the coordinatewise difference of the sums at I_P and at I_Q, as
    every root whose support meets I_Q also meets I_P."""
    mask = sum(1 << a for a in cut)
    roots = [
        beta for beta, support in zip(rs.positive_roots, rs.positive_supports) if support & mask
    ]
    return len(roots), tuple(map(sum, zip(*roots))) or (0,) * rs.n


def dim_u_from_roots(g: GroupSpec, cut: frozenset) -> int:
    """|R+ of g| minus |R+ of the Levi of the cut set, from the root system alone."""
    return _radical(build_root_system(g), cut)[0]


def rho_pairings_from_roots(g: GroupSpec, cut: frozenset) -> dict:
    """{a: pairing of half the sum of unipotent-radical roots with coroot a},
    over a in the cut set I, from the root system alone.

    The radical is the set of positive roots outside the Levi, i.e. with
    support meeting I.  (A positive pairing with some coroot of I does not
    characterize it: a radical root can pair nonpositively with all of them,
    e.g. 2*theta_2 for Sp(3) with I = {alpha_1, alpha_3}.)
    """
    rs = build_root_system(g)
    two_rho = _radical(rs, cut)[1]
    return {a: F(pairing(two_rho, rs.simple_coroots[a - 1]), 2) for a in sorted(cut)}


def levi_profile_to_json(prof: LeviProfile) -> dict:
    return {
        "unitary_blocks": list(prof.unitary_blocks),
        "tail": list(prof.tail) if prof.tail else None,
        "dim_u": prof.dim_u,
        "center_excess": len(prof.simple_indices),
        "simple_indices": list(prof.simple_indices),
        "rho_pairings": [str(x) for x in prof.rho_pairings],
        "betti_degrees": list(prof.betti.degrees),
        "center_count": prof.betti.center_count,
    }
