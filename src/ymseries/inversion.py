"""Lattice-cone sums, the Langlands combinatorial identity, and the
abstract inversion of the stratification recursion, at desk scale.

The basic analytic ingredient behind the closed series formulas is the
one-dimensional geometric sum

    sum over integers m with x + m > 0 of t^{p (x + m)}
        =  t^{p <x>} / (1 - t^p),        <x> in (0, 1],

tensored over the simple roots of a parabolic step.  cone_sum_closed is
the product of the closed forms, cone_sum_truncated evaluates the same
product by direct lattice enumeration, counting the lattice points at each
exponent; comparing them is a property test.

The inversion theorem states that a gauge-series assignment a0 on a poset
of standard parabolics is recovered from the signed combination b0 (the
semistable series) by a cone-weighted lattice sum over topological types.
invert_abstract computes b0 from its closed formula and re-sums the
defining relation by explicit lattice enumeration as the forward check;
every quantity that walk reads at a lattice point is an integer affine form
in the point's coordinates.
The poset comes from levidata: its elements are the cut sets that
enumerate_parabolics lists, the one name of a standard parabolic, each
mapped to its levi_profile.
parabolic_terms is the one generator of the closed formula's signed
terms, at any element and for any classes; it reads every exponent from
the Levi profiles, and closedforms.lr_general is its sum at the group
element.  The forward check reads its 2 rho_P and pair weights from the
same profiles, which come from one source, the root-support rule of
levidata; the round trip checks the closed formula and the lattice
geometry against each other, and criterion 7 of the acceptance suite
checks the profiles against the former case tables.  The forward check's
right side is one exactalg.truncated_sum, as in strata.verify_recursion.
Every class, at every poset element and lattice point, is an integer
numerator over the determinant of the Levi's Cartan matrix
(rootsys.levi_classes); at the empty cut set they are the classes under
the group's fundamental weights.
verify_langlands tests the two alternating-sum identities on which the
inversion rests, at off-wall sample points of the type-A poset
of any rank.  In standard coordinates that check needs no linear algebra:
its projections are differences of block averages, its root functionals
are coordinate differences and its relative coweights are partial sums.
Every indicator is the sign of a linear functional, so each sample is
scaled by a positive integer to an integer vector whose block averages
are integers, and the check runs on integers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, product
from math import lcm
from operator import sub

from .errors import ExactnessError, InputError
from .exactalg import (
    CoeffVector,
    RatFun,
    cyclotomic_quotient,
    series_expand,
    signed_sum,
    truncated_sum,
)
from .gaugeseries import bg_orientable
from .levidata import enumerate_parabolics, levi_profile
from .rootsys import (
    GroupSpec,
    build_root_system,
    frac_part,
    levi_classes,
    pairing,
    pi1_representative,
)

F = Fraction


class WallPoint(InputError):
    """A sample point lies on a wall, making an indicator ill-defined."""


# consecutive unusable draws allowed per sample; on working code about one
# draw in twenty lands on a wall
MAX_DRAWS = 100


@dataclass(frozen=True)
class ConeSumSpec:
    """Exponent weights p_a > 0 and twist classes x_a mod Z, one per factor.

    first_exponents holds each factor's p_a <x_a>, the smallest exponent
    p_a (x_a + m) over the integers m with x_a + m > 0; it is derived from
    the other two fields and takes no part in equality or repr.  Each is
    p_a times the bracket's numerator over x_a's denominator, divided
    exactly; a remainder raises InputError.
    """

    weights: tuple
    classes: tuple
    first_exponents: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.weights) != len(self.classes):
            raise InputError("weights and classes must align")
        if any(p < 1 for p in self.weights):
            raise InputError("weights must be positive integers")
        firsts = []
        for p, x in zip(self.weights, self.classes):
            scaled = p * frac_part(x.numerator, x.denominator)
            first, rem = divmod(scaled, x.denominator)
            if rem:
                raise InputError(f"p*<x> = {F(scaled, x.denominator)} not integral")
            firsts.append(first)
        object.__setattr__(self, "first_exponents", tuple(firsts))


def cone_sum_closed(spec: ConeSumSpec) -> RatFun:
    """prod_a t^{p_a <x_a>} / (1 - t^{p_a})."""
    return cyclotomic_quotient(
        [], [(p, 1) for p in spec.weights], shift=sum(spec.first_exponents)
    )


def cone_sum_truncated(spec: ConeSumSpec, order: int) -> CoeffVector:
    """The same product summed by direct lattice enumeration up to t^order.

    counts[e] is the number of lattice points of the factors placed so far
    at exponent e; placing factor (p, x) moves each of them to every
    admissible m, at e + p (x + m) <= order, from the first exponent p <x>
    up in steps of p.
    """
    if order < 0:
        raise InputError("order must be nonnegative")
    counts = [1] + [0] * order
    for p, first in zip(spec.weights, spec.first_exponents):
        placed = [0] * (order + 1)
        for e, c in enumerate(counts):
            if c:
                for f in range(e + first, order + 1, p):
                    placed[f] += c
        counts = placed
    return CoeffVector(tuple(counts))


# -- Langlands combinatorial identity ------------------------------------


def _difference(u, v) -> tuple:
    return tuple(map(sub, u, v))


def _block_average(h, levi: frozenset) -> list:
    """h with each coordinate replaced by the mean of its levi-block.

    The blocks are the runs of coordinates joined by the simple roots
    e_i - e_{i+1}, i in levi; this is the orthogonal projection onto the
    vectors constant on those blocks.  A mean is an int when its block sum
    divides evenly and a Fraction otherwise, so the result is exact either
    way.
    """
    out, start = [], 0
    for i in range(len(h)):
        if i not in levi:
            size = i + 1 - start
            total = sum(h[start : i + 1])
            mean, rem = divmod(total, size)
            out += [mean if rem == 0 else F(total) / size] * size
            start = i + 1
    return out


def _positive(values, what: str) -> bool:
    """All values positive; a zero value means the sample sits on a wall."""
    if 0 in values:
        raise WallPoint(f"{what} functional vanishes at the sample")
    return all(v > 0 for v in values)


class _TypeAPoset:
    """Standard parabolics of a rank-r type-A group, with the subspaces
    and indicator functions the Langlands identity quantifies over.

    A Levi is named by its set of 0-based simple roots e_i - e_{i+1}; its
    blocks are the runs of coordinates those roots join.  Everything has a
    closed form in standard coordinates:
    - the projection onto a_small^large is avg_small - avg_large, the
      difference of two nested block averages (the global means cancel);
    - the root functional of i is h_i - h_{i+1};
    - a point h of a_small^large is constant on small-blocks and sums to
      zero on each large-block, so h is the sum over i in large - small of
      (h_0 + ... + h_i) times the projected coroot of i.  The relative
      fundamental coweights, the dual basis, read off those partial sums.
    Neither the Levis between a nested pair, with their signs, nor the
    roots of large - small depend on the sample, so each is computed once
    per pair and kept on the instance; a check reuses one poset for every
    sample of every pair.
    """

    def __init__(self, rank: int):
        self.subsets = [
            frozenset(s)
            for mask in range(2**rank)
            for s in [[i for i in range(rank) if mask >> i & 1]]
        ]
        self._plans = {}
        self._gaps = {}

    def plan(self, small: frozenset, large: frozenset) -> list:
        """(q, (-1)^|large - q|, (-1)^|q - small|) for each Levi q with
        small <= q <= large, in the order of subsets."""
        key = (small, large)
        if key not in self._plans:
            self._plans[key] = [
                (q, (-1) ** (len(large) - len(q)), (-1) ** (len(q) - len(small)))
                for q in self.subsets
                if small <= q <= large
            ]
        return self._plans[key]

    def gaps(self, small: frozenset, large: frozenset) -> tuple:
        """The simple roots in large - small, in increasing order."""
        key = (small, large)
        if key not in self._gaps:
            self._gaps[key] = tuple(sorted(large - small))
        return self._gaps[key]

    def project_relative(self, vector, small: frozenset, large: frozenset):
        return _difference(_block_average(vector, small), _block_average(vector, large))

    def tau(self, small: frozenset, large: frozenset, h) -> bool:
        """Chamber indicator: alpha(h) > 0 for alpha in large minus small."""
        return _positive([h[i] - h[i + 1] for i in self.gaps(small, large)], "root")

    def tau_hat(self, small: frozenset, large: frozenset, h) -> bool:
        """Dual-cone indicator: relative fundamental coweights positive."""
        partial = list(accumulate(h))
        return _positive([partial[i] for i in self.gaps(small, large)], "coweight")


@lru_cache(maxsize=None)
def _block_scale(n: int) -> int:
    """lcm(1, ..., n), which every block length of n coordinates divides."""
    return lcm(*range(1, n + 1))


def _langlands_identities_at(poset: _TypeAPoset, small, large, h) -> bool:
    """Both alternating-sum identities at the sample h of a_small^large.

    The Levis between small and large with their signs, and the roots each
    indicator reads, come from the poset's per-pair caches; only h's block
    averages and the indicators are computed per sample.
    """
    # every indicator is the sign of a linear functional, so h may be scaled
    # by any positive integer: this scale makes h integral with each block
    # sum a multiple of its block length, so every average is an int
    scale = _block_scale(len(h)) * lcm(*(x.denominator for x in h))
    h = [int(x * scale) for x in h]
    plan = poset.plan(small, large)
    # project_relative, with each block average computed once per sample
    avg = {q: _block_average(h, q) for q, _, _ in plan}
    total_qr = 0
    total_pq = 0
    for q, sign_qr, sign_pq in plan:
        hq = _difference(avg[small], avg[q])
        h_q = _difference(avg[q], avg[large])
        if poset.tau(small, q, hq) and poset.tau_hat(q, large, h_q):
            total_qr += sign_qr
        if poset.tau_hat(small, q, hq) and poset.tau(q, large, h_q):
            total_pq += sign_pq
    expect = 1 if small == large else 0
    return total_qr == expect and total_pq == expect


def random_relative_point(rank: int, small, large, rng, poset=None) -> tuple:
    """A random integer point of a_small^large (zero when it is trivial).

    It is the projection of a / b, a in -9..9 and b in 1..4 per coordinate,
    scaled by 12 lcm(1, ..., rank + 1): the scaled draw is integral and
    every block sum is a multiple of its block length, so the projection is
    integral too.
    """
    poset = poset or _TypeAPoset(rank)
    small, large = frozenset(small), frozenset(large)
    scale = 12 * lcm(*range(1, rank + 2))
    for _ in range(MAX_DRAWS):
        v = [rng.randint(-9, 9) * scale // rng.randint(1, 4) for _ in range(rank + 1)]
        h = poset.project_relative(v, small, large)
        if small == large or any(h):
            return h
    raise ExactnessError(
        f"rank {rank}: {MAX_DRAWS} draws projected to zero in a_{sorted(small)}^{sorted(large)}"
    )


def verify_langlands(rank: int, sample_points=None, samples: int = 64, seed: int = 7) -> bool:
    """Check both alternating-sum identities on the type-A parabolic poset.

    sample_points, when given, must be a list of (small, large, h) triples
    with h in the relative subspace a_small^large, or InputError is raised;
    otherwise random off-wall points are drawn, samples of them for every
    proper nested pair (InputError when samples < 1) and one for each
    trivial pair.
    Given samples on a wall raise WallPoint; MAX_DRAWS drawn samples in a
    row on a wall raise ExactnessError.
    """
    if rank < 1:
        raise InputError("rank must be at least 1")
    if sample_points is None and samples < 1:
        raise InputError(f"samples must be at least 1, got {samples}")
    poset = _TypeAPoset(rank)
    if sample_points is not None:
        for small, large, h in sample_points:
            small, large = frozenset(small), frozenset(large)
            # the closed-form indicators hold only on a_small^large
            if not (
                len(h) == rank + 1
                and small <= large
                and poset.project_relative(h, small, large) == tuple(h)
            ):
                raise InputError(f"sample {h} is not a point of a_{sorted(small)}^{sorted(large)}")
            if not _langlands_identities_at(poset, small, large, h):
                return False
        return True
    rng = random.Random(seed)
    for small in poset.subsets:
        for large in poset.subsets:
            if not small <= large:
                continue
            count = 1 if small == large else samples
            for _ in range(count):
                for _ in range(MAX_DRAWS):
                    h = random_relative_point(rank, small, large, rng, poset)
                    try:
                        ok = _langlands_identities_at(poset, small, large, h)
                        break
                    except WallPoint:
                        continue
                else:
                    raise ExactnessError(
                        f"rank {rank}: {MAX_DRAWS} draws in a row lay on a wall of "
                        f"a_{sorted(small)}^{sorted(large)}"
                    )
                if not ok:
                    return False
    return True


# -- abstract inversion ---------------------------------------------------


@dataclass(frozen=True)
class ParabolicPoset:
    """Standard parabolics of one classical group, ordered by inclusion.

    Elements are labelled by the subset I of simple-root indices CUT by the
    parabolic (so the group itself is the empty set and the Borel is all of
    them); P <= Q as parabolics means I_P >= I_Q as subsets.  Each element's
    LeviProfile holds all the closed inversion reads about it.
    """

    group: GroupSpec
    ell: int
    profiles: dict  # element -> LeviProfile, in enumerate_parabolics order

    @property
    def elements(self) -> tuple:
        """The cut sets, frozensets of 1-based indices, in profiles' order."""
        return tuple(self.profiles)


def build_parabolic_poset(g: GroupSpec, ell: int) -> ParabolicPoset:
    """All standard parabolics of g, each with its Levi profile."""
    profiles = {cut: levi_profile(g, cut) for cut in enumerate_parabolics(g)}
    return ParabolicPoset(group=g, ell=ell, profiles=profiles)


def default_gauge_assignment(poset: ParabolicPoset) -> dict:
    """a0: each parabolic's Levi gauge series over the genus-ell surface."""
    return {cut: bg_orientable(prof.betti, poset.ell) for cut, prof in poset.profiles.items()}


def parabolic_terms(poset: ParabolicPoset, a0: dict, q_cut: frozenset, classes: dict, den: int):
    """The signed terms of the closed inversion b0(Q), for exactalg.signed_sum.

    b0(Q) = sum over parabolics P <= Q (cut sets p_cut >= q_cut) of

        (-1)^{|p_cut - q_cut|} a0(P) t^{2 (dim U_P - dim U_Q)(ell - 1)}
        prod_a t^{p_a <x_a>} / (1 - t^{p_a}),

    the product over a in p_cut - q_cut, with x_a = classes[a] / den and
    p_a = 4 <rho_P^Q, a^v>.  As rho_P^Q = rho_P - rho_Q and rho_Q pairs to
    zero with every simple coroot of Q's Levi, p_a = 4 <rho_P, a^v>: the
    int pair weight of P's Levi profile at a.  A p_a that is not positive,
    or a total twist that is not an integer, raises ExactnessError.

    The sum runs on integers: the twist sum_a p_a <x_a> is the int sum of
    p_a times each bracket's numerator over den, divided by den.
    """
    q_dim_u = poset.profiles[q_cut].dim_u
    brackets = {a: frac_part(x, den) for a, x in classes.items()}
    for p_cut, prof in poset.profiles.items():
        if not q_cut <= p_cut:
            continue
        ks, scaled = [], 0
        for a, k in zip(prof.simple_indices, prof.pair_weights):
            if a in q_cut:
                continue
            if k <= 0:
                raise ExactnessError(f"pair weight {k} not a positive integer")
            ks.append(k)
            scaled += k * brackets[a]
        # individual p<x> may be fractional; the total twist may not be
        twist, rem = divmod(scaled, den)
        if rem:
            raise ExactnessError(f"total twist {F(scaled, den)} not integral")
        shift = 2 * (prof.dim_u - q_dim_u) * (poset.ell - 1)
        yield (-1) ** len(ks), a0[p_cut], shift + twist, ks


def closed_inverse(poset: ParabolicPoset, a0: dict, topclass: int) -> dict:
    """b0 at every poset element for (the image of) the topological class."""
    rep = pi1_representative(poset.group, topclass)
    return {
        q: signed_sum(parabolic_terms(poset, a0, q, *levi_classes(poset.group, q, rep)))
        for q in poset.elements
    }


def forward_residual(poset: ParabolicPoset, a0: dict, b0_top: RatFun, topclass: int, order: int):
    """Residual of the defining relation at the group element, as a series.

    The relation writes a0(G) as b0(G) plus, for every proper parabolic P,
    the sum of b0(P, type) t^{n_P + 4 rho_P(slope)} over topological types
    of P-Levi bundles inducing the given class, restricted to types whose
    slope vector lies in P's open chamber.  Types are enumerated as actual
    lattice points x = rep + sum m_a coroot_a; the enumeration box is finite
    because on the chamber every fundamental-coweight coordinate
    x_a + m_a is nonnegative and the exponent is n_P + sum p_a (x_a + m_a).
    Every quantity read at a point is linear in x, so affine in m, and each
    is built once per P as an integer form:
    - the chamber values, det <alpha_a, centre(x)> for a in P's cut set,
      with det that of the Levi's Cartan matrix.  centre(x) is
      x - sum_c <w_c, x> c^v over the Levi's simple indices c, and
      rootsys.levi_classes gives det <w_c, x> as integers;
    - the exponent n_P + 2 <2 rho_P, x>, with 2 rho_P and each
      p_a = 2 <2 rho_P, a^v> read off P's Levi profile;
    - the class keys det <w_c, x> mod det.
    b0_top and each point's b0, shifted by its exponent, are the terms of
    one exactalg.truncated_sum, which expands each distinct b0 once.
    """
    if order < 0:
        raise InputError("order must be nonnegative")
    g = poset.group
    rs = build_root_system(g)
    rep = pi1_representative(g, topclass)
    top = frozenset()
    # the group's fundamental-coweight coordinates of rep, over group_det
    group_classes, group_det = levi_classes(g, top, rep)
    terms = [(0, (b0_top,))]

    for p_cut in poset.elements:
        prof = poset.profiles[p_cut]
        n_p = 2 * prof.dim_u * (poset.ell - 1)
        if p_cut == top or n_p > order:
            continue
        idxs = prof.simple_indices
        roots = [rs.simple_roots[a - 1] for a in idxs]
        coroots = [rs.simple_coroots[a - 1] for a in idxs]
        # x_a + m_a >= 0 and n_P + p_a (x_a + m_a) <= order, x_a = num / group_det
        box = [
            range(
                -(group_classes[a] // group_det),
                ((order - n_p) * group_det - w * group_classes[a]) // (w * group_det) + 1,
            )
            for a, w in zip(idxs, prof.pair_weights)
        ]
        # the chamber values and class keys at rep and at each coroot of P;
        # det and the Levi's simple indices (the keys of nums) are the same
        # at every v
        readings = []
        for v in [rep] + coroots:
            nums, det = levi_classes(g, p_cut, v)
            chamber_values = [
                det * pairing(alpha, v)
                - sum(x * pairing(alpha, rs.simple_coroots[c - 1]) for c, x in nums.items())
                for alpha in roots
            ]
            readings.append(chamber_values + list(nums.values()))
        forms = [(at_rep, steps) for at_rep, *steps in zip(*readings)]
        chamber, keys = forms[: len(idxs)], forms[len(idxs) :]
        exponent = (n_p + 2 * pairing(prof.two_rho, rep), prof.pair_weights)
        b0_cache: dict = {}
        for m in product(*box):
            if any(_affine_at(form, m) <= 0 for form in chamber):
                continue
            e = _affine_at(exponent, m)
            if e < 0:
                raise ExactnessError(f"lattice exponent {e}")
            if e > order:
                continue
            key = tuple(_affine_at(form, m) % det for form in keys)
            if key not in b0_cache:
                classes = dict(zip(nums, key))
                b0_cache[key] = signed_sum(parabolic_terms(poset, a0, p_cut, classes, det))
            terms.append((e, (b0_cache[key],)))

    return series_expand(a0[top], order) - truncated_sum(terms, order)


def _affine_at(form, m) -> int:
    """The affine form (c0, [c_1, ..., c_k]) at m: c0 + sum c_b m_b."""
    c0, cs = form
    return c0 + sum(c * mb for c, mb in zip(cs, m))


def invert_abstract(poset: ParabolicPoset, a0: dict, topclass: int, truncation: int):
    """Closed-formula inverse of a0 plus the forward-relation residual.

    Returns (b0, residual): b0 maps each poset element to its inverted
    series for (the image of) the given topological class; the residual is
    the truncated difference between a0 at the group element and the
    lattice re-summation of the defining relation.
    """
    b0 = closed_inverse(poset, a0, topclass)
    residual = forward_residual(poset, a0, b0[frozenset()], topclass, truncation)
    return b0, residual
