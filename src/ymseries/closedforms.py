"""Closed-form equivariant Poincare series of semistable/flat strata.

Two independent routes to the same values live here.

The specialized route transcribes the closed alternating sums over
compositions of n: the unitary series (Zagier's solution of the rank-n
recursion), and its symplectic and orthogonal counterparts; SU(n) is the
degree-zero unitary series with the central torus factor divided out,
once, in flat_series.  Sp(n) and SO(2n+1) are Langlands dual, with the
same Betti degrees and Levi tails, and their series is one printed
formula (_end_root_terms) in which only the end simple root's length
changes two boundary exponents: sp_flat sums it with the long end root,
so_odd_flat with the short one.  SO(2n) has its own walk, since its fork
of two end roots adds a summand family, a last block of size 1 with both
fork nodes cut, that the B_n/C_n pair lacks.  Each function builds its
formula exactly as printed, term by term, so the code doubles as the
auditable transcription.  Both routes hand their signed terms to
exactalg.signed_sum, the one accumulator of every alternating series.

The general route (lr_general, on a group, a bundle class and a genus)
evaluates the abstract inversion of the stratification recursion at the
group element: a single signed sum over all standard parabolics, each
named by its cut set of simple roots, with exponents driven by the Levi
profiles, read off the root system, and the fundamental-weight classes
on pi_1.  Its terms come
from inversion.parabolic_terms, the generator the closed inversion uses at
every element of the parabolic poset.  Agreement of the two routes on
every family is one of the package's acceptance gates.

Conventions: the bracket <x> is the representative of x mod Z in the
half-open interval (0, 1], so <0> = 1.  It is taken on integers
(rootsys.frac_part): <num/den> is r/den with r in 1..den, so each twist
sum is an integer numerator over one denominator (n for Zagier's sum, 2
for the w2 class) and every exponent an int; no Fraction is built.  The
indicator eps(r) = [r > 1]
switches off boundary factors of one-block compositions: when eps = 0 the
factor (1 - eps * t^e) is literally 1 and the exponent term eps * e is
literally 0.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import ExactnessError, InputError
from .exactalg import RatFun, cyclotomic_quotient, signed_sum
from .gaugeseries import bg_orientable, concat_profiles, tail_profile, unitary_block_profile
from .inversion import build_parabolic_poset, default_gauge_assignment, parabolic_terms
from .levidata import _compositions, _cut_positions, _pair_sum
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
    UnsupportedRank,
    frac_part,
    levi_classes,
    pi1_representative,
    validate_topclass,
)

F = Fraction


def _check_rank_and_genus(n: int, least_n: int, ell: int):
    """Reject a rank parameter below least_n (UnsupportedRank, as GroupSpec
    raises) or a genus below 1 (InputError), naming which."""
    if n < least_n:
        raise UnsupportedRank(f"need rank n >= {least_n}, got n = {n}")
    if ell < 1:
        raise InputError(f"need genus ell >= 1, got ell = {ell}")


def _gauge(ell: int, blocks, *tails) -> RatFun:
    """Gauge series of unitary blocks of the given sizes times tail factors."""
    profiles = [unitary_block_profile(m) for m in blocks]
    return bg_orientable(concat_profiles(profiles + list(tails)), ell)


def _doubled_adjacent_sums(comp) -> list:
    """2 (n_i + n_{i+1}) for each adjacent pair of blocks."""
    return [2 * (a + b) for a, b in zip(comp, comp[1:])]


@lru_cache(maxsize=None)
def _zagier_cached(n: int, kmod: int, ell: int) -> RatFun:
    def terms():
        for comp in _compositions(n):
            adj = _doubled_adjacent_sums(comp)
            prefixes = _cut_positions(comp)
            # the twist sum_i k_i <-kmod prefix_i / n>, as a numerator over n
            scaled = sum(k * frac_part(-kmod * prefix, n) for k, prefix in zip(adj, prefixes))
            twist, rem = divmod(scaled, n)
            if rem:
                raise ExactnessError(f"exponent {F(scaled, n)} is not a natural number")
            exponent = 2 * (ell - 1) * _pair_sum(comp) + twist
            yield (-1) ** (len(comp) - 1), _gauge(ell, comp), exponent, adj

    return signed_sum(terms())


def zagier_un(n: int, k: int, ell: int) -> RatFun:
    """Equivariant series of the central Yang-Mills stratum for U(n), degree k.

    Alternating sum over compositions (n_1, ..., n_r) of n: the product of
    the blocks' gauge series times

        t^{2(ell-1) sum_{i<j} n_i n_j}
        * t^{2 sum_i (n_i + n_{i+1}) <(n_1+...+n_i)(-k/n)>}
        / prod_i (1 - t^{2(n_i + n_{i+1})})

    with sign (-1)^(r-1).  Only k mod n enters.
    """
    _check_rank_and_genus(n, 1, ell)
    return _zagier_cached(n, k % n, ell)


def _su_torus(ell: int) -> RatFun:
    """The central torus factor (1+t)^{2 ell} / (1-t^2) of U(n) over SU(n)."""
    return cyclotomic_quotient([(1, 2 * ell)], [(2, 1)])


def sun_flat(n: int, ell: int) -> RatFun:
    """Flat series for SU(n): the degree-zero U(n) series with the central
    torus factor (1+t)^{2 ell} / (1-t^2) divided out, as flat_series does."""
    _check_rank_and_genus(n, 2, ell)
    return flat_series(GroupSpec(SPECIAL_UNITARY, n), 0, ell)


def _end_root_terms(n: int, ell: int, w: int, long_end: bool):
    """The signed terms of the B_n/C_n pair: Sp(n) when long_end, whose end
    simple root 2 theta_n is long, and SO(2n+1) on the bundle with bit w
    otherwise, whose end root theta_n is short.

    Two summand families per composition (n_1, ..., n_r) of n:

    first family (all blocks unitary), sign (-1)^r:
      prod gauge * t^{(ell-1)(2 sum n_i n_j + n(n+1))}
      * t^{2 sum_{i<r}(n_i+n_{i+1}) + k <w/2>}
      / [prod_{i<r}(1 - t^{2(n_i+n_{i+1})})] (1 - t^k)

    second family (orthogonal/symplectic tail on the last block), sign
    (-1)^(r-1):
      prod_{i<r} gauge * tail * t^{(ell-1)(2 sum n_i n_j + n(n+1) - n_r(n_r+1))}
      * t^{2 sum_{i<r-1}(n_i+n_{i+1}) + eps(r) b}
      / [prod_{i<r-1}(1 - t^{2(n_i+n_{i+1})})] (1 - eps(r) t^b)

    Only the two boundary exponents depend on the end root: k = 2(n_r + 1)
    and b = 2(n_{r-1} + 2n_r + 1) for the long one, k = 4 n_r and
    b = 2(n_{r-1} + 2n_r) for the short one.  Each twist is the sum of its
    family's denominator exponents, the first family's last one scaled by
    <w/2>, and the two groups have the same tail factor.
    """
    for comp in _compositions(n):
        r, last = len(comp), comp[-1]
        pair2 = 2 * _pair_sum(comp)
        adj = _doubled_adjacent_sums(comp)
        k = 2 * (last + 1) if long_end else 4 * last
        e1 = (ell - 1) * (pair2 + n * (n + 1)) + sum(adj) + k * frac_part(w, 2) // 2
        yield (-1) ** r, _gauge(ell, comp), e1, adj + [k]

        ks2 = adj[: r - 2]
        if r > 1:
            # the long end root adds 1 to the boundary's half
            ks2.append(2 * (comp[-2] + 2 * last + long_end))
        e2 = (ell - 1) * (pair2 + n * (n + 1) - last * (last + 1)) + sum(ks2)
        tail = tail_profile(SYMPLECTIC, last)
        yield (-1) ** (r - 1), _gauge(ell, comp[:-1], tail), e2, ks2


@lru_cache(maxsize=None)
def sp_flat(n: int, ell: int) -> RatFun:
    """Flat series for Sp(n): the B_n/C_n sum of _end_root_terms with the
    long end root, k = 2(n_r + 1) and b = 2(n_{r-1} + 2n_r + 1), at w = 0,
    where the first family's twist is k."""
    _check_rank_and_genus(n, 1, ell)
    return signed_sum(_end_root_terms(n, ell, 0, True))


@lru_cache(maxsize=None)
def so_odd_flat(n: int, ell: int, w2: int) -> RatFun:
    """Flat series for SO(2n+1) on the bundle with Stiefel-Whitney bit w2:
    the B_n/C_n sum of _end_root_terms with the short end root, k = 4 n_r
    and b = 2(n_{r-1} + 2n_r).  The bundle enters only through the first
    family's twist 4 n_r <w2/2>, 4 n_r at w2 = 0 and 2 n_r at w2 = 1."""
    _check_rank_and_genus(n, 1, ell)
    if w2 not in (0, 1):
        raise InputError("w2 is a bit")
    return signed_sum(_end_root_terms(n, ell, w2, False))


@lru_cache(maxsize=None)
def so_even_flat(n: int, ell: int, w2: int) -> RatFun:
    """Flat series for SO(2n) (n >= 2) on the bundle with bit w2.

    Three summand families:
      size-one last block (both fork nodes cut), sign (-1)^r, twist
        2 sum_{i<r-1}(n_i+n_{i+1}) + 4(n_{r-1}+1)<w2/2>,
        denominator [prod_{i<r}](1 - t^{2(n_{r-1}+1)});
      last block of size >= 2 cut at a single fork node -- the two choices
      give identical terms, hence an overall factor 2, sign (-1)^r, twist
        2 sum_{i<r}(n_i+n_{i+1}) + 4(n_r-1)<w2/2>;
      even-orthogonal tail, sign (-1)^(r-1), boundary exponent
        2(n_{r-1}+2n_r-1) gated by eps(r).
    """
    _check_rank_and_genus(n, 2, ell)
    if w2 not in (0, 1):
        raise InputError("w2 is a bit")
    q4 = 2 * frac_part(w2, 2)  # 4 <w2/2>

    def terms():
        for comp in _compositions(n):
            r, last = len(comp), comp[-1]
            pair2 = 2 * _pair_sum(comp)
            adj = _doubled_adjacent_sums(comp)
            base = (ell - 1) * (pair2 + n * (n - 1))
            if last == 1:
                # size-one last block; needs r >= 2, which n >= 2 guarantees
                e = base + sum(adj[: r - 2]) + (comp[-2] + 1) * q4
                yield (-1) ** r, _gauge(ell, comp), e, adj + [2 * (comp[-2] + 1)]
                continue
            e = base + sum(adj) + (last - 1) * q4
            yield 2 * (-1) ** r, _gauge(ell, comp), e, adj + [4 * (last - 1)]

            ks3 = adj[: r - 2]
            e3 = (ell - 1) * (pair2 + n * (n - 1) - last * (last - 1)) + sum(ks3)
            if r > 1:
                boundary = 2 * (comp[-2] + 2 * last - 1)
                ks3 = ks3 + [boundary]
                e3 += boundary
            tail = tail_profile(SO_EVEN, last)
            yield (-1) ** (r - 1), _gauge(ell, comp[:-1], tail), e3, ks3

    return signed_sum(terms())


def lr_general(g: GroupSpec, c: int, ell: int) -> RatFun:
    """The general engine: the closed inversion b0 at the group element,
    for the bundle of class c over the orientable surface of genus ell.

    It is the signed sum over all standard parabolics, each named by its
    cut set I of simple-root indices, of

        (-1)^{|I|} * P_t(B gauge of the Levi)
        * t^{2 dim U^I (ell-1)}
        * t^{sum_a 4<rho^I, a^v> <w_a(c)>} / prod_a (1 - t^{4<rho^I, a^v>})

    over a in I, where w_a(c) is the class of the bundle class c under the
    fundamental weight w_a: rootsys.levi_classes at the empty cut set, on
    the lift of c (rootsys.pi1_representative), as integer numerators over
    the determinant of the Cartan matrix of g.  The terms come from
    inversion.parabolic_terms at the empty cut set, the generator that
    gives the closed inversion at every poset element; every exponent is
    read from the Levi profiles (levidata.levi_profile).  c must be a
    class of g (rootsys.validate_topclass).  Denominator exponents must be
    positive integers and the total twist a natural number; violations
    raise ExactnessError.
    """
    validate_topclass(g, c)
    _check_rank_and_genus(g.n, 1, ell)
    poset = build_parabolic_poset(g, ell)
    classes, det = levi_classes(g, frozenset(), pi1_representative(g, c))
    a0 = default_gauge_assignment(poset)
    return signed_sum(parabolic_terms(poset, a0, frozenset(), classes, det))


_SPIN_ALIASES = {SPIN_ODD: SO_ODD, SPIN_EVEN: SO_EVEN}


def flat_series(g: GroupSpec, c: int, ell: int, engine: str = "specialized") -> RatFun:
    """Dispatch to the family's closed form (or the general engine).

    su and spin families are served through their series-level aliases:
    su via the degree-zero unitary series, spin via the orthogonal series
    at trivial Stiefel-Whitney class.
    """
    if engine not in ("specialized", "general"):
        raise InputError(f"engine must be 'specialized' or 'general', not {engine!r}")
    validate_topclass(g, c)
    fam, n = g.family, g.n
    if fam == SPECIAL_UNITARY:
        return flat_series(GroupSpec(UNITARY, n), 0, ell, engine) / _su_torus(ell)
    if fam in _SPIN_ALIASES:
        return flat_series(GroupSpec(_SPIN_ALIASES[fam], n), 0, ell, engine)
    if engine == "general":
        return lr_general(g, c, ell)
    if fam == UNITARY:
        return zagier_un(n, c, ell)
    if fam == SYMPLECTIC:
        return sp_flat(n, ell)
    if fam == SO_ODD:
        return so_odd_flat(n, ell, c)
    if fam == SO_EVEN:
        return so_even_flat(n, ell, c)
    raise UnsupportedFamily(f"no closed-form flat series for family {fam!r}")
