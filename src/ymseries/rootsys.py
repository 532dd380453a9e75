"""Root data for the classical groups U(n), SU(n), SO(2n+1), SO(2n), Sp(n).

Covectors (roots) live in the basis theta_1..theta_n dual to the coordinate
basis e_1..e_n of the maximal torus; vectors (coroots, lifts of pi_1
classes) live in the e-basis.  Both are stored as int tuples of length n, so
a pairing is a plain dot product.

Two rules build everything from the simple roots and coroots:
- the positive roots come by height from the root-string rule
  (_positive_roots), each with its simple-root coefficients.  The root
  system (build_root_system) keeps of those coefficients only each root's
  support, as a bitmask; levidata reads every Levi's unipotent radical
  and rho_P off the supports, the one source of Levi data;
- the classes of a coweight under a Levi's fundamental weights come from
  the Levi's Cartan matrix K alone: they are integer numerators over
  det K, read off adj K (levi_classes).  One fraction-free elimination
  (adjugate) finds adj K and det K, once per group and Levi.  At the
  empty cut set the Levi is the group itself, and on a lift of a class in
  pi_1 the classes are the rational classes mod Z that drive the twist
  exponents of the closed series formulas.

The bracket <x> of such a class (frac_part) is an integer operation: it
takes x as a numerator over a denominator and returns the numerator of
<x> over the same denominator, so every twist is an integer numerator
over one known denominator.  This module builds no Fraction, and no
Fraction is built on the way to a twist: the Levi pair weights
4 <rho_P, a^v> are ints too (levidata.LeviProfile.pair_weights).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import add, mul

from .errors import ExactnessError, InputError


UNITARY = "u"
SPECIAL_UNITARY = "su"
SO_ODD = "so-odd"
SO_EVEN = "so-even"
SYMPLECTIC = "sp"
SPIN_ODD = "spin-odd"
SPIN_EVEN = "spin-even"

FAMILIES = (UNITARY, SPECIAL_UNITARY, SO_ODD, SO_EVEN, SYMPLECTIC, SPIN_ODD, SPIN_EVEN)

# families whose pi_1 is Z/2, carried as a Stiefel-Whitney bit
SO_LIKE = (SO_ODD, SO_EVEN)
# families with trivial pi_1
SIMPLY_CONNECTED = (SPECIAL_UNITARY, SYMPLECTIC, SPIN_ODD, SPIN_EVEN)


class UnsupportedRank(InputError):
    """Rank outside the family's validity range."""


class UnsupportedFamily(InputError):
    """Operation not defined for this group family."""


class DimensionMismatch(InputError):
    """Covector and vector of different coordinate dimensions."""


@dataclass(frozen=True)
class GroupSpec:
    """A classical group family together with its rank parameter n.

    The rank parameter follows the family naming: GroupSpec("so-odd", 2) is
    SO(5), GroupSpec("sp", 3) is Sp(3), GroupSpec("u", 4) is U(4).
    """

    family: str
    n: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise UnsupportedFamily(f"unknown family {self.family!r}")
        min_n = {SO_EVEN: 2, SPIN_EVEN: 2, SPECIAL_UNITARY: 2}.get(self.family, 1)
        if self.n < min_n:
            raise UnsupportedRank(f"{self.family} requires n >= {min_n}, got {self.n}")

    def describe(self) -> str:
        fam, n = self.family, self.n
        return {
            UNITARY: f"U({n})",
            SPECIAL_UNITARY: f"SU({n})",
            SO_ODD: f"SO({2 * n + 1})",
            SO_EVEN: f"SO({2 * n})",
            SYMPLECTIC: f"Sp({n})",
            SPIN_ODD: f"Spin({2 * n + 1})",
            SPIN_EVEN: f"Spin({2 * n})",
        }[fam]


def validate_topclass(g: GroupSpec, c: int) -> int:
    """c, checked to be the topological class of a g-bundle: an element of pi_1 of g.

    For u this is the degree (any integer), for so-odd/so-even the second
    Stiefel-Whitney bit (0 or 1), and for the simply connected su, sp and
    spin families the only value 0.
    """
    if g.family in SO_LIKE:
        if c not in (0, 1):
            raise InputError(f"{g.describe()} carries a w2 bit, got {c}")
    elif g.family in SIMPLY_CONNECTED:
        if c != 0:
            raise InputError(f"{g.describe()} is simply connected, got class {c}")
    return c


@dataclass(frozen=True)
class RootSystem:
    n: int
    simple_roots: tuple
    positive_roots: tuple
    simple_coroots: tuple
    # the support of each positive root as a bitmask, aligned with
    # positive_roots: bit a is set when the 1-based simple root a occurs in it
    positive_supports: tuple


def pairing(covector, vector):
    """Exact dot product between a theta-basis covector and an e-basis vector.

    It is an int when every entry is an int and a Fraction otherwise.
    """
    if len(covector) != len(vector):
        raise DimensionMismatch(f"{len(covector)} != {len(vector)}")
    return sum(map(mul, covector, vector))


def _vec(n, entries: dict) -> tuple:
    return tuple(entries.get(i, 0) for i in range(n))


def _simple_data(g: GroupSpec):
    """Simple roots (theta-basis) and simple coroots (e-basis)."""
    n = g.n
    fam = g.family
    a_chain = [_vec(n, {i: 1, i + 1: -1}) for i in range(n - 1)]
    if fam in (UNITARY, SPECIAL_UNITARY):
        return a_chain, list(a_chain)
    if fam in (SO_ODD, SPIN_ODD, SYMPLECTIC):
        # Sp(n)'s end root is SO(2n+1)'s end coroot, and the reverse
        short, long = _vec(n, {n - 1: 1}), _vec(n, {n - 1: 2})
        end_root, end_coroot = (long, short) if fam == SYMPLECTIC else (short, long)
        return a_chain + [end_root], a_chain + [end_coroot]
    if fam in (SO_EVEN, SPIN_EVEN):
        fork = _vec(n, {n - 2: 1, n - 1: 1})
        return a_chain + [fork], a_chain + [fork]
    raise UnsupportedFamily(f"simple roots are not defined for family {fam!r}")


def _positive_roots(simple_roots, simple_coroots) -> list:
    """The positive roots, sorted, each paired with its simple-root coefficients.

    They are found by height, starting from the simple roots, with the
    root-string rule (Humphreys, Introduction to Lie Algebras and
    Representation Theory, 8.4): for a positive root beta other than
    alpha_i, let p(beta, i) be the largest k such that beta - k alpha_i is
    a root; then beta + alpha_i is a root exactly when
    p(beta, i) > <beta, alpha_i^v>.  Each string length comes from the
    root one step below: p(beta, i) = p(beta - alpha_i, i) + 1 when
    beta - alpha_i is a root and 0 otherwise.  That root is lower than
    beta, so the heights already walked decide it.  At beta = alpha_i the
    rule gives p = 0 < 2, so it adds no multiple of a simple root.
    """
    # cartan[i] = <alpha_i, alpha_b^v> over b; a root's pairings with the
    # simple coroots and its theta-basis vector grow by a row of cartan and
    # a simple root with each step up
    cartan = [[sum(x * y for x, y in zip(a, av)) for av in simple_coroots] for a in simple_roots]
    strings = {}  # coefficients of a root -> its string lengths p(beta, i)
    found = []
    layer = {
        tuple(int(b == i) for b in range(len(simple_roots))): (cartan[i], a)
        for i, a in enumerate(simple_roots)
    }
    while layer:
        for coeffs in layer:
            lengths = []
            for i, c in enumerate(coeffs):
                down = c and strings.get(coeffs[:i] + (c - 1,) + coeffs[i + 1 :])
                lengths.append(down[i] + 1 if down else 0)
            strings[coeffs] = lengths
        higher = {}
        for coeffs, (pairs, vector) in layer.items():
            found.append((vector, coeffs))
            for i, (p, x) in enumerate(zip(strings[coeffs], pairs)):
                if p > x:
                    up = coeffs[:i] + (coeffs[i] + 1,) + coeffs[i + 1 :]
                    if up not in higher:
                        higher[up] = (
                            list(map(add, pairs, cartan[i])),
                            tuple(map(add, vector, simple_roots[i])),
                        )
        layer = higher
    return sorted(found)


@lru_cache(maxsize=None)
def build_root_system(g: GroupSpec) -> RootSystem:
    """Simple roots, positive roots with their supports, and coroots of g.

    Built once per group and shared, which is safe because every field is
    immutable.  Everything is integer data.
    """
    simple_roots, simple_coroots = _simple_data(g)
    positive = _positive_roots(simple_roots, simple_coroots)
    return RootSystem(
        n=g.n,
        simple_roots=tuple(simple_roots),
        positive_roots=tuple(beta for beta, _ in positive),
        simple_coroots=tuple(simple_coroots),
        positive_supports=tuple(
            sum(1 << b for b, c in enumerate(coeffs, 1) if c) for _, coeffs in positive
        ),
    )


def frac_part(num: int, den: int) -> int:
    """The bracket <num/den> as a numerator over den: the r in 1..den with
    r = num mod den, so <num/den> = r/den lies in (0, 1] and <0> = 1."""
    return num % den or den


def pi1_representative(g: GroupSpec, c: int) -> tuple:
    """A lift of the class c in pi_1 to the coweight lattice of the torus.

    Degree-c unitary bundles lift to c*e_1; the nontrivial SO bundle lifts
    to e_n; simply connected families lift to 0.
    """
    validate_topclass(g, c)
    n = g.n
    if g.family == UNITARY:
        return _vec(n, {0: c})
    if g.family in SO_LIKE:
        return _vec(n, {n - 1: c})
    return _vec(n, {})


def adjugate(matrix) -> tuple:
    """(adj K, det K) of a square integer matrix K, as int lists and an int.

    Fraction-free Gauss-Jordan elimination on [K | I] (Bareiss, "Sylvester's
    identity and multistep integer-preserving Gaussian elimination", Math.
    Comp. 22, 1968): at step k every other row r becomes
    (p r - r[k] * pivot row) / prev, with p the pivot and prev the pivot
    before it.  Each entry is then a minor of [K | I], so every division is
    exact.  After the last step the left block is d I, where d is the last
    pivot, and the right block is d K^-1; d = det K up to the sign of the row
    swaps.  A singular matrix raises ExactnessError.
    """
    size = len(matrix)
    rows = [list(row) + [int(i == j) for j in range(size)] for i, row in enumerate(matrix)]
    prev, sign = 1, 1
    for k in range(size):
        piv = next((i for i in range(k, size) if rows[i][k]), None)
        if piv is None:
            raise ExactnessError(f"singular {size}x{size} matrix")
        if piv != k:
            rows[k], rows[piv] = rows[piv], rows[k]
            sign = -sign
        pivot_row = rows[k]
        p = pivot_row[k]
        for i, row in enumerate(rows):
            if i != k:
                f = row[k]
                rows[i] = [(p * x - f * y) // prev for x, y in zip(row, pivot_row)]
        prev = p
    return [[sign * x for x in row[size:]] for row in rows], sign * prev


@lru_cache(maxsize=None)
def _levi_inverse(g: GroupSpec, cut: frozenset) -> tuple:
    """(levi, adj K, det K) for the Levi of g that cuts the simple roots in
    cut: its simple indices (1-based, those not in cut, increasing) and the
    adjugate and determinant of its Cartan matrix K[b][c] = <alpha_b,
    alpha_c^v> over b, c in levi.  Solved once per group and cut set, and
    immutable, since the cache shares it."""
    rs = build_root_system(g)
    levi = [a for a in range(1, len(rs.simple_roots) + 1) if a not in cut]
    cartan = [
        [pairing(rs.simple_roots[b - 1], rs.simple_coroots[c - 1]) for c in levi] for b in levi
    ]
    adj, det = adjugate(cartan)
    return tuple(levi), tuple(map(tuple, adj)), det


def levi_classes(g: GroupSpec, cut: frozenset, v) -> tuple:
    """The classes of the coweight v under the Levi's fundamental weights,
    as integer numerators over one denominator: ({a: det K <w_a, v>}, det K).

    a runs over the Levi's simple indices, K is its Cartan matrix and
    w_a = sum_b (K^-1)[a][b] alpha_b, the weight in the span of the Levi's
    simple roots dual to its simple coroots; it vanishes on the Levi's
    centre.  So det K <w_a, v> = sum_b adj(K)[a][b] <alpha_b, v>.  At the
    empty cut set the w_a are the fundamental weights of g, and on the lift
    of a class in pi_1 they give the class mod Z that drives the twist
    exponents of the closed series formulas.  det K is positive, as for every
    Cartan matrix of finite type.
    """
    levi, adj, det = _levi_inverse(g, cut)
    rs = build_root_system(g)
    on_v = [pairing(rs.simple_roots[b - 1], v) for b in levi]
    return {a: sum(map(mul, row, on_v)) for a, row in zip(levi, adj)}, det
