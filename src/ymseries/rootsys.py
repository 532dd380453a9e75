"""Root data for the classical groups U(n), SU(n), SO(2n+1), SO(2n), Sp(n).

Covectors (roots, weights) live in the basis theta_1..theta_n dual to the
coordinate basis e_1..e_n of the maximal torus; vectors (coroots, fundamental
group representatives) live in the e-basis.  Both are stored as tuples of
length n, so a pairing is a plain dot product.  Roots, coroots and the lifts
of pi_1 classes have integer entries and are int tuples; only the weights
are tuples of Fractions.

Two rules build everything from the simple roots and coroots:
- the positive roots come by height from the root-string rule
  (_positive_roots), each with its simple-root coefficients.  The root
  system (build_root_system) keeps of those coefficients only each root's
  support, as a bitmask; levidata reads every Levi's unipotent radical
  and rho_P off the supports, the one source of Levi data;
- the weights dual to a set of simple coroots are the solution of the
  Cartan system in the span of those simple roots (dual_weights), solved
  on demand.  Given all simple roots they are the fundamental weights of
  the group, given a Levi's they are its relative weights.  Either way
  they vanish on the centre, and evaluated on a representative of a class
  in pi_1 they produce the rational class mod Z that drives the twist
  exponents of the closed series formulas.

The bracket <x> of such a class (frac_part) is an integer operation: it
takes x as a numerator over a denominator and returns the numerator of
<x> over the same denominator, so every twist is an integer numerator
over one known denominator.  On the way to a twist, Fractions remain
only in the weights, the Levi rho_P pairings (levidata) and the class
keys of the inversion's lattice walk; pairing integer vectors gives an
int.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import add

from .errors import InputError


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


@dataclass(frozen=True)
class TopClass:
    """Topological class of a bundle: an element of pi_1 of the group.

    For u this is the degree (any integer), for so-odd/so-even the second
    Stiefel-Whitney bit (0 or 1), and for the simply connected su, sp and
    spin families the only value 0.
    """

    value: int = 0


def validate_topclass(g: GroupSpec, c) -> int:
    if isinstance(c, TopClass):
        c = c.value
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
    return sum(a * b for a, b in zip(covector, vector))


def _vec(n, entries: dict) -> tuple:
    return tuple(entries.get(i, 0) for i in range(n))


def _simple_data(g: GroupSpec):
    """Simple roots (theta-basis) and simple coroots (e-basis)."""
    n = g.n
    fam = g.family
    a_chain = [_vec(n, {i: 1, i + 1: -1}) for i in range(n - 1)]
    if fam in (UNITARY, SPECIAL_UNITARY):
        return a_chain, list(a_chain)
    if fam in (SO_ODD, SPIN_ODD):
        roots = a_chain + [_vec(n, {n - 1: 1})]
        coroots = list(a_chain) + [_vec(n, {n - 1: 2})]
        return roots, coroots
    if fam in (SO_EVEN, SPIN_EVEN):
        roots = a_chain + [_vec(n, {n - 2: 1, n - 1: 1})]
        coroots = list(a_chain) + [_vec(n, {n - 2: 1, n - 1: 1})]
        return roots, coroots
    if fam == SYMPLECTIC:
        roots = a_chain + [_vec(n, {n - 1: 2})]
        coroots = list(a_chain) + [_vec(n, {n - 1: 1})]
        return roots, coroots
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


def _rref(rows, ncols):
    """Reduce rows in place to reduced row echelon form over Q.

    Pivots are sought in the first ncols columns only, so an augmented
    system [A | b] keeps b out of the pivot search.  Returns the pivot
    columns; the i-th one belongs to row i.
    """
    m = len(rows)
    pivots = []
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, m) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][col]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(m):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
    return pivots


def _solve(rows, n):
    """A solution of the system given as augmented rows [A | b] in n unknowns.

    Unknowns without a pivot are set to 0; an inconsistent system raises
    ValueError.
    """
    rows = [[Fraction(x) for x in row] for row in rows]
    pivots = _rref(rows, n)
    if any(row[n] != 0 for row in rows[len(pivots):]):
        raise ValueError("inconsistent system")
    sol = [Fraction(0)] * n
    for row, col in zip(rows, pivots):
        sol[col] = row[n]
    return sol


def dual_weights(simple_roots, simple_coroots) -> list:
    """The weights dual to the simple coroots, in the span of the simple roots.

    omega_j = sum_b x_b alpha_b, where x solves the Cartan system
    sum_b x_b <alpha_b, alpha_c^v> = delta_jc.  In the span of the roots,
    omega_j vanishes on the centre, their common kernel.  The Cartan matrix
    is nonsingular, so Q^n is the direct sum of the span of the coroots and
    the centre, and omega_j is the only covector dual to the coroots that
    vanishes on the centre.
    """
    rank = len(simple_roots)
    # row c of the system: <alpha_b, alpha_c^v> over b
    rows = [[pairing(a, av) for a in simple_roots] for av in simple_coroots]
    if len(_rref([list(row) for row in rows], rank)) < rank:
        raise ValueError("system is rank deficient")
    columns = list(zip(*simple_roots))
    weights = []
    for j in range(rank):
        x = _solve([row + [int(c == j)] for c, row in enumerate(rows)], rank)
        weights.append(
            tuple(sum((xb * a for xb, a in zip(x, col)), Fraction(0)) for col in columns)
        )
    return weights


@lru_cache(maxsize=None)
def build_root_system(g: GroupSpec) -> RootSystem:
    """Simple roots, positive roots with their supports, and coroots of g.

    Built once per group and shared, which is safe because every field is
    immutable.  Everything is integer data; weights come from dual_weights
    on demand.
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


def weight_on_pi1(g: GroupSpec, i: int, c: int) -> Fraction:
    """Class of the i-th fundamental weight on c in Q/Z, as a value in [0,1).

    i is a 1-based simple root index, at most n - 1 for u and n for the
    other families.  For u the value is -i*c/n mod 1 (the weights kill the
    central direction); for so-odd it is c/2 at i = n and 0 below; for
    so-even it is -c/2 at i = n-1 and c/2 at i = n; symplectic and spin
    groups have trivial pi_1.
    """
    if g.family == SPECIAL_UNITARY:
        raise UnsupportedFamily("su classes are handled through the u series")
    n = g.n
    last = n - 1 if g.family == UNITARY else n
    if not 1 <= i <= last:
        raise ValueError(f"simple root index {i} out of range 1..{last}")
    validate_topclass(g, c)
    if g.family == UNITARY:
        return Fraction(-i * c, n) % 1
    if g.family == SO_ODD:
        return Fraction(c, 2) % 1 if i == n else Fraction(0)
    if g.family == SO_EVEN:
        if i == n - 1:
            return Fraction(-c, 2) % 1
        if i == n:
            return Fraction(c, 2) % 1
        return Fraction(0)
    return Fraction(0)
