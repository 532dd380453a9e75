"""The former Fraction linear algebra of root data, kept as a test oracle.

The weights of root data used to be solved in Fractions: Gauss-Jordan
elimination (_rref, _solve) gave the weights dual to a set of simple
coroots (dual_weights), and the classes of the group's fundamental weights
on pi_1 came from a per-family case table (weight_on_pi1).  Both now come
from the integer adjugate of each Levi's Cartan matrix
(rootsys.levi_classes); the tests compare the two.
"""

from fractions import Fraction

from ymseries.rootsys import (
    SO_EVEN,
    SO_ODD,
    SPECIAL_UNITARY,
    UNITARY,
    GroupSpec,
    UnsupportedFamily,
    pairing,
    validate_topclass,
)


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
