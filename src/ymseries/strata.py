"""Stratum combinatorics for the orientable Yang-Mills stratification.

A stratum is indexed by a rational diagonal vector mu in the closed
fundamental Weyl chamber: a composition (n_1, ..., n_r) of n carrying
integer labels (k_1, ..., k_r), with strictly decreasing block slopes
k_j / n_j and family-specific constraints on the last block.  The module
enumerates all such points of a given bundle class up to a codimension
bound, evaluates the complex codimension

    d_mu = sum over positive roots a with a(mu) > 0 of (a(mu) + ell - 1),

names each stratum's Levi factors as (family, n, class) triples
(stratum_factors: a unitary factor per block and, for a zero tail, the
family's flat factor), and checks the stratification identity: the gauge
series of the bundle equals the codimension-weighted sum of the stratum
series, as a truncated power series.  A stratum's series is the product of
closedforms.flat_series over its triples, one signed_sum product term.

Codimensions are integer arithmetic: mu is scaled by L, the lcm of its
block sizes, so L * mu is an integer vector.  The enumeration places
blocks by decreasing slope and carries the exact codimension of the placed
prefix in integers (a root between blocks i and j contributes
n_i n_j (k_i/n_i - k_j/n_j + ell - 1) = n_j k_i - n_i k_j + n_i n_j (ell - 1)
in total); it prunes on that plus the exact cross terms to the coordinates
not yet placed, and checks every kept point against `codim`.  The identity
check takes the weighted sum of the strata's truncated products of flat
series as one exactalg.truncated_sum, which expands each distinct factor
once.  Its report stores the residual and the strata; the degree, whether
the identity holds and the stratum count are read off those two.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .closedforms import flat_series
from .errors import ExactnessError, InputError
from .exactalg import CoeffVector, RatFun, series_expand, signed_sum, truncated_sum
from .gaugeseries import betti_degrees, bg_orientable
from .rootsys import (
    SO_EVEN,
    SO_ODD,
    SYMPLECTIC,
    UNITARY,
    GroupSpec,
    UnsupportedFamily,
    build_root_system,
    validate_topclass,
)

F = Fraction

TAIL_NONE = "none"
TAIL_ZERO = "zero_block"
TAIL_MINUS = "minus_last"


class InvalidPoint(InputError):
    """Composition/label data violates the family's chamber constraints."""


class AmbiguousComponent(InputError):
    """A split point needs a component choice to have a series."""


def _tail_shapes(family: str, size: int, label: int) -> tuple:
    """The tail kinds a final block of this size and label admits."""
    if family == UNITARY:
        return (TAIL_NONE,)
    if family in (SO_ODD, SYMPLECTIC):
        return (TAIL_ZERO,) if label == 0 else (TAIL_NONE,)
    if family == SO_EVEN:
        if label == 0 and size >= 2:
            return (TAIL_ZERO,)
        return (TAIL_NONE,) if size == 1 else (TAIL_NONE, TAIL_MINUS)
    raise UnsupportedFamily(f"stratum tail shapes are not defined for family {family!r}")


def _check_blocks(comp, labels):
    if len(comp) != len(labels) or not comp or any(p < 1 for p in comp):
        raise InvalidPoint("composition and labels must align and be nonempty")


def _check_chamber(family, comp, labels, tail_kind, shapes, floor=(0, 1)):
    """The chamber rules shared by orientable and nonorientable points.

    tail_kind must be one of the admitted shapes, and the block slopes
    k_j / n_j must strictly decrease down to the family's floor, given as
    (numerator, denominator): a zero block stands in for the floor, a
    size-one final even-orthogonal block only needs its absolute slope
    dominated, and unitary slopes have no floor at all.  Every denominator
    is positive, so k_i / n_i > k_j / n_j is compared as k_i n_j > k_j n_i;
    Fractions are built only for the error message.
    """
    if tail_kind not in shapes:
        raise InvalidPoint(
            f"a final block of size {comp[-1]} and label {labels[-1]} admits tail "
            f"{' or '.join(shapes)}, not {tail_kind!r}"
        )
    chain = list(zip(labels, comp))
    if family != UNITARY:
        if tail_kind == TAIL_ZERO:
            chain[-1] = floor
        elif family == SO_EVEN and comp[-1] == 1:
            chain[-1] = (abs(labels[-1]), 1)
        else:
            chain.append(floor)
    if not all(k * q > j * p for (k, p), (j, q) in zip(chain, chain[1:])):
        slopes = ", ".join(str(F(k, p)) for k, p in chain)
        raise InvalidPoint(f"block slopes must strictly decrease: {slopes}")


@dataclass(frozen=True)
class AtiyahBottPoint:
    """One stratum index: composition with labels and a tail marker.

    tail_kind is "zero_block" when the last block has label 0 and carries
    the flat tail of the family, "minus_last" for the even-orthogonal shape
    whose last chamber coordinate is negated, else "none".
    """

    family: str
    composition: tuple
    labels: tuple
    tail_kind: str = TAIL_NONE

    def __post_init__(self):
        comp, labels = self.composition, self.labels
        _check_blocks(comp, labels)
        shapes = _tail_shapes(self.family, comp[-1], labels[-1])
        _check_chamber(self.family, comp, labels, self.tail_kind, shapes)

    @property
    def is_split(self) -> bool:
        """A zero-tail orthogonal point meets both bundle classes."""
        return self.family in (SO_ODD, SO_EVEN) and self.tail_kind == TAIL_ZERO

    def chamber_vector(self) -> tuple:
        """mu as a vector of torus coordinates."""
        out = []
        for j, (p, k) in enumerate(zip(self.composition, self.labels)):
            s = F(k, p)
            if self.tail_kind == TAIL_MINUS and j == len(self.composition) - 1:
                out.extend([s] * (p - 1) + [-s])
            else:
                out.extend([s] * p)
        return tuple(out)

    def bundle_class(self) -> int | None:
        """w2 or degree of the bundle the point belongs to; None when split."""
        if self.family == UNITARY:
            return sum(self.labels)
        if self.family == SYMPLECTIC:
            return 0
        if self.is_split:
            return None
        return sum(self.labels) % 2

    def key(self):
        return (self.composition, self.labels, self.tail_kind)


@lru_cache(maxsize=None)
def _positive_root_terms(g: GroupSpec) -> tuple:
    """Each positive root of g as its nonzero (coordinate, integer coefficient) pairs."""
    return tuple(
        tuple((i, a) for i, a in enumerate(alpha) if a)
        for alpha in build_root_system(g).positive_roots
    )


def codim(g: GroupSpec, mu: AtiyahBottPoint, ell: int) -> int:
    """Complex codimension of the stratum of mu.

    With L the lcm of the block sizes, L * mu is an integer vector, so
    d_mu = (sum of the positive values a(L mu)) / L + #{a : a(mu) > 0} (ell - 1).
    """
    if ell < 1:
        raise InputError(f"need genus ell >= 1, got ell = {ell}")
    if mu.family != g.family or sum(mu.composition) != g.n:
        raise InvalidPoint("point does not belong to this group")
    scale = lcm(*mu.composition)
    v = []
    for p, k in zip(mu.composition, mu.labels):
        v.extend([scale // p * k] * p)
    if mu.tail_kind == TAIL_MINUS:
        v[-1] = -v[-1]
    positive_sum = positive_count = 0
    for terms in _positive_root_terms(g):
        val = 0
        for i, a in terms:
            val += a * v[i]
        if val > 0:
            positive_sum += val
            positive_count += 1
    total = positive_sum + positive_count * (ell - 1) * scale
    d, r = divmod(total, scale)
    if r or d < 0:
        raise ExactnessError(f"codimension {total}/{scale} for {mu}")
    return d


def _max_label_below(num: int, den: int, part: int) -> int:
    """Largest k with k/part strictly below the slope num/den (den > 0)."""
    return (num * part - 1) // den


def enumerate_ab_points(g: GroupSpec, c: int, ell: int, codim_bound: int):
    """All stratum indices of bundle class c with codimension <= the bound.

    Completeness of the slope windows: a unitary point has every block slope
    within codim_bound of the mean slope c/n (some pair of blocks straddles
    the mean and contributes at least their slope gap); for the other
    families block slopes are bounded by the codimension through the single
    and doubled roots.  Split (zero-tail) orthogonal points meet every
    bundle class and are always included.  An orthogonal point's w2 is the
    parity of its label sum, so its last label is tried only at the parity
    of c, or at 0 where that makes a zero tail; every leaf is then of
    class c, and only kept points are constructed.  Returns (point, codim)
    pairs sorted by codimension and then by the point data.

    Blocks are placed by decreasing slope, and the enumeration carries d,
    the exact codimension of the roots among the P placed coordinates
    (label sum S).  Appending the block (p, k) adds
    - unitary: p S - k P + p P (ell - 1), the theta_i - theta_j roots to
      the placed blocks, which is all of it;
    - otherwise: 2 p S + 2 p P (ell - 1) through theta_i +- theta_j to the
      placed blocks and, when k != 0, (p - 1)|k| + p (p - 1)/2 (ell - 1)
      through theta_i + theta_j inside the block, plus the singles
      k + p (ell - 1) (theta_i, odd orthogonal) or 2k + p (ell - 1)
      (2 theta_i, symplectic).
    Only the last block may have label 0 (other families) or go negative
    (a size-one even-orthogonal block), and a "minus_last" tail has the same
    codimension as "none", so one d serves every tail shape.  With P, S now
    counting the new block and r coordinates left, the roots between the
    two sides sum exactly to r S - P K + P r (ell - 1) for unitary groups,
    whose remaining labels sum to K = c - S and must sit below slope k/p
    (p K < r k), and to 2 r (S + P (ell - 1)) otherwise.  The roots among
    the remaining coordinates add >= 0, so a node is dropped once d plus
    the cross term exceeds the bound; both grow with k, which ends the
    label loop there.  Each kept point is checked against `codim`.
    """
    validate_topclass(g, c)
    if ell < 1:
        raise InputError(f"need genus ell >= 1, got ell = {ell}")
    fam, n = g.family, g.n
    unitary = fam == UNITARY
    # slope window [lo_num / den, hi_num / den)
    if unitary:
        den = n
        hi_num = c + n * (codim_bound + 1)
        lo_num = c - n * (codim_bound + 1)
    else:
        den, hi_num, lo_num = 1, codim_bound + 1, 0
    found = []

    def finish(comp, labels, d):
        for tail_kind in _tail_shapes(fam, comp[-1], labels[-1]):
            pt = AtiyahBottPoint(fam, tuple(comp), tuple(labels), tail_kind)
            if codim(g, pt, ell) != d:
                raise ExactnessError(f"codim({pt}) disagrees with the enumerated {d}")
            found.append((pt, d))

    def extend(comp, labels, size, total, d):
        # size, total: the P and S of the placed prefix; d: its codimension
        if size == n:
            finish(comp, labels, d)
            return
        for p in range(1, n - size + 1):
            r = n - size - p
            hi = _max_label_below(hi_num, den, p)
            if comp:
                hi = min(hi, _max_label_below(labels[-1], comp[-1], p))
            lo = -(-lo_num * p // den)
            if unitary and r:
                # the remaining labels c - total - k sit below slope k/p
                lo = max(lo, p * (c - total) // (r + p) + 1)
            elif unitary:
                # the last block takes the remaining label
                lo, hi = max(lo, c - total), min(hi, c - total)
            elif r:
                # only the last block may carry label 0
                lo = max(lo, 1)
            for k in range(lo, hi + 1):
                if (
                    not r
                    and fam in (SO_ODD, SO_EVEN)
                    and (total + k - c) % 2
                    and TAIL_ZERO not in _tail_shapes(fam, p, k)
                ):
                    # the last orthogonal label fixes w2 = (total + k) mod 2,
                    # except on a zero tail, which is split
                    continue
                if unitary:
                    inc = p * total - k * size + p * size * (ell - 1)
                    cross = r * (total + k) - (size + p) * (c - total - k)
                    cross += (size + p) * r * (ell - 1)
                else:
                    inc = 2 * p * (total + size * (ell - 1))
                    if k:
                        inc += (p - 1) * k + p * (p - 1) // 2 * (ell - 1)
                        if fam == SO_ODD:
                            inc += k + p * (ell - 1)
                        elif fam == SYMPLECTIC:
                            inc += 2 * k + p * (ell - 1)
                    cross = 2 * r * (total + k + (size + p) * (ell - 1))
                if d + inc + cross > codim_bound:
                    break
                if fam == SO_EVEN and not r and p == 1 and comp and k > 0:
                    # a size-one final even-orthogonal block may go negative
                    signs = (k, -k)
                else:
                    signs = (k,)
                for kk in signs:
                    extend(comp + [p], labels + [kk], size + p, total + kk, d + inc)

    extend([], [], 0, 0, 0)
    return sorted(found, key=lambda pd: (pd[1],) + pd[0].key())


def stratum_factors(g: GroupSpec, mu: AtiyahBottPoint, component: str | None = None) -> tuple:
    """The Levi factors of the stratum of mu as (family, n, class) triples.

    The stratum's series is the product of flat_series(GroupSpec(family, n),
    class, ell) over the triples.  Each block is a unitary factor whose
    degree is its label, with the family's sign convention (+k for unitary
    and symplectic groups, -k for orthogonal ones); a zero-tail block is
    instead the family's flat factor.  For split orthogonal points
    `component` picks the ambient bundle: "plus" for trivial w2, "minus"
    for the nontrivial one; the tail's own class is then
    w2 + k_1 + ... + k_{r-1} mod 2.
    """
    if mu.family != g.family or sum(mu.composition) != g.n:
        raise InvalidPoint("point does not belong to this group")
    fam, comp, labels = g.family, mu.composition, mu.labels
    unitary_signs = fam in (UNITARY, SYMPLECTIC)
    if unitary_signs and component is not None:
        raise InvalidPoint("only split orthogonal points take a component")
    if mu.is_split and component not in ("plus", "minus"):
        raise AmbiguousComponent("split point: pass component='plus' or 'minus'")
    if not mu.is_split and component is not None:
        raise AmbiguousComponent("unsplit point: no component to choose")
    sign = 1 if unitary_signs else -1
    blocks = tuple((UNITARY, p, sign * k) for p, k in zip(comp, labels))
    if mu.tail_kind != TAIL_ZERO:
        return blocks
    # the tail's own label is 0
    tail_class = 0 if fam == SYMPLECTIC else ((component == "minus") + sum(labels)) % 2
    return blocks[:-1] + ((fam, comp[-1], tail_class),)


def stratum_series(
    g: GroupSpec, mu: AtiyahBottPoint, ell: int, component: str | None = None
) -> RatFun:
    """Equivariant series of the stratum of mu: the product of its factors' flat series."""
    factors = tuple(
        flat_series(GroupSpec(fam, n), c, ell) for fam, n, c in stratum_factors(g, mu, component)
    )
    return signed_sum([(1, factors, 0, ())])


def stratum_row(pt: AtiyahBottPoint, d: int) -> dict:
    """The JSON row of the stratum of pt at codimension d."""
    return {
        "composition": list(pt.composition),
        "labels": list(pt.labels),
        "tail": pt.tail_kind,
        "codim": d,
    }


@dataclass(frozen=True)
class RecursionReport:
    group: GroupSpec
    topclass: int
    ell: int
    residual: CoeffVector
    strata: tuple  # ((point, codim), ...)

    @property
    def degree(self) -> int:
        return self.residual.order

    @property
    def holds(self) -> bool:
        return self.residual.is_zero

    @property
    def strata_used(self) -> int:
        return len(self.strata)

    def to_json(self) -> dict:
        return {
            "group": self.group.describe(),
            "topclass": self.topclass,
            "ell": self.ell,
            "degree": self.degree,
            "holds": self.holds,
            "strata_used": self.strata_used,
            "residual": list(self.residual.coeffs),
            "strata": [stratum_row(pt, d) for pt, d in self.strata],
        }


def verify_recursion(g: GroupSpec, c: int, ell: int, degree: int) -> RecursionReport:
    """Check the stratification identity for the bundle of class c.

    Left side: the gauge series of the bundle.  Right side: the sum of
    t^{2 d_mu} times each stratum's series over all points of class c with
    2 d_mu <= degree (for a split point, the single component living on
    this bundle).  Both sides are expanded to the requested order; the
    report carries the residual.  The right side is one
    exactalg.truncated_sum of the strata's products of flat series; the
    closed forms are cached, so equal factors are one object, which
    truncated_sum expands once.  The stratification presumes ell >= 2; a
    lower genus is computed all the same.
    """
    validate_topclass(g, c)
    lhs = series_expand(bg_orientable(betti_degrees(g), ell), degree)
    points = enumerate_ab_points(g, c, ell, degree // 2)
    component = "plus" if c % 2 == 0 else "minus"
    terms = []
    for pt, d in points:
        factors = stratum_factors(g, pt, component if pt.is_split else None)
        terms.append((2 * d, [flat_series(GroupSpec(fam, n), k, ell) for fam, n, k in factors]))
    rhs = truncated_sum(terms, degree)
    return RecursionReport(group=g, topclass=c, ell=ell, residual=lhs - rhs, strata=tuple(points))
