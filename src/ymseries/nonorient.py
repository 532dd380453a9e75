"""Combinatorics of Yang-Mills strata over nonorientable surfaces.

Pulling a connection back to the orientable double cover turns the deck
transformation into an involution tau on the fundamental Weyl chamber; the
strata of the nonorientable functional are indexed by tau-fixed chamber
vectors subject to family-specific integrality.  This module implements
tau, enumerates the index sets of Yang-Mills types, and classifies each
point's connected components: how many there are, which bundle (through
the second Stiefel-Whitney class) each lives on, and the ordered list of
twisted-variety factors its reduced representation variety splits into.

The point rules (tail shapes, strictly decreasing slopes down to the
family's floor, and the InvalidPoint error) are shared with `strata`, and
a point stores the shape of its last block as an AtiyahBottPoint does, as
one strata.TAIL_* tail kind.  The nonorientable index set only moves the
symplectic floor to slope 1/2 and forces a zero tail, of any size, on
odd-rank even-orthogonal points.  The enumeration bounds each label by
those same rules, so it builds only the points it returns; the point
constructor still checks each of them.

No numeric series are attached to the twisted factors; the reports are
structural, to be filled by a series provider if one ever exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError
from .rootsys import (
    SO_EVEN,
    SO_ODD,
    SYMPLECTIC,
    UNITARY,
    GroupSpec,
    UnsupportedFamily,
)
from .strata import (
    TAIL_MINUS,
    TAIL_NONE,
    TAIL_ZERO,
    InvalidPoint,
    _check_blocks,
    _check_chamber,
    _max_label_below,
    _tail_shapes,
)

F = Fraction


def _final_shapes(family: str, n: int, size: int, label: int) -> tuple:
    """The tail kinds a final block admits on the nonorientable index set."""
    if family == SO_EVEN and n % 2 == 1:
        # only tau-fixed vectors end in 0: the zero tail is mandatory, of any size
        return (TAIL_ZERO,)
    return _tail_shapes(family, size, label)


def chamber_involution(g: GroupSpec, mu) -> tuple:
    """The involution tau on chamber vectors.

    Unitary chambers reverse and negate; odd-orthogonal and symplectic
    chambers are pointwise fixed; the even-orthogonal chamber flips the
    sign of the last coordinate exactly when n is odd.
    """
    v = tuple(F(x) for x in mu)
    if len(v) != g.n:
        raise InputError(f"chamber vector must have length {g.n}")
    fam = g.family
    if fam == UNITARY:
        return tuple(-x for x in reversed(v))
    if fam in (SO_ODD, SYMPLECTIC):
        return v
    if fam == SO_EVEN:
        if g.n % 2 == 1:
            return v[:-1] + (-v[-1],)
        return v
    raise UnsupportedFamily(f"the chamber involution is not defined for family {fam!r}")


@dataclass(frozen=True)
class NonorientablePoint:
    """Index of a nonorientable Yang-Mills stratum.

    Block j of size n_j carries the integer label k_j; the chamber value of
    the block is 2 k_j / n_j - 1 for symplectic groups and 2 k_j / n_j for
    orthogonal ones.  tail_kind is the shape of the final block, one of the
    strata.TAIL_* values as on an AtiyahBottPoint: TAIL_ZERO for a block
    sitting at chamber value 0 (its label is stored as 0), TAIL_MINUS for
    the even-orthogonal shape whose last coordinate is negated, and
    TAIL_NONE otherwise.
    """

    family: str
    composition: tuple
    labels: tuple
    surface_i: int
    tail_kind: str = TAIL_NONE

    def __post_init__(self):
        if self.surface_i not in (1, 2):
            raise InvalidPoint("surface_i must be 1 or 2")
        comp, labels, fam = self.composition, self.labels, self.family
        _check_blocks(comp, labels)
        if self.tail_kind == TAIL_ZERO and labels[-1] != 0:
            raise InvalidPoint("a zero tail stores label 0")
        if fam not in (SYMPLECTIC, SO_ODD, SO_EVEN):
            raise UnsupportedFamily(f"nonorientable points are not defined for family {fam!r}")
        shapes = _final_shapes(fam, sum(comp), comp[-1], labels[-1])
        # symplectic chamber values 2 k_j / n_j - 1 must stay positive
        floor = (1, 2) if fam == SYMPLECTIC else (0, 1)
        _check_chamber(fam, comp, labels, self.tail_kind, shapes, floor)

    def chamber_vector(self) -> tuple:
        """The tau-fixed chamber vector the point indexes."""
        fam, tail = self.family, self.tail_kind
        out = []
        last = len(self.composition) - 1
        for j, (p, k) in enumerate(zip(self.composition, self.labels)):
            if fam == SYMPLECTIC:
                val = F(2 * k, p) - 1 if not (tail == TAIL_ZERO and j == last) else F(0)
            else:
                val = F(2 * k, p)
            if tail == TAIL_MINUS and j == last:
                out.extend([val] * (p - 1) + [-val])
            else:
                out.extend([val] * p)
        return tuple(out)


@dataclass(frozen=True)
class TwistedU:
    """Conjugation-twisted unitary representation variety factor."""

    n: int
    k: int

    def render(self) -> str:
        return f"M~(l,i;{self.n},{self.k})"

    def to_json(self) -> dict:
        return {"kind": "twisted_u", "n": self.n, "k": self.k}


@dataclass(frozen=True)
class TwistedO:
    """Determinant-twisted orthogonal factor with its component sign."""

    size: int  # the m of O(m)
    det: int  # +1 or -1: determinant constraint on the twisting element
    sign: int  # +1 or -1: which obstruction component

    def render(self) -> str:
        d = "+" if self.det == 1 else "-"
        s = "+" if self.sign == 1 else "-"
        return f"VO(l,i;{self.size};det{d};comp{s})"

    def to_json(self) -> dict:
        return {"kind": "twisted_o", "size": self.size, "det": self.det, "sign": self.sign}


@dataclass(frozen=True)
class FlatSp:
    """Flat symplectic tail factor."""

    n: int

    def render(self) -> str:
        return f"M(Sp({self.n}))"

    def to_json(self) -> dict:
        return {"kind": "flat_sp", "n": self.n}


@dataclass(frozen=True)
class Component:
    w2: int | None  # Stiefel-Whitney bit; None where pi_1 is trivial
    factors: tuple


@dataclass(frozen=True)
class ComponentReport:
    point: NonorientablePoint
    components: tuple
    validity: dict

    @property
    def component_count(self) -> int:
        return len(self.components)

    def to_json(self) -> dict:
        return {
            "group": self._group_name(),
            "point": {
                "composition": list(self.point.composition),
                "labels": list(self.point.labels),
                "zero_tail": self.point.tail_kind == TAIL_ZERO,
                "minus_last": self.point.tail_kind == TAIL_MINUS,
            },
            "surface_i": self.point.surface_i,
            "components": [
                {"w2": comp.w2, "factors": [f.to_json() for f in comp.factors]}
                for comp in self.components
            ],
            "validity": dict(self.validity),
        }

    def _group_name(self) -> str:
        n = sum(self.point.composition)
        fam = self.point.family
        return GroupSpec(fam, n).describe()


def enumerate_nonorientable_points(g: GroupSpec, i: int, bound: int):
    """All index-set points of g over the surface type i with |k_j| <= bound.

    Blocks are placed by decreasing slope, and every label is bounded by
    the chamber rule the point constructor enforces, so each returned point
    is built once and no other point is built:
    - a block before the last lies strictly above the family's floor:
      k/p > 1/2 for symplectic groups, k/p > 0 for orthogonal ones;
    - the last block takes label 0, a label above the floor or, as a
      size-one even-orthogonal block, any label of absolute slope below the
      previous block's; its tail kinds are those _tail_shapes admits, but
      an odd-rank even-orthogonal point takes only its mandatory zero tail
      (label 0, of any size).
    The constructor still checks every point.
    """
    if i not in (1, 2):
        raise InputError("i must be 1 or 2")
    fam, n = g.family, g.n
    if fam not in (SYMPLECTIC, SO_ODD, SO_EVEN):
        raise UnsupportedFamily(f"nonorientable strata are not defined for family {fam!r}")
    found = []

    def least_above_floor(part):
        return part // 2 + 1 if fam == SYMPLECTIC else 1

    def final_labels(part, hi):
        if hi < 0:
            return ()
        if fam == SO_EVEN and n % 2 == 1:
            return (0,)
        if fam == SO_EVEN and part == 1:
            return range(-hi, hi + 1)
        return (0, *range(least_above_floor(part), hi + 1))

    def extend(comp, labels, remaining):
        for part in range(1, remaining + 1):
            hi = min(bound, _max_label_below(labels[-1], comp[-1], part)) if comp else bound
            if part < remaining:
                for k in range(least_above_floor(part), hi + 1):
                    extend(comp + (part,), labels + (k,), remaining - part)
                continue
            for k in final_labels(part, hi):
                for tail_kind in _final_shapes(fam, n, part, k):
                    found.append(NonorientablePoint(fam, comp + (part,), labels + (k,), i, tail_kind))

    extend((), (), n)
    return sorted(found, key=lambda p: (
        len(p.composition), p.composition, p.labels,
        p.tail_kind == TAIL_MINUS, p.tail_kind == TAIL_ZERO,
    ))


def classify_components(g: GroupSpec, p: NonorientablePoint) -> ComponentReport:
    """Component count, bundle classes, and twisted factors of one stratum.

    Connectivity of the individual factors holds for ell >= 2i (and the
    orthogonal factor splits into its two signed parts for ell >= 2 and
    size > 2); these thresholds are recorded in the validity block rather
    than enforced.
    """
    if p.family != g.family or sum(p.composition) != g.n:
        raise InvalidPoint("point does not belong to this group")
    fam, n, i = g.family, g.n, p.surface_i
    comp, labels = p.composition, p.labels
    validity = {"l_min": 2 * i}
    if fam == SYMPLECTIC:
        if p.tail_kind == TAIL_ZERO:
            factors = [TwistedU(a, k) for a, k in zip(comp[:-1], labels[:-1])]
            factors.append(FlatSp(comp[-1]))
        else:
            factors = [TwistedU(a, k) for a, k in zip(comp, labels)]
        return ComponentReport(p, (Component(None, tuple(factors)),), validity)
    # orthogonal: a split point carries the tail's O(size) factor in two signed parts
    m, head = comp[-1], sum(labels[:-1])
    if fam == SO_ODD and p.tail_kind == TAIL_ZERO:
        split = (2 * m + 1, (-1) ** (n - m), head + i * (n - m) * (n - m - 1) // 2)
    elif fam == SO_EVEN and n % 2 == 1:
        split = (2 * m, (-1) ** (m - 1), head + i * (n // 2) + i * m * (m - 1) // 2)
    elif fam == SO_EVEN and p.tail_kind == TAIL_ZERO:
        split = (2 * m, (-1) ** m, head + i * (n // 2) + i * m * (m + 1) // 2)
    else:
        offset = n * (n + 1) // 2 if fam == SO_ODD else n // 2
        w2 = (sum(labels) + i * offset) % 2
        factors = tuple(TwistedU(a, -k) for a, k in zip(comp, labels))
        return ComponentReport(p, (Component(w2, factors),), validity)
    size, det, exponent = split
    body = tuple(TwistedU(a, -k) for a, k in zip(comp[:-1], labels[:-1]))
    comps = tuple(
        Component(w2, body + (TwistedO(size, det, outer * (-1) ** exponent),))
        for w2, outer in ((0, 1), (1, -1))
    )
    return ComponentReport(p, comps, validity)


def decomposition_render(report: ComponentReport) -> str:
    """Human-readable product decomposition, one line per component."""
    lines = []
    for comp in report.components:
        body = " x ".join(f.render() for f in comp.factors) if comp.factors else "(point)"
        if report.component_count == 2:
            tag = "+" if comp.w2 == 0 else "-"
            lines.append(f"{tag}: {body}")
        else:
            lines.append(body)
    return "\n".join(lines)
