"""Exact univariate arithmetic in the formal variable t.

Everything downstream is a rational function of t with integer polynomial
numerator and denominator, so this module provides exactly three value types:

  Poly        dense polynomial with arbitrary-precision integer coefficients
  RatFun      normalized quotient of two Poly values
  CoeffVector truncated power-series coefficients of a RatFun

All values are immutable and all arithmetic is exact.  Long products use
Kronecker substitution: both operands are packed into one integer each and
multiplied once.

Rational functions have one arithmetic, signed_sum: RatFun's sum, product
and quotient are signed_sum terms.  Every denominator the package meets is
a product of cyclotomic polynomials Phi_d, so signed_sum sums over one
common denominator, kept as Phi_d multiplicities, and divides each Phi_d
out of the summed numerator while it divides; it needs no gcd.
cyclotomic_quotient builds a closed product from Phi_d multiplicities and
cancels them by subtraction.  Only the RatFun constructor takes a gcd, a
fraction-free subresultant gcd that keeps coefficient growth bounded
without leaving the integers, for values parsed or built by a caller and
for a signed_sum whose denominator has a non-cyclotomic factor.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import count
from math import gcd

from .errors import ExactnessError, InputError


class ZeroDenominator(InputError, ZeroDivisionError):
    """A rational function with denominator zero, built directly or by dividing by zero."""


class PoleAtZero(InputError):
    """Series expansion requested for a function with a pole at t = 0."""


class ParseError(InputError):
    """Malformed plain-text polynomial or rational function."""


class Poly:
    """Dense univariate polynomial over the integers.

    ``coeffs[i]`` is the coefficient of t**i; the top coefficient is nonzero
    unless the polynomial is zero (empty tuple).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "Poly":
        return Poly(())

    @staticmethod
    def one() -> "Poly":
        return Poly((1,))

    @staticmethod
    def const(c: int) -> "Poly":
        return Poly((c,))

    @staticmethod
    def t_power(e: int, c: int = 1) -> "Poly":
        """The monomial c * t**e."""
        if e < 0:
            raise ValueError("negative exponent")
        return Poly((0,) * e + (c,))

    # -- basic queries ------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial assigned -1."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    def __getitem__(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def content(self) -> int:
        """gcd of all coefficients (0 for the zero polynomial)."""
        g = 0
        for c in self.coeffs:
            g = gcd(g, c)
            if g == 1:
                break
        return g

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly(())
        if len(a) > _KRONECKER_MIN and len(b) > _KRONECKER_MIN:
            return Poly(_kronecker_mul(a, b))
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    if cb:
                        out[i + j] += ca * cb
        return Poly(out)

    def __pow__(self, e: int) -> "Poly":
        if e < 0:
            raise ValueError("negative exponent")
        result = Poly.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def scale(self, c: int) -> "Poly":
        return Poly(tuple(c * x for x in self.coeffs))

    def divexact(self, other: "Poly") -> "Poly":
        """Exact polynomial division; other must divide self exactly."""
        if other.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero:
            return self
        rem = list(self.coeffs)
        db, lead = other.degree, other.leading
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            raise ValueError("not an exact division")
        # the top slot of each step is never read again, so only the
        # nonzero coefficients below the leading one are subtracted
        lower = [(j, cb) for j, cb in enumerate(other.coeffs[:db]) if cb]
        out = [0] * (dq + 1)
        for k in range(dq, -1, -1):
            c = rem[k + db]
            if c:
                q, r = divmod(c, lead)
                if r:
                    raise ValueError("not an exact division")
                out[k] = q
                for j, cb in lower:
                    rem[k + j] -= q * cb
        if any(rem[:db]):
            raise ValueError("not an exact division")
        return Poly(out)

    def divexact_int(self, c: int) -> "Poly":
        return Poly(tuple(x // c for x in self.coeffs))

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(("Poly", self.coeffs))

    def __repr__(self):
        return f"Poly({render_poly(self)!r})"


# Poly.__mul__ switches from schoolbook to Kronecker substitution once both
# operands have more terms than this.
_KRONECKER_MIN = 16


def _slot_bias(slots: int, width: int) -> int:
    """2**(8*width - 1) in each of `slots` slots of `width` bytes."""
    return int.from_bytes((1 << (8 * width - 1)).to_bytes(width, "little") * slots, "little")


def _kronecker_pack(cs, width: int) -> int:
    """sum cs[i] * 2**(8*width*i), each |cs[i]| < 2**(8*width - 1)."""
    half = 1 << (8 * width - 1)
    packed = b"".join((c + half).to_bytes(width, "little") for c in cs)
    return int.from_bytes(packed, "little") - _slot_bias(len(cs), width)


def _kronecker_mul(a: tuple, b: tuple) -> list:
    """Coefficients of a * b by Kronecker substitution t = 2**(8*width).

    No coefficient of the product exceeds min(len)*max|a|*max|b| in size;
    the slot width leaves one bit above that for the sign.  Adding half a
    slot to every slot of the product makes each slot a nonnegative digit,
    so the bytes of the sum are the slots, read back with the half removed.
    """
    bound = min(len(a), len(b)) * max(map(abs, a)) * max(map(abs, b))
    width = (bound.bit_length() + 8) // 8
    slots = len(a) + len(b) - 1
    product = _kronecker_pack(a, width) * _kronecker_pack(b, width)
    data = (product + _slot_bias(slots, width)).to_bytes(slots * width, "little")
    half = 1 << (8 * width - 1)
    slot = range(0, len(data), width)
    return [int.from_bytes(data[i : i + width], "little") - half for i in slot]


def _pseudo_rem(a: Poly, b: Poly) -> Poly:
    """Pseudo-remainder of a by b: lc(b)**(deg a - deg b + 1) * a mod b."""
    rem = list(a.coeffs)
    db, lb = b.degree, b.leading
    e = a.degree - db + 1
    while len(rem) - 1 >= db and any(rem):
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) - 1 < db:
            break
        lead = rem[-1]
        rem = [lb * c for c in rem]
        k = len(rem) - 1 - db
        for j, cb in enumerate(b.coeffs):
            rem[k + j] -= lead * cb
        rem.pop()
        e -= 1
    scale = lb ** max(e, 0)
    return Poly([scale * c for c in rem])


def _sign_normalize(p: Poly) -> Poly:
    return -p if p.leading < 0 else p


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Primitive gcd with positive leading coefficient.

    Subresultant remainder sequence on the primitive parts; the integer
    contents are folded back in at the end.
    """
    if a.is_zero:
        return _sign_normalize(b)
    if b.is_zero:
        return _sign_normalize(a)
    ca, cb = a.content(), b.content()
    c = gcd(ca, cb)
    A, B = a.divexact_int(ca), b.divexact_int(cb)
    if A.degree < B.degree:
        A, B = B, A
    g, h = 1, 1
    while True:
        d = A.degree - B.degree
        R = _pseudo_rem(A, B)
        if R.is_zero:
            break
        if R.degree == 0:
            return Poly.const(c)
        A, B = B, R.divexact_int(g * h**d)
        g = A.leading
        if d >= 1:
            h = g**d // h ** (d - 1)
        # d == 0 only on the first step when degrees tie; h stays 1 then
    prim = B.divexact_int(B.content())
    return _sign_normalize(prim).scale(c)


class RatFun:
    """Quotient of two integer polynomials, kept in canonical form.

    Invariants: den is nonzero and its lowest-order nonzero coefficient is
    positive (monomials are written in increasing degree, so this is the
    leading coefficient of the displayed form), the polynomial gcd of num
    and den is 1, and gcd(content(num), content(den)) is 1.  Equal functions
    therefore have identical representations.  The constructor cancels
    with poly_gcd; +, -, * and / go through signed_sum, which needs none
    on cyclotomic denominators.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly = Poly((1,)), _normalized=False):
        if den.is_zero:
            raise ZeroDenominator("denominator is the zero polynomial")
        if not _normalized:
            if num.is_zero:
                den = Poly.one()
            else:
                g = poly_gcd(num, den)
                if g.degree > 0 or g.leading != 1:
                    num = num.divexact(g)
                    den = den.divexact(g)
                c = gcd(num.content(), den.content())
                if c > 1:
                    num = num.divexact_int(c)
                    den = den.divexact_int(c)
                if next(c for c in den.coeffs if c != 0) < 0:
                    num, den = -num, -den
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RatFun is immutable")

    @staticmethod
    def zero() -> "RatFun":
        return RatFun(Poly.zero(), Poly.one(), _normalized=True)

    @staticmethod
    def one() -> "RatFun":
        return RatFun(Poly.one(), Poly.one(), _normalized=True)

    @staticmethod
    def t_power(e: int) -> "RatFun":
        return RatFun(Poly.t_power(e), Poly.one(), _normalized=True)

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __add__(self, other: "RatFun") -> "RatFun":
        return signed_sum(((1, self, 0, ()), (1, other, 0, ())))

    def __neg__(self) -> "RatFun":
        return RatFun(-self.num, self.den, _normalized=True)

    def __sub__(self, other: "RatFun") -> "RatFun":
        return self + (-other)

    def __mul__(self, other: "RatFun") -> "RatFun":
        return signed_sum(((1, (self, other), 0, ()),))

    def __truediv__(self, other: "RatFun") -> "RatFun":
        if other.is_zero:
            raise ZeroDenominator("division by the zero function")
        # swapping a canonical pair keeps it canonical up to the sign
        num, den = other.den, other.num
        if next(c for c in den.coeffs if c) < 0:
            num, den = -num, -den
        return self * RatFun(num, den, _normalized=True)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatFun):
            return NotImplemented
        # canonical form makes structural comparison sufficient
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash(("RatFun", self.num.coeffs, self.den.coeffs))

    def __repr__(self):
        return f"RatFun({render_ratfun(self)!r})"


@dataclass(frozen=True)
class CoeffVector:
    """Power-series coefficients of a RatFun modulo t**(order+1)."""

    order: int
    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) != self.order + 1:
            raise ValueError("coefficient list must have length order + 1")

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __add__(self, other: "CoeffVector") -> "CoeffVector":
        if self.order != other.order:
            raise ValueError("order mismatch")
        return CoeffVector(self.order, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "CoeffVector") -> "CoeffVector":
        if self.order != other.order:
            raise ValueError("order mismatch")
        return CoeffVector(self.order, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))


# -- spec-level operations ---------------------------------------------


def ratfun_eq(f: RatFun, g: RatFun) -> bool:
    """Equality as rational functions: num(f)*den(g) == num(g)*den(f)."""
    if f.num == g.num and f.den == g.den:
        return True
    return f.num * g.den == g.num * f.den


def series_expand(f: RatFun, order: int) -> CoeffVector:
    """Coefficients of the power series of f at t = 0, through t**order.

    The denominator must not vanish at 0.  The recurrence runs on integers:
    each coefficient is an exact quotient by den(0).  Every series of the
    package is a Poincare series, so a nonzero remainder (a fractional
    coefficient) is a transcription fault upstream and raises ExactnessError
    instead of being rounded.
    """
    if order < 0:
        raise InputError("order must be nonnegative")
    den = f.den
    d0 = den[0]
    if d0 == 0:
        raise PoleAtZero("denominator vanishes at t = 0")
    num, dc = f.num.coeffs, den.coeffs
    out = []
    for k in range(order + 1):
        # every earlier coefficient is an integer, so acc is one too
        acc = num[k] if k < len(num) else 0
        for j in range(1, min(k, len(dc) - 1) + 1):
            acc -= dc[j] * out[k - j]
        bk, rem = divmod(acc, d0)
        if rem:
            raise ExactnessError(f"coefficient of t^{k} is {Fraction(acc, d0)}")
        out.append(bk)
    return CoeffVector(order, tuple(out))


def series_nonnegative(f: RatFun, order: int) -> bool:
    """True when all series coefficients through t**order are >= 0."""
    return all(c >= 0 for c in series_expand(f, order).coeffs)


# -- rendering and parsing ----------------------------------------------


def _render_term(c: int, d: int, sep: str = "*", caret: str = "^", brace: bool = False) -> str:
    e = f"{{{d}}}" if brace else f"{d}"
    if d == 0:
        return str(c)
    tpart = "t" if d == 1 else f"t{caret}{e}"
    if c == 1:
        return tpart
    if c == -1:
        return "-" + tpart
    return f"{c}{sep}{tpart}"


def _render_poly(p: Poly, sep: str, caret: str, brace: bool) -> str:
    if p.is_zero:
        return "0"
    parts = []
    for d, c in enumerate(p.coeffs):
        if c == 0:
            continue
        term = _render_term(c, d, sep, caret, brace)
        if not parts:
            parts.append(term)
        elif term.startswith("-"):
            parts.append("- " + term[1:])
        else:
            parts.append("+ " + term)
    return " ".join(parts)


def render_poly(p: Poly) -> str:
    """Canonical plain text, monomials in increasing degree."""
    return _render_poly(p, "*", "^", brace=False)


def render_ratfun(f: RatFun) -> str:
    return f"({render_poly(f.num)})/({render_poly(f.den)})"


def latex_poly(p: Poly) -> str:
    return _render_poly(p, "", "^", brace=True)


def latex_ratfun(f: RatFun) -> str:
    if f.den == Poly.one():
        return latex_poly(f.num)
    return f"\\frac{{{latex_poly(f.num)}}}{{{latex_poly(f.den)}}}"


def parse_poly(text: str) -> Poly:
    """Parse the canonical plain-text polynomial form."""
    s = text.replace(" ", "")
    if not s:
        raise ParseError("empty polynomial")
    if s == "0":
        return Poly.zero()
    # split into signed terms
    terms = []
    cur = ""
    for i, ch in enumerate(s):
        if ch in "+-" and i > 0 and s[i - 1] not in "+-*^":
            terms.append(cur)
            cur = ch
        else:
            cur += ch
    terms.append(cur)
    coeffs: dict[int, int] = {}
    for term in terms:
        if not term or term in "+-":
            raise ParseError(f"bad term in {text!r}")
        sign = 1
        body = term
        while body and body[0] in "+-":
            if body[0] == "-":
                sign = -sign
            body = body[1:]
        if "t" not in body:
            try:
                c, d = sign * int(body), 0
            except ValueError as exc:
                raise ParseError(f"bad constant {term!r}") from exc
        else:
            head, _, tail = body.partition("t")
            if head.endswith("*"):
                head = head[:-1]
            try:
                c = sign * (int(head) if head else 1)
            except ValueError as exc:
                raise ParseError(f"bad coefficient {term!r}") from exc
            if tail == "":
                d = 1
            elif tail.startswith("^"):
                try:
                    d = int(tail[1:])
                except ValueError as exc:
                    raise ParseError(f"bad exponent {term!r}") from exc
            else:
                raise ParseError(f"bad term {term!r}")
        coeffs[d] = coeffs.get(d, 0) + c
    out = [0] * (max(coeffs) + 1)
    for d, c in coeffs.items():
        out[d] = c
    return Poly(out)


def parse_ratfun(text: str) -> RatFun:
    """Parse the canonical "(num)/(den)" form; a bare polynomial also works."""
    s = text.strip()
    if s.startswith("(") and ")/(" in s and s.endswith(")"):
        i = s.index(")/(")
        num, den = s[1:i], s[i + 3 : -1]
        return RatFun(parse_poly(num), parse_poly(den))
    return RatFun(parse_poly(s))


def ratfun_to_json(f: RatFun) -> dict:
    return {"num": list(f.num.coeffs), "den": list(f.den.coeffs)}


# -- cyclotomic products and the alternating-sum accumulator ------------


def one_minus_t(e: int) -> Poly:
    """1 - t**e."""
    return Poly.one() - Poly.t_power(e)


@lru_cache(maxsize=None)
def _divisors(k: int) -> tuple:
    """The positive divisors of k, ascending."""
    return tuple(d for d in range(1, k + 1) if k % d == 0)


@lru_cache(maxsize=None)
def _plus_divisors(a: int) -> tuple:
    """The d with 1 + t**a = prod Phi_d: the divisors of 2a that do not divide a.

    1 + t**a = (1 - t**(2a)) / (1 - t**a), and 1 - t**k is the product of
    Phi_d over the divisors d of k.
    """
    return tuple(d for d in _divisors(2 * a) if a % d)


@lru_cache(maxsize=None)
def _cyclotomic(d: int) -> Poly:
    """Phi_d normalised to constant term 1, so Phi_1 = 1 - t.

    Built by exact division of 1 - t**d by Phi_e over the proper divisors e
    of d; hence the product of Phi_e over all divisors e of n is 1 - t**n.
    """
    phi = one_minus_t(d)
    for e in _divisors(d)[:-1]:
        phi = phi.divexact(_cyclotomic(e))
    return phi


def _phi_divides(p: Poly, d: int) -> bool:
    """Whether Phi_d divides p.

    Phi_d divides t**d - 1, so it divides p exactly when it divides p
    reduced mod t**d - 1, whose coefficients are p's summed by index mod d.
    """
    cs = p.coeffs
    folded = Poly([sum(cs[i::d]) for i in range(min(d, len(cs)))])
    try:
        folded.divexact(_cyclotomic(d))
    except ValueError:
        return False
    return True


@lru_cache(maxsize=None)
def _totient(d: int) -> int:
    """Euler's phi(d), the degree of Phi_d."""
    phi, rest, p = d, d, 2
    while p * p <= rest:
        if rest % p == 0:
            while rest % p == 0:
                rest //= p
            phi -= phi // p
        p += 1
    if rest > 1:
        phi -= phi // rest
    return phi


@lru_cache(maxsize=None)
def _den_factors(den: Poly) -> tuple:
    """den as (key, multiplicity) pairs, found by trial division.

    An int key d stands for Phi_d.  Every Phi_d dividing den is found: the
    trial divisors run over the d with phi(d) <= deg of what is left, and
    phi(d) >= sqrt(d/2) bounds those d.  Whatever the cyclotomic factors
    leave over other than 1 is one opaque Poly key, so the product of the
    pairs is den whatever den is.
    """
    mult = {}
    rest = den
    d = 1
    while d <= 2 * rest.degree**2:
        if _totient(d) <= rest.degree:
            while _phi_divides(rest, d):
                rest = rest.divexact(_cyclotomic(d))
                mult[d] = mult.get(d, 0) + 1
        d += 1
    if rest != Poly.one():
        mult[rest] = 1
    return tuple(mult.items())


def _expand(mult: dict) -> Poly:
    """The product of a {key: multiplicity} map of _den_factors keys.

    The factors are multiplied as a balanced tree, the two smallest first,
    so that the long products reach the Kronecker path of Poly.__mul__.
    """
    tiebreak = count()
    heap = []
    for key, m in mult.items():
        poly = _cyclotomic(key) if isinstance(key, int) else key
        heap.extend((poly.degree, next(tiebreak), poly) for _ in range(m))
    if not heap:
        return Poly.one()
    heapq.heapify(heap)
    while len(heap) > 1:
        a = heapq.heappop(heap)[2]
        b = heapq.heappop(heap)[2]
        product = a * b
        heapq.heappush(heap, (product.degree, next(tiebreak), product))
    return heap[0][2]


def _cyclotomic_ratfun(num: Poly, den: dict) -> RatFun:
    """num / prod Phi_d**den[d] in canonical form, without a gcd.

    The caller guarantees that num is nonzero and that no Phi_d with
    den[d] > 0 divides num.  The result then meets every RatFun invariant:
    each Phi_d is irreducible over Q, so num and the denominator have no
    common factor; each Phi_d is primitive with constant term 1, so by
    Gauss's lemma the denominator has content 1 and a positive lowest
    coefficient.  The canonical form is unique, so this is exactly what
    RatFun(num, den) builds with its gcd.
    """
    return RatFun(num, _expand(den), _normalized=True)


def cyclotomic_quotient(plus, minus, shift: int = 0) -> RatFun:
    """t**shift * prod (1 + t**a)**m / prod (1 - t**b)**m, canonical, without a gcd.

    plus holds the (a, m) pairs of the numerator and minus the (b, m)
    pairs of the denominator, all exponents positive.  Both sides are
    products of cyclotomic polynomials: 1 + t**a of Phi_d over
    _plus_divisors(a) and 1 - t**b of Phi_d over the divisors of b.  The
    multiplicities cancel by subtraction, and what is left is expanded.
    """
    num = {}
    den = {}
    for a, m in plus:
        for d in _plus_divisors(a):
            num[d] = num.get(d, 0) + m
    for b, m in minus:
        for d in _divisors(b):
            den[d] = den.get(d, 0) + m
    for d in num.keys() & den.keys():
        common = min(num[d], den[d])
        num[d] -= common
        den[d] -= common
    return _cyclotomic_ratfun(Poly.t_power(shift) * _expand(num), den)


def _sum_over_common(parts) -> tuple:
    """(numerator, denominator map) of the sum of the (sign, num, e, mult) parts.

    The denominator map takes the largest multiplicity of each key.  The
    parts are summed pairwise as a balanced tree, so each numerator is
    multiplied by the cofactor of its half's denominator, which stays small
    until the last levels.
    """
    if len(parts) == 1:
        sign, num, e, mult = parts[0]
        return Poly((0,) * e + tuple(sign * c for c in num.coeffs)), mult
    half = len(parts) // 2
    left, lmult = _sum_over_common(parts[:half])
    right, rmult = _sum_over_common(parts[half:])
    common = {key: max(lmult.get(key, 0), rmult.get(key, 0)) for key in lmult | rmult}
    left = left * _expand({key: m - lmult.get(key, 0) for key, m in common.items()})
    right = right * _expand({key: m - rmult.get(key, 0) for key, m in common.items()})
    return left + right, common


def signed_sum(terms) -> RatFun:
    """Sum of sign * factor * t**e / prod_{k in ks} (1 - t**k) over the terms.

    Each term is a tuple (sign, factor, e, ks) with sign an integer (+1 or
    -1 in every alternating series, any integer multiplier otherwise),
    factor a RatFun or a tuple of RatFuns standing for their product, e a
    natural number and ks an iterable of positive exponents; a repeated k
    contributes its factor once per occurrence.  Every alternating series,
    and every RatFun sum, product and quotient, goes through here.

    The sum is taken over one common denominator.  Each term's denominator
    is kept as a map {d: multiplicity} of the cyclotomic factors Phi_d: those
    of each factor's den, found by trial division (any non-cyclotomic
    remainder is one opaque factor) and added over a product's factors,
    whose numerators multiply, and Phi_d for every divisor d of each k, since
    1 - t**k is the product of those.  The common denominator takes the
    largest multiplicity of each factor, and the numerators are summed over
    it pairwise (_sum_over_common).  Each Phi_d is then divided out of the
    summed numerator while it divides and its multiplicity stays positive,
    which leaves the canonical quotient with no gcd.  A zero sum, or a
    common denominator with an opaque factor, is handed to the RatFun
    constructor instead.
    """
    parts = []
    for sign, factor, e, ks in terms:
        if e < 0:
            raise ValueError("negative exponent")
        if isinstance(factor, RatFun):
            num = factor.num
            mult = dict(_den_factors(factor.den))
        else:
            num, mult = Poly.one(), {}
            for f in factor:
                num = num * f.num
                for key, m in _den_factors(f.den):
                    mult[key] = mult.get(key, 0) + m
        for k in ks:
            if k < 1:
                raise ValueError(f"denominator exponent {k} is not positive")
            for d in _divisors(k):
                mult[d] = mult.get(d, 0) + 1
        if not num.is_zero:
            parts.append((sign, num, e, mult))
    total, common = _sum_over_common(parts) if parts else (Poly.zero(), {})
    if total.is_zero or not all(isinstance(key, int) for key in common):
        return RatFun(total, _expand(common))
    for d, m in common.items():
        while m and _phi_divides(total, d):
            total = total.divexact(_cyclotomic(d))
            m -= 1
        common[d] = m
    return _cyclotomic_ratfun(total, common)
