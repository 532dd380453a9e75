"""Exact univariate arithmetic in the formal variable t.

Everything downstream is a rational function of t with integer polynomial
numerator and a denominator that is a product of cyclotomic polynomials
Phi_d, so this module provides exactly three value types:

  Poly        dense polynomial with arbitrary-precision integer coefficients
  RatFun      numerator over a product of Phi_d, kept as its multiplicities
  CoeffVector truncated power-series coefficients of a RatFun

All values are immutable and all arithmetic is exact, and each stores
one fact once: a CoeffVector's order is its length less one.  Every
product uses Kronecker substitution: a polynomial is packed into one
integer, its value at t = 2**(8*width), with each coefficient in a
width-byte slot.  The evaluation is a ring map, so products and sums of
packed values are packed products and sums; a result unpacks when each of
its coefficients fits a signed slot.  _pack and _unpack are the one pair of helpers for it.

A RatFun has one canonical form: its numerator with every Phi_d of the
denominator divided out while it divides.  Each Phi_d is irreducible and
primitive with constant term 1, so by Gauss's lemma this is the reduced
quotient whose denominator is primitive with constant term 1, and equal
functions have equal numerators and Phi_d maps.  Values built here carry
the map they are built from; the public constructor finds it by trial
division, one _cancel of the denominator by every Phi_d it could hold, and
refuses any other denominator.

Rational functions have one arithmetic, signed_sum: RatFun's sum, product
and quotient are signed_sum terms, and a RatFun's expanded denominator is
built only when it is read.  signed_sum sums over one common denominator,
kept as Phi_d multiplicities, and divides each Phi_d out of the summed
numerator while it divides.  The sum runs over a balanced tree of packed
integers, the terms sorted by exponent and each distinct numerator packed
once; a node holds its sum divided by its lowest power of t, so cofactor
products never run over zero slots, and the root is unpacked once and
its power of t put back after the division.  The slot width comes from
a bound on every coefficient of the summed numerator: since |ab|_inf <=
|a|_1 |b|_inf, term i adds at most |sign_i| |num_i|_1 times the l1 norms
of its cofactor's factors.  Divisions go by binomial strides: dividing
by 1 - t**e is a running sum along the residues mod e whose nonzero
top-e tail means it does not divide.  Wherever every Phi_d of some
1 - t**e = prod_{d | e} Phi_d is still in the denominator, that whole
stride is divided out in one pass.  A single Phi_d goes by the Mobius
rule Phi_d = prod_{e | d} (1 - t**e)**mu(d/e): the numerator is
multiplied by each 1 - t**e with mu = -1 and then divided by each with
mu = +1.  A division is tried only when the divisor's value at t = 2
divides the numerator's, which Gauss's lemma requires of a factor in
Z[t]; the numerator's value is carried through each quotient.  A stride
1 - t**e is tried only when the numerator's coefficients sum to 0, since
Phi_1 divides it.  The Mobius rule builds Phi_d and gives Phi_d(2)
without building it.  cyclotomic_quotient builds a closed product from
Phi_d multiplicities and cancels them by subtraction, and every product of
Phi_d is one packed product.  series_expand nets the Mobius rule over
the Phi_d map into a count per stride 1 - t**e and runs one truncated
pass per stride, a shifted subtraction or a running sum.  truncated_sum
adds truncated products of rational functions on one packed integer: it
expands each distinct factor once and cuts each product by a centred
remainder.  parse_poly, the reader of the canonical text form, matches one
term pattern at a time and refuses a negative exponent.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, count
from math import prod
from operator import sub

from .errors import InputError


class ZeroDenominator(InputError, ZeroDivisionError):
    """A rational function with denominator zero, built directly or by dividing by zero."""


class NotCyclotomic(InputError):
    """A denominator that is not +-1 times a product of cyclotomic polynomials Phi_d.

    That covers a factor t, an integer content and any irreducible factor
    other than a Phi_d.
    """


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
    def t_power(e: int) -> "Poly":
        """The monomial t**e."""
        if e < 0:
            raise ValueError("negative exponent")
        return Poly((0,) * e + (1,))

    # -- basic queries ------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial assigned -1."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __getitem__(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

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
        """The product by Kronecker substitution, one packed integer product.

        No coefficient of the product exceeds min(len) * max|a| * max|b|
        in size, which sets the slot width.
        """
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly(())
        width = _width(min(len(a), len(b)) * max(map(abs, a)) * max(map(abs, b)))
        return Poly(_unpack(_pack(a, width) * _pack(b, width), width))

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

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(("Poly", self.coeffs))

    def __repr__(self):
        return f"Poly({render_poly(self)!r})"


def _width(bound: int) -> int:
    """Bytes per slot for signed coefficients of absolute value at most bound.

    The slot keeps one bit above the bound for the sign.
    """
    return (bound.bit_length() + 8) // 8


def _slot_bias(slots: int, width: int) -> int:
    """2**(8*width - 1) in each of `slots` slots of `width` bytes."""
    return int.from_bytes((1 << (8 * width - 1)).to_bytes(width, "little") * slots, "little")


def _pack(cs, width: int) -> int:
    """sum cs[i] * 2**(8*width*i), each |cs[i]| < 2**(8*width - 1)."""
    half = 1 << (8 * width - 1)
    packed = b"".join((c + half).to_bytes(width, "little") for c in cs)
    return int.from_bytes(packed, "little") - _slot_bias(len(cs), width)


def _unpack(value: int, width: int) -> list:
    """The coefficients cs with value == _pack(cs, width), the top one nonzero.

    Each |cs[i]| must be below 2**(8*width - 1).  Adding half a slot to
    every slot makes each slot a nonnegative digit, so the bytes of the sum
    are the slots, read back with the half removed.  A top coefficient in
    slot n puts |value| in [2**(8*width*n - 1), 2**(8*width*(n+1) - 1)),
    so the bit length of value gives the slot count.  Zero unpacks to [0].
    """
    slots = abs(value).bit_length() // (8 * width) + 1
    data = (value + _slot_bias(slots, width)).to_bytes(slots * width, "little")
    half = 1 << (8 * width - 1)
    return [int.from_bytes(data[i : i + width], "little") - half for i in range(0, len(data), width)]


class RatFun:
    """A numerator over a product of cyclotomic polynomials, in canonical form.

    num is a Poly and factors the denominator's Phi_d multiplicities, as
    (d, m) pairs ascending in d, each m positive; den is their expanded
    product, built on its first read and kept.  No Phi_d in factors
    divides num, and a zero num has no factors, so equal functions have
    equal num and factors.  Each Phi_d has constant term 1, so den(0) = 1.

    RatFun(num, den) trial-divides den into Phi_d factors.  What is left
    must be a unit: -1 flips the sign of num, and any other denominator
    raises NotCyclotomic.  Each Phi_d is then divided out of num while it
    divides.  Values built in this module skip the trial division; +, -,
    * and / go through signed_sum.
    """

    __slots__ = ("num", "factors", "_den")

    def __init__(self, num: Poly, den: Poly = Poly((1,))):
        if den.is_zero:
            raise ZeroDenominator("denominator is the zero polynomial")
        if den[0] < 0:
            num, den = -num, -den
        self._set(*_cancel(list(num.coeffs), dict(_trial_factors(den))))

    def _set(self, num: Poly, factors: tuple):
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "factors", factors)

    @property
    def den(self) -> Poly:
        """The product of Phi_d**m over factors, expanded on the first read and kept.

        Arithmetic and series_expand read only factors, so a value that is
        never rendered or divided by is never expanded.
        """
        try:
            return self._den
        except AttributeError:
            object.__setattr__(self, "_den", _expand(self.factors))
            return self._den

    def __setattr__(self, name, value):
        raise AttributeError("RatFun is immutable")

    @staticmethod
    def zero() -> "RatFun":
        return _cyclotomic_ratfun(Poly.zero(), ())

    @staticmethod
    def one() -> "RatFun":
        return _cyclotomic_ratfun(Poly.one(), ())

    @staticmethod
    def t_power(e: int) -> "RatFun":
        return _cyclotomic_ratfun(Poly.t_power(e), ())

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __add__(self, other: "RatFun") -> "RatFun":
        return signed_sum(((1, self, 0, ()), (1, other, 0, ())))

    def __neg__(self) -> "RatFun":
        return _cyclotomic_ratfun(-self.num, self.factors)

    def __sub__(self, other: "RatFun") -> "RatFun":
        return self + (-other)

    def __mul__(self, other: "RatFun") -> "RatFun":
        return signed_sum(((1, (self, other), 0, ()),))

    def __truediv__(self, other: "RatFun") -> "RatFun":
        if other.is_zero:
            raise ZeroDenominator("division by the zero function")
        return self * RatFun(other.den, other.num)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatFun):
            return NotImplemented
        return self.num == other.num and self.factors == other.factors

    def __hash__(self):
        return hash(("RatFun", self.num.coeffs, self.factors))

    def __repr__(self):
        return f"RatFun({render_ratfun(self)!r})"


@dataclass(frozen=True)
class CoeffVector:
    """Power-series coefficients of a RatFun modulo t**(order+1)."""

    coeffs: tuple

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __sub__(self, other: "CoeffVector") -> "CoeffVector":
        if self.order != other.order:
            raise ValueError("order mismatch")
        return CoeffVector(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))


# -- spec-level operations ---------------------------------------------


def ratfun_eq(f: RatFun, g: RatFun) -> bool:
    """Equality as rational functions; the canonical form makes it f == g."""
    return f == g


def series_expand(f: RatFun, order: int) -> CoeffVector:
    """Coefficients of the power series of f at t = 0, through t**order.

    It reads f.num and f.factors and never expands the denominator.  By the
    Mobius rule of _mobius_strides, 1/Phi_d**m is prod (1 - t**e)**m over
    down divided by prod (1 - t**e)**m over up, so the whole denominator
    nets out to a count per stride e: 1 - t**6 = Phi_1 Phi_2 Phi_3 Phi_6
    is one stride 6 again.  The numerator, cut or padded to order + 1
    coefficients, is multiplied by 1 - t**e once per positive count (a
    shifted subtraction) and divided by it once per negative count (a
    running sum along each residue class mod e).  Truncation modulo
    t**(order+1) is a ring map and each 1 - t**e is a unit of Z[[t]], so
    the passes commute and none needs a divisibility test; a stride longer
    than order is the identity there and is skipped.
    """
    if order < 0:
        raise InputError("order must be nonnegative")
    net = {}
    for d, m in f.factors:
        up, down = _mobius_strides(d)
        for e in down:
            net[e] = net.get(e, 0) + m
        for e in up:
            net[e] = net.get(e, 0) - m
    size = order + 1
    cs = list(f.num.coeffs[:size])
    cs += [0] * (size - len(cs))
    for e, k in net.items():
        if e >= size:
            continue
        for _ in range(abs(k)):
            if k > 0:
                cs[e:] = map(sub, cs[e:], cs[:-e])
            else:
                for r in range(e):
                    cs[r::e] = accumulate(cs[r::e])
    return CoeffVector(tuple(cs))


def truncated_sum(terms, order: int) -> CoeffVector:
    """sum of t**shift * prod factors over the terms, modulo t**(order+1).

    Each term is a pair (shift, factors): a natural number and a sequence
    of RatFuns, whose empty product is 1.  The order must be nonnegative,
    as for series_expand.  A term reaches order - shift + 1 slots, and one
    that reaches none adds nothing.  Each distinct factor object is
    expanded once (series_expand), through the longest reach of a term
    using it.  A term with a factor whose prefix over its reach is
    zero adds nothing and is dropped.  The sum runs on packed integers at
    one slot width, and each factor is packed once, through the longest
    reach of a term kept.  In a term, a longer factor and each product are
    cut to the term's reach by the centred remainder
    ((v + half) & mask) - half; the product is then shifted into place and
    added to one integer, which is unpacked once.  The width bounds every
    slot: since |ab|_inf <= |a|_1 |b|_inf and |ab|_1 <= |a|_1 |b|_1, the
    sum over the terms of the product of the factors' l1 norms, each over
    the prefix the term reaches, bounds every coefficient of every packed
    factor and partial product, cut or not, and of the sum.  Every slot
    therefore stays below half its range, and the centred remainder is
    exact.
    """
    if order < 0:
        raise InputError("order must be nonnegative")
    # id(f) -> (f, the longest reach of a term using f); the entry holds f,
    # so no id is reused during the call
    longest = {}
    reaching = []
    for shift, factors in terms:
        if shift < 0:
            raise ValueError("negative exponent")
        reach = order - shift + 1
        if reach >= 1:
            for f in factors:
                _, most = longest.get(id(f), (f, 0))
                longest[id(f)] = f, max(most, reach)
            reaching.append((shift, reach, [id(f) for f in factors]))
    expansions = {key: series_expand(f, most - 1).coeffs for key, (f, most) in longest.items()}
    # the l1 norms of each expansion's prefixes
    norms = {key: (0, *accumulate(map(abs, cs))) for key, cs in expansions.items()}
    slots = dict.fromkeys(expansions, 0)
    kept = []
    bound = 0
    for shift, reach, keys in reaching:
        size = prod(norms[key][reach] for key in keys)
        if size:
            # no factor's prefix is zero, so size bounds each one's coefficients
            bound += size
            kept.append((shift, reach, keys))
            for key in keys:
                slots[key] = max(slots[key], reach)
    width = _width(bound)
    packed = {key: _pack(expansions[key][:n], width) for key, n in slots.items()}
    slot = 8 * width
    total = 0
    for shift, reach, keys in kept:
        half = 1 << (slot * reach - 1)
        mask = (half << 1) - 1
        value = 1
        for key in keys:
            factor = packed[key]
            if slots[key] > reach:
                factor = ((factor + half) & mask) - half
            value = ((value * factor + half) & mask) - half
        total += value << (slot * shift)
    cs = _unpack(total, width)
    return CoeffVector(tuple(cs) + (0,) * (order + 1 - len(cs)))


# -- rendering and parsing ----------------------------------------------


def _render_term(c: int, d: int, sep: str, brace: bool) -> str:
    e = f"{{{d}}}" if brace else f"{d}"
    if d == 0:
        return str(c)
    tpart = "t" if d == 1 else f"t^{e}"
    if c == 1:
        return tpart
    if c == -1:
        return "-" + tpart
    return f"{c}{sep}{tpart}"


def _render_poly(p: Poly, sep: str, brace: bool) -> str:
    if p.is_zero:
        return "0"
    parts = []
    for d, c in enumerate(p.coeffs):
        if c == 0:
            continue
        term = _render_term(c, d, sep, brace)
        if not parts:
            parts.append(term)
        elif term.startswith("-"):
            parts.append("- " + term[1:])
        else:
            parts.append("+ " + term)
    return " ".join(parts)


def render_poly(p: Poly) -> str:
    """Canonical plain text, monomials in increasing degree."""
    return _render_poly(p, "*", brace=False)


def render_ratfun(f: RatFun) -> str:
    return f"({render_poly(f.num)})/({render_poly(f.den)})"


def latex_poly(p: Poly) -> str:
    return _render_poly(p, "", brace=True)


def latex_ratfun(f: RatFun) -> str:
    if not f.factors:
        return latex_poly(f.num)
    return f"\\frac{{{latex_poly(f.num)}}}{{{latex_poly(f.den)}}}"


# one term: a sign run, then a coefficient, t or t^e, or both
_TERM = re.compile(r"([+-]*)(?:(\d+)(?:\*(?=t))?)?(t(?:\^(\d+))?)?")


def parse_poly(text: str) -> Poly:
    """Parse the canonical plain-text polynomial form.

    The text, spaces removed, is a run of terms, each a sign run and then
    a coefficient, t or t^e, or both (c*t^e or ct^e); every term after the
    first starts with a sign.  Exponents are natural numbers, and terms of
    one degree add up.
    """
    s = text.replace(" ", "")
    if not s:
        raise ParseError("empty polynomial")
    coeffs: dict[int, int] = {}
    pos = 0
    while pos < len(s):
        m = _TERM.match(s, pos)
        signs, digits, tpart, exponent = m.groups()
        if not (digits or tpart) or (pos and not signs):
            raise ParseError(f"bad term at {s[pos:]!r} in {text!r}")
        d = int(exponent) if exponent else 1 if tpart else 0
        coeffs[d] = coeffs.get(d, 0) + (-1) ** signs.count("-") * int(digits or 1)
        pos = m.end()
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
def _primes(d: int) -> tuple:
    """The distinct prime factors of d, ascending."""
    primes, rest, p = [], d, 2
    while p * p <= rest:
        if rest % p == 0:
            primes.append(p)
            while rest % p == 0:
                rest //= p
        p += 1
    if rest > 1:
        primes.append(rest)
    return tuple(primes)


@lru_cache(maxsize=None)
def _totient(d: int) -> int:
    """Euler's phi(d), the degree of Phi_d."""
    phi = d
    for p in _primes(d):
        phi -= phi // p
    return phi


@lru_cache(maxsize=None)
def _mobius_strides(d: int) -> tuple:
    """(up, down) with Phi_d = prod (1 - t**e) over up / prod (1 - t**e) over down.

    Phi_d = prod_{e | d} (1 - t**e)**mu(d/e), and mu(d/e) is nonzero only
    when d/e is a product of distinct primes of d: +1 for an even number of
    them (up), -1 for an odd number (down).
    """
    up, down = (d,), ()
    for p in _primes(d):
        up, down = up + tuple(e // p for e in down), down + tuple(e // p for e in up)
    return up, down


def _strided(cs: list, up, down):
    """cs * prod (1 - t**e) over up / prod (1 - t**e) over down, or None.

    None when that quotient is not a polynomial.  Multiplying by 1 - t**e
    subtracts cs shifted by e.  Dividing by it undoes that: the quotient's
    coefficients are running sums of cs along each residue class mod e.
    Taken over all of cs, the sums end in a top-e tail that is zero exactly
    when 1 - t**e divides, and the rest is the quotient.  Every product
    comes before every division, so when the whole quotient is a
    polynomial each division is exact, and when it is not, one fails.
    """
    for e in up:
        pad = [0] * e
        cs = list(map(sub, cs + pad, pad + cs))
    for e in down:
        sums = [0] * len(cs)
        for r in range(e):
            sums[r::e] = accumulate(cs[r::e])
        cut = max(len(cs) - e, 0)
        if any(sums[cut:]):
            return None
        cs = sums[:cut]
    return cs


@lru_cache(maxsize=None)
def _cyclotomic(d: int) -> Poly:
    """Phi_d normalised to constant term 1, so Phi_1 = 1 - t.

    Built by the Mobius rule of _mobius_strides, so the product of Phi_e
    over all divisors e of n is 1 - t**n.
    """
    return Poly(_strided([1], *_mobius_strides(d)))


@lru_cache(maxsize=None)
def _cyclotomic_at_two(d: int) -> int:
    """Phi_d(2), from the Mobius rule of _mobius_strides without building Phi_d."""
    up, down = _mobius_strides(d)
    return prod(1 - (1 << e) for e in up) // prod(1 - (1 << e) for e in down)


@lru_cache(maxsize=None)
def _packed_cyclotomic(d: int, width: int) -> int:
    """Phi_d packed at width."""
    return _pack(_cyclotomic(d).coeffs, width)


def _at_two(cs) -> int:
    """The polynomial with coefficients cs at t = 2, by one Horner pass."""
    value = 0
    for c in reversed(cs):
        value = (value << 1) + c
    return value


def _phi_quotient(cs: list, d: int):
    """The coefficients of cs / Phi_d, or None when Phi_d does not divide cs."""
    up, down = _mobius_strides(d)
    return _strided(cs, down, up)


@lru_cache(maxsize=None)
def _totient_bound(n: int) -> int:
    """A bound on the d with phi(d) <= n.

    phi(d) is at least the product of p - 1 over the distinct primes p of
    d, so such a d has at most k of them, k the largest count for which
    the first k primes give a product of p - 1 at most n.  Then
    d / phi(d), the product of p / (p - 1) over the primes of d, is at
    most that product over the first k primes.
    """
    # num / den is n times the product of p / (p - 1) over the primes taken
    num, den, p = n, 1, 2
    while den * (p - 1) <= n:
        num, den = num * p, den * (p - 1)
        p = next(q for q in count(p + 1) if _primes(q) == (q,))
    return num // den


def _trial_factors(den: Poly) -> tuple:
    """den's Phi_d multiplicities as (d, m) pairs ascending in d, by trial division.

    Every Phi_d has leading coefficient -1 or 1 and reads the same
    backwards up to sign, so a den that fails either test is refused
    before any division.  Otherwise _cancel divides den by the largest
    product of Phi_d it could hold: deg // phi(d) of each Phi_d with
    phi(d) <= deg, which _totient_bound bounds, so every Phi_d dividing den
    is found, behind _cancel's screens.  Raises NotCyclotomic unless the
    quotient is 1, so the product of the pairs is den.
    """
    cs = list(den.coeffs)
    if abs(cs[-1]) == 1 and cs[::-1] in (cs, [-c for c in cs]):
        deg = len(cs) - 1
        most = {d: deg // _totient(d) for d in range(1, _totient_bound(deg) + 1) if _totient(d) <= deg}
        rest, left = _cancel(cs, dict(most))
        if rest == Poly.one():
            left = dict(left)
            return _pairs({d: m - left.get(d, 0) for d, m in most.items()})
    raise NotCyclotomic(f"denominator {render_poly(den)} is not a product of cyclotomic polynomials")


def _l1(cs) -> int:
    """The sum of the absolute values of the coefficients."""
    return sum(map(abs, cs))


def _expand(pairs) -> Poly:
    """The product of Phi_d**m over the (d, m) pairs.

    It is one packed product: since |ab|_1 <= |a|_1 |b|_1, the product of
    the factors' l1 norms bounds every coefficient, and so the slot width.
    Each Phi_d is packed once per width (_packed_cyclotomic).
    """
    pairs = [(d, m) for d, m in pairs if m]
    width = _width(prod(_l1(_cyclotomic(d).coeffs) ** m for d, m in pairs))
    return Poly(_unpack(prod(_packed_cyclotomic(d, width) ** m for d, m in pairs), width))


def _cancel(cs: list, mult: dict) -> tuple:
    """(num, factors) of cs / prod Phi_d**mult[d] in canonical form.

    Each Phi_d leaves the numerator min(mult[d], its order in cs) times, in
    any order; a zero cs cancels every factor.  So whole strides go first:
    for each key e, largest first, 1 - t**e = prod_{d | e} Phi_d is divided
    out in one running-sum pass while every d | e keeps a multiplicity.
    Then each Phi_d left is divided out while it divides (_phi_quotient);
    Phi_1 = 1 - t is the stride e = 1 and has left already.  Two screens
    skip most divisions that would fail.  By Gauss's lemma a factor of cs
    in Z[t] with value k at t = 2 makes k divide cs(2), so a division is
    tried only when its divisor's value at 2 divides that of cs, which is
    carried through each quotient.  Phi_1(2) = -1 divides every value, but
    Phi_1 divides cs only when cs(1), the sum of the coefficients, is 0,
    so a stride is tried only then; that sum is taken again after each
    stride.  A division the screens let through may still fail, and then
    changes nothing.
    """
    value, at_one = _at_two(cs), sum(cs)
    for e in sorted(mult, reverse=True):
        stride = 1 - (1 << e)
        while (
            not at_one
            and value % stride == 0
            and all(mult.get(d) for d in _divisors(e))
            and (quotient := _strided(cs, (), (e,))) is not None
        ):
            cs, value, at_one = quotient, value // stride, sum(quotient)
            for d in _divisors(e):
                mult[d] -= 1
    for d, m in mult.items():
        at_two = _cyclotomic_at_two(d)
        while d > 1 and m and value % at_two == 0 and (quotient := _phi_quotient(cs, d)) is not None:
            cs, m, value = quotient, m - 1, value // at_two
        mult[d] = m
    return Poly(cs), _pairs(mult)


def _pairs(mult: dict) -> tuple:
    """The (d, m) pairs of a {d: multiplicity} map with m > 0, ascending in d."""
    return tuple(sorted((d, m) for d, m in mult.items() if m))


def _cyclotomic_ratfun(num: Poly, factors: tuple) -> RatFun:
    """num / prod Phi_d**m over the (d, m) pairs of factors, with no trial division.

    This is the one way this module builds a value.  The caller guarantees
    the RatFun invariants: factors ascends in d with each m positive, no
    Phi_d in it divides num, and a zero num has no factors.
    """
    f = object.__new__(RatFun)
    f._set(num, factors)
    return f


def cyclotomic_quotient(plus, minus, shift: int = 0) -> RatFun:
    """t**shift * prod (1 + t**a)**m / prod (1 - t**b)**m, canonical, with no division.

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
    return _cyclotomic_ratfun(Poly((0,) * shift + _expand(num.items()).coeffs), _pairs(den))


def _cofactor(common: dict, mult: dict, width: int, powers: dict) -> int:
    """prod Phi_d**(common[d] - mult[d]), packed at width.

    powers caches each packed Phi_d**k of one signed_sum call; Phi_d
    itself is packed once per width (_packed_cyclotomic).
    """
    out = 1
    for d, m in common.items():
        k = m - mult.get(d, 0)
        if k:
            power = powers.get((d, k))
            if power is None:
                power = powers[d, k] = _packed_cyclotomic(d, width) ** k
            out *= power
    return out


def _sum_over_common(leaves, width: int, powers: dict) -> tuple:
    """(packed value, lowest exponent, denominator map) of the sum of the leaves.

    Each leaf is a (packed signed numerator, e, mult) triple standing for
    that numerator times t**e over prod Phi_d**mult[d], and the leaves come
    ascending in e.  A packed numerator is the polynomial's value at
    t = 2**(8*width), so the products, shifts and sums below are big-integer
    ones; the caller picks width so that the summed numerator unpacks.  The
    leaves are summed pairwise as a balanced tree, so each numerator is
    multiplied by the cofactor of its half's denominator, which stays small
    until the last levels.  A node's value is its sum divided by t**e, e its
    first leaf's exponent, the lowest under it; its denominator map takes
    the largest multiplicity of each Phi_d.  Each child is multiplied by its
    cofactor first, and only then is the right one shifted by the
    difference of the two exponents, so no product runs over zero slots.
    """
    if len(leaves) == 1:
        return leaves[0]
    half = len(leaves) // 2
    left, low, lmult = _sum_over_common(leaves[:half], width, powers)
    right, high, rmult = _sum_over_common(leaves[half:], width, powers)
    common = {d: max(lmult.get(d, 0), rmult.get(d, 0)) for d in lmult | rmult}
    left *= _cofactor(common, lmult, width, powers)
    right *= _cofactor(common, rmult, width, powers)
    return left + (right << (8 * width * (high - low))), low, common


def signed_sum(terms) -> RatFun:
    """Sum of sign * factor * t**e / prod_{k in ks} (1 - t**k) over the terms.

    Each term is a tuple (sign, factor, e, ks) with sign an integer (+1 or
    -1 in every alternating series, any integer multiplier otherwise),
    factor a RatFun or a tuple of RatFuns standing for their product, e a
    natural number and ks an iterable of positive exponents; a repeated k
    contributes its factor once per occurrence.  Every alternating series,
    and every RatFun sum, product and quotient, goes through here.

    The sum is taken over one common denominator.  Each term's denominator
    is kept as a map {d: multiplicity} of the cyclotomic factors Phi_d: the
    factors of each RatFun, added over a product's factors, whose
    numerators multiply, and Phi_d for every divisor d of each k, since
    1 - t**k is the product of those.  The common denominator takes the
    largest multiplicity of each Phi_d, and the numerators are summed over
    it pairwise, packed into integers (_sum_over_common) and unpacked once.
    Each distinct numerator object is packed once per call.  The terms go
    into the tree sorted by exponent, which keeps the shifts inside it
    short, and its root stands for the sum divided by t**e, e the lowest
    exponent.  Term i's share of the summed numerator is sign_i * num_i
    times its cofactor, the product of the factors it lacks; since
    |ab|_inf <= |a|_1 |b|_inf and |ab|_1 <= |a|_1 |b|_1, the sum over i of
    |sign_i| |num_i|_1 prod |Phi_d|_1 over its cofactor bounds every
    coefficient, and sets the slot width.  Each Phi_d is then divided out
    of the summed numerator while it divides and its multiplicity stays
    positive, which leaves the canonical quotient (_cancel): whole strides
    1 - t**e first, then single Phi_d, each tried only when its value at
    t = 2 divides the numerator's.  t is prime to every Phi_d, so the
    division does not depend on t**e, which is put back after it.  A zero
    sum is RatFun.zero().
    """
    parts = []
    for sign, factor, e, ks in terms:
        if e < 0:
            raise ValueError("negative exponent")
        if isinstance(factor, RatFun):
            num = factor.num
            mult = dict(factor.factors)
        else:
            num, mult = Poly.one(), {}
            for f in factor:
                num = num * f.num
                for d, m in f.factors:
                    mult[d] = mult.get(d, 0) + m
        for k in ks:
            if k < 1:
                raise ValueError(f"denominator exponent {k} is not positive")
            for d in _divisors(k):
                mult[d] = mult.get(d, 0) + 1
        if not num.is_zero:
            parts.append((sign, num, e, mult))
    if not parts:
        return RatFun.zero()
    parts.sort(key=lambda part: part[2])
    common = {}
    for *_, mult in parts:
        for d, m in mult.items():
            common[d] = max(common.get(d, 0), m)
    norms = {d: _l1(_cyclotomic(d).coeffs) for d in common}
    full = prod(norms[d] ** m for d, m in common.items())
    bound = sum(
        abs(sign) * _l1(num.coeffs) * full // prod(norms[d] ** m for d, m in mult.items())
        for sign, num, _, mult in parts
    )
    width = _width(bound)
    # id(num) -> num packed at width; parts holds each num, so no id is reused
    packed = {}
    leaves = []
    for sign, num, e, mult in parts:
        value = packed.get(id(num))
        if value is None:
            value = packed[id(num)] = _pack(num.coeffs, width)
        leaves.append((sign * value, e, mult))
    total, low, _ = _sum_over_common(leaves, width, {})
    if not total:
        return RatFun.zero()
    num, factors = _cancel(_unpack(total, width), common)
    return _cyclotomic_ratfun(Poly((0,) * low + num.coeffs), factors)
