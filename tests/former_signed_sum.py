"""The former dense signed_sum, kept as a test oracle.

exactalg.signed_sum used to sum the numerators as Poly values over a
balanced tree, multiplying each by a cofactor expanded as a heap-ordered
product of Phi_d, and to cancel each Phi_d by a divisibility test on the
numerator folded mod t**d - 1 followed by exact division.  It now carries
each tree node as one packed integer and cancels Phi_d by binomial
strides; the tests compare the two on random terms.  Its result is the
(num, den) pair of the former gcd canonical form (tests/former_ratfun.py).
"""

import heapq
from functools import lru_cache
from itertools import count

from former_ratfun import canonical, divexact
from polys import one_minus_t
from ymseries.exactalg import Poly, RatFun


def _divisors(k):
    return tuple(d for d in range(1, k + 1) if k % d == 0)


def _totient(d):
    return sum(1 for k in range(1, d + 1) if _gcd(k, d) == 1)


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


@lru_cache(maxsize=None)
def cyclotomic(d):
    """Phi_d with constant term 1: 1 - t**d divided exactly by Phi_e, e | d, e < d."""
    phi = one_minus_t(d)
    for e in _divisors(d)[:-1]:
        phi = divexact(phi, cyclotomic(e))
    return phi


def phi_divides(p, d):
    """Whether Phi_d divides p, tested on p folded mod t**d - 1."""
    cs = p.coeffs
    folded = Poly([sum(cs[i::d]) for i in range(min(d, len(cs)))])
    try:
        divexact(folded, cyclotomic(d))
    except ValueError:
        return False
    return True


def den_factors(den):
    """den as {key: multiplicity}: Phi_d by trial division, then one opaque rest."""
    mult = {}
    rest = den
    d = 1
    while d <= 2 * rest.degree**2:
        if _totient(d) <= rest.degree:
            while phi_divides(rest, d):
                rest = divexact(rest, cyclotomic(d))
                mult[d] = mult.get(d, 0) + 1
        d += 1
    if rest != Poly.one():
        mult[rest] = 1
    return mult


def expand(mult):
    """The product of a {key: multiplicity} map, the two smallest factors first."""
    tiebreak = count()
    heap = []
    for key, m in mult.items():
        poly = cyclotomic(key) if isinstance(key, int) else key
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


def sum_over_common(parts):
    """(numerator Poly, denominator map) of the (sign, num, e, mult) parts, as a dense tree."""
    if len(parts) == 1:
        sign, num, e, mult = parts[0]
        return Poly((0,) * e + tuple(sign * c for c in num.coeffs)), mult
    half = len(parts) // 2
    left, lmult = sum_over_common(parts[:half])
    right, rmult = sum_over_common(parts[half:])
    common = {key: max(lmult.get(key, 0), rmult.get(key, 0)) for key in lmult | rmult}
    left = left * expand({key: m - lmult.get(key, 0) for key, m in common.items()})
    right = right * expand({key: m - rmult.get(key, 0) for key, m in common.items()})
    return left + right, common


def signed_sum(terms):
    """The former signed_sum: same terms, the same canonical (num, den)."""
    parts = []
    for sign, factor, e, ks in terms:
        factors = (factor,) if isinstance(factor, RatFun) else factor
        num, mult = Poly.one(), {}
        for f in factors:
            num = num * f.num
            for key, m in den_factors(f.den).items():
                mult[key] = mult.get(key, 0) + m
        for k in ks:
            for d in _divisors(k):
                mult[d] = mult.get(d, 0) + 1
        if not num.is_zero:
            parts.append((sign, num, e, mult))
    total, common = sum_over_common(parts) if parts else (Poly.zero(), {})
    if total.is_zero or not all(isinstance(key, int) for key in common):
        return canonical(total, expand(common))
    for d, m in common.items():
        while m and phi_divides(total, d):
            total = divexact(total, cyclotomic(d))
            m -= 1
        common[d] = m
    return total, expand(common)
