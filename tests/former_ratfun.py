"""The former gcd canonical form of RatFun, kept as a test oracle.

exactalg.RatFun used to cancel every value with a fraction-free
subresultant gcd: num and den were divided by their primitive gcd and by
the gcd of their contents, and both were negated when den's lowest nonzero
coefficient was negative.  It now trial-divides den into cyclotomic factors
Phi_d and divides each out of num while it divides.  On denominators that
are +-1 times a product of Phi_d the two canonical forms agree, since each
Phi_d is irreducible and primitive (Gauss's lemma); the tests compare them.
"""

from math import gcd

from polys import scaled
from ymseries.exactalg import Poly


def content(p):
    """gcd of all coefficients (0 for the zero polynomial)."""
    g = 0
    for c in p.coeffs:
        g = gcd(g, c)
        if g == 1:
            break
    return g


def divexact_int(p, c):
    return Poly(tuple(x // c for x in p.coeffs))


def divexact(a, b):
    """Exact polynomial division; ValueError when b does not divide a."""
    if b.is_zero:
        raise ZeroDivisionError("division by zero polynomial")
    if a.is_zero:
        return a
    rem = list(a.coeffs)
    db, lead = b.degree, b.coeffs[-1]
    dq = len(rem) - len(b.coeffs)
    if dq < 0:
        raise ValueError("not an exact division")
    lower = [(j, cb) for j, cb in enumerate(b.coeffs[:db]) if cb]
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


def _pseudo_rem(a, b):
    """Pseudo-remainder of a by b: lc(b)**(deg a - deg b + 1) * a mod b."""
    rem = list(a.coeffs)
    db, lb = b.degree, b.coeffs[-1]
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


def _sign_normalize(p):
    return -p if p.coeffs and p.coeffs[-1] < 0 else p


def poly_gcd(a, b):
    """Primitive gcd with positive leading coefficient, by the subresultant
    remainder sequence on the primitive parts, the contents folded back in."""
    if a.is_zero:
        return _sign_normalize(b)
    if b.is_zero:
        return _sign_normalize(a)
    ca, cb = content(a), content(b)
    c = gcd(ca, cb)
    A, B = divexact_int(a, ca), divexact_int(b, cb)
    if A.degree < B.degree:
        A, B = B, A
    g, h = 1, 1
    while True:
        d = A.degree - B.degree
        R = _pseudo_rem(A, B)
        if R.is_zero:
            break
        if R.degree == 0:
            return Poly((c,))
        A, B = B, divexact_int(R, g * h**d)
        g = A.coeffs[-1]
        if d >= 1:
            h = g**d // h ** (d - 1)
    prim = divexact_int(B, content(B))
    return scaled(_sign_normalize(prim), c)


def canonical(num, den):
    """(num, den) in the former gcd canonical form: no common polynomial
    factor, no common integer content, den's lowest nonzero coefficient
    positive, and den = 1 when num = 0."""
    if den.is_zero:
        raise ZeroDivisionError("denominator is the zero polynomial")
    if num.is_zero:
        return Poly.zero(), Poly.one()
    g = poly_gcd(num, den)
    num, den = divexact(num, g), divexact(den, g)
    c = gcd(content(num), content(den))
    num, den = divexact_int(num, c), divexact_int(den, c)
    if next(c for c in den.coeffs if c) < 0:
        num, den = -num, -den
    return num, den
