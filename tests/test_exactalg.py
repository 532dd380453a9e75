import os
import random
import re
import subprocess
import sys
import time
from math import comb

import pytest

import former_signed_sum as former
from former_cancel import former_cancel
from former_parse_poly import parse_poly as former_parse_poly
from former_ratfun import canonical, content, divexact, divexact_int, poly_gcd
from former_series_expand import dense_series_expand
from polys import one_minus_t, one_plus_t, scaled
from ymseries.exactalg import (
    CoeffVector,
    NotCyclotomic,
    ParseError,
    Poly,
    RatFun,
    ZeroDenominator,
    latex_ratfun,
    parse_poly,
    parse_ratfun,
    ratfun_eq,
    render_poly,
    render_ratfun,
    series_expand,
    signed_sum,
    truncated_sum,
)
from ymseries.closedforms import _su_torus, flat_series
from ymseries.errors import ExactnessError, InputError
from ymseries import exactalg
from ymseries.rootsys import GroupSpec
from ymseries.exactalg import (
    _cancel,
    _cyclotomic,
    _cyclotomic_at_two,
    _divisors,
    _expand,
    _phi_quotient,
    _trial_factors,
    cyclotomic_quotient,
)


def P(*coeffs):
    return Poly(coeffs)


def rand_poly(rng, max_deg=6, bound=9):
    return Poly([rng.randint(-bound, bound) for _ in range(rng.randint(0, max_deg + 1))])


def pair(f):
    return f.num, f.den


class TestPolyArith:
    def test_difference_of_squares(self):
        assert P(1, 1) * P(1, -1) == P(1, 0, -1)

    def test_additive_identity(self):
        p = P(3, 0, -2, 7)
        assert Poly.zero() + p == p

    def test_binomial_fourth_power(self):
        sq = P(1, 1) ** 2
        assert sq * sq == P(1, 4, 6, 4, 1)

    def test_ring_axioms_randomized(self):
        rng = random.Random(101)
        for _ in range(200):
            a, b, c = (rand_poly(rng) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + b == b + a
            assert a * b == b * a
            assert a - a == Poly.zero()

    def test_trailing_zeros_stripped(self):
        assert Poly([1, 2, 0, 0]).coeffs == (1, 2)
        assert Poly([0, 0]).is_zero


def schoolbook(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return out


def rand_coeffs(rng, length, bits):
    """Random signed coefficients, about half of them zero, the top one nonzero."""
    cs = [rng.choice([0, rng.randint(-(2**bits), 2**bits)]) for _ in range(length - 1)]
    return cs + [rng.choice([-1, 1]) * rng.randint(1, 2**bits)]


class TestKronecker:
    # lengths around 16, where products once switched from a schoolbook loop
    LENGTHS = (1, 2, 15, 16, 17, 40, 97)

    def test_matches_schoolbook_randomized(self):
        rng = random.Random(2024)
        for la in self.LENGTHS:
            for lb in self.LENGTHS:
                for bits in (1, 8, 63, 64, 200):
                    a, b = rand_coeffs(rng, la, bits), rand_coeffs(rng, lb, bits)
                    assert (Poly(a) * Poly(b)).coeffs == tuple(schoolbook(a, b)), (la, lb, bits)

    def test_coefficients_at_the_slot_bound(self):
        # every coefficient of the same magnitude makes the middle coefficient
        # exactly min(len) * max|a| * max|b|, the bound the slot width is sized for
        for bits in range(1, 20):
            for m in (2**bits - 1, 2**bits):
                for la, lb in ((1, 1), (17, 17), (17, 33), (64, 20)):
                    for sa, sb in ((1, 1), (1, -1), (-1, -1)):
                        a, b = [sa * m] * la, [sb * m] * lb
                        assert (Poly(a) * Poly(b)).coeffs == tuple(schoolbook(a, b)), (m, la, lb)

    def test_alternating_signs_and_zero_runs(self):
        a = [(-1) ** i * (i % 5) for i in range(1, 60)] + [7]
        b = [0] * 30 + [-(2**200)] + [0] * 10 + [1]
        assert (Poly(a) * Poly(b)).coeffs == tuple(schoolbook(a, b))
        assert (Poly(b) * Poly(a)).coeffs == tuple(schoolbook(b, a))

    def test_long_powers(self):
        # the square-and-multiply chain passes length 16 part way up
        assert P(1, 1) ** 40 == Poly([comb(40, k) for k in range(41)])
        assert (P(1, -1) ** 33).coeffs == tuple((-1) ** k * comb(33, k) for k in range(34))


class TestPolyPow:
    def test_cube_binomial(self):
        assert one_plus_t(3) ** 4 == P(1, 0, 0, 4, 0, 0, 6, 0, 0, 4, 0, 0, 1)

    def test_empty_product(self):
        assert P(5, -3, 2) ** 0 == Poly.one()

    def test_square(self):
        assert one_minus_t(2) ** 2 == P(1, 0, -2, 0, 1)


class TestPolyGcd:
    """The oracle gcd of tests/former_ratfun.py."""

    def test_common_factor(self):
        a = one_minus_t(4)  # (1-t^2)(1+t^2)
        b = one_minus_t(2)
        assert poly_gcd(a, b) == -one_minus_t(2)  # sign-normalized: t^2 - 1

    def test_random_products(self):
        rng = random.Random(7)
        for _ in range(60):
            g = rand_poly(rng, 3)
            if g.is_zero:
                continue
            p, q = rand_poly(rng, 3), rand_poly(rng, 3)
            d = poly_gcd(p * g, q * g)
            if p.is_zero and q.is_zero:
                continue
            # gcd must be divisible by the primitive part of g
            assert not d.is_zero
            gp = divexact_int(g, content(g))
            divexact(p * g, d)  # must not raise
            quotient = d  # d divisible by primitive part of g up to sign
            r = quotient.degree - gp.degree
            assert r >= 0


class TestRatFunMake:
    def test_cancellation(self):
        f = RatFun(one_minus_t(4), one_minus_t(2))
        assert f.num == P(1, 0, 1) and f.den == Poly.one()

    def test_zero_numerator(self):
        f = RatFun(Poly.zero(), one_minus_t(2))
        assert f.num == Poly.zero() and f.den == Poly.one()

    def test_content_removal(self):
        # the numerator keeps its content; a denominator content is refused
        f = RatFun(P(2, 2), P(1, -1))
        assert f.num == P(2, 2) and f.den == P(1, -1)
        assert RatFun(P(2, 2), P(-1, 1)) == RatFun(P(-2, -2), P(1, -1))
        with pytest.raises(NotCyclotomic):
            RatFun(P(2, 2), P(4))

    def test_zero_denominator(self):
        with pytest.raises(ZeroDenominator):
            RatFun(Poly.one(), Poly.zero())

    def test_idempotent(self):
        rng = random.Random(23)
        for _ in range(100):
            f = RatFun(rand_poly(rng), rand_den(rng))
            g = RatFun(f.num, f.den)
            assert f.num == g.num and f.den == g.den and f.factors == g.factors

    def test_common_factor_cancels(self):
        rng = random.Random(5)
        for _ in range(60):
            p, q, r = rand_poly(rng, 3), rand_den(rng), rand_den(rng)
            lhs = RatFun(p * q, r * q)
            rhs = RatFun(p, r)
            assert lhs == rhs


class TestLazyDenominator:
    """den is the expansion of factors, made on its first read and kept."""

    def test_expanded_on_first_read(self, monkeypatch):
        expanded = []
        real = exactalg._expand
        monkeypatch.setattr(exactalg, "_expand", lambda pairs: expanded.append(pairs) or real(pairs))
        f = signed_sum([(1, RatFun.one(), 0, (2, 3)), (-1, RatFun.one(), 1, (6,))])
        assert f.factors and not expanded
        den = f.den
        assert den == real(f.factors) and f.den is den
        assert expanded == [f.factors]

    def test_cannot_be_assigned(self):
        f = RatFun(P(1, 2), one_minus_t(3))
        with pytest.raises(AttributeError):
            f.den = Poly.one()
        assert f.den == one_minus_t(3)
        with pytest.raises(AttributeError):
            f.den = Poly.one()
        assert f.den == one_minus_t(3)

    def test_series_leave_it_unbuilt(self, monkeypatch):
        # series_expand and truncated_sum read factors only; the cached
        # flat series is multiplied into a new value, whose den is unread
        fresh = [
            signed_sum([(1, RatFun(P(1, 2, 3)), 0, (2, 3, 30)), (-1, RatFun.one(), 1, (6, 6))]),
            cyclotomic_quotient([(1, 4)], [(2, 1), (42, 2)], 3),
            flat_series(GroupSpec("sp", 3), 0, 2) * RatFun.t_power(1),
        ]

        def refused(pairs):
            raise AssertionError(f"expanded {pairs}")

        monkeypatch.setattr(exactalg, "_expand", refused)
        for f in fresh:
            series_expand(f, 50)
        truncated_sum([(0, fresh), (3, fresh[:1])], 60)
        assert not any(hasattr(f, "_den") for f in fresh)

    def test_eq_and_hash_ignore_the_expansion(self):
        rng = random.Random(3030)
        for _ in range(30):
            f = wide_factor(rng, 8, 30)
            a, b = f + RatFun.one(), RatFun.one() + f
            assert a == b and hash(a) == hash(b)
            assert a.den == _expand(a.factors)
            assert a == b and b == a and hash(a) == hash(b)
            assert len({a, b}) == 1


class TestConstructorMatchesOracle:
    """RatFun(num, den) on +-1 times products of Phi_d against the former
    gcd canonical form (tests/former_ratfun.py)."""

    def test_randomized(self):
        rng = random.Random(2727)
        for trial in range(150):
            bits = rng.choice([1, 4, 63, 200, 300])
            den = wide_den(rng, 30)
            # zero numerators, wide ones, and ones sharing Phi_d with den
            num = Poly.zero() if trial % 10 == 0 else wide_num(rng, bits)
            if rng.random() < 0.5:
                num = num * wide_den(rng, 12, 2)
            f = RatFun(num, den)
            assert pair(f) == canonical(num, den), (num, den)
            assert f.factors == _trial_factors(f.den)
            assert f == RatFun(-num, -den)

    def test_unit_minus_one_flips_the_numerator(self):
        f = RatFun(P(3, 1), P(-1, 0, 1))
        assert pair(f) == (P(-3, -1), P(1, 0, -1)) == canonical(P(3, 1), P(-1, 0, 1))
        assert RatFun(P(-1), P(-1)) == RatFun.one() and RatFun(P(5), P(-1)).num == P(-5)


class TestNotCyclotomic:
    """Every denominator other than +-1 times a product of Phi_d is refused."""

    @pytest.mark.parametrize(
        "den", [P(0, 1), P(2), P(2, -2), P(1, 3, 1), P(5, -2), P(3, 1)], ids=render_poly
    )
    def test_refused(self, den):
        for num in (Poly.one(), P(1, -1) * den, Poly.zero()):
            for d in (den, den * one_minus_t(6), -den):
                with pytest.raises(NotCyclotomic) as err:
                    RatFun(num, d)
                assert isinstance(err.value, InputError)
        with pytest.raises(NotCyclotomic):
            parse_ratfun(f"(1)/({render_poly(den)})")

    def test_leading_coefficient_refused_before_division(self):
        # no Phi_d product has leading coefficient 3: refused at once
        den = Poly((1,) + (0,) * 399 + (3,))
        start = time.process_time()
        with pytest.raises(NotCyclotomic, match=r"^denominator 1 \+ 3\*t\^400 is not a product"):
            RatFun(Poly.one(), den)
        assert time.process_time() - start < 0.1

    def test_palindromic_refused_within_totient_bound(self):
        # monic and palindromic, so trial division runs, over the d with
        # phi(d) <= 400 only
        den = Poly((1,) + (0,) * 199 + (3,) + (0,) * 199 + (1,))
        start = time.process_time()
        with pytest.raises(NotCyclotomic, match=r"^denominator 1 \+ 3\*t\^200 \+ t\^400 is not"):
            RatFun(Poly.one(), den)
        assert time.process_time() - start < 0.05

    def test_totient_bound(self):
        for n in range(60):
            largest = max((d for d in range(1, 2 * n * n + 3) if exactalg._totient(d) <= n), default=0)
            assert largest <= exactalg._totient_bound(n) <= 5 * largest + 1, n


class TestRatFunArith:
    def test_geometric_product(self):
        f = RatFun(Poly.one(), one_minus_t(1))
        g = RatFun(Poly.one(), one_plus_t(1))
        assert f * g == RatFun(Poly.one(), one_minus_t(2))

    def test_add_zero(self):
        f = RatFun(P(1, 2), one_minus_t(3))
        assert f + RatFun.zero() == f

    def test_common_denominator(self):
        f = RatFun(Poly.one(), one_minus_t(2))
        g = RatFun(Poly.t_power(2), one_minus_t(2))
        assert f + g == RatFun(P(1, 0, 1), one_minus_t(2))

    def test_division_by_zero(self):
        with pytest.raises(ZeroDenominator, match="division by the zero function"):
            RatFun.one() / RatFun.zero()

    def test_field_axioms_randomized(self):
        rng = random.Random(31)
        for _ in range(60):
            f, g, h = (RatFun(rand_poly(rng, 3), rand_den(rng)) for _ in range(3))
            assert (f + g) * h == f * h + g * h
            # a divisor's numerator is a product of Phi_d too
            d = RatFun(rand_den(rng), rand_den(rng))
            assert (f / d) * d == f


def rand_ratfun(rng):
    return RatFun(rand_poly(rng, 5), rand_den(rng))


class TestOperatorsMatchConstructor:
    """+, -, * and / against the oracle gcd form of cross-multiplied Polys."""

    def test_randomized(self):
        rng = random.Random(1818)
        for _ in range(80):
            f, g = rand_ratfun(rng), rand_ratfun(rng)
            # a divisor whose numerator is a product of Phi_d, or zero
            q = RatFun(rand_den(rng) if rng.random() < 0.9 else Poly.zero(), rand_den(rng))
            a, b, c, d = f.num, f.den, g.num, g.den
            cases = [(f + g, a * d + c * b, b * d), (f - g, a * d - c * b, b * d)]
            cases.append((f * g, a * c, b * d))
            if q.is_zero:
                with pytest.raises(ZeroDenominator):
                    f / q
            else:
                cases.append((f / q, a * q.den, b * q.num))
            for got, num, den in cases:
                assert pair(got) == canonical(num, den), (f, g, q)

    def test_non_cyclotomic_divisor_raises(self):
        f = RatFun(P(1, 2), one_minus_t(3))
        for num in (P(1, 3, 1), P(2), P(0, 1), P(1, 1, 1, 1) * P(5, -2)):
            with pytest.raises(NotCyclotomic):
                f / RatFun(num, one_minus_t(2))

    def test_cyclotomic_operands_take_no_gcd(self, monkeypatch):
        """The operators trial-divide nothing but a divisor's numerator, once
        per division."""
        rng = random.Random(1919)
        pairs = []
        for _ in range(30):
            # no t^shift on g, whose numerator is the quotient's denominator
            f, g = (
                RatFun(*hand_product(
                    [(rng.randint(1, 6), rng.randint(0, 2))],
                    [(rng.randint(1, 8), rng.randint(1, 2))],
                    shift,
                ))
                for shift in (rng.randint(0, 3), 0)
            )
            pairs.append((f, g, [f.num * g.den + g.num * f.den, f.den * g.den]))
        calls = count_trials(monkeypatch)
        # -g has a negative numerator, so its reciprocal's sign is flipped
        results = [(f + g, f * g, f / g, f / -g) for f, g, _ in pairs]
        assert calls == [g.num for _, g, _ in pairs for _ in range(2)]
        for (f, g, (num, den)), (total, product, quotient, negated) in zip(pairs, results):
            assert pair(total) == canonical(num, den)
            assert pair(product) == canonical(f.num * g.num, f.den * g.den)
            assert pair(quotient) == canonical(f.num * g.den, f.den * g.num)
            assert pair(negated) == canonical(-f.num * g.den, f.den * g.num)


def den_of(ks):
    den = Poly.one()
    for k in ks:
        den = den * one_minus_t(k)
    return den


def per_term_signed_sum(terms):
    """The sum by cross-multiplying the Polys: each term's numerator times
    every other term's denominator, cancelled once into the oracle gcd form."""
    nums, dens = [], []
    for sign, factor, e, ks in terms:
        nums.append(factor.num * scaled(Poly.t_power(e), sign))
        dens.append(factor.den * den_of(ks))
    total, common = Poly.zero(), Poly.one()
    for i, num in enumerate(nums):
        for j, den in enumerate(dens):
            if j != i:
                num = num * den
        total, common = total + num, common * dens[i]
    return canonical(total, common)


def rand_den(rng):
    """A denominator of up to three factors 1 - t^k and 1 + t^k, k <= 8, and
    at most one Phi_d, d <= 30, times a unit +1 or -1."""
    den = Poly((rng.choice([1, -1]),))
    for _ in range(rng.randint(0, 3)):
        den = den * rng.choice([one_minus_t, one_plus_t])(rng.randint(1, 8))
    return den * _cyclotomic(rng.randint(1, 30)) ** rng.randint(0, 1)


def rand_terms(rng, count):
    terms = []
    for _ in range(count):
        factor = RatFun(rand_poly(rng, 5), rand_den(rng))
        ks = tuple(rng.randint(1, 9) for _ in range(rng.randint(0, 4)))
        terms.append((rng.choice([1, -1, 2, -3]), factor, rng.randint(0, 6), ks))
    return terms


class TestSignedSum:
    def test_empty_sum_is_zero(self):
        assert signed_sum([]) == RatFun.zero()

    def test_negative_sign_subtracts(self):
        f = RatFun(P(1, 2), one_minus_t(3))
        assert signed_sum([(-1, f, 0, ())]) == -f
        assert signed_sum([(1, f, 0, ()), (-1, f, 0, ())]) == RatFun.zero()

    def test_repeated_k_squares_its_factor(self):
        got = signed_sum([(1, RatFun.one(), 0, (2, 2))])
        assert got == RatFun(Poly.one(), one_minus_t(2) ** 2)

    def test_two_terms_match_explicit_arithmetic(self):
        f = RatFun(P(1, 1), one_minus_t(2))
        g = RatFun(P(2, 0, 3), one_plus_t(1))
        got = signed_sum([(1, f, 3, (1, 4)), (-1, g, 2, (6,))])
        # cross-multiplied by hand, cancelled once by the constructor and the oracle
        num1, den1 = f.num * Poly.t_power(3), f.den * one_minus_t(1) * one_minus_t(4)
        num2, den2 = g.num * Poly.t_power(2), g.den * one_minus_t(6)
        assert got == RatFun(num1 * den2 - num2 * den1, den1 * den2)
        assert pair(got) == canonical(num1 * den2 - num2 * den1, den1 * den2)

    def test_product_factors(self):
        rng = random.Random(1717)
        for _ in range(30):
            fs = [RatFun(rand_poly(rng, 4), rand_den(rng)) for _ in range(rng.randint(0, 3))]
            num, den = Poly.one(), Poly.one()
            for f in fs:
                num, den = num * f.num, den * f.den
            e, ks = rng.randint(0, 4), tuple(rng.randint(1, 6) for _ in range(rng.randint(0, 2)))
            got = signed_sum([(-2, tuple(fs), e, ks)])
            assert pair(got) == canonical(num * scaled(Poly.t_power(e), -2), den * den_of(ks))

    def test_random_terms_match_per_term_loop(self):
        rng = random.Random(4242)
        for _ in range(40):
            terms = rand_terms(rng, rng.randint(1, 6))
            assert pair(signed_sum(terms)) == per_term_signed_sum(terms)

    def test_generator_input(self):
        terms = rand_terms(random.Random(7), 5)
        assert pair(signed_sum(iter(terms))) == per_term_signed_sum(terms)

    def test_terms_cancelling_to_zero(self):
        rng = random.Random(99)
        for _ in range(20):
            terms = rand_terms(rng, rng.randint(1, 4))
            # the same terms written with the k's moved into the factor
            moved = [(-sign, RatFun(f.num, f.den * den_of(ks)), e, ()) for sign, f, e, ks in terms]
            got = signed_sum(terms + moved)
            assert got == RatFun.zero()
            assert got.den == Poly.one()

    def test_repeated_k(self):
        rng = random.Random(5)
        for _ in range(20):
            k = rng.randint(1, 7)
            f = RatFun(rand_poly(rng, 4) + Poly.one(), rand_den(rng))
            terms = [(1, f, 2, (k,) * rng.randint(2, 4))]
            terms.append((-1, RatFun.one(), 0, (k, k, rng.randint(1, 7))))
            assert pair(signed_sum(terms)) == per_term_signed_sum(terms)

    def test_zero_factor(self):
        f = RatFun(P(1, 2), one_minus_t(3))
        assert signed_sum([(1, RatFun.zero(), 4, (2, 3))]) == RatFun.zero()
        got = signed_sum([(1, RatFun.zero(), 0, (5,)), (1, f, 1, (2,))])
        assert pair(got) == per_term_signed_sum([(1, f, 1, (2,))])

    def test_invalid_exponents_raise(self):
        with pytest.raises(ValueError):
            signed_sum([(1, RatFun.one(), -1, ())])
        with pytest.raises(ValueError):
            signed_sum([(1, RatFun.one(), 0, (2, 0))])

    def test_cyclotomic_products(self):
        for n in range(1, 31):
            prod = Poly.one()
            for d in _divisors(n):
                prod = prod * _cyclotomic(d)
            assert prod == one_minus_t(n), n
        assert _cyclotomic(1) == P(1, -1)
        assert _cyclotomic(6) == P(1, -1, 1)
        assert _cyclotomic(12) == P(1, 0, -1, 0, 1)

    def test_den_factors_multiply_back(self):
        rng = random.Random(31)
        for _ in range(40):
            f = RatFun(Poly.one(), rand_den(rng))
            assert _trial_factors(f.den) == f.factors
            assert _expand(f.factors) == f.den
            assert dict(f.factors) == former.den_factors(f.den)
        m = dict(_trial_factors(one_minus_t(6) * one_minus_t(4)))
        assert m == {1: 2, 2: 2, 3: 1, 4: 1, 6: 1}
        # Phi_6 = 1 - t + t^2, Phi_12 and Phi_30 have index above their degree
        for d in (6, 12, 30):
            assert _trial_factors(_cyclotomic(d) * one_minus_t(1)) == ((1, 1), (d, 1))
        for rest in (P(2, 0, 4), P(1, 3, 1), P(-1)):
            with pytest.raises(NotCyclotomic):
                _trial_factors(one_minus_t(6) * rest)


def hand_product(plus, minus, shift=0):
    """The cyclotomic_quotient arguments as explicit (num, den) products."""
    num = Poly.t_power(shift)
    for a, m in plus:
        num = num * one_plus_t(a) ** m
    den = Poly.one()
    for b, m in minus:
        den = den * one_minus_t(b) ** m
    return num, den


def count_trials(monkeypatch):
    calls = []
    real = exactalg._trial_factors

    def counting(den):
        calls.append(den)
        return real(den)

    monkeypatch.setattr(exactalg, "_trial_factors", counting)
    return calls


TRIAL_DIVISION_COUNT = """
import contextlib, io
from ymseries import cli, exactalg
calls = []
real = exactalg._trial_factors
exactalg._trial_factors = lambda den: calls.append(den) or real(den)
from test_acceptance import (
    RECURSION_CONFIGS, test_criterion_2_exceptional_isomorphisms as criterion_2,
)
from ymseries.closedforms import flat_series
from ymseries.exactalg import render_poly
from ymseries.inversion import build_parabolic_poset, default_gauge_assignment, invert_abstract
from ymseries.rootsys import GroupSpec
from ymseries.strata import enumerate_ab_points, stratum_series, verify_recursion
for argv in (["sp", "--rank", "5"], ["so-odd", "--rank", "5", "--w2", "1"],
             ["so-even", "--rank", "5", "--w2", "1"], ["u", "--rank", "6", "--degree", "1"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["poincare", "--group", *argv, "--genus", "2", "--engine", "both"]) == 0
for argv in (["u", "--rank", "4", "--degree", "1", "--order", "40"],
             ["so-even", "--rank", "4", "--w2", "1", "--order", "40"],
             ["u", "--rank", "3", "--degree", "1", "--order", "80"],
             ["so-odd", "--rank", "3", "--w2", "1", "--order", "60"],
             ["sp", "--rank", "3", "--order", "40"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["verify-recursion", "--group", *argv, "--genus", "2"]) == 0
# criterion 5's stratum series
for fam, n, classes in RECURSION_CONFIGS:
    g = GroupSpec(fam, n)
    for c in classes:
        for pt, _ in enumerate_ab_points(g, c, 2, 20):
            stratum_series(g, pt, 2, ("plus" if c % 2 == 0 else "minus") if pt.is_split else None)
assert verify_recursion(GroupSpec("so-even", 4), 1, 2, 80).holds
poset = build_parabolic_poset(GroupSpec("so-odd", 3), 2)
assert invert_abstract(poset, default_gauge_assignment(poset), 1, 40)[1].is_zero
print(len(calls))
# SU(2)-SU(8) through both engines at genus 2, then criterion 2 at genus 1-5
for n in range(2, 9):
    for engine in ("specialized", "general"):
        flat_series(GroupSpec("su", n), 0, 2, engine)
print(len(calls), sorted({render_poly(den) for den in calls}))
with contextlib.redirect_stdout(io.StringIO()):
    criterion_2()
print(len(calls))
"""


class TestRecordedDenominators:
    """Every value signed_sum and cyclotomic_quotient build carries its
    denominator's Phi_d map, so no sum or product trial-divides."""

    def test_flat_engines_and_recursion_make_no_trial_division(self):
        """In a fresh process, so that no cached series hides a trial
        division: both engines on the four flat-engines bundles, the five
        verify-recursion bench cases through the CLI, criterion 5's stratum
        series, a criterion-4 recursion and a criterion-6 inversion make
        none.  SU(n) divides the U(n) series by the torus factor
        (1 + t)^{2 ell} / (1 - t^2), which trial-divides the divisor's
        numerator (1 + t)^{2 ell - 1} once per division: 14 times for
        SU(2)-SU(8) through both engines at genus 2, and 20 more in
        criterion 2 (four SU series at each genus 1-5)."""
        tests = os.path.dirname(__file__)
        src = os.path.join(tests, "..", "src")
        proc = subprocess.run(
            [sys.executable, "-c", TRIAL_DIVISION_COUNT],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join([src, tests])},
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "0\n14 ['1 + 3*t + 3*t^2 + t^3']\n34\n"

    def test_recorded_maps_match_trial_division(self):
        """Both engines at n <= 6 build each result with the Phi_d map that
        trial division finds for its denominator."""
        for fam, lo in (("u", 1), ("so-odd", 1), ("so-even", 2), ("sp", 1)):
            for n in range(lo, 7):
                for c in range(n) if fam == "u" else (0, 1) if fam.startswith("so") else (0,):
                    for engine in ("specialized", "general"):
                        f = flat_series(GroupSpec(fam, n), c, 2, engine)
                        assert f.factors == _trial_factors(f.den), (fam, n, c, engine)
                        assert _expand(f.factors) == f.den

    def test_su_torus_divisor_factors(self):
        """The one division in the library: SU(n) by the torus factor, whose
        numerator (1 + t)^{2 ell - 1} is a power of Phi_2."""
        for ell in range(6):
            torus = _su_torus(ell)
            assert torus.num == one_plus_t(1) ** max(2 * ell - 1, 0)
            inverse = RatFun(torus.den, torus.num)
            assert inverse.factors == (((2, 2 * ell - 1),) if ell else ())
            assert torus * inverse == RatFun.one()
        for n in range(2, 6):
            for engine in ("specialized", "general"):
                f = flat_series(GroupSpec("su", n), 0, 2, engine)
                assert f * _su_torus(2) == flat_series(GroupSpec("u", n), 0, 2, engine)


class TestCyclotomicQuotient:
    def test_matches_gcd_constructor_randomized(self, monkeypatch):
        rng = random.Random(808)
        cases = []
        for _ in range(80):
            plus = [(rng.randint(1, 12), rng.randint(0, 4)) for _ in range(rng.randint(0, 4))]
            minus = [(rng.randint(1, 24), rng.randint(0, 3)) for _ in range(rng.randint(0, 5))]
            cases.append((plus, minus, rng.randint(0, 5)))
        expected = [canonical(*hand_product(*case)) for case in cases]
        calls = count_trials(monkeypatch)
        for case, expect in zip(cases, expected):
            assert pair(cyclotomic_quotient(*case)) == expect, case
        assert calls == []

    def test_numerator_cancels_completely(self):
        # (1 + t)(1 + t^2)(1 + t^4) = (1 - t^8) / (1 - t)
        plus, minus = [(1, 1), (2, 1), (4, 1)], [(8, 1)]
        got = cyclotomic_quotient(plus, minus)
        assert got == RatFun(Poly.one(), one_minus_t(1)) == RatFun(*hand_product(plus, minus))
        assert pair(got) == canonical(*hand_product(plus, minus))
        assert cyclotomic_quotient([(3, 2)], [(6, 2)]) == RatFun(Poly.one(), one_minus_t(3) ** 2)

    def test_nothing_cancels(self):
        # 1 + t^2 = Phi_4 shares no factor with 1 - t^3 = Phi_1 Phi_3
        got = cyclotomic_quotient([(2, 3)], [(3, 1)])
        assert got.num == one_plus_t(2) ** 3 and got.den == one_minus_t(3)
        assert cyclotomic_quotient([], [], shift=4) == RatFun.t_power(4)


class TestSignedSumCancellation:
    """The exact-division path of signed_sum against the oracle gcd form."""

    def test_cyclotomic_sums_match_constructor(self, monkeypatch):
        rng = random.Random(606)
        sums = []
        for _ in range(40):
            terms = []
            for _ in range(rng.randint(1, 5)):
                plus = [(rng.randint(1, 6), rng.randint(0, 3)) for _ in range(rng.randint(0, 2))]
                minus = [(rng.randint(1, 8), 1) for _ in range(rng.randint(0, 3))]
                factor = RatFun(*hand_product(plus, minus))
                ks = tuple(rng.randint(1, 9) for _ in range(rng.randint(0, 3)))
                terms.append((rng.choice([1, -1, 2, -2]), factor, rng.randint(0, 6), ks))
            sums.append((terms, per_term_signed_sum(terms)))
        calls = count_trials(monkeypatch)
        for terms, expect in sums:
            assert pair(signed_sum(terms)) == expect
        assert calls == []

    def test_denominator_cancels_completely(self, monkeypatch):
        expect = RatFun(Poly.one(), one_minus_t(3))
        calls = count_trials(monkeypatch)
        # (1 - t^6) / (1 - t^6) and (1 - t^2) / ((1 - t^2)(1 - t^3))
        terms = [(1, RatFun.one(), 0, (6,)), (-1, RatFun.one(), 6, (6,))]
        assert signed_sum(terms) == RatFun.one()
        terms = [(1, RatFun.one(), 0, (2, 3)), (-1, RatFun.one(), 2, (2, 3))]
        assert signed_sum(terms) == expect
        assert calls == []

    def test_zero_sum_has_denominator_one(self):
        f = RatFun(*hand_product([(2, 2)], [(3, 1), (4, 1)]))
        got = signed_sum([(1, f, 2, (5,)), (-1, f, 2, (5,))])
        assert got.is_zero and got.den == Poly.one()

    def test_opaque_factor_takes_the_constructor(self):
        """A factor with a non-cyclotomic denominator is refused where it is
        built, so no signed_sum term carries one."""
        den = P(1, 3, 1) * one_minus_t(2)
        with pytest.raises(NotCyclotomic, match=re.escape(f"denominator {render_poly(den)} is not")):
            RatFun(P(1, 2), den)


def wide_num(rng, bits):
    """A numerator of up to 6 terms, about half of them zero, of up to bits bits."""
    cs = [rng.choice([0, rng.randint(-(2**bits), 2**bits)]) for _ in range(rng.randint(0, 5))]
    return Poly(cs + [rng.choice([-1, 1]) * rng.randint(2 ** (bits - 1), 2**bits)])


def wide_den(rng, top, count=3):
    """A product of up to count random factors 1 - t^k, 1 + t^k and Phi_k,
    k <= top, times a unit +1 or -1."""
    den = Poly((rng.choice([1, -1]),))
    for _ in range(rng.randint(0, count)):
        den = den * rng.choice([one_minus_t, one_plus_t, _cyclotomic])(rng.randint(1, top))
    return den


def wide_factor(rng, bits, top):
    """A RatFun with coefficients of up to bits bits over random factors
    1 - t^k, 1 + t^k and Phi_k with k <= top."""
    return RatFun(wide_num(rng, bits), wide_den(rng, top))


def wide_terms(rng, count, signs=(1, -1, 2, -2, 3, -3)):
    """Terms with coefficients of 2 to 301 bits over factors up to Phi_30."""
    terms = []
    for _ in range(count):
        bits = rng.choice([2, 8, 63, 299, 300, 301])
        factor = wide_factor(rng, bits, 30)
        if rng.random() < 0.25:
            factor = (factor, wide_factor(rng, bits, 30))
        ks = tuple(rng.randint(1, 12) for _ in range(rng.randint(0, 3)))
        terms.append((rng.choice(signs), factor, rng.randint(0, 6), ks))
    return terms


class TestPackedSumMatchesFormer:
    """The packed tree sum and its stride cancellation against the former
    dense tree sum and its fold-and-divide cancellation (tests/former_signed_sum.py)."""

    def check(self, terms):
        got = signed_sum(terms)
        assert pair(got) == former.signed_sum(terms), terms
        return got

    def test_random_terms(self):
        rng = random.Random(2323)
        for _ in range(80):
            self.check(wide_terms(rng, rng.randint(1, 6)))

    def test_single_terms(self):
        rng = random.Random(2424)
        for _ in range(60):
            self.check(wide_terms(rng, 1))

    def test_negative_totals(self):
        rng = random.Random(2525)
        for _ in range(30):
            got = self.check(wide_terms(rng, rng.randint(1, 4), signs=(-1, -2, -3)))
            assert not got.is_zero

    def test_sums_cancelling_to_zero(self):
        rng = random.Random(2626)
        for _ in range(30):
            terms = wide_terms(rng, rng.randint(1, 3))
            negated = [(-sign, factor, e, ks) for sign, factor, e, ks in terms]
            rng.shuffle(negated)
            got = self.check(terms + negated)
            assert got.is_zero and got.den == Poly.one()

    def test_spread_exponents(self):
        # exponents over 0..400 in random order: the tree shifts a node's
        # higher child by the gap after the cofactor products, and the root
        # by the lowest exponent of all
        rng = random.Random(2727)
        for _ in range(20):
            terms = wide_terms(rng, rng.randint(2, 8))
            terms = [(sign, factor, rng.randint(0, 400), ks) for sign, factor, _, ks in terms]
            got = self.check(terms)
            # every exponent raised by the same amount moves the root shift alone
            lifted = [(sign, factor, e + 37, ks) for sign, factor, e, ks in terms]
            assert signed_sum(lifted) == got * RatFun.t_power(37)

    def test_shared_factor_objects(self, monkeypatch):
        # one RatFun object in several terms and inside product tuples, next
        # to an equal but distinct copy
        rng = random.Random(2828)
        for _ in range(20):
            f, g = wide_factor(rng, 299, 30), wide_factor(rng, 8, 12)
            copy = RatFun(f.num, f.den)
            assert copy == f and copy.num is not f.num
            self.check(
                [
                    (1, f, rng.randint(0, 9), ()),
                    (-2, f, rng.randint(0, 9), (4,)),
                    (3, (f, g), rng.randint(0, 9), ()),
                    (-1, (g, f, f), rng.randint(0, 9), (2, 6)),
                    (1, copy, rng.randint(0, 9), ()),
                    (2, (copy, f), rng.randint(0, 9), (3,)),
                ]
            )
        # each distinct numerator object is packed once per sum
        packed = []
        real = exactalg._pack
        monkeypatch.setattr(exactalg, "_pack", lambda cs, width: packed.append(cs) or real(cs, width))
        terms = [(1, f, 0, ()), (-2, f, 3, (4,)), (1, copy, 1, ()), (5, f, 2, ()), (-1, copy, 0, (2,))]
        got = signed_sum(terms)
        shared = [cs for cs in packed if cs == f.num.coeffs]
        assert len(shared) == 2 and {id(cs) for cs in shared} == {id(f.num.coeffs), id(copy.num.coeffs)}
        monkeypatch.undo()
        assert pair(got) == former.signed_sum(terms)

    def test_coefficients_at_the_slot_bound(self):
        # one monomial numerator: the width bound is the coefficient itself
        for bits in range(1, 310, 3):
            for c in (2**bits - 1, 2**bits, -(2**bits)):
                self.check([(1, RatFun(scaled(Poly.t_power(1), c), one_minus_t(4)), 0, ())])
                self.check([(-3, RatFun(Poly((c,))), 2, (6,)), (-3, RatFun.one(), 0, ())])


def schoolbook_truncated_sum(terms, order):
    """sum t**shift * prod factors mod t**(order+1), one coefficient product at a time."""
    out = [0] * (order + 1)
    for shift, factors in terms:
        if shift > order:
            continue
        reach = order - shift + 1
        product = [1] + [0] * (reach - 1)
        for f in factors:
            cut = [0] * reach
            for i, a in enumerate(product):
                for j, b in enumerate(f[: reach - i]):
                    cut[i + j] += a * b
            product = cut
        for i, x in enumerate(product):
            out[shift + i] += x
    return tuple(out)


def rand_factor(rng, order):
    """A RatFun whose numerator has 0 to order + 6 terms, small or up to
    2**200 in size, over 1 or, in half the draws, a product of 1 - t**k
    and 1 + t**k."""
    bits = rng.choice((2, 8, 60, 199, 200))
    cs = [rng.randint(-(2**bits), 2**bits) for _ in range(rng.randint(0, order + 6))]
    if cs and rng.random() < 0.3:
        cs[rng.randrange(len(cs))] = rng.choice((2**200, -(2**200), 2**200 - 1))
    den = Poly.one()
    if rng.random() < 0.5:
        for _ in range(rng.randint(1, 3)):
            den = den * rng.choice([one_minus_t, one_plus_t])(rng.randint(1, order + 2))
    return RatFun(Poly(cs), den)


class TestTruncatedSum:
    """The packed truncated sum against schoolbook truncated products of
    each factor's expansion."""

    def check(self, terms, order):
        got = truncated_sum(terms, order)
        assert got.order == order
        expanded = [
            (shift, [series_expand(f, order).coeffs for f in factors]) for shift, factors in terms
        ]
        assert got.coeffs == schoolbook_truncated_sum(expanded, order), (terms, order)
        return got

    def rand_terms(self, rng, order, count):
        pool = [rand_factor(rng, order) for _ in range(rng.randint(1, 4))]
        terms = []
        for _ in range(count):
            # shared factor objects reach different orders from different shifts
            factors = [rng.choice(pool) if rng.random() < 0.5 else rand_factor(rng, order)
                       for _ in range(rng.randint(0, 4))]
            terms.append((rng.randint(0, order + 3), factors))
        return terms

    def test_random_terms(self):
        rng = random.Random(4141)
        for _ in range(150):
            order = rng.randint(0, 14)
            self.check(self.rand_terms(rng, order, rng.randint(1, 8)), order)

    def test_order_zero(self):
        rng = random.Random(4242)
        for _ in range(40):
            self.check(self.rand_terms(rng, 0, rng.randint(1, 5)), 0)
        terms = [(0, [RatFun(P(-3, 5)), RatFun(P(2**200, 1))])]
        assert self.check(terms, 0).coeffs == (-3 * 2**200,)

    def test_single_factors(self):
        rng = random.Random(4343)
        for _ in range(60):
            order = rng.randint(0, 12)
            f = rand_factor(rng, order)
            shift = rng.randint(0, order)
            got = self.check([(shift, [f])], order)
            assert got.coeffs == ((0,) * shift + series_expand(f, order).coeffs)[: order + 1]

    def test_shared_factor_expanded_once(self, monkeypatch):
        # one object expands once, to the longest reach of a term using it;
        # an equal object is another factor
        calls = []
        real = exactalg.series_expand

        def recording(f, order):
            calls.append((f, order))
            return real(f, order)

        monkeypatch.setattr(exactalg, "series_expand", recording)
        f = RatFun(P(1, 2, -3), one_minus_t(2) * one_plus_t(3))
        g = RatFun(P(1, 2, -3), one_minus_t(2) * one_plus_t(3))
        terms = [(7, [f, f]), (3, [f]), (12, [f]), (5, [g, f]), (11, [g])]
        got = truncated_sum(terms, 10)
        assert [(f is h, order) for h, order in calls] == [(True, 7), (False, 5)]
        monkeypatch.undo()
        assert got == self.check(terms, 10)

    def test_empty_sums(self):
        assert self.check([], 5).coeffs == (0,) * 6
        assert self.check([(6, [RatFun(P(1, 2))]), (9, [])], 5).is_zero
        # the empty product is 1 and the zero factor is 0
        assert self.check([(2, [])], 4).coeffs == (0, 0, 1, 0, 0)
        assert self.check([(0, [RatFun(P(1, 1)), RatFun.zero()])], 4).is_zero

    def test_terms_cancelling_to_zero(self):
        rng = random.Random(4444)
        for _ in range(30):
            order = rng.randint(0, 10)
            terms = self.rand_terms(rng, order, rng.randint(1, 4))
            negated = [(shift, [-factors[0]] + factors[1:]) for shift, factors in terms if factors]
            terms = [term for term in terms if term[1]]
            assert self.check(terms + negated, order).is_zero

    def test_coefficients_at_the_slot_bound(self):
        # one factor and one term: the width bound is the l1 norm of the prefix
        for bits in range(1, 210, 3):
            for c in (2**bits - 1, 2**bits, -(2**bits)):
                self.check([(0, [RatFun(P(c))])], 3)
                self.check([(1, [RatFun(P(c, -c, c))]), (0, [RatFun(P(0, c))])], 2)
                self.check([(0, [RatFun(P(1, -1)), RatFun(P(c, c, c, c))])], 3)
                self.check([(0, [RatFun(P(c), one_minus_t(1))])], 3)

    def test_negative_shift_raises(self):
        with pytest.raises(ValueError):
            truncated_sum([(-1, [RatFun.one()])], 3)

    @pytest.mark.parametrize("order", [-1, -3])
    @pytest.mark.parametrize("terms", [[], [(0, [RatFun.one()]), (2, [RatFun(P(1, 2))])]])
    def test_negative_order_raises(self, order, terms):
        # refused as series_expand refuses it, with or without terms
        with pytest.raises(InputError, match="^order must be nonnegative$"):
            series_expand(RatFun.one(), order)
        with pytest.raises(InputError, match="^order must be nonnegative$"):
            truncated_sum(terms, order)


class TestStrides:
    """Division by Phi_d through binomial strides against the oracle's exact division."""

    def test_quotient_matches_divexact(self):
        rng = random.Random(6060)
        for d in range(1, 61):
            phi = former.cyclotomic(d)
            assert _cyclotomic(d) == phi, d
            # products of length below d reach the stride e = d with fewer
            # coefficients than the stride
            for length in (1, 2, max(1, d - phi.degree - 1), rng.randint(1, 40)):
                q = Poly(rand_coeffs(rng, length, rng.choice([1, 8, 300])))
                p = phi * q
                assert _phi_quotient(list(p.coeffs), d) == list(divexact(p, phi).coeffs), d
                assert divexact(p, phi) == q
                # a nonzero remainder of degree below deg Phi_d
                p = p + Poly(rand_coeffs(rng, rng.randint(1, phi.degree), 8))
                with pytest.raises(ValueError):
                    divexact(p, phi)
                assert _phi_quotient(list(p.coeffs), d) is None, (d, length)

    def test_short_operands_are_not_multiples(self):
        rng = random.Random(6161)
        for d in range(1, 61):
            phi = former.cyclotomic(d)
            for length in range(1, phi.degree + 1):
                cs = rand_coeffs(rng, length, 8)
                with pytest.raises(ValueError):
                    divexact(Poly(cs), phi)
                assert _phi_quotient(cs, d) is None, (d, length)


def record_strides(monkeypatch):
    """Record each _strided pass as (up, down, whether it divided)."""
    passes = []
    real = exactalg._strided

    def recording(cs, up, down):
        quotient = real(cs, up, down)
        passes.append((up, down, quotient is not None))
        return quotient

    monkeypatch.setattr(exactalg, "_strided", recording)
    return passes


def divisor_map(rng, es):
    """A {d: multiplicity} map holding every divisor of each e, as
    signed_sum builds one from denominators 1 - t**e, with a few single
    Phi_d on top."""
    mult = {}
    for e in es:
        for d in _divisors(e):
            mult[d] = mult.get(d, 0) + 1
    for _ in range(rng.randint(0, 2)):
        d = rng.randint(1, 60)
        mult[d] = mult.get(d, 0) + rng.randint(1, 2)
    return mult


class TestCancelMatchesFormer:
    """Whole strides behind the t = 2 screen against the former per-Phi_d
    cancellation (tests/former_cancel.py)."""

    def check(self, cs, mult):
        got = _cancel(list(cs), dict(mult))
        assert got == former_cancel(list(cs), mult), (cs, mult)
        return got

    def test_cyclotomic_products(self):
        # numerators prod Phi_d**k times a random polynomial, over maps
        # whose multiplicities lie above and below the true orders
        rng = random.Random(7070)
        for _ in range(150):
            ds = rng.sample(range(1, 61), rng.randint(0, 4)) + rng.sample([30, 42, 60], 1)
            num = Poly(rand_coeffs(rng, rng.randint(1, 12), rng.choice([1, 8, 300])))
            mult = {}
            for d in ds:
                k = rng.randint(0, 3)
                num = num * _cyclotomic(d) ** k
                mult[d] = mult.get(d, 0) + max(0, k + rng.randint(-2, 2))
            for d in rng.sample(range(1, 61), rng.randint(0, 3)):
                mult.setdefault(d, rng.randint(1, 3))
            self.check(num.coeffs, mult)

    def test_whole_strides(self, monkeypatch):
        # products of 1 - t**e over maps of 1 - t**e: whole strides that
        # divide, strides that stop part way, and single Phi_d left after them
        passes = record_strides(monkeypatch)
        rng = random.Random(7171)
        for _ in range(150):
            num = Poly(rand_coeffs(rng, rng.randint(1, 6), rng.choice([1, 8, 64])))
            for _ in range(rng.randint(0, 4)):
                k = rng.choice([1, 2, 3, 4, 6, 10, 12, 30, 42, 60])
                num = num * rng.choice([one_minus_t, one_plus_t, _cyclotomic])(k)
            es = [rng.choice([1, 2, 4, 6, 8, 12, 30, 42, 60]) for _ in range(rng.randint(1, 4))]
            self.check(num.coeffs, divisor_map(rng, es))
        strides = [divided for up, down, divided in passes if not up and len(down) == 1 and down[0] > 1]
        assert strides.count(True) > 50 and strides.count(False) > 5

    def test_exact_products_cancel_completely(self):
        rng = random.Random(7272)
        for _ in range(40):
            mult = divisor_map(rng, [rng.choice([6, 12, 30, 42, 60]) for _ in range(rng.randint(1, 3))])
            q = Poly(rand_coeffs(rng, rng.randint(1, 5), 8))
            assert self.check((q * _expand(mult.items())).coeffs, mult) == (q, ())

    def test_zero_numerator_cancels_every_factor(self):
        for mult in ({}, {1: 3}, {1: 1, 2: 2, 3: 1, 6: 1}, {30: 2, 7: 1}):
            assert self.check([], mult) == (Poly.zero(), ())

    def test_screen_false_positives_fall_back(self, monkeypatch):
        """A constant Phi_d(2) k, or t**j Phi_d(2), passes the screen for
        Phi_d but is no multiple of it: the division is tried, fails, and
        the factor stays."""
        passes = record_strides(monkeypatch)
        for d in (2, 3, 5, 6, 7, 12, 30, 42, 60):
            at_two = _cyclotomic_at_two(d)
            for cs in ([at_two], [-3 * at_two], [0] * 4 + [at_two], [0, 0, 5 * at_two]):
                passes.clear()
                assert self.check(cs, {d: 2}) == (Poly(cs), ((d, 2),)), (d, cs)
                assert passes and not any(divided for *_, divided in passes), (d, cs)
        # 1 - 2**6 = -63 divides 63, but 1 - t**6 divides no constant
        passes.clear()
        mult = {1: 1, 2: 1, 3: 1, 6: 1}
        assert self.check([63], mult) == (Poly((63,)), tuple(mult.items()))
        assert passes and not any(divided for *_, divided in passes)

    def test_screen_skips_divisions(self, monkeypatch):
        passes = record_strides(monkeypatch)
        # Phi_5(2) = 31 and Phi_7(2) = 127 do not divide 3, the value of 1 + t
        assert _cancel([1, 1], {5: 2, 7: 1, 35: 1}) == (Poly((1, 1)), ((5, 2), (7, 1), (35, 1)))
        assert passes == []
        # the value at 2 drops to 3 with the one Phi_5 that divides
        num = _cyclotomic(5) * P(1, 1)
        passes.clear()
        assert _cancel(list(num.coeffs), {5: 2}) == (P(1, 1), ((5, 1),))
        assert len(passes) == 1
        # after the whole stride 1 - t**5 the value at 2 is 1, which rules
        # out the second Phi_5
        passes.clear()
        assert _cancel(list(one_minus_t(5).coeffs), {1: 1, 5: 2}) == (Poly.one(), ((5, 1),))
        assert passes == [((), (5,), True)]
        # 1 + t passes the t = 2 screen of 1 - t**2 and of Phi_1 = 1 - t, but
        # its coefficients sum to 2, so no stride is tried; then
        # Phi_2 = 1 + t divides by the Mobius rule, (1 - t**2) / (1 - t)
        passes.clear()
        assert _cancel([1, 1], {1: 2, 2: 1}) == (Poly.one(), ((1, 2),))
        assert passes == [((1,), (2,), True)]
        # after the stride 1 - t**2 the quotient 1 + t sums to 2, so no
        # second stride is tried, though 1 - 2**2 divides its value 3
        passes.clear()
        num = one_minus_t(2) * P(1, 1)
        assert _cancel(list(num.coeffs), {1: 2, 2: 2}) == (Poly.one(), ((1, 1),))
        assert passes == [((), (2,), True), ((1,), (2,), True)]


class TestCyclotomicAtTwo:
    def test_matches_evaluation(self):
        for d in range(1, 201):
            assert _cyclotomic_at_two(d) == sum(c << i for i, c in enumerate(_cyclotomic(d).coeffs)), d


class TestRatFunEq:
    def test_unreduced_pair(self):
        a = RatFun(P(1, 0, 1), one_minus_t(2))
        b = RatFun(one_minus_t(4), one_minus_t(2) * one_minus_t(2))
        assert ratfun_eq(a, b)

    def test_zeros(self):
        assert ratfun_eq(RatFun.zero(), RatFun(Poly.zero(), one_minus_t(1)))

    def test_distinct(self):
        assert not ratfun_eq(
            RatFun(Poly.one(), one_minus_t(1)), RatFun(Poly.one(), one_plus_t(1))
        )

    def test_eq_iff_series_of_difference_vanishes(self):
        rng = random.Random(91)
        for _ in range(40):
            g = RatFun(rand_poly(rng, 3), rand_den(rng))
            # half the time f equals g, written over a longer denominator
            extra = rand_den(rng)
            num = g.num * extra if rng.random() < 0.5 else rand_poly(rng, 3)
            f = RatFun(num, g.den * extra)
            diff = f - g
            n = diff.num.degree + diff.den.degree + 1
            zero_series = series_expand(diff, max(n, 1)).is_zero
            assert ratfun_eq(f, g) == zero_series == (f == g)


class TestSeriesExpand:
    def test_geometric(self):
        f = RatFun(Poly.one(), one_minus_t(2))
        assert series_expand(f, 6).coeffs == (1, 0, 1, 0, 1, 0, 1)

    def test_binomial_over_geometric(self):
        f = RatFun(one_plus_t(1) ** 4, one_minus_t(2))
        assert series_expand(f, 4).coeffs == (1, 4, 7, 8, 8)

    def test_shifted_geometric(self):
        f = RatFun(Poly.t_power(1), one_minus_t(2))
        assert series_expand(f, 5).coeffs == (0, 1, 0, 1, 0, 1)

    def test_pole_at_zero(self):
        # a pole at t = 0 is refused where the value is built
        with pytest.raises(NotCyclotomic):
            series_expand(RatFun(Poly.one(), Poly.t_power(1)), 3)

    def test_non_integer(self):
        # so is an integer content, so no series has a fractional coefficient
        with pytest.raises(NotCyclotomic, match="denominator 2 is not"):
            series_expand(RatFun(P(1, 1), P(2)), 3)

    @pytest.mark.parametrize(
        "num,den,message",
        [
            (P(1, 1), P(2), "coefficient of t^0 is 1/2"),
            (P(2, 1), P(2), "coefficient of t^1 is 1/2"),
            (P(-1), P(3, 1), "coefficient of t^0 is -1/3"),
            (P(3, 0, 1), P(3, 3), "coefficient of t^2 is 4/3"),
        ],
    )
    def test_non_integer_message(self, num, den, message):
        # the dense recurrence on the raw pair meets the fractional
        # coefficient; the constructor refuses the pair and names its
        # denominator
        with pytest.raises(ExactnessError) as err:
            dense_series_expand(num, den, 5)
        assert str(err.value) == message
        with pytest.raises(NotCyclotomic) as err:
            RatFun(num, den)
        assert str(err.value) == f"denominator {render_poly(den)} is not a product of cyclotomic polynomials"

    @pytest.mark.parametrize("d0", [1, -1, 2, 3])
    @pytest.mark.parametrize("density", [0.1, 0.5, 1.0])
    def test_matches_dense_recurrence(self, d0, density):
        # d0 times a product of up to 10 * density factors 1 - t^k, 1 + t^k
        # and Phi_k, k <= 30, so den(0) = d0.  For d0 = +-1 the sparse
        # recurrence matches the dense one on the canonical value.  For
        # |d0| > 1 the constructor refuses the pair, whether the dense
        # recurrence finds its series integral (a numerator that is a
        # multiple of den) or meets a fractional coefficient
        rng = random.Random(1000 * d0 + int(10 * density))
        outcomes = set()
        for _ in range(80):
            den = wide_den(rng, 30, int(10 * density))
            den = den * Poly((d0 * den[0],))
            num = den * rand_poly(rng, 8) if rng.random() < 0.5 else rand_poly(rng, 8)
            order = rng.randint(0, 50)
            if abs(d0) > 1:
                with pytest.raises(NotCyclotomic):
                    RatFun(num, den)
                try:
                    dense_series_expand(num, den, order)
                    outcomes.add("integral")
                except ExactnessError:
                    outcomes.add("fractional")
                continue
            f = RatFun(num, den)
            assert f.den[0] == 1
            assert series_expand(f, order).coeffs == dense_series_expand(f.num, f.den, order)
            outcomes.add("integral")
        assert outcomes == ({"integral"} if abs(d0) == 1 else {"integral", "fractional"})

    def test_negative_coefficients(self):
        # (1 - 2t) / (1 - t) = 1 - t - t^2 - ...
        f = RatFun(P(1, -2), P(1, -1))
        assert series_expand(f, 4).coeffs == (1, -1, -1, -1, -1)

    def test_cauchy_product(self):
        rng = random.Random(55)
        for _ in range(40):
            f = RatFun(rand_poly(rng, 4), rand_den(rng))
            g = RatFun(rand_poly(rng, 4), rand_den(rng))
            n = 12
            sf = series_expand(f, n).coeffs
            sg = series_expand(g, n).coeffs
            sfg = series_expand(f * g, n).coeffs
            cauchy = tuple(
                sum(sf[j] * sg[k - j] for j in range(k + 1)) for k in range(n + 1)
            )
            assert sfg == cauchy


class TestSeriesByStrides:
    """series_expand nets each Phi_d**m into Mobius strides 1 - t**e; against
    the former dense recurrence on the expanded denominator
    (tests/former_series_expand.py) where the strides' edges lie: several
    primes in d, strides cancelling across factors, strides longer than
    the order, repeated factors and numerators longer than the order."""

    # Phi_d with three or four distinct primes in d
    WIDE = (30, 42, 105, 210)

    def check(self, f, order):
        got = series_expand(f, order)
        assert got.order == order
        assert got.coeffs == dense_series_expand(f.num, f.den, order), (f, order)
        return got.coeffs

    def test_every_order_to_400(self):
        rng = random.Random(3201)
        cases = [
            flat_series(GroupSpec("sp", 4), 0, 2),
            RatFun(P(1, -3, 2), _expand([(30, 2), (42, 1), (105, 1), (210, 1)])),
            RatFun(wide_num(rng, 60), _expand([(1, 3), (2, 2), (6, 1), (210, 2)])),
        ]
        for f in cases:
            full = self.check(f, 400)
            for order in range(401):
                assert series_expand(f, order).coeffs == full[: order + 1], (f, order)

    def test_many_prime_cyclotomics(self):
        rng = random.Random(3202)
        for d in self.WIDE:
            for m in (1, 2, 3):
                f = RatFun(Poly(rand_coeffs(rng, rng.randint(1, 20), 8)), _cyclotomic(d) ** m)
                assert f.factors == ((d, m),)
                for order in (0, 1, d - 1, d, d + 1, 2 * d + 1, 400):
                    self.check(f, order)

    def test_strides_cancel_across_factors(self):
        # every Phi_d with d | e is 1 - t**e: one stride, its Mobius strides
        # cancelled across the factors
        for e in self.WIDE:
            for m in (1, 2):
                f = RatFun(Poly.one(), _expand([(d, m) for d in _divisors(e)]))
                assert f.factors == tuple((d, m) for d in _divisors(e))
                got = self.check(f, 3 * e)
                assert got == series_expand(RatFun(Poly.one(), one_minus_t(e) ** m), 3 * e).coeffs
                assert got[: e] == (1,) + (0,) * (e - 1) and got[e] == m
        rng = random.Random(3203)
        for _ in range(40):
            ds = rng.sample(_divisors(210), rng.randint(2, 8)) + rng.sample(self.WIDE, 2)
            mult = {d: rng.randint(1, 3) for d in ds}
            f = RatFun(Poly(rand_coeffs(rng, rng.randint(1, 30), 8)), _expand(mult.items()))
            self.check(f, rng.choice([0, 7, 29, 30, 105, 209, 210, 211, 400]))

    def test_strides_longer_than_the_order(self):
        # below the shortest stride the series is the cut numerator
        rng = random.Random(3204)
        for e in (1, 2, 17, 50, 210):
            for m in (1, 2, 4):
                num = Poly(rand_coeffs(rng, rng.randint(1, 2 * e + 2), 8))
                f = RatFun(num, one_minus_t(e) ** m)
                for order in sorted({0, e // 2, e - 1}):
                    got = self.check(f, order)
                    assert got == (f.num.coeffs + (0,) * (order + 1))[: order + 1]
                self.check(f, e)
                self.check(f, 3 * e + 1)

    def test_numerators_longer_than_the_order(self):
        rng = random.Random(3205)
        longer = 0
        for _ in range(200):
            order = rng.randint(0, 40)
            num = Poly(rand_coeffs(rng, rng.randint(order + 2, 3 * order + 5), rng.choice([1, 8, 200])))
            f = RatFun(num, wide_den(rng, 60, 4))
            longer += f.num.degree > order
            self.check(f, order)
        assert longer > 190

    def test_zero_function(self):
        for order in (0, 1, 5, 400):
            assert series_expand(RatFun.zero(), order).coeffs == (0,) * (order + 1)
            assert series_expand(RatFun(Poly.zero(), one_minus_t(3)), order).is_zero


class TestRendering:
    def test_poly_text(self):
        assert render_poly(P(1, 0, -2, 0, 1)) == "1 - 2*t^2 + t^4"
        assert render_poly(Poly.zero()) == "0"
        assert render_poly(P(0, -1)) == "-t"

    def test_ratfun_text(self):
        f = RatFun(P(1, 0, 1), one_minus_t(2))
        assert render_ratfun(f) == "(1 + t^2)/(1 - t^2)"

    def test_latex(self):
        f = RatFun(P(1, 0, 1), one_minus_t(2))
        assert latex_ratfun(f) == "\\frac{1 + t^{2}}{1 - t^{2}}"

    def test_round_trip_random(self):
        rng = random.Random(77)
        for _ in range(120):
            num = rand_poly(rng)
            f = RatFun(num, rand_den(rng))
            assert parse_ratfun(render_ratfun(f)) == f
            assert parse_poly(render_poly(num)) == num

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            parse_poly("1 + q^2")
        with pytest.raises(ParseError):
            parse_poly("")

    @pytest.mark.parametrize(
        "text", ["t^2 + 5*t^-1", "1 - t^-1", "(1)/(1 - t^-1 + t)", "t^-6"]
    )
    def test_negative_exponents_refused(self, text):
        with pytest.raises(ParseError, match=r"bad term at '\^-"):
            parse_ratfun(text)

    @pytest.mark.parametrize(
        "text, former", [("*t", P(0, 1)), ("1 + *t", P(1, 1)), ("t^+5", P(0, 0, 0, 0, 0, 1))]
    )
    def test_noncanonical_spellings_refused(self, text, former):
        assert former_parse_poly(text) == former
        with pytest.raises(ParseError):
            parse_poly(text)


class TestParserMatchesFormer:
    """parse_poly against the former hand tokenizer on random strings."""

    # what the former reader accepted and parse_poly refuses: a signed
    # exponent, and a '*' with no coefficient before it
    REFUSED = re.compile(r"\^[+-]|(?<!\d)\*t")

    @staticmethod
    def outcome(parse, text):
        try:
            return parse(text)
        except ParseError:
            return ParseError
        except Exception as exc:  # the former reader's IndexError
            return type(exc)

    def test_random_corpus(self):
        rng = random.Random(3301)
        alphabet = "0123456789t^*+- "
        seen = set()
        for _ in range(20000):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 10)))
            # as an exponent, a run of 4 to 10 digits asks for a list of up to 10**10 slots
            if re.search(r"\d{4}", text.replace(" ", "")):
                continue
            former, new = self.outcome(former_parse_poly, text), self.outcome(parse_poly, text)
            if isinstance(new, Poly):
                assert former == new, text
                seen.add("read")
            else:
                assert new is ParseError, text
                if isinstance(former, Poly):
                    assert self.REFUSED.search(text.replace(" ", "")), text
                    seen.add("refused")
        assert seen == {"read", "refused"}


class TestCoeffVector:
    def test_length_checked(self):
        # the order is read off the length, and a difference needs equal ones
        assert CoeffVector((1, 2)).order == 1
        with pytest.raises(ValueError, match="order mismatch"):
            CoeffVector((1, 2)) - CoeffVector((1, 2, 3))

    def test_sub(self):
        a = CoeffVector((1, 2, 3))
        b = CoeffVector((1, 1, 1))
        assert (a - b).coeffs == (0, 1, 2)
