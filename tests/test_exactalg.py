import os
import random
import subprocess
import sys
from math import comb

import pytest

import former_signed_sum as former
from former_series_expand import dense_series_expand
from reference_series import one_plus_t
from ymseries.exactalg import (
    CoeffVector,
    ParseError,
    PoleAtZero,
    Poly,
    RatFun,
    ZeroDenominator,
    latex_ratfun,
    one_minus_t,
    parse_poly,
    parse_ratfun,
    poly_gcd,
    ratfun_eq,
    render_poly,
    render_ratfun,
    series_expand,
    signed_sum,
    truncated_sum,
)
from ymseries.closedforms import flat_series
from ymseries.errors import ExactnessError
from ymseries import exactalg
from ymseries.rootsys import GroupSpec
from ymseries.exactalg import (
    _KRONECKER_MIN,
    _cyclotomic,
    _den_factors,
    _divisors,
    _expand,
    _kronecker_mul,
    _phi_quotient,
    cyclotomic_quotient,
)


def P(*coeffs):
    return Poly(coeffs)


def rand_poly(rng, max_deg=6, bound=9):
    return Poly([rng.randint(-bound, bound) for _ in range(rng.randint(0, max_deg + 1))])


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
    LENGTHS = (1, 2, _KRONECKER_MIN - 1, _KRONECKER_MIN, _KRONECKER_MIN + 1, 40, 97)

    def test_matches_schoolbook_randomized(self):
        rng = random.Random(2024)
        for la in self.LENGTHS:
            for lb in self.LENGTHS:
                for bits in (1, 8, 63, 64, 200):
                    a, b = rand_coeffs(rng, la, bits), rand_coeffs(rng, lb, bits)
                    expect = schoolbook(a, b)
                    assert _kronecker_mul(tuple(a), tuple(b)) == expect, (la, lb, bits)
                    assert (Poly(a) * Poly(b)).coeffs == tuple(expect), (la, lb, bits)

    def test_coefficients_at_the_slot_bound(self):
        # every coefficient of the same magnitude makes the middle coefficient
        # exactly min(len) * max|a| * max|b|, the bound the slot width is sized for
        for bits in range(1, 20):
            for m in (2**bits - 1, 2**bits):
                for la, lb in ((1, 1), (17, 17), (17, 33), (64, 20)):
                    for sa, sb in ((1, 1), (1, -1), (-1, -1)):
                        a, b = [sa * m] * la, [sb * m] * lb
                        assert _kronecker_mul(tuple(a), tuple(b)) == schoolbook(a, b), (m, la, lb)

    def test_alternating_signs_and_zero_runs(self):
        a = [(-1) ** i * (i % 5) for i in range(1, 60)] + [7]
        b = [0] * 30 + [-(2**200)] + [0] * 10 + [1]
        assert (Poly(a) * Poly(b)).coeffs == tuple(schoolbook(a, b))
        assert (Poly(b) * Poly(a)).coeffs == tuple(schoolbook(b, a))

    def test_long_powers(self):
        # the square-and-multiply chain crosses the threshold part way up
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
            gp = g.divexact_int(g.content())
            (p * g).divexact(d)  # must not raise
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
        f = RatFun(P(2, 2), P(4))
        assert f.num == P(1, 1) and f.den == P(2)

    def test_zero_denominator(self):
        with pytest.raises(ZeroDenominator):
            RatFun(Poly.one(), Poly.zero())

    def test_idempotent(self):
        rng = random.Random(23)
        for _ in range(100):
            num, den = rand_poly(rng), rand_poly(rng)
            if den.is_zero:
                continue
            f = RatFun(num, den)
            g = RatFun(f.num, f.den)
            assert f.num == g.num and f.den == g.den

    def test_common_factor_cancels(self):
        rng = random.Random(5)
        for _ in range(60):
            p, q, r = rand_poly(rng, 3), rand_poly(rng, 3), rand_poly(rng, 3)
            if r.is_zero or q.is_zero:
                continue
            lhs = RatFun(p * q, r * q)
            rhs = RatFun(p, r)
            assert lhs == rhs


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
            fs = []
            while len(fs) < 3:
                num, den = rand_poly(rng, 3), rand_poly(rng, 3)
                if not den.is_zero:
                    fs.append(RatFun(num, den))
            f, g, h = fs
            assert (f + g) * h == f * h + g * h
            if not g.is_zero:
                assert (f / g) * g == f


def rand_ratfun(rng):
    return RatFun(rand_poly(rng, 5), rand_den(rng))


class TestOperatorsMatchConstructor:
    """+, -, * and / against the gcd constructor on cross-multiplied Polys."""

    def test_randomized(self):
        rng = random.Random(1818)
        for _ in range(80):
            f, g = rand_ratfun(rng), rand_ratfun(rng)
            a, b, c, d = f.num, f.den, g.num, g.den
            cases = [(f + g, a * d + c * b, b * d), (f - g, a * d - c * b, b * d)]
            cases.append((f * g, a * c, b * d))
            if g.is_zero:
                with pytest.raises(ZeroDenominator):
                    f / g
            else:
                cases.append((f / g, a * d, b * c))
            for got, num, den in cases:
                expect = RatFun(num, den)
                assert got.num == expect.num and got.den == expect.den, (f, g)

    def test_cyclotomic_operands_take_no_gcd(self, monkeypatch):
        rng = random.Random(1919)
        pairs = []
        for _ in range(30):
            # no t^shift on g, whose numerator is the quotient's denominator
            f, g = (
                hand_ratfun(
                    [(rng.randint(1, 6), rng.randint(0, 2))],
                    [(rng.randint(1, 8), rng.randint(1, 2))],
                    shift,
                )
                for shift in (rng.randint(0, 3), 0)
            )
            pairs.append((f, g, [f.num * g.den + g.num * f.den, f.den * g.den]))
        calls = count_gcds(monkeypatch)
        # -g has a negative numerator, so its reciprocal's sign is flipped
        results = [(f + g, f * g, f / g, f / -g) for f, g, _ in pairs]
        assert calls == []
        for (f, g, (num, den)), (total, product, quotient, negated) in zip(pairs, results):
            assert total == RatFun(num, den)
            assert product == RatFun(f.num * g.num, f.den * g.den)
            assert quotient == RatFun(f.num * g.den, f.den * g.num)
            assert negated == RatFun(-f.num * g.den, f.den * g.num)


def den_of(ks):
    den = Poly.one()
    for k in ks:
        den = den * one_minus_t(k)
    return den


def per_term_signed_sum(terms):
    """The sum by cross-multiplying the Polys: each term's numerator times
    every other term's denominator, cancelled once by the gcd constructor."""
    nums, dens = [], []
    for sign, factor, e, ks in terms:
        nums.append(factor.num * Poly.t_power(e, sign))
        dens.append(factor.den * den_of(ks))
    total, common = Poly.zero(), Poly.one()
    for i, num in enumerate(nums):
        for j, den in enumerate(dens):
            if j != i:
                num = num * den
        total, common = total + num, common * dens[i]
    return RatFun(total, common)


def rand_den(rng):
    """A denominator mixing 1 - t^k factors with non-cyclotomic, non-monic or
    integer-content ones."""
    den = Poly.one()
    for _ in range(rng.randint(0, 3)):
        den = den * one_minus_t(rng.randint(1, 8))
    extra = rng.choice(
        [P(1), P(3), P(2, 0, 4), P(1, 1, 1, 1), P(5, -2), P(1, 3, 1), P(0, 1), P(-2)]
    )
    return den * extra * one_plus_t(rng.randint(1, 4)) ** rng.randint(0, 2)


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
        # cross-multiplied by hand, cancelled once by the constructor
        num1, den1 = f.num * Poly.t_power(3), f.den * one_minus_t(1) * one_minus_t(4)
        num2, den2 = g.num * Poly.t_power(2), g.den * one_minus_t(6)
        assert got == RatFun(num1 * den2 - num2 * den1, den1 * den2)

    def test_product_factors(self):
        rng = random.Random(1717)
        for _ in range(30):
            fs = [RatFun(rand_poly(rng, 4), rand_den(rng)) for _ in range(rng.randint(0, 3))]
            num, den = Poly.one(), Poly.one()
            for f in fs:
                num, den = num * f.num, den * f.den
            e, ks = rng.randint(0, 4), tuple(rng.randint(1, 6) for _ in range(rng.randint(0, 2)))
            got = signed_sum([(-2, tuple(fs), e, ks)])
            expect = RatFun(num * Poly.t_power(e, -2), den * den_of(ks))
            assert got.num == expect.num and got.den == expect.den

    def test_random_terms_match_per_term_loop(self):
        rng = random.Random(4242)
        for _ in range(40):
            terms = rand_terms(rng, rng.randint(1, 6))
            assert signed_sum(terms) == per_term_signed_sum(terms)

    def test_generator_input(self):
        terms = rand_terms(random.Random(7), 5)
        assert signed_sum(iter(terms)) == per_term_signed_sum(terms)

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
            assert signed_sum(terms) == per_term_signed_sum(terms)

    def test_zero_factor(self):
        f = RatFun(P(1, 2), one_minus_t(3))
        assert signed_sum([(1, RatFun.zero(), 4, (2, 3))]) == RatFun.zero()
        assert signed_sum([(1, RatFun.zero(), 0, (5,)), (1, f, 1, (2,))]) == per_term_signed_sum(
            [(1, f, 1, (2,))]
        )

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
            den = RatFun(Poly.one(), rand_den(rng)).den
            assert _expand(dict(_den_factors(den))) == den
            assert dict(_den_factors(den)) == former.den_factors(den)
        m = dict(_den_factors(one_minus_t(6) * one_minus_t(4) * P(2, 0, 4)))
        assert m == {1: 2, 2: 2, 3: 1, 4: 1, 6: 1, P(2, 0, 4): 1}
        # Phi_6 = 1 - t + t^2, Phi_12 and Phi_30 have index above their degree
        for d in (6, 12, 30):
            assert _den_factors(_cyclotomic(d) * one_minus_t(1)) == ((1, 1), (d, 1))
        assert _den_factors(P(1, 3, 1)) == ((P(1, 3, 1), 1),)


def hand_ratfun(plus, minus, shift=0):
    """The cyclotomic_quotient arguments as explicit products, cancelled by
    the gcd constructor."""
    num = Poly.t_power(shift)
    for a, m in plus:
        num = num * one_plus_t(a) ** m
    den = Poly.one()
    for b, m in minus:
        den = den * one_minus_t(b) ** m
    return RatFun(num, den)


def count_gcds(monkeypatch):
    calls = []
    real = exactalg.poly_gcd

    def counting(a, b):
        calls.append((a, b))
        return real(a, b)

    monkeypatch.setattr(exactalg, "poly_gcd", counting)
    return calls


TRIAL_DIVISION_COUNT = """
import contextlib, io
from ymseries import cli, exactalg
calls = []
real = exactalg._trial_factors
exactalg._trial_factors = lambda den: calls.append(den) or real(den)
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
print(len(calls))
"""


class TestRecordedDenominators:
    """Every canonical value signed_sum and cyclotomic_quotient build records
    its denominator's Phi_d map for _den_factors."""

    def test_flat_engines_and_recursion_make_no_trial_division(self):
        """In a fresh process, so that no map recorded by another test hides
        a trial division: both engines on the four flat-engines bundles and
        the five verify-recursion bench cases, through the CLI."""
        tests = os.path.dirname(__file__)
        src = os.path.join(tests, "..", "src")
        proc = subprocess.run(
            [sys.executable, "-c", TRIAL_DIVISION_COUNT],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "0\n"

    def test_recorded_maps_match_trial_division(self):
        """Both engines at n <= 6 record each result's map, and every map in
        the cache, recorded here or by an earlier test, is the trial-division
        map of its denominator."""
        for fam, lo in (("u", 1), ("so-odd", 1), ("so-even", 2), ("sp", 1)):
            for n in range(lo, 7):
                for c in range(n) if fam == "u" else (0, 1) if fam.startswith("so") else (0,):
                    for engine in ("specialized", "general"):
                        f = flat_series(GroupSpec(fam, n), c, 2, engine)
                        assert f.den in exactalg._DEN_FACTORS, (fam, n, c, engine)
        for den, pairs in list(exactalg._DEN_FACTORS.items()):
            assert pairs == exactalg._trial_factors(den), den


class TestCyclotomicQuotient:
    def test_matches_gcd_constructor_randomized(self, monkeypatch):
        rng = random.Random(808)
        cases = []
        for _ in range(80):
            plus = [(rng.randint(1, 12), rng.randint(0, 4)) for _ in range(rng.randint(0, 4))]
            minus = [(rng.randint(1, 24), rng.randint(0, 3)) for _ in range(rng.randint(0, 5))]
            cases.append((plus, minus, rng.randint(0, 5)))
        expected = [hand_ratfun(*case) for case in cases]
        calls = count_gcds(monkeypatch)
        for case, expect in zip(cases, expected):
            got = cyclotomic_quotient(*case)
            assert got.num == expect.num and got.den == expect.den, case
        assert calls == []

    def test_numerator_cancels_completely(self):
        # (1 + t)(1 + t^2)(1 + t^4) = (1 - t^8) / (1 - t)
        plus, minus = [(1, 1), (2, 1), (4, 1)], [(8, 1)]
        got = cyclotomic_quotient(plus, minus)
        assert got == RatFun(Poly.one(), one_minus_t(1)) == hand_ratfun(plus, minus)
        assert cyclotomic_quotient([(3, 2)], [(6, 2)]) == RatFun(Poly.one(), one_minus_t(3) ** 2)

    def test_nothing_cancels(self):
        # 1 + t^2 = Phi_4 shares no factor with 1 - t^3 = Phi_1 Phi_3
        got = cyclotomic_quotient([(2, 3)], [(3, 1)])
        assert got.num == one_plus_t(2) ** 3 and got.den == one_minus_t(3)
        assert cyclotomic_quotient([], [], shift=4) == RatFun.t_power(4)


class TestSignedSumCancellation:
    """The exact-division path of signed_sum against the gcd constructor."""

    def test_cyclotomic_sums_match_constructor(self, monkeypatch):
        rng = random.Random(606)
        sums = []
        for _ in range(40):
            terms = []
            for _ in range(rng.randint(1, 5)):
                plus = [(rng.randint(1, 6), rng.randint(0, 3)) for _ in range(rng.randint(0, 2))]
                minus = [(rng.randint(1, 8), 1) for _ in range(rng.randint(0, 3))]
                factor = hand_ratfun(plus, minus)
                ks = tuple(rng.randint(1, 9) for _ in range(rng.randint(0, 3)))
                terms.append((rng.choice([1, -1, 2, -2]), factor, rng.randint(0, 6), ks))
            sums.append((terms, per_term_signed_sum(terms)))
        calls = count_gcds(monkeypatch)
        for terms, expect in sums:
            got = signed_sum(terms)
            assert got.num == expect.num and got.den == expect.den
        assert calls == []

    def test_denominator_cancels_completely(self, monkeypatch):
        expect = RatFun(Poly.one(), one_minus_t(3))
        calls = count_gcds(monkeypatch)
        # (1 - t^6) / (1 - t^6) and (1 - t^2) / ((1 - t^2)(1 - t^3))
        terms = [(1, RatFun.one(), 0, (6,)), (-1, RatFun.one(), 6, (6,))]
        assert signed_sum(terms) == RatFun.one()
        terms = [(1, RatFun.one(), 0, (2, 3)), (-1, RatFun.one(), 2, (2, 3))]
        assert signed_sum(terms) == expect
        assert calls == []

    def test_zero_sum_has_denominator_one(self):
        f = hand_ratfun([(2, 2)], [(3, 1), (4, 1)])
        got = signed_sum([(1, f, 2, (5,)), (-1, f, 2, (5,))])
        assert got.is_zero and got.den == Poly.one()

    def test_opaque_factor_takes_the_constructor(self, monkeypatch):
        opaque = RatFun(P(1, 2), P(1, 3, 1) * one_minus_t(2))
        terms = [(1, opaque, 1, (2, 4)), (-1, RatFun.one(), 0, (4,)), (3, opaque, 0, ())]
        expect = per_term_signed_sum(terms)
        calls = count_gcds(monkeypatch)
        got = signed_sum(terms)
        assert got.num == expect.num and got.den == expect.den
        assert calls


def wide_factor(rng, bits, top, opaque):
    """A RatFun with coefficients of up to bits bits over random factors
    1 - t^k, 1 + t^k and Phi_k with k <= top, and a non-cyclotomic factor
    when opaque."""
    cs = [rng.choice([0, rng.randint(-(2**bits), 2**bits)]) for _ in range(rng.randint(0, 5))]
    num = Poly(cs + [rng.choice([-1, 1]) * rng.randint(2 ** (bits - 1), 2**bits)])
    den = Poly.one()
    for _ in range(rng.randint(0, 3)):
        den = den * rng.choice([one_minus_t, one_plus_t, _cyclotomic])(rng.randint(1, top))
    if opaque:
        den = den * rng.choice([P(1, 3, 1), P(2, 1), P(5, -2), P(3)])
    return RatFun(num, den)


def wide_terms(rng, count, opaque=False, signs=(1, -1, 2, -2, 3, -3)):
    """Terms with coefficients near 2^300 over factors up to Phi_30, or, when
    opaque, of a few bits over factors up to Phi_12: an opaque factor sends
    the sum to the gcd constructor, which is slow on wide coefficients and
    long denominators."""
    widths, top = ([2, 8], 12) if opaque else ([2, 63, 299, 300, 301], 30)
    terms = []
    for _ in range(count):
        bits = rng.choice(widths)
        factor = wide_factor(rng, bits, top, opaque and rng.random() < 0.5)
        if rng.random() < 0.25:
            factor = (factor, wide_factor(rng, bits, top, False))
        ks = tuple(rng.randint(1, 12) for _ in range(rng.randint(0, 3)))
        terms.append((rng.choice(signs), factor, rng.randint(0, 6), ks))
    return terms


class TestPackedSumMatchesFormer:
    """The packed tree sum and its stride cancellation against the former
    dense tree sum and its fold-and-divide cancellation (tests/former_signed_sum.py)."""

    def check(self, terms):
        got, expect = signed_sum(terms), former.signed_sum(terms)
        assert got.num == expect.num and got.den == expect.den, terms
        return got

    def test_random_terms(self):
        rng = random.Random(2323)
        for trial in range(80):
            opaque = trial % 4 == 0
            self.check(wide_terms(rng, rng.randint(1, 3 if opaque else 6), opaque))

    def test_single_terms(self):
        rng = random.Random(2424)
        for trial in range(60):
            self.check(wide_terms(rng, 1, opaque=trial % 3 == 0))

    def test_negative_totals(self):
        rng = random.Random(2525)
        for _ in range(30):
            got = self.check(wide_terms(rng, rng.randint(1, 4), signs=(-1, -2, -3)))
            assert not got.is_zero

    def test_sums_cancelling_to_zero(self):
        rng = random.Random(2626)
        for trial in range(30):
            terms = wide_terms(rng, rng.randint(1, 3), opaque=trial % 3 == 0)
            negated = [(-sign, factor, e, ks) for sign, factor, e, ks in terms]
            rng.shuffle(negated)
            got = self.check(terms + negated)
            assert got.is_zero and got.den == Poly.one()

    def test_coefficients_at_the_slot_bound(self):
        # one monomial numerator: the width bound is the coefficient itself
        for bits in range(1, 310, 3):
            for c in (2**bits - 1, 2**bits, -(2**bits)):
                self.check([(1, RatFun(Poly.t_power(1, c), one_minus_t(4)), 0, ())])
                self.check([(-3, RatFun(Poly.const(c)), 2, (6,)), (-3, RatFun.one(), 0, ())])


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
    """A coefficient tuple of 0 to order + 6 terms, small or up to 2**200 in size."""
    bits = rng.choice((2, 8, 60, 199, 200))
    cs = [rng.randint(-(2**bits), 2**bits) for _ in range(rng.randint(0, order + 6))]
    if cs and rng.random() < 0.3:
        cs[rng.randrange(len(cs))] = rng.choice((2**200, -(2**200), 2**200 - 1))
    return tuple(cs)


class TestTruncatedSum:
    """The packed truncated sum against schoolbook truncated products."""

    def check(self, terms, order):
        got = truncated_sum(terms, order)
        assert got.order == order
        assert got.coeffs == schoolbook_truncated_sum(terms, order), (terms, order)
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
        assert self.check([(0, [(-3, 5), (2**200, 1)])], 0).coeffs == (-3 * 2**200,)

    def test_single_factors(self):
        rng = random.Random(4343)
        for _ in range(60):
            order = rng.randint(0, 12)
            f = rand_factor(rng, order)
            shift = rng.randint(0, order)
            got = self.check([(shift, [f])], order)
            expect = ((0,) * shift + f + (0,) * (order + 1))[: order + 1]
            assert got.coeffs == expect

    def test_empty_sums(self):
        assert self.check([], 5).coeffs == (0,) * 6
        assert self.check([(6, [(1, 2)]), (9, [])], 5).is_zero
        # the empty product is 1 and the empty factor is 0
        assert self.check([(2, [])], 4).coeffs == (0, 0, 1, 0, 0)
        assert self.check([(0, [(1, 1), ()])], 4).is_zero

    def test_terms_cancelling_to_zero(self):
        rng = random.Random(4444)
        for _ in range(30):
            order = rng.randint(0, 10)
            terms = self.rand_terms(rng, order, rng.randint(1, 4))
            negated = [(shift, [tuple(-c for c in factors[0])] + factors[1:])
                       for shift, factors in terms if factors]
            terms = [term for term in terms if term[1]]
            assert self.check(terms + negated, order).is_zero

    def test_coefficients_at_the_slot_bound(self):
        # one factor and one term: the width bound is the l1 norm of the prefix
        for bits in range(1, 210, 3):
            for c in (2**bits - 1, 2**bits, -(2**bits)):
                self.check([(0, [(c,)])], 3)
                self.check([(1, [(c, -c, c)]), (0, [(0, c)])], 2)
                self.check([(0, [(1, -1), (c, c, c, c)])], 3)

    def test_negative_shift_raises(self):
        with pytest.raises(ValueError):
            truncated_sum([(-1, [(1,)])], 3)


class TestStrides:
    """Division by Phi_d through binomial strides against Poly.divexact."""

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
                assert _phi_quotient(list(p.coeffs), d) == list(p.divexact(phi).coeffs), d
                assert p.divexact(phi) == q
                # a nonzero remainder of degree below deg Phi_d
                p = p + Poly(rand_coeffs(rng, rng.randint(1, phi.degree), 8))
                with pytest.raises(ValueError):
                    p.divexact(phi)
                assert _phi_quotient(list(p.coeffs), d) is None, (d, length)

    def test_short_operands_are_not_multiples(self):
        rng = random.Random(6161)
        for d in range(1, 61):
            phi = former.cyclotomic(d)
            for length in range(1, phi.degree + 1):
                cs = rand_coeffs(rng, length, 8)
                with pytest.raises(ValueError):
                    Poly(cs).divexact(phi)
                assert _phi_quotient(cs, d) is None, (d, length)


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
            f = RatFun(rand_poly(rng, 3), one_minus_t(1) * one_plus_t(2) + Poly.one())
            g = RatFun(rand_poly(rng, 3), P(1, 1, 3))
            diff = f - g
            n = diff.num.degree + diff.den.degree + 1
            try:
                zero_series = series_expand(diff, max(n, 1)).is_zero
            except ExactnessError:
                continue
            assert ratfun_eq(f, g) == zero_series


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
        with pytest.raises(PoleAtZero):
            series_expand(RatFun(Poly.one(), Poly.t_power(1)), 3)

    def test_non_integer(self):
        with pytest.raises(ExactnessError, match="coefficient of t"):
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
        # the first fractional coefficient is reported as a reduced fraction
        with pytest.raises(ExactnessError) as err:
            series_expand(RatFun(num, den), 5)
        assert str(err.value) == message

    @pytest.mark.parametrize("d0", [1, -1, 2, 3])
    @pytest.mark.parametrize("density", [0.1, 0.5, 1.0])
    def test_matches_dense_recurrence(self, d0, density):
        # sparse and dense denominators with den(0) = d0, built unnormalized
        # so that den(0) = -1 is reached too; for |d0| > 1 a numerator that
        # is a multiple of den gives an integral series, a random one
        # usually a fractional coefficient, and both must agree
        rng = random.Random(1000 * d0 + int(10 * density))
        outcomes = set()
        for _ in range(80):
            tail = [
                rng.choice([-3, -2, -1, 1, 2, 3]) if rng.random() < density else 0
                for _ in range(rng.randint(0, 30))
            ]
            if tail:
                tail[-1] = tail[-1] or 1
            den = Poly([d0] + tail)
            num = den * rand_poly(rng, 8) if rng.random() < 0.5 else rand_poly(rng, 8)
            f = RatFun(num, den, _normalized=True)
            order = rng.randint(0, 50)
            try:
                want = dense_series_expand(f, order)
            except ExactnessError as err:
                with pytest.raises(ExactnessError) as got:
                    series_expand(f, order)
                assert str(got.value) == str(err)
                outcomes.add("fractional")
                continue
            assert series_expand(f, order).coeffs == want
            outcomes.add("integral")
        assert outcomes == ({"integral"} if abs(d0) == 1 else {"integral", "fractional"})

    def test_negative_coefficients(self):
        # (1 - 2t) / (1 - t) = 1 - t - t^2 - ...
        f = RatFun(P(1, -2), P(1, -1))
        assert series_expand(f, 4).coeffs == (1, -1, -1, -1, -1)

    def test_cauchy_product(self):
        rng = random.Random(55)
        for _ in range(40):
            f = RatFun(rand_poly(rng, 4), P(1, rng.randint(-3, 3), rng.randint(-3, 3)))
            g = RatFun(rand_poly(rng, 4), P(1, rng.randint(-3, 3)))
            n = 12
            try:
                sf = series_expand(f, n).coeffs
                sg = series_expand(g, n).coeffs
                sfg = series_expand(f * g, n).coeffs
            except ExactnessError:
                continue
            cauchy = tuple(
                sum(sf[j] * sg[k - j] for j in range(k + 1)) for k in range(n + 1)
            )
            assert sfg == cauchy


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
            num, den = rand_poly(rng), rand_poly(rng)
            if den.is_zero:
                continue
            f = RatFun(num, den)
            assert parse_ratfun(render_ratfun(f)) == f
            assert parse_poly(render_poly(num)) == num

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            parse_poly("1 + q^2")
        with pytest.raises(ParseError):
            parse_poly("")


class TestCoeffVector:
    def test_length_checked(self):
        with pytest.raises(ValueError):
            CoeffVector(3, (1, 2))

    def test_sub(self):
        a = CoeffVector(2, (1, 2, 3))
        b = CoeffVector(2, (1, 1, 1))
        assert (a - b).coeffs == (0, 1, 2)
