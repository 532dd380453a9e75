import os
import subprocess
import sys

import pytest

from polys import one_minus_t, one_plus_t
from ymseries.exactalg import Poly, RatFun, ratfun_eq, series_expand
from ymseries.gaugeseries import (
    DegreeProfile,
    betti_degrees,
    bg_nonorientable,
    bg_orientable,
    concat_profiles,
    tail_profile,
    unitary_block_profile,
)
from ymseries.levidata import levi_profile
from ymseries.rootsys import FAMILIES, GroupSpec


class TestBettiDegrees:
    def test_u3(self):
        p = betti_degrees(GroupSpec("u", 3))
        assert p.degrees == (1, 2, 3) and p.center_count == 1

    def test_sp2(self):
        p = betti_degrees(GroupSpec("sp", 2))
        assert p.degrees == (2, 4) and p.center_count == 0

    def test_so6(self):
        p = betti_degrees(GroupSpec("so-even", 3))
        assert p.degrees == (2, 3, 4) and p.center_count == 0

    def test_su4(self):
        p = betti_degrees(GroupSpec("su", 4))
        assert p.degrees == (2, 3, 4) and p.center_count == 0

    def test_spin_aliases(self):
        assert betti_degrees(GroupSpec("spin-odd", 2)) == betti_degrees(GroupSpec("so-odd", 2))
        assert betti_degrees(GroupSpec("spin-even", 3)) == betti_degrees(GroupSpec("so-even", 3))

    def test_profile_validation(self):
        # the torus count is read off the degrees, so it cannot disagree with them
        assert DegreeProfile((1, 1, 2)).center_count == 2
        assert concat_profiles([unitary_block_profile(2), tail_profile("so-even", 1)]).center_count == 2
        with pytest.raises(TypeError):
            DegreeProfile((2, 1), 1)


class TestOrientable:
    def test_u1(self):
        for ell in (0, 1, 3):
            f = bg_orientable(betti_degrees(GroupSpec("u", 1)), ell)
            assert f == RatFun(one_plus_t(1) ** (2 * ell), one_minus_t(2))

    def test_su2(self):
        ell = 2
        f = bg_orientable(betti_degrees(GroupSpec("su", 2)), ell)
        assert f == RatFun(one_plus_t(3) ** (2 * ell), one_minus_t(2) * one_minus_t(4))

    def test_u2_genus2(self):
        f = bg_orientable(betti_degrees(GroupSpec("u", 2)), 2)
        expect = RatFun(
            one_plus_t(1) ** 4 * one_plus_t(3) ** 4,
            one_minus_t(2) * one_minus_t(2) * one_minus_t(4),
        )
        assert ratfun_eq(f, expect)


class TestNonorientable:
    def test_u1_two_crosscaps(self):
        f = bg_nonorientable(betti_degrees(GroupSpec("u", 1)), 2)
        assert f == RatFun(one_plus_t(1), one_minus_t(2))
        assert f == RatFun(RatFun.one().num, one_minus_t(1))

    def test_su2_three_crosscaps(self):
        f = bg_nonorientable(betti_degrees(GroupSpec("su", 2)), 3)
        assert f == RatFun(one_plus_t(3) ** 2, one_minus_t(4))

    def test_sp2_klein(self):
        f = bg_nonorientable(betti_degrees(GroupSpec("sp", 2)), 2)
        assert f == RatFun(one_plus_t(3) * one_plus_t(7), one_minus_t(4) * one_minus_t(8))


class TestPositivityAndProducts:
    @pytest.mark.parametrize("fam,n", [("u", 2), ("su", 3), ("so-odd", 2), ("so-even", 2), ("sp", 2)])
    def test_nonnegative_series(self, fam, n):
        prof = betti_degrees(GroupSpec(fam, n))
        assert all(c >= 0 for c in series_expand(bg_orientable(prof, 0), 60).coeffs)
        assert all(c >= 0 for c in series_expand(bg_nonorientable(prof, 1), 60).coeffs)

    def test_multiplicativity(self):
        a = betti_degrees(GroupSpec("u", 2))
        b = betti_degrees(GroupSpec("sp", 1))
        combined = concat_profiles([a, b])
        for ell in (1, 2):
            assert bg_orientable(combined, ell) == bg_orientable(a, ell) * bg_orientable(b, ell)
        assert bg_nonorientable(combined, 3) == bg_nonorientable(a, 3) * bg_nonorientable(b, 3)


class TestBgLevi:
    def test_two_torus_blocks(self):
        prof = levi_profile(GroupSpec("u", 2), frozenset({1}))
        ell = 2
        torus = bg_orientable(unitary_block_profile(1), ell)
        assert bg_orientable(prof.betti, ell) == torus * torus

    def test_full_group(self):
        g = GroupSpec("sp", 2)
        prof = levi_profile(g, frozenset())
        assert bg_orientable(prof.betti, 3) == bg_orientable(betti_degrees(g), 3)

    def test_mixed_factor(self):
        g = GroupSpec("sp", 2)
        prof = levi_profile(g, frozenset({1}))
        ell = 2
        expect = bg_orientable(unitary_block_profile(1), ell) * bg_orientable(
            betti_degrees(GroupSpec("sp", 1)), ell
        )
        assert bg_orientable(prof.betti, ell) == expect


def _sp_tail_by_hand(m, ell):
    """Rank-m symplectic or odd-orthogonal tail as explicit products."""
    num = den = Poly.one()
    for j in range(1, m + 1):
        num = num * one_plus_t(4 * j - 1) ** (2 * ell)
    for j in range(1, 2 * m + 1):
        den = den * one_minus_t(2 * j)
    return RatFun(num, den)


def _so_even_tail_by_hand(m, ell):
    """Rank-m even-orthogonal tail (m >= 2) as explicit products."""
    num = one_plus_t(2 * m - 1) ** (2 * ell)
    for j in range(1, m):
        num = num * one_plus_t(4 * j - 1) ** (2 * ell)
    den = one_minus_t(2 * m - 2) * one_minus_t(2 * m)
    for j in range(1, 2 * m - 1):
        den = den * one_minus_t(2 * j)
    return RatFun(num, den)


HAND_TAILS = {"sp": _sp_tail_by_hand, "so-odd": _sp_tail_by_hand, "so-even": _so_even_tail_by_hand}


@pytest.mark.parametrize(
    "family,m",
    [(f, m) for f in ("sp", "so-odd") for m in range(1, 6)] + [("so-even", m) for m in range(2, 6)],
)
@pytest.mark.parametrize("ell", range(4))
def test_tail_profile_gauge_matches_hand_product(family, m, ell):
    assert bg_orientable(tail_profile(family, m), ell) == HAND_TAILS[family](m, ell)


def test_gauge_series_cached_per_profile():
    """Each (profile, ell) pair is computed once; the shared value is the full product."""
    prof = concat_profiles([unitary_block_profile(2), tail_profile("sp", 2)])
    first = bg_orientable(prof, 2)
    assert bg_orientable(prof, 2) is first
    # concat_profiles sorts the degrees, so the block order does not matter
    assert bg_orientable(concat_profiles([tail_profile("sp", 2), unitary_block_profile(2)]), 2) is first
    # torus generator, then halved degrees 2, 2 and 4
    num = one_plus_t(1) ** 4 * one_plus_t(3) ** 8 * one_plus_t(7) ** 4
    den = one_minus_t(2) * (one_minus_t(2) * one_minus_t(4)) ** 2 * one_minus_t(6) * one_minus_t(8)
    assert first == RatFun(num, den)


def _constructor_product(profile, plus_power, orientable):
    """The gauge series as explicit products, cancelled by the gcd constructor."""
    num = den = Poly.one()
    for d in profile.degrees:
        num = num * one_plus_t(2 * d - 1) ** plus_power
        if orientable and d == 1:
            den = den * one_minus_t(2)
        elif orientable:
            den = den * one_minus_t(2 * d - 2) * one_minus_t(2 * d)
        else:
            den = den * one_minus_t(2 * d)
    return RatFun(num, den)


ALL_PROFILES = sorted(
    {
        betti_degrees(GroupSpec(fam, n))
        for fam in FAMILIES
        for n in range(2 if fam in ("su", "so-even", "spin-even") else 1, 7)
    },
    key=lambda p: (p.degrees, p.center_count),
)


@pytest.mark.parametrize("profile", ALL_PROFILES, ids=lambda p: str(p.degrees))
def test_cyclotomic_gauge_series_match_constructor(profile):
    for ell in range(4):
        got = bg_orientable(profile, ell)
        expect = _constructor_product(profile, 2 * ell, orientable=True)
        assert (got.num, got.den) == (expect.num, expect.den), ell
        # m = ell + 1 crosscaps
        got = bg_nonorientable(profile, ell + 1)
        expect = _constructor_product(profile, ell, orientable=False)
        assert (got.num, got.den) == (expect.num, expect.den), ell


FLAT_ENGINES_DIVISIONS = """
import contextlib, io
from ymseries import cli, exactalg
divided = []
real = exactalg._trial_factors
exactalg._trial_factors = lambda den: divided.append(den) or real(den)
from test_acceptance import (
    RECURSION_CONFIGS, test_criterion_2_exceptional_isomorphisms as criterion_2,
)
from ymseries.closedforms import flat_series
from ymseries.exactalg import Poly
from ymseries.inversion import build_parabolic_poset, default_gauge_assignment, invert_abstract
from ymseries.rootsys import GroupSpec
from ymseries.strata import enumerate_ab_points, stratum_series, verify_recursion
for argv in (["sp", "--rank", "5"], ["so-odd", "--rank", "5", "--w2", "1"],
             ["so-even", "--rank", "5", "--w2", "1"], ["u", "--rank", "6", "--degree", "1"]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["poincare", "--group", *argv, "--genus", "2", "--engine", "both"])
    assert code == 0, argv
with contextlib.redirect_stdout(io.StringIO()):
    criterion_2()
# criterion 5's stratum series
for fam, n, classes in RECURSION_CONFIGS:
    g = GroupSpec(fam, n)
    for c in classes:
        for pt, _ in enumerate_ab_points(g, c, 2, 20):
            stratum_series(g, pt, 2, ("plus" if c % 2 == 0 else "minus") if pt.is_split else None)
assert verify_recursion(GroupSpec("so-even", 4), 1, 2, 80).holds
poset = build_parabolic_poset(GroupSpec("so-odd", 3), 2)
assert invert_abstract(poset, default_gauge_assignment(poset), 1, 40)[1].is_zero
for n in range(2, 9):
    for engine in ("specialized", "general"):
        flat_series(GroupSpec("su", n), 0, 2, engine)
plus_t = Poly((1, 1))
print(hasattr(exactalg, "poly_gcd"), bool(divided),
      sum(den != plus_t ** den.degree for den in divided))
"""


def test_flat_engines_run_without_gcd():
    """The library has no polynomial gcd, and in a fresh process, so that no
    cached series hides a cancellation, these paths cancel without one:
    both engines for the flat-engines bundles, criterion 2, criterion 5's
    stratum series, a criterion-4 recursion, a criterion-6 inversion and
    SU(2)-SU(8) through both engines.  The only trial divisions are of the
    SU torus divisor's numerator, a power of 1 + t."""
    tests = os.path.dirname(__file__)
    src = os.path.join(tests, "..", "src")
    proc = subprocess.run(
        [sys.executable, "-c", FLAT_ENGINES_DIVISIONS],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([src, tests])},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False True 0\n"
