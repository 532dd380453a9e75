import os
from fractions import Fraction

import pytest

from former_tail_forms import (
    former_so_odd_flat,
    former_so_odd_terms,
    former_sp_flat,
    former_sp_terms,
)
from former_twists import former_frac_part, former_zagier_terms
from polys import one_minus_t, one_plus_t
from reference_series import REFERENCE_CASES
from ymseries.closedforms import (
    flat_series,
    frac_part,
    lr_general,
    so_even_flat,
    so_odd_flat,
    sp_flat,
    sun_flat,
    zagier_un,
)
from ymseries import closedforms
from ymseries.errors import ExactnessError, InputError
from ymseries.exactalg import (
    RatFun,
    parse_ratfun,
    ratfun_eq,
    render_ratfun,
    series_expand,
)
from ymseries.rootsys import GroupSpec, UnsupportedFamily, UnsupportedRank

F = Fraction
TESTDATA = os.path.join(os.path.dirname(__file__), "..", "testdata")

COMPUTED = {
    "u2_even": lambda l: zagier_un(2, 0, l),
    "u2_odd": lambda l: zagier_un(2, 1, l),
    "su2": lambda l: sun_flat(2, l),
    "su3": lambda l: sun_flat(3, l),
    "su4": lambda l: sun_flat(4, l),
    "so3_plus": lambda l: so_odd_flat(1, l, 0),
    "so3_minus": lambda l: so_odd_flat(1, l, 1),
    "so5_plus": lambda l: so_odd_flat(2, l, 0),
    "so5_minus": lambda l: so_odd_flat(2, l, 1),
    "sp1": lambda l: sp_flat(1, l),
    "sp2": lambda l: sp_flat(2, l),
    "sp3": lambda l: sp_flat(3, l),
    "so4_plus": lambda l: so_even_flat(2, l, 0),
    "so4_minus": lambda l: so_even_flat(2, l, 1),
    "so6_plus": lambda l: so_even_flat(3, l, 0),
    "so6_minus": lambda l: so_even_flat(3, l, 1),
}


def load_golden(name):
    out = {}
    with open(os.path.join(TESTDATA, f"{name}.txt")) as fh:
        for line in fh:
            head, _, body = line.strip().partition(" ")
            out[int(head.removeprefix("l="))] = parse_ratfun(body)
    return out


class TestFracPart:
    """The bracket <num/den> is the numerator r in 1..den of r/den."""

    def test_zero_maps_to_one(self):
        assert frac_part(0, 1) == 1
        assert frac_part(0, 3) == 3

    def test_negative_half(self):
        assert frac_part(-1, 2) == 1

    def test_seven_thirds(self):
        assert frac_part(7, 3) == 1

    def test_matches_former_bracket(self):
        for den in range(1, 13):
            for num in range(-3 * den, 3 * den + 1):
                r = frac_part(num, den)
                assert type(r) is int and F(r, den) == former_frac_part(F(num, den)), (num, den)


class TestZagierTwistsMatchFormer:
    """Zagier's twists as integer numerators over n, against the Fraction sum."""

    def test_every_class_up_to_rank_nine(self, monkeypatch):
        captured = []
        monkeypatch.setattr(closedforms, "signed_sum", lambda terms: captured.append(list(terms)))
        for n in range(1, 10):
            for k in range(n):
                for ell in (1, 2):
                    captured.clear()
                    # past the cache, which would keep the patched result
                    closedforms._zagier_cached.__wrapped__(n, k, ell)
                    got = [(sign, e, ks) for sign, _, e, ks in captured[0]]
                    assert got == list(former_zagier_terms(n, k, ell)), (n, k, ell)
                    assert all(type(e) is int for _, e, _ in got)

    def test_fractional_twist_raises(self, monkeypatch):
        # with every pair weight 1, U(3) at degree 1 reaches the composition
        # (1, 2) after (3,), and its twist is <-1/3> = 2/3
        monkeypatch.setattr(closedforms, "_doubled_adjacent_sums", lambda comp: [1] * (len(comp) - 1))
        with pytest.raises(ExactnessError, match="exponent 2/3 is not a natural number"):
            closedforms._zagier_cached.__wrapped__(3, 1, 2)


class TestEndRootFormMatchesFormer:
    """Sp(n) and SO(2n+1) through one walk, against their former transcriptions."""

    def test_same_terms_up_to_rank_nine(self, monkeypatch):
        captured = []
        monkeypatch.setattr(closedforms, "signed_sum", lambda terms: captured.append(list(terms)))
        for n in range(1, 10):
            for ell in (1, 2):
                # past the caches, which would keep the patched result
                cases = [(former_sp_terms(n, ell), sp_flat.__wrapped__, (n, ell))]
                for w2 in (0, 1):
                    cases.append((former_so_odd_terms(n, ell, w2), so_odd_flat.__wrapped__, (n, ell, w2)))
                for former, walk, args in cases:
                    captured.clear()
                    walk(*args)
                    assert captured[0] == list(former), (walk.__name__, args)

    def test_same_rendering(self):
        for n in range(1, 8):
            for ell in (1, 2, 3):
                assert render_ratfun(sp_flat(n, ell)) == render_ratfun(former_sp_flat(n, ell))
                for w2 in (0, 1):
                    got, expect = so_odd_flat(n, ell, w2), former_so_odd_flat(n, ell, w2)
                    assert render_ratfun(got) == render_ratfun(expect), (n, ell, w2)

    @pytest.mark.parametrize(
        "walk,former,args",
        [(sp_flat, former_sp_flat, args) for args in [(0, 2), (2, 0), (0, 0)]]
        + [
            (so_odd_flat, former_so_odd_flat, args)
            for args in [(0, 2, 0), (2, 0, 0), (2, 2, 2), (0, 0, 2), (2, 0, 2), (2, 2, -1)]
        ],
    )
    def test_same_input_errors(self, walk, former, args):
        # the rank first, then the genus, then w2
        with pytest.raises(InputError) as expect:
            former(*args)
        with pytest.raises(InputError) as caught:
            walk(*args)
        assert str(caught.value) == str(expect.value)


class TestZagier:
    def test_rank_one(self):
        f = zagier_un(1, 5, 2)
        assert f == RatFun(one_plus_t(1) ** 4, one_minus_t(2))

    def test_u2_k_odd(self):
        for ell in (1, 2, 3):
            expect = REFERENCE_CASES["u2_odd"](ell)
            assert ratfun_eq(zagier_un(2, 1, ell), expect)

    def test_u2_k_even(self):
        for ell in (1, 2, 3):
            expect = REFERENCE_CASES["u2_even"](ell)
            assert ratfun_eq(zagier_un(2, 0, ell), expect)

    def test_depends_on_k_mod_n(self):
        assert zagier_un(3, 1, 2) == zagier_un(3, 4, 2)
        assert zagier_un(3, 0, 2) != zagier_un(3, 1, 2)
        # reversing every composition swaps k and n - k, so these agree
        assert zagier_un(3, 1, 2) == zagier_un(3, 2, 2)


class TestFlatClosedForms:
    @pytest.mark.parametrize("name", sorted(REFERENCE_CASES))
    @pytest.mark.parametrize("ell", [2, 3, 5])
    def test_matches_reference(self, name, ell):
        assert ratfun_eq(COMPUTED[name](ell), REFERENCE_CASES[name](ell))

    @pytest.mark.parametrize("name", sorted(REFERENCE_CASES))
    def test_matches_golden_file(self, name):
        golden = load_golden(name)
        for ell, expect in golden.items():
            assert ratfun_eq(COMPUTED[name](ell), expect)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            sun_flat(1, 2)
        with pytest.raises(ValueError):
            sp_flat(2, 0)
        with pytest.raises(ValueError):
            so_even_flat(1, 2, 0)
        with pytest.raises(ValueError):
            so_odd_flat(2, 2, 2)

    @pytest.mark.parametrize(
        "call,least",
        [
            (lambda n: zagier_un(n, 0, 2), 1),
            (lambda n: sp_flat(n, 2), 1),
            (lambda n: so_even_flat(n, 2, 0), 2),
            (lambda n: sun_flat(n, 2), 2),
        ],
        ids=["zagier_un", "sp_flat", "so_even_flat", "sun_flat"],
    )
    def test_rank_below_least_is_unsupported_rank(self, call, least):
        # the fault GroupSpec also raises UnsupportedRank for
        for n in (least - 1, -1):
            with pytest.raises(UnsupportedRank, match=f"^need rank n >= {least}, got n = {n}$"):
                call(n)

    def test_genus_below_one_is_plain_input_error(self):
        with pytest.raises(InputError, match="^need genus ell >= 1, got ell = 0$") as caught:
            sp_flat(1, 0)
        assert type(caught.value) is InputError


class TestExceptionalIsomorphisms:
    @pytest.mark.parametrize("ell", [1, 2, 3, 4, 5])
    def test_rank_one_triple(self, ell):
        assert ratfun_eq(sp_flat(1, ell), sun_flat(2, ell))
        assert ratfun_eq(sp_flat(1, ell), so_odd_flat(1, ell, 0))

    @pytest.mark.parametrize("ell", [1, 2, 3, 4, 5])
    def test_rank_two(self, ell):
        assert ratfun_eq(sp_flat(2, ell), so_odd_flat(2, ell, 0))

    @pytest.mark.parametrize("ell", [1, 2, 3, 4, 5])
    def test_so4_is_square(self, ell):
        assert ratfun_eq(so_even_flat(2, ell, 0), sun_flat(2, ell) * sun_flat(2, ell))

    @pytest.mark.parametrize("ell", [1, 2, 3, 4, 5])
    def test_so6_is_su4(self, ell):
        assert ratfun_eq(so_even_flat(3, ell, 0), sun_flat(4, ell))


class TestGeneralEngine:
    def test_sp1(self):
        assert ratfun_eq(lr_general(GroupSpec("sp", 1), 0, 2), sp_flat(1, 2))

    def test_so3_trivial_bundle(self):
        assert ratfun_eq(lr_general(GroupSpec("so-odd", 1), 0, 2), REFERENCE_CASES["so3_plus"](2))

    def test_u2_k1(self):
        assert ratfun_eq(lr_general(GroupSpec("u", 2), 1, 2), zagier_un(2, 1, 2))

    # the full n <= 4, ell in {1,2,3} sweep runs in the acceptance suite
    @pytest.mark.parametrize("fam,n,cs", [("u", 3, (0, 1, 2)), ("sp", 2, (0,)),
                                          ("so-odd", 2, (0, 1)), ("so-even", 2, (0, 1))])
    def test_engine_agrees_spot(self, fam, n, cs):
        for c in cs:
            g = GroupSpec(fam, n)
            assert ratfun_eq(lr_general(g, c, 2), flat_series(g, c, 2))

    def test_unsupported_family(self):
        with pytest.raises(UnsupportedFamily):
            lr_general(GroupSpec("su", 2), 0, 2)

    @pytest.mark.parametrize("g,c,message", [(GroupSpec("sp", 1), 1, "simply connected"),
                                             (GroupSpec("so-odd", 2), 2, "w2 bit")])
    def test_class_outside_pi1_rejected(self, g, c, message):
        with pytest.raises(InputError, match=message):
            lr_general(g, c, 2)

    def test_flat_series_general_aliases(self):
        assert ratfun_eq(flat_series(GroupSpec("su", 2), 0, 2, engine="general"), sun_flat(2, 2))
        assert ratfun_eq(
            flat_series(GroupSpec("spin-odd", 2), 0, 2, engine="general"), so_odd_flat(2, 2, 0)
        )

    def test_spin_aliases_specialized(self):
        assert flat_series(GroupSpec("spin-even", 3), 0, 2) == so_even_flat(3, 2, 0)

    @pytest.mark.parametrize("g", [GroupSpec("sp", 1), GroupSpec("su", 2)])
    def test_unknown_engine_rejected(self, g):
        with pytest.raises(ValueError, match="engine"):
            flat_series(g, 0, 2, engine="bogus")


class TestPositivity:
    @pytest.mark.parametrize("ell", [2, 3])
    def test_flat_series_nonnegative(self, ell):
        cases = [zagier_un(2, 1, ell), sp_flat(2, ell), so_odd_flat(2, ell, 1),
                 so_even_flat(2, ell, 1), sun_flat(3, ell)]
        for f in cases:
            assert all(c >= 0 for c in series_expand(f, 60).coeffs)
