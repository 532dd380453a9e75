import random
from fractions import Fraction

import pytest

from ymseries.closedforms import sp_flat, zagier_un
from ymseries.exactalg import RatFun, one_minus_t, ratfun_eq, series_expand
from ymseries.inversion import (
    ConeSumSpec,
    NonIntegerExponent,
    WallPoint,
    _TypeAPoset,
    build_parabolic_poset,
    closed_inverse,
    cone_sum_closed,
    cone_sum_truncated,
    default_gauge_assignment,
    invert_abstract,
    random_relative_point,
    verify_langlands,
)
from ymseries.levidata import ParabolicIndex, levi_profile
from ymseries.rootsys import GroupSpec

F = Fraction


class TestConeSum:
    def test_closed_half_class(self):
        f = cone_sum_closed(ConeSumSpec((2,), (F(1, 2),)))
        assert f == RatFun(RatFun.t_power(1).num, one_minus_t(2))

    def test_closed_zero_class(self):
        f = cone_sum_closed(ConeSumSpec((4,), (F(0),)))
        assert f == RatFun(RatFun.t_power(4).num, one_minus_t(4))

    def test_closed_product(self):
        f = cone_sum_closed(ConeSumSpec((2, 3), (F(1, 2), F(1, 3))))
        assert f == RatFun(RatFun.t_power(2).num, one_minus_t(2) * one_minus_t(3))

    def test_truncated_half_class(self):
        cv = cone_sum_truncated(ConeSumSpec((2,), (F(1, 2),)), 7)
        assert cv.coeffs == (0, 1, 0, 1, 0, 1, 0, 1)

    def test_truncated_zero_class(self):
        cv = cone_sum_truncated(ConeSumSpec((2,), (F(0),)), 6)
        assert cv.coeffs == (0, 0, 1, 0, 1, 0, 1)

    def test_truncated_matches_closed_product(self):
        spec = ConeSumSpec((2, 3), (F(1, 2), F(1, 3)))
        assert cone_sum_truncated(spec, 10) == series_expand(cone_sum_closed(spec), 10)

    def test_non_integral_rejected(self):
        with pytest.raises(NonIntegerExponent):
            ConeSumSpec((2,), (F(1, 3),))

    def test_randomized_agreement(self):
        rng = random.Random(12)
        done = 0
        while done < 60:
            k = rng.randint(1, 3)
            weights, classes = [], []
            for _ in range(k):
                p = rng.randint(1, 6)
                den = rng.choice([d for d in range(1, 7) if p % d == 0])
                classes.append(F(rng.randint(0, den - 1), den))
                weights.append(p)
            spec = ConeSumSpec(tuple(weights), tuple(classes))
            assert cone_sum_truncated(spec, 30) == series_expand(cone_sum_closed(spec), 30)
            done += 1


class TestLanglands:
    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_random_samples(self, rank):
        assert verify_langlands(rank, samples=12, seed=3)

    def test_rank_one_both_chambers(self):
        poset = _TypeAPoset(1)
        pts = [
            (frozenset(), frozenset({0}), (F(1), F(-1))),
            (frozenset(), frozenset({0}), (F(-1), F(1))),
        ]
        assert verify_langlands(1, sample_points=pts)

    def test_wall_point_raises(self):
        poset = _TypeAPoset(2)
        h = (F(0), F(0), F(0))
        with pytest.raises(WallPoint):
            poset.tau(frozenset(), frozenset({0, 1}), h)

    def test_bad_rank(self):
        with pytest.raises(ValueError):
            verify_langlands(4)


class TestInvertAbstract:
    def test_trivial_poset_rank_free(self):
        # the group element alone: b0 = a0 and zero residual
        g = GroupSpec("u", 1)
        poset = build_parabolic_poset(g, 2)
        a0 = default_gauge_assignment(poset)
        b0, residual = invert_abstract(poset, a0, 0, 20)
        assert b0[frozenset()] == a0[frozenset()]
        assert residual.is_zero

    @pytest.mark.parametrize("k", [0, 1])
    def test_u2_recovers_central_series(self, k):
        g = GroupSpec("u", 2)
        poset = build_parabolic_poset(g, 2)
        a0 = default_gauge_assignment(poset)
        b0, residual = invert_abstract(poset, a0, k, 32)
        assert ratfun_eq(b0[frozenset()], zagier_un(2, k, 2))
        assert residual.is_zero

    def test_sp1_recovers_flat_series(self):
        g = GroupSpec("sp", 1)
        poset = build_parabolic_poset(g, 2)
        a0 = default_gauge_assignment(poset)
        b0, residual = invert_abstract(poset, a0, 0, 32)
        assert ratfun_eq(b0[frozenset()], sp_flat(1, 2))
        assert residual.is_zero

    def test_u3_round_trip(self):
        g = GroupSpec("u", 3)
        poset = build_parabolic_poset(g, 2)
        a0 = default_gauge_assignment(poset)
        for k in (0, 1):
            b0, residual = invert_abstract(poset, a0, k, 20)
            assert ratfun_eq(b0[frozenset()], zagier_un(3, k, 2))
            assert residual.is_zero

    def test_sp2_round_trip(self):
        g = GroupSpec("sp", 2)
        poset = build_parabolic_poset(g, 2)
        a0 = default_gauge_assignment(poset)
        b0, residual = invert_abstract(poset, a0, 0, 20)
        assert ratfun_eq(b0[frozenset()], sp_flat(2, 2))
        assert residual.is_zero

    def test_borel_element_is_gauge_series(self):
        g = GroupSpec("u", 2)
        poset = build_parabolic_poset(g, 3)
        a0 = default_gauge_assignment(poset)
        b0 = closed_inverse(poset, a0, 1)
        borel = frozenset({1})
        assert b0[borel] == a0[borel]

    def test_poset_scope(self):
        with pytest.raises(Exception):
            build_parabolic_poset(GroupSpec("u", 4), 2)

    @pytest.mark.parametrize("fam", ["u", "so-odd", "sp"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_poset_profiles_match_former_cutset_map(self, fam, n):
        def former_index_for_cutset(g, cut):
            # the cut-set to composition map the poset used before it read
            # enumerate_parabolics
            flags = () if g.family == "u" else (g.n in cut,)
            bounds = [0] + sorted(c for c in cut if c < g.n) + [g.n]
            return ParabolicIndex(tuple(b - a for a, b in zip(bounds, bounds[1:])), flags)

        g = GroupSpec(fam, n)
        poset = build_parabolic_poset(g, 2)
        rank = n - 1 if fam == "u" else n
        subsets = {
            frozenset(i + 1 for i in range(rank) if mask >> i & 1) for mask in range(2**rank)
        }
        assert len(poset.elements) == len(subsets)
        assert set(poset.elements) == subsets
        assert set(poset.profiles) == subsets
        for cut in poset.elements:
            assert poset.profiles[cut] == levi_profile(g, former_index_for_cutset(g, cut)), cut


def test_random_relative_point_off_walls():
    rng = random.Random(5)
    poset = _TypeAPoset(2)
    small, large = frozenset(), frozenset({0, 1})
    h = random_relative_point(2, small, large, rng, poset)
    assert any(x != 0 for x in h)
    assert sum(h) == 0
