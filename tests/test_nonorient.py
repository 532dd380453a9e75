import json
from fractions import Fraction

import pytest

from ymseries.nonorient import (
    FlatSp,
    InvalidPoint,
    NonorientablePoint,
    TwistedO,
    TwistedU,
    chamber_involution,
    classify_components,
    decomposition_render,
    enumerate_nonorientable_points,
)
from ymseries.rootsys import GroupSpec
from ymseries.strata import TAIL_MINUS, TAIL_ZERO, _tail_shapes

F = Fraction


class TestInvolution:
    def test_so7_identity(self):
        assert chamber_involution(GroupSpec("so-odd", 3), (3, 1, 0)) == (3, 1, 0)

    def test_so6_sign_flip(self):
        assert chamber_involution(GroupSpec("so-even", 3), (3, 2, 1)) == (3, 2, -1)

    def test_so8_identity(self):
        assert chamber_involution(GroupSpec("so-even", 4), (3, 2, 1, 1)) == (3, 2, 1, 1)

    def test_sp2_identity(self):
        assert chamber_involution(GroupSpec("sp", 2), (2, 1)) == (2, 1)

    def test_u_reverse_negate(self):
        assert chamber_involution(GroupSpec("u", 3), (2, 0, -2)) == (2, 0, -2)
        assert chamber_involution(GroupSpec("u", 2), (3, 1)) == (-1, -3)

    @pytest.mark.parametrize("fam,n", [("u", 4), ("so-odd", 3), ("so-even", 3),
                                       ("so-even", 4), ("sp", 5)])
    def test_involutive(self, fam, n):
        g = GroupSpec(fam, n)
        for seed in range(6):
            v = tuple(F(seed + 7 - 3 * j, j + 1) for j in range(n))
            assert chamber_involution(g, chamber_involution(g, v)) == v


class TestPointValidation:
    def test_sp_slope_floor(self):
        NonorientablePoint("sp", (2,), (2,), 1)  # slope 1 > 1/2
        with pytest.raises(InvalidPoint):
            NonorientablePoint("sp", (2,), (1,), 1)  # slope 1/2 not allowed

    def test_so_even_odd_rank_needs_tail(self):
        NonorientablePoint("so-even", (1, 2), (1, 0), 1, TAIL_ZERO)
        with pytest.raises(InvalidPoint):
            NonorientablePoint("so-even", (3,), (1,), 1)

    def test_so_even_odd_rank_tail_of_any_size(self):
        # a size-one zero tail: odd rank only, as no orientable so-even point carries one
        NonorientablePoint("so-even", (2, 1), (1, 0), 1, TAIL_ZERO)
        with pytest.raises(InvalidPoint):
            NonorientablePoint("so-even", (3, 1), (1, 0), 1, TAIL_ZERO)

    def test_one_invalid_point_class(self):
        from ymseries import strata

        assert InvalidPoint is strata.InvalidPoint
        with pytest.raises(strata.InvalidPoint):
            NonorientablePoint("so-odd", (1,), (1,), 1, TAIL_MINUS)

    def test_chamber_values(self):
        pt = NonorientablePoint("sp", (1, 1), (2, 0), 1, TAIL_ZERO)
        assert pt.chamber_vector() == (F(3), F(0))
        pt = NonorientablePoint("so-odd", (2,), (1,), 2)
        assert pt.chamber_vector() == (F(1), F(1))
        pt = NonorientablePoint("so-even", (2, 2), (3, 1), 1, TAIL_MINUS)
        assert pt.chamber_vector() == (F(3), F(3), F(1), F(-1))


class TestEnumerate:
    def test_sp1(self):
        pts = enumerate_nonorientable_points(GroupSpec("sp", 1), 1, 2)
        got = {(p.composition, p.labels, p.tail_kind == TAIL_ZERO) for p in pts}
        assert got == {((1,), (0,), True), ((1,), (1,), False), ((1,), (2,), False)}

    def test_so3(self):
        pts = enumerate_nonorientable_points(GroupSpec("so-odd", 1), 1, 1)
        got = {(p.composition, p.labels, p.tail_kind == TAIL_ZERO) for p in pts}
        assert got == {((1,), (0,), True), ((1,), (1,), False)}

    def test_so6_mandatory_tail(self):
        pts = enumerate_nonorientable_points(GroupSpec("so-even", 3), 2, 1)
        assert pts and all(p.tail_kind == TAIL_ZERO for p in pts)
        got = {(p.composition, p.labels) for p in pts}
        assert got == {((3,), (0,)), ((1, 2), (1, 0)), ((2, 1), (1, 0))}

    def test_so8_shapes(self):
        pts = enumerate_nonorientable_points(GroupSpec("so-even", 4), 1, 5)
        # a size-one final block admits negative labels without a minus flag
        assert any(p.labels[-1] < 0 for p in pts)
        assert any(p.tail_kind == TAIL_MINUS for p in pts)
        assert any(p.tail_kind == TAIL_ZERO for p in pts)
        for p in pts:
            if p.tail_kind == TAIL_MINUS:
                assert p.composition[-1] >= 2

    def test_deterministic(self):
        g = GroupSpec("sp", 2)
        assert enumerate_nonorientable_points(g, 1, 3) == enumerate_nonorientable_points(g, 1, 3)

    @staticmethod
    def brute_force_points(g, i, bound):
        """The former enumerator: every label in [0, bound] (or [-bound, bound]
        for a final size-one even-orthogonal block), each candidate filtered
        through the point constructor."""
        fam, n = g.family, g.n
        found = set()

        def try_point(comp, labels, tail_kind):
            try:
                pt = NonorientablePoint(fam, tuple(comp), tuple(labels), i, tail_kind)
            except InvalidPoint:
                return
            found.add(pt)

        def extend(comp, labels, remaining):
            if remaining == 0:
                for tail_kind in _tail_shapes(fam, comp[-1], labels[-1]):
                    try_point(comp, labels, tail_kind)
                return
            for part in range(1, remaining + 1):
                final = part == remaining
                lo = -bound if fam == "so-even" and n % 2 == 0 and final and part == 1 else 0
                for k in range(lo, bound + 1):
                    extend(comp + [part], labels + [k], remaining - part)
            if fam in ("sp", "so-even"):
                try_point(comp + [remaining], labels + [0], TAIL_ZERO)

        extend([], [], n)
        return found

    @pytest.mark.parametrize(
        "fam,n", [(fam, n) for fam, lo in (("sp", 1), ("so-odd", 1), ("so-even", 2)) for n in range(lo, 7)]
    )
    def test_matches_brute_force(self, fam, n):
        g = GroupSpec(fam, n)
        for i in (1, 2):
            for bound in (3, 5) if n <= 3 else (2,):
                pts = enumerate_nonorientable_points(g, i, bound)
                assert len(set(pts)) == len(pts)
                assert set(pts) == self.brute_force_points(g, i, bound), (i, bound)

    @pytest.mark.parametrize(
        "fam,n", [(fam, n) for fam, lo in (("sp", 1), ("so-odd", 1), ("so-even", 2)) for n in range(lo, 6)]
    )
    def test_builds_each_point_once(self, fam, n, monkeypatch):
        # the walk admits only chamber points, so no constructor call raises
        # and none makes a duplicate
        calls = []
        check = NonorientablePoint.__post_init__

        def counted(self):
            calls.append(self)
            check(self)

        monkeypatch.setattr(NonorientablePoint, "__post_init__", counted)
        g = GroupSpec(fam, n)
        for i in (1, 2):
            calls.clear()
            pts = enumerate_nonorientable_points(g, i, 3)
            assert pts and len(calls) == len(pts), i

    @pytest.mark.parametrize("fam,n", [("sp", 2), ("so-odd", 2), ("so-even", 3), ("so-even", 4)])
    def test_negative_bound_admits_no_label(self, fam, n):
        # |k_j| <= bound holds for no label, not even a zero tail's 0
        assert enumerate_nonorientable_points(GroupSpec(fam, n), 1, -1) == []


class TestClassify:
    def test_sp2_two_blocks(self):
        pt = NonorientablePoint("sp", (1, 1), (2, 1), 1)
        rep = classify_components(GroupSpec("sp", 2), pt)
        assert rep.component_count == 1
        (comp,) = rep.components
        assert comp.w2 is None
        assert comp.factors == (TwistedU(1, 2), TwistedU(1, 1))

    def test_sp_zero_tail(self):
        pt = NonorientablePoint("sp", (1, 2), (1, 0), 2, TAIL_ZERO)
        rep = classify_components(GroupSpec("sp", 3), pt)
        assert rep.components[0].factors == (TwistedU(1, 1), FlatSp(2))

    def test_so7_split_example(self):
        pt = NonorientablePoint("so-odd", (1, 2), (1, 0), 1, TAIL_ZERO)
        rep = classify_components(GroupSpec("so-odd", 3), pt)
        assert rep.component_count == 2
        plus, minus = rep.components
        assert (plus.w2, minus.w2) == (0, 1)
        # exponent k_1 + i (n - n_r)(n - n_r - 1)/2 = 1, so the signs swap
        assert plus.factors == (TwistedU(1, -1), TwistedO(5, -1, -1))
        assert minus.factors == (TwistedU(1, -1), TwistedO(5, -1, 1))

    def test_so3_klein_example(self):
        pt = NonorientablePoint("so-odd", (1,), (1,), 2)
        rep = classify_components(GroupSpec("so-odd", 1), pt)
        assert rep.component_count == 1
        assert rep.components[0].w2 == 1
        assert rep.components[0].factors == (TwistedU(1, -1),)

    def test_so6_always_two(self):
        g = GroupSpec("so-even", 3)
        for pt in enumerate_nonorientable_points(g, 1, 2):
            assert classify_components(g, pt).component_count == 2

    def test_so8_counts(self):
        g = GroupSpec("so-even", 4)
        for pt in enumerate_nonorientable_points(g, 1, 2):
            rep = classify_components(g, pt)
            assert rep.component_count == (2 if pt.tail_kind == TAIL_ZERO else 1)

    def test_sp_always_one(self):
        g = GroupSpec("sp", 2)
        for pt in enumerate_nonorientable_points(g, 2, 3):
            assert classify_components(g, pt).component_count == 1

    def test_validity_threshold(self):
        pt = NonorientablePoint("sp", (1,), (1,), 2)
        rep = classify_components(GroupSpec("sp", 1), pt)
        assert rep.validity == {"l_min": 4}

    def test_json_round_trip(self):
        pt = NonorientablePoint("so-even", (1, 2), (1, 0), 1, TAIL_ZERO)
        rep = classify_components(GroupSpec("so-even", 3), pt)
        data = json.loads(json.dumps(rep.to_json()))
        assert data["group"] == "SO(6)"
        assert len(data["components"]) == 2
        kinds = [f["kind"] for f in data["components"][0]["factors"]]
        assert kinds == ["twisted_u", "twisted_o"]


class TestSignIdentities:
    def test_so_even_odd_rank_exponent_identity(self):
        # i(n-m)(n-m-1)/2 and i(m_half + m(m-1)/2) agree mod 2 when n is odd
        for n in (3, 5, 7):
            m_half = n // 2
            for m in range(1, n + 1):
                for i in (1, 2):
                    direct = i * (n - m) * (n - m - 1) // 2
                    rewritten = i * (m_half + m * (m - 1) // 2)
                    assert direct % 2 == rewritten % 2, (n, m, i)

    def test_so_even_even_rank_exponent_identity(self):
        for n in (2, 4, 6):
            m_half = n // 2
            for m in range(1, n):
                for i in (1, 2):
                    direct = i * (n - m) * (n - m - 1) // 2
                    rewritten = i * (m_half + m * (m + 1) // 2)
                    assert direct % 2 == rewritten % 2, (n, m, i)


class TestRender:
    def test_sp_product(self):
        pt = NonorientablePoint("sp", (1, 1), (2, 1), 1)
        rep = classify_components(GroupSpec("sp", 2), pt)
        assert decomposition_render(rep) == "M~(l,i;1,2) x M~(l,i;1,1)"

    def test_two_lines(self):
        pt = NonorientablePoint("so-odd", (1, 2), (1, 0), 1, TAIL_ZERO)
        rep = classify_components(GroupSpec("so-odd", 3), pt)
        lines = decomposition_render(rep).splitlines()
        assert lines[0].startswith("+: ") and lines[1].startswith("-: ")

    def test_central_tail_only(self):
        pt = NonorientablePoint("sp", (2,), (0,), 1, TAIL_ZERO)
        rep = classify_components(GroupSpec("sp", 2), pt)
        assert decomposition_render(rep) == "M(Sp(2))"
