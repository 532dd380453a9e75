import json
from fractions import Fraction

import pytest

from ymseries.closedforms import so_odd_flat, sp_flat, zagier_un
from ymseries.exactalg import ratfun_eq
from ymseries.rootsys import GroupSpec
from ymseries.strata import (
    AmbiguousComponent,
    AtiyahBottPoint,
    InvalidPoint,
    codim,
    enumerate_ab_points,
    stratum_series,
    verify_recursion,
)

F = Fraction


class TestPointValidation:
    def test_slopes_must_decrease(self):
        with pytest.raises(InvalidPoint):
            AtiyahBottPoint("u", (1, 1), (1, 1))
        AtiyahBottPoint("u", (1, 1), (1, -1))

    def test_zero_tail_flagging(self):
        with pytest.raises(InvalidPoint):
            AtiyahBottPoint("sp", (1, 1), (1, 0), "none")
        AtiyahBottPoint("sp", (1, 1), (1, 0), "zero_block")

    def test_so_even_shapes(self):
        # size-one last block admits a negative label under the previous slope
        AtiyahBottPoint("so-even", (2, 1), (3, -1))
        with pytest.raises(InvalidPoint):
            AtiyahBottPoint("so-even", (2, 1), (2, -1))
        AtiyahBottPoint("so-even", (1, 2), (2, 1), "minus_last")
        with pytest.raises(InvalidPoint):
            AtiyahBottPoint("so-even", (2, 1), (2, 1), "minus_last")

    @pytest.mark.parametrize(
        "fam,comp,labels",
        [("sp", (1,), (1,)), ("so-odd", (2,), (1,)), ("so-even", (2, 1), (3, 1)), ("u", (1,), (0,))],
    )
    def test_misspelled_tail_rejected(self, fam, comp, labels):
        AtiyahBottPoint(fam, comp, labels)
        with pytest.raises(InvalidPoint):
            AtiyahBottPoint(fam, comp, labels, "bogus")

    def test_chamber_vector_minus(self):
        pt = AtiyahBottPoint("so-even", (1, 2), (2, 1), "minus_last")
        assert pt.chamber_vector() == (F(2), F(1, 2), F(-1, 2))


class TestCodim:
    def test_u2_example(self):
        pt = AtiyahBottPoint("u", (1, 1), (1, -1))
        assert codim(GroupSpec("u", 2), pt, 2) == 3

    def test_central_points_have_codim_zero(self):
        cases = [
            (GroupSpec("u", 3), AtiyahBottPoint("u", (3,), (2,))),
            (GroupSpec("sp", 2), AtiyahBottPoint("sp", (2,), (0,), "zero_block")),
            (GroupSpec("so-odd", 3), AtiyahBottPoint("so-odd", (3,), (0,), "zero_block")),
        ]
        for g, pt in cases:
            assert codim(g, pt, 2) == 0

    def test_sp1_example(self):
        pt = AtiyahBottPoint("sp", (1,), (1,))
        assert codim(GroupSpec("sp", 1), pt, 2) == 3

    def test_unitary_codim_closed_form(self):
        # 2 d_mu = 2(ell-1) sum n_i n_j + 2 sum n_i n_j (k_i/n_i - k_j/n_j)
        for n, comp_labels in [
            (2, [((1, 1), (2, -1)), ((1, 1), (1, 0))]),
            (3, [((1, 2), (2, 1)), ((2, 1), (1, -1)), ((1, 1, 1), (2, 1, 0))]),
            (4, [((1, 3), (1, 0)), ((2, 2), (3, 1)), ((1, 2, 1), (2, 1, -1))]),
        ]:
            for comp, labels in comp_labels:
                pt = AtiyahBottPoint("u", comp, labels)
                for ell in (1, 2, 3):
                    expect = F(0)
                    for i in range(len(comp)):
                        for j in range(i + 1, len(comp)):
                            nij = comp[i] * comp[j]
                            expect += nij * (ell - 1) + nij * (
                                F(labels[i], comp[i]) - F(labels[j], comp[j])
                            )
                    assert codim(GroupSpec("u", n), pt, ell) == expect


class TestEnumerate:
    def test_u2_degree_zero(self):
        pts = enumerate_ab_points(GroupSpec("u", 2), 0, 2, 4)
        assert [(p.composition, p.labels, d) for p, d in pts] == [
            ((2,), (0,), 0),
            ((1, 1), (1, -1), 3),
        ]

    def test_sp1(self):
        pts = enumerate_ab_points(GroupSpec("sp", 1), 0, 2, 6)
        assert [(p.labels, p.tail_kind, d) for p, d in pts] == [
            ((0,), "zero_block", 0),
            ((1,), "none", 3),
            ((2,), "none", 5),
        ]

    def test_u1_single_stratum(self):
        for k in (-2, 0, 7):
            pts = enumerate_ab_points(GroupSpec("u", 1), k, 2, 50)
            assert [(p.composition, p.labels, d) for p, d in pts] == [((1,), (k,), 0)]

    def test_monotone_in_bound(self):
        g = GroupSpec("so-even", 2)
        small = {p.key() for p, _ in enumerate_ab_points(g, 1, 2, 8)}
        large = {p.key() for p, _ in enumerate_ab_points(g, 1, 2, 16)}
        assert small <= large

    def test_split_points_listed_for_both_classes(self):
        g = GroupSpec("so-odd", 2)
        for c in (0, 1):
            pts = enumerate_ab_points(g, c, 2, 10)
            assert any(p.is_split for p, _ in pts)

    def test_codims_sorted_and_bounded(self):
        pts = enumerate_ab_points(GroupSpec("sp", 2), 0, 2, 12)
        ds = [d for _, d in pts]
        assert ds == sorted(ds) and all(d <= 12 for d in ds)


class TestStratumSeries:
    def test_sp2_two_unitary_blocks(self):
        pt = AtiyahBottPoint("sp", (1, 1), (2, 1))
        f = stratum_series(GroupSpec("sp", 2), pt, 2)
        assert ratfun_eq(f, zagier_un(1, 2, 2) * zagier_un(1, 1, 2))

    def test_sp2_zero_tail(self):
        pt = AtiyahBottPoint("sp", (1, 1), (1, 0), "zero_block")
        f = stratum_series(GroupSpec("sp", 2), pt, 2)
        assert ratfun_eq(f, zagier_un(1, 1, 2) * sp_flat(1, 2))

    def test_so5_central_plus(self):
        pt = AtiyahBottPoint("so-odd", (2,), (0,), "zero_block")
        f = stratum_series(GroupSpec("so-odd", 2), pt, 2, component="plus")
        assert ratfun_eq(f, so_odd_flat(2, 2, 0))

    def test_split_requires_component(self):
        pt = AtiyahBottPoint("so-odd", (2,), (0,), "zero_block")
        with pytest.raises(AmbiguousComponent):
            stratum_series(GroupSpec("so-odd", 2), pt, 2)

    def test_component_flips_tail_class(self):
        pt = AtiyahBottPoint("so-odd", (1, 1), (1, 0), "zero_block")
        g = GroupSpec("so-odd", 2)
        plus = stratum_series(g, pt, 2, component="plus")
        minus = stratum_series(g, pt, 2, component="minus")
        assert ratfun_eq(plus, zagier_un(1, -1, 2) * so_odd_flat(1, 2, 1))
        assert ratfun_eq(minus, zagier_un(1, -1, 2) * so_odd_flat(1, 2, 0))


class TestRecursion:
    def test_u1_definitional(self):
        rep = verify_recursion(GroupSpec("u", 1), 3, 2, 30)
        assert rep.holds and rep.strata_used == 1

    @pytest.mark.parametrize(
        "fam,n,c",
        [("u", 2, 1), ("sp", 1, 0), ("so-odd", 1, 0), ("so-odd", 1, 1), ("so-even", 2, 1)],
    )
    def test_small_cases_hold(self, fam, n, c):
        rep = verify_recursion(GroupSpec(fam, n), c, 2, 40)
        assert rep.holds, rep.residual.coeffs

    def test_json_report(self):
        rep = verify_recursion(GroupSpec("sp", 1), 0, 2, 20)
        data = rep.to_json()
        json.dumps(data)
        assert data["holds"] is True
        assert data["group"] == "Sp(1)"
        assert all("codim" in s for s in data["strata"])

    def test_low_genus_warns(self):
        with pytest.warns(UserWarning):
            verify_recursion(GroupSpec("u", 1), 0, 1, 10)
