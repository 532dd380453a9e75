import hashlib
import json
from fractions import Fraction

import pytest

import former_stratum_sum as former
from ymseries import strata
from ymseries.closedforms import so_odd_flat, sp_flat, zagier_un
from ymseries.errors import ExactnessError
from ymseries.exactalg import ratfun_eq, series_expand
from ymseries.gaugeseries import betti_degrees, bg_orientable
from ymseries.rootsys import GroupSpec, build_root_system, pairing
from ymseries.strata import (
    AmbiguousComponent,
    AtiyahBottPoint,
    InvalidPoint,
    codim,
    enumerate_ab_points,
    stratum_factors,
    stratum_series,
    verify_recursion,
)

F = Fraction

# the four families at ranks up to 4, with every bundle class
GRID = [
    (fam, n, c)
    for fam, lo in (("u", 1), ("so-odd", 1), ("so-even", 2), ("sp", 1))
    for n in range(lo, 5)
    for c in (range(n) if fam == "u" else (0, 1) if fam.startswith("so") else (0,))
]


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

    @pytest.mark.parametrize(
        "fam,n", [("so-odd", 3), ("so-even", 4), ("so-odd", 4), ("so-even", 5), ("so-odd", 5), ("so-even", 6)]
    )
    def test_builds_only_points_of_the_class(self, fam, n, monkeypatch):
        # SO(7) to SO(12): a leaf of the other w2 is dropped before it is built
        calls = []
        check = AtiyahBottPoint.__post_init__

        def counted(self):
            calls.append(self)
            check(self)

        monkeypatch.setattr(AtiyahBottPoint, "__post_init__", counted)
        g = GroupSpec(fam, n)
        for w2 in (0, 1):
            calls.clear()
            pts = enumerate_ab_points(g, w2, 2, 30)
            assert pts and len(calls) == len(pts), w2
            assert all(p.bundle_class() in (None, w2) for p, _ in pts)

    @pytest.mark.parametrize(
        "fam,n,bound,kept,digest",
        [
            ("so-even", 5, 50, 90, "05a10082586e7c323c95b5fada1c5c428c48c9108c27eb5236329c66607a6416"),
            ("so-even", 6, 40, 21, "6a0a7ef7d9ed8209446e8a7465d8ec33ed28deaf358a5804f443908dd9f805b7"),
            ("so-odd", 3, 30, 24, "f3972970ea8db52883d2771b953f7ad6d74aa957404d0c63ab9e929296deb84e"),
        ],
    )
    def test_last_label_takes_the_class_parity(self, fam, n, bound, kept, digest, monkeypatch):
        # SO(10), SO(12) and SO(7) at w2 = 1: the last label is tried only
        # where sum k_j is odd or it makes a split zero tail, so every leaf
        # shape is a kept point; each list is pinned by the sha256 of its
        # (key, codim) pairs
        built = []
        check = AtiyahBottPoint.__post_init__
        monkeypatch.setattr(AtiyahBottPoint, "__post_init__", lambda self: built.append(self) or check(self))
        pts = enumerate_ab_points(GroupSpec(fam, n), 1, 2, bound)
        assert len(built) == len(pts) == kept
        assert hashlib.sha256(repr([(p.key(), d) for p, d in pts]).encode()).hexdigest() == digest


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


class TestStratumFactors:
    def test_product_of_levi_factors(self):
        pt = AtiyahBottPoint("so-even", (2, 2), (1, 0), "zero_block")
        g = GroupSpec("so-even", 4)
        assert stratum_factors(g, pt, "minus") == (("u", 2, -1), ("so-even", 2, 0))
        assert stratum_factors(g, pt, "plus") == (("u", 2, -1), ("so-even", 2, 1))
        pt = AtiyahBottPoint("sp", (1, 2), (3, 0), "zero_block")
        assert stratum_factors(GroupSpec("sp", 3), pt) == (("u", 1, 3), ("sp", 2, 0))

    @pytest.mark.parametrize("fam,n,c", [row for row in GRID if row[0].startswith("so")])
    def test_split_tail_class(self, fam, n, c):
        """A split point's tail is the flat series of class w2 + sum k_j mod 2,
        on each component, after the unitary blocks of degree -k_j."""
        g = GroupSpec(fam, n)
        split = [pt for pt, _ in enumerate_ab_points(g, c, 2, 16) if pt.is_split]
        assert split
        for pt in split:
            for w2, component in enumerate(("plus", "minus")):
                *blocks, tail = stratum_factors(g, pt, component)
                body = zip(pt.composition[:-1], pt.labels[:-1])
                assert blocks == [("u", p, -k) for p, k in body]
                assert tail == (fam, pt.composition[-1], (w2 + sum(pt.labels[:-1])) % 2)

    def test_component_errors(self):
        pt = AtiyahBottPoint("u", (1, 1), (1, 0))
        with pytest.raises(InvalidPoint, match="only split orthogonal points take a component"):
            stratum_factors(GroupSpec("u", 2), pt, "plus")
        pt = AtiyahBottPoint("so-odd", (1, 1), (2, 1))
        with pytest.raises(AmbiguousComponent, match="unsplit point: no component to choose"):
            stratum_factors(GroupSpec("so-odd", 2), pt, "minus")
        with pytest.raises(InvalidPoint, match="point does not belong to this group"):
            stratum_factors(GroupSpec("so-odd", 3), pt)


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


class TestIntegerChamberArithmetic:
    """The enumeration, codimension and truncated sums against the formulas
    they replaced, kept inline as references."""

    @staticmethod
    def former_increment(fam, comp, labels, part, label, ell):
        """What appending the block (part, label) added to the former pruning
        bound: the theta_i - theta_j pair terms n_i n_j (k_i/n_i - k_j/n_j +
        ell - 1), cleared of fractions, and the family singles."""
        before = sum(comp)
        inc = part * sum(labels) - label * before + part * before * (ell - 1)
        if label > 0 and fam == "so-odd":
            inc += label + part * (ell - 1)
        elif label > 0 and fam == "sp":
            inc += 2 * label + part * (ell - 1)
        return inc

    @classmethod
    def reference_points(cls, g, c, ell, codim_bound):
        """The former enumerator: no lookahead, pruned by the bound above
        summed over the placed blocks, with `codim` deciding every leaf.
        Returns (key, codim) pairs."""
        fam, n = g.family, g.n
        if fam == "u":
            den, hi_num, lo_num = n, c + n * (codim_bound + 1), c - n * (codim_bound + 1)
        else:
            den, hi_num, lo_num = 1, codim_bound + 1, 0
        found = []

        def finish(comp, labels, tail_kind):
            try:
                pt = AtiyahBottPoint(fam, tuple(comp), tuple(labels), tail_kind)
            except InvalidPoint:
                return
            if pt.bundle_class() not in (None, c if fam == "u" else c % 2):
                return
            d = codim(g, pt, ell)
            if d <= codim_bound:
                found.append((pt.key(), d))

        def extend(comp, labels, bound, remaining):
            if remaining == 0:
                for tail_kind in strata._tail_shapes(fam, comp[-1], labels[-1]):
                    finish(comp, labels, tail_kind)
                return
            for part in range(1, remaining + 1):
                is_last = part == remaining
                hi_k = (hi_num * part - 1) // den
                if comp:
                    hi_k = min(hi_k, (labels[-1] * part - 1) // comp[-1])
                lo_k = -(-lo_num * part // den)
                ks = [c - sum(labels)] if fam == "u" and is_last else range(lo_k, hi_k + 1)
                for k in ks:
                    if not lo_k <= k <= hi_k:
                        continue
                    neg = fam == "so-even" and is_last and part == 1 and comp and k > 0
                    for kk in (k, -k) if neg else (k,):
                        new_bound = bound + cls.former_increment(fam, comp, labels, part, kk, ell)
                        if new_bound <= codim_bound:
                            extend(comp + [part], labels + [kk], new_bound, remaining - part)

        extend([], [], 0, n)
        return sorted(found, key=lambda kd: (kd[1],) + kd[0])

    @pytest.mark.parametrize("fam,n,c", GRID)
    def test_bound_matches_fraction_formula(self, fam, n, c):
        # the exact prefix codimension prunes more, never a kept point
        g = GroupSpec(fam, n)
        for ell in (1, 2, 3):
            for bound in (8, 16) if n <= 3 else (8,):
                got = [(pt.key(), d) for pt, d in enumerate_ab_points(g, c, ell, bound)]
                assert got == self.reference_points(g, c, ell, bound), (ell, bound)

    @pytest.mark.parametrize("fam,n,c", [("u", 4, 1), ("so-even", 4, 1), ("so-odd", 3, 1), ("sp", 3, 0)])
    def test_codim_called_once_per_kept_point(self, fam, n, c, monkeypatch):
        calls = []
        real_codim = strata.codim
        monkeypatch.setattr(strata, "codim", lambda *args: calls.append(args) or real_codim(*args))
        points = enumerate_ab_points(GroupSpec(fam, n), c, 2, 20)
        assert len(calls) == len(points) > 0

    @pytest.mark.parametrize(
        "fam,n,c,ranges", [("u", 4, 1, 88), ("so-even", 5, 1, 21), ("so-odd", 4, 1, 16), ("sp", 4, 0, 16)]
    )
    def test_label_ranges_computed_pinned(self, fam, n, c, ranges, monkeypatch):
        # a looser prune (an infeasible unitary remainder, a zero block before
        # another block, S for S + k in the cross term) keeps the same points
        # but computes more label ranges; the counts pin the pruning's reach
        calls = []
        real_max_label_below = strata._max_label_below
        monkeypatch.setattr(
            strata, "_max_label_below", lambda *args: calls.append(args) or real_max_label_below(*args)
        )
        enumerate_ab_points(GroupSpec(fam, n), c, 2, 20)
        assert len(calls) == ranges

    def test_carried_codimension_checked_at_each_leaf(self, monkeypatch):
        real_codim = strata.codim
        monkeypatch.setattr(strata, "codim", lambda *args: real_codim(*args) + 1)
        with pytest.raises(ExactnessError, match="disagrees with the enumerated"):
            enumerate_ab_points(GroupSpec("so-even", 3), 1, 2, 8)

    @pytest.mark.parametrize("fam,n,c", GRID)
    def test_codim_matches_root_pairings(self, fam, n, c, monkeypatch):
        g = GroupSpec(fam, n)
        evaluated = []
        real_codim = strata.codim

        def recording(g_, pt, ell):
            evaluated.append((pt, ell))
            return real_codim(g_, pt, ell)

        monkeypatch.setattr(strata, "codim", recording)
        for ell in (1, 2, 3):
            points = enumerate_ab_points(g, c, ell, 8)
            # each (composition, labels, tail) leaf is reached once
            assert len({pt.key() for pt, _ in points}) == len(points), ell
        assert evaluated
        roots = build_root_system(g).positive_roots
        for pt, ell in evaluated:
            expect = F(0)
            for alpha in roots:
                val = pairing(alpha, pt.chamber_vector())
                if val > 0:
                    expect += val + ell - 1
            assert real_codim(g, pt, ell) == expect, (pt, ell)

    def test_non_integral_codimension_raises(self):
        # bypass the chamber rules: mu = (1/2, -1/2) in SO(5) is positive on
        # theta_1 - theta_2 and theta_1, so d_mu = 3/2 + 2 (ell - 1)
        pt = object.__new__(AtiyahBottPoint)
        for name, value in (
            ("family", "so-odd"), ("composition", (2,)), ("labels", (1,)), ("tail_kind", "minus_last")
        ):
            object.__setattr__(pt, name, value)
        with pytest.raises(ExactnessError, match="codimension 7/2 for"):
            codim(GroupSpec("so-odd", 2), pt, 2)

    @pytest.mark.parametrize("fam,n,c", [("u", 4, 1), ("so-even", 4, 1), ("sp", 3, 0)])
    def test_truncated_stratum_coefficients(self, fam, n, c):
        g, ell, degree = GroupSpec(fam, n), 2, 40
        report = verify_recursion(g, c, ell, degree)
        points = enumerate_ab_points(g, c, ell, degree // 2)
        assert list(report.strata) == points
        # lhs - sum of t^{2d} times each stratum's own series, expanded here
        expect = list(series_expand(bg_orientable(betti_degrees(g), ell), degree).coeffs)
        for pt, d in points:
            component = ("plus" if c % 2 == 0 else "minus") if pt.is_split else None
            f = stratum_series(g, pt, ell, component=component)
            for i, x in enumerate(series_expand(f, degree - 2 * d).coeffs):
                expect[2 * d + i] -= x
        assert report.residual.coeffs == tuple(expect)

    def test_reports_match_former_stratum_sum(self):
        """Every family and class at n <= 5, genus 1 to 3: the packed sum's
        report equals the one built from the former per-stratum Poly products
        (tests/former_stratum_sum.py).  Both take the same left side, so
        equal residuals mean equal right sides."""
        grid = [
            (fam, n, c)
            for fam, lo in (("u", 1), ("so-odd", 1), ("so-even", 2), ("sp", 1))
            for n in range(lo, 6)
            for c in (range(n) if fam == "u" else (0, 1) if fam.startswith("so") else (0,))
        ]
        for i, (fam, n, c) in enumerate(grid):
            g = GroupSpec(fam, n)
            for ell in (1, 2, 3):
                degree = (60, 47, 33)[(i + ell) % 3]
                got = verify_recursion(g, c, ell, degree)
                assert got == former.verify_recursion(g, c, ell, degree), (fam, n, c, ell)
