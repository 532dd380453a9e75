import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, product

import pytest

from ymseries.closedforms import flat_series, sp_flat, zagier_un
from ymseries import inversion
from ymseries.errors import ExactnessError, InputError
from ymseries.exactalg import RatFun, one_minus_t, ratfun_eq, series_expand
from ymseries.inversion import (
    ConeSumSpec,
    WallPoint,
    _TypeAPoset,
    build_parabolic_poset,
    closed_inverse,
    cone_sum_closed,
    cone_sum_truncated,
    default_gauge_assignment,
    invert_abstract,
    parabolic_terms,
    random_relative_point,
    verify_langlands,
)
from ymseries.levidata import ParabolicIndex, levi_profile
from ymseries.rootsys import (
    UNITARY,
    GroupSpec,
    UnsupportedFamily,
    _rref,
    _solve,
    build_root_system,
    pairing,
)

F = Fraction


def _nullspace(covectors, n):
    """Basis of the common kernel of the given covectors in Q^n."""
    rows = [[F(x) for x in cv] for cv in covectors]
    pivots = _rref(rows, n)
    basis = []
    for free in range(n):
        if free in pivots:
            continue
        vec = [F(0)] * n
        vec[free] = F(1)
        for row, col in zip(rows, pivots):
            vec[col] = -row[free]
        basis.append(tuple(vec))
    return basis


def gram_relative_weight(rs, q_cut, a):
    """Reference: the Levi-relative weight of a as one solve per weight,
    pairing delta with the Levi simple coroots and zero with a basis of the
    Levi's centre, as inversion computed it before dual_weights."""
    n = rs.n
    levi_idx = [i for i in range(len(rs.simple_roots)) if (i + 1) not in q_cut]
    rows = [list(rs.simple_coroots[i]) + [F(int(i + 1 == a))] for i in levi_idx]
    center = _nullspace([rs.simple_roots[i] for i in levi_idx], n)
    rows += [list(z) + [F(0)] for z in center]
    return tuple(_solve(rows, n))


class GramTypeAPoset:
    """Reference: the type-A poset built by exact Gram solves, as the
    Langlands check computed it before the closed forms replaced it."""

    def __init__(self, rank):
        self.rank = rank
        self.simple = build_root_system(GroupSpec(UNITARY, rank + 1)).simple_roots
        self._rel_cache = {}

    @staticmethod
    def coords(basis, vector):
        rows = [[pairing(b, c) for c in basis] + [pairing(b, vector)] for b in basis]
        return _solve(rows, len(basis))

    @classmethod
    def project(cls, basis, vector):
        out = [F(0)] * len(vector)
        for c, b in zip(cls.coords(basis, vector) if basis else [], basis):
            for i, x in enumerate(b):
                out[i] += c * x
        return tuple(out)

    def a_space_basis(self, levi):
        dim = self.rank + 1
        constraints = [self.simple[i] for i in sorted(levi)] + [tuple(F(1) for _ in range(dim))]
        return _nullspace(constraints, dim)

    def relative_basis(self, small, large):
        key = (small, large)
        if key not in self._rel_cache:
            a_large = self.a_space_basis(large)
            basis = []
            for v in self.a_space_basis(small):
                w = tuple(a - b for a, b in zip(v, self.project(a_large, v)))
                w = tuple(a - b for a, b in zip(w, self.project(basis, w)))
                if any(x != 0 for x in w):
                    basis.append(w)
            self._rel_cache[key] = basis
        return self._rel_cache[key]

    def project_relative(self, vector, small, large):
        return self.project(self.relative_basis(small, large), vector)

    def tau(self, small, large, h):
        vals = [pairing(self.simple[i], h) for i in sorted(large - small)]
        if any(v == 0 for v in vals):
            raise WallPoint("root")
        return all(v > 0 for v in vals)

    def tau_hat(self, small, large, h):
        idxs = sorted(large - small)
        if not idxs:
            return True
        basis = self.relative_basis(small, large)
        proj = [self.project(basis, self.simple[i]) for i in idxs]
        coords = self.coords(proj, h)
        if any(c == 0 for c in coords):
            raise WallPoint("coweight")
        return all(c > 0 for c in coords)


def nested_pairs(rank):
    """(small, large) over every nested pair of subsets of range(rank)."""
    for flags in product((0, 1, 2), repeat=rank):
        small = frozenset(i for i, f in enumerate(flags) if f == 2)
        large = frozenset(i for i, f in enumerate(flags) if f >= 1)
        yield small, large


def block_ids(levi, dim):
    """Coordinate j's block: how many block ends (roots outside levi) precede it."""
    return [sum(1 for i in range(j) if i not in levi) for j in range(dim)]


def indicator_or_wall(fn, *args):
    try:
        return fn(*args)
    except WallPoint:
        return "wall"


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
        with pytest.raises(InputError, match=r"p\*<x> = 2/3 not integral"):
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
    @pytest.mark.parametrize("rank", [1, 2, 3, 4, 5])
    def test_random_samples(self, rank):
        # rank 5 has 211 proper nested pairs, so it draws fewer per pair
        assert verify_langlands(rank, samples=12 if rank < 5 else 4, seed=3)

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_closed_forms_match_gram_reference(self, rank):
        # the origin and small integer entries put samples on walls, so
        # the wall raises are compared too
        rng = random.Random(40 + rank)
        poset, ref = _TypeAPoset(rank), GramTypeAPoset(rank)
        walls = 0
        for small, large in nested_pairs(rank):
            points = [(0,) * (rank + 1)] + [
                tuple(F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(rank + 1))
                for _ in range(4)
            ]
            for v in points:
                h = ref.project_relative(v, small, large)
                assert poset.project_relative(v, small, large) == h
                for fn in ("tau", "tau_hat"):
                    got = indicator_or_wall(getattr(poset, fn), small, large, h)
                    assert got == indicator_or_wall(getattr(ref, fn), small, large, h), fn
                    walls += got == "wall"
        assert walls > 0

    @pytest.mark.parametrize("rank", [1, 2, 3, 4, 5])
    def test_random_relative_point_in_relative_space(self, rank):
        rng = random.Random(rank)
        poset = _TypeAPoset(rank)
        for small, large in nested_pairs(rank):
            for _ in range(3):
                h = random_relative_point(rank, small, large, rng, poset)
                small_ids, large_ids = block_ids(small, rank + 1), block_ids(large, rank + 1)
                for b in set(small_ids):
                    assert len({x for x, i in zip(h, small_ids) if i == b}) == 1
                for b in set(large_ids):
                    assert sum(x for x, i in zip(h, large_ids) if i == b) == 0
                assert any(h) == (small != large)

    def test_rank_one_both_chambers(self):
        poset = _TypeAPoset(1)
        pts = [
            (frozenset(), frozenset({0}), (F(1), F(-1))),
            (frozenset(), frozenset({0}), (F(-1), F(1))),
        ]
        assert verify_langlands(1, sample_points=pts)

    @pytest.mark.parametrize(
        "small, large, h",
        [
            ((), (0,), (F(2), F(1))),  # not sum zero
            ((0,), (), (F(1), F(-1))),  # not nested
            ((), (0,), (F(1), F(-1), F(0))),  # rank 2 coordinates
        ],
    )
    def test_sample_outside_relative_space_rejected(self, small, large, h):
        with pytest.raises(ValueError, match="is not a point of"):
            verify_langlands(1, sample_points=[(small, large, h)])

    def test_wall_point_raises(self):
        poset = _TypeAPoset(2)
        h = (F(0), F(0), F(0))
        with pytest.raises(WallPoint):
            poset.tau(frozenset(), frozenset({0, 1}), h)

    def test_bad_rank(self):
        for rank in (0, -1):
            with pytest.raises(ValueError):
                verify_langlands(rank)

    @pytest.mark.parametrize("samples", [0, -1])
    def test_no_samples_rejected(self, samples):
        # only the trivial pairs, small = large, would be checked
        with pytest.raises(InputError, match=f"samples must be at least 1, got {samples}"):
            verify_langlands(2, samples=samples)

    def test_samples_always_on_a_wall_exhaust(self, monkeypatch):
        def on_wall(*args):
            raise WallPoint("stub")

        monkeypatch.setattr(inversion, "_langlands_identities_at", on_wall)
        match = r"rank 2: 100 draws in a row lay on a wall of a_\[\]\^\[\]"
        with pytest.raises(ExactnessError, match=match):
            verify_langlands(2)

    def test_zero_projections_exhaust(self, monkeypatch):
        monkeypatch.setattr(_TypeAPoset, "project_relative", lambda self, v, small, large: [F(0)] * len(v))
        match = r"rank 2: 100 draws projected to zero in a_\[\]\^\[0\]"
        with pytest.raises(ExactnessError, match=match):
            random_relative_point(2, (), (0,), random.Random(1))
        with pytest.raises(ExactnessError, match="projected to zero"):
            verify_langlands(2)


class TestInvertAbstract:
    @pytest.mark.parametrize("fam", ["u", "so-odd", "so-even", "sp"])
    def test_relative_weights_match_gram_reference(self, fam):
        cuts = 0
        for n in range(2 if fam == "so-even" else 1, 6):
            rs = build_root_system(GroupSpec(fam, n))
            rank = len(rs.simple_roots)
            for k in range(rank + 1):
                for cut in map(frozenset, combinations(range(1, rank + 1), k)):
                    expected = {
                        a: gram_relative_weight(rs, cut, a)
                        for a in range(1, rank + 1)
                        if a not in cut
                    }
                    assert inversion._relative_weights(rs, cut) == expected, (n, sorted(cut))
                    cuts += 1
        assert cuts == {"u": 31, "so-odd": 62, "so-even": 60, "sp": 62}[fam]

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

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("w2", [0, 1])
    def test_so_even_round_trip(self, n, w2):
        g = GroupSpec("so-even", n)
        poset = build_parabolic_poset(g, 2)
        a0 = default_gauge_assignment(poset)
        b0, residual = invert_abstract(poset, a0, w2, 24)
        for engine in ("specialized", "general"):
            assert ratfun_eq(b0[frozenset()], flat_series(g, w2, 2, engine)), engine
        assert residual.is_zero

    @pytest.mark.parametrize("fam", ["su", "spin-odd", "spin-even"])
    def test_poset_unsupported_families(self, fam):
        with pytest.raises(UnsupportedFamily):
            build_parabolic_poset(GroupSpec(fam, 2), 2)

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


class TestParabolicTerms:
    """The exactness guards of the one generator of parabolic-sum terms."""

    def u2_borel_case(self, rho_pairing=None):
        poset = build_parabolic_poset(GroupSpec("u", 2), 2)
        if rho_pairing is not None:
            borel = frozenset({1})
            profile = replace(poset.profiles[borel], rho_pairings=(rho_pairing,))
            poset = replace(poset, profiles={**poset.profiles, borel: profile})
        return poset, default_gauge_assignment(poset)

    def test_fractional_total_twist(self):
        poset, a0 = self.u2_borel_case()
        assert poset.profiles[frozenset({1})].rho_pairings == (1,)  # weight 4
        with pytest.raises(ExactnessError, match="total twist 4/3"):
            list(parabolic_terms(poset, a0, frozenset(), {1: F(1, 3)}))

    @pytest.mark.parametrize("rho_pairing,weight", [(F(1, 3), "4/3"), (F(0), "0")])
    def test_pair_weight_not_positive_integer(self, rho_pairing, weight):
        poset, a0 = self.u2_borel_case(rho_pairing)
        with pytest.raises(ExactnessError, match=f"pair weight {weight} "):
            list(parabolic_terms(poset, a0, frozenset(), {1: F(1, 2)}))


def test_random_relative_point_off_walls():
    rng = random.Random(5)
    poset = _TypeAPoset(2)
    small, large = frozenset(), frozenset({0, 1})
    h = random_relative_point(2, small, large, rng, poset)
    assert any(x != 0 for x in h)
    assert sum(h) == 0
