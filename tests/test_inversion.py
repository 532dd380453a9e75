import random
import re
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, product
from math import ceil, floor, lcm

import pytest

from former_twists import former_first_exponents, former_frac_part, former_parabolic_terms
from former_weights import _rref, _solve, dual_weights, weight_on_pi1
from polys import one_minus_t
from ymseries.closedforms import flat_series, sp_flat, zagier_un
from ymseries import inversion
from ymseries.errors import ExactnessError, InputError
from ymseries.exactalg import (
    CoeffVector,
    Poly,
    RatFun,
    ratfun_eq,
    series_expand,
    signed_sum,
)
from ymseries.inversion import (
    ConeSumSpec,
    WallPoint,
    _difference,
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
from ymseries.levidata import _radical, levi_profile
from ymseries.rootsys import (
    UNITARY,
    GroupSpec,
    UnsupportedFamily,
    build_root_system,
    levi_classes,
    pairing,
    pi1_representative,
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


# -- oracles: the appendix checks as they were written point by point on
# Fractions, before they ran on integers


def point_by_point_cone_sum(spec, order):
    """Reference: one recursion step per lattice point of the cone."""
    coeffs = [0] * (order + 1)
    firsts = [int(p * former_frac_part(x)) for p, x in zip(spec.weights, spec.classes)]

    def rec(idx, exponent):
        if idx == len(spec.weights):
            coeffs[exponent] += 1
            return
        e = exponent + firsts[idx]
        while e <= order:
            rec(idx + 1, e)
            e += spec.weights[idx]

    rec(0, 0)
    return CoeffVector(tuple(coeffs))


def fraction_block_average(h, levi):
    """Reference: h with each coordinate replaced by its block's Fraction mean."""
    out, start = [], 0
    for i in range(len(h)):
        if i not in levi:
            block = h[start : i + 1]
            out += [sum(block, F(0)) / len(block)] * len(block)
            start = i + 1
    return out


def fraction_identities_at(poset, small, large, h):
    """Reference: both Langlands identities at h, on Fraction averages."""
    between = [q for q in poset.subsets if small <= q <= large]
    avg = {q: fraction_block_average(h, q) for q in between}
    total_qr = total_pq = 0
    for q in between:
        hq = tuple(a - b for a, b in zip(avg[small], avg[q]))
        h_q = tuple(a - b for a, b in zip(avg[q], avg[large]))
        if poset.tau(small, q, hq) and poset.tau_hat(q, large, h_q):
            total_qr += (-1) ** (len(large) - len(q))
        if poset.tau_hat(small, q, hq) and poset.tau(q, large, h_q):
            total_pq += (-1) ** (len(q) - len(small))
    expect = 1 if small == large else 0
    return total_qr == expect and total_pq == expect


def fraction_relative_point(rank, small, large, rng):
    """Reference: the projection of one draw of Fractions a / b."""
    v = [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(rank + 1)]
    return tuple(
        a - b for a, b in zip(fraction_block_average(v, small), fraction_block_average(v, large))
    )


def shifted(base, vectors, coeffs) -> tuple:
    """base + sum of c * v over the aligned coeffs and vectors."""
    out = list(base)
    for c, v in zip(coeffs, vectors):
        for i, x in enumerate(v):
            out[i] += c * x
    return tuple(out)


def relative_weights(rs, q_cut):
    """Reference: {a: the Fraction weight of the Levi cut by q_cut dual to
    coroot a}, from the former elimination on the Levi's simple roots and
    coroots, as inversion computed them before the integer classes."""
    levi = [a for a in range(1, len(rs.simple_roots) + 1) if a not in q_cut]
    weights = dual_weights(
        [rs.simple_roots[a - 1] for a in levi], [rs.simple_coroots[a - 1] for a in levi]
    )
    return dict(zip(levi, weights))


def as_numerators(classes):
    """Fraction classes as (integer numerators over their lcm, that lcm)."""
    den = lcm(*(x.denominator for x in classes.values()))
    return {a: x.numerator * (den // x.denominator) for a, x in classes.items()}, den


def box_walk_residual(poset, a0, b0_top, topclass, order):
    """Reference: the forward relation re-summed one lattice point at a
    time, each point built with shifted and read with pairing against the
    Fraction weights."""
    rs = build_root_system(poset.group)
    weights = dual_weights(rs.simple_roots, rs.simple_coroots)
    rep = pi1_representative(poset.group, topclass)
    top = frozenset()
    rhs = list(series_expand(b0_top, order).coeffs)
    for p_cut in poset.elements:
        n_p = 2 * poset.profiles[p_cut].dim_u * (poset.ell - 1)
        if p_cut == top or n_p > order:
            continue
        idxs = sorted(p_cut)
        coroots = [rs.simple_coroots[a - 1] for a in idxs]
        rho = tuple(F(x, 2) for x in _radical(rs, p_cut)[1])
        p_weights = [4 * pairing(rho, v) for v in coroots]
        base_vals = [pairing(weights[a - 1], rep) for a in idxs]
        box = [
            range(ceil(-x), floor((order - n_p) / w - x) + 1) for w, x in zip(p_weights, base_vals)
        ]
        rel_weights = relative_weights(rs, p_cut)
        levi_coroots = [rs.simple_coroots[a - 1] for a in rel_weights]
        b0_cache = {}
        for m in product(*box):
            x = shifted(rep, coroots, m)
            center = shifted(x, levi_coroots, [-pairing(w, x) for w in rel_weights.values()])
            if any(pairing(rs.simple_roots[a - 1], center) <= 0 for a in idxs):
                continue
            exponent = n_p + 4 * pairing(rho, x)
            assert exponent.denominator == 1 and exponent >= 0
            if exponent > order:
                continue
            key = tuple(pairing(w, x) % 1 for w in rel_weights.values())
            if key not in b0_cache:
                classes = as_numerators(dict(zip(rel_weights, key)))
                b0_cache[key] = signed_sum(inversion.parabolic_terms(poset, a0, p_cut, *classes))
            for i, c in enumerate(series_expand(b0_cache[key], order - int(exponent)).coeffs):
                rhs[int(exponent) + i] += c
    lhs = series_expand(a0[top], order)
    return CoeffVector(tuple(a - b for a, b in zip(lhs.coeffs, rhs)))


def bundles(max_n):
    """(group, class) for every family and class with n <= max_n."""
    for fam, lo in (("u", 1), ("sp", 1), ("so-odd", 1), ("so-even", 2)):
        for n in range(lo, max_n + 1):
            classes = range(n) if fam == "u" else (0, 1) if fam.startswith("so") else (0,)
            for c in classes:
                yield GroupSpec(fam, n), c


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

    def test_counts_match_point_by_point_recursion(self):
        rng = random.Random(31)
        specs = [
            (ConeSumSpec((), ()), 3),
            (ConeSumSpec((3,), (F(1, 3),)), 0),  # order 0
            (ConeSumSpec((2, 5), (F(0), F(-3))), 0),
            (ConeSumSpec((9, 2), (F(0), F(1, 2))), 6),  # p > order, class 0
            (ConeSumSpec((4, 7), (F(5), F(9, 7))), 3),  # every first exponent > order
        ]
        for _ in range(300):
            weights, classes = [], []
            for _ in range(rng.randint(1, 4)):
                p = rng.randint(1, 12)
                den = rng.choice([d for d in range(1, 13) if p % d == 0])
                # classes outside [0, 1) too: only x mod Z matters
                classes.append(F(rng.randint(-2 * den, 2 * den), den))
                weights.append(p)
            specs.append((ConeSumSpec(tuple(weights), tuple(classes)), rng.randint(0, 40)))
        for spec, order in specs:
            assert cone_sum_truncated(spec, order) == point_by_point_cone_sum(spec, order), spec

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

    def test_first_exponents_match_former(self):
        # p <x> by divmod on integers, against p times the Fraction bracket;
        # about half the specs have a non-integral factor and must be refused
        rng = random.Random(27)
        refused = 0
        for _ in range(400):
            weights, classes = [], []
            for _ in range(rng.randint(0, 4)):
                den = rng.randint(1, 12)
                weights.append(rng.randint(1, 12))
                classes.append(F(rng.randint(-3 * den, 3 * den), den))
            weights, classes = tuple(weights), tuple(classes)
            try:
                expect = former_first_exponents(weights, classes)
            except InputError as exc:
                refused += 1
                with pytest.raises(InputError, match=f"^{re.escape(str(exc))}$"):
                    ConeSumSpec(weights, classes)
                continue
            got = ConeSumSpec(weights, classes).first_exponents
            assert got == expect and all(type(x) is int for x in got), (weights, classes)
        assert 100 < refused < 300


class TestLanglands:
    @pytest.mark.parametrize("rank", [1, 2, 3, 4, 5])
    def test_random_samples(self, rank):
        # rank 5 has 211 proper nested pairs, so it draws fewer per pair
        assert verify_langlands(rank, samples=12 if rank < 5 else 4, seed=3)

    @pytest.mark.parametrize("rank", [1, 2, 3, 4, 5])
    def test_random_point_is_scaled_fraction_draw(self, rank):
        # the same draws, scaled by 12 lcm(1..rank+1), so every seeded
        # sample is a positive multiple of the one the Fraction draw gives
        scale = 12 * lcm(*range(1, rank + 2))
        for seed, (small, large) in enumerate(nested_pairs(rank)):
            expect = fraction_relative_point(rank, small, large, random.Random(seed))
            if small != large and not any(expect):
                continue  # the integer draw would redraw
            got = random_relative_point(rank, small, large, random.Random(seed))
            assert all(type(x) is int for x in got)
            assert got == tuple(scale * x for x in expect)

    @pytest.mark.parametrize("rank", [1, 2, 3, 4, 5])
    def test_integer_identities_match_fraction_reference(self, rank, monkeypatch):
        rng = random.Random(70 + rank)
        poset = _TypeAPoset(rank)
        real_average = inversion._block_average

        def integer_average(h, levi):
            out = real_average(h, levi)
            assert all(type(x) is int for x in out), (h, levi)
            return out

        monkeypatch.setattr(inversion, "_block_average", integer_average)
        outcomes = set()
        pairs = list(nested_pairs(rank))
        for small, large in rng.sample(pairs, min(len(pairs), 60)):
            # the origin and small integer draws put samples on walls
            walled = [F(rng.randint(-1, 1)) for _ in range(rank + 1)]
            walled = _difference(
                fraction_block_average(walled, small), fraction_block_average(walled, large)
            )
            samples = [fraction_relative_point(rank, small, large, rng) for _ in range(2)]
            for h in samples + [walled, (F(0),) * (rank + 1)]:
                expect = indicator_or_wall(fraction_identities_at, poset, small, large, h)
                den, k = lcm(*(x.denominator for x in h)), rng.randint(2, 30)
                for copy in (h, [k * x for x in h], [int(x * den) for x in h]):
                    got = indicator_or_wall(
                        inversion._langlands_identities_at, poset, small, large, copy
                    )
                    assert got == expect, (small, large, copy)
                outcomes.add(expect)
        assert outcomes == {True, "wall"}

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_shared_plans_match_fraction_reference(self, rank):
        # one poset serves every nested pair, forwards then backwards, so
        # each pair reads plans cached by the pairs before it; the reference
        # gets a fresh poset for every sample
        rng = random.Random(90 + rank)
        shared = _TypeAPoset(rank)
        pairs = list(nested_pairs(rank))
        outcomes = set()
        for small, large in pairs + pairs[::-1]:
            walled = [F(rng.randint(-1, 1)) for _ in range(rank + 1)]
            walled = _difference(
                fraction_block_average(walled, small), fraction_block_average(walled, large)
            )
            origin = (F(0),) * (rank + 1)
            for h in (fraction_relative_point(rank, small, large, rng), walled, origin):
                expect = indicator_or_wall(
                    fraction_identities_at, _TypeAPoset(rank), small, large, h
                )
                got = indicator_or_wall(inversion._langlands_identities_at, shared, small, large, h)
                assert got == expect, (small, large, h)
                outcomes.add(expect)
        assert outcomes == {True, "wall"}

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
        # the integer classes of every coordinate vector, a basis, so the
        # whole weight is checked, and of every class's lift
        cuts = 0
        for n in range(2 if fam == "so-even" else 1, 6):
            g = GroupSpec(fam, n)
            rs = build_root_system(g)
            rank = len(rs.simple_roots)
            vectors = [tuple(int(i == j) for j in range(n)) for i in range(n)]
            classes = {"u": range(n), "sp": (0,)}.get(fam, (0, 1))
            vectors += [pi1_representative(g, c) for c in classes]
            for k in range(rank + 1):
                for cut in map(frozenset, combinations(range(1, rank + 1), k)):
                    weights = {
                        a: gram_relative_weight(rs, cut, a)
                        for a in range(1, rank + 1)
                        if a not in cut
                    }
                    for v in vectors:
                        nums, det = levi_classes(g, cut, v)
                        expected = {a: pairing(w, v) for a, w in weights.items()}
                        assert {a: F(x, det) for a, x in nums.items()} == expected, (n, sorted(cut), v)
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

    def test_residual_matches_box_walk(self):
        checked = 0
        for g, c in bundles(3):
            poset = build_parabolic_poset(g, 2)
            a0 = default_gauge_assignment(poset)
            b0_top = closed_inverse(poset, a0, c)[frozenset()]
            got = inversion.forward_residual(poset, a0, b0_top, c, 24)
            assert got == box_walk_residual(poset, a0, b0_top, c, 24), (g, c)
            checked += 1
        assert checked == 19

    @pytest.mark.parametrize("fam,n,c", [("so-odd", 3, 1), ("u", 3, 2)])
    def test_perturbed_residual_matches_box_walk(self, fam, n, c):
        # a wrong b0 at the group element, and an a0 that no longer matches
        # the b0 inverted from it, both leave a nonzero residual
        poset = build_parabolic_poset(GroupSpec(fam, n), 2)
        a0 = default_gauge_assignment(poset)
        b0_top = closed_inverse(poset, a0, c)[frozenset()]
        proper = [q for q in poset.elements if q]
        maximal = min(proper, key=lambda q: poset.profiles[q].dim_u)
        perturbed = {**a0, maximal: a0[maximal] * RatFun(one_minus_t(1), Poly.one())}
        for args in ((a0, b0_top + RatFun.t_power(5)), (perturbed, b0_top)):
            got = inversion.forward_residual(poset, *args, c, 24)
            assert not got.is_zero
            assert got == box_walk_residual(poset, *args, c, 24)

    @pytest.mark.parametrize("fam", ["su", "spin-odd", "spin-even"])
    def test_poset_unsupported_families(self, fam):
        with pytest.raises(UnsupportedFamily):
            build_parabolic_poset(GroupSpec(fam, 2), 2)

    @pytest.mark.parametrize("fam", ["u", "so-odd", "sp"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_poset_profiles_match_former_cutset_map(self, fam, n):
        def former_index_for_cutset(g, cut):
            # the cut-set to (composition, flags) map the poset used before
            # it read enumerate_parabolics
            flags = () if g.family == "u" else (g.n in cut,)
            bounds = [0] + sorted(c for c in cut if c < g.n) + [g.n]
            return tuple(b - a for a, b in zip(bounds, bounds[1:])), flags

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
            prof = poset.profiles[cut]
            assert prof is levi_profile(g, cut), cut
            comp, flags = former_index_for_cutset(g, cut)
            # a tail exactly when the end node is not cut; u has none
            assert (prof.tail is None) == (flags in ((), (True,))), cut
            tail = () if prof.tail is None else (prof.tail[1],)
            assert prof.unitary_blocks + tail == comp, cut
            assert prof.simple_indices == tuple(sorted(cut)), cut


def _outcome(terms):
    """The terms a generator yields, or the class and message of what it raises."""
    try:
        return list(terms)
    except ExactnessError as exc:
        return type(exc), str(exc)


class TestParabolicTerms:
    """The exactness guards of the one generator of parabolic-sum terms."""

    def u2_borel_case(self, pair_weight=None):
        poset = build_parabolic_poset(GroupSpec("u", 2), 2)
        if pair_weight is not None:
            borel = frozenset({1})
            profile = replace(poset.profiles[borel], pair_weights=(pair_weight,))
            poset = replace(poset, profiles={**poset.profiles, borel: profile})
        return poset, default_gauge_assignment(poset)

    def test_fractional_total_twist(self):
        poset, a0 = self.u2_borel_case()
        assert poset.profiles[frozenset({1})].rho_pairings == (1,)  # weight 4
        with pytest.raises(ExactnessError, match="total twist 4/3"):
            list(parabolic_terms(poset, a0, frozenset(), {1: 1}, 3))
        # the message names the reduced Fraction, as the Fraction sum did
        for x, twist in [(F(1, 3), "4/3"), (F(2, 5), "8/5"), (F(-5, 6), "2/3")]:
            got = _outcome(parabolic_terms(poset, a0, frozenset(), *as_numerators({1: x})))
            assert got == (ExactnessError, f"total twist {twist} not integral")
            assert got == _outcome(former_parabolic_terms(poset, a0, frozenset(), {1: x}))

    @pytest.mark.parametrize("weight", [0, -2, -8])
    def test_pair_weight_not_positive_integer(self, weight):
        poset, a0 = self.u2_borel_case(weight)
        with pytest.raises(ExactnessError, match=f"pair weight {weight} "):
            list(parabolic_terms(poset, a0, frozenset(), {1: 1}, 2))
        got = _outcome(parabolic_terms(poset, a0, frozenset(), {1: 1}, 2))
        assert got == _outcome(former_parabolic_terms(poset, a0, frozenset(), {1: F(1, 2)}))


class TestParabolicTermsMatchFormer:
    """The parabolic sum on integer classes over one denominator, against
    the former sum on Fractions (tests/former_twists.py)."""

    @pytest.mark.parametrize("fam", ["u", "so-odd", "so-even", "sp"])
    def test_every_element_class_and_genus(self, fam):
        for n in range(2 if fam == "so-even" else 1, 6):
            g = GroupSpec(fam, n)
            rs = build_root_system(g)
            for ell in (1, 2, 3):
                poset = build_parabolic_poset(g, ell)
                # parabolic_terms passes a0 through, so any labels do
                a0 = {cut: sorted(cut) for cut in poset.elements}
                for c in {"u": range(n), "sp": (0,)}.get(fam, (0, 1)):
                    rep = pi1_representative(g, c)
                    for q in poset.elements:
                        # the classes closed_inverse reads, and the Fraction
                        # weights' pairings they replace
                        nums, det = levi_classes(g, q, rep)
                        got = list(parabolic_terms(poset, a0, q, nums, det))
                        weights = relative_weights(rs, q)
                        classes = {a: pairing(w, rep) for a, w in weights.items()}
                        assert classes == {a: F(x, det) for a, x in nums.items()}
                        assert got == list(former_parabolic_terms(poset, a0, q, classes)), (g, ell, c, q)
                        assert all(type(e) is int for _, _, e, _ in got)
                    # the former table's classes at the group element
                    classes = {a: weight_on_pi1(g, a, c) for a in range(1, len(rs.simple_roots) + 1)}
                    top = frozenset()
                    assert list(parabolic_terms(poset, a0, top, *as_numerators(classes))) == list(
                        former_parabolic_terms(poset, a0, top, classes)
                    ), (g, ell, c)

    def test_random_fraction_classes(self):
        # classes with unrelated denominators: each total twist is integral
        # or refused, and both ways agree on the terms or on the message
        rng = random.Random(2027)
        refused = 0
        for _ in range(300):
            fam = rng.choice(["u", "so-odd", "so-even", "sp"])
            g = GroupSpec(fam, rng.randint(2, 5))
            poset = build_parabolic_poset(g, rng.randint(1, 3))
            a0 = {cut: sorted(cut) for cut in poset.elements}
            q = rng.choice(poset.elements)
            classes = {}
            for a in range(1, len(build_root_system(g).simple_roots) + 1):
                den = rng.choice([1, 2, 2, 3, 4, 4, 5, 6, 8, 12])
                classes[a] = F(rng.randint(-2 * den, 2 * den), den)
            got = _outcome(parabolic_terms(poset, a0, q, *as_numerators(classes)))
            assert got == _outcome(former_parabolic_terms(poset, a0, q, classes)), (g, q, classes)
            refused += isinstance(got, tuple)
        assert 50 < refused < 250


def test_random_relative_point_off_walls():
    rng = random.Random(5)
    poset = _TypeAPoset(2)
    small, large = frozenset(), frozenset({0, 1})
    h = random_relative_point(2, small, large, rng, poset)
    assert any(x != 0 for x in h)
    assert sum(h) == 0
