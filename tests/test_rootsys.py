import random
from fractions import Fraction

import pytest

from former_positive_roots import former_positive_roots
from former_weights import _rref, _solve, dual_weights, weight_on_pi1
from ymseries import rootsys
from ymseries.closedforms import lr_general
from ymseries.errors import ExactnessError, InputError
from ymseries.levidata import enumerate_parabolics, levi_profile
from ymseries.rootsys import (
    FAMILIES,
    DimensionMismatch,
    GroupSpec,
    UnsupportedFamily,
    UnsupportedRank,
    _levi_inverse,
    _positive_roots,
    _simple_data,
    adjugate,
    build_root_system,
    levi_classes,
    pairing,
    pi1_representative,
    validate_topclass,
)

F = Fraction


def V(*xs):
    return tuple(F(x) for x in xs)


def fundamental_weights(rs):
    return tuple(dual_weights(rs.simple_roots, rs.simple_coroots))


def integer_class(g, i, c):
    """The class of the i-th fundamental weight on c in [0, 1), from the
    integer classes at the empty cut set."""
    nums, det = levi_classes(g, frozenset(), pi1_representative(g, c))
    return F(nums[i], det) % 1


def build_cartan(g):
    """The Cartan matrix <alpha_b, alpha_c^v> of g."""
    rs = build_root_system(g)
    return [[pairing(a, av) for av in rs.simple_coroots] for a in rs.simple_roots]


def every_group(max_n):
    for fam in FAMILIES:
        for n in range(1, max_n + 1):
            try:
                yield GroupSpec(fam, n)
            except InputError:
                continue


def reflection_closure_roots(simple_roots, simple_coroots, n):
    """Reference: the positive roots as root data found them before the
    root-string rule, by closing the simple roots under the simple
    reflections and keeping the roots whose coefficients, found by exact
    elimination, are nonnegative.  The coefficients of all roots come from
    one elimination with every root as a right-hand side."""
    roots = set(simple_roots)
    frontier = list(simple_roots)
    while frontier:
        nxt = []
        for beta in frontier:
            for alpha, alpha_v in zip(simple_roots, simple_coroots):
                k = sum(b * v for b, v in zip(beta, alpha_v))
                img = tuple(b - k * a for b, a in zip(beta, alpha))
                if img not in roots:
                    roots.add(img)
                    nxt.append(img)
        frontier = nxt
    roots = sorted(roots)
    r = len(simple_roots)
    rows = [
        [F(a[i]) for a in simple_roots] + [F(beta[i]) for beta in roots]
        for i in range(n)
    ]
    pivots = _rref(rows, r)
    # every root lies in the span of the simple roots
    assert len(pivots) == r and all(x == 0 for row in rows[r:] for x in row)
    positive = []
    for j, beta in enumerate(roots):
        coeffs = tuple(row[r + j] for row in rows[:r])
        if all(c >= 0 for c in coeffs):
            positive.append((beta, coeffs))
    return sorted(positive)


class TestBuildRootSystem:
    def test_u2(self):
        rs = build_root_system(GroupSpec("u", 2))
        assert rs.simple_roots == (V(1, -1),)
        assert rs.simple_coroots == (V(1, -1),)
        assert rs.positive_roots == (V(1, -1),)

    def test_sp1(self):
        rs = build_root_system(GroupSpec("sp", 1))
        assert rs.simple_roots == (V(2),)
        assert rs.simple_coroots == (V(1),)
        assert rs.positive_roots == (V(2),)

    def test_so5(self):
        rs = build_root_system(GroupSpec("so-odd", 2))
        assert set(rs.simple_roots) == {V(1, -1), V(0, 1)}
        assert set(rs.positive_roots) == {V(1, -1), V(0, 1), V(1, 0), V(1, 1)}

    def test_sp_and_so_odd_are_dual(self):
        # Sp(n)'s simple roots are SO(2n+1)'s simple coroots, and the reverse
        for n in range(1, 7):
            sp, so = (build_root_system(GroupSpec(fam, n)) for fam in ("sp", "so-odd"))
            assert (sp.simple_roots, sp.simple_coroots) == (so.simple_coroots, so.simple_roots)
            assert sp.simple_roots[-1] == V(*[0] * (n - 1), 2)
            assert so.simple_roots[-1] == V(*[0] * (n - 1), 1)
            spin = build_root_system(GroupSpec("spin-odd", n))
            assert (spin.simple_roots, spin.simple_coroots) == (so.simple_roots, so.simple_coroots)

    def test_positive_root_counts(self):
        for n in range(1, 7):
            counts = {"u": n * (n - 1) // 2, "so-odd": n * n, "sp": n * n}
            if n >= 2:
                counts["so-even"] = n * (n - 1)
            for fam, count in counts.items():
                g = GroupSpec(fam, n)
                rs = build_root_system(g)
                # built once per group and shared
                assert rs is build_root_system(GroupSpec(g.family, g.n))
                assert len(rs.positive_roots) == len(rs.positive_supports) == count
                pairs = _positive_roots(rs.simple_roots, rs.simple_coroots)
                assert tuple(beta for beta, _ in pairs) == rs.positive_roots
                rank = len(rs.simple_roots)
                for (beta, coeffs), support in zip(pairs, rs.positive_supports):
                    # bit a of the support is set for each simple root a in beta
                    in_support = [a for a in range(rank + 2) if support >> a & 1]
                    assert in_support == [i + 1 for i, c in enumerate(coeffs) if c], (fam, n, beta)
                    assert all(c.denominator == 1 and c >= 0 for c in coeffs), (fam, n, beta)
                    expanded = tuple(
                        sum((c * alpha[i] for c, alpha in zip(coeffs, rs.simple_roots)), F(0))
                        for i in range(n)
                    )
                    assert expanded == beta, (fam, n, beta)

    @pytest.mark.parametrize("g", list(every_group(8)), ids=GroupSpec.describe)
    def test_positive_roots_match_reflection_closure(self, g):
        simple_roots, simple_coroots = _simple_data(g)
        got = _positive_roots(simple_roots, simple_coroots)
        assert got == reflection_closure_roots(simple_roots, simple_coroots, g.n)
        assert all(type(x) is int for beta, coeffs in got for x in beta + coeffs)

    def test_positive_roots_match_former_walk(self):
        # each string length from the root one step below, against the
        # former walk that stepped down until it left the roots found
        for g in every_group(8):
            simple_roots, simple_coroots = _simple_data(g)
            got = _positive_roots(simple_roots, simple_coroots)
            assert got == former_positive_roots(simple_roots, simple_coroots), g

    def test_highest_root(self):
        # the classical tables (Bourbaki, Plate I-IV), independent of both
        # ways of finding the roots
        expected = {  # family: (lowest n, coefficients of the highest root)
            "u": (2, lambda n: (1,) * (n - 1)),
            "so-odd": (1, lambda n: (1,) + (2,) * (n - 1)),
            "sp": (1, lambda n: (2,) * (n - 1) + (1,)),
            # so-even at n = 2 is A1 x A1, which has two highest roots
            "so-even": (3, lambda n: (1,) + (2,) * (n - 3) + (1, 1)),
        }
        for fam, (lo, top) in expected.items():
            for n in range(lo, 9):
                coeffs = [c for _, c in _positive_roots(*_simple_data(GroupSpec(fam, n)))]
                height = max(map(sum, coeffs))
                assert [c for c in coeffs if sum(c) == height] == [top(n)], (fam, n)

    def test_weight_coroot_duality(self):
        for fam, lo in (("u", 1), ("su", 2), ("so-odd", 1), ("so-even", 2), ("sp", 1)):
            for n in range(lo, 7):
                rs = build_root_system(GroupSpec(fam, n))
                for i, w in enumerate(fundamental_weights(rs)):
                    for j, cv in enumerate(rs.simple_coroots):
                        assert pairing(w, cv) == int(i == j), (fam, n, i, j)

    def test_so_odd_weight_table(self):
        # the last fundamental weight of SO(2n+1) is half the sum of thetas
        weights = fundamental_weights(build_root_system(GroupSpec("so-odd", 3)))
        assert weights[-1] == V(F(1, 2), F(1, 2), F(1, 2))
        assert weights[0] == V(1, 0, 0)

    def test_so_even_weight_table(self):
        weights = fundamental_weights(build_root_system(GroupSpec("so-even", 3)))
        assert weights[1] == V(F(1, 2), F(1, 2), F(-1, 2))
        assert weights[2] == V(F(1, 2), F(1, 2), F(1, 2))

    def test_sp_weight_table(self):
        weights = fundamental_weights(build_root_system(GroupSpec("sp", 3)))
        assert weights == (V(1, 0, 0), V(1, 1, 0), V(1, 1, 1))

    def test_root_data_needs_no_elimination(self, monkeypatch):
        # root systems and Levi profiles are integer data alone: neither
        # solves a linear system
        def no_elimination(*args):
            raise AssertionError("root data reached the elimination helper")

        monkeypatch.setattr(rootsys, "adjugate", no_elimination)
        build_root_system.cache_clear()
        levi_profile.cache_clear()
        _levi_inverse.cache_clear()
        for g in every_group(6):
            build_root_system(g)
            if g.family in ("u", "so-odd", "so-even", "sp"):
                for cut in enumerate_parabolics(g):
                    levi_profile(g, cut)
        # the general engine solves the group's Cartan matrix once, for the
        # classes at the empty cut set, on the flat-engines bundles of the
        # benchmark
        solved = []
        monkeypatch.setattr(rootsys, "adjugate", lambda m: solved.append(m) or adjugate(m))
        groups = (GroupSpec("sp", 5), GroupSpec("so-odd", 5), GroupSpec("so-even", 5), GroupSpec("u", 6))
        for g, c in zip(groups, (0, 1, 1, 1)):
            lr_general(g, c, 2)
            lr_general(g, c, 3)
        cartans = [[list(row) for row in build_cartan(g)] for g in groups]
        assert solved == cartans

    def test_rank_validation(self):
        with pytest.raises(UnsupportedRank):
            GroupSpec("so-even", 1)
        with pytest.raises(UnsupportedFamily):
            GroupSpec("e8", 8)


class TestExactLinearAlgebra:
    def test_solve_singular_2x2(self):
        # x + 2y = 1 and 2x + 4y = 3
        with pytest.raises(ValueError):
            _solve([V(1, 2, 1), V(2, 4, 3)], 2)

    def test_solve_inconsistent(self):
        # x = 1, y = 1, x + y = 3
        with pytest.raises(ValueError):
            _solve([V(1, 0, 1), V(0, 1, 1), V(1, 1, 3)], 2)

    def test_fundamental_weights_rank_deficient(self):
        with pytest.raises(ValueError, match="rank deficient"):
            dual_weights(build_root_system(GroupSpec("sp", 2)).simple_roots, [V(1, 1), V(2, 2)])


class TestPairing:
    def test_dual_basis(self):
        assert pairing(V(1, -1), V(1, -1)) == 2

    def test_half(self):
        assert pairing(V(F(1, 2), F(1, 2)), V(0, 1)) == F(1, 2)

    def test_weight_duality_u3(self):
        rs = build_root_system(GroupSpec("u", 3))
        assert pairing(fundamental_weights(rs)[0], rs.simple_coroots[1]) == 0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            pairing(V(1, 0), V(1, 0, 0))

    @pytest.mark.parametrize(
        "covector,vector",
        [
            ((1, -1, 0), (2, 3, 5)),
            ((F(1, 2), F(-3, 4)), (F(2, 3), F(5, 7))),
            ((1, 2, -2), (F(1, 3), F(1, 6), 4)),
            ((F(3, 2), 0), (2, 7)),
            ((), ()),
        ],
    )
    def test_fraction_result_for_int_fraction_and_mixed_entries(self, covector, vector):
        # the former body cast every entry to Fraction before multiplying;
        # integer entries now give an int, any Fraction entry a Fraction
        old = sum((F(a) * F(b) for a, b in zip(covector, vector)), F(0))
        got = pairing(covector, vector)
        all_int = all(type(x) is int for x in covector + vector)
        assert type(got) is (int if all_int else Fraction) and got == old


def fraction_inverse(matrix):
    """Reference: K^-1 in Fractions, from the former elimination, or None
    when K is singular."""
    size = len(matrix)
    rows = [[F(x) for x in row] + [F(int(i == j)) for j in range(size)] for i, row in enumerate(matrix)]
    if len(_rref(rows, size)) < size:
        return None
    return [row[size:] for row in rows]


def fraction_det(matrix):
    """Reference: det K as the signed product of the pivots of Gaussian
    elimination in Fractions."""
    rows = [[F(x) for x in row] for row in matrix]
    det = F(1)
    for k in range(len(rows)):
        piv = next((i for i in range(k, len(rows)) if rows[i][k]), None)
        if piv is None:
            return F(0)
        if piv != k:
            rows[k], rows[piv] = rows[piv], rows[k]
            det = -det
        det *= rows[k][k]
        for i in range(k + 1, len(rows)):
            f = rows[i][k] / rows[k][k]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[k])]
    return det


class TestAdjugate:
    """The one elimination routine, on integers, against Fraction inversion."""

    def check(self, matrix, inverse=None):
        adj, det = adjugate(matrix)
        assert det == fraction_det(matrix)
        assert all(type(x) is int for row in adj for x in row) and type(det) is int
        inverse = inverse or fraction_inverse(matrix)
        assert [[F(x, det) for x in row] for row in adj] == inverse, matrix
        return adj, det

    def test_random_matrices_match_fraction_inverse(self):
        rng = random.Random(2028)
        signs = set()
        singular = 0
        for _ in range(300):
            size = rng.randint(1, 7)
            matrix = [[rng.randint(-6, 6) for _ in range(size)] for _ in range(size)]
            inverse = fraction_inverse(matrix)
            if inverse is None:
                with pytest.raises(ExactnessError):
                    adjugate(matrix)
                singular += 1
            else:
                signs.add(self.check(matrix, inverse)[1] > 0)
        assert signs == {True, False} and singular > 0

    def test_row_swaps_and_negative_determinant(self):
        # zero leading pivots force a swap at the first and the second step
        assert self.check([[0, 1], [1, 0]]) == ([[0, -1], [-1, 0]], -1)
        assert self.check([[0, 2, 1], [3, 0, 0], [0, 1, 4]])[1] == -21
        self.check([[1, 2, 3], [2, 4, 5], [3, 5, 6]])

    def test_one_by_one_and_empty(self):
        assert adjugate([[7]]) == ([[1]], 7)
        assert adjugate([[-3]]) == ([[1]], -3)
        assert adjugate([]) == ([], 1)

    @pytest.mark.parametrize(
        "matrix", [[[0]], [[1, 2], [2, 4]], [[1, 2, 3], [4, 5, 6], [7, 8, 9]], [[0, 0], [0, 5]]]
    )
    def test_singular_raises(self, matrix):
        with pytest.raises(ExactnessError, match=f"singular {len(matrix)}x{len(matrix)} matrix"):
            adjugate(matrix)

    def test_group_cartan_matrices(self):
        # det of the Cartan matrix: n for A_{n-1}, 2 for B_n and C_n, 4 for D_n
        for g in every_group(7):
            det = self.check(build_cartan(g))[1]
            expected = {"u": g.n, "su": g.n, "so-even": 4, "spin-even": 4}.get(g.family, 2)
            assert det == (1 if len(build_root_system(g).simple_roots) == 0 else expected), g

    def test_classes_match_former_table(self):
        # the integer classes of every family's own classes at the empty cut
        # set, against the former case table modulo 1
        checked = 0
        for g in every_group(7):
            if g.family == "su":
                continue  # the former table served su through u
            classes = (0, 1) if g.family.startswith("so") else (0,)
            for c in range(-g.n, 2 * g.n) if g.family == "u" else classes:
                nums, det = levi_classes(g, frozenset(), pi1_representative(g, c))
                assert sorted(nums) == list(range(1, len(build_root_system(g).simple_roots) + 1))
                for i, x in nums.items():
                    assert (F(x, det) - weight_on_pi1(g, i, c)).denominator == 1, (g, c, i)
                    checked += 1
        assert checked == 529


class TestWeightOnPi1:
    """The integer classes at the empty cut set against the former table."""

    def test_so5_last(self):
        g = GroupSpec("so-odd", 2)
        assert integer_class(g, 2, 1) == weight_on_pi1(g, 2, 1) == F(1, 2)

    def test_so5_first(self):
        g = GroupSpec("so-odd", 2)
        assert integer_class(g, 1, 1) == weight_on_pi1(g, 1, 1) == 0

    def test_u3(self):
        # weights kill the center, so the class is -i*k/n mod 1
        g = GroupSpec("u", 3)
        assert integer_class(g, 1, 2) == weight_on_pi1(g, 1, 2) == F(1, 3)
        assert integer_class(g, 2, 2) == weight_on_pi1(g, 2, 2) == F(2, 3)
        # U(3) has two simple roots
        with pytest.raises(ValueError):
            weight_on_pi1(g, 3, 2)
        assert sorted(levi_classes(g, frozenset(), pi1_representative(g, 2))[0]) == [1, 2]

    def test_u_matches_weight_evaluation(self):
        # agreement with the explicit pairing against the representative of c
        for n in range(1, 6):
            g = GroupSpec("u", n)
            weights = fundamental_weights(build_root_system(g))
            for k in range(-3, 4):
                rep = pi1_representative(g, k)
                nums, det = levi_classes(g, frozenset(), rep)
                for i in range(1, n):
                    val = pairing(weights[i - 1], rep)
                    assert F(nums[i], det) == val
                    assert (val - weight_on_pi1(g, i, k)).denominator == 1

    def test_so_even(self):
        g = GroupSpec("so-even", 3)
        for i, x in ((1, 0), (2, F(1, 2)), (3, F(1, 2))):
            assert integer_class(g, i, 1) == weight_on_pi1(g, i, 1) == x

    def test_additive_mod_z(self):
        g = GroupSpec("u", 4)
        for i in range(1, 4):
            for a in range(-2, 3):
                for b in range(-2, 3):
                    lhs = integer_class(g, i, a + b)
                    rhs = integer_class(g, i, a) + integer_class(g, i, b)
                    assert (lhs - rhs).denominator == 1
                    assert lhs == weight_on_pi1(g, i, a + b)

    def test_su_unsupported(self):
        # the former table refused su; its classes are U(n)'s at degree 0
        with pytest.raises(UnsupportedFamily):
            weight_on_pi1(GroupSpec("su", 2), 1, 0)
        assert integer_class(GroupSpec("su", 2), 1, 0) == integer_class(GroupSpec("u", 2), 1, 0) == 0

    def test_sp_trivial(self):
        g = GroupSpec("sp", 2)
        assert integer_class(g, 1, 0) == integer_class(g, 2, 0) == weight_on_pi1(g, 1, 0) == 0


def test_topclass_validation():
    assert validate_topclass(GroupSpec("u", 2), -3) == -3
    assert validate_topclass(GroupSpec("so-odd", 2), 1) == 1
    with pytest.raises(ValueError):
        validate_topclass(GroupSpec("so-even", 2), 2)
    with pytest.raises(ValueError):
        validate_topclass(GroupSpec("sp", 1), 1)


@pytest.mark.parametrize("c", [1, -1, 5])
def test_su_is_simply_connected(c):
    assert validate_topclass(GroupSpec("su", 2), 0) == 0
    with pytest.raises(InputError, match=f"SU\\(2\\) is simply connected, got class {c}$"):
        validate_topclass(GroupSpec("su", 2), c)
