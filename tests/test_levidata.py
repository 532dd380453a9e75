from fractions import Fraction

import pytest

from former_parabolics import former_cut_sets, former_parabolics
from levi_case_table import case_table
from ymseries import levidata
from ymseries.errors import InputError
from ymseries.levidata import (
    MAX_COMPOSITIONS,
    InadmissibleCase,
    _compositions,
    _radical,
    dim_u_from_roots,
    enumerate_parabolics,
    levi_profile,
    levi_profile_to_json,
    rho_pairings_from_roots,
)
from ymseries.rootsys import GroupSpec, _positive_roots, build_root_system, pairing

F = Fraction

ALL_FAMILIES = [("u", 1), ("so-odd", 1), ("so-even", 2), ("sp", 1)]


def cuts(*indices):
    return frozenset(indices)


class TestEnumerate:
    def test_u2(self):
        assert enumerate_parabolics(GroupSpec("u", 2)) == [cuts(), cuts(1)]

    def test_sp2(self):
        # compositions (2,) then (1, 1), each without then with node 2
        assert enumerate_parabolics(GroupSpec("sp", 2)) == [cuts(), cuts(2), cuts(1), cuts(1, 2)]

    def test_so4(self):
        # (2,) with neither, the second, the first fork node; (1, 1) with both
        got = enumerate_parabolics(GroupSpec("so-even", 2))
        assert got == [cuts(), cuts(2), cuts(1), cuts(1, 2)]

    def test_counts_are_powers_of_two(self):
        # one parabolic per subset of the simple roots
        for fam, lo in ALL_FAMILIES:
            for n in range(lo, 7):
                g = GroupSpec(fam, n)
                rank = n
                assert len(enumerate_parabolics(g)) == 2 ** (rank - (fam == "u"))

    def test_term_budget(self, monkeypatch):
        # the largest accepted rank builds MAX_COMPOSITIONS compositions
        largest = MAX_COMPOSITIONS.bit_length()
        assert len(_compositions(largest)) == 2 ** (largest - 1) == MAX_COMPOSITIONS

        # a refused rank raises before any cut is enumerated; should the
        # check break, this fails at once rather than hang
        def no_enumeration(*args):
            raise AssertionError("a refused rank reached the enumeration")

        monkeypatch.setattr(levidata, "combinations", no_enumeration)
        for n in (largest + 1, 40):
            count = 2 ** (n - 1)
            message = f"rank {n} has {count} compositions, more than the {MAX_COMPOSITIONS} "
            with pytest.raises(InputError, match=message):
                _compositions(n)
            for fam in ("u", "so-odd", "so-even", "sp"):
                with pytest.raises(InputError, match=message):
                    enumerate_parabolics(GroupSpec(fam, n))

    def test_order_deterministic(self):
        g = GroupSpec("so-odd", 3)
        assert enumerate_parabolics(g) == enumerate_parabolics(g)

    def test_generated_in_sorted_order(self):
        # the former construction: recurse over parts, then sort
        def sorted_compositions(n):
            out = []

            def rec(rest, acc):
                if rest == 0:
                    out.append(tuple(acc))
                    return
                for part in range(1, rest + 1):
                    rec(rest - part, acc + [part])

            rec(n, [])
            return sorted((c for c in out if c), key=lambda c: (len(c), c))

        for n in range(12):
            assert _compositions(n) == sorted_compositions(n), n
        # the former enumerator, kept as the oracle of the order
        def former_key(named):
            comp, flags = named
            return (len(comp), comp, flags)

        for fam, lo in ALL_FAMILIES:
            for n in range(lo, 9):
                named = former_parabolics(GroupSpec(fam, n))
                assert named == sorted(named, key=former_key), (fam, n)

    def test_every_subset_once_in_former_order(self):
        for fam, lo in ALL_FAMILIES:
            for n in range(lo, 9):
                g = GroupSpec(fam, n)
                rank = n - 1 if fam == "u" else n
                got = enumerate_parabolics(g)
                assert got == former_cut_sets(g), (fam, n)
                subsets = {
                    frozenset(i + 1 for i in range(rank) if mask >> i & 1)
                    for mask in range(2**rank)
                }
                assert len(got) == len(subsets) and set(got) == subsets, (fam, n)


class TestLeviProfile:
    def test_sp3_case1(self):
        prof = levi_profile(GroupSpec("sp", 3), cuts(1, 3))
        assert prof.unitary_blocks == (1, 2) and prof.tail is None
        assert prof.dim_u == 1 * 2 + 3 * 4 // 2
        assert levi_profile_to_json(prof)["center_excess"] == 2
        assert dict(zip(prof.simple_indices, prof.rho_pairings)) == {1: F(3, 2), 3: F(3, 2)}

    def test_so5_full_group(self):
        prof = levi_profile(GroupSpec("so-odd", 2), cuts())
        assert prof.dim_u == 0
        assert levi_profile_to_json(prof)["center_excess"] == 0
        assert prof.rho_pairings == ()
        assert prof.tail == ("so-odd", 2)

    def test_so7_case2(self):
        prof = levi_profile(GroupSpec("so-odd", 3), cuts(1))
        assert prof.unitary_blocks == (1,) and prof.tail == ("so-odd", 2)
        assert prof.dim_u == 1 * 2 + (3 * 4 - 2 * 3) // 2
        assert levi_profile_to_json(prof)["center_excess"] == 1
        assert dict(zip(prof.simple_indices, prof.rho_pairings)) == {1: F(5, 2)}

    def test_betti_of_levi(self):
        prof = levi_profile(GroupSpec("sp", 2), cuts(1))
        # U(1) x Sp(1): degrees (1) and (2)
        assert prof.unitary_blocks == (1,) and prof.tail == ("sp", 1)
        assert prof.betti.degrees == (1, 2)
        assert prof.betti.center_count == 1

    def test_admissibility(self):
        # a cut set must lie inside 1..rank, the only constraint left
        for fam, lo in ALL_FAMILIES:
            for n in range(lo, 5):
                g = GroupSpec(fam, n)
                rank = n - 1 if fam == "u" else n
                for bad in (cuts(0), cuts(rank + 1), cuts(1, rank + 1), cuts(0, rank)):
                    with pytest.raises(InadmissibleCase):
                        levi_profile(g, bad)
        assert issubclass(InadmissibleCase, InputError)

    def test_profile_built_once_and_inadmissible_raises_every_call(self):
        g = GroupSpec("so-even", 4)
        for cut in enumerate_parabolics(g):
            assert levi_profile(g, cut) is levi_profile(GroupSpec("so-even", 4), cut)
        for bad in (cuts(0), cuts(5)):
            for _ in range(3):
                with pytest.raises(InadmissibleCase):
                    levi_profile(g, bad)
        for _ in range(3):
            with pytest.raises(InadmissibleCase):
                levi_profile(GroupSpec("u", 4), cuts(4))

    def test_composition_from_cut_set(self):
        # so-even: n - 1 is a cut position only with both fork nodes in I
        g = GroupSpec("so-even", 4)
        assert levi_profile(g, cuts(1, 3, 4)).unitary_blocks == (1, 2, 1)
        assert levi_profile(g, cuts(1, 3)).unitary_blocks == (1, 3)
        assert levi_profile(g, cuts(1, 4)).unitary_blocks == (1, 3)
        prof = levi_profile(g, cuts(1))
        assert (prof.unitary_blocks, prof.tail) == ((1,), ("so-even", 3))
        assert levi_profile(GroupSpec("u", 4), cuts(1, 3)).unitary_blocks == (1, 2, 1)

    def test_json(self):
        prof = levi_profile(GroupSpec("sp", 3), cuts(1, 3))
        data = levi_profile_to_json(prof)
        assert data["rho_pairings"] == ["3/2", "3/2"]
        assert data["dim_u"] == 8


class TestRootDataConsistency:
    # the full n <= 6 sweep is in the acceptance suite; spot checks here
    @pytest.mark.parametrize("fam,n", [("u", 3), ("so-odd", 3), ("so-even", 3), ("sp", 3)])
    def test_dim_u_and_pairings(self, fam, n):
        g = GroupSpec(fam, n)
        for cut in enumerate_parabolics(g):
            prof = levi_profile(g, cut)
            dim_u, _, table = case_table(g, cut)
            assert prof.dim_u == dim_u == dim_u_from_roots(g, cut), (fam, n, cut)
            recomputed = rho_pairings_from_roots(g, cut)
            pairings = dict(zip(prof.simple_indices, prof.rho_pairings))
            assert recomputed == pairings == table, (fam, n, cut)

    def test_reference_reads_no_table(self, monkeypatch):
        groups = [GroupSpec(fam, n) for fam, lo in ALL_FAMILIES for n in range(lo, 5)]
        expected = {
            (g, cut): case_table(g, cut) for g in groups for cut in enumerate_parabolics(g)
        }

        def no_table(*args):
            raise AssertionError("the root-data reference read a Levi profile")

        monkeypatch.setattr(levidata, "levi_profile", no_table)
        for (g, cut), (dim_u, _, table) in expected.items():
            assert dim_u_from_roots(g, cut) == dim_u, (g, cut)
            assert rho_pairings_from_roots(g, cut) == table, (g, cut)

    @pytest.mark.parametrize(
        "fam,n",
        [(f, n) for f in ("u", "so-odd", "sp") for n in (1, 2, 3, 4, 5)]
        + [("so-even", n) for n in (2, 3, 4, 5)],
    )
    def test_relative_rho_matches_former_inversion_sum(self, fam, n):
        def former_relative_rho(rs, small_cut, large_cut):
            # the half-sum inversion computed before it moved here
            dim = len(rs.positive_roots[0]) if rs.positive_roots else 0
            total = [F(0)] * dim
            for beta, coeffs in _positive_roots(rs.simple_roots, rs.simple_coroots):
                support = {i + 1 for i, c in enumerate(coeffs) if c != 0}
                if support & large_cut:
                    continue
                if support & small_cut:
                    for i, x in enumerate(beta):
                        total[i] += F(x)
            return tuple(x / 2 for x in total)

        g = GroupSpec(fam, n)
        rs = build_root_system(g)
        tables = {cut: case_table(g, cut)[2] for cut in enumerate_parabolics(g)}
        rank = len(rs.simple_roots)
        cuts = [
            frozenset(i + 1 for i in range(rank) if mask >> i & 1) for mask in range(2**rank)
        ]
        pairs = [(small, large) for small in cuts for large in cuts if large <= small]
        for small, large in pairs:
            # 2 rho_P^Q, the integer sum the forward lattice walk reads: every
            # root whose support meets large also meets small, as large <= small
            two_rho = tuple(x - y for x, y in zip(_radical(rs, small)[1], _radical(rs, large)[1]))
            assert all(type(x) is int for x in two_rho)
            if rs.positive_roots:
                assert two_rho == tuple(2 * x for x in former_relative_rho(rs, small, large))
            else:
                # rank 0: no roots, so the former sum had no coordinates
                assert two_rho == (0,) * rs.n
            # the pair weights the inversion reads from the small parabolic's
            # Levi profile, here from the former case table: rho_P^Q and
            # rho_P pair alike with every a in P - Q
            for a in small - large:
                got = pairing(two_rho, rs.simple_coroots[a - 1])
                assert got == 2 * tables[small][a], (sorted(small), sorted(large), a)
