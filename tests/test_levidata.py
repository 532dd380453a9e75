from fractions import Fraction

import pytest

from ymseries.levidata import (
    InadmissibleCase,
    ParabolicIndex,
    _compositions,
    dim_u_from_roots,
    enumerate_parabolics,
    levi_profile,
    levi_profile_to_json,
    relative_rho,
    rho_pairings_from_roots,
)
from ymseries.rootsys import GroupSpec, build_root_system, pairing

F = Fraction

ALL_FAMILIES = [("u", 1), ("so-odd", 1), ("so-even", 2), ("sp", 1)]


class TestEnumerate:
    def test_u2(self):
        idxs = enumerate_parabolics(GroupSpec("u", 2))
        assert [i.composition for i in idxs] == [(2,), (1, 1)]

    def test_sp2(self):
        idxs = enumerate_parabolics(GroupSpec("sp", 2))
        assert len(idxs) == 4
        assert {(i.composition, i.flags) for i in idxs} == {
            ((2,), (False,)),
            ((2,), (True,)),
            ((1, 1), (False,)),
            ((1, 1), (True,)),
        }

    def test_so4(self):
        idxs = enumerate_parabolics(GroupSpec("so-even", 2))
        assert {(i.composition, i.flags) for i in idxs} == {
            ((1, 1), (True, True)),
            ((2,), (False, False)),
            ((2,), (False, True)),
            ((2,), (True, False)),
        }

    def test_counts_are_powers_of_two(self):
        # one parabolic per subset of the simple roots
        for fam, lo in ALL_FAMILIES:
            for n in range(lo, 7):
                g = GroupSpec(fam, n)
                rank = n
                assert len(enumerate_parabolics(g)) == 2 ** (rank - (fam == "u"))

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
        def former_key(idx):
            return (len(idx.composition), idx.composition, idx.flags)

        for fam, lo in ALL_FAMILIES:
            for n in range(lo, 9):
                idxs = enumerate_parabolics(GroupSpec(fam, n))
                assert idxs == sorted(idxs, key=former_key), (fam, n)


class TestLeviProfile:
    def test_sp3_case1(self):
        prof = levi_profile(GroupSpec("sp", 3), ParabolicIndex((1, 2), (True,)))
        assert prof.dim_u == 1 * 2 + 3 * 4 // 2
        assert prof.center_excess == 2
        assert dict(zip(prof.simple_indices, prof.rho_pairings)) == {1: F(3, 2), 3: F(3, 2)}

    def test_so5_full_group(self):
        prof = levi_profile(GroupSpec("so-odd", 2), ParabolicIndex((2,), (False,)))
        assert prof.dim_u == 0
        assert prof.center_excess == 0
        assert prof.rho_pairings == ()
        assert prof.tail == ("so-odd", 2)

    def test_so7_case2(self):
        prof = levi_profile(GroupSpec("so-odd", 3), ParabolicIndex((1, 2), (False,)))
        assert prof.dim_u == 1 * 2 + (3 * 4 - 2 * 3) // 2
        assert prof.center_excess == 1
        assert dict(zip(prof.simple_indices, prof.rho_pairings)) == {1: F(5, 2)}

    def test_betti_of_levi(self):
        prof = levi_profile(GroupSpec("sp", 2), ParabolicIndex((1, 1), (False,)))
        # U(1) x Sp(1): degrees (1) and (2)
        assert prof.betti.degrees == (1, 2)
        assert prof.betti.center_count == 1

    def test_admissibility(self):
        with pytest.raises(InadmissibleCase):
            levi_profile(GroupSpec("so-even", 2), ParabolicIndex((2,), (True, True)))
        with pytest.raises(InadmissibleCase):
            levi_profile(GroupSpec("so-even", 3), ParabolicIndex((2, 1), (False, False)))
        with pytest.raises(InadmissibleCase):
            levi_profile(GroupSpec("u", 2), ParabolicIndex((3,), ()))

    def test_profile_built_once_and_inadmissible_raises_every_call(self):
        g = GroupSpec("so-even", 4)
        for idx in enumerate_parabolics(g):
            assert levi_profile(g, idx) is levi_profile(GroupSpec("so-even", 4), idx)
        bad = ParabolicIndex((3, 1), (False, False))
        for _ in range(3):
            with pytest.raises(InadmissibleCase):
                levi_profile(g, bad)

    def test_json(self):
        prof = levi_profile(GroupSpec("sp", 3), ParabolicIndex((1, 2), (True,)))
        data = levi_profile_to_json(prof)
        assert data["rho_pairings"] == ["3/2", "3/2"]
        assert data["dim_u"] == 8


class TestRootDataConsistency:
    # the full n <= 6 sweep is in the acceptance suite; spot checks here
    @pytest.mark.parametrize("fam,n", [("u", 3), ("so-odd", 3), ("so-even", 3), ("sp", 3)])
    def test_dim_u_and_pairings(self, fam, n):
        g = GroupSpec(fam, n)
        for idx in enumerate_parabolics(g):
            prof = levi_profile(g, idx)
            assert prof.dim_u == dim_u_from_roots(g, idx), (fam, n, idx)
            recomputed = rho_pairings_from_roots(g, idx)
            assert recomputed == dict(zip(prof.simple_indices, prof.rho_pairings)), (fam, n, idx)

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
            for beta, coeffs in zip(rs.positive_roots, rs.positive_coefficients):
                support = {i + 1 for i, c in enumerate(coeffs) if c != 0}
                if support & large_cut:
                    continue
                if support & small_cut:
                    for i, x in enumerate(beta):
                        total[i] += F(x)
            return tuple(x / 2 for x in total)

        g = GroupSpec(fam, n)
        rs = build_root_system(g)
        tables = {}
        for idx in enumerate_parabolics(g):
            prof = levi_profile(g, idx)
            table = dict(zip(prof.simple_indices, prof.rho_pairings))
            tables[frozenset(prof.simple_indices)] = table
        rank = len(rs.simple_roots)
        cuts = [
            frozenset(i + 1 for i in range(rank) if mask >> i & 1) for mask in range(2**rank)
        ]
        pairs = [(small, large) for small in cuts for large in cuts if large <= small]
        for small, large in pairs:
            rho = relative_rho(rs, small, large)
            if rs.positive_roots:
                assert rho == former_relative_rho(rs, small, large), (small, large)
            else:
                # rank 0: no roots, so the former sum had no coordinates
                assert rho == (F(0),) * rs.n
            # the pair weights the inversion reads from the small parabolic's
            # Levi table: rho_P^Q and rho_P pair alike with every a in P - Q
            for a in small - large:
                got = pairing(rho, rs.simple_coroots[a - 1])
                assert got == tables[small][a], (sorted(small), sorted(large), a)
