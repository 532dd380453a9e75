"""Acceptance suite: every criterion is exact (tolerance zero).

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion.  All comparisons are exact identities of rational functions or
integer coefficient vectors; nothing is checked approximately.
"""

import os
import random
from fractions import Fraction
from functools import lru_cache

import pytest

from levi_case_table import case_table
from reference_series import REFERENCE_CASES
from ymseries.closedforms import (
    _su_torus,
    flat_series,
    lr_general,
    so_even_flat,
    so_odd_flat,
    sp_flat,
    sun_flat,
    zagier_un,
)
from ymseries.exactalg import parse_ratfun, ratfun_eq, series_expand
from ymseries.inversion import (
    ConeSumSpec,
    build_parabolic_poset,
    cone_sum_closed,
    cone_sum_truncated,
    default_gauge_assignment,
    invert_abstract,
    verify_langlands,
)
from ymseries.levidata import (
    dim_u_from_roots,
    enumerate_parabolics,
    levi_profile,
    levi_profile_to_json,
    rho_pairings_from_roots,
)
from ymseries.nonorient import classify_components, enumerate_nonorientable_points
from ymseries.rootsys import GroupSpec, build_root_system
from ymseries.strata import TAIL_ZERO, enumerate_ab_points, stratum_series, verify_recursion

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

RECURSION_CONFIGS = [
    ("u", 2, (0, 1)),
    ("u", 3, (0, 1, 2)),
    ("sp", 1, (0,)),
    ("sp", 2, (0,)),
    ("so-odd", 1, (0, 1)),
    ("so-odd", 2, (0, 1)),
    ("so-even", 2, (0, 1)),
    ("so-even", 3, (0, 1)),
    ("u", 4, (1, 2)),
    ("u", 5, (1, 2)),
    ("sp", 3, (0,)),
    ("sp", 4, (0,)),
    ("so-odd", 3, (0, 1)),
    ("so-even", 4, (0, 1)),
    ("so-even", 5, (0, 1)),
    ("sp", 5, (0,)),
]


def series_nonnegative(f, order):
    """True when all series coefficients through t**order are >= 0."""
    return all(c >= 0 for c in series_expand(f, order).coeffs)


def topclasses(fam, n):
    if fam == "u":
        return tuple(range(n))
    if fam in ("so-odd", "so-even"):
        return (0, 1)
    return (0,)


@lru_cache(maxsize=None)
def engine_series(fam, n, c, ell):
    """The general engine's flat series; criteria 3 and 5 share each value."""
    return lr_general(GroupSpec(fam, n), c, ell)


def load_golden(name):
    out = {}
    with open(os.path.join(TESTDATA, f"{name}.txt")) as fh:
        for line in fh:
            head, _, body = line.strip().partition(" ")
            out[int(head.removeprefix("l="))] = parse_ratfun(body)
    return out


def test_criterion_1_worked_example_equalities():
    """Computed series equal the transcribed worked expressions, l in {2,3,5}."""
    for name, reference in sorted(REFERENCE_CASES.items()):
        golden = load_golden(name)
        for ell in (2, 3, 5):
            computed = COMPUTED[name](ell)
            assert ratfun_eq(computed, reference(ell)), (name, ell)
            assert ratfun_eq(computed, golden[ell]), (name, ell, "golden")
    print("\ncriterion 1: PASS - 16 worked examples, genus 2/3/5, exact equality")


def test_criterion_2_exceptional_isomorphisms():
    for ell in range(1, 6):
        assert ratfun_eq(sp_flat(1, ell), sun_flat(2, ell))
        assert ratfun_eq(sp_flat(1, ell), so_odd_flat(1, ell, 0))
        assert ratfun_eq(sp_flat(2, ell), so_odd_flat(2, ell, 0))
        assert ratfun_eq(so_even_flat(2, ell, 0), sun_flat(2, ell) * sun_flat(2, ell))
        assert ratfun_eq(so_even_flat(3, ell, 0), sun_flat(4, ell))
    # isogenies with central kernel, at both classes: SO(3) = PU(2),
    # SO(4) = (SU(2) x SU(2))/+-1 and SO(6) = SU(4)/+-1; torus is the
    # central torus factor (1 + t)^(2 ell) / (1 - t^2) of U(n) over SU(n)
    for engine in ("specialized", "general"):
        for ell in range(1, 5):
            torus = _su_torus(ell)
            for w in (0, 1):
                so3, so4, so6, u2, u4 = (
                    flat_series(GroupSpec(fam, n), c, ell, engine)
                    for fam, n, c in (
                        ("so-odd", 1, w), ("so-even", 2, w), ("so-even", 3, w), ("u", 2, w), ("u", 4, 2 * w)
                    )
                )
                assert ratfun_eq(so3 * torus, u2), (engine, ell, w)
                assert ratfun_eq(so4 * torus * torus, u2 * u2), (engine, ell, w)
                assert ratfun_eq(so6 * torus, u4), (engine, ell, w)
    print("\ncriterion 2: PASS - exceptional isomorphism identities, genus 1..5, "
          "and isogenies at both classes, genus 1..4, both engines")


def test_criterion_3_engine_cross_check():
    # n <= 5 at every genus, and n = 6 at genus 2
    cases = [
        (fam, n, c, ell)
        for ell, top in ((1, 5), (2, 6), (3, 5))
        for fam, lo in (("u", 1), ("so-odd", 1), ("so-even", 2), ("sp", 1))
        for n in range(lo, top + 1)
        for c in topclasses(fam, n)
    ]
    # Sp(7) and both SO(15) bundles at genus 2
    cases += [("sp", 7, 0, 2), ("so-odd", 7, 0, 2), ("so-odd", 7, 1, 2)]
    for fam, n, c, ell in cases:
        engine = engine_series(fam, n, c, ell)
        if fam == "u":
            special = zagier_un(n, c, ell)
        elif fam == "so-odd":
            special = so_odd_flat(n, ell, c)
        elif fam == "so-even":
            special = so_even_flat(n, ell, c)
        else:
            special = sp_flat(n, ell)
        assert ratfun_eq(engine, special), (fam, n, c, ell)
    print(f"\ncriterion 3: PASS - general engine equals specialized forms ({len(cases)} cases)")


def test_criterion_4_recursion_identity():
    count = 0
    for fam, n, classes in RECURSION_CONFIGS:
        g = GroupSpec(fam, n)
        for ell in (2, 3):
            for c in classes:
                report = verify_recursion(g, c, ell, 40)
                assert report.holds, (fam, n, c, ell, report.residual.coeffs)
                count += 1
    # deep enough that the unstable strata contribute: degree 80 at genus 2
    # and 120 at genus 3 for every rank-4 and rank-5 bundle (U(4) degree 1
    # at degree 80 among them), plus U(6) and SO(12) at genus 2
    deep = [
        (fam, n, c, ell, degree)
        for fam, n, classes in RECURSION_CONFIGS
        if n in (4, 5)
        for ell, degree in ((2, 80), (3, 120))
        for c in classes
    ]
    deep += [("u", 6, 1, 2, 80), ("so-even", 6, 1, 2, 80)]
    for fam, n, c, ell, degree in deep:
        report = verify_recursion(GroupSpec(fam, n), c, ell, degree)
        assert report.holds, (fam, n, c, ell, degree, report.residual.coeffs)
    print(f"\ncriterion 4: PASS - stratification identity to degree 40 ({count} bundles) "
          f"and to degree 80 or 120 ({len(deep)} bundles of rank 4 to 6)")


def test_criterion_5_positivity():
    checked = 0
    # flat and central series from criteria 1-3
    for name in sorted(REFERENCE_CASES):
        for ell in (2, 3, 5):
            assert series_nonnegative(COMPUTED[name](ell), 60), (name, ell)
            checked += 1
    for ell in (1, 2, 3):
        for fam, lo in (("u", 1), ("so-odd", 1), ("so-even", 2), ("sp", 1)):
            for n in range(lo, 6):
                for c in topclasses(fam, n):
                    f = engine_series(fam, n, c, ell)
                    assert series_nonnegative(f, 60), (fam, n, c, ell)
                    checked += 1
    # stratum series appearing in the recursion configurations
    for fam, n, classes in RECURSION_CONFIGS:
        g = GroupSpec(fam, n)
        for c in classes:
            for pt, _ in enumerate_ab_points(g, c, 2, 20):
                comp_arg = ("plus" if c % 2 == 0 else "minus") if pt.is_split else None
                f = stratum_series(g, pt, 2, component=comp_arg)
                assert series_nonnegative(f, 60), (fam, n, c, pt)
                checked += 1
    print(f"\ncriterion 5: PASS - nonnegative integer coefficients to degree 60 "
          f"({checked} series)")


def test_criterion_6_appendix_properties():
    rng = random.Random(2024)
    produced = 0
    while produced < 200:
        k = rng.randint(1, 3)
        weights, classes = [], []
        for _ in range(k):
            p = rng.randint(1, 6)
            den = rng.choice([d for d in range(1, 7) if p % d == 0])
            classes.append(F(rng.randint(0, den - 1), den))
            weights.append(p)
        spec = ConeSumSpec(tuple(weights), tuple(classes))
        assert cone_sum_truncated(spec, 60) == series_expand(cone_sum_closed(spec), 60)
        produced += 1
    # >= 1000 off-wall samples per rank: 1 / 5 / 19 / 65 proper nested pairs
    for rank, per_pair in ((1, 1000), (2, 200), (3, 53), (4, 16)):
        assert verify_langlands(rank, samples=per_pair, seed=97), rank
    trips = 0
    for fam, ns, classes in (  # classes None: every unitary degree class mod n
        ("u", (1, 2, 3, 4, 5), None),
        ("sp", (1, 2, 3, 4, 5), (0,)),
        ("so-odd", (1, 2, 3, 4, 5), (0, 1)),
        ("so-even", (2, 3, 4, 5), (0, 1)),
    ):
        for n in ns:
            g = GroupSpec(fam, n)
            poset = build_parabolic_poset(g, 2)
            a0 = default_gauge_assignment(poset)
            for c in classes or range(n):
                b0, residual = invert_abstract(poset, a0, c, 40)
                for engine in ("specialized", "general"):
                    assert ratfun_eq(b0[frozenset()], flat_series(g, c, 2, engine)), (fam, n, c)
                assert residual.is_zero, (fam, n, c)
                trips += 1
    print("\ncriterion 6: PASS - cone sums (200 specs), alternating identities "
          "(ranks 1-4, >= 1000 samples per rank), inversion round trips against both "
          f"engines ({trips} bundles: u, sp, so-odd, so-even at n <= 5)")


def test_criterion_7_levi_tables():
    count = 0
    for fam, lo in (("u", 1), ("so-odd", 1), ("so-even", 2), ("sp", 1)):
        for n in range(lo, 8):
            g = GroupSpec(fam, n)
            positive = len(build_root_system(g).positive_roots)
            for cut in enumerate_parabolics(g):
                prof = levi_profile(g, cut)
                dim_u, excess, table = case_table(g, cut)
                assert prof.dim_u == dim_u == dim_u_from_roots(g, cut), (fam, n, cut)
                # the sign (-1)^|I| of the parabolic sum relies on this
                assert excess == len(prof.simple_indices), (fam, n, cut)
                assert levi_profile_to_json(prof)["center_excess"] == excess, (fam, n, cut)
                pairings = dict(zip(prof.simple_indices, prof.rho_pairings))
                assert pairings == table == rho_pairings_from_roots(g, cut), (fam, n, cut)
                # the Levi's Betti data against the root system: one degree
                # per torus dimension, degree d adding d - 1 positive roots
                # of the Levi, and one degree-1 generator per central dimension
                degrees = prof.betti.degrees
                assert sum(d - 1 for d in degrees) == positive - prof.dim_u, (fam, n, cut)
                assert len(degrees) == n, (fam, n, cut)
                assert prof.betti.center_count == len(cut) + (fam == "u"), (fam, n, cut)
                count += 1
    print(f"\ncriterion 7: PASS - Levi profiles match the former case tables and root data, "
          f"Betti data matches the root system ({count} parabolics)")


def _expected_report(fam, n, pt):
    """Independent transcription of the printed component/sign rules."""
    i = pt.surface_i
    comp, labels = pt.composition, pt.labels
    if fam == "sp":
        return {"count": 1, "w2": (None,)}
    if fam == "so-odd":
        if pt.tail_kind != TAIL_ZERO:
            return {"count": 1, "w2": ((sum(labels) + i * n * (n + 1) // 2) % 2,)}
        m = comp[-1]
        exponent = sum(labels[:-1]) + i * (n - m) * (n - m - 1) // 2
        return {
            "count": 2,
            "w2": (0, 1),
            "det": (-1) ** (n - m),
            "signs": ((-1) ** exponent, -((-1) ** exponent)),
            "o_size": 2 * m + 1,
        }
    # so-even: use the direct (n - m)-based exponents and determinants, not
    # the rewritten forms inside the implementation
    if n % 2 == 1:
        m = comp[-1]
        exponent = sum(labels[:-1]) + i * (n - m) * (n - m - 1) // 2
        return {
            "count": 2,
            "w2": (0, 1),
            "det": (-1) ** (n - m),
            "signs": ((-1) ** exponent, -((-1) ** exponent)),
            "o_size": 2 * m,
        }
    if pt.tail_kind == TAIL_ZERO:
        m = comp[-1]
        exponent = sum(labels[:-1]) + i * (n - m) * (n - m - 1) // 2
        return {
            "count": 2,
            "w2": (0, 1),
            "det": (-1) ** m,
            "signs": ((-1) ** exponent, -((-1) ** exponent)),
            "o_size": 2 * m,
        }
    return {"count": 1, "w2": ((sum(labels) + i * (n // 2)) % 2,)}


def test_criterion_8_nonorientable_grid():
    count = 0
    for fam, lo in (("sp", 1), ("so-odd", 1), ("so-even", 2)):
        for n in range(lo, 5):
            g = GroupSpec(fam, n)
            for i in (1, 2):
                for pt in enumerate_nonorientable_points(g, i, 3):
                    report = classify_components(g, pt)
                    expect = _expected_report(fam, n, pt)
                    assert report.component_count == expect["count"], (fam, n, pt)
                    assert tuple(c.w2 for c in report.components) == expect["w2"], (fam, n, pt)
                    if expect["count"] == 2:
                        tails = [c.factors[-1] for c in report.components]
                        assert all(t.size == expect["o_size"] for t in tails), (fam, n, pt)
                        assert all(t.det == expect["det"] for t in tails), (fam, n, pt)
                        assert tuple(t.sign for t in tails) == expect["signs"], (fam, n, pt)
                    count += 1
    print(f"\ncriterion 8: PASS - nonorientable classification grid ({count} points)")
