"""Workload case lists and their output checks.

A case runs one unit of user-visible work and returns its canonical output
text together with the result of the case's own exact identity.  Cases
whose inputs do not depend on the seed also have their output's sha256
committed in digests.json, taken from the code at the commit that defined
the benchmark; a different digest fails the case.  The seeded `appendix`
cases (cone sums and Langlands samples) are checked by their identities
alone.

Every call into the package goes through a module attribute looked up at
call time (`mods.cli.main`), so the tracer's wrappers and a test's
monkeypatches are seen.

Regenerate digests.json (only when an output is meant to change) with

    python3 bench/cases.py > bench/digests.json
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
DIGESTS = BENCH_DIR / "digests.json"

MODULES = (
    "exactalg",
    "gaugeseries",
    "closedforms",
    "levidata",
    "rootsys",
    "strata",
    "inversion",
    "nonorient",
    "cli",
)


def import_package():
    """Import every ymseries module; returns them as attributes of one namespace."""
    import importlib

    return SimpleNamespace(
        **{name: importlib.import_module(f"ymseries.{name}") for name in MODULES}
    )


@dataclass(frozen=True)
class Case:
    name: str
    run: Callable  # (mods) -> (canonical output text, identity holds)
    seeded: bool = False


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# -- flat-engines: `poincare --engine both` -----------------------------
#
# Both routes are computed; the CLI exits 1 unless ratfun_eq(specialized,
# general) holds, so exit status 0 is the engine cross-check.

FLAT_ENGINES = (
    ("Sp(5)", ["--group", "sp", "--rank", "5"]),
    ("SO(11),w2=1", ["--group", "so-odd", "--rank", "5", "--w2", "1"]),
    ("SO(10),w2=1", ["--group", "so-even", "--rank", "5", "--w2", "1"]),
    ("U(6),d=1", ["--group", "u", "--rank", "6", "--degree", "1"]),
)

# -- recursion: `verify-recursion --format json` -------------------------

RECURSION = (
    ("U(4),d=1,deg40", ["--group", "u", "--rank", "4", "--degree", "1", "--order", "40"]),
    ("SO(8),w2=1,deg40", ["--group", "so-even", "--rank", "4", "--w2", "1", "--order", "40"]),
    ("U(3),d=1,deg80", ["--group", "u", "--rank", "3", "--degree", "1", "--order", "80"]),
    ("SO(7),w2=1,deg60", ["--group", "so-odd", "--rank", "3", "--w2", "1", "--order", "60"]),
    ("Sp(3),deg40", ["--group", "sp", "--rank", "3", "--order", "40"]),
)

# -- root-data: Levi case tables against the root system ----------------

ROOT_DATA = [
    (fam, n) for fam, lo in (("u", 1), ("so-odd", 1), ("so-even", 2), ("sp", 1)) for n in range(lo, 5)
] + [("u", 5)]

# -- appendix ------------------------------------------------------------

CONE_ORDER = 60
CONE_REPEATS = 2  # passes over the weight grid, each with fresh classes
LANGLANDS_SAMPLES = ((1, 250), (2, 50), (3, 13))  # per nested pair
INVERSION = (("u", 3, (0, 1, 2)), ("so-odd", 2, (0, 1)), ("sp", 2, (0,)), ("sp", 3, (0,)))
INVERSION_GENUS, INVERSION_ORDER = 2, 40
NONORIENT = [(fam, n) for fam, lo in (("sp", 1), ("so-odd", 1), ("so-even", 2)) for n in range(lo, 6)]
NONORIENT_BOUND = 3


def cli_output(mods, verb: str, argv) -> tuple:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = mods.cli.main([verb, *argv])
    return buf.getvalue(), rc == 0


def _flat_case(label, argv):
    return Case(
        f"poincare {label}",
        lambda mods: cli_output(mods, "poincare", ["--engine", "both", "--genus", "2", *argv]),
    )


def _recursion_case(label, argv):
    return Case(
        f"verify-recursion {label}",
        lambda mods: cli_output(
            mods, "verify-recursion", ["--format", "json", "--genus", "2", *argv]
        ),
    )


def _root_data_case(fam, n):
    def run(mods):
        g = mods.rootsys.GroupSpec(fam, n)
        rows, ok = [], True
        for idx in mods.levidata.enumerate_parabolics(g):
            prof = mods.levidata.levi_profile(g, idx)
            dim_u = mods.levidata.dim_u_from_roots(g, idx)
            rho = mods.levidata.rho_pairings_from_roots(g, idx)
            ok = ok and prof.dim_u == dim_u and dict(zip(prof.simple_indices, prof.rho_pairings)) == rho
            rows.append(
                {
                    "profile": mods.levidata.levi_profile_to_json(prof),
                    "dim_u_from_roots": dim_u,
                    "rho_from_roots": {str(i): str(v) for i, v in sorted(rho.items())},
                }
            )
        return json.dumps(rows, sort_keys=True), ok

    return Case(f"levi tables {fam} n={n}", run)


def cone_specs(seed: int):
    """Cone specs: weight tuples on a fixed grid, classes drawn from the seed.

    The lattice enumeration's cost is set by the weights, so a fixed weight
    grid keeps the work per run the same for every seed; the seed picks
    each factor's class x mod Z (with p * <x> integral) and the order in
    which the specs run.
    """
    rng = random.Random(seed)
    grid = [(a,) for a in range(1, 7)]
    grid += [(a, b) for a in range(1, 7) for b in range(1, 7)]
    grid += [(a, b, c) for a in range(1, 7) for b in range(a, 7) for c in range(b, 7)]
    specs = []
    for _ in range(CONE_REPEATS):
        for weights in grid:
            classes = []
            for p in weights:
                den = rng.choice([d for d in range(1, 7) if p % d == 0])
                classes.append(Fraction(rng.randint(0, den - 1), den))
            specs.append((weights, tuple(classes)))
    rng.shuffle(specs)
    return specs


def langlands_seed(seed: int) -> int:
    return random.Random(f"langlands-{seed}").getrandbits(32)


def _cone_case(seed):
    def run(mods):
        inv, ex = mods.inversion, mods.exactalg
        ok = True
        for weights, classes in cone_specs(seed):
            spec = inv.ConeSumSpec(weights, classes)
            truncated = inv.cone_sum_truncated(spec, CONE_ORDER)
            closed = ex.series_expand(inv.cone_sum_closed(spec), CONE_ORDER)
            ok = ok and truncated == closed
        return "", ok

    return Case(f"cone sums seed={seed}", run, seeded=True)


def _langlands_case(rank, samples, seed):
    def run(mods):
        return "", mods.inversion.verify_langlands(rank, samples=samples, seed=langlands_seed(seed))

    return Case(f"langlands rank={rank} samples={samples}", run, seeded=True)


def _inversion_case(fam, n, classes):
    def oracle(mods, c):
        cf = mods.closedforms
        if fam == "u":
            return cf.zagier_un(n, c, INVERSION_GENUS)
        if fam == "so-odd":
            return cf.so_odd_flat(n, INVERSION_GENUS, c)
        return cf.sp_flat(n, INVERSION_GENUS)

    def run(mods):
        inv, ex = mods.inversion, mods.exactalg
        g = mods.rootsys.GroupSpec(fam, n)
        poset = inv.build_parabolic_poset(g, INVERSION_GENUS)
        a0 = inv.default_gauge_assignment(poset)
        out, ok = [], True
        for c in classes:
            b0, residual = inv.invert_abstract(poset, a0, c, INVERSION_ORDER)
            ok = ok and residual.is_zero and ex.ratfun_eq(b0[frozenset()], oracle(mods, c))
            out.append(
                {
                    "class": c,
                    "b0": {
                        ",".join(map(str, sorted(q))): ex.render_ratfun(f)
                        for q, f in sorted(b0.items(), key=lambda kv: sorted(kv[0]))
                    },
                    "residual": list(residual.coeffs),
                }
            )
        return json.dumps(out, sort_keys=True), ok

    return Case(f"invert_abstract {fam} n={n}", run)


def _nonorient_case(fam, n):
    def run(mods):
        no = mods.nonorient
        g = mods.rootsys.GroupSpec(fam, n)
        reports = []
        for i in (1, 2):
            for pt in no.enumerate_nonorientable_points(g, i, NONORIENT_BOUND):
                reports.append(no.classify_components(g, pt).to_json())
        return json.dumps(reports, sort_keys=True), bool(reports)

    return Case(f"nonorientable grid {fam} n={n}", run)


def workload_cases(workload: str, seed: int) -> list:
    if workload == "flat-engines":
        return [_flat_case(label, argv) for label, argv in FLAT_ENGINES]
    if workload == "recursion":
        return [_recursion_case(label, argv) for label, argv in RECURSION]
    if workload == "root-data":
        return [_root_data_case(fam, n) for fam, n in ROOT_DATA]
    if workload == "appendix":
        return (
            [_cone_case(seed)]
            + [_langlands_case(rank, samples, seed) for rank, samples in LANGLANDS_SAMPLES]
            + [_inversion_case(*spec) for spec in INVERSION]
            + [_nonorient_case(fam, n) for fam, n in NONORIENT]
        )
    raise KeyError(workload)


WORKLOAD_NAMES = ("flat-engines", "recursion", "root-data", "appendix")


def check(case: Case, text: str, identity: bool, digests: dict) -> str | None:
    """None when the case's output is correct, else the reason it is not."""
    if not identity:
        return "identity check failed"
    if case.seeded:
        return None
    want = digests.get(case.name)
    if want is None:
        return "no committed digest"
    if sha256(text) != want:
        return "output digest differs from the committed one"
    return None


def load_digests(workload: str) -> dict:
    with open(DIGESTS) as fh:
        return json.load(fh)[workload]


def record_digests() -> dict:
    """Digests of every unseeded case, computed in this process."""
    mods = import_package()
    out = {}
    for workload in WORKLOAD_NAMES:
        out[workload] = {}
        for case in workload_cases(workload, seed=0):
            text, identity = case.run(mods)
            if not identity:
                raise SystemExit(f"{case.name}: identity check failed")
            if not case.seeded:
                out[workload][case.name] = sha256(text)
    return out


if __name__ == "__main__":
    sys.path.insert(0, str(BENCH_DIR.parent / "src"))
    json.dump(record_digests(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
