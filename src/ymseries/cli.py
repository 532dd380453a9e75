"""Command-line interface: compute series and run the verification suites.

Verbs:
  poincare            closed-form flat/central series of a group and class
  series              truncated power-series coefficients of the same
  stratum             series of a single stratum index
  strata-list         enumerate stratum indices with codimensions
  components          nonorientable component classification (JSON-able)
  verify-recursion    stratification identity for one bundle
  verify-isomorphisms the five exceptional-isomorphism series identities and
                      three isogenies, each at both classes
  verify-appendix     cone-sum and alternating-identity property suites

Exit status, decided in main from the two bases in ymseries.errors:
  0  success
  1  a verification failed
  2  an InputError: the input is outside what the verb accepts ("error: ...")
  3  a fault in the program: an ExactnessError, an exact invariant that did
     not hold ("internal error: ..."), or any other exception, a bug, which
     is followed by its traceback
  141  stdout was closed before the output was written (128 + SIGPIPE, as
     for a process the signal ends); nothing is printed
Diagnostics go to stderr; results to stdout.  When the two routes of
poincare --engine both disagree, the second stderr line names the first
degree at which their power series differ.  A verb run with --genus
below 2 adds one "note:" line on stderr, since the stratification presumes
genus >= 2.  The default truncation degree for verification verbs is 40,
overridable by --order or the environment variable YM_TRUNCATION_DEFAULT.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from fractions import Fraction
from functools import lru_cache

from .closedforms import (
    _su_torus,
    flat_series,
    so_even_flat,
    so_odd_flat,
    sp_flat,
    sun_flat,
    zagier_un,
)
from .errors import ExactnessError, InputError
from .exactalg import latex_ratfun, ratfun_eq, ratfun_to_json, render_ratfun, series_expand
from .inversion import ConeSumSpec, cone_sum_closed, cone_sum_truncated, verify_langlands
from .nonorient import (
    NonorientablePoint,
    classify_components,
    decomposition_render,
)
from .rootsys import FAMILIES, SO_LIKE, SPECIAL_UNITARY, UNITARY, GroupSpec, validate_topclass
from .strata import (
    TAIL_MINUS,
    TAIL_NONE,
    TAIL_ZERO,
    AtiyahBottPoint,
    enumerate_ab_points,
    stratum_row,
    stratum_series,
    verify_recursion,
)


def _default_truncation() -> int:
    raw = os.environ.get("YM_TRUNCATION_DEFAULT", "40")
    try:
        return int(raw)
    except ValueError as exc:
        raise InputError(f"YM_TRUNCATION_DEFAULT must be an integer, got {raw!r}") from exc


def _group(args) -> GroupSpec:
    return GroupSpec(args.group, args.rank)


def _topclass(args, g: GroupSpec) -> int:
    """The bundle class from --degree or --w2; a nonzero flag another family
    cannot use is an InputError, as a nonzero su degree is."""
    unitary, orthogonal = g.family in (UNITARY, SPECIAL_UNITARY), g.family in SO_LIKE
    if args.degree and not unitary:
        raise InputError(f"{g.describe()} takes no --degree, got {args.degree}")
    if args.w2 and not orthogonal:
        raise InputError(f"{g.describe()} takes no --w2, got {args.w2}")
    c = (args.degree or 0) if unitary else args.w2
    validate_topclass(g, c)
    return c


def _parse_int_list(text: str, what: str):
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise InputError(f"{what} must be a comma-separated integer list") from exc


def _emit_ratfun(f, fmt: str, meta: dict) -> str:
    if fmt == "latex":
        return latex_ratfun(f)
    if fmt == "json":
        payload = dict(meta)
        payload["series"] = ratfun_to_json(f)
        return json.dumps(payload, sort_keys=True)
    return render_ratfun(f)


def cmd_poincare(args) -> int:
    g = _group(args)
    c = _topclass(args, g)
    meta = {"group": g.describe(), "genus": args.genus, "topclass": c}
    engine = "general" if args.engine == "general" else "specialized"
    f = flat_series(g, c, args.genus, engine=engine)
    if args.engine == "both":
        general = flat_series(g, c, args.genus, engine="general")
        if not ratfun_eq(f, general):
            print("engine disagreement between specialized and general routes", file=sys.stderr)
            # every denominator has constant term 1, so the series first
            # differ at the lowest term of the difference's numerator
            k = next(k for k, x in enumerate((f - general).num.coeffs) if x)
            a, b = (series_expand(h, k).coeffs[k] for h in (f, general))
            print(
                f"first differing series coefficient at degree {k}: specialized {a}, general {b}",
                file=sys.stderr,
            )
            return 1
    print(_emit_ratfun(f, args.format, meta))
    return 0


def cmd_series(args) -> int:
    g = _group(args)
    c = _topclass(args, g)
    f = flat_series(g, c, args.genus)
    coeffs = series_expand(f, args.order).coeffs
    if args.format == "json":
        print(
            json.dumps(
                {
                    "group": g.describe(),
                    "genus": args.genus,
                    "topclass": c,
                    "order": args.order,
                    "coefficients": list(coeffs),
                },
                sort_keys=True,
            )
        )
    else:
        print(" ".join(str(x) for x in coeffs))
    return 0


def cmd_stratum(args) -> int:
    g = _group(args)
    comp = _parse_int_list(args.composition, "--composition")
    labels = _parse_int_list(args.labels, "--labels")
    tail = {"none": TAIL_NONE, "zero": TAIL_ZERO, "minus": TAIL_MINUS}[args.tail]
    pt = AtiyahBottPoint(g.family, comp, labels, tail)
    f = stratum_series(g, pt, args.genus, component=args.component)
    meta = {
        "group": g.describe(),
        "genus": args.genus,
        "composition": list(comp),
        "labels": list(labels),
        "tail": tail,
    }
    print(_emit_ratfun(f, args.format, meta))
    return 0


def cmd_strata_list(args) -> int:
    g = _group(args)
    c = _topclass(args, g)
    pts = enumerate_ab_points(g, c, args.genus, args.codim_bound)
    if args.format == "json":
        rows = [stratum_row(p, d) for p, d in pts]
        print(json.dumps({"group": g.describe(), "topclass": c, "strata": rows}, sort_keys=True))
    else:
        for p, d in pts:
            comp = ",".join(str(x) for x in p.composition)
            labels = ",".join(str(x) for x in p.labels)
            print(f"codim={d}\tcomposition=({comp})\tlabels=({labels})\ttail={p.tail_kind}")
    return 0


def cmd_components(args) -> int:
    g = _group(args)
    comp = _parse_int_list(args.composition, "--composition")
    labels = _parse_int_list(args.labels, "--labels")
    if args.zero_tail and args.minus_last:
        raise InputError("zero_tail and minus_last exclude each other")
    tail = TAIL_ZERO if args.zero_tail else TAIL_MINUS if args.minus_last else TAIL_NONE
    pt = NonorientablePoint(g.family, comp, labels, args.surface_i, tail)
    report = classify_components(g, pt)
    if args.format == "json":
        print(json.dumps(report.to_json(), sort_keys=True))
    else:
        print(decomposition_render(report))
    return 0


def cmd_verify_recursion(args) -> int:
    g = _group(args)
    c = _topclass(args, g)
    report = verify_recursion(g, c, args.genus, args.order)
    if args.format == "json":
        print(json.dumps(report.to_json(), sort_keys=True))
    else:
        status = "holds" if report.holds else "FAILS"
        print(
            f"{g.describe()} class {c} genus {args.genus}: identity {status} "
            f"to degree {args.order} using {report.strata_used} strata"
        )
        if not report.holds:
            degree, residual = next((k, r) for k, r in enumerate(report.residual.coeffs) if r)
            print(f"first nonzero residual at degree {degree}: {residual}")
    return 0 if report.holds else 1


def cmd_verify_isomorphisms(args) -> int:
    ell = args.genus
    checks = [
        ("Sp(1) = SU(2)", ratfun_eq(sp_flat(1, ell), sun_flat(2, ell))),
        ("Sp(1) = Spin(3)", ratfun_eq(sp_flat(1, ell), so_odd_flat(1, ell, 0))),
        ("Sp(2) = Spin(5)", ratfun_eq(sp_flat(2, ell), so_odd_flat(2, ell, 0))),
        (
            "Spin(4) = SU(2) x SU(2)",
            ratfun_eq(so_even_flat(2, ell, 0), sun_flat(2, ell) * sun_flat(2, ell)),
        ),
        ("Spin(6) = SU(4)", ratfun_eq(so_even_flat(3, ell, 0), sun_flat(4, ell))),
    ]
    # isogenies with central kernel at both classes, through the central
    # torus factor of U(n) over SU(n)
    torus = _su_torus(ell)
    for w in (0, 1):
        u2 = zagier_un(2, w, ell)
        for name, lhs, rhs in (
            ("SO(3) = PU(2)", so_odd_flat(1, ell, w) * torus, u2),
            ("SO(4) = (SU(2) x SU(2))/+-1", so_even_flat(2, ell, w) * torus * torus, u2 * u2),
            ("SO(6) = SU(4)/+-1", so_even_flat(3, ell, w) * torus, zagier_un(4, 2 * w, ell)),
        ):
            checks.append((f"{name}, w2 = {w}", ratfun_eq(lhs, rhs)))
    ok = True
    for name, holds in checks:
        print(f"{name}: {'ok' if holds else 'FAIL'}")
        ok = ok and holds
    return 0 if ok else 1


def cmd_verify_appendix(args) -> int:
    if args.cone_samples < 1:
        raise InputError(f"--cone-samples must be at least 1, got {args.cone_samples}")
    rng = random.Random(args.seed)
    ok = True
    for _ in range(args.cone_samples):
        k = rng.randint(1, 3)
        weights, classes = [], []
        for _ in range(k):
            p = rng.randint(1, 6)
            den = rng.choice([d for d in range(1, 7) if p % d == 0])
            classes.append(Fraction(rng.randint(0, den - 1), den))
            weights.append(p)
        spec = ConeSumSpec(tuple(weights), tuple(classes))
        counted = cone_sum_truncated(spec, args.order).coeffs
        closed = series_expand(cone_sum_closed(spec), args.order).coeffs
        if counted != closed:
            degree, a, b = next((k, a, b) for k, (a, b) in enumerate(zip(counted, closed)) if a != b)
            print(
                f"cone sum mismatch at {spec}: degree {degree}, lattice count {a}, closed form {b}",
                file=sys.stderr,
            )
            ok = False
    # run every check before the first report line, so a bad sample count
    # leaves stdout empty
    ranks = (1, 2, 3)
    holds = [verify_langlands(r, samples=args.langlands_samples, seed=args.seed) for r in ranks]
    print(f"cone sums: {args.cone_samples} random specs to degree {args.order}: "
          f"{'ok' if ok else 'FAIL'}")
    for rank, rank_holds in zip(ranks, holds):
        print(f"alternating identities, rank {rank}: {'ok' if rank_holds else 'FAIL'}")
    return 0 if ok and all(holds) else 1


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args keeps no state."""
    parser = argparse.ArgumentParser(
        prog="ymseries",
        description="exact equivariant series of Yang-Mills strata for classical groups",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_group_flags(p, genus=True, topclass=True):
        p.add_argument("--group", required=True, choices=FAMILIES)
        p.add_argument("--rank", type=int, required=True, help="the rank parameter n")
        if genus:
            p.add_argument("--genus", type=int, required=True)
        if topclass:
            p.add_argument("--degree", type=int, default=None, help="bundle degree (u only)")
            p.add_argument(
                "--w2", type=int, default=0, choices=[0, 1], help="orthogonal bundle class"
            )

    p = sub.add_parser("poincare", help="closed-form flat/central series")
    add_group_flags(p)
    p.add_argument("--engine", choices=["specialized", "general", "both"], default="both")
    p.add_argument("--format", choices=["text", "latex", "json"], default="text")
    p.set_defaults(func=cmd_poincare)

    p = sub.add_parser("series", help="truncated series coefficients")
    add_group_flags(p)
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_series)

    # a stratum's class is read off its --labels
    p = sub.add_parser("stratum", help="series of one stratum")
    add_group_flags(p, topclass=False)
    p.add_argument("--composition", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--tail", choices=["none", "zero", "minus"], default="none")
    p.add_argument("--component", choices=["plus", "minus"], default=None)
    p.add_argument("--format", choices=["text", "latex", "json"], default="text")
    p.set_defaults(func=cmd_stratum)

    p = sub.add_parser("strata-list", help="enumerate strata with codimensions")
    add_group_flags(p)
    p.add_argument("--codim-bound", type=int, required=True)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_strata_list)

    p = sub.add_parser("components", help="nonorientable component classification")
    add_group_flags(p, genus=False, topclass=False)
    p.add_argument("--surface-i", type=int, choices=[1, 2], required=True)
    p.add_argument("--composition", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--zero-tail", action="store_true")
    p.add_argument("--minus-last", action="store_true")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_components)

    p = sub.add_parser("verify-recursion", help="stratification identity for one bundle")
    add_group_flags(p)
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_verify_recursion)

    p = sub.add_parser("verify-isomorphisms", help="exceptional isomorphism identities")
    p.add_argument("--genus", type=int, required=True)
    p.set_defaults(func=cmd_verify_isomorphisms)

    p = sub.add_parser("verify-appendix", help="cone-sum and alternating-identity suites")
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--cone-samples", type=int, default=50)
    p.add_argument("--langlands-samples", type=int, default=8)
    p.set_defaults(func=cmd_verify_appendix)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if hasattr(args, "order") and args.order is None:
            args.order = _default_truncation()
        code = args.func(args)
        # flushed here, so that a closed stdout is caught below and not at exit
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone; with stdout on devnull the flush at exit
        # cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ExactnessError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        # imported here, as only a bug reaches this, so that no verb pays
        # for the import at startup
        import traceback

        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return 3
    if getattr(args, "genus", 2) < 2:
        print(f"note: the stratification presumes genus >= 2, got {args.genus}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
