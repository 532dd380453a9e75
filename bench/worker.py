"""One cold-process repetition of a workload.

Started by run.py as `python3 -I bench/worker.py WORKLOAD SEED TRACE`.  It
imports every ymseries module from the checkout's src/, prints `ready`,
runs the workload's cases in order and prints one JSON line with the
timings and the per-case outcome.  With TRACE=1 every public function is
wrapped first (see spans.py) and the JSON also carries the per-layer
figures; the spans go to .bench_out/ in the checkout.
"""

from __future__ import annotations

import json
import os
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPAN_DIR = ROOT / ".bench_out"

sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import cases  # noqa: E402


def reference_s() -> float:
    """Time of a fixed pure-Python integer convolution, measured now.

    The host's speed drifts by tens of percent over seconds when other
    machines' work shares its cores; dividing the case list's wall time by
    this, taken just before and after it in the same process, removes most
    of that drift.
    """
    a = [(i * 7919) % 1000003 for i in range(160)]
    t0 = time.perf_counter()
    for _ in range(30):
        out = [0] * (2 * len(a))
        for i, x in enumerate(a):
            for j, y in enumerate(a):
                out[i + j] += x * y
    return time.perf_counter() - t0


def run_cases(mods, workload: str, seed: int, tracer=None) -> dict:
    """Run the workload's cases once; time only the cases' own work."""
    digests = cases.load_digests(workload)
    outcomes = []
    for case in cases.workload_cases(workload, seed):
        if tracer is not None:
            tracer.begin_case(case.name)
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            text, identity = case.run(mods)
            error = None
        except Exception:  # a raising case is a failed case; keep going
            text, identity = "", False
            error = traceback.format_exc(limit=-3)
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
        if tracer is not None:
            tracer.enabled = False
        if error is None:
            error = cases.check(case, text, identity, digests)
        if tracer is not None:
            tracer.enabled = True
        outcomes.append({"case": case.name, "error": error, "wall_s": wall, "cpu_s": cpu})
    return {
        "wall_s": sum(c["wall_s"] for c in outcomes),
        "cpu_s": sum(c["cpu_s"] for c in outcomes),
        "cases": outcomes,
    }


def layer_metrics(tracer, caches) -> dict:
    """Per-layer figures named in BENCHMARK.json, from one traced run."""
    calls, self_s = tracer.calls, tracer.self_s

    def span(*names):
        return (
            sum(calls[n] for n in names),
            sum(self_s[n] for n in names),
        )

    groups = {
        "exactalg.poly_mul": ("exactalg.Poly.__mul__",),
        "exactalg.poly_gcd": ("exactalg.poly_gcd",),
        "exactalg.ratfun_add": ("exactalg.RatFun.__add__",),
        "exactalg.ratfun_mul": ("exactalg.RatFun.__mul__",),
        "exactalg.series_expand": ("exactalg.series_expand",),
        "gaugeseries.bg_orientable": ("gaugeseries.bg_orientable",),
        "closedforms.flat_series": ("closedforms.flat_series",),
        "closedforms.lr_general": ("closedforms.lr_general",),
        "levidata.levi_profile": ("levidata.levi_profile",),
        "levidata.enumerate_parabolics": ("levidata.enumerate_parabolics",),
        "levidata.from_roots": ("levidata.dim_u_from_roots", "levidata.rho_pairings_from_roots"),
        "rootsys.build_root_system": ("rootsys.build_root_system",),
        "rootsys.expand_in_simple_roots": ("rootsys.expand_in_simple_roots",),
        "strata.enumerate_ab_points": ("strata.enumerate_ab_points",),
        "strata.codim": ("strata.codim",),
        "strata.stratum_series": ("strata.stratum_series",),
        "inversion.verify_langlands": ("inversion.verify_langlands",),
        "inversion.cone_sum": ("inversion.cone_sum_closed", "inversion.cone_sum_truncated"),
        "inversion.invert_abstract": ("inversion.invert_abstract",),
        "inversion.build_parabolic_poset": ("inversion.build_parabolic_poset",),
        "nonorient.enumerate_nonorientable_points": ("nonorient.enumerate_nonorientable_points",),
        "nonorient.classify_components": ("nonorient.classify_components",),
    }
    out = {}
    for key, names in groups.items():
        out[f"{key}.calls"], out[f"{key}.self_s"] = span(*names)
    gcds = out["exactalg.poly_gcd.calls"]
    out["exactalg.poly_gcd.nontrivial_frac"] = tracer.gcd_nontrivial / gcds if gcds else 0.0
    out["exactalg.result_max_degree"] = tracer.result_max_degree
    out["exactalg.result_max_coeff_bits"] = tracer.result_max_coeff_bits
    builds = out["rootsys.build_root_system.calls"]
    out["rootsys.build_root_system.distinct_frac"] = (
        len(tracer.root_system_groups) / builds if builds else 0.0
    )
    out["strata.points_found"] = tracer.points_found
    codims = out["strata.codim.calls"]
    out["strata.codim_yield"] = tracer.points_found / codims if codims else 0.0
    infos = [c.cache_info() for c in caches]
    out["closedforms.cache_hits"] = sum(i.hits for i in infos)
    out["closedforms.cache_misses"] = sum(i.misses for i in infos)
    # argument parsing and rendering: cli.main and the verb functions it calls
    out["cli.main.self_s"] = sum((s for n, s in self_s.items() if n.startswith("cli.")), 0.0)
    for layer, s in tracer.layer_self_s().items():
        out[f"layer.{layer}.self_s"] = s
    out["trace.spans"] = len(tracer.span_name)
    return out


def main(argv) -> int:
    workload, seed, trace = argv[0], int(argv[1]), argv[2] == "1"
    out = sys.stdout
    mods = cases.import_package()
    src = (ROOT / "src").resolve()
    if Path(mods.cli.__file__).resolve().parent.parent != src:
        print(f"ymseries imported from {mods.cli.__file__}, not {src}", file=sys.stderr)
        return 2
    print("ready", file=out, flush=True)

    tracer = None
    if trace:
        import spans

        caches = [obj for obj in vars(mods.closedforms).values() if hasattr(obj, "cache_info")]
        tracer = spans.Tracer()
        spans.install(tracer, {name: getattr(mods, name) for name in cases.MODULES})
    before = reference_s()
    result = run_cases(mods, workload, seed, tracer)
    result["reference_s"] = (before + reference_s()) / 2
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, caches)
        SPAN_DIR.mkdir(exist_ok=True)
        run_id = f"{workload}-seed{seed}-pid{os.getpid()}"
        path = SPAN_DIR / f"spans-{workload}-seed{seed}.json"
        tracer.write(path, run_id, {"workload": workload, "seed": seed})
        result["span_file"] = str(path.relative_to(ROOT))
    print(json.dumps(result), file=out, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
