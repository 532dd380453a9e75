"""Benchmark of ymseries: cold-process workloads with a traced per-layer run.

Run from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads, metrics and units are declared in BENCHMARK.json; why each
workload exists and which end-to-end metric each layer metric should move
is in bench/layers.json.  Only the standard library is used.

Every repetition starts a fresh interpreter (`python3 -I bench/worker.py`),
so the package's lru_caches start empty as on every CLI call, and runs the
workload's whole case list once.  With --trace 0 repetitions run one at a
time until --seconds is spent (at least MIN_REPS), and the end-to-end
metrics are taken over them (see AGGREGATE):

  wall_s        wall time of the case list after import, each case at its
                fastest repetition
  cpu_s         user+sys CPU time of the worker over the same cases, taken
                the same way
  wall_ref      median over repetitions of the case list's wall time divided
                by a fixed reference loop's, timed in the same worker
  setup_s       median time from spawn until the worker has imported every
                module and reports ready
  peak_rss_mib  median of the worker's peak resident memory, from wait4

With --trace 1 untraced and traced repetitions alternate for --seconds; each
per-layer metric is the median over the traced ones, and trace.overhead_s
is their wall_s minus the untraced ones', both taken as above.  The case
failure rate is printed as error_rate and carried by the result's
"attempted" and "failed" counts.

Every case's output is checked (see cases.py).  The last stdout line is one
JSON object {"correct", "attempted", "failed", "metrics"}; the exit status
is 1 when any case failed and 2 when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
MIN_REPS = 3
# a run must end well inside the 180 s a benchmark command may take
DEADLINE_S = 150.0


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, broken worker)."""


def spawn(workload: str, seed: int, trace: bool, deadline: float) -> dict:
    """One repetition in a fresh interpreter; returns its figures."""
    cmd = [sys.executable, "-I", str(BENCH_DIR / "worker.py"), workload, str(seed), str(int(trace))]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE)
    fd = proc.stdout.fileno()
    data, ready_at = b"", None
    try:
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                raise BenchError(f"{workload} repetition passed the {DEADLINE_S:.0f} s deadline")
            if not select.select([fd], [], [], remaining)[0]:
                continue
            chunk = os.read(fd, 1 << 16)
            if ready_at is None and b"\n" in data + chunk:
                ready_at = time.perf_counter()
            if not chunk:
                break
            data += chunk
    except BaseException:
        proc.kill()
        raise
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    lines = data.decode().splitlines()
    if proc.returncode != 0 or len(lines) < 2 or lines[0] != "ready":
        raise BenchError(f"worker for {workload} exited with status {proc.returncode}")
    rep = json.loads(lines[-1])
    rep["setup_s"] = ready_at - t0
    rep["peak_rss_mib"] = usage.ru_maxrss / 1024  # ru_maxrss is in KiB on Linux
    return rep


def fastest(reps, key: str) -> float:
    """Sum over the case list of each case's fastest time in the run."""
    return sum(min(r["cases"][i][key] for r in reps) for i in range(len(reps[0]["cases"])))


# How each end-to-end metric is taken over a run's repetitions.  The host's
# speed drifts by tens of percent over seconds (another machine's work on a
# shared core slows ours by up to 1.6x, in phases of about a second), so
# the median of a raw time moves with it.  A case's fastest run is its time
# on the host when uncontended, and wall_ref divides out the drift with a
# reference loop timed in the same process.
AGGREGATE = {
    "wall_s": lambda reps: fastest(reps, "wall_s"),
    "cpu_s": lambda reps: fastest(reps, "cpu_s"),
    "wall_ref": lambda reps: median([r["wall_s"] / r["reference_s"] for r in reps]),
    "setup_s": lambda reps: median([r["setup_s"] for r in reps]),
    "peak_rss_mib": lambda reps: median([r["peak_rss_mib"] for r in reps]),
}


def describe(values):
    if len(values) < 4:
        return f"median {median(values):.6g} over {len(values)} repetitions"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (
        f"median {median(values):.6g}, quartiles {q1:.6g}..{q3:.6g}, "
        f"range {min(values):.6g}..{max(values):.6g}, {len(values)} repetitions"
    )


def load_declaration() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def check_layout(decl: dict, workload: str):
    if not (ROOT / "src" / "ymseries" / "__init__.py").is_file():
        raise BenchError(f"no ymseries sources under {ROOT / 'src'}")
    names = [w["name"] for w in decl["workloads"]]
    if workload not in names:
        raise BenchError(f"unknown workload {workload!r}; choose from {', '.join(names)}")


def summarize(reps, declared, layers=None) -> tuple:
    """The result object and the failed cases of a list of repetitions."""
    attempted = sum(len(r["cases"]) for r in reps)
    failures = [(c["case"], c["error"]) for r in reps for c in r["cases"] if c["error"]]
    if layers is None:
        values = {m["name"]: AGGREGATE[m["name"]](reps) for m in declared}
    else:
        values = layers
    missing = {m["name"] for m in declared} ^ set(values)
    if missing:
        raise BenchError(f"measured metrics differ from BENCHMARK.json: {sorted(missing)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    return result, failures


def run_for(seconds: int, deadline: float, step, min_steps: int) -> list:
    """Call step() until --seconds is spent (at least min_steps times)."""
    results, durations = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(step())
        durations.append(time.perf_counter() - t0)
        next_step = median(durations)
        if len(results) >= min_steps and time.perf_counter() - start + next_step > seconds:
            return results
        if time.perf_counter() + 2 * next_step > deadline:
            return results


def measure(workload: str, seed: int, seconds: int, trace: bool, decl: dict) -> tuple:
    deadline = time.perf_counter() + DEADLINE_S
    # compile the package once, as an installed package is, so that no
    # repetition pays for bytecode compilation
    compileall.compile_dir(ROOT / "src", quiet=1)
    compileall.compile_dir(BENCH_DIR, quiet=1)
    if not trace:
        reps = run_for(seconds, deadline, lambda: spawn(workload, seed, False, deadline), MIN_REPS)
        return reps, summarize(reps, decl["end_to_end"])
    # untraced and traced repetitions alternate, so both see the same host
    pairs = run_for(
        seconds,
        deadline,
        lambda: (spawn(workload, seed, False, deadline), spawn(workload, seed, True, deadline)),
        1,
    )
    plain = [p for p, _ in pairs]
    traced = [t for _, t in pairs]
    layers = {k: statistics.median_low([t["layers"][k] for t in traced]) for k in traced[0]["layers"]}
    layers["trace.overhead_s"] = fastest(traced, "wall_s") - fastest(plain, "wall_s")
    print(f"# spans of the last traced repetition are in {traced[-1]['span_file']}")
    return plain + traced, summarize(plain + traced, decl["per_layer"], layers)


def dominant_layer(layers: dict) -> str:
    per_layer = {k.split(".")[1]: v for k, v in layers.items() if k.startswith("layer.")}
    return max(per_layer, key=per_layer.get)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        decl = load_declaration()
        check_layout(decl, args.workload)
        reps, (result, failures) = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), decl
        )
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    print(f"# workload {args.workload}, seed {args.seed}, {len(reps)} cold-process repetitions")
    units = {m["name"]: m["unit"] for m in decl["end_to_end"] + decl["per_layer"]}
    if args.trace:
        layers = {k: v["value"] for k, v in result["metrics"].items()}
        predicted = json.loads((BENCH_DIR / "layers.json").read_text())["workloads"][
            args.workload
        ]["dominant"]
        top = dominant_layer(layers)
        verdict = "as predicted" if top in predicted else f"predicted {'/'.join(predicted)}"
        print(f"# largest self time: {top} ({verdict})")
        for name, value in layers.items():
            print(f"{name} = {value} {units[name]}")
    else:
        for name, metric in result["metrics"].items():
            per_rep = describe([AGGREGATE[name]([r]) for r in reps])
            print(f"{name} = {metric['value']:.6g} {units[name]}; per repetition {per_rep}")
    print(f"error_rate = {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} of {result['attempted']} case runs failed)")
    for case, error in failures:
        print(f"# FAILED {case}: {error.strip().splitlines()[-1]}")
    print(json.dumps(result))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
