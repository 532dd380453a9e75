"""Self-test of the benchmark harness.

    python3 -m unittest discover -s bench -p "test_*.py"

Takes about half a minute: it runs the real command on the cheapest
workload, traced and untraced, and the flat-engines cases in this process.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import cases  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402

CHEAP = "recursion"


def bench_command(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def declared(kind):
    return {m["name"]: m["unit"] for m in run.load_declaration()[kind]}


class MetricNames(unittest.TestCase):
    def check_run(self, trace: int, kind: str):
        proc = bench_command("--workload", CHEAP, "--seed", "5", "--seconds", "1", "--trace", str(trace))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(printed, declared(kind))
        return result

    def test_end_to_end_names_match_declaration(self):
        result = self.check_run(0, "end_to_end")
        self.assertTrue(all(m["value"] > 0 for m in result["metrics"].values()))

    def test_per_layer_names_match_declaration(self):
        result = self.check_run(1, "per_layer")
        metrics = result["metrics"]
        self.assertGreater(metrics["strata.codim.calls"]["value"], 0)
        self.assertGreater(metrics["rootsys.build_root_system.calls"]["value"], 0)


class PerturbedResult(unittest.TestCase):
    """A public function returning a wrong RatFun fails its cases and the command."""

    def test_perturbed_flat_series_fails(self):
        mods = cases.import_package()
        original = mods.cli.flat_series

        def perturbed(*args, **kwargs):
            return original(*args, **kwargs) + mods.exactalg.RatFun.t_power(1)

        def spawn_here(workload, seed, trace, deadline):
            rep = worker.run_cases(mods, workload, seed)
            rep.update(setup_s=1.0, peak_rss_mib=1.0, reference_s=1.0)
            return rep

        mods.cli.flat_series = perturbed
        saved_spawn, run.spawn = run.spawn, spawn_here
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                status = run.main(
                    ["--workload", "flat-engines", "--seed", "1", "--seconds", "0", "--trace", "0"]
                )
        finally:
            mods.cli.flat_series = original
            run.spawn = saved_spawn
        self.assertNotEqual(status, 0)
        result = json.loads(out.getvalue().splitlines()[-1])
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])
        self.assertIn("digest", out.getvalue())

    def test_engine_disagreement_fails(self):
        mods = cases.import_package()
        original = mods.closedforms.lr_general
        mods.closedforms.lr_general = lambda req: original(req) + mods.exactalg.RatFun.one()
        try:
            with contextlib.redirect_stderr(io.StringIO()):
                rep = worker.run_cases(mods, "flat-engines", 1)
        finally:
            mods.closedforms.lr_general = original
        self.assertTrue(all(c["error"] == "identity check failed" for c in rep["cases"]))


class Tracing(unittest.TestCase):
    def test_rebound_names_are_traced(self):
        # a fresh interpreter: installing the tracer rebinds the package's names
        script = f"""
import sys
sys.path[:0] = [{str(ROOT / 'src')!r}, {str(BENCH_DIR)!r}]
import cases, spans
mods = cases.import_package()
tracer = spans.Tracer()
spans.install(tracer, {{name: getattr(mods, name) for name in cases.MODULES}})
def called():
    print(__import__("json").dumps(tracer.calls), file=sys.stderr)
with __import__("contextlib").redirect_stdout(__import__("io").StringIO()):
    mods.cli.main(["verify-recursion", "--group", "u", "--rank", "2", "--genus", "2",
                   "--degree", "1", "--order", "10"])
    called()
    mods.cli.main(["poincare", "--group", "u", "--rank", "2", "--genus", "2",
                   "--engine", "specialized"])
    called()
    mods.cli.main(["poincare", "--group", "sp", "--rank", "2", "--genus", "2",
                   "--engine", "general"])
    called()
g = mods.rootsys.GroupSpec("sp", 2)
mods.levidata.dim_u_from_roots(g, mods.levidata.enumerate_parabolics(g)[1])
called()
"""
        proc = subprocess.run(
            [sys.executable, "-I", "-c", script], capture_output=True, text=True, timeout=120
        )
        self.assertEqual(proc.returncode, 0, proc.stderr)
        steps = [json.loads(line) for line in proc.stderr.splitlines()]
        # each name must be reached by the call that uses it, through the
        # binding named beside it
        expected = (
            ("closedforms.zagier_un", 0),  # strata.zagier_un
            ("strata.codim", 0),
            ("rootsys.build_root_system", 0),  # strata._root_system
            ("strata.verify_recursion", 0),  # cli.verify_recursion
            ("exactalg.Poly.__mul__", 0),
            ("exactalg.RatFun.__add__", 0),
            ("closedforms.flat_series", 1),  # cli.flat_series
            ("gaugeseries.bg_orientable", 1),  # closedforms.bg_orientable
            ("levidata.levi_profile", 2),  # closedforms.levi_profile
            ("rootsys.build_root_system", 3),  # levidata.build_root_system
        )
        for name, step in expected:
            before = steps[step - 1].get(name, 0) if step else 0
            self.assertGreater(steps[step].get(name, 0), before, name)


class Layout(unittest.TestCase):
    def test_fails_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(BENCH_DIR, Path(tmp) / "bench", ignore=shutil.ignore_patterns("__pycache__"))
            proc = bench_command("--workload", CHEAP, "--seed", "1", "--seconds", "1", cwd=tmp)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
