"""Span tracer that wraps the public functions of every ymseries layer.

Nothing under src/ is edited: `install` replaces module attributes, the
arithmetic operator methods of Poly and RatFun, and every name another
module bound to the same object with `from ... import` (including
`strata._root_system`, an lru_cache around `rootsys.build_root_system`).
It must run before the first call into the package so that every
lru_cache starts empty, as it does in a fresh CLI process.

Each span records its name, start, end, parent span and the case it ran
under (the run id of one case of the workload).  Spans are kept in flat
arrays in memory and written once, by `write`, after the run.  A layer's
self time is its spans' durations minus the part covered by wrapped child
spans; the harness's own checks run with the tracer disabled.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from array import array
from collections import Counter, defaultdict

# Operator methods of the two value classes; __sub__ and __truediv__ reach
# __add__ and __mul__ through the wrapped operators, so they nest.
OPERATORS = {
    "Poly": ("__add__", "__sub__", "__neg__", "__mul__", "__pow__"),
    "RatFun": ("__add__", "__sub__", "__neg__", "__mul__", "__truediv__"),
}

ROOT = "bench"


class Tracer:
    def __init__(self):
        self.enabled = True
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one entry per span, parallel arrays
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_case = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.cases: list[str] = []
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        # frame: [span index, time covered by children, layer]
        self._stack = [[-1, 0.0, ROOT]]
        self._case = -1
        self.layers: tuple = ()
        self.gcd_nontrivial = 0
        self.root_system_groups: set = set()
        self.points_found = 0
        self.result_max_degree = 0
        self.result_max_coeff_bits = 0

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def begin_case(self, label: str):
        self.cases.append(label)
        self._case = len(self.cases) - 1

    def wrap(self, name: str, fn):
        """A callable that records one span per call of fn under `name`."""
        name_id = self._name_id(name)
        layer = name.split(".", 1)[0]
        hook = HOOKS.get(name)
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = len(tracer.span_name)
            parent = stack[-1]
            tracer.span_name.append(name_id)
            tracer.span_parent.append(parent[0])
            tracer.span_case.append(tracer._case)
            tracer.span_start.append(0.0)
            tracer.span_end.append(0.0)
            frame = [idx, 0.0, layer]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent[1] += duration
                tracer.self_s[name] += duration - frame[1]
                tracer.calls[name] += 1
                tracer.span_start[idx] = start
                tracer.span_end[idx] = end
            if hook is not None or parent[2] != "exactalg":
                # bookkeeping on the result; its cost is kept out of the
                # parent's self time
                t0 = clock()
                if hook is not None:
                    hook(tracer, args, result)
                if parent[2] != "exactalg":
                    tracer._note_size(result)
                parent[1] += clock() - t0
            return result

        return traced

    def _note_size(self, value):
        polys = ()
        if type(value).__name__ == "RatFun":
            polys = (value.num, value.den)
        elif type(value).__name__ == "Poly":
            polys = (value,)
        for p in polys:
            cs = p.coeffs
            if len(cs) - 1 > self.result_max_degree:
                self.result_max_degree = len(cs) - 1
            bits = max((abs(c).bit_length() for c in cs), default=0)
            if bits > self.result_max_coeff_bits:
                self.result_max_coeff_bits = bits

    def layer_self_s(self) -> dict:
        out = {layer: 0.0 for layer in self.layers}
        for name, s in self.self_s.items():
            out[name.split(".", 1)[0]] += s
        return out

    def write(self, path, run_id: str, meta: dict):
        """Write every span once, as parallel columns, to a JSON file."""
        doc = {
            "run_id": run_id,
            "meta": meta,
            "names": self.names,
            "cases": self.cases,
            "spans": {
                "name": self.span_name.tolist(),
                "start": self.span_start.tolist(),
                "end": self.span_end.tolist(),
                "parent": self.span_parent.tolist(),
                "case": self.span_case.tolist(),
            },
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _hook_gcd(tracer, args, result):
    if result.degree > 0:
        tracer.gcd_nontrivial += 1


def _hook_build_root_system(tracer, args, result):
    tracer.root_system_groups.add(args[0])


def _hook_enumerate_ab_points(tracer, args, result):
    tracer.points_found += len(result)


# counters taken from a span's arguments and result
HOOKS = {
    "exactalg.poly_gcd": _hook_gcd,
    "rootsys.build_root_system": _hook_build_root_system,
    "strata.enumerate_ab_points": _hook_enumerate_ab_points,
}


def install(tracer: Tracer, modules: dict):
    """Wrap every public function of the given {layer: module} map."""
    tracer.layers = tuple(modules)
    wrapped = {}  # id(original) -> (original, wrapper)
    for layer, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj) or hasattr(obj, "cache_info"):
                w = tracer.wrap(f"{layer}.{attr}", obj)
                wrapped[id(obj)] = (obj, w)
                setattr(mod, attr, w)
            elif inspect.isclass(obj) and attr in OPERATORS:
                for op in OPERATORS[attr]:
                    setattr(obj, op, tracer.wrap(f"{layer}.{attr}.{op}", obj.__dict__[op]))
    # names bound elsewhere by `from ... import`, and caches built around
    # a wrapped function
    for mod in modules.values():
        for attr, obj in list(vars(mod).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])
                continue
            inner = getattr(obj, "__wrapped__", None)
            hit = wrapped.get(id(inner)) if inner is not None else None
            if hit is not None and hit[0] is inner and hasattr(obj, "cache_info"):
                maxsize = obj.cache_parameters()["maxsize"]
                setattr(mod, attr, functools.lru_cache(maxsize=maxsize)(hit[1]))
