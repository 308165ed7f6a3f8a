"""Span tracing of the package's public functions, from outside the package.

``Tracer.install`` replaces every public function of the traced modules with
a wrapper at every place it is looked up: the defining module, each package
module that imported it by name, and any extra namespace given (the
benchmark's own).  A function bound only under its defining name would miss
inner calls, for example ``solve_lp`` looked up in ``reconfnet.segregated``
and ``solve_simplex`` looked up in ``reconfnet.evaluation``.

Spans (name, start, end, parent) are kept in memory.  A span's self time is
its duration minus the time its direct child spans cover; the process is
single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from pathlib import Path

TRACED_MODULES = (
    "workloads",
    "model",
    "lp.builder",
    "lp.linprog",
    "lp.decompose",
    "segregated",
    "evaluation",
    "paths",
    "maxflow",
    "baselines",
    "harness",
)


def layer_name(module: str, function: str) -> str:
    """``reconfnet.lp.builder.solve_lp`` -> ``lp.solve_lp``."""
    short = module.removeprefix("reconfnet.")
    return f"{short.split('.')[0]}.{function}"


def _solve_simplex(counters, result):
    counters["lp.solve_simplex.iterations"] += result.iterations
    counters["lp.solve_simplex.not_optimal"] += result.status.value != "optimal"


def _built(counters, problem):
    counters["lp.rows"] += len(problem.lp.rows)
    counters["lp.cols"] += problem.lp.num_vars
    counters["lp.nnz"] += sum(len(row.coeffs) for row in problem.lp.rows)


def _crash_basis(counters, hint):
    counters["lp.crash_basis.hits"] += hint is not None


def _decompose(counters, result):
    counters["lp.decompose_commodity.cycles_dropped"] += len(result[1])


def _solve_lp(counters, solution):
    counters["segregated.fractional_z"] += sum(1 for z in solution.z.values() if 0.0 < z < 1.0)


# Counts read off a call's result, once per outermost call of that name.
RESULT_HOOKS = {
    "lp.solve_simplex": _solve_simplex,
    "lp.build_mcrn_lp": _built,
    "lp.build_mcmf_lp": _built,
    "lp.crash_basis": _crash_basis,
    "lp.decompose_commodity": _decompose,
    "lp.solve_lp": _solve_lp,
}

COUNTERS = (
    "lp.solve_simplex.iterations",
    "lp.solve_simplex.not_optimal",
    "lp.rows",
    "lp.cols",
    "lp.nnz",
    "lp.crash_basis.hits",
    "lp.decompose_commodity.cycles_dropped",
    "segregated.fractional_z",
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.outermost: list[bool] = []
        self.errors: list[bool] = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack: list[int] = []
        self._depth: dict[str, int] = {}
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        depth = self._depth.get(name, 0)
        self.outermost.append(depth == 0)
        self._depth[name] = depth + 1
        self.ends.append(0.0)
        self.errors.append(False)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def _close(self, index: int, failed: bool) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()
        self._depth[self.names[index]] -= 1
        self.errors[index] = failed

    def span(self, name: str, call, *args, **kwargs):
        """Run ``call`` inside a span called ``name``."""
        index = self._open(name)
        try:
            result = call(*args, **kwargs)
        except BaseException:
            self._close(index, True)
            raise
        self._close(index, False)
        hook = RESULT_HOOKS.get(name)
        if hook is not None and self.outermost[index]:
            hook(self.counters, result)
        return result

    def _wrap(self, name: str, function):
        @functools.wraps(function)
        def traced(*args, **kwargs):
            return self.span(name, function, *args, **kwargs)

        return traced

    # -- installing ---------------------------------------------------------

    def install(self, extra_namespaces=()) -> None:
        targets = {}
        for short in TRACED_MODULES:
            module = sys.modules[f"reconfnet.{short}"]
            for attr, value in vars(module).items():
                if (
                    inspect.isfunction(value)
                    and value.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    targets[value] = self._wrap(layer_name(module.__name__, attr), value)
        namespaces = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "reconfnet"]
        namespaces += list(extra_namespaces)
        for namespace in namespaces:
            for attr, value in list(vars(namespace).items()):
                try:
                    wrapper = targets.get(value)
                except TypeError:  # unhashable module attribute
                    continue
                if wrapper is not None:
                    self._patched.append((namespace, attr, value))
                    setattr(namespace, attr, wrapper)

    def uninstall(self) -> None:
        for namespace, attr, original in reversed(self._patched):
            setattr(namespace, attr, original)
        self._patched.clear()

    # -- results ------------------------------------------------------------

    def layers(self) -> dict[str, dict[str, float]]:
        """Per span name: outermost calls, inclusive seconds, self seconds,
        and failed calls."""
        child_time = [0.0] * len(self.names)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                child_time[parent] += self.ends[index] - self.starts[index]
        out: dict[str, dict[str, float]] = {}
        for index, name in enumerate(self.names):
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "failed": 0})
            duration = self.ends[index] - self.starts[index]
            row["self_s"] += duration - child_time[index]
            row["failed"] += self.errors[index]
            if self.outermost[index]:
                row["calls"] += 1
                row["s"] += duration
        return out

    def write(self, path: Path) -> None:
        """Write every span as [name, start, end, parent] rows."""
        origin = self.starts[0] if self.starts else 0.0
        spans = [
            [name, round(start - origin, 9), round(end - origin, 9), parent]
            for name, start, end, parent in zip(self.names, self.starts, self.ends, self.parents)
        ]
        path.write_text(json.dumps({"columns": ["name", "start_s", "end_s", "parent"], "spans": spans}))
