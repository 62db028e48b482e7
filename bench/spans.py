"""In-memory spans around the program's layers, installed from the
benchmark process only; the package source is not touched.

Each call into a wrapped function records one span: name, start, end,
parent span and invocation id.  Wrapping rebinds the function in every
`plateforces` module namespace that holds it, so calls from one layer
into another are caught wherever the name was imported.

The layers are the modules named in LAYERS.  Their public functions,
the public methods of their classes, `ResultTable.__init__` and
`cli._write` are wrapped.  Functions in PER_ELEMENT run once per grid
point or per value inside a kernel loop; a span each would cost more
than the work, so they are left bare and their work is counted at the
enclosing boundary instead (see COUNTERS).
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("config", "casimir", "gravity", "budget", "balance", "exclusion", "tables", "cli")
PER_ELEMENT = {"exclusion.alpha_bound", "gravity.yukawa_thickness_bracket", "tables.format_float"}
EXTRA = {"tables.ResultTable.__init__", "cli._write"}
# Never called by the command line; wrapping it would only trace the checker.
SKIP = {"tables.ResultTable.from_csv"}

# Work counted at a boundary: span name -> f(args, result) -> {counter: amount}.
COUNTERS = {
    "config.ingest_prior_bounds": lambda args, result: {"config.prior_rows": len(result.lambdas)},
    "exclusion.exclusion_scan": lambda args, result: {
        "exclusion.alpha_evals": sum(len(curve.alphas) for curve in result)
    },
    "tables.ResultTable.to_csv": lambda args, result: {
        "tables.bytes_out": len(result),  # the CSV is ASCII
        "tables.values_out": len(args[0].rows) * len(args[0].columns),
    },
}


class Tracer:
    """Spans of one benchmark run, kept in memory until written out."""

    def __init__(self) -> None:
        # span: [name, start, end, parent index or -1, invocation, raised]
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.invocation = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.invocation, False]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                for key, amount in counter(args, result).items():
                    counts[key] += amount
            return result

        return traced

    def install(self) -> None:
        """Wrap the layers' functions and methods in every loaded
        `plateforces` module.  `uninstall` undoes it."""
        modules = {name: sys.modules[f"plateforces.{name}"] for name in LAYERS}
        wrapped = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    name = f"{layer}.{attr}"
                    if (not attr.startswith("_") or name in EXTRA) and name not in PER_ELEMENT:
                        wrapped[obj] = self.wrap(name, obj)
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    for meth, fn in vars(obj).items():
                        name = f"{layer}.{attr}.{meth}"
                        if inspect.isfunction(fn) and name not in SKIP and (not meth.startswith("_") or name in EXTRA):
                            self._set(obj, meth, self.wrap(name, fn))
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "plateforces" or mod_name.startswith("plateforces."):
                for attr, obj in list(vars(module).items()):
                    if inspect.isfunction(obj) and obj in wrapped:
                        self._set(module, attr, wrapped[obj])

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


def summarize(spans: list[list]) -> dict:
    """Per-span-name inclusive and self time, call and error counts.

    Self time is a span's duration minus the durations of its direct
    children.  Spans nest strictly (one thread), so the self times of
    all spans add up to the summed duration of the root spans.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    by_name: dict[str, dict[str, float]] = defaultdict(lambda: {"total": 0.0, "self": 0.0, "calls": 0, "errors": 0})
    root_time = 0.0
    for i, (name, start, end, parent, _, raised) in enumerate(spans):
        entry = by_name[name]
        entry["total"] += end - start
        entry["self"] += end - start - child_time[i]
        entry["calls"] += 1
        entry["errors"] += raised
        if parent < 0:
            root_time += end - start
    return {"by_name": dict(by_name), "root_time": root_time}
