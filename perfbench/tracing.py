"""Per-layer spans recorded from outside the program.

`Tracer.install()` replaces each hooked public function with a wrapper that
records one span per call: name, start, end, parent span and item id.  The
wrapper is bound in place of the original wherever a `process_duality.*`
module holds a reference to it, so calls through from-imports
(`polyhedra.cone_dd`, `certify.lp_solve`, ...) are seen as well.  Spans stay
in memory; `layer_metrics()` folds them into per-layer numbers and
`write_spans()` writes them out once the sample ends.

A hook whose module or function no longer exists is listed in
`Tracer.absent` and reports zeros instead of stopping the run.
"""

from __future__ import annotations

import gzip
import importlib
import sys
from array import array
from time import perf_counter_ns

PACKAGE = "process_duality"

# module -> hooked public functions
HOOKS = {
    "_kernel": ("pivot",),
    "exactlp": ("lp_solve", "strict_feasible"),
    "_dd": ("cone_dd",),
    "polyhedra": (
        "intersect_empty", "as_cells", "cone_structure", "polar_cone", "dd_convert",
    ),
    "model": ("upper_image_graph", "w0_cells", "slater_point"),
    "process": ("separator_cone", "lagrange_process"),
    "certify": (
        "minimal_frontier_points", "certify_multiplier", "classify_proper",
        "dual_image", "is_minimal", "is_weak_minimal",
    ),
    "problemfile": ("load_problem",),
}

HOOK_NAMES = tuple(f"{mod}.{fn}" for mod, fns in HOOKS.items() for fn in fns)

# Extra per-layer ratios and counts: (metric suffix, unit, better).
EXTRAS = {
    "exactlp.lp_solve": (
        ("optimal", "count", "lower"),
        ("infeasible", "count", "lower"),
        ("unbounded", "count", "lower"),
        ("distinct_frac", "ratio", "higher"),
        ("pivots_per_call", "pivots/call", "lower"),
    ),
    "exactlp.strict_feasible": (("feasible_frac", "ratio", "higher"),),
    "_dd.cone_dd": (
        ("distinct_frac", "ratio", "higher"),
        ("rows_in", "rows/call", "lower"),
        ("gens_out", "gens/call", "lower"),
    ),
    "polyhedra.intersect_empty": (
        ("empty_frac", "ratio", "higher"),
        ("lps_per_call", "lps/call", "lower"),
    ),
    "polyhedra.as_cells": (("cells_out", "cells/call", "lower"),),
}


def metric_prefix(hook: str) -> str:
    """Metric names must start with a letter: `_dd.cone_dd` -> `dd.cone_dd`."""
    return hook.lstrip("_")


def layer_metric_specs():
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = []
    for hook in HOOK_NAMES:
        prefix = metric_prefix(hook)
        specs += [
            (f"{prefix}.calls", "count", "lower"),
            (f"{prefix}.total_s", "s", "lower"),
            (f"{prefix}.self_s", "s", "lower"),
        ]
        specs += [(f"{prefix}.{name}", unit, better)
                  for name, unit, better in EXTRAS.get(hook, ())]
    specs.append(("trace.overhead", "ratio", "lower"))
    return specs


def _key_lp(args, kwargs):
    objective = args[0] if args else kwargs["objective"]
    system = args[1] if len(args) > 1 else kwargs["system"]
    sense = args[2] if len(args) > 2 else kwargs.get("sense", "min")
    return hash((tuple(objective), system, sense))


def _key_dd(args, kwargs):
    dim, ineq, eq = args[:3]
    return hash((dim, tuple(map(tuple, ineq)), tuple(map(tuple, eq))))


class Tracer:
    """Span recorder for one process; `enabled` gates recording."""

    def __init__(self):
        self.enabled = False
        self.item = -1
        self.absent: list[str] = []
        # one span per row, stored column-wise to keep a large trace small
        self.name = array("h")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.span_item = array("q")
        # time the tracer spends after a span ends (observers); it is kept
        # out of the parent's self time
        self.tail = array("q")
        self._stack: list[int] = []
        self._active: dict[int, int] = {}
        self._rebound: list[tuple[object, str, object]] = []
        self.counts: dict[str, int] = {}
        self.keys: dict[str, set] = {"exactlp.lp_solve": set(), "_dd.cone_dd": set()}

    # -- hooks -------------------------------------------------------------

    def install(self):
        """Wrap every hooked function and rebind each reference to it."""
        targets = {}
        for hook in HOOK_NAMES:
            mod_name, fn_name = hook.split(".")
            try:
                module = importlib.import_module(f"{PACKAGE}.{mod_name}")
            except ModuleNotFoundError as e:
                if e.name != f"{PACKAGE}.{mod_name}":
                    raise
                self.absent.append(hook)
                continue
            original = getattr(module, fn_name, None)
            if not callable(original):
                self.absent.append(hook)
                continue
            targets[id(original)] = self._wrap(HOOK_NAMES.index(hook), original)
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith(PACKAGE):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = targets.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._rebound.append((module, attr, value))
        return self

    def uninstall(self):
        for module, attr, original in reversed(self._rebound):
            setattr(module, attr, original)
        self._rebound.clear()

    def _wrap(self, nid: int, fn):
        hook = HOOK_NAMES[nid]
        observe = getattr(self, "_observe_" + hook.split(".")[1], None)
        stack, active = self._stack, self._active
        names, starts, ends = self.name, self.start, self.end
        parents, items, tails = self.parent, self.span_item, self.tail

        def traced(*args, **kwargs):
            # nested calls of the same function belong to the outer span
            if not self.enabled or active.get(nid):
                return fn(*args, **kwargs)
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            items.append(self.item)
            starts.append(0)
            ends.append(0)
            tails.append(0)
            stack.append(idx)
            active[nid] = 1
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                starts[idx] = t0
                ends[idx] = t1
                active[nid] = 0
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
                tails[idx] = perf_counter_ns() - t1
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", hook)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _count(self, key: str, n: int = 1):
        self.counts[key] = self.counts.get(key, 0) + n

    def _observe_lp_solve(self, args, kwargs, out):
        self._count("exactlp.lp_solve." + out.status.value)
        self.keys["exactlp.lp_solve"].add(_key_lp(args, kwargs))

    def _observe_strict_feasible(self, args, kwargs, out):
        self._count("exactlp.strict_feasible.feasible", int(bool(out.feasible)))

    def _observe_cone_dd(self, args, kwargs, out):
        self.keys["_dd.cone_dd"].add(_key_dd(args, kwargs))
        self._count("_dd.cone_dd.rows", len(args[1]) + len(args[2]))
        lines, rays = out
        self._count("_dd.cone_dd.gens", len(lines) + len(rays))

    def _observe_intersect_empty(self, args, kwargs, out):
        self._count("polyhedra.intersect_empty.empty", int(bool(out.empty)))

    def _observe_as_cells(self, args, kwargs, out):
        self._count("polyhedra.as_cells.cells", len(out))

    # -- results -----------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer metrics over every recorded span, keyed by metric name.
        `trace.overhead` needs an untraced run and is added by the caller."""
        n = len(self.name)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i] + self.tail[i]
        calls = [0] * len(HOOK_NAMES)
        total = [0] * len(HOOK_NAMES)
        self_ns = [0] * len(HOOK_NAMES)
        for i in range(n):
            nid = self.name[i]
            calls[nid] += 1
            total[nid] += dur[i]
            self_ns[nid] += dur[i] - child[i]
        idx = {hook: i for i, hook in enumerate(HOOK_NAMES)}
        ie, sf = idx["polyhedra.intersect_empty"], idx["exactlp.strict_feasible"]
        lp, dd = idx["exactlp.lp_solve"], idx["_dd.cone_dd"]
        # strict_feasible spans with an intersect_empty span above them
        lps_in_ie = 0
        for i in range(n):
            if self.name[i] != sf:
                continue
            p = self.parent[i]
            while p >= 0 and self.name[p] != ie:
                p = self.parent[p]
            lps_in_ie += p >= 0

        def ratio(a, b):
            return a / b if b else 0.0

        c = self.counts.get
        extras = {
            "exactlp.lp_solve.optimal": c("exactlp.lp_solve.optimal", 0),
            "exactlp.lp_solve.infeasible": c("exactlp.lp_solve.infeasible", 0),
            "exactlp.lp_solve.unbounded": c("exactlp.lp_solve.unbounded", 0),
            "exactlp.lp_solve.distinct_frac": ratio(
                len(self.keys["exactlp.lp_solve"]), calls[lp]),
            "exactlp.lp_solve.pivots_per_call": ratio(calls[idx["_kernel.pivot"]], calls[lp]),
            "exactlp.strict_feasible.feasible_frac": ratio(
                c("exactlp.strict_feasible.feasible", 0), calls[sf]),
            "_dd.cone_dd.distinct_frac": ratio(len(self.keys["_dd.cone_dd"]), calls[dd]),
            "_dd.cone_dd.rows_in": ratio(c("_dd.cone_dd.rows", 0), calls[dd]),
            "_dd.cone_dd.gens_out": ratio(c("_dd.cone_dd.gens", 0), calls[dd]),
            "polyhedra.intersect_empty.empty_frac": ratio(
                c("polyhedra.intersect_empty.empty", 0), calls[ie]),
            "polyhedra.intersect_empty.lps_per_call": ratio(lps_in_ie, calls[ie]),
            "polyhedra.as_cells.cells_out": ratio(
                c("polyhedra.as_cells.cells", 0), calls[idx["polyhedra.as_cells"]]),
        }
        values = {}
        for nid, hook in enumerate(HOOK_NAMES):
            prefix = metric_prefix(hook)
            values[f"{prefix}.calls"] = calls[nid]
            values[f"{prefix}.total_s"] = total[nid] / 1e9
            values[f"{prefix}.self_s"] = self_ns[nid] / 1e9
        for key, value in extras.items():
            values[metric_prefix(key)] = value
        return values

    def write_spans(self, path):
        """One tab-separated line per span: name, start_ns, end_ns, parent, item."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\titem\n")
            for i in range(len(self.name)):
                fh.write(
                    f"{HOOK_NAMES[self.name[i]]}\t{self.start[i]}\t{self.end[i]}"
                    f"\t{self.parent[i]}\t{self.span_item[i]}\n"
                )
