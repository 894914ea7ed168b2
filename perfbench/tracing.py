"""Per-layer tracing from outside the program.

The layers are framelab's modules.  Installing the tracer replaces each
public function of a layer, and every name another framelab module imported
from it, with a wrapper; uninstalling puts the originals back, so untraced
passes run the program untouched.  A wrapper opens a span only where a call
crosses into another layer: gabor calling core nests a core span under the
gabor span, while core calling core (or the bspline recursion) stays inside
the open span.  Spans are kept in memory and written out by the caller.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("core", "rdual", "extension", "gabor", "dilation", "bspline", "exponentials")


def _system_dim(args, kwargs):
    system = args[0] if args else kwargs["system"]
    return system.ambient_dim if system.count else 0


def _count_frame_bounds(counts, args, kwargs, result):
    counts["core.eig_n3"] += _system_dim(args, kwargs) ** 3


def _count_riesz_bounds(counts, args, kwargs, result):
    system = args[0] if args else kwargs["system"]
    counts["core.eig_n3"] += system.count ** 3


def _count_canonical_dual(counts, args, kwargs, result):
    mode = args[1] if len(args) > 1 else kwargs.get("mode", "full_space")
    if mode == "span":  # a second Hermitian problem (eigh); frame_bounds counts the first
        counts["core.eig_n3"] += _system_dim(args, kwargs) ** 3


def _count_lower_bound(counts, args, kwargs, result):
    dps = args[1] if len(args) > 1 else kwargs.get("dps")
    if dps is not None:
        lset = args[0] if args else kwargs["lset"]
        counts["exponentials.mp_eig_n3"] += lset.count ** 3


def _count_cell(counts, args, kwargs, cell):
    counts["bspline.cells"] += 1
    if cell.status != "undecided":
        counts["bspline.certified_cells"] += 1
    if "finite-section estimate" in cell.method:
        counts["bspline.estimate_cells"] += 1


#: counters taken from arguments or results on every call, nested or not
HOOKS = {
    ("core", "frame_bounds"): _count_frame_bounds,
    ("core", "riesz_bounds"): _count_riesz_bounds,
    ("core", "canonical_dual"): _count_canonical_dual,
    ("exponentials", "lower_bound"): _count_lower_bound,
    ("bspline", "classify_cell"): _count_cell,
}


def _input_bytes(args, kwargs):
    total = 0
    for value in list(args) + list(kwargs.values()):
        array = getattr(value, "vectors", value)
        total += getattr(array, "nbytes", 0)
    return total


class Tracer:
    """Spans (pass, op, id, parent, layer, name, start, end, raised) and counters."""

    def __init__(self, modules):
        self.spans = []
        self.counts = defaultdict(Counter)  # pass number -> counters
        self.active = False
        self.pass_no = 0
        self.op = 0
        self._stack = []
        self._next_id = 0
        self._patches = []
        self._wrappers = {}
        for layer, module in modules.items():
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not name.startswith("_")):
                    self._wrappers[id(obj)] = (obj, self._wrap(layer, name, obj))

    def _wrap(self, layer, name, fn):
        hook = HOOKS.get((layer, name))
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            if stack and stack[-1][0] == layer:
                result = fn(*args, **kwargs)
            else:
                counts = tracer.counts[tracer.pass_no]
                if layer == "core":
                    counts["core.input_bytes"] += _input_bytes(args, kwargs)
                span_id = tracer._next_id
                tracer._next_id += 1
                parent = stack[-1][1] if stack else None
                stack.append((layer, span_id))
                raised = True
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                    raised = False
                finally:
                    end = perf_counter()
                    stack.pop()
                    tracer.spans.append((tracer.pass_no, tracer.op, span_id, parent,
                                         layer, name, start, end, raised))
            if hook is not None:
                hook(tracer.counts[tracer.pass_no], args, kwargs, result)
            return result

        return traced

    def install(self):
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "framelab" and not mod_name.startswith("framelab."):
                continue
            for name, obj in list(vars(module).items()):
                entry = self._wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._patches.append((module, name, obj))
                    setattr(module, name, entry[1])

    def uninstall(self):
        for module, name, obj in self._patches:
            setattr(module, name, obj)
        self._patches = []

    def layer_metrics(self):
        """Per traced pass medians of calls, busy and self time, and counters."""
        child_time = Counter()
        for _, _, _, parent, _, _, start, end, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        per_pass = defaultdict(Counter)
        raised = Counter()
        for pass_no, _, span_id, _, layer, _, start, end, failed in self.spans:
            stats = per_pass[pass_no]
            stats[f"{layer}.calls"] += 1
            stats[f"{layer}.busy_s"] += end - start
            stats[f"{layer}.self_s"] += end - start - child_time[span_id]
            raised[layer] += failed
        passes = sorted(set(per_pass) | set(self.counts))
        for pass_no in passes:
            per_pass[pass_no].update(self.counts[pass_no])

        def median(key):
            return statistics.median(per_pass[p][key] for p in passes) if passes else 0.0

        metrics = {}
        for layer in LAYERS:
            for key in ("calls", "busy_s", "self_s"):
                metrics[f"{layer}.{key}"] = median(f"{layer}.{key}")
        metrics["core.eig_n3"] = median("core.eig_n3")
        metrics["core.input_mb"] = median("core.input_bytes") / 1e6
        metrics["exponentials.mp_eig_n3"] = median("exponentials.mp_eig_n3")
        cells = median("bspline.cells")
        metrics["bspline.certified_frac"] = median("bspline.certified_cells") / cells if cells else 0.0
        metrics["bspline.estimate_cells"] = median("bspline.estimate_cells")
        metrics["trace.spans"] = len(self.spans) / len(passes) if passes else 0.0
        return metrics, raised

    def write(self, path, header):
        """One JSON line of run information, then one line per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            keys = ("pass", "op", "id", "parent", "layer", "name", "start", "end", "raised")
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
