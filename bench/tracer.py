"""Per-layer tracing by wrappers around the public functions of each module.

``install`` wraps every public function of every layer module, and every
public method (plus ``__contains__``) of the classes they define, then
rebinds each wrapper in every namespace of the package that binds the
original: ``classify`` imports ``betti_elements`` by name, ``explore``
imports ``make_semigroup``, and so on, and a call through such a name
must be seen too.  Methods are patched on the class.  Nothing under
``src/`` changes; only the traced worker process calls ``install``.

Each wrapped call is a frame on a stack.  A layer's self time is the
time its frames are on top of the stack: a frame's duration minus the
durations of the frames it called.  A call whose caller is in another
layer (or is the benchmark itself) crosses a layer boundary: it counts
in ``<layer>.calls`` and, while ``log_spans`` is on, is logged as a span
(parent span, function, start, end).  Spans stay in memory until
``write_spans``.  Calls inside a layer are counted per function but not
logged, which keeps the log small under millions of membership queries.
"""

import gzip
import importlib
import inspect
import sys
import time
from array import array

LAYERS = ("semigroup", "factor", "betti", "isolated", "constants",
          "classify", "construct", "explore", "linalg", "cli")

# per-layer metric -> function whose outermost calls it times
INCLUSIVE = {
    "semigroup.apery_s": "semigroup.Semigroup.apery",
    "classify.check_equivalence_theorems_s":
        "classify.check_equivalence_theorems",
    "classify.verify_bounds_s": "classify.verify_bounds",
    "classify.classification_report_s": "classify.classification_report",
    "isolated.minimal_multi_elements_s": "isolated.minimal_multi_elements",
    "isolated.isolated_profile_s": "isolated.isolated_profile",
    "betti.betti_elements_s": "betti.betti_elements",
    "explore.enumerate_s": "explore.enumerate_numerical_by_genus",
    "explore.search_s": "explore.min_frobenius_betti_divisible",
}
CONTAINS = ("semigroup.Semigroup.contains", "semigroup.SubMonoid.contains")
FIBER = "factor.fiber"
RAW_FIBER = "factor.raw_fiber"
BETTI = "betti.betti_elements"


class Tracer:
    def __init__(self):
        self.names = []          # function id -> "layer.qualname"
        self.fid = {}            # "layer.qualname" -> function id
        self.stack = []          # frames: [fid, layer, child_s, span]
        self.log_spans = True
        self.span_parent = array("q")
        self.span_fid = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.reset()

    def reset(self):
        """Zero every counter and timer; logged spans are kept."""
        n = len(self.names)
        self.calls = [0] * n
        self.inclusive_s = [0.0] * n
        self.depth = [0] * n
        self.self_s = [0.0] * len(LAYERS)
        self.layer_calls = [0] * len(LAYERS)
        self.fiber_misses = 0
        self.factorizations = 0
        self.betti_found = 0

    def _register(self, name):
        self.fid[name] = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.depth.append(0)
        self.inclusive_s.append(0.0)
        return self.fid[name]

    def wrap(self, fn, name, layer):
        fid = self._register(name)
        tracer = self
        stack = self.stack
        clock = time.perf_counter
        is_raw_fiber = name == RAW_FIBER
        is_betti = name == BETTI

        def wrapper(*args, **kwargs):
            tracer.calls[fid] += 1
            parent = stack[-1] if stack else None
            span = -1
            if parent is None or parent[1] != layer:
                tracer.layer_calls[layer] += 1
                if tracer.log_spans:
                    span = len(tracer.span_fid)
                    tracer.span_parent.append(parent[3] if parent else -1)
                    tracer.span_fid.append(fid)
                    tracer.span_start.append(0.0)
                    tracer.span_end.append(0.0)
            frame = [fid, layer, 0.0,
                     span if span >= 0 else parent[3] if parent else -1]
            stack.append(frame)
            tracer.depth[fid] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                tracer.depth[fid] -= 1
                dur = t1 - t0
                tracer.self_s[layer] += dur - frame[2]
                if parent is not None:
                    parent[2] += dur
                if not tracer.depth[fid]:
                    tracer.inclusive_s[fid] += dur
                if span >= 0:
                    tracer.span_start[span] = t0
                    tracer.span_end[span] = t1
            if is_raw_fiber:
                tracer.factorizations += len(result)
                if parent is not None and tracer.names[parent[0]] == FIBER:
                    tracer.fiber_misses += 1
            elif is_betti:
                tracer.betti_found += len(result.betti)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def count(self, name):
        fid = self.fid.get(name)
        return 0 if fid is None else self.calls[fid]

    def metrics(self):
        """The per-layer metrics of everything traced since ``reset``."""
        out = {}
        for i, layer in enumerate(LAYERS):
            out[f"{layer}.self_s"] = self.self_s[i]
            out[f"{layer}.calls"] = self.layer_calls[i]
        fiber_calls = self.count(FIBER)
        out["factor.fiber_calls"] = fiber_calls
        out["factor.raw_fiber_calls"] = self.count(RAW_FIBER)
        out["factor.fiber_hit_ratio"] = (
            (fiber_calls - self.fiber_misses) / fiber_calls
            if fiber_calls else 0.0)
        out["factor.factorizations"] = self.factorizations
        out["semigroup.contains_calls"] = sum(self.count(n) for n in CONTAINS)
        out["semigroup.make_semigroup_calls"] = self.count(
            "semigroup.make_semigroup")
        out["betti.betti_found"] = self.betti_found
        for metric, name in INCLUSIVE.items():
            fid = self.fid.get(name)
            out[metric] = 0.0 if fid is None else self.inclusive_s[fid]
        return out

    def call_counts(self):
        return {name: self.calls[i] for i, name in enumerate(self.names)
                if self.calls[i]}

    def write_spans(self, path):
        """Write the logged spans as gzipped CSV, one span a line; times are
        perf_counter seconds, parent -1 marks a call from the benchmark."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span,parent,function,start_s,end_s\n")
            names = self.names
            for i in range(len(self.span_fid)):
                fh.write(f"{i},{self.span_parent[i]},"
                         f"{names[self.span_fid[i]]},"
                         f"{self.span_start[i]:.9f},{self.span_end[i]:.9f}\n")
        return len(self.span_fid)


def _public_methods(cls):
    for name, obj in vars(cls).items():
        if inspect.isfunction(obj) and (not name.startswith("_")
                                        or name == "__contains__"):
            yield name, obj


def install(tracer):
    """Wrap the public functions of every layer module and rebind the
    wrappers wherever the package binds the originals; return the tracer."""
    wrappers = {}  # id(original) -> wrapper, which keeps the original alive
    for layer, name in enumerate(LAYERS):
        mod = importlib.import_module(f"semigroups.{name}")
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) \
                    != mod.__name__:
                continue
            if inspect.isfunction(obj):
                wrappers[id(obj)] = tracer.wrap(obj, f"{name}.{attr}", layer)
            elif inspect.isclass(obj):
                for mname, meth in list(_public_methods(obj)):
                    setattr(obj, mname, tracer.wrap(
                        meth, f"{name}.{obj.__name__}.{mname}", layer))
    for modname, ns in list(sys.modules.items()):
        if modname == "semigroups" or modname.startswith("semigroups."):
            for attr, obj in list(vars(ns).items()):
                if id(obj) in wrappers:
                    setattr(ns, attr, wrappers[id(obj)])
    return tracer
