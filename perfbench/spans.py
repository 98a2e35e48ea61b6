"""Outside-in span recorder for the traced benchmark run.

The library is not instrumented. Instead, each public function is wrapped in
the namespace of the module that calls it: ``from .x import f`` binds ``f``
in the caller's globals, and Python looks that name up at call time, so
rebinding it there intercepts every call the caller makes. A span records
the case it belongs to, its name, its parent span and its start and end.
Self time is a span's duration minus the time its child spans cover; the
bookkeeping of a child span is counted as covered, so tracer cost lands in
no layer's self time.
"""

import json
import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.case = None
        self.spans = []
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self._stack = []
        self._saved = []

    def wrap(self, module, attr, name, after=None):
        """Rebind module.attr to a traced wrapper.

        name is a span name, or a callable mapping the parent span name to
        one. after(span name, args, result) runs outside the span.
        """
        fn = getattr(module, attr)
        stack = self._stack
        now = time.perf_counter

        def traced(*args, **kwargs):
            t_enter = now()
            parent = stack[-1][0] if stack else None
            label = name(parent) if callable(name) else name
            frame = [label, 0.0]
            stack.append(frame)
            returned = False
            t0 = now()
            try:
                result = fn(*args, **kwargs)
                returned = True
            finally:
                t1 = now()
                stack.pop()
                self.self_s[label] += (t1 - t0) - frame[1]
                self.calls[label] += 1
                self.spans.append((self.case, label, parent, t0, t1))
                if returned and after is not None:
                    after(label, args, result)
                if stack:
                    stack[-1][1] += now() - t_enter
            return result

        setattr(module, attr, traced)
        self._saved.append((module, attr, fn))

    def restore(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def write(self, path):
        """Write every span as one JSON line: case, name, parent, start, end."""
        with open(path, "w") as f:
            for case, label, parent, t0, t1 in self.spans:
                f.write(json.dumps([case, label, parent, t0, t1]) + "\n")


_RANK_BY_CALLER = {
    "oracle.assemble": "linalg.rank_oracle",
    "levels.all_levels": "linalg.rank_topology",
    "graded.power_sum_in": "linalg.rank_graded",
}


def install(tracer):
    """Wrap the tmeshdim call sites every workload goes through.

    ``tmeshdim.bounds`` resolves to the function the package re-exports, so
    the modules are fetched from sys.modules.
    """
    mods = {name: sys.modules["tmeshdim." + name]
            for name in ("meshfile", "bounds", "segments", "levels",
                         "oracle")}
    meshfile, bounds, segments = (mods["meshfile"], mods["bounds"],
                                  mods["segments"])
    counts = tracer.counts
    w = tracer.wrap

    w(meshfile, "parse_mesh_dict", "meshfile.parse")
    for fn in ("build_tmesh", "build_profile", "build_smoothness"):
        w(meshfile, fn, "mesh." + fn)

    w(bounds, "bounds", "bounds.bounds")
    w(bounds, "certify_stable", "bounds.certify")
    w(bounds, "euler_characteristic", "bounds.euler")
    w(bounds, "configuration1_holds", "bounds.config1")
    w(bounds, "all_levels", "levels.all_levels")
    w(bounds, "analyze_segments", "segments.analyze")
    w(bounds, "order_segments", "segments.order")
    for mod in (bounds, segments):
        w(mod, "contribution_sets", "segments.contribution_sets")

    def upper_name(parent):
        if parent == "segments.order":
            counts["segments.orderings_tried"] += 1
        return "segments.h0_ideal_upper"

    for mod in (bounds, segments):
        w(mod, "h0_ideal_upper", upper_name)
    w(segments, "dim_power_sum_in", "graded.power_sum_in")

    def oracle_done(label, args, result):
        counts["oracle.dimension"] += result

    # bounds() imports oracle_spline_dim from the oracle module at call time
    w(mods["oracle"], "oracle_spline_dim", "oracle.assemble",
      after=oracle_done)

    def rank_name(parent):
        return _RANK_BY_CALLER.get(parent, "linalg.rank_other")

    def rank_done(label, args, result):
        rows = args[0]
        counts[label + "_rows"] += len(rows)
        counts[label + "_nnz"] += sum(len(r) for r in rows)
        counts[label + "_rank"] += result

    for mod in (mods["levels"], mods["oracle"]):
        w(mod, "rank_sparse", rank_name, after=rank_done)
