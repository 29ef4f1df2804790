"""Outside-in tracer: wraps pencilab's public functions from the benchmark.

Each traced function is replaced at every module binding through which
pencilab reaches it (the defining module, the package namespace, and every
module that imported the name), so calls from inside the library are seen
as well as calls from the benchmark.  Each call records a span (function,
parent span, start, end) in compact arrays held in memory; self time is a
span's duration minus that of its child spans.  `restore` puts the
original functions back.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter

# Layer -> traced functions, in the order they are reported.
LAYERS = {
    "pencil": ("eval_symbol", "check_lemma21", "remark22_checks", "tau_roots",
               "poly_roots", "group_roots", "cluster_roots",
               "check_regular_degeneration"),
    "halfline": ("solve", "solve_from_roots", "l2_norm_deriv",
                 "boundary_defect", "split_by_group", "homogeneity_check"),
    "weights": ("xi_product_eval", "xi_sum_eval", "trace_weight_quadrature",
                "lemma32_integral"),
    "polygon": ("build_polygon",),
    "verify": ("sweep_polygon_equivalence", "sweep_trace_equivalence",
               "sweep_theorem41", "sweep_group_asymptotics",
               "sweep_multiplier_rn", "sweep_halfspace_ratio",
               "refinement_drift", "write_csv"),
    "cli": ("run",),
}

TRACED = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)


class Tracer:
    def __init__(self):
        self.fid = {name: i for i, name in enumerate(TRACED)}
        self.span_fid = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = []
        self.raised = Counter()          # (function, exception type) -> count
        self.counts = Counter()          # read from returned objects
        self.bindings = []               # (module, attribute, original)

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "pencilab"
                                         or name.startswith("pencilab."))]
        for name in TRACED:
            layer, fn = name.split(".")
            original = getattr(sys.modules[f"pencilab.{layer}"], fn)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self.bindings.append((mod, attr, original))

    def restore(self) -> None:
        for mod, attr, original in reversed(self.bindings):
            setattr(mod, attr, original)
        self.bindings.clear()

    def _wrap(self, name, fn):
        fid = self.fid[name]
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)
        stack, fids, parents = self.stack, self.span_fid, self.span_parent
        starts, ends, clock = self.span_start, self.span_end, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            fids.append(fid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.raised[name, type(exc).__name__] += 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(result)
            return result

        return wrapper

    def _observe_pencil_group_roots(self, grouping) -> None:
        self.counts["pencil.ambiguous_groupings"] += bool(grouping.ambiguous)

    def _observe_halfline_solve_from_roots(self, sols) -> None:
        self.counts["halfline.solutions"] += len(sols)
        self.counts["halfline.fallbacks"] += sum(bool(s.fallback) for s in sols)
        self.counts["halfline.clustered"] += sum(len(s.terms) < len(s.roots)
                                                 for s in sols)

    def per_function(self) -> dict:
        """{name: (calls, self seconds)} for every traced function."""
        n = len(self.span_start)
        child = array("d", bytes(8 * n))
        calls = [0] * len(TRACED)
        self_s = [0.0] * len(TRACED)
        # Children are recorded after their parent, so walking backwards
        # completes each span's child total before the span itself is read.
        for i in range(n - 1, -1, -1):
            dur = self.span_end[i] - self.span_start[i]
            f = self.span_fid[i]
            calls[f] += 1
            self_s[f] += dur - child[i]
            parent = self.span_parent[i]
            if parent >= 0:
                child[parent] += dur
        return {name: (calls[i], self_s[i]) for i, name in enumerate(TRACED)}
