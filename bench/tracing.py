"""Per-layer tracing of bbcells, installed from outside the package.

`Tracer.install()` replaces public functions on the bbcells modules (for
example `bbcells.lattice.kempf_vector`) with wrappers that record a span:
layer, start, end and the index of the enclosing span.  Library code calls
across modules through these attributes, and within a module through its
globals, which are the same attributes, so spans nest and a layer's self
time is its span time minus the time covered by its child spans.  Spans are
kept in memory in flat arrays and written out by `write()` after the run.
"""

import json
from array import array
from time import perf_counter_ns

# layer name -> (module, public functions).  Helpers called once per monomial
# or per entry (weight_of, primitive, transpose) stay unwrapped: their time is
# self time of the layer that calls them.
LAYERS = {
    "intlinalg": ("intlinalg", ("row_hermite", "kernel_basis", "smith")),
    "polyhedra": ("polyhedra", ("eliminate_variable", "is_feasible", "implies",
                                "cone_inequalities")),
    "lattice.cone": ("lattice", ("cone_from_generators", "contains", "units", "has_zero")),
    "lattice.kempf": ("lattice", ("kempf_vector",)),
    "lattice.reduce": ("lattice", ("reduce_to_zero",)),
    "algebra.truncate": ("algebra", ("truncate",)),
    "algebra.graded_dimension": ("algebra", ("graded_dimension",)),
    "algebra.count": ("algebra", ("stabilization_check", "algebraize_check")),
    "algebra.present": ("algebra", ("bb_plus", "fixed_locus", "open_immersion_check",
                                    "outsider_variables", "check_homogeneous")),
    "polyparse": ("polyparse", ("parse_polynomial", "print_polynomial")),
    "hilb.linalg": ("hilb", ("tangent_character_linalg",)),
    "hilb.armleg": ("hilb", ("tangent_character_armleg",)),
    "hilb.cells": ("hilb", ("cell_dimension", "intersection_dimension",
                            "poincare_histogram", "is_generic")),
    "hilb.partitions": ("hilb", ("partitions", "ideal_from_partition")),
    "cli": ("cli", ("main",)),
}


class Tracer:
    """Records spans and the layer counters that need call arguments."""

    def __init__(self, package):
        self.package = package
        self.names = list(LAYERS)
        self.layer = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.stack = [-1]
        self.counters = {"fm_constraints": 0, "feasibility_tests": 0,
                         "count_monomials": 0, "kempf_distinct": 0,
                         "count_distinct": 0}
        self._round_keys = {"kempf": set(), "count": set()}
        self._saved = []

    def new_round(self):
        """Distinct-input ratios are taken within a round: every round
        repeats the batch, so counting across rounds would only measure
        the number of rounds."""
        for keys in self._round_keys.values():
            keys.clear()

    def _observe(self, fname, args, result):
        c = self.counters
        if fname == "eliminate_variable":
            c["fm_constraints"] += len(result)
        elif fname == "is_feasible":
            c["feasibility_tests"] += 1
        elif fname == "kempf_vector":
            self._distinct("kempf", args[0], "kempf_distinct")
        elif fname == "truncate":
            c["count_monomials"] += sum(result.values())
            self._distinct("count", (args[0], args[2]), "count_distinct")

    def _distinct(self, kind, key, counter):
        keys = self._round_keys[kind]
        if key not in keys:
            keys.add(key)
            self.counters[counter] += 1

    def _wrap(self, layer_id, fname, fn):
        tracer = self

        def traced(*args, **kwargs):
            index = len(tracer.start)
            tracer.layer.append(layer_id)
            tracer.parent.append(tracer.stack[-1])
            tracer.start.append(perf_counter_ns())
            tracer.end.append(0)
            tracer.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[index] = perf_counter_ns()
                tracer.stack.pop()
            tracer._observe(fname, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for layer_id, name in enumerate(self.names):
            module_name, functions = LAYERS[name]
            module = getattr(self.package, module_name)
            for fname in functions:
                fn = getattr(module, fname)
                self._saved.append((module, fname, fn))
                setattr(module, fname, self._wrap(layer_id, fname, fn))

    def uninstall(self):
        for module, fname, fn in reversed(self._saved):
            setattr(module, fname, fn)
        self._saved.clear()

    def span_count(self):
        return len(self.start)

    def layer_totals(self):
        """{layer: (calls, self_ns)}; self time is span time minus the
        time covered by direct child spans."""
        n = len(self.start)
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for i in range(n):
            lid = self.layer[i]
            calls[lid] += 1
            self_ns[lid] += self.end[i] - self.start[i] - child[i]
        return {name: (calls[i], self_ns[i]) for i, name in enumerate(self.names)}

    def write(self, path, extra):
        """Layer table plus every span as [layer, start_ns, end_ns, parent]."""
        spans = [[self.layer[i], self.start[i], self.end[i], self.parent[i]]
                 for i in range(len(self.start))]
        doc = dict(extra, layers=self.names, spans=spans)
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
