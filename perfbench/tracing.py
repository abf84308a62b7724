"""Layer spans for the traced benchmark pass.

The wrappers are installed from the benchmark's side: every public function
named in LAYERS is replaced, at every place a chainops module binds it, by a
wrapper that records one span per call (name, start, end, parent span) and
the counters listed with it.  Spans are kept in memory and written out when
the pass ends.  Nothing under src/ is modified.
"""

import json
import sys
import time

from workloads import report_counts

# (span name, module, attribute) -- an attribute "Class.method" wraps the
# method on the class.  Two entries may share a span name.
LAYERS = (
    ("boxprod.enumerate_symbols", "chainops.boxprod", "enumerate_symbols"),
    ("boxprod.box_basis", "chainops.boxprod", "box_basis"),
    ("boxprod.t_boundary", "chainops.boxprod", "t_boundary"),
    ("boxprod.ker_expand", "chainops.boxprod", "ker_expand"),
    ("boxprod.apply_tuple", "chainops.boxprod", "apply_tuple"),
    ("boxprod.flatten", "chainops.boxprod", "flatten"),
    ("boxprod.box_functorial_map", "chainops.boxprod", "box_functorial_map"),
    ("boxprod.box_cosimplicial", "chainops.boxprod", "box_cosimplicial"),
    ("operads.assemble", "chainops.operads", "symbol_complex"),
    ("operads.assemble", "chainops.operads", "level_truncated_complex"),
    ("operads.gamma_substitution", "chainops.operads", "gamma_substitution"),
    ("operads.gamma_matrix", "chainops.operads", "gamma_matrix"),
    ("operads.verify", "chainops.operads", "verify_operad_axioms"),
    ("complexes.reduced_homology", "chainops.complexes", "reduced_homology"),
    ("complexes.homology", "chainops.complexes", "GradedIntComplex.homology"),
    ("complexes.construct", "chainops.complexes",
     "GradedIntComplex.check_dd_zero"),
    ("intmat.snf", "chainops.intmat", "smith_normal_form"),
    ("intmat.snf", "chainops.intmat", "snf_diagonal"),
    ("intmat.solve", "chainops.intmat", "solve"),
    ("intmat.kernel_basis", "chainops.intmat", "kernel_basis"),
    ("cosimplicial.conormalize_kernel", "chainops.cosimplicial",
     "conormalize_kernel"),
    ("cosimplicial.conormalize_cokernel", "chainops.cosimplicial",
     "conormalize_cokernel"),
    ("cosimplicial.conormalize_bicomplex", "chainops.cosimplicial",
     "conormalize_bicomplex"),
    ("simplicial.dual_cosimplicial", "chainops.simplicial",
     "FiniteSimplicialSet.dual_cosimplicial"),
    ("simplicial.restrict", "chainops.simplicial",
     "FiniteSimplicialSet.restrict"),
    ("cochain_ops.angle", "chainops.cochain_ops",
     "AugmentedCochainSystem.angle"),
    ("cochain_ops.pushforward", "chainops.cochain_ops",
     "AugmentedCochainSystem.pushforward"),
    ("cochain_ops.verify", "chainops.cochain_ops", "verify_identities"),
    ("hochschild.differential", "chainops.hochschild",
     "hochschild_differential"),
    ("hochschild.differential_matrix", "chainops.hochschild",
     "differential_matrix"),
    ("hochschild.modp_eliminate", "chainops.hochschild", "modp_eliminate"),
    ("hochschild.cup", "chainops.hochschild", "hochschild_cup"),
    ("hochschild.bracket", "chainops.hochschild", "gerstenhaber_bracket"),
    ("hochschild.verify", "chainops.hochschild", "gerstenhaber_report"),
    ("cubes.gamma_cubes", "chainops.cubes", "gamma_cubes"),
)

# Spans kept for the trace file; calls past the cap still count in the
# per-layer totals, and the number dropped is written with the spans.
SPAN_CAP = 200_000


# -- counters taken from a call's arguments and result ------------------------

def _symbols(counters, args, result):
    counters["symbols"] += len(result)


def _assembled(counters, args, result):
    counters["basis"] += sum(len(labels) for labels in result.basis.values())
    counters["nnz"] += sum(len(m.data) for m in result.diff.values())


def _verified(counters, args, result):
    total, bad = report_counts(result)
    counters["checks"] += total
    counters["failures"] += bad


def _complex_nnz(counters, args, result):
    counters["input_nnz"] += sum(len(m.data) for m in args[0].diff.values())


def _snf_input(counters, args, result):
    m = args[0]
    counters["input_nnz"] += len(m.data)
    counters["max_dim"] = max(counters["max_dim"], m.rows, m.cols)


OBSERVERS = {
    "boxprod.enumerate_symbols": _symbols,
    "boxprod.box_basis": _symbols,
    "operads.assemble": _assembled,
    "operads.verify": _verified,
    "cochain_ops.verify": _verified,
    "hochschild.verify": _verified,
    "complexes.reduced_homology": _complex_nnz,
    "intmat.snf": _snf_input,
}


def _matrix_key(args, kwargs):
    m = args[0]
    return (m.rows, m.cols, frozenset(m.data.items()))


# Layers whose repeat calls are measured: the key identifies a distinct input.
DISTINCT_KEYS = {
    "boxprod.enumerate_symbols": lambda args, kwargs: (args, tuple(kwargs.items())),
    "boxprod.box_basis": lambda args, kwargs: (args, tuple(kwargs.items())),
    "intmat.solve": _matrix_key,
}


class Tracer:
    """Span recorder for one pass: per-layer calls, self time, longest call
    and counters, plus the raw spans up to SPAN_CAP."""

    def __init__(self):
        self.stack = []          # open spans: [span id, time in children]
        self.spans = []          # (id, name, start, end, parent id)
        self.dropped = 0
        self.next_id = 0
        self.root_s = 0.0        # time covered by spans with no parent
        self.layers = {}         # name -> per-layer totals

    def layer(self, name):
        stats = self.layers.get(name)
        if stats is None:
            stats = {"calls": 0, "busy_s": 0.0, "max_call_s": 0.0,
                     "symbols": 0, "basis": 0, "nnz": 0, "checks": 0,
                     "failures": 0, "input_nnz": 0, "max_dim": 0,
                     "distinct": set()}
            self.layers[name] = stats
        return stats

    def wrap(self, name, fn):
        stats = self.layer(name)
        observe = OBSERVERS.get(name)
        distinct = DISTINCT_KEYS.get(name)
        stack = self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if distinct is not None:
                stats["distinct"].add(distinct(args, kwargs))
            span_id = self.next_id
            self.next_id += 1
            parent = stack[-1] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stats["calls"] += 1
                stats["busy_s"] += duration - frame[1]
                if duration > stats["max_call_s"]:
                    stats["max_call_s"] = duration
                if parent is None:
                    self.root_s += duration
                else:
                    parent[1] += duration
                if len(self.spans) < SPAN_CAP:
                    self.spans.append((span_id, name, start, end,
                                       parent[0] if parent else None))
                else:
                    self.dropped += 1
            if observe is not None:
                observe(stats, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self):
        """Replace each layer function at every chainops binding site."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "chainops" or n.startswith("chainops.")) and m]
        for name, module_name, attr in LAYERS:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, meth, self.wrap(name, getattr(cls, meth)))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def summary(self, wall_s):
        layers = {}
        for name, stats in self.layers.items():
            out = {k: v for k, v in stats.items() if k != "distinct"}
            calls = stats["calls"]
            out["distinct_ratio"] = (len(stats["distinct"]) / calls
                                     if calls else 0.0)
            layers[name] = out
        uncovered = max(0.0, wall_s - self.root_s) / wall_s if wall_s else 0.0
        return {"layers": layers, "uncovered_frac": uncovered,
                "spans": len(self.spans), "spans_dropped": self.dropped}

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write(json.dumps({"spans": len(self.spans),
                                 "dropped": self.dropped}) + "\n")
            for span_id, name, start, end, parent in self.spans:
                fh.write(json.dumps([span_id, name, start, end, parent]) + "\n")
