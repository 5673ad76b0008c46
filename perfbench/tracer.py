"""Outside-in tracer: spans around the public calls of every xyreg module.

Nothing under ``src/`` knows about it.  ``Tracer.install`` wraps

* every public function a module of the package defines, and
* the methods in ``METHODS``,

and rebinds every module namespace of the package that holds one of the
originals (``buchberger`` is bound in ``groebner``, ``hilbert`` and
``regseq``; the package itself re-exports most names).  ``uninstall`` puts
every original attribute back.

Each call records a span (name, start, end, parent span, case id) in flat
in-memory columns; a few calls also record an (in, out) size pair through a
probe.  ``write`` saves the spans when the run ends, and ``metrics`` reduces
them to the per-layer numbers.
"""

import functools
import importlib
import inspect
import pkgutil
import time
from array import array

import numpy as np

import xyreg

# (module, class, method, span name); a span name's first part is its layer.
METHODS = (
    ("ring", "Monomial", "coprime", "ring.coprime"),
    ("ring", "Monomial", "divides", "ring.divides"),
    ("orders", "MonomialOrder", "keys", "orders.keys"),
    ("groebner", "GroebnerBasis", "flat_arrays", "groebner.flat_arrays"),
    ("regseq", "RegularityCertificate", "to_json_dict", "regseq.to_json_dict"),
    ("pattern", "GenericProduct", "entry", "pattern.entry"),
    ("fields", "PrimeField", "canon_array", "fields.gfp.canon_array"),
    ("fields", "RationalField", "canon_array", "fields.rat.canon_array"),
)

SKIP_MODULES = ("errors",)

LAYERS = ("cli", "pattern", "regseq", "hilbert", "groebner", "kernels",
          "poly", "orders", "ring", "fields")


def _max_degree(gb):
    return max((p.degree() for p in gb.polys), default=0)


# span name -> probe(args, result) -> (size in, size out)
PROBES = {
    "kernels.reduce_terms": lambda args, r: (len(args[3]), len(r[1])),
    "groebner.normal_form": lambda args, r: (args[0].num_terms, r.num_terms),
    "groebner.buchberger": lambda args, r: (len(r.polys), _max_degree(r)),
    "hilbert.hilbert_numerator": lambda args, r: (len(args[0]), len(r.numerator)),
}


def package_modules():
    """Every imported module of the package, the package itself first."""
    mods = [xyreg]
    for info in pkgutil.iter_modules(xyreg.__path__):
        mods.append(importlib.import_module(f"xyreg.{info.name}"))
    return mods


def traced_callables():
    """(owner, attribute, span name) for everything the tracer wraps."""
    out = []
    for mod in package_modules()[1:]:
        short = mod.__name__.split(".")[-1]
        if short in SKIP_MODULES:
            continue
        for name, obj in sorted(vars(mod).items()):
            if (not name.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                out.append((mod, name, f"{short}.{name}"))
    for short, cls_name, meth, span in METHODS:
        cls = getattr(importlib.import_module(f"xyreg.{short}"), cls_name)
        out.append((cls, meth, span))
    return out


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_col = array("i")
        self.parent_col = array("i")
        self.case_col = array("i")
        self.start_col = array("d")
        self.end_col = array("d")
        self.sizes = {}  # span index -> (in, out)
        self.stack = [-1]
        self.case = -1
        self._saved = []  # (namespace, attribute, original)

    # -- installation ----------------------------------------------------
    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        targets = traced_callables()
        wrappers = {}
        for owner, attr, span in targets:
            original = vars(owner)[attr]
            wrappers[id(original)] = (original, self._wrap(span, original))
        for mod in package_modules():
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        for owner, attr, _ in targets:
            if inspect.isclass(owner):
                original = vars(owner)[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrappers[id(original)][1])

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, span, fn):
        nid = self._ids.setdefault(span, len(self.names))
        if nid == len(self.names):
            self.names.append(span)
        probe = PROBES.get(span)
        stack, sizes, clock = self.stack, self.sizes, time.perf_counter
        name_col, parent_col, case_col = self.name_col, self.parent_col, self.case_col
        start_col, end_col = self.start_col, self.end_col
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(name_col)
            name_col.append(nid)
            parent_col.append(stack[-1])
            case_col.append(tracer.case)
            start_col.append(0.0)
            end_col.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start_col[idx] = t0
                end_col[idx] = t1
            if probe is not None:
                sizes[idx] = probe(args, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    # -- results ---------------------------------------------------------
    def columns(self):
        name = np.array(self.name_col, dtype=np.int32)
        parent = np.array(self.parent_col, dtype=np.int32)
        case = np.array(self.case_col, dtype=np.int32)
        start = np.array(self.start_col, dtype=np.float64)
        end = np.array(self.end_col, dtype=np.float64)
        return name, parent, case, start, end

    def write(self, path):
        """Save every span, with the name table and the probe sizes."""
        name, parent, case, start, end = self.columns()
        idx = np.array(sorted(self.sizes), dtype=np.int64)
        sizes = np.array([self.sizes[i] for i in idx.tolist()],
                         dtype=np.int64).reshape(-1, 2)
        np.savez(path, names=np.array(self.names), name=name, parent=parent,
                 case=case, start=start, end=end, size_index=idx, sizes=sizes)

    def metrics(self, case_spans):
        """Per-layer numbers from the recorded spans.

        ``case_spans`` maps case id -> (start, end) as the benchmark timed the
        case from outside; the part of it no top-level span covers is
        ``trace.uncovered_s``.
        """
        name, parent, case, start, end = self.columns()
        nspans = len(name)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=nspans) if nspans else np.zeros(0)
        self_time = dur - child
        # inclusive time counts a span only when no ancestor has its name
        nested = np.zeros(nspans, dtype=bool)
        anc = parent.copy()
        while (anc >= 0).any():
            live = anc >= 0
            nested[live] |= name[anc[live]] == name[live]
            anc[live] = parent[anc[live]]
        outer = ~nested

        nnames = len(self.names)
        calls = np.bincount(name, minlength=nnames)
        incl = np.bincount(name[outer], weights=dur[outer], minlength=nnames)
        selfs = np.bincount(name, weights=self_time, minlength=nnames)
        out = {}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for nid, span in enumerate(self.names):
            out[f"{span}.calls"] = int(calls[nid])
            out[f"{span}.s"] = float(incl[nid])
            out[f"{span}.self_s"] = float(selfs[nid])
            layer_self[span.split(".")[0]] += float(selfs[nid])
        for layer, value in layer_self.items():
            out[f"{layer}.self_s"] = value

        def sized(span):
            nid = self._ids.get(span)
            return [(i, s) for i, s in self.sizes.items() if name[i] == nid]

        red = [s for _, s in sized("kernels.reduce_terms")]
        out["kernels.reduce_terms.terms_in"] = sum(a for a, _ in red)
        out["kernels.reduce_terms.terms_out"] = sum(b for _, b in red)
        out["kernels.reduce_terms.zero_out"] = sum(1 for _, b in red if b == 0)

        bb = self._ids.get("groebner.buchberger", -1)
        pairs = [s for i, s in sized("groebner.normal_form")
                 if parent[i] >= 0 and name[parent[i]] == bb]
        reduced = len(pairs)
        zeros = sum(1 for _, b in pairs if b == 0)
        out["groebner.pairs_reduced"] = reduced
        out["groebner.zero_reductions"] = zeros
        out["groebner.useful_ratio"] = (reduced - zeros) / reduced if reduced else 0.0
        bases = [s for _, s in sized("groebner.buchberger")]
        out["groebner.basis_size.max"] = max((a for a, _ in bases), default=0)
        out["groebner.top_degree.max"] = max((b for _, b in bases), default=0)
        out["hilbert.lead_gens"] = sum(a for _, (a, _) in sized("hilbert.hilbert_numerator"))

        top = ~has_parent
        uncovered = 0.0
        for cid, (c0, c1) in case_spans.items():
            m = top & (case == cid)
            uncovered += (c1 - c0) - float(dur[m].sum())
        out["trace.uncovered_s"] = uncovered
        out["trace.spans"] = nspans
        return out
