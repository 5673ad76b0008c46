"""Every per-layer metric the benchmark names must come from a traced callable.

``perfbench/run.py`` lists the metrics of its result line in ``PER_LAYER``
and its report in ``TRACE_REPORT``.  A metric named after a span
(``<module>.<function>.calls``, ``.s``, ``.self_s``, or a probe's
``<span>.<size>``) reads null when the package no longer defines that
public function, and a null metric makes the result line invalid while the
run still exits 0.  The tuples are read from the source with ``ast``, so
this test does not import the benchmark runner.
"""

import ast
import importlib.util
from pathlib import Path

import xyreg.regseq

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SPAN_SUFFIXES = ("calls", "s", "self_s")


def metric_names(*tuples):
    tree = ast.parse((PERFBENCH / "run.py").read_text(encoding="utf-8"))
    found = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id in tuples:
                found[target.id] = ast.literal_eval(node.value)
    assert set(found) == set(tuples)
    return sorted({name for names in found.values() for name in names})


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def span_of(name, probes):
    """The span a metric name is derived from, or None for a layer total or
    a derived count."""
    parts = name.split(".")
    if len(parts) < 3:
        return None
    span = ".".join(parts[:-1])
    if parts[-1] in SPAN_SUFFIXES or span in probes:
        return span
    return None


def test_every_span_metric_has_a_traced_callable():
    tracer = load_tracer()
    traced = {span for _, _, span in tracer.traced_callables()}
    names = metric_names("PER_LAYER", "TRACE_REPORT")
    spans = {span_of(name, tracer.PROBES) for name in names} - {None}
    # the spans the benchmark's per-layer columns are known to read
    assert {"groebner.multi_divide", "groebner.s_poly", "regseq.nonzerodivisor_colon",
            "regseq.sequence_oracle", "kernels.reduce_terms"} <= spans
    missing = sorted(spans - traced)
    assert not missing, f"metrics name spans with no traced callable: {missing}"


def test_the_tracer_finds_buchberger_in_regseq():
    # the benchmark's self-test rebinds buchberger in every module holding it
    assert hasattr(xyreg.regseq, "buchberger")
