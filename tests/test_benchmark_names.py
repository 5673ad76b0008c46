"""Every name the benchmark reaches in the package must exist.

``perfbench/run.py`` lists the metrics of its result line in ``PER_LAYER``
and its report in ``TRACE_REPORT``.  A metric named after a span
(``<module>.<function>.calls``, ``.s``, ``.self_s``, or a probe's
``<span>.<size>``) reads null when the package no longer defines that
public function, and a null metric makes the result line invalid while the
run still exits 0.  The benchmark also imports names from the package,
wraps the methods in the tracer's ``METHODS``, and its self-test expects
``buchberger`` in four namespaces; a deletion of any of them breaks the
benchmark, not this suite, unless it is checked here.  The sources are read
with ``ast``, so these tests do not import the benchmark runner.
"""

import ast
import importlib.util
import inspect
import re
from pathlib import Path

import xyreg
import xyreg.cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SPAN_SUFFIXES = ("calls", "s", "self_s")


def parse(name):
    return ast.parse((PERFBENCH / name).read_text(encoding="utf-8"))


def resolve(dotted):
    """What the dotted name ``xyreg.a.b`` names (every module of the package
    is imported above), or None."""
    obj = xyreg
    for attr in dotted.split(".")[1:]:
        obj = getattr(obj, attr, None)
    return obj


def metric_names(*tuples):
    tree = parse("run.py")
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


def test_buchberger_is_bound_in_every_namespace_the_selftest_checks():
    # the self-test loops ``for ns in (xyreg, groebner, ...)`` and reads
    # ``ns.buchberger`` in each namespace
    checked = set()
    for node in ast.walk(parse("selftest.py")):
        if (isinstance(node, ast.For) and isinstance(node.target, ast.Name)
                and isinstance(node.iter, ast.Tuple)):
            attrs = {a.attr for a in ast.walk(node) if isinstance(a, ast.Attribute)
                     and isinstance(a.value, ast.Name) and a.value.id == node.target.id}
            checked |= {f"{ns.id}.{attr}" if ns.id == "xyreg" else f"xyreg.{ns.id}.{attr}"
                        for ns in node.iter.elts for attr in attrs}
    assert {"xyreg.buchberger", "xyreg.groebner.buchberger", "xyreg.hilbert.buchberger",
            "xyreg.regseq.buchberger"} <= checked
    missing = sorted(name for name in checked if resolve(name) is None)
    assert not missing, f"the self-test reads names the package lacks: {missing}"


def test_every_name_perfbench_reads_from_the_package_exists():
    names = {}  # dotted name -> the perfbench file that reads it
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("xyreg"):
                names.update((f"{node.module}.{a.name}", path.name) for a in node.names)
            elif (isinstance(node, ast.Attribute)
                    and re.fullmatch(r"xyreg(\.\w+)+", ast.unparse(node))):
                names[ast.unparse(node)] = path.name
    assert {"xyreg.active_backend", "xyreg.cli.main", "xyreg.pattern.PatternSpec"} <= set(names)
    missing = sorted((path, name) for name, path in names.items() if resolve(name) is None)
    assert not missing, f"perfbench reads names the package lacks: {missing}"


def test_every_tracer_method_resolves():
    (methods,) = [ast.literal_eval(node.value) for node in parse("tracer.py").body
                  if isinstance(node, ast.Assign)
                  and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["METHODS"]]
    assert methods
    for short, cls_name, meth, span in methods:
        cls = resolve(f"xyreg.{short}.{cls_name}")
        assert inspect.isclass(cls), (short, cls_name)
        # the tracer wraps vars(cls)[meth]: the class itself defines it
        assert inspect.isfunction(vars(cls).get(meth)), (short, cls_name, meth)
        assert span.split(".")[0] == short, span
