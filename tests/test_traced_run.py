"""The benchmark's traced run stays valid on every oracle path.

``perfbench/run.py --trace 1`` installs ``perfbench/tracer.py``'s
``Tracer``, runs its cases through ``xyreg.cli.main`` and prints
``Tracer.metrics`` as the strict-JSON last line of its output.  A probe
that raises on what a traced call returns, a metric that is not a finite
number, or library code that writes to stdout leaves that line broken
while the run may still exit 0.  This test runs small certify, colon and
Hilbert cases (a regular one and one the degree-by-degree check stops
early) under the tracer, with the tracer module loaded from its file and
left unchanged.
"""

import json
import math
import time

import pytest

from test_benchmark_names import load_tracer
from xyreg import cli
from xyreg.fields import PrimeField
from xyreg.pattern import GenericProduct
from xyreg.poly import format_poly


@pytest.fixture
def full_3x3_file(tmp_path):
    product = GenericProduct(3, field=PrimeField(32003))
    path = tmp_path / "full3x3.txt"
    path.write_text("\n".join(format_poly(product.entry(i, j))
                              for i in range(1, 4) for j in range(1, 4)) + "\n",
                    encoding="utf-8")
    return str(path)


def test_traced_cases_give_finite_metrics_and_print_nothing(full_3x3_file, tmp_path, capsys):
    cases = [(["certify", "--n", "2"], 0), (["certify", "--n", "3"], 0),
             (["oracle", "--method", "colon", "--n", "3"], 0),
             (["oracle", "--method", "hilbert", "--n", "2"], 0),
             (["oracle", "--method", "hilbert", "--n", "3"], 0),
             (["oracle", "--method", "hilbert", "--n", "3", "--input", full_3x3_file], 1)]
    tracer_module = load_tracer()
    tracer = tracer_module.Tracer()
    spans = {}
    tracer.install()
    try:
        for cid, (argv, code) in enumerate(cases):
            tracer.case = cid
            out = tmp_path / f"case{cid}.json"
            start = time.perf_counter()
            rc = cli.main(argv + ["--format", "json", "--out", str(out)])
            spans[cid] = (start, time.perf_counter())
            assert rc == code, argv
            json.loads(out.read_text(encoding="utf-8"))
    finally:
        tracer.uninstall()
    assert capsys.readouterr().out == ""

    # every probed call returned, and its probe with it
    probed = {tracer.names.index(span) for span in tracer_module.PROBES
              if span in tracer.names}
    calls = [i for i, nid in enumerate(tracer.name_col) if nid in probed]
    assert calls and all(i in tracer.sizes for i in calls)

    metrics = tracer.metrics(spans)
    assert all(isinstance(v, (int, float)) and math.isfinite(v) for v in metrics.values()), \
        {k: v for k, v in metrics.items() if not isinstance(v, (int, float))
         or not math.isfinite(v)}
    json.dumps(metrics, allow_nan=False)
    assert metrics["regseq.sequence_oracle.calls"] == 4
    assert metrics["regseq.nonzerodivisor_colon.calls"] > 0
