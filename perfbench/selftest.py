"""The benchmark's own tests.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of the repository's default test collection; it
takes about ten seconds.
"""

import dataclasses
import inspect
import json
from pathlib import Path

import pytest

import benchenv

benchenv.prepare()

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

WRONG = {
    workloads.CertifyAnswer: lambda a: dataclasses.replace(a, n=a.n + 1),
    workloads.OracleAnswer: lambda a: dataclasses.replace(a, regular=not a.regular),
    workloads.CounterexampleAnswer: lambda a: dataclasses.replace(a, claims=a.claims + 1),
}


def small_cases(workload, workdir, limit=4):
    """The warm-up case and every case with n <= limit."""
    cases = workloads.warmup_cases(workload, workdir)
    cases += [c for c in workloads.build_workload(workload, 3, workdir) if c.n <= limit]
    return cases


@pytest.fixture
def outdir(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    return out


def test_wrong_expected_answer_drives_fail_ratio_to_one(tmp_path, outdir):
    cases = [c for w in ("certify", "oracles") for c in workloads.warmup_cases(w, tmp_path)]
    cases += [c for c in workloads.build_workload("hilbert", 1, tmp_path) if c.n == 3]
    cases += [c for c in workloads.build_workload("rational", 1, tmp_path) if c.n <= 3]
    wrong = [dataclasses.replace(c, answer=WRONG[type(c.answer)](c.answer)) for c in cases]
    assert {type(c.answer) for c in wrong} == set(WRONG)

    tally = run.Tally()
    assert run.run_pass(wrong, outdir, tally) == {}
    assert tally.attempted == len(wrong)
    assert tally.failed / tally.attempted == 1.0

    right = run.Tally()
    assert len(run.run_pass(cases, outdir, right)) == len(cases)
    assert right.failed == 0


def test_first_failure_is_checked(tmp_path):
    case = next(c for c in workloads.build_workload("colon", 0, tmp_path)
                if c.name == "colon-full3x3")
    payload = {"method": "colon", "verdict": "not-regular", "first_failure": 6,
               "details": []}
    case.answer.check(1, payload)
    payload["first_failure"] = 5
    with pytest.raises(workloads.Mismatch):
        case.answer.check(1, payload)


def test_pass_inputs_follow_the_seed_and_pass(tmp_path):
    def orders(seed, pass_no):
        cases = workloads.build_workload("oracles", seed, tmp_path)
        workloads.write_pass_inputs(cases, seed, pass_no)
        return {c.name: Path(c.argv[c.argv.index("--input") + 1]).read_text()
                for c in cases if "--input" in c.argv}

    pattern = orders(0, 0)
    assert orders(0, 5) == pattern
    assert orders(7, 2) == orders(7, 2)
    assert orders(7, 2) != orders(7, 3)
    for seed, pass_no in ((7, 2), (7, 3)):
        shuffled = orders(seed, pass_no)
        assert shuffled["colon-full3x3"] == pattern["colon-full3x3"]
        for name, text in shuffled.items():
            assert sorted(text.splitlines()) == sorted(pattern[name].splitlines())


def test_split_times_needs_every_case(tmp_path):
    cases = workloads.build_workload("certify", 0, tmp_path)
    times = {"certify-n8": 1.0, "certify-n12": 2.0, "certify-n16": 4.0}
    assert run.split_times(cases, times) == (7.0, 4.0, 3.0)
    assert run.split_times(cases, dict(times, **{"certify-n8": None})) == (None, 4.0, None)


def namespace_snapshot():
    """id of every attribute of every xyreg module and of their classes."""
    snap = {}
    for mod in tracing.package_modules():
        for attr, value in vars(mod).items():
            snap[(mod.__name__, attr)] = id(value)
            if inspect.isclass(value) and value.__module__.startswith("xyreg"):
                for cattr, cvalue in vars(value).items():
                    snap[(mod.__name__, attr, cattr)] = id(cvalue)
    return snap


def test_tracer_rebinds_every_namespace_and_restores_it(tmp_path, outdir):
    import xyreg
    from xyreg import groebner, hilbert, pattern, regseq, ring

    before = namespace_snapshot()
    original = groebner.buchberger
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for ns in (xyreg, groebner, hilbert, regseq):
            assert ns.buchberger is not original
            assert ns.buchberger.__wrapped__ is original
        assert pattern.check_technical_step is regseq.check_technical_step
        assert ring.Monomial.coprime.__wrapped__ is not None
    finally:
        tracer.uninstall()
    assert namespace_snapshot() == before

    tracer = tracing.Tracer()
    tracer.install()
    spans = run.run_pass(small_cases("hilbert", tmp_path, limit=3), outdir, run.Tally(),
                         tracer=tracer)
    assert spans and namespace_snapshot() == before
    assert tracer.metrics({})["groebner.buchberger.calls"] > 0


def traced_counts(cases, outdir):
    tracer = tracing.Tracer()
    tracer.install()
    tally = run.Tally()
    spans = run.run_pass(cases, outdir, tally, tracer=tracer)
    assert tally.failed == 0
    metrics = tracer.metrics({cid: spans[c.name] for cid, c in enumerate(cases)})
    return {k: v for k, v in metrics.items() if run.unit_of(k) != "s"}


@pytest.mark.parametrize("workload", ("certify",) + workloads.ORACLE_FAMILIES)
def test_two_traced_runs_give_identical_counts(workload, tmp_path, outdir):
    cases = small_cases(workload, tmp_path)
    first = traced_counts(cases, outdir)
    second = traced_counts(cases, outdir)
    assert first == second
    assert first["trace.spans"] > 0


def test_metric_lists_match_benchmark_json():
    spec = json.loads((Path(benchenv.HERE).parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, run.unit_of(name)) for name in run.PER_LAYER]
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    assert set(run.PER_LAYER) <= set(run.TRACE_REPORT)
