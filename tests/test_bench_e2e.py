"""The repeat rule of ``benchmarks/bench_e2e.py``: every case runs
``REPEATS`` recorded rounds with the label order alternating, and only a
sub-second case first runs an unrecorded warm-up round.  The fresh-process
runs are stubbed, so no child is started."""

import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_e2e.py"


@pytest.fixture
def bench():
    spec = importlib.util.spec_from_file_location("bench_e2e", BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seconds, warm_up", [(10.0, False), (0.1, True)])
def test_every_case_runs_the_same_alternating_rounds(bench, monkeypatch, seconds, warm_up):
    calls = []

    def timed_run(src, cwd, args, timeout):
        calls.append(src)
        return seconds + len(calls) / 1000, 0, 30.0 + len(calls)

    monkeypatch.setattr(bench, "timed_run", timed_run)
    runs = {"parent": ("parent-src", "."), "change": ("change-src", ".")}
    records = bench.run_case(runs, "case", ["-m", "xyreg.cli"], "xyreg")
    rounds = bench.REPEATS + warm_up
    assert len(calls) == 2 * rounds
    for round_ in range(rounds):
        expected = ["parent-src", "change-src"][::1 if round_ % 2 == 0 else -1]
        assert calls[2 * round_:2 * round_ + 2] == expected
    for label, (src, _) in runs.items():
        # the call numbers of this label's recorded runs, warm-up dropped
        numbers = [k for k, s in enumerate(calls, start=1) if s == src][warm_up:]
        record = records[label]
        assert len(record["runs_s"]) == bench.REPEATS
        assert record["runs_s"] == [round(seconds + k / 1000, 3) for k in numbers]
        assert record["peak_rss_mb"] == 30.0 + numbers[-1]
