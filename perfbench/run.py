"""Run one xyreg benchmark workload and print its metrics.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 50 --trace 0

One process, one client, one thread: the cases of the workload go through
``xyreg.cli.main`` one after another (a closed loop), with the native thread
pools pinned to one thread.  Passes over all cases repeat while another pass
still fits in ``--seconds``; there is always at least one.  The oracle cases
but one get a fresh input order from the seed on every pass.

After every case the fixed reference workload of ``reference.py`` runs once,
plus once per ``REFERENCE_EVERY_S`` the case took.  Each time metric is the
run's mean case time scaled by ``REFERENCE_S`` over the run's mean reference
time: seconds at a fixed host speed.  The raw seconds are printed and saved
too.

``--trace 0`` first times ``setup_probe.py`` in fresh interpreters
(``setup_s``: the median over them, each normalised by the reference runs
right after it), then reports the end-to-end metrics with tracing off.
``--trace 1`` runs one untraced and one traced pass and reports the
per-layer metrics; the spans go to ``perfbench/results/``.

Every case's output is checked against its known answer.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit code is 1 when any case failed, 2 when
the benchmark could not start.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import benchenv
from reference import REFERENCE_S, reference

try:
    benchenv.prepare()
    import workloads
except ImportError as exc:
    sys.exit(f"error: cannot import xyreg from the checkout: {exc}")

SETUP_REPEATS = 25
REFERENCE_EVERY_S = 0.2

END_TO_END = (
    ("wall_norm_s", "s"),
    ("largest_case_norm_s", "s"),
    ("small_cases_norm_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Every per-layer number the traced run reports, in report order.
TRACE_REPORT = (
    "cli.self_s",
    "pattern.certify_pattern.self_s", "pattern.entry.calls", "pattern.entry.s",
    "regseq.check_technical_step.calls", "regseq.check_technical_step.self_s",
    "regseq.coprime_extend_element.calls", "regseq.coprime_extend_element.self_s",
    "regseq.to_json_dict.s",
    "regseq.nonzerodivisor_colon.calls", "regseq.nonzerodivisor_colon.self_s",
    "regseq.sequence_oracle.calls",
    "ring.coprime.calls", "ring.coprime.s", "ring.divides.calls",
    "orders.keys.calls", "orders.keys.s",
    "poly.canonicalize.calls", "poly.canonicalize.s",
    "kernels.reduce_terms.calls", "kernels.reduce_terms.s",
    "kernels.reduce_terms.terms_in", "kernels.reduce_terms.terms_out",
    "kernels.reduce_terms.zero_out",
    "groebner.buchberger.calls", "groebner.buchberger.self_s",
    "groebner.pairs_reduced", "groebner.zero_reductions", "groebner.useful_ratio",
    "groebner.s_poly.calls", "groebner.normal_form.self_s", "groebner.flat_arrays.s",
    "groebner.basis_size.max", "groebner.top_degree.max",
    "groebner.reduce_basis.calls", "groebner.reduce_basis.self_s",
    "groebner.multi_divide.calls", "groebner.multi_divide.s",
    "hilbert.hilbert_numerator.calls", "hilbert.hilbert_numerator.s",
    "hilbert.lead_gens",
    "fields.gfp.canon_array.calls", "fields.gfp.canon_array.s",
    "fields.rat.canon_array.calls", "fields.rat.canon_array.s",
    "pattern.self_s", "regseq.self_s", "hilbert.self_s", "groebner.self_s",
    "kernels.self_s", "poly.self_s", "orders.self_s", "ring.self_s", "fields.self_s",
    "trace.overhead_s", "trace.uncovered_s", "trace.spans",
)

# The per-layer metrics of the result line (BENCHMARK.json "per_layer"):
# every count, and the times that are nonzero on both certify and oracles.
# The time of a layer that one of them never enters (the kernel on certify,
# the certification checks on oracles) would read 0 on every run of it;
# those times are in the report and the results file only.
PER_LAYER = (
    "pattern.entry.calls",
    "regseq.check_technical_step.calls", "regseq.coprime_extend_element.calls",
    "regseq.nonzerodivisor_colon.calls", "regseq.sequence_oracle.calls",
    "ring.coprime.calls", "ring.divides.calls", "orders.keys.calls",
    "poly.canonicalize.calls",
    "kernels.reduce_terms.calls", "kernels.reduce_terms.terms_in",
    "kernels.reduce_terms.terms_out", "kernels.reduce_terms.zero_out",
    "groebner.buchberger.calls", "groebner.pairs_reduced",
    "groebner.zero_reductions", "groebner.useful_ratio", "groebner.s_poly.calls",
    "groebner.basis_size.max", "groebner.top_degree.max",
    "groebner.reduce_basis.calls", "groebner.multi_divide.calls",
    "hilbert.hilbert_numerator.calls", "hilbert.lead_gens",
    "fields.gfp.canon_array.calls", "fields.rat.canon_array.calls",
    "trace.spans",
    "cli.self_s", "pattern.self_s", "regseq.self_s", "poly.self_s",
    "orders.self_s", "ring.self_s", "fields.self_s",
    "pattern.entry.s", "ring.coprime.s", "orders.keys.s", "poly.canonicalize.s",
    "fields.gfp.canon_array.s",
    "trace.overhead_s", "trace.uncovered_s",
)


def unit_of(name):
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


class Tally:
    """Operations attempted and failed; a failed operation has no time."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, case, outcome, out_path):
        self.attempted += 1
        try:
            if isinstance(outcome, Exception):
                raise outcome
            workloads.check_case(case, outcome, out_path)
            return True
        except Exception as exc:  # noqa: BLE001 - every failure is counted
            self.failed += 1
            print(f"FAIL {case.name}: {type(exc).__name__}: {exc}", file=sys.stderr)
            if not isinstance(exc, workloads.Mismatch):
                traceback.print_exception(exc, file=sys.stderr)
            return False


def timed_reference(ref_times, after_s):
    """Run the reference once, plus once more per ``REFERENCE_EVERY_S`` of
    ``after_s``, the seconds just measured, so that it samples the host's
    speed evenly over the run; append each time to ``ref_times``."""
    for _ in range(1 + int(after_s / REFERENCE_EVERY_S)):
        t0 = time.perf_counter()
        reference()
        ref_times.append(time.perf_counter() - t0)


def run_pass(cases, outdir, tally, tracer=None, ref_times=None):
    """Run every case once, then check each output.  With ``ref_times``,
    the reference workload runs after every case and its time is appended.

    Returns {case name: (start, end)} for the cases whose output was right.
    """
    outcomes = []
    try:
        for cid, case in enumerate(cases):
            out = outdir / f"{case.name}.json"
            if out.exists():
                out.unlink()
            if tracer is not None:
                tracer.case = cid
            t0 = time.perf_counter()
            try:
                outcome = workloads.run_case(case, out)
            except Exception as exc:  # noqa: BLE001 - counted as a failure below
                outcome = exc
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.case = -1
            outcomes.append((case, outcome, out, (t0, t1)))
            if ref_times is not None:
                timed_reference(ref_times, t1 - t0)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return {case.name: span for case, outcome, out, span in outcomes
            if tally.check(case, outcome, out)}


def pass_total(cases, spans):
    """Seconds of one pass over all cases; None when a case failed."""
    if len(spans) != len(cases):
        return None
    return sum(end - start for start, end in spans.values())


def split_times(cases, per_case):
    """(all cases, largest case, the other cases) summed from
    {case name: seconds}; None where a case they need has no time."""
    def total(names):
        if not all(per_case.get(n) is not None for n in names):
            return None
        return sum(per_case[n] for n in names)

    return (total([c.name for c in cases]),
            total([c.name for c in cases if c.largest]),
            total([c.name for c in cases if not c.largest]))


def measure_setup(workload, seed, workdir, tally):
    """Spawn-to-exit seconds of each cold set-up, the same normalised by the
    reference runs taken right after it, and every reference time."""
    probe = benchenv.HERE / "setup_probe.py"
    times, normed, ref_times = [], [], []
    for r in range(SETUP_REPEATS):
        target = workdir / f"setup-{r}"
        tally.attempted += 1
        t0 = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, str(probe), workload, str(seed), str(target)],
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                                  timeout=60)
        except subprocess.TimeoutExpired:
            tally.failed += 1
            print("FAIL setup probe: timed out", file=sys.stderr)
            continue
        t1 = time.perf_counter()
        if proc.returncode != 0:
            tally.failed += 1
            print(f"FAIL setup probe: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
        shutil.rmtree(target, ignore_errors=True)
        after = []
        timed_reference(after, t1 - t0)
        ref_times.extend(after)
        if proc.returncode == 0:
            times.append(t1 - t0)
            normed.append((t1 - t0) * REFERENCE_S / statistics.fmean(after))
    return times, normed, ref_times


def mean_or_none(values):
    return statistics.fmean(values) if values else None


def stamp(args):
    import numpy
    import xyreg

    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "numpy": numpy.__version__, "backend": xyreg.active_backend(),
            "nproc": len(os.sched_getaffinity(0)),
            "threads": {v: os.environ[v] for v in benchenv.THREAD_VARS}}


def prepare_cases(args, workdir, tally):
    """Write the inputs and run the warm-up cases; returns (cases, outdir)."""
    cases = workloads.build_workload(args.workload, args.seed, workdir)
    outdir = workdir / "out"
    outdir.mkdir()
    run_pass(workloads.warmup_cases(args.workload, workdir), outdir, tally)
    return cases, outdir


def measure(args, workdir, tally):
    """The untraced passes; returns (metrics, record)."""
    cases, outdir = prepare_cases(args, workdir, tally)
    samples = {c.name: [] for c in cases}
    ref_times = []
    begin = time.perf_counter()
    longest = 0.0
    passes = 0
    while True:
        if passes:
            workloads.write_pass_inputs(cases, args.seed, passes)
        t0 = time.perf_counter()
        for name, (start, end) in run_pass(cases, outdir, tally,
                                           ref_times=ref_times).items():
            samples[name].append(end - start)
        longest = max(longest, time.perf_counter() - t0)
        passes += 1
        if time.perf_counter() - begin + longest > args.seconds:
            break
    raw = {name: mean_or_none(v) for name, v in samples.items()}
    scale = REFERENCE_S / statistics.fmean(ref_times)
    norm = {name: None if v is None else v * scale for name, v in raw.items()}
    metrics = dict(zip(("wall_norm_s", "largest_case_norm_s", "small_cases_norm_s"),
                       split_times(cases, norm)))
    record = {"passes": passes, "cases": [c.name for c in cases],
              "largest_case": next(c.name for c in cases if c.largest),
              "case_s": samples, "reference_s": ref_times, "scale": scale,
              "raw": dict(zip(("wall_s", "largest_case_s", "small_cases_s"),
                              split_times(cases, raw)))}
    return metrics, record


def traced(args, workdir, tally):
    """One untraced and one traced pass; returns (metrics, record)."""
    from tracer import Tracer

    cases, outdir = prepare_cases(args, workdir, tally)
    plain = run_pass(cases, outdir, tally)
    tracer = Tracer()
    tracer.install()
    spans = run_pass(cases, outdir, tally, tracer=tracer)
    plain_total = pass_total(cases, plain)
    traced_total = pass_total(cases, spans)
    metrics = tracer.metrics({cid: spans[c.name] for cid, c in enumerate(cases)
                              if c.name in spans})
    if plain_total is None or traced_total is None:
        metrics["trace.overhead_s"] = None
    else:
        metrics["trace.overhead_s"] = traced_total - plain_total
    results = benchenv.HERE / "results"
    results.mkdir(exist_ok=True)
    span_file = results / f"spans-{args.workload}.npz"
    tracer.write(span_file)
    record = {"untraced_pass_s": plain_total, "traced_pass_s": traced_total,
              "cases": [c.name for c in cases], "span_file": span_file.name}
    return metrics, record


def main(argv=None):
    args = parse_args(argv)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    tally = Tally()
    workdir = benchenv.HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.trace:
            metrics, record = traced(args, workdir, tally)
            names = PER_LAYER
            shown = TRACE_REPORT
        else:
            setup, setup_norm, setup_ref = measure_setup(args.workload, args.seed,
                                                         workdir, tally)
            metrics, record = measure(args, workdir, tally)
            metrics["setup_s"] = statistics.median(setup_norm) if setup_norm else None
            metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
            record["setup_s"] = setup
            record["setup_reference_s"] = setup_ref
            record["raw"]["setup_s"] = statistics.median(setup) if setup else None
            names = shown = [name for name, _ in END_TO_END]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    units = dict(END_TO_END)
    info = stamp(args)
    fail_ratio = tally.failed / tally.attempted if tally.attempted else 1.0
    print("xyreg benchmark: " + " ".join(f"{k}={v}" for k, v in info.items()
                                          if k != "threads"))
    for name in shown:
        value = metrics.get(name)
        unit = units.get(name) or unit_of(name)
        text = "n/a" if value is None else (f"{value:.6g}" if isinstance(value, float)
                                            else str(value))
        print(f"  {name:40s} {text:>14s} {unit}")
    if not args.trace:
        for name, value in record["raw"].items():
            text = "n/a" if value is None else f"{value:.6g}"
            print(f"  {'raw ' + name:40s} {text:>14s} s")
        print(f"  {'samples':40s} {record['passes']:>14d} passes, "
              f"{len(record['setup_s'])} set-ups, "
              f"{len(record['reference_s'])} reference runs "
              f"(scale {record['scale']:.4g})")
    print(f"  {'fail_ratio':40s} {fail_ratio:>14.6g} ratio "
          f"({tally.failed} of {tally.attempted} operations failed)")

    results = benchenv.HERE / "results"
    results.mkdir(exist_ok=True)
    with open(results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump({"stamp": info, "metrics": metrics, "record": record,
                   "attempted": tally.attempted, "failed": tally.failed},
                  fh, indent=2)

    line = {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {name: {"value": metrics.get(name),
                               "unit": units.get(name) or unit_of(name)}
                        for name in names}}
    print(json.dumps(line))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
