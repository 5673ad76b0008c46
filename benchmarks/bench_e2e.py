"""End-to-end reach timings, one fresh process per run.

Each case runs ``python -m xyreg.cli`` in a new interpreter, the way a user
runs ``xyreg``, and times it from spawn to exit (import and JSON emission
included):

* ``python -c "import xyreg.cli"`` alone, the cold-start cost every run
  pays, always recorded (``import`` row),
* ``certify --n N --format json`` for each N in ``--sizes``,
* ``recheck`` of that certificate for N in ``RECHECK_SIZES``,
* ``oracle --method hilbert --n N --format json`` for each N in ``--hilbert``
  and ``oracle --method colon`` for each N in ``--colon``, with the verdict
  and the sha256 of the report (and a Hilbert report's detail lines),
* ``search --method hilbert|colon --n N --format json`` for each N in
  ``--search``, with the accepted entries and the sha256 of the report.

Each run's peak resident memory comes from the child process itself
(``os.wait4``).  A case whose first run takes under ``REPEAT_BELOW_S``
seconds runs ``REPEATS`` times, each in a fresh process, and records the
median wall time (and the largest peak); one run of a sub-second case
moves by about a tenth of a second from run to run.  The run is recorded under ``--label`` in a
``BENCH_<date>.json`` file, with the Python and numpy versions,
``xyreg.active_backend()``, the processor and the sha256 of every
certificate, so two labels in one file (a parent commit and a change)
compare like for like.  An existing file gains the label; other labels in
it are kept.

    python3 benchmarks/bench_e2e.py --label change
    python3 benchmarks/bench_e2e.py --label parent --src /path/to/parent/src

``--src`` points at the ``src`` directory to import xyreg from (default:
this checkout's).  Threads of the numeric libraries are pinned to 1.
"""

import argparse
import datetime
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIZES = (16, 24, 32, 48, 64, 96, 128)
RECHECK_SIZES = (32, 48, 64, 96, 128)
HILBERT_SIZES = (4, 5, 6)
COLON_SIZES = (3, 4, 5, 6, 7)
SEARCH_SIZES = (3, 4)
TIMEOUT_S = 900  # a run still going after this is killed and recorded as stopped
REPEAT_BELOW_S = 5.0  # a case whose first run is faster runs REPEATS times
REPEATS = 3
IMPORT_ARGS = ["-c", "import xyreg.cli"]  # the cold-start row

STAMP_CODE = """
import json, sys, numpy, xyreg
print(json.dumps({"python": sys.version.split()[0], "numpy": numpy.__version__,
                  "backend": xyreg.active_backend()}))
"""


def child_env(src):
    env = dict(os.environ, PYTHONPATH=str(src))
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def stamp(src):
    out = subprocess.run([sys.executable, "-c", STAMP_CODE], env=child_env(src),
                         capture_output=True, text=True, check=True)
    info = json.loads(out.stdout)
    info.update(nproc=os.cpu_count(), cpu=cpu_model(), platform=platform.platform())
    return info


def timed_run(src, args, timeout):
    """(wall seconds, exit code, peak RSS in MB) of one fresh ``python args``
    run; the run is killed after ``timeout`` s."""
    with tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args],
                                env=child_env(src), stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        if code not in (0, -signal.SIGKILL):
            err.seek(0)
            sys.stderr.write(err.read().decode(errors="replace"))
    return seconds, code, usage.ru_maxrss / 1024


def run_case(src, name, args, command):
    """The timed runs of ``python args``: one, or ``REPEATS`` when the first
    takes under ``REPEAT_BELOW_S`` s.  The record names the run ``command``
    and holds the median wall time, the largest peak RSS and every run's
    time."""
    runs = []
    while not runs or (len(runs) < REPEATS and runs[0][0] < REPEAT_BELOW_S):
        seconds, code, peak = timed_run(src, args, TIMEOUT_S)
        if code == -signal.SIGKILL:
            print(f"{name}: stopped after {TIMEOUT_S} s", flush=True)
            return {"command": command, "timeout_s": TIMEOUT_S, "wall_s": None}
        if code != 0:
            raise SystemExit(f"{name}: exit code {code}")
        runs.append((seconds, peak))
    seconds = statistics.median(s for s, _ in runs)
    peak = max(p for _, p in runs)
    print(f"{name}: {seconds:.2f} s (median of {len(runs)}), peak RSS {peak:.1f} MB",
          flush=True)
    return {"command": command, "wall_s": round(seconds, 3), "peak_rss_mb": round(peak, 1),
            "runs_s": [round(s, 3) for s, _ in runs]}


def cli_case(src, name, argv):
    """:func:`run_case` for ``xyreg argv``, its file arguments named FILE."""
    command = " ".join(["xyreg"] + ["FILE" if prev in ("--out", "--input") else a
                                    for prev, a in zip([""] + argv, argv)])
    return run_case(src, name, ["-m", "xyreg.cli", *argv], command)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True,
                        help="name of this run in the file, e.g. parent or change")
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="src directory to import xyreg from")
    parser.add_argument("--sizes", type=int, nargs="*", default=list(SIZES),
                        help="certify sizes; those in %s are also rechecked" % (RECHECK_SIZES,))
    parser.add_argument("--hilbert", type=int, nargs="*", default=list(HILBERT_SIZES),
                        help="sizes of the hilbert oracle runs")
    parser.add_argument("--colon", type=int, nargs="*", default=list(COLON_SIZES),
                        help="sizes of the colon oracle runs")
    parser.add_argument("--search", type=int, nargs="*", default=list(SEARCH_SIZES),
                        help="sizes of the search runs, each with both methods")
    parser.add_argument("--note", default="", help="free text stored with the run")
    parser.add_argument("--out", default=None,
                        help="output file (default BENCH_<today>.json at the repository root)")
    args = parser.parse_args(argv)

    src = Path(args.src).resolve()
    out = Path(args.out) if args.out else ROOT / f"BENCH_{datetime.date.today():%Y-%m-%d}.json"
    record = {"stamp": stamp(src), "note": args.note, "cases": {}}
    print(json.dumps(record["stamp"]), flush=True)
    # (case, output file, fields read from its bytes), read once every timed
    # run is done: a child's peak RSS counts this process's peak at the
    # spawn, so a parsed certificate here would inflate every later row
    outputs = []
    record["cases"]["import"] = run_case(src, "import", IMPORT_ARGS,
                                         'python -c "import xyreg.cli"')
    with tempfile.TemporaryDirectory() as tmp:
        for n in args.sizes:
            cert = Path(tmp) / f"cert-{n}.json"
            name = f"certify n={n}"
            case = cli_case(src, name, ["certify", "--n", str(n), "--format", "json",
                                        "--out", str(cert)])
            if case["wall_s"] is not None:
                outputs.append((case, cert, lambda data: {
                    "sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data),
                    "steps": len(json.loads(data)["steps"])}))
            record["cases"][name] = case
            if n in RECHECK_SIZES and case["wall_s"] is not None:
                name = f"recheck n={n}"
                record["cases"][name] = cli_case(
                    src, name, ["recheck", "--input", str(cert), "--format", "json"])
        oracles = [("hilbert", n) for n in args.hilbert] + [("colon", n) for n in args.colon]
        # cheapest first, so the largest hilbert run (which may hit the timeout) ends the list
        for method, n in sorted(oracles, key=lambda c: (c[1], c[0] == "hilbert")):
            report = Path(tmp) / f"{method}-{n}.json"
            name = f"oracle {method} n={n}"
            case = cli_case(src, name, ["oracle", "--method", method, "--n", str(n),
                                        "--format", "json", "--out", str(report)])
            if case["wall_s"] is not None:
                outputs.append((case, report, lambda data, method=method: {
                    "verdict": json.loads(data)["verdict"],
                    **({"details": json.loads(data)["details"]} if method == "hilbert" else {}),
                    "sha256": hashlib.sha256(data).hexdigest()}))
            record["cases"][name] = case
        for n in args.search:
            for method in ("colon", "hilbert"):
                report = Path(tmp) / f"search-{method}-{n}.json"
                name = f"search {method} n={n}"
                case = cli_case(src, name, ["search", "--method", method, "--n", str(n),
                                            "--format", "json", "--out", str(report)])
                if case["wall_s"] is not None:
                    outputs.append((case, report, lambda data: {
                        "accepted": json.loads(data)["accepted"],
                        "sha256": hashlib.sha256(data).hexdigest()}))
                record["cases"][name] = case
        for case, path, read in outputs:
            case.update(read(path.read_bytes()))

    doc = json.loads(out.read_text()) if out.exists() else {
        "what": "fresh-process wall time and peak RSS of xyreg certify/recheck/oracle runs; "
                "written by benchmarks/bench_e2e.py",
        "runs": {}}
    doc["runs"][args.label] = record
    out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {out} [{args.label}]")


if __name__ == "__main__":
    main()
