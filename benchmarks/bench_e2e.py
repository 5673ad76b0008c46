"""End-to-end reach timings, one fresh process per run.

Each case runs ``python -m xyreg.cli`` in a new interpreter, the way a user
runs ``xyreg``, and times it from spawn to exit (import and JSON emission
included):

* ``python -c "import xyreg.cli"`` alone, the cold-start cost every run
  pays, always recorded (``import`` row),
* ``xyreg.cli.main`` called ``INPROCESS_CALLS`` times in one interpreter
  on each of ``INPROCESS_CASES``, the cost a caller that runs the CLI
  in-process pays per call (the median call; the first call, which builds
  the parser, is recorded apart), always recorded (``in-process`` rows),
* ``gen --n N --format json`` for each N in ``--gen``, with the sha256 of
  its JSON,
* ``certify --n N --format json`` for each N in ``--sizes``,
* ``recheck`` of that certificate for N in ``RECHECK_SIZES``,
* ``oracle --method hilbert --n N --format json`` for each N in ``--hilbert``
  and ``oracle --method colon`` for each N in ``--colon``, with the verdict
  and the sha256 of the report (and a Hilbert report's detail lines),
* ``search --method hilbert|colon --n N --format json`` for each N in
  ``--search``, under each method of ``--search-method`` (both by
  default), with the accepted entries and the sha256 of the report.

Each run's peak resident memory comes from the child process itself
(``os.wait4``).  Every case runs ``REPEATS`` rounds in fresh processes,
each round once for each ``--src LABEL=DIR``, label after label, before
the next case starts, so two trees (a parent commit and a change) are
timed seconds apart on a host whose speed drifts over minutes.  The order
of the labels alternates from round to round, and each label's median
wall time (and its largest peak) is recorded: one run of a sub-second
case moves by about a tenth of a second from run to run, and one run of a
ten-second case by more than a second.  A case whose first runs all take
under ``WARM_UP_BELOW_S`` seconds, and every in-process case, runs one
more round first, a warm-up that is not recorded: the first round of a
short case often ran 30-70 % slower than the next two.  Each label's runs are
recorded in a ``BENCH_<date>.json`` file, with the Python and numpy versions,
``xyreg.active_backend()``, the processor, the label's ``src/xyreg`` code
lines (lines holding code, not docstrings, comments or blanks) and the
sha256 of every certificate and report, so the labels compare like for
like.  A label already in an existing file is replaced; other labels are
kept.

Every child starts under an address-space limit of ``ADDRESS_LIMIT`` bytes
(4 GiB, ``RLIMIT_AS``, set in the child only), far above what any default
case needs, so a run that outgrows it exits 3 (``inconclusive: out of
memory``) instead of waking the kernel's OOM killer; such a run is
recorded with its exit code and no wall time, as a run killed at the
timeout is.

    python3 benchmarks/bench_e2e.py --src parent=/path/to/parent/src --src change=src

Threads of the numeric libraries are pinned to 1.
"""

import argparse
import ast
import datetime
import hashlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIZES = (16, 24, 32, 48, 64, 96, 128)
GEN_SIZES = (16, 32, 64, 128)
RECHECK_SIZES = (32, 48, 64, 96, 128)
HILBERT_SIZES = (4, 5, 6)
COLON_SIZES = (3, 4, 5, 6, 7)
SEARCH_SIZES = (3, 4)
SEARCH_METHODS = ("colon", "hilbert")
TIMEOUT_S = 900  # a run still going after this is killed and recorded as stopped
ADDRESS_LIMIT = 4 * 2**30  # RLIMIT_AS of every child, in bytes
EXIT_INCONCLUSIVE = 3  # xyreg's exit code for a run out of memory
REPEATS = 3  # recorded rounds of every case
WARM_UP_BELOW_S = 1.0  # a case whose first run is faster gets an unrecorded warm-up round
IMPORT_ARGS = ["-c", "import xyreg.cli"]  # the cold-start row
INPROCESS_CALLS = 50
INPROCESS_CASES = (
    ("in-process certify n=16",
     ["certify", "--n", "16", "--format", "json", "--out", "inprocess-certify-16.json"]),
    ("in-process oracle hilbert n=4",
     ["oracle", "--method", "hilbert", "--n", "4", "--format", "json",
      "--out", "inprocess-hilbert-4.json"]),
)

# argv (JSON) and a call count -> the first call's and the median call's seconds
INPROCESS_CODE = """
import json, statistics, sys, time
import xyreg.cli
argv, calls = json.loads(sys.argv[1]), int(sys.argv[2])
times = []
for _ in range(calls):
    start = time.perf_counter()
    code = xyreg.cli.main(list(argv))
    times.append(time.perf_counter() - start)
    if code != 0:
        sys.exit(f"exit code {code}")
print(json.dumps({"first_s": times[0], "median_s": statistics.median(times)}))
"""

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


def limit_address_space():
    """Run in the child between fork and exec: cap its address space."""
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_LIMIT, ADDRESS_LIMIT))


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


# tokens that hold no code of their own
LAYOUT_TOKENS = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                 tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(package):
    """The number of lines of the ``*.py`` files in ``package`` that hold
    code: a line with a token other than a comment or layout, and outside
    every docstring (a statement that is a string alone)."""
    total = 0
    for path in sorted(Path(package).glob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines = set()
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type not in LAYOUT_TOKENS:
                lines.update(range(tok.start[0], tok.end[0] + 1))
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                    and isinstance(node.value.value, str):
                lines.difference_update(range(node.lineno, node.end_lineno + 1))
        total += len(lines)
    return total


def stamp(src):
    out = subprocess.run([sys.executable, "-c", STAMP_CODE], env=child_env(src),
                         preexec_fn=limit_address_space, capture_output=True, text=True,
                         check=True)
    info = json.loads(out.stdout)
    info.update(nproc=os.cpu_count(), cpu=cpu_model(), platform=platform.platform(),
                code_lines=code_lines(Path(src) / "xyreg"), address_limit=ADDRESS_LIMIT)
    return info


def timed_run(src, cwd, args, timeout):
    """(wall seconds, exit code, peak RSS in MB) of one fresh ``python args``
    run in ``cwd``; the run is killed after ``timeout`` s."""
    with tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=cwd, env=child_env(src),
                                preexec_fn=limit_address_space,
                                stdout=subprocess.DEVNULL, stderr=err)
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


def run_case(runs, name, args, command):
    """Time ``python args`` under every label of ``runs`` (label -> (src,
    working directory)), label after label within each round, so the labels
    of one case are timed seconds apart, not a whole benchmark apart.

    ``REPEATS`` rounds; when every run of the first round took under
    ``WARM_UP_BELOW_S`` s, that round is a warm-up: it is not recorded
    and ``REPEATS`` more follow.  Odd rounds take the labels in reverse
    order.
    Returns, per label, the record naming the run ``command`` with the
    median wall time, the largest peak RSS and every run's time, or, for a
    label whose run was killed or ran out of memory (exit 3), a record with
    no wall time.  Any other non-zero exit ends the benchmark."""
    times = {label: [] for label in runs}
    ended = {}  # label -> the record of its run that gave no time

    def one_round(round_):
        for label in list(runs)[::1 if round_ % 2 == 0 else -1]:
            if label in ended:
                continue
            seconds, code, peak = timed_run(*runs[label], args, TIMEOUT_S)
            if code == -signal.SIGKILL:
                print(f"{name} [{label}]: stopped after {TIMEOUT_S} s", flush=True)
                ended[label] = {"command": command, "timeout_s": TIMEOUT_S, "wall_s": None}
            elif code == EXIT_INCONCLUSIVE:
                print(f"{name} [{label}]: exit code {code}", flush=True)
                ended[label] = {"command": command, "exit_code": code, "wall_s": None}
            elif code != 0:
                raise SystemExit(f"{name} [{label}]: exit code {code}")
            else:
                times[label].append((seconds, peak))

    one_round(0)
    firsts = [done[0][0] for done in times.values() if done]
    rounds = REPEATS
    if all(s < WARM_UP_BELOW_S for s in firsts):
        for done in times.values():
            done.clear()  # that round was the warm-up
        rounds += 1
    for round_ in range(1, rounds):
        one_round(round_)
    records = {}
    for label, done in times.items():
        if label in ended:
            records[label] = ended[label]
            continue
        seconds = statistics.median(s for s, _ in done)
        peak = max(p for _, p in done)
        print(f"{name} [{label}]: {seconds:.2f} s (median of {len(done)}), "
              f"peak RSS {peak:.1f} MB", flush=True)
        records[label] = {"command": command, "wall_s": round(seconds, 3),
                          "peak_rss_mb": round(peak, 1),
                          "runs_s": [round(s, 3) for s, _ in done]}
    return records


def cli_command(argv):
    """``xyreg argv`` as recorded, its file arguments named FILE."""
    return " ".join(["xyreg"] + ["FILE" if prev in ("--out", "--input") else a
                                 for prev, a in zip([""] + argv, argv)])


def cli_case(runs, name, argv):
    """:func:`run_case` for ``xyreg argv``."""
    return run_case(runs, name, ["-m", "xyreg.cli", *argv], cli_command(argv))


def inprocess_case(runs, name, argv):
    """The per-call time of ``xyreg.cli.main(argv)`` under every label of
    ``runs``: one child per label and round runs it ``INPROCESS_CALLS``
    times, labels alternating as in :func:`run_case`, after one warm-up
    round that is not recorded.  Returns, per label, the median over rounds
    of each child's median call and first call."""
    timings = {label: [] for label in runs}
    for round_ in range(REPEATS + 1):  # round 0 is the warm-up
        for label in list(runs)[::1 if round_ % 2 == 0 else -1]:
            src, cwd = runs[label]
            proc = subprocess.run(
                [sys.executable, "-c", INPROCESS_CODE, json.dumps(argv), str(INPROCESS_CALLS)],
                cwd=cwd, env=child_env(src), preexec_fn=limit_address_space,
                capture_output=True, text=True, timeout=TIMEOUT_S)
            if proc.returncode != 0:
                raise SystemExit(f"{name} [{label}]: {proc.stderr.strip()}")
            if round_:
                timings[label].append(json.loads(proc.stdout))
    command = cli_command(argv)
    records = {}
    for label, done in timings.items():
        per_call = statistics.median(t["median_s"] for t in done)
        first = statistics.median(t["first_s"] for t in done)
        print(f"{name} [{label}]: {per_call * 1e3:.2f} ms a call (first {first * 1e3:.2f} ms, "
              f"{len(done)} x {INPROCESS_CALLS} calls)", flush=True)
        records[label] = {"command": f"{command}, {INPROCESS_CALLS} calls in one process",
                          "per_call_s": round(per_call, 5), "first_call_s": round(first, 5),
                          "rounds_per_call_s": [round(t["median_s"], 5) for t in done]}
    return records


def labelled_src(text):
    label, sep, src = text.partition("=")
    if not (label and sep and src):
        raise argparse.ArgumentTypeError(f"expected LABEL=DIR, got {text!r}")
    return label, Path(src).resolve()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=labelled_src, action="append", required=True,
                        metavar="LABEL=DIR",
                        help="a label (e.g. parent or change) and the src directory to "
                             "import xyreg from; repeat it to compare trees")
    parser.add_argument("--gen", type=int, nargs="*", default=list(GEN_SIZES),
                        help="sizes of the gen runs")
    parser.add_argument("--sizes", type=int, nargs="*", default=list(SIZES),
                        help="certify sizes; those in %s are also rechecked" % (RECHECK_SIZES,))
    parser.add_argument("--hilbert", type=int, nargs="*", default=list(HILBERT_SIZES),
                        help="sizes of the hilbert oracle runs")
    parser.add_argument("--colon", type=int, nargs="*", default=list(COLON_SIZES),
                        help="sizes of the colon oracle runs")
    parser.add_argument("--search", type=int, nargs="*", default=list(SEARCH_SIZES),
                        help="sizes of the search runs, each under every --search-method")
    parser.add_argument("--search-method", choices=SEARCH_METHODS, action="append",
                        help="a method of the search runs; repeat it for both "
                             "(default: both)")
    parser.add_argument("--note", default="", help="free text stored with every label's run")
    parser.add_argument("--out", default=None,
                        help="output file (default BENCH_<today>.json at the repository root)")
    args = parser.parse_args(argv)
    srcs = dict(args.src)
    if len(srcs) != len(args.src):
        parser.error("each --src label must be new")

    out = Path(args.out) if args.out else ROOT / f"BENCH_{datetime.date.today():%Y-%m-%d}.json"
    records = {label: {"stamp": stamp(src), "note": args.note, "cases": {}}
               for label, src in srcs.items()}
    for label, record in records.items():
        print(label, json.dumps(record["stamp"]), flush=True)

    def add(name, cases):
        for label, case in cases.items():
            records[label]["cases"][name] = case

    # (label, case name, output file, fields read from its bytes), read once
    # every timed run is done: a child's peak RSS counts this process's peak
    # at the spawn, so a parsed certificate here would inflate every later row
    outputs = []
    with tempfile.TemporaryDirectory() as tmp:
        # each label runs in a directory of its own, so the file names in
        # the command line are the same for every label
        runs = {label: (src, Path(tmp) / f"run{k}") for k, (label, src) in enumerate(srcs.items())}
        for _, cwd in runs.values():
            cwd.mkdir()
        add("import", run_case(runs, "import", IMPORT_ARGS, 'python -c "import xyreg.cli"'))
        for name, argv in INPROCESS_CASES:
            add(name, inprocess_case(runs, name, argv))

        def case(name, argv, output, read):
            cases = cli_case(runs, name, argv)
            add(name, cases)
            for label, result in cases.items():
                if result["wall_s"] is not None:
                    outputs.append((label, name, runs[label][1] / output, read))
            return cases

        for n in args.gen:
            gen = f"gen-{n}.json"
            case(f"gen n={n}", ["gen", "--n", str(n), "--format", "json", "--out", gen],
                 gen, lambda data: {"sha256": hashlib.sha256(data).hexdigest(),
                                    "bytes": len(data)})
        for n in args.sizes:
            cert = f"cert-{n}.json"
            cases = case(f"certify n={n}",
                         ["certify", "--n", str(n), "--format", "json", "--out", cert],
                         cert, lambda data: {"sha256": hashlib.sha256(data).hexdigest(),
                                             "bytes": len(data),
                                             "steps": len(json.loads(data)["steps"])})
            live = {label: runs[label] for label, c in cases.items() if c["wall_s"] is not None}
            if n in RECHECK_SIZES and live:
                add(f"recheck n={n}", cli_case(live, f"recheck n={n}",
                                               ["recheck", "--input", cert, "--format", "json"]))
        oracles = [("hilbert", n) for n in args.hilbert] + [("colon", n) for n in args.colon]
        # cheapest first, so the largest hilbert run (which may hit the timeout) ends the list
        for method, n in sorted(oracles, key=lambda c: (c[1], c[0] == "hilbert")):
            report = f"{method}-{n}.json"
            case(f"oracle {method} n={n}",
                 ["oracle", "--method", method, "--n", str(n), "--format", "json",
                  "--out", report],
                 report, lambda data, method=method: {
                     "verdict": json.loads(data)["verdict"],
                     **({"details": json.loads(data)["details"]} if method == "hilbert" else {}),
                     "sha256": hashlib.sha256(data).hexdigest()})
        for n in args.search:
            for method in args.search_method or SEARCH_METHODS:
                report = f"search-{method}-{n}.json"
                case(f"search {method} n={n}",
                     ["search", "--method", method, "--n", str(n), "--format", "json",
                      "--out", report],
                     report, lambda data: {"accepted": json.loads(data)["accepted"],
                                           "sha256": hashlib.sha256(data).hexdigest()})
        for label, name, path, read in outputs:
            records[label]["cases"][name].update(read(path.read_bytes()))

    doc = json.loads(out.read_text()) if out.exists() else {
        "what": "fresh-process wall time and peak RSS of xyreg gen/certify/recheck/oracle runs; "
                "written by benchmarks/bench_e2e.py",
        "runs": {}}
    doc["runs"].update(records)
    out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {out} [{', '.join(records)}]")


if __name__ == "__main__":
    main()
