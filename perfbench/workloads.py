"""The benchmark workloads: their CLI cases, inputs and known answers.

A case is one ``xyreg`` command line.  Every case runs through
``xyreg.cli.main`` with ``--format json --out <file>``, and its exit code and
JSON emission are checked against an answer fixed before the run.

``certify`` does no Groebner work; ``oracles`` is the union of the three
oracle families ``hilbert``, ``colon`` and ``rational``, which also run on
their own.  Every case takes at most a few seconds, so one run repeats each
case many times (see ``run.py``).

The seed permutes the order of the polynomials in the ``--input`` file of
every oracle case but one, afresh for every pass of a run
(``write_pass_inputs``); seed 0 is pattern order everywhere.  The colon
oracle on all nine 3x3 entries keeps pattern order: its cost moves with the
order (0.6 s to 3.7 s over eight orders on a 2-core x86 box), and so does
the index of its first failure.  On the other cases the permutations check
that no verdict depends on the order, and their cost moves little.

Importing this module imports ``xyreg.cli``; ``build_workload`` writes the
input files.  Together they are the set-up a one-shot CLI user pays.
"""

import functools
import json
import random
from dataclasses import dataclass, replace

import xyreg.cli
from xyreg.pattern import PatternSpec, build_ring, expected_effective_lead
from xyreg.ring import format_monomial

ORACLE_FAMILIES = ("hilbert", "colon", "rational")
ORACLES_LARGEST = "hilbert-n4"
WORKLOADS = ("certify", "oracles") + ORACLE_FAMILIES


class Mismatch(Exception):
    """A case's exit code or output differs from its known answer."""


def _require(ok, message):
    if not ok:
        raise Mismatch(message)


@functools.lru_cache(maxsize=None)
def certify_steps(n):
    """(label, effective lead) of every step of the augmented walk for n."""
    table = build_ring(n)
    steps = []
    for kind, a, b in PatternSpec.build(n).augmented:
        if kind == "y":
            steps.append((f"y[{a},{b}]", f"y[{a},{b}]"))
        else:
            lead = expected_effective_lead(n, a, b)
            steps.append((f"f[{a},{b}]", format_monomial(lead, table)))
    return tuple(steps)


@dataclass(frozen=True)
class CertifyAnswer:
    """Verdict ``certified``; the steps follow the augmented walk and every
    effective lead equals its closed-form prediction."""

    n: int

    def check(self, rc, payload):
        _require(rc == 0, f"exit code {rc}, expected 0")
        _require(payload["verdict"] == "certified",
                 f"verdict {payload['verdict']!r}, expected 'certified'")
        got = payload["steps"]
        expected = certify_steps(self.n)
        _require(len(got) == len(expected),
                 f"{len(got)} steps, expected {len(expected)}")
        for k, (step, (label, lead)) in enumerate(zip(got, expected), start=1):
            _require(step["label"] == label,
                     f"step {k} is {step['label']}, expected {label}")
            _require(step["effective_lead"] == lead,
                     f"step {k} ({label}) has effective lead "
                     f"{step['effective_lead']}, expected {lead}")


@dataclass(frozen=True)
class OracleAnswer:
    """The oracle verdict, its exit code, for a regular colon run one detail
    line per input polynomial, and the first failure where it is known."""

    method: str
    regular: bool
    length: int
    first_failure: object = None  # 1-based index, or None when not checked

    def check(self, rc, payload):
        verdict = "regular" if self.regular else "not-regular"
        _require(payload["method"] == self.method,
                 f"method {payload['method']!r}, expected {self.method!r}")
        _require(payload["verdict"] == verdict,
                 f"verdict {payload['verdict']!r}, expected {verdict!r}")
        _require(rc == (0 if self.regular else 1),
                 f"exit code {rc} for verdict {verdict}")
        if self.first_failure is not None:
            _require(payload["first_failure"] == self.first_failure,
                     f"first failure {payload['first_failure']}, "
                     f"expected {self.first_failure}")
        if self.regular:
            _require(payload["first_failure"] is None,
                     f"first failure {payload['first_failure']} on a regular sequence")
            if self.method == "colon":
                _require(len(payload["details"]) == self.length,
                         f"{len(payload['details'])} colon steps, expected {self.length}")


@dataclass(frozen=True)
class CounterexampleAnswer:
    """The 2x2 relation holds and every witness claim checks out."""

    claims: int = 6

    def check(self, rc, payload):
        _require(rc == 0, f"exit code {rc}, expected 0")
        _require(payload["passed"] is True, "the counterexample did not pass")
        failed = [c["claim"] for c in payload["checks"] if not c["holds"]]
        _require(not failed, f"claims failed: {failed}")
        _require(len(payload["checks"]) == self.claims,
                 f"{len(payload['checks'])} claims, expected {self.claims}")


@dataclass(frozen=True)
class Case:
    name: str
    n: int
    argv: tuple     # the command line, without --format and --out
    answer: object  # has check(rc, payload), raising Mismatch
    largest: bool = False
    permuted: tuple = ()  # (input path, positions) when the seed permutes it


def entry_text(n, i, j):
    """f[i,j] = sum_k x[i,k]*y[k,j], written from the closed form."""
    return " + ".join(f"x[{i},{k}]*y[{k},{j}]" for k in range(1, n + 1))


def selected_positions(n):
    return list(PatternSpec.build(n).positions)


def all_positions(n):
    return [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]


def _write_input(path, n, positions, rng):
    order = list(range(len(positions)))
    if rng is not None:
        rng.shuffle(order)
    lines = [f"# {path.stem}"] + [entry_text(n, *positions[k]) for k in order]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def write_pass_inputs(cases, seed, pass_no):
    """Write the ``--input`` file of every permuted case for one pass of a
    run: pattern order for seed 0, otherwise an order drawn from
    (seed, pass)."""
    for case in cases:
        if case.permuted:
            path, positions = case.permuted
            rng = random.Random(f"{seed}:{pass_no}") if seed else None
            _write_input(path, case.n, positions, rng)


def build_workload(workload, seed, workdir):
    """The cases of one workload, in run order, with the input files of the
    first pass written under ``workdir``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    if workload == "oracles":
        cases = [c for part in ORACLE_FAMILIES
                 for c in build_workload(part, seed, workdir)]
        return [replace(c, largest=(c.name == ORACLES_LARGEST))
                for c in cases]
    cases = []

    def oracle(name, n, method, positions, regular, field="gfp", largest=False,
               first_failure=None):
        path = workdir / f"{name}.txt"
        _write_input(path, n, positions, None)
        argv = ("oracle", "--method", method, "--n", str(n), "--field", field,
                "--input", str(path))
        answer = OracleAnswer(method, regular, len(positions), first_failure)
        fixed_order = first_failure is not None
        cases.append(Case(name, n, argv, answer, largest=largest,
                          permuted=() if fixed_order else (path, tuple(positions))))

    if workload == "certify":
        for n in (8, 12, 16):
            cases.append(Case(f"certify-n{n}", n, ("certify", "--n", str(n)),
                              CertifyAnswer(n), largest=(n == 16)))
    elif workload == "hilbert":
        oracle("hilbert-n3", 3, "hilbert", selected_positions(3), True)
        oracle("hilbert-n4", 4, "hilbert", selected_positions(4), True, largest=True)
        oracle("hilbert-full3x3", 3, "hilbert", all_positions(3), False)
    elif workload == "colon":
        oracle("colon-n3", 3, "colon", selected_positions(3), True)
        # In pattern order f[2,3], at index 6, is the first zerodivisor.
        oracle("colon-full3x3", 3, "colon", all_positions(3), False, largest=True,
               first_failure=6)
    else:
        # The verdicts over Q are the ones the GF(p) cases give too.
        cases.append(Case("counterexample", 2, ("counterexample",),
                          CounterexampleAnswer()))
        oracle("rat-colon-n3", 3, "colon", selected_positions(3), True, field="rat",
               largest=True)
    write_pass_inputs(cases, seed, 0)
    return cases


def warmup_cases(workload, workdir):
    """n=2 cases down the same code paths, run once before timing starts."""
    if workload == "certify":
        return [Case("warmup-certify", 2, ("certify", "--n", "2"), CertifyAnswer(2))]
    families = ORACLE_FAMILIES if workload == "oracles" else (workload,)
    positions = selected_positions(2)
    cases = []
    for family in families:
        method, field = {"hilbert": ("hilbert", "gfp"), "colon": ("colon", "gfp"),
                         "rational": ("colon", "rat")}[family]
        name = f"warmup-{family}"
        path = _write_input(workdir / f"{name}.txt", 2, positions, None)
        argv = ("oracle", "--method", method, "--n", "2", "--field", field,
                "--input", path)
        cases.append(Case(name, 2, argv, OracleAnswer(method, True, len(positions))))
    return cases


def run_case(case, out_path):
    """Run one case through the CLI entry point and return its exit code.

    ``xyreg.cli.main`` is looked up at call time, so a tracer that rebinds
    it sees the call.
    """
    return xyreg.cli.main(list(case.argv) + ["--format", "json", "--out", str(out_path)])


def check_case(case, rc, out_path):
    """Raise Mismatch unless the case's exit code and output match its answer."""
    try:
        with open(out_path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as exc:
        raise Mismatch(f"no readable JSON output: {exc}") from exc
    case.answer.check(rc, payload)
