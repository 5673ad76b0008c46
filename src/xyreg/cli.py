"""Command-line surface.

Subcommands: gen, certify, oracle, counterexample, search, gb, recheck.
``SUBCOMMANDS`` states each one once: its help, the flags it accepts (each
subcommand accepts only the flags it reads) and its ``cmd_*`` function.
A ``cmd_*`` function reads its ring arguments through one check, builds its
report as a JSON payload and as text lines, and leaves through ``_emit``,
which writes the form ``--format`` asks for line by line.  certify hands
over both forms as generators, for its certificate is large: only the form
asked for is rendered, one step at a time, and never held whole.
Exit codes: 0 the checked property holds, 1 it fails, 2 usage error,
3 inconclusive (a resource budget, or memory, ran out before an answer
was reached), 4 an internal cross-check failed, so there is no verdict.
All emissions are UTF-8 and newline-terminated.
``main`` builds its parser once per process, on its first call (importing
the module builds none), and reuses it: each parse fills a fresh
namespace, so no call sees another's flags.
"""

import argparse
import functools
import json
import os
import sys

from .errors import BudgetExceededError, CrossCheckError, ParseError, XyregError
from .fields import DEFAULT_PRIME, PrimeField, field_from_spec
from .groebner import groebner_basis
from .orders import ORDER_NAMES, MonomialOrder
from .pattern import (GenericProduct, PatternSpec, build_ring, certify_pattern,
                      counterexample_2x2, recheck_certificate, selected_entries)
from .poly import _format_terms, format_poly, parse_poly
from .regseq import greedy_extend, sequence_oracle
from .ring import format_monomial

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3
EXIT_CROSS_CHECK = 4


FLAGS = {
    "n": dict(type=int, default=None, help="matrix size (>= 2)"),
    "field": dict(choices=["gfp", "rat"], default=None,
                  help="coefficient domain (default gfp; counterexample defaults to rat)"),
    "prime": dict(type=int, default=DEFAULT_PRIME,
                  help=f"prime for --field gfp (default {DEFAULT_PRIME})"),
    "order": dict(choices=ORDER_NAMES, default="paper",
                  help="monomial order for basis emission (default paper)"),
    "method": dict(choices=["hilbert", "colon"], default="hilbert",
                   help="regularity oracle method (default hilbert)"),
    "input": dict(default=None, metavar="FILE",
                  help="polynomial file, one per line, '#' comments ignored "
                       "(recheck: a certificate JSON file)"),
    "budget-pairs": dict(type=int, default=None, metavar="K",
                         help="abort after considering K critical pairs"),
    "budget-degree": dict(type=int, default=None, metavar="D",
                          help="abort when a critical pair exceeds total degree D"),
    "format": dict(choices=["text", "json"], default="text",
                   help="output format (default text)"),
    "out": dict(default=None, metavar="FILE",
                help="write the emission to FILE instead of stdout"),
}

BUDGETS = ("budget-pairs", "budget-degree")


@functools.cache
def build_parser():
    """The parser of every subcommand, built on the first call and shared by
    every later one, ``main``'s among them, so no caller may change it."""
    parser = argparse.ArgumentParser(
        prog="xyreg",
        description="Regular sequences among the entries of a generic matrix product.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, flags, _) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag in flags:
            p.add_argument(f"--{flag}", **FLAGS[flag])
    return parser


def _emit(args, code, json_lines, lines):
    """Write the report as ``--format`` asks, its JSON text ``json_lines`` or
    its text ``lines``, to ``--out`` or stdout, and return the exit code.

    Both forms are iterables of lines, each written with a newline as it is
    produced, so a generator's report is never held whole.  A ``--out``
    file that anything interrupts is removed, so no partial report is left.
    """
    lines = json_lines if args.format == "json" else lines
    if not args.out:
        sys.stdout.writelines(f"{line}\n" for line in lines)
        return code
    with open(args.out, "w", encoding="utf-8") as fh:
        try:
            fh.writelines(f"{line}\n" for line in lines)
        except BaseException:
            fh.close()
            os.remove(args.out)
            raise
    return code


def _json(payload):
    """``payload``'s indented JSON text as ``_emit`` takes it, rendered only
    when read."""
    yield json.dumps(payload, indent=2)


def _n_and_field(args):
    """(n, field) of a subcommand that takes ``--n``: the field is GF(p)
    unless ``--field rat``, with p > n, and the hilbert oracle needs GF(p)."""
    n = args.n
    if n is None:
        raise ValueError("--n is required for this command")
    if n < 2:
        raise ValueError(f"matrix size must be at least 2, got {n}")
    # ValueError unless --field rat or a prime below 2**31
    field = field_from_spec(args.field or "gfp", args.prime)
    is_prime_field = isinstance(field, PrimeField)
    if is_prime_field and args.prime <= n:
        raise ValueError(f"prime must exceed n={n}")
    if getattr(args, "method", None) == "hilbert" and not is_prime_field:
        raise ValueError("the hilbert oracle requires --field gfp")
    return n, field


def _budgets(args):
    for name in ("budget_pairs", "budget_degree"):
        value = getattr(args, name)
        if value is not None and value <= 0:
            raise ValueError(f"--{name.replace('_', '-')} must be positive")
    return dict(pair_budget=args.budget_pairs, degree_budget=args.budget_degree)


def _read_input_polys(args, table, field, order):
    polys = []
    with open(args.input, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                polys.append(parse_poly(line, table, field, order))
            except ParseError as exc:
                raise ValueError(f"{args.input}:{lineno}: {exc}")
    return polys


def _entry_label(i, j):
    return f"f[{i},{j}]"


def _render_matrix(spec):
    selected = set(spec.positions)
    cells = []
    for i in range(1, spec.n + 1):
        row = []
        for j in range(1, spec.n + 1):
            if (i, j) in selected:
                row.append(f"f{i}{j}" if spec.n <= 9 else f"f({i},{j})")
            else:
                row.append("×")
        cells.append(row)
    width = max(len(c) for row in cells for c in row)
    return "\n".join("  ".join(c.center(width) for c in row) for row in cells)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_gen(args):
    n, field = _n_and_field(args)
    spec = PatternSpec.build(n)
    product = GenericProduct(n, field=field)
    payload = spec.to_json_dict()
    payload["selected"] = [
        {"label": _entry_label(s, t),
         "polynomial": _format_terms(field, product._terms(s, t), product.table)}
        for s, t in spec.positions
    ]
    payload["augmented"] = [
        {"label": (f"y[{a},{b}]" if kind == "y" else _entry_label(a, b)),
         "kind": ("variable" if kind == "y" else "entry")}
        for kind, a, b in spec.augmented
    ]
    lines = [f"selection pattern for n={n}:", _render_matrix(spec), "",
             "selected entries, certification order:"]
    lines += [f"  {e['label']} = {e['polynomial']}" for e in payload["selected"]]
    lines += ["", "augmented ordering (bare variables interleaved):",
              "  " + ", ".join(e["label"] for e in payload["augmented"])]
    return _emit(args, EXIT_OK, _json(payload), lines)


def cmd_certify(args):
    n, field = _n_and_field(args)
    cert = certify_pattern(n, field=field)
    code = EXIT_OK if cert.verdict == "certified" else EXIT_FAIL
    return _emit(args, code, cert.json_lines(), _certificate_lines(cert))


def _certificate_lines(cert):
    """The text form of a certificate, one line per step."""
    yield f"certifying the selected entries for n={cert.n} ({len(cert.steps)} steps):"
    for k, step in enumerate(cert.steps, start=1):
        extra = ""
        if step.kind == "TECHNICAL" and step.subtractions:
            subs = ", ".join(format_monomial(m, cert.table) for m, _ in step.subtractions)
            extra = f" after subtracting multiples of {subs}"
        yield (f"  step {k}: {step.kind} {step.label}, effective lead "
               f"{format_monomial(step.effective_lead, cert.table)}{extra}")
    if cert.verdict == "certified":
        yield "verdict: certified"
        yield cert.note
    else:
        yield (f"verdict: failed at step {cert.failure['step']} "
               f"({cert.failure['condition']})")


def cmd_oracle(args):
    n, field = _n_and_field(args)
    if args.input is None:
        polys = selected_entries(n, field=field)
    else:
        polys = _read_input_polys(args, build_ring(n), field,
                                  MonomialOrder.from_name("paper", n))
    report = sequence_oracle(polys, args.method, **_budgets(args))
    payload = {"method": report.method, "verdict": report.verdict,
               "first_failure": report.first_failure, "details": list(report.details)}
    lines = [f"oracle method: {report.method}", f"verdict: {report.verdict}"]
    if report.first_failure is not None:
        lines.append(f"first failure at index {report.first_failure}")
    lines += [f"  {d}" for d in report.details]
    if report.witness is not None:
        payload["witness"] = {"index": report.first_failure, "u": format_poly(report.witness)}
        lines.append(f"witness at index {report.first_failure}: u = {payload['witness']['u']}")
    return _emit(args, EXIT_OK if report.regular else EXIT_FAIL, _json(payload), lines)


def cmd_counterexample(args):
    report = counterexample_2x2(field=field_from_spec(args.field or "rat", args.prime))
    payload = report.to_json_dict()
    lines = [f"relation: {payload['relation']}",
             f"residue after expansion: {payload['residue']}"]
    lines += [f"  [{'ok' if c['holds'] else 'FAIL'}] {c['claim']}" for c in payload["checks"]]
    lines.append("all checks passed" if payload["passed"] else "CHECKS FAILED")
    return _emit(args, EXIT_OK if payload["passed"] else EXIT_FAIL, _json(payload), lines)


def cmd_search(args):
    n, field = _n_and_field(args)
    spec = PatternSpec.build(n)
    product = GenericProduct(n, field=field)
    base = [product.entry(s, t) for s, t in spec.positions]
    base_labels = [_entry_label(s, t) for s, t in spec.positions]
    selected = set(spec.positions)
    cand_positions = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)
                      if (i, j) not in selected]
    candidates = [product.entry(i, j) for i, j in cand_positions]
    report = greedy_extend(base, candidates, args.method, **_budgets(args))
    accepted = [_entry_label(*cand_positions[k]) for k in report.accepted]
    rejected = [{"entry": _entry_label(*cand_positions[k]), "reason": reason}
                for k, reason in report.rejected]
    payload = {"method": args.method, "base": base_labels, "final_length": len(report.chain),
               "accepted": accepted, "rejected": rejected}
    lines = [f"oracle method: {args.method}",
             f"base sequence ({len(base)}): " + ", ".join(base_labels),
             f"final length: {len(report.chain)}",
             "accepted: " + (", ".join(accepted) if accepted else "none")]
    lines += [f"rejected {item['entry']}: {item['reason']}" for item in rejected]
    return _emit(args, EXIT_OK, _json(payload), lines)


def cmd_recheck(args):
    if args.input is None:
        raise ValueError("recheck requires --input")
    with open(args.input, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise ValueError(f"{args.input}: JSON nested too deeply") from None
    verdict = recheck_certificate(data)
    return _emit(args, EXIT_OK if verdict == "certified" else EXIT_FAIL,
                 _json({"verdict": verdict}), [f"verdict: {verdict}"])


def cmd_gb(args):
    n, field = _n_and_field(args)
    if args.input is None:
        raise ValueError("gb requires --input")
    order = MonomialOrder.from_name(args.order, n)
    polys = [p for p in _read_input_polys(args, build_ring(n), field, order) if not p.is_zero()]
    if not polys:
        raise ValueError("the input contains no nonzero polynomials")
    basis = [format_poly(p) for p in groebner_basis(polys, order, **_budgets(args)).polys]
    return _emit(args, EXIT_OK, _json({"order": args.order, "basis": basis}), basis)


# subcommand -> (help, the flags its cmd_* function reads, that function);
# main calls the function held here, not the module attribute, which
# perfbench's tracer rebinds: a traced run records no cmd_* span
SUBCOMMANDS = {
    "gen": ("emit the product entries, the selection pattern and the "
            "augmented ordering", ("n", "field", "prime", "format", "out"), cmd_gen),
    "certify": ("certify the selected entries step by step",
                ("n", "field", "prime", "format", "out"), cmd_certify),
    "oracle": ("decide regularity of a sequence outright",
               ("n", "field", "prime", "method", "input", *BUDGETS, "format", "out"),
               cmd_oracle),
    "counterexample": ("verify that all four 2x2 product entries fail to be "
                       "a regular sequence", ("field", "prime", "format", "out"),
                       cmd_counterexample),
    "search": ("greedily extend the certified sequence by further product entries",
               ("n", "field", "prime", "method", *BUDGETS, "format", "out"), cmd_search),
    "gb": ("reduced Groebner basis of the polynomials in --input",
           ("n", "field", "prime", "order", "input", *BUDGETS, "format", "out"), cmd_gb),
    "recheck": ("re-certify a certificate JSON file and compare it with the result",
                ("input", "format", "out"), cmd_recheck),
}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        return SUBCOMMANDS[args.command][2](args)
    except BudgetExceededError as exc:  # a XyregError, so ahead of the usage errors
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except MemoryError:
        print("inconclusive: out of memory", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except CrossCheckError as exc:
        print(f"cross-check failed: {exc}", file=sys.stderr)
        return EXIT_CROSS_CHECK
    except (OSError, ValueError, XyregError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
