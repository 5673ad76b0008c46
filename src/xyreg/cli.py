"""Command-line surface.

Subcommands: gen, certify, oracle, counterexample, search, gb, recheck.
Each subcommand accepts only the flags it reads.
Exit codes: 0 the checked property holds, 1 it fails, 2 usage error,
3 inconclusive (a resource budget, or memory, ran out before an answer
was reached), 4 an internal cross-check failed, so there is no verdict.
All emissions are UTF-8 and newline-terminated.
"""

import argparse
import json
import sys

from .errors import BudgetExceededError, CrossCheckError, ParseError, XyregError
from .fields import DEFAULT_PRIME, PrimeField, field_from_spec
from .groebner import groebner_basis
from .orders import ORDER_NAMES, MonomialOrder
from .pattern import (GenericProduct, PatternSpec, build_ring, certify_pattern,
                      counterexample_2x2, recheck_certificate, selected_entries)
from .poly import format_poly, parse_poly
from .regseq import greedy_extend, sequence_oracle
from .ring import format_monomial

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3
EXIT_CROSS_CHECK = 4


class UsageError(Exception):
    pass


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

# subcommand -> (help, the flags its cmd_* function reads)
SUBCOMMANDS = {
    "gen": ("emit the product entries, the selection pattern and the "
            "augmented ordering", ("n", "field", "prime", "format", "out")),
    "certify": ("certify the selected entries step by step",
                ("n", "field", "prime", "format", "out")),
    "oracle": ("decide regularity of a sequence outright",
               ("n", "field", "prime", "method", "input", *BUDGETS, "format", "out")),
    "counterexample": ("verify that all four 2x2 product entries fail to be "
                       "a regular sequence", ("field", "prime", "format", "out")),
    "search": ("greedily extend the certified sequence by further product entries",
               ("n", "field", "prime", "method", *BUDGETS, "format", "out")),
    "gb": ("reduced Groebner basis of the polynomials in --input",
           ("n", "field", "prime", "order", "input", *BUDGETS, "format", "out")),
    "recheck": ("re-certify a certificate JSON file and compare it with the result",
                ("input", "format", "out")),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="xyreg",
        description="Regular sequences among the entries of a generic matrix product.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, flags) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag in flags:
            p.add_argument(f"--{flag}", **FLAGS[flag])
    return parser


def _emit(args, text):
    if not text.endswith("\n"):
        text += "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _require_n(args):
    if args.n is None:
        raise UsageError("--n is required for this command")
    if args.n < 2:
        raise UsageError(f"matrix size must be at least 2, got {args.n}")
    return args.n


def _make_field(args, default_kind="gfp", check_prime_gt=None):
    # ValueError unless --field rat or a prime below 2**31
    field = field_from_spec(args.field or default_kind, args.prime)
    if isinstance(field, PrimeField) and check_prime_gt is not None \
            and args.prime <= check_prime_gt:
        raise UsageError(f"prime must exceed n={check_prime_gt}")
    return field


def _budgets(args):
    for name in ("budget_pairs", "budget_degree"):
        value = getattr(args, name)
        if value is not None and value <= 0:
            raise UsageError(f"--{name.replace('_', '-')} must be positive")
    return dict(pair_budget=args.budget_pairs, degree_budget=args.budget_degree)


def _read_input_polys(args, table, field, order):
    if args.input is None:
        return None
    polys = []
    with open(args.input, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                polys.append(parse_poly(line, table, field, order))
            except ParseError as exc:
                raise UsageError(f"{args.input}:{lineno}: {exc}")
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
    n = _require_n(args)
    field = _make_field(args, check_prime_gt=n)
    spec = PatternSpec.build(n)
    product = GenericProduct(n, field=field)
    if args.format == "json":
        payload = spec.to_json_dict()
        payload["selected"] = [
            {"label": _entry_label(s, t), "polynomial": format_poly(product.entry(s, t))}
            for s, t in spec.positions
        ]
        payload["augmented"] = [
            {"label": (f"y[{a},{b}]" if kind == "y" else _entry_label(a, b)),
             "kind": ("variable" if kind == "y" else "entry")}
            for kind, a, b in spec.augmented
        ]
        _emit(args, json.dumps(payload, indent=2))
        return EXIT_OK
    lines = [f"selection pattern for n={n}:", _render_matrix(spec), ""]
    lines.append("selected entries, certification order:")
    for s, t in spec.positions:
        lines.append(f"  {_entry_label(s, t)} = {format_poly(product.entry(s, t))}")
    lines.append("")
    lines.append("augmented ordering (bare variables interleaved):")
    labels = [(f"y[{a},{b}]" if kind == "y" else _entry_label(a, b))
              for kind, a, b in spec.augmented]
    lines.append("  " + ", ".join(labels))
    _emit(args, "\n".join(lines))
    return EXIT_OK


def cmd_certify(args):
    n = _require_n(args)
    field = _make_field(args, check_prime_gt=n)
    cert = certify_pattern(n, field=field)
    if args.format == "json":
        _emit(args, json.dumps(cert.to_json_dict(), indent=2))
    else:
        lines = [f"certifying the selected entries for n={n} "
                 f"({len(cert.steps)} steps):"]
        for k, step in enumerate(cert.steps, start=1):
            extra = ""
            if step.kind == "TECHNICAL" and step.subtractions:
                subs = ", ".join(format_monomial(m, cert.table)
                                 for m, _ in step.subtractions)
                extra = f" after subtracting multiples of {subs}"
            lines.append(f"  step {k}: {step.kind} {step.label}, effective lead "
                         f"{format_monomial(step.effective_lead, cert.table)}{extra}")
        if cert.verdict == "certified":
            lines.append("verdict: certified")
            lines.append(cert.note)
        else:
            lines.append(f"verdict: failed at step {cert.failure['step']} "
                         f"({cert.failure['condition']})")
        _emit(args, "\n".join(lines))
    return EXIT_OK if cert.verdict == "certified" else EXIT_FAIL


def cmd_oracle(args):
    n = _require_n(args)
    field = _make_field(args, check_prime_gt=n)
    if args.method == "hilbert" and not isinstance(field, PrimeField):
        raise UsageError("the hilbert oracle requires --field gfp")
    table = build_ring(n)
    order = MonomialOrder.from_name("paper", n)
    polys = _read_input_polys(args, table, field, order)
    if polys is None:
        polys = selected_entries(n, field=field)
    report = sequence_oracle(polys, args.method, **_budgets(args))
    if args.format == "json":
        payload = {"method": report.method, "verdict": report.verdict,
                   "first_failure": report.first_failure,
                   "details": list(report.details)}
        if report.witness is not None:
            payload["witness"] = {"index": report.first_failure,
                                  "u": format_poly(report.witness)}
        _emit(args, json.dumps(payload, indent=2))
    else:
        lines = [f"oracle method: {report.method}", f"verdict: {report.verdict}"]
        if report.first_failure is not None:
            lines.append(f"first failure at index {report.first_failure}")
        lines += [f"  {d}" for d in report.details]
        if report.witness is not None:
            lines.append(f"witness at index {report.first_failure}: "
                         f"u = {format_poly(report.witness)}")
        _emit(args, "\n".join(lines))
    return EXIT_OK if report.regular else EXIT_FAIL


def cmd_counterexample(args):
    field = _make_field(args, default_kind="rat")
    report = counterexample_2x2(field=field)
    if args.format == "json":
        _emit(args, json.dumps(report.to_json_dict(), indent=2))
    else:
        lines = [f"relation: {report.relation}",
                 f"residue after expansion: {report.residue}"]
        for claim, ok in report.checks:
            lines.append(f"  [{'ok' if ok else 'FAIL'}] {claim}")
        lines.append("all checks passed" if report.passed else "CHECKS FAILED")
        _emit(args, "\n".join(lines))
    return EXIT_OK if report.passed else EXIT_FAIL


def cmd_search(args):
    n = _require_n(args)
    field = _make_field(args, check_prime_gt=n)
    if args.method == "hilbert" and not isinstance(field, PrimeField):
        raise UsageError("the hilbert oracle requires --field gfp")
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
    if args.format == "json":
        payload = {"method": args.method, "base": base_labels,
                   "final_length": len(report.chain),
                   "accepted": accepted, "rejected": rejected}
        _emit(args, json.dumps(payload, indent=2))
    else:
        lines = [f"oracle method: {args.method}",
                 f"base sequence ({len(base)}): " + ", ".join(base_labels),
                 f"final length: {len(report.chain)}"]
        lines.append("accepted: " + (", ".join(accepted) if accepted else "none"))
        for item in rejected:
            lines.append(f"rejected {item['entry']}: {item['reason']}")
        _emit(args, "\n".join(lines))
    return EXIT_OK


def cmd_recheck(args):
    if args.input is None:
        raise UsageError("recheck requires --input")
    with open(args.input, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise UsageError(f"{args.input}: JSON nested too deeply") from None
    verdict = recheck_certificate(data)
    if args.format == "json":
        _emit(args, json.dumps({"verdict": verdict}, indent=2))
    else:
        _emit(args, f"verdict: {verdict}")
    return EXIT_OK if verdict == "certified" else EXIT_FAIL


def cmd_gb(args):
    n = _require_n(args)
    field = _make_field(args, check_prime_gt=n)
    if args.input is None:
        raise UsageError("gb requires --input")
    table = build_ring(n)
    order = MonomialOrder.from_name(args.order, n)
    polys = _read_input_polys(args, table, field, order)
    polys = [p for p in polys if not p.is_zero()]
    if not polys:
        raise UsageError("the input contains no nonzero polynomials")
    gb = groebner_basis(polys, order, **_budgets(args))
    if args.format == "json":
        payload = {"order": args.order,
                   "basis": [format_poly(p) for p in gb.polys]}
        _emit(args, json.dumps(payload, indent=2))
    else:
        _emit(args, "\n".join(format_poly(p) for p in gb.polys))
    return EXIT_OK


DISPATCH = {
    "gen": cmd_gen,
    "certify": cmd_certify,
    "oracle": cmd_oracle,
    "counterexample": cmd_counterexample,
    "search": cmd_search,
    "gb": cmd_gb,
    "recheck": cmd_recheck,
}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        return DISPATCH[args.command](args)
    except BudgetExceededError as exc:  # a XyregError, so ahead of the usage errors
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except MemoryError:
        print("inconclusive: out of memory", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except CrossCheckError as exc:
        print(f"cross-check failed: {exc}", file=sys.stderr)
        return EXIT_CROSS_CHECK
    except (UsageError, OSError, ValueError, XyregError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
