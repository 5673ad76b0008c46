"""The product-entry pattern and its end-to-end certification.

For two generic n x n matrices X and Y, the entries of the product are the
bilinear quadrics f[i,j] = sum_k x[i,k]*y[k,j].  Within column t the rows
1, 1+t, 1+2t, ..., column_limit(n, t) are selected, where

    column_limit(n, t) = 1 + (floor(n/t) - 1) * t,

so column t contributes floor(n/t) entries and the last column exactly one.
The selected entries, walked column by column and interleaved with a handful
of bare y variables, certify as a regular sequence step by step: each bare
variable extends by coprimality, and each selected entry sheds its
bare-divisible terms to expose the effective lead

    x[s, s+t-1] * y[s+t-1, t]      (t >= 2; x[s,s] * y[s,1] for t = 1),

which is coprime to everything certified before it.
"""

import json
from dataclasses import dataclass

import numpy as np

from .errors import CertificateFormatError, CertificationError
from .fields import DEFAULT_PRIME, PrimeField, QQ, field_from_spec
from .groebner import groebner_basis, normal_form
from .orders import MonomialOrder
from .poly import Polynomial, format_poly
from .regseq import (ROLE_BARE, ROLE_BASE, ROLE_TECHNICAL, RegularityCertificate,
                     check_technical_step, coprime_extend_element)
from .ring import Monomial, VariableTable, format_monomial

PERMUTATION_NOTE = (
    "Certified for the augmented ordered sequence; every element is "
    "homogeneous, and a homogeneous regular sequence stays regular under "
    "any permutation, so the selected entries alone form a regular "
    "sequence in any order.  This reduction is cited, not re-proved."
)


def build_ring(n):
    """Variable table of the 2n^2 indeterminates; n >= 2."""
    return VariableTable.xy(n)


def certification_order(n):
    """The lexicographic diagonal-first order the certification runs under."""
    return MonomialOrder.paper(n)


class GenericProduct:
    """Entries of X*Y over a fixed table, field and order, with caching."""

    def __init__(self, n, field=None, order=None):
        self.n = n
        self.table = build_ring(n)
        self.field = field if field is not None else PrimeField(DEFAULT_PRIME)
        self.order = order if order is not None else certification_order(n)
        self._cache = {}

    def x(self, i, j):
        return Polynomial.variable(self.table, self.field, self.order,
                                   self.table.slot("x", i, j))

    def y(self, i, j):
        return Polynomial.variable(self.table, self.field, self.order,
                                   self.table.slot("y", i, j))

    def entry(self, i, j):
        """f[i,j] = sum_k x[i,k]*y[k,j]: homogeneous of degree 2, n terms."""
        key = (i, j)
        if key not in self._cache:
            n = self.n
            terms = []
            one = self.field.one
            for k in range(1, n + 1):
                e = np.zeros(self.table.nvars, dtype=np.int64)
                e[self.table.slot("x", i, k)] += 1
                e[self.table.slot("y", k, j)] += 1
                terms.append((one, e))
            self._cache[key] = Polynomial.from_terms(self.table, self.field,
                                                     self.order, terms)
        return self._cache[key]


def column_limit(n, t):
    """Last selected row of column t: 1 + (floor(n/t) - 1)*t; 1 for t = n."""
    if not 1 <= t <= n:
        raise ValueError(f"column {t} outside 1..{n}")
    return 1 + (n // t - 1) * t


def selected_rows(n, t):
    """Rows selected in column t: the progression 1, 1+t, ..., column_limit."""
    return tuple(range(1, column_limit(n, t) + 1, t))


@dataclass(frozen=True)
class PatternSpec:
    """The selection pattern: per-column limits and rows, plus the flattened
    orderings (selected entries, and the variable-augmented walk)."""

    n: int
    column_limits: tuple
    rows_by_column: tuple
    positions: tuple   # ordered (row, column) pairs of selected entries
    augmented: tuple   # ordered items ("y", i, t) and ("f", s, t)

    @classmethod
    def build(cls, n):
        if n < 2:
            raise ValueError(f"matrix size must be at least 2, got {n}")
        limits = tuple(column_limit(n, t) for t in range(1, n + 1))
        rows = tuple(selected_rows(n, t) for t in range(1, n + 1))
        positions = tuple((s, t) for t in range(1, n + 1) for s in rows[t - 1])
        augmented = []
        for t in range(1, n + 1):
            for s in rows[t - 1]:
                if t >= 2:
                    augmented += [("y", i, t) for i in range(s, s + t - 1)]
                augmented.append(("f", s, t))
        return cls(n=n, column_limits=limits, rows_by_column=rows,
                   positions=positions, augmented=tuple(augmented))

    def to_json_dict(self):
        return {
            "n": self.n,
            "column_limits": list(self.column_limits),
            "rows_by_column": [list(r) for r in self.rows_by_column],
            "positions": [list(p) for p in self.positions],
            "augmented": [list(item) for item in self.augmented],
        }


def selected_entries(n, field=None, order=None):
    """The selected product entries as polynomials, in pattern order."""
    product = GenericProduct(n, field, order)
    return [product.entry(s, t) for s, t in PatternSpec.build(n).positions]


def augmented_sequence(n, field=None, order=None):
    """The certification walk: selected entries with their bare y variables
    interleaved immediately before each entry."""
    product = GenericProduct(n, field, order)
    out = []
    for item in PatternSpec.build(n).augmented:
        if item[0] == "y":
            out.append(product.y(item[1], item[2]))
        else:
            out.append(product.entry(item[1], item[2]))
    return out


def expected_effective_lead(n, s, t):
    """Predicted effective lead of the entry at selected position (s, t)."""
    if not 1 <= t <= n:
        raise ValueError(f"column {t} outside 1..{n}")
    if s not in selected_rows(n, t):
        raise ValueError(f"row {s} is not selected in column {t} for n={n}")
    table = build_ring(n)
    e = np.zeros(table.nvars, dtype=np.int64)
    if t == 1:
        e[table.slot("x", s, s)] += 1
        e[table.slot("y", s, 1)] += 1
    else:
        e[table.slot("x", s, s + t - 1)] += 1
        e[table.slot("y", s + t - 1, t)] += 1
    return Monomial(e)


def certify_pattern(n, field=None):
    """Walk the augmented sequence and certify each step, checking every
    computed effective lead against its prediction.  Returns the full
    certificate; a failure on valid input would be a bug, and is reported
    as a failed verdict with the step index and violated condition."""
    field = field if field is not None else PrimeField(DEFAULT_PRIME)
    order = certification_order(n)
    product = GenericProduct(n, field=field, order=order)
    spec = PatternSpec.build(n)
    if isinstance(field, PrimeField):
        field_spec = {"kind": "gfp", "prime": field.p}
    else:
        field_spec = {"kind": "rat"}
    cert = RegularityCertificate(n=n, order_name="paper", field_spec=field_spec,
                                 table=product.table, steps=[],
                                 verdict="certified", note=PERMUTATION_NOTE)
    for idx, (kind, a, t) in enumerate(spec.augmented, start=1):
        label = f"{kind}[{a},{t}]"
        try:
            if kind == "y":
                step = coprime_extend_element(cert.steps, product.y(a, t), order,
                                              role=ROLE_BARE, label=label)
            else:
                role = ROLE_BASE if t == 1 else ROLE_TECHNICAL
                step = check_technical_step(cert.steps, product.entry(a, t), order,
                                            role=role, label=label)
                predicted = expected_effective_lead(n, a, t)
                if step.effective_lead != predicted:
                    raise CertificationError(
                        "lead_prediction",
                        f"effective lead of {label} is "
                        f"{format_monomial(step.effective_lead, product.table)}, "
                        f"predicted {format_monomial(predicted, product.table)}")
                step.checks["lead_matches_prediction"] = True
            cert.steps.append(step)
        except CertificationError as exc:
            cert.verdict = "failed"
            cert.failure = {"step": idx, "condition": exc.condition,
                            "message": str(exc)}
            break
    return cert


CERTIFICATE_KEYS = ("n", "order", "field", "steps", "verdict")


def _certificate_inputs(data):
    """The (n, field) a serialized certificate claims to certify.

    Raises CertificateFormatError when ``data`` is not a JSON object with
    the certificate keys, an integer ``n >= 2`` and a known field spec.
    """
    if not isinstance(data, dict):
        raise CertificateFormatError("a certificate is a JSON object")
    missing = [key for key in CERTIFICATE_KEYS if key not in data]
    if missing:
        raise CertificateFormatError(f"missing key {missing[0]!r}")
    n = data["n"]
    if type(n) is not int or n < 2:
        raise CertificateFormatError(f"n must be an integer >= 2, got {n!r}")
    spec = data["field"]
    if not isinstance(spec, dict):
        raise CertificateFormatError("field must be a JSON object")
    try:
        return n, field_from_spec(spec.get("kind"), spec.get("prime"))
    except (TypeError, ValueError) as exc:
        raise CertificateFormatError(f"bad field {spec!r}: {exc}") from None


def recheck_certificate(data):
    """Re-certify the pattern a serialized certificate names, and compare.

    A certificate is a deterministic function of its size ``n`` and its
    field, so only those two are read from ``data``: :func:`certify_pattern`
    runs again, and the result is "certified" only when that run certifies
    and its JSON form equals ``data`` exactly (as canonical JSON, so ``true``
    and ``1`` differ).  A ``steps`` list whose length is not the walk's
    fails before anything is re-certified, so the input's size bounds the
    ``n`` that is re-certified.  Anything else -- a changed, missing, extra or
    reordered step, check or verdict -- gives "failed".  Raises
    CertificateFormatError when ``data`` is not shaped like a certificate.
    """
    n, field = _certificate_inputs(data)
    # every walk has at least n(n+1)/2 steps, so testing that first keeps the
    # work done before certify_pattern within the size of the input
    steps = data["steps"]
    if (not isinstance(steps, list) or len(steps) < n * (n + 1) // 2
            or len(steps) != len(PatternSpec.build(n).augmented)):
        return "failed"
    fresh = certify_pattern(n, field)
    if fresh.verdict != "certified":
        return "failed"
    same = (json.dumps(data, sort_keys=True)
            == json.dumps(fresh.to_json_dict(), sort_keys=True))
    return "certified" if same else "failed"


# ---------------------------------------------------------------------------
# the 2x2 counterexample
# ---------------------------------------------------------------------------


@dataclass
class CounterexampleReport:
    relation: str
    residue: str
    checks: list  # of (claim, bool)
    passed: bool

    def to_json_dict(self):
        return {
            "relation": self.relation,
            "residue": self.residue,
            "checks": [{"claim": c, "holds": bool(ok)} for c, ok in self.checks],
            "passed": bool(self.passed),
        }


def counterexample_2x2(field=None):
    """Certify that the four entries of a 2x2 product are not regular.

    Verifies the exact relation

        x[1,2]*y[2,1]*f[2,2] + x[1,1]*y[1,2]*f[2,1]
          - x[2,2]*y[2,1]*f[1,2] - x[2,1]*y[1,2]*f[1,1] = 0,

    whose last cofactor x[2,1]*y[1,2] lies outside <f12, f21, f22>, so f11
    is a zerodivisor modulo the other three entries.  The symmetric witness
    x[1,1]*y[2,1] * f22 in <f11, f12, f21> (with the cofactor itself outside)
    exhibits the failure at the fourth position of the row-major ordering.
    """
    field = field if field is not None else QQ
    prod = GenericProduct(2, field=field)
    f11, f12 = prod.entry(1, 1), prod.entry(1, 2)
    f21, f22 = prod.entry(2, 1), prod.entry(2, 2)
    c_2112 = prod.x(1, 2) * prod.y(2, 1)
    c_1112 = prod.x(1, 1) * prod.y(1, 2)
    c_2221 = prod.x(2, 2) * prod.y(2, 1)
    c_2112b = prod.x(2, 1) * prod.y(1, 2)
    witness_last = prod.x(1, 1) * prod.y(2, 1)

    residue = c_2112 * f22 + c_1112 * f21 - c_2221 * f12 - c_2112b * f11

    gb_first = groebner_basis([f11, f12, f21])
    gb_last = groebner_basis([f12, f21, f22])

    checks = [
        ("the relation sums to the zero polynomial", residue.is_zero()),
        ("x[2,1]*y[1,2] lies outside <f[1,1], f[1,2], f[2,1]>",
         not normal_form(c_2112b, gb_first).is_zero()),
        ("x[2,1]*y[1,2] lies outside <f[1,2], f[2,1], f[2,2]>",
         not normal_form(c_2112b, gb_last).is_zero()),
        ("x[2,1]*y[1,2] * f[1,1] lies in <f[1,2], f[2,1], f[2,2]>",
         normal_form(c_2112b * f11, gb_last).is_zero()),
        ("x[1,1]*y[2,1] lies outside <f[1,1], f[1,2], f[2,1]>",
         not normal_form(witness_last, gb_first).is_zero()),
        ("x[1,1]*y[2,1] * f[2,2] lies in <f[1,1], f[1,2], f[2,1]>",
         normal_form(witness_last * f22, gb_first).is_zero()),
    ]
    return CounterexampleReport(
        relation=("x[1,2]*y[2,1]*f[2,2] + x[1,1]*y[1,2]*f[2,1] "
                  "- x[2,2]*y[2,1]*f[1,2] - x[2,1]*y[1,2]*f[1,1] = 0"),
        residue=format_poly(residue),
        checks=checks,
        passed=all(ok for _, ok in checks),
    )
