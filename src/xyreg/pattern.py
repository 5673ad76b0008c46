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

An entry is built once, by :class:`GenericProduct`, as its n terms in
descending paper order.  The certificate walk, its recheck and ``gen`` read
those terms as they are, and only Groebner work (the oracles, search and the
2x2 counterexample) turns them into a dense :class:`Polynomial`.  A certify
or recheck run builds one product, so one variable table and one order.
"""

from dataclasses import dataclass

import numpy as np

from .errors import CertificateFormatError, CertificationError
from .fields import DEFAULT_PRIME, PrimeField, QQ, field_from_spec
from .groebner import groebner_basis, normal_form
from .orders import MonomialOrder
from .poly import Polynomial, format_poly
from .regseq import (ROLE_BARE, ROLE_BASE, ROLE_TECHNICAL, RegularityCertificate,
                     SparsePolynomial, _PriorLeads, _canonical_json, check_technical_step,
                     coprime_extend_element)
from .ring import VariableTable, _xy_slot, format_monomial

PERMUTATION_NOTE = (
    "Certified for the augmented ordered sequence; every element is "
    "homogeneous, and a homogeneous regular sequence stays regular under "
    "any permutation, so the selected entries alone form a regular "
    "sequence in any order.  This reduction is cited, not re-proved."
)


def build_ring(n):
    """Variable table of the 2n^2 indeterminates; n >= 2."""
    return VariableTable.xy(n)


class GenericProduct:
    """Entries of X*Y over one table and field, under the paper order.

    An entry is built one way, as its terms in descending paper order
    (:meth:`_terms`): the certificate walk and ``gen`` read those terms as
    they are, and :meth:`entry` copies them into the dense exponent rows
    that Groebner work needs.
    """

    def __init__(self, n, field=None):
        self.n = n
        self.table = build_ring(n)
        self.field = field if field is not None else PrimeField(DEFAULT_PRIME)
        self.order = MonomialOrder.from_name("paper", n)
        self._var = [(v, 1) for v in range(self.table.nvars)]

    def x(self, i, j):
        return Polynomial.variable(self.table, self.field, self.order,
                                   self.table.slot("x", i, j))

    def y(self, i, j):
        return Polynomial.variable(self.table, self.field, self.order,
                                   self.table.slot("y", i, j))

    def _terms(self, i, j):
        """f[i,j]'s (coefficient, support) terms in descending paper order.

        Every x ranks above every y in the paper order, so the terms
        x[i,k]*y[k,j] rank by x[i,k]: the diagonal k = i first, then the
        superdiagonals k = i+1..n, then the subdiagonal k = 1..i-1.  A
        support's pair (v, 1) is ``_var[v]``, shared by every term that
        uses slot v.
        """
        n, var, one = self.n, self._var, self.field.one
        x = _xy_slot(n, "x", i, 1) - 1  # x[i,k] is slot x + k
        y = _xy_slot(n, "y", 1, j) - n  # y[k,j] is slot y + k*n
        return tuple((one, (var[x + k], var[y + k * n]))
                     for k in (*range(i, n + 1), *range(1, i)))

    def entry(self, i, j):
        """f[i,j] = sum_k x[i,k]*y[k,j]: homogeneous of degree 2, n terms.

        The rows are :meth:`_terms` in their order, which is descending
        (the certificate walk's tail check confirms it at every step), so
        nothing is sorted."""
        terms = self._terms(i, j)
        exps = np.zeros((self.n, self.table.nvars), dtype=np.int64)
        for row, (_, support) in enumerate(terms):
            exps[row, [v for v, _ in support]] = 1
        return Polynomial(self.table, self.field, self.order, exps,
                          self.field.array([c for c, _ in terms]))


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


def selected_entries(n, field=None):
    """The selected product entries as polynomials under the paper order, in
    pattern order."""
    product = GenericProduct(n, field)
    return [product.entry(s, t) for s, t in PatternSpec.build(n).positions]


def expected_effective_lead(n, s, t):
    """Predicted effective lead of the entry at selected position (s, t), as
    a support."""
    if not 1 <= t <= n:
        raise ValueError(f"column {t} outside 1..{n}")
    if s not in selected_rows(n, t):
        raise ValueError(f"row {s} is not selected in column {t} for n={n}")
    k = s + t - 1  # x[s,s]*y[s,1] when t = 1
    return ((_xy_slot(n, "x", s, k), 1), (_xy_slot(n, "y", k, t), 1))


def _empty_certificate(product):
    """A "certified" certificate for ``product``'s pattern with no steps yet."""
    field = product.field
    if isinstance(field, PrimeField):
        field_spec = {"kind": "gfp", "prime": field.p}
    else:
        field_spec = {"kind": "rat"}
    return RegularityCertificate(n=product.n, order_name="paper", field_spec=field_spec,
                                 table=product.table, steps=[],
                                 verdict="certified", note=PERMUTATION_NOTE)


def _certified_steps(product):
    """Certify ``product``'s augmented walk one step at a time, yielding
    each step.

    Every element is built as a SparsePolynomial from the product's terms,
    so the walk holds no dense exponent row, and it keeps the effective
    leads, not the steps: a step the caller drops is freed.  Every computed
    effective lead is checked against its prediction.  Raises
    CertificationError at the first step that fails; the steps yielded
    before it are certified.
    """
    n, table, field, order = product.n, product.table, product.field, product.order
    var = product._var
    prior = _PriorLeads()
    for kind, a, t in PatternSpec.build(n).augmented:
        label = f"{kind}[{a},{t}]"
        if kind == "y":
            y = SparsePolynomial(table, field, order,
                                 ((field.one, (var[_xy_slot(n, "y", a, t)],)),))
            step = coprime_extend_element(prior, y, role=ROLE_BARE, label=label)
        else:
            role = ROLE_BASE if t == 1 else ROLE_TECHNICAL
            entry = SparsePolynomial(table, field, order, product._terms(a, t))
            step = check_technical_step(prior, entry, role=role, label=label)
            predicted = expected_effective_lead(n, a, t)
            if step.effective_lead != predicted:
                raise CertificationError(
                    "lead_prediction",
                    f"effective lead of {label} is "
                    f"{format_monomial(step.effective_lead, table)}, "
                    f"predicted {format_monomial(predicted, table)}")
            step.checks["lead_matches_prediction"] = True
        prior.append(step)
        yield step


def certify_pattern(n, field=None):
    """Walk the augmented sequence and certify each step, checking every
    computed effective lead against its prediction.  Returns the full
    certificate; a failure on valid input would be a bug, and is reported
    as a failed verdict with the step index and violated condition."""
    product = GenericProduct(n, field)
    cert = _empty_certificate(product)
    try:
        for step in _certified_steps(product):
            cert.steps.append(step)
    except CertificationError as exc:
        cert.verdict = "failed"
        cert.failure = {"step": len(cert.steps) + 1, "condition": exc.condition,
                        "message": str(exc)}
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
    field, so only those two are read from ``data``: the pattern is
    certified again, and the result is "certified" only when that run
    certifies and its JSON form equals ``data`` exactly (as canonical JSON,
    so ``true`` and ``1`` differ).  A ``steps`` list whose length is not the
    walk's fails before anything is re-certified, and each fresh step is
    compared with the input's step at its index as soon as it is certified,
    so the run stops at the first step that differs.  Anything else -- a
    changed, missing, extra or reordered step, check or verdict -- gives
    "failed".  Raises CertificateFormatError when ``data`` is not shaped like
    a certificate.
    """
    n, field = _certificate_inputs(data)
    # every walk has at least n(n+1)/2 steps, so testing that first keeps the
    # work done before certifying within the size of the input
    steps = data["steps"]
    if (not isinstance(steps, list) or len(steps) < n * (n + 1) // 2
            or len(steps) != len(PatternSpec.build(n).augmented)):
        return "failed"
    product = GenericProduct(n, field)
    fresh = _empty_certificate(product)
    try:
        for claimed, step in zip(steps, _certified_steps(product)):
            if not fresh.step_matches(claimed, step):
                return "failed"
    except CertificationError:
        return "failed"
    # every step matched, and the rest of a certificate does not depend on them
    same = _canonical_json(dict(data, steps=[])) == _canonical_json(fresh.to_json_dict())
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
