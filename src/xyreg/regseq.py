"""Regular-sequence certification and independent regularity oracles.

Certification is incremental: a prefix of elements with pairwise-coprime
*effective* leading monomials is extended either by an element whose true
lead is coprime to everything seen (a COPRIME_EXTEND step) or by an element
that first sheds the terms divisible by previously adjoined bare monomials,
after which the lead of the residue must be coprime to everything seen
(a TECHNICAL step).  Both kinds are one record, :class:`CertificateStep`;
each step function takes the steps certified so far and returns the next,
with the outcome of every check it made.  Coprimality is checked by
counting, per variable, how many earlier leads use it, not by pairwise
gcds; the check names and the JSON form are those of the pairwise checks.
A stored certificate is re-checked by certifying again and comparing
(``pattern.recheck_certificate``), never by trusting its recorded steps.

Two independent oracles decide regularity outright: the Hilbert-series
criterion for homogeneous sequences (quotient series equals the complete-
intersection product formula iff the sequence is regular) and a stepwise
colon-ideal test ((J : f) = J iff f is a non-zerodivisor modulo J).
A not-regular Hilbert verdict names the first degree where the two series
differ, with both values; a colon verdict names the first failing index.
Oracles run under graded-reverse-lexicographic order whatever the
certification order; regularity does not depend on that choice.
"""

from dataclasses import dataclass, field as dc_field
from itertools import zip_longest

import numpy as np

from .errors import (BudgetExceededError, CertificationError, HomogeneityError,
                     UndefinedLeadError)
from .fields import PrimeField
# buchberger is not called here; perfbench/tracer.py rebinds it in every
# module that holds it, and perfbench/selftest.py expects it in this one
from .groebner import buchberger, groebner_basis, multi_divide, normal_form
from .hilbert import HilbertData, complete_intersection_numerator, hilbert_series_quotient
from .orders import MonomialOrder
from .poly import Polynomial, Term, format_poly
from .ring import Monomial, VariableTable, format_monomial

ROLE_BASE = "base"
ROLE_BARE = "bare-monomial"
ROLE_TECHNICAL = "technical"


@dataclass(frozen=True)
class CertificateStep:
    """One certified element and the lead that counts for it.

    A COPRIME_EXTEND step's effective lead is its true lead; a TECHNICAL
    step's is the lead of its residue after the subtractions.  ``checks``
    maps each condition checked to its outcome.
    """

    kind: str  # "COPRIME_EXTEND" | "TECHNICAL"
    label: str
    element: Polynomial
    effective_lead: Monomial
    role: str
    subtractions: tuple = ()  # of (Monomial, Term) pairs
    checks: dict = dc_field(default_factory=dict)
    strict_form: bool = None


def check_coprime_leads(seq, order=None):
    """True iff all pairwise leading-monomial gcds are 1.

    Returns (ok, witness); the witness names the first offending pair as
    (i, j, lead_i, lead_j) and is None when ok.
    """
    leads = []
    for p in seq:
        if p.is_zero():
            raise UndefinedLeadError("zero element has no leading term")
        if order is not None and p.order != order:
            p = p.resort(order)
        leads.append(p.leading_monomial())
    for i in range(len(leads)):
        for j in range(i + 1, len(leads)):
            if not leads[i].coprime(leads[j]):
                return False, (i, j, leads[i], leads[j])
    return True, None


def _lead_block(steps, nvars):
    """The (len(steps), nvars) exponent block of the steps' effective leads."""
    return np.array([s.effective_lead.exps for s in steps],
                    dtype=np.int64).reshape(-1, nvars)


def _variable_counts(block):
    """For each variable, how many rows of the exponent block it divides.

    The rows are pairwise coprime iff no count exceeds 1, and a monomial
    is coprime to all of them iff each of its variables counts 0.
    """
    return np.count_nonzero(block, axis=0)


def check_technical_step(prior, h, order=None, *, role=ROLE_TECHNICAL, label=""):
    """Decompose h against the prior bare monomials and certify the residue.

    ``prior`` is the list of CertificateSteps certified so far.  Every term
    of h divisible by a prior bare monomial joins the subtraction list
    (first matching monomial wins); the residue's lead must then be coprime
    to all prior effective leads and bare monomials, and every other residue
    term must sit strictly below it.  Raises CertificationError with the
    violated condition's name; on success returns the TECHNICAL step.
    """
    if order is None:
        order = h.order
    elif h.order != order:
        h = h.resort(order)
    if h.is_zero():
        raise CertificationError("residue_nonzero", "the element is zero")

    nvars = h.table.nvars
    bare_monos = [s.effective_lead for s in prior if s.role == ROLE_BARE]
    is_bare = np.array([s.role == ROLE_BARE for s in prior], dtype=bool)
    leads = _lead_block(prior, nvars)
    bare_block, lead_block = leads[is_bare], leads[~is_bare]
    subtractions = []
    residue_terms = []
    for term in h.terms():
        divides = (bare_block <= term.monomial.exps).all(axis=1)
        if not divides.any():
            residue_terms.append(term)
        else:
            hit = bare_monos[divides.argmax()]  # the first dividing one
            subtractions.append((hit, Term(term.coefficient, term.monomial / hit)))

    if not residue_terms:
        raise CertificationError(
            "residue_nonzero", "every term is divisible by a prior bare monomial")
    # terms() preserves the canonical descending sort, so the first is the lead
    residue_lead = residue_terms[0].monomial
    lead_coeff = residue_terms[0].coefficient

    checks = {}

    def record(name, ok, message):
        checks[name] = bool(ok)
        if not ok:
            raise CertificationError(name, message)

    try:
        h.field.inv(lead_coeff)
        unit = True
    except ZeroDivisionError:
        unit = False
    record("residue_lead_unit", unit, "residue lead coefficient is not invertible")

    lead_counts = _variable_counts(lead_block)
    bare_counts = _variable_counts(bare_block)
    residue_vars = residue_lead.exps > 0
    record("prior_leads_pairwise_coprime", (lead_counts <= 1).all(),
           "prior effective leads are not pairwise coprime")
    record("bare_monomials_pairwise_coprime", (bare_counts <= 1).all(),
           "prior bare monomials are not pairwise coprime")
    record("bare_monomials_coprime_to_prior_leads",
           not ((lead_counts > 0) & (bare_counts > 0)).any(),
           "a bare monomial shares a variable with a prior effective lead")
    record("residue_lead_coprime_to_bare_monomials", not bare_counts[residue_vars].any(),
           "the residue lead shares a variable with a prior bare monomial")
    record("residue_lead_coprime_to_prior_leads", not lead_counts[residue_vars].any(),
           f"the residue lead {residue_lead!r} shares a variable with a prior effective lead")

    rows = order.keys(np.array([t.monomial.exps for t in residue_terms])).tolist()
    record("tail_below_residue_lead", all(row < rows[0] for row in rows[1:]),
           "a residue term is not strictly below the residue lead")

    strict = all((t.monomial.exps <= lead_block).all(axis=1).any()
                 for _, t in subtractions)

    return CertificateStep(kind="TECHNICAL", label=label, element=h,
                           effective_lead=residue_lead, role=role,
                           subtractions=tuple(subtractions), checks=checks,
                           strict_form=strict)


def coprime_extend_element(prior, p, order=None, *, role=ROLE_BASE, label=""):
    """Certify p by its true lead, which must be coprime to the effective
    lead of every step in ``prior``; returns the COPRIME_EXTEND step."""
    if order is not None and p.order != order:
        p = p.resort(order)
    if p.is_zero():
        raise UndefinedLeadError("zero element has no leading term")
    lead = p.leading_monomial()
    counts = _variable_counts(_lead_block(prior, p.table.nvars))
    if counts[lead.exps > 0].any():
        raise CertificationError(
            "lead_coprime_to_prior",
            f"lead {lead!r} shares a variable with a prior effective lead")
    return CertificateStep(kind="COPRIME_EXTEND", label=label, element=p,
                           effective_lead=lead, role=role,
                           checks={"lead_coprime_to_prior": True})


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


@dataclass
class RegularityCertificate:
    n: int
    order_name: str
    field_spec: dict
    table: VariableTable
    steps: list
    verdict: str  # "certified" | "failed"
    failure: dict = None  # {"step": 1-based index, "condition": ...}
    note: str = ""

    def step_json_dict(self, s):
        """The JSON form of one step, as it appears in ``to_json_dict``."""
        return {
            "kind": s.kind,
            "label": s.label,
            "role": s.role,
            "element": format_poly(s.element),
            "effective_lead": format_monomial(s.effective_lead, self.table),
            "subtractions": [
                [format_monomial(m, self.table), _format_term(t, self.table)]
                for m, t in s.subtractions
            ],
            "m_next": (format_monomial(s.effective_lead, self.table)
                       if s.kind == "TECHNICAL" else None),
            "checks": dict(s.checks),
            "strict_form": s.strict_form,
        }

    def to_json_dict(self):
        steps = [self.step_json_dict(s) for s in self.steps]
        out = {
            "n": self.n,
            "order": self.order_name,
            "field": dict(self.field_spec),
            "steps": steps,
            "verdict": self.verdict,
        }
        if self.failure is not None:
            out["failure"] = dict(self.failure)
        if self.note:
            out["note"] = self.note
        return out


def _format_term(t, table):
    mono = format_monomial(t.monomial, table)
    if t.coefficient == 1:
        return mono
    if mono == "1":
        return str(t.coefficient)
    return f"{t.coefficient}*{mono}"


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def _oracle_order(table):
    return MonomialOrder.grevlex(table.nvars)


def regular_oracle_hilbert(seq, *, pair_budget=None, degree_budget=None):
    """Regularity via the complete-intersection Hilbert criterion.

    Homogeneous elements over GF(p) only.  True iff the Hilbert series of the
    quotient equals prod(1 - t^deg_i) / (1 - t)^nvars exactly.  A budget stop
    raises BudgetExceededError rather than returning a verdict.
    """
    return _hilbert_criterion(seq, pair_budget, degree_budget)[0]


def _hilbert_criterion(seq, pair_budget, degree_budget):
    """(regular, details) for :func:`regular_oracle_hilbert`; on a computed
    mismatch the one detail line names the first degree where the quotient's
    series leaves the complete-intersection series, with both values."""
    seq = list(seq)
    if not seq:
        return True, []
    if not isinstance(seq[0].field, PrimeField):
        raise ValueError("the Hilbert oracle runs over a prime field")
    for p in seq:
        if not p.is_homogeneous():
            raise HomogeneityError("the Hilbert oracle requires homogeneous elements")
    if any(p.is_zero() for p in seq):
        return False, []
    degrees = [p.degree() for p in seq]
    if any(d == 0 for d in degrees):
        return False, []  # a unit makes the ideal improper
    order = _oracle_order(seq[0].table)
    computed = hilbert_series_quotient([p.resort(order) for p in seq], order,
                                       pair_budget=pair_budget, degree_budget=degree_budget)
    expected = HilbertData(complete_intersection_numerator(degrees), computed.nvars)
    if computed == expected:
        return True, []
    # both series share the denominator (1-t)^nvars, so they first differ
    # where the numerators first differ
    pairs = zip_longest(computed.numerator, expected.numerator, fillvalue=0)
    d = next(k for k, (a, b) in enumerate(pairs) if a != b)
    return False, [f"degree {d}: Hilbert function {computed.series_coefficients(d)[d]}, "
                   f"complete intersection {expected.series_coefficients(d)[d]}"]


def nonzerodivisor_colon(prefix_gb, f, *, pair_budget=None, degree_budget=None):
    """True iff (J : f) = J for the ideal J of the given basis.

    Computes J intersect <f> by adjoining one elimination variable ranked
    above everything, divides the intersection generators by f, and tests
    each quotient for membership in J.  The auxiliary variable never leaks
    into results.
    """
    if f.is_zero():
        return False
    if prefix_gb is None or len(prefix_gb.polys) == 0:
        return True  # the ambient ring is a domain
    if prefix_gb.contains_unit():
        return True  # J = R, the colon is again R
    order = prefix_gb.order
    table = prefix_gb.table
    ext_table = table.extend("_elim")
    ext_order = order.eliminate_last()
    aux_slot = ext_table.nvars - 1
    fld = f.field
    t_poly = Polynomial.variable(ext_table, fld, ext_order, aux_slot)
    one = Polynomial.constant(ext_table, fld, ext_order, fld.one)
    f_ext = f.lift_to(ext_table, ext_order)
    gens = [t_poly * g.lift_to(ext_table, ext_order) for g in prefix_gb.polys]
    gens.append((one - t_poly) * f_ext)
    ext_gb = groebner_basis(gens, ext_order,
                            pair_budget=pair_budget, degree_budget=degree_budget)
    for g in ext_gb.polys:
        if (g.exps[:, aux_slot] != 0).any():
            continue
        base = Polynomial(table, fld, order, g.exps[:, :aux_slot], g.coeffs)
        base = base.resort(order)
        quots, rem = multi_divide(base, [f])
        if not rem.is_zero():
            raise RuntimeError("intersection generator not divisible by f")
        if not normal_form(quots[0], prefix_gb).is_zero():
            return False
    return True


@dataclass
class OracleReport:
    method: str
    verdict: str  # "regular" | "not-regular"
    first_failure: int = None  # 1-based index (colon method)
    details: list = dc_field(default_factory=list)

    @property
    def regular(self):
        return self.verdict == "regular"


def sequence_oracle(seq, method="hilbert", *, pair_budget=None, degree_budget=None):
    """Decide regularity of the sequence; the colon method also locates the
    first failing index.  Budget stops raise BudgetExceededError."""
    seq = list(seq)
    if method not in ("hilbert", "colon"):
        raise ValueError(f"unknown oracle method {method!r}")
    if not seq:
        return OracleReport(method=method, verdict="regular",
                            details=["empty sequence: vacuously regular"])
    budgets = dict(pair_budget=pair_budget, degree_budget=degree_budget)
    if method == "hilbert":
        ok, details = _hilbert_criterion(seq, pair_budget, degree_budget)
        return OracleReport(method=method, verdict="regular" if ok else "not-regular",
                            details=details)

    order = _oracle_order(seq[0].table)
    seq = [p.resort(order) for p in seq]
    details = []
    gb = None
    for i, p in enumerate(seq, start=1):
        if p.is_zero():
            return OracleReport(method=method, verdict="not-regular",
                                first_failure=i,
                                details=details + [f"index {i}: zero element"])
        if not nonzerodivisor_colon(gb, p, **budgets):
            return OracleReport(method=method, verdict="not-regular",
                                first_failure=i,
                                details=details + [f"index {i}: zerodivisor modulo the prefix"])
        gb = groebner_basis(seq[:i], order, **budgets)
        if gb.contains_unit():
            return OracleReport(method=method, verdict="not-regular",
                                first_failure=i,
                                details=details + [f"index {i}: the ideal becomes the whole ring"])
        details.append(f"index {i}: non-zerodivisor, ideal still proper")
    return OracleReport(method=method, verdict="regular", details=details)


@dataclass
class ExtensionReport:
    chain: list
    accepted: list
    rejected: list  # (candidate position, reason)


def greedy_extend(base, candidates, method="hilbert", *,
                  pair_budget=None, degree_budget=None):
    """Scan candidates in order, appending each one that keeps the sequence
    regular.  An inconclusive oracle run skips the candidate and logs it;
    it is never accepted silently."""
    budgets = dict(pair_budget=pair_budget, degree_budget=degree_budget)
    base = list(base)
    report = sequence_oracle(base, method, **budgets)
    if not report.regular:
        raise ValueError("the base sequence is not regular")
    chain = list(base)
    accepted, rejected = [], []
    for pos, cand in enumerate(candidates):
        try:
            verdict = sequence_oracle(chain + [cand], method, **budgets)
        except BudgetExceededError as exc:
            rejected.append((pos, f"inconclusive: {exc}"))
            continue
        if verdict.regular:
            chain.append(cand)
            accepted.append(pos)
        else:
            rejected.append((pos, "not-regular"))
    return ExtensionReport(chain=chain, accepted=accepted, rejected=rejected)
