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

Every monomial on this path is a support, the (slot, exponent) pairs of
its nonzero exponents (see :mod:`ring`), and every element a
:class:`SparsePolynomial` of (coefficient, support) terms; a Polynomial or
Monomial argument is read into that form once, on the way in.  The
earlier steps are read through one private accumulator, ``_PriorLeads``,
whose ``append`` indexes a step's effective lead by the variables it uses,
non-bare leads and bare monomials apart, and keeps count of the variables
two leads of a kind share; it keeps the leads, not the steps.  A step
therefore costs work in its own terms, not in the number of earlier steps
or of variables: each term's bare-divisor test reads only the index lists
of that term's variables (first divisor in step order wins), and every
check reads the accumulated state.  A walk (``pattern._certified_steps``)
grows one accumulator step by step; a plain list passed to a step
function is accumulated afresh through the same ``append``, so both take
one code path.  The checks run at every step.  A stored certificate is
re-checked by certifying again and comparing
(``pattern.recheck_certificate``), never by trusting its recorded steps.

Two independent oracles decide regularity outright: the Hilbert-series
criterion for homogeneous sequences (quotient series equals the complete-
intersection product formula iff the sequence is regular, computed from
the leads of a Buchberger run degree by degree, which stops at the first
degree where the two series differ) and a stepwise colon-ideal test
((J : f) = J iff f is a non-zerodivisor modulo J).  The colon oracle walks the sequence once: each
index is one G2V signature step (Gao, Guan & Volny, ISSAC 2010, with the
cover criterion of Gao, Volny & Wang, Math. Comp. 85, 2016) on a minimal
Groebner basis of the prefix, which returns the verdict and a minimal
basis of the next prefix, so no prefix basis is computed from scratch and
none is interreduced: the syzygy criterion reads only the leads of the
prefix basis, and a normal form, hence a witness, is the same modulo any
Groebner basis.  The step reads the prefix basis only through its divisor
state: it grows a copy of that state with its pairs (:class:`kernels.SignedDivisors`, which
never writes into the prefix's), and the next prefix basis keeps the
elements whose leads generate the lead ideal minimally, copied into a
state of their own (``kernels.Divisors.take``), so no element is packed
again.  A caller who wants the reduced basis calls
:func:`groebner.reduce_basis` on it.  On a
regular sequence the step reduces no J-pair to zero; a zero reduction is a
proof of a zerodivisor and comes with its witness u (u*f in J, u not in
J), which is re-checked by normal forms before it is reported.  The two
oracles share no Groebner algorithm.  A not-regular Hilbert verdict names
the first degree where the two series differ, with both values; a colon
verdict names the first failing index.  Oracles run under graded-reverse-
lexicographic order whatever the certification order; regularity does not
depend on that choice.
"""

import heapq
import json
from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from itertools import count
# the escaper json.dumps uses under ensure_ascii, in C where it is built
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

from .errors import (BudgetExceededError, CertificationError, CrossCheckError,
                     HomogeneityError, UndefinedLeadError)
from .fields import PrimeField
# buchberger is not called here; perfbench/tracer.py rebinds it in every
# module that holds it, and perfbench/selftest.py expects it in this one
from . import kernels
from .groebner import (GroebnerBasis, SignatureStats, _check_ring, _minimal, buchberger,
                       normal_form)
from .hilbert import _Dimension, _first_difference
from .orders import MonomialOrder
from .poly import Polynomial, Term, _format_terms
from .ring import VariableTable, _format_support, _quotient, _support

ROLE_BASE = "base"
ROLE_BARE = "bare-monomial"
ROLE_TECHNICAL = "technical"


@dataclass(frozen=True)
class SparsePolynomial:
    """A polynomial as its terms alone: (coefficient, support) pairs in row
    order, which the technical step's tail check requires to descend under
    ``order``.

    The certificate walk builds its elements in this form, so no step holds
    a dense exponent row; a :class:`Polynomial` passed to a step function is
    read into it once, on the way in, keeping its row order.
    """

    table: VariableTable
    field: object
    order: MonomialOrder
    terms: tuple


@dataclass(frozen=True)
class CertificateStep:
    """One certified element and the lead that counts for it.

    A COPRIME_EXTEND step's effective lead is its true lead; a TECHNICAL
    step's is the lead of its residue after the subtractions.  ``checks``
    maps each condition checked to its outcome.  The steps the step
    functions return carry their element as a :class:`SparsePolynomial` and
    every monomial as a support (see :mod:`ring`).
    """

    kind: str  # "COPRIME_EXTEND" | "TECHNICAL"
    label: str
    element: SparsePolynomial
    effective_lead: tuple
    role: str
    subtractions: tuple = ()  # of (bare monomial, Term of the multiplier) pairs
    checks: dict = dc_field(default_factory=dict)
    strict_form: bool = None


def _sparse(p):
    """``p``, a Polynomial or a SparsePolynomial, as a SparsePolynomial under
    its own order; a Polynomial is read row by row in its row order."""
    if isinstance(p, SparsePolynomial):
        return p
    return SparsePolynomial(p.table, p.field, p.order,
                            tuple(zip(p.coeffs.tolist(), map(_support, p.exps))))


class _VariableIndex:
    """Supports indexed by the variables they use.

    For each variable it keeps the (row, exponent) pairs of the supports
    that use it, so a divisibility test against one monomial reads only the
    lists of that monomial's own variables, not every earlier row, and
    ``clashes`` counts the variables two or more indexed supports use.
    """

    def __init__(self):
        self.monomials = []
        self.clashes = 0
        self._units = []  # rows of the monomial 1, which uses no variable
        self._by_var = {}

    def add(self, support):
        row = len(self.monomials)
        self.monomials.append(support)
        if not support:
            self._units.append(row)
        for v, a in support:
            rows = self._by_var.setdefault(v, [])
            if len(rows) == 1:
                self.clashes += 1
            rows.append((row, a))

    def uses(self, v):
        """True iff some indexed support uses variable ``v``."""
        return v in self._by_var

    def first_divisor(self, support):
        """The first indexed support, in insertion order, dividing
        ``support``; None if there is none."""
        hits = {}
        for v, e in support:
            for row, a in self._by_var.get(v, ()):
                if a <= e:
                    hits[row] = hits.get(row, 0) + 1
        # a row divides when all of its variables fit
        monomials = self.monomials
        first = self._units[0] if self._units else None
        for row, count in hits.items():
            if count == len(monomials[row]) and (first is None or row < first):
                first = row
        return None if first is None else monomials[first]

    def divides_some(self, support):
        """True iff ``support`` divides some indexed support."""
        if not support:
            return bool(self.monomials)
        hits = {}
        for v, e in support:
            for row, a in self._by_var.get(v, ()):
                if e <= a:
                    hits[row] = hits.get(row, 0) + 1
        return len(support) in hits.values()


class _PriorLeads:
    """The effective leads of the steps certified so far, accumulated; the
    steps themselves are not kept.

    ``append`` indexes each step's effective lead by its variables, bare
    monomials (``bare``) apart from the other leads (``leads``), and notes
    whether some variable is used by both kinds (``shared``).  Leads of one
    kind are pairwise coprime iff its index has no clash, and a monomial is
    coprime to all of them iff the index uses none of its variables, so
    every check reads the accumulated state in the monomial's own terms.
    """

    def __init__(self, steps=()):
        self.leads = _VariableIndex()
        self.bare = _VariableIndex()
        self.shared = False
        for step in steps:
            self.append(step)

    def append(self, step):
        lead = step.effective_lead
        if not isinstance(lead, tuple):  # a Monomial, read once
            lead = _support(lead.exps)
        index, other = (self.bare, self.leads) if step.role == ROLE_BARE else (self.leads, self.bare)
        self.shared = self.shared or any(other.uses(v) for v, _ in lead)
        index.add(lead)


def _prior_leads(prior):
    """``prior`` as a :class:`_PriorLeads`, accumulated afresh unless it
    already is one."""
    return prior if isinstance(prior, _PriorLeads) else _PriorLeads(prior)


def check_technical_step(prior, h, *, role=ROLE_TECHNICAL, label=""):
    """Decompose h against the prior bare monomials and certify the residue.

    ``prior`` is the list of CertificateSteps certified so far, and ``h`` a
    Polynomial or a SparsePolynomial.  Every term of h divisible by a prior
    bare monomial joins the subtraction list (first matching monomial
    wins); the residue's lead must then be coprime to all prior effective
    leads and bare monomials, and every other residue term must sit
    strictly below it.  Raises CertificationError with the violated
    condition's name; on success returns the TECHNICAL step.
    """
    h = _sparse(h)
    if not h.terms:
        raise CertificationError("residue_nonzero", "the element is zero")

    prior = _prior_leads(prior)
    first_divisor = prior.bare.first_divisor
    subtractions = []
    residue = []
    for coeff, mono in h.terms:
        hit = first_divisor(mono)
        if hit is None:
            residue.append((coeff, mono))
        else:
            subtractions.append((hit, Term(coeff, _quotient(mono, hit))))

    if not residue:
        raise CertificationError(
            "residue_nonzero", "every term is divisible by a prior bare monomial")
    # the terms keep the element's row order, so the first is the lead
    lead_coeff, residue_lead = residue[0]

    checks = {}

    def record(name, ok, message):
        """Record a check; on failure the message is formatted with the
        residue lead in the text grammar, so passing checks format nothing."""
        checks[name] = bool(ok)
        if not ok:
            raise CertificationError(
                name, message.format(lead=_format_support(residue_lead, h.table)))

    try:
        h.field.inv(lead_coeff)
        unit = True
    except ZeroDivisionError:
        unit = False
    record("residue_lead_unit", unit, "residue lead coefficient is not invertible")

    leads, bare = prior.leads, prior.bare
    record("prior_leads_pairwise_coprime", not leads.clashes,
           "prior effective leads are not pairwise coprime")
    record("bare_monomials_pairwise_coprime", not bare.clashes,
           "prior bare monomials are not pairwise coprime")
    record("bare_monomials_coprime_to_prior_leads", not prior.shared,
           "a bare monomial shares a variable with a prior effective lead")
    record("residue_lead_coprime_to_bare_monomials",
           not any(bare.uses(v) for v, _ in residue_lead),
           "the residue lead shares a variable with a prior bare monomial")
    record("residue_lead_coprime_to_prior_leads",
           not any(leads.uses(v) for v, _ in residue_lead),
           "the residue lead {lead} shares a variable with a prior effective lead")

    key = h.order._support_key
    top = key(residue_lead)
    record("tail_below_residue_lead", all(key(mono) < top for _, mono in residue[1:]),
           "a residue term is not strictly below the residue lead")

    strict = all(leads.divides_some(t.monomial) for _, t in subtractions)

    return CertificateStep(kind="TECHNICAL", label=label, element=h,
                           effective_lead=residue_lead, role=role,
                           subtractions=tuple(subtractions), checks=checks,
                           strict_form=strict)


def coprime_extend_element(prior, p, *, role=ROLE_BASE, label=""):
    """Certify p, a Polynomial or a SparsePolynomial, by its true lead, which
    must be coprime to the effective lead of every step in ``prior``;
    returns the COPRIME_EXTEND step."""
    p = _sparse(p)
    if not p.terms:
        raise UndefinedLeadError("zero element has no leading term")
    lead = p.terms[0][1]
    prior = _prior_leads(prior)
    if any(prior.leads.uses(v) or prior.bare.uses(v) for v, _ in lead):
        raise CertificationError(
            "lead_coprime_to_prior",
            f"lead {_format_support(lead, p.table)} shares a variable with a "
            f"prior effective lead")
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

    def step_json(self, s):
        """One step's JSON text, exactly as ``json.dumps(..., indent=2)``
        writes it inside the certificate's ``"steps"`` list (four spaces in,
        no trailing comma).  This is the one place a step's keys and layout
        are written down: strings go through the stdlib's own escaper and
        ``true``/``false``/``null`` are literals, so no dict is built."""
        table = self.table
        lead = _quote(_format_support(s.effective_lead, table))
        subtractions = _json_block(
            [f"[\n          {_quote(_format_support(m, table))},"
             f"\n          {_quote(_format_term(t, table))}\n        ]"
             for m, t in s.subtractions], "[", "]")
        checks = _checks_json(tuple(s.checks.items()))
        element = _quote(_format_terms(s.element.field, s.element.terms, table))
        return (f'    {{\n'
                f'      "kind": {_quote(s.kind)},\n'
                f'      "label": {_quote(s.label)},\n'
                f'      "role": {_quote(s.role)},\n'
                f'      "element": {element},\n'
                f'      "effective_lead": {lead},\n'
                f'      "subtractions": {subtractions},\n'
                f'      "m_next": {lead if s.kind == "TECHNICAL" else "null"},\n'
                f'      "checks": {checks},\n'
                f'      "strict_form": {_LITERALS[s.strict_form]}\n'
                f'    }}')

    def json_lines(self):
        """The certificate's JSON text, as ``json.dumps(..., indent=2)`` of
        :meth:`to_json_dict` writes it, in pieces to be joined by newlines:
        the head up to ``"steps": [``, each step (rendered when asked for),
        then the tail.  The head and tail are ``json.dumps`` of the
        certificate without its steps."""
        frame = {"n": self.n, "order": self.order_name, "field": dict(self.field_spec),
                 "steps": [], "verdict": self.verdict}
        if self.failure is not None:
            frame["failure"] = dict(self.failure)
        if self.note:
            frame["note"] = self.note
        text = json.dumps(frame, indent=2)
        if not self.steps:
            yield text
            return
        # a '"' inside a JSON string is escaped, so the first match is the key
        head, steps, tail = text.partition('"steps": []')
        yield head + steps[:-1]
        last = len(self.steps) - 1
        for k, s in enumerate(self.steps):
            yield self.step_json(s) + ("," if k < last else "")
        yield "  ]" + tail

    def step_matches(self, value, s):
        """Whether the JSON value ``value`` is step ``s``: equal as canonical
        JSON, so keys may come in any order but ``true`` is not ``1``.  A
        value with the step's own key order is compared as text, unparsed:
        ``json.dumps`` with the separators of the indented layout writes it
        as the step's text with each line's indentation and break dropped."""
        text = self.step_json(s)
        # no line break or indentation falls inside a JSON string
        unindented = "".join(map(str.lstrip, text.split("\n")))
        return (json.dumps(value, separators=(",", ": ")) == unindented
                or _canonical_json(value) == _canonical_json(json.loads(text)))

    def to_json_dict(self):
        """The JSON value of :meth:`json_lines`."""
        return json.loads("\n".join(self.json_lines()))


_LITERALS = {True: "true", False: "false", None: "null"}


def _canonical_json(value):
    """``value`` as JSON text that two equal values share whatever their key
    order, and that tells ``true`` from ``1``."""
    return json.dumps(value, sort_keys=True)


@lru_cache(maxsize=16)
def _checks_json(checks):
    """A step's ``checks``, given as (name, outcome) pairs, as JSON text; the
    steps of a walk share a handful of these, so each is rendered once."""
    return _json_block([f"{_quote(name)}: {_LITERALS[ok]}" for name, ok in checks],
                       "{", "}")


def _json_block(items, opener, closer):
    """A step's list or object value of the rendered ``items``, laid out as
    ``json.dumps(..., indent=2)`` lays out the value of a key six spaces in;
    ``[]`` or ``{}`` when there are none."""
    if not items:
        return opener + closer
    return f"{opener}\n        " + ",\n        ".join(items) + f"\n      {closer}"


def _format_term(t, table):
    mono = _format_support(t.monomial, table)
    if t.coefficient == 1:
        return mono
    if mono == "1":
        return str(t.coefficient)
    return f"{t.coefficient}*{mono}"


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def _hilbert_criterion(seq, pair_budget, degree_budget):
    """The Hilbert oracle's report on the nonempty ``seq``, with one detail
    line.  A not-regular verdict names the first index that is zero or a
    unit, as the colon oracle does, or else the first degree where the
    quotient's series leaves the complete-intersection series, with both
    values.  A regular verdict names the degree where the lead ideal
    reached dimension N - k, and its number of minimal generators then.
    Homogeneous elements over GF(p) only."""
    if not isinstance(seq[0].field, PrimeField):
        raise ValueError("the Hilbert oracle runs over a prime field")
    for p in seq:
        if not p.is_homogeneous():
            raise HomogeneityError("the Hilbert oracle requires homogeneous elements")
    for i, p in enumerate(seq, start=1):
        if p.is_zero() or p.degree() == 0:
            what = "zero element" if p.is_zero() else "the ideal becomes the whole ring"
            return OracleReport(method="hilbert", verdict="not-regular",
                                details=[f"index {i}: {what}"])
    degrees = [p.degree() for p in seq]
    order = MonomialOrder.grevlex(seq[0].table.nvars)
    found = _first_difference([p.resort(order) for p in seq], order, degrees,
                              pair_budget=pair_budget, degree_budget=degree_budget)
    if isinstance(found, _Dimension):
        return OracleReport(method="hilbert", verdict="regular", details=[
            f"dimension: R/in(I) reaches N-k = {order.nvars - len(seq)} "
            f"at degree {found.degree} with {found.leads} leads"])
    return OracleReport(method="hilbert", verdict="not-regular", details=[
        f"degree {found.degree}: Hilbert function {found.computed}, "
        f"complete intersection {found.expected}"])


@dataclass
class ColonStep:
    """What :func:`nonzerodivisor_colon` found for f modulo J.

    ``basis`` is a minimal Groebner basis of J + <f> when f is a
    non-zerodivisor (no lead divides another; :func:`groebner.reduce_basis`
    gives the reduced one);
    ``witness``, when f is a nonzero zerodivisor, is a u with u*f in J and
    u not in J, reduced modulo J and monic; ``stats`` counts the J-pairs.
    """

    regular: bool
    basis: GroebnerBasis = None
    witness: Polynomial = None
    stats: SignatureStats = dc_field(default_factory=SignatureStats)


def nonzerodivisor_colon(prefix_gb, f, *, pair_budget=None, degree_budget=None):
    """One G2V signature step: is (J : f) = J for the ideal J of the
    Groebner basis ``prefix_gb``, and what is a minimal basis of J + <f>?

    The step keeps pairs (u, v) with u*f = v modulo J; lm(u) is the pair's
    *signature*.  It starts from (1, NF(f, J)) and takes J-pairs in
    increasing signature: for two rows whose v-leads have lcm L, the row
    whose shifted signature (L/lm(v))*lm(u) is larger, shifted by L/lm(v)
    (rows of J's basis have no signature; equal signatures make a singular
    pair, which is not needed).  A J-pair is dropped when its signature
    lies in in(J) (the syzygy criterion: J is inside (J : f)) or when a
    pair whose signature divides it has a smaller shifted lead (the cover
    criterion).  The rest are top-reduced by J's rows and by pairs of
    strictly smaller shifted signature (:func:`kernels.reduce_jpair`).  No
    pair left is super top-reducible, i.e. has a head divisible by a pair
    at exactly its signature and by no admissible row: that head would be
    a shifted lead at its signature no larger than the lcm, which the cover
    criterion rules out below the lcm and the J-pair's partner reduces at
    it.

    A reduction to zero at a signature T outside in(J) gives u*f in J with
    lm(u) = T, so u is not in J: f is a zerodivisor and u, reduced modulo
    J, the witness.  When every J-pair is done without one, in(J : f) =
    in(J), so (J : f) = J, and J's rows with the v-parts form a basis of
    J + <f>.  The step returns those rows whose leads no earlier kept lead
    divides, taken in ascending degree: a minimal basis, which is all the
    next step needs.  Budgets are hard stops: ``pair_budget``
    bounds the J-pairs formed, ``degree_budget`` the degree of a signature
    taken.  An f outside the ring of a nonempty basis raises, as
    :func:`groebner.normal_form` does.
    """
    stats = SignatureStats()
    if f.is_zero():
        return ColonStep(False, stats=stats)
    if prefix_gb is None or len(prefix_gb) == 0:
        # the ambient ring is a domain
        return ColonStep(True, GroebnerBasis(f.order, [f]), stats=stats)
    _check_ring(f, prefix_gb)
    if prefix_gb.contains_unit():
        return ColonStep(True, prefix_gb, stats=stats)  # J = R, the colon is again R
    order, field, table = prefix_gb.order, f.field, f.table
    f = f.resort(order)
    div = kernels.SignedDivisors(prefix_gb.flat_arrays())
    first, sigs = div.first, div.u
    in_j = _MonomialIdeal(div.leads)  # the leads of J, packed once per step
    ratios = []  # per pair: packed key of lm(u) minus that of lm(v)
    heap = []
    tick = count()
    keyed = div.width  # the width the ratios and the heap keys are packed at

    def rekey():
        """Pack the ratios and the heap keys again if the state widened
        since they were packed; the heap keeps its order."""
        nonlocal keyed
        if keyed == div.width:
            return
        ratios[:] = [sigs.lead_keys[i] - div.lead_keys[first + i] for i in range(len(ratios))]
        lcm_keys = div.repack([e[1] for e in heap], keyed)
        heap[:] = [(lcm_key + ratios[side - first], lcm_key, t, side, other)
                   for lcm_key, (_, _, t, side, other) in zip(lcm_keys, heap)]
        keyed = div.width

    def admit(u, v):
        """Append the pair (u, v), made monic, and push its J-pairs with
        every earlier row that survive the syzygy criterion."""
        inv = field.inv(v[1][0])
        div.append(v[0], field.scale_array(inv, v[1]))
        sigs.append(u[0], field.scale_array(inv, u[1]))
        rekey()  # a lex-type reduction may have widened the state
        leads = div.leads
        k = len(div) - 1
        ratio = sigs.lead_keys[-1] - div.lead_keys[k]
        ratios.append(ratio)
        # a partner at an equal shifted signature makes a singular pair, not needed
        partners = np.array([i for i in range(k) if i < first or ratios[i - first] != ratio],
                            dtype=np.intp)
        if not len(partners):
            return
        # the side of a J-pair is the row with the larger shifted signature
        sides = np.array([k if i < first or ratios[i - first] < ratio else i
                          for i in partners.tolist()], dtype=np.intp)
        others = np.where(sides == k, partners, k)
        lcms = np.maximum(leads[partners], leads[k])
        stats.considered += len(sides)
        if pair_budget is not None and stats.considered > pair_budget:
            raise BudgetExceededError(f"pair budget {pair_budget} exhausted",
                                      pairs_considered=stats.considered)
        sig_rows = lcms - leads[sides] + sigs.leads[sides - first]
        in_ideal = in_j.contains(sig_rows)
        stats.syzygy += int(in_ideal.sum())
        keep = np.flatnonzero(~in_ideal)
        # widen first where a J-pair's lcm or signature would not fit: under
        # a graded order then no term of its reduction outgrows the state
        div.fit(np.concatenate([lcms[keep], sig_rows[keep]]))
        rekey()
        for side, other, lcm_key in zip(sides[keep].tolist(), others[keep].tolist(),
                                        div.pack(lcms[keep])):
            heapq.heappush(heap, (lcm_key + ratios[side - first], lcm_key, next(tick),
                                  side, other))

    v = kernels.reduce_terms(field, div.pack(f.exps), div.width, f.coeffs, div)
    u = (div.pack(np.zeros((1, order.nvars), dtype=np.int64)), field.array([field.one]))
    if len(v[1]) == 0:  # f lies in J: u = 1 is the witness
        stats.zero += 1
        return ColonStep(False, witness=Polynomial.constant(table, field, order, field.one),
                         stats=stats)
    admit(u, v)
    while heap:
        sig_key, lcm_key, _, k, other = heapq.heappop(heap)
        leads = div.leads
        shift = np.maximum(leads[k], leads[other]) - leads[k]
        sig_row = shift + sigs.leads[k - first]
        degree = int(sig_row.sum())
        if degree_budget is not None and degree > degree_budget:
            raise BudgetExceededError(
                f"degree budget {degree_budget} exceeded by a J-pair of signature degree "
                f"{degree}", pairs_considered=stats.considered, degree_reached=degree)
        pair_ratio = sig_key - lcm_key
        if any(ratios[i] > pair_ratio
               for i in np.flatnonzero((sigs.leads <= sig_row).all(axis=1)).tolist()):
            stats.cover += 1
            continue
        stats.reduced += 1
        v, u = kernels.reduce_jpair(field, k, sig_key - sigs.lead_keys[k - first], div)
        if len(v[1]) == 0:
            stats.zero += 1
            u = Polynomial(table, field, order, kernels._rows(div, u[0]), u[1])
            return ColonStep(False, witness=normal_form(u, prefix_gb).monic(), stats=stats)
        admit(u, v)
    # the next step reads only the leads, so a minimal basis will do, in a
    # state of its own
    basis = GroebnerBasis._of(order, table, field, div.take(_minimal(div.leads)), stats)
    return ColonStep(True, basis, stats=stats)


# (row, generator) word pairs that one block of _MonomialIdeal.contains tests
_CONTAINS_BLOCK = 1 << 22


class _MonomialIdeal:
    """Membership in the monomial ideal of a fixed block of generator rows.

    Rows are packed into uint64 words of guarded bit fields, as in
    :mod:`hilbert`: g divides m iff ((m | G) - g) & G == G word by word,
    where G holds every field's top (guard) bit.  The generators are packed
    once, in fields that hold their largest exponent T, and a row is capped
    at T before it is packed: every generator exponent is at most T, so g
    divides m iff g divides min(m, T).
    """

    def __init__(self, gens):
        self.top = int(gens.max(initial=0))
        width = self.top.bit_length() + 1
        per = 64 // width
        self.words = -(-gens.shape[1] // per)
        self.shifts = np.arange(per, dtype=np.uint64) * np.uint64(width)
        self.guard = np.uint64(sum(1 << (k * width + width - 1) for k in range(per)))
        self.packed = self._pack(gens)

    def _pack(self, a):
        per = len(self.shifts)
        block = np.zeros((len(a), self.words * per), dtype=np.uint64)
        block[:, :a.shape[1]] = a
        return np.bitwise_or.reduce(block.reshape(len(a), self.words, per) << self.shifts, axis=2)

    def contains(self, rows):
        """For each exponent row, whether some generator row divides it."""
        guard, gens = self.guard, self.packed
        packed = self._pack(np.minimum(rows, self.top)) | guard
        out = np.empty(len(rows), dtype=bool)
        step = max(1, _CONTAINS_BLOCK // max(1, len(gens)))
        for at in range(0, len(rows), step):
            block = packed[at:at + step]
            # per (row, generator): the guard bits that the subtraction cleared
            miss = np.zeros((len(block), len(gens)), dtype=np.uint64)
            for w in range(self.words):
                miss |= ((block[:, w, None] - gens[None, :, w]) & guard) ^ guard
            out[at:at + step] = (miss == 0).any(axis=1)
        return out


def colon_witness_holds(prefix_gb, f, u):
    """True iff u certifies f as a zerodivisor modulo the ideal J of the
    basis: NF(u, J) != 0 and NF(u*f, J) = 0."""
    u = u.resort(prefix_gb.order)
    return (not normal_form(u, prefix_gb).is_zero()
            and normal_form(u * f.resort(prefix_gb.order), prefix_gb).is_zero())


@dataclass
class OracleReport:
    method: str
    verdict: str  # "regular" | "not-regular"
    first_failure: int = None  # 1-based index (colon method)
    details: list = dc_field(default_factory=list)
    witness: Polynomial = None  # colon method, a zerodivisor: u*f in J, u not in J

    @property
    def regular(self):
        return self.verdict == "regular"


def sequence_oracle(seq, method="hilbert", *, pair_budget=None, degree_budget=None):
    """Decide regularity of the sequence; the colon method also locates the
    first failing index and, for a zerodivisor, returns a witness.  Budget
    stops raise BudgetExceededError."""
    seq = list(seq)
    if method not in ("hilbert", "colon"):
        raise ValueError(f"unknown oracle method {method!r}")
    _one_ring(seq)
    if not seq:
        return OracleReport(method=method, verdict="regular",
                            details=["empty sequence: vacuously regular"])
    if method == "hilbert":
        return _hilbert_criterion(seq, pair_budget, degree_budget)
    return _colon_walk(seq, dict(pair_budget=pair_budget, degree_budget=degree_budget))[0]


def _one_ring(seq):
    """Raise, as :func:`groebner.normal_form` does, unless every element of
    ``seq`` lies in the ring of the first: mixed fields or variable-table
    sizes are an error, never a verdict."""
    for p in seq[1:]:
        _check_ring(p, seq[0])


def _colon_walk(seq, budgets):
    """The colon oracle's report on ``seq`` and, when it is regular, a
    minimal Groebner basis of the whole sequence (else None)."""
    details = []
    gb = None
    for i, p in enumerate(seq, start=1):
        failure, step = _colon_index(gb, p, budgets)
        if failure is not None:
            return OracleReport(method="colon", verdict="not-regular", first_failure=i,
                                details=details + [f"index {i}: {failure}"],
                                witness=step and step.witness), None
        gb = step.basis
        details.append(f"index {i}: non-zerodivisor, ideal still proper")
    return OracleReport(method="colon", verdict="regular", details=details), gb


def _colon_index(gb, p, budgets):
    """One index of the colon walk on the prefix basis ``gb``: (the failure
    named in its detail line or None, the :class:`ColonStep` or None).  A
    zerodivisor's witness is checked before it is reported."""
    p = p.resort(MonomialOrder.grevlex(p.table.nvars))
    if p.is_zero():
        return "zero element", None
    step = nonzerodivisor_colon(gb, p, **budgets)
    if not step.regular:
        if not colon_witness_holds(gb, p, step.witness):
            raise CrossCheckError("the colon step's witness fails its re-check")
        return "zerodivisor modulo the prefix", step
    if step.basis.contains_unit():
        return "the ideal becomes the whole ring", step
    return None, step


@dataclass
class ExtensionReport:
    chain: list
    accepted: list
    rejected: list  # (candidate position, reason)


def greedy_extend(base, candidates, method="hilbert", *,
                  pair_budget=None, degree_budget=None):
    """Scan candidates in order, appending each one that keeps the sequence
    regular.  The colon method keeps a minimal basis of the chain and runs
    one step per candidate on it.  An inconclusive oracle run skips the
    candidate and logs it; it is never accepted silently."""
    budgets = dict(pair_budget=pair_budget, degree_budget=degree_budget)
    chain, candidates = list(base), list(candidates)
    _one_ring(chain + candidates)
    if method == "colon":
        report, gb = _colon_walk(chain, budgets)
    else:
        report = sequence_oracle(chain, method, **budgets)
    if not report.regular:
        raise ValueError("the base sequence is not regular")
    accepted, rejected = [], []
    for pos, cand in enumerate(candidates):
        try:
            if method == "colon":
                failure, step = _colon_index(gb, cand, budgets)
                regular = failure is None
            else:
                regular = sequence_oracle(chain + [cand], method, **budgets).regular
        except BudgetExceededError as exc:
            rejected.append((pos, f"inconclusive: {exc}"))
            continue
        if regular:
            chain.append(cand)
            accepted.append(pos)
            if method == "colon":
                gb = step.basis
        else:
            rejected.append((pos, "not-regular"))
    return ExtensionReport(chain=chain, accepted=accepted, rejected=rejected)
