import copy
import json
import random
import time

import numpy as np
import pytest

from conftest import entries_2x2, grevlex_entries, order_compare, random_monomial
from xyreg.errors import (BudgetExceededError, CertificateFormatError,
                          CertificationError, DimensionError, UndefinedLeadError)
from xyreg.fields import PrimeField, QQ
from xyreg.groebner import groebner_basis
from xyreg.orders import MonomialOrder
from xyreg.pattern import (GenericProduct, certify_pattern, recheck_certificate,
                           selected_entries)
from xyreg.poly import Polynomial, Term, _format_terms, format_poly
from xyreg.regseq import (ROLE_BARE, ROLE_BASE, ROLE_TECHNICAL,
                          CertificateStep, _PriorLeads, check_technical_step,
                          colon_witness_holds, coprime_extend_element, greedy_extend,
                          nonzerodivisor_colon, sequence_oracle)
from xyreg.ring import Monomial, VariableTable, _support, format_monomial


# ---------------------------------------------------------------------------
# dense references: pairwise lead coprimality and the technical step
# ---------------------------------------------------------------------------


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


def dense_technical_step(prior, h, order=None, *, role=ROLE_TECHNICAL, label=""):
    """check_technical_step on dense exponent rows: the reference the sparse
    step is tested against.

    ``prior`` holds steps whose effective leads are Monomials.  Each check
    reads per-variable counts summed afresh over the prior leads, and each
    term's first dividing bare monomial is found by a scan in step order.
    """
    if order is None:
        order = h.order
    elif h.order != order:
        h = h.resort(order)
    if h.is_zero():
        raise CertificationError("residue_nonzero", "the element is zero")

    nvars = h.table.nvars
    bare = [s.effective_lead for s in prior if s.role == ROLE_BARE]
    leads = [s.effective_lead for s in prior if s.role != ROLE_BARE]
    subtractions = []
    residue_terms = []
    for coeff, exps in zip(h.coeffs.tolist(), h.exps):
        mono = Monomial(exps)
        hit = next((b for b in bare if b.divides(mono)), None)
        if hit is None:
            residue_terms.append(Term(coeff, mono))
        else:
            subtractions.append((hit, Term(coeff, mono / hit)))

    if not residue_terms:
        raise CertificationError(
            "residue_nonzero", "every term is divisible by a prior bare monomial")
    residue_lead = residue_terms[0].monomial
    lead_coeff = residue_terms[0].coefficient

    checks = {}

    def record(name, ok, message):
        checks[name] = bool(ok)
        if not ok:
            raise CertificationError(name, message.format(
                lead=format_monomial(residue_lead, h.table)))

    try:
        h.field.inv(lead_coeff)
        unit = True
    except ZeroDivisionError:
        unit = False
    record("residue_lead_unit", unit, "residue lead coefficient is not invertible")

    def counts(monos):
        return sum((m.exps > 0 for m in monos), np.zeros(nvars, dtype=np.int64))

    lead_counts, bare_counts = counts(leads), counts(bare)
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
           "the residue lead {lead} shares a variable with a prior effective lead")

    rows = order.keys(np.array([t.monomial.exps for t in residue_terms])).tolist()
    record("tail_below_residue_lead", all(row < rows[0] for row in rows[1:]),
           "a residue term is not strictly below the residue lead")

    strict = all(any(t.monomial.divides(m) for m in leads) for _, t in subtractions)

    return CertificateStep(kind="TECHNICAL", label=label, element=h,
                           effective_lead=residue_lead, role=role,
                           subtractions=tuple(subtractions), checks=checks,
                           strict_form=strict)


def test_check_coprime_leads_examples(gf):
    product = GenericProduct(3, field=gf)
    order = MonomialOrder.from_name("paper", 3)
    col1 = [product.entry(i, 1) for i in (1, 2, 3)] + [product.y(1, 2)]
    ok, witness = check_coprime_leads(col1, order)
    assert ok and witness is None

    f11, f12 = product.entry(1, 1), product.entry(1, 2)
    ok, witness = check_coprime_leads([f11, f12], order)
    assert not ok
    i, j, lead_i, lead_j = witness
    assert (i, j) == (0, 1)
    shared = np.minimum(lead_i.exps, lead_j.exps)
    assert format_monomial(Monomial(shared), product.table) == "x[1,1]"

    ok, _ = check_coprime_leads([product.x(1, 1)], order)
    assert ok
    with pytest.raises(UndefinedLeadError):
        check_coprime_leads([Polynomial.zero(product.table, gf, order)], order)


def certified_prefix_through(product, order, items):
    """Drive the step primitives over ('f', s, t) / ('y', i, t) items."""
    prior = []
    for kind, a, b in items:
        if kind == "y":
            prior.append(coprime_extend_element(prior, product.y(a, b), order,
                                                role=ROLE_BARE))
        else:
            role = ROLE_BASE if b == 1 else ROLE_TECHNICAL
            prior.append(check_technical_step(prior, product.entry(a, b), order,
                                              role=role))
    return prior


def test_technical_step_first_column_extension(gf):
    # the first selected entry of column 2 sheds exactly one term
    for n in (2, 3, 5):
        product = GenericProduct(n, field=gf)
        order = MonomialOrder.from_name("paper", n)
        items = [("f", i, 1) for i in range(1, n + 1)] + [("y", 1, 2)]
        prior = certified_prefix_through(product, order, items)
        step = check_technical_step(prior, product.entry(1, 2), order)
        assert len(step.subtractions) == 1
        mono, mult = step.subtractions[0]
        assert format_monomial(mono, product.table) == "y[1,2]"
        assert format_monomial(mult.monomial, product.table) == "x[1,1]"
        assert format_monomial(step.effective_lead, product.table) == "x[1,2]*y[2,2]"
        assert step.strict_form is True
        assert all(step.checks.values())


def test_technical_step_row3_column2_non_strict(gf):
    product = GenericProduct(4, field=gf)
    order = MonomialOrder.from_name("paper", 4)
    items = ([("f", i, 1) for i in (1, 2, 3, 4)]
             + [("y", 1, 2), ("f", 1, 2), ("y", 3, 2)])
    prior = certified_prefix_through(product, order, items)
    step = check_technical_step(prior, product.entry(3, 2), order)
    subs = {(format_monomial(m, product.table), format_monomial(t.monomial, product.table))
            for m, t in step.subtractions}
    assert subs == {("y[1,2]", "x[3,1]"), ("y[3,2]", "x[3,3]")}
    assert format_monomial(step.effective_lead, product.table) == "x[3,4]*y[4,2]"
    # x[3,1] divides no prior effective lead, so the decomposition is not
    # in the strict cofactor form
    assert step.strict_form is False


def test_technical_step_lead_clash_fails(gf):
    product = GenericProduct(2, field=gf)
    order = MonomialOrder.from_name("paper", 2)
    prior = [coprime_extend_element([], product.entry(1, 1), order, role=ROLE_BASE)]
    with pytest.raises(CertificationError) as exc:
        check_technical_step(prior, product.entry(1, 2), order)
    assert exc.value.condition == "residue_lead_coprime_to_prior_leads"


def test_technical_step_degenerate_residue(gf):
    product = GenericProduct(2, field=gf)
    order = MonomialOrder.from_name("paper", 2)
    prior = [coprime_extend_element([], product.y(1, 2), order, role=ROLE_BARE)]
    with pytest.raises(CertificationError) as exc:
        check_technical_step(prior, product.x(1, 1) * product.y(1, 2), order)
    assert exc.value.condition == "residue_nonzero"


def test_coprime_extend_rejects_clash(gf):
    product = GenericProduct(2, field=gf)
    order = MonomialOrder.from_name("paper", 2)
    prior = [coprime_extend_element([], product.entry(1, 1), order, role=ROLE_BASE)]
    with pytest.raises(CertificationError):
        coprime_extend_element(prior, product.x(1, 1), order, role=ROLE_BARE)


def prior_step(poly, role):
    """A hand-built step whose effective lead is the lead of ``poly``."""
    return CertificateStep(kind="TECHNICAL", label="", element=poly,
                           effective_lead=poly.leading_monomial(), role=role)


def test_technical_step_negative_controls(gf):
    product = GenericProduct(2, field=gf)
    order = MonomialOrder.from_name("paper", 2)
    x, y = product.x, product.y
    # the raw constructor keeps this row order: the larger term comes second
    rows = np.vstack([(x(1, 2) * y(2, 2)).exps, (x(1, 1) * y(1, 2)).exps])
    unsorted = Polynomial(product.table, gf, order, rows, gf.array([1, 1]))
    cases = [
        ([prior_step(x(1, 1) * y(1, 1), ROLE_BASE),
          prior_step(x(1, 1) * y(2, 1), ROLE_TECHNICAL)],
         product.entry(2, 2), "prior_leads_pairwise_coprime"),
        ([prior_step(y(1, 2), ROLE_BARE), prior_step(y(1, 2) * y(2, 1), ROLE_BARE)],
         product.entry(2, 1), "bare_monomials_pairwise_coprime"),
        ([prior_step(x(1, 1) * y(1, 1), ROLE_BASE), prior_step(y(1, 1), ROLE_BARE)],
         product.entry(2, 2), "bare_monomials_coprime_to_prior_leads"),
        ([prior_step(x(1, 1) * x(1, 1), ROLE_BARE)],
         product.entry(1, 2), "residue_lead_coprime_to_bare_monomials"),
        ([], unsorted, "tail_below_residue_lead"),
    ]
    for prior, h, condition in cases:
        with pytest.raises(CertificationError) as exc:
            check_technical_step(prior, h, order)
        assert exc.value.condition == condition


def test_technical_step_subtracts_the_first_dividing_bare_monomial(gf):
    product = GenericProduct(2, field=gf)
    order = MonomialOrder.from_name("paper", 2)
    x, y = product.x, product.y
    f11 = product.entry(1, 1)  # x[1,1]*y[1,1] + x[1,2]*y[2,1]
    # x[1,1] and y[1,1] both divide the lead term; prior order decides
    for first, second, multiplier in [(x(1, 1), y(1, 1), "y[1,1]"),
                                      (y(1, 1), x(1, 1), "x[1,1]")]:
        prior = [prior_step(first, ROLE_BARE), prior_step(second, ROLE_BARE)]
        step = check_technical_step(prior, f11, order)
        assert len(step.subtractions) == 1
        mono, mult = step.subtractions[0]
        assert mono == _support(first.leading_monomial().exps)
        assert format_monomial(mult.monomial, product.table) == multiplier
        assert format_monomial(step.effective_lead, product.table) == "x[1,2]*y[2,1]"


def pairwise_coprime(monos):
    return all(a.coprime(b) for i, a in enumerate(monos) for b in monos[i + 1:])


def expected_failure(bare, leads, lead):
    """The first condition check_technical_step must fail, by pairwise gcds."""
    if any(b.divides(lead) for b in bare):
        return "residue_nonzero"
    conditions = [
        ("prior_leads_pairwise_coprime", pairwise_coprime(leads)),
        ("bare_monomials_pairwise_coprime", pairwise_coprime(bare)),
        ("bare_monomials_coprime_to_prior_leads",
         all(b.coprime(m) for b in bare for m in leads)),
        ("residue_lead_coprime_to_bare_monomials", all(lead.coprime(b) for b in bare)),
        ("residue_lead_coprime_to_prior_leads", all(lead.coprime(m) for m in leads)),
    ]
    return next((name for name, ok in conditions if not ok), None)


def random_monomial_lists(gf):
    """200 lists of 1-6 random monomials of degree <= 2 in 8 variables, each
    as (monomials, their one-term polynomials, a role for all but the last,
    the hand-built prior steps of all but the last)."""
    rng = random.Random(2718)
    nvars = 8
    table = VariableTable([f"v{k}" for k in range(nvars)])
    order = MonomialOrder.grevlex(nvars)
    for _ in range(200):
        monos = [random_monomial(rng, nvars, 2) for _ in range(rng.randint(1, 6))]
        polys = [Polynomial.from_terms(table, gf, order, [(1, m)]) for m in monos]
        roles = [rng.choice([ROLE_BARE, ROLE_BASE, ROLE_TECHNICAL]) for _ in monos[:-1]]
        prior = [prior_step(p, role) for p, role in zip(polys, roles)]
        yield monos, polys, roles, prior


def test_variable_counts_agree_with_pairwise_coprime_200_lists(gf):
    outcomes = set()
    for monos, polys, roles, prior in random_monomial_lists(gf):
        *earlier, last = monos
        try:
            coprime_extend_element(prior, polys[-1])
            extended = True
        except CertificationError as exc:
            assert exc.condition == "lead_coprime_to_prior"
            extended = False
        assert extended == all(m.coprime(last) for m in earlier), monos

        bare = [m for m, role in zip(earlier, roles) if role == ROLE_BARE]
        leads = [m for m, role in zip(earlier, roles) if role != ROLE_BARE]
        expected = expected_failure(bare, leads, last)
        try:
            check_technical_step(prior, polys[-1])
            condition = None
        except CertificationError as exc:
            condition = exc.condition
        assert condition == expected, monos
        outcomes.add(condition)
    assert len(outcomes) == 7  # every condition, and acceptance, was reached


def outcome(step_fn, prior, p):
    """The step ``step_fn`` certifies, or the condition and text it fails with."""
    try:
        return step_fn(prior, p)
    except CertificationError as exc:
        return exc.condition, str(exc)


def test_accumulated_priors_agree_with_plain_lists_200_lists(gf):
    for monos, polys, _, prior in random_monomial_lists(gf):
        grown = _PriorLeads()
        for k in range(len(prior) + 1):
            for step_fn in (check_technical_step, coprime_extend_element):
                assert outcome(step_fn, prior[:k], polys[-1]) == \
                    outcome(step_fn, grown, polys[-1]), (monos, k)
            if k < len(prior):
                grown.append(prior[k])
        assert list(grown) == prior


def test_accumulated_priors_fail_the_same_named_check(gf):
    product = GenericProduct(3, field=gf)
    order = MonomialOrder.from_name("paper", 3)
    x, y = product.x, product.y
    cases = [
        ([prior_step(x(1, 1) * y(1, 1), ROLE_BASE), prior_step(y(2, 2), ROLE_BARE),
          prior_step(x(1, 1) * y(2, 1), ROLE_TECHNICAL)],
         product.entry(3, 3), "prior_leads_pairwise_coprime"),
        ([prior_step(y(1, 2), ROLE_BARE), prior_step(x(2, 2) * y(2, 2), ROLE_BASE),
          prior_step(y(1, 2) * y(3, 2), ROLE_BARE)],
         product.entry(3, 1), "bare_monomials_pairwise_coprime"),
        ([prior_step(y(1, 3), ROLE_BARE), prior_step(y(1, 3), ROLE_BARE)],
         product.entry(2, 1), "bare_monomials_pairwise_coprime"),
        ([prior_step(x(1, 1) * y(1, 1), ROLE_BASE), prior_step(y(1, 1), ROLE_BARE)],
         product.entry(3, 3), "bare_monomials_coprime_to_prior_leads"),
    ]
    for prior, h, condition in cases:
        grown = _PriorLeads(prior)
        for form in (prior, grown):
            with pytest.raises(CertificationError) as exc:
                check_technical_step(form, h, order)
            assert exc.value.condition == condition
        with pytest.raises(CertificationError) as exc:
            coprime_extend_element(grown, prior[0].element, order)
        assert exc.value.condition == "lead_coprime_to_prior"


def test_failure_conditions_and_messages(gf):
    product = GenericProduct(2, field=gf)
    order = MonomialOrder.from_name("paper", 2)
    x, y = product.x, product.y
    rows = np.vstack([(x(1, 2) * y(2, 2)).exps, (x(1, 1) * y(1, 2)).exps])
    unsorted = Polynomial(product.table, gf, order, rows, gf.array([1, 1]))
    technical = [
        ([prior_step(x(1, 1) * y(1, 1), ROLE_BASE),
          prior_step(x(1, 1) * y(2, 1), ROLE_TECHNICAL)], product.entry(2, 2),
         "prior_leads_pairwise_coprime", "prior effective leads are not pairwise coprime"),
        ([prior_step(y(1, 2), ROLE_BARE), prior_step(y(1, 2) * y(2, 1), ROLE_BARE)],
         product.entry(2, 1),
         "bare_monomials_pairwise_coprime", "prior bare monomials are not pairwise coprime"),
        ([prior_step(x(1, 1) * y(1, 1), ROLE_BASE), prior_step(y(1, 1), ROLE_BARE)],
         product.entry(2, 2), "bare_monomials_coprime_to_prior_leads",
         "a bare monomial shares a variable with a prior effective lead"),
        ([prior_step(x(1, 1) * x(1, 1), ROLE_BARE)], product.entry(1, 2),
         "residue_lead_coprime_to_bare_monomials",
         "the residue lead shares a variable with a prior bare monomial"),
        ([], unsorted, "tail_below_residue_lead",
         "a residue term is not strictly below the residue lead"),
        ([prior_step(product.entry(1, 1), ROLE_BASE)], product.entry(1, 2),
         "residue_lead_coprime_to_prior_leads",
         "the residue lead x[1,1]*y[1,2] shares a variable with a prior effective lead"),
        ([prior_step(y(1, 2), ROLE_BARE)], x(1, 1) * y(1, 2),
         "residue_nonzero", "every term is divisible by a prior bare monomial"),
        ([], Polynomial.zero(product.table, gf, order),
         "residue_nonzero", "the element is zero"),
    ]
    cases = [(check_technical_step, *case) for case in technical]
    cases.append((coprime_extend_element, [prior_step(product.entry(1, 1), ROLE_BASE)],
                  x(1, 1), "lead_coprime_to_prior",
                  "lead x[1,1] shares a variable with a prior effective lead"))
    for step_fn, prior, h, condition, message in cases:
        with pytest.raises(CertificationError) as exc:
            step_fn(prior, h, order)
        assert exc.value.condition == condition
        assert str(exc.value) == f"[{condition}] {message}"


def step_outcome(step_fn, prior, h):
    """What ``step_fn`` makes of h: the failed condition and its message, or
    "ok" with the element's text, the effective lead, the subtractions,
    the strict form and the checks, every monomial as a support."""
    try:
        step = step_fn(prior, h)
    except CertificationError as exc:
        return exc.condition, str(exc)

    def support(m):
        return m if isinstance(m, tuple) else _support(m.exps)

    element = step.element
    text = (format_poly(element) if isinstance(element, Polynomial)
            else _format_terms(element.field, element.terms, element.table))
    subtractions = [(support(m), t.coefficient, support(t.monomial))
                    for m, t in step.subtractions]
    return "ok", (text, support(step.effective_lead), subtractions, step.strict_form,
                  step.checks)


def random_technical_prefixes(gf):
    """200 (prior steps, element) pairs in 7 variables under a lex, grevlex
    or elimination order.

    There are 0-5 hand-built prior steps of random roles, bare monomials of
    degree 1-2 and other leads of degree 1-3; half the time each takes its
    variables from its own block, so the prior is certifiable.  The
    element has 0-4 random terms of degree 1-3, half the time in the
    variables no prior step uses, plus, half the time, two terms that a
    prior bare monomial divides, their multipliers taken from a prior lead
    or at random; one element in eight is a bare variable.
    One element in four keeps its rows in a random order, and one in eight
    has a zero coefficient on its first row.
    """
    rng = random.Random(1618)
    nvars = 7
    table = VariableTable([f"v{k}" for k in range(nvars)])
    orders = [MonomialOrder.lex(nvars), MonomialOrder.grevlex(nvars),
              MonomialOrder.lex(nvars, (nvars - 1, *range(nvars - 1)))]

    def monomial(slots, degree):
        exps = np.zeros(nvars, dtype=np.int64)
        for _ in range(degree):
            exps[rng.choice(slots)] += 1
        return Monomial(exps)

    for _ in range(200):
        order = rng.choice(orders)
        count = rng.randint(0, 5)
        blocks = [list(range(nvars))] * count
        if rng.random() < 0.5:
            slots = rng.sample(range(nvars), nvars)
            blocks = [slots[k::count] for k in range(count)]
        prior = []
        for block in blocks:
            role = rng.choice([ROLE_BARE, ROLE_BASE, ROLE_TECHNICAL])
            mono = monomial(block, rng.randint(1, 2 if role == ROLE_BARE else 3))
            prior.append(prior_step(Polynomial.from_terms(table, gf, order, [(1, mono)]),
                                    role))
        if rng.random() < 0.125:
            h = Polynomial.variable(table, gf, order, rng.randrange(nvars))
        else:
            used = {v for s in prior for v in np.flatnonzero(s.effective_lead.exps).tolist()}
            fresh = [v for v in range(nvars) if v not in used]
            pool = fresh if fresh and rng.random() < 0.5 else range(nvars)
            terms = [(rng.randint(1, 50), monomial(pool, rng.randint(1, 3)))
                     for _ in range(rng.randint(0, 4))]
            bare = [s.effective_lead for s in prior if s.role == ROLE_BARE]
            leads = [s.effective_lead for s in prior if s.role != ROLE_BARE]
            if bare and rng.random() < 0.5:
                for _ in range(2):
                    if leads and rng.random() < 0.5:
                        lead = rng.choice(leads)
                        factor = monomial(np.flatnonzero(lead.exps).tolist(), 1)
                    else:
                        factor = monomial(range(nvars), 1)
                    terms.append((rng.randint(1, 50), rng.choice(bare) * factor))
            h = Polynomial.from_terms(table, gf, order, terms)
        rows, coeffs = h.exps, h.coeffs.copy()
        if h.num_terms > 1 and rng.random() < 0.25:
            perm = rng.sample(range(h.num_terms), h.num_terms)
            rows, coeffs = rows[perm], coeffs[perm]
        if h.num_terms and rng.random() < 0.125:
            coeffs[0] = 0
        yield prior, Polynomial(table, gf, order, rows, coeffs)


def test_sparse_technical_step_agrees_with_dense_reference_200_prefixes(gf):
    seen = set()
    for prior, h in random_technical_prefixes(gf):
        expected = step_outcome(dense_technical_step, prior, h)
        assert step_outcome(check_technical_step, prior, h) == expected, (prior, h)
        assert step_outcome(check_technical_step, _PriorLeads(prior), h) == expected
        seen.add(expected[0])
    # every condition was failed at least once, and some element certified
    assert seen == {"ok", "residue_nonzero", "residue_lead_unit",
                    "prior_leads_pairwise_coprime", "bare_monomials_pairwise_coprime",
                    "bare_monomials_coprime_to_prior_leads",
                    "residue_lead_coprime_to_bare_monomials",
                    "residue_lead_coprime_to_prior_leads", "tail_below_residue_lead"}


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def test_oracle_examples(gf):
    F2 = selected_entries(2, field=gf)
    assert sequence_oracle(F2, "hilbert").regular
    assert sequence_oracle(F2, "colon").regular

    full = entries_2x2(gf)
    assert sequence_oracle(full, "hilbert").verdict == "not-regular"
    colon = sequence_oracle(full, "colon")
    assert colon.verdict == "not-regular" and colon.first_failure == 4

    product = GenericProduct(2, field=gf)
    assert sequence_oracle([product.x(1, 1), product.y(1, 1)], "hilbert").regular
    assert sequence_oracle([], "hilbert").regular
    assert sequence_oracle([], "colon").regular


def test_hilbert_verdict_names_the_first_differing_degree(gf):
    full, _ = grevlex_entries(gf, 3, True)
    report = sequence_oracle(full, "hilbert")
    assert report.verdict == "not-regular"
    assert report.details == ["degree 5: Hilbert function 16758, complete intersection 16722"]
    # the 2x2 set leaves the complete-intersection series in degree 4
    report = sequence_oracle(entries_2x2(gf), "hilbert")
    assert report.details == ["degree 4: Hilbert function 195, complete intersection 192"]
    # a regular verdict names where the lead ideal reached dimension N - k
    assert sequence_oracle(selected_entries(3, field=gf), "hilbert").details == [
        "dimension: R/in(I) reaches N-k = 13 at degree 4 with 13 leads"]


def test_oracle_budget_is_an_error_not_a_verdict(gf):
    F2 = selected_entries(2, field=gf)
    with pytest.raises(BudgetExceededError):
        sequence_oracle(F2, "hilbert", pair_budget=1)


def test_hilbert_oracle_requires_prime_field():
    F2 = selected_entries(2, field=QQ)
    with pytest.raises(ValueError):
        sequence_oracle(F2, "hilbert")


def test_nonzerodivisor_colon_examples(gf):
    table = VariableTable.xy(2)
    order = MonomialOrder.grevlex(8)
    x11 = Polynomial.variable(table, gf, order, table.slot("x", 1, 1))
    y11 = Polynomial.variable(table, gf, order, table.slot("y", 1, 1))
    gb = groebner_basis([x11])
    step = nonzerodivisor_colon(gb, y11)
    assert step.regular is True and step.witness is None
    assert step.basis.polys == groebner_basis([x11, y11]).polys
    gb2 = groebner_basis([x11 * y11])
    step = nonzerodivisor_colon(gb2, x11)
    assert step.regular is False and step.basis is None
    assert format_poly(step.witness) == "y[1,1]"
    assert colon_witness_holds(gb2, x11, step.witness)

    product = GenericProduct(2, field=gf, order=order)
    gb3 = groebner_basis([product.entry(1, 1), product.entry(1, 2),
                          product.entry(2, 1)])
    step = nonzerodivisor_colon(gb3, product.entry(2, 2))
    assert step.regular is False
    assert colon_witness_holds(gb3, product.entry(2, 2), step.witness)


def random_coprime_lead_sequence(rng):
    nvars = rng.randint(2, 6)
    table = VariableTable([f"v{k}" for k in range(nvars)])
    order = MonomialOrder.grevlex(nvars) if rng.random() < 0.5 else MonomialOrder.lex(nvars)
    gf = PrimeField(32003)
    slots = list(range(nvars))
    rng.shuffle(slots)
    count = rng.randint(1, min(4, nvars))
    cut = sorted(rng.sample(range(1, nvars), count - 1)) if count > 1 else []
    chunks = [slots[a:b] for a, b in zip([0] + cut, cut + [nvars])]
    seq = []
    for chunk in chunks[:count]:
        degree = rng.randint(1, 3)
        lead = np.zeros(nvars, dtype=np.int64)
        for _ in range(degree):
            lead[rng.choice(chunk)] += 1
        terms = [(rng.randint(1, 100), Monomial(lead))]
        for _ in range(rng.randint(0, 2)):
            tail = np.zeros(nvars, dtype=np.int64)
            for _ in range(degree):
                tail[rng.randrange(nvars)] += 1
            if order_compare(order, tail, lead) < 0:
                terms.append((rng.randint(1, 100), Monomial(tail)))
        seq.append(Polynomial.from_terms(table, gf, order, terms))
    return seq, order


def test_coprime_lead_sequences_are_regular_200_trials():
    rng = random.Random(31337)
    for _ in range(200):
        seq, order = random_coprime_lead_sequence(rng)
        ok, witness = check_coprime_leads(seq, order)
        assert ok, witness
        assert sequence_oracle(seq, "hilbert").regular


def test_oracle_methods_agree(gf):
    rng = random.Random(8)
    checked = 0
    for _ in range(12):
        seq, order = random_coprime_lead_sequence(rng)
        seq = seq[: rng.randint(1, len(seq))]
        if rng.random() < 0.5 and len(seq) >= 2:
            seq.append(seq[0] * seq[1])  # a member: certainly a zerodivisor
        h = sequence_oracle(seq, "hilbert")
        c = sequence_oracle(seq, "colon")
        assert h.verdict == c.verdict
        checked += 1
    assert checked == 12


def test_permutation_invariance_n2(gf):
    import itertools

    F2 = selected_entries(2, field=gf)
    for perm in itertools.permutations(F2):
        assert sequence_oracle(list(perm), "hilbert").regular


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


def test_certificate_roundtrip_and_recheck(gf):
    for n, field in [(n, gf) for n in range(2, 9)] + [(3, QQ)]:
        cert = certify_pattern(n, field=field)
        data = json.loads(json.dumps(cert.to_json_dict()))
        assert recheck_certificate(data) == "certified", (n, field)


def test_certificate_tamper_detection(gf):
    cert = certify_pattern(2, field=gf)
    data = cert.to_json_dict()
    # claim a wrong effective lead for the last step
    data["steps"][-1]["effective_lead"] = "x[1,1]*y[1,1]"
    assert recheck_certificate(data) == "failed"

    data2 = certify_pattern(2, field=gf).to_json_dict()
    # drop a recorded subtraction: the residue lead check must now clash
    data2["steps"][-1]["subtractions"] = []
    assert recheck_certificate(data2) == "failed"


def genuine(n=2):
    return json.loads(json.dumps(certify_pattern(n).to_json_dict()))


def technical_step(label, element, kept, dropped, role=ROLE_TECHNICAL):
    """A TECHNICAL step that claims ``kept`` as lead after shedding ``dropped``."""
    return {"kind": "TECHNICAL", "label": label, "role": role,
            "element": element, "effective_lead": kept,
            "subtractions": [["1", dropped]], "m_next": kept,
            "checks": genuine()["steps"][0]["checks"], "strict_form": True}


def test_recheck_rejects_forgeries():
    empty = genuine(5)
    empty["steps"] = []
    assert recheck_certificate(empty) == "failed"

    # all four 2x2 entries, each shedding one term, which counterexample_2x2
    # proves is not a regular sequence
    full = genuine()
    full["steps"] = [
        technical_step("f[1,1]", "x[1,1]*y[1,1] + x[1,2]*y[2,1]",
                       "x[1,1]*y[1,1]", "x[1,2]*y[2,1]", ROLE_BASE),
        technical_step("f[1,2]", "x[1,1]*y[1,2] + x[1,2]*y[2,2]",
                       "x[1,2]*y[2,2]", "x[1,1]*y[1,2]"),
        technical_step("f[2,1]", "x[2,2]*y[2,1] + x[2,1]*y[1,1]",
                       "x[2,2]*y[2,1]", "x[2,1]*y[1,1]", ROLE_BASE),
        technical_step("f[2,2]", "x[2,1]*y[1,2] + x[2,2]*y[2,2]",
                       "x[2,1]*y[1,2]", "x[2,2]*y[2,2]"),
    ]
    assert recheck_certificate(full) == "failed"

    # the monomial y[1,2]*x[1,1] is not a prior bare monomial
    foreign = genuine()
    foreign["steps"][3]["subtractions"] = [["y[1,2]*x[1,1]", "1"]]
    assert recheck_certificate(foreign) == "failed"

    binomial = genuine()
    assert binomial["steps"][2]["role"] == ROLE_BARE
    binomial["steps"][2]["element"] = "y[1,2] + y[2,2]"
    assert recheck_certificate(binomial) == "failed"

    for verdict in ("regular", "failed", "not-regular"):
        stored = genuine()
        stored["verdict"] = verdict
        assert recheck_certificate(stored) == "failed"


def leaves(node, path=()):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from leaves(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from leaves(value, path + (i,))
    else:
        yield path, node


def lookup(node, path):
    for key in path:
        if isinstance(node, dict) and key in node:
            node = node[key]
        elif isinstance(node, list) and isinstance(key, int) and key < len(node):
            node = node[key]
        else:
            raise LookupError(path)
    return node


def nested_dicts(node, path=()):
    """(path, dict) for every dict nested below ``node``."""
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, value in children:
        if isinstance(value, dict):
            yield path + (key,), value
        yield from nested_dicts(value, path + (key,))


def replaced(data, path, value):
    out = copy.deepcopy(data)
    lookup(out, path[:-1])[path[-1]] = value
    return out


def one_change_mutations(data):
    """Every certificate that differs from ``data`` by one change: a leaf
    value, a deleted key, a dropped step, or two adjacent steps swapped."""
    steps = data["steps"]
    for path, value in leaves(data):
        if isinstance(value, bool):
            yield replaced(data, path, not value)
        elif isinstance(value, int):
            yield replaced(data, path, value + 1)
        elif path[0] == "steps":
            # a string or null: take the same field of another step
            others = []
            for j in range(len(steps)):
                try:
                    others.append(lookup(steps[j], path[2:]))
                except LookupError:
                    pass
            swap = next((o for o in others if o != value), None)
            yield replaced(data, path, swap if swap is not None else f"{value}*y[1,1]")
        else:
            yield replaced(data, path, f"{value}?")
    for path, node in [((), data)] + list(nested_dicts(data)):
        for key in node:
            out = copy.deepcopy(data)
            del lookup(out, path)[key]
            yield out
    for i in range(len(steps)):
        yield replaced(data, ("steps",), steps[:i] + steps[i + 1:])
    for i in range(len(steps) - 1):
        swapped = list(steps)
        swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
        yield replaced(data, ("steps",), swapped)


def test_recheck_rejects_every_one_change_mutation():
    data = genuine(3)
    assert recheck_certificate(data) == "certified"
    count = 0
    for bad in one_change_mutations(data):
        assert bad != data
        try:
            verdict = recheck_certificate(bad)
        except CertificateFormatError:
            verdict = "malformed"
        assert verdict != "certified", bad
        count += 1
    assert count >= 200


def test_recheck_fails_wrong_step_counts_before_recertifying():
    huge = dict(genuine(), n=1000000, steps=[])
    start = time.perf_counter()
    assert recheck_certificate(huge) == "failed"
    assert time.perf_counter() - start < 1.0
    for steps in ("steps", {}, genuine()["steps"][:3], genuine(3)["steps"]):
        assert recheck_certificate(dict(genuine(), steps=steps)) == "failed"


def test_recheck_rejects_malformed_certificates():
    good = genuine()
    bad = [[], "certificate", {k: v for k, v in good.items() if k != "field"},
           {k: v for k, v in good.items() if k != "steps"},
           dict(good, n="2"), dict(good, n=1), dict(good, n=True), dict(good, n=2.0),
           dict(good, field="gfp"), dict(good, field={"kind": "real"}),
           dict(good, field={"kind": "gfp"}),
           dict(good, field={"kind": "gfp", "prime": 32004})]
    for data in bad:
        with pytest.raises(CertificateFormatError):
            recheck_certificate(data)


def test_certificates_confirmed_by_oracles(gf):
    for n in (2, 3):
        cert = certify_pattern(n, field=gf)
        assert cert.verdict == "certified"
        seq = selected_entries(n, field=gf)
        assert sequence_oracle(seq, "hilbert").regular
        assert sequence_oracle(seq, "colon").regular


# ---------------------------------------------------------------------------
# greedy extension
# ---------------------------------------------------------------------------


def test_greedy_extension_examples(gf):
    F2 = selected_entries(2, field=gf)
    product = GenericProduct(2, field=gf)
    report = greedy_extend(F2, [product.entry(2, 2)], "hilbert")
    assert len(report.chain) == 3
    assert report.rejected == [(0, "not-regular")]

    report = greedy_extend([], [product.x(1, 1), product.y(1, 1)], "hilbert")
    assert len(report.chain) == 2 and report.accepted == [0, 1]

    report = greedy_extend(F2, [], "hilbert")
    assert report.chain == F2 and not report.rejected


def test_greedy_extension_logs_inconclusive(gf):
    """The first two selected entries at n=3 take 3 pairs in a complete run;
    with the third, the dimension stop needs 8 pairs (the complete run 21),
    so a budget of 5 passes the base and stops the candidate's run."""
    base, candidate = selected_entries(3, field=gf)[:2], selected_entries(3, field=gf)[2]
    report = greedy_extend(base, [candidate], "hilbert", pair_budget=5)
    assert report.chain == base
    assert len(report.rejected) == 1
    assert report.rejected[0][1].startswith("inconclusive")


def test_greedy_extension_rejects_irregular_base(gf):
    full = entries_2x2(gf)
    with pytest.raises(ValueError):
        greedy_extend(full, [], "hilbert")


@pytest.mark.parametrize("method", ["hilbert", "colon"])
def test_mixed_rings_are_an_error_not_a_verdict(gf, method):
    mod_p, rational = selected_entries(2, field=gf), selected_entries(2, field=QQ)
    wider = selected_entries(3, field=gf)
    cases = [([mod_p[0], rational[1]], ValueError, "divisor over a different coefficient field"),
             ([mod_p[0], wider[1]], DimensionError,
              "polynomial over a different-size variable table")]
    for seq, error, message in cases:
        with pytest.raises(error, match=message):
            sequence_oracle(seq, method)
        with pytest.raises(error, match=message):
            greedy_extend(seq[:1], seq[1:], method)
        with pytest.raises(error, match=message):
            greedy_extend(mod_p, seq, method)
