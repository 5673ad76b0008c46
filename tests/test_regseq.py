import copy
import json
import random
import time

import numpy as np
import pytest

from conftest import entries_2x2, grevlex_entries, random_monomial
from xyreg.errors import (BudgetExceededError, CertificateFormatError,
                          CertificationError, UndefinedLeadError)
from xyreg.fields import PrimeField, QQ
from xyreg.groebner import groebner_basis
from xyreg.orders import MonomialOrder
from xyreg.pattern import (GenericProduct, certification_order, certify_pattern,
                           recheck_certificate, selected_entries)
from xyreg.poly import Polynomial, Term, format_poly
from xyreg.regseq import (ROLE_BARE, ROLE_BASE, ROLE_TECHNICAL,
                          CertificateStep, check_coprime_leads,
                          check_technical_step, coprime_extend_element,
                          greedy_extend, nonzerodivisor_colon,
                          regular_oracle_hilbert, sequence_oracle)
from xyreg.ring import Monomial, VariableTable, format_monomial


# ---------------------------------------------------------------------------
# lead coprimality and the technical step
# ---------------------------------------------------------------------------


def test_check_coprime_leads_examples(gf):
    product = GenericProduct(3, field=gf)
    order = certification_order(3)
    col1 = [product.entry(i, 1) for i in (1, 2, 3)] + [product.y(1, 2)]
    ok, witness = check_coprime_leads(col1, order)
    assert ok and witness is None

    f11, f12 = product.entry(1, 1), product.entry(1, 2)
    ok, witness = check_coprime_leads([f11, f12], order)
    assert not ok
    i, j, lead_i, lead_j = witness
    assert (i, j) == (0, 1)
    shared = lead_i.gcd(lead_j)
    assert format_monomial(shared, product.table) == "x[1,1]"

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
        order = certification_order(n)
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
    order = certification_order(4)
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
    order = certification_order(2)
    prior = [coprime_extend_element([], product.entry(1, 1), order, role=ROLE_BASE)]
    with pytest.raises(CertificationError) as exc:
        check_technical_step(prior, product.entry(1, 2), order)
    assert exc.value.condition == "residue_lead_coprime_to_prior_leads"


def test_technical_step_degenerate_residue(gf):
    product = GenericProduct(2, field=gf)
    order = certification_order(2)
    prior = [coprime_extend_element([], product.y(1, 2), order, role=ROLE_BARE)]
    with pytest.raises(CertificationError) as exc:
        check_technical_step(prior, product.x(1, 1) * product.y(1, 2), order)
    assert exc.value.condition == "residue_nonzero"


def test_coprime_extend_rejects_clash(gf):
    product = GenericProduct(2, field=gf)
    order = certification_order(2)
    prior = [coprime_extend_element([], product.entry(1, 1), order, role=ROLE_BASE)]
    with pytest.raises(CertificationError):
        coprime_extend_element(prior, product.x(1, 1), order, role=ROLE_BARE)


def prior_step(poly, role):
    """A hand-built step whose effective lead is the lead of ``poly``."""
    return CertificateStep(kind="TECHNICAL", label="", element=poly,
                           effective_lead=poly.leading_monomial(), role=role)


def test_technical_step_negative_controls(gf):
    product = GenericProduct(2, field=gf)
    order = certification_order(2)
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
    order = certification_order(2)
    x, y = product.x, product.y
    f11 = product.entry(1, 1)  # x[1,1]*y[1,1] + x[1,2]*y[2,1]
    # x[1,1] and y[1,1] both divide the lead term; prior order decides
    for first, second, multiplier in [(x(1, 1), y(1, 1), "y[1,1]"),
                                      (y(1, 1), x(1, 1), "x[1,1]")]:
        prior = [prior_step(first, ROLE_BARE), prior_step(second, ROLE_BARE)]
        step = check_technical_step(prior, f11, order)
        assert len(step.subtractions) == 1
        mono, mult = step.subtractions[0]
        assert mono == first.leading_monomial()
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


def test_variable_counts_agree_with_pairwise_coprime_200_lists(gf):
    rng = random.Random(2718)
    nvars = 8
    table = VariableTable.generic([f"v{k}" for k in range(nvars)])
    order = MonomialOrder.grevlex(nvars)
    outcomes = set()
    for _ in range(200):
        monos = [random_monomial(rng, nvars, 2) for _ in range(rng.randint(1, 6))]
        *earlier, last = monos
        polys = [Polynomial.from_terms(table, gf, order, [(1, m)]) for m in monos]
        roles = [rng.choice([ROLE_BARE, ROLE_BASE, ROLE_TECHNICAL]) for _ in earlier]
        prior = [prior_step(p, role) for p, role in zip(polys, roles)]

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
    assert sequence_oracle(selected_entries(3, field=gf), "hilbert").details == []


def test_oracle_budget_is_an_error_not_a_verdict(gf):
    F2 = selected_entries(2, field=gf)
    with pytest.raises(BudgetExceededError):
        sequence_oracle(F2, "hilbert", pair_budget=1)


def test_hilbert_oracle_requires_prime_field():
    F2 = selected_entries(2, field=QQ)
    with pytest.raises(ValueError):
        regular_oracle_hilbert(F2)


def test_nonzerodivisor_colon_examples(gf):
    table = VariableTable.xy(2)
    order = MonomialOrder.grevlex(8)
    x11 = Polynomial.variable(table, gf, order, table.slot("x", 1, 1))
    y11 = Polynomial.variable(table, gf, order, table.slot("y", 1, 1))
    gb = groebner_basis([x11])
    assert nonzerodivisor_colon(gb, y11) is True
    gb2 = groebner_basis([x11 * y11])
    assert nonzerodivisor_colon(gb2, x11) is False

    product = GenericProduct(2, field=gf, order=order)
    gb3 = groebner_basis([product.entry(1, 1), product.entry(1, 2),
                          product.entry(2, 1)])
    assert nonzerodivisor_colon(gb3, product.entry(2, 2)) is False


def random_coprime_lead_sequence(rng):
    nvars = rng.randint(2, 6)
    table = VariableTable.generic([f"v{k}" for k in range(nvars)])
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
            if order.compare(Monomial(tail), Monomial(lead)) < 0:
                terms.append((rng.randint(1, 100), Monomial(tail)))
        seq.append(Polynomial.from_terms(table, gf, order, terms))
    return seq, order


def test_coprime_lead_sequences_are_regular_200_trials():
    rng = random.Random(31337)
    for _ in range(200):
        seq, order = random_coprime_lead_sequence(rng)
        ok, witness = check_coprime_leads(seq, order)
        assert ok, witness
        assert regular_oracle_hilbert(seq) is True


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
    product = GenericProduct(2, field=gf)
    f11 = product.entry(1, 1)
    report = greedy_extend([f11], [product.entry(1, 2)], "hilbert", pair_budget=1)
    assert report.chain == [f11]
    assert len(report.rejected) == 1
    assert report.rejected[0][1].startswith("inconclusive")


def test_greedy_extension_rejects_irregular_base(gf):
    full = entries_2x2(gf)
    with pytest.raises(ValueError):
        greedy_extend(full, [], "hilbert")
