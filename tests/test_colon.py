"""The signature-based colon oracle against the elimination colon it replaced.

``reference_colon_oracle`` is the colon oracle as it was before the G2V
step: at every index a fresh Groebner basis of the prefix, and (J : f) = J
decided by computing J intersect <f> over a ring with one more variable t
(the ideal t*J + (1 - t)*<f> under an order eliminating t), dividing each
t-free generator by f and testing the quotients for membership in J.  It
shares Buchberger's algorithm with the Hilbert oracle and nothing with the
signature step, so agreement between the two is evidence for both.
"""

import json
import random

import numpy as np
import pytest

from conftest import entries_2x2
from xyreg.cli import main
from xyreg.errors import BudgetExceededError, CrossCheckError
from xyreg.fields import PrimeField, QQ
from xyreg.groebner import groebner_basis, multi_divide, normal_form, reduce_basis
from xyreg.orders import MonomialOrder
from xyreg.pattern import GenericProduct, PatternSpec, selected_entries
from xyreg.poly import Polynomial, canonicalize, format_poly, parse_poly
from xyreg.regseq import (colon_witness_holds, greedy_extend, nonzerodivisor_colon,
                          sequence_oracle)
from xyreg.ring import Monomial, VariableTable

FIELDS = (PrimeField(7), PrimeField(32003), QQ)


# ---------------------------------------------------------------------------
# the elimination reference
# ---------------------------------------------------------------------------


def lift(p, table, order):
    """p over ``table``, whose leading slots are p's, under ``order``."""
    extra = np.zeros((p.num_terms, table.nvars - p.table.nvars), dtype=np.int64)
    return canonicalize(table, p.field, order, np.hstack([p.exps, extra]), p.coeffs)


def reference_nonzerodivisor(prefix_gb, f):
    """True iff (J : f) = J, through J intersect <f> in an elimination ring."""
    if f.is_zero():
        return False
    if prefix_gb is None or len(prefix_gb.polys) == 0:
        return True
    if prefix_gb.contains_unit():
        return True
    order, table, field = prefix_gb.order, prefix_gb.table, f.field
    ext_table = VariableTable(table.names + ("_elim",))
    aux = table.nvars
    ext_order = MonomialOrder.lex(aux + 1, (aux, *range(aux)))  # eliminates t
    t = Polynomial.variable(ext_table, field, ext_order, aux)
    one = Polynomial.constant(ext_table, field, ext_order, field.one)
    gens = [t * lift(g, ext_table, ext_order) for g in prefix_gb.polys]
    gens.append((one - t) * lift(f, ext_table, ext_order))
    for g in groebner_basis(gens, ext_order).polys:
        if (g.exps[:, aux] != 0).any():
            continue
        base = canonicalize(table, field, order, g.exps[:, :aux], g.coeffs)
        quots, rem = multi_divide(base, [f])
        assert rem.is_zero(), "intersection generator not divisible by f"
        if not normal_form(quots[0], prefix_gb).is_zero():
            return False
    return True


def reference_colon_oracle(seq):
    """(verdict, first failure) of the colon oracle with from-scratch prefix
    bases and the elimination colon."""
    order = MonomialOrder.grevlex(seq[0].table.nvars)
    seq = [p.resort(order) for p in seq]
    gb = None
    for i, p in enumerate(seq, start=1):
        if p.is_zero() or not reference_nonzerodivisor(gb, p):
            return "not-regular", i
        gb = groebner_basis(seq[:i], order)
        if gb.contains_unit():
            return "not-regular", i
    return "regular", None


# ---------------------------------------------------------------------------
# random sequences
# ---------------------------------------------------------------------------


def random_element(rng, table, field, order, homogeneous):
    degree = rng.randint(1, 2)
    terms = []
    for _ in range(rng.randint(1, 4)):
        exps = [0] * table.nvars
        for _ in range(degree if homogeneous else rng.randint(0, degree)):
            exps[rng.randrange(table.nvars)] += 1
        terms.append((field.coerce(rng.randint(1, 6)), Monomial(np.array(exps))))
    return Polynomial.from_terms(table, field, order, terms)


def random_sequence(rng):
    """A short sequence over 2-4 variables, homogeneous or not; about half
    are built to fail (a member of the prefix, or a shared factor)."""
    nvars = rng.randint(2, 4)
    table = VariableTable([f"v{k}" for k in range(nvars)])
    field = rng.choice(FIELDS)
    order = rng.choice([MonomialOrder.grevlex(nvars), MonomialOrder.lex(nvars)])
    homogeneous = rng.random() < 0.5

    def element():
        return random_element(rng, table, field, order, homogeneous)

    seq = [element() for _ in range(rng.randint(1, nvars))]
    kind = rng.random()
    if kind < 0.25:
        seq.insert(rng.randint(1, len(seq)), rng.choice(seq) * element())
    elif kind < 0.5:
        common = element()
        seq[0] = common * element()
        seq.insert(rng.randint(1, len(seq)), common * element())
    return seq


def basis_bytes(gb):
    return [(p.exps.tobytes(), p.coeffs.tolist()) for p in gb.polys]


def assert_minimal_basis_of(gb, reference):
    """``gb`` is a minimal Groebner basis of the ideal whose reduced basis
    is ``reference``: no lead divides another, it has as many elements, each
    lies in the ideal, and interreducing it gives ``reference`` exactly."""
    leads = [p.leading_monomial() for p in gb.polys]
    assert not any(a.divides(b) for i, a in enumerate(leads)
                   for j, b in enumerate(leads) if i != j)
    assert len(gb) == len(reference)
    assert all(normal_form(p, reference).is_zero() for p in gb.polys)
    assert basis_bytes(reduce_basis(gb)) == basis_bytes(reference)


def test_colon_oracle_agrees_with_the_elimination_reference_on_random_sequences():
    rng = random.Random(20261018)
    seen = {}
    for trial in range(240):
        seq = random_sequence(rng)
        report = sequence_oracle(seq, "colon")
        verdict, failure = reference_colon_oracle(seq)
        assert (report.verdict, report.first_failure) == (verdict, failure), trial
        seen[verdict] = seen.get(verdict, 0) + 1
        # each step's basis is a minimal basis of its prefix
        order = MonomialOrder.grevlex(seq[0].table.nvars)
        gb = None
        for i, p in enumerate(seq[:failure - 1 if failure else len(seq)], start=1):
            step = nonzerodivisor_colon(gb, p.resort(order))
            assert step.regular, trial
            gb = step.basis
            assert_minimal_basis_of(gb, groebner_basis(seq[:i], order))
        if report.witness is not None:
            assert colon_witness_holds(gb, seq[failure - 1], report.witness), trial
    assert seen["regular"] >= 60 and seen["not-regular"] >= 60, seen


def test_selected_entries_walk_matches_groebner_basis_and_reference(gf):
    for n in (2, 3):
        seq = selected_entries(n, field=gf)
        report = sequence_oracle(seq, "colon")
        assert (report.verdict, report.first_failure) == reference_colon_oracle(seq)
        order = MonomialOrder.grevlex(2 * n * n)
        gb = None
        for i, p in enumerate(seq, start=1):
            gb = nonzerodivisor_colon(gb, p.resort(order)).basis
            assert_minimal_basis_of(gb, groebner_basis(seq[:i], order))


# ---------------------------------------------------------------------------
# witnesses
# ---------------------------------------------------------------------------


def full_entries(gf, n, pattern_order):
    product = GenericProduct(n, field=gf)
    positions = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    if pattern_order:
        selected = list(PatternSpec.build(n).positions)
        positions = selected + [p for p in positions if p not in selected]
    return [product.entry(i, j) for i, j in positions]


def prefix_basis(seq, i):
    """The reduced grevlex basis of seq[:i-1] and f_i resorted to it."""
    order = MonomialOrder.grevlex(seq[0].table.nvars)
    return groebner_basis(seq[:i - 1], order), seq[i - 1].resort(order)


@pytest.mark.parametrize("n, pattern_order, index",
                         [(2, False, 4), (2, True, 4), (3, False, 6), (3, True, 7)])
def test_full_sets_fail_with_a_checkable_witness(gf, n, pattern_order, index):
    seq = full_entries(gf, n, pattern_order)
    report = sequence_oracle(seq, "colon")
    assert report.verdict == "not-regular" and report.first_failure == index
    assert report.details[-1] == f"index {index}: zerodivisor modulo the prefix"
    assert report.witness is not None
    assert colon_witness_holds(*prefix_basis(seq, index), report.witness)
    assert (report.verdict, report.first_failure) == reference_colon_oracle(seq)


def test_an_edited_witness_fails_the_check(gf):
    seq = full_entries(gf, 3, False)
    report = sequence_oracle(seq, "colon")
    u = report.witness
    assert u.num_terms >= 2
    # one coefficient changed
    coeffs = u.coeffs.copy()
    coeffs[1] = gf.add(coeffs[1], 1)
    edited = Polynomial(u.table, u.field, u.order, u.exps, coeffs)
    assert not colon_witness_holds(*prefix_basis(seq, 6), edited)
    # the right witness at the wrong index
    for wrong in (5, 7):
        assert not colon_witness_holds(*prefix_basis(seq, wrong), u)
    two = entries_2x2(gf)
    assert not colon_witness_holds(*prefix_basis(two, 3),
                                   sequence_oracle(two, "colon").witness)


def test_a_witness_that_fails_its_check_is_an_error(gf, monkeypatch):
    import xyreg.regseq as regseq

    seq = entries_2x2(gf)
    real = regseq.nonzerodivisor_colon

    def forged(prefix_gb, f, **budgets):
        step = real(prefix_gb, f, **budgets)
        if step.witness is not None:  # 1 is not in J, but f is not in J either
            step.witness = Polynomial.constant(f.table, gf, f.order, gf.one)
        return step

    monkeypatch.setattr(regseq, "nonzerodivisor_colon", forged)
    with pytest.raises(CrossCheckError):
        sequence_oracle(seq, "colon")


def test_a_member_is_witnessed_by_one(gf):
    product = GenericProduct(2, field=gf)
    f11, f12 = product.entry(1, 1), product.entry(1, 2)
    report = sequence_oracle([f11, f12, f11 * f12], "colon")
    assert report.first_failure == 3 and format_poly(report.witness) == "1"


def test_colon_steps_leave_their_prefix_basis_as_it_was(gf):
    # greedy_extend runs one step per candidate on one prefix basis; on the
    # first five 3x3 entries in row order the sixth is a zerodivisor, the
    # rest are not
    order = MonomialOrder.grevlex(18)
    entries = [p.resort(order) for p in full_entries(gf, 3, False)]
    base, candidates = entries[:5], entries[5:]

    def prefix():
        gb = None
        for p in base:
            gb = nonzerodivisor_colon(gb, p).basis
        return gb

    def answer(step):
        return (step.regular, step.basis and basis_bytes(step.basis),
                step.witness and format_poly(step.witness))

    alone = [answer(nonzerodivisor_colon(prefix(), c)) for c in candidates]
    assert [regular for regular, _, _ in alone] == [False, True, True, True]
    gb = prefix()
    div = gb.flat_arrays()
    size, leads, keys = len(div), div.leads.copy(), list(div.keys)
    assert [answer(nonzerodivisor_colon(gb, c)) for c in candidates] == alone
    assert gb.flat_arrays() is div
    assert len(div) == size and (div.leads == leads).all() and div.keys == keys


# ---------------------------------------------------------------------------
# counters and budgets
# ---------------------------------------------------------------------------


# (considered, syzygy, cover, reduced, zero) J-pair totals of the walk over
# GF(32003), recorded when the walk still handed on reduced prefix bases;
# minimal ones must give the same counts
SIGNATURE_TOTALS = {2: (10, 8, 0, 2, 0), 3: (78, 64, 6, 8, 0), 4: (692, 589, 72, 31, 0),
                    5: (2372, 2031, 280, 61, 0)}


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_no_reduction_to_zero_on_the_selected_entries(gf, n):
    order = MonomialOrder.grevlex(2 * n * n)
    gb = None
    total = dict.fromkeys(("considered", "syzygy", "cover", "reduced", "zero"), 0)
    for p in selected_entries(n, field=gf):
        step = nonzerodivisor_colon(gb, p.resort(order))
        assert step.regular
        gb = step.basis
        s = step.stats
        # a finished step takes every J-pair it queued off its queue
        assert s.considered == s.syzygy + s.cover + s.reduced
        for name in total:
            total[name] += getattr(s, name)
    assert total["zero"] == 0
    assert total["reduced"] > 0 and total["considered"] > total["reduced"]
    assert tuple(total.values()) == SIGNATURE_TOTALS[n]


def test_colon_budgets_are_hard_stops(gf, capsys):
    seq = selected_entries(3, field=gf)
    with pytest.raises(BudgetExceededError) as exc:
        sequence_oracle(seq, "colon", pair_budget=1)
    assert exc.value.pairs_considered > 1
    with pytest.raises(BudgetExceededError) as exc:
        sequence_oracle(seq, "colon", degree_budget=2)
    assert exc.value.degree_reached == 3
    assert main(["oracle", "--method", "colon", "--n", "3", "--budget-pairs", "1"]) == 3
    assert "inconclusive" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# incremental search
# ---------------------------------------------------------------------------


def test_colon_search_agrees_with_hilbert_search(gf):
    n = 3
    product = GenericProduct(n, field=gf)
    spec = PatternSpec.build(n)
    base = [product.entry(s, t) for s, t in spec.positions]
    candidates = [product.entry(i, j) for i in range(1, n + 1) for j in range(1, n + 1)
                  if (i, j) not in spec.positions]
    colon = greedy_extend(base, candidates, "colon")
    hilbert = greedy_extend(base, candidates, "hilbert")
    assert (colon.accepted, colon.rejected) == (hilbert.accepted, hilbert.rejected)
    assert colon.chain == hilbert.chain
    assert sequence_oracle(colon.chain, "colon").regular


def test_colon_search_logs_inconclusive_and_skips_members(gf):
    product = GenericProduct(2, field=gf)
    f11, f12 = product.entry(1, 1), product.entry(1, 2)
    report = greedy_extend([f11], [f12], "colon", pair_budget=1)
    assert report.chain == [f11]
    assert report.rejected[0][1].startswith("inconclusive")
    zero = Polynomial.zero(f11.table, gf, f11.order)
    report = greedy_extend([f11], [f11 * f12, zero, f12], "colon")
    assert report.accepted == [2]
    assert report.rejected == [(0, "not-regular"), (1, "not-regular")]


def test_parsed_witness_round_trips(gf):
    seq = full_entries(gf, 3, True)
    u = sequence_oracle(seq, "colon").witness
    assert parse_poly(format_poly(u), u.table, gf, u.order) == u


def test_cli_reports_the_witness_only_on_a_zerodivisor(tmp_path, capsys):
    seq = tmp_path / "all-four.txt"
    seq.write_text("\n".join(" + ".join(f"x[{i},{k}]*y[{k},{j}]" for k in (1, 2))
                             for i in (1, 2) for j in (1, 2)) + "\n")
    oracle = ["oracle", "--method", "colon", "--n", "2"]
    assert main(oracle + ["--input", str(seq), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["witness"] == {"index": 4, "u": "x[1,2]*y[2,1]"}
    assert main(oracle + ["--input", str(seq)]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "witness at index 4: u = x[1,2]*y[2,1]"
    assert main(oracle + ["--format", "json"]) == 0
    assert "witness" not in json.loads(capsys.readouterr().out)
