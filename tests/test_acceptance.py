"""Acceptance gate: one test per release criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Every tolerance and time limit is pinned here; a failure of any assertion is
a release blocker.
"""

import itertools
import random
import time

import numpy as np

from conftest import entries_2x2
from xyreg.fields import PrimeField, QQ
from xyreg.groebner import buchberger, normal_form, reduce_basis, s_poly
from xyreg.hilbert import hilbert_numerator, hilbert_series_quotient
from xyreg.orders import MonomialOrder
from xyreg.pattern import (GenericProduct, PatternSpec, certify_pattern,
                           column_limit, counterexample_2x2,
                           expected_effective_lead, selected_entries)
from xyreg.poly import Polynomial, format_poly
from xyreg.regseq import sequence_oracle
from xyreg.ring import Monomial, VariableTable

from test_hilbert import complete_intersection, count_standard_monomials, series_coefficients
from test_regseq import check_coprime_leads, random_coprime_lead_sequence

GF = PrimeField(32003)


def test_counterexample_identity_and_witnesses():
    t0 = time.perf_counter()
    report = counterexample_2x2(field=QQ)
    elapsed = time.perf_counter() - t0
    assert report.residue == "0"
    assert report.passed, report.checks
    # the witness monomial sits outside the prefix ideal in both framings
    claims = dict(report.checks)
    assert claims["x[2,1]*y[1,2] lies outside <f[1,1], f[1,2], f[2,1]>"]
    assert claims["x[1,1]*y[2,1] * f[2,2] lies in <f[1,1], f[1,2], f[2,1]>"]
    assert elapsed < 1.0, f"counterexample took {elapsed:.2f}s"
    print(f"\nACCEPTANCE counterexample: PASS ({elapsed * 1000:.0f} ms, "
          f"{len(report.checks)} checks)")


def test_certification_n2_to_n8():
    worst = 0.0
    for n in range(2, 9):
        t0 = time.perf_counter()
        cert = certify_pattern(n, field=GF)
        elapsed = time.perf_counter() - t0
        worst = max(worst, elapsed)
        assert cert.verdict == "certified", (n, cert.failure)
        assert elapsed < 10.0, f"n={n} took {elapsed:.2f}s"
        for step in cert.steps:
            if step.kind != "TECHNICAL":
                continue
            s, t = map(int, step.label[2:-1].split(","))
            assert step.effective_lead == expected_effective_lead(n, s, t), \
                (n, step.label)
    print(f"ACCEPTANCE certification n=2..8: PASS (worst run {worst:.2f}s)")


def test_hilbert_oracle_confirms_selected_entries():
    times = {}
    for n in (2, 3):
        seq = selected_entries(n, field=GF)
        t0 = time.perf_counter()
        assert sequence_oracle(seq, "hilbert").regular
        times[n] = time.perf_counter() - t0
        assert times[n] < 60.0, f"n={n} took {times[n]:.1f}s"
        order = MonomialOrder.grevlex(2 * n * n)
        hd = hilbert_series_quotient([p.resort(order) for p in seq])
        assert hd.nvars == 2 * n * n
        assert hd.numerator == complete_intersection([2] * len(seq))
    hd2 = hilbert_series_quotient(
        [p.resort(MonomialOrder.grevlex(8)) for p in selected_entries(2, field=GF)])
    assert series_coefficients(hd2, 2) == [1, 8, 33]
    print(f"ACCEPTANCE hilbert oracle n=2,3: PASS "
          f"({times[2] * 1000:.0f} ms, {times[3] * 1000:.0f} ms; "
          f"n=2 series begins 1, 8, 33)")


def test_negative_control_full_2x2_set():
    full = entries_2x2(GF)
    hil = sequence_oracle(full, "hilbert")
    col = sequence_oracle(full, "colon")
    assert hil.verdict == "not-regular"
    assert col.verdict == "not-regular"
    assert col.first_failure == 4
    print("ACCEPTANCE negative control: PASS (both methods; "
          "colon fails first at index 4)")


def test_coprime_lead_suite_200_sequences():
    rng = random.Random(31337)
    disagreements = 0
    for _ in range(200):
        seq, order = random_coprime_lead_sequence(rng)
        ok, _ = check_coprime_leads(seq, order)
        assert ok
        if not sequence_oracle(seq, "hilbert").regular:
            disagreements += 1
    assert disagreements == 0
    print("ACCEPTANCE coprime-lead suite: PASS (200 sequences, 0 disagreements)")


def _engine_test_ideals():
    table = VariableTable(["u", "v"])
    order = MonomialOrder.lex(2)
    u = Polynomial.variable(table, GF, order, 0)
    v = Polynomial.variable(table, GF, order, 1)
    yield "lex pair", [u - v, v * v]
    for n in (2, 3):
        product = GenericProduct(n, field=GF)
        yield f"column one n={n}", [product.entry(i, 1) for i in range(1, n + 1)]
    product = GenericProduct(2, field=GF)
    yield "three entries n=2", [product.entry(1, 1), product.entry(1, 2),
                                product.entry(2, 1)]


def test_groebner_engine_health():
    ideals = 0
    for name, gens in _engine_test_ideals():
        baseline = None
        for perm in itertools.permutations(gens):
            gb = buchberger(list(perm))
            for f, g in itertools.combinations(gb.polys, 2):
                assert normal_form(s_poly(f, g), gb).is_zero(), name
            red = reduce_basis(gb)
            rendering = [format_poly(p) for p in red.polys]
            if baseline is None:
                baseline = rendering
            assert rendering == baseline, name
        ideals += 1
    print(f"ACCEPTANCE engine health: PASS ({ideals} ideals, all S-pairs "
          "to zero, reduced bases identical across permutations)")


def test_hilbert_brute_force_agreement():
    rng = random.Random(2024)
    for trial in range(20):
        nvars = rng.randint(2, 5)
        gens = set()
        for _ in range(rng.randint(1, 6)):
            e = [0] * nvars
            for _ in range(rng.randint(1, 4)):
                e[rng.randrange(nvars)] += 1
            gens.add(tuple(e))
        gens = sorted(gens)
        hd = hilbert_numerator([Monomial(np.array(g, dtype=np.int64)) for g in gens],
                               nvars)
        expected = [count_standard_monomials(gens, nvars, d) for d in range(7)]
        assert series_coefficients(hd, 6) == expected, (gens, nvars)
    print("ACCEPTANCE hilbert brute force: PASS (20 ideals, exact through degree 6)")


def test_pattern_combinatorics():
    for n in range(2, 51):
        spec = PatternSpec.build(n)
        assert len(spec.positions) == sum(n // t for t in range(1, n + 1))
        assert column_limit(n, n) == 1
    spec8 = PatternSpec.build(8)
    assert spec8.rows_by_column[0] == tuple(range(1, 9))
    assert spec8.rows_by_column[1] == (1, 3, 5, 7)
    # column 3 follows the displayed progression 1, 4, 7, ... truncated at the
    # column limit; at n=8 that limit is 4, while n=9 fills the displayed rows
    assert spec8.rows_by_column[2] == (1, 4)
    spec9 = PatternSpec.build(9)
    assert spec9.rows_by_column[1][:4] == (1, 3, 5, 7)
    assert spec9.rows_by_column[2] == (1, 4, 7)
    assert spec9.rows_by_column[3] == (1, 5)
    print("ACCEPTANCE pattern combinatorics: PASS (sizes 2..50; displayed "
          "columns reproduced)")


def test_permutation_invariance_of_verdict():
    F2 = selected_entries(2, field=GF)
    count = 0
    for perm in itertools.permutations(F2):
        assert sequence_oracle(list(perm), "hilbert").regular
        count += 1
    assert count == 6
    print("ACCEPTANCE permutation invariance: PASS (6 of 6 orderings regular)")
