"""The Hilbert oracle's degree-by-degree early stop against a complete run.

``reference_hilbert_criterion`` is the oracle as it was before the early
stop: a complete Buchberger run, the numerator of its whole lead ideal, and
the first degree where that numerator leaves the complete-intersection
numerator.  The oracle now stops at the first degree boundary where the
series differ, so on a not-regular input it sees only part of the basis;
its verdict and detail line must still be the reference's.
"""

import random
from itertools import zip_longest

import numpy as np
import pytest

from xyreg.cli import main
from xyreg.errors import BudgetExceededError
from xyreg.fields import PrimeField
from xyreg.groebner import buchberger, lead_ideal
from xyreg.hilbert import HilbertData, complete_intersection_numerator, hilbert_numerator
from xyreg.orders import MonomialOrder
from xyreg.pattern import GenericProduct
from xyreg.poly import Polynomial, format_poly
from xyreg.regseq import sequence_oracle
from xyreg.ring import Monomial, VariableTable

FULL_3X3_LINE = "degree 5: Hilbert function 16758, complete intersection 16722"


def reference_hilbert_criterion(seq):
    """(verdict, details) from a complete basis and the whole numerator."""
    order = MonomialOrder.grevlex(seq[0].table.nvars)
    degrees = [p.degree() for p in seq]
    gb = buchberger([p.resort(order) for p in seq], order)
    computed = hilbert_numerator(lead_ideal(gb), order.nvars)
    expected = HilbertData(complete_intersection_numerator(degrees), order.nvars)
    if computed == expected:
        return "regular", []
    pairs = zip_longest(computed.numerator, expected.numerator, fillvalue=0)
    d = next(k for k, (a, b) in enumerate(pairs) if a != b)
    return "not-regular", [f"degree {d}: Hilbert function {computed.series_coefficients(d)[d]}, "
                           f"complete intersection {expected.series_coefficients(d)[d]}"]


def random_homogeneous_sequence(rng, field):
    """1 to nvars + 1 nonzero homogeneous polynomials of degree 1-3 with 1-4
    terms in 2-5 variables; sparse terms make many of them not regular."""
    nvars = rng.randint(2, 5)
    table = VariableTable.generic([f"v{k}" for k in range(nvars)])
    order = MonomialOrder.grevlex(nvars)
    seq = []
    while len(seq) < rng.randint(1, nvars + 1):
        degree = rng.randint(1, 3)
        terms = []
        for _ in range(rng.randint(1, 4)):
            exps = np.zeros(nvars, dtype=np.int64)
            for _ in range(degree):
                exps[rng.randrange(nvars)] += 1
            terms.append((field.coerce(rng.randint(1, 1000)), Monomial(exps)))
        p = Polynomial.from_terms(table, field, order, terms)
        if not p.is_zero():
            seq.append(p)
    if len(seq) >= 2 and rng.random() < 0.2:
        seq.append(seq[0] * seq[1])  # a member of the ideal: never regular
    return seq


def test_early_stop_matches_the_complete_run_on_random_sequences():
    rng = random.Random(1999)
    verdicts = {"regular": 0, "not-regular": 0}
    for field in (PrimeField(7), PrimeField(32003)):
        for _ in range(120):
            seq = random_homogeneous_sequence(rng, field)
            report = sequence_oracle(seq, "hilbert")
            assert (report.verdict, report.details) == reference_hilbert_criterion(seq), \
                [format_poly(p) for p in seq]
            verdicts[report.verdict] += 1
    assert min(verdicts.values()) >= 60, verdicts


def full_3x3(field):
    product = GenericProduct(3, field=field)
    return [product.entry(i, j) for i in range(1, 4) for j in range(1, 4)]


def test_full_3x3_stops_after_its_degree_5_pairs(gf):
    """The complete run considers 1,770 pairs; the first difference is in
    degree 5, so the oracle stops after the 519 pairs of lcm degree <= 5."""
    full = full_3x3(gf)
    report = sequence_oracle(full, "hilbert", pair_budget=519)
    assert (report.verdict, report.details) == ("not-regular", [FULL_3X3_LINE])
    with pytest.raises(BudgetExceededError) as info:
        sequence_oracle(full, "hilbert", pair_budget=518)
    assert info.value.pairs_considered == 519


def test_degree_budget_5_gives_the_verdict_on_all_nine_3x3_entries(gf, tmp_path, capsys):
    path = tmp_path / "full3x3.txt"
    path.write_text("\n".join(format_poly(p) for p in full_3x3(gf)) + "\n", encoding="utf-8")
    argv = ["oracle", "--method", "hilbert", "--n", "3", "--input", str(path)]
    # every pair of degree <= 5 is done before the first one of degree 6
    assert main(argv + ["--budget-degree", "5"]) == 1
    out = capsys.readouterr().out
    assert "verdict: not-regular" in out and FULL_3X3_LINE in out
    # one less, and a pair of degree 5 exceeds the budget before the verdict
    assert main(argv + ["--budget-degree", "4"]) == 3
    assert "degree budget 4 exceeded by a pair of degree 5" in capsys.readouterr().err


@pytest.mark.parametrize("budget", [["--budget-degree", "3"], ["--budget-pairs", "5"]])
def test_a_budget_a_regular_input_reaches_is_inconclusive(budget, capsys):
    assert main(["oracle", "--method", "hilbert", "--n", "3", *budget]) == 3
    assert capsys.readouterr().err.startswith("inconclusive: ")
