"""The Hilbert oracle's two early stops against a complete run.

``reference_hilbert_criterion`` is the oracle as it was before either
stop: a complete Buchberger run, the numerator of its whole lead ideal, and
the first degree where that numerator leaves the complete-intersection
numerator.  The oracle now stops at the first degree boundary where the
series differ, or where the lead ideal so far reaches dimension N - k, so
it may see only part of the basis; its verdict must still be the
reference's, and a not-regular detail line too.
"""

import json
import random
import re
from dataclasses import astuple
from itertools import zip_longest
from types import SimpleNamespace

import numpy as np
import pytest

from xyreg import groebner, hilbert, kernels
from xyreg.cli import main
from xyreg.errors import BudgetExceededError
from xyreg.fields import PrimeField
from xyreg.groebner import buchberger, lead_ideal
from xyreg.hilbert import HilbertData, hilbert_numerator
from xyreg.orders import MonomialOrder
from xyreg.pattern import GenericProduct, selected_entries
from xyreg.poly import Polynomial, format_poly
from xyreg.regseq import sequence_oracle
from xyreg.ring import Monomial, VariableTable

from conftest import grevlex_entries
from test_hilbert import complete_intersection, series_at

FULL_3X3_LINE = "degree 5: Hilbert function 16758, complete intersection 16722"


def reference_hilbert_criterion(seq):
    """(verdict, details, basis) from a complete basis and the whole
    numerator; a regular verdict has no detail line."""
    order = MonomialOrder.grevlex(seq[0].table.nvars)
    degrees = [p.degree() for p in seq]
    gb = buchberger([p.resort(order) for p in seq], order)
    computed = hilbert_numerator(lead_ideal(gb), order.nvars)
    expected = HilbertData(complete_intersection(degrees), order.nvars)
    if computed == expected:
        return "regular", [], gb
    pairs = zip_longest(computed.numerator, expected.numerator, fillvalue=0)
    d = next(k for k, (a, b) in enumerate(pairs) if a != b)
    values = [series_at(hd.numerator, order.nvars, d) for hd in (computed, expected)]
    return "not-regular", [f"degree {d}: Hilbert function {values[0]}, "
                           f"complete intersection {values[1]}"], gb


def check_dimension_line(details, seq, gb):
    """The one detail line of a regular verdict names N - k, and no more
    leads than the complete basis has minimal ones."""
    (line,) = details
    found = re.fullmatch(r"dimension: R/in\(I\) reaches N-k = (\d+) at degree (\d+) "
                         r"with (\d+) leads", line)
    assert found, line
    assert int(found[1]) == seq[0].table.nvars - len(seq)
    assert int(found[3]) <= len(lead_ideal(gb))


def random_homogeneous_sequence(rng, field):
    """1 to nvars + 1 nonzero homogeneous polynomials of degree 1-3 with 1-4
    terms in 2-5 variables; sparse terms make many of them not regular."""
    nvars = rng.randint(2, 5)
    table = VariableTable([f"v{k}" for k in range(nvars)])
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
            verdict, details, gb = reference_hilbert_criterion(seq)
            assert report.verdict == verdict, [format_poly(p) for p in seq]
            if verdict == "not-regular":
                assert report.details == details, [format_poly(p) for p in seq]
            else:
                check_dimension_line(report.details, seq, gb)
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


def test_dimension_stop_agrees_with_the_complete_run_on_800_random_sequences():
    """Every verdict is the complete run's; many regular ones end at the
    dimension stop, before the complete run's last pair: a budget one short
    of the complete run still gives them their verdict."""
    early = regular = 0
    for field, seed in ((PrimeField(7), 4001), (PrimeField(32003), 4002)):
        rng = random.Random(seed)
        for _ in range(400):
            seq = random_homogeneous_sequence(rng, field)
            verdict, details, gb = reference_hilbert_criterion(seq)
            report = sequence_oracle(seq, "hilbert")
            assert report.verdict == verdict, [format_poly(p) for p in seq]
            if verdict == "not-regular":
                assert report.details == details, [format_poly(p) for p in seq]
                continue
            check_dimension_line(report.details, seq, gb)
            regular += 1
            total = gb.stats.considered
            if total and sequence_oracle(seq, "hilbert", pair_budget=total - 1).regular:
                early += 1
    assert early > 0, (early, regular)


@pytest.mark.parametrize("n, pairs", [(3, 24), (4, 254), (5, 1024)])
def test_the_selected_entries_stop_at_dimension_n_minus_k(gf, n, pairs):
    """The complete run considers 78, 595 and 2,211 pairs for n = 3, 4, 5;
    the lead ideal reaches dimension N - k after 24, 254 and 1,024, at the
    boundary of degree 4, 5 and 6."""
    seq = selected_entries(n, field=gf)
    report = sequence_oracle(seq, "hilbert", pair_budget=pairs)
    assert report.verdict == "regular"
    (line,) = report.details
    assert line.startswith(f"dimension: R/in(I) reaches N-k = {2 * n * n - len(seq)} "
                           f"at degree {n + 1} with ")
    with pytest.raises(BudgetExceededError) as info:
        sequence_oracle(seq, "hilbert", pair_budget=pairs - 1)
    assert info.value.pairs_considered == pairs


def test_a_budget_the_dimension_stop_fits_in_gives_the_verdict(capsys):
    """The n=3 entries stop after 24 pairs, at the degree-4 boundary; a
    complete run needs 78 pairs and pairs of degree 7, so these budgets
    used to exit 3."""
    line = "dimension: R/in(I) reaches N-k = 13 at degree 4 with 13 leads"
    argv = ["oracle", "--method", "hilbert", "--n", "3"]
    assert main(argv + ["--budget-pairs", "24"]) == 0
    assert f"verdict: regular\n  {line}\n" in capsys.readouterr().out
    assert main(argv + ["--budget-degree", "4", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["details"] == [line]
    assert main(argv + ["--budget-pairs", "23"]) == 3
    assert capsys.readouterr().err.startswith("inconclusive: pair budget 23 exhausted")


# (n, all n^2 entries, the PairStats of the oracle's walk where the oracle
# stops, and once it is drained: considered, coprime, chain, reduced, zero,
# skipped).  The 2x2 entries differ from the complete intersection in
# degree 4, before any degree fills.  Drained, a skipped pair is a chain
# witness for later pairs: n4 prunes 35 pairs by the chain criterion, not
# 78, if skipped pairs are not counted as taken.
QUOTA_CASES = {"n3": (3, False, (24, 0, 0, 14, 6, 10), (78, 41, 8, 19, 11, 10)),
               "n4": (4, False, (254, 0, 0, 62, 35, 192), (595, 250, 78, 75, 48, 192)),
               "n5": (5, False, (1024, 0, 0, 139, 82, 885), (2211, 934, 228, 164, 107, 885)),
               "full3x3": (3, True, (519, 110, 98, 278, 227, 33),
                           (1770, 791, 662, 284, 233, 33)),
               "2x2": (2, True, (17, 2, 1, 14, 10, 0), (28, 11, 3, 14, 10, 0))}


def recorded_walks(monkeypatch, forward):
    """Put a recording walk in the oracle's place: each run records its
    inner walk, every boundary it yields (with a copy of the lead block),
    the inner walk's pair counts there, and every quota sent back, and
    hands the inner walk those quotas when ``forward``, else None."""
    runs, made = [], []

    class RecordedStats(groebner.PairStats):
        def __init__(self):
            super().__init__()
            made.append(self)

    monkeypatch.setattr(groebner, "PairStats", RecordedStats)

    def walk(*args, **kwargs):
        run = SimpleNamespace(inner=groebner._buchberger_walk(*args, **kwargs),
                              boundaries=[], quotas=[])
        runs.append(run)
        quota = None
        while True:
            done, leads = run.inner.send(quota if forward else None)
            run.boundaries.append((done, leads.copy()))
            run.counts = astuple(made[-1])
            quota = yield done, leads
            run.quotas.append(quota)

    monkeypatch.setattr(hilbert, "_buchberger_walk", walk)
    return runs


def drained(walk):
    """The basis a walk returns once it runs on with no quota."""
    try:
        while True:
            walk.send(None)
    except StopIteration as end:
        return end.value


@pytest.mark.parametrize("case", list(QUOTA_CASES))
def test_the_quota_skips_only_pairs_that_reduce_to_zero(gf, monkeypatch, case):
    """The oracle's walk, run with its quotas and with none, has the same
    lead block at every boundary up to the stop and gives the same report;
    run on to the end, the two walks build the same basis."""
    n, full, counts, drained_counts = QUOTA_CASES[case]
    seq, _ = grevlex_entries(gf, n, full)
    reports, runs = [], []
    for forward in (True, False):
        with monkeypatch.context() as patch:
            walks = recorded_walks(patch, forward)
            reports.append(sequence_oracle(seq, "hilbert"))
        runs += walks
    assert reports[0] == reports[1]
    quota_run, plain_run = runs
    assert len(quota_run.boundaries) == len(plain_run.boundaries)
    for (done, leads), (plain_done, plain_leads) in zip(quota_run.boundaries,
                                                        plain_run.boundaries):
        assert done == plain_done
        assert np.array_equal(leads, plain_leads)
    assert quota_run.quotas == plain_run.quotas
    assert quota_run.counts == counts
    assert all(q >= 0 for q in quota_run.quotas)
    quota_gb, plain_gb = drained(quota_run.inner), drained(plain_run.inner)
    assert quota_gb.polys == plain_gb.polys
    stats, plain = quota_gb.stats, plain_gb.stats
    assert stats.considered == stats.coprime + stats.chain + stats.reduced + stats.skipped
    assert (astuple(stats), plain.skipped) == (drained_counts, 0)
    assert stats.considered == plain.considered
    assert stats.reduced - stats.zero == plain.reduced - plain.zero


@pytest.mark.parametrize("n, full, reductions", [(3, False, 14), (4, False, 62),
                                                 (3, True, 278)])
def test_the_hilbert_workload_reduces_fewer_spairs(gf, monkeypatch, n, full, reductions):
    """The S-pair reductions of the oracle on the selected n=3 and n=4
    entries and all nine 3x3 entries: 20, 100 and 294 before the quota."""
    calls = []
    reduce_spair = kernels.reduce_spair

    def counted(*args):
        calls.append(args)
        return reduce_spair(*args)

    monkeypatch.setattr(kernels, "reduce_spair", counted)
    seq, _ = grevlex_entries(gf, n, full)
    sequence_oracle(seq, "hilbert")
    assert len(calls) == reductions
