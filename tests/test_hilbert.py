import itertools
import random
from math import comb

import numpy as np
import pytest

from conftest import grevlex_entries
from xyreg.errors import HomogeneityError
from xyreg.fields import PrimeField
from xyreg.hilbert import (HilbertData, _codimension, _complete_intersection, _dense,
                           _LeadSeries, hilbert_numerator, hilbert_series_quotient)
from xyreg.groebner import buchberger, lead_ideal
from xyreg.orders import MonomialOrder
from xyreg.pattern import selected_entries
from xyreg.poly import Polynomial
from xyreg.ring import Monomial, VariableTable


def M(*exps):
    return Monomial(np.array(exps, dtype=np.int64))


def count_standard_monomials(gens, nvars, degree):
    """Independent oracle: enumerate all monomials of the given degree and
    count those divisible by no generator."""
    count = 0
    for combo in itertools.combinations_with_replacement(range(nvars), degree):
        exps = [0] * nvars
        for v in combo:
            exps[v] += 1
        if not any(all(g[k] <= exps[k] for k in range(nvars)) for g in gens):
            count += 1
    return count


def taylor_numerator(gens):
    """Second independent oracle: sum over generator subsets S of
    (-1)^|S| t^deg(lcm S), as a {degree: coefficient} dict without zeros."""
    out = {}
    for size in range(len(gens) + 1):
        for subset in itertools.combinations(gens, size):
            degree = sum(max(column) for column in zip(*subset))
            out[degree] = out.get(degree, 0) + (-1) ** size
    return {d: c for d, c in out.items() if c}


def series_at(numerator, nvars, degree):
    """The series coefficient in one degree, summing only nonzero terms."""
    return sum(c * comb(nvars - 1 + degree - j, nvars - 1)
               for j, c in enumerate(numerator) if c and j <= degree)


def series_coefficients(hd, upto):
    """The Hilbert function of ``hd`` in degrees 0..upto, as binomial sums."""
    return [series_at(hd.numerator, hd.nvars, d) for d in range(upto + 1)]


def complete_intersection(degrees):
    """prod (1 - t^d) as a coefficient tuple, one dense product per factor."""
    out = [1]
    for d in degrees:
        out = [a - b for a, b in itertools.zip_longest(out, [0] * d + out, fillvalue=0)]
    return tuple(out)


def test_numerator_examples():
    assert hilbert_numerator([], 3) == HilbertData((1,), 3)
    assert hilbert_numerator([M(2)], 1) == HilbertData((1, 0, -1), 1)
    assert hilbert_numerator([M(1, 0), M(0, 1)], 2) == HilbertData((1, -2, 1), 2)
    # quotient by <x, y> is the ground field: series 1, 0, 0, ...
    assert series_coefficients(hilbert_numerator([M(1, 0), M(0, 1)], 2), 3) == [1, 0, 0, 0]


def test_numerator_tolerates_redundant_generators():
    a = hilbert_numerator([M(1, 0, 0), M(2, 0, 0), M(1, 1, 0)], 3)
    b = hilbert_numerator([M(1, 0, 0)], 3)
    assert a == b


def brute_force_ideals():
    """(generators, nvars) for 20 random monomial ideals in 2-5 variables."""
    rng = random.Random(2024)
    for _ in range(20):
        nvars = rng.randint(2, 5)
        gens = []
        for _ in range(rng.randint(1, 6)):
            degree = rng.randint(1, 4)
            e = [0] * nvars
            for _ in range(degree):
                e[rng.randrange(nvars)] += 1
            gens.append(tuple(e))
        yield list(set(gens)), nvars


def test_brute_force_agreement():
    for gens, nvars in brute_force_ideals():
        hd = hilbert_numerator([M(*g) for g in gens], nvars)
        expected = [count_standard_monomials(gens, nvars, d) for d in range(7)]
        assert series_coefficients(hd, 6) == expected


def test_numerators_never_end_in_zero():
    """HilbertData compares as a plain tuple, so an equal series must have
    one numerator: no trailing zero, and the zero quotient's is empty."""
    for gens, nvars in brute_force_ideals():
        numerator = hilbert_numerator([M(*g) for g in gens], nvars).numerator
        assert numerator and numerator[-1] != 0, gens
    assert hilbert_numerator([], 3).numerator == (1,)
    assert hilbert_numerator([M(0, 0, 0)], 3).numerator == ()
    assert hilbert_numerator([M(0, 0), M(1, 0)], 2).numerator == ()


def test_pivot_independence():
    gens = [M(2, 1, 0, 0), M(0, 2, 1, 0), M(1, 0, 0, 2), M(0, 1, 1, 1)]
    fwd = hilbert_numerator(gens, 4)
    rev = hilbert_numerator(list(reversed(gens)), 4)
    assert fwd == rev


def test_quotient_series_for_selected_entries():
    gf = PrimeField(32003)
    entries = [p.resort(MonomialOrder.grevlex(8))
               for p in selected_entries(2, field=gf)]
    hd = hilbert_series_quotient(entries)
    assert hd.numerator == complete_intersection([2, 2, 2])
    assert series_coefficients(hd, 2) == [1, 8, 33]
    # generator order never matters
    assert hilbert_series_quotient(list(reversed(entries))) == hd


def test_quotient_series_principal():
    gf = PrimeField(32003)
    table = VariableTable.xy(2)
    order = MonomialOrder.grevlex(8)
    x11 = Polynomial.variable(table, gf, order, table.slot("x", 1, 1))
    hd = hilbert_series_quotient([x11])
    assert tuple(hd.numerator) == (1, -1)
    assert hd.nvars == 8


def test_quotient_requires_homogeneous():
    gf = PrimeField(32003)
    table = VariableTable.xy(2)
    order = MonomialOrder.grevlex(8)
    x11 = Polynomial.variable(table, gf, order, table.slot("x", 1, 1))
    one = Polynomial.constant(table, gf, order, 1)
    with pytest.raises(HomogeneityError):
        hilbert_series_quotient([x11 + one])


def test_complete_intersection_numerator():
    """The oracle's expected series, against dense products."""
    assert _dense(_complete_intersection([])) == (1,)
    assert _dense(_complete_intersection([2, 2])) == (1, 0, -2, 0, 1)
    for degrees in ([1], [3, 1], [2, 2, 2], [1, 2, 3, 4], [2] * 9):
        assert _dense(_complete_intersection(degrees)) == complete_intersection(degrees)


def random_wide_ideal(rng, nvars, low, high, big_slot=None):
    """1-5 generators whose nonzero exponents lie in [low, high]; with
    ``big_slot`` set, only that variable's exponents do and the others stay
    below 200, which keeps the lcm degrees, and so the numerator, near high."""
    gens = set()
    for _ in range(rng.randint(1, 5 if big_slot is None else 3)):
        e = [0] * nvars
        for k in rng.sample(range(nvars), rng.randint(1, nvars)):
            if big_slot is None or k == big_slot:
                e[k] = rng.randint(low, high)
            else:
                e[k] = rng.randint(0, 199)
        if big_slot is not None:
            e[big_slot] = rng.randint(low, high)
        gens.add(tuple(e))
    return sorted(gens)


def test_wide_exponent_fields_agree_with_independent_counts():
    """Exponents from 128 on need 16-bit fields, near 2**20 24-bit ones."""
    rng = random.Random(99)
    cases = [(nvars, 120, 300, None) for nvars in range(1, 9) for _ in range(3)]
    cases += [(nvars, 2**20 - 64, 2**20 + 64, 0) for nvars in (1, 4, 8)]
    for nvars, low, high, big_slot in cases:
        gens = random_wide_ideal(rng, nvars, low, high, big_slot)
        hd = hilbert_numerator([M(*g) for g in gens], nvars)
        numerator = {d: c for d, c in enumerate(hd.numerator) if c}
        assert numerator == taylor_numerator(gens), gens
        degrees = {sum(g) + delta for g in gens for delta in (-1, 0, 1)}
        for degree in sorted(degrees):
            if comb(nvars - 1 + degree, nvars - 1) <= 3000:
                assert (series_at(hd.numerator, nvars, degree)
                        == count_standard_monomials(gens, nvars, degree)), (gens, degree)


def test_parser_limit_exponents_unit_and_empty_ideals():
    top = 2**31 - 1  # the parser's largest exponent: 32-bit fields
    assert hilbert_numerator([(top, 1, 0), (top - 1, 1, 0), (0, 1, 0)], 3) \
        == HilbertData((1, -1), 3)
    assert hilbert_numerator([(top, 0), (0, 0)], 2) == HilbertData((), 2)
    assert hilbert_numerator([(0, 0, 0)], 3) == HilbertData((), 3)
    assert hilbert_numerator([], 4) == HilbertData((1,), 4)


def test_negative_exponents_are_rejected():
    with pytest.raises(ValueError):
        hilbert_numerator([(1, -1)], 2)


@pytest.mark.parametrize("n, full, numerator", [
    (3, True, (1, 0, -9, 0, 36, 36, -294, 468, -315, 44, 63, -36, 6)),
    (4, False, (1, 0, -8, 0, 28, 0, -56, 0, 70, 0, -56, 0, 28, 0, -8, 0, 1)),
])
def test_pinned_lead_ideal_numerators(n, full, numerator):
    """Numerators of the grevlex lead ideals of all nine 3x3 entries (18
    variables) and of the n=4 selected entries (32 variables), recorded
    before the recursion moved to packed monomials."""
    gens, order = grevlex_entries(PrimeField(32003), n, full)
    gb = buchberger(gens, order)
    assert hilbert_numerator(lead_ideal(gb), order.nvars) == HilbertData(numerator, order.nvars)


def random_ideal(rng, nvars, count, max_degree):
    gens = set()
    for _ in range(count):
        e = [0] * nvars
        for _ in range(rng.randint(1, max_degree)):
            e[rng.randrange(nvars)] += 1
        gens.add(tuple(e))
    return sorted(gens)


def test_variable_pivot_agrees_with_independent_counts():
    """Ideals with up to 9 generators sharing variables, so the pivot
    recursion runs several levels deep."""
    rng = random.Random(1997)
    for _ in range(60):
        nvars = rng.randint(2, 6)
        gens = random_ideal(rng, nvars, rng.randint(2, 9), 4)
        hd = hilbert_numerator([M(*g) for g in gens], nvars)
        assert {d: c for d, c in enumerate(hd.numerator) if c} == taylor_numerator(gens), gens
        assert series_coefficients(hd, 6) == [count_standard_monomials(gens, nvars, d)
                                              for d in range(7)], gens


def lead_series(rows, nvars):
    series = _LeadSeries(nvars)
    for row in rows:
        series.add(row)
    return HilbertData(_dense(series.numerator), nvars)


@pytest.mark.parametrize("n, full", [(3, True), (4, False)])
def test_lead_series_grown_in_build_order_equals_the_one_shot_numerator(n, full):
    gens, order = grevlex_entries(PrimeField(32003), n, full)
    gb = buchberger(gens, order)
    rows = [p.exps[0].tolist() for p in gb.polys]
    assert lead_series(rows, order.nvars) == hilbert_numerator(lead_ideal(gb), order.nvars)


def test_lead_series_tolerates_redundant_rows_and_widens_its_fields():
    rng = random.Random(31)
    for _ in range(40):
        nvars = rng.randint(1, 5)
        rows = [list(g) for g in random_ideal(rng, nvars, rng.randint(1, 8), 5)]
        rng.shuffle(rows)
        rows += [list(rng.choice(rows))]  # a repeat lies in the ideal already
        # past the 8-bit fields' 127: a multiple of a row, and a pure power
        wide = [e * 100 for e in rng.choice(rows)]
        power = [0] * nvars
        power[rng.randrange(nvars)] = 200
        for grown in (rows, rows + [wide], rows[:2] + [power] + rows[2:]):
            assert lead_series(grown, nvars) == hilbert_numerator(grown, nvars), grown


def test_huge_exponents_stay_sparse():
    top = 2**31 - 1
    series = _LeadSeries(3)
    for row in ([top, 0, 0], [0, top, 0], [top, top, 1]):
        series.add(row)
    assert series.numerator == {0: 1, top: -2, 2 * top: 1}
    assert _complete_intersection([top, top]) == series.numerator


def test_codimension_is_the_least_cover_of_the_supports():
    """The codimension of a monomial ideal is the fewest variables that
    meet every generator's support (its minimal primes are generated by
    such sets); the multiplicity of t = 1 in the numerator must equal it."""
    rng = random.Random(2023)
    for _ in range(80):
        nvars = rng.randint(1, 6)
        gens = random_ideal(rng, nvars, rng.randint(1, 7), 4)
        cover = min(len(vs) for r in range(nvars + 1)
                    for vs in itertools.combinations(range(nvars), r)
                    if all(any(g[v] for v in vs) for g in gens))
        numerator = dict(enumerate(hilbert_numerator([M(*g) for g in gens], nvars).numerator))
        assert _codimension(numerator, nvars) == cover, gens
        assert _codimension(numerator, cover - 1) == cover  # read no further than asked
    assert _codimension(_complete_intersection([2, 3, 1]), 3) == 3
    assert _codimension({0: 1}, 3) == 0  # the zero ideal
    assert _codimension({}, 3) == 4  # the unit ideal: every sum vanishes
