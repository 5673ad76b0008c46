import itertools
import random
from math import comb

import numpy as np
import pytest

from conftest import grevlex_entries
from xyreg.errors import HomogeneityError
from xyreg.fields import PrimeField
from xyreg.hilbert import (HilbertData, _codimension, _complete_intersection, _LeadSeries,
                           hilbert_numerator, hilbert_series_quotient)
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
    """The series coefficient in one degree of the (degree, coefficient)
    pairs ``numerator``."""
    return sum(c * comb(nvars - 1 + degree - j, nvars - 1)
               for j, c in numerator if j <= degree)


def series_coefficients(hd, upto):
    """The Hilbert function of ``hd`` in degrees 0..upto, as binomial sums."""
    return [series_at(hd.numerator, hd.nvars, d) for d in range(upto + 1)]


def complete_intersection(degrees):
    """prod (1 - t^d) as ascending (degree, coefficient) pairs, from one
    dense product per factor."""
    out = [1]
    for d in degrees:
        out = [a - b for a, b in itertools.zip_longest(out, [0] * d + out, fillvalue=0)]
    return tuple((d, c) for d, c in enumerate(out) if c)


def test_numerator_examples():
    assert hilbert_numerator([], 3) == HilbertData(((0, 1),), 3)
    assert hilbert_numerator([M(2)], 1) == HilbertData(((0, 1), (2, -1)), 1)
    assert hilbert_numerator([M(1, 0), M(0, 1)], 2) == HilbertData(((0, 1), (1, -2), (2, 1)), 2)
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
    one numerator: ascending degrees, no zero coefficient, and the zero
    quotient's is empty."""
    for gens, nvars in brute_force_ideals():
        numerator = hilbert_numerator([M(*g) for g in gens], nvars).numerator
        degrees = [d for d, _ in numerator]
        assert numerator and degrees == sorted(set(degrees)), gens
        assert all(c for _, c in numerator), gens
    assert hilbert_numerator([], 3).numerator == ((0, 1),)
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
    assert hd.numerator == ((0, 1), (1, -1))
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
    assert _complete_intersection([]) == {0: 1}
    assert _complete_intersection([2, 2]) == {0: 1, 2: -2, 4: 1}
    for degrees in ([1], [3, 1], [2, 2, 2], [1, 2, 3, 4], [2] * 9):
        assert tuple(sorted(_complete_intersection(degrees).items())) \
            == complete_intersection(degrees)


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
        assert dict(hd.numerator) == taylor_numerator(gens), gens
        degrees = {sum(g) + delta for g in gens for delta in (-1, 0, 1)}
        for degree in sorted(degrees):
            if comb(nvars - 1 + degree, nvars - 1) <= 3000:
                assert (series_at(hd.numerator, nvars, degree)
                        == count_standard_monomials(gens, nvars, degree)), (gens, degree)


def test_parser_limit_exponents_unit_and_empty_ideals():
    top = 2**31 - 1  # the parser's largest exponent: 32-bit fields
    assert hilbert_numerator([(top, 1, 0), (top - 1, 1, 0), (0, 1, 0)], 3) \
        == HilbertData(((0, 1), (1, -1)), 3)
    assert hilbert_numerator([(top, 0), (0, 0)], 2) == HilbertData((), 2)
    assert hilbert_numerator([(0, 0, 0)], 3) == HilbertData((), 3)
    assert hilbert_numerator([], 4) == HilbertData(((0, 1),), 4)
    assert hilbert_numerator([(top, 0), (0, top)], 2) \
        == HilbertData(((0, 1), (top, -2), (2 * top, 1)), 2)


def test_a_high_degree_generator_gives_a_two_term_numerator():
    assert hilbert_numerator([(2**22,)], 1).numerator == ((0, 1), (4194304, -1))
    assert hilbert_numerator([(2**22, 1), (0, 2)], 2).numerator \
        == ((0, 1), (2, -1), (4194305, -1), (4194306, 1))


def test_negative_exponents_are_rejected():
    with pytest.raises(ValueError):
        hilbert_numerator([(1, -1)], 2)


@pytest.mark.parametrize("n, full, numerator", [
    (3, True, ((0, 1), (2, -9), (4, 36), (5, 36), (6, -294), (7, 468), (8, -315), (9, 44),
               (10, 63), (11, -36), (12, 6))),
    (4, False, ((0, 1), (2, -8), (4, 28), (6, -56), (8, 70), (10, -56), (12, 28), (14, -8),
                (16, 1))),
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
        assert dict(hd.numerator) == taylor_numerator(gens), gens
        assert series_coefficients(hd, 6) == [count_standard_monomials(gens, nvars, d)
                                              for d in range(7)], gens


def lead_series(rows, nvars):
    series = _LeadSeries(nvars)
    for row in rows:
        series.add(row)
    return HilbertData(tuple(sorted(series.numerator.items())), nvars)


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
        numerator = dict(hilbert_numerator([M(*g) for g in gens], nvars).numerator)
        assert _codimension(numerator, nvars) == cover, gens
        assert _codimension(numerator, cover - 1) == cover  # read no further than asked
    assert _codimension(_complete_intersection([2, 3, 1]), 3) == 3
    assert _codimension({0: 1}, 3) == 0  # the zero ideal
    assert _codimension({}, 3) == 4  # the unit ideal: every sum vanishes


def minimal_generators(gens):
    """The generators that no other generator divides, duplicates dropped."""
    gens = set(map(tuple, gens))
    return {g for g in gens
            if not any(h != g and all(a <= b for a, b in zip(h, g)) for h in gens)}


# (nvars, generators): ideals holding variables, each beside a trap
VARIABLE_CASES = {
    # x_v^2 and x_v^4 are one set bit as well, but not at a field's low bit
    "pure powers": (4, [(2, 0, 0, 0), (0, 4, 0, 0), (0, 0, 1, 0), (1, 1, 0, 1), (0, 0, 0, 2)]),
    "pure powers alone": (2, [(2, 0), (0, 4)]),
    # x_5 packs to a larger int than x_0*x_1, so variables do not sort first
    "last field variable": (6, [(1, 1, 0, 0, 0, 0), (0, 0, 0, 0, 0, 1), (0, 1, 1, 0, 0, 0),
                                (1, 0, 1, 0, 0, 0), (2, 0, 0, 1, 0, 0), (1, 0, 0, 0, 0, 1),
                                (0, 0, 0, 1, 1, 3)]),
    "all variables": (5, [(0, 0, 0, 0, 1), (1, 0, 0, 0, 0), (0, 0, 1, 0, 0)]),
    "every variable": (3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
    "variables beside free generators": (6, [(1, 0, 0, 0, 0, 0), (0, 0, 2, 1, 0, 0),
                                             (0, 1, 1, 0, 0, 0), (0, 0, 1, 3, 0, 0),
                                             (0, 0, 0, 0, 1, 0), (0, 2, 0, 1, 0, 1)]),
    "variables and their multiples": (4, [(1, 1, 0, 0), (3, 0, 1, 0), (1, 0, 0, 0),
                                          (0, 0, 1, 0), (0, 1, 0, 2), (0, 0, 2, 2)]),
    "a variable beside a 2**20 power": (3, [(2**20, 0, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1)]),
    "zero ideal": (3, []),
    "unit ideal": (3, [(0, 0, 0)]),
    "unit ideal and variables": (3, [(1, 0, 0), (0, 0, 0), (0, 0, 1)]),
}


def lead_series_checked(rows, nvars):
    """Grow a _LeadSeries row by row; after each row its numerator is the
    Taylor numerator and its generators the minimal generators so far."""
    series = _LeadSeries(nvars)
    for at, row in enumerate(rows, start=1):
        series.add(list(row))
        assert series.numerator == taylor_numerator(rows[:at]), rows[:at]
        assert {tuple(series.pk.fields(g)) for g in series.gens} \
            == minimal_generators(rows[:at]), rows[:at]
    return series


@pytest.mark.parametrize("name", VARIABLE_CASES)
def test_variables_split_off_agree_with_independent_counts(name):
    nvars, gens = VARIABLE_CASES[name]
    hd = hilbert_numerator(gens, nvars)
    assert dict(hd.numerator) == taylor_numerator(gens)
    assert series_coefficients(hd, 6) == [count_standard_monomials(gens, nvars, d)
                                          for d in range(7)]
    for rows in (gens, gens[::-1]):
        series = lead_series_checked(rows, nvars)
        assert HilbertData(tuple(sorted(series.numerator.items())), nvars) == hd


def test_a_lead_series_holding_variables_widens_past_8_bit_fields():
    rows = [(1, 0, 0, 0, 0), (0, 0, 0, 0, 1), (0, 1, 1, 0, 0), (0, 0, 2, 3, 0),
            (0, 200, 0, 0, 0),  # past 127: 16-bit fields
            (0, 1, 0, 1, 0), (0, 0, 130, 1, 0), (0, 0, 1, 0, 0), (0, 0, 0, 300, 0)]
    series = lead_series_checked(rows, 5)
    assert series.pk.value_bits == 2**15 - 1
    assert {tuple(series.pk.fields(g)) for g in series.gens} \
        == {(1, 0, 0, 0, 0), (0, 0, 0, 0, 1), (0, 0, 1, 0, 0), (0, 200, 0, 0, 0),
            (0, 1, 0, 1, 0), (0, 0, 0, 300, 0)}
