import itertools
import random
from math import comb

import numpy as np
import pytest

from conftest import grevlex_entries
from xyreg.errors import HomogeneityError
from xyreg.fields import PrimeField
from xyreg.hilbert import (HilbertData, complete_intersection_numerator,
                           hilbert_numerator, hilbert_series_quotient)
from xyreg.groebner import buchberger, lead_ideal
from xyreg.orders import MonomialOrder
from xyreg.pattern import GenericProduct, selected_entries
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


def test_numerator_examples():
    assert hilbert_numerator([], 3) == HilbertData((1,), 3)
    assert hilbert_numerator([M(2)], 1) == HilbertData((1, 0, -1), 1)
    assert hilbert_numerator([M(1, 0), M(0, 1)], 2) == HilbertData((1, -2, 1), 2)
    # quotient by <x, y> is the ground field: series 1, 0, 0, ...
    assert hilbert_numerator([M(1, 0), M(0, 1)], 2).series_coefficients(3) == [1, 0, 0, 0]


def test_numerator_tolerates_redundant_generators():
    a = hilbert_numerator([M(1, 0, 0), M(2, 0, 0), M(1, 1, 0)], 3)
    b = hilbert_numerator([M(1, 0, 0)], 3)
    assert a == b


def test_brute_force_agreement():
    rng = random.Random(2024)
    trials = 0
    while trials < 20:
        nvars = rng.randint(2, 5)
        gens = []
        for _ in range(rng.randint(1, 6)):
            degree = rng.randint(1, 4)
            e = [0] * nvars
            for _ in range(degree):
                e[rng.randrange(nvars)] += 1
            gens.append(tuple(e))
        gens = list(set(gens))
        hd = hilbert_numerator([M(*g) for g in gens], nvars)
        expected = [count_standard_monomials(gens, nvars, d) for d in range(7)]
        assert hd.series_coefficients(6) == expected
        trials += 1


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
    assert tuple(hd.numerator) == complete_intersection_numerator([2, 2, 2])
    assert hd.series_coefficients(2) == [1, 8, 33]
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
    assert complete_intersection_numerator([]) == (1,)
    assert complete_intersection_numerator([2, 2]) == (1, 0, -2, 0, 1)


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
