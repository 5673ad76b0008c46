import random

import numpy as np
import pytest

from xyreg.fields import PrimeField, QQ
from xyreg.orders import MonomialOrder
from xyreg.poly import Polynomial
from xyreg.ring import Monomial, VariableTable


@pytest.fixture
def gf():
    return PrimeField(32003)


@pytest.fixture
def xy2():
    return VariableTable.xy(2)


@pytest.fixture
def paper2():
    return MonomialOrder.paper(2)


def random_monomial(rng, nvars, max_degree):
    degree = rng.randint(0, max_degree)
    exps = [0] * nvars
    for _ in range(degree):
        exps[rng.randrange(nvars)] += 1
    return Monomial(np.array(exps, dtype=np.int64))


def random_poly(rng, table, field, order, max_terms=5, max_degree=4):
    terms = []
    for _ in range(rng.randint(0, max_terms)):
        coeff = field.coerce(rng.randint(1, 50))
        terms.append((coeff, random_monomial(rng, table.nvars, max_degree)))
    return Polynomial.from_terms(table, field, order, terms)


def entries_2x2(field, order=None):
    """The four product entries for n=2 in row-major order."""
    from xyreg.pattern import GenericProduct

    product = GenericProduct(2, field=field, order=order)
    return [product.entry(1, 1), product.entry(1, 2),
            product.entry(2, 1), product.entry(2, 2)]


def grevlex_entries(field, n, full):
    """All n^2 product entries (full) or the selected ones, resorted to
    grevlex over the 2n^2 slots; returns (entries, order)."""
    from xyreg.pattern import GenericProduct, selected_entries

    order = MonomialOrder.grevlex(2 * n * n)
    if full:
        product = GenericProduct(n, field=field)
        gens = [product.entry(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    else:
        gens = selected_entries(n, field=field)
    return [g.resort(order) for g in gens], order
