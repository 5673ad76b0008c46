import random

import numpy as np
import pytest

from conftest import random_monomial
from xyreg.errors import DimensionError
from xyreg.orders import MonomialOrder, certification_precedence
from xyreg.ring import Monomial, VariableTable, format_monomial


def mono(table, spec):
    """Monomial from {(kind, i, j): exponent} pairs."""
    e = np.zeros(table.nvars, dtype=np.int64)
    for (kind, i, j), exp in spec.items():
        e[table.slot(kind, i, j)] += exp
    return Monomial(e)


def test_xy_table_layout():
    t = VariableTable.xy(2)
    assert t.nvars == 8
    assert len(set(t.slot(k, i, j) for k in "xy" for i in (1, 2) for j in (1, 2))) == 8
    assert t.names[t.slot("y", 2, 1)] == "y[2,1]"
    assert VariableTable.xy(3).nvars == 18
    with pytest.raises(ValueError):
        VariableTable.xy(1)
    with pytest.raises(IndexError):
        t.slot("x", 3, 1)


def test_gcd_lcm_examples(xy2):
    x11y11 = mono(xy2, {("x", 1, 1): 1, ("y", 1, 1): 1})
    x11y12 = mono(xy2, {("x", 1, 1): 1, ("y", 1, 2): 1})
    x22y21 = mono(xy2, {("x", 2, 2): 1, ("y", 2, 1): 1})
    x11sq = mono(xy2, {("x", 1, 1): 2})
    assert x11y11.gcd(x11y12) == mono(xy2, {("x", 1, 1): 1})
    assert x11y11.gcd(x22y21) == Monomial.one(8)
    assert x11y11.coprime(x22y21)
    assert x11sq.lcm(x11y11) == mono(xy2, {("x", 1, 1): 2, ("y", 1, 1): 1})


def test_gcd_lcm_product_property():
    rng = random.Random(7)
    for _ in range(200):
        a = random_monomial(rng, 6, 8)
        b = random_monomial(rng, 6, 8)
        assert np.array_equal(a.gcd(b).exps + a.lcm(b).exps,
                              a.exps + b.exps)


def test_dimension_mismatch():
    a = Monomial.one(4)
    b = Monomial.one(5)
    with pytest.raises(DimensionError):
        a.gcd(b)
    with pytest.raises(DimensionError):
        MonomialOrder.lex(4).compare(a, b)


def shipped_orders():
    return [
        MonomialOrder.lex(8),
        MonomialOrder.grevlex(8),
        MonomialOrder.paper(2),
        MonomialOrder.grevlex(7).eliminate_last(),
    ]


@pytest.mark.parametrize("order", shipped_orders(), ids=lambda o: o.kind)
def test_order_axioms(order):
    rng = random.Random(hash(order.kind) & 0xFFFF)
    nv = order.nvars
    one = Monomial.one(nv)
    monos = [random_monomial(rng, nv, 8) for _ in range(60)]
    for _ in range(400):
        a, b, c = rng.choice(monos), rng.choice(monos), rng.choice(monos)
        cab, cba = order.compare(a, b), order.compare(b, a)
        assert cab == -cba  # totality + antisymmetry
        assert (cab == 0) == (a == b)
        if cab >= 0 and order.compare(b, c) >= 0:
            assert order.compare(a, c) >= 0  # transitivity
        if cab > 0:
            assert order.compare(a.__mul__(c), b.__mul__(c)) > 0  # multiplicative
        assert order.compare(a, one) >= 0  # 1 is the unique minimum
        assert order.compare(a, one) > 0 or a == one


def test_paper_precedence_n2():
    t = VariableTable.xy(2)
    names = [t.names[s] for s in certification_precedence(2)]
    assert names == ["x[1,1]", "x[2,2]", "x[1,2]", "x[2,1]",
                     "y[1,1]", "y[1,2]", "y[2,1]", "y[2,2]"]


def test_paper_order_comparisons():
    t2 = VariableTable.xy(2)
    paper2 = MonomialOrder.paper(2)
    a = mono(t2, {("x", 1, 1): 1, ("y", 1, 1): 1})
    b = mono(t2, {("x", 2, 2): 1, ("y", 2, 1): 1})
    assert paper2.compare(a, b) > 0  # x11 outranks everything
    assert paper2.compare(a, a) == 0
    assert paper2.compare(b, Monomial.one(8)) > 0

    t3 = VariableTable.xy(3)
    paper3 = MonomialOrder.paper(3)
    x12 = mono(t3, {("x", 1, 2): 1})
    x23 = mono(t3, {("x", 2, 3): 1})
    x21 = mono(t3, {("x", 2, 1): 1})
    y11 = mono(t3, {("y", 1, 1): 1})
    assert paper3.compare(x12, x23) > 0
    assert paper3.compare(x21, y11) > 0


def test_elimination_block_order():
    inner = MonomialOrder.grevlex(3)
    elim = inner.eliminate_last()
    aux = Monomial.variable(4, 3)
    big = Monomial(np.array([5, 5, 5, 0], dtype=np.int64))
    assert elim.compare(aux, big) > 0  # the adjoined slot outranks any inner monomial


def test_format_monomial(xy2):
    m = mono(xy2, {("x", 1, 1): 2, ("y", 2, 1): 1})
    assert format_monomial(m, xy2) == "x[1,1]^2*y[2,1]"
    assert format_monomial(Monomial.one(8), xy2) == "1"
