import random

import numpy as np
import pytest

from conftest import order_compare, random_monomial
from xyreg.errors import DimensionError
from xyreg.fields import PrimeField
from xyreg.orders import ORDER_NAMES, MonomialOrder, certification_precedence
from xyreg.poly import Polynomial
from xyreg.ring import Monomial, VariableTable, _support, format_monomial


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
    assert x11y11.coprime(x22y21)
    assert not x11y11.coprime(x11y12)
    assert x11sq.lcm(x11y11) == mono(xy2, {("x", 1, 1): 2, ("y", 1, 1): 1})


def test_gcd_lcm_product_property():
    rng = random.Random(7)
    for _ in range(200):
        a = random_monomial(rng, 6, 8)
        b = random_monomial(rng, 6, 8)
        assert np.array_equal(np.minimum(a.exps, b.exps) + a.lcm(b).exps,
                              a.exps + b.exps)


def test_dimension_mismatch():
    a = Monomial.one(4)
    b = Monomial.one(5)
    with pytest.raises(DimensionError):
        a.lcm(b)
    with pytest.raises(DimensionError):
        MonomialOrder.lex(4).keys(b.exps)


# the orders every axiom test runs on, by pytest id; lex with the last slot
# first is an elimination order for that slot
SHIPPED_ORDERS = {
    "lex": MonomialOrder.lex(8),
    "grevlex": MonomialOrder.grevlex(8),
    "paper": MonomialOrder.from_name("paper", 2),
    "elim": MonomialOrder.lex(8, (7, *range(7))),
}


@pytest.mark.parametrize("order", SHIPPED_ORDERS.values(), ids=SHIPPED_ORDERS.keys())
def test_order_axioms(order):
    rng = random.Random(repr(order))
    nv = order.nvars
    one = Monomial.one(nv)
    monos = [random_monomial(rng, nv, 8) for _ in range(60)]
    for _ in range(400):
        a, b, c = rng.choice(monos), rng.choice(monos), rng.choice(monos)
        cab, cba = order_compare(order, a, b), order_compare(order, b, a)
        assert cab == -cba  # totality + antisymmetry
        assert (cab == 0) == (a == b)
        if cab >= 0 and order_compare(order, b, c) >= 0:
            assert order_compare(order, a, c) >= 0  # transitivity
        if cab > 0:
            assert order_compare(order, a.__mul__(c), b.__mul__(c)) > 0  # multiplicative
        assert order_compare(order, a, one) >= 0  # 1 is the unique minimum
        assert order_compare(order, a, one) > 0 or a == one


def test_paper_precedence_n2():
    t = VariableTable.xy(2)
    names = [t.names[s] for s in certification_precedence(2)]
    assert names == ["x[1,1]", "x[2,2]", "x[1,2]", "x[2,1]",
                     "y[1,1]", "y[1,2]", "y[2,1]", "y[2,2]"]


def test_paper_order_comparisons():
    t2 = VariableTable.xy(2)
    paper2 = MonomialOrder.from_name("paper", 2)
    a = mono(t2, {("x", 1, 1): 1, ("y", 1, 1): 1})
    b = mono(t2, {("x", 2, 2): 1, ("y", 2, 1): 1})
    assert order_compare(paper2, a, b) > 0  # x11 outranks everything
    assert order_compare(paper2, a, a) == 0
    assert order_compare(paper2, b, Monomial.one(8)) > 0

    t3 = VariableTable.xy(3)
    paper3 = MonomialOrder.from_name("paper", 3)
    x12 = mono(t3, {("x", 1, 2): 1})
    x23 = mono(t3, {("x", 2, 3): 1})
    x21 = mono(t3, {("x", 2, 1): 1})
    y11 = mono(t3, {("y", 1, 1): 1})
    assert order_compare(paper3, x12, x23) > 0
    assert order_compare(paper3, x21, y11) > 0


def test_lex_and_grevlex_over_one_precedence_differ():
    precedence = (3, 0, 1, 2)
    lex = MonomialOrder.lex(4, precedence)
    grevlex = MonomialOrder.grevlex(4, precedence)
    x0 = [1, 0, 0, 0]
    x1_squared = [0, 2, 0, 0]
    assert order_compare(lex, x0, x1_squared) == 1
    assert order_compare(grevlex, x0, x1_squared) == -1
    # lex with slot 3 first eliminates it: slot 3 outranks every monomial without it
    assert order_compare(lex, [0, 0, 0, 1], [5, 5, 5, 0]) == 1
    assert lex != grevlex
    assert hash(lex) != hash(grevlex)
    assert lex == MonomialOrder.lex(4, precedence)
    assert hash(lex) == hash(MonomialOrder.lex(4, precedence))
    # resort must re-sort: the rows come out descending under the new order
    gf = PrimeField(32003)
    table = VariableTable(["a", "b", "c", "t"])
    p = Polynomial.from_terms(table, gf, lex,
                              [(gf.one, Monomial(x0)), (gf.one, Monomial(x1_squared))])
    assert p.exps.tolist() == [x0, x1_squared]
    q = p.resort(grevlex)
    assert q.order == grevlex
    assert q.exps.tolist() == [x1_squared, x0]
    # the paper order is lex under the certification precedence
    for n in (2, 3):
        paper = MonomialOrder.from_name("paper", n)
        assert paper == MonomialOrder.lex(2 * n * n, certification_precedence(n))
        assert hash(paper) == hash(MonomialOrder.lex(2 * n * n, certification_precedence(n)))


def test_order_from_name():
    assert ORDER_NAMES == ("paper", "grevlex", "lex")
    for n in (2, 3):
        assert MonomialOrder.from_name("grevlex", n) == MonomialOrder.grevlex(2 * n * n)
        assert MonomialOrder.from_name("lex", n) == MonomialOrder.lex(2 * n * n)
    for bad in ("elim", "Lex", ""):
        with pytest.raises(ValueError):
            MonomialOrder.from_name(bad, 2)


@pytest.mark.parametrize("precedence", [(0, 0, 1), (0, 2), (0, 1, 3), (-1, 0, 1)],
                         ids=["repeated", "missing", "out-of-range", "negative"])
def test_a_precedence_must_permute_the_slots(precedence):
    # (0, 0, 1) would give x2 and 1 the same keys: the order would not be total
    for build in (MonomialOrder.lex, MonomialOrder.grevlex):
        with pytest.raises(ValueError):
            build(3, precedence)
    with pytest.raises(ValueError):
        MonomialOrder(precedence)
    for name in ORDER_NAMES:
        for n in (2, 3, 4):
            assert MonomialOrder.from_name(name, n).nvars == 2 * n * n


@pytest.mark.parametrize("precedence", [(0, 1), (0, 1, 2, 3)], ids=["too-short", "too-long"])
def test_a_precedence_must_order_nvars_slots(precedence):
    for build in (MonomialOrder.lex, MonomialOrder.grevlex):
        with pytest.raises(ValueError, match="nvars=3"):
            build(3, precedence)


def dense_weights(kind, precedence):
    """The order's keys as the rows of an integer weight matrix: keys = W @ e."""
    nv = len(precedence)
    if kind == "grevlex":
        w = np.zeros((nv + 1, nv), dtype=np.int64)
        w[0, :] = 1
        for row, slot in enumerate(reversed(precedence)):
            w[1 + row, slot] = -1
        return w
    w = np.zeros((nv, nv), dtype=np.int64)
    for row, slot in enumerate(precedence):
        w[row, slot] = 1
    return w


def orders_with_weights():
    """(order, dense weight matrix) for lex, grevlex, lex eliminating an
    appended slot and the paper order, over varied precedences."""
    rng = random.Random(11)
    out = []
    for nv in (1, 5, 9):
        shuffled = list(range(nv))
        rng.shuffle(shuffled)
        for precedence in (None, shuffled):
            prec = tuple(range(nv)) if precedence is None else tuple(precedence)
            for kind in ("lex", "grevlex"):
                order = getattr(MonomialOrder, kind)(nv, precedence)
                out.append((order, dense_weights(kind, prec)))
                out.append((MonomialOrder.lex(nv + 1, (nv, *prec)),
                            dense_weights("lex", (nv, *prec))))
    for n in (2, 3, 4, 5):
        out.append((MonomialOrder.from_name("paper", n),
                    dense_weights("lex", certification_precedence(n))))
    return out


def test_keys_and_sort_agree_with_dense_weight_matrices():
    rng = np.random.default_rng(5)
    for order, weights in orders_with_weights():
        nv = order.nvars
        assert weights.shape[1] == nv
        for m in (1, 2, 7, 40):
            # small exponents so that equal keys and constant columns occur
            block = rng.integers(0, 3, size=(m, nv)).astype(np.int64)
            block[rng.random((m, nv)) < 0.6] = 0
            expected = block @ weights.T
            assert np.array_equal(order.keys(block), expected), order
            for row, keys in zip(block, expected):
                assert np.array_equal(order.keys(row), keys), order
            reference = np.lexsort(expected[:, ::-1].T)[::-1]
            assert np.array_equal(order.sort_desc(block), reference), order
        assert order.sort_desc(np.zeros((0, nv), dtype=np.int64)).shape == (0,)


def test_format_monomial(xy2):
    m = mono(xy2, {("x", 1, 1): 2, ("y", 2, 1): 1})
    assert format_monomial(m, xy2) == "x[1,1]^2*y[2,1]"
    assert format_monomial(Monomial.one(8), xy2) == "1"
    # a support renders as its monomial does
    assert format_monomial(_support(m.exps), xy2) == "x[1,1]^2*y[2,1]"
    assert format_monomial((), xy2) == "1"


@pytest.mark.parametrize("order", SHIPPED_ORDERS.values(), ids=SHIPPED_ORDERS.keys())
def test_support_keys_compare_as_dense_keys(order):
    rng = random.Random(11)
    # small degrees, so that equal keys and shared prefixes occur
    monos = [random_monomial(rng, order.nvars, 3) for _ in range(80)]
    for a in monos:
        for b in monos:
            dense = order_compare(order, a, b)
            ka, kb = order._support_key(_support(a.exps)), order._support_key(_support(b.exps))
            assert (ka > kb) - (ka < kb) == dense, (order, a, b)
