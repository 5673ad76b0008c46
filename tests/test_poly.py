import random

import numpy as np
import pytest

from conftest import random_poly
from xyreg.errors import OrderMismatchError, ParseError, UndefinedLeadError
from xyreg.fields import PrimeField, QQ
from xyreg.orders import MonomialOrder
from xyreg.pattern import GenericProduct
from xyreg.poly import Polynomial, format_poly, parse_poly
from xyreg.ring import VariableTable, format_monomial


@pytest.fixture
def ctx(xy2, paper2, gf):
    def parse(text, field=gf, order=paper2):
        return parse_poly(text, xy2, field, order)

    return xy2, paper2, gf, parse


def assert_canonical(p):
    if p.is_zero():
        return
    assert all(c != 0 for c in p.coeffs.tolist())
    keys = p.order.keys(p.exps)
    for k in range(len(keys) - 1):
        assert keys[k].tolist() > keys[k + 1].tolist()  # strictly descending


def test_additive_inverse(ctx):
    _, _, _, parse = ctx
    p = parse("x[1,1]*y[1,1] + 3*x[1,2]")
    assert (p + (-p)).is_zero()
    assert (p - p).is_zero()


def test_difference_of_squares_over_rationals(xy2):
    lex = MonomialOrder.lex(8)
    x11 = Polynomial.variable(xy2, QQ, lex, xy2.slot("x", 1, 1))
    y11 = Polynomial.variable(xy2, QQ, lex, xy2.slot("y", 1, 1))
    prod = (x11 + y11) * (x11 - y11)
    assert prod == x11 * x11 - y11 * y11


def test_entry_via_ring_ops(ctx):
    xy2, paper2, gf, parse = ctx
    x11 = Polynomial.variable(xy2, gf, paper2, xy2.slot("x", 1, 1))
    x12 = Polynomial.variable(xy2, gf, paper2, xy2.slot("x", 1, 2))
    y11 = Polynomial.variable(xy2, gf, paper2, xy2.slot("y", 1, 1))
    y21 = Polynomial.variable(xy2, gf, paper2, xy2.slot("y", 2, 1))
    assert x11 * y11 + x12 * y21 == GenericProduct(2, gf).entry(1, 1)


def test_order_tag_mismatch(ctx):
    xy2, paper2, gf, parse = ctx
    p = parse("x[1,1] + y[1,1]")
    q = p.resort(MonomialOrder.grevlex(8))
    with pytest.raises(OrderMismatchError):
        p + q
    assert p == q.resort(paper2)


def test_leading_terms(ctx):
    xy2, paper2, gf, parse = ctx
    f21 = parse("x[2,1]*y[1,1] + x[2,2]*y[2,1]")
    assert format_monomial(f21.leading_monomial(), xy2) == "x[2,2]*y[2,1]"
    for n in (2, 3, 4):
        f11 = GenericProduct(n).entry(1, 1)
        assert format_monomial(f11.leading_monomial(), f11.table) == "x[1,1]*y[1,1]"
    const = parse("5")
    assert const.leading_monomial().is_one()
    assert const.leading_coefficient() == 5
    with pytest.raises(UndefinedLeadError):
        parse("0").leading_term()


def test_canonical_after_random_ops(ctx):
    xy2, paper2, gf, parse = ctx
    rng = random.Random(99)
    for _ in range(60):
        p = random_poly(rng, xy2, gf, paper2)
        q = random_poly(rng, xy2, gf, paper2)
        for result in (p + q, p - q, p * q, -p, p.scale(rng.randint(1, 100))):
            assert_canonical(result)
            text = format_poly(result)
            assert parse(text) == result  # format -> parse round-trips exactly


def test_rational_roundtrip(xy2):
    lex = MonomialOrder.lex(8)
    rng = random.Random(5)
    for _ in range(40):
        terms = []
        for _ in range(rng.randint(0, 5)):
            from fractions import Fraction

            c = Fraction(rng.randint(-30, 30), rng.randint(1, 12))
            exps = np.array([rng.randint(0, 2) for _ in range(8)], dtype=np.int64)
            terms.append((c, exps))
        p = Polynomial.from_terms(xy2, QQ, lex, terms)
        assert parse_poly(format_poly(p), xy2, QQ, lex) == p


def test_parse_examples(ctx):
    xy2, paper2, gf, parse = ctx
    assert parse("x[1,1]*y[1,1] + x[1,2]*y[2,1]") == GenericProduct(2, gf).entry(1, 1)
    assert parse("0").is_zero()
    assert parse(" x[1,1]^2 * y[2,2] ") == parse("x[1,1]*x[1,1]*y[2,2]")


def test_parse_errors(ctx):
    xy2, paper2, gf, parse = ctx
    with pytest.raises(ParseError) as exc:
        parse("x[3,1]")
    assert exc.value.position > 0
    with pytest.raises(ParseError):
        parse("z[1,1]")
    with pytest.raises(ParseError):
        parse("x[1,1] + + y[1,1]")
    with pytest.raises(ParseError):
        parse("")
    with pytest.raises(ParseError):
        parse("2x[1,1]")


def test_parse_rejects_oversized_exponents(ctx):
    _, _, _, parse = ctx
    for text, position in [("x[1,1]^99999999999999999999", 7),
                           ("x[1,1]^9223372036854775807*x[1,1]", 7),
                           ("y[2,2]*x[1,1]^ 2147483648", 15)]:
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert exc.value.position == position
        assert "exponent" in str(exc.value)
    assert parse("x[1,1]^2147483647*x[1,1]").degree() == 2**31


def test_homogeneity_and_degree(ctx):
    _, _, _, parse = ctx
    assert parse("x[1,1]*y[1,1] + x[1,2]*y[2,1]").is_homogeneous()
    assert not parse("x[1,1] + x[1,2]*y[2,1]").is_homogeneous()
    assert parse("0").degree() == -1
    assert parse("x[1,1]^3*y[2,1]").degree() == 4


def test_immutability(ctx):
    _, _, _, parse = ctx
    p = parse("x[1,1] + y[1,1]")
    with pytest.raises(ValueError):
        p.exps[0, 0] = 7
