import hashlib
import itertools
import random

import numpy as np
import pytest

from conftest import entries_2x2, grevlex_entries, random_poly
from xyreg.errors import BudgetExceededError, UndefinedLeadError
from xyreg.fields import PrimeField, QQ
from xyreg.groebner import (GroebnerBasis, buchberger, groebner_basis,
                            lead_ideal, multi_divide, normal_form,
                            reduce_basis, s_poly)
from xyreg.orders import MonomialOrder
from xyreg.pattern import GenericProduct, selected_entries
from xyreg.poly import Polynomial, format_poly, parse_poly
from xyreg.ring import VariableTable, format_monomial


@pytest.fixture
def ctx(xy2, paper2, gf):
    def parse(text, field=gf, order=paper2):
        return parse_poly(text, xy2, field, order)

    return xy2, paper2, gf, parse


def small_ring(field):
    table = VariableTable.generic(["u", "v", "w"])
    order = MonomialOrder.lex(3)
    u, v, w = (Polynomial.variable(table, field, order, k) for k in range(3))
    return table, order, u, v, w


def assert_spairs_reduce_to_zero(gb):
    for f, g in itertools.combinations(gb.polys, 2):
        assert normal_form(s_poly(f, g), gb).is_zero()


def test_divide_examples(ctx):
    xy2, paper2, gf, parse = ctx
    q, r = multi_divide(parse("x[1,1]^2*y[1,1]"), [parse("x[1,1]*y[1,1]")])
    assert q[0] == parse("x[1,1]") and r.is_zero()
    q, r = multi_divide(parse("y[2,2]"), [parse("x[1,1]*y[1,1]")])
    assert q[0].is_zero() and r == parse("y[2,2]")
    f11 = parse("x[1,1]*y[1,1] + x[1,2]*y[2,1]")
    f21 = parse("x[2,1]*y[1,1] + x[2,2]*y[2,1]")
    q, r = multi_divide(f11 * f21, [f11])
    assert q[0] == f21 and r.is_zero()
    with pytest.raises(UndefinedLeadError):
        multi_divide(f11, [parse("0")])


def test_divide_exactness_property(ctx):
    xy2, paper2, gf, parse = ctx
    rng = random.Random(42)
    for _ in range(40):
        f = random_poly(rng, xy2, gf, paper2, max_terms=6, max_degree=4)
        divisors = [random_poly(rng, xy2, gf, paper2, max_terms=3, max_degree=3)
                    for _ in range(rng.randint(1, 3))]
        divisors = [d for d in divisors if not d.is_zero()]
        if not divisors:
            continue
        quots, rem = multi_divide(f, divisors)
        recombined = rem
        for q, d in zip(quots, divisors):
            recombined = recombined + q * d
        assert recombined == f
        for term in rem.terms():
            assert not any(d.leading_monomial().divides(term.monomial)
                           for d in divisors)


def test_s_poly(ctx, gf):
    xy2, paper2, _, parse = ctx
    f = parse("x[1,1]*y[1,1] + x[1,2]*y[2,1]")
    assert s_poly(f, f).is_zero()
    assert s_poly(parse("x[1,1]^2"), parse("x[1,1]*y[1,1]")).is_zero()
    table, order, u, v, w = small_ring(gf)
    s = s_poly(u - v, v * v)
    assert s == (v * v * v).scale(-1)
    with pytest.raises(UndefinedLeadError):
        s_poly(f, parse("0"))


def test_buchberger_coprime_leads_echo(gf):
    # pairwise coprime leads: the input is already a basis, up to monic scaling
    for n in (2, 3):
        product = GenericProduct(n, field=gf)
        col1 = [product.entry(i, 1) for i in range(1, n + 1)]
        gb = buchberger([p.scale(7) for p in col1])
        assert [format_poly(p) for p in gb.polys] == [format_poly(p) for p in col1]
        assert_spairs_reduce_to_zero(gb)


def test_buchberger_duplicate_collapse(ctx):
    _, _, _, parse = ctx
    gb = buchberger([parse("x[1,1]"), parse("x[1,1]")])
    assert len(gb.polys) == 1


def test_buchberger_lex_example(gf):
    table, order, u, v, w = small_ring(gf)
    gb = groebner_basis([u - v, v * v])
    assert [format_poly(p) for p in gb.polys] == ["u + 32002*v", "v^2"]
    assert_spairs_reduce_to_zero(gb)


def test_reduce_idempotent_and_tail_reduction(ctx, gf):
    xy2, paper2, _, parse = ctx
    gb = buchberger([parse("x[1,1] + y[1,1]"), parse("y[1,1]")])
    red = reduce_basis(gb)
    assert {format_poly(p) for p in red.polys} == {"x[1,1]", "y[1,1]"}
    again = reduce_basis(red)
    assert [format_poly(p) for p in again.polys] == [format_poly(p) for p in red.polys]


def reference_ideals(gf):
    table, order, u, v, w = small_ring(gf)
    product = GenericProduct(2, field=gf)
    f11, f12 = product.entry(1, 1), product.entry(1, 2)
    f21 = product.entry(2, 1)
    rng = random.Random(17)
    rand1 = [random_poly(rng, table, gf, order, max_terms=3, max_degree=3)
             for _ in range(3)]
    rand1 = [p for p in rand1 if not p.is_zero()]
    return [
        [u - v, v * v],
        [product.entry(i, 1) for i in (1, 2)],
        [f11, f12, f21],
        rand1,
    ]


def test_reduced_basis_unique_across_strategies_and_permutations(gf):
    for gens in reference_ideals(gf):
        baseline = None
        for strategy in ("normal", "fifo"):
            for perm in itertools.permutations(gens):
                red = reduce_basis(buchberger(list(perm), strategy=strategy))
                rendering = [format_poly(p) for p in red.polys]
                if baseline is None:
                    baseline = rendering
                assert rendering == baseline
                assert_spairs_reduce_to_zero(red)


def test_normal_form_membership(ctx, gf):
    xy2, paper2, _, parse = ctx
    product = GenericProduct(2, field=gf)
    f11, f21 = product.entry(1, 1), product.entry(2, 1)
    gb = groebner_basis([f11, f21])
    rng = random.Random(3)
    for _ in range(20):
        g = random_poly(rng, xy2, gf, paper2)
        h = random_poly(rng, xy2, gf, paper2)
        assert normal_form(f11 * g + f21 * h, gb).is_zero()
    # degree bound: any degree-1 polynomial is outside this quadric ideal
    assert not normal_form(parse("x[1,1]"), gb).is_zero()


def test_normal_form_frozen_values(ctx, gf):
    """Cross-checked against an independent computer algebra system."""
    xy2, paper2, _, parse = ctx
    product = GenericProduct(2, field=gf)
    f11, f12 = product.entry(1, 1), product.entry(1, 2)
    f21, f22 = product.entry(2, 1), product.entry(2, 2)
    gb = groebner_basis([f11, f12, f21])
    assert normal_form(parse("x[2,1]*y[1,2]"), gb) == parse("x[2,1]*y[1,2]")
    # x21*y12 * f22 stays outside the ideal; its remainder is frozen below
    nf = normal_form(parse("x[2,1]*y[1,2]") * f22, gb)
    assert nf == parse("x[2,1]*x[2,2]*y[1,2]*y[2,2] + x[2,1]^2*y[1,2]^2")
    # the cofactors that do certify f22 as a zerodivisor modulo the prefix
    assert normal_form(parse("x[1,1]*y[2,1]") * f22, gb).is_zero()
    assert normal_form(parse("x[1,2]*y[1,1]") * f22, gb).is_zero()
    assert not normal_form(parse("x[1,1]*y[2,1]"), gb).is_zero()


def test_lead_ideal(ctx, gf):
    xy2, paper2, _, parse = ctx
    product = GenericProduct(2, field=gf)
    gb = groebner_basis([product.entry(1, 1), product.entry(2, 1)])
    leads = {format_monomial(m, xy2) for m in lead_ideal(gb)}
    assert leads == {"x[1,1]*y[1,1]", "x[2,2]*y[2,1]"}
    gb2 = GroebnerBasis(paper2, [parse("x[1,1]"), parse("x[1,1]^2")])
    assert [format_monomial(m, xy2) for m in lead_ideal(gb2)] == ["x[1,1]"]
    gb3 = groebner_basis([product.entry(1, 1), product.entry(1, 2),
                          product.entry(2, 1)])
    assert len(lead_ideal(gb3)) == 4


def test_budgets(gf):
    entries = entries_2x2(gf, order=MonomialOrder.grevlex(8))
    with pytest.raises(BudgetExceededError):
        buchberger(entries[:3], pair_budget=1)
    with pytest.raises(BudgetExceededError):
        buchberger(entries[:3], degree_budget=2)
    # generous budgets leave the answer unchanged
    gb = buchberger(entries[:3], pair_budget=10_000, degree_budget=50)
    assert_spairs_reduce_to_zero(gb)


def test_rational_groebner(ctx):
    xy2, paper2, gf, parse = ctx
    product = GenericProduct(2, field=QQ)
    f11, f12, f21 = (product.entry(*ij) for ij in ((1, 1), (1, 2), (2, 1)))
    gb = groebner_basis([f11, f12, f21])
    assert len(gb.polys) == 4
    assert_spairs_reduce_to_zero(gb)


# sha256 of the newline-joined format_poly lines of buchberger's output (in
# the order it is built, unreduced) and of groebner_basis's, under grevlex
# over GF(32003); recorded before the pair loop and the interreduction were
# rewritten on lead blocks, and passing there
GOLDEN_BASES = {
    ("2x2", 2, True): (
        "6d88ef715ed156c1581d1c5b759f488715f676da06a9bc99bdde6668c8aeeb75",
        "a378e7bdbca805f4dec51520c97f1ed050053cdaf580c1ca5cf25c6f253142e3"),
    ("n3", 3, False): (
        "547a28e0144d202ffb556d86cc6ce7f9f18e0e26a569144d281930aff4fdd178",
        "08a03efc28291b47b90a7418d64150756489e7e5279c7a52918d02ed1b4d450c"),
    ("full3x3", 3, True): (
        "5174963d14a2af0bbf1513873d210571ccb427a69982b4eec6fbf6e17aabf53b",
        "700ce4f124e0fb5c5e17a96e87a820c94ffbcfda6413929f4f89953907e98aaa"),
    ("n4", 4, False): (
        "9d1d7983e3d3cf705e34a606926f6b68ab4fee5efc239680789a529950344837",
        "aa914029bc1b08ae4664ee1b58e1b88d71c1739efa665d798e3b141268510730"),
}


def basis_digest(gb):
    text = "\n".join(format_poly(p) for p in gb.polys)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("key", list(GOLDEN_BASES), ids=lambda k: k[0])
def test_golden_bases(gf, key):
    _, n, full = key
    gens, order = grevlex_entries(gf, n, full)
    unreduced, reduced = GOLDEN_BASES[key]
    gb = buchberger(gens, order)
    assert basis_digest(gb) == unreduced
    assert basis_digest(reduce_basis(gb)) == reduced
    assert basis_digest(groebner_basis(gens, order)) == reduced


def test_budget_stops_fire_at_pinned_pair_counts(gf):
    """Where each budget stops on the full 3x3 set, pinned before the pair
    loop was rewritten on lead blocks."""
    gens, order = grevlex_entries(gf, 3, True)
    stops = [(dict(pair_budget=k), k + 1, None) for k in (1, 40, 300)]
    stops += [(dict(degree_budget=3), 19, 4), (dict(degree_budget=4), 130, 5),
              (dict(degree_budget=5), 520, 6)]
    for budget, pairs, degree in stops:
        with pytest.raises(BudgetExceededError) as info:
            buchberger(gens, order, **budget)
        assert (info.value.pairs_considered, info.value.degree_reached) == (pairs, degree)
    with pytest.raises(BudgetExceededError, match="exceeded by a pair of degree 7"):
        buchberger(gens, order, degree_budget=6)
