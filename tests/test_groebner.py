import hashlib
import itertools
import random

import numpy as np
import pytest

from conftest import entries_2x2, grevlex_entries, product_entries, random_poly
from xyreg.errors import (BudgetExceededError, DimensionError, OrderMismatchError,
                          UndefinedLeadError)
from xyreg.fields import PrimeField, QQ
from xyreg.groebner import (GroebnerBasis, buchberger, groebner_basis,
                            lead_ideal, multi_divide, normal_form,
                            reduce_basis, s_poly)
from xyreg import kernels
from xyreg.kernels import pack_keys
from xyreg.orders import MonomialOrder
from xyreg.pattern import GenericProduct
from xyreg.poly import Polynomial, format_poly, parse_poly
from xyreg.regseq import nonzerodivisor_colon
from xyreg.ring import Monomial, VariableTable, format_monomial


@pytest.fixture
def ctx(xy2, paper2, gf):
    def parse(text, field=gf, order=paper2):
        return parse_poly(text, xy2, field, order)

    return xy2, paper2, gf, parse


def small_ring(field):
    table = VariableTable(["u", "v", "w"])
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


def test_reduced_basis_unique_across_permutations(gf):
    for gens in reference_ideals(gf):
        baseline = None
        for perm in itertools.permutations(gens):
            red = reduce_basis(buchberger(list(perm)))
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
# over GF(32003).  The reduced digests were recorded before the pair loop
# and the interreduction were rewritten on lead blocks, and passed there; the
# unreduced ones were recorded again when ties within an lcm degree began to
# go to the newest pair, since the unreduced basis follows the pair order
GOLDEN_BASES = {
    ("2x2", 2, True): (
        "939684aa7ecef68a0a1a136d21910513036a06b4af2a7cb0101db5fb7f5c1574",
        "a378e7bdbca805f4dec51520c97f1ed050053cdaf580c1ca5cf25c6f253142e3"),
    ("n3", 3, False): (
        "bab3abc74cb89cf6ba4c267c926ed2a65eaf509fb976afa60ccf8b2f88a9cd66",
        "08a03efc28291b47b90a7418d64150756489e7e5279c7a52918d02ed1b4d450c"),
    ("full3x3", 3, True): (
        "17bd9fd9d8af05aa80bcc642c6f5914844bf3feeef9317f27b0ac6029762148f",
        "700ce4f124e0fb5c5e17a96e87a820c94ffbcfda6413929f4f89953907e98aaa"),
    ("n4", 4, False): (
        "f53ac8a8d53b0dc6a7c7ec89b3d948e5dc709c9444077bc75c55e4c2e7dfe1d9",
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


@pytest.mark.parametrize("basis_field", [QQ, PrimeField(11)], ids=repr)
def test_normal_form_rejects_a_basis_over_another_field(basis_field):
    table, order, u, v, w = small_ring(PrimeField(7))
    _, _, bu, bv, _ = small_ring(basis_field)
    gb = GroebnerBasis(order, [bu - bv.scale(basis_field.inv(3))])
    with pytest.raises(ValueError, match="divisor over a different coefficient field"):
        normal_form(u * u, gb)


# (considered, pruned coprime, pruned by the chain criterion, reduced,
# reduced to zero) under grevlex over GF(32003); the reduced and zero counts
# were recorded by counting the normal_form calls of the S-pair loop before
# S-pairs were seeded in the kernel
PAIR_STATS = {
    ("n3", 3, False): (78, 45, 8, 25, 17),
    ("full3x3", 3, True): (1770, 807, 663, 300, 249),
    ("n4", 4, False): (595, 357, 125, 113, 86),
}


@pytest.mark.parametrize("key", list(PAIR_STATS), ids=lambda k: k[0])
def test_buchberger_records_its_pair_counts(gf, key):
    _, n, full = key
    gens, order = grevlex_entries(gf, n, full)
    gb = buchberger(gens, order)
    stats = gb.stats
    counts = (stats.considered, stats.coprime, stats.chain, stats.reduced, stats.zero)
    assert counts == PAIR_STATS[key]
    # every pair of the final basis is considered once, and is pruned or reduced
    assert stats.considered == len(gb) * (len(gb) - 1) // 2
    assert stats.considered == stats.coprime + stats.chain + stats.reduced
    assert stats.reduced - stats.zero == len(gb) - len(gens)
    assert reduce_basis(gb).stats == stats
    assert groebner_basis(gens, order).stats == stats


# the same counts under the lex-type orders, whose lcm keys and chain scan
# take the other branch of each key test: (order, n, all n^2 entries)
LEX_PAIR_STATS = {
    ("lex", 2, True): (28, 11, 3, 14, 10),
    ("lex", 3, False): (231, 93, 70, 68, 51),
    ("lex", 3, True): (1770, 807, 663, 300, 249),
    ("paper", 2, True): (15, 8, 0, 7, 5),
    ("paper", 3, False): (36, 24, 2, 10, 6),
    ("paper", 3, True): (703, 326, 198, 179, 150),
}


@pytest.mark.parametrize("key", list(LEX_PAIR_STATS),
                         ids=lambda k: f"{k[0]}-{'all' if k[2] else 'n'}{k[1]}")
def test_buchberger_records_its_pair_counts_under_lex_type_orders(gf, key):
    name, n, full = key
    order = MonomialOrder.from_name(name, n)
    stats = buchberger(product_entries(gf, n, full, order), order).stats
    counts = (stats.considered, stats.coprime, stats.chain, stats.reduced, stats.zero)
    assert (counts, stats.skipped) == (LEX_PAIR_STATS[key], 0)


def random_homogeneous_system(rng, table, field, order):
    """Two to four polynomials, each of one degree from 1 to 3, of one to
    four terms in the variables of ``table`` with coefficients from 1 to
    50, so none is zero in a characteristic above 200."""
    nvars, system = table.nvars, []
    for _ in range(rng.randint(2, 4)):
        degree = rng.randint(1, 3)
        terms = []
        for _ in range(rng.randint(1, 4)):
            exps = [0] * nvars
            for _ in range(degree):
                exps[rng.randrange(nvars)] += 1
            terms.append((field.coerce(rng.randint(1, 50)), Monomial(np.array(exps))))
        system.append(Polynomial.from_terms(table, field, order, terms))
    return system


def test_buchberger_pair_counts_on_random_homogeneous_systems(gf):
    """One digest of the PairStats of 300 seeded random systems in three to
    five variables under lex, grevlex and a permuted lex order."""
    rng = random.Random(32)
    digest = hashlib.sha256()
    for trial in range(300):
        nvars = rng.randint(3, 5)
        table = VariableTable([f"v{k}" for k in range(nvars)])
        order = (MonomialOrder.lex(nvars), MonomialOrder.grevlex(nvars),
                 MonomialOrder(tuple(range(nvars))[::-1]))[trial % 3]
        stats = buchberger(random_homogeneous_system(rng, table, gf, order), order).stats
        digest.update(repr((stats.considered, stats.coprime, stats.chain,
                            stats.reduced, stats.zero)).encode())
    assert digest.hexdigest()[:16] == "db14711fa6c6621e"


def bases_of_every_kind(field):
    """A basis from each way of making one, over ``field``, by name."""
    order = MonomialOrder.grevlex(8)
    f11, f12, f21, _ = (p.resort(order) for p in entries_2x2(field))
    gb = buchberger([f11, f12])
    step = nonzerodivisor_colon(gb, f21)
    assert step.regular
    return {"buchberger": gb, "reduce_basis": reduce_basis(gb),
            "groebner_basis": groebner_basis([f11, f12, f21]), "colon": step.basis,
            # the constructor scales each element to a leading 1
            "constructor": GroebnerBasis(order, [f11.scale(3), f21])}


@pytest.mark.parametrize("field", [PrimeField(32003), QQ], ids=repr)
def test_a_basis_holds_each_element_once_in_its_divisor_state(field):
    for name, gb in bases_of_every_kind(field).items():
        div = gb.flat_arrays()
        assert len(gb) == len(div) > 0, name
        assert gb.polys is not gb.polys  # decoded each time it is read, never kept
        for k, p in enumerate(gb.polys):
            keys, coeffs = div.element(k)
            assert np.array_equal(p.exps, kernels._rows(div, keys)), name
            assert p.coeffs.tolist() == coeffs, name
            assert pack_keys(gb.order.keys(p.exps), div.width) == keys, name
            assert p.coeffs[0] == field.one, name
            assert (p.table, p.field, p.order) == (gb.table, gb.field, gb.order), name
        assert list(gb) == list(gb.polys)


def test_buchberger_builds_no_polynomial_per_appended_element(gf, monkeypatch):
    import xyreg.poly as poly

    # the full 3x3 set: 51 elements are appended, 9 of them not monic as the
    # kernel returns them
    gens, order = grevlex_entries(gf, 3, True)
    calls = []
    canonicalize, init = poly.canonicalize, Polynomial.__init__
    monkeypatch.setattr(poly, "canonicalize",
                        lambda *args: calls.append("canonicalize") or canonicalize(*args))
    monkeypatch.setattr(Polynomial, "__init__",
                        lambda self, *args: calls.append("Polynomial") or init(self, *args))
    gb = buchberger(gens, order)
    assert len(gb) - len(gens) == 51
    assert calls == []


def test_a_basis_rejects_a_zero_element(ctx):
    table, order, field, parse = ctx
    with pytest.raises(UndefinedLeadError):
        GroebnerBasis(order, [parse("x[1,1]"), Polynomial.zero(table, field, order)])


def test_a_basis_rejects_an_element_under_another_order(ctx):
    _, _, _, parse = ctx
    lex, grevlex = MonomialOrder.lex(8), MonomialOrder.grevlex(8)
    # packed under grevlex, whose lead is x[1,2]^2, a basis of x[1,1] - x[1,2]^2
    # would reduce x[1,1]^2 to x[1,2]^4, which x[1,2]^2 still divides
    with pytest.raises(OrderMismatchError):
        GroebnerBasis(grevlex, [parse("x[1,1] - x[1,2]^2", order=lex)])


def test_a_basis_rejects_mixed_rings(ctx):
    table, order, field, parse = ctx
    with pytest.raises(ValueError, match="different coefficient field"):
        GroebnerBasis(order, [parse("x[1,1]"), parse("x[1,2]", field=QQ)])
    wider = parse_poly("x[1,2]", VariableTable.xy(3), field, MonomialOrder.from_name("paper", 3))
    with pytest.raises(DimensionError):
        GroebnerBasis(order, [parse("x[1,1]"), wider])


def test_buchberger_rejects_mixed_fields(ctx):
    _, order, _, parse = ctx
    # unchecked, their basis would depend on their order: {x[1,1] + 3*x[1,2]}
    # as given, {x[1,1], x[1,2]} reversed
    gens = [parse("x[1,1] + 3*x[1,2]", field=PrimeField(7)), parse("x[1,1] + 10*x[1,2]")]
    for seq in (gens, gens[::-1]):
        with pytest.raises(ValueError, match="different coefficient field"):
            groebner_basis(seq, order)
        with pytest.raises(ValueError, match="different coefficient field"):
            buchberger(seq)
