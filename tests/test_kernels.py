import random

import numpy as np
import pytest

from conftest import order_compare, random_poly
from xyreg.fields import PrimeField, QQ
from xyreg.groebner import GroebnerBasis, buchberger, normal_form, reduce_basis, s_poly
from xyreg.kernels import SignedDivisors, pack_keys, reduce_spair, reduce_terms
from xyreg.orders import MonomialOrder
from xyreg.pattern import GenericProduct
from xyreg.poly import Polynomial
from xyreg.regseq import nonzerodivisor_colon
from xyreg.ring import VariableTable


def build_case(rng, field):
    table = VariableTable([f"v{k}" for k in range(5)])
    order = MonomialOrder.grevlex(5)
    f = random_poly(rng, table, field, order, max_terms=8, max_degree=5)
    divisors = []
    while len(divisors) < 3:
        d = random_poly(rng, table, field, order, max_terms=4, max_degree=3)
        if not d.is_zero():
            divisors.append(d.monic())
    return order, f, GroebnerBasis(order, divisors)


def test_numpy_path_handles_rationals():
    rng = random.Random(77)
    for _ in range(20):
        order, f, gb = build_case(rng, QQ)
        r = normal_form(f, gb)
        # the remainder is fully reduced and the difference lies in the ideal
        for term in r.terms():
            assert not any(d.leading_monomial().divides(term.monomial)
                           for d in gb.polys)


def test_reduction_invariants_via_normal_form():
    gf = PrimeField(32003)
    rng = random.Random(4321)
    for _ in range(30):
        order, f, gb = build_case(rng, gf)
        r = normal_form(f, gb)
        for term in r.terms():
            assert not any(d.leading_monomial().divides(term.monomial)
                           for d in gb.polys)


def test_kernel_takes_the_first_dividing_lead_in_list_order():
    # the head x*y is divisible by both leads x and x*y; list order decides
    gf = PrimeField(32003)
    table = VariableTable(["x", "y", "z", "w"])
    order = MonomialOrder.grevlex(4)
    x, y, z, w = (Polynomial.variable(table, gf, order, k) for k in range(4))
    f = x * y
    d_linear = x + w
    d_quadric = x * y + z * z
    for divisors, remainder in (([d_linear, d_quadric], (y * w).scale(-1)),
                                ([d_quadric, d_linear], (z * z).scale(-1))):
        gb = GroebnerBasis(order, divisors)
        r_exps, r_coeffs, _ = reduce_terms(gf, f.exps, pack_keys(order.keys(f.exps)),
                                           f.coeffs, gb.flat_arrays())
        assert Polynomial(table, gf, order, r_exps, r_coeffs) == remainder
        assert normal_form(f, gb) == remainder


# -- the merge-and-resort kernel the heap kernel replaced, kept as a reference --


def _merge_canonical(field, exps_a, coeffs_a, keys_a, exps_b, coeffs_b, keys_b):
    """Merge two strictly descending term blocks, summing equal monomials."""
    exps = np.concatenate([exps_a, exps_b])
    coeffs = np.concatenate([coeffs_a, coeffs_b])
    keys = np.concatenate([keys_a, keys_b])
    if len(coeffs) == 0:
        return exps, coeffs, keys
    idx = np.lexsort(keys[:, ::-1].T)[::-1]
    exps, coeffs, keys = exps[idx], coeffs[idx], keys[idx]
    boundary = np.empty(len(coeffs), dtype=bool)
    boundary[0] = True
    boundary[1:] = (keys[1:] != keys[:-1]).any(axis=1)
    starts = np.flatnonzero(boundary)
    if len(starts) != len(coeffs):
        coeffs = field.canon_array(np.add.reduceat(coeffs, starts))
        exps, keys = exps[starts], keys[starts]
    mask = field.nonzero_mask(coeffs)
    if not mask.all():
        exps, coeffs, keys = exps[mask], coeffs[mask], keys[mask]
    return exps, coeffs, keys


def reference_normal_form(f, divisors):
    """Full reduction of f by the monic divisors, first dividing lead in
    list order, re-sorting the whole working polynomial after each step."""
    field, order = f.field, f.order
    d_exps = np.concatenate([d.exps for d in divisors])
    d_keys = order.keys(d_exps)
    d_coeffs = np.concatenate([d.coeffs for d in divisors])
    d_starts = np.cumsum([0] + [d.num_terms for d in divisors])
    d_leads = np.array([d.exps[0] for d in divisors])
    w_exps, w_coeffs, w_keys = f.exps, f.coeffs, order.keys(f.exps)
    r_exps, r_coeffs = [], []
    while len(w_coeffs) > 0:
        head = w_exps[0]
        divides = (d_leads <= head).all(axis=1)
        hit = int(divides.argmax())
        if not divides[hit]:
            r_exps.append(head)
            r_coeffs.append(w_coeffs[0])
            w_exps, w_coeffs, w_keys = w_exps[1:], w_coeffs[1:], w_keys[1:]
            continue
        lo, hi = d_starts[hit], d_starts[hit + 1]
        tail_coeffs = field.canon_array(
            field.neg_array(field.scale_array(w_coeffs[0], d_coeffs[lo + 1:hi])))
        w_exps, w_coeffs, w_keys = _merge_canonical(
            field, w_exps[1:], w_coeffs[1:], w_keys[1:],
            d_exps[lo + 1:hi] + (head - d_leads[hit]), tail_coeffs,
            d_keys[lo + 1:hi] + (w_keys[0] - d_keys[lo]))
    return Polynomial.from_terms(f.table, field, order, list(zip(r_coeffs, r_exps)))


def order_cases():
    """(name, table, order) for lex, grevlex, the paper order and an
    elimination order."""
    generic5 = VariableTable([f"v{k}" for k in range(5)])
    generic6 = VariableTable([f"v{k}" for k in range(6)])
    return [("lex", generic5, MonomialOrder.lex(5, (3, 0, 4, 1, 2))),
            ("grevlex", generic5, MonomialOrder.grevlex(5)),
            ("paper", VariableTable.xy(2), MonomialOrder.paper(2)),
            ("elim", generic6, MonomialOrder.grevlex(5).eliminate_last())]


ORDER_IDS = [case[0] for case in order_cases()]


def scaled(p, factor):
    """p with every exponent multiplied by factor (order and divisibility
    are unchanged, for the orders here are linear)."""
    return Polynomial(p.table, p.field, p.order, p.exps * factor, p.coeffs)


def random_divisors(rng, table, field, order, count, max_degree=3):
    divisors = []
    while len(divisors) < count:
        d = random_poly(rng, table, field, order, max_terms=4, max_degree=max_degree)
        if not d.is_zero():
            divisors.append(d.monic())
    return divisors


@pytest.mark.parametrize("field", [PrimeField(32003), PrimeField(7), QQ], ids=repr)
@pytest.mark.parametrize("name,table,order", order_cases(), ids=ORDER_IDS)
def test_heap_kernel_matches_reference(field, name, table, order):
    rng = random.Random(f"{name}-{field!r}")
    for trial in range(25):
        f = random_poly(rng, table, field, order, max_terms=9, max_degree=5)
        divisors = random_divisors(rng, table, field, order, rng.randint(1, 4))
        if trial % 5 == 4:
            # exponents up to the parser's limit 2**31 - 1
            factor = (2**31 - 1) // 5
            f = scaled(f, factor)
            divisors = [scaled(d, factor) for d in divisors]
        assert normal_form(f, GroebnerBasis(order, divisors)) == \
            reference_normal_form(f, divisors)


@pytest.mark.parametrize("field", [PrimeField(32003), QQ], ids=repr)
def test_a_cancelled_term_that_comes_back_is_kept(field):
    # lex a > b > c: the first step cancels c, the second brings it back
    table = VariableTable(["a", "b", "c"])
    order = MonomialOrder.lex(3)
    a, b, c = (Polynomial.variable(table, field, order, k) for k in range(3))
    f = a + b - c
    divisors = [a - c, b - c]
    expected = reference_normal_form(f, divisors)
    assert expected == c
    assert normal_form(f, GroebnerBasis(order, divisors)) == expected


@pytest.mark.parametrize("field", [PrimeField(32003), QQ], ids=repr)
@pytest.mark.parametrize("name,table,order", order_cases(), ids=ORDER_IDS)
def test_spair_entry_matches_normal_form_of_s_poly(field, name, table, order):
    rng = random.Random(f"spair-{name}-{field!r}")
    for _ in range(20):
        divisors = random_divisors(rng, table, field, order, rng.randint(2, 5))
        gb = GroebnerBasis(order, divisors)
        lcm = np.maximum(divisors[0].exps[0], divisors[1].exps[0])
        r_exps, r_coeffs, r_keys = reduce_spair(
            field, 0, 1, lcm, pack_keys(order.keys(lcm[None]))[0], gb.flat_arrays())
        expected = normal_form(s_poly(divisors[0], divisors[1]), gb)
        assert Polynomial(table, field, order, r_exps, r_coeffs) == expected
        assert r_keys == pack_keys(order.keys(expected.exps))


@pytest.mark.parametrize("name,table,order", order_cases(), ids=ORDER_IDS)
def test_packed_keys_follow_the_order_and_add_linearly(name, table, order):
    rng = np.random.default_rng(5)
    exps = rng.integers(0, 2**31 - 1, size=(40, table.nvars)) // rng.integers(1, 2**20, size=(40, 1))
    packed = pack_keys(order.keys(exps))
    one = pack_keys(order.keys(np.zeros((1, table.nvars), dtype=np.int64)))[0]
    for a in range(0, 40, 3):
        for b in range(1, 40, 7):
            assert (packed[a] > packed[b]) - (packed[a] < packed[b]) == \
                order_compare(order, exps[a], exps[b])
            assert pack_keys(order.keys((exps[a] + exps[b])[None]))[0] == packed[a] + packed[b] - one


def test_bases_hand_their_divisor_state_over(monkeypatch):
    gf = PrimeField(32003)
    product = GenericProduct(2, field=gf)
    order = MonomialOrder.grevlex(8)
    f11, f12, f21 = (product.entry(i, j).resort(order) for i, j in ((1, 1), (1, 2), (2, 1)))
    gb = buchberger([f11, f12])
    red = reduce_basis(gb)
    step = nonzerodivisor_colon(red, f21)
    assert step.regular
    bases = (gb, red, step.basis)
    calls = []
    keys = MonomialOrder.keys
    monkeypatch.setattr(MonomialOrder, "keys",
                        lambda self, exps: calls.append(len(exps)) or keys(self, exps))
    for basis in bases:
        assert len(SignedDivisors(basis.flat_arrays())) == len(basis)
    assert calls == []
    # a basis made from bare polys packs each element once, into the state
    # the code that built the basis handed over
    for basis in bases:
        calls.clear()
        bare = GroebnerBasis(order, basis.polys)
        div, fresh = basis.flat_arrays(), bare.flat_arrays()
        assert bare.flat_arrays() is fresh
        assert calls == [p.num_terms for p in basis.polys]
        assert (div.keys, div.coeffs, div.starts, div.lead_keys) == \
            (fresh.keys, fresh.coeffs, fresh.starts, fresh.lead_keys)
        assert (div.leads == fresh.leads).all()
