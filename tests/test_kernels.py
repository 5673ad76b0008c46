import hashlib
import itertools
import random

import numpy as np
import pytest

from conftest import entries_2x2, grevlex_entries, order_compare, random_poly
from xyreg.fields import PrimeField, QQ
from xyreg.groebner import GroebnerBasis, buchberger, normal_form, reduce_basis, s_poly
from xyreg import kernels
from xyreg.kernels import (Divisors, SignedDivisors, pack_keys, reduce_jpair, reduce_spair,
                           reduce_terms)
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
        div = gb.flat_arrays()
        r_keys, r_coeffs = reduce_terms(gf, pack_keys(order.keys(f.exps), div.width), div.width,
                                        f.coeffs, div)
        assert Polynomial(table, gf, order, kernels._rows(div, r_keys), r_coeffs) == remainder
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
    return [("lex", generic5, MonomialOrder((3, 0, 4, 1, 2))),
            ("grevlex", generic5, MonomialOrder.grevlex(5)),
            ("paper", VariableTable.xy(2), MonomialOrder.from_name("paper", 2)),
            ("elim", generic6, MonomialOrder((5, *range(5))))]


ORDER_IDS = [case[0] for case in order_cases()]


def key_top(order, exps):
    """The largest key column of the exponent rows: the largest degree
    under a graded order, else the largest exponent."""
    return (exps.sum(axis=1) if order.graded else exps).max()


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
        div = gb.flat_arrays()
        lcm = np.maximum(divisors[0].exps[0], divisors[1].exps[0])
        r_keys, r_coeffs = reduce_spair(field, 0, 1, div.pack(lcm[None])[0], div)
        expected = normal_form(s_poly(divisors[0], divisors[1]), gb)
        assert Polynomial(table, field, order, kernels._rows(div, r_keys), r_coeffs) == expected
        assert r_keys == pack_keys(order.keys(expected.exps), div.width)


@pytest.mark.parametrize("name,table,order", order_cases(), ids=ORDER_IDS)
def test_packed_keys_follow_the_order_and_add_linearly(name, table, order):
    rng = np.random.default_rng(5)
    raw = rng.integers(0, 2**31 - 1, size=(40, table.nvars)) // rng.integers(1, 2**20, size=(40, 1))
    for width in (8, 16, 32, 64):
        # scaled so that the largest key column of any sum of two rows is
        # just below the width's bias, which no narrower width holds
        top = 2 * int(key_top(order, raw))
        exps = (raw.astype(object) * (2**(width - 2) - 1) // top).astype(np.int64)
        div = Divisors(order)
        div.fit(2 * exps)
        assert div.width == width
        packed = pack_keys(order.keys(exps), div.width)
        assert packed == div.pack(exps)
        one = pack_keys(order.keys(np.zeros((1, table.nvars), dtype=np.int64)), div.width)[0]
        for a in range(0, 40, 3):
            for b in range(1, 40, 7):
                assert (packed[a] > packed[b]) - (packed[a] < packed[b]) == \
                    order_compare(order, exps[a], exps[b])
                assert pack_keys(order.keys((exps[a] + exps[b])[None]), div.width)[0] == \
                    packed[a] + packed[b] - one


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


# -- the key contract: order, divisibility and decoding read from the keys --


def rows_near_the_limit(rng, order, count, width):
    """``count`` exponent rows whose largest key column lies just below the
    bias of ``width``: every exponent near the limit, or (graded) one near
    it and the rest small."""
    nvars = order.nvars
    limit = 2**(width - 2) - 1
    if not order.graded:
        return limit - rng.integers(0, 4, size=(count, nvars))
    rows = rng.integers(0, 3, size=(count, nvars))
    spread = rng.random(count) < 0.5
    rows[spread] = limit // nvars - rows[spread]
    tall = np.flatnonzero(~spread)
    rows[tall, rng.integers(0, nvars, size=len(tall))] = limit - 3 * nvars
    return rows


@pytest.mark.parametrize("name,table,order", order_cases(), ids=ORDER_IDS)
def test_key_divisibility_and_decoding_match_the_exponent_rows(name, table, order):
    rng = np.random.default_rng(list(name.encode()))
    for width in (8, 16, 32, 64):
        heads = rows_near_the_limit(rng, order, 40, width)
        # leads below some heads, and others that divide few
        leads = np.vstack([np.maximum(heads[:12] - rng.integers(0, 3, size=(12, order.nvars)), 0),
                           rows_near_the_limit(rng, order, 12, width)])
        div = Divisors(order)
        for lead in leads:
            div.append(div.pack(lead[None]), [1])
        keys = div.pack(heads)
        assert div.width == width and key_top(order, heads) >= 2**(width - 3)
        assert np.array_equal(kernels._rows(div, keys), heads)
        assert np.array_equal(kernels._rows(div, div.lead_keys), leads)
        hits = 0
        for head, key in zip(heads, keys):
            divides = (leads <= head).all(axis=1)
            first = int(np.argmax(divides)) if divides.any() else -1
            assert kernels._first_divisor(div, key) == first
            for k in range(len(leads)):
                assert (kernels._first_divisor(div, key, k) == k) == divides[k]
            hits += int(divides.sum())
        assert 12 <= hits < len(heads) * len(leads)


CHAIN_IDS = ["grevlex", "paper"]


@pytest.mark.parametrize("name,table,order",
                         [case for case in order_cases() if case[0] in CHAIN_IDS],
                         ids=CHAIN_IDS)
def test_the_chain_scan_reads_only_the_leads_its_bit_set_names(name, table, order):
    """``divides_any`` finds a dividing lead whose bit is set, never one
    whose bit is clear, and gives False on leads that do not divide and on
    the empty set; the same once the state widens from 8 to 16 bits."""
    rng = np.random.default_rng(list(name.encode()))
    heads = rows_near_the_limit(rng, order, 30, 8)
    leads = np.vstack([np.maximum(heads[:10] - rng.integers(0, 3, size=(10, order.nvars)), 0),
                       rows_near_the_limit(rng, order, 10, 8)])
    div = Divisors(order)
    for lead in leads:
        div.append(div.pack(lead[None]), [1])
    for width in (8, 16):
        if width > div.width:
            div._widen(width)
        assert div.width == width
        mixed = 0
        for head, key in zip(heads, div.pack(heads)):
            divides = (leads <= head).all(axis=1)
            others = sum(1 << k for k in np.flatnonzero(~divides).tolist())
            assert not kernels.divides_any(div, key, 0)
            assert not kernels.divides_any(div, key, others)
            for k in np.flatnonzero(divides).tolist():
                assert kernels.divides_any(div, key, 1 << k)
                assert kernels.divides_any(div, key, others | 1 << k)
            mixed += bool(divides.any() and others)
        assert mixed >= 10


def assert_keys_are_clean(div):
    """No stored key has a guard bit set, every key decodes to rows that
    pack to it again, and each lead key decodes to its row of the lead
    block."""
    assert not any(key & div._guard for key in div.keys)
    rows = kernels._rows(div, div.keys)
    assert pack_keys(div.order.keys(rows), div.width) == div.keys
    assert div.lead_keys == [div.keys[at] for at in div.starts[:-1]]
    assert np.array_equal(kernels._rows(div, div.lead_keys), div.leads)


def test_bases_and_colon_walks_store_clean_keys(gf):
    gens = [p.resort(MonomialOrder.grevlex(18))
            for p in (GenericProduct(3, field=gf).entry(i, j) for i, j in ((1, 1), (1, 2), (2, 1)))]
    assert_keys_are_clean(buchberger(gens).flat_arrays())
    basis = None
    for f in gens:
        step = nonzerodivisor_colon(basis, f)
        assert step.regular
        basis = step.basis
        assert_keys_are_clean(basis.flat_arrays())


# -- widening: a state that outgrows its width repacks, and results stay --


def power(p, k):
    out = p
    for _ in range(k - 1):
        out = out * p
    return out


def digest(polys):
    """sha256 of the exponent bytes and coefficients of ``polys``."""
    return hashlib.sha256(repr([(p.exps.tobytes(), p.coeffs.tolist())
                                for p in polys]).encode()).hexdigest()[:16]


def test_a_grevlex_buchberger_past_degree_63_widens_and_matches_the_unscaled_run(gf):
    order = MonomialOrder.grevlex(8)
    gens = [p.resort(order) for p in entries_2x2(gf)]
    small = buchberger(gens)
    # degree 40 fits 8-bit fields; S-pairs of degree 60 and 80 do not all
    big = buchberger([scaled(p, 20) for p in gens])
    assert small.flat_arrays().width == 8 and big.flat_arrays().width == 16
    assert big.stats == small.stats
    assert big.polys == tuple(scaled(p, 20) for p in small.polys)
    assert_keys_are_clean(big.flat_arrays())
    assert reduce_basis(big).polys == tuple(scaled(p, 20) for p in reduce_basis(small).polys)
    # recorded with 64-bit fields; the unreduced one again when ties within
    # an lcm degree began to go to the newest pair
    assert (digest(big.polys), digest(reduce_basis(big).polys)) == \
        ("1dc86243e4a1b75c", "d5697ba52ead0739")


def chain_case(field):
    """The lex chain a - b^10, b - c^10 (a > b > c), its order and its
    variables: each step of a reduction by it multiplies c's exponent by
    ten, so a - b^10 runs to a - c^100, past 8-bit fields."""
    table = VariableTable(["a", "b", "c"])
    order = MonomialOrder.lex(3)
    a, b, c = (Polynomial.variable(table, field, order, k) for k in range(3))
    return order, (a, b, c), [a - power(b, 10), b - power(c, 10)]


@pytest.mark.parametrize("field", [PrimeField(32003), QQ], ids=repr)
def test_a_lex_reduction_that_outgrows_its_width_mid_reduction_widens(field):
    # a > b > c: a -> b^10 -> c^100, past 8-bit fields only after two steps
    order, (a, b, c), divisors = chain_case(field)
    f = a * b + a + power(c, 3)
    gb = GroebnerBasis(order, divisors)
    assert gb.flat_arrays().width == 8
    remainder = normal_form(f, gb)
    assert gb.flat_arrays().width == 16
    assert remainder == reference_normal_form(f, divisors) == \
        power(c, 110) + power(c, 100) + power(c, 3)
    assert_keys_are_clean(gb.flat_arrays())
    # and in the reduced basis, whose tail reduction raises the exponents
    red = reduce_basis(GroebnerBasis(order, divisors))
    assert red.flat_arrays().width == 16
    assert red.polys == (a - power(c, 100), b - power(c, 10))
    assert_keys_are_clean(red.flat_arrays())


def test_a_colon_step_whose_jpairs_outgrow_its_width_widens(gf):
    # the 2x2 entries at degree 62 fit 8-bit fields, the J-pairs' lcms do
    # not; the selected 3x3 entries at degree 32 widen in the third step,
    # with J-pairs pending whose keys are packed again.  The digests of the
    # scaled bases were recorded with 64-bit fields.
    order = MonomialOrder.grevlex(8)
    cases = [([p.resort(order) for p in entries_2x2(gf)], 31, "5e26cc94679cfde1"),
             (grevlex_entries(gf, 3, False)[0], 16, "8da8355e9ad45507")]
    for entries, factor, expected in cases:
        small = big = None
        for f in entries:
            step, step_big = nonzerodivisor_colon(small, f), nonzerodivisor_colon(big, scaled(f, factor))
            assert (step_big.regular, step_big.stats) == (step.regular, step.stats)
            if not step.regular:
                x12, y21 = (Polynomial.variable(VariableTable.xy(2), gf, order, k) for k in (1, 6))
                assert step_big.witness == scaled(step.witness, factor) == power(x12 * y21, factor)
                break
            assert step_big.basis.polys == tuple(scaled(p, factor) for p in step.basis.polys)
            assert_keys_are_clean(step_big.basis.flat_arrays())
            small, big = step.basis, step_big.basis
        assert small.flat_arrays().width == 8 and big.flat_arrays().width == 16
        assert digest(big.polys) == expected


WIDENING_IDS = ["lex", "grevlex", "paper"]


@pytest.mark.parametrize("name,table,order",
                         [case for case in order_cases() if case[0] in WIDENING_IDS],
                         ids=WIDENING_IDS)
def test_a_state_widens_from_its_stored_keys_alone(name, table, order, monkeypatch):
    rng = np.random.default_rng(list(name.encode()))
    rows = np.unique(rows_near_the_limit(rng, order, 30, 8), axis=0)
    elements = [rows[at:at + 5][order.sort_desc(rows[at:at + 5])]
                for at in range(0, len(rows), 5)]
    rows = np.concatenate(elements)
    div = Divisors(order)
    for element in elements:
        div.append(div.pack(element), [1] * len(element))
    assert div.width == 8
    expected = {wider: pack_keys(order.keys(rows), wider) for wider in (16, 32, 64)}
    calls = []
    keys = MonomialOrder.keys
    monkeypatch.setattr(MonomialOrder, "keys",
                        lambda self, exps: calls.append(len(exps)) or keys(self, exps))
    for wider in (16, 32, 64):
        div._widen(wider)
        assert div.width == wider
        assert div.keys == expected[wider]
        assert div.lead_keys == [div.keys[at] for at in div.starts[:-1]]
    assert calls == []  # no key is packed again from exponent rows
    assert np.array_equal(kernels._rows(div, div.keys), rows)


@pytest.mark.parametrize("name,table,order",
                         [case for case in order_cases() if case[0] in WIDENING_IDS],
                         ids=WIDENING_IDS)
def test_a_taken_state_holds_the_lead_rows_of_its_lead_keys(name, table, order):
    """``take`` copies the chosen rows of the lead block; they are the rows
    the taken lead keys decode to, also once the source has widened, and
    growing the taken state leaves the source as it was."""
    rng = np.random.default_rng(list(name.encode()))
    rows = np.unique(rows_near_the_limit(rng, order, 30, 8), axis=0)
    div = Divisors(order)
    for at in range(0, len(rows), 3):
        element = rows[at:at + 3][order.sort_desc(rows[at:at + 3])]
        div.append(div.pack(element), list(range(at + 1, at + 1 + len(element))))
    for wider in (None, 16, 64):
        if wider:
            div._widen(wider)
        leads = div.leads.copy()
        for chosen in ((), (3,), range(len(div) - 1, -1, -1), range(0, len(div), 2)):
            taken = div.take(chosen)
            assert taken.width == div.width
            assert [taken.element(j) for j in range(len(taken))] \
                == [div.element(k) for k in chosen]
            assert np.array_equal(taken.leads, leads[list(chosen)])
            assert_keys_are_clean(taken)
            for k in range(len(div)):  # past the copied block's capacity
                taken.append(*div.element(k))
            assert_keys_are_clean(taken)
            assert np.array_equal(div.leads, leads)


LCM_ORDERS = {"lex": MonomialOrder.lex(6), "grevlex": MonomialOrder.grevlex(6),
              "permuted-lex": MonomialOrder((4, 1, 5, 0, 3, 2)),
              "permuted-grevlex": MonomialOrder((4, 1, 5, 0, 3, 2), graded=True)}


@pytest.mark.parametrize("name", LCM_ORDERS)
def test_the_lcm_key_and_coprimality_of_two_leads_match_their_rows(name):
    order = LCM_ORDERS[name]
    rng = np.random.default_rng(list(name.encode()))
    coprime = []
    for top in (2, 4, 12, 40, 2**13, 2**29):  # exponent ranges across the widths
        shape = (10, order.nvars)
        rows = rng.integers(1, top, size=shape) * (rng.random(shape) < 0.4)
        div = Divisors(order)
        for row in rows:
            div.append(div.pack(row[None]), [1])
        for i, j in itertools.combinations(range(len(rows)), 2):
            lcm = np.maximum(rows[i], rows[j])
            key = kernels.lead_lcm_key(div, i, j, int(lcm.sum()))
            width = div.width
            assert key == div.pack(lcm[None])[0]
            assert div.width == width  # the helper widened as far as packing needs
            coprime.append(kernels.coprime_leads(div, i, j, key))
            assert coprime[-1] == (not np.minimum(rows[i], rows[j]).any())
    assert 0 < sum(coprime) < len(coprime) / 2
    # leads of degree 42 and 24 fit 8-bit fields; their lcm, of degree 64,
    # does not
    leads = np.zeros((2, order.nvars), dtype=np.int64)
    leads[0, 0], leads[1, 1], leads[:, 5] = 40, 22, 2
    div = Divisors(order)
    for lead in leads:
        div.append(div.pack(lead[None]), [1])
    assert div.width == 8
    key = kernels.lead_lcm_key(div, 0, 1, 64)
    assert div.width == (16 if order.graded else 8)
    assert key == div.pack(np.maximum(*leads)[None])[0]
    assert kernels._rows(div, [key])[0].tolist() == [40, 22, 0, 0, 0, 2]


def numpy_bytes(div):
    """The bytes of every numpy array a state holds."""
    return sum(value.nbytes for value in vars(div).values() if isinstance(value, np.ndarray))


def test_a_states_numpy_bytes_do_not_grow_with_its_terms():
    order = MonomialOrder.lex(3)
    rows = np.array(list(itertools.product(range(10), repeat=3)), dtype=np.int64)[::-1]
    single, wide, many = Divisors(order), Divisors(order), Divisors(order)
    single.append(single.pack(rows[:1]), [1])
    wide.append(wide.pack(rows), [1] * len(rows))
    for row in rows:
        many.append(many.pack(row[None]), [1])
    assert len(wide.keys) == len(many.keys) == 1000
    # one element of 1,000 terms holds no more numpy bytes than one of a
    # single term; 1,000 elements hold one lead row each
    assert numpy_bytes(wide) == numpy_bytes(single)
    assert numpy_bytes(many) <= numpy_bytes(single) + 2 * 1000 * many.leads[0].nbytes
    assert np.array_equal(many.leads, rows)


def decoded(div, terms, like):
    """The polynomial of the (packed keys, coeffs) ``terms`` of ``div``."""
    keys, coeffs = terms
    return Polynomial(like.table, like.field, like.order, kernels._rows(div, keys), coeffs)


@pytest.mark.parametrize("field", [PrimeField(32003), QQ], ids=repr)
def test_pair_reductions_keep_their_results_across_a_mid_reduction_lex_widening(field):
    order, (a, _, c), chain = chain_case(field)
    one = field.one
    unit = Polynomial.constant(a.table, field, order, one)
    spair, jpair = [], []
    for widen_first in (False, True):
        # the S-pair of a - b^10 and a*c - 1 is 1 - b^10*c, whose remainder is
        # 1 - c^101
        div = GroebnerBasis(order, [chain[0], chain[1], a * c - unit]).flat_arrays()
        if widen_first:
            div._widen(16)
        lcm = (a * c).exps
        terms = reduce_spair(field, 0, 2, div.pack(lcm)[0], div)
        assert div.width == 16
        spair.append(decoded(div, terms, a))
        assert terms[0] == pack_keys(order.keys(spair[-1].exps), 16)
        # the pair (1, c) after J's chain: its J-pair with a, shifted by a,
        # top-reduces a*c to c^101, which the pair itself reduces at the
        # shifted signature c^100 < a
        div = SignedDivisors(GroebnerBasis(order, chain).flat_arrays())
        if widen_first:
            div._widen(16)
        div.append(div.pack(c.exps), [one])
        div.u.append(div.pack(np.zeros((1, 3), dtype=np.int64)), [one])
        v, u = reduce_jpair(field, 2, div.pack(a.exps)[0] - div._one, div)
        assert div.width == div.u.width == 16
        jpair.append((decoded(div, v, a), decoded(div, u, a)))
    assert spair[0] == spair[1] == unit - power(c, 101)
    assert jpair[0] == jpair[1] == (Polynomial.zero(a.table, field, order), a - power(c, 100))
