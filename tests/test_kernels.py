import random

from conftest import random_poly
from xyreg.fields import PrimeField, QQ
from xyreg.groebner import GroebnerBasis, normal_form
from xyreg.kernels import reduce_terms
from xyreg.orders import MonomialOrder
from xyreg.poly import Polynomial
from xyreg.ring import VariableTable


def build_case(rng, field):
    table = VariableTable.generic([f"v{k}" for k in range(5)])
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
    table = VariableTable.generic(["x", "y", "z", "w"])
    order = MonomialOrder.grevlex(4)
    x, y, z, w = (Polynomial.variable(table, gf, order, k) for k in range(4))
    f = x * y
    d_linear = x + w
    d_quadric = x * y + z * z
    for divisors, remainder in (([d_linear, d_quadric], (y * w).scale(-1)),
                                ([d_quadric, d_linear], (z * z).scale(-1))):
        gb = GroebnerBasis(order, divisors)
        d_exps, d_keys, d_coeffs, d_starts, d_leads = gb.flat_arrays()
        r_exps, r_coeffs = reduce_terms(gf, f.exps, order.keys(f.exps), f.coeffs,
                                        d_exps, d_keys, d_coeffs, d_starts, d_leads)
        assert Polynomial(table, gf, order, r_exps, r_coeffs) == remainder
        assert normal_form(f, gb) == remainder
