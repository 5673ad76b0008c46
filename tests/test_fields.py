import random
from fractions import Fraction

import numpy as np
import pytest

from xyreg.fields import PrimeField, QQ, field_from_spec, is_prime


def test_prime_validation():
    assert is_prime(2) and is_prime(32003) and not is_prime(32004)
    with pytest.raises(ValueError):
        PrimeField(32004)
    with pytest.raises(ValueError):
        PrimeField(1)


def test_field_from_spec():
    assert field_from_spec("gfp", 7).p == 7
    assert field_from_spec("rat") == QQ
    with pytest.raises(ValueError):
        field_from_spec("bogus")


def test_gfp_axioms_random_triples():
    gf = PrimeField(32003)
    rng = random.Random(20240811)
    for _ in range(1000):
        a, b, c = (rng.randrange(gf.p) for _ in range(3))
        assert gf.add(gf.add(a, b), c) == gf.add(a, gf.add(b, c))
        assert gf.mul(gf.mul(a, b), c) == gf.mul(a, gf.mul(b, c))
        assert gf.mul(a, gf.add(b, c)) == gf.add(gf.mul(a, b), gf.mul(a, c))
        assert gf.add(a, gf.neg(a)) == 0
        if a != 0:
            assert gf.mul(a, gf.inv(a)) == 1
        assert 0 <= gf.add(a, b) < gf.p
        assert 0 <= gf.mul(a, b) < gf.p


def test_gfp_canonical_representatives():
    gf = PrimeField(7)
    assert gf.coerce(-1) == 6
    assert gf.coerce(15) == 1
    assert gf.coerce(Fraction(1, 2)) == 4  # 2 * 4 = 8 = 1 mod 7
    with pytest.raises(ZeroDivisionError):
        gf.inv(0)


def test_rationals_lowest_terms():
    assert QQ.coerce("6/4") == Fraction(3, 2)
    v = QQ.div(1, -2)
    assert v == Fraction(-1, 2) and v.denominator == 2
    assert QQ.inv(Fraction(3, 5)) == Fraction(5, 3)
    assert QQ.add(Fraction(1, 3), Fraction(2, 3)) == 1


def test_prime_bound_keeps_int64_products_exact():
    gf = PrimeField(2**31 - 1)
    residues = np.array([gf.p - 1, gf.p - 2], dtype=np.int64)
    assert gf.scale_array(gf.p - 1, residues).tolist() == [1, 2]
    # 2147483659 is prime, but (p - 1)**2 overflows int64
    with pytest.raises(ValueError):
        PrimeField(2147483659)
    with pytest.raises(ValueError):
        PrimeField(1000000000039)
    with pytest.raises(ValueError):
        field_from_spec("gfp", 10**18 + 9)  # refused before any trial division
