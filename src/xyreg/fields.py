"""Coefficient domains: prime fields GF(p) and exact rationals.

Coefficients are stored in numpy arrays: int64 values in [0, p) for GF(p),
``fractions.Fraction`` objects for the rationals.  A field object knows how
to canonicalize, combine and invert such arrays; polynomial code stays
agnostic of the concrete domain.
"""

from fractions import Fraction

import numpy as np

DEFAULT_PRIME = 32003
MAX_PRIME = 2**31


def is_prime(p):
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


class PrimeField:
    """GF(p) with canonical representatives in [0, p), for primes p < 2**31."""

    dtype = np.int64
    is_exact_rational = False

    def __init__(self, p=DEFAULT_PRIME):
        p = int(p)
        if p >= MAX_PRIME:
            # residues are int64, and the product of two must not overflow
            raise ValueError(f"{p} is not below 2**31, the largest supported prime")
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p

    # -- scalars -------------------------------------------------------
    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1

    def coerce(self, value):
        if isinstance(value, Fraction):
            return self.div(value.numerator % self.p, value.denominator % self.p)
        return int(value) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        a = int(a) % self.p
        if a == 0:
            raise ZeroDivisionError("0 has no inverse in GF(p)")
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    # -- arrays --------------------------------------------------------
    def array(self, values):
        return np.array([self.coerce(v) for v in values], dtype=self.dtype)

    def canon_array(self, arr):
        return arr % self.p

    def neg_array(self, arr):
        return (-arr) % self.p

    def scale_array(self, c, arr):
        return (c * arr) % self.p

    def nonzero_mask(self, arr):
        return arr % self.p != 0

    def format(self, a):
        return str(int(a))

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("gfp", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


class RationalField:
    """Exact rationals; Fraction keeps values in lowest terms with positive denominator."""

    dtype = object
    is_exact_rational = True

    @property
    def zero(self):
        return Fraction(0)

    @property
    def one(self):
        return Fraction(1)

    def coerce(self, value):
        return Fraction(value)

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return 1 / Fraction(a)

    def div(self, a, b):
        return Fraction(a) / Fraction(b)

    def array(self, values):
        arr = np.empty(len(values), dtype=object)
        for i, v in enumerate(values):
            arr[i] = Fraction(v)
        return arr

    def canon_array(self, arr):
        return arr

    def neg_array(self, arr):
        return -arr

    def scale_array(self, c, arr):
        return c * arr

    def nonzero_mask(self, arr):
        return np.array([a != 0 for a in arr], dtype=bool)

    def format(self, a):
        return str(a)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rat")

    def __repr__(self):
        return "RationalField()"


QQ = RationalField()


def field_from_spec(kind, prime=DEFAULT_PRIME):
    """Build a field from CLI-style arguments ('gfp' or 'rat')."""
    if kind == "gfp":
        return PrimeField(prime)
    if kind == "rat":
        return QQ
    raise ValueError(f"unknown field kind {kind!r}")
