"""Polynomials as canonically sorted term arrays.

A polynomial stores a (m, nvars) int64 exponent block and a parallel
coefficient array, rows strictly descending under the carried order tag,
no zero coefficients, no repeated monomials.  The zero polynomial has no
rows.  All instances are immutable; every operation returns a fresh value.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, OrderMismatchError, ParseError, UndefinedLeadError
from .ring import Monomial, format_monomial

# the largest exponent the parser accepts; sums of a few stay far inside int64
MAX_EXPONENT = 2**31 - 1


@dataclass(frozen=True)
class Term:
    coefficient: object
    monomial: Monomial


def _freeze(arr):
    arr.flags.writeable = False
    return arr


def canonicalize(table, field, order, exps, coeffs):
    """Sort descending, merge equal monomials, drop zeros."""
    exps = np.asarray(exps, dtype=np.int64).reshape(-1, table.nvars)
    coeffs = np.asarray(coeffs, dtype=field.dtype).reshape(-1)
    coeffs = field.canon_array(coeffs)
    mask = field.nonzero_mask(coeffs)
    exps, coeffs = exps[mask], coeffs[mask]
    if len(coeffs) == 0:
        return Polynomial(table, field, order, exps.reshape(0, table.nvars), coeffs)
    idx = order.sort_desc(exps)
    exps, coeffs = exps[idx], coeffs[idx]
    boundary = np.empty(len(coeffs), dtype=bool)
    boundary[0] = True
    boundary[1:] = (exps[1:] != exps[:-1]).any(axis=1)
    if not boundary.all():
        starts = np.flatnonzero(boundary)
        coeffs = field.canon_array(np.add.reduceat(coeffs, starts))
        exps = exps[starts]
        mask = field.nonzero_mask(coeffs)
        exps, coeffs = exps[mask], coeffs[mask]
    return Polynomial(table, field, order, exps, coeffs)


class Polynomial:
    __slots__ = ("table", "field", "order", "exps", "coeffs")

    def __init__(self, table, field, order, exps, coeffs):
        if order.nvars != table.nvars:
            raise DimensionError("order and table sizes differ")
        self.table = table
        self.field = field
        self.order = order
        self.exps = _freeze(np.asarray(exps, dtype=np.int64))
        self.coeffs = _freeze(np.asarray(coeffs, dtype=field.dtype))

    # -- constructors ----------------------------------------------------
    @classmethod
    def zero(cls, table, field, order):
        return cls(table, field, order,
                   np.zeros((0, table.nvars), dtype=np.int64),
                   np.zeros(0, dtype=field.dtype))

    @classmethod
    def constant(cls, table, field, order, value):
        return canonicalize(table, field, order,
                            np.zeros((1, table.nvars), dtype=np.int64),
                            field.array([value]))

    @classmethod
    def variable(cls, table, field, order, slot):
        e = np.zeros((1, table.nvars), dtype=np.int64)
        e[0, slot] = 1
        return cls(table, field, order, e, field.array([field.one]))

    @classmethod
    def from_terms(cls, table, field, order, terms):
        """Build from (coefficient, exponent-vector) pairs, canonicalizing."""
        if not terms:
            return cls.zero(table, field, order)
        exps = np.array([np.asarray(e.exps if isinstance(e, Monomial) else e)
                         for _, e in terms], dtype=np.int64)
        coeffs = field.array([c for c, _ in terms])
        return canonicalize(table, field, order, exps, coeffs)

    # -- basic queries -----------------------------------------------------
    @property
    def num_terms(self):
        return len(self.coeffs)

    def is_zero(self):
        return len(self.coeffs) == 0

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        if self.is_zero():
            return -1
        return int(self.exps.sum(axis=1).max())

    def is_homogeneous(self):
        if self.is_zero():
            return True
        degs = self.exps.sum(axis=1)
        return bool((degs == degs[0]).all())

    def terms(self):
        return [Term(c, Monomial(e)) for c, e in zip(self.coeffs.tolist(), self.exps)]

    def leading_term(self):
        if self.is_zero():
            raise UndefinedLeadError("zero polynomial has no leading term")
        return Term(self.coeffs[0], Monomial(self.exps[0]))

    def leading_monomial(self):
        if self.is_zero():
            raise UndefinedLeadError("zero polynomial has no leading term")
        return Monomial(self.exps[0])

    def leading_coefficient(self):
        if self.is_zero():
            raise UndefinedLeadError("zero polynomial has no leading term")
        return self.coeffs[0]

    # -- compatibility checks ----------------------------------------------
    def _check_compatible(self, other):
        if self.table.nvars != other.table.nvars:
            raise DimensionError("polynomials over different-size variable tables")
        if self.field != other.field:
            raise ValueError("polynomials over different coefficient fields")
        if self.order != other.order:
            raise OrderMismatchError(
                "order tags differ; call resort() to move a polynomial to a new order"
            )

    # -- arithmetic ----------------------------------------------------------
    def __add__(self, other):
        self._check_compatible(other)
        return canonicalize(self.table, self.field, self.order,
                            np.concatenate([self.exps, other.exps]),
                            np.concatenate([self.coeffs, other.coeffs]))

    def __sub__(self, other):
        self._check_compatible(other)
        return canonicalize(self.table, self.field, self.order,
                            np.concatenate([self.exps, other.exps]),
                            np.concatenate([self.coeffs, self.field.neg_array(other.coeffs)]))

    def __neg__(self):
        return Polynomial(self.table, self.field, self.order,
                          self.exps, self.field.neg_array(self.coeffs))

    def scale(self, c):
        c = self.field.coerce(c)
        scaled = self.field.scale_array(c, self.coeffs)
        return canonicalize(self.table, self.field, self.order, self.exps, scaled)

    def mul_term(self, coeff, monomial):
        """Multiply by a single term; preserves strict descending sort."""
        coeff = self.field.coerce(coeff)
        exps = self.exps + np.asarray(monomial.exps, dtype=np.int64)
        coeffs = self.field.canon_array(self.field.scale_array(coeff, self.coeffs))
        mask = self.field.nonzero_mask(coeffs)
        if mask.all():
            return Polynomial(self.table, self.field, self.order, exps, coeffs)
        return Polynomial(self.table, self.field, self.order, exps[mask], coeffs[mask])

    def __mul__(self, other):
        self._check_compatible(other)
        if self.is_zero() or other.is_zero():
            return Polynomial.zero(self.table, self.field, self.order)
        m1, m2 = self.num_terms, other.num_terms
        exps = (self.exps[:, None, :] + other.exps[None, :, :]).reshape(m1 * m2, -1)
        coeffs = np.multiply.outer(self.coeffs, other.coeffs).reshape(m1 * m2)
        return canonicalize(self.table, self.field, self.order, exps, coeffs)

    def monic(self):
        if self.is_zero():
            return self
        lc = self.coeffs[0]
        if lc == self.field.one:
            return self
        return self.scale(self.field.inv(lc))

    def resort(self, order):
        """Same polynomial re-sorted under a different order tag."""
        if order == self.order:
            return self
        return canonicalize(self.table, self.field, order, self.exps, self.coeffs)

    def lift_to(self, table, order):
        """Same polynomial over a larger table whose leading slots coincide."""
        extra = table.nvars - self.table.nvars
        if extra < 0:
            raise DimensionError("target table is smaller than the current one")
        exps = np.hstack([self.exps, np.zeros((self.num_terms, extra), dtype=np.int64)])
        return canonicalize(table, self.field, order, exps, self.coeffs)

    # -- comparison -----------------------------------------------------------
    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.field == other.field
            and self.order == other.order
            and self.exps.shape == other.exps.shape
            and np.array_equal(self.exps, other.exps)
            and all(a == b for a, b in zip(self.coeffs.tolist(), other.coeffs.tolist()))
        )

    def __hash__(self):
        return hash((self.exps.tobytes(), tuple(self.coeffs.tolist())))

    def __repr__(self):
        return f"Polynomial({format_poly(self)!r})"


# -- text format ----------------------------------------------------------------


def format_poly(p):
    """Canonical text rendering in the input grammar; parse(format(p)) == p."""
    if p.is_zero():
        return "0"
    field = p.field
    pieces = []
    for k in range(p.num_terms):
        coeff = p.coeffs[k]
        mono = Monomial(p.exps[k])
        sign = ""
        if field.is_exact_rational and coeff < 0:
            sign = "-"
            coeff = -coeff
        mono_text = format_monomial(mono, p.table)
        if mono_text == "1":
            body = field.format(coeff)
        elif coeff == field.one:
            body = mono_text
        else:
            body = f"{field.format(coeff)}*{mono_text}"
        if k == 0:
            pieces.append(f"-{body}" if sign == "-" else body)
        else:
            pieces.append(f" {'-' if sign == '-' else '+'} {body}")
    return "".join(pieces)


class _Scanner:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch):
        if self.peek() != ch:
            raise ParseError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def integer(self):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected an integer", start)
        return int(self.text[start:self.pos])


def _parse_factor(sc, table):
    """Returns (slot, power) for one grammar factor."""
    kind = sc.peek()
    if kind not in ("x", "y"):
        raise ParseError("expected variable 'x' or 'y'", sc.pos)
    sc.pos += 1
    sc.expect("[")
    i = sc.integer()
    sc.expect(",")
    j = sc.integer()
    sc.expect("]")
    n = table.n
    if n is None or not (1 <= i <= n and 1 <= j <= n):
        raise ParseError(f"index {kind}[{i},{j}] outside 1..{n}", sc.pos)
    power = 1
    if sc.peek() == "^":
        sc.pos += 1
        sc.skip_ws()
        start = sc.pos
        power = sc.integer()
        if power > MAX_EXPONENT:
            raise ParseError(f"exponent {power} exceeds {MAX_EXPONENT}", start)
    return table.slot(kind, i, j), power


def _parse_term(sc, table, field):
    """Returns (coefficient, exponent vector)."""
    exps = np.zeros(table.nvars, dtype=np.int64)
    coeff = field.one
    have_factor = False
    if sc.peek().isdigit():
        num = sc.integer()
        if sc.peek() == "/":
            sc.pos += 1
            den = sc.integer()
            if den == 0:
                raise ParseError("zero denominator", sc.pos)
            coeff = field.div(field.coerce(num), field.coerce(den))
        else:
            coeff = field.coerce(num)
        if sc.peek() == "*":
            sc.pos += 1
        else:
            return coeff, exps  # bare constant term
    while True:
        slot, power = _parse_factor(sc, table)
        exps[slot] += power
        have_factor = True
        if sc.peek() == "*":
            sc.pos += 1
            continue
        break
    if not have_factor:
        raise ParseError("empty term", sc.pos)
    return coeff, exps


def parse_poly(text, table, field, order):
    """Parse the additive grammar; raises ParseError with a position on bad input."""
    sc = _Scanner(text)
    terms = []
    sign = 1
    ch = sc.peek()
    if ch == "":
        raise ParseError("empty input", 0)
    if ch in "+-":
        sign = -1 if ch == "-" else 1
        sc.pos += 1
    while True:
        coeff, exps = _parse_term(sc, table, field)
        if sign < 0:
            coeff = field.neg(coeff)
        terms.append((coeff, exps))
        ch = sc.peek()
        if ch == "":
            break
        if ch not in "+-":
            raise ParseError(f"unexpected character {ch!r}", sc.pos)
        sign = -1 if ch == "-" else 1
        sc.pos += 1
    return Polynomial.from_terms(table, field, order, terms)
