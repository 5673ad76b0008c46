"""Polynomials as canonically sorted term arrays.

A polynomial stores a (m, nvars) int64 exponent block and a parallel
coefficient array, rows strictly descending under the carried order tag,
no zero coefficients, no repeated monomials.  The zero polynomial has no
rows.  All instances are immutable; every operation returns a fresh value.

Text in README's grammar is read by :func:`parse_poly` from one token list,
a token being a run of ASCII digits or one other non-space character; the
reader follows the grammar's four lines token by token.  A ParseError
names where the offending token starts (the end of the text when the text
ran out); an index outside 1..n and a zero denominator name the place just
past the token that closes them.
"""

import re
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, OrderMismatchError, ParseError, UndefinedLeadError
from .ring import Monomial, _format_support, _support

# the largest exponent the parser accepts; sums of a few stay far inside int64
MAX_EXPONENT = 2**31 - 1
# the longest integer literal the parser reads: Python's default limit on
# int-from-string conversion, made independent of the interpreter's setting
MAX_DIGITS = 4300


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
    return _format_terms(p.field, zip(p.coeffs.tolist(), map(_support, p.exps)), p.table)


def _format_terms(field, terms, table):
    """Render (coefficient, support) terms, in the order given, as a sum in
    the input grammar; '0' when there are none."""
    rational, one, fmt = field.is_exact_rational, field.one, field.format
    pieces = []
    for coeff, support in terms:
        negative = rational and coeff < 0
        if negative:
            coeff = -coeff
        mono_text = _format_support(support, table)
        if mono_text == "1":
            body = fmt(coeff)
        elif coeff == one:
            body = mono_text
        else:
            body = f"{fmt(coeff)}*{mono_text}"
        if pieces:
            pieces.append(f" - {body}" if negative else f" + {body}")
        else:
            pieces.append(f"-{body}" if negative else body)
    return "".join(pieces) or "0"


# one token: a run of ASCII digits or one other non-space character; the
# search steps over the whitespace between tokens
_TOKEN = re.compile(r"[0-9]+|\S")


def _integer(tok, pos):
    """The value of an integer token at ``pos``."""
    if not (tok.isdigit() and tok.isascii()):
        raise ParseError("expected an integer", pos)
    if len(tok) > MAX_DIGITS:
        raise ParseError(f"integer of {len(tok)} digits exceeds {MAX_DIGITS} digits", pos)
    return int(tok)


def _expect(token, want):
    if token[0] != want:
        raise ParseError(f"expected {want!r}", token[1])


def parse_poly(text, table, field, order):
    """Parse the additive grammar; raises ParseError with a position on bad input.

    Walks README's four grammar lines over the token list, collecting a
    coefficient per term and a (term, slot, power) triple per factor; the
    exponent block is built once from the triples."""
    tokens = [(m.group(), m.start()) for m in _TOKEN.finditer(text)]
    if not tokens:
        raise ParseError("empty input", 0)
    tokens.append(("", len(text)))  # the end of the text, as a token no rule takes
    n = table.n
    coeffs, term_ids, slots, powers = [], [], [], []
    sign = tokens[0][0]
    k = 1 if sign in ("+", "-") else 0
    while True:
        tok, pos = tokens[k]
        coeff = field.one
        has_factors = True
        if tok[:1].isdigit():
            coeff = field.coerce(_integer(tok, pos))
            k += 1
            if tokens[k][0] == "/":
                tok, pos = tokens[k + 1]
                den = _integer(tok, pos)
                if den == 0:
                    raise ParseError("zero denominator", pos + len(tok))
                coeff = field.div(coeff, field.coerce(den))
                k += 2
            has_factors = tokens[k][0] == "*"
            k += has_factors
        while has_factors:
            kind, pos = tokens[k]
            if kind not in ("x", "y"):
                raise ParseError("expected variable 'x' or 'y'", pos)
            _expect(tokens[k + 1], "[")
            i = _integer(*tokens[k + 2])
            _expect(tokens[k + 3], ",")
            j = _integer(*tokens[k + 4])
            _expect(tokens[k + 5], "]")
            if n is None or not (1 <= i <= n and 1 <= j <= n):
                raise ParseError(f"index {kind}[{i},{j}] outside 1..{n}", tokens[k + 5][1] + 1)
            k += 6
            power = 1
            if tokens[k][0] == "^":
                tok, pos = tokens[k + 1]
                power = _integer(tok, pos)
                if power > MAX_EXPONENT:
                    raise ParseError(f"exponent {power} exceeds {MAX_EXPONENT}", pos)
                k += 2
            term_ids.append(len(coeffs))
            slots.append(table.slot(kind, i, j))
            powers.append(power)
            has_factors = tokens[k][0] == "*"
            k += has_factors
        coeffs.append(field.neg(coeff) if sign == "-" else coeff)
        sign, pos = tokens[k]
        if not sign:
            break
        if sign not in ("+", "-"):
            raise ParseError(f"unexpected character {sign[0]!r}", pos)
        k += 1
    exps = np.zeros((len(coeffs), table.nvars), dtype=np.int64)
    np.add.at(exps, (term_ids, slots), powers)
    return canonicalize(table, field, order, exps, field.array(coeffs))
