"""Hilbert series of monomial quotients via the generator-pivot recursion.

The numerator h(t) of the series h(t)/(1-t)^N of R/<m_1..m_k> satisfies

    h(<m_1..m_k>) = h(<m_2..m_k>) - t^deg(m_1) * h(<m_2..m_k> : m_1)

with h(<>) = 1.  The recursion minimalizes at every node, splits
support-disjoint generator groups into factors, and memoizes on the
generator set, which keeps the desk-scale inputs here well in hand.

Inside the recursion every monomial is one Python int: variable i owns the
byte-aligned bit field starting at bit i*w, whose top bit is a guard bit
kept clear, and w grows with the largest exponent (w = 32 at the parser's
limit 2**31 - 1).  With G the mask of all guard bits and LOW the mask of
each field's lowest bit, g divides m iff ((m | G) - g) & G == G (no field
borrows from its neighbour, and a field's guard bit survives iff m_i >= g_i);
the colon m : p keeps the fields of (m | G) - p whose guard bit survived;
and ((m | G) - LOW) & G marks the support of m.  A divisor is never larger
than its multiple as an int, so sorting ascending puts divisors first and
minimalizing is one sorted pass.

A graded quotient and its lead-term quotient share a Hilbert series, so
composing buchberger -> lead_ideal -> numerator yields the series of an
arbitrary homogeneous quotient.
"""

from dataclasses import dataclass
from math import comb

from .errors import HomogeneityError
from .groebner import buchberger, lead_ideal


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def poly_sub(a, b):
    out = [0] * max(len(a), len(b))
    for i, ai in enumerate(a):
        out[i] += ai
    for i, bi in enumerate(b):
        out[i] -= bi
    while out and out[-1] == 0:
        out.pop()
    return out


def _trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


@dataclass(frozen=True)
class HilbertData:
    """Series numerator over (1-t)^nvars, as a coefficient tuple by degree."""

    numerator: tuple
    nvars: int

    def series_coefficients(self, upto):
        """Dimensions of the graded pieces in degrees 0..upto."""
        out = []
        n = self.nvars
        for d in range(upto + 1):
            s = 0
            for j, hj in enumerate(self.numerator):
                if j > d:
                    break
                s += hj * comb(n - 1 + d - j, n - 1)
            out.append(s)
        return out

    def __eq__(self, other):
        return (isinstance(other, HilbertData)
                and self.nvars == other.nvars
                and _trim(self.numerator) == _trim(other.numerator))

    def __hash__(self):
        return hash((tuple(_trim(self.numerator)), self.nvars))


class _Packing:
    """Exponent vectors as ints with one guarded bit field per variable."""

    __slots__ = ("shifts", "top", "low", "guard", "value_bits")

    def __init__(self, nvars, max_exp):
        width = 8 * ((max_exp.bit_length() + 8) // 8)  # room for the guard bit
        self.shifts = range(0, nvars * width, width)
        self.top = width - 1  # the guard bit's place in its field
        self.low = sum(1 << s for s in self.shifts)
        self.guard = self.low << self.top
        self.value_bits = (1 << self.top) - 1

    def pack(self, exps):
        return sum(e << s for e, s in zip(exps, self.shifts))

    def degree(self, m):
        return sum((m >> s) & self.value_bits for s in self.shifts)


def _minimalize(gens, guard):
    out = []
    for m in sorted(set(gens)):
        mg = m | guard
        if not any((mg - g) & guard == guard for g in out):
            out.append(m)
    return tuple(out)


def _components(gens, pk):
    """Group generators into support-disjoint classes."""
    groups = []
    for m in gens:
        sup = ((m | pk.guard) - pk.low) & pk.guard
        merged = [m]
        rest = []
        for gsup, members in groups:
            if gsup & sup:
                sup |= gsup
                merged += members
            else:
                rest.append((gsup, members))
        groups = rest + [(sup, merged)]
    return [tuple(members) for _, members in groups]


def _numerator(gens, memo, pk):
    gens = _minimalize(gens, pk.guard)
    if gens in memo:
        return memo[gens]
    if not gens:
        res = [1]
    elif gens[0] == 0:
        res = []  # 1 lies in the ideal: the quotient is zero
    elif len(gens) == 1:
        d = pk.degree(gens[0])
        res = [1] + [0] * (d - 1) + [-1]
    else:
        comps = _components(gens, pk)
        if len(comps) > 1:
            res = [1]
            for comp in comps:
                res = poly_mul(res, _numerator(comp, memo, pk))
        else:
            pivot, rest = gens[0], gens[1:]
            guard, top = pk.guard, pk.top
            colon = []
            for m in rest:
                diff = (m | guard) - pivot
                kept = diff & guard  # the guard bits of the fields with m_i >= p_i
                colon.append(diff & (kept - (kept >> top)))
            shifted = [0] * pk.degree(pivot) + _numerator(colon, memo, pk)
            res = poly_sub(_numerator(rest, memo, pk), shifted)
    res = _trim(res)
    memo[gens] = res
    return res


def hilbert_numerator(monomials, nvars):
    """Numerator of the Hilbert series of R/<monomials> over (1-t)^nvars.

    Redundant generators are tolerated; the result does not depend on the
    generator order.
    """
    gens = [m.as_tuple() if hasattr(m, "as_tuple") else tuple(m) for m in monomials]
    if any(e < 0 for g in gens for e in g):
        raise ValueError("exponents must be non-negative")
    pk = _Packing(max((len(g) for g in gens), default=0),
                  max((e for g in gens for e in g), default=0))
    memo = {}
    return HilbertData(tuple(_numerator([pk.pack(g) for g in gens], memo, pk)), nvars)


def complete_intersection_numerator(degrees):
    """prod (1 - t^d) as a coefficient list."""
    out = [1]
    for d in degrees:
        out = poly_mul(out, [1] + [0] * (d - 1) + [-1])
    return tuple(_trim(out))


def hilbert_series_quotient(gens, order=None, **budget):
    """Hilbert series of R/<gens> for homogeneous generators."""
    gens = [g for g in gens]
    for g in gens:
        if not g.is_homogeneous():
            raise HomogeneityError("Hilbert series requires homogeneous generators")
    live = [g for g in gens if not g.is_zero()]
    nvars = gens[0].table.nvars if gens else 0
    if not live:
        return HilbertData((1,), nvars)
    gb = buchberger(live, order, **budget)
    return hilbert_numerator(lead_ideal(gb), nvars)
