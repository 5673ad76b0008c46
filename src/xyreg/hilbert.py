"""Hilbert series of monomial quotients via Bigatti's variable pivot.

The numerator N(I) of the series N(I)/(1-t)^N of R/I, for a monomial ideal
I, satisfies for every variable x_v and e >= 1

    N(I) = N(I + x_v^e) + t^e * N(I : x_v^e)

with N(<>) = 1 (A. M. Bigatti, *Computation of Hilbert-Poincare series*,
JPAA 119, 1997).  The pivot's variable is the one the most minimal
generators use (the lowest index on a tie) and e is its least positive
exponent among them.  Every generator using x_v is then a multiple of
x_v^e, so I + x_v^e is x_v^e beside the generators free of x_v and
N(I + x_v^e) = (1 - t^e) * N(those generators); I : x_v^e lowers the
exponents of x_v.  Once no variable is shared by two generators,
N(I) = prod (1 - t^deg m).  The recursion memoizes on the minimal
generator set.  A numerator is a sparse {degree: coefficient} dict, so a
generator of degree 2**31 costs one entry, not 2**31.

A lead ideal grows one monomial at a time through N(J + m) = N(J) -
t^deg(m) * N(J : m) (:class:`_LeadSeries`, one memo for every colon it
takes).  The Hilbert oracle (:func:`_first_difference`) grows it with the
leads :func:`groebner.buchberger`'s pair loop appends and has two stops.
That loop takes pairs by lcm degree, so for homogeneous input, once every
pair of lcm degree <= d is done the leads so far generate in(I) through
degree d, the series of R/I is exact through d, and the oracle stops at the
first degree where it leaves the complete-intersection series: not regular.
Every lead lies in in(I), so the ideal L of the leads so far gives
dim R/I <= dim R/L, and Krull's height theorem gives dim R/I >= N - k for k
elements; the oracle stops as soon as dim R/L = N - k: regular (R is
Cohen-Macaulay; Bruns-Herzog, *Cohen-Macaulay Rings*, ch. 2).  dim R/L is N
minus the multiplicity of t = 1 as a root of N(L), read off the sparse
numerator with a few exact sums (:func:`_codimension`).

Inside the recursion every monomial is one Python int: variable i owns the
bit field of w = 8, 16, 32, 64, ... bits starting at bit i*w, whose top
bit is a guard bit kept clear, and w grows with the largest exponent
(w = 32 at the parser's limit 2**31 - 1).  With G the mask of all guard bits and LOW
the mask of each field's lowest bit, g divides m iff ((m | G) - g) & G == G
(no field borrows from its neighbour, and a field's guard bit survives iff
m_i >= g_i); the colon m : p keeps the fields of (m | G) - p whose guard
bit survived; and ((m | G) - LOW) & G marks the support of m.  The field
values of an int (and so its degree, or per-variable counts of a sum of
supports) are its bytes read as an array of w-bit words (shifted out one
by one past w = 64).  A divisor is
never larger than its multiple as an int, so sorting ascending puts
divisors first and minimalizing is one sorted pass.

A graded quotient and its lead-term quotient share a Hilbert series, so
composing buchberger -> lead_ideal -> numerator yields the series of an
arbitrary homogeneous quotient.
"""

import sys
from bisect import insort
from dataclasses import dataclass
from math import comb
from typing import NamedTuple

from .errors import CrossCheckError, HomogeneityError
from .groebner import _buchberger_walk, buchberger, lead_ideal


@dataclass(frozen=True)
class HilbertData:
    """Series numerator over (1-t)^nvars, as a coefficient tuple by degree
    with no trailing zero (the zero quotient's is empty)."""

    numerator: tuple
    nvars: int


def _hilbert_function(numerator, nvars, d):
    """The series coefficient in degree d of the sparse ``numerator`` over
    (1-t)^nvars."""
    return sum(c * comb(nvars - 1 + d - j, nvars - 1) for j, c in numerator.items() if j <= d)


def _axpy(a, b, e, scale):
    """The sparse polynomial a + scale * t^e * b."""
    out = dict(a)
    for d, c in b.items():
        d += e
        c = out.get(d, 0) + scale * c
        if c:
            out[d] = c
        else:
            del out[d]
    return out


def _dense(numerator):
    """A sparse numerator as its coefficient tuple, without trailing zeros."""
    return tuple(numerator.get(d, 0) for d in range(max(numerator, default=-1) + 1))


class _Packing:
    """Exponent vectors as ints with one guarded bit field per variable."""

    __slots__ = ("nbytes", "word", "shifts", "top", "low", "guard", "value_bits")

    def __init__(self, nvars, max_exp):
        size = 1  # bytes per field, with room for the guard bit
        while 8 * size <= max_exp.bit_length():
            size *= 2
        width = 8 * size
        self.nbytes = nvars * size
        self.word = {1: "B", 2: "H", 4: "I", 8: "Q"}.get(size)
        self.shifts = range(0, nvars * width, width)
        self.top = width - 1  # the guard bit's place in its field
        self.low = sum(1 << s for s in self.shifts)
        self.guard = self.low << self.top
        self.value_bits = (1 << self.top) - 1

    def pack(self, exps):
        return sum(e << s for e, s in zip(exps, self.shifts))

    def fields(self, m):
        """The field values of m, variable by variable."""
        if self.word is None:
            mask = (1 << (self.top + 1)) - 1
            return [(m >> s) & mask for s in self.shifts]
        return memoryview(m.to_bytes(self.nbytes, sys.byteorder)).cast(self.word)

    def degree(self, m):
        return sum(self.fields(m))

    def counts(self, gens):
        """For each variable, how many of the monomials ``gens`` use it."""
        guard, low, top = self.guard, self.low, self.top
        sups = [(((m | guard) - low) & guard) >> top for m in gens]
        # at most 255 ones per field and sum: no field carries into the next
        out = list(self.fields(sum(sups[:255])))
        for at in range(255, len(sups), 255):
            out = [a + b for a, b in zip(out, self.fields(sum(sups[at:at + 255])))]
        return out

    def colon(self, m, p):
        """The monomial m : p."""
        diff = (m | self.guard) - p
        kept = diff & self.guard  # the guard bits of the fields with m_i >= p_i
        return diff & (kept - (kept >> self.top))


def _minimalize(gens, guard):
    out = []
    for m in sorted(set(gens)):
        mg = m | guard
        if not any((mg - g) & guard == guard for g in out):
            out.append(m)
    return tuple(out)


def _numerator(gens, memo, pk):
    """N(<gens>) as a sparse {degree: coefficient} dict; ``gens`` is the
    ascending tuple of the minimal generators.  The result is shared through
    ``memo`` and must not be changed."""
    res = memo.get(gens)
    if res is not None:
        return res
    if not gens:
        res = {0: 1}
    elif gens[0] == 0:
        res = {}  # 1 lies in the ideal: the quotient is zero
    else:
        counts = pk.counts(gens)
        most = max(counts)
        if most == 1:  # pairwise coprime
            res = {0: 1}
            for m in gens:
                res = _axpy(res, res, pk.degree(m), -1)
        else:
            shift, bits = pk.shifts[counts.index(most)], pk.value_bits
            powers = [(m >> shift) & bits for m in gens]
            e = min(a for a in powers if a)
            free = tuple(m for m, a in zip(gens, powers) if not a)
            colon = _minimalize([m - (min(a, e) << shift) for m, a in zip(gens, powers)],
                                pk.guard)
            res = _numerator(free, memo, pk)
            res = _axpy(_axpy(res, res, e, -1), _numerator(colon, memo, pk), e, 1)
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
    gens = _minimalize([pk.pack(g) for g in gens], pk.guard)
    return HilbertData(_dense(_numerator(gens, {}, pk)), nvars)


class _LeadSeries:
    """The numerator of R/J for a monomial ideal J grown one generator at a
    time: N(J + m) = N(J) - t^deg(m) * N(J : m).

    ``numerator`` is the sparse numerator of the ideal of every exponent
    row added so far.  The packing widens, and the memo starts again, when
    a row's exponent outgrows it.
    """

    def __init__(self, nvars):
        self.pk = _Packing(nvars, 1)
        self.memo = {}
        self.gens = ()  # the ascending minimal generators
        self.numerator = {0: 1}

    def add(self, row):
        """Add the monomial with exponent row ``row`` (ints) to J."""
        top = max(row, default=0)
        if top > self.pk.value_bits:
            old, self.pk = self.pk, _Packing(len(row), top)
            self.gens = tuple(sorted(self.pk.pack(old.fields(g)) for g in self.gens))
            self.memo = {}  # its keys are packed the old way
        pk = self.pk
        m = pk.pack(row)
        colon = _minimalize([pk.colon(g, m) for g in self.gens], pk.guard)
        if colon and colon[0] == 0:
            return  # m lies in J already
        self.numerator = _axpy(self.numerator, _numerator(colon, self.memo, pk),
                               sum(row), -1)
        # m's multiples are no longer minimal
        guard = pk.guard
        kept = [g for g in self.gens if ((g | guard) - m) & guard != guard]
        insort(kept, m)
        self.gens = tuple(kept)


def _complete_intersection(degrees):
    """prod (1 - t^d) as a sparse numerator."""
    out = {0: 1}
    for d in degrees:
        out = _axpy(out, out, d, -1)
    return out


def _codimension(numerator, most):
    """The multiplicity of t = 1 as a root of the sparse ``numerator``, i.e.
    the codimension of its monomial ideal, or ``most + 1`` when it exceeds
    ``most``: the least j with sum_d c_d * d(d-1)...(d-j+1) != 0, the j-th
    derivative at t = 1 up to the factor j!."""
    terms = list(numerator.items())
    for j in range(most + 1):
        if sum(c for _, c in terms):
            return j
        terms = [(d, c * (d - j)) for d, c in terms]
    return most + 1


class _Difference(NamedTuple):
    """Not regular: the first degree where the series differ, and the
    series value of R/I and of the complete intersection there."""

    degree: int
    computed: int
    expected: int


class _Dimension(NamedTuple):
    """Regular: the lead ideal reached codimension k at the boundary
    ``degree`` (or, when the run ended first, at the top degree of its
    ``leads`` minimal generators)."""

    degree: int
    leads: int


def _first_difference(polys, order, degrees, **budget):
    """The Hilbert verdict on R/<polys> against the complete-intersection
    series for ``degrees``: a :class:`_Difference` where the series first
    differ, or a :class:`_Dimension` once they cannot.

    ``polys`` are homogeneous and nonzero, under ``order``.  The leads of
    :func:`groebner.buchberger`'s pair loop feed one :class:`_LeadSeries`.
    At each degree boundary d, two stops are tried in turn: the numerators
    are compared through degree d, and a difference ends the run; then the
    codimension of the lead ideal so far is read from its numerator, and
    codimension k = len(degrees) ends it: the lead ideal lies in in(I),
    whose codimension Krull's height theorem bounds by k.  A run that ends
    first has no difference exactly when its whole lead ideal has
    codimension k; that agreement is checked.
    """
    nvars, k = order.nvars, len(degrees)
    expected = _complete_intersection(degrees)
    series = _LeadSeries(nvars)
    absorbed = 0
    for done, leads in _buchberger_walk(polys, order, **budget):
        for row in leads[absorbed:].tolist():
            series.add(row)
        absorbed = len(leads)
        computed = series.numerator
        differ = [d for d in computed.keys() | expected.keys()
                  if (done is None or d <= done) and computed.get(d, 0) != expected.get(d, 0)]
        if differ:
            d = min(differ)
            return _Difference(d, _hilbert_function(computed, nvars, d),
                               _hilbert_function(expected, nvars, d))
        reached = _codimension(computed, k) == k
        if done is None:
            if not reached:
                raise CrossCheckError("equal series but a lead ideal below codimension k")
            return _Dimension(max(map(series.pk.degree, series.gens)), len(series.gens))
        if reached:
            return _Dimension(done, len(series.gens))


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
