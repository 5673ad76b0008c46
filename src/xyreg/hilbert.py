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
N(I) = prod (1 - t^deg m).  Before any pivot, the generators that are
variables split off: when J' uses no variable of S,
N(<x_S> + J') = (1 - t)^|S| * N(J') (D. Bayer and M. Stillman,
*Computation of Hilbert functions*, J. Symbolic Comput. 14, 1992), read
off binomially, so a colon ideal of variables alone costs no pivot.  The
recursion memoizes on the minimal generator set.  A numerator is sparse
throughout: a {degree: coefficient} dict inside the recursion, and the
ascending (degree, coefficient) pairs :func:`hilbert_numerator` returns,
so a generator of degree 2**31 costs one term, not 2**31.

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

At each degree boundary d that neither stop ends, the oracle sends the pair
loop a quota, q = HF(R/L)(d+1) - CI(d+1) (HF the Hilbert function, CI the
complete intersection's): at most q new leads are still to come in degree
d + 1, and once the elements appended there have used them up, the loop
skips the degree's remaining pairs unreduced (Traverso, *Hilbert functions
and the Buchberger algorithm*, J. Symbolic Comput. 22, 1996).  It is sound:
L lies in in(I), so HF(R/L) >= HF(R/I); the first nonzero coefficient of
HS(R/I) - CI is positive (along the colon sequence D_i = (1 - t^d_i)
D_{i-1} + t^d_i HS((J:f_i)/J)), and every degree <= d agrees, so
HF(R/I)(d+1) >= CI(d+1); and a new element of degree d + 1, reduced by
every lead, adds one monomial of degree d + 1 to L and lowers HF(R/L)(d+1)
by exactly 1.  At q = 0, HF(R/L)(d+1) = HF(R/I)(d+1): L holds in(I) in
degree d + 1, so every pair left there reduces to zero.  A negative q
contradicts these bounds and raises CrossCheckError.  The lead ideal at
every boundary is the one without the skip, so every report is too.

Inside the recursion every monomial is one Python int: variable i owns the
bit field of w = 8, 16, 32, 64, ... bits starting at bit i*w, whose top
bit is a guard bit kept clear, and w grows with the largest exponent
(w = 32 at the parser's limit 2**31 - 1).  With G the mask of all guard
bits and LOW the mask of each field's lowest bit, g divides m iff
((m | G) - g) & G == G (no field borrows from its neighbour, and a field's
guard bit survives iff m_i >= g_i); the colon m : p keeps the fields of
(m | G) - p whose guard bit survived; and ((m | G) - LOW) & G marks the
support of m.  A variable is one set bit at a field's lowest bit,
m & (m - 1) == 0 and m & LOW != 0 (x_v^2 is one set bit too, one place
up); for the sum lin of some variables, (lin << w) - lin masks their whole
fields.  The field values of an int (and so its degree, or per-variable
counts of a sum of supports) are its bytes read as an array of w-bit
words (shifted out one by one past w = 64).  A divisor is never larger
than its multiple as an int, so sorting ascending puts divisors first and
minimalizing is one sorted pass, over the generators that meet no
variable's field among them: a variable is minimal and makes every other
generator that uses it redundant.

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
    """Series numerator over (1-t)^nvars, as the ascending tuple of its
    (degree, coefficient) pairs with nonzero coefficients (the zero
    quotient's is empty)."""

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


def _times_one_minus_t(numerator, c):
    """The sparse polynomial numerator * (1 - t)^c, expanded binomially."""
    out = {}
    for k in range(c + 1):
        b = -comb(c, k) if k & 1 else comb(c, k)
        for d, v in numerator.items():
            out[d + k] = out.get(d + k, 0) + b * v
    return {d: v for d, v in out.items() if v}


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


def _variables(gens, pk):
    """The generators among ``gens`` that are one variable to the first
    power, and the mask of those variables' whole fields.  Such a generator
    is one set bit at a field's lowest bit (x_v^2 is one bit too, but not
    at the lowest)."""
    low = pk.low
    variables = [m for m in gens if not m & (m - 1) and m & low]
    lin = sum(variables)
    return variables, (lin << (pk.top + 1)) - lin


def _minimalize(gens, pk):
    """The ascending minimal generators of <gens> under the packing ``pk``.
    A variable is always minimal, and every other generator that uses it is
    not, so only the generators free of the variables among ``gens`` go
    through the pairwise divisibility pass."""
    gens = set(gens)
    if 0 in gens:
        return (0,)  # the unit ideal
    variables, used = _variables(gens, pk)
    out = []
    guard = pk.guard
    for m in sorted(m for m in gens if not m & used):
        mg = m | guard
        if not any((mg - g) & guard == guard for g in out):
            out.append(m)
    # sorted, so that one ideal is one memo key: a variable in a high field
    # is a larger int than a product of low-field variables
    return tuple(sorted(variables + out)) if variables else tuple(out)


def _numerator(gens, memo, pk):
    """N(<gens>) as a sparse {degree: coefficient} dict; ``gens`` is the
    ascending tuple of the minimal generators.  The result is shared through
    ``memo`` and must not be changed."""
    res = memo.get(gens)
    if res is not None:
        return res
    variables, used = _variables(gens, pk)
    if not gens:
        res = {0: 1}
    elif gens[0] == 0:
        res = {}  # 1 lies in the ideal: the quotient is zero
    elif variables:
        # N(<x_S> + J') = (1 - t)^|S| * N(J'): the minimal J' uses no x_S
        rest = tuple(m for m in gens if not m & used)
        res = _times_one_minus_t(_numerator(rest, memo, pk), len(variables))
    else:
        counts = pk.counts(gens)
        most = max(counts)
        if most == 1:  # pairwise coprime
            res = _complete_intersection(map(pk.degree, gens))
        else:
            shift, bits = pk.shifts[counts.index(most)], pk.value_bits
            powers = [(m >> shift) & bits for m in gens]
            e = min(a for a in powers if a)
            free = tuple(m for m, a in zip(gens, powers) if not a)
            colon = _minimalize([m - (min(a, e) << shift) for m, a in zip(gens, powers)], pk)
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
    gens = _minimalize([pk.pack(g) for g in gens], pk)
    return HilbertData(tuple(sorted(_numerator(gens, {}, pk).items())), nvars)


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
        colon = _minimalize([pk.colon(g, m) for g in self.gens], pk)
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
    whose codimension Krull's height theorem bounds by k.  Else the pair
    loop is sent the quota of degree d + 1 (see the module docstring).  A
    run that ends first has no difference exactly when its whole lead ideal
    has codimension k; that agreement is checked.
    """
    nvars, k = order.nvars, len(degrees)
    expected = _complete_intersection(degrees)
    series = _LeadSeries(nvars)
    absorbed = 0
    walk = _buchberger_walk(polys, order, **budget)
    quota = None
    while True:
        done, leads = walk.send(quota)
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
        # every degree <= done agrees, so the new leads degree done + 1 can
        # still gain are at most HF(R/L) - HF(R/I) <= HF(R/L) - CI there
        quota = _hilbert_function(computed, nvars, done + 1) - \
            _hilbert_function(expected, nvars, done + 1)
        if quota < 0:
            raise CrossCheckError(f"degree {done + 1} has more leads than the "
                                  "complete-intersection series allows")


def hilbert_series_quotient(gens, order=None, **budget):
    """Hilbert series of R/<gens> for homogeneous generators."""
    gens = [g for g in gens]
    for g in gens:
        if not g.is_homogeneous():
            raise HomogeneityError("Hilbert series requires homogeneous generators")
    live = [g for g in gens if not g.is_zero()]
    nvars = gens[0].table.nvars if gens else 0
    if not live:
        return HilbertData(((0, 1),), nvars)
    gb = buchberger(live, order, **budget)
    return hilbert_numerator(lead_ideal(gb), nvars)
