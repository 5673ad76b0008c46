"""Normal-form reduction kernel on narrow guarded keys, and its divisor state.

The inner loop of every Groebner computation is the repeated step "find a
basis lead dividing the current head term, subtract the matching multiple".
The kernel runs it for GF(p) and exact-rational coefficients alike, through
the field's scalar operations.

Kernel contract: inputs are one polynomial with its packed order keys and
one :class:`Divisors` state, all terms strictly descending under those
keys, all divisors monic; output is the fully reduced remainder, none of
whose terms is divisible by any divisor lead, with its packed keys.
Divisor selection is first match in element order: each head term is
tested against the divisor leads one at a time, in element order, and the
first that divides it is taken.

Packed keys: a term is one Python int, its packed key, and the key alone
gives the term's order, its shift, the divisibility test, and the lcm
of two terms and whether they are coprime.
:func:`pack_keys` turns each row of order-key columns
(``MonomialOrder.keys``) into one w-bit field per column, most significant
first, holding the column plus a bias B = 2**(w-2); the top bit of each
field is a guard bit, kept clear.  Integer order is then the lexicographic
order of the key rows, which is the monomial order.  Packing is linear up
to a constant and order keys are linear in the exponents, so a divisor
term t shifted by head/lead has the key ``pk(t) + pk(head) - pk(lead)``:
one int add.  With G the mask of all guard bits, a lead L divides a head H
iff ``((H | G) - L) & G == G`` under a lex-type order (fields B + e), and
iff ``((L | G) - H) & Ge == Ge`` under grevlex (fields B + deg, then
B - e), where Ge leaves out the degree field: a field's guard bit survives
the subtraction iff the exponent of H is at least that of L, and no field
borrows from the next.  The same marks, spread over each field's value
bits, choose each field of the lcm from one key or the other
(:func:`lead_lcm_key`); two terms are coprime iff their lcm is their
product (:func:`coprime_leads`).  Neither the working polynomial nor the divisor
state keeps exponent rows: a remainder leaves the kernel as keys, and only
code that builds a polynomial from keys decodes them (:func:`_rows`).

Widths: a state packs at the narrowest w of 8, 16, 32 and 64 bits whose
fields hold every key column of the state, |column| < B, and every key
that meets the state's keys is packed at its width (:meth:`Divisors.pack`,
which widens the state first when the rows do not fit, and
:func:`lead_lcm_key`, which widens it first when a degree does not).  A
state widens, never narrows: it repacks every key from the key itself,
decoded to its columns at the old width and packed at the new one
(:meth:`Divisors.repack`), and a reduction run again after widening
repacks the key it was given (f's, an lcm's, a shift's) the same way.  Under
grevlex no term of a reduction outranks the term it starts from (an
S-pair's or J-pair's lcm, f's lead), so packing that term fits the whole
reduction.  Under a lex-type order a reduction can raise exponents: a
field that outgrows B sets its guard bit (it cannot carry into the next,
for a shift adds less than 2B to a field), the kernel stops at that head,
doubles the state's width and runs the reduction again.  No key leaves the
kernel with a guard bit set.

A :class:`Divisors` state is the one place the flat divisor layout lives:
the packed keys and coefficients of every element, element after element,
the element starts, each element's lead key and the lead block, one
exponent row per element (decoded from the lead key on ``append``) and the
state's only numpy array, which the pair loops and the lead-ideal code
read.  A term is its key: the state holds no other copy of it.  A state
only grows, through ``append`` (and widens); the code that builds a basis
owns its state and hands it to the basis, so no element is packed twice.
``take`` copies chosen elements into a new state of the same width, their
keys references to the same ints, which is how a basis keeps only some of
the elements it was built from.

The working polynomial is a dict from packed key to coefficient and a
max-heap of the keys (stored negated).  A term whose coefficient cancels
leaves the dict; its heap entry is skipped when popped, and a term that
comes back is pushed again.  A step costs work in the divisor's tail,
never a re-sort of the rest.

The colon oracle's signature step runs the same loop through
:func:`reduce_jpair` on a :class:`SignedDivisors` state: a copy of a basis
of J, then pairs (u, v) whose u-parts are a second :class:`Divisors`, so
the lead key of u, its signature, is that state's lead key.  A pair
reduces a head only below the J-pair's signature bound, its u-part goes
into a second working polynomial through the same :func:`_absorb_element`
as the tail, and the reduction stops at the first irreducible head (a top
reduction).  Without a bound, every row is admissible and the loop is the
one above.
"""

from heapq import heappop, heappush
from itertools import islice

import numpy as np

_WIDTHS = (8, 16, 32, 64)  # the field widths a state packs at, narrowest first


def active_backend():
    """Name of the reduction kernel in use; numpy is the only one."""
    return "numpy"


def pack_keys(keys, width):
    """The packed ints (see the module docstring) of the rows of an (m, k)
    int64 order-key block at field width ``width``, one of ``_WIDTHS``, as a
    list; every column must lie below 2**(width - 2) in magnitude."""
    keys = np.asarray(keys, dtype=np.int64)
    size = width // 8
    raw = (keys + (1 << (width - 2))).astype(f">u{size}").tobytes()
    step = size * keys.shape[1]
    from_bytes = int.from_bytes
    return [from_bytes(raw[at:at + step], "big") for at in range(0, len(raw), step)]


class _Overflow(Exception):
    """A reduction made a term whose key column outgrows the state's width."""


class Divisors:
    """A divisor list under ``order`` in the kernel's flat layout, grown one
    element at a time.

    Element k owns entries starts[k]:starts[k+1] of ``keys`` (packed at
    ``width`` bits a field) and ``coeffs`` (lists); row k of ``leads``, the
    state's one numpy block, and ``lead_keys[k]`` are its lead.  A new
    state packs at the narrowest width.
    """

    def __init__(self, order):
        self.order = order
        self._leads = np.empty((4, order.nvars), dtype=np.int64)
        self.keys = []
        self.coeffs = []
        self.starts = [0]
        self.lead_keys = []
        self._set_width(_WIDTHS[0])

    def __len__(self):
        return len(self.lead_keys)

    @property
    def leads(self):
        return self._leads[:len(self)]

    def _set_width(self, width):
        fields = self.order.nvars + self.order.graded
        low = sum(1 << at for at in range(0, fields * width, width))  # each field's low bit
        self.width = width
        self._guard = low << (width - 1)
        # under grevlex the degree field, the top one, takes no part in
        # the divisibility test
        self._mask = self._guard ^ (1 << (fields * width - 1)) if self.order.graded \
            else self._guard
        self._one = low << (width - 2)  # the key of the monomial 1

    def _widen(self, width):
        """Pack at ``width`` from now on, every key repacked from its
        columns at the old width."""
        if width > _WIDTHS[-1]:
            raise OverflowError(f"an order key column reaches 2**{_WIDTHS[-1] - 2}")
        old = self.width
        self._set_width(width)
        self.keys = self.repack(self.keys, old)
        self.lead_keys = [self.keys[at] for at in self.starts[:-1]]

    def fit(self, exps):
        """Widen, if need be, until the keys of the (m, nvars) exponent rows
        ``exps`` fit."""
        self._fit(int((exps.sum(axis=1) if self.order.graded else exps).max(initial=0)))

    def _fit(self, top):
        """Widen, if need be, until a key column of ``top`` fits."""
        if top >= 1 << (self.width - 2):
            self._widen(next((w for w in _WIDTHS if top < 1 << (w - 2)), 2 * _WIDTHS[-1]))

    def pack(self, exps):
        """The packed keys of the (m, nvars) exponent rows ``exps`` at this
        state's width, widened first to hold them."""
        self.fit(exps)
        return pack_keys(self.order.keys(exps), self.width)

    def repack(self, keys, width):
        """The keys ``keys``, packed at ``width`` (at most this state's),
        packed at this state's width: decoded to their columns, packed
        again."""
        if width == self.width:
            return keys
        return pack_keys(_columns(self, keys, width), self.width)

    def append(self, keys, coeffs):
        """Add one element: its packed keys at this state's width, sorted
        descending, and its coefficients."""
        k = len(self)
        if k == len(self._leads):  # full: double it
            self._leads = np.concatenate([self._leads, np.empty_like(self._leads)])
        self._leads[k] = _rows(self, keys[:1])[0]
        self.keys.extend(keys)
        self.coeffs.extend(np.asarray(coeffs).tolist())
        self.starts.append(len(self.keys))
        self.lead_keys.append(keys[0])

    def element(self, k):
        """Element k as (packed keys, coeffs)."""
        lo, hi = self.starts[k], self.starts[k + 1]
        return self.keys[lo:hi], self.coeffs[lo:hi]

    def take(self, chosen):
        """A new state of the elements ``chosen`` (a sequence of indices) of
        this one, in that order, at this state's width.  The lead rows are
        copied from the lead block, not decoded from the keys again."""
        out = Divisors(self.order)
        out._set_width(self.width)
        chosen = list(chosen)
        if chosen:
            out._leads = self._leads[chosen]
        for k in chosen:
            keys, coeffs = self.element(k)
            out.keys.extend(keys)
            out.coeffs.extend(coeffs)
            out.starts.append(len(out.keys))
            out.lead_keys.append(keys[0])
        return out


class SignedDivisors(Divisors):
    """A copy of the divisor state ``basis`` of J, then the pairs (u, v) of
    one signature step: the v-part of pair k is element k, appended here,
    and its u-part element k - ``first`` of the state ``u``, whose leads are
    the signatures.  The copy is made by ``take``, so appending never
    writes into ``basis``; the two states share one width."""

    def __init__(self, basis):
        self.__dict__ = basis.take(range(len(basis))).__dict__
        self.first = len(basis)
        self.u = basis.take(())

    def _widen(self, width):
        super()._widen(width)
        self.u._widen(width)


def _columns(div, keys, width):
    """The order-key columns of the packed keys ``keys`` of ``div`` at field
    width ``width``, as an int64 block."""
    fields, size = div.order.nvars + div.order.graded, width // 8
    raw = b"".join([key.to_bytes(size * fields, "big") for key in keys])
    cols = np.frombuffer(raw, dtype=f">u{size}").reshape(len(keys), fields)
    return cols.astype(np.int64) - (1 << (width - 2))


def _rows(div, keys):
    """The exponent rows of the terms with packed keys ``keys`` (at the
    width of ``div``), as an int64 block."""
    order = div.order
    cols = _columns(div, keys, div.width)
    exps = np.zeros((len(keys), order.nvars), dtype=np.int64)
    # key column j holds the exponent of slot order._columns[j] (negated
    # under grevlex, behind the degree column)
    exps[:, order._columns] = -cols[:, 1:] if order.graded else cols
    return exps


def _terms(field, div, keys, coeffs):
    """The terms with packed keys ``keys`` and coefficients ``coeffs`` as
    (keys, coeffs); raises _Overflow if a key has a guard bit set."""
    guard = div._guard
    if any(key & guard for key in keys):
        raise _Overflow
    out = np.empty(len(coeffs), dtype=field.dtype)
    out[:] = coeffs
    return keys, out


def _absorb(field, work, keys, values, scale, delta):
    """Add scale * (the terms with packed keys ``keys`` + delta and coeffs
    ``values``) to the working polynomial."""
    coeffs, heap = work
    add, mul, zero, get, push = field.add, field.mul, field.zero, coeffs.get, heappush
    for key, value in zip(keys, values):
        key += delta
        value = mul(scale, value)
        old = get(key)
        if old is None:
            coeffs[key] = value
            push(heap, -key)
            continue
        value = add(old, value)
        if value == zero:
            del coeffs[key]
        else:
            coeffs[key] = value


def _absorb_element(field, work, div, k, scale, shift, skip=0):
    """Add scale * t * (element k of ``div`` past its first ``skip`` rows) to
    the working polynomial, where t is the monomial whose packed key is
    ``shift`` plus that of 1."""
    lo, hi = div.starts[k] + skip, div.starts[k + 1]
    _absorb(field, work, div.keys[lo:hi], div.coeffs[lo:hi], scale, shift)


def _first_divisor(div, key, start=0):
    """The first element of ``div`` from ``start`` on whose lead divides the
    term with packed key ``key``; -1 if none."""
    leads = div.lead_keys if not start else islice(div.lead_keys, start, None)
    guard = div._guard
    if div.order.graded:
        # ((L | G) - H) & Ge == Ge; L has no guard bit set, so L | G = L + G
        mask, probe = div._mask, key - guard
        for k, lead in enumerate(leads, start):
            if (lead - probe) & mask == mask:
                return k
    else:
        probe = key | guard
        for k, lead in enumerate(leads, start):
            if (probe - lead) & guard == guard:
                return k
    return -1


def divides_any(div, key, among):
    """Whether the lead of some element k of ``div`` with bit k of the int
    ``among`` set divides the term with packed key ``key``, by the test of
    :func:`_first_divisor`.  The set bits are read from the top down,
    newest element first: on the Hilbert oracle's n = 6 walk that tests
    68,184 leads against 116,167 oldest first."""
    lead_keys, guard = div.lead_keys, div._guard
    if div.order.graded:
        mask, probe = div._mask, key - guard
        while among:
            k = among.bit_length() - 1
            if (lead_keys[k] - probe) & mask == mask:
                return True
            among ^= 1 << k
    else:
        probe = key | guard
        while among:
            k = among.bit_length() - 1
            if (probe - lead_keys[k]) & guard == guard:
                return True
            among ^= 1 << k
    return False


def _reduce(field, work, div, bound=None, u_work=None):
    """Reduce the working polynomial by ``div`` to its remainder (packed
    keys, coeffs).

    With a signature ``bound`` (see :func:`reduce_jpair`) the reduction is
    a regular top reduction: it stops at the first head no admissible
    divisor divides, which becomes the lead of the result, and returns the
    rest of the working polynomial unreduced.  The pairs of the
    :class:`SignedDivisors` ``div`` are then signature-bounded: a pair
    reduces the head only when its shifted signature lies below the bound,
    and its u-part is carried into ``u_work``.  Raises _Overflow at a head
    whose key has a guard bit set.
    """
    coeffs, heap = work
    lead_keys, guard = div.lead_keys, div._guard
    bounded = len(div) if bound is None else div.first
    neg = field.neg
    r_coeffs, r_keys = [], []
    while heap:
        key = -heappop(heap)
        c = coeffs.pop(key, None)
        if c is None:
            continue  # cancelled, or a second heap entry of a popped key
        if key & guard:
            raise _Overflow
        hit = _first_divisor(div, key)
        if hit >= bounded:
            hit = _first_admissible(div, hit, key, bound)
        if hit < 0:
            r_coeffs.append(c)
            r_keys.append(key)
            if bound is not None:  # top reduction only: the tail stays as it is
                tail = sorted(coeffs, reverse=True)
                r_coeffs.extend(coeffs[k] for k in tail)
                r_keys.extend(tail)
                break
            continue
        scale, shift = neg(c), key - lead_keys[hit]
        if hit >= bounded:
            _absorb_element(field, u_work, div.u, hit - bounded, scale, shift)
        _absorb_element(field, work, div, hit, scale, shift, 1)
    return _terms(field, div, r_keys, r_coeffs)


def _first_admissible(div, hit, key, bound):
    """The first pair from ``hit`` on whose lead divides the term with packed
    key ``key`` at a shifted signature below the bound; -1 if none."""
    first, sig_keys, lead_keys = div.first, div.u.lead_keys, div.lead_keys
    while hit >= 0 and sig_keys[hit - first] + key - lead_keys[hit] >= bound:
        hit = _first_divisor(div, key, hit + 1)
    return hit


def _widening(div, run):
    """``run()``, run again each time a field of its reduction overflows,
    after doubling the width of ``div``."""
    while True:
        try:
            return run()
        except _Overflow:
            div._widen(2 * div.width)


def reduce_terms(field, f_keys, width, f_coeffs, div):
    """Fully reduce f by the :class:`Divisors` ``div``; f's keys are packed
    at ``width``, at most the state's.  Returns the remainder's (packed
    keys, coeffs), f itself when either input is empty."""
    if len(f_coeffs) == 0 or len(div) == 0:
        return div.repack(f_keys, width), f_coeffs
    values = np.asarray(f_coeffs).tolist()

    def run():
        work = ({}, [])
        _absorb(field, work, div.repack(f_keys, width), values, field.one, 0)
        return _reduce(field, work, div)

    return _widening(div, run)


def lead_lcm_key(div, i, j, degree):
    """The packed key of the lcm of the leads of elements i and j of
    ``div``, whose total degree is ``degree``, read from their lead keys.

    ``kept = ((a | G) - b) & G`` keeps the guard bit of each field where a
    is at least b, and ``kept - (kept >> (w - 1))`` spreads each kept
    guard bit over its field's value bits.  Under a lex-type order (fields
    B + e) the lcm takes the larger field; under grevlex (fields B - e) the
    smaller, behind the degree field B + ``degree``.  Under grevlex the
    state widens first when ``degree`` does not fit its fields, as
    :meth:`Divisors.fit` would for the lcm's exponent row."""
    if div.order.graded:
        div._fit(degree)
    a, b, width = div.lead_keys[i], div.lead_keys[j], div.width
    kept = ((a | div._guard) - b) & div._guard
    mask = kept - (kept >> (width - 1))
    if not div.order.graded:
        return b ^ ((a ^ b) & mask)
    top = div.order.nvars * width  # the degree field's lowest bit
    smaller = a ^ ((a ^ b) & mask)
    return (smaller & ((1 << top) - 1)) | (degree + (1 << (width - 2))) << top


def coprime_leads(div, i, j, lcm_key):
    """Whether the leads a and b of elements i and j of ``div`` share no
    variable, given ``lcm_key``, the packed key of their lcm at the state's
    width: iff their lcm is their product, whose key is a + b less the key
    of 1.  No field carries on either side of the test, so it holds field
    by field."""
    return lcm_key + div._one == div.lead_keys[i] + div.lead_keys[j]


def reduce_spair(field, i, j, lcm_key, div):
    """Fully reduce the S-polynomial (lcm/lead_i)*d_i - (lcm/lead_j)*d_j of
    elements i and j of ``div``, built from their tails alone (the leads
    cancel); ``lcm_key`` is the packed key of the leads' lcm at the state's
    width (:func:`lead_lcm_key`).  Returns what :func:`reduce_terms`
    returns."""
    width = div.width

    def run():
        work = ({}, [])
        lcm = div.repack([lcm_key], width)[0]
        for k, scale in ((i, field.one), (j, field.neg(field.one))):
            _absorb_element(field, work, div, k, scale, lcm - div.lead_keys[k], 1)
        return _reduce(field, work, div)

    return _widening(div, run)


def reduce_jpair(field, k, shift_key, div):
    """Regular-reduce the J-pair t*(u_k, v_k) of the pair k of the
    :class:`SignedDivisors` ``div``, where ``shift_key`` is the packed key
    of t minus that of 1.

    Pairs satisfy u*f = v modulo the ideal of the elements before
    ``div.first``.  The head is reduced until no admissible divisor divides
    it; the tail is left as it is.  Elements before ``div.first`` are
    always admissible; a later pair only when its shifted signature lies
    strictly below the J-pair's, so the signature is kept.  Returns the
    top-reduced v and the u-part as two (packed keys, coeffs) pairs sorted
    descending.
    """
    width, one, pair = div.width, div._one, k - div.first

    def run():
        shift = div.repack([shift_key + one], width)[0] - div._one
        u_work = ({}, [])
        _absorb_element(field, u_work, div.u, pair, field.one, shift)
        work = ({}, [])
        _absorb_element(field, work, div, k, field.one, shift)
        v = _reduce(field, work, div, div.u.lead_keys[pair] + shift, u_work)
        coeffs = u_work[0]
        keys = sorted(coeffs, reverse=True)
        return v, _terms(field, div, keys, [coeffs[key] for key in keys])

    return _widening(div, run)
