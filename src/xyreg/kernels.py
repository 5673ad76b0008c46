"""Normal-form reduction kernel on packed order keys, and its divisor state.

The inner loop of every Groebner computation is the repeated step "find a
basis lead dividing the current head term, subtract the matching multiple".
The kernel runs it for GF(p) and exact-rational coefficients alike, through
the field's scalar operations.

Kernel contract: inputs are one polynomial with its packed order keys and
one :class:`Divisors` state, all terms strictly descending under those
keys, all divisors monic; output is the fully reduced remainder, none of
whose terms is divisible by any divisor lead, with its packed keys.
Divisor selection is first match in element order: each head term is
tested against the whole block of divisor leads at once and the first
dividing row is taken.

Packed keys: :func:`pack_keys` turns each row of int64 order-key columns
(``MonomialOrder.keys``) into one Python int, the columns biased by 2**63
and read as base-2**64 digits, most significant first.  Integer order is
then the lexicographic order of the key rows, which is the monomial order.
Packing is linear up to a constant and order keys are linear in the
exponents, so a divisor term t shifted by head/lead has the key
``pk(t) + pk(head) - pk(lead)``: one int add.  Every field is exactly as
wide as an int64 key column, so a monomial packs exactly whenever its keys
fit int64, shifted terms included; there is no width to choose.

A :class:`Divisors` state is the one place the flat divisor layout lives:
the exponent rows of every element, element after element, their packed
keys and coefficients, the element starts, the lead block and each
element's lead key.  It only grows, through ``append``; the code that
builds a basis owns its state and hands it to the basis, so no element is
packed twice.

The working polynomial is a dict from packed key to coefficient, a dict from
packed key to exponent row, and a max-heap of the keys (stored negated).  A
term whose coefficient cancels leaves the dicts; its heap entry is skipped
when popped, and a term that comes back is pushed again.  A step costs work
in the divisor's tail, never a re-sort of the rest.

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

import numpy as np

_SIGN = np.uint64(1 << 63)


def active_backend():
    """Name of the reduction kernel in use; numpy is the only one."""
    return "numpy"


def pack_keys(keys):
    """The packed ints (see the module docstring) of the rows of an (m, k)
    int64 order-key block, as a list."""
    keys = np.ascontiguousarray(keys, dtype=np.int64)
    width = 8 * keys.shape[1]
    raw = (keys.view(np.uint64) ^ _SIGN).astype(">u8").tobytes()
    from_bytes = int.from_bytes
    return [from_bytes(raw[at:at + width], "big") for at in range(0, len(raw), width)]


class Divisors:
    """A divisor list in the kernel's flat layout, grown one element at a
    time.

    Element k owns rows starts[k]:starts[k+1] of the exponent block and of
    ``keys`` (packed) and ``coeffs`` (a list); row k of ``leads`` and
    ``lead_keys[k]`` are its lead.  The exponent block starts with room for
    ``rows`` rows and doubles when outgrown.
    """

    def __init__(self, nvars, rows=16):
        self._exps = np.empty((rows, nvars), dtype=np.int64)
        self._leads = np.empty((4, nvars), dtype=np.int64)
        self.keys = []
        self.coeffs = []
        self.starts = [0]
        self.lead_keys = []

    def __len__(self):
        return len(self.lead_keys)

    @property
    def leads(self):
        return self._leads[:len(self)]

    def append(self, exps, coeffs, keys):
        """Add one element: its exponent rows, coefficients and packed keys,
        sorted descending."""
        rows, k = self.starts[-1], len(self)
        if rows + len(exps) > len(self._exps):
            self._exps = _grown(self._exps, rows + len(exps))
        if k == len(self._leads):
            self._leads = _grown(self._leads, k + 1)
        self._exps[rows:rows + len(exps)] = exps
        self._leads[k] = exps[0]
        self.keys.extend(keys)
        self.coeffs.extend(np.asarray(coeffs).tolist())
        self.starts.append(rows + len(exps))
        self.lead_keys.append(keys[0])

    def element(self, k):
        """Element k as (exps, coeffs, packed keys)."""
        lo, hi = self.starts[k], self.starts[k + 1]
        return self._exps[lo:hi], self.coeffs[lo:hi], self.keys[lo:hi]


class SignedDivisors(Divisors):
    """A copy of the divisor state ``basis`` of J, then the pairs (u, v) of
    one signature step: the v-part of pair k is element k, appended here,
    and its u-part element k - ``first`` of the state ``u``, whose leads are
    the signatures.  Appending never writes into ``basis``."""

    def __init__(self, basis):
        nvars = basis._exps.shape[1]
        self._exps, self._leads = basis._exps.copy(), basis._leads.copy()
        self.keys, self.coeffs = list(basis.keys), list(basis.coeffs)
        self.starts, self.lead_keys = list(basis.starts), list(basis.lead_keys)
        self.first = len(basis)
        self.u = Divisors(nvars)


def _grown(buf, need):
    out = np.empty((max(need, 2 * len(buf)), buf.shape[1]), dtype=buf.dtype)
    out[:len(buf)] = buf
    return out


def _absorb(field, work, keys, exps, values, scale, delta):
    """Add scale * (the terms with packed keys ``keys`` + delta, exponent rows
    ``exps`` and coeffs ``values``) to the working polynomial."""
    coeffs, rows, heap = work
    add, mul, zero = field.add, field.mul, field.zero
    for key, row, value in zip(keys, exps, values):
        key += delta
        value = mul(scale, value)
        old = coeffs.get(key)
        if old is None:
            coeffs[key] = value
            rows[key] = row
            heappush(heap, -key)
            continue
        value = add(old, value)
        if value == zero:
            del coeffs[key], rows[key]
        else:
            coeffs[key] = value


def _absorb_element(field, work, div, k, scale, shift_exps, shift_key, skip=0):
    """Add scale * t * (element k of ``div`` past its first ``skip`` rows) to
    the working polynomial, where t has exponent row ``shift_exps`` and
    packed key ``shift_key``."""
    lo, hi = div.starts[k] + skip, div.starts[k + 1]
    _absorb(field, work, div.keys[lo:hi], div._exps[lo:hi] + shift_exps, div.coeffs[lo:hi],
            scale, shift_key)


def _reduce(field, work, div, bound=None, u_work=None):
    """Reduce the working polynomial by ``div`` to its remainder (exps,
    coeffs, keys).

    With a signature ``bound`` (see :func:`reduce_jpair`) the reduction is
    a regular top reduction: it stops at the first head no admissible
    divisor divides, which becomes the lead of the result, and returns the
    rest of the working polynomial unreduced.  The pairs of the
    :class:`SignedDivisors` ``div`` are then signature-bounded: a pair
    reduces the head only when its shifted signature lies below the bound,
    and its u-part is carried into ``u_work``.
    """
    coeffs, rows, heap = work
    leads, lead_keys = div.leads, div.lead_keys
    bounded = len(div) if bound is None else div.first
    neg = field.neg
    r_exps, r_coeffs, r_keys = [], [], []
    while heap:
        key = -heappop(heap)
        c = coeffs.pop(key, None)
        if c is None:
            continue  # cancelled, or a second heap entry of a popped key
        head = rows.pop(key)
        divides = (leads <= head).all(axis=1)
        hit = int(divides.argmax())  # the first dividing lead, if any
        if not divides[hit]:
            hit = -1
        elif hit >= bounded:
            hit = _first_admissible(div, divides, hit, key, bound)
        if hit < 0:
            r_exps.append(head)
            r_coeffs.append(c)
            r_keys.append(key)
            if bound is not None:  # top reduction only: the tail stays as it is
                tail = sorted(coeffs, reverse=True)
                r_exps.extend(rows[k] for k in tail)
                r_coeffs.extend(coeffs[k] for k in tail)
                r_keys.extend(tail)
                break
            continue
        scale, shift_exps, shift_key = neg(c), head - leads[hit], key - lead_keys[hit]
        if hit >= bounded:
            _absorb_element(field, u_work, div.u, hit - bounded, scale, shift_exps, shift_key)
        _absorb_element(field, work, div, hit, scale, shift_exps, shift_key, 1)
    if not r_coeffs:
        return (np.zeros((0, leads.shape[1]), dtype=np.int64), np.zeros(0, dtype=field.dtype),
                [])
    out = np.empty(len(r_coeffs), dtype=field.dtype)
    out[:] = r_coeffs
    return np.array(r_exps, dtype=np.int64), out, r_keys


def _first_admissible(div, divides, hit, key, bound):
    """The first pair from ``hit`` on whose lead divides the term with packed
    key ``key`` at a shifted signature below the bound; -1 if none."""
    first, sig_keys, lead_keys = div.first, div.u.lead_keys, div.lead_keys
    for k in (np.flatnonzero(divides[hit:]) + hit).tolist():
        if sig_keys[k - first] + key - lead_keys[k] < bound:
            return k
    return -1


def reduce_terms(field, f_exps, f_keys, f_coeffs, div):
    """Fully reduce f by the :class:`Divisors` ``div``; returns the
    remainder's (exps, coeffs, packed keys), f itself when either input is
    empty."""
    if len(f_coeffs) == 0 or len(div) == 0:
        return f_exps, f_coeffs, list(f_keys)
    work = ({}, {}, [])
    _absorb(field, work, f_keys, f_exps, np.asarray(f_coeffs).tolist(), field.one, 0)
    return _reduce(field, work, div)


def reduce_spair(field, i, j, lcm_exps, lcm_key, div):
    """Fully reduce the S-polynomial (lcm/lead_i)*d_i - (lcm/lead_j)*d_j of
    elements i and j of ``div``, built from their tails alone (the leads
    cancel); ``lcm_key`` is the packed key of the leads' lcm.  Returns what
    :func:`reduce_terms` returns."""
    work = ({}, {}, [])
    for k, scale in ((i, field.one), (j, field.neg(field.one))):
        _absorb_element(field, work, div, k, scale, lcm_exps - div.leads[k],
                        lcm_key - div.lead_keys[k], 1)
    return _reduce(field, work, div)


def reduce_jpair(field, k, shift_exps, shift_key, div):
    """Regular-reduce the J-pair t*(u_k, v_k) of the pair k of the
    :class:`SignedDivisors` ``div``, where t has exponent row ``shift_exps``
    and packed key ``shift_key``.

    Pairs satisfy u*f = v modulo the ideal of the elements before
    ``div.first``.  The head is reduced until no admissible divisor divides
    it; the tail is left as it is.  Elements before ``div.first`` are
    always admissible; a later pair only when its shifted signature lies
    strictly below the J-pair's, so the signature is kept.  Returns the
    top-reduced v and the u-part as two (exps, coeffs, packed keys) triples
    sorted descending.
    """
    u_work = ({}, {}, [])
    _absorb_element(field, u_work, div.u, k - div.first, field.one, shift_exps, shift_key)
    work = ({}, {}, [])
    _absorb_element(field, work, div, k, field.one, shift_exps, shift_key)
    v = _reduce(field, work, div, div.u.lead_keys[k - div.first] + shift_key, u_work)
    coeffs, rows, _ = u_work
    keys = sorted(coeffs, reverse=True)
    exps = np.array([rows[key] for key in keys], dtype=np.int64).reshape(-1, len(shift_exps))
    out = np.empty(len(keys), dtype=field.dtype)
    out[:] = [coeffs[key] for key in keys]
    return v, (exps, out, keys)
