"""Normal-form reduction kernel on packed order keys.

The inner loop of every Groebner computation is the repeated step "find a
basis lead dividing the current head term, subtract the matching multiple".
The kernel runs it for GF(p) and exact-rational coefficients alike, through
the field's scalar operations.

Kernel contract: inputs are one polynomial and a flattened divisor list with
their packed order keys, all terms strictly descending under those keys, all
divisors monic; output is the fully reduced remainder, none of whose terms is
divisible by any divisor lead, with its packed keys.  Divisor selection is
first match in list order: each head term is tested against the whole block
of divisor leads at once and the first dividing row is taken.

Packed keys: :func:`pack_keys` turns each row of int64 order-key columns
(``MonomialOrder.keys``) into one Python int, the columns biased by 2**63
and read as base-2**64 digits, most significant first.  Integer order is
then the lexicographic order of the key rows, which is the monomial order.
Packing is linear up to a constant and order keys are linear in the
exponents, so a divisor term t shifted by head/lead has the key
``pk(t) + pk(head) - pk(lead)``: one int add.  Every field is exactly as
wide as an int64 key column, so a monomial packs exactly whenever its keys
fit int64, shifted terms included; there is no width to choose.

The working polynomial is a dict from packed key to coefficient, a dict from
packed key to exponent row, and a max-heap of the keys (stored negated).  A
term whose coefficient cancels leaves the dicts; its heap entry is skipped
when popped, and a term that comes back is pushed again.  A step costs work
in the divisor's tail, never a re-sort of the rest.

The colon oracle's signature step runs the same loop through
:func:`reduce_jpair`.  The divisor rows past a basis of J are pairs (u, v)
with the packed key of their signature lm(u); such a row reduces a head
only below the J-pair's signature bound, its u-part goes into a second
working polynomial through the same :func:`_absorb`, and the reduction
stops at the first irreducible head (a top reduction).  Without a bound,
every row is admissible and the loop is the one above.
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


def _absorb(field, work, keys, exps, values, scale, delta):
    """Add scale * (the terms with packed keys ``keys`` + delta, exponent rows
    ``exps`` and coefficients ``values``) to the working polynomial."""
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


def _absorb_tail(field, work, divisors, k, scale, key, exps):
    """Add scale * (m/lead_k) * tail_k, where lead_k divides the monomial m
    with packed key ``key`` and exponent row ``exps``."""
    d_exps, d_keys, d_coeffs, d_starts, d_lead_exps = divisors
    lo, hi = d_starts[k], d_starts[k + 1]
    _absorb(field, work, d_keys[lo + 1:hi], d_exps[lo + 1:hi] + (exps - d_lead_exps[k]),
            d_coeffs[lo + 1:hi], scale, key - d_keys[lo])


def _reduce(field, work, nvars, divisors, signed=None):
    """Reduce the working polynomial to its remainder (exps, coeffs, keys).

    With ``signed`` (see :func:`reduce_jpair`) the reduction is a regular
    top reduction: it stops at the first head no admissible divisor
    divides, which becomes the lead of the result, and returns the rest of
    the working polynomial unreduced.  The divisor rows from ``signed[0]``
    on are signature-bounded: such a row reduces the head only when its
    shifted signature lies below the bound, and its u-part is carried into
    ``signed``'s u work polynomial.
    """
    coeffs, rows, heap = work
    d_keys, d_starts, d_lead_exps = divisors[1], divisors[3], divisors[4]
    bounded = len(d_starts) - 1 if signed is None else signed[0]
    neg = field.neg
    r_exps, r_coeffs, r_keys = [], [], []
    while heap:
        key = -heappop(heap)
        c = coeffs.pop(key, None)
        if c is None:
            continue  # cancelled, or a second heap entry of a popped key
        head = rows.pop(key)
        divides = (d_lead_exps <= head).all(axis=1)
        hit = int(divides.argmax())  # the first dividing lead, if any
        if not divides[hit]:
            hit = -1
        elif hit >= bounded:
            hit = _first_admissible(signed, d_keys, d_starts, divides, hit, key)
            if hit >= 0:
                _absorb_u(field, signed, divisors, hit, neg(c), key, head)
        if hit < 0:
            r_exps.append(head)
            r_coeffs.append(c)
            r_keys.append(key)
            if signed is not None:  # top reduction only: the tail stays as it is
                tail = sorted(coeffs, reverse=True)
                r_exps.extend(rows[k] for k in tail)
                r_coeffs.extend(coeffs[k] for k in tail)
                r_keys.extend(tail)
                break
            continue
        _absorb_tail(field, work, divisors, hit, neg(c), key, head)
    if not r_coeffs:
        return (np.zeros((0, nvars), dtype=np.int64), np.zeros(0, dtype=field.dtype), [])
    out = np.empty(len(r_coeffs), dtype=field.dtype)
    out[:] = r_coeffs
    return np.array(r_exps, dtype=np.int64), out, r_keys


def _first_admissible(signed, d_keys, d_starts, divides, hit, key):
    """The first bounded row from ``hit`` on whose lead divides the term with
    packed key ``key`` at a shifted signature below the bound; -1 if none."""
    first, bound, sig_keys = signed[:3]
    for k in (np.flatnonzero(divides[hit:]) + hit).tolist():
        if sig_keys[k - first] + key - d_keys[d_starts[k]] < bound:
            return k
    return -1


def _absorb_u(field, signed, divisors, k, scale, key, exps):
    """Add scale * (m/lead_k) * u_k to the u work polynomial, where lead_k
    divides the monomial m with packed key ``key`` and exponent row ``exps``."""
    first, _, _, u_work, u_exps, u_keys, u_coeffs, u_starts = signed
    d_keys, d_starts, d_lead_exps = divisors[1], divisors[3], divisors[4]
    lo, hi = u_starts[k - first], u_starts[k - first + 1]
    _absorb(field, u_work, u_keys[lo:hi], u_exps[lo:hi] + (exps - d_lead_exps[k]),
            u_coeffs[lo:hi], scale, key - d_keys[d_starts[k]])


def reduce_terms(field, f_exps, f_keys, f_coeffs,
                 d_exps, d_keys, d_coeffs, d_starts, d_lead_exps):
    """Fully reduce f by the divisor list; returns the remainder's (exps,
    coeffs, packed keys), f itself when either input is empty."""
    if len(f_coeffs) == 0 or len(d_starts) <= 1:
        return f_exps, f_coeffs, list(f_keys)
    work = ({}, {}, [])
    _absorb(field, work, f_keys, f_exps, np.asarray(f_coeffs).tolist(), field.one, 0)
    return _reduce(field, work, f_exps.shape[1],
                   (d_exps, d_keys, d_coeffs, d_starts, d_lead_exps))


def reduce_spair(field, i, j, lcm_exps, lcm_key,
                 d_exps, d_keys, d_coeffs, d_starts, d_lead_exps):
    """Fully reduce the S-polynomial (lcm/lead_i)*d_i - (lcm/lead_j)*d_j of
    divisors i and j, built from their tails alone (the leads cancel);
    ``lcm_key`` is the packed key of the leads' lcm.  Returns what
    :func:`reduce_terms` returns."""
    divisors = (d_exps, d_keys, d_coeffs, d_starts, d_lead_exps)
    work = ({}, {}, [])
    for k, scale in ((i, field.one), (j, field.neg(field.one))):
        _absorb_tail(field, work, divisors, k, scale, lcm_key, lcm_exps)
    return _reduce(field, work, d_exps.shape[1], divisors)


def reduce_jpair(field, k, shift_exps, shift_key, signed,
                 d_exps, d_keys, d_coeffs, d_starts, d_lead_exps):
    """Regular-reduce the J-pair t*(u_k, v_k) of the signed divisor k, where t
    has exponent row ``shift_exps`` and packed key ``shift_key``.

    ``signed`` is (first, sig_keys, u_exps, u_keys, u_coeffs, u_starts):
    rows from ``first`` on are pairs (u, v) with u*f = v modulo the ideal of
    the rows before ``first``; row k's u-part owns rows
    u_starts[k-first]:u_starts[k-first+1] and sig_keys[k-first] is the packed
    key of lm(u_k), its signature.  The head is reduced until no admissible
    divisor divides it; the tail is left as it is.  Rows before ``first``
    are always admissible; a later row only when its shifted signature lies
    strictly below the J-pair's, so the signature is kept.  Returns the
    top-reduced v and the u-part as two (exps, coeffs, packed keys) triples
    sorted descending.
    """
    first, sig_keys, u_exps, u_keys, u_coeffs, u_starts = signed
    divisors = (d_exps, d_keys, d_coeffs, d_starts, d_lead_exps)
    j = k - first
    bound = sig_keys[j] + shift_key
    u_work = ({}, {}, [])
    lo, hi = u_starts[j], u_starts[j + 1]
    _absorb(field, u_work, u_keys[lo:hi], u_exps[lo:hi] + shift_exps, u_coeffs[lo:hi],
            field.one, shift_key)
    work = ({}, {}, [])
    lo, hi = d_starts[k], d_starts[k + 1]
    _absorb(field, work, d_keys[lo:hi], d_exps[lo:hi] + shift_exps, d_coeffs[lo:hi],
            field.one, shift_key)
    v = _reduce(field, work, d_exps.shape[1], divisors,
                (first, bound, sig_keys, u_work, u_exps, u_keys, u_coeffs, u_starts))
    coeffs, rows, _ = u_work
    keys = sorted(coeffs, reverse=True)
    exps = np.array([rows[key] for key in keys], dtype=np.int64).reshape(-1, d_exps.shape[1])
    out = np.empty(len(keys), dtype=field.dtype)
    out[:] = [coeffs[key] for key in keys]
    return v, (exps, out, keys)
