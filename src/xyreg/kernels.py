"""Normal-form reduction kernel.

The inner loop of every Groebner computation is the repeated step "find a
basis lead dividing the current head term, subtract the matching multiple".
The kernel runs it over numpy term arrays, for GF(p) and exact-rational
coefficients alike.

Kernel contract: inputs are one polynomial and a flattened divisor list with
their order keys, all terms strictly descending under those keys, all
divisors monic; output is the fully reduced remainder, none of whose terms is
divisible by any divisor lead.  Divisor selection is first match in list
order: each head term is tested against the whole block of divisor leads at
once and the first dividing row is taken.
"""

import numpy as np


def active_backend():
    """Name of the reduction kernel in use; numpy is the only one."""
    return "numpy"


def _merge_canonical(field, exps_a, coeffs_a, keys_a, exps_b, coeffs_b, keys_b):
    """Merge two strictly descending term blocks, summing equal monomials."""
    exps = np.concatenate([exps_a, exps_b])
    coeffs = np.concatenate([coeffs_a, coeffs_b])
    keys = np.concatenate([keys_a, keys_b])
    if len(coeffs) == 0:
        return exps, coeffs, keys
    idx = np.lexsort(keys[:, ::-1].T)[::-1]
    exps, coeffs, keys = exps[idx], coeffs[idx], keys[idx]
    boundary = np.empty(len(coeffs), dtype=bool)
    boundary[0] = True
    boundary[1:] = (keys[1:] != keys[:-1]).any(axis=1)
    starts = np.flatnonzero(boundary)
    if len(starts) != len(coeffs):
        coeffs = field.canon_array(np.add.reduceat(coeffs, starts))
        exps, keys = exps[starts], keys[starts]
    mask = field.nonzero_mask(coeffs)
    if not mask.all():
        exps, coeffs, keys = exps[mask], coeffs[mask], keys[mask]
    return exps, coeffs, keys


def nf_numpy(field, f_exps, f_keys, f_coeffs,
             d_exps, d_keys, d_coeffs, d_starts, d_lead_exps):
    """Fully reduce f by the divisor list; see the module docstring contract."""
    w_exps = f_exps
    w_coeffs = f_coeffs
    w_keys = f_keys
    r_exps, r_coeffs = [], []
    while len(w_coeffs) > 0:
        head_exps = w_exps[0]
        divides = (d_lead_exps <= head_exps).all(axis=1)
        hit = int(divides.argmax())  # the first dividing lead, if any
        if not divides[hit]:
            r_exps.append(head_exps)
            r_coeffs.append(w_coeffs[0])
            w_exps, w_coeffs, w_keys = w_exps[1:], w_coeffs[1:], w_keys[1:]
            continue
        lo, hi = d_starts[hit], d_starts[hit + 1]
        c = w_coeffs[0]  # divisor is monic
        shift = head_exps - d_lead_exps[hit]
        key_shift = w_keys[0] - d_keys[lo]
        tail_exps = d_exps[lo + 1:hi] + shift
        tail_keys = d_keys[lo + 1:hi] + key_shift
        tail_coeffs = field.canon_array(
            field.neg_array(field.scale_array(c, d_coeffs[lo + 1:hi]))
        )
        w_exps, w_coeffs, w_keys = _merge_canonical(
            field, w_exps[1:], w_coeffs[1:], w_keys[1:],
            tail_exps, tail_coeffs, tail_keys,
        )
    if not r_coeffs:
        return (np.zeros((0, f_exps.shape[1]), dtype=np.int64),
                np.zeros(0, dtype=field.dtype))
    return np.array(r_exps, dtype=np.int64), np.array(r_coeffs, dtype=field.dtype)


def reduce_terms(field, f_exps, f_keys, f_coeffs,
                 d_exps, d_keys, d_coeffs, d_starts, d_lead_exps):
    """Fully reduce f by the divisor list; a no-op when either is empty."""
    if len(f_coeffs) == 0 or len(d_starts) <= 1:
        return f_exps, f_coeffs
    return nf_numpy(field, f_exps, f_keys, f_coeffs,
                    d_exps, d_keys, d_coeffs, d_starts, d_lead_exps)
