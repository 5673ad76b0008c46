"""Multivariate division, Buchberger's algorithm, reduced bases, normal forms.

Pair selection is deterministic: the ``normal`` strategy picks the pending
pair with the smallest lcm total degree, ties broken by smallest (i, j);
``fifo`` processes pairs in creation order.  Both standard elimination
criteria (coprime leads, chain) are applied, and every basis element is
stored monic, so the reduced basis coming out of :func:`reduce_basis` is
canonical whatever the strategy.
"""

import heapq

import numpy as np

from . import kernels
from .errors import BudgetExceededError, DimensionError, OrderMismatchError, UndefinedLeadError
from .poly import Polynomial


class GroebnerBasis:
    """An order, a monic generator tuple, and whether the set is reduced."""

    __slots__ = ("order", "polys", "reduced", "_flat")

    def __init__(self, order, polys, reduced=False):
        self.order = order
        self.polys = tuple(polys)
        self.reduced = reduced
        self._flat = None

    def __len__(self):
        return len(self.polys)

    def __iter__(self):
        return iter(self.polys)

    @property
    def table(self):
        return self.polys[0].table

    @property
    def field(self):
        return self.polys[0].field

    def contains_unit(self):
        return any(p.leading_monomial().is_one() for p in self.polys)

    def flat_arrays(self):
        """Concatenated (exps, keys, coeffs, starts, lead_exps) for kernel calls."""
        if self._flat is None:
            exps = np.concatenate([p.exps for p in self.polys])
            coeffs = np.concatenate([p.coeffs for p in self.polys])
            starts = np.zeros(len(self.polys) + 1, dtype=np.int64)
            np.cumsum([p.num_terms for p in self.polys], out=starts[1:])
            leads = np.array([p.exps[0] for p in self.polys], dtype=np.int64)
            keys = self.order.keys(exps)
            self._flat = (exps, keys, coeffs, starts, leads)
        return self._flat


def _check_inputs(f, divisors):
    for d in divisors:
        if d.is_zero():
            raise UndefinedLeadError("zero divisor in division")
        if d.table.nvars != f.table.nvars:
            raise DimensionError("divisor over a different-size variable table")
        if d.order != f.order:
            raise OrderMismatchError("divisor carries a different order tag")
        if d.field != f.field:
            raise ValueError("divisor over a different coefficient field")


def multi_divide(f, divisors):
    """Division with quotients: f = sum(q_i * d_i) + r, no term of r divisible
    by any divisor lead.  Divisor selection is first match in list order."""
    _check_inputs(f, divisors)
    field, order, table = f.field, f.order, f.table
    lead_monos = [d.leading_monomial() for d in divisors]
    lead_coeffs = [d.leading_coefficient() for d in divisors]
    quot_terms = [[] for _ in divisors]
    rem_terms = []
    work = f
    while not work.is_zero():
        head = work.leading_term()
        hit = -1
        for i, lm in enumerate(lead_monos):
            if lm.divides(head.monomial):
                hit = i
                break
        if hit < 0:
            rem_terms.append((head.coefficient, head.monomial))
            work = work - Polynomial.from_terms(table, field, order,
                                                [(head.coefficient, head.monomial)])
            continue
        c = field.div(head.coefficient, lead_coeffs[hit])
        shift = head.monomial / lead_monos[hit]
        quot_terms[hit].append((c, shift))
        work = work - divisors[hit].mul_term(c, shift)
    quotients = [Polynomial.from_terms(table, field, order, qt) for qt in quot_terms]
    remainder = Polynomial.from_terms(table, field, order, rem_terms)
    return quotients, remainder


def s_poly(f, g):
    """Cancellation combination of the two monic-normalized leading terms."""
    if f.is_zero() or g.is_zero():
        raise UndefinedLeadError("s-polynomial of a zero polynomial")
    _check_inputs(f, [g])
    fm, gm = f.monic(), g.monic()
    lm_f, lm_g = fm.leading_monomial(), gm.leading_monomial()
    lcm = lm_f.lcm(lm_g)
    one = f.field.one
    return fm.mul_term(one, lcm / lm_f) - gm.mul_term(one, lcm / lm_g)


def normal_form(f, gb):
    """The remainder of f on full reduction by the basis."""
    if not gb.polys:
        return f
    if f.order != gb.order:
        raise OrderMismatchError("polynomial and basis carry different order tags")
    if f.table.nvars != gb.table.nvars:
        raise DimensionError("polynomial over a different-size variable table")
    if f.is_zero():
        return f
    d_exps, d_keys, d_coeffs, d_starts, d_leads = gb.flat_arrays()
    f_keys = gb.order.keys(f.exps)
    r_exps, r_coeffs = kernels.reduce_terms(
        f.field, f.exps, f_keys, f.coeffs,
        d_exps, d_keys, d_coeffs, d_starts, d_leads,
    )
    return Polynomial(f.table, f.field, f.order, r_exps, r_coeffs)


def _prepare_generators(gens, order):
    polys = []
    seen = set()
    for g in gens:
        if order is not None and g.order != order:
            g = g.resort(order)
        if g.is_zero():
            continue
        g = g.monic()
        key = (g.exps.tobytes(), tuple(g.coeffs.tolist()))
        if key not in seen:
            seen.add(key)
            polys.append(g)
    return polys


def buchberger(gens, order=None, *, strategy="normal",
               pair_budget=None, degree_budget=None):
    """Complete the generator list to a Groebner basis.

    Budgets are hard stops: exceeding either raises BudgetExceededError and
    the partial state is discarded, never returned as an answer.
    """
    if strategy not in ("normal", "fifo"):
        raise ValueError(f"unknown pair strategy {strategy!r}")
    gens = list(gens)
    if order is None:
        if not gens:
            raise ValueError("no generators and no order given")
        order = gens[0].order
    basis = _prepare_generators(gens, order)
    if not basis:
        raise ValueError("all generators are zero")

    # the leads as one block, one row per basis element
    leads = np.array([p.exps[0] for p in basis], dtype=np.int64)
    heap = []
    pending = set()
    seq = 0

    def push_pairs(j):
        nonlocal seq
        lcm_degs = np.maximum(leads[:j], leads[j]).sum(axis=1).tolist()
        for i, lcm_deg in enumerate(lcm_degs):
            key = (lcm_deg, i, j) if strategy == "normal" else (seq,)
            heapq.heappush(heap, (key, i, j))
            pending.add((i, j))
            seq += 1

    for j in range(len(basis)):
        push_pairs(j)

    considered = 0
    view = GroebnerBasis(order, basis)
    while heap:
        key, i, j = heapq.heappop(heap)
        pending.discard((i, j))
        considered += 1
        if pair_budget is not None and considered > pair_budget:
            raise BudgetExceededError(
                f"pair budget {pair_budget} exhausted",
                pairs_considered=considered,
            )
        lcm = np.maximum(leads[i], leads[j])
        lcm_deg = int(lcm.sum())
        if degree_budget is not None and lcm_deg > degree_budget:
            raise BudgetExceededError(
                f"degree budget {degree_budget} exceeded by a pair of degree {lcm_deg}",
                pairs_considered=considered, degree_reached=lcm_deg,
            )
        if not np.minimum(leads[i], leads[j]).any():
            continue  # coprime leads
        chained = False
        for k in np.flatnonzero((leads <= lcm).all(axis=1)).tolist():
            if k in (i, j):
                continue
            if (min(i, k), max(i, k)) not in pending and (min(j, k), max(j, k)) not in pending:
                chained = True
                break
        if chained:
            continue
        s = s_poly(basis[i], basis[j])
        r = normal_form(s, view)
        if r.is_zero():
            continue
        basis.append(r.monic())
        leads = np.vstack([leads, r.exps[:1]])
        push_pairs(len(basis) - 1)
        view = GroebnerBasis(order, basis)

    return GroebnerBasis(order, basis, reduced=False)


def reduce_basis(gb):
    """The unique reduced basis of the same ideal; idempotent."""
    order = gb.order
    polys = [p.monic() for p in gb.polys if not p.is_zero()]
    if not polys:
        raise ValueError("empty basis")
    # minimalize: drop any generator whose lead another kept lead divides
    polys.sort(key=lambda p: p.leading_monomial().degree)
    kept = []
    for p in polys:
        lm = p.leading_monomial()
        if any(q.leading_monomial().divides(lm) for q in kept):
            continue
        kept = [q for q in kept if not lm.divides(q.leading_monomial())] + [p]
    # tail-reduce in one ascending pass: a tail term lies below its lead, so
    # only a smaller lead can divide it, and the smaller elements are final
    ascending = order.sort_desc(np.array([p.exps[0] for p in kept]))[::-1]
    final = []
    for k in ascending.tolist():
        final.append(normal_form(kept[k], GroebnerBasis(order, final)))
    final.reverse()
    return GroebnerBasis(order, final, reduced=True)


def groebner_basis(gens, order=None, **kwargs):
    """Convenience composition: buchberger followed by reduce_basis."""
    return reduce_basis(buchberger(gens, order, **kwargs))


def lead_ideal(gb):
    """Minimal generating monomials of the leading-term ideal."""
    leads = [p.leading_monomial() for p in gb.polys]
    leads.sort(key=lambda m: (m.degree, m.as_tuple()))
    minimal = []
    for m in leads:
        if not any(g.divides(m) for g in minimal):
            minimal.append(m)
    return minimal
