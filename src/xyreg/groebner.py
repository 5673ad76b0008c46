"""Multivariate division, Buchberger's algorithm, reduced bases, normal forms.

Pair selection is deterministic: the ``normal`` strategy picks the pending
pair with the smallest lcm total degree, ties broken by smallest (i, j);
``fifo`` processes pairs in creation order.  Both standard elimination
criteria (coprime leads, chain) are applied, and every basis element is
stored monic, so the reduced basis coming out of :func:`reduce_basis` is
canonical whatever the strategy.

A basis under construction lives in one append-only divisor state (exps,
packed order keys, coefficients, starts and lead block in the kernel's flat
layout): an element's keys are computed once, when it is appended, and an
S-polynomial is never built as a polynomial; the kernel is seeded with the
two shifted tails (:func:`kernels.reduce_spair`).  When an element is
appended, one numpy pass gives the lcm rows, lcm degrees and coprimality
of all its pairs with the earlier elements; a popped pair only looks them
up.  The pair loop is one generator, :func:`_buchberger_walk`:
:func:`buchberger` drains it, and the Hilbert oracle
(:func:`hilbert._first_difference`) reads the lead block at each degree
boundary it yields and may stop early.  The basis that :func:`buchberger`
returns records its :class:`PairStats`, and every basis built here carries
its elements' packed keys, so :func:`reduce_basis` and the steps after it
do not pack them again.  The colon oracle's signature step
(:func:`regseq.nonzerodivisor_colon`) grows the same state past a basis of
J with signed rows (:class:`_SignedDivisors`) and records
:class:`SignatureStats`.
"""

import heapq
from dataclasses import dataclass
from itertools import count

import numpy as np

from . import kernels
from .errors import BudgetExceededError, DimensionError, OrderMismatchError, UndefinedLeadError
from .poly import Polynomial
from .ring import Monomial


@dataclass
class PairStats:
    """What :func:`buchberger` did with its critical pairs: how many it
    considered, pruned as coprime, pruned by the chain criterion, reduced,
    and how many of those reduced to zero."""

    considered: int = 0
    coprime: int = 0
    chain: int = 0
    reduced: int = 0
    zero: int = 0


@dataclass
class SignatureStats:
    """What one signature step (:func:`regseq.nonzerodivisor_colon`) did
    with its J-pairs: how many it formed, dropped because the signature
    lies in in(J) (the syzygy criterion), dropped as covered, reduced, and
    how many reductions (f's own included) gave zero."""

    considered: int = 0
    syzygy: int = 0
    cover: int = 0
    reduced: int = 0
    zero: int = 0


class _Divisors:
    """A divisor list in the kernel's flat layout, grown one monic element
    at a time.

    Holds the rows of every element, element after element (exps, their
    packed keys, their coefficients as a list), ``starts`` (element k owns
    rows starts[k]:starts[k+1]) and the lead block (row k is element k's
    lead).  ``append`` is the only way in, so a basis under construction and
    :meth:`GroebnerBasis.flat_arrays` build their state on one path.
    """

    def __init__(self, order):
        self.order = order
        self._exps = np.empty((16, order.nvars), dtype=np.int64)
        self._leads = np.empty((4, order.nvars), dtype=np.int64)
        self.keys = []
        self.coeffs = []
        self.starts = [0]

    def __len__(self):
        return len(self.starts) - 1

    @property
    def leads(self):
        return self._leads[:len(self)]

    def append(self, exps, coeffs, keys=None):
        """Add one monic element; ``keys`` are its packed keys, computed when
        not given."""
        if keys is None:
            keys = kernels.pack_keys(self.order.keys(exps))
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

    def arrays(self):
        """(exps, keys, coeffs, starts, lead_exps), the kernel's divisor arguments."""
        return self._exps[:self.starts[-1]], self.keys, self.coeffs, self.starts, self.leads

    def element_keys(self):
        """Each element's packed keys, element by element."""
        starts = self.starts
        return [self.keys[starts[k]:starts[k + 1]] for k in range(len(self))]


class _SignedDivisors(_Divisors):
    """The rows of a basis of J, then the pairs (u, v) of one signature step.

    Each pair appends v as a divisor row; its u-part (exps, packed keys,
    coefficients, ``u_starts``), the packed key of its signature lm(u) and
    its signature row in the ``sigs`` block are kept alongside.  ``first``
    is the divisor index of the first pair.
    """

    def __init__(self, gb):
        super().__init__(gb.order)
        for p, keys in zip(gb.polys, gb._element_keys()):
            self.append(p.exps, p.coeffs, keys)
        self.first = len(self)
        self._u_exps = np.empty((16, gb.order.nvars), dtype=np.int64)
        self._sigs = np.empty((4, gb.order.nvars), dtype=np.int64)
        self.u_keys = []
        self.u_coeffs = []
        self.u_starts = [0]
        self.sig_keys = []

    @property
    def sigs(self):
        return self._sigs[:len(self.sig_keys)]

    def append_pair(self, u, v):
        """Add the pair (u, v), each an (exps, coeffs, packed keys) triple
        sorted descending, v monic."""
        self.append(*v)
        u_exps, u_coeffs, u_keys = u
        rows, k = self.u_starts[-1], len(self.sig_keys)
        if rows + len(u_exps) > len(self._u_exps):
            self._u_exps = _grown(self._u_exps, rows + len(u_exps))
        if k == len(self._sigs):
            self._sigs = _grown(self._sigs, k + 1)
        self._u_exps[rows:rows + len(u_exps)] = u_exps
        self._sigs[k] = u_exps[0]
        self.u_keys.extend(u_keys)
        self.u_coeffs.extend(np.asarray(u_coeffs).tolist())
        self.u_starts.append(rows + len(u_exps))
        self.sig_keys.append(u_keys[0])

    def signed(self):
        """(first, sig_keys, u_exps, u_keys, u_coeffs, u_starts), the signed
        part of :func:`kernels.reduce_jpair`'s arguments."""
        return (self.first, self.sig_keys, self._u_exps[:self.u_starts[-1]],
                self.u_keys, self.u_coeffs, self.u_starts)


def _grown(buf, need):
    out = np.empty((max(need, 2 * len(buf)), buf.shape[1]), dtype=buf.dtype)
    out[:len(buf)] = buf
    return out


class GroebnerBasis:
    """An order, a monic generator tuple, and whether the set is reduced.

    ``stats`` is the :class:`PairStats` of the :func:`buchberger` run, or
    the :class:`SignatureStats` of the signature step, that produced the
    basis (carried through :func:`reduce_basis`), else None.  The packed
    order keys of the elements, where the code that built the basis had
    them, ride along in ``_keys`` (one list per element), so that no
    later step packs them again.
    """

    __slots__ = ("order", "polys", "reduced", "stats", "_keys", "_divisors")

    def __init__(self, order, polys, reduced=False, stats=None):
        self.order = order
        self.polys = tuple(polys)
        self.reduced = reduced
        self.stats = stats
        self._keys = None
        self._divisors = None

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
        """Concatenated (exps, packed keys, coeffs, starts, lead_exps) for
        kernel calls; exps and lead_exps are int64 blocks, the rest lists."""
        if self._divisors is None:
            self._divisors = _Divisors(self.order)
            for p, keys in zip(self.polys, self._element_keys()):
                self._divisors.append(p.exps, p.coeffs, keys)
        return self._divisors.arrays()

    def _element_keys(self):
        """Each element's packed order keys, computed once when the basis
        was built without them."""
        if self._keys is None:
            self._keys = [kernels.pack_keys(self.order.keys(p.exps)) for p in self.polys]
        return self._keys


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
    if f.field != gb.field:
        raise ValueError("divisor over a different coefficient field")
    if f.is_zero():
        return f
    f_keys = kernels.pack_keys(gb.order.keys(f.exps))
    r_exps, r_coeffs, _ = kernels.reduce_terms(f.field, f.exps, f_keys, f.coeffs,
                                               *gb.flat_arrays())
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
    walk = _buchberger_walk(gens, order, strategy, pair_budget, degree_budget)
    while True:
        try:
            next(walk)
        except StopIteration as done:
            return done.value


def _buchberger_walk(gens, order, strategy, pair_budget=None, degree_budget=None):
    """The pair loop of :func:`buchberger`, as a generator returning the
    basis.

    Under the ``normal`` strategy it yields (d, leads) before taking the
    first pair of each new lcm degree, when every pair of lcm degree <= d
    is done, with ``leads`` the lead block of the basis so far (a view,
    valid until the loop resumes); for homogeneous input the leads then
    generate the lead ideal through degree d.  It yields (None, leads) once
    every pair is done, under either strategy.
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

    field, table = basis[0].field, basis[0].table
    normal = strategy == "normal"
    divisors = _Divisors(order)
    for p in basis:
        divisors.append(p.exps, p.coeffs)
    heap = []
    tick = count()  # the fifo strategy's creation order
    pending = set()
    # per element j, its pairs (i, j) with i < j: lcm rows, lcm degrees and
    # whether the leads are coprime, computed once when j is appended
    pair_lcms, pair_degs, pair_coprime = [], [], []

    def push_pairs(j):
        leads = divisors.leads
        lcms = np.maximum(leads[:j], leads[j])
        degs = lcms.sum(axis=1).tolist()
        pair_lcms.append(lcms)
        pair_degs.append(degs)
        pair_coprime.append((~np.minimum(leads[:j], leads[j]).any(axis=1)).tolist())
        for i, lcm_deg in enumerate(degs):
            heapq.heappush(heap, (lcm_deg if normal else next(tick), i, j))
            pending.add((i, j))

    for j in range(len(basis)):
        push_pairs(j)

    stats = PairStats()
    done = -1  # every pair of lcm degree <= done has been taken
    while heap:
        if normal and heap[0][0] > done + 1:
            done = heap[0][0] - 1
            yield done, divisors.leads
        _, i, j = heapq.heappop(heap)
        pending.discard((i, j))
        stats.considered += 1
        if pair_budget is not None and stats.considered > pair_budget:
            raise BudgetExceededError(
                f"pair budget {pair_budget} exhausted",
                pairs_considered=stats.considered,
            )
        lcm_deg = pair_degs[j][i]
        if degree_budget is not None and lcm_deg > degree_budget:
            raise BudgetExceededError(
                f"degree budget {degree_budget} exceeded by a pair of degree {lcm_deg}",
                pairs_considered=stats.considered, degree_reached=lcm_deg,
            )
        if pair_coprime[j][i]:
            stats.coprime += 1
            continue
        lcm = pair_lcms[j][i]
        chained = False
        for k in np.flatnonzero((divisors.leads <= lcm).all(axis=1)).tolist():
            if k in (i, j):
                continue
            if (min(i, k), max(i, k)) not in pending and (min(j, k), max(j, k)) not in pending:
                chained = True
                break
        if chained:
            stats.chain += 1
            continue
        stats.reduced += 1
        lcm_key = kernels.pack_keys(order.keys(lcm[None]))[0]
        r_exps, r_coeffs, r_keys = kernels.reduce_spair(field, i, j, lcm, lcm_key,
                                                        *divisors.arrays())
        if len(r_coeffs) == 0:
            stats.zero += 1
            continue
        r = Polynomial(table, field, order, r_exps, r_coeffs).monic()
        basis.append(r)
        divisors.append(r.exps, r.coeffs, r_keys)
        push_pairs(len(basis) - 1)

    yield None, divisors.leads
    out = GroebnerBasis(order, basis, reduced=False, stats=stats)
    out._keys = divisors.element_keys()
    return out


def reduce_basis(gb):
    """The unique reduced basis of the same ideal; idempotent."""
    order = gb.order
    known = gb._keys or [None] * len(gb.polys)
    items = [(p.monic(), keys) for p, keys in zip(gb.polys, known) if not p.is_zero()]
    if not items:
        raise ValueError("empty basis")
    # minimalize: drop any generator whose lead an earlier lead divides, in
    # ascending degree (an earlier lead dividing it means a kept one does)
    items.sort(key=lambda item: int(item[0].exps[0].sum()))
    leads = np.array([p.exps[0] for p, _ in items], dtype=np.int64)
    kept = [k for k in range(len(items)) if not (leads[:k] <= leads[k]).all(axis=1).any()]
    # tail-reduce in one ascending pass: a tail term lies below its lead, so
    # only a smaller lead can divide it, and the smaller elements are final
    field, table = items[0][0].field, items[0][0].table
    divisors = _Divisors(order)
    final = []
    for k in order.sort_desc(leads[kept])[::-1].tolist():
        p, keys = items[kept[k]]
        if keys is None:
            keys = kernels.pack_keys(order.keys(p.exps))
        r_exps, r_coeffs, r_keys = kernels.reduce_terms(field, p.exps, keys, p.coeffs,
                                                        *divisors.arrays())
        divisors.append(r_exps, r_coeffs, r_keys)
        final.append(Polynomial(table, field, order, r_exps, r_coeffs))
    out = GroebnerBasis(order, final[::-1], reduced=True, stats=gb.stats)
    out._keys = divisors.element_keys()[::-1]
    return out


def groebner_basis(gens, order=None, **kwargs):
    """Convenience composition: buchberger followed by reduce_basis."""
    return reduce_basis(buchberger(gens, order, **kwargs))


def lead_ideal(gb):
    """Minimal generating monomials of the leading-term ideal."""
    if not gb.polys:
        return []
    leads = np.array([p.exps[0] for p in gb.polys], dtype=np.int64)
    # ascending (degree, exponent tuple); a lead divisible by an earlier one
    # is divisible by an earlier minimal one
    leads = leads[np.lexsort([*leads.T[::-1], leads.sum(axis=1)])]
    return [Monomial(m) for k, m in enumerate(leads)
            if not (leads[:k] <= m).all(axis=1).any()]
