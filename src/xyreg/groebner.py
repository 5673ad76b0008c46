"""Multivariate division, Buchberger's algorithm, reduced bases, normal forms.

Pair selection is deterministic: the pending pair (i, j), i < j, with the
smallest lcm total degree comes first, ties going to the newest pair, the
largest i and then the largest j.  Both standard
elimination criteria (coprime leads, chain) are applied, and every basis
element is stored monic, so the reduced basis coming out of
:func:`reduce_basis` is canonical whatever the generator order.  The
reduced basis is built only where one is printed or compared
(:func:`groebner_basis`, ``xyreg gb``, the counterexample); the colon
oracle hands on minimal bases, which are not interreduced.  One private
minimalization of a lead block, an ascending-degree pass that drops each
lead an earlier kept lead divides, serves :func:`reduce_basis`,
:func:`lead_ideal` and the colon step.

A basis is its divisor state: one :class:`kernels.Divisors`, the kernel's
flat divisor layout with packed order keys (:meth:`GroebnerBasis.flat_arrays`),
holds every element once, each term as its key alone, and the basis keeps
no second copy of it.  Its ``polys`` are decoded from the state's keys on
each read, never kept (``kernels._rows``); :func:`normal_form` and the colon
witness decode only the one polynomial they build.  The code that builds a basis
grows that state as it goes and hands it over: :func:`buchberger` appends
each new element, the kernel's remainder scaled to a leading 1, with the
keys the kernel returned; :func:`reduce_basis` each tail-reduced element;
the colon oracle's signature step (:func:`regseq.nonzerodivisor_colon`) the
v-parts of its pairs.  So an element's keys are packed once, and only
``GroebnerBasis(order, polys)`` packs, at construction, unless the state
widens: keys are narrow guarded fields whose width the state chooses, and
every key that meets the state's keys is packed by the state itself,
which first widens, repacking its elements' keys from the keys themselves,
when the key would not fit: f in :func:`normal_form` through
``kernels.Divisors.pack``, an S-pair's lcm from the two lead keys
(``kernels.lead_lcm_key``).  A reduced basis,
and the minimal basis of a colon step, keep only some of the elements they
were built from: their state is a copy of those elements
(``kernels.Divisors.take``).  An S-polynomial is never
built as a polynomial; the kernel is seeded with the two shifted tails
(:func:`kernels.reduce_spair`).  The pair heap is the pair loop's only
per-pair state: when an element is appended, one numpy pass gives the lcm
degrees of all its pairs with the earlier elements, the heap's keys.  A
popped pair reads its lcm key and its coprimality from the two lead keys,
with a few integer operations and no numpy call
(:func:`kernels.lead_lcm_key`, :func:`kernels.coprime_leads`), and the
chain test scans the lead keys for leads that divide that lcm with the
kernel's divisibility test (:func:`kernels._first_divisor`).  These are
made at pop time, not at push time: the Hilbert oracle's dimension stop
leaves most pushed pairs unpopped.  A heap entry holds i and j negated,
one shared int per element, not two new ints per pair.  The
pair loop is one generator, :func:`_buchberger_walk`: :func:`buchberger`
drains it, and the Hilbert oracle (:func:`hilbert._first_difference`)
reads the lead block at each degree boundary it yields, may stop early,
and sends back a quota: how many new leads the next degree can still gain.
Once appended elements have used it up, that degree is complete and its
remaining pairs, which reduce to zero, are skipped unreduced (Traverso,
*Hilbert functions and the Buchberger algorithm*, J. Symbolic Comput. 22,
1996).  Newest pairs first is what lets the skip save work: with the
smallest (i, j) first, the pair that gave a degree's last new lead was
the last of its degree to be popped.
The basis that :func:`buchberger` returns records its :class:`PairStats`;
the signature step records :class:`SignatureStats`.
"""

import heapq
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import BudgetExceededError, DimensionError, OrderMismatchError, UndefinedLeadError
from .poly import Polynomial
from .ring import Monomial


@dataclass
class PairStats:
    """What :func:`buchberger` did with its critical pairs: how many it
    considered, pruned as coprime, pruned by the chain criterion, reduced,
    and how many of those reduced to zero; and, in a run whose caller sends
    quotas (:func:`_buchberger_walk`), how many it skipped because their
    degree was complete.  Each considered pair is counted in exactly one
    of coprime, chain, reduced and skipped."""

    considered: int = 0
    coprime: int = 0
    chain: int = 0
    reduced: int = 0
    zero: int = 0
    skipped: int = 0


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


class GroebnerBasis:
    """An order and a monic generator tuple, held as one
    :class:`kernels.Divisors` state (:meth:`flat_arrays`), element k for
    ``polys[k]``.

    ``GroebnerBasis(order, polys)`` packs the polys, each scaled to a
    leading 1, into a new state and keeps no reference to them; the code
    that builds a basis hands its own state over instead (``_of``).  The
    polys must be nonzero (else UndefinedLeadError), lie in one ring (else
    the errors of :func:`normal_form`) and carry ``order`` (else
    OrderMismatchError).
    ``polys`` is decoded from the state's keys on each read, never
    kept.  ``stats`` is the :class:`PairStats` of
    the :func:`buchberger` run, or the :class:`SignatureStats` of the
    signature step, that produced the basis (carried through
    :func:`reduce_basis`), else None.
    """

    __slots__ = ("order", "table", "field", "stats", "_divisors")

    def __init__(self, order, polys):
        polys = list(polys)
        table, field = (polys[0].table, polys[0].field) if polys else (None, None)
        divisors = kernels.Divisors(order)
        for p in polys:
            if p.is_zero():
                raise UndefinedLeadError("zero element in a basis")
            _check_ring(p, polys[0])
            if p.order != order:
                raise OrderMismatchError("basis element carries a different order tag")
            divisors.append(divisors.pack(p.exps), _monic(field, p.coeffs))
        self._hold(order, table, field, divisors)

    @classmethod
    def _of(cls, order, table, field, divisors, stats):
        """The basis of the monic elements of ``divisors``, a state that
        the code that built it hands over."""
        gb = cls.__new__(cls)
        gb._hold(order, table, field, divisors, stats)
        return gb

    def _hold(self, order, table, field, divisors, stats=None):
        self.order, self.table, self.field, self.stats = order, table, field, stats
        self._divisors = divisors

    def __len__(self):
        return len(self._divisors)

    def __iter__(self):
        return iter(self.polys)

    @property
    def polys(self):
        div = self._divisors
        return tuple(Polynomial(self.table, self.field, self.order,
                                kernels._rows(div, keys), coeffs)
                     for keys, coeffs in map(div.element, range(len(div))))

    def contains_unit(self):
        return not self._divisors.leads.any(axis=1).all()

    def flat_arrays(self):
        """The basis as its :class:`kernels.Divisors` state, for kernel
        calls."""
        return self._divisors


def _monic(field, coeffs):
    """The coefficient array ``coeffs`` scaled to a leading 1."""
    return field.scale_array(field.inv(coeffs[0]), coeffs)


def _check_inputs(f, divisors):
    for d in divisors:
        if d.is_zero():
            raise UndefinedLeadError("zero divisor in division")
        _check_ring(d, f)
        if d.order != f.order:
            raise OrderMismatchError("divisor carries a different order tag")


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


def _check_ring(f, other):
    """Raise unless the polynomial f lies in the ring of ``other``, a
    polynomial or a basis: a variable table of the same size, the same
    field."""
    if f.table.nvars != other.table.nvars:
        raise DimensionError("polynomial over a different-size variable table")
    if f.field != other.field:
        raise ValueError("divisor over a different coefficient field")


def normal_form(f, gb):
    """The remainder of f on full reduction by the basis."""
    if not len(gb):
        return f
    if f.order != gb.order:
        raise OrderMismatchError("polynomial and basis carry different order tags")
    _check_ring(f, gb)
    if f.is_zero():
        return f
    div = gb.flat_arrays()
    keys, coeffs = kernels.reduce_terms(f.field, div.pack(f.exps), div.width, f.coeffs, div)
    return Polynomial(f.table, f.field, f.order, kernels._rows(div, keys), coeffs)


def _prepare_generators(gens, order):
    polys = []
    seen = set()
    for g in gens:
        _check_ring(g, gens[0])
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


def buchberger(gens, order=None, *, pair_budget=None, degree_budget=None):
    """Complete the generator list to a Groebner basis.

    The generators must lie in the ring of the first, as in
    :func:`normal_form`; zero generators are dropped and the rest resorted
    to ``order``.  Budgets are hard stops: exceeding either raises
    BudgetExceededError and the partial state is discarded, never returned
    as an answer.
    """
    walk = _buchberger_walk(gens, order, pair_budget, degree_budget)
    while True:
        try:
            next(walk)
        except StopIteration as done:
            return done.value


def _buchberger_walk(gens, order, pair_budget=None, degree_budget=None):
    """The pair loop of :func:`buchberger`, as a generator returning the
    basis.

    It yields (d, leads) before taking the first pair of each new lcm
    degree, when every pair of lcm degree <= d is done, with ``leads`` the
    lead block of the basis so far (a view, valid until the loop resumes);
    for homogeneous input the leads then generate the lead ideal through
    degree d.  It yields (None, leads) once every pair is done.

    The caller may ``send`` back a quota q at a boundary d: at most q new
    leads are still to come in degree d + 1.  Each appended element uses
    one, and once none is left the remaining pairs of that degree are
    counted as considered and skipped, not reduced
    (:func:`hilbert._first_difference`); a quota of None, what ``next``
    sends, skips nothing.
    """
    gens = list(gens)
    if order is None:
        if not gens:
            raise ValueError("no generators and no order given")
        order = gens[0].order
    gens = _prepare_generators(gens, order)
    if not gens:
        raise ValueError("all generators are zero")

    field, table = gens[0].field, gens[0].table
    divisors = kernels.Divisors(order)
    heap = []  # (lcm degree, -i, -j) per pair (i, j) not yet taken
    pending = set()  # (-i, -j) per pair (i, j) in the heap
    minus = []  # minus[k] = -k: one int per element, shared by its entries

    def push_pairs(j):
        minus.append(-j)
        mj, leads = minus[j], divisors.leads
        for mi, lcm_deg in zip(minus, np.maximum(leads[:j], leads[j]).sum(axis=1).tolist()):
            heapq.heappush(heap, (lcm_deg, mi, mj))
            pending.add((mi, mj))

    for j, p in enumerate(gens):
        divisors.append(divisors.pack(p.exps), p.coeffs)
        push_pairs(j)

    stats = PairStats()
    done = -1  # every pair of lcm degree <= done has been taken
    quota = None  # how many new leads degree done + 1 can still gain, if sent
    while heap:
        if heap[0][0] > done + 1:
            done = heap[0][0] - 1
            quota = yield done, divisors.leads
        lcm_deg, mi, mj = heapq.heappop(heap)
        pending.discard((mi, mj))
        stats.considered += 1
        if pair_budget is not None and stats.considered > pair_budget:
            raise BudgetExceededError(
                f"pair budget {pair_budget} exhausted",
                pairs_considered=stats.considered,
            )
        if degree_budget is not None and lcm_deg > degree_budget:
            raise BudgetExceededError(
                f"degree budget {degree_budget} exceeded by a pair of degree {lcm_deg}",
                pairs_considered=stats.considered, degree_reached=lcm_deg,
            )
        if quota == 0:  # the degree is complete: the pair reduces to zero
            stats.skipped += 1
            continue
        i, j = -mi, -mj
        # the lcm's key comes from the two lead keys, the state widened to
        # hold it; under a graded order no term of the reduction outranks
        # the lcm, so they all fit too
        lcm_key = kernels.lead_lcm_key(divisors, i, j, lcm_deg)
        if kernels.coprime_leads(divisors, i, j, lcm_key):
            stats.coprime += 1
            continue
        # the chain test: a lead k dividing the lcm whose pairs with i and
        # with j are both taken
        k = kernels._first_divisor(divisors, lcm_key)
        while k >= 0 and (k == i or k == j or (-min(i, k), -max(i, k)) in pending
                          or (-min(j, k), -max(j, k)) in pending):
            k = kernels._first_divisor(divisors, lcm_key, k + 1)
        if k >= 0:
            stats.chain += 1
            continue
        stats.reduced += 1
        r_keys, r_coeffs = kernels.reduce_spair(field, i, j, lcm_key, divisors)
        if len(r_coeffs) == 0:
            stats.zero += 1
            continue
        divisors.append(r_keys, _monic(field, r_coeffs))
        push_pairs(len(divisors) - 1)
        if quota is not None:
            quota -= 1

    yield None, divisors.leads
    return GroebnerBasis._of(order, table, field, divisors, stats)


def _minimal(leads):
    """The rows of the lead block ``leads`` that generate its monomial ideal
    minimally, as indices in ascending degree (ties in row order): each row
    that an earlier kept row divides is dropped.  A row that any earlier row
    divides is divisible by an earlier kept one."""
    rank = np.argsort(leads.sum(axis=1), kind="stable")
    rows = leads[rank]
    return [int(rank[k]) for k in range(len(rows)) if not (rows[:k] <= rows[k]).all(axis=1).any()]


def reduce_basis(gb):
    """The unique reduced basis of the same ideal; idempotent."""
    if not len(gb):
        raise ValueError("empty basis")
    order, div = gb.order, gb.flat_arrays()
    kept = _minimal(div.leads)
    # tail-reduce the monic elements in one ascending pass: a tail term lies
    # below its lead, so only a smaller lead can divide it, and the smaller
    # elements are final
    ascending = div.take(())
    for k in order.sort_desc(div.leads[kept])[::-1].tolist():
        keys, coeffs = div.element(kept[k])
        # a lex-type reduction may have widened ``ascending`` past ``div``
        ascending.append(*kernels.reduce_terms(gb.field, keys, div.width, coeffs, ascending))
    # the reduced basis runs in descending lead order, in a state of its own
    return GroebnerBasis._of(order, gb.table, gb.field,
                             ascending.take(range(len(ascending) - 1, -1, -1)), gb.stats)


def groebner_basis(gens, order=None, **kwargs):
    """Convenience composition: buchberger followed by reduce_basis."""
    return reduce_basis(buchberger(gens, order, **kwargs))


def lead_ideal(gb):
    """Minimal generating monomials of the leading-term ideal, ascending by
    (degree, exponent tuple)."""
    leads = gb.flat_arrays().leads
    leads = leads[np.lexsort([*leads.T[::-1], leads.sum(axis=1)])]
    return [Monomial(leads[k]) for k in _minimal(leads)]
