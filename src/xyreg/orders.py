"""Monomial orders as column gathers compared lexicographically.

Every shipped order is realized as a key map made of column gathers: the
exponents read in a fixed column order, possibly negated, plus the total
degree as one extra column for grevlex.  Monomials compare by lexicographic
comparison of their key vectors.  Each key map is linear, so every such
order is multiplicative (and the keys of a product are the sums of the
factors' keys, which the reduction kernel relies on), and each has a
strictly positive first nonzero key on any monomial != 1, so 1 is the
unique minimum.

Shipped kinds:

* ``lex``        - plain lexicographic under a slot precedence permutation:
                   the exponents in precedence order.
* ``grevlex``    - graded reverse lexicographic under a precedence: the total
                   degree, then the negated exponents in reversed precedence.
* ``paper``      - lexicographic under the diagonal-first precedence used for
                   certification (see :func:`certification_precedence`).
* ``elim``       - one block-eliminated slot ranked above an inner order: the
                   appended slot's exponent, then the inner order's keys.
"""

import numpy as np

from .errors import DimensionError
from .ring import _xy_slot

# the orders :meth:`MonomialOrder.from_name` builds over the x/y slots
ORDER_NAMES = ("paper", "grevlex", "lex")


class MonomialOrder:
    """Total multiplicative well-order on monomials over a fixed slot count."""

    __slots__ = ("kind", "precedence", "_columns", "_graded_from", "_ranks")

    def __init__(self, kind, precedence, inner=None):
        self.kind = kind
        self.precedence = tuple(precedence)
        # keys(e) gathers e[..., _columns]; from key _graded_from on (when not
        # None) the gathered columns are negated behind one degree column
        if kind == "elim":
            self._columns = np.concatenate([[inner.nvars], inner._columns])
            graded = inner._graded_from
            self._graded_from = None if graded is None else graded + 1
        elif kind == "grevlex":
            self._columns = np.array(self.precedence[::-1], dtype=np.intp)
            self._graded_from = 0
        else:
            self._columns = np.array(self.precedence, dtype=np.intp)
            self._graded_from = None
        self._ranks = None  # slot -> its key column, built on first use

    @property
    def nvars(self):
        return len(self.precedence)

    # -- construction ----------------------------------------------------
    @classmethod
    def lex(cls, nvars, precedence=None):
        precedence = tuple(precedence) if precedence is not None else tuple(range(nvars))
        return cls("lex", precedence)

    @classmethod
    def grevlex(cls, nvars, precedence=None):
        precedence = tuple(precedence) if precedence is not None else tuple(range(nvars))
        return cls("grevlex", precedence)

    @classmethod
    def paper(cls, n):
        return cls("paper", certification_precedence(n))

    @classmethod
    def from_name(cls, name, n):
        """The order called ``name`` (one of ``ORDER_NAMES``) over the 2n^2
        x/y slots of matrix size n."""
        if name == "paper":
            return cls.paper(n)
        if name in ("grevlex", "lex"):
            return getattr(cls, name)(2 * n * n)
        raise ValueError(f"unknown monomial order {name!r}")

    def eliminate_last(self):
        """Block order over nvars+1 slots: the appended slot outranks all others."""
        return MonomialOrder("elim", self.precedence + (self.nvars,), inner=self)

    # -- comparison --------------------------------------------------------
    def keys(self, exps):
        """Key vectors for a (m, nvars) exponent block or a single vector."""
        exps = np.asarray(exps, dtype=np.int64)
        if exps.shape[-1] != self.nvars:
            raise DimensionError(
                f"order over {self.nvars} slots applied to {exps.shape[-1]}-slot monomial"
            )
        keys = np.take(exps, self._columns, axis=-1)
        g = self._graded_from
        if g is None:
            return keys
        tail = keys[..., g:]  # a permutation of the graded slots
        return np.concatenate([keys[..., :g], tail.sum(axis=-1, keepdims=True), -tail],
                              axis=-1)

    def _support_key(self, support):
        """A tuple that compares as the key vector of the monomial with this
        support does, built from its (slot, exponent) pairs alone.

        Each nonzero key column j with value e becomes (width - j, e) when
        e > 0 and (j - width, e) when e < 0, in column order, followed by
        (0, 0): at the first column where two keys differ, the larger value
        gives the larger pair, and a column one key lacks compares as 0.
        """
        if self._ranks is None:
            self._ranks = np.argsort(self._columns).tolist()
        ranks, graded = self._ranks, self._graded_from
        cols = []
        degree = 0
        for v, e in support:
            j = ranks[v]
            if graded is not None and j >= graded:
                degree += e
                cols.append((j + 1, -e))
            else:
                cols.append((j, e))
        if degree:
            cols.append((graded, degree))
        cols.sort()
        width = len(ranks) + 2
        return tuple((width - j, e) if e > 0 else (j - width, e) for j, e in cols) + ((0, 0),)

    def sort_desc(self, exps):
        """Indices rearranging the rows of ``exps`` strictly descending."""
        keys = self.keys(exps)
        # a key column equal in every row decides nothing, so lexsort skips
        # it; the first column stays, for lexsort needs one
        varying = (keys != keys[:1]).any(axis=0)
        varying[:1] = True
        keys = keys[:, varying]
        return np.lexsort(keys[:, ::-1].T)[::-1]

    def __eq__(self, other):
        # the key map decides the order: two elim orders over one precedence
        # differ when their inner orders do
        return other is self or (
            isinstance(other, MonomialOrder)
            and other.kind == self.kind
            and other.precedence == self.precedence
            and other._graded_from == self._graded_from
            and np.array_equal(other._columns, self._columns)
        )

    def __hash__(self):
        return hash((self.kind, self.precedence, self._graded_from,
                     tuple(self._columns.tolist())))

    def __repr__(self):
        return f"MonomialOrder({self.kind!r}, nvars={self.nvars})"


def certification_precedence(n):
    """Slot precedence for the certification order over the 2n^2 x/y slots.

    Highest to lowest: the diagonal x[1,1] > x[2,2] > ... > x[n,n]; then each
    superdiagonal offset d = 1..n-1 as a block x[1,1+d] > x[2,2+d] > ...;
    then the subdiagonal x[i,j] (i > j) row-major; then all y[i,j] row-major.
    The subdiagonal-internal and y-internal choices are free for the lead
    computations this order serves; row-major keeps them deterministic.
    """
    if n < 2:
        raise ValueError(f"matrix size must be at least 2, got {n}")

    precedence = [_xy_slot(n, "x", i, i) for i in range(1, n + 1)]
    for d in range(1, n):
        precedence += [_xy_slot(n, "x", i, i + d) for i in range(1, n - d + 1)]
    precedence += [_xy_slot(n, "x", i, j)
                   for i in range(1, n + 1) for j in range(1, n + 1) if i > j]
    precedence += [_xy_slot(n, "y", i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    return tuple(precedence)
