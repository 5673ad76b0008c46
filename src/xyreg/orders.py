"""Monomial orders as column gathers compared lexicographically.

An order is a slot precedence plus one ``graded`` flag, and its key map is
a column gather: the exponents read in precedence order (lex), or, when
graded, the total degree followed by the negated exponents in reversed
precedence (grevlex).  Monomials compare by lexicographic comparison of
their key vectors.  Each key map is linear, so every such order is
multiplicative (and the keys of a product are the sums of the factors'
keys, which the reduction kernel relies on), and each has a strictly
positive first nonzero key on any monomial != 1, so 1 is the unique
minimum.

Lex with one slot first in its precedence eliminates that slot: every
monomial containing it outranks every monomial without it.

:meth:`MonomialOrder.from_name` builds the orders of ``ORDER_NAMES`` over
the x/y slots; ``paper`` is lex under the diagonal-first precedence used
for certification (see :func:`certification_precedence`).
"""

import numpy as np

from .errors import DimensionError
from .ring import _xy_slot

# the orders :meth:`MonomialOrder.from_name` builds over the x/y slots
ORDER_NAMES = ("paper", "grevlex", "lex")


class MonomialOrder:
    """Total multiplicative well-order on monomials over a fixed slot count:
    lex under ``precedence`` (highest slot first), or grevlex under it when
    ``graded``.  ``precedence`` must order every slot 0..nvars-1 once; a
    repeated or missing slot is a ValueError, for it would give two
    monomials one key."""

    __slots__ = ("precedence", "graded", "_columns", "_ranks")

    def __init__(self, precedence, graded=False):
        self.precedence = tuple(precedence)
        if sorted(self.precedence) != list(range(self.nvars)):
            raise ValueError(f"precedence {self.precedence} does not permute range({self.nvars})")
        self.graded = graded
        # keys(e) gathers e[..., _columns]; a graded order negates the
        # gathered columns behind one degree column
        self._columns = np.array(self.precedence[::-1] if graded else self.precedence,
                                 dtype=np.intp)
        self._ranks = None  # slot -> its gathered column, built on first use

    @property
    def nvars(self):
        return len(self.precedence)

    # -- construction ----------------------------------------------------
    @classmethod
    def lex(cls, nvars, precedence=None):
        return cls(range(nvars) if precedence is None else precedence)

    @classmethod
    def grevlex(cls, nvars, precedence=None):
        return cls(range(nvars) if precedence is None else precedence, graded=True)

    @classmethod
    def from_name(cls, name, n):
        """The order called ``name`` (one of ``ORDER_NAMES``) over the 2n^2
        x/y slots of matrix size n."""
        if name == "paper":
            return cls(certification_precedence(n))
        if name in ("grevlex", "lex"):
            return getattr(cls, name)(2 * n * n)
        raise ValueError(f"unknown monomial order {name!r}")

    # -- comparison --------------------------------------------------------
    def keys(self, exps):
        """Key vectors for a (m, nvars) exponent block or a single vector."""
        exps = np.asarray(exps, dtype=np.int64)
        if exps.shape[-1] != self.nvars:
            raise DimensionError(
                f"order over {self.nvars} slots applied to {exps.shape[-1]}-slot monomial"
            )
        keys = np.take(exps, self._columns, axis=-1)
        if not self.graded:
            return keys
        return np.concatenate([keys.sum(axis=-1, keepdims=True), -keys], axis=-1)

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
        ranks, graded = self._ranks, self.graded
        cols = []
        degree = 0
        for v, e in support:
            j = ranks[v]
            if graded:
                degree += e
                cols.append((j + 1, -e))
            else:
                cols.append((j, e))
        if degree:
            cols.append((0, degree))
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
        # the key map is a function of (precedence, graded)
        return other is self or (
            isinstance(other, MonomialOrder)
            and other.precedence == self.precedence
            and other.graded == self.graded
        )

    def __hash__(self):
        return hash((self.precedence, self.graded))

    def __repr__(self):
        name = "grevlex" if self.graded else "lex"
        return f"MonomialOrder.{name}({self.nvars}, {self.precedence})"


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
