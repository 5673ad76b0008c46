"""Monomial orders as integer weight matrices compared lexicographically.

Every shipped order is realized as a key map ``key(m) = W @ exps(m)`` with an
integer matrix W; monomials compare by lexicographic comparison of their key
vectors.  Linearity of the key map makes every such order multiplicative, and
each W below has a strictly positive first nonzero key on any monomial != 1,
so 1 is the unique minimum.

Shipped kinds:

* ``lex``        - plain lexicographic under a slot precedence permutation.
* ``grevlex``    - graded reverse lexicographic under a precedence.
* ``paper``      - lexicographic under the diagonal-first precedence used for
                   certification (see :func:`certification_precedence`).
* ``elim``       - one block-eliminated slot ranked above an inner order.
"""

import numpy as np

from .errors import DimensionError
from .ring import Monomial


def _lex_weights(precedence):
    nv = len(precedence)
    w = np.zeros((nv, nv), dtype=np.int64)
    for row, slot in enumerate(precedence):
        w[row, slot] = 1
    return w


def _grevlex_weights(precedence):
    nv = len(precedence)
    w = np.zeros((nv + 1, nv), dtype=np.int64)
    w[0, :] = 1
    for row, slot in enumerate(reversed(precedence)):
        w[1 + row, slot] = -1
    return w


class MonomialOrder:
    """Total multiplicative well-order on monomials over a fixed slot count."""

    __slots__ = ("kind", "precedence", "weights")

    def __init__(self, kind, precedence, weights):
        self.kind = kind
        self.precedence = tuple(precedence)
        weights = np.asarray(weights, dtype=np.int64).copy()
        weights.flags.writeable = False
        self.weights = weights

    @property
    def nvars(self):
        return self.weights.shape[1]

    @property
    def nkeys(self):
        return self.weights.shape[0]

    # -- construction ----------------------------------------------------
    @classmethod
    def lex(cls, nvars, precedence=None):
        precedence = tuple(precedence) if precedence is not None else tuple(range(nvars))
        return cls("lex", precedence, _lex_weights(precedence))

    @classmethod
    def grevlex(cls, nvars, precedence=None):
        precedence = tuple(precedence) if precedence is not None else tuple(range(nvars))
        return cls("grevlex", precedence, _grevlex_weights(precedence))

    @classmethod
    def paper(cls, n):
        precedence = certification_precedence(n)
        return cls("paper", precedence, _lex_weights(precedence))

    def eliminate_last(self):
        """Block order over nvars+1 slots: the appended slot outranks all others."""
        nv = self.nvars
        w = np.zeros((self.nkeys + 1, nv + 1), dtype=np.int64)
        w[0, nv] = 1
        w[1:, :nv] = self.weights
        return MonomialOrder("elim", self.precedence + (nv,), w)

    # -- comparison --------------------------------------------------------
    def keys(self, exps):
        """Key vectors for a (m, nvars) exponent block or a single vector."""
        exps = np.asarray(exps, dtype=np.int64)
        if exps.shape[-1] != self.nvars:
            raise DimensionError(
                f"order over {self.nvars} slots applied to {exps.shape[-1]}-slot monomial"
            )
        return exps @ self.weights.T

    def compare(self, a, b):
        """-1, 0 or 1 as a <, =, > b."""
        ka = self.keys(a.exps if isinstance(a, Monomial) else a)
        kb = self.keys(b.exps if isinstance(b, Monomial) else b)
        for x, y in zip(ka.tolist(), kb.tolist()):
            if x != y:
                return 1 if x > y else -1
        return 0

    def sort_desc(self, exps):
        """Indices rearranging the rows of ``exps`` strictly descending."""
        keys = self.keys(exps)
        return np.lexsort(keys[:, ::-1].T)[::-1]

    def __eq__(self, other):
        return (
            isinstance(other, MonomialOrder)
            and other.kind == self.kind
            and other.precedence == self.precedence
        )

    def __hash__(self):
        return hash((self.kind, self.precedence))

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

    def x_slot(i, j):
        return (i - 1) * n + (j - 1)

    def y_slot(i, j):
        return n * n + (i - 1) * n + (j - 1)

    precedence = [x_slot(i, i) for i in range(1, n + 1)]
    for d in range(1, n):
        precedence += [x_slot(i, i + d) for i in range(1, n - d + 1)]
    precedence += [x_slot(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i > j]
    precedence += [y_slot(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    return tuple(precedence)
