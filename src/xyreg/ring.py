"""Variable tables and exponent-vector monomials.

The ring of interest is K[x_ij, y_ij | 1 <= i,j <= n] with 2n^2 variables in
a fixed slot layout; generic tables (ad-hoc test rings) reuse the same
machinery with arbitrary names.

A monomial is either a dense :class:`Monomial` or its *support*: the tuple
of its (slot, exponent) pairs with a nonzero exponent, in slot order.  The
certificate path carries supports only, so its cost does not grow with the
2n^2 slots.
"""

import numpy as np

from .errors import DimensionError


def _xy_slot(n, kind, i, j):
    """Slot of x[i,j] or y[i,j] in the 2n^2-slot layout of ``VariableTable.xy(n)``.

    x[i,j] occupies (i-1)*n + (j-1) and y[i,j] the same offset by n^2.  It is
    private so that perfbench's tracer, which wraps every public function of
    the package, does not add a span per slot.
    """
    if not (1 <= i <= n and 1 <= j <= n):
        raise IndexError(f"{kind}[{i},{j}] out of range for n={n}")
    if kind not in ("x", "y"):
        raise KeyError(kind)
    return (0 if kind == "x" else n * n) + (i - 1) * n + (j - 1)


class VariableTable:
    """Maps variable names to dense slots and back.

    ``VariableTable.xy(n)`` builds the 2n^2-slot layout for two generic n x n
    matrices: x[i,j] occupies slot (i-1)*n + (j-1), y[i,j] the same offset by
    n^2.  The (kind, i, j) -> slot map is a bijection by construction.
    """

    __slots__ = ("names", "n", "_index")

    def __init__(self, names, n=None):
        self.names = tuple(names)
        self.n = n
        self._index = {name: k for k, name in enumerate(self.names)}
        if len(self._index) != len(self.names):
            raise ValueError("variable names must be distinct")

    @classmethod
    def xy(cls, n):
        if n < 2:
            raise ValueError(f"matrix size must be at least 2, got {n}")
        names = [f"x[{i},{j}]" for i in range(1, n + 1) for j in range(1, n + 1)]
        names += [f"y[{i},{j}]" for i in range(1, n + 1) for j in range(1, n + 1)]
        return cls(names, n=n)

    @property
    def nvars(self):
        return len(self.names)

    def slot(self, kind, i, j):
        """Slot of x[i,j] or y[i,j]; kind is 'x' or 'y'."""
        if self.n is None:
            raise ValueError("not an x/y table")
        return _xy_slot(self.n, kind, i, j)

    def index(self, name):
        return self._index[name]

    def __eq__(self, other):
        return isinstance(other, VariableTable) and other.names == self.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        if self.n is not None:
            return f"VariableTable.xy({self.n})"
        return f"VariableTable({list(self.names)!r})"


def check_same_size(a, b):
    if a.shape[-1] != b.shape[-1]:
        raise DimensionError(
            f"variable tables differ in size: {a.shape[-1]} vs {b.shape[-1]}"
        )


class Monomial:
    """Dense exponent vector with cached total degree; immutable."""

    __slots__ = ("exps", "degree")

    def __init__(self, exps):
        arr = np.asarray(exps, dtype=np.int64)
        if arr.ndim != 1:
            raise ValueError("exponent vector must be one-dimensional")
        if (arr < 0).any():
            raise ValueError("exponents must be non-negative")
        arr = arr.copy()
        arr.flags.writeable = False
        self.exps = arr
        self.degree = int(arr.sum())

    @classmethod
    def one(cls, nvars):
        return cls(np.zeros(nvars, dtype=np.int64))

    @property
    def nvars(self):
        return len(self.exps)

    def __mul__(self, other):
        check_same_size(self.exps, other.exps)
        return Monomial(self.exps + other.exps)

    def divides(self, other):
        check_same_size(self.exps, other.exps)
        return bool((self.exps <= other.exps).all())

    def __truediv__(self, other):
        check_same_size(self.exps, other.exps)
        diff = self.exps - other.exps
        if (diff < 0).any():
            raise ValueError("not divisible")
        return Monomial(diff)

    def lcm(self, other):
        check_same_size(self.exps, other.exps)
        return Monomial(np.maximum(self.exps, other.exps))

    def coprime(self, other):
        check_same_size(self.exps, other.exps)
        return bool((np.minimum(self.exps, other.exps) == 0).all())

    def as_tuple(self):
        return tuple(int(e) for e in self.exps)

    def __eq__(self, other):
        return isinstance(other, Monomial) and np.array_equal(self.exps, other.exps)

    def __hash__(self):
        return hash(self.exps.tobytes())

    def __repr__(self):
        return f"Monomial({self.as_tuple()})"


def format_monomial(m, table):
    """Render a monomial, a :class:`Monomial` or a support, in the text
    grammar; '1' for the empty product."""
    return _format_support(m if isinstance(m, tuple) else _support(m.exps), table)


def _format_support(support, table):
    """Render one support in the text grammar, reading only the variables it
    uses; '1' when it uses none."""
    if not support:
        return "1"
    names = table.names
    return "*".join(names[v] if e == 1 else f"{names[v]}^{e}" for v, e in support)


def _support(exps):
    """The support of one exponent row: its (slot, exponent) pairs with a
    nonzero exponent, in slot order, as a tuple of Python ints."""
    slots = exps.nonzero()[0]
    return tuple(zip(slots.tolist(), exps[slots].tolist()))


def _quotient(support, divisor):
    """The support of support/divisor, for a divisor that divides it."""
    drop = dict(divisor)
    return tuple((v, e - drop.get(v, 0)) for v, e in support if e != drop.get(v, 0))
