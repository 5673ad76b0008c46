"""Variable tables and exponent-vector monomials.

The ring of interest is K[x_ij, y_ij | 1 <= i,j <= n] with 2n^2 variables in
a fixed slot layout; auxiliary tables (extra elimination variable, ad-hoc
test rings) reuse the same machinery with arbitrary names.
"""

import numpy as np

from .errors import DimensionError


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

    @classmethod
    def generic(cls, names):
        return cls(names)

    @property
    def nvars(self):
        return len(self.names)

    def slot(self, kind, i, j):
        """Slot of x[i,j] or y[i,j]; kind is 'x' or 'y'."""
        n = self.n
        if n is None:
            raise ValueError("not an x/y table")
        if not (1 <= i <= n and 1 <= j <= n):
            raise IndexError(f"{kind}[{i},{j}] out of range for n={n}")
        base = 0 if kind == "x" else n * n
        if kind not in ("x", "y"):
            raise KeyError(kind)
        return base + (i - 1) * n + (j - 1)

    def index(self, name):
        return self._index[name]

    def extend(self, name):
        """New table with one extra slot appended (used for elimination)."""
        return VariableTable(self.names + (name,))

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

    @classmethod
    def variable(cls, nvars, slot, power=1):
        e = np.zeros(nvars, dtype=np.int64)
        e[slot] = power
        return cls(e)

    @property
    def nvars(self):
        return len(self.exps)

    def is_one(self):
        return self.degree == 0

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

    def gcd(self, other):
        check_same_size(self.exps, other.exps)
        return Monomial(np.minimum(self.exps, other.exps))

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
    """Render a monomial in the text grammar, '1' for the empty product."""
    parts = []
    for slot, e in enumerate(m.exps):
        if e == 0:
            continue
        name = table.names[slot]
        parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts) if parts else "1"
