"""Exact scalars and exact linear algebra.

Everything structural in this package (root systems, matrix realizations,
graded decompositions, genus-zero function spaces) is computed over the
rationals.  Scalars are plain ``int`` or ``fractions.Fraction``; integer
entries stay integers so that the hot commutator loops run on machine ints.

``Mat`` products and commutators run on numpy int64 when that is provably
exact: every entry of both operands is a Python ``int`` and
max|A| * max|B| * (inner dimension), doubled for a commutator, is below
2**63, so no partial sum can overflow.  The result comes back as Python
ints.  All-``int`` operands with a larger entry are multiplied in Python
ints directly.  Any other operands (a ``Fraction`` entry, an empty shape)
take the exact rational path: each operand is scaled to integers by one
lcm, the product is formed in integers, and each entry is divided by the
product of the two scales once (an ``int`` when that is exact).  Shapes
that do not match raise ValueError: a product needs equal inner
dimensions, a commutator two square matrices of one size.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain
from operator import mul

import numpy as np

__all__ = [
    "Mat",
    "rref",
    "nullspace",
    "rank",
    "ColumnSolver",
    "mat_inverse",
]


# ---------------------------------------------------------------------------
# small exact matrices (Lie algebra elements)
# ---------------------------------------------------------------------------

_INT64_LIMIT = 1 << 63
_INT = {int}


def _int_height(rows):
    """max |entry| when every entry is a Python ``int``, else None.

    The type test must come first: numpy truncates a ``Fraction`` to an
    integer when asked for an int64 array.  An empty matrix gives None.
    """
    flat = [*chain.from_iterable(rows)]
    if {*map(type, flat)} != _INT:
        return None
    return max(map(abs, flat))


def _ints(values):
    """(s * values as ints, s) for the least s > 0 that makes them integers."""
    s = math.lcm(*(c.denominator for c in values))
    return [c.numerator * (s // c.denominator) for c in values], s


def _int_rows(rows):
    """(s * rows as integer rows, s) for the least such s > 0."""
    s = math.lcm(*(x.denominator for r in rows for x in r))
    return [[x.numerator * (s // x.denominator) for x in r] for r in rows], s


def _int_product(a, b, comm=False):
    """A B (A B - B A with ``comm``) of integer matrices, in Python ints."""
    cols = list(zip(*b))
    out = [[sum(map(mul, row, col)) for col in cols] for row in a]
    if comm:
        out = [[x - y for x, y in zip(r, t)] for r, t in zip(out, _int_product(b, a))]
    return out


def _rational_product(arows, brows, comm=False):
    """``_int_product`` over the rationals in integers: s_a A and s_b B are
    integer matrices, and each entry of their product is divided by s_a s_b
    once."""
    (a, sa), (b, sb) = _int_rows(arows), _int_rows(brows)
    out = _int_product(a, b, comm)
    s = sa * sb
    return out if s == 1 else [[_exact_quotient(x, s) for x in r] for r in out]


def _fits_int64(arows, brows, terms):
    """Whether a sum of ``terms`` products of entries of the two integer
    matrices provably stays inside int64; None unless every entry of both
    is an ``int``."""
    ha = _int_height(arows)
    if ha is None:
        return None
    hb = _int_height(brows)
    return None if hb is None else ha * hb * terms < _INT64_LIMIT


def _product(arows, brows, comm=False):
    """A B (A B - B A with ``comm``): on int64 when that is provably exact,
    in Python ints when every entry is an ``int``, else over the rationals."""
    fits = _fits_int64(arows, brows, len(brows) * (2 if comm else 1))
    if fits:
        a, b = np.array(arows, dtype=np.int64), np.array(brows, dtype=np.int64)
        return (a @ b - b @ a if comm else a @ b).tolist()
    if fits is False:
        return _int_product(arows, brows, comm)
    return _rational_product(arows, brows, comm)


class Mat:
    """Immutable dense matrix over exact scalars."""

    __slots__ = ("rows", "n", "m")

    def __init__(self, rows):
        self.rows = tuple(tuple(r) for r in rows)
        self.n = len(self.rows)
        self.m = len(self.rows[0]) if self.rows else 0

    @classmethod
    def zeros(cls, n, m=None):
        m = n if m is None else m
        return cls([[0] * m for _ in range(n)])

    @classmethod
    def identity(cls, n):
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def unit(cls, n, i, j, value=1):
        rows = [[0] * n for _ in range(n)]
        rows[i][j] = value
        return cls(rows)

    @classmethod
    def diag(cls, entries):
        n = len(entries)
        return cls([[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])

    def __add__(self, other):
        return Mat([[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)])

    def __sub__(self, other):
        return Mat([[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)])

    def scale(self, c):
        if c == 1:
            return self
        return Mat([[c * a for a in r] for r in self.rows])

    def __matmul__(self, other):
        if self.m != other.n:
            raise ValueError(f"cannot multiply a {self.n}x{self.m} by a {other.n}x{other.m} matrix")
        return Mat(_product(self.rows, other.rows))

    def comm(self, other):
        if not self.n == self.m == other.n == other.m:
            raise ValueError(f"commutator needs square matrices of one size, "
                             f"not {self.n}x{self.m} and {other.n}x{other.m}")
        return Mat(_product(self.rows, other.rows, comm=True))

    @property
    def T(self):
        return Mat(list(zip(*self.rows)))

    def trace(self):
        return sum(self.rows[i][i] for i in range(min(self.n, self.m)))

    def is_zero(self):
        return all(not a for r in self.rows for a in r)

    def __eq__(self, other):
        return isinstance(other, Mat) and self.rows == other.rows

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def flatten(self):
        return [a for r in self.rows for a in r]

    def is_diagonal(self):
        return all(not self.rows[i][j] for i in range(self.n) for j in range(self.m) if i != j)

    def __repr__(self):
        return "Mat(" + "; ".join(" ".join(str(a) for a in r) for r in self.rows) + ")"


# ---------------------------------------------------------------------------
# exact linear algebra
# ---------------------------------------------------------------------------


def rref(rows, pivot_cols=None):
    """Reduced row echelon form over the scalar field.

    Returns (new_rows, pivot_columns).  Input is not modified.  If
    ``pivot_cols`` is given, pivots are only sought in the first that many
    columns (the rest are carried along, e.g. an augmented block).

    The elimination is fraction-free.  Every row is kept as a primitive
    integer vector: denominators cleared and content divided out at the
    start, and after each step the row becomes the primitive part of an
    integer combination with the pivot row.  Each row then stays a rational
    multiple of the row that elimination over Q (same pivot choices) holds,
    and its entries never exceed those of Bareiss elimination.  At the end
    pivot rows are divided by their pivot entry and every other row by its
    tracked multiple, which gives the rational elimination's rows entry for
    entry; integral entries come out as ``int``.
    """
    a, snum, sden = [], [], []
    for row in rows:
        ints, s = _ints(row)
        g = math.gcd(*ints)
        if g > 1:
            ints = [x // g for x in ints]
        a.append(ints)
        snum.append(s)
        sden.append(max(g, 1))
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    stop = ncols if pivot_cols is None else pivot_cols
    pivots = []
    r = 0
    for c in range(stop):
        pr = None
        for i in range(r, nrows):
            if a[i][c]:
                pr = i
                break
        if pr is None:
            continue
        for v in (a, snum, sden):
            v[r], v[pr] = v[pr], v[r]
        prow = a[r]
        piv = prow[c]
        for i in range(nrows):
            f = a[i][c]
            if i == r or not f:
                continue
            g = math.gcd(piv, f)
            pg, fg = piv // g, f // g
            new = [pg * x - fg * y for x, y in zip(a[i], prow)]
            h = math.gcd(*new)
            if h > 1:
                new = [x // h for x in new]
                sden[i] *= h
            snum[i] *= pg
            a[i] = new
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    for i, row in enumerate(a):
        if i < r:
            d = row[pivots[i]]
            if d != 1:
                a[i] = [_exact_quotient(x, d) if x else 0 for x in row]
        elif snum[i] != sden[i]:
            a[i] = [_exact_quotient(x * sden[i], snum[i]) if x else 0 for x in row]
    return a, pivots


def _exact_quotient(x, d):
    q, rem = divmod(x, d)
    return Fraction(x, d) if rem else q


def nullspace(rows, ncols=None):
    """Exact basis of the right nullspace of the given row list.

    ``ncols`` is required for an empty row list; for any other it must
    equal the row width."""
    if not rows:
        if ncols is None:
            raise ValueError("ncols required for empty system")
        return [[1 if i == j else 0 for i in range(ncols)] for j in range(ncols)]
    width = len(rows[0])
    if ncols is not None and ncols != width:
        raise ValueError(f"ncols {ncols} differs from the row width {width}")
    ncols = width
    red, pivots = rref(rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free:
        v = [0] * ncols
        v[f] = 1
        for r, c in enumerate(pivots):
            v[c] = -red[r][f]
        basis.append(v)
    return basis


def rank(rows):
    """Matrix rank: the pivot count of a fraction-free forward elimination.

    Pivots are chosen as :func:`rref` chooses them, the first nonzero entry
    at or below the current row.  Only the rows below each pivot are
    eliminated, on the columns from the pivot on (the ones before it are
    already zero there), and each new row is divided by its content.  No
    back-substitution and no rational normalization are needed for a count.
    """
    a = []
    for row in rows:
        ints, _ = _ints(row)
        g = math.gcd(*ints)
        a.append([x // g for x in ints] if g > 1 else ints)
    nrows = len(a)
    r = 0
    for c in range(len(a[0]) if a else 0):
        pr = next((i for i in range(r, nrows) if a[i][c]), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        prow = a[r][c:]
        piv = prow[0]
        for i in range(r + 1, nrows):
            f = a[i][c]
            if not f:
                continue
            g = math.gcd(piv, f)
            pg, fg = piv // g, f // g
            new = [pg * x - fg * y for x, y in zip(a[i][c:], prow)]
            h = math.gcd(*new)
            a[i][c:] = [x // h for x in new] if h > 1 else new
        r += 1
        if r == nrows:
            break
    return r


class ColumnSolver:
    """Repeated exact solves of ``B x = v`` for a fixed column family B.

    The elimination of ``[B | I]`` is performed once.  Its identity block is
    kept as the nonzero (row, coefficient) pairs of each of its columns, so
    a solve visits only the columns where v is nonzero: the pivot rows give
    the coordinates and the other rows the consistency check.
    """

    def __init__(self, columns):
        self.ncols = len(columns)
        self.nrows = len(columns[0]) if columns else 0
        aug = []
        for i in range(self.nrows):
            row = [columns[j][i] for j in range(self.ncols)]
            row.extend(1 if k == i else 0 for k in range(self.nrows))
            aug.append(row)
        red, pivots = rref(aug, pivot_cols=self.ncols)
        self._pivots = pivots
        self._cols = [[(r, row[self.ncols + k]) for r, row in enumerate(red) if row[self.ncols + k]]
                      for k in range(self.nrows)]
        self.rank = len(pivots)

    def solve(self, v):
        """Coordinates x with B x = v, or None if v is outside the span."""
        s = [0] * self.nrows
        for k, vk in enumerate(v):
            if vk:
                for r, c in self._cols[k]:
                    s[r] += c * vk
        if any(s[self.rank:]):
            return None
        x = [0] * self.ncols
        for r, c in enumerate(self._pivots):
            x[c] = s[r]
        return x


def mat_inverse(m):
    """Exact inverse of a square :class:`Mat`."""
    n = m.n
    aug = [list(m.rows[i]) + [1 if j == i else 0 for j in range(n)] for i in range(n)]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return Mat([row[n:] for row in red])
