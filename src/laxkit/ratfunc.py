"""Exact univariate rational functions over the rationals.

The genus-zero realization lives on the projective line: every algebra
element is a matrix of rational functions in the global coordinate z, and
all pole/zero bookkeeping (divisors, Laurent tails, residues) is exact.
The point at infinity is the sentinel :data:`INF`, with orders measured in
the local coordinate 1/z.
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction

__all__ = ["INF", "Poly", "RatFunc", "RationalMatrix", "rat_z", "rat_const"]


class _Infinity:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INF"


INF = _Infinity()


class Poly:
    """Dense polynomial with Fraction coefficients, ascending order."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def const(cls, c):
        return cls([c])

    @classmethod
    def x(cls):
        return cls([0, 1])

    @property
    def degree(self):
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self):
        return not self.coeffs

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Poly([c * other for c in self.coeffs])
        return _dot((self,), (other,))

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def divmod(self, other):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        q = [Fraction(0)] * max(0, len(self.coeffs) - len(other.coeffs) + 1)
        r = list(self.coeffs)
        dlead = other.coeffs[-1]
        dn = len(other.coeffs)
        while len(r) >= dn:
            c = r[-1] / dlead
            q[len(r) - dn] = c
            for i, b in enumerate(other.coeffs):
                r[len(r) - dn + i] -= c * b
            while r and r[-1] == 0:
                r.pop()
            if not r:
                break
        return Poly(q), Poly(r)

    def __mod__(self, other):
        return self.divmod(other)[1]

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def gcd(self, other):
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        if a.is_zero():
            return a
        return a * (1 / a.coeffs[-1])

    def derivative(self):
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def eval(self, x):
        acc = Fraction(0) if isinstance(x, (int, Fraction)) else 0.0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def shift(self, c):
        """Compose with z -> z + c (Taylor recentering at c)."""
        return Poly(_taylor(self.coeffs, c, len(self.coeffs))) if c else self

    def valuation(self):
        """Order of vanishing at 0 (None for the zero polynomial)."""
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return None

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        return "Poly(" + " + ".join(f"{c}*z^{i}" for i, c in enumerate(self.coeffs) if c) + ")"


def _taylor(coeffs, c, n):
    """The first n Taylor coefficients at c of the polynomial with these
    Fraction coefficients, in integer arithmetic.  With c = a/b and the
    polynomial P/L over the integers, q(w) = b^deg P(w/b) has integer
    coefficients; its Taylor coefficients s_k at a (repeated synthetic
    division by (w - a), in place, stopped after n passes) give the
    polynomial's as s_k / (L b^(deg - k))."""
    q, den = _ints(coeffs)
    c = Fraction(c)
    a, b, deg = c.numerator, c.denominator, len(q) - 1
    q = [x * b ** (deg - j) for j, x in enumerate(q)]
    for i in range(min(n, deg) if a else 0):
        for j in range(deg - 1, i - 1, -1):
            q[j] += a * q[j + 1]
    return [Fraction(q[k], den * b ** (deg - k)) for k in range(min(n, deg + 1))]


def _valuation(coeffs, c, limit=None):
    """Order of vanishing at c of a nonzero polynomial (at most limit)."""
    t = _taylor(coeffs, c, len(coeffs) if limit is None else limit)
    return next((i for i, x in enumerate(t) if x), len(t))


def _series_inverse(coeffs, nterms):
    """Power-series inverse of a unit (c0 != 0), as a coefficient list."""
    c0 = coeffs[0]
    inv = [1 / c0]
    for n in range(1, nterms):
        s = Fraction(0)
        for i in range(1, min(n, len(coeffs) - 1) + 1):
            s += coeffs[i] * inv[n - i]
        inv.append(-s / c0)
    return inv


def _local(taylor, vq):
    """(lead, coefficients) of the series with these Taylor coefficients
    divided by t^vq, with its zero at t = 0 taken out; coefficients () if
    every given coefficient vanishes."""
    vp = next((i for i, c in enumerate(taylor) if c), None)
    return (0, ()) if vp is None else (vp - vq, taylor[vp:])


def _orders(nums, den, point):
    """Order of every nums[k] / den at a point of P^1 (None for a zero
    numerator), with the denominator's valuation taken once."""
    if point is INF:
        return [den.degree - a.degree if a.coeffs else None for a in nums]
    vd = _valuation(den.coeffs, point)
    return [_valuation(a.coeffs, point) - vd if a.coeffs else None for a in nums]


def _laurent(nums, den, point, hi):
    """Laurent expansions at a point or INF of every nums[k] / den, as
    (lead, coefficients of degrees lead..hi) (None for a zero numerator).

    Each entry is t^lead pc(t) / u(t) in the local coordinate t, with
    u(0) != 0 (at INF, t = 1/z and the coefficients are reversed).  The
    denominator is shifted and its series inverted once; each numerator is
    expanded to degree hi only and convolved with it."""
    if point is INF:
        u = den.coeffs[::-1]
        parts = [(den.degree - a.degree, a.coeffs[::-1]) for a in nums]
    else:
        vq, u = _local(_taylor(den.coeffs, point, len(den.coeffs)), 0)
        parts = [_local(_taylor(a.coeffs, point, hi + vq + 1), vq) for a in nums]
    inv = _series_inverse(u, max((hi - lead + 1 for lead, pc in parts if pc), default=1))
    return [(lead, [sum(pc[x] * inv[k - x] for x in range(min(k + 1, len(pc))))
                    for k in range(hi - lead + 1)]) if pc else None
            for lead, pc in parts]


def _poles_within(nums, den, points):
    """``RatFunc.poles_within`` of every reduced nums[k] / den (None for a
    zero numerator), from the numerator valuations at the listed roots of
    den; the leftover takes a gcd only when den has roots off the list."""
    points = list(dict.fromkeys(points))
    mults = {c: _valuation(den.coeffs, c) for c in points if c is not INF}
    off_list = den.degree > sum(mults.values())
    out = []
    for a in nums:
        if not a.coeffs:
            out.append(None)
            continue
        orders = {}
        for c in points:
            k = a.degree - den.degree if c is INF else mults[c] - _valuation(a.coeffs, c, mults[c])
            if k > 0:
                orders[c] = k
        # the reduced denominator has degree den.degree - deg gcd(a, den)
        finite = sum(k for c, k in orders.items() if c is not INF)
        out.append((orders, den.degree - a.gcd(den).degree - finite if off_list else 0))
    return out


class RatFunc:
    """Reduced quotient of polynomials, denominator monic."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None, reduce=True):
        if not isinstance(num, Poly):
            num = Poly.const(Fraction(num))
        if den is None:
            den = Poly([1])
        elif not isinstance(den, Poly):
            den = Poly.const(Fraction(den))
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if reduce:
            g = num.gcd(den)
            if not g.is_zero() and g.degree > 0:
                num = num // g
                den = den // g
            lead = den.coeffs[-1]
            if lead != 1:
                num = num * (1 / lead)
                den = den * (1 / lead)
        self.num = num
        self.den = den

    @classmethod
    def zero(cls):
        return cls(Poly([]), Poly([1]), reduce=False)

    def is_zero(self):
        return self.num.is_zero()

    def __add__(self, other):
        other = _coerce(other)
        if self.den == other.den:
            return RatFunc(self.num + other.num, self.den)
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) - self

    def __neg__(self):
        return RatFunc(-self.num, self.den, reduce=False)

    def __mul__(self, other):
        other = _coerce(other)
        # a nonzero constant factor keeps the quotient reduced
        if other.num.degree == 0 and other.den.degree == 0:
            return RatFunc(self.num * other.num.coeffs[0], self.den, reduce=False)
        if self.num.degree == 0 and self.den.degree == 0:
            return RatFunc(other.num * self.num.coeffs[0], other.den, reduce=False)
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        return RatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return _coerce(other) / self

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = RatFunc(Poly([1]))
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def __eq__(self, other):
        if not isinstance(other, (RatFunc, numbers.Real)):
            return NotImplemented
        other = _coerce(other)
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        # a constant equals, so must hash as, its value as a number
        if self.den.coeffs == (1,) and len(self.num.coeffs) <= 1:
            return hash(self.num.coeffs[0] if self.num.coeffs else 0)
        return hash((self.num, self.den))

    def derivative(self):
        return RatFunc(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den,
        )

    def eval(self, x):
        d = self.den.eval(x)
        if isinstance(x, (int, Fraction)) and d == 0:
            raise ZeroDivisionError(f"pole at {x}")
        return self.num.eval(x) / d

    def order_at(self, point):
        """Valuation at a point of P^1 (positive = zero, negative = pole).

        Returns None for the identically zero function.
        """
        return _orders([self.num], self.den, point)[0]

    def laurent_at(self, point, upto):
        """Laurent coefficients at a finite point or INF, degrees <= upto.

        Returns a dict degree -> Fraction of the nonzero coefficients of the
        pole tail and of the regular part up to ``upto`` in the local
        coordinate (z - point, or 1/z at infinity).
        """
        t = _laurent([self.num], self.den, point, upto)[0]
        return {} if t is None else {t[0] + k: c for k, c in enumerate(t[1]) if c}

    def residue_at(self, point):
        """Residue of (this function) dz at the point; at infinity this is
        minus the coefficient of 1/z in the expansion."""
        if point is INF:
            # res_inf f dz = -coeff of u^1 in f(1/u) ... computed via z-series
            tail = self.laurent_at(INF, 1)
            return -tail.get(1, Fraction(0))
        tail = self.laurent_at(point, -1)
        return tail.get(-1, Fraction(0))

    def poles_within(self, points):
        """Pole orders at the listed points plus any leftover denominator.

        Returns (orders: dict, leftover_degree: int); a nonzero leftover
        degree means the function has poles outside the given list.
        """
        return _poles_within([self.num], self.den, points)[0] or ({}, 0)

    def __repr__(self):
        return f"RatFunc({self.num!r}/{self.den!r})"


def _coerce(x):
    if isinstance(x, RatFunc):
        return x
    return RatFunc(Poly.const(Fraction(x)))


def rat_z():
    return RatFunc(Poly.x())


def rat_const(c):
    return RatFunc(Poly.const(Fraction(c)))


def _ints(coeffs):
    """(integer coefficients, common denominator) of Fraction coefficients."""
    d = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (d // c.denominator) for c in coeffs], d


def _dot(row, col):
    """sum_k row[k] * col[k] over polynomials, accumulated over one common
    denominator in integer arithmetic."""
    out, den = [], 1
    for a, b in zip(row, col):
        if a.coeffs and b.coeffs:
            (ia, da), (ib, db) = _ints(a.coeffs), _ints(b.coeffs)
            lcm = math.lcm(den, da * db)
            out = [x * (lcm // den) for x in out] + [0] * (len(ia) + len(ib) - 1 - len(out))
            f, den = lcm // (da * db), lcm
            for i, x in enumerate(ia):
                if x:
                    for j, y in enumerate(ib):
                        out[i + j] += f * x * y
    return Poly([Fraction(x, den) for x in out])


def _products(a, b):
    """Numerators of the product of two numerator matrices."""
    cols = list(zip(*b))
    return [[_dot(row, col) for col in cols] for row in a]


class RationalMatrix:
    """Matrix of rational functions (the genus-zero algebra elements), kept
    as one denominator polynomial ``den`` and a matrix ``nums`` of numerator
    polynomials: entry (i, j) is nums[i][j] / den, not necessarily reduced.

    Matrix operations work on that form with no per-entry gcd; ``rows``
    reduces the entries when it is read.  It is not cached: no hot path
    reads it, and a cache would keep a second copy of every coefficient of
    long-lived matrices."""

    __slots__ = ("nums", "den", "n", "m")

    def __init__(self, rows):
        entries = [[_coerce(e) for e in r] for r in rows]
        den = Poly([1])  # the lcm of the entries' denominators
        for e in (e for r in entries for e in r):
            if e.num.coeffs and e.den != den:
                den = den * (e.den // den.gcd(e.den))
        self._set([[e.num * (den // e.den) for e in r] for r in entries], den)

    def _set(self, nums, den):
        self.nums = tuple(tuple(r) for r in nums)
        self.den = den
        self.n = len(self.nums)
        self.m = len(self.nums[0]) if self.nums else 0

    @classmethod
    def over(cls, nums, den):
        """The matrix with entries nums[i][j] / den."""
        out = cls.__new__(cls)
        out._set(nums, den)
        return out

    @classmethod
    def zeros(cls, n, m=None):
        return cls.over([[Poly([])] * (n if m is None else m) for _ in range(n)], Poly([1]))

    @classmethod
    def from_scalar_matrix(cls, mat, f):
        """Constant matrix times a scalar rational function."""
        f = _coerce(f)
        return cls.over([[f.num * Fraction(e) for e in row] for row in mat.rows], f.den)

    @property
    def rows(self):
        """The entries as reduced ``RatFunc``s."""
        zero = RatFunc.zero()
        return tuple(tuple(RatFunc(a, self.den) if a.coeffs else zero for a in r) for r in self.nums)

    def _flat(self):
        return [a for r in self.nums for a in r]

    def _shape(self, flat):
        return [flat[i:i + self.m] for i in range(0, len(flat), self.m)]

    def _common(self, other):
        """Numerators of self and other over one denominator (one lcm)."""
        a, b, d = self.nums, other.nums, self.den
        if d != other.den:
            g = d.gcd(other.den)
            fa, fb = other.den // g, d // g
            a = [[x * fa for x in r] for r in a]
            b = [[x * fb for x in r] for r in b]
            d = d * fa
        return a, b, d

    def __add__(self, other):
        a, b, d = self._common(other)
        return RationalMatrix.over([[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)], d)

    def __sub__(self, other):
        a, b, d = self._common(other)
        return RationalMatrix.over([[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)], d)

    def __neg__(self):
        return RationalMatrix.over([[-a for a in r] for r in self.nums], self.den)

    def scale(self, c):
        c = _coerce(c)
        return RationalMatrix.over([[a * c.num for a in r] for r in self.nums], self.den * c.den)

    def __matmul__(self, other):
        return RationalMatrix.over(_products(self.nums, other.nums), self.den * other.den)

    def comm(self, other):
        ab, ba = _products(self.nums, other.nums), _products(other.nums, self.nums)
        return RationalMatrix.over([[x - y for x, y in zip(r, s)] for r, s in zip(ab, ba)],
                                   self.den * other.den)

    def trace(self):
        acc = Poly([])
        for i in range(min(self.n, self.m)):
            acc = acc + self.nums[i][i]
        return RatFunc(acc, self.den)

    def derivative(self):
        """(N' D - N D') / D^2."""
        d, dd = self.den, self.den.derivative()
        return RationalMatrix.over([[a.derivative() * d - a * dd for a in r] for r in self.nums], d * d)

    def eval(self, x):
        from .exact import Mat

        d = self.den.eval(x)
        if d == 0:  # the reduced entries decide whether x is a pole
            return Mat([[e.eval(x) for e in r] for r in self.rows])
        return Mat([[a.eval(x) / d for a in r] for r in self.nums])

    def is_zero(self):
        return not any(a.coeffs for r in self.nums for a in r)

    def laurent_coefficient(self, point, degree):
        return self.laurent_coefficients(point, degree, degree)[degree]

    def laurent_coefficients(self, point, lo, hi):
        """Laurent coefficient matrices at a point or INF for degrees lo..hi,
        as a dict degree -> Mat, from one expansion of the denominator."""
        from .exact import Mat

        tails = _laurent(self._flat(), self.den, point, hi)
        zero = Fraction(0)
        out = {}
        for p in range(lo, hi + 1):
            flat = [zero if t is None or p < t[0] else t[1][p - t[0]] for t in tails]
            out[p] = Mat(self._shape(flat))
        return out

    def order_at(self, point):
        """Pointwise minimum of entry orders (None if identically zero)."""
        return min((o for o in _orders(self._flat(), self.den, point) if o is not None), default=None)

    def poles_within(self, points):
        """``RatFunc.poles_within`` of every reduced entry, as rows (None for
        a zero entry)."""
        return self._shape(_poles_within(self._flat(), self.den, points))

    def matpow(self, p):
        if p < 0:
            raise ValueError("negative matrix power")
        acc = RationalMatrix.over([[Poly([int(i == j)]) for j in range(self.m)] for i in range(self.n)],
                                  Poly([1]))
        base = self
        while p:
            if p & 1:
                acc = acc @ base
            base = base @ base if p > 1 else base
            p >>= 1
        return acc

    def __repr__(self):
        return f"RationalMatrix({self.n}x{self.m})"
