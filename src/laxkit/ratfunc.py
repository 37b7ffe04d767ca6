"""Exact univariate rational functions over the rationals.

The genus-zero realization lives on the projective line: every algebra
element is a matrix of rational functions in the global coordinate z, and
all pole/zero bookkeeping (divisors, Laurent tails, residues) is exact.
The point at infinity is the sentinel :data:`INF`, with orders measured in
the local coordinate 1/z.

A polynomial is a tuple of integer numerators over one positive integer
denominator, and every operation on it runs in integer arithmetic.  A
``Fraction`` is made only for a scalar that leaves the module: a value, a
Laurent coefficient or a residue, one per coefficient.
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction

from .exact import Mat, _ints

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

_ZERO = Fraction(0)


def _canon(n, d):
    """(n, d) in canonical form for the integer list n over the nonzero
    integer d: trailing zeros stripped, d > 0, gcd(content(n), d) = 1, and
    d = 1 for the zero polynomial."""
    while n and not n[-1]:
        n.pop()
    if not n:
        return (), 1
    if d < 0:
        n, d = [-x for x in n], -d
    if d > 1:
        g = math.gcd(d, *n)
        if g > 1:
            n, d = [x // g for x in n], d // g
    return tuple(n), d


def _poly(n, d=1):
    """The polynomial with integer numerators n (a list) over d."""
    p = object.__new__(Poly)
    p.n, p.d = _canon(n, d)
    return p


def _primitive(n):
    """The integer list n divided by its content."""
    g = math.gcd(*n)
    return [x // g for x in n] if g > 1 else list(n)


def _pdiv(a, b):
    """(m, q, r) with m a = b q + r and deg r < deg b, for integer
    coefficient lists a and b (b nonzero), by pseudo-division: each step
    scales the remainder by lead(b) / gcd(lead(b), lead(r)) only, so m
    stays 1 when b's leading coefficient divides every remainder's."""
    r, nb, lc = list(a), len(b), b[-1]
    q = [0] * max(0, len(r) - nb + 1)
    m = 1
    for top in range(len(r) - 1, nb - 2, -1):
        c = r[top]
        if not c:
            continue
        g = math.gcd(lc, c)
        s, t = lc // g, c // g
        if s != 1:
            r = [x * s for x in r]
            q = [x * s for x in q]
            m *= s
        k = top - nb + 1
        q[k] = t
        for j, y in enumerate(b):
            r[k + j] -= t * y
    r = r[:nb - 1]
    while r and not r[-1]:
        r.pop()
    return m, q, r


class Poly:
    """Dense polynomial over the rationals, ascending order.

    It is held as integer numerators ``n`` (no trailing zeros) over one
    positive integer denominator ``d`` with gcd(content(n), d) = 1, so
    equal polynomials have equal (n, d); the zero polynomial is ((), 1).
    ``coeffs`` gives the coefficients as Fractions, made on each read."""

    __slots__ = ("n", "d")

    def __init__(self, coeffs):
        cs = [c if isinstance(c, (int, Fraction)) else Fraction(c) for c in coeffs]
        self.n, self.d = _canon(*_ints(cs))

    @classmethod
    def const(cls, c):
        return cls([c])

    @classmethod
    def x(cls):
        return _poly([0, 1])

    @property
    def coeffs(self):
        d = self.d
        return tuple(Fraction(x, d) for x in self.n)

    @property
    def degree(self):
        return len(self.n) - 1  # -1 for the zero polynomial

    def is_zero(self):
        return not self.n

    def _combine(self, other, sign):
        a, b, d = self.n, other.n, self.d
        if d != other.d:
            g = math.gcd(d, other.d)
            fa, fb = other.d // g, d // g
            a = [x * fa for x in a]
            b = [x * fb for x in b]
            d *= fa
        if sign < 0:
            b = [-x for x in b]
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return _poly(out, d)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        out = object.__new__(Poly)
        out.n, out.d = tuple(-x for x in self.n), self.d
        return out

    def _scaled(self, p, q):
        """This polynomial times the rational p / q (q != 0)."""
        return _poly([x * p for x in self.n], self.d * q)

    def __mul__(self, other):
        if isinstance(other, Poly):
            return _dot((self,), (other,))
        if isinstance(other, (int, Fraction)):
            return self._scaled(other.numerator, other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, Poly) and self.n == other.n and self.d == other.d

    def __hash__(self):
        return hash((self.n, self.d))

    def divmod(self, other):
        """(quotient, remainder) by integer pseudo-division: m a = b q + r
        gives self = other (q db / (m da)) + r / (m da)."""
        if not other.n:
            raise ZeroDivisionError("polynomial division by zero")
        m, q, r = _pdiv(self.n, other.n)
        den = m * self.d
        return _poly([x * other.d for x in q], den), _poly(r, den)

    def __mod__(self, other):
        return self.divmod(other)[1]

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def gcd(self, other):
        """Monic greatest common divisor (zero for two zero polynomials),
        by pseudo-remainders of primitive integer vectors."""
        a, b = _primitive(self.n), _primitive(other.n)
        while b:
            a, b = b, _primitive(_pdiv(a, b)[2])
        return _poly(a, a[-1] if a else 1)

    def derivative(self):
        return _poly([i * x for i, x in enumerate(self.n)][1:], self.d)

    def eval(self, x):
        """The value at x: an exact Fraction at an int or Fraction x (Horner
        in integers), and otherwise x's own arithmetic on the coefficients."""
        if not isinstance(x, (int, Fraction)):
            acc, d = 0.0, self.d
            for c in reversed(self.n):
                acc = acc * x + c / d
            return acc
        if not self.n:
            return _ZERO
        a, b = x.numerator, x.denominator
        acc, pw = 0, 1
        for c in reversed(self.n):
            acc = acc * a + c * pw
            pw *= b
        return Fraction(acc, self.d * (pw // b))

    def shift(self, c):
        """Compose with z -> z + c (Taylor recentering at c)."""
        return _poly(*_taylor(self, c, len(self.n))) if c and self.n else self

    def valuation(self):
        """Order of vanishing at 0 (None for the zero polynomial)."""
        return next((i for i, c in enumerate(self.n) if c), None)

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        return "Poly(" + " + ".join(f"{c}*z^{i}" for i, c in enumerate(self.coeffs) if c) + ")"


def _taylor(p, c, n):
    """(t, den): the first n Taylor coefficients at c of the nonzero
    polynomial p as integers t over one denominator.  With c = a/b and
    p = P/L, q(w) = b^deg P(w/b) has integer coefficients; its Taylor
    coefficients q_k at a (repeated synthetic division by (w - a), in
    place, stopped after n passes) give p's as t_k / den with
    t_k = q_k b^k and den = L b^deg."""
    if not isinstance(c, (int, Fraction)):
        c = Fraction(c)
    a, b, deg = c.numerator, c.denominator, len(p.n) - 1
    q = list(p.n)
    if b != 1:
        pw = [b ** k for k in range(deg + 1)]
        q = [x * pw[deg - j] for j, x in enumerate(q)]
    for i in range(min(n, deg) if a else 0):
        for j in range(deg - 1, i - 1, -1):
            q[j] += a * q[j + 1]
    top = min(n, deg + 1)
    if b == 1:
        return q[:top], p.d
    return [q[k] * pw[k] for k in range(top)], p.d * pw[deg]


def _valuation(p, c):
    """Order of vanishing at c of a nonzero polynomial."""
    return next(i for i, x in enumerate(_taylor(p, c, len(p.n))[0]) if x)


def _series_inverse(u, nterms):
    """Integers w with 1/u = sum_k w_k t^k / u_0^(k+1) for the integer
    power series u (u_0 != 0): w_0 = 1 and
    w_k = -sum_{i >= 1} u_i u_0^(i-1) w_(k-i)."""
    u0 = u[0]
    v = [x * u0 ** (i - 1) for i, x in enumerate(u[:nterms]) if i]
    w = [1]
    for k in range(1, nterms):
        w.append(-sum(v[i - 1] * w[k - i] for i in range(1, min(k, len(v)) + 1)))
    return w


def _laurent(nums, den, point, hi):
    """Laurent expansions at a point or INF of every nums[k] / den as integer
    numerators over one positive denominator: (parts, D), parts[k] being
    (lead, c) with c[i] / D the coefficient of degree lead + i, lead..hi
    (None for a zero numerator).

    Each entry is t^lead (pc(t) / dp) / (u(t) / du) in the local coordinate
    t, for integer series pc and u with u(0) != 0 (at INF, t = 1/z and the
    numerators are reversed).  The denominator is shifted and its series
    inverted once, as integers w_k over u_0^(k+1); each numerator is
    expanded to degree hi only and convolved with it in integers.  The
    coefficient du sum_x pc_x u_0^x w_(k-x) / (dp u_0^(k+1)) is brought over
    D = lcm(dp) u_0^n / gcd(du, lcm(dp) u_0^n), n the longest expansion, by
    one integer factor per (entry, degree)."""
    if point is INF:
        u, du = den.n[::-1], den.d
        parts = [(den.degree - a.degree, a.n[::-1], a.d) if a.n else None for a in nums]
    else:
        t, du = _taylor(den, point, len(den.n))
        vq = next(i for i, x in enumerate(t) if x)
        u = t[vq:]
        parts = []
        for a in nums:
            if not a.n:
                parts.append(None)
                continue
            t, da = _taylor(a, point, hi + vq + 1)
            vp = next((i for i, x in enumerate(t) if x), None)
            parts.append(None if vp is None else (vp - vq, t[vp:], da))
    nterms = max([hi - p[0] + 1 for p in parts if p] + [1])
    w, u0 = _series_inverse(u, nterms), u[0]
    pw = [1]
    for _ in range(nterms):
        pw.append(pw[-1] * u0)
    lcm = math.lcm(*[p[2] for p in parts if p])
    den = lcm * pw[nterms]
    g = math.gcd(du, den) * (1 if den > 0 else -1)
    den, f = den // g, du // g
    out = []
    for part in parts:
        if part is None:
            out.append(None)
            continue
        lead, pc, dp = part
        top = max(hi - lead + 1, 0)
        pc = [x * pw[i] for i, x in enumerate(pc[:top])]
        fp = f * (lcm // dp)
        coeffs = []
        for k in range(top):
            s = sum(pc[x] * w[k - x] for x in range(min(k + 1, len(pc))))
            coeffs.append(fp * pw[nterms - k - 1] * s if s else 0)
        out.append((lead, coeffs))
    return out, den


def _residue(num, den, point):
    """Residue of (num / den) dz at a point or INF, for a quotient that need
    not be reduced: one coefficient of the integer expansion, degree -1 at a
    finite point and minus degree 1 in 1/z at INF."""
    degree = 1 if point is INF else -1
    (t,), d = _laurent([num], den, point, degree)
    c = 0 if t is None or degree < t[0] else t[1][degree - t[0]]
    if not c:
        return _ZERO
    return Fraction(-c if point is INF else c, d)


_ONE = _poly([1])


class RatFunc:
    """Reduced quotient of polynomials, denominator monic."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None, reduce=True):
        if not isinstance(num, Poly):
            num = Poly.const(num)
        if den is None:
            den = _ONE
        elif not isinstance(den, Poly):
            den = Poly.const(den)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if reduce:
            g = num.gcd(den)
            if g.degree > 0:
                num = num // g
                den = den // g
            lead = den.n[-1]
            if lead != den.d:
                # den = D / d has the leading coefficient lead / d
                num = num._scaled(den.d, lead)
                den = _poly(list(den.n), lead)
        self.num = num
        self.den = den

    @classmethod
    def zero(cls):
        return cls(_poly([]), _ONE, reduce=False)

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
            return RatFunc(self.num._scaled(other.num.n[0], other.num.d), self.den, reduce=False)
        if self.num.degree == 0 and self.den.degree == 0:
            return RatFunc(other.num._scaled(self.num.n[0], self.num.d), other.den, reduce=False)
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
        out = RatFunc(_ONE)
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
        if self.den == _ONE and self.num.degree <= 0:
            return hash(Fraction(self.num.n[0], self.num.d) if self.num.n else 0)
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

    def laurent_at(self, point, upto):
        """Laurent coefficients at a finite point or INF, degrees <= upto.

        Returns a dict degree -> Fraction of the nonzero coefficients of the
        pole tail and of the regular part up to ``upto`` in the local
        coordinate (z - point, or 1/z at infinity).
        """
        (t,), d = _laurent([self.num], self.den, point, upto)
        return {} if t is None else {t[0] + k: Fraction(c, d) for k, c in enumerate(t[1]) if c}

    def residue_at(self, point):
        """Residue of (this function) dz at the point; at infinity this is
        minus the coefficient of 1/z in the expansion, the degree-1
        coefficient in the local coordinate 1/z.  Only that one coefficient
        is made a Fraction."""
        return _residue(self.num, self.den, point)

    def __repr__(self):
        return f"RatFunc({self.num!r}/{self.den!r})"


def _coerce(x):
    if isinstance(x, RatFunc):
        return x
    return RatFunc(Poly.const(x), _ONE, reduce=False)


def rat_z():
    return RatFunc(Poly.x(), _ONE, reduce=False)


def rat_const(c):
    return RatFunc(Poly.const(c), _ONE, reduce=False)


def _dot(row, col):
    """sum_k row[k] * col[k] over polynomials, accumulated in integers over
    one common denominator."""
    out, den = [], 1
    for a, b in zip(row, col):
        if a.n and b.n:
            d = a.d * b.d
            f = 1
            if d != den:
                lcm = math.lcm(den, d)
                if lcm != den:
                    out = [x * (lcm // den) for x in out]
                    den = lcm
                f = lcm // d
            if len(out) < len(a.n) + len(b.n) - 1:
                out += [0] * (len(a.n) + len(b.n) - 1 - len(out))
            for i, x in enumerate(a.n):
                if x:
                    x *= f
                    for j, y in enumerate(b.n):
                        out[i + j] += x * y
    return _poly(out, den)


def _trace_dot(a, b):
    """Numerator of tr(A B) = sum_ij a[i][j] b[j][i] for numerator matrices a
    and b: one ``_dot`` over the entry pairs, with no matrix product."""
    return _dot([x for r in a for x in r], [x for c in zip(*b) for x in c])


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
        den = _ONE  # the lcm of the entries' denominators
        for e in (e for r in entries for e in r):
            if e.num.n and e.den != den:
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
        return cls.over([[_poly([])] * (n if m is None else m) for _ in range(n)], _ONE)

    @classmethod
    def from_scalar_matrix(cls, mat, f):
        """Constant matrix times a scalar rational function."""
        f = _coerce(f)
        return cls.over([[f.num * Fraction(e) for e in row] for row in mat.rows], f.den)

    @property
    def rows(self):
        """The entries as reduced ``RatFunc``s."""
        zero = RatFunc.zero()
        return tuple(tuple(RatFunc(a, self.den) if a.n else zero for a in r) for r in self.nums)

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
        """[A, B]: entry (i, j) is one ``_dot`` of 2n pairs, the row i of A
        next to the row i of B against the column j of B next to the negated
        column j of A, with no product matrix."""
        a, b = self.nums, other.nums
        cols = [cb + tuple(-x for x in ca) for cb, ca in zip(zip(*b), zip(*a))]
        return RationalMatrix.over([[_dot(ra + rb, c) for c in cols] for ra, rb in zip(a, b)],
                                   self.den * other.den)

    def eval(self, x):
        d = self.den.eval(x)
        if d == 0:  # the reduced entries decide whether x is a pole
            return Mat([[e.eval(x) for e in r] for r in self.rows])
        return Mat([[a.eval(x) / d for a in r] for r in self.nums])

    def is_zero(self):
        return not any(a.n for r in self.nums for a in r)

    def laurent_numerators(self, point, lo, hi):
        """(rows, d): the Laurent coefficient at a point or INF of degree p,
        lo <= p <= hi, is the integer matrix rows[p] over d, from one
        expansion of the denominator."""
        tails, d = _laurent(self._flat(), self.den, point, hi)
        return {p: self._shape([0 if t is None or p < t[0] else t[1][p - t[0]] for t in tails])
                for p in range(lo, hi + 1)}, d

    def laurent_coefficients(self, point, lo, hi):
        """Laurent coefficient matrices at a point or INF for degrees lo..hi,
        as a dict degree -> Mat of Fractions."""
        rows, d = self.laurent_numerators(point, lo, hi)
        return {p: Mat([[Fraction(x, d) if x else _ZERO for x in r] for r in m]) for p, m in rows.items()}

    def matpow(self, p):
        """The p-th power by repeated squaring, starting from the first
        factor it multiplies (the identity only for p = 0)."""
        if p < 0:
            raise ValueError("negative matrix power")
        if not p:
            return RationalMatrix.over([[_poly([int(i == j)]) for j in range(self.m)] for i in range(self.n)],
                                       _ONE)
        acc, base = None, self
        while p:
            if p & 1:
                acc = base if acc is None else acc @ base
            p >>= 1
            if p:
                base = base @ base
        return acc

    def __repr__(self):
        return f"RationalMatrix({self.n}x{self.m})"
