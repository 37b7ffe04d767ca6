"""Exact univariate rational functions over the rationals.

The genus-zero realization lives on the projective line: every algebra
element is a matrix of rational functions in the global coordinate z, and
all pole/zero bookkeeping (divisors, Laurent tails, residues) is exact.
The point at infinity is the sentinel :data:`INF`, with orders measured in
the local coordinate 1/z.
"""

from __future__ import annotations

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
        if self.is_zero() or other.is_zero():
            return Poly([])
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Poly(out)

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
        if not c:
            return self
        # repeated synthetic division by (z - c), in place (Horner's scheme)
        a = list(self.coeffs)
        for i in range(len(a) - 1):
            for j in range(len(a) - 2, i - 1, -1):
                a[j] += c * a[j + 1]
        return Poly(a)

    def reversed_coeffs(self, upto=None):
        """Coefficients of z^deg * p(1/z), optionally padded to length upto+1."""
        rc = list(reversed(self.coeffs))
        if upto is not None:
            rc += [Fraction(0)] * (upto + 1 - len(rc))
        return Poly(rc)

    def valuation(self):
        """Order of vanishing at 0 (inf for the zero polynomial)."""
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return None

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        return "Poly(" + " + ".join(f"{c}*z^{i}" for i, c in enumerate(self.coeffs) if c) + ")"


def _divide_out(coeffs, c, limit=None):
    """Divide the nonzero polynomial with these coefficients by (z - c), by
    synthetic division, as often as it divides (at most ``limit`` times).
    Returns (times, quotient coefficients)."""
    k = 0
    while k != limit:
        q = [0] * (len(coeffs) - 1)
        acc = 0
        for i in range(len(coeffs) - 1, 0, -1):
            acc = acc * c + coeffs[i]
            q[i - 1] = acc
        if acc * c + coeffs[0] != 0:
            break
        coeffs = q
        k += 1
    return k, coeffs


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

    @classmethod
    def over_poles(cls, num, poles):
        """num / prod (z - c)^k over poles = {c: k}, reduced by dividing out
        the pole factors at which num vanishes; the same function as
        ``RatFunc(num, den)``, without a polynomial gcd."""
        if num.is_zero():
            return cls.zero()
        coeffs = num.coeffs
        den = Poly([1])
        for c, k in poles.items():
            common, coeffs = _divide_out(coeffs, c, k)
            for _ in range(k - common):
                den = den * Poly([-c, 1])
        return cls(Poly(coeffs), den, reduce=False)

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
        other = _coerce(other)
        return self.num == other.num and self.den == other.den

    def __hash__(self):
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
        if self.is_zero():
            return None
        if point is INF:
            return self.den.degree - self.num.degree
        return _divide_out(self.num.coeffs, point)[0] - _divide_out(self.den.coeffs, point)[0]

    def laurent_at(self, point, upto):
        """Laurent coefficients at a finite point or INF, degrees <= upto.

        Returns a dict degree -> Fraction covering the pole tail and the
        regular part up to ``upto`` in the local coordinate (z - point, or
        1/z at infinity).
        """
        if self.is_zero():
            return {}
        if point is INF:
            d = max(self.num.degree, self.den.degree)
            p = self.num.reversed_coeffs(d)
            q = self.den.reversed_coeffs(d)
            shift_pow = self.den.degree - self.num.degree
            f = RatFunc(p, q)
            tail = f.laurent_at(Fraction(0), upto - shift_pow)
            return {e + shift_pow: c for e, c in tail.items() if e + shift_pow <= upto}
        p = self.num.shift(point)
        q = self.den.shift(point)
        vp, vq = p.valuation(), q.valuation()
        lead = vp - vq
        if lead > upto:
            return {}
        nterms = upto - lead + 1
        pc = list(p.coeffs[vp:vp + nterms])
        pc += [Fraction(0)] * (nterms - len(pc))
        qc = list(q.coeffs[vq:vq + nterms])
        qc += [Fraction(0)] * (nterms - len(qc))
        qinv = _series_inverse(qc, nterms)
        out = {}
        for n in range(nterms):
            s = sum(pc[i] * qinv[n - i] for i in range(n + 1))
            if s:
                out[lead + n] = s
        return out

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
        orders = {}
        den = self.den
        for c in points:
            if c is INF:
                o = self.order_at(INF)
                if o is not None and o < 0:
                    orders[INF] = -o
                continue
            mult, coeffs = _divide_out(den.coeffs, c)
            den = Poly(coeffs)
            if mult:
                orders[c] = mult
        return orders, den.degree

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


def _add_unreduced(acc, num, den):
    """acc + num/den on unreduced (num, den) pairs (acc None for zero);
    numerators add directly over equal denominators."""
    if acc is None:
        return num, den
    n, d = acc
    if d == den:
        return n + num, d
    return n * den + num * d, d * den


def _reduce(acc):
    return RatFunc.zero() if acc is None else RatFunc(*acc)


class RationalMatrix:
    """Matrix of rational functions (the genus-zero algebra elements)."""

    __slots__ = ("rows", "n", "m")

    def __init__(self, rows):
        self.rows = tuple(tuple(e if isinstance(e, RatFunc) else _coerce(e) for e in r) for r in rows)
        self.n = len(self.rows)
        self.m = len(self.rows[0]) if self.rows else 0

    @classmethod
    def zeros(cls, n, m=None):
        m = n if m is None else m
        z = RatFunc.zero()
        return cls([[z] * m for _ in range(n)])

    @classmethod
    def from_scalar_matrix(cls, mat, f):
        """Constant matrix times a scalar rational function."""
        return cls([[f * Fraction(e) if e else RatFunc.zero() for e in row] for row in mat.rows])

    def __add__(self, other):
        return RationalMatrix(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)]
        )

    def __sub__(self, other):
        return RationalMatrix(
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)]
        )

    def __neg__(self):
        return RationalMatrix([[-a for a in r] for r in self.rows])

    def scale(self, c):
        return RationalMatrix([[a * c for a in r] for r in self.rows])

    def _product_sums(self, other):
        """Entries of self @ other as unreduced (num, den) pairs, None where
        no product term is nonzero."""
        ocols = list(zip(*other.rows))
        out = []
        for row in self.rows:
            orow = []
            for col in ocols:
                acc = None
                for a, b in zip(row, col):
                    if not (a.num.is_zero() or b.num.is_zero()):
                        acc = _add_unreduced(acc, a.num * b.num, a.den * b.den)
                orow.append(acc)
            out.append(orow)
        return out

    def __matmul__(self, other):
        # one reduction per entry; reduced forms are unique, so this equals
        # the sum of the reduced products
        return RationalMatrix([[_reduce(e) for e in r] for r in self._product_sums(other)])

    def comm(self, other):
        out = []
        for ra, rb in zip(self._product_sums(other), other._product_sums(self)):
            row = []
            for a, b in zip(ra, rb):
                if b is not None:
                    a = _add_unreduced(a, -b[0], b[1])
                row.append(_reduce(a))
            out.append(row)
        return RationalMatrix(out)

    @property
    def T(self):
        return RationalMatrix(list(zip(*self.rows)))

    def trace(self):
        acc = RatFunc.zero()
        for i in range(min(self.n, self.m)):
            acc = acc + self.rows[i][i]
        return acc

    def derivative(self):
        return RationalMatrix([[e.derivative() for e in r] for r in self.rows])

    def eval(self, x):
        from .exact import Mat

        return Mat([[e.eval(x) for e in r] for r in self.rows])

    def is_zero(self):
        return all(e.is_zero() for r in self.rows for e in r)

    def laurent_coefficient(self, point, degree):
        return self.laurent_coefficients(point, degree, degree)[degree]

    def laurent_coefficients(self, point, lo, hi):
        """Laurent coefficient matrices at a point for degrees lo..hi, as a
        dict degree -> Mat, from one expansion of each entry."""
        from .exact import Mat

        tails = [[e.laurent_at(point, hi) for e in r] for r in self.rows]
        zero = Fraction(0)
        return {
            p: Mat([[t.get(p, zero) for t in r] for r in tails]) for p in range(lo, hi + 1)
        }

    def order_at(self, point):
        """Pointwise minimum of entry orders (None if identically zero)."""
        orders = [e.order_at(point) for r in self.rows for e in r]
        orders = [o for o in orders if o is not None]
        return min(orders) if orders else None

    def matpow(self, p):
        if p < 0:
            raise ValueError("negative matrix power")
        acc = RationalMatrix([[rat_const(1 if i == j else 0) for j in range(self.m)] for i in range(self.n)])
        base = self
        while p:
            if p & 1:
                acc = acc @ base
            base = base @ base if p > 1 else base
            p >>= 1
        return acc

    def __repr__(self):
        return f"RationalMatrix({self.n}x{self.m})"
