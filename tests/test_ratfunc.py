import random
from fractions import Fraction as F
from math import gcd

import pytest

from laxkit.exact import Mat
from laxkit.ratfunc import INF, Poly, RatFunc, RationalMatrix, rat_const, rat_z


def test_poly_divmod_and_gcd():
    a = Poly([2, 3, 1])   # (z+1)(z+2)
    b = Poly([1, 1])      # z+1
    q, r = a.divmod(b)
    assert r.is_zero() and q == Poly([2, 1])
    assert a.gcd(Poly([3, 4, 1])) == Poly([1, 1])  # common factor z+1, monic


def test_poly_shift_valuation():
    p = Poly([1, 2, 1])
    assert p.shift(F(-1)).valuation() == 2
    assert Poly([]).valuation() is None


def test_shift_matches_binomial_formula():
    from math import comb

    p = Poly([F(1, 3), -2, 0, 5, F(-7, 2)])
    for c in (F(1, 2), F(-2, 3), F(3), F(0)):
        want = [sum(comb(j, k) * p.coeffs[j] * c ** (j - k) for j in range(k, 5)) for k in range(5)]
        assert p.shift(c) == Poly(want)


def test_laurent_tails_at_rational_points_rebuild_the_function():
    # f minus its tail up to degree 3 at c vanishes to order > 3 there; the
    # check uses only rational-function arithmetic and zero tests
    z = rat_z()
    f = (z ** 3 - 2 * z + F(1, 3)) / ((z - F(1, 2)) ** 2 * (z + F(2, 3)))
    for c in (F(1, 2), F(-2, 3), F(3, 7), F(-5, 4)):
        tail = f.laurent_at(c, 3)
        terms = (a * (z - c) ** p if p >= 0 else a / (z - c) ** -p for p, a in tail.items())
        rest = f - sum(terms, RatFunc.zero())
        assert not rest.laurent_at(c, 3)
        m = RationalMatrix([[f, 1 / (z - c)]]).laurent_coefficients(c, -2, 3)
        assert [m[p][0, 0] for p in range(-2, 4)] == [tail.get(p, 0) for p in range(-2, 4)]


def test_geometric_series_oracle():
    z = rat_z()
    tail = (1 / (1 - z)).laurent_at(F(0), 6)
    assert all(tail[i] == 1 for i in range(7))


def test_orders_and_residues():
    z = rat_z()
    g = (z * z + 3) / ((z - 1) * (z + 2))
    # orders are the lowest degrees of the Laurent expansions
    assert min(g.laurent_at(F(1), 0)) == -1
    assert min(g.laurent_at(INF, 0)) == 0
    assert min((1 / (z * z)).laurent_at(INF, 2)) == 2
    assert min((z ** 0 * z * z * z).laurent_at(INF, 0)) == -3
    # total residue over the sphere vanishes
    assert g.residue_at(F(1)) + g.residue_at(F(-2)) + g.residue_at(INF) == 0


def test_laurent_at_infinity():
    z = rat_z()
    h = z * z / (z - 1)
    assert h.laurent_at(INF, 2) == {-1: F(1), 0: F(1), 1: F(1), 2: F(1)}
    assert h.residue_at(INF) == -1


def test_derivative_product_rule():
    z = rat_z()
    a = (z + 2) / (z * z - 3)
    b = (2 * z - 1) / (z + 5)
    assert (a * b).derivative() == a.derivative() * b + a * b.derivative()


def test_eval_at_pole_raises():
    z = rat_z()
    with pytest.raises(ZeroDivisionError):
        (1 / (z - 1)).eval(F(1))


def test_matrix_operations():
    z = rat_z()
    m = RationalMatrix([[z, 1 / (z - 1)], [rat_const(0), z * z]])
    assert m.matpow(2).rows[0][0] == z * z
    assert m.matpow(0).rows[0][1].is_zero()
    coeffs = m.laurent_coefficients(F(1), -2, -1)
    assert coeffs[-2].is_zero() and coeffs[-1][0, 1] == 1
    assert m.comm(m).is_zero()
    ev = m.eval(F(2))
    assert ev[0, 0] == 2 and ev[0, 1] == 1


def _reduced_sum(terms):
    """Entrywise reference: reduced products added one at a time."""
    acc = RatFunc(Poly([]))
    for a, b in terms:
        p = RatFunc(a.num * b.num, a.den * b.den)
        acc = RatFunc(acc.num * p.den + p.num * acc.den, acc.den * p.den)
    return acc


def _key(e):
    return e.num.coeffs, e.den.coeffs


def test_matmul_and_comm_match_entrywise_reduced_sums():
    z = rat_z()
    a = RationalMatrix([
        [1 / (z - 1), 1 / (z - 1), z / (z + 2)],
        [z * z, rat_const(0), 1 / ((z - 1) * (z + 2))],
        [rat_const(F(3, 2)), (z - 1) / (z + 2), rat_const(0)],
    ])
    b = RationalMatrix([
        [1 / (z - 1), z, rat_const(0)],
        [-1 / (z - 1), 1 / (z + 2), (z + 2) / (z - 1)],
        [rat_const(0), (z - 1) / z, rat_const(7)],
    ])
    prod = a @ b
    # entry (0, 0) cancels to zero over the shared pole 1/(z-1)^2
    assert prod.rows[0][0].is_zero() and _key(prod.rows[0][0]) == _key(RatFunc.zero())
    for x, y in ((a, b), (b, a)):
        cols = list(zip(*y.rows))
        ref = [[_reduced_sum(zip(row, col)) for col in cols] for row in x.rows]
        assert [[_key(e) for e in r] for r in (x @ y).rows] == [[_key(e) for e in r] for r in ref]
    ab, ba = a @ b, b @ a
    ref = [[RatFunc(p.num * q.den - q.num * p.den, p.den * q.den) for p, q in zip(r1, r2)]
           for r1, r2 in zip(ab.rows, ba.rows)]
    assert [[_key(e) for e in r] for r in a.comm(b).rows] == [[_key(e) for e in r] for r in ref]


def test_shortcuts_keep_the_reduced_form():
    z = rat_z()
    f = (z - 1) * (z + 2) / ((z - 3) * (z - 1) ** 2)
    g = (z + 5) / ((z - 3) * (z - 1) ** 2)
    # equal denominators, constant factors, and the factored denominator
    assert _key(f + g) == _key(RatFunc(f.num * g.den + g.num * f.den, f.den * g.den))
    assert _key(f * F(-2, 3)) == _key(RatFunc(f.num * F(-2, 3), f.den))
    num = Poly([6, -5, -2, 1])  # (z - 1)(z + 2)(z - 3)
    poles = {F(1): 2, F(3): 1, F(-5): 1}
    den = Poly([1])
    for c, k in poles.items():
        for _ in range(k):
            den = den * Poly([-c, 1])
    h = RatFunc(num, den)
    # the same function over the unreduced denominator, next to a zero entry
    m = RationalMatrix.over([[num, Poly([])]], den)
    assert _key(m.rows[0][0]) == _key(h) and _key(m.rows[0][1]) == _key(RatFunc.zero())
    # and the same Laurent tails, a pole cancelled at 3
    for c, order in zip((F(1), F(3), F(-5), F(-2), F(0)), (-1, 0, -1, 1, 0)):
        tail = h.laurent_at(c, 1)
        coeffs = m.laurent_coefficients(c, -2, 1)
        assert min(tail) == order
        assert [coeffs[p][0, 0] for p in range(-2, 2)] == [tail.get(p, 0) for p in range(-2, 2)]


def test_laurent_coefficients_match_single_degrees():
    z = rat_z()
    m = RationalMatrix([[z / (z - 1) ** 2, rat_const(0)], [(z + 1) / z, z * z]])
    for point in (F(1), F(0), INF):
        coeffs = m.laurent_coefficients(point, -3, 2)
        assert sorted(coeffs) == list(range(-3, 3))
        for p, c in coeffs.items():
            assert c.rows == tuple(tuple(e.laurent_at(point, p).get(p, 0) for e in r) for r in m.rows)


def test_eq_with_foreign_types():
    z = rat_z()
    assert not (z == None)  # noqa: E711
    assert z != None  # noqa: E711
    assert not (z == "a") and z != "a"
    assert not (z == [1]) and z != object()
    assert rat_const(2) == 2 and rat_const(F(1, 2)) == 0.5 and rat_const(F(1, 3)) == F(1, 3)


def test_hash_agrees_with_eq_for_constants():
    z = rat_z()
    for value in (3, F(1, 2), 0, -7):
        c = rat_const(value)
        assert c == value and hash(c) == hash(value)
        assert {value: "x"}.get(c) == "x"
        assert {c: "y"}.get(value) == "y"
    assert hash(rat_const(F(1, 2))) == hash(0.5)
    assert hash(z - z) == hash(0) and hash(z / z) == hash(1)
    assert {z: 1, z + 1: 2}[rat_z() + 1] == 2


def test_entries_that_cancel_the_shared_denominator():
    z = rat_z()
    a = RationalMatrix([[1 / (z - 1)]])
    b = RationalMatrix([[z - 1]])
    prod = a @ b
    # stored over (z - 1), read back reduced
    assert prod.den.degree == 1 and _key(prod.rows[0][0]) == _key(rat_const(1))
    assert prod.eval(F(1))[0, 0] == 1 and prod.eval(F(3))[0, 0] == 1
    with pytest.raises(ZeroDivisionError):
        a.eval(F(1))
    assert prod.rows[0][0].laurent_at(F(1), 1) == {0: 1} == prod.rows[0][0].laurent_at(INF, 1)
    assert not prod.is_zero()
    coeffs = prod.laurent_coefficients(F(1), -2, 1)
    assert [coeffs[p][0, 0] for p in range(-2, 2)] == [0, 0, 1, 0]
    # an entry that cancels to zero over the shared denominator
    diff = prod - RationalMatrix([[rat_const(1)]])
    assert diff.is_zero() and diff.rows[0][0].laurent_at(F(1), 1) == {}
    assert diff.laurent_coefficients(F(1), -1, 0)[-1].is_zero()


def _random_entry(rng, z):
    """A reduced rational function with poles and zeros drawn from a few
    shared points, so that sums and products cancel factors."""
    pts = (F(0), F(1), F(-2), F(1, 2))
    if rng.random() < 0.25:
        return rat_const(rng.choice([0, 0, 1, -3, F(2, 5)]))
    f = rat_const(F(rng.randint(-4, 4) or 1, rng.randint(1, 3)))
    for _ in range(rng.randint(0, 2)):
        f = f * (z - rng.choice(pts))
    for _ in range(rng.randint(0, 3)):
        f = f / (z - rng.choice(pts))
    return f


def _keys(rows):
    return [[_key(e) for e in r] for r in rows]


@pytest.mark.parametrize("seed", range(4))
def test_matpow_is_the_repeated_product(seed, monkeypatch):
    # repeated squaring from the first factor, not from the identity: the
    # numerators and denominator of L @ L @ ... @ L, the identity at p = 0,
    # and floor(log2 p) squarings plus one product per further set bit
    rng = random.Random(seed)
    z = rat_z()
    n = rng.choice([2, 3])
    a = RationalMatrix([[_random_entry(rng, z) for _ in range(n)] for _ in range(n)])
    want = RationalMatrix.over([[Poly([int(i == j)]) for j in range(n)] for i in range(n)], Poly([1]))
    products = []
    matmul = RationalMatrix.__matmul__
    monkeypatch.setattr(RationalMatrix, "__matmul__", lambda x, y: products.append(1) or matmul(x, y))
    for p in range(5):
        products.clear()
        got = a.matpow(p)
        assert len(products) == max(p.bit_length() + bin(p).count("1") - 2, 0), p
        assert (got.nums, got.den) == (want.nums, want.den), p
        want = matmul(want, a) if p else a


@pytest.mark.parametrize("seed", range(6))
def test_matrix_operations_match_entrywise_references(seed):
    import random

    rng = random.Random(seed)
    z = rat_z()
    n = rng.choice([2, 3])
    ea = [[_random_entry(rng, z) for _ in range(n)] for _ in range(n)]
    eb = [[_random_entry(rng, z) for _ in range(n)] for _ in range(n)]
    a, b = RationalMatrix(ea), RationalMatrix(eb)
    assert _keys(a.rows) == _keys(ea) and _keys(b.rows) == _keys(eb)
    cols = list(zip(*eb))
    ab = [[sum((x * y for x, y in zip(row, col)), RatFunc.zero()) for col in cols] for row in ea]
    ba = [[sum((x * y for x, y in zip(row, col)), RatFunc.zero()) for col in zip(*ea)] for row in eb]
    f = (z + 3) / (z - F(1, 2))
    refs = {
        "add": (a + b, [[x + y for x, y in zip(r, s)] for r, s in zip(ea, eb)]),
        "sub": (a - b, [[x - y for x, y in zip(r, s)] for r, s in zip(ea, eb)]),
        "neg": (-a, [[-x for x in r] for r in ea]),
        "matmul": (a @ b, ab),
        "comm": (a.comm(b), [[x - y for x, y in zip(r, s)] for r, s in zip(ab, ba)]),
        "scale": (a.scale(f), [[x * f for x in r] for r in ea]),
        "matpow": (a.matpow(2), [[sum((x * y for x, y in zip(row, col)), RatFunc.zero())
                                   for col in zip(*ea)] for row in ea]),
        "from_scalar": (RationalMatrix.from_scalar_matrix(Mat([[1, 0], [F(2, 3), -1]]), f),
                        [[f, RatFunc.zero()], [f * F(2, 3), -f]]),
    }
    pts = [F(0), F(1), F(-2), F(1, 2), F(5)]
    for name, (got, ref) in refs.items():
        assert _keys(got.rows) == _keys(ref), name
        flat = [e for r in ref for e in r]
        assert got.is_zero() == all(e.is_zero() for e in flat), name
        for c in pts + [INF]:
            coeffs = got.laurent_coefficients(c, -4, 2)
            for p in range(-4, 3):
                assert coeffs[p].rows == tuple(tuple(e.laurent_at(c, 2).get(p, 0) for e in r)
                                               for r in ref), (name, c, p)
        for x in pts:
            try:
                want = [[e.eval(x) for e in r] for r in ref]
            except ZeroDivisionError:
                with pytest.raises(ZeroDivisionError):
                    got.eval(x)
            else:
                assert got.eval(x).rows == tuple(map(tuple, want)), (name, x)


# ---------------------------------------------------------------------------
# the integer Poly against a plain Fraction reference
# ---------------------------------------------------------------------------


def _strip(cs):
    cs = [F(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _ref_add(a, b, sign=1):
    n = max(len(a), len(b))
    a, b = a + [F(0)] * (n - len(a)), b + [F(0)] * (n - len(b))
    return _strip(x + sign * y for x, y in zip(a, b))


def _ref_mul(a, b):
    out = [F(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _strip(out)


def _ref_divmod(a, b):
    q, r = [F(0)] * max(len(a) - len(b) + 1, 0), list(a)
    while len(r) >= len(b):
        c = r[-1] / b[-1]
        q[len(r) - len(b)] = c
        for i, y in enumerate(b):
            r[len(r) - len(b) + i] -= c * y
        r = _strip(r)
    return _strip(q), r


def _ref_gcd(a, b):
    while b:
        a, b = b, _ref_divmod(a, b)[1]
    return [x / a[-1] for x in a] if a else []


def _ref_eval(a, x):
    acc = F(0) if isinstance(x, (int, F)) else 0.0
    for c in reversed(a):
        acc = acc * x + c
    return acc


def _ref_shift(a, c):
    # Horner in polynomials: a(z + c)
    acc = []
    for x in reversed(a):
        acc = _ref_add(_ref_mul(acc, [c, 1]), [x])
    return acc


def _ref_series(num, den, point, upto):
    """(lead, coefficients of degrees lead..upto) of num / den at a point or
    INF, by a Fraction series inverse; None for a zero numerator."""
    if not num:
        return None
    if point is INF:
        lead, pn, pd = len(den) - len(num), num[::-1], den[::-1]
    else:
        pn, pd = _ref_shift(num, point), _ref_shift(den, point)
        vn = next(i for i, x in enumerate(pn) if x)
        vd = next(i for i, x in enumerate(pd) if x)
        lead, pn, pd = vn - vd, pn[vn:], pd[vd:]
    n = max(upto - lead + 1, 0)
    inv = [1 / pd[0]]
    for k in range(1, n):
        inv.append(-sum(pd[i] * inv[k - i] for i in range(1, min(k, len(pd) - 1) + 1)) / pd[0])
    return lead, [sum(pn[x] * inv[k - x] for x in range(min(k + 1, len(pn)))) for k in range(n)]


def _random_coeffs(rng):
    """Coefficient lists: zero, constants and denser ones, with zero gaps,
    negative and large denominators."""
    size = rng.choice([0, 1, 1, 2, 3, 4, 6])

    def scalar():
        return rng.choice([
            0, rng.randint(-9, 9), rng.randint(-10 ** 15, 10 ** 15),
            F(rng.randint(-9, 9), rng.randint(1, 9)),
            F(rng.randint(-10 ** 6, 10 ** 6), -rng.randint(1, 10 ** 12)),
            F(rng.randint(1, 5), -rng.choice([2, 4, 6])),
        ])

    return [scalar() for _ in range(size)]


def _assert_canonical(p):
    assert p.d > 0 and all(type(x) is int for x in p.n)
    assert not p.n or p.n[-1] != 0
    assert p.n or p.d == 1
    assert gcd(p.d, *p.n) == 1


def _same(p, ref):
    _assert_canonical(p)
    return list(p.coeffs) == _strip(ref)


@pytest.mark.parametrize("seed", range(8))
def test_integer_poly_matches_a_fraction_reference(seed):
    rng = random.Random(seed)
    points = [F(0), F(1), F(-2, 3), F(7, -5), F(10 ** 9 + 7, 3 ** 11)]
    for _ in range(60):
        ca, cb = _random_coeffs(rng), _random_coeffs(rng)
        a, b = Poly(ca), Poly(cb)
        ra, rb = _strip(ca), _strip(cb)
        assert _same(a, ra) and _same(b, rb)
        assert _same(a + b, _ref_add(ra, rb)) and _same(a - b, _ref_add(ra, rb, -1))
        assert _same(-a, [-x for x in ra])
        assert _same(a * b, _ref_mul(ra, rb))
        for s in (0, 3, -7, F(-5, 6), F(10 ** 10, 3)):
            assert _same(a * s, [x * s for x in ra]) and _same(s * a, [x * s for x in ra])
        if rb:
            q, r = a.divmod(b)
            rq, rr = _ref_divmod(ra, rb)
            assert _same(q, rq) and _same(r, rr)
            assert _same(a // b, rq) and _same(a % b, rr)
        else:
            with pytest.raises(ZeroDivisionError):
                a.divmod(b)
        # a gcd with a shared factor, and one with a constant
        shared = _ref_mul(ra, _ref_mul(rb, [F(-2, 3), 1]))
        for x, y in ((a, b), (Poly(shared), a * Poly([F(-2, 3), 1])), (a, Poly([5]))):
            assert _same(x.gcd(y), _ref_gcd(list(x.coeffs), list(y.coeffs)))
        assert _same(a.derivative(), [i * x for i, x in enumerate(ra)][1:])
        for c in points:
            assert _same(a.shift(c), _ref_shift(ra, c))
            got = a.eval(c)
            assert type(got) is F and got == _ref_eval(ra, c)
        for x in (0.37, -2.5, 1e3):
            assert a.eval(x) == _ref_eval(ra, x)
        assert a.valuation() == next((i for i, x in enumerate(ra) if x), None)
        assert a.degree == len(ra) - 1 and a.is_zero() == (not ra)
        assert (a == Poly(ra)) and hash(a) == hash(Poly(ra))


@pytest.mark.parametrize("seed", range(6))
def test_laurent_tails_match_a_fraction_reference(seed):
    rng = random.Random(seed)
    roots = [F(0), F(1), F(-2, 3), F(5, 7)]
    for _ in range(25):
        num = Poly(_random_coeffs(rng))
        den = Poly([rng.choice([1, F(-3, 4), F(2, 9)])])
        for _ in range(rng.randint(0, 3)):
            den = den * Poly([-rng.choice(roots), rng.choice([1, 2, -3])])
        f = RatFunc(num, den)
        rn, rd = list(f.num.coeffs), list(f.den.coeffs)
        m = RationalMatrix([[f, 1 / (rat_z() - F(1))], [f * F(2, 3), rat_const(0)]])
        for point in roots + [F(-9, 4), INF]:
            for upto in (-2, 0, 3):
                ref = _ref_series(rn, rd, point, upto)
                want = {} if ref is None else {ref[0] + k: c for k, c in enumerate(ref[1]) if c}
                assert f.laurent_at(point, upto) == want, (num, den, point, upto)
            if point is INF:
                assert f.residue_at(INF) == -want.get(1, 0)
            else:
                assert f.residue_at(point) == want.get(-1, 0)
            coeffs = m.laurent_coefficients(point, -3, 2)
            for p, c in coeffs.items():
                assert all(type(x) is F for x in c.flatten())
                assert c.rows == tuple(tuple(e.laurent_at(point, 2).get(p, 0) for e in r) for r in m.rows)


@pytest.mark.parametrize("seed", range(4))
def test_residue_is_the_matching_laurent_coefficient(seed):
    # residue_at reads one coefficient of the integer expansion: degree -1 at
    # a finite point, minus degree 1 at INF; at a point with no pole, and for
    # the zero function, it is Fraction(0)
    rng = random.Random(seed)
    roots = [F(0), F(1), F(-2, 3), F(5, 7)]
    for i in range(30):
        den = Poly([rng.choice([1, F(-3, 4), F(2, 9)])])
        for _ in range(rng.randint(0, 4)):
            den = den * Poly([-rng.choice(roots), rng.choice([1, 2, -3])])
        f = RatFunc(Poly(_random_coeffs(rng)) if i % 10 else Poly([]), den)
        for point in roots + [F(-9, 4), F(10 ** 9 + 7, 3 ** 11), INF]:
            got = f.residue_at(point)
            want = -f.laurent_at(INF, 1).get(1, 0) if point is INF else f.laurent_at(point, -1).get(-1, 0)
            assert type(got) is F and got == want, (f, point)


def test_canonical_form_and_constant_hashes():
    a, b = Poly([F(1, 2), 1]), Poly([F(2, 4), F(3, 3)])
    assert a == b and hash(a) == hash(b) and (a.n, a.d) == ((1, 2), 2)
    assert Poly([0, 0]) == Poly([]) and (Poly([]).n, Poly([]).d) == ((), 1)
    assert Poly([F(-3, 6), F(2, -4)]) == Poly([F(-1, 2), F(-1, 2)])
    assert (Poly([F(-1, 2), F(-1, 2)]).n, Poly([F(-1, 2), F(-1, 2)]).d) == ((-1, -1), 2)
    assert hash(rat_const(F(1, 2))) == hash(0.5)
    # a monic denominator with rational coefficients
    f = RatFunc(Poly([1]), Poly([F(-1, 2), 1]))
    assert f.den.coeffs == (F(-1, 2), F(1)) and (f.den.n, f.den.d) == ((-1, 2), 2)
    assert RatFunc(Poly([2]), Poly([-1, 2])) == f
