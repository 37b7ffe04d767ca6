from fractions import Fraction as F

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
        assert rest.is_zero() or rest.order_at(c) > 3
        m = RationalMatrix([[f, 1 / (z - c)]]).laurent_coefficients(c, -2, 3)
        assert [m[p][0, 0] for p in range(-2, 4)] == [tail.get(p, 0) for p in range(-2, 4)]


def test_geometric_series_oracle():
    z = rat_z()
    tail = (1 / (1 - z)).laurent_at(F(0), 6)
    assert all(tail[i] == 1 for i in range(7))


def test_orders_and_residues():
    z = rat_z()
    g = (z * z + 3) / ((z - 1) * (z + 2))
    assert g.order_at(F(1)) == -1
    assert g.order_at(INF) == 0
    assert (1 / (z * z)).order_at(INF) == 2
    assert (z ** 0 * z * z * z).order_at(INF) == -3
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


def test_poles_within():
    z = rat_z()
    g = 1 / ((z - 3) * (z - 4) ** 2)
    orders, leftover = g.poles_within([F(3), F(4)])
    assert orders == {F(3): 1, F(4): 2} and leftover == 0
    orders, leftover = g.poles_within([F(3)])
    assert orders == {F(3): 1} and leftover == 2


def test_eval_at_pole_raises():
    z = rat_z()
    with pytest.raises(ZeroDivisionError):
        (1 / (z - 1)).eval(F(1))


def test_matrix_operations():
    z = rat_z()
    m = RationalMatrix([[z, 1 / (z - 1)], [rat_const(0), z * z]])
    assert m.matpow(2).rows[0][0] == z * z
    assert m.matpow(0).rows[0][1].is_zero()
    assert m.order_at(F(1)) == -1
    assert m.laurent_coefficient(F(1), -1)[0, 1] == 1
    assert m.comm(m).is_zero()
    assert m.trace() == z + z * z
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
    pts = [F(1), F(3), F(-5), INF]
    assert m.poles_within(pts) == [[h.poles_within(pts), None]]
    assert [h.order_at(c) for c in (F(1), F(3), F(-5), F(-2), F(0))] == [-1, 0, -1, 1, 0]
    assert [m.order_at(c) for c in (F(1), F(3), F(-5), F(-2), F(0))] == [-1, 0, -1, 1, 0]


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
    assert prod.order_at(F(1)) == 0 == prod.rows[0][0].order_at(F(1))
    assert prod.order_at(INF) == 0
    assert prod.rows[0][0].poles_within([F(1), INF]) == ({}, 0)
    assert prod.poles_within([F(1), INF]) == [[({}, 0)]]
    assert not prod.is_zero()
    coeffs = prod.laurent_coefficients(F(1), -2, 1)
    assert [coeffs[p][0, 0] for p in range(-2, 2)] == [0, 0, 1, 0]
    # an entry that cancels to zero over the shared denominator
    diff = prod - RationalMatrix([[rat_const(1)]])
    assert diff.is_zero() and diff.order_at(F(1)) is None and diff.poles_within([F(1)]) == [[None]]
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
        "derivative": (a.derivative(), [[x.derivative() for x in r] for r in ea]),
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
            orders = [e.order_at(c) for e in flat if not e.is_zero()]
            assert got.order_at(c) == (min(orders) if orders else None), (name, c)
            coeffs = got.laurent_coefficients(c, -4, 2)
            for p in range(-4, 3):
                assert coeffs[p].rows == tuple(tuple(e.laurent_at(c, 2).get(p, 0) for e in r)
                                               for r in ref), (name, c, p)
        for listed in (pts + [INF], pts[:2], [INF]):
            assert got.poles_within(listed) == [[None if e.is_zero() else e.poles_within(listed)
                                                 for e in r] for r in ref], (name, listed)
        for x in pts:
            try:
                want = [[e.eval(x) for e in r] for r in ref]
            except ZeroDivisionError:
                with pytest.raises(ZeroDivisionError):
                    got.eval(x)
            else:
                assert got.eval(x).rows == tuple(map(tuple, want)), (name, x)
    assert a.trace() == sum((ea[i][i] for i in range(n)), RatFunc.zero())
