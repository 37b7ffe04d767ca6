from fractions import Fraction as F

import pytest

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
    assert _key(RatFunc.over_poles(num, poles)) == _key(RatFunc(num, den))
    assert RatFunc.over_poles(Poly([]), poles).is_zero()
    h = RatFunc(num, den)
    assert [h.order_at(c) for c in (F(1), F(3), F(-5), F(-2), F(0))] == [-1, 0, -1, 1, 0]


def test_laurent_coefficients_match_single_degrees():
    z = rat_z()
    m = RationalMatrix([[z / (z - 1) ** 2, rat_const(0)], [(z + 1) / z, z * z]])
    for point in (F(1), F(0), INF):
        coeffs = m.laurent_coefficients(point, -3, 2)
        assert sorted(coeffs) == list(range(-3, 3))
        for p, c in coeffs.items():
            assert c.rows == tuple(tuple(e.laurent_at(point, p).get(p, 0) for e in r) for r in m.rows)
