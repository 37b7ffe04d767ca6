import random
from fractions import Fraction

import pytest

from laxkit import exact
from laxkit.exact import ColumnSolver, Mat, _fits_int64, mat_inverse, nullspace, rank, rref


def test_mat_ops():
    a = Mat([[1, 2], [3, 4]])
    b = Mat([[0, 1], [1, 0]])
    assert (a @ b).rows == ((2, 1), (4, 3))
    assert a.comm(a).is_zero()
    assert a.T.rows == ((1, 3), (2, 4))
    assert a.trace() == 5
    assert Mat.identity(2) @ a == a


def test_rref_and_nullspace():
    rows = [[1, 2, 3], [2, 4, 6], [1, 0, 1]]
    red, piv = rref(rows)
    assert piv == [0, 1]
    null = nullspace(rows)
    assert len(null) == 1
    v = null[0]
    for r in rows:
        assert sum(x * y for x, y in zip(r, v)) == 0


def test_rank_bareiss_matches_field_rank():
    rows = [[Fraction(1, 2), 2, 3], [1, 4, 6], [0, 1, 1]]
    assert rank(rows) == 2


def test_column_solver_solutions_and_rejections():
    cols = [[1, 0, 2], [0, 1, 1]]
    s = ColumnSolver(cols)
    x = s.solve([3, 4, 10])
    assert x == [3, 4]
    assert s.solve([1, 1, 1]) is None  # outside the span


def test_mat_inverse():
    m = Mat([[1, 2], [3, 5]])
    inv = mat_inverse(m)
    assert (m @ inv) == Mat.identity(2)
    with pytest.raises(ValueError):
        mat_inverse(Mat([[1, 2], [2, 4]]))


def _rref_over_q(rows, pivot_cols=None):
    """Plain Gauss-Jordan elimination over Fraction, first nonzero pivot row."""
    a = [[Fraction(x) for x in r] for r in rows]
    nrows = len(a)
    stop = (len(a[0]) if nrows else 0) if pivot_cols is None else pivot_cols
    pivots = []
    r = 0
    for c in range(stop):
        pr = next((i for i in range(r, nrows) if a[i][c]), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        a[r] = [x / a[r][c] for x in a[r]]
        for i in range(nrows):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return a, pivots


def _random_rank_deficient(rng):
    nrows, ncols = rng.randint(1, 8), rng.randint(1, 9)
    rank_ = rng.randint(0, min(nrows, ncols))

    def scalar():
        return rng.choice([0, 0, rng.randint(-6, 6), Fraction(rng.randint(-9, 9), rng.randint(1, 7))])

    gens = [[scalar() for _ in range(ncols)] for _ in range(max(rank_, 1))]
    rows = []
    for _ in range(nrows):
        if rng.random() < 0.2:
            rows.append([0] * ncols)
            continue
        cs = [rng.choice([rng.randint(-3, 3), Fraction(rng.randint(-3, 3), rng.randint(1, 4))]) for _ in gens]
        rows.append([sum(c * g[j] for c, g in zip(cs, gens)) for j in range(ncols)])
    return rows


def test_rref_matches_rational_gauss_jordan():
    rng = random.Random(4)
    for _ in range(1000):
        rows = _random_rank_deficient(rng)
        ncols = len(rows[0])
        for pivot_cols in (None, rng.randint(0, ncols)):
            before = [list(r) for r in rows]
            got = rref(rows, pivot_cols)
            assert got == _rref_over_q(rows, pivot_cols), (rows, pivot_cols)
            assert rows == before  # input not modified


def test_rref_is_independent_of_the_row_order():
    # without pivot_cols the reduced form is unique: every row permutation
    # gives the same pivots and rank rows, and zero rows below them
    rng = random.Random(7)
    for _ in range(300):
        rows = _random_rank_deficient(rng)
        red, pivots = rref(rows)
        for _ in range(3):
            perm = rows[:]
            rng.shuffle(perm)
            got, got_pivots = rref(perm)
            assert got_pivots == pivots
            assert got[:len(pivots)] == red[:len(pivots)]
            assert all(not x for row in got[len(pivots):] for x in row)


def test_rank_counts_the_pivots_of_rref():
    # forward elimination only, against the pivots of the full reduction, on
    # seeded int and Fraction matrices with dependent and zero rows
    rng = random.Random(25)
    for _ in range(400):
        rows = _random_rank_deficient(rng)
        ncols = len(rows[0])
        ints = [[rng.randint(-4, 4) for _ in range(ncols)] for _ in rows]
        for m in (rows, ints, rows + rows[:1], [[0] * ncols] + rows):
            before = [list(r) for r in m]
            assert rank(m) == len(rref(m)[1]), m
            assert m == before  # input not modified
    for m in ([], [[0]], [[3]], [[0], [Fraction(2, 3)], [-1]], [[0, 0], [0, 0]], [[]]):
        assert rank(m) == len(rref(m)[1]), m


def test_rref_empty_and_zero_systems():
    assert rref([]) == ([], [])
    assert rref([[0, 0], [0, 0]]) == ([[0, 0], [0, 0]], [])
    assert nullspace([], 2) == [[1, 0], [0, 1]]


@pytest.mark.parametrize("ncols", [2, 4])
def test_nullspace_rejects_a_width_other_than_the_rows(ncols):
    # a smaller ncols used to drop columns silently, a larger one to fail with IndexError
    with pytest.raises(ValueError, match=f"ncols {ncols} differs from the row width 3"):
        nullspace([[1, 2, 3]], ncols)
    assert nullspace([[1, 2, 3]], 3) == [[-2, 1, 0], [-3, 0, 1]]


def _reference_product(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))] for i in range(len(a))]


def _reference_comm(a, b):
    ab, ba = _reference_product(a, b), _reference_product(b, a)
    return [[x - y for x, y in zip(r, s)] for r, s in zip(ab, ba)]


def _all_int(m):
    return all(type(x) is int for r in m.rows for x in r)


def test_fraction_entries_are_multiplied_exactly():
    half = Mat([[Fraction(1, 2)]])
    assert (half @ Mat([[3]])).rows == ((Fraction(3, 2),),)
    a = Mat([[Fraction(1, 2), 1], [0, Fraction(-1, 3)]])
    b = Mat([[1, 2], [3, 4]])
    assert (a @ b).rows == tuple(map(tuple, _reference_product(a.rows, b.rows)))
    assert (a @ b)[0, 0] == Fraction(7, 2)
    assert a.comm(b).rows == tuple(map(tuple, _reference_comm(a.rows, b.rows)))
    assert not _fits_int64(a.rows, b.rows, 2)


def test_mixed_int_and_fraction_operands():
    rng = random.Random(5)
    for _ in range(20):
        a = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)]
        b = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)]
        b[rng.randrange(3)][rng.randrange(3)] = Fraction(rng.randint(-9, 9), rng.randint(2, 5))
        ma, mb = Mat(a), Mat(b)
        assert (ma @ mb).rows == tuple(map(tuple, _reference_product(a, b)))
        assert (mb @ ma).rows == tuple(map(tuple, _reference_product(b, a)))
        assert ma.comm(mb).rows == tuple(map(tuple, _reference_comm(a, b)))


def _scalar(rng):
    """An int or a Fraction, with large and negative denominators among them."""
    return rng.choice([
        0, rng.randint(-9, 9), rng.randint(-10 ** 12, 10 ** 12),
        Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
        Fraction(rng.randint(-10 ** 6, 10 ** 6), -rng.randint(1, 10 ** 9)),
        Fraction(rng.choice([-4, 6, 10]), 2),
    ])


@pytest.mark.parametrize("seed", range(4))
def test_rational_products_match_reference_sums(seed):
    # mixed int/Fraction operands: each entry is the reference sum, an int
    # exactly when it is integral and a Fraction otherwise
    rng = random.Random(seed)
    for _ in range(30):
        n, k, m = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
        a = [[_scalar(rng) for _ in range(k)] for _ in range(n)]
        b = [[_scalar(rng) for _ in range(m)] for _ in range(k)]
        c = [[_scalar(rng) for _ in range(n)] for _ in range(n)]
        d = [[_scalar(rng) for _ in range(n)] for _ in range(n)]
        for got, want in ((Mat(a) @ Mat(b), _reference_product(a, b)),
                          (Mat(c).comm(Mat(d)), _reference_comm(c, d))):
            assert got.rows == tuple(map(tuple, want))
            for x in got.flatten():
                assert type(x) is (int if Fraction(x).denominator == 1 else Fraction), x


def test_integer_operands_keep_the_int64_path(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("integer operands reached the rational path")

    monkeypatch.setattr(exact, "_rational_product", fail)
    rng = random.Random(8)
    a = [[rng.randint(-50, 50) for _ in range(4)] for _ in range(4)]
    b = [[rng.randint(-50, 50) for _ in range(4)] for _ in range(4)]
    assert (Mat(a) @ Mat(b)).rows == tuple(map(tuple, _reference_product(a, b)))
    assert Mat(a).comm(Mat(b)).rows == tuple(map(tuple, _reference_comm(a, b)))
    assert _all_int(Mat(a) @ Mat(b)) and _all_int(Mat(a).comm(Mat(b)))


def _dense_solve(columns, v):
    """Gauss-Jordan on [B | v]: the solution with free coordinates 0, or None."""
    ncols = len(columns)
    red, pivots = _rref_over_q([[c[i] for c in columns] + [v[i]] for i in range(len(v))], ncols)
    if any(row[-1] for row in red[len(pivots):]):
        return None
    x = [0] * ncols
    for r, c in enumerate(pivots):
        x[c] = red[r][-1]
    return x


@pytest.mark.parametrize("seed", range(4))
def test_column_solver_matches_a_dense_solve(seed):
    # the columns of a rank-deficient rational matrix; v in their span, a
    # random v (mostly outside it) and zero
    rng = random.Random(seed)
    rejected = 0
    for _ in range(25):
        rows = _random_rank_deficient(rng)
        cols, nrows = [list(c) for c in zip(*rows)], len(rows)
        solver = ColumnSolver(cols)
        coef = [rng.randint(-3, 3) for _ in cols]
        inside = [sum(k * Fraction(c[i]) for k, c in zip(coef, cols)) for i in range(nrows)]
        outside = [_scalar(rng) for _ in range(nrows)]
        for v in (inside, outside, [0] * nrows):
            x = solver.solve(v)
            assert x == _dense_solve(cols, v), (cols, v)
            if x is None:
                rejected += 1
            else:
                assert [sum(c[i] * xi for c, xi in zip(cols, x)) for i in range(nrows)] == v
        assert solver.solve(inside) is not None
    assert rejected > 0


def test_entries_beyond_the_int64_bound_stay_exact():
    rng = random.Random(7)
    big = 1 << 31
    a = [[rng.choice((big, -big, big - 1, 3)) for _ in range(8)] for _ in range(8)]
    b = [[rng.choice((big, -big, 1 - big, 5)) for _ in range(8)] for _ in range(8)]
    a[0] = [big] * 8
    b = [[big] * 8 if k == 0 else b[k] for k in range(8)]
    for k in range(8):
        b[k][0] = big
    assert not _fits_int64(a, b, 8)
    prod = Mat(a) @ Mat(b)
    assert prod.rows == tuple(map(tuple, _reference_product(a, b)))
    assert prod[0, 0] == 8 << 62 and _all_int(prod)
    c = Mat(a).comm(Mat(b))
    assert c.rows == tuple(map(tuple, _reference_comm(a, b))) and _all_int(c)


def test_int64_path_up_to_the_bound():
    top = (1 << 31) - 1
    a = [[top, -top], [top, top]]
    # 2 * top**2 < 2**63: the product runs on int64 and is exact
    assert _fits_int64(a, a, 2)
    prod = Mat(a) @ Mat(a)
    assert prod.rows == tuple(map(tuple, _reference_product(a, a))) and _all_int(prod)
    assert prod[0, 1] == -2 * top * top < -(1 << 62)
    # a commutator doubles the term count: 4 * top**2 >= 2**63
    assert not _fits_int64(a, a, 4)
    b = [[top, 0], [-top, top]]
    assert Mat(a).comm(Mat(b)).rows == tuple(map(tuple, _reference_comm(a, b)))


def test_wide_integer_operands_match_the_triple_loop():
    # all-int operands past the int64 bound (the 40-120-bit entries of the
    # scaled tangency series) are multiplied in Python ints directly
    rng = random.Random(11)
    for n in (1, 2, 4, 7):
        for _ in range(4):
            a, b = ([[rng.choice((-1, 1)) * rng.getrandbits(rng.randint(40, 120)) for _ in range(n)]
                     for _ in range(n)] for _ in range(2))
            assert _fits_int64(a, b, n) is False
            prod, comm = Mat(a) @ Mat(b), Mat(a).comm(Mat(b))
            assert prod.rows == tuple(map(tuple, _reference_product(a, b))) and _all_int(prod)
            assert comm.rows == tuple(map(tuple, _reference_comm(a, b))) and _all_int(comm)
            col = [[rng.getrandbits(100)] for _ in range(n)]
            assert (Mat(a) @ Mat(col)).rows == tuple(map(tuple, _reference_product(a, col)))


def test_products_return_python_ints():
    rng = random.Random(3)
    for n in (2, 5, 8):
        a = [[rng.randint(-50, 50) for _ in range(n)] for _ in range(n)]
        b = [[rng.randint(-50, 50) for _ in range(n)] for _ in range(n)]
        assert _fits_int64(a, b, 2 * n)
        for m in (Mat(a) @ Mat(b), Mat(a).comm(Mat(b)), Mat.zeros(n) @ Mat(b)):
            assert _all_int(m)
        assert (Mat(a) @ Mat(b)).rows == tuple(map(tuple, _reference_product(a, b)))
        assert Mat(a).comm(Mat(b)).rows == tuple(map(tuple, _reference_comm(a, b)))


def test_non_square_and_empty_shapes():
    row, col = Mat([[1, 2, 3]]), Mat([[4], [5], [6]])
    assert (row @ col).rows == ((32,),)
    assert (col @ row).rows == ((4, 8, 12), (5, 10, 15), (6, 12, 18))
    assert _all_int(row @ col) and _all_int(col @ row)
    assert (row @ Mat([[Fraction(1, 2)], [0], [1]])).rows == ((Fraction(7, 2),),)
    empty = Mat([])
    assert (empty @ empty).n == 0 and empty.comm(empty).n == 0
    assert not _fits_int64(empty.rows, empty.rows, 0)
    flat = Mat([[], []])
    assert (flat @ empty).rows == ((), ())


def test_mismatched_shapes_raise():
    with pytest.raises(ValueError, match=r"1x2 by a 1x2"):
        Mat([[1, 2]]) @ Mat([[3, 4]])
    with pytest.raises(ValueError, match=r"2x3 and 3x2"):
        Mat([[1, 2, 3], [4, 5, 6]]).comm(Mat([[1, 2], [3, 4], [5, 6]]))
    with pytest.raises(ValueError, match=r"2x2 and 3x3"):
        Mat.identity(2).comm(Mat.identity(3))
