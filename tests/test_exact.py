import random
from fractions import Fraction

import pytest

from laxkit.exact import ColumnSolver, Mat, mat_inverse, nullspace, rank, rref


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


def test_rref_empty_and_zero_systems():
    assert rref([]) == ([], [])
    assert rref([[0, 0], [0, 0]]) == ([[0, 0], [0, 0]], [])
    assert nullspace([], 2) == [[1, 0], [0, 1]]
