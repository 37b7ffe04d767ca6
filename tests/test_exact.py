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
