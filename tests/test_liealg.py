import random
from fractions import Fraction

import pytest

from laxkit import liealg as la
from laxkit.exact import Mat


# ---------------------------------------------------------------------------
# root systems
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("family,rank,count", [
    ("A", 4, 6), ("B", 3, 9), ("C", 3, 9), ("D", 4, 12), ("D", 2, 2), ("G2", 2, 6),
    # n(n-1)/2 for gl(n), n^2 for B_n and C_n, n(n-1) for D_n
    ("A", 2, 1), ("A", 3, 3), ("A", 5, 10),
    ("B", 2, 4), ("B", 4, 16), ("B", 5, 25),
    ("C", 2, 4), ("C", 4, 16), ("C", 5, 25),
    ("D", 3, 6), ("D", 5, 20),
])
def test_positive_root_counts(family, rank, count):
    rs = la.matrix_realization(family, rank).root_system
    assert len(rs.positive_roots) == count


def test_highest_root_expansions_match_classical_lists():
    expected = [("G2", 2, (3, 2)), ("D", 3, (1, 1, 1)), ("D", 4, (1, 2, 1, 1)),
                ("D", 5, (1, 2, 2, 1, 1))]
    for n in (2, 3, 4, 5):
        expected.append(("B", n, (1,) + (2,) * (n - 1)))
        expected.append(("C", n, (2,) * (n - 1) + (1,)))
    for family, rank, top in expected:
        rs = la.matrix_realization(family, rank).root_system
        assert rs.expansions[rs.highest_root] == top


def test_expansions_reconstruct_roots_exactly():
    for family, rank in [("A", 3), ("B", 2), ("C", 3), ("D", 3), ("G2", 2)]:
        rs = la.matrix_realization(family, rank).root_system
        for r in rs.positive_roots:
            acc = None
            for c, a in zip(rs.expansions[r], rs.simple_roots):
                term = tuple(c * x for x in a)
                acc = term if acc is None else tuple(u + v for u, v in zip(acc, term))
            assert acc == r


def test_g2_roots_are_integral_cartan_functionals():
    alg = la.matrix_realization("g2", 2)
    rs = alg.root_system
    a1, a2 = rs.simple_roots
    assert [a1, a2] == la._simple_root_functionals(alg.kind, alg.rank) == [(1, 0), (-1, 1)]
    for r in rs.positive_roots:
        assert all(type(c) is int for c in r)


def _is_integral(m):
    return all(isinstance(x, (int, Fraction)) and Fraction(x).denominator == 1 for x in m.flatten())


def test_g2_realization_and_gradings_are_integral():
    alg = la.matrix_realization("g2", 2)
    assert all(_is_integral(b) for b in alg.basis)
    assert _is_integral(alg.sigma)
    for idx in (1, 2):
        _, dec = la.catalog_grading("g2", 2, idx)
        assert _is_integral(dec.h)


@pytest.mark.parametrize("family,rank,index,depth", [
    ("A", 3, 1, 1), ("A", 4, 2, 1),
    ("C", 3, 1, 2), ("C", 3, 3, 1),
    ("B", 3, 1, 1), ("B", 3, 3, 2),
    ("D", 4, 1, 1), ("D", 4, 4, 1),
    ("G2", 2, 1, 3), ("G2", 2, 2, 2),
])
def test_grading_depths(family, rank, index, depth):
    alg, dec = la.catalog_grading(family, rank, index)
    assert dec.depth == depth
    # positive roots (labels >= 0) sit in degrees <= 0
    assert all(d <= 0 for d, lab in zip(dec.degrees, alg.labels) if min(lab) >= 0)
    _, dual = la.catalog_grading(family, rank, index, dual=True)
    assert dual.depth == depth


def test_grading_index_out_of_range():
    with pytest.raises(ValueError):
        la.catalog_grading("A", 3, 5)


# ---------------------------------------------------------------------------
# matrix realizations
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind,rank,dim,size", [
    ("gl", 3, 9, 3), ("sl", 2, 3, 2), ("so_even", 2, 6, 4),
    ("sp", 2, 10, 4), ("so_odd", 2, 10, 5), ("g2", 2, 14, 7),
])
def test_realization_dimensions(kind, rank, dim, size):
    alg = la.matrix_realization(kind, rank)
    assert alg.dim == dim and alg.size == size


def test_defining_form_annihilates_basis():
    for kind, rank in [("so_even", 3), ("sp", 3), ("so_odd", 2), ("g2", 2)]:
        alg = la.matrix_realization(kind, rank)
        for b in alg.basis:
            assert (b.T @ alg.sigma + alg.sigma @ b).is_zero()


def test_structure_constants_close_g2():
    # every commutator has exact coordinates that rebuild it
    alg = la.matrix_realization("g2", 2)
    for xa in alg.basis:
        for xb in alg.basis:
            c = xa.comm(xb)
            coords = alg.coordinates(c)
            assert coords is not None
            assert alg.element(coords) == c


def test_cartan_basis_is_diagonal():
    for kind, rank in [("gl", 3), ("sp", 2), ("g2", 2)]:
        alg = la.matrix_realization(kind, rank)
        cartan = [b for b, lab in zip(alg.basis, alg.labels) if not any(lab)]
        assert len(cartan) == alg.cartan_dim
        for h in cartan:
            assert h.is_diagonal()


def test_unsupported_realizations_rejected():
    with pytest.raises(ValueError):
        la.matrix_realization("g2", 3)
    with pytest.raises(ValueError):
        la.matrix_realization("e8", 8)


# ---------------------------------------------------------------------------
# graded decompositions
# ---------------------------------------------------------------------------


def test_gl3_block_grading_dimensions():
    # oracle: the block picture has 1x2 and 2x1 off-diagonal blocks
    alg = la.matrix_realization("gl", 3)
    dec = la.graded_subspaces(alg, Mat.diag([-1, 0, 0]))
    assert {p: dec.dim_subspace(p) for p in sorted(dec.subspaces)} == {-1: 2, 0: 5, 1: 2}


def test_sp_depth2_grading_dimensions():
    for n in (2, 3):
        alg, dec = la.catalog_grading("sp", n, 1)
        assert dec.dim_subspace(-2) == 1
        assert dec.dim_subspace(-1) == 2 * n - 2
        assert dec.depth == 2


def test_zero_grading_element_gives_single_subspace():
    alg = la.matrix_realization("so_even", 2)
    dec = la.graded_subspaces(alg, Mat.zeros(4))
    assert dec.depth == 0
    assert dec.dim_subspace(0) == alg.dim


def test_non_integer_grading_element_rejected():
    alg = la.matrix_realization("gl", 2)
    with pytest.raises(ValueError, match=r"non-integer ad\(h\) eigenvalue 1/2: invalid"):
        la.graded_subspaces(alg, Mat.diag([Fraction(1, 2), 0]))


def test_non_cartan_element_rejected():
    alg = la.matrix_realization("gl", 2)
    with pytest.raises(ValueError, match="must be diagonal"):
        la.graded_subspaces(alg, Mat([[0, 1], [0, 0]]))


def _algebra_like(alg, basis, labels):
    """A MatrixAlgebra with the kind, form and root data of ``alg`` and the
    given basis and labels."""
    return la.MatrixAlgebra(alg.kind, alg.rank, alg.size, basis, labels, alg.sigma,
                            alg.cartan_dim, alg.root_system)


def test_graded_subspaces_error_paths():
    # after the diagonal check on h (above): its size, then per basis
    # element in order: zero, eigenvector, integer eigenvalue (above)
    alg = la.matrix_realization("gl", 2)
    h = Mat.diag([1, 0])
    with pytest.raises(ValueError, match="must be 2x2, not 3x3"):
        la.graded_subspaces(alg, Mat.diag([1, 0, 0]))
    # [[1, 1], [1, 0]] has entries of degree 0, 1 and -1 under h
    mixed = Mat([[1, 1], [1, 0]])
    labels = [(0,)] * 3
    zero_first = _algebra_like(alg, [Mat.unit(2, 0, 1), Mat.zeros(2), mixed], labels)
    with pytest.raises(ValueError, match=r"^zero basis element$"):
        la.graded_subspaces(zero_first, h)
    mixed_first = _algebra_like(alg, [Mat.unit(2, 0, 1), mixed, Mat.zeros(2)], labels)
    with pytest.raises(ValueError, match=r"not an ad\(h\) eigenvector"):
        la.graded_subspaces(mixed_first, h)


def test_closure_errors_name_the_pair_and_the_condition():
    g2 = la.matrix_realization("g2", 2)
    # G2 less one element is independent and inside the form, but not closed
    for drop in (0, 5, 13):
        basis = [b for i, b in enumerate(g2.basis) if i != drop]
        labels = [lab for i, lab in enumerate(g2.labels) if i != drop]
        part = _algebra_like(g2, basis, labels)
        a, c = next((a, c) for a in range(len(basis)) for c in range(a + 1, len(basis))
                    if part.coordinates(basis[a].comm(basis[c])) is None)
        with pytest.raises(AssertionError) as exc:
            la._verify_realization(part)
        assert str(exc.value) == (f"g2 realization is not closed: [b{a}, b{c}] (labels "
                                  f"{labels[a]}, {labels[c]}) fails the coordinates condition")
    so4 = la.matrix_realization("so_even", 2)
    off = _algebra_like(so4, [*so4.basis[:2], Mat.unit(4, 0, 1), *so4.basis[3:]], so4.labels)
    with pytest.raises(AssertionError) as exc:
        la._verify_realization(off)
    assert str(exc.value) == f"so_even basis element b2 (label {so4.labels[2]}) fails the form condition"
    twice = _algebra_like(so4, [*so4.basis, so4.basis[0]], [*so4.labels, so4.labels[0]])
    with pytest.raises(AssertionError, match="linearly dependent"):
        la._verify_realization(twice)


@pytest.mark.parametrize("kind,rank", [("so_even", 3), ("sp", 2), ("g2", 2)])
@pytest.mark.parametrize("scale", [1 << 31, Fraction(1, 3)])
def test_closure_check_stays_exact_beyond_int64(kind, rank, scale):
    # a scaled basis spans the same algebra; its entries are too large for a
    # provably exact int64 check, or not integers, so the exact scalars are used
    alg = la.matrix_realization(kind, rank)
    la._verify_realization(_algebra_like(alg, [b.scale(scale) for b in alg.basis], alg.labels))


def test_label_degrees_match_ad_eigenvalues():
    # two independent routes: root multiplicities vs exact ad(h) eigenvalues
    for kind, rank, idx in la.acceptance_catalog():
        alg, dec = la.catalog_grading(kind, rank, idx)
        for lab, d in zip(alg.labels, dec.degrees):
            assert d == -lab[idx - 1]


def test_grading_symmetry_and_total_dimension():
    for kind, rank, idx in la.acceptance_catalog():
        alg, dec = la.catalog_grading(kind, rank, idx)
        assert sum(dec.dim_subspace(p) for p in dec.subspaces) == alg.dim
        for p in dec.subspaces:
            assert dec.dim_subspace(p) == dec.dim_subspace(-p)
        # the filtration codimensions over p = -k..k-1 sum to k dim g
        codims = [alg.dim - dec.dim_filtration(p) for p in range(-dec.depth, dec.depth)]
        assert sum(codims) == dec.depth * alg.dim


@pytest.mark.parametrize("kind,rank,idx", [("gl", 3, 1), ("sp", 2, 1), ("so_odd", 2, 2), ("g2", 2, 2)])
def test_bracket_respects_grading_and_pairing_orthogonality(kind, rank, idx):
    alg, dec = la.catalog_grading(kind, rank, idx)
    for i, (bi, di) in enumerate(zip(alg.basis, dec.degrees)):
        for bj, dj in zip(alg.basis[i:], dec.degrees[i:]):
            c = bi.comm(bj)
            if not c.is_zero():
                assert set(dec.graded_components(c)) <= {di + dj}
            if di + dj != 0:
                assert (bi @ bj).trace() == 0


def test_dual_grading_flips_degrees():
    alg, dec = la.catalog_grading("gl", 3, 1)
    alg2, dec2 = la.catalog_grading("gl", 3, 1, dual=True)
    assert sorted(dec.degrees) == sorted(-d for d in dec2.degrees)


# ---------------------------------------------------------------------------
# integer identities
# ---------------------------------------------------------------------------


def test_filtration_balance_vanishes_for_the_four_cases():
    for kind, rank in [("gl", 2), ("gl", 3), ("gl", 4), ("so_even", 3), ("so_even", 4),
                       ("sp", 2), ("sp", 3)]:
        _, dec = la.catalog_grading(kind, rank, 1)
        assert la.filtration_balance_residual(dec) == 0, (kind, rank)
    _, dec = la.catalog_grading("g2", 2, 2)
    assert la.filtration_balance_residual(dec) == 0


def test_odd_orthogonal_variant():
    for rank in (2, 3):
        _, dec = la.catalog_grading("so_odd", rank, 1)
        assert la.filtration_balance_residual(dec) != 0
        assert la.filtration_balance_residual_odd(dec) == 0


def test_invariant_degree_tables_and_sum_identity():
    assert la.invariant_degrees("sp", 2) == (2, 4)
    assert la.invariant_degrees("g2", 2) == (2, 6)
    assert la.invariant_degrees("sl", 2) == (2,)
    assert la.invariant_degrees("so_even", 4) == (2, 4, 4, 6)
    for kind, rank in [("gl", 2), ("gl", 4), ("sl", 3), ("so_odd", 2), ("so_odd", 3),
                       ("sp", 2), ("sp", 3), ("so_even", 3), ("so_even", 4), ("g2", 2)]:
        assert la.degree_sum_residual(kind, rank) == 0, (kind, rank)


def test_hamiltonian_counts():
    assert la.hamiltonian_count("sp", 2, 4, 2) == 22
    assert la.hamiltonian_count("sl", 2, 0, 1) == 0  # empty divisor at genus one
    for genus in (2, 3, 4):
        for kind, rank in [("sl", 3), ("so_even", 3), ("sp", 2), ("so_odd", 2), ("g2", 2)]:
            alg = la.matrix_realization(kind, rank)
            assert la.hitchin_integral_count(kind, rank, genus) == alg.dim * (genus - 1)
        assert la.hitchin_integral_count("gl", 2, genus) == 4 * (genus - 1) + 1
        assert la.hamiltonian_count_identity_residual("sp", 2, 5, genus) == 0
        assert la.hamiltonian_count_identity_residual("gl", 3, 2, genus) == 0


def test_filtration_checks_match_the_degree_table():
    rng = random.Random(4)
    for kind, rank, idx in la.acceptance_catalog():
        alg, dec = la.catalog_grading(kind, rank, idx)
        n = alg.size
        for p in range(-dec.depth - 1, dec.depth + 1):
            for density in (0.0, 0.1, 1.0):
                rows = [[rng.randint(1, 3) if rng.random() < density else 0 for _ in range(n)]
                        for _ in range(n)]
                m = Mat(rows)
                above = [[rows[i][j] if dec.delta[i][j] > p else 0 for j in range(n)]
                         for i in range(n)]
                assert set(dec.positions_above(p)) == {
                    (i, j) for i in range(n) for j in range(n) if dec.delta[i][j] > p}
                expected = any(map(any, above))
                assert dec.has_violation(m, p) is expected
        for p in range(-dec.depth, dec.depth + 1):
            for b in dec.basis_of_filtration(p):
                assert not dec.has_violation(b, p)
