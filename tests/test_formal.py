import random
from fractions import Fraction

import pytest

from laxkit import formal as fm
from laxkit import liealg as la
from laxkit.exact import Mat


@pytest.fixture(scope="module")
def rng():
    return random.Random(20240817)


def test_commutator_antisymmetry_and_bilinearity(rng):
    alg, dec = la.catalog_grading("sp", 2, 1)
    a = fm.random_lax_expansion(dec, rng)
    b = fm.random_lax_expansion(dec, rng)
    assert fm.commutator(a, a).is_zero()
    lhs = fm.commutator(a + b, b)
    rhs = fm.commutator(a, b) + fm.commutator(b, b)
    t = min(lhs.trunc, rhs.trunc)
    for p in range(lhs.low, t + 1):
        assert (lhs.coefficient(p) - rhs.coefficient(p)).is_zero()


def test_truncation_bookkeeping(rng):
    alg, dec = la.catalog_grading("gl", 2, 1)
    a = fm.random_lax_expansion(dec, rng, trunc=3)
    b = fm.random_lax_expansion(dec, rng, trunc=1)
    c = fm.commutator(a, b)
    assert c.trunc == min(3 + (-1), 1 + (-1))
    with pytest.raises(ValueError):
        c.coefficient(c.trunc + 1)


def test_random_pairs_commute_into_valid_expansions(rng):
    for kind, rank, idx in la.acceptance_catalog():
        alg, dec = la.catalog_grading(kind, rank, idx)
        for _ in range(5):
            c = fm.commutator(fm.random_lax_expansion(dec, rng), fm.random_lax_expansion(dec, rng))
            assert fm.validate_lax(c) == [], (kind, rank, idx)


def test_validate_lax_reports_violation_level():
    alg, dec = la.catalog_grading("gl", 2, 1)
    bad = fm.MatrixLaurent(dec, {-1: Mat.unit(2, 0, 0)}, 1)
    assert fm.validate_lax(bad) == [(-1, 0)]
    too_deep = fm.MatrixLaurent(dec, {-2: Mat.unit(2, 0, 1)}, 1)
    assert fm.validate_lax(too_deep) == [(-2, None)]


def test_filtration_containment_is_valid():
    # a depth-k coefficient holding only a higher-filtration component is fine
    alg, dec = la.catalog_grading("sp", 2, 1)
    g_m1 = dec.basis_of_subspace(-1)[0]
    e = fm.MatrixLaurent(dec, {-2 + 1: g_m1}, 1)  # g_{-1} component at degree -1
    assert fm.validate_lax(e) == []
    e2 = fm.MatrixLaurent(dec, {-2: dec.basis_of_subspace(-2)[0] + g_m1}, 1)
    # g_{-1} at degree -2 violates
    assert fm.validate_lax(e2) == [(-2, -1)]


def _full_series(mop):
    """nu*h/z plus the regular part of M, as one MatrixLaurent."""
    dec = mop.series.dec
    return mop.series + fm.MatrixLaurent(dec, {-1: dec.h.scale(mop.nu)}, mop.series.trunc)


@pytest.mark.parametrize("kind,rank,idx", [("gl", 3, 1), ("sp", 2, 1), ("g2", 2, 2)])
def test_mop_bracket_bottom_coefficient(kind, rank, idx, rng):
    alg, dec = la.catalog_grading(kind, rank, idx)
    k = dec.depth
    L = fm.random_lax_expansion(dec, rng, trunc=k + 1)
    M = fm.random_mop(dec, rng, trunc=k + 1)
    br = fm.commutator(L, _full_series(M))
    assert br.low >= -k - 1
    assert (br.coefficient(-k - 1) - L.coefficient(-k).scale(k * M.nu)).is_zero()


@pytest.mark.parametrize("kind,rank,idx", [("gl", 3, 1), ("so_odd", 2, 2), ("sp", 2, 1), ("sp", 3, 1),
                                           ("g2", 2, 2), ("g2", 2, 1)])
def test_tangency_relations_consistency(kind, rank, idx, rng):
    # oracle: the series commutator [L, nu h/z + M] matches the coefficients
    # the point-motion relations predict, at every degree -depth-1..0
    alg, dec = la.catalog_grading(kind, rank, idx)
    L = fm.random_lax_expansion(dec, rng, trunc=dec.depth + 1)
    M = fm.random_mop(dec, rng, trunc=dec.depth + 1)
    bracket = fm.commutator(L, _full_series(M))
    predicted = fm.predicted_bracket(L, M)
    assert predicted.trunc == 0
    for p in range(-dec.depth - 1, 1):
        assert bracket.coefficient(p) == predicted.coefficient(p), p


def test_validate_mop_reads_the_regular_part():
    # nu*h/z is allowed at degree -1; the regular part obeys the filtration
    # below degree 0 and is free from degree 0 on
    alg, dec = la.catalog_grading("sp", 2, 1)
    g_m1, g_p1 = dec.basis_of_subspace(-1)[0], dec.basis_of_subspace(1)[0]
    ok = fm.MOpExpansion(Fraction(5), fm.MatrixLaurent(dec, {-1: g_m1, 0: g_p1}, 1))
    assert fm.validate_mop(ok) == []
    bad = fm.MOpExpansion(Fraction(5), fm.MatrixLaurent(dec, {-3: g_m1, -2: g_m1 + g_p1}, 1))
    assert fm.validate_mop(bad) == [(-3, None), (-2, -1), (-2, 1)]


def test_tangency_zero_case():
    alg, dec = la.catalog_grading("gl", 2, 1)
    L = fm.MatrixLaurent(dec, {}, 2)
    M = fm.MOpExpansion(Fraction(0), fm.MatrixLaurent(dec, {}, 2))
    assert fm.predicted_bracket(L, M).is_zero()


def test_pole_elimination_removes_negative_degrees(rng):
    for kind, rank, idx in la.acceptance_catalog():
        alg, dec = la.catalog_grading(kind, rank, idx)
        L = fm.random_lax_expansion(dec, rng, trunc=dec.depth + 2)
        out = fm.eliminate_poles(L)
        assert all(p >= 0 for p in out.coeffs), (kind, rank, idx)


def test_pole_elimination_single_component_shift():
    alg, dec = la.catalog_grading("sp", 2, 1)
    bottom = dec.basis_of_subspace(-2)[0]
    e = fm.MatrixLaurent(dec, {-2: bottom}, 2)
    out = fm.eliminate_poles(e)
    assert out.degrees() == [0]
    assert (out.coefficient(0) - bottom).is_zero()


def test_pole_elimination_roundtrip(rng):
    alg, dec = la.catalog_grading("gl", 3, 1)
    L = fm.random_lax_expansion(dec, rng, trunc=4)
    back = fm.eliminate_poles(fm.eliminate_poles(L), inverse=True)
    for p in range(-dec.depth, back.trunc + 1):
        assert (back.coefficient(p) - L.coefficient(p)).is_zero()


def test_second_member_pole_elimination_counterexample():
    # a degree-0 coefficient with a positive-degree component regrades below 0
    alg, dec = la.catalog_grading("gl", 3, 1)
    g_plus = dec.basis_of_subspace(1)[0]
    m = fm.MatrixLaurent(dec, {0: g_plus}, 2)
    out = fm.eliminate_poles(m)
    assert any(p < 0 for p in out.coeffs)


def test_group_elements_are_exact_symmetries(rng):
    for kind, rank in [("so_even", 2), ("sp", 2), ("so_odd", 2)]:
        alg = la.matrix_realization(kind, rank)
        g = fm.random_group_element(alg, rng)
        assert (g.T @ alg.sigma @ g) == alg.sigma
    alg = la.matrix_realization("g2", 2)
    g = fm.random_group_element(alg, rng)
    assert (g.T @ alg.sigma @ g) == alg.sigma
    # conjugation by the exact group element preserves algebra membership
    x = alg.basis[5]
    from laxkit.exact import mat_inverse

    assert alg.coordinates(g @ x @ mat_inverse(g)) is not None


@pytest.mark.parametrize("kind,rank,idx", [
    ("gl", 2, 1), ("gl", 3, 1), ("so_even", 3, 1), ("so_odd", 2, 1), ("sp", 2, 1), ("sp", 3, 1),
])
def test_residue_form_holds_under_random_conjugation(kind, rank, idx, rng):
    alg, dec = la.catalog_grading(kind, rank, idx)
    for _ in range(6):
        g = fm.random_group_element(alg, rng)
        e = fm.conjugate_series(fm.random_lax_expansion(dec, rng, trunc=2), g)
        rep = fm.validate_tyurin_form(alg, dec, e, g)
        assert rep.ok, rep.violations


def test_residue_form_g2_standard_frame(rng):
    alg, dec = la.catalog_grading("g2", 2, 2)
    for _ in range(6):
        e = fm.random_lax_expansion(dec, rng, trunc=2)
        rep = fm.validate_tyurin_form(alg, dec, e)
        assert rep.ok, rep.violations
    with pytest.raises(ValueError):
        alg3, dec3 = la.catalog_grading("g2", 2, 1)
        fm.validate_tyurin_form(alg3, dec3, fm.random_lax_expansion(dec3, rng))


def test_residue_form_detects_violations(rng):
    alg, dec = la.catalog_grading("gl", 3, 1)
    L = fm.random_lax_expansion(dec, rng, trunc=1)
    cc = dict(L.coeffs)
    cc[-1] = L.coefficient(-1) + Mat.unit(3, 1, 1)
    rep = fm.validate_tyurin_form(alg, dec, fm.MatrixLaurent(dec, cc, L.trunc))
    assert not rep.ok
    # squared residue vanishes for the valid gl form
    Lg = fm.conjugate_series(L, fm.random_group_element(alg, rng))
    assert (Lg.coefficient(-1) @ Lg.coefficient(-1)).is_zero()


def test_sp_degree_one_condition_checked(rng):
    alg, dec = la.catalog_grading("sp", 2, 1)
    L = fm.random_lax_expansion(dec, rng, trunc=2)
    # corrupt the degree-1 coefficient with the top graded component
    top = dec.basis_of_subspace(2)[0]
    cc = dict(L.coeffs)
    cc[1] = L.coefficient(1) + top
    rep = fm.validate_tyurin_form(alg, dec, fm.MatrixLaurent(dec, cc, 2))
    assert "alpha^t sigma L_1 alpha != 0" in rep.violations


def _reference_commutator(a, b):
    """Coefficients of [a, b] from plain Python sums over the entries."""
    t = min(a.trunc + b.low, b.trunc + a.low)
    n = a.dec.alg.size
    out = {}
    for p, ma in a.coeffs.items():
        for q, mb in b.coeffs.items():
            if p + q > t:
                continue
            acc = out.setdefault(p + q, [[0] * n for _ in range(n)])
            x, y = ma.rows, mb.rows
            for i in range(n):
                for j in range(n):
                    acc[i][j] += sum(x[i][k] * y[k][j] - y[i][k] * x[k][j] for k in range(n))
    return t, {p: tuple(map(tuple, m)) for p, m in out.items() if any(map(any, m))}


def test_commutator_matches_plain_python_sums():
    rng = random.Random(9)
    for kind, rank, idx in la.acceptance_catalog():
        alg, dec = la.catalog_grading(kind, rank, idx)
        for _ in range(20):
            a, b = fm.random_lax_expansion(dec, rng), fm.random_lax_expansion(dec, rng)
            c = fm.commutator(a, b)
            t, ref = _reference_commutator(a, b)
            assert c.trunc == t
            assert {p: m.rows for p, m in c.coeffs.items()} == ref, (kind, rank, idx)
            assert all(type(x) is int for m in c.coeffs.values() for r in m.rows for x in r)


def _dense_combination(pool, rng, lo, hi, size):
    """sum c b over whole basis matrices, one rng.randint(lo, hi) per element
    of the pool in order; None when every c is zero."""
    acc, drawn = Mat.zeros(size), False
    for b in pool:
        c = rng.randint(lo, hi)
        if c:
            acc, drawn = acc + b.scale(c), True
    return acc if drawn else None


def _dense_series(dec, rng, trunc, pool):
    size, coeffs = dec.alg.size, {}
    for p in range(-dec.depth, trunc + 1):
        acc = _dense_combination(pool(p), rng, -3, 3, size)
        if acc is not None and not acc.is_zero():
            coeffs[p] = acc
    return fm.MatrixLaurent(dec, coeffs, trunc)


def _dense_lax(dec, rng, trunc):
    return _dense_series(dec, rng, trunc, dec.basis_of_filtration)


def _dense_mop(dec, rng, trunc):
    pool = lambda p: dec.basis_of_filtration(p) if p < 0 else dec.alg.basis
    series = _dense_series(dec, rng, trunc, pool)
    return fm.MOpExpansion(Fraction(rng.randint(-3, 3)), series)


@pytest.mark.parametrize("seed", [1, 2])
def test_generators_match_a_dense_reference(seed):
    # the generators add c v at the nonzero entries of each basis element
    # only; the dense sum over whole matrices must give the same series from
    # the same draws, and leave the rng in the same state
    for kind, rank, idx in la.acceptance_catalog():
        alg, dec = la.catalog_grading(kind, rank, idx)
        got_rng, ref_rng = random.Random(seed), random.Random(seed)
        for trunc in (dec.depth, dec.depth + 2):
            for _ in range(3):
                got = fm.random_lax_expansion(dec, got_rng, trunc=trunc)
                want = _dense_lax(dec, ref_rng, trunc)
                assert (got.trunc, got.coeffs) == (want.trunc, want.coeffs), (kind, rank, idx)
                got = fm.random_mop(dec, got_rng, trunc=trunc)
                want = _dense_mop(dec, ref_rng, trunc)
                assert got.nu == want.nu, (kind, rank, idx)
                assert (got.series.trunc, got.series.coeffs) == (want.series.trunc, want.series.coeffs)
        assert got_rng.getstate() == ref_rng.getstate(), (kind, rank, idx)


# Tyurin-form violations, one condition broken at a time in the standard
# frame (alpha = e_0); the gl pairs break two conditions that cannot fail
# alone, and the G2 orthogonality relations are the A-block shape entries
# (1, 1) and (2, 2)

E = Mat.unit


@pytest.mark.parametrize("coeffs,want", [
    ({-1: E(3, 0, 1)}, []),
    ({-1: E(3, 0, 1) + E(3, 2, 1)}, ["residue is not alpha beta^t"]),
    ({-1: E(3, 0, 1) + E(3, 0, 0)}, ["beta^t alpha != 0", "residue does not square to zero"]),
    ({-1: E(3, 0, 1) + E(3, 1, 2)}, ["residue is not alpha beta^t", "residue does not square to zero"]),
    ({-1: E(3, 0, 1), 0: E(3, 1, 0)}, ["alpha is not an eigenvector of L_0"]),
])
def test_gl_residue_form_violations(coeffs, want):
    alg, dec = la.catalog_grading("gl", 3, 1)
    rep = fm.validate_tyurin_form(alg, dec, fm.MatrixLaurent(dec, coeffs, 1))
    assert rep.violations == want and rep.ok == (not want)


def _form_violations(kind, rank, idx, w2=None, w1=None, l0=None, l1=None, g=None):
    """Violations of the series with L_{-2} = w2 sigma, L_{-1} = w1 sigma, L_0
    and L_1 (zero where not given)."""
    alg, dec = la.catalog_grading(kind, rank, idx)
    coeffs = {0: l0, 1: l1}
    coeffs.update({p: w @ alg.sigma for p, w in ((-2, w2), (-1, w1)) if w is not None})
    e = fm.MatrixLaurent(dec, {p: m for p, m in coeffs.items() if m is not None}, 1)
    return fm.validate_tyurin_form(alg, dec, e, g).violations


@pytest.mark.parametrize("kind,s", [("so_even", 2), ("so_odd", 3)])
def test_orthogonal_residue_form_violations(kind, s):
    # sigma e_0 = e_s; beta = e_1 is sigma-orthogonal to alpha = e_0
    n = 4 if kind == "so_even" else 5

    def violations(**kw):
        return _form_violations(kind, 2, 1, **kw)

    assert violations(w1=E(n, 0, 1) - E(n, 1, 0)) == []
    assert violations(g=Mat.identity(n) + E(n, s, 0)) == ["alpha^t sigma alpha != 0"]
    assert violations(w1=E(n, 0, 0)) == ["L_{-1} sigma^{-1} is not skew"]
    assert violations(w1=E(n, 1, 2) - E(n, 2, 1)) == [
        "residue is not (alpha beta^t - beta alpha^t) sigma"]
    assert violations(w1=E(n, 0, s) - E(n, s, 0)) == ["beta^t sigma alpha != 0"]
    assert violations(l0=E(n, 1, 0)) == ["alpha is not an eigenvector of L_0"]


def test_symplectic_residue_form_violations():
    # sigma e_0 = -e_2; the depth-2 grading by the first simple root
    def violations(**kw):
        return _form_violations("sp", 2, 1, **kw)

    assert violations(w2=E(4, 0, 0), w1=E(4, 0, 1) + E(4, 1, 0)) == []
    assert violations(w2=E(4, 1, 1)) == ["second-order residue is not nu alpha alpha^t sigma"]
    assert violations(w1=E(4, 0, 1)) == ["L_{-1} sigma^{-1} is not symmetric"]
    assert violations(w1=E(4, 1, 1)) == ["residue is not (alpha beta^t + beta alpha^t) sigma"]
    assert violations(w1=E(4, 0, 2) + E(4, 2, 0)) == ["beta^t sigma alpha != 0"]
    assert violations(l0=E(4, 1, 0)) == ["alpha is not an eigenvector of L_0"]
    assert violations(l1=E(4, 2, 0)) == ["alpha^t sigma L_1 alpha != 0"]


@pytest.mark.parametrize("coeffs,want", [
    ({-2: E(7, 2, 3) - E(7, 6, 5)}, []),
    ({-2: E(7, 2, 3)}, ["second-order residue is outside the highest-root line"]),
    ({-1: E(7, 1, 0)}, ["first-order a1-block is not parallel to the invariant direction"]),
    ({-1: E(7, 4, 0)}, ["first-order a2-block is not parallel to the invariant direction"]),
    ({-1: E(7, 1, 1)}, ["first-order A-block entry (0, 0) outside the residue shape"]),
    ({-1: E(7, 2, 2)}, ["first-order A-block entry (1, 1) outside the residue shape"]),
    ({-1: E(7, 3, 3)}, ["first-order A-block entry (2, 2) outside the residue shape"]),
    ({-1: E(7, 2, 2) + E(7, 3, 3)}, ["first-order A-block entry (1, 1) outside the residue shape",
                                     "first-order A-block entry (2, 2) outside the residue shape"]),
    ({0: E(7, 5, 0)}, ["eigen relation alpha1^t a2 = 0 fails"]),
    ({0: E(7, 3, 0)}, ["eigen relation alpha2^t a1 = 0 fails"]),
    ({0: E(7, 1, 2)}, ["alpha1 is not an eigenvector of the A-block"]),
    ({0: E(7, 3, 1)}, ["alpha2 is not an eigenvector of the transposed A-block"]),
])
def test_g2_residue_form_violations(coeffs, want):
    alg, dec = la.catalog_grading("g2", 2, 2)
    rep = fm.validate_tyurin_form(alg, dec, fm.MatrixLaurent(dec, coeffs, 1))
    assert rep.violations == want and rep.ok == (not want)


def test_residue_form_frames_and_depths_are_checked():
    alg, dec = la.catalog_grading("g2", 2, 2)
    g = fm.random_group_element(alg, random.Random(2))
    with pytest.raises(ValueError, match="standard frame only"):
        fm.validate_tyurin_form(alg, dec, fm.MatrixLaurent(dec, {}, 1), g)
    alg, dec = la.catalog_grading("sp", 2, 2)
    assert dec.depth != 2
    with pytest.raises(ValueError, match="depth-2 grading"):
        fm.validate_tyurin_form(alg, dec, fm.MatrixLaurent(dec, {}, 1))
