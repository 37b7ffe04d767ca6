import itertools
import random
import re
from fractions import Fraction as F

import pytest

from laxkit import cli
from laxkit import formal as fm
from laxkit import liealg as la
from laxkit import sphere as sp
from laxkit.exact import Mat, _ints, mat_inverse, nullspace, rref
from laxkit.ratfunc import INF, Poly, RatFunc, RationalMatrix, rat_const
from test_formal import _predicted_bracket


@pytest.fixture(scope="module")
def rng():
    return random.Random(90125)


def rand_member(rng, basis):
    out = None
    for b in basis:
        c = rng.randint(-2, 2)
        if c:
            t = b.scale(rat_const(c))
            out = t if out is None else out + t
    return out if out is not None else basis[0] - basis[0]


@pytest.fixture(scope="module")
def gl2_cfg():
    alg, dec = la.catalog_grading("gl", 2, 1)
    return sp.SphereConfig(dec, (F(0),), (INF,), (F(3),))


@pytest.fixture(scope="module")
def gl2_window(gl2_cfg):
    return sp.SliceWindow(gl2_cfg, -3, 3)


# ---------------------------------------------------------------------------
# divisors and section spaces
# ---------------------------------------------------------------------------


def test_section_basis_count_matches_degree():
    div = {F(0): 2, F(3): 1, INF: -1}
    basis = sp.section_basis(div)
    assert len(basis) == sum(div.values()) + 1
    for f in basis:
        assert not f.laurent_at(F(0), -3)
        assert not f.laurent_at(F(3), -2)
        assert not f.laurent_at(INF, 0)
    assert sp.section_basis({F(0): -1, INF: 0}) == []


def test_divisor_schedule_constant_degree(gl2_cfg):
    for m in range(-4, 5):
        d = sp.divisor_for_degree(gl2_cfg, m)
        assert sum(d.values()) == 1 * 1 - 1 + 1  # N - 1 + k|Gamma|


def test_two_q_point_schedule_bounded():
    alg, dec = la.catalog_grading("gl", 2, 1)
    cfg = sp.SphereConfig(dec, (F(0),), (INF, F(9)), (F(3), F(5)))
    degs = [cfg.q_degrees(m) for m in range(-6, 7)]
    n = cfg.n_points
    for m, (d1, d2) in zip(range(-6, 7), degs):
        assert d1 + d2 == m * 1 + 0
        assert abs(d1 - F(n, 2) * m) <= 1 and abs(d2 - F(n, 2) * m) <= 2
    # each point's degree is non-decreasing in m
    for j in (0, 1):
        seq = [d[j] for d in degs]
        assert all(x <= y for x, y in zip(seq, seq[1:]))


# ---------------------------------------------------------------------------
# homogeneous subspaces
# ---------------------------------------------------------------------------


def test_slice_dimension_formula_gl2(gl2_cfg):
    for m in range(-3, 4):
        assert sp.build_homogeneous_subspace(gl2_cfg, m).dim == 4


def test_slice_dimension_sl2():
    alg, dec = la.catalog_grading("sl", 2, 1)
    cfg = sp.SphereConfig(dec, (F(0),), (INF,), (F(3),))
    assert sp.build_homogeneous_subspace(cfg, 0).dim == 3


def test_empty_gamma_is_pure_partial_fractions():
    # oracle: with no expansion conditions the count is dim g (deg D + 1)
    alg, dec = la.catalog_grading("gl", 2, 1)
    cfg = sp.SphereConfig(dec, (F(0),), (INF,), ())
    sl = sp.build_homogeneous_subspace(cfg, 0, check_dim=False)
    deg = sum(sp.divisor_for_degree(cfg, 0).values())
    assert sl.dim == alg.dim * (deg + 1) == alg.dim * cfg.n_points


def test_slice_members_satisfy_conditions(gl2_cfg):
    dec = gl2_cfg.dec
    sl = sp.build_homogeneous_subspace(gl2_cfg, 1)
    for b in sl.basis:
        for p in range(-dec.depth, dec.depth):
            assert not dec.has_violation(b.laurent_coefficients(F(3), p, p)[p], p)
        # divisor bound at P (zero of order >= 1 for m = 1)
        assert not any(e.laurent_at(F(0), 0) for r in b.rows for e in r)


def test_framed_sp4_slices_and_rank_deficiency_report(rng):
    alg, dec = la.catalog_grading("sp", 2, 1)
    frames = (fm.random_group_element(alg, rng), fm.random_group_element(alg, rng))
    cfg = sp.SphereConfig(dec, (F(0),), (INF,), (F(3), F(5)), frames)
    for m in (-2, 0, 2):
        assert sp.build_homogeneous_subspace(cfg, m).dim == 10
    # identity frames at a single gamma leave a dependent condition: three
    # sections meet 0, 1, 2, 3 and 4 conditions on degrees -2..2, and the
    # sp(4) degree dimensions 1, 2, 4, 2, 1 give 3 + 4 + 4 + 0 + 0 = 11
    cfg_bad = sp.SphereConfig(dec, (F(0),), (INF,), (F(3),))
    with pytest.raises(sp.SliceDimensionError) as exc:
        sp.build_homogeneous_subspace(cfg_bad, 0)
    assert exc.value.achieved == 11 and exc.value.expected == 10
    assert exc.value.blocks == {-2: 3, -1: 2, 0: 1, 1: 0, 2: 0} and exc.value.coupled is None
    assert str(exc.value) == ("slice degree 0: dim 11, expected 10; reference-frame blocks "
                              "degree -2: 3, degree -1: 2, degree 0: 1, degree 1: 0, degree 2: 0")


def test_dimension_error_reports_the_coupled_rank():
    # a second frame that differs from the first by a torus element t puts the
    # same filtrations at both gamma points: the blocks are the first point's
    # and the coupled rows lose the same 5 dimensions as a common frame does
    alg, dec = la.catalog_grading("sp", 2, 1)
    g = fm.random_group_element(alg, random.Random(3))
    t = Mat.diag([2, 3, F(1, 2), F(1, 3)])
    errors = []
    for second in (g @ t, g):
        cfg = sp.SphereConfig(dec, (F(0),), (INF,), (F(3), F(5)), (g, second))
        with pytest.raises(sp.SliceDimensionError) as exc:
            sp.build_homogeneous_subspace(cfg, 0)
        errors.append(exc.value)
    coupled, common = errors
    assert coupled.achieved == common.achieved == 15
    assert coupled.blocks == {-2: 5, -1: 4, 0: 3, 1: 2, 2: 1} and coupled.coupled == (15, 30)
    assert str(coupled).endswith("degree 2: 1; coupled rank 15 of 30")
    assert common.blocks == {-2: 5, -1: 3, 0: 1, 1: 0, 2: 0} and common.coupled is None


def _assemble_by_sums(cfg, scalars, coords):
    """Reference assembly: a RationalMatrix sum of scalar times basis terms."""
    alg = cfg.alg
    out = RationalMatrix.zeros(alg.size)
    for si, f in enumerate(scalars):
        for bi, b in enumerate(alg.basis):
            c = coords[si * alg.dim + bi]
            if c:
                out = out + RationalMatrix.from_scalar_matrix(b, f * c)
    return out


def _entries(mat):
    return [[(e.num.coeffs, e.den.coeffs) for e in row] for row in mat.rows]


def _entry_form_rows(cfg, sections):
    """Reference statement of the expansion conditions: at every gamma point
    and for -k <= p < k, each entry at a position of degree above p of the
    degree-p Laurent coefficient of g^-1 L g, as a row over the unknowns
    x[si dim + bi] of L = sum x s_si b_bi."""
    dec, alg = cfg.dec, cfg.alg
    k = dec.depth
    rows = []
    for g, frame in zip(cfg.gamma_points, cfg.gamma_frames):
        inv = mat_inverse(frame)
        conj = [inv @ b @ frame for b in alg.basis]
        tails = sections.laurent_coefficients(F(g), -k, k - 1)
        for p in range(-k, k):
            t = tails[p].rows[0]
            for u, v in dec.positions_above(p):
                row = [c * b.rows[u][v] for c in t for b in conj]
                if any(row):
                    rows.append(row)
    return rows


def _oracle_configs(kind, rank, root):
    """(config, m): one P point, Q at infinity and 0-3 gamma points,
    unframed and framed (three gamma points only below rank 3), with the
    slice index m = -1, 0, 1 in turn."""
    rng = random.Random(f"{kind}{rank}/{root}")
    pts = lambda: F(rng.randint(-40, 40), rng.randint(1, 7))
    alg, dec = la.catalog_grading(kind, rank, root)
    configs = []
    for n_g in range(4 if rank < 3 else 3):
        for framed in ((False, True) if n_g else (False,)):
            while True:
                p_points, gammas = (pts(),), tuple(sorted({pts() for _ in range(n_g)}))
                if len(gammas) == n_g and p_points[0] not in gammas:
                    break
            frames = tuple(fm.random_group_element(alg, rng) for _ in gammas) if framed else None
            configs.append(sp.SphereConfig(dec, p_points, (INF,), gammas, frames))
    return zip(configs, itertools.cycle((-1, 0, 1)))


@pytest.mark.parametrize("kind,rank,root", [
    ("gl", 2, 1), ("gl", 3, 1), ("sl", 3, 1), ("so_even", 3, 1), ("so_odd", 2, 1), ("so_odd", 2, 2),
    ("sp", 2, 1), ("sp", 2, 2), ("sp", 3, 1), ("so_odd", 3, 1),
])
def test_slices_match_the_entry_form_nullspace(kind, rank, root):
    # the block solver returns the basis one dense nullspace of the
    # entry-form conditions gives, whether or not the dimension is N dim g
    for cfg, m in _oracle_configs(kind, rank, root):
        div = sp.divisor_for_degree(cfg, m)
        sections = sp._sections(div)
        want = sp._assemble(cfg, div, nullspace(_entry_form_rows(cfg, sections),
                                                 sections.m * cfg.alg.dim))
        got = sp.build_homogeneous_subspace(cfg, m, check_dim=False).basis
        assert [(a.nums, a.den) for a in got] == [(a.nums, a.den) for a in want], (cfg, m)


@pytest.mark.parametrize("kind,p_points,gammas,framed", [
    ("sp", (F(0),), (F(3), F(5)), True),
    ("gl", (F(0), F(-7, 2)), (F(3), F(5, 3)), False),
])
def test_assemble_matches_sum_of_terms(kind, p_points, gammas, framed):
    rng = random.Random(11)
    alg, dec = la.catalog_grading(kind, 2, 1)
    frames = tuple(fm.random_group_element(alg, rng) for _ in gammas) if framed else None
    cfg = sp.SphereConfig(dec, p_points, (INF,), gammas, frames)
    for m in (-1, 1):
        div = sp.divisor_for_degree(cfg, m)
        scalars = sp.section_basis(div)
        ncand = len(scalars) * alg.dim
        # slice vectors (whose entries cancel pole factors) and random ones
        vectors = sp._slice_kernel(cfg, sp._sections(div))[0] + [
            [rng.choice([0, rng.randint(-3, 3), F(rng.randint(-5, 5), rng.randint(1, 4))])
             for _ in range(ncand)]
            for _ in range(2)
        ]
        got = sp._assemble(cfg, div, vectors)
        for v, mat in zip(vectors, got):
            assert _entries(mat) == _entries(_assemble_by_sums(cfg, scalars, v))


def _assemble_entrywise(cfg, div, vectors):
    """The assembly as one polynomial product per matrix entry: the entry's
    coordinate polynomial, summed over the basis elements nonzero there,
    times the zeros skeleton (the formula ``_assemble`` replaced)."""
    alg = cfg.alg
    zeros, poles, count = sp._skeleton(div)
    out = []
    for coords in vectors:
        ci, cd = _ints(coords)
        cols = [ci[bi::alg.dim] for bi in range(alg.dim)]
        nums = []
        for u in range(alg.size):
            row = []
            for v in range(alg.size):
                p = [0] * count
                for bi, b in enumerate(alg.basis):
                    if b.rows[u][v]:
                        p = [x + b.rows[u][v] * y for x, y in zip(p, cols[bi])]
                row.append(Poly([F(x, cd) for x in p]) * zeros)
            nums.append(row)
        out.append(RationalMatrix.over(nums, poles))
    return out


@pytest.mark.parametrize("kind,root,gammas,framed", [
    ("sp", 1, (F(3), F(5)), True),       # depth 2, framed: up to 10 products for 16 entries
    ("so_odd", 2, (F(3),), False),       # depth 2
    ("so_odd", 2, (F(3), F(-5, 2)), True),
])
def test_assemble_matches_the_entrywise_products(kind, root, gammas, framed):
    rng = random.Random(30)
    alg, dec = la.catalog_grading(kind, 2, root)
    frames = tuple(fm.random_group_element(alg, rng) for _ in gammas) if framed else None
    cfg = sp.SphereConfig(dec, (F(-1, 3),), (INF,), gammas, frames)
    for m in (-1, 0, 1, 2):
        div = sp.divisor_for_degree(cfg, m)
        sections = sp._sections(div)
        ncand = sections.m * alg.dim
        vectors = sp._slice_kernel(cfg, sections)[0][:6] + [
            [rng.choice([0, 0, rng.randint(-3, 3), F(rng.randint(-5, 5), rng.randint(1, 4))])
             for _ in range(ncand)]
            for _ in range(2)
        ] + [[0] * ncand]
        for got, want in zip(sp._assemble(cfg, div, vectors), _assemble_entrywise(cfg, div, vectors)):
            assert (got.nums, got.den) == (want.nums, want.den), (m, got)


def test_g2_rejected():
    alg, dec = la.catalog_grading("g2", 2, 2)
    with pytest.raises(NotImplementedError):
        sp.SphereConfig(dec, (F(0),), (INF,), (F(3),))


def test_frame_must_preserve_the_algebra():
    alg, dec = la.catalog_grading("sp", 2, 1)
    with pytest.raises(ValueError, match="frame at gamma point 3 does not preserve the algebra"):
        sp.SphereConfig(dec, (F(0),), (INF,), (F(3),), (Mat.diag([2, 1, 1, 1]),))


def test_marked_points_must_be_distinct():
    alg, dec = la.catalog_grading("gl", 2, 1)
    with pytest.raises(ValueError):
        sp.SphereConfig(dec, (F(0),), (INF,), (F(0),))


# ---------------------------------------------------------------------------
# almost-graded structure
# ---------------------------------------------------------------------------


def test_commutator_band_small(gl2_window, rng):
    pairs = [(m, n) for m in (-1, 0, 1) for n in (-1, 0, 1)]
    s = sp.almost_graded_bound(gl2_window, pairs)
    assert s == 0


def test_band_stable_across_wide_degree_window(gl2_cfg, rng):
    # measured width of the commutator band is the same constant for every
    # degree sum in [-6, 6] (two marked-point configuration)
    win = sp.SliceWindow(gl2_cfg, -6, 7)
    widths = set()
    for s in range(-6, 7):
        pairs = [(m, s - m) for m in range(max(-3, s - 3), min(3, s + 3) + 1)
                 if -6 <= s - m <= 7 and -6 <= m <= 7]
        pairs = [pairs[rng.randrange(len(pairs))] for _ in range(2)]
        widths.add(sp.almost_graded_bound(win, pairs, rng=rng, max_pairs_per_sum=2))
    assert widths == {0}


def symbolic_recombination(win, coords):
    """The matrix function sum c_mj basis_mj of coordinates from
    ``decompose_in``, rebuilt symbolically: the reference route."""
    out = RationalMatrix.zeros(win.cfg.alg.size)
    for m, row in coords.items():
        for j, c in row.items():
            out = out + win.slices[m].basis[j].scale(rat_const(c))
    return out


def test_band_measurement_dual_route(gl2_window, rng):
    # sampling-based membership agrees with symbolic reconstruction
    win = gl2_window
    for _ in range(4):
        m, n = rng.randint(-1, 1), rng.randint(-1, 1)
        c = win.slices[m].basis[rng.randrange(4)].comm(win.slices[n].basis[rng.randrange(4)])
        a = win.decompose_in(c, m + n, min(m + n + 1, win.hi))
        if a is not None:
            assert (symbolic_recombination(win, a) - c).is_zero()


def test_a_window_samples_only_when_asked(gl2_cfg, monkeypatch):
    # reading the slices makes no evaluation; the first membership test does
    calls = []
    real = RationalMatrix.eval

    def counted(self, x):
        calls.append(x)
        return real(self, x)

    monkeypatch.setattr(RationalMatrix, "eval", counted)
    win = sp.SliceWindow(gl2_cfg, -2, 2)
    assert all(win.slices[m].dim for m in range(-2, 3)) and calls == []
    assert sp.almost_graded_bound(win, [(-1, 1), (0, 0)]) == 0 and calls


# ---------------------------------------------------------------------------
# cocycle
# ---------------------------------------------------------------------------


def test_connection_form_expansion(gl2_cfg):
    omega = sp.standard_connection_form(gl2_cfg)
    assert sp.connection_form_tail(gl2_cfg, omega, 0) == {}
    # diagonal (degree-zero valued) everywhere
    for i in range(2):
        for j in range(2):
            if i != j:
                assert omega.rows[i][j].is_zero()


def test_invalid_connection_form_rejected(gl2_cfg, gl2_window, rng):
    cfg, win = gl2_cfg, gl2_window
    z = RatFunc(Poly.x())
    # wrong residue at gamma: h/(z-gamma) scaled by 2
    bad = sp.standard_connection_form(cfg) + RationalMatrix.from_scalar_matrix(
        cfg.dec.h, 1 / (z - 3))
    with pytest.raises(ValueError):
        sp.check_connection_form(cfg, bad)
    # the good form passes the check
    good = sp.standard_connection_form(cfg)
    sp.check_connection_form(cfg, good)
    l1 = rand_member(rng, win.slices[0].basis)
    assert sp.cocycle_eta(cfg, l1, l1, good) == 0


def test_connection_form_with_a_finite_q_point():
    # with no Q point at infinity the form carries the correction
    # -h/(z - q) at the first Q point, which must leave every gamma expansion
    # h/(z - gamma) + regular and the cocycle identity intact
    alg, dec = la.catalog_grading("gl", 2, 1)
    cfg = sp.SphereConfig(dec, (F(0), F(1)), (F(7),), (F(3), F(5)))
    assert [cfg.q_degrees(m) for m in range(-2, 3)] == [(-3,), (-1,), (1,), (3,), (5,)]
    omega = sp.standard_connection_form(cfg)
    assert all(sp.connection_form_tail(cfg, omega, gi) == {} for gi in range(2))
    sp.check_connection_form(cfg, omega)
    assert any(min(omega.rows[i][i].laurent_at(F(7), -1), default=0) == -1 for i in range(2))
    win = sp.SliceWindow(cfg, -2, 2)
    rng = random.Random(11)
    values = []
    for _ in range(6):
        # degrees m and -m for the first two members, where eta is local
        m = rng.randint(-2, 2)
        f1, f2, f3 = (rand_member(rng, win.slices[d].basis) for d in (m, -m, rng.randint(-2, 2)))
        values.append(sp.cocycle_eta(cfg, f1, f2, omega))
        assert (sp.cocycle_eta(cfg, f1.comm(f2), f3, omega)
                + sp.cocycle_eta(cfg, f2.comm(f3), f1, omega)
                + sp.cocycle_eta(cfg, f3.comm(f1), f2, omega)) == 0
    assert any(values)


def test_cocycle_table_export(gl2_cfg, gl2_window):
    omega = sp.standard_connection_form(gl2_cfg)
    small = sp.SliceWindow(gl2_cfg, -1, 1)
    data = sp.cocycle_table_json(gl2_cfg, small, omega)
    assert data["window"] == [-1, 1]
    for entry in data["nonzero"]:
        assert entry["m"] + entry["n"] == 0
        assert isinstance(entry["eta"], str)


def test_cocycle_skew_and_identity(gl2_cfg, gl2_window, rng):
    win, cfg = gl2_window, gl2_cfg
    omega = sp.standard_connection_form(cfg)
    l1 = rand_member(rng, win.slices[0].basis)
    assert sp.cocycle_eta(cfg, l1, l1, omega) == 0
    for _ in range(8):
        f1, f2, f3 = (rand_member(rng, win.slices[rng.randint(-2, 2)].basis) for _ in range(3))
        s = (sp.cocycle_eta(cfg, f1.comm(f2), f3, omega)
             + sp.cocycle_eta(cfg, f2.comm(f3), f1, omega)
             + sp.cocycle_eta(cfg, f3.comm(f1), f2, omega))
        assert s == 0


def test_cocycle_holomorphy_and_counterexample(gl2_cfg, gl2_window, rng):
    cfg, win = gl2_cfg, gl2_window
    omega = sp.standard_connection_form(cfg)
    l1 = rand_member(rng, win.slices[1].basis)
    l2 = rand_member(rng, win.slices[-1].basis)
    assert sp.cocycle_holomorphy_tail(cfg, l1, l2, omega, F(3)) == {}
    # violating the expansion condition at gamma produces a tail
    z = RatFunc(Poly.x())
    bad = l2 + RationalMatrix.from_scalar_matrix(Mat.unit(2, 1, 0), 1 / (z - 3))
    tails = [sp.cocycle_holomorphy_tail(cfg, l1, bad, omega, F(3)),
             sp.cocycle_holomorphy_tail(cfg, bad, l1, omega, F(3))]
    assert any(t != {} for t in tails)


def test_total_residue_of_pairing_form_vanishes(gl2_cfg, gl2_window, rng):
    cfg, win = gl2_cfg, gl2_window
    l1 = rand_member(rng, win.slices[1].basis)
    l2 = rand_member(rng, win.slices[0].basis)
    f = sp.pairing_one_form(l1, l2)   # <L, dL'> without the connection part
    pts = [F(0), F(3)]
    # no pole off the listed points: the pole orders there fill the denominator
    assert f.den.degree == sum(-min(f.laurent_at(c, -1), default=0) for c in pts)
    total = sum(f.residue_at(c) for c in pts) + f.residue_at(INF)
    assert total == 0


def _pairing_by_matrices(l1, l2, omega=None):
    """The pairing one-form by matrix products, tr(L1 (dL2 - [omega, L2]))
    reduced (the route ``_pairing`` replaced)."""
    dl2 = RationalMatrix([[e.derivative() for e in r] for r in l2.rows])
    prod = l1 @ (dl2 if omega is None else dl2 - omega.comm(l2))
    return sum((prod.rows[i][i] for i in range(prod.n)), RatFunc.zero())


def _random_assembled(rng, cfg, div):
    """An algebra-valued function with poles on the divisor, from random
    coordinates (it need not meet the expansion conditions)."""
    ncand = len(sp.section_basis(div)) * cfg.alg.dim
    return sp._assemble(cfg, div, [[rng.choice([0, rng.randint(-2, 2), F(rng.randint(-3, 3), 2)])
                                     for _ in range(ncand)]])[0]


def _pairing_cases():
    """(cfg, omega, members): unframed gl(2) (diagonal omega), two P points
    with finite Q points (omega with its correction term), framed gl(2) and
    sp(4) (omega not diagonal), each with a zero member."""
    rng = random.Random(31)
    cases = []
    gl2 = la.catalog_grading("gl", 2, 1)[1]
    sp4 = la.catalog_grading("sp", 2, 1)[1]
    frames = lambda dec, k: tuple(fm.random_group_element(dec.alg, rng) for _ in range(k))
    for dec, p_points, q_points, gammas, framed in [
        (gl2, (F(0),), (INF,), (F(3),), False),
        (gl2, (F(0), F(1)), (F(7),), (F(3), F(5)), False),
        (gl2, (F(0), F(1)), (F(7), F(-4)), (F(3), F(5)), False),
        (gl2, (F(0),), (INF,), (F(3), F(5)), True),
        (sp4, (F(-1, 2),), (INF,), (F(3), F(5)), True),
    ]:
        cfg = sp.SphereConfig(dec, p_points, q_points, gammas, frames(dec, len(gammas)) if framed else None)
        members = []
        for m in (-1, 0, 1):
            div = sp.divisor_for_degree(cfg, m)
            if dec is gl2:
                members.append(rand_member(rng, sp.build_homogeneous_subspace(cfg, m, check_dim=False).basis))
            members.append(_random_assembled(rng, cfg, div))
        members.append(members[0].scale(rat_const(0)))
        cases.append((cfg, sp.standard_connection_form(cfg), members))
    return cases


def test_pairing_matches_the_matrix_product_route():
    seen = set()
    for cfg, omega, members in _pairing_cases():
        off_diagonal = any(omega.nums[i][j].n for i in range(omega.n) for j in range(omega.n) if i != j)
        finite_q = INF not in cfg.q_points
        seen |= {("framed", off_diagonal), ("finite q", finite_q)}
        for l1, l2 in itertools.product(members, repeat=2):
            for form in (None, omega):
                want = _pairing_by_matrices(l1, l2, form)
                got = sp.pairing_one_form(l1, l2, form)
                assert (got.num, got.den) == (want.num, want.den)
            want = sum((want.residue_at(p) for p in cfg.p_points), F(0))
            assert sp.cocycle_eta(cfg, l1, l2, omega) == want
            seen.add(("nonzero", bool(want)))
    assert {("framed", True), ("framed", False), ("finite q", True), ("nonzero", True),
            ("nonzero", False)} <= seen


def test_cocycle_locality_window(gl2_cfg, gl2_window):
    cfg, win = gl2_cfg, gl2_window
    omega = sp.standard_connection_form(cfg)
    nonzero = set()
    for m in range(-2, 3):
        for n in range(-2, 3):
            if any(sp.cocycle_eta(cfg, bi, bj, omega) != 0
                   for bi in win.slices[m].basis for bj in win.slices[n].basis):
                nonzero.add(m + n)
    assert nonzero and max(abs(s) for s in nonzero) <= 1


# ---------------------------------------------------------------------------
# gradients and the second Lax-pair member
# ---------------------------------------------------------------------------


def test_gradient_identities(rng):
    z = RatFunc(Poly.x())
    l = RationalMatrix([[z, 1 / (z - 1)], [rat_const(2), z * z]])
    g3 = sp.gradient_invariant(l, 3)
    assert (l @ g3 - g3 @ l).is_zero()
    assert sp.gradient_invariant(l, 1).rows[0][0] == rat_const(1)
    with pytest.raises(ValueError):
        sp.gradient_invariant(l, 3, orthogonal_or_symplectic=True)
    with pytest.raises(ValueError):
        sp.gradient_invariant(l, 0)


def test_gradient_equivariance(rng):
    alg = la.matrix_realization("gl", 3)
    g = fm.random_group_element(alg, rng)
    from laxkit.exact import mat_inverse

    x = alg.element([rng.randint(-2, 2) for _ in range(alg.dim)])
    lhs = sp.gradient_invariant(g @ x @ mat_inverse(g), 3)
    rhs = g @ sp.gradient_invariant(x, 3) @ mat_inverse(g)
    assert (lhs - rhs).is_zero()


def test_gradient_directional_derivative_oracle(rng):
    # d/dt tr (X + t E)^p at 0 equals tr(grad(X) E), expanded exactly
    alg = la.matrix_realization("gl", 2)
    x = alg.element([rng.randint(-2, 2) for _ in range(4)])
    e = alg.element([rng.randint(-2, 2) for _ in range(4)])
    p = 4
    # exact first-order term of tr (x + t e)^p: sum over insertions
    acc = 0
    for i in range(p):
        term = Mat.identity(2)
        for j in range(p):
            term = term @ (e if j == i else x)
        acc += term.trace()
    grad = sp.gradient_invariant(x, p)
    assert acc == (grad @ e).trace()


@pytest.fixture(scope="module")
def mop_setup():
    alg, dec = la.catalog_grading("gl", 2, 1)
    rng = random.Random("mop_setup")
    frames = (fm.random_group_element(alg, rng), fm.random_group_element(alg, rng))
    cfg = sp.SphereConfig(dec, (F(0),), (INF, F(9)), (F(3), F(5)), frames)
    pole_orders = {F(0): 0, INF: 1, F(9): 1}
    space = sp.build_lax_space(cfg, pole_orders)
    return cfg, pole_orders, space


def test_lax_space_dimension(mop_setup):
    cfg, pole_orders, space = mop_setup
    deg = sum(v for v in pole_orders.values())
    assert len(space.basis) == cfg.alg.dim * (deg + 1)


def test_m_operator_dimension_uniqueness_tangency(mop_setup, rng):
    cfg, pole_orders, space = mop_setup
    assert cfg.l_value() == 1
    l = rand_member(rng, space.basis)
    res = sp.construct_m_operator(cfg, l, power=2, pole_point=F(0), order=2,
                                  norm_points=(F(7), F(11)))
    assert res.prenorm_dim == res.expected_prenorm_dim == cfg.alg.dim * (res.pole_order + 1 + 1)
    # normalization points are zeros
    for pt in (F(7), F(11)):
        assert res.matrix.eval(pt).is_zero()
    rep = sp.lax_tangency_check(cfg, l, res.matrix, pole_orders)
    assert rep.ok, (rep.gamma_residuals, rep.divisor_violations)
    # the auxiliary unknowns are the h-components of M's residues
    assert rep.nu == res.nu


def test_m_operator_trace_power_one(mop_setup, rng):
    cfg, pole_orders, space = mop_setup
    l = rand_member(rng, space.basis)
    res = sp.construct_m_operator(cfg, l, power=1, pole_point=F(0), order=2,
                                  norm_points=(F(7), F(11)))
    # the gradient of the trace is the identity: singular part is scalar
    sing = res.matrix.laurent_coefficients(F(0), -2, -2)[-2]
    assert sing[0, 1] == 0 and sing[1, 0] == 0 and sing[0, 0] == sing[1, 1]
    assert sp.lax_tangency_check(cfg, l, res.matrix, pole_orders).ok


def test_m_equals_l_is_valid_second_member(mop_setup, rng):
    cfg, pole_orders, space = mop_setup
    l = rand_member(rng, space.basis)
    assert sp.lax_tangency_check(cfg, l, l, pole_orders).ok


def test_broken_second_member_detected(mop_setup):
    # seeded apart from the module's rng, so that L does not depend on which
    # tests ran first
    cfg, pole_orders, space = mop_setup
    l = rand_member(random.Random("broken_second"), space.basis)
    res = sp.construct_m_operator(cfg, l, power=2, pole_point=F(0), order=2,
                                  norm_points=(F(7), F(11)))
    z = RatFunc(Poly.x())
    # (unit entry, added scalar) -> labels at gammas 3 and 5, divisor
    # violations (the first five as recorded before the integer tangency
    # check, the last three before the local one; the INF row has (0, 1)
    # because L_00 - L_11 has a simple pole at INF for this L)
    breaks = [
        ((1, 0), 1 / (z - 3), [("m-expansion", -1), ("bottom", -2)], [], []),
        ((0, 0), 1 / (z - 3), [("m-expansion", -1), ("bottom", -2)], [], []),
        ((0, 1), 1 / (z - 5) ** 2, [], [("pole-order", -3), ("bottom", -2), ("coefficient", -1),
                                         ("coefficient", 0)], []),
        ((1, 1), 1 / (z - 2), [], [], [((0, 1), "stray-pole"), ((1, 0), "stray-pole")]),
        ((0, 1), 1 / z ** 3, [], [], [((0, 0), F(0), 3), ((0, 1), F(0), 3), ((1, 1), F(0), 3)]),
        # a stray pole at the roots of z^2 - 2, and order-2 poles at 9 and
        # at INF, over L's budget of 1 there
        ((0, 1), 1 / (z * z - 2), [], [], [((0, 0), "stray-pole"), ((0, 1), "stray-pole"),
                                           ((1, 1), "stray-pole")]),
        ((0, 1), 1 / (z - 9) ** 2, [], [], [((0, 0), F(9), 3), ((0, 1), F(9), 3), ((1, 1), F(9), 3)]),
        ((0, 1), z * z, [], [], [((0, 0), INF, 3), ((0, 1), INF, 3), ((1, 1), INF, 3)]),
    ]
    for (u, v), f, at3, at5, divisor in breaks:
        bad = res.matrix + RationalMatrix.from_scalar_matrix(Mat.unit(2, u, v), f)
        rep = sp.lax_tangency_check(cfg, l, bad, pole_orders)
        assert not rep.ok
        assert rep.gamma_residuals == {F(3): at3, F(5): at5}, ((u, v), f)
        assert rep.divisor_violations == divisor, ((u, v), f)


def test_tangency_check_forms_no_rational_bracket(monkeypatch):
    # the mops samples have every pole of L and M at a listed point, so the
    # check reads [L, M] from the series of L and M alone
    calls = {"comm": 0, "lax_tangency_check": 0}
    comm, check = RationalMatrix.comm, sp.lax_tangency_check

    def counted_comm(a, b):
        calls["comm"] += 1
        return comm(a, b)

    def counted_check(*args):
        calls["lax_tangency_check"] += 1
        return check(*args)

    monkeypatch.setattr(RationalMatrix, "comm", counted_comm)
    monkeypatch.setattr(sp, "lax_tangency_check", counted_check)
    assert all(rep.ok for _, rep in cli._mop_samples(0))
    assert calls == {"comm": 0, "lax_tangency_check": 3}


def test_tangency_check_makes_few_matrix_commutators(monkeypatch):
    # the mops samples have no pole deeper than the depth at a gamma point, so
    # each gamma point costs one series commutator of L and M
    calls = [0]
    comm = Mat.comm

    def counted(a, b):
        calls[0] += 1
        return comm(a, b)

    monkeypatch.setattr(Mat, "comm", counted)
    assert all(rep.ok for _, rep in cli._mop_samples(0))
    assert calls[0] == 45


def _relation_sum_gamma_residuals(cfg, l, m_op):
    """The gamma-point labels read against the point-motion relations term by
    term: M's series over sm h[j0][j0], nu h/z split off its residue, and the
    series bracket compared with ``_predicted_bracket`` at degrees -k-1..0."""
    dec = cfg.dec
    k = dec.depth
    H, hd = sp._int_matrix(dec.h)
    j0 = next(i for i in range(H.n) if H.rows[i][i])
    hj = H.rows[j0][j0]
    out = {}
    for gidx, g in enumerate(cfg.gamma_points):
        gf = F(g)
        vl, vm = sp._pole_bounds(l, [gf])[gf], sp._pole_bounds(m_op, [gf])[gf]
        bl, bm = max(k, vl), max(k, vm)
        mc, sm = sp._reference_laurent(cfg, gidx, m_op, -bm, bl)
        mjj = mc[-1].rows[j0][j0]
        mc = {p: c.scale(hj) for p, c in mc.items()}
        reg = {p: c for p, c in mc.items() if p >= -k}
        reg[-1] = mc[-1] - H.scale(mjj)
        mop = fm.MOpExpansion(hd * mjj, fm.MatrixLaurent(dec, reg, k))
        bad = [("m-expansion", p) for p in sorted({p for p, _ in fm.validate_mop(mop)})]
        lc, _ = sp._reference_laurent(cfg, gidx, l, -bl, bm)
        bracket = fm.commutator(fm.MatrixLaurent(dec, lc, bm), fm.MatrixLaurent(dec, mc, bl))
        order = min(bracket.coeffs, default=0)
        if order < -k - 1:
            bad.append(("pole-order", order))
        predicted = _predicted_bracket(fm.MatrixLaurent(dec, lc, k), mop)
        for p in range(-k - 1, 1):
            if bracket.coefficient(p) != predicted.coefficient(p):
                bad.append(("bottom" if p == -k - 1 else "coefficient", p))
        out[g] = bad
    return out


def test_tangency_labels_match_the_relation_sums(mop_setup, monkeypatch):
    # the bottom relation and the cut-series comparison give the labels that
    # the full relation sums give, on second members that pass and that break
    # every gamma label, at depth 1 and 2
    checks = []
    check = sp.lax_tangency_check

    def recorded(cfg, l, m, pole_orders):
        checks.append((cfg, l, m, pole_orders))
        return check(cfg, l, m, pole_orders)

    monkeypatch.setattr(sp, "lax_tangency_check", recorded)
    list(cli._mop_samples(0))
    monkeypatch.undo()
    assert len(checks) == 3
    cfg, pole_orders, space = mop_setup
    z = RatFunc(Poly.x())
    l = rand_member(random.Random("broken_second"), space.basis)
    res = sp.construct_m_operator(cfg, l, power=2, pole_point=F(0), order=2,
                                  norm_points=(F(7), F(11)))
    checks.append((cfg, l, l, pole_orders))
    # the inputs of test_broken_second_member_detected, then a pole of order 3
    # at gamma point 3
    for (u, v), f in [((1, 0), 1 / (z - 3)), ((0, 0), 1 / (z - 3)), ((0, 1), 1 / (z - 5) ** 2),
                      ((1, 1), 1 / (z - 2)), ((0, 1), 1 / z ** 3), ((0, 1), 1 / (z * z - 2)),
                      ((0, 1), 1 / (z - 9) ** 2), ((0, 1), z * z), ((0, 1), 1 / (z - 3) ** 3)]:
        checks.append((cfg, l, res.matrix + RationalMatrix.from_scalar_matrix(Mat.unit(2, u, v), f),
                       pole_orders))
    cfg4, pole_orders4, l4 = depth_two_sp4(random.Random(0))
    for e in (2, 3):
        bad = l4 + RationalMatrix.from_scalar_matrix(Mat.unit(4, 0, 1), 1 / (z - 3) ** e)
        checks.append((cfg4, l4, bad, pole_orders4))
    labels = set()
    for cfg, l, m, pole_orders in checks:
        got = sp.lax_tangency_check(cfg, l, m, pole_orders).gamma_residuals
        assert got == _relation_sum_gamma_residuals(cfg, l, m)
        labels.update(lab for bad in got.values() for lab, _ in bad)
    assert labels == {"m-expansion", "pole-order", "bottom", "coefficient"}


@pytest.mark.parametrize("kind", ["sl", "so_even"])
def test_tangency_nu_with_a_half_integer_grading_element(kind):
    # h = diag(-1/2, 1/2) for sl(2) and diag(-1/2, 1/2, 1/2, -1/2) for so(4);
    # nu is the h-component of M's residue in the reference frame, here 5/3
    # at gamma point 3 from an added (5/3) g h g^-1 / (z - 3), and that M is
    # a second member
    rng = random.Random(3)
    alg, dec = la.catalog_grading(kind, 2, 1)
    frames = (fm.random_group_element(alg, rng), fm.random_group_element(alg, rng))
    cfg = sp.SphereConfig(dec, (F(0),), (INF, F(9)), (F(3), F(5)), frames)
    pole_orders = {F(0): 0, INF: 1, F(9): 1}
    l = rand_member(rng, sp.build_lax_space(cfg, pole_orders).basis)
    rep = sp.lax_tangency_check(cfg, l, l, pole_orders)
    assert rep.ok, (rep.gamma_residuals, rep.divisor_violations)
    z = RatFunc(Poly.x())
    m = l + RationalMatrix.from_scalar_matrix(cfg.grading_element_at(0), F(5, 3) / (z - 3))
    rep = sp.lax_tangency_check(cfg, l, m, pole_orders)
    assert rep.nu == {F(3): F(5, 3), F(5): 0}
    assert rep.ok, (rep.gamma_residuals, rep.divisor_violations)  # the point moves with z_dot = -nu
    h = dec.h
    j0 = next(i for i in range(h.n) if h[i, i])
    for g, frame in zip(cfg.gamma_points, cfg.gamma_frames):
        residue = mat_inverse(frame) @ m.laurent_coefficients(g, -1, -1)[-1] @ frame
        assert rep.nu[g] == residue[j0, j0] / h[j0, j0]


def depth_two_sp4(rng):
    """Framed sp(4) at depth 2 (gamma points 3 and 5) with a Lax element."""
    alg, dec = la.catalog_grading("sp", 2, 1)
    assert dec.depth == 2
    frames = (fm.random_group_element(alg, rng), fm.random_group_element(alg, rng))
    cfg = sp.SphereConfig(dec, (F(0),), (INF, F(9)), (F(3), F(5)), frames)
    pole_orders = {F(0): 0, INF: 1, F(9): 1}
    return cfg, pole_orders, rand_member(rng, sp.build_lax_space(cfg, pole_orders).basis)


def test_tangency_check_at_depth_two():
    # framed sp(4) at depth 2: the relations read L up to degree 2 at each gamma
    cfg, pole_orders, l = depth_two_sp4(random.Random(0))
    rep = sp.lax_tangency_check(cfg, l, l, pole_orders)
    assert rep.ok, (rep.gamma_residuals, rep.divisor_violations)
    z = RatFunc(Poly.x())
    bad = l + RationalMatrix.from_scalar_matrix(Mat.unit(4, 0, 1), 1 / (z - 3) ** 2)
    rep = sp.lax_tangency_check(cfg, l, bad, pole_orders)
    assert not rep.ok
    assert ("pole-order", -4) in rep.gamma_residuals[F(3)]
    assert rep.gamma_residuals[F(5)] == []


@pytest.mark.parametrize("order, rank, ncols", [(1, 59, 62), (2, 69, 72)])
def test_depth_two_m_operator_error_names_the_kernel(order, rank, ncols):
    # l + 1 = 2 normalization points do not fix M at depth 2: a 3-dimensional
    # space of admissible M with no singular part vanishes at both
    cfg, _, l = depth_two_sp4(random.Random(0))
    msg = (f"coefficient rank {rank} of {ncols}, so a 3-dimensional space of admissible M "
           "with no singular part vanishes at the normalization points")
    with pytest.raises(ValueError, match=msg):
        sp.construct_m_operator(cfg, l, power=2, pole_point=F(0), order=order,
                                norm_points=(F(7), F(11)))


def _dense_m_operator(cfg, l, power, pole_point, order, norm_points):
    """(M, prenorm_dim, nu) from one dense system: the expansion condition
    rows over every (section, basis) coefficient and nu, then the singular
    match and the normalization zeros as one row per matrix entry, all
    reduced by one rref; raises with the rank of that system."""
    dec, alg = cfg.dec, cfg.alg
    grad = sp.gradient_invariant(l, power, alg.has_defining_form)
    coeffs = grad.laurent_coefficients(pole_point, 0, order - 1)
    sing = {p - order: m for p, m in coeffs.items() if not m.is_zero()}
    d = -min(sing, default=0)
    div = {**{q: 0 for q in cfg.q_points + cfg.p_points}, pole_point: d}
    div.update({g: dec.depth for g in cfg.gamma_points})
    sections = sp._sections(div)
    ncand = sections.m * alg.dim
    ncols = ncand + len(cfg.gamma_points)
    hc = alg.coordinates(dec.h)
    rows = []
    for gi, ((tails, st), adj) in enumerate(zip(sp._gamma_tails(cfg, sections, -1), cfg._adjoints)):
        for p, t in tails.items():
            for j, deg in enumerate(dec.degrees):
                if deg > p:
                    row = [c * e for c in t for e in adj.rows[j]] + [0] * len(cfg.gamma_points)
                    if p == -1:
                        row[ncand + gi] = -hc[j] * st
                    if any(row):
                        rows.append(row)
    prenorm_dim = ncols - len(rref(rows)[1])
    aug = [row + [0] for row in rows]
    tails = sections.laurent_coefficients(pole_point, -d, -1)
    conditions = [(tails[-i].rows[0], sing.get(-i)) for i in range(1, d + 1)]
    conditions += [(sections.eval(pt).rows[0], None) for pt in norm_points]
    for values, target in conditions:
        for u in range(alg.size):
            for v in range(alg.size):
                row = [c * b[u, v] for c in values for b in alg.basis] + [0] * len(cfg.gamma_points)
                rhs = 0 if target is None else target[u, v]
                if any(row) or rhs:
                    aug.append(row + [rhs])
    red, pivots = rref(aug)
    rnk = sum(p < ncols for p in pivots)
    if rnk < len(pivots):
        raise ValueError(f"inconsistent constraint system: coefficient rank {rnk} of {ncols}, "
                         f"so a {ncols - rnk}-dimensional space of admissible M with no "
                         f"singular part vanishes at the normalization points")
    if rnk < ncols:
        raise ValueError(f"solution not unique: {ncols - rnk} residual degrees of freedom")
    x = {c: red[r][ncols] for r, c in enumerate(pivots)}
    m_op = sp._assemble(cfg, div, [[x[c] for c in range(ncand)]])[0]
    return m_op, prenorm_dim, {g: x[ncand + gi] for gi, g in enumerate(cfg.gamma_points)}


def _m_operator_or_error(solve, *args):
    try:
        return solve(*args), None
    except ValueError as e:
        return None, str(e)


@pytest.mark.parametrize("kind, gammas", [("gl", (3, 5)), ("sl", (3, 5, 13)), ("so_even", (3, 5, 13)),
                                          ("sp", (3, 5))])
def test_m_operator_matches_the_dense_solve(kind, gammas):
    # the Kronecker solve (section conditions, then the gamma block) gives
    # the M, nu (value and type), prenorm_dim and error text of one dense
    # elimination of every condition.  sl(2) and so(4) need three gamma
    # points for an integer l.  Both raise on sp(4), which has depth 2, on
    # so(4) with three gamma points (a 3-dimensional kernel), and on sl(2)
    # at power 1, whose singular target (the identity) lies outside sl(2).
    split = re.compile(r" \(section conditions: rank \d+ of \d+; gamma block: rank \d+ of \d+ unknowns\)")
    outcomes = set()
    for seed in range(6):
        rng = random.Random(seed)
        alg, dec = la.catalog_grading(kind, 2, 1)
        frames = tuple(fm.random_group_element(alg, rng) for _ in gammas)
        cfg = sp.SphereConfig(dec, (F(0),), (INF, F(9)), tuple(map(F, gammas)), frames)
        l = rand_member(rng, sp.build_lax_space(cfg, {F(0): 0, INF: 1, F(9): 1}).basis)
        for power, order in [(2, 2), (1, 2), (2, 1), (4, 2)]:
            if power % 2 and alg.has_defining_form:
                continue
            args = (cfg, l, power, F(0), order, (F(7), F(11), F(17))[:cfg.l_value() + 1])
            res, err = _m_operator_or_error(sp.construct_m_operator, *args)
            dense, dense_err = _m_operator_or_error(_dense_m_operator, *args)
            if dense_err is not None:
                assert res is None and err.startswith(dense_err) and split.fullmatch(err[len(dense_err):])
                outcomes.add(dense_err.split(":")[0])
                continue
            m_op, prenorm_dim, nu = dense
            assert (res.matrix.nums, res.matrix.den) == (m_op.nums, m_op.den)
            assert res.prenorm_dim == prenorm_dim
            assert [(g, v, type(v)) for g, v in res.nu.items()] == [(g, v, type(v)) for g, v in nu.items()]
            outcomes.add("solved")
    raised = "inconsistent constraint system"
    assert outcomes == {"gl": {"solved"}, "sl": {"solved", raised}, "so_even": {raised}, "sp": {raised}}[kind]


def test_wrong_normalization_count_rejected(mop_setup, rng):
    cfg, pole_orders, space = mop_setup
    l = rand_member(rng, space.basis)
    with pytest.raises(ValueError):
        sp.construct_m_operator(cfg, l, power=2, pole_point=F(0), order=2, norm_points=(F(7),))


def test_normalization_point_at_a_pole_rejected(mop_setup, rng):
    # the sections have poles at the gamma points and the pole point
    cfg, pole_orders, space = mop_setup
    l = rand_member(rng, space.basis)
    for pt in (F(3), F(0)):
        with pytest.raises(ZeroDivisionError, match=f"pole at {pt}"):
            sp.construct_m_operator(cfg, l, power=2, pole_point=F(0), order=2, norm_points=(F(7), pt))


def test_incompatible_gamma_count_for_l_value():
    alg, dec = la.catalog_grading("gl", 2, 1)
    cfg = sp.SphereConfig(dec, (F(0),), (INF,), (F(3),))
    with pytest.raises(ValueError):
        cfg.l_value()  # (n-1+1)*1/4 = 1/2 not an integer


def test_slice_json_roundtrips_fractions(gl2_cfg):
    sl = sp.build_homogeneous_subspace(gl2_cfg, 0)
    data = sp.slice_to_json(sl)
    assert data["dim"] == 4 and data["degree"] == 0
    assert all(isinstance(c, str) for e in data["basis"][0][0] for c in e["num"])
