"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines and timings.  Tolerances are pinned here and nowhere else.
"""

import random
import time
from fractions import Fraction as F

import numpy as np
import pytest

from laxkit import calogero as cm
from laxkit import cli
from laxkit import formal as fm
from laxkit import liealg as la
from laxkit import sphere as sp
from laxkit.elliptic import Lattice, PoleProximityError
from laxkit.exact import Mat
from laxkit.ratfunc import INF

SEED = 20240817


def _line(num, name, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion-{num} {name}: {detail}")


# --------------------------------------------------------------------------
# 1. closure of the commutator on 200 random expansion pairs per grading
# --------------------------------------------------------------------------


def test_criterion_01_closure():
    t0 = time.time()
    checks = cli._suite_closure(SEED, pairs=200)
    elapsed = time.time() - t0
    ok = all(c["passed"] for c in checks) and elapsed < 30.0
    _line(1, "closure", ok,
          f"{len(checks)} gradings x 200 pairs exact, {elapsed:.1f}s (< 30s)")
    assert all(c["passed"] for c in checks), [c for c in checks if not c["passed"]]
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds the 30s budget"


# --------------------------------------------------------------------------
# 2. slice dimension formula dim L_m = N dim g (exact rational nullspaces)
# --------------------------------------------------------------------------


def test_criterion_02_slice_dimensions():
    t0 = time.time()
    checks = cli._suite_dims(SEED)
    elapsed = time.time() - t0
    families = {c["name"].split("/")[1] for c in checks}
    ok = all(c["passed"] for c in checks) and elapsed < 60.0
    _line(2, "slice-dimensions", ok,
          f"{len(checks)} configs over {sorted(families)}, m in [-2,2], {elapsed:.1f}s (< 60s)")
    assert all(c["passed"] for c in checks), [c for c in checks if not c["passed"]]
    assert families == {"gl2", "sl2", "so_even2", "sp2"}
    assert elapsed < 60.0


# --------------------------------------------------------------------------
# 3. central-extension cocycle: holomorphy, identity, locality (exact)
# --------------------------------------------------------------------------


def test_criterion_03_cocycle():
    t0 = time.time()
    alg, dec = la.catalog_grading("gl", 2, 1)
    cfg = sp.SphereConfig(dec, (F(0),), (INF,), (F(3),))
    omega = sp.standard_connection_form(cfg)
    assert sp.connection_form_tail(cfg, omega, 0) == {}
    checks = {c["name"]: c for c in cli._suite_cocycle(SEED, triples=50)}
    elapsed = time.time() - t0
    locality = checks["cocycle/locality"]
    bound = locality["locality_bound"]
    ok = all(c["passed"] for c in checks.values()) and elapsed < 60.0
    _line(3, "cocycle", ok,
          f"holomorphy + 50 exact triples + locality bound {bound}, {elapsed:.1f}s (< 60s)")
    assert sorted(checks) == ["cocycle/holomorphy", "cocycle/jacobi-identity", "cocycle/locality"]
    assert all(c["passed"] for c in checks.values()), [c for c in checks.values() if not c["passed"]]
    assert checks["cocycle/jacobi-identity"]["count"] == 50
    # locality over the window m + n in [-6, 6]: no nonzero sum beyond the bound
    assert all(abs(s) <= bound < 6 for s in locality["nonzero_sums"])
    assert elapsed < 60.0


# --------------------------------------------------------------------------
# 4. pole elimination by grade-wise conjugation
# --------------------------------------------------------------------------


def test_criterion_04_pole_elimination():
    rng = random.Random(SEED)
    for kind, rank, idx in la.acceptance_catalog():
        alg, dec = la.catalog_grading(kind, rank, idx)
        for _ in range(10):
            out = fm.eliminate_poles(fm.random_lax_expansion(dec, rng, trunc=dec.depth + 2))
            assert all(p >= 0 for p in out.coeffs), (kind, rank, idx)
    # the second-member counterexample: a degree-0 coefficient with a
    # positive graded component regrades to a negative degree
    alg, dec = la.catalog_grading("gl", 3, 1)
    m = fm.MatrixLaurent(dec, {0: dec.basis_of_subspace(1)[0]}, 2)
    out = fm.eliminate_poles(m)
    assert any(p < 0 for p in out.coeffs)
    _line(4, "pole-elimination", True,
          "no negative degrees on all catalog gradings; counterexample produces one")


# --------------------------------------------------------------------------
# 5. second Lax-pair member: dimension formula and exact tangency
# --------------------------------------------------------------------------


def test_criterion_05_second_member_construction():
    checks = cli._suite_mops(SEED)
    assert len(checks) == 3
    for c in checks:
        assert c["prenorm_dim"] == c["expected_prenorm_dim"], c
        assert c["tangency_ok"], c
    dims_ok = [c["prenorm_dim"] for c in checks]
    _line(5, "second-member", True,
          f"pre-normalization dims {dims_ok} match dim g (deg D + l + 1); tangency exact")


# --------------------------------------------------------------------------
# 6. integer identities (exact, instant)
# --------------------------------------------------------------------------


def test_criterion_06_integer_identities():
    for kind, rank in [("gl", 2), ("gl", 3), ("gl", 4), ("so_even", 3), ("so_even", 4),
                       ("sp", 2), ("sp", 3)]:
        _, dec = la.catalog_grading(kind, rank, 1)
        assert la.filtration_balance_residual(dec) == 0, (kind, rank)
    _, dec = la.catalog_grading("g2", 2, 2)
    assert la.filtration_balance_residual(dec) == 0
    for rank in (2, 3):
        _, dec = la.catalog_grading("so_odd", rank, 1)
        assert la.filtration_balance_residual(dec) != 0
        assert la.filtration_balance_residual_odd(dec) == 0
    for kind, rank in [("gl", 3), ("sl", 3), ("so_odd", 3), ("sp", 3), ("so_even", 4), ("g2", 2)]:
        assert la.degree_sum_residual(kind, rank) == 0
    for genus in (2, 3, 4):
        for kind, rank in [("sl", 3), ("so_even", 3), ("so_odd", 2), ("sp", 2), ("g2", 2)]:
            alg = la.matrix_realization(kind, rank)
            assert la.hitchin_integral_count(kind, rank, genus) == alg.dim * (genus - 1)
        assert la.hamiltonian_count_identity_residual("sp", 2, 2 * genus - 2, genus) == 0
    assert la.hamiltonian_count("sp", 2, 4, 2) == 22
    _line(6, "integer-identities", True,
          "filtration balance, degree sums, Hamiltonian counts all exact")


# --------------------------------------------------------------------------
# 7. Weierstrass layer on 1000 seeded samples per lattice
# --------------------------------------------------------------------------


def test_criterion_07_weierstrass():
    t0 = time.time()
    rng = np.random.default_rng(SEED)
    for tau in (1j, 0.3 + 1.2j):
        lat = Lattice(1.0, tau)
        got = 0
        worst_add = worst_ode = worst_per = 0.0
        while got < 1000:
            z = complex(rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95))
            u = complex(rng.uniform(0.05, 0.95), rng.uniform(-0.95, -0.05))
            try:
                worst_add = max(worst_add, lat.addition_identity_residual(z, u))
                if lat.lattice_distance(z) > 0.12:
                    # the quartic term 4 wp^3 grows like d^-6 towards a pole;
                    # the absolute 1e-9 target needs this conditioning floor
                    ode = abs(lat.wp_prime(z) ** 2 - 4 * lat.wp(z) ** 3
                              + lat.g2 * lat.wp(z) + lat.g3)
                    worst_ode = max(worst_ode, ode)
                worst_per = max(worst_per,
                                abs(lat.wp(z + 2 * lat.omega1) - lat.wp(z)),
                                abs(lat.wp(z + 2 * lat.omega2) - lat.wp(z)))
                got += 1
            except PoleProximityError:
                continue
        assert worst_add < 1e-10, (tau, worst_add)
        assert worst_ode < 1e-9, (tau, worst_ode)
        assert worst_per < 1e-10, (tau, worst_per)
    elapsed = time.time() - t0
    _line(7, "weierstrass", elapsed < 5.0,
          f"addition {worst_add:.1e}, ODE {worst_ode:.1e}, periodicity {worst_per:.1e}, "
          f"{elapsed:.1f}s (< 5s)")
    assert elapsed < 5.0


# --------------------------------------------------------------------------
# 8. Calogero-Moser conservation and isospectrality, T = 10, dt = 1e-3
# --------------------------------------------------------------------------


def test_criterion_08_cm_conservation_and_isospectrality():
    t0 = time.time()
    rng = np.random.default_rng(SEED)
    # the eight systems share one lattice and run as one batch; their initial
    # data are drawn from the rng in the order A2, A3, B2, ..., D3
    systems, states = zip(*(cm.conservation_initial_data(family, n, rng)
                            for family in ("A", "B", "C", "D") for n in (2, 3)))
    zs = cm.conservation_z_samples(systems[0].lattice)
    runs = cm.run_conservation(systems, states, 10.0, 1e-3, scheme="rk4", z_samples=zs)
    rows = [(s.family, s.n, rep["max_H_drift"], rep["max_spec_drift"]) for s, (_, rep) in zip(systems, runs)]
    elapsed = time.time() - t0
    h_ok = all(r[2] < 1e-8 for r in rows)
    s_ok = all(r[3] < 1e-6 for r in rows)
    detail = "; ".join(f"{f}{n}: dH={h:.1e} dspec={s:.1e}" for f, n, h, s in rows)
    _line(8, "cm-conservation", h_ok and s_ok and elapsed < 120.0,
          detail + f"; {elapsed:.0f}s (< 120s)")
    assert h_ok, f"H drift out of tolerance: {rows}"
    assert elapsed < 120.0
    # Isospectrality holds for the A family and for D at n = 2, 3 (the
    # so(2n) weight-form matrix).  The B and C rows (n = 2, 3) are red: their
    # Lax matrices violate their own local expansion conditions at some of
    # the moving points, so the spectrum drifts under the closed-form flow,
    # and no so(2n+1) or sp(2n) replacement has been found.  Asserted as
    # stated; the candidates tried and their drifts are in CHANGES.md.
    assert s_ok, f"isospectrality out of tolerance (expected for B/C rows, see CHANGES.md): {rows}"


# --------------------------------------------------------------------------
# 9. involution of residue Hamiltonians (A and D families)
# --------------------------------------------------------------------------


def test_criterion_09_involution():
    t0 = time.time()
    rng = np.random.default_rng(SEED)
    rows = []
    for family, specs in (("A", [(2, 1), (3, 1), (4, 1)]), ("D", [(2, 1), (4, 1)])):
        for n in (2, 3):
            worst = 0.0
            for _ in range(5):
                sys_, st = cm.conservation_initial_data(family, n, rng)
                table = cm.involution_table(sys_, st, specs)
                worst = max(worst, max(table.values()))
            rows.append((family, n, worst))
    elapsed = time.time() - t0
    worst_all = max(r[2] for r in rows)
    ok = worst_all < 1e-6 and elapsed < 60.0
    detail = "; ".join(f"{f}{n}: {w:.1e}" for f, n, w in rows)
    _line(9, "involution", ok, detail + f"; {elapsed:.0f}s (< 60s)")
    assert elapsed < 60.0
    # The D rows use the so(2n) weight-form Lax matrix, whose flow is
    # isospectral for n <= 3; at n >= 4 it is not, and {H_2, H_4} would not
    # vanish there (see CHANGES.md).
    assert worst_all < 1e-6, f"brackets out of tolerance: {rows}"


# --------------------------------------------------------------------------
# 10. residue-route Hamiltonians reproduce the closed forms
# --------------------------------------------------------------------------


def test_criterion_10_residue_vs_closed_form():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for family in ("A", "B", "C", "D"):
        for n in (2, 3):
            sys_, st = cm.conservation_initial_data(family, n, rng)
            h1 = cm.hamiltonian(sys_, st)
            h2 = cm.hamiltonian_from_residue(sys_, st)
            rel = abs(h1 - h2) / max(1.0, abs(h1))
            worst = max(worst, rel)
            assert rel < 1e-9, (family, n, h1, h2)
    _line(10, "residue-vs-closed-form", True,
          f"all four families, worst relative deviation {worst:.1e} (< 1e-9)")


# --------------------------------------------------------------------------
# 11. rank-one residue structure along integrated trajectories
# --------------------------------------------------------------------------


def test_criterion_11_residue_structure():
    rng = np.random.default_rng(SEED)
    worst_sv = worst_sq = worst_flow = 0.0
    for n in (2, 3):
        sys_, st = cm.conservation_initial_data("A", n, rng)
        dt = 1e-3
        traj = cm.integrate(sys_, st, 0.5, dt)
        for idx in (100, 250, 400):
            probe = (traj.state(idx - 1), traj.state(idx + 1), dt)
            for rep in cm.tyurin_residue_check(sys_, traj.state(idx), flow_probe=probe):
                worst_sv = max(worst_sv, rep["sv_ratio"])
                worst_sq = max(worst_sq, rep["square_ratio"])
                worst_flow = max(worst_flow, rep["flow_mismatch"])
    ok = worst_sv < 1e-9 and worst_sq < 1e-9 and worst_flow < 1e-6
    _line(11, "residue-structure", ok,
          f"sv ratio {worst_sv:.1e} (< 1e-9), squared-residue ratio {worst_sq:.1e} (< 1e-9), "
          f"flow mismatch {worst_flow:.1e} (< 1e-6)")
    assert worst_sv < 1e-9
    assert worst_sq < 1e-9
    assert worst_flow < 1e-6
