import numpy as np
import pytest

from laxkit.elliptic import Lattice, PoleProximityError

LATTICES = [Lattice(1.0, 1j), Lattice(1.0, 0.3 + 1.2j)]


@pytest.fixture(params=LATTICES, ids=["tau=i", "tau=0.3+1.2i"])
def lat(request):
    return request.param


def test_orientation_required():
    with pytest.raises(ValueError):
        Lattice(1.0, -1j)


def test_parity(lat):
    z = 0.31 + 0.17j
    assert abs(lat.sigma(-z) + lat.sigma(z)) < 1e-14
    assert abs(lat.zeta(-z) + lat.zeta(z)) < 1e-13
    assert abs(lat.wp(-z) - lat.wp(z)) < 1e-13


def test_wp_normalization_no_constant_term(lat):
    # wp(z) - 1/z^2 -> 0 quadratically near the origin
    r1 = abs(lat.wp(0.02) - 1 / 0.02**2)
    r2 = abs(lat.wp(0.01) - 1 / 0.01**2)
    assert r1 < 1e-2
    assert r2 < r1 / 3.5


def test_differential_equation(lat):
    for z in (0.41 + 0.23j, 0.15 - 0.62j, 1.3 + 0.4j):
        res = lat.wp_prime(z) ** 2 - 4 * lat.wp(z) ** 3 + lat.g2 * lat.wp(z) + lat.g3
        assert abs(res) < 1e-9


def test_addition_theorem_random(lat):
    rng = np.random.default_rng(5)
    worst = 0.0
    count = 0
    while count < 100:
        z = complex(rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95))
        u = complex(rng.uniform(0.05, 0.95), rng.uniform(-0.95, -0.05))
        try:
            worst = max(worst, lat.addition_identity_residual(z, u))
            count += 1
        except PoleProximityError:
            continue
    assert worst < 1e-10


def test_addition_residual_periodic(lat):
    z, u = 0.37 + 0.11j, -0.52 + 0.23j
    r0 = lat.addition_identity_residual(z, u)
    r1 = lat.addition_identity_residual(z + 2 * lat.omega1, u)
    assert abs(r0 - r1) < 1e-9


def test_double_periodicity(lat):
    z = 0.41 + 0.29j
    for w in (2 * lat.omega1, 2 * lat.omega2):
        assert abs(lat.wp(z + w) - lat.wp(z)) < 1e-10
        assert abs(lat.wp_prime(z + w) - lat.wp_prime(z)) < 1e-9


def test_sigma_quasi_periodicity(lat):
    z = 0.23 + 0.31j
    lhs = lat.sigma(z + 2 * lat.omega1)
    rhs = -lat.sigma(z) * np.exp(2 * lat.eta1 * (z + lat.omega1))
    assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))
    lhs = lat.sigma(z + 2 * lat.omega2)
    rhs = -lat.sigma(z) * np.exp(2 * lat.eta2 * (z + lat.omega2))
    assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


def test_zeta_quasi_periodicity_and_legendre(lat):
    z = 0.39 - 0.18j
    assert abs(lat.zeta(z + 2 * lat.omega1) - lat.zeta(z) - 2 * lat.eta1) < 1e-11
    assert lat.legendre_residual() < 1e-12


def test_zeta_derivative_is_minus_wp(lat):
    z = 0.44 + 0.37j
    h = 1e-6
    num = (lat.zeta(z + h) - lat.zeta(z - h)) / (2 * h)
    assert abs(num + lat.wp(z)) < 1e-6 * max(1.0, abs(lat.wp(z)))


def test_sigma_prime_is_the_derivative_of_sigma(lat):
    # points in and out of the reduced cell, and the zeros of sigma, where
    # sigma' = 1 on the origin and zeta has its pole
    z = np.array([0.44 + 0.37j, -0.81 + 0.12j, 1.3 - 0.9j, 2.6 + 1.7j])
    s, ds = lat._sigma(z, 2)
    assert np.abs(s - lat.sigma(z)).max() < 1e-15 * np.abs(s).max()
    h = 1e-6
    fd = (lat.sigma(z + h) - lat.sigma(z - h)) / (2 * h)
    assert np.abs(ds - fd).max() < 1e-8 * np.abs(ds).max()
    assert np.abs(ds - s * lat.zeta(z)).max() < 1e-13 * np.abs(ds).max()
    zeros = np.array([0.0, 2 * lat.omega1, 2 * lat.omega2 - 2 * lat.omega1])
    s0, ds0 = lat._sigma(zeros, 2)
    assert s0[0] == 0 and abs(ds0[0] - 1) < 1e-15 and np.abs(s0).max() < 1e-14
    assert np.abs(ds0 - (lat.sigma(zeros + h) - lat.sigma(zeros - h)) / (2 * h)).max() < 1e-8
    assert lat._sigma(0.44 + 0.37j, 2).shape == (2,)


def test_wp_prime_dual_route(lat):
    # independent evaluation path: wp'(z) = -sigma(2z)/sigma(z)^4
    for z in (0.41 + 0.23j, 0.72 - 0.31j):
        assert abs(lat.wp_prime(z) + lat.sigma(2 * z) / lat.sigma(z) ** 4) < 1e-9


ORACLE_LATTICES = LATTICES + [Lattice(1.3 + 0.2j, 0.4 + 2.1j), Lattice(1.0, 6j), Lattice(1.0, 100j)]


def test_theta_series_against_mpmath():
    # theta_1 and its first three derivatives at u = pi z0 / Ar, over the
    # reduced cell, against mpmath's independent series
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(3)
    for lat in ORACLE_LATTICES:
        z0 = lat.Ar * (rng.uniform(-0.49, 0.49, 12) + lat.tau * rng.uniform(-0.49, 0.49, 12))
        # sigma's sin-only theta_1, then the stacked block of the other functions
        th = np.column_stack([lat._theta(z0, 1), lat._theta(z0, 4)])
        assert th.shape == (12, 5)
        with mp.workdps(30):
            for row, v in zip(th, z0):
                u = mp.pi * mp.mpc(v) / mp.mpc(lat.Ar)
                for k, mine in zip([0, 0, 1, 2, 3], row):
                    ref = complex(mp.jtheta(1, u, mp.mpc(lat.q), derivative=k))
                    assert abs(mine - ref) <= 1e-13 * abs(ref)


def _mp_theta(mp, lat, u, k):
    return mp.jtheta(1, u, mp.mpc(lat.q), derivative=k)


def test_values_near_the_zeros_against_mpmath():
    # theta_1 vanishes on the lattice, so near 0 and +-Ar its value is only as
    # certain as the argument: the theta rows are checked at the u = pi z0 / Ar
    # the kernel rounds to, sigma and wp' at the exact z (the cell reduction
    # subtracts the period exactly there)
    mp = pytest.importorskip("mpmath")
    phases = np.array([1, 1j, np.exp(0.25j * np.pi), -1])
    for lat in ORACLE_LATTICES + [Lattice(40, 40j)]:
        near = np.array([c + e * p for c in (0, 1, -1) for e in (1e-3, 1e-6, 1e-9) for p in phases]) * lat.Ar
        outside = np.array([c * lat.Ar + 1.5 * lat._guard_radius * p for c in (0, 1, -1) for p in phases])
        u = near * (np.pi / lat.Ar)
        th = np.column_stack([lat._theta(near, 1), lat._theta(near, 4)])
        sig, wpp = lat.sigma(near), lat.wp_prime(outside)
        with mp.workdps(40):
            Ar, pi = mp.mpc(lat.Ar), mp.pi
            th1p0, th3p0 = _mp_theta(mp, lat, 0, 1), _mp_theta(mp, lat, 0, 3)
            gauss = -pi**2 * th3p0 / (6 * th1p0 * Ar**2)
            for row, v, z, mine in zip(th, u, near, sig):
                for k, th_k in zip([0, 0, 1, 2, 3], row):
                    ref = complex(_mp_theta(mp, lat, mp.mpc(v), k))
                    assert abs(th_k - ref) <= 1e-13 * abs(ref)
                z = mp.mpc(z)
                ref = complex(Ar / pi * mp.exp(gauss * z * z) * _mp_theta(mp, lat, pi * z / Ar, 0) / th1p0)
                assert abs(mine - ref) <= 1e-13 * abs(ref)
            for mine, z in zip(wpp, outside):
                t = [_mp_theta(mp, lat, pi * mp.mpc(z) / Ar, k) for k in range(4)]
                r1, r2, r3 = t[1] / t[0], t[2] / t[0], t[3] / t[0]
                ref = complex(-(pi / Ar) ** 3 * (r3 - 3 * r2 * r1 + 2 * r1**3))
                assert abs(mine - ref) <= 1e-13 * abs(ref)


def test_large_im_tau_values_finite_over_the_cell():
    # Im tau = 100: the theta terms reach e^(3 pi 50) at the cell's edge, and
    # numpy warnings are errors here
    lat = Lattice(1.0, 100j)
    a, b = np.meshgrid(np.linspace(-0.5, 0.5, 21), np.linspace(-0.5, 0.5, 21))
    z = (a * lat.Ar + b * lat.Br).ravel()
    z = z[lat.lattice_distance(z) > 2 * lat._guard_radius]
    for fn in (lat.sigma, lat.zeta, lat.wp, lat.wp_prime):
        assert np.all(np.isfinite(fn(z)))


def test_wp_against_lattice_sum():
    # independent (slowly convergent) oracle: direct Eisenstein-regularized sum
    lat = Lattice(1.0, 1j)
    z = 0.31 + 0.22j
    acc = 1 / z**2
    nmax = 60
    for m in range(-nmax, nmax + 1):
        for n in range(-nmax, nmax + 1):
            if m == 0 and n == 0:
                continue
            w = 2 * m * lat.omega1 + 2 * n * lat.omega2
            acc += 1 / (z - w) ** 2 - 1 / w**2
    assert abs(acc - lat.wp(z)) < 5e-5


def test_basis_invariance():
    base = Lattice(1.0, 0.3 + 1.2j)
    silly = Lattice(1.0, 3.3 + 1.2j)  # same lattice, sheared basis
    z = 0.41 + 0.23j
    assert abs(base.wp(z) - silly.wp(z)) < 1e-11
    assert abs(base.sigma(z) - silly.sigma(z)) < 1e-11
    assert abs(base.g2 - silly.g2) < 1e-10 * abs(base.g2)


def test_pole_guard(lat):
    with pytest.raises(PoleProximityError):
        lat.wp(2 * lat.omega1 + 1e-9)
    with pytest.raises(PoleProximityError):
        lat.zeta(0.0)
    # sigma is entire: lattice points are fine and give (near) zero
    assert abs(lat.sigma(0.0)) < 1e-14
    # one near-pole argument anywhere in a batch trips the guard
    batch = np.linspace(0.1 + 0.2j, 0.9 + 0.7j, 25)
    batch[11] = 2 * lat.omega2 + 1e-9
    for fn in (lat.zeta, lat.wp, lat.wp_prime):
        with pytest.raises(PoleProximityError, match=r"argument 11 at distance 1\.000e-09 ") as exc:
            fn(batch)
        assert exc.value.index == 11
        assert exc.value.distance == pytest.approx(1e-9, rel=1e-6)
    assert np.all(np.isfinite(lat.sigma(batch)))
    # the residual's guard covers z + u, not only z and u
    z = 0.3 + 0.2j
    with pytest.raises(PoleProximityError):
        lat.addition_identity_residual(z, 2 * lat.omega1 - z + 1e-9)


def test_vectorized_matches_scalar(lat):
    arr = np.array([0.3 + 0.2j, 0.5 - 0.1j, 1.7 + 0.4j])
    for fn in (lat.sigma, lat.zeta, lat.wp, lat.wp_prime):
        v = fn(arr)
        assert v.shape == arr.shape
        for i, z in enumerate(arr):
            assert abs(v[i] - fn(complex(z))) < 1e-13
        # an empty batch (the plan of A with n = 1 has no rows)
        assert fn(np.zeros(0, dtype=complex)).shape == (0,)
        assert type(fn(np.complex128(arr[0]))) is complex
        assert fn(arr[:2].reshape(1, 2)).shape == (1, 2)


@pytest.mark.parametrize("lat", ORACLE_LATTICES + [Lattice(40, 40j)],
                         ids=["tau=i", "tau=0.3+1.2i", "oblique", "tau=6i", "tau=100i", "omega=40"])
def test_values_independent_of_batch_shape(lat):
    rng = np.random.default_rng(12)
    z = abs(lat.omega1) * (rng.uniform(-3, 3, 200) + 1j * rng.uniform(-3, 3, 200))
    for fn in (lat.sigma, lat.zeta, lat.wp, lat.wp_prime):
        whole = fn(z)
        assert np.array_equal(np.array([fn(x) for x in z]), whole)
        assert np.array_equal(np.concatenate([fn(z[i:i + 7]) for i in range(0, z.size, 7)]), whole)
        assert np.array_equal(fn(z.reshape(8, 25)), whole.reshape(8, 25))
    # the width of a contour call of L(z): points of the reduced cell and
    # points up to three periods out, interleaved, in chunks of 1, 7 and 64
    cell = lat.Ar * (rng.uniform(-0.5, 0.5, 1620) + lat.tau * rng.uniform(-0.5, 0.5, 1620))
    far = cell + lat.Ar * rng.integers(-3, 4, 1620) + lat.Br * rng.integers(-3, 4, 1620)
    wide = np.where(rng.random(1620) < 0.5, cell, far)
    for fn in (lat.sigma, lat.zeta, lat.wp, lat.wp_prime):
        whole = fn(wide)
        for size in (1, 7, 64):
            assert np.array_equal(np.concatenate([fn(wide[i:i + size]) for i in range(0, wide.size, size)]), whole)


def test_a_lattice_too_thin_for_the_guard_is_refused():
    # omega1 = 1, omega2 = t i with t < 1: the reduced cell is 2t by 2, half
    # its height t, and the guard radius 1e-3
    with pytest.raises(ValueError, match="half the reduced cell's height"):
        Lattice(1.0, 0.9e-3j)
    assert Lattice(1.0, 0.01j)._guard_radius == 1e-3


@pytest.mark.parametrize("omega2, im_tau", [(180j, "180"), (0.0045j, "222.2"), (0.003j, "333.3"),
                                           (1j / 147.7, "147.7")])
def test_a_lattice_too_thin_for_the_theta_table_is_refused(omega2, im_tau):
    # at reduced Im tau >= log(max float) / (3 pi 0.51), about 147.7, sin(u)^3
    # overflows on the cell: wp, zeta and wp' warned at Im tau 180, sigma(0.3)
    # was 0 at 222 and the constructor divided by zero at 333
    with pytest.raises(ValueError, match=rf"reduced Im tau {im_tau} reaches the limit 147\.7"):
        Lattice(1.0, omega2)


@pytest.mark.parametrize("im_tau", [100, 147.6])
def test_a_thin_lattice_below_the_theta_limit_evaluates_over_its_cell(im_tau):
    # the corners, edge midpoints and random points of the reduced cell (off
    # the guard radius), where |Im u| reaches pi Im tau / 2: every function
    # finite, with no overflow warning (warnings are errors here)
    lat = Lattice(1.0, 1j / im_tau)
    assert abs(lat.tau.imag - im_tau) < 1e-9
    rng = np.random.default_rng(30)
    a, b = np.meshgrid([-0.5, -0.25, 0.25, 0.5], [-0.5, 0.5])
    frac = np.concatenate([(a + 1j * b).ravel(), rng.uniform(-0.5, 0.5, 40) + 1j * rng.uniform(-0.5, 0.5, 40)])
    z = lat.Ar * frac.real + lat.Br * frac.imag
    for fn in (lat.sigma, lat.zeta, lat.wp, lat.wp_prime):
        assert np.all(np.isfinite(fn(z)))


def _reduce_by_broadcast(lat, z):
    # the (N, 2) formula that Lattice.reduce replaced
    rows = np.array([np.conj(lat.Br), np.conj(lat.Ar)])
    d = (lat.Ar * np.conj(lat.Br)).imag
    mn = np.rint((np.asarray(z, complex)[..., None] * rows).imag / np.array([d, -d]))
    m, n = mn[..., 0], mn[..., 1]
    return z - m * lat.Ar - n * lat.Br, m, n


def _criterion_8_arguments():
    # the wp' arguments of criterion 8's batch (eight systems on Lattice(40,
    # 40i)) over its first 25 rk4 steps
    import laxkit.calogero as cm
    rng = np.random.default_rng(20240817)
    systems, states = zip(*(cm.conservation_initial_data(family, n, rng)
                            for family in "ABCD" for n in (2, 3)))
    flow = cm._flow(systems)
    q, p = np.concatenate([s.q for s in states]), np.concatenate([s.p for s in states])
    seen = []
    lat = flow.lattice
    wp_prime = lat.wp_prime
    lat.wp_prime = lambda x: seen.append(x.copy()) or wp_prime(x)
    try:
        for _ in range(25):
            q, p = cm._rk4_step(flow, q, p, 1e-3)
    finally:
        del lat.wp_prime
    return lat, np.concatenate(seen)


def test_reduce_is_bit_identical_to_the_broadcast_formula():
    rng = np.random.default_rng(31)
    cases = [_criterion_8_arguments()]
    for lat in ORACLE_LATTICES + [Lattice(40, 40j)]:
        scale = abs(lat.Ar) + abs(lat.Br)
        z = scale * (rng.uniform(-5, 5, 1612) + 1j * rng.uniform(-5, 5, 1612))
        # and points on the half-lines between lattice rows, where rounding
        # the quotient in another order flips rint's choice
        a, b, u = rng.integers(-4, 5, 1000), rng.integers(-4, 5, 1000), rng.uniform(-0.5, 0.5, 1000)
        half = np.concatenate([(a + 0.5) * lat.Ar + (b + u) * lat.Br, (a + u) * lat.Ar + (b + 0.5) * lat.Br])
        cases.append((lat, np.concatenate([z, half])))
    assert cases[0][1].size == 100 * 70
    for lat, z in cases:
        got, want = lat.reduce(z), _reduce_by_broadcast(lat, z)
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()
        # one argument alone, as the scalar path sees it
        for x in z[:50]:
            assert complex(lat.reduce(x)[0]) == complex(_reduce_by_broadcast(lat, x)[0])


@pytest.mark.parametrize("lat", ORACLE_LATTICES + [Lattice(40, 40j)],
                         ids=["tau=i", "tau=0.3+1.2i", "oblique", "tau=6i", "tau=100i", "omega=40"])
def test_guard_on_the_reduced_argument_is_the_lattice_distance_test(lat):
    # near every lattice point of a 7 x 7 block, at, inside and outside the
    # guard radius, and near the cell's corners and edge midpoints: a guarded
    # call raises exactly where lattice_distance is below the radius, with
    # that distance, alone and at its place in a batch
    rng = np.random.default_rng(29)
    r = lat._guard_radius
    m, n = np.meshgrid(np.arange(-3, 4), np.arange(-3, 4))
    points = (m * lat.Ar + n * lat.Br).ravel()
    radii = r * np.array([0.0, 1e-6, 0.5, 0.999, 1.0, 1.001, 2.0, 50.0])
    offsets = np.concatenate([radii * np.exp(2j * np.pi * rng.random(radii.size)),
                              r * rng.uniform(0, 2, 8) * np.exp(2j * np.pi * rng.random(8))])
    near = (points[:, None] + offsets).ravel()
    corners = np.array([(a * lat.Ar + b * lat.Br) / 2 for a in (-1, 0, 1) for b in (-1, 0, 1) if a or b])
    edges = (points[:, None] + corners + r * (rng.random((points.size, corners.size)) - 0.5)).ravel()
    z = np.concatenate([near, edges])
    dist = lat.lattice_distance(z)
    assert np.any(dist < r) and np.any((dist >= r) & (dist < 2 * r))
    for fn in (lat.zeta, lat.wp, lat.wp_prime):
        for x, d in zip(z, dist):
            if d < r:
                with pytest.raises(PoleProximityError) as exc:
                    fn(x)
                assert (exc.value.index, exc.value.distance) == (0, d)
            else:
                fn(x)
    first = int(np.argmax(dist < r))
    with pytest.raises(PoleProximityError) as exc:
        lat.wp_prime(z)
    assert (exc.value.index, exc.value.distance) == (first, dist[first])
    assert np.all(np.isfinite(lat.wp_prime(z[dist >= r])))
