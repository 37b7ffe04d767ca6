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


def test_wp_prime_dual_route(lat):
    # independent evaluation path: wp'(z) = -sigma(2z)/sigma(z)^4
    for z in (0.41 + 0.23j, 0.72 - 0.31j):
        assert abs(lat.wp_prime(z) + lat.sigma(2 * z) / lat.sigma(z) ** 4) < 1e-9


ORACLE_LATTICES = LATTICES + [Lattice(1.3 + 0.2j, 0.4 + 2.1j), Lattice(1.0, 6j)]


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
        with pytest.raises(PoleProximityError):
            fn(batch)
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
                         ids=["tau=i", "tau=0.3+1.2i", "oblique", "tau=6i", "omega=40"])
def test_values_independent_of_batch_shape(lat):
    rng = np.random.default_rng(12)
    z = abs(lat.omega1) * (rng.uniform(-3, 3, 200) + 1j * rng.uniform(-3, 3, 200))
    for fn in (lat.sigma, lat.zeta, lat.wp, lat.wp_prime):
        whole = fn(z)
        assert np.array_equal(np.array([fn(x) for x in z]), whole)
        assert np.array_equal(np.concatenate([fn(z[i:i + 7]) for i in range(0, z.size, 7)]), whole)
        assert np.array_equal(fn(z.reshape(8, 25)), whole.reshape(8, 25))
