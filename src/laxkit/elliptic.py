"""Numerical Weierstrass functions on a period lattice.

The period basis is Gauss-reduced once per lattice, so the nome satisfies
|q| <= e^{-pi sqrt(3)/2} and a handful of Jacobi theta terms give full
double precision.  sigma, sigma', zeta, wp and wp' share one helper that
reduces the arguments to the fundamental cell, z = z0 + m Ar + n Br
elementwise (sigma, sigma' and zeta restore their quasi-periodicity factors
from the integer shifts), and guards them; each then sums theta_1 and its
derivatives along one row per argument and applies its formula directly.
sigma and sigma' are entire and unguarded; zeta, wp and wp' raise
PoleProximityError when any argument lies within the guard radius r of a
lattice point.  The guard tests |z0| < r on the reduced argument alone: a
lattice point other than 0 lies at least half the cell's height, area /
(2 |Br|), from the reduced cell, so while r is below that (``Lattice``
raises ValueError otherwise) |z0| < r holds exactly when the argument is
within r of the lattice, and |z0| is then its distance to the lattice.  All
functions take a scalar (returning a Python complex) or an array of any
shape, and a value does not depend on the shape or length of the batch it
came in.

The theta series is summed in factored form.  With s = sin u and c = cos u,
sin(ku) = (-1)^n T_k(s) and cos(ku) = T_k(c) for odd k = 2n + 1 (T_k the
Chebyshev polynomial), so theta_1 = s A(s^2) and theta_1'' are odd
polynomials in s, theta_1' and theta_1''' odd polynomials in c.  A call takes
one sine and one cosine per argument, not one per series term, and each row
keeps its zeros as an exact factor: s on the lattice, c at the half-periods.
Values there stay as accurate as the rounding of u itself.

Everything that does not depend on the arguments is built once per lattice:
the conjugated basis and denominators of the reduction, the guard radius and
one (2, 2, 1, T) block of the weights of theta_1 to theta_1''' over those
powers.  wp and wp' have blocks of their own.  wp's folds E2/3 theta_1 into
the theta_1'' row, so its constant term costs no cancelling sum at run
time.  wp''s folds in its scale K = -(pi/Ar)^3, with the rows theta_1,
theta_1', 3K theta_1'' and K theta_1''', so its formula (t3 - t2 r1)/t0 +
2K r1^3 takes seven array operations.  A call reduces the arguments in one
pass per lattice coordinate.  sigma alone takes Horner's rule in s^2, which
pays on the wide calls of L(z) on a contour (hundreds to thousands of
arguments).  The others raise [s, c] to the odd powers in one operation and
form all their theta sums as one product and one row sum per argument: a
fixed two dozen or so numpy operations on the 1 to 19 arguments of the
equations of motion for n <= 3, where Horner's rule would add about six.
"""

from __future__ import annotations

import cmath
import math
import sys

import numpy as np

__all__ = ["Lattice", "PoleProximityError"]


class PoleProximityError(ValueError):
    """Argument within the guard radius of a lattice point.

    ``index`` is the flat index of the first such argument in its batch and
    ``distance`` its distance to the nearest lattice point."""

    def __init__(self, index, distance, radius):
        super().__init__(f"argument {index} at distance {distance:.3e} from a lattice point, "
                         f"within the guard radius {radius:.3e}")
        self.index = index
        self.distance = distance


def _theta_weights(c, shift):
    """Weights of theta_1(u) = sum_n c_n sin(ku), k = 2n + 1, and of its first
    three derivatives over odd powers of sin u and cos u, as (2, 2, 1, T)
    blocks: [a, b] holds derivative 2a + b over sin(u)^k (b = 0) or cos(u)^k
    (b = 1), k descending.  The second block has theta_1'' + shift theta_1 in
    place of theta_1''.

    sin(ku) = (-1)^n T_k(sin u) and cos(ku) = T_k(cos u), with T_k the
    Chebyshev polynomial, so each row keeps its zeros as an exact factor: sin u
    on the lattice and cos u at the half-periods."""
    terms = len(c)
    cheb = [[1], [0, 1]]
    while len(cheb) < 2 * terms:
        nxt = [0] + [2 * v for v in cheb[-1]]
        for i, v in enumerate(cheb[-2]):
            nxt[i] -= v
        cheb.append(nxt)
    # odd[n, j]: the coefficient of t^(2j+1) in T_k(t); mult[d, n, j] the
    # integer multiple of c_n in the weight of derivative d on power 2j + 1,
    # from theta_1^(d) = sum c_n k^d (sin, cos, -sin, -cos)(ku)
    odd = np.array([cheb[2 * n + 1][1::2] + [0] * (terms - n - 1) for n in range(terms)], dtype=float)
    k = 2.0 * np.arange(terms)[:, None] + 1
    sin_sign = (-1.0) ** np.arange(terms)[:, None]
    mult = np.array([sin_sign * odd, k * odd, -(k**2) * sin_sign * odd, -(k**3) * odd])
    # one rounded product per term, and the small terms (high n) summed
    # first: the n = 0 term, c_0 times +-1, is exact and the largest
    w = sum(c[n] * mult[:, n] for n in reversed(range(terms)))
    shifted = w.copy()
    shifted[2] += shift * w[0]
    return tuple(np.ascontiguousarray(v[:, ::-1]).reshape(2, 2, 1, terms) for v in (w, shifted))


def _reduce_basis(a, b, max_iter=100):
    """Gauss reduction of the lattice basis (a, b), keeping Im(b/a) > 0."""
    for _ in range(max_iter):
        if (b / a).imag < 0:
            b = -b
        t = b / a
        n = round(t.real)
        if n:
            b = b - n * a
        if abs(b) < abs(a):
            a, b = b, a
            continue
        t = b / a
        if abs(t.real) <= 0.5 + 1e-14 and abs(t) >= 1 - 1e-14:
            break
    if (b / a).imag < 0:
        b = -b
    return a, b


class Lattice:
    """Lattice spanned by the full periods 2*omega1 and 2*omega2.

    ``omega1`` and ``omega2`` are the half-periods; the orientation
    Im(omega2/omega1) > 0 is required.  Weierstrass constants (quasi-periods,
    g2, g3) are precomputed once; the guard radius is 1e-3 |omega1|, and it
    must stay below half the reduced cell's height, area / (2 |Br|), the
    premise of the guard on the reduced argument (ValueError otherwise).
    The reduced Im tau must stay below log(max float) / (k_max pi 0.51), for
    the highest odd power k_max of the theta table (about 147.7 with k_max =
    3), or the powers of sin u overflow over the cell (ValueError otherwise).
    """

    def __init__(self, omega1=1.0, omega2=1.0j):
        self.omega1 = complex(omega1)
        self.omega2 = complex(omega2)
        if (self.omega2 / self.omega1).imag <= 0:
            raise ValueError("require Im(omega2/omega1) > 0")
        self.A = 2 * self.omega1
        self.B = 2 * self.omega2
        self.Ar, self.Br = _reduce_basis(self.A, self.B)
        # |d| is the cell's area; a lattice point other than 0 is at least
        # half its height over the longer side Br from the reduced cell
        d = (self.Ar * np.conj(self.Br)).imag
        self._guard_radius = 1e-3 * abs(self.omega1)
        half_height = abs(d) / (2 * abs(self.Br))
        if self._guard_radius >= half_height:
            raise ValueError(f"guard radius {self._guard_radius:.3e} reaches half the reduced cell's "
                             f"height {half_height:.3e}: the lattice is too thin for 1e-3 |omega1|")
        self.tau = self.Br / self.Ar
        self.q = cmath.exp(1j * cmath.pi * self.tau)
        Q = self.q * self.q
        e2 = e4 = e6 = 0.0 + 0.0j
        qn = Q
        n = 1
        while abs(qn) > 1e-17 and n < 200:
            f = qn / (1 - qn)
            e2 += n * f
            e4 += n**3 * f
            e6 += n**5 * f
            qn *= Q
            n += 1
        self.E2 = 1 - 24 * e2
        self.E4 = 1 + 240 * e4
        self.E6 = 1 - 504 * e6
        self.eta_Ar = cmath.pi**2 * self.E2 / (3 * self.Ar)
        self.eta_Br = (self.eta_Ar * self.Br - 2j * cmath.pi) / self.Ar
        self.g2 = (4 * cmath.pi**4 / 3) * self.E4 / self.Ar**4
        self.g3 = (8 * cmath.pi**6 / 27) * self.E6 / self.Ar**6
        # theta-series term count for |Im u| <= pi * 0.51 * Im tau
        im = self.tau.imag
        nmax = 1
        while math.pi * im * ((nmax + 0.5) ** 2 - (2 * nmax + 1) * 0.51) < 46 and nmax < 64:
            nmax += 1
        # the odd powers of sin u and cos u, up to k_max = 2 nmax + 1, grow as
        # e^(k_max |Im u|) and must stay finite over that range
        limit = math.log(sys.float_info.max) / ((2 * nmax + 1) * math.pi * 0.51)
        if im >= limit:
            raise ValueError(f"reduced Im tau {im:.4g} reaches the limit {limit:.4g}: the theta table's "
                             f"powers of sin u and cos u up to {2 * nmax + 1} overflow over the cell")
        ns = np.arange(nmax + 1)
        k = 2 * ns + 1
        c = 2 * (-1.0) ** ns * self.q ** ((ns + 0.5) ** 2)
        # wp = -(pi/Ar)^2 (theta_1''/theta_1 + E2/3 - (theta_1'/theta_1)^2): its
        # block folds the constant into the second-derivative row
        self._w, self._w_wp = _theta_weights(c, self.E2 / 3)
        # wp' = K (r3 - 3 r2 r1 + 2 r1^3), r_k = theta_1^(k)/theta_1 and K =
        # -(pi/Ar)^3: its block folds K, and the 3 of r2, into the rows
        K = -((np.pi / self.Ar) ** 3)
        self._w_wpp = self._w * np.array([[1, 1], [3 * K, K]]).reshape(2, 2, 1, 1)
        self._wpp_2k = np.array(2 * K)
        # theta_1 over s = sin u, highest power first, for Horner's rule in s^2
        self._horner = tuple(np.array(w) for w in self._w[0, 0, 0])
        # complex exponents: integer ones would be cast on every call
        self._odd = k[::-1].astype(complex)
        self._u_scale = np.array(np.pi / self.Ar)
        th1p0 = float((c * k).real.sum()) + 1j * float((c * k).imag.sum())
        # sigma = scale * exp(gauss * z0^2 + quasi-periodic exponent) * theta_1
        self._sigma_scale = np.array((self.Ar / np.pi) / th1p0)
        self._sigma_gauss = np.array(self.eta_Ar / (2 * self.Ar))
        self._wp_scale = np.array(-((np.pi / self.Ar) ** 2))
        # the lattice points next to the reduced cell: 0, +-Ar, +-Br, +-(Ar+Br), +-(Ar-Br)
        la = np.array([self.Ar, self.Br, self.Ar + self.Br, self.Ar - self.Br])
        self._nbrs = np.concatenate([[0], la, -la])
        # reduce: the integer shifts are Im(z conj(Br)) / d and Im(z conj(Ar)) / -d
        self._conj_br, self._conj_ar = np.array(np.conj(self.Br)), np.array(np.conj(self.Ar))
        self._d, self._neg_d = np.array(d), np.array(-d)
        # constants of the per-call arithmetic are 0-d arrays: numpy converts a
        # Python scalar operand anew on every call
        self._ar, self._br = np.array(self.Ar), np.array(self.Br)
        self._half_ar, self._half_br = np.array(self.Ar / 2), np.array(self.Br / 2)
        self._eta_ar, self._eta_br = np.array(self.eta_Ar), np.array(self.eta_Br)
        # quasi-period of the original first/second periods
        m1, n1 = self._int_coords(self.A)
        m2, n2 = self._int_coords(self.B)
        self.eta1 = (m1 * self.eta_Ar + n1 * self.eta_Br) / 2
        self.eta2 = (m2 * self.eta_Ar + n2 * self.eta_Br) / 2

    # -- reduction helpers ---------------------------------------------------

    def _int_coords(self, w):
        w0, m, n = self.reduce(w)
        if abs(w0) > 1e-9 * abs(self.Ar):
            raise AssertionError("period is not a lattice vector of the reduced basis")
        return int(m), int(n)

    def reduce(self, z):
        """z0 in the fundamental cell plus integer shifts: z = z0 + m Ar + n Br."""
        z = np.asarray(z, dtype=complex)
        # one pass per coordinate; the quotient by d stays a division of its
        # own, since a row with 1/d folded in rounds some shifts differently
        m = np.rint((z * self._conj_br).imag / self._d)
        n = np.rint((z * self._conj_ar).imag / self._neg_d)
        return z - m * self._ar - n * self._br, m, n

    def lattice_distance(self, z):
        """Distance from each argument to the nearest lattice point."""
        z0, _, _ = self.reduce(z)
        return np.abs(z0[..., None] - self._nbrs).min(axis=-1)

    # -- the evaluator ----------------------------------------------------------

    def _theta(self, z0, orders, w=None):
        """theta_1 at u = pi z0 / Ar, shape (N,), for ``orders`` 1; otherwise
        the first ``orders`` rows of the weight block ``w`` (by default
        theta_1 and its derivatives), shape (N, orders).

        theta_1 takes one sine per argument and Horner's rule in its
        square; the block takes one sine and one cosine per argument, their
        odd powers, and one row sum over them per value.  Every value is
        computed from its own argument alone, which keeps it independent of
        the batch."""
        u = z0 * self._u_scale
        if orders == 1:
            # Horner's rule in s^2, then the factor s; out of place, because an
            # in-place product can round a short array differently
            s = np.sin(u)
            s2 = s * s
            acc = self._horner[0]
            for w in self._horner[1:]:
                acc = acc * s2 + w
            return acc * s
        sc = np.empty((2, u.size), complex)
        np.sin(u, sc[0])
        np.cos(u, sc[1])
        w = (self._w if w is None else w)[:(orders + 1) // 2]
        th = np.add.reduce(sc[:, :, None] ** self._odd * w, axis=-1)
        return th.reshape(2 * len(w), -1)[:orders].T

    def _reduced(self, z, guarded=True):
        """The flat z0, m, n of ``z = z0 + m Ar + n Br``.  Guarded, the first
        argument with |z0| below the guard radius raises PoleProximityError
        with |z0| as its distance: below half the cell's height, the
        premise ``__init__`` checks, that is its distance to the lattice."""
        z0, m, n = self.reduce(z.ravel())
        if guarded:
            lim = self._guard_radius
            dist = np.abs(z0)
            if np.minimum.reduce(dist, initial=np.inf) < lim:
                i = int(np.argmax(dist < lim))
                raise PoleProximityError(i, float(dist[i]), lim)
        return z0, m, n

    @staticmethod
    def _shaped(val, z):
        """``val``, its last axis the flattened ``z``, in the shape of ``z``: a
        Python complex for one value at a scalar."""
        return complex(val[0]) if z.ndim == 0 and val.ndim == 1 else val.reshape(val.shape[:-1] + z.shape)

    # -- Weierstrass functions -------------------------------------------------

    def sigma(self, z):
        """Weierstrass sigma (entire, odd, simple zeros on the lattice); unguarded."""
        return self._sigma(z, 1)

    def _sigma(self, z, orders):
        """sigma for ``orders`` 1; for 2, sigma and sigma' = sigma zeta stacked,
        both entire: sigma' reads theta_1' with no quotient by theta_1."""
        z = np.asarray(z, dtype=complex)
        z0, m, n = self._reduced(z, guarded=False)
        th = self._theta(z0, orders)
        etaw = m * self._eta_ar + n * self._eta_br
        with np.errstate(over="ignore", invalid="ignore"):
            # the quasi-periodicity factor overflows for arguments many
            # periods out; callers guard ranges.  The sign is (-1)^(m + n +
            # mn): half that exponent is a whole or a half integer, and floor
            # costs far less than a float remainder
            half = (m + n + m * n) * 0.5
            sign = 1 - 4 * (half - np.floor(half))
            expo = self._sigma_gauss * z0 * z0 + etaw * (z0 + (m * self._half_ar + n * self._half_br))
            if orders == 2:  # zeta = eta_Ar z0 / Ar + etaw + (pi / Ar) theta_1' / theta_1
                zeta_part = 2 * self._sigma_gauss * z0 + etaw
                th = np.stack([th[:, 0], th[:, 0] * zeta_part + self._u_scale * th[:, 1]])
            val = sign * self._sigma_scale * np.exp(expo) * th
        return self._shaped(val, z)

    def zeta(self, z):
        """Weierstrass zeta (odd, quasi-periodic, simple poles)."""
        z = np.asarray(z, dtype=complex)
        z0, m, n = self._reduced(z)
        th = self._theta(z0, 2)
        r1 = th[:, 1] / th[:, 0]
        return self._shaped(self.eta_Ar * z0 / self.Ar + (np.pi / self.Ar) * r1
                            + m * self.eta_Ar + n * self.eta_Br, z)

    def wp(self, z):
        """Weierstrass P function."""
        z = np.asarray(z, dtype=complex)
        th = self._theta(self._reduced(z)[0], 3, self._w_wp)
        r = th[:, 1:] / th[:, :1]
        r1 = r[:, 0]
        return self._shaped(self._wp_scale * (r[:, 1] - r1 * r1), z)

    def wp_prime(self, z):
        """Derivative of the Weierstrass P function."""
        z = np.asarray(z, dtype=complex)
        # rows theta_1, theta_1', 3K theta_1'', K theta_1''': the terms cancel
        # where wp' is small (large Im tau), so their order sets the rounding
        # there: the factored r3 - r1 (3 r2 - 2 r1^2) moves such values by
        # 2e-14 of |wp'| + median |wp'|
        t0, t1, t2, t3 = self._theta(self._reduced(z)[0], 4, self._w_wpp).T
        r1 = t1 / t0
        return self._shaped((t3 - t2 * r1) / t0 + self._wpp_2k * r1**3, z)

    # -- diagnostics ------------------------------------------------------------

    def addition_identity_residual(self, z, u):
        """|sigma(z+u) sigma(z-u) / (sigma(z)^2 sigma(u)^2) - (wp(u) - wp(z))|.

        Cross-checks the sigma and wp evaluation paths against each other
        through the classical addition identity; the wp call guards all four
        arguments.
        """
        args = np.array([z, u, z + u, z - u])
        w = self.wp(args)
        s = self.sigma(args)
        return abs(s[2] * s[3] / (s[0] ** 2 * s[1] ** 2) - (w[1] - w[0]))

    def legendre_residual(self):
        """|eta1 omega2 - eta2 omega1 - i pi / 2|, zero up to roundoff."""
        return abs(self.eta1 * self.omega2 - self.eta2 * self.omega1 - 1j * cmath.pi / 2)

    def __repr__(self):
        return f"Lattice(omega1={self.omega1}, omega2={self.omega2})"
