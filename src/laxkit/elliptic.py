"""Numerical Weierstrass functions on a period lattice.

The period basis is Gauss-reduced once per lattice, so the nome satisfies
|q| <= e^{-pi sqrt(3)/2} and a handful of Jacobi theta terms give full
double precision.  One evaluator serves sigma, zeta, wp and wp': it reduces
the arguments once to the fundamental cell (sigma and zeta restore their
quasi-periodicity factors from the integer shifts), guards them once and
sums theta_1 and its derivatives along one row per argument.  sigma is
entire and unguarded; zeta, wp and wp' raise PoleProximityError when any
argument lies within the guard radius of a lattice point.  All functions
take a scalar (returning a Python complex) or an array of any shape, and a
value does not depend on the shape or length of the batch it came in.

Everything that does not depend on the arguments is built once per lattice:
the conjugated basis and denominators of the reduction, the guard radius,
the scaled wave numbers (pi/Ar) k, sigma's theta_1 weights over sin(ku), and
one (4, 2T) block of the weights of theta_1 and its first three derivatives
over [sin(ku) | cos(ku)], zero off-block.  A call then reduces the arguments
in one (N, 2) pass.  sigma sums its sin-only row; zeta, wp and wp' form all
their theta sums as one product and one row sum per argument and read them
as ratios to theta_1.  So the equations of motion, which call wp' on 1 to 19
arguments for n <= 3, pay a fixed cost of about two dozen numpy operations.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

__all__ = ["Lattice", "PoleProximityError"]


class PoleProximityError(ValueError):
    """Argument within the guard radius of a lattice point."""


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
    g2, g3) are precomputed once.
    """

    def __init__(self, omega1=1.0, omega2=1.0j, guard=1e-3, tol=1e-17):
        self.omega1 = complex(omega1)
        self.omega2 = complex(omega2)
        if (self.omega2 / self.omega1).imag <= 0:
            raise ValueError("require Im(omega2/omega1) > 0")
        self.guard = guard
        self.A = 2 * self.omega1
        self.B = 2 * self.omega2
        self.Ar, self.Br = _reduce_basis(self.A, self.B)
        self.tau = self.Br / self.Ar
        self.q = cmath.exp(1j * cmath.pi * self.tau)
        Q = self.q * self.q
        e2 = e4 = e6 = 0.0 + 0.0j
        qn = Q
        n = 1
        while abs(qn) > tol and n < 200:
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
        ns = np.arange(nmax + 1)
        k = 2 * ns + 1
        c = 2 * (-1.0) ** ns * self.q ** ((ns + 0.5) ** 2)
        # u = pi z0 / Ar, so ku = z0 times the scaled wave numbers
        self._kscaled = (np.pi / self.Ar) * k
        # sigma's theta_1 row over sin(ku) alone, and the rows of theta_1,
        # theta_1', theta_1'' and theta_1''' over [sin(ku) | cos(ku)]
        self._w_sigma = c
        zero = np.zeros_like(c)
        self._w = np.array([np.concatenate(row) for row in
                            ((c, zero), (zero, c * k), (-(c * k * k), zero), (zero, -(c * k**3)))])
        th1p0 = float((c * k).real.sum()) + 1j * float((c * k).imag.sum())
        # sigma = scale * exp(gauss * z0^2 + quasi-periodic exponent) * theta_1
        self._sigma_scale = (self.Ar / np.pi) / th1p0
        self._sigma_gauss = self.eta_Ar / (2 * self.Ar)
        self._wpp_scale = -((np.pi / self.Ar) ** 3)
        # the lattice points next to the reduced cell: 0, +-Ar, +-Br, +-(Ar+Br), +-(Ar-Br)
        la = np.array([self.Ar, self.Br, self.Ar + self.Br, self.Ar - self.Br])
        self._nbrs = np.concatenate([[0], la, -la])
        self._guard_radius = guard * abs(self.omega1)
        # reduce: the integer shifts are Im(z conj(Br)) / d and Im(z conj(Ar)) / -d
        d = (self.Ar * np.conj(self.Br)).imag
        self._shift_rows = np.array([np.conj(self.Br), np.conj(self.Ar)])
        self._shift_den = np.array([d, -d])
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
        mn = np.rint((z[..., None] * self._shift_rows).imag / self._shift_den)
        m, n = mn[..., 0], mn[..., 1]
        return z - m * self.Ar - n * self.Br, m, n

    def lattice_distance(self, z):
        """Distance from each argument to the nearest lattice point."""
        z0, _, _ = self.reduce(z)
        return np.abs(z0[..., None] - self._nbrs).min(axis=-1)

    # -- the evaluator ----------------------------------------------------------

    def _theta(self, z0, orders):
        """theta_1 at pi z0 / Ar, shape (N,), for ``orders`` 1; otherwise
        theta_1 and its derivatives below order ``orders``, shape (N, orders).

        Every value is one row sum over the series terms of its own argument,
        which keeps it independent of the batch."""
        ku = z0[:, None] * self._kscaled
        if orders == 1:
            return np.add.reduce(np.sin(ku) * self._w_sigma, axis=-1)
        sc = np.concatenate((np.sin(ku), np.cos(ku)), axis=1)
        return np.add.reduce(sc[:, None] * self._w[:orders], axis=-1)

    def _evaluate(self, z, formula, orders, guarded=True):
        """``formula(z0, m, n, th)`` on the flattened ``z = z0 + m Ar + n Br``,
        in the shape of ``z`` (a Python complex for a scalar), where ``th`` is
        ``_theta(z0, orders)``.  The formula sees 1-d arrays and that block."""
        z = np.asarray(z, dtype=complex)
        z0, m, n = self.reduce(z.ravel())
        if guarded:
            lim = self._guard_radius
            if np.minimum.reduce(np.abs(z0[:, None] - self._nbrs), axis=None, initial=np.inf) < lim:
                raise PoleProximityError(f"argument within {lim:.3e} of a lattice point")
        val = formula(z0, m, n, self._theta(z0, orders))
        return complex(val[0]) if z.ndim == 0 else val.reshape(z.shape)

    # -- Weierstrass functions -------------------------------------------------

    def sigma(self, z):
        """Weierstrass sigma (entire, odd, simple zeros on the lattice); unguarded."""

        def formula(z0, m, n, th):
            w = m * self.Ar + n * self.Br
            etaw = m * self.eta_Ar + n * self.eta_Br
            with np.errstate(over="ignore", invalid="ignore"):
                # the quasi-periodicity factor overflows for arguments many
                # periods out; callers guard ranges
                sign = 1 - 2 * ((m + n + m * n) % 2)
                expo = self._sigma_gauss * z0 * z0 + etaw * (z0 + w / 2)
                return sign * self._sigma_scale * np.exp(expo) * th

        return self._evaluate(z, formula, 1, guarded=False)

    def zeta(self, z):
        """Weierstrass zeta (odd, quasi-periodic, simple poles)."""

        def formula(z0, m, n, th):
            r1 = th[:, 1] / th[:, 0]
            return self.eta_Ar * z0 / self.Ar + (np.pi / self.Ar) * r1 + m * self.eta_Ar + n * self.eta_Br

        return self._evaluate(z, formula, 2)

    def wp(self, z):
        """Weierstrass P function."""

        def formula(z0, m, n, th):
            r = th[:, 1:] / th[:, :1]
            r1 = r[:, 0]
            return -self.eta_Ar / self.Ar - (np.pi / self.Ar) ** 2 * (r[:, 1] - r1 * r1)

        return self._evaluate(z, formula, 3)

    def wp_prime(self, z):
        """Derivative of the Weierstrass P function."""

        def formula(z0, m, n, th):
            # the terms cancel where wp' is small (large Im tau), so their order
            # sets the rounding there: the factored r3 - r1 (3 r2 - 2 r1^2)
            # moves such values by 2e-14 of |wp'| + median |wp'|
            r = th[:, 1:] / th[:, :1]
            r1 = r[:, 0]
            return self._wpp_scale * (r[:, 2] - 3 * th[:, 2] * r1 / th[:, 0] + 2 * r1**3)

        return self._evaluate(z, formula, 4)

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
