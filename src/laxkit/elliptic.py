"""Numerical Weierstrass functions on a period lattice.

Evaluation runs through Jacobi theta series after two exact-in-spirit
reductions: the period basis is Gauss-reduced (so the nome satisfies
|q| <= e^{-pi sqrt(3)/2} and a handful of series terms give full double
precision), and the argument is translated to the fundamental cell with the
quasi-periodicity factors of sigma and zeta restored afterwards.  All
evaluators accept scalars or numpy arrays.
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
        self._k = 2 * ns + 1
        self._c = 2 * (-1.0) ** ns * self.q ** ((ns + 0.5) ** 2)
        self._th1p0 = float((self._c * self._k).real.sum()) + 1j * float((self._c * self._k).imag.sum())
        # the lattice points next to the reduced cell: 0, +-Ar, +-Br, +-(Ar+Br), +-(Ar-Br)
        la = np.array([self.Ar, self.Br, self.Ar + self.Br, self.Ar - self.Br])
        self._nbrs = np.concatenate([[0], la, -la])
        # quasi-period of the original first/second periods
        m1, n1 = self._int_coords(self.A)
        m2, n2 = self._int_coords(self.B)
        self.eta1 = (m1 * self.eta_Ar + n1 * self.eta_Br) / 2
        self.eta2 = (m2 * self.eta_Ar + n2 * self.eta_Br) / 2

    # -- reduction helpers ---------------------------------------------------

    def _int_coords(self, w):
        x, y = self._real_coords(w)
        m, n = round(float(x)), round(float(y))
        if abs(x - m) > 1e-9 or abs(y - n) > 1e-9:
            raise AssertionError("period is not a lattice vector of the reduced basis")
        return m, n

    def _real_coords(self, z):
        d = (self.Ar * np.conj(self.Br)).imag
        x = (z * np.conj(self.Br)).imag / d
        y = (z * np.conj(self.Ar)).imag / -d
        return x, y

    def reduce(self, z):
        """z0 in the fundamental cell plus integer shifts: z = z0 + m Ar + n Br."""
        z = np.asarray(z, dtype=complex)
        x, y = self._real_coords(z)
        m = np.round(x)
        n = np.round(y)
        return z - m * self.Ar - n * self.Br, m, n

    def lattice_distance(self, z):
        z0, _, _ = self.reduce(z)
        return self.cell_distance(z0)

    def cell_distance(self, z0):
        """Distance to the lattice of points already reduced by ``reduce``."""
        return np.abs(z0[..., None] - self._nbrs).min(axis=-1)

    def _guard_check(self, z):
        """``reduce(z)``, raising PoleProximityError within the guard radius."""
        z0, m, n = self.reduce(z)
        lim = self.guard * abs(self.omega1)
        if np.any(self.cell_distance(z0) < lim):
            raise PoleProximityError(f"argument within {lim:.3e} of a lattice point")
        return z0, m, n

    # -- theta layer ----------------------------------------------------------

    def _theta_all(self, u, orders=(0, 1, 2, 3)):
        u = np.asarray(u, dtype=complex)
        out = {}
        k = self._k.reshape((-1,) + (1,) * u.ndim)
        c = self._c.reshape((-1,) + (1,) * u.ndim)
        ku = k * u
        s, co = np.sin(ku), np.cos(ku)
        if 0 in orders:
            out[0] = (c * s).sum(axis=0)
        if 1 in orders:
            out[1] = (c * k * co).sum(axis=0)
        if 2 in orders:
            out[2] = -(c * k * k * s).sum(axis=0)
        if 3 in orders:
            out[3] = -(c * k**3 * co).sum(axis=0)
        return out

    # -- Weierstrass functions -------------------------------------------------

    def sigma(self, z):
        """Weierstrass sigma (entire, odd, simple zeros on the lattice)."""
        scalar = np.isscalar(z) or getattr(z, "ndim", 0) == 0
        z0, m, n = self.reduce(z)
        u = np.pi * z0 / self.Ar
        th = self._theta_all(u, orders=(0,))
        base = (self.Ar / np.pi) * np.exp(self.eta_Ar * z0 * z0 / (2 * self.Ar)) * th[0] / self._th1p0
        w = m * self.Ar + n * self.Br
        etaw = m * self.eta_Ar + n * self.eta_Br
        sign = (-1.0) ** (m + n + m * n)
        with np.errstate(over="ignore", invalid="ignore"):
            # the quasi-periodicity factor overflows for arguments many
            # periods out; callers guard ranges
            val = sign * np.exp(etaw * (z0 + w / 2)) * base
        return complex(val) if scalar else val

    def zeta(self, z):
        """Weierstrass zeta (odd, quasi-periodic, simple poles)."""
        scalar = np.isscalar(z) or getattr(z, "ndim", 0) == 0
        z0, m, n = self._guard_check(z)
        u = np.pi * z0 / self.Ar
        th = self._theta_all(u, orders=(0, 1))
        val = self.eta_Ar * z0 / self.Ar + (np.pi / self.Ar) * th[1] / th[0]
        val = val + m * self.eta_Ar + n * self.eta_Br
        return complex(val) if scalar else val

    def wp(self, z):
        """Weierstrass P function."""
        scalar = np.isscalar(z) or getattr(z, "ndim", 0) == 0
        z0, _, _ = self._guard_check(z)
        u = np.pi * z0 / self.Ar
        th = self._theta_all(u, orders=(0, 1, 2))
        r1 = th[1] / th[0]
        val = -self.eta_Ar / self.Ar - (np.pi / self.Ar) ** 2 * (th[2] / th[0] - r1 * r1)
        return complex(val) if scalar else val

    def wp_prime(self, z):
        """Derivative of the Weierstrass P function."""
        scalar = np.isscalar(z) or getattr(z, "ndim", 0) == 0
        z0, _, _ = self._guard_check(z)
        u = np.pi * z0 / self.Ar
        th = self._theta_all(u)
        r1 = th[1] / th[0]
        val = -((np.pi / self.Ar) ** 3) * (th[3] / th[0] - 3 * th[2] * r1 / th[0] + 2 * r1**3)
        return complex(val) if scalar else val

    # -- diagnostics ------------------------------------------------------------

    def addition_identity_residual(self, z, u):
        """|sigma(z+u) sigma(z-u) / (sigma(z)^2 sigma(u)^2) - (wp(u) - wp(z))|.

        Cross-checks the sigma and wp evaluation paths against each other
        through the classical addition identity.
        """
        self._guard_check(z)
        self._guard_check(u)
        self._guard_check(np.asarray(z) + u)
        self._guard_check(np.asarray(z) - u)
        lhs = self.sigma(np.asarray(z) + u) * self.sigma(np.asarray(z) - u) / (
            self.sigma(z) ** 2 * self.sigma(u) ** 2
        )
        return abs(lhs - (self.wp(u) - self.wp(z)))

    def legendre_residual(self):
        """|eta1 omega2 - eta2 omega1 - i pi / 2|, zero up to roundoff."""
        return abs(self.eta1 * self.omega2 - self.eta2 * self.omega1 - 1j * cmath.pi / 2)

    def __repr__(self):
        return f"Lattice(omega1={self.omega1}, omega2={self.omega2})"
