"""Elliptic Calogero-Moser systems with spectral-parameter Lax matrices.

Families A (gl, n particles), B (so(2n+1)), C (sp(2n)) and D (so(2n)) with
pairwise Weierstrass interactions.  The Lax matrices are sigma-quotient
matrices on the torus, valued in the defining algebra of the family; the
second-order Hamiltonian has two independent routes, a closed form and the
contour residue of z^{-1} tr L(z)^2 at the puncture, which must agree (for
the B family up to the exact constant 2 n wp(q0) dropped when restricting
to the frozen-q0 submanifold).

Isospectrality of the closed-form flow holds for A (all n) and for D with
n <= 3, where the so(2n) weight-form matrix, made elliptic by a diagonal
gauge, is used.  It fails for D with n >= 4 and for the B and C matrices.
``expansion_violations`` measures the local expansion conditions of the
Lax operator algebra at the moving poles: the A and D matrices meet them,
the B and C matrices do not in the standard frame.

The closed form reads one linear plan per system, built once by
``CMSystem``: one row P q + c per distinct argument (c nonzero only in the
B rows that hold q0) with weights w, a kinetic coefficient kappa and one
(kind, particles) label each.  H = kappa p.p + w . wp(P q + c), the
equations of motion are its gradient (qdot = 2 kappa p, pdot = -P^T (w *
wp'(P q + c)), read through the plan's exact force matrix G = P^T diag(w)),
and the collision guard names the label of the first row on the lattice.

Sign convention: the stored Hamiltonian has a negative kinetic term, as the
residue normalization produces it; ``physical_sign=True`` negates it, which
reverses time but changes no conserved quantity.
"""

from __future__ import annotations

import csv
import functools
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .elliptic import Lattice, PoleProximityError
from .liealg import family_to_kind, sigma_for

__all__ = [
    "CMSystem",
    "CMState",
    "CollisionError",
    "check_state",
    "default_couplings",
    "lax_matrix",
    "family_sigma_matrix",
    "hamiltonian",
    "residue_hamiltonian",
    "hamiltonian_from_residue",
    "equations_of_motion",
    "integrate",
    "Trajectory",
    "random_state",
    "conservation_initial_data",
    "conservation_z_samples",
    "spectral_invariants",
    "eigenvalue_drift",
    "poisson_bracket",
    "residue_hamiltonian_fn",
    "involution_table",
    "tyurin_residue_check",
    "moving_points",
    "expansion_violations",
    "run_conservation",
    "write_trajectory_csv",
]

FAMILIES = ("A", "B", "C", "D")


class CollisionError(RuntimeError):
    """Particle collision or pole encounter; carries the partial trajectory.

    ``kind`` names the argument that hit the lattice (``q_i-q_j``,
    ``q_i+q_j``, ``q_i``, ``q0``, ``q_i-q0`` or ``q_i+q0``) and
    ``particles`` its 1-based particle indices, when known."""

    def __init__(self, message, trajectory=None, kind=None, particles=()):
        super().__init__(message)
        self.trajectory = trajectory
        self.kind = kind
        self.particles = tuple(particles)


# half-period of the square lattice of ``conservation_initial_data``, which
# the CLI's ``cm`` command uses by default
CONSERVATION_PERIOD = 40.0


def default_couplings(family, n):
    """Couplings satisfying the reduction products: f_ij f_ji = 1 for the A
    block, f^B_ij f^C_ji = -1 off the diagonal, f^B_ii f^C_ii = -2 for the C
    family (the sign that makes the residue route reproduce the conventional
    closed form), f^a = f^b = 1 for the B columns."""
    c = {"f": np.ones((n, n))}
    if family in ("B", "C", "D"):
        c["fB"] = np.ones((n, n))
        c["fC"] = -np.ones((n, n))
        if family == "C":
            np.fill_diagonal(c["fB"], 1.0)
            np.fill_diagonal(c["fC"], -2.0)
    if family == "B":
        c["fa"] = np.ones(n)
        c["fb"] = np.ones(n)
    return c


@dataclass
class CMSystem:
    family: str
    n: int
    lattice: Lattice = field(default_factory=Lattice)
    couplings: dict = None
    q0: complex = 0.53
    physical_sign: bool = False

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"family must be one of {FAMILIES}")
        if self.n < 1:
            raise ValueError("need at least one particle")
        if self.couplings is None:
            self.couplings = default_couplings(self.family, self.n)
        self._validate_couplings()
        self._plan = _linear_plan(self.family, self.n, self.q0)

    def _validate_couplings(self):
        c = self.couplings
        f = np.asarray(c["f"])
        prod = f * f.T
        off = ~np.eye(self.n, dtype=bool)
        # the decoupled limit (a pair of vanishing couplings) stays admissible
        pair_zero = (f == 0) & (f.T == 0)
        bad = off & ~pair_zero & ~np.isclose(prod, 1.0, atol=1e-12)
        if bad.any():
            raise ValueError("A-block couplings must satisfy f_ij f_ji = 1")
        if self.family in ("B", "C", "D"):
            fb, fc = np.asarray(c["fB"]), np.asarray(c["fC"])
            if not np.allclose((fb * fc.T)[off], -1.0, atol=1e-12):
                raise ValueError("block couplings must satisfy fB_ij fC_ji = -1")
            if self.family == "C":
                d = np.diag(fb) * np.diag(fc)
                if not np.allclose(np.abs(d), 2.0, atol=1e-12):
                    raise ValueError("C-family diagonal couplings must have |fB_ii fC_ii| = 2")

    @property
    def matrix_size(self):
        return {"A": self.n, "B": 2 * self.n + 1, "C": 2 * self.n, "D": 2 * self.n}[self.family]

    def sign(self):
        return -1.0 if self.physical_sign else 1.0


@dataclass
class CMState:
    q: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=complex)
        self.p = np.asarray(self.p, dtype=complex)

    def copy(self):
        return CMState(self.q.copy(), self.p.copy())


_Plan = namedtuple("_Plan", "P c w G kappa labels")


def _linear_plan(family, n, q0):
    """The arguments P q + c of a system's wp, wp' and collision guard, with
    the weights w and kinetic coefficient kappa of H = kappa p.p + w . wp(P q
    + c), the force matrix G = P^T diag(w) and one (kind, 1-based particles)
    label per row.  Rows, one per distinct argument: q_i - q_j (i < j); for
    B/C/D q_i + q_j (i <= j) and q_i; for B q0, q_i -+ q0.  wp is even and wp'
    odd, so a row stands for both orders of its pair and carries twice the
    pair's weight; the first row on the lattice is the first hit in the
    ordered-pair listing too, so it names the same argument.  G is exact: P
    has entries 0, +-1, 2 and w has 0, 1, 2."""
    eye = np.eye(n)
    singles = [(k,) for k in range(n)]
    # (rows of P, constant, weight(s), kind, 0-based particles of each row)
    i, j = _pairs(n)
    sections = [(eye[i] - eye[j], 0, 1.0 if family == "A" else 2.0, "q_i-q_j", zip(i, j))]
    if family != "A":
        i, j = _pairs(n, diagonal=True)
        w_sum = np.where(i == j, 2.0 if family == "C" else 0.0, 2.0)
        sections += [(eye[i] + eye[j], 0, w_sum, "q_i+q_j", zip(i, j)),
                     (eye, 0, 2.0 if family == "B" else 0.0, "q_i", singles)]
    if family == "B":
        sections += [(np.zeros((1, n)), q0, 0.0, "q0", [()]),
                     (eye, -q0, 0.0, "q_i-q0", singles),
                     (eye, q0, 0.0, "q_i+q0", singles)]
    rows = [len(s[0]) for s in sections]
    P = np.concatenate([s[0] for s in sections])
    w = np.concatenate([np.broadcast_to(s[2], r) for s, r in zip(sections, rows)])
    return _Plan(
        P=P,
        c=np.repeat(np.array([s[1] for s in sections], dtype=complex), rows),
        w=w,
        G=P.T * w,
        kappa=-0.5 if family == "A" else -1.0,
        labels=tuple((kind, tuple(int(k) + 1 for k in ks))
                     for _, _, _, kind, parts in sections for ks in parts))


def _arguments(sys_, q):
    """The plan's arguments P q + c at the positions q."""
    plan = sys_._plan
    return plan.P @ q + plan.c


def _guarded(sys_, q, fn):
    """``fn`` (a guarded lattice function) at the plan's arguments; a guard
    hit becomes the CollisionError naming the argument."""
    args = _arguments(sys_, q)
    try:
        return fn(args)
    except PoleProximityError:
        raise _collision_error(sys_, args) from None


def _collision_error(sys_, args):
    """CollisionError naming the first of the plan's arguments ``args``
    within the guard radius, or None."""
    lat = sys_.lattice
    lim = lat._guard_radius
    hit = np.flatnonzero(lat.lattice_distance(args) < lim)
    if not hit.size:
        return None
    kind, particles = sys_._plan.labels[hit[0]]
    label = kind
    for sym, k in zip(("i", "j"), particles):
        label = label.replace(f"_{sym}", f"_{k}")
    return CollisionError(f"particle collision: argument {label} (kind {kind}) within "
                          f"{lim:.1e} of a lattice point", kind=kind, particles=particles)


def check_state(sys_, state):
    """Raise CollisionError, naming the argument, if one of the state's
    collision arguments lies within the guard radius of the lattice."""
    err = _collision_error(sys_, _arguments(sys_, state.q))
    if err is not None:
        raise err


def _sigma_table(lat, args):
    """Sigma of named argument groups in one call.

    1-d groups are z-independent; 2-d groups carry the node axis first.
    Returns the values under the same names and in the same shapes."""
    sig = lat.sigma(np.concatenate([a.ravel() for a in args.values()]))
    out = {}
    i = 0
    for name, a in args.items():
        out[name] = sig[i:i + a.size].reshape(a.shape)
        i += a.size
    return out


def _a_args(q, z):
    """Arguments of ``_a_block`` at the nodes z (shape (K, 1))."""
    d = (q[:, None] - q[None, :])[~np.eye(len(q), dtype=bool)]
    return {"q": q, "d": d, "z": z, "z-q": z - q, "z-d": z - d}


def _a_block(sys_, p, s):
    """gl-type block over the nodes, shape (K, n, n): entries
    f_ij s(z+q_j-q_i) s(z-q_j) s(q_i) / (s(z) s(z-q_i) s(q_i-q_j) s(q_j))
    off the diagonal, p_j on it; ``s`` holds sigma at ``_a_args``."""
    n = len(p)
    off = ~np.eye(n, dtype=bool)
    i, j = np.nonzero(off)
    num = s["z-d"] * s["z-q"][:, j] * s["q"][i]
    with np.errstate(invalid="ignore", over="ignore"):
        den = s["z"] * s["z-q"][:, i] * s["d"] * s["q"][j]
        vals = np.asarray(sys_.couplings["f"], dtype=complex)[off] * num / den
    a = np.zeros((len(s["z"]), n, n), dtype=complex)
    a[:, off] = vals
    a[:, np.arange(n), np.arange(n)] = p
    return a


@functools.lru_cache(maxsize=None)
def _pairs(n, diagonal=False):
    """Index pairs a < b (a <= b with ``diagonal``), as from triu_indices;
    read-only, since every caller shares them."""
    pairs = np.triu_indices(n, 0 if diagonal else 1)
    for a in pairs:
        a.flags.writeable = False
    return pairs


def _bc_args(q, z, symmetric):
    """Arguments of ``_bc_blocks`` beyond those of ``_a_args``."""
    ps = (q[:, None] + q[None, :])[_pairs(len(q), symmetric)]
    return {"ps": ps, "z-ps": z - ps, "z+ps": z + ps, "z+q": z + q}


def _bc_blocks(sys_, s, symmetric):
    """The two off-diagonal blocks over the nodes, skew for B and symmetric
    for C (with the extra diagonal entries in the symmetric case).

    For a pair a < b (a <= b if symmetric) with x = q_a + q_b,
    B_ab = fB_ab s(z-x) s(z+q_b) / (s(z) s(z-q_a) s(x)) and
    C_ba = fC_ba s(z+x) s(z-q_a) / (s(z) s(z+q_b) s(x))."""
    n = s["q"].size
    a, b = _pairs(n, symmetric)
    fB = np.asarray(sys_.couplings["fB"], dtype=complex)
    fC = np.asarray(sys_.couplings["fC"], dtype=complex)
    bval = fB[a, b] * (s["z-ps"] * s["z+q"][:, b] / (s["z"] * s["z-q"][:, a] * s["ps"]))
    cval = fC[b, a] * (s["z+ps"] * s["z-q"][:, a] / (s["z"] * s["z+q"][:, b] * s["ps"]))
    sign = 1.0 if symmetric else -1.0
    B = np.zeros((len(s["z"]), n, n), dtype=complex)
    C = np.zeros_like(B)
    B[:, a, b] = bval
    B[:, b, a] = sign * bval
    C[:, a, b] = sign * cval
    C[:, b, a] = cval
    return B, C


def _border_args(q, q0, z):
    """Arguments of the B border beyond those of ``_a_args``."""
    zq0 = z - q0
    return {"z-q0": zq0, "z-q0-q": zq0 - q, "z-q0+q": zq0 + q}


def _b_lax(sys_, p, s):
    """Bordered so(2n+1) matrix over the nodes: the A and skew B/C blocks
    with the columns a_i = fa s(z-q0-q_i) s(z) / (s(z-q0) s(z-q_i) s(q_i))
    and b_i = fb s(z-q0+q_i) s(z-q_i) / (s(z) s(z-q0) s(q_i))."""
    n = len(p)
    a = _a_block(sys_, p, s)
    B, C = _bc_blocks(sys_, s, symmetric=False)
    fa = np.asarray(sys_.couplings["fa"], dtype=complex)
    fb = np.asarray(sys_.couplings["fb"], dtype=complex)
    avec = fa * s["z-q0-q"] * s["z"] / (s["z-q0"] * s["z-q"] * s["q"])
    bvec = fb * s["z-q0+q"] * s["z-q"] / (s["z"] * s["z-q0"] * s["q"])
    L = np.zeros((len(s["z"]), 2 * n + 1, 2 * n + 1), dtype=complex)
    L[:, :n, :n] = a
    L[:, :n, n] = avec
    L[:, :n, n + 1:] = B
    L[:, n, :n] = -bvec
    L[:, n, n + 1:] = -avec
    L[:, n + 1:, :n] = C
    L[:, n + 1:, n] = bvec
    L[:, n + 1:, n + 1:] = -np.swapaxes(a, 1, 2)
    return L


def _c_lax(sys_, p, s):
    """sp(2n) matrix over the nodes: [[A, B], [C, -A^T]] with the A block and
    the symmetric B/C blocks."""
    n = len(p)
    a = _a_block(sys_, p, s)
    B, C = _bc_blocks(sys_, s, symmetric=True)
    L = np.zeros((len(s["z"]), 2 * n, 2 * n), dtype=complex)
    L[:, :n, :n] = a
    L[:, :n, n:] = B
    L[:, n:, :n] = C
    L[:, n:, n:] = -np.swapaxes(a, 1, 2)
    return L


def _d_lax(sys_, q, p, z):
    """so(2n) Lax matrix over the nodes z (shape (K, 1)): the weight form
    [[A, B], [C, -A^T]] (B, C skew) conjugated by the torus gauge
    diag(h, 1/h), h_i = s(z+q_i/2) / s(z-q_i/2).

    With Phi(x) = s(z - x) / (s(z) s(x)) and e_ij = (-1)^(i+j+1) the weight
    form has A_ii = p_i, A_ij = f_ij Phi(q_i - q_j), and for i < j
    B_ij = fB_ij e_ij Phi(q_i + q_j), C_ji = -fC_ji e_ij Phi(-q_i - q_j), so
    that B_ij C_ji = wp(z) - wp(q_i + q_j) under fB_ij fC_ji = -1.  Its
    entries are only quasi-periodic in z; the gauge, which keeps the matrix
    in so(2n), makes them elliptic and adds the simple moving poles at
    z = +-q_i/2."""
    n = len(q)
    off = ~np.eye(n, dtype=bool)
    iu = _pairs(n)
    d = (q[:, None] - q[None, :])[off]
    ssum = (q[:, None] + q[None, :])[iu]
    x = np.concatenate([d, ssum, -ssum])
    s = _sigma_table(sys_.lattice, {"x": x, "z-x": z - x, "z": z,
                                    "z+q/2": z + q / 2, "z-q/2": z - q / 2})
    phi = s["z-x"] / (s["z"] * s["x"])
    k, m = d.size, ssum.size
    e = (-1.0) ** (iu[0] + iu[1] + 1)
    bval = np.asarray(sys_.couplings["fB"])[iu] * e * phi[:, k:k + m]
    cval = -np.asarray(sys_.couplings["fC"]).T[iu] * e * phi[:, k + m:]
    L = np.zeros((len(z), 2 * n, 2 * n), dtype=complex)
    a = L[:, :n, :n]
    a[:, off] = np.asarray(sys_.couplings["f"])[off] * phi[:, :k]
    a[:, np.arange(n), np.arange(n)] = p
    L[:, n:, n:] = -np.swapaxes(a, 1, 2)
    i, j = iu
    L[:, i, n + j] = bval
    L[:, j, n + i] = -bval
    L[:, n + j, i] = cval
    L[:, n + i, j] = -cval
    h = s["z+q/2"] / s["z-q/2"]
    g = np.concatenate([h, 1 / h], axis=1)
    return g[:, :, None] * L / g[:, None, :]


def lax_matrix(sys_, state, z):
    """Spectral-parameter Lax matrix of the configured family at z.

    ``z`` is a scalar, giving the (N, N) matrix, or a 1-d array of nodes,
    giving the (K, N, N) stack of the matrices at each node; the state is
    guarded once and sigma is evaluated in one call either way.  Every
    family gives sigma-quotient entries that are elliptic in z, with the
    fixed pole z = 0 and moving poles at ``moving_points``.  D uses the
    gauged weight form of ``_d_lax``; its flow is isospectral for n <= 3
    only."""
    check_state(sys_, state)
    q, p = state.q, state.p
    zs = np.asarray(z, dtype=complex)
    if zs.ndim > 1:
        raise ValueError("z must be a scalar or a 1-d array of nodes")
    nodes = zs.reshape(-1, 1)
    if sys_.family == "D":
        L = _d_lax(sys_, q, p, nodes)
    else:
        args = _a_args(q, nodes)
        if sys_.family in ("B", "C"):
            args.update(_bc_args(q, nodes, symmetric=sys_.family == "C"))
        if sys_.family == "B":
            args.update(_border_args(q, sys_.q0, nodes))
        s = _sigma_table(sys_.lattice, args)
        L = {"A": _a_block, "B": _b_lax, "C": _c_lax}[sys_.family](sys_, p, s)
    return L[0] if zs.ndim == 0 else L


def family_sigma_matrix(family, n):
    """Defining bilinear form of the matrix family (None for A), as a float
    array of ``liealg.sigma_for``."""
    if family == "A":
        return None
    return np.array(sigma_for(family_to_kind(family), n).rows, dtype=float)


# ---------------------------------------------------------------------------
# Hamiltonians
# ---------------------------------------------------------------------------


def hamiltonian(sys_, state):
    """Second-order Hamiltonian in closed form, kappa p.p + w . wp(P q + c)
    over the system's plan (residue-normalized sign: negative kinetic term;
    B family restricted to the frozen-q0 submanifold, constants dropped).

    One guarded wp call on the plan's arguments stands for ``check_state``."""
    plan = sys_._plan
    wp = _guarded(sys_, state.q, sys_.lattice.wp)
    h = complex(plan.kappa * np.sum(state.p * state.p) + plan.w @ wp)
    return sys_.sign() * (h.real if abs(h.imag) < 1e-9 * max(1.0, abs(h.real)) else h)


def _pole_set(sys_, state):
    """Poles of L(z) in the period cell: 0, the moving points, then the B
    border pole q0."""
    extra = [sys_.q0] if sys_.family == "B" else []
    return np.concatenate([[0j], moving_points(sys_, state)[0], extra])


def residue_hamiltonian(sys_, state, m=1, power=2, center=0.0, nodes=64, radius=None):
    """res_{z=center} z^{-m} tr L(z)^power dz by trapezoidal contour
    quadrature (exponentially accurate on the annulus of analyticity).

    The radius defaults to one third of the distance from the center to the
    nearest other pole of the integrand.
    """
    if sys_.family in ("B", "C", "D") and power % 2:
        raise ValueError("odd trace powers vanish identically for this family")
    lat = sys_.lattice
    poles = _pole_set(sys_, state)
    dist = lat.lattice_distance(poles - center)
    dist = dist[dist > 1e-12]
    if radius is None:
        if dist.size == 0:
            radius = 0.1 * abs(lat.omega1)
        else:
            radius = float(np.min(dist)) / 3.0
    if radius < 10 * lat._guard_radius:
        raise ValueError("contour radius collides with a neighbouring pole")
    w = radius * np.exp(2j * np.pi * np.arange(nodes) / nodes)
    ls = lax_matrix(sys_, state, center + w)
    traces = np.trace(np.linalg.matrix_power(ls, power), axis1=1, axis2=2)
    return np.sum(traces * w ** (1 - m)) / nodes


def hamiltonian_from_residue(sys_, state, nodes=64):
    """Second-order Hamiltonian through the residue route: -1/2 of the
    residue of z^{-1} tr L^2, plus the exact constant 2 n wp(q0) restoring
    the B-family restriction convention."""
    val = -0.5 * residue_hamiltonian(sys_, state, m=1, power=2, nodes=nodes)
    if sys_.family == "B":
        val = val + 2 * sys_.n * sys_.lattice.wp(sys_.q0)
    v = complex(val)
    out = v.real if abs(v.imag) < 1e-9 * max(1.0, abs(v.real)) else v
    return sys_.sign() * out


# ---------------------------------------------------------------------------
# dynamics
# ---------------------------------------------------------------------------


def equations_of_motion(sys_, state):
    """(qdot, pdot) of the closed-form Hamiltonian: qdot = 2 kappa p and
    pdot = -P^T (w * wp'(P q + c)) = -G wp'(P q + c), its gradient over the
    system's plan.

    One guarded wp' call on the plan's arguments stands for ``check_state``."""
    plan = sys_._plan
    wpp = _guarded(sys_, state.q, sys_.lattice.wp_prime)
    s = sys_.sign()
    return s * 2 * plan.kappa * state.p, -s * (plan.G @ wpp)


@dataclass
class Trajectory:
    times: np.ndarray
    qs: np.ndarray
    ps: np.ndarray
    completed: bool = True

    def state(self, i):
        return CMState(self.qs[i], self.ps[i])

    def __len__(self):
        return len(self.times)


def _rk4_step(sys_, state, dt):
    # the stages run on y = (q, p) stacked: one array operation per update
    n = sys_.n

    def rhs(y):
        return np.concatenate(equations_of_motion(sys_, CMState(y[:n], y[n:])))

    y = np.concatenate([state.q, state.p])
    k1 = rhs(y)
    k2 = rhs(y + dt / 2 * k1)
    k3 = rhs(y + dt / 2 * k2)
    k4 = rhs(y + dt * k3)
    y = y + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return CMState(y[:n], y[n:])


def _leapfrog_step(sys_, state, dt):
    # separable H = T(p) + V(q): kick-drift-kick
    q, p = state.q, state.p
    _, pdot = equations_of_motion(sys_, CMState(q, p))
    p = p + dt / 2 * pdot
    qdot, _ = equations_of_motion(sys_, CMState(q, p))
    q = q + dt * qdot
    _, pdot = equations_of_motion(sys_, CMState(q, p))
    p = p + dt / 2 * pdot
    return CMState(q, p)


_STEPPERS = {"rk4": _rk4_step, "leapfrog": _leapfrog_step}


def integrate(sys_, state0, t_end, dt, scheme="rk4", record_every=1):
    """Fixed-step integration; aborts with the partial trajectory attached
    on collision, naming the time of the failed step (t = 0 for a colliding
    initial state)."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    if scheme not in _STEPPERS:
        raise ValueError(f"scheme must be one of {sorted(_STEPPERS)}")
    step = _STEPPERS[scheme]
    nsteps = int(round(t_end / dt)) if t_end > 0 else 0
    times = [0.0]
    qs = [state0.q.copy()]
    ps = [state0.p.copy()]
    state = state0.copy()
    k = 0
    try:
        check_state(sys_, state)
        for k in range(1, nsteps + 1):
            state = step(sys_, state, dt)
            if not (np.isfinite(state.q).all() and np.isfinite(state.p).all()):
                raise CollisionError("state left the representable range")
            if k % record_every == 0 or k == nsteps:
                times.append(k * dt)
                qs.append(state.q.copy())
                ps.append(state.p.copy())
    except (CollisionError, PoleProximityError) as exc:
        traj = Trajectory(np.array(times), np.array(qs), np.array(ps), completed=False)
        when = f"in the step to t = {k * dt:.6g}" if k else "at t = 0"
        raise CollisionError(f"{exc} ({when})", trajectory=traj, kind=getattr(exc, "kind", None),
                             particles=getattr(exc, "particles", ())) from None
    return Trajectory(np.array(times), np.array(qs), np.array(ps))


def random_state(sys_, rng, p_scale=0.7, lo=None, hi=None, min_gap=None):
    """Real collision-free initial data inside the fundamental real period.

    The pair potentials are attractive at short range (the coupling
    reduction fixes the sign), so long integrations need generous initial
    separations; the defaults scale with the real period.
    """
    n = sys_.n
    w = abs(sys_.lattice.omega1)
    if lo is None or hi is None:
        lo, hi = (0.1 * w, 0.44 * w) if sys_.family != "A" else (0.08 * w, 0.9 * w)
    if min_gap is None:
        min_gap = 0.35 * (hi - lo) / max(n, 1)
    for _ in range(400):
        q = np.sort(rng.uniform(lo, hi, n))
        if n > 1 and np.min(np.diff(q)) < min_gap:
            continue
        if sys_.family == "B" and np.min(np.abs(np.concatenate([q - sys_.q0, q + sys_.q0]))) < 0.03 * w:
            continue
        p = rng.uniform(-p_scale, p_scale, n)
        st = CMState(q.astype(complex), p.astype(complex))
        try:
            check_state(sys_, st)
            return st
        except CollisionError:
            continue
    raise RuntimeError("could not sample a collision-free state")


def conservation_initial_data(family, n, rng, period=CONSERVATION_PERIOD):
    """System and seeded real state suited to long conservation runs: a
    square lattice with real period 2*``period``, evenly spread positions
    with jitter, and small momenta.

    The pair interaction is attractive at short range, so runaway infall
    bounds the usable horizon; with gaps of several length units and momenta
    of a few percent the fall time stays well beyond T = 10."""
    lat = Lattice(period, period * 1j)
    q0 = 0.085 * period
    sys_ = CMSystem(family, n, lat, q0=q0)
    if family == "A":
        lo, hi = 0.1 * period, 1.82 * period
    else:
        lo, hi = 0.22 * period, 0.9 * period
    base = np.linspace(lo, hi, n + 1)[:n]
    gap = (hi - lo) / max(n, 1)
    q = base + rng.uniform(0.05, 0.35, n) * gap
    p = rng.uniform(-0.06, 0.06, n)
    state = CMState(q.astype(complex), p.astype(complex))
    check_state(sys_, state)
    return sys_, state


def conservation_z_samples(lattice):
    """The three spectral parameters 0.31+0.21i, 0.11+0.36i and 0.42+0.13i
    times |omega1| at which long conservation runs sample L(z)."""
    w = abs(lattice.omega1)
    return [complex(0.31 * w, 0.21 * w), complex(0.11 * w, 0.36 * w), complex(0.42 * w, 0.13 * w)]


# ---------------------------------------------------------------------------
# conserved-quantity diagnostics
# ---------------------------------------------------------------------------


def spectral_invariants(sys_, state, z, pmax=4):
    """tr L(z)^p for p = 1..pmax plus characteristic polynomial coefficients."""
    L = lax_matrix(sys_, state, z)
    traces = []
    acc = np.eye(L.shape[0], dtype=complex)
    for _ in range(pmax):
        acc = acc @ L
        traces.append(complex(np.trace(acc)))
    charpoly = np.poly(L)
    return {"traces": traces, "charpoly": charpoly}


def eigenvalue_drift(l0, l1):
    """Greedy matched multiset distance between eigenvalue sets."""
    a = list(np.linalg.eigvals(l0))
    b = list(np.linalg.eigvals(l1))
    worst = 0.0
    while a:
        i, j = min(
            ((i, j) for i in range(len(a)) for j in range(len(b))),
            key=lambda ij: abs(a[ij[0]] - b[ij[1]]),
        )
        worst = max(worst, abs(a[i] - b[j]))
        a.pop(i)
        b.pop(j)
    return worst


def poisson_bracket(sys_, ha, hb, state, rel_step=1e-6):
    """Canonical bracket sum_i (dHa/dq_i dHb/dp_i - dHa/dp_i dHb/dq_i) with
    central differences; returns exactly 0.0 when ha is hb."""
    if ha is hb:
        return 0.0
    n = sys_.n

    def grad(h):
        gq = np.zeros(n, dtype=complex)
        gp = np.zeros(n, dtype=complex)
        for i in range(n):
            hq = rel_step * (1 + abs(state.q[i]))
            sp_, sm = state.copy(), state.copy()
            sp_.q[i] += hq
            sm.q[i] -= hq
            gq[i] = (h(sp_) - h(sm)) / (2 * hq)
            hp = rel_step * (1 + abs(state.p[i]))
            sp_, sm = state.copy(), state.copy()
            sp_.p[i] += hp
            sm.p[i] -= hp
            gp[i] = (h(sp_) - h(sm)) / (2 * hp)
        return gq, gp

    gqa, gpa = grad(ha)
    gqb, gpb = grad(hb)
    return complex(np.sum(gqa * gpb - gpa * gqb))


def residue_hamiltonian_fn(sys_, m, power, nodes=64):
    """Hamiltonian functional state -> res z^{-m} tr L^power for brackets."""

    def h(state):
        return residue_hamiltonian(sys_, state, m=m, power=power, nodes=nodes)

    return h


def involution_table(sys_, state, specs, nodes=64, rel_step=1e-6):
    """Pairwise Poisson brackets of residue Hamiltonians.

    ``specs`` is a list of (power, m) labels; returns a dict mapping pairs of
    labels to |bracket|."""
    fns = {spec: residue_hamiltonian_fn(sys_, spec[1], spec[0], nodes=nodes) for spec in specs}
    out = {}
    for i, sa in enumerate(specs):
        for sb in specs[i + 1:]:
            val = poisson_bracket(sys_, fns[sa], fns[sb], state, rel_step=rel_step)
            out[(sa, sb)] = abs(val)
    return out


def _matrix_residue(sys_, state, center, order=1, nodes=64, cluster_tol=None):
    """Laurent coefficient matrix of L(z) at degree -order around center.

    Poles within ``cluster_tol`` of the center count as enclosed (needed when
    probing a slightly moved pole along a trajectory)."""
    lat = sys_.lattice
    if cluster_tol is None:
        cluster_tol = 1e-4 * abs(lat.omega1)
    poles = _pole_set(sys_, state)
    dist = lat.lattice_distance(poles - center)
    dist = dist[dist > cluster_tol]
    radius = float(np.min(dist)) / 3.0
    w = radius * np.exp(2j * np.pi * np.arange(nodes) / nodes)
    return np.tensordot(w ** order, lax_matrix(sys_, state, center + w), 1) / nodes


def tyurin_residue_check(sys_, state, flow_probe=None):
    """Rank-one residue structure of the A-family Lax matrix at z = q_i.

    Returns per-particle dicts with the singular-value ratio s2/s1 of the
    residue (rank-one test), the squared-residue norm ratio (the
    orthogonality of the rank-one factors), and, when ``flow_probe`` is
    given as (state_minus, state_plus, dt), the mismatch between the
    observed velocity and the one read from the moving double pole of dL/dt.
    """
    if sys_.family != "A":
        raise ValueError("residue structure check applies to the A family")
    reports = []
    for i in range(sys_.n):
        if sys_.n == 1:
            reports.append({"sv_ratio": 0.0, "square_ratio": 0.0})
            continue
        r = _matrix_residue(sys_, state, state.q[i], order=1)
        svals = np.linalg.svd(r, compute_uv=False)
        sv_ratio = float(svals[1] / svals[0]) if svals[0] > 0 else 0.0
        sq_ratio = float(np.linalg.norm(r @ r) / np.linalg.norm(r) ** 2)
        rep = {"sv_ratio": sv_ratio, "square_ratio": sq_ratio}
        if flow_probe is not None:
            sm, sp_, dt = flow_probe
            # double-pole coefficient of dL/dt at q_i equals qdot_i * residue
            c2 = (_matrix_residue(sys_, sp_, state.q[i], order=2)
                  - _matrix_residue(sys_, sm, state.q[i], order=2)) / (2 * dt)
            qdot_pred = np.vdot(r, c2) / np.vdot(r, r)
            qdot_obs = (sp_.q[i] - sm.q[i]) / (2 * dt)
            rep["flow_mismatch"] = abs(qdot_pred - qdot_obs)
        reports.append(rep)
    return reports


_GRADING_DEPTH = {"A": 1, "B": 1, "C": 2, "D": 1}


def moving_points(sys_, state):
    """Moving poles of ``lax_matrix`` and the grading element at each.

    Returns (points, gradings); gradings[m] is the diagonal of the Cartan
    element h, in the standard frame, whose degree -1 entries carry the
    pole at points[m]: h = -e_i at q_i for A; h = -+(e_i, -e_i) at +-q_i for
    C, at +-q_i/2 for D, and at +-q_i for B with a zero middle entry.  The
    B border pole q0 is not listed: no diagonal grading element carries it.
    """
    q = state.q
    n = sys_.n
    eye = np.eye(n)
    if sys_.family == "A":
        return q.copy(), -eye
    mid = np.zeros((n, 1)) if sys_.family == "B" else np.zeros((n, 0))
    plus = np.hstack([-eye, mid, eye])
    pts = q / 2 if sys_.family == "D" else q
    return np.concatenate([pts, -pts]), np.vstack([plus, -plus])


def expansion_violations(sys_, state, nodes=64):
    """Violations of the local expansion conditions at the moving poles.

    At a moving point with grading element h of depth k, the Laurent
    coefficient L_p of L(z) at degree p must lie in the level-p filtration,
    i.e. vanish at the entries (u, v) with h_u - h_v > p, for p = -k..k-1;
    p = -k-1 is checked too (no pole beyond order k).  The coefficients come
    from trapezoidal quadrature on a circle of a third of the distance to
    the nearest other pole.  Returns one dict per point and degree with the
    largest offending entry ("violation") and, with every coefficient
    scaled by radius^p, that entry over the largest coefficient entry at
    the point ("relative").
    """
    lat = sys_.lattice
    points, gradings = moving_points(sys_, state)
    poles = _pole_set(sys_, state)
    k = _GRADING_DEPTH[sys_.family]
    degrees = np.arange(-k - 1, k)
    out = []
    for gamma, hd in zip(points, gradings):
        dist = lat.lattice_distance(poles - gamma)
        radius = float(np.min(dist[dist > 1e-12])) / 3.0
        w = radius * np.exp(2j * np.pi * np.arange(nodes) / nodes)
        ls = lax_matrix(sys_, state, gamma + w)
        coeffs = np.tensordot(w[None, :] ** -degrees[:, None], ls, 1) / nodes
        scaled = np.abs(coeffs) * radius ** degrees[:, None, None]
        bad = (hd[:, None] - hd[None, :])[None] > degrees[:, None, None]
        scale = scaled.max()
        for p, c, sc, b in zip(degrees, coeffs, scaled, bad):
            out.append({"point": complex(gamma), "degree": int(p),
                        "violation": float(np.abs(c[b]).max(initial=0.0)),
                        "relative": float(sc[b].max(initial=0.0) / scale)})
    return out


def run_conservation(sys_, state0, t_end, dt, scheme="rk4", z_samples=None,
                     record_every=50):
    """Integrate and measure energy drift and isospectrality.

    Returns (trajectory, report) where the report carries the maximal
    relative H drift and the maximal eigenvalue-multiset drift of L(z0)
    over the sample spectral parameters (by default
    ``conservation_z_samples`` of the lattice).
    """
    if z_samples is None:
        z_samples = conservation_z_samples(sys_.lattice)
    traj = integrate(sys_, state0, t_end, dt, scheme=scheme, record_every=record_every)
    h0 = hamiltonian(sys_, traj.state(0))
    zs = np.asarray(z_samples, dtype=complex)
    l0 = lax_matrix(sys_, traj.state(0), zs)
    max_h = 0.0
    max_spec = 0.0
    for i in range(1, len(traj)):
        st = traj.state(i)
        max_h = max(max_h, abs(hamiltonian(sys_, st) - h0) / max(1e-300, abs(h0)))
        for a, b in zip(l0, lax_matrix(sys_, st, zs)):
            max_spec = max(max_spec, eigenvalue_drift(a, b))
    report = {
        "family": sys_.family,
        "n": sys_.n,
        "dt": dt,
        "T": t_end,
        "scheme": scheme,
        "max_H_drift": max_h,
        "max_spec_drift": max_spec,
        "z_samples": [str(z) for z in z_samples],
        "completed": bool(traj.completed),
    }
    if sys_.family == "B":
        report["q0"] = str(sys_.q0)
        report["q0_frozen"] = True
    return traj, report


def write_trajectory_csv(path, sys_, traj, z_samples=(), truncated=False):
    """CSV schema: t, q_1..q_n, p_1..p_n, H, inv_p2_z1, ... (real parts,
    imaginary parts appended only when states are complex)."""
    n = sys_.n
    header = ["t"] + [f"q_{i+1}" for i in range(n)] + [f"p_{i+1}" for i in range(n)] + ["H"]
    for k in range(len(z_samples)):
        header.append(f"inv_p2_z{k+1}")
    zs = np.asarray(z_samples, dtype=complex)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for i in range(len(traj)):
            st = traj.state(i)
            row = [traj.times[i]]
            row += [x.real for x in st.q]
            row += [x.real for x in st.p]
            row.append(hamiltonian(sys_, st))
            if zs.size:
                ls = lax_matrix(sys_, st, zs)
                row += np.trace(ls @ ls, axis1=1, axis2=2).real.tolist()
            w.writerow(row)
        if truncated:
            w.writerow(["TRUNCATED"] + [""] * (len(header) - 1))
