"""Elliptic Calogero-Moser systems with spectral-parameter Lax matrices.

Families A (gl, n particles), B (so(2n+1)), C (sp(2n)) and D (so(2n)) with
pairwise Weierstrass interactions.  The Lax matrices are sigma-quotient
matrices on the torus, valued in the defining algebra of the family.
Everything a system reads comes from one coupling- and q0-free table per
(family, n), built once and shared; ``CMSystem`` adds its coupling
coefficients and q0 constants.  Each off-diagonal entry of L is a
coefficient times a product of sigma values over a product of sigma values
at linear forms a z + r.q + c.  The root entries are the torus gauge of the
root-sum form p.H + sum_alpha f_alpha Phi(alpha(q), z) E_alpha, Phi(x, z) =
sigma(z - x) / (sigma(z) sigma(x)); for B and C the roots are the gl(n)
roots, and the off-diagonal blocks and the B border are rows of their own.
The second-order Hamiltonian has two independent routes, a closed form and
the contour residue of z^{-1} tr L(z)^2 at the puncture, which must agree
(for the B family up to the exact constant 2 n wp(q0) dropped when
restricting to the frozen-q0 submanifold).

Isospectrality of the closed-form flow holds for A (all n) and for D with
n <= 3.  It fails for D with n >= 4 and for the B and C matrices.
``expansion_violations`` measures the local expansion conditions of the
Lax operator algebra at the moving poles: the A and D matrices meet them,
the B and C matrices do not in the standard frame.

The closed form reads the linear plan of the same table: one row P q + c
per distinct argument (c nonzero only in the B rows that hold q0) with
weights w, a kinetic coefficient kappa and one (kind, particles) label
each.  H = kappa p.p + w . wp(P q + c), with the negative kinetic term of
the residue normalization; the equations of motion are its gradient (qdot =
2 kappa p, pdot = -P^T (w * wp'(P q + c)), read through the plan's exact
force matrix G = P^T diag(w)), and the collision guard names the label of
the first row on the lattice.
"""

from __future__ import annotations

import csv
from collections import namedtuple
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .elliptic import Lattice, PoleProximityError
from .liealg import family_to_kind, weight_basis

__all__ = [
    "CMSystem",
    "CMState",
    "CollisionError",
    "check_state",
    "default_couplings",
    "lax_matrix",
    "hamiltonian",
    "residue_hamiltonian",
    "hamiltonian_from_residue",
    "equations_of_motion",
    "integrate",
    "Trajectory",
    "random_state",
    "conservation_initial_data",
    "conservation_z_samples",
    "eigenvalue_drift",
    "poisson_bracket",
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

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"family must be one of {FAMILIES}")
        if self.n < 1:
            raise ValueError("need at least one particle")
        if self.couplings is None:
            self.couplings = default_couplings(self.family, self.n)
        self._validate_couplings()
        t = self._table = _table(self.family, self.n)
        # the constants c = k q0 of the plan rows, then of the Lax forms
        self._plan_c, self._lax_c = np.split(t.k * complex(self.q0), [len(t.P)])
        flat = np.concatenate([np.ravel(np.asarray(self.couplings[k], dtype=float)) for k in t.names])
        self._coef = t.mult * flat[t.ref]

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
        return self._table.size


@dataclass
class CMState:
    q: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=complex)
        self.p = np.asarray(self.p, dtype=complex)

    def copy(self):
        return CMState(self.q.copy(), self.p.copy())


def _plan(family, n):
    """The rows P of the arguments P q + k q0 of the closed form's wp, wp'
    and collision guard, their q0 multipliers k and weights w.  Rows, one per
    distinct argument: q_i - q_j (i < j); for B/C/D q_i + q_j (i <= j) and
    q_i; for B q0, q_i -+ q0.  wp is even and wp' odd, so a row stands for
    both orders of its pair and carries twice the pair's weight; the first
    row on the lattice is the first hit in the ordered-pair listing too, so
    it names the same argument."""
    eye = np.eye(n)
    i, j = np.triu_indices(n, 1)
    sections = [(eye[i] - eye[j], 0, 1.0 if family == "A" else 2.0)]  # (rows, k, weights)
    if family != "A":
        i, j = np.triu_indices(n)
        sections += [(eye[i] + eye[j], 0, np.where(i == j, 2.0 if family == "C" else 0.0, 2.0)),
                     (eye, 0, 2.0 if family == "B" else 0.0)]
    if family == "B":
        sections += [(np.zeros((1, n)), 1, 0.0), (eye, -1, 0.0), (eye, 1, 0.0)]
    rows = [len(s[0]) for s in sections]
    return (np.concatenate([s[0] for s in sections]),
            np.repeat([float(s[1]) for s in sections], rows),
            np.concatenate([np.broadcast_to(s[2], r) for s, r in zip(sections, rows)]))


def _label(r, k):
    """The (kind, 1-based particles) label of the argument r.q + k q0 up to
    its sign, which leaves its lattice hits as they are."""
    idx = np.flatnonzero(r)
    if not idx.size:
        return "q0", ()
    r, k = r * np.sign(r[idx[0]]), k * np.sign(r[idx[0]])
    parts = tuple(int(i) + 1 for i in idx)
    if r[idx[0]] == 2:
        return "q_i+q_j", parts * 2
    if len(idx) == 2:
        return ("q_i+q_j" if r[idx[1]] > 0 else "q_i-q_j"), parts
    return "q_i" + {0: "", 1: "+q0", -1: "-q0"}[int(k)], parts


def _arguments(sys_, q):
    """The plan's arguments P q + c at the positions q."""
    return sys_._table.P @ q + sys_._plan_c


def _guarded(sys_, q, fn):
    """``fn`` (a guarded lattice function) at the plan's arguments; a guard
    hit becomes the CollisionError naming the argument."""
    try:
        return fn(_arguments(sys_, q))
    except PoleProximityError as exc:
        raise _collision_error(sys_, exc.index) from None


def _collision_error(sys_, index):
    """CollisionError naming the table's label ``index``: a plan row within
    the guard radius of the lattice or, past the plan rows, a pole form of
    L's gauge that is an exact zero of sigma."""
    t = sys_._table
    kind, particles = t.labels[index]
    label = kind
    for sym, k in zip(("i", "j"), particles):
        label = label.replace(f"_{sym}", f"_{k}")
    if index < len(t.P):
        message = (f"particle collision: argument {label} (kind {kind}) within "
                   f"{sys_.lattice._guard_radius:.1e} of a lattice point")
    else:
        message = (f"particle on a lattice point: argument {label} (kind {kind}) is a zero "
                   f"of sigma(q), a pole of the gauge of L(z)")
    return CollisionError(message, kind=kind, particles=particles)


def check_state(sys_, state):
    """Raise CollisionError, naming the argument, if one of the state's
    collision arguments lies within the guard radius of the lattice."""
    lat = sys_.lattice
    hit = np.flatnonzero(lat.lattice_distance(_arguments(sys_, state.q)) < lat._guard_radius)
    if hit.size:
        raise _collision_error(sys_, hit[0])


# the coupling arrays a family's Lax matrix reads, flattened and joined in
# this order into the vector its coefficients are gathered from: f, fB and
# fC are (n, n), fa and fb (n,)
_COUPLINGS = {"A": ("f",), "B": ("f", "fB", "fC", "fa", "fb"), "C": ("f", "fB", "fC"),
              "D": ("f", "fB", "fC")}

_Table = namedtuple("_Table", "size H P w G kappa labels k a Q free poles u v names ref mult num den")


def _root_coupling(alpha):
    """The coupling (name, index, multiplier) of f_alpha on the root alpha:
    f_ab on e_a - e_b; fB_ab e_ab and fC_ba e_ab on +-(e_a + e_b), a < b, with
    e_ab = (-1)^(a+b+1), so that the entries of the pair multiply to wp(z) -
    wp(q_a + q_b)."""
    a, b = (i for i, x in enumerate(alpha) if x)
    if alpha[a] != alpha[b]:
        return ("f", (a, b), 1.0) if alpha[a] > 0 else ("f", (b, a), 1.0)
    sign = (-1.0) ** (a + b + 1)
    return ("fB", (a, b), sign) if alpha[a] > 0 else ("fC", (b, a), sign)


def _bc_rows(family, n, form):
    """The rows of the two off-diagonal blocks of a B or C matrix, skew for B
    and symmetric for C, and for B the border columns.

    For a pair a < b (a <= b for C) with x = q_a + q_b, the upper block has
    B_ab = fB_ab s(z-x) s(z+q_b) / (s(z) s(z-q_a) s(x)) and the lower block
    C_ba = fC_ba s(z+x) s(z-q_a) / (s(z) s(z+q_b) s(x)).  The B border has
    the columns a_i = fa s(z-q0-q_i) s(z) / (s(z-q0) s(z-q_i) s(q_i)) and
    b_i = fb s(z-q0+q_i) s(z-q_i) / (s(z) s(z-q0) s(q_i)) at (i, n) and
    (n+1+i, n), with -b_i and -a_i in the middle row."""
    lo = n + 1 if family == "B" else n
    sign = 1.0 if family == "C" else -1.0
    z = form(1)
    rows = []
    for a, b in np.transpose(np.triu_indices(n, 0 if family == "C" else 1)).tolist():
        x = form(0, (a, 1), (b, 1))
        upper = ([form(1, (a, -1), (b, -1)), form(1, (b, 1))], [z, form(1, (a, -1)), x])
        lower = ([form(1, (a, 1), (b, 1)), form(1, (a, -1))], [z, form(1, (b, 1)), x])
        fb, fc = ("fB", (a, b)), ("fC", (b, a))
        rows += [(a, lo + b, (*fb, 1.0), *upper), (lo + b, a, (*fc, 1.0), *lower)]
        if a != b:
            rows += [(b, lo + a, (*fb, sign), *upper), (lo + a, b, (*fc, sign), *lower)]
    if family == "B":
        for i in range(n):
            col_a = ([form(1, (i, -1), k=-1), z], [form(1, k=-1), form(1, (i, -1)), form(0, (i, 1))])
            col_b = ([form(1, (i, 1), k=-1), form(1, (i, -1))], [z, form(1, k=-1), form(0, (i, 1))])
            fa, fb = ("fa", (i,)), ("fb", (i,))
            rows += [(i, n, (*fa, 1.0), *col_a), (n, lo + i, (*fa, -1.0), *col_a),
                     (n, i, (*fb, -1.0), *col_b), (lo + i, n, (*fb, 1.0), *col_b)]
    return rows


@lru_cache(maxsize=None)
def _table(family, n):
    """The coupling- and q0-free description of a system, built once per
    (family, n) and shared, read-only, by every system of the family and
    size: ``CMSystem`` adds the constants c = k q0 and the Lax coefficients.

    The closed form reads the ``_plan`` rows P, weights w, kinetic
    coefficient kappa and force matrix G = P^T diag(w), exact (P has entries
    0, +-1, 2 and w has 0, 1, 2): H = kappa p.p + w . wp(P q + c), qdot = 2
    kappa p and pdot = -G wp'(P q + c).  The Lax matrix reads one row (u, v,
    coupling, numerator forms, denominator forms) per off-diagonal entry,
    L_uv = mult f prod s(numerator) / prod s(denominator) with f the
    coupling entry ``ref`` of the vector that gathers the arrays ``names``
    flattened, each form a z + r.q + k q0 stored once in Q (z-free first,
    then the others with their ``a``; ``poles`` are the z-free forms in some
    denominator), and the Cartan rows H.  k holds the q0 multipliers of the
    plan rows, then of the forms; ``labels`` the ``_label`` of each plan row,
    then of each pole form.

    A root row is f_alpha (E_alpha)_uv Phi(alpha(q), z) h^alpha, Phi(x, z) =
    s(z - x) / (s(z) s(x)), h^alpha = prod_i h_i^alpha_i: the torus gauge
    h^H of W = p.H + sum_alpha f_alpha Phi E_alpha, with h_i = s(q_i)/s(z -
    q_i) for A, B and C and s(z + q_i/2)/s(z - q_i/2) for D.  The roots are
    all roots for A and D and the gl(n) roots for B and C, plus ``_bc_rows``."""
    basis, cartan, weights = weight_basis(family_to_kind(family), n)
    wt = np.array(weights)
    keep = wt.any(axis=1)
    if family in ("B", "C"):
        keep &= wt.sum(axis=1) == 0

    def form(zc, *terms, k=0):  # the key of zc z + sum_i w_i q_i + k q0, terms (i, w_i)
        qc = [0.0] * n
        for i, w in terms:
            qc[i] += w
        return (zc, *qc, k)

    gz, gw = (1, 0.5) if family == "D" else (0, 1)  # h_i = s(gz z + gw q_i) / s(z - gw q_i)
    gauge = [(form(gz, (i, gw)), form(1, (i, -gw))) for i in range(n)]
    rows = []
    for alpha, b in zip(wt[keep].tolist(), (b for b, k in zip(basis, keep) if k)):
        terms = [(i, w) for i, w in enumerate(alpha) if w]
        num, den = [form(1, *((i, -w) for i, w in terms))], [form(1), form(0, *terms)]
        for i, w in terms:
            top, bottom = gauge[i] if w > 0 else gauge[i][::-1]
            num += [top] * abs(w)
            den += [bottom] * abs(w)
        name, idx, sign = _root_coupling(alpha)
        rows += [(u, v, (name, idx, sign * e), num, den)
                 for u, row in enumerate(b.rows) for v, e in enumerate(row) if e]
    if family in ("B", "C"):
        rows += _bc_rows(family, n, form)
    forms = sorted({f for row in rows for f in row[3] + row[4]})
    index = {f: k for k, f in enumerate(forms)}
    width = max((len(fs) for row in rows for fs in row[3:]), default=0)

    def gather(k):  # padded with the index of the column of ones
        return np.array([[index[f] for f in row[k]] + [len(forms)] * (width - len(row[k]))
                         for row in rows], dtype=int).reshape(len(rows), width)

    offset = {"f": 0, "fB": n * n, "fC": 2 * n * n, "fa": 3 * n * n, "fb": 3 * n * n + n}
    X = np.array(forms, dtype=float).reshape(len(forms), n + 2)
    free = sum(f[0] == 0 for f in forms)
    den = gather(4)
    u, v = np.array([row[:2] for row in rows], dtype=int).reshape(-1, 2).T
    poles = np.flatnonzero(np.bincount(den.ravel(), minlength=free)[:free])
    P, pk, w = _plan(family, n)
    table = _Table(size=len(cartan), H=np.array(cartan, dtype=float), P=P, w=w, G=P.T * w,
                   kappa=-0.5 if family == "A" else -1.0,
                   labels=tuple(_label(r, k) for r, k in zip(np.vstack([P, X[poles, 1:-1]]),
                                                              np.concatenate([pk, X[poles, -1]]))),
                   k=np.concatenate([pk, X[:, -1]]), a=X[free:, 0], Q=X[:, 1:-1], free=free,
                   poles=poles, u=u, v=v, names=_COUPLINGS[family],
                   ref=np.array([offset[name] + np.ravel_multi_index(idx, (n,) * len(idx))
                                 for _, _, (name, idx, _), _, _ in rows], dtype=int),
                   mult=np.array([r[2][2] for r in rows], dtype=float),
                   num=gather(3), den=den)
    for arr in table:
        if isinstance(arr, np.ndarray):
            arr.flags.writeable = False
    return table


def lax_matrix(sys_, state, z):
    """Spectral-parameter Lax matrix of the configured family at z.

    ``z`` is a scalar, giving the (N, N) matrix, or a 1-d array of nodes,
    giving the (K, N, N) stack; the state is guarded once and sigma is
    evaluated in one call either way, once on each form of the system's
    ``_table`` (the z-free forms without the node axis).  Every entry is
    elliptic in z, with the fixed pole z = 0 and moving poles at
    ``moving_points``.  A pole form with sigma exactly 0, which only the A
    gauge's sigma(q_i) can have past ``check_state``, raises the q_i
    CollisionError."""
    check_state(sys_, state)
    zs = np.asarray(z, dtype=complex)
    if zs.ndim > 1:
        raise ValueError("z must be a scalar or a 1-d array of nodes")
    nodes = zs.reshape(-1, 1)
    t = sys_._table
    x = t.Q @ state.q + sys_._lax_c
    zx = t.a * nodes + x[t.free:]
    s = sys_.lattice.sigma(np.concatenate([x[:t.free], zx.ravel()]))
    hit = np.flatnonzero(s[t.poles] == 0)
    if hit.size:
        raise _collision_error(sys_, len(t.P) + hit[0])
    S = np.concatenate([np.broadcast_to(s[:t.free], (len(nodes), t.free)),
                        s[t.free:].reshape(zx.shape), np.ones((len(nodes), 1))], axis=1)
    L = np.zeros((len(nodes), t.size, t.size), dtype=complex)
    L[:, t.u, t.v] = sys_._coef * S[:, t.num].prod(axis=-1) / S[:, t.den].prod(axis=-1)
    d = np.arange(t.size)
    L[:, d, d] = t.H @ state.p
    return L[0] if zs.ndim == 0 else L


# ---------------------------------------------------------------------------
# Hamiltonians
# ---------------------------------------------------------------------------


def hamiltonian(sys_, state):
    """Second-order Hamiltonian in closed form, kappa p.p + w . wp(P q + c)
    over the system's plan (residue-normalized sign: negative kinetic term;
    B family restricted to the frozen-q0 submanifold, constants dropped).

    One guarded wp call on the plan's arguments stands for ``check_state``."""
    t = sys_._table
    wp = _guarded(sys_, state.q, sys_.lattice.wp)
    return _real_if_close(t.kappa * np.sum(state.p * state.p) + t.w @ wp)


def _real_if_close(v):
    """v as a float when |imag v| < 1e-9 max(1, |real v|), else complex."""
    v = complex(v)
    return v.real if abs(v.imag) < 1e-9 * max(1.0, abs(v.real)) else v


def _pole_set(sys_, state):
    """Poles of L(z) in the period cell: 0, the moving points, then the B
    border pole q0."""
    extra = [sys_.q0] if sys_.family == "B" else []
    return np.concatenate([[0j], moving_points(sys_, state)[0], extra])


def _circle(sys_, state, center, nodes):
    """The nodes w of the contour circle around ``center`` and the stack of
    L(center + w), from one ``lax_matrix`` call.

    The radius is a third of the lattice distance from the center to the
    nearest pole of ``_pole_set`` farther than 1e-4 |omega1|; nearer poles
    count as enclosed.  With no such pole (the one-particle A system at a
    lattice point) it is 0.1 |omega1|."""
    lat = sys_.lattice
    dist = lat.lattice_distance(_pole_set(sys_, state) - center)
    dist = dist[dist > 1e-4 * abs(lat.omega1)]
    radius = float(np.min(dist)) / 3.0 if dist.size else 0.1 * abs(lat.omega1)
    if radius < 10 * lat._guard_radius:
        raise ValueError(f"contour radius collides with a neighbouring pole: radius {radius:.3e} "
                         f"at {complex(center):.6g}, below 10 guard radii")
    w = radius * np.exp(2j * np.pi * np.arange(nodes) / nodes)
    return w, lax_matrix(sys_, state, center + w)


def _residues(sys_, state, specs, nodes):
    """res_{z=0} z^{-m} tr L(z)^power dz for each (power, m) of ``specs``, by
    trapezoidal quadrature on one ``_circle`` (exponentially accurate on the
    annulus of analyticity).  Each trace is the sum of the entries of L^(power
    - 1) times those of L transposed, with no last matrix product."""
    if any(power < 1 for power, _ in specs):
        raise ValueError("trace powers must be at least 1")
    if sys_.family in ("B", "C", "D") and any(power % 2 for power, _ in specs):
        raise ValueError("odd trace powers vanish identically for this family")
    w, ls = _circle(sys_, state, 0.0, nodes)
    out = []
    for power, m in specs:
        traces = np.einsum("kij,kji->k", np.linalg.matrix_power(ls, power - 1), ls)
        out.append(np.sum(traces * w ** (1 - m)) / nodes)
    return np.array(out)


def residue_hamiltonian(sys_, state, m=1, power=2, nodes=64):
    """res_{z=0} z^{-m} tr L(z)^power dz, the one-spec case of ``_residues``.

    Every contour quadrature uses one circle rule (``_circle``): the radius
    is a third of the lattice distance from the center to the nearest pole
    of L(z) farther than 1e-4 |omega1|, or 0.1 |omega1| when there is none,
    and a radius below 10 guard radii raises ValueError."""
    return _residues(sys_, state, [(power, m)], nodes)[0]


def hamiltonian_from_residue(sys_, state, nodes=64):
    """Second-order Hamiltonian through the residue route: -1/2 of the
    residue of z^{-1} tr L^2, plus the exact constant 2 n wp(q0) restoring
    the B-family restriction convention."""
    val = -0.5 * residue_hamiltonian(sys_, state, m=1, power=2, nodes=nodes)
    if sys_.family == "B":
        val = val + 2 * sys_.n * sys_.lattice.wp(sys_.q0)
    return _real_if_close(val)


# ---------------------------------------------------------------------------
# dynamics
# ---------------------------------------------------------------------------


def equations_of_motion(sys_, state):
    """(qdot, pdot) of the closed-form Hamiltonian: qdot = 2 kappa p and
    pdot = -P^T (w * wp'(P q + c)) = -G wp'(P q + c), its gradient over the
    system's plan.

    One guarded wp' call on the plan's arguments stands for ``check_state``."""
    t = sys_._table
    wpp = _guarded(sys_, state.q, sys_.lattice.wp_prime)
    # -1.0 times, not negated: the two differ in the sign of zero imaginary parts
    return 2 * t.kappa * state.p, -1.0 * (t.G @ wpp)


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
    except CollisionError as exc:
        traj = Trajectory(np.array(times), np.array(qs), np.array(ps), completed=False)
        when = f"in the step to t = {k * dt:.6g}" if k else "at t = 0"
        raise CollisionError(f"{exc} ({when})", trajectory=traj, kind=exc.kind,
                             particles=exc.particles) from None
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


def _gradient(h, state):
    """Central differences (dh/dq, dh/dp) of h, scalar- or vector-valued, at
    the state: each coordinate x of q and p moves by 1e-6 (1 + |x|) either
    way.  The particle axis comes last, after the shape of h's value."""
    n = len(state.q)
    y = np.concatenate([state.q, state.p])
    cols = []
    for k in range(2 * n):
        step = 1e-6 * (1 + abs(y[k]))
        plus, minus = y.copy(), y.copy()
        plus[k] += step
        minus[k] -= step
        cols.append((h(CMState(plus[:n], plus[n:])) - h(CMState(minus[:n], minus[n:]))) / (2 * step))
    g = np.stack(cols, axis=-1)
    return g[..., :n], g[..., n:]


def poisson_bracket(ha, hb, state):
    """Canonical bracket sum_i (dHa/dq_i dHb/dp_i - dHa/dp_i dHb/dq_i) from
    the central differences of ``_gradient`` (a residue Hamiltonian reads
    each shifted state on the one circle of ``residue_hamiltonian``);
    returns exactly 0.0 when ha is hb."""
    if ha is hb:
        return 0.0
    (gqa, gpa), (gqb, gpb) = _gradient(ha, state), _gradient(hb, state)
    return complex(np.sum(gqa * gpb - gpa * gqb))


def involution_table(sys_, state, specs, nodes=64):
    """Pairwise Poisson brackets of residue Hamiltonians.

    ``specs`` is a list of (power, m) labels; returns a dict mapping pairs of
    labels to |bracket|.  One ``_gradient`` pass of the vector of residues
    gives every pair from 4 n ``lax_matrix`` calls, each reading all specs
    off the one circle of ``residue_hamiltonian``; a single spec gives {}
    without evaluating anything."""
    if len(specs) < 2:
        return {}
    gq, gp = _gradient(lambda st: _residues(sys_, st, specs, nodes), state)
    return {(sa, sb): abs(complex(np.sum(gq[a] * gp[b] - gp[a] * gq[b])))
            for a, sa in enumerate(specs) for b, sb in enumerate(specs) if a < b}


def _laurent(sys_, state, center, degrees, nodes=64):
    """The radius of the ``_circle`` at ``center`` and the Laurent coefficients
    of L(z) there at ``degrees`` (poles within 1e-4 |omega1| of the center
    count as enclosed, as a slightly moved pole along a trajectory needs)."""
    w, ls = _circle(sys_, state, center, nodes)
    return w[0].real, np.tensordot(w ** -np.c_[degrees], ls, 1) / nodes


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
        (r,) = _laurent(sys_, state, state.q[i], [-1])[1]
        svals = np.linalg.svd(r, compute_uv=False)
        sv_ratio = float(svals[1] / svals[0]) if svals[0] > 0 else 0.0
        sq_ratio = float(np.linalg.norm(r @ r) / np.linalg.norm(r) ** 2)
        rep = {"sv_ratio": sv_ratio, "square_ratio": sq_ratio}
        if flow_probe is not None:
            sm, sp_, dt = flow_probe
            # double-pole coefficient of dL/dt at q_i equals qdot_i * residue
            c2 = (_laurent(sys_, sp_, state.q[i], [-2])[1][0]
                  - _laurent(sys_, sm, state.q[i], [-2])[1][0]) / (2 * dt)
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
    pole at points[m]: h = -H e_i, with the Cartan rows H of the Lax table,
    at q_i (q_i/2 for D), and h = H e_i at the negated point for B, C and
    D.  That is -e_i for A and -+(e_i, -e_i) for B, C and D, with a zero
    middle entry for B.  The B border pole q0 is not listed: no diagonal
    grading element carries it.
    """
    q = state.q
    plus = -sys_._table.H.T
    if sys_.family == "A":
        return q.copy(), plus
    pts = q / 2 if sys_.family == "D" else q
    return np.concatenate([pts, -pts]), np.vstack([plus, -plus])


def expansion_violations(sys_, state, nodes=64):
    """Violations of the local expansion conditions at the moving poles.

    At a moving point with grading element h of depth k, the Laurent
    coefficient L_p of L(z) at degree p must lie in the level-p filtration,
    i.e. vanish at the entries (u, v) with h_u - h_v > p, for p = -k..k-1;
    p = -k-1 is checked too (no pole beyond order k).  The coefficients come
    from trapezoidal quadrature on the ``_circle`` at the point.  Returns
    one dict per point and degree with the largest offending entry
    ("violation") and, with every coefficient scaled by radius^p, that entry
    over the largest coefficient entry at the point ("relative").
    """
    points, gradings = moving_points(sys_, state)
    k = _GRADING_DEPTH[sys_.family]
    degrees = np.arange(-k - 1, k)
    out = []
    for gamma, hd in zip(points, gradings):
        radius, coeffs = _laurent(sys_, state, gamma, degrees, nodes)
        scaled = np.abs(coeffs) * radius ** degrees[:, None, None]
        bad = (hd[:, None] - hd[None, :])[None] > degrees[:, None, None]
        scale = scaled.max()
        for p, c, sc, b in zip(degrees, coeffs, scaled, bad):
            out.append({"point": complex(gamma), "degree": int(p),
                        "violation": float(np.abs(c[b]).max(initial=0.0)),
                        "relative": float(sc[b].max(initial=0.0) / scale)})
    return out


def run_conservation(sys_, state0, t_end, dt, scheme="rk4", z_samples=None):
    """Integrate and measure energy drift and isospectrality.

    Returns (trajectory, report) where the report carries the maximal
    relative H drift and the maximal eigenvalue-multiset drift of L(z0)
    over the sample spectral parameters (by default
    ``conservation_z_samples`` of the lattice), both read on every 50th
    step and the last.
    """
    if z_samples is None:
        z_samples = conservation_z_samples(sys_.lattice)
    traj = integrate(sys_, state0, t_end, dt, scheme=scheme, record_every=50)
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
