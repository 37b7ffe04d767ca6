"""Elliptic Calogero-Moser systems with spectral-parameter Lax matrices.

Families A (gl, n particles), B (so(2n+1)), C (sp(2n)) and D (so(2n)) with
pairwise Weierstrass interactions.  The Lax matrices are sigma-quotient
matrices on the torus, valued in the defining algebra of the family.
Everything a system reads comes from one q0-free table per (family, n),
built once and shared; ``CMSystem``, a frozen dataclass, binds its q0
constants at construction.  Each off-diagonal entry of L is a fixed
coefficient (+-1, or -2 on the C diagonal) times a product of sigma values
over a product of sigma values at linear forms a z + r.q + c, so sigma' on
the same forms gives dL/dq exactly, and the involution brackets of the
residue Hamiltonians res z^{-m} tr L(z)^p come off one contour, a circle
of 32 nodes (``_circle``), as does every Laurent coefficient of L.  The root
entries are the torus gauge of the root-sum form p.H + sum_alpha f_alpha
Phi(alpha(q), z) E_alpha, Phi(x, z) = sigma(z - x) / (sigma(z) sigma(x));
for B and C the roots are the gl(n) roots, and the off-diagonal blocks and
the B border are rows of their own.  The second-order Hamiltonian has two
independent routes, a closed form over the table's linear plan and the
contour residue of z^{-1} tr L(z)^2 at the puncture, which must agree (for
the B family up to the exact constant 2 n wp(q0) dropped when restricting
to the frozen-q0 submanifold); the equations of motion are the closed
form's gradient, and the collision guard names the first plan row on the
lattice.

Isospectrality of the closed-form flow holds for A (all n) and for D with
n <= 3.  It fails for D with n >= 4 and for the B and C matrices.
``expansion_violations`` measures the local expansion conditions of the
Lax operator algebra at the moving poles: the A and D matrices meet them,
the B and C matrices do not in the standard frame.
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
    "involution_table",
    "tyurin_residue_check",
    "moving_points",
    "expansion_violations",
    "run_conservation",
    "write_trajectory_csv",
]

FAMILIES = ("A", "B", "C", "D")
_EPS = np.finfo(float).eps
_CONTOUR_NODES = 32  # the trapezoid rule on the _circle errs like 3^-N (Trefethen & Weideman 2014)


class CollisionError(RuntimeError):
    """Particle collision, non-generic state, argument beyond the lattice
    reduction's precision or pole encounter; carries the partial trajectory.

    ``kind`` names the argument that hit the lattice (``q_i-q_j``,
    ``q_i+q_j``, ``q_i``, ``q0``, ``q_i-q0`` or ``q_i+q0``) and
    ``particles`` its 1-based particle indices, when known; ``member`` is the
    index of the colliding system in a batch, None for one system."""

    def __init__(self, message, trajectory=None, kind=None, particles=(), member=None):
        super().__init__(message)
        self.trajectory = trajectory
        self.kind = kind
        self.particles = tuple(particles)
        self.member = member


# half-period of the square lattice of ``conservation_initial_data``, which
# the CLI's ``cm`` command uses by default
CONSERVATION_PERIOD = 40.0


@dataclass(frozen=True)
class CMSystem:
    """A Calogero-Moser system.  Frozen: the table and the constants k q0
    are bound once at construction, so a field cannot change under them;
    build a new system for new data."""

    family: str
    n: int
    lattice: Lattice = field(default_factory=Lattice)
    q0: complex = 0.53

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"family must be one of {FAMILIES}")
        if self.n < 1:
            raise ValueError("need at least one particle")
        t = _table(self.family, self.n)
        # the constants c = k q0 of the plan rows, then of the Lax forms
        plan_c, lax_c = np.split(t.k * complex(self.q0), [len(t.P)])
        for name, value in (("_table", t), ("_plan_c", plan_c), ("_lax_c", lax_c)):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_flow", _flow([self]))

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


_Flow = namedtuple("_Flow", "tables lattice P c G v rows coords")


def _flow(systems):
    """The block-diagonal stack of the members' plans on their one lattice:
    arguments P q + c, force matrix G and qdot coefficients v = 2 kappa per
    coordinate, with the members' offsets in the plan ``rows`` and the
    ``coords``.  A system binds its one-member flow; a member on another
    lattice than the first raises ValueError."""
    lat = systems[0].lattice
    for i, s in enumerate(systems):
        if (s.lattice.omega1, s.lattice.omega2) != (lat.omega1, lat.omega2):
            raise ValueError(f"member {i} ({s.family}{s.n}) is on {s.lattice}, not on {lat}")
    tables = tuple(s._table for s in systems)
    rows = np.cumsum([0] + [len(t.P) for t in tables])
    coords = np.cumsum([0] + [s.n for s in systems])
    P = np.zeros((rows[-1], coords[-1]))
    for t, r, c in zip(tables, rows, coords):
        P[r:r + len(t.P), c:c + t.P.shape[1]] = t.P
    G = P.T * np.concatenate([t.w for t in tables])
    v = np.repeat([2 * t.kappa for t in tables], np.diff(coords))
    return _Flow(tables, lat, P, np.concatenate([s._plan_c for s in systems]), G, v, rows, coords)


def _guarded(flow, x, fn):
    """``fn`` (a guarded lattice function) at the flow's arguments x; a guard
    hit becomes the CollisionError naming the argument."""
    try:
        return fn(x)
    except PoleProximityError as exc:
        raise _collision_error(flow, exc.index) from None


def _collision_error(flow, index, size=None):
    """CollisionError naming the flow's label ``index`` and, in a batch, its
    member: a plan row within the guard radius of the lattice (a weighted row
    is a collision, a row of weight 0 only guards L(z)), a plan row of
    modulus ``size`` beyond the lattice reduction's precision or, past a lone
    member's plan rows, a pole form of L's gauge that is a zero of sigma."""
    m = int(np.searchsorted(flow.rows[1:-1], index, "right"))
    t, index = flow.tables[m], index - flow.rows[m]
    kind, particles = t.labels[index]
    label = kind
    for sym, k in zip(("i", "j"), particles):
        label = label.replace(f"_{sym}", f"_{k}")
    where = f"argument {label} (kind {kind})"
    near = f"within {flow.lattice._guard_radius:.1e} of a lattice point"
    if size is not None:
        message = f"imprecise state: {where} has |x| = {size:.1e}, beyond the lattice reduction's precision"
    elif index >= len(t.P):
        message = f"particle on a lattice point: {where} is a zero of sigma(q), a pole of the gauge of L(z)"
    elif t.w[index]:
        message = f"particle collision: {where} {near}"
    else:
        message = f"non-generic state: {where} {near}: H has no term there, but L(z) is not generic"
    return CollisionError(message, kind=kind, particles=particles, member=m if len(flow.tables) > 1 else None)


def _args(flow, q):
    """The flow's arguments P q + c, after the size test of ``check_state``:
    the CollisionError names the first argument whose rounding |x| eps
    reaches the guard radius."""
    x = flow.P @ q + flow.c
    size, limit = np.abs(x), flow.lattice._guard_radius / _EPS
    if size.max(initial=0.0) >= limit:
        i = int(np.argmax(size >= limit))
        raise _collision_error(flow, i, size[i])
    return x


def _check(flow, q):
    """``check_state`` on the flow: the size test of ``_args``, then the
    guard of the lattice functions on the arguments (|x0| below the guard
    radius, x0 the argument reduced to the fundamental cell), naming the
    first hit."""
    _guarded(flow, _args(flow, q), flow.lattice._reduced)


def check_state(sys_, state):
    """Raise CollisionError, naming the argument, if one of the state's
    collision arguments is too large for the lattice reduction to resolve
    the guard radius, or else lies within the guard radius of the lattice.
    The second test is the guard of wp and wp' (|x0| below the radius, x0
    the argument reduced to the fundamental cell), so a state that passes
    here passes the guarded calls of ``hamiltonian`` and
    ``equations_of_motion``."""
    _check(sys_._flow, state.q)


_Table = namedtuple("_Table", "size H P w kappa labels k a Q free poles u v coef num den")


def _root_coupling(alpha):
    """The coefficient f_alpha of the root alpha: 1 on e_a - e_b, and e_ab
    on e_a + e_b and -e_ab on -(e_a + e_b), a < b, with e_ab = (-1)^(a+b+1),
    so that the entries of the pair multiply to wp(z) - wp(q_a + q_b)."""
    a, b = (i for i, x in enumerate(alpha) if x)
    if alpha[a] != alpha[b]:
        return 1.0
    return (-1.0) ** (a + b + 1) * (1.0 if alpha[a] > 0 else -1.0)


def _bc_rows(family, n, form):
    """The rows of the two off-diagonal blocks of a B or C matrix, skew for B
    and symmetric for C, and for B the border columns.

    For a pair a < b (a <= b for C) with x = q_a + q_b, the upper block has
    B_ab = s(z-x) s(z+q_b) / (s(z) s(z-q_a) s(x)) and the lower block C_ba =
    -s(z+x) s(z-q_a) / (s(z) s(z+q_b) s(x)), -2 times that on the C
    diagonal.  The B border has the columns a_i = s(z-q0-q_i) s(z) /
    (s(z-q0) s(z-q_i) s(q_i)) and b_i = s(z-q0+q_i) s(z-q_i) / (s(z) s(z-q0)
    s(q_i)) at (i, n) and (n+1+i, n), with -b_i and -a_i in the middle row."""
    lo = n + 1 if family == "B" else n
    sign = 1.0 if family == "C" else -1.0
    z = form(1)
    rows = []
    for a, b in np.transpose(np.triu_indices(n, 0 if family == "C" else 1)).tolist():
        x = form(0, (a, 1), (b, 1))
        upper = ([form(1, (a, -1), (b, -1)), form(1, (b, 1))], [z, form(1, (a, -1)), x])
        lower = ([form(1, (a, 1), (b, 1)), form(1, (a, -1))], [z, form(1, (b, 1)), x])
        c = -2.0 if a == b else -1.0
        rows += [(a, lo + b, 1.0, *upper), (lo + b, a, c, *lower)]
        if a != b:
            rows += [(b, lo + a, sign, *upper), (lo + a, b, c * sign, *lower)]
    if family == "B":
        for i in range(n):
            col_a = ([form(1, (i, -1), k=-1), z], [form(1, k=-1), form(1, (i, -1)), form(0, (i, 1))])
            col_b = ([form(1, (i, 1), k=-1), form(1, (i, -1))], [z, form(1, k=-1), form(0, (i, 1))])
            rows += [(i, n, 1.0, *col_a), (n, lo + i, -1.0, *col_a),
                     (n, i, -1.0, *col_b), (lo + i, n, 1.0, *col_b)]
    return rows


@lru_cache(maxsize=None)
def _table(family, n):
    """The q0-free description of a system, built once per (family, n) and
    shared, read-only, by every system of the family and size: ``CMSystem``
    adds the constants c = k q0.

    The closed form reads the ``_plan`` rows P, weights w and kinetic
    coefficient kappa, exact (P has entries 0, +-1, 2 and w has 0, 1, 2): H =
    kappa p.p + w . wp(P q + c), qdot = 2 kappa p and pdot = -G wp'(P q + c)
    with the force matrix G = P^T diag(w) of the ``_flow``.  The Lax matrix
    reads one row (u, v, coefficient, numerator forms, denominator forms) per
    off-diagonal entry, L_uv = coef prod s(numerator) / prod s(denominator)
    with a fixed coefficient ``coef`` (+-1, or -2 on the C diagonal), each
    form a z + r.q + k q0 stored once in Q (z-free first, then the others
    with their ``a``; ``poles`` are the z-free forms in some denominator), and
    the Cartan rows H.  k holds the q0 multipliers of the plan rows, then of
    the forms; ``labels`` the ``_label`` of each plan row, then of each pole
    form.

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
        f = _root_coupling(alpha)
        rows += [(u, v, f * e, num, den)
                 for u, row in enumerate(b.rows) for v, e in enumerate(row) if e]
    if family in ("B", "C"):
        rows += _bc_rows(family, n, form)
    forms = sorted({f for row in rows for f in row[3] + row[4]})
    index = {f: k for k, f in enumerate(forms)}
    width = max((len(fs) for row in rows for fs in row[3:]), default=0)

    def gather(k):  # padded with the index of the column of ones
        return np.array([[index[f] for f in row[k]] + [len(forms)] * (width - len(row[k]))
                         for row in rows], dtype=int).reshape(len(rows), width)

    X = np.array(forms, dtype=float).reshape(len(forms), n + 2)
    free = sum(f[0] == 0 for f in forms)
    den = gather(4)
    u, v = np.array([row[:2] for row in rows], dtype=int).reshape(-1, 2).T
    poles = np.flatnonzero(np.bincount(den.ravel(), minlength=free)[:free])
    P, pk, w = _plan(family, n)
    table = _Table(size=len(cartan), H=np.array(cartan, dtype=float), P=P, w=w,
                   kappa=-0.5 if family == "A" else -1.0,
                   labels=tuple(_label(r, k) for r, k in zip(np.vstack([P, X[poles, 1:-1]]),
                                                              np.concatenate([pk, X[poles, -1]]))),
                   k=np.concatenate([pk, X[:, -1]]), a=X[free:, 0], Q=X[:, 1:-1], free=free,
                   poles=poles, u=u, v=v, coef=np.array([r[2] for r in rows], dtype=float),
                   num=gather(3), den=den)
    for arr in table:
        if isinstance(arr, np.ndarray):
            arr.flags.writeable = False
    return table


def _lax(sys_, state, nodes, gradient=False):
    """The (K, N, N) stack of L at the 1-d ``nodes``, from ``check_state`` and
    one sigma call on the forms of the ``_table``, the z-free ones without
    the node axis.  A pole form with sigma exactly 0, which only the A
    gauge's sigma(q_i) can have past ``check_state``, raises the q_i
    CollisionError.  With ``gradient``, one sigma/sigma' call, and the exact
    dL_uv/dq_i, (K, rows, n), of the table's rows comes too (dL/dp_i is the
    diagonal H[:, i]): a numerator by the product rule, finite where a form
    is a zero of sigma, a denominator by sigma'/sigma, its forms kept off
    the lattice by ``check_state``, the pole check and the circle rule."""
    check_state(sys_, state)
    t = sys_._table
    x = t.Q @ state.q + sys_._lax_c
    zx = t.a * nodes[:, None] + x[t.free:]
    args = np.concatenate([x[:t.free], zx.ravel()])
    s, ds = sys_.lattice._sigma(args, 2) if gradient else (sys_.lattice.sigma(args), None)
    hit = np.flatnonzero(s[t.poles] == 0)
    if hit.size:
        raise _collision_error(sys_._flow, len(t.P) + hit[0])

    def table(v, pad):  # (K, forms + 1): the forms in table order, the padding column last
        return np.concatenate([np.broadcast_to(v[:t.free], (len(nodes), t.free)),
                               v[t.free:].reshape(zx.shape), pad((len(nodes), 1))], axis=1)

    S = table(s, np.ones)
    den = S[:, t.den]
    L = np.zeros((len(nodes), t.size, t.size), dtype=complex)
    L[:, t.u, t.v] = t.coef * S[:, t.num].prod(axis=-1) / den.prod(axis=-1)
    d = np.arange(t.size)
    L[:, d, d] = t.H @ state.p
    if not gradient:
        return L
    dS = table(ds, np.zeros)
    r = np.vstack([t.Q, np.zeros((1, sys_.n))])  # the q-coefficients of the forms, the padding row last
    # term j of the product rule: sigma'(f_j) times the other numerator factors
    terms = np.where(np.eye(t.num.shape[1], dtype=bool), dS[:, t.num[:, None]], S[:, t.num[:, None]])
    dnum = np.einsum("krw,rwi->kri", terms.prod(axis=-1), r[t.num])
    dden = np.einsum("krw,rwi->kri", dS[:, t.den] / den, r[t.den])
    return L, (t.coef / den.prod(axis=-1))[..., None] * dnum - L[:, t.u, t.v, None] * dden


def lax_matrix(sys_, state, z):
    """Spectral-parameter Lax matrix of the configured family at z.

    ``z`` is a scalar, giving the (N, N) matrix, or a 1-d array of nodes,
    giving the (K, N, N) stack, from one guarded sigma call either way
    (``_lax``, which names its CollisionError).  Every entry is elliptic in
    z, with the fixed pole z = 0 and moving poles at ``moving_points``."""
    zs = np.asarray(z, dtype=complex)
    if zs.ndim > 1:
        raise ValueError("z must be a scalar or a 1-d array of nodes")
    L = _lax(sys_, state, zs.reshape(-1))
    return L[0] if zs.ndim == 0 else L


# ---------------------------------------------------------------------------
# Hamiltonians
# ---------------------------------------------------------------------------


def hamiltonian(sys_, state):
    """Second-order Hamiltonian in closed form, kappa p.p + w . wp(P q + c)
    over the system's plan (residue-normalized sign: negative kinetic term;
    B family restricted to the frozen-q0 submanifold, constants dropped).

    The size test of ``check_state`` and one guarded wp call on the plan's
    arguments stand for ``check_state``."""
    t = sys_._table
    wp = _guarded(sys_._flow, _args(sys_._flow, state.q), sys_.lattice.wp)
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


def _circle(sys_, state, center):
    """The offsets w of the 32 nodes center + w of the one circle rule: radius
    a third of the lattice distance to the nearest pole of ``_pole_set`` past
    1e-4 |omega1| or to the translates of the center's, a shortest period
    |Ar| away, so the trapezoid error is 3^-32 = 5e-16 of the terms."""
    lat = sys_.lattice
    dist = lat.lattice_distance(_pole_set(sys_, state) - center)
    radius = float(np.min(dist[dist > 1e-4 * abs(lat.omega1)], initial=abs(lat.Ar))) / 3.0
    if radius < 10 * lat._guard_radius:
        raise ValueError(f"contour radius collides with a neighbouring pole: radius {radius:.3e} "
                         f"at {complex(center):.6g}, below 10 guard radii")
    return radius * np.exp(2j * np.pi * np.arange(_CONTOUR_NODES) / _CONTOUR_NODES)


def _check_specs(sys_, specs):
    """Reject the (power, m) specs whose residue is not a Hamiltonian."""
    if any(power < 1 for power, _ in specs):
        raise ValueError("trace powers must be at least 1")
    if sys_.family in ("B", "C", "D") and any(power % 2 for power, _ in specs):
        raise ValueError("odd trace powers vanish identically for this family")


def _residues(sys_, state, specs):
    """res_{z=0} z^{-m} tr L(z)^power dz for each (power, m) of ``specs``, by
    trapezoidal quadrature on one ``_circle`` (exponentially accurate on the
    annulus of analyticity).  Each trace is the sum of the entries of L^(power
    - 1) times those of L transposed, with no last matrix product."""
    _check_specs(sys_, specs)
    w = _circle(sys_, state, 0.0)
    ls = lax_matrix(sys_, state, w)
    out = []
    for power, m in specs:
        traces = np.einsum("kij,kji->k", np.linalg.matrix_power(ls, power - 1), ls)
        out.append(np.mean(traces * w ** (1 - m)))
    return np.array(out)


def residue_hamiltonian(sys_, state, m=1, power=2):
    """res_{z=0} z^{-m} tr L(z)^power dz, the one-spec case of ``_residues``.

    Every contour quadrature uses the one 32-node circle rule of ``_circle``,
    a third of the way to the nearest other pole or period, so its error
    falls like 3^-32; a radius below 10 guard radii raises ValueError."""
    return _residues(sys_, state, [(power, m)])[0]


def hamiltonian_from_residue(sys_, state):
    """Second-order Hamiltonian through the residue route: -1/2 of the
    residue of z^{-1} tr L^2, plus the exact constant 2 n wp(q0) restoring
    the B-family restriction convention."""
    val = -0.5 * residue_hamiltonian(sys_, state, m=1, power=2)
    if sys_.family == "B":
        val = val + 2 * sys_.n * sys_.lattice.wp(sys_.q0)
    return _real_if_close(val)


# ---------------------------------------------------------------------------
# dynamics
# ---------------------------------------------------------------------------


def _force(flow, x):
    """pdot = -G wp'(x) at the flow's arguments x = P q + c, from one
    guarded wp' call."""
    # -1.0 times, not negated: the two differ in the sign of zero imaginary parts
    return -1.0 * (flow.G @ _guarded(flow, x, flow.lattice.wp_prime))


def equations_of_motion(sys_, state):
    """(qdot, pdot) of the closed-form Hamiltonian: qdot = 2 kappa p and
    pdot = -P^T (w * wp'(P q + c)) = -G wp'(P q + c), its gradient over the
    system's plan: the one-member case of the flow ``integrate`` steps.

    The size test of ``check_state`` and one guarded wp' call on the plan's
    arguments stand for ``check_state``."""
    flow = sys_._flow
    return flow.v * state.p, _force(flow, _args(flow, state.q))


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


def _rk4_step(flow, q, p, dt):
    # the stages run on y = (q, p) stacked: one array operation per update
    n = len(q)

    def rhs(y):
        return np.concatenate([flow.v * y[n:], _force(flow, flow.P @ y[:n] + flow.c)])

    y = np.concatenate([q, p])
    k1 = rhs(y)
    k2 = rhs(y + dt / 2 * k1)
    k3 = rhs(y + dt / 2 * k2)
    k4 = rhs(y + dt * k3)
    y = y + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return y[:n], y[n:]


def _leapfrog_step(flow, q, p, dt):
    # separable H = T(p) + V(q): kick-drift-kick, two force calls
    p = p + dt / 2 * _force(flow, flow.P @ q + flow.c)
    q = q + dt * (flow.v * p)
    return q, p + dt / 2 * _force(flow, flow.P @ q + flow.c)


_STEPPERS = {"rk4": _rk4_step, "leapfrog": _leapfrog_step}


def integrate(sys_, state0, t_end, dt, scheme="rk4", record_every=1):
    """Fixed-step integration; aborts with the partial trajectory attached
    on collision, naming the time of the failed step (t = 0 for a colliding
    initial state).  The initial state meets both tests of ``check_state``;
    the stages meet the guard of their wp' call, and a step that leaves the
    finite numbers ends the run, with no size test per stage.
    Equal-length sequences of systems and states on one
    lattice give the list of their trajectories, each bit for bit its own
    run's, from one guarded wp' call per stage on the stacked ``_flow``; a
    batch's errors start with ``member i (B2): ``, carry ``member`` i and
    attach the list of the members' partial trajectories."""
    batch = not isinstance(sys_, CMSystem)
    systems, states = (list(sys_), list(state0)) if batch else ([sys_], [state0])
    if not systems or len(systems) != len(states):
        raise ValueError("a batch needs equal-length, nonempty sequences of systems and states")
    if dt <= 0:
        raise ValueError("dt must be positive")
    if scheme not in _STEPPERS:
        raise ValueError(f"scheme must be one of {sorted(_STEPPERS)}")
    step = _STEPPERS[scheme]
    flow = _flow(systems) if batch else sys_._flow
    nsteps = int(round(t_end / dt)) if t_end > 0 else 0
    q, p = np.concatenate([s.q for s in states]), np.concatenate([s.p for s in states])
    times, qs, ps = [0.0], [q], [p]
    k = 0

    def split(completed):  # the members' trajectories, each with arrays of its own
        tq, tp, c = np.array(qs), np.array(ps), flow.coords
        trajs = [Trajectory(np.array(times), tq[:, a:b].copy(), tp[:, a:b].copy(), completed)
                 for a, b in zip(c, c[1:])]
        return trajs if batch else trajs[0]

    try:
        _check(flow, q)
        for k in range(1, nsteps + 1):
            q, p = step(flow, q, p, dt)
            finite = np.isfinite(q) & np.isfinite(p)
            if not finite.all():
                m = int(np.searchsorted(flow.coords[1:-1], finite.argmin(), "right"))
                raise CollisionError("state left the representable range", member=m)
            if k % record_every == 0 or k == nsteps:
                times.append(k * dt)
                qs.append(q)
                ps.append(p)
    except CollisionError as exc:
        m = exc.member or 0
        who = f"member {m} ({systems[m].family}{systems[m].n}): " if batch else ""
        when = f"in the step to t = {k * dt:.6g}" if k else "at t = 0"
        raise CollisionError(f"{who}{exc} ({when})", trajectory=split(False), kind=exc.kind,
                             particles=exc.particles, member=m if batch else None) from None
    return split(True)


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


def _greedy_pairs(dist):
    """The greedy matching on a square distance matrix, as (row, column)
    pairs in the order taken: the closest remaining pair first, ties to the
    first in row-major order."""
    dist = dist.copy()
    pairs = []
    for _ in range(len(dist)):
        i, j = divmod(int(np.argmin(dist)), dist.shape[1])
        pairs.append((i, j))
        dist[i] = np.inf
        dist[:, j] = np.inf
    return pairs


def eigenvalue_drift(l0, l1):
    """Greedy matched multiset distance between eigenvalue sets: the largest
    distance of the ``_greedy_pairs`` on one distance matrix."""
    d = np.linalg.eigvals(l0)[:, None] - np.linalg.eigvals(l1)
    # hypot rounds as abs of one complex scalar does; np.abs of an array
    # can differ from both by an ulp
    dist = np.hypot(d.real, d.imag)
    return max((float(dist[p]) for p in _greedy_pairs(dist)), default=0.0)


def _residue_gradients(sys_, state, specs):
    """The exact (dH/dq, dH/dp), each (len(specs), n), of H = res z^{-m} tr
    L^p for the (p, m) ``specs``, by the quadrature of ``_residues`` on one
    ``_circle`` and one ``_lax`` call: dH/dq_i = res z^{-m} p sum_rows
    (L^(p-1))_vu dL_uv/dq_i, dH/dp_i = res z^{-m} p sum_d (L^(p-1))_dd H_di."""
    _check_specs(sys_, specs)
    w = _circle(sys_, state, 0.0)
    ls, dls = _lax(sys_, state, w, gradient=True)
    t = sys_._table
    lp = np.array([np.linalg.matrix_power(ls, power - 1) for power, _ in specs])
    weight = np.array([power * w ** (1 - m) / len(w) for power, m in specs])
    return (np.einsum("sk,skr,kri->si", weight, lp[:, :, t.v, t.u], dls),
            np.einsum("sk,skd,di->si", weight, np.diagonal(lp, axis1=2, axis2=3), t.H))


def involution_table(sys_, state, specs):
    """Pairwise Poisson brackets of residue Hamiltonians: a dict mapping
    pairs of the (power, m) labels of ``specs`` to |bracket|, from the exact
    gradients of ``_residue_gradients`` (one circle and one sigma/sigma'
    call per table); a single spec gives {} without evaluating anything."""
    if len(specs) < 2:
        return {}
    gq, gp = _residue_gradients(sys_, state, specs)
    return {(sa, sb): abs(complex(gq[a] @ gp[b] - gp[a] @ gq[b]))
            for a, sa in enumerate(specs) for b, sb in enumerate(specs) if a < b}


def _laurent(sys_, state, center, degrees):
    """The radius of the 32-node ``_circle`` at ``center`` and the Laurent
    coefficients of L(z) there at ``degrees`` (poles within 1e-4 |omega1| of
    the center count as enclosed, their translates a period away do not)."""
    w = _circle(sys_, state, center)
    return w[0].real, np.tensordot(w ** -np.c_[degrees], lax_matrix(sys_, state, center + w), 1) / len(w)


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


def expansion_violations(sys_, state):
    """Violations of the local expansion conditions at the moving poles.

    At a moving point with grading element h of depth k, the Laurent
    coefficient L_p of L(z) at degree p must lie in the level-p filtration,
    i.e. vanish at the entries (u, v) with h_u - h_v > p, for p = -k..k-1;
    p = -k-1 is checked too (no pole beyond order k).  The coefficients come
    from the 32-node quadrature on the ``_circle`` at the point.  Returns
    one dict per point and degree with the largest offending entry
    ("violation") and, with every coefficient scaled by radius^p, that entry
    over the largest coefficient entry at the point ("relative").
    """
    points, gradings = moving_points(sys_, state)
    k = _GRADING_DEPTH[sys_.family]
    degrees = np.arange(-k - 1, k)
    out = []
    for gamma, hd in zip(points, gradings):
        radius, coeffs = _laurent(sys_, state, gamma, degrees)
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
    step and the last.  For sequences of systems and states on one lattice
    it integrates them as one batch (``integrate``) and returns a list of
    the members' (trajectory, report) pairs.
    """
    trajs = integrate(sys_, state0, t_end, dt, scheme=scheme, record_every=50)
    batch = not isinstance(sys_, CMSystem)
    systems, trajs = (list(sys_), trajs) if batch else ([sys_], [trajs])
    if z_samples is None:
        z_samples = conservation_z_samples(systems[0].lattice)
    zs = np.asarray(z_samples, dtype=complex)
    out = []
    for sys_, traj in zip(systems, trajs):
        h0 = hamiltonian(sys_, traj.state(0))
        l0 = lax_matrix(sys_, traj.state(0), zs)
        max_h = max_spec = 0.0
        for i in range(1, len(traj)):
            st = traj.state(i)
            max_h = max(max_h, abs(hamiltonian(sys_, st) - h0) / max(1e-300, abs(h0)))
            for a, b in zip(l0, lax_matrix(sys_, st, zs)):
                max_spec = max(max_spec, eigenvalue_drift(a, b))
        report = {"family": sys_.family, "n": sys_.n, "dt": dt, "T": t_end, "scheme": scheme,
                  "max_H_drift": max_h, "max_spec_drift": max_spec,
                  "z_samples": [str(z) for z in z_samples], "completed": bool(traj.completed)}
        if sys_.family == "B":
            report.update(q0=str(sys_.q0), q0_frozen=True)
        out.append((traj, report))
    return out if batch else out[0]


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
