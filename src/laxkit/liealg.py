"""Root systems, Z-gradings, and exact matrix realizations.

Families covered: A (gl(n), with the traceless variant sl(n)), B (so(2n+1)),
C (sp(2n)), D (so(2n)) and G2 in its 7-dimensional faithful representation.
Each kind is stated by three data: its defining form (``sigma_for``), the
rows embedding the Cartan coordinates t on the diagonal
(``_cartan_rows``) and its simple roots as functionals of t
(``_simple_root_functionals``).  The so/sp bases, the root labels, the root
systems and the Cartan elements are derived from them; only gl/sl and G2
keep hand-written bases.
A grading is induced by a diagonal Cartan element h with integer ad-eigenvalues;
the catalog gradings are the ones attached to a single simple root, where the
degree of a root is minus the multiplicity of that simple root in its
expansion (positive roots sit in negative degrees, matching the block
pictures used for Tyurin-form residues).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .exact import ColumnSolver, Mat, mat_inverse, rank, rref

__all__ = [
    "RootSystem",
    "MatrixAlgebra",
    "GradedDecomposition",
    "matrix_realization",
    "weight_basis",
    "graded_subspaces",
    "cartan_element",
    "grading_element",
    "catalog_grading",
    "acceptance_catalog",
    "filtration_balance_residual",
    "filtration_balance_residual_odd",
    "invariant_degrees",
    "degree_sum_residual",
    "hamiltonian_count",
    "hamiltonian_count_identity_residual",
    "hitchin_integral_count",
    "family_to_kind",
    "sigma_for",
    "FAMILIES",
    "KINDS",
]

FAMILIES = ("A", "B", "C", "D", "G2")
KINDS = ("gl", "sl", "so_odd", "sp", "so_even", "g2")

_FAMILY_TO_KIND = {"A": "gl", "B": "so_odd", "C": "sp", "D": "so_even", "G2": "g2"}
_KIND_FAMILY = {"gl": "A", "sl": "A", "so_odd": "B", "sp": "C", "so_even": "D", "g2": "G2"}


def family_to_kind(family):
    try:
        return _FAMILY_TO_KIND[family]
    except KeyError:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}") from None


# ---------------------------------------------------------------------------
# root systems
# ---------------------------------------------------------------------------


@dataclass
class RootSystem:
    """Positive roots of a classical family or G2, with their expansions
    over the simple roots and the highest root.

    ``rank`` follows the matrix realization: for family A it is the size n
    of gl(n) (so there are n-1 simple roots); for B/C/D it is the n of
    so(2n+1), sp(2n), so(2n).  Roots are functionals of the Cartan
    coordinates, listed in the basis order of the realization.
    """

    family: str
    rank: int
    simple_roots: tuple
    positive_roots: tuple
    expansions: dict = field(repr=False)
    highest_root: tuple


def _vec(n, pairs):
    v = [0] * n
    for i, c in pairs:
        v[i] = c
    return tuple(v)


# ---------------------------------------------------------------------------
# the three per-kind data
# ---------------------------------------------------------------------------


def sigma_for(kind, rank):
    """Exact defining bilinear form of the realization of ``kind`` at
    ``rank`` (the identity for gl/sl)."""
    n = rank
    if kind in ("gl", "sl"):
        return Mat.identity(n)
    if kind == "so_even":
        rows = [[0] * (2 * n) for _ in range(2 * n)]
        for i in range(n):
            rows[i][n + i] = 1
            rows[n + i][i] = 1
        return Mat(rows)
    if kind == "sp":
        rows = [[0] * (2 * n) for _ in range(2 * n)]
        for i in range(n):
            rows[i][n + i] = 1
            rows[n + i][i] = -1
        return Mat(rows)
    if kind == "so_odd":
        N = 2 * n + 1
        rows = [[0] * N for _ in range(N)]
        rows[n][n] = 1
        for i in range(n):
            rows[i][n + 1 + i] = 1
            rows[n + 1 + i][i] = 1
        return Mat(rows)
    if kind == "g2":
        rows = [[0] * 7 for _ in range(7)]
        rows[0][0] = 1
        for i in range(3):
            rows[1 + i][4 + i] = 2
            rows[4 + i][1 + i] = 2
        return Mat(rows)
    raise ValueError(kind)


def _cartan_rows(kind, n):
    """Row i gives the i-th diagonal entry of the Cartan element as a
    functional of the Cartan coordinates t (the weight of the i-th standard
    basis vector)."""
    if kind == "g2":
        return ((0, 0), (1, 0), (0, 1), (-1, -1), (-1, 0), (0, -1), (1, 1))
    eps = [_vec(n, [(i, 1)]) for i in range(n)]
    if kind in ("gl", "sl"):
        return eps
    middle = [(0,) * n] if kind == "so_odd" else []
    return eps + middle + [tuple(-c for c in e) for e in eps]


def _simple_root_functionals(kind, n):
    """Rows c_j with alpha_j(t) = c_j . t in the Cartan coordinates."""
    if kind == "g2":
        return [(1, 0), (-1, 1)]
    rows = [_vec(n, [(j, 1), (j + 1, -1)]) for j in range(n - 1)]
    last = {"so_odd": [(n - 1, 1)], "sp": [(n - 1, 2)], "so_even": [(n - 2, 1), (n - 1, 1)]}
    if kind in last:
        rows.append(_vec(n, last[kind]))
    return rows


# ---------------------------------------------------------------------------
# matrix realizations
# ---------------------------------------------------------------------------


class MatrixAlgebra:
    """Finite-dimensional matrix Lie algebra with an exact homogeneous basis.

    Every basis element is a simultaneous eigenvector of ad(h) for all
    diagonal Cartan elements h; its label is the signed multiplicity vector
    of its root over the simple roots (the zero vector for Cartan elements).
    ``entries`` holds the nonzero entries of each basis element as
    (i, j, value) triples, row by row; a root vector has one or two.
    """

    def __init__(self, kind, rank, size, basis, labels, sigma, cartan_dim, root_system):
        self.kind = kind
        self.rank = rank
        self.size = size
        self.basis = basis
        self.labels = labels
        self.sigma = sigma
        self.cartan_dim = cartan_dim
        self.root_system = root_system
        self.dim = len(basis)
        self.entries = tuple(map(_nonzero_entries, basis))
        self._solver = None

    @property
    def lie_rank(self):
        return self.cartan_dim

    @property
    def has_defining_form(self):
        return self.kind in ("so_odd", "so_even", "sp", "g2")

    def solver(self):
        if self._solver is None:
            self._solver = ColumnSolver([b.flatten() for b in self.basis])
        return self._solver

    def coordinates(self, m):
        """Exact coordinates of a matrix in the basis, or None if outside."""
        return self.solver().solve(m.flatten())

    def element(self, coords):
        acc = Mat.zeros(self.size)
        for c, b in zip(coords, self.basis):
            if c:
                acc = acc + b.scale(c)
        return acc

    def __repr__(self):
        return f"MatrixAlgebra({self.kind}, rank={self.rank}, dim={self.dim})"


def _nonzero_entries(m):
    """The nonzero entries of a matrix as (i, j, value) triples, row by row."""
    return tuple((i, j, v) for i, row in enumerate(m.rows) for j, v in enumerate(row) if v)


def _gl_basis(n, traceless):
    basis = [Mat.unit(n, i, j) for i in range(n) for j in range(n) if i != j]
    if traceless:
        basis += [Mat.diag([1 if k == i else (-1 if k == i + 1 else 0) for k in range(n)])
                  for i in range(n - 1)]
    else:
        basis += [Mat.unit(n, i, i) for i in range(n)]
    return basis


def _form_basis(sigma, n):
    """Basis of {X : X^T sigma + sigma X = 0} for a form in block order
    (n, n) or (n, 1, n).

    For each matrix unit E the element X = E - sigma^-1 E^T sigma, scaled to
    a primitive integer matrix, spans one root space or one Cartan
    direction.  The positions of E run over the A block, then the middle
    column (odd size only), then the upper and lower blocks over a <= b;
    positions where X vanishes (the diagonal of the off-diagonal blocks for
    so) are skipped.
    """
    size = sigma.n
    lo = size - n
    inv = mat_inverse(sigma)
    positions = [(i, j) for i in range(n) for j in range(n)]
    if lo > n:
        positions += [p for i in range(n) for p in ((i, n), (lo + i, n))]
    positions += [p for a in range(n) for b in range(a, n) for p in ((a, lo + b), (lo + a, b))]
    basis = []
    for i, j in positions:
        # E = e_i e_j^T gives sigma^-1 E^T sigma = (sigma^-1 e_j)(e_i^T sigma)
        x = [[-row[j] * s for s in sigma.rows[i]] for row in inv.rows]
        x[i][j] += 1
        g = math.gcd(*(v for row in x for v in row))
        if g:
            basis.append(Mat([[v // g for v in row] for row in x]))
    return basis


def _skew3(x):
    return Mat([[0, x[2], -x[1]], [-x[2], 0, x[0]], [x[1], -x[0], 0]])


def _g2_element(a_mat, a1, a2):
    """7x7 matrix [[0, -2 a2^t, -2 a1^t], [a1, A, [a2]], [a2, [a1], -A^t]].

    The realization preserves sigma = [[1, 0, 0], [0, 0, 2], [0, 2, 0]] and
    has integer basis matrices; it is the conjugate by diag(sqrt(2), 1, ..., 1)
    of the form-symmetric realization, whose skew blocks carry 1/sqrt(2).
    """
    s1 = _skew3(a1)
    s2 = _skew3(a2)
    rows = [[0] * 7 for _ in range(7)]
    for i in range(3):
        rows[0][1 + i] = -2 * a2[i]
        rows[0][4 + i] = -2 * a1[i]
        rows[1 + i][0] = a1[i]
        rows[4 + i][0] = a2[i]
        for j in range(3):
            rows[1 + i][1 + j] = a_mat[i][j]
            rows[4 + i][4 + j] = -a_mat[j][i]
            rows[1 + i][4 + j] = s2[i, j]
            rows[4 + i][1 + j] = s1[i, j]
    return Mat(rows)


def _g2_basis():
    zero, zero3 = [0] * 3, [[0] * 3 for _ in range(3)]
    unit = [[1 if k == i else 0 for k in range(3)] for i in range(3)]
    basis = [_g2_element([[d[i] if i == j else 0 for j in range(3)] for i in range(3)], zero, zero)
             for d in ([1, -1, 0], [0, 1, -1])]
    for i in range(3):
        for j in range(3):
            if i != j:
                a = [[1 if (r, c) == (i, j) else 0 for c in range(3)] for r in range(3)]
                basis.append(_g2_element(a, zero, zero))
    for i in range(3):
        basis.append(_g2_element(zero3, unit[i], zero))
        basis.append(_g2_element(zero3, zero, unit[i]))
    return basis


def _weight(x, cartan):
    """Weight of a homogeneous element, read at its first nonzero entry
    (r, c) as the functional h_r - h_c of the Cartan coordinates."""
    r, c, _ = _nonzero_entries(x)[0]
    return tuple(a - b for a, b in zip(cartan[r], cartan[c]))


def _expansion(solver, w):
    """Integer coordinates of a weight over the simple roots."""
    x = solver.solve(w)
    if x is None or any(c != int(c) for c in x):
        raise ValueError(f"weight {w} is not an integer combination of the simple roots")
    return tuple(int(c) for c in x)


@lru_cache(maxsize=None)
def weight_basis(kind, rank):
    """(basis, cartan, weights) of the realization of ``kind`` at ``rank``:
    the exact basis, the Cartan embedding rows and the weight of each basis
    element as a functional of the Cartan coordinates (zero on the Cartan
    elements, the root on a root vector).

    This is the part of ``matrix_realization`` that needs neither the simple
    roots nor the closure check, so it also serves rank 1."""
    if kind in ("gl", "sl"):
        basis = _gl_basis(rank, kind == "sl")
    elif kind == "g2":
        basis = _g2_basis()
    else:
        basis = _form_basis(sigma_for(kind, rank), rank)
    cartan = _cartan_rows(kind, rank)
    return tuple(basis), cartan, tuple(_weight(b, cartan) for b in basis)


@lru_cache(maxsize=None)
def matrix_realization(kind, rank):
    """Exact basis of gl/sl(n), so(2n+1), sp(2n), so(2n) or G2.

    The labels, the root system and the Cartan dimension are derived from
    the basis, the Cartan embedding and the simple roots.  Closure under the
    commutator is verified at construction (``_verify_realization``): the
    form condition on each element for so/sp (their commutators then meet
    it too), the trace on each element for sl, and for G2 the coordinates
    of every pairwise commutator over the basis.
    """
    if kind in ("A", "B", "C", "D", "G2"):
        kind = family_to_kind(kind)
    if kind not in _KIND_FAMILY:
        raise ValueError(f"unknown kind {kind!r}; expected one of {KINDS}")
    family = _KIND_FAMILY[kind]
    if kind == "g2":
        if rank != 2:
            raise ValueError("G2 has rank 2")
    elif rank < 2:
        hint = " (matrix size of gl(n))" if family == "A" else ""
        raise ValueError(f"family {family} needs rank >= 2{hint}")
    basis, _, weights = weight_basis(kind, rank)
    simple = _simple_root_functionals(kind, rank)
    solver = ColumnSolver(simple)
    labels = [_expansion(solver, w) for w in weights]
    exps = {w: lab for w, lab in zip(weights, labels) if any(lab) and min(lab) >= 0}
    roots = tuple(exps)
    highest = max(reversed(roots), key=lambda r: sum(exps[r]))
    rs = RootSystem(family, rank, tuple(simple), roots, exps, highest)
    cartan_dim = sum(1 for lab in labels if not any(lab))
    sigma = sigma_for(kind, rank)
    alg = MatrixAlgebra(kind, rank, sigma.n, list(basis), labels, sigma, cartan_dim, rs)
    _verify_realization(alg)
    return alg


def _verify_realization(alg):
    """Check that the basis is independent and closed under the commutator.

    gl(n) holds every matrix.  The matrices X with X^T sigma + sigma X = 0
    form a Lie algebra, and tr [A, B] = 0 for any A and B, so a basis of
    so/sp whose elements meet the form condition, or a basis of sl whose
    elements are traceless, is closed: each element is checked alone.  G2
    is a proper subalgebra of so(7): its elements meet the form condition,
    and every pairwise commutator [b_a, b_c], a < c, must also have
    coordinates over the basis.  The stacks hold the exact scalars as Python
    objects.  The first failure raises AssertionError naming the basis
    indices, their labels and the condition.
    """
    if rank([b.flatten() for b in alg.basis]) != alg.dim:
        raise AssertionError("basis is linearly dependent")
    basis = np.array([b.rows for b in alg.basis], dtype=object)
    if alg.has_defining_form:
        sigma = np.array(alg.sigma.rows, dtype=object)
        fails = ((basis.transpose(0, 2, 1) @ sigma + sigma @ basis) != 0).any(axis=(1, 2))
    else:
        fails = [alg.kind == "sl" and b.trace() != 0 for b in alg.basis]
    bad = np.flatnonzero(fails)
    if bad.size:
        raise AssertionError(f"{alg.kind} basis element b{bad[0]} (label {alg.labels[bad[0]]}) fails "
                             f"the {'form' if alg.has_defining_form else 'trace'} condition")
    if alg.kind != "g2":
        return
    for a in range(alg.dim - 1):
        x, rest = basis[a], basis[a + 1:]
        comms = (x @ rest - rest @ x).reshape(len(rest), -1).tolist()
        bad = [c for c, m in enumerate(comms, a + 1) if alg.solver().solve(m) is None]
        if bad:
            raise AssertionError(f"g2 realization is not closed: [b{a}, b{bad[0]}] (labels {alg.labels[a]}, "
                                 f"{alg.labels[bad[0]]}) fails the coordinates condition")


# ---------------------------------------------------------------------------
# gradings
# ---------------------------------------------------------------------------


def cartan_element(alg, t):
    """Diagonal Cartan element from coordinates t, one per column of the
    Cartan embedding rows."""
    t = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in t]
    rows = _cartan_rows(alg.kind, alg.rank)
    if len(t) != len(rows[0]):
        raise ValueError(f"expected {len(rows[0])} Cartan coordinates")
    return Mat.diag([sum((c * x for c, x in zip(row, t) if c), 0) for row in rows])


def grading_element(alg, root_index, dual=False):
    """Cartan element h with ad(h) = degree on each graded subspace.

    By default positive roots receive degree minus their multiplicity in the
    chosen simple root (so the depth-k pole coefficients of Lax expansions
    live below the diagonal blocks); ``dual`` flips the sign.
    """
    funcs = alg.root_system.simple_roots
    if not (1 <= root_index <= len(funcs)):
        raise ValueError(f"simple root index {root_index} out of range 1..{len(funcs)}")
    ncoord = len(funcs[0])
    rows = [list(f) + [1 if j == root_index - 1 else 0] for j, f in enumerate(funcs)]
    if alg.kind in ("gl", "sl"):
        rows.append([0] * (ncoord - 1) + [1, 0])  # normalize t_n = 0
    red, pivots = rref(rows)
    if len(pivots) != ncoord or any(p >= ncoord for p in pivots):
        raise AssertionError("coweight system is singular")
    t = [Fraction(0)] * ncoord
    for r, c in enumerate(pivots):
        t[c] = Fraction(red[r][ncoord])
    if alg.kind == "sl":
        shift = sum(t) / ncoord
        t = [x - shift for x in t]
    if not dual:
        t = [-x for x in t]
    return cartan_element(alg, t)


class GradedDecomposition:
    """Eigenspace decomposition of an algebra under ad(h), h diagonal.

    The entry-degree table delta[i][j] = h_ii - h_jj drives all projections:
    a matrix in the algebra lies in the filtration space of level p exactly
    when its entries at positions with delta > p vanish.
    """

    def __init__(self, alg, h, degrees):
        self.alg = alg
        self.h = h
        self.degrees = tuple(degrees)
        subs = {}
        for idx, d in enumerate(degrees):
            subs.setdefault(d, []).append(idx)
        self.subspaces = {p: tuple(v) for p, v in subs.items()}
        self.depth = max((abs(p) for p in self.subspaces), default=0)
        hd = [h[i, i] for i in range(h.n)]
        self.delta = tuple(tuple(hd[i] - hd[j] for j in range(h.n)) for i in range(h.n))
        self._filt_cache = {}
        self._above_cache = {}

    def dim_subspace(self, p):
        return len(self.subspaces.get(p, ()))

    def dim_filtration(self, p):
        return sum(len(v) for q, v in self.subspaces.items() if q <= p)

    def basis_of_subspace(self, p):
        return [self.alg.basis[i] for i in self.subspaces.get(p, ())]

    def _filtration(self, p):
        """(basis, entries) of the level-p filtration space, built once per
        level: its basis elements in degree order and their nonzero entries
        (``alg.entries``)."""
        key = min(p, self.depth)
        cache = self._filt_cache
        if key not in cache:
            idx = [i for q in sorted(self.subspaces) if q <= key for i in self.subspaces[q]]
            cache[key] = [self.alg.basis[i] for i in idx], [self.alg.entries[i] for i in idx]
        return cache[key]

    def basis_of_filtration(self, p):
        return self._filtration(p)[0]

    def filtration_entries(self, p):
        """Nonzero (i, j, value) entries of each element of
        ``basis_of_filtration(p)``, in the same order."""
        return self._filtration(p)[1]

    def positions_above(self, p):
        """Positions (i, j) with delta[i][j] > p, built once per level."""
        cache = self._above_cache
        if p not in cache:
            cache[p] = tuple(
                (i, j) for i, row in enumerate(self.delta) for j, d in enumerate(row) if d > p
            )
        return cache[p]

    def has_violation(self, m, p):
        """Fast early-exit test for a nonzero entry of degree > p."""
        rows = m.rows
        for i, j in self.positions_above(p):
            if rows[i][j]:
                return True
        return False

    def project(self, m, p):
        """Component of an algebra element in the degree-p subspace."""
        return Mat(
            [
                [m.rows[i][j] if self.delta[i][j] == p else 0 for j in range(m.m)]
                for i in range(m.n)
            ]
        )

    def graded_components(self, m):
        out = {}
        for p in self.subspaces:
            c = self.project(m, p)
            if not c.is_zero():
                out[p] = c
        return out

    def __repr__(self):
        dims = {p: self.dim_subspace(p) for p in sorted(self.subspaces)}
        return f"GradedDecomposition(depth={self.depth}, dims={dims})"


def graded_subspaces(alg, h):
    """Decompose the algebra into ad(h)-eigenspaces with integer eigenvalues.

    h must be a diagonal matrix in the Cartan subalgebra.  Then
    [h, b]_ij = (h_ii - h_jj) b_ij exactly, so a basis element is an
    eigenvector when h_ii - h_jj is one value over its nonzero entries, and
    that value is its degree; non-integer eigenvalues are rejected.
    """
    if not h.is_diagonal():
        raise ValueError("grading element must be diagonal (Cartan) in this realization")
    if not (h.n == h.m == alg.size):
        raise ValueError(f"grading element must be {alg.size}x{alg.size}, not {h.n}x{h.m}")
    hd = [h[i, i] for i in range(h.n)]
    degrees = []
    for entries in alg.entries:
        if not entries:
            raise ValueError("zero basis element")
        lam, *rest = {hd[i] - hd[j] for i, j, _ in entries}
        if rest:
            raise ValueError("basis element is not an ad(h) eigenvector; h outside the Cartan subalgebra")
        lam = Fraction(lam)
        if lam.denominator != 1:
            raise ValueError(f"non-integer ad(h) eigenvalue {lam}: invalid grading element")
        degrees.append(lam.numerator)
    return GradedDecomposition(alg, h, degrees)


def catalog_grading(kind, rank, root_index, dual=False):
    """(algebra, decomposition) for the simple-root grading catalog."""
    alg = matrix_realization(kind, rank)
    h = grading_element(alg, root_index, dual=dual)
    return alg, graded_subspaces(alg, h)


def acceptance_catalog():
    """The grading catalog exercised by the closure acceptance suite."""
    entries = []
    for n in (2, 3, 4):
        entries.append(("gl", n, 1))
    for n in (2, 3, 4):
        entries.append(("so_even", n, 1))
    for n in (2, 3):
        entries.append(("sp", n, 1))
        entries.append(("sp", n, n))
    for n in (2, 3):
        entries.append(("so_odd", n, 1))
        entries.append(("so_odd", n, n))
    entries.append(("g2", 2, 2))
    return entries


# ---------------------------------------------------------------------------
# integer identities
# ---------------------------------------------------------------------------


def filtration_balance_residual(dec):
    """dim g - (sum of dim of negative filtration spaces + 1) * rank.

    Vanishes exactly for gl(n)/alpha_1, so(2n)/alpha_1, sp(2n)/alpha_1 and
    the depth-2 grading of G2; it is the integer condition allowing the
    number of marked gamma points to be chosen as rank * genus.
    """
    alg = dec.alg
    s = sum(dec.dim_filtration(i) for i in range(-dec.depth, 0))
    return alg.dim - (s + 1) * alg.lie_rank


def filtration_balance_residual_odd(dec):
    """Variant 2 dim g - (sum + 1) * (matrix size), vanishing for so(2n+1)."""
    alg = dec.alg
    s = sum(dec.dim_filtration(i) for i in range(-dec.depth, 0))
    return 2 * alg.dim - (s + 1) * alg.size


_DEGREE_TABLE = {
    "gl": lambda n: tuple(range(1, n + 1)),
    "sl": lambda n: tuple(range(2, n + 1)),
    "so_odd": lambda n: tuple(2 * i for i in range(1, n + 1)),
    "sp": lambda n: tuple(2 * i for i in range(1, n + 1)),
    "so_even": lambda n: tuple(sorted(tuple(2 * i for i in range(1, n)) + (n,))),
    "g2": lambda n: (2, 6),
}


def invariant_degrees(kind, rank):
    """Degrees of the basic invariant polynomials (input data of the build)."""
    if kind in ("A", "B", "C", "D", "G2"):
        kind = family_to_kind(kind)
    if kind not in _DEGREE_TABLE:
        raise ValueError(f"unknown kind {kind!r}")
    return _DEGREE_TABLE[kind](rank)


def degree_sum_residual(kind, rank):
    """sum(2 d_i - 1) - dim g; zero for every implemented family (for gl the
    degree-1 trace invariant is part of the table and the identity holds with
    dim gl(n) = n^2)."""
    alg = matrix_realization(kind, rank)
    return sum(2 * d - 1 for d in invariant_degrees(kind, rank)) - alg.dim


def hamiltonian_count(kind, rank, deg_divisor, genus):
    """Number of independent spectral Hamiltonians cut out by a divisor.

    N = deg(D) (dim g + r) / 2 - r (genus - 1) with r the Lie rank, from the
    generic Riemann-Roch count of the expansions of invariant polynomials.
    """
    alg = matrix_realization(kind, rank)
    r = alg.lie_rank
    n2 = Fraction(deg_divisor * (alg.dim + r), 2) - r * (genus - 1)
    if n2.denominator != 1:
        raise AssertionError("non-integer Hamiltonian count")
    return int(n2)


def hamiltonian_count_identity_residual(kind, rank, deg_divisor, genus):
    """2N - [dim g deg D + r (deg D - 2(genus-1))], identically zero."""
    alg = matrix_realization(kind, rank)
    r = alg.lie_rank
    n = hamiltonian_count(kind, rank, deg_divisor, genus)
    return 2 * n - (alg.dim * deg_divisor + r * (deg_divisor - 2 * (genus - 1)))


def hitchin_integral_count(kind, rank, genus):
    """Integral count for the canonical divisor D = K (deg K = 2 genus - 2).

    For the simple families this is (dim g)(genus - 1), half the dimension of
    the reduced phase space; for gl(n) the canonical divisor is special and
    the degree-1 invariant contributes one extra integral, h^0(K) = genus
    instead of genus - 1.
    """
    alg = matrix_realization(kind, rank)
    n = hamiltonian_count(kind, rank, 2 * genus - 2, genus)
    if kind == "gl":
        return n + 1
    return n
