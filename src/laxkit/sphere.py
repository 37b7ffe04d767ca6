"""Exact genus-zero realization of the graded current algebra.

The base curve is the projective line.  Marked data: a set of P points and
Q points (free poles, with degrees balanced by a weight schedule so every
homogeneous subspace has the same divisor degree) and a set of gamma points
carrying the depth-k local expansion conditions of the grading.  All spaces
are cut out as exact rational nullspaces; dimensions are therefore integers
computed without any tolerance.

The conditions are solved one grading degree at a time.  In the coordinates
of a gamma point's frame, basis element j of degree d only needs its scalar
section to vanish there to order min(d, k), so the gamma points framed like
the first one give one small scalar nullspace per degree (a block).  Gamma
points with another frame couple the blocks through the change of frame,
and one reduced system over the block parameters solves them.  The result is
the basis that one dense nullspace of all the conditions would return.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from operator import mul

from .exact import ColumnSolver, Mat, _int_product, _int_rows, _ints, mat_inverse, nullspace, rank, rref
from .formal import MatrixLaurent, MOpExpansion, commutator, validate_mop
from .ratfunc import (INF, Poly, RatFunc, RationalMatrix, _dot, _poly, _primitive, _residue, _trace_dot,
                      _valuation, rat_const)

__all__ = [
    "SphereConfig",
    "Slice",
    "SliceDimensionError",
    "divisor_for_degree",
    "section_basis",
    "build_homogeneous_subspace",
    "build_lax_space",
    "SliceWindow",
    "almost_graded_bound",
    "standard_connection_form",
    "connection_form_tail",
    "check_connection_form",
    "pairing_one_form",
    "cocycle_eta",
    "cocycle_holomorphy_tail",
    "cocycle_table_json",
    "gradient_invariant",
    "construct_m_operator",
    "MOperatorResult",
    "lax_tangency_check",
    "TangencyReport",
    "slice_to_json",
]


class SliceDimensionError(AssertionError):
    """Raised when an exact slice dimension misses N dim(g) (non-generic
    point configuration or rank-deficient condition system).

    ``blocks`` maps each grading degree to the dimension of its block: the
    scalar sections that meet the conditions of the gamma points framed like
    the first one.  ``coupled`` is (rank, parameter count) of the system the
    other gamma points impose on the block parameters, or None when there
    are no such points."""

    def __init__(self, expected, achieved, degree, blocks, coupled):
        self.expected = expected
        self.achieved = achieved
        self.degree = degree
        self.blocks = blocks
        self.coupled = coupled
        msg = (f"slice degree {degree}: dim {achieved}, expected {expected}; reference-frame "
               "blocks " + ", ".join(f"degree {d}: {n}" for d, n in sorted(blocks.items())))
        if coupled is not None:
            msg += f"; coupled rank {coupled[0]} of {coupled[1]}"
        super().__init__(msg)


@dataclass
class SphereConfig:
    """Marked-point data for the genus-zero current algebra.

    ``q_points`` may contain INF.  Weight schedules are supported for one or
    two Q points: the degree at the Q points grows linearly with the slice
    index m, totalling m N + N - 1, so every divisor has degree
    N - 1 + k |Gamma|.

    ``gamma_frames`` optionally conjugates the grading at each gamma point by
    an exact group element (the grading type is fixed, its frame varies from
    point to point).  Generic frames are what make the expansion conditions
    transversal when several gamma points carry depth >= 2 conditions; with
    a common frame those conditions can be rank-deficient, which the slice
    builder reports through :class:`SliceDimensionError`.  Each frame g is
    stored once as integer multiples G = s g and Gi = si g^-1, and once as
    its adjoint matrix, whose column b holds the coordinates of g^-1 b_b g in
    the algebra basis.
    """

    dec: object
    p_points: tuple
    q_points: tuple
    gamma_points: tuple
    gamma_frames: tuple = None

    def __post_init__(self):
        if self.dec.alg.kind == "g2":
            raise NotImplementedError(
                "genus-zero slices are not supported for G2: the N dim g "
                "slice count is not established for its gradings"
            )
        pts = list(self.p_points) + list(self.q_points) + list(self.gamma_points)
        if len(set(pts)) != len(pts):
            raise ValueError("marked points must be pairwise distinct")
        if INF in self.gamma_points or INF in self.p_points:
            raise ValueError("infinity is supported as a Q point only")
        if len(self.q_points) not in (1, 2):
            raise ValueError("weight schedules implemented for 1 or 2 Q points")
        if self.gamma_frames is None:
            self.gamma_frames = tuple(Mat.identity(self.dec.alg.size) for _ in self.gamma_points)
        else:
            self.gamma_frames = tuple(self.gamma_frames)
            if len(self.gamma_frames) != len(self.gamma_points):
                raise ValueError("one frame per gamma point required")
        self._frames = tuple((*_int_matrix(g), *_int_matrix(mat_inverse(g))) for g in self.gamma_frames)
        alg = self.dec.alg
        adjoints = []
        for (G, s, Gi, si), pt in zip(self._frames, self.gamma_points):
            # conjugate by G and Gi, then divide the coordinates by s si
            cols = [alg.coordinates(Gi @ b @ G) for b in alg.basis]
            if None in cols:
                raise ValueError(f"the frame at gamma point {pt} does not preserve the algebra")
            adjoints.append(Mat([[Fraction(x, s * si) for x in row] for row in zip(*cols)]))
        self._adjoints = tuple(adjoints)
        # for the slice solver: A_0^-1 (None for the identity) and the
        # couplings C_i = A_i A_0^-1 of the gamma points framed unlike the
        # first, each as an integer multiple, since only their spans matter
        identity = Mat.identity(alg.dim)
        ref = adjoints[0] if adjoints else identity
        inv = _int_matrix(mat_inverse(ref))[0]
        self._ref_inv = None if ref == identity else inv.rows
        self._couplings = {i: (_int_matrix(a)[0] @ inv).rows
                           for i, a in enumerate(adjoints) if a != ref}

    def grading_element_at(self, gi):
        """The grading element in the global frame at the gi-th gamma."""
        G, s, Gi, si = self._frames[gi]
        return (G @ self.dec.h @ Gi).scale(Fraction(1, s * si))

    @property
    def n_points(self):
        return len(self.p_points)

    @property
    def alg(self):
        return self.dec.alg

    def q_degrees(self, m):
        """Divisor coefficients at the Q points for slice index m (the
        balanced-rounding schedule: with two Q points, each stays within a
        bounded distance of m n / 2, n the number of P points)."""
        n = self.n_points
        total = m * n + n - 1
        if len(self.q_points) == 1:
            return (total,)
        half = Fraction(m * n, 2)
        d1 = math.ceil(half)
        return (d1, total - d1)

    def l_value(self):
        """The filtration count (sum dim of negative filtrations + 1) |Gamma|
        divided by dim g; must be an integer for the second-member space
        dimension formula to close."""
        dec = self.dec
        s = sum(dec.dim_filtration(i) for i in range(-dec.depth, 0)) + 1
        val = Fraction(s * len(self.gamma_points), dec.alg.dim)
        if val.denominator != 1:
            raise ValueError(
                f"gamma count {len(self.gamma_points)} incompatible: "
                f"({s} * |Gamma|) / dim g = {val} is not an integer"
            )
        return int(val)


def divisor_for_degree(cfg, m):
    """Divisor of the homogeneous subspace of degree m: poles bounded by -m
    at P points, by the schedule at Q points, and by the depth at gammas."""
    d = {}
    for p in cfg.p_points:
        d[p] = -m
    for q, w in zip(cfg.q_points, cfg.q_degrees(m)):
        d[q] = w
    for g in cfg.gamma_points:
        d[g] = cfg.dec.depth
    return d


def _skeleton(divisor):
    """(zeros, poles, count) with the sections of the divisor spanned by
    zeros z^i / poles for i < count, where poles = prod (z - c)^w over the
    finite points with w > 0 and zeros the same product over w < 0."""
    zeros = poles = _poly([1])
    for c, w in divisor.items():
        if c is INF:
            continue
        c = Fraction(c)
        factor = _poly([-c.numerator, c.denominator], c.denominator)
        for _ in range(abs(w)):
            if w > 0:
                poles = poles * factor
            else:
                zeros = zeros * factor
    return zeros, poles, max(sum(divisor.values()) + 1, 0)


def _sections(divisor):
    """The section basis as one 1 x count matrix over the skeleton's
    denominator."""
    zeros, poles, count = _skeleton(divisor)
    return RationalMatrix.over([[_poly([0] * i + list(zeros.n), zeros.d) for i in range(count)]], poles)


def section_basis(divisor):
    """Exact basis of scalar rational functions f with (f) + D >= 0.

    At genus zero the space has dimension deg D + 1 (empty if deg D < 0):
    numerator monomials times the fixed zero/pole skeleton.
    """
    return list(_sections(divisor).rows[0])


@dataclass
class Slice:
    """Homogeneous subspace: exact basis of matrix rational functions."""

    degree: object
    basis: list
    divisor: dict

    @property
    def dim(self):
        return len(self.basis)


def _int_matrix(m):
    """(s m, s) for the least s > 0 that makes s m an integer matrix."""
    rows, s = _int_rows(m.rows)
    return Mat(rows), s


def _gamma_tails(cfg, sections, hi):
    """(t, d) at every gamma point: the sections' Laurent rows there are the
    integer rows t[p] over d, for -k <= p <= hi."""
    k = cfg.dec.depth
    out = []
    for g in cfg.gamma_points:
        rows, d = sections.laurent_numerators(Fraction(g), -k, hi)
        out.append(({p: r[0] for p, r in rows.items()}, d))
    return out


def _slice_kernel(cfg, sections):
    """(vectors, blocks, coupled) for the algebra-valued functions
    sum_{si,j} x[si dim + j] s_si b_j that meet the expansion conditions at
    every gamma point.

    At the i-th gamma the coordinates of the degree-p Laurent coefficient in
    its frame are t_{i,p} X A_i^T, for the count x dim matrix X of the x and
    the adjoint A_i of the frame; the coordinate j must vanish when
    deg j > p, for -k <= p < k.  In the coordinates Y = X A_0^T of the first
    gamma point's frame, every gamma point with A_i = A_0 asks column j of
    Y to lie in the scalar nullspace B_d of its rows t_{i,p}, p < min(d, k),
    d = deg j: Y[:, j] = B_d y_j.  Every other gamma point sees
    Y C_i^T, C_i = A_i A_0^-1, and gives one row over the block parameters y
    per (p, j2) with deg j2 > p.  The kernel of those rows maps back to
    X = Y A_0^-T.

    ``vectors`` is the basis that ``nullspace`` returns for the conditions
    over the x: each vector is 1 at its free column (its last nonzero one)
    and 0 at the others', in the order of the free columns.  ``blocks``
    maps each degree to dim B_d; ``coupled`` is (rank, parameter count) of
    the coupled rows, or None when every gamma point has the frame A_0.
    """
    degrees, dim, count = cfg.dec.degrees, cfg.alg.dim, sections.m
    k = cfg.dec.depth
    # only the span of each row matters, so each tail row is taken primitive
    tails = [{p: _primitive(r) for p, r in t.items()} for t, _ in _gamma_tails(cfg, sections, k - 1)]
    couplings = cfg._couplings
    separable = [t for i, t in enumerate(tails) if i not in couplings]
    blocks = {d: nullspace([t[p] for t in separable for p in range(-k, min(d, k)) if any(t[p])], count)
              for d in sorted(set(degrees))}
    dims = {d: len(b) for d, b in blocks.items()}
    if cfg._ref_inv is None and not couplings:
        keyed = []
        for j, d in enumerate(degrees):
            for v in blocks[d]:
                x = [0] * (count * dim)
                x[j::dim] = v
                keyed.append((max(si for si, c in enumerate(v) if c) * dim + j, x))
        keyed.sort(key=lambda e: e[0])
        return [x for _, x in keyed], dims, None
    blocks = {d: [_ints(v)[0] for v in b] for d, b in blocks.items()}
    nparams = sum(dims[d] for d in degrees)
    rows = []
    for i, c in couplings.items():
        t = tails[i]
        for p in range(-k, k):
            w = {d: [sum(map(mul, t[p], v)) for v in b] for d, b in blocks.items()}
            for j2, d2 in enumerate(degrees):
                if d2 > p:
                    row = [cj * wc for cj, d in zip(c[j2], degrees) for wc in w[d]]
                    if any(row):
                        rows.append(row)
    ys = nullspace(rows, nparams)
    back = cfg._ref_inv
    xs = []
    for y in ys:
        y = _ints(y)[0]
        cols, pos = [], 0
        for d in degrees:
            col = [0] * count
            for v in blocks[d]:
                if y[pos]:
                    col = [a + y[pos] * e for a, e in zip(col, v)]
                pos += 1
            cols.append(col)
        rows_y = zip(*cols)
        xs.append([x for row in rows_y for x in row] if back is None
                  else [sum(map(mul, row, r)) for row in rows_y for r in back])
    red, _ = rref([x[::-1] for x in xs])
    return [x[::-1] for x in red[::-1]], dims, (nparams - len(ys), nparams) if couplings else None


def _assemble(cfg, div, vectors):
    """The matrix functions sum_{si,bi} v[si dim + bi] s_si b_bi, one per
    coordinate vector v, for the section basis s of the divisor and the
    algebra basis b.

    The sections share one skeleton, s_si = zeros z^si / poles, so every
    matrix is one denominator, the product of the poles, over numerators
    zeros P(z).  Each vector is scaled to integers by one lcm; basis element
    bi contributes zeros P_bi(z), P_bi having its scaled coordinates as
    coefficients, to the entries where it is nonzero.  So zeros is
    multiplied once per basis element that the vector touches, in integers,
    and each entry is the integer combination of those products that the
    basis entries (``alg.entries``) give."""
    alg = cfg.alg
    dim, size = alg.dim, alg.size
    zeros, poles, _ = _skeleton(div)
    out = []
    for coords in vectors:
        ci, cd = _ints(coords)
        acc = [[None] * size for _ in range(size)]
        for bi, entries in enumerate(alg.entries):
            col = ci[bi::dim]
            if not any(col):
                continue
            prod = [0] * (len(col) + len(zeros.n) - 1)
            for i, x in enumerate(col):
                if x:
                    for j, y in enumerate(zeros.n):
                        prod[i + j] += x * y
            for u, v, e in entries:
                a = acc[u][v]
                acc[u][v] = [e * y for y in prod] if a is None else [x + e * y for x, y in zip(a, prod)]
        den = cd * zeros.d
        out.append(RationalMatrix.over([[_poly(a or [], den) for a in r] for r in acc], poles))
    return out


def build_homogeneous_subspace(cfg, m, check_dim=True):
    """Exact basis of the degree-m subspace; dimension must be N dim(g)."""
    div = divisor_for_degree(cfg, m)
    vectors, blocks, coupled = _slice_kernel(cfg, _sections(div))
    expected = cfg.n_points * cfg.alg.dim
    if check_dim and len(vectors) != expected:
        raise SliceDimensionError(expected, len(vectors), m, blocks, coupled)
    return Slice(m, _assemble(cfg, div, vectors), div)


def build_lax_space(cfg, pole_orders):
    """Space of algebra-valued functions with (L) + D + k Gamma >= 0 and the
    local expansion conditions; ``pole_orders`` maps points of Pi to their
    (nonnegative) allowed pole order."""
    div = dict(pole_orders)
    for g in cfg.gamma_points:
        div[g] = cfg.dec.depth
    return Slice(None, _assemble(cfg, div, _slice_kernel(cfg, _sections(div))[0]), div)


# ---------------------------------------------------------------------------
# almost-graded structure
# ---------------------------------------------------------------------------


class SliceWindow:
    """Slices over a contiguous degree range, with exact membership tests
    for the span of any sub-range (solvers cached per sub-range).

    The homogeneous subspaces defined by divisor bounds are not disjoint, so
    "the band of degrees hit by a commutator" is measured as the smallest
    window whose span contains it exactly.  The basis is evaluated at the
    samples on the first membership test, so reading ``slices`` makes no
    evaluation.
    """

    def __init__(self, cfg, lo, hi):
        self.cfg = cfg
        self.lo = lo
        self.hi = hi
        self.slices = {m: build_homogeneous_subspace(cfg, m) for m in range(lo, hi + 1)}
        self._solvers = {}

    @cached_property
    def _samples(self):
        # Sampling is an exact membership test: any discrepancy function lies
        # in a space of rational functions whose pole + zero budget is below
        # the sample count, so vanishing at all samples forces vanishing.
        finite = [p for p in (*self.cfg.p_points, *self.cfg.q_points, *self.cfg.gamma_points) if p is not INF]
        max_deg = max(
            sum(abs(w) for w in divisor_for_degree(self.cfg, m).values())
            for m in (self.lo, self.hi)
        )
        count = 3 * max_deg + 2 * self.cfg.dec.depth + 8
        pts = []
        x = Fraction(3, 7)
        while len(pts) < count:
            if x not in finite:
                pts.append(x)
            x = x + 1
        return pts

    @cached_property
    def _evals(self):
        return {m: [[b.eval(x) for x in self._samples] for b in sl.basis] for m, sl in self.slices.items()}

    @cached_property
    def _columns(self):
        return {m: [[a for ev in evs for a in ev.flatten()] for evs in e] for m, e in self._evals.items()}

    def _sample_vector(self, mat):
        out = []
        for x in self._samples:
            ev = mat.eval(x)
            out.extend(ev.flatten())
        return out

    def _solver(self, lo, hi):
        key = (lo, hi)
        if key not in self._solvers:
            cols = []
            for m in range(lo, hi + 1):
                cols.extend(self._columns[m])
            self._solvers[key] = ColumnSolver(cols)
        return self._solvers[key]

    def decompose_in(self, mat, lo, hi):
        """Exact coordinates over the union of slice bases for degrees in
        [lo, hi], as a dict degree -> {basis index: coefficient}, or None.

        The test runs on samples; it is exact by the degree argument."""
        coords = self._solver(lo, hi).solve(self._sample_vector(mat))
        if coords is None:
            return None
        out = {}
        pos = 0
        for m in range(lo, hi + 1):
            for j in range(self.slices[m].dim):
                c = coords[pos]
                pos += 1
                if c:
                    out.setdefault(m, {})[j] = c
        return out

    def minimal_band_of_bracket(self, m, i, n, j):
        """Smallest S for the commutator of basis elements (m, i) and (n, j),
        computed entirely in sample space (exact by the degree argument)."""
        vec = []
        for a, b in zip(self._evals[m][i], self._evals[n][j]):
            vec.extend(a.comm(b).flatten())
        if all(not c for c in vec):
            return 0
        start = m + n
        for hi in range(start, self.hi + 1):
            if self._solver(start, hi).solve(vec) is not None:
                return hi - start
        return None


def almost_graded_bound(window, pairs, rng=None, max_pairs_per_sum=None):
    """Measured upper width S of the commutator band.

    For each degree pair (m, n), commutators of slice basis elements are
    expanded over windows starting at m + n (the band never starts lower)
    and the smallest covering width is recorded; the maximum over all pairs
    is the measured S.  An expansion failure inside the available window is
    reported as an error.
    """
    s_max = 0
    for m, n in pairs:
        am, an = window.slices[m], window.slices[n]
        idx_pairs = [(i, j) for i in range(am.dim) for j in range(an.dim)]
        if rng is not None and max_pairs_per_sum is not None and len(idx_pairs) > max_pairs_per_sum:
            idx_pairs = [idx_pairs[rng.randrange(len(idx_pairs))] for _ in range(max_pairs_per_sum)]
        for i, j in idx_pairs:
            s = window.minimal_band_of_bracket(m, i, n, j)
            if s is None:
                raise ValueError(
                    f"commutator of degrees ({m},{n}) escapes the window [{window.lo},{window.hi}]"
                )
            s_max = max(s_max, s)
    return s_max


# ---------------------------------------------------------------------------
# central-extension cocycle
# ---------------------------------------------------------------------------


def standard_connection_form(cfg):
    """Diagonal connection form with expansion h/(z - gamma) + regular at
    every gamma and poles otherwise only at the first Q point (none needed
    when infinity is a Q point)."""
    z = RatFunc(Poly.x())
    out = RationalMatrix.zeros(cfg.alg.size)
    correction = None if INF in cfg.q_points else next(q for q in cfg.q_points if q is not INF)
    for gi, g in enumerate(cfg.gamma_points):
        scalar = 1 / (z - Fraction(g))
        if correction is not None:
            scalar = scalar - 1 / (z - Fraction(correction))
        out = out + RationalMatrix.from_scalar_matrix(cfg.grading_element_at(gi), scalar)
    return out


def connection_form_tail(cfg, omega, gamma_index):
    """Deviation of omega from h_gamma/(z-gamma) + regular at a gamma point:
    the returned dict of negative-degree coefficient matrices must be empty."""
    z = RatFunc(Poly.x())
    gamma = cfg.gamma_points[gamma_index]
    h_g = cfg.grading_element_at(gamma_index)
    rm = omega - RationalMatrix.from_scalar_matrix(h_g, 1 / (z - Fraction(gamma)))
    coeffs = rm.laurent_coefficients(Fraction(gamma), -cfg.dec.depth - 2, -1)
    return {p: c for p, c in coeffs.items() if not c.is_zero()}


def _pairing(l1, l2, omega):
    """(num, den), not reduced, with num / den = tr(L1 (dL2 - [omega, L2])).

    By the cyclicity of the trace that is tr(L1 dL2) + tr(omega [L1, L2]).
    With L_i = N_i / D_i, the first term is (tr(N1 N2') D2 - tr(N1 N2) D2')
    / (D1 D2^2): two trace dots over the entry pairs, with no derivative
    matrix and no matrix product.  The second term, over Dw D1 D2 for omega
    = W / Dw, reads the entry (j, i) of [N1, N2] only where W[i][j] is
    nonzero: one dot of 2n pairs each, then one dot with those W[i][j]."""
    n1, n2, d2 = l1.nums, l2.nums, l2.den
    num = (_trace_dot(n1, [[a.derivative() for a in r] for r in n2]) * d2
           - _trace_dot(n1, n2) * d2.derivative())
    den = l1.den * d2 * d2
    if omega is None:
        return num, den
    w, size = omega.nums, omega.n
    pairs = [(w[i][j], _dot(n1[j] + n2[j], [r[i] for r in n2] + [-r[i] for r in n1]))
             for i in range(size) for j in range(size) if w[i][j].n]
    wc = _dot([a for a, _ in pairs], [c for _, c in pairs])
    return num * omega.den + wc * d2, den * omega.den


def pairing_one_form(l1, l2, omega=None):
    """Scalar F with F dz = <L, (d - ad omega) L'> under the trace pairing,
    as a reduced ``RatFunc`` (from ``_pairing``'s quotient)."""
    return RatFunc(*_pairing(l1, l2, omega))


def check_connection_form(cfg, omega):
    """Reject a connection form whose expansion at some gamma point is not
    h_gamma/(z - gamma) + regular."""
    for gi in range(len(cfg.gamma_points)):
        tail = connection_form_tail(cfg, omega, gi)
        if tail:
            raise ValueError(
                f"connection form violates the required expansion at gamma point "
                f"{cfg.gamma_points[gi]}: nonzero degrees {sorted(tail)}"
            )


def cocycle_eta(cfg, l1, l2, omega):
    """Local 2-cocycle: sum of residues over the P points of the pairing
    one-form.  Exact rational output; ``check_connection_form`` checks the
    connection form's expansion at every gamma point.

    The residues are read off ``_pairing``'s unreduced quotient: a residue
    does not depend on common factors of numerator and denominator, so the
    one-form is never reduced (no gcd)."""
    num, den = _pairing(l1, l2, omega)
    return sum((_residue(num, den, p) for p in cfg.p_points), Fraction(0))


def cocycle_holomorphy_tail(cfg, l1, l2, omega, gamma):
    """Negative Laurent tail of the pairing one-form at a gamma point
    (expected empty for valid algebra elements)."""
    f = pairing_one_form(l1, l2, omega)
    tail = f.laurent_at(Fraction(gamma), -1)
    return {p: c for p, c in tail.items() if c}


# ---------------------------------------------------------------------------
# invariant gradients and the second Lax-pair member
# ---------------------------------------------------------------------------


def gradient_invariant(l, power, orthogonal_or_symplectic=False):
    """Gradient of the trace-power invariant: p L^(p-1).

    Odd powers are rejected for the orthogonal/symplectic families (their
    odd trace powers vanish identically, so only even ones are invariants).
    """
    if power < 1:
        raise ValueError("power must be >= 1")
    if orthogonal_or_symplectic and power % 2:
        raise ValueError("odd trace powers are not invariants of this family")
    if isinstance(l, RationalMatrix):
        return l.matpow(power - 1).scale(rat_const(power))
    out = Mat.identity(l.n)
    for _ in range(power - 1):
        out = out @ l
    return out.scale(power)


@dataclass
class MOperatorResult:
    matrix: object
    prenorm_dim: int
    expected_prenorm_dim: int
    pole_order: int
    l_value: int
    nu: dict


def construct_m_operator(cfg, l, power, pole_point, order, norm_points):
    """Unique second Lax-pair member attached to (trace power, point, order).

    The returned function has its only pole away from the gamma points at
    ``pole_point``, matches w^-order * gradient(L) there up to O(1), carries
    the allowed h/z singular terms at the gammas, and vanishes at the
    normalization points (l - g + 1 = l + 1 of them at genus zero).

    The unknowns are the count x dim matrix X of section-by-basis
    coefficients and one nu per gamma point.  The singular match and the
    normalization zeros are scalar conditions on the sections times the
    identity on the algebra coordinates, V X = C: V holds the sections'
    tails at the pole point and their values at the normalization points, C
    the coordinates of the singular targets.  Every gamma condition row is a
    Kronecker row t (x) A[j] plus its nu entry.  So [V | C] is reduced once
    over the sections, its pivot sections are substituted into each t in
    integers, with one common scale s (t' = s t_free - sum_i t[pivot_i] s R_i),
    and a small integer system in (X_free, nu) gives the rest.  The rank of
    all the conditions together is rank(V) dim plus the small system's rank;
    both errors report it, then the split between the two blocks.
    """
    dec = cfg.dec
    alg = cfg.alg
    k = dec.depth
    l_val = cfg.l_value()
    if len(norm_points) != l_val + 1:
        raise ValueError(f"need {l_val + 1} normalization points, got {len(norm_points)}")
    grad = gradient_invariant(l, power, alg.has_defining_form)
    pole_point = Fraction(pole_point)
    coeffs, dg = grad.laurent_numerators(pole_point, 0, order - 1)
    sing = {p - order: m for p, m in coeffs.items() if any(map(any, m))}
    d = -min(sing, default=0)
    div = {pole_point: d}
    for q in cfg.q_points:
        div.setdefault(q, 0)
    for p in cfg.p_points:
        div.setdefault(p, 0)
    for g in cfg.gamma_points:
        div[g] = k
    sections = _sections(div)
    dim, count, ngamma = alg.dim, sections.m, len(cfg.gamma_points)
    ncand = count * dim
    ncols = ncand + ngamma
    # expansion conditions at every gamma: for p < 0 the coordinates of the
    # degree-p coefficient in the gamma point's frame, t_p (x) A[j], vanish
    # when deg j > p, except that at p = -1 they may equal a free multiple
    # (one auxiliary unknown per gamma point) of h's coordinates; each row
    # is scaled to integers, with the tails t over st, and kept as
    # (t, A[j], gamma index, nu entry)
    hc = alg.coordinates(dec.h)
    conds = []
    for gi, ((tails, st), adj) in enumerate(zip(_gamma_tails(cfg, sections, -1), cfg._adjoints)):
        adj_rows = [_ints(r) for r in adj.rows]
        for p, t in tails.items():
            for j, deg in enumerate(dec.degrees):
                if deg > p:
                    aj, sa = adj_rows[j]
                    nu = -hc[j] * st * sa if p == -1 else 0
                    if nu or any(t) and any(aj):
                        conds.append((t, aj, gi, nu))
    rows = []
    for t, aj, gi, nu in conds:
        row = [c * e for c in t for e in aj] + [0] * ngamma
        row[ncand + gi] = nu
        rows.append(row)
    prenorm_dim = ncols - rank(rows)
    expected = dim * (d + l_val + 1)
    # section conditions [V | C]: the tails at the pole point, over dt, match
    # the singular part, over dg, so C holds dt times the coordinates of dg
    # times it; a target outside the algebra leaves the system inconsistent.
    # The sections are z^i over the poles (the divisor has no zeros), so at a
    # normalization point a / b their values are the Vandermonde row
    # a^i b^(count-1-i), scaled, and must vanish.
    tails, dt = sections.laurent_numerators(pole_point, -d, -1)
    outside = False
    vrows = []
    for i in range(1, d + 1):
        target = sing.get(-i)
        coords = [0] * dim if target is None else alg.coordinates(Mat(target))
        if coords is None:
            outside, coords = True, [0] * dim
        vrows.append([dg * x for x in tails[-i][0]] + [dt * x for x in coords])
    for pt in map(Fraction, norm_points):
        if not sections.den.eval(pt):
            raise ZeroDivisionError(f"pole at {pt}")
        a, b = pt.numerator, pt.denominator
        vrows.append([a ** i * b ** (count - 1 - i) for i in range(count)] + [0] * dim)
    red, pivots = rref(vrows, pivot_cols=count)
    rank_v = len(pivots)
    consistent = not outside and not any(map(any, red[rank_v:]))
    # pivot section i is c_i - R_i X_free, with s R_i and s c_i the integer
    # row red[i]: substituted into a condition row, s t (x) A[j] becomes
    # t' (x) A[j] over the free sections, with the constant sum t[pivot_i]
    # A[j] . s c_i taken to the right-hand side
    red, s = _int_rows(red[:rank_v])
    pivot_set = set(pivots)
    free = [c for c in range(count) if c not in pivot_set]
    nfree = len(free) * dim
    nsmall = nfree + ngamma
    small = []
    for t, aj, gi, nu in conds:
        tp = [s * t[f] for f in free]
        rhs = 0
        for ri, c in zip(red, pivots):
            if t[c]:
                tp = [x - t[c] * ri[f] for x, f in zip(tp, free)]
                rhs -= t[c] * sum(map(mul, aj, ri[count:]))
        row = [x * e for x in tp for e in aj] + [0] * ngamma + [rhs]
        row[nfree + gi] = s * nu
        small.append(row)
    sred, spivots = rref(small, pivot_cols=nsmall)
    rank_s = len(spivots)
    consistent = consistent and not any(map(any, sred[rank_s:]))
    rank_all = rank_v * dim + rank_s
    split = (f" (section conditions: rank {rank_v} of {count}; "
             f"gamma block: rank {rank_s} of {nsmall} unknowns)")
    if not consistent:
        raise ValueError(f"inconsistent constraint system: coefficient rank {rank_all} of {ncols}, "
                         f"so a {ncols - rank_all}-dimensional space of admissible M with no "
                         f"singular part vanishes at the normalization points{split}")
    if rank_all < ncols:
        raise ValueError(f"solution not unique: {ncols - rank_all} residual degrees of freedom{split}")
    # (X_free, nu) is y over sy; the pivot sections are (sy s c_i - s R_i
    # y_free) / (s sy)
    y, sy = _ints([row[nsmall] for row in sred])
    x = [0] * ncand
    for fi, f in enumerate(free):
        x[f * dim:(f + 1) * dim] = [Fraction(v, sy) for v in y[fi * dim:(fi + 1) * dim]]
    for ri, c in zip(red, pivots):
        for b in range(dim):
            num = sy * ri[count + b] - sum(ri[f] * y[fi * dim + b] for fi, f in enumerate(free))
            x[c * dim + b] = Fraction(num, s * sy)
    m_op = _assemble(cfg, div, [x])[0]
    nus = {g: sred[nfree + gi][nsmall] for gi, g in enumerate(cfg.gamma_points)}
    return MOperatorResult(m_op, prenorm_dim, expected, d, l_val, nus)


@dataclass
class TangencyReport:
    ok: bool
    gamma_residuals: dict
    divisor_violations: list
    nu: dict

    def __bool__(self):
        return self.ok


def _reference_laurent(cfg, gi, f, lo, hi):
    """(n, s): the Laurent coefficients of f at the gi-th gamma point for
    degrees lo..hi, in the reference frame (where the stored grading
    element is diagonal), are the integer matrices n[p] over s.

    With f's coefficients c_p = r_p / d over one denominator and the frame
    stored as G = sg g and Gi = si g^-1, g^-1 c_p g = (Gi r_p G) / (d sg si):
    two integer products per degree."""
    rows, d = f.laurent_numerators(Fraction(cfg.gamma_points[gi]), lo, hi)
    G, sg, Gi, si = cfg._frames[gi]
    return {p: Mat(_int_product(_int_product(Gi.rows, r), G.rows)) for p, r in rows.items()}, d * sg * si


def _pole_bounds(f, points):
    """Bounds on the pole order of f at each point: the valuation of its
    denominator at a finite point, its degree excess at INF."""
    out = {c: _valuation(f.den, c) for c in points if c is not INF}
    out[INF] = max(a.degree for r in f.nums for a in r) - f.den.degree
    return out


def lax_tangency_check(cfg, l, m_op, pole_orders):
    """Verify the Lax-equation tangency structure of [L, M] from the Laurent
    series of L and M.

    Every listed point c (a gamma point or a key of ``pole_orders``) bounds
    the poles of L and M there by the valuations v_L, v_M of their
    denominators at c, and INF by their degree excess.

    At every gamma point L and M are expanded once in the reference frame,
    L from degree -max(k, v_L) up to max(k, v_M) and M the other way round,
    so that ``formal.commutator`` of the two series gives [L, M] exactly
    through degree 0.  All of it runs in integers: L's coefficients are
    integer matrices over one scale s_L, M's over another, s_M, and the
    bracket is over s_L s_M.  With h's integer multiple H = hd h, nu (the
    h-component of M's residue) is hd M_{-1}[j0][j0] / (s_M H[j0][j0]).  The
    findings there, in this order:

    - "m-expansion": M less nu h/z leaves the filtration below degree 0
      (``formal.validate_mop``; only M's residue is rescaled, by H[j0][j0],
      to take nu h off it in integers);
    - "pole-order": the bracket has a pole of order above k + 1 (with the
      bracket's order);
    - "bottom": [L, M]_{-k-1} = k nu L_{-k}, the relation that moves the point
      with z_dot = -nu, fails; it is one comparison, H[j0][j0] times the
      bracket's coefficient against k hd M_{-1}[j0][j0] times L_{-k}, so no
      scale is folded into either series;
    - "coefficient" at p = -k..0: the relations there are the commutator of
      the series cut below degree -k (nu h/z stays in M_{-1}), and the bracket
      differs from it by the sum of [L_i, M_j] over i + j = p with i or j
      below -k.  So these comparisons run only where max(v_L, v_M) > k.

    Away from the gammas the divisor of [L, M] must be bounded by the pole
    budget of L (``pole_orders``; 0 at INF when unlisted), the nontrivial
    cancellation coming from the gradient structure of M at its private
    pole.  At a listed point where v_L + v_M exceeds the budget b, L and M
    are expanded there, through degrees v_M - b - 1 and v_L - b - 1, and
    every entry whose bracket has a coefficient below degree -b is reported
    with its pole order.  An entry has a pole off the list ("stray-pole",
    reported alone) iff the factor r of den(L) den(M) with no listed root
    does not divide its numerator in [L, M]; so the rational bracket is
    formed only when r is not constant.
    """
    dec = cfg.dec
    k = dec.depth
    H, hd = _int_matrix(dec.h)
    j0 = next(i for i in range(H.n) if H.rows[i][i])
    hj = H.rows[j0][j0]
    gammas = [Fraction(g) for g in cfg.gamma_points]
    finite = [p for p in pole_orders if p is not INF and p not in gammas]
    vl, vm = _pole_bounds(l, gammas + finite), _pole_bounds(m_op, gammas + finite)
    gamma_residuals = {}
    nus = {}
    for gidx, (g, gf) in enumerate(zip(cfg.gamma_points, gammas)):
        # L over -bl..bm and M over -bm..bl give [L, M] through degree 0
        bl, bm = max(k, vl[gf]), max(k, vm[gf])
        lc, _ = _reference_laurent(cfg, gidx, l, -bl, bm)
        mc, sm = _reference_laurent(cfg, gidx, m_op, -bm, bl)
        # nu = mc[-1][j0][j0] / (sm h[j0][j0]), so nu (sm hj) = hd mc[-1][j0][j0]
        mjj = mc[-1].rows[j0][j0]
        nus[g] = Fraction(hd * mjj, sm * hj)
        reg = {p: c for p, c in mc.items() if -k <= p < -1}
        reg[-1] = mc[-1].scale(hj) - H.scale(mjj)
        mop = MOpExpansion(nus[g], MatrixLaurent(dec, reg, -1))
        bad = [("m-expansion", p) for p in sorted({p for p, _ in validate_mop(mop)})]
        bracket = commutator(MatrixLaurent(dec, lc, bm), MatrixLaurent(dec, mc, bl))
        order = min(bracket.coeffs, default=0)
        if order < -k - 1:
            bad.append(("pole-order", order))
        # [L, M]_{-k-1} = k nu L_{-k}, both sides times s_L s_M hj
        if bracket.coefficient(-k - 1).scale(hj) != lc[-k].scale(k * hd * mjj):
            bad.append(("bottom", -k - 1))
        if max(vl[gf], vm[gf]) > k:
            cut = commutator(*(MatrixLaurent(dec, {p: c for p, c in f.items() if p >= -k}, k) for f in (lc, mc)))
            bad.extend(("coefficient", p) for p in range(-k, 1) if bracket.coefficient(p) != cut.coefficient(p))
        gamma_residuals[g] = bad
    away = finite + [INF]
    orders = {}  # (entry, point) -> pole order of [L, M] over the budget
    for pt in away:
        budget = max(pole_orders.get(pt, 0), 0)
        if vl[pt] + vm[pt] <= budget:
            continue
        series = [MatrixLaurent(dec, {p: Mat(r) for p, r in f.laurent_numerators(pt, -v, hi)[0].items()}, hi)
                  for f, v, hi in ((l, vl[pt], vm[pt] - budget - 1), (m_op, vm[pt], vl[pt] - budget - 1))]
        bracket = commutator(*series)
        for p in sorted(c for c in bracket.coeffs if c < -budget):
            for i, row in enumerate(bracket.coeffs[p].rows):
                for j, x in enumerate(row):
                    if x:
                        orders.setdefault(((i, j), pt), -p)
    stray = set()
    if sum(vl[c] + vm[c] for c in gammas + finite) < l.den.degree + m_op.den.degree:
        bracket = l.comm(m_op)
        r = bracket.den
        for c in gammas + finite:
            for _ in range(vl[c] + vm[c]):
                r = r // Poly([-c, 1])
        stray = {(i, j) for i, row in enumerate(bracket.nums) for j, a in enumerate(row) if (a % r).n}
    divisor_violations = []
    for ij in ((i, j) for i in range(l.n) for j in range(l.n)):
        if ij in stray:
            divisor_violations.append((ij, "stray-pole"))
        else:
            divisor_violations.extend((ij, pt, orders[ij, pt]) for pt in away if (ij, pt) in orders)
    ok = not divisor_violations and not any(gamma_residuals.values())
    return TangencyReport(ok, gamma_residuals, divisor_violations, nus)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def cocycle_table_json(cfg, window, omega):
    """Exact cocycle values on slice basis pairs, fractions as strings."""
    out = []
    for m in range(window.lo, window.hi + 1):
        for n in range(window.lo, window.hi + 1):
            for i, bi in enumerate(window.slices[m].basis):
                for j, bj in enumerate(window.slices[n].basis):
                    v = cocycle_eta(cfg, bi, bj, omega)
                    if v:
                        out.append({"m": m, "n": n, "i": i, "j": j, "eta": str(v)})
    return {"window": [window.lo, window.hi], "nonzero": out}


def slice_to_json(sl):
    """JSON-ready description with exact fraction strings."""

    def fstr(fr):
        return str(Fraction(fr))

    def rat(e):
        return {"num": [fstr(c) for c in e.num.coeffs], "den": [fstr(c) for c in e.den.coeffs]}

    return {
        "degree": sl.degree,
        "dim": sl.dim,
        "divisor": [["inf" if p is INF else fstr(p), int(w)] for p, w in sl.divisor.items()],
        "basis": [[[rat(e) for e in row] for row in b.rows] for b in sl.basis],
    }
