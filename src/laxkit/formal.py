"""Truncated matrix-valued Laurent series and local expansion conditions.

A Lax-type expansion at a marked point is a series sum L_p z^p, p >= -k,
whose coefficient at degree p below the depth lies in the level-p filtration
space of the grading.  The companion expansions of the second Lax-pair member
carry an extra nu*h/z singular term on top of the same filtration conditions
in negative degrees and are unconstrained in degrees >= 0.

All arithmetic is exact and truncation-aware: every result records the
highest degree whose coefficient is fully determined by the inputs, and
comparisons never look beyond it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact import Mat, mat_inverse

__all__ = [
    "MatrixLaurent",
    "MOpExpansion",
    "commutator",
    "validate_lax",
    "validate_mop",
    "eliminate_poles",
    "random_lax_expansion",
    "random_mop",
    "random_group_element",
    "conjugate_series",
    "predicted_bracket",
    "validate_tyurin_form",
    "TyurinReport",
]


class MatrixLaurent:
    """Finitely many exact matrix coefficients, reliable up to ``trunc``."""

    __slots__ = ("dec", "coeffs", "trunc")

    def __init__(self, dec, coeffs, trunc):
        self.dec = dec
        self.coeffs = {p: m for p, m in coeffs.items() if not m.is_zero() and p <= trunc}
        self.trunc = trunc

    @property
    def low(self):
        return min(self.coeffs, default=self.trunc)

    def coefficient(self, p):
        if p > self.trunc:
            raise ValueError(f"degree {p} beyond reliable truncation {self.trunc}")
        return self.coeffs.get(p, Mat.zeros(self.dec.alg.size))

    def degrees(self):
        return sorted(self.coeffs)

    def __add__(self, other):
        self._compat(other)
        t = min(self.trunc, other.trunc)
        out = dict(self.coeffs)
        for p, m in other.coeffs.items():
            out[p] = out[p] + m if p in out else m
        return MatrixLaurent(self.dec, out, t)

    def _compat(self, other):
        if self.dec is not other.dec:
            raise ValueError("series live over different graded decompositions")

    def is_zero(self):
        return not self.coeffs

    def __repr__(self):
        return f"MatrixLaurent(degrees={self.degrees()}, trunc={self.trunc})"


def commutator(a, b):
    """Coefficient-wise commutator, truncated to the reliable window.

    The result is exact up to min(T_a + low_b, T_b + low_a): any term beyond
    that would involve unknown coefficients of one factor.
    """
    a._compat(b)
    t = min(a.trunc + b.low, b.trunc + a.low)
    out = {}
    for p, ma in a.coeffs.items():
        for q, mb in b.coeffs.items():
            if p + q > t:
                continue
            c = ma.comm(mb)
            if c.is_zero():
                continue
            key = p + q
            out[key] = out[key] + c if key in out else c
    return MatrixLaurent(a.dec, out, t)


def _violations(dec, coeffs, hi):
    """(degree, level) pairs of the coefficients at degrees <= hi that leave
    their filtration space: level None below -depth, otherwise every level
    q > p at which the degree-p coefficient has a component."""
    k = dec.depth
    violations = []
    for p in sorted(coeffs):
        if p > hi:
            break
        m = coeffs[p]
        if p < -k:
            violations.append((p, None))
        elif dec.has_violation(m, p):
            violations.extend((p, q) for q in sorted(dec.subspaces)
                              if q > p and not dec.project(m, q).is_zero())
    return violations


def validate_lax(e):
    """Filtration violations of a series: list of (degree, graded level).

    Empty list means the coefficient at each degree p < depth lies in the
    level-p filtration space (degrees below -depth must vanish entirely).
    """
    return _violations(e.dec, e.coeffs, min(e.trunc, e.dec.depth - 1))


@dataclass
class MOpExpansion:
    """Second Lax-pair member: nu*h/z plus a series with filtration-bounded
    negative coefficients and free coefficients in degrees >= 0."""

    nu: object
    series: MatrixLaurent


def validate_mop(m):
    """Filtration violations of the regular part in negative degrees."""
    return _violations(m.series.dec, m.series.coeffs, -1)


# ---------------------------------------------------------------------------
# pole elimination by grade-wise conjugation
# ---------------------------------------------------------------------------


def eliminate_poles(e, inverse=False):
    """Grade-wise regrading realizing conjugation by exp(-h log z).

    The degree-s graded component of the coefficient at z^i moves to degree
    i - s (i + s with ``inverse``), so a valid Lax expansion comes out with
    no negative degrees.  No logarithm is evaluated: the operation is exact
    and branch-independent.
    """
    dec = e.dec
    k = dec.depth
    sgn = 1 if inverse else -1
    out = {}
    for i, m in e.coeffs.items():
        for s, comp in dec.graded_components(m).items():
            key = i + sgn * s
            out[key] = out[key] + comp if key in out else comp
    return MatrixLaurent(dec, out, e.trunc - k)


# ---------------------------------------------------------------------------
# random generators (seeded, integer coefficients)
# ---------------------------------------------------------------------------


def _random_combination(pool, rng, lo, hi, size):
    """sum c_b b over a pool given by the nonzero (i, j, v) entries of each
    element b, one c_b = rng.randint(lo, hi) per element in pool order;
    None when every c_b is zero."""
    rows = [[0] * size for _ in range(size)]
    nonzero = False
    for entries in pool:
        c = rng.randint(lo, hi)
        if c:
            nonzero = True
            for i, j, v in entries:
                rows[i][j] += c * v
    return Mat(rows) if nonzero else None


def random_lax_expansion(dec, rng, trunc=None, lo=-3, hi=3):
    """Random valid expansion: coefficient at degree p drawn from the
    level-p filtration space with integer coordinates.

    One ``rng.randint(lo, hi)`` per basis element of each level, in the
    order of ``dec.basis_of_filtration(p)``; the combination is formed on
    the nonzero entries of those elements only."""
    k = dec.depth
    t = k if trunc is None else trunc
    size = dec.alg.size
    coeffs = {}
    for p in range(-k, t + 1):
        acc = _random_combination(dec.filtration_entries(p), rng, lo, hi, size)
        if acc is not None and not acc.is_zero():
            coeffs[p] = acc
    return MatrixLaurent(dec, coeffs, t)


def random_mop(dec, rng, trunc=None, lo=-3, hi=3):
    """Random second Lax-pair member: filtration-bounded coefficients in
    negative degrees, combinations of the whole basis (in ``alg.basis``
    order) in degrees >= 0, then nu = rng.randint(lo, hi)."""
    k = dec.depth
    t = k if trunc is None else trunc
    size = dec.alg.size
    coeffs = {}
    for p in range(-k, t + 1):
        pool = dec.filtration_entries(p) if p < 0 else dec.alg.entries
        acc = _random_combination(pool, rng, lo, hi, size)
        if acc is not None and not acc.is_zero():
            coeffs[p] = acc
    return MOpExpansion(Fraction(rng.randint(lo, hi)), MatrixLaurent(dec, coeffs, t))


def random_group_element(alg, rng):
    """Random element of the connected group preserving the realization.

    For the orthogonal and symplectic families this is a Cayley transform
    (I - X)(I + X)^{-1} of a random algebra element, which preserves the
    bilinear form exactly over the rationals.  For gl it is a product of
    eight elementary unipotents, and for G2 a product of four exponentials
    of nilpotent root vectors (finite sums, hence exact group elements).
    Every random coefficient is a multiple of 1/3.
    """
    n = alg.size
    if alg.kind in ("so_even", "so_odd", "sp"):
        for _ in range(20):
            x = Mat.zeros(n)
            for b in alg.basis:
                c = rng.randint(-2, 2)
                if c:
                    x = x + b.scale(Fraction(c, 3))
            try:
                g = (Mat.identity(n) - x) @ mat_inverse(Mat.identity(n) + x)
                return g
            except ValueError:
                continue
        raise RuntimeError("could not draw an invertible Cayley transform")
    if alg.kind in ("gl", "sl"):
        # alternate lower and upper elementary factors with nonzero entries
        # so the product is never triangular
        g = Mat.identity(n)
        for s in range(8):
            i = rng.randrange(n)
            j = rng.randrange(n - 1)
            j = j if j < i else j + 1
            if (s % 2 == 0) != (i < j):
                i, j = j, i
            c = Fraction(rng.choice((-2, -1, 1, 2)), 3)
            g = g @ (Mat.identity(n) + Mat.unit(n, i, j, c))
        return g
    if alg.kind == "g2":
        roots = [b for b, lab in zip(alg.basis, alg.labels) if any(lab)]
        g = Mat.identity(n)
        for _ in range(4):
            b = roots[rng.randrange(len(roots))]
            g = g @ _exp_nilpotent(b, Fraction(rng.randint(-2, 2), 3))
        return g
    raise ValueError(alg.kind)


def _exp_nilpotent(b, t):
    n = b.n
    acc = Mat.identity(n)
    term = Mat.identity(n)
    k = 1
    while True:
        term = (term @ b).scale(Fraction(t, k))
        if term.is_zero():
            return acc
        acc = acc + term
        k += 1
        if k > n + 2:
            raise ValueError("element is not nilpotent")


def conjugate_series(e, g):
    """Coefficient-wise conjugation g . coeff . g^{-1}."""
    ginv = mat_inverse(g)
    return MatrixLaurent(e.dec, {p: g @ m @ ginv for p, m in e.coeffs.items()}, e.trunc)


# ---------------------------------------------------------------------------
# point-motion relations at a marked point
# ---------------------------------------------------------------------------
#
# The Lax equation Ldot = [L, M] on a Lax operator algebra moves the marked
# point with z_dot = -nu and fixes the coefficients of Ldot there:
#
#     Ldot_p = sum_{i+j=p} [L_i, M_j] + nu ((p+1) L_{p+1} - [h, L_{p+1}])
#
# for p = -depth..0, M_j being the regular part of M.  The coefficient of
# [L, M] at degree p is then Ldot_p + (p+1) z_dot L_{p+1}, in which the
# (p+1) L_{p+1} terms cancel.  ``predicted_bracket`` is the one statement of
# these relations; ``sphere.lax_tangency_check`` reads them from here at every
# gamma point, for any depth.


def predicted_bracket(lax, mop):
    """Coefficients of [L, M] at degrees -depth-1..0 that the point-motion
    relations predict: sum_{i+j=p} [L_i, M_j] - nu [h, L_{p+1}] for
    p = -depth..0, and depth nu L_{-depth} at the bottom degree -depth-1.

    Reads L and the regular part of M up to degree depth."""
    dec = lax.dec
    k = dec.depth
    nu = mop.nu
    coeffs = {-k - 1: lax.coefficient(-k).scale(k * nu)}
    for p in range(-k, 1):
        acc = Mat.zeros(dec.alg.size)
        for i in range(-k, p + k + 1):
            li = lax.coeffs.get(i)
            mj = mop.series.coeffs.get(p - i)
            if li is not None and mj is not None:
                acc = acc + li.comm(mj)
        if nu:
            acc = acc - dec.h.comm(lax.coefficient(p + 1)).scale(nu)
        coeffs[p] = acc
    return MatrixLaurent(dec, coeffs, 0)


# ---------------------------------------------------------------------------
# Tyurin-form validation
# ---------------------------------------------------------------------------


@dataclass
class TyurinReport:
    ok: bool
    family: str
    violations: list
    kappa: object = None
    beta: object = None
    extras: dict = None

    def __bool__(self):
        return self.ok


def _col(mat, j):
    return [mat.rows[i][j] for i in range(mat.n)]


def _mat_vec(m, v):
    return [sum(a * b for a, b in zip(row, v)) for row in m.rows]


def _vec_dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _outer(u, v):
    return Mat([[a * b for b in v] for a in u])


def _extract_kappa(l0, alpha):
    """Solve the one-dimensional eigen-relation L0 alpha = kappa alpha by
    exact least squares, then confirm it exactly."""
    w = _mat_vec(l0, alpha)
    den = _vec_dot(alpha, alpha)
    kappa = Fraction(_vec_dot(w, alpha), den)
    ok = all(x == kappa * a for x, a in zip(w, alpha))
    return kappa, ok


def _solve_sym_rank2(w, alpha):
    """beta with w = alpha beta^t + beta alpha^t, or None."""
    n = len(alpha)
    j0 = next((j for j, a in enumerate(alpha) if a), None)
    if j0 is None:
        return None
    a0 = alpha[j0]
    # row j0 of w: alpha_{j0} beta + beta_{j0} alpha; fix beta_{j0} from the
    # diagonal entry w[j0][j0] = 2 alpha_{j0} beta_{j0}
    bj0 = Fraction(w.rows[j0][j0], 2 * a0)
    beta = [Fraction(w.rows[j0][j] - bj0 * alpha[j], a0) for j in range(n)]
    return beta if (_outer(alpha, beta) + _outer(beta, alpha)) == w else None


def _solve_skew_rank2(w, alpha):
    """beta (mod alpha) with w = alpha beta^t - beta alpha^t, or None."""
    n = len(alpha)
    j0 = next((j for j, a in enumerate(alpha) if a), None)
    if j0 is None:
        return None
    a0 = alpha[j0]
    # row j0: alpha_{j0} beta^t - beta_{j0} alpha^t; pick the representative
    # of beta mod alpha with beta_{j0} = 0
    beta = [Fraction(w.rows[j0][j], a0) for j in range(n)]
    beta[j0] = 0
    return beta if (_outer(alpha, beta) - _outer(beta, alpha)) == w else None


def validate_tyurin_form(alg, dec, e, g=None):
    """Check the residue-parametrization of a Lax expansion.

    ``e`` is an expansion obtained from the catalog grading (depth-1 gl/so,
    depth-2 sp by the first simple root, depth-2 G2 by the short simple root)
    possibly conjugated by a constant group element ``g``; alpha is then the
    image of the first coordinate vector under ``g``.  The report records the
    family-specific rank/orthogonality/eigenvector conditions.
    """
    kind = alg.kind
    n = alg.size
    if g is None:
        g = Mat.identity(n)
    if kind == "g2":
        if dec.depth != 2:
            raise ValueError("no catalogued residue form for the depth-3 G2 grading")
        if not (g - Mat.identity(n)).is_zero():
            raise ValueError("G2 residue form is validated in the standard frame only")
        return _tyurin_g2(alg, e)
    alpha = _col(g, 0)
    violations = []
    extras = {}
    if kind in ("gl", "sl"):
        lm1 = e.coefficient(-1)
        # L_{-1} = alpha beta^t with beta^t alpha = 0
        j0 = next(j for j, a in enumerate(alpha) if a)
        beta = [Fraction(lm1.rows[j0][j], alpha[j0]) for j in range(n)]
        if _outer(alpha, beta) != lm1:
            violations.append("residue is not alpha beta^t")
        if _vec_dot(beta, alpha) != 0:
            violations.append("beta^t alpha != 0")
        if not (lm1 @ lm1).is_zero():
            violations.append("residue does not square to zero")
    elif kind in ("so_even", "so_odd", "sp"):
        symplectic = kind == "sp"
        if symplectic and dec.depth != 2:
            raise ValueError("symplectic residue form is catalogued for the depth-2 grading")
        sig_alpha = _mat_vec(alg.sigma, alpha)
        siginv = mat_inverse(alg.sigma)
        if not symplectic and _vec_dot(alpha, sig_alpha) != 0:
            violations.append("alpha^t sigma alpha != 0")
        if symplectic:
            # L_{-2} = nu alpha alpha^t sigma
            w2 = e.coefficient(-2) @ siginv
            j0 = next(j for j, a in enumerate(alpha) if a)
            nu = Fraction(w2.rows[j0][j0], alpha[j0] * alpha[j0])
            if _outer(alpha, alpha).scale(nu) != w2:
                violations.append("second-order residue is not nu alpha alpha^t sigma")
            extras["nu"] = nu
        # L_{-1} = (alpha beta^t - beta alpha^t) sigma for so, with + for sp
        w = e.coefficient(-1) @ siginv
        shape, sign = ("symmetric", "+") if symplectic else ("skew", "-")
        if not (w - w.T if symplectic else w + w.T).is_zero():
            violations.append(f"L_{{-1}} sigma^{{-1}} is not {shape}")
            beta = None
        else:
            beta = (_solve_sym_rank2 if symplectic else _solve_skew_rank2)(w, alpha)
            if beta is None:
                violations.append(f"residue is not (alpha beta^t {sign} beta alpha^t) sigma")
            elif _vec_dot(beta, sig_alpha) != 0:
                violations.append("beta^t sigma alpha != 0")
    else:
        raise ValueError(f"no catalogued residue form for kind {kind!r}")
    kappa, ok = _extract_kappa(e.coefficient(0), alpha)
    if not ok:
        violations.append("alpha is not an eigenvector of L_0")
    if kind == "sp" and e.trunc >= 1 and _vec_dot(sig_alpha, _mat_vec(e.coefficient(1), alpha)):
        violations.append("alpha^t sigma L_1 alpha != 0")
    return TyurinReport(not violations, kind, violations, kappa=kappa, beta=beta, extras=extras)


def _tyurin_g2(alg, e):
    """Block-shape conditions for the depth-2 grading of G2.

    In the standard frame the second-order residue is supported on the two
    highest-root entries, the first-order residue is parametrized by
    (beta01, beta02, beta_1, beta_2) with the stated orthogonality relations,
    and the degree-0 coefficient satisfies the eigenvector relations for the
    two invariant directions.
    """
    violations = []
    extras = {}
    lm2 = e.coefficient(-2)
    mu = lm2.rows[2][3]
    pattern_ok = all(
        lm2.rows[i][j] == (mu if (i, j) == (2, 3) else (-mu if (i, j) == (6, 5) else 0))
        for i in range(7)
        for j in range(7)
    )
    if not pattern_ok:
        violations.append("second-order residue is outside the highest-root line")
    extras["mu"] = mu
    lm1 = e.coefficient(-1)
    a_blk = [[lm1.rows[1 + i][1 + j] for j in range(3)] for i in range(3)]
    a1 = [lm1.rows[1 + i][0] for i in range(3)]
    a2 = [lm1.rows[4 + i][0] for i in range(3)]
    # a1 parallel to (0,1,0), a2 parallel to (0,0,1)
    if a1[0] != 0 or a1[2] != 0:
        violations.append("first-order a1-block is not parallel to the invariant direction")
    if a2[0] != 0 or a2[1] != 0:
        violations.append("first-order a2-block is not parallel to the invariant direction")
    # A block supported on rows/cols allowed by the filtration: row 2 = beta2^t
    # with vanishing middle entry (1, 1), i.e. alpha1^t beta2 = 0, and column
    # 3 = -beta1 with vanishing last entry (2, 2), i.e. alpha2^t beta1 = 0
    beta2 = [a_blk[1][0], a_blk[1][1], a_blk[1][2]]
    beta1 = [-a_blk[0][2], -a_blk[1][2], -a_blk[2][2]]
    for (i, j) in [(0, 0), (0, 1), (1, 1), (2, 0), (2, 1), (2, 2)]:
        if a_blk[i][j] != 0:
            violations.append(f"first-order A-block entry {(i, j)} outside the residue shape")
    l0 = e.coefficient(0)
    a0 = [[l0.rows[1 + i][1 + j] for j in range(3)] for i in range(3)]
    a1_0 = [l0.rows[1 + i][0] for i in range(3)]
    a2_0 = [l0.rows[4 + i][0] for i in range(3)]
    if a2_0[1] != 0:
        violations.append("eigen relation alpha1^t a2 = 0 fails")
    if a1_0[2] != 0:
        violations.append("eigen relation alpha2^t a1 = 0 fails")
    # A alpha1 = kappa1 alpha1 with alpha1 = e_2: column 1 of A
    if a0[0][1] != 0 or a0[2][1] != 0:
        violations.append("alpha1 is not an eigenvector of the A-block")
    kappa1 = a0[1][1]
    # -A^T alpha2 = kappa2 alpha2 with alpha2 = e_3: row 3 of A
    if a0[2][0] != 0 or a0[2][1] != 0:
        violations.append("alpha2 is not an eigenvector of the transposed A-block")
    kappa2 = -a0[2][2]
    extras["kappa"] = (kappa1, kappa2)
    extras["beta"] = (beta1, beta2)
    return TyurinReport(not violations, "g2", violations, kappa=(kappa1, kappa2), beta=(beta1, beta2), extras=extras)
