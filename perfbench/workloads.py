"""Seeded inputs, unit operations and per-op checks of the four workloads.

A workload is built from a seed alone.  ``build`` generates every input up
front (that is the set-up the benchmark times) and returns a ``Workload``
whose ``round_ops(r)`` lists the operations of round ``r``.  Rounds have a
fixed composition, so a run made of whole rounds has the same mix of cheap
and expensive operations whatever its length.  Each op carries a label that
names its input; ``check`` returns None when the op's result meets the
acceptance tolerance and a short reason otherwise.

The library is reached only through module attributes (``formal.commutator``
rather than a name imported from it), so the traced run can wrap every
function from outside.
"""

from __future__ import annotations

import hashlib
import random
from collections import namedtuple
from fractions import Fraction

import numpy as np

from laxkit import calogero, exact, formal, liealg, sphere
from laxkit.ratfunc import INF, rat_const

Op = namedtuple("Op", "label run check")
Workload = namedtuple("Workload", "name round_ops inputs_sha256 known_reds")

# Acceptance tolerances, as pinned by tests/test_acceptance.py.
H_DRIFT_TOL = 1e-8          # criterion 8
SPEC_DRIFT_TOL = 1e-6       # criterion 8
RESIDUE_REL_TOL = 1e-9      # criterion 10

# cm-dynamics: criterion-8 integrator settings over a shorter horizon.  At
# T = 0.1 the B/C (n = 2, 3) and D (n = 3) spectral drifts already sit at
# 4e-5 .. 1e-3, well above the 1e-6 tolerance, so the known reds still show.
DYN_T = 0.1
DYN_DT = 1e-3

CM_SYSTEMS = tuple((fam, n) for fam in "ABCD" for n in (2, 3))
# (system label, failure reason) pairs that are red at the parent commit
# for a documented reason: the printed B/C/D Lax matrices violate their own
# expansion conditions, so the flow is not isospectral (criterion 8).
CM_KNOWN_REDS = frozenset(
    (label, "isospectrality") for label in ("B2", "B3", "C2", "C3", "D3")
)

CLOSURE_PAIRS = 64          # seeded expansion pairs per grading
CM_STATES = 4               # seeded initial states per CM system
SLICE_VARIANTS = 3          # configurations per (algebra, N) shape
HEAVY_CONFIGS = 12          # framed depth-2 sp(4) configurations
TRIPLES = 48                # cocycle-identity triples
TRIPLES_PER_ROUND = 12
MOP_CONFIGS = 3             # framed gl(2) configurations for the second member
MOP_SAMPLES = 6             # Lax elements, spread over the configurations
MOPS_PER_ROUND = 4


def _digest(parts):
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else repr(p).encode())
        h.update(b"\0")
    return h.hexdigest()


def _series_key(e):
    return (e.trunc, sorted((p, m.rows) for p, m in e.coeffs.items()))


# ---------------------------------------------------------------------------
# exact-closure: exact, liealg and formal only
# ---------------------------------------------------------------------------


def _closure_run(a, b):
    return formal.validate_lax(formal.commutator(a, b))


def _closure_check(violations):
    return f"violations {violations[:3]}" if violations else None


def _exact_closure(seed):
    rng = random.Random(seed)
    gradings = []
    for kind, rank, root in liealg.acceptance_catalog():
        _, dec = liealg.catalog_grading(kind, rank, root)
        pairs = [(formal.random_lax_expansion(dec, rng), formal.random_lax_expansion(dec, rng))
                 for _ in range(CLOSURE_PAIRS)]
        gradings.append((f"{kind}{rank}/root{root}", pairs))

    def round_ops(r):
        i = r % CLOSURE_PAIRS
        return [Op(f"{label}#{i}", (lambda a=pairs[i][0], b=pairs[i][1]: _closure_run(a, b)),
                   _closure_check)
                for label, pairs in gradings]

    digest = _digest((label, _series_key(a), _series_key(b))
                     for label, pairs in gradings for a, b in pairs)
    return Workload("exact-closure", round_ops, digest, frozenset())


# ---------------------------------------------------------------------------
# sphere-slices: ratfunc assembly and exact nullspaces
# ---------------------------------------------------------------------------


def _point(rng):
    return Fraction(rng.randint(-40, 40), rng.randint(1, 7))


def _frames_transversal(dec, frames):
    """Whether the filtrations g F_p g^-1 that the frames put at their gamma
    points are in general position pairwise: every intersection of a level-p
    space at one point with a level-q space at another has the smallest
    dimension possible, max(0, dim F_p + dim F_q - dim g).

    The slice dimension N dim g holds for framed configurations in general
    position; frames in special relative position make the expansion
    conditions dependent, and the slice builder then raises
    SliceDimensionError, as it should."""
    dim = dec.alg.dim
    levels = range(-dec.depth, dec.depth)

    def spaces(g):
        gi = exact.mat_inverse(g)
        conj = [[x for row in (g @ b @ gi).rows for x in row] for b in dec.alg.basis]
        return [[v for v, d in zip(conj, dec.degrees) if d <= p] for p in levels]

    flags = [spaces(g) for g in frames]
    for i, fi in enumerate(flags):
        for fj in flags[i + 1:]:
            for a in fi:
                for b in fj:
                    meet = len(a) + len(b) - exact.rank(a + b)
                    if meet != max(0, len(a) + len(b) - dim):
                        return False
    return True


def _sphere_config(rng, alg, dec, n_p):
    """A configuration shaped like the dims suite: N distinct P points, Q at
    infinity, and N gamma points (depth 1) or, at depth 2, two framed gamma
    points for N = 1 and one unframed gamma point for N = 2.  Frames are
    redrawn until they are in general position (``_frames_transversal``)."""
    for _ in range(100):
        p_points = tuple(sorted({_point(rng) for _ in range(n_p)}))
        framed = dec.depth > 1 and n_p == 1
        k_g = 2 if framed else (n_p if dec.depth == 1 else 1)
        gammas = tuple(sorted({_point(rng) for _ in range(k_g)}))
        if len(p_points) < n_p or len(gammas) < k_g or set(p_points) & set(gammas):
            continue
        frames = tuple(formal.random_group_element(alg, rng) for _ in gammas) if framed else None
        if framed and not _frames_transversal(dec, frames):
            continue
        return sphere.SphereConfig(dec, p_points, (INF,), gammas, frames)
    raise RuntimeError("could not draw a configuration in general position")


def _config_key(cfg):
    return (cfg.p_points, cfg.q_points, cfg.gamma_points, [g.rows for g in cfg.gamma_frames])


def _rmat_key(m):
    return [[(e.num.coeffs, e.den.coeffs) for e in row] for row in m.rows]


def _random_member(rng, basis):
    out = basis[0].scale(rat_const(0))
    for b in basis:
        c = rng.randint(-2, 2)
        if c:
            out = out + b.scale(rat_const(c))
    return out


def _slice_op(label, cfg, m):
    expected = cfg.n_points * cfg.alg.dim

    def check(sl):
        return None if sl.dim == expected else f"dim {sl.dim} != {expected}"

    return Op(label, lambda: sphere.build_homogeneous_subspace(cfg, m), check)


def _sphere_slices(seed):
    rng = random.Random(seed)
    shapes = [("gl", 1), ("gl", 2), ("sl", 1), ("sl", 2), ("so_even", 1), ("so_even", 2), ("sp", 2)]
    cheap = []
    for kind, n_p in shapes:
        alg, dec = liealg.catalog_grading(kind, 2, 1)
        cheap.append((f"{kind}2/N{n_p}",
                      [_sphere_config(rng, alg, dec, n_p) for _ in range(SLICE_VARIANTS)]))
    alg, dec = liealg.catalog_grading("sp", 2, 1)
    heavy = [_sphere_config(rng, alg, dec, 1) for _ in range(HEAVY_CONFIGS)]

    # cocycle identity on the criterion-3 configuration.  The slice degrees
    # of each triple's members follow a fixed pattern and only the
    # coefficients are seeded, so the triples cost about the same for every
    # seed and the median op latency, which falls among them, stays put.
    _, dec = liealg.catalog_grading("gl", 2, 1)
    ccfg = sphere.SphereConfig(dec, (Fraction(0),), (INF,), (Fraction(3),))
    window = sphere.SliceWindow(ccfg, -2, 2)
    omega = sphere.standard_connection_form(ccfg)
    triples = [tuple(_random_member(rng, window.slices[m].basis)
                     for m in (i % 5 - 2, (i // 5) % 5 - 2, (i + i // 5) % 5 - 2))
               for i in range(TRIPLES)]

    # second Lax-pair member on criterion-5 configurations, seeded frames
    alg, dec = liealg.catalog_grading("gl", 2, 1)
    pole_orders = {Fraction(0): 0, INF: 1, Fraction(9): 1}
    mops = []
    for _ in range(MOP_CONFIGS):
        frames = None
        while frames is None or not _frames_transversal(dec, frames):
            frames = (formal.random_group_element(alg, rng), formal.random_group_element(alg, rng))
        mcfg = sphere.SphereConfig(dec, (Fraction(0),), (INF, Fraction(9)),
                                   (Fraction(3), Fraction(5)), frames)
        space = sphere.build_lax_space(mcfg, pole_orders)
        mops.append((mcfg, [_random_member(rng, space.basis)
                            for _ in range(MOP_SAMPLES // MOP_CONFIGS)]))

    def triple_op(i):
        f1, f2, f3 = triples[i]

        def run():
            return (sphere.cocycle_eta(ccfg, f1.comm(f2), f3, omega)
                    + sphere.cocycle_eta(ccfg, f2.comm(f3), f1, omega)
                    + sphere.cocycle_eta(ccfg, f3.comm(f1), f2, omega))

        return Op(f"cocycle#{i}", run, lambda s: None if s == 0 else f"cyclic sum {s}")

    def mop_op(i):
        c, j = i % MOP_CONFIGS, i // MOP_CONFIGS
        mcfg, lax = mops[c][0], mops[c][1][j]

        def run():
            res = sphere.construct_m_operator(mcfg, lax, power=2, pole_point=Fraction(0), order=2,
                                              norm_points=(Fraction(7), Fraction(11)))
            return res, sphere.lax_tangency_check(mcfg, lax, res.matrix, pole_orders)

        def check(out):
            res, rep = out
            if res.prenorm_dim != res.expected_prenorm_dim:
                return f"prenorm dim {res.prenorm_dim} != {res.expected_prenorm_dim}"
            return None if rep.ok else "tangency"

        return Op(f"mop/cfg{c}#{j}", run, check)

    # Per round: 8 slices cheaper than a triple (gl2 and sl2 at N = 1, four
    # of each), 12 triples, 5 dearer slices, 4 m-operators and 1 framed
    # sp(4) slice.  The median op then falls mid-way through the triples and
    # the 90th percentile mid-way through the m-operators.
    repeats = {"gl2/N1": 4, "sl2/N1": 4}

    def round_ops(r):
        ops = []
        for t, (label, cfgs) in enumerate(cheap):
            for k in range(repeats.get(label, 1)):
                v, m = (r + k) % SLICE_VARIANTS, (r + t + k) % 5 - 2
                ops.append(_slice_op(f"slice/{label}#{v}/m{m}", cfgs[v], m))
        h, m = r % HEAVY_CONFIGS, r % 5 - 2
        ops.append(_slice_op(f"slice/sp2/N1/framed#{h}/m{m}", heavy[h], m))
        ops += [triple_op((r * TRIPLES_PER_ROUND + j) % TRIPLES) for j in range(TRIPLES_PER_ROUND)]
        ops += [mop_op((r * MOPS_PER_ROUND + j) % MOP_SAMPLES) for j in range(MOPS_PER_ROUND)]
        return ops

    digest = _digest(
        [_config_key(c) for _, cfgs in cheap for c in cfgs]
        + [_config_key(c) for c in heavy]
        + [[_rmat_key(f) for f in t] for t in triples]
        + [[_config_key(mcfg)] + [_rmat_key(lax) for lax in laxes] for mcfg, laxes in mops]
    )
    return Workload("sphere-slices", round_ops, digest, frozenset())


# ---------------------------------------------------------------------------
# cm-dynamics and cm-residue: elliptic and calogero
# ---------------------------------------------------------------------------


def _cm_inputs(seed):
    rng = np.random.default_rng(seed)
    inputs = {f"{fam}{n}": [calogero.conservation_initial_data(fam, n, rng) for _ in range(CM_STATES)]
              for fam, n in CM_SYSTEMS}
    digest = _digest((label, s.family, s.n, s.lattice.omega1, s.lattice.omega2, s.q0,
                      st.q.tobytes(), st.p.tobytes())
                     for label, states in inputs.items() for s, st in states)
    return inputs, digest


def _cm_round(r):
    """(system label, state index) pairs of round r.

    The A, D and B/C families form three cost classes of four systems when A
    and D run twice per round (on two different states).  The median op then
    falls in the middle of the D class and the 90th percentile inside the
    B/C class, rather than on the border between two classes."""
    out = [(f"{fam}{n}", r % CM_STATES) for fam, n in CM_SYSTEMS]
    out += [(label, (r + 2) % CM_STATES) for label in ("A2", "A3", "D2", "D3")]
    return out


def _z_samples(sys_):
    w = abs(sys_.lattice.omega1)
    return [complex(0.31 * w, 0.21 * w), complex(0.11 * w, 0.36 * w), complex(0.42 * w, 0.13 * w)]


def _dyn_check(report):
    if not report["max_H_drift"] < H_DRIFT_TOL:
        return "H drift"
    if not report["max_spec_drift"] < SPEC_DRIFT_TOL:
        return "isospectrality"
    return None


def _dyn_op(label, sys_, st):
    def run():
        return calogero.run_conservation(sys_, st, DYN_T, DYN_DT, scheme="rk4",
                                         z_samples=_z_samples(sys_))[1]

    return Op(label, run, _dyn_check)


def _residue_op(label, sys_, st):
    def check(h_res):
        h = calogero.hamiltonian(sys_, st)
        rel = abs(h - h_res) / max(1.0, abs(h))
        return None if rel < RESIDUE_REL_TOL else f"relative error {rel:.1e}"

    return Op(label, lambda: calogero.hamiltonian_from_residue(sys_, st), check)


def _cm_workload(name, make_op, known_reds):
    def build(seed):
        inputs, digest = _cm_inputs(seed)

        def round_ops(r):
            return [make_op(f"{label}#{i}", *inputs[label][i]) for label, i in _cm_round(r)]

        return Workload(name, round_ops, digest, known_reds)

    return build


BUILDERS = {
    "exact-closure": _exact_closure,
    "sphere-slices": _sphere_slices,
    "cm-dynamics": _cm_workload("cm-dynamics", _dyn_op, CM_KNOWN_REDS),
    "cm-residue": _cm_workload("cm-residue", _residue_op, frozenset()),
}


def build(name, seed):
    """Generate the workload's inputs from the seed."""
    return BUILDERS[name](seed)


def is_known_red(workload, label, reason):
    return (label.split("#")[0], reason) in workload.known_reds
