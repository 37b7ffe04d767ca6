import csv
import dataclasses
import importlib.util
from functools import lru_cache, partial
from pathlib import Path

import numpy as np
import pytest

from laxkit import calogero as cm
from laxkit import liealg as la
from laxkit.elliptic import Lattice

LAT = Lattice(6.0, 6.0j)


def make(family, n=2, **kw):
    kw.setdefault("q0", 0.51 * 6)
    return cm.CMSystem(family, n, LAT, **kw)


def sigma_matrix(family, n):
    """Defining bilinear form of a B/C/D family as a float array."""
    return np.array(la.sigma_for(la.family_to_kind(family), n).rows, dtype=float)


def state_for(sys_, seed=3, **kw):
    rng = np.random.default_rng(seed)
    kw.setdefault("p_scale", 0.3)
    kw.setdefault("lo", 1.2 if sys_.family != "A" else 1.0)
    kw.setdefault("hi", 2.6 if sys_.family != "A" else 5.0)
    kw.setdefault("min_gap", 0.8)
    return cm.random_state(sys_, rng, **kw)


# ---------------------------------------------------------------------------
# structure
# ---------------------------------------------------------------------------


def test_coupling_validation():
    # the Lax coefficients are fixed: a system takes no couplings, so none
    # can break its identities
    assert [f.name for f in dataclasses.fields(cm.CMSystem)] == ["family", "n", "lattice", "q0"]
    with pytest.raises(TypeError):
        cm.CMSystem("A", 2, LAT, couplings={"f": np.ones((2, 2))})
    with pytest.raises(ValueError):
        cm.CMSystem("E", 2, LAT)


@pytest.mark.parametrize("family", ["B", "C", "D"])
def test_lax_matrix_in_defining_algebra(family):
    sys_ = make(family)
    st = state_for(sys_)
    sig = sigma_matrix(family, 2)
    for z in (0.21 + 0.3j, 1.1 - 0.7j):
        L = cm.lax_matrix(sys_, st, z)
        assert np.linalg.norm(L.T @ sig + sig @ L) < 1e-12


def test_b_family_zero_pattern():
    sys_ = make("B")
    st = state_for(sys_)
    L = cm.lax_matrix(sys_, st, 0.21 + 0.3j)
    n = 2
    assert L[n, n] == 0
    assert np.allclose(np.diag(L[:n, n + 1:]), 0)   # skew B block
    assert np.allclose(np.diag(L[n + 1:, :n]), 0)   # skew C block


def test_a_family_pair_product_identity():
    # -L_ij L_ji = wp(q_i - q_j) - wp(z)
    sys_ = make("A", 3)
    st = state_for(sys_)
    z = 0.17 + 0.4j
    L = cm.lax_matrix(sys_, st, z)
    for i in range(3):
        for j in range(3):
            if i != j:
                lhs = -L[i, j] * L[j, i]
                rhs = LAT.wp(st.q[i] - st.q[j]) - LAT.wp(z)
                assert abs(lhs - rhs) < 1e-10


def test_b_family_column_product_identity():
    # a_i b_i = f^a f^b (wp(q_i) - wp(z - q0))
    sys_ = make("B")
    st = state_for(sys_)
    z = 0.23 + 0.31j
    L = cm.lax_matrix(sys_, st, z)
    n = 2
    for i in range(n):
        lhs = L[i, n] * L[n + 1 + i, n]
        rhs = LAT.wp(st.q[i]) - LAT.wp(z - sys_.q0)
        assert abs(lhs - rhs) < 1e-10


def test_a_family_trace_is_total_momentum():
    sys_ = make("A", 3)
    st = state_for(sys_)
    for z in (0.2 + 0.3j, 0.4 - 0.2j, 0.6 + 0.1j, 1.1 + 0.7j, 0.9 - 0.4j):
        assert abs(np.trace(cm.lax_matrix(sys_, st, z)) - st.p.sum()) < 1e-10


def test_collision_guard():
    sys_ = make("A", 2)
    with pytest.raises(cm.CollisionError):
        cm.check_state(sys_, cm.CMState(np.array([1.0, 1.0 + 1e-9]), np.zeros(2)))


def test_collision_error_names_the_pair():
    sys_ = make("A", 3)
    st = cm.CMState(np.array([0.9, 2.5, 2.5 + 1e-9]), np.zeros(3))
    with pytest.raises(cm.CollisionError, match=r"q_2-q_3") as exc:
        cm.check_state(sys_, st)
    assert (exc.value.kind, exc.value.particles) == ("q_i-q_j", (2, 3))
    # the equations of motion locate the same argument from their own guard
    with pytest.raises(cm.CollisionError, match=r"q_2-q_3 \(kind q_i-q_j\)"):
        cm.equations_of_motion(sys_, st)


def test_collision_error_names_the_frozen_point():
    sys_ = make("B", 2)
    st = cm.CMState(np.array([sys_.q0 + 1e-9, 1.3]), np.zeros(2))
    for fn in (cm.check_state, cm.equations_of_motion):
        with pytest.raises(cm.CollisionError, match=r"q_1-q0 \(kind q_i-q0\)") as exc:
            fn(sys_, st)
        assert (exc.value.kind, exc.value.particles) == ("q_i-q0", (1,))


def test_collision_error_names_a_doubled_position():
    # q_1 + q_1 = 2 omega1 + 2e-9 sits on the lattice although q_1 does not
    sys_ = make("D", 2)
    st = cm.CMState(np.array([LAT.omega1 + 1e-9, 2.0]), np.zeros(2))
    for fn in (cm.check_state, cm.equations_of_motion, cm.hamiltonian):
        with pytest.raises(cm.CollisionError, match=r"q_1\+q_1 \(kind q_i\+q_j\)") as exc:
            fn(sys_, st)
        assert (exc.value.kind, exc.value.particles) == ("q_i+q_j", (1, 1))


@pytest.mark.parametrize("family", ["A", "B", "C", "D"])
def test_argument_labels_follow_the_collision_layout(family):
    n = 3
    sys_ = make(family, n)
    t = sys_._table
    q = np.array([0.11, 0.23, 0.37], dtype=complex)
    value = {"q_i-q_j": lambda i, j: q[i - 1] - q[j - 1], "q_i+q_j": lambda i, j: q[i - 1] + q[j - 1],
             "q_i": lambda i: q[i - 1], "q0": lambda: sys_.q0,
             "q_i-q0": lambda i: q[i - 1] - sys_.q0, "q_i+q0": lambda i: q[i - 1] + sys_.q0}
    args = t.P @ q + sys_._plan_c
    labels = t.labels[:len(t.P)]
    assert len(labels) == len(args) == len(t.w)
    for (kind, particles), arg in zip(labels, args):
        assert value[kind](*particles) == arg


def _perfbench_workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_the_benchmark_runs_one_system_per_op():
    # cm-dynamics calls run_conservation(sys_, st, T, dt, scheme="rk4",
    # z_samples=...) with one system; round 0 has the A and D ops twice
    ops = _perfbench_workloads().build("cm-dynamics", 1).round_ops(0)
    assert len(ops) == 12
    for op in ops:
        assert op.check(op.run()) == ("isospectrality" if op.label[0] in "BC" else None), op.label


def test_one_table_per_family_and_size(monkeypatch):
    # the cm-residue set-up makes 32 systems of 8 (family, n): 8 builds
    builds, build = [], cm._table.__wrapped__

    def counted(family, n):
        builds.append((family, n))
        return build(family, n)

    monkeypatch.setattr(cm, "_table", lru_cache(maxsize=None)(counted))
    _perfbench_workloads().build("cm-residue", 1)
    assert len(builds) == len(set(builds)) == 8
    # systems of one (family, n) share the table; its arrays are read-only
    a, b = make("B", 4), make("B", 4, q0=1.7)
    assert a._table is b._table and len(builds) == 9
    arrays = [x for x in a._table if isinstance(x, np.ndarray)]
    assert arrays and not any(x.flags.writeable for x in arrays)
    with pytest.raises(ValueError):
        a._table.P[0, 0] = 5.0


def test_a_system_is_frozen():
    # q0 is bound into constants at construction, so assigning it
    # afterwards would leave L(z) built from the old value
    sys_ = make("B", 2, q0=0.3)
    st = state_for(sys_)
    lax = cm.lax_matrix(sys_, st, 0.21 + 0.3j)
    with pytest.raises(dataclasses.FrozenInstanceError):
        sys_.q0 = 0.35
    assert sys_.q0 == 0.3
    assert np.array_equal(cm.lax_matrix(sys_, st, 0.21 + 0.3j), lax)
    assert not np.allclose(cm.lax_matrix(make("B", 2, q0=0.35), st, 0.21 + 0.3j), lax)


def test_a_particle_on_a_lattice_point_is_named():
    # the A rows guard q_i - q_j only; sigma(q_i) = 0 is a pole of the gauge
    sys_ = make("A", 2)
    for q, i in (([0.0, 1.0], 1), ([1.0, 2 * LAT.omega1], 2)):
        st = cm.CMState(np.array(q), np.zeros(2))
        cm.check_state(sys_, st)
        with pytest.raises(cm.CollisionError, match=rf"argument q_{i} \(kind q_i\)") as exc:
            cm.lax_matrix(sys_, st, 0.4 + 0.3j)
        assert (exc.value.kind, exc.value.particles) == ("q_i", (i,))
    # one particle has no gauge, L = p; off the lattice the trace is gauge-free
    one = cm.CMState(np.zeros(1), np.array([0.3]))
    assert cm.lax_matrix(make("A", 1), one, 0.4 + 0.3j) == 0.3
    assert abs(cm.hamiltonian_from_residue(make("A", 1), one) + 0.5 * 0.3 ** 2) < 1e-15
    near = cm.CMState(np.array([1e-12, 1.0]), np.array([0.3, -0.2]))
    h = cm.hamiltonian(sys_, near)
    assert abs(cm.hamiltonian_from_residue(sys_, near) - h) < 1e-12 * abs(h)


def test_integrate_keeps_the_collision_argument():
    sys_ = make("A", 2)
    st = cm.CMState(np.array([1.0, 1.0 + 1e-9]), np.zeros(2))
    with pytest.raises(cm.CollisionError) as exc:
        cm.integrate(sys_, st, 0.1, 1e-2)
    assert exc.value.kind == "q_i-q_j" and exc.value.particles == (1, 2)
    assert exc.value.trajectory is not None


# ---------------------------------------------------------------------------
# contour nodes as a batch axis
# ---------------------------------------------------------------------------

SKEW = Lattice(6.0, 2.0 + 5.0j)
NODES = np.concatenate([0.35 * np.exp(2j * np.pi * np.arange(16) / 16),
                        [0.21 + 0.37j, 1.1 - 0.4j, -0.9 + 1.3j]])


def batch_case(family, n, lat):
    sys_ = cm.CMSystem(family, n, lat, q0=0.51 * 6)
    return sys_, cm.random_state(sys_, np.random.default_rng(10 * n + len(family)))


def per_node(sys_, st, zs):
    return np.array([cm.lax_matrix(sys_, st, z) for z in zs])


@pytest.mark.parametrize("lat", [LAT, SKEW], ids=["square", "skewed"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("family", ["A", "B", "C", "D"])
def test_lax_matrix_node_axis(family, n, lat):
    sys_, st = batch_case(family, n, lat)
    size = sys_.matrix_size
    assert cm.lax_matrix(sys_, st, NODES[0]).shape == (size, size)
    got = cm.lax_matrix(sys_, st, NODES)
    assert got.shape == (len(NODES), size, size)
    ref = per_node(sys_, st, NODES)
    assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


# the fixed Lax coefficients: 1 on the gl block, the upper off-diagonal block
# and the B border, -1 on the lower block and -2 on its C diagonal
F, FB, FC, FC_DIAG = 1.0, 1.0, -1.0, -2.0


def entrywise_lax(sys_, st, z):
    """L(z) entry by entry, one scalar sigma call per factor: A from the gl
    formula f_ij s(z+q_j-q_i) s(z-q_j) s(q_i) / (s(z) s(z-q_i) s(q_i-q_j)
    s(q_j)); D as the weight form with e_ij = (-1)^(i+j+1) conjugated by
    diag(h, 1/h), h_i = s(z+q_i/2) / s(z-q_i/2); B and C as the gl block and
    its -transpose, the skew (B) or symmetric (C) off-diagonal blocks and,
    for B, the border columns a_i and b_i."""
    s = sys_.lattice.sigma
    q, p, n = st.q, st.p, sys_.n
    size = {"A": n, "B": 2 * n + 1}.get(sys_.family, 2 * n)
    L = np.zeros((size, size), dtype=complex)

    def phi(x):
        return s(z - x) / (s(z) * s(x))

    def gl(i, j):
        if i == j:
            return p[i]
        return (F * s(z + q[j] - q[i]) * s(z - q[j]) * s(q[i])
                / (s(z) * s(z - q[i]) * s(q[i] - q[j]) * s(q[j])))

    if sys_.family == "A":
        for i in range(n):
            for j in range(n):
                L[i, j] = gl(i, j)
        return L
    if sys_.family == "D":
        for i in range(n):
            for j in range(n):
                L[i, j] = p[i] if i == j else F * phi(q[i] - q[j])
                L[n + j, n + i] = -L[i, j]
            for j in range(i + 1, n):
                e = (-1.0) ** (i + j + 1)
                L[i, n + j] = FB * e * phi(q[i] + q[j])
                L[j, n + i] = -L[i, n + j]
                L[n + j, i] = -FC * e * phi(-q[i] - q[j])
                L[n + i, j] = -L[n + j, i]
        h = [s(z + x / 2) / s(z - x / 2) for x in q]
        g = h + [1 / x for x in h]
        return np.array([[g[u] * L[u, v] / g[v] for v in range(size)] for u in range(size)])
    lo = size - n
    for i in range(n):
        for j in range(n):
            L[i, j] = gl(i, j)
            L[lo + j, lo + i] = -L[i, j]
    sign = 1.0 if sys_.family == "C" else -1.0
    for a in range(n):
        for b in range(a if sys_.family == "C" else a + 1, n):
            x = q[a] + q[b]
            bv = FB * s(z - x) * s(z + q[b]) / (s(z) * s(z - q[a]) * s(x))
            cv = (FC_DIAG if a == b else FC) * s(z + x) * s(z - q[a]) / (s(z) * s(z + q[b]) * s(x))
            L[a, lo + b], L[b, lo + a] = bv, sign * bv
            L[lo + a, b], L[lo + b, a] = sign * cv, cv
    if sys_.family == "B":
        q0 = sys_.q0
        for i in range(n):
            av = F * s(z - q0 - q[i]) * s(z) / (s(z - q0) * s(z - q[i]) * s(q[i]))
            bv = F * s(z - q0 + q[i]) * s(z - q[i]) / (s(z) * s(z - q0) * s(q[i]))
            L[i, n], L[n, i], L[n, n + 1 + i], L[n + 1 + i, n] = av, -bv, -av, bv
    return L


@pytest.mark.parametrize("lat", [LAT, SKEW], ids=["square", "skewed"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("family", ["A", "B", "C", "D"])
def test_lax_matrix_matches_the_entry_formulas(family, n, lat):
    rng = np.random.default_rng(7 * n + len(family))
    sys_ = cm.CMSystem(family, n, lat, q0=0.51 * 6)
    st = cm.random_state(sys_, rng)
    zs = NODES[-3:]
    got = cm.lax_matrix(sys_, st, zs)
    for z, g in zip(zs, got):
        np.testing.assert_allclose(g, entrywise_lax(sys_, st, z), rtol=1e-13, atol=0)


@pytest.mark.parametrize("family", ["A", "B", "C", "D"])
def test_lax_matrix_makes_one_sigma_call(family):
    # at n = 1 there are no roots: B has only its border, C only its
    # diagonal block, A and D no off-diagonal entry
    for n in (1, 2, 3):
        sys_ = cm.CMSystem(family, n, Lattice(6.0, 6.0j), q0=0.51 * 6)
        st = cm.random_state(sys_, np.random.default_rng(4))
        calls = []
        sigma = sys_.lattice.sigma

        def counted(x):
            calls.append(np.ravel(x))
            return sigma(x)

        sys_.lattice.sigma = counted
        for z in (NODES[-1], 0.35 * np.exp(2j * np.pi * np.arange(64) / 64)):
            calls.clear()
            cm.lax_matrix(sys_, st, z)
            assert len(calls) == 1
            assert np.unique(calls[0]).size == calls[0].size  # each argument once


def reference_residue(sys_, st, m, power, radius, nodes=64):
    """The per-node loop, finer than the library's 32-node rule: trace sum and
    the mean size of its terms."""
    acc, scale = 0.0, 0.0
    for k in range(nodes):
        zk = radius * np.exp(2j * np.pi * k / nodes)
        term = np.trace(np.linalg.matrix_power(cm.lax_matrix(sys_, st, zk), power)) * zk ** (1 - m)
        acc += term
        scale += abs(term)
    return acc / nodes, scale / nodes


@pytest.mark.parametrize("power", [2, 4])
@pytest.mark.parametrize("m", [0, 1, 2])
@pytest.mark.parametrize("family", ["A", "B", "C", "D"])
def test_residue_hamiltonian_matches_per_node_loop(family, m, power):
    for lat in (LAT, SKEW):
        sys_, st = batch_case(family, 3, lat)
        got = cm.residue_hamiltonian(sys_, st, m=m, power=power)
        dist = lat.lattice_distance(cm._pole_set(sys_, st))
        radius = float(np.min(dist[dist > 1e-4 * abs(lat.omega1)], initial=abs(lat.Ar))) / 3.0
        ref, scale = reference_residue(sys_, st, m, power, radius)
        assert abs(got - ref) <= 1e-13 * scale, lat


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("family", ["A", "B", "C", "D"])
def test_residue_traces_match_the_matrix_power_trace(family, n):
    sys_, st = batch_case(family, n, LAT)
    powers = [1, 2, 3, 4] if family == "A" else [2, 4]
    got = cm._residues(sys_, st, [(p, 1) for p in powers])
    ls = cm.lax_matrix(sys_, st, cm._circle(sys_, st, 0.0))
    for value, power in zip(got, powers):
        ref = np.sum(np.trace(np.linalg.matrix_power(ls, power), axis1=1, axis2=2)) / len(ls)
        assert abs(value - ref) <= 1e-13 * abs(ref)


@pytest.mark.parametrize("order", [1, 2])
def test_matrix_residue_matches_per_node_loop(order):
    sys_, st = batch_case("A", 3, SKEW)
    center = st.q[1]
    got_radius, (got,) = cm._laurent(sys_, st, center, [-order])
    dist = sys_.lattice.lattice_distance(cm._pole_set(sys_, st) - center)
    radius = float(np.min(dist[dist > 1e-4 * abs(SKEW.omega1)], initial=abs(SKEW.Ar))) / 3.0
    assert abs(got_radius - radius) <= 1e-15 * radius
    ref = np.zeros_like(got)
    for k in range(64):
        zk = center + radius * np.exp(2j * np.pi * k / 64)
        ref += cm.lax_matrix(sys_, st, zk) * (zk - center) ** order
    ref /= 64
    scale = np.abs(cm.lax_matrix(sys_, st, center + radius)).max() * radius ** order
    assert np.abs(got - ref).max() <= 1e-13 * scale


# ---------------------------------------------------------------------------
# Hamiltonians: closed form vs residue route
# ---------------------------------------------------------------------------


def test_closed_forms_small_n():
    sys_ = make("A", 2)
    st = state_for(sys_)
    q, p = st.q, st.p
    manual = -0.5 * (p[0] ** 2 + p[1] ** 2) + LAT.wp(q[0] - q[1])
    assert abs(cm.hamiltonian(sys_, st) - manual) < 1e-12
    sys_ = make("C", 1)
    st1 = cm.CMState(np.array([1.3]), np.array([0.4]))
    manual = -st1.p[0] ** 2 + 2 * LAT.wp(2 * st1.q[0])
    assert abs(cm.hamiltonian(sys_, st1) - manual) < 1e-12
    sys_ = make("B", 2)
    st = state_for(sys_)
    q, p = st.q, st.p
    manual = (-(p ** 2).sum() + 2 * LAT.wp(q[0] - q[1]) + 2 * LAT.wp(q[0] + q[1])
              + 2 * LAT.wp(q).sum())
    assert abs(cm.hamiltonian(sys_, st) - manual) < 1e-12
    for family, extra in (("C", lambda q: 2 * LAT.wp(2 * q).sum()), ("D", lambda q: 0.0)):
        sys_ = make(family, 2)
        st = state_for(sys_)
        q, p = st.q, st.p
        manual = (-(p ** 2).sum() + 2 * LAT.wp(q[0] - q[1]) + 2 * LAT.wp(q[0] + q[1])
                  + extra(q))
        assert abs(cm.hamiltonian(sys_, st) - manual) < 1e-12


@pytest.mark.parametrize("family", ["A", "B", "C", "D"])
def test_residue_route_matches_closed_form(family):
    sys_ = make(family)
    st = state_for(sys_)
    h1 = cm.hamiltonian(sys_, st)
    h2 = cm.hamiltonian_from_residue(sys_, st)
    assert abs(h1 - h2) < 1e-9 * max(1.0, abs(h1))


@pytest.mark.parametrize("omega2", [0.3j, 0.06j, 0.05j, 0.02j])
def test_residue_circle_excludes_the_translates_of_the_puncture(omega2):
    # the translates of z = 0 lie a period 2 |omega2| away; below 0.06j they
    # are nearer than a third of the distance to the moving poles.  A circle
    # bounded by those poles alone read H 0.3% off at 0.06j, and 2140.23 for
    # 328.98 at 0.05j, where it enclosed the translates
    lat = Lattice(1.0, omega2)
    sys_ = cm.CMSystem("A", 2, lat)
    st = cm.CMState(np.array([0.31, 0.62]), np.array([0.1, -0.05]))
    assert abs(cm._circle(sys_, st, 0.0)[0]) <= abs(lat.Ar) / 3.0
    h1 = cm.hamiltonian(sys_, st)
    assert abs(cm.hamiltonian_from_residue(sys_, st) - h1) <= 1e-12 * abs(h1)


def test_residue_hamiltonian_conventions():
    sys_ = make("A", 3)
    st = state_for(sys_)
    # residue of z^{-1} tr L: trace is constant, so this is the total momentum
    r = cm.residue_hamiltonian(sys_, st, m=1, power=1)
    assert abs(r - st.p.sum()) < 1e-10
    # m <= 0 with holomorphic integrand: no residue
    assert abs(cm.residue_hamiltonian(sys_, st, m=0, power=1)) < 1e-12
    with pytest.raises(ValueError):
        cm.residue_hamiltonian(make("D"), state_for(make("D")), power=3)
    for power in (0, -2):
        with pytest.raises(ValueError, match="at least 1"):
            cm.residue_hamiltonian(sys_, st, power=power)


# ---------------------------------------------------------------------------
# dynamics
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("family", ["A", "B", "C", "D"])
def test_equations_of_motion_match_finite_differences(family):
    sys_ = make(family)
    st = state_for(sys_)
    qd, pd = cm.equations_of_motion(sys_, st)
    eps = 1e-6
    for i in range(sys_.n):
        sp_, sm = st.copy(), st.copy()
        sp_.p[i] += eps
        sm.p[i] -= eps
        num = (cm.hamiltonian(sys_, sp_) - cm.hamiltonian(sys_, sm)) / (2 * eps)
        assert abs(num - qd[i]) < 1e-5 * max(1.0, abs(qd[i]))
        sp_, sm = st.copy(), st.copy()
        sp_.q[i] += eps
        sm.q[i] -= eps
        num = -(cm.hamiltonian(sys_, sp_) - cm.hamiltonian(sys_, sm)) / (2 * eps)
        assert abs(num - pd[i]) < 1e-4 * max(1.0, abs(pd[i]))


OBLIQUE = Lattice(1.3 + 0.2j, 0.4 + 2.1j)


@pytest.mark.parametrize("lat", [LAT, SKEW, OBLIQUE], ids=["square", "skewed", "oblique"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("family", ["A", "B", "C", "D"])
def test_equations_of_motion_are_the_plan_gradient(family, n, lat):
    # bit for bit: qdot = 2 kappa p and pdot = -P^T (w * wp'(P q + c)), with
    # the force matrix G = P^T diag(w) folded in beforehand (A1 has no rows)
    sys_ = cm.CMSystem(family, n, lat, q0=0.51 * abs(lat.omega1))
    t = sys_._table
    for k in range(3):
        st = cm.random_state(sys_, np.random.default_rng(10 * n + k))
        wpp = lat.wp_prime(t.P @ st.q + sys_._plan_c)
        qdot, pdot = cm.equations_of_motion(sys_, st)
        assert qdot.tobytes() == (2 * t.kappa * st.p).tobytes()
        assert pdot.tobytes() == (-1.0 * (t.P.T @ (t.w * wpp))).tobytes()
        assert pdot.shape == (n,)


def pairwise_definition(sys_, st):
    """H and (qdot, pdot) summed over ordered pairs, with the scales (sums of
    absolute terms) they are compared at.  Per ordered pair: 1/2 wp(q_i - q_j)
    for A; wp(q_i - q_j) and wp(q_i + q_j) for B/C/D, plus 2 wp(2 q_i) for C
    and 2 wp(q_i) for B; kinetic coefficient -1/2 for A and -1 otherwise."""
    lat, q, p, n = sys_.lattice, st.q, st.p, sys_.n
    kappa = -0.5 if sys_.family == "A" else -1.0
    e = np.eye(n)
    terms = []  # (weight, argument, d argument / d q)
    for i in range(n):
        for j in range(n):
            if i != j:
                terms.append((0.5 if sys_.family == "A" else 1.0, q[i] - q[j], e[i] - e[j]))
                if sys_.family != "A":
                    terms.append((1.0, q[i] + q[j], e[i] + e[j]))
        if sys_.family == "C":
            terms.append((2.0, 2 * q[i], 2 * e[i]))
        if sys_.family == "B":
            terms.append((2.0, q[i], e[i]))
    h = [kappa * np.sum(p * p)] + [w * lat.wp(x) for w, x, _ in terms]
    force = [np.zeros(n)] + [w * lat.wp_prime(x) * dx for w, x, dx in terms]
    return (sum(h), sum(abs(t) for t in h), 2 * kappa * p,
            -sum(force), sum(np.abs(f) for f in force))


@pytest.mark.parametrize("lat", [LAT, SKEW, OBLIQUE], ids=["square", "skewed", "oblique"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("family", ["A", "B", "C", "D"])
def test_plan_of_distinct_arguments_matches_the_pairwise_definition(family, n, lat):
    sys_ = cm.CMSystem(family, n, lat, q0=0.51 * abs(lat.omega1))
    if n == 3:
        assert len(sys_._table.w) == {"A": 3, "B": 19, "C": 12, "D": 12}[family]
    for k in range(3):
        st = cm.random_state(sys_, np.random.default_rng(10 * n + k))
        h, h_scale, qdot_ref, pdot_ref, pdot_scale = pairwise_definition(sys_, st)
        assert abs(cm.hamiltonian(sys_, st) - h) <= 1e-13 * h_scale
        qdot, pdot = cm.equations_of_motion(sys_, st)
        assert np.array_equal(qdot, qdot_ref)
        assert np.all(np.abs(pdot - pdot_ref) <= 1e-13 * pdot_scale)


NON_GENERIC = ": H has no term there, but L(z) is not generic"


@pytest.mark.parametrize("family, q, kind, particles, label", [
    ("A", [1.0, 1.0 + 1e-9], "q_i-q_j", (1, 2), "q_1-q_2"),
    ("B", [0.51 * 6 + 1e-9, 1.3], "q_i-q0", (1,), "q_1-q0"),
    ("C", [1.3, 6.0 + 1e-9], "q_i+q_j", (2, 2), "q_2+q_2"),
    ("D", [1.3, 1.3 + 1e-9], "q_i-q_j", (1, 2), "q_1-q_2"),
])
def test_equations_of_motion_collision_message(family, q, kind, particles, label):
    sys_ = make(family)
    with pytest.raises(cm.CollisionError) as exc:
        cm.equations_of_motion(sys_, cm.CMState(np.array(q), np.zeros(2)))
    where = f"argument {label} (kind {kind}) within 6.0e-03 of a lattice point"
    # B's q_i - q0 row has no term in H: it only guards L(z)
    want = f"non-generic state: {where}{NON_GENERIC}" if family == "B" else f"particle collision: {where}"
    assert str(exc.value) == want
    assert (exc.value.kind, exc.value.particles) == (kind, particles)


def test_a_row_of_weight_zero_names_a_non_generic_state():
    # D's H has no wp(2 q_i) term: q_1 + q_1 on the lattice only guards L(z)
    sys_ = cm.CMSystem("D", 2, Lattice(40, 40j))
    st = cm.CMState(np.array([0.0, 9.0]), np.zeros(2))
    with pytest.raises(cm.CollisionError) as exc:
        cm.check_state(sys_, st)
    assert str(exc.value) == ("non-generic state: argument q_1+q_1 (kind q_i+q_j) within "
                              "4.0e-02 of a lattice point" + NON_GENERIC)
    assert (exc.value.kind, exc.value.particles, exc.value.member) == ("q_i+q_j", (1, 1), None)
    # the rule is the plan's weights: the rows of weight 0 are these, and
    # only they say so
    guards = {"A": set(), "B": {"q_i+q_i", "q0", "q_i-q0", "q_i+q0"}, "C": {"q_i"}, "D": {"q_i+q_i", "q_i"}}
    for family, want in guards.items():
        flow = make(family, 3)._flow
        seen = set()
        for row, (weight, (kind, parts)) in enumerate(zip(flow.tables[0].w, flow.tables[0].labels)):
            msg = str(cm._collision_error(flow, row))
            assert msg.startswith("particle collision" if weight else "non-generic state"), (family, row)
            if not weight:
                seen.add("q_i+q_i" if len(parts) == 2 and parts[0] == parts[1] else kind)
        assert seen == want, family


def test_an_argument_beyond_the_reduction_precision_fails_loudly():
    # at |x| = 4e36 the lattice reduction keeps no digit of the argument
    sys_ = cm.CMSystem("A", 2, Lattice(40, 40j))
    st = cm.CMState(np.array([5e36, 1e36]), np.zeros(2))
    want = ("imprecise state: argument q_1-q_2 (kind q_i-q_j) has |x| = 4.0e+36, "
            "beyond the lattice reduction's precision")
    # the closed form's guarded wp and wp' calls alone would give numbers
    assert np.isfinite(sys_.lattice.wp_prime(st.q[0] - st.q[1]))
    for call in (lambda: cm.check_state(sys_, st), lambda: cm.lax_matrix(sys_, st, 0.3 + 0.2j),
                 lambda: cm.hamiltonian(sys_, st), lambda: cm.equations_of_motion(sys_, st)):
        with pytest.raises(cm.CollisionError) as exc:
            call()
        assert str(exc.value) == want
        assert (exc.value.kind, exc.value.particles) == ("q_i-q_j", (1, 2))


def test_total_momentum_conserved_a_family():
    sys_ = make("A", 3)
    st = state_for(sys_)
    _, pdot = cm.equations_of_motion(sys_, st)
    assert abs(pdot.sum()) < 1e-12


def test_zero_momentum_freezes_positions():
    sys_ = make("A", 2)
    st = state_for(sys_)
    st.p[:] = 0
    qd, _ = cm.equations_of_motion(sys_, st)
    assert np.linalg.norm(qd) == 0


def test_integrate_zero_duration():
    sys_ = make("A", 2)
    st = state_for(sys_)
    traj = cm.integrate(sys_, st, 0.0, 1e-3)
    assert len(traj) == 1 and traj.completed
    with pytest.raises(ValueError):
        cm.integrate(sys_, st, 1.0, -1e-3)
    with pytest.raises(ValueError):
        cm.integrate(sys_, st, 1.0, 1e-3, scheme="euler")


def test_rk4_richardson_scaling():
    rng = np.random.default_rng(12)
    sys_, st = cm.conservation_initial_data("A", 2, rng, period=6.0)
    _, r1 = cm.run_conservation(sys_, st, 0.4, 4e-3, z_samples=[1.3 + 1.1j])
    _, r2 = cm.run_conservation(sys_, st, 0.4, 2e-3, z_samples=[1.3 + 1.1j])
    assert r1["max_H_drift"] > 8 * r2["max_H_drift"] or r2["max_H_drift"] < 1e-15


def test_rk4_error_falls_with_the_fourth_power_of_dt():
    # the final (q, p) at dt against a run at dt / 8: halving dt must cut the
    # error by about 2^4 = 16; at these steps the errors (about 7e-13 and
    # 5e-14) are far above the rounding of one run
    rng = np.random.default_rng(12)
    sys_, st = cm.conservation_initial_data("A", 2, rng, period=6.0)

    def final(dt):
        traj = cm.integrate(sys_, st, 1.0, dt)
        assert traj.completed and abs(traj.times[-1] - 1.0) < 1e-12
        end = traj.state(len(traj) - 1)
        return np.concatenate([end.q, end.p])

    errors = [np.max(np.abs(final(dt) - final(dt / 8))) for dt in (0.1, 0.05)]
    assert errors[1] > 1e-14
    assert errors[0] > 8 * errors[1], errors


def test_runaway_state_aborts_with_the_partial_trajectory():
    # a free particle (A1 has no pair rows) with qdot = -p near the largest
    # float: q overflows in the seventh step of dt = 1
    sys_ = make("A", 1)
    st = cm.CMState(np.array([1.0]), np.array([2.9e307]))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(cm.CollisionError) as exc:
            cm.integrate(sys_, st, 20.0, 1.0)
    assert str(exc.value) == "state left the representable range (in the step to t = 7)"
    assert (exc.value.kind, exc.value.particles) == (None, ())
    traj = exc.value.trajectory
    assert not traj.completed
    assert np.array_equal(traj.times, np.arange(7.0))
    assert np.isfinite(traj.qs).all() and np.isfinite(traj.ps).all()
    assert np.allclose(traj.qs[:, 0], 1.0 - 2.9e307 * np.arange(7.0), rtol=1e-15, atol=0)


def test_leapfrog_conserves_on_short_run():
    rng = np.random.default_rng(4)
    sys_, st = cm.conservation_initial_data("A", 2, rng)
    traj, rep = cm.run_conservation(sys_, st, 1.0, 1e-3, scheme="leapfrog",
                                    z_samples=[5.0 + 4.0j])
    assert rep["max_H_drift"] < 1e-8


def test_collision_abort_carries_partial_trajectory():
    sys_ = cm.CMSystem("A", 2, Lattice(1.0, 1j))
    st = cm.CMState(np.array([0.4, 0.6]), np.array([0.0, 0.0]))  # attractive fall
    with pytest.raises(cm.CollisionError) as exc:
        cm.integrate(sys_, st, 20.0, 1e-2)
    traj = exc.value.trajectory
    assert traj is not None
    assert not traj.completed
    assert len(traj) >= 1
    # the message names the step after the last recorded state
    assert f"in the step to t = {traj.times[-1] + 1e-2:.6g})" in str(exc.value)
    with pytest.raises(cm.CollisionError, match=r"\(at t = 0\)$"):
        cm.integrate(sys_, cm.CMState(np.array([0.4, 0.4]), np.zeros(2)), 1.0, 1e-2)


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def count_wp_prime(monkeypatch):
    """A list that gets the argument count of every ``Lattice.wp_prime`` call."""
    calls, wp_prime = [], Lattice.wp_prime

    def counted(self, z):
        calls.append(np.size(z))
        return wp_prime(self, z)

    monkeypatch.setattr(Lattice, "wp_prime", counted)
    return calls


@pytest.mark.parametrize("family,n", [("A", 3), ("B", 2)])
def test_leapfrog_is_kick_drift_kick_with_two_force_calls(family, n, monkeypatch):
    sys_, st = cm.conservation_initial_data(family, n, np.random.default_rng(20240817))
    dt, q, p = 1e-3, st.q, st.p
    for _ in range(200):
        p = p + dt / 2 * cm.equations_of_motion(sys_, cm.CMState(q, p))[1]
        q = q + dt * cm.equations_of_motion(sys_, cm.CMState(q, p))[0]
        p = p + dt / 2 * cm.equations_of_motion(sys_, cm.CMState(q, p))[1]
    calls = count_wp_prime(monkeypatch)
    traj = cm.integrate(sys_, st, 200 * dt, dt, scheme="leapfrog")
    assert len(calls) == 400
    assert same_bits(traj.qs[-1], q) and same_bits(traj.ps[-1], p)


def criterion_8_data():
    """Criterion 8's eight systems, which share Lattice(40, 40i), and states."""
    rng = np.random.default_rng(20240817)
    return zip(*(cm.conservation_initial_data(f, n, rng) for f in "ABCD" for n in (2, 3)))


@pytest.mark.parametrize("scheme", ["rk4", "leapfrog"])
def test_a_batch_gives_each_member_its_own_run(scheme, monkeypatch):
    systems, states = criterion_8_data()
    calls = count_wp_prime(monkeypatch)
    trajs = cm.integrate(systems, states, 0.05, 1e-3, scheme=scheme)
    # one call per stage on the 70 arguments of all eight plans
    assert calls == [70] * (50 * {"rk4": 4, "leapfrog": 2}[scheme])
    runs = cm.run_conservation(list(systems), list(states), 0.05, 1e-3, scheme=scheme)
    assert len(trajs) == len(runs) == 8
    for sys_, st, traj, (_, report) in zip(systems, states, trajs, runs):
        alone = cm.integrate(sys_, st, 0.05, 1e-3, scheme=scheme)
        for name in ("times", "qs", "ps"):
            assert same_bits(getattr(traj, name).view(float), getattr(alone, name).view(float))
        assert report == cm.run_conservation(sys_, st, 0.05, 1e-3, scheme=scheme)[1]


def test_a_batch_names_the_colliding_member():
    lat = Lattice(1.0, 1j)
    a1, a2 = cm.CMSystem("A", 1, lat), cm.CMSystem("A", 2, lat)
    free = cm.CMState(np.array([0.3]), np.array([0.2]))
    fall = cm.CMState(np.array([0.4, 0.6]), np.zeros(2))  # attractive fall
    at_zero = cm.CMState(np.array([0.4, 0.4]), np.zeros(2))
    for states, scheme in (([free, fall, free], "rk4"), ([free, free, at_zero], "leapfrog")):
        systems = [a1 if len(st.q) == 1 else a2 for st in states]
        m = next(i for i, st in enumerate(states) if len(st.q) == 2)
        with pytest.raises(cm.CollisionError) as alone:
            cm.integrate(systems[m], states[m], 20.0, 1e-2, scheme=scheme)
        with pytest.raises(cm.CollisionError) as exc:
            cm.integrate(systems, states, 20.0, 1e-2, scheme=scheme)
        assert str(exc.value) == f"member {m} (A2): {alone.value}"
        assert (exc.value.member, exc.value.kind, exc.value.particles) == (m, "q_i-q_j", (1, 2))
        assert alone.value.member is None
        trajs = exc.value.trajectory
        assert len(trajs) == 3 and len({len(t) for t in trajs}) == 1
        assert not any(t.completed for t in trajs)
        assert same_bits(trajs[m].qs, alone.value.trajectory.qs)
    # a member that leaves the representable range is named too
    runaway = cm.CMState(np.array([1.0]), np.array([2.9e307]))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(cm.CollisionError) as exc:
            cm.integrate([a1, a1], [free, runaway], 20.0, 1.0)
    assert str(exc.value) == "member 1 (A1): state left the representable range (in the step to t = 7)"
    assert exc.value.member == 1 and [len(t) for t in exc.value.trajectory] == [7, 7]


def test_a_batch_shares_one_lattice():
    st = cm.CMState(np.array([1.0, 2.0]), np.zeros(2))
    same = [cm.CMSystem("A", 2, Lattice(6.0, 6.0j)), cm.CMSystem("D", 2, Lattice(6.0, 6.0j))]
    assert len(cm.integrate(same, [st, st], 0.01, 1e-3)) == 2  # equal lattices, two objects
    other = [same[0], cm.CMSystem("D", 2, Lattice(6.0, 6.5j))]
    for fn in (cm.integrate, cm.run_conservation):
        with pytest.raises(ValueError, match=r"^member 1 \(D2\) is on Lattice"):
            fn(other, [st, st], 0.01, 1e-3)
    with pytest.raises(ValueError, match="equal-length"):
        cm.integrate(same, [st], 0.01, 1e-3)


# ---------------------------------------------------------------------------
# conservation and involution diagnostics
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("family", ["A", "D"])
def test_energy_and_spectrum_conserved(family):
    rng = np.random.default_rng(8)
    sys_, st = cm.conservation_initial_data(family, 2, rng)
    w = abs(sys_.lattice.omega1)
    traj, rep = cm.run_conservation(sys_, st, 2.0, 1e-3,
                                    z_samples=[complex(0.3 * w, 0.2 * w)])
    assert rep["max_H_drift"] < 1e-10
    assert rep["max_spec_drift"] < 1e-8


def test_d3_isospectral_and_in_so6():
    # the B/C rows keep criterion 8 red, so this is the D3 regression guard
    rng = np.random.default_rng(8)
    sys_, st = cm.conservation_initial_data("D", 3, rng)
    w = abs(sys_.lattice.omega1)
    z = complex(0.3 * w, 0.2 * w)
    sig = sigma_matrix("D", 3)
    L = cm.lax_matrix(sys_, st, z)
    assert np.linalg.norm(L.T @ sig + sig @ L) < 1e-12
    _, rep = cm.run_conservation(sys_, st, 1.0, 1e-3, z_samples=[z])
    assert rep["max_spec_drift"] < 1e-8


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("family", ["A", "B", "C", "D"])
def test_lax_matrix_elliptic(family, n):
    lat = Lattice(1.0, 0.3 + 1.1j)
    sys_ = cm.CMSystem(family, n, lat)
    st = cm.CMState([0.21 + 0.05j, 0.47 - 0.1j, 0.83 + 0.2j][:n], [0.3, -0.2, 0.5][:n])
    z = 0.13 + 0.27j
    L = cm.lax_matrix(sys_, st, z)
    for period in (2 * lat.omega1, 2 * lat.omega2):
        assert np.abs(cm.lax_matrix(sys_, st, z + period) - L).max() < 1e-12 * np.abs(L).max()


@pytest.mark.parametrize("family,n", [("A", 2), ("A", 3), ("D", 2), ("D", 3), ("D", 4)])
def test_expansion_conditions_hold(family, n):
    rng = np.random.default_rng(11)
    sys_, st = cm.conservation_initial_data(family, n, rng)
    rep = cm.expansion_violations(sys_, st)
    npoints = n if family == "A" else 2 * n
    assert len(rep) == npoints * 3
    assert max(r["relative"] for r in rep) < 1e-12


@pytest.mark.parametrize("family", ["A", "B", "C", "D"])
def test_moving_points_are_poles(family):
    sys_, st = batch_case(family, 3, LAT)
    poles = cm._pole_set(sys_, st)
    for gamma in cm.moving_points(sys_, st)[0]:
        assert np.any(poles == gamma)


def test_symplectic_degree_one_violation():
    # the C matrix breaks the degree-one condition at q_i through the single
    # entry C_ii, whose coefficient is f^C_ii s(3q_i) / (s(q_i) s(2q_i)^2),
    # |f^C_ii| = 2
    rng = np.random.default_rng(12)
    sys_, st = cm.conservation_initial_data("C", 3, rng)
    s = sys_.lattice.sigma
    rep = cm.expansion_violations(sys_, st)
    for i, q in enumerate(st.q):
        got = next(r["violation"] for r in rep if r["point"] == q and r["degree"] == 1)
        want = abs(2 * s(3 * q) / (s(q) * s(2 * q) ** 2))
        assert abs(got - want) < 1e-9 * want


@pytest.mark.parametrize("family", ["B", "C"])
def test_energy_conserved_all_families(family):
    rng = np.random.default_rng(9)
    sys_, st = cm.conservation_initial_data(family, 2, rng)
    w = abs(sys_.lattice.omega1)
    traj, rep = cm.run_conservation(sys_, st, 1.0, 1e-3,
                                    z_samples=[complex(0.3 * w, 0.2 * w)])
    assert rep["max_H_drift"] < 1e-10
    if family == "B":
        assert rep["q0_frozen"]


def test_eigenvalue_drift_metric():
    a = np.diag([1.0, 2.0, 3.0])
    b = np.diag([3.0 + 1e-8, 1.0, 2.0])
    assert cm.eigenvalue_drift(a, b) < 2e-8


def greedy_reference(l0, l1):
    """The greedy matching over Python lists: the closest remaining pair
    first, the first such pair in row-major order; the pairs, as indices
    into the eigenvalue arrays, and the largest distance."""
    a, b = list(enumerate(np.linalg.eigvals(l0))), list(enumerate(np.linalg.eigvals(l1)))
    pairs, worst = [], 0.0
    while a:
        i, j = min(((i, j) for i in range(len(a)) for j in range(len(b))),
                   key=lambda ij: abs(a[ij[0]][1] - b[ij[1]][1]))
        worst = max(worst, abs(a[i][1] - b[j][1]))
        pairs.append((a.pop(i)[0], b.pop(j)[0]))
    return pairs, worst


def test_eigenvalue_drift_is_the_greedy_matching():
    # random sets, sets with exactly tied distances (a lattice of values,
    # and repeated eigenvalues), and Lax matrices along a B3 run
    rng = np.random.default_rng(29)
    cases = [(rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k)),
              rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))) for k in range(1, 8) for _ in range(20)]
    for _ in range(40):
        k = int(rng.integers(2, 8))
        cases.append((np.diag(rng.integers(-2, 3, k) + 1j * rng.integers(-2, 3, k)),
                      np.diag(rng.integers(-2, 3, k) + 1j * rng.integers(-2, 3, k) + (1 + 1j) / 2)))
    cases.append((np.diag([1.0, 1.0, 2.0, 2.0]), np.diag([1.5, 1.5, 1.5, 0.5])))
    sys_, st = cm.conservation_initial_data("B", 3, rng)
    traj = cm.integrate(sys_, st, 0.1, 1e-3)
    zs = cm.conservation_z_samples(sys_.lattice)
    cases += list(zip(cm.lax_matrix(sys_, traj.state(0), zs), cm.lax_matrix(sys_, traj.state(-1), zs)))
    ties = 0
    for l0, l1 in cases:
        pairs, worst = greedy_reference(l0, l1)
        d = np.linalg.eigvals(l0)[:, None] - np.linalg.eigvals(l1)
        dist = np.hypot(d.real, d.imag)
        ties += len(np.unique(dist)) < dist.size
        assert cm._greedy_pairs(dist) == pairs
        assert cm.eigenvalue_drift(l0, l1) == worst
    assert ties > 40


def central_gradient(h, state):
    """Central differences (dh/dq, dh/dp) of h, scalar- or vector-valued, at
    the state: each coordinate x of q and p moves by 1e-6 (1 + |x|) either
    way.  The particle axis comes last, after the shape of h's value.  The
    oracle of the exact gradients; its own error, truncation and rounding,
    is about 1e-9 to 1e-7 of the gradient in these tests."""
    n = len(state.q)
    y = np.concatenate([state.q, state.p])
    cols = []
    for k in range(2 * n):
        step = 1e-6 * (1 + abs(y[k]))
        plus, minus = y.copy(), y.copy()
        plus[k] += step
        minus[k] -= step
        cols.append((h(cm.CMState(plus[:n], plus[n:])) - h(cm.CMState(minus[:n], minus[n:]))) / (2 * step))
    g = np.stack(cols, axis=-1)
    return g[..., :n], g[..., n:]


def poisson_bracket(ha, hb, state):
    """sum_i (dHa/dq_i dHb/dp_i - dHa/dp_i dHb/dq_i) from ``central_gradient``;
    exactly 0.0 when ha is hb."""
    if ha is hb:
        return 0.0
    (gqa, gpa), (gqb, gpb) = central_gradient(ha, state), central_gradient(hb, state)
    return complex(np.sum(gqa * gpb - gpa * gqb))


def oracle_table(sys_, st, specs):
    """``involution_table`` from the central-difference oracle, one bracket
    per pair."""
    fns = {s: partial(cm.residue_hamiltonian, sys_, m=s[1], power=s[0]) for s in specs}
    return {(a, b): abs(poisson_bracket(fns[a], fns[b], st))
            for i, a in enumerate(specs) for b in specs[i + 1:]}


def test_poisson_bracket_antisymmetric_and_identical_zero():
    sys_ = make("A", 2)
    st = state_for(sys_)
    h = partial(cm.residue_hamiltonian, sys_, m=1, power=2)
    assert poisson_bracket(h, h, st) == 0.0
    g = partial(cm.residue_hamiltonian, sys_, m=1, power=3)
    ab = poisson_bracket(h, g, st)
    ba = poisson_bracket(g, h, st)
    assert abs(ab + ba) < 1e-8 * max(1.0, abs(ab))


def test_momentum_commutes_with_hamiltonian():
    sys_ = make("A", 3)
    st = state_for(sys_)
    assert cm.involution_table(sys_, st, [(2, 1), (1, 1)])[(2, 1), (1, 1)] < 1e-8


def test_involution_table():
    sys_ = make("A", 3)
    st = state_for(sys_)
    table = cm.involution_table(sys_, st, [(2, 1), (3, 1)])
    assert max(table.values()) < 1e-6
    assert cm.involution_table(sys_, st, [(2, 1)]) == {}


def test_involution_table_takes_one_gradient_pass(monkeypatch):
    sys_ = make("A", 3)
    st = state_for(sys_)
    specs = [(2, 1), (3, 1), (4, 1)]
    pairwise = oracle_table(sys_, st, specs)
    calls = {"_circle": 0, "lax_matrix": 0, "check_state": 0, "_sigma": 0}

    def counted(owner, name):
        real = getattr(owner, name)

        def fn(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(owner, name, fn)

    for name in ("_circle", "lax_matrix", "check_state"):
        counted(cm, name)
    counted(sys_.lattice, "_sigma")
    table = cm.involution_table(sys_, st, specs)
    assert calls == {"_circle": 1, "lax_matrix": 0, "check_state": 1, "_sigma": 1}
    # the oracle's brackets are its own error, up to 1.4e-8 here; the exact
    # ones are rounding, up to 1.6e-14
    assert table.keys() == pairwise.keys()
    assert all(table[k] < 1e-12 and abs(table[k] - pairwise[k]) < 1e-7 for k in table)
    calls.update(dict.fromkeys(calls, 0))
    assert cm.involution_table(sys_, st, specs[:1]) == {} and not any(calls.values())


@pytest.mark.parametrize("lat", [LAT, SKEW], ids=["square", "skewed"])
@pytest.mark.parametrize("family,n", [("A", 3), ("B", 2), ("C", 3), ("D", 3)])
def test_lax_gradient_matches_the_oracle(family, n, lat):
    sys_, st = batch_case(family, n, lat)
    t = sys_._table
    L, dL = cm._lax(sys_, st, NODES, gradient=True)
    ref = cm.lax_matrix(sys_, st, NODES)
    assert np.abs(L - ref).max() <= 1e-14 * np.abs(ref).max()
    fd, fp = central_gradient(lambda s: cm.lax_matrix(sys_, s, NODES)[:, t.u, t.v], st)
    assert dL.shape == fd.shape == (len(NODES), len(t.u), n)
    assert np.abs(dL - fd).max() <= 1e-8 * np.abs(fd).max()
    # the off-diagonal entries do not depend on p
    assert not fp.any()


@pytest.mark.parametrize("family,n", [("A", 3), ("B", 2), ("C", 3), ("D", 3)])
def test_residue_gradients_match_the_oracle(family, n):
    # the oracle's error is its step's rounding, up to 1e-7 of the gradient
    # here, where the forces are 1e-4 of H
    sys_, st = cm.conservation_initial_data(family, n, np.random.default_rng(20240817))
    specs = [(2, 1), (4, 1), (4, 2)]
    gq, gp = cm._residue_gradients(sys_, st, specs)
    fq, fp = central_gradient(lambda s: cm._residues(sys_, s, specs), st)
    for got, want in ((gq, fq), (gp, fp)):
        assert np.abs(got - want).max() <= 1e-6 * np.abs(want).max()
    table, oracle = cm.involution_table(sys_, st, specs), oracle_table(sys_, st, specs)
    if family in ("A", "D"):
        assert max(table.values()) < 1e-16 and max(oracle.values()) < 1e-9
    else:
        # the brackets of the B and C residues do not vanish, and the two
        # routes agree on them
        assert all(abs(table[k] - oracle[k]) <= 1e-7 * max(oracle.values()) for k in table)
        assert max(table.values()) > 1e-4


def test_a_numerator_zero_on_the_contour_keeps_the_brackets_finite():
    # q_2 - q_1 = 3 is the circle's radius, so the numerator form z - (q_2 -
    # q_1) of L_21 is exactly 0 at node 0, where zeta(z - (q_2 - q_1)) has its
    # pole; numpy warnings are errors here
    sys_ = cm.CMSystem("A", 2, Lattice(40, 40j))
    st = cm.CMState(np.array([9.0, 12.0]), np.array([0.05, -0.03]))
    cm.check_state(sys_, st)
    w = cm._circle(sys_, st, 0.0)
    assert w[0] == st.q[1] - st.q[0]
    specs = [(2, 1), (3, 1), (4, 1)]
    with np.errstate(all="raise"):
        table = cm.involution_table(sys_, st, specs)
        L, dL = cm._lax(sys_, st, w, gradient=True)
    assert L[0, 1, 0] == 0 and np.isfinite(dL).all()
    oracle = oracle_table(sys_, st, specs)
    assert all(np.isfinite(v) and v < 1e-16 and abs(v - oracle[k]) < 1e-9 for k, v in table.items())


def test_lax_gradient_raises_the_lax_collision_errors():
    sys_ = make("A", 3)
    for q, kind, parts in (([0.9, 2.5, 2.5 + 1e-9], "q_i-q_j", (2, 3)), ([0.0, 1.0, 2.5], "q_i", (1,))):
        st = cm.CMState(np.array(q), np.zeros(3))
        errors = []
        for fn in (cm.lax_matrix, partial(cm._lax, gradient=True)):
            with pytest.raises(cm.CollisionError) as exc:
                fn(sys_, st, NODES)
            errors.append((str(exc.value), exc.value.kind, exc.value.particles))
        assert errors[0] == errors[1] and errors[0][1:] == (kind, parts)


def rk4_residue_flow(sys_, st, spec, t_end, dt):
    """rk4 on qdot = dH/dp, pdot = -dH/dq for the residue Hamiltonian of
    ``spec``, from its exact gradient."""
    n = sys_.n

    def rhs(y):
        gq, gp = cm._residue_gradients(sys_, cm.CMState(y[:n], y[n:]), [spec])
        return np.concatenate([gp[0], -gq[0]])

    y = np.concatenate([st.q, st.p])
    for _ in range(int(round(t_end / dt))):
        k1 = rhs(y)
        k2 = rhs(y + dt / 2 * k1)
        k3 = rhs(y + dt / 2 * k2)
        k4 = rhs(y + dt * k3)
        y = y + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return cm.CMState(y[:n], y[n:])


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("family", ["A", "D"])
def test_the_h4_flow_keeps_h2_and_the_spectrum(family, n):
    # the commutative hierarchy, dynamically: the flow of H_4 = res z^-1 tr
    # L^4 leaves the closed-form H_2 and the spectrum of L(z) where they are
    sys_, st = cm.conservation_initial_data(family, n, np.random.default_rng(20240817))
    end = rk4_residue_flow(sys_, st, (4, 1), 1.0, 1e-2)
    assert np.abs(end.q - st.q).max() > 1e-4
    h0 = cm.hamiltonian(sys_, st)
    assert abs(cm.hamiltonian(sys_, end) - h0) <= 1e-12 * abs(h0)
    zs = cm.conservation_z_samples(sys_.lattice)
    pairs = zip(cm.lax_matrix(sys_, st, zs), cm.lax_matrix(sys_, end, zs))
    assert max(cm.eigenvalue_drift(a, b) for a, b in pairs) <= 1e-12


@pytest.mark.parametrize("family", ["A", "D"])
def test_the_h2_and_h4_flows_commute(family):
    # {H_2, H_4} = 0 makes the two flows commute: H_2 then H_4 ends where H_4
    # then H_2 does.  B and C are left out: their brackets are not zero (the
    # strict xfail below), and the B H_4 flows run away (see CHANGES.md)
    sys_, st = cm.conservation_initial_data(family, 3, np.random.default_rng(20240817))

    def h2(s):
        traj = cm.integrate(sys_, s, 0.5, 1e-2)
        return traj.state(len(traj) - 1)

    def h4(s):
        return rk4_residue_flow(sys_, s, (4, 1), 0.5, 1e-2)

    a, b = h4(h2(st)), h2(h4(st))
    assert np.abs(a.q - st.q).max() > 1e-2
    assert np.abs(a.q - b.q).max() <= 1e-12 and np.abs(a.p - b.p).max() <= 1e-12


def test_contour_radius_guard_applies_to_every_residue():
    # q_2 - q_1 = 3e-3 |omega1| passes the collision guard of 1e-3 |omega1|,
    # but a circle at q_1 gets a third of it, below 10 guard radii
    sys_ = make("A", 2)
    st = cm.CMState(np.array([1.0, 1.0 + 3e-3 * abs(LAT.omega1)]), np.zeros(2))
    for fn in (lambda: cm._laurent(sys_, st, st.q[0], [-1]),
               lambda: cm.expansion_violations(sys_, st),
               lambda: cm.tyurin_residue_check(sys_, st)):
        with pytest.raises(ValueError, match="contour radius collides with a neighbouring pole"):
            fn()


@pytest.mark.xfail(strict=True,
                   reason="the symplectic-family constant-coupling Lax matrix has a "
                          "nonvanishing degree-one component at its moving points, so its "
                          "spectral invariants acquire poles there; no sp(2n) replacement "
                          "has been found, see CHANGES.md")
def test_c_family_invariants_regular_at_moving_points():
    sys_ = make("C")
    st = state_for(sys_)
    nodes, r = 96, 0.1
    acc = 0
    for k in range(nodes):
        zk = st.q[0] + r * np.exp(2j * np.pi * k / nodes)
        acc += np.trace(np.linalg.matrix_power(cm.lax_matrix(sys_, st, zk), 4)) * (zk - st.q[0])
    assert abs(acc / nodes) < 1e-10


@pytest.mark.xfail(strict=True,
                   reason="the odd-orthogonal-family Lax matrix fails the eigenvector "
                          "condition at the extra frozen point, so its spectrum moves "
                          "under the canonical flow; no so(2n+1) replacement has been "
                          "found, see CHANGES.md")
def test_b_family_isospectral_under_canonical_flow():
    rng = np.random.default_rng(17)
    sys_, st = cm.conservation_initial_data("B", 2, rng)
    w = abs(sys_.lattice.omega1)
    _, rep = cm.run_conservation(sys_, st, 1.0, 1e-3, z_samples=[complex(0.3 * w, 0.2 * w)])
    assert rep["max_spec_drift"] < 1e-6


@pytest.mark.xfail(strict=True,
                   reason="the B and C residue Hamiltonians are not in involution, the "
                          "bracket form of the B/C isospectrality reds of criterion 8: "
                          "{H_2, H_4} reads 0.12 (B2), 1.4 (B3), 1.6e-4 (C2) and 1.1e-3 (C3); "
                          "no so(2n+1) or sp(2n) replacement has been found, see CHANGES.md")
def test_b_and_c_residue_hamiltonians_in_involution():
    worst = 0.0
    for family in ("B", "C"):
        for n in (2, 3):
            sys_, st = cm.conservation_initial_data(family, n, np.random.default_rng(20240817))
            worst = max(worst, *cm.involution_table(sys_, st, [(2, 1), (4, 1)]).values())
    assert worst < 1e-6


# ---------------------------------------------------------------------------
# residue structure of the A-family Lax matrix
# ---------------------------------------------------------------------------


def test_tyurin_residues_rank_one_and_nilpotent():
    sys_ = make("A", 3)
    st = state_for(sys_)
    reports = cm.tyurin_residue_check(sys_, st)
    for rep in reports:
        assert rep["sv_ratio"] < 1e-9
        assert rep["square_ratio"] < 1e-9


def test_tyurin_single_particle_trivial():
    sys_ = make("A", 1)
    st = cm.CMState(np.array([1.7]), np.array([0.3]))
    assert cm.tyurin_residue_check(sys_, st)[0]["sv_ratio"] == 0.0


def test_tyurin_flow_probe():
    rng = np.random.default_rng(21)
    sys_, st = cm.conservation_initial_data("A", 2, rng)
    dt = 1e-4
    traj = cm.integrate(sys_, st, 10 * dt, dt)
    mid = len(traj) // 2
    probe = (traj.state(mid - 1), traj.state(mid + 1), dt)
    for rep in cm.tyurin_residue_check(sys_, traj.state(mid), flow_probe=probe):
        assert rep["flow_mismatch"] < 1e-6
    with pytest.raises(ValueError):
        cm.tyurin_residue_check(make("D"), state_for(make("D")))


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


def test_trajectory_csv_schema(tmp_path):
    sys_ = make("A", 2)
    st = state_for(sys_)
    traj = cm.integrate(sys_, st, 0.02, 1e-2)
    path = tmp_path / "traj.csv"
    cm.write_trajectory_csv(path, sys_, traj, z_samples=[0.4 + 0.3j])
    rows = list(csv.reader(open(path)))
    assert rows[0] == ["t", "q_1", "q_2", "p_1", "p_2", "H", "inv_p2_z1"]
    assert len(rows) == 1 + len(traj)
    cm.write_trajectory_csv(path, sys_, traj, truncated=True)
    rows = list(csv.reader(open(path)))
    assert rows[-1][0] == "TRUNCATED"
