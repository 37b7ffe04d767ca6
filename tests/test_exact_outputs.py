"""Pinned exact genus-zero outputs.

Each digest is the sha256 of the reduced (num, den) coefficient tuples (or of
the JSON table) that the library computed when the digest was recorded.  A
change of representation or algorithm must leave every one of them as it is;
a digest changes only with a deliberate change of the mathematics, recorded
in CHANGES.md.
"""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from laxkit import cli, formal, liealg, sphere
from laxkit.ratfunc import INF


def _digest(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def _entries(mat):
    return tuple(tuple((tuple(str(c) for c in e.num.coeffs), tuple(str(c) for c in e.den.coeffs))
                       for e in row) for row in mat.rows)


def test_dims_suite_slices_are_pinned():
    slices = tuple(
        tuple(_entries(b) for b in sphere.build_homogeneous_subspace(cfg, m, check_dim=False).basis)
        for _, _, _, cfg in cli._dims_configs(0) for m in range(-2, 3))
    assert _digest(slices) == "eee05cfed6c3b98fe4f72b36f5bf1d58b1b7f4e4898f6c2557e75474a8b578ce"


def _framed_depth_two_configs(seed):
    """Framed so(5) (root 2) and sp(6) (root 1), both at depth 2, with one P
    point, Q at infinity and two framed gamma points, drawn the way
    ``cli._dims_configs`` draws its points and frames (shapes the dims suite
    does not reach)."""
    rng = random.Random(seed)
    pts = lambda: Fraction(rng.randint(-40, 40), rng.randint(1, 7))
    out = {}
    for kind, rank, root in (("so_odd", 2, 2), ("sp", 3, 1)):
        alg, dec = liealg.catalog_grading(kind, rank, root)
        while True:
            p_points = (pts(),)
            gammas = tuple(sorted({pts() for _ in range(2)}))
            frames = tuple(formal.random_group_element(alg, rng) for _ in gammas)
            if len(gammas) == 2 and p_points[0] not in gammas:
                out[kind] = sphere.SphereConfig(dec, p_points, (INF,), gammas, frames)
                break
    return out


@pytest.mark.parametrize("kind,digest", [
    ("so_odd", "3f4184c76acb7c415ff4dbef03015c4a713dc215335ed43721344e0569bfa626"),
    ("sp", "5ef2eb9872f50b12eb57050188d4cf4b8bbd38f7c08c483fc078f3c27a25eed8"),
])
def test_framed_depth_two_slices_are_pinned(kind, digest):
    cfg = _framed_depth_two_configs(0)[kind]
    slices = tuple(tuple(_entries(b) for b in sphere.build_homogeneous_subspace(cfg, m).basis)
                   for m in (-1, 0, 1))
    assert _digest(slices) == digest


def test_mops_suite_matrices_are_pinned():
    mats = tuple(_entries(res.matrix) for res, _ in cli._mop_samples(0))
    assert len(mats) == 3
    assert _digest(mats) == "8a93b47823101b674418afd84a04ca0ec0381e5be06e433aeb7416536fab5a9a"


def test_cocycle_table_is_pinned():
    cfg, window, omega = cli._gl2_cocycle_setup()
    table = json.dumps(sphere.cocycle_table_json(cfg, window, omega), sort_keys=True)
    assert _digest(table) == "82699df42754a25e648958a50ebe7c194515007e6e98b400e88b95816c0d3fa0"


def _report_key(rep):
    return (rep.ok, [(str(g), bad) for g, bad in rep.gamma_residuals.items()],
            [tuple(map(str, v)) for v in rep.divisor_violations],
            [(str(g), str(nu)) for g, nu in rep.nu.items()])


def test_mops_suite_reports_are_pinned():
    out = tuple((res.prenorm_dim, [(str(g), str(nu)) for g, nu in res.nu.items()], _report_key(rep))
                for res, rep in cli._mop_samples(0))
    assert len(out) == 3
    assert _digest(out) == "c6b72f2e78052399fca3763e7d18400b94a6402bfc07348ca98ccaabe97e398e"


def _series(e):
    return (e.trunc, tuple((p, tuple(tuple(str(c) for c in r) for r in m.rows))
                           for p, m in sorted(e.coeffs.items())))


def test_catalog_degrees_and_closure_expansions_are_pinned():
    # the degrees of every catalog grading and the first 64 expansion pairs
    # per grading that the exact-closure benchmark draws for seed 1
    rng = random.Random(1)
    out = []
    for kind, rank, root in liealg.acceptance_catalog():
        _, dec = liealg.catalog_grading(kind, rank, root)
        pairs = tuple((_series(formal.random_lax_expansion(dec, rng)),
                       _series(formal.random_lax_expansion(dec, rng))) for _ in range(64))
        out.append((kind, rank, root, dec.degrees, pairs))
    assert _digest([entry[:4] for entry in out]) == \
        "1ef7309a19b2e62d3b8e155e84d45e387e18e2ec54ddd000a413640a1726865b"
    assert _digest(out) == "304268229bb92e1263ff92e83e542c5a9d2c543aad4fd0c5787f814b63bf8ca1"
