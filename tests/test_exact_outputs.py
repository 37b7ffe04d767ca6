"""Pinned exact genus-zero outputs.

Each digest is the sha256 of the reduced (num, den) coefficient tuples (or of
the JSON table) that the library computed when the digest was recorded.  A
change of representation or algorithm must leave every one of them as it is;
a digest changes only with a deliberate change of the mathematics, recorded
in CHANGES.md.
"""

import hashlib
import json

from laxkit import cli, sphere


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


def test_mops_suite_matrices_are_pinned():
    mats = tuple(_entries(res.matrix) for res, _ in cli._mop_samples(0))
    assert len(mats) == 3
    assert _digest(mats) == "8a93b47823101b674418afd84a04ca0ec0381e5be06e433aeb7416536fab5a9a"


def test_cocycle_table_is_pinned():
    cfg, window, omega = cli._gl2_cocycle_setup(0)
    table = json.dumps(sphere.cocycle_table_json(cfg, window, omega), sort_keys=True)
    assert _digest(table) == "82699df42754a25e648958a50ebe7c194515007e6e98b400e88b95816c0d3fa0"
