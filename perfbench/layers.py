"""Functions the traced run wraps, and what each one is expected to move.

Each entry names a public function of one of the seven library modules, the
attribute path under which the module defines it, the extra counters the
traced run records for it, and the end-to-end metrics (by workload) that a
change to that function should move.  ``ROADMAP_PREDICTIONS`` records, for
the next three roadmap items, which workloads should move and which should
show no change beyond the benchmark's bounds.
"""

from __future__ import annotations

from collections import namedtuple

Layer = namedtuple("Layer", "module attr name extras moves")


def _layer(module, attr, moves, extras=(), name=None):
    return Layer(module, attr, f"{module}.{name or attr}", tuple(extras), moves)


_SPHERE = "ops_per_s, op_p90_ms on sphere-slices"
_ELL_BOTH = "cm-dynamics and cm-residue"

LAYERS = (
    _layer("exact", "Mat.comm", "ops_per_s, setup_s on exact-closure"),
    _layer("exact", "rref", _SPHERE, extras=("cells",)),
    _layer("exact", "nullspace", _SPHERE),
    _layer("exact", "rank", _SPHERE),
    _layer("liealg", "catalog_grading", "setup_s on exact-closure"),
    _layer("liealg", "GradedDecomposition.has_violation", "op_p50_ms on exact-closure"),
    _layer("liealg", "GradedDecomposition.project", "op_p50_ms on exact-closure"),
    _layer("formal", "random_lax_expansion", "setup_s on exact-closure"),
    _layer("formal", "commutator", "op_p50_ms on exact-closure"),
    _layer("formal", "validate_lax", "op_p50_ms on exact-closure"),
    _layer("formal", "random_group_element", "setup_s on sphere-slices"),
    _layer("ratfunc", "Poly.gcd", _SPHERE),
    _layer("ratfunc", "RatFunc.laurent_at", _SPHERE),
    _layer("ratfunc", "RationalMatrix.__add__", _SPHERE, name="RationalMatrix.add"),
    _layer("ratfunc", "RationalMatrix.comm", _SPHERE),
    _layer("sphere", "section_basis", "sphere-slices"),
    _layer("sphere", "build_homogeneous_subspace", "sphere-slices"),
    _layer("sphere", "build_lax_space", "sphere-slices"),
    _layer("sphere", "cocycle_eta", "sphere-slices"),
    _layer("sphere", "construct_m_operator", "sphere-slices"),
    _layer("sphere", "lax_tangency_check", "sphere-slices"),
    _layer("elliptic", "Lattice.wp_prime", "ops_per_s on cm-dynamics",
           extras=("args", "us_per_arg")),
    _layer("elliptic", "Lattice.sigma", "ops_per_s, op_p50_ms on cm-residue",
           extras=("args", "us_per_arg")),
    _layer("elliptic", "Lattice.wp", _ELL_BOTH, extras=("args", "us_per_arg")),
    _layer("elliptic", "Lattice.lattice_distance", _ELL_BOTH, extras=("args",)),
    _layer("calogero", "check_state", _ELL_BOTH),
    _layer("calogero", "lax_matrix",
           "cm-residue (64 calls per op); the diagnostics share of cm-dynamics"),
    _layer("calogero", "equations_of_motion", "cm-dynamics (4 calls per rk4 step)"),
    _layer("calogero", "hamiltonian", _ELL_BOTH),
    _layer("calogero", "eigenvalue_drift", "cm-dynamics"),
    _layer("calogero", "integrate", "cm-dynamics"),
    _layer("calogero", "residue_hamiltonian", "cm-residue"),
)

# layers whose set-up share the traced run reports as setup.<layer>.self_s
SETUP_LAYERS = (
    "exact.Mat.comm",
    "exact.rank",
    "exact.rref",
    "liealg.catalog_grading",
    "formal.random_lax_expansion",
    "formal.random_group_element",
    "sphere.build_homogeneous_subspace",
    "sphere.build_lax_space",
)

# per-layer metric suffix -> (unit, better); values are per traced op, except
# the setup.* metrics, which are totals over the one traced set-up
SUFFIX_UNITS = {
    "calls": ("1/op", "lower"),
    "self_s": ("s/op", "lower"),
    "cells": ("1/op", "lower"),
    "args": ("1/op", "lower"),
    "us_per_arg": ("us", "lower"),
}

# trace-level metrics: (name, unit, better)
TRACE_METRICS = (
    ("trace.ops", "count", "higher"),
    ("trace.ops_per_s", "1/s", "higher"),
    ("trace.untraced_ops_per_s", "1/s", "higher"),
    ("trace.slowdown", "x", "lower"),
    ("trace.outcome_mismatches", "count", "lower"),
)


def per_layer_metrics():
    """(name, unit, better) of every metric a traced run reports."""
    out = list(TRACE_METRICS)
    out += [(f"setup.{name}.self_s", "s", "lower") for name in SETUP_LAYERS]
    for layer in LAYERS:
        for suffix in ("calls", "self_s") + layer.extras:
            unit, better = SUFFIX_UNITS[suffix]
            out.append((f"{layer.name}.{suffix}", unit, better))
    return out


ROADMAP_PREDICTIONS = {
    "2 integral G2 realization": {
        "moves": {"exact-closure": ["ops_per_s", "setup_s"]},
        "no_change": ["sphere-slices", "cm-dynamics", "cm-residue"],
        "layers": ["exact.Mat.comm", "liealg.catalog_grading", "formal.random_lax_expansion"],
    },
    "3a fused equations of motion and ensemble axis": {
        "moves": {"cm-dynamics": ["ops_per_s", "op_p50_ms", "op_p90_ms"]},
        "no_change": ["exact-closure", "sphere-slices", "cm-residue"],
        "layers": ["elliptic.Lattice.wp_prime", "calogero.equations_of_motion",
                   "calogero.check_state", "calogero.integrate"],
    },
    "3b contour nodes as a batch axis": {
        "moves": {"cm-residue": ["ops_per_s", "op_p50_ms", "op_p90_ms"]},
        "no_change": ["exact-closure", "sphere-slices", "cm-dynamics"],
        "layers": ["elliptic.Lattice.sigma", "calogero.lax_matrix",
                   "calogero.residue_hamiltonian"],
    },
    "4 common-denominator slices": {
        "moves": {"sphere-slices": ["ops_per_s", "op_p90_ms"]},
        "no_change": ["exact-closure", "cm-dynamics", "cm-residue"],
        "layers": ["ratfunc.Poly.gcd", "ratfunc.RationalMatrix.add", "exact.rref",
                   "exact.nullspace"],
    },
}
