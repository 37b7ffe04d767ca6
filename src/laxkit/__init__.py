"""Lax operator algebras from Z-gradings, genus-zero verification, and
elliptic Calogero-Moser systems."""

from . import calogero, elliptic, exact, formal, liealg, ratfunc, sphere
from .elliptic import Lattice, PoleProximityError
from .exact import Mat
from .liealg import (
    GradedDecomposition,
    MatrixAlgebra,
    RootSystem,
    catalog_grading,
    graded_subspaces,
    matrix_realization,
)
from .ratfunc import INF, RatFunc, RationalMatrix

__version__ = "0.1.0"

__all__ = [
    "calogero",
    "elliptic",
    "exact",
    "formal",
    "liealg",
    "ratfunc",
    "sphere",
    "Lattice",
    "PoleProximityError",
    "Mat",
    "GradedDecomposition",
    "MatrixAlgebra",
    "RootSystem",
    "catalog_grading",
    "graded_subspaces",
    "matrix_realization",
    "INF",
    "RatFunc",
    "RationalMatrix",
    "__version__",
]
