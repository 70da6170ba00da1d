"""Exact rational toolkit for regular subdivisions, tropical dual complexes,
painted complexes, secondary polytopes, and multiplihedra."""

from .errors import (
    DegenerateInputError,
    InconsistencyError,
    InputError,
    NoCertificateError,
    ResourceCapError,
    VerificationError,
)
from .geometry import AffineFunctional, affine_rank
from .lattice import FaceLattice, graded_lattice, lattice_isomorphic
from .multiplihedra import (
    PaintedTree,
    admissible_alpha,
    multiplihedron_lattice,
    ngon_configuration,
    painted_tree_of,
    realize_edge_lengths,
    realize_painted_tree,
    verify_multiplihedron_theorem,
)
from .painting import (
    ColorFunction,
    PaintedComplex,
    PaintSpec,
    colors_from_vertices,
    enumerate_painted_complexes,
    paint,
    painting_cone,
)
from .painting_polytope import extend, verify_main_theorem
from .point_config import PointConfiguration, build_configuration, sign_vector
from .regular_subdivision import (
    Lifting,
    Subdivision,
    enumerate_coherent_subdivisions,
    enumerate_regular_triangulations,
    induce_subdivision,
    is_triangulation,
    secondary_cone,
)
from .secondary_polytope import secondary_polytope_vertices
from .tropical_dual import TropicalComplex, TropicalPolynomial, dual_complex, evaluate

__all__ = [
    "AffineFunctional",
    "ColorFunction",
    "DegenerateInputError",
    "FaceLattice",
    "InconsistencyError",
    "InputError",
    "Lifting",
    "NoCertificateError",
    "PaintSpec",
    "PaintedComplex",
    "PaintedTree",
    "PointConfiguration",
    "ResourceCapError",
    "Subdivision",
    "TropicalComplex",
    "TropicalPolynomial",
    "VerificationError",
    "admissible_alpha",
    "affine_rank",
    "build_configuration",
    "colors_from_vertices",
    "dual_complex",
    "enumerate_coherent_subdivisions",
    "enumerate_painted_complexes",
    "enumerate_regular_triangulations",
    "evaluate",
    "extend",
    "graded_lattice",
    "induce_subdivision",
    "is_triangulation",
    "lattice_isomorphic",
    "multiplihedron_lattice",
    "ngon_configuration",
    "paint",
    "painted_tree_of",
    "painting_cone",
    "realize_edge_lengths",
    "realize_painted_tree",
    "secondary_cone",
    "secondary_polytope_vertices",
    "sign_vector",
    "verify_main_theorem",
    "verify_multiplihedron_theorem",
]
