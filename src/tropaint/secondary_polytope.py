"""Volume vectors of coherent triangulations and the polytope they span.

Each triangulation T gets the vector whose coordinate at a point a is the
total normalized volume of the simplices of T having a as a mark.  These
vectors are the vertices of a polytope whose face lattice mirrors the
refinement order of all coherent subdivisions.  enumerate_coherent_subdivisions
reads that lattice, its ranks and covers, off the face masks of the secondary
fan.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DegenerateInputError, InputError
from .lattice import FaceLattice
from .point_config import PointConfiguration
from .regular_subdivision import Subdivision, is_triangulation

ZERO = Fraction(0)


@dataclass(frozen=True)
class GKZVector:
    """Per-point accumulated simplex volumes of one triangulation."""

    coordinates: tuple[Fraction, ...]


def gkz_vector(config: PointConfiguration, t: Subdivision) -> GKZVector:
    """The volume vector of the triangulation t.  Each cell's volume is
    config.scaled_volume, L^d times its normalized volume, which the
    configuration keeps: after the walk has certified t, whose volume check
    reads the same determinants, no determinant is computed again."""
    if not is_triangulation(t):
        raise InputError("volume vector requires a triangulation")
    _, scale = config.integer_points
    den = scale**config.dimension
    coords = [ZERO] * len(config.points)
    for cell, top in zip(t.maximal, t.tops):
        vol = Fraction(config.scaled_volume(top), den)
        if not vol:
            raise DegenerateInputError(f"cell {sorted(cell.marks)} is not full-dimensional")
        for i in cell.marks:
            coords[i] += vol
    return GKZVector(tuple(coords))


def secondary_polytope_vertices(config: PointConfiguration, lattice: FaceLattice):
    """(GKZVector, Subdivision) per coherent triangulation of the lattice that
    enumerate_coherent_subdivisions gives; vectors verified distinct."""
    out = []
    for s in lattice.payload:
        if is_triangulation(s):
            out.append((gkz_vector(config, s), s))
    seen = {}
    for vec, s in out:
        if vec.coordinates in seen:
            raise InputError("two triangulations share a volume vector")
        seen[vec.coordinates] = s
    return out
