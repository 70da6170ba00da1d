"""Volume vectors of coherent triangulations and the polytope they span.

Each triangulation T gets the vector whose coordinate at a point a is the
total normalized volume of the simplices of T having a as a mark.  These
vectors are the vertices of a polytope whose face lattice mirrors the
refinement poset of all coherent subdivisions; the lattice is assembled here
straight from that poset, with the ranks its enumerator read off the face
masks of the secondary fan.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DegenerateInputError, InputError
from .geometry import _int_det
from .lattice import FaceLattice, Poset, graded_lattice
from .point_config import PointConfiguration
from .regular_subdivision import (
    Subdivision,
    enumerate_coherent_subdivisions,
    is_triangulation,
)

ZERO = Fraction(0)


@dataclass(frozen=True)
class GKZVector:
    """Per-point accumulated simplex volumes of one triangulation."""

    coordinates: tuple[Fraction, ...]


def gkz_vector(config: PointConfiguration, t: Subdivision) -> GKZVector:
    if not is_triangulation(t):
        raise InputError("volume vector requires a triangulation")
    # d + 1 integer rows (L p, 1) have determinant L^d times their simplex's
    # normalized volume, up to sign
    rows, scale = config.integer_points
    den = scale**config.dimension
    coords = [ZERO] * len(config.points)
    for cell in t.maximal:
        det = _int_det([rows[i] for i in sorted(cell.marks)])
        if not det:
            raise DegenerateInputError(f"cell {sorted(cell.marks)} is not full-dimensional")
        vol = Fraction(abs(det), den)
        for i in cell.marks:
            coords[i] += vol
    return GKZVector(tuple(coords))


def secondary_polytope_vertices(config: PointConfiguration, poset: Poset | None = None):
    """(GKZVector, Subdivision) per coherent triangulation; vectors verified distinct."""
    if poset is None:
        poset = enumerate_coherent_subdivisions(config)
    out = []
    for s in poset.elements:
        if is_triangulation(s):
            out.append((gkz_vector(config, s), s))
    seen = {}
    for vec, s in out:
        if vec.coordinates in seen:
            raise InputError("two triangulations share a volume vector")
        seen[vec.coordinates] = s
    return out


def face_lattice_from_poset(poset: Poset) -> FaceLattice:
    """The poset's Hasse diagram graded by the ranks that
    enumerate_coherent_subdivisions read off the secondary fan; InputError
    for a poset without ranks."""
    if poset.ranks is None:
        raise InputError("the poset carries no ranks; enumerate_coherent_subdivisions gives them")
    payload = [
        "|".join(",".join(str(i) for i in sorted(m)) for m in sorted(s.key, key=sorted))
        for s in poset.elements
    ]
    return graded_lattice(poset.ranks, poset.covers(), payload)
