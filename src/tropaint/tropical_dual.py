"""Min-plus polynomials and the dual complex of a regular subdivision.

A lifting eta turns the configuration into the piecewise linear concave
function u -> min_a (u(a) + eta(a)) on the dual space.  Its domains of
linearity form a polyhedral complex whose face lattice is anti-isomorphic to
the induced subdivision; cells are built here dually, from the subdivision,
so the correspondence holds by construction.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InputError
from .geometry import _dot, _int_row
from .point_config import PointConfiguration
from .regular_subdivision import Lifting, Subdivision, _face_dims, induce_subdivision


class TropicalPolynomial:
    """u -> min over configuration points a of u(a) + eta(a)."""

    def __init__(self, config: PointConfiguration, eta: Lifting):
        if len(eta) != len(config.points):
            raise InputError("lifting length mismatch")
        self.config = config
        self.eta = eta
        self._eta_row = _int_row(eta.values)

    def __call__(self, u) -> Fraction:
        return evaluate(self, u)[0]


def evaluate(f: TropicalPolynomial, u) -> tuple[Fraction, frozenset[int]]:
    """Minimum value at u together with the set of indices attaining it.

    The argmin runs on ints: with the points L a as config.integer_points
    give them, u = U / D_u and eta = E / D_eta, the row f reads once, L D_u
    D_eta times the value at a is (U . L a) D_eta + E(a) L D_u, and only the
    minimum becomes a Fraction.  Raises InputError when u has the wrong
    dimension.
    """
    rows, scale = f.config.integer_points
    *uu, du = _int_row(u)
    if len(uu) != f.config.dimension:
        raise InputError(f"a point with {len(uu)} coordinates in R^{f.config.dimension}")
    *heights, de = f._eta_row
    shift = scale * du
    # _dot stops at u's end, before each row's trailing 1
    vals = [_dot(uu, row) * de + h * shift for row, h in zip(rows, heights)]
    best = min(vals)
    return Fraction(best, shift * de), frozenset(i for i, v in enumerate(vals) if v == best)


class TropicalCell:
    """One cell of the dual complex, in V-representation.

    The cell is the convex hull of vertices plus the nonnegative span of
    rays, both kept in the order given.  marking lists the configuration
    indices whose affine pieces all attain the minimum everywhere on the
    cell; on the relative interior no other index does.  Colors live on a
    PaintedComplex, not on the cell.
    """

    __slots__ = ("vertices", "rays", "marking", "dimension")

    def __init__(self, vertices, rays, marking, dimension):
        self.vertices = tuple(vertices)
        self.rays = tuple(rays)
        self.marking = frozenset(marking)
        self.dimension = dimension

    def is_compact(self) -> bool:
        return not self.rays

    def __repr__(self):
        return f"TropicalCell(dim {self.dimension}, marking {sorted(self.marking)})"


class TropicalComplex:
    """All cells dual to the cells of one induced subdivision, keyed by marking.

    The face relation reverses mark inclusion: a cell is a face of another
    exactly when its marking strictly contains the other's.
    """

    def __init__(self, config, eta, subdivision, cells):
        self.config = config
        self.eta = eta
        self.subdivision = subdivision
        self.cells: dict[frozenset[int], TropicalCell] = cells
        self.dimension = config.dimension

    def cells_of_dim(self, k: int) -> list[TropicalCell]:
        return sorted(
            (c for c in self.cells.values() if c.dimension == k),
            key=lambda c: sorted(c.marking),
        )

    def face_pairs(self) -> list[tuple[frozenset[int], frozenset[int]]]:
        """(face marking, cell marking) pairs; face iff marking strictly grows."""
        keys = sorted(self.cells, key=sorted)
        return [(a, b) for a in keys for b in keys if a != b and b < a]

    def __repr__(self):
        return f"TropicalComplex({len(self.cells)} cells, dim {self.dimension})"


def dual_complex(config: PointConfiguration, eta) -> tuple[TropicalComplex, Subdivision]:
    """The complex of linearity domains of the min-plus polynomial of eta.

    Each subdivision cell contributes one dual cell: its vertices are the
    slopes of the supports of the maximal cells containing it, its rays the
    inward normals of the polytope facets containing it.  Its dimension is
    the complement of the subdivision cell's.  The cells run on int
    bitmasks, bit i for point i: _face_dims grades the faces of the maximal
    cells' masks from incidences, as Subdivision.cells does, and a cell lies
    in a maximal cell or a facet when its mask is a submask of the other's.
    Each marking becomes a frozenset once, and the subdivision's .cells is
    left unbuilt.  The test suite checks both dimensions against affine
    ranks, and that compactness matches interiority.  Slopes and normals are
    sorted once, so each cell lists both in lexicographic order.
    """
    if not isinstance(eta, Lifting):
        eta = Lifting.of(config, eta)
    s = induce_subdivision(config, eta)
    tops = s.tops
    slopes = sorted(zip((mc.support.linear for mc in s.maximal), tops))
    normals = sorted(zip((f.normal for f in config.facets), config.facet_masks))
    cells: dict[frozenset[int], TropicalCell] = {}
    for mask, dim in _face_dims(config, tops).items():
        marks = frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)
        verts = [u for u, top in slopes if mask & top == mask]
        rays = [r for r, top in normals if mask & top == mask]
        cells[marks] = TropicalCell(verts, rays, marks, config.dimension - dim)
    return TropicalComplex(config, eta, s, cells), s
