"""Three-coloring of dual complexes by an affine comparison level.

Fix a distinguished point alpha inside the configuration's span and a level c.
On each cell of the dual complex the min-plus function is affine, so the sign
of g = f(u) - u(alpha) - c over a cell is decided exactly by its signs at the
cell's vertices, which are 0-cells, and its slopes along the cell's rays,
which are inward normals of the configuration's facets.  Along the normal of a
facet F the slope has the sign of alpha against F, F's entry of sign_vector,
so g is evaluated once per 0-cell, never per cell, as an integer numerator
over a positive denominator.  A cell is red when g stays positive on the
relative interior, blue when negative, purple when g vanishes somewhere
inside.  Zeros attained only on a proper face do not count: an edge with
one purple and one red endpoint is red.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd

from .errors import InconsistencyError, InputError, NoCertificateError
from .geometry import Vec, _circuit_dependence, _dot, _int_row, as_fraction, vector
from .lattice import FaceLattice
from .point_config import PointConfiguration, SignVector, sign_vector
from .regular_subdivision import (
    Lifting,
    SecondaryCone,
    _certify_cone,
    _fan_lattice,
    _spanning_marks,
    enumerate_regular_triangulations,
    secondary_cone,
)
from .tropical_dual import TropicalComplex, dual_complex

RED = "red"
PURPLE = "purple"
BLUE = "blue"
COLORS = (RED, PURPLE, BLUE)


@dataclass(frozen=True)
class PaintSpec:
    """A lifting together with the comparison level and distinguished point."""

    eta: Lifting
    c: Fraction
    alpha: Vec

    @staticmethod
    def of(config: PointConfiguration, eta, c, alpha) -> "PaintSpec":
        eta = Lifting.of(config, eta)
        alpha = vector(alpha)
        if len(alpha) != config.dimension:
            raise InputError("alpha dimension mismatch")
        return PaintSpec(eta, as_fraction(c), alpha)


class ColorFunction:
    """Total map from cell markings to red/purple/blue."""

    def __init__(self, colors: dict):
        bad = {v for v in colors.values() if v not in COLORS}
        if bad:
            raise InputError(f"unknown colors {sorted(bad)}")
        self.colors = dict(colors)

    def __getitem__(self, marking) -> str:
        return self.colors[marking]

    def items(self):
        return self.colors.items()

    def key(self) -> tuple:
        return tuple(
            (tuple(sorted(m)), col)
            for m, col in sorted(self.colors.items(), key=lambda kv: sorted(kv[0]))
        )

    def __eq__(self, other):
        return isinstance(other, ColorFunction) and self.colors == other.colors

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        counts = {col: 0 for col in COLORS}
        for col in self.colors.values():
            counts[col] += 1
        return f"ColorFunction({counts})"


class PaintedComplex:
    """A dual complex with a realizable coloring and the witness that realizes it."""

    __slots__ = ("complex", "kappa", "spec")

    def __init__(self, complex: TropicalComplex, kappa: ColorFunction, spec: PaintSpec):
        self.complex = complex
        self.kappa = kappa
        self.spec = spec

    @property
    def subdivision(self):
        return self.complex.subdivision

    def key(self) -> tuple:
        return (self.subdivision.key, self.kappa.key())

    def __repr__(self):
        return f"PaintedComplex({len(self.complex.cells)} cells)"


def _comparison(config: PointConfiguration, spec: PaintSpec, marks, u) -> tuple[int, int]:
    """g at a point u of the dual cell of a marking, u.a + eta(a) - u.alpha - c,
    as an integer numerator over a positive denominator.

    Every mark a of the cell gives the same function there; the least one is
    used.  With L a from config.integer_points, u = U / D_u, alpha = A / D_a
    and eta(a) - c = h / D_h, L D_u D_a D_h g is U . (D_a L a - L A) D_h +
    h L D_u D_a, with no Fraction built.
    """
    rows, scale = config.integer_points
    a = min(marks)
    *uu, du = _int_row(u)
    *al, da = _int_row(spec.alpha)
    e, c = spec.eta[a], spec.c
    h, dh = e.numerator * c.denominator - c.numerator * e.denominator, e.denominator * c.denominator
    slope = [da * x - scale * y for x, y in zip(rows[a], al)]
    den = scale * du * da
    return _dot(uu, slope) * dh + h * den, den * dh


def paint(p: TropicalComplex, spec: PaintSpec) -> PaintedComplex:
    """Color every cell of p by the exact sign behavior of g on it.

    g's sign is read once at each 0-cell's vertex, off _comparison's
    numerator, and its slope signs along the rays are sign_vector(config,
    alpha); colors_from_vertices extends both to every cell.  p must be the
    dual complex of spec.eta itself: the vertices are read off p, so the
    heights must be the ones that built it.  A lifting that only induces the
    same subdivision moves the vertices and would color them for another
    function, so it raises InputError.
    """
    config = p.config
    if len(spec.alpha) != config.dimension:
        raise InputError("alpha dimension mismatch")
    if spec.eta.values != p.eta.values:
        raise InputError("lifting is not the one that built the given complex")
    vertex_colors = {}
    for marks, cell in p.cells.items():
        if cell.dimension == 0:
            g, _ = _comparison(config, spec, marks, cell.vertices[0])
            vertex_colors[marks] = RED if g > 0 else BLUE if g < 0 else PURPLE
    kappa = colors_from_vertices(p, vertex_colors, sign_vector(config, spec.alpha))
    return PaintedComplex(p, kappa, spec)


def colors_from_vertices(
    p: TropicalComplex, vertex_colors: dict, sign: SignVector
) -> ColorFunction:
    """Extend a coloring of the 0-cells to the whole complex.

    The 0-cell colors are g's signs at the vertices, and the sign vector,
    which needs one entry per facet, gives g's slope sign along each facet's
    normal.  A cell is red or blue when its vertices and rays show that sign
    and not the other, purple otherwise.
    """
    facets = p.config.facets
    if len(sign.signs) != len(facets):
        raise InputError(f"{len(sign.signs)} signs for {len(facets)} facets")
    zero_cells = [c.marking for c in p.cells.values() if c.dimension == 0]
    for m in zero_cells:
        if m not in vertex_colors:
            raise InconsistencyError(f"no color for 0-cell {sorted(m)}")
        if vertex_colors[m] not in COLORS:
            raise InconsistencyError(f"bad color {vertex_colors[m]!r}")
    color_of = {1: RED, 0: PURPLE, -1: BLUE}
    ray_colors = [(f.members, color_of[s]) for f, s in zip(facets, sign.signs)]
    colors = {}
    for marks in p.cells:
        cols = {vertex_colors[m] for m in zero_cells if marks <= m}
        cols.update(col for m, col in ray_colors if marks <= m)
        cols.discard(PURPLE)
        colors[marks] = cols.pop() if len(cols) == 1 else PURPLE  # both signs or none
    return ColorFunction(colors)


def painting_constraint(config: PointConfiguration, marking, alpha) -> tuple[int, ...]:
    """The linear form on (lifting, level) space attached to a 0-cell, as
    its integer coefficients: its sign at (eta, c) is the sign of g at that
    0-cell's vertex, so its color.

    Writing alpha = sum_j b_j p_j over the marking's spanning marks, g there
    is sum_j b_j eta(p_j) - c.  Up to a positive factor, that is the affine
    dependence of the spanning marks and alpha: the signed maximal minors of
    their rows (L p, 1) and alpha's row, scaled by alpha's denominator D to
    integers, with no system solved.  alpha's coefficient, times D, goes to
    the level and is made negative; it is a maximal minor of the marks'
    rows, nonzero exactly when they span.
    """
    rows, scale = config.integer_points
    alpha = vector(alpha)
    basis = _spanning_marks(config, marking)
    if len(basis) <= config.dimension:
        raise InputError("marking does not span the distinguished point")
    *coords, den = _int_row(alpha)
    circuit = [rows[i] for i in basis]
    circuit.append(tuple(scale * x for x in coords) + (den,))
    dep = _circuit_dependence(circuit)
    if any(sum(c * row[k] for c, row in zip(dep, circuit)) for k in range(len(circuit[0]))):
        raise InconsistencyError("the dependence misses the distinguished point")
    level = dep[-1] * den
    g = gcd(level, *dep[:-1]) if level < 0 else -gcd(level, *dep[:-1])
    linear = [0] * (len(rows) + 1)
    for i, c in zip(basis, dep):
        linear[i] = c // g
    linear[-1] = level // g
    return tuple(linear)


def _lifted_cone(base: SecondaryCone, signed, witness) -> SecondaryCone | None:
    """The cone in (lifting, level) space over base, or None when it is
    empty: base's constraints with a 0 level coefficient, then each signed
    (painting constraint, sign), in order, as a strict, or as an equality
    for sign 0.  witness is tried as the interior point (see _certify_cone)."""
    eqs = [f + (0,) for f in base.equalities]
    sts = [f + (0,) for f in base.stricts]
    for fn, sign in signed:
        if sign:
            sts.append(tuple(sign * x for x in fn))
        else:
            eqs.append(fn)
    return _certify_cone(eqs, sts, base.ambient_dim + 1, witness)


def painting_cone(painted: PaintedComplex) -> SecondaryCone:
    """Liftings-with-level reproducing the painted complex exactly: the
    paper's realization cone of a painted complex.

    H-representation in (lifting, level) space, for painted.spec.alpha: the
    secondary cone of the underlying subdivision, plus one sign constraint
    per 0-cell whose orientation follows its color (positive g-value means
    red).  The interior point is the (lifting, level) pair of painted.spec
    when an exact check puts it in the open cone, as it does for every
    complex paint() returns; otherwise it is the sum of the cone's rays.
    """
    config = painted.complex.config
    spec = painted.spec
    base = secondary_cone(config, painted.subdivision)
    sign = {RED: 1, PURPLE: 0, BLUE: -1}
    signed = [
        (painting_constraint(config, cell.marking, spec.alpha), sign[painted.kappa[cell.marking]])
        for cell in painted.complex.cells_of_dim(0)
    ]
    cone = _lifted_cone(base, signed, spec.eta.values + (spec.c,))
    if cone is None:
        raise NoCertificateError("painting admits no realizing lifting and level")
    return cone


def _paint_at(config, alpha, point, complexes: dict) -> PaintedComplex:
    """Paint the complex induced by a point of (lifting, level) space.

    complexes maps each lifting met so far to its dual complex: face samples
    at different levels often share their lifting.
    """
    eta = Lifting.of(config, point[:-1])
    if eta.values not in complexes:
        complexes[eta.values], _ = dual_complex(config, eta)
    return paint(complexes[eta.values], PaintSpec.of(config, eta, point[-1], alpha))


def enumerate_painted_complexes(
    config: PointConfiguration, alpha, max_count: int = 4096
) -> FaceLattice:
    """Face lattice of all painted complexes of (config, alpha) under the fan
    order, ranked as faces of the painting polytope (painted chambers 0); its
    payload holds the painted complexes.

    Chambers of the painting fan sit over triangulation cones: one per
    realizable all-strict color pattern of the 0-cell functionals.  Every
    other painted complex lies on a proper face of some chamber, below the
    complexes of the faces of its own cone: as with subdivisions, _fan_lattice
    paints the face samples chamber by chamber and reads the ranks and the
    covers off the face masks.
    """
    alpha = vector(alpha)
    if len(alpha) != config.dimension:
        raise InputError("alpha dimension mismatch")
    # every triangulation has a chamber, so the cap bounds the walk too
    tris = enumerate_regular_triangulations(config, max_count)

    def chambers():
        for key in sorted(tris, key=sorted):
            t, cone = tris[key]
            fns = [painting_constraint(config, mc.marks, alpha) for mc in t.maximal]
            for pattern in product((1, -1), repeat=len(fns)):
                chamber = _lifted_cone(cone, zip(fns, pattern), None)
                if chamber is not None:
                    yield t, chamber

    complexes: dict[Vec, TropicalComplex] = {}

    def induce(point, _t, _cone, _mask):
        painted = _paint_at(config, alpha, point, complexes)
        return painted.key(), painted

    # keys hold frozensets, which compare by inclusion: the sort is not
    # total, so most elements keep their discovery order, as the goldens do
    return _fan_lattice(chambers(), {}, {}, induce, None, max_count, "painted complexes")
