"""Reducing painted complexes to plain subdivisions one dimension up.

Two extra points at heights 1 and 2 over the distinguished point turn a
(lifting, level) pair into a single lifting of the extended configuration.
The induced subdivision upstairs remembers the painting: each 0-cell picks up
the height-1 point when red, the height-2 point when blue, both when purple,
and purple 1-cells with a sign change contribute one extra 0-cell each at the
zero of the comparison function.  verify_main_theorem checks that this
correspondence is a poset isomorphism and reproduces every 0-cell upstairs.
It builds no hull upstairs beyond the extended enumeration: each predicted
0-cell is certified by the argmin of the tropical polynomial at its slope,
and the predicted cells by a walked triangulation that they cover.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InconsistencyError, InputError, VerificationError
from .geometry import Vec, vector
from .lattice import lattice_isomorphic
from .painting import (
    PURPLE,
    PaintedComplex,
    PaintSpec,
    _comparison,
    enumerate_painted_complexes,
)
from .point_config import PointConfiguration, build_configuration
from .regular_subdivision import Lifting, enumerate_coherent_subdivisions
from .secondary_polytope import secondary_polytope_vertices
from .tropical_dual import TropicalPolynomial, evaluate

ZERO = Fraction(0)


@dataclass(frozen=True)
class ExtendedConfiguration:
    """A configuration with its two-point tower over the distinguished point.

    extended holds (a, 0) for every base point in order, then the tower
    points at heights 1 and 2, labeled rho and beta.
    """

    base: PointConfiguration
    alpha: Vec
    extended: PointConfiguration
    rho: int
    beta: int


def extend(config: PointConfiguration, alpha) -> ExtendedConfiguration:
    alpha = vector(alpha)
    if len(alpha) != config.dimension:
        raise InputError("alpha dimension mismatch")
    pts = [a + (ZERO,) for a in config.points]
    pts.append(alpha + (Fraction(1),))
    pts.append(alpha + (Fraction(2),))
    labels = tuple(config.labels) + ("rho", "beta")
    ext = build_configuration(pts, labels)
    # the tower points leave the base hyperplane, so full-dimensionality of
    # the base forces it here
    if ext.dimension != config.dimension + 1:
        raise InconsistencyError("extended configuration is not one dimension up")
    n = len(config.points)
    return ExtendedConfiguration(config, alpha, ext, n, n + 1)


def embed_lifting(spec: PaintSpec) -> Lifting:
    """The lifting upstairs: base heights unchanged, both tower points at the
    level."""
    return Lifting(tuple(spec.eta.values) + (spec.c, spec.c))


def _lift(ext: ExtendedConfiguration, spec: PaintSpec, u: Vec, marking):
    """The extended 0-cell over a base 0-cell u with this marking.

    The comparison value g at u decides it: g > 0 gives height g and rho,
    g = 0 gives height 0 and both tower points, g < 0 gives height g/2 and
    beta.
    """
    g = Fraction(*_comparison(ext.base, spec, marking, u))
    if g > 0:
        d, gain = g, {ext.rho}
    elif g == 0:
        d, gain = ZERO, {ext.rho, ext.beta}
    else:
        d, gain = g / 2, {ext.beta}
    return u + (d,), frozenset(marking) | gain


def _expected_extended_vertices(ext: ExtendedConfiguration, painted: PaintedComplex):
    """All 0-cells the extended dual complex must have, as (position, marking).

    One per base 0-cell by the rule of _lift, plus one per purple 1-cell
    whose comparison function is not identically zero: there the unique
    interior zero lifts to height 0 with both tower points marked.  Purple
    1-cells with rays count too; only the identically-zero ones contribute a
    1-cell upstairs instead.
    """
    spec = painted.spec
    config = ext.base
    both = frozenset({ext.rho, ext.beta})
    out = set()
    for cell in painted.complex.cells_of_dim(0):
        out.add(_lift(ext, spec, cell.vertices[0], cell.marking))
    for cell in painted.complex.cells_of_dim(1):
        if painted.kappa[cell.marking] != PURPLE:
            continue
        # g's slope along the cell is g(v1) - g(v0), v1 the other vertex or
        # v0 pushed along the ray
        v0 = cell.vertices[0]
        v1 = tuple(x + y for x, y in zip(v0, cell.rays[0])) if cell.rays else cell.vertices[1]
        g0 = Fraction(*_comparison(config, spec, cell.marking, v0))
        slope = Fraction(*_comparison(config, spec, cell.marking, v1)) - g0
        if slope == 0:
            continue  # identically zero along the cell
        t = -g0 / slope
        star = tuple(x + t * (y - x) for x, y in zip(v0, v1))
        out.add((star + (ZERO,), frozenset(cell.marking) | both))
    return out


class MainTheoremReport:
    """Outcome of the painted-complex / extended-subdivision comparison."""

    def __init__(
        self,
        painted_poset,
        extension,
        subdivision_poset,
        constructive_map,
        lattice_match,
        polytope_dimension,
        polytope_vertex_count,
        vertex_checks,
    ):
        self.painted_poset = painted_poset
        self.extension = extension
        self.subdivision_poset = subdivision_poset
        self.constructive_map = tuple(constructive_map)
        self.lattice_match = tuple(lattice_match)
        self.polytope_dimension = polytope_dimension
        self.polytope_vertex_count = polytope_vertex_count
        self.vertex_checks = vertex_checks

    def __repr__(self):
        return (
            f"MainTheoremReport({len(self.constructive_map)} complexes, "
            f"polytope dim {self.polytope_dimension}, "
            f"{self.polytope_vertex_count} vertices)"
        )


def verify_main_theorem(config: PointConfiguration, alpha) -> MainTheoremReport:
    """Check that painted complexes match coherent subdivisions upstairs.

    The check is threefold: the two posets admit a rank-preserving order
    isomorphism; the explicit lifting embedding realizes one, a bijection
    carrying covers exactly onto covers; and for every painted complex the
    0-cells of the extended dual complex are exactly the predicted ones,
    position and marking alike.  Any failure raises VerificationError
    naming the offending element.

    The last two parts build no hull.  For each painted complex, with E its
    predicted 0-cells (u, M) and omega its embedded lifting:
    (a) the markings M are the maximal cells of an enumerated extended
    subdivision S of the painted complex's rank;
    (b) at every u the argmin over the extended points a of <u, a> +
    omega(a) is exactly M, so the conv(M) are faces of omega's upper hull
    and the u the slopes of their supports (Gelfand, Kapranov & Zelevinsky,
    1994, ch. 7);
    (c) a rank-0 element reached from S by down-covers, a triangulation
    the walk certified by its folding certificate, has each simplex inside
    some M and some simplex inside every M, by mark inclusion.
    By (c) every conv(M) is full-dimensional, so a distinct facet of the
    upper hull, and together they cover the configuration: they are all of
    its compact facets.  So omega induces S, whose 0-cells upstairs are E.
    """
    alpha = vector(alpha)
    plat = enumerate_painted_complexes(config, alpha)
    ext = extend(config, alpha)
    spos = enumerate_coherent_subdivisions(ext.extended)
    if len(plat) != len(spos):
        raise VerificationError(
            f"{len(plat)} painted complexes vs {len(spos)} extended subdivisions"
        )
    pranks = list(plat.ranks)
    match = lattice_isomorphic(plat, spos)
    if match is None:
        raise VerificationError("posets admit no rank-preserving isomorphism")

    skey = {s.key: j for j, s in enumerate(spos.payload)}
    down = spos.down_adjacency()
    cmap = []
    checks = 0
    for i, pc in enumerate(plat.payload):
        expected = _expected_extended_vertices(ext, pc)
        cells = frozenset(marks for _, marks in expected)
        j = skey.get(cells)
        if j is None:
            raise VerificationError(
                f"the predicted cells of painted complex {i} are no enumerated "
                f"extended subdivision"
            )
        if spos.ranks[j] != pranks[i]:
            raise VerificationError(f"rank mismatch at painted complex {i}")
        cmap.append(j)
        omega = TropicalPolynomial(ext.extended, embed_lifting(pc.spec))
        for u, marks in expected:
            argmin = evaluate(omega, u)[1]
            if argmin != marks:
                raise VerificationError(
                    f"0-cell mismatch at painted complex {i}: at ({', '.join(map(str, u))}) "
                    f"the embedded lifting's minimum is attained on {sorted(argmin)}, "
                    f"not on the predicted {sorted(marks)}"
                )
        k = j
        while spos.ranks[k]:
            k = down[k][0]
        covered = set()
        for mc in spos.payload[k].maximal:
            homes = {marks for marks in cells if mc.marks <= marks}
            if not homes:
                raise VerificationError(
                    f"simplex {sorted(mc.marks)} of extended triangulation {k} "
                    f"lies in no predicted cell of painted complex {i}"
                )
            covered |= homes
        if covered != cells:
            raise VerificationError(
                f"predicted cells {sorted(map(sorted, cells - covered))} of painted "
                f"complex {i} hold no simplex of extended triangulation {k}"
            )
        checks += len(expected)
    if len(set(cmap)) != len(cmap):
        raise VerificationError("embedding map is not injective")
    mapped = {(cmap[i], cmap[j]) for i, j in plat.covers}
    if mapped != spos.covers:
        a, b = min(mapped ^ spos.covers)
        raise VerificationError(f"covers differ at extended subdivisions {a} and {b}")

    verts = secondary_polytope_vertices(ext.extended, spos)
    if len(verts) != pranks.count(0):
        raise VerificationError(
            f"{len(verts)} polytope vertices vs {pranks.count(0)} painted chambers"
        )
    return MainTheoremReport(
        plat,
        ext,
        spos,
        cmap,
        match,
        max(pranks) if pranks else 0,
        pranks.count(0),
        checks,
    )
