"""Coherent subdivisions induced by liftings.

A lifting assigns a rational height to each configuration point; lifting point
a to height -eta(a) and projecting the compact upper-hull facets back down
yields the induced subdivision.  Marks record which points touch the hull on
each cell, so points interior to a cell may be marked or unmarked and the two
outcomes are different subdivisions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import gcd

from .errors import InconsistencyError, InputError, NoCertificateError, ResourceCapError
from .geometry import (
    _circuit_dependence,
    _dot,
    _echelon,
    _hull_facets,
    _initial_simplex,
    _int_row,
    _kernel,
    _upper_hull,
    as_fraction,
    graded_closure,
    independent_rows,
    matrix_rank,
)
from .lattice import FaceLattice, graded_lattice
from .point_config import PointConfiguration


@dataclass(frozen=True)
class Lifting:
    """One rational height per configuration point, in point order."""

    values: tuple[Fraction, ...]

    @staticmethod
    def of(config: PointConfiguration, values) -> "Lifting":
        vals = tuple(as_fraction(v) for v in values)
        if len(vals) != len(config.points):
            raise InputError(
                f"lifting has {len(vals)} values for {len(config.points)} points"
            )
        return Lifting(vals)

    def __getitem__(self, i: int) -> Fraction:
        return self.values[i]

    def __len__(self):
        return len(self.values)


class MarkedCell:
    """A subdivision cell: its marks and, on an induced maximal cell, the support.

    The cell polytope is the convex hull of config.points at the marks, by
    which cells compare and hash; a frozenset of marks is kept, not copied.
    support, set only on induce_subdivision's maximal cells, is the affine
    functional cut out by the corresponding upper-hull facet: support(a) >=
    -eta(a) for every configuration point, with equality exactly on the
    marks.  dimension and vertices (the vertex points, sorted) are set only
    on the cells of Subdivision.cells, which reads both off the subdivision's
    incidences; the cells of Subdivision.maximal carry neither.
    """

    __slots__ = ("marks", "support", "dimension", "vertices")

    def __init__(self, marks, support=None):
        self.marks = frozenset(marks)
        self.support = support

    def dim(self) -> int:
        return self.dimension

    def __eq__(self, other):
        return isinstance(other, MarkedCell) and self.marks == other.marks

    def __hash__(self):
        return hash(self.marks)

    def __repr__(self):
        return f"MarkedCell({sorted(self.marks)})"


def _face_dims(config: PointConfiguration, tops: tuple[int, ...]) -> dict[int, int]:
    """{mask: dimension} over every nonempty face of the maximal cells whose
    masks are tops, each face once, in the order the tops list them.

    A simplex's faces are its submasks, graded by their bit counts, and any
    other maximal cell's come from graded_closure with the other tops and
    the configuration's facet_masks, a face's dimension one less than its
    grade.
    """
    outer = tops + config.facet_masks
    simplex = config.dimension + 1
    dims: dict[int, int] = {}
    for top in tops:
        if top.bit_count() == simplex:
            # every nonempty submask, from the top down
            face = top
            while face:
                dims.setdefault(face, face.bit_count() - 1)
                face = (face - 1) & top
            continue
        parts = {top & o for o in outer} - {top, 0}
        for face, grade in graded_closure(top, parts).items():
            if face:
                dims.setdefault(face, grade - 1)
    return dims


class Subdivision:
    """Cells of a polyhedral subdivision, closed under faces.

    Identity is the set of maximal marked cells; two liftings in the same open
    secondary cone produce equal Subdivision values.  witness, when present,
    is the heights of a lifting inducing the subdivision, for Lifting.of; it
    takes no part in identity.  Only induce_subdivision gives maximal cells
    with supports, and its own lifting's Fractions as the witness; of the
    subdivisions the enumerators give, that is only the walk's seed.  The
    others carry an int tuple as witness and no supports: a flipped
    triangulation has its cone's ray sum, and a coarser subdivision read
    off a triangulation cone's face has the face sample.  tops holds the
    maximal cells' marks as bitmasks, which every reader of cell masks
    shares.

    .cells is built on first access, with no geometry; dual_complex reads
    the same faces off _face_dims and leaves it unbuilt.  Maximal cells are
    full-dimensional, so one with d + 1 marks is a simplex whose marks are
    its vertices: its faces are all nonempty subsets of its marks, a face of
    k marks having dimension k - 1.  Any other cell meets the others in
    common faces, and every face of it is the intersection of its facets
    containing it, each of which is shared with another maximal cell or lies
    on a facet of the configuration.  So its faces are the intersection
    closure of its marks with the other maximal cells' marks and the
    configuration's facet member sets, the empty set dropped.  A face poset
    is graded: a single mark has dimension 0, any other cell one more than
    the largest cell strictly inside it, and a cell's vertices are the
    single-mark cells inside it.  The test suite's subdivision validator,
    in tests/oracles.py, checks the result against hulls and exact LPs.
    """

    def __init__(
        self,
        config: PointConfiguration,
        maximal: tuple[MarkedCell, ...],
        witness: tuple | None = None,
    ):
        self.config = config
        self.maximal = tuple(sorted(maximal, key=lambda c: sorted(c.marks)))
        self.key = frozenset(c.marks for c in self.maximal)
        self.witness = witness
        self._cells = None

    @cached_property
    def tops(self) -> tuple[int, ...]:
        """The maximal cells' marks as bitmasks, bit i for point i, in maximal's order."""
        return tuple(sum(1 << i for i in mc.marks) for mc in self.maximal)

    @property
    def cells(self) -> dict[frozenset[int], MarkedCell]:
        """Every cell, keyed by its marks, graded by _face_dims; each face
        becomes a frozenset once, when its MarkedCell is made."""
        if self._cells is None:
            points = self.config.points
            dims = _face_dims(self.config, self.tops)
            # in the order of their points, so each cell lists its vertices sorted
            vertex_marks = sorted(
                (f.bit_length() - 1 for f in dims if f.bit_count() == 1), key=points.__getitem__
            )
            cells: dict[frozenset[int], MarkedCell] = {}
            for mask, dim in dims.items():
                cell = MarkedCell(i for i in range(mask.bit_length()) if mask >> i & 1)
                cell.dimension = dim
                cell.vertices = tuple(points[i] for i in vertex_marks if mask >> i & 1)
                cells[cell.marks] = cell
            self._cells = cells
        return self._cells

    def __eq__(self, other):
        return (
            isinstance(other, Subdivision)
            and self.config == other.config
            and self.key == other.key
        )

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"Subdivision({len(self.maximal)} maximal cells)"

    def face_pairs(self) -> list[tuple[frozenset[int], frozenset[int]]]:
        """(face marks, cell marks) pairs; the face relation is mark inclusion."""
        keys = sorted(self.cells, key=sorted)
        return [(a, b) for a in keys for b in keys if a != b and a <= b]


def induce_subdivision(config: PointConfiguration, eta: Lifting) -> Subdivision:
    """Project the compact upper-hull facets of the lifted points.

    The hull runs on the configuration's integer rows, the points times L,
    each followed by its height -eta times D, the lcm of the lifting's
    denominators, and starts from the configuration's spanning_simplex:
    only the heights are scaled per call.
    """
    if len(eta) != len(config.points):
        raise InputError("lifting length mismatch")
    rows, scale = config.integer_points
    *heights, den = _int_row(eta.values)
    lifted = [row[:-1] + (-h,) for row, h in zip(rows, heights)]
    hull = _upper_hull(lifted, config.spanning_simplex, scale, den)
    maximal = tuple(MarkedCell(mem, support=fn) for fn, mem in hull)
    return Subdivision(config, maximal, witness=eta.values)


def is_triangulation(s: Subdivision) -> bool:
    # Every maximal cell is d-dimensional, so it is a marked simplex exactly
    # when it has d + 1 marks; faces of marked simplices are marked simplices.
    return all(len(c.marks) == s.config.dimension + 1 for c in s.maximal)


@dataclass(frozen=True)
class SecondaryCone:
    """Liftings inducing one subdivision: {strict > 0, equalities = 0} in lifting space.

    Every constraint is a linear form with no constant, stored as the int
    tuple of its coefficients, primitive in every cone the builders make;
    rays and the face and wall samples are int tuples too.  interior_point
    is the builder's witness, kept as given (a lifting's Fractions or a face
    sample's ints), when it passes, and otherwise the int tuple of the ray
    sum; Lifting.of turns either into a lifting.

    The closure (weak inequalities) is the union of the cones of all
    coarsenings.  A triangulation's cone, as secondary_cone builds it, is in
    its local folding form: no equalities, and one strict per interior ridge
    and per unused point, each the primitive affine dependence of a circuit,
    built only once the cells are certified to triangulate the
    configuration.  interior_point is a certified strictly feasible point,
    found by _certify_cone: the builder's witness once it passes an exact
    membership check, otherwise the sum of the cone's rays.
    secondary_cone offers the subdivision's inducing lifting as the witness
    and painting_cone the (lifting, level) pair that painted the complex.
    interior_point takes no part in equality, so cones compare and hash by
    their H-representation alone.  The same class serves painting cones and
    painting chambers, one dimension up in (lifting, level) space.
    """

    equalities: tuple[tuple[int, ...], ...]
    stricts: tuple[tuple[int, ...], ...]
    ambient_dim: int
    interior_point: tuple = field(compare=False)

    def dim(self) -> int:
        return self.ambient_dim - matrix_rank(self.equalities)

    def _scaled(self, eta) -> list[int]:
        """The point times the lcm of its denominators, which keeps every
        constraint's sign."""
        v = eta.values if isinstance(eta, Lifting) else tuple(eta)
        if len(v) != self.ambient_dim:
            raise InputError(f"a point with {len(v)} coordinates for a cone in R^{self.ambient_dim}")
        return _int_row(v)[:-1]

    def contains_open(self, eta) -> bool:
        v = self._scaled(eta)
        return all(_dot(f, v) == 0 for f in self.equalities) and all(
            _dot(f, v) > 0 for f in self.stricts
        )

    def contains_closed(self, eta) -> bool:
        v = self._scaled(eta)
        return all(_dot(f, v) == 0 for f in self.equalities) and all(
            _dot(f, v) >= 0 for f in self.stricts
        )

    @cached_property
    def rays(self) -> tuple[tuple[int, ...], ...]:
        """Extreme rays of the cone modulo its lineality space.

        Canonical primitive representatives (zero on the lineality pivot
        coordinates), sorted.  secondary_cone gives every triangulation cone
        its rays, read off its flippable stricts with no hull (see
        _flippable_rays); a cone built without them gets them from one hull
        by _cone_rays.  A cone whose open cone is empty has no such rays, and
        no certified cone is one.
        """
        rays = _cone_rays(self.equalities, self.stricts, self.ambient_dim)
        if rays is None:
            raise InconsistencyError("a certified cone has an empty open cone")
        return rays

    @cached_property
    def _tight_masks(self) -> tuple[int, ...]:
        """Per strict, the bitmask of the rays on which it vanishes."""
        rays = self.rays
        return tuple(
            sum(1 << j for j, r in enumerate(rays) if not _dot(fn, r)) for fn in self.stricts
        )

    def _ray_sum(self, mask: int) -> tuple[int, ...]:
        chosen = (r for j, r in enumerate(self.rays) if mask >> j & 1)
        return tuple(map(sum, zip((0,) * self.ambient_dim, *chosen)))

    def graded_faces(self) -> list[tuple[int, int, tuple[int, ...]]]:
        """(ray mask, grade, relative-interior sample) per face, modulo lineality.

        A face is the set of rays on which some collection of stricts is
        tight, so the faces are the intersection closure of the stricts' ray
        masks, starting from all rays, and the grades are graded_closure's:
        dimensions modulo the lineality, 0 for no rays.  A mask inside
        another is the smaller integer, so sorted-mask order lists the faces
        inside a face first and ends with the cone.  Samples sum the rays."""
        grades = graded_closure((1 << len(self.rays)) - 1, self._tight_masks)
        return [(mask, g, self._ray_sum(mask)) for mask, g in sorted(grades.items())]

    def walls(self) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        """(wall functional, relative-interior wall sample) per facet, in strict order.

        Facets are the maximal proper faces and each one is cut by some
        strict, so a strict cuts a facet exactly when no other strict's ray
        mask strictly contains its own.  The sum of the facet's rays samples
        its relative interior (the lineality part stays at zero).  Each
        strict is the affine dependence of a circuit, so a wall's functional
        is one too, and _flip crosses the wall by flipping that circuit.  A
        triangulation cone is full-dimensional, so each facet has one
        primitive normal: any sorted stricts that cut the cone out give the
        same walls in the same order.
        """
        full = (1 << len(self.rays)) - 1
        proper = {m for m in self._tight_masks if m != full}
        facets = {m for m in proper if not any(o != m and o & m == m for o in proper)}
        out = []
        for fn, mask in zip(self.stricts, self._tight_masks):
            if mask in facets:
                facets.discard(mask)  # one wall per facet: the first strict cutting it
                out.append((fn, self._ray_sum(mask)))
        return out


def _cone_rays(equalities, stricts, n: int) -> tuple[tuple[int, ...], ...] | None:
    """Canonical extreme rays of {equalities = 0, stricts >= 0} in R^n modulo
    its lineality, or None when the open cone {equalities = 0, stricts > 0}
    is empty.  Constraints and rays are int tuples.

    By polarity (Gordan's theorem; Ziegler, Lectures on Polytopes, ch. 1-2),
    in a frame of ker(equalities) modulo the lineality the stricts span the
    dual space, the open cone is nonempty exactly when no strict vanishes
    there and the origin is a vertex of conv({0} and the stricts), and then
    the extreme rays are the inner normals of that hull's facets through the
    origin.  The lineality is the integer kernel of all rows.  Its echelon
    form is the identity on its pivot columns, so the vectors vanishing
    there complement it, and the frame is the integer kernel of the
    equalities and the unit rows at those pivots: the rays come out zero on
    the lineality's pivot coordinates.  A triangulation's cone has the
    affine liftings as its lineality, whose pivots are the configuration's
    spanning simplex, so its frame is the unit vectors at lifting_frame,
    where _flippable_rays reads a triangulation cone's rays with no hull:
    this hull serves only the other subdivisions' cones and the painting
    cones and chambers.
    """
    lineality = [list(v) + [1] for v in _kernel(equalities + stricts, n)]
    units = [tuple(int(j == c) for j in range(n)) for c in _echelon(lineality)]
    frame = _kernel(equalities + tuple(units), n)
    if not frame:
        return None if stricts else ()
    duals = [tuple(_dot(f, w) for w in frame) for f in stricts]
    if not all(any(a) for a in duals):
        return None
    pts = [(0,) * len(frame)] + duals
    facets = _hull_facets(pts, _initial_simplex(pts, len(frame)))
    through = [(normal, members) for normal, offset, members in facets if not offset]
    if not through or frozenset.intersection(*(m for _, m in through)) != {0}:
        return None  # the origin is not a vertex of the hull
    rays = []
    for normal, _ in through:
        ray = [-_dot(normal, column) for column in zip(*frame)]
        g = gcd(*ray)
        rays.append(tuple(x // g for x in ray))
    return tuple(sorted(rays))


def _certify_cone(equalities, stricts, dim: int, witness, rays=None) -> SecondaryCone | None:
    """The cone {stricts > 0, equalities = 0} in R^dim with a certified
    interior point, or None when the open cone is empty.  The constraints
    are int tuples; rays, when given, are the cone's canonical rays, already
    certified (secondary_cone gives a triangulation cone's, see
    _flippable_rays), and the cone keeps them.

    witness, when given, becomes the interior point if an exact check puts it
    in the open cone.  Otherwise the interior point is the int tuple that
    sums the given rays or, when none are given, those of _cone_rays, which
    decides emptiness.  Every strict is nonnegative on each ray and vanishes
    on all of them only if it vanishes on the whole cone, so the exact check
    that the ray sum lies in the open cone fails only on wrong rays.
    """
    cone = SecondaryCone(tuple(equalities), tuple(stricts), dim, witness)
    passed = witness is not None and cone.contains_open(witness)
    if rays is None and not passed:
        rays = _cone_rays(cone.equalities, cone.stricts, dim)
        if rays is None:
            return None
    if rays is not None:
        cone.__dict__["rays"] = rays  # fills the cached property
    if not passed:
        object.__setattr__(cone, "interior_point", cone._ray_sum((1 << len(rays)) - 1))
        if not cone.contains_open(cone.interior_point):
            raise InconsistencyError("the ray sum of a cone misses its open cone")
    return cone


def _flippable_rays(config: PointConfiguration, t: Subdivision, stricts):
    """The canonical rays of the triangulation t's cone in its folding form,
    read off its flippable stricts with no hull; raises InconsistencyError
    when they are not certified.

    The cone's lineality holds the affine liftings, so modulo them it lives
    in the frame of the unit vectors at the configuration's lifting_frame,
    of dimension k = n - d - 1.  Each extreme ray of a pointed cone there is
    the one-dimensional kernel of k - 1 independent constraints tight on it
    (Ziegler, Lectures on Polytopes, ch. 1-2), and every wall of a
    triangulation's cone is a flippable circuit (De Loera, Rambau & Santos,
    Triangulations, 2010, ch. 5).  So each k - 1 of the flippable stricts
    (those _flippable finds flippable; t keeps no answer) give a candidate,
    the _circuit_dependence of their frame columns: it is kept, made
    primitive and turned positive, when some flippable strict is nonzero on
    it and all of them have one sign there.

    Dot products certify the rest: every strict, flippable or not, is
    nonnegative on every candidate and positive on some.  Unless the
    flippable stricts span the frame's dual, each kernel of k - 1 of them is
    zero or vanishes on them all, and there is no candidate; so they do, and
    the candidates are exactly the extreme rays of the pointed cone they cut
    out, which holds t's cone.  Every strict is nonnegative on those rays, so
    that cone also lies in t's: the two are equal, and the rays are the
    canonical ones _cone_rays would find.  Flip theory says the check
    always passes, so a triangulation cone has no other route to its rays;
    the certificate does not rely on the theory, and a failure raises.
    """
    frame = config.lifting_frame
    if not frame:
        return ()  # a simplex: its cone is all of lifting space
    # the flippable stricts' frame coordinates
    flippable = [[fn[c] for c in frame] for fn in stricts if _flippable(t, fn) is not None]
    found = set()
    for others in combinations(flippable, len(frame) - 1):
        kernel = _circuit_dependence([[fn[j] for fn in others] for j in range(len(frame))])
        values = [_dot(fn, kernel) for fn in flippable]
        sign = (max(values, default=0) > 0) - (min(values, default=0) < 0)
        if sign:  # one sign, not all zero
            g = sign * gcd(*kernel)
            ray = [0] * len(config.points)
            for c, x in zip(frame, kernel):
                ray[c] = x // g
            found.add(tuple(ray))
    rays = tuple(sorted(found))
    for fn in stricts:
        values = [_dot(fn, ray) for ray in rays]
        if min(values, default=0) < 0 or not any(values):
            raise InconsistencyError("the flippable stricts' kernels miss a triangulation cone")
    return rays


def _spanning_marks(config: PointConfiguration, marks) -> list[int]:
    """Lexicographically first affinely independent spanning subset of the
    marks, as linearly independent integer rows (L p, 1)."""
    rows, _ = config.integer_points
    ordered = sorted(marks)
    return [ordered[j] for j in independent_rows(rows[i] for i in ordered)]


def _folding_stricts(config: PointConfiguration, s: Subdivision) -> set[tuple[int, ...]]:
    """The folding stricts of a triangulation's cone, once s is certified to
    be a triangulation of config; raises NoCertificateError otherwise.

    Full-dimensional simplices whose volumes add up to the configuration's,
    as secondary_cone has checked, triangulate it exactly when each ridge
    lies in one of them and on a facet of the configuration, or in two on
    opposite sides of it (De Loera, Rambau & Santos, Triangulations, 2010,
    ch. 4).  A lifting then induces s exactly when it folds strictly across
    every interior ridge and lifts every unused point strictly below a simplex
    containing it (ibid., ch. 5); the first cell in which the point has no
    negative barycentric coordinate serves, and any other gives the same
    functional.  Each strict is a config.circuit, positive on the far
    vertices or on the unused point, computed once per configuration, so a
    walk meets each circuit once.
    """
    cells = [sorted(mc.marks) for mc in s.maximal]
    found: set[tuple[int, ...]] = set()
    far: dict[frozenset[int], list[int]] = {}
    for cell in cells:
        marks = frozenset(cell)
        for v in cell:
            far.setdefault(marks - {v}, []).append(v)
    for ridge, ends in far.items():
        if len(ends) == 1:
            if not any(ridge <= f.members for f in config.facets):
                raise NoCertificateError(f"ridge {sorted(ridge)} lies in one cell and on no facet")
            continue
        if len(ends) > 2:
            raise NoCertificateError(f"ridge {sorted(ridge)} lies in {len(ends)} cells")
        v, w = ends
        coef = config.circuit(sorted(ridge) + [v, w])
        if coef[v] <= 0:
            raise NoCertificateError(f"the two cells on ridge {sorted(ridge)} lie on one side of it")
        found.add(coef)
    used = {i for cell in cells for i in cell}
    for a in range(len(config.points)):
        if a in used:
            continue
        for cell in cells:
            coef = config.circuit(cell + [a])
            if max(coef[i] for i in cell) <= 0:
                found.add(coef)
                break
        else:
            raise InconsistencyError(f"point {a} lies in no cell of a certified triangulation")
    return found


def _circuit_cells(t: Subdivision, wall: tuple[int, ...]):
    """(Z+, Z, links) for the circuit Z whose affine dependence is wall, Z+
    its positive coefficients.  A link is the marks outside Z of a cell of t
    that misses exactly one point of Z, a point of Z+; links maps each to the
    indices in t.maximal of its cells (Z - {z}) | link.  Such a cell holds
    all of Z-, which most cells fail, so that test runs first.  _flippable,
    for the flips, and _face_subdivision share this local picture of t at Z.
    """
    plus = frozenset(i for i, c in enumerate(wall) if c > 0)
    minus = frozenset(i for i, c in enumerate(wall) if c < 0)
    circuit = plus | minus
    links: dict[frozenset[int], list[int]] = {}
    for k, mc in enumerate(t.maximal):
        if minus <= mc.marks and len(plus - mc.marks) == 1:
            links.setdefault(mc.marks - circuit, []).append(k)
    return plus, circuit, links


def _face_subdivision(t: Subdivision, cone: SecondaryCone, mask: int, sample):
    """The subdivision induced on the face of t's cone whose rays are the
    bits of mask, read off t and the stricts that vanish there with no hull;
    sample, in the face's relative interior, becomes the witness.  The
    maximal cells carry no supports; a cell of t that no vanishing circuit
    touches keeps t's own marks frozenset.

    The faces of a triangulation's cone are the subdivisions it refines (De
    Loera, Rambau & Santos, Triangulations, 2010, ch. 5).  A strict vanishes
    on the face exactly when its tight mask holds the face's rays, and then
    its circuit Z lifts into one hyperplane.  Each of t's cells around Z
    spans that hyperplane with its link, so a link's cells (see
    _circuit_cells) lie in one cell of the face, which marks all of Z: the
    local picture of the flip across Z, whether or not t flips it.  Cells
    joined by a chain of such links lie in one cell of the face.
    """
    root = list(range(len(t.maximal)))

    def find(i):
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    parts = [[mc.marks] for mc in t.maximal]
    for fn, tight in zip(cone.stricts, cone._tight_masks):
        if tight & mask == mask:
            _, circuit, links = _circuit_cells(t, fn)
            for first, *rest in links.values():
                parts[first].append(circuit)
                for k in rest:
                    root[find(k)] = find(first)
    merged: dict[int, list[frozenset[int]]] = {}
    for k, part in enumerate(parts):
        merged.setdefault(find(k), []).extend(part)
    maximal = [MarkedCell(m[0] if len(m) == 1 else frozenset().union(*m)) for m in merged.values()]
    return Subdivision(t.config, maximal, witness=sample)


def _cell_tops(config: PointConfiguration, s: Subdivision) -> tuple[int, ...]:
    """s.tops, s's maximal cells as bitmasks, once the volume half of the
    certificate that they tile config holds; raises NoCertificateError
    otherwise.

    The masks must be distinct, every cell full-dimensional (a cell of
    volume 0 raises) and their scaled volumes must add up to the
    configuration's.  Cells that a lifting induces have disjoint interiors,
    so once the other half shows that one lifting induces every cell, the
    volumes leave room for no other: secondary_cone's open cone and
    multiplihedra's integer planes both rest on this.
    """
    tops = s.tops
    if len(set(tops)) != len(tops):
        raise NoCertificateError("two maximal cells have the same marks")
    total = 0
    for mc, top in zip(s.maximal, tops):
        vol = config.scaled_volume(top)
        if not vol:
            raise NoCertificateError(f"cell {sorted(mc.marks)} is not full-dimensional")
        total += vol
    if total != config.scaled_volume((1 << len(config.points)) - 1):
        raise NoCertificateError("the cells' volumes do not add up to the configuration's")
    return tops


def secondary_cone(config: PointConfiguration, s: Subdivision) -> SecondaryCone:
    """H-representation of the liftings inducing s; raises when there are none.

    First s must pass the volume half of the tiling certificate (see
    _cell_tops).  A triangulation's cone is then built in its local
    folding form: no equalities, one strict per interior ridge and one per
    unused point, after a certificate that s is a triangulation of config
    (see _folding_stricts).  Any other subdivision gets, per maximal cell,
    one equality per other mark and one strict per point off the cell, each
    the config.circuit of the cell's spanning marks and the point.  Every
    point of the open cone then induces a subdivision with each cell among
    its maximal cells, and the volumes leave room for no other.  The
    interior point is s.witness when an exact check puts it in the open
    cone; otherwise it is the sum of the cone's rays.  A triangulation cone
    gets its rays only from the kernels of its flippable stricts, with no
    hull (see _flippable_rays); any other cone gets them from the hull of
    _cone_rays (see _certify_cone).
    """
    if s.config != config:
        raise InputError("the subdivision belongs to another configuration")
    n = len(config.points)
    _cell_tops(config, s)
    if is_triangulation(s):
        stricts = sorted(_folding_stricts(config, s))
        return _certify_cone((), stricts, n, s.witness, _flippable_rays(config, s, stricts))
    eqs: set[tuple[int, ...]] = set()
    sts: set[tuple[int, ...]] = set()
    for mc in s.maximal:
        basis = _spanning_marks(config, mc.marks)
        for a in range(n):
            if a not in basis:
                (eqs if a in mc.marks else sts).add(config.circuit(basis + [a]))
    if eqs & sts:
        # a functional required both zero and positive: nothing induces s
        raise NoCertificateError("subdivision is not induced by any lifting")
    cone = _certify_cone(sorted(eqs), sorted(sts), n, s.witness)
    if cone is None:
        raise NoCertificateError("subdivision is not induced by any lifting")
    return cone


# ---------------------------------------------------------------------------
# Enumeration


def _placing_lifting(config: PointConfiguration):
    """A lifting inducing some triangulation: geometric heights, doubled until
    all lifted point subsets are generic enough."""
    n = len(config.points)
    base = 2
    for _ in range(64):
        eta = Lifting(tuple(Fraction(base) ** i for i in range(n)))
        s = induce_subdivision(config, eta)
        if is_triangulation(s):
            return s
        base *= 2
    raise ResourceCapError("found no triangulation-inducing lifting")


def _flippable(t: Subdivision, wall: tuple[int, ...]):
    """_circuit_cells(t, wall) when t flips the circuit Z whose affine
    dependence is wall, otherwise None; no cell set is built.

    wall is positive on t's cone when it is a strict of it, so t
    triangulates Z by the cells Z - {z} for z in Z+, its positive
    coefficients (De Loera, Rambau & Santos, Triangulations, ch. 2 and 5).
    t flips Z when each link's group holds |Z+| cells: all the cells
    (Z - {z}) | link for z in Z+.
    """
    plus, circuit, links = _circuit_cells(t, wall)
    if all(len(cells) == len(plus) for cells in links.values()):
        return plus, circuit, links
    return None


def _flip(config: PointConfiguration, t: Subdivision, wall: tuple[int, ...]) -> Subdivision:
    """The triangulation across the wall of t's cone cut out by wall.

    A wall functional is the affine dependence of a circuit Z, positive on
    t's cone, and crossing the wall is the bistellar flip on Z: when
    _flippable finds every link's group full, the flip replaces the groups'
    cells, those for z in Z+, with the cells (Z - {z}) | link for z in Z-.
    Only a crossed wall builds the two cell sets.
    """
    groups = _flippable(t, wall)
    if groups is None:
        circuit = sorted(i for i, c in enumerate(wall) if c)
        raise InconsistencyError(f"circuit {circuit} is not flippable")
    plus, circuit, links = groups
    old = {t.maximal[k].marks for cells in links.values() for k in cells}
    new = {(circuit - {z}) | link for z in circuit - plus for link in links}
    return Subdivision(config, tuple(MarkedCell(m) for m in (t.key - old) | new))


def enumerate_regular_triangulations(config: PointConfiguration, max_count=4096):
    """All coherent triangulations, found by flips across secondary-cone walls
    outward from a seed triangulation.  Returns {key: (Subdivision, cone)}.

    Each cone is built in its local folding form (see secondary_cone), which
    first certifies that the flipped cells triangulate the configuration; its
    walls are the folding constraints that are facets.  A known neighbour
    costs no hull: its cone's closure must contain the wall sample.  A new
    one is certified by its cone alone, with no induced hull: the folding
    certificate, its rays and the exact check that their sum lies in the
    open cone prove that every point there induces it.  Its rays are the
    kernels of its flippable stricts, checked by dot products, with no hull
    (see secondary_cone).  Its cone's closure must contain the wall sample,
    and the ray sum becomes its witness; its maximal cells carry no
    supports.  The seed keeps the supports and witness of its placing
    lifting.  A triangulation keeps no walk state: _circuit_cells runs once
    per strict, for the flip test, and once per crossed wall, for the flip.
    Circuits and simplex volumes are computed once per configuration (see
    PointConfiguration.circuit), so a second walk on the same configuration
    computes neither again.
    """
    seed = _placing_lifting(config)
    found: dict[frozenset, tuple[Subdivision, SecondaryCone]] = {
        seed.key: (seed, secondary_cone(config, seed))
    }
    frontier = [seed.key]
    while frontier:
        key = frontier.pop()
        t, cone = found[key]
        for wall, wall_sample in cone.walls():
            flipped = _flip(config, t, wall)
            if flipped.key in found:
                if flipped.key == key or not found[flipped.key][1].contains_closed(wall_sample):
                    raise InconsistencyError("a flip lands off its wall")
                continue
            if len(found) >= max_count:
                raise ResourceCapError(f"more than {max_count} triangulations")
            c2 = secondary_cone(config, flipped)
            if not c2.contains_closed(wall_sample):
                raise InconsistencyError("a flip lands off its wall")
            flipped.witness = c2.interior_point
            found[flipped.key] = (flipped, c2)
            frontier.append(flipped.key)
    return found


def _fan_lattice(
    cones, found: dict, keys: dict, induce, sort_key, max_count: int, noun: str
) -> FaceLattice:
    """The face lattice of a complete fan, read off its maximal cones' face masks.

    cones holds (triangulation, cone) pairs, each cone a maximal cone of the
    fan over that triangulation.  found maps keys met so far to elements and
    keys samples to keys; induce(sample, t, cone, mask) gives the (key,
    element) of a new sample, met as the face of cone with ray mask mask.
    Rays are canonical modulo the lineality, so a face shared by two cones
    has one sample.  A face's rank, the same in every cone, is its cone's
    top grade minus its own.  Two faces one below the other lie in a common
    maximal cone, where the coarser one's mask lies inside the finer one's;
    ranks rise strictly along the order, so the coarser one covers the finer
    one exactly when their grades differ by one.  The payload holds the
    elements, sorted stably by sort_key, which keeps the discovery order of
    keys it does not order."""
    ranks: dict = {}
    covers = set()
    for t, cone in cones:
        faces = cone.graded_faces()
        top = faces[-1][1]
        by_grade: dict[int, list] = {}
        for mask, grade, sample in faces:
            key = keys.get(sample)
            if key is None:
                key, element = induce(sample, t, cone, mask)
                keys[sample] = key
                if key not in found:
                    if len(found) >= max_count:
                        raise ResourceCapError(f"more than {max_count} {noun}")
                    found[key] = element
            if ranks.setdefault(key, top - grade) != top - grade:
                raise InconsistencyError("two maximal cones give one face different ranks")
            # sorted-mask order meets the faces inside a face first
            covers.update((key, k2) for m2, k2 in by_grade.get(grade - 1, ()) if mask & m2 == m2)
            by_grade.setdefault(grade, []).append((mask, key))
    order = sorted(found, key=sort_key)
    index = {k: i for i, k in enumerate(order)}
    pairs = [(index[a], index[b]) for a, b in covers]
    return graded_lattice([ranks[k] for k in order], pairs, [found[k] for k in order])


def enumerate_coherent_subdivisions(config: PointConfiguration, max_count=4096):
    """Face lattice of all coherent subdivisions under refinement (finer
    below coarser), ranked as faces of the secondary polytope
    (triangulations 0); its payload holds the subdivisions.

    Triangulations come first, in walk order, from flips across
    secondary-cone walls, each with its cone's interior point as witness.
    Every other one lies on a proper face of some triangulation cone:
    _fan_lattice reads the ranks and the covers off the face masks, and
    _face_subdivision reads each new face's cells off the triangulation and
    the stricts that vanish on the face, with no hull, and takes the face
    sample as witness.  Only the seed triangulation's maximal cells carry
    supports.
    """
    tris = enumerate_regular_triangulations(config, max_count)
    found = {k: t for k, (t, _) in tris.items()}
    # each triangulation is its cone's top face, whose sample sums all rays
    keys = {cone._ray_sum((1 << len(cone.rays)) - 1): k for k, (_, cone) in tris.items()}

    def induce(sample, t, cone, mask):
        s = _face_subdivision(t, cone, mask, sample)
        return s.key, s

    # the sort keys are lists of frozensets, which compare by inclusion: the
    # sort is not total, so most elements keep their discovery order, as the
    # goldens do
    cones = [tris[k] for k in sorted(tris, key=sorted)]
    return _fan_lattice(cones, found, keys, induce, sorted, max_count, "subdivisions")
