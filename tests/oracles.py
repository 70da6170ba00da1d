"""Independent reference implementations used only by the test suite.

These deliberately avoid the library's algorithms: the upper-hull oracle
enumerates candidate hyperplanes exhaustively, the LP oracle is
Fourier-Motzkin elimination, polygon subdivisions are enumerated as
non-crossing diagonal sets, and tree counts come from direct recursion.

The Fraction kernel (elimination, determinants, beneath-beyond hulls and the
two-phase simplex) is the arithmetic tropaint.geometry used before it moved
to integers; it stays here, unchanged in its choices, as the differential
reference for the integer kernel, and its hulls, simplex and square solve
are the ones the subdivision validator and the ray oracle below run: no
oracle takes a hull from the library.

The echelon hyperplane reads a facet candidate's normal off the reduced
echelon form of its difference rows, as geometry._hyperplane did before it
took signed minors.  upper_hull_facets_oracle reads each upper facet's
support off the Fraction hull's HullFacets, one division per coordinate, as
geometry.upper_hull_facets did before induce_subdivision mapped the integer
facets straight to supports; convex_hull_facets_oracle and
hull_volume_oracle are the references for a configuration's facets and for
its volume memo, PointConfiguration.facets and scaled_volume.

The recursive face enumeration builds one hull per face and recurses into
its facets, and the vertex and wall tests are rank tests on facet normals and
on rays; tropaint derives all three from one intersection closure of facet
incidences, and these are the references for it.  The quadratic face
grading grades each face of a cone against every face graded before it, as
SecondaryCone.graded_faces did before geometry.graded_closure graded a face
from its intersections with single parts.

The greedy independence reference recomputes a rank from scratch for every
candidate, as the six selection loops of tropaint.geometry and
regular_subdivision did (spanning marks, overdetermined affine combinations,
interpolation rows, both loops of the affine frame, the initial simplex of a
hull) before geometry.independent_rows replaced them with one incremental
elimination.

The per-cell subdivision geometry builds one hull per maximal cell for its
faces, then one rank and one hull per face for its dimension and vertices,
as regular_subdivision.Subdivision.cells and MarkedCell did before the cells
were read off the subdivision's own incidences; the dual-cell rank is the
span computation tropical_dual.dual_complex used for dual dimensions.

The sequential edge-length realization rebuilds the dual complex before each
edge's correction, as multiplihedra.realize_edge_lengths did before it read
every correction off its input complex; it is the reference for that one-pass
form.  The Fraction diagonal test takes a 2 x 2 determinant per pair of
points off a common boundary edge, as multiplihedra._on_some_diagonal did
before it read the same test off the configuration's integer rows.

The cone ray search tries every subset of stricts of complementary rank, as
regular_subdivision.SecondaryCone.rays did before it read the rays off one
hull by polarity.

The Fraction cone rays read the rays off the same hull by polarity, but
take the lineality as a Fraction nullspace, reduce a Fraction kernel of the
equalities modulo its reduced echelon form for the frame, and scale each ray
to a primitive Fraction vector, as regular_subdivision._cone_rays did before
cones kept their constraints and rays as int tuples; the reduced echelon
form, the reduction and the primitive scaling are the geometry and
regular_subdivision helpers that route used.

The wall crossing by bisection steps from a wall sample away from the cone,
halving the step until the induced subdivision is a triangulation whose cone
holds the wall, as regular_subdivision.enumerate_regular_triangulations did
before it flipped the wall's circuit; the walk it drives is the reference for
the flips and their discovery order.

The folding sources record, per strict of a walked triangulation's cone, the
ridges and the unused point it came from, and the face rule by sources merges
the cells on the ridges whose strict vanishes on a face and marks the cells
holding the unused points whose strict does, as
regular_subdivision._folding_stricts recorded and _face_subdivision read them
before the face rule took each vanishing circuit's cells from its links, as
the flip across it does.

The per-cell secondary cone writes one constraint per maximal cell and
point off the cell's spanning marks, each from an affine combination solved
in Fractions, as regular_subdivision.secondary_cone did for every
subdivision before it built triangulation cones from their folding
constraints in integer arithmetic.  The painting constraint writes alpha as
such a combination of a 0-cell's spanning marks, and the interpolation
oracle solves for an affine functional the same way: tropaint reads all
three off integer signed minors and solves no system for them.

The fan orders test every pair of elements, with mark containment of the
maximal cells for subdivisions and with contains_closed on painting cones
for painted complexes, and rank each element by certifying its own cone:
subdivision_rank and the painting rank are the cone codimensions
complemented.  This is how
enumerate_coherent_subdivisions, enumerate_painted_complexes,
face_lattice_from_poset and verify_main_theorem built the order and the
ranks before reading both off the fans' face masks.

The poset oracle closes a relation by Warshall's algorithm on a boolean
matrix, names the first pair i < j comparable both ways, and tests each
comparable pair for a cover against every other element.  It is the only
transitive closure left: the enumerators read their covers straight off the
fans' face masks, and the tests that read the order, or its minimal and
maximal elements, close those covers here.

The per-cell painting rebuilds g on every cell from the cell's least mark and
reads its values at the cell's vertices and its slopes along the cell's
rays, as painting.paint did before it evaluated g once per 0-cell and took
the slope signs from the sign vector.  The Fraction tropical polynomial and
sign vector take their dot products in Fractions, as tropical_dual.evaluate
and point_config.sign_vector did before they compared integer rows.

The subdivision validator checks a Subdivision against hulls and exact LPs:
each cell's vertices against its marks' hull, the cells against the faces of
the maximal cells' hulls, the cells' volumes against the configuration's,
and every pairwise intersection of maximal cells against their common face,
through H-representations in an affine frame of each cell's span.  It lived
in tropaint.regular_subdivision, and its LP, affine frame and
H-representation in tropaint.geometry, though no library path called any of
them; they moved here as they were, except that the faces come from the
recursive face enumeration, the vertices from the rank test, and every LP
and square system from the Fraction simplex and solve above.  The painted
tree level by dual complex evaluates the tropical polynomial at the root
vertex of the lifting's dual complex, as multiplihedra.realize_painted_tree
did before it read the root value off the supports.

The polygon tree by angles walks a polygon complex's 0- and 1-cells from the
root ray, sorting each node's outgoing edges and rays counterclockwise, as
multiplihedra.tree_of_complex did before multiplihedra._planar_tree read the
same tree off the cells' marks.

The closure-only cell grading closes every maximal cell's marks with the
other maximal cells and the configuration's facets, simplices included, as
regular_subdivision.Subdivision.cells did before it graded each simplex's
faces by their sizes.

The relative-interior sample of a dual cell and the vertex indices of a
configuration were the methods TropicalCell.relint_sample and
PointConfiguration.vertex_indices, and the vector sum vadd and difference
vsub were geometry.vadd and geometry.vsub; only the tests called them, and
they moved here as they were.

The unpruned lattice search backtracks over the same color classes in the
same order as lattice.lattice_isomorphic, but checks a match only against
the matched neighbours, as lattice_isomorphic did before it forward-checked
the unmatched ones; it is the reference for the first match.

The extended cells by hull induce each painted complex's embedded lifting
upstairs and read the 0-cells off the supports of that one hull, as
painting_polytope.verify_main_theorem did before it certified them by
argmins and a walked triangulation.
"""

from __future__ import annotations

from fractions import Fraction
from dataclasses import dataclass
from functools import cmp_to_key
from itertools import combinations
from math import gcd, lcm

from tropaint.errors import (
    DegenerateInputError,
    InconsistencyError,
    InputError,
    NoCertificateError,
)
from tropaint.geometry import (
    AffineFunctional,
    _echelon,
    affine_rank,
    independent_rows,
    intersection_closure,
    matrix_rank,
    vector,
    vdot,
)
from tropaint.multiplihedra import (
    SPLIT,
    UNPAINTED,
    _edge_offset,
    admissible_alpha,
    ngon_configuration,
)
from tropaint.painting import BLUE, PURPLE, RED, ColorFunction, painting_cone
from tropaint.painting_polytope import embed_lifting
from tropaint.regular_subdivision import (
    Lifting,
    _certify_cone,
    _placing_lifting,
    _spanning_marks,
    induce_subdivision,
    is_triangulation,
    secondary_cone,
)
from tropaint.tropical_dual import TropicalPolynomial, dual_complex, evaluate

ZERO = Fraction(0)
ONE = Fraction(1)


def upper_hull_oracle(lifted):
    """All upper-hull facets by brute force over point subsets.

    For every (d+1)-subset whose projections are affinely independent, fit the
    affine interpolant and keep it when it dominates every lifted point; a
    kept functional is a facet when its equality set spans the base space.
    """
    base = [vector(p) for (p, _) in lifted]
    heights = [Fraction(h) for (_, h) in lifted]
    d = len(base[0])
    found = {}
    for subset in combinations(range(len(base)), d + 1):
        pts = [base[i] for i in subset]
        if affine_rank(pts) < d:
            continue
        fn = interpolate_oracle(pts, [heights[i] for i in subset])
        if fn is None:
            continue
        if any(fn(p) < h for p, h in zip(base, heights)):
            continue
        members = frozenset(i for i, (p, h) in enumerate(zip(base, heights)) if fn(p) == h)
        found[members] = fn
    return sorted(
        ((fn, members) for members, fn in found.items()),
        key=lambda pair: sorted(pair[1]),
    )


def fourier_motzkin_feasible(strict, weak, equalities, dim) -> bool:
    """Exact feasibility of {fn > 0} + {fn >= 0} + {fn = 0} over the rationals."""
    rows = []
    for fn in strict:
        rows.append((list(fn.linear), fn.constant, ">"))
    for fn in weak:
        rows.append((list(fn.linear), fn.constant, ">="))
    for fn in equalities:
        rows.append((list(fn.linear), fn.constant, "="))

    def substitute(rows, j, coeffs, const, denom):
        # x_j = (const - sum_k coeffs[k] x_k) / denom, with k != j
        out = []
        for lin, c, kind in rows:
            a = lin[j]
            new_lin = [
                lin[k] + a * (-coeffs[k]) / denom if k != j else Fraction(0)
                for k in range(len(lin))
            ]
            new_c = c - a * const / denom
            out.append((new_lin, new_c, kind))
        return out

    # Equality substitution first.
    while True:
        eq = next((r for r in rows if r[2] == "=" and any(a != 0 for a in r[0])), None)
        if eq is None:
            break
        lin, c, _ = eq
        j = next(k for k, a in enumerate(lin) if a != 0)
        rows = [r for r in rows if r is not eq]
        rows = substitute(rows, j, lin, c, lin[j])
    for lin, c, kind in list(rows):
        if kind == "=":
            if c != 0:
                return False
            rows.remove((lin, c, kind))

    for j in range(dim):
        pos = [r for r in rows if r[0][j] > 0]
        neg = [r for r in rows if r[0][j] < 0]
        zero = [r for r in rows if r[0][j] == 0]
        new_rows = list(zero)
        for plin, pc, pkind in pos:
            for nlin, nc, nkind in neg:
                a, b = plin[j], -nlin[j]
                lin = [b * x + a * y for x, y in zip(plin, nlin)]
                c = b * pc + a * nc
                kind = ">" if (pkind == ">" or nkind == ">") else ">="
                new_rows.append((lin, c, kind))
        rows = new_rows
    for lin, c, kind in rows:
        value = -c
        if kind == ">" and not value > 0:
            return False
        if kind == ">=" and not value >= 0:
            return False
    return True


def polygon_subdivisions(n: int):
    """All subdivisions of a convex n-gon as frozensets of non-crossing diagonals.

    Vertices are 0..n-1 in cyclic order; a diagonal is a frozenset {i, j} of
    non-adjacent vertices.  Includes the empty set (the trivial subdivision).
    """
    diagonals = [
        frozenset((i, j))
        for i, j in combinations(range(n), 2)
        if (j - i) % n not in (1, n - 1)
    ]

    def crosses(d1, d2):
        a, b = sorted(d1)
        c, d = sorted(d2)
        if d1 & d2:
            return False
        return (a < c < b) != (a < d < b)

    out = []
    for k in range(len(diagonals) + 1):
        for subset in combinations(diagonals, k):
            if all(not crosses(x, y) for x, y in combinations(subset, 2)):
                out.append(frozenset(subset))
    return out


def dual_vertex_oracle(points, eta, marks):
    """Slope g with g(a) + eta(a) constant across the marks, by direct
    Gauss-Jordan elimination on g . (a_j - a_0) = eta(a_0) - eta(a_j).

    Unique for marks spanning the ambient space (maximal cells), which is the
    only way the tests use it.
    """
    order = sorted(marks)
    a0 = vector(points[order[0]])
    d = len(a0)
    aug = []
    for j in order[1:]:
        aj = vector(points[j])
        row = [x - y for x, y in zip(aj, a0)]
        aug.append(row + [Fraction(eta[order[0]]) - Fraction(eta[j])])
    piv_cols = []
    r = 0
    for c in range(d):
        p = next((i for i in range(r, len(aug)) if aug[i][c] != 0), None)
        if p is None:
            continue
        aug[r], aug[p] = aug[p], aug[r]
        aug[r] = [x / aug[r][c] for x in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        piv_cols.append(c)
        r += 1
    g = [Fraction(0)] * d
    for rr, c in enumerate(piv_cols):
        g[c] = aug[rr][d]
    return tuple(g)


def painted_binary_tree_count(m: int) -> int:
    """Number of planar binary trees with m leaves whose nodes carry a
    monotone painted/unpainted flag (painted region rootward-closed)."""

    # Labelings per shape: 1 (root unpainted, everything below forced
    # unpainted) + product over children (root painted, children free).
    def shapes(leaves):
        if leaves == 1:
            yield "leaf"
            return
        for left in range(1, leaves):
            for ls in shapes(left):
                for rs in shapes(leaves - left):
                    yield (ls, rs)

    def labelings(shape) -> int:
        if shape == "leaf":
            return 1
        return 1 + labelings(shape[0]) * labelings(shape[1])

    return sum(labelings(s) for s in shapes(m))


# ---------------------------------------------------------------------------
# Fraction kernel


def echelon_oracle(rows):
    """Gauss-Jordan over Fractions in place; returns (rows, pivot columns)."""
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def matrix_rank_oracle(rows) -> int:
    return len(echelon_oracle([[Fraction(x) for x in row] for row in rows])[1])


def affine_rank_oracle(points) -> int:
    """Dimension of the affine hull; -1 for no points."""
    if not points:
        return -1
    return matrix_rank_oracle([[a - b for a, b in zip(p, points[0])] for p in points[1:]])


def greedy_by_rank(items, rank=matrix_rank_oracle):
    """Indices of the items a greedy pass keeps: an item is kept exactly when
    it raises the rank of the items kept before it, recomputed from scratch.

    With the matrix rank this is the lexicographically first maximal linearly
    independent subset of rows; with affine_rank_oracle, of affinely
    independent points.
    """
    kept, out = [], []
    for i, item in enumerate(items):
        if rank(kept + [item]) > rank(kept):
            kept.append(item)
            out.append(i)
    return out


def solve_square_oracle(a_rows, b):
    n = len(a_rows)
    work = [[Fraction(x) for x in row] + [Fraction(bi)] for row, bi in zip(a_rows, b)]
    work, pivots = echelon_oracle(work)
    if pivots and pivots[-1] == n:
        return None
    if len(pivots) < n:
        return None
    sol = [ZERO] * n
    for r, c in enumerate(pivots):
        sol[c] = work[r][n]
    return tuple(sol)


def is_zero_vector(v) -> bool:
    return all(a == 0 for a in v)


def primitive_vector(v):
    """A nonzero rational vector scaled to coprime integers, as Fractions,
    direction kept."""
    if is_zero_vector(v):
        raise DegenerateInputError("zero vector has no primitive form")
    mult = lcm(*(Fraction(a).denominator for a in v))
    ints = [int(a * mult) for a in v]
    g = gcd(*ints)
    return tuple(Fraction(a, g) for a in ints)


def primitive_functional(fn):
    """The functional scaled to coprime integers, orientation kept."""
    full = fn.linear + (fn.constant,)
    if is_zero_vector(full):
        return fn
    prim = primitive_vector(full)
    return AffineFunctional(prim[:-1], prim[-1])


def interpolate_oracle(points, values):
    """The affine functional taking the given values, solved in Fractions on
    the first affinely spanning points and checked on the others; None when
    the points do not span or the values are not affine on them."""
    d = len(points[0])
    ids = greedy_by_rank(points, affine_rank_oracle)
    if len(ids) != d + 1:
        return None
    sol = solve_square_oracle([list(points[i]) + [ONE] for i in ids], [values[i] for i in ids])
    fn = AffineFunctional(tuple(sol[:d]), -sol[d])
    return fn if all(fn(p) == v for p, v in zip(points, values)) else None


def affine_combination_oracle(basis, target):
    """Coefficients b with sum(b) = 1 and sum(b_j basis_j) = target, solved
    in Fractions for an affinely spanning basis of d + 1 points; None when
    the basis does not span."""
    k = len(basis)
    if k != len(target) + 1:
        return None
    rows = [[ONE] * k] + [[p[i] for p in basis] for i in range(len(target))]
    return solve_square_oracle(rows, [ONE] + list(target))


def nullspace_basis_oracle(rows):
    if not rows:
        return []
    ncols = len(rows[0])
    work, pivots = echelon_oracle([[Fraction(x) for x in row] for row in rows])
    out = []
    for f in range(ncols):
        if f in pivots:
            continue
        sol = [ZERO] * ncols
        sol[f] = ONE
        for r, c in enumerate(pivots):
            sol[c] = -work[r][f]
        out.append(tuple(sol))
    return out


def rref_oracle(rows):
    """Reduced row echelon form of a rational matrix: (nonzero rows, pivot
    columns)."""
    work, pivots = echelon_oracle([[Fraction(x) for x in row] for row in rows])
    return [tuple(row) for row in work[: len(pivots)]], pivots


def mod_reduce(echelon_rows, pivots, v):
    """Reduce v modulo the row space of a reduced echelon basis."""
    w = list(v)
    for row, c in zip(echelon_rows, pivots):
        if w[c] != 0:
            f = w[c]
            w = [x - f * y for x, y in zip(w, row)]
    return tuple(w)


def det_oracle(rows) -> Fraction:
    n = len(rows)
    work = [[Fraction(x) for x in r] for r in rows]
    det = ONE
    for c in range(n):
        pivot = next((i for i in range(c, n) if work[i][c] != 0), None)
        if pivot is None:
            return ZERO
        if pivot != c:
            work[c], work[pivot] = work[pivot], work[c]
            det = -det
        det *= work[c][c]
        inv = ONE / work[c][c]
        for i in range(c + 1, n):
            if work[i][c] != 0:
                f = work[i][c] * inv
                work[i] = [x - f * y for x, y in zip(work[i], work[c])]
    return det


def _dot(u, v):
    return sum((a * b for a, b in zip(u, v)), ZERO)


def vadd(u, v):
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vsub(u, v):
    return tuple(a - b for a, b in zip(u, v, strict=True))


def _hyperplane_oracle(points):
    base = points[0]
    if len(points) == 1:
        if len(base) != 1:
            return None
        return (ONE,), base[0]
    basis = nullspace_basis_oracle([[a - b for a, b in zip(p, base)] for p in points[1:]])
    if not basis or all(x == 0 for x in basis[0]):
        return None
    return basis[0], _dot(basis[0], base)


def hyperplane_by_echelon(points):
    """Integer normal and offset of the hyperplane through d affinely
    independent integer points in Z^d, from the reduced echelon form of the
    difference rows: the free column's entry is the lcm of the pivots and
    the pivot columns solve for it."""
    base = points[0]
    if len(points) == 1:
        # 0-dimensional facet of a 1-dimensional hull
        if len(base) != 1:
            return None
        return (1,), base[0]
    work = [[a - b for a, b in zip(p, base)] + [1] for p in points[1:]]
    pivots = _echelon(work)
    free = next(f for f in range(len(base)) if f not in pivots)
    scale = lcm(*(row[c] for row, c in zip(work, pivots)))
    normal = [0] * len(base)
    normal[free] = scale
    for row, c in zip(work, pivots):
        normal[c] = -row[free] * (scale // row[c])
    g = gcd(*normal)
    normal = tuple(x // g for x in normal)
    return normal, sum(a * b for a, b in zip(normal, base))


def _initial_simplex_oracle(pts, d):
    chosen = [0]
    for i in range(1, len(pts)):
        cand = [pts[j] for j in chosen] + [pts[i]]
        diffs = [[a - b for a, b in zip(p, cand[0])] for p in cand[1:]]
        if matrix_rank_oracle(diffs) > len(chosen) - 1:
            chosen.append(i)
        if len(chosen) == d + 1:
            return chosen
    raise DegenerateInputError(
        f"points span only {len(chosen) - 1} dimensions, need {d} for a full hull"
    )


def simplicial_hull_oracle(pts, d):
    """Beneath-beyond over Fractions: (simplicial facets, interior point)."""
    seed = _initial_simplex_oracle(pts, d)
    ref = tuple(sum(pts[i][k] for i in seed) / (d + 1) for k in range(d))
    facets = []

    def oriented(vert_ids):
        plane = _hyperplane_oracle([pts[i] for i in vert_ids])
        if plane is None:
            raise DegenerateInputError("degenerate facet candidate")
        normal, offset = plane
        side = _dot(normal, ref) - offset
        if side == 0:
            raise DegenerateInputError("interior reference point lies on a facet plane")
        if side > 0:
            normal, offset = tuple(-x for x in normal), -offset
        return normal, offset, vert_ids

    for drop in range(d + 1):
        facets.append(oriented(tuple(seed[j] for j in range(d + 1) if j != drop)))
    in_seed = set(seed)
    for i in range(len(pts)):
        if i in in_seed:
            continue
        p = pts[i]
        visible = [f for f in facets if _dot(f[0], p) > f[1]]
        if not visible:
            continue
        ridge_count = {}
        for _, _, verts in visible:
            for drop in range(d):
                r = frozenset(verts[:drop] + verts[drop + 1 :])
                ridge_count[r] = ridge_count.get(r, 0) + 1
        horizon = [r for r, cnt in ridge_count.items() if cnt == 1]
        visible_set = {f[2] for f in visible}
        facets = [f for f in facets if f[2] not in visible_set]
        for r in sorted(horizon, key=sorted):
            facets.append(oriented(tuple(sorted(r)) + (i,)))
    return facets, ref


@dataclass(frozen=True)
class HullFacet:
    """Supporting halfspace normal . x <= offset; members = all input points on it."""

    normal: tuple  # outward, primitive integer
    offset: Fraction
    members: frozenset


def convex_hull_facets_oracle(points):
    pts = [vector(p) for p in points]
    if not pts:
        raise InputError("convex hull of an empty point list")
    simplicial, _ = simplicial_hull_oracle(pts, len(pts[0]))
    seen = {}
    for normal, offset, _ in simplicial:
        fn = primitive_functional(AffineFunctional(tuple(normal), offset))
        seen[(fn.linear, fn.constant)] = None
    out = []
    for normal, offset in seen:
        members = frozenset(i for i, p in enumerate(pts) if _dot(normal, p) == offset)
        out.append(HullFacet(normal, offset, members))
    out.sort(key=lambda f: sorted(f.members))
    return out


def hull_volume_oracle(points) -> Fraction:
    pts = [vector(p) for p in points]
    d = len(pts[0])
    simplicial, ref = simplicial_hull_oracle(pts, d)
    total = ZERO
    for _, _, verts in simplicial:
        total += abs(det_oracle([[a - b for a, b in zip(pts[i], ref)] for i in verts]))
    return total


def upper_hull_facets_oracle(lifted):
    """Compact upper-hull facets read off the Fraction beneath-beyond hull,
    one division per coordinate of each primitive normal."""
    base = [vector(p) for (p, _) in lifted]
    heights = [Fraction(h) for (_, h) in lifted]
    d = len(base[0])
    pts = [b + (h,) for b, h in zip(base, heights)]
    if matrix_rank_oracle([[a - b for a, b in zip(p, pts[0])] for p in pts[1:]]) == d:
        return [(interpolate_oracle(base, heights), frozenset(range(len(pts))))]
    out = []
    for facet in convex_hull_facets_oracle(pts):
        w_h = facet.normal[-1]
        if w_h <= 0:
            continue
        linear = tuple(-w / w_h for w in facet.normal[:-1])
        out.append((AffineFunctional(linear, -facet.offset / w_h), facet.members))
    out.sort(key=lambda pair: sorted(pair[1]))
    return out


def _simplex_core_oracle(tableau, basis, n_rows, n_cols):
    while True:
        obj = tableau[n_rows]
        enter = next((j for j in range(n_cols) if obj[j] > 0), None)
        if enter is None:
            return "optimal"
        ratios = []
        for i in range(n_rows):
            if tableau[i][enter] > 0:
                ratios.append((tableau[i][n_cols] / tableau[i][enter], basis[i], i))
        if not ratios:
            return "unbounded"
        _, _, leave = min(ratios, key=lambda t: (t[0], t[1]))
        piv = tableau[leave][enter]
        tableau[leave] = [x / piv for x in tableau[leave]]
        for i in range(n_rows + 1):
            if i != leave and tableau[i][enter] != 0:
                f = tableau[i][enter]
                tableau[i] = [x - f * y for x, y in zip(tableau[i], tableau[leave])]
        basis[leave] = enter


def lp_maximize_oracle(objective, ub_rows, ub_consts, eq_rows, eq_consts):
    """Two-phase simplex over Fractions, Bland's rule: (status, x, value)."""
    n = len(objective)
    rows = [[Fraction(x) for x in r] for r in ub_rows] + [[Fraction(x) for x in r] for r in eq_rows]
    rhs = [Fraction(b) for b in ub_consts] + [Fraction(b) for b in eq_consts]
    n_ub = len(ub_rows)
    m = len(rows)
    n_struct = 2 * n + n_ub
    n_cols = n_struct + m
    tableau = []
    basis = []
    for i in range(m):
        row = [ZERO] * (n_cols + 1)
        sign = ONE if rhs[i] >= 0 else -ONE
        for j in range(n):
            row[j] = sign * rows[i][j]
            row[n + j] = -sign * rows[i][j]
        if i < n_ub:
            row[2 * n + i] = sign
        row[n_struct + i] = ONE
        row[n_cols] = sign * rhs[i]
        tableau.append(row)
        basis.append(n_struct + i)
    obj_row = [ZERO] * (n_cols + 1)
    for i in range(m):
        obj_row = [o + t for o, t in zip(obj_row, tableau[i])]
    for j in range(n_struct, n_cols):
        obj_row[j] = ZERO
    tableau.append(obj_row)
    _simplex_core_oracle(tableau, basis, m, n_cols)
    if tableau[m][n_cols] != 0:
        return "infeasible", None, None
    for i in range(m):
        if basis[i] >= n_struct:
            enter = next((j for j in range(n_struct) if tableau[i][j] != 0), None)
            if enter is not None:
                piv = tableau[i][enter]
                tableau[i] = [x / piv for x in tableau[i]]
                for k in range(m + 1):
                    if k != i and tableau[k][enter] != 0:
                        f = tableau[k][enter]
                        tableau[k] = [x - f * y for x, y in zip(tableau[k], tableau[i])]
                basis[i] = enter
    keep = [i for i in range(m) if basis[i] < n_struct]
    tableau = [tableau[i][:n_struct] + [tableau[i][n_cols]] for i in keep]
    basis = [basis[i] for i in keep]
    m = len(keep)
    n_cols = n_struct
    cvec = [Fraction(c) for c in objective]
    obj_row = [ZERO] * (n_cols + 1)
    for j in range(n):
        obj_row[j] = cvec[j]
        obj_row[n + j] = -cvec[j]
    for i in range(m):
        if obj_row[basis[i]] != 0:
            f = obj_row[basis[i]]
            obj_row = [o - f * t for o, t in zip(obj_row, tableau[i])]
    tableau.append(obj_row)
    status = _simplex_core_oracle(tableau, basis, m, n_cols)
    xs = [ZERO] * n_cols
    for i in range(m):
        xs[basis[i]] = tableau[i][n_cols]
    x = tuple(xs[j] - xs[n + j] for j in range(n))
    if status == "unbounded":
        return "unbounded", x, None
    value = sum((c * xi for c, xi in zip(cvec, x)), ZERO)
    return "optimal", x, value


def realize_edge_lengths_sequential(p, beta, target, order=None):
    """Lifting values that realize target's edge offsets at beta.

    Shrink p's lifting so every offset falls below its target, then correct
    one edge at a time, in order (default: sorted markings): rebuild the dual
    complex, re-read that edge's supports k, l and offset v, and add
    max(0, t * (l - k)) with t = target / v - 1.
    """
    config = p.config
    beta = vector(beta)
    offsets = _edge_offset(p, beta)
    eta = list(p.eta.values)
    if not offsets:
        return tuple(eta)
    lam = min(target.lengths[m] / v for m, (_, _, v) in offsets.items()) / 2
    eta = [lam * x for x in eta]
    for marking in order or sorted(offsets, key=sorted):
        cur, _ = dual_complex(config, eta)
        k, l, v = _edge_offset(cur, beta)[marking]
        t = target.lengths[marking] / v - 1
        eta = [e + max(ZERO, t * (l(a) - k(a))) for e, a in zip(eta, config.points)]
    return tuple(eta)


def edge_supports_oracle(maximal, marking, beta):
    """The supports k, l of the two maximal cells whose marks contain a
    compact edge's marking, in the order of maximal, and the edge's offset
    at beta: the root-to-leaf difference of the two supports there,
    unsigned, in Fractions."""
    pair = [mc.support for mc in maximal if marking < mc.marks]
    if len(pair) != 2:
        raise InconsistencyError("compact edge not between exactly two maximal cells")
    k, l = pair
    beta = vector(beta)
    value = (l.constant - vdot(l.linear, beta)) - (k.constant - vdot(k.linear, beta))
    return k, l, abs(value)


def on_some_diagonal_oracle(config, beta) -> bool:
    """Whether beta lies on the line through two points of the polygon that
    share no boundary facet, by a Fraction 2 x 2 determinant per pair."""
    n = len(config.points)
    boundary = [f.members for f in config.facets]
    for i, j in combinations(range(n), 2):
        if any({i, j} <= f for f in boundary):
            continue
        a, b = config.points[i], config.points[j]
        det = (b[0] - a[0]) * (beta[1] - a[1]) - (b[1] - a[1]) * (beta[0] - a[0])
        if det == 0:
            return True
    return False


# ---------------------------------------------------------------------------
# Affine frames, H-representations and subdivision validation


def _affine_frame(pts):
    """Shared machinery for span coordinates: (coords, base, row_ids, rows).

    coords are exact coordinates of each point in a greedy affine frame; rows
    is the invertible r x r matrix of frame components at the selected
    coordinate positions row_ids, so that coords(x) solves
    rows . c = (x - base) restricted to row_ids.
    """
    base = pts[0]
    diffs = [vsub(p, base) for p in pts]
    frame = [diffs[i] for i in independent_rows(diffs)]
    if not frame:
        return [() for _ in pts], base, [], []
    columns = list(zip(*frame))
    row_ids = independent_rows(columns)
    rows = [columns[i] for i in row_ids]
    coords = [solve_square_oracle(rows, [dv[i] for i in row_ids]) for dv in diffs]
    return coords, base, row_ids, rows


def affine_coordinates(points):
    """Coordinates of each point in an affine frame of the points' span.

    The first point maps to the origin; frame vectors are picked greedily from
    the input differences, so collinear or coplanar inputs get exact
    coordinates of the right lower dimension.  Rank-0 input maps every point
    to the empty tuple.
    """
    return _affine_frame([vector(p) for p in points])[0]


def polytope_hrep(points):
    """Ambient H-representation of conv(points), span may be lower-dimensional.

    Returns (equalities, inequalities): x lies in the hull iff every equality
    functional vanishes at x and every inequality functional is >= 0 at x.
    """
    pts = [vector(p) for p in points]
    base = pts[0]
    equalities = []
    for n in nullspace_basis_oracle([vsub(p, base) for p in pts[1:]] or [[ZERO] * len(base)]):
        equalities.append(AffineFunctional(n, vdot(n, base)))
    if len(pts) == 1:
        # single point: the nullspace above was of a zero row, giving all axes
        return equalities, []
    coords, _, row_ids, rows = _affine_frame(pts)
    if not coords[0]:
        return equalities, []
    inequalities = []
    rows_t = list(zip(*rows))
    for facet in convex_hull_facets_oracle(coords):
        # facet: w . c <= offset in coordinate space; pull back via
        # c(x) = rows^-1 (x - base) restricted to row_ids
        y = solve_square_oracle(rows_t, facet.normal)
        linear = [ZERO] * len(base)
        for i, idx in enumerate(row_ids):
            linear[idx] = -y[i]
        constant = -(facet.offset + vdot(y, tuple(base[i] for i in row_ids)))
        inequalities.append(AffineFunctional(tuple(linear), constant))
    return equalities, inequalities


def _lp_min(objective, ineqs, dim):
    """Exact minimum of objective . x over {fn >= 0 for fn in ineqs}.

    Returns None when the region is empty; raises on an unbounded minimum
    (callers only use this over compact regions).
    """
    ub_rows = [[-c for c in fn.linear] for fn in ineqs]
    ub_consts = [-fn.constant for fn in ineqs]
    status, _, value = lp_maximize_oracle([-c for c in objective], ub_rows, ub_consts, [], [])
    if status == "infeasible":
        return None
    if status == "unbounded":
        raise InputError("unbounded region in a compactness-only check")
    return -value


def validate_subdivision(s) -> None:
    """Exact check of the defining conditions; raises InconsistencyError.

    Checks: each cell's vertices are the vertices of its marks' hull, the
    cells are exactly the faces of the maximal cells' hulls, maximal-cell
    volumes add up to the full polytope volume, and every pairwise
    intersection of maximal cells is a face of each.
    """
    config = s.config
    for marks, cell in s.cells.items():
        points = [config.points[i] for i in sorted(marks)]
        hull_vertices = sorted(points[j] for j in polytope_vertex_indices_by_rank(points))
        if tuple(hull_vertices) != cell.vertices:
            raise InconsistencyError(f"cell {sorted(marks)} polytope mismatch")
    # faces come from the hulls, not from s.cells, which is what is checked
    faces_of = {}
    for mc in s.maximal:
        order = sorted(mc.marks)
        points = [config.points[i] for i in order]
        faces_of[mc.marks] = {
            frozenset(order[j] for j in mem) for mem in face_member_sets_recursive(points)
        }
    differ = set().union(*faces_of.values()) ^ s.cells.keys()
    if differ:
        raise InconsistencyError(f"cells and hull faces differ on {sorted(map(sorted, differ))}")
    total = sum(
        (hull_volume_oracle([config.points[i] for i in sorted(mc.marks)]) for mc in s.maximal),
        ZERO,
    )
    if total != config.volume:
        raise InconsistencyError("maximal cells do not tile the polytope")
    hreps = {}
    for mc in s.maximal:
        _, ineqs = polytope_hrep([config.points[i] for i in sorted(mc.marks)])
        hreps[mc.marks] = ineqs
    maximal = list(s.maximal)
    dim = config.dimension
    for i, ca in enumerate(maximal):
        for cb in maximal[i + 1 :]:
            joint = hreps[ca.marks] + hreps[cb.marks]
            if _lp_min([ZERO] * dim, joint, dim) is None:
                if ca.marks & cb.marks:
                    raise InconsistencyError("shared marks but empty intersection")
                continue
            common = ca.marks & cb.marks
            if common not in faces_of[ca.marks] or common not in faces_of[cb.marks]:
                raise InconsistencyError(
                    f"{sorted(ca.marks)} meets {sorted(cb.marks)} off a face"
                )
            eqs, ineqs = polytope_hrep([config.points[k] for k in sorted(common)])
            for fn in eqs:
                lo = _lp_min(fn.linear, joint, dim)
                hi = -_lp_min([-c for c in fn.linear], joint, dim)
                if lo != fn.constant or hi != fn.constant:
                    raise InconsistencyError("intersection leaves the common face")
            for fn in ineqs:
                lo = _lp_min(fn.linear, joint, dim)
                if lo < fn.constant:
                    raise InconsistencyError("intersection leaves the common face")


# ---------------------------------------------------------------------------
# Faces, vertices and walls before the intersection closure


def face_member_sets_recursive(points):
    """Index sets of points on each nonempty face of conv(points), by
    recursion: the hull of every face in its own affine frame, then each of
    its facets in turn."""
    pts = [vector(p) for p in points]
    out = set()

    def recurse(idx):
        key = frozenset(idx)
        if key in out:
            return
        out.add(key)
        coords = affine_coordinates([pts[i] for i in idx])
        if len(coords[0]) == 0:
            return
        for facet in convex_hull_facets_oracle(coords):
            recurse(tuple(idx[j] for j in sorted(facet.members)))

    recurse(tuple(range(len(pts))))
    return out


def polytope_vertex_indices_by_rank(points):
    """Vertices of conv(points): the points where the normals of the facets
    through them span the points' span (a rank-0 span has point 0)."""
    coords = affine_coordinates(points)
    d = len(coords[0])
    if d == 0:
        return frozenset({0})
    facets = convex_hull_facets_oracle(coords)
    out = set()
    for i in range(len(coords)):
        normals = [f.normal for f in facets if i in f.members]
        if len(normals) >= d and matrix_rank_oracle(normals) == d:
            out.add(i)
    return frozenset(out)


def cone_walls_by_rank(cone):
    """(wall functional, wall sample) per facet of a SecondaryCone, in strict
    order: a strict cuts a facet when the rays it vanishes on span one
    dimension less than all rays, and the sum of those rays is the sample."""
    rays = cone.rays
    total = matrix_rank_oracle(rays) if rays else 0
    out = []
    seen = set()
    for fn in cone.stricts:
        tight = tuple(r for r in rays if _dot(fn, r) == 0)
        if tight in seen:
            continue
        if (matrix_rank_oracle(tight) if tight else 0) == total - 1:
            seen.add(tight)
            sample = (ZERO,) * cone.ambient_dim
            for r in tight:
                sample = tuple(a + b for a, b in zip(sample, r))
            out.append((fn, sample))
    return out


def graded_faces_quadratic(cone):
    """(ray mask, grade, ray-sum sample) per face of a SecondaryCone, in
    sorted-mask order: the intersection closure of the stricts' ray masks,
    each mask graded one above the largest mask strictly inside, found by
    scanning every mask graded before it."""
    rays = cone.rays
    tight = [sum(1 << j for j, r in enumerate(rays) if not _dot(fn, r)) for fn in cone.stricts]
    grades = {}
    for mask in sorted(intersection_closure((1 << len(rays)) - 1, tight)):
        grades[mask] = 1 + max((g for m, g in grades.items() if m & mask == m), default=-1)
    out = []
    for mask, g in grades.items():
        chosen = [r for j, r in enumerate(rays) if mask >> j & 1]
        out.append((mask, g, tuple(sum(r[k] for r in chosen) for k in range(cone.ambient_dim))))
    return out


# ---------------------------------------------------------------------------
# Subdivision cells and dual dimensions before they were read off incidences


def subdivision_cells_by_hull(s):
    """{marks: (dimension, vertices)} for every cell of a Subdivision: the
    faces of each maximal cell by face_member_sets_recursive, each face's
    dimension by affine_rank and its vertices, sorted, by
    polytope_vertex_indices_by_rank."""
    points = s.config.points
    out = {}
    for mc in s.maximal:
        order = sorted(mc.marks)
        for mem in face_member_sets_recursive([points[i] for i in order]):
            pts = [points[order[j]] for j in sorted(mem)]
            vertices = tuple(sorted(pts[j] for j in polytope_vertex_indices_by_rank(pts)))
            out[frozenset(order[j] for j in mem)] = (affine_rank(pts), vertices)
    return out


def subdivision_cells_by_closure(s):
    """{marks: (dimension, vertices)} for every cell of a Subdivision, each
    maximal cell's faces from intersection_closure with the other maximal
    cells and the configuration's facets, simplices included, graded one
    above the largest face strictly inside; on frozensets, not bitmasks."""
    points = s.config.points
    tops = [mc.marks for mc in s.maximal]
    outer = tops + [f.members for f in s.config.facets]
    empty = frozenset()
    dims = {}
    for top in tops:
        parts = {top & o for o in outer} - {top, empty}
        for face in sorted(intersection_closure(top, parts) - {empty}, key=len):
            if face not in dims:
                below = {face & p for p in parts} - {face, empty}
                dims[face] = 1 + max((dims[c] for c in below), default=-1)
    vertex_marks = {i for face in dims if len(face) == 1 for i in face}
    return {
        face: (dim, tuple(sorted(points[i] for i in face & vertex_marks)))
        for face, dim in dims.items()
    }


def dual_cell_rank(cell) -> int:
    """Affine rank of a TropicalCell's vertices together with one vertex
    pushed along each of its rays."""
    base = cell.vertices[0]
    return affine_rank(list(cell.vertices) + [vadd(base, r) for r in cell.rays])


# ---------------------------------------------------------------------------
# Cone rays before polarity


def cone_rays_brute_force(cone):
    """Extreme rays of a SecondaryCone modulo its lineality, canonical and
    sorted, by brute force over strict subsets: a ray is a face one dimension
    above the lineality, so it is cut out by some strict subset of
    complementary rank."""
    n = cone.ambient_dim
    eq_rows = [list(f) for f in cone.equalities]
    all_rows = eq_rows + [list(f) for f in cone.stricts]
    lin = nullspace_basis_oracle(all_rows if all_rows else [[ZERO] * n])
    lrows, lpiv = rref_oracle(lin)
    e = matrix_rank(eq_rows)
    s0 = n - len(lin) - 1 - e
    if s0 < 0:
        return ()
    rays = set()
    for sub in combinations(range(len(cone.stricts)), s0):
        rows = eq_rows + [list(cone.stricts[i]) for i in sub]
        if matrix_rank(rows) != n - len(lin) - 1:
            continue
        cand = None
        for v in nullspace_basis_oracle(rows if rows else [[ZERO] * n]):
            w = mod_reduce(lrows, lpiv, v)
            if not is_zero_vector(w):
                cand = w
                break
        if cand is None:
            continue
        vals = [_dot(fn, cand) for fn in cone.stricts]
        if all(x >= 0 for x in vals):
            rays.add(primitive_vector(cand))
        elif all(x <= 0 for x in vals):
            rays.add(primitive_vector(tuple(-x for x in cand)))
    return tuple(sorted(rays))


def cone_rays_fraction(equalities, stricts, n: int):
    """Canonical extreme rays of {equalities = 0, stricts >= 0} in R^n
    modulo its lineality, or None when the open cone is empty, by polarity
    in Fractions: the lineality is a Fraction nullspace of all rows, the
    frame a Fraction kernel of the equalities reduced modulo the lineality's
    reduced echelon form and thinned by a greedy pass, and each ray the
    primitive form of a facet normal of convex_hull_facets_oracle through the
    origin, mapped back through the frame."""
    eq_rows = [list(f) for f in equalities]
    all_rows = eq_rows + [list(f) for f in stricts]
    lrows, lpiv = rref_oracle(nullspace_basis_oracle(all_rows or [[ZERO] * n]))
    kernel = [mod_reduce(lrows, lpiv, v) for v in nullspace_basis_oracle(eq_rows or [[ZERO] * n])]
    frame = [kernel[i] for i in independent_rows(kernel)]
    if not frame:
        return None if stricts else ()
    duals = [tuple(_dot(f, w) for w in frame) for f in stricts]
    if any(is_zero_vector(a) for a in duals):
        return None
    pts = [(ZERO,) * len(frame)] + duals
    through = [f for f in convex_hull_facets_oracle(pts) if 0 in f.members]
    if not through or frozenset.intersection(*(f.members for f in through)) != {0}:
        return None
    rays = []
    for f in through:
        ray = (ZERO,) * n
        for y, w in zip(f.normal, frame):
            ray = vsub(ray, tuple(y * x for x in w))
        rays.append(primitive_vector(ray))
    return tuple(sorted(rays))


# ---------------------------------------------------------------------------
# Wall crossing before flips


def cross_wall_by_bisection(config, t, cone, wall_sample):
    """(Subdivision, SecondaryCone) of the triangulation on the far side of
    the wall of t's cone through wall_sample: step from the wall away from
    the cone's interior point, halving the step until the induced
    triangulation differs from t and its cone's closure holds the wall."""
    direction = vsub(wall_sample, cone.interior_point)
    step = ONE
    for _ in range(128):
        eta = Lifting(vadd(wall_sample, tuple(step * x for x in direction)))
        s = induce_subdivision(config, eta)
        if is_triangulation(s) and s.key != t.key:
            c2 = secondary_cone(config, s)
            if c2.contains_closed(wall_sample):
                return s, c2
        step /= 2
    raise AssertionError("wall crossing did not converge")


def triangulations_by_bisection(config):
    """The walk of enumerate_regular_triangulations with every wall crossed
    by bisection: ({key: (Subdivision, SecondaryCone)} in discovery order,
    [(triangulation, wall functional, neighbour key)] for every wall of
    every triangulation cone)."""
    seed = _placing_lifting(config)
    found = {seed.key: (seed, secondary_cone(config, seed))}
    crossings = []
    frontier = [seed.key]
    while frontier:
        t, cone = found[frontier.pop()]
        for wall, wall_sample in cone.walls():
            s2, c2 = cross_wall_by_bisection(config, t, cone, wall_sample)
            crossings.append((t, wall, s2.key))
            if s2.key not in found:
                found[s2.key] = (s2, c2)
                frontier.append(s2.key)
    return found, crossings


def folding_sources(t):
    """Per folding strict of the triangulation t, what it came from, as
    (point, cells) pairs of indices into t.maximal: (None, its two cells)
    per interior ridge, as several ridges can share one circuit, and (a, the
    cells containing a) per unused point a.  The point lies in the relative
    interior of the face spanned by its circuit's other points, so the cells
    containing it are those holding that face."""
    config = t.config
    cells = [sorted(mc.marks) for mc in t.maximal]
    found = {}
    far = {}
    for k, cell in enumerate(cells):
        for v in cell:
            far.setdefault(frozenset(cell) - {v}, []).append((v, k))
    for ridge, ends in far.items():
        if len(ends) == 2:
            (v, i), (w, j) = ends
            found.setdefault(config.circuit(sorted(ridge) + [v, w]), []).append((None, (i, j)))
    used = {i for cell in cells for i in cell}
    for a in sorted(set(range(len(config.points))) - used):
        for cell in cells:
            coef = config.circuit(cell + [a])
            if max(coef[i] for i in cell) <= 0:
                face = {i for i in cell if coef[i]}
                found[coef] = [(a, tuple(k for k, mc in enumerate(t.maximal) if face <= mc.marks))]
                break
    return found


def face_key_by_sources(t, sources, cone, mask):
    """The maximal cells' marks of the subdivision on the face of t's cone
    whose rays are the bits of mask, given t's folding_sources: the cells on
    a ridge whose strict vanishes there merge, and an unused point whose
    strict vanishes marks each cell holding its face."""
    label = list(range(len(t.maximal)))
    marks = [set(mc.marks) for mc in t.maximal]
    for fn, tight in zip(cone.stricts, cone._tight_masks):
        if tight & mask == mask:
            for point, cells in sources[fn]:
                if point is None:
                    old, new = label[cells[0]], label[cells[1]]
                    label = [new if x == old else x for x in label]
                else:
                    for k in cells:
                        marks[k].add(point)
    merged = {}
    for k, m in enumerate(marks):
        merged.setdefault(label[k], set()).update(m)
    return frozenset(frozenset(m) for m in merged.values())


# ---------------------------------------------------------------------------
# Secondary cones cell by cell


def cone_constraint_oracle(config, basis_idx, a):
    """The lifting-space functional eta(a) - sum_j b_j eta(basis_j), with
    point a written as the affine combination b of the basis in Fractions:
    zero when lifted a lands on the affine hull of the lifted basis, positive
    when it lies strictly below."""
    coeffs = affine_combination_oracle([config.points[j] for j in basis_idx], config.points[a])
    if coeffs is None:
        raise InputError("basis does not span the configuration point")
    coef = [ZERO] * len(config.points)
    coef[a] = ONE
    for j, cj in zip(basis_idx, coeffs):
        coef[j] -= cj
    return AffineFunctional(tuple(coef), ZERO)


def painting_constraint_oracle(config, marking, alpha):
    """The (lifting, level) functional sum_j b_j eta(basis_j) - c of a
    0-cell, with alpha written as the affine combination b of the marking's
    spanning marks in Fractions, as painting.painting_constraint solved it."""
    basis = _spanning_marks(config, marking)
    coeffs = affine_combination_oracle([config.points[i] for i in basis], vector(alpha))
    if coeffs is None:
        raise InputError("marking does not span the distinguished point")
    linear = [ZERO] * (len(config.points) + 1)
    for i, b in zip(basis, coeffs):
        linear[i] = b
    linear[-1] = -ONE
    return AffineFunctional(tuple(linear), ZERO)


def secondary_cone_per_cell(config, s):
    """The secondary cone of s with one constraint per maximal cell and
    point off the cell's spanning marks: an equality for a mark, a strict for
    any other point, as regular_subdivision.secondary_cone built every cone
    before it built triangulation cones from their folding constraints.
    Each constraint has constant 0 and is kept, as the library's cones keep
    theirs, as the int tuple of its primitive coefficients."""
    n = len(config.points)
    eqs = set()
    sts = set()
    for cell in s.maximal:
        basis_idx = _spanning_marks(config, cell.marks)
        in_basis = set(basis_idx)
        for a in range(n):
            if a in in_basis:
                continue
            fn = primitive_functional(cone_constraint_oracle(config, basis_idx, a))
            (eqs if a in cell.marks else sts).add(tuple(map(int, fn.linear)))
    if eqs & sts:
        raise NoCertificateError("subdivision is not induced by any lifting")
    cone = _certify_cone(sorted(eqs), sorted(sts), n, s.witness)
    if cone is None:
        raise NoCertificateError("subdivision is not induced by any lifting")
    return cone


# ---------------------------------------------------------------------------
# Fan orders and ranks before face masks


def subdivision_rank(config, s) -> int:
    """Height of s in the face lattice: 0 for triangulations, maximal for the
    trivial subdivision; computed as cone codimension complemented."""
    return len(config.points) - secondary_cone(config, s).dim()


def refinement_pairs(elements) -> set:
    """(i, j) for every i != j whose subdivision refines j's: each maximal
    cell's marks lie inside some maximal cell's marks of the other."""
    return {
        (i, j)
        for i, s1 in enumerate(elements)
        for j, s2 in enumerate(elements)
        if i != j and all(any(c1.marks <= c2.marks for c2 in s2.maximal) for c1 in s1.maximal)
    }


def painted_pairs_and_ranks(elements):
    """(i, j) for every i != j whose painting cone's closure holds j's, by
    contains_closed on the interior points, and each complex's rank, (n + 1)
    minus its painting cone's dimension."""
    cones = [painting_cone(pc) for pc in elements]
    pairs = {
        (i, j)
        for i, c1 in enumerate(cones)
        for j, c2 in enumerate(cones)
        if i != j and c1.contains_closed(c2.interior_point)
    }
    return pairs, [c.ambient_dim - c.dim() for c in cones]


# ---------------------------------------------------------------------------
# Painting cell by cell


def paint_per_cell(p, spec) -> ColorFunction:
    """The coloring of p by spec: on each cell g(u) = u . (a - alpha) +
    eta(a) - c for the cell's least mark a, evaluated at every vertex of the
    cell and differentiated along every ray."""
    colors = {}
    for marks, cell in p.cells.items():
        a = min(marks)
        slope = vsub(p.config.points[a], spec.alpha)
        vals = [vdot(v, slope) + spec.eta[a] - spec.c for v in cell.vertices]
        slopes = [vdot(r, slope) for r in cell.rays]
        has_pos = any(x > 0 for x in vals + slopes)
        has_neg = any(x < 0 for x in vals + slopes)
        if (has_pos and has_neg) or not (has_pos or has_neg):
            colors[marks] = PURPLE
        else:
            colors[marks] = RED if has_pos else BLUE
    return ColorFunction(colors)


def evaluate_oracle(f, u):
    """The minimum of u . a + eta(a) over the configuration's points a, with
    the indices attaining it, in Fractions."""
    uu = vector(u)
    vals = [vdot(uu, a) + f.eta[i] for i, a in enumerate(f.config.points)]
    best = min(vals)
    return best, frozenset(i for i, v in enumerate(vals) if v == best)


def sign_vector_oracle(config, alpha) -> tuple[int, ...]:
    """Per facet, +1 when alpha violates normal . x >= threshold, 0 on the
    facet's hyperplane, -1 strictly inside, in Fractions."""
    a = vector(alpha)
    values = [(vdot(f.normal, a), f.threshold) for f in config.facets]
    return tuple(-1 if v > t else 0 if v == t else 1 for v, t in values)


# ---------------------------------------------------------------------------
# Painted tree levels by the dual complex


def painted_tree_level_by_dual_complex(t, eta, m):
    """The level realize_painted_tree pairs with the lifting eta for the
    painted tree t: the root value, the tropical polynomial at the root
    vertex of eta's dual complex minus its pairing with alpha, plus 1 when
    the root splits, unchanged when every child of the root is unpainted,
    and minus 1 otherwise."""
    config = ngon_configuration(m)
    alpha = admissible_alpha(config)
    p, _ = dual_complex(config, eta)
    f = TropicalPolynomial(config, p.eta)
    (u,) = [c.vertices[0] for c in p.cells_of_dim(0) if frozenset({0, m}) < c.marking]
    root = evaluate(f, u)[0] - vdot(u, alpha)
    state, children = t.encoding
    if state == SPLIT:
        return root + 1
    if all(c[0] == UNPAINTED for c in children):
        return root
    return root - 1


# ---------------------------------------------------------------------------
# Polygon trees by angles


def _ccw_from(reference, items):
    """Sort (direction, payload) counterclockwise starting after reference."""

    def half(v):
        c = reference[0] * v[1] - reference[1] * v[0]
        if c > 0:
            return 0
        if c < 0:
            return 2
        if reference[0] * v[0] + reference[1] * v[1] < 0:
            return 1
        raise InconsistencyError("repeated direction at a tree node")

    def cmp(x, y):
        hx, hy = half(x[0]), half(y[0])
        if hx != hy:
            return -1 if hx < hy else 1
        c = x[0][0] * y[0][1] - x[0][1] * y[0][0]
        if c == 0:
            raise InconsistencyError("repeated direction at a tree node")
        return -1 if c > 0 else 1

    return sorted(items, key=cmp_to_key(cmp))


def planar_tree_by_angles(p):
    """The dual tree of a polygon complex p in multiplihedra._planar_tree's
    nested form, read off the geometry of its 0- and 1-cells: each node's
    outgoing edges and rays sorted counterclockwise from the edge it is
    entered by, starting at the 0-cell on the root ray, with the leaves
    checked to come out in boundary order."""
    config = p.config
    if config.dimension != 2:
        raise InputError("tree structure requires a planar configuration")
    n = len(config.points)
    boundary = {frozenset(f.members) for f in config.facets}
    if boundary != {frozenset({i, (i + 1) % n}) for i in range(n)}:
        raise InputError("points must form a counterclockwise convex polygon")
    root_marking = frozenset({0, n - 1})
    zero_cells = p.cells_of_dim(0)
    positions = [c.vertices[0] for c in zero_cells]
    markings = [c.marking for c in zero_cells]
    touching = [[] for _ in zero_cells]  # (direction, marking, other node or None)
    for cell in p.cells_of_dim(1):
        owners = [i for i, m in enumerate(markings) if cell.marking < m]
        if cell.rays:
            if len(owners) != 1:
                raise InconsistencyError("unbounded 1-cell not on exactly one vertex")
            touching[owners[0]].append((cell.rays[0], cell.marking, None))
        else:
            if len(owners) != 2:
                raise InconsistencyError("bounded 1-cell not between exactly two vertices")
            i, j = owners
            d = vsub(positions[j], positions[i])
            touching[i].append((d, cell.marking, j))
            touching[j].append((tuple(-x for x in d), cell.marking, i))
    (root, root_dir), = [
        (i, d) for i, items in enumerate(touching) for d, mk, _ in items if mk == root_marking
    ]
    leaves = []

    def build(i, incoming, parent):
        ordered = [
            (d, (mk, j))
            for d, mk, j in touching[i]
            if mk != root_marking and (j is None or j != parent)
        ]
        items = []
        for _, (mk, j) in _ccw_from(incoming, ordered):
            if j is None:
                leaves.append(mk)
                items.append((mk, None))
            else:
                items.append((mk, build(j, vsub(positions[i], positions[j]), i)))
        return markings[i], tuple(items)

    tree = build(root, root_dir, None)
    if leaves != [frozenset({i, i + 1}) for i in range(n - 1)]:
        raise InconsistencyError("leaf order does not follow the boundary")
    return tree


# ---------------------------------------------------------------------------
# Lattice isomorphism with no forward check


def refined_colors_per_lattice(lat):
    """Stable iterated neighborhood coloring; isomorphism-invariant classes.

    One lattice at a time, each round renumbered by sorted signature, so two
    isomorphic lattices end with the same colors on matching elements."""
    up = lat.up_adjacency()
    down = lat.down_adjacency()
    colors = list(lat.ranks)
    while True:
        sigs = []
        for i in range(len(lat)):
            sigs.append(
                (
                    colors[i],
                    tuple(sorted(colors[j] for j in up[i])),
                    tuple(sorted(colors[j] for j in down[i])),
                )
            )
        table: dict[tuple, int] = {}
        for s in sorted(set(sigs)):
            table[s] = len(table)
        new = [table[s] for s in sigs]
        if new == colors:
            return colors
        colors = new


def lattice_isomorphic_unpruned(l1, l2):
    """A rank-preserving order isomorphism as an index map, or None, by the
    search with no forward check.

    Backtracking over color-refinement classes; covers must map onto covers
    exactly.  Returns a list mapping l1 indices to l2 indices.
    """
    if len(l1) != len(l2) or l1.rank_counts() != l2.rank_counts():
        return None
    c1 = refined_colors_per_lattice(l1)
    c2 = refined_colors_per_lattice(l2)
    count1: dict[int, int] = {}
    count2: dict[int, int] = {}
    for c in c1:
        count1[c] = count1.get(c, 0) + 1
    for c in c2:
        count2[c] = count2.get(c, 0) + 1
    if count1 != count2:
        return None
    n = len(l1)
    cov2 = {(i, j) for i, j in l2.covers}
    up1 = l1.up_adjacency()
    down1 = l1.down_adjacency()
    candidates = [sorted(j for j in range(n) if c2[j] == c1[i]) for i in range(n)]
    order = sorted(range(n), key=lambda i: (len(candidates[i]), -len(up1[i]) - len(down1[i])))
    match = [-1] * n
    used = [False] * n

    def ok(i: int, j: int) -> bool:
        # forward cover consistency; with exact per-element cover degrees this
        # forces covers to map bijectively onto covers once the match is total
        if used[j] or len(up1[i]) != updeg2[j] or len(down1[i]) != downdeg2[j]:
            return False
        for k in up1[i]:
            if match[k] != -1 and (j, match[k]) not in cov2:
                return False
        for k in down1[i]:
            if match[k] != -1 and (match[k], j) not in cov2:
                return False
        return True

    updeg2 = [0] * n
    downdeg2 = [0] * n
    for a, b in cov2:
        updeg2[a] += 1
        downdeg2[b] += 1

    # depth-first search with an explicit stack: tried[pos] counts the
    # candidates of order[pos] already tried, so a lattice of any size
    # searches in the same order without deep recursion
    tried = [0] * n
    pos = 0
    while pos < n:
        i = order[pos]
        cands = candidates[i]
        while tried[pos] < len(cands):
            j = cands[tried[pos]]
            tried[pos] += 1
            if ok(i, j):
                match[i] = j
                used[j] = True
                pos += 1
                break
        else:
            tried[pos] = 0
            pos -= 1
            if pos < 0:
                return None
            prev = order[pos]
            used[match[prev]] = False
            match[prev] = -1
    return match


# ---------------------------------------------------------------------------
# Posets pair by pair


def poset_oracle(n: int, pairs):
    """The reflexive-transitive closure of pairs on 0..n-1 as a boolean
    matrix, its first pair i < j comparable both ways or None, and its
    covers: i < j with no k strictly between, in sorted order."""
    le = [[i == j for j in range(n)] for i in range(n)]
    for i, j in pairs:
        le[i][j] = True
    for k in range(n):
        for i in range(n):
            if le[i][k]:
                for j in range(n):
                    le[i][j] = le[i][j] or le[k][j]
    clash = next(((i, j) for i in range(n) for j in range(i + 1, n) if le[i][j] and le[j][i]), None)
    covers = [
        (i, j)
        for i in range(n)
        for j in range(n)
        if i != j
        and le[i][j]
        and not any(k not in (i, j) and le[i][k] and le[k][j] for k in range(n))
    ]
    return le, clash, covers


def minimal_and_maximal(n: int, pairs):
    """The minimal and the maximal elements of the closure of pairs on 0..n-1."""
    le, _, _ = poset_oracle(n, pairs)
    below = [any(le[j][i] for j in range(n) if j != i) for i in range(n)]
    above = [any(le[i][j] for j in range(n) if j != i) for i in range(n)]
    return [i for i in range(n) if not below[i]], [i for i in range(n) if not above[i]]


def relint_sample(cell):
    """Average of a dual cell's vertices pushed by the sum of its rays."""
    n = len(cell.vertices)
    acc = cell.vertices[0]
    for v in cell.vertices[1:]:
        acc = vadd(acc, v)
    acc = tuple(x / n for x in acc)
    for r in cell.rays:
        acc = vadd(acc, r)
    return acc


def vertex_indices(config) -> frozenset[int]:
    """The points whose singleton is a face of the configuration's hull."""
    faces = intersection_closure(
        frozenset(range(len(config.points))), (f.members for f in config.facets)
    )
    return frozenset(i for face in faces if len(face) == 1 for i in face)


# ---------------------------------------------------------------------------
# The main theorem's 0-cells upstairs by one hull per painted complex


def extended_cells_by_hull(report):
    """Per painted complex of a MainTheoremReport, the index of the
    extended subdivision its embedded lifting induces (None if it is not
    enumerated) and that subdivision's 0-cells upstairs as (support slope,
    marks), read off one induced hull."""
    ext = report.extension
    skey = {s.key: j for j, s in enumerate(report.subdivision_poset.payload)}
    out = []
    for pc in report.painted_poset.payload:
        sbar = induce_subdivision(ext.extended, embed_lifting(pc.spec))
        out.append((skey.get(sbar.key), {(mc.support.linear, mc.marks) for mc in sbar.maximal}))
    return out
