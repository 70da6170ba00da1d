"""Polygon duals as rooted planar trees, painted trees, and multiplihedra.

For a convex polygon configuration the dual complex is a rooted planar tree,
fixed by the subdivision alone and read off its cells' marks: a node per
cell, a compact edge per chord, the root ray dual to the edge from the last
vertex back to the first, and the remaining rays as leaves in
counterclockwise boundary order.  With the distinguished point just outside
the root edge, painting colors the root side red and the leaf tips blue, so
each painted complex turns into a classical painted tree.  Edge-length
prescription makes every painted tree realizable, and the painted-tree
contraction lattice is checked against the secondary polytope of the
extended configuration.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import lcm

from .errors import (
    InconsistencyError,
    InputError,
    ResourceCapError,
    VerificationError,
)
from .geometry import Vec, _dot, _hyperplane, _int_det, _int_row, as_fraction, vector
from .lattice import FaceLattice, graded_lattice, lattice_isomorphic
from .painting import BLUE, PURPLE, RED, PaintedComplex, PaintSpec, painting_constraint
from .painting_polytope import extend
from .point_config import PointConfiguration, build_configuration, sign_vector
from .regular_subdivision import (
    Lifting,
    MarkedCell,
    Subdivision,
    _cell_tops,
    _spanning_marks,
    enumerate_coherent_subdivisions,
    secondary_cone,
)
from .tropical_dual import TropicalComplex, dual_complex

ONE = Fraction(1)

PAINTED = "painted"
UNPAINTED = "unpainted"
SPLIT = "split"  # a paint change inside the edge, i.e. a bivalent node


def _check(condition: bool, message: str) -> None:
    """An internal invariant, raised as InconsistencyError so that it also
    holds under python -O, where assert statements are dropped."""
    if not condition:
        raise InconsistencyError(message)


def ngon_configuration(m: int) -> PointConfiguration:
    """m+1 rational points in convex position, labeled counterclockwise.

    Points sit on a parabola, so every point is a vertex and all coordinates
    stay small integers.
    """
    if m < 2:
        raise InputError("need at least a triangle")
    return build_configuration([(k, k * k) for k in range(m + 1)])


def _on_some_diagonal(config: PointConfiguration, beta: Vec) -> bool:
    """Whether beta lies on the line through two points that share no
    boundary facet, decided in integers.

    With a = P / L for the rows (P, 1) of config.integer_points and
    beta = B / D, D the lcm of beta's denominators, beta lies on the line
    through a_i and a_j exactly when (P_j - P_i) x (L B - D P_i) = 0.  The
    points sharing a facet with a_i are the union of the facet masks that
    hold i, which may hold more than two points.
    """
    rows, scale = config.integer_points
    bx, by, den = _int_row(beta)
    bx, by = bx * scale, by * scale
    for i, (xi, yi, _) in enumerate(rows):
        u, v = bx - den * xi, by - den * yi
        near = 0
        for f in config.facet_masks:
            if f >> i & 1:
                near |= f
        for j in range(i + 1, len(rows)):
            if not near >> j & 1:
                xj, yj, _ = rows[j]
                if (xj - xi) * v == (yj - yi) * u:
                    return True
    return False


def admissible_alpha(config: PointConfiguration) -> Vec:
    """A distinguished point just outside the root edge, off every diagonal.

    Searched by halving the outward offset from the root-edge midpoint; each
    diagonal line meets the search ray at most once, so the search ends.
    """
    n = len(config.points)
    root = frozenset({0, n - 1})
    root_facet = None
    for f in config.facets:
        if frozenset(f.members) == root:
            root_facet = f
            break
    if root_facet is None:
        raise InputError("no boundary edge joins the first and last points")
    a, b = config.points[0], config.points[n - 1]
    mid = tuple((x + y) / 2 for x, y in zip(a, b))
    outward = tuple(-x for x in root_facet.normal)
    eps = Fraction(1, 2)
    for _ in range(64):
        alpha = tuple(m + eps * o for m, o in zip(mid, outward))
        signs = sign_vector(config, alpha).signs
        pattern_ok = all(
            (s == 1) == (frozenset(f.members) == root)
            for f, s in zip(config.facets, signs)
        )
        if pattern_ok and not _on_some_diagonal(config, alpha):
            return alpha
        eps = eps / 2
    raise InconsistencyError("no admissible point found")  # unreachable


def _planar_tree(s: Subdivision):
    """A polygon subdivision's dual tree, read off its cells' marks.

    For points in counterclockwise convex position, a cell with sorted marks
    c0 < ... < ck has the edges {c_j, c_j+1} and {c0, ck} (De Loera, Rambau
    & Santos, Triangulations, 2010, ch. 2).  A node is (cell marks, items),
    with one item per edge {a, b} = {c_j, c_j+1} in boundary order: (marking,
    None) for the leaf ray of a boundary edge, b = a + 1, and (chord marking,
    child node) otherwise, the child being the other cell whose least and
    greatest marks are a and b.  The root is the cell holding {0, n - 1}.
    """
    config = s.config
    n = len(config.points)
    if (
        config.dimension != 2
        or set(config.facet_masks) != {1 << i | 1 << (i + 1) % n for i in range(n)}
        or _int_det(config.integer_points[0][:3]) < 0
    ):
        raise InputError("points must form a counterclockwise convex polygon")
    under = {(min(mc.marks), max(mc.marks)): mc.marks for mc in s.maximal}
    _check(len(under) == len(s.maximal), "two cells under one chord")

    def node(a, b):
        marks = under.pop((a, b), None)
        _check(marks is not None, f"no cell under the chord {{{a}, {b}}}")
        cs = sorted(marks)
        return marks, tuple(
            (frozenset({c, d}), None if d == c + 1 else node(c, d)) for c, d in zip(cs, cs[1:])
        )

    root = node(0, n - 1)
    _check(not under, "a cell hangs under no chord")
    return root


class PaintedTree:
    """A rooted planar tree with a paint state per edge, canonically encoded.

    The encoding is nested pairs (state, children): children is None for a
    leaf half-edge and a tuple for an internal edge over a node; the whole
    tree is the entry of the root half-edge.  A split edge carries the
    bivalent node where painting stops inside the edge.
    """

    __slots__ = ("encoding", "leaf_count")

    def __init__(self, encoding):
        self.encoding = encoding
        self.leaf_count = _validate_painted(encoding, True)

    def shape(self):
        def walk(entry):
            if entry[1] is None:
                return ()
            return tuple(walk(c) for c in entry[1])

        return walk(self.encoding)

    def __eq__(self, other):
        return isinstance(other, PaintedTree) and self.encoding == other.encoding

    def __hash__(self):
        return hash(self.encoding)

    def __repr__(self):
        return f"PaintedTree({_tree_label(self.encoding)})"


def _tree_label(entry) -> str:
    head = {PAINTED: "P", UNPAINTED: "U", SPLIT: "S"}[entry[0]]
    if entry[1] is None:
        return head
    return head + "(" + ",".join(_tree_label(c) for c in entry[1]) + ")"


def _validate_painted(entry, upper_painted: bool) -> int:
    """Check the node rules and return the leaf count of the subtree.

    Painting always stops exactly once on the way down: an edge is fully
    painted, fully unpainted, or split.  Below a node the children must agree
    on whether their tops are painted, so the stop happens at a node for all
    branches at once or separately inside edges.
    """
    state, children = entry
    if upper_painted and state == UNPAINTED:
        raise InputError("painted region is not connected to the root")
    if not upper_painted and state != UNPAINTED:
        raise InputError("paint appears below an unpainted edge")
    if children is None:
        if state == PAINTED:
            raise InputError("leaves must be unpainted")
        return 1
    if len(children) < 2:
        raise InputError("internal nodes need at least two children")
    lower = state == PAINTED
    uppers = {c[0] != UNPAINTED for c in children}
    if len(uppers) > 1:
        raise InputError("children disagree on painting at a node")
    if not lower and uppers == {True}:
        raise InputError("paint appears below an unpainted edge")
    return sum(_validate_painted(c, c[0] != UNPAINTED) for c in children)


def painted_tree_of(pc: PaintedComplex) -> PaintedTree:
    """Convert a painted polygon complex to its painted tree.

    Red edges are painted, blue edges are unpainted, purple edges split.
    The sign pattern of an admissible distinguished point guarantees the
    root side is painted and every leaf tip is not.
    """
    root = _planar_tree(pc.complex.subdivision)
    kappa = pc.kappa
    to_state = {RED: PAINTED, BLUE: UNPAINTED, PURPLE: SPLIT}

    def encode(node):
        out = []
        for marking, child in node[1]:
            col = kappa[marking]
            _check(child is not None or col != RED, "red leaf ray contradicts the sign pattern")
            out.append((to_state[col], None if child is None else encode(child)))
        return tuple(out)

    root_col = kappa[frozenset({0, len(pc.complex.config.points) - 1})]
    _check(root_col != BLUE, "blue root ray contradicts the sign pattern")
    return PaintedTree((to_state[root_col], encode(root)))


class EdgeLengthTarget:
    """Positive length per compact edge, keyed by chord marking."""

    def __init__(self, lengths):
        self.lengths = {frozenset(k): as_fraction(v) for k, v in lengths.items()}
        if any(v <= 0 for v in self.lengths.values()):
            raise InputError("edge length targets must be positive")


def _cell_planes(config: PointConfiguration, tops, eta_row) -> list[tuple[tuple[int, ...], int]]:
    """Per maximal cell mask in tops, the upward integer plane n . P = o
    through the lifted rows P = (L a, -E(a)) of d + 1 affinely independent
    marks: L is the scale of config.integer_points, eta_row = [E..., D] the
    lifting's heights E over a common denominator D, and n is
    _hyperplane's normal, turned so that its last coordinate n_h is
    positive.

    One integer dot per configuration point checks each plane: n . P <= o
    everywhere, with equality exactly on the cell's marks, or
    InconsistencyError.  Then the plane cuts an upper facet whose members
    are the marks, so the lifting induces that cell.  With the volume half
    (see _cell_tops) this is the regular subdivision certificate (Gelfand,
    Kapranov & Zelevinsky 1994, ch. 7; De Loera, Rambau & Santos 2010,
    ch. 5): the lifting induces exactly the cells of tops.
    """
    rows, _ = config.integer_points
    # zip stops at the last point, before eta_row's D
    lifted = [row[:-1] + (-h,) for row, h in zip(rows, eta_row)]
    d = config.dimension
    planes = []
    for top in tops:
        cell = [i for i in range(top.bit_length()) if top >> i & 1]
        basis = cell if len(cell) == d + 1 else _spanning_marks(config, cell)
        plane = _hyperplane([lifted[i] for i in basis]) if len(basis) == d + 1 else None
        if plane is None or not plane[0][-1]:
            raise InconsistencyError(f"cell {cell} is not full-dimensional")
        normal, offset = plane
        if normal[-1] < 0:
            normal, offset = tuple(-x for x in normal), -offset
        on = 0
        for i, point in enumerate(lifted):
            v = _dot(normal, point)
            if v > offset:
                raise InconsistencyError(f"the lifting puts point {i} above cell {cell}'s plane")
            if v == offset:
                on |= 1 << i
        if on != top:
            held = [i for i in range(on.bit_length()) if on >> i & 1]
            raise InconsistencyError(f"the plane of cell {cell} holds the points {held}")
        planes.append((normal, offset))
    return planes


def _compact_edges(p: TropicalComplex, tops) -> dict[frozenset[int], tuple[int, int]]:
    """Per compact edge of p, by marking: the indices in tops of the two
    maximal cells whose marks hold it, in tops' order."""
    edges = {}
    for cell in p.cells_of_dim(1):
        if not cell.rays:
            mask = sum(1 << i for i in cell.marking)
            pair = [k for k, top in enumerate(tops) if mask & top == mask]
            _check(len(pair) == 2, "compact edge not between exactly two maximal cells")
            edges[cell.marking] = tuple(pair)
    return edges


def _edge_offsets(config: PointConfiguration, planes, edges, den: int, beta) -> dict:
    """Per compact edge, the root-to-leaf difference at beta of its two
    cells' supports, unsigned, read off their planes with one Fraction per
    edge.

    A plane (n, o) of _cell_planes, for a lifting whose heights have the
    common denominator den = D, is its cell's support a -> (o - L n' . a) /
    (D n_h), n' its base part; at beta = B / D_beta that is X / (D n_h
    D_beta) with X = o D_beta - L n' . B, so two cells' difference has the
    integer numerator X_k n_h,l - X_l n_h,k.
    """
    _, scale = config.integer_points
    *b, db = _int_row(beta)
    b = [scale * x for x in b]
    # _dot stops at b's end, before each normal's n_h
    at_beta = [(o * db - _dot(n, b), n[-1]) for n, o in planes]
    offsets = {}
    for marking, (i, j) in edges.items():
        (xk, hk), (xl, hl) = at_beta[i], at_beta[j]
        offsets[marking] = Fraction(abs(xk * hl - xl * hk), den * db * hk * hl)
    return offsets


def _edge_offset(p: TropicalComplex, beta: Vec):
    """Per compact edge: the two adjacent maximal-cell supports k, l, in
    p.subdivision.maximal's order, and the edge's current offset at beta,
    read off the cells' integer planes as realize_edge_lengths reads them."""
    maximal = p.subdivision.maximal
    tops = p.subdivision.tops
    edges = _compact_edges(p, tops)
    row = _int_row(p.eta.values)
    offsets = _edge_offsets(p.config, _cell_planes(p.config, tops, row), edges, row[-1], beta)
    return {
        marking: (maximal[i].support, maximal[j].support, offsets[marking])
        for marking, (i, j) in edges.items()
    }


def realize_edge_lengths(
    p: TropicalComplex, beta, target: EdgeLengthTarget
) -> Lifting:
    """A lifting with the same combinatorial type whose compact edges all
    achieve the prescribed offsets at beta, exactly.

    p must be a polygon subdivision's complex with no compact 2-cell, that
    is no interior vertex, so its compact edges form a tree.  First scale
    the seed lifting by lam so every offset falls below its target, then per
    edge add the one-sided correction max(0, t * (l - k)) built from the
    supports k, l of its two cells, which lifts the offset to its target.
    One pass over p's own supports is exact: scaling scales every support
    by lam, and each correction is affine on the cells of any other edge,
    which lie on one side of its chord because the dual graph is a tree, so
    it leaves their difference of supports untouched.

    Everything runs on integer planes (see _cell_planes): the supports, the
    offsets and the signs and values of each l - k, one integer dot per
    point on config.integer_points; only the output heights become
    Fractions.  The result is certified with no hull: p's cells pass the
    volume half of the tiling certificate (see _cell_tops), and the
    result's plane over each cell lies weakly above every lifted point and
    touches exactly that cell's marks.  So the result induces exactly p's
    cells, which puts it in p's open secondary cone, p's compact-edge
    markings are its compact edges, and the offset read off each edge's two
    new planes must equal the target.
    """
    config = p.config
    if config.dimension != 2 or any(
        c.dimension == 2 and not c.rays for c in p.cells.values()
    ):
        raise InputError(
            "edge lengths are realized on polygon subdivisions with no interior vertex"
        )
    beta = vector(beta)
    if len(beta) != config.dimension:
        raise InputError("beta dimension mismatch")
    if _on_some_diagonal(config, beta):
        raise InputError("beta lies on the affine hull of a diagonal")
    tops = _cell_tops(config, p.subdivision)
    edges = _compact_edges(p, tops)
    missing = [m for m in edges if frozenset(m) not in target.lengths]
    if missing:
        raise InputError(f"no target for edges {sorted(sorted(m) for m in missing)}")
    *heights, den = row = _int_row(p.eta.values)
    planes = _cell_planes(config, tops, row)
    if not edges:
        return p.eta
    values = _edge_offsets(config, planes, edges, den, beta)
    _check(all(values.values()), "zero edge offset despite the diagonal check")
    lam = min(target.lengths[m] / v for m, v in values.items()) / 2
    # each height of the result is a sum over the columns of coefficient
    # times column
    coefficients, columns = [lam / den], [heights]
    rows, _ = config.integer_points
    for marking, (i, j) in edges.items():
        t = target.lengths[marking] / values[marking] - lam
        _check(t > 0, "edge correction would not lengthen the edge")
        (nk, ok), (nl, ol) = planes[i], planes[j]
        hk, hl = nk[-1], nl[-1]
        # D hk hl (l - k)(a) = u . (L a, 1), one integer dot per point
        u = [x * hl - y * hk for x, y in zip(nk[:-1], nl[:-1])] + [ol * hk - ok * hl]
        coefficients.append(t / (den * hk * hl))
        columns.append([max(0, _dot(u, r)) for r in rows])
    common = lcm(*(c.denominator for c in coefficients))
    weights = [c.numerator * (common // c.denominator) for c in coefficients]
    # the result's heights over one common denominator, a working row as
    # _cell_planes reads it
    row = [_dot(weights, column) for column in zip(*columns)] + [common]
    result = Lifting(tuple(Fraction(x, common) for x in row[:-1]))
    achieved = _edge_offsets(config, _cell_planes(config, tops, row), edges, common, beta)
    for marking in edges:
        _check(achieved[marking] == target.lengths[marking], "edge target missed")
    return result


def _subdivision_of_shape(config: PointConfiguration, shape) -> Subdivision:
    """The polygon subdivision whose dual tree has the given shape: each node
    becomes the cell spanning its children's leaf blocks."""

    def leaf_count(s):
        return 1 if s == () else sum(leaf_count(c) for c in s)

    cells = []

    def walk(s, lo, hi):
        cuts = [lo]
        for child in s:
            cuts.append(cuts[-1] + leaf_count(child))
        _check(cuts[-1] == hi, "subtree leaves do not fill their interval")
        cells.append(frozenset(cuts))
        for child, a, b in zip(s, cuts, cuts[1:]):
            if child != ():
                walk(child, a, b)

    m = len(config.points) - 1
    if leaf_count(shape) != m or shape == ():
        raise InputError("shape does not fit the polygon")
    walk(shape, 0, m)
    return Subdivision(config, [MarkedCell(c) for c in cells])


def realize_painted_tree(t: PaintedTree, m: int) -> PaintSpec:
    """A lifting and level whose painted complex has the given painted tree.

    The underlying subdivision comes from the tree shape.  When the paint
    stops on the root ray or at the root vertex any realization works with a
    level above or at the root vertex's value.  Otherwise compact edge
    offsets are prescribed so that red paths from the root stay short of 1,
    the path into each split-at-node point telescopes to exactly 1, and blue
    edges overshoot; the level one below the root value then paints every
    cell as the tree demands.  The root vertex is dual to the one maximal
    cell R containing the root edge.  The painting constraint of R's marks
    takes the value lam (r - c) at (eta, c), r the root value and lam > 0
    minus its level coefficient, so r is read off eta with no hull, for
    every eta whose subdivision has the cell R.
    """
    if not isinstance(t, PaintedTree):
        t = PaintedTree(t)
    if t.leaf_count != m:
        raise InputError(f"tree has {t.leaf_count} leaves, not {m}")
    config = ngon_configuration(m)
    alpha = admissible_alpha(config)
    s = _subdivision_of_shape(config, t.shape())
    seed = Lifting.of(config, secondary_cone(config, s).interior_point)
    root = _planar_tree(s)
    *fn, level = painting_constraint(config, root[0], alpha)

    def root_value(eta):
        return sum(c * x for c, x in zip(fn, eta.values, strict=True)) / -level

    state, children = t.encoding
    if state == SPLIT:
        return PaintSpec(seed, root_value(seed) + 1, alpha)
    if all(c[0] == UNPAINTED for c in children):
        return PaintSpec(seed, root_value(seed), alpha)

    p, _ = dual_complex(config, seed)
    _check(p.subdivision.key == s.key, "seed lifting realizes a different subdivision")
    lengths = {}

    def assign(node, entries, depth):
        for (marking, child), (st, sub) in zip(node[1], entries):
            if child is None:
                continue
            if st == PAINTED:
                value = (
                    Fraction(1, m)
                    if any(c[0] != UNPAINTED for c in sub)
                    else ONE - Fraction(depth, m)
                )
            else:
                value = Fraction(2)
            lengths[marking] = value
            assign(child, sub, depth + 1)

    assign(root, children, 0)
    eta = realize_edge_lengths(p, alpha, EdgeLengthTarget(lengths))
    return PaintSpec(eta, root_value(eta) - 1, alpha)


def _tree_shapes(m: int):
    if m == 1:
        return [()]
    out = []
    for k in range(2, m + 1):
        # the compositions of m into k parts, by their k - 1 cut points
        for cuts in combinations(range(1, m), k - 1):
            comp = [b - a for a, b in zip((0,) + cuts, cuts + (m,))]
            for combo in product(*[_tree_shapes(c) for c in comp]):
                out.append(tuple(combo))
    return out


def _painted_variants(shape, upper_painted: bool):
    if shape == ():
        return [((SPLIT if upper_painted else UNPAINTED), None)]
    states = (PAINTED, SPLIT) if upper_painted else (UNPAINTED,)
    out = []
    for st in states:
        lower = st == PAINTED
        upper_choices = (True, False) if lower else (False,)
        for cu in upper_choices:
            for combo in product(*[_painted_variants(c, cu) for c in shape]):
                out.append((st, tuple(combo)))
    return out


def _tree_rank(entry) -> int:
    state, children = entry
    if children is None:
        return 0
    r = len(children) - 2
    if state == PAINTED and all(c[0] == UNPAINTED for c in children):
        r += 1  # the paint stops at this node: one degree of freedom more
    return r + sum(_tree_rank(c) for c in children)


def _single_moves(entry):
    """All painted trees one contraction above this one.

    Moves: contract a fully painted edge under an all-painted node or a
    fully unpainted edge; slide a split down into the node below it; sweep
    the paint boundary up into a node whose children all carry it just
    below, in their edges or at their top nodes, contracting the painted
    edges whose nodes the sweep absorbs.
    """
    state, children = entry
    out = []
    if children is None:
        return out
    if state == SPLIT:
        out.append((PAINTED, children))
    if state == PAINTED:
        parts = []
        for cs, cc in children:
            if cs == SPLIT:
                parts.append(((UNPAINTED, cc),))
            elif cs == PAINTED and cc is not None and all(
                g[0] == UNPAINTED for g in cc
            ):
                parts.append(cc)
            else:
                parts = None
                break
        if parts is not None:
            out.append((PAINTED, tuple(x for p in parts for x in p)))
    for i, child in enumerate(children):
        cs, cc = child
        if cc is not None:
            if cs == PAINTED and all(g[0] != UNPAINTED for g in cc):
                out.append((state, children[:i] + cc + children[i + 1 :]))
            if cs == UNPAINTED:
                out.append((state, children[:i] + cc + children[i + 1 :]))
        for moved in _single_moves(child):
            out.append((state, children[:i] + (moved,) + children[i + 1 :]))
    return out


def multiplihedron_lattice(m: int) -> FaceLattice:
    """Painted trees with m leaves under contraction, as a graded lattice.

    Each single move raises _tree_rank by one, which graded_lattice checks,
    so the moves are exactly the covers of the order they generate.
    """
    if m < 2:
        raise InputError("need at least two leaves")
    if m > 5:
        raise ResourceCapError(
            f"painted trees are enumerated for at most 5 leaves, not {m}: the most that "
            "verify_multiplihedron_theorem checks (381 trees at m = 5, 2311 at m = 6)"
        )
    trees = []
    for shape in _tree_shapes(m):
        trees.extend(_painted_variants(shape, True))
    index = {t: i for i, t in enumerate(trees)}
    _check(len(index) == len(trees), "painted tree enumeration repeats a tree")
    for t in trees:
        _validate_painted(t, True)
    moves = [(index[t], index[moved]) for t in trees for moved in _single_moves(t)]
    return graded_lattice([_tree_rank(t) for t in trees], moves, [_tree_label(t) for t in trees])


class MultiplihedronReport:
    def __init__(self, m, face_count, vertex_count, lattice_match):
        self.m = m
        self.face_count = face_count
        self.vertex_count = vertex_count
        self.lattice_match = tuple(lattice_match)

    def __repr__(self):
        return (
            f"MultiplihedronReport(m={self.m}, {self.face_count} faces, "
            f"{self.vertex_count} vertices)"
        )


def verify_multiplihedron_theorem(m: int) -> MultiplihedronReport:
    """Check that the extended polygon's secondary polytope is the
    m-th multiplihedron, as graded lattices.  The painted trees come first,
    so their leaf cap refuses m before any hull is built."""
    mlat = multiplihedron_lattice(m)
    config = ngon_configuration(m)
    alpha = admissible_alpha(config)
    ext = extend(config, alpha)
    slat = enumerate_coherent_subdivisions(ext.extended)
    if len(slat) != len(mlat):
        raise VerificationError(
            f"{len(slat)} subdivisions of the extended polygon vs "
            f"{len(mlat)} painted trees"
        )
    match = lattice_isomorphic(slat, mlat)
    if match is None:
        raise VerificationError("face lattices are not isomorphic")
    return MultiplihedronReport(m, len(slat), slat.rank_counts().get(0, 0), match)
