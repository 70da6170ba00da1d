"""Exact rational linear algebra, convex hulls, and LP feasibility.

Exact rationals at the API, integer arithmetic inside, no floats: every
public function takes and returns fractions.Fraction values, while
elimination, hulls and the simplex run on Python ints (fraction-free rows,
points scaled by a common denominator).  Vectors are plain tuples of
Fractions, which keeps them hashable and cheap.  Scale target is "desk
scale": tens of points, ambient dimension at most six.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .errors import DegenerateInputError, InputError

Vec = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def as_fraction(x) -> Fraction:
    """Coerce int / str ("p/q") / Fraction to Fraction. Floats are refused."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as e:
            raise InputError(f"bad rational literal {x!r}: {e}") from None
    raise InputError(f"expected exact rational, got {type(x).__name__}")


def vector(xs) -> Vec:
    return tuple(as_fraction(x) for x in xs)


def vadd(u: Vec, v: Vec) -> Vec:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vsub(u: Vec, v: Vec) -> Vec:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def vscale(s, v: Vec) -> Vec:
    s = as_fraction(s)
    return tuple(s * a for a in v)


def vdot(u: Vec, v: Vec) -> Fraction:
    # one running numerator over one denominator: a single normalization
    num, den = 0, 1
    for a, b in zip(u, v, strict=True):
        d = a.denominator * b.denominator
        num = num * d + a.numerator * b.numerator * den
        den *= d
    return Fraction(num, den)


def is_zero_vector(v: Vec) -> bool:
    return all(a == 0 for a in v)


def primitive_vector(v: Vec) -> Vec:
    """Scale a nonzero rational vector to coprime integers, keeping direction."""
    if is_zero_vector(v):
        raise DegenerateInputError("zero vector has no primitive form")
    mult = lcm(*(a.denominator for a in v))
    ints = [int(a * mult) for a in v]
    g = 0
    for a in ints:
        g = gcd(g, abs(a))
    return tuple(Fraction(a, g) for a in ints)


# ---------------------------------------------------------------------------
# Fraction-free elimination
#
# A working row is a list of ints [numerators..., denominator] standing for
# the rational row numerators / denominator, the denominator positive.  The
# numbers stay bounded by the matrix's minors (Edmonds 1967), as in Bareiss
# (1968) elimination, because every row is kept primitive.  One pivot step,
# _pivot, serves every routine: _echelon brings a whole matrix to reduced
# echelon form, and independent_rows reduces one row at a time against the
# rows it has kept, which is all a rank or a greedy basis needs.


def _exact(xs) -> list:
    """The entries as ints or Fractions, which both carry numerator and denominator."""
    return [x if isinstance(x, (int, Fraction)) else as_fraction(x) for x in xs]


def _int_row(xs) -> list[int]:
    """The working row of a rational row: numerators over the lcm of its denominators."""
    fs = _exact(xs)
    m = lcm(*(f.denominator for f in fs))
    if m == 1:
        return [f.numerator for f in fs] + [1]
    return [f.numerator * (m // f.denominator) for f in fs] + [m]


def _integer_points(points) -> tuple[list[tuple[int, ...]], int]:
    """(integer points, L): the points times the lcm L of all their denominators."""
    pts = [_exact(p) for p in points]
    scale = lcm(*(x.denominator for p in pts for x in p))
    if scale == 1:
        return [tuple(x.numerator for x in p) for p in pts], 1
    return [tuple(x.numerator * (scale // x.denominator) for x in p) for p in pts], scale


def _pivot(rows: list[list[int]], r: int, c: int, lo: int = 0) -> None:
    """Clear column c from rows[lo:] except rows[r]; cleared rows are replaced,
    never mutated, so callers may share row lists.

    Each cleared row becomes the primitive form of |p| row - sgn(p) row[c]
    rows[r], p = rows[r][c], with the pivot row's denominator read as 0:
    exactly row - (row[c] / rows[r][c]) rows[r] as a rational row.
    """
    prow = rows[r]
    p = prow[c]
    q = abs(p)
    for i in range(lo, len(rows)):
        row = rows[i]
        a = row[c]
        if a and i != r:
            if p < 0:
                a = -a
            new = [q * x - a * y for x, y in zip(row, prow)]
            new[-1] = q * row[-1]
            g = gcd(*new)
            if g > 1:
                new = [x // g for x in new]
            rows[i] = new


def _echelon(rows: list[list[int]]) -> list[int]:
    """Bring working rows in place to reduced echelon form; returns the pivot
    columns.

    Rows past the last pivot end up zero, and pivot row r is zero in every
    pivot column but its own, so rows[r][j] / rows[r][pivots[r]] is the
    reduced row echelon form.
    """
    pivots: list[int] = []
    n = len(rows)
    if not n:
        return pivots
    r = 0
    for c in range(len(rows[0]) - 1):
        for i in range(r, n):
            if rows[i][c]:
                break
        else:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        _pivot(rows, r, c)
        pivots.append(c)
        r += 1
        if r == n:
            break
    return pivots


def independent_rows(rows) -> list[int]:
    """Indices of the lexicographically first maximal linearly independent
    subset of the rows, the one a greedy pass picks.

    Each working row is reduced against the rows kept so far, in the order
    kept: each is zero in the pivot columns of those before it, so one sweep
    clears the candidate, which is kept when anything is left.
    """
    kept: list[list[int]] = []
    pivots: list[int] = []
    out: list[int] = []
    for i, row in enumerate(rows):
        kept.append(_int_row(row))
        for r, c in enumerate(pivots):
            _pivot(kept, r, c, len(pivots))
        work = kept[-1]
        c = next((j for j in range(len(work) - 1) if work[j]), None)
        if c is None:
            kept.pop()
            continue
        pivots.append(c)
        out.append(i)
        if len(pivots) == len(work) - 1:
            break  # full column rank: every later row is dependent
    return out


def _rref(rows) -> tuple[list[Vec], list[int]]:
    """Reduced row echelon form of a rational matrix: (nonzero rows, pivot columns)."""
    work = [_int_row(row) for row in rows]
    pivots = _echelon(work)
    return [tuple(Fraction(x, row[c]) for x in row[:-1]) for row, c in zip(work, pivots)], pivots


def _int_det(rows) -> int:
    """Determinant of a square integer matrix by Bareiss (1968) elimination:
    after step k every entry left is a (k + 1)-minor, so each division is
    exact and the last entry is the determinant."""
    m = [list(row) for row in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if not m[k][k]:
            i = next((i for i in range(k + 1, n) if m[i][k]), None)
            if i is None:
                return 0
            m[k], m[i] = m[i], m[k]
            sign = -sign
        pk = m[k]
        p = pk[k]
        for row in m[k + 1 :]:
            a = row[k]
            for j in range(k + 1, n):
                row[j] = (p * row[j] - a * pk[j]) // prev
        prev = p
    return sign * m[-1][-1] if n else 1


def _circuit_dependence(rows) -> list[int]:
    """A linear dependence of k + 1 integer vectors in Z^k: their signed
    maximal minors, (-1)^j times the determinant of all rows but row j.  It
    is zero only when every k of the rows are dependent."""
    return [(-1) ** j * _int_det(rows[:j] + rows[j + 1 :]) for j in range(len(rows))]


def _det(rows) -> Fraction:
    """Determinant of a square rational matrix: that of its rows' numerators
    over the product of their denominators."""
    work = [_int_row(row) for row in rows]
    den = 1
    for row in work:
        den *= row[-1]
    return Fraction(_int_det([row[:-1] for row in work]), den)


def matrix_rank(rows) -> int:
    return len(independent_rows(rows))


def solve_square(a_rows, b) -> Vec | None:
    """Solve A x = b for square A; None when A is singular."""
    n = len(a_rows)
    work = [_int_row(list(row) + [bi]) for row, bi in zip(a_rows, b, strict=True)]
    pivots = _echelon(work)
    if pivots != list(range(n)):
        return None  # singular or inconsistent
    return tuple(Fraction(row[n], row[r]) for r, row in enumerate(work))


def nullspace_basis(rows) -> list[Vec]:
    """A basis of the kernel of the row matrix (empty rows: empty basis)."""
    if not rows:
        return []
    work = [_int_row(row) for row in rows]
    pivots = _echelon(work)
    ncols = len(work[0]) - 1
    pivot_set = set(pivots)
    out = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        sol = [ZERO] * ncols
        sol[f] = ONE
        for row, c in zip(work, pivots):
            sol[c] = Fraction(-row[f], row[c])
        out.append(tuple(sol))
    return out


def affine_rank(points) -> int:
    """Dimension of the affine hull of a nonempty point list."""
    pts, _ = _integer_points(points)
    if not pts:
        raise InputError("affine_rank of an empty point list")
    base = pts[0]
    if any(len(p) != len(base) for p in pts):
        raise InputError("points of mixed dimension")
    return matrix_rank([[a - b for a, b in zip(p, base)] for p in pts[1:]])


# ---------------------------------------------------------------------------
# Affine functionals


@dataclass(frozen=True)
class AffineFunctional:
    """x -> linear . x - constant."""

    linear: Vec
    constant: Fraction

    def __call__(self, x) -> Fraction:
        return vdot(self.linear, vector(x)) - self.constant

    def scaled(self, s) -> "AffineFunctional":
        s = as_fraction(s)
        return AffineFunctional(vscale(s, self.linear), s * self.constant)


# ---------------------------------------------------------------------------
# Convex hulls (beneath-beyond with exact predicates)
#
# The hull works on integer points: the input scaled by the lcm L of all its
# denominators.  Each facet candidate's normal is a vector of signed minors,
# so no elimination and no Fraction runs inside the hull.  A plane n . P = o
# there is the plane (L n) . x = o of the input: convex_hull_facets maps a
# facet back by one primitive scaling into a HullFacet, and upper_hull_facets
# maps an upper facet straight to its support, one Fraction per coordinate.


@dataclass(frozen=True)
class HullFacet:
    """Supporting halfspace normal . x <= offset; members = all input points on it."""

    normal: Vec  # outward, primitive integer
    offset: Fraction
    members: frozenset[int]


def _dot(u, v) -> int:
    return sum(map(mul, u, v))


def _hyperplane(points: list[tuple[int, ...]]) -> tuple[tuple[int, ...], int] | None:
    """Primitive integer normal and offset of the hyperplane through d integer
    points in Z^d; None when they are affinely dependent.

    The normal is the signed maximal minors of the d - 1 difference rows,
    (-1)^k times the determinant without column k, over their gcd: the
    circuit dependence of the d columns, orthogonal to every row and zero
    exactly when the rows are dependent.  For d = 3 the minors are the cross
    product.  The sign is arbitrary; _simplicial_hull orients it.
    """
    base = points[0]
    rows = [[a - b for a, b in zip(p, base)] for p in points[1:]]
    if len(base) == 3:
        (u0, u1, u2), (v0, v1, v2) = rows
        normal = (u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0)
    else:
        normal = _circuit_dependence([[row[k] for row in rows] for k in range(len(base))])
    g = gcd(*normal)
    if not g:
        return None
    normal = tuple(x // g for x in normal)
    return normal, _dot(normal, base)


def _initial_simplex(pts: list[tuple[int, ...]], d: int) -> list[int]:
    # points are affinely independent exactly when the rows (point, 1) are
    # linearly independent
    chosen = independent_rows(p + (1,) for p in pts)
    if len(chosen) < d + 1:
        raise DegenerateInputError(
            f"points span only {len(chosen) - 1} dimensions, need {d} for a full hull"
        )
    return chosen


def _simplicial_hull(pts: list[tuple[int, ...]], seed: list[int]):
    """Beneath-beyond insertion over integer points from the initial simplex seed.

    Returns the simplicial facets (outward normal, offset, vertex index tuple)
    and the vertex sum of the initial simplex, (d + 1) times an interior
    point.  Several simplicial facets may share a supporting hyperplane when
    the input is degenerate.
    """
    d = len(seed) - 1
    ref = [sum(pts[i][k] for i in seed) for k in range(d)]

    facets: list[tuple[tuple[int, ...], int, tuple[int, ...]]] = []

    def oriented(vert_ids: tuple[int, ...]):
        plane = _hyperplane([pts[i] for i in vert_ids])
        if plane is None:
            raise DegenerateInputError("degenerate facet candidate")
        normal, offset = plane
        side = _dot(normal, ref) - (d + 1) * offset
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
        ridge_count: dict[frozenset[int], int] = {}
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


def convex_hull_facets(points) -> list[HullFacet]:
    """Facets of the convex hull of a full-dimensional point list.

    Output facets are merged (non-simplicial), with primitive outward normals
    and member sets listing every input point on the facet.  Sorted by member
    set for determinism.
    """
    pts, scale = _integer_points(points)
    if not pts:
        raise InputError("convex hull of an empty point list")
    out = []
    for normal, offset, members in _hull_facets(pts, _initial_simplex(pts, len(pts[0]))):
        full = [scale * x for x in normal] + [offset]
        g = gcd(*full)
        out.append(
            HullFacet(tuple(Fraction(x // g) for x in full[:-1]), Fraction(offset // g), members)
        )
    return out


def _hull_facets(
    pts: list[tuple[int, ...]], seed: list[int]
) -> list[tuple[tuple[int, ...], int, frozenset[int]]]:
    """Facets of the hull of the integer points pts, from the initial simplex
    seed, as (normal, offset, members): normal . p <= offset on every point,
    with equality exactly on members.  Normals are primitive and outward;
    sorted by member set."""
    simplicial, _ = _simplicial_hull(pts, seed)
    out = []
    for normal, offset in dict.fromkeys((normal, offset) for normal, offset, _ in simplicial):
        members = frozenset(i for i, p in enumerate(pts) if _dot(normal, p) == offset)
        out.append((normal, offset, members))
    out.sort(key=lambda f: sorted(f[2]))
    return out


def hull_volume(points) -> Fraction:
    """Normalized volume (unit simplex = 1) of the convex hull."""
    pts, scale = _integer_points(points)
    if not pts:
        raise InputError("volume of an empty point list")
    d = len(pts[0])
    simplicial, ref = _simplicial_hull(pts, _initial_simplex(pts, d))
    total = ZERO
    for _, _, verts in simplicial:
        total += abs(_det([[(d + 1) * x - r for x, r in zip(pts[i], ref)] for i in verts]))
    return total / ((d + 1) * scale) ** d


def point_in_hull(facets: list[HullFacet], x) -> bool:
    xv = vector(x)
    return all(vdot(f.normal, xv) <= f.offset for f in facets)


def _affine_frame(pts: list[Vec]):
    """Shared machinery for span coordinates: (coords, base, row_ids, rows).

    coords are exact coordinates of each point in a greedy affine frame; rows
    is the invertible r x r matrix of frame components at the selected
    coordinate positions row_ids, so that coords(x) solves
    rows . c = (x - base) restricted to row_ids.
    """
    base = pts[0]
    diffs = [vsub(p, base) for p in pts]
    frame = [diffs[i] for i in independent_rows(diffs)]
    r = len(frame)
    if r == 0:
        return [() for _ in pts], base, [], []
    columns = list(zip(*frame))
    row_ids = independent_rows(columns)
    rows = [columns[i] for i in row_ids]
    coords = [solve_square(rows, [dv[i] for i in row_ids]) for dv in diffs]
    return coords, base, row_ids, rows


def affine_coordinates(points) -> list[Vec]:
    """Coordinates of each point in an affine frame of the points' span.

    The first point maps to the origin; frame vectors are picked greedily from
    the input differences, so collinear or coplanar inputs get exact
    coordinates of the right lower dimension.  Rank-0 input maps every point
    to the empty tuple.
    """
    pts = [vector(p) for p in points]
    return _affine_frame(pts)[0]


def polytope_hrep(points) -> tuple[list[AffineFunctional], list[AffineFunctional]]:
    """Ambient H-representation of conv(points), span may be lower-dimensional.

    Returns (equalities, inequalities): x lies in the hull iff every equality
    functional vanishes at x and every inequality functional is >= 0 at x.
    """
    pts = [vector(p) for p in points]
    base = pts[0]
    equalities = []
    for n in nullspace_basis([vsub(p, base) for p in pts[1:]] or [[ZERO] * len(base)]):
        equalities.append(AffineFunctional(n, vdot(n, base)))
    if len(pts) == 1:
        # single point: the nullspace above was of a zero row, giving all axes
        return equalities, []
    coords, _, row_ids, rows = _affine_frame(pts)
    r = len(coords[0])
    if r == 0:
        return equalities, []
    inequalities = []
    rows_t = list(zip(*rows))
    for facet in convex_hull_facets(coords):
        # facet: w . c <= offset in coordinate space; pull back via
        # c(x) = rows^-1 (x - base) restricted to row_ids
        y = solve_square(rows_t, facet.normal)
        linear = [ZERO] * len(base)
        for i, idx in enumerate(row_ids):
            linear[idx] = -y[i]
        constant = -(facet.offset + vdot(y, tuple(base[i] for i in row_ids)))
        inequalities.append(AffineFunctional(tuple(linear), constant))
    return equalities, inequalities


def intersection_closure(top, parts) -> set:
    """top together with every intersection of top with some of parts.

    Works alike on frozensets and on int bitmasks.  Every proper face of a
    polytope or a pointed cone is the intersection of the facets containing
    it, so closing the facets' incidence sets this way yields every face.
    """
    parts = tuple(parts)
    seen = {top}
    queue = [top]
    while queue:
        face = queue.pop()
        for part in parts:
            child = face & part
            if child not in seen:
                seen.add(child)
                queue.append(child)
    return seen


def face_member_sets(points) -> set[frozenset[int]]:
    """Index sets of points on each nonempty face of conv(points), the hull included.

    One hull in coordinates of the points' span gives the facets; the faces
    are the closure of the facets' member sets under intersection.
    """
    coords = affine_coordinates(points)
    top = frozenset(range(len(coords)))
    if not coords[0]:
        return {top}
    facets = convex_hull_facets(coords)
    return {face for face in intersection_closure(top, (f.members for f in facets)) if face}


def polytope_vertex_indices(points) -> frozenset[int]:
    """Vertices of conv(points), the points whose singleton is a face; the
    span may be lower-dimensional."""
    return frozenset(i for face in face_member_sets(points) if len(face) == 1 for i in face)


def simplex_normalized_volume(points) -> Fraction:
    """Normalized volume of a d-simplex given by d+1 points (unit simplex = 1)."""
    pts = [vector(p) for p in points]
    d = len(pts[0])
    if len(pts) != d + 1:
        raise InputError(f"a {d}-simplex needs {d + 1} points, got {len(pts)}")
    vol = abs(_det([vsub(p, pts[0]) for p in pts[1:]]))
    if vol == 0:
        raise DegenerateInputError("affinely dependent simplex points")
    return vol


# ---------------------------------------------------------------------------
# Upper hulls of lifted point sets


def upper_hull_facets(lifted) -> list[tuple[AffineFunctional, frozenset[int]]]:
    """Compact upper-hull facets of lifted points (point, height).

    Returns (functional, members) pairs where functional(a) >= height(a) for
    every lifted point, with equality exactly on members, and each member set
    spans the base space.  Facets with vertical supporting hyperplanes are
    discarded.  The base points must affinely span their space.  Sorted by
    member set.

    The hull runs on the lifted points times L, the lcm of their
    denominators.  An integer facet n . P <= o with n_h > 0 is the plane
    height = -(n' / n_h) . a + o / (L n_h), n' the base part of n, so its
    functional is read off the integers with one Fraction per coordinate,
    and its members are the integer points on it.
    """
    base = [vector(p) for (p, _) in lifted]
    heights = [as_fraction(h) for (_, h) in lifted]
    if not base:
        raise InputError("upper hull of an empty point list")
    d = len(base[0])
    if any(len(b) != d for b in base):
        raise InputError("points of mixed dimension")
    pts, scale = _integer_points(b + (h,) for b, h in zip(base, heights))
    # projecting drops the rank by at most one, so one greedy pass over the
    # rows (point, 1) settles whether the base spans, and seeds the hull
    seed = independent_rows(p + (1,) for p in pts)
    if len(seed) <= d:
        raise DegenerateInputError("base points do not span; upper hull undefined")
    if len(seed) == d + 1:
        # All lifted points on the hyperplane through the seed: a single
        # facet when it is not vertical, which is when the base spans.
        normal, offset = _hyperplane([pts[i] for i in seed])
        if not normal[-1]:
            raise DegenerateInputError("degenerate lifted configuration")
        if normal[-1] < 0:
            normal, offset = tuple(-x for x in normal), -offset
        facets = [(normal, offset, frozenset(range(len(pts))))]
    else:
        facets = _hull_facets(pts, seed)
    out = []
    for normal, offset, members in facets:
        n_h = normal[-1]
        if n_h > 0:
            linear = tuple(Fraction(-w, n_h) for w in normal[:-1])
            out.append((AffineFunctional(linear, Fraction(-offset, scale * n_h)), members))
    return out


# ---------------------------------------------------------------------------
# Exact LP (two-phase primal simplex, Bland's rule)
#
# The tableau holds working rows (see _pivot): each row is exact, with its
# own positive denominator, so signs and ratios are read off the integers.


def _pivot_basis(tableau, leave: int, enter: int) -> None:
    """Pivot on (leave, enter): clear the column, then scale the pivot row to 1 there."""
    _pivot(tableau, leave, enter)
    p = tableau[leave][enter]
    row = tableau[leave][:-1] + [p]
    if p < 0:
        row = [-x for x in row]
    g = gcd(*row)
    tableau[leave] = [x // g for x in row] if g > 1 else row


def _simplex_core(tableau, basis, n_rows, n_cols):
    """Maximize the objective encoded in the last tableau row; Bland's rule."""
    while True:
        obj = tableau[n_rows]
        enter = next((j for j in range(n_cols) if obj[j] > 0), None)
        if enter is None:
            return "optimal"
        # smallest ratio rhs / column entry, ties to the smallest basic index;
        # both entries share the row's denominator, which cancels
        leave = None
        for i in range(n_rows):
            a = tableau[i][enter]
            if a > 0:
                b = tableau[i][n_cols]
                if leave is None:
                    leave, best_b, best_a = i, b, a
                    continue
                cross, best_cross = b * best_a, best_b * a
                if cross < best_cross or (cross == best_cross and basis[i] < basis[leave]):
                    leave, best_b, best_a = i, b, a
        if leave is None:
            return "unbounded"
        _pivot_basis(tableau, leave, enter)
        basis[leave] = enter


def lp_maximize(objective, ub_rows, ub_consts, eq_rows, eq_consts):
    """max objective . x  s.t.  ub_rows x <= ub_consts, eq_rows x = eq_consts, x free.

    Returns (status, x, value); status in {"optimal", "unbounded", "infeasible"}.
    Fully deterministic: Bland's rule with fixed variable order.
    """
    n = len(objective)
    rows = [_int_row(list(r) + [b]) for r, b in zip(ub_rows, ub_consts, strict=True)]
    rows += [_int_row(list(r) + [b]) for r, b in zip(eq_rows, eq_consts, strict=True)]
    n_ub = len(ub_rows)
    m = len(rows)
    # columns: x+ (n), x- (n), slacks (n_ub), artificials (m), rhs, denominator
    n_struct = 2 * n + n_ub
    n_cols = n_struct + m
    tableau = []
    basis = []
    for i, src in enumerate(rows):
        den = src[-1]
        sign = 1 if src[n] >= 0 else -1
        row = [0] * (n_cols + 2)
        for j in range(n):
            row[j] = sign * src[j]
            row[n + j] = -sign * src[j]
        if i < n_ub:
            row[2 * n + i] = sign * den
        row[n_struct + i] = den
        row[n_cols] = sign * src[n]
        row[n_cols + 1] = den
        tableau.append(row)
        basis.append(n_struct + i)
    # Phase 1: maximize -sum(artificials), the sum of the rows over their
    # common denominator with the artificial columns cleared.
    common = lcm(*(row[-1] for row in tableau))
    obj_row = [0] * (n_cols + 1)
    for row in tableau:
        f = common // row[-1]
        obj_row = [o + f * x for o, x in zip(obj_row, row)]
    obj_row[n_struct:n_cols] = [0] * m
    tableau.append(obj_row + [common])
    _simplex_core(tableau, basis, m, n_cols)
    if tableau[m][n_cols] != 0:
        return "infeasible", None, None
    # Pivot lingering artificials out of the basis where possible.
    for i in range(m):
        if basis[i] >= n_struct:
            enter = next((j for j in range(n_struct) if tableau[i][j] != 0), None)
            if enter is not None:
                _pivot_basis(tableau, i, enter)
                basis[i] = enter
    # Rows still carrying an artificial basis variable are redundant; drop them
    # together with every artificial column so phase 2 cannot re-enter one.
    keep = [i for i in range(m) if basis[i] < n_struct]
    tableau = [tableau[i][:n_struct] + tableau[i][n_cols:] for i in keep]
    basis = [basis[i] for i in keep]
    m = len(keep)
    n_cols = n_struct
    # Phase 2 objective, reduced against the basic columns.
    cvec = [as_fraction(c) for c in objective]
    cint = _int_row(cvec)
    obj_row = [0] * (n_cols + 2)
    for j in range(n):
        obj_row[j] = cint[j]
        obj_row[n + j] = -cint[j]
    obj_row[-1] = cint[-1]
    tableau.append(obj_row)
    for i in range(m):
        if tableau[m][basis[i]] != 0:
            _pivot(tableau, i, basis[i], m)
    status = _simplex_core(tableau, basis, m, n_cols)
    xs = [ZERO] * n_cols
    for i in range(m):
        xs[basis[i]] = Fraction(tableau[i][n_cols], tableau[i][-1])
    x = tuple(xs[j] - xs[n + j] for j in range(n))
    if status == "unbounded":
        return "unbounded", x, None
    value = sum((c * xi for c, xi in zip(cvec, x)), ZERO)
    return "optimal", x, value


def lp_feasible_strict(strict, weak, equalities, dim) -> Vec | None:
    """A rational point with fn(x) > 0 (strict), fn(x) >= 0 (weak), fn(x) = 0 (eqs).

    Functionals are AffineFunctionals on R^dim.  Returns None when no such
    point exists.  Implemented by maximizing a shared slack below the strict
    constraints, capped at 1 so the LP stays bounded.
    """
    strict = list(strict)
    weak = list(weak)
    equalities = list(equalities)
    # Variables (x, t): maximize t.
    ub_rows, ub_consts = [], []
    for fn in strict:
        ub_rows.append([-c for c in fn.linear] + [ONE])  # t - fn.linear.x <= -constant
        ub_consts.append(-fn.constant)
    for fn in weak:
        ub_rows.append([-c for c in fn.linear] + [ZERO])
        ub_consts.append(-fn.constant)
    ub_rows.append([ZERO] * dim + [ONE])
    ub_consts.append(ONE)
    eq_rows = [list(fn.linear) + [ZERO] for fn in equalities]
    eq_consts = [fn.constant for fn in equalities]
    objective = [ZERO] * dim + [ONE]
    status, x, value = lp_maximize(objective, ub_rows, ub_consts, eq_rows, eq_consts)
    if status != "optimal" or value <= 0:
        return None
    return x[:dim]
