"""Exact rational linear algebra and convex hulls.

Exact rationals at the API, integer arithmetic inside, no floats: every
public function takes and returns fractions.Fraction values, while
elimination and hulls run on Python ints (fraction-free rows, points scaled
by a common denominator, determinants of order at most 3 in closed form).
Vectors are plain tuples of Fractions, which keeps them hashable and
cheap.  Scale target is "desk scale": tens of points, ambient dimension at
most six.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .errors import DegenerateInputError, InputError

Vec = tuple[Fraction, ...]


def as_fraction(x) -> Fraction:
    """Coerce int / str ("p/q") / Fraction to Fraction. Floats and bools are
    refused."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as e:
            raise InputError(f"bad rational literal {x!r}: {e}") from None
    raise InputError(f"expected exact rational, got {type(x).__name__}")


def vector(xs) -> Vec:
    return tuple(as_fraction(x) for x in xs)


def vdot(u: Vec, v: Vec) -> Fraction:
    # one running numerator over one denominator: a single normalization
    num, den = 0, 1
    for a, b in zip(u, v, strict=True):
        d = a.denominator * b.denominator
        num = num * d + a.numerator * b.numerator * den
        den *= d
    return Fraction(num, den)


# ---------------------------------------------------------------------------
# Fraction-free elimination
#
# A working row is a list of ints [numerators..., denominator] standing for
# the rational row numerators / denominator, the denominator positive.  The
# numbers stay bounded by the matrix's minors (Edmonds 1967), as in Bareiss
# (1968) elimination, because every row is kept primitive.  One pivot step,
# _pivot, serves every routine: _echelon brings a whole matrix to reduced
# echelon form, which _kernel reads a kernel basis off, and independent_rows
# reduces one row at a time against the rows it has kept, which is all a
# rank or a greedy basis needs.


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


def _int_det(rows) -> int:
    """Determinant of a square integer matrix: by cofactor expansion for
    n <= 3, which covers the facet normals of 4-dimensional hulls and the
    circuits of polygons, and by Bareiss (1968) elimination above, where
    after step k every entry left is a (k + 1)-minor, so each division is
    exact and the last entry is the determinant."""
    n = len(rows)
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = rows
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    if n == 2:
        (a, b), (c, d) = rows
        return a * d - b * c
    if n < 2:
        return rows[0][0] if n else 1
    m = [list(row) for row in rows]
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
    return sign * m[-1][-1]


def _circuit_dependence(rows) -> list[int]:
    """A linear dependence of k + 1 integer vectors in Z^k: their signed
    maximal minors, (-1)^j times the determinant of all rows but row j.  It
    is zero only when every k of the rows are dependent."""
    return [(-1) ** j * _int_det(rows[:j] + rows[j + 1 :]) for j in range(len(rows))]


def matrix_rank(rows) -> int:
    return len(independent_rows(rows))


def _kernel(rows, n: int) -> list[tuple[int, ...]]:
    """A basis of the kernel of integer rows of length n: per free column f
    of their echelon form, the primitive integer vector that is positive in
    f and zero in the other free columns."""
    work = [list(row) + [1] for row in rows]
    pivots = _echelon(work)
    out = []
    for f in sorted(set(range(n)) - set(pivots)):
        # x_f = den and x_c = -row[f] den / row[c] per pivot row, exact
        # because den is the lcm of the pivots of the rows with row[f] != 0
        den = lcm(*(row[c] for row, c in zip(work, pivots) if row[f]))
        sol = [0] * n
        sol[f] = den
        for row, c in zip(work, pivots):
            sol[c] = -row[f] * den // row[c]
        g = gcd(*sol)
        out.append(tuple(x // g for x in sol))
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


# ---------------------------------------------------------------------------
# Convex hulls (beneath-beyond with exact predicates)
#
# Hulls run on int tuples only: a configuration's points scaled by the lcm
# L of their denominators, for its facets and its cells' volumes; lifted
# rows (L a, D h), the heights scaled by the lcm D of theirs, for
# induce_subdivision's upper hulls; and a cone's dual vectors, for
# _cone_rays.  Each facet candidate's normal is a vector of signed minors,
# so no elimination and no Fraction runs inside the hull; _upper_hull maps
# each upper facet straight to its support, one Fraction per coordinate.


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


def _hull_facets(
    pts: list[tuple[int, ...]], seed: list[int], upper: bool = False
) -> list[tuple[tuple[int, ...], int, frozenset[int]]]:
    """Facets of the hull of the integer points pts, from the initial simplex
    seed, as (normal, offset, members): normal . p <= offset on every point,
    with equality exactly on members.  Normals are primitive and outward;
    sorted by member set, so the output does not depend on the seed.  upper
    keeps only the facets whose normal's last coordinate is positive, and
    finds members for those alone."""
    simplicial, _ = _simplicial_hull(pts, seed)
    out = []
    for normal, offset in dict.fromkeys((normal, offset) for normal, offset, _ in simplicial):
        if upper and normal[-1] <= 0:
            continue
        members = frozenset(i for i, p in enumerate(pts) if _dot(normal, p) == offset)
        out.append((normal, offset, members))
    out.sort(key=lambda f: sorted(f[2]))
    return out


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


def graded_closure(top: int, parts) -> dict[int, int]:
    """{mask: grade} over intersection_closure(top, parts) and the empty mask.

    The empty mask has grade 0, any other mask one more than the largest
    grade among its proper intersections with single parts, graded first in
    bit-count order.  A mask's largest faces strictly inside are among those
    intersections, so on a face lattice the grade is the dimension plus one.
    """
    parts = tuple(parts)
    grades = {0: 0}
    for face in sorted(intersection_closure(top, parts) - {0}, key=int.bit_count):
        grades[face] = 1 + max((grades[face & p] for p in parts if face & p != face), default=0)
    return grades


# ---------------------------------------------------------------------------
# Upper hulls of lifted point sets


def _upper_hull(
    pts: list[tuple[int, ...]], base: tuple[int, ...], base_scale: int, height_scale: int
) -> list[tuple[AffineFunctional, frozenset[int]]]:
    """Compact upper-hull facets of integer lifted points, as supports with
    their member sets, sorted by member set.

    Each point of pts is (L a, D h) for a base point a and a height h, with
    L = base_scale and D = height_scale.  base indexes d + 1 points whose
    base points are affinely independent, so their lifted points span a
    hyperplane that is not vertical.  When every point lies on it, that is
    the single facet; otherwise the first point off it completes the initial
    simplex of the hull.  An integer facet n . P <= o with n_h > 0 is the
    plane h = -(L n' / (D n_h)) . a + o / (D n_h), n' the base part of n,
    so its support is read off the integers with one Fraction per
    coordinate; facets with n_h <= 0 get neither support nor members.
    """
    normal, offset = _hyperplane([pts[i] for i in base])
    off = next((i for i, p in enumerate(pts) if _dot(normal, p) != offset), None)
    if off is None:
        if normal[-1] < 0:
            normal, offset = tuple(-x for x in normal), -offset
        facets = [(normal, offset, frozenset(range(len(pts))))]
    else:
        facets = _hull_facets(pts, [*base, off], upper=True)
    out = []
    for normal, offset, members in facets:
        den = height_scale * normal[-1]
        linear = tuple(Fraction(-base_scale * w, den) for w in normal[:-1])
        out.append((AffineFunctional(linear, Fraction(-offset, den)), members))
    return out
