"""Differential tests: the integer kernel of tropaint.geometry against the
Fraction kernel kept in oracles.py.

Inputs mix denominators and carry zero rows, duplicate rows, rank
deficiency, non-integer coordinates and coplanar or collinear boundary
points, which is where a fraction-free rewrite could drift.
"""

import ast
import pathlib
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import prod

import pytest
from hypothesis import example, given, settings, strategies as st

from tropaint import geometry
from tropaint.errors import DegenerateInputError, InputError
from tropaint.geometry import (
    AffineFunctional,
    _circuit_dependence,
    _initial_simplex,
    _echelon,
    _int_det,
    _int_row,
    _integer_points,
    _kernel,
    independent_rows,
    matrix_rank,
    vdot,
)
from tropaint.multiplihedra import admissible_alpha, ngon_configuration
from tropaint.painting_polytope import extend
from tropaint.point_config import build_configuration
from tropaint.regular_subdivision import (
    Lifting,
    _spanning_marks,
    enumerate_regular_triangulations,
    induce_subdivision,
    secondary_cone,
)

from oracles import (
    _affine_frame,
    affine_combination_oracle,
    affine_rank_oracle,
    convex_hull_facets_oracle,
    det_oracle,
    echelon_oracle,
    greedy_by_rank,
    hull_volume_oracle,
    hyperplane_by_echelon,
    interpolate_oracle,
    matrix_rank_oracle,
    nullspace_basis_oracle,
    primitive_vector,
    solve_square_oracle,
    upper_hull_facets_oracle,
    vsub,
)

F = Fraction

entries = st.fractions(min_value=-6, max_value=6, max_denominator=7)


@st.composite
def matrices(draw, square=False, entries=entries):
    """Rows drawn as zero rows, duplicates, or combinations of a few
    generators, so rank deficiency is common."""
    ncols = draw(st.integers(1, 5))
    nrows = ncols if square else draw(st.integers(0, 6))
    gens = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols), min_size=1, max_size=ncols))
    rows = []
    for _ in range(nrows):
        kind = draw(st.sampled_from(["gen", "combo", "zero", "dup"]))
        if kind == "zero":
            rows.append([F(0)] * ncols)
        elif kind == "dup" and rows:
            rows.append(list(draw(st.sampled_from(rows))))
        elif kind == "combo":
            coeffs = draw(st.lists(entries, min_size=len(gens), max_size=len(gens)))
            rows.append([sum((c * g[j] for c, g in zip(coeffs, gens)), F(0)) for j in range(ncols)])
        else:
            rows.append(list(draw(st.sampled_from(gens))))
    return rows


@given(matrices())
@settings(deadline=None, max_examples=300)
@example([[0, 0], [0, 0]])
@example([[F(1, 2), F(1, 3)], [F(3, 2), 1], [0, 0]])
def test_rank_nullspace_rref_match_oracle(rows):
    assert matrix_rank(rows) == matrix_rank_oracle(rows)
    # the integer kernel of the rows scaled to integers is the Fraction
    # kernel, each vector scaled to coprime integers
    ncols = len(rows[0]) if rows else 0
    kernel = _kernel([_int_row(r)[:-1] for r in rows], ncols)
    assert kernel == [primitive_vector(v) for v in nullspace_basis_oracle(rows)]
    assert all(type(x) is int for v in kernel for x in v)
    want_rows, want_pivots = echelon_oracle([list(map(F, r)) for r in rows])
    work = [_int_row(r) for r in rows]
    got_pivots = _echelon(work)
    assert got_pivots == want_pivots
    got_rows = [tuple(F(x, row[c]) for x in row[:-1]) for row, c in zip(work, got_pivots)]
    assert got_rows == [tuple(r) for r in want_rows[: len(want_pivots)]]


@given(st.one_of(matrices(), matrices(entries=st.integers(-6, 6))))
@settings(deadline=None, max_examples=300)
@example([])
@example([[0, 0], [1, 2], [2, 4], [0, 0], [0, 1], [1, 0]])
@example([[F(1, 2), F(1, 3)], [F(3, 2), 1], [0, 0]])
def test_independent_rows_match_greedy_by_rank(rows):
    got = independent_rows(rows)
    assert got == greedy_by_rank(rows)
    assert matrix_rank(rows) == len(got)


@st.composite
def integer_families(draw):
    """k + 1 integer rows of length k, often of rank below k."""
    square = draw(matrices(square=True, entries=st.integers(-6, 6)))
    extra = draw(st.lists(st.integers(-6, 6), min_size=len(square), max_size=len(square)))
    return [tuple(map(int, r)) for r in square] + [tuple(extra)]


@given(integer_families())
@settings(deadline=None, max_examples=300)
@example([(1, 2), (2, 4), (1, 1)])
def test_circuit_dependence_is_the_signed_minors(rows):
    k = len(rows) - 1
    dependence = _circuit_dependence(rows)
    assert dependence[-1] == (-1) ** k * det_oracle(rows[:-1])
    assert all(sum(c * r[j] for c, r in zip(dependence, rows)) == 0 for j in range(k))
    assert any(dependence) == (matrix_rank_oracle(rows) == k)


def test_int_det_matches_the_oracle_at_every_order():
    # closed forms up to order 3, Bareiss above; small entries give zero
    # pivots, and every third matrix is made singular
    rng = random.Random("int_det")
    for n in range(6):
        singular = 0
        for trial in range(90):
            rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            if n and trial % 3 == 0:
                i, j = rng.randrange(n), rng.randrange(n)
                k = rng.randint(-2, 2)
                # row i becomes k times row j, or zero when i = j
                rows[i] = [k * x if i != j else 0 for x in rows[j]]
            det = _int_det(rows)
            assert det == det_oracle(rows)
            singular += det == 0
        assert singular >= 30 or n == 0


@st.composite
def square_systems(draw):
    rows = draw(matrices(square=True))
    return rows, draw(st.lists(entries, min_size=len(rows), max_size=len(rows)))


@given(square_systems())
@settings(deadline=None, max_examples=300)
@example(([[1, 2], [2, 4]], [1, 2]))
@example(([[1, 2], [2, 4]], [1, 3]))
@example(([[F(1, 2), 0], [0, F(2, 3)]], [F(1, 3), 5]))
def test_det_and_solve_match_oracle(system):
    rows, b = system
    det = det_oracle(rows)
    # each row scaled by the lcm of its denominators scales the determinant
    work = [_int_row(row) for row in rows]
    assert _int_det([row[:-1] for row in work]) == det * prod(row[-1] for row in work)
    # the Fraction solve the subdivision validator runs: a solution exactly
    # when the determinant is nonzero, and then it solves the system
    got = solve_square_oracle(rows, b)
    assert (got is None) == (det == 0)
    if got is not None:
        assert [sum(a * x for a, x in zip(row, got)) for row in rows] == list(b)


@st.composite
def point_sets(draw, dims=(1, 2, 3)):
    """Points on a small rational grid plus midpoints and duplicates, so
    facets carry collinear and coplanar boundary points."""
    d = draw(st.sampled_from(dims))
    q = draw(st.sampled_from([1, 2, 3, 6]))
    coord = st.integers(-2, 2).map(lambda k: F(k, q))
    pts = draw(st.lists(st.tuples(*[coord] * d), min_size=d + 1, max_size=9))
    for _ in range(draw(st.integers(0, 3))):
        a, b = draw(st.sampled_from(pts)), draw(st.sampled_from(pts))
        pts.append(tuple((x + y) / 2 for x, y in zip(a, b)))
    return pts


def _upper_facets(lifted):
    """The supports and marks of the maximal cells that induce_subdivision
    reads off the upper hull of the lifted points (point, height)."""
    config = build_configuration([p for p, _ in lifted])
    s = induce_subdivision(config, Lifting.of(config, [-h for _, h in lifted]))
    return [(mc.support, mc.marks) for mc in s.maximal]


@given(point_sets())
@settings(deadline=None, max_examples=250)
@example([(0, 0), (2, 0), (2, 2), (0, 2), (1, 0), (1, 1)])
@example([(F(1, 2), 0, 0), (0, F(1, 3), 0), (0, 0, F(1, 5)), (0, 0, 0), (F(1, 4), F(1, 6), 0)])
@example([(0, 0), (1, 1), (2, 2)])
def test_convex_hull_matches_oracle(pts):
    """A configuration's inward facets and volume, from its integer rows,
    are the Fraction hull's outward facets negated and its volume."""
    pts = list(dict.fromkeys(pts))
    try:
        want = convex_hull_facets_oracle(pts)
    except DegenerateInputError:
        with pytest.raises(DegenerateInputError):
            build_configuration(pts)
        return
    config = build_configuration(pts)
    assert [(f.normal, f.threshold, f.members) for f in config.facets] == [
        (tuple(-w for w in f.normal), -f.offset, f.members) for f in want
    ]
    assert all(isinstance(x, Fraction) for f in config.facets for x in f.normal + (f.threshold,))
    assert config.volume == hull_volume_oracle(pts)


@given(point_sets(dims=(1, 2)), st.data())
@settings(deadline=None, max_examples=200)
def test_upper_hull_matches_oracle(pts, data):
    base = list(dict.fromkeys(pts))
    if matrix_rank_oracle([[a - b for a, b in zip(p, base[0])] for p in base[1:]]) < len(base[0]):
        return
    heights = data.draw(st.lists(entries, min_size=len(base), max_size=len(base)))
    lifted = list(zip(base, heights))
    got = _upper_facets(lifted)
    want = upper_hull_facets_oracle(lifted)
    assert [(fn.linear, fn.constant, m) for fn, m in got] == [
        (fn.linear, fn.constant, m) for fn, m in want
    ]


@st.composite
def hyperplane_points(draw):
    """d integer points in Z^d, d = 1..5, often affinely dependent."""
    d = draw(st.integers(1, 5))
    coord = st.integers(-6, 6)
    pts = draw(st.lists(st.tuples(*[coord] * d), min_size=d, max_size=d))
    if d > 2 and draw(st.booleans()):
        # a repeated difference: dependent rows
        a, b = pts[0], pts[1]
        pts[-1] = tuple(2 * y - x for x, y in zip(a, b))
    return pts


@given(hyperplane_points())
@settings(deadline=None, max_examples=400)
@example([(3,)])
@example([(1, 2, 3), (2, 4, 6), (0, 0, 0)])
@example([(1, 0, 0, 0), (0, 2, 0, 0), (0, 0, 3, 0), (0, 0, 0, 5)])
def test_hyperplane_by_minors_matches_echelon(pts):
    got = geometry._hyperplane(pts)
    if matrix_rank_oracle([[a - b for a, b in zip(p, pts[0])] for p in pts[1:]]) < len(pts) - 1:
        assert got is None
        return
    normal, offset = hyperplane_by_echelon(pts)
    flipped = (tuple(-x for x in normal), -offset)
    assert got in ((normal, offset), flipped)
    assert all(geometry._dot(got[0], p) == got[1] for p in pts)


def _seeded_lifting(seed):
    """A rational configuration spanning R^d, d = 1 + seed % 4, with its
    centroid added and lifted below the rest, so the centroid is never
    marked; every fifth lifting is flat, an affine function of the points."""
    rng = random.Random(seed)
    d = 1 + seed % 4
    q = rng.choice([1, 2, 3])
    while True:
        pts = list(dict.fromkeys(
            tuple(F(rng.randint(-3, 3), q) for _ in range(d))
            for _ in range(d + 2 + rng.randint(0, 4))
        ))
        if affine_rank_oracle(pts) == d:
            break
    if seed % 5 == 0:
        slope = [F(rng.randint(-4, 4), rng.choice([1, 2, 7])) for _ in range(d)]
        shift = F(rng.randint(-4, 4), 3)
        heights = [vdot(slope, p) + shift for p in pts]
    else:
        heights = [F(rng.randint(-9, 9), rng.choice([1, 2, 5])) for _ in pts]
    centroid = tuple(sum(c) / len(pts) for c in zip(*pts))
    if centroid not in pts:
        pts.append(centroid)
        heights.append(min(heights) - 1 if seed % 5 else vdot(slope, centroid) + shift)
    return list(zip(pts, heights))


def test_upper_hull_matches_route_through_hull_facets():
    flat = unmarked = 0
    for seed in range(60):
        lifted = _seeded_lifting(seed)
        got = _upper_facets(lifted)
        want = upper_hull_facets_oracle(lifted)
        assert [(fn.linear, fn.constant, m) for fn, m in got] == [
            (fn.linear, fn.constant, m) for fn, m in want
        ], seed
        flat += len(got) == 1 and len(got[0][1]) == len(lifted)
        unmarked += len(frozenset().union(*(m for _, m in got))) < len(lifted)
    assert flat >= 10 and unmarked >= 10


def test_hull_functions_accept_a_generator():
    square = [(0, 0), (1, 0), (1, 1), (0, 1), (F(1, 2), 0)]
    config = build_configuration(p for p in square)
    assert config.facets == build_configuration(square).facets
    assert config.volume == 2
    with pytest.raises(InputError):
        build_configuration(iter(()))


QUAD = build_configuration([(0, 0), (1, 0), (0, 1), (-1, 0), (-1, -1)])
BIPYRAMID = build_configuration([(1, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, 1), (0, 0, -1)])


def _golden_configurations():
    """The configurations behind tests/golden: the quad, the bipyramid, the
    m = 2 and m = 3 polygons, and the extension of each by its alpha."""
    cases = [(QUAD, (F(1, 3), F(1, 3))), (BIPYRAMID, (F(1, 2), F(1, 3), F(1, 2)))]
    for m in (2, 3):
        config = ngon_configuration(m)
        cases.append((config, admissible_alpha(config)))
    out = []
    for config, alpha in cases:
        out += [config, extend(config, alpha).extended]
    return out


GOLDEN_CONFIGS = _golden_configurations()


def _subsets(n):
    for k in range(1, n + 1):
        yield from combinations(range(n), k)


@pytest.mark.parametrize("config", GOLDEN_CONFIGS, ids=lambda c: f"{len(c.points)}pts")
def test_volume_memo_matches_the_fraction_hull(config):
    """On every point subset, scaled_volume is L^d times the Fraction hull's
    volume when the points span, whether they are d + 1 or more, and 0 when
    they do not, whether they are at most d + 1 or more: a flat mask of many
    points reads as a flat simplex does.  The extended configurations give
    the fractional coordinates and the flat masks of more than d + 1 points,
    their base points."""
    d = config.dimension
    _, scale = config.integer_points
    shapes = Counter()
    for subset in _subsets(len(config.points)):
        pts = [config.points[i] for i in subset]
        got = config.scaled_volume(sum(1 << i for i in subset))
        spans = affine_rank_oracle(pts) == d
        shapes[spans, len(subset) > d + 1] += 1
        assert got == (hull_volume_oracle(pts) * scale**d if spans else 0)
    assert config.volume == hull_volume_oracle(config.points)
    assert bool(shapes[True, True]) == (len(config.points) > d + 1)
    if config is GOLDEN_CONFIGS[1]:  # the extended quad
        assert shapes[False, True] and scale > 1


def test_oracles_take_no_hull_from_the_library():
    """The Fraction references run their own hulls, never the integer hull
    core they are the references for."""
    tree = ast.parse(pathlib.Path(__file__).with_name("oracles.py").read_text())
    used = {alias.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for alias in n.names}
    used |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    core = {"_hull_facets", "_simplicial_hull", "_upper_hull", "_initial_simplex", "_hyperplane"}
    assert not used & core


@pytest.mark.parametrize("config", GOLDEN_CONFIGS, ids=lambda c: f"{len(c.points)}pts")
def test_selections_match_greedy_by_rank_on_golden_configurations(config):
    """Spanning marks, affine frames and initial simplices pick, on every
    point subset, what the former rank-per-candidate loops picked."""
    d = config.dimension
    ints, _ = _integer_points(config.points)
    for subset in _subsets(len(config.points)):
        pts = [config.points[i] for i in subset]
        want = [subset[j] for j in greedy_by_rank(pts, affine_rank_oracle)]
        assert _spanning_marks(config, frozenset(subset)) == want
        diffs = [vsub(p, pts[0]) for p in pts]
        frame = [diffs[j] for j in greedy_by_rank(diffs)]
        coords, base, row_ids, rows = _affine_frame(pts)
        assert base == pts[0]
        if frame:
            columns = list(zip(*frame))
            assert row_ids == greedy_by_rank(columns)
            assert rows == [columns[i] for i in row_ids]
        else:
            assert coords == [()] * len(pts) and row_ids == rows == []
        sub_ints = [ints[i] for i in subset]
        if len(want) == d + 1:
            assert _initial_simplex(sub_ints, d) == greedy_by_rank(sub_ints, affine_rank_oracle)
        else:
            with pytest.raises(DegenerateInputError):
                _initial_simplex(sub_ints, d)


@pytest.mark.parametrize("config", GOLDEN_CONFIGS, ids=lambda c: f"{len(c.points)}pts")
def test_affine_combination_and_interpolation_on_golden_configurations(config):
    """The circuit of a spanning basis and a point writes the point as the
    affine combination the Fraction oracle solves, and the upper hull of
    flat heights is the single facet the oracle interpolates, exactly when
    the points span and the heights are affine on them."""
    n, d = len(config.points), config.dimension
    slope = tuple(F(k + 2, k + 1) for k in range(d))
    for subset in _subsets(n):
        pts = [config.points[i] for i in subset]
        basis = _spanning_marks(config, subset)
        if len(basis) == d + 1:
            for a in set(range(n)) - set(basis):
                coef = config.circuit(basis + [a])
                want = affine_combination_oracle([config.points[i] for i in basis], config.points[a])
                assert coef[a] > 0 and tuple(F(-coef[i], coef[a]) for i in basis) == want
                assert all(coef[i] == 0 for i in range(n) if i != a and i not in basis)
        values = [vdot(slope, p) - 1 for p in pts]
        bumped = values[:-1] + [values[-1] + 1]
        for heights in (values, bumped):
            if len(basis) <= d:
                with pytest.raises(DegenerateInputError):
                    _upper_facets(list(zip(pts, heights)))
                continue
            fn = interpolate_oracle(pts, heights)
            facets = _upper_facets(list(zip(pts, heights)))
            if fn is None:
                assert heights is bumped and all(len(m) < len(pts) for _, m in facets)
            else:
                assert facets == [(fn, frozenset(range(len(pts))))]
        if len(basis) == d + 1:
            assert interpolate_oracle(pts, values) == AffineFunctional(slope, F(1))


def test_secondary_cone_of_a_triangulation_computes_no_rank(calls_to):
    ext = extend(QUAD, (F(1, 3), F(1, 3))).extended
    tris = enumerate_regular_triangulations(ext)
    affine_ranks = calls_to(geometry.affine_rank)
    matrix_ranks = calls_to(geometry.matrix_rank)
    for t, cone in tris.values():
        assert secondary_cone(ext, t) == cone
    assert affine_ranks == [] and matrix_ranks == []
