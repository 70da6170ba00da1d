"""Faces, vertices and cone walls all come from one intersection closure of
facet incidences, and so do the cells of a subdivision with their dimensions
and vertices; one grading rule, graded_closure, grades the faces of both
cells and cones.  The recursive face enumeration, the rank tests, the
per-cell hulls and ranks and the quadratic grading they replaced stay in
oracles.py as references."""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from tropaint import geometry
from tropaint.geometry import graded_closure, intersection_closure
from tropaint.multiplihedra import admissible_alpha, ngon_configuration
from tropaint.painting import painting_constraint
from tropaint.painting_polytope import extend
from tropaint.point_config import build_configuration
from tropaint.regular_subdivision import (
    Lifting,
    SecondaryCone,
    _certify_cone,
    enumerate_coherent_subdivisions,
    enumerate_regular_triangulations,
    induce_subdivision,
)

from oracles import (
    affine_coordinates,
    cone_walls_by_rank,
    face_member_sets_recursive,
    graded_faces_quadratic,
    polytope_vertex_indices_by_rank,
    subdivision_cells_by_hull,
    vertex_indices,
)

F = Fraction

QUAD = build_configuration([(0, 0), (1, 0), (0, 1), (-1, 0), (-1, -1)])
BIPYRAMID = build_configuration(
    [(1, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, 1), (0, 0, -1)]
)
QUAD_ALPHA = (F(1, 3), F(1, 3))
BIPYRAMID_ALPHA = (F(1, 2), F(1, 3), F(1, 2))


def test_closure_works_on_sets_and_masks():
    sets = intersection_closure(frozenset({0, 1, 2}), [frozenset({0, 1}), frozenset({1, 2})])
    assert sets == {frozenset({0, 1, 2}), frozenset({0, 1}), frozenset({1, 2}), frozenset({1})}
    masks = intersection_closure(0b111, [0b011, 0b110, 0b100])
    assert masks == {0b111, 0b011, 0b110, 0b100, 0b010, 0b000}
    assert intersection_closure(0b1, []) == {0b1}


def test_graded_closure_grades_a_square_and_a_point():
    # the faces of a square on bits 0-3, its edges the parts
    edges = [0b0011, 0b0110, 0b1100, 0b1001]
    grades = graded_closure(0b1111, edges)
    assert grades == {0: 0, 1: 1, 2: 1, 4: 1, 8: 1, **{e: 2 for e in edges}, 0b1111: 3}
    assert list(grades)[0] == 0 and list(grades)[-1] == 0b1111
    # the empty mask is below every other, parts or none
    assert graded_closure(0b1, []) == {0: 0, 0b1: 1}
    assert graded_closure(0, [0b1]) == {0: 0}


coordinate = st.integers(-3, 3)


@st.composite
def point_sets(draw):
    """Distinct points whose span has dimension 0 to 4 inside R^1 to R^4,
    with extra points on segments and triangles between drawn points, so
    they land on facets, edges and in the interior."""
    ambient = draw(st.integers(1, 4))
    span = draw(st.integers(0, ambient))
    gens = draw(
        st.lists(st.tuples(*[coordinate] * span), min_size=1, max_size=span + 4)
    )
    embed = draw(st.lists(st.tuples(*[coordinate] * span), min_size=ambient, max_size=ambient))
    shift = draw(st.tuples(*[coordinate] * ambient))
    pts = [
        tuple(F(s + sum(a * x for a, x in zip(row, g))) for row, s in zip(embed, shift))
        for g in gens
    ]
    combos = draw(
        st.lists(
            st.tuples(
                st.lists(st.integers(0, len(pts) - 1), min_size=2, max_size=3),
                st.sampled_from([F(1, 2), F(1, 3), F(2, 3)]),
            ),
            max_size=3,
        )
    )
    for idx, t in combos:
        weights = [t, 1 - t] if len(idx) == 2 else [t, (1 - t) / 2, (1 - t) / 2]
        pts.append(
            tuple(sum(w * pts[i][k] for w, i in zip(weights, idx)) for k in range(ambient))
        )
    return list(dict.fromkeys(pts))


@settings(max_examples=300, deadline=None)
@given(point_sets())
def test_faces_and_vertices_match_the_recursive_oracle(pts):
    # the flat lifting of the points, in coordinates of their span, induces
    # one cell, whose faces are the cells of its subdivision
    coords = affine_coordinates(pts)
    if not coords[0]:
        return
    config = build_configuration(coords)
    s = induce_subdivision(config, Lifting.of(config, [0] * len(coords)))
    assert set(s.cells) == face_member_sets_recursive(pts)
    vertices = {i for marks, cell in s.cells.items() if cell.dim() == 0 for i in marks}
    assert vertices == polytope_vertex_indices_by_rank(pts)


@settings(max_examples=60, deadline=None)
@given(point_sets())
def test_configuration_vertices_match_the_rank_oracle(pts):
    d = len(pts[0])
    if len(pts) <= d or geometry.affine_rank(pts) < d:
        return
    config = build_configuration(pts)
    assert vertex_indices(config) == polytope_vertex_indices_by_rank(pts)


def _golden_configs():
    """The golden quad and bipyramid, their extensions and the extended m <= 4 polygons."""
    configs = {"quad": QUAD, "bipyramid": BIPYRAMID}
    configs["quad_ext"] = extend(QUAD, QUAD_ALPHA).extended
    configs["bipyramid_ext"] = extend(BIPYRAMID, BIPYRAMID_ALPHA).extended
    for m in (2, 3, 4):
        config = ngon_configuration(m)
        configs[f"m{m}_ext"] = extend(config, admissible_alpha(config)).extended
    return configs


def _triangulation_cones():
    for name, config in _golden_configs().items():
        for _, cone in enumerate_regular_triangulations(config).values():
            yield name, cone


GRID = build_configuration([(i, j) for i in range(3) for j in range(3)])
CUBE = build_configuration(
    [(i, j, k) for i in (0, 2) for j in (0, 2) for k in (0, 2)] + [(1, 1, 1)]
)


def _graded_cones():
    """(name, configuration) per walk of the grading test."""
    out = [
        ("quad", QUAD),
        ("bipyramid", BIPYRAMID),
        ("quad_ext", extend(QUAD, QUAD_ALPHA).extended),
        ("bipyramid_ext", extend(BIPYRAMID, BIPYRAMID_ALPHA).extended),
        ("grid", GRID),
        ("cube", CUBE),
    ]
    for m in (3, 4, 5, 6):
        config = ngon_configuration(m)
        out.append((f"m{m}_ext", extend(config, admissible_alpha(config)).extended))
    return [pytest.param(config, id=name) for name, config in out]


@pytest.mark.parametrize("config", _graded_cones())
def test_graded_faces_match_the_quadratic_grading_on_triangulation_cones(config):
    for _, cone in enumerate_regular_triangulations(config).values():
        assert cone.graded_faces() == graded_faces_quadratic(cone)


def _painted_chambers(config, alpha):
    """The certified chambers of every all-strict sign pattern of the 0-cell
    constraints over each triangulation cone."""
    n = len(config.points)
    for t, cone in enumerate_regular_triangulations(config).values():
        fns = [painting_constraint(config, mc.marks, alpha) for mc in t.maximal]
        for pattern in product((1, -1), repeat=len(fns)):
            flips = tuple(tuple(sign * x for x in fn) for fn, sign in zip(fns, pattern))
            chamber = _certify_cone((), tuple(f + (0,) for f in cone.stricts) + flips, n + 1, None)
            if chamber is not None:
                yield chamber


def _chamber_inputs():
    out = [("quad", QUAD, QUAD_ALPHA), ("bipyramid", BIPYRAMID, BIPYRAMID_ALPHA)]
    for m in (3, 4, 5):
        config = ngon_configuration(m)
        out.append((f"m{m}", config, admissible_alpha(config)))
    return [pytest.param(config, alpha, id=name) for name, config, alpha in out]


@pytest.mark.parametrize("config, alpha", _chamber_inputs())
def test_graded_faces_match_the_quadratic_grading_on_painted_chambers(config, alpha):
    chambers = list(_painted_chambers(config, alpha))
    assert chambers
    for chamber in chambers:
        assert chamber.graded_faces() == graded_faces_quadratic(chamber)


def test_walls_match_the_rank_oracle_on_triangulation_cones():
    count = 0
    for name, cone in _triangulation_cones():
        assert cone.walls() == cone_walls_by_rank(cone), name
        count += 1
    assert count == 56


def _cells_match_the_hull_oracle(s):
    assert {m: (c.dim(), c.vertices) for m, c in s.cells.items()} == subdivision_cells_by_hull(s)


def test_subdivision_cells_match_the_hull_oracle_on_enumerated_subdivisions():
    count = 0
    for config in _golden_configs().values():
        for s in enumerate_coherent_subdivisions(config).payload:
            _cells_match_the_hull_oracle(s)
            count += 1
    assert count == 155


def _seeded_configuration(rng, d):
    """d + 2 integer points spanning R^d, three midpoints of pairs of them
    and one centroid of a triple, so that marked points land inside cells,
    on facets and on edges."""
    while True:
        pts = [tuple(F(rng.randint(-2, 2)) for _ in range(d)) for _ in range(d + 2)]
        extra = [
            tuple((x + y) / 2 for x, y in zip(*rng.sample(pts, 2))) for _ in range(3)
        ]
        extra.append(tuple(sum(xs) / 3 for xs in zip(*rng.sample(pts, 3))))
        pts = list(dict.fromkeys(pts + extra))
        if geometry.affine_rank(pts) == d:
            return build_configuration(pts)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_subdivision_cells_match_the_hull_oracle_on_coarse_liftings(d):
    # mostly zero heights: coarse subdivisions with marks inside their cells
    rng = random.Random(d)
    inner_marks = 0
    for _ in range(3):
        config = _seeded_configuration(rng, d)
        for _ in range(8):
            eta = [rng.choice((0, 0, 0, 0, 1, -1, 2)) for _ in config.points]
            s = induce_subdivision(config, Lifting.of(config, eta))
            _cells_match_the_hull_oracle(s)
            inner_marks += sum(len(c.marks) - len(c.vertices) for c in s.cells.values())
    assert inner_marks > 0


def _fn(*coefficients):
    return coefficients


@pytest.mark.parametrize(
    "cone, wall_count",
    [
        # one ray, (1, 0, 0), over the lineality line of the last axis; the
        # doubled strict cuts the same facet, the apex
        (SecondaryCone((_fn(0, 1, 0),), (_fn(1, 0, 0), _fn(2, 0, 0)), 3, (1, 0, 0)), 1),
        # one ray in the plane, no lineality
        (SecondaryCone((_fn(1, -1),), (_fn(1, 1),), 2, (1, 1)), 1),
        # lineality only, with and without equalities
        (SecondaryCone((_fn(1, 0),), (), 2, (0, 0)), 0),
        (SecondaryCone((), (), 2, (0, 0)), 0),
        # a quadrant: two rays, two walls
        (SecondaryCone((), (_fn(1, 0), _fn(0, 1), _fn(1, 1)), 2, (1, 1)), 2),
    ],
)
def test_walls_match_the_rank_oracle_on_hand_built_cones(cone, wall_count):
    assert cone.walls() == cone_walls_by_rank(cone)
    assert len(cone.walls()) == wall_count
