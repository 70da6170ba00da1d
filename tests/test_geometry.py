from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tropaint.errors import DegenerateInputError, InputError
from tropaint.geometry import (
    AffineFunctional,
    affine_rank,
    as_fraction,
    matrix_rank,
    vector,
)
from tropaint.point_config import build_configuration
from tropaint.regular_subdivision import Lifting, MarkedCell, Subdivision, induce_subdivision
from tropaint.secondary_polytope import gkz_vector

from oracles import (
    affine_coordinates,
    convex_hull_facets_oracle,
    face_member_sets_recursive,
    fourier_motzkin_feasible,
    hull_volume_oracle,
    lp_maximize_oracle,
    polytope_vertex_indices_by_rank,
    primitive_vector,
    upper_hull_facets_oracle,
    upper_hull_oracle,
)

F = Fraction


def test_as_fraction_accepts_int_str_fraction():
    assert as_fraction(3) == F(3)
    assert as_fraction("2/4") == F(1, 2)
    assert as_fraction(F(5, 7)) == F(5, 7)
    with pytest.raises(InputError):
        as_fraction(0.5)
    with pytest.raises(InputError):
        as_fraction("not a number")


def test_as_fraction_refuses_booleans():
    # bool is an int subclass; JSON input refuses booleans, and so does the API
    for flag in (True, False):
        with pytest.raises(InputError, match="got bool"):
            as_fraction(flag)
    quad = build_configuration([(0, 0), (1, 0), (0, 1), (-1, 0), (-1, -1)])
    with pytest.raises(InputError):
        Lifting.of(quad, [True, False, 0, 0, 1])
    with pytest.raises(InputError):
        build_configuration([(True, False), (0, 1), (0, 0)])


def test_primitive_vector():
    assert primitive_vector(vector([F(1, 2), F(3, 4)])) == vector([2, 3])
    assert primitive_vector(vector([-4, 6])) == vector([-2, 3])
    with pytest.raises(DegenerateInputError):
        primitive_vector(vector([0, 0]))


def test_matrix_rank():
    assert matrix_rank([[1, 0], [0, 1]]) == 2
    assert matrix_rank([[1, 2], [2, 4]]) == 1
    assert matrix_rank([]) == 0


def test_affine_rank_examples():
    assert affine_rank([(1, 0, 0), (0, 1, 0), (-1, -1, 0)]) == 2
    assert affine_rank([(0, 0)]) == 0
    assert affine_rank([(0, 0), (1, 1), (2, 2)]) == 1
    with pytest.raises(InputError):
        affine_rank([])


@given(
    st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9)), min_size=1, max_size=6),
    st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
)
@settings(deadline=None, max_examples=60)
def test_affine_rank_translation_invariant(pts, shift):
    shifted = [(x + shift[0], y + shift[1]) for x, y in pts]
    assert affine_rank(pts) == affine_rank(shifted)


def simplex_volume(points):
    """The normalized volume of a simplex, read off the volume vector of the
    one triangulation of its vertices."""
    config = build_configuration(points)
    t = induce_subdivision(config, Lifting.of(config, [0] * len(points)))
    (vol,) = set(gkz_vector(config, t).coordinates)
    return vol


def test_simplex_volume_examples():
    assert simplex_volume([(0, 0), (1, 0), (-1, -1)]) == 1
    assert simplex_volume([(0, 0), (1, 0), (0, 1)]) == 1
    assert simplex_volume([(0, 0, 0), (2, 0, 0), (0, 3, 0), (0, 0, 1)]) == 6
    assert simplex_volume([(0, 0), (F(1, 2), 0), (0, F(1, 3))]) == F(1, 6)
    # a cell of three collinear points
    line = build_configuration([(0, 0), (1, 0), (2, 0), (0, 1)])
    cells = [MarkedCell({0, 1, 2}), MarkedCell({0, 2, 3})]
    with pytest.raises(DegenerateInputError):
        gkz_vector(line, Subdivision(line, cells))


@given(st.permutations(range(4)))
@settings(deadline=None, max_examples=24)
def test_simplex_volume_permutation_invariant(perm):
    pts = [(0, 0, 0), (1, 0, 0), (1, 2, 0), (0, 1, 5)]
    reordered = [pts[i] for i in perm]
    assert simplex_volume(reordered) == simplex_volume(pts) == 10


def _facets(pts):
    """The configuration's inward facets, checked against the outward facets
    of the Fraction hull oracle, and its volume against the oracle's."""
    config = build_configuration(pts)
    want = [
        (tuple(-w for w in f.normal), -f.offset, f.members) for f in convex_hull_facets_oracle(pts)
    ]
    assert [(f.normal, f.threshold, f.members) for f in config.facets] == want
    assert config.volume == hull_volume_oracle(pts)
    return config.facets


def _upper_facets(lifted):
    """The supports and marks of the maximal cells that induce_subdivision
    reads off the upper hull of the lifted points (point, height), checked
    against the Fraction hull oracle."""
    config = build_configuration([p for p, _ in lifted])
    s = induce_subdivision(config, Lifting.of(config, [-h for _, h in lifted]))
    got = [(mc.support, mc.marks) for mc in s.maximal]
    assert got == upper_hull_facets_oracle(lifted)
    return got


def test_hull_square():
    facets = _facets([(0, 0), (1, 0), (1, 1), (0, 1)])
    assert len(facets) == 4
    member_sets = {f.members for f in facets}
    assert frozenset({0, 1}) in member_sets
    assert frozenset({2, 3}) in member_sets


def test_hull_with_collinear_boundary_point():
    # midpoint of the bottom edge lies on a facet but is not a vertex
    pts = [(0, 0), (2, 0), (2, 2), (0, 2), (1, 0), (1, 1)]
    facets = _facets(pts)
    assert len(facets) == 4
    bottom = next(f for f in facets if 4 in f.members)
    assert bottom.members == frozenset({0, 1, 4})
    assert polytope_vertex_indices_by_rank(pts) == frozenset({0, 1, 2, 3})


def test_hull_cube_merges_coplanar_facets():
    cube = [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
    facets = _facets(cube)
    assert len(facets) == 6
    assert all(len(f.members) == 4 for f in facets)
    assert build_configuration(cube).volume == 6  # normalized volume = euclidean * 3!


def test_hull_bipyramid():
    pts = [(1, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, 1), (0, 0, -1)]
    facets = _facets(pts)
    assert len(facets) == 6
    assert polytope_vertex_indices_by_rank(pts) == frozenset(range(5))


def test_hull_rejects_flat_input():
    with pytest.raises(DegenerateInputError, match="points span only 1 dimensions, need 2"):
        build_configuration([(0, 0), (1, 1), (2, 2)])


def test_hull_of_fractional_points():
    # the hull runs on the points times L = 6; each facet of the scaled
    # points is mapped back through L, so 2X + 3Y <= 6 there is 2x + 3y <= 1
    third = Fraction(1, 3)
    pts = [(0, 0), (Fraction(1, 2), 0), (0, third), (Fraction(1, 4), 0), (third, Fraction(1, 9))]
    facets = _facets(pts)
    assert [(f.normal, f.threshold, f.members) for f in facets] == [
        ((0, 1), 0, frozenset({0, 1, 3})),
        ((1, 0), 0, frozenset({0, 2})),
        ((-2, -3), -1, frozenset({1, 2, 4})),
    ]
    assert build_configuration(pts).volume == Fraction(1, 6)


QUAD = [(0, 0), (1, 0), (0, 1), (-1, 0), (-1, -1)]


def test_upper_hull_quadrilateral_crease():
    # heights -eta for eta = (-1, 1, 0, 2, 0)
    heights = [1, -1, 0, -2, 0]
    facets = _upper_facets(list(zip(QUAD, heights)))
    members = {m for _, m in facets}
    assert members == {
        frozenset({0, 1, 2}),
        frozenset({0, 2, 4}),
        frozenset({2, 3, 4}),
        frozenset({0, 1, 4}),
    }
    for fn, mem in facets:
        for i, (p, h) in enumerate(zip(QUAD, heights)):
            if i in mem:
                assert fn(p) == h
            else:
                assert fn(p) > h


def test_upper_hull_square_diagonal_split():
    square = [(0, 0), (1, 0), (1, 1), (0, 1)]
    facets = _upper_facets(list(zip(square, [0, 0, 0, -1])))
    assert {m for _, m in facets} == {frozenset({0, 1, 2}), frozenset({0, 2, 3})}


def test_upper_hull_flat_lift_single_facet():
    tri = [(0, 0), (1, 0), (0, 1)]
    facets = _upper_facets(list(zip(tri, [0, 0, 0])))
    assert len(facets) == 1
    fn, members = facets[0]
    assert members == frozenset({0, 1, 2})
    assert fn.linear == vector([0, 0]) and fn.constant == 0


def test_upper_hull_rejects_bad_bases():
    with pytest.raises(InputError):
        _upper_facets([((0, 0), 0), ((1, 0), 0), ((0, 1, 0), 0), ((1, 1), 1)])
    with pytest.raises(DegenerateInputError):
        _upper_facets([((0, 0), 0), ((1, 1), 5), ((2, 2), -1)])


@given(
    st.lists(st.integers(-4, 4), min_size=5, max_size=5),
)
@settings(deadline=None, max_examples=120)
def test_upper_hull_matches_exhaustive_oracle(heights):
    lifted = list(zip(QUAD, heights))
    got = _upper_facets(lifted)
    expected = upper_hull_oracle(lifted)
    assert [(fn.linear, fn.constant, m) for fn, m in got] == [
        (fn.linear, fn.constant, m) for fn, m in expected
    ]


@given(
    st.lists(
        st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-5, 5)),
        min_size=4,
        max_size=8,
    )
)
@settings(deadline=None, max_examples=80)
def test_upper_hull_oracle_agreement_random_configs(rows):
    pts = [(x, y) for x, y, _ in rows]
    if affine_rank(pts) < 2:
        return
    seen = set()
    lifted = []
    for x, y, h in rows:
        if (x, y) not in seen:
            seen.add((x, y))
            lifted.append(((x, y), h))
    got = _upper_facets(lifted)
    expected = upper_hull_oracle(lifted)
    assert [(fn.linear, fn.constant, m) for fn, m in got] == [
        (fn.linear, fn.constant, m) for fn, m in expected
    ]


def _fn(linear, constant=0):
    return AffineFunctional(vector(linear), as_fraction(constant))


# The exact LP left the library with its only caller, the subdivision
# validator in oracles.py; these pin the Fraction simplex it runs on, and
# Fourier-Motzkin elimination, the feasibility reference for cones.


def test_lp_feasible_strict_basics():
    # 0 < x < 1
    assert fourier_motzkin_feasible([_fn([1]), _fn([-1], -1)], [], [], 1)
    # x > 0 and -x > 0 has no solution
    assert not fourier_motzkin_feasible([_fn([1]), _fn([-1])], [], [], 1)
    # equality x = 0 with weak x >= 0 is feasible at 0
    assert fourier_motzkin_feasible([], [_fn([1])], [_fn([1])], 1)
    # strict x > 0 with equality x = 0 infeasible
    assert not fourier_motzkin_feasible([_fn([1])], [], [_fn([1])], 1)


def test_lp_unbounded_direction_is_fine():
    # x > 5 alone is feasible, and maximizing x over x >= 5 is unbounded
    assert fourier_motzkin_feasible([_fn([1], 5)], [], [], 1)
    status, x, value = lp_maximize_oracle([1], [[-1]], [-5], [], [])
    assert status == "unbounded" and x[0] >= 5 and value is None


def test_lp_maximize_simple():
    status, x, value = lp_maximize_oracle([1], [[1]], [7], [], [])
    assert status == "optimal" and value == 7
    status, _, _ = lp_maximize_oracle([1], [], [], [], [])
    assert status == "unbounded"
    status, _, _ = lp_maximize_oracle([1], [[1], [-1]], [-1, -1], [], [])
    assert status == "infeasible"


@given(
    st.integers(1, 3),
    st.lists(
        st.tuples(
            st.lists(st.integers(-3, 3), min_size=3, max_size=3),
            st.integers(-4, 4),
            st.sampled_from([">=", "="]),
        ),
        min_size=1,
        max_size=6,
    ),
)
@settings(deadline=None, max_examples=150)
def test_lp_agrees_with_fourier_motzkin(dim, rows):
    # the weak and equality constraints the validator's LPs solve over
    weak, eqs = [], []
    for lin, c, kind in rows:
        (weak if kind == ">=" else eqs).append(_fn(lin[:dim], c))
    status, x, _ = lp_maximize_oracle(
        [0] * dim,
        [[-a for a in fn.linear] for fn in weak],
        [-fn.constant for fn in weak],
        [fn.linear for fn in eqs],
        [fn.constant for fn in eqs],
    )
    assert (status != "infeasible") == fourier_motzkin_feasible([], weak, eqs, dim)
    if status != "infeasible":
        assert all(fn(x) >= 0 for fn in weak) and all(fn(x) == 0 for fn in eqs)


def test_one_dimensional_hull():
    pts = [(0,), (5,), (2,), (3,)]
    facets = _facets(pts)
    assert len(facets) == 2
    member_sets = {f.members for f in facets}
    assert member_sets == {frozenset({0}), frozenset({1})}
    assert build_configuration(pts).volume == 5
    assert polytope_vertex_indices_by_rank(pts) == frozenset({0, 1})


def test_upper_hull_one_dimensional_base():
    lifted = [((0,), 0), ((1,), 1), ((2,), 0)]
    facets = _upper_facets(lifted)
    assert {m for _, m in facets} == {frozenset({0, 1}), frozenset({1, 2})}


def test_affine_coordinates_lower_dimensional():
    pts = [(0, 0, 1), (1, 1, 1), (2, 2, 1), (1, 0, 1)]
    coords = affine_coordinates(pts)
    assert len(coords[0]) == 2
    assert coords[0] == (0, 0)
    # pairwise affine relations preserved: (2,2,1) = 2*(1,1,1) - (0,0,1)
    assert coords[2] == tuple(2 * a - b for a, b in zip(coords[1], coords[0]))


def test_polytope_vertex_indices_segment_in_plane():
    assert polytope_vertex_indices_by_rank([(0, 0), (2, 2), (1, 1)]) == frozenset({0, 1})
    assert polytope_vertex_indices_by_rank([(3, 4)]) == frozenset({0})


def test_face_member_sets_square_with_edge_midpoint():
    pts = [(0, 0), (2, 0), (2, 2), (0, 2), (1, 0)]
    faces = face_member_sets_recursive(pts)
    assert frozenset(range(5)) in faces              # the square itself
    assert frozenset({0, 1, 4}) in faces             # bottom edge with midpoint
    assert frozenset({0}) in faces and frozenset({4}) not in faces
    # 4 vertices, 4 edges, 1 two-face
    assert len(faces) == 9


def test_face_member_sets_triangle():
    faces = face_member_sets_recursive([(0, 0), (1, 0), (0, 1)])
    assert len(faces) == 7  # 3 vertices + 3 edges + 1 triangle
